"""Malformed state files, generated: every table cell of a small seeded
state, the events table's among them, every entry of its `ids` table and,
one level down, every entry of a list cell and every value of a dict cell
is set in turn to each of a few JSON values, and each mutated file is
driven through `cli.main` for a fixed list of verbs.

A value whose JSON kind its field's annotation rules out (or a size the
field declares positive that is not) must be refused on load by every
verb: exit 5 and one `error: state file ... is malformed:` line. An id
column (`REFS`) or an interned name column (`V7_REFS`) is read by its
kind in the file, an index into `ids`: it admits an integer from 0 to
the last entry, and null where the field admits None. An `ids` entry
admits only text. Any other value may be accepted or refused, but only
with a documented exit code and one `error:` line, never with an
exception out of `cli.main`.
"""

import json

import pytest

from conftest import make_env
from minimano import cli
from minimano.codec import fields
from minimano.engine import ResourceRecord, Stack, StackRun, WaitCondition, WaitHandle
from minimano.hot import parse_template
from minimano.identity import Tenant, Token, User
from minimano.nfvi import (
    FloatingIp,
    Flavor,
    Host,
    Image,
    Instance,
    KeyPair,
    Network,
    Router,
    SecurityGroup,
    SecurityGroupRule,
    Volume,
    VolumeSnapshot,
)
from minimano.statefile import save_world
from minimano.telemetry import (
    AlarmDef,
    HealerConfig,
    LoadGenerator,
    MetricSample,
    ScalingGroup,
    ScheduledFault,
    ScheduledMetric,
)
from minimano.world import Event
from test_state_v1 import REFS, V7_REFS

VALUES = ["x", -1, 0, None, 1.5, [], {}]
EXIT_CODES = {0, 2, 3, 4, 5, 6}  # the documented ones

# (section, table) -> the row class; a nested table is named by its column
TABLES = {
    ("identity", "tenants"): Tenant, ("identity", "users"): User,
    ("identity", "tokens"): Token,
    ("provider", "hosts"): Host, ("provider", "images"): Image,
    ("provider", "flavors"): Flavor, ("provider", "keypairs"): KeyPair,
    ("provider", "secgroups"): SecurityGroup, ("provider", "instances"): Instance,
    ("provider", "networks"): Network, ("provider", "routers"): Router,
    ("provider", "fips"): FloatingIp, ("provider", "volumes"): Volume,
    ("engine", "stacks"): Stack, ("engine", "runs"): StackRun,
    ("engine", "handles"): WaitHandle, ("engine", "conditions"): WaitCondition,
    ("telemetry", "samples"): MetricSample, ("telemetry", "alarms"): AlarmDef,
    ("telemetry", "groups"): ScalingGroup, ("telemetry", "generators"): LoadGenerator,
    ("telemetry", "scheduled_metrics"): ScheduledMetric,
    ("telemetry", "scheduled_faults"): ScheduledFault,
}
NESTED = {(SecurityGroup, "rules"): SecurityGroupRule, (Volume, "snapshots"): VolumeSnapshot,
          (Stack, "records"): ResourceRecord}
# the fields whose sizes feed arithmetic, declared positive
POSITIVE = {(Host, "vcpus"), (Host, "ram_mib"), (Host, "disk_gib"), (Flavor, "vcpus"),
            (Flavor, "ram_mib"), (Flavor, "disk_gib"), (HealerConfig, "detect_interval"),
            (LoadGenerator, "period"), (Volume, "size_gib"), (AlarmDef, "window")}
# the test's own reading of an annotation: the JSON kinds it admits
KINDS = {"str": {str}, "int": {int}, "float": {float, int}, "bool": {bool}, "list": {list},
         "dict": {dict}, "None": {type(None)}}


def admits(cls, name, value, ids) -> bool:
    if cls is None:  # an entry of `ids`
        return type(value) is str
    annotation = cls.__annotations__[name]
    text = annotation if isinstance(annotation, str) else getattr(
        annotation, "__name__", str(annotation))
    kinds = set().union(*(KINDS[part.strip()] for part in text.split("|")))
    if name in REFS.get(cls, set()) | V7_REFS.get(cls, set()):
        if value is None:
            return type(None) in kinds
        return type(value) is int and 0 <= value < len(ids)
    if type(value) not in kinds:
        return False
    return (cls, name) not in POSITIVE or value > 0


# a wait that two signals end, long after the ticks the verbs advance
WAIT_TEMPLATE = """heat_template_version: 2013-05-23
resources:
  handle:
    type: OS::Heat::WaitConditionHandle
  gate:
    type: OS::Heat::WaitCondition
    properties:
      handle: { get_resource: handle }
      timeout: 50
      count: 2
"""


def build_state(path):
    """A seeded state with a row in most tables: a stack, a one-member
    scaling group with an alarm, a sample and a metric and a fault
    scheduled past the ticks the verbs advance, a router with an external
    gateway on the member's network, a rule with a CIDR remote, a floating
    address and one associated with the member, a volume, a stack blocked
    on a wait whose handle holds one signal, and two ticks. Returns the
    ids the verbs name."""
    env = make_env(seed=1)
    world = env.world
    stack = world.engine.create_stack("s1", env.parse("example1.yaml"), token=env.token)
    member = {"image": "ubuntu_cloud14", "flavor": "m1.small", "networks": ["my_net1"]}
    group = world.telemetry.create_group("g", env.tenant_id, member, 1, 1, 1)
    world.provider.create_router(env.tenant_id, "edge", external=True)
    world.provider.attach_subnet(env.tenant_id, "edge", "my_net1")
    world.provider.add_security_group_rule(env.tenant_id, "default", "tcp", 22, 22,
                                           remote="10.0.0.0/24")
    world.provider.associate_floating_ip(world.provider.allocate_floating_ip(env.tenant_id).id,
                                         group.members[0])
    wait = world.engine.create_stack("w", parse_template(WAIT_TEMPLATE), token=env.token)
    url = wait.records["handle"].attributes["curl_cli"]
    world.engine.deliver_signal(url, {"status": "SUCCESS"})
    world.telemetry.create_alarm("hot", "cpu_util", "avg", "gt", 0.8, 2, "g", "scale_out")
    world.telemetry.record_metric(group.members[0], "cpu_util", 0.5)
    world.telemetry.scheduled_metrics.append(
        ScheduledMetric(tick=100, metric="cpu_util", value=0.5, resource=group.members[0]))
    world.telemetry.scheduled_faults.append(ScheduledFault(tick=100, group="g", member_index=0))
    world.telemetry.healer = HealerConfig(True, 1)
    fip = world.provider.allocate_floating_ip(env.tenant_id)
    volume = world.provider.create_volume(env.tenant_id, 1)
    world.advance_clock(2)
    save_world(world, str(path))
    server = next(iter(stack.records.values())).physical_id
    return env.token, {"stack": stack.id, "member": group.members[0], "server": server,
                       "fip": fip.id, "volume": volume.id, "member_spec": json.dumps(member),
                       "url": url}


def verbs(ids) -> list:
    return [
        ["stack-list"], ["stack-show", ids["stack"]], ["events-tail"], ["clock-advance", "2"],
        ["group-create", "g2", "--min", "1", "--max", "1", "--desired", "1",
         "--member", ids["member_spec"]],
        ["fip-associate", ids["fip"], ids["member"]],
        ["metric-push", ids["member"], "cpu_util", "0.7"],
        ["volume-attach", ids["volume"], ids["member"]],
        ["connectivity-check", ids["member"], ids["server"], "--protocol", "tcp", "--port", "22"],
        ["connectivity-check", "external", ids["member"], "--protocol", "tcp", "--port", "22"],
        ["signal", ids["url"], '{"status": "SUCCESS"}'],
        ["stack-delete", ids["stack"]], ["net-create", "n2", "--cidr", "10.9.0.0/24"],
    ]


def cells(data):
    """(label, class, field, container, index) of every table cell, nested
    tables too, and of every `ids` entry, whose class is None."""
    def table(label, cls, data):
        for name, column in zip(data["fields"], data["columns"]):
            nested = NESTED.get((cls, name))
            for index in range(len(column)):
                if nested is not None:
                    yield from table(f"{label}.{name}", nested, column[index])
                else:
                    yield label, cls, name, column, index

    for (section, name), cls in TABLES.items():
        yield from table(f"{section}.{name}", cls, data[section][name])
    yield from table("events", Event, data["events"])
    healer = data["telemetry"]["healer"]
    for name in healer:
        yield "telemetry.healer", HealerConfig, name, healer, name
    for index in range(len(data["ids"])):
        yield "ids", None, "entry", data["ids"], index


def mutations(data):
    """(case, refused on load, whether it is the first refusal of its
    field) for each cell and value; the snapshot is edited in place and
    restored after the last value. A refusal depends on the field alone,
    so it is tried once per field and value."""
    tried, fields = set(), set()
    for label, cls, name, container, index in cells(data):
        original = container[index]
        for value in VALUES:
            refused = not admits(cls, name, value, data["ids"])
            key = (label, name, json.dumps(value))
            if refused and key in tried:
                continue
            first = refused and (label, name) not in fields
            if refused:
                tried.add(key)
                fields.add((label, name))
            container[index] = value
            yield f"{label}.{name} = {value!r}", refused, first
        container[index] = original


def test_every_malformed_cell_exits_cleanly(tmp_path, monkeypatch, capsys):
    """A value of the field's kind is tried under every verb, unless the
    first verb refuses it on load (by a field's rule, say). A state file
    is refused on load, before the verb runs, so a field's first value of
    another kind is tried under every verb and each other one under the
    next verb in turn: every (field, value) and every (field, verb) is
    refused, in under 10 s."""
    base = tmp_path / "base.json"
    token, ids = build_state(base)
    monkeypatch.setenv(cli.TOKEN_ENV, token)
    state = tmp_path / "state.json"
    malformed = f"error: state file {str(state)!r} is malformed: "
    data = json.loads(base.read_text())
    every = verbs(ids)
    refusals = 0
    for case, refused, first in mutations(data):
        text = json.dumps(data)
        state.write_text(text)
        refusals += refused
        for argv in every if first or not refused else [every[refusals % len(every)]]:
            if not refused:  # a verb may have saved a change
                state.write_text(text)
            code = cli.main([*argv, "--state", str(state), "--tick-ms", "0"])
            lines = capsys.readouterr().err.splitlines()
            where = f"{case} under {argv[0]}: exit {code}, {lines}"
            if refused:
                assert code == 5 and len(lines) == 1 and lines[0].startswith(malformed), where
            else:
                assert code in EXIT_CODES, where
                assert code == 0 or len(lines) == 1 and lines[0].startswith("error: "), where
                if lines and lines[0].startswith(malformed):
                    break
    assert refusals > 600


def entries(data):
    """(label, container, key) of each entry of a list cell and each value
    of a dict cell of every table, nested tables too."""
    for label, cls, name, container, index in cells(data):
        value = container[index]
        if cls is not None and type(value) in (list, dict):
            for key in (value if type(value) is dict else range(len(value))):
                yield f"{label}.{name}[{key!r}]", value, key


def test_every_malformed_entry_exits_cleanly(tmp_path, monkeypatch, capsys):
    """One level down: each entry of a list cell and each value of a dict
    cell set to each value, and tried under every verb. A refusal on load
    comes before the verb runs, so a case refused under the first verb is
    tried under no other. Each ended in a traceback from some verb when
    only the cell's kind was checked on load: a router interface or a
    group member of `[]`, a rule's `remote_cidr` of `"not-a-cidr"`, or a
    pending handle's signal payload that is no signal."""
    base = tmp_path / "base.json"
    token, ids = build_state(base)
    monkeypatch.setenv(cli.TOKEN_ENV, token)
    state = tmp_path / "state.json"
    malformed = f"error: state file {str(state)!r} is malformed: "
    data = json.loads(base.read_text())
    cases = 0
    for case, container, key in list(entries(data)):
        original = container[key]
        for value in VALUES:
            container[key] = value
            text = json.dumps(data)
            cases += 1
            for argv in verbs(ids):
                state.write_text(text)
                code = cli.main([*argv, "--state", str(state), "--tick-ms", "0"])
                lines = capsys.readouterr().err.splitlines()
                where = f"{case} = {value!r} under {argv[0]}: exit {code}, {lines}"
                assert code in EXIT_CODES, where
                assert code == 0 or len(lines) == 1 and lines[0].startswith("error: "), where
                if lines and lines[0].startswith(malformed):
                    break
        container[key] = original
    assert cases > 300


# a schedule -> its record, and the values of a valid row for the next tick
SCHEDULE_ROWS = {
    "scheduled_metrics": (ScheduledMetric, {"tick": "T+1", "metric": "cpu_util", "value": 0.5,
                                            "resource": None, "group": "g",
                                            "member_index": None}),
    "scheduled_faults": (ScheduledFault, {"tick": "T+1", "kind": "instance_crash",
                                          "resource": None, "group": "g", "member_index": None}),
}


def schedule_row(schedule, **change) -> list:
    """A row of `schedule`'s table, in its header's order, with `change`."""
    return list({**SCHEDULE_ROWS[schedule][1], **change}.values())


@pytest.mark.parametrize("schedule, rows", [
    ("scheduled_metrics", [schedule_row("scheduled_metrics", metric=None)]),
    ("scheduled_metrics", [schedule_row("scheduled_metrics", group=None)]),
    ("scheduled_metrics", [schedule_row("scheduled_metrics", group=[])]),
    ("scheduled_metrics", [schedule_row("scheduled_metrics", value="x")]),
    ("scheduled_faults", [schedule_row("scheduled_faults", member_index="x")]),
    ("scheduled_faults", [schedule_row("scheduled_faults", kind="reboot")]),
    ("scheduled_faults", [schedule_row("scheduled_faults", member_index=-1)]),
    ("scheduled_faults", [["T+1", "g"]]),
    ("scheduled_faults", {"tick": "T+1"}),
], ids=["metric-lacks-metric", "metric-names-no-target", "metric-group-a-list",
        "metric-value-not-a-number", "fault-member_index-not-an-integer", "fault-kind-unknown",
        "fault-member_index-negative", "fault-not-an-object", "faults-not-a-list"])
def test_a_malformed_schedule_entry_is_refused_on_load(tmp_path, monkeypatch, capsys, schedule,
                                                       rows):
    """A row for the next tick, in the schedule's table: each made
    `clock-advance` end in an exception, or fail there on every later
    call, when schedules were stored as JSON objects; a negative
    `member_index` silently targeted the youngest member."""
    path = tmp_path / "state.json"
    token, _ = build_state(path)
    data = json.loads(path.read_text())
    cls = SCHEDULE_ROWS[schedule][0]
    rows = json.loads(json.dumps(rows).replace('"T+1"', str(data["tick"] + 1)))
    data["telemetry"][schedule] = {"fields": [f.name for f in fields(cls)], "columns": list(
        map(list, zip(*rows))) if type(rows) is list else rows}
    path.write_text(json.dumps(data))
    monkeypatch.setenv(cli.TOKEN_ENV, token)
    code = cli.main(["clock-advance", "2", "--state", str(path), "--tick-ms", "0"])
    lines = capsys.readouterr().err.splitlines()
    assert code == 5 and len(lines) == 1
    assert lines[0].startswith(f"error: state file {str(path)!r} is malformed: {cls.__name__} ")


@pytest.mark.parametrize("port_min, port_max", [(-1, 22), (90, 10), (22, 65536)],
                         ids=["below-zero", "downward", "past-65535"])
def test_a_rule_whose_port_range_matches_no_port_is_refused_on_load(tmp_path, monkeypatch,
                                                                    capsys, port_min, port_max):
    """`connectivity-check` silently never matched such a rule, which
    `secgroup-rule-add` refuses."""
    path = tmp_path / "state.json"
    token, ids = build_state(path)
    data = json.loads(path.read_text())
    secgroups = data["provider"]["secgroups"]
    rules = secgroups["columns"][secgroups["fields"].index("rules")][0]
    for column, value in zip(rules["columns"],
                             ["ingress", "tcp", port_min, port_max, "0.0.0.0/0", None]):
        column.append(value)
    assert rules["fields"] == [f.name for f in fields(SecurityGroupRule)]
    path.write_text(json.dumps(data))
    monkeypatch.setenv(cli.TOKEN_ENV, token)
    code = cli.main(["connectivity-check", ids["member"], ids["server"], "--protocol", "tcp",
                     "--port", "22", "--state", str(path)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 5 and len(lines) == 1
    assert lines[0].startswith(f"error: state file {str(path)!r} is malformed: SecurityGroupRule "
                               f"port range {port_min}-{port_max} matches no port")
