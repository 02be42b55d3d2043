"""The committed state fixtures: snapshots that hold every kind of
persisted row. `state_v1.json` was written by the package before the
snapshot codec existed; `state_v2.json` was written by the package at
snapshot v2, the last version with one object per row, from
`build_fixture_world`.

The fixtures stay as they were written. Loading the v1 fixture and
dumping it again goes through every upgrade step. Its v2 form is the same
bytes with `v` set to 2 and the three fields v2 dropped (`image_cache` in
each host, `registered_at` in each catalog endpoint, which leaves the
bare url, and the healer's `heal_window`) removed, which is the v2
fixture. Its v3 form stores each registry as a table: `fields` lists the
record fields in order and each row the values in that order, nested
tables included; a v3 stack kept its template `source` after its
`status`. Its v4 form moves each stack's `source` to the end of its
pending run's row, and drops it from a stack whose run has ended. Its v5
form drops six fields that nothing read, stores the events as one table,
and writes each id column's cell as an index into one `ids` list (see
`v5_text`). Its v6 form stores each schedule as a table of its record
(see `v6_text`). Its v7 form stores each table as one list per column,
and interns seven name columns too (see `v7_text`). Every registry value
and nested row must load as its record class (a decoder that left rows
as dicts would still round-trip the bytes).
"""

import copy
import json
import re
from pathlib import Path

import pytest

from minimano import cli
from minimano.codec import Columns, fields
from minimano.engine import ResourceRecord, Stack, StackRun, WaitCondition, WaitHandle
from minimano.hot import TemplateDoc, parse_template
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
from minimano.statefile import load_world, save_world
from minimano.telemetry import (
    AlarmDef,
    HealerConfig,
    LoadGenerator,
    MetricSample,
    ScalingGroup,
    ScheduledFault,
    ScheduledMetric,
)
from minimano.world import Event, World, _upgrade_v1, _upgrade_v2, _upgrade_v3

TEMPLATES = Path(__file__).resolve().parent.parent / "templates"
FIXTURE = Path(__file__).resolve().parent / "data" / "state_v1.json"
FIXTURE_V2 = Path(__file__).resolve().parent / "data" / "state_v2.json"

# every registry of a snapshot, listed here apart from the package's own
# layouts: section -> name -> (row class, {nested field: its row class})
REGISTRIES = {
    "identity": {"tenants": (Tenant, {}), "users": (User, {}), "tokens": (Token, {})},
    "provider": {"hosts": (Host, {}), "images": (Image, {}), "flavors": (Flavor, {}),
                 "keypairs": (KeyPair, {}),
                 "secgroups": (SecurityGroup, {"rules": SecurityGroupRule}),
                 "instances": (Instance, {}), "networks": (Network, {}),
                 "routers": (Router, {}), "fips": (FloatingIp, {}),
                 "volumes": (Volume, {"snapshots": VolumeSnapshot})},
    "engine": {"stacks": (Stack, {"records": ResourceRecord}), "runs": (StackRun, {}),
               "handles": (WaitHandle, {}), "conditions": (WaitCondition, {})},
    "telemetry": {"samples": (MetricSample, {}), "alarms": (AlarmDef, {}),
                  "groups": (ScalingGroup, {}), "generators": (LoadGenerator, {})},
}

# the schedules, which v6 stores as tables and v2 to v5 as JSON objects
SCHEDULES = {"scheduled_metrics": ScheduledMetric, "scheduled_faults": ScheduledFault}

# the columns v5 stores as indices into its `ids` list: every id, and
# every column that names a row by its id
REFS = {
    Tenant: {"id"}, User: {"id"}, Token: {"id", "tenant_id"},
    Host: {"id"}, Image: {"id", "tenant_id"}, Flavor: {"id", "tenant_id"},
    KeyPair: {"id", "tenant_id"}, SecurityGroup: {"id", "tenant_id"}, SecurityGroupRule: set(),
    Instance: {"id", "tenant_id", "image_id", "host_id"},
    Network: {"id", "tenant_id", "router_id"}, Router: {"id", "tenant_id"},
    FloatingIp: {"id", "tenant_id", "associated_instance"}, VolumeSnapshot: {"id"},
    Volume: {"id", "tenant_id", "attached_to"},
    Stack: {"id", "tenant_id"}, ResourceRecord: {"uuid", "physical_id"},
    StackRun: {"stack_id", "token_id"}, WaitHandle: {"id", "stack_id"},
    WaitCondition: {"handle_id", "stack_id"},
    MetricSample: {"resource_id"}, AlarmDef: {"id"}, ScalingGroup: {"id", "tenant_id"},
    LoadGenerator: set(), Event: {"subject"},
    ScheduledMetric: {"resource"}, ScheduledFault: {"resource"},
}
# the columns v7 stores as indices into `ids` besides `REFS`: the names
# that rows repeat
V7_REFS = {MetricSample: {"metric"}, Event: {"kind"}, ResourceRecord: {"type", "state"},
           Instance: {"flavor_name", "key_name", "state"}}
# the fields that v5 dropped, as v2 to v4 held them: the field each followed
V4_DROPPED = {
    Token: {"user_id": "id"},
    Instance: {"ephemeral_image_b64": "authorized_keys", "created_at": "guest_log"},
    ScalingGroup: {"stack_id": "member_seq"},
    WaitHandle: {"resource_name": "stack_id"},
    WaitCondition: {"resource_name": "stack_id"},
}


def dump(world) -> str:
    return json.dumps(world.to_snapshot(), separators=(",", ":"))


def parsed_fields(source):
    """The document `source` parses to, as each definition's fields, but
    not its warnings or the text itself."""
    doc = parse_template(source)
    return tuple({name: vars(d) for name, d in part.items()}
                 for part in (doc.parameters, doc.resources, doc.outputs))


def assert_same_snapshot(text, expected):
    """`text` is `expected` byte for byte, but for each run's template
    `source`, which need only parse to the same document: the fixtures
    store the canonical text that the package once wrote in its place."""
    tables, docs = [], []
    for data in map(json.loads, (text, expected)):
        runs = data["engine"]["runs"]
        sources = runs["columns"][runs["fields"].index("source")]
        docs.append([parsed_fields(source) for source in sources])
        sources[:] = [None] * len(sources)
        tables.append(json.dumps(data, separators=(",", ":")))
    assert docs[0] == docs[1]
    assert tables[0] == tables[1]


def build_fixture_world() -> World:
    world = World(seed=2021, template_dir=str(TEMPLATES))
    identity, provider, engine, telemetry = (
        world.identity, world.provider, world.engine, world.telemetry)
    admin = identity.tenant_by_name("admin")
    token = identity.authenticate("admin", "admin", "admin").id
    identity.create_tenant("demo", token)
    identity.create_user("alice", "s3cret", token)
    identity.assign_role("alice", "demo", "member", token)
    identity.register_service("dns", "local:///dns", token)

    provider.register_image(admin.id, "ubuntu_cloud14", b"ubuntu cloud image")
    provider.create_flavor(admin.id, "m1.small", 1, 2048, 20)
    provider.create_keypair(admin.id, "my_key1")
    provider.create_network(admin.id, "my_net1", "10.0.0.0/24")
    provider.create_router(admin.id, "edge", external=True)
    provider.attach_subnet(admin.id, "edge", "my_net1")
    provider.add_security_group_rule(admin.id, "default", "tcp", 22, 22)
    provider.add_security_group_rule(admin.id, "default", "icmp", remote="default")

    # a nested stack that completes: its child records carry `parent`
    wp = engine.create_stack("wp", parse_template((TEMPLATES / "example4.yaml").read_text()),
                             {}, token=token)
    assert wp.status == "CREATE_COMPLETE", wp.failure_reason
    # a stack parked on its wait condition: a run, a handle and a condition.
    # Its boot script is cut from the text, which the run stores, so the
    # guest never signals
    mysql = (TEMPLATES / "mysql.yaml").read_text()
    script = re.search(r"(?m)^      user_data:\n(?: {8}.*\n)+", mysql).group()
    mysql = mysql.replace(script, "      user_data: |\n        #!/bin/sh\n")
    db = engine.create_stack("db", parse_template(mysql), {}, token=token)
    assert db.status == "CREATE_IN_PROGRESS"

    server = next(i for i in provider.instances.values() if i.name.startswith("wp-wordpress"))
    volume = provider.create_volume(admin.id, 1)
    provider.write_volume(volume.id, b"volume payload")
    provider.snapshot_volume(volume.id)
    provider.attach_volume(volume.id, server.id)
    fip = provider.allocate_floating_ip(admin.id)
    provider.associate_floating_ip(fip.id, server.id)
    provider.put_object(admin.id, "bucket", "hello.txt", b"hello")

    member = {"image": "ubuntu_cloud14", "flavor": "m1.small", "networks": ["my_net1"]}
    telemetry.create_group("web", admin.id, member, 1, 3, 2)
    telemetry.create_alarm("web-high", "cpu_util", "avg", "gt", 0.7, 3, "web", "scale_out")
    telemetry.healer = HealerConfig(enabled=True, detect_interval=2)
    telemetry.generators.append(LoadGenerator("web", seed=5))
    telemetry.scheduled_metrics.append(
        ScheduledMetric(tick=50, group="web", metric="cpu_util", value=0.9))
    telemetry.scheduled_faults.append(ScheduledFault(tick=60, group="web", member_index=0))
    world.advance_clock(3)

    # the fixture names no checkout path
    engine.template_dir = None
    return world


def v2_text(v1_text) -> str:
    """The fixture's text as v2 writes it, edited as text so that nothing
    else in it can move."""
    text, n = re.subn(r'^\{"v":1,', '{"v":2,', v1_text)
    assert n == 1
    for pattern, replacement, count in (
        (r',"image_cache":\[[^\]]*\]', "", 1),  # the fixture has one host
        (r'\{"url":("[^"]*"),"registered_at":\d+\}', r"\1", 9),  # 8 defaults and "dns"
        (r',"heal_window":\d+', "", 1),
    ):
        text, n = re.subn(pattern, replacement, text)
        assert n == count, pattern
    return text


def v3_names(cls) -> list:
    """The v3 header of a `cls` table: v3 kept a stack's `source` after its
    `status`, none in a run, and the fields v5 dropped."""
    names = []
    for f in fields(cls):
        names += [f.name, *(name for name, prior in V4_DROPPED.get(cls, {}).items()
                            if prior == f.name)]
    if cls is Stack:
        names.insert(names.index("status") + 1, "source")
    if cls is StackRun:
        names.remove("source")
    return names


def _table(rows, cls, nested):
    names = v3_names(cls)
    return {"fields": names, "rows": [
        [_table(row[name], nested[name], {}) if name in nested else row[name] for name in names]
        for row in rows]}


def v3_text(v2) -> str:
    """A v2 snapshot's text as v3 writes it: each registry in `REGISTRIES`
    becomes a table, and nothing else moves."""
    data = json.loads(v2)
    data["v"] = 3
    for section, registries in REGISTRIES.items():
        for name, (cls, nested) in registries.items():
            data[section][name] = _table(data[section][name], cls, nested)
    return json.dumps(data, separators=(",", ":"))


def v4_text(v3) -> str:
    """A v3 snapshot's text as v4 writes it: each stack's `source` moves to
    the end of its run's row, or goes where the stack has no run."""
    data = json.loads(v3)
    data["v"] = 4
    stacks, runs = data["engine"]["stacks"], data["engine"]["runs"]
    id_col, source_col = stacks["fields"].index("id"), stacks["fields"].index("source")
    sources = {row[id_col]: row.pop(source_col) for row in stacks["rows"]}
    del stacks["fields"][source_col]
    stack_col = runs["fields"].index("stack_id")
    runs["fields"].append("source")
    for row in runs["rows"]:
        row.append(sources[row[stack_col]])
    return json.dumps(data, separators=(",", ":"))


def v5_text(v4) -> str:
    """A v4 snapshot's text as v5 writes it. Each table keeps the fields
    v5 declares, which drops the six that nothing read, and the events
    become a table of the same four keys. Each `REFS` cell then becomes an
    index into one `ids` list, which ends the snapshot, and null stays
    null. A string is listed where it is first seen: table by table in
    snapshot order, the events last, a table's nested tables before its
    own columns, and each column from top to bottom."""
    data = json.loads(v4)
    data["v"] = 5
    ids = {}

    def table(data, cls, nested):
        names = [f.name for f in fields(cls)]
        rows = [dict(zip(data["fields"], row)) for row in data["rows"]]
        for column, row_cls in nested.items():
            for row in rows:
                row[column] = table(row[column], row_cls, {})
        for name in names:
            for row in rows:
                if name in REFS[cls] and row[name] is not None:
                    row[name] = ids.setdefault(row[name], len(ids))
        return {"fields": names, "rows": [[row[name] for name in names] for row in rows]}

    for section, registries in REGISTRIES.items():
        for name, (cls, nested) in registries.items():
            data[section][name] = table(data[section][name], cls, nested)
    keys = ["tick", "kind", "subject", "detail"]
    events = {"fields": keys, "rows": [[event[key] for key in keys] for event in data["events"]]}
    data["events"] = table(events, Event, {})
    data["ids"] = list(ids)
    return json.dumps(data, separators=(",", ":"))


def v6_text(v5) -> str:
    """A v5 snapshot's text as v6 writes it: each schedule becomes a table
    of its record's fields, where a key an entry lacks (or holds as null)
    is its field's default, and nothing else moves. No fixture schedules
    a `resource`, so the `ids` list stays as it is."""
    data = json.loads(v5)
    data["v"] = 6
    telemetry = data["telemetry"]
    for name, cls in SCHEDULES.items():
        names = [f.name for f in fields(cls)]
        defaults = {"kind": "instance_crash"} if cls is ScheduledFault else {}
        rows = [[entry.get(key) if entry.get(key) is not None else defaults.get(key)
                 for key in names] for entry in telemetry[name]]
        assert all(row[names.index("resource")] is None for row in rows)
        telemetry[name] = {"fields": names, "rows": rows}
    return json.dumps(data, separators=(",", ":"))


def v7_text(v6) -> str:
    """A v6 snapshot's text as v7 writes it. Each table holds one list per
    column in place of one per row, and each `V7_REFS` cell becomes an
    index into `ids` as each `REFS` cell is. The `ids` list is then
    listed afresh, in the order `v5_text` lists it."""
    data = json.loads(v6)
    data["v"] = 7
    stored, ids = data["ids"], {}

    def table(data, cls, nested):
        names = [f.name for f in fields(cls)]
        columns = [list(column) for column in zip(*data["rows"])] or [[] for _ in names]
        for i, name in enumerate(names):
            if name in nested:
                columns[i] = [table(inner, nested[name], {}) for inner in columns[i]]
        for i, name in enumerate(names):
            if name in REFS[cls] | V7_REFS.get(cls, set()):
                columns[i] = [None if value is None else ids.setdefault(
                    stored[value] if name in REFS[cls] else value, len(ids))
                    for value in columns[i]]
        return {"fields": names, "columns": columns}

    for section, registries in REGISTRIES.items():
        for name, (cls, nested) in registries.items():
            data[section][name] = table(data[section][name], cls, nested)
    for name, cls in SCHEDULES.items():
        data["telemetry"][name] = table(data["telemetry"][name], cls, {})
    data["events"] = table(data["events"], Event, {})
    data["ids"] = list(ids)
    return json.dumps(data, separators=(",", ":"))


def current_text(v4) -> str:
    """A v4 snapshot's text as the package now writes it."""
    return v7_text(v6_text(v5_text(v4)))


def fixture_texts() -> tuple:
    """The v1 fixture, the v2 fixture, and the v3, v4, v5, v6 and v7 forms
    of both."""
    v1, v2 = FIXTURE.read_text(encoding="utf-8"), FIXTURE_V2.read_text(encoding="utf-8")
    v3 = v3_text(v2)
    v4 = v4_text(v3)
    v5 = v5_text(v4)
    v6 = v6_text(v5)
    return v1, v2, v3, v4, v5, v6, v7_text(v6)


def test_fixture_upgrades_to_v3_on_load():
    v1, v2, v3, *_ = fixture_texts()
    assert v2_text(v1) == v2  # the v2 fixture is what the v1 fixture means
    assert json.dumps(_upgrade_v1(json.loads(v1)), separators=(",", ":")) == v2
    assert json.dumps(_upgrade_v2(json.loads(v2)), separators=(",", ":")) == v3


def test_fixture_upgrades_to_v4_on_load():
    """On its way to v7: the tests of `state_v4` to `state_v6` take it
    from there."""
    v1, _, _, v4, *_, v7 = fixture_texts()
    upgraded = _upgrade_v3(_upgrade_v2(_upgrade_v1(json.loads(v1))))
    assert json.dumps(upgraded, separators=(",", ":")) == v4
    assert dump(World.from_snapshot(json.loads(v1))) == v7
    data = json.loads(v4)["engine"]
    assert "source" not in data["stacks"]["fields"]
    assert len(data["runs"]["rows"]) == 1  # the stack parked on its wait condition


def test_upgrade_v2_leaves_its_input_as_it_was():
    data = json.loads(FIXTURE_V2.read_text(encoding="utf-8"))
    before = copy.deepcopy(data)
    _upgrade_v2(data)
    assert data == before


def test_fixture_is_what_the_builder_writes():
    assert_same_snapshot(dump(build_fixture_world()), fixture_texts()[-1])


def _assert_rows(registry, cls, key):
    assert registry, f"fixture holds no {cls.__name__}"
    for k, row in registry.items():
        assert type(row) is cls
        assert getattr(row, key) == k


def test_fixture_rows_load_as_dataclasses():
    world = World.from_snapshot(json.loads(FIXTURE.read_text(encoding="utf-8")))
    assert world.engine.template_dir is None

    ident = world.identity
    _assert_rows(ident.tenants, Tenant, "id")
    _assert_rows(ident.users, User, "id")
    _assert_rows(ident.tokens, Token, "id")
    assert ident.catalog and all(type(url) is str for url in ident.catalog.values())
    assert ident.catalog["dns"] == "local:///dns"
    assert len(ident.assignments) == 3

    p = world.provider
    for registry, cls in ((p.hosts, Host), (p.images, Image), (p.flavors, Flavor),
                          (p.keypairs, KeyPair), (p.secgroups, SecurityGroup),
                          (p.instances, Instance), (p.networks, Network),
                          (p.routers, Router), (p.fips, FloatingIp), (p.volumes, Volume)):
        _assert_rows(registry, cls, "id")
    rules = [r for g in p.secgroups.values() for r in g.rules]
    assert len(rules) == 2 and all(type(r) is SecurityGroupRule for r in rules)
    snaps = [s for v in p.volumes.values() for s in v.snapshots]
    assert len(snaps) == 1 and type(snaps[0]) is VolumeSnapshot
    assert p.objects

    e = world.engine
    _assert_rows(e.stacks, Stack, "id")
    _assert_rows(e.runs, StackRun, "stack_id")
    _assert_rows(e.handles, WaitHandle, "id")
    _assert_rows(e.conditions, WaitCondition, "handle_id")
    for stack in e.stacks.values():
        _assert_rows(stack.records, ResourceRecord, "name")
    for run in e.runs.values():
        assert type(run.doc) is TemplateDoc
    children = [s for s in e.stacks.values() if s.parent is not None]
    assert len(children) == 2
    for child in children:
        parent_id, rname = child.parent
        assert e.stacks[parent_id].records[rname].physical_id == child.id

    t = world.telemetry
    assert type(t.samples) is Columns and len(t.samples)
    assert {name: (type(column), len(column)) for name, column in vars(t.samples).items()} == \
        {f.name: (list, len(t.samples)) for f in fields(MetricSample)}
    _assert_rows(t.alarms, AlarmDef, "name")
    _assert_rows(t.groups, ScalingGroup, "name")
    assert type(t.healer) is HealerConfig and t.healer.enabled
    assert t.generators and all(type(g) is LoadGenerator for g in t.generators)
    assert t.scheduled_metrics and t.scheduled_faults


def saved_back(fixture, tmp_path) -> str:
    path = tmp_path / "state.json"
    path.write_text(fixture.read_text(encoding="utf-8"), encoding="utf-8")
    save_world(load_world(str(path)), str(path))
    return path.read_text(encoding="utf-8")


def test_a_v1_state_file_is_saved_back_at_the_current_version(tmp_path):
    assert saved_back(FIXTURE, tmp_path) == fixture_texts()[-1]


def test_a_v2_state_file_is_saved_back_at_the_current_version(tmp_path):
    assert saved_back(FIXTURE_V2, tmp_path) == fixture_texts()[-1]


# a top-level row and the two kinds of nested row of the v2 fixture: the
# list that holds each
V2_ROWS = {
    "instance": lambda data: data["provider"]["instances"],
    "secgroup-rule": lambda data: data["provider"]["secgroups"][0]["rules"],
    "stack-record": lambda data: data["engine"]["stacks"][0]["records"],
}
V2_EDITS = {
    "lacks-a-key": lambda row: dict(list(row.items())[1:]),
    "extra-key": lambda row: {**row, "colour": "red"},
    "a-list": lambda row: list(row.values()),
}


def v2_edited(edit) -> dict:
    """The v2 fixture with the first row of each list in `V2_ROWS` that
    `edit` names replaced by `edit[which](row)`."""
    data = json.loads(FIXTURE_V2.read_text(encoding="utf-8"))
    for which, change in edit.items():
        rows = V2_ROWS[which](data)
        rows[0] = change(rows[0])
    return data


@pytest.mark.parametrize("edit", V2_EDITS)
@pytest.mark.parametrize("which", V2_ROWS)
def test_a_v2_row_loads_only_with_exactly_its_header(tmp_path, monkeypatch, capsys, which,
                                                      edit):
    """A v2 row whose keys are not exactly its table's header is refused,
    never dropped or filled, nested rows too."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps(v2_edited({which: V2_EDITS[edit]})), encoding="utf-8")
    monkeypatch.setenv(cli.STATE_ENV, str(path))
    monkeypatch.delenv(cli.TOKEN_ENV, raising=False)
    code = cli.main(["stack-list"])
    lines = capsys.readouterr().err.splitlines()
    assert code == 5 and len(lines) == 1, lines
    assert lines[0].startswith(f"error: state file {str(path)!r} is malformed: "), lines
    assert "must be an object of exactly the fields" in lines[0], lines


def test_v2_rows_with_their_keys_in_another_order_load(tmp_path):
    """Only the set of keys must match the header: the rows above, each
    with its keys reversed, save back as the fixture does."""
    reverse = {which: lambda row: dict(reversed(row.items())) for which in V2_ROWS}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(v2_edited(reverse)), encoding="utf-8")
    save_world(load_world(str(path)), str(path))
    assert path.read_text(encoding="utf-8") == fixture_texts()[-1]
