"""Value rules: each declared once, on its record's field or as its
record's row rule, and applied both on load (exit 5) and at the input
that makes the value (exit 2); the README's table lists them."""

import argparse
import copy
import json
import math
import re
from pathlib import Path

import pytest

from minimano import cli, engine, identity, nfvi, telemetry
from minimano.codec import check, fields
from minimano.engine import ResourceRecord, SignalPayload, Stack, WaitCondition, WaitHandle
from minimano.errors import ConflictError, MiniManoError
from minimano.identity import IdentityState, Tenant
from minimano.nfvi import (Flavor, Host, Instance, KeyPair, ProviderState, Router,
                           SecurityGroupRule, Volume)
from minimano.scenario import build_world
from minimano.statefile import load_world
from minimano.telemetry import (AlarmDef, HealerConfig, LoadGenerator, MetricSample,
                                ScalingGroup, ScheduledFault, ScheduledMetric)
from minimano.world import World
from test_malformed_state import NESTED, TABLES, build_state
from test_state_v1 import V7_REFS

README = Path(__file__).resolve().parent.parent / "README.md"
SCENARIO = json.loads((Path(__file__).resolve().parent / "data" / "autonomic_scenario.json")
                      .read_text(encoding="utf-8"))
MEMBER = {"image": "ubuntu_cloud14", "flavor": "m1.small", "networks": ["my_net1"]}


def declared_rules() -> list:
    """(record, field) of every field rule, and (record, None) of every
    row rule, in declaration order."""
    found = []
    for module in (nfvi, telemetry, engine, identity):
        for cls in vars(module).values():
            if type(cls) is type and cls.__module__ == module.__name__ and hasattr(
                    cls, "__record_fields__"):
                found += [(cls, f.name) for f in fields(cls) if f.rule is not None]
                found += [(cls, None)] if cls.__record_rule__ is not None else []
    return found


def scenario(**change) -> dict:
    """The autonomic scenario with `change`: a section -> its first
    entry's changed keys, or `healer` -> its changed keys."""
    data = copy.deepcopy(SCENARIO)
    for section, keys in change.items():
        target = data[section] if section == "healer" else data[section][0]
        target.update(keys)
    return data


def add_security_group_rule(**change):
    def add(env):
        args = {"protocol": "tcp", "port_min": 22, "port_max": 22, "remote": "0.0.0.0/0",
                "direction": "ingress", **change}
        env["world"].provider.add_security_group_rule(env["tenant"], "default", **args)
    return add


def create_alarm(**change):
    def create(env):
        args = {"name": "a2", "metric": "cpu_util", "aggregate": "avg", "comparison": "gt",
                "threshold": 0.5, "window": 2, "target": "g", "action": "notify", **change}
        env["world"].telemetry.create_alarm(**args)
    return create


def create_group(member=MEMBER, sizes=(0, 1, 0)):
    return lambda env: env["world"].telemetry.create_group("g2", env["tenant"], member, *sizes)


def hosts(**change):
    return lambda env: World(hosts=[{"id": "h", "vcpus": 1, "ram_mib": 1, "disk_gib": 1, **change}])


def flavor(**change):
    sizes = {"vcpus": 1, "ram_mib": 1, "disk_gib": 1, **change}
    return lambda env: env["world"].provider.create_flavor(env["tenant"], "f2", **sizes)


def built(**change):
    return lambda env: build_world(scenario(**change))


def signal(payload):
    return lambda env: env["world"].engine.deliver_signal(env["url"], payload)


def generator(**change):
    return lambda env: build_world({"ticks": 1, "generators": [{"group": "web", **change}]})


def metric_push(value):
    args = argparse.Namespace(resource="r", metric="cpu_util", value=value)
    return lambda env: cli.cmd_metric_push(env["world"], args, None, None)


# id -> (record, field or None for the row rule, the changed fields of the
# first stored row, the refusal, and the input that makes such a value,
# or None where only the program writes it)
CASES = {
    "host-vcpus": (Host, "vcpus", {"vcpus": 0}, "must be a positive integer, got 0",
                   hosts(vcpus=0)),
    "host-ram_mib": (Host, "ram_mib", {"ram_mib": -1}, "must be a positive integer, got -1",
                     hosts(ram_mib=-1)),
    "host-disk_gib": (Host, "disk_gib", {"disk_gib": 0}, "must be a positive integer, got 0",
                      hosts(disk_gib=0)),
    "flavor-vcpus": (Flavor, "vcpus", {"vcpus": 0}, "must be a positive integer, got 0",
                     flavor(vcpus=0)),
    "flavor-ram_mib": (Flavor, "ram_mib", {"ram_mib": -1}, "must be a positive integer, got -1",
                       flavor(ram_mib=-1)),
    "flavor-disk_gib": (Flavor, "disk_gib", {"disk_gib": 0}, "must be a positive integer, got 0",
                        flavor(disk_gib=0)),
    "keypair-name": (KeyPair, "name", {"name": ""}, "must not be empty",
                     lambda env: env["world"].provider.create_keypair(env["tenant"], "")),
    "rule-direction": (SecurityGroupRule, "direction", {"direction": "sideways"},
                       "must be one of ingress, egress, got 'sideways'",
                       add_security_group_rule(direction="sideways")),
    "rule-protocol": (SecurityGroupRule, "protocol", {"protocol": "bogus"},
                      "must be one of tcp, udp, icmp, got 'bogus'",
                      add_security_group_rule(protocol="bogus")),
    "rule-remote_cidr": (SecurityGroupRule, "remote_cidr", {"remote_cidr": "not-a-cidr"},
                         "must be null or a network, got 'not-a-cidr'", None),
    "rule-port-range": (SecurityGroupRule, None, {"port_min": 90, "port_max": 10},
                        "port range 90-10 matches no port: it must run upward within 0-65535",
                        add_security_group_rule(port_min=90, port_max=10)),
    "instance-state": (Instance, "state", {"state": "BOGUS"},
                       "must be one of BUILD, ACTIVE, FAILED, DELETED, got 'BOGUS'", None),
    "router-interfaces": (Router, "interfaces", {"interfaces": [[]]},
                          "must hold only strings, got []", None),
    "volume-size_gib": (Volume, "size_gib", {"size_gib": -4}, "must be a positive integer, got -4",
                        lambda env: env["world"].provider.create_volume(env["tenant"], -4)),
    "provider-objects": (ProviderState, "objects", {"objects": {"t/c/o": 5}},
                         "must hold only strings, got 5", None),
    "sample-value": (MetricSample, "value", {"value": math.nan},
                     "must be a finite number, got nan", metric_push(math.nan)),
    # a load tests the value column by one sum, which an infinity carries
    # and an int past the float range overflows
    "sample-value-infinity": (MetricSample, "value", {"value": math.inf},
                              "must be a finite number, got inf", metric_push(math.inf)),
    "sample-value-minus-infinity": (MetricSample, "value", {"value": -math.inf},
                                    "must be a finite number, got -inf", metric_push(-math.inf)),
    "sample-value-past-float": (MetricSample, "value", {"value": 10 ** 400},
                                f"must be a finite number, got {10 ** 400}",
                                metric_push(10 ** 400)),
    "alarm-aggregate": (AlarmDef, "aggregate", {"aggregate": "median"},
                        "must be one of avg, max, min, got 'median'",
                        create_alarm(aggregate="median")),
    "alarm-comparison": (AlarmDef, "comparison", {"comparison": "eq"},
                         "must be one of gt, lt, ge, le, got 'eq'", create_alarm(comparison="eq")),
    "alarm-threshold": (AlarmDef, "threshold", {"threshold": math.inf},
                        "must be a finite number, got inf", create_alarm(threshold=math.inf)),
    "alarm-window": (AlarmDef, "window", {"window": 0}, "must be a positive integer, got 0",
                     create_alarm(window=0)),
    "alarm-action": (AlarmDef, "action", {"action": "reboot"},
                     "must be one of scale_out, scale_in, notify, got 'reboot'",
                     create_alarm(action="reboot")),
    "alarm-state": (AlarmDef, "state", {"state": "BOGUS"},
                    "must be one of ok, alarm, insufficient_data, got 'BOGUS'", None),
    "group-member_spec": (ScalingGroup, "member_spec", {"member_spec": {"image": "x"}},
                          "requires 'flavor'", create_group(member={"image": "x"})),
    "group-members": (ScalingGroup, "members", {"members": [[]]},
                      "must hold only strings, got []", None),
    "group-sizes": (ScalingGroup, None, {"min_size": 3, "max_size": 1},
                    "sizes must satisfy 0 <= min_size <= desired <= max_size, got 3, 1, 1",
                    create_group(sizes=(3, 1, 1))),
    "healer-detect_interval": (HealerConfig, "detect_interval", {"detect_interval": 0},
                               "must be a positive integer, got 0",
                               built(healer={"detect_interval": 0})),
    "generator-base": (LoadGenerator, "base", {"base": math.nan},
                       "must be a finite number, got nan", generator(base=math.nan)),
    "generator-amplitude": (LoadGenerator, "amplitude", {"amplitude": -math.inf},
                            "must be a finite number, got -inf", generator(amplitude=-math.inf)),
    "generator-period": (LoadGenerator, "period", {"period": 0},
                         "must be a positive integer, got 0", generator(period=0)),
    "generator-noise": (LoadGenerator, "noise", {"noise": 10 ** 400},
                        f"must be a finite number, got {10 ** 400}", generator(noise=10 ** 400)),
    "metric-value": (ScheduledMetric, "value", {"value": math.inf},
                     "must be a finite number, got inf", built(metrics={"value": math.inf})),
    "metric-member_index": (ScheduledMetric, "member_index", {"member_index": -1},
                            "must not be negative, got -1", built(metrics={"member_index": -1})),
    "metric-target": (ScheduledMetric, None, {"resource": None, "group": None},
                      "names neither a 'group' nor a 'resource'", built(metrics={"group": None})),
    "fault-kind": (ScheduledFault, "kind", {"kind": "reboot"},
                   "must be one of instance_crash, got 'reboot'", built(faults={"kind": "reboot"})),
    "fault-member_index": (ScheduledFault, "member_index", {"member_index": -1},
                           "must not be negative, got -1", built(faults={"member_index": -1})),
    "fault-target": (ScheduledFault, None, {"resource": None, "group": None},
                     "names neither a 'group' nor a 'resource'", built(faults={"group": None})),
    "record-state": (ResourceRecord, "state", {"state": "BOGUS"},
                     "must be one of IN_PROGRESS, COMPLETE, FAILED, DELETED, got 'BOGUS'", None),
    "stack-status": (Stack, "status", {"status": "BOGUS"},
                     "must be one of CREATE_IN_PROGRESS, CREATE_COMPLETE, CREATE_FAILED, "
                     "DELETE_IN_PROGRESS, DELETE_COMPLETE, DELETE_FAILED, got 'BOGUS'", None),
    "stack-waves": (Stack, "waves", {"waves": [[5]]},
                    "must be lists of resource names, got [5]", None),
    "stack-parent": (Stack, "parent", {"parent": []},
                     "must be null or [stack id, resource name], got []", None),
    "signal-status": (SignalPayload, "status", {"signals": {"1": {"status": "maybe"}}},
                      "must be one of SUCCESS, FAILURE, got 'maybe'", signal({"status": "maybe"})),
    "handle-signals": (WaitHandle, "signals", {"signals": {"1": 5}},
                       "payload must be an object of status, id and data, got 5", signal(5)),
    "condition-outcome": (WaitCondition, "outcome", {"outcome": "BOGUS"},
                          "must be one of PENDING, SUCCESS, TIMEOUT, FAILURE_SIGNALED, "
                          "got 'BOGUS'", None),
    "tenant-name": (Tenant, "name", {"name": ""}, "must not be empty",
                    lambda env: env["world"].identity.create_tenant("", env["token"])),
    "identity-assignments": (IdentityState, "assignments", {"assignments": [[1, 2]]},
                             "must each be [user id, tenant id, role], got [1, 2]", None),
}


# a section's state record -> the section
SECTIONS = {IdentityState: "identity", ProviderState: "provider"}


def table_of(data, cls):
    """The stored table of `cls` rows; a nested one is the first row's."""
    for (section, name), table_cls in TABLES.items():
        if table_cls is cls:
            return data[section][name]
    for (parent, column), nested in NESTED.items():
        if nested is cls:
            table = table_of(data, parent)
            return table["columns"][table["fields"].index(column)][0]
    raise LookupError(cls)


def store(data, cls, change):
    """Set the `change`d fields of the first stored `cls` row."""
    if cls in SECTIONS:
        data[SECTIONS[cls]].update(change)
    elif cls is HealerConfig:
        data["telemetry"]["healer"].update(change)
    elif cls is SignalPayload:  # stored in its handle's signals
        store(data, WaitHandle, change)
    else:
        table = table_of(data, cls)
        if not table["columns"][0]:  # no generator runs in the seeded state
            for column, value in zip(table["columns"], ["g", "cpu_util", 0.5, 0.3, 20, 0.05, 0]):
                column.append(value)
        for name, value in change.items():
            if name in V7_REFS.get(cls, ()):  # an interned name: its index into `ids`
                data["ids"].append(value)
                value = len(data["ids"]) - 1
            table["columns"][table["fields"].index(name)][0] = value


def test_every_declared_rule_has_a_case():
    covered = {(cls, name) for cls, name, *_ in CASES.values()}
    assert set(declared_rules()) == covered


@pytest.mark.parametrize("case", CASES)
def test_a_rule_refuses_on_load_and_at_its_input(tmp_path, monkeypatch, capsys, case):
    cls, name, change, refusal, make = CASES[case]
    said = f"{name} {refusal}" if name else refusal
    path = tmp_path / "state.json"
    token, ids = build_state(path)
    world = load_world(str(path))
    env = {"world": world, "tenant": world.identity.tenant_by_name("admin").id, "token": token,
           "url": ids["url"]}
    data = json.loads(path.read_text())
    store(data, cls, change)
    path.write_text(json.dumps(data))
    monkeypatch.setenv(cli.TOKEN_ENV, token)
    code = cli.main(["stack-list", "--state", str(path)])
    lines = capsys.readouterr().err.splitlines()
    where = {SignalPayload: "WaitHandle signals", HealerConfig: "telemetry healer",
             **SECTIONS}.get(cls, cls.__name__)
    assert code == 5 and lines == [f"error: state file {str(path)!r} is malformed: {where} {said}"]

    with pytest.raises(MiniManoError) as info:
        if make is None:  # only the program writes it: the input check of any row
            check(cls, change, f"{cls.__name__} row", ConflictError)
        else:
            make(env)
    assert info.value.exit_code == 2
    # `signal` takes one payload, which the rule of each stored one checks
    assert info.value.message.endswith(refusal if cls is WaitHandle else said)


def test_finite_sample_values_whose_sum_overflows_load(tmp_path, monkeypatch):
    """Two values of 1e308 sum past the float range, but each is finite."""
    path = tmp_path / "state.json"
    token, _ = build_state(path)
    data = json.loads(path.read_text())
    table = data["telemetry"]["samples"]
    for column in table["columns"]:
        column.append(column[0])
    table["columns"][table["fields"].index("value")][:] = [1e308, 1e308]
    path.write_text(json.dumps(data))
    monkeypatch.setenv(cli.TOKEN_ENV, token)
    assert cli.main(["stack-list", "--state", str(path)]) == 0
    assert load_world(str(path)).telemetry.samples.value == [1e308, 1e308]


def test_the_readme_table_matches_the_declarations():
    """A row per rule, in declaration order: the record, the field (or
    `(row)`), and the rule; a positive integer, or one of the choices,
    as the rule refuses it."""
    rows = []
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and re.fullmatch(r"`\w+`", cells[0]) and cells[1] != "field":
            rows.append((cells[0].strip("`"), cells[1], cells[2]))
    rules = {cls.__name__: cls for cls, _ in declared_rules()}
    assert [(record, field) for record, field, _ in rows] == [
        (cls.__name__, name or "(row)") for cls, name in declared_rules()]
    for record, field, text in rows:
        if field == "(row)":
            continue
        rule = next(f.rule for f in fields(rules[record]) if f.name == field)
        if text == "a positive integer":
            assert rule(1) is None and rule(0) == "must be a positive integer, got 0", field
        elif text == "a finite number":
            assert rule(0.5) is None and rule(math.nan) == "must be a finite number, got nan", field
        elif text.startswith("one of "):
            assert rule("\0") == f"must be {text}, got '\\x00'", (record, field)
