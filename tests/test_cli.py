"""CLI behavior: exit codes, machine output fidelity, statelessness."""

import json
from contextlib import contextmanager

import pytest

from conftest import TEMPLATES
from minimano import cli, engine
from minimano.statefile import load_world


@pytest.fixture
def runner(tmp_path, monkeypatch, capsys):
    """In-process CLI bound to a fresh state file in tmp_path."""
    state = tmp_path / "state.json"
    monkeypatch.setenv(cli.STATE_ENV, str(state))
    monkeypatch.delenv(cli.TOKEN_ENV, raising=False)

    def run(*argv):
        code = cli.main([*argv, "--tick-ms", "0"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    code, _, err = run("init", "--seed", "7", "--template-dir", str(TEMPLATES))
    assert code == 0, err
    code, out, _ = run("token-issue", "--user", "admin", "--password", "admin",
                       "--tenant", "admin", "--format", "machine")
    assert code == 0
    monkeypatch.setenv(cli.TOKEN_ENV, json.loads(out)["token"])
    for argv in (
        ("image-create", "ubuntu_cloud14"),
        ("flavor-create", "m1.small", "--vcpus", "1", "--ram", "2048", "--disk", "20"),
        ("keypair-create", "my_key1"),
        ("net-create", "my_net1", "--cidr", "10.0.0.0/24"),
    ):
        code, _, err = run(*argv)
        assert code == 0, err
    run._state = state
    return run


def test_stack_create_list_show_delete_roundtrip(runner):
    code, out, _ = runner("stack-create", "demo", "-f", str(TEMPLATES / "example2.yaml"),
                          "--format", "machine")
    assert code == 0
    created = json.loads(out)
    assert created["status"] == "CREATE_COMPLETE"

    code, out, _ = runner("stack-list", "--format", "machine")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["id"] for r in rows] == [created["id"]]

    code, out, _ = runner("stack-show", created["id"], "--format", "machine")
    shown = json.loads(out)
    assert shown["outputs"] == {"instance_ip": "10.0.0.3"}

    code, out, _ = runner("stack-delete", created["id"])
    assert code == 0
    code, out, _ = runner("stack-list", "--format", "machine")
    assert out.strip() == ""


def test_machine_show_equals_engine_detail(runner):
    code, out, _ = runner("stack-create", "demo", "-f", str(TEMPLATES / "example2.yaml"),
                          "--format", "machine")
    stack_id = json.loads(out)["id"]
    code, out, _ = runner("stack-show", stack_id, "--format", "machine")
    world = load_world(str(runner._state))
    assert json.loads(out) == world.engine.stack_detail(world.engine.stacks[stack_id])


def test_parameters_flag_overrides_defaults(runner):
    runner("image-create", "cirros")
    code, out, _ = runner(
        "stack-create", "alt", "-f", str(TEMPLATES / "example2.yaml"),
        "--parameters", "image=cirros", "--format", "machine",
    )
    assert code == 0
    stack_id = json.loads(out)["id"]
    _, out, _ = runner("stack-show", stack_id, "--format", "machine")
    assert json.loads(out)["parameters"]["image"] == "cirros"


def test_exit_code_contract(runner, tmp_path):
    # 5: unreadable template path
    code, _, err = runner("stack-create", "x", "-f", str(tmp_path / "missing.yaml"))
    assert code == 5
    # 2: invalid template
    bad = tmp_path / "bad.yaml"
    bad.write_text("resources: {}\n")
    assert runner("stack-create", "x", "-f", str(bad))[0] == 2
    # 4: deployment failure names the failing resource
    code, _, err = runner("stack-create", "x", "-f", str(TEMPLATES / "example2.yaml"),
                          "--parameters", "image=missing")
    assert code == 4
    assert "my_instance" in err
    # 6: not found
    assert runner("stack-show", "no-such-uuid")[0] == 6
    assert runner("stack-delete", "no-such-uuid")[0] == 6
    # 2: malformed signal payload, or one nested past the parser's depth
    assert runner("signal", "mm://wait/x", "{not json")[0] == 2
    code, _, err = runner("signal", "mm://wait/x", "[" * 200_000)
    assert code == 2 and err.startswith("error: signal payload is not valid JSON: ")
    # 6: unknown wait handle
    assert runner("signal", "mm://wait/x", '{"status": "SUCCESS"}')[0] == 6
    # 4: a property whose parameter is of a kind it does not take (each was a TypeError)
    for name, (ptype, default, reason) in KIND_MISMATCHES.items():
        template = tmp_path / f"{name}.yaml"
        template.write_text(KIND_MISMATCH.format(ptype=ptype, default=default, **reason))
        code, _, err = runner("stack-create", name, "-f", str(template))
        assert (code, err) == (4, f"error: resource r: {reason['property']}: {reason['message']}\n")
    # 5: a scenario file nested past the parser's depth
    scenario = tmp_path / "deep.json"
    scenario.write_text("[" * 200_000)
    code, _, err = runner("scenario-run", str(scenario))
    assert code == 5 and err.startswith(f"error: cannot read scenario file {str(scenario)!r}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


KIND_MISMATCH = """heat_template_version: 2013-05-23
parameters:
  p:
    type: {ptype}
    default: {default}
resources:
  r:
    type: {type}
    properties:
{fixed}      {property}: {{ get_param: p }}
"""
SERVER = {"type": "OS::Nova::Server",
          "fixed": "      image: ubuntu_cloud14\n      flavor: m1.small\n"}
RANDOM_STRING = {"type": "OS::Heat::RandomString", "fixed": ""}
# stack name -> (parameter type, its default, the resource and its refusal)
KIND_MISMATCHES = {
    "networks-number": ("number", "5", {**SERVER, "property": "networks",
                                        "message": "expected a list"}),
    "security_groups-number": ("number", "5", {**SERVER, "property": "security_groups",
                                               "message": "expected a list"}),
    "sequence-list": ("list", "\n      - digits", {**RANDOM_STRING, "property": "sequence",
                                                   "message": "expected a string"}),
    "sequence-map": ("map", "\n      digits: 1", {**RANDOM_STRING, "property": "sequence",
                                                  "message": "expected a string"}),
}


NESTS_A_FILE = "heat_template_version: 2013-05-23\nresources:\n  child:\n    type: file.yaml\n"


@pytest.mark.parametrize("argv, expected, message", [
    (("template-validate", "-f", "{file}"), 5, "error: cannot read template '{file}': "),
    (("stack-create", "s", "-f", "{file}"), 5, "error: cannot read template '{file}': "),
    (("init", "--state", "{dir}/fresh.json", "--hosts", "{file}"), 5,
     "error: cannot read host inventory '{file}': "),
    (("init", "--state", "{dir}/fresh.json", "--policy", "{file}"), 5,
     "error: cannot read policy file '{file}': "),
    (("stack-create", "s", "-f", "{dir}/nests.yaml"), 4,
     "error: resource child: cannot read nested template 'file.yaml': "),
], ids=["template-validate", "stack-create", "init-hosts", "init-policy", "nested-template"])
def test_a_file_that_is_not_utf8_is_refused(runner, tmp_path, argv, expected, message):
    """Each was a UnicodeDecodeError traceback."""
    file = tmp_path / "file.yaml"
    file.write_bytes(b"\xff\xfe not utf-8\n")
    (tmp_path / "nests.yaml").write_text(NESTS_A_FILE)
    names = {"file": str(file), "dir": str(tmp_path)}
    code, _, err = runner(*(arg.format(**names) for arg in argv))
    assert code == expected
    assert err.startswith(message.format(**names)) and "can't decode" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "fresh.json").exists()


def test_unauthenticated_mutating_verb_is_exit_3(runner, monkeypatch):
    monkeypatch.delenv(cli.TOKEN_ENV)
    code, _, err = runner("net-create", "other", "--cidr", "10.1.0.0/24")
    assert code == 3
    assert "error" in err


def test_token_flag_wins_over_environment(runner, monkeypatch):
    code, out, _ = runner("token-issue", "--user", "admin", "--password", "admin",
                          "--tenant", "admin", "--format", "machine")
    good = json.loads(out)["token"]
    monkeypatch.setenv(cli.TOKEN_ENV, "garbage")
    assert runner("stack-list")[0] == 3
    assert runner("stack-list", "--token", good)[0] == 0


def test_invalid_invocations_never_exit_zero(runner):
    invocations = [
        ("no-such-verb",),
        ("stack-create",),  # missing name and file
        ("stack-create", "x"),  # missing file
        ("flavor-create", "f"),  # missing dimensions
        ("clock-advance", "zero"),  # not an int
        ("clock-advance", "0"),  # rejected by the clock
        ("connectivity-check", "a", "b", "--protocol", "smtp"),
        ("volume-create", "--size", "-3"),
        ("fault-inject", "nonexistent-instance"),
        ("group-create", "g", "--min", "2", "--max", "1", "--desired", "1",
         "--member", "{}"),
        ("group-create", "g", "--min", "0", "--max", "1", "--desired", "0",
         "--member", "not json"),
        ("signal", "mm://wait/x", "null"),
        ("object-get", "c", "missing"),
        ("endpoint-lookup", "not-a-service"),
    ]
    for argv in invocations:
        code, _, _ = runner(*argv)
        assert code != 0, argv


GATED_7 = ("heat_template_version: 2013-05-23\nresources:\n  handle:\n"
           "    type: OS::Heat::WaitConditionHandle\n  gate:\n"
           "    type: OS::Heat::WaitCondition\n    properties:\n"
           "      handle: { get_resource: handle }\n      timeout: 7\n")


@pytest.mark.parametrize("argv", [
    ("stack-create", "gated", "-f", "{gated}", "--tick-ms", "-5"),
    ("events-tail", "--count", "-1"),
    ("events-tail", "-n", "-3", "--format", "machine"),
], ids=["stack-create-tick-ms", "events-tail-count", "events-tail-n"])
def test_a_negative_count_or_tick_length_is_a_usage_error(runner, tmp_path, capsys, argv):
    """A negative `--tick-ms` ended a blocking create in a `time.sleep`
    traceback, and `events-tail --count -1` printed every event but the
    first."""
    gated = tmp_path / "gated.yaml"
    gated.write_text(GATED_7)
    before = runner._state.read_bytes()
    code = cli.main([arg.format(gated=gated) for arg in argv])  # no trailing --tick-ms 0
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert code == 2 and captured.out == "", captured
    assert len(errors) == 1 and "must not be negative" in errors[0], captured.err
    assert runner._state.read_bytes() == before


def test_events_tail_count_zero_prints_every_event(runner):
    assert runner("stack-create", "demo", "-f", str(TEMPLATES / "example2.yaml"))[0] == 0
    events = load_world(str(runner._state)).events
    assert len(events) > 1
    code, out, _ = runner("events-tail", "-n", "0", "--format", "machine")
    assert code == 0 and [json.loads(line) for line in out.splitlines()] == events
    code, out, _ = runner("events-tail", "-n", "1", "--format", "machine")
    assert code == 0 and [json.loads(line) for line in out.splitlines()] == events[-1:]


@pytest.mark.parametrize("low, high", [(-5, 70000), (90, 10), (0, 65536), (-1, 22)],
                         ids=["both-outside", "downward", "past-the-top", "below-zero"])
def test_a_rule_whose_port_range_matches_nothing_is_refused(runner, low, high):
    before = runner._state.read_bytes()
    code, _, err = runner("secgroup-rule-add", "default", "--protocol", "tcp",
                          "--port-min", str(low), "--port-max", str(high))
    assert code == 2 and err.count("\n") == 1, err
    assert err.startswith(f"error: security group 'default' rule port range {low}-{high} "), err
    assert runner._state.read_bytes() == before
    # the ranges criterion 7 draws rules from stay valid
    for low, high in ((22, 22), (0, 65535), (80, 80)):
        code, _, err = runner("secgroup-rule-add", "default", "--protocol", "tcp",
                              "--port-min", str(low), "--port-max", str(high))
        assert code == 0, err


def test_private_key_shown_exactly_once(runner):
    code, out, _ = runner("keypair-create", "my_key2")
    assert out.count("SIMULATED PRIVATE KEY") == 2  # BEGIN and END of one block
    # the private half is nowhere in persisted state
    state_text = runner._state.read_text()
    private = [l for l in out.splitlines() if "BEGIN" not in l and "END" not in l
               and "name" not in l and "public_key" not in l][0]
    assert private not in state_text


def test_cli_is_stateless_across_invocations(runner):
    runner("stack-create", "demo", "-f", str(TEMPLATES / "example1.yaml"))
    first = runner("stack-list", "--format", "machine")[1]
    second = runner("stack-list", "--format", "machine")[1]
    assert first == second


def test_autonomic_flow_through_the_cli(runner):
    member = json.dumps({"image": "ubuntu_cloud14", "flavor": "m1.small", "networks": ["my_net1"]})
    code, out, _ = runner("group-create", "web", "--min", "1", "--max", "3",
                          "--desired", "1", "--member", member, "--format", "machine")
    assert code == 0
    group = json.loads(out)
    member_id = group["members"][0]
    code, _, _ = runner("alarm-create", "cpu-high", "--metric", "cpu_util",
                        "--aggregate", "avg", "--comparison", "gt",
                        "--threshold", "0.8", "--window", "3",
                        "--target", "web", "--action", "scale_out")
    assert code == 0
    for _ in range(3):
        assert runner("clock-advance", "1")[0] == 0
        assert runner("metric-push", member_id, "cpu_util", "0.9")[0] == 0
    assert runner("clock-advance", "1")[0] == 0
    code, out, _ = runner("events-tail", "-n", "50", "--format", "machine")
    kinds = [json.loads(line)["kind"] for line in out.splitlines()]
    assert "alarm.fire" in kinds
    assert "scale.out" in kinds
    assert kinds.index("alarm.fire") < kinds.index("scale.out")


def test_blocking_create_drives_clock_to_wait_deadline(runner, tmp_path):
    gated = tmp_path / "gated.yaml"
    gated.write_text(
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  handle:\n"
        "    type: OS::Heat::WaitConditionHandle\n"
        "  gate:\n"
        "    type: OS::Heat::WaitCondition\n"
        "    properties:\n"
        "      handle: { get_resource: handle }\n"
        "      timeout: 7\n"
    )
    # nothing ever signals, so the blocking create must advance the clock
    # tick by tick until the deadline and report the deployment failure
    code, out, err = runner("stack-create", "gated", "-f", str(gated))
    assert code == 4
    assert "timed out" in err
    world = load_world(str(runner._state))
    assert world.tick == 7
    code, out, _ = runner("stack-list", "--format", "machine")
    row = json.loads(out.splitlines()[0])
    assert row["status"] == "CREATE_FAILED"


def test_template_validate_verb(runner, tmp_path):
    assert runner("template-validate", "-f", str(TEMPLATES / "example1.yaml"))[0] == 0
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  srv:\n"
        "    type: OS::Nova::Server\n"
        "    properties:\n"
        "      flavor: m1.small\n"
    )
    code, out, _ = runner("template-validate", "-f", str(bad))
    assert code == 2
    assert "missing mandatory property" in out


def test_object_roundtrip_via_cli(runner, tmp_path):
    blob = tmp_path / "blob.bin"
    blob.write_bytes(b"\x00\x01binary\xff")
    assert runner("object-put", "c1", "blob", "--file", str(blob))[0] == 0
    code, out, _ = runner("object-get", "c1", "blob", "--output", str(tmp_path / "back.bin"))
    assert code == 0
    assert (tmp_path / "back.bin").read_bytes() == b"\x00\x01binary\xff"


def test_connectivity_check_verb(runner):
    member = json.dumps({"image": "ubuntu_cloud14", "flavor": "m1.small", "networks": ["my_net1"]})
    _, out, _ = runner("group-create", "web", "--min", "2", "--max", "2", "--desired", "2",
                       "--member", member, "--format", "machine")
    members = json.loads(out)["members"]
    code, out, _ = runner("connectivity-check", members[0], members[1],
                          "--protocol", "tcp", "--port", "22", "--format", "machine")
    assert code == 0
    assert json.loads(out)["allowed"] is True


def _without(section, key):
    data = TEMPLATES.parent / "tests" / "data"
    scenario = json.loads((data / "autonomic_scenario.json").read_text())
    scenario[section][0].pop(key, None)
    return scenario


def _with(section, key, value):
    scenario = _without(section, key)
    scenario[section][0][key] = value
    return scenario


@pytest.mark.parametrize("scenario", [
    _without("groups", "member"),
    _without("alarms", "metric"),
    {"ticks": "x"},
    {"ticks": 1, "setup": []},
    {"ticks": 1, "setup": {"images": 5}},
    {"ticks": 1, "healer": [1]},
    {"ticks": 1, "hosts": 5},
    {"ticks": 1, "hosts": [{"id": "host-1", "ram_mib": 16384, "disk_gib": 160}]},
    {"ticks": 1, "healer": {"enabled": True, "detect_interval": 0}},
    {"ticks": 1, "healer": {"enabled": True, "detect_interval": "x"}},
    {"ticks": 1, "hosts": [{"id": "host-1", "vcpus": -4, "ram_mib": 16384, "disk_gib": 160}]},
    {"ticks": 1, "seed": "x"},
    _with("groups", "member", 5),
    _with("alarms", "threshold", "x"),
    _with("metrics", "group", []),
    _with("faults", "member_index", "x"),
    _with("faults", "kind", "reboot"),
    _with("faults", "member_index", -1),
    _with("metrics", "member_index", -1),
], ids=["group-without-member", "alarm-without-metric", "ticks-not-an-integer",
        "setup-not-an-object", "images-not-a-list", "healer-not-an-object",
        "hosts-not-a-list", "host-without-vcpus", "healer-interval-zero",
        "healer-interval-not-an-integer", "host-with-negative-vcpus",
        "seed-not-an-integer", "group-member-not-an-object", "alarm-threshold-not-a-number",
        "metric-group-a-list", "fault-member_index-not-an-integer", "fault-kind-unknown",
        "fault-member_index-negative", "metric-member_index-negative"])
def test_malformed_scenario_is_a_template_error(tmp_path, capsys, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code = cli.main(["scenario-run", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: scenario ") and "Traceback" not in err


def test_a_null_in_a_schedule_entry_counts_as_absent(tmp_path, capsys):
    """A null `member_index` was a TypeError at the fault's tick."""
    logs = []
    for scenario in (_without("faults", "member_index"), _with("faults", "member_index", None)):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        events = tmp_path / "events.jsonl"
        assert cli.main(["scenario-run", str(path), "--events-out", str(events)]) == 0
        logs.append(events.read_text())
    assert logs[0] == logs[1] and '"kind":"fault.inject"' in logs[0]
    capsys.readouterr()


@pytest.mark.parametrize("argv, files", [
    (["--healer-enabled", "--healer-interval", "0"], {}),
    ([], {"--hosts": [{"id": "host-1", "ram_mib": 16384, "disk_gib": 160}]}),
    ([], {"--hosts": [{"id": "host-1", "vcpus": 8, "ram_mib": 0, "disk_gib": 160}]}),
    ([], {"--policy": [1]}),
    ([], {"--policy": "stacks:create"}),
], ids=["healer-interval-zero", "host-without-vcpus", "host-with-zero-ram",
        "policy-a-list", "policy-a-string"])
def test_init_rejects_bad_settings(tmp_path, capsys, argv, files):
    path = tmp_path / "state.json"
    for option, content in files.items():  # each option names a JSON file
        file = tmp_path / f"{option[2:]}.json"
        file.write_text(json.dumps(content))
        argv = [*argv, option, str(file)]
    code = cli.main(["init", "--state", str(path), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not path.exists()


def _state_v1(edit):
    state = json.loads((TEMPLATES.parent / "tests" / "data" / "state_v1.json").read_text())
    edit(state)
    return state


def _state_v3(edit):
    """The v1 fixture as the package saves it, then edited."""
    world = load_world(str(TEMPLATES.parent / "tests" / "data" / "state_v1.json"))
    state = json.loads(json.dumps(world.to_snapshot()))
    edit(state)
    return state


def _blocked_stack(state):
    """The v1 fixture's stack whose run waits at `waves[1][0]`."""
    (run,) = state["engine"]["runs"]
    return next(stack for stack in state["engine"]["stacks"] if stack["id"] == run["stack_id"])


def _blocked_on_a_finished_child(state):
    """The v1 fixture's blocked run, blocked on a finished stack made a
    child of its own."""
    (run,) = state["engine"]["runs"]
    child = next(stack for stack in state["engine"]["stacks"] if stack["name"] == "wp-mysql")
    child["parent"] = [run["stack_id"], "mysql_ready"]
    run["blocker"] = ["child", child["id"]]


def _instances(state):
    return state["provider"]["instances"]


def _as_dict(table):
    """The table's first row as an object of as many keys: `cls(*row)`
    would take its keys as the values."""
    table["rows"][0] = dict(zip(table["fields"], table["rows"][0]))


@pytest.mark.parametrize("state", [
    {"v": 1, "seed": 1},
    [1, 2],
    _state_v1(lambda s: s.update(rng_state=[3, [1, 2, 3], None])),
    _state_v1(lambda s: s["provider"]["instances"].append(1)),
    _state_v1(lambda s: s["provider"]["secgroups"][0]["rules"].append("rule")),
    _state_v1(lambda s: s["identity"]["users"][0].pop("salt")),
    _state_v1(lambda s: s["engine"]["stacks"][0].pop("records")),
    _state_v1(lambda s: s["telemetry"]["samples"][0].update(unit="%")),
    _state_v1(lambda s: s["identity"].pop("catalog")),
    _state_v1(lambda s: s.update(seed=None)),
    _state_v1(lambda s: s.update(tick="x")),
    _state_v1(lambda s: s["telemetry"]["healer"].update(detect_interval=0)),
    _state_v3(lambda s: _instances(s)["fields"].reverse()),
    _state_v3(lambda s: _instances(s)["fields"].__setitem__(-1, "unknown")),
    _state_v3(lambda s: _instances(s)["fields"].pop()),
    _state_v3(lambda s: _instances(s)["rows"][0].pop()),
    _state_v3(lambda s: _instances(s)["rows"][0].append(0)),
    _state_v3(lambda s: s["provider"]["secgroups"]["rows"][0][3]["rows"][0].pop()),
    _state_v3(lambda s: _instances(s).update(rows={})),
    _state_v3(lambda s: _as_dict(s["telemetry"]["generators"])),
    _state_v3(lambda s: s["provider"]["secgroups"]["rows"][0][3]["rows"].__setitem__(0, "ingres")),
    _state_v3(lambda s: s["identity"].pop("policy")),
    _state_v3(lambda s: s["identity"].pop("catalog")),
    _state_v3(lambda s: s["identity"].pop("assignments")),
    _state_v3(lambda s: s["identity"].update(extra=1)),
    _state_v3(lambda s: s["telemetry"]["healer"].pop("detect_interval")),
    _state_v3(lambda s: s["provider"].update(objects=[1])),
    _state_v3(lambda s: s["provider"].update(objects={"t/c/o": 5})),
    _state_v3(lambda s: s["identity"].update(assignments=[5])),
    _state_v3(lambda s: s["identity"].update(assignments=[[1, 2]])),
    _state_v1(lambda s: s["engine"]["stacks"][1]["waves"].append(5)),
    _state_v1(lambda s: s["engine"]["stacks"][1]["waves"][0].append(None)),
    _state_v1(lambda s: s["engine"]["runs"][0].update(pos_idx=1)),
    _state_v1(lambda s: s["engine"]["runs"][0].update(wave_idx=2)),
    _state_v1(lambda s: _blocked_stack(s)["waves"][1].__setitem__(0, "other")),
    _state_v1(lambda s: s["engine"]["runs"][0].update(blocker=["wait", "nope"])),
    _state_v1(lambda s: s["engine"]["conditions"][1].update(outcome="TIMEOUT")),
    _state_v1(_blocked_on_a_finished_child),
    _state_v1(lambda s: s["engine"]["runs"][0].update(blocker=["wait"])),
    _state_v1(lambda s: s["telemetry"]["alarms"][0].update(aggregate="median")),
    _state_v1(lambda s: s["telemetry"]["alarms"][0].update(comparison="eq")),
    _state_v1(lambda s: s["telemetry"]["alarms"][0].update(action="reboot")),
], ids=["no-template-dir", "not-an-object", "bad-rng-state", "row-not-an-object",
        "nested-row-not-an-object", "row-missing-field", "nested-rows-missing",
        "row-unknown-field", "registry-missing", "seed-null", "tick-not-an-integer",
        "healer-interval-zero", "v3-fields-reordered", "v3-fields-unknown",
        "v3-fields-missing", "v3-row-too-short", "v3-row-too-long",
        "v3-nested-row-too-short", "v3-rows-not-a-list", "v3-row-a-dict",
        "v3-row-a-string", "v3-identity-missing-policy", "v3-identity-missing-catalog",
        "v3-identity-missing-assignments", "v3-identity-unknown-field",
        "v3-healer-missing-field", "v3-objects-a-list", "v3-object-not-text",
        "v3-assignment-not-a-list", "v3-assignment-not-three-strings",
        "wave-not-a-list", "wave-name-not-text", "blocked-run-past-its-wave",
        "blocked-run-past-its-waves", "blocked-run-at-a-resource-not-created",
        "blocker-unknown-handle", "blocker-condition-not-pending", "blocker-child-finished",
        "blocker-not-a-pair", "alarm-aggregate-unknown", "alarm-comparison-unknown",
        "alarm-action-unknown"])
def test_malformed_state_is_a_state_error(tmp_path, monkeypatch, capsys, state):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    monkeypatch.setenv(cli.STATE_ENV, str(path))
    monkeypatch.delenv(cli.TOKEN_ENV, raising=False)
    code = cli.main(["stack-list"])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith(f"error: state file {str(path)!r} is malformed: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_identity_without_policy_is_malformed_not_unauthorized(tmp_path, monkeypatch, capsys):
    path = tmp_path / "state.json"
    monkeypatch.setenv(cli.STATE_ENV, str(path))
    state = _state_v3(lambda s: None)
    monkeypatch.setenv(cli.TOKEN_ENV, state["ids"][state["identity"]["tokens"]["rows"][0][0]])
    path.write_text(json.dumps(state))
    assert cli.main(["stack-list"]) == 0
    del state["identity"]["policy"]
    path.write_text(json.dumps(state))
    capsys.readouterr()
    code = cli.main(["stack-list"])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith(f"error: state file {str(path)!r} is malformed: ")
    assert "policy" in err and err.count("\n") == 1


def test_instance_with_an_unknown_flavor_is_malformed_state(runner):
    member = json.dumps({"image": "ubuntu_cloud14", "flavor": "m1.small", "networks": ["my_net1"]})
    args = ("--min", "1", "--max", "1", "--desired", "1", "--member", member)
    assert runner("group-create", "web", *args)[0] == 0
    state = json.loads(runner._state.read_text())
    table = _instances(state)
    column = table["fields"].index("flavor_name")
    for row in table["rows"]:
        row[column] = "gone"
    runner._state.write_text(json.dumps(state))
    assert runner("events-tail")[0] == 0  # a read verb does not check flavors
    code, out, err = runner("group-create", "db", *args)
    assert code == 5 and out == ""
    assert err.startswith("error: state is malformed: ") and "'gone'" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("table, column, verb", [
    ("networks", "cidr", "group-create"),
    ("networks", "cidr", "net-create"),
    ("instances", "tenant_id", "fip-associate"),
    ("networks", "name", "fip-associate"),
    ("networks", "tenant_id", "fip-associate"),
    ("networks", "router_id", "fip-associate"),
    ("networks", "router_id", "connectivity-check"),
    ("objects", None, "object-get"),
    ("networks", "name", "connectivity-check"),
    ("networks", "tenant_id", "connectivity-check"),
    ("instances", "tenant_id", "connectivity-check"),
    ("routers", "interfaces", "connectivity-check"),
    ("instances", "security_groups", "connectivity-check-to-itself"),
])
def test_a_reference_no_verb_can_leave_is_malformed_state(runner, table, column, verb):
    """A value of the right kind that names nothing, or text that is no
    base64: each was a traceback or, for a security group, ignored."""
    if table == "routers":
        assert runner("router-create", "edge")[0] == 0
        assert runner("router-attach", "edge", "my_net1")[0] == 0
    member = json.dumps({"image": "ubuntu_cloud14", "flavor": "m1.small", "networks": ["my_net1"]})
    group = ("--min", "1", "--max", "1", "--desired", "1", "--member", member)
    _, out, _ = runner("group-create", "web", *group, "--format", "machine")
    instance = json.loads(out)["members"][0]
    _, out, _ = runner("fip-allocate", "--format", "machine")
    fip = json.loads(out)["id"]
    assert runner("object-put", "c", "o", "--data", "payload")[0] == 0
    state = json.loads(runner._state.read_text())
    rows = state["provider"][table]
    if column is None:  # a plain object of base64 text
        rows.update(dict.fromkeys(rows, "!!!x"))
    else:  # a list column gets one name of nothing, an id column the index of one
        row, at = rows["rows"][0], rows["fields"].index(column)
        if column.endswith("_id"):
            state["ids"].append("x")
            row[at] = len(state["ids"]) - 1
        else:
            row[at] = ["x"] if type(row[at]) is list else "x"
    runner._state.write_text(json.dumps(state))
    argv = {"group-create": ("group-create", "db", *group),
            "net-create": ("net-create", "n2", "--cidr", "10.9.0.0/24"),
            "fip-associate": ("fip-associate", fip, instance),
            "connectivity-check": ("connectivity-check", instance, "external",
                                   "--protocol", "icmp"),
            "connectivity-check-to-itself": ("connectivity-check", instance, instance,
                                             "--protocol", "icmp"),
            "object-get": ("object-get", "c", "o")}[verb]
    code, out, err = runner(*argv)
    assert code == 5 and out == ""
    assert err.startswith("error: state is malformed: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("member", ["[1]", "5", "null", '"spec"'])
def test_group_create_refuses_a_member_spec_that_is_no_object(runner, member):
    code, out, err = runner("group-create", "g", "--min", "0", "--max", "1", "--desired", "0",
                            "--member", member)
    assert code == 2 and out == ""
    assert err.startswith("error: scaling group 'g' member_spec must be dict")
    assert err.count("\n") == 1 and "Traceback" not in err


LAUNCH = {"image": "ubuntu_cloud14", "flavor": "m1.small", "networks": ["my_net1"]}


@pytest.mark.parametrize("desired, change, message", [
    ("1", {"networks": 5}, "networks must be list, got 5"),
    ("1", {"networks": None}, "networks must be list, got None"),
    ("1", {"user_data": 5}, "user_data must be str | None, got 5"),
    ("0", {"security_groups": 7}, "security_groups must be list | None, got 7"),
    ("0", {"key_name": []}, "key_name must be str | None, got []"),
    ("0", {"image": 5}, "image must be str, got 5"),
    ("0", {"flavor": None}, "requires 'flavor'"),
], ids=["networks-a-number", "networks-null", "user_data-a-number",
        "security_groups-a-number-kept-for-a-scale-out", "key_name-a-list", "image-a-number",
        "flavor-null"])
def test_group_create_checks_the_member_spec_against_its_declaration(runner, desired, change,
                                                                     message):
    """Each spec ended in a traceback from `launch_instance`, at once or,
    with `--desired 0`, at the first scale-out after it was saved."""
    before = runner._state.read_text()
    code, out, err = runner("group-create", "g", "--min", "0", "--max", "2", "--desired",
                            desired, "--member", json.dumps({**LAUNCH, **change}))
    assert code == 2 and out == ""
    assert err == f"error: scaling group 'g' member_spec {message}\n"
    assert runner._state.read_text() == before


def test_a_member_spec_keeps_the_keys_it_does_not_declare(runner):
    code, _, err = runner("group-create", "g", "--min", "1", "--max", "2", "--desired", "1",
                          "--member", json.dumps({**LAUNCH, "user_data": None, "colour": 1}))
    assert code == 0, err


@pytest.mark.parametrize("change", [{"networks": 5}, {"image": None}, {"user_data": []}],
                         ids=["networks-a-number", "image-null", "user_data-a-list"])
def test_a_stored_member_spec_of_the_wrong_kind_is_a_state_error(runner, change):
    code, _, err = runner("group-create", "g", "--min", "0", "--max", "2", "--desired", "0",
                          "--member", json.dumps(LAUNCH))
    assert code == 0, err
    state = json.loads(runner._state.read_text())
    groups = state["telemetry"]["groups"]
    spec = groups["rows"][0][groups["fields"].index("member_spec")]
    spec.update(change)
    runner._state.write_text(json.dumps(state))
    code, out, err = runner("stack-list")
    assert code == 5 and out == ""
    assert err.startswith(f"error: state file {str(runner._state)!r} is malformed: "
                          "ScalingGroup member_spec ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("gateway", ["bogus", "8.8.8.8", "10.7.1.1", "::1", "10.7.0.0", "10.7.0.2",
                                     "10.7.0.255"])
def test_net_create_rejects_a_gateway_outside_the_cidr(runner, gateway):
    code, out, err = runner("net-create", "n7", "--cidr", "10.7.0.0/24", "--gateway", gateway)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "gateway" in err
    code, out, _ = runner("net-create", "n7", "--cidr", "10.7.0.0/24",
                          "--gateway", "10.7.0.9", "--format", "machine")
    assert code == 0 and json.loads(out)["gateway"] == "10.7.0.9"


@pytest.mark.parametrize("interval", [0, "x", None])
def test_bad_healer_interval_in_state_stops_clock_advance(tmp_path, capsys, interval):
    refusal = "must be a positive integer, got 0" if interval == 0 else "must be int, got "
    path = str(tmp_path / "state.json")
    assert cli.main(["init", "--state", path, "--healer-enabled"]) == 0
    assert cli.main(["token-issue", "--state", path, "--user", "admin", "--password", "admin",
                     "--tenant", "admin", "--format", "machine"]) == 0
    token = json.loads(capsys.readouterr().out.splitlines()[-1])["token"]
    state = json.loads(open(path).read())
    state["telemetry"]["healer"]["detect_interval"] = interval
    with open(path, "w") as fh:
        json.dump(state, fh)
    code = cli.main(["clock-advance", "1", "--state", path, "--token", token])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith(f"error: state file {path!r} is malformed: "
                          f"telemetry healer detect_interval {refusal}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_deeply_nested_state_is_a_state_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "state.json"
    path.write_text("[" * 200_000)
    monkeypatch.setenv(cli.STATE_ENV, str(path))
    monkeypatch.delenv(cli.TOKEN_ENV, raising=False)
    code = cli.main(["stack-list"])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith(f"error: cannot read state file {str(path)!r}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_init_force_saves_under_the_lock(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "state.json")
    locked = []
    real_lock, real_save = cli.locked_state, cli.save_world

    @contextmanager
    def recording_lock(p):
        with real_lock(p):
            locked.append(p)
            yield
            locked.remove(p)

    def checked_save(world, p):
        assert locked == [p]
        real_save(world, p)

    monkeypatch.setattr(cli, "locked_state", recording_lock)
    monkeypatch.setattr(cli, "save_world", checked_save)
    for argv in (["init", "--state", path], ["init", "--state", path, "--force"]):
        assert cli.main(argv) == 0, capsys.readouterr().err
    assert load_world(path).tick == 0


# -- templates are parsed when a deployment first needs them ------------------------

GATED = (
    "heat_template_version: 2013-05-23\n"
    "resources:\n"
    "  handle:\n"
    "    type: OS::Heat::WaitConditionHandle\n"
    "  gate:\n"
    "    type: OS::Heat::WaitCondition\n"
    "    properties:\n"
    "      handle: { get_resource: handle }\n"
    "      timeout: 50\n"
)
# GATED as a user may write it and no canonical writer would: a comment
# line, a quoted type and a flow mapping without blanks
GATED_AS_WRITTEN = (
    "heat_template_version: 2013-05-23\n"
    "# one signal opens the gate\n"
    "resources:\n"
    "  handle:\n"
    "    type: \"OS::Heat::WaitConditionHandle\"\n"
    "  gate:\n"
    "    type: OS::Heat::WaitCondition\n"
    "    properties:\n"
    "      handle: {get_resource: handle}\n"
    "      timeout: 50\n"
)
AFTER_GATE = (
    "  after:\n"
    "    type: OS::Nova::Server\n"
    "    properties:\n"
    "      image: ubuntu_cloud14\n"
    "      flavor: m1.small\n"
    "      user_data: { get_attr: [gate, data] }\n"
)
OUTPUTS = (
    "outputs:\n"
    "  data:\n"
    "    value: { get_attr: [gate, data] }\n"
)


@pytest.fixture
def parses(monkeypatch):
    """Counts calls of `engine.parse_template`, the name a stack's lazy
    `doc` looks up."""
    calls = []
    real = engine.parse_template

    def counting(source):
        calls.append(source)
        return real(source)

    monkeypatch.setattr(engine, "parse_template", counting)
    return calls


def _blocked_wait_stack(runner, tmp_path, template=GATED + AFTER_GATE + OUTPUTS):
    """A saved stack blocked on its wait condition, and the handle's signal URL."""
    gated = tmp_path / "gated.yaml"
    gated.write_text(template)
    code, out, err = runner("stack-create", "gated", "-f", str(gated), "--no-wait",
                            "--format", "machine")
    assert code == 0, err
    stack_id = json.loads(out)["id"]
    _, out, _ = runner("stack-show", stack_id, "--format", "machine")
    shown = json.loads(out)
    assert shown["status"] == "CREATE_IN_PROGRESS"
    return stack_id, shown["resources"]["handle"]["attributes"]["curl_cli"]


def test_read_verbs_parse_no_template(runner, parses):
    code, out, _ = runner("stack-create", "demo", "-f", str(TEMPLATES / "example2.yaml"),
                          "--format", "machine")
    assert code == 0
    stack_id = json.loads(out)["id"]
    parses.clear()
    for argv in (("stack-list",), ("stack-show", stack_id), ("events-tail", "-n", "5")):
        code, out, err = runner(*argv)
        assert code == 0, err
        assert out
    assert parses == []


def test_resumed_stack_parses_its_source_once(runner, tmp_path, parses):
    stack_id, url = _blocked_wait_stack(runner, tmp_path)
    source = load_world(str(runner._state)).engine.runs[stack_id].source
    parses.clear()
    code, _, err = runner("signal", url, '{"status": "SUCCESS", "data": "ok"}')
    assert code == 0, err
    assert parses == [source]
    _, out, _ = runner("stack-show", stack_id, "--format", "machine")
    shown = json.loads(out)
    assert shown["status"] == "CREATE_COMPLETE"
    assert shown["outputs"] == {"data": '{"1": "ok"}'}
    assert shown["resources"]["after"]["state"] == "COMPLETE"


@pytest.mark.parametrize("template", [GATED + AFTER_GATE + OUTPUTS, GATED + OUTPUTS],
                         ids=["resource-after-the-wait", "outputs-after-the-wait"])
def test_corrupt_source_fails_only_the_verb_that_resumes_it(runner, tmp_path, template):
    stack_id, url = _blocked_wait_stack(runner, tmp_path, template)
    state = json.loads(runner._state.read_text())
    runs = state["engine"]["runs"]
    id_col, source_col = runs["fields"].index("stack_id"), runs["fields"].index("source")
    (stored,) = [row for row in runs["rows"] if state["ids"][row[id_col]] == stack_id]
    stored[source_col] = "resources: ["
    runner._state.write_text(json.dumps(state, separators=(",", ":")))
    before = runner._state.read_bytes()

    code, out, err = runner("stack-list", "--format", "machine")
    assert code == 0, err
    assert [json.loads(line)["id"] for line in out.splitlines()] == [stack_id]

    code, _, err = runner("signal", url, '{"status": "SUCCESS"}')
    assert code == 2
    assert err.startswith("error: line 1, column 12: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert runner._state.read_bytes() == before  # a failed verb saves nothing


# -- snapshot v4: a stack's template is stored only while its run is pending,
# as the text of its file


def _stored_sources(runner) -> dict:
    """Stack id -> the template text its run row holds in the saved file."""
    state = json.loads(runner._state.read_text())
    assert "source" not in state["engine"]["stacks"]["fields"]
    runs = state["engine"]["runs"]
    stack_col, source_col = runs["fields"].index("stack_id"), runs["fields"].index("source")
    return {state["ids"][row[stack_col]]: row[source_col] for row in runs["rows"]}


def _status(runner, stack_id) -> str:
    code, out, err = runner("stack-show", stack_id, "--format", "machine")
    assert code == 0, err
    return json.loads(out)["status"]


@pytest.fixture
def serializes(monkeypatch):
    """Counts calls of `engine.serialize_template`, the name a run's lazy
    `source` looks up."""
    calls = []
    real = engine.serialize_template

    def counting(doc):
        calls.append(doc)
        return real(doc)

    monkeypatch.setattr(engine, "serialize_template", counting)
    return calls


def test_a_no_wait_stack_keeps_its_source_until_its_signal_completes_it(
        runner, tmp_path, serializes):
    template = GATED_AS_WRITTEN + AFTER_GATE + OUTPUTS
    stack_id, url = _blocked_wait_stack(runner, tmp_path, template)
    assert len(serializes) == 1  # saved once, by the create that left it pending
    assert _stored_sources(runner) == {stack_id: template}
    code, _, err = runner("clock-advance", "3")  # a reload that leaves it pending
    assert code == 0, err
    assert _stored_sources(runner) == {stack_id: template}
    code, _, err = runner("signal", url, '{"status": "SUCCESS", "data": "ok"}')
    assert code == 0, err
    assert _stored_sources(runner) == {}
    assert _status(runner, stack_id) == "CREATE_COMPLETE"
    assert len(serializes) == 1  # a loaded run saves the text it was loaded with


def test_a_nested_stack_and_its_waiting_parent_keep_their_sources_until_done(
        runner, tmp_path):
    child = GATED_AS_WRITTEN + OUTPUTS
    (tmp_path / "gated.yaml").write_text(child)
    outer = (
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  inner:\n"
        "    type: gated.yaml\n"
        "outputs:\n"
        "  data:\n"
        "    value: { get_attr: [inner, data] }\n"
    )
    (tmp_path / "outer.yaml").write_text(outer)
    code, out, err = runner("stack-create", "outer", "-f", str(tmp_path / "outer.yaml"),
                            "--no-wait", "--format", "machine")
    assert code == 0, err
    parent_id = json.loads(out)["id"]
    _, out, _ = runner("stack-show", parent_id, "--format", "machine")
    child_id = json.loads(out)["resources"]["inner"]["id"]
    assert _stored_sources(runner) == {parent_id: outer, child_id: child}
    _, out, _ = runner("stack-show", child_id, "--format", "machine")
    url = json.loads(out)["resources"]["handle"]["attributes"]["curl_cli"]
    code, _, err = runner("signal", url, '{"status": "SUCCESS", "data": "up"}')
    assert code == 0, err
    assert _stored_sources(runner) == {}
    assert _status(runner, child_id) == _status(runner, parent_id) == "CREATE_COMPLETE"
    _, out, _ = runner("stack-show", parent_id, "--format", "machine")
    assert json.loads(out)["outputs"] == {"data": '{"1": "up"}'}


@pytest.mark.parametrize("end", [("signal", '{"status": "FAILURE"}'), ("clock-advance", "60")],
                         ids=["failure-signal", "timeout"])
def test_a_stack_that_fails_mid_run_stores_no_source(runner, tmp_path, end):
    stack_id, url = _blocked_wait_stack(runner, tmp_path)
    assert list(_stored_sources(runner)) == [stack_id]
    verb, arg = end
    code, _, err = runner(verb, *((url, arg) if verb == "signal" else (arg,)))
    assert code == 0, err
    assert _stored_sources(runner) == {}
    assert _status(runner, stack_id) == "CREATE_FAILED"


@pytest.mark.parametrize("argv", [
    ("-f", str(TEMPLATES / "example2.yaml")),
    ("-f", str(TEMPLATES / "example4.yaml")),
    ("-f", str(TEMPLATES / "example2.yaml"), "--no-wait"),
], ids=["example2", "nested-example4", "example2-no-wait"])
def test_a_create_that_completes_in_its_call_serialises_no_template(runner, serializes, argv):
    code, out, err = runner("stack-create", "done", *argv, "--format", "machine")
    assert code == 0, err
    assert json.loads(out)["status"] == "CREATE_COMPLETE"
    assert serializes == []
    assert _stored_sources(runner) == {}


def test_a_blocking_create_that_waits_serialises_its_template_once(runner, tmp_path, serializes):
    gated = tmp_path / "gated.yaml"
    gated.write_text(GATED)
    code, _, err = runner("stack-create", "gated", "-f", str(gated))
    assert code == 4 and "timed out" in err
    # the create's own save holds the pending run; each tick after it
    # reloads that text and saves it back as it is
    assert len(serializes) == 1
    assert _stored_sources(runner) == {}
