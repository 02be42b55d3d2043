"""CLI behavior: exit codes, machine output fidelity, statelessness."""

import json

import pytest

from conftest import TEMPLATES
from minimano import cli
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
    # 2: malformed signal payload
    assert runner("signal", "mm://wait/x", "{not json")[0] == 2
    # 6: unknown wait handle
    assert runner("signal", "mm://wait/x", '{"status": "SUCCESS"}')[0] == 6


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
    del scenario[section][0][key]
    return scenario


@pytest.mark.parametrize("scenario", [
    _without("groups", "member"),
    _without("alarms", "metric"),
    {"ticks": "x"},
], ids=["group-without-member", "alarm-without-metric", "ticks-not-an-integer"])
def test_malformed_scenario_is_a_template_error(tmp_path, capsys, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code = cli.main(["scenario-run", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: scenario ") and "Traceback" not in err
