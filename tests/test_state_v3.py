"""The snapshot v3 fixture, and where a stack's template lives in v4.

`tests/data/state_v3.json` was written by the package at snapshot v3, the
last version that stored every stack's template `source`, from
`build_v3_fixture_world`. It holds a finished stack, a stack blocked on
its wait condition, and a parent stack blocked on a nested stack that
waits. v4 keeps a stack's `source` only in the row of its pending run
(`state_v1`'s `v4_text` says how), so loading the fixture drops the
finished stack's template and keeps the three others, and a deployment
resumed from it parses its template from its run row.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest

from conftest import TEMPLATES
from minimano import cli, engine
from minimano import world as world_mod
from minimano.hot import parse_template
from minimano.statefile import load_world
from minimano.world import World
from test_state_v1 import current_text, dump, fixture_texts, v4_text

FIXTURE_V3 = Path(__file__).resolve().parent / "data" / "state_v3.json"

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
    "outputs:\n"
    "  opened:\n"
    "    value: { get_attr: [gate, data] }\n"
)
OUTER = (
    "heat_template_version: 2013-05-23\n"
    "resources:\n"
    "  child:\n"
    "    type: gated.yaml\n"
    "  after:\n"
    "    type: OS::Heat::RandomString\n"
    "    properties:\n"
    "      length: 6\n"
    "outputs:\n"
    "  opened:\n"
    "    value: { get_attr: [child, opened] }\n"
)


def build_v3_fixture_world() -> World:
    world = World(seed=2023, template_dir=str(TEMPLATES))
    admin = world.identity.tenant_by_name("admin").id
    token = world.identity.authenticate("admin", "admin", "admin").id
    world.provider.register_image(admin, "ubuntu_cloud14", b"ubuntu cloud image")
    world.provider.create_flavor(admin, "m1.small", 1, 2048, 20)
    world.provider.create_keypair(admin, "my_key1")
    world.provider.create_network(admin, "my_net1", "10.0.0.0/24")
    eng = world.engine
    done = eng.create_stack("done", parse_template((TEMPLATES / "example2.yaml").read_text()),
                            token=token)
    assert done.status == "CREATE_COMPLETE", done.failure_reason
    gated = eng.create_stack("gated", parse_template(GATED), token=token)
    assert gated.status == "CREATE_IN_PROGRESS"
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "gated.yaml").write_text(GATED)
        outer = eng.create_stack("outer", parse_template(OUTER), token=token, template_dir=tmp)
    assert eng.runs[outer.id].blocker == ["child", outer.records["child"].physical_id]
    # the fixture names no checkout or temporary path
    eng.template_dir = None
    for run in eng.runs.values():
        run.template_dir = None
    return world


def fixture_text() -> str:
    return FIXTURE_V3.read_text(encoding="utf-8")


def test_v3_fixture_holds_a_finished_a_waiting_and_a_nested_waiting_stack():
    data = json.loads(fixture_text())
    assert data["v"] == 3
    stacks, runs = data["engine"]["stacks"], data["engine"]["runs"]
    assert "source" in stacks["fields"] and "source" not in runs["fields"]
    status = {row[stacks["fields"].index("name")]: row[stacks["fields"].index("status")]
              for row in stacks["rows"]}
    assert status == {"done": "CREATE_COMPLETE", "gated": "CREATE_IN_PROGRESS",
                      "outer": "CREATE_IN_PROGRESS", "outer-child": "CREATE_IN_PROGRESS"}
    blockers = sorted(row[runs["fields"].index("blocker")][0] for row in runs["rows"])
    assert blockers == ["child", "wait", "wait"]


def test_v3_fixture_upgrades_to_v4_on_load():
    """On its way to the current version, which is what a load of it saves."""
    v3 = fixture_text()
    v4 = v4_text(v3)
    assert dump(World.from_snapshot(json.loads(v3))) == current_text(v4)
    # what the v3 fixture means is what the builder writes now
    assert dump(build_v3_fixture_world()) == current_text(v4)
    data = json.loads(v4)["engine"]
    assert "source" not in data["stacks"]["fields"]
    assert len(data["runs"]["rows"]) == 3


# the two v3 texts: the v1 fixture's v3 form and the v3 fixture
V3_TEXTS = {"v1-fixture": lambda: fixture_texts()[2], "v3-fixture": fixture_text}


@pytest.mark.parametrize("which", V3_TEXTS)
def test_upgrade_v3_gives_the_v4_text_and_leaves_its_input_as_it_was(which):
    v3 = V3_TEXTS[which]()
    data = json.loads(v3)
    before = copy.deepcopy(data)
    assert json.dumps(world_mod._upgrade_v3(data), separators=(",", ":")) == v4_text(v3)
    assert data == before


def _cli(state, *argv):
    return cli.main([*argv, "--state", str(state), "--tick-ms", "0"])


def _v3_state(tmp_path, edit=None):
    data = json.loads(fixture_text())
    if edit is not None:
        edit(data["engine"])
    state = tmp_path / "state.json"
    state.write_text(json.dumps(data, separators=(",", ":")), encoding="utf-8")
    return state


def _urls(world) -> dict:
    return {stack.name: stack.records["handle"].attributes["curl_cli"]
            for stack in world.engine.stacks.values() if "handle" in stack.records}


def test_stacks_resumed_from_a_v3_file_parse_the_source_their_run_row_holds(
        tmp_path, monkeypatch, capsys):
    state = _v3_state(tmp_path)
    world = load_world(str(state))
    monkeypatch.setenv(cli.TOKEN_ENV, next(iter(world.identity.tokens)))
    sources = {world.engine.stacks[sid].name: run.source for sid, run in world.engine.runs.items()}
    assert sources == {"gated": GATED, "outer": OUTER, "outer-child": GATED}
    parses = []
    real = engine.parse_template
    monkeypatch.setattr(engine, "parse_template", lambda text: parses.append(text) or real(text))

    urls = _urls(world)
    assert _cli(state, "signal", urls["gated"], '{"status": "SUCCESS"}') == 0
    assert parses == [GATED]
    assert _cli(state, "signal", urls["outer-child"], '{"status": "SUCCESS", "data": "up"}') == 0
    assert parses == [GATED, GATED, OUTER]  # the child, then the parent it resumes
    capsys.readouterr()

    world = load_world(str(state))
    assert {s.name: s.status for s in world.engine.stacks.values()} == {
        "done": "CREATE_COMPLETE", "gated": "CREATE_COMPLETE",
        "outer": "CREATE_COMPLETE", "outer-child": "CREATE_COMPLETE"}
    outer = next(s for s in world.engine.stacks.values() if s.name == "outer")
    assert outer.outputs == {"opened": '{"1": "up"}'}
    saved = json.loads(state.read_text())["engine"]
    assert not any(saved["runs"]["columns"]) and "source" not in saved["stacks"]["fields"]


def _stack_column(name, value, row=0):
    def edit(engine_data):
        stacks = engine_data["stacks"]
        stacks["rows"][row][stacks["fields"].index(name)] = value
    return edit


def _run_column(name, value):
    def edit(engine_data):
        runs = engine_data["runs"]
        runs["rows"][0][runs["fields"].index(name)] = value
    return edit


@pytest.mark.parametrize("edit", [
    _stack_column("source", 5),
    _stack_column("source", None, row=-1),
    _stack_column("source", ["heat_template_version: 2013-05-23\n"], row=1),
    _run_column("stack_id", "no-such-stack"),
    _run_column("stack_id", ["unhashable"]),
], ids=["finished-source-a-number", "waiting-source-null", "waiting-source-a-list",
        "run-of-a-missing-stack", "run-of-an-unhashable-stack"])
def test_a_malformed_v3_file_is_a_state_error(tmp_path, monkeypatch, capsys, edit):
    state = _v3_state(tmp_path, edit)
    world = World.from_snapshot(json.loads(fixture_text()))
    monkeypatch.setenv(cli.TOKEN_ENV, next(iter(world.identity.tokens)))
    before = state.read_bytes()
    assert _cli(state, "stack-list") == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: state file {str(state)!r} is malformed: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert state.read_bytes() == before


@pytest.mark.parametrize("column, value", [("source", 5), ("source", None),
                                           ("stack_id", "no-such-stack")])
def test_a_v4_run_without_its_stack_or_source_text_is_a_state_error(
        tmp_path, monkeypatch, capsys, column, value):
    state = tmp_path / "state.json"
    world = World.from_snapshot(json.loads(fixture_text()))
    data = json.loads(dump(world))
    if column == "stack_id":  # an id column holds an index into `ids`
        data["ids"].append(value)
        value = len(data["ids"]) - 1
    runs = data["engine"]["runs"]
    runs["columns"][runs["fields"].index(column)][0] = value
    state.write_text(json.dumps(data, separators=(",", ":")), encoding="utf-8")
    monkeypatch.setenv(cli.TOKEN_ENV, next(iter(world.identity.tokens)))
    assert _cli(state, "stack-list") == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
