"""Each event kind is declared once, in `world.EVENTS`: the detail keys
its subject is made of and its detail keys in emitted order, each of the
JSON kind `world.EventDetail` gives it.

Every `emit` in the package names a declared kind and passes no subject,
and every declared kind is emitted somewhere. The events of the golden
scenario, the long digest scenario, the engine digest run and (in
`test_nfvi_properties`) the `WorldMachine` walks hold exactly their
kind's keys in order and pass the load check. A stored event that does
not is a malformed state file (exit 5). The README's table lists the
declarations.
"""

import ast
import json
import re
from pathlib import Path

import pytest

from minimano import cli
from minimano.scenario import load_scenario, run_scenario
from minimano.world import EVENTS, EventDetail, check_events
from test_digests import DATA, LONG_SCENARIO, engine_run, engine_templates
from test_malformed_state import build_state

SRC = Path(__file__).resolve().parent.parent / "src" / "minimano"
README = SRC.parent.parent / "README.md"


def emit_calls():
    """(where, call node) of each `emit` call in the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"):
                yield f"{path.name}:{node.lineno}", node


def test_every_emit_names_a_declared_kind_and_passes_no_subject():
    kinds = set()
    for where, call in emit_calls():
        assert len(call.args) == 1 and isinstance(call.args[0], ast.Constant), where
        kind = call.args[0].value
        assert kind in EVENTS, where
        keywords = [keyword.arg for keyword in call.keywords]
        if None not in keywords:  # no **detail: the keys are spelt at the call
            assert tuple(keywords) == EVENTS[kind].detail, where
        kinds.add(kind)
    assert kinds == set(EVENTS)


def test_each_subject_is_made_of_detail_keys_and_each_key_is_declared():
    keys = [f for f in EventDetail.__annotations__]
    for kind, spec in EVENTS.items():
        assert set(spec.subject.split("/")) <= set(spec.detail), kind
        assert set(spec.detail) <= set(keys), kind
    assert {key for spec in EVENTS.values() for key in spec.detail} == set(keys)


def assert_declared(events):
    assert events
    for event in events:
        assert tuple(event["detail"]) == EVENTS[event["kind"]].detail, event
    check_events(json.loads(json.dumps(events)))


@pytest.mark.parametrize("scenario", ["golden", "long"])
def test_the_events_of_the_digest_scenarios_are_declared(scenario):
    spec = (load_scenario(str(DATA / "autonomic_scenario.json")) if scenario == "golden"
            else LONG_SCENARIO)
    assert_declared(run_scenario(spec).events)


def test_the_events_of_the_engine_digest_run_are_declared(tmp_path, monkeypatch):
    engine_templates(tmp_path)
    monkeypatch.chdir(tmp_path)
    world, _ = engine_run(seed=1)
    assert_declared(world.events)


def test_a_heal_that_tops_a_group_up_names_no_failed_member():
    """`failed` is the one detail that may be null."""
    check_events([{"tick": 1, "kind": "heal.replace", "subject": "g",
                   "detail": {"group": "g", "failed": None, "replacement": "i"}}])


def _first_event(**change):
    def edit(event):
        event.update(change)
    return edit


def _detail(**change):
    def edit(event):
        event["detail"] = {**event["detail"], **change}
    return edit


def _without(key):
    def edit(event):
        event["detail"] = {k: v for k, v in event["detail"].items() if k != key}
    return edit


EXACT = "must be an object of exactly the fields"


@pytest.mark.parametrize("edit, message", [
    (_first_event(detail={"stack": 5, "resource": [1]}), EXACT),
    (_first_event(kind="no.such.kind"), "Event kind 'no.such.kind' is not a declared kind"),
    (_detail(stack=5), "detail stack must be str, got 5"),
    (_detail(colour="red"), EXACT),
    (_without("name"), EXACT),
    (_detail(name=None), "detail name must be str, got None"),
    (_first_event(subject=0), "which its detail gives"),
], ids=["detail-of-wrong-keys-and-kinds", "kind-undeclared", "value-of-wrong-kind", "extra-key",
        "missing-key", "value-null", "subject-not-derived"])
def test_a_stored_event_that_is_not_declared_is_a_state_error(tmp_path, monkeypatch, capsys,
                                                              edit, message):
    """The first event of a seed-1 state is a `stack.create.start`; each
    edit of it loaded and was printed by `events-tail`."""
    path = tmp_path / "state.json"
    token, _ = build_state(path)
    data = json.loads(path.read_text())
    ids, table = data["ids"], data["events"]
    event = {name: column[0] for name, column in zip(table["fields"], table["columns"])}
    assert ids[event["kind"]] == "stack.create.start"
    event["kind"] = ids[event["kind"]]
    edit(event)
    ids.append(event["kind"])  # an interned name, as a save writes it
    event["kind"] = len(ids) - 1
    for name, column in zip(table["fields"], table["columns"]):
        column[0] = event[name]
    path.write_text(json.dumps(data))
    monkeypatch.setenv(cli.TOKEN_ENV, token)
    assert cli.main(["events-tail", "--state", str(path)]) == 5
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"error: state file {str(path)!r} is malformed: Event "), lines
    assert message in lines[0], lines


def test_the_readme_table_matches_the_declarations():
    """Each kind's row: its subject, and its detail keys in emitted order,
    each but text with its kind in parentheses."""
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].strip("`") in EVENTS:
            rows[cells[0].strip("`")] = cells[1:]
    assert list(rows) == list(EVENTS)
    for kind, (subject, detail) in rows.items():
        spec = EVENTS[kind]
        assert subject == spec.subject, kind
        entries = re.findall(r"(\w+)(?: \(([^)]*)\))?(?:, |$)", detail)
        assert [key for key, _ in entries] == list(spec.detail), kind
        for key, note in entries:
            annotation = EventDetail.__annotations__[key]
            kind_text = getattr(annotation, "__name__", None) or str(annotation)
            kind_text = kind_text.replace(" | None", " or null")
            assert note == ("" if kind_text == "str" else kind_text), (kind, key)

