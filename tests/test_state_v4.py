"""The snapshot v4 fixture, and what v5 stores once.

`tests/data/state_v4.json` was written by the package at snapshot v4 from
`state_v1`'s `build_fixture_world`, so it is the v1 fixture's v4 form. It
holds the six fields that v5 drops, each id as text in every cell that
names it, and the events as one object each. `world._upgrade_v4` must
turn it into exactly what the package wrote for the same world at v5,
which is `state_v1`'s `v5_text` of it and the v5 fixture.

A v5 id cell is an index into the `ids` list: one that is no integer,
that is negative or that is past the list's end names nothing, and a
load refuses it rather than read an entry counted from the end. The
events are one checked table.
"""

import copy
import json
from pathlib import Path

import pytest

from minimano import cli
from minimano.world import World, _upgrade_v4
from test_state_v1 import (
    assert_same_snapshot,
    build_fixture_world,
    current_text,
    dump,
    fixture_texts,
    saved_back,
    v5_text,
)

FIXTURE_V4 = Path(__file__).resolve().parent / "data" / "state_v4.json"
FIXTURE_V5 = FIXTURE_V4.with_name("state_v5.json")
DROPPED = {("identity", "tokens"): ["user_id"],
           ("provider", "instances"): ["ephemeral_image_b64", "created_at"],
           ("telemetry", "groups"): ["stack_id"],
           ("engine", "handles"): ["resource_name"],
           ("engine", "conditions"): ["resource_name"]}


def fixture_text() -> str:
    return FIXTURE_V4.read_text(encoding="utf-8")


def test_v4_fixture_is_the_v1_fixture_at_v4_and_holds_the_dropped_fields():
    v4 = fixture_text()
    assert v4 == fixture_texts()[3]
    data = json.loads(v4)
    assert data["v"] == 4 and "ids" not in data and type(data["events"]) is list
    for (section, name), dropped in DROPPED.items():
        table = data[section][name]
        assert set(dropped) <= set(table["fields"]) and table["rows"], (section, name)


def test_upgrade_v4_gives_what_the_package_writes_and_leaves_its_input_as_it_was():
    data = json.loads(fixture_text())
    before = copy.deepcopy(data)
    v5 = json.dumps(_upgrade_v4(data), separators=(",", ":"))
    assert data == before
    assert v5 == v5_text(fixture_text())
    assert v5 == FIXTURE_V5.read_text(encoding="utf-8")
    assert_same_snapshot(dump(World.from_snapshot(json.loads(fixture_text()))),
                         dump(build_fixture_world()))


def test_a_v4_state_file_is_saved_back_at_the_current_version(tmp_path):
    assert saved_back(FIXTURE_V4, tmp_path) == current_text(fixture_text())


def test_v5_stores_each_id_once_and_drops_the_unread_fields():
    data = json.loads(dump(World.from_snapshot(json.loads(fixture_text()))))
    ids = data["ids"]
    assert len(set(ids)) == len(ids)
    instances = data["provider"]["instances"]
    column = instances["columns"][instances["fields"].index("id")]
    assert [ids[cell] for cell in column] == list(
        World.from_snapshot(data).provider.instances)
    for (section, name), dropped in DROPPED.items():
        assert not set(dropped) & set(data[section][name]["fields"]), (section, name)
    assert data["events"]["fields"] == ["tick", "kind", "subject", "detail"]


def _state(tmp_path, edit, version="current"):
    """The fixture's world saved at `version` (the v4 fixture, or its form
    at the current version), edited; and its token."""
    data = json.loads(fixture_text())
    if version == "current":
        data = json.loads(dump(World.from_snapshot(data)))
    edit(data)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    token = next(iter(World.from_snapshot(json.loads(fixture_text())).identity.tokens))
    return path, token


def _cell(section, name, column, value):
    def edit(data):
        table = data[section][name]
        table["columns"][table["fields"].index(column)][0] = (
            value(data) if callable(value) else value)
    return edit


def _ids(value):
    def edit(data):
        data["ids"] = value(data["ids"])
    return edit


@pytest.mark.parametrize("edit, reason", [
    (_cell("provider", "instances", "id", -1), "provider instances id index -1"),
    (_cell("provider", "instances", "tenant_id", True), "a bool"),
    (_cell("provider", "instances", "image_id", 0.0), "a float"),
    (_cell("provider", "instances", "host_id", lambda data: len(data["ids"])), "past the end"),
    (_cell("engine", "runs", "stack_id", -1), "a negative index in the runs table"),
    (_cell("telemetry", "samples", "resource_id", "x"), "the text an index stands for"),
    (_ids(lambda ids: [*ids[:-1], 5]), "an ids entry that is no text"),
    (_ids(lambda ids: dict(enumerate(ids))), "ids an object"),
], ids=["ref-negative", "ref-a-bool", "ref-a-float", "ref-past-the-end",
        "run-ref-negative", "ref-text", "ids-entry-a-number", "ids-an-object"])
def test_a_ref_cell_or_ids_entry_that_names_nothing_is_a_state_error(
        tmp_path, monkeypatch, capsys, edit, reason):
    path, token = _state(tmp_path, edit)
    monkeypatch.setenv(cli.TOKEN_ENV, token)
    assert cli.main(["stack-list", "--state", str(path)]) == 5, reason
    err = capsys.readouterr().err
    assert err.startswith(f"error: state file {str(path)!r} is malformed: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "ids" in err, err


@pytest.mark.parametrize("events, version", [
    ([5], 4),
    ([{"tick": 0, "kind": "k", "subject": "s"}], 4),
    ({"fields": ["tick", "kind", "subject", "detail"], "rows": [[0, "k", 0]]}, "current"),
    ({"fields": ["tick", "kind", "subject", "detail"], "columns": [[0], [0], [0]]}, "current"),
    ({"fields": ["tick", "kind", "subject", "detail"], "columns": [[0], [0], [0], [5]]},
     "current"),
    ({"fields": ["tick", "kind", "subject", "detail"], "columns": [["x"], [0], [0], [{}]]},
     "current"),
    ({"fields": ["tick", "kind", "subject", "detail"], "columns": [[0], [0], [-1], [{}]]},
     "current"),
    ({"fields": ["tick", "kind", "subject", "detail"], "columns": [[0], [-1], [0], [{}]]},
     "current"),
    ([5], "current"),
], ids=["v4-event-a-number", "v4-event-lacks-detail", "row-too-short", "column-missing",
        "detail-a-number", "tick-text", "subject-negative", "kind-negative", "v5-events-a-list"])
def test_a_malformed_event_is_a_state_error(tmp_path, monkeypatch, capsys, events, version):
    """`events: [5]` made `events-tail` end in a TypeError."""
    path, token = _state(tmp_path, lambda data: data.update(events=events), version)
    monkeypatch.setenv(cli.TOKEN_ENV, token)
    assert cli.main(["events-tail", "--state", str(path)]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: state file {str(path)!r} is malformed: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "Event" in err or "ids" in err, err
