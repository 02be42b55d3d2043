"""The snapshot v6 fixture.

`tests/data/state_v6.json` was written by the package at snapshot v6: it
loaded the v1 fixture, which holds `state_v1`'s `build_fixture_world`,
and saved it, so it is the v1 fixture's v6 form. It stores each table as
one list per row, and the names that v7 interns (`V7_REFS`) as strings.
`world._upgrade_v6` turns each table into one list per column and
appends each of those names to the stored `ids`, in the order a save
interns them. It finds the tables through their declarations: a plain
column holds user data, which may look like a table and must stay as it
is.
"""

import copy
import json
from pathlib import Path

import pytest

from minimano import cli, world
from minimano.codec import fields
from minimano.world import World, _upgrade_v6
from test_state_v1 import V7_REFS, dump, fixture_texts, saved_back

FIXTURE_V6 = Path(__file__).resolve().parent / "data" / "state_v6.json"


def fixture_text() -> str:
    return FIXTURE_V6.read_text(encoding="utf-8")


def test_v6_fixture_is_the_v1_fixture_at_v6_and_stores_rows_and_names():
    v6 = fixture_text()
    assert v6 == fixture_texts()[5]
    data = json.loads(v6)
    samples = data["telemetry"]["samples"]
    assert set(samples) == {"fields", "rows"} and samples["rows"]
    assert {row[samples["fields"].index("metric")] for row in samples["rows"]} == {"cpu_util"}


def test_upgrade_v6_gives_a_v7_that_loads_to_the_same_world_and_leaves_its_input_as_it_was():
    data = json.loads(fixture_text())
    before = copy.deepcopy(data)
    upgraded = _upgrade_v6(data)
    assert data == before
    assert upgraded["v"] == 7 and upgraded["ids"][:len(data["ids"])] == data["ids"]
    names = {"cpu_util", "ACTIVE", "COMPLETE", "m1.small", "my_key1", "stack.create.start"}
    assert names <= set(upgraded["ids"][len(data["ids"]):])
    assert dump(World.from_snapshot(upgraded)) == fixture_texts()[-1]
    assert dump(World.from_snapshot(json.loads(fixture_text()))) == fixture_texts()[-1]


def test_a_v6_state_file_is_saved_back_at_the_current_version(tmp_path):
    assert saved_back(FIXTURE_V6, tmp_path) == fixture_texts()[-1]


def _cell(table, name):
    """The first row of a v6 table, and the index of its column `name`."""
    return table["rows"][0], table["fields"].index(name)


def test_a_plain_column_that_looks_like_a_table_is_left_as_it_is():
    """An upgrade that found the tables by their keys would turn these
    user values into columns, or intern their strings."""
    look_alike = {"fields": ["metric", "state"], "rows": [["cpu_util", "ACTIVE"]]}
    data = json.loads(fixture_text())
    stack, at = _cell(data["engine"]["stacks"], "records")
    record, at = _cell(stack[at], "attributes")
    record[at] = {"table": copy.deepcopy(look_alike)}
    instance, at = _cell(data["provider"]["instances"], "ephemeral_files")
    instance[at] = {"/etc/table.json": copy.deepcopy(look_alike)}
    loaded = World.from_snapshot(_upgrade_v6(data))
    stack = next(iter(loaded.engine.stacks.values()))
    assert next(iter(stack.records.values())).attributes == {"table": look_alike}
    instance = next(iter(loaded.provider.instances.values()))
    assert instance.ephemeral_files == {"/etc/table.json": look_alike}


def _set(data, table, name, value):
    row, at = _cell(table(data), name)
    row[at] = value


@pytest.mark.parametrize("edit, message", [
    (lambda data: data["telemetry"]["samples"].update(
        columns=data["telemetry"]["samples"].pop("rows")),
     "MetricSample table must be an object of exactly the fields ['fields', 'rows']"),
    (lambda data: data["telemetry"]["samples"]["rows"][0].pop(),
     "MetricSample table rows must each hold 4 values"),
    (lambda data: _set(data, lambda d: d["telemetry"]["samples"], "metric", 5),
     "v6 MetricSample metric must be str, got 5"),
    (lambda data: _set(data, lambda d: d["provider"]["instances"], "state", "RUNNING"),
     "v6 Instance state must be one of BUILD, ACTIVE, FAILED, DELETED, got 'RUNNING'"),
    (lambda data: _set(data, lambda d: d["events"], "kind", ["stack.create.start"]),
     "v6 Event kind must be str, got ['stack.create.start']"),
    (lambda data: data.update(ids={"0": "x"}), "snapshot ids must be a list of strings"),
], ids=["columns-at-v6", "short-row", "metric-a-number", "state-unknown", "kind-a-list",
        "ids-an-object"])
def test_a_malformed_v6_table_is_a_state_error(tmp_path, monkeypatch, capsys, edit, message):
    data = json.loads(fixture_text())
    edit(data)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.setenv(cli.STATE_ENV, str(path))
    monkeypatch.delenv(cli.TOKEN_ENV, raising=False)
    assert cli.main(["stack-list"]) == 5
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        f"error: state file {str(path)!r} is malformed: {message}"), lines


def test_the_interned_columns_are_declared_refs():
    """`V7_REFS` lists the same columns as the package's declarations."""
    assert world._V7_REFS == V7_REFS
    assert all(f.ref for cls, names in V7_REFS.items() for f in fields(cls) if f.name in names)
