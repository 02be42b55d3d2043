"""Malformed state files of older versions, generated: every leaf of each
committed v1 to v6 fixture is set in turn to each of a few JSON values,
and each mutated snapshot is loaded as a CLI call loads a state file.
`load_world` is handed the edited snapshot as `json.load` would give it,
which keeps the test fast; the load must leave it as it was.

The v1 to v6 twin of `test_malformed_state`, and the safety net of the
upgrade chain that takes an older snapshot to the current one. Each
case must load, or be refused with a state error (exit 5) of one line;
no other exception may escape `load_world`. A refusal depends on the
place of the leaf, not on its row, so each value is tried once per
(table, column): a leaf in a table's column, nested tables and v1 and
v2's one object per row included, stands for its column, and a leaf of
any other value for the attribute that holds it (an item of
`rng_state` for its item). The version `v` is left alone: it selects
the format, and `test_persistence` refuses one that no upgrade reads.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from minimano import statefile
from minimano.errors import StateIOError
from test_malformed_state import VALUES
from test_state_v1 import REGISTRIES

DATA = Path(__file__).resolve().parent / "data"
PROBES = [*VALUES, True]  # the values of the current-version test, and a bool


def leaves(node, key, parent, index):
    """(key, container, index) of each leaf under `node`, which sits at
    `parent[index]`: a scalar, or an empty list or object."""
    if type(node) in (dict, list) and node:
        for inner in (node if type(node) is dict else range(len(node))):
            yield from leaves(node[inner], key, node, inner)
    else:
        yield key, parent, index


def table(label, data, nested):
    """The leaves of a registry, keyed by `label` and their column: a
    table of rows under `fields` (v3 to v6) or a list of row objects (v1
    and v2). The columns named in `nested` hold tables of their own."""
    if type(data) is dict:
        yield from leaves(data["fields"], (label, "fields"), data, "fields")
        rows = [(row, enumerate(data["fields"])) for row in data["rows"]]
    else:
        rows = [(row, ((name, name) for name in row)) for row in data]
    for row, columns in rows:
        for index, name in columns:
            if name in nested:
                yield from table(f"{label}.{name}", row[index], ())
            else:
                yield from leaves(row[index], (label, name), row, index)


def cells(data):
    """(key, container, index) of every leaf of a snapshot but `v`."""
    for section, registries in REGISTRIES.items():
        for name, (cls, nested) in registries.items():
            yield from table(f"{section}.{name}", data[section][name], nested)
        for name, value in data[section].items():
            if name == "healer":  # one row: each field is a column
                yield from table("telemetry.healer", [value], ())
            elif name not in registries:
                yield from leaves(value, (f"{section}.{name}",), data[section], name)
    yield from table("events", data["events"], ())
    for name, value in data.items():
        if name == "rng_state":  # the version, the generator's words and the gauss
            for index, item in enumerate(value):
                yield from leaves(item, (name, index), value, index)
        elif name not in REGISTRIES and name not in ("v", "events"):
            yield from leaves(value, (name,), data, name)


def mutations(data):
    """A case for each value at the first leaf of each key; the snapshot
    is edited in place and restored after the last value."""
    tried = set()
    for key, parent, index in list(cells(data)):
        if key in tried:
            continue
        tried.add(key)
        original = parent[index]
        for value in PROBES:
            parent[index] = value
            yield f"{'.'.join(map(str, key))} = {value!r}"
        parent[index] = original


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
def test_every_malformed_leaf_of_an_old_state_loads_or_is_a_state_error(tmp_path, monkeypatch,
                                                                     version):
    text = (DATA / f"state_v{version}.json").read_text(encoding="utf-8")
    data = json.loads(text)
    path = tmp_path / "state.json"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(statefile, "json", SimpleNamespace(load=lambda fh: data))
    malformed = f"state file {str(path)!r} is malformed: "
    loaded = refused = 0
    for case in mutations(data):
        try:
            statefile.load_world(str(path))
        except StateIOError as exc:
            assert exc.exit_code == 5 and exc.message.startswith(malformed), case
            assert "\n" not in exc.message, case
            refused += 1
        except Exception as exc:
            raise AssertionError(f"{case}: {type(exc).__name__} escaped load_world") from exc
        else:
            loaded += 1
    assert refused > 500 and loaded > 100, (refused, loaded)
    assert data == json.loads(text)
