"""The snapshot codec: the one mapping between dataclass rows and JSON data.

A subsystem declares its persisted layout once, as a schema table that
maps each attribute to a `Codec`; a dataclass declares its nested rows
once, in field metadata (``field(metadata={"codec": ...})``). The kinds:

- `one(cls)`: a single row;
- `keyed(cls, key)`: a registry dict, stored as the list of its rows in
  insertion order and rebuilt keyed by the row field `key`;
- `listed(cls)`: a list of rows;
- `PLAIN`: JSON data, stored as it is.

A row with no nested field is flat: it dumps as ``vars(obj)``
itself and loads as ``cls(**row)``. Dumps therefore share the objects'
dicts and the lists inside them: serialise a dump at once, before the
world changes again.
"""

from dataclasses import fields
from typing import Callable, NamedTuple


class Codec(NamedTuple):
    dump: Callable
    load: Callable


PLAIN = Codec(lambda value: value, lambda data: data)


def one(cls) -> Codec:
    """A single `cls` row; a flat one costs no work per field."""
    specs = [(f.name, f.metadata.get("codec", PLAIN)) for f in fields(cls)]
    if all(codec is PLAIN for _, codec in specs):
        return Codec(vars, lambda row: cls(**row))
    nested = [(name, codec) for name, codec in specs if codec is not PLAIN]
    return Codec(
        lambda obj: {name: codec.dump(getattr(obj, name)) for name, codec in specs},
        lambda row: cls(**{**row, **{name: codec.load(row[name]) for name, codec in nested}}),
    )


def keyed(cls, key) -> Codec:
    row = one(cls)
    return Codec(lambda rows: list(map(row.dump, rows.values())),
                 lambda data: {getattr(obj, key): obj for obj in map(row.load, data)})


def listed(cls) -> Codec:
    row = one(cls)
    return Codec(lambda rows: list(map(row.dump, rows)),
                 lambda data: list(map(row.load, data)))


def dump_attrs(owner, schema) -> dict:
    return {name: codec.dump(getattr(owner, name)) for name, codec in schema.items()}


def load_attrs(owner, schema, data):
    for name, codec in schema.items():
        setattr(owner, name, codec.load(data[name]))
