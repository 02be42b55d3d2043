"""The snapshot codec: the one mapping between row objects and JSON data.

A persisted row class is declared with `record` instead of `dataclass`:
its annotated fields, in order, become the parameters of a generated
``__init__``, each taking a plain default or a `field` with a
`default_factory`. A nested row collection names its codec in the same
`field` (``field(default_factory=dict, codec=keyed(Row, "id"))``). A
record compares by identity and has the default repr, as
``dataclass(eq=False, repr=False)`` would give it, and a CLI call that
reads no template imports neither `dataclasses` nor `inspect`. Template
values (`hot`, `plan`) stay dataclasses: they need `frozen`, value
equality and ``compare=False``, and only the verbs that read a template
load them.

A subsystem declares its persisted layout once, as a schema table that
maps each attribute to a `Codec`. The kinds:

- `one(cls)`: a single row, stored as an object of exactly its fields;
- `keyed(cls, key)`: a registry dict, stored as a table of its rows in
  insertion order and rebuilt keyed by the row field `key`;
- `listed(cls)`: a list of rows, stored as a table;
- `PLAIN`: JSON data, stored as it is.

A table (snapshot v3) is ``{"fields": [...], "rows": [[...], ...]}``.
`fields` names the record's fields in declaration order, taken from
`fields(cls)` (so a cached property in an object's ``__dict__`` is never
stored), and each row lists one object's values in that order. A nested
table, the value of a field with a `keyed` or `listed` codec, sits in
its row's column. Loading checks that `fields` is exactly the declared
list and that every row is a list of that many values: a dict or a
string row of the right length would otherwise load.

A flat row (no nested field) dumps as a tuple from one C-level
`operator.attrgetter` and loads as ``cls(*row)``. A dump is for
`json.dumps` only: its rows are tuples, which a load refuses, and it
shares the lists and dicts inside the objects, so serialise it at once,
before the world changes again.

Each codec also carries `upgrade`, which turns its snapshot v2 form, one
object per row, into its v3 form; `upgrade_attrs` applies it to a schema
table. A v2 row whose keys are not exactly the declared fields is an
error, never dropped or filled. Older snapshots upgrade on load through
a chain, v1 to v2 to v3 (`world._upgrade_v1`, `world._upgrade_v2`).
"""

from collections import namedtuple
from itertools import starmap
from operator import attrgetter, itemgetter

# `upgrade` takes the v2 form to the v3 form
Codec = namedtuple("Codec", "dump load upgrade")


def _same(value):
    return value


PLAIN = Codec(_same, _same, _same)
_MISSING = object()
# one field of a `record` class, as `fields` lists it
Field = namedtuple("Field", "name default default_factory codec",
                   defaults=(_MISSING, None, PLAIN))


def field(*, default=_MISSING, default_factory=None, codec=PLAIN) -> Field:
    """A field's default, or the factory called for each new object, and
    the codec of a nested row collection."""
    return Field("", default, default_factory, codec)


def record(cls):
    """Give `cls` an ``__init__`` that takes its annotated fields in order,
    positional or keyword, and list them for `fields`. A list, dict or set
    default is refused, as `dataclass` refuses it: every object would
    share it."""
    declared, params, body, env = [], [], [], {"_MISSING": _MISSING}
    for name in cls.__annotations__:
        value = cls.__dict__.get(name, _MISSING)
        if type(value) is Field:
            value = value._replace(name=name)
            delattr(cls, name)
        else:
            value = Field(name, value)
        if isinstance(value.default, (list, dict, set)):
            raise ValueError(f"mutable default {type(value.default).__name__} for field "
                             f"{name} of {cls.__name__}: use default_factory")
        if value.default_factory is not None:
            env[f"_factory_{name}"] = value.default_factory
            params.append(f"{name}=_MISSING")
            body.append(f"self.{name} = _factory_{name}() if {name} is _MISSING else {name}")
        else:
            env[f"_default_{name}"] = value.default
            params.append(name if value.default is _MISSING else f"{name}=_default_{name}")
            body.append(f"self.{name} = {name}")
        declared.append(value)
    exec(f"def __init__(self, {', '.join(params)}):\n " + "\n ".join(body or ["pass"]), env)
    cls.__init__ = env["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__record_fields__ = tuple(declared)
    return cls


def fields(cls) -> tuple:
    """The `Field`s of a `record` class, in declaration order."""
    return cls.__record_fields__


def _specs(cls) -> list:
    return [(f.name, f.codec) for f in fields(cls)]


def one(cls) -> Codec:
    """A single `cls` row, an object of exactly its fields (a missing one
    is an error, never a default); a flat one costs no work per field."""
    specs = _specs(cls)
    names = [name for name, _ in specs]
    declared = set(names)
    nested = [(name, codec) for name, codec in specs if codec is not PLAIN]

    def checked(row) -> dict:
        if type(row) is not dict or row.keys() != declared:
            got = sorted(row) if type(row) is dict else type(row).__name__
            raise ValueError(f"a {cls.__name__} object must have exactly the fields {names}, "
                             f"got {got}")
        return row

    if not nested:
        return Codec(vars, lambda row: cls(**checked(row)), _same)
    return Codec(
        lambda obj: {name: codec.dump(getattr(obj, name)) for name, codec in specs},
        lambda row: cls(**{**checked(row),
                           **{name: codec.load(row[name]) for name, codec in nested}}),
        lambda row: {**row, **{name: codec.upgrade(row[name]) for name, codec in nested}},
    )


class _Table:
    """The rows of `cls` as one table: `dump` takes the objects, `rows`
    checks a table's rows for `load_row`, and `upgrade` takes the v2 row
    objects."""

    def __init__(self, cls):
        specs = _specs(cls)
        self.cls = cls
        self.specs = specs
        self.names = [name for name, _ in specs]
        self.nested = [(i, name, codec) for i, (name, codec) in enumerate(specs)
                       if codec is not PLAIN]
        if self.nested:
            self.dump_row = lambda obj: [codec.dump(getattr(obj, name)) for name, codec in specs]
            self.load_row = self._load_nested
        else:
            # attrgetter of one name gives the bare value, not a 1-tuple
            getter = attrgetter(*self.names)
            self.dump_row = getter if len(specs) > 1 else lambda obj: (getter(obj),)
            self.load_row = cls

    def _load_nested(self, *row):
        obj = self.cls(*row)
        for i, name, codec in self.nested:
            setattr(obj, name, codec.load(row[i]))
        return obj

    def dump(self, objs) -> dict:
        return {"fields": list(self.names), "rows": list(map(self.dump_row, objs))}

    def rows(self, data) -> list:
        """The checked rows of a v3 table."""
        name, width, rows = self.cls.__name__, len(self.names), data["rows"]
        if data["fields"] != self.names:
            raise ValueError(f"{name} table fields {data['fields']!r} are not {self.names!r}")
        if type(rows) is not list or not set(map(type, rows)) <= {list}:
            raise ValueError(f"{name} table rows must be a list of lists")
        if not set(map(len, rows)) <= {width}:
            raise ValueError(f"{name} table rows must each hold {width} values")
        return rows

    def upgrade(self, rows) -> dict:
        declared = set(self.names)
        table = []
        for row in rows:
            if type(row) is not dict or row.keys() != declared:
                got = sorted(row) if type(row) is dict else type(row).__name__
                raise ValueError(f"a v2 {self.cls.__name__} row must be an object "
                                 f"with exactly the fields {self.names}, got {got}")
            table.append([codec.upgrade(row[name]) for name, codec in self.specs])
        return {"fields": list(self.names), "rows": table}


def keyed(cls, key) -> Codec:
    table = _Table(cls)
    key_of = itemgetter(table.names.index(key))

    def load(data):
        rows = table.rows(data)
        return dict(zip(map(key_of, rows), starmap(table.load_row, rows)))

    return Codec(lambda rows: table.dump(rows.values()), load, table.upgrade)


def listed(cls) -> Codec:
    table = _Table(cls)
    return Codec(table.dump, lambda data: list(starmap(table.load_row, table.rows(data))),
                 table.upgrade)


def dump_attrs(owner, schema) -> dict:
    return {name: codec.dump(getattr(owner, name)) for name, codec in schema.items()}


def load_attrs(owner, schema, data):
    for name, codec in schema.items():
        setattr(owner, name, codec.load(data[name]))


def upgrade_attrs(schema, data) -> dict:
    return {**data, **{name: codec.upgrade(data[name]) for name, codec in schema.items()}}
