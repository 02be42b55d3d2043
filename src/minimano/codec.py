"""The snapshot codec: the one mapping between row objects and JSON data.

A persisted row class, and a template value in `hot` and `plan`, is
declared with `record` instead of `dataclass`: its annotated fields, in
order, become the parameters of a generated ``__init__``, each taking a
plain default or a `field` with a `default_factory`. A nested row
collection names its codec in the same `field`
(``field(default_factory=dict, codec=keyed(Row, "id"))``). A field
declared as a `functools.cached_property` is computed when first read,
unless ``__init__`` is given it. A record has the default repr and, by
default, compares by identity. ``record(eq=True)`` compares by value and
``record(frozen=True)`` refuses to be changed, as those `dataclass`
options do, so no CLI call imports `dataclasses` or `inspect`.

A subsystem declares its persisted layout once, as a schema table that
maps each attribute to a `Codec`. The kinds:

- `one(cls)`: a single row, stored as an object of exactly its fields;
- `keyed(cls, key)`: a registry dict, stored as a table of its rows in
  insertion order and rebuilt keyed by the row field `key`;
- `listed(cls)`: a list of rows, stored as a table;
- `PLAIN`: JSON data, stored as it is.

A table (snapshot v3 and later) is ``{"fields": [...], "rows": [[...], ...]}``.
`fields` names the record's fields in declaration order, taken from
`fields(cls)` (so a cached property in an object's ``__dict__`` is
stored only when it is a declared field), and each row lists one
object's values in that order. A nested table, the value of a field
with a `keyed` or `listed` codec, sits in its row's column. Loading
checks that `fields` is exactly the declared list and that every row is
a list of that many values: a dict or a string row of the right length
would otherwise load.

A field's annotation (``str``, ``int``, ``float``, ``bool``, ``list``,
``dict``, or a ``|`` union of them and ``None``, also as text) is the JSON
kind checked on load, in each table column and `one` object, and through
`check` at the other input boundaries, never in ``__init__``. A float
takes an int, a bool is no number, and ``field(positive=True)`` takes only
an integer above zero. A nested table is checked by its own codec.

A flat row (no nested field) dumps as a tuple from one C-level
`operator.attrgetter` and loads as ``cls(*row)``. A dump is for
`json.dumps` only: its rows are tuples, which a load refuses, and it
shares the lists and dicts inside the objects, so serialise it at once,
before the world changes again.

Each codec also carries `upgrade`, which turns its snapshot v2 form, one
object per row, into its v3 form; `upgrade_attrs` applies it to a schema
table. A v2 row whose keys are not exactly the declared fields is an
error, never dropped or filled. Older snapshots upgrade on load through
a chain, v1 to v2 to v3 to v4 (`world._upgrade_v1`, `world._upgrade_v2`,
`world._upgrade_v3`).
"""

from collections import namedtuple
from functools import cached_property
from itertools import starmap
from operator import attrgetter, itemgetter

# `upgrade` takes the v2 form to the v3 form
Codec = namedtuple("Codec", "dump load upgrade")


def _same(value):
    return value


PLAIN = Codec(_same, _same, _same)
_MISSING = object()
# one field of a `record` class, as `fields` lists it
Field = namedtuple("Field", "name default default_factory codec compare positive",
                   defaults=(_MISSING, None, PLAIN, True, False))


def field(*, default=_MISSING, default_factory=None, codec=PLAIN, compare=True,
          positive=False) -> Field:
    """A field's default, or the factory called for each new object, the
    codec of a nested row collection, whether ``eq`` compares it, and
    whether its integer must be above zero."""
    return Field("", default, default_factory, codec, compare, positive)


class FrozenInstanceError(AttributeError):
    """A field of a ``frozen`` record was set or deleted."""


def _refuse(self, name, *value):
    raise FrozenInstanceError(f"cannot set or delete field {name!r} of a frozen "
                              f"{type(self).__name__}")


def _tuple_getter(names):
    """A function giving an object's `names` attributes as a tuple (an
    attrgetter of one name gives the bare value)."""
    if len(names) != 1:
        return attrgetter(*names) if names else lambda obj: ()
    getter = attrgetter(*names)
    return lambda obj: (getter(obj),)


def record(cls=None, /, *, eq=False, frozen=False):
    """Give `cls` an ``__init__`` that takes its annotated fields in order,
    positional or keyword, and list them for `fields`. A list, dict or set
    default is refused, as `dataclass` refuses it: every object would
    share it.

    With `eq`, two objects are equal when they are of the same class and
    their fields, but for those declared ``field(compare=False)``, are
    equal; the class is then unhashable unless it is `frozen`. With
    `frozen`, setting or deleting an attribute raises
    `FrozenInstanceError`, and an object hashes by its compared fields."""
    if cls is None:
        return lambda cls: record(cls, eq=eq, frozen=frozen)
    declared, params, body = [], [], []
    env = {"_MISSING": _MISSING, "_set": object.__setattr__}
    assign = "_set(self, {0!r}, {1})" if frozen else "self.{0} = {1}"
    for name in cls.__annotations__:
        value = cls.__dict__.get(name, _MISSING)
        if type(value) is cached_property:  # computed when first read, unless given
            params.append(f"{name}=_MISSING")
            body.append(f"if {name} is not _MISSING: " + assign.format(name, name))
            declared.append(Field(name))
            continue
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
            body.append(assign.format(name, f"_factory_{name}() if {name} is _MISSING else {name}"))
        else:
            env[f"_default_{name}"] = value.default
            params.append(name if value.default is _MISSING else f"{name}=_default_{name}")
            body.append(assign.format(name, name))
        declared.append(value)
    exec(f"def __init__(self, {', '.join(params)}):\n " + "\n ".join(body or ["pass"]), env)
    cls.__init__ = env["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__record_fields__ = tuple(declared)
    if eq:
        key = _tuple_getter([f.name for f in declared if f.compare])

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return key(self) == key(other)

        cls.__eq__ = __eq__
        cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


def fields(cls) -> tuple:
    """The `Field`s of a `record` class, in declaration order."""
    return cls.__record_fields__


def _specs(cls) -> list:
    return [(f.name, f.codec) for f in fields(cls)]


# the types a name in an annotation admits: a float takes an int, a bool is no number
_TYPES = {"str": {str}, "int": {int}, "float": {float, int}, "bool": {bool}, "list": {list},
          "dict": {dict}, "None": {type(None)}}


def _kinds(cls) -> dict:
    """Field name -> (admitted types, what an error calls them, positive),
    or None for a nested table; read when `cls` is first checked."""
    if "__record_kinds__" not in cls.__dict__:
        cls.__record_kinds__ = {}
        for f in fields(cls):
            text = cls.__annotations__[f.name]
            text = text if type(text) is str else getattr(text, "__name__", None) or str(text)
            types = frozenset().union(*(_TYPES[name.strip()] for name in text.split("|")))
            cls.__record_kinds__[f.name] = None if f.codec is not PLAIN else (
                types, "a positive integer" if f.positive else text, f.positive)
    return cls.__record_kinds__


def check_column(cls, name, values, label, error=ValueError):
    """Raise `error`, naming `label`, the field and a value, unless every
    one of `values` is of the kind the field `name` of `cls` declares; a
    name that is no plain field is not checked."""
    kind = _kinds(cls).get(name)
    if not kind:
        return
    types, what, positive = kind
    if not set(map(type, values)) <= types or positive and min(values, default=1) < 1:
        bad = next(v for v in values if type(v) not in types or positive and v < 1)
        raise error(f"{label} {name} must be {what}, got {bad!r}")


def check(cls, row: dict, label: str, error=ValueError) -> dict:
    """`row`, once each value under a plain field of `cls` is of the kind
    the field declares; otherwise `error` naming `label` and the field."""
    kinds = _kinds(cls)
    for name, value in row.items():
        kind = kinds.get(name)
        if kind and (type(value) not in kind[0] or kind[2] and value < 1):
            check_column(cls, name, (value,), label, error)
    return row


def _object(label, names, row, error=ValueError) -> dict:
    """`row`, a JSON object of exactly the keys `names`."""
    if type(row) is not dict or row.keys() != set(names):
        got = sorted(row) if type(row) is dict else type(row).__name__
        raise error(f"{label} must be an object of exactly the fields {names}, got {got}")
    return row


def one(cls, label=None, error=ValueError) -> Codec:
    """A single `cls` row, an object of exactly its fields (a missing one
    is an error, never a default), each of its kind; a bad one raises
    `error` naming `label`."""
    specs = _specs(cls)
    names = [name for name, _ in specs]
    nested = [(name, codec) for name, codec in specs if codec is not PLAIN]
    label = label or cls.__name__
    return Codec(
        lambda obj: {name: codec.dump(getattr(obj, name)) for name, codec in specs},
        lambda row: cls(**{**check(cls, _object(label, names, row, error), label, error),
                           **{name: codec.load(row[name]) for name, codec in nested}}),
        lambda row: {**row, **{name: codec.upgrade(row[name]) for name, codec in nested}},
    )


def _checked_rows(label, names, data) -> list:
    """The rows of a table, checked against the header `names`."""
    rows, width = data["rows"], len(names)
    if data["fields"] != names:
        raise ValueError(f"{label} table fields {data['fields']!r} are not {names!r}")
    if type(rows) is not list or not set(map(type, rows)) <= {list}:
        raise ValueError(f"{label} table rows must be a list of lists")
    if not set(map(len, rows)) <= {width}:
        raise ValueError(f"{label} table rows must each hold {width} values")
    return rows


def _upgraded_rows(label, specs, rows) -> dict:
    """v2 row objects as the table of the (name, codec) columns `specs`."""
    names = [name for name, _ in specs]
    table = []
    for row in rows:
        row = _object(f"a v2 {label} row", names, row)
        table.append([codec.upgrade(row[name]) for name, codec in specs])
    return {"fields": names, "rows": table}


class _Table:
    """The rows of `cls` as one table: `dump` takes the objects, `rows`
    checks a table's rows for `load_row`, and `upgrade` takes the v2 row
    objects."""

    def __init__(self, cls):
        self.cls = cls
        self.specs = specs = _specs(cls)
        self.names = [name for name, _ in specs]
        self.nested = [(i, name, codec) for i, (name, codec) in enumerate(specs)
                       if codec is not PLAIN]
        if self.nested:
            self.dump_row = lambda obj: [codec.dump(getattr(obj, name)) for name, codec in specs]
            self.load_row = self._load_nested
        else:
            self.dump_row = _tuple_getter(self.names)
            self.load_row = cls

    def _load_nested(self, *row):
        obj = self.cls(*row)
        for i, name, codec in self.nested:
            setattr(obj, name, codec.load(row[i]))
        return obj

    def dump(self, objs) -> dict:
        return {"fields": list(self.names), "rows": list(map(self.dump_row, objs))}

    def rows(self, data) -> list:
        """The rows of a v3 table, each column checked by its field's kind."""
        rows = _checked_rows(self.cls.__name__, self.names, data)
        for name, column in zip(self.names, zip(*rows)):
            check_column(self.cls, name, column, self.cls.__name__)
        return rows

    def upgrade(self, rows) -> dict:
        return _upgraded_rows(self.cls.__name__, self.specs, rows)


def layout(cls, names) -> Codec:
    """A table of `cls` rows under the header `names`, which may be an
    older snapshot's (a name `cls` lacks is plain JSON), read and written
    as one dict per row: `load` checks a table and gives its rows as
    dicts, `dump` takes such dicts back to a table, and `upgrade` takes
    v2 row objects to one. Nested tables stay JSON."""
    codecs = dict(_specs(cls))
    specs = [(name, codecs.get(name, PLAIN)) for name in names]
    label = cls.__name__
    return Codec(
        lambda rows: {"fields": list(names), "rows": [[row[name] for name in names]
                                                      for row in rows]},
        lambda data: [dict(zip(names, row)) for row in _checked_rows(label, names, data)],
        lambda rows: _upgraded_rows(label, specs, rows),
    )


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
