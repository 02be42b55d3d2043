"""The snapshot codec: the one mapping between row objects and JSON data.

A persisted row class, and a record of the template layer (`hot` and
`plan`), is declared with `record` instead of `dataclass`: its annotated
fields, in order, become the parameters of a generated ``__init__``,
each taking a plain default or a `field` with a `default_factory`. A
nested row collection names its codec in the same `field`
(``field(default_factory=dict, codec=keyed(Row, "id"))``). A record
has the default repr and compares by identity, so no CLI call imports
`dataclasses` or `inspect`.

A service declares its persisted state once, as a record with one field
per registry, each naming its `Codec`: `one(cls, section)` stores it as
the section's object, keyed in field order, and `set_fields` copies the
fields of a new or loaded record onto the service. The kinds:

- `one(cls)`: a single row, stored as an object of exactly its fields;
- `keyed(cls, key)`: a registry dict, stored as a table of its rows in
  insertion order and rebuilt keyed by the row field `key`;
- `listed(cls)`: a list of rows, stored as a table;
- `columnar(cls)`: rows held by column, as `Columns` (one list per field,
  no object per row), stored as a table: a load keeps the checked
  columns and a dump writes them as they are;
- `PLAIN`: JSON data, stored as it is.

A table is ``{"fields": [...], "columns": [[...], ...]}``. `fields`
names the record's fields in declaration order, taken from `fields(cls)`,
and `columns` holds one list per field, in that order: cell ``i`` of each
is a value of row ``i``. A nested table, the value of a field with a
`keyed` or `listed` codec, sits in its row's cell. Loading checks that
`fields` is exactly the declared list and that `columns` is a list of
exactly that many lists, all of one length: a dict or a string column
would otherwise load.

A field's annotation (``str``, ``int``, ``float``, ``bool``, ``list``,
``dict``, or a ``|`` union of them and ``None``, also as text) is the JSON
kind checked on load, in each table column and `one` object, and through
`check` at the other input boundaries (`entries` decodes a list of input
objects, such as a scenario section, by it), never in ``__init__``. A float
takes an int, a bool is no number, and ``field(rule=...)`` names a function
of a value of the kind that gives its refusal or None (`rule`, `positive`,
`one_of`, `each`), ``record(rule=...)`` one of a row as a dict: a load and
`check` apply them after the kinds. A nested table is checked by its own codec.
A `rule` may also carry a test of a whole column at once, which a load
tries first; only where that test fails is the rule called a value at
a time, to decide and word the refusal.

A table column declared ``field(ref=True)`` holds a string rows repeat:
an id, the row's own or one it refers to, or a name from a small set (a
metric, an event kind, a state). A save interns its strings in one `Ids`
table, which the snapshot stores once as its top-level ``ids`` list, and
writes each cell as the string's index there (None stays null). The
table is passed explicitly: every codec dumps as ``dump(value, ids)``
and loads as ``load(data, ids)``. Within a table, nested tables are
dumped first, in row order, then each ref column, left to right and top
to bottom, so the same world always gives the same ``ids``. A load
resolves each index through `id_index` before it checks the column's
kind: a cell that is no integer, or that names no entry (a negative
index among them), is refused.

Every table, `keyed`, `listed`, `columnar` and `layout` alike, is read
and written by one table codec, column by column; `keyed` and `listed`
build objects from its columns, `layout` builds dicts, and `columnar`
keeps the columns themselves. A dump is for `json.dumps` only: it shares
the lists and dicts inside the objects, and a `columnar` dump each of
its columns that is no ref column, so serialise it at once, before the
world changes again; a load of it would share them too. A table codec
names its record class as `row`.

The codec knows only the current snapshot format. The layouts of older
snapshots, which stored a table as one list per row, and the chain that
upgrades them on load, live in `world`; `layout` reads and writes their
tables once `world` has turned them into columns.
"""

from collections import namedtuple
from operator import attrgetter, itemgetter

# `row` is a table's record class
Codec = namedtuple("Codec", "dump load row", defaults=(None,))


def _same(value, ids=None):
    return value


PLAIN = Codec(_same, _same)
_MISSING = object()
# one field of a `record` class, as `fields` lists it
Field = namedtuple("Field", "name default default_factory codec rule ref",
                   defaults=(_MISSING, None, PLAIN, None, False))


def field(*, default=_MISSING, default_factory=None, codec=PLAIN, rule=None,
          ref=False) -> Field:
    """A field's default, or the factory called for each new object, the
    codec of a nested row collection, the rule its value keeps, and
    whether a table stores it in `Ids`."""
    return Field("", default, default_factory, codec, rule, ref)


def rule(holds, message, column=None):
    """The rule refusing what `holds` does not take with `message`, which
    formats the value (``{!r}``, or ``{0[key]}`` of a row). `column`, if
    given, tests a whole column at once and is true only if `holds` takes
    each value: `check_column` then calls `holds` a value at a time only
    where `column` is false, to decide and word the refusal."""
    def refuse(value):
        return None if holds(value) else message.format(value)

    refuse.column = column
    return refuse


def positive(message="must be a positive integer, got {!r}"):
    """The rule that takes only an integer above zero."""
    return rule(lambda value: type(value) is int and value >= 1, message)


def one_of(choices):
    """The rule that takes only one of `choices`."""
    return rule(choices.__contains__, "must be one of " + ", ".join(choices) + ", got {!r}")


def each(entry_rule):
    """The rule of a list, or a dict's values: the first entry's refusal."""
    return lambda value: next(filter(None, map(
        entry_rule, value.values() if type(value) is dict else value)), None)


# the rule of a list of names or ids
strings = each(rule(lambda entry: type(entry) is str, "must hold only strings, got {!r}"))
# the rule of a name that a user gives
non_empty = rule(bool, "must not be empty")


def record(cls=None, /, *, rule=None):
    """Give `cls` an ``__init__`` that takes its annotated fields in order,
    positional or keyword, and list them for `fields`. A list, dict or set
    default is refused, as `dataclass` refuses it: every object would
    share it. `rule` is the row rule that `check` and a load apply."""
    if cls is None:
        return lambda cls: record(cls, rule=rule)
    declared, params, body = [], [], []
    env = {"_MISSING": _MISSING}
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
    cls.__record_rule__ = rule
    return cls


def fields(cls) -> tuple:
    """The `Field`s of a `record` class, in declaration order."""
    return cls.__record_fields__


def set_fields(owner, obj):
    """Set each field of the record `obj` as an attribute of `owner`, one
    at a time: `vars(owner).update` would leave every later read of an
    attribute of `owner` several times slower."""
    for f in fields(type(obj)):
        setattr(owner, f.name, getattr(obj, f.name))


def _specs(cls) -> list:
    return [(f.name, f.codec) for f in fields(cls)]


# the types a name in an annotation admits: a float takes an int, a bool is no number
_TYPES = {"str": {str}, "int": {int}, "float": {float, int}, "bool": {bool}, "list": {list},
          "dict": {dict}, "None": {type(None)}}


def _kinds(cls) -> dict:
    """Field name -> (admitted types, what an error calls them, rule), or
    None for a nested table; read when `cls` is first checked."""
    if "__record_kinds__" not in cls.__dict__:
        cls.__record_kinds__ = {}
        for f in fields(cls):
            if f.codec is not PLAIN:
                cls.__record_kinds__[f.name] = None
                continue
            text = cls.__annotations__[f.name]
            text = text if type(text) is str else getattr(text, "__name__", None) or str(text)
            types = frozenset().union(*(_TYPES[name.strip()] for name in text.split("|")))
            cls.__record_kinds__[f.name] = (types, text, f.rule)
    return cls.__record_kinds__


def _refused(kind, name, value) -> str | None:
    types, what, holds = kind
    if type(value) not in types:
        return f"{name} must be {what}, got {value!r}"
    message = holds and holds(value)
    return message and f"{name} {message}"


def _kept(refuse, values) -> bool:
    """Whether the rule `refuse` takes each of `values`: at once by its
    column test where that holds, else a value at a time."""
    column = getattr(refuse, "column", None)
    return column is not None and column(values) or not any(map(refuse, values))


def check_column(cls, name, values, label):
    """Raise `ValueError`, naming `label`, the field and a value, unless each
    of `values` keeps the kind and rule of field `name` of `cls`, if plain."""
    kind = _kinds(cls).get(name)
    if kind and (not set(map(type, values)) <= kind[0] or kind[2] and not _kept(kind[2], values)):
        raise ValueError(f"{label} {next(filter(None, (_refused(kind, name, v) for v in values)))}")


def refusal(cls, row: dict) -> str | None:
    """Why `row`, some fields of a `cls` object, breaks a kind or rule, or None."""
    kinds = _kinds(cls)
    for name, value in row.items():
        kind = kinds.get(name)
        if kind and (type(value) not in kind[0] or kind[2] and kind[2](value)):
            return _refused(kind, name, value)
    return cls.__record_rule__ and cls.__record_rule__(row)


def check(cls, row: dict, label: str, error=ValueError) -> dict:
    """`row`, unless `refusal` finds why not: then `error` naming `label`."""
    if (message := refusal(cls, row)) is not None:
        raise error(f"{label} {message}")
    return row


def entries(data, cls, label, required, optional=(), error=ValueError, **rename) -> list:
    """Each entry of the list `data` as keyword arguments of `cls`: its
    `required` and `optional` keys, where a null value is absent and
    `rename` maps a key to a field of another name, each of its field's
    kind. Other keys are dropped. A bad entry raises `error` naming
    `label` and the entry's index."""
    if type(data) is not list:
        raise error(f"{label} must be a list, got {data!r}")
    keys = [(key, rename.get(key, key)) for key in (*required, *optional)]
    decoded = []
    for index, entry in enumerate(data):
        where = f"{label} entry {index}"
        if type(entry) is not dict:
            raise error(f"{where} must be an object, got {entry!r}")
        values = {}
        for key, name in keys:
            if (value := entry.get(key)) is not None:
                values[name] = value
            elif key in required:
                raise error(f"{where} lacks {key!r}")
        decoded.append(check(cls, values, where, error))
    return decoded


def exact_object(label, names, row, error=ValueError) -> dict:
    """`row`, a JSON object of exactly the keys `names`."""
    if type(row) is not dict or row.keys() != set(names):
        got = sorted(row) if type(row) is dict else type(row).__name__
        raise error(f"{label} must be an object of exactly the fields {names}, got {got}")
    return row


def one(cls, label=None, error=ValueError) -> Codec:
    """A single `cls` row, an object of exactly its fields (a missing one
    is an error, never a default), each of its kind; a bad one raises
    `error` naming `label`. Only its nested tables read `ids`."""
    specs = _specs(cls)
    names = [name for name, _ in specs]
    nested = [(name, codec) for name, codec in specs if codec is not PLAIN]
    label = label or cls.__name__
    return Codec(
        lambda obj, ids: {name: codec.dump(getattr(obj, name), ids) for name, codec in specs},
        lambda row, ids: cls(**{**check(cls, exact_object(label, names, row, error), label, error),
                                **{name: codec.load(row[name], ids) for name, codec in nested}}),
    )


class Ids(dict):
    """The ``ids`` table a save fills: each interned string -> its index,
    in the order first interned; None stays None."""

    def __missing__(self, key):
        if key is None:
            return None
        index = self[key] = len(self)
        return index


def id_index(table) -> dict:
    """Index -> string of a snapshot's ``ids`` list, and None -> None: what
    a load resolves ref cells through."""
    if type(table) is not list or not set(map(type, table)) <= {str}:
        raise ValueError("snapshot ids must be a list of strings")
    return {**dict(enumerate(table)), None: None}


def _refs(cls, names) -> list:
    """The positions in `names` of the ref fields of `cls`."""
    refs = {f.name for f in fields(cls) if f.ref}
    return [i for i, name in enumerate(names) if name in refs]


def _resolved(ids, column, label, name) -> list:
    """The strings that the indices in `column` name in `ids`."""
    try:
        if set(map(type, column)) <= {int, type(None)}:
            return list(map(ids.__getitem__, column))
    except KeyError:
        pass
    bad = next(v for v in column if type(v) not in (int, type(None)) or v not in ids)
    raise ValueError(f"{label} {name} must be an index into ids, got {bad!r}")


def _checked_columns(label, names, data) -> list:
    """The columns of a table, checked against the header `names`."""
    columns = exact_object(f"{label} table", ["fields", "columns"], data)["columns"]
    if data["fields"] != names:
        raise ValueError(f"{label} table fields {data['fields']!r} are not {names!r}")
    if (type(columns) is not list or len(columns) != len(names)
            or not set(map(type, columns)) <= {list}):
        raise ValueError(f"{label} table columns must be a list of {len(names)} lists")
    if len(set(map(len, columns))) > 1:
        raise ValueError(f"{label} table columns must each hold one value per row")
    return columns


def _table(cls, names, nested=()) -> Codec:
    """The one table codec: rows of `cls` under the header `names`, held
    by column. `dump` takes one list per name, dumps each nested table,
    (column, codec) in `nested`, then interns each ref column in `ids`,
    and shares every other column; `load` gives the columns, each ref
    cell resolved through `ids`, each column checked by its field's kind
    and rule, each nested table loaded, each row by the record's rule.
    Without `ids` the ref columns hold the strings themselves."""
    refs, row_rule = _refs(cls, names), cls.__record_rule__

    def dump(columns, ids=None):
        columns = list(columns)
        for i, codec in nested:
            columns[i] = [codec.dump(value, ids) for value in columns[i]]
        if ids is not None:
            for i in refs:
                columns[i] = list(map(ids.__getitem__, columns[i]))
        return {"fields": list(names), "columns": columns}

    def load(data, ids=None):
        columns = list(_checked_columns(cls.__name__, names, data))
        if ids is not None:
            for i in refs:
                columns[i] = _resolved(ids, columns[i], cls.__name__, names[i])
        for name, column in zip(names, columns):
            check_column(cls, name, column, cls.__name__)
        for i, codec in nested:
            columns[i] = [codec.load(value, ids) for value in columns[i]]
        for row in zip(*columns) if row_rule else ():
            if message := row_rule(dict(zip(names, row))):
                raise ValueError(f"{cls.__name__} {message}")
        return columns

    return Codec(dump, load, cls)


def _by_column(getters, rows) -> list:
    """One list per getter, of its value in each of `rows`."""
    return [list(map(getter, rows)) for getter in getters]


def _objects(cls) -> Codec:
    """The table of `cls` objects under its declared fields, each nested
    table by its field's codec."""
    specs = _specs(cls)
    nested = [(i, codec) for i, (_, codec) in enumerate(specs) if codec is not PLAIN]
    table = _table(cls, [name for name, _ in specs], nested)
    getters = [attrgetter(name) for name, _ in specs]
    return Codec(lambda objs, ids=None: table.dump(_by_column(getters, objs), ids), table.load,
                 cls)


def layout(cls, names) -> Codec:
    """A table of `cls` rows under the header `names`, which may be an
    older snapshot's (a name `cls` lacks is plain JSON), read and written
    as one dict per row: `load` checks a table and gives its rows as
    dicts, and `dump` takes such dicts back to a table. Given `ids`, the
    ref columns hold indices into it; without, the strings. Nested tables
    stay JSON."""
    table, getters = _table(cls, names), list(map(itemgetter, names))
    return Codec(lambda rows, ids=None: table.dump(_by_column(getters, rows), ids),
                 lambda data, ids=None: [
                     dict(zip(names, row)) for row in zip(*table.load(data, ids))])


def keyed(cls, key) -> Codec:
    table = _objects(cls)
    at = [f.name for f in fields(cls)].index(key)

    def load(data, ids):
        columns = table.load(data, ids)
        return dict(zip(columns[at], map(cls, *columns)))

    return Codec(lambda rows, ids: table.dump(rows.values(), ids), load, cls)


def listed(cls) -> Codec:
    table = _objects(cls)
    return Codec(table.dump, lambda data, ids: list(map(cls, *table.load(data, ids))), cls)


class Columns:
    """Rows of a `record` class held by column, with no object per row:
    each field's column is a list, the attribute of the field's name, and
    each is as long as the rows are many, which is the object's `len`."""

    def __init__(self, cls, columns=None):
        for f, column in zip(fields(cls), columns or [[] for _ in fields(cls)]):
            setattr(self, f.name, column)

    def __len__(self):
        return len(next(iter(vars(self).values())))


def columnar(cls) -> Codec:
    """The rows of `cls`, a record with no nested table, as `Columns`:
    loaded as the table's checked columns and dumped as they are, each
    ref column interned, so neither builds an object per row, and a dump
    shares each column that is not a ref."""
    table = _table(cls, [f.name for f in fields(cls)])
    return Codec(lambda rows, ids: table.dump(vars(rows).values(), ids),
                 lambda data, ids: Columns(cls, table.load(data, ids)), cls)
