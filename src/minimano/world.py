"""Composition root: one `World` owns the clock, randomness, event log,
and every subsystem, and can round-trip itself through a JSON snapshot.

Time is a logical tick counter. Advancing it processes, per tick and in
this order: wait-condition deadlines, scheduled scenario injections,
alarm evaluation, healer scan. With a fixed seed the whole world is
bit-reproducible: UUIDs, addresses, random strings, tokens, and the event
log all come from one seeded stream. Each event kind is declared once, in
`EVENTS`, and a load checks every stored event against it.

Subsystems refer back to their World through a `weakref.proxy`, so a
World holds no reference cycle through them: dropping the last
reference frees it at once, without waiting for the cycle collector.
"""

import random
import weakref
from collections import namedtuple
from functools import cache
from operator import itemgetter

from .codec import (Ids, check, check_column, entries, exact_object, field, fields, id_index,
                    layout, record)
from .engine import (EngineState, ResourceRecord, Stack, StackEngine, StackRun, WaitCondition,
                     WaitHandle)
from .errors import ConflictError
from .identity import IdentityService, IdentityState, Token
from .nfvi import CloudProvider, Instance, ProviderState
from .telemetry import (MetricSample, ScalingGroup, ScheduledFault, ScheduledMetric,
                        TelemetryService, TelemetryState)

SNAPSHOT_VERSION = 7


def _names(cls) -> list:
    return [f.name for f in fields(cls)]


@record
class Event:
    """One entry of the event log, kept in memory as a dict of its fields."""
    tick: int
    kind: str = field(ref=True)
    subject: str = field(ref=True)
    detail: dict


_EVENTS = layout(Event, _names(Event))


@record
class EventDetail:
    """Every key an event's `detail` may hold, each with the JSON kind of
    its value."""
    stack: str
    name: str
    resource: str
    type: str
    reason: str
    handle: str
    id: str
    status: str
    alarm: str
    metric: str
    aggregate: float
    threshold: float
    target: str
    action: str
    group: str
    at: str
    desired: int
    member: str
    fault_kind: str
    failed: str | None
    replacement: str


# an event kind: the detail keys, joined with "/", that its subject is
# made of, and its detail keys in the order `emit` is given them
EventKind = namedtuple("EventKind", "subject detail")
_WAIT = EventKind("handle", ("stack", "resource", "handle"))
EVENTS = {
    "stack.create.start": EventKind("stack", ("stack", "name")),
    "stack.create.complete": EventKind("stack", ("stack", "name")),
    "stack.create.failed": EventKind("stack", ("stack", "reason")),
    "stack.delete.start": EventKind("stack", ("stack", "name")),
    "stack.delete.complete": EventKind("stack", ("stack", "name")),
    "stack.delete.failed": EventKind("stack", ("stack", "reason")),
    "resource.create.start": EventKind("stack/resource", ("stack", "resource", "type")),
    "resource.create.complete": EventKind("stack/resource", ("stack", "resource", "type")),
    "resource.create.failed": EventKind("stack/resource", ("stack", "resource", "reason")),
    "wait.signal": EventKind("handle", ("handle", "id", "status")),
    "wait.signal.ignored": EventKind("handle", ("handle", "reason")),
    "wait.success": _WAIT,
    "wait.failure": _WAIT,
    "wait.timeout": _WAIT,
    "alarm.fire": EventKind("alarm", ("alarm", "metric", "aggregate", "threshold", "target",
                                      "action")),
    "scale.out": EventKind("group", ("group", "desired", "member")),
    "scale.in": EventKind("group", ("group", "desired", "member")),
    "scale.clamped": EventKind("group", ("group", "at")),
    "scale.blocked": EventKind("group", ("group", "reason")),
    "fault.inject": EventKind("target", ("target", "fault_kind")),
    "schedule.skipped": EventKind("target", ("target", "reason")),
    "heal.replace": EventKind("group", ("group", "failed", "replacement")),
    "heal.blocked": EventKind("group", ("group", "reason")),
}


def _subject_of(subject):
    """The function that gives an event's subject from its detail."""
    get = itemgetter(*subject.split("/"))
    return get if "/" not in subject else lambda detail: "/".join(get(detail))


_SUBJECT_OF = {kind: _subject_of(spec.subject) for kind, spec in EVENTS.items()}


def check_events(events):
    """Raise ValueError unless each loaded `Event` row is of a declared
    kind, with exactly its detail keys, each of its `EventDetail` kind, and
    the subject they give; checked column by column, kind by kind."""
    by_kind = {}
    for event in events:
        by_kind.setdefault(event["kind"], []).append(event)
    for kind, rows in by_kind.items():
        if kind not in EVENTS:
            raise ValueError(f"Event kind {kind!r} is not a declared kind")
        keys, label, subject_of = EVENTS[kind].detail, f"Event {kind} detail", _SUBJECT_OF[kind]
        details = [exact_object(label, keys, row["detail"]) for row in rows]
        for key in keys:
            check_column(EventDetail, key, [detail[key] for detail in details], label)
        for row in rows:
            if row["subject"] != subject_of(row["detail"]):
                raise ValueError(f"Event {kind} subject {row['subject']!r} is not "
                                 f"{subject_of(row['detail'])!r}, which its detail gives")


def format_uuid4(n: int) -> str:
    """`str(uuid.UUID(int=n, version=4))` for a 128-bit `n`, without
    importing `uuid` (which costs a CLI call several ms of start-up)."""
    n = n & ~(0xC000 << 48) | 0x8000 << 48  # the RFC 4122 variant
    n = n & ~(0xF000 << 64) | 4 << 76  # version 4
    h = f"{n:032x}"
    return f"{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:]}"


def _upgrade_v1(data: dict) -> dict:
    """A v1 snapshot in v2 form: v2 drops three fields that nothing read."""
    identity, provider, telemetry = data["identity"], data["provider"], data["telemetry"]
    return {
        **data, "v": 2,
        "identity": {**identity, "catalog": {
            name: endpoint["url"] for name, endpoint in identity["catalog"].items()}},
        "provider": {**provider, "hosts": [
            {key: value for key, value in host.items() if key != "image_cache"}
            for host in provider["hosts"]]},
        "telemetry": {**telemetry, "healer": {
            key: value for key, value in telemetry["healer"].items() if key != "heal_window"}},
    }


def _header(cls, **after) -> list:
    """The header of a `cls` table as an older version held it: each field
    it has since dropped sits after the field `after` names for it."""
    names = []
    for name in _names(cls):
        names += [name, *(dropped for dropped, prior in after.items() if prior == name)]
    return names


# the five tables whose unread fields v5 dropped, as v2 to v4 held them
_V4_HEADERS = {
    Token: _header(Token, user_id="id"),
    Instance: _header(Instance, ephemeral_image_b64="authorized_keys", created_at="guest_log"),
    ScalingGroup: _header(ScalingGroup, stack_id="member_seq"),
    WaitHandle: _header(WaitHandle, resource_name="stack_id"),
    WaitCondition: _header(WaitCondition, resource_name="stack_id"),
}
# and the two tables v4 changed, as v2 and v3 held them: a stack kept its
# template `source` after its `status`, and a run kept none
_V3_HEADERS = {
    **_V4_HEADERS,
    Stack: _header(Stack, source="status"),
    StackRun: [name for name in _names(StackRun) if name != "source"],
}
# the snapshot's sections, each a World attribute and its service's state
# record, in the order a save interns their ids
_SECTIONS = {"identity": IdentityState, "provider": ProviderState,
             "engine": EngineState, "telemetry": TelemetryState}
# the keys of a snapshot, in the order a save writes them
_KEYS = ["v", "seed", "tick", "rng_state", "template_dir", *_SECTIONS, "events", "ids"]


# the schedules, which v2 to v5 stored as JSON objects: each entry's
# record, and the keys an entry needed
_V5_SCHEDULES = {"scheduled_metrics": (ScheduledMetric, ("tick", "metric", "value")),
                 "scheduled_faults": (ScheduledFault, ("tick",))}


# the columns v7 began to intern, which v5 and v6 stored as strings
_V7_REFS = {MetricSample: {"metric"}, Event: {"kind"}, ResourceRecord: {"type", "state"},
            Instance: {"flavor_name", "key_name", "state"}}


@cache
def _layout(cls, *names):
    """The layout of a `cls` table under the header `names`, built once."""
    return layout(cls, list(names))


def _columns(cls, names, data) -> list:
    """The columns of a `cls` table as v3 to v6 stored it, one list per
    row under the header `names`, checked as v6 checked it."""
    label = f"{cls.__name__} table"
    rows = exact_object(label, ["fields", "rows"], data)["rows"]
    if data["fields"] != names:
        raise ValueError(f"{label} fields {data['fields']!r} are not {names!r}")
    if type(rows) is not list or not set(map(type, rows)) <= {list}:
        raise ValueError(f"{label} rows must be a list of lists")
    if not set(map(len, rows)) <= {len(names)}:
        raise ValueError(f"{label} rows must each hold {len(names)} values")
    return list(map(list, zip(*rows))) or [[] for _ in names]


def _read(cls, names, data) -> list:
    """The rows of a `cls` table as v3 to v6 stored it, as dicts."""
    table = {"fields": list(names), "columns": _columns(cls, names, data)}
    return _layout(cls, *names).load(table)


def _written(cls, rows) -> dict:
    """`rows`, dicts of the fields of `cls`, as v4 to v6 stored a table:
    one list per row."""
    table = _layout(cls, *_names(cls)).dump(rows)
    return {"fields": table["fields"], "rows": list(map(list, zip(*table["columns"])))}


def _tables(data, upgrade, skip=_V5_SCHEDULES) -> dict:
    """The four sections of a snapshot, each of their tables but those
    `skip` names (the schedules, objects before v6) turned by
    `upgrade(row class, table)`."""
    return {name: {**data[name], **{f.name: upgrade(f.codec.row, data[name][f.name])
                                    for f in fields(cls)
                                    if f.codec.row is not None and f.name not in skip}}
            for name, cls in _SECTIONS.items()}


def _object_table(cls, rows) -> dict:
    """Rows of `cls`, one object each as v2 stored every table (and v4 the
    events), as one table under the header v3 held, each nested table
    turned the same way. A row whose keys are not exactly the header is
    an error, never dropped or filled."""
    names = _V3_HEADERS.get(cls) or _names(cls)
    nested = {f.name: f.codec.row for f in fields(cls) if f.codec.row is not None}
    table = []
    for row in rows:
        row = exact_object(f"{cls.__name__} row", names, row)
        table.append([_object_table(nested[name], row[name]) if name in nested else row[name]
                      for name in names])
    return {"fields": list(names), "rows": table}


def _upgrade_v2(data: dict) -> dict:
    """A v2 snapshot in v3 form: v3 stores each registry as one table of
    rows under a `fields` header (the stacks and runs by their v3
    headers)."""
    return {**data, "v": 3, **_tables(data, _object_table)}


def _upgrade_v3(data: dict) -> dict:
    """A v3 snapshot in v4 form: v4 keeps a stack's template `source` in
    the row of its pending run, and drops it where the run has ended."""
    engine = data["engine"]
    stacks = _read(Stack, _V3_HEADERS[Stack], engine["stacks"])
    runs = _read(StackRun, _V3_HEADERS[StackRun], engine["runs"])
    sources = {stack["id"]: stack.pop("source") for stack in stacks}
    check_column(StackRun, "source", sources.values(), "v3 stack")
    for run in runs:
        if run["stack_id"] not in sources:
            raise ValueError(f"a v3 run names a missing stack {run['stack_id']!r}")
        run["source"] = sources[run["stack_id"]]
    return {**data, "v": 4, "engine": {
        **engine,
        "stacks": _written(Stack, stacks),
        "runs": _written(StackRun, runs),
    }}


def _v5_table(cls, data, ids) -> dict:
    """A v4 table of `cls` rows in v5 form: without the fields v5 dropped,
    each nested table in v5 form first, then each cell of a ref column
    that v5 had (not those of `_V7_REFS`) interned in `ids`, in the order
    a save interns them."""
    names = _names(cls)
    rows = _read(cls, _V4_HEADERS.get(cls, names), data)
    for f in fields(cls):
        if f.codec.row is not None:
            for row in rows:
                row[f.name] = _v5_table(f.codec.row, row[f.name], ids)
    for f in fields(cls):
        if f.ref and f.name not in _V7_REFS.get(cls, ()):
            for row in rows:
                row[f.name] = ids[row[f.name]]
    return _written(cls, rows)


def _upgrade_v4(data: dict) -> dict:
    """A v4 snapshot in v5 form: v5 drops six fields that nothing read,
    stores the events as one table, and stores each id once, in the `ids`
    table that the ref cells index into."""
    ids = Ids()
    return {
        **data, "v": 5,
        **_tables(data, lambda cls, table: _v5_table(cls, table, ids)),
        "events": _v5_table(Event, _object_table(Event, data["events"]), ids),
        "ids": list(ids),
    }


def _upgrade_v5(data: dict) -> dict:
    """A v5 snapshot in v6 form: v6 stores each schedule as a table. An
    entry keeps the keys its record declares, as a scenario's does, and
    its `resource` is appended to `ids`."""
    telemetry, ids = data["telemetry"], data["ids"]
    if type(ids) is not list:
        raise ValueError("snapshot ids must be a list of strings")
    ids, tables = list(ids), {}
    for name, (cls, required) in _V5_SCHEDULES.items():
        optional = [key for key in _names(cls) if key not in required]
        rows = [cls(**row) for row in
                entries(telemetry[name], cls, f"v5 {name}", required, optional)]
        for row in rows:
            if row.resource is not None:
                ids.append(row.resource)
                row.resource = len(ids) - 1
        tables[name] = _written(cls, list(map(vars, rows)))
    return {**data, "v": 6, "telemetry": {**telemetry, **tables}, "ids": ids}


def _v7_table(cls, data, intern) -> dict:
    """A v6 table of `cls` rows in v7 form: one list per column, each
    nested table in v7 form first, then each column of `_V7_REFS`, of
    its field's kind, interned by `intern`."""
    names, refs = _names(cls), _V7_REFS.get(cls, ())
    columns = _columns(cls, names, data)
    for i, f in enumerate(fields(cls)):
        if f.codec.row is not None:
            columns[i] = [_v7_table(f.codec.row, table, intern) for table in columns[i]]
    for i, name in enumerate(names):
        if name in refs:
            check_column(cls, name, columns[i], f"v6 {cls.__name__}")
            columns[i] = list(map(intern, columns[i]))
    return {"fields": names, "columns": columns}


def _upgrade_v6(data: dict) -> dict:
    """A v6 snapshot in v7 form: v7 stores each table as one list per
    column, and interns the names of `_V7_REFS` too. The tables are found
    by their declarations, never by their keys, since a plain column may
    hold user data that looks like a table; each new name is appended to
    `ids` in the order a save interns it."""
    ids, names = data["ids"], Ids()
    id_index(ids)

    def intern(name):
        return None if name is None else len(ids) + names[name]

    return {
        **data, "v": 7,
        **_tables(data, lambda cls, table: _v7_table(cls, table, intern), skip=()),
        "events": _v7_table(Event, data["events"], intern),
        "ids": [*ids, *names],
    }


# each older snapshot version -> the step that takes it one version on
_UPGRADES = {1: _upgrade_v1, 2: _upgrade_v2, 3: _upgrade_v3, 4: _upgrade_v4, 5: _upgrade_v5,
             6: _upgrade_v6}


@record
class _Header:
    """The values a snapshot holds beside its tables."""
    seed: int
    tick: int
    template_dir: str | None


class World:
    def __init__(self, seed=None, hosts=None, policy=None, admin_credential="admin",
                 template_dir=None, _bootstrap=True):
        self.seed = random.SystemRandom().randrange(2**63) if seed is None else int(seed)
        self.rng = random.Random(self.seed)
        self.tick = 0
        self.events = []
        core = weakref.proxy(self)
        self.identity = IdentityService(core, policy)
        self.provider = CloudProvider(core, hosts)
        self.engine = StackEngine(core, self.identity, self.provider, template_dir)
        self.telemetry = TelemetryService(core, self.provider)
        if _bootstrap:
            self.identity.bootstrap(admin_credential)

    # -- randomness ---------------------------------------------------------

    def new_uuid(self) -> str:
        return format_uuid4(self.rng.getrandbits(128))

    def new_hex(self, length: int) -> str:
        return "".join(self.rng.choice("0123456789abcdef") for _ in range(length))

    # -- hooks ------------------------------------------------------------------

    def tenant_created(self, tenant):
        # every tenant starts with its default security group in place
        self.provider.create_security_group(tenant.id, "default")

    # -- events ---------------------------------------------------------------

    def emit(self, kind, **detail):
        """Log an event of `kind`: `EVENTS` gives its subject; a load checks it."""
        self.events.append({"tick": self.tick, "kind": kind,
                            "subject": _SUBJECT_OF[kind](detail), "detail": detail})

    # -- the clock --------------------------------------------------------------

    def advance_clock(self, ticks: int):
        if not isinstance(ticks, int) or ticks < 1:
            raise ConflictError("clock can only advance by a positive number of ticks")
        for _ in range(ticks):
            self.tick += 1
            self.engine.process_deadlines()
            self.telemetry.on_tick(self.tick)
        return self.tick

    # -- snapshots ------------------------------------------------------------------

    def to_snapshot(self) -> dict:
        state = self.rng.getstate()
        ids = Ids()  # filled in the order of `_SECTIONS`, then the events
        return {
            "v": SNAPSHOT_VERSION,
            "seed": self.seed,
            "tick": self.tick,
            "rng_state": [state[0], list(state[1]), state[2]],
            "template_dir": self.engine.template_dir,
            **{name: getattr(self, name).to_dict(ids) for name in _SECTIONS},
            "events": _EVENTS.dump(self.events, ids),
            "ids": list(ids),
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "World":
        version = data.get("v")
        while type(version) is int and version in _UPGRADES:
            data = _UPGRADES[version](data)
            version = data["v"]
        if type(version) is not int or version != SNAPSHOT_VERSION:
            # a version of no integer kind is malformed, an unknown one unsupported
            error = ConflictError if type(version) is int else ValueError
            raise error(f"unsupported state snapshot version {version!r}")
        check(_Header, exact_object("snapshot", _KEYS, data), "snapshot")
        ids = id_index(data["ids"])
        world = cls(seed=data["seed"], template_dir=data["template_dir"], _bootstrap=False)
        version, internal, gauss = data["rng_state"]
        try:
            world.rng.setstate((version, tuple(internal), gauss))
        except OverflowError:  # a word below zero or past 32 bits
            raise ValueError("snapshot rng_state words must each fit in 32 bits") from None
        world.tick = data["tick"]
        world.events = _EVENTS.load(data["events"], ids)
        check_events(world.events)
        for name in _SECTIONS:
            getattr(world, name).load_dict(data[name], ids)
        return world
