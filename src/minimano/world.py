"""Composition root: one `World` owns the clock, randomness, event log,
and every subsystem, and can round-trip itself through a JSON snapshot.

Time is a logical tick counter. Advancing it processes, per tick and in
this order: wait-condition deadlines, scheduled scenario injections,
alarm evaluation, healer scan. With a fixed seed the whole world is
bit-reproducible: UUIDs, addresses, random strings, tokens, and the event
log all come from one seeded stream.

Subsystems refer back to their World through a `weakref.proxy`, so a
World holds no reference cycle through them: dropping the last
reference frees it at once, without waiting for the cycle collector.
"""

import random
import weakref

from .codec import Ids, check, check_column, field, fields, id_index, layout, record, upgrade_attrs
from .engine import _SCHEMA as _ENGINE_SCHEMA
from .engine import Stack, StackEngine, StackRun, WaitCondition, WaitHandle
from .errors import ConflictError
from .identity import IdentityService, IdentityState, Token
from .nfvi import _SCHEMA as _PROVIDER_SCHEMA
from .nfvi import CloudProvider, Instance
from .telemetry import _SCHEMA as _TELEMETRY_SCHEMA
from .telemetry import ScalingGroup, TelemetryService

SNAPSHOT_VERSION = 5
_IDENTITY_SCHEMA = {f.name: f.codec for f in fields(IdentityState)}


@record
class Event:
    """One entry of the event log, kept in memory as a dict of its fields."""
    tick: int
    kind: str
    subject: str = field(ref=True)
    detail: dict


_EVENTS = layout(Event, [f.name for f in fields(Event)])


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


def _layout_with(cls, **after):
    """The layout of a `cls` table as an older version held it: each field
    it has since dropped sits after the field `after` names for it."""
    names = []
    for f in fields(cls):
        names += [f.name, *(dropped for dropped, prior in after.items() if prior == f.name)]
    return layout(cls, names)


# the five tables whose unread fields v5 dropped, as v2 to v4 held them
_V4_LAYOUTS = {
    Token: _layout_with(Token, user_id="id"),
    Instance: _layout_with(Instance, ephemeral_image_b64="authorized_keys",
                           created_at="guest_log"),
    ScalingGroup: _layout_with(ScalingGroup, stack_id="member_seq"),
    WaitHandle: _layout_with(WaitHandle, resource_name="stack_id"),
    WaitCondition: _layout_with(WaitCondition, resource_name="stack_id"),
}


def _v4(schema) -> dict:
    """A subsystem's schema as v2 to v4 held it."""
    return {name: _V4_LAYOUTS.get(codec.row, codec) for name, codec in schema.items()}


_STACK_FIELDS = [f.name for f in fields(Stack)]
_RUN_FIELDS = [f.name for f in fields(StackRun)]
# the two tables v4 changed, as v3 held them: a stack kept its template
# `source` after its `status`, and a run kept none
_V3_STACKS = _layout_with(Stack, source="status")
_V3_RUNS = layout(StackRun, [name for name in _RUN_FIELDS if name != "source"])


def _upgrade_v2(data: dict) -> dict:
    """A v2 snapshot in v3 form: v3 stores each registry as one table of
    rows under a `fields` header, by the same layouts that load it (the
    stacks and runs by their v3 layouts)."""
    engine_schema = {**_v4(_ENGINE_SCHEMA), "stacks": _V3_STACKS, "runs": _V3_RUNS}
    return {
        **data, "v": 3,
        "identity": upgrade_attrs(_v4(_IDENTITY_SCHEMA), data["identity"]),
        "provider": upgrade_attrs(_v4(_PROVIDER_SCHEMA), data["provider"]),
        "engine": upgrade_attrs(engine_schema, data["engine"]),
        "telemetry": upgrade_attrs(_v4(_TELEMETRY_SCHEMA), data["telemetry"]),
    }


def _upgrade_v3(data: dict) -> dict:
    """A v3 snapshot in v4 form: v4 keeps a stack's template `source` in
    the row of its pending run, and drops it where the run has ended."""
    engine = data["engine"]
    stacks, runs = _V3_STACKS.load(engine["stacks"]), _V3_RUNS.load(engine["runs"])
    sources = {stack["id"]: stack.pop("source") for stack in stacks}
    check_column(StackRun, "source", sources.values(), "v3 stack")
    for run in runs:
        if run["stack_id"] not in sources:
            raise ValueError(f"a v3 run names a missing stack {run['stack_id']!r}")
        run["source"] = sources[run["stack_id"]]
    return {**data, "v": 4, "engine": {
        **engine,
        "stacks": layout(Stack, _STACK_FIELDS).dump(stacks),
        "runs": layout(StackRun, _RUN_FIELDS).dump(runs),
    }}


def _v5_table(cls, data, ids) -> dict:
    """A v4 table of `cls` rows in v5 form: without the fields v5 dropped,
    each nested table in v5 form first, then each ref cell interned in
    `ids`, in the order a save interns them."""
    names = [f.name for f in fields(cls)]
    rows = _V4_LAYOUTS.get(cls, layout(cls, names)).load(data)
    for f in fields(cls):
        if f.codec.row is not None:
            for row in rows:
                row[f.name] = _v5_table(f.codec.row, row[f.name], ids)
    return layout(cls, names).dump(rows, ids)


def _v5_tables(schema, data, ids) -> dict:
    return {**data, **{name: _v5_table(codec.row, data[name], ids)
                       for name, codec in schema.items() if codec.row is not None}}


def _upgrade_v4(data: dict) -> dict:
    """A v4 snapshot in v5 form: v5 drops six fields that nothing read,
    stores the events as one table, and stores each id once, in the `ids`
    table that the ref cells index into."""
    ids = Ids()
    return {
        **data, "v": 5,
        "identity": _v5_tables(_IDENTITY_SCHEMA, data["identity"], ids),
        "provider": _v5_tables(_PROVIDER_SCHEMA, data["provider"], ids),
        "engine": _v5_tables(_ENGINE_SCHEMA, data["engine"], ids),
        "telemetry": _v5_tables(_TELEMETRY_SCHEMA, data["telemetry"], ids),
        "events": _v5_table(Event, _EVENTS.upgrade(data["events"]), ids),
        "ids": list(ids),
    }


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

    def emit(self, kind, subject, **detail):
        self.events.append({"tick": self.tick, "kind": kind, "subject": subject, "detail": detail})

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
        ids = Ids()  # filled in the order of the sections below
        return {
            "v": SNAPSHOT_VERSION,
            "seed": self.seed,
            "tick": self.tick,
            "rng_state": [state[0], list(state[1]), state[2]],
            "template_dir": self.engine.template_dir,
            "identity": self.identity.to_dict(ids),
            "provider": self.provider.to_dict(ids),
            "engine": self.engine.to_dict(ids),
            "telemetry": self.telemetry.to_dict(ids),
            "events": _EVENTS.dump(self.events, ids),
            "ids": list(ids),
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "World":
        if data.get("v") == 1:
            data = _upgrade_v1(data)
        if data.get("v") == 2:
            data = _upgrade_v2(data)
        if data.get("v") == 3:
            data = _upgrade_v3(data)
        if data.get("v") == 4:
            data = _upgrade_v4(data)
        if data.get("v") != SNAPSHOT_VERSION:
            raise ConflictError(f"unsupported state snapshot version {data.get('v')!r}")
        check(_Header, data, "snapshot")
        ids = id_index(data["ids"])
        world = cls(seed=data["seed"], template_dir=data["template_dir"], _bootstrap=False)
        version, internal, gauss = data["rng_state"]
        world.rng.setstate((version, tuple(internal), gauss))
        world.tick = data["tick"]
        world.events = _EVENTS.load(data["events"], ids)
        world.identity.load_dict(data["identity"], ids)
        world.provider.load_dict(data["provider"], ids)
        world.engine.load_dict(data["engine"], ids)
        world.telemetry.load_dict(data["telemetry"], ids)
        return world
