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

from .codec import check, check_column, fields, layout, record, upgrade_attrs
from .engine import _SCHEMA as _ENGINE_SCHEMA
from .engine import Stack, StackEngine, StackRun
from .errors import ConflictError
from .identity import _STATE as _IDENTITY_STATE
from .identity import IdentityService
from .nfvi import _SCHEMA as _PROVIDER_SCHEMA
from .nfvi import CloudProvider
from .telemetry import _SCHEMA as _TELEMETRY_SCHEMA
from .telemetry import TelemetryService

SNAPSHOT_VERSION = 4


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


_STACK_FIELDS = [f.name for f in fields(Stack)]
_RUN_FIELDS = [f.name for f in fields(StackRun)]
# the two tables v4 changed, as v3 held them: a stack kept its template
# `source` after its `status`, and a run kept none
_AFTER_STATUS = _STACK_FIELDS.index("status") + 1
_V3_STACKS = layout(Stack, [*_STACK_FIELDS[:_AFTER_STATUS], "source",
                            *_STACK_FIELDS[_AFTER_STATUS:]])
_V3_RUNS = layout(StackRun, [name for name in _RUN_FIELDS if name != "source"])


def _upgrade_v2(data: dict) -> dict:
    """A v2 snapshot in v3 form: v3 stores each registry as one table of
    rows under a `fields` header, by the same layouts that load it (the
    stacks and runs by their v3 layouts)."""
    engine_schema = {**_ENGINE_SCHEMA, "stacks": _V3_STACKS, "runs": _V3_RUNS}
    return {
        **data, "v": 3,
        "identity": _IDENTITY_STATE.upgrade(data["identity"]),
        "provider": upgrade_attrs(_PROVIDER_SCHEMA, data["provider"]),
        "engine": upgrade_attrs(engine_schema, data["engine"]),
        "telemetry": upgrade_attrs(_TELEMETRY_SCHEMA, data["telemetry"]),
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


@record
class _Header:
    """The values a snapshot holds beside its four subsystems."""
    seed: int
    tick: int
    template_dir: str | None
    events: list


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
        return {
            "v": SNAPSHOT_VERSION,
            "seed": self.seed,
            "tick": self.tick,
            "rng_state": [state[0], list(state[1]), state[2]],
            "template_dir": self.engine.template_dir,
            "identity": self.identity.to_dict(),
            "provider": self.provider.to_dict(),
            "engine": self.engine.to_dict(),
            "telemetry": self.telemetry.to_dict(),
            "events": list(self.events),
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "World":
        if data.get("v") == 1:
            data = _upgrade_v1(data)
        if data.get("v") == 2:
            data = _upgrade_v2(data)
        if data.get("v") == 3:
            data = _upgrade_v3(data)
        if data.get("v") != SNAPSHOT_VERSION:
            raise ConflictError(f"unsupported state snapshot version {data.get('v')!r}")
        check(_Header, data, "snapshot")
        world = cls(seed=data["seed"], template_dir=data["template_dir"], _bootstrap=False)
        version, internal, gauss = data["rng_state"]
        world.rng.setstate((version, tuple(internal), gauss))
        world.tick = data["tick"]
        world.events = list(data["events"])
        world.identity.load_dict(data["identity"])
        world.provider.load_dict(data["provider"])
        world.engine.load_dict(data["engine"])
        world.telemetry.load_dict(data["telemetry"])
        return world
