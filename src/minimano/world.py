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
import uuid as uuidlib
import weakref

from .engine import StackEngine
from .errors import ConflictError
from .identity import IdentityService
from .nfvi import CloudProvider
from .telemetry import TelemetryService

SNAPSHOT_VERSION = 1


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
        return str(uuidlib.UUID(int=self.rng.getrandbits(128), version=4))

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
        if data.get("v") != SNAPSHOT_VERSION:
            raise ConflictError(f"unsupported state snapshot version {data.get('v')!r}")
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
