"""Replayable scenario files.

A scenario JSON describes a whole run: host inventory, pre-created
provider resources, scaling groups and alarms, a schedule of metric
samples and fault injections, and how many ticks to advance. Running it
builds a fresh world, loads the schedules, and drives the clock, so the
same file plus the same seed always reproduces the same event log and
state snapshot.

Schema (all sections optional unless noted):

    {
      "seed": 42,
      "ticks": 40,                          # mandatory
      "hosts": [{"id": "host-1", "vcpus": 8, "ram_mib": 16384, "disk_gib": 160}],
      "healer": {"enabled": true, "detect_interval": 5, "heal_window": 20},
      "setup": {
        "images":   [{"name": "...", "payload": "...", "cloud_init": true}],
        "flavors":  [{"name": "...", "vcpus": 1, "ram_mib": 2048, "disk_gib": 20}],
        "keypairs": [{"name": "..."}],
        "networks": [{"name": "...", "cidr": "10.0.0.0/24"}]
      },
      "groups": [{"name": "...", "min": 1, "max": 3, "desired": 1, "member": {...}}],
      "alarms": [{"name": "...", "metric": "cpu_util", "aggregate": "avg",
                  "comparison": "gt", "threshold": 0.8, "window": 3,
                  "target": "<group>", "action": "scale_out"}],
      "generators": [{"group": "...", "metric": "cpu_util", "base": 0.5,
                      "amplitude": 0.3, "period": 20, "noise": 0.05, "seed": 0}],
      "metrics": [{"tick": 1, "group": "...", "metric": "cpu_util", "value": 0.5}],
      "faults":  [{"tick": 12, "group": "...", "member_index": 0,
                   "kind": "instance_crash"}]
    }

Metric/fault entries target either a literal "resource" id, a whole
"group" (every member active at that tick), or one member by index.
"""

import json

from .errors import StateIOError, TemplateError
from .telemetry import HealerConfig, LoadGenerator
from .world import World


def load_scenario(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            scenario = json.load(fh)
    except FileNotFoundError:
        raise StateIOError(f"scenario file {path!r} does not exist") from None
    except (OSError, ValueError) as exc:
        raise StateIOError(f"cannot read scenario file {path!r}: {exc}") from None
    if not isinstance(scenario, dict) or "ticks" not in scenario:
        raise TemplateError("scenario must be a JSON object with a 'ticks' entry")
    return scenario


def _fields(entry, section, *keys):
    """The values of `keys` in one entry of `section`, in order."""
    if not isinstance(entry, dict):
        raise TemplateError(f"scenario {section!r} entries must be objects")
    try:
        return [entry[key] for key in keys]
    except KeyError as exc:
        raise TemplateError(f"scenario {section!r} entry {entry.get('name', entry)!r} "
                            f"lacks {exc}") from None


def build_world(scenario: dict, seed=None) -> World:
    """World with the scenario's inventory, groups, alarms, and schedules
    loaded but the clock not yet advanced."""
    world = World(
        seed=scenario.get("seed", 42) if seed is None else seed,
        hosts=scenario.get("hosts"),
    )
    admin = world.identity.tenant_by_name("admin")
    tenant_id = admin.id

    setup = scenario.get("setup", {})
    for image in setup.get("images", []):
        name, = _fields(image, "images", "name")
        world.provider.register_image(
            tenant_id, name, image.get("payload", name).encode(),
            generic=image.get("generic", True), cloud_init=image.get("cloud_init", True),
        )
    for flavor in setup.get("flavors", []):
        world.provider.create_flavor(
            tenant_id, *_fields(flavor, "flavors", "name", "vcpus", "ram_mib", "disk_gib")
        )
    for keypair in setup.get("keypairs", []):
        world.provider.create_keypair(tenant_id, *_fields(keypair, "keypairs", "name"))
    for network in setup.get("networks", []):
        world.provider.create_network(
            tenant_id, *_fields(network, "networks", "name", "cidr"), network.get("gateway")
        )

    healer = scenario.get("healer")
    if healer:
        config = HealerConfig(
            enabled=healer.get("enabled", True),
            detect_interval=healer.get("detect_interval", 5),
            heal_window=healer.get("heal_window", 20),
        )
        if config.heal_window < config.detect_interval:
            raise TemplateError("heal_window must be at least detect_interval")
        world.telemetry.healer = config

    for group in scenario.get("groups", []):
        name, member, low, high, desired = _fields(
            group, "groups", "name", "member", "min", "max", "desired")
        world.telemetry.create_group(name, tenant_id, member, low, high, desired)
    for alarm in scenario.get("alarms", []):
        world.telemetry.create_alarm(*_fields(
            alarm, "alarms", "name", "metric", "aggregate", "comparison",
            "threshold", "window", "target", "action",
        ))
    for gen in scenario.get("generators", []):
        world.telemetry.add_generator(LoadGenerator(
            group_name=_fields(gen, "generators", "group")[0],
            metric=gen.get("metric", "cpu_util"),
            base=gen.get("base", 0.5), amplitude=gen.get("amplitude", 0.3),
            period=gen.get("period", 20), noise=gen.get("noise", 0.05),
            seed=gen.get("seed", 0),
        ))
    world.telemetry.scheduled_metrics = list(scenario.get("metrics", []))
    world.telemetry.scheduled_faults = list(scenario.get("faults", []))
    for section, keys in (("metrics", ("tick", "metric", "value")), ("faults", ("tick",))):
        for entry in scenario.get(section, []):
            _fields(entry, section, *keys)
            if "group" not in entry and "resource" not in entry:
                raise TemplateError(f"scenario {section!r} entry {entry!r} "
                                    "names neither a 'group' nor a 'resource'")
    return world


def run_scenario(scenario: dict, seed=None) -> World:
    try:
        ticks = int(scenario["ticks"])
    except (TypeError, ValueError):
        raise TemplateError(f"scenario 'ticks' is not an integer: {scenario['ticks']!r}") from None
    world = build_world(scenario, seed=seed)
    world.advance_clock(ticks)
    return world


def event_log_lines(world: World) -> list:
    """Events as the line-oriented interchange format (one JSON per line)."""
    return [json.dumps(event, separators=(",", ":")) for event in world.events]
