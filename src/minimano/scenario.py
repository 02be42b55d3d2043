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
      "healer": {"enabled": true, "detect_interval": 5},
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
from .telemetry import LoadGenerator, healer_config
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


# a scenario value's kind and how an error names it; `float` is any number
_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer",
          float: "a number"}


def _is(value, kind) -> bool:
    """Whether a JSON value is of `kind`; a bool is never a number here."""
    return type(value) is kind or (kind is float and type(value) is int)


def _section(parent, key, kind, default=None):
    """`parent[key]`, or `default` (an empty `kind` if none is given) when
    absent or null; a value of any other kind is an error."""
    value = parent.get(key)
    if value is None:
        return kind() if default is None else default
    if not _is(value, kind):
        raise TemplateError(f"scenario {key!r} must be {_KINDS[kind]}, got {value!r}")
    return value


def _fields(entry, section, **kinds):
    """The values of the keys of `kinds` in one entry of `section`, in
    order, each of the kind `kinds` gives it."""
    if not isinstance(entry, dict):
        raise TemplateError(f"scenario {section!r} entries must be objects")
    values = []
    for key, kind in kinds.items():
        if key not in entry:
            raise TemplateError(f"scenario {section!r} entry {entry.get('name', entry)!r} "
                                f"lacks {key!r}")
        if not _is(entry[key], kind):
            raise TemplateError(f"scenario {section!r} entry {entry.get('name', entry)!r}: "
                                f"{key!r} must be {_KINDS[kind]}, got {entry[key]!r}")
        values.append(entry[key])
    return values


def build_world(scenario: dict, seed=None) -> World:
    """World with the scenario's inventory, groups, alarms, and schedules
    loaded but the clock not yet advanced."""
    if seed is None:
        seed = _section(scenario, "seed", int, 42)
    try:
        world = World(seed=seed, hosts=scenario.get("hosts"))
    except TemplateError as exc:
        raise TemplateError(f"scenario 'hosts': {exc.message}") from None
    admin = world.identity.tenant_by_name("admin")
    tenant_id = admin.id

    setup = _section(scenario, "setup", dict)
    for image in _section(setup, "images", list):
        name, = _fields(image, "images", name=str)
        world.provider.register_image(
            tenant_id, name, image.get("payload", name).encode(),
            generic=image.get("generic", True), cloud_init=image.get("cloud_init", True),
        )
    for flavor in _section(setup, "flavors", list):
        world.provider.create_flavor(
            tenant_id, *_fields(flavor, "flavors", name=str, vcpus=int, ram_mib=int, disk_gib=int)
        )
    for keypair in _section(setup, "keypairs", list):
        world.provider.create_keypair(tenant_id, *_fields(keypair, "keypairs", name=str))
    for network in _section(setup, "networks", list):
        world.provider.create_network(
            tenant_id, *_fields(network, "networks", name=str, cidr=str), network.get("gateway")
        )

    healer = _section(scenario, "healer", dict)
    if healer:
        world.telemetry.healer = healer_config(
            healer.get("enabled", True), healer.get("detect_interval", 5),
            "scenario 'healer' detect_interval")

    for group in _section(scenario, "groups", list):
        name, member, low, high, desired = _fields(
            group, "groups", name=str, member=dict, min=int, max=int, desired=int)
        world.telemetry.create_group(name, tenant_id, member, low, high, desired)
    for alarm in _section(scenario, "alarms", list):
        world.telemetry.create_alarm(*_fields(
            alarm, "alarms", name=str, metric=str, aggregate=str, comparison=str,
            threshold=float, window=int, target=str, action=str,
        ))
    for gen in _section(scenario, "generators", list):
        world.telemetry.add_generator(LoadGenerator(
            group_name=_fields(gen, "generators", group=str)[0],
            metric=gen.get("metric", "cpu_util"),
            base=gen.get("base", 0.5), amplitude=gen.get("amplitude", 0.3),
            period=gen.get("period", 20), noise=gen.get("noise", 0.05),
            seed=gen.get("seed", 0),
        ))
    world.telemetry.scheduled_metrics = list(_section(scenario, "metrics", list))
    world.telemetry.scheduled_faults = list(_section(scenario, "faults", list))
    for section, kinds in (("metrics", {"tick": int, "metric": str, "value": float}),
                           ("faults", {"tick": int})):
        for entry in _section(scenario, section, list):
            _fields(entry, section, **kinds)
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
