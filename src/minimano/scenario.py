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

from .codec import check, entries, record
from .errors import StateIOError, TemplateError
from .nfvi import Flavor, Image, KeyPair, Network
from .telemetry import (AlarmDef, HealerConfig, LoadGenerator, ScalingGroup, ScheduledFault,
                        ScheduledMetric)
from .world import World


def load_scenario(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            scenario = json.load(fh)
    except FileNotFoundError:
        raise StateIOError(f"scenario file {path!r} does not exist") from None
    except (OSError, ValueError, RecursionError) as exc:
        raise StateIOError(f"cannot read scenario file {path!r}: {exc}") from None
    if not isinstance(scenario, dict) or "ticks" not in scenario:
        raise TemplateError("scenario must be a JSON object with a 'ticks' entry")
    return scenario


@record
class Sections:
    """The kind of each section of a scenario and of its `setup`; any but
    `ticks` may be absent or null. Each entry is decoded by the record it
    becomes."""
    ticks: int
    seed: int | None
    hosts: list | None
    healer: dict | None
    setup: dict | None
    images: list | None
    flavors: list | None
    keypairs: list | None
    networks: list | None
    groups: list | None
    alarms: list | None
    generators: list | None
    metrics: list | None
    faults: list | None


def _entries(parent, section, cls, required, optional=(), **rename) -> list:
    """Each entry of the list section `parent[section]` as keyword
    arguments of `cls` (see `codec.entries`)."""
    return entries(parent.get(section) or [], cls, f"scenario {section!r}", required, optional,
                   TemplateError, **rename)


def build_world(scenario: dict, seed=None) -> World:
    """World with the scenario's inventory, groups, alarms, and schedules
    loaded but the clock not yet advanced."""
    check(Sections, scenario, "scenario", TemplateError)
    setup = check(Sections, scenario.get("setup") or {}, "scenario 'setup'", TemplateError)
    seed = scenario.get("seed") if seed is None else seed
    try:
        world = World(seed=42 if seed is None else seed, hosts=scenario.get("hosts"))
    except TemplateError as exc:
        raise TemplateError(f"scenario 'hosts': {exc.message}") from None
    tenant_id = world.identity.tenant_by_name("admin").id
    provider, telemetry = world.provider, world.telemetry

    for image in _entries(setup, "images", Image, ["name"], ["payload", "generic", "cloud_init"],
                          payload="payload_b64"):
        payload = image.pop("payload_b64", image["name"]).encode()
        provider.register_image(tenant_id, payload=payload, **image)
    for flavor in _entries(setup, "flavors", Flavor, ["name", "vcpus", "ram_mib", "disk_gib"]):
        provider.create_flavor(tenant_id, **flavor)
    for keypair in _entries(setup, "keypairs", KeyPair, ["name"]):
        provider.create_keypair(tenant_id, **keypair)
    for network in _entries(setup, "networks", Network, ["name", "cidr"], ["gateway"]):
        provider.create_network(tenant_id, **network)

    healer = scenario.get("healer")
    if healer:
        given = {key: healer[key] for key in ("enabled", "detect_interval")
                 if healer.get(key) is not None}
        telemetry.healer = HealerConfig(**check(HealerConfig, {"enabled": True, **given},
                                                "scenario 'healer'", TemplateError))
    for group in _entries(scenario, "groups", ScalingGroup,
                          ["name", "member", "min", "max", "desired"],
                          member="member_spec", min="min_size", max="max_size"):
        telemetry.create_group(tenant_id=tenant_id, **group)
    for alarm in _entries(scenario, "alarms", AlarmDef, ["name", "metric", "aggregate",
                          "comparison", "threshold", "window", "target", "action"]):
        telemetry.create_alarm(**alarm)
    telemetry.generators = [LoadGenerator(**gen) for gen in _entries(
        scenario, "generators", LoadGenerator, ["group"],
        ["metric", "base", "amplitude", "period", "noise", "seed"], group="group_name")]
    targets = ["resource", "group", "member_index"]
    for section, cls, required, optional in (
            ("metrics", ScheduledMetric, ["tick", "metric", "value"], targets),
            ("faults", ScheduledFault, ["tick"], ["kind", *targets])):
        setattr(telemetry, f"scheduled_{section}",
                [cls(**entry) for entry in _entries(scenario, section, cls, required, optional)])
    for section, schedule in (("generators", telemetry.generators),
                              ("metrics", telemetry.scheduled_metrics),
                              ("faults", telemetry.scheduled_faults)):
        for index, entry in enumerate(schedule):
            if entry.group is not None and entry.group not in telemetry.groups:
                raise TemplateError(f"scenario {section!r} entry {index} names scaling group "
                                    f"{entry.group!r}, which does not exist")
    return world


def run_scenario(scenario: dict, seed=None) -> World:
    world = build_world(scenario, seed=seed)
    world.advance_clock(scenario["ticks"])
    return world


def event_log_lines(world: World) -> list:
    """Events as the line-oriented interchange format (one JSON per line)."""
    return [json.dumps(event, separators=(",", ":")) for event in world.events]
