"""Behaviour digests: the sha256 of the event log and of the snapshot of
whole scenario runs, pinned from the package before its telemetry index
existed. A change that alters what a scenario does, or what it saves,
moves a digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from minimano.scenario import event_log_lines, load_scenario, run_scenario

DATA = Path(__file__).resolve().parent / "data"

MEMBER = {"image": "ubuntu_cloud14", "flavor": "m1.small"}

# ~200 ticks: two groups with load generators and scale-out/scale-in
# alarms of different windows and aggregates, a crash on each group, a
# few scheduled samples, and the healer on.
LONG_SCENARIO = {
    "seed": 7,
    "ticks": 200,
    "hosts": [{"id": f"host-{i}", "vcpus": 8, "ram_mib": 16384, "disk_gib": 160}
              for i in (1, 2)],
    "healer": {"enabled": True, "detect_interval": 5, "heal_window": 20},
    "setup": {
        "images": [{"name": "ubuntu_cloud14", "payload": "ubuntu cloud image"}],
        "flavors": [{"name": "m1.small", "vcpus": 1, "ram_mib": 2048, "disk_gib": 20}],
        "networks": [{"name": "net-a", "cidr": "10.0.0.0/24"},
                     {"name": "net-b", "cidr": "10.0.1.0/24"}],
    },
    "groups": [
        {"name": "web", "min": 2, "max": 6, "desired": 3,
         "member": {**MEMBER, "networks": ["net-a"]}},
        {"name": "api", "min": 1, "max": 5, "desired": 2,
         "member": {**MEMBER, "networks": ["net-b"]}},
    ],
    "alarms": [
        {"name": "web-high", "metric": "cpu_util", "aggregate": "avg", "comparison": "gt",
         "threshold": 0.75, "window": 3, "target": "web", "action": "scale_out"},
        {"name": "web-low", "metric": "cpu_util", "aggregate": "avg", "comparison": "lt",
         "threshold": 0.35, "window": 4, "target": "web", "action": "scale_in"},
        {"name": "api-high", "metric": "cpu_util", "aggregate": "max", "comparison": "ge",
         "threshold": 0.85, "window": 1, "target": "api", "action": "scale_out"},
        {"name": "api-low", "metric": "cpu_util", "aggregate": "min", "comparison": "le",
         "threshold": 0.3, "window": 6, "target": "api", "action": "scale_in"},
        {"name": "api-mem", "metric": "mem_util", "aggregate": "avg", "comparison": "gt",
         "threshold": 0.6, "window": 50, "target": "api", "action": "notify"},
    ],
    "generators": [
        {"group": "web", "metric": "cpu_util", "base": 0.55, "amplitude": 0.35,
         "period": 40, "noise": 0.05, "seed": 11},
        {"group": "api", "metric": "cpu_util", "base": 0.5, "amplitude": 0.4,
         "period": 30, "noise": 0.1, "seed": 12},
        {"group": "api", "metric": "mem_util", "base": 0.6, "amplitude": 0.2,
         "period": 50, "noise": 0.05, "seed": 13},
    ],
    "metrics": [
        {"tick": 20, "group": "api", "metric": "mem_util", "value": 0.99},
        {"tick": 21, "group": "api", "metric": "mem_util", "value": 0.99},
        {"tick": 22, "group": "api", "member_index": 0, "metric": "mem_util", "value": 1.5},
    ],
    "faults": [
        {"tick": 51, "group": "web", "member_index": 0, "kind": "instance_crash"},
        {"tick": 131, "group": "api", "member_index": 0, "kind": "instance_crash"},
    ],
}

DIGESTS = {
    "autonomic_scenario": (
        "101400baec5e3d60dc36819277b005c6645e7904148e15f17036af1c053c0e9c",
        "275f4f7bd90e717aaf29281c915caacc3058ab0b67a100407adacaa1e18cb71c",
    ),
    "long_scenario": (
        "16a5c51574c813064b5721ec61ca7d896322bd2c940a5fc08f44f7c6c55827fd",
        "050ba1c77c558916e6f0c38f55a7b1c97eaa5f3f2f333c9a9f3606c0d175eb0c",
    ),
}


def digests(world):
    events = "\n".join(event_log_lines(world)) + "\n"
    snapshot = json.dumps(world.to_snapshot(), separators=(",", ":"))
    return (hashlib.sha256(events.encode()).hexdigest(),
            hashlib.sha256(snapshot.encode()).hexdigest())


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_scenario_digests(name):
    if name == "long_scenario":
        scenario = LONG_SCENARIO
    else:
        scenario = load_scenario(str(DATA / f"{name}.json"))
    assert digests(run_scenario(scenario)) == DIGESTS[name]
