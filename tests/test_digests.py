"""Behaviour digests: the sha256 of the event log and of the snapshot of
whole scenario runs. The event-log digests were pinned from the package
before its telemetry index existed, and the twin scenario's digests
before an alarm pass read a window shared by two alarms once. The
snapshot digests are of the v7 snapshot: the v6 snapshot of the same run
passed through `world._upgrade_v6`, which stores each table as one list
per column and interns seven name columns, and saved again. The v6
digests were of the v5 snapshot passed through `world._upgrade_v5`,
which stores each schedule as a table of its record. The v5 digests
were of the v4 snapshot passed through `world._upgrade_v4`, which drops
six unread fields, stores the events as a table and each id once, in
the `ids` table the id columns index into. The v4 digests were of the v3 snapshot passed through
`world._upgrade_v3`, which moves the `source` column from the stacks
table to the runs table (these runs create no stack, so only the two
headers move). The v3 digests were of the v2 snapshot passed through
`world._upgrade_v2`, which stores each registry as one table of rows, and
the v2 digests of the v1 snapshot with `v` set to 2 and the three fields
v2 dropped removed. The engine digest is of one seeded run of stacks
whose wait conditions and nested stacks end in every way, pinned before
the deployment walk settled each blocked resource in one step; its
snapshot digest too is of the v6 snapshot passed through
`world._upgrade_v6` and saved again, as the v6 one was of the v5
snapshot passed through `world._upgrade_v5`. A change that alters what a
run does, or what it saves, moves a digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from minimano.hot import parse_template
from minimano.scenario import build_world, event_log_lines, load_scenario, run_scenario
from minimano.world import World

DATA = Path(__file__).resolve().parent / "data"
TEMPLATES = Path(__file__).resolve().parent.parent / "templates"

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

# LONG_SCENARIO with each group's scale-out and scale-in alarms on one
# metric over one window, so that the two read the same window in a pass
TWIN_WINDOWS = {"web": 4, "api": 3}
TWIN_SCENARIO = {**LONG_SCENARIO, "alarms": [
    alarm if alarm["action"] == "notify" else {**alarm, "window": TWIN_WINDOWS[alarm["target"]]}
    for alarm in LONG_SCENARIO["alarms"]]}

DIGESTS = {
    "autonomic_scenario": (
        "101400baec5e3d60dc36819277b005c6645e7904148e15f17036af1c053c0e9c",
        "5f3c054210d8bbd5b4f30738ca64e974f54dec82bdb4dfb4aabfb7367a3f00e9",
    ),
    "long_scenario": (
        "16a5c51574c813064b5721ec61ca7d896322bd2c940a5fc08f44f7c6c55827fd",
        "2837c77f9f7e445bd1325e85086334c1f4f0b85320015b132b76dca6d992bb02",
    ),
    "twin_scenario": (
        "4eb46979da0f590e8e259d719620a4bdaf5c91eaac66467f319528df69241113",
        "f529aacfb04feb63f4ef47205ed4b98c2bc48965f2d5a0cf646a579f92c9b07f",
    ),
}


def digests(world):
    events = "\n".join(event_log_lines(world)) + "\n"
    snapshot = json.dumps(world.to_snapshot(), separators=(",", ":"))
    return (hashlib.sha256(events.encode()).hexdigest(),
            hashlib.sha256(snapshot.encode()).hexdigest())


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_scenario_digests(name):
    scenario = {"long_scenario": LONG_SCENARIO, "twin_scenario": TWIN_SCENARIO}.get(name)
    if scenario is None:
        scenario = load_scenario(str(DATA / f"{name}.json"))
    assert digests(run_scenario(scenario)) == DIGESTS[name]


@pytest.mark.parametrize("name, scenario", [("long_scenario", LONG_SCENARIO),
                                            ("twin_scenario", TWIN_SCENARIO)])
def test_a_reload_every_seven_ticks_changes_no_digest(name, scenario):
    """Saved and loaded every 7 ticks, a run ends as it does in one
    world: the window index rebuilt from the loaded columns, and the
    generators appending to them, read what the samples in memory give."""
    world = build_world(scenario)
    while world.tick < scenario["ticks"]:
        world.advance_clock(min(7, scenario["ticks"] - world.tick))
        world = World.from_snapshot(json.loads(json.dumps(world.to_snapshot())))
    assert world.tick == scenario["ticks"]
    assert digests(world) == DIGESTS[name]


# -- the engine digest: every way a blocked wait condition or nested stack
# ends, reached by the walk and by a resume, with reloads between steps

HEADER = "heat_template_version: 2013-05-23\n"
ENGINE_TEMPLATES = {
    # a gate that only a signal or its deadline ends
    "gated.yaml": HEADER + """\
parameters:
  timeout:
    type: number
    default: 4
resources:
  handle:
    type: OS::Heat::WaitConditionHandle
  gate:
    type: OS::Heat::WaitCondition
    properties:
      handle: { get_resource: handle }
      timeout: { get_param: timeout }
outputs:
  data:
    value: { get_attr: [gate, data] }
""",
    # a guest that signals its gate before the walk reaches the gate
    "guest.yaml": HEADER + """\
parameters:
  status:
    type: string
    default: SUCCESS
resources:
  handle:
    type: OS::Heat::WaitConditionHandle
  server:
    type: OS::Nova::Server
    properties:
      image: ubuntu_cloud14
      flavor: m1.small
      networks:
        - network: my_net1
      user_data:
        str_replace:
          params:
            __url__: { get_attr: [handle, curl_cli] }
            __status__: { get_param: status }
          template: |
            signal __url__ {"status": "__status__", "data": "up"}
  gate:
    type: OS::Heat::WaitCondition
    depends_on: server
    properties:
      handle: { get_resource: handle }
      timeout: 4
outputs:
  data:
    value: { get_attr: [gate, data] }
""",
    # gate_b's signal can arrive while the walk waits on gate_a
    "chain.yaml": HEADER + """\
resources:
  handle_a:
    type: OS::Heat::WaitConditionHandle
  handle_b:
    type: OS::Heat::WaitConditionHandle
  gate_a:
    type: OS::Heat::WaitCondition
    properties:
      handle: { get_resource: handle_a }
      timeout: 4
  gate_b:
    type: OS::Heat::WaitCondition
    depends_on: gate_a
    properties:
      handle: { get_resource: handle_b }
      timeout: 4
""",
    "parent.yaml": HEADER + """\
parameters:
  timeout:
    type: number
    default: 4
resources:
  child:
    type: gated.yaml
    properties:
      timeout: { get_param: timeout }
  after:
    type: OS::Heat::RandomString
    depends_on: child
    properties:
      length: 6
outputs:
  data:
    value: { get_attr: [child, data] }
""",
    "grand.yaml": HEADER + """\
resources:
  inner:
    type: parent.yaml
    properties:
      timeout: 7
""",
    # the second child is created by a resumed walk
    "pair.yaml": HEADER + """\
resources:
  first:
    type: gated.yaml
  second:
    type: gated.yaml
    depends_on: first
""",
    "guest_parent.yaml": HEADER + """\
parameters:
  status:
    type: string
resources:
  child:
    type: guest.yaml
    properties:
      status: { get_param: status }
""",
    "bad_output.yaml": HEADER + """\
resources:
  inner:
    type: guest.yaml
outputs:
  missing:
    value: { get_attr: [inner, nosuch] }
""",
    "bad_output_parent.yaml": HEADER + """\
resources:
  child:
    type: bad_output.yaml
""",
    "bad_resource.yaml": HEADER + """\
resources:
  server:
    type: OS::Nova::Server
    properties:
      image: ubuntu_cloud14
      flavor: m1.none
""",
}

ENGINE_DIGEST = (
    "1eadc9bc458c87be4f137d518ed748db124f690f0123e8a362051e8ece71eed4",
    "e603e01e7df032427e6991dfcf491e9899f97a17e0ae21069437df848033b803",
)


def engine_run(seed):
    """One seeded run through the engine's blocking paths. It runs in a
    directory holding `tpl/`, so the stored template paths are relative."""
    world = World(seed=seed, template_dir="tpl", hosts=[
        {"id": "host-1", "vcpus": 32, "ram_mib": 65536, "disk_gib": 640}])
    tenant = world.identity.tenant_by_name("admin")
    token = world.identity.authenticate("admin", "admin", "admin").id
    world.provider.register_image(tenant.id, "ubuntu_cloud14", b"ubuntu cloud image")
    world.provider.create_flavor(tenant.id, "m1.small", 1, 2048, 20)
    world.provider.create_keypair(tenant.id, "my_key1")
    world.provider.create_network(tenant.id, "my_net1", "10.0.0.0/24")
    ids = {}

    def reload():
        nonlocal world
        world = World.from_snapshot(json.loads(json.dumps(world.to_snapshot())))

    def create(name, template, **params):
        doc = parse_template(Path("tpl", template).read_text())
        stack = world.engine.create_stack(name, doc, params, token=token, template_dir="tpl")
        ids[name] = stack.id

    def signal(name, handle, status, *path):
        stack = world.engine.stacks[ids[name]]
        for rname in path:  # down to a nested stack
            stack = world.engine.stacks[stack.records[rname].physical_id]
        url = stack.records[handle].attributes["curl_cli"]
        world.engine.deliver_signal(url, {"status": status})

    # children that end within their parent's call
    for name in ("example1.yaml", "example2.yaml", "example3.yaml", "example4.yaml",
                 "mysql.yaml"):
        create(name, name)
    create("guest-ok", "guest.yaml", status="SUCCESS")
    create("guest-fail", "guest.yaml", status="FAILURE")
    signal("guest-fail", "handle", "SUCCESS")  # late: ignored
    create("guest-parent", "guest_parent.yaml", status="FAILURE")
    create("output", "bad_output.yaml")
    create("output-parent", "bad_output_parent.yaml")
    create("resource", "bad_resource.yaml")
    # waits that a signal or the clock ends after the walk blocked
    for name in ("wait-ok", "wait-fail", "wait-timeout"):
        create(name, "gated.yaml", timeout=3)
    reload()
    signal("wait-ok", "handle", "SUCCESS")
    reload()
    signal("wait-fail", "handle", "FAILURE")
    signal("wait-ok", "handle", "SUCCESS")  # late: ignored
    create("chain-ok", "chain.yaml")
    create("chain-fail", "chain.yaml")
    signal("chain-ok", "handle_b", "SUCCESS")
    signal("chain-fail", "handle_b", "FAILURE")
    reload()
    signal("chain-ok", "handle_a", "SUCCESS")
    signal("chain-fail", "handle_a", "SUCCESS")
    # parents blocked on a gated child
    for name in ("parent-ok", "parent-fail", "parent-timeout"):
        create(name, "parent.yaml", timeout=5)
    create("grand-ok", "grand.yaml")
    create("grand-timeout", "grand.yaml")
    create("pair", "pair.yaml")
    reload()
    signal("parent-ok", "handle", "SUCCESS", "child")
    reload()
    signal("parent-fail", "handle", "FAILURE", "child")
    signal("grand-ok", "handle", "SUCCESS", "inner", "child")
    signal("parent-ok", "handle", "SUCCESS", "child")  # late: ignored
    signal("pair", "handle", "SUCCESS", "first")
    reload()
    world.advance_clock(3)  # wait-timeout's deadline
    reload()
    signal("pair", "handle", "SUCCESS", "second")
    world.advance_clock(2)  # parent-timeout's child deadline
    reload()
    world.advance_clock(2)  # grand-timeout's grandchild deadline
    reload()
    for name in ("example4.yaml", "guest-fail", "output-parent", "wait-timeout",
                 "parent-ok", "parent-timeout", "grand-ok", "grand-timeout", "pair"):
        world.engine.delete_stack(ids[name], token)
    reload()
    return world, ids


def engine_templates(directory):
    """Write the `tpl/` directory `engine_run` reads into `directory`."""
    (directory / "tpl").mkdir()
    for path in TEMPLATES.iterdir():
        (directory / "tpl" / path.name).write_text(path.read_text())
    for name, text in ENGINE_TEMPLATES.items():
        (directory / "tpl" / name).write_text(text)


def test_engine_digest(tmp_path, monkeypatch):
    engine_templates(tmp_path)
    monkeypatch.chdir(tmp_path)
    world, ids = engine_run(seed=1)
    statuses = {name: world.engine.stacks[stack_id].status for name, stack_id in ids.items()}
    assert statuses == {
        "example1.yaml": "CREATE_COMPLETE", "example2.yaml": "CREATE_COMPLETE",
        "example3.yaml": "CREATE_COMPLETE", "example4.yaml": "DELETE_COMPLETE",
        "mysql.yaml": "CREATE_COMPLETE", "guest-ok": "CREATE_COMPLETE",
        "guest-fail": "DELETE_COMPLETE", "guest-parent": "CREATE_FAILED",
        "output": "CREATE_FAILED", "output-parent": "DELETE_COMPLETE",
        "resource": "CREATE_FAILED", "wait-ok": "CREATE_COMPLETE",
        "wait-fail": "CREATE_FAILED", "wait-timeout": "DELETE_COMPLETE",
        "chain-ok": "CREATE_COMPLETE", "chain-fail": "CREATE_FAILED",
        "parent-ok": "DELETE_COMPLETE", "parent-fail": "CREATE_FAILED",
        "parent-timeout": "DELETE_COMPLETE", "grand-ok": "DELETE_COMPLETE",
        "grand-timeout": "DELETE_COMPLETE", "pair": "DELETE_COMPLETE",
    }
    assert world.engine.runs == {}
    assert digests(world) == ENGINE_DIGEST
