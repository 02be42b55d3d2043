"""Metrics windows, alarm edge-triggering, scaling, and the healing loop."""

import json
import random

import pytest

from minimano.errors import ConflictError, NotFoundError
from minimano.telemetry import HealerConfig
from minimano.world import World

MEMBER = {"image": "img", "flavor": "f1", "networks": ["n1"]}


def autoscale_world(seed=42, hosts=None):
    world = World(seed=seed, hosts=hosts or [{"id": "host-1", "vcpus": 8, "ram_mib": 16384, "disk_gib": 160}])
    tenant = world.identity.tenant_by_name("admin")
    world.provider.register_image(tenant.id, "img", b"img")
    world.provider.create_flavor(tenant.id, "f1", 1, 2048, 20)
    world.provider.create_network(tenant.id, "n1", "10.0.0.0/24")
    return world, tenant.id


def test_record_metric_requires_live_resource():
    world, tenant = autoscale_world()
    instance = world.provider.launch_instance(tenant, MEMBER)
    world.telemetry.record_metric(instance.id, "cpu_util", 0.9, 5)
    world.provider.terminate_instance(instance.id)
    with pytest.raises(NotFoundError, match="unknown resource"):
        world.telemetry.record_metric(instance.id, "cpu_util", 0.9, 6)


def test_window_query_matches_replay_oracle():
    world, tenant = autoscale_world()
    instance = world.provider.launch_instance(tenant, MEMBER)
    rng = random.Random(5)
    samples = []
    for i in range(100):
        tick = rng.randrange(1, 40)
        value = round(rng.random(), 3)
        world.telemetry.record_metric(instance.id, "cpu_util", value, tick)
        samples.append((tick, value))
    for tick in range(1, 45):
        for window in (1, 3, 7):
            got = world.telemetry.window_samples({instance.id}, "cpu_util", tick, window)
            expected = [v for (t, v) in samples if tick - window + 1 <= t <= tick]
            assert [s.value for s in got] == expected


def brute_force_window(samples, resource_ids, metric, tick, window):
    """The oracle: every sample ever recorded, filtered in record order."""
    return [
        (s.resource_id, s.metric, s.value, s.tick) for s in samples
        if s.metric == metric and tick - window + 1 <= s.tick <= tick
        and s.resource_id in resource_ids
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_window_index_matches_brute_force_scan(seed):
    world, tenant = autoscale_world(seed=seed)
    resources = [world.provider.launch_instance(tenant, MEMBER).id for _ in range(4)]
    rng = random.Random(seed)
    for _ in range(300):
        if rng.random() < 0.2:
            world.advance_clock(1)
        # mostly at the current tick, sometimes at a past or future one
        tick = None if rng.random() < 0.7 else world.tick + rng.randrange(-10, 6)
        world.telemetry.record_metric(rng.choice(resources), rng.choice(("cpu_util", "mem_util")),
                                      round(rng.random(), 3), tick)
    ticks = [s.tick for s in world.telemetry.samples]
    history = max(ticks) - min(ticks)
    restored = World.from_snapshot(json.loads(json.dumps(world.to_snapshot())))
    queries = [
        (set(rng.sample(resources, k)), metric)
        for k in (1, 3, 4) for metric in ("cpu_util", "mem_util", "disk_util")
    ]
    samples = world.telemetry.samples
    for w in (world, restored):
        for tick in range(-12, world.tick + 8):
            for window in (1, 3, history + 5):
                for ids, metric in queries:
                    got = w.telemetry.window_samples(ids, metric, tick, window)
                    assert [(s.resource_id, s.metric, s.value, s.tick) for s in got] == \
                        brute_force_window(samples, ids, metric, tick, window)


def test_late_alarm_with_long_window_sees_full_history():
    world, tenant = autoscale_world()
    group = world.telemetry.create_group("web", tenant, MEMBER, 1, 3, 1)
    member = group.members[0]
    for tick in range(1, 201):
        world.telemetry.record_metric(member, "cpu_util", 0.9 if tick <= 10 else 0.1, tick)
    # created at tick 200, its window reaches back to tick 1
    world.telemetry.create_alarm("cpu-max", "cpu_util", "max", "gt", 0.5, 200, "web", "notify")
    fired = world.telemetry.evaluate_alarms(200)
    assert [a.name for a in fired] == ["cpu-max"]
    values = [s.value for s in world.telemetry.window_samples({member}, "cpu_util", 200, 200)]
    assert len(values) == 200 and values[:10] == [0.9] * 10


def test_alarm_fires_on_hand_computed_aggregate():
    world, tenant = autoscale_world()
    group = world.telemetry.create_group("web", tenant, MEMBER, 1, 3, 1)
    world.telemetry.create_alarm("cpu-high", "cpu_util", "avg", "gt", 0.8, 3, "web", "notify")
    member = group.members[0]
    for tick, value in ((1, 0.9), (2, 0.8), (3, 0.85)):
        world.telemetry.record_metric(member, "cpu_util", value, tick)
    # avg(0.9, 0.8, 0.85) = 0.85 > 0.8
    assert sum((0.9, 0.8, 0.85)) / 3 == pytest.approx(0.85)
    fired = world.telemetry.evaluate_alarms(3)
    assert [a.name for a in fired] == ["cpu-high"]
    assert world.telemetry.alarms["cpu-high"].state == "alarm"


def test_alarm_is_edge_triggered():
    world, tenant = autoscale_world()
    group = world.telemetry.create_group("web", tenant, MEMBER, 1, 3, 1)
    world.telemetry.create_alarm("cpu-high", "cpu_util", "avg", "gt", 0.8, 3, "web", "notify")
    member = group.members[0]
    fires = 0
    for tick in range(1, 12):
        world.telemetry.record_metric(member, "cpu_util", 0.95, tick)
        fires += len(world.telemetry.evaluate_alarms(tick))
    assert fires == 1  # constant breach fires exactly once


def test_alarm_cooldown_before_rearming():
    world, tenant = autoscale_world()
    group = world.telemetry.create_group("web", tenant, MEMBER, 1, 3, 1)
    world.telemetry.create_alarm("cpu-high", "cpu_util", "avg", "gt", 0.8, 3, "web", "notify")
    member = group.members[0]
    # t1 fires; t3 re-crosses ok->alarm but sits inside the one-window
    # cooldown and must stay silent; t9 is a fresh transition after it
    values = {1: 0.9, 2: 0.1, 3: 2.4, 4: 0.1, 5: 0.1, 6: 0.1, 7: 0.9, 8: 0.9, 9: 0.9}
    fired_at = []
    for tick in range(1, 10):
        world.telemetry.record_metric(member, "cpu_util", values[tick], tick)
        for _ in world.telemetry.evaluate_alarms(tick):
            fired_at.append(tick)
    alarm = world.telemetry.alarms["cpu-high"]
    assert fired_at == [1, 9]
    assert alarm.state == "alarm"
    for a, b in zip(fired_at, fired_at[1:]):
        assert b - a >= 3


def test_alarm_may_target_a_single_resource():
    world, tenant = autoscale_world()
    instance = world.provider.launch_instance(tenant, MEMBER)
    world.telemetry.create_alarm("solo", "cpu_util", "max", "ge", 0.7, 2, instance.id, "notify")
    world.telemetry.record_metric(instance.id, "cpu_util", 0.7, 1)
    fired = world.telemetry.evaluate_alarms(1)
    assert [a.name for a in fired] == ["solo"]


def test_empty_window_is_insufficient_data():
    world, tenant = autoscale_world()
    world.telemetry.create_group("web", tenant, MEMBER, 1, 3, 1)
    world.telemetry.create_alarm("cpu-high", "cpu_util", "avg", "gt", 0.8, 3, "web", "notify")
    assert world.telemetry.evaluate_alarms(9) == []
    assert world.telemetry.alarms["cpu-high"].state == "insufficient_data"


def test_scale_out_launches_and_clamps():
    world, tenant = autoscale_world()
    group = world.telemetry.create_group("web", tenant, MEMBER, 1, 3, 1)
    assert world.telemetry.apply_scaling("web", "out") == 2
    assert len(group.members) == 2
    assert all(world.provider.instances[m].state == "ACTIVE" for m in group.members)
    assert world.telemetry.apply_scaling("web", "out") == 3
    assert world.telemetry.apply_scaling("web", "out") == 3  # clamped at max
    assert len(group.members) == 3


def test_scale_in_terminates_youngest_and_clamps():
    world, tenant = autoscale_world()
    group = world.telemetry.create_group("web", tenant, MEMBER, 1, 3, 2)
    youngest = group.members[-1]
    assert world.telemetry.apply_scaling("web", "in") == 1
    assert world.provider.instances[youngest].state == "DELETED"
    assert world.telemetry.apply_scaling("web", "in") == 1  # clamped at min
    assert len(group.members) == 1


def test_scale_out_without_capacity_keeps_desired():
    world, tenant = autoscale_world(hosts=[{"id": "host-1", "vcpus": 1, "ram_mib": 2048, "disk_gib": 20}])
    group = world.telemetry.create_group("web", tenant, MEMBER, 1, 3, 1)
    assert world.telemetry.apply_scaling("web", "out") == 1  # no room for a second
    assert len(group.members) == 1
    assert any(e["kind"] == "scale.blocked" for e in world.events)


def test_desired_always_clamped_under_random_scaling():
    world, tenant = autoscale_world()
    group = world.telemetry.create_group("web", tenant, MEMBER, 1, 3, 2)
    rng = random.Random(21)
    for _ in range(60):
        world.telemetry.apply_scaling("web", rng.choice(["out", "in"]))
        assert group.min_size <= group.desired <= group.max_size


def test_fault_injection_state_rules():
    world, tenant = autoscale_world()
    group = world.telemetry.create_group("web", tenant, MEMBER, 1, 3, 1)
    member = group.members[0]
    world.telemetry.inject_fault(member)
    assert world.provider.instances[member].state == "FAILED"
    with pytest.raises(ConflictError, match="not ACTIVE"):
        world.telemetry.inject_fault(member)


def test_healer_replaces_crashed_member_within_window():
    world, tenant = autoscale_world()
    world.telemetry.healer = HealerConfig(enabled=True, detect_interval=5, heal_window=20)
    group = world.telemetry.create_group("web", tenant, MEMBER, 1, 3, 2)
    world.advance_clock(12)
    victim = group.members[0]
    world.telemetry.inject_fault(victim)
    crash_tick = world.tick

    def active_count():
        return sum(1 for m in group.members if world.provider.instances[m].state == "ACTIVE")

    healed_at = None
    while world.tick < crash_tick + 20:
        world.advance_clock(1)
        if healed_at is None and active_count() == group.desired:
            healed_at = world.tick
    assert healed_at is not None and healed_at <= crash_tick + 20
    assert victim not in group.members
    assert world.provider.instances[victim].state == "DELETED"  # remnant removed
    assert any(e["kind"] == "heal.replace" for e in world.events)


def test_disabled_healer_leaves_failure_in_place():
    world, tenant = autoscale_world()
    group = world.telemetry.create_group("web", tenant, MEMBER, 1, 3, 2)
    victim = group.members[0]
    world.telemetry.inject_fault(victim)
    world.advance_clock(50)
    assert world.provider.instances[victim].state == "FAILED"
    assert victim in group.members


def test_healing_converges_under_fuzzed_fault_schedules():
    rng = random.Random(99)
    for case in range(10):
        world, tenant = autoscale_world(seed=1000 + case)
        world.telemetry.healer = HealerConfig(enabled=True, detect_interval=3, heal_window=12)
        group = world.telemetry.create_group("web", tenant, MEMBER, 1, 4, 3)
        for _ in range(rng.randrange(1, 6)):
            world.advance_clock(rng.randrange(1, 4))
            active = [m for m in group.members if world.provider.instances[m].state == "ACTIVE"]
            if active and rng.random() < 0.8:
                world.telemetry.inject_fault(rng.choice(active))
        # one fault-free heal window
        world.advance_clock(12)
        active = [m for m in group.members if world.provider.instances[m].state == "ACTIVE"]
        assert len(active) == group.desired


def test_synthetic_load_generator_is_deterministic():
    from minimano.telemetry import LoadGenerator

    def run():
        world, tenant = autoscale_world(seed=3)
        world.telemetry.create_group("web", tenant, MEMBER, 1, 3, 2)
        world.telemetry.add_generator(
            LoadGenerator(group_name="web", base=0.5, amplitude=0.3, period=10,
                          noise=0.05, seed=11)
        )
        world.advance_clock(15)
        return [(s.resource_id, s.metric, s.value, s.tick) for s in world.telemetry.samples]

    first = run()
    assert first == run()
    # one cpu_util sample per active member per tick
    assert len(first) == 2 * 15
    assert all(metric == "cpu_util" and 0.0 <= value <= 1.0 for _, metric, value, _ in first)


def test_same_tick_order_deadlines_then_alarms_then_healer():
    # a wait deadline, an alarm fire, and a heal all land on tick 10
    from conftest import make_env

    env = make_env()
    world = env.world
    tenant = env.tenant_id
    world.telemetry.healer = HealerConfig(enabled=True, detect_interval=10, heal_window=20)
    spec = {"image": "ubuntu_cloud14", "flavor": "m1.small", "networks": ["my_net1"]}
    group = world.telemetry.create_group("web", tenant, spec, 1, 3, 2)
    world.telemetry.create_alarm("cpu-high", "cpu_util", "avg", "gt", 0.8, 1, "web", "notify")
    world.telemetry.scheduled_metrics = [
        {"tick": 10, "group": "web", "metric": "cpu_util", "value": 0.9}
    ]
    from minimano.hot import parse_template

    gated = parse_template(
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  handle:\n"
        "    type: OS::Heat::WaitConditionHandle\n"
        "  gate:\n"
        "    type: OS::Heat::WaitCondition\n"
        "    properties:\n"
        "      handle: { get_resource: handle }\n"
        "      timeout: 10\n"
    )
    world.engine.create_stack("gated", gated, {}, token=env.token)
    world.telemetry.inject_fault(group.members[0])
    world.advance_clock(10)
    tick10 = [e["kind"] for e in world.events if e["tick"] == 10]
    assert "wait.timeout" in tick10 and "alarm.fire" in tick10 and "heal.replace" in tick10
    assert tick10.index("wait.timeout") < tick10.index("alarm.fire") < tick10.index("heal.replace")


def test_identical_inputs_produce_identical_event_logs():
    def run():
        world, tenant = autoscale_world(seed=7)
        world.telemetry.healer = HealerConfig(enabled=True, detect_interval=5, heal_window=20)
        group = world.telemetry.create_group("web", tenant, MEMBER, 1, 3, 1)
        world.telemetry.create_alarm("cpu-high", "cpu_util", "avg", "gt", 0.8, 3, "web", "scale_out")
        world.telemetry.scheduled_metrics = [
            {"tick": t, "group": "web", "metric": "cpu_util", "value": 0.9} for t in range(1, 8)
        ]
        world.telemetry.scheduled_faults = [{"tick": 12, "group": "web", "member_index": 0}]
        world.advance_clock(25)
        return world.events

    assert run() == run()
