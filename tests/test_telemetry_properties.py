"""The telemetry window index, against a brute-force scan of the sample
columns, and the alarm pass, against one that reads each alarm's window
alone, under generated samples and alarms."""

import json

import pytest

from minimano.telemetry import AGGREGATES, COMPARISONS, LoadGenerator
from minimano.world import World
from test_telemetry import MEMBER, autoscale_world, brute_force_window, sample_rows

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
@hypothesis.given(
    recorded=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(["cpu_util", "mem"]),
                                st.integers(-3, 12)), max_size=30),
    tick=st.integers(-5, 15), window=st.integers(1, 20))
def test_the_index_replayed_after_a_load_matches_a_brute_force_scan(recorded, tick, window):
    """A load builds no index; the first window read replays the samples
    into one, which a later sample then joins."""
    world, tenant = autoscale_world()
    members = [world.provider.launch_instance(tenant, MEMBER).id for _ in range(3)]
    for index, (member, metric, at) in enumerate(recorded):
        world.telemetry.record_metric(members[member], metric, index, at)
    loaded = World.from_snapshot(json.loads(json.dumps(world.to_snapshot())))
    assert "_series" not in loaded.telemetry.__dict__
    for extra in (None, (members[0], "cpu_util", 99.0, tick)):
        if extra:
            loaded.telemetry.record_metric(*extra)
        samples = loaded.telemetry.samples
        for ids in ({members[0]}, set(members[1:]), set(members)):
            for metric in ("cpu_util", "mem"):
                got = loaded.telemetry.window_samples(ids, metric, tick, window)
                assert got == brute_force_window(samples, ids, metric, tick, window)


def generator_world():
    """A world whose group "web" of two members runs a cpu_util generator,
    with one more instance outside the group; and the three ids."""
    world, tenant = autoscale_world()
    group = world.telemetry.create_group("web", tenant, MEMBER, 2, 2, 2)
    world.telemetry.generators.append(LoadGenerator(group_name="web", period=5, seed=3))
    return world, [*group.members, world.provider.launch_instance(tenant, MEMBER).id]


def assert_windows_match(telemetry, members, ticks, windows):
    for ids in ({members[0]}, set(members[1:]), set(members)):
        for metric in ("cpu_util", "mem"):
            for tick in ticks:
                for window in windows:
                    assert telemetry.window_samples(ids, metric, tick, window) == \
                        brute_force_window(telemetry.samples, ids, metric, tick, window)


# a step: record a sample on a member, of a metric, at a tick that may be
# before, at or after the current one; or advance the clock one tick
STEPS = st.lists(st.one_of(
    st.tuples(st.integers(0, 2), st.sampled_from(["cpu_util", "mem"]), st.integers(-3, 12)),
    st.none()), max_size=40)


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
@hypothesis.given(steps=STEPS)
def test_the_index_kept_as_samples_come_matches_a_brute_force_scan(steps):
    """Once built, the index takes each sample as it comes: one recorded
    at a tick before the latest indexed (the insert path), at a later one,
    and a generator's, whose tick falls before the latest once a sample
    was recorded ahead of the clock."""
    world, members = generator_world()
    telemetry = world.telemetry
    telemetry.window_samples(members, "cpu_util", 0, 1)  # builds the index
    for step in steps:
        if step is None:
            world.advance_clock(1)
        else:
            member, metric, at = step
            telemetry.record_metric(members[member], metric, len(telemetry.samples), at)
    assert "_series" in telemetry.__dict__
    assert_windows_match(telemetry, members, range(-4, max(world.tick, 12) + 2), (1, 3, 20))


@hypothesis.settings(derandomize=True, max_examples=30, deadline=None)
@hypothesis.given(before=st.integers(1, 12), after=st.integers(1, 12),
                  recorded=st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 15)),
                                    max_size=8))
def test_a_window_across_a_save_and_load_equals_the_one_in_memory(before, after, recorded):
    """A world saved and loaded after `before` ticks, then run on with the
    one that stayed in memory, reads each window as that one does, those
    that reach back across the load included."""
    world, members = generator_world()
    world.advance_clock(before)
    for member, at in recorded:
        world.telemetry.record_metric(members[member], "cpu_util", 0.5, at)
    world.telemetry.window_samples(members, "cpu_util", 0, 1)  # builds the index in memory
    loaded = World.from_snapshot(json.loads(json.dumps(world.to_snapshot())))
    for w in (world, loaded):
        w.advance_clock(after)
    assert sample_rows(loaded.telemetry.samples) == sample_rows(world.telemetry.samples)
    for ids in ({members[0]}, set(members[1:]), set(members)):
        for tick in range(-4, world.tick + 2):
            for window in (1, after + 1, after + 2, world.tick + 5):
                got = loaded.telemetry.window_samples(ids, "cpu_util", tick, window)
                assert got == world.telemetry.window_samples(ids, "cpu_util", tick, window)
    assert_windows_match(loaded.telemetry, members, range(-4, world.tick + 2), (1, after + 2))


def brute_force_pass(telemetry, tick):
    """The oracle of one alarm pass: each alarm reads its own window alone,
    through `brute_force_window`, then acts as `evaluate_alarms` documents."""
    fired = []
    for alarm in telemetry.alarms.values():
        group = telemetry.groups.get(alarm.target)
        ids = set(group.members) if group is not None else {alarm.target}
        values = [telemetry.samples.value[p] for p in
                  brute_force_window(telemetry.samples, ids, alarm.metric, tick, alarm.window)]
        if not values:
            alarm.state = "insufficient_data"
            continue
        aggregate = AGGREGATES[alarm.aggregate](values)
        previous = alarm.state
        alarm.state = "alarm" if COMPARISONS[alarm.comparison](aggregate, alarm.threshold) else "ok"
        if alarm.state != "alarm" or previous == "alarm":
            continue
        if alarm.last_fire_tick is not None and tick - alarm.last_fire_tick < alarm.window:
            continue
        alarm.last_fire_tick = tick
        fired.append(alarm)
        telemetry.core.emit(
            "alarm.fire", alarm=alarm.name, metric=alarm.metric, aggregate=round(aggregate, 6),
            threshold=alarm.threshold, target=alarm.target, action=alarm.action,
        )
        if alarm.action != "notify" and group is not None:
            telemetry.apply_scaling(group.name, alarm.action[len("scale_"):])
    return fired


METRICS = st.sampled_from(["cpu_util", "mem"])
THRESHOLDS = st.sampled_from([0.25, 0.5, 0.75])
# a group: its desired size, then its twin scaling alarms: one metric and
# one window, the scale-in alarm first or not, and each alarm's aggregate
# and threshold; a value between a scale-out threshold below a scale-in
# threshold fires both in one pass
GROUPS = st.lists(st.tuples(
    st.integers(1, 2), METRICS, st.integers(1, 4), st.booleans(),
    st.sampled_from(sorted(AGGREGATES)), st.sampled_from([0.25, 0.5]),
    st.sampled_from(sorted(AGGREGATES)), st.sampled_from([0.5, 0.75])), min_size=1, max_size=3)
# an alarm on a resource (a group's first member or a lone instance) or a
# `notify` alarm on a group: (group index or None, metric, window,
# aggregate, comparison, threshold, action)
OTHERS = st.lists(st.tuples(
    st.one_of(st.none(), st.integers(0, 2)), METRICS, st.integers(1, 4),
    st.sampled_from(sorted(AGGREGATES)), st.sampled_from(sorted(COMPARISONS)), THRESHOLDS,
    st.sampled_from(["notify", "scale_out", "scale_in"])), max_size=4)
# (tick, target index into the live instances, metric, value)
SAMPLES = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 20), METRICS,
                             st.sampled_from([0.1, 0.4, 0.6, 0.9])), min_size=20, max_size=60)


def alarm_world(groups, others):
    """A world of `groups` with their twin alarms and of the `others` alarms;
    each call with the same arguments builds the same world."""
    world, tenant = autoscale_world()  # one host: 8 members at most, so scale-outs block
    lone = world.provider.launch_instance(tenant, MEMBER).id
    telemetry = world.telemetry
    for index, (desired, metric, window, in_first, out_agg, out_at, in_agg, in_at) in \
            enumerate(groups):
        name = f"g{index}"
        telemetry.create_group(name, tenant, MEMBER, 0, 4, desired)
        twins = [(f"{name}-out", out_agg, "gt", out_at, "scale_out"),
                 (f"{name}-in", in_agg, "lt", in_at, "scale_in")]
        for alarm, aggregate, comparison, threshold, action in twins[::-1] if in_first else twins:
            telemetry.create_alarm(alarm, metric, aggregate, comparison, threshold, window, name,
                                   action)
    for index, (group, metric, window, aggregate, comparison, threshold, action) in \
            enumerate(others):
        if group is None or group >= len(groups):
            target = lone
        elif action == "notify":
            target = f"g{group}"
        else:
            target = telemetry.groups[f"g{group}"].members[0]
        telemetry.create_alarm(f"other-{index}", metric, aggregate, comparison, threshold, window,
                               target, action)
    return world


def live_instances(world):
    return [i.id for i in world.provider.instances.values() if i.state != "DELETED"]


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(groups=GROUPS, others=OTHERS, samples=SAMPLES)
def test_an_alarm_pass_matches_one_that_reads_each_window_alone(groups, others, samples):
    """Twin alarms share one window read in a pass; the fired alarms, each
    alarm's state and last fire, the members and the event log are those
    of a pass that reads every alarm's window alone."""
    world, oracle = alarm_world(groups, others), alarm_world(groups, others)
    for tick in range(1, 9):
        for w in (world, oracle):
            w.tick = tick
            for at, target, metric, value in samples:
                if at == tick:
                    live = live_instances(w)
                    w.telemetry.record_metric(live[target % len(live)], metric, value)
        fired = world.telemetry.evaluate_alarms(tick)
        expected = brute_force_pass(oracle.telemetry, tick)
        assert [a.name for a in fired] == [a.name for a in expected]
        assert [(a.name, a.state, a.last_fire_tick) for a in world.telemetry.alarms.values()] == \
            [(a.name, a.state, a.last_fire_tick) for a in oracle.telemetry.alarms.values()]
        assert {name: g.members for name, g in world.telemetry.groups.items()} == \
            {name: g.members for name, g in oracle.telemetry.groups.items()}
    assert world.events == oracle.events
