"""The telemetry window index, against a brute-force scan, under
generated samples."""

import json

import pytest

from minimano.world import World
from test_telemetry import MEMBER, autoscale_world, brute_force_window

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
                assert [(s.resource_id, s.metric, s.value, s.tick) for s in got] == \
                    brute_force_window(samples, ids, metric, tick, window)
