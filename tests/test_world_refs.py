"""A dropped World is freed by reference counting alone.

Subsystems refer back to the World weakly, so nothing a World builds
forms a reference cycle and a World never waits for the cycle
collector. A new cycle would make this test fail.
"""

import gc
import weakref

from conftest import make_env


def run_world():
    env = make_env()
    stack = env.world.engine.create_stack("demo", env.parse("example3.yaml"), {}, token=env.token)
    assert stack.status == "CREATE_COMPLETE"
    env.world.advance_clock(5)
    return weakref.ref(env.world)


def test_dropped_world_is_freed_without_the_cycle_collector():
    run_world()  # first use of a code path may leave one-off garbage (imports, caches)
    gc.collect()
    gc.disable()
    try:
        ref = run_world()
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
