"""Informational scaling report (not gated, not a workload).

    python3 bench/scaling.py [--seed N]

Sweeps `deploy` over the number of servers in one stack, each created on
a fresh world, and `autoscale` over the number of ticks, and prints the
median time of REPS runs of each point and the log-log slope of each
series. A slope near 1 means cost linear in the input size; 2 means
quadratic. The slope carries across machines better than absolute times
do.
"""

import argparse
import math
import os
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import gen  # noqa: E402
import workloads  # noqa: E402
from minimano import hot  # noqa: E402
from minimano.world import World  # noqa: E402

SERVERS = [50, 100, 200, 400, 800]
TICKS = [100, 200, 400, 800, 1600]
REPS = 3


def slope(points):
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def time_deploy(seed, servers):
    world = World(seed=seed, hosts=gen.hosts(4, 256))
    _, token = workloads.provision(world, gen.NETWORKS)
    source = gen.stack_template(seed, 0, servers)
    t0 = time.perf_counter()
    stack = world.engine.create_stack("s", hot.parse_template(source), token=token)
    elapsed = time.perf_counter() - t0
    if stack.status != "CREATE_COMPLETE":
        raise SystemExit(f"deploy of {servers} servers ended {stack.status}")
    return elapsed


def time_autoscale(seed, ticks):
    res = workloads.Result()
    workloads.drive_scenario(gen.autoscale_scenario(seed, ticks), res)
    return sum(res.op_ms) / 1e3


def series(label, unit, sizes, measure):
    points = []
    for size in sizes:
        elapsed = statistics.median(measure(size) for _ in range(REPS))
        points.append((size, elapsed))
        print(f"  {label} {size:5d} {unit}: {elapsed * 1e3:10.1f} ms", flush=True)
    print(f"  {label} log-log slope: {slope(points):.2f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print("deploy: parse + create of one stack on a fresh world")
    series("deploy", "servers", SERVERS, lambda n: time_deploy(args.seed, n))
    print("autoscale: advance_clock(1) per tick, summed")
    series("autoscale", "ticks", TICKS, lambda n: time_autoscale(args.seed, n))


if __name__ == "__main__":
    main()
