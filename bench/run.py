"""minimano benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {deploy,autoscale,operator} --seed N \
        --seconds S --trace {0,1}

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
the workload untraced for half the time, then with the span recorder for
the other half, and prints the per-layer metrics with their sample counts
and the tracing overhead. Human-readable lines come first; the last line
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when every output check passed.

The run uses the package under src/ of the checkout it sits in, never an
installed copy, and exits with code 2 before measuring anything when
src/, templates/ or tests/data/ is missing.

BENCHMARK.json gates autoscale and operator only. deploy runs the same
way but is not gated: on a shared virtual machine its in-process
create+delete loop drifted by half between two sets of runs minutes
apart, more than the largest bound allows.
"""

import argparse
import gc
import json
import os
import shutil
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
NEEDED = [os.path.join(SRC, "minimano", "__init__.py"), os.path.join(ROOT, "templates"),
          os.path.join(ROOT, "tests", "data")]

END_TO_END = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("state_kib", "KiB"),
]

# (metric, unit, how, source). Unless `how` says otherwise a metric covers
# the spans of timed operations only (phase "op").
#   ms        mean inclusive milliseconds per call of the span
#   self_ms   mean self milliseconds per call (children subtracted)
#   per_call  total milliseconds of span source[0] per call of span source[1]
#   calls     calls of the span per operation
#   sum       noted values summed, per operation
#   mean      mean of the noted values
#   ratio     sum of noted values source[0] over sum of source[1]
PER_LAYER = [
    ("cli.import_ms", "ms", "ms", "cli.import"),
    ("cli.parse_args_ms", "ms", "per_call", ("cli.parse_args", "cli.main")),
    ("statefile.lock_wait_ms", "ms", "ms", "statefile.lock_wait"),
    ("statefile.load_ms", "ms", "ms", "statefile.load"),
    ("statefile.save_ms", "ms", "ms", "statefile.save"),
    ("statefile.bytes_written", "B", "mean", "statefile.bytes_written"),
    ("world.from_snapshot_ms", "ms", "ms", "world.from_snapshot"),
    ("world.to_snapshot_ms", "ms", "ms", "world.to_snapshot"),
    ("world.json_decode_ms", "ms", "ms", "world.json_decode"),
    ("world.json_encode_ms", "ms", "ms", "world.json_encode"),
    ("world.advance_clock_ms", "ms", "ms", "world.advance_clock"),
    ("world.events_emitted", "count/op", "sum", "world.events_emitted"),
    ("engine.load_dict_ms", "ms", "ms", "engine.load_dict"),
    ("engine.create_stack_self_ms", "ms", "self_ms", "engine.create_stack"),
    ("engine.delete_stack_ms", "ms", "ms", "engine.delete_stack"),
    ("engine.resources_deployed", "count/op", "sum", "engine.resources_deployed"),
    ("engine.signals_delivered", "count/op", "calls", "engine.deliver_signal"),
    ("engine.process_deadlines_ms", "ms", "ms", "engine.process_deadlines"),
    ("hot.parse_template_self_ms", "ms", "self_ms", "hot.parse_template"),
    ("hot.validate_ms", "ms", "ms", "hot.validate"),
    ("hot.serialize_ms", "ms", "ms", "hot.serialize"),
    ("hot.evaluate_calls", "count/op", "calls", "hot.evaluate"),
    ("hot.evaluate_ms", "ms", "ms", "hot.evaluate"),
    ("yamlite.parse_ms", "ms", "ms", "yamlite.parse"),
    ("yamlite.bytes_parsed", "B", "mean", "yamlite.bytes_parsed"),
    ("plan.build_ms", "ms", "ms", "plan.build"),
    ("plan.waves", "count", "mean", "plan.waves"),
    ("nfvi.launch_self_ms", "ms", "self_ms", "nfvi.launch"),
    ("nfvi.launches", "count/op", "calls", "nfvi.launch"),
    ("nfvi.allocate_fixed_ip_ms", "ms", "ms", "nfvi.allocate_fixed_ip"),
    ("nfvi.terminate_ms", "ms", "ms", "nfvi.terminate"),
    ("nfvi.launch_failed", "count/op", "sum", "nfvi.launch_failed"),
    ("nfvi.records_per_launch", "count", "mean", "nfvi.records_per_launch"),
    ("nfvi.live_ratio", "ratio", "mean", "nfvi.live_ratio"),
    ("nfvi.check_connectivity_ms", "ms", "ms", "nfvi.check_connectivity"),
    ("telemetry.on_tick_ms", "ms", "ms", "telemetry.on_tick"),
    ("telemetry.run_scheduled_ms", "ms", "ms", "telemetry.run_scheduled"),
    ("telemetry.evaluate_alarms_ms", "ms", "ms", "telemetry.evaluate_alarms"),
    ("telemetry.window_samples_ms", "ms", "ms", "telemetry.window_samples"),
    ("telemetry.window_calls", "count/op", "calls", "telemetry.window_samples"),
    ("telemetry.samples_scanned", "count", "mean", "telemetry.samples_scanned"),
    ("telemetry.samples_matched", "count", "mean", "telemetry.samples_matched"),
    ("telemetry.window_hit_ratio", "ratio", "ratio",
     ("telemetry.samples_matched", "telemetry.samples_scanned")),
    ("telemetry.healer_scan_ms", "ms", "ms", "telemetry.healer_scan"),
    ("telemetry.load_dict_ms", "ms", "ms", "telemetry.load_dict"),
    ("identity.require_ms", "ms", "ms", "identity.require"),
    ("identity.require_calls", "count/op", "calls", "identity.require"),
    ("scenario.build_world_ms", "ms", "setup_ms", "scenario.build_world"),
]


def percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res):
    return {
        "setup_s": statistics.median(res.setup_s),
        "op_ms_p50": statistics.median(res.op_ms),
        "op_ms_p90": percentile(res.op_ms, 90),
        "ops_per_s": res.units / res.busy_s if res.busy_s else 0.0,
        "peak_rss_mib": res.peak_rss_kib / 1024,
        "state_kib": res.state_bytes / 1024,
    }


def per_layer(rec, ops):
    totals = rec.totals()
    out = {}
    for name, unit, how, source in PER_LAYER:
        if how == "setup_ms":
            calls, incl, _ = totals.get(("setup", source), (0, 0, 0))
            value, samples = (incl / calls / 1e6 if calls else 0.0), calls
        elif how in ("ms", "self_ms", "calls"):
            calls, incl, own = totals.get(("op", source), (0, 0, 0))
            samples = calls
            if how == "calls":
                value = calls / ops
            else:
                value = (incl if how == "ms" else own) / calls / 1e6 if calls else 0.0
        elif how == "per_call":
            calls, incl, _ = totals.get(("op", source[0]), (0, 0, 0))
            per = totals.get(("op", source[1]), (0, 0, 0))[0]
            value, samples = (incl / per / 1e6 if per else 0.0), per
        elif how == "ratio":
            top = rec.values.get(("op", source[0]), [])
            bottom = sum(rec.values.get(("op", source[1]), []))
            value, samples = (sum(top) / bottom if bottom else 0.0), len(top)
        else:
            series = rec.values.get(("op", source), [])
            samples = len(series)
            if how == "sum":
                value = sum(series) / ops
            else:
                value = sum(series) / samples if samples else 0.0
        out[name] = (value, unit, samples)
    return out


def run(workload, seed, seconds, rec=None, carry=None):
    """Returns the result and, for operator, its set-up to `carry` into
    the traced half of a --trace 1 run."""
    import workloads

    gc.collect()
    if workload == "deploy":
        return workloads.run_deploy(seed, seconds, rec), None
    if workload == "autoscale":
        return workloads.run_autoscale(seed, seconds, rec), None
    if carry is None:
        run_dir = os.path.join(OUT, f"operator-{os.getpid()}")
        os.makedirs(run_dir, exist_ok=True)
        return workloads.run_operator(seed, seconds, rec, run_dir=run_dir)
    return workloads.run_operator(seed, seconds, rec, op=carry)


def report(args, results, metrics, counts=None):
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"episodes {sum(r.episodes for r in results)}  attempted {attempted}  "
          f"failed {failed}  error_rate {failed / max(1, attempted):.4f}")
    for name, (value, unit) in metrics.items():
        samples = f"  ({counts[name]} samples)" if counts else ""
        print(f"  {name:32s} {value:14.6f} {unit}{samples}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["deploy", "autoscale", "operator"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    missing = [path for path in NEEDED if not os.path.exists(path)]
    if missing:
        print(f"error: not a minimano checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH]
    import minimano
    if not os.path.abspath(minimano.__file__).startswith(SRC + os.sep):
        print(f"error: imported minimano from {minimano.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    carry = None
    try:
        if not args.trace:
            res, carry = run(args.workload, args.seed, args.seconds)
            units = dict(END_TO_END)
            extra = {}
            if res.read_ms:
                extra = {
                    "read_ms_p50": statistics.median(res.read_ms),
                    "read_ms_p90": percentile(res.read_ms, 90),
                    "write_ms_p50": statistics.median(res.write_ms),
                    "write_ms_p90": percentile(res.write_ms, 90),
                }
                print("  ".join(f"{k} {v:.3f} ms" for k, v in extra.items()))
            print(f"samples: setup {len(res.setup_s)}  ops {len(res.op_ms)}  "
                  f"reads {len(res.read_ms)}  writes {len(res.write_ms)}")
            metrics = {k: (v, units[k]) for k, v in end_to_end(res).items()}
            return report(args, [res], metrics)

        from spans import Recorder

        plain, carry = run(args.workload, args.seed, args.seconds / 2)
        rec = Recorder()
        if args.workload != "operator":
            rec.install()
        try:
            traced, carry = run(args.workload, args.seed, args.seconds / 2, rec, carry)
        finally:
            rec.uninstall()
        rec.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        layers = per_layer(rec, max(1, len(traced.op_ms)))
        base = statistics.median(plain.op_ms)
        over = statistics.median(traced.op_ms) - base
        layers["trace.overhead_ms"] = (over, "ms", len(traced.op_ms))
        layers["trace.overhead_pct"] = (100 * over / base, "%", len(traced.op_ms))
        metrics = {k: (v, u) for k, (v, u, _) in layers.items()}
        return report(args, [plain, traced], metrics, {k: n for k, (_, _, n) in layers.items()})
    finally:
        if carry is not None:
            shutil.rmtree(carry.run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
