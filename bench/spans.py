"""In-memory span recorder for the traced benchmark run.

The recorder wraps minimano's public functions where their callers look
them up: `engine` does `from .hot import parse_template`, so the wrapper
must replace `minimano.engine.parse_template`, not only
`minimano.hot.parse_template`. Methods are wrapped on their class, which
every caller reaches through `self.method`. `install()` applies every
patch in `PATCHES` and `uninstall()` puts the originals back.

A span is (name, start_ns, end_ns, parent id, phase), where the phase
("setup", "op" or "check") is what the benchmark had set in
`Recorder.phase` when the span opened. Spans stay in memory and are
written as JSONL by `dump()`. Self time is a span's duration minus the
durations of its direct children. Besides spans, observers record sampled
quantities (`values`), such as the registry size seen at each launch.
"""

import functools
import importlib
import json
import os
import threading
from array import array
from collections import defaultdict
from time import perf_counter_ns


class Recorder:
    def __init__(self):
        self.phase = "op"
        # one span per index; flat arrays keep the recorder from adding
        # objects for the garbage collector to traverse
        self.names = []
        self.phases = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")  # -1 for a root span
        self.values = defaultdict(list)  # (phase, name) -> samples
        self._stack = []
        self._undo = []
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------------

    def _push(self, name, parent):
        sid = len(self.names)
        self.names.append(name)
        self.phases.append(self.phase)
        self.parents.append(parent)
        self.ends.append(0)
        self.starts.append(perf_counter_ns())
        return sid

    def wrap(self, fn, name, before=None, after=None):
        """`fn` recorded as span `name`. `before(args)` runs first and its
        result goes to `after(rec, args, result, ok, token)` at the end."""
        rec = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            sid = rec._push(name, stack[-1] if stack else -1)
            stack.append(sid)
            ok = False
            result = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                rec.ends[sid] = perf_counter_ns()
                stack.pop()
                if after:
                    after(rec, args, result, ok, token)

        return wrapper

    def note(self, name, value):
        self.values[(self.phase, name)].append(value)

    def add(self, name, start_ns, end_ns) -> int:
        """Record a root span timed by the caller; safe from several threads."""
        with self._lock:
            sid = self._push(name, -1)
            self.starts[sid] = start_ns
            self.ends[sid] = end_ns
            return sid

    def open(self, name) -> int:
        """Start a span that encloses what runs until `close(sid)`."""
        sid = self._push(name, self._stack[-1] if self._stack else -1)
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.ends[sid] = perf_counter_ns()
        self._stack.pop()

    # -- patching -------------------------------------------------------------------

    def patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        for module_name, attr_path, name, hooks in PATCHES:
            owner = importlib.import_module(module_name)
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(raw.__func__, name, *hooks))
            else:
                replacement = self.wrap(raw, name, *hooks)
            self.patch(owner, attr, replacement)
        for install in SPECIAL:
            install(self)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------------

    def rows(self):
        for i, name in enumerate(self.names):
            yield {"id": i, "name": name, "start_ns": self.starts[i], "end_ns": self.ends[i],
                   "parent": None if self.parents[i] < 0 else self.parents[i],
                   "phase": self.phases[i]}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows():
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
            values = [[phase, name, series] for (phase, name), series in self.values.items()]
            fh.write(json.dumps({"values": values}, separators=(",", ":")) + "\n")

    def merge_file(self, path, parent):
        """Fold a child's dump into this recorder, hanging its root spans
        under span `parent`."""
        with open(path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        with self._lock:
            base = len(self.names)
            for row in rows:
                if "values" in row:
                    for phase, name, series in row["values"]:
                        self.values[(phase, name)].extend(series)
                    continue
                own = row["parent"]
                self.names.append(row["name"])
                self.phases.append(row["phase"])
                self.parents.append(parent if own is None else base + own)
                self.starts.append(row["start_ns"])
                self.ends.append(row["end_ns"])

    def totals(self):
        """(phase, name) -> [calls, inclusive_ns, self_ns]."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        children = defaultdict(int)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                children[parent] += duration
        out = defaultdict(lambda: [0, 0, 0])
        for i, duration in enumerate(durations):
            row = out[(self.phases[i], self.names[i])]
            row[0] += 1
            row[1] += duration
            row[2] += duration - children[i]
        return out


# ---------------------------------------------------------------------------
# what gets wrapped

def _instances_before(args):
    return len(args[0].instances)


def _after_launch(rec, args, result, ok, before):
    rec.note("nfvi.records_per_launch", before)
    rec.note("nfvi.launch_failed", 0 if ok else 1)


def _events_before(args):
    return len(args[0].events)


def _after_advance(rec, args, result, ok, before):
    rec.note("world.events_emitted", len(args[0].events) - before)


def _after_window(rec, args, result, ok, token):
    if ok:
        rec.note("telemetry.samples_scanned", len(args[0].samples))
        rec.note("telemetry.samples_matched", len(result))


def _after_yamlite(rec, args, result, ok, token):
    rec.note("yamlite.bytes_parsed", len(args[0].encode("utf-8")))


def _after_plan(rec, args, result, ok, token):
    if ok:
        rec.note("plan.waves", len(result.waves))


def _after_create(rec, args, result, ok, token):
    if ok:
        rec.note("engine.resources_deployed",
                 sum(1 for r in result.records.values() if r.state == "COMPLETE"))


def _after_save(rec, args, result, ok, token):
    if ok:
        rec.note("statefile.bytes_written", os.path.getsize(args[1]))


# (module, attribute in it, span name, (before, after) hooks)
PATCHES = [
    # names bound by `from ... import` in the modules that call them
    ("minimano.cli", "load_world", "statefile.load", ()),
    ("minimano.cli", "save_world", "statefile.save", (None, _after_save)),
    ("minimano.cli", "parse_template", "hot.parse_template", ()),
    ("minimano.cli", "validate_template", "hot.validate", ()),
    ("minimano.engine", "parse_template", "hot.parse_template", ()),
    ("minimano.engine", "validate_template", "hot.validate", ()),
    ("minimano.engine", "serialize_template", "hot.serialize", ()),
    ("minimano.engine", "evaluate_expr", "hot.evaluate", ()),
    ("minimano.engine", "build_plan", "plan.build", (None, _after_plan)),
    # module attributes looked up at call time (`hot` calls `yamlite.parse`,
    # the benchmark and `cli` call `scenario_mod.build_world` / `hot.parse_template`)
    ("minimano.hot", "parse_template", "hot.parse_template", ()),
    ("minimano.yamlite", "parse", "yamlite.parse", (None, _after_yamlite)),
    ("minimano.scenario", "build_world", "scenario.build_world", ()),
    # methods, reached through the class by every caller
    ("minimano.world", "World.from_snapshot", "world.from_snapshot", ()),
    ("minimano.world", "World.to_snapshot", "world.to_snapshot", ()),
    ("minimano.world", "World.advance_clock", "world.advance_clock",
     (_events_before, _after_advance)),
    ("minimano.engine", "StackEngine.load_dict", "engine.load_dict", ()),
    ("minimano.engine", "StackEngine.create_stack", "engine.create_stack", (None, _after_create)),
    ("minimano.engine", "StackEngine.delete_stack", "engine.delete_stack", ()),
    ("minimano.engine", "StackEngine.deliver_signal", "engine.deliver_signal", ()),
    ("minimano.engine", "StackEngine.process_deadlines", "engine.process_deadlines", ()),
    ("minimano.nfvi", "CloudProvider.launch_instance", "nfvi.launch",
     (_instances_before, _after_launch)),
    ("minimano.nfvi", "CloudProvider.allocate_fixed_ip", "nfvi.allocate_fixed_ip", ()),
    ("minimano.nfvi", "CloudProvider.terminate_instance", "nfvi.terminate", ()),
    ("minimano.nfvi", "CloudProvider.check_connectivity", "nfvi.check_connectivity", ()),
    ("minimano.telemetry", "TelemetryService.on_tick", "telemetry.on_tick", ()),
    ("minimano.telemetry", "TelemetryService.run_scheduled", "telemetry.run_scheduled", ()),
    ("minimano.telemetry", "TelemetryService.evaluate_alarms", "telemetry.evaluate_alarms", ()),
    ("minimano.telemetry", "TelemetryService.window_samples", "telemetry.window_samples",
     (None, _after_window)),
    ("minimano.telemetry", "TelemetryService.healer_scan", "telemetry.healer_scan", ()),
    ("minimano.telemetry", "TelemetryService.load_dict", "telemetry.load_dict", ()),
    ("minimano.identity", "IdentityService.require", "identity.require", ()),
]


class _Held:
    def __init__(self, cm):
        self.cm = cm

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return self.cm.__exit__(*exc)


def _patch_lock(rec):
    import minimano.cli as cli

    original = cli.locked_state
    enter = rec.wrap(lambda cm: cm.__enter__(), "statefile.lock_wait")

    def locked_state(path):
        cm = original(path)
        enter(cm)
        return _Held(cm)

    rec.patch(cli, "locked_state", locked_state)


class _JsonProxy:
    """`statefile` calls `json.load` and `json.dumps` on the module object."""

    def __init__(self, rec, module):
        self._module = module
        self.load = rec.wrap(module.load, "world.json_decode")
        self.dumps = rec.wrap(module.dumps, "world.json_encode")

    def __getattr__(self, name):
        return getattr(self._module, name)


def _patch_json(rec):
    import minimano.statefile as statefile

    rec.patch(statefile, "json", _JsonProxy(rec, statefile.json))


def _patch_argparse(rec):
    """`cli.main` builds its parser and parses argv; both count as
    argument parsing."""
    import minimano.cli as cli

    original = cli.build_parser

    def build_parser():
        parser = original()
        parser.parse_args = rec.wrap(parser.parse_args, "cli.parse_args")
        return parser

    rec.patch(cli, "build_parser", rec.wrap(build_parser, "cli.parse_args"))


SPECIAL = [_patch_lock, _patch_json, _patch_argparse]
