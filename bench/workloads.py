"""The three benchmark workloads.

Each workload runs whole episodes until its time is up (an episode that
has started always finishes, so every run pools complete episodes and
per-operation timings do not depend on where the clock ran out). An
episode starts from a freshly set-up world, so its inputs, its output
checks and its final state depend only on the seed.

- deploy: one in-process caller; an operation is parse_template +
  StackEngine.create_stack of a generated 100-server stack, then
  delete_stack of it, in a world pre-aged with DELETED tombstones.
- autoscale: one in-process caller; an operation is World.advance_clock(1)
  on a world built by scenario.build_world.
- operator: two closed-loop CLI clients, each operation a subprocess of
  `python -m minimano.cli` against one state file; client W writes and
  client R reads.
"""

import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import gen
from minimano import hot, scenario, statefile
from minimano.errors import MiniManoError
from minimano.world import World

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TEMPLATES = os.path.join(ROOT, "templates")
GOLDEN_SCENARIO = os.path.join(ROOT, "tests", "data", "autonomic_scenario.json")
GOLDEN_EVENTS = os.path.join(ROOT, "tests", "data", "autonomic_golden_events.jsonl")

DEPLOY_TOMBSTONES = 1000  # DELETED instances in the world before the first create
DEPLOY_STEPS = 10  # create+delete operations per episode
DEPLOY_VARIANTS = 4  # distinct generated templates per seed, used in turn

AUTOSCALE_TICKS = 800
AUTOSCALE_SETUPS = 5  # build_world calls per episode, for a steadier setup_s

OPERATOR_SETUPS = 5
CLI_TIMEOUT_S = 60

# sha256 of the autoscale event log (AUTOSCALE_TICKS ticks) per seed,
# recorded from the package before any optimisation; seed 1 is run.py's
# default. A seed without an entry is only checked for determinism
# between episodes.
AUTOSCALE_DIGESTS = {
    0: "daeaa6e0e4354b168bc0a5a386eca6f7e4bb37e6c8b89e1227298f001dd4dd7b",
    1: "34c5ee798e74e76b4cf20de2a56b9ae3c6c774b7515e39389b35a73d42a3a805",
    2: "00829f21f35a5c504a328fed58a31b9f42f47606db85a2abf388113ba2986e9c",
    3: "cfd5fefae2025aa26ae49748618b8bcf54739bac1b716d77dfbd0eb67808c139",
    4: "910b23cf0cef4b4aaefd48bcb308d9500c19c8cc78ddbe7d1c3640ebcbfa19eb",
    5: "1d33f8103f4cf33a4c1e137105685d3ee97767380f6dbb69fac4f493e7b2eb85",
    6: "43bde3c4d9adaf99c58687d20a980dbebc8daeb701c9dae9dd1ab9be53e1661a",
    7: "d03869baf76ce15ad8f69afcb1b20a17f4ba31148788ef9a7fabead4da30de2e",
    8: "2c5674164110452c23524b500f45a0476730dbaaba8674754ffcd6b88000f6ff",
    9: "4084c3fa0501890afce9a28e2125b0a05d5c750ce6d0d416720c294aa2a29ccb",
    10: "16776d8bc845ec67885c69b5c24c238b3298fd6e62f8b065c5781ebce3b75071",
    11: "587bdca187ff850144ee949ceb8212efb30e5eeca62a12338f4e37ba97eef6d8",
    12: "2ca99a1be743382604d7b4457d4e88166794936abef1a3fe1be08e2d1fc3da98",
    13: "b3c428af793b0e960c7e15b9468d1803fdfd22a43a8c168cf6fc5aa3360652d7",
    14: "4e5b822771aea64dd402e8c36319802ed59969abe63205da7b5e53c276b0a5ff",
    15: "88ee7192fe4839b6df88d942457b2aa63c51c06e7a1ce63083a071e12677485f",
}


@dataclass
class Result:
    setup_s: list = field(default_factory=list)
    op_ms: list = field(default_factory=list)
    read_ms: list = field(default_factory=list)
    write_ms: list = field(default_factory=list)
    units: int = 0  # resources deployed, ticks, or invocations
    busy_s: float = 0.0  # the time those units took
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    state_bytes: int = 0
    peak_rss_kib: int = 0
    episodes: int = 0

    def fail(self, message):
        if len(self.problems) < 20:
            self.problems.append(message)


def _snapshot_bytes(world):
    return len(json.dumps(world.to_snapshot(), separators=(",", ":")))


def provision(world, networks):
    tenant = world.identity.tenant_by_name("admin").id
    token = world.identity.authenticate("admin", "admin", "admin").id
    world.provider.register_image(tenant, gen.IMAGE, b"ubuntu cloud image")
    world.provider.create_flavor(tenant, gen.FLAVOR, *gen.FLAVOR_SPEC)
    world.provider.create_keypair(tenant, gen.KEY)
    for name, cidr in networks:
        world.provider.create_network(tenant, name, cidr)
    return tenant, token


def _live_ratio(world):
    instances = world.provider.instances.values()
    return sum(1 for i in instances if i.state != "DELETED") / max(1, len(instances))


def _duplicate_addresses(world):
    """Brute force: live fixed addresses that repeat within a network."""
    seen = set()
    duplicates = []
    for instance in world.provider.instances.values():
        if instance.state == "DELETED":
            continue
        for network, address in instance.fixed_ips.items():
            key = (instance.tenant_id, network, address)
            if key in seen:
                duplicates.append(key)
            seen.add(key)
    return duplicates


# ---------------------------------------------------------------------------
# deploy


def deploy_setup(seed):
    world = World(seed=seed, hosts=gen.deploy_hosts())
    tenant, token = provision(world, gen.NETWORKS)
    for i in range(DEPLOY_TOMBSTONES):
        spec = {"image": gen.IMAGE, "flavor": gen.FLAVOR,
                "networks": [gen.NETWORKS[i % gen.N_NETWORKS][0]]}
        instance = world.provider.launch_instance(tenant, spec, name=f"old-{i}")
        world.provider.terminate_instance(instance.id)
    return world, token


def run_deploy(seed, seconds, rec=None):
    res = Result()
    sources = [gen.stack_template(seed, v) for v in range(DEPLOY_VARIANTS)]
    start = time.perf_counter()
    while res.episodes == 0 or time.perf_counter() - start < seconds:
        gc.collect()  # the last episode's world goes now, not during this one's operations
        if rec:
            rec.phase = "setup"
        t0 = time.perf_counter()
        world, token = deploy_setup(seed)
        res.setup_s.append(time.perf_counter() - t0)
        if rec:
            rec.phase = "op"
        for step in range(DEPLOY_STEPS):
            res.attempted += 1
            name = f"stack-{res.episodes}-{step}"
            t0 = time.perf_counter()
            try:
                stack = world.engine.create_stack(
                    name, hot.parse_template(sources[step % DEPLOY_VARIANTS]), token=token)
            except MiniManoError as exc:
                res.failed += 1
                res.fail(f"{name}: create raised {exc.message}")
                continue
            t1 = time.perf_counter()
            ok = _check_deployed(world, stack, res)
            if rec:
                rec.note("nfvi.live_ratio", _live_ratio(world))
            t2 = time.perf_counter()
            try:
                status = world.engine.delete_stack(stack.id, token)
            except MiniManoError as exc:
                status = f"raised {exc.message}"
            t3 = time.perf_counter()
            if status != "DELETE_COMPLETE":
                ok = False
                res.fail(f"{name}: delete ended {status}")
            if not ok:
                res.failed += 1
            res.op_ms.append((t1 - t0 + t3 - t2) * 1e3)
            res.busy_s += t1 - t0 + t3 - t2
            res.units += len(stack.records)
        if rec:
            rec.phase = "check"
        if not world.provider.capacity_ok():
            res.fail("capacity_ok() is false after the episode")
        res.state_bytes = _snapshot_bytes(world)
        res.episodes += 1
    res.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return res


def _check_deployed(world, stack, res):
    ok = True
    if stack.status != "CREATE_COMPLETE":
        res.fail(f"{stack.name}: create ended {stack.status} ({stack.failure_reason})")
        ok = False
    outcomes = [c.outcome for c in world.engine.conditions.values() if c.stack_id == stack.id]
    if len(outcomes) != gen.WAIT_GROUPS or any(o != "SUCCESS" for o in outcomes):
        res.fail(f"{stack.name}: wait conditions ended {outcomes}")
        ok = False
    if not world.provider.capacity_ok():
        res.fail(f"{stack.name}: capacity_ok() is false")
        ok = False
    duplicates = _duplicate_addresses(world)
    if duplicates:
        res.fail(f"{stack.name}: duplicate live fixed addresses {duplicates[:3]}")
        ok = False
    return ok


# ---------------------------------------------------------------------------
# autoscale


def event_log_text(world):
    lines = scenario.event_log_lines(world)
    return "\n".join(lines) + ("\n" if lines else "")


def drive_scenario(spec, res=None, on_tick=None):
    """The benchmark's tick loop: build the world, then advance the
    clock one tick at a time, timing each tick into `res`."""
    world = scenario.build_world(spec)
    for _ in range(int(spec["ticks"])):
        t0 = time.perf_counter()
        world.advance_clock(1)
        if res is not None:
            res.op_ms.append((time.perf_counter() - t0) * 1e3)
        if on_tick:
            on_tick(world)
    return world


def check_golden_trace():
    """The tick loop must reproduce the repository's golden trace."""
    spec = scenario.load_scenario(GOLDEN_SCENARIO)
    with open(GOLDEN_EVENTS, encoding="utf-8") as fh:
        golden = fh.read()
    return event_log_text(drive_scenario(spec)) == golden


def run_autoscale(seed, seconds, rec=None):
    res = Result()
    if rec:
        rec.phase = "check"
    if not check_golden_trace():
        res.fail("tick loop does not reproduce autonomic_golden_events.jsonl")
    spec = gen.autoscale_scenario(seed, AUTOSCALE_TICKS)
    bounds = {g["name"]: (g["min"], g["max"]) for g in spec["groups"]}
    expected = AUTOSCALE_DIGESTS.get(seed)
    start = time.perf_counter()
    while res.episodes == 0 or time.perf_counter() - start < seconds:
        gc.collect()
        if rec:
            rec.phase = "setup"
        for _ in range(AUTOSCALE_SETUPS):
            t0 = time.perf_counter()
            world = scenario.build_world(spec)
            res.setup_s.append(time.perf_counter() - t0)
        if rec:
            rec.phase = "op"
        broken = []

        def check(world):
            for group in world.telemetry.groups.values():
                low, high = bounds[group.name]
                if not low <= len(group.members) <= high:
                    broken.append(f"tick {world.tick}: {group.name} has {len(group.members)} members")
            if not world.provider.capacity_ok():
                broken.append(f"tick {world.tick}: capacity_ok() is false")

        before = len(res.op_ms)
        t0 = time.perf_counter()
        try:
            world = drive_scenario(spec, res, check)
        except MiniManoError as exc:
            res.attempted += len(res.op_ms) - before + 1
            res.failed += 1
            res.fail(f"tick {len(res.op_ms) - before + 1} raised {exc.message}")
            break
        ticks = len(res.op_ms) - before
        res.attempted += ticks
        res.units += ticks
        res.busy_s += sum(res.op_ms[before:]) / 1e3
        for message in broken[:3]:
            res.fail(message)
        digest = hashlib.sha256(event_log_text(world).encode()).hexdigest()
        if expected is None:
            expected = digest
        elif digest != expected:
            res.fail(f"event log sha256 {digest} differs from {expected}")
        if rec:
            rec.note("nfvi.live_ratio", _live_ratio(world))
            rec.phase = "check"
        res.state_bytes = _snapshot_bytes(world)
        res.episodes += 1
    res.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return res


# ---------------------------------------------------------------------------
# operator

READ_VERBS = {"stack-list", "stack-show", "events-tail", "connectivity-check"}
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")


def operator_hosts():
    return gen.hosts(4, 80)


def operator_setup(seed, plan, state_path):
    """Build the operator's state file through the library: one big stack,
    a router that gives its first network an external path, and a
    telemetry history. Returns the ids the clients need."""
    world = World(seed=seed, hosts=operator_hosts(), template_dir=TEMPLATES)
    tenant, token = provision(world, [gen.HOME_NETWORK] + gen.NETWORKS)
    world.provider.create_router(tenant, "edge", external=True)
    world.provider.attach_subnet(tenant, "edge", gen.HOME_NETWORK[0])
    world.provider.attach_subnet(tenant, "edge", gen.NETWORKS[0][0])
    stack = world.engine.create_stack("big", hot.parse_template(plan["template"]), token=token)
    if stack.status != "CREATE_COMPLETE":
        raise RuntimeError(f"operator set-up stack ended {stack.status}")
    servers = [r.physical_id for r in stack.records.values() if r.type == "OS::Nova::Server"]
    for tick, member, value in plan["history"]:
        while world.tick < tick:
            world.advance_clock(1)
        world.telemetry.record_metric(servers[member], "cpu_util", value)
    routed = [s for s in servers if gen.NETWORKS[0][0] in world.provider.instances[s].fixed_ips]
    statefile.save_world(world, state_path)
    return {"token": token, "stack": stack.id, "servers": servers, "routed": routed}


class _Operator:
    def __init__(self, seed, run_dir, rec):
        self.plan = gen.operator_plan(seed)
        self.run_dir = run_dir
        self.rec = rec
        self.state = os.path.join(run_dir, "state.json")
        self.wait_template = os.path.join(run_dir, "wait.yaml")
        self.res = Result()
        self.lock = threading.Lock()
        self.calls = 0

    def setup(self, seed):
        with open(self.wait_template, "w", encoding="utf-8") as fh:
            fh.write(gen.WAIT_TEMPLATE)
        for _ in range(OPERATOR_SETUPS):
            t0 = time.perf_counter()
            self.ids = operator_setup(seed, self.plan, self.state)
            self.res.setup_s.append(time.perf_counter() - t0)
        with open(self.state, "rb") as fh:
            self.initial = fh.read()
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": SRC,
            "MINIMANO_STATE": self.state,
            "MINIMANO_TOKEN": self.ids["token"],
        }
        # compile the package's bytecode before anything is timed
        self.cli(["stack-list"], timed=False)

    def cli(self, args, timed=True):
        """One invocation; returns the parsed --format machine lines, or
        None after recording why it failed."""
        argv = [*args, "--format", "machine"]
        spans_path = None
        if self.rec and timed:
            with self.lock:
                self.calls += 1
                spans_path = os.path.join(self.run_dir, f"spans-{self.calls}.jsonl")
            cmd = [sys.executable, CHILD, spans_path, *argv]
        else:
            cmd = [sys.executable, "-m", "minimano.cli", *argv]
        t0 = time.perf_counter_ns()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.run_dir, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        t1 = time.perf_counter_ns()
        res = self.res
        with self.lock:
            if timed:
                res.attempted += 1
                res.op_ms.append((t1 - t0) / 1e6)
                (res.read_ms if args[0] in READ_VERBS else res.write_ms).append((t1 - t0) / 1e6)
            if spans_path:
                sid = self.rec.add("bench.cli", t0, t1)
                if os.path.exists(spans_path):
                    self.rec.merge_file(spans_path, sid)
                    os.remove(spans_path)
            problem = None
            lines = []
            if proc is None:
                problem = f"timed out after {CLI_TIMEOUT_S} s"
            elif proc.returncode != 0:
                problem = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
            else:
                try:
                    lines = [json.loads(line) for line in proc.stdout.splitlines()]
                except ValueError:
                    problem = f"output is not machine format: {proc.stdout[:200]!r}"
            if problem:
                if timed:
                    res.failed += 1
                res.fail(f"{' '.join(args)}: {problem}")
                return None
            return lines

    def writer(self, episode, done, errors):
        try:
            self._writes(episode)
        except Exception as exc:  # re-raised by episode() in the main thread
            errors.append(exc)
        finally:
            done.set()

    def _writes(self, episode):
        ids = self.ids
        bound = {}
        for step in self.plan["writes"]:
            verb = step[0]
            if verb == "metric-push":
                args = ["metric-push", ids["servers"][step[1]], "cpu_util", str(step[2])]
            elif verb == "clock-advance":
                args = ["clock-advance", "1"]
            elif verb == "stack-create":
                args = ["stack-create", f"ex-{episode}", "-f",
                        os.path.join(TEMPLATES, step[1]), "--tick-ms", "0"]
            elif verb == "wait-create":
                args = ["stack-create", f"wait-{episode}", "-f", self.wait_template, "--no-wait"]
            elif verb == "stack-show-wait":
                args = ["stack-show", bound.get("wait", "?")]
            elif verb == "signal":
                args = ["signal", bound.get("url", "?"),
                        '{"status": "SUCCESS", "id": "bench", "data": "ok"}']
            elif verb == "fip-allocate":
                args = ["fip-allocate"]
            elif verb in ("fip-associate", "fip-disassociate", "fip-release"):
                args = [verb, bound.get("fip", "?")]
                if verb == "fip-associate":
                    args.append(ids["routed"][episode % len(ids["routed"])])
            elif verb == "stack-delete-example":
                args = ["stack-delete", bound.get("example", "?")]
            else:
                raise ValueError(f"unknown operator step {verb!r}")
            lines = self.cli(args)
            if not lines:
                continue
            if verb == "stack-create":
                bound["example"] = lines[0]["id"]
            elif verb == "wait-create":
                bound["wait"] = lines[0]["id"]
            elif verb == "stack-show-wait":
                handles = [r["attributes"].get("curl_cli") for r in lines[0]["resources"].values()
                           if r["type"] == "OS::Heat::WaitConditionHandle"]
                bound["url"] = handles[0] if handles else "?"
            elif verb == "fip-allocate":
                bound["fip"] = lines[0]["id"]
            elif verb == "signal" and lines[0].get("ack") != "recorded":
                self.res.fail(f"signal was not recorded: {lines[0]}")
        self.expected = {ids["stack"], bound.get("wait")}

    def reads(self, done):
        args_for = {
            "stack-list": ["stack-list"],
            "stack-show-big": ["stack-show", self.ids["stack"]],
            "events-tail": ["events-tail", "-n", "20"],
            "connectivity-check": ["connectivity-check", self.ids["routed"][0],
                                   self.ids["routed"][1], "--protocol", "tcp", "--port", "22"],
        }
        i = 0
        while not done.is_set():
            self.cli(args_for[self.plan["reads"][i % len(self.plan["reads"])][0]])
            i += 1

    def episode(self, episode):
        with open(self.state, "wb") as fh:
            fh.write(self.initial)
        done = threading.Event()
        errors = []
        writer = threading.Thread(target=self.writer, args=(episode, done, errors))
        t0 = time.perf_counter()
        writer.start()
        try:
            self.reads(done)
        finally:
            writer.join()
        if errors:
            raise errors[0]
        self.res.busy_s += time.perf_counter() - t0
        listed = self.cli(["stack-list"], timed=False) or []
        got = {row["id"] for row in listed}
        if got != self.expected:
            self.res.fail(f"final stack-list {sorted(got)} != created - deleted "
                          f"{sorted(map(str, self.expected))}")
        incomplete = [row for row in listed if row["status"] != "CREATE_COMPLETE"]
        if incomplete:
            self.res.fail(f"stacks not CREATE_COMPLETE at the end: {incomplete}")
        self.res.state_bytes = os.path.getsize(self.state)
        if self.rec:
            self.rec.note("nfvi.live_ratio", _live_ratio(statefile.load_world(self.state)))
        self.res.episodes += 1


def run_operator(seed, seconds, rec=None, run_dir=None, op=None):
    """`op` carries set-up over from an earlier call (the traced run's
    untraced half); the returned operator can be passed back in."""
    if op is None:
        op = _Operator(seed, run_dir, rec)
        op.setup(seed)
    else:
        op.rec = rec
        op.res = Result()
    start = time.perf_counter()
    while op.res.episodes == 0 or time.perf_counter() - start < seconds:
        op.episode(op.res.episodes)
    op.res.units = len(op.res.op_ms)
    op.res.peak_rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return op.res, op
