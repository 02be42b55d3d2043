"""Acceptance criteria, one test per criterion.

Each test is marked with its criterion number; the conftest summary hook
prints one PASS/FAIL line per criterion at the end of the run. Everything
here runs at desk scale with a fixed seed.
"""

import hashlib
import ipaddress
import itertools
import json
import random
import shutil

import pytest

from conftest import TEMPLATES, make_env
from minimano import cli
from minimano.errors import CapacityError, ConflictError, DependencyCycleError
from minimano.hot import (
    ResourceDef,
    TemplateDoc,
    parse_template,
    validate_template,
)
from minimano.nfvi import EXTERNAL_LOCUS, EXTERNAL_SOURCE_ADDRESS
from minimano.plan import build_plan
from minimano.scenario import event_log_lines, load_scenario, run_scenario
from minimano.world import World
from test_plan import flattened, wave_index

DATA = TEMPLATES.parent / "tests" / "data"


# ---------------------------------------------------------------------------
# 1. Example 1 round-trip


@pytest.mark.acceptance(1, "single-instance template: validate, deploy, delete")
def test_c01_example1_roundtrip():
    env = make_env()
    doc = env.parse("example1.yaml")
    report = validate_template(doc)
    assert report.errors == []

    census_before = env.world.provider.census()
    stack = env.world.engine.create_stack("ex1", doc, {}, token=env.token)
    assert stack.status == "CREATE_COMPLETE"
    instance = env.world.provider.get_instance(stack.records["my_instance"].physical_id)
    assert instance.state == "ACTIVE"
    live = [i for i in env.world.provider.instances.values() if i.state != "DELETED"]
    assert len(live) == 1

    assert env.world.engine.delete_stack(stack.id, env.token) == "DELETE_COMPLETE"
    assert env.world.provider.census() == census_before


# ---------------------------------------------------------------------------
# 2. Example 2 parameterization


@pytest.mark.acceptance(2, "parameter defaults, output wiring, separate entities")
def test_c02_example2_parameterization():
    env = make_env()
    doc = env.parse("example2.yaml")
    first = env.world.engine.create_stack("ex2-a", doc, {}, token=env.token)
    assert first.bound == {
        "image": "ubuntu_cloud14",
        "flavor": "m1.small",
        "key": "my_key1",
        "private_network": "my_net1",
    }
    instance = env.world.provider.get_instance(first.records["my_instance"].physical_id)
    assert first.outputs["instance_ip"] == instance.fixed_ips["my_net1"]

    second = env.world.engine.create_stack("ex2-b", doc, {}, token=env.token)
    assert second.status == "CREATE_COMPLETE"
    assert second.id != first.id
    assert second.records["my_instance"].uuid != first.records["my_instance"].uuid
    structure = lambda s: {
        name: (r.type, r.state, sorted(r.attributes)) for name, r in s.records.items()
    }
    assert structure(first) == structure(second)


# ---------------------------------------------------------------------------
# 3. Example 3 behavior at seed 42


def _deploy_example3(seed=42):
    env = make_env(seed=seed)
    doc = env.parse("example3.yaml")
    stack = env.world.engine.create_stack("ex3", doc, {}, token=env.token)
    assert stack.status == "CREATE_COMPLETE"
    provider = env.world.provider
    files = {}
    for rname in ("inst_simple", "inst_advanced"):
        instance_id = stack.records[rname].physical_id
        files[rname] = provider.read_guest_file(instance_id, "hello.txt")
    return stack, files


@pytest.mark.acceptance(3, "guest files from user data, reproducible at seed 42")
def test_c03_example3_guest_files():
    stack, files = _deploy_example3(seed=42)
    assert files["inst_simple"] == "Hello, World!\n"
    rng_value = stack.records["rng"].attributes["value"]
    assert len(rng_value) == 4 and rng_value.isdigit()
    assert files["inst_advanced"] == (
        f"Hello, my name is Alice. Here is a random number: {rng_value}.\n"
    )
    # byte-identical across runs with the same seed
    stack2, files2 = _deploy_example3(seed=42)
    assert files2 == files
    assert stack2.records["rng"].attributes["value"] == rng_value


# ---------------------------------------------------------------------------
# 4. Example 4 nested ordering and timeout


@pytest.mark.acceptance(4, "nested deployment order and wait-condition timeout")
def test_c04_example4_ordering_and_timeout(tmp_path):
    env = make_env()
    doc = env.parse("example4.yaml")
    stack = env.world.engine.create_stack("ex4", doc, {}, token=env.token)
    assert stack.status == "CREATE_COMPLETE"
    events = env.world.events
    wordpress_child = stack.records["wordpress"].physical_id
    wait_success_idx = next(i for i, e in enumerate(events) if e["kind"] == "wait.success")
    first_wordpress_idx = next(
        i for i, e in enumerate(events) if e["detail"].get("stack") == wordpress_child
    )
    assert wait_success_idx < first_wordpress_idx

    # withheld signal: the parent ends CREATE_FAILED exactly at the deadline
    env2 = make_env()
    for name in ("example4.yaml", "wordpress.yaml"):
        shutil.copy(TEMPLATES / name, tmp_path / name)
    mysql = (TEMPLATES / "mysql.yaml").read_text()
    silenced = "\n".join(
        line for line in mysql.splitlines() if not line.strip().startswith("signal ")
    )
    (tmp_path / "mysql.yaml").write_text(silenced + "\n")
    doc2 = parse_template((tmp_path / "example4.yaml").read_text())
    start_tick = env2.world.tick
    stack2 = env2.world.engine.create_stack(
        "ex4", doc2, {}, token=env2.token, template_dir=str(tmp_path)
    )
    deadline = start_tick + 50  # mysql.yaml wait condition timeout
    env2.world.advance_clock(49)
    assert stack2.status == "CREATE_IN_PROGRESS"
    env2.world.advance_clock(1)
    assert env2.world.tick == deadline
    assert stack2.status == "CREATE_FAILED"
    assert any(e["kind"] == "wait.timeout" and e["tick"] == deadline for e in env2.world.events)


# ---------------------------------------------------------------------------
# 5. Plan soundness against brute-force enumeration


def _doc_with_edges(names, edges):
    resources = {}
    for name in names:
        props = {}
        for i, (provider, consumer) in enumerate(edges):
            if consumer == name:
                props[f"dep{i}"] = {"get_attr": [provider, "value"]}
        resources[name] = ResourceDef(name, "OS::Heat::RandomString", props)
    return TemplateDoc({}, resources, {})


def _all_topological_orders(names, edges):
    valid = []
    for perm in itertools.permutations(names):
        position = {n: i for i, n in enumerate(perm)}
        if all(position[a] < position[b] for a, b in edges):
            valid.append(list(perm))
    return valid


@pytest.mark.acceptance(5, "500 random DAG plans match topological enumeration")
def test_c05_plan_soundness_oracle():
    rng = random.Random(2042)
    dags = cycles = 0
    while dags < 500:
        n = rng.randrange(1, 8)
        names = [f"r{i}" for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    edges.append((names[i], names[j]))
        plan = build_plan(_doc_with_edges(names, edges))
        wave_of = wave_index(plan)
        for a, b in edges:
            assert wave_of[a] < wave_of[b]
        orders = _all_topological_orders(names, edges)
        assert flattened(plan) in orders
        dags += 1

        if n >= 2 and cycles < 150:
            ring = rng.sample(names, rng.randrange(2, n + 1))
            cyclic = edges + list(zip(ring, ring[1:])) + [(ring[-1], ring[0])]
            assert _all_topological_orders(names, set(cyclic)) == []
            with pytest.raises(DependencyCycleError) as err:
                build_plan(_doc_with_edges(names, set(cyclic)))
            cycle = err.value.cycle
            edge_set = set(cyclic)
            assert all(
                (a, b) in edge_set for a, b in zip(cycle, cycle[1:] + cycle[:1])
            )
            cycles += 1


# ---------------------------------------------------------------------------
# 6. Lifetime invariants under random interleavings


@pytest.mark.acceptance(6, "1000-step lifetime invariant walk")
def test_c06_lifetime_invariants():
    world = World(seed=6, hosts=[
        {"id": "host-1", "vcpus": 4, "ram_mib": 8192, "disk_gib": 80},
        {"id": "host-2", "vcpus": 4, "ram_mib": 8192, "disk_gib": 80},
    ])
    tenant = world.identity.tenant_by_name("admin").id
    provider = world.provider
    provider.register_image(tenant, "img", b"img")
    provider.create_flavor(tenant, "f1", 1, 1024, 10)
    provider.create_network(tenant, "n1", "10.0.0.0/24")
    provider.create_router(tenant, "r1", external=True)
    provider.attach_subnet(tenant, "r1", "n1")

    rng = random.Random(1066)
    live = []
    volumes = {}  # volume id -> expected payload
    fips = set()  # expected allocated floating ids

    def check_invariants():
        addresses = [
            i.fixed_ips.get("n1") for i in provider.instances.values()
            if i.state != "DELETED" and i.fixed_ips.get("n1")
        ]
        assert len(addresses) == len(set(addresses)), "fixed address reused while live"
        assert set(provider.fips) == fips, "floating set changed without allocate/release"
        for vol_id, expected in volumes.items():
            assert provider.read_volume(vol_id) == expected, "volume payload drifted"
        assert provider.capacity_ok(), "host capacity exceeded"

    spec = {"image": "img", "flavor": "f1", "networks": ["n1"]}
    for step in range(1000):
        op = rng.choice(
            ["launch", "terminate", "vol_create", "vol_attach", "vol_detach",
             "vol_write", "fip_allocate", "fip_associate", "fip_disassociate",
             "fip_release"]
        )
        try:
            if op == "launch":
                live.append(provider.launch_instance(tenant, spec).id)
            elif op == "terminate" and live:
                provider.terminate_instance(live.pop(rng.randrange(len(live))))
            elif op == "vol_create":
                volume = provider.create_volume(tenant, rng.randrange(1, 5))
                volumes[volume.id] = b""
            elif op == "vol_attach" and volumes and live:
                provider.attach_volume(rng.choice(sorted(volumes)), rng.choice(live))
            elif op == "vol_detach" and volumes:
                provider.detach_volume(rng.choice(sorted(volumes)))
            elif op == "vol_write" and volumes:
                vol_id = rng.choice(sorted(volumes))
                payload = f"step {step}".encode()
                provider.write_volume(vol_id, payload)
                volumes[vol_id] = payload
            elif op == "fip_allocate":
                fips.add(provider.allocate_floating_ip(tenant).id)
            elif op == "fip_associate" and fips and live:
                provider.associate_floating_ip(rng.choice(sorted(fips)), rng.choice(live))
            elif op == "fip_disassociate" and fips:
                provider.disassociate_floating_ip(rng.choice(sorted(fips)))
            elif op == "fip_release" and fips:
                fip_id = rng.choice(sorted(fips))
                provider.release_floating_ip(fip_id)
                fips.discard(fip_id)
        except (CapacityError, ConflictError):
            pass  # full hosts / busy volumes / taken fips are legal outcomes
        check_invariants()


# ---------------------------------------------------------------------------
# 7. Connectivity against a brute-force path/rule oracle


CIDRS = ["10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24"]

RULE_POOL = [
    ("g1", "tcp", 22, 22, "0.0.0.0/0"),
    ("default", "tcp", 22, 22, "10.0.0.0/24"),
    ("g1", "icmp", 0, 65535, "0.0.0.0/0"),
    ("g1", "tcp", 80, 80, "default"),
]


def _router_menu(k):
    # a subnet may attach to at most one router, so configs are partitions
    menu = [[]]
    menu.append([(tuple(range(k)), True)])
    menu.append([(tuple(range(k)), False)])
    if k >= 2:
        menu.append([((0,), True)])
    if k == 3:
        menu.append([((0, 1), False), ((2,), False)])
        menu.append([((0, 1), True), ((2,), False)])
    return menu


def _oracle_chain_exists(start_nets, routers, accept):
    """Brute force over ordered router chains (all permutations, all lengths)."""
    indices = list(range(len(routers)))
    for m in range(1, len(routers) + 1):
        for chain in itertools.permutations(indices, m):
            if not (start_nets & set(routers[chain[0]][0])):
                continue
            linked = all(
                set(routers[a][0]) & set(routers[b][0])
                for a, b in zip(chain, chain[1:])
            )
            if linked and accept(routers[chain[-1]]):
                return True
    return False


def _oracle_paths(src_nets, dst_nets, routers):
    if src_nets & dst_nets:
        return True
    return _oracle_chain_exists(src_nets, routers, lambda r: set(r[0]) & dst_nets)


def _oracle_external(nets, routers):
    return _oracle_chain_exists(nets, routers, lambda r: r[1])


def _oracle_rules(rules, dst_groups, protocol, port, src_addresses, src_groups):
    if set(src_groups) & set(dst_groups):
        return True
    for group, rproto, lo, hi, remote in rules:
        if group not in dst_groups or rproto != protocol:
            continue
        if protocol != "icmp" and not (lo <= port <= hi):
            continue
        try:
            net = ipaddress.ip_network(remote)
        except ValueError:
            if remote in src_groups:
                return True
            continue
        if any(ipaddress.ip_address(a) in net for a in src_addresses):
            return True
    return False


def _oracle_decision(direction, topo, protocol, port):
    """Independent full decision for one check; returns (allowed, reason)."""
    a_nets, b_nets, routers = topo["a_nets"], topo["b_nets"], topo["routers"]
    if direction == "a->external":
        return (True, None) if _oracle_external(a_nets, routers) else (False, "no-route")
    if direction == "external->b":
        if not topo["fip_associated"]:
            return (False, "no-nat")
        ok = _oracle_rules(topo["rules"], topo["b_groups"], protocol, port,
                           [EXTERNAL_SOURCE_ADDRESS], [])
        return (True, None) if ok else (False, "sg-blocked")
    if not _oracle_paths(a_nets, b_nets, routers):
        return (False, "no-route")
    ok = _oracle_rules(topo["rules"], topo["b_groups"], protocol, port,
                       topo["a_addresses"], topo["a_groups"])
    return (True, None) if ok else (False, "sg-blocked")


@pytest.mark.acceptance(7, "connectivity matches the brute-force oracle")
def test_c07_connectivity_oracle():
    checks = 0
    rule_subsets = [subset for size in (0, 1, 2)
                    for subset in itertools.combinations(range(len(RULE_POOL)), size)]
    for k in (1, 2, 3):
        for routers in _router_menu(k):
            has_external = any(ext for _, ext in routers)
            for subset in rule_subsets:
                rules = [RULE_POOL[i] for i in subset]
                for fip_mode in ([False, True] if has_external else [False]):
                    world = World(seed=7)
                    tenant = world.identity.tenant_by_name("admin").id
                    provider = world.provider
                    provider.register_image(tenant, "img", b"img")
                    provider.create_flavor(tenant, "f1", 1, 256, 2)
                    for i in range(k):
                        provider.create_network(tenant, f"n{i}", CIDRS[i])
                    for ri, (ifaces, external) in enumerate(routers):
                        provider.create_router(tenant, f"r{ri}", external=external)
                        for net_index in ifaces:
                            provider.attach_subnet(tenant, f"r{ri}", f"n{net_index}")
                    provider.create_security_group(tenant, "g1")
                    for group, protocol, lo, hi, remote in rules:
                        provider.add_security_group_rule(
                            tenant, group, protocol, lo, hi, remote=remote
                        )
                    for a_net, b_net in itertools.product(range(k), repeat=2):
                        for a_group, b_group in itertools.product(["default", "g1"], repeat=2):
                            a = provider.launch_instance(
                                tenant, {"image": "img", "flavor": "f1",
                                         "networks": [f"n{a_net}"],
                                         "security_groups": [a_group]})
                            b = provider.launch_instance(
                                tenant, {"image": "img", "flavor": "f1",
                                         "networks": [f"n{b_net}"],
                                         "security_groups": [b_group]})
                            fip_associated = False
                            if fip_mode:
                                fip = provider.allocate_floating_ip(tenant)
                                try:
                                    provider.associate_floating_ip(fip.id, b.id)
                                    fip_associated = True
                                except ConflictError:
                                    pass
                            topo = {
                                "a_nets": {f"n{a_net}"},
                                "b_nets": {f"n{b_net}"},
                                "routers": [([f"n{i}" for i in ifaces], ext)
                                            for ifaces, ext in routers],
                                "rules": rules,
                                "a_groups": [a_group],
                                "b_groups": [b_group],
                                "a_addresses": list(a.fixed_ips.values()),
                                "fip_associated": fip_associated,
                            }
                            for protocol, port in (("tcp", 22), ("tcp", 80), ("icmp", None)):
                                cases = [
                                    ("a->b", a.id, b.id),
                                    ("external->b", EXTERNAL_LOCUS, b.id),
                                    ("a->external", a.id, EXTERNAL_LOCUS),
                                ]
                                for direction, src, dst in cases:
                                    got = provider.check_connectivity(src, dst, protocol, port)
                                    want_allowed, want_reason = _oracle_decision(
                                        direction, topo, protocol, port
                                    )
                                    assert (got.allowed, got.reason) == (want_allowed, want_reason), (
                                        direction, topo, protocol, port
                                    )
                                    if direction == "external->b" and got.allowed:
                                        # NAT rewrote the destination to a fixed address
                                        assert got.observed_dst in b.fixed_ips.values()
                                    checks += 1
                            provider.terminate_instance(a.id)
                            provider.terminate_instance(b.id)
    assert checks > 2000, f"only {checks} cases enumerated"


# ---------------------------------------------------------------------------
# 8. Identity gate and tenant isolation


MUTATING_FUZZ = [
    ("tenant-create", "t{n}"),
    ("user-create", "u{n}", "--password", "pw"),
    ("image-create", "img{n}"),
    ("flavor-create", "f{n}", "--vcpus", "1", "--ram", "512", "--disk", "5"),
    ("keypair-create", "kp{n}"),
    ("net-create", "net{n}", "--cidr", "10.{m}.0.0/24"),
    ("router-create", "r{n}"),
    ("fip-allocate",),
    ("volume-create", "--size", "3"),
    ("object-put", "c", "o{n}", "--data", "x"),
    ("stack-create", "s{n}", "-f", "TEMPLATE"),
    ("clock-advance", "5"),
    ("metric-push", "resource-{n}", "cpu_util", "0.5"),
    ("fault-inject", "target-{n}"),
    ("group-create", "g{n}", "--min", "1", "--max", "2", "--desired", "1",
     "--member", "{{}}"),
    ("alarm-create", "a{n}", "--metric", "cpu_util", "--aggregate", "avg",
     "--comparison", "gt", "--threshold", "0.8", "--window", "3",
     "--target", "g", "--action", "notify"),
    ("service-register", "svc{n}", "local:///x"),
    ("role-assign", "admin", "admin", "member"),
    ("signal", "mm://wait/{n}", '{{"status": "SUCCESS"}}'),
    ("volume-attach", "vol-{n}", "inst-{n}"),
]


@pytest.mark.acceptance(8, "deny-all policy blocks 200 mutations; tenants isolated")
def test_c08_identity_gate(tmp_path, monkeypatch, capsys):
    state = tmp_path / "deny.json"
    policy = tmp_path / "policy.json"
    policy.write_text("{}")  # deny everything, even admin
    monkeypatch.setenv(cli.STATE_ENV, str(state))
    monkeypatch.delenv(cli.TOKEN_ENV, raising=False)

    def run(*argv):
        code = cli.main(list(argv))
        out = capsys.readouterr()
        return code, out.out

    assert run("init", "--seed", "8", "--policy", str(policy))[0] == 0
    code, out = run("token-issue", "--user", "admin", "--password", "admin",
                    "--tenant", "admin", "--format", "machine")
    assert code == 0
    monkeypatch.setenv(cli.TOKEN_ENV, json.loads(out)["token"])

    template = tmp_path / "t.yaml"
    shutil.copy(TEMPLATES / "example1.yaml", template)
    before = state.read_bytes()
    ran = 0
    n = 0
    while ran < 200:
        pattern = MUTATING_FUZZ[n % len(MUTATING_FUZZ)]
        argv = [part.format(n=n, m=n % 200) for part in pattern]
        argv = [str(template) if part == "TEMPLATE" else part for part in argv]
        code, _ = run(*argv)
        assert code == 3, (argv, code)
        ran += 1
        n += 1
    assert state.read_bytes() == before, "denied invocations must not mutate state"

    # tenant isolation under the normal policy
    env = make_env()
    world = env.world
    doc = env.parse("example1.yaml")
    stack_a = world.engine.create_stack("mine", doc, {}, token=env.token)
    tenant_b = world.identity.create_tenant("b", env.token)
    world.identity.create_user("bee", "pw", env.token)
    world.identity.assign_role("bee", "b", "member", env.token)
    token_b = world.identity.authenticate("bee", "pw", "b").id
    world.provider.register_image(tenant_b.id, "ubuntu_cloud14", b"x")
    world.provider.create_flavor(tenant_b.id, "m1.small", 1, 2048, 20)
    world.provider.create_keypair(tenant_b.id, "my_key1")
    world.provider.create_network(tenant_b.id, "my_net1", "10.0.0.0/24")
    stack_b = world.engine.create_stack("theirs", doc, {}, token=token_b)
    ids_a = {r["id"] for r in world.engine.list_stacks(env.token)}
    ids_b = {r["id"] for r in world.engine.list_stacks(token_b)}
    assert ids_a == {stack_a.id} and ids_b == {stack_b.id}
    assert ids_a & ids_b == set()


# ---------------------------------------------------------------------------
# 9. Autonomic loops match the golden trace


@pytest.mark.acceptance(9, "scale-out once, heal within the window, golden trace")
def test_c09_autonomic_golden_trace():
    scenario = load_scenario(str(DATA / "autonomic_scenario.json"))
    world = run_scenario(scenario)

    events = world.events
    scale_outs = [e for e in events if e["kind"] == "scale.out"]
    assert len(scale_outs) == 1
    assert scale_outs[0]["detail"]["desired"] == 2  # group went 1 -> 2

    fault = next(e for e in events if e["kind"] == "fault.inject")
    heal = next(e for e in events if e["kind"] == "heal.replace")
    assert fault["tick"] < heal["tick"] <= fault["tick"] + 20

    group = world.telemetry.groups["web"]
    active = [
        m for m in group.members
        if world.provider.instances[m].state == "ACTIVE"
    ]
    assert len(active) == group.desired == 2

    golden = (DATA / "autonomic_golden_events.jsonl").read_text()
    assert "\n".join(event_log_lines(world)) + "\n" == golden


# ---------------------------------------------------------------------------
# 10. Whole-scenario determinism


@pytest.mark.acceptance(10, "same seed, same snapshot, same event log")
def test_c10_scenario_determinism():
    scenario = load_scenario(str(DATA / "autonomic_scenario.json"))
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    snap_a = json.dumps(first.to_snapshot(), separators=(",", ":"))
    snap_b = json.dumps(second.to_snapshot(), separators=(",", ":"))
    assert hashlib.sha256(snap_a.encode()).hexdigest() == hashlib.sha256(snap_b.encode()).hexdigest()
    assert event_log_lines(first) == event_log_lines(second)
