"""Property test for the host usage ledger and the address pools.

Random walks of launch, terminate, crash, floating-address allocate and
release, and save/load round trips. After each step the ledger must equal
a count over every instance, every live address must be unique on its
network, and each address handed out must be the one a brute-force scan
picks: the lowest free offset from 3, skipping the gateway and service
addresses. One network has its gateway at .5, not .1, and the same
network name exists in two tenants with different CIDRs.

`WorldMachine` walks the whole `World` API the same way: launch,
terminate, crash, scale, floating addresses, volumes, stack create and
delete, wait signals and the clock. After each step the same oracles
hold, each tenant holds a name once, the world's snapshot survives a
JSON round trip exactly (its load checks every event against
`world.EVENTS`), and each event holds its kind's detail keys in their
declared order.
"""

import ipaddress
import json

import pytest

from minimano.errors import CapacityError
from minimano.nfvi import FLOATING_POOL_CIDR
from minimano.telemetry import HealerConfig
from minimano.world import EVENTS, World

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# host ids out of insertion order: placement is first fit by ascending id
HOSTS = [{"id": "host-b", "vcpus": 6, "ram_mib": 8192, "disk_gib": 120},
         {"id": "host-a", "vcpus": 5, "ram_mib": 4096, "disk_gib": 120}]
FLAVORS = [("f1", 1, 1024, 10), ("f2", 2, 2048, 20)]
# (network name, CIDR, gateway) per tenant; "a" holds offsets 3-6 less the gateway
NETWORKS = [
    [("a", "10.0.0.0/29", "10.0.0.5"), ("b", "10.0.1.0/28", None)],
    [("a", "10.9.0.0/28", None)],
]
NETWORK_CHOICES = [["a"], ["b"], ["a", "b"], ["b", "a", "b"], []]


def build_world():
    world = World(seed=5, hosts=HOSTS)
    token = world.identity.authenticate("admin", "admin", "admin").id
    tenants = [world.identity.tenant_by_name("admin").id,
               world.identity.create_tenant("demo", token).id]
    for tenant, networks in zip(tenants, NETWORKS):
        world.provider.register_image(tenant, "img", b"img")
        for flavor in FLAVORS:
            world.provider.create_flavor(tenant, *flavor)
        for name, cidr, gateway in networks:
            world.provider.create_network(tenant, name, cidr, gateway)
    return world, tenants


def lowest_free(cidr, taken):
    """The brute-force allocator: the lowest offset from 3 whose address
    is not taken, or None."""
    net = ipaddress.ip_network(cidr)
    for offset in range(3, net.num_addresses - 1):
        candidate = str(net.network_address + offset)
        if candidate not in taken:
            return candidate
    return None


def live(provider):
    return [i for i in provider.instances.values() if i.state != "DELETED"]


def expected_launch(provider, tenant, flavor_name, net_names):
    """(host id, fixed addresses) a launch must give, or None if it must
    fail for want of a host or an address."""
    flavor = provider.flavor_by_name(tenant, flavor_name)
    need = (flavor.vcpus, flavor.ram_mib, flavor.disk_gib)
    host = next((h.id for h in sorted(provider.hosts.values(), key=lambda h: h.id)
                 if all(map(int.__ge__, provider._capacity_left(h), need))), None)
    addresses = {}
    for name in net_names:
        network = provider.network_by_name(tenant, name)
        taken = {network.gateway, network.service_address} | {
            i.fixed_ips[name] for i in live(provider)
            if i.tenant_id == tenant and name in i.fixed_ips}
        addresses[name] = lowest_free(network.cidr, taken)
    if host is None or None in addresses.values():
        return None
    return host, addresses


def check_invariants(provider):
    # the ledger is built on first use, so a walk also terminates with none
    usage = provider._usage
    if usage is not None:
        sizes = {h.id: (h.vcpus, h.ram_mib, h.disk_gib) for h in provider.hosts.values()}
        for host in provider.hosts.values():
            assert [size - used for size, used in zip(sizes[host.id], usage[host.id])] == list(
                provider._capacity_left(host))
        assert provider.capacity_ok() == all(
            used <= size for host_id in sizes for used, size in zip(usage[host_id], sizes[host_id]))
    assert provider.capacity_ok()
    held = [(i.tenant_id, name, address) for i in live(provider)
            for name, address in i.fixed_ips.items()]
    assert len(held) == len(set(held))
    fips = [fip.address for fip in provider.fips.values()]
    assert len(fips) == len(set(fips))


# a step: (kind, tenant, flavor, network choice, which target); launches
# are weighted up so that walks fill the small subnet and the hosts
KINDS = ["launch"] * 4 + ["terminate", "crash", "fip-allocate", "fip-release", "reload"]
STEP = st.tuples(st.sampled_from(KINDS), st.integers(0, 1), st.integers(0, 1),
                 st.integers(0, len(NETWORK_CHOICES) - 1), st.integers(0, 20))


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None,
                     suppress_health_check=list(hypothesis.HealthCheck))
@hypothesis.given(st.lists(STEP, min_size=10, max_size=50))
def test_ledger_and_pools_match_brute_force(steps):
    world, tenants = build_world()
    for kind, tenant_idx, flavor_idx, choice, target in steps:
        provider = world.provider
        if kind == "launch":
            tenant = tenants[tenant_idx]
            flavor, net_names = FLAVORS[flavor_idx][0], NETWORK_CHOICES[choice]
            if tenant_idx == 1:
                net_names = [name for name in net_names if name == "a"]
            expected = expected_launch(provider, tenant, flavor, net_names)
            spec = {"image": "img", "flavor": flavor, "networks": net_names}
            if expected is None:
                with pytest.raises(CapacityError):
                    provider.launch_instance(tenant, spec)
            else:
                instance = provider.launch_instance(tenant, spec)
                assert (instance.host_id, instance.fixed_ips) == expected
        elif kind == "terminate":
            targets = live(provider)
            if targets:
                provider.terminate_instance(targets[target % len(targets)].id)
        elif kind == "crash":
            targets = [i for i in provider.instances.values() if i.state == "ACTIVE"]
            if targets:
                provider.crash_instance(targets[target % len(targets)].id)
        elif kind == "fip-allocate":
            want = lowest_free(FLOATING_POOL_CIDR, {f.address for f in provider.fips.values()})
            assert provider.allocate_floating_ip(tenants[tenant_idx]).address == want
        elif kind == "fip-release":
            fips = list(provider.fips)
            if fips:
                provider.release_floating_ip(fips[target % len(fips)])
        else:
            world = World.from_snapshot(json.loads(json.dumps(world.to_snapshot())))
        check_invariants(world.provider)


# -- a stateful walk over the whole World API -----------------------------------

stateful = pytest.importorskip("hypothesis.stateful")

SERVER = """heat_template_version: 2013-05-23
resources:
  server:
    type: OS::Nova::Server
    properties:
      image: img
      flavor: f2
      networks:
        - network: a
"""
# a server that boots only once its wait condition has one signal, or fails
# at its deadline
GATED = """heat_template_version: 2013-05-23
resources:
  handle:
    type: OS::Heat::WaitConditionHandle
  gate:
    type: OS::Heat::WaitCondition
    properties:
      handle: { get_resource: handle }
      timeout: 3
  server:
    type: OS::Nova::Server
    depends_on: gate
    properties:
      image: img
      flavor: f1
      networks:
        - network: b
"""
SCALABLE = {"image": "img", "flavor": "f1", "networks": ["a"]}


def unique_names(world):
    """Each tenant's registries, and its stacks not yet deleted, hold a name once."""
    provider = world.provider
    for registry in (provider.images, provider.flavors, provider.keypairs, provider.secgroups,
                     provider.networks, provider.routers):
        names = [(obj.tenant_id, obj.name) for obj in registry.values()]
        assert len(names) == len(set(names))
    names = [(s.tenant_id, s.name) for s in world.engine.stacks.values()
             if s.status != "DELETE_COMPLETE"]
    assert len(names) == len(set(names))


class WorldMachine(stateful.RuleBasedStateMachine):
    """Launch, terminate, crash, scale, floating addresses, volumes, stacks,
    signals and the clock, in any order, against the brute-force oracles
    and an exact snapshot round trip."""

    def __init__(self):
        super().__init__()
        from minimano.hot import parse_template

        self.world, self.tenants = build_world()
        admin = self.tenants[0]
        self.token = self.world.identity.authenticate("admin", "admin", "admin").id
        provider = self.world.provider
        provider.create_router(admin, "r", external=True)
        provider.attach_subnet(admin, "r", "a")
        self.world.telemetry.create_group("web", admin, SCALABLE, 0, 4, 1)
        self.world.telemetry.healer = HealerConfig(True, 2)
        self.docs = {"server": parse_template(SERVER), "gated": parse_template(GATED)}
        self.stacks = 0

    def pick(self, items, index):
        items = list(items)
        return items[index % len(items)] if items else None

    @stateful.rule(tenant=st.integers(0, 1), flavor=st.integers(0, 1),
                   choice=st.integers(0, len(NETWORK_CHOICES) - 1))
    def launch(self, tenant, flavor, choice):
        provider = self.world.provider
        names = NETWORK_CHOICES[choice] if tenant == 0 else ["a"]
        expected = expected_launch(provider, self.tenants[tenant], FLAVORS[flavor][0], names)
        spec = {"image": "img", "flavor": FLAVORS[flavor][0], "networks": names}
        if expected is None:
            with pytest.raises(CapacityError):
                provider.launch_instance(self.tenants[tenant], spec)
        else:
            instance = provider.launch_instance(self.tenants[tenant], spec)
            assert (instance.host_id, instance.fixed_ips) == expected

    @stateful.rule(index=st.integers(0, 20))
    def terminate(self, index):
        instance = self.pick(live(self.world.provider), index)
        if instance is not None:
            self.world.provider.terminate_instance(instance.id)

    @stateful.rule(index=st.integers(0, 20))
    def crash(self, index):
        active = [i for i in live(self.world.provider) if i.state == "ACTIVE"]
        instance = self.pick(active, index)
        if instance is not None:
            self.world.provider.crash_instance(instance.id)

    @stateful.rule(direction=st.sampled_from(["out", "in"]))
    def scale(self, direction):
        self.world.telemetry.apply_scaling("web", direction)

    @stateful.rule(index=st.integers(0, 20), action=st.sampled_from(["allocate", "associate",
                                                                       "release"]))
    def fip(self, index, action):
        provider = self.world.provider
        admin = self.tenants[0]
        if action == "allocate":
            provider.allocate_floating_ip(admin)
            return
        fip = self.pick(provider.fips.values(), index)
        if fip is None:
            return
        if action == "release":
            provider.release_floating_ip(fip.id)
            return
        routed = [i for i in live(provider) if i.tenant_id == admin and "a" in i.fixed_ips]
        instance = self.pick(routed, index)
        if fip.associated_instance is None and instance is not None:
            provider.associate_floating_ip(fip.id, instance.id)

    @stateful.rule(index=st.integers(0, 20), action=st.sampled_from(["create", "attach",
                                                                       "detach", "snapshot"]))
    def volume(self, index, action):
        provider = self.world.provider
        if action == "create":
            provider.create_volume(self.tenants[0], 1 + index % 3)
            return
        volume = self.pick(provider.volumes.values(), index)
        if volume is None:
            return
        active = [i for i in live(provider) if i.state == "ACTIVE"]
        instance = self.pick(active, index)
        if action == "attach" and volume.attached_to is None and instance is not None:
            provider.attach_volume(volume.id, instance.id)
        elif action == "detach":
            provider.detach_volume(volume.id)
        elif action == "snapshot":
            provider.snapshot_volume(volume.id)

    @stateful.rule(kind=st.sampled_from(["server", "gated"]))
    def stack_create(self, kind):
        self.stacks += 1
        self.world.engine.create_stack(f"{kind}-{self.stacks}", self.docs[kind], token=self.token)

    @stateful.rule(index=st.integers(0, 20))
    def stack_delete(self, index):
        done = [s for s in self.world.engine.stacks.values()
                if s.status in ("CREATE_COMPLETE", "CREATE_FAILED", "DELETE_FAILED")]
        stack = self.pick(done, index)
        if stack is not None:
            self.world.engine.delete_stack(stack.id, self.token)

    @stateful.rule(index=st.integers(0, 20), status=st.sampled_from(["SUCCESS", "FAILURE"]))
    def signal(self, index, status):
        handle = self.pick(self.world.engine.handles.values(), index)
        if handle is not None:
            self.world.engine.deliver_signal(f"mm://wait/{handle.id}", {"status": status})

    @stateful.rule(ticks=st.integers(1, 4))
    def advance_clock(self, ticks):
        self.world.advance_clock(ticks)

    @stateful.rule()
    def reload(self):
        self.world = World.from_snapshot(json.loads(json.dumps(self.world.to_snapshot())))

    @stateful.invariant()
    def ledger_pools_and_capacity(self):
        check_invariants(self.world.provider)

    @stateful.invariant()
    def names_are_unique(self):
        unique_names(self.world)

    @stateful.invariant()
    def snapshot_round_trips(self):
        text = json.dumps(self.world.to_snapshot())
        assert json.dumps(World.from_snapshot(json.loads(text)).to_snapshot()) == text

    @stateful.invariant()
    def events_keep_their_declared_key_order(self):
        for event in self.world.events:
            assert tuple(event["detail"]) == EVENTS[event["kind"]].detail, event


TestWorldMachine = WorldMachine.TestCase
TestWorldMachine.settings = hypothesis.settings(
    derandomize=True, max_examples=60, stateful_step_count=40, deadline=None,
    suppress_health_check=list(hypothesis.HealthCheck))
