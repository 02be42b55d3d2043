"""Property test for the host usage ledger and the address pools.

Random walks of launch, terminate, crash, floating-address allocate and
release, and save/load round trips. After each step the ledger must equal
a count over every instance, every live address must be unique on its
network, and each address handed out must be the one a brute-force scan
picks: the lowest free offset from 3, skipping the gateway and service
addresses. One network has its gateway at .5, not .1, and the same
network name exists in two tenants with different CIDRs.
"""

import ipaddress
import json

import pytest

from minimano.errors import CapacityError
from minimano.nfvi import FLOATING_POOL_CIDR
from minimano.world import World

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
