"""Networks, routers, floating addresses, NAT, and security groups."""

import json

import pytest

from minimano.errors import CapacityError, ConflictError
from minimano.nfvi import EXTERNAL_LOCUS
from minimano.world import World


def cloud(seed=42):
    world = World(seed=seed)
    tenant = world.identity.tenant_by_name("admin")
    world.provider.register_image(tenant.id, "img", b"img")
    world.provider.create_flavor(tenant.id, "f1", 1, 1024, 10)
    return world, tenant.id


def launch(world, tenant, networks, groups=None):
    return world.provider.launch_instance(
        tenant, {"image": "img", "flavor": "f1", "networks": networks,
                 "security_groups": groups}
    )


def test_network_gateway_and_reserved_addresses():
    world, tenant = cloud()
    net = world.provider.create_network(tenant, "my_net1", "10.0.0.0/24")
    assert net.gateway == "10.0.0.1"
    assert net.service_address == "10.0.0.2"
    instance = launch(world, tenant, ["my_net1"])
    assert instance.fixed_ips["my_net1"] == "10.0.0.3"


def test_custom_gateway_is_honored():
    world, tenant = cloud()
    net = world.provider.create_network(tenant, "n1", "10.0.0.0/24", gateway="10.0.0.254")
    assert net.gateway == "10.0.0.254"
    instance = launch(world, tenant, ["n1"])
    assert instance.fixed_ips["n1"] == "10.0.0.3"  # instances still fill from .3


@pytest.mark.parametrize("gateway", ["bogus", "8.8.8.8", "10.0.1.1", "10.0.0.0/24", "::1"])
def test_gateway_must_be_an_address_in_the_cidr(gateway):
    world, tenant = cloud()
    with pytest.raises(ConflictError, match="gateway"):
        world.provider.create_network(tenant, "n1", "10.0.0.0/24", gateway=gateway)
    assert world.provider.network_by_name(tenant, "n1") is None


@pytest.mark.parametrize("cidr, gateway", [
    ("10.7.0.0/24", "10.7.0.0"),
    ("10.8.0.0/24", "10.8.0.2"),
    ("10.9.0.0/24", "10.9.0.255"),
    ("fd00::/120", "fd00::ff"),
])
def test_gateway_may_not_be_the_network_service_or_broadcast_address(cidr, gateway):
    world, tenant = cloud()
    with pytest.raises(ConflictError, match="network, service or broadcast"):
        world.provider.create_network(tenant, "n1", cidr, gateway=gateway)
    assert world.provider.network_by_name(tenant, "n1") is None


@pytest.mark.parametrize("cidr, addresses", [
    # below 2**32, where `ipaddress.ip_address(int)` would give IPv4 text
    ("::/120", ["::1", "::2", "::3", "::4"]),
    ("fd00::100/120", ["fd00::101", "fd00::102", "fd00::103", "fd00::104"]),
])
def test_ipv6_addresses_are_ipv6_text(cidr, addresses):
    world, tenant = cloud()
    net = world.provider.create_network(tenant, "n6", cidr)
    instances = [launch(world, tenant, ["n6"]) for _ in range(2)]
    assert [net.gateway, net.service_address] + [i.fixed_ips["n6"] for i in instances] == addresses


@pytest.mark.parametrize("gateway, addresses", [
    ("bogus", ["10.0.0.3", "10.0.0.4", "10.0.0.5"]),
    ("8.8.8.8", ["10.0.0.3", "10.0.0.4", "10.0.0.5"]),
    ("10.0.0.4", ["10.0.0.3", "10.0.0.5", "10.0.0.6"]),
    ("10.0.0.0", ["10.0.0.3", "10.0.0.4", "10.0.0.5"]),
    ("10.0.0.2", ["10.0.0.3", "10.0.0.4", "10.0.0.5"]),
    ("10.0.0.255", ["10.0.0.3", "10.0.0.4", "10.0.0.5"]),
])
def test_a_stored_gateway_loads_and_reserves_only_its_own_address(gateway, addresses):
    world, tenant = cloud()
    world.provider.create_network(tenant, "n1", "10.0.0.0/24")
    # as a state file written before gateways were checked may hold it
    world.provider.network_by_name(tenant, "n1").gateway = gateway
    world = World.from_snapshot(json.loads(json.dumps(world.to_snapshot())))
    assert world.provider.network_by_name(tenant, "n1").gateway == gateway
    assert [launch(world, tenant, ["n1"]).fixed_ips["n1"] for _ in addresses] == addresses


def test_a_full_subnet_gives_back_the_addresses_taken_for_the_launch():
    world, tenant = cloud()
    world.provider.create_network(tenant, "small", "10.0.0.0/29")  # .3 to .6
    world.provider.create_network(tenant, "big", "10.0.1.0/24")
    for _ in range(4):
        launch(world, tenant, ["small"])
    with pytest.raises(CapacityError, match="small"):
        launch(world, tenant, ["big", "small"])
    assert launch(world, tenant, ["big"]).fixed_ips == {"big": "10.0.1.3"}


def test_cidr_overlap_rejected_within_tenant():
    world, tenant = cloud()
    world.provider.create_network(tenant, "a", "10.0.0.0/24")
    with pytest.raises(ConflictError, match="overlaps"):
        world.provider.create_network(tenant, "b", "10.0.0.128/25")
    # a disjoint range is fine
    world.provider.create_network(tenant, "c", "10.0.1.0/24")


def test_cidr_overlap_allowed_across_tenants():
    world, tenant = cloud()
    token = world.identity.authenticate("admin", "admin", "admin").id
    other = world.identity.create_tenant("demo", token)
    world.provider.create_network(tenant, "a", "10.0.0.0/24")
    world.provider.create_network(other.id, "a", "10.0.0.0/24")  # isolated spaces


def test_subnet_attaches_to_at_most_one_router():
    world, tenant = cloud()
    world.provider.create_network(tenant, "n1", "10.0.0.0/24")
    world.provider.create_router(tenant, "r1")
    world.provider.create_router(tenant, "r2")
    world.provider.attach_subnet(tenant, "r1", "n1")
    with pytest.raises(ConflictError, match="already attached"):
        world.provider.attach_subnet(tenant, "r2", "n1")


def test_floating_ip_requires_external_path():
    world, tenant = cloud()
    world.provider.create_network(tenant, "n1", "10.0.0.0/24")
    instance = launch(world, tenant, ["n1"])
    fip = world.provider.allocate_floating_ip(tenant)
    with pytest.raises(ConflictError, match="no external path"):
        world.provider.associate_floating_ip(fip.id, instance.id)
    # a router alone is not enough; it needs the external gateway
    world.provider.create_router(tenant, "r1")
    world.provider.attach_subnet(tenant, "r1", "n1")
    with pytest.raises(ConflictError, match="no external path"):
        world.provider.associate_floating_ip(fip.id, instance.id)
    world.provider.set_external_gateway(tenant, "r1")
    world.provider.associate_floating_ip(fip.id, instance.id)
    assert fip.associated_instance == instance.id


def test_floating_ip_lifetime_independent_of_association():
    world, tenant = cloud()
    world.provider.create_network(tenant, "n1", "10.0.0.0/24")
    world.provider.create_router(tenant, "r1", external=True)
    world.provider.attach_subnet(tenant, "r1", "n1")
    instance = launch(world, tenant, ["n1"])
    fip = world.provider.allocate_floating_ip(tenant)
    world.provider.associate_floating_ip(fip.id, instance.id)
    world.provider.disassociate_floating_ip(fip.id)
    assert fip.id in world.provider.fips
    assert fip.associated_instance is None


def test_floating_ip_single_association():
    world, tenant = cloud()
    world.provider.create_network(tenant, "n1", "10.0.0.0/24")
    world.provider.create_router(tenant, "r1", external=True)
    world.provider.attach_subnet(tenant, "r1", "n1")
    a = launch(world, tenant, ["n1"])
    b = launch(world, tenant, ["n1"])
    fip = world.provider.allocate_floating_ip(tenant)
    world.provider.associate_floating_ip(fip.id, a.id)
    with pytest.raises(ConflictError, match="already associated"):
        world.provider.associate_floating_ip(fip.id, b.id)


def test_same_group_same_subnet_allowed():
    world, tenant = cloud()
    world.provider.create_network(tenant, "n1", "10.0.0.0/24")
    a = launch(world, tenant, ["n1"])
    b = launch(world, tenant, ["n1"])
    result = world.provider.check_connectivity(a.id, b.id, "tcp", 22)
    assert result.allowed
    assert result.observed_dst == b.fixed_ips["n1"]


def test_different_groups_need_an_ingress_rule():
    world, tenant = cloud()
    world.provider.create_network(tenant, "n1", "10.0.0.0/24")
    world.provider.create_security_group(tenant, "web")
    a = launch(world, tenant, ["n1"])  # default group
    b = launch(world, tenant, ["n1"], groups=["web"])
    blocked = world.provider.check_connectivity(a.id, b.id, "tcp", 22)
    assert not blocked.allowed and blocked.reason == "sg-blocked"
    world.provider.add_security_group_rule(tenant, "web", "tcp", 22, 22, remote="10.0.0.0/24")
    assert world.provider.check_connectivity(a.id, b.id, "tcp", 22).allowed
    # rule is port-scoped
    assert not world.provider.check_connectivity(a.id, b.id, "tcp", 80).allowed


def test_remote_group_rule():
    world, tenant = cloud()
    world.provider.create_network(tenant, "n1", "10.0.0.0/24")
    world.provider.create_security_group(tenant, "web")
    world.provider.create_security_group(tenant, "lb")
    web = launch(world, tenant, ["n1"], groups=["web"])
    lb = launch(world, tenant, ["n1"], groups=["lb"])
    world.provider.add_security_group_rule(tenant, "web", "tcp", 8080, 8080, remote="lb")
    assert world.provider.check_connectivity(lb.id, web.id, "tcp", 8080).allowed
    assert not world.provider.check_connectivity(web.id, lb.id, "tcp", 8080).allowed


@pytest.mark.parametrize("low, high", [(-5, 70000), (90, 10), (0, 65536), (-1, 0)])
def test_a_rule_whose_port_range_matches_nothing_is_refused(low, high):
    world, tenant = cloud()
    (group,) = world.provider.secgroups.values()
    rules = list(group.rules)
    with pytest.raises(ConflictError, match="port range"):
        world.provider.add_security_group_rule(tenant, "default", "tcp", low, high)
    assert group.rules == rules
    world.provider.add_security_group_rule(tenant, "default", "tcp", 0, 0)
    world.provider.add_security_group_rule(tenant, "default", "tcp", 65535, 65535)


def test_no_route_between_disconnected_networks():
    world, tenant = cloud()
    world.provider.create_network(tenant, "n1", "10.0.0.0/24")
    world.provider.create_network(tenant, "n2", "10.0.1.0/24")
    a = launch(world, tenant, ["n1"])
    b = launch(world, tenant, ["n2"])
    result = world.provider.check_connectivity(a.id, b.id, "tcp", 22)
    assert not result.allowed and result.reason == "no-route"
    # a router joining both subnets restores reachability
    world.provider.create_router(tenant, "r1")
    world.provider.attach_subnet(tenant, "r1", "n1")
    world.provider.attach_subnet(tenant, "r1", "n2")
    assert world.provider.check_connectivity(a.id, b.id, "tcp", 22).allowed


def test_external_requires_nat():
    world, tenant = cloud()
    world.provider.create_network(tenant, "n1", "10.0.0.0/24")
    world.provider.create_router(tenant, "r1", external=True)
    world.provider.attach_subnet(tenant, "r1", "n1")
    instance = launch(world, tenant, ["n1"])
    result = world.provider.check_connectivity(EXTERNAL_LOCUS, instance.id, "tcp", 22)
    assert not result.allowed and result.reason == "no-nat"

    fip = world.provider.allocate_floating_ip(tenant)
    world.provider.associate_floating_ip(fip.id, instance.id)
    still_blocked = world.provider.check_connectivity(EXTERNAL_LOCUS, instance.id, "tcp", 22)
    assert not still_blocked.allowed and still_blocked.reason == "sg-blocked"

    world.provider.add_security_group_rule(tenant, "default", "tcp", 22, 22, remote="0.0.0.0/0")
    allowed = world.provider.check_connectivity(EXTERNAL_LOCUS, instance.id, "tcp", 22)
    assert allowed.allowed
    # NAT rewrites the observed destination to the fixed address
    assert allowed.observed_dst == instance.fixed_ips["n1"]


def test_nat_rewrites_to_the_first_network_with_an_external_path():
    world, tenant = cloud()
    world.provider.create_network(tenant, "a", "10.0.0.0/24")
    world.provider.create_network(tenant, "b", "10.0.1.0/24")
    world.provider.create_router(tenant, "edge", external=True)
    world.provider.attach_subnet(tenant, "edge", "a")
    world.provider.add_security_group_rule(tenant, "default", "icmp")
    instance = launch(world, tenant, ["b", "a"])  # its first address is on the unrouted net
    fip = world.provider.allocate_floating_ip(tenant)
    world.provider.associate_floating_ip(fip.id, instance.id)
    result = world.provider.check_connectivity(EXTERNAL_LOCUS, instance.id, "icmp")
    assert result.allowed and result.observed_dst == instance.fixed_ips["a"] == "10.0.0.3"


def test_egress_to_external_needs_a_route():
    world, tenant = cloud()
    world.provider.create_network(tenant, "n1", "10.0.0.0/24")
    instance = launch(world, tenant, ["n1"])
    result = world.provider.check_connectivity(instance.id, EXTERNAL_LOCUS, "tcp", 443)
    assert not result.allowed and result.reason == "no-route"
    world.provider.create_router(tenant, "r1", external=True)
    world.provider.attach_subnet(tenant, "r1", "n1")
    assert world.provider.check_connectivity(instance.id, EXTERNAL_LOCUS, "tcp", 443).allowed


def test_icmp_ignores_ports():
    world, tenant = cloud()
    world.provider.create_network(tenant, "n1", "10.0.0.0/24")
    world.provider.create_security_group(tenant, "other")
    a = launch(world, tenant, ["n1"])
    b = launch(world, tenant, ["n1"], groups=["other"])
    world.provider.add_security_group_rule(tenant, "other", "icmp", remote="0.0.0.0/0")
    assert world.provider.check_connectivity(a.id, b.id, "icmp").allowed


def test_cross_tenant_instances_have_no_route():
    world, tenant = cloud()
    token = world.identity.authenticate("admin", "admin", "admin").id
    other = world.identity.create_tenant("demo", token).id
    world.provider.register_image(other, "img", b"img")
    world.provider.create_flavor(other, "f1", 1, 1024, 10)
    world.provider.create_network(tenant, "n1", "10.0.0.0/24")
    world.provider.create_network(other, "n1", "10.0.0.0/24")
    a = launch(world, tenant, ["n1"])
    b = launch(world, other, ["n1"])
    result = world.provider.check_connectivity(a.id, b.id, "tcp", 22)
    assert not result.allowed and result.reason == "no-route"
