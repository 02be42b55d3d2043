"""Compute side of the simulated infrastructure: images, placement,
addressing, cloud-init, termination."""

import base64
import hashlib
import random

import pytest

from minimano.errors import CapacityError, ConflictError, NotFoundError
from minimano.world import World


def small_cloud(seed=42, hosts=None):
    world = World(seed=seed, hosts=hosts or [{"id": "host-1", "vcpus": 4, "ram_mib": 8192, "disk_gib": 80}])
    tenant = world.identity.tenant_by_name("admin")
    world.provider.register_image(tenant.id, "ubuntu_cloud14", b"ubuntu cloud image")
    world.provider.create_flavor(tenant.id, "m1.small", 1, 2048, 20)
    world.provider.create_keypair(tenant.id, "my_key1")
    world.provider.create_network(tenant.id, "my_net1", "10.0.0.0/24")
    return world, tenant.id


def image_hash(world, image_id) -> str:
    """The sha256 of the image's payload."""
    payload = base64.b64decode(world.provider.images[image_id].payload_b64)
    return hashlib.sha256(payload).hexdigest()


BASE_SPEC = {"image": "ubuntu_cloud14", "flavor": "m1.small", "key_name": "my_key1",
             "networks": ["my_net1"]}


def test_duplicate_image_name_rejected():
    world, tenant = small_cloud()
    with pytest.raises(ConflictError, match="already exists"):
        world.provider.register_image(tenant, "ubuntu_cloud14", b"other")


def oracle_allocator(cidr, count):
    """Independent allocator simulation: .1 gateway, .2 service, then lowest free."""
    import ipaddress
    net = ipaddress.ip_network(cidr)
    base = int(net.network_address)
    return [str(ipaddress.ip_address(base + 3 + i)) for i in range(count)]


def test_first_launch_gets_dot_three():
    world, tenant = small_cloud()
    instance = world.provider.launch_instance(tenant, BASE_SPEC)
    assert instance.state == "ACTIVE"
    assert instance.host_id == "host-1"
    assert instance.fixed_ips == {"my_net1": "10.0.0.3"}
    assert instance.fixed_ips["my_net1"] == oracle_allocator("10.0.0.0/24", 1)[0]


def test_sequential_launches_follow_allocator_oracle():
    world, tenant = small_cloud()
    expected = oracle_allocator("10.0.0.0/24", 4)
    got = [world.provider.launch_instance(tenant, BASE_SPEC).fixed_ips["my_net1"] for _ in range(4)]
    assert got == expected


def test_released_addresses_are_reusable():
    world, tenant = small_cloud()
    first = world.provider.launch_instance(tenant, BASE_SPEC)
    second = world.provider.launch_instance(tenant, BASE_SPEC)
    world.provider.terminate_instance(first.id)
    third = world.provider.launch_instance(tenant, BASE_SPEC)
    assert third.fixed_ips["my_net1"] == "10.0.0.3"  # lowest free again
    assert second.fixed_ips["my_net1"] == "10.0.0.4"


def test_launch_when_hosts_full():
    world, tenant = small_cloud()  # 4 vcpus, flavor takes 1 of 4 / 2048 of 8192
    for _ in range(4):
        world.provider.launch_instance(tenant, BASE_SPEC)
    with pytest.raises(CapacityError, match="no host can fit"):
        world.provider.launch_instance(tenant, BASE_SPEC)


def test_first_fit_by_ascending_host_id():
    world, tenant = small_cloud(hosts=[
        {"id": "host-2", "vcpus": 4, "ram_mib": 8192, "disk_gib": 80},
        {"id": "host-1", "vcpus": 1, "ram_mib": 2048, "disk_gib": 20},
    ])
    first = world.provider.launch_instance(tenant, BASE_SPEC)
    second = world.provider.launch_instance(tenant, BASE_SPEC)
    assert first.host_id == "host-1"
    assert second.host_id == "host-2"


def test_launch_spec_missing_mandatory_keys_rejected():
    # deploy-side oracle for the mandatory-property table
    world, tenant = small_cloud()
    with pytest.raises(ConflictError, match="requires 'image'"):
        world.provider.launch_instance(tenant, {"flavor": "m1.small"})
    with pytest.raises(ConflictError, match="requires 'flavor'"):
        world.provider.launch_instance(tenant, {"image": "ubuntu_cloud14"})


def test_generic_image_keys_are_per_instance():
    world, tenant = small_cloud()
    image = world.provider._by_name(world.provider.images, tenant, "ubuntu_cloud14")
    before = image_hash(world, image.id)
    a = world.provider.launch_instance(tenant, BASE_SPEC)
    b = world.provider.launch_instance(tenant, dict(BASE_SPEC, key_name=None))
    keypair = world.provider._by_name(world.provider.keypairs, tenant, "my_key1")
    assert a.authorized_keys == [keypair.public_key]
    assert b.authorized_keys == []  # nothing inherited from the image
    # image untouched by boots
    assert image_hash(world, a.image_id) == before


def test_image_immutable_under_guest_writes():
    world, tenant = small_cloud()
    image = world.provider._by_name(world.provider.images, tenant, "ubuntu_cloud14")
    before = hashlib.sha256(b"ubuntu cloud image").hexdigest()
    spec = dict(BASE_SPEC, user_data='#!/bin/sh\necho "scribble" >> notes.txt\n')
    for _ in range(3):
        world.provider.launch_instance(tenant, spec)
    assert image_hash(world, image.id) == before


def test_cloud_init_echo_writes_guest_file():
    world, tenant = small_cloud()
    spec = dict(BASE_SPEC, user_data='#!/bin/sh\necho "Hello, World!" >> hello.txt\n')
    instance = world.provider.launch_instance(tenant, spec)
    assert world.provider.read_guest_file(instance.id, "hello.txt") == "Hello, World!\n"
    assert any("run: echo" in line for line in instance.guest_log)


def test_cloud_init_signal_reaches_sink():
    world, tenant = small_cloud()
    delivered = []
    spec = dict(BASE_SPEC, user_data='signal mm://wait/h1 {"status": "SUCCESS"}\n')
    world.provider.launch_instance(tenant, spec, signal_sink=lambda url, p: delivered.append((url, p)))
    assert delivered == [("mm://wait/h1", {"status": "SUCCESS"})]


def test_cloud_init_unsupported_and_malformed_lines_keep_instance_active():
    world, tenant = small_cloud()
    spec = dict(BASE_SPEC, user_data="rm -rf /\nsignal mm://wait/h1 {not json}\n")
    instance = world.provider.launch_instance(tenant, spec, signal_sink=lambda u, p: None)
    assert instance.state == "ACTIVE"
    assert any(line.startswith("unsupported: rm -rf /") for line in instance.guest_log)
    assert any(line.startswith("parse failure") for line in instance.guest_log)


def test_cloud_init_skipped_without_capability():
    world, tenant = small_cloud()
    world.provider.register_image(tenant, "bare", b"no init", cloud_init=False)
    spec = dict(BASE_SPEC, image="bare", user_data='echo "x" >> f\n')
    instance = world.provider.launch_instance(tenant, spec)
    assert instance.guest_log == []
    assert instance.ephemeral_files == {}


def test_terminate_destroys_ephemeral_and_frees_resources():
    world, tenant = small_cloud()
    spec = dict(BASE_SPEC, user_data='echo "keep" >> data.txt\n')
    instance = world.provider.launch_instance(tenant, spec)
    volume = world.provider.create_volume(tenant, 5)
    world.provider.attach_volume(volume.id, instance.id)
    fip = world.provider.allocate_floating_ip(tenant)
    router = world.provider.create_router(tenant, "r1", external=True)
    world.provider.attach_subnet(tenant, "r1", "my_net1")
    world.provider.associate_floating_ip(fip.id, instance.id)

    world.provider.terminate_instance(instance.id)
    assert instance.state == "DELETED"
    assert volume.attached_to is None and volume.id in world.provider.volumes
    assert fip.associated_instance is None and fip.id in world.provider.fips
    with pytest.raises(NotFoundError, match="destroyed at its termination|ephemeral"):
        world.provider.read_guest_file(instance.id, "data.txt")
    with pytest.raises(NotFoundError):
        world.provider.terminate_instance(instance.id)


def test_capacity_conservation_under_random_interleavings():
    world, tenant = small_cloud(hosts=[
        {"id": "host-1", "vcpus": 3, "ram_mib": 6144, "disk_gib": 60},
        {"id": "host-2", "vcpus": 2, "ram_mib": 4096, "disk_gib": 40},
    ])
    rng = random.Random(77)
    live = []
    for _ in range(300):
        if live and rng.random() < 0.45:
            world.provider.terminate_instance(live.pop(rng.randrange(len(live))))
        else:
            try:
                live.append(world.provider.launch_instance(tenant, BASE_SPEC).id)
            except CapacityError:
                assert len(live) >= 5  # both hosts genuinely full
        assert world.provider.capacity_ok()
        addresses = [
            inst.fixed_ips.get("my_net1")
            for inst in world.provider.instances.values()
            if inst.state != "DELETED"
        ]
        assert len(addresses) == len(set(addresses))
