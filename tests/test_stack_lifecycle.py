"""Stack create/list/show/delete, tenancy scoping, and determinism."""

import json

import pytest

from conftest import make_env
from minimano.errors import AuthError, ConflictError, NotFoundError, TemplateError
from minimano.hot import TemplateDoc, parse_template


def test_example2_deploys_with_defaults(env):
    doc = env.parse("example2.yaml")
    stack = env.world.engine.create_stack("demo", doc, {}, token=env.token)
    assert stack.status == "CREATE_COMPLETE"
    record = stack.records["my_instance"]
    assert record.state == "COMPLETE"
    assert stack.outputs == {"instance_ip": record.attributes["first_address"]}
    assert stack.outputs["instance_ip"] == "10.0.0.3"
    instance = env.world.provider.get_instance(record.physical_id)
    assert instance.flavor_name == "m1.small"
    assert instance.key_name == "my_key1"


def test_deploy_twice_separate_entities(env):
    doc = env.parse("example2.yaml")
    a = env.world.engine.create_stack("demo-a", doc, {}, token=env.token)
    b = env.world.engine.create_stack("demo-b", doc, {}, token=env.token)
    assert a.id != b.id
    assert a.records["my_instance"].uuid != b.records["my_instance"].uuid
    # functionally the same: same resource names, types, terminal states
    shape = lambda s: {n: (r.type, r.state) for n, r in s.records.items()}
    assert shape(a) == shape(b)
    assert b.outputs["instance_ip"] == "10.0.0.4"  # next free address


def test_unknown_image_fails_deployment(env):
    doc = env.parse("example2.yaml")
    stack = env.world.engine.create_stack("bad", doc, {"image": "nonexistent"}, token=env.token)
    assert stack.status == "CREATE_FAILED"
    record = stack.records["my_instance"]
    assert record.state == "FAILED"
    assert "nonexistent" in record.failure
    assert "my_instance" in stack.failure_reason


def test_validation_errors_block_creation(env):
    doc = parse_template(
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  srv:\n"
        "    type: OS::Nova::Server\n"
        "    properties:\n"
        "      flavor: m1.small\n"
    )
    with pytest.raises(TemplateError, match="missing mandatory property 'image'"):
        env.world.engine.create_stack("nope", doc, {}, token=env.token)
    assert env.world.engine.stacks == {}


def test_a_document_built_in_code_is_refused_before_anything_changes(env):
    """A pending run stores the text its document was parsed from, so a
    document that has none is refused before any event, random draw or
    registry entry."""
    parsed = env.parse("example1.yaml")
    doc = TemplateDoc(parsed.version, parsed.description, parsed.parameters, parsed.resources,
                      parsed.outputs)
    world = env.world
    events, rng = list(world.events), world.rng.getstate()
    with pytest.raises(TemplateError, match="no source text"):
        world.engine.create_stack("built", doc, {}, token=env.token)
    assert world.events == events
    assert world.rng.getstate() == rng
    assert world.engine.stacks == world.engine.runs == {}


def test_name_collision_within_tenant(env):
    doc = env.parse("example1.yaml")
    env.world.engine.create_stack("demo", doc, {}, token=env.token)
    with pytest.raises(ConflictError, match="already in use"):
        env.world.engine.create_stack("demo", doc, {}, token=env.token)


def test_name_reusable_after_delete(env):
    doc = env.parse("example1.yaml")
    stack = env.world.engine.create_stack("demo", doc, {}, token=env.token)
    env.world.engine.delete_stack(stack.id, env.token)
    again = env.world.engine.create_stack("demo", doc, {}, token=env.token)
    assert again.status == "CREATE_COMPLETE"


def test_create_delete_restores_census(env):
    before = env.world.provider.census()
    doc = env.parse("example2.yaml")
    stack = env.world.engine.create_stack("demo", doc, {}, token=env.token)
    assert env.world.provider.census()["instances"] == before["instances"] + 1
    status = env.world.engine.delete_stack(stack.id, env.token)
    assert status == "DELETE_COMPLETE"
    assert env.world.provider.census() == before


def test_delete_unknown_uuid(env):
    with pytest.raises(NotFoundError):
        env.world.engine.delete_stack("no-such-stack", env.token)


def test_external_volume_survives_stack_delete(env):
    doc = env.parse("example2.yaml")
    stack = env.world.engine.create_stack("demo", doc, {}, token=env.token)
    instance_id = stack.records["my_instance"].physical_id
    volume = env.world.provider.create_volume(env.tenant_id, 5)
    env.world.provider.write_volume(volume.id, b"precious")
    env.world.provider.attach_volume(volume.id, instance_id)
    env.world.engine.delete_stack(stack.id, env.token)
    assert volume.id in env.world.provider.volumes
    assert volume.attached_to is None
    assert env.world.provider.read_volume(volume.id) == b"precious"


def test_list_and_show_scoped_to_tenant(env):
    world = env.world
    doc = env.parse("example1.yaml")
    stack = world.engine.create_stack("demo", doc, {}, token=env.token)

    other_tenant = world.identity.create_tenant("other", env.token)
    world.identity.create_user("bob", "pw", env.token)
    world.identity.assign_role("bob", "other", "member", env.token)
    bob = world.identity.authenticate("bob", "pw", "other").id
    world.provider.register_image(other_tenant.id, "ubuntu_cloud14", b"x")
    world.provider.create_flavor(other_tenant.id, "m1.small", 1, 2048, 20)
    world.provider.create_keypair(other_tenant.id, "my_key1")
    world.provider.create_network(other_tenant.id, "my_net1", "10.0.0.0/24")
    bob_stack = world.engine.create_stack("demo", doc, {}, token=bob)

    admin_rows = world.engine.list_stacks(env.token)
    bob_rows = world.engine.list_stacks(bob)
    assert {row["id"] for row in admin_rows} == {stack.id}
    assert {row["id"] for row in bob_rows} == {bob_stack.id}
    assert {r["id"] for r in admin_rows} & {r["id"] for r in bob_rows} == set()

    # a foreign stack is indistinguishable from an unknown one
    with pytest.raises(NotFoundError) as foreign:
        world.engine.show_stack(stack.id, bob)
    with pytest.raises(NotFoundError) as missing:
        world.engine.show_stack("does-not-exist", bob)
    assert type(foreign.value) is type(missing.value)

    detail = world.engine.show_stack(stack.id, env.token)
    assert detail["outputs"] == {}
    assert detail["resources"]["my_instance"]["state"] == "COMPLETE"


def test_status_transitions_follow_the_machine(env):
    doc = env.parse("example2.yaml")
    stack = env.world.engine.create_stack("demo", doc, {}, token=env.token)
    # terminal create status reached, then delete path
    assert stack.status == "CREATE_COMPLETE"
    env.world.engine.delete_stack(stack.id, env.token)
    assert stack.status == "DELETE_COMPLETE"
    kinds = [e["kind"] for e in env.world.events if e["detail"].get("stack") == stack.id]
    assert kinds.index("stack.create.start") < kinds.index("stack.create.complete")
    assert kinds.index("stack.create.complete") < kinds.index("stack.delete.start")
    assert kinds.index("stack.delete.start") < kinds.index("stack.delete.complete")


def test_delete_requires_terminal_create_status(env):
    # a stack parked on a wait condition cannot be deleted mid-flight
    doc = parse_template(
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  handle:\n"
        "    type: OS::Heat::WaitConditionHandle\n"
        "  gate:\n"
        "    type: OS::Heat::WaitCondition\n"
        "    properties:\n"
        "      handle: { get_resource: handle }\n"
        "      timeout: 30\n"
    )
    stack = env.world.engine.create_stack("gated", doc, {}, token=env.token)
    assert stack.status == "CREATE_IN_PROGRESS"
    with pytest.raises(ConflictError, match="CREATE_IN_PROGRESS"):
        env.world.engine.delete_stack(stack.id, env.token)


def test_uuid_uniqueness_across_repeated_creates(env):
    doc = env.parse("example1.yaml")
    seen = set()
    for i in range(12):
        stack = env.world.engine.create_stack(f"s{i}", doc, {}, token=env.token)
        ids = {stack.id} | {r.uuid for r in stack.records.values()}
        ids |= {r.physical_id for r in stack.records.values() if r.physical_id}
        assert not (ids & seen)
        seen |= ids


def test_random_string_respects_length_and_sequence(env):
    doc = parse_template(
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  low:\n"
        "    type: OS::Heat::RandomString\n"
        "    properties:\n"
        "      length: 12\n"
        "      sequence: lowercase\n"
        "  dflt:\n"
        "    type: OS::Heat::RandomString\n"
        "outputs:\n"
        "  low:\n"
        "    value: { get_attr: [low, value] }\n"
        "  dflt:\n"
        "    value: { get_attr: [dflt, value] }\n"
    )
    stack = env.world.engine.create_stack("strings", doc, {}, token=env.token)
    low = stack.outputs["low"]
    assert len(low) == 12 and low.islower() and low.isalpha()
    dflt = stack.outputs["dflt"]  # defaults: 32 alphanumeric characters
    assert len(dflt) == 32 and dflt.isalnum()


def test_authorization_checked_before_any_state_change(env):
    deny_env = make_env(policy={})
    world = deny_env.world
    doc = deny_env.parse("example1.yaml")
    census = world.provider.census()
    stacks_before = dict(world.engine.stacks)
    with pytest.raises(AuthError):
        world.engine.create_stack("demo", doc, {}, token=deny_env.token)
    assert world.provider.census() == census
    assert world.engine.stacks == stacks_before


def test_fixed_seed_runs_are_bit_identical(templates_dir):
    def run():
        inner = make_env(seed=42)
        doc = inner.parse("example3.yaml")
        inner.world.engine.create_stack("trio", doc, {}, token=inner.token)
        inner.world.advance_clock(5)
        return inner.world.to_snapshot()

    first = json.dumps(run(), sort_keys=False)
    second = json.dumps(run(), sort_keys=False)
    assert first == second
