"""Nested templates: parameter passing, output attributes, ordering, limits."""

import shutil

import pytest

from conftest import TEMPLATES, make_env
from minimano.hot import parse_template


def test_example4_wires_mysql_outputs_into_wordpress(env):
    doc = env.parse("example4.yaml")
    stack = env.world.engine.create_stack("wp", doc, {}, token=env.token)
    assert stack.status == "CREATE_COMPLETE"

    mysql_rec = stack.records["mysql"]
    wordpress_rec = stack.records["wordpress"]
    assert mysql_rec.attributes["db_ip"] == "10.0.0.3"
    assert stack.outputs["database_ip"] == "10.0.0.3"
    assert stack.outputs["wordpress_ip"] == "10.0.0.4"

    # the wordpress child received the mysql child's outputs as inputs
    child = env.world.engine.stacks[wordpress_rec.physical_id]
    assert child.bound["db_host"] == mysql_rec.attributes["db_ip"]
    assert child.bound["db_root_password"] == mysql_rec.attributes["db_root_password"]
    wp_instance = env.world.provider.get_instance(
        child.records["wordpress_server"].physical_id
    )
    expected_line = (
        f"wordpress backend {child.bound['db_host']} password "
        f"{child.bound['db_root_password']}\n"
    )
    assert env.world.provider.read_guest_file(wp_instance.id, "wordpress-setup.log") == expected_line


def assert_context_maps_kept(engine):
    """Each stack's kept id and attribute maps equal a rebuild from its records."""
    for stack in engine.stacks.values():
        rebuilt = type(stack).deployed.func(stack)
        assert stack.deployed == rebuilt
        assert list(stack.deployed[0]) == list(rebuilt[0])


def test_context_maps_kept_across_waits_and_children(env):
    env.world.engine.create_stack("wp", env.parse("example4.yaml"), {}, token=env.token)
    assert len(env.world.engine.stacks) == 3
    assert_context_maps_kept(env.world.engine)


def test_wordpress_deploys_only_after_mysql_wait_success(env):
    doc = env.parse("example4.yaml")
    stack = env.world.engine.create_stack("wp", doc, {}, token=env.token)
    events = env.world.events
    wp_child_id = stack.records["wordpress"].physical_id
    wait_success = next(i for i, e in enumerate(events) if e["kind"] == "wait.success")
    first_wp_event = next(
        i for i, e in enumerate(events)
        if e["detail"].get("stack") == wp_child_id
    )
    assert wait_success < first_wp_event


def test_withheld_signal_times_out_parent(env, tmp_path):
    # same scenario, but the mysql guest never sends its confirmation
    for name in ("example4.yaml", "wordpress.yaml"):
        shutil.copy(TEMPLATES / name, tmp_path / name)
    mysql = (TEMPLATES / "mysql.yaml").read_text()
    silenced = "\n".join(
        line for line in mysql.splitlines() if not line.strip().startswith("signal ")
    )
    (tmp_path / "mysql.yaml").write_text(silenced + "\n")

    doc = parse_template((tmp_path / "example4.yaml").read_text())
    stack = env.world.engine.create_stack(
        "wp", doc, {}, token=env.token, template_dir=str(tmp_path)
    )
    assert stack.status == "CREATE_IN_PROGRESS"
    env.world.advance_clock(49)
    assert stack.status == "CREATE_IN_PROGRESS"
    env.world.advance_clock(1)  # the mysql wait deadline (timeout: 50)
    assert stack.status == "CREATE_FAILED"
    child = env.world.engine.stacks[stack.records["mysql"].physical_id]
    assert child.status == "CREATE_FAILED"
    assert "timed out" in child.failure_reason
    assert "wordpress" not in stack.records  # never started
    assert any(e["kind"] == "wait.timeout" for e in env.world.events)


def test_missing_required_inner_parameter_fails_parent_resource(env, tmp_path):
    parent = (
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  child:\n"
        "    type: wordpress.yaml\n"
        "    properties:\n"
        "      db_host: 10.0.0.9\n"
    )  # db_root_password is required by the child and not passed
    shutil.copy(TEMPLATES / "wordpress.yaml", tmp_path / "wordpress.yaml")
    stack = env.world.engine.create_stack(
        "broken", parse_template(parent), {}, token=env.token, template_dir=str(tmp_path)
    )
    assert stack.status == "CREATE_FAILED"
    assert "db_root_password" in stack.records["child"].failure


def test_nested_template_not_found(env, tmp_path):
    parent = (
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  child:\n"
        "    type: missing.yaml\n"
    )
    stack = env.world.engine.create_stack(
        "lost", parse_template(parent), {}, token=env.token, template_dir=str(tmp_path)
    )
    assert stack.status == "CREATE_FAILED"
    assert "not found in the search path" in stack.records["child"].failure


def test_search_path_prefers_parent_directory(env, tmp_path):
    # tmp copy shadows the registry copy of wordpress.yaml
    marker = (
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  only:\n"
        "    type: OS::Heat::RandomString\n"
        "outputs:\n"
        "  which:\n"
        "    value: shadowed\n"
    )
    (tmp_path / "wordpress.yaml").write_text(marker)
    parent = (
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  child:\n"
        "    type: wordpress.yaml\n"
    )
    stack = env.world.engine.create_stack(
        "shadow", parse_template(parent), {}, token=env.token, template_dir=str(tmp_path)
    )
    assert stack.status == "CREATE_COMPLETE"
    assert stack.records["child"].attributes == {"which": "shadowed"}


def test_self_nesting_hits_depth_limit(env, tmp_path):
    (tmp_path / "loop.yaml").write_text(
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  again:\n"
        "    type: loop.yaml\n"
    )
    doc = parse_template((tmp_path / "loop.yaml").read_text())
    stack = env.world.engine.create_stack(
        "loop", doc, {}, token=env.token, template_dir=str(tmp_path)
    )
    assert stack.status == "CREATE_FAILED"
    assert "depth limit" in stack.failure_reason


GATED_CHILD = (
    "heat_template_version: 2013-05-23\n"
    "resources:\n"
    "  handle:\n"
    "    type: OS::Heat::WaitConditionHandle\n"
    "  gate:\n"
    "    type: OS::Heat::WaitCondition\n"
    "    properties:\n"
    "      handle: { get_resource: handle }\n"
    "      timeout: 40\n"
    "outputs:\n"
    "  opened:\n"
    "    value: { get_attr: [gate, data] }\n"
)


def test_parent_blocks_on_each_gated_child_in_turn(env, tmp_path):
    (tmp_path / "gated.yaml").write_text(GATED_CHILD)
    parent = parse_template(
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  first:\n"
        "    type: gated.yaml\n"
        "  second:\n"
        "    type: gated.yaml\n"
        "outputs:\n"
        "  all_open:\n"
        "    value: { get_attr: [second, opened] }\n"
    )
    stack = env.world.engine.create_stack(
        "twins", parent, {}, token=env.token, template_dir=str(tmp_path)
    )
    assert stack.status == "CREATE_IN_PROGRESS"
    first_child = env.world.engine.stacks[stack.records["first"].physical_id]
    url1 = first_child.records["handle"].attributes["curl_cli"]
    env.world.engine.deliver_signal(url1, {"status": "SUCCESS"})
    # first child done; the parent moved on and parked on the second child
    assert first_child.status == "CREATE_COMPLETE"
    assert stack.status == "CREATE_IN_PROGRESS"
    second_child = env.world.engine.stacks[stack.records["second"].physical_id]
    url2 = second_child.records["handle"].attributes["curl_cli"]
    env.world.engine.deliver_signal(url2, {"status": "SUCCESS"})
    assert stack.status == "CREATE_COMPLETE"
    assert stack.outputs["all_open"] == '{"1": ""}'


def test_child_blocked_stack_resumes_after_reload(env, tmp_path):
    from minimano.statefile import load_world, save_world

    (tmp_path / "gated.yaml").write_text(GATED_CHILD)
    parent = parse_template(
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  child:\n"
        "    type: gated.yaml\n"
    )
    stack = env.world.engine.create_stack(
        "outer", parent, {}, token=env.token, template_dir=str(tmp_path)
    )
    assert stack.status == "CREATE_IN_PROGRESS"
    child_id = stack.records["child"].physical_id
    url = env.world.engine.stacks[child_id].records["handle"].attributes["curl_cli"]

    path = tmp_path / "state.json"
    save_world(env.world, str(path))
    world = load_world(str(path))
    world.engine.deliver_signal(url, {"status": "SUCCESS"})
    assert world.engine.stacks[child_id].status == "CREATE_COMPLETE"
    assert world.engine.stacks[stack.id].status == "CREATE_COMPLETE"
    assert_context_maps_kept(world.engine)


def test_nested_outputs_equal_standalone_deploy_with_same_seed():
    nested_env = make_env(seed=1234)
    doc = nested_env.parse("example4.yaml")
    parent = nested_env.world.engine.create_stack("wp", doc, {}, token=nested_env.token)
    nested_outputs = nested_env.world.engine.stacks[
        parent.records["mysql"].physical_id
    ].outputs

    standalone_env = make_env(seed=1234)
    inner = standalone_env.parse("mysql.yaml")
    standalone = standalone_env.world.engine.create_stack(
        "wp-mysql", inner, {}, token=standalone_env.token
    )
    assert standalone.status == "CREATE_COMPLETE"
    assert standalone.outputs == nested_outputs


def test_nested_stack_record_uuid_is_child_stack_id(env):
    doc = env.parse("example4.yaml")
    stack = env.world.engine.create_stack("wp", doc, {}, token=env.token)
    record = stack.records["mysql"]
    assert record.uuid == record.physical_id
    assert record.physical_id in env.world.engine.stacks
