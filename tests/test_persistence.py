"""Snapshot round-trips, write-through semantics, and RNG continuity."""

import json
import os

import pytest

from conftest import make_env
from minimano.errors import ConflictError, StateIOError
from minimano.statefile import load_world, save_world
from minimano.world import World


def snapshot_text(world):
    return json.dumps(world.to_snapshot(), separators=(",", ":"))


def test_snapshot_roundtrip_is_lossless(env):
    doc = env.parse("example3.yaml")
    env.world.engine.create_stack("trio", doc, {}, token=env.token)
    env.world.advance_clock(3)
    once = snapshot_text(env.world)
    again = snapshot_text(World.from_snapshot(json.loads(once)))
    assert once == again


def test_reload_midway_equals_uninterrupted_run(tmp_path):
    """Interrupting the world through a save/load must not change anything:
    the RNG stream and all registries continue exactly where they stopped."""

    def provision(world):
        tenant = world.identity.tenant_by_name("admin")
        token = world.identity.authenticate("admin", "admin", "admin")
        world.provider.register_image(tenant.id, "img", b"img")
        world.provider.create_flavor(tenant.id, "f1", 1, 1024, 10)
        world.provider.create_network(tenant.id, "n1", "10.0.0.0/24")
        return token.id

    def finish(world, token):
        world.provider.launch_instance(
            world.identity.tenant_by_name("admin").id,
            {"image": "img", "flavor": "f1", "networks": ["n1"]},
        )
        world.advance_clock(2)
        world.provider.allocate_floating_ip(world.identity.tenant_by_name("admin").id)
        return snapshot_text(world)

    straight = World(seed=99)
    token = provision(straight)
    uninterrupted = finish(straight, token)

    resumed = World(seed=99)
    token = provision(resumed)
    path = tmp_path / "mid.json"
    save_world(resumed, str(path))
    resumed = load_world(str(path))
    interrupted = finish(resumed, token)

    assert uninterrupted == interrupted


def test_blocked_stack_survives_reload(tmp_path):
    env = make_env()
    mysql = env.parse("mysql.yaml")
    # strip the boot script so the guest never signals and the stack parks
    mysql.resources["mysql_server"].properties["user_data"] = "#!/bin/sh\n"
    stack = env.world.engine.create_stack("db", mysql, {}, token=env.token)
    assert stack.status == "CREATE_IN_PROGRESS"
    url = stack.records["wait_handle"].attributes["curl_cli"]

    path = tmp_path / "state.json"
    save_world(env.world, str(path))
    world = load_world(str(path))

    reloaded = world.engine.stacks[stack.id]
    assert reloaded.status == "CREATE_IN_PROGRESS"
    world.engine.deliver_signal(url, {"status": "SUCCESS"})
    assert reloaded.status == "CREATE_COMPLETE"
    assert reloaded.outputs["db_ip"] == "10.0.0.3"


def test_missing_state_file(tmp_path):
    with pytest.raises(StateIOError, match="does not exist"):
        load_world(str(tmp_path / "nope.json"))


def test_unsupported_snapshot_version(tmp_path):
    path = tmp_path / "v9.json"
    path.write_text('{"v": 9}')
    with pytest.raises(ConflictError, match="unsupported state snapshot version"):
        load_world(str(path))


def test_corrupt_state_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{ not json")
    with pytest.raises(StateIOError, match="cannot read state file"):
        load_world(str(path))


def test_failed_rename_keeps_the_old_state(tmp_path, monkeypatch):
    path = str(tmp_path / "state.json")
    world = World(seed=5)
    save_world(world, path)
    before = snapshot_text(load_world(path))

    world.advance_clock(3)
    renamed = []

    def failing_replace(src, dst):
        renamed.append(src)
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(StateIOError, match="cannot write state file"):
        save_world(world, path)
    monkeypatch.undo()

    assert renamed == [f"{path}.tmp"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]
    assert snapshot_text(load_world(path)) == before


def test_a_leftover_temp_file_is_replaced_by_the_next_save(tmp_path):
    path = str(tmp_path / "state.json")
    world = World(seed=5)
    save_world(world, path)
    (tmp_path / "state.json.tmp").write_text("junk from a writer killed before its rename")

    world.advance_clock(3)
    save_world(world, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]
    assert snapshot_text(load_world(path)) == snapshot_text(world)
