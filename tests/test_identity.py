"""Tenants, users, roles, tokens, policy evaluation, service catalog."""

import random
import shutil

import pytest

from minimano import cli
from minimano.errors import AuthError, ConflictError, NotFoundError
from minimano.identity import DEFAULT_TOKEN_TTL, default_policy
from minimano.statefile import load_world, save_world
from minimano.world import World
from test_startup import _representative


@pytest.fixture
def world():
    return World(seed=1)


@pytest.fixture
def admin_token(world):
    return world.identity.authenticate("admin", "admin", "admin").id


def authorized(world, token_id, action) -> bool:
    """Whether `require` lets `token_id` take `action`."""
    try:
        world.identity.require(token_id, action)
    except AuthError:
        return False
    return True


def test_bootstrap_admin_can_authenticate(world):
    token = world.identity.authenticate("admin", "admin", "admin")
    assert "admin" in token.roles
    assert len(token.id) == 32
    assert set(token.id) <= set("0123456789abcdef")


def test_duplicate_tenant_rejected(world, admin_token):
    world.identity.create_tenant("demo", admin_token)
    with pytest.raises(ConflictError, match="already exists"):
        world.identity.create_tenant("demo", admin_token)


def test_role_assignment_enables_authentication(world, admin_token):
    world.identity.create_tenant("demo", admin_token)
    world.identity.create_user("alice", "wonder", admin_token)
    with pytest.raises(AuthError, match="no role in tenant"):
        world.identity.authenticate("alice", "wonder", "demo")
    world.identity.assign_role("alice", "demo", "member", admin_token)
    token = world.identity.authenticate("alice", "wonder", "demo")
    assert token.roles == ["member"]


def test_non_admin_cannot_create_tenant(world, admin_token):
    world.identity.create_tenant("demo", admin_token)
    world.identity.create_user("alice", "pw", admin_token)
    world.identity.assign_role("alice", "demo", "member", admin_token)
    member = world.identity.authenticate("alice", "pw", "demo")
    with pytest.raises(AuthError, match="not authorized"):
        world.identity.create_tenant("other", member.id)


def test_bad_credential_indistinguishable_from_unknown_user(world):
    with pytest.raises(AuthError) as wrong_pw:
        world.identity.authenticate("admin", "nope", "admin")
    with pytest.raises(AuthError) as no_user:
        world.identity.authenticate("ghost", "nope", "admin")
    assert wrong_pw.value.message == no_user.value.message


def test_plaintext_credential_never_stored(world):
    for user in world.identity.users.values():
        assert "admin" != user.digest
        assert "admin" not in user.digest


def test_expired_token_is_invalid(world, admin_token):
    world.advance_clock(DEFAULT_TOKEN_TTL)
    with pytest.raises(AuthError, match="invalid or expired"):
        world.identity.validate_token(admin_token)


def test_policy_evaluation_against_table_oracle(world, admin_token):
    world.identity.create_tenant("demo", admin_token)
    world.identity.create_user("alice", "pw", admin_token)
    world.identity.assign_role("alice", "demo", "member", admin_token)
    member_token = world.identity.authenticate("alice", "pw", "demo").id

    policy = world.identity.policy
    member_roles = ["member"]
    admin_roles = ["admin", "member"]

    def oracle(roles, action):
        required = policy.get(action)
        if required is None:
            return False
        return required == "any" or required in roles

    actions = sorted(policy) + ["stacks:explode", "made:up", ""]
    for action in actions:
        assert authorized(world, member_token, action) == oracle(member_roles, action)
        assert authorized(world, admin_token, action) == oracle(admin_roles, action)


def test_member_may_create_stacks(world, admin_token):
    world.identity.create_tenant("demo", admin_token)
    world.identity.create_user("alice", "pw", admin_token)
    world.identity.assign_role("alice", "demo", "member", admin_token)
    member = world.identity.authenticate("alice", "pw", "demo")
    assert authorized(world, member.id, "stacks:create") is True


def test_unknown_action_default_deny(world, admin_token):
    rng = random.Random(3)
    policy = set(world.identity.policy)
    for _ in range(50):
        action = "".join(rng.choice("abcdefgh:_") for _ in range(12))
        if action in policy:
            continue
        assert authorized(world, admin_token, action) is False


def test_deny_all_policy_denies_everything():
    world = World(seed=2, policy={})
    token = world.identity.authenticate("admin", "admin", "admin").id
    for action in default_policy():
        assert authorized(world, token, action) is False


@pytest.fixture(scope="module")
def deny_all_state(tmp_path_factory):
    """(a state file under a deny-all policy, an admin token for it)."""
    world = World(seed=2, policy={})
    token = world.identity.authenticate("admin", "admin", "admin").id
    path = tmp_path_factory.mktemp("deny_all") / "state.json"
    save_world(world, str(path))
    return path, token


# every verb that loads the state file but `token-issue`, which needs no token
@pytest.mark.parametrize("verb", [verb for verb, (_, state, *_) in cli.VERBS.items()
                                  if state is not None and verb != "token-issue"])
def test_deny_all_policy_refuses_every_verb_before_it_acts(
        deny_all_state, tmp_path, monkeypatch, capsys, verb):
    """A verb's gate is in its `cli.VERBS` row or in its service, and it
    comes first: before a file is read (a `stack-create` template that does
    not exist) or a payload parsed."""
    path = tmp_path / "state.json"
    shutil.copyfile(deny_all_state[0], path)
    before = path.read_bytes()
    monkeypatch.chdir(tmp_path)  # any file the argv names would be made here
    code = cli.main([*_representative(verb), "--state", str(path),
                     "--token", deny_all_state[1]])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json", "state.json.lock"]


def test_catalog_re_register_replaces(world, admin_token):
    world.identity.register_service("orchestration", "local:///orch-a", admin_token)
    world.identity.register_service("orchestration", "local:///orch-b", admin_token)
    assert world.identity.lookup_endpoint(admin_token, "orchestration") == "local:///orch-b"


def test_catalog_lookup_requires_valid_token(world):
    with pytest.raises(AuthError):
        world.identity.lookup_endpoint("bogus-token", "compute")


def test_catalog_unknown_service(world, admin_token):
    with pytest.raises(NotFoundError, match="unknown service"):
        world.identity.lookup_endpoint(admin_token, "nonexistent")


def test_catalog_freshness_against_replay_log(world, admin_token):
    rng = random.Random(9)
    names = ["svc-a", "svc-b", "svc-c"]
    log = []
    for i in range(60):
        name = rng.choice(names)
        url = f"local:///{name}/{i}"
        world.identity.register_service(name, url, admin_token)
        log.append((name, url))
    # oracle: replay the log into a plain dict
    expected = {}
    for name, url in log:
        expected[name] = url
    for name in names:
        if name in expected:
            assert world.identity.lookup_endpoint(admin_token, name) == expected[name]


def test_duplicate_role_rejected_after_reload(tmp_path):
    world = World(seed=1)
    token = world.identity.authenticate("admin", "admin", "admin").id
    world.identity.create_tenant("demo", token)
    world.identity.create_user("alice", "pw", token)
    world.identity.assign_role("alice", "demo", "member", token)
    path = str(tmp_path / "state.json")
    save_world(world, path)
    world = load_world(path)
    for user, tenant in (("alice", "demo"), ("admin", "admin")):
        with pytest.raises(ConflictError, match="already assigned"):
            world.identity.assign_role(user, tenant, "member", token)
    world.identity.assign_role("alice", "demo", "admin", token)
    with pytest.raises(ConflictError, match="already assigned"):
        world.identity.assign_role("alice", "demo", "admin", token)
