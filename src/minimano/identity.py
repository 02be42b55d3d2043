"""Identity, roles, tokens, policy, and the service catalog.

Every managed object in the system belongs to exactly one tenant, and a
user acts inside a tenant only through a role assignment. Tokens are
opaque ids scoped to a single tenant; authorization consults a policy
table mapping action names to the role they require ("any" accepts every
valid token). Unknown actions are denied.
"""

from .codec import (check, each, field, keyed, non_empty, one, record, rule, set_fields,
                    strings)
from .errors import AuthError, ConflictError, NotFoundError


DEFAULT_TOKEN_TTL = 3600  # ticks

_MEMBER_ACTIONS = [
    "stacks:create",
    "stacks:delete",
    "stacks:list",
    "stacks:show",
    "stacks:signal",
    "images:create",
    "flavors:create",
    "keypairs:create",
    "secgroups:create",
    "secgroups:rule_add",
    "networks:create",
    "routers:create",
    "routers:attach",
    "routers:gateway",
    "fips:allocate",
    "fips:associate",
    "fips:disassociate",
    "fips:release",
    "volumes:create",
    "volumes:attach",
    "volumes:detach",
    "volumes:snapshot",
    "objects:put",
    "objects:get",
    "connectivity:check",
    "telemetry:record",
    "alarms:create",
    "groups:create",
    "faults:inject",
    "clock:advance",
    "events:read",
]

_ADMIN_ACTIONS = [
    "identity:create_tenant",
    "identity:create_user",
    "identity:assign_role",
    "identity:register_service",
]


def default_policy() -> dict:
    policy = {action: "member" for action in _MEMBER_ACTIONS}
    policy.update({action: "admin" for action in _ADMIN_ACTIONS})
    policy["identity:lookup_endpoint"] = "any"
    return policy


@record
class Tenant:
    id: str = field(ref=True)
    name: str = field(rule=non_empty)


@record
class User:
    id: str = field(ref=True)
    name: str
    salt: str
    digest: str


@record
class Token:
    id: str = field(ref=True)
    tenant_id: str = field(ref=True)
    roles: list
    expires_at: int


@record
class IdentityState:
    tenants: dict = field(default_factory=dict, codec=keyed(Tenant, "id"))
    users: dict = field(default_factory=dict, codec=keyed(User, "id"))
    assignments: list = field(default_factory=list, rule=each(rule(
        lambda row: type(row) is list and len(row) == 3 and not strings(row),
        "must each be [user id, tenant id, role], got {!r}")))
    tokens: dict = field(default_factory=dict, codec=keyed(Token, "id"))
    catalog: dict = field(default_factory=dict)  # service name -> url
    policy: dict = field(default_factory=dict)  # action -> required role


_STATE = one(IdentityState, "identity")


def _digest(salt: str, credential: str) -> str:
    from hashlib import sha256  # a CLI call that hashes nothing does not pay for it
    return sha256(f"{salt}:{credential}".encode()).hexdigest()


class IdentityService:
    def __init__(self, core, policy=None):
        self.core = core
        set_fields(self, IdentityState(
            policy=dict(policy) if policy is not None else default_policy()))

    # -- bootstrap ----------------------------------------------------------

    def bootstrap(self, admin_credential: str):
        """Create the initial admin tenant/user and the default services."""
        tenant = self._add_tenant("admin")
        user = self._add_user("admin", admin_credential)
        self.assignments.append([user.id, tenant.id, "admin"])
        self.assignments.append([user.id, tenant.id, "member"])
        for service in ("identity", "image", "compute", "network", "volume",
                        "object-store", "telemetry", "orchestration"):
            self.catalog[service] = f"local:///{service}"

    # -- lookups ------------------------------------------------------------

    def tenant_by_name(self, name):
        for tenant in self.tenants.values():
            if tenant.name == name:
                return tenant
        return None

    def user_by_name(self, name):
        for user in self.users.values():
            if user.name == name:
                return user
        return None

    # -- admin-gated writes ---------------------------------------------------

    def _add_tenant(self, name):
        check(Tenant, {"name": name}, "tenant", ConflictError)
        if self.tenant_by_name(name) is not None:
            raise ConflictError(f"tenant {name!r} already exists")
        tenant = Tenant(id=self.core.new_uuid(), name=name)
        self.tenants[tenant.id] = tenant
        self.core.tenant_created(tenant)
        return tenant

    def _add_user(self, name, credential):
        if self.user_by_name(name) is not None:
            raise ConflictError(f"user {name!r} already exists")
        salt = self.core.new_hex(16)
        user = User(id=self.core.new_uuid(), name=name, salt=salt, digest=_digest(salt, credential))
        self.users[user.id] = user
        return user

    def create_tenant(self, name, token_id):
        self.require(token_id, "identity:create_tenant")
        return self._add_tenant(name)

    def create_user(self, name, credential, token_id):
        self.require(token_id, "identity:create_user")
        return self._add_user(name, credential)

    def assign_role(self, user_name, tenant_name, role, token_id):
        self.require(token_id, "identity:assign_role")
        user = self.user_by_name(user_name)
        if user is None:
            raise NotFoundError(f"user {user_name!r} not found")
        tenant = self.tenant_by_name(tenant_name)
        if tenant is None:
            raise NotFoundError(f"tenant {tenant_name!r} not found")
        entry = [user.id, tenant.id, role]
        if entry in self.assignments:
            raise ConflictError(f"role {role!r} already assigned")
        self.assignments.append(entry)
        return entry

    # -- authentication and authorization -------------------------------------

    def authenticate(self, user_name, credential, tenant_name) -> Token:
        user = self.user_by_name(user_name)
        if user is None or _digest(user.salt, credential) != user.digest:
            # unknown user and wrong credential are indistinguishable
            raise AuthError("invalid user name or credential")
        tenant = self.tenant_by_name(tenant_name)
        if tenant is None:
            raise AuthError(f"no role in tenant {tenant_name!r}")
        roles = [r for (u, t, r) in self.assignments if u == user.id and t == tenant.id]
        if not roles:
            raise AuthError(f"no role in tenant {tenant_name!r}")
        token = Token(
            id=self.core.new_hex(32),
            tenant_id=tenant.id,
            roles=sorted(roles),
            expires_at=self.core.tick + DEFAULT_TOKEN_TTL,
        )
        self.tokens[token.id] = token
        return token

    def validate_token(self, token_id) -> Token:
        token = self.tokens.get(token_id or "")
        if token is None or token.expires_at <= self.core.tick:
            raise AuthError("invalid or expired token")
        return token

    def require(self, token_id, action) -> Token:
        token = self.validate_token(token_id)
        required = self.policy.get(action)  # unknown actions default to deny
        if required is None or (required != "any" and required not in token.roles):
            raise AuthError(f"not authorized for {action}")
        return token

    # -- service catalog -------------------------------------------------------

    def register_service(self, name, url, token_id):
        self.require(token_id, "identity:register_service")
        self.catalog[name] = url

    def lookup_endpoint(self, token_id, name) -> str:
        self.require(token_id, "identity:lookup_endpoint")
        url = self.catalog.get(name)
        if url is None:
            raise NotFoundError(f"unknown service {name!r}")
        return url

    # -- persistence -------------------------------------------------------------

    def to_dict(self, ids):
        return _STATE.dump(self, ids)

    def load_dict(self, data, ids):
        set_fields(self, _STATE.load(data, ids))
