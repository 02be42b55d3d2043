"""Operator command line.

One binary with hyphenated verbs (stack-create, stack-list, ...), a token
carried via --token or MINIMANO_TOKEN, and a state file via --state or
MINIMANO_STATE (default ./minimano-state.json). Output is a human table
by default or one JSON object per line with --format machine.

Exit codes: 0 success, 2 validation/usage, 3 authorization, 4 deployment
failure, 5 I/O, 6 not found.
"""

import argparse
import gc
import io
import json
import os
import sys
import time
from contextlib import redirect_stdout, suppress

from . import scenario as scenario_mod
from .codec import check
from .engine import CREATE_COMPLETE, CREATE_IN_PROGRESS, DELETE_COMPLETE
from .errors import DependencyCycleError, DeployError, MiniManoError, StateIOError, TemplateError
from .identity import IdentityState
from .lazy import LazyNames
from .nfvi import DIRECTIONS, PROTOCOLS
from .statefile import DEFAULT_STATE_PATH, load_world, locked_state, save_world
from .telemetry import ACTIONS, AGGREGATES, COMPARISONS, FAULT_KINDS, HealerConfig, MetricSample
from .world import World

# `hot` and `plan` are imported only by the verbs that parse a template
_TEMPLATE = LazyNames(globals(), {".hot": ("Finding", "parse_template", "validate_template"),
                                  ".plan": ("build_plan",)})
__getattr__ = _TEMPLATE.attribute

TOKEN_ENV = "MINIMANO_TOKEN"
STATE_ENV = "MINIMANO_STATE"


# ---------------------------------------------------------------------------
# output rendering


class Printer:
    def __init__(self, mode):
        self.mode = mode

    def table(self, headers, rows):
        if self.mode == "machine":
            for row in rows:
                print(json.dumps(dict(zip(headers, row)), separators=(",", ":")))
            return
        widths = [len(h) for h in headers]
        text_rows = [[_cell(v) for v in row] for row in rows]
        for row in text_rows:
            widths = [max(w, len(c)) for w, c in zip(widths, row)]
        print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
        for row in text_rows:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())

    def obj(self, data):
        if self.mode == "machine":
            print(json.dumps(data, separators=(",", ":")))
            return
        for key, value in data.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value)
            print(f"{key}: {_cell(value)}")

    def line(self, text, machine_obj):
        if self.mode == "machine":
            print(json.dumps(machine_obj, separators=(",", ":")))
        else:
            print(text)


def _cell(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# ---------------------------------------------------------------------------
# small helpers


def _read(path, what, binary=False):
    """The text (UTF-8) or the bytes of file `path`; a file that cannot be
    read or decoded is an I/O error naming `what` and the path."""
    try:
        with open(path, "rb" if binary else "r", encoding=None if binary else "utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StateIOError(f"cannot read {what} {path!r}: {exc}") from None


def _write(path, what, data: bytes):
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise StateIOError(f"cannot write {what}: {exc}") from None


def _json(text, what):
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:  # too deep a nesting is no valid JSON here
        raise TemplateError(f"{what} is not valid JSON: {exc}") from None


def _parse_kv_parameters(chunks):
    provided = {}
    for chunk in chunks or []:
        for pair in chunk.split(","):
            pair = pair.strip()
            if not pair:
                continue
            if "=" not in pair:
                raise TemplateError(f"parameters must be key=value pairs, got {pair!r}")
            key, value = pair.split("=", 1)
            provided[key.strip()] = value
    return provided


# ---------------------------------------------------------------------------
# handlers: identity


def cmd_tenant_create(world, args, out, claims):
    tenant = world.identity.create_tenant(args.name, args.token)
    out.obj({"id": tenant.id, "name": tenant.name})
    return 0


def cmd_user_create(world, args, out, claims):
    user = world.identity.create_user(args.name, args.password, args.token)
    out.obj({"id": user.id, "name": user.name})
    return 0


def cmd_role_assign(world, args, out, claims):
    world.identity.assign_role(args.user, args.tenant, args.role, args.token)
    out.line(f"assigned {args.role} to {args.user} in {args.tenant}",
             {"user": args.user, "tenant": args.tenant, "role": args.role})
    return 0


def cmd_token_issue(world, args, out, claims):
    token = world.identity.authenticate(args.user, args.password, args.tenant)
    out.obj({"token": token.id, "tenant_id": token.tenant_id,
             "roles": token.roles, "expires_at": token.expires_at})
    return 0


def cmd_service_register(world, args, out, claims):
    world.identity.register_service(args.name, args.url, args.token)
    out.line(f"registered {args.name} -> {args.url}", {"name": args.name, "url": args.url})
    return 0


def cmd_endpoint_lookup(world, args, out, claims):
    url = world.identity.lookup_endpoint(args.token, args.name)
    out.line(url, {"name": args.name, "url": url})
    return 0


# ---------------------------------------------------------------------------
# handlers: provider resources


def cmd_image_create(world, args, out, claims):
    if args.payload_file:
        payload = _read(args.payload_file, "payload file", binary=True)
    else:
        payload = (args.payload if args.payload is not None else args.name).encode()
    image = world.provider.register_image(
        claims.tenant_id, args.name, payload,
        generic=not args.not_generic, cloud_init=not args.no_cloud_init,
    )
    out.obj({"id": image.id, "name": image.name, "generic": image.generic,
             "cloud_init": image.cloud_init})
    return 0


def cmd_flavor_create(world, args, out, claims):
    flavor = world.provider.create_flavor(
        claims.tenant_id, args.name, args.vcpus, args.ram, args.disk
    )
    out.obj({"id": flavor.id, "name": flavor.name, "vcpus": flavor.vcpus,
             "ram_mib": flavor.ram_mib, "disk_gib": flavor.disk_gib})
    return 0


def cmd_keypair_create(world, args, out, claims):
    keypair, private_key = world.provider.create_keypair(claims.tenant_id, args.name)
    if out.mode == "machine":
        out.obj({"id": keypair.id, "name": keypair.name,
                 "public_key": keypair.public_key, "private_key": private_key})
    else:
        # the private half is shown exactly once, here
        print(f"name: {keypair.name}")
        print(f"public_key: {keypair.public_key}")
        print(private_key)
    return 0


def cmd_secgroup_create(world, args, out, claims):
    group = world.provider.create_security_group(claims.tenant_id, args.name)
    out.obj({"id": group.id, "name": group.name})
    return 0


def cmd_secgroup_rule_add(world, args, out, claims):
    world.provider.add_security_group_rule(
        claims.tenant_id, args.group, args.protocol, args.port_min, args.port_max,
        remote=args.remote, direction=args.direction,
    )
    out.line(f"rule added to {args.group}",
             {"group": args.group, "protocol": args.protocol,
              "port_min": args.port_min, "port_max": args.port_max, "remote": args.remote})
    return 0


def cmd_net_create(world, args, out, claims):
    network = world.provider.create_network(claims.tenant_id, args.name, args.cidr, args.gateway)
    out.obj({"id": network.id, "name": network.name, "cidr": network.cidr,
             "gateway": network.gateway})
    return 0


def cmd_router_create(world, args, out, claims):
    router = world.provider.create_router(claims.tenant_id, args.name, external=args.external)
    out.obj({"id": router.id, "name": router.name, "external_gateway": router.external_gateway})
    return 0


def cmd_router_attach(world, args, out, claims):
    world.provider.attach_subnet(claims.tenant_id, args.router, args.network)
    out.line(f"attached {args.network} to {args.router}",
             {"router": args.router, "network": args.network})
    return 0


def cmd_router_gateway_set(world, args, out, claims):
    world.provider.set_external_gateway(claims.tenant_id, args.router)
    out.line(f"external gateway set on {args.router}", {"router": args.router})
    return 0


def cmd_fip_allocate(world, args, out, claims):
    fip = world.provider.allocate_floating_ip(claims.tenant_id)
    out.obj({"id": fip.id, "address": fip.address})
    return 0


def cmd_fip_associate(world, args, out, claims):
    world.provider.associate_floating_ip(args.fip, args.instance)
    out.line(f"associated {args.fip} with {args.instance}",
             {"fip": args.fip, "instance": args.instance})
    return 0


def cmd_fip_disassociate(world, args, out, claims):
    world.provider.disassociate_floating_ip(args.fip)
    out.line(f"disassociated {args.fip}", {"fip": args.fip})
    return 0


def cmd_fip_release(world, args, out, claims):
    world.provider.release_floating_ip(args.fip)
    out.line(f"released {args.fip}", {"fip": args.fip})
    return 0


def cmd_volume_create(world, args, out, claims):
    volume = world.provider.create_volume(claims.tenant_id, args.size)
    out.obj({"id": volume.id, "size_gib": volume.size_gib})
    return 0


def cmd_volume_attach(world, args, out, claims):
    world.provider.attach_volume(args.volume, args.instance)
    out.line(f"attached {args.volume} to {args.instance}",
             {"volume": args.volume, "instance": args.instance})
    return 0


def cmd_volume_detach(world, args, out, claims):
    world.provider.detach_volume(args.volume)
    out.line(f"detached {args.volume}", {"volume": args.volume})
    return 0


def cmd_volume_snapshot(world, args, out, claims):
    snapshot = world.provider.snapshot_volume(args.volume)
    out.obj({"id": snapshot.id, "volume": args.volume, "taken_at": snapshot.taken_at})
    return 0


def cmd_object_put(world, args, out, claims):
    if args.file:
        payload = _read(args.file, "object file", binary=True)
    else:
        payload = (args.data or "").encode()
    world.provider.put_object(claims.tenant_id, args.container, args.name, payload)
    out.line(f"stored {args.container}/{args.name} ({len(payload)} bytes)",
             {"container": args.container, "name": args.name, "bytes": len(payload)})
    return 0


def cmd_object_get(world, args, out, claims):
    payload = world.provider.get_object(claims.tenant_id, args.container, args.name)
    if args.output:
        _write(args.output, "output file", payload)
        out.line(f"wrote {len(payload)} bytes to {args.output}",
                 {"container": args.container, "name": args.name, "bytes": len(payload)})
    elif out.mode == "machine":
        import base64
        out.obj({"container": args.container, "name": args.name,
                 "payload_b64": base64.b64encode(payload).decode()})
    elif sys.stdout is not None:  # None when the process started with fd 1 closed
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return 0


def cmd_connectivity_check(world, args, out, claims):
    result = world.provider.check_connectivity(args.src, args.dst, args.protocol, args.port)
    out.obj({"allowed": result.allowed, "reason": result.reason,
             "observed_dst": result.observed_dst})
    return 0


# ---------------------------------------------------------------------------
# handlers: stacks


def cmd_template_validate(world, args, out, claims):
    source = _read(args.file, "template")
    _TEMPLATE.bind()
    doc = parse_template(source)
    report = validate_template(doc)
    try:
        build_plan(doc)
    except DependencyCycleError as exc:
        report.findings.append(Finding("error", "resources", exc.message))
    for finding in report.findings:
        out.line(str(finding), {"severity": finding.severity, "path": finding.path,
                                "message": finding.message})
    out.line(f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)",
             {"errors": len(report.errors), "warnings": len(report.warnings)})
    return 0 if report.ok else 2


def cmd_stack_create(world, args, out, claims):
    source = _read(args.file, "template")
    _TEMPLATE.bind()
    doc = parse_template(source)
    provided = _parse_kv_parameters(args.parameters)
    stack = world.engine.create_stack(
        args.name, doc, provided, token=args.token,
        template_dir=os.path.dirname(os.path.abspath(args.file)),
    )
    out.obj({"id": stack.id, "name": stack.name, "status": stack.status})
    args._created_stack_id = stack.id
    return 0


def cmd_stack_list(world, args, out, claims):
    rows = world.engine.list_stacks(args.token)
    out.table(["id", "name", "status", "created_at"],
              [(r["id"], r["name"], r["status"], r["created_at"]) for r in rows])
    return 0


def cmd_stack_show(world, args, out, claims):
    detail = world.engine.show_stack(args.uuid, args.token)
    if out.mode == "machine":
        out.obj(detail)
    else:
        for key in ("id", "name", "status", "created_at", "failure_reason"):
            print(f"{key}: {_cell(detail[key])}")
        print(f"parameters: {json.dumps(detail['parameters'])}")
        print(f"outputs: {json.dumps(detail['outputs'])}")
        out.table(
            ["resource", "type", "state", "id"],
            [(n, r["type"], r["state"], r["id"]) for n, r in detail["resources"].items()],
        )
    return 0


def cmd_stack_delete(world, args, out, claims):
    status = world.engine.delete_stack(args.uuid, args.token)
    out.line(f"{args.uuid}: {status}", {"id": args.uuid, "status": status})
    return 0 if status == DELETE_COMPLETE else 4


def cmd_signal(world, args, out, claims):
    ack = world.engine.deliver_signal(args.url, _json(args.payload, "signal payload"))
    if ack == "ignored-already-resolved":
        print("warning: wait condition already resolved; signal ignored", file=sys.stderr)
    out.line(ack, {"ack": ack})
    return 0


# ---------------------------------------------------------------------------
# handlers: telemetry and autonomic verbs


def cmd_alarm_create(world, args, out, claims):
    alarm = world.telemetry.create_alarm(
        args.name, args.metric, args.aggregate, args.comparison,
        args.threshold, args.window, args.target, args.action,
    )
    out.obj({"id": alarm.id, "name": alarm.name, "state": alarm.state})
    return 0


def cmd_group_create(world, args, out, claims):
    group = world.telemetry.create_group(
        args.name, claims.tenant_id, _json(args.member, "--member"), args.min, args.max,
        args.desired,
    )
    out.obj({"id": group.id, "name": group.name, "desired": group.desired,
             "members": group.members})
    return 0


def cmd_metric_push(world, args, out, claims):
    check(MetricSample, {"value": args.value}, "sample", TemplateError)
    world.telemetry.record_metric(args.resource, args.metric, args.value)
    out.line(f"recorded {args.metric}={args.value} at tick {world.tick}",
             {"resource": args.resource, "metric": args.metric,
              "value": args.value, "tick": world.tick})
    return 0


def cmd_fault_inject(world, args, out, claims):
    world.telemetry.inject_fault(args.target, args.kind)
    out.line(f"injected {args.kind} on {args.target}",
             {"target": args.target, "fault_kind": args.kind})
    return 0


def cmd_clock_advance(world, args, out, claims):
    tick = world.advance_clock(args.ticks)
    out.line(f"tick: {tick}", {"tick": tick})
    return 0


def cmd_events_tail(world, args, out, claims):
    events = world.events[-args.count:] if args.count else world.events
    if out.mode == "machine":
        for event in events:
            print(json.dumps(event, separators=(",", ":")))
    else:
        out.table(
            ["tick", "kind", "subject", "detail"],
            [(e["tick"], e["kind"], e["subject"], json.dumps(e["detail"])) for e in events],
        )
    return 0


def cmd_scenario_run(world, args, out, claims):
    spec = scenario_mod.load_scenario(args.file)
    world = scenario_mod.run_scenario(spec, seed=args.seed)
    lines = scenario_mod.event_log_lines(world)
    log = ("\n".join(lines) + ("\n" if lines else "")).encode()
    snapshot = json.dumps(world.to_snapshot(), separators=(",", ":")).encode()
    for path, what, data in ((args.events_out, "event log", log),
                             (args.snapshot_out, "snapshot", snapshot)):
        if path:
            _write(path, what, data)
    import hashlib  # a CLI call that hashes nothing does not pay for it

    out.obj({
        "ticks": world.tick,
        "events": len(world.events),
        "event_log_sha256": hashlib.sha256(log).hexdigest(),
        "snapshot_sha256": hashlib.sha256(snapshot).hexdigest(),
    })
    return 0


def cmd_init(world, args, out, claims):
    if os.path.exists(args.state) and not args.force:
        raise StateIOError(f"state file {args.state!r} already exists (use --force)")
    hosts, policy = (_json(_read(path, what), f"{what} {path!r}") if path else None
                     for path, what in ((args.hosts, "host inventory"),
                                        (args.policy, "policy file")))
    if args.policy:
        check(IdentityState, {"policy": policy}, "policy file", TemplateError)
    world = World(
        seed=args.seed, hosts=hosts, policy=policy,
        admin_credential=args.admin_password, template_dir=args.template_dir,
    )
    healer = world.telemetry.healer = HealerConfig(args.healer_enabled, args.healer_interval)
    check(HealerConfig, vars(healer), "healer", TemplateError)
    with locked_state(args.state):  # `--force` must not race a locked writer
        save_world(world, args.state)
    out.obj({"state": args.state, "seed": world.seed,
             "hosts": sorted(world.provider.hosts)})
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _noop(parser):
    pass


def _count(text) -> int:
    """An argparse type: an integer of 0 or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _init_args(p):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--hosts", help="JSON host inventory file")
    p.add_argument("--policy", help="JSON policy file (action -> role)")
    p.add_argument("--admin-password", default="admin")
    p.add_argument("--template-dir", default=None)
    p.add_argument("--healer-enabled", action="store_true")
    p.add_argument("--healer-interval", type=int, default=5)
    p.add_argument("--force", action="store_true")


# verb -> (handler, what it does with the state file: None nothing, False
# read, True read and save; the policy action `main` requires before the
# handler, None where the service requires its own; adds its arguments; help)
VERBS = {
    "init": (cmd_init, None, None, _init_args, "create a fresh state file"),

    "tenant-create": (cmd_tenant_create, True, None,
        lambda p: p.add_argument("name"), "create a tenant (admin)"),
    "user-create": (cmd_user_create, True, None,
        lambda p: (p.add_argument("name"), p.add_argument("--password", required=True)),
        "create a user (admin)"),
    "role-assign": (cmd_role_assign, True, None,
        lambda p: (p.add_argument("user"), p.add_argument("tenant"), p.add_argument("role")),
        "assign a role to a user in a tenant (admin)"),
    "token-issue": (cmd_token_issue, True, None,
        lambda p: (p.add_argument("--user", required=True),
                   p.add_argument("--password", required=True),
                   p.add_argument("--tenant", required=True)),
        "authenticate and print a token"),
    "service-register": (cmd_service_register, True, None,
        lambda p: (p.add_argument("name"), p.add_argument("url")),
        "register a service endpoint (admin)"),
    "endpoint-lookup": (cmd_endpoint_lookup, False, None,
        lambda p: p.add_argument("name"), "look up a service endpoint"),

    "image-create": (cmd_image_create, True, "images:create",
        lambda p: (p.add_argument("name"),
                   p.add_argument("--payload"),
                   p.add_argument("--payload-file"),
                   p.add_argument("--not-generic", action="store_true"),
                   p.add_argument("--no-cloud-init", action="store_true")),
        "register a disk image"),
    "flavor-create": (cmd_flavor_create, True, "flavors:create",
        lambda p: (p.add_argument("name"),
                   p.add_argument("--vcpus", type=int, required=True),
                   p.add_argument("--ram", type=int, required=True),
                   p.add_argument("--disk", type=int, required=True)),
        "define a flavor"),
    "keypair-create": (cmd_keypair_create, True, "keypairs:create",
        lambda p: p.add_argument("name"), "generate a keypair; prints the private key once"),
    "secgroup-create": (cmd_secgroup_create, True, "secgroups:create",
        lambda p: p.add_argument("name"), "create a security group"),
    "secgroup-rule-add": (cmd_secgroup_rule_add, True, "secgroups:rule_add",
        lambda p: (p.add_argument("group"),
                   p.add_argument("--protocol", required=True, choices=PROTOCOLS),
                   p.add_argument("--port-min", type=int, default=0),
                   p.add_argument("--port-max", type=int, default=65535),
                   p.add_argument("--remote", default="0.0.0.0/0",
                                  help="CIDR or security group name"),
                   p.add_argument("--direction", default="ingress", choices=DIRECTIONS)),
        "add a security group rule"),
    "net-create": (cmd_net_create, True, "networks:create",
        lambda p: (p.add_argument("name"),
                   p.add_argument("--cidr", required=True),
                   p.add_argument("--gateway")),
        "create a virtual network"),
    "router-create": (cmd_router_create, True, "routers:create",
        lambda p: (p.add_argument("name"), p.add_argument("--external", action="store_true")),
        "create a virtual router"),
    "router-attach": (cmd_router_attach, True, "routers:attach",
        lambda p: (p.add_argument("router"), p.add_argument("network")),
        "attach a network's subnet to a router"),
    "router-gateway-set": (cmd_router_gateway_set, True, "routers:gateway",
        lambda p: p.add_argument("router"), "give a router an external gateway"),
    "fip-allocate": (cmd_fip_allocate, True, "fips:allocate", _noop,
        "allocate a floating address"),
    "fip-associate": (cmd_fip_associate, True, "fips:associate",
        lambda p: (p.add_argument("fip"), p.add_argument("instance")),
        "associate a floating address with an instance"),
    "fip-disassociate": (cmd_fip_disassociate, True, "fips:disassociate",
        lambda p: p.add_argument("fip"), "disassociate a floating address"),
    "fip-release": (cmd_fip_release, True, "fips:release",
        lambda p: p.add_argument("fip"), "release (deallocate) a floating address"),
    "volume-create": (cmd_volume_create, True, "volumes:create",
        lambda p: p.add_argument("--size", type=int, required=True), "create a volume"),
    "volume-attach": (cmd_volume_attach, True, "volumes:attach",
        lambda p: (p.add_argument("volume"), p.add_argument("instance")), "attach a volume"),
    "volume-detach": (cmd_volume_detach, True, "volumes:detach",
        lambda p: p.add_argument("volume"), "detach a volume"),
    "volume-snapshot": (cmd_volume_snapshot, True, "volumes:snapshot",
        lambda p: p.add_argument("volume"), "snapshot a volume"),
    "object-put": (cmd_object_put, True, "objects:put",
        lambda p: (p.add_argument("container"), p.add_argument("name"),
                   p.add_argument("--data"), p.add_argument("--file")),
        "store an object"),
    "object-get": (cmd_object_get, False, "objects:get",
        lambda p: (p.add_argument("container"), p.add_argument("name"),
                   p.add_argument("--output")),
        "fetch an object"),
    "connectivity-check": (cmd_connectivity_check, False, "connectivity:check",
        lambda p: (p.add_argument("src"), p.add_argument("dst"),
                   p.add_argument("--protocol", required=True, choices=PROTOCOLS),
                   p.add_argument("--port", type=int)),
        "evaluate reachability between two endpoints"),

    "template-validate": (cmd_template_validate, None, None,
        lambda p: p.add_argument("-f", "--file", required=True),
        "parse and validate a template without deploying"),
    "stack-create": (cmd_stack_create, True, "stacks:create",  # before the file is read
        lambda p: (p.add_argument("name"),
                   p.add_argument("-f", "--file", required=True),
                   p.add_argument("--parameters", action="append",
                                  help="key=value[,key=value...]"),
                   p.add_argument("--no-wait", action="store_true")),
        "deploy a template as a stack"),
    "stack-list": (cmd_stack_list, False, None, _noop, "list this tenant's stacks"),
    "stack-show": (cmd_stack_show, False, None,
        lambda p: p.add_argument("uuid"), "show one stack in detail"),
    "stack-delete": (cmd_stack_delete, True, None,
        lambda p: p.add_argument("uuid"), "delete a stack and its resources"),
    "signal": (cmd_signal, True, "stacks:signal",  # before the payload is parsed
        lambda p: (p.add_argument("url"), p.add_argument("payload")),
        "deliver a wait-condition signal payload"),

    "alarm-create": (cmd_alarm_create, True, "alarms:create",
        lambda p: (p.add_argument("name"),
                   p.add_argument("--metric", required=True),
                   p.add_argument("--aggregate", required=True, choices=[*AGGREGATES]),
                   p.add_argument("--comparison", required=True, choices=[*COMPARISONS]),
                   p.add_argument("--threshold", type=float, required=True),
                   p.add_argument("--window", type=int, required=True),
                   p.add_argument("--target", required=True),
                   p.add_argument("--action", required=True, choices=ACTIONS)),
        "define a telemetry alarm"),
    "group-create": (cmd_group_create, True, "groups:create",
        lambda p: (p.add_argument("name"),
                   p.add_argument("--min", type=int, required=True),
                   p.add_argument("--max", type=int, required=True),
                   p.add_argument("--desired", type=int, required=True),
                   p.add_argument("--member", required=True,
                                  help="instance spec as JSON")),
        "create a scaling group"),
    "metric-push": (cmd_metric_push, True, "telemetry:record",
        lambda p: (p.add_argument("resource"), p.add_argument("metric"),
                   p.add_argument("value", type=float)),
        "record one metric sample at the current tick"),
    "fault-inject": (cmd_fault_inject, True, "faults:inject",
        lambda p: (p.add_argument("target"),
                   p.add_argument("--kind", default="instance_crash", choices=FAULT_KINDS)),
        "crash an instance"),
    "clock-advance": (cmd_clock_advance, True, "clock:advance",
        lambda p: p.add_argument("ticks", type=int),
        "advance the logical clock"),
    "events-tail": (cmd_events_tail, False, "events:read",
        lambda p: p.add_argument("-n", "--count", type=_count, default=20),
        "print the tail of the event log"),
    "scenario-run": (cmd_scenario_run, None, None,
        lambda p: (p.add_argument("file"),
                   p.add_argument("--seed", type=int, default=None),
                   p.add_argument("--events-out"),
                   p.add_argument("--snapshot-out")),
        "replay a scenario file in a fresh world"),
}


def _common_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--state", default=None, help="state file path (or MINIMANO_STATE)")
    common.add_argument("--token", default=None, help="auth token (or MINIMANO_TOKEN)")
    common.add_argument("--format", choices=["table", "machine"], default="table")
    common.add_argument("--tick-ms", type=_count, default=100,
                        help="wall milliseconds per tick while blocking")
    return common


class _Parser(argparse.ArgumentParser):
    """The top-level parser. It adds verb subparsers only when it parses:
    the verb that argv names first, or every verb when argv asks for help,
    names no verb or names an unknown one. A call builds one subparser,
    not one per verb."""

    def __init__(self):
        super().__init__(prog="minimano", description=__doc__.splitlines()[0])
        self._verbs = self.add_subparsers(dest="verb", required=True,
                                          parser_class=argparse.ArgumentParser)

    def add_verbs(self, names):
        common = _common_parser()
        for name in names:
            if name not in self._verbs.choices:
                *_, configure, help_text = VERBS[name]
                parser = self._verbs.add_parser(name, parents=[common], help=help_text)
                configure(parser)
                parser.set_defaults(_verb=name)

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        self.add_verbs(args[:1] if args and args[0] in VERBS else VERBS)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        # the usage line lists every verb in table order, however many this
        # parser has built
        full = _Parser()
        full.add_verbs(VERBS)
        argparse.ArgumentParser.error(full, message)


def build_parser():
    return _Parser()


# ---------------------------------------------------------------------------
# driver


def _resolve_common(args):
    args.state = args.state or os.environ.get(STATE_ENV) or DEFAULT_STATE_PATH
    args.token = args.token or os.environ.get(TOKEN_ENV)


def _wait_for_stack(path, stack_id, tick_ms):
    """Advance the clock one tick at a time until the stack is terminal,
    releasing the state lock between ticks so signals can interleave."""
    while True:
        with locked_state(path):
            world = load_world(path)
            stack = world.engine.stacks[stack_id]
            if stack.status != CREATE_IN_PROGRESS:
                return stack
            world.advance_clock(1)
            save_world(world, path)
        if tick_ms:
            time.sleep(tick_ms / 1000.0)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _resolve_common(args)
    out = Printer(args.format)
    handler, saves, action, *_ = VERBS[args.verb]
    try:
        if saves is None:
            return handler(None, args, out, None)

        held = io.StringIO()  # a saving verb's output, written after the save
        with locked_state(args.state):
            world = load_world(args.state)
            claims = world.identity.require(args.token, action) if action else None
            with redirect_stdout(held if saves else sys.stdout):
                code = handler(world, args, out, claims)
            if saves:
                save_world(world, args.state)
        print(held.getvalue(), end="")

        if args.verb == "stack-create":
            stack = world.engine.stacks[args._created_stack_id]
            if stack.status == CREATE_IN_PROGRESS and not args.no_wait:
                stack = _wait_for_stack(args.state, stack.id, args.tick_ms)
            if stack.status not in (CREATE_COMPLETE, CREATE_IN_PROGRESS):
                print(f"error: {stack.failure_reason}", file=sys.stderr)
                return DeployError.exit_code
        return code
    except MiniManoError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return StateIOError.exit_code


def run():
    """Process entry of `python -m minimano.cli` and the `minimano` script.

    Runs `main` with the cycle collector off, flushes the output and ends
    the process with `os._exit`, skipping the interpreter's teardown. That
    teardown has nothing left to do: every save is fsynced and renamed and
    the state lock released before `main` returns, every file is closed by
    `with`, and the package registers no `atexit` hook. A call leaves a
    fixed few dozen cycles (argparse's); refcounts free the world.
    """
    gc.disable()
    code = main()
    try:
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()
    except OSError as exc:
        if code == 0:  # a failed verb has said why already
            code = StateIOError.exit_code
            with suppress(OSError):
                print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
    with suppress(OSError):  # a broken stderr leaves nowhere to report to
        if sys.stderr is not None:
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
