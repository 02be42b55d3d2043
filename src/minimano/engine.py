"""Stack orchestration.

A stack create builds a deployment plan from the template's dependency
graph and walks it wave by wave, in declaration order inside each wave.
Deployment is resumable: a wait condition pauses the walk until enough
confirmation signals arrive (or its deadline passes), and a nested stack
pauses the parent until the child finishes. Failures never roll back;
whatever was created is retained for inspection and removed by delete.

Wait-signal addresses look like ``mm://wait/<handle-id>`` and accept the
single-line JSON payload ``{"status": "SUCCESS"|"FAILURE", "id": ...,
"data": ...}`` where id and data are optional.
"""

from __future__ import annotations

import json
import os
import random
from functools import cached_property

from .codec import (dump_attrs, each, field, keyed, load_attrs, one_of, record, refusal, rule,
                    strings)
from .errors import (
    ConflictError,
    DeployError,
    MiniManoError,
    NotFoundError,
    TemplateError,
)
from .lazy import LazyNames
from .resource_types import (
    RANDOM_STRING_TYPE,
    SEQUENCES,
    SERVER_TYPE,
    TYPES,
    WAIT_CONDITION_TYPE,
    WAIT_HANDLE_TYPE,
    is_nested_type,
)

# the template layer, imported when a stack is first created or resumed: a
# verb that only reads or deletes stacks never loads it
_TEMPLATE = LazyNames(globals(), {
    ".hot": ("EvalContext", "bind_parameters", "evaluate_expr",
             "parse_template", "serialize_template", "validate_template"),
    ".plan": ("build_plan",),
})
__getattr__ = _TEMPLATE.attribute

SIGNAL_URL_PREFIX = "mm://wait/"
NESTING_LIMIT = 8

CREATE_IN_PROGRESS = "CREATE_IN_PROGRESS"
CREATE_COMPLETE = "CREATE_COMPLETE"
CREATE_FAILED = "CREATE_FAILED"
DELETE_IN_PROGRESS = "DELETE_IN_PROGRESS"
DELETE_COMPLETE = "DELETE_COMPLETE"
DELETE_FAILED = "DELETE_FAILED"

_BLOCKED = object()


@record
class ResourceRecord:
    name: str
    uuid: str = field(ref=True)
    type: str
    state: str = field(rule=one_of(("IN_PROGRESS", "COMPLETE", "FAILED", "DELETED")))
    attributes: dict = field(default_factory=dict)
    physical_id: str | None = field(default=None, ref=True)
    failure: str | None = None


@record
class Stack:
    id: str = field(ref=True)
    name: str
    tenant_id: str = field(ref=True)
    status: str = field(rule=one_of((CREATE_IN_PROGRESS, CREATE_COMPLETE, CREATE_FAILED,
                                     DELETE_IN_PROGRESS, DELETE_COMPLETE, DELETE_FAILED)))
    bound: dict
    waves: list = field(rule=each(rule(lambda wave: type(wave) is list and not strings(wave),
                                       "must be lists of resource names, got {!r}")))
    records: dict = field(default_factory=dict, codec=keyed(ResourceRecord, "name"))
    outputs: dict = field(default_factory=dict)
    parent: list | None = field(default=None, rule=rule(  # [stack id, resource name]
        lambda parent: parent is None or len(parent) == 2 and not strings(parent),
        "must be null or [stack id, resource name], got {!r}"))
    depth: int = 0
    created_at: int = 0
    failure_reason: str | None = None

    @cached_property
    def deployed(self) -> tuple:
        """(resource ids, resource attributes) of the COMPLETE records, by
        name: built from `records` when first read, then kept by
        `StackEngine._complete_resource`."""
        ids, attrs = {}, {}
        for name, record in self.records.items():
            if record.state == "COMPLETE":
                ids[name] = record.uuid
                attrs[name] = record.attributes
        return ids, attrs


@record
class StackRun:
    stack_id: str = field(ref=True)
    token_id: str = field(ref=True)
    wave_idx: int = 0
    pos_idx: int = 0
    blocker: list | None = None  # ["wait", handle_id] | ["child", stack_id]
    template_dir: str | None = None
    source: str  # the stack's template, kept only while this run is pending

    @cached_property
    def source(self) -> str:
        """The text `doc` was parsed from, read when the run is first saved."""
        return serialize_template(self.doc)  # looked up at call time, so wrappers see it

    @cached_property
    def doc(self) -> TemplateDoc:
        """The parsed template: set by `create_stack`, or parsed from the
        loaded `source` when the run resumes."""
        _TEMPLATE.bind()
        return parse_template(self.source)


@record
class SignalPayload:
    """A confirmation signal: a status, and optional text `id` and `data`."""
    status: str = field(rule=one_of(("SUCCESS", "FAILURE")))
    id: str = ""
    data: str = ""


def signal_refusal(payload) -> str | None:
    """Why `payload` is no `SignalPayload` object, or None."""
    if type(payload) is not dict or payload.keys() - {"status", "id", "data"}:
        return f"payload must be an object of status, id and data, got {payload!r}"
    return refusal(SignalPayload, {"status": None, **payload})


@record
class WaitHandle:
    id: str = field(ref=True)
    stack_id: str = field(ref=True)
    signals: dict = field(default_factory=dict, rule=each(signal_refusal))  # signal id -> payload


@record
class WaitCondition:
    handle_id: str = field(ref=True)
    stack_id: str = field(ref=True)
    required: int
    deadline: int
    outcome: str = field(default="PENDING",
                         rule=one_of(("PENDING", "SUCCESS", "TIMEOUT", "FAILURE_SIGNALED")))


# the persisted layout, in snapshot order
_SCHEMA = {
    "stacks": keyed(Stack, "id"),
    "runs": keyed(StackRun, "stack_id"),
    "handles": keyed(WaitHandle, "id"),
    "conditions": keyed(WaitCondition, "handle_id"),
}


def handle_url(handle_id: str) -> str:
    return SIGNAL_URL_PREFIX + handle_id


def _handle_id_from_ref(ref: str) -> str:
    if ref.startswith(SIGNAL_URL_PREFIX):
        return ref[len(SIGNAL_URL_PREFIX):]
    return ref


class StackEngine:
    def __init__(self, core, identity, provider, template_dir=None):
        self.core = core
        self.identity = identity
        self.provider = provider
        self.template_dir = template_dir
        self.stacks = {}  # id -> Stack
        self.runs = {}  # stack id -> StackRun
        self.handles = {}  # handle id -> WaitHandle
        self.conditions = {}  # handle id -> WaitCondition

    # -- create -----------------------------------------------------------------

    def create_stack(self, name, doc: TemplateDoc, provided=None, token=None,
                     template_dir=None, parent=None, depth=0) -> Stack:
        claims = self.identity.require(token, "stacks:create")
        if doc.source is None:  # a pending run stores the text it was parsed from
            raise TemplateError("template has no source text: parse it with parse_template")
        _TEMPLATE.bind()
        report = validate_template(doc)
        if not report.ok:
            raise TemplateError(
                "template is not deployable: " + "; ".join(str(f) for f in report.errors)
            )
        for stack in self.stacks.values():
            if (
                stack.tenant_id == claims.tenant_id
                and stack.name == name
                and stack.status != DELETE_COMPLETE
            ):
                raise ConflictError(f"stack name {name!r} already in use")
        bound = bind_parameters(doc, provided or {})
        plan = build_plan(doc)
        stack = Stack(
            id=self.core.new_uuid(),
            name=name,
            tenant_id=claims.tenant_id,
            status=CREATE_IN_PROGRESS,
            bound=bound,
            waves=plan.waves,
            parent=parent,
            depth=depth,
            created_at=self.core.tick,
        )
        self.stacks[stack.id] = stack
        self.core.emit("stack.create.start", stack=stack.id, name=name)
        run = StackRun(stack_id=stack.id, token_id=token, template_dir=template_dir)
        run.doc = doc
        self.runs[stack.id] = run
        self._pump_run(run)
        return stack

    # -- the resumable deployment walk ----------------------------------------------

    def _pump_run(self, run: StackRun):
        """The one step function of a deployment: settle the resource the
        run is blocked on, if any, then walk on until a resource blocks or
        the create ends."""
        stack = self.stacks[run.stack_id]
        while True:
            if run.wave_idx >= len(stack.waves):
                self._finalize_create(run, stack)
                return
            wave = stack.waves[run.wave_idx]
            if run.pos_idx >= len(wave):
                run.wave_idx += 1
                run.pos_idx = 0
                continue
            rname = wave[run.pos_idx]
            if run.blocker is None:
                rdef = run.doc.resources[rname]  # a source that fails to parse fails the verb
                stack.records[rname] = ResourceRecord(
                    name=rname,
                    uuid=self.core.new_uuid(),
                    type=rdef.resource_type,
                    state="IN_PROGRESS",
                )
                self.core.emit("resource.create.start",
                               stack=stack.id, resource=rname, type=rdef.resource_type)
            record = stack.records[rname]
            try:
                if run.blocker is None:
                    result = self._deploy_resource(run, stack, rdef, record)
                else:
                    result = self._settle(run, stack, record)
            except MiniManoError as exc:
                record.state = "FAILED"
                record.failure = exc.message
                self.core.emit("resource.create.failed",
                               stack=stack.id, resource=rname, reason=exc.message)
                self._end_create(stack, CREATE_FAILED, f"resource {rname}: {exc.message}")
                return
            if result is _BLOCKED:
                return
            self._complete_resource(stack, record)
            run.pos_idx += 1

    def _settle(self, run: StackRun, stack: Stack, record: ResourceRecord):
        """Decide the resource `run` is blocked on, whether its signal,
        deadline or child ended before or after the walk reached it: the
        finished record, `_BLOCKED` while it is pending, or a DeployError."""
        kind, ref = run.blocker
        if kind == "child":
            child = self.stacks[ref]
            if child.status == CREATE_IN_PROGRESS:
                return _BLOCKED
            run.blocker = None
            if child.status != CREATE_COMPLETE:
                raise DeployError(f"nested stack failed: {child.failure_reason}")
            record.attributes = dict(child.outputs)
            return record
        condition = self.conditions[ref]
        signals = self.handles[ref].signals
        if condition.outcome == "PENDING":
            statuses = [p["status"] for p in signals.values()]
            if "FAILURE" in statuses:
                condition.outcome = "FAILURE_SIGNALED"
            elif statuses.count("SUCCESS") >= condition.required:
                condition.outcome = "SUCCESS"
            else:
                return _BLOCKED
        run.blocker = None
        detail = {"stack": stack.id, "resource": record.name, "handle": ref}
        if condition.outcome == "SUCCESS":
            record.attributes = {"data": json.dumps(
                {sid: p.get("data", "") for sid, p in signals.items() if p["status"] == "SUCCESS"}
            )}
            self.core.emit("wait.success", **detail)
            return record
        if condition.outcome == "FAILURE_SIGNALED":
            self.core.emit("wait.failure", **detail)
            raise DeployError("wait condition received a FAILURE signal")
        self.core.emit("wait.timeout", **detail)
        raise DeployError("wait condition timed out")

    def _resume(self, stack_id, blocker):
        """Walk on the run of `stack_id` if it is blocked on `blocker`, which
        a signal, a deadline or the end of a child's create may have ended."""
        run = self.runs.get(stack_id)
        if run is not None and run.blocker == blocker:
            self._pump_run(run)

    def _eval_context(self, stack: Stack) -> EvalContext:
        ids, attrs = stack.deployed
        return EvalContext(params=stack.bound, resource_ids=ids, resource_attrs=attrs)

    def _complete_resource(self, stack: Stack, record: ResourceRecord):
        """The one place a record becomes COMPLETE; its uuid and attributes
        are final by now."""
        record.state = "COMPLETE"
        ids, attrs = stack.deployed
        ids[record.name] = record.uuid
        attrs[record.name] = record.attributes
        self.core.emit("resource.create.complete",
                       stack=stack.id, resource=record.name, type=record.type)

    def _finalize_create(self, run: StackRun, stack: Stack):
        outputs = run.doc.outputs  # a source that fails to parse is not an output failure
        ctx = self._eval_context(stack)
        try:
            stack.outputs = {name: evaluate_expr(odef.value, ctx) for name, odef in outputs.items()}
        except MiniManoError as exc:
            self._end_create(stack, CREATE_FAILED, f"output evaluation: {exc.message}")
            return
        self._end_create(stack, CREATE_COMPLETE)

    def _end_create(self, stack: Stack, status, reason=None):
        """The one end of a create: its final status and event, then the
        parent run that may be blocked on it."""
        stack.status = status
        if status == CREATE_COMPLETE:
            self.core.emit("stack.create.complete", stack=stack.id, name=stack.name)
        else:
            stack.failure_reason = reason
            self.core.emit("stack.create.failed", stack=stack.id, reason=reason)
        self.runs.pop(stack.id, None)
        if stack.parent is not None:
            self._resume(stack.parent[0], ["child", stack.id])

    # -- per-type deployment ------------------------------------------------------------

    def _deploy_resource(self, run, stack, rdef, record):
        """Evaluate the properties, fill in the declared defaults (a null
        value counts as absent), refuse what the type's declaration refuses,
        then run the type's deploy step."""
        rtype = rdef.resource_type
        if is_nested_type(rtype):
            return self._deploy_nested(run, stack, rdef, record)
        if rtype not in self._STEPS:
            raise DeployError(f"unknown resource type {rtype!r}")
        spec = TYPES[rtype]
        ctx = self._eval_context(stack)
        props = dict(spec.defaults)
        for name, expr in rdef.properties.items():
            value = evaluate_expr(expr, ctx)
            if value is not None:
                props[name] = value
        for message in spec.missing(props):
            raise DeployError(message)
        for name, value in props.items():
            for path, message in spec.refusals(name, value):
                raise DeployError(f"{path}: {message}")
        deploy, _ = self._STEPS[rtype]
        return deploy(self, run, stack, rdef, record, props)

    def _deploy_server(self, run, stack, rdef, record, props):
        spec = {**props, "networks": [item["network"] for item in props.get("networks", ())]}
        instance = self.provider.launch_instance(
            stack.tenant_id,
            spec,
            name=f"{stack.name}-{rdef.name}",
            signal_sink=self.deliver_signal,
        )
        record.physical_id = instance.id
        first_address = next(iter(instance.fixed_ips.values()), None)
        record.attributes = {
            "first_address": first_address,
            "instance_id": instance.id,
            "name": instance.name,
        }
        return record

    def _deploy_random_string(self, run, stack, rdef, record, props):
        # keyed substream: the value depends only on (seed, stack, resource),
        # so a nested deployment matches a standalone one exactly
        rng = random.Random(f"{self.core.seed}:{stack.name}:{rdef.name}")
        alphabet = SEQUENCES[props["sequence"]]
        record.attributes = {"value": "".join(rng.choice(alphabet) for _ in range(props["length"]))}
        return record

    def _deploy_wait_handle(self, run, stack, rdef, record, props):
        handle = WaitHandle(id=record.uuid, stack_id=stack.id)
        self.handles[handle.id] = handle
        record.attributes = {"curl_cli": handle_url(handle.id), "handle_id": handle.id}
        return record

    def _deploy_wait_condition(self, run, stack, rdef, record, props):
        handle_id = props["handle"]
        if handle_id not in self.handles:
            raise DeployError("handle does not reference a deployed wait handle")
        if handle_id in self.conditions:
            raise DeployError("wait handle is already bound to a wait condition")
        condition = WaitCondition(
            handle_id=handle_id,
            stack_id=stack.id,
            required=props["count"],
            deadline=self.core.tick + props["timeout"],
        )
        self.conditions[handle_id] = condition
        run.blocker = ["wait", handle_id]
        return self._settle(run, stack, record)

    def _deploy_nested(self, run, stack, rdef, record):
        if stack.depth + 1 > NESTING_LIMIT:
            raise DeployError(f"nesting depth limit ({NESTING_LIMIT}) exceeded")
        path = self._resolve_template_path(rdef.resource_type, run.template_dir)
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise DeployError(f"cannot read nested template {rdef.resource_type!r}: {exc}") from None
        inner_doc = parse_template(source)
        ctx = self._eval_context(stack)
        provided = {name: evaluate_expr(expr, ctx) for name, expr in rdef.properties.items()}
        child = self.create_stack(
            name=f"{stack.name}-{rdef.name}",
            doc=inner_doc,
            provided=provided,
            token=run.token_id,
            template_dir=os.path.dirname(path),
            parent=[stack.id, rdef.name],
            depth=stack.depth + 1,
        )
        record.physical_id = child.id
        record.uuid = child.id
        run.blocker = ["child", child.id]
        return self._settle(run, stack, record)

    def _resolve_template_path(self, type_path, parent_dir):
        candidates = []
        if os.path.isabs(type_path):
            candidates.append(type_path)
        else:
            if parent_dir:
                candidates.append(os.path.join(parent_dir, type_path))
            if self.template_dir:
                candidates.append(os.path.join(self.template_dir, type_path))
        for candidate in candidates:
            if os.path.exists(candidate):
                return candidate
        raise DeployError(f"nested template {type_path!r} not found in the search path")

    # -- wait conditions and signals ---------------------------------------------------------

    def signal(self, handle_ref, payload, token=None) -> str:
        self.identity.require(token, "stacks:signal")
        return self.deliver_signal(handle_ref, payload)

    def deliver_signal(self, handle_ref, payload) -> str:
        """Record one confirmation signal; returns an acknowledgment code."""
        handle_id = _handle_id_from_ref(handle_ref)
        handle = self.handles.get(handle_id)
        if handle is None:
            raise NotFoundError(f"unknown wait handle {handle_id!r}")
        if (problem := signal_refusal(payload)) is not None:
            raise TemplateError(f"signal {problem}")
        condition = self.conditions.get(handle_id)
        if condition is not None and condition.outcome != "PENDING":
            self.core.emit("wait.signal.ignored", handle=handle_id, reason="already resolved")
            return "ignored-already-resolved"
        signal_id = payload.get("id") or str(len(handle.signals) + 1)
        handle.signals[signal_id] = payload
        self.core.emit("wait.signal", handle=handle_id, id=signal_id, status=payload["status"])
        if condition is not None:
            self._resume(condition.stack_id, ["wait", handle_id])
        return "recorded"

    def process_deadlines(self):
        """Called once per tick, before alarms and the healer."""
        for condition in list(self.conditions.values()):
            if condition.outcome == "PENDING" and condition.deadline <= self.core.tick:
                condition.outcome = "TIMEOUT"
                self._resume(condition.stack_id, ["wait", condition.handle_id])

    # -- delete ----------------------------------------------------------------------------------

    def delete_stack(self, stack_id, token) -> str:
        claims = self.identity.require(token, "stacks:delete")
        stack = self._scoped_stack(stack_id, claims)
        if stack.status in (CREATE_IN_PROGRESS, DELETE_IN_PROGRESS):
            raise ConflictError(f"stack is {stack.status}; wait for a terminal status")
        if stack.status == DELETE_COMPLETE:
            raise ConflictError("stack is already deleted")
        return self._delete(stack, token)

    def _delete(self, stack: Stack, token) -> str:
        stack.status = DELETE_IN_PROGRESS
        self.core.emit("stack.delete.start", stack=stack.id, name=stack.name)
        problems = []
        for wave in reversed(stack.waves):
            for rname in reversed(wave):
                record = stack.records.get(rname)
                if record is None or record.state == "DELETED":
                    continue
                try:
                    self._destroy_resource(record, token)
                    record.state = "DELETED"
                except MiniManoError as exc:
                    record.failure = exc.message
                    problems.append(f"{rname}: {exc.message}")
        if problems:
            stack.status = DELETE_FAILED
            stack.failure_reason = "; ".join(problems)
            self.core.emit("stack.delete.failed", stack=stack.id, reason=stack.failure_reason)
        else:
            stack.status = DELETE_COMPLETE
            self.core.emit("stack.delete.complete", stack=stack.id, name=stack.name)
        return stack.status

    def _destroy_resource(self, record, token):
        if is_nested_type(record.type):
            return self._destroy_nested(record, token)
        _, destroy = self._STEPS.get(record.type, (None, None))
        if destroy is not None:
            destroy(self, record, token)

    def _destroy_server(self, record, token):
        if record.physical_id is not None:
            try:
                self.provider.terminate_instance(record.physical_id)
            except NotFoundError:
                pass  # already gone

    def _destroy_nested(self, record, token):
        child = self.stacks.get(record.physical_id)
        if child is None or child.status == DELETE_COMPLETE:
            return
        if self._delete(child, token) != DELETE_COMPLETE:
            raise DeployError(f"nested stack delete failed: {child.failure_reason}")

    def _destroy_wait_handle(self, record, token):
        self.handles.pop(record.uuid, None)
        self.conditions.pop(record.uuid, None)

    # each built-in type's (deploy step, destroy step); random strings and
    # wait conditions hold no provider state, so they have no destroy step
    _STEPS = {
        SERVER_TYPE: (_deploy_server, _destroy_server),
        RANDOM_STRING_TYPE: (_deploy_random_string, None),
        WAIT_HANDLE_TYPE: (_deploy_wait_handle, _destroy_wait_handle),
        WAIT_CONDITION_TYPE: (_deploy_wait_condition, None),
    }

    # -- read side ----------------------------------------------------------------------------------

    def _scoped_stack(self, stack_id, claims) -> Stack:
        stack = self.stacks.get(stack_id)
        if stack is None or stack.tenant_id != claims.tenant_id:
            # a foreign stack is indistinguishable from a missing one
            raise NotFoundError(f"stack {stack_id!r} not found")
        return stack

    def list_stacks(self, token) -> list:
        claims = self.identity.require(token, "stacks:list")
        return [
            {"id": s.id, "name": s.name, "status": s.status, "created_at": s.created_at}
            for s in self.stacks.values()
            if s.tenant_id == claims.tenant_id and s.status != DELETE_COMPLETE
        ]

    def show_stack(self, stack_id, token) -> dict:
        claims = self.identity.require(token, "stacks:show")
        stack = self._scoped_stack(stack_id, claims)
        return self.stack_detail(stack)

    @staticmethod
    def stack_detail(stack: Stack) -> dict:
        return {
            "id": stack.id,
            "name": stack.name,
            "status": stack.status,
            "created_at": stack.created_at,
            "parameters": dict(stack.bound),
            "outputs": dict(stack.outputs),
            "parent": list(stack.parent) if stack.parent else None,
            "failure_reason": stack.failure_reason,
            "resources": {
                name: {
                    "id": r.uuid,
                    "type": r.type,
                    "state": r.state,
                    "attributes": dict(r.attributes),
                    "failure": r.failure,
                }
                for name, r in stack.records.items()
            },
        }

    # -- persistence ------------------------------------------------------------------------------------

    def to_dict(self, ids):
        return dump_attrs(self, _SCHEMA, ids)

    def load_dict(self, data, ids):
        load_attrs(self, _SCHEMA, data, ids)
        for run in self.runs.values():
            stack = self.stacks.get(run.stack_id)
            if stack is None:
                raise ValueError(f"run {run.stack_id!r} names a missing stack")
            if run.blocker is None:
                continue
            # the walk settles a blocked run's resource at the run's position
            wave = stack.waves[run.wave_idx] if 0 <= run.wave_idx < len(stack.waves) else []
            if not (0 <= run.pos_idx < len(wave) and wave[run.pos_idx] in stack.records):
                raise ValueError(f"run {run.stack_id!r} is blocked at no resource it has created")
            if not self._blocker_is_pending(run):
                raise ValueError(f"run {run.stack_id!r} is blocked on {run.blocker!r}, which is "
                                 "no pending wait condition or child of its stack")

    def _blocker_is_pending(self, run: StackRun) -> bool:
        """Whether a loaded run is blocked on what the walk leaves a run
        blocked on: a PENDING wait condition of its stack (with its handle),
        or a child of its stack that is still being created."""
        match run.blocker:
            case ["wait", str(handle_id)]:
                condition = self.conditions.get(handle_id)
                return (condition is not None and condition.stack_id == run.stack_id
                        and condition.outcome == "PENDING" and handle_id in self.handles)
            case ["child", str(child_id)]:
                child = self.stacks.get(child_id)
                return (child is not None and child.status == CREATE_IN_PROGRESS
                        and bool(child.parent) and child.parent[0] == run.stack_id)
        return False
