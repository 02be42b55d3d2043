"""Declarative template handling.

A template document has a version tag, optional description, and three
named sections: parameters, resources, outputs. Resource properties and
output values are expression trees that may call the intrinsic functions
``get_param``, ``get_attr``, ``get_resource`` and ``str_replace``. This
module parses source text into `TemplateDoc`, validates documents against
a resource-type registry, binds parameters, evaluates expressions against
deployed resources, and extracts the inter-resource dependency graph used
for deployment planning.
"""

from . import yamlite
from .codec import field, record
from .errors import DeployError, TemplateError
from .resource_types import (
    RANDOM_STRING_TYPE,
    SERVER_TYPE,
    WAIT_CONDITION_TYPE,
    WAIT_HANDLE_TYPE,
    is_nested_type,
)

VERSION_KEY = "heat_template_version"
PARAM_TYPES = ("string", "number", "boolean", "list", "map")

_UNSET = object()


# ---------------------------------------------------------------------------
# expression tree


class Expr:
    """Base class for property/output expressions."""


@record(eq=True, frozen=True)
class Literal(Expr):
    value: object


@record(eq=True, frozen=True)
class GetParam(Expr):
    name: str


@record(eq=True, frozen=True)
class GetAttr(Expr):
    resource: str
    attribute: str


@record(eq=True, frozen=True)
class GetResource(Expr):
    resource: str


@record(eq=True, frozen=True)
class StrReplace(Expr):
    template: str
    params: tuple  # of (marker, Expr) pairs, declaration order

    @property
    def params_map(self):
        return dict(self.params)


@record(eq=True, frozen=True)
class ListOf(Expr):
    items: tuple


@record(eq=True, frozen=True)
class MapOf(Expr):
    entries: tuple  # of (key, Expr) pairs, declaration order

    @property
    def entries_map(self):
        return dict(self.entries)


# ---------------------------------------------------------------------------
# document model


@record(eq=True)
class ParameterDef:
    name: str
    type: str
    label: str | None = None
    description: str | None = None
    default: object = _UNSET

    @property
    def has_default(self):
        return self.default is not _UNSET


@record(eq=True)
class ResourceDef:
    name: str
    resource_type: str
    properties: dict  # name -> Expr
    depends_on: tuple = ()  # resource names deployed before this one


@record(eq=True)
class OutputDef:
    name: str
    description: str | None
    value: Expr


@record(eq=True)
class TemplateDoc:
    version: str
    description: str | None
    parameters: dict  # name -> ParameterDef
    resources: dict  # name -> ResourceDef
    outputs: dict  # name -> OutputDef
    warnings: list = field(default_factory=list, compare=False)


@record(eq=True)
class Finding:
    severity: str  # "error" | "warning"
    path: str
    message: str

    def __str__(self):
        return f"{self.severity}: {self.path}: {self.message}"


@record(eq=True)
class ValidationReport:
    findings: list

    @property
    def errors(self):
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self):
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self):
        return not self.errors


# ---------------------------------------------------------------------------
# resource type registry

SEQUENCES = {
    "digits": "0123456789",
    "lowercase": "abcdefghijklmnopqrstuvwxyz",
    "uppercase": "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "alphanumeric": "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
}

@record(eq=True)
class TypeSpec:
    name: str
    mandatory: dict  # property -> expected kind
    optional: dict
    attributes: set

    @property
    def known_properties(self):
        return set(self.mandatory) | set(self.optional)


DEFAULT_REGISTRY = {
    SERVER_TYPE: TypeSpec(
        SERVER_TYPE,
        mandatory={"image": "string", "flavor": "string"},
        optional={
            "key_name": "string",
            "networks": "list",
            "security_groups": "list",
            "user_data": "string",
            "user_data_format": "string",
        },
        attributes={"first_address", "instance_id", "name"},
    ),
    RANDOM_STRING_TYPE: TypeSpec(
        RANDOM_STRING_TYPE,
        mandatory={},
        optional={"length": "number", "sequence": "string"},
        attributes={"value"},
    ),
    WAIT_CONDITION_TYPE: TypeSpec(
        WAIT_CONDITION_TYPE,
        mandatory={"handle": "ref", "timeout": "number"},
        optional={"count": "number"},
        attributes={"data"},
    ),
    WAIT_HANDLE_TYPE: TypeSpec(
        WAIT_HANDLE_TYPE,
        mandatory={},
        optional={},
        attributes={"curl_cli", "handle_id"},
    ),
}


# ---------------------------------------------------------------------------
# parsing


def _expr_from_node(node, path, warnings):
    if isinstance(node, dict):
        if len(node) == 1:
            (key, value), = node.items()
            if key == "get_param":
                if not isinstance(value, str):
                    raise TemplateError(f"{path}: get_param takes a parameter name")
                return GetParam(value)
            if key in ("get_attr", "get_pattr"):
                if key == "get_pattr":
                    warnings.append(f"{path}: 'get_pattr' read as 'get_attr'")
                if (
                    not isinstance(value, list)
                    or len(value) != 2
                    or not all(isinstance(v, str) for v in value)
                ):
                    raise TemplateError(f"{path}: get_attr takes [resource, attribute]")
                return GetAttr(value[0], value[1])
            if key == "get_resource":
                if not isinstance(value, str):
                    raise TemplateError(f"{path}: get_resource takes a resource name")
                return GetResource(value)
            if key == "str_replace":
                return _str_replace_from_node(value, path, warnings)
        entries = tuple(
            (k, _expr_from_node(v, f"{path}.{k}", warnings)) for k, v in node.items()
        )
        return MapOf(entries)
    if isinstance(node, list):
        return ListOf(tuple(_expr_from_node(v, f"{path}[{i}]", warnings) for i, v in enumerate(node)))
    return Literal(node)


def _str_replace_from_node(value, path, warnings):
    if not isinstance(value, dict):
        raise TemplateError(f"{path}: str_replace takes a map with 'template' and 'params'")
    unknown = set(value) - {"template", "params"}
    if unknown or "template" not in value or "params" not in value:
        raise TemplateError(f"{path}: str_replace takes exactly 'template' and 'params'")
    template = value["template"]
    if not isinstance(template, str):
        raise TemplateError(f"{path}.template: must be a string")
    params = value["params"]
    if not isinstance(params, dict):
        raise TemplateError(f"{path}.params: must be a map of marker to value")
    pairs = tuple(
        (marker, _expr_from_node(v, f"{path}.params.{marker}", warnings))
        for marker, v in params.items()
    )
    return StrReplace(template=template, params=pairs)


def _parse_parameters(node, warnings):
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise TemplateError("parameters: must be a map")
    out = {}
    for name, body in node.items():
        path = f"parameters.{name}"
        if body is None:
            body = {}
        if not isinstance(body, dict):
            raise TemplateError(f"{path}: must be a map of attributes")
        if "type" not in body:
            raise TemplateError(f"{path}: the 'type' attribute is mandatory")
        ptype = body["type"]
        if ptype not in PARAM_TYPES:
            raise TemplateError(f"{path}.type: unknown type {ptype!r}")
        for key in body:
            if key not in ("type", "label", "description", "default"):
                warnings.append(f"{path}: unknown attribute {key!r}")
        out[name] = ParameterDef(
            name=name,
            type=ptype,
            label=body.get("label"),
            description=body.get("description"),
            default=body["default"] if "default" in body else _UNSET,
        )
    return out


def _parse_resources(node, warnings):
    if not isinstance(node, dict) or not node:
        raise TemplateError("resources: at least one resource must be declared")
    out = {}
    for name, body in node.items():
        path = f"resources.{name}"
        if not isinstance(body, dict):
            raise TemplateError(f"{path}: must be a map")
        rtype = body.get("type")
        if not rtype or not isinstance(rtype, str):
            raise TemplateError(f"{path}: every resource must have a type")
        for key in body:
            if key not in ("type", "properties", "depends_on"):
                warnings.append(f"{path}: unknown attribute {key!r}")
        depends_on = body.get("depends_on", [])
        if isinstance(depends_on, str):
            depends_on = [depends_on]
        if not isinstance(depends_on, list) or not all(isinstance(dep, str) for dep in depends_on):
            raise TemplateError(f"{path}.depends_on: must be a resource name or a list of names")
        props_node = body.get("properties") or {}
        if not isinstance(props_node, dict):
            raise TemplateError(f"{path}.properties: must be a map")
        properties = {
            pname: _expr_from_node(pval, f"{path}.properties.{pname}", warnings)
            for pname, pval in props_node.items()
        }
        out[name] = ResourceDef(name=name, resource_type=rtype, properties=properties,
                                depends_on=tuple(depends_on))
    return out


def _parse_outputs(node, warnings):
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise TemplateError("outputs: must be a map")
    out = {}
    for name, body in node.items():
        path = f"outputs.{name}"
        if not isinstance(body, dict) or "value" not in body:
            raise TemplateError(f"{path}: must be a map with a 'value' entry")
        for key in body:
            if key not in ("value", "description"):
                warnings.append(f"{path}: unknown attribute {key!r}")
        out[name] = OutputDef(
            name=name,
            description=body.get("description"),
            value=_expr_from_node(body["value"], f"{path}.value", warnings),
        )
    return out


def parse_template(source: str) -> TemplateDoc:
    """Parse template text; section order and key order are preserved."""
    root = yamlite.parse(source)
    if not isinstance(root, dict):
        raise TemplateError("template root must be a mapping")
    if VERSION_KEY not in root:
        raise TemplateError(f"missing {VERSION_KEY}")
    version = root[VERSION_KEY]
    if not isinstance(version, str) or not version:
        raise TemplateError(f"{VERSION_KEY}: must be a non-empty version tag")
    warnings = []
    for key in root:
        if key not in (VERSION_KEY, "description", "parameters", "resources", "outputs"):
            warnings.append(f"unknown top-level section {key!r}")
    if "resources" not in root:
        raise TemplateError("resources: at least one resource must be declared")
    description = root.get("description")
    if description is not None and not isinstance(description, str):
        raise TemplateError("description: must be a string")
    return TemplateDoc(
        version=version,
        description=description,
        parameters=_parse_parameters(root.get("parameters"), warnings),
        resources=_parse_resources(root["resources"], warnings),
        outputs=_parse_outputs(root.get("outputs"), warnings),
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# canonical serialization


def _expr_to_node(expr):
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, GetParam):
        return yamlite.Flow({"get_param": expr.name})
    if isinstance(expr, GetAttr):
        return yamlite.Flow({"get_attr": [expr.resource, expr.attribute]})
    if isinstance(expr, GetResource):
        return yamlite.Flow({"get_resource": expr.resource})
    if isinstance(expr, StrReplace):
        return {
            "str_replace": {
                "params": {marker: _expr_to_node(v) for marker, v in expr.params},
                "template": expr.template,
            }
        }
    if isinstance(expr, ListOf):
        return [_expr_to_node(item) for item in expr.items]
    if isinstance(expr, MapOf):
        return {k: _expr_to_node(v) for k, v in expr.entries}
    raise TypeError(f"not an expression: {expr!r}")


def serialize_template(doc: TemplateDoc) -> str:
    """Canonical text form; parse(serialize(doc)) is structurally equal."""
    root = {VERSION_KEY: doc.version}
    if doc.description is not None:
        root["description"] = doc.description
    if doc.parameters:
        params = {}
        for p in doc.parameters.values():
            body = {"type": p.type}
            if p.label is not None:
                body["label"] = p.label
            if p.description is not None:
                body["description"] = p.description
            if p.has_default:
                body["default"] = p.default
            params[p.name] = body
        root["parameters"] = params
    resources = {}
    for r in doc.resources.values():
        body = {"type": r.resource_type}
        if r.depends_on:  # absent stays absent, so stored sources do not move
            body["depends_on"] = list(r.depends_on)
        if r.properties:
            body["properties"] = {k: _expr_to_node(v) for k, v in r.properties.items()}
        resources[r.name] = body
    root["resources"] = resources
    if doc.outputs:
        outputs = {}
        for o in doc.outputs.values():
            body = {}
            if o.description is not None:
                body["description"] = o.description
            body["value"] = _expr_to_node(o.value)
            outputs[o.name] = body
        root["outputs"] = outputs
    return yamlite.dump(root)


# ---------------------------------------------------------------------------
# validation


def _walk_expr(expr):
    yield expr
    if isinstance(expr, StrReplace):
        for _, sub in expr.params:
            yield from _walk_expr(sub)
    elif isinstance(expr, ListOf):
        for sub in expr.items:
            yield from _walk_expr(sub)
    elif isinstance(expr, MapOf):
        for _, sub in expr.entries:
            yield from _walk_expr(sub)


def _literal_kind(value):
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "list"
    if isinstance(value, dict):
        return "map"
    return "null"


def _check_refs(expr, path, doc, findings):
    for sub in _walk_expr(expr):
        if isinstance(sub, GetParam) and sub.name not in doc.parameters:
            findings.append(Finding("error", path, f"unknown parameter {sub.name!r}"))
        elif isinstance(sub, GetAttr) and sub.resource not in doc.resources:
            findings.append(Finding("error", path, f"unknown resource {sub.resource!r}"))
        elif isinstance(sub, GetResource) and sub.resource not in doc.resources:
            findings.append(Finding("error", path, f"unknown resource {sub.resource!r}"))


def _check_attr_names(expr, path, doc, findings):
    for sub in _walk_expr(expr):
        if not isinstance(sub, GetAttr) or sub.resource not in doc.resources:
            continue
        target_type = doc.resources[sub.resource].resource_type
        spec = DEFAULT_REGISTRY.get(target_type)
        if spec is not None and sub.attribute not in spec.attributes:
            findings.append(
                Finding("error", path, f"resource {sub.resource!r} has no attribute {sub.attribute!r}")
            )


def _property_kind_ok(expr, expected):
    if not isinstance(expr, Literal):
        return True  # intrinsic results are checked at evaluation time
    if expected == "ref":
        return False  # refs must be get_resource
    return _literal_kind(expr.value) == expected


def validate_template(doc: TemplateDoc) -> ValidationReport:
    """Cross-check every reference, type, and mandatory property.

    Findings are data: nothing raises. A document is deployable exactly
    when the report carries no error findings.
    """
    findings = [Finding("warning", "template", w) for w in doc.warnings]

    for p in doc.parameters.values():
        if p.has_default and _literal_kind(p.default) != p.type:
            findings.append(
                Finding("error", f"parameters.{p.name}.default", f"default does not conform to type {p.type!r}")
            )

    for r in doc.resources.values():
        base = f"resources.{r.name}"
        nested = is_nested_type(r.resource_type)
        spec = DEFAULT_REGISTRY.get(r.resource_type)
        if spec is None and not nested:
            findings.append(Finding("error", base, f"unknown resource type {r.resource_type!r}"))
        if spec is not None:
            for pname in spec.mandatory:
                if pname not in r.properties:
                    findings.append(
                        Finding("error", f"{base}.properties", f"missing mandatory property {pname!r}")
                    )
            for pname, expr in r.properties.items():
                ppath = f"{base}.properties.{pname}"
                if pname not in spec.known_properties:
                    findings.append(Finding("error", ppath, f"unknown property {pname!r}"))
                    continue
                expected = spec.mandatory.get(pname, spec.optional.get(pname))
                if expected == "ref":
                    if not isinstance(expr, GetResource):
                        findings.append(Finding("error", ppath, "must be a get_resource reference"))
                elif not _property_kind_ok(expr, expected):
                    findings.append(Finding("error", ppath, f"expected a {expected}"))
        for dep in r.depends_on:
            if dep not in doc.resources:
                findings.append(Finding("error", f"{base}.depends_on", f"unknown resource {dep!r}"))
        for pname, expr in r.properties.items():
            ppath = f"{base}.properties.{pname}"
            _check_refs(expr, ppath, doc, findings)
            _check_attr_names(expr, ppath, doc, findings)
        _validate_type_specifics(r, base, doc, findings)

    for o in doc.outputs.values():
        path = f"outputs.{o.name}.value"
        _check_refs(o.value, path, doc, findings)
        _check_attr_names(o.value, path, doc, findings)

    return ValidationReport(findings)


def _validate_type_specifics(r, base, doc, findings):
    if r.resource_type == SERVER_TYPE:
        fmt = r.properties.get("user_data_format")
        if isinstance(fmt, Literal) and fmt.value != "RAW":
            findings.append(
                Finding("error", f"{base}.properties.user_data_format", "only RAW is supported")
            )
        networks = r.properties.get("networks")
        if isinstance(networks, ListOf):
            for i, item in enumerate(networks.items):
                if not (isinstance(item, MapOf) and "network" in item.entries_map):
                    findings.append(
                        Finding(
                            "error",
                            f"{base}.properties.networks[{i}]",
                            "each entry must be a map with a 'network' key",
                        )
                    )
    elif r.resource_type == RANDOM_STRING_TYPE:
        seq = r.properties.get("sequence")
        if isinstance(seq, Literal) and seq.value not in SEQUENCES:
            findings.append(
                Finding("error", f"{base}.properties.sequence", f"unknown sequence {seq.value!r}")
            )
        length = r.properties.get("length")
        if isinstance(length, Literal) and (not isinstance(length.value, int) or length.value < 1):
            findings.append(
                Finding("error", f"{base}.properties.length", "length must be a positive integer")
            )
    elif r.resource_type == WAIT_CONDITION_TYPE:
        handle = r.properties.get("handle")
        if isinstance(handle, GetResource) and handle.resource in doc.resources:
            target = doc.resources[handle.resource]
            if target.resource_type != WAIT_HANDLE_TYPE:
                findings.append(
                    Finding(
                        "error",
                        f"{base}.properties.handle",
                        f"{handle.resource!r} is not a {WAIT_HANDLE_TYPE}",
                    )
                )


# ---------------------------------------------------------------------------
# parameter binding


def _coerce(value, ptype, name):
    if ptype == "string":
        if isinstance(value, str):
            return value
        raise TemplateError(f"parameter {name!r}: expected a string")
    if ptype == "number":
        if isinstance(value, bool):
            raise TemplateError(f"parameter {name!r}: expected a number")
        if isinstance(value, (int, float)):
            return value
        if isinstance(value, str):
            text = value.strip()
            try:
                return int(text)
            except ValueError:
                pass
            try:
                return float(text)
            except ValueError:
                raise TemplateError(f"parameter {name!r}: {value!r} is not a number") from None
        raise TemplateError(f"parameter {name!r}: expected a number")
    if ptype == "boolean":
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "1"):
                return True
            if lowered in ("false", "0"):
                return False
        raise TemplateError(f"parameter {name!r}: {value!r} is not a boolean")
    if ptype == "list":
        if isinstance(value, list):
            return value
        raise TemplateError(f"parameter {name!r}: expected a list")
    if ptype == "map":
        if isinstance(value, dict):
            return value
        raise TemplateError(f"parameter {name!r}: expected a map")
    raise TemplateError(f"parameter {name!r}: unknown type {ptype!r}")


def bind_parameters(doc: TemplateDoc, provided: dict) -> dict:
    """Resolve parameter values: provided wins, then default, else error."""
    for name in provided:
        if name not in doc.parameters:
            raise TemplateError(f"unknown parameter {name!r}")
    bound = {}
    for name, pdef in doc.parameters.items():
        if name in provided:
            bound[name] = _coerce(provided[name], pdef.type, name)
        elif pdef.has_default:
            bound[name] = pdef.default
        else:
            raise TemplateError(f"parameter {name!r} has no value and no default")
    return bound


# ---------------------------------------------------------------------------
# evaluation


@record(eq=True)
class EvalContext:
    """What expressions may see: bound parameters plus deployed resources."""

    params: dict
    resource_ids: dict = field(default_factory=dict)  # name -> uuid
    resource_attrs: dict = field(default_factory=dict)  # name -> {attr: value}


def _marker_text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def str_replace_apply(template: str, markers: dict) -> str:
    """One left-to-right pass; longest marker wins at each position and
    substituted text is never rescanned."""
    ordered = sorted(markers, key=lambda m: (-len(m), m))
    out = []
    i = 0
    while i < len(template):
        for marker in ordered:
            if marker and template.startswith(marker, i):
                out.append(_marker_text(markers[marker]))
                i += len(marker)
                break
        else:
            out.append(template[i])
            i += 1
    return "".join(out)


def evaluate_expr(expr: Expr, ctx: EvalContext):
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, GetParam):
        if expr.name not in ctx.params:
            raise DeployError(f"parameter {expr.name!r} is not bound")
        return ctx.params[expr.name]
    if isinstance(expr, GetAttr):
        if expr.resource not in ctx.resource_attrs:
            raise DeployError(
                f"attribute of {expr.resource!r} not yet available: resource not deployed"
            )
        attrs = ctx.resource_attrs[expr.resource]
        if expr.attribute not in attrs:
            raise DeployError(f"resource {expr.resource!r} has no attribute {expr.attribute!r}")
        return attrs[expr.attribute]
    if isinstance(expr, GetResource):
        if expr.resource not in ctx.resource_ids:
            raise DeployError(f"resource {expr.resource!r} not yet available: not deployed")
        return ctx.resource_ids[expr.resource]
    if isinstance(expr, StrReplace):
        markers = {marker: evaluate_expr(sub, ctx) for marker, sub in expr.params}
        return str_replace_apply(expr.template, markers)
    if isinstance(expr, ListOf):
        return [evaluate_expr(sub, ctx) for sub in expr.items]
    if isinstance(expr, MapOf):
        return {k: evaluate_expr(sub, ctx) for k, sub in expr.entries}
    raise TypeError(f"not an expression: {expr!r}")


# ---------------------------------------------------------------------------
# dependencies


def _providers(rdef: ResourceDef):
    yield from rdef.depends_on
    for expr in rdef.properties.values():
        for sub in _walk_expr(expr):
            if isinstance(sub, (GetAttr, GetResource)):
                yield sub.resource


def extract_dependencies(doc: TemplateDoc) -> list:
    """Edges (provider, consumer): consumer names provider in `depends_on`
    or references it through get_attr or get_resource. get_param never
    creates an edge."""
    edges = []
    seen = set()
    for rname, rdef in doc.resources.items():
        for provider in _providers(rdef):
            if provider not in doc.resources:
                continue
            edge = (provider, rname)
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
    return edges
