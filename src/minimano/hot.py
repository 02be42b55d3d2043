"""Declarative template handling.

A template document has a version tag, optional description, and three
named sections: parameters, resources, outputs. Resource properties and
output values are expression trees that may call the intrinsic functions
``get_param``, ``get_attr``, ``get_resource`` and ``str_replace``. This
module parses source text into `TemplateDoc`, validates documents against
the declared resource types, binds parameters, evaluates expressions against
deployed resources, and extracts the inter-resource dependency graph used
for deployment planning.
"""

from . import yamlite
from .codec import field, record
from .errors import DeployError, TemplateError
from .resource_types import TYPES, UNKNOWN, is_nested_type, kind_of
from .resource_types import SERVER_TYPE  # noqa: F401  (template callers name it through `hot`)

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


def _literal(expr):
    """The value `expr` writes out, with `UNKNOWN` for what an intrinsic
    function gives."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ListOf):
        return [_literal(item) for item in expr.items]
    if isinstance(expr, MapOf):
        return {key: _literal(value) for key, value in expr.entries}
    return UNKNOWN


def _check_intrinsics(expr, path, doc, findings):
    """Each intrinsic in `expr` names a declared parameter, resource and
    attribute."""
    for sub in _walk_expr(expr):
        if isinstance(sub, GetParam) and sub.name not in doc.parameters:
            findings.append(Finding("error", path, f"unknown parameter {sub.name!r}"))
        elif isinstance(sub, (GetAttr, GetResource)) and sub.resource not in doc.resources:
            findings.append(Finding("error", path, f"unknown resource {sub.resource!r}"))
        elif isinstance(sub, GetAttr):
            spec = TYPES.get(doc.resources[sub.resource].resource_type)
            if spec is not None and sub.attribute not in spec.attributes:
                findings.append(Finding("error", path, f"resource {sub.resource!r} has no "
                                                       f"attribute {sub.attribute!r}"))


def _check_reference(expr, kind, path, doc, findings):
    """A property of a resource-type kind: a get_resource naming a resource
    of that type."""
    if not isinstance(expr, GetResource):
        findings.append(Finding("error", path, "must be a get_resource reference"))
    elif expr.resource in doc.resources and doc.resources[expr.resource].resource_type != kind:
        findings.append(Finding("error", path, f"{expr.resource!r} is not a {kind}"))


def validate_template(doc: TemplateDoc) -> ValidationReport:
    """Cross-check every reference, type, and mandatory property.

    Findings are data: nothing raises. A document is deployable exactly
    when the report carries no error findings.
    """
    findings = [Finding("warning", "template", w) for w in doc.warnings]

    for p in doc.parameters.values():
        if p.has_default and kind_of(p.default) != p.type:
            findings.append(
                Finding("error", f"parameters.{p.name}.default", f"default does not conform to type {p.type!r}")
            )

    for r in doc.resources.values():
        base = f"resources.{r.name}"
        spec = TYPES.get(r.resource_type)
        if spec is None and not is_nested_type(r.resource_type):
            findings.append(Finding("error", base, f"unknown resource type {r.resource_type!r}"))
        if spec is not None:
            props = f"{base}.properties"
            findings += [Finding("error", props, message) for message in spec.missing(r.properties)]
            for pname, expr in r.properties.items():
                if (kind := spec.kind(pname)) in TYPES:
                    _check_reference(expr, kind, f"{props}.{pname}", doc, findings)
                findings += [Finding("error", f"{props}.{path}", message)
                             for path, message in spec.refusals(pname, _literal(expr))]
        for dep in r.depends_on:
            if dep not in doc.resources:
                findings.append(Finding("error", f"{base}.depends_on", f"unknown resource {dep!r}"))
        for pname, expr in r.properties.items():
            _check_intrinsics(expr, f"{base}.properties.{pname}", doc, findings)

    for o in doc.outputs.values():
        _check_intrinsics(o.value, f"outputs.{o.name}.value", doc, findings)

    return ValidationReport(findings)


# ---------------------------------------------------------------------------
# parameter binding


def _coerce(value, ptype, name):
    """`value` as a parameter of type `ptype`; a number or a boolean may
    also be given as text."""
    if kind_of(value) == ptype:
        return value
    if ptype == "number" and isinstance(value, str):
        for convert in (int, float):
            try:
                return convert(value.strip())
            except ValueError:
                pass
        raise TemplateError(f"parameter {name!r}: {value!r} is not a number")
    if ptype == "boolean":
        text = value.strip().lower() if isinstance(value, str) else None
        if text in ("true", "1", "false", "0"):
            return text in ("true", "1")
        raise TemplateError(f"parameter {name!r}: {value!r} is not a boolean")
    raise TemplateError(f"parameter {name!r}: expected a {ptype}")


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
