"""Declarative template handling.

A template's text has a version tag and an optional description, which
parsing checks but does not keep, and three named sections: parameters,
resources, outputs. A resource property or an output value is kept as
the node the text gave: a scalar, a list or a map. A map of one key
naming an intrinsic function (``get_param``, ``get_attr``, ``get_pattr``
read as ``get_attr``, ``get_resource`` or ``str_replace``) is a call of
it, recognised where the value is used; parsing refuses a call whose
argument has the wrong shape. This module
parses source text into `TemplateDoc`, validates documents against the
declared resource types, binds parameters, evaluates values against
deployed resources, and extracts the inter-resource dependency graph used
for deployment planning.
"""

import re

from . import yamlite
from .codec import field, record
from .errors import DeployError, TemplateError
from .resource_types import TYPES, UNKNOWN, is_nested_type, kind_of
from .resource_types import SERVER_TYPE  # noqa: F401  (template callers name it through `hot`)

VERSION_KEY = "heat_template_version"
PARAM_TYPES = ("string", "number", "boolean", "list", "map")

_UNSET = object()


# ---------------------------------------------------------------------------
# intrinsic functions

# each intrinsic function -> the function it is read as
_INTRINSICS = {"get_param": "get_param", "get_attr": "get_attr", "get_pattr": "get_attr",
              "get_resource": "get_resource", "str_replace": "str_replace"}


def _intrinsic(node):
    """(function, argument) when `node` is a call of an intrinsic function,
    a map of one key naming it, else None."""
    if isinstance(node, dict) and len(node) == 1:
        (key, arg), = node.items()
        if key in _INTRINSICS:
            return _INTRINSICS[key], arg
    return None


def _calls(node):
    """Each intrinsic call in `node`, as `_intrinsic` gives it, in the order
    written, a call before the calls in its argument."""
    call = _intrinsic(node)
    if call is not None:
        yield call
        parts = call[1]["params"].values() if call[0] == "str_replace" else ()
    else:
        parts = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    for part in parts:
        yield from _calls(part)


# ---------------------------------------------------------------------------
# document model


@record
class ParameterDef:
    name: str
    type: str
    default: object = _UNSET

    @property
    def has_default(self):
        return self.default is not _UNSET


@record
class ResourceDef:
    name: str
    resource_type: str
    properties: dict  # name -> value as parsed
    depends_on: tuple = ()  # resource names deployed before this one


@record
class OutputDef:
    name: str
    value: object  # as parsed


@record
class TemplateDoc:
    """A parsed template and the text it was parsed from. A pending run
    stores that text, so a document changed after parsing resumes as its
    text says."""
    parameters: dict  # name -> ParameterDef
    resources: dict  # name -> ResourceDef
    outputs: dict  # name -> OutputDef
    warnings: list = field(default_factory=list)
    source: str | None = None  # None for a document built in code


@record
class Finding:
    severity: str  # "error" | "warning"
    path: str
    message: str

    def __str__(self):
        return f"{self.severity}: {self.path}: {self.message}"


@record
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


def _check_value(node, path, warnings):
    """Refuse each intrinsic call in `node` whose argument has the wrong
    shape, and warn of each get_pattr."""
    call = _intrinsic(node)
    if call is None:
        if isinstance(node, dict):
            for key, value in node.items():
                _check_value(value, f"{path}.{key}", warnings)
        elif isinstance(node, list):
            for i, value in enumerate(node):
                _check_value(value, f"{path}[{i}]", warnings)
        return
    function, arg = call
    if "get_pattr" in node:
        warnings.append(f"{path}: 'get_pattr' read as 'get_attr'")
    if function == "get_param" and not isinstance(arg, str):
        raise TemplateError(f"{path}: get_param takes a parameter name")
    if function == "get_attr" and (
        not isinstance(arg, list) or len(arg) != 2 or not all(isinstance(v, str) for v in arg)
    ):
        raise TemplateError(f"{path}: get_attr takes [resource, attribute]")
    if function == "get_resource" and not isinstance(arg, str):
        raise TemplateError(f"{path}: get_resource takes a resource name")
    if function != "str_replace":
        return
    if not isinstance(arg, dict):
        raise TemplateError(f"{path}: str_replace takes a map with 'template' and 'params'")
    if arg.keys() != {"template", "params"}:
        raise TemplateError(f"{path}: str_replace takes exactly 'template' and 'params'")
    if not isinstance(arg["template"], str):
        raise TemplateError(f"{path}.template: must be a string")
    if not isinstance(arg["params"], dict):
        raise TemplateError(f"{path}.params: must be a map of marker to value")
    for marker, value in arg["params"].items():
        _check_value(value, f"{path}.params.{marker}", warnings)


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
        out[name] = ParameterDef(name=name, type=ptype,
                                 default=body["default"] if "default" in body else _UNSET)
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
        for pname, pval in props_node.items():
            _check_value(pval, f"{path}.properties.{pname}", warnings)
        out[name] = ResourceDef(name=name, resource_type=rtype, properties=props_node,
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
        _check_value(body["value"], f"{path}.value", warnings)
        out[name] = OutputDef(name=name, value=body["value"])
    return out


def parse_template(source: str) -> TemplateDoc:
    """Parse template text; section order and key order are preserved."""
    root = yamlite.parse(source)
    if not isinstance(root, dict):
        raise TemplateError("template root must be a mapping")
    if VERSION_KEY not in root:
        raise TemplateError(f"missing {VERSION_KEY}")
    if not isinstance(root[VERSION_KEY], str) or not root[VERSION_KEY]:
        raise TemplateError(f"{VERSION_KEY}: must be a non-empty version tag")
    warnings = []
    for key in root:
        if key not in (VERSION_KEY, "description", "parameters", "resources", "outputs"):
            warnings.append(f"unknown top-level section {key!r}")
    if "resources" not in root:
        raise TemplateError("resources: at least one resource must be declared")
    if root.get("description") is not None and not isinstance(root["description"], str):
        raise TemplateError("description: must be a string")
    return TemplateDoc(
        parameters=_parse_parameters(root.get("parameters"), warnings),
        resources=_parse_resources(root["resources"], warnings),
        outputs=_parse_outputs(root.get("outputs"), warnings),
        warnings=warnings,
        source=source,
    )


def serialize_template(doc: TemplateDoc) -> str:
    """The text `doc` was parsed from. The name stays only because the
    bench harness (`bench/spans.py`) patches it in `engine`."""
    return doc.source


# ---------------------------------------------------------------------------
# validation


def _literal(node):
    """The value `node` writes out, with `UNKNOWN` for what an intrinsic
    function gives."""
    if _intrinsic(node) is not None:
        return UNKNOWN
    if isinstance(node, dict):
        return {key: _literal(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_literal(item) for item in node]
    return node


def _check_intrinsics(node, path, doc, findings):
    """Each intrinsic call in `node` names a declared parameter, resource
    and attribute."""
    for function, arg in _calls(node):
        resource = arg[0] if function == "get_attr" else arg
        if function == "get_param" and arg not in doc.parameters:
            findings.append(Finding("error", path, f"unknown parameter {arg!r}"))
        elif function in ("get_attr", "get_resource") and resource not in doc.resources:
            findings.append(Finding("error", path, f"unknown resource {resource!r}"))
        elif function == "get_attr":
            spec = TYPES.get(doc.resources[resource].resource_type)
            if spec is not None and arg[1] not in spec.attributes:
                findings.append(Finding("error", path, f"resource {resource!r} has no "
                                                       f"attribute {arg[1]!r}"))


def _check_reference(node, kind, path, doc, findings):
    """A property of a resource-type kind: a get_resource naming a resource
    of that type."""
    function, resource = _intrinsic(node) or (None, None)
    if function != "get_resource":
        findings.append(Finding("error", path, "must be a get_resource reference"))
    elif resource in doc.resources and doc.resources[resource].resource_type != kind:
        findings.append(Finding("error", path, f"{resource!r} is not a {kind}"))


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
            for pname, value in r.properties.items():
                if (kind := spec.kind(pname)) in TYPES:
                    _check_reference(value, kind, f"{props}.{pname}", doc, findings)
                findings += [Finding("error", f"{props}.{path}", message)
                             for path, message in spec.refusals(pname, _literal(value))]
        for dep in r.depends_on:
            if dep not in doc.resources:
                findings.append(Finding("error", f"{base}.depends_on", f"unknown resource {dep!r}"))
        for pname, value in r.properties.items():
            _check_intrinsics(value, f"{base}.properties.{pname}", doc, findings)

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


@record
class EvalContext:
    """What a value may call on: bound parameters plus deployed resources."""

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
    ordered = sorted(filter(None, markers), key=len, reverse=True)
    if not ordered:
        return template
    pattern = "|".join(map(re.escape, ordered))
    return re.sub(pattern, lambda match: _marker_text(markers[match[0]]), template)


def evaluate_expr(node, ctx: EvalContext):
    """The value `node` gives in `ctx`: each intrinsic call replaced by its
    result, in a new map or list for each map or list."""
    call = _intrinsic(node)
    if call is None:
        if isinstance(node, dict):
            return {key: evaluate_expr(value, ctx) for key, value in node.items()}
        if isinstance(node, list):
            return [evaluate_expr(item, ctx) for item in node]
        return node
    function, arg = call
    if function == "get_param":
        if arg not in ctx.params:
            raise DeployError(f"parameter {arg!r} is not bound")
        return ctx.params[arg]
    if function == "get_attr":
        resource, attribute = arg
        if resource not in ctx.resource_attrs:
            raise DeployError(f"attribute of {resource!r} not yet available: resource not deployed")
        attrs = ctx.resource_attrs[resource]
        if attribute not in attrs:
            raise DeployError(f"resource {resource!r} has no attribute {attribute!r}")
        return attrs[attribute]
    if function == "get_resource":
        if arg not in ctx.resource_ids:
            raise DeployError(f"resource {arg!r} not yet available: not deployed")
        return ctx.resource_ids[arg]
    markers = {marker: evaluate_expr(value, ctx) for marker, value in arg["params"].items()}
    return str_replace_apply(arg["template"], markers)


# ---------------------------------------------------------------------------
# dependencies


def _providers(rdef: ResourceDef):
    yield from rdef.depends_on
    for value in rdef.properties.values():
        for function, arg in _calls(value):
            if function in ("get_attr", "get_resource"):
                yield arg[0] if function == "get_attr" else arg


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
