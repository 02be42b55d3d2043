"""Property tests for template values over generated maps, lists and scalars.

A template value is kept as the node the reader gave, and a map of one
key naming an intrinsic function is a call of it. Whatever arguments the
five intrinsic keys hold, parsing either refuses the value with a
`TemplateError` or keeps it as given; a kept value then validates,
yields its dependency edges and evaluates, in a context that binds every
name it uses, without raising and without being changed. `str_replace`
substitutes as a left-to-right scan, one character at a time, would.
"""

import copy
from unittest import mock

import pytest

from minimano import yamlite
from minimano.errors import TemplateError
from minimano.hot import (
    EvalContext,
    evaluate_expr,
    extract_dependencies,
    parse_template,
    str_replace_apply,
    validate_template,
)
from minimano.resource_types import TYPES

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(derandomize=True, max_examples=400, deadline=None)

CALLS = ["get_param", "get_attr", "get_pattr", "get_resource", "str_replace"]
# every string a value holds: declared parameter and resource names, an
# undeclared one, and str_replace markers
NAMES = ["a", "b", "p", "z", "$a", ""]
NAME = st.sampled_from(NAMES)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), NAME)


def _grow(children):
    return st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(CALLS + NAMES), children, max_size=3),
        # a call with any argument, then calls of the shapes parsing takes
        st.builds(lambda key, arg: {key: arg}, st.sampled_from(CALLS), children),
        st.builds(lambda key, *arg: {key: list(arg)}, st.sampled_from(["get_attr", "get_pattr"]),
                  NAME, NAME),
        st.builds(lambda key, name: {key: name}, st.sampled_from(["get_param", "get_resource"]),
                  NAME),
        st.builds(lambda template, params: {"str_replace": {"template": template,
                                                            "params": params}},
                  st.text(alphabet="a$z", max_size=6), st.dictionaries(NAME, children, max_size=2)),
    )


VALUES = st.recursive(SCALARS, _grow, max_leaves=10)
# every name bound, and every attribute of every resource
CONTEXT = EvalContext(params=dict.fromkeys(NAMES, "v"),
                      resource_ids={name: f"id-{name}" for name in NAMES},
                      resource_attrs={name: dict.fromkeys(NAMES, 1) for name in NAMES})


def _root(value, rtype, prop) -> dict:
    """A template, as the reader gives it, that holds `value` as property
    `prop` of resource `a` of type `rtype` and as output `o`."""
    return {
        "heat_template_version": "2013-05-23",
        "parameters": {"p": {"type": "string", "default": "x"}},
        "resources": {"a": {"type": rtype, "properties": {prop: value}},
                      "b": {"type": "OS::Heat::WaitConditionHandle"}},
        "outputs": {"o": {"value": value}},
    }


@SETTINGS
@hypothesis.given(VALUES, st.sampled_from([*TYPES, "child.yaml"]),
                  st.sampled_from(["length", "sequence", "handle", "networks", "image", "x"]))
def test_a_value_is_refused_or_kept_validated_and_evaluated(value, rtype, prop):
    written = copy.deepcopy(value)
    with mock.patch.object(yamlite, "parse", lambda source: _root(value, rtype, prop)):
        try:
            doc = parse_template("generated")
        except TemplateError as exc:
            assert type(exc) is TemplateError
            return
    assert doc.resources["a"].properties[prop] is value and doc.outputs["o"].value is value
    validate_template(doc)
    extract_dependencies(doc)
    evaluate_expr(value, CONTEXT)
    assert value == written


def scanned_str_replace(template, markers):
    """`str_replace` as a scan one character at a time: at each position the
    longest non-empty marker that starts there, else the character itself."""
    ordered = sorted(markers, key=lambda m: (-len(m), m))
    out = []
    i = 0
    while i < len(template):
        for marker in ordered:
            if marker and template.startswith(marker, i):
                value = markers[marker]
                out.append(("true" if value else "false") if isinstance(value, bool)
                           else "" if value is None else str(value))
                i += len(marker)
                break
        else:
            out.append(template[i])
            i += 1
    return "".join(out)


# regular expression metacharacters among plain ones
MARKER_TEXT = st.text(alphabet="ab_.*+?[](){}|\\^$", max_size=4)


@st.composite
def marker_cases(draw):
    """A template and markers, the empty marker and markers that prefix one
    another among them; the template is pieced from markers and other text."""
    value = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), MARKER_TEXT)
    markers = draw(st.dictionaries(MARKER_TEXT, value, max_size=5))
    for marker in list(markers):
        if draw(st.booleans()):
            markers[marker + draw(MARKER_TEXT)] = draw(value)
    if draw(st.booleans()):
        markers[""] = draw(value)
    pieces = st.one_of(MARKER_TEXT, st.sampled_from(sorted(markers))) if markers else MARKER_TEXT
    return "".join(draw(st.lists(pieces, max_size=8))), markers


@hypothesis.settings(derandomize=True, max_examples=1000, deadline=None)
@hypothesis.given(marker_cases())
def test_str_replace_substitutes_as_a_scan_one_character_at_a_time_would(case):
    template, markers = case
    assert str_replace_apply(template, markers) == scanned_str_replace(template, markers)
