"""Property tests for template values over generated maps, lists and scalars.

A template value is kept as the node the reader gave, and a map of one
key naming an intrinsic function is a call of it. Whatever arguments the
five intrinsic keys hold, parsing either refuses the value with a
`TemplateError` or keeps it as given; a kept value then validates,
yields its dependency edges and evaluates, in a context that binds every
name it uses, without raising and without being changed.
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
