"""Property test: `parse_template` reads back what `serialize_template`
writes.

The generated documents are the ones `parse_template` can give: literal
leaves are JSON scalars (a list or a map becomes `ListOf` or `MapOf`), a
one-entry map never has an intrinsic function's name as its key, and
parameter defaults are any JSON value. Floats include the largest finite
ones, and strings include spellings of an out-of-range float. Since
snapshot v4 the one serialisation left is the save of a pending run's
template, so this is what guards it.
"""

import sys

import pytest

from minimano.hot import (
    PARAM_TYPES,
    GetAttr,
    GetParam,
    GetResource,
    ListOf,
    Literal,
    MapOf,
    OutputDef,
    ParameterDef,
    ResourceDef,
    StrReplace,
    TemplateDoc,
    parse_template,
    serialize_template,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(derandomize=True, max_examples=300, deadline=None)

BIG = sys.float_info.max
EDGE_FLOATS = st.one_of(
    st.sampled_from([BIG, -BIG, 1.7976931348623155e308, 1e308, sys.float_info.min, 5e-324]),
    st.floats(min_value=1e307, max_value=BIG),
    st.floats(min_value=-BIG, max_value=-1e307),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False), EDGE_FLOATS,
    st.text(max_size=12),
    st.sampled_from(["1.0e999", "-1.0e999", "1e999", "inf", "-inf", ".inf", "nan"]),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                  max_size=3),
    max_leaves=8,
)
NAMES = st.text(min_size=1, max_size=8)
INTRINSICS = {"get_param", "get_attr", "get_pattr", "get_resource", "str_replace"}


def _not_an_intrinsic(entries: dict) -> bool:
    return not (len(entries) == 1 and set(entries) <= INTRINSICS)


EXPRS = st.recursive(
    st.one_of(
        SCALARS.map(Literal),
        NAMES.map(GetParam),
        st.builds(GetAttr, NAMES, NAMES),
        NAMES.map(GetResource),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda items: ListOf(tuple(items))),
        st.dictionaries(st.sampled_from(sorted(INTRINSICS)) | st.text(max_size=6), inner,
                        max_size=3).filter(_not_an_intrinsic)
        .map(lambda entries: MapOf(tuple(entries.items()))),
        st.builds(lambda template, params: StrReplace(template, tuple(params.items())),
                  st.text(max_size=16), st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    ),
    max_leaves=10,
)
OPTIONAL_TEXT = st.none() | st.text(max_size=10)


@st.composite
def documents(draw) -> TemplateDoc:
    parameters = {
        name: ParameterDef(name, draw(st.sampled_from(PARAM_TYPES)), draw(OPTIONAL_TEXT),
                           draw(OPTIONAL_TEXT), *draw(st.lists(JSON, max_size=1)))
        for name in draw(st.lists(NAMES, max_size=3, unique=True))
    }
    resources = {
        name: ResourceDef(name, draw(NAMES), draw(st.dictionaries(NAMES, EXPRS, max_size=3)),
                          tuple(draw(st.lists(NAMES, max_size=2))))
        for name in draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    }
    outputs = {
        name: OutputDef(name, draw(OPTIONAL_TEXT), draw(EXPRS))
        for name in draw(st.lists(NAMES, max_size=2, unique=True))
    }
    return TemplateDoc(draw(NAMES), draw(OPTIONAL_TEXT), parameters, resources, outputs)


@SETTINGS
@hypothesis.given(documents())
def test_parse_reads_back_what_serialize_writes(doc):
    text = serialize_template(doc)
    again = parse_template(text)
    assert again == doc
    assert again.warnings == []
    assert serialize_template(again) == text  # the canonical text is a fixed point


def test_documents_reach_every_expression_and_the_float_edge():
    """The generator is only worth running if it reaches these."""
    seen = set()

    def walk(expr):
        seen.add(type(expr))
        if isinstance(expr, Literal) and isinstance(expr.value, float) and abs(expr.value) >= 1e307:
            seen.add("edge")
        children = {ListOf: lambda e: e.items, MapOf: lambda e: [v for _, v in e.entries],
                    StrReplace: lambda e: [v for _, v in e.params]}.get(type(expr), lambda e: [])
        for child in children(expr):
            walk(child)

    @hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
    @hypothesis.given(documents())
    def collect(doc):
        for rdef in doc.resources.values():
            for expr in rdef.properties.values():
                walk(expr)
        for odef in doc.outputs.values():
            walk(odef.value)

    collect()
    assert seen >= {Literal, GetParam, GetAttr, GetResource, StrReplace, ListOf, MapOf, "edge"}
