"""Property tests for `yamlite` over generated text.

Any text either parses or raises `TemplateSyntaxError` naming a line of
that text; the comment scan agrees with the quote-aware character loop
it replaced, kept here as the reference; and `parse` reads back what
`dump` writes for any JSON-like value, whatever text its keys hold.
"""

import pytest

from minimano import yamlite
from minimano.errors import TemplateSyntaxError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(derandomize=True, max_examples=400, deadline=None)

# line pieces that reach every construct: block items and entries, inline
# mapping items, literal blocks, flow collections, quotes, comments, markers
PIECES = ["- ", "-  ", "-", "a: ", "b:", "c: 1", "|", "|-", ">", "{ x: 1 }", "{ y: [p, q] }",
          "[a, 'b']", "'s''t'", '"d\\"q"', " # c", "#", "---", "%x", "\t", ":", "{", "]", "x"]
LINES = st.builds(
    lambda indent, pieces: " " * indent + "".join(pieces),
    st.integers(min_value=0, max_value=6),
    st.lists(st.sampled_from(PIECES), max_size=4),
)
DOCUMENTS = st.one_of(
    st.lists(LINES, max_size=12).map("\n".join),
    st.text(alphabet=" \t\n:#-'\"{}[],|>%&*ab1", max_size=80),
)


@SETTINGS
@hypothesis.given(DOCUMENTS)
def test_any_text_parses_or_names_one_of_its_lines(text):
    try:
        yamlite.parse(text)
    except TemplateSyntaxError as exc:
        assert exc.line is not None
        assert 1 <= exc.line <= text.count("\n") + 1


def reference_strip_comment(content):
    quote = None
    i = 0
    while i < len(content):
        ch = content[i]
        if quote:
            if quote == '"' and ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
        elif ch == "#" and (i == 0 or content[i - 1] in " \t"):
            return content[:i].rstrip()
        i += 1
    return content.rstrip()


@SETTINGS
@hypothesis.given(st.text(alphabet="a #'\"\\\t", max_size=24))
def test_comment_scan_matches_the_character_loop(content):
    assert yamlite._strip_comment(content) == reference_strip_comment(content)


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(allow_nan=False, allow_infinity=False), st.text())
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@SETTINGS
@hypothesis.given(st.dictionaries(st.text(), VALUES, min_size=1, max_size=4))
@hypothesis.example({"x: y": 1, "a\n": {"": [{"'q": None}]}, "b:": "c"})
@hypothesis.example({"a": [1e16, 5e-324, -1.5e-07]})
def test_parse_reads_back_what_dump_writes(value):
    assert yamlite.parse(yamlite.dump(value)) == value


def test_a_flow_key_with_a_colon_and_a_flow_string_with_a_comma_are_quoted():
    value = {"f": yamlite.Flow({"a:b": 1, "get_param": "x,y"}), "g": yamlite.Flow(["p,q", "r"])}
    text = yamlite.dump(value)
    assert text == 'f: { "a:b": 1, get_param: "x,y" }\ng: ["p,q", r]\n'
    assert yamlite.parse(text) == {"f": {"a:b": 1, "get_param": "x,y"}, "g": ["p,q", "r"]}


@pytest.mark.parametrize("text, column", [("a: 1.0e999\n", 10), ("a: -1.0e999\n", 11),
                                          ("a: [1, 1.0e999]\n", 14), ("- {b: -1.0e999}\n", 14)])
def test_an_out_of_range_float_is_refused_where_it_stands(text, column):
    with pytest.raises(TemplateSyntaxError) as err:
        yamlite.parse(text)
    assert (err.value.line, err.value.column) == (1, column)
    assert "out of range" in err.value.message


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_dump_refuses_a_float_that_parse_never_gives(value):
    with pytest.raises(ValueError):
        yamlite.dump({"a": value})
    # the spelling as a string reads back as that string
    assert yamlite.parse(yamlite.dump({"a": repr(value)})) == {"a": repr(value)}
