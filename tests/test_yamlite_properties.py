"""Property tests for `yamlite` over generated text.

Any text either parses or raises `TemplateSyntaxError` naming a line of
that text, and the comment scan agrees with the quote-aware character
loop it replaced, kept here as the reference. Texts that the canonical
writer of earlier versions wrote, and that state files may still store,
read back as the values it was given.
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


# (text, value): what the canonical writer wrote for each value that its
# round-trip property test named: keys that need quotes, exponents, a flow
# key with a colon, flow strings with a comma, and an infinity's spellings
WRITTEN = [
    ('"x: y": 1\n"a\\n":\n  "":\n    - "\'q": null\n"b:": c\n',
     {"x: y": 1, "a\n": {"": [{"'q": None}]}, "b:": "c"}),
    ("a:\n  - 1.0e+16\n  - 5.0e-324\n  - -1.5e-07\n", {"a": [1e16, 5e-324, -1.5e-07]}),
    ('f: { "a:b": 1, get_param: "x,y" }\ng: ["p,q", r]\n',
     {"f": {"a:b": 1, "get_param": "x,y"}, "g": ["p,q", "r"]}),
    ("a: inf\n", {"a": "inf"}),
    ('a: "-inf"\n', {"a": "-inf"}),
    ("a: nan\n", {"a": "nan"}),
]


@pytest.mark.parametrize("text, value", WRITTEN,
                         ids=["quoted-keys", "exponents", "flow", "inf", "-inf", "nan"])
def test_parse_reads_what_the_canonical_writer_wrote(text, value):
    assert repr(yamlite.parse(text)) == repr(value)  # repr tells 1e16 from 10**16


@pytest.mark.parametrize("text, column", [("a: 1.0e999\n", 10), ("a: -1.0e999\n", 11),
                                          ("a: [1, 1.0e999]\n", 14), ("- {b: -1.0e999}\n", 14)])
def test_an_out_of_range_float_is_refused_where_it_stands(text, column):
    with pytest.raises(TemplateSyntaxError) as err:
        yamlite.parse(text)
    assert (err.value.line, err.value.column) == (1, column)
    assert "out of range" in err.value.message
