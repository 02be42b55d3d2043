"""`yamlite` against a recorded corpus, and a property over any text.

`tests/data/yamlite_corpus.json` holds the shipped templates and seeded
mutations of them, each with what the reader of commit d321974 made of
it (see `tests/make_yamlite_corpus.py`). That reader spliced a line into
its input for each `- key: value` item, so an error after such an item
named a line too late, and a column too small when more than one blank
followed the dash. Only those positions may differ now, and only to the
line and column that hold the text the old reader blamed.
"""

import json
import pathlib
import re

import pytest

from minimano import yamlite
from minimano.errors import TemplateSyntaxError

CORPUS = json.loads((pathlib.Path(__file__).parent / "data" / "yamlite_corpus.json").read_text())
_LOC = re.compile(r"^line \d+(, column \d+)?: ")


def _canonical(value):
    """JSON text that tells 1, 1.0 and True apart, unlike `==`."""
    return json.dumps(value)


@pytest.mark.parametrize("case", CORPUS, ids=[case["name"] for case in CORPUS])
def test_corpus_case(case):
    text = case["text"]
    if "value" in case:
        value = yamlite.parse(text)
        assert _canonical(value) == _canonical(case["value"])
        assert yamlite.dump(value) == case["dump"]
        return
    with pytest.raises(TemplateSyntaxError) as err:
        yamlite.parse(text)
    exc = err.value
    assert _LOC.sub("", exc.message, count=1) == case["error"]
    if (exc.line, exc.column) == (case["line"], case["column"]):
        return
    # moved by the line fix: the old reader counted one spliced line per
    # `- key: value` item before the error, so the line can only be earlier.
    # The real line is the one the old reader blamed or, when that was a
    # spliced line, the dash line it was cut from
    assert exc.line < case["line"]
    blamed = case["line_text"]
    real = text.split("\n")[exc.line - 1]
    assert real == blamed or (real.lstrip().startswith("-") and blamed.strip() in real)
    if exc.column is not None:
        assert real[exc.column :].startswith(blamed[case["column"] :])


def test_corpus_covers_moved_positions():
    moved = 0
    for case in CORPUS:
        if "error" not in case:
            continue
        try:
            yamlite.parse(case["text"])
        except TemplateSyntaxError as exc:
            moved += (exc.line, exc.column) != (case["line"], case["column"])
    assert moved >= 3
