"""Write the `yamlite` regression corpus to stdout as JSON.

    PYTHONPATH=<checkout>/src python tests/make_yamlite_corpus.py > tests/data/yamlite_corpus.json

`tests/data/yamlite_corpus.json` was written this way from commit
d321974, the last one whose reader spliced a line into its input for
each `- key: value` sequence item. `tests/test_yamlite_corpus.py` holds
later readers to it. Regenerate it only from that commit.

Each case is one of the shipped templates or a seeded mutation of one
(1 to 3 characters inserted or deleted). A case that parses records the
value and `dump(value)`; one that does not records the error message
without its position, the line and column, and the text of the line the
reader named, as that reader saw it.
"""

import json
import pathlib
import random
import re
import sys

from minimano import yamlite
from minimano.errors import TemplateSyntaxError

TEMPLATES = pathlib.Path(__file__).resolve().parent.parent / "templates"
ALPHABET = " \t:#-'\"{}[],|>\n%&*"
MUTATIONS = 300
SEED = 20261018
# inline-mapping sequence items followed by an error, with a literal block
# inside an item and more than one space after a dash; a literal block that
# holds lines which would be errors outside it
EXTRA = [
    "items:\n  - a: 1\n  - b: 2\n  - c: 3\nbad line here\n",
    "items:\n  - a: |\n      text\n      more\n    b: 2\n  - c: 3\n%bad\n",
    "items:\n  -   a: 1\n  -   b: { x\n",
    "items:\n  -  a: [1, 2\n",
    "items:\n  - - a: 1\n    - b: ]x\n",
    "a: |\n  ---\n  %x\n  \tt\nb: 1\n",
]
_LOC = re.compile(r"^line \d+(, column \d+)?: ")


def _case(name, text):
    parser = yamlite._Parser(text)
    try:
        value = parser.parse_document()
    except TemplateSyntaxError as exc:
        line = exc.line
        line_text = parser.raw[line - 1] if line is not None and 0 < line <= len(parser.raw) else None
        return {"name": name, "text": text, "error": _LOC.sub("", exc.message, count=1),
                "line": line, "column": exc.column, "line_text": line_text}
    return {"name": name, "text": text, "value": value, "dump": yamlite.dump(value)}


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(text) + 1)
        if rng.random() < 0.5 or pos == len(text):
            text = text[:pos] + rng.choice(ALPHABET) + text[pos:]
        else:
            text = text[:pos] + text[pos + 1 :]
    return text


def main():
    sources = {p.name: p.read_text() for p in sorted(TEMPLATES.glob("*.yaml"))}
    cases = [_case(name, text) for name, text in sources.items()]
    cases += [_case(f"extra-{i}", text) for i, text in enumerate(EXTRA)]
    rng = random.Random(SEED)
    names = sorted(sources)
    for i in range(MUTATIONS):
        name = rng.choice(names)
        cases.append(_case(f"{name}~{i}", _mutate(rng, sources[name])))
    json.dump(cases, sys.stdout, indent=0, separators=(",", ":"), ensure_ascii=False)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
