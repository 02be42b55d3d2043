"""CLI start-up: a verb loads and builds only what it uses.

A verb that never reads a template leaves the template layer (`hot`,
`yamlite`, `plan`), `uuid` and `hashlib` unimported; the top-level parser builds
only the subparser of the verb that runs, with the same output as a
parser that holds every verb; and UUIDs are formatted without `uuid`.
"""

import io
import random
import uuid
from contextlib import redirect_stderr, redirect_stdout

import pytest

import import_guard
from minimano import cli
from minimano.world import format_uuid4

# -- the import guard ------------------------------------------------------------


def test_non_template_verbs_leave_the_template_layer_unloaded(tmp_path):
    report, expected, stderr = import_guard.run(tmp_path)
    assert report == expected, stderr


# -- the parser ---------------------------------------------------------------------


def _all_verbs_parser():
    parser = cli.build_parser()
    parser.add_verbs(cli.VERBS)
    return parser


def _outcome(parser, argv):
    """(namespace, exit code, stdout, stderr) of parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    namespace, code = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return namespace, code, out.getvalue(), err.getvalue()


def _representative(verb):
    """An argv for `verb` that gives every one of its arguments a valid value."""
    sub = _all_verbs_parser()._verbs.choices[verb]
    positionals, options = [], []
    for action in sub._actions:
        if action.dest == "help":
            continue
        if action.choices:
            value = action.choices[-1]
        else:
            value = "7" if action.type in (int, float, cli._count) else f"{action.dest}-value"
        if not action.option_strings:
            positionals.append(value)
        elif action.nargs == 0:
            options.append(action.option_strings[-1])
        else:
            options += [action.option_strings[-1], value]
    return [verb, *positionals, *options]


@pytest.mark.parametrize("verb", list(cli.VERBS))
def test_each_verb_parses_as_with_every_verb_built(verb):
    argv = _representative(verb)
    lazy = _outcome(cli.build_parser(), argv)
    assert lazy == _outcome(_all_verbs_parser(), argv)
    assert lazy[0]["_verb"] == verb and lazy[0]["format"] == "machine"
    for argv in ([verb, "-h"], [verb], [verb, "--no-such-option"], [*argv, "extra"]):
        assert _outcome(cli.build_parser(), argv) == _outcome(_all_verbs_parser(), argv), argv


def test_a_call_builds_one_subparser():
    parser = cli.build_parser()
    parser.parse_args(["stack-list"])
    assert list(parser._verbs.choices) == ["stack-list"]


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["-h", "stack-list"], 0),
    ([], 2),
    (["no-such-verb"], 2),
    (["--state", "s.json", "stack-list"], 2),
])
def test_help_and_usage_errors_list_every_verb(argv, code):
    lazy = _outcome(cli.build_parser(), argv)
    assert lazy == _outcome(_all_verbs_parser(), argv)
    assert lazy[1] == code
    text = lazy[2] + lazy[3]
    assert "{" + ",".join(cli.VERBS) + "}" in text.replace("\n", "").replace(" ", "")
    assert cli.main(argv) == code


# -- UUIDs without `uuid` ------------------------------------------------------------


def test_format_uuid4_matches_the_uuid_module():
    rng = random.Random(20261018)
    draws = [0, 2**128 - 1] + [rng.getrandbits(128) for _ in range(10_000)]
    for n in draws:
        assert format_uuid4(n) == str(uuid.UUID(int=n, version=4)), n

