"""Malformed scenario files, generated: every value of
`tests/data/autonomic_scenario.json` (each section, each entry, each key
of an entry, nested ones too) is set in turn to each of a few JSON
values, and each mutated file is run by `scenario-run`.

The scenario twin of `test_malformed_state`. Each case must end with a
documented exit code, and a non-zero one with one `error:` line, never
with an exception out of `cli.main`.
"""

import json
from pathlib import Path

from minimano import cli
from test_malformed_old_state import PROBES
from test_malformed_state import EXIT_CODES

SCENARIO = Path(__file__).resolve().parent / "data" / "autonomic_scenario.json"


def places(node, path=()):
    """(path, container, key) of every value under `node`."""
    for key in (node if type(node) is dict else range(len(node))):
        yield (*path, key), node, key
        if type(node[key]) in (dict, list):
            yield from places(node[key], (*path, key))


def test_every_malformed_value_of_a_scenario_exits_cleanly(tmp_path, capsys):
    data = json.loads(SCENARIO.read_text(encoding="utf-8"))
    path = tmp_path / "scenario.json"
    codes = {}
    for place, parent, key in list(places(data)):
        original = parent[key]
        for value in PROBES:
            parent[key] = value
            case = f"{'.'.join(map(str, place))} = {value!r}"
            path.write_text(json.dumps(data), encoding="utf-8")
            try:
                code = cli.main(["scenario-run", str(path)])
            except Exception as exc:
                raise AssertionError(f"{case}: {type(exc).__name__} escaped cli.main") from exc
            lines = capsys.readouterr().err.splitlines()
            assert code in EXIT_CODES, (case, code, lines)
            assert code == 0 or len(lines) == 1 and lines[0].startswith("error: "), (case, lines)
            codes[code] = codes.get(code, 0) + 1
        parent[key] = original
    assert data == json.loads(SCENARIO.read_text(encoding="utf-8"))
    assert sum(codes.values()) > 700 and codes.get(2, 0) > 300 and codes.get(0, 0) > 50, codes


def test_a_generator_on_a_group_the_scenario_does_not_create_is_refused(tmp_path, capsys):
    """As a scheduled metric or fault is: exit 2 and one line, where the
    run once exited 0 and the generator recorded nothing."""
    data = json.loads(SCENARIO.read_text(encoding="utf-8"))
    data["generators"] = [{"group": "web"}, {"group": "nosuch"}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main(["scenario-run", str(path)]) == 2
    assert capsys.readouterr().err == ("error: scenario 'generators' entry 1 names scaling group "
                                       "'nosuch', which does not exist\n")
