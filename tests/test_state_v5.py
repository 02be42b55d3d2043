"""The snapshot v5 fixture, and the one table of upgrades.

`tests/data/state_v5.json` was written by the package at snapshot v5
from `state_v1`'s `build_fixture_world`, so it is the v1 fixture's v5
form. It holds the scheduled metrics and faults as JSON objects, which
v6 stores as tables of `ScheduledMetric` and `ScheduledFault` rows.
`world._upgrade_v5` keeps the keys each record declares, drops the rest
and takes a null as absent, as a scenario's entries are decoded, and
appends each `resource` to the stored `ids`.

`World.from_snapshot` upgrades a snapshot one version at a time, by the
step `_UPGRADES` holds for its integer `v`. A `v` of any other kind is a
malformed state file (exit 5), never read as a version it equals: `true`
was read as version 1. A `v` that is an integer but no known version is
unsupported (exit 2). An upgrade builds each old table layout once.
"""

import copy
import json
from pathlib import Path

import pytest

from minimano import cli, world
from minimano.telemetry import ScheduledFault, ScheduledMetric
from minimano.world import World, _upgrade_v5
from test_state_v1 import (FIXTURE, assert_same_snapshot, build_fixture_world, dump, fixture_texts,
                           saved_back, v6_text, v7_text)

FIXTURE_V5 = Path(__file__).resolve().parent / "data" / "state_v5.json"


def fixture_text() -> str:
    return FIXTURE_V5.read_text(encoding="utf-8")


def test_v5_fixture_is_the_v1_fixture_at_v5_and_holds_the_schedules_as_objects():
    v5 = fixture_text()
    assert v5 == fixture_texts()[4]
    telemetry = json.loads(v5)["telemetry"]
    assert telemetry["scheduled_metrics"] == [
        {"tick": 50, "group": "web", "metric": "cpu_util", "value": 0.9}]
    assert telemetry["scheduled_faults"] == [{"tick": 60, "group": "web", "member_index": 0}]


def test_upgrade_v5_gives_what_the_package_writes_and_leaves_its_input_as_it_was():
    data = json.loads(fixture_text())
    before = copy.deepcopy(data)
    v6 = json.dumps(_upgrade_v5(data), separators=(",", ":"))
    assert data == before
    assert v6 == v6_text(fixture_text())
    assert_same_snapshot(dump(build_fixture_world()), v7_text(v6))
    assert dump(World.from_snapshot(json.loads(fixture_text()))) == v7_text(v6)


def test_a_v5_state_file_is_saved_back_at_the_current_version(tmp_path):
    assert saved_back(FIXTURE_V5, tmp_path) == fixture_texts()[-1]


def _v5(**schedules) -> dict:
    data = json.loads(fixture_text())
    data["telemetry"].update(schedules)
    return data


def test_a_v5_entry_keeps_its_declared_keys_and_its_resource_is_appended_to_ids():
    data = _v5(scheduled_metrics=[{"tick": 9, "resource": "r-1", "metric": "m", "value": 1,
                                   "group": None, "colour": "red"}],
               scheduled_faults=[{"tick": 8, "group": "web", "kind": None}])
    stored = list(data["ids"])
    upgraded = _upgrade_v5(data)
    assert upgraded["ids"] == [*stored, "r-1"]
    telemetry = World.from_snapshot(upgraded).telemetry
    [metric], [fault] = telemetry.scheduled_metrics, telemetry.scheduled_faults
    assert type(metric) is ScheduledMetric and type(fault) is ScheduledFault
    assert (metric.tick, metric.resource, metric.metric, metric.value, metric.group) == (
        9, "r-1", "m", 1, None)
    assert (fault.tick, fault.group, fault.kind, fault.member_index) == (
        8, "web", "instance_crash", None)


@pytest.mark.parametrize("schedules, message", [
    ({"scheduled_metrics": {"tick": 1}}, "v5 scheduled_metrics must be a list"),
    ({"scheduled_faults": [["T", "web"]]}, "v5 scheduled_faults entry 0 must be an object"),
    ({"scheduled_metrics": [{"group": "web", "metric": "m", "value": 1}]},
     "v5 scheduled_metrics entry 0 lacks 'tick'"),
    ({"scheduled_metrics": [{"tick": 1, "group": "web", "metric": "m", "value": "x"}]},
     "v5 scheduled_metrics entry 0 value must be float"),
    ({"scheduled_faults": [{"tick": 1, "resource": 5}]},
     "v5 scheduled_faults entry 0 resource must be str | None"),
    ({"scheduled_faults": [{"tick": 1}]}, "v5 scheduled_faults entry 0 names neither"),
    ({"scheduled_faults": [{"tick": 1, "group": "web", "member_index": -1}]},
     "v5 scheduled_faults entry 0 member_index must not be negative, got -1"),
    ({"scheduled_faults": [{"tick": 1, "group": "web", "kind": "reboot"}]},
     "v5 scheduled_faults entry 0 kind must be one of instance_crash, got 'reboot'"),
], ids=["schedule-not-a-list", "entry-not-an-object", "entry-lacks-tick", "value-text",
        "resource-a-number", "no-target", "member_index-negative", "kind-unknown"])
def test_a_malformed_v5_schedule_is_a_state_error(tmp_path, monkeypatch, capsys, schedules,
                                                  message):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(_v5(**schedules)), encoding="utf-8")
    monkeypatch.setenv(cli.STATE_ENV, str(path))
    monkeypatch.delenv(cli.TOKEN_ENV, raising=False)
    assert cli.main(["stack-list"]) == 5
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        f"error: state file {str(path)!r} is malformed: {message}"), lines


@pytest.mark.parametrize("fixture", ["v1", "current"])
@pytest.mark.parametrize("version", [True, 6.0, "6", None])
def test_a_version_of_no_integer_kind_is_malformed(tmp_path, monkeypatch, capsys, fixture,
                                                   version):
    """`"v": true` read the v1 fixture as v1, and a current file as v1 too,
    which then failed with `string indices must be integers`."""
    text = FIXTURE.read_text(encoding="utf-8") if fixture == "v1" else fixture_texts()[-1]
    data = json.loads(text)
    data["v"] = version
    path = tmp_path / "state.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.setenv(cli.STATE_ENV, str(path))
    monkeypatch.delenv(cli.TOKEN_ENV, raising=False)
    assert cli.main(["stack-list"]) == 5
    assert capsys.readouterr().err == (f"error: state file {str(path)!r} is malformed: "
                                       f"unsupported state snapshot version {version!r}\n")


def test_an_upgrade_builds_each_old_layout_once(monkeypatch):
    """A v1 load built two layouts for every table and every nested table
    of every row: a second load of the same file now builds none."""
    text = FIXTURE.read_text(encoding="utf-8")
    World.from_snapshot(json.loads(text))
    built = []
    layout = world.layout
    monkeypatch.setattr(world, "layout", lambda *args: built.append(args) or layout(*args))
    World.from_snapshot(json.loads(text))
    assert built == []
    world._layout.cache_clear()
    World.from_snapshot(json.loads(text))
    assert built and len(built) == len({(cls, tuple(names)) for cls, names in built})
