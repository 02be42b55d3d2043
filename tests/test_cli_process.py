"""The CLI as a process: `python -m minimano.cli` against in-process `cli.main`.

`cli.run()` ends the process with `os._exit` and the cycle collector off.
These tests check that nothing is lost on the way out: a large output
arrives whole, exit codes match `main`'s, a write verb leaves a state file
that loads, a closed stdout is an I/O error or nothing, no file is left
open, and a call leaves no cyclic garbage beyond its argument parser's.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import minimano
from conftest import TEMPLATES, make_env
from minimano import cli
from minimano.statefile import load_world, save_world

SRC = str(Path(minimano.__file__).resolve().parent.parent)
ROOT = Path(__file__).resolve().parent.parent

GATED = (
    "heat_template_version: 2013-05-23\n"
    "resources:\n"
    "  handle:\n"
    "    type: OS::Heat::WaitConditionHandle\n"
    "  gate:\n"
    "    type: OS::Heat::WaitCondition\n"
    "    properties:\n"
    "      handle: { get_resource: handle }\n"
    "      timeout: 30\n"
)


@pytest.fixture
def operator(tmp_path, monkeypatch):
    """A state file whose event log prints as over 64 KiB of machine
    output; the environment of `main` and of a child names it."""
    env = make_env(seed=11)
    doc = env.parse("example2.yaml")
    for i in range(200):
        stack = env.world.engine.create_stack(f"s{i}", doc, token=env.token)
        env.world.engine.delete_stack(stack.id, env.token)
    state = tmp_path / "state.json"
    save_world(env.world, str(state))
    monkeypatch.setenv(cli.STATE_ENV, str(state))
    monkeypatch.setenv(cli.TOKEN_ENV, env.token)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal
    # a fixed environment: no inherited PYTHONUNBUFFERED or the like
    child_env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": SRC,
                 "COLUMNS": "80", cli.STATE_ENV: str(state), cli.TOKEN_ENV: env.token}
    return state, child_env


def _process(argv, env, stdout=subprocess.PIPE):
    return subprocess.run([sys.executable, "-m", "minimano.cli", *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)


def _in_process(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_large_machine_output_arrives_whole(operator, capsys):
    state, env = operator
    argv = ["events-tail", "-n", "0", "--format", "machine"]
    proc = _process(argv, env)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.encode()) > 64 * 1024
    assert (proc.returncode, proc.stdout, proc.stderr) == _in_process(argv, capsys)
    lines = proc.stdout.splitlines()
    assert len(lines) == len(load_world(str(state)).events)
    assert all(json.loads(line) for line in lines)


@pytest.mark.parametrize("argv, code", [
    (["stack-list", "--format", "machine"], 0),
    (["stack-show"], 2),                                    # usage
    (["stack-create", "x", "-f", "no-such-template.yaml"], 5),  # I/O
    (["stack-show", "no-such-stack"], 6),                   # not found
])
def test_exit_codes_and_output_match_main(operator, capsys, argv, code):
    _, env = operator
    proc = _process(argv, env)
    assert (proc.returncode, proc.stdout, proc.stderr) == _in_process(argv, capsys)
    assert proc.returncode == code


@pytest.mark.parametrize("argv", [
    ["clock-advance", "3"],
    ["stack-create", "demo", "-f", str(TEMPLATES / "example2.yaml"), "--tick-ms", "0"],
])
def test_write_verb_leaves_the_state_main_leaves(operator, capsys, argv):
    state, env = operator
    twin = state.with_name("twin.json")
    shutil.copyfile(state, twin)
    proc = _process(argv, env)
    assert proc.returncode == 0, proc.stderr
    assert _in_process([*argv, "--state", str(twin)], capsys)[0] == 0
    assert state.read_bytes() == twin.read_bytes()
    load_world(str(state))


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [["stack-list"], ["clock-advance", "1"]])
def test_stdout_reader_gone_is_an_io_error(operator, argv, unbuffered):
    _, env = operator
    if unbuffered:
        env = {**env, "PYTHONUNBUFFERED": "1"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _process(argv, env, stdout=write_end)
    finally:
        os.close(write_end)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 5
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_stdout_closed_at_start_still_succeeds(operator):
    state, env = operator
    tick = load_world(str(state)).tick
    for argv in (["stack-list"], ["clock-advance", "2"]):
        proc = subprocess.run(
            ["/bin/sh", "-c", 'exec "$0" -m minimano.cli "$@" >&-', sys.executable, *argv],
            env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
    assert load_world(str(state)).tick == tick + 2


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_write_verb_keeps_its_change_when_stdout_fails(operator, unbuffered):
    """The output of a verb that saves is written after the save, so a
    failed write reports exit 5 and the change stays, buffered or not."""
    state, env = operator
    if unbuffered:
        env = {**env, "PYTHONUNBUFFERED": "1"}
    tick = load_world(str(state)).tick
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _process(["clock-advance", "1"], env, stdout=write_end)
    finally:
        os.close(write_end)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 5
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert load_world(str(state)).tick == tick + 1


def test_object_get_with_stdout_closed_at_start_succeeds(operator, capsys):
    _, env = operator
    assert cli.main(["object-put", "c1", "o1", "--data", "payload"]) == 0
    capsys.readouterr()
    proc = subprocess.run(
        ["/bin/sh", "-c", 'exec "$0" -m minimano.cli "$@" >&-', sys.executable,
         "object-get", "c1", "o1"], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_verbs_that_read_files_close_them(operator, tmp_path):
    _, env = operator
    blob = tmp_path / "blob.bin"
    blob.write_bytes(b"\x00payload")
    for argv in (
        ["image-create", "blob-image", "--payload-file", str(blob)],
        ["object-put", "c1", "blob", "--file", str(blob)],
        ["stack-create", "nested", "-f", str(TEMPLATES / "example4.yaml"), "--tick-ms", "0"],
    ):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-m", "minimano.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, ""), argv


# runs each argv in one fresh process with the collector off, as `run()`
# does, and reports the cyclic garbage that parsing the argv alone leaves
# and that the whole call leaves
GARBAGE_CHILD = """
import gc, json, sys
gc.disable()
from minimano import cli
report = []
for argv in json.loads(sys.argv[1]):
    gc.collect()
    cli.build_parser().parse_args(argv)
    parsed = gc.collect()
    code = cli.main(argv)
    report.append([argv[0], code, parsed, gc.collect()])
print(json.dumps(report))
"""


def test_a_call_leaves_only_its_parsers_cyclic_garbage(operator, tmp_path):
    """`gc.disable()` cannot grow a call's memory: however many ticks a
    call advances or loads and saves, the cycles it leaves are the ones
    its argument parser leaves (argparse's), a fixed few dozen."""
    _, env = operator
    gated = tmp_path / "gated.yaml"
    gated.write_text(GATED)
    calls = [
        ["clock-advance", "1"],
        ["clock-advance", "200"],
        ["stack-create", "quick", "-f", str(TEMPLATES / "example2.yaml"), "--tick-ms", "0"],
        # blocks on its wait condition for 30 ticks, a load and save each
        ["stack-create", "gated", "-f", str(gated), "--tick-ms", "0"],
    ]
    proc = subprocess.run([sys.executable, "-c", GARBAGE_CHILD, json.dumps(calls)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert [code for _, code, _, _ in report] == [0, 0, 0, 4]
    assert all(left == parsed for _, _, parsed, left in report), report
    assert report[0][3] == report[1][3], report


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["scripts"] == {"minimano": "minimano.cli:run"}
