"""Cross-process serialization through the state-file lock."""

import json
import subprocess
import sys
from pathlib import Path

import minimano
from conftest import TEMPLATES

# the package's parent directory, so children import this checkout's
# minimano whether or not it is installed
SRC = str(Path(minimano.__file__).resolve().parent.parent)

# the process entry, as `python -m minimano.cli` and the `minimano`
# script run it: it ends with `os._exit`, after the save and the unlock
SCRIPT = """
from minimano import cli
cli.run()
"""


def run_cli(args, env_state, env_token=None):
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC, "MINIMANO_STATE": str(env_state)}
    if env_token:
        env["MINIMANO_TOKEN"] = env_token
    return subprocess.run(
        [sys.executable, "-c", SCRIPT, *args],
        capture_output=True, text=True, env=env,
    )


def test_entry_point_smoke(tmp_path):
    state = tmp_path / "state.json"
    result = run_cli(["init", "--seed", "5"], state)
    assert result.returncode == 0, result.stderr
    result = run_cli(["token-issue", "--user", "admin", "--password", "admin",
                      "--tenant", "admin", "--format", "machine"], state)
    assert result.returncode == 0, result.stderr
    token = json.loads(result.stdout)["token"]
    result = run_cli(["stack-list"], state, token)
    assert result.returncode == 0, result.stderr


def test_parallel_clock_advances_serialize(tmp_path):
    state = tmp_path / "state.json"
    assert run_cli(["init", "--seed", "5"], state).returncode == 0
    result = run_cli(["token-issue", "--user", "admin", "--password", "admin",
                      "--tenant", "admin", "--format", "machine"], state)
    token = json.loads(result.stdout)["token"]

    procs = [
        subprocess.Popen(
            [sys.executable, "-c", SCRIPT, "clock-advance", "10"],
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC, "MINIMANO_STATE": str(state),
                 "MINIMANO_TOKEN": token},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for _ in range(6)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err

    final = json.loads(Path(state).read_text())
    assert final["tick"] == 60  # no lost updates: 6 writers x 10 ticks


def test_two_processes_observe_identical_lists(tmp_path):
    state = tmp_path / "state.json"
    assert run_cli(["init", "--seed", "5"], state).returncode == 0
    result = run_cli(["token-issue", "--user", "admin", "--password", "admin",
                      "--tenant", "admin", "--format", "machine"], state)
    token = json.loads(result.stdout)["token"]
    for args in (
        ["image-create", "ubuntu_cloud14"],
        ["flavor-create", "m1.small", "--vcpus", "1", "--ram", "2048", "--disk", "20"],
        ["keypair-create", "my_key1"],
        ["net-create", "my_net1", "--cidr", "10.0.0.0/24"],
        ["stack-create", "demo", "-f", str(TEMPLATES / "example2.yaml"), "--tick-ms", "0"],
    ):
        assert run_cli(args, state, token).returncode == 0
    first = run_cli(["stack-list", "--format", "machine"], state, token)
    second = run_cli(["stack-list", "--format", "machine"], state, token)
    assert first.stdout == second.stdout and first.stdout.strip()
