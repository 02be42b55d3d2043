"""Import guard: verbs that read no template leave the template layer,
`dataclasses`, `inspect` and `hashlib` unloaded, and the verbs that read
one leave `dataclasses` and `inspect` unloaded.

    PYTHONPATH=src python tests/import_guard.py

Builds a state file in a temporary directory (a deployed server stack and
a stack blocked on a wait condition), then runs, in one fresh process,
seven verbs that read no template (the last deletes the server stack)
and after them three that do. After each verb it notes the exit code and
which of `minimano.hot`, `minimano.yamlite`, `minimano.plan`, `uuid`,
`hashlib`, `dataclasses` and `inspect` are loaded, of those the
interpreter had not loaded before it imported the CLI. Every verb must exit
0. The first seven, none of which hashes anything, must load none of
them; `template-validate`, `stack-create` and `signal` must load neither
`dataclasses` nor `inspect`. Prints the report and exits 1 otherwise.
Needs only the standard library; the tier-1 suite runs the same check.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import minimano
from minimano.hot import parse_template
from minimano.statefile import save_world
from minimano.world import World

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(minimano.__file__).resolve().parent.parent)
UNLOADED = ("minimano.hot", "minimano.yamlite", "minimano.plan", "uuid", "hashlib",
            "dataclasses", "inspect")
# what a template verb must leave unloaded, of `UNLOADED`
TEMPLATE_UNLOADED = ("dataclasses", "inspect")

GATED = (
    "heat_template_version: 2013-05-23\n"
    "resources:\n"
    "  handle:\n"
    "    type: OS::Heat::WaitConditionHandle\n"
    "  gate:\n"
    "    type: OS::Heat::WaitCondition\n"
    "    properties:\n"
    "      handle: { get_resource: handle }\n"
    "      timeout: 50\n"
)

# a module the interpreter loaded before `cli` (a site hook may load
# `inspect`) is not the program's doing, so only later loads are reported
CHILD = """
import json, sys
watched = [m for m in json.loads(sys.argv[2]) if m not in sys.modules]
from minimano import cli
report = []
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    report.append([argv[0], code, [m for m in watched if m in sys.modules]])
with open(sys.argv[3], "w") as fh:
    json.dump(report, fh)
"""


def run(workdir) -> tuple:
    """(report, expected report, the child's stderr) for a run in `workdir`;
    a report row is [verb, exit code, modules loaded]."""
    workdir = Path(workdir)
    template = ROOT / "templates" / "example2.yaml"
    world = World(seed=3)
    tenant = world.identity.tenant_by_name("admin").id
    token = world.identity.authenticate("admin", "admin", "admin").id
    world.provider.register_image(tenant, "ubuntu_cloud14", b"ubuntu cloud image")
    world.provider.create_flavor(tenant, "m1.small", 1, 2048, 20)
    world.provider.create_keypair(tenant, "my_key1")
    world.provider.create_network(tenant, "my_net1", "10.0.0.0/24")
    stack = world.engine.create_stack("web", parse_template(template.read_text()), token=token)
    gated = world.engine.create_stack("gated", parse_template(GATED), token=token)
    state = workdir / "state.json"
    save_world(world, str(state))

    plain = [
        ["stack-list"],
        ["stack-show", stack.id],
        ["events-tail", "-n", "5"],
        ["metric-push", stack.records["my_instance"].physical_id, "cpu_util", "0.5"],
        ["clock-advance", "1"],
        ["fip-allocate"],
        ["stack-delete", stack.id],
    ]
    templated = [
        ["template-validate", "-f", str(template)],
        ["stack-create", "web2", "-f", str(template), "--tick-ms", "0"],
        ["signal", gated.records["handle"].attributes["curl_cli"], '{"status": "SUCCESS"}'],
    ]
    argvs = plain + templated
    report_path = workdir / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs), json.dumps(UNLOADED),
         str(report_path)],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC, "MINIMANO_STATE": str(state),
             "MINIMANO_TOKEN": token},
        capture_output=True, text=True,
    )
    report = json.loads(report_path.read_text()) if report_path.exists() else []
    # of a template verb, only what it must not load is checked
    seen = [[verb, code, loaded if i < len(plain) else
             [m for m in loaded if m in TEMPLATE_UNLOADED]]
            for i, (verb, code, loaded) in enumerate(report)]
    expected = [[argv[0], 0, []] for argv in argvs]
    return seen, expected, proc.stderr


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        report, expected, stderr = run(workdir)
    for row in report:
        print(*row)
    if report != expected:
        print(f"import guard failed; expected {expected}\n{stderr}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
