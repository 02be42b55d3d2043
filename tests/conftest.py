from dataclasses import dataclass
from pathlib import Path

import pytest

from minimano.hot import parse_template
from minimano.world import World

TEMPLATES = Path(__file__).resolve().parent.parent / "templates"

_acceptance_results = {}


@pytest.fixture
def templates_dir():
    return TEMPLATES


@dataclass
class Env:
    world: World
    token: str
    tenant_id: str

    def parse(self, name):
        return parse_template((TEMPLATES / name).read_text())


def make_env(seed=42, hosts=None, policy=None) -> Env:
    """World provisioned with the inputs the worked examples reference."""
    world = World(seed=seed, hosts=hosts, policy=policy, template_dir=str(TEMPLATES))
    tenant = world.identity.tenant_by_name("admin")
    token = world.identity.authenticate("admin", "admin", "admin")
    world.provider.register_image(tenant.id, "ubuntu_cloud14", b"ubuntu cloud image")
    world.provider.create_flavor(tenant.id, "m1.small", 1, 2048, 20)
    world.provider.create_keypair(tenant.id, "my_key1")
    world.provider.create_network(tenant.id, "my_net1", "10.0.0.0/24")
    return Env(world=world, token=token.id, tenant_id=tenant.id)


@pytest.fixture
def env() -> Env:
    return make_env()


_RESOURCE = "heat_template_version: 2013-05-23\nresources:\n  r:\n    type: OS::Heat::RandomString\n"
_PROPERTY = _RESOURCE + "    properties:\n      p:\n"
# where a template value may sit: the path a finding or refusal names, the
# text before the value's block lines, and the indentation of its first
# line and of the others
VALUE_PLACES = {
    "property": ("resources.r.properties.p", _PROPERTY, 8, 8),
    "output": ("outputs.o.value", _RESOURCE + "outputs:\n  o:\n    value:\n", 6, 6),
    "list-entry": ("resources.r.properties.p[1]", _PROPERTY + "        - x\n        - ", 0, 10),
    "str-replace-param": ("resources.r.properties.p.params.M", _PROPERTY + "        str_replace:\n"
                          "          template: M\n          params:\n            M:\n", 14, 14),
}


def place_value(where, lines) -> tuple:
    """(path, template text) of a template holding the value written as
    the block `lines` at `where`, one of `VALUE_PLACES`: resource `r`'s
    property `p`, output `o`, the second entry of `p`, or the value of
    marker `M` of a str_replace in `p`."""
    path, before, first, rest = VALUE_PLACES[where]
    return path, before + "".join(" " * (first if i == 0 else rest) + line + "\n"
                                  for i, line in enumerate(lines))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(num, title): marks a test as one acceptance criterion"
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    marker = item.get_closest_marker("acceptance")
    if marker and report.when == "call":
        _acceptance_results[marker.args[0]] = (marker.args[1], report.outcome)
    return report


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_acceptance_results):
        title, outcome = _acceptance_results[num]
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {status} - {title}")
