"""The built-in resource types, declared once and read by both template
validation and deployment: each declared rule refused the same way by
both, the attributes each deploy step sets, and the README's table."""

import re

import pytest

from conftest import TEMPLATES, make_env
from minimano.hot import parse_template, validate_template
from minimano.resource_types import (
    RANDOM_STRING_TYPE,
    SERVER_TYPE,
    TYPES,
    WAIT_CONDITION_TYPE,
)

# what each type needs besides the property a row breaks
BASE = {
    SERVER_TYPE: {"image": "ubuntu_cloud14", "flavor": "m1.small"},
    RANDOM_STRING_TYPE: {},
    WAIT_CONDITION_TYPE: {"handle": "{ get_resource: h }", "timeout": "5"},
}


def template(rtype, name, value, ptype="string"):
    """A template whose resource `r` of `rtype` gives property `name` the
    YAML text `value`, beside a wait handle `h` and a parameter `p`."""
    props = {**BASE[rtype], name: value}
    return parse_template(
        "heat_template_version: 2013-05-23\n"
        f"parameters:\n  p:\n    type: {ptype}\n"
        "resources:\n"
        "  h:\n    type: OS::Heat::WaitConditionHandle\n"
        f"  r:\n    type: {rtype}\n    properties:\n"
        + "".join(f"      {key}: {text}\n" for key, text in props.items())
    )


# (type, property, the literal YAML validation refuses, the path below
#  resources.r.properties and the message of its finding, then the parameter
#  type and value by which deployment meets the same rule); deployment fails
#  the resource with the path and the message of the finding
RULES = {
    "user_data_format": (SERVER_TYPE, "user_data_format", "SOFTWARE_CONFIG", "user_data_format",
                         "only RAW is supported", "string", "SOFTWARE_CONFIG"),
    "networks-entry": (SERVER_TYPE, "networks", "\n        - network: my_net1\n        - my_net1",
                       "networks[1]", "each entry must be a map with a 'network' key",
                       "list", [{"network": "my_net1"}, "x"]),
    "networks-kind": (SERVER_TYPE, "networks", "my_net1", "networks", "expected a list",
                      "string", "x"),
    "security_groups-kind": (SERVER_TYPE, "security_groups", "5", "security_groups",
                             "expected a list", "number", 5),
    "image-kind": (SERVER_TYPE, "image", "\n        - a", "image", "expected a string",
                   "list", ["a"]),
    "key_name-kind": (SERVER_TYPE, "key_name", "5", "key_name", "expected a string", "number", 5),
    "user_data-kind": (SERVER_TYPE, "user_data", "5", "user_data", "expected a string",
                       "number", 5),
    "length-zero": (RANDOM_STRING_TYPE, "length", "0", "length",
                    "length must be a positive integer", "number", 0),
    "length-fraction": (RANDOM_STRING_TYPE, "length", "2.5", "length",
                        "length must be a positive integer", "number", 2.5),
    "length-kind": (RANDOM_STRING_TYPE, "length", "x", "length", "expected a number",
                    "string", "x"),
    "sequence": (RANDOM_STRING_TYPE, "sequence", "hex", "sequence", "unknown sequence 'hex'",
                 "string", "hex"),
    "sequence-list": (RANDOM_STRING_TYPE, "sequence", "\n        - digits", "sequence",
                      "expected a string", "list", ["digits"]),
    "sequence-map": (RANDOM_STRING_TYPE, "sequence", "\n        digits: 1", "sequence",
                     "expected a string", "map", {"digits": 1}),
    **{f"{name}-{value}": (WAIT_CONDITION_TYPE, name, value, name, message, "number",
                           float(value) if "." in value else int(value))
       for name, message in (("timeout", "timeout must be a positive tick count"),
                             ("count", "count must be a positive integer"))
       for value in ("0", "2.5" if name == "timeout" else "1.5", "-3")},
}


@pytest.mark.parametrize("rtype, name, literal, path, message, ptype, value", RULES.values(),
                         ids=RULES)
def test_validation_and_deploy_refuse_each_rule(rtype, name, literal, path, message, ptype,
                                                value):
    report = validate_template(template(rtype, name, literal))
    assert list(map(str, report.findings)) == [f"error: resources.r.properties.{path}: {message}"]
    env = make_env()
    doc = template(rtype, name, "{ get_param: p }", ptype)
    stack = env.world.engine.create_stack("s", doc, {"p": value}, token=env.token)
    assert stack.status == "CREATE_FAILED"
    assert stack.failure_reason == f"resource r: {path}: {message}"
    assert stack.records["r"].failure == f"{path}: {message}"


def test_a_value_that_evaluates_to_null_counts_as_absent():
    """A server on no network has a null first_address: given as a length
    it leaves the default, given as an image the image is missing."""
    env = make_env()
    doc = parse_template(
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  bare:\n    type: OS::Nova::Server\n    properties:\n"
        "      image: ubuntu_cloud14\n      flavor: m1.small\n"
        "  rng:\n    type: OS::Heat::RandomString\n    properties:\n"
        "      length: { get_attr: [bare, first_address] }\n"
        "  srv:\n    type: OS::Nova::Server\n    properties:\n"
        "      image: { get_attr: [bare, first_address] }\n      flavor: m1.small\n"
    )
    stack = env.world.engine.create_stack("s", doc, token=env.token)
    assert len(stack.records["rng"].attributes["value"]) == 32
    assert stack.failure_reason == "resource srv: missing mandatory property 'image'"


def test_each_deploy_step_sets_the_declared_attributes():
    env = make_env()
    doc = parse_template(
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  srv:\n    type: OS::Nova::Server\n    properties:\n"
        "      image: ubuntu_cloud14\n      flavor: m1.small\n"
        "  rng:\n    type: OS::Heat::RandomString\n"
        "  h:\n    type: OS::Heat::WaitConditionHandle\n"
        "  gate:\n    type: OS::Heat::WaitCondition\n    properties:\n"
        "      handle: { get_resource: h }\n      timeout: 5\n"
    )
    stack = env.world.engine.create_stack("s", doc, token=env.token)
    env.world.engine.deliver_signal(stack.records["h"].attributes["curl_cli"],
                                    {"status": "SUCCESS"})
    assert stack.status == "CREATE_COMPLETE"
    assert {record.type for record in stack.records.values()} == set(TYPES)
    for record in stack.records.values():
        assert set(record.attributes) == set(TYPES[record.type].attributes), record.type


def test_the_readme_table_matches_the_declarations():
    """Each built-in type's row: its mandatory and optional properties in
    declaration order, each default as `(…, default X)`, its attributes."""
    readme = (TEMPLATES.parent / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) == 4 and cells[0].strip("`") in TYPES:
            rows[cells[0].strip("`")] = cells[1:]
    assert set(rows) == set(TYPES)

    def entries(cell):  # name -> the text in parentheses after it
        return {} if cell == "—" else dict(re.findall(r"(\w+)(?: \(([^)]*)\))?(?:, |$)", cell))

    for name, spec in TYPES.items():
        mandatory, optional, attributes = map(entries, rows[name])
        assert list(mandatory) == list(spec.mandatory), name
        assert list(optional) == list(spec.optional), name
        defaults = {prop: re.search(r"default (\S+)", note).group(1)
                    for prop, note in optional.items() if "default" in note}
        assert defaults == {prop: str(value) for prop, value in spec.defaults.items()}, name
        assert list(attributes) == list(spec.attributes), name
        assert not any(attributes.values())
