"""Validation findings: references, mandatory properties, type checks."""

import pytest

from conftest import VALUE_PLACES, place_value
from minimano.hot import parse_template, validate_template


def parse(templates_dir, name):
    return parse_template((templates_dir / name).read_text())


HEADER = "heat_template_version: 2013-05-23\n"


def test_example2_validates_clean(templates_dir):
    report = validate_template(parse(templates_dir, "example2.yaml"))
    assert report.ok
    assert report.findings == []


def test_example1_validates_clean(templates_dir):
    assert validate_template(parse(templates_dir, "example1.yaml")).ok


def test_output_referencing_undeclared_resource():
    doc = parse_template(
        HEADER
        + "resources:\n"
        + "  a:\n"
        + "    type: OS::Heat::RandomString\n"
        + "outputs:\n"
        + "  v:\n"
        + "    value: { get_attr: [ghost, value] }\n"
    )
    report = validate_template(doc)
    assert len(report.errors) == 1
    assert "unknown resource 'ghost'" in report.errors[0].message


def test_server_missing_mandatory_image():
    doc = parse_template(
        HEADER
        + "resources:\n"
        + "  srv:\n"
        + "    type: OS::Nova::Server\n"
        + "    properties:\n"
        + "      flavor: m1.small\n"
    )
    report = validate_template(doc)
    assert not report.ok
    assert any("missing mandatory property 'image'" in f.message for f in report.errors)


def test_unknown_resource_type():
    doc = parse_template(HEADER + "resources:\n  x:\n    type: OS::Nova::Flavor\n")
    report = validate_template(doc)
    assert any("unknown resource type" in f.message for f in report.errors)


def test_nested_template_type_is_not_unknown():
    doc = parse_template(HEADER + "resources:\n  child:\n    type: mysql.yaml\n")
    assert validate_template(doc).ok


def test_unknown_property_flagged():
    doc = parse_template(
        HEADER
        + "resources:\n"
        + "  srv:\n"
        + "    type: OS::Nova::Server\n"
        + "    properties:\n"
        + "      image: img\n"
        + "      flavor: f\n"
        + "      hypervisor: kvm\n"
    )
    report = validate_template(doc)
    assert any("unknown property 'hypervisor'" in f.message for f in report.errors)


def test_user_data_format_other_than_raw_is_error():
    doc = parse_template(
        HEADER
        + "resources:\n"
        + "  srv:\n"
        + "    type: OS::Nova::Server\n"
        + "    properties:\n"
        + "      image: img\n"
        + "      flavor: f\n"
        + "      user_data_format: SOFTWARE_CONFIG\n"
    )
    report = validate_template(doc)
    assert any("only RAW" in f.message for f in report.errors)


def test_property_type_mismatch():
    doc = parse_template(
        HEADER
        + "resources:\n"
        + "  srv:\n"
        + "    type: OS::Nova::Server\n"
        + "    properties:\n"
        + "      image: img\n"
        + "      flavor: f\n"
        + "      networks: just-a-string\n"
    )
    report = validate_template(doc)
    assert any("expected a list" in f.message for f in report.errors)


def test_unknown_attribute_in_get_attr():
    doc = parse_template(
        HEADER
        + "resources:\n"
        + "  a:\n"
        + "    type: OS::Heat::RandomString\n"
        + "outputs:\n"
        + "  v:\n"
        + "    value: { get_attr: [a, secret] }\n"
    )
    report = validate_template(doc)
    assert any("no attribute 'secret'" in f.message for f in report.errors)


def test_wait_condition_handle_must_reference_a_handle():
    doc = parse_template(
        HEADER
        + "resources:\n"
        + "  a:\n"
        + "    type: OS::Heat::RandomString\n"
        + "  w:\n"
        + "    type: OS::Heat::WaitCondition\n"
        + "    properties:\n"
        + "      handle: { get_resource: a }\n"
        + "      timeout: 10\n"
    )
    report = validate_template(doc)
    assert any("is not a OS::Heat::WaitConditionHandle" in f.message for f in report.errors)


def test_parameter_default_must_conform_to_type():
    doc = parse_template(
        HEADER
        + "parameters:\n"
        + "  n:\n"
        + "    type: number\n"
        + "    default: not-a-number\n"
        + "resources:\n"
        + "  a:\n"
        + "    type: OS::Heat::RandomString\n"
    )
    report = validate_template(doc)
    assert any("does not conform" in f.message for f in report.errors)


def test_parse_warnings_become_report_warnings():
    doc = parse_template(
        HEADER
        + "resources:\n"
        + "  a:\n"
        + "    type: OS::Heat::RandomString\n"
        + "outputs:\n"
        + "  v:\n"
        + "    value: { get_pattr: [a, value] }\n"
    )
    report = validate_template(doc)
    assert report.ok
    assert any("get_pattr" in f.message for f in report.warnings)


@pytest.mark.parametrize("where", list(VALUE_PLACES))
def test_an_unknown_parameter_is_found_at_its_property_or_output(where):
    _, text = place_value(where, ["get_param: nope"])
    # the finding names the property or output that holds the call
    path = "outputs.o.value" if where == "output" else "resources.r.properties.p"
    findings = validate_template(parse_template(text)).findings
    assert [str(f) for f in findings if "parameter" in f.message] == [
        f"error: {path}: unknown parameter 'nope'"]


@pytest.mark.parametrize("handle", [
    "handle", "{ get_param: h }", "{ get_attr: [handle, handle_id] }", "[handle]",
], ids=["literal", "get_param", "get_attr", "list"])
def test_a_handle_that_is_no_get_resource_is_found(handle):
    doc = parse_template(
        HEADER
        + "parameters:\n  h:\n    type: string\n"
        + "resources:\n"
        + "  handle:\n"
        + "    type: OS::Heat::WaitConditionHandle\n"
        + "  gate:\n"
        + "    type: OS::Heat::WaitCondition\n"
        + "    properties:\n"
        + f"      handle: {handle}\n"
        + "      timeout: 5\n"
    )
    assert list(map(str, validate_template(doc).findings)) == [
        "error: resources.gate.properties.handle: must be a get_resource reference"]
