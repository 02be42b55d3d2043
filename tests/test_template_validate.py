"""Validation findings: references, mandatory properties, type checks."""

import pytest

from conftest import VALUE_PLACES, place_value
from minimano import cli
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


RESOURCE = "resources:\n  r:\n    type: OS::Heat::RandomString\n"
# id -> (template text, the one error line `template-validate` writes)
REFUSED = {
    "parameters-not-a-map": (HEADER + "parameters: 5\n" + RESOURCE,
                             "parameters: must be a map"),
    "parameter-body-a-list": (HEADER + "parameters:\n  p: [1]\n" + RESOURCE,
                              "parameters.p: must be a map of attributes"),
    "parameter-without-type": (HEADER + "parameters:\n  p:\n    default: 1\n" + RESOURCE,
                               "parameters.p: the 'type' attribute is mandatory"),
    "parameter-type-unknown": (HEADER + "parameters:\n  p:\n    type: float\n" + RESOURCE,
                               "parameters.p.type: unknown type 'float'"),
    "properties-a-list": (HEADER + RESOURCE + "    properties: [1]\n",
                          "resources.r.properties: must be a map"),
    "outputs-not-a-map": (HEADER + RESOURCE + "outputs: 5\n", "outputs: must be a map"),
    "output-without-value": (HEADER + RESOURCE + "outputs:\n  o:\n    description: d\n",
                             "outputs.o: must be a map with a 'value' entry"),
    "root-a-list": ("- 1\n", "template root must be a mapping"),
    "version-empty": ('heat_template_version: ""\n' + RESOURCE,
                      "heat_template_version: must be a non-empty version tag"),
    "description-a-list": (HEADER + "description: [1]\n" + RESOURCE,
                           "description: must be a string"),
}


@pytest.mark.parametrize("text, message", list(REFUSED.values()), ids=list(REFUSED))
def test_a_malformed_template_is_refused_in_one_line(tmp_path, capsys, text, message):
    path = tmp_path / "t.yaml"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["template-validate", "-f", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_an_unknown_attribute_is_a_warning(tmp_path, capsys):
    """On a parameter, a resource or an output; a parameter's `label` and
    `description` and an output's `description` are no unknown ones."""
    path = tmp_path / "t.yaml"
    path.write_text(HEADER + "description: d\n"
                    + "parameters:\n  p:\n    type: string\n    label: l\n    description: d\n"
                    + "    colour: red\n"
                    + RESOURCE + "    colour: red\n"
                    + "outputs:\n  o:\n    value: 1\n    description: d\n    colour: red\n",
                    encoding="utf-8")
    assert cli.main(["template-validate", "-f", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"warning: template: {where}: unknown attribute 'colour'"
        for where in ("parameters.p", "resources.r", "outputs.o")] + ["0 error(s), 3 warning(s)"]
