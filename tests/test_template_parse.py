"""Parsing: document subset and section model."""

import re

import pytest

from conftest import VALUE_PLACES, place_value
from minimano import yamlite
from minimano.errors import TemplateError, TemplateSyntaxError
from minimano.hot import EvalContext, evaluate_expr, parse_template


def read(templates_dir, name):
    return (templates_dir / name).read_text()


def test_example1_structure(templates_dir):
    doc = parse_template(read(templates_dir, "example1.yaml"))
    assert doc.warnings == []  # the version and the description are read without a warning
    assert list(doc.resources) == ["my_instance"]
    inst = doc.resources["my_instance"]
    assert inst.resource_type == "OS::Nova::Server"
    assert inst.properties == {"image": "ubuntu_cloud14", "flavor": "m1.small",
                               "key_name": "my_key1", "networks": [{"network": "my_net1"}]}
    assert doc.parameters == {}
    assert doc.outputs == {}


def test_example2_structure(templates_dir):
    doc = parse_template(read(templates_dir, "example2.yaml"))
    assert list(doc.parameters) == ["image", "flavor", "key", "private_network"]
    for pdef in doc.parameters.values():
        assert pdef.type == "string"
        assert pdef.has_default
    assert doc.parameters["image"].default == "ubuntu_cloud14"
    assert doc.parameters["flavor"].default == "m1.small"
    assert doc.parameters["key"].default == "my_key1"
    assert doc.parameters["private_network"].default == "my_net1"
    assert list(doc.resources) == ["my_instance"]
    assert doc.resources["my_instance"].properties["image"] == {"get_param": "image"}
    assert list(doc.outputs) == ["instance_ip"]
    assert doc.outputs["instance_ip"].value == {"get_attr": ["my_instance", "first_address"]}


def test_missing_version_is_rejected():
    src = "resources:\n  a:\n    type: OS::Heat::RandomString\n"
    with pytest.raises(TemplateError, match="heat_template_version"):
        parse_template(src)


def test_empty_resources_rejected():
    with pytest.raises(TemplateError, match="at least one resource"):
        parse_template("heat_template_version: 2013-05-23\n")
    with pytest.raises(TemplateError, match="at least one resource"):
        parse_template("heat_template_version: 2013-05-23\nresources:\n")


def test_resource_requires_type():
    src = (
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  a:\n"
        "    properties:\n"
        "      length: 4\n"
    )
    with pytest.raises(TemplateError, match="must have a type"):
        parse_template(src)


def test_unknown_top_level_key_is_warning_not_error():
    src = (
        "heat_template_version: 2013-05-23\n"
        "conditions: {}\n"
        "resources:\n"
        "  a:\n"
        "    type: OS::Heat::RandomString\n"
    )
    doc = parse_template(src)
    assert any("conditions" in w for w in doc.warnings)


def test_get_pattr_normalized_with_warning():
    src = (
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  a:\n"
        "    type: OS::Heat::RandomString\n"
        "outputs:\n"
        "  v:\n"
        "    value: { get_pattr: [a, value] }\n"
    )
    doc = parse_template(src)
    assert doc.outputs["v"].value == {"get_pattr": ["a", "value"]}  # kept as written
    assert doc.warnings == ["outputs.v.value: 'get_pattr' read as 'get_attr'"]
    ctx = EvalContext(params={}, resource_attrs={"a": {"value": "x"}})
    assert evaluate_expr(doc.outputs["v"].value, ctx) == "x"


def test_user_data_literal_block_is_verbatim(templates_dir):
    doc = parse_template(read(templates_dir, "example3.yaml"))
    simple = doc.resources["inst_simple"].properties["user_data"]
    assert simple == '#!/bin/sh\necho "Hello, World!" >> hello.txt\n'
    advanced = doc.resources["inst_advanced"].properties["user_data"]
    assert advanced == {"str_replace": {
        "template": (
            '#!/bin/sh\n'
            'echo "Hello, my name is __name__. Here is a random number: __rnum__." >> hello.txt\n'
        ),
        "params": {"__name__": {"get_param": "name"}, "__rnum__": {"get_attr": ["rng", "value"]}},
    }}


# each intrinsic call of the wrong shape, as block lines: the path below
# the call that its refusal names, and the refusal
WRONG_SHAPES = {
    "get_param": (["get_param: [a]"], "", "get_param takes a parameter name"),
    "get_attr": (["get_attr: [a]"], "", "get_attr takes [resource, attribute]"),
    "get_pattr": (["get_pattr: [a, b, c]"], "", "get_attr takes [resource, attribute]"),
    "get_resource": (["get_resource: [a]"], "", "get_resource takes a resource name"),
    "str_replace-no-map": (["str_replace: x"], "",
                           "str_replace takes a map with 'template' and 'params'"),
    "str_replace-keys": (["str_replace:", "  template: x"], "",
                         "str_replace takes exactly 'template' and 'params'"),
    "str_replace-template": (["str_replace:", "  template: [x]", "  params: {}"], ".template",
                             "must be a string"),
    "str_replace-params": (["str_replace:", "  template: x", "  params: [a]"], ".params",
                           "must be a map of marker to value"),
}


@pytest.mark.parametrize("where", list(VALUE_PLACES))
@pytest.mark.parametrize("lines, below, message", list(WRONG_SHAPES.values()), ids=list(WRONG_SHAPES))
def test_an_intrinsic_of_the_wrong_shape_is_refused_at_its_path(lines, below, message, where):
    path, text = place_value(where, lines)
    with pytest.raises(TemplateError) as err:
        parse_template(text)
    assert type(err.value) is TemplateError
    assert err.value.message == f"{path}{below}: {message}"


def test_syntax_error_is_position_annotated():
    with pytest.raises(TemplateSyntaxError) as err:
        parse_template("heat_template_version: 2013-05-23\nresources:\n  a: { type: ][ }\n")
    assert err.value.line == 3


def test_duplicate_resource_names_rejected():
    src = (
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  a:\n"
        "    type: OS::Heat::RandomString\n"
        "  a:\n"
        "    type: OS::Heat::RandomString\n"
    )
    with pytest.raises(TemplateSyntaxError, match="duplicate key"):
        parse_template(src)


@pytest.mark.parametrize(
    "snippet, message",
    [
        ("key: &anchor x\n", "may not start with"),
        ("key: *alias\n", "may not start with"),
        ("key: !!str x\n", "may not start with"),
        ("--- \nkey: x\n", "multi-document"),
        ("%YAML 1.1\nkey: x\n", "directives"),
        ("key: >\n  folded\n", "unsupported block scalar"),
        ("key: { a: { b: c } }\n", "nested flow"),
        ("\tkey: x\n", "tab"),
        ('key: "x\\', "unterminated escape"),
        ("key: { : 1 }\n", "expected key in flow mapping"),
        ("key: {a: 1, a: 2}\n", "duplicate key 'a' in flow mapping"),
        ("key: [[1]]\n", "nested collections in flow sequences"),
        ("- 1\n  - 2\n", "unexpected indentation"),
        ("- --- x: 1\n", "multi-document"),
    ],
)
def test_rejected_syntax(snippet, message):
    with pytest.raises(TemplateSyntaxError, match=message):
        yamlite.parse(snippet)


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        # three `- key: value` items before the bad line do not push it down
        ("items:\n  - a: 1\n  - b: 2\n  - c: 3\nbad line here\n", 5, 0, "expected 'key: value'"),
        # the column counts every blank after the dash
        ("items:\n  -   a: 1\n  -   b: { x\n", 3, 12, "expected ':' in flow mapping"),
        # a literal block inside such an item, holding marker lines
        ("items:\n  - a: |\n      ---\n      %x\n    b: 2\n  - c: 3\n%bad\n", 7, None, "directives"),
    ],
    ids=["after-items", "blanks-after-dash", "literal-block-in-item"],
)
def test_errors_after_inline_mapping_items_name_the_real_line(text, line, column, message):
    with pytest.raises(TemplateSyntaxError, match=message) as err:
        yamlite.parse(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value).startswith(f"line {line}")


@pytest.mark.parametrize(
    "text, column, message",
    [
        ("a:   { x\n", 8, "expected ':' in flow mapping"),
        ("-   [1\n", 6, "expected ',' or ']' in flow sequence"),
    ],
    ids=["blanks-after-colon", "blanks-after-dash"],
)
def test_error_columns_count_every_blank_before_the_value(text, column, message):
    """The value starts after all the blanks, so an error at its end names
    the end of the line."""
    with pytest.raises(TemplateSyntaxError, match=message) as err:
        yamlite.parse(text)
    assert (err.value.line, err.value.column) == (1, column)


def test_literal_block_inside_an_inline_mapping_item():
    text = "items:\n  - a: |\n      ---\n      %x\n    b: 2\n  -  c: 3\n"
    assert yamlite.parse(text) == {"items": [{"a": "---\n%x\n", "b": 2}, {"c": 3}]}


def test_yamlite_scalars():
    parsed = yamlite.parse(
        "a: 4\nb: 0.8\nc: true\nd: false\ne: null\nf: 2013-05-23\ng: \"quoted: text\"\nh: plain text\n"
        "x: []\n"
    )
    assert parsed == {
        "a": 4,
        "b": 0.8,
        "c": True,
        "d": False,
        "e": None,
        "f": "2013-05-23",
        "g": "quoted: text",
        "h": "plain text",
        "x": [],
    }


def test_yamlite_comments_and_blank_lines():
    parsed = yamlite.parse(
        "# leading comment\n"
        "a: 1  # trailing\n"
        "\n"
        "b:\n"
        "  - x\n"
        "  - y: 2\n"
    )
    assert parsed == {"a": 1, "b": ["x", {"y": 2}]}


def test_round_trip_preserves_section_order(templates_dir):
    """The parsed document lists each section's names in the order of the
    text it was parsed from, which is the text a pending run stores."""
    text = read(templates_dir, "mysql.yaml")
    doc = parse_template(text)
    # every name a section declares sits at two blanks of indentation
    declared = re.findall(r"(?m)^  (\w+):", text)
    assert declared == [*doc.parameters, *doc.resources, *doc.outputs]
