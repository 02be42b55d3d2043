"""Parameter binding, value evaluation, dependency extraction."""

import random

import pytest

from minimano import yamlite
from minimano.errors import DeployError, TemplateError
from minimano.hot import (
    EvalContext,
    bind_parameters,
    evaluate_expr,
    extract_dependencies,
    parse_template,
    str_replace_apply,
)


def parse(templates_dir, name):
    return parse_template((templates_dir / name).read_text())


# ---------------------------------------------------------------------------
# bind_parameters


def test_example2_defaults(templates_dir):
    doc = parse(templates_dir, "example2.yaml")
    assert bind_parameters(doc, {}) == {
        "image": "ubuntu_cloud14",
        "flavor": "m1.small",
        "key": "my_key1",
        "private_network": "my_net1",
    }


def test_provided_overrides_default(templates_dir):
    doc = parse(templates_dir, "example2.yaml")
    bound = bind_parameters(doc, {"image": "cirros"})
    assert bound["image"] == "cirros"
    assert bound["flavor"] == "m1.small"


def test_unknown_parameter_rejected(templates_dir):
    doc = parse(templates_dir, "example1.yaml")
    with pytest.raises(TemplateError, match="unknown parameter 'x'"):
        bind_parameters(doc, {"x": 1})


def test_missing_parameter_without_default(templates_dir):
    doc = parse(templates_dir, "wordpress.yaml")
    with pytest.raises(TemplateError, match="db_host"):
        bind_parameters(doc, {})


def test_string_coercion_to_number_and_boolean():
    doc = parse_template(
        "heat_template_version: 2013-05-23\n"
        "parameters:\n"
        "  n:\n"
        "    type: number\n"
        "  b:\n"
        "    type: boolean\n"
        "resources:\n"
        "  a:\n"
        "    type: OS::Heat::RandomString\n"
    )
    bound = bind_parameters(doc, {"n": "42", "b": "true"})
    assert bound == {"n": 42, "b": True}
    assert bind_parameters(doc, {"n": "0.5", "b": "0"}) == {"n": 0.5, "b": False}
    with pytest.raises(TemplateError, match="not a number"):
        bind_parameters(doc, {"n": "forty", "b": "true"})
    with pytest.raises(TemplateError, match="not a boolean"):
        bind_parameters(doc, {"n": "1", "b": "maybe"})


def test_binding_is_idempotent(templates_dir):
    rng = random.Random(7)
    doc = parse(templates_dir, "example2.yaml")
    names = list(doc.parameters)
    for _ in range(50):
        provided = {n: f"v{rng.randrange(100)}" for n in rng.sample(names, rng.randrange(len(names) + 1))}
        once = bind_parameters(doc, provided)
        again = bind_parameters(doc, once)
        assert once == again


# ---------------------------------------------------------------------------
# evaluate_expr


def test_str_replace_greeting_expansion():
    value = {"str_replace": {
        "template": "Hello, my name is __name__. Here is a random number: __rnum__.",
        "params": {"__name__": "Alice", "__rnum__": "1234"},
    }}
    assert (
        evaluate_expr(value, EvalContext(params={}))
        == "Hello, my name is Alice. Here is a random number: 1234."
    )


def test_get_attr_reads_deployed_attribute():
    ctx = EvalContext(
        params={},
        resource_ids={"my_instance": "uuid-1"},
        resource_attrs={"my_instance": {"first_address": "10.0.0.3"}},
    )
    assert evaluate_expr({"get_attr": ["my_instance", "first_address"]}, ctx) == "10.0.0.3"


def test_get_param_from_bound_defaults(templates_dir):
    doc = parse(templates_dir, "example2.yaml")
    ctx = EvalContext(params=bind_parameters(doc, {}))
    assert evaluate_expr({"get_param": "flavor"}, ctx) == "m1.small"


def test_get_resource_returns_uuid():
    ctx = EvalContext(params={}, resource_ids={"h": "abc-123"}, resource_attrs={"h": {}})
    assert evaluate_expr({"get_resource": "h"}, ctx) == "abc-123"


def test_attribute_not_yet_available():
    with pytest.raises(DeployError, match="not yet available"):
        evaluate_expr({"get_attr": ["later", "value"]}, EvalContext(params={}))


def test_unknown_attribute():
    ctx = EvalContext(params={}, resource_ids={"a": "u"}, resource_attrs={"a": {"value": "x"}})
    with pytest.raises(DeployError, match="no attribute 'other'"):
        evaluate_expr({"get_attr": ["a", "other"]}, ctx)


def test_str_replace_empty_params_is_identity():
    rng = random.Random(11)
    for _ in range(100):
        text = "".join(rng.choice("ab_c d\n__x__") for _ in range(rng.randrange(0, 40)))
        assert str_replace_apply(text, {}) == text


def test_str_replace_longest_marker_wins():
    out = str_replace_apply("__name____x", {"__name__": "A", "__name": "B"})
    assert out == "A__x"
    # at a position where only the shorter matches, the shorter applies
    assert str_replace_apply("__namex", {"__name__": "A", "__name": "B"}) == "Bx"


def test_str_replace_does_not_rescan_substituted_text():
    # value of one marker contains another marker: must not cascade
    out = str_replace_apply("a __m1__ b", {"__m1__": "__m2__", "__m2__": "X"})
    assert out == "a __m2__ b"


def test_str_replace_numeric_values_render_as_text():
    assert str_replace_apply("n=__n__", {"__n__": 7071}) == "n=7071"


# ---------------------------------------------------------------------------
# extract_dependencies


def test_example3_edges(templates_dir):
    doc = parse(templates_dir, "example3.yaml")
    assert extract_dependencies(doc) == [("rng", "inst_advanced")]


def test_example1_has_no_edges(templates_dir):
    assert extract_dependencies(parse(templates_dir, "example1.yaml")) == []


def _scan_node_for_refs(node, declared):
    """Independent oracle: walk the raw document tree for references."""
    refs = set()
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("get_attr", "get_pattr") and isinstance(value, list) and value:
                if value[0] in declared:
                    refs.add(value[0])
            elif key == "get_resource" and value in declared:
                refs.add(value)
            else:
                refs |= _scan_node_for_refs(value, declared)
    elif isinstance(node, list):
        for item in node:
            refs |= _scan_node_for_refs(item, declared)
    return refs


def test_chain_edges_match_raw_tree_scan():
    src = (
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  A:\n"
        "    type: OS::Heat::RandomString\n"
        "  B:\n"
        "    type: OS::Nova::Server\n"
        "    properties:\n"
        "      image: { get_attr: [A, value] }\n"
        "      flavor: m1.small\n"
        "  C:\n"
        "    type: OS::Nova::Server\n"
        "    properties:\n"
        "      image: { get_attr: [B, name] }\n"
        "      flavor: m1.small\n"
        "      user_data:\n"
        "        str_replace:\n"
        "          params:\n"
        "            __a__: { get_attr: [B, name] }\n"
        "          template: x\n"
    )
    doc = parse_template(src)
    edges = extract_dependencies(doc)
    assert edges == [("A", "B"), ("B", "C")]

    raw = yamlite.parse(src)
    declared = set(raw["resources"])
    expected = set()
    for rname, rbody in raw["resources"].items():
        for provider in _scan_node_for_refs(rbody.get("properties", {}), declared):
            expected.add((provider, rname))
    assert set(edges) == expected


def test_edges_are_deduplicated(templates_dir):
    doc = parse(templates_dir, "mysql.yaml")
    edges = extract_dependencies(doc)
    assert len(edges) == len(set(edges))
    assert set(edges) == {
        ("db_root_password", "mysql_server"),
        ("wait_handle", "mysql_server"),
        ("wait_handle", "mysql_ready"),
    }
