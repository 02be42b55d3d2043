"""Deployment plan stratification against brute-force topological oracles."""

import itertools
import random

import pytest

from minimano.errors import DependencyCycleError, TemplateError
from minimano.hot import (
    ResourceDef,
    TemplateDoc,
    extract_dependencies,
    parse_template,
    validate_template,
)
from minimano.plan import build_plan


def parse(templates_dir, name):
    return parse_template((templates_dir / name).read_text())


def doc_with_edges(names, edges):
    """Template whose only purpose is to encode the given dependency edges."""
    resources = {}
    for name in names:
        props = {}
        for i, (provider, consumer) in enumerate(edges):
            if consumer == name:
                props[f"dep{i}"] = {"get_attr": [provider, "value"]}
        resources[name] = ResourceDef(name=name, resource_type="OS::Heat::RandomString", properties=props)
    return TemplateDoc(parameters={}, resources=resources, outputs={})


def flattened(plan):
    """The plan's resource names, wave by wave."""
    return [name for wave in plan.waves for name in wave]


def wave_index(plan):
    """Resource name -> the index of its wave."""
    return {name: i for i, wave in enumerate(plan.waves) for name in wave}


def all_topological_orders(names, edges):
    orders = []
    for perm in itertools.permutations(names):
        position = {n: i for i, n in enumerate(perm)}
        if all(position[a] < position[b] for a, b in edges):
            orders.append(list(perm))
    return orders


def test_example3_waves(templates_dir):
    doc = parse(templates_dir, "example3.yaml")
    plan = build_plan(doc)
    assert plan.waves == [["rng", "inst_simple"], ["inst_advanced"]]
    # oracle: every admissible order places rng before inst_advanced
    orders = all_topological_orders(list(doc.resources), extract_dependencies(doc))
    assert orders
    for order in orders:
        assert order.index("rng") < order.index("inst_advanced")
    assert flattened(plan) in orders


def test_single_resource_plan(templates_dir):
    plan = build_plan(parse(templates_dir, "example1.yaml"))
    assert plan.waves == [["my_instance"]]


def test_two_resource_cycle_is_rejected():
    doc = doc_with_edges(["A", "B"], [("A", "B"), ("B", "A")])
    with pytest.raises(DependencyCycleError) as err:
        build_plan(doc)
    assert set(err.value.cycle) == {"A", "B"}


def test_self_edge_is_rejected():
    doc = doc_with_edges(["A"], [("A", "A")])
    with pytest.raises(DependencyCycleError):
        build_plan(doc)


def test_wave_order_is_declaration_order():
    doc = doc_with_edges(["z", "m", "a"], [])
    assert build_plan(doc).waves == [["z", "m", "a"]]


def random_dag_edges(rng, names):
    edges = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if rng.random() < 0.35:
                edges.append((a, b))
    return edges


def test_random_dags_against_enumeration_oracle():
    rng = random.Random(404)
    for _ in range(80):
        n = rng.randrange(1, 8)
        names = [f"r{i}" for i in range(n)]
        edges = random_dag_edges(rng, names)
        plan = build_plan(doc_with_edges(names, edges))
        # layered soundness: every edge crosses waves forward
        wave_of = wave_index(plan)
        for a, b in edges:
            assert wave_of[a] < wave_of[b]
        # flattened order is a genuine topological order
        orders = all_topological_orders(names, edges)
        assert flattened(plan) in orders
        # every resource in exactly one wave
        flat = flattened(plan)
        assert sorted(flat) == sorted(names)


def test_plan_order_makes_every_reference_resolvable():
    """Visiting resources wave by wave, every get_attr target has already
    been visited, so evaluation can never hit an unknown reference."""
    from minimano.hot import EvalContext, evaluate_expr

    rng = random.Random(500)
    for _ in range(50):
        n = rng.randrange(1, 8)
        names = [f"r{i}" for i in range(n)]
        doc = doc_with_edges(names, random_dag_edges(rng, names))
        plan = build_plan(doc)
        attrs = {}
        for wave in plan.waves:
            for name in wave:
                ctx = EvalContext(params={}, resource_ids={}, resource_attrs=attrs)
                for expr in doc.resources[name].properties.values():
                    evaluate_expr(expr, ctx)  # raises if a dep is unvisited
            for name in wave:
                attrs[name] = {"value": f"{name}-val"}


def random_cycle_cases(rng):
    for _ in range(40):
        n = rng.randrange(2, 7)
        names = [f"r{i}" for i in range(n)]
        edges = random_dag_edges(rng, names)
        # close a random back edge to force a cycle
        cycle_members = rng.sample(names, rng.randrange(2, n + 1))
        for a, b in zip(cycle_members, cycle_members[1:]):
            edges.append((a, b))
        edges.append((cycle_members[-1], cycle_members[0]))
        yield names, edges


# two disjoint cycles and a self-loop, with a consumer of the first cycle
TWO_CYCLES_AND_A_SELF_LOOP = (
    [f"r{i}" for i in range(7)],
    [("r0", "r1"), ("r1", "r0"), ("r2", "r3"), ("r3", "r4"), ("r4", "r2"), ("r5", "r5"),
     ("r1", "r6")],
)


def test_random_cycles_always_named():
    rng = random.Random(405)
    for names, edges in [*random_cycle_cases(rng), TWO_CYCLES_AND_A_SELF_LOOP]:
        assert all_topological_orders(names, set(edges)) == []
        with pytest.raises(DependencyCycleError) as err:
            build_plan(doc_with_edges(names, set(edges)))
        cycle = err.value.cycle
        assert len(cycle) >= 1 and len(set(cycle)) == len(cycle)
        # the named cycle is a real cycle in the edge set, provider first
        edge_set = set(edges)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert (a, b) in edge_set


DEPENDS_ON = """heat_template_version: 2013-05-23
resources:
  handle:
    type: OS::Heat::WaitConditionHandle
  gate:
    type: OS::Heat::WaitCondition
    properties:
      handle: { get_resource: handle }
      timeout: 5
  after:
    type: OS::Heat::RandomString
    depends_on: gate
"""


def test_depends_on_orders_waves():
    doc = parse_template(DEPENDS_ON)
    assert doc.warnings == []
    assert doc.resources["after"].depends_on == ("gate",)
    plan = build_plan(doc)
    assert plan.waves == [["handle"], ["gate"], ["after"]]
    assert ("gate", "after") in extract_dependencies(doc)


def test_depends_on_takes_a_list_and_round_trips():
    doc = parse_template(DEPENDS_ON.replace("depends_on: gate", "depends_on: [gate, handle]"))
    assert doc.resources["after"].depends_on == ("gate", "handle")


def test_depends_on_itself_is_a_cycle():
    doc = parse_template(DEPENDS_ON.replace("depends_on: gate", "depends_on: after"))
    with pytest.raises(DependencyCycleError) as err:
        build_plan(doc)
    assert err.value.cycle == ["after"]


def test_depends_on_an_unknown_resource_is_a_validation_error():
    doc = parse_template(DEPENDS_ON.replace("depends_on: gate", "depends_on: [gate, ghost]"))
    errors = validate_template(doc).errors
    assert [(f.path, f.message) for f in errors] == [
        ("resources.after.depends_on", "unknown resource 'ghost'")]


def test_depends_on_must_name_resources():
    with pytest.raises(TemplateError, match="depends_on: must be a resource name"):
        parse_template(DEPENDS_ON.replace("depends_on: gate", "depends_on: {a: 1}"))
