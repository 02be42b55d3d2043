"""Benchmark-local tests: seeded inputs and the span recorder.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import gen  # noqa: E402
import pytest  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from minimano import hot  # noqa: E402
from minimano.world import World  # noqa: E402

SEEDS = [0, 1, 2, 17, 123456]


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_templates_validate(seed):
    sources = [gen.stack_template(seed, v) for v in range(workloads.DEPLOY_VARIANTS)]
    sources.append(gen.operator_plan(seed)["template"])
    sources.append(gen.WAIT_TEMPLATE)
    for source in sources:
        report = hot.validate_template(hot.parse_template(source))
        assert report.ok, [str(f) for f in report.errors]
        assert not report.warnings


def test_template_shape_does_not_depend_on_seed():
    for seed in SEEDS:
        doc = hot.parse_template(gen.stack_template(seed))
        servers = [r for r in doc.resources.values() if r.resource_type == hot.SERVER_TYPE]
        assert len(servers) == gen.DEPLOY_SERVERS
        assert len(doc.resources) == gen.DEPLOY_SERVERS + 3 * gen.WAIT_GROUPS


@pytest.mark.parametrize("seed", SEEDS)
def test_one_seed_gives_identical_inputs(seed):
    def inputs():
        return "\n".join([
            *(gen.stack_template(seed, v) for v in range(workloads.DEPLOY_VARIANTS)),
            json.dumps(gen.autoscale_scenario(seed, workloads.AUTOSCALE_TICKS), sort_keys=True),
            json.dumps(gen.operator_plan(seed), sort_keys=True),
        ]).encode()

    assert inputs() == inputs()


def test_seeds_give_different_inputs():
    assert gen.stack_template(1) != gen.stack_template(2)
    assert gen.autoscale_scenario(1, 100) != gen.autoscale_scenario(2, 100)
    assert gen.operator_plan(1) != gen.operator_plan(2)


def test_generated_stack_deploys_and_signals_itself():
    world = World(seed=3, hosts=gen.deploy_hosts())
    _, token = workloads.provision(world, gen.NETWORKS)
    stack = world.engine.create_stack("s", hot.parse_template(gen.stack_template(3)), token=token)
    res = workloads.Result()
    assert workloads._check_deployed(world, stack, res), res.problems
    assert len(stack.waves) == 3


def test_tick_loop_reproduces_golden_trace():
    assert workloads.check_golden_trace()


def test_recorder_patches_names_where_callers_look_them_up():
    world = World(seed=5, hosts=gen.deploy_hosts())
    _, token = workloads.provision(world, gen.NETWORKS)
    rec = spans.Recorder()
    rec.install()
    try:
        doc = hot.parse_template(gen.stack_template(5))
        world.engine.create_stack("s", doc, token=token)
    finally:
        rec.uninstall()
    totals = rec.totals()
    calls = {name: row[0] for (phase, name), row in totals.items()}
    # validate_template and serialize_template are only reachable through
    # the names engine imported; yamlite.parse through hot's module attribute
    assert calls["hot.validate"] == 1
    assert calls["hot.serialize"] == 1
    assert calls["yamlite.parse"] == 1
    assert calls["nfvi.launch"] == gen.DEPLOY_SERVERS
    assert calls["engine.deliver_signal"] == gen.WAIT_GROUPS * gen.SIGNALLERS
    launch = totals[("op", "nfvi.launch")]
    assert 0 <= launch[2] <= launch[1]
    # uninstall restores the originals
    import minimano.engine as engine
    assert not hasattr(hot.parse_template, "__wrapped__")
    assert engine.validate_template is hot.validate_template
