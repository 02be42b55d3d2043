"""Deployment planning: stratify the resource dependency graph into waves
with `graphlib`. A cycle raises `DependencyCycleError` naming one cycle in
dependency direction; `template-validate` and `stack-create` report it."""

from graphlib import CycleError, TopologicalSorter

from .codec import record
from .errors import DependencyCycleError
from .hot import TemplateDoc, extract_dependencies


@record
class DeploymentPlan:
    waves: list  # list of lists of resource names; wave i before wave i+1


def build_plan(doc: TemplateDoc) -> DeploymentPlan:
    """Layered topological sort. Within a wave, resources keep template
    declaration order so deployment is deterministic."""
    sorter = TopologicalSorter({name: () for name in doc.resources})
    for provider, consumer in extract_dependencies(doc):
        sorter.add(consumer, provider)
    try:
        sorter.prepare()
    except CycleError as exc:
        # each node of the cycle provides for the next; the first repeats last
        raise DependencyCycleError(exc.args[1][:-1]) from None
    position = {name: i for i, name in enumerate(doc.resources)}
    waves = []
    while sorter.is_active():
        wave = sorted(sorter.get_ready(), key=position.__getitem__)
        sorter.done(*wave)
        waves.append(wave)
    return DeploymentPlan(waves=waves)
