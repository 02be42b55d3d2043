"""Deployment planning: stratify the resource dependency graph into waves."""

from .codec import record
from .errors import DependencyCycleError
from .hot import TemplateDoc, extract_dependencies


@record
class DeploymentPlan:
    waves: list  # list of lists of resource names; wave i before wave i+1


def _find_cycle(stuck, providers):
    """One cycle from the stuck subgraph, where every node still has an
    unsatisfied provider. Walking providers backward must revisit a node."""
    stuck_set = set(stuck)
    node = stuck[0]
    path = [node]
    index = {node: 0}
    while True:
        node = next(p for p in providers[node] if p in stuck_set)
        if node in index:
            cycle = path[index[node]:]
            cycle.reverse()  # report in dependency direction
            return cycle
        index[node] = len(path)
        path.append(node)


def build_plan(doc: TemplateDoc) -> DeploymentPlan:
    """Layered topological sort (Kahn). Within a wave, resources keep
    template declaration order so deployment is deterministic."""
    declaration = list(doc.resources)
    edges = extract_dependencies(doc)
    for provider, consumer in edges:
        if provider == consumer:
            raise DependencyCycleError([provider])
    consumers = {name: [] for name in declaration}
    providers = {name: [] for name in declaration}
    indegree = {name: 0 for name in declaration}
    for provider, consumer in edges:
        consumers[provider].append(consumer)
        providers[consumer].append(provider)
        indegree[consumer] += 1

    remaining = dict(indegree)
    placed = set()
    waves = []
    while len(placed) < len(declaration):
        wave = [n for n in declaration if n not in placed and remaining[n] == 0]
        if not wave:
            stuck = [n for n in declaration if n not in placed]
            raise DependencyCycleError(_find_cycle(stuck, providers))
        for name in wave:
            placed.add(name)
            for consumer in consumers[name]:
                remaining[consumer] -= 1
        waves.append(wave)
    return DeploymentPlan(waves=waves)
