"""Metrics, alarms, and the autonomic control loops.

Alarms aggregate samples over a trailing window and are edge-triggered:
one fire per ok-to-alarm transition, with a one-window cooldown before the
alarm may fire again. Fired scaling actions move a group's desired count
by one member, clamped to [min, max]; scale-in always removes the
youngest member. The healer is the monitor-detect-correct loop: every
detect interval it replaces group members that are no longer ACTIVE and
tops groups back up to their desired count, retrying on the next interval
when capacity is short.
"""

import hashlib
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .errors import CapacityError, ConflictError, NotFoundError

AGGREGATES = ("avg", "max", "min")
COMPARISONS = {"gt": lambda a, b: a > b, "lt": lambda a, b: a < b,
               "ge": lambda a, b: a >= b, "le": lambda a, b: a <= b}
ACTIONS = ("scale_out", "scale_in", "notify")


@dataclass
class MetricSample:
    """One recorded value. Never mutated once recorded: snapshots share
    its `__dict__` instead of copying it."""

    resource_id: str
    metric: str
    value: float
    tick: int


@dataclass
class AlarmDef:
    id: str
    name: str
    metric: str
    aggregate: str
    comparison: str
    threshold: float
    window: int
    target: str  # scaling group name or resource id
    action: str
    state: str = "insufficient_data"  # ok | alarm | insufficient_data
    last_fire_tick: int | None = None


@dataclass
class ScalingGroup:
    id: str
    name: str
    tenant_id: str
    member_spec: dict  # instance launch spec
    min_size: int
    max_size: int
    desired: int
    members: list = field(default_factory=list)  # instance ids, oldest first
    member_seq: int = 0
    stack_id: str | None = None


@dataclass
class HealerConfig:
    enabled: bool = False
    detect_interval: int = 5
    heal_window: int = 20


@dataclass
class LoadGenerator:
    """Synthetic per-member metric stream: sinusoid plus seeded noise."""

    group_name: str
    metric: str = "cpu_util"
    base: float = 0.5
    amplitude: float = 0.3
    period: int = 20
    noise: float = 0.05
    seed: int = 0


class TelemetryService:
    def __init__(self, core, provider):
        self.core = core
        self.provider = provider
        self.samples = []  # MetricSample, in record order; kept for the world's lifetime
        # metric -> (ticks, positions): indexes into `samples`, sorted by
        # (tick, position), so a window is two bisections
        self._series = {}
        self.alarms = {}  # name -> AlarmDef
        self.groups = {}  # name -> ScalingGroup
        self.healer = HealerConfig()
        self.generators = []
        self.scheduled_metrics = []  # {"tick", ...} entries, see scenario module
        self.scheduled_faults = []

    # -- metrics ---------------------------------------------------------------

    def record_metric(self, resource_id, metric, value, tick=None):
        instance = self.provider.instances.get(resource_id)
        if instance is None or instance.state == "DELETED":
            raise NotFoundError(f"unknown resource {resource_id!r}")
        sample = MetricSample(resource_id, metric, float(value), self.core.tick if tick is None else tick)
        self.samples.append(sample)
        self._index(sample, len(self.samples) - 1)
        return sample

    def _index(self, sample, position):
        series = self._series.get(sample.metric)
        if series is None:
            series = self._series[sample.metric] = (array("q"), array("q"))
        ticks, positions = series
        # `position` is the largest so far, so it goes after every equal tick
        at = bisect_right(ticks, sample.tick)
        ticks.insert(at, sample.tick)
        positions.insert(at, position)

    def window_samples(self, resource_ids, metric, tick, window):
        """Samples of `metric` from `resource_ids` in ticks
        [tick - window + 1, tick], in record order."""
        series = self._series.get(metric)
        if series is None:
            return []
        ticks, positions = series
        lo = bisect_left(ticks, tick - window + 1)
        hi = bisect_right(ticks, tick)
        samples = self.samples
        return [
            s for s in map(samples.__getitem__, sorted(positions[lo:hi]))
            if s.resource_id in resource_ids
        ]

    # -- alarms ----------------------------------------------------------------

    def create_alarm(self, name, metric, aggregate, comparison, threshold, window, target, action):
        if name in self.alarms:
            raise ConflictError(f"alarm {name!r} already exists")
        if aggregate not in AGGREGATES:
            raise ConflictError(f"unknown aggregate {aggregate!r}")
        if comparison not in COMPARISONS:
            raise ConflictError(f"unknown comparison {comparison!r}")
        if action not in ACTIONS:
            raise ConflictError(f"unknown action {action!r}")
        if window < 1:
            raise ConflictError("window must be at least 1 tick")
        alarm = AlarmDef(
            id=self.core.new_uuid(), name=name, metric=metric, aggregate=aggregate,
            comparison=comparison, threshold=float(threshold), window=int(window),
            target=target, action=action,
        )
        self.alarms[name] = alarm
        return alarm

    def _alarm_targets(self, alarm):
        group = self.groups.get(alarm.target)
        if group is not None:
            return set(group.members), group
        return {alarm.target}, None

    def evaluate_alarms(self, tick=None):
        """One evaluation pass; returns the alarms that fired."""
        tick = self.core.tick if tick is None else tick
        fired = []
        for alarm in self.alarms.values():
            targets, group = self._alarm_targets(alarm)
            values = [s.value for s in self.window_samples(targets, alarm.metric, tick, alarm.window)]
            if not values:
                alarm.state = "insufficient_data"
                continue
            aggregate = {"avg": lambda v: sum(v) / len(v), "max": max, "min": min}[alarm.aggregate](values)
            breached = COMPARISONS[alarm.comparison](aggregate, alarm.threshold)
            previous = alarm.state
            alarm.state = "alarm" if breached else "ok"
            if alarm.state != "alarm" or previous == "alarm":
                continue
            if alarm.last_fire_tick is not None and tick - alarm.last_fire_tick < alarm.window:
                continue  # re-arming cooldown
            alarm.last_fire_tick = tick
            fired.append(alarm)
            self.core.emit(
                "alarm.fire", alarm.name,
                alarm=alarm.name, metric=alarm.metric, aggregate=round(aggregate, 6),
                threshold=alarm.threshold, target=alarm.target, action=alarm.action,
            )
            if alarm.action in ("scale_out", "scale_in") and group is not None:
                self.apply_scaling(group.name, alarm.action[len("scale_"):])
        return fired

    # -- scaling groups -----------------------------------------------------------

    def create_group(self, name, tenant_id, member_spec, min_size, max_size, desired,
                     stack_id=None):
        if name in self.groups:
            raise ConflictError(f"scaling group {name!r} already exists")
        if not (0 <= min_size <= desired <= max_size):
            raise ConflictError("sizes must satisfy min <= desired <= max")
        group = ScalingGroup(
            id=self.core.new_uuid(), name=name, tenant_id=tenant_id,
            member_spec=dict(member_spec), min_size=min_size, max_size=max_size,
            desired=desired, stack_id=stack_id,
        )
        self.groups[name] = group
        for _ in range(desired):
            self._launch_member(group)
        return group

    def _launch_member(self, group):
        group.member_seq += 1
        instance = self.provider.launch_instance(
            group.tenant_id, group.member_spec, name=f"{group.name}-{group.member_seq}"
        )
        group.members.append(instance.id)
        return instance

    def _active_members(self, group):
        return [
            m for m in group.members
            if self.provider.instances.get(m) is not None
            and self.provider.instances[m].state == "ACTIVE"
        ]

    def apply_scaling(self, group_name, direction) -> int:
        """Move desired by one member; returns the new desired count."""
        group = self.groups.get(group_name)
        if group is None:
            raise NotFoundError(f"scaling group {group_name!r} not found")
        if direction == "out":
            if group.desired + 1 > group.max_size:
                self.core.emit("scale.clamped", group.name, group=group.name, at="max")
                return group.desired
            try:
                instance = self._launch_member(group)
            except CapacityError as exc:
                self.core.emit("scale.blocked", group.name, group=group.name, reason=exc.message)
                return group.desired
            group.desired += 1
            self.core.emit(
                "scale.out", group.name,
                group=group.name, desired=group.desired, member=instance.id,
            )
        elif direction == "in":
            if group.desired - 1 < group.min_size:
                self.core.emit("scale.clamped", group.name, group=group.name, at="min")
                return group.desired
            group.desired -= 1
            victim = group.members.pop()  # youngest member
            try:
                self.provider.terminate_instance(victim)
            except NotFoundError:
                pass
            self.core.emit(
                "scale.in", group.name,
                group=group.name, desired=group.desired, member=victim,
            )
        else:
            raise ConflictError(f"unknown scaling direction {direction!r}")
        return group.desired

    # -- fault injection -------------------------------------------------------------

    def inject_fault(self, target_id, kind="instance_crash", tick=None):
        if kind != "instance_crash":
            raise ConflictError(f"unknown fault kind {kind!r}")
        self.provider.crash_instance(target_id)
        self.core.emit("fault.inject", target_id, target=target_id, fault_kind=kind)

    # -- the monitor-detect-correct loop ------------------------------------------------

    def healer_scan(self, tick=None):
        tick = self.core.tick if tick is None else tick
        if not self.healer.enabled or tick % self.healer.detect_interval != 0:
            return
        for group in self.groups.values():
            for member_id in list(group.members):
                instance = self.provider.instances.get(member_id)
                if instance is not None and instance.state == "ACTIVE":
                    continue
                # correct: remove the remnant, then replace it
                if instance is not None and instance.state != "DELETED":
                    self.provider.terminate_instance(member_id)
                group.members.remove(member_id)
                try:
                    replacement = self._launch_member(group)
                except CapacityError as exc:
                    self.core.emit("heal.blocked", group.name,
                                   group=group.name, reason=exc.message)
                    continue
                self.core.emit(
                    "heal.replace", group.name,
                    group=group.name, failed=member_id, replacement=replacement.id,
                )
            while len(group.members) < group.desired:
                try:
                    replacement = self._launch_member(group)
                except CapacityError as exc:
                    self.core.emit("heal.blocked", group.name,
                                   group=group.name, reason=exc.message)
                    break
                self.core.emit(
                    "heal.replace", group.name,
                    group=group.name, failed=None, replacement=replacement.id,
                )

    # -- scheduled scenario input and generators ------------------------------------------

    def add_generator(self, generator: LoadGenerator):
        self.generators.append(generator)

    def run_scheduled(self, tick):
        for entry in self.scheduled_metrics:
            if entry["tick"] != tick:
                continue
            for resource_id in self._schedule_targets(entry):
                self.record_metric(resource_id, entry["metric"], entry["value"], tick)
        for entry in self.scheduled_faults:
            if entry["tick"] != tick:
                continue
            for resource_id in self._schedule_targets(entry):
                self.inject_fault(resource_id, entry.get("kind", "instance_crash"), tick)
        for gen in self.generators:
            group = self.groups.get(gen.group_name)
            if group is None:
                continue
            for member_id in self._active_members(group):
                phase = 2 * math.pi * (tick % gen.period) / gen.period
                digest = hashlib.sha256(f"{gen.seed}:{member_id}:{tick}".encode()).hexdigest()
                noise_bits = int(digest[:8], 16) % 1000 / 1000 - 0.5
                value = gen.base + gen.amplitude * math.sin(phase) + gen.noise * noise_bits
                self.record_metric(member_id, gen.metric, round(value, 6), tick)

    def _schedule_targets(self, entry):
        if "group" in entry:
            group = self.groups.get(entry["group"])
            if group is None:
                raise NotFoundError(f"scaling group {entry['group']!r} not found")
            if "member_index" in entry:
                idx = entry["member_index"]
                if idx >= len(group.members):
                    raise NotFoundError(f"group {group.name!r} has no member {idx}")
                return [group.members[idx]]
            return [m for m in self._active_members(group)]
        return [entry["resource"]]

    def on_tick(self, tick):
        """Per-tick pipeline step: injections, then alarms, then healing."""
        self.run_scheduled(tick)
        self.evaluate_alarms(tick)
        self.healer_scan(tick)

    # -- persistence -------------------------------------------------------------------------

    def to_dict(self):
        return {
            "samples": [vars(s) for s in self.samples],
            "alarms": [vars(a).copy() for a in self.alarms.values()],
            "groups": [vars(g).copy() for g in self.groups.values()],
            "healer": vars(self.healer).copy(),
            "generators": [vars(g).copy() for g in self.generators],
            "scheduled_metrics": list(self.scheduled_metrics),
            "scheduled_faults": list(self.scheduled_faults),
        }

    def load_dict(self, data):
        self.samples = [MetricSample(**s) for s in data["samples"]]
        self._series = {}
        for position, sample in enumerate(self.samples):
            self._index(sample, position)
        self.alarms = {a["name"]: AlarmDef(**a) for a in data["alarms"]}
        self.groups = {g["name"]: ScalingGroup(**g) for g in data["groups"]}
        self.healer = HealerConfig(**data["healer"])
        self.generators = [LoadGenerator(**g) for g in data["generators"]]
        self.scheduled_metrics = list(data["scheduled_metrics"])
        self.scheduled_faults = list(data["scheduled_faults"])
