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

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from functools import cached_property

from .codec import (Columns, check, columnar, field, keyed, listed, one, one_of, positive, record,
                    rule, set_fields, strings)
from .errors import CapacityError, ConflictError, NotFoundError
from .nfvi import launch_spec_refusal


AGGREGATES = {"avg": lambda v: sum(v) / len(v), "max": max, "min": min}
COMPARISONS = {"gt": lambda a, b: a > b, "lt": lambda a, b: a < b,
               "ge": lambda a, b: a >= b, "le": lambda a, b: a <= b}
ACTIONS = ("scale_out", "scale_in", "notify")
FAULT_KINDS = ("instance_crash",)


def _all_finite(column) -> bool:
    """Whether each number of `column` is finite, by one sum of their
    magnitudes: a NaN or an infinity carries through it, and an int past
    the float range takes it past that range or overflows it. Finite
    values whose sum is past the range read false too."""
    try:
        return sum(map(abs, column)) <= sys.float_info.max
    except OverflowError:
        return False


# a number a float holds: not NaN, not infinite, no int beyond the float range
_FINITE = rule(lambda value: abs(value) <= sys.float_info.max, "must be a finite number, got {!r}",
               column=_all_finite)


@record
class MetricSample:
    """The columns of the recorded samples, which `TelemetryService.samples`
    holds as `Columns`, one list per field in record order: no object is
    built per sample, and a sample is never changed once recorded."""

    resource_id: str = field(ref=True)
    metric: str = field(ref=True)
    value: float = field(rule=_FINITE)
    tick: int


@record
class AlarmDef:
    id: str = field(ref=True)
    name: str
    metric: str
    aggregate: str = field(rule=one_of(AGGREGATES))
    comparison: str = field(rule=one_of(COMPARISONS))
    threshold: float = field(rule=_FINITE)
    window: int = field(rule=positive())
    target: str  # scaling group name or resource id
    action: str = field(rule=one_of(ACTIONS))
    state: str = field(default="insufficient_data",
                       rule=one_of(("ok", "alarm", "insufficient_data")))
    last_fire_tick: int | None = None


@record(rule=rule(lambda group: 0 <= group["min_size"] <= group["desired"] <= group["max_size"],
                  "sizes must satisfy 0 <= min_size <= desired <= max_size, got "
                  "{0[min_size]}, {0[desired]}, {0[max_size]}"))
class ScalingGroup:
    id: str = field(ref=True)
    name: str
    tenant_id: str = field(ref=True)
    member_spec: dict = field(rule=launch_spec_refusal)  # instance launch spec
    min_size: int
    max_size: int
    desired: int
    members: list = field(default_factory=list, rule=strings)  # instance ids, oldest first
    member_seq: int = 0


@record
class HealerConfig:
    enabled: bool = False
    detect_interval: int = field(default=5, rule=positive())  # divides the tick


@record
class LoadGenerator:
    """Synthetic per-member metric stream: sinusoid plus seeded noise."""

    group_name: str
    metric: str = "cpu_util"
    base: float = field(default=0.5, rule=_FINITE)
    amplitude: float = field(default=0.3, rule=_FINITE)
    period: int = field(default=20, rule=positive())  # divides the tick
    noise: float = field(default=0.05, rule=_FINITE)
    seed: int = 0

    @property
    def group(self):
        """The scaling group it names, as a schedule entry names one."""
        return self.group_name


# an entry's target (an absent key is null), and a member never counted from the end
_NAMES_A_TARGET = rule(lambda entry: (entry.get("group"), entry.get("resource")) != (None, None),
                       "names neither a 'group' nor a 'resource'")
_MEMBER_INDEX = rule(lambda index: index is None or index >= 0, "must not be negative, got {!r}")


@record(rule=_NAMES_A_TARGET)
class ScheduledMetric:
    """A metric sample scheduled for `tick`, on `resource`, on each active
    member of `group` or on its member at `member_index`."""

    tick: int
    metric: str
    value: float = field(rule=_FINITE)
    resource: str | None = field(default=None, ref=True)
    group: str | None = None
    member_index: int | None = field(default=None, rule=_MEMBER_INDEX)


@record(rule=_NAMES_A_TARGET)
class ScheduledFault:
    """A fault scheduled for `tick`, on a target named as a
    `ScheduledMetric` names one."""

    tick: int
    kind: str = field(default="instance_crash", rule=one_of(FAULT_KINDS))
    resource: str | None = field(default=None, ref=True)
    group: str | None = None
    member_index: int | None = field(default=None, rule=_MEMBER_INDEX)


@record
class TelemetryState:
    """The telemetry registries, in snapshot order."""
    # kept for the world's lifetime, in record order
    samples: Columns = field(default_factory=lambda: Columns(MetricSample),
                             codec=columnar(MetricSample))
    alarms: dict = field(default_factory=dict, codec=keyed(AlarmDef, "name"))
    groups: dict = field(default_factory=dict, codec=keyed(ScalingGroup, "name"))
    healer: dict = field(default_factory=HealerConfig, codec=one(HealerConfig, "telemetry healer"))
    generators: list = field(default_factory=list, codec=listed(LoadGenerator))
    scheduled_metrics: list = field(default_factory=list, codec=listed(ScheduledMetric))
    scheduled_faults: list = field(default_factory=list, codec=listed(ScheduledFault))


_STATE = one(TelemetryState, "telemetry")


class TelemetryService:
    def __init__(self, core, provider):
        self.core = core
        self.provider = provider
        set_fields(self, TelemetryState())

    # -- metrics ---------------------------------------------------------------

    def record_metric(self, resource_id, metric, value, tick=None):
        instance = self.provider.instances.get(resource_id)
        if instance is None or instance.state == "DELETED":
            raise NotFoundError(f"unknown resource {resource_id!r}")
        self._extend([resource_id], metric, [float(value)], self.core.tick if tick is None else tick)

    def _extend(self, resource_ids, metric, values, tick):
        """Record `values` of `metric` at `tick`, one per resource of
        `resource_ids`; once built, the index takes them as they come."""
        if not values:
            return
        samples, count = self.samples, len(values)
        start = len(samples.tick)
        samples.resource_id.extend(resource_ids)
        samples.metric.extend([metric] * count)
        samples.value.extend(values)
        samples.tick.extend([tick] * count)
        if "_series" not in self.__dict__:
            return
        entry = self._series.get(metric)
        if entry is None:
            entry = self._series[metric] = (array("q"), array("q"))
        ticks, positions = entry
        at = len(ticks)
        if at and tick < ticks[-1]:  # a tick before the latest: after every equal one
            at = bisect_right(ticks, tick)
        ticks[at:at] = array("q", [tick] * count)
        positions[at:at] = array("q", range(start, start + count))

    @cached_property
    def _series(self) -> dict:
        """metric -> (ticks, positions): indexes into `samples`, sorted by (tick,
        position), so a window is two bisections; built when first read."""
        positions = {}
        for position, metric in enumerate(self.samples.metric):
            positions.setdefault(metric, []).append(position)
        ticks = self.samples.tick
        series = {}
        for metric, at in positions.items():
            at.sort(key=ticks.__getitem__)  # stable: equal ticks stay in record order
            series[metric] = (array("q", map(ticks.__getitem__, at)), array("q", at))
        return series

    def window_samples(self, resource_ids, metric, tick, window):
        """The positions in `samples` of the samples of `metric` from
        `resource_ids` in ticks [tick - window + 1, tick], in record order."""
        series = self._series.get(metric)
        if series is None:
            return []
        ticks, positions = series
        lo = bisect_left(ticks, tick - window + 1)
        hi = bisect_right(ticks, tick)
        owners, resource_ids = self.samples.resource_id, set(resource_ids)
        return [p for p in sorted(positions[lo:hi]) if owners[p] in resource_ids]

    # -- alarms ----------------------------------------------------------------

    def create_alarm(self, name, metric, aggregate, comparison, threshold, window, target, action):
        if name in self.alarms:
            raise ConflictError(f"alarm {name!r} already exists")
        check(AlarmDef, {"aggregate": aggregate, "comparison": comparison, "threshold": threshold,
                         "window": window, "action": action}, f"alarm {name!r}", ConflictError)
        alarm = AlarmDef(
            id=self.core.new_uuid(), name=name, metric=metric, aggregate=aggregate,
            comparison=comparison, threshold=float(threshold), window=window,
            target=target, action=action,
        )
        self.alarms[name] = alarm
        return alarm

    def evaluate_alarms(self, tick):
        """One evaluation pass; returns the alarms that fired. No sample is
        recorded during a pass, so alarms reading one metric over one
        window of the same members (a group's scale-out and scale-in
        alarms) read it once; a scaling action changes the members."""
        fired, windows, recorded = [], {}, self.samples.value
        for alarm in self.alarms.values():
            group = self.groups.get(alarm.target)
            targets = (alarm.target,) if group is None else group.members
            key = (alarm.metric, alarm.window, *targets)
            values = windows.get(key)
            if values is None:
                values = windows[key] = [recorded[p] for p in self.window_samples(
                    targets, alarm.metric, tick, alarm.window)]
            if not values:
                alarm.state = "insufficient_data"
                continue
            aggregate = AGGREGATES[alarm.aggregate](values)
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
                "alarm.fire", alarm=alarm.name, metric=alarm.metric, aggregate=round(aggregate, 6),
                threshold=alarm.threshold, target=alarm.target, action=alarm.action,
            )
            if alarm.action in ("scale_out", "scale_in") and group is not None:
                self.apply_scaling(group.name, alarm.action[len("scale_"):])
        return fired

    # -- scaling groups -----------------------------------------------------------

    def create_group(self, name, tenant_id, member_spec, min_size, max_size, desired):
        if name in self.groups:
            raise ConflictError(f"scaling group {name!r} already exists")
        check(ScalingGroup, {"member_spec": member_spec, "min_size": min_size,
                             "max_size": max_size, "desired": desired},
              f"scaling group {name!r}", ConflictError)
        group = ScalingGroup(
            id=self.core.new_uuid(), name=name, tenant_id=tenant_id,
            member_spec=dict(member_spec), min_size=min_size, max_size=max_size,
            desired=desired,
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
        instances = self.provider.instances
        return [m for m in group.members
                if (instance := instances.get(m)) is not None and instance.state == "ACTIVE"]

    def apply_scaling(self, group_name, direction) -> int:
        """Move the desired count of an existing group by one member, "out"
        or "in"; returns the new desired count."""
        group = self.groups[group_name]
        if direction == "out":
            if group.desired + 1 > group.max_size:
                self.core.emit("scale.clamped", group=group.name, at="max")
                return group.desired
            try:
                instance = self._launch_member(group)
            except CapacityError as exc:
                self.core.emit("scale.blocked", group=group.name, reason=exc.message)
                return group.desired
            group.desired += 1
            self.core.emit("scale.out", group=group.name, desired=group.desired, member=instance.id)
        else:
            if group.desired - 1 < group.min_size:
                self.core.emit("scale.clamped", group=group.name, at="min")
                return group.desired
            group.desired -= 1
            victim = group.members.pop()  # youngest member
            try:
                self.provider.terminate_instance(victim)
            except NotFoundError:
                pass
            self.core.emit("scale.in", group=group.name, desired=group.desired, member=victim)
        return group.desired

    # -- fault injection -------------------------------------------------------------

    def inject_fault(self, target_id, kind="instance_crash"):
        """Inject a fault of `kind`, one of `FAULT_KINDS`."""
        self.provider.crash_instance(target_id)
        self.core.emit("fault.inject", target=target_id, fault_kind=kind)

    # -- the monitor-detect-correct loop ------------------------------------------------

    def healer_scan(self, tick):
        if not self.healer.enabled or tick % self.healer.detect_interval != 0:
            return
        for group in self.groups.values():
            failed = []
            for member_id in list(group.members):
                instance = self.provider.instances.get(member_id)
                if instance is not None and instance.state == "ACTIVE":
                    continue
                # correct: remove each remnant, then launch in place of each
                if instance is not None and instance.state != "DELETED":
                    self.provider.terminate_instance(member_id)
                group.members.remove(member_id)
                failed.append(member_id)
            failed = iter(failed)
            while len(group.members) < group.desired:
                try:
                    replacement = self._launch_member(group)
                except CapacityError as exc:
                    # blocked until the next detect interval
                    self.core.emit("heal.blocked", group=group.name, reason=exc.message)
                    break
                self.core.emit("heal.replace", group=group.name, failed=next(failed, None),
                               replacement=replacement.id)

    # -- scheduled scenario input and generators ------------------------------------------

    def run_scheduled(self, tick):
        """Each entry scheduled for `tick`; an unavailable target gets `schedule.skipped`."""
        for entry in (*self.scheduled_metrics, *self.scheduled_faults):
            if entry.tick != tick:
                continue
            for target in self._schedule_targets(entry):
                try:
                    if type(entry) is ScheduledFault:
                        self.inject_fault(target, entry.kind)
                    else:
                        self.record_metric(target, entry.metric, entry.value, tick)
                except (ConflictError, NotFoundError) as exc:
                    self.core.emit("schedule.skipped", target=target, reason=exc.message)
        if self.generators:
            from hashlib import sha256  # a CLI call that runs no generator does not pay for it
        for gen in self.generators:
            phase = 2 * math.pi * (tick % gen.period) / gen.period
            wave = gen.base + gen.amplitude * math.sin(phase)
            # each member was just found ACTIVE, so record_metric's check is skipped
            members, values = self._active_members(self.groups[gen.group_name]), []
            # each member's hash input is f"{gen.seed}:{member_id}:{tick}", its ends made once
            head, tail, noise = f"{gen.seed}:", f":{tick}", gen.noise
            for member_id in members:
                digest = sha256((head + member_id + tail).encode()).digest()
                noise_bits = int.from_bytes(digest[:4], "big") % 1000 / 1000 - 0.5
                values.append(round(wave + noise * noise_bits, 6))
            self._extend(members, gen.metric, values, tick)

    def _schedule_targets(self, entry):
        if entry.group is None:
            return [entry.resource]
        group = self.groups[entry.group]  # a load and a scenario refuse a missing one
        idx = entry.member_index
        if idx is None:
            return self._active_members(group)
        if idx >= len(group.members):
            self.core.emit("schedule.skipped", target=group.name,
                           reason=f"group {group.name!r} has no member {idx}")
            return []
        return [group.members[idx]]

    def on_tick(self, tick):
        """Per-tick pipeline step: injections, then alarms, then healing."""
        self.run_scheduled(tick)
        self.evaluate_alarms(tick)
        self.healer_scan(tick)

    # -- persistence -------------------------------------------------------------------------

    def to_dict(self, ids):
        return _STATE.dump(self, ids)

    def load_dict(self, data, ids):
        set_fields(self, _STATE.load(data, ids))
        for entry in (*self.generators, *self.scheduled_metrics, *self.scheduled_faults):
            if entry.group is not None and entry.group not in self.groups:
                raise ValueError(f"{type(entry).__name__} names scaling group {entry.group!r}, "
                                 "which does not exist")
