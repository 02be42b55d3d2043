"""Wait-condition semantics: signals, dedup, timeout, failure, totality."""

import json
import random

import pytest

from minimano.errors import NotFoundError, TemplateError
from minimano.hot import parse_template


def gated_template(count=1, timeout=50):
    return parse_template(
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  handle:\n"
        "    type: OS::Heat::WaitConditionHandle\n"
        "  gate:\n"
        "    type: OS::Heat::WaitCondition\n"
        "    properties:\n"
        "      handle: { get_resource: handle }\n"
        f"      timeout: {timeout}\n"
        f"      count: {count}\n"
    )


def create_gated(env, count=1, timeout=50, name="gated"):
    stack = env.world.engine.create_stack(name, gated_template(count, timeout), {}, token=env.token)
    url = stack.records["handle"].attributes["curl_cli"]
    return stack, url


def test_handle_exposes_signal_address(env):
    stack, url = create_gated(env)
    record = stack.records["handle"]
    assert url == f"mm://wait/{record.attributes['handle_id']}"
    assert record.attributes["handle_id"] == record.uuid


def test_single_success_signal_completes(env):
    stack, url = create_gated(env, count=1, timeout=50)
    assert stack.status == "CREATE_IN_PROGRESS"
    env.world.advance_clock(10)
    env.world.engine.deliver_signal(url, {"status": "SUCCESS"})
    assert stack.status == "CREATE_COMPLETE"
    assert stack.records["gate"].state == "COMPLETE"


def test_count_two_times_out_with_one_signal(env):
    stack, url = create_gated(env, count=2, timeout=50)
    env.world.engine.deliver_signal(url, {"status": "SUCCESS", "id": "only"})
    assert stack.status == "CREATE_IN_PROGRESS"
    env.world.advance_clock(50)
    assert stack.status == "CREATE_FAILED"
    assert "timed out" in stack.records["gate"].failure
    condition = env.world.engine.conditions[stack.records["handle"].uuid]
    assert condition.outcome == "TIMEOUT"


def test_distinct_ids_count_once_each(env):
    stack, url = create_gated(env, count=2)
    env.world.engine.deliver_signal(url, {"status": "SUCCESS", "id": "1"})
    env.world.engine.deliver_signal(url, {"status": "SUCCESS", "id": "2"})
    assert stack.status == "CREATE_COMPLETE"
    data = json.loads(stack.records["gate"].attributes["data"])
    assert set(data) == {"1", "2"}


def test_repeated_id_overwrites_not_accumulates(env):
    stack, url = create_gated(env, count=2)
    env.world.engine.deliver_signal(url, {"status": "SUCCESS", "id": "1"})
    env.world.engine.deliver_signal(url, {"status": "SUCCESS", "id": "1"})
    assert stack.status == "CREATE_IN_PROGRESS"  # still one distinct id


def test_failure_resolves_immediately_regardless_of_count(env):
    stack, url = create_gated(env, count=5)
    env.world.engine.deliver_signal(url, {"status": "FAILURE", "id": "x"})
    assert stack.status == "CREATE_FAILED"
    assert "FAILURE signal" in stack.records["gate"].failure


def test_signal_after_resolution_is_ignored_with_warning(env):
    stack, url = create_gated(env, count=1)
    assert env.world.engine.deliver_signal(url, {"status": "SUCCESS"}) == "recorded"
    ack = env.world.engine.deliver_signal(url, {"status": "SUCCESS"})
    assert ack == "ignored-already-resolved"
    assert stack.status == "CREATE_COMPLETE"


def test_unknown_handle(env):
    with pytest.raises(NotFoundError, match="unknown wait handle"):
        env.world.engine.deliver_signal("mm://wait/abcdef", {"status": "SUCCESS"})


@pytest.mark.parametrize(
    "payload",
    [
        "not a dict",
        {},
        {"status": "OK"},
        {"status": "SUCCESS", "id": 7},
        {"status": "SUCCESS", "extra": "field"},
    ],
)
def test_malformed_payloads_rejected(env, payload):
    _, url = create_gated(env)
    with pytest.raises(TemplateError):
        env.world.engine.deliver_signal(url, payload)


def test_signals_arriving_before_condition_deploys_count(env):
    # a server in the same wave signals during its own boot, before the
    # wait condition resource is reached
    mysql = env.parse("mysql.yaml")
    stack = env.world.engine.create_stack("db", mysql, {}, token=env.token)
    assert stack.status == "CREATE_COMPLETE"
    data = json.loads(stack.records["mysql_ready"].attributes["data"])
    assert data == {"mysql-ready": "database up"}


def test_two_sequential_gates_resume_and_reblock(env):
    doc = parse_template(
        "heat_template_version: 2013-05-23\n"
        "resources:\n"
        "  h1:\n"
        "    type: OS::Heat::WaitConditionHandle\n"
        "  gate1:\n"
        "    type: OS::Heat::WaitCondition\n"
        "    properties:\n"
        "      handle: { get_resource: h1 }\n"
        "      timeout: 40\n"
        "  h2:\n"
        "    type: OS::Heat::WaitConditionHandle\n"
        "    properties: {}\n"
        "  gate2:\n"
        "    type: OS::Heat::WaitCondition\n"
        "    properties:\n"
        "      handle: { get_resource: h2 }\n"
        "      timeout: 40\n"
    )
    stack = env.world.engine.create_stack("double", doc, {}, token=env.token)
    assert stack.status == "CREATE_IN_PROGRESS"
    url1 = stack.records["h1"].attributes["curl_cli"]
    env.world.engine.deliver_signal(url1, {"status": "SUCCESS"})
    # first gate opened; the walk resumed and parked on the second gate
    assert stack.status == "CREATE_IN_PROGRESS"
    assert stack.records["gate1"].state == "COMPLETE"
    assert stack.records["gate2"].state == "IN_PROGRESS"
    url2 = stack.records["h2"].attributes["curl_cli"]
    env.world.engine.deliver_signal(url2, {"status": "SUCCESS"})
    assert stack.status == "CREATE_COMPLETE"


class ReferenceWaitMachine:
    """Independent model: dict of signals, first terminal outcome sticks."""

    def __init__(self, required, deadline):
        self.required = required
        self.deadline = deadline
        self.signals = {}
        self.outcome = "PENDING"

    def signal(self, sid, status):
        if self.outcome != "PENDING":
            return
        self.signals[sid] = status
        if any(s == "FAILURE" for s in self.signals.values()):
            self.outcome = "FAILURE_SIGNALED"
        elif sum(1 for s in self.signals.values() if s == "SUCCESS") >= self.required:
            self.outcome = "SUCCESS"

    def clock(self, tick):
        if self.outcome == "PENDING" and tick >= self.deadline:
            self.outcome = "TIMEOUT"


def test_outcome_totality_against_reference_machine(env):
    rng = random.Random(2024)
    for case in range(40):
        required = rng.randrange(1, 4)
        timeout = rng.randrange(2, 12)
        stack, url = create_gated(env, count=required, timeout=timeout, name=f"tot{case}")
        reference = ReferenceWaitMachine(required, env.world.tick + timeout)
        for _ in range(rng.randrange(0, 8)):
            if rng.random() < 0.3:
                ticks = rng.randrange(1, 5)
                env.world.advance_clock(ticks)
                reference.clock(env.world.tick)
            else:
                sid = str(rng.randrange(0, 4))
                status = "FAILURE" if rng.random() < 0.15 else "SUCCESS"
                try:
                    env.world.engine.deliver_signal(url, {"status": status, "id": sid})
                except TemplateError:
                    pass
                reference.signal(sid, status)
        # drive to the deadline so every run resolves
        remaining = reference.deadline - env.world.tick
        if remaining > 0:
            env.world.advance_clock(remaining)
            reference.clock(env.world.tick)
        condition = env.world.engine.conditions[stack.records["handle"].uuid]
        assert condition.outcome == reference.outcome
        assert condition.outcome in ("SUCCESS", "TIMEOUT", "FAILURE_SIGNALED")
        expected_status = "CREATE_COMPLETE" if condition.outcome == "SUCCESS" else "CREATE_FAILED"
        assert stack.status == expected_status
        # resolution is permanent: late signals change nothing
        env.world.engine.deliver_signal(url, {"status": "FAILURE"})
        assert condition.outcome == reference.outcome
