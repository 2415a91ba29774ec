"""Tests for the benchmark's own helpers: statistics, spans, schedules, checks."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from harness import (
    REFERENCE_SECONDS,
    HostSpeed,
    Span,
    Tracer,
    self_time,
    tail_percentile,
    zipf_draws,
)

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
def test_p90_is_reported_when_ten_samples_lie_beyond_it():
    samples = [float(k) for k in range(1, 101)]
    assert tail_percentile(samples, 0.9) == (0.9, 90.0)


def test_unsupported_percentile_falls_back_to_highest_supported():
    samples = [float(k) for k in range(1, 51)]
    used, value = tail_percentile(samples, 0.9)
    assert used == pytest.approx(0.8)
    assert value == 40.0


@pytest.mark.parametrize("n", [11, 19, 20, 99, 100, 101, 257])
def test_every_reported_percentile_leaves_ten_samples_beyond(n):
    samples = [float(k) for k in range(n)]
    used, value = tail_percentile(samples, 0.9)
    assert sum(1 for s in samples if s > value) >= 10
    assert used <= 0.9


def test_too_few_samples_for_any_percentile():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10, 0.5)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
def _speed(samples: list[tuple[float, float]]) -> HostSpeed:
    speed = HostSpeed()
    for at, seconds in samples:
        speed.at.append(at)
        speed.seconds.append(seconds)
    return speed


def test_a_time_is_scaled_by_the_reference_loop_around_it():
    slow = [(float(t), 2 * REFERENCE_SECONDS) for t in range(20)]
    fast = [(float(t), REFERENCE_SECONDS / 2) for t in range(20, 40)]
    speed = _speed(slow + fast)
    # Twice as slow a host: the same work reads half as long at reference speed.
    assert speed.normalise(0.1, 5.0) == pytest.approx(0.05)
    assert speed.normalise(0.1, 35.0) == pytest.approx(0.2)
    assert speed.normalise(0.1, 100.0) == pytest.approx(0.2)


def test_one_disturbed_reference_sample_does_not_move_the_scale():
    samples = [(float(t), REFERENCE_SECONDS) for t in range(20)]
    samples[10] = (10.0, 50 * REFERENCE_SECONDS)
    assert _speed(samples).scale(10.0) == pytest.approx(1.0)


def test_scale_needs_a_sample():
    with pytest.raises(ValueError):
        HostSpeed().scale(0.0)


def test_repeat_medians_ignore_one_slow_round():
    from workloads import repeat_medians

    assert repeat_medians({"a": [1.0, 9.0, 1.1], "b": [2.0, 2.1, 8.0]}) == [1.1, 2.1]
    # Four rounds: the middle two, not the lower one.
    assert repeat_medians({"a": [1.0, 9.0, 1.2, 1.1]}) == [pytest.approx(1.15)]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_child_coverage():
    parent = Span(0, "p", 0, None, 0.0, 10.0)
    children = [
        Span(1, "a", 0, 0, 1.0, 3.0),
        Span(2, "b", 0, 0, 2.0, 5.0),  # overlaps a: counted once
        Span(3, "c", 0, 0, 8.0, 12.0),  # runs past the parent: clipped
    ]
    assert self_time(parent, children) == pytest.approx(10.0 - 4.0 - 2.0)


def test_tracer_nests_spans_and_writes_a_chrome_trace(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", 7):
        tracer.call("inner", 7, sum, [1, 2])
    outer, inner = tracer.spans
    assert inner.parent == outer.span_id and outer.parent is None
    assert tracer.children(outer) == [inner]
    assert 0.0 <= self_time(outer, [inner]) <= outer.duration
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [event["name"] for event in events] == ["outer", "inner"]
    assert all(event["ph"] == "X" and event["args"]["op"] == 7 for event in events)


# ----------------------------------------------------------------------
# Input schedules
# ----------------------------------------------------------------------
def test_zipf_draws_are_determined_by_their_seed_and_skewed():
    draws = zipf_draws(8, 4000, "s")
    assert draws == zipf_draws(8, 4000, "s")
    assert draws != zipf_draws(8, 4000, "t")
    assert set(draws) <= set(range(8))
    assert draws.count(0) > 3 * draws.count(7)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def planned():
    import inputs
    from repro.core import make_planner

    graph = inputs.netgen_app(60, 11, "check")
    return graph, make_planner("spectral").plan_user(graph)


def test_digest_check_accepts_a_correct_response_and_rejects_corruption(planned):
    from repro.service.http import response_to_dict
    from repro.service.plan_cache import plan_digest
    from repro.service.server import PlanResponse
    from workloads import digest_problem

    _, plan = planned
    reference = plan_digest(plan)
    body = json.loads(json.dumps(response_to_dict(PlanResponse(1, "k", plan=plan))))
    assert digest_problem(body, reference) == ""

    corrupted = json.loads(json.dumps(body))
    corrupted["plan"]["parts"][0] = corrupted["plan"]["parts"][0][1:]
    assert "does not match" in digest_problem(corrupted, reference)

    consistent_but_wrong = json.loads(json.dumps(corrupted))
    from repro.service.plan_cache import plan_from_dict

    consistent_but_wrong["plan_digest"] = plan_digest(plan_from_dict(corrupted["plan"]))
    assert "differs" in digest_problem(consistent_but_wrong, reference)

    failed = {"ok": False, "error": {"code": "shed"}}
    assert "not ok" in digest_problem(failed, reference)


def test_system_check_rejects_a_tampered_consumption():
    import copy

    import workloads
    from repro.core import make_planner

    system, graphs = max(workloads._build_systems(5), key=lambda built: len(built[0].users))
    result = make_planner("spectral").plan_system(system, graphs)
    assert workloads._check_system(result, system, graphs) == ""
    assert any(result.greedy.remote_parts.values()), "the plan must offload for the test to bite"
    tampered = copy.copy(result)
    tampered.greedy = copy.copy(result.greedy)
    tampered.greedy.remote_parts = {user: set() for user in result.greedy.remote_parts}
    assert workloads._check_system(tampered, system, graphs) != ""


def test_interposition_spans_the_real_planner_and_restores_it(planned):
    import workloads
    from replay import INTERPOSED, OpCursor, Recorded, interposed
    from repro.core import make_planner
    from repro.service.plan_cache import plan_digest

    graph, plan = planned
    planner = make_planner("spectral")
    originals = [vars(owner)[attr] for owner, attr, _ in INTERPOSED]
    tracer, cursor, recorded = Tracer(), OpCursor(), Recorded()
    system, graphs = workloads._build_systems(5)[0]
    with interposed(tracer, cursor, recorded):
        traced_plan = planner.plan_user(graph)
        cursor.op = 1
        traced = planner.plan_system(system, graphs)
    assert [vars(owner)[attr] for owner, attr, _ in INTERPOSED] == originals

    assert plan_digest(traced_plan) == plan_digest(plan)
    direct = planner.plan_system(system, graphs)
    assert traced.consumption.combined() == direct.consumption.combined()
    names = {span.name for span in tracer.spans}
    assert names <= set(workloads.SPAN_TIMINGS)
    assert {"planner.plan_user", "compression.compress", "spectral.cut", "greedy"} <= names
    (system_span,) = tracer.named("planner.plan_system")
    assert system_span.op == 1
    assert {span.name for span in tracer.children(system_span)} >= {
        "fingerprint",
        "planner.plan_user",
        "scheme.partition",
        "greedy",
    }
    assert recorded.greedy == [traced.greedy]
    assert recorded.layer_stats(tracer)["greedy.moves"] == len(traced.greedy.moves)


def test_every_metric_the_code_can_report_is_declared():
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    for span, metric in workloads.SPAN_TIMINGS.items():
        assert metric in per_layer and f"{span}.calls" in per_layer
    assert "setup_s" in {metric["name"] for metric in spec["end_to_end"]}
