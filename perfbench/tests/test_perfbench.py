"""Self-tests of the benchmark: plans, statistics, spans and the spec.

Run from the repository root: ``python3 -m pytest perfbench/tests``
"""

import itertools
import json
import random
import re
from pathlib import Path

import pytest

import compare
import plan
from spans import Patcher, Span, Tracer, covered, summarize
from stats import MIN_BEYOND, TAIL_CAP, tail
from workloads import PROBE_REFERENCE_S, HostProbe, Leg, drive_serial

ROOT = Path(__file__).resolve().parents[2]


def _take(iterator, count):
    return list(itertools.islice(iterator, count))


# -- plans ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [plan.figure_plan, plan.matrix_plan, plan.serve_plan,
     lambda seed: plan.serve_plan(seed, fleet=True)],
)
def test_same_seed_same_plan(make):
    assert _take(make(7), 300) == _take(make(7), 300)
    assert _take(make(7), 300) != _take(make(8), 300)


def test_fleet_plan_is_daemon_plan_plus_jobs():
    daemon = _take(plan.serve_plan(3), 400)
    fleet = _take(plan.serve_plan(3, fleet=True), 400 + 400 // (plan.JOB_EVERY - 1) + 1)
    jobs = [i for i, (kind, _) in enumerate(fleet) if kind == "job"]
    assert jobs and all(i % plan.JOB_EVERY == plan.JOB_EVERY - 1 for i in jobs)
    assert [op for op in fleet if op[0] != "job"][:400] == daemon


def test_serve_shares_are_exact_every_round():
    size = sum(plan.SERVE_ROUND.values())
    ops = _take(plan.serve_plan(5), 12 * size)
    for start in range(0, len(ops), size):
        kinds = [kind for kind, _ in ops[start:start + size]]
        assert {k: kinds.count(k) for k in plan.SERVE_ROUND} == plan.SERVE_ROUND


def test_every_planned_output_has_a_reference():
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for panel in plan.FIGURE_PANELS:
        for seed in plan.SEED_POOL:
            assert f"{panel[0]}/{seed}" in reference["figure-sweep"]
    assert {str(s) for s in plan.SEED_POOL} <= set(reference["matrix-exact"])
    for kind, requests in plan.serve_catalog().items():
        for request in requests:
            assert plan.request_key(kind, request) in reference["serve"]


# -- the tail rule -------------------------------------------------------------


def test_tail_keeps_enough_samples_beyond():
    rng = random.Random(0)
    for n in list(range(1, 60)) + [199, 200, 201, 999, 1771, 10_000]:
        values = [rng.random() for _ in range(n)]
        chosen = tail(values)
        if n <= MIN_BEYOND:
            assert chosen is None
            continue
        beyond = sum(v > chosen["value"] for v in values)
        assert beyond == chosen["beyond"] >= MIN_BEYOND and chosen["samples"] == n
        assert chosen["percentile"] <= TAIL_CAP
        # Below the cap, no higher rank has room: exactly MIN_BEYOND beyond.
        if chosen["percentile"] < TAIL_CAP:
            assert beyond == MIN_BEYOND


def test_tail_percentile_follows_the_op_count():
    assert tail(list(range(10))) is None
    assert tail(list(range(20))) == {"value": 9.0, "percentile": 50.0, "beyond": 10, "samples": 20}
    assert tail(list(range(40)))["percentile"] == 75.0
    assert tail(list(range(200)))["percentile"] == 95.0
    assert tail(list(range(400)))["percentile"] == 97.5
    assert tail(list(range(1000))) == {"value": 974.0, "percentile": 97.5, "beyond": 25, "samples": 1000}


def test_speed_scale_takes_op_times_to_the_reference_speed():
    assert Leg().speed_scale == 1.0
    slow = Leg(probes=[2 * PROBE_REFERENCE_S, 2 * PROBE_REFERENCE_S, 9.0])
    assert slow.speed_scale == 0.5


@pytest.mark.parametrize("probe_every, probes", [(0.0, 5), (3600.0, 1)])
def test_probes_follow_the_interval(probe_every, probes):
    ops = iter([("op", lambda: 1, lambda output, leg: True)] * 5)
    leg = drive_serial(ops, 0.0, None, lambda: PROBE_REFERENCE_S, count=5, probe_every=probe_every)
    assert (leg.attempted, leg.failed, len(leg.probes)) == (5, 0, probes)
    assert leg.speed_scale == 1.0


def test_host_probe_runs_in_its_own_process():
    import os

    with HostProbe() as probe:
        assert probe.proc.pid != os.getpid()
        assert 0.0 < probe() < 10.0
    assert probe.proc.returncode == 0


# -- span arithmetic -----------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_spans_self_time():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.open("sort")
    clock.now = 1.0
    child = tracer.open("score")
    clock.now = 3.0
    grandchild = tracer.open("count")
    clock.now = 4.0
    tracer.close(grandchild)
    clock.now = 5.0
    tracer.close(child)
    clock.now = 10.0
    tracer.close(outer)
    summary = summarize(tracer.spans)
    assert summary["sort"] == {"busy_s": 10.0, "self_s": 6.0, "calls": 1}
    assert summary["score"] == {"busy_s": 4.0, "self_s": 3.0, "calls": 1}
    assert summary["count"] == {"busy_s": 1.0, "self_s": 1.0, "calls": 1}


def test_overlapping_children_count_once():
    spans = [
        Span("sort", 0.0, 10.0, -1),
        Span("score", 1.0, 4.0, 0),
        Span("score", 3.0, 6.0, 0),
        Span("score", 9.0, 12.0, 0),  # runs past its parent's end
    ]
    assert covered([(1.0, 4.0), (3.0, 6.0), (9.0, 12.0)], 0.0, 10.0) == 6.0
    summary = summarize(spans)
    assert summary["sort"]["self_s"] == 4.0
    # Overlapping calls (e.g. on two threads) are each busy time.
    assert summary["score"]["busy_s"] == 3.0 + 3.0 + 3.0


def test_reentered_layer_is_busy_once():
    spans = [Span("sort", 0.0, 10.0, -1), Span("sort", 2.0, 5.0, 0)]
    summary = summarize(spans)
    assert summary["sort"]["busy_s"] == 10.0
    assert summary["sort"]["self_s"] == 7.0 + 3.0


class _Base:
    def inherited(self):
        return "base"


class _Target(_Base):
    @classmethod
    def build(cls):
        return cls

    def method(self):
        return "method"


def test_patcher_restores_every_kind_of_name():
    import sys

    module = sys.modules[__name__]
    originals = (
        _Target.__dict__["build"], _Target.__dict__["method"], _Target.inherited,
        module.covered,
    )
    tracer = Tracer()
    patcher = Patcher(tracer)
    for attr in ("_Target.build", "_Target.method", "_Target.inherited"):
        patcher.wrap(__name__, attr, "span")
    patcher.wrap(__name__, "covered", None, lambda t, a, k, r: t.add("calls"))
    assert _Target.build() is _Target
    assert _Target().method() == "method"
    assert _Target().inherited() == "base"
    assert module.covered([], 0.0, 1.0) == 0.0
    assert summarize(tracer.spans)["span"]["calls"] == 3
    assert tracer.counts["calls"] == 1
    patcher.restore()
    assert (
        _Target.__dict__["build"], _Target.__dict__["method"], _Target.inherited,
        module.covered,
    ) == originals
    assert "inherited" not in _Target.__dict__


# -- the specification ---------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_benchmark_json_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))


def test_compare_refuses_a_different_backend():
    def saved(backend):
        return {"workload": "figure-sweep", "trace": 0,
                "meta": {"fused_backend": backend, "REPRO_FORCE_NUMPY": None}}

    assert compare.refusal([saved("numpy")], [saved("numpy")]) is None
    assert "fused_backend" in compare.refusal([saved("numpy")], [saved("native")])
