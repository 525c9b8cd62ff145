"""Tests of the benchmark's own machinery: references, checks, inputs, spans.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cnls  # noqa: E402
import cnls.grid  # noqa: E402
import cnls.solver  # noqa: E402
from cnls import PhaseOptions, ParameterSet, small_b_bound  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _shoot_unit_level(N):
    """Level of -Laplace w + w = w^3 on R^N by shooting the radial ODE."""
    from scipy.integrate import solve_ivp

    s = {2: 2.0 * math.pi, 3: 4.0 * math.pi}[N]

    def rhs(r, y):
        w, dw, _ = y
        return [dw, -(N - 1) / r * dw + w - w**3, s * r ** (N - 1) * w**4 / 4.0]

    def crossed(r, y):
        return y[0]

    def rising(r, y):
        return y[1]

    crossed.terminal = True
    rising.terminal = True
    rising.direction = 1
    lo, hi, r0, level = 1.0, 6.0, 1e-6, None
    while hi - lo > 1e-14:
        a = 0.5 * (lo + hi)
        c = (a - a**3) / (2 * N)  # w = a + c r^2 + O(r^4) near the axis
        sol = solve_ivp(rhs, (r0, 30.0), [a + c * r0**2, 2 * c * r0, 0.0],
                        method="DOP853", rtol=1e-12, atol=1e-15, events=(crossed, rising))
        if sol.t_events[0].size:
            hi = a
        else:  # on the Nehari set the level is |w|_4^4 / 4
            lo, level = a, sol.y[2][-1]
    return level


@pytest.mark.parametrize("N", [2, 3])
def test_unit_levels(N):
    assert workloads.UNIT_LEVEL[N] == pytest.approx(_shoot_unit_level(N), rel=1e-10)


def _threshold_points(*labels):
    wl = workloads.Threshold(1, None)
    return [pt for pt in wl.points(0) if pt.label in labels]


def _classify(points):
    outcomes = []
    for pt in points:
        v = cnls.classify(pt.params, PhaseOptions())
        outcomes.append(workloads.Outcome(pt, v.verdict, v.numeric_full_level,
                                          v.numeric_semitrivial_level))
    return outcomes


def test_gate_passes_clean_build_and_flags_fault():
    points = _threshold_points("sym-b1.01", "asym-1.02bstar")
    golden = workloads.load_golden()
    clean = workloads.judge(_classify(points), golden)
    assert clean.problems == [] and clean.failed == 0
    old = cnls.grid._FAULT_WEIGHT_SCALE
    cnls.grid._FAULT_WEIGHT_SCALE = 0.05  # the hook `cnls selftest --inject-fault` uses
    try:
        faulty = workloads.judge(_classify(points), golden)
    finally:
        cnls.grid._FAULT_WEIGHT_SCALE = old
    assert len(faulty.problems) == len(points)
    assert faulty.failed == len(points)
    assert all("vs analytic" in line for line in faulty.problems)


def _outcome(pt, verdict, level):
    return workloads.Outcome(pt, verdict, level, level)


def test_judge_separates_wrong_missed_and_undecided():
    p = ParameterSet.make([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 0.1, N=2)
    levels = (5.0, 5.003, 5.2)
    pt = workloads.Point("x", p, verdict=workloads.SEMITRIVIAL, semi=5.0, ground=5.0,
                         local_levels=levels)
    ok = workloads.judge([_outcome(pt, "semitrivial", 5.00001)], {})
    assert (ok.failed, ok.problems, ok.misses) == (0, [], [])
    assert ok.level_err_max == pytest.approx(2e-6)
    missed = workloads.judge([_outcome(pt, "semitrivial", 5.2)], {})
    assert missed.failed == 1 and missed.problems == [] and len(missed.misses) == 1
    assert missed.level_err_max < 1e-12 and missed.miss_max == pytest.approx(0.04)
    close = workloads.judge([_outcome(pt, "semitrivial", 5.003)], {})
    assert close.failed == 0 and close.miss_max == pytest.approx(6e-4)
    wrong = workloads.judge([_outcome(pt, "fully_nontrivial", 5.0)], {})
    assert wrong.failed == 1 and len(wrong.problems) == 1
    undecided = workloads.judge([_outcome(pt, "inconclusive", 5.0)], {})
    assert undecided.failed == 1 and undecided.problems == []
    golden = {"x": {"verdict": "semitrivial", "full_level": 5.0, "semitrivial_level": 5.0}}
    drifted = workloads.judge([_outcome(pt, "semitrivial", 5.0 * (1 + 1e-5))], golden)
    assert len(drifted.problems) == 1 and drifted.drift_max == pytest.approx(1e-5)


def test_wide_draws_are_deterministic_and_in_range():
    a = workloads.draw_wide(7, 3)
    b = workloads.draw_wide(7, 3)
    c = workloads.draw_wide(8, 3)
    assert [pt.label for pt in a] == [pt.label for pt in b]
    for x, y in zip(a, b):
        assert x.params.to_json_dict() == y.params.to_json_dict()
    assert any(x.params.to_json_dict() != z.params.to_json_dict() for x, z in zip(a, c))
    assert len(a) == len(workloads.WIDE_STRATA)
    for pt in a:
        p = pt.params
        assert p.d in (3, 4) and p.N in (2, 3)
        assert (1.0 <= p.lam).all() and (p.lam <= 1.2).all()
        assert (0.9 <= p.mu).all() and (p.mu <= 1.1).all()
        b = p.constant_coupling()
        if pt.label.endswith("low"):
            assert b <= 0.7 * small_b_bound(p.mu) and pt.ground == min(pt.local_levels)
        else:
            assert 2.5 <= b <= 4.0 and pt.ground is None


def test_wide_high_band_comes_from_the_golden_pool():
    golden = workloads.load_golden()
    pool = {pt.label: pt.params.to_json_dict() for pt in workloads.wide_pool()}
    assert len(pool) == 4 * workloads.WIDE_POOL
    assert all(label in golden for label in pool)
    for seed, k in ((7, 0), (7, 3), (12, 1)):
        high = [pt for pt in workloads.draw_wide(seed, k) if pt.label.endswith("high")]
        assert len(high) == 4
        for pt in high:
            assert pt.label.startswith(f"pool{(seed + k) % workloads.WIDE_POOL}-")
            assert pool[pt.label] == pt.params.to_json_dict()


def test_self_times_subtract_direct_children():
    spans = [
        # pid, seq, name, t0, t1, parent, point, info
        (1, 0, "root", 0.0, 10.0, -1, -1, None),
        (1, 1, "a", 1.0, 4.0, 0, -1, None),
        (1, 2, "b", 2.0, 3.0, 1, -1, None),
        (1, 3, "c", 5.0, 9.0, 0, -1, None),
        (2, 0, "root", 0.0, 2.0, -1, -1, None),  # another process, same seq
    ]
    selfs = tracing.self_times(spans)
    assert selfs[(1, 0)] == pytest.approx(10.0 - 3.0 - 4.0)
    assert selfs[(1, 1)] == pytest.approx(3.0 - 1.0)
    assert selfs[(1, 2)] == pytest.approx(1.0)
    assert selfs[(2, 0)] == pytest.approx(2.0)


def test_tracer_counts_layers_and_restores_names():
    originals = {(o, a): tracing.resolve(o).__dict__[a] for o, a, _, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0, N=1)
        with tracer.span("bench.pass"):
            cnls.classify(p, PhaseOptions(grid_n=200))
    finally:
        tracer.uninstall()
    for (owner, attr), raw in originals.items():
        assert tracing.resolve(owner).__dict__[attr] is raw
    spans = tracer.collect()
    metrics = tracing.layer_metrics(spans, 1, 1, 0.0, 100)
    assert sorted(metrics) == sorted(m["name"] for m in BENCH["per_layer"])
    value = {k: v for k, (v, _unit) in metrics.items()}
    # 2 restricted solves of 3 starts each, then 1 + 2*2 + 2 full starts
    assert value["solver.starts"] == 13
    assert value["solver.minimize_restricted.calls"] == 2
    assert value["solver.factor.calls"] == 4
    assert value["grid.make.calls"] == 1
    # every iteration takes one gradient; finalize adds one per start
    assert value["functional.gradient.calls"] == value["solver.iterations"] + 13
    assert value["solver.restricted_repeat_share"] == 0.5  # (1,1) solved twice
    assert 0.0 < value["phase.pool_efficiency"] <= 1.0
    classify = [s for s in spans if s[2] == tracing.CLASSIFY]
    assert len(classify) == 1
    inner = [s for s in spans if s[3] >= classify[0][3] and s[4] <= classify[0][4]]
    assert all(s[6] == classify[0][1] for s in inner)


def test_end_to_end_metrics_match_benchmark_json():
    x, y = workloads.Point("x", None), workloads.Point("y", None)
    outcomes = [workloads.Outcome(pt, "semitrivial", 1.0, 1.0, seconds=t)
                for pt, t in ((x, 1.0), (x, 3.0), (x, 3.5), (y, 2.5))]
    metrics = run.end_to_end(outcomes, [(4.0, 2), (6.0, 2)], 1, 2, 1e-5)
    reported = set(metrics) | {"peak_rss_mb", "setup_s"}
    assert reported == {m["name"] for m in BENCH["end_to_end"]}
    assert metrics["points_per_s"][0] == 0.4
    assert metrics["point_p50_s"][0] == 2.75
    assert metrics["point_max_s"][0] == 3.0  # the median of point x's repeats
    assert metrics["success_share"][0] == 0.5
    for m in BENCH["end_to_end"]:
        if m["name"] in metrics:
            assert metrics[m["name"]][1] == m["unit"]
