import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from cnls import phase, simplex_qp_max, solver
from cnls.cli import write_sweep_csv
from cnls.params import ParameterSet, small_b_bound
from cnls.phase import (
    FULLY_NONTRIVIAL,
    INCONCLUSIVE,
    SEMITRIVIAL,
    SWEEP_CAP,
    VERDICT_RULES,
    WORKERS_CAP,
    PhaseOptions,
    SweepPoint,
    VerdictFacts,
    build_grid,
    classify,
    evaluate_predicates,
    set_parameter,
    sweep,
)

SINGLE_LEVEL = 4.0 / 3.0

FAST = PhaseOptions(grid_n=600)


@pytest.mark.parametrize(
    "kwargs",
    [{"grid_n": 150.7}, {"grid_n": True}, {"grid_n": "400"},
     {"workers": 1.5}, {"workers": True}, {"workers": "2"}, {"grid_n": 99}],
    ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()),
)
def test_phase_options_reject_mistyped_fields(kwargs):
    with pytest.raises(ValueError, match="must be"):
        PhaseOptions(**kwargs)


def test_phase_options_cap_the_worker_pool():
    # rejected on construction, before any pool could start a process
    assert PhaseOptions(workers=WORKERS_CAP).workers == WORKERS_CAP
    for workers in (0, WORKERS_CAP + 1, 10**6):
        with pytest.raises(ValueError, match=f"between 1 and {WORKERS_CAP}"):
            PhaseOptions(workers=workers)


class TestClassify:
    def test_armijo_backtracking_keeps_a_wide_range_draw_converged(self, monkeypatch):
        # a wide-range draw whose descents backtrack; ending a descent at its
        # first failed trial leaves restricted solves unconverged
        p = ParameterSet.from_json_dict({
            "d": 5, "N": 3, "lambda": [1.0, 1.7, 0.365, 0.665, 2.5],
            "mu": [0.00553, 4.51, 0.0552, 0.298, 0.0258],
            "b": [[0, 20.5, 0.289, 0.0256, 28.8], [20.5, 0, 0.00418, 0.00168, 0.00718],
                  [0.289, 0.00418, 0, 0.386, 0.562], [0.0256, 0.00168, 0.386, 0, 0.646],
                  [28.8, 0.00718, 0.562, 0.646, 0]]})
        opts = PhaseOptions(grid_n=150)
        v = classify(p, opts)
        assert v.verdict == SEMITRIVIAL and v.diagnostics["solver_converged"]
        assert v.decided_by == "stable_semitrivial"
        monkeypatch.setattr(solver, "BACKTRACK_FACTOR", 1e-300)
        v = classify(p, opts)
        assert v.verdict == INCONCLUSIVE and not v.diagnostics["solver_converged"]
        assert v.decided_by == "unconverged"

    @pytest.mark.parametrize("p", [
        ParameterSet.make([1.0, 1.0], [1.0, 1.0], 1.01, N=1),
        ParameterSet.make([1.2, 1.14, 1.13], [0.98, 0.93, 1.04], 2.97, N=3),
        ParameterSet.make([1.01, 1.11, 1.09, 1.01], [1.03, 1.07, 1.02, 0.95], 0.32, N=2),
    ], ids=["threshold-pair", "d3-N3-high", "d4-N2-low"])
    def test_lbfgs_memory_changes_the_path_not_the_answer(self, monkeypatch, p):
        # with no stored pair every direction is the H^1 gradient
        iterations = []
        run = solver._Descent.run

        def counted(self, u0):
            out = run(self, u0)
            iterations[-1] += out[1]
            return out

        monkeypatch.setattr(solver._Descent, "run", counted)
        verdicts = []
        for memory in (0, solver.LBFGS_MEMORY):
            monkeypatch.setattr(solver, "LBFGS_MEMORY", memory)
            iterations.append(0)
            verdicts.append(classify(p, PhaseOptions(grid_n=300)))
        plain, lbfgs = verdicts
        assert (lbfgs.verdict, lbfgs.full_support) == (plain.verdict, plain.full_support)
        for level in ("numeric_full_level", "numeric_semitrivial_level"):
            assert getattr(lbfgs, level) == pytest.approx(getattr(plain, level), rel=1e-10)
        assert iterations[1] < iterations[0]

    def test_strong_coupling_pair_is_fully_nontrivial(self):
        v = classify(ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0), FAST)
        assert (v.verdict, v.decided_by) == (FULLY_NONTRIVIAL, "margin_above_band")
        assert v.full_support == (0, 1)
        assert v.margin == pytest.approx(SINGLE_LEVEL - 2.0 / 3.0, rel=1e-3)

    def test_weak_coupling_pair_is_semitrivial(self):
        v = classify(ParameterSet.make([1.0, 1.0], [1.0, 1.0], 0.5), FAST)
        assert (v.verdict, v.decided_by) == (SEMITRIVIAL, "stable_semitrivial")
        assert not v.certificate_held
        assert abs(v.margin) <= v.diagnostics["margin_tol_abs"]

    @pytest.mark.parametrize(
        "lam,N,b",
        [([1.0, 1.5], 2, 1.0), ([1.0, 1.5], 2, 1.2),
         ([1.0, 2.0], 1, 0.98 * (2.0 + np.sqrt(2.0)) / 2.0)],
        ids=["N2-b1.0", "N2-b1.2", "N1-asym-0.98bstar"],
    )
    def test_only_the_best_semitrivial_minimizer_is_tested(self, lam, N, b):
        # the higher-level subset (1,) is unstable in slot 0 here, which says
        # nothing about the ground state; the best subset (0,) is stable
        v = classify(ParameterSet.make(lam, [1.0, 1.0], b, N=N), PhaseOptions(grid_n=400))
        assert v.diagnostics["semitrivial"]["best_subset"] == [0]
        assert v.diagnostics["unstable_slots"] == [] and not v.certificate_held
        assert (v.verdict, v.decided_by) == (SEMITRIVIAL, "stable_semitrivial")

    def test_triple_below_small_coupling_bound(self):
        p = ParameterSet.make([1.0] * 3, [1.0] * 3, 0.3)
        assert 0.3 < small_b_bound(p.mu)
        v = classify(p, FAST)
        assert v.verdict == SEMITRIVIAL
        assert v.predicates["small_coupling"].satisfied

    def test_strong_triple_with_spread_condition(self):
        p = ParameterSet.make([1.0] * 3, [1.0] * 3, 5.0)
        v = classify(p, FAST)
        assert v.verdict == FULLY_NONTRIVIAL
        pred = v.predicates["coupling_spread"]
        assert pred.applicable and pred.satisfied
        assert v.predicates["lambda_cluster"].satisfied
        assert v.predicates["lambda_tail"].satisfied
        assert not v.predicates["small_coupling"].satisfied

    def test_non_convergence_yields_inconclusive(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
        monkeypatch.setattr(solver, "RANDOM_STARTS", 0)
        opts = PhaseOptions(grid_n=600)
        v = classify(ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0), opts)
        assert (v.verdict, v.decided_by) == (INCONCLUSIVE, "unconverged")
        assert not v.diagnostics["solver_converged"]

    def test_permutation_equivariance(self):
        p = ParameterSet.make([1.0, 1.2, 0.9], [1.0, 0.8, 1.1], 2.2)
        perm = [2, 0, 1]
        q = ParameterSet.make(p.lam[perm], p.mu[perm], 2.2)
        vp = classify(p, FAST)
        vq = classify(q, FAST)
        assert vp.verdict == vq.verdict
        assert vp.numeric_full_level == pytest.approx(vq.numeric_full_level, abs=1e-8)
        assert vp.numeric_semitrivial_level == pytest.approx(
            vq.numeric_semitrivial_level, abs=1e-8
        )

    def test_rejects_single_equation(self):
        with pytest.raises(ValueError, match="d >= 2"):
            classify(ParameterSet.make([1.0], [1.0], 0.0), FAST)

    def test_verdict_serializes(self):
        v = classify(ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0), FAST)
        blob = json.loads(json.dumps(v.to_json_dict(), sort_keys=True))
        assert (blob["verdict"], blob["decided_by"]) == ("fully_nontrivial", "margin_above_band")
        semi = blob["diagnostics"]["semitrivial"]
        # at d = 2 both singles are solved, and each is its own lower bound
        assert semi["pruned"] == [] and sorted(semi["levels"]) == ["[0]", "[1]"]
        for key, bound in semi["lower_bounds"].items():
            assert bound == pytest.approx(semi["levels"][key], rel=1e-14)

    def test_an_unconverged_single_is_an_unconverged_solve(self, monkeypatch):
        # no support's result is the single (2,), but the search rests on it
        p = ParameterSet.make([1.0, 1.1, 1.2], [1.0, 1.0, 1.0], 0.3)
        real = solver.minimize_restricted

        def unconverged(p, support, grid):
            res = real(p, support, grid)
            return replace(res, converged=False) if support == (2,) else res

        monkeypatch.setattr(solver, "minimize_restricted", unconverged)
        v = classify(p, PhaseOptions(grid_n=600))
        assert not v.diagnostics["solver_converged"] and v.decided_by == "unconverged"

    def test_diagnostics_list_bounds_of_every_support_and_levels_of_the_solved(self):
        p = ParameterSet.make([1.0, 1.1, 1.2], [1.0, 1.0, 1.0], 0.3)
        semi = classify(p, PhaseOptions(grid_n=600)).diagnostics["semitrivial"]
        assert sorted(semi["lower_bounds"]) == ["[0, 1]", "[0, 2]", "[1, 2]"]
        # below the small-coupling bound the support without component 0
        # cannot reach the single level of component 0
        assert semi["pruned"] == [[1, 2]]
        assert sorted(semi["levels"]) == ["[0, 1]", "[0, 2]"]


#: The row of `VERDICT_RULES` that decides each (converged, margin above the
#: band, every component alive, any unstable slot).  Below and within the band
#: are one case: an unstable slot is inconclusive on either side.
VERDICT_TRUTH_TABLE = {
    (False, False, False, False): "unconverged",
    (False, False, False, True): "unconverged",
    (False, False, True, False): "unconverged",
    (False, False, True, True): "unconverged",
    (False, True, False, False): "unconverged",
    (False, True, False, True): "unconverged",
    (False, True, True, False): "unconverged",
    (False, True, True, True): "unconverged",
    (True, False, False, False): "stable_semitrivial",
    (True, False, False, True): "unstable_slot",
    (True, False, True, False): "stable_semitrivial",
    (True, False, True, True): "unstable_slot",
    (True, True, False, False): "full_support_incomplete",
    (True, True, False, True): "full_support_incomplete",
    (True, True, True, False): "margin_above_band",
    (True, True, True, True): "margin_above_band",
}

#: An input each row of `VERDICT_RULES` decides: (parameters, options, solver
#: constants patched for the run).
ROW_INPUTS = {
    "unconverged": (ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0), FAST,
                    {"MAX_ITERATIONS": 1, "RANDOM_STARTS": 0}),
    "margin_above_band": (ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0), FAST, {}),
    # the full solve ends on the support (0, 1, 3), below the level the
    # restricted multistart found on that support
    "full_support_incomplete": (ParameterSet.from_json_dict({
        "d": 4, "N": 3, "lambda": [16.2, 0.787, 1.83, 1.8],
        "mu": [0.441, 1.06, 0.0831, 7.94],
        "b": [[0, 20.4, 13.4, 14.9], [20.4, 0, 3.05, 20.1],
              [13.4, 3.05, 0, 12.8], [14.9, 20.1, 12.8, 0]]}), PhaseOptions(grid_n=150), {}),
    "stable_semitrivial": (ParameterSet.make([1.0, 1.0], [1.0, 1.0], 0.5), FAST, {}),
    # just above the switch-on coupling b = mu: the margin is inside the band
    # and slot 1 of the soliton is unstable
    "unstable_slot": (ParameterSet.make([1.0, 1.0], [1.0, 1.0], 1.0001, N=1),
                      PhaseOptions(grid_n=2000), {}),
}


class TestVerdictRules:
    def test_rows_and_verdicts(self):
        assert [(name, verdict) for name, verdict, _ in VERDICT_RULES] == [
            ("unconverged", INCONCLUSIVE),
            ("margin_above_band", FULLY_NONTRIVIAL),
            ("full_support_incomplete", INCONCLUSIVE),
            ("stable_semitrivial", SEMITRIVIAL),
            ("unstable_slot", INCONCLUSIVE),
        ]

    @pytest.mark.parametrize("case", list(itertools.product((False, True), repeat=4)),
                             ids=lambda case: "".join("FT"[x] for x in case))
    def test_truth_table(self, case):
        converged, above_band, all_alive, unstable = case
        facts = VerdictFacts(converged=converged, above_band=above_band, all_alive=all_alive,
                             unstable_slots=(1,) if unstable else ())
        holding = [name for name, _, test in VERDICT_RULES if test(facts)]
        assert holding[0] == VERDICT_TRUTH_TABLE[case]
        # past the first row the rules partition the cases
        assert len([name for name in holding if name != "unconverged"]) == 1

    @pytest.mark.parametrize("rule", [name for name, _, _ in VERDICT_RULES])
    def test_a_real_classify_reaches_every_row(self, monkeypatch, rule):
        p, opts, patched = ROW_INPUTS[rule]
        for name, value in patched.items():
            monkeypatch.setattr(solver, name, value)
        v = classify(p, opts)
        assert v.decided_by == rule
        assert v.verdict == dict((name, verdict) for name, verdict, _ in VERDICT_RULES)[rule]

    def test_every_input_names_a_row(self):
        assert set(ROW_INPUTS) == {name for name, _, _ in VERDICT_RULES}

    def test_full_support_incomplete_input(self):
        # the grid is too coarse for the support search's bound: every
        # support is solved, and the levels are those of solving each one
        p, opts, _ = ROW_INPUTS["full_support_incomplete"]
        v = classify(p, opts)
        assert v.diagnostics["semitrivial"]["pruned"] == []
        assert len(v.diagnostics["semitrivial"]["levels"]) == p.d
        assert v.numeric_full_level == pytest.approx(1.361730797318959, rel=1e-12)
        assert v.numeric_semitrivial_level == pytest.approx(1.6048488283670368, rel=1e-12)
        restricted = v.diagnostics["semitrivial"]["levels"]["[0, 1, 3]"]
        assert v.full_support == (0, 1, 3)
        assert v.margin > v.diagnostics["margin_tol_abs"]
        assert v.numeric_full_level < restricted - v.diagnostics["margin_tol_abs"]

    def test_unstable_slot_input(self):
        p, opts, _ = ROW_INPUTS["unstable_slot"]
        v = classify(p, opts)
        assert abs(v.margin) <= v.diagnostics["margin_tol_abs"]
        assert v.diagnostics["unstable_slots"] == [1] and v.certificate_held


#: ``to_json_dict()`` of every predicate report, (applicable, satisfied,
#: info) by name, for (lambda, mu, b, N): d = 1..4, equal and unequal
#: lambda, constant and non-constant b, and the ties b = bound (d=2),
#: max = alpha * min (cluster at d=3) and spread = alpha_gap/(d - 2).
PREDICATE_TABLE = [
    (([1.0], [1.0], 0.0, 1), {
        "lambda_tail": (False, None, {"reason": "requires d >= 3"}),
        "lambda_cluster": (False, None, {"reason": "requires d >= 3"}),
        "coupling_spread": (False, None, {"reason": "requires d >= 3"}),
        "small_coupling": (False, None, {"reason": "requires d >= 2"}),
    }),
    (([1.0, 2.0], [1.0, 1.0], 1.0, 2), {
        "lambda_tail": (False, None, {"reason": "requires d >= 3"}),
        "lambda_cluster": (False, None, {"reason": "requires d >= 3"}),
        "coupling_spread": (False, None, {"reason": "requires d >= 3"}),
        "small_coupling": (True, False, {"bound": 1.0, "b": 1.0}),
    }),
    (([1.0, 1.5, 2.0], [1.0, 1.0, 1.0], 3.0, 3), {
        "lambda_tail": (True, True, {"alpha": 1.7777777777777777, "ratio": 1.3333333333333333}),
        "lambda_cluster": (True, False, {"alpha": 2.0, "ratio": 2.0}),
        "coupling_spread": (False, None, {"reason": "requires equal lambdas"}),
        "small_coupling": (True, False, {"bound": 0.7071067811865476, "b": 3.0}),
    }),
    (([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [[0, 2, 3], [2, 0, 2], [3, 2, 0]], 1), {
        "lambda_tail": (False, None, {"alpha": 1.3103706971044482, "ratio": 1.0,
            "reason": "requires constant coupling"}),
        "lambda_cluster": (False, None, {"alpha": 2.0, "ratio": 1.0,
            "reason": "requires constant coupling"}),
        "coupling_spread": (True, False, {"alpha_gap": 1.0, "spread": 1.0}),
        "small_coupling": (False, None, {"bound": 0.7071067811865476,
            "reason": "requires constant coupling"}),
    }),
    (([1.0, 1.0, 2.2], [1.0, 1.0, 1.0], 3.0, 3), {
        "lambda_tail": (True, True, {"alpha": 2.2499999999999996, "ratio": 2.2}),
        "lambda_cluster": (True, False, {"alpha": 2.0, "ratio": 2.2}),
        "coupling_spread": (False, None, {"reason": "requires equal lambdas"}),
        "small_coupling": (True, False, {"bound": 0.7071067811865476, "b": 3.0}),
    }),
    (([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 1.0, 0.5], 5.0, 2), {
        "lambda_tail": (True, True, {"alpha": 1.1096632706157292, "ratio": 1.0}),
        "lambda_cluster": (True, True, {"alpha": 1.5, "ratio": 1.0}),
        "coupling_spread": (True, True, {"alpha_gap": 3.0, "spread": 0.0}),
        "small_coupling": (True, False, {"bound": 0.5, "b": 5.0}),
    }),
    (([1.0, 1.2, 1.4, 1.6], [1.0, 1.0, 1.0, 1.0], 0.1, 1), {
        "lambda_tail": (True, False, {"alpha": 1.063682431309745, "ratio": 1.3333333333333335}),
        "lambda_cluster": (True, False, {"alpha": 1.5, "ratio": 1.6}),
        "coupling_spread": (False, None, {"reason": "requires equal lambdas"}),
        "small_coupling": (True, True, {"bound": 0.5, "b": 0.10000000000000002}),
    }),
    (([1.6, 1.0, 1.4, 1.2], [0.5, 1.0, 1.5, 2.0],
      [[0, 2, 2.5, 3], [2, 0, 3.5, 4], [2.5, 3.5, 0, 4.5], [3, 4, 4.5, 0]], 3), {
        "lambda_tail": (False, None, {"alpha": 1.2034719111488794, "ratio": 1.3333333333333335,
            "reason": "requires constant coupling"}),
        "lambda_cluster": (False, None, {"alpha": 1.5, "ratio": 1.6,
            "reason": "requires constant coupling"}),
        "coupling_spread": (False, None, {"reason": "requires equal lambdas"}),
        "small_coupling": (False, None, {"bound": 0.5, "reason": "requires constant coupling"}),
    }),
]


class TestPredicates:
    @pytest.mark.parametrize("case, expected", PREDICATE_TABLE,
                             ids=[f"{k}-d{len(c[0])}" for k, (c, _) in enumerate(PREDICATE_TABLE)])
    def test_reports_match_table(self, case, expected):
        lam, mu, b, N = case
        preds = evaluate_predicates(ParameterSet.make(lam, mu, b, N=N))
        assert list(preds) == list(expected)
        assert {name: rep.to_json_dict() for name, rep in preds.items()} == {
            name: {"name": name, "applicable": a, "satisfied": s, "info": info}
            for name, (a, s, info) in expected.items()
        }

    def test_nonconstant_coupling_disables_lambda_predicates(self):
        b = [[0, 2.0, 2.0], [2.0, 0, 3.0], [2.0, 3.0, 0]]
        p = ParameterSet.make([1.0] * 3, [1.0] * 3, b)
        preds = evaluate_predicates(p)
        assert not preds["lambda_tail"].applicable
        assert not preds["small_coupling"].applicable
        assert preds["coupling_spread"].applicable

    def test_pair_has_no_tail_condition(self):
        preds = evaluate_predicates(ParameterSet.make([1.0, 2.0], [1.0, 1.0], 2.0))
        assert not preds["lambda_tail"].applicable
        assert preds["small_coupling"].applicable


class TestSetParameter:
    def test_paths(self):
        p = ParameterSet.make([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], 2.0)
        assert set_parameter(p, "b", 5.0).constant_coupling() == 5.0
        assert set_parameter(p, "lambda[2]", 9.0).lam[2] == 9.0
        assert set_parameter(p, "mu[0]", 0.5).mu[0] == 0.5
        q = set_parameter(p, "b[0][2]", 7.0)
        assert q.b[0, 2] == q.b[2, 0] == 7.0
        assert q.b[0, 1] == 2.0

    def test_bad_paths(self):
        p = ParameterSet.make([1.0, 2.0], [1.0, 1.0], 2.0)
        for path in ("c", "lambda[5]", "b[0][0]", "lambda", "mu[-1]"):
            with pytest.raises(ValueError):
                set_parameter(p, path, 1.0)
        for name in ("lambda", "mu"):
            with pytest.raises(ValueError, match=f"^{name} index 2 out of range for d=2$"):
                set_parameter(p, f"{name}[2]", 1.0)


class TestSweep:
    def test_verdict_flips_once_across_the_symmetric_threshold(self):
        base = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 1.0)
        values = [round(0.2 * k, 1) for k in range(1, 16)]
        points = sweep(base, [("b", values)], FAST)
        seq = [pt.verdict.verdict for pt in points]
        assert seq[0] == SEMITRIVIAL
        assert seq[-1] == FULLY_NONTRIVIAL
        decided = [s for s in seq if s != INCONCLUSIVE]
        flips = sum(1 for a, b in zip(decided, decided[1:]) if a != b)
        assert flips == 1
        for b, s in zip(values, seq):
            if b < 1.0:
                assert s == SEMITRIVIAL
            if b >= 1.2:
                assert s == FULLY_NONTRIVIAL

    def test_empty_axes_classifies_base(self):
        base = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0)
        points = sweep(base, [], FAST)
        assert len(points) == 1
        assert points[0].verdict.verdict == FULLY_NONTRIVIAL

    def test_two_axes_row_major(self):
        base = ParameterSet.make([1.0, 1.0, 1.5], [1.0] * 3, 2.0)
        opts = PhaseOptions(grid_n=400)
        points = sweep(base, [("b", [2.0, 3.0]), ("lambda[2]", [1.5, 2.0])], opts)
        assert len(points) == 4
        assert [pt.values["b"] for pt in points] == [2.0, 2.0, 3.0, 3.0]
        assert [pt.values["lambda[2]"] for pt in points] == [1.5, 2.0, 1.5, 2.0]

    def test_deterministic_csv(self, tmp_path):
        base = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 1.0)
        axes = [("b", [0.5, 3.0])]
        blobs = []
        for _ in range(2):
            points = sweep(base, axes, FAST)
            write_sweep_csv(tmp_path / "sweep.csv", points, axes, {"seed": 12345})
            blobs.append((tmp_path / "sweep.csv").read_text())
        assert blobs[0] == blobs[1]
        lines = blobs[0].splitlines()
        assert lines[1].startswith("b,full_level,semitrivial_level,margin,verdict")
        assert lines[1].endswith(",decided_by")
        assert [line.rsplit(",", 1)[1] for line in lines[2:]] == [
            "stable_semitrivial", "margin_above_band"]

    def test_cap_enforced(self):
        # 50 x 41 = 2050 points; the cap is checked before any solve
        base = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 1.0)
        axes = [("b", np.linspace(1.0, 3.0, 50)), ("mu[0]", np.linspace(1.0, 2.0, 41))]
        with pytest.raises(ValueError, match=f"2050 points, exceeding cap {SWEEP_CAP}"):
            sweep(base, axes, FAST)

    def test_bad_axis_path(self):
        base = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError, match="bad parameter path"):
            sweep(base, [("nope", [1.0])], FAST)

    def test_repeated_axis_path(self):
        # each path names one CSV column and one value per point
        base = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError, match=r"repeated axis path\(s\): \['b'\]"):
            sweep(base, [("b", [0.5]), ("mu[0]", [1.0]), ("b", [3.0])], FAST)

    def test_worker_pool_matches_sequential(self):
        base = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 1.0)
        axes = [("b", [0.5, 3.0])]
        opts = PhaseOptions(grid_n=400)
        popts = PhaseOptions(grid_n=400, workers=2)
        seq = sweep(base, axes, opts)
        par = sweep(base, axes, popts)
        assert [pt.verdict.verdict for pt in seq] == [pt.verdict.verdict for pt in par]
        assert [pt.verdict.numeric_full_level for pt in seq] == [
            pt.verdict.numeric_full_level for pt in par
        ]


@pytest.fixture
def restricted_calls(monkeypatch):
    """Count `minimize_restricted` calls, both the ones `sweep` shares and the
    ones `semitrivial_level` makes for a single point."""
    calls = []
    real = solver.minimize_restricted

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(phase, "minimize_restricted", counted)
    monkeypatch.setattr(solver, "minimize_restricted", counted)
    return calls


PAIR_B_SWEEP = (ParameterSet.make([1.0, 1.5], [1.0, 1.0], 1.0, N=2),
                [("b", [0.5, 1.0, 1.5, 2.0, 3.0])])
TRIPLE_TWO_AXES = (ParameterSet.make([1.0, 1.0, 1.5], [1.0] * 3, 2.0),
                   [("b[0][1]", [0.5, 2.0]), ("lambda[2]", [0.8, 1.0, 1.5])])


class TestSweepSharesRestrictedSolves:
    def test_pair_b_sweep_solves_each_single_equation_once(self, restricted_calls):
        base, axes = PAIR_B_SWEEP
        sweep(base, axes, PhaseOptions(grid_n=300))
        assert sorted(restricted_calls) == [(0,), (1,)]

    def test_changed_grid_is_a_different_problem(self, restricted_calls):
        # R = 20/sqrt(lambda_min) follows lambda[2] < 1, so even the singles
        # (0,) and (1,), which do not see lambda[2], are new problems at each
        # point: 3 singles per point, and the supports (0, 2) and (1, 2)
        # holding the lowest single; (0, 1) is pruned (every single is
        # within 9.8e-4 of its continuum level, so the search prunes)
        base = ParameterSet.make([1.0, 1.0, 1.5], [1.0] * 3, 2.0)
        axes = [("lambda[2]", [0.6, 0.7, 0.8])]
        sweep(base, axes, PhaseOptions(grid_n=200))
        assert len(restricted_calls) == 15
        assert (0, 1) not in restricted_calls

    def test_triple_b_sweep_solves_each_single_once(self, restricted_calls):
        base = ParameterSet.make([1.0, 1.1, 1.2], [1.0, 0.9, 1.1], 1.0, N=2)
        sweep(base, [("b", [0.3, 2.0, 3.0])], PhaseOptions(grid_n=600))
        assert sorted(s for s in restricted_calls if len(s) == 1) == [(0,), (1,), (2,)]

    @pytest.mark.parametrize("case", [PAIR_B_SWEEP, TRIPLE_TWO_AXES], ids=["pair-b", "triple-2axes"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_outputs_match_classifying_each_point_alone(self, case, workers, tmp_path):
        base, axes = case
        opts = PhaseOptions(grid_n=400)
        points = sweep(base, axes, PhaseOptions(grid_n=400, workers=workers))
        alone = []
        for pt in points:
            p = base
            for path, value in pt.values.items():
                p = set_parameter(p, path, value)
            alone.append(SweepPoint(values=pt.values, verdict=classify(p, opts)))
        blobs = []
        for pts in (points, alone):
            write_sweep_csv(tmp_path / "sweep.csv", pts, axes, {"seed": 12345})
            blobs.append((tmp_path / "sweep.csv").read_text())
        assert blobs[0] == blobs[1]
        for a, b in zip(points, alone):
            assert json.dumps(a.verdict.to_json_dict()) == json.dumps(b.verdict.to_json_dict())

    def test_result_from_another_grid_is_rejected(self):
        p = ParameterSet.make([1.0, 1.5], [1.0, 1.0], 1.0, N=2)
        other = build_grid(p, PhaseOptions(grid_n=400))
        res = solver.minimize_restricted(p, (0,), other)
        with pytest.raises(ValueError, match="another grid"):
            classify(p, PhaseOptions(grid_n=300), {(0,): res})


def test_small_coupling_sampling_never_fully_nontrivial():
    rng = np.random.default_rng(99)
    opts = PhaseOptions(grid_n=500)
    for _ in range(5):
        d = int(rng.integers(2, 4))
        mu = rng.uniform(0.5, 2.0, size=d)
        p = ParameterSet.make(rng.uniform(0.5, 2.0, size=d), mu, 0.9 * small_b_bound(mu))
        assert classify(p, opts).verdict != FULLY_NONTRIVIAL


class TestEqualLambdaExactLevels:
    """With lambda_i = 1 and B = b with mu on its diagonal, every level on the
    grid is c1/F(B).  Here c1 is the single-equation level at lambda = mu = 1
    on the same grid and F(B) = simplex_qp_max(B): u_i = sqrt(z_i) U attains
    it, and two weighted Cauchy-Schwarz steps bound every field on the
    discrete Nehari set below by it, so it holds to roundoff, not only as
    h -> 0.  The semitrivial level is c1/F_T with F_T = max_T F(B_TT) over
    the supports T of size d - 1.  Acceptance criterion 11 checks both levels
    and the verdict on 40 seeded draws."""

    OPTS = PhaseOptions(grid_n=400)

    def exact(self, p):
        single = ParameterSet.make([1.0], [1.0], 0.0, N=p.N)
        c1 = solver.ground_state(single, build_grid(p, self.OPTS)).level
        B = p.b + np.diag(p.mu)
        F_T = max(simplex_qp_max(B[np.ix_(T, T)])[0] for T in solver.semitrivial_subsets(p.d))
        return c1, simplex_qp_max(B)[0], F_T

    def test_degenerate_slot_of_the_three_component_reproducer(self):
        # b01 = 3, b02 = b12 = 2: the pair {0, 1} attains F(B) = 2 at
        # z_T = (1/2, 1/2), and (B z_T)_2 = 2 = F_T, so slot 2 is exactly
        # degenerate and neither decided verdict is exact at the margin
        p = ParameterSet.make([1.0] * 3, [1.0] * 3, [[0, 3, 2], [3, 0, 2], [2, 2, 0]], N=2)
        B = p.b + np.diag(p.mu)
        F_T, z_T = simplex_qp_max(B[:2, :2])
        assert F_T == pytest.approx(2.0, rel=1e-15)
        assert z_T == pytest.approx([0.5, 0.5], rel=1e-15)
        assert B[2, :2] @ z_T == pytest.approx(F_T, rel=1e-15)
        c1, F, F_T = self.exact(p)
        assert F == pytest.approx(2.0, rel=1e-15) and F_T == pytest.approx(2.0, rel=1e-15)
        v = classify(p, self.OPTS)
        assert v.numeric_full_level == pytest.approx(c1 / 2.0, rel=1e-10)
        assert v.numeric_semitrivial_level == pytest.approx(c1 / 2.0, rel=1e-10)
        assert v.verdict != FULLY_NONTRIVIAL
