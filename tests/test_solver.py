import numpy as np
import pytest

from cnls.functional import action
from cnls.grid import Field, MultiField, RadialGrid, l4_quartic
from cnls.params import ParameterSet
from cnls.solver import (
    THETA_TRIV,
    GroundStateResult,
    SolverOptions,
    ground_state,
    minimize_restricted,
    perturbation_certificate,
    semitrivial_level,
    soliton_profile,
)

SINGLE_LEVEL = 4.0 / 3.0


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.make(1, 20.0, 1200)


def single_level(lam, mu):
    return SINGLE_LEVEL * lam**1.5 / mu


class TestSolverOptions:
    def test_defaults_valid(self):
        SolverOptions()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"max_iterations": 2.5},
            {"seed": "12345"},
            {"grad_tol": -1.0},
            {"random_starts": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)

    def test_json_load_rejects_unknown_keys(self):
        assert SolverOptions.from_json_dict({"seed": 3}).seed == 3
        with pytest.raises(ValueError, match="unknown"):
            SolverOptions.from_json_dict({"sede": 3})


class TestSolitonProfile:
    def test_large_lambda_is_finite_and_matches_sech(self):
        g = RadialGrid.make(1, 20.0, 2000)  # sqrt(lam) * r reaches 1000
        vals = soliton_profile(g, 2500.0, 1.0)
        with np.errstate(over="ignore"):
            ref = np.sqrt(2.0 * 2500.0) / np.cosh(50.0 * g.nodes)
        ref[-1] = 0.0
        assert np.all(np.isfinite(vals))
        np.testing.assert_allclose(vals, ref, rtol=1e-13, atol=1e-300)


class TestSingleEquation:
    def test_level_matches_soliton(self, grid):
        p = ParameterSet.make([1.0], [1.0], 0.0)
        res = ground_state(p, grid)
        assert res.converged
        assert res.level == pytest.approx(SINGLE_LEVEL, rel=1e-3)
        assert res.support == (0,)

    def test_result_invariants(self, grid):
        p = ParameterSet.make([1.0], [1.0], 0.0)
        res = ground_state(p, grid)
        bk = action(res.fields, p)
        assert abs(bk.nehari_residual) <= 1e-10 * bk.quadratic
        assert res.level == pytest.approx(bk.action, abs=1e-10)
        masses = [l4_quartic(res.fields.component(i)) for i in range(p.d)]
        top = max(masses)
        for i, m in enumerate(masses):
            if i in res.support:
                assert m > THETA_TRIV * top
            else:
                assert np.all(res.fields.values[i] == 0.0)

    def test_determinism(self, grid):
        p = ParameterSet.make([1.0], [1.0], 0.0)
        r1 = ground_state(p, grid)
        r2 = ground_state(p, grid)
        assert r1.level == r2.level
        assert np.array_equal(r1.fields.values, r2.fields.values)


class TestCoupledPair:
    def test_symmetric_level_at_strong_coupling(self):
        g = RadialGrid.make(1, 20.0, 1500)
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0)
        res = ground_state(p, g)
        assert res.support == (0, 1)
        assert res.level == pytest.approx(2.0 / 3.0, rel=1e-3)

    def test_weak_coupling_collapses_to_semitrivial(self, grid):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 0.5)
        res = ground_state(p, grid)
        assert len(res.support) == 1
        assert res.level == pytest.approx(SINGLE_LEVEL, rel=1e-3)

    def test_component_swap_symmetry(self, grid):
        p = ParameterSet.make([1.0, 1.3], [0.9, 1.1], 1.4)
        q = ParameterSet.make([1.3, 1.0], [1.1, 0.9], 1.4)
        rp = ground_state(p, grid)
        rq = ground_state(q, grid)
        assert rp.level == pytest.approx(rq.level, abs=1e-8 * max(1.0, abs(rp.level)))
        assert tuple(sorted(1 - i for i in rq.support)) == rp.support


class TestMinimizeRestricted:
    def test_rejects_empty_support(self, grid):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0)
        with pytest.raises(ValueError, match="nonempty"):
            minimize_restricted(p, (), grid)

    def test_init_outside_support_rejected(self, grid):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0)
        vals = np.tile(soliton_profile(grid, 1.0, 1.0), (2, 1))
        with pytest.raises(ValueError, match="outside"):
            minimize_restricted(p, (0,), grid, init=MultiField(grid, vals))

    def test_init_with_wrong_component_count_rejected(self, grid):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0)
        vals = np.tile(soliton_profile(grid, 1.0, 1.0), (3, 1))
        with pytest.raises(ValueError, match="components"):
            minimize_restricted(p, (0, 1), grid, init=MultiField(grid, vals))

    def test_components_outside_support_stay_zero(self, grid):
        p = ParameterSet.make([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 2.0)
        res = minimize_restricted(p, (0, 2), grid)
        assert np.all(res.fields.values[1] == 0.0)
        assert set(res.support) <= {0, 2}

    def test_support_solves_the_subsystem_with_indices_mapped(self, grid):
        # the random starts are keyed by the caller's support indices, so
        # only the soliton start is shared with the native pair
        opts = SolverOptions(random_starts=0)
        p3 = ParameterSet.make([1.0, 1.3, 0.9], [1.0, 1.1, 0.8], 3.0)
        p2 = ParameterSet.make([1.0, 0.9], [1.0, 0.8], 3.0)
        res = minimize_restricted(p3, (0, 2), grid, opts)
        native = minimize_restricted(p2, (0, 1), grid, opts)
        assert res.support == (0, 2)
        assert res.level == native.level
        assert (res.iterations, res.grad_norm) == (native.iterations, native.grad_norm)
        assert np.all(res.fields.values[1] == 0.0)
        assert np.array_equal(res.fields.values[[0, 2]], native.fields.values)

    def test_monotone_inclusion_with_seeding(self, grid):
        rng = np.random.default_rng(21)
        for _ in range(3):
            lam = rng.uniform(0.8, 1.4, size=3)
            mu = rng.uniform(0.8, 1.4, size=3)
            p = ParameterSet.make(lam, mu, rng.uniform(0.5, 2.5))
            small = minimize_restricted(p, (0, 1), grid)
            big = minimize_restricted(p, (0, 1, 2), grid, init=small.fields)
            assert big.level <= small.level + 1e-8 * max(1.0, abs(small.level))


class TestSemitrivialLevel:
    def test_pair_reduces_to_single_equation(self, grid):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0)
        semi = semitrivial_level(p, grid)
        assert semi.level == pytest.approx(SINGLE_LEVEL, rel=1e-3)
        assert semi.best_subset in ((0,), (1,))

    def test_requires_two_components(self, grid):
        p = ParameterSet.make([1.0], [1.0], 0.0)
        with pytest.raises(ValueError, match="d >= 2"):
            semitrivial_level(p, grid)

    def test_weakly_coupled_triple_matches_native_pair(self, grid):
        b = 0.1
        p3 = ParameterSet.make([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], b)
        p2 = ParameterSet.make([1.0, 1.0], [1.0, 1.0], b)
        semi = semitrivial_level(p3, grid)
        native = ground_state(p2, grid)
        assert semi.level == pytest.approx(native.level, rel=1e-6)

    def test_permutation_equivariance(self, grid):
        p = ParameterSet.make([1.0, 1.0, 2.5], [1.0, 1.0, 1.0], 2.0)
        semi = semitrivial_level(p, grid)
        perm = [2, 0, 1]  # new index i holds old index perm[i]
        q = ParameterSet.make(p.lam[perm], p.mu[perm], 2.0)
        semi_q = semitrivial_level(q, grid)
        assert semi_q.level == pytest.approx(semi.level, abs=1e-8 * max(1.0, semi.level))
        mapped = tuple(sorted(perm.index(i) for i in semi.best_subset))
        assert semi_q.best_subset == mapped


class TestGroundState:
    def test_full_support_beats_semitrivial_at_strong_coupling(self, grid):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0)
        semi = semitrivial_level(p, grid)
        full = ground_state(p, grid, semitrivial=semi)
        assert full.level < semi.level
        assert full.support == (0, 1)

    def test_never_exceeds_semitrivial(self, grid):
        rng = np.random.default_rng(31)
        for _ in range(3):
            lam = rng.uniform(0.7, 1.5, size=2)
            mu = rng.uniform(0.7, 1.5, size=2)
            p = ParameterSet.make(lam, mu, rng.uniform(0.3, 2.0))
            semi = semitrivial_level(p, grid)
            full = ground_state(p, grid, semitrivial=semi)
            assert full.level <= semi.level + 1e-8 * max(1.0, abs(semi.level))

    def test_large_lambda_components_die(self):
        # with the top lambda far above the rest (ratio 60), the ground
        # state keeps only the two low-lambda components
        g = RadialGrid.make(1, 20.0, 2000)
        p = ParameterSet.make([1.0, 1.0, 60.0], [1.0, 1.0, 1.0], 2.0)
        res = ground_state(p, g)
        assert res.support == (0, 1)
        assert res.level == pytest.approx(8.0 / 9.0, rel=1e-3)

    def test_non_convergence_is_flagged(self, grid):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0)
        res = ground_state(p, grid, SolverOptions(max_iterations=1, random_starts=0))
        assert not res.converged

    def test_degenerate_minimizers_reported_as_alternates(self, grid):
        # weakly coupled symmetric pair: (w, 0) and (0, w) share the level;
        # the lexicographically smaller support wins, the other is reported
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 0.5)
        res = ground_state(p, grid)
        assert res.support == (0,)
        assert len(res.alternates) == 1
        sup, level = res.alternates[0]
        assert sup == (1,)
        assert level == pytest.approx(res.level, abs=1e-8 * res.level)

    def test_refined_level_band(self):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0)
        coarse = ground_state(p, RadialGrid.make(1, 20.0, 600))
        fine = ground_state(p, RadialGrid.make(1, 20.0, 1200))
        assert coarse.level >= fine.level - 5e-3 * abs(fine.level)

    @pytest.mark.parametrize("N,R", [(2, 15.0), (3, 15.0)])
    def test_higher_dimensions_converge_stably(self, N, R):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0, N=N)
        coarse = ground_state(p, RadialGrid.make(N, R, 700))
        fine = ground_state(p, RadialGrid.make(N, R, 1400))
        assert coarse.converged and fine.converged
        assert coarse.support == fine.support == (0, 1)
        assert coarse.level == pytest.approx(fine.level, rel=2e-3)
        # proportional components and a level strictly below semitrivial
        semi = semitrivial_level(p, RadialGrid.make(N, R, 700))
        assert coarse.level < semi.level


@pytest.fixture(scope="module")
def semitrivial_pair():
    g = RadialGrid.make(1, 20.0, 2000)
    p1 = ParameterSet.make([1.0], [1.0], 0.0)
    single = ground_state(p1, g)
    vals = np.zeros((2, g.n + 1))
    vals[0] = single.fields.values[0]
    return g, GroundStateResult(
        fields=MultiField(g, vals), level=single.level, support=(0,),
        iterations=single.iterations, grad_norm=single.grad_norm,
        starts_used=single.starts_used, converged=True,
    )


class TestPerturbationCertificate:

    def test_holds_at_strong_coupling(self, semitrivial_pair):
        g, semi = semitrivial_pair
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0)
        rep = perturbation_certificate(p, semi, Field(g, semi.fields.values[0]))
        assert rep.holds
        assert rep.lhs == pytest.approx(16.0 / 3.0, rel=1e-3)
        assert rep.rhs == pytest.approx(2.0 * 16.0 / 3.0, rel=1e-3)

    def test_fails_at_weak_coupling(self, semitrivial_pair):
        g, semi = semitrivial_pair
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 0.5)
        rep = perturbation_certificate(p, semi, Field(g, semi.fields.values[0]))
        assert not rep.holds
        assert rep.rhs == pytest.approx(0.5 * 16.0 / 3.0, rel=1e-3)

    def test_scaling_the_candidate_is_free(self, semitrivial_pair):
        g, semi = semitrivial_pair
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 1.7)
        w = semi.fields.values[0]
        r1 = perturbation_certificate(p, semi, Field(g, w))
        r2 = perturbation_certificate(p, semi, Field(g, 5.0 * w))
        assert r1.holds == r2.holds
        assert r2.lhs == pytest.approx(25.0 * r1.lhs, rel=1e-12)

    def test_rejects_wrong_support_and_zero_candidate(self, semitrivial_pair):
        g, semi = semitrivial_pair
        p3 = ParameterSet.make([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 2.0)
        vals = np.zeros((3, g.n + 1))
        vals[0] = semi.fields.values[0]
        bad = GroundStateResult(
            fields=MultiField(g, vals), level=semi.level, support=(0,),
            iterations=1, grad_norm=0.0, starts_used=1, converged=True,
        )
        with pytest.raises(ValueError, match="exactly one"):
            perturbation_certificate(p3, bad, Field(g, vals[0]))
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0)
        with pytest.raises(ValueError, match="nonzero"):
            perturbation_certificate(p, semi, Field.zero(g))

    def test_smallest_lambda_candidate_wins_when_coupling_dominates(self):
        # with the missing lambda no larger than a surviving one and the
        # coupling above every mu, the surviving component itself certifies
        g = RadialGrid.make(1, 20.0, 1200)
        p = ParameterSet.make([1.0, 1.2, 1.0], [1.0, 0.9, 1.0], 2.0)
        semi = minimize_restricted(p, (0, 1), g)
        assert semi.support == (0, 1)
        rep = perturbation_certificate(p, semi, Field(g, semi.fields.values[0]))
        assert rep.holds
