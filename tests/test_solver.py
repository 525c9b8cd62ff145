import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded, eigh_tridiagonal

import cnls.solver
from cnls.functional import action, action_parts_raw
from cnls.grid import MultiField, RadialGrid, default_radius, l4_raw, operator_tridiag
from cnls.params import ParameterSet
from cnls.solver import (
    BOUND_TOL,
    CURVATURE_MIN,
    LBFGS_MEMORY,
    LEVEL_TIE_TOL,
    RANDOM_STARTS,
    SEED,
    SEMITRIVIAL_EPS,
    THETA_TRIV,
    UNIT_LEVEL,
    _Descent,
    _Pairs,
    _better,
    _dot,
    _multistart,
    _random_start,
    amplitude_step,
    ground_state,
    minimize_restricted,
    perturbation_certificate,
    semitrivial_level,
    semitrivial_subsets,
    soliton_profile,
)

SINGLE_LEVEL = 4.0 / 3.0


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.make(1, 20.0, 1200)


def single_level(lam, mu):
    return SINGLE_LEVEL * lam**1.5 / mu


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
    @pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (1.0, 2.0), (4.0, 1.0)])
    def test_level_matches_soliton(self, grid, lam, mu):
        p = ParameterSet.make([lam], [mu], 0.0)
        res = ground_state(p, grid)
        assert res.converged
        assert res.level == pytest.approx(single_level(lam, mu), rel=1e-3)
        assert res.support == (0,)

    def test_result_invariants(self, grid):
        p = ParameterSet.make([1.0], [1.0], 0.0)
        res = ground_state(p, grid)
        bk = action(res.fields, p)
        assert abs(bk.nehari_residual) <= 1e-10 * bk.quadratic
        assert res.level == pytest.approx(bk.action, abs=1e-10)
        masses = [l4_raw(grid, res.fields.values[i]) for i in range(p.d)]
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
    @pytest.mark.parametrize("b", [1.5, 3.0])
    def test_symmetric_level_at_strong_coupling(self, b):
        g = RadialGrid.make(1, 20.0, 1500)
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], b)
        res = ground_state(p, g)
        assert res.support == (0, 1)
        assert res.level == pytest.approx(8.0 / (3.0 * (1.0 + b)), rel=1e-3)

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


class TestDescent:
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_stacked_solve_matches_per_component_cholesky(self, N):
        # rows scaled 1e8, 1e-8, 1: a nonzero coupling at the first block join
        # would leak the large block into the small one
        g = RadialGrid.make(N, 15.0, 500)
        lam = [1.0, 7.0, 0.3]
        desc = _Descent(ParameterSet.make(lam, [1.0, 1.0, 1.0], 1.0, N=N), g)
        rng = np.random.default_rng(N)
        grad = rng.standard_normal((3, g.n + 1)) * np.array([[1e8], [1e-8], [1.0]])
        grad[:, -1] = 0.0  # as gradient_raw leaves the Dirichlet node
        rhs, gnorm = desc._weigh(grad)
        assert gnorm == pytest.approx(np.sqrt(np.sum((grad * grad) @ g.weights)), rel=1e-13)
        out, decrement = desc._direction(rhs)
        assert out.shape == (3, g.n)
        c, n = g.conductance, g.n
        ref_decrement = 0.0
        for i in range(3):
            ab = np.zeros((2, n))
            ab[0, 1:] = -c[: n - 1]
            ab[1, 0] = c[0]
            ab[1, 1:] = c[: n - 1] + c[1:n]
            ab[1] += lam[i] * g.weights[:n]
            ref = cho_solve_banded((cholesky_banded(ab), False), g.weights[:n] * grad[i, :n])
            assert np.linalg.norm(out[i] - ref) <= 1e-13 * np.linalg.norm(ref)
            ref_decrement += float(np.dot(g.weights[:n] * grad[i, :n], ref))
        assert decrement == pytest.approx(ref_decrement, rel=1e-13)

    @pytest.mark.parametrize("n", [400, 600])
    def test_memory_is_cleared_when_a_component_switches_off(self, n):
        # below the switch-on coupling the amplitude step zeroes component 1
        # of the full soliton start; pairs kept across that step took 19
        # iterations at n=400, and at n=600 the descent ended unconverged
        g = RadialGrid.make(1, 20.0, n)
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 0.99, N=1)
        desc = _Descent(p, g)
        values, iterations, _, converged = desc.run(np.array([soliton_profile(g, 1.0, 1.0)] * 2))
        assert converged and iterations <= 10
        assert desc.finalize(values)[2] == (0,)

    @staticmethod
    def floor_start():
        # this start reaches the roundoff floor of the merit with its gradient
        # just above GRAD_TOL
        g = RadialGrid.make(1, 20.0, 2000)
        p = ParameterSet.make([1.0], [1.0], 0.0)
        return g, p, _random_start(p, g, np.random.default_rng([SEED, 0]))

    def test_a_step_that_does_not_lower_the_level_is_refused(self):
        # accepting trials at an equal level let the floor start wander for
        # all 3000 iterations instead of ending at the floor
        g, p, start = self.floor_start()
        _, iterations, _, converged = _Descent(p, g).run(start)
        assert converged and iterations <= 50

    def test_backtracking_stops_at_the_resolution_of_the_level(self, monkeypatch):
        # halving alpha down to 1e-16 at the floor took 65 action-parts
        # evaluations for 10 iterations; below one ulp of the level a trial
        # is decided by rounding, so at most two trials remain there
        g, p, start = self.floor_start()
        calls = []
        parts = _Descent._parts
        monkeypatch.setattr(_Descent, "_parts",
                            lambda self, values: calls.append(1) or parts(self, values))
        _, iterations, _, converged = _Descent(p, g).run(start)
        assert converged and len(calls) <= iterations + 2

    def test_the_weighted_gradient_survives_the_next_weighing(self):
        # the pair update reads the previous weighted gradient after the
        # next one is computed
        g = RadialGrid.make(1, 20.0, 100)
        desc = _Descent(ParameterSet.make([1.0, 2.0], [1.0, 1.0], 1.0), g)
        rng = np.random.default_rng(3)
        first, second = rng.standard_normal((2, 2, g.n + 1))
        rhs = desc._weigh(first)[0]
        kept = rhs.copy()
        assert desc._weigh(second)[0] is not rhs
        assert np.array_equal(rhs, kept)

    def test_a_later_start_leaves_the_finalized_values_alone(self):
        # run returns one of the descent's run buffers; finalize measures it
        # into a new array, which the next start must not touch
        g = RadialGrid.make(1, 20.0, 300)
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0)
        desc = _Descent(p, g)
        values = desc.finalize(desc.run(_random_start(p, g, np.random.default_rng(1)))[0])[0]
        kept = values.copy()
        desc.run(_random_start(p, g, np.random.default_rng(2)))
        assert np.array_equal(values, kept)

    def test_run_buffers_give_the_results_of_fresh_buffers(self):
        # the second start of a descent reuses the buffers of the first
        g = RadialGrid.make(2, 20.0, 400)
        p = ParameterSet.make([1.0, 1.2, 1.1], [1.0, 0.9, 1.1], 2.0, N=2)
        starts = [_random_start(p, g, np.random.default_rng(k)) for k in (1, 2)]
        shared = _Descent(p, g)
        for start in starts:
            values, iterations, gnorm, converged = shared.run(start)
            fresh = _Descent(p, g).run(start)
            assert np.array_equal(values, fresh[0]) and (iterations, gnorm) == fresh[1:3]

    def test_an_iteration_allocates_no_field_sized_array(self, monkeypatch):
        # the peak above the start of a 10-iteration descent, in (d, n+1)
        # arrays: one numpy iterator buffer.  Fresh run buffers (iterate,
        # previous iterate, trial) would add three arrays, fresh kernel
        # temporaries about seven, and a whole-array multiply of the strided
        # free nodes in `_weigh` or `_Pairs.add` two numpy iterator buffers
        g = RadialGrid.make(2, 20.0, 2000)
        p = ParameterSet.make([1.0, 1.1, 1.2], [1.0, 1.0, 1.0], 3.0, N=2)
        start = _random_start(p, g, np.random.default_rng([SEED, 0]))
        monkeypatch.setattr(cnls.solver, "MAX_ITERATIONS", 10)
        desc = _Descent(p, g)
        desc.run(start)  # factors the preconditioner
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            iterations = desc.run(start)[1]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert iterations == 10
        assert peak <= 2 * p.d * (g.n + 1) * 8

    def test_non_finite_gradient_raises(self, grid, monkeypatch):
        monkeypatch.setattr(cnls.solver, "gradient_raw",
                            lambda grid, values, p, work=None: np.full_like(values, np.nan))
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0)
        with pytest.raises(ValueError):
            minimize_restricted(p, (0, 1), grid)

    @pytest.mark.parametrize("run_converged, final_gnorm, converged", [
        (False, 1e-13, True),   # finalize zeroed the slow component: converged
        (False, 1e-5, False),   # still above GRAD_TOL after finalize
        (True, 1e-5, True),     # a converged start is never downgraded
    ])
    def test_converged_agrees_with_the_reported_gradient(self, grid, monkeypatch, run_converged,
                                                          final_gnorm, converged):
        class Stub(_Descent):
            def run(self, u0):
                return u0, 3000, 1.8e-5, run_converged

            def finalize(self, values):
                return values, 1.0, (0,), final_gnorm

        monkeypatch.setattr(cnls.solver, "_Descent", Stub)
        res = _multistart(ParameterSet.make([1.0], [1.0], 0.0), grid)
        assert res.grad_norm == final_gnorm
        assert res.converged is converged


class TestPairs:
    D, N = 2, 7

    def points(self, rng, curvature):
        """(u, u_old, rhs, rhs_old) with y = curvature * s plus noise."""
        u, u_old = rng.standard_normal((2, self.D, self.N + 1))
        rhs_old = rng.standard_normal((self.D, self.N))
        s = (u - u_old)[:, :self.N]
        rhs = rhs_old + curvature * s + 1e-3 * rng.standard_normal(s.shape)
        return u, u_old, rhs, rhs_old

    def test_a_stored_pair_is_the_change_of_point_and_gradient(self):
        pairs = _Pairs(self.D, self.N)
        u, u_old, rhs, rhs_old = self.points(np.random.default_rng(0), 2.0)
        pairs.add(u, u_old, rhs, rhs_old)
        (slot,) = pairs.stored
        s, y = u[:, :self.N] - u_old[:, :self.N], rhs - rhs_old
        assert np.array_equal(pairs.S[slot], s)
        assert np.array_equal(pairs.Y[slot], y)
        assert pairs.rho[slot] == 1.0 / _dot(s, y)

    def test_a_pair_without_curvature_leaves_the_memory_untouched(self):
        pairs = _Pairs(self.D, self.N)
        rng = np.random.default_rng(1)
        for _ in range(LBFGS_MEMORY):
            pairs.add(*self.points(rng, 2.0))
        stored = list(pairs.stored)
        S, Y, rho = pairs.S.copy(), pairs.Y.copy(), pairs.rho.copy()
        u, u_old, rhs, rhs_old = self.points(rng, -2.0)
        s, y = u[:, :self.N] - u_old[:, :self.N], rhs - rhs_old
        assert not _dot(s, y) > CURVATURE_MIN * np.sqrt(_dot(s, s) * _dot(y, y))
        pairs.add(u, u_old, rhs, rhs_old)
        assert list(pairs.stored) == stored
        assert np.array_equal(pairs.S[stored], S[stored])
        assert np.array_equal(pairs.Y[stored], Y[stored])
        assert np.array_equal(pairs.rho[stored], rho[stored])

    def test_the_oldest_pair_is_dropped_beyond_the_memory(self):
        pairs = _Pairs(self.D, self.N)
        rng = np.random.default_rng(2)
        steps = []
        for _ in range(LBFGS_MEMORY + 2):
            u, u_old, rhs, rhs_old = self.points(rng, 2.0)
            pairs.add(u, u_old, rhs, rhs_old)
            steps.append(u[:, :self.N] - u_old[:, :self.N])
        assert len(pairs.stored) == LBFGS_MEMORY
        for slot, s in zip(pairs.stored, steps[-LBFGS_MEMORY:]):
            assert np.array_equal(pairs.S[slot], s)

    def test_clear_forgets_every_pair(self):
        pairs = _Pairs(self.D, self.N)
        rng = np.random.default_rng(4)
        for _ in range(3):
            pairs.add(*self.points(rng, 2.0))
        pairs.clear()
        assert not pairs.stored
        u, u_old, rhs, rhs_old = self.points(rng, 2.0)
        pairs.add(u, u_old, rhs, rhs_old)
        (slot,) = pairs.stored
        assert np.array_equal(pairs.S[slot], u[:, :self.N] - u_old[:, :self.N])

    def test_no_pair_spans_the_step_that_switches_a_component_off(self, monkeypatch):
        # below the switch-on coupling the amplitude step zeroes component 1
        # of the full soliton start; the step after that clear makes no pair
        spans = []

        class Recording(_Pairs):
            def add(self, u, u_old, rhs, rhs_old):
                spans.append((bool(u[1].any()), bool(u_old[1].any())))
                super().add(u, u_old, rhs, rhs_old)

        monkeypatch.setattr(cnls.solver, "_Pairs", Recording)
        g = RadialGrid.make(1, 20.0, 400)
        desc = _Descent(ParameterSet.make([1.0, 1.0], [1.0, 1.0], 0.99, N=1), g)
        values, _, _, converged = desc.run(np.array([soliton_profile(g, 1.0, 1.0)] * 2))
        assert converged and not values[1].any()
        assert (False, False) in spans and (False, True) not in spans


class TestMultistart:
    @staticmethod
    def scripted(monkeypatch, grid, outcomes):
        """`_multistart` on a stub descent whose k-th start finalizes to
        outcomes[k] = (level, support); starts past the end of the script
        cannot be projected."""
        script = iter(outcomes)

        class Stub(_Descent):
            def run(self, u0):
                self.outcome = next(script, None)
                return None if self.outcome is None else (u0, 7, 0.0, True)

            def finalize(self, values):
                level, support = self.outcome
                return np.zeros_like(values), level, support, 0.0

        monkeypatch.setattr(cnls.solver, "_Descent", Stub)
        return _multistart(ParameterSet.make([1.0], [1.0], 0.0), grid)

    def test_alternates_are_tied_with_the_winner_not_with_an_earlier_best(self, grid,
                                                                           monkeypatch):
        res = self.scripted(monkeypatch, grid, [(2.0, (0, 1, 2)), (2.0, (1,)), (1.0, (2,))])
        assert (res.level, res.support, res.starts_used) == (1.0, (2,), 3)
        assert res.alternates == ()

    def test_a_tied_support_beaten_on_the_tie_break_stays_an_alternate(self, grid,
                                                                        monkeypatch):
        res = self.scripted(monkeypatch, grid, [(2.0, (0, 1, 2)), (2.0, (0,))])
        assert (res.level, res.support, res.starts_used) == (2.0, (0,), 2)
        assert res.alternates == (((0, 1, 2), 2.0),)

    def test_result_does_not_depend_on_the_start_order(self, grid, monkeypatch):
        # the soliton start and the RANDOM_STARTS = 2 random starts
        outcomes = [(2.0, (0, 1, 2)), (1.0, (1,)), (1.0 + 1e-12, (0, 2))]
        for order in itertools.permutations(outcomes):
            res = self.scripted(monkeypatch, grid, order)
            assert (res.level, res.support) == (1.0 + 1e-12, (0, 2))
            assert res.alternates == (((1,), 1.0),)


class TestAmplitudeStep:
    @staticmethod
    def parts(grid, b, scales):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], b)
        U = soliton_profile(grid, 1.0, 1.0)
        vals = np.array([c * U for c in scales])
        q, M = action_parts_raw(grid, vals, p)
        return p, vals, q, M, q.sum() ** 2 / (4.0 * M.sum())

    def test_zeroes_the_weak_component_when_a_vertex_wins(self, grid):
        # at b = 0.5 < mu, M is positive definite and the best amplitudes
        # on the ray (U, 0.1 U) lie on the face of row 0 alone
        p, vals, q, M, level = self.parts(grid, 0.5, (1.0, 0.1))
        assert np.all(np.linalg.eigvalsh(M) > 0.0)
        s, new_level = amplitude_step(q, M, level)
        assert s[1] == 0.0 and s[0] > 0.0
        assert new_level == pytest.approx(q[0] ** 2 / (4.0 * M[0, 0]), rel=1e-14)
        bk = action(MultiField(grid, s[:, None] * vals), p)
        assert abs(bk.nehari_residual) <= 1e-12 * bk.quadratic
        assert bk.action == pytest.approx(new_level, rel=1e-12)

    def test_no_op_with_a_component_switched_off(self, grid):
        _, _, q, M, level = self.parts(grid, 3.0, (1.0, 0.0))
        assert amplitude_step(q, M, level) is None

    def test_reaches_the_symmetric_level_from_unequal_amplitudes(self, grid):
        # on the ray (U, 0.1 U) the best amplitudes are equal, and there the
        # level is 8/(3(1+b)) up to the discretization of U
        b = 1.5
        p, vals, q, M, level = self.parts(grid, b, (1.0, 0.1))
        s, new_level = amplitude_step(q, M, level)
        assert new_level < level
        assert new_level == pytest.approx(8.0 / (3.0 * (1.0 + b)), rel=1e-4)
        scaled = s[:, None] * vals
        np.testing.assert_allclose(scaled[0], scaled[1], rtol=1e-12, atol=1e-14)
        bk = action(MultiField(grid, scaled), p)
        assert abs(bk.nehari_residual) <= 1e-12 * bk.quadratic
        assert bk.action == pytest.approx(new_level, rel=1e-12)

    @staticmethod
    def plain_minimum(q, M):
        """Least level f(t) = (q.t)^2 / (4 t.M.t) over t >= 0, by trying every
        support S with M_SS t_S = q_S and t_S > 0 (the stationary points of f
        in the interior of the face S)."""
        best = np.inf
        for size in range(1, q.size + 1):
            for S in itertools.combinations(range(q.size), size):
                S = list(S)
                try:
                    t = np.linalg.solve(M[np.ix_(S, S)], q[S])
                except np.linalg.LinAlgError:
                    continue
                if np.all(t > 0.0):
                    best = min(best, (q[S] @ t) ** 2 / (4.0 * t @ M[np.ix_(S, S)] @ t))
        return best

    @staticmethod
    def cooperative_draw(rng, kind, d):
        """(q, M) of one kind: a positive definite M, a strongly coupled M
        with one positive eigenvalue, two strongly coupled blocks (two
        positive eigenvalues), a symmetric M and q with exactly tied faces,
        mu_0 = mu_1 = b_01 (singular blocks), or any of these with a zero
        last row."""
        mu = rng.uniform(0.5, 1.5, size=d)
        if kind == "definite":
            B = rng.uniform(0.0, 0.9 * mu.min() / (d - 1), size=(d, d))
        elif kind in ("one-positive", "zero-row"):
            B = mu.max() * rng.uniform(1.05, 2.0) * rng.uniform(0.95, 1.05, size=(d, d))
        elif kind == "two-blocks":
            B = rng.uniform(0.0, 0.2, size=(d, d))
            half = max(1, d // 2)
            for block in (slice(0, half), slice(half, d)):
                B[block, block] = mu.max() * rng.uniform(1.5, 3.0)
        elif kind == "tied":
            mu[:] = mu[0]
            B = np.full((d, d), mu[0] * rng.choice([0.5, 2.0]))
        else:  # singular
            B = rng.uniform(0.5, 2.5, size=(d, d))
            mu[:2] = B[0, 1] = B[1, 0]
        B = np.triu(B, 1)
        B = B + B.T + np.diag(mu)
        if kind == "tied":
            q = np.full(d, rng.uniform(0.5, 2.0))
            M = B * q[0] ** 2
        else:
            q = np.exp(rng.uniform(-1.0, 1.0, size=d))
            a = np.exp(rng.uniform(-1.0, 1.0, size=d))
            M = B * np.outer(a, a)
        if kind == "zero-row":
            q[-1] = 0.0
            M[-1, :] = M[:, -1] = 0.0
        return q, M

    def test_matches_plain_enumeration_on_seeded_parts(self):
        rng = np.random.default_rng(2718)
        kinds = ("definite", "one-positive", "two-blocks", "tied", "singular", "zero-row")
        seen = {}
        for draw in range(300):
            kind, d = kinds[draw % 6], 2 + draw % 5
            if kind == "singular" and d == 2:
                d = 3
            q, M = self.cooperative_draw(rng, kind, d)
            level = q.sum() ** 2 / (4.0 * M.sum())
            expected = self.plain_minimum(q, M)
            out = amplitude_step(q, M, level)
            if out is None:
                assert expected >= level * (1.0 - 2e-12), (draw, kind)
            else:
                s, new_level = out
                assert new_level < level, (draw, kind)
                assert new_level == pytest.approx(expected, rel=1e-12), (draw, kind)
                t = s * s
                assert t @ M @ t == pytest.approx(q @ t, rel=1e-12)  # on the Nehari set
                assert q @ t / 4.0 == pytest.approx(new_level, rel=1e-12)
                assert np.all(s[q == 0.0] == 0.0)
            live = q > 0.0
            positive = int((np.linalg.eigvalsh(M[np.ix_(live, live)]) > 0.0).sum())
            tag = "zero-row" if not live.all() else "pd" if positive == live.sum() else \
                f"{min(positive, 2)}-positive"
            seen[tag] = seen.get(tag, 0) + 1
            seen[kind] = seen.get(kind, 0) + 1
        assert seen["zero-row"] >= 50 and seen["pd"] >= 50
        assert seen["1-positive"] >= 50 and seen["2-positive"] >= 20
        assert seen["tied"] == seen["singular"] == 50

    def test_bumped_semitrivial_start_converges_next_to_the_threshold(self):
        # the component-ratio mode has curvature ~ b - mu: H^1 descent alone
        # runs all 3000 iterations here without converging
        g = RadialGrid.make(1, 20.0, 400)
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 1.0001)
        semi = minimize_restricted(p, (0,), g)
        start = semi.fields.values.copy()
        start[1] += SEMITRIVIAL_EPS * soliton_profile(g, 1.0, 1.0)
        desc = _Descent(p, g)
        values, iterations, _, converged = desc.run(start)
        assert converged and iterations <= 50
        _, level, support, _ = desc.finalize(values)
        assert support == (0, 1) and level < semi.level

    @staticmethod
    def full_runs(monkeypatch, p, grid):
        """`ground_state(p, grid)` and the (iterations, grad_norm, converged)
        of each of its full-support descents."""
        runs = []
        raw = _Descent.run

        def recorded(self, u0):
            out = raw(self, u0)
            if self.p.d == p.d:
                runs.append(out[1:])
            return out

        monkeypatch.setattr(_Descent, "run", recorded)
        return ground_state(p, grid), runs

    def test_every_full_start_converges_on_the_d3_reproducer(self, monkeypatch):
        # N=2, lambda=mu=1, b01=3, b02=b12=2: six of the nine full starts
        # used to run all 3000 iterations
        b = np.array([[0.0, 3.0, 2.0], [3.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
        p = ParameterSet.make([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], b, N=2)
        _, runs = self.full_runs(monkeypatch, p, RadialGrid.make(2, default_radius(1.0), 400))
        assert len(runs) == 9
        assert all(converged for _, _, converged in runs), runs

    @pytest.mark.parametrize("lam2,b", [(1.0, 0.99), (2.0, 0.98 * (2.0 + np.sqrt(2.0)) / 2.0)],
                             ids=["sym-b0.99", "asym-0.98bstar"])
    def test_full_starts_end_the_drain_in_few_iterations(self, monkeypatch, lam2, b):
        # below the switch-on coupling (b* = (2 + sqrt 2)/2 for lambda = (1, 2))
        # the ground state is semitrivial; without a face step the second
        # component drains at H^1 speed, in up to 1239 and 509 iterations
        p = ParameterSet.make([1.0, lam2], [1.0, 1.0], b, N=1)
        res, runs = self.full_runs(monkeypatch, p, RadialGrid.make(1, 20.0, 400))
        assert res.support == (0,)
        assert len(runs) == 7
        assert all(converged and iterations <= 50 for iterations, _, converged in runs), runs


class TestMinimizeRestricted:
    def test_rejects_empty_support(self, grid):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0)
        with pytest.raises(ValueError, match="nonempty"):
            minimize_restricted(p, (), grid)

    def test_rejects_fractional_support_index(self, grid):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0)
        with pytest.raises(ValueError, match="integer"):
            minimize_restricted(p, (0.7,), grid)

    def test_components_outside_support_stay_zero(self, grid):
        p = ParameterSet.make([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 2.0)
        res = minimize_restricted(p, (0, 2), grid)
        assert np.all(res.fields.values[1] == 0.0)
        assert set(res.support) <= {0, 2}

    def test_support_solves_the_subsystem_with_indices_mapped(self, grid):
        # every start of a restricted solve depends only on its subsystem
        p3 = ParameterSet.make([1.0, 1.3, 0.9], [1.0, 1.1, 0.8], 3.0)
        p2 = ParameterSet.make([1.0, 0.9], [1.0, 0.8], 3.0)
        res = minimize_restricted(p3, (0, 2), grid)
        native = minimize_restricted(p2, (0, 1), grid)
        assert res.support == (0, 2)
        assert res.level == native.level
        assert (res.iterations, res.grad_norm) == (native.iterations, native.grad_norm)
        assert np.all(res.fields.values[1] == 0.0)
        assert np.array_equal(res.fields.values[[0, 2]], native.fields.values)


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


    @pytest.mark.parametrize("lam, mu, b, N", [
        # wide_system seed 6 pass 2, d4-N2-low: every size-3 support with
        # component 1 settled on another component's soliton
        ([1.0060834648848291, 1.1620547612082008, 1.1480972309055912, 1.1335496794721152],
         [0.9140434675857273, 1.0577074577192718, 1.0412093340681887, 1.0303086201621043],
         0.32429824213147557, 2),
        # wide_system seed 8 pass 5, d4-N3-low
        ([1.079583539197161, 1.1433728365839417, 1.01924870258899, 1.1842860260407782],
         [1.0351244959695245, 1.090025458555034, 0.9739427928474121, 1.030217412699534],
         0.35637753525436583, 3),
    ], ids=["seed6-pass2", "seed8-pass5"])
    def test_inclusion_guard_finds_the_lowest_component(self, lam, mu, b, N):
        # below the small-coupling bound c(I) is the lowest single level in I;
        # on this resolved grid the search closes every support holding the
        # lowest single by that single, and solves none of them
        p = ParameterSet.make(lam, mu, b, N=N)
        g = RadialGrid.make(N, default_radius(min(lam)), 1000)
        semi = semitrivial_level(p, g)
        lowest = min(range(p.d), key=lambda i: semi.singles[i].level)
        single = minimize_restricted(p, (lowest,), g)
        assert semi.singles[lowest].level == single.level
        assert semi.level == pytest.approx(single.level, rel=LEVEL_TIE_TOL)
        for subset in semitrivial_subsets(p.d):
            if lowest in subset:
                assert semi.results[subset] is semi.singles[lowest]

    def test_inclusion_guard_replaces_a_restricted_result(self):
        # wide_system seed 2 pass 0, d3-N3-low, rounded: on this grid the
        # (0, 1) solve settles on component 1 (level 17.874), above the
        # single level of component 0 (17.820), so the guard swaps them; the
        # grid is too coarse for the bound, so every support is solved
        p = ParameterSet.make([1.078, 1.037, 1.069], [1.078, 1.055, 0.964], 0.352, N=3)
        g = RadialGrid.make(3, default_radius(1.037), 200)
        assert minimize_restricted(p, (0, 1), g).support == (1,)
        single = minimize_restricted(p, (0,), g)
        semi = semitrivial_level(p, g)
        assert semi.pruned == () and sorted(semi.results) == semitrivial_subsets(3)[::-1]
        guarded = semi.results[(0, 1)]
        assert guarded is semi.singles[0]
        assert guarded.support == (0,) and guarded.level == single.level
        assert np.array_equal(guarded.fields.values, single.fields.values)
        assert semi.best_subset == (0, 1)


def _search_draw(seed):
    """A resolved draw for the support search: d 3-5, N 1-3, lambda on
    [1, 1.5], mu on [0.5, 2], non-constant b on [0.1, 3], and n so that
    every single lies within RESOLUTION_TOL of its continuum level."""
    rng = np.random.default_rng(seed)
    d, N = 3 + seed % 3, int(rng.integers(1, 4))
    lam, mu = rng.uniform(1.0, 1.5, d), rng.uniform(0.5, 2.0, d)
    upper = np.triu(rng.uniform(0.1, 3.0, (d, d)), 1)
    p = ParameterSet.make(lam, mu, upper + upper.T, N=N)
    return p, RadialGrid.make(N, default_radius(lam.min()), {1: 600, 2: 800, 3: 1500}[N])


class TestSupportSearch:
    @pytest.mark.parametrize("seed", range(6))
    def test_search_agrees_with_solving_every_support(self, seed):
        p, g = _search_draw(seed)
        semi = semitrivial_level(p, g)
        unit = p.mu * np.array([semi.singles[i].level for i in range(p.d)])
        assert np.abs(unit / (p.lam ** ((4.0 - p.N) / 2.0) * UNIT_LEVEL[p.N]) - 1.0).max() <= 1e-3
        assert sorted(semi.lower_bounds) == sorted(semitrivial_subsets(p.d))
        assert set(semi.pruned).isdisjoint(semi.results)
        assert set(semi.pruned) | set(semi.results) == set(semi.lower_bounds)
        direct = {}
        for subset in semitrivial_subsets(p.d):
            res = minimize_restricted(p, subset, g)
            # the synchronized lower bound holds on a resolved grid
            assert res.level >= semi.lower_bounds[subset] * (1.0 - BOUND_TOL)
            lowest = min(subset, key=lambda i: semi.singles[i].level)
            single = semi.singles[lowest]
            if lowest not in res.support and _better((single.level, single.support),
                                                     (res.level, res.support)):
                res = single
            direct[subset] = res
        for subset in semi.pruned:
            assert direct[subset].level > semi.level
        best = None
        for subset, res in sorted(direct.items()):
            if best is None or _better((res.level, subset), (direct[best].level, best)):
                best = subset
        assert semi.best_subset == best
        assert semi.level == pytest.approx(direct[best].level, rel=1e-12)

    def test_the_draws_prune(self):
        # every draw above prunes at least one support
        for seed in range(6):
            p, g = _search_draw(seed)
            assert semitrivial_level(p, g).pruned

    def test_pair_solves_both_singles_and_prunes_nothing(self, grid):
        p = ParameterSet.make([1.0, 1.3], [1.0, 0.8], 0.5)
        semi = semitrivial_level(p, grid)
        assert semi.pruned == ()
        assert semi.results == {(0,): semi.singles[0], (1,): semi.singles[1]}
        for i in range(2):
            assert semi.lower_bounds[(i,)] == pytest.approx(semi.singles[i].level, rel=1e-14)

    def test_an_unconverged_single_turns_the_search_off(self, monkeypatch):
        p, g = _search_draw(0)
        real = minimize_restricted

        def unconverged_singles(p, support, grid):
            res = real(p, support, grid)
            return replace(res, converged=False) if len(support) == 1 else res

        monkeypatch.setattr(cnls.solver, "minimize_restricted", unconverged_singles)
        semi = semitrivial_level(p, g)
        assert semi.pruned == () and sorted(semi.results) == sorted(semitrivial_subsets(p.d))

    def test_a_level_below_its_bound_turns_the_search_off(self, monkeypatch):
        # a solved level under its bound shows the bound cannot be trusted:
        # every support after it is solved
        p, g = _search_draw(0)
        real = minimize_restricted

        def low(p, support, grid):
            res = real(p, support, grid)
            return replace(res, level=0.5 * res.level) if len(support) > 1 else res

        monkeypatch.setattr(cnls.solver, "minimize_restricted", low)
        semi = semitrivial_level(p, g)
        assert semi.pruned == () and sorted(semi.results) == sorted(semitrivial_subsets(p.d))


class TestUnitLevel:
    def test_one_dimensional_level_is_four_thirds(self):
        assert UNIT_LEVEL[1] == 4.0 / 3.0

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_discrete_single_level_converges_at_second_order(self, N):
        # the discrete level at lambda = mu = 1 approaches UNIT_LEVEL[N] as
        # h^2: halving h divides the error by about 4
        p = ParameterSet.make([1.0], [1.0], 0.0, N=N)
        errors = [ground_state(p, RadialGrid.make(N, 20.0, n)).level / UNIT_LEVEL[N] - 1.0
                  for n in (500, 1000, 2000)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.8 <= coarse / fine <= 4.2
        assert abs(errors[-1]) <= 1e-3


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

    def test_each_distinct_semitrivial_minimizer_is_seeded_bare_once(self, monkeypatch):
        # wide_system seed 1 pass 0, d4-N2-low, at n = 600: every single lies
        # within RESOLUTION_TOL of its continuum level, (1, 2, 3) is pruned
        # and the single of component 0 closes the other three supports
        p = ParameterSet.make(
            [1.0079185753328406, 1.1057178526520044, 1.0918671765770807, 1.012469915829975],
            [1.028265633827875, 1.0705265676961313, 1.018588203620857, 0.9520194895474446],
            0.3210084035973653, N=2)
        g = RadialGrid.make(2, default_radius(1.0079185753328406), 600)
        semi = semitrivial_level(p, g)
        distinct = {id(res) for res in semi.results.values()}
        assert semi.pruned == ((1, 2, 3),)
        assert all(res is semi.singles[0] for res in semi.results.values())
        starts = []
        raw = _Descent.run

        def recorded(self, u0):
            starts.append(np.array(u0))
            return raw(self, u0)

        monkeypatch.setattr(_Descent, "run", recorded)
        full = ground_state(p, g, semitrivial=semi)
        monkeypatch.undo()
        assert len(starts) == 1 + len(distinct) + len(semi.results) + RANDOM_STARTS == 7
        assert full.starts_used == len(starts)
        for a, b in itertools.combinations(starts, 2):
            assert not np.array_equal(a, b)
        # the inventory that seeded every support's minimizer bare ends the same
        seeded = []
        for subset, res in sorted(semi.results.items()):
            missing = next(i for i in range(p.d) if i not in subset)
            bumped = res.fields.values.copy()
            bumped[missing] += SEMITRIVIAL_EPS * soliton_profile(
                g, float(p.lam[missing]), float(p.mu[missing]))
            seeded += [res.fields.values, bumped]
        old = _multistart(p, g, seeded)
        assert old.starts_used == len(starts) + 2
        assert (full.level, full.support, full.iterations, full.grad_norm, full.alternates) == \
            (old.level, old.support, old.iterations, old.grad_norm, old.alternates)
        assert np.array_equal(full.fields.values, old.fields.values)

    def test_large_lambda_components_die(self):
        # with the top lambda far above the rest (ratio 60), the ground
        # state keeps only the two low-lambda components
        g = RadialGrid.make(1, 20.0, 2000)
        p = ParameterSet.make([1.0, 1.0, 60.0], [1.0, 1.0, 1.0], 2.0)
        res = ground_state(p, g)
        assert res.support == (0, 1)
        assert res.level == pytest.approx(8.0 / 9.0, rel=1e-3)

    def test_non_convergence_is_flagged(self, grid, monkeypatch):
        monkeypatch.setattr(cnls.solver, "MAX_ITERATIONS", 1)
        monkeypatch.setattr(cnls.solver, "RANDOM_STARTS", 0)
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0)
        res = ground_state(p, grid)
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
    """The minimizer (u_0, 0) of the subsystem lambda_0 = mu_0 = 1 on N=1,
    R=20, n=2000; it does not depend on lambda_1, mu_1 or b."""
    g = RadialGrid.make(1, 20.0, 2000)
    p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 1.0)
    return g, minimize_restricted(p, (0,), g)


def slot_sigma_min(p, semi, i0):
    """Lowest eigenvalue of -Laplace + lambda_i0 - sum_i b_{i,i0} u_i^2 in the
    weighted pairing: the tridiagonal K + W V, scaled by W^(-1/2) on both
    sides (W = diag(weights)), has the same spectrum as W^-1 (K + W V)."""
    g = semi.fields.grid
    n = g.n
    w = g.weights[:n]
    potential = float(p.lam[i0]) - sum(
        float(p.b[i, i0]) * semi.fields.values[i, :n] ** 2 for i in semi.support
    )
    diag, off = operator_tridiag(g, potential)
    return eigh_tridiagonal(diag / w, off / np.sqrt(w[:-1] * w[1:]),
                            eigvals_only=True, select="i", select_range=(0, 0))[0]


B_STAR = (2.0 + np.sqrt(2.0)) / 2.0


class TestPerturbationCertificate:

    def test_holds_at_strong_coupling(self, semitrivial_pair):
        g, semi = semitrivial_pair
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0)
        assert perturbation_certificate(p, semi) == (1,)

    def test_fails_at_weak_coupling(self, semitrivial_pair):
        g, semi = semitrivial_pair
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 0.5)
        assert perturbation_certificate(p, semi) == ()

    @pytest.mark.parametrize(
        "lam2,b,expected",
        [
            (1.0, 0.5, 0.618),
            (1.0, 0.999, 1.333e-3),
            (1.0, 1.001, -1.333e-3),
            (1.0, 3.0, -3.000),
            (2.0, 0.98 * B_STAR, 0.0504),
            (2.0, 1.02 * B_STAR, -0.0505),
        ],
        ids=["sym-b0.5", "sym-b0.999", "sym-b1.001", "sym-b3",
             "asym-0.98bstar", "asym-1.02bstar"],
    )
    def test_sigma_min_matches_poschl_teller(self, semitrivial_pair, lam2, b, expected):
        # with u_0 = sqrt(2) sech r the operator of slot 1 is -d^2/dr^2 +
        # lam2 - 2b sech^2 r, whose lowest eigenvalue is lam2 - s^2 for
        # s(s+1) = 2b (Poschl-Teller)
        g, semi = semitrivial_pair
        p = ParameterSet.make([1.0, lam2], [1.0, 1.0], b)
        s = (np.sqrt(1.0 + 8.0 * b) - 1.0) / 2.0
        analytic = lam2 - s * s
        assert analytic == pytest.approx(expected, abs=5e-4)
        sigma = slot_sigma_min(p, semi, 1)
        assert sigma == pytest.approx(analytic, abs=1e-4)
        assert perturbation_certificate(p, semi) == ((1,) if sigma < 0 else ())

    def test_tests_every_missing_slot(self, semitrivial_pair):
        # two missing slots: slot 1 couples above the switch-on value and is
        # unstable, slot 2 couples weakly and stays stable
        g, semi = semitrivial_pair
        vals = np.zeros((3, g.n + 1))
        vals[0] = semi.fields.values[0]
        semi3 = replace(semi, fields=MultiField(g, vals))
        b = np.array([[0.0, 2.0, 0.5], [2.0, 0.0, 1.0], [0.5, 1.0, 0.0]])
        p = ParameterSet.make([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], b)
        assert perturbation_certificate(p, semi3) == (1,)
        assert perturbation_certificate(replace(p, b=b * 4.0), semi3) == (1, 2)

    def test_unstable_when_coupling_dominates(self):
        # with the missing lambda no larger than a surviving one and the
        # coupling above every mu, switching on the missing slot pays
        g = RadialGrid.make(1, 20.0, 1200)
        p = ParameterSet.make([1.0, 1.2, 1.0], [1.0, 0.9, 1.0], 2.0)
        semi = minimize_restricted(p, (0, 1), g)
        assert semi.support == (0, 1)
        assert perturbation_certificate(p, semi) == (2,)
