import itertools
import math

import numpy as np
import pytest

import cnls.functional
from cnls import simplex_qp_max
from cnls.functional import action, action_parts_raw, gradient_raw, nehari_raw
from cnls.grid import MultiField, RadialGrid, default_radius, neg_lap_plus_raw
from cnls.params import ParameterSet
from cnls.solver import ground_state, soliton_profile
from oracles import h1_sq_raw, l4_raw, wdot

SINGLE_LEVEL = 4.0 / 3.0


def smooth_bump(grid, rng, nonneg=False):
    r = grid.nodes
    vals = (
        rng.uniform(0.5, 1.5)
        * np.exp(-((r - rng.uniform(0.5, 5.0)) ** 2) / rng.uniform(0.5, 4.0))
        * (1.0 - (r / grid.R) ** 2)
    )
    if not nonneg and rng.random() < 0.5:
        vals *= np.cos(0.4 * r)
    vals[-1] = 0.0
    return vals


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.make(1, 20.0, 2000)


def soliton_multifield(grid, d=1):
    vals = np.tile(soliton_profile(grid, 1.0, 1.0), (d, 1))
    return MultiField(grid, vals)


def projection(grid, values, p):
    """(t, level) of the Nehari projection: `nehari_raw` at the totals of
    `action_parts_raw`."""
    q, M = action_parts_raw(grid, values, p)
    return nehari_raw(float(q.sum()), float(M.sum()))


class TestAction:
    def test_zero_fields(self, grid):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0)
        bk = action(MultiField(grid, np.zeros((2, grid.n + 1))), p)
        assert bk.quadratic == bk.quartic_self == bk.quartic_cross == 0.0
        assert bk.action == 0.0 and bk.nehari_residual == 0.0

    def test_single_soliton_level(self, grid):
        p = ParameterSet.make([1.0], [1.0], 0.0)
        bk = action(soliton_multifield(grid), p)
        assert bk.action == pytest.approx(SINGLE_LEVEL, rel=1e-3)

    def test_semitrivial_embedding_matches_smaller_system(self, grid):
        p2 = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0)
        p1 = ParameterSet.make([1.0], [1.0], 0.0)
        vals = np.zeros((2, grid.n + 1))
        vals[0] = soliton_profile(grid, 1.0, 1.0)
        bk2 = action(MultiField(grid, vals), p2)
        bk1 = action(MultiField(grid, vals[:1]), p1)
        assert bk2.action == bk1.action
        assert bk2.quartic_cross == 0.0

    def test_breakdown_invariants(self, grid):
        rng = np.random.default_rng(2)
        p = ParameterSet.make([1.0, 1.7], [0.9, 1.1], 1.3)
        u = MultiField(grid, np.array([smooth_bump(grid, rng) for _ in range(2)]))
        bk = action(u, p)
        assert bk.action == pytest.approx(
            bk.quadratic / 2 - bk.quartic_self / 4 - bk.quartic_cross / 4, rel=1e-14
        )
        assert bk.nehari_residual == pytest.approx(
            bk.quadratic - bk.quartic_self - bk.quartic_cross, rel=1e-14
        )

    def test_parts_match_the_per_component_breakdown(self, grid):
        rng = np.random.default_rng(3)
        b = np.array([[0.0, 0.4, 1.3], [0.4, 0.0, 2.2], [1.3, 2.2, 0.0]])
        p = ParameterSet.make([1.0, 1.7, 0.6], [0.9, 1.1, 1.4], b)
        vals = np.array([smooth_bump(grid, rng) for _ in range(3)])
        q, M = action_parts_raw(grid, vals, p)
        assert np.array_equal(M, M.T)
        for i in range(3):
            assert q[i] == pytest.approx(h1_sq_raw(grid, vals[i], p.lam[i]), rel=1e-14)
            assert M[i, i] == pytest.approx(p.mu[i] * l4_raw(grid, vals[i]), rel=1e-14)
            for j in range(i):
                assert M[i, j] == pytest.approx(b[i, j] * wdot(grid, vals[i] ** 2, vals[j] ** 2),
                                                rel=1e-14)
        bk = action(MultiField(grid, vals), p)
        assert bk.quadratic == pytest.approx(q.sum(), rel=1e-14)
        assert bk.quartic_self == pytest.approx(np.trace(M), rel=1e-14)
        cross = sum(b[i, j] * wdot(grid, vals[i] ** 2, vals[j] ** 2)
                    for i in range(3) for j in range(3) if i != j)
        assert bk.quartic_cross == pytest.approx(cross, rel=1e-13)

    def test_parts_rescale_per_component(self, grid):
        # scaling row i by s_i maps (q, M) to (D q, D M D) with D = diag(s^2)
        rng = np.random.default_rng(12)
        p = ParameterSet.make([1.0, 1.3, 0.8], [1.0, 0.7, 1.2], 1.9)
        vals = np.array([smooth_bump(grid, rng) for _ in range(3)])
        s = np.array([0.7, 1.3, 2.1])
        q, M = action_parts_raw(grid, vals, p)
        qs, Ms = action_parts_raw(grid, s[:, None] * vals, p)
        D = s**2
        np.testing.assert_allclose(qs, D * q, rtol=1e-14)
        np.testing.assert_allclose(Ms, D[:, None] * M * D[None, :], rtol=1e-14)

    def test_coupling_diagonal_is_ignored(self, grid):
        vals = np.array([soliton_profile(grid, 1.0, 1.0), 0.7 * soliton_profile(grid, 1.3, 0.9)])
        u = MultiField(grid, vals)
        base = {"d": 2, "N": 1, "lambda": [1.0, 1.3], "mu": [1.0, 0.9]}
        p0 = ParameterSet.from_json_dict({**base, "b": [[0.0, 2.0], [2.0, 0.0]]})
        p5 = ParameterSet.from_json_dict({**base, "b": [[5.0, 2.0], [2.0, -4.0]]})
        assert action(u, p5) == action(u, p0)
        np.testing.assert_array_equal(gradient_raw(grid, vals, p5), gradient_raw(grid, vals, p0))

    def test_dimension_mismatch(self, grid):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0)
        with pytest.raises(ValueError, match="dimension"):
            action(MultiField(grid, np.zeros((3, grid.n + 1))), p)


class TestNehariScale:
    def test_fixed_point_on_manifold(self, grid):
        rng = np.random.default_rng(4)
        p = ParameterSet.make([1.0, 1.2], [1.0, 0.8], 1.5)
        vals = np.array([smooth_bump(grid, rng, nonneg=True) for _ in range(2)])
        t = projection(grid, vals, p)[0]
        scaled = MultiField(grid, t * vals)
        assert projection(grid, scaled.values, p)[0] == pytest.approx(1.0, abs=1e-10)
        assert abs(action(scaled, p).nehari_residual) <= 1e-10 * action(scaled, p).quadratic

    def test_formula(self, grid):
        rng = np.random.default_rng(5)
        p = ParameterSet.make([1.0], [2.0], 0.0)
        vals = smooth_bump(grid, rng, nonneg=True)[None, :]
        bk = action(MultiField(grid, vals), p)
        t = projection(grid, vals, p)[0]
        assert t**2 == pytest.approx(bk.quadratic / (bk.quartic_self + bk.quartic_cross), rel=1e-14)

    def test_rejects_zero_and_no_quartic(self, grid):
        # no t > 0 puts the field on the constraint set without a positive
        # quadratic and a positive quartic part
        p = ParameterSet.make([1.0], [1.0], 0.0)
        assert projection(grid, np.zeros((1, grid.n + 1)), p) is None
        for quad, quartic in ((0.0, 2.0), (1.5, 0.0), (1.5, -0.5)):
            assert nehari_raw(quad, quartic) is None

    def test_closed_form_bit_for_bit(self, grid):
        rng = np.random.default_rng(14)
        p = ParameterSet.make([1.0, 1.3, 0.8], [1.0, 0.7, 1.2], 1.9)
        vals = np.array([smooth_bump(grid, rng) for _ in range(3)])
        q, M = action_parts_raw(grid, vals, p)
        quad, quartic = float(q.sum()), float(M.sum())
        t, level = nehari_raw(quad, quartic)
        assert t == math.sqrt(quad / quartic)
        assert level == quad * quad / (4.0 * quartic)

    def test_theta_family_closed_form(self, grid):
        # the projection of (u_1, ..., u_{d-1}, theta*w) with the head tuple
        # already on its own constraint set has the closed form
        # t^2 = (1 + theta^2 C1) / (1 + mu_d theta^4 C2 + 2 b theta^2 sum D_i)
        rng = np.random.default_rng(6)
        b = 1.7
        p3 = ParameterSet.make([1.0, 1.2, 0.9], [1.0, 0.8, 1.1], b)
        p2 = ParameterSet.make([1.0, 1.2], [1.0, 0.8], b)
        pair = np.array([
            soliton_profile(grid, 1.0, 1.0),
            0.8 * soliton_profile(grid, 1.2, 0.8),
        ])
        t2 = projection(grid, pair, p2)[0]
        pair *= t2
        w = smooth_bump(grid, rng, nonneg=True)
        theta = 0.37
        t = projection(grid, np.vstack([pair, theta * w[None, :]]), p3)[0]

        S = sum(h1_sq_raw(grid, pair[i], [1.0, 1.2][i]) for i in range(2))
        C1 = h1_sq_raw(grid, w, 0.9) / S
        C2 = l4_raw(grid, w) / S
        D = [wdot(grid, pair[i] ** 2, w**2) / S for i in range(2)]
        t2_formula = (1 + theta**2 * C1) / (
            1 + 1.1 * theta**4 * C2 + 2 * b * theta**2 * sum(D)
        )
        assert t**2 == pytest.approx(t2_formula, rel=1e-10)


class TestActionOnNehari:
    def test_single_soliton(self, grid):
        p = ParameterSet.make([1.0], [1.0], 0.0)
        assert projection(grid, soliton_multifield(grid).values, p)[1] == pytest.approx(
            SINGLE_LEVEL, rel=1e-3
        )

    def test_scale_invariance(self, grid):
        rng = np.random.default_rng(7)
        p = ParameterSet.make([1.0, 1.5], [1.0, 1.0], 2.0)
        vals = np.array([smooth_bump(grid, rng, nonneg=True) for _ in range(2)])
        assert projection(grid, 3.0 * vals, p)[1] == pytest.approx(
            projection(grid, vals, p)[1], rel=1e-12
        )

    def test_symmetric_pair_level(self, grid):
        # u1 = u2 = soliton of the single equation with mu + b = 4 sits on
        # the constraint set with level 8 lambda^(3/2) / (3 (mu + b)) = 2/3
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0)
        w = soliton_profile(grid, 1.0, 4.0)
        assert projection(grid, np.tile(w, (2, 1)), p)[1] == pytest.approx(2.0 / 3.0, rel=1e-3)

    def test_ray_maximality(self, grid):
        rng = np.random.default_rng(8)
        p = ParameterSet.make([1.0, 1.1], [0.9, 1.2], 1.4)
        vals = np.array([smooth_bump(grid, rng, nonneg=True) for _ in range(2)])
        t = projection(grid, vals, p)[0]
        on = action(MultiField(grid, t * vals), p).action
        assert action(MultiField(grid, 0.5 * t * vals), p).action < on
        assert action(MultiField(grid, 2.0 * t * vals), p).action < on

    def test_coupling_rescaling_identity(self, grid):
        # with constant coupling b the projected level of u obeys
        # level(u; lam, mu, b) = level(u; lam, mu/b, 1)/b
        rng = np.random.default_rng(9)
        b = 2.6
        p = ParameterSet.make([1.0, 1.3, 0.8], [1.0, 0.7, 1.2], b)
        p_unit = ParameterSet.make([1.0, 1.3, 0.8], np.array([1.0, 0.7, 1.2]) / b, 1.0)
        vals = np.array([smooth_bump(grid, rng, nonneg=True) for _ in range(3)])
        assert projection(grid, vals, p)[1] == pytest.approx(
            projection(grid, vals, p_unit)[1] / b, rel=1e-12
        )

    def test_projected_q_minimizer_bounds_c_q(self):
        # lambda_p <= lambda_q, mu_q <= mu_p, b_q <= b_p: at every field p has
        # no larger quadratic and no smaller quartic part, so projecting the
        # q-minimizer onto p's Nehari set cannot raise c_q
        p = ParameterSet.make([0.9, 1.0], [1.2, 1.1], 2.0)
        q = ParameterSet.make([1.0, 1.3], [1.0, 0.9], 1.5)
        res_q = ground_state(q, RadialGrid.make(1, default_radius(0.9), 600))
        u = res_q.fields
        assert projection(u.grid, u.values, p)[1] <= res_q.level * (1.0 + 1e-12)

    def test_parameter_monotonicity_at_fixed_field(self, grid):
        rng = np.random.default_rng(10)
        p = ParameterSet.make([1.0, 1.4], [1.0, 0.9], 1.2)
        vals = np.array([smooth_bump(grid, rng, nonneg=True) for _ in range(2)])
        base = projection(grid, vals, p)[1]
        up_lam = ParameterSet.make([1.3, 1.4], [1.0, 0.9], 1.2)
        assert projection(grid, vals, up_lam)[1] > base
        up_mu = ParameterSet.make([1.0, 1.4], [1.5, 0.9], 1.2)
        assert projection(grid, vals, up_mu)[1] < base
        up_b = ParameterSet.make([1.0, 1.4], [1.0, 0.9], 2.0)
        assert projection(grid, vals, up_b)[1] < base


class TestGradient:
    def test_zero(self, grid):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0)
        assert np.all(gradient_raw(grid, np.zeros((2, grid.n + 1)), p) == 0.0)

    def test_soliton_is_near_critical(self):
        g = RadialGrid.make(1, 20.0, 4000)
        p = ParameterSet.make([1.0], [1.0], 0.0)
        grad = gradient_raw(g, soliton_profile(g, 1.0, 1.0)[None, :], p)
        region = g.nodes <= 15.0  # exclude the Dirichlet clamp of the tail
        assert np.abs(grad[0][region]).max() < 2e-5

    def test_rows_match_the_per_component_formula(self, grid):
        # row i: (-Laplace + lam_i) u_i - mu_i u_i^3 - u_i sum_{j != i} b_ij u_j^2
        rng = np.random.default_rng(5)
        b = np.array([[0.0, 0.4, 1.3, 2.2], [0.4, 0.0, 0.7, 1.9],
                      [1.3, 0.7, 0.0, 3.1], [2.2, 1.9, 3.1, 0.0]])
        p = ParameterSet.make([1.0, 1.7, 0.6, 3.2], [0.9, 1.1, 1.4, 0.8], b)
        vals = np.array([smooth_bump(grid, rng) for _ in range(4)])
        got = gradient_raw(grid, vals, p)
        for i in range(4):
            ref = neg_lap_plus_raw(grid, vals[i], float(p.lam[i]))
            ref -= float(p.mu[i]) * vals[i] ** 3
            for j in range(4):
                if j != i:
                    ref -= float(b[i, j]) * vals[i] * vals[j] ** 2
            ref[-1] = 0.0
            np.testing.assert_allclose(got[i], ref, rtol=1e-14,
                                       atol=1e-14 * np.abs(ref).max())

    def test_directional_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        p = ParameterSet.make([1.0, 1.4, 0.8], [1.0, 0.7, 1.2], 1.5)
        g = RadialGrid.make(1, 15.0, 600)
        eps = 1e-5
        for _ in range(5):
            u_vals = np.array([smooth_bump(g, rng) for _ in range(3)])
            v_vals = np.array([smooth_bump(g, rng) for _ in range(3)])
            grad = gradient_raw(g, u_vals, p)
            paired = sum(wdot(g, grad[i], v_vals[i]) for i in range(3))
            fd = (
                action(MultiField(g, u_vals + eps * v_vals), p).action
                - action(MultiField(g, u_vals - eps * v_vals), p).action
            ) / (2 * eps)
            assert paired == pytest.approx(fd, rel=1e-6)


def coupling_matrix(mu, b):
    """B with mu on the diagonal and b off it: f(X) = z^T B z at z = X^2."""
    B = np.full((len(mu), len(mu)), float(b))
    np.fill_diagonal(B, mu)
    return B


def reference_parts(grid, values, p):
    """`action_parts_raw` as a formula with fresh temporaries."""
    d = len(values)
    v2 = values * values
    wv2 = grid.weights * v2
    q, M = np.empty(d), np.empty((d, d))
    for i in range(d):
        q[i] = h1_sq_raw(grid, values[i], float(p.lam[i]))
        for j in range(i + 1):
            coef = p.mu[i] if i == j else p.b[i, j]
            M[i, j] = M[j, i] = float(coef) * float(np.dot(wv2[i], v2[j]))
    return q, M


def reference_gradient(grid, values, p):
    """`gradient_raw` as a formula with fresh temporaries, in its order of
    operations."""
    n = grid.n
    flux = grid.conductance * (values[:, 1:] - values[:, :-1])
    out = np.empty_like(values)
    out[:, 0] = -flux[:, 0]
    out[:, 1:n] = flux[:, : n - 1] - flux[:, 1:n]
    out[:, n] = 0.0
    out /= grid.weights
    out += p.lam[:, None] * values
    v2 = values * values
    nonlin = p.b @ v2
    nonlin += p.mu[:, None] * v2
    nonlin *= values
    out -= nonlin
    out[:, n] = 0.0
    return out


class TestKernelWorkspace:
    """`gradient_raw` and `action_parts_raw` compute into a caller's
    workspace with the arithmetic of their allocating form, bit for bit."""

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_workspace_results_are_bitwise_the_allocating_ones(self, d, N):
        rng = np.random.default_rng(10 * d + N)
        g = RadialGrid.make(N, 15.0, 300)
        b = np.triu(rng.uniform(0.1, 3.0, (d, d)), 1)
        p = ParameterSet.make(rng.uniform(0.5, 2.0, d), rng.uniform(0.5, 2.0, d), b + b.T, N=N)
        work = np.full((3, d, g.n + 1), np.nan)  # stale contents must never be read
        for _ in range(2):
            vals = rng.uniform(-1.5, 1.5, (d, g.n + 1))
            vals[:, -1] = 0.0
            kept = vals.copy()
            q_ref, M_ref = reference_parts(g, vals, p)
            for q, M in (action_parts_raw(g, vals, p), action_parts_raw(g, vals, p, work)):
                assert np.array_equal(q, q_ref) and np.array_equal(M, M_ref)
            grad_ref = reference_gradient(g, vals, p)
            assert np.array_equal(gradient_raw(g, vals, p), grad_ref)
            grad = gradient_raw(g, vals, p, work)
            assert np.shares_memory(grad, work)
            assert np.array_equal(grad, grad_ref)
            assert np.array_equal(vals, kept)


class TestSimplexQP:
    def test_never_below_dense_sampling_of_the_simplex(self):
        # checks every rule against sampling alone, with no closed form or enumeration
        rng = np.random.default_rng(13)
        for trial in range(200):
            k = 2 + trial % 4
            A = rng.uniform(-1.0, 2.0, size=(k, k))
            B = A + A.T
            F, z = simplex_qp_max(B)
            assert np.all(z >= 0) and z.sum() == pytest.approx(1.0, abs=1e-14)
            assert z @ B @ z == pytest.approx(F, rel=1e-13, abs=1e-15)
            samples = np.vstack([rng.dirichlet(np.full(k, alpha), size=5000)
                                 for alpha in (1.0, 0.2)])
            sampled = np.einsum("ni,ij,nj->n", samples, B, samples).max()
            assert sampled <= F + 1e-12 * abs(F)

    @staticmethod
    def enumerated(B):
        """Maximum of z^T B z over the simplex from the KKT system of every
        support S: B_SS z_S = F 1 with sum(z_S) = 1, solved bordered (no
        shift, no pruning) and kept where z_S > 0."""
        k = B.shape[0]
        best = -np.inf
        for size in range(1, k + 1):
            for S in itertools.combinations(range(k), size):
                S = list(S)
                K = np.ones((size + 1, size + 1))
                K[:size, :size] = B[np.ix_(S, S)]
                K[size, size] = 0.0
                rhs = np.zeros(size + 1)
                rhs[size] = 1.0
                try:
                    z = np.linalg.solve(K, rhs)[:size]
                except np.linalg.LinAlgError:
                    continue
                if np.all(z > 0.0):
                    best = max(best, z @ B[np.ix_(S, S)] @ z)
        return best

    def test_each_kernel_rule_agrees_with_full_enumeration(self, monkeypatch):
        # rule 1: positive definite; rule 2: one positive eigenvalue and
        # B^-1 1 > 0; rule 3: the rest (several positive eigenvalues, a
        # negative definite B whose maximum is negative, B^-1 1 of mixed
        # sign), with entries of both signs and a constant shift throughout
        enumerations = []
        supports = cnls.functional._simplex_supports

        def counted(B):
            enumerations.append(B)
            return supports(B)

        monkeypatch.setattr(cnls.functional, "_simplex_supports", counted)
        rng = np.random.default_rng(31)
        hits = {1: 0, 2: 0, 3: 0}
        for trial in range(600):
            k = 2 + trial % 5
            A = rng.normal(size=(k, k))
            N = A @ A.T / k + 0.1 * np.eye(k)
            shift = rng.uniform(-1.0, 1.0)
            kind = trial % 3
            if kind == 0:
                B = N + abs(shift)
            elif kind == 1:
                N = np.diag(rng.uniform(0.5, 2.0, size=k)) + 0.1 * (N - np.diag(N.diagonal()))
                B = rng.uniform(1.0, 3.0) - N
            else:
                B = rng.uniform(-1.0, 2.0, size=(k, k))
                B = B + B.T + shift if trial % 2 else -N + shift
            before = len(enumerations)
            F, z = simplex_qp_max(B)
            rule = 3 if len(enumerations) > before else 1 if np.count_nonzero(z) == 1 else 2
            hits[rule] += 1
            assert F == pytest.approx(self.enumerated(B), rel=1e-12, abs=1e-14), (trial, rule)
            assert np.all(z >= 0.0) and z.sum() == pytest.approx(1.0, abs=1e-14)
            assert z @ B @ z == pytest.approx(F, rel=1e-13, abs=1e-15)
        assert min(hits.values()) >= 100, hits

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_zero_mu_has_singular_vertices_and_the_uniform_maximizer(self, k):
        F, z = simplex_qp_max(coupling_matrix(np.zeros(k), 1.0))
        assert F == pytest.approx(1.0 - 1.0 / k, rel=1e-14)
        assert np.allclose(z, 1.0 / k, rtol=0, atol=1e-14)

    def test_exact_face_tie_has_singular_blocks(self):
        # mu_0 = mu_1 = b: every B_SS with {0, 1} in S is singular; with
        # mu_0 = mu_1 > b, B is positive definite and the vertices tie; the
        # smallest index wins both ties
        for mu, b, F_max in (([2.0, 2.0, 1.0], 2.0, 2.0), ([5.0, 5.0, 1.0], 3.0, 5.0)):
            F, z = simplex_qp_max(coupling_matrix(mu, b))
            assert F == F_max and np.array_equal(z, [1.0, 0.0, 0.0])

    def test_single_entry(self):
        for value in (3.0, 0.0, -2.5):
            F, z = simplex_qp_max([[value]])
            assert F == value and np.array_equal(z, [1.0])

    def test_non_positive_maximum(self):
        # F = 0: the vertex blocks [[0]] are singular and B^-1 1 < 0, so only
        # the solves on B + c find the maximizers
        F, z = simplex_qp_max([[0.0, -1.0], [-1.0, 0.0]])
        assert F == 0.0 and np.array_equal(z, [1.0, 0.0])
        F, _ = simplex_qp_max([[-3.0, -1.0], [-1.0, -2.0]])
        assert F == pytest.approx(-5.0 / 3.0, rel=1e-14)  # z = (1/3, 2/3)

    @pytest.mark.parametrize(
        "B,match",
        [(np.ones(3), "square"), (np.ones((2, 3)), "square"), (np.ones((0, 0)), "square"),
         ([[1.0, np.nan], [np.nan, 1.0]], "non-finite"), ([[1.0, np.inf], [1.0, 1.0]], "non-finite"),
         ([[1.0, 2.0], [3.0, 1.0]], "symmetric")],
        ids=["vector", "rectangular", "empty", "nan", "inf", "asymmetric"],
    )
    def test_rejects_malformed_matrix(self, B, match):
        with pytest.raises(ValueError, match=f"^B .*{match}"):
            simplex_qp_max(B)
