import numpy as np
import pytest

from cnls.functional import (
    action,
    action_gradient,
    action_on_nehari,
    nehari_scale,
)
from cnls.grid import Field, MultiField, RadialGrid, h1_lambda_sq, l4_quartic, mixed_l2, wdot
from cnls.params import ParameterSet
from cnls.solver import soliton_profile

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


class TestAction:
    def test_zero_fields(self, grid):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0)
        bk = action(MultiField.zero(grid, 2), p)
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

    def test_coupling_diagonal_is_ignored(self, grid):
        vals = np.array([soliton_profile(grid, 1.0, 1.0), 0.7 * soliton_profile(grid, 1.3, 0.9)])
        u = MultiField(grid, vals)
        base = {"d": 2, "N": 1, "lambda": [1.0, 1.3], "mu": [1.0, 0.9]}
        p0 = ParameterSet.from_json_dict({**base, "b": [[0.0, 2.0], [2.0, 0.0]]})
        p5 = ParameterSet.from_json_dict({**base, "b": [[5.0, 2.0], [2.0, -4.0]]})
        assert action(u, p5) == action(u, p0)
        np.testing.assert_array_equal(action_gradient(u, p5).values, action_gradient(u, p0).values)

    def test_dimension_mismatch(self, grid):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0)
        with pytest.raises(ValueError, match="dimension"):
            action(MultiField.zero(grid, 3), p)


class TestNehariScale:
    def test_fixed_point_on_manifold(self, grid):
        rng = np.random.default_rng(4)
        p = ParameterSet.make([1.0, 1.2], [1.0, 0.8], 1.5)
        u = MultiField(grid, np.array([smooth_bump(grid, rng, nonneg=True) for _ in range(2)]))
        t = nehari_scale(u, p)
        scaled = MultiField(grid, t * u.values)
        assert nehari_scale(scaled, p) == pytest.approx(1.0, abs=1e-10)
        assert abs(action(scaled, p).nehari_residual) <= 1e-10 * action(scaled, p).quadratic

    def test_formula(self, grid):
        rng = np.random.default_rng(5)
        p = ParameterSet.make([1.0], [2.0], 0.0)
        u = MultiField(grid, smooth_bump(grid, rng, nonneg=True)[None, :])
        bk = action(u, p)
        t = nehari_scale(u, p)
        assert t**2 == pytest.approx(bk.quadratic / (bk.quartic_self + bk.quartic_cross), rel=1e-14)

    def test_rejects_zero_and_no_quartic(self, grid):
        p = ParameterSet.make([1.0], [1.0], 0.0)
        with pytest.raises(ValueError):
            nehari_scale(MultiField.zero(grid, 1), p)

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
        t2 = nehari_scale(MultiField(grid, pair), p2)
        pair *= t2
        w = smooth_bump(grid, rng, nonneg=True)
        theta = 0.37
        full = MultiField(grid, np.vstack([pair, theta * w[None, :]]))
        t = nehari_scale(full, p3)

        wf = Field(grid, w)
        S = sum(h1_lambda_sq(Field(grid, pair[i]), [1.0, 1.2][i]) for i in range(2))
        C1 = h1_lambda_sq(wf, 0.9) / S
        C2 = l4_quartic(wf) / S
        D = [mixed_l2(Field(grid, pair[i]), wf) / S for i in range(2)]
        t2_formula = (1 + theta**2 * C1) / (
            1 + 1.1 * theta**4 * C2 + 2 * b * theta**2 * sum(D)
        )
        assert t**2 == pytest.approx(t2_formula, rel=1e-10)


class TestActionOnNehari:
    def test_single_soliton(self, grid):
        p = ParameterSet.make([1.0], [1.0], 0.0)
        assert action_on_nehari(soliton_multifield(grid), p) == pytest.approx(
            SINGLE_LEVEL, rel=1e-3
        )

    def test_scale_invariance(self, grid):
        rng = np.random.default_rng(7)
        p = ParameterSet.make([1.0, 1.5], [1.0, 1.0], 2.0)
        vals = np.array([smooth_bump(grid, rng, nonneg=True) for _ in range(2)])
        u = MultiField(grid, vals)
        u3 = MultiField(grid, 3.0 * vals)
        assert action_on_nehari(u3, p) == pytest.approx(action_on_nehari(u, p), rel=1e-12)

    def test_symmetric_pair_level(self, grid):
        # u1 = u2 = soliton of the single equation with mu + b = 4 sits on
        # the constraint set with level 8 lambda^(3/2) / (3 (mu + b)) = 2/3
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0)
        w = soliton_profile(grid, 1.0, 4.0)
        u = MultiField(grid, np.tile(w, (2, 1)))
        assert action_on_nehari(u, p) == pytest.approx(2.0 / 3.0, rel=1e-3)

    def test_ray_maximality(self, grid):
        rng = np.random.default_rng(8)
        p = ParameterSet.make([1.0, 1.1], [0.9, 1.2], 1.4)
        vals = np.array([smooth_bump(grid, rng, nonneg=True) for _ in range(2)])
        u = MultiField(grid, vals)
        t = nehari_scale(u, p)
        on = action(MultiField(grid, t * vals), p).action
        assert action(MultiField(grid, 0.5 * t * vals), p).action < on
        assert action(MultiField(grid, 2.0 * t * vals), p).action < on

    def test_coupling_rescaling_identity(self, grid):
        # with constant coupling b: AON(u; lam, mu, b) = AON(u; lam, mu/b, 1)/b
        rng = np.random.default_rng(9)
        b = 2.6
        p = ParameterSet.make([1.0, 1.3, 0.8], [1.0, 0.7, 1.2], b)
        p_unit = ParameterSet.make([1.0, 1.3, 0.8], np.array([1.0, 0.7, 1.2]) / b, 1.0)
        vals = np.array([smooth_bump(grid, rng, nonneg=True) for _ in range(3)])
        u = MultiField(grid, vals)
        assert action_on_nehari(u, p) == pytest.approx(
            action_on_nehari(u, p_unit) / b, rel=1e-12
        )

    def test_parameter_monotonicity_at_fixed_field(self, grid):
        rng = np.random.default_rng(10)
        p = ParameterSet.make([1.0, 1.4], [1.0, 0.9], 1.2)
        vals = np.array([smooth_bump(grid, rng, nonneg=True) for _ in range(2)])
        u = MultiField(grid, vals)
        base = action_on_nehari(u, p)
        up_lam = ParameterSet.make([1.3, 1.4], [1.0, 0.9], 1.2)
        assert action_on_nehari(u, up_lam) > base
        up_mu = ParameterSet.make([1.0, 1.4], [1.5, 0.9], 1.2)
        assert action_on_nehari(u, up_mu) < base
        up_b = ParameterSet.make([1.0, 1.4], [1.0, 0.9], 2.0)
        assert action_on_nehari(u, up_b) < base


class TestGradient:
    def test_zero(self, grid):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0)
        g = action_gradient(MultiField.zero(grid, 2), p)
        assert np.all(g.values == 0.0)

    def test_soliton_is_near_critical(self):
        g = RadialGrid.make(1, 20.0, 4000)
        p = ParameterSet.make([1.0], [1.0], 0.0)
        u = MultiField(g, soliton_profile(g, 1.0, 1.0)[None, :])
        grad = action_gradient(u, p)
        region = g.nodes <= 15.0  # exclude the Dirichlet clamp of the tail
        assert np.abs(grad.values[0][region]).max() < 2e-5

    def test_directional_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        p = ParameterSet.make([1.0, 1.4, 0.8], [1.0, 0.7, 1.2], 1.5)
        g = RadialGrid.make(1, 15.0, 600)
        eps = 1e-5
        for _ in range(5):
            u_vals = np.array([smooth_bump(g, rng) for _ in range(3)])
            v_vals = np.array([smooth_bump(g, rng) for _ in range(3)])
            grad = action_gradient(MultiField(g, u_vals), p)
            paired = sum(wdot(g, grad.values[i], v_vals[i]) for i in range(3))
            fd = (
                action(MultiField(g, u_vals + eps * v_vals), p).action
                - action(MultiField(g, u_vals - eps * v_vals), p).action
            ) / (2 * eps)
            assert paired == pytest.approx(fd, rel=1e-6)
