import numpy as np
import pytest

from cnls.functional import action_parts_raw
from cnls.grid import MultiField, RadialGrid, default_radius, neg_lap_plus_raw, operator_tridiag
from cnls.params import ParameterSet
from cnls.phase import PhaseOptions, build_grid
from cnls.solver import ground_state
from oracles import ball_volume, h1_sq_raw, l4_raw, wdot

SOLITON_H1 = 16.0 / 3.0  # ||sqrt(2) sech||^2_1 = int u^4 for the N=1 soliton


def sech_field(grid, scale=1.0):
    vals = scale * np.sqrt(2.0) / np.cosh(grid.nodes)
    vals[-1] = 0.0
    return vals


def cross_quartic(grid, u, v):
    """The coupling quartic int u^2 v^2 as the functional computes it: the
    entry M[0, 1] = b int u^2 v^2 of a pair's quartic matrix, with b = 1."""
    p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 1.0, N=grid.N)
    return action_parts_raw(grid, np.array([u, v]), p)[1][0, 1]


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("R,n", [(20.0, 100), (13.7, 777), (20.0, 4000)])
def test_weights_integrate_ball_volume(N, R, n):
    g = RadialGrid.make(N, R, n)
    vol = ball_volume(N, R)
    assert abs(g.weights.sum() - vol) / vol < 1e-10


def test_nodes_increasing_and_half_weight_axis():
    g = RadialGrid.make(1, 10.0, 100)
    assert np.all(np.diff(g.nodes) > 0)
    h = g.nodes[1]
    assert h > 0
    # N=1: half-line with even symmetry, trapezoid weights 2h with half ends
    assert g.weights[0] == pytest.approx(h, rel=1e-14)
    assert g.weights[1] == pytest.approx(2 * h, rel=1e-14)
    assert g.weights[-1] == pytest.approx(h, rel=1e-14)


def test_default_radius():
    assert default_radius(1.0) == pytest.approx(20.0)
    assert default_radius(4.0) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        default_radius(0.0)


@pytest.mark.parametrize("lam, mu, b, N, n", [
    ([1.0], [1.0], 0.0, 1, 600),
    ([1.0, 20.0], [1.0, 2.0], 0.5, 2, 800),
    ([1.0, 2.0, 4.0], [1.0, 1.0, 1.0], 2.0, 3, 600),
    ([0.5, 1.0, 3.0, 10.0], [1.0, 1.5, 1.0, 2.0], 3.0, 1, 600),
    ([1.0, 20.0, 4.0], [1.0, 1.0, 2.0], 0.3, 1, 1000),
], ids=["d1-N1", "d2-N2-ratio20", "d3-N3", "d4-N1-ratio20", "d3-N1-ratio20"])
def test_doubling_the_default_radius_leaves_the_level_unchanged(lam, mu, b, N, n):
    # at R = default_radius truncation is far below roundoff: the level on
    # (2R, 2n), same spacing, agrees to 1e-12 (R = 10/sqrt(min lambda)
    # drifts by ~1e-8)
    p = ParameterSet.make(lam, mu, b, N=N)
    grid = build_grid(p, PhaseOptions(grid_n=n))
    assert grid.R == default_radius(min(lam))
    res = ground_state(p, grid)
    doubled = ground_state(p, RadialGrid.make(N, 2.0 * grid.R, 2 * n))
    assert res.converged and doubled.converged
    assert doubled.support == res.support
    assert doubled.level == pytest.approx(res.level, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("R", [0.0, -1.0, float("nan"), float("inf")])
def test_make_rejects_a_radius_that_is_not_finite_and_positive(R):
    with pytest.raises(ValueError, match="R must be finite and > 0"):
        RadialGrid.make(1, R, 10)


@pytest.mark.parametrize("N, R, n, message", [
    (1.9, 20.0, 2000, "N must be an integer"), (1, 20.0, 2000.7, "n must be an integer"),
    (1, True, 2000, "R must be a number"), (True, 20.0, 2000, "N must be an integer"),
    (1, "20", 2000, "R must be a number"), (1, 20.0, 2000.0, "n must be an integer"),
    (4, 20.0, 2000, "N must be 1, 2 or 3"), (1, 20.0, 1, "n must be >= 2"),
])
def test_make_rejects_arguments_it_would_coerce(N, R, n, message):
    with pytest.raises(ValueError, match=f"^{message}, got "):
        RadialGrid.make(N, R, n)


def test_grid_reconstructs_from_metadata():
    g = RadialGrid.make(3, 12.5, 640)
    g2 = RadialGrid.make(**g.to_json_dict())
    assert g2.key == g.key
    assert RadialGrid.make(np.int64(3), np.float64(12.5), np.int32(640)).key == g.key
    assert np.array_equal(g2.weights, g.weights)


def test_field_invariants():
    g = RadialGrid.make(1, 5.0, 50)
    with pytest.raises(ValueError, match="vanish"):
        MultiField(g, np.ones((2, 51)))
    bad = np.zeros((2, 51))
    bad[1, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        MultiField(g, bad)
    for shape in [(2, 7), (51,), (1, 2, 51)]:
        with pytest.raises(ValueError, match="shape"):
            MultiField(g, np.zeros(shape))


def test_multifield_shares_grid_and_checks_boundary():
    g = RadialGrid.make(1, 5.0, 50)
    mf = MultiField(g, np.zeros((2, g.n + 1)))
    assert mf.d == 2
    assert mf.grid is g
    assert not mf.values.flags.writeable
    vals = np.zeros((3, 51))
    vals[2, -1] = 1e-300  # one component off the boundary value is enough
    with pytest.raises(ValueError, match="vanish"):
        MultiField(g, vals)


class TestH1:
    def test_zero_field(self):
        g = RadialGrid.make(1, 10.0, 200)
        assert h1_sq_raw(g, np.zeros(201), 1.0) == 0.0

    def test_soliton_identity(self):
        g = RadialGrid.make(1, 20.0, 4000)
        val = h1_sq_raw(g, sech_field(g), 1.0)
        assert val == pytest.approx(SOLITON_H1, rel=1e-3)

    def test_quadratic_scaling_exact(self):
        g = RadialGrid.make(2, 12.0, 500)
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(501)
        vals[-1] = 0.0
        assert h1_sq_raw(g, 3.7 * vals, 2.0) == pytest.approx(
            3.7**2 * h1_sq_raw(g, vals, 2.0), rel=1e-12
        )

    def test_positive_definite(self):
        g = RadialGrid.make(3, 8.0, 120)
        vals = np.zeros(121)
        vals[0] = 1.0  # axis-only bump still has energy
        assert h1_sq_raw(g, vals, 1.0) > 0


class TestQuartics:
    def test_zero(self):
        g = RadialGrid.make(1, 10.0, 100)
        z = np.zeros(101)
        assert l4_raw(g, z) == 0.0
        assert cross_quartic(g, z, z) == 0.0

    def test_soliton_quartic(self):
        g = RadialGrid.make(1, 20.0, 4000)
        assert l4_raw(g, sech_field(g)) == pytest.approx(SOLITON_H1, rel=1e-3)

    def test_mixed_coincides_with_quartic_on_diagonal(self):
        g = RadialGrid.make(2, 9.0, 300)
        rng = np.random.default_rng(8)
        vals = rng.standard_normal(301)
        vals[-1] = 0.0
        l4 = l4_raw(g, vals)
        assert abs(cross_quartic(g, vals, vals) - l4) <= 1e-14 * max(1.0, l4)

    def test_homogeneity_degrees(self):
        g = RadialGrid.make(3, 9.0, 250)
        rng = np.random.default_rng(10)
        a = rng.standard_normal(251)
        b = rng.standard_normal(251)
        a[-1] = b[-1] = 0.0
        c = 1.37
        assert l4_raw(g, c * a) == pytest.approx(c**4 * l4_raw(g, a), rel=1e-12)
        assert cross_quartic(g, c * a, b) == pytest.approx(
            c**2 * cross_quartic(g, a, b), rel=1e-12
        )


class TestOperator:
    def test_zero_field(self):
        g = RadialGrid.make(2, 10.0, 100)
        out = neg_lap_plus_raw(g, np.zeros(101), 1.0)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_bilinear_form_matches_h1_exactly(self, N):
        # the operator is the exact representation of the quadratic form in
        # the weighted pairing, so this match is roundoff, not O(h^2)
        g = RadialGrid.make(N, 15.0, 3000)
        vals = np.exp(-0.3 * (g.nodes - 3.0) ** 2) * (1.0 - (g.nodes / g.R) ** 2)
        vals[-1] = 0.0
        lam = 1.3
        pair = wdot(g, neg_lap_plus_raw(g, vals, lam), vals)
        assert pair == pytest.approx(h1_sq_raw(g, vals, lam), rel=1e-12)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_tridiagonal_and_flux_forms_agree(self, N):
        # operator_tridiag is K + W V on the free nodes; neg_lap_plus_raw
        # applies W^-1 K + lam node by node, so W times it is the same matrix
        g = RadialGrid.make(N, 12.0, 400)
        n, w = g.n, g.weights[:g.n]
        rng = np.random.default_rng(N)
        u = rng.standard_normal(n + 1)
        u[-1] = 0.0
        lam, V = 1.7, rng.uniform(-2.0, 2.0, n)

        def apply(potential):
            diag, off = operator_tridiag(g, potential)
            out = diag * u[:n]
            out[:-1] += off * u[1:n]
            out[1:] += off * u[: n - 1]
            return out

        def close(a, b):
            return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

        assert close(apply(lam), w * neg_lap_plus_raw(g, u, lam)[:n])
        assert u[:n] @ apply(lam) == pytest.approx(h1_sq_raw(g, u, lam), rel=1e-12)
        assert close(apply(V), w * (neg_lap_plus_raw(g, u, 0.0)[:n] + V * u[:n]))

    def test_soliton_residual_second_order(self):
        # -u'' + u - u^3 = 0 for the exact soliton; the discrete residual is
        # h^2 |u''''|/12 ~ 1.5e-5 at h = 0.005 (the 3-point scheme cannot do
        # better at this resolution), halving twice under n doubling.  The
        # region r <= 15 excludes the Dirichlet clamp of the analytic tail.
        sups = []
        for n in (4000, 8000):
            g = RadialGrid.make(1, 20.0, n)
            u = sech_field(g)
            res = neg_lap_plus_raw(g, u, 1.0) - u**3
            region = g.nodes <= 15.0
            sups.append(np.abs(res[region]).max())
        assert sups[0] < 2e-5
        assert 3.5 < sups[0] / sups[1] < 4.5

    def test_radial_eigenfunction_N3(self):
        # u = sin(pi r / R)/r satisfies -Laplace(u) = (pi/R)^2 u on the ball
        sups = []
        for n in (1000, 2000):
            R = 10.0
            g = RadialGrid.make(3, R, n)
            k = np.pi / R
            vals = np.empty(n + 1)
            vals[1:] = np.sin(k * g.nodes[1:]) / g.nodes[1:]
            vals[0] = k
            vals[-1] = 0.0
            out = neg_lap_plus_raw(g, vals, 0.0)
            err = np.abs(out - k**2 * vals)
            region = (g.nodes >= 0.5) & (g.nodes < R)
            sups.append(err[region].max())
        assert sups[0] < 1e-6
        assert 3.5 < sups[0] / sups[1] < 4.5


class TestRefinementConvergence:
    def test_h1_error_is_second_order_on_soliton(self):
        errs = []
        for n in (1000, 2000, 4000):
            g = RadialGrid.make(1, 20.0, n)
            errs.append(abs(h1_sq_raw(g, sech_field(g), 1.0) - SOLITON_H1))
        for a, b in zip(errs, errs[1:]):
            assert 3.5 < a / b < 4.5

    def test_l4_error_is_second_order_on_exponential(self):
        # int of e^{-4r} over the even-extended line is 1/2; the kink at the
        # axis produces a genuine O(h^2) trapezoid error
        errs = []
        for n in (1000, 2000, 4000):
            g = RadialGrid.make(1, 20.0, n)
            vals = np.exp(-g.nodes)
            vals[-1] = 0.0
            errs.append(abs(l4_raw(g, vals) - 0.5))
        for a, b in zip(errs, errs[1:]):
            assert 3.5 < a / b < 4.5

    def test_l4_on_soliton_is_superalgebraically_exact(self):
        # even smooth decay: trapezoid quadrature error is below roundoff
        for n in (1000, 4000):
            g = RadialGrid.make(1, 20.0, n)
            assert abs(l4_raw(g, sech_field(g)) - SOLITON_H1) < 1e-12

