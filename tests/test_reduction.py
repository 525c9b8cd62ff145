import numpy as np
import pytest

from cnls.functional import action
from cnls.grid import RadialGrid
from cnls.params import ParameterSet
from cnls.reduction import (
    REGIME_FACE,
    REGIME_INTERIOR,
    REGIME_VERTEX,
    lift_ground_state,
    reduce_system,
    sphere_max,
)
from cnls.solver import ground_state


def coupling_matrix(mu, b):
    """B with mu on the diagonal and b off it: f(X) = z^T B z at z = X^2."""
    B = np.full((len(mu), len(mu)), float(b))
    np.fill_diagonal(B, mu)
    return B


class TestSphereMax:
    def test_interior_example(self):
        res = sphere_max([1.0, 1.0], 3.0)
        assert res.regime == REGIME_INTERIOR
        assert res.f_max == pytest.approx(2.0, rel=1e-14)
        assert np.allclose(res.X_repr, [2.0 ** -0.5, 2.0 ** -0.5])

    def test_vertex_example(self):
        res = sphere_max([5.0, 1.0], 3.0)
        assert res.regime == REGIME_VERTEX
        assert res.f_max == pytest.approx(5.0)
        assert np.allclose(res.X_repr, [1.0, 0.0])
        assert res.X_description["indices"] == [0]

    def test_vertex_tie_picks_smallest_index(self):
        res = sphere_max([5.0, 5.0, 1.0], 3.0)
        assert np.allclose(res.X_repr, [1.0, 0.0, 0.0])
        assert res.X_description["indices"] == [0, 1]

    def test_face_example(self):
        res = sphere_max([3.0, 1.0], 3.0)
        assert res.regime == REGIME_FACE
        assert res.f_max == pytest.approx(3.0)
        assert np.allclose(res.X_repr, [1.0, 0.0])

    def test_uniform_zero_mu(self):
        for k in (2, 3, 4):
            res = sphere_max(np.zeros(k), 1.0)
            assert res.f_max == pytest.approx(1.0 - 1.0 / k, rel=1e-14)

    def test_repr_is_unit_and_achieves_max(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            k = int(rng.integers(2, 5))
            mu = rng.uniform(0.1, 2.0, size=k)
            b = rng.uniform(0.2, 3.0)
            res = sphere_max(mu, b)
            assert np.linalg.norm(res.X_repr) == pytest.approx(1.0, abs=1e-12)
            z = res.X_repr ** 2
            assert z @ coupling_matrix(mu, b) @ z == pytest.approx(res.f_max, abs=1e-10)

    def test_interior_multiplier_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            k = int(rng.integers(2, 5))
            mu = rng.uniform(0.1, 1.0, size=k)
            b = float(mu.max()) * rng.uniform(1.1, 3.0)
            res = sphere_max(mu, b)
            assert res.regime == REGIME_INTERIOR
            total = np.sum((b - res.f_max) / (b - mu))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_continuity_across_regimes(self):
        mu = np.array([0.5, 0.9])
        b = 0.9
        lo = sphere_max(np.array([0.5, b - 1e-6]), b)
        hi = sphere_max(np.array([0.5, b + 1e-6]), b)
        assert lo.regime == REGIME_INTERIOR and hi.regime == REGIME_VERTEX
        assert abs(lo.f_max - b) < 1e-4
        assert abs(hi.f_max - b) < 1e-4

    @pytest.mark.parametrize(
        "mu,b,message",
        [([np.inf, 1.0], 2.0, "mu must be"), ([np.nan, 1.0], 2.0, "mu must be"),
         ([1.0, 1.0], np.nan, "b must be"), ([1.0, 1.0], np.inf, "b must be"),
         ([[1.0, 1.0]], 2.0, "mu must be"), (np.ones((2, 2)), 2.0, "mu must be"),
         ([1.0], 2.0, "sphere_max needs k >= 2, got 1")],
        ids=["inf-mu", "nan-mu", "nan-b", "inf-b", "row-mu", "matrix-mu", "one-entry"],
    )
    def test_rejects_non_finite_or_non_vector_input(self, mu, b, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            sphere_max(mu, b)


class TestReduceSystem:
    def test_three_equation_example(self):
        p = ParameterSet.make([1.0, 1.0, 2.0], [1.0, 1.0, 1.0], 3.0)
        red = reduce_system(p, (0, 1))
        assert red.reduced.d == 2
        assert np.allclose(red.reduced.lam, [1.0, 2.0])
        assert np.allclose(red.reduced.mu, [2.0, 1.0])
        assert red.reduced.constant_coupling() == pytest.approx(3.0)
        assert red.retained == (2,)

    def test_full_merge_gives_single_equation(self):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0)
        red = reduce_system(p, (0, 1))
        assert red.reduced.d == 1
        assert red.reduced.mu[0] == pytest.approx(2.0)
        g = RadialGrid.make(1, 20.0, 1500)
        res = ground_state(red.reduced, g)
        assert res.level == pytest.approx(2.0 / 3.0, rel=1e-3)

    def test_equal_mu_interior_closed_form(self):
        # k equal mu's below b merge to mu' = b - (b - mu)/k
        for k, mu, b in ((2, 1.0, 3.0), (3, 0.5, 2.0), (4, 1.2, 5.0)):
            p = ParameterSet.make([1.0] * k, [mu] * k, b)
            red = reduce_system(p, tuple(range(k)))
            assert red.reduced.mu[0] == pytest.approx(b - (b - mu) / k, rel=1e-12)

    def test_rejects_nonconstant_coupling(self):
        b = [[0, 2.0, 2.0], [2.0, 0, 3.0], [2.0, 3.0, 0]]
        p = ParameterSet.make([1.0] * 3, [1.0] * 3, b)
        with pytest.raises(ValueError, match="constant coupling"):
            reduce_system(p, (0, 1))

    def test_rejects_unequal_group_lambdas(self):
        p = ParameterSet.make([1.0, 1.5, 2.0], [1.0] * 3, 3.0)
        with pytest.raises(ValueError, match="share one lambda"):
            reduce_system(p, (0, 1))

    def test_rejects_small_group(self):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0)
        with pytest.raises(ValueError, match="at least 2"):
            reduce_system(p, (0,))

    def test_rejects_fractional_group_index(self):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0)
        with pytest.raises(ValueError, match="integer"):
            reduce_system(p, (0.7, 1))


class TestLift:
    def test_symmetric_pair_lift(self):
        p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0)
        red = reduce_system(p, (0, 1))
        g = RadialGrid.make(1, 20.0, 1500)
        res = ground_state(red.reduced, g)
        lifted = lift_ground_state(res, red)
        assert lifted.d == 2
        assert np.array_equal(lifted.values[0], lifted.values[1])
        assert np.allclose(lifted.values[0], res.fields.values[0] / np.sqrt(2.0))
        bk = action(lifted, p)
        assert bk.action == pytest.approx(res.level, rel=1e-8)

    def test_lift_preserves_action_with_retained_component(self):
        p = ParameterSet.make([1.0, 1.0, 2.0], [1.0, 1.0, 1.0], 3.0)
        red = reduce_system(p, (0, 1))
        g = RadialGrid.make(1, 20.0, 1000)
        res = ground_state(red.reduced, g)
        lifted = lift_ground_state(res, red)
        assert action(lifted, p).action == pytest.approx(res.level, rel=1e-8)

    def test_lift_of_zero_merged_component(self):
        p = ParameterSet.make([1.0, 1.0, 2.0], [1.0, 1.0, 1.0], 3.0)
        red = reduce_system(p, (0, 1))
        g = RadialGrid.make(1, 10.0, 200)
        vals = np.zeros((2, 201))
        vals[1, :100] = 0.3  # merged slot zero, retained nonzero
        from cnls.grid import MultiField
        from cnls.solver import GroundStateResult

        fake = GroundStateResult(
            fields=MultiField(g, vals), level=0.0, support=(1,),
            iterations=0, grad_norm=0.0, starts_used=1, converged=True,
        )
        lifted = lift_ground_state(fake, red)
        assert np.all(lifted.values[0] == 0.0)
        assert np.all(lifted.values[1] == 0.0)
        assert np.array_equal(lifted.values[2], vals[1])

    def test_mapping_mismatch(self):
        p = ParameterSet.make([1.0, 1.0, 2.0], [1.0, 1.0, 1.0], 3.0)
        red = reduce_system(p, (0, 1))
        g = RadialGrid.make(1, 10.0, 200)
        res = ground_state(ParameterSet.make([1.0], [1.0], 0.0), g)
        with pytest.raises(ValueError, match="mismatch"):
            lift_ground_state(res, red)


def test_reduction_consistency_end_to_end():
    # the theorem's main claim at desk scale: merging the two equal-lambda
    # components does not change the ground-state level
    p = ParameterSet.make([1.0, 1.0, 2.0], [1.0, 1.0, 1.0], 3.0)
    g = RadialGrid.make(1, 20.0, 800)
    full = ground_state(p, g)
    red = reduce_system(p, (0, 1))
    reduced = ground_state(red.reduced, g)
    assert full.level == pytest.approx(reduced.level, rel=3e-3)
    sup = np.abs(full.fields.values[0] - full.fields.values[1]).max()
    scale = max(np.abs(full.fields.values[0]).max(), 1e-300)
    assert sup / scale <= 1e-3
