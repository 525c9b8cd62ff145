import numpy as np
import pytest

from cnls.functional import action, simplex_qp_max
from cnls.grid import RadialGrid, default_radius
from cnls.params import ParameterSet
from cnls.reduction import lift_ground_state, reduce_system
from cnls.solver import ground_state


def coupling_matrix(mu, b):
    """B with mu on the diagonal and b off it: f(X) = z^T B z at z = X^2."""
    B = np.full((len(mu), len(mu)), float(b))
    np.fill_diagonal(B, mu)
    return B


def merge(mu, b):
    """F = reduced mu and z of the reduction of all len(mu) components, one
    lambda and a constant coupling b."""
    red = reduce_system(ParameterSet.make([1.0] * len(mu), mu, b), tuple(range(len(mu))))
    return red.reduced.mu[0], red.z


class TestSphereMax:
    """The sphere maximum f_max = max z^T B z (z = X^2) that merges a group,
    in the closed-form regimes of a constant coupling."""

    def test_interior_example(self):
        F, z = merge([1.0, 1.0], 3.0)
        assert F == pytest.approx(2.0, rel=1e-14)
        assert np.allclose(z, [0.5, 0.5])

    def test_vertex_example(self):
        F, z = merge([5.0, 1.0], 3.0)
        assert F == 5.0 and np.array_equal(z, [1.0, 0.0])

    def test_vertex_tie_picks_smallest_index(self):
        F, z = merge([5.0, 5.0, 1.0], 3.0)
        assert F == 5.0 and np.array_equal(z, [1.0, 0.0, 0.0])

    def test_face_example(self):
        F, z = merge([3.0, 1.0], 3.0)
        assert F == pytest.approx(3.0) and np.allclose(z, [1.0, 0.0])

    def test_uniform_zero_mu(self):
        # mu -> 0 at b = 1: F = 1 - (1 - mu)/k tends to 1 - 1/k at the uniform z
        for k in (2, 3, 4):
            F, z = merge([1e-300] * k, 1.0)
            assert F == pytest.approx(1.0 - 1.0 / k, rel=1e-14)
            assert np.allclose(z, 1.0 / k, rtol=0, atol=1e-14)

    def test_repr_is_unit_and_achieves_max(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            k = int(rng.integers(2, 5))
            mu = rng.uniform(0.1, 2.0, size=k)
            b = rng.uniform(0.2, 3.0)
            F, z = merge(mu, b)
            assert np.all(z >= 0) and np.linalg.norm(np.sqrt(z)) == pytest.approx(1.0, abs=1e-12)
            assert z @ coupling_matrix(mu, b) @ z == pytest.approx(F, abs=1e-10)

    def test_interior_multiplier_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            k = int(rng.integers(2, 5))
            mu = rng.uniform(0.1, 1.0, size=k)
            b = float(mu.max()) * rng.uniform(1.1, 3.0)
            F, z = merge(mu, b)
            assert np.all(z > 0)
            total = np.sum((b - F) / (b - mu))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_continuity_across_regimes(self):
        b = 0.9
        lo_F, lo_z = merge(np.array([0.5, b - 1e-6]), b)
        hi_F, hi_z = merge(np.array([0.5, b + 1e-6]), b)
        assert np.all(lo_z > 0) and np.array_equal(hi_z, [0.0, 1.0])
        assert abs(lo_F - b) < 1e-4
        assert abs(hi_F - b) < 1e-4


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
        # component 2 couples to the group {0, 1} by 2 and by 3
        b = [[0, 2.0, 2.0], [2.0, 0, 3.0], [2.0, 3.0, 0]]
        p = ParameterSet.make([1.0] * 3, [1.0] * 3, b)
        with pytest.raises(ValueError, match=r"retained component 2 couples to group "
                                             r"members 0 and 1 by different values"):
            reduce_system(p, (0, 1))

    def test_accepts_nonconstant_group_coupling(self):
        # the group {0, 1, 3} couples by 3, 2 and 1.5 inside; component 2
        # couples to all three by 1.2
        b = [[0, 3.0, 1.2, 2.0], [3.0, 0, 1.2, 1.5], [1.2, 1.2, 0, 1.2], [2.0, 1.5, 1.2, 0]]
        p = ParameterSet.make([1.0, 1.0, 2.0, 1.0], [1.0, 0.5, 0.7, 2.0], b)
        red = reduce_system(p, (3, 0, 1))
        F, z = simplex_qp_max([[1.0, 3.0, 2.0], [3.0, 0.5, 1.5], [2.0, 1.5, 2.0]])
        assert red.group == (0, 1, 3) and red.retained == (2,)
        assert np.array_equal(red.reduced.lam, [1.0, 2.0])
        assert np.array_equal(red.reduced.mu, [F, 0.7])
        assert np.array_equal(red.reduced.b, [[0.0, 1.2], [1.2, 0.0]])
        assert np.array_equal(red.z, z)

    @pytest.mark.parametrize(
        "lam,mu,b,group",
        [([1.0, 1.0, 1.5], [1.0, 1.4, 0.8], [[0, 2.5, 1.7], [2.5, 0, 1.7], [1.7, 1.7, 0]],
          (0, 1)),
         ([0.8, 1.2, 0.8], [1.2, 1.0, 0.6], [[0, 2.5, 1.6], [2.5, 0, 2.5], [1.6, 2.5, 0]],
          (0, 2))],
        ids=["retained-off", "retained-on"],
    )
    def test_nonconstant_group_levels_match(self, lam, mu, b, group):
        # the reduction is exact on the grid, so the two levels agree to roundoff
        p = ParameterSet.make(lam, mu, b, N=3)
        g = RadialGrid.make(3, default_radius(min(lam)), 400)
        red = reduce_system(p, group)
        full, reduced = ground_state(p, g), ground_state(red.reduced, g)
        assert full.converged and reduced.converged
        assert full.level == pytest.approx(reduced.level, rel=1e-12)
        lifted = lift_ground_state(reduced, red)
        assert action(lifted, p).action == pytest.approx(reduced.level, rel=1e-12)

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
        # the second input is the face tie mu_0 = mu_1 = b: z is the vertex e_0
        g = RadialGrid.make(1, 20.0, 1000)
        for mu in ([1.0, 1.0, 1.0], [3.0, 3.0, 1.0]):
            p = ParameterSet.make([1.0, 1.0, 2.0], mu, 3.0)
            red = reduce_system(p, (0, 1))
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
