import json

import numpy as np
import pytest

from cnls.params import (
    ParameterSet,
    alpha_threshold,
    coupling_spread_condition,
    is_alpha_admissible,
    lambda_cluster_condition,
    lambda_tail_condition,
    small_b_bound,
    validate,
    values_all_equal,
)


def test_validate_accepts_symmetric_cooperative_pair():
    p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0, N=1)
    assert validate(p) is p


def test_validate_rejects_asymmetric_coupling():
    b = np.array([[0.0, 2.0], [3.0, 0.0]])
    with pytest.raises(ValueError, match="symmetry"):
        ParameterSet(d=2, N=1, lam=np.ones(2), mu=np.ones(2), b=b)


def test_validate_rejects_nonpositive_mu():
    with pytest.raises(ValueError, match="positivity"):
        ParameterSet(d=2, N=1, lam=np.ones(2), mu=np.array([1.0, 0.0]),
                     b=np.array([[0.0, 2.0], [2.0, 0.0]]))


def test_validate_rejects_bad_dimension():
    with pytest.raises(ValueError, match="N must be"):
        ParameterSet(d=1, N=4, lam=np.ones(1), mu=np.ones(1), b=np.zeros((1, 1)))


def test_validate_rejects_noncooperative_coupling():
    p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0, N=1)
    b = np.array(p.b)
    b[0, 1] = b[1, 0] = -0.5
    with pytest.raises(ValueError, match="cooperative"):
        ParameterSet(d=2, N=1, lam=p.lam, mu=p.mu, b=b)


def test_make_rejects_negative_coupling():
    with pytest.raises(ValueError, match="cooperative"):
        ParameterSet.make([1.0, 1.0], [1.0, 1.0], -1.0)


def test_json_roundtrip_and_symmetry_check_on_load():
    p = ParameterSet.make([1.0, 2.0, 3.0], [0.5, 1.0, 1.5], 2.5, N=2)
    blob = json.dumps(p.to_json_dict())
    q = ParameterSet.from_json_dict(json.loads(blob))
    assert q.d == 3 and q.N == 2
    assert np.array_equal(q.lam, p.lam)
    assert np.array_equal(q.b, p.b)
    bad = p.to_json_dict()
    bad["b"][0][1] = 99.0
    with pytest.raises(ValueError, match="symmetry"):
        ParameterSet.from_json_dict(bad)


def test_constant_coupling_detection():
    assert ParameterSet.make([1.0, 1.0], [1.0, 1.0], 2.0).constant_coupling() == 2.0
    p = ParameterSet.make([1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
                          [[0, 2, 2], [2, 0, 3], [2, 3, 0]])
    assert p.constant_coupling() is None
    assert ParameterSet.make([1.0], [1.0], 0.0).constant_coupling() is None


class TestAlphaAdmissible:
    def test_equal_vector_always_admissible(self):
        rep = is_alpha_admissible([1.0, 1.0, 1.0], 1.0001)
        assert rep.admissible and rep.ratio == 1.0

    def test_boundary_tie_is_not_admissible(self):
        assert not is_alpha_admissible([1.0, 2.0], 2.0).admissible

    def test_strictly_inside_is_admissible(self):
        assert is_alpha_admissible([1.0, 1.4, 1.9], 2.0).admissible

    @pytest.mark.parametrize("bad,alpha", [([1.0], 2.0), ([], 2.0)])
    def test_rejects_short_vectors(self, bad, alpha):
        with pytest.raises(ValueError):
            is_alpha_admissible(bad, alpha)

    def test_rejects_nonpositive_entries_and_alpha(self):
        with pytest.raises(ValueError):
            is_alpha_admissible([1.0, -1.0], 2.0)
        with pytest.raises(ValueError):
            is_alpha_admissible([1.0, 2.0], 1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.uniform(0.2, 5.0, size=rng.integers(2, 6))
            alpha = rng.uniform(1.01, 4.0)
            c = rng.uniform(1e-3, 1e3)
            r1 = is_alpha_admissible(a, alpha)
            r2 = is_alpha_admissible(c * a, alpha)
            assert r1.admissible == r2.admissible
            assert r1.ratio == pytest.approx(r2.ratio, rel=1e-12)


class TestAlphaThreshold:
    def test_known_value_omega1_d3_N3(self):
        assert alpha_threshold(1.0, 3, 3) == pytest.approx(2.25, rel=1e-12)

    def test_known_value_omega1_d3_N1(self):
        assert alpha_threshold(1.0, 3, 1) == pytest.approx((2.0 / 3.0) ** (-2.0 / 3.0), rel=1e-12)
        assert alpha_threshold(1.0, 3, 1) == pytest.approx(1.3104, abs=5e-5)

    def test_limit_for_many_equations(self):
        val = alpha_threshold(1.0, 50, 3)
        assert 1.0 < val < 1.05

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("omega", [1.0, 1.5, 3.0])
    def test_strictly_decreasing_in_d(self, omega, N):
        vals = [alpha_threshold(omega, d, N) for d in range(3, 11)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_always_above_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            omega = rng.uniform(1.0, 10.0)
            d = int(rng.integers(3, 12))
            N = int(rng.integers(1, 4))
            assert alpha_threshold(omega, d, N) > 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            alpha_threshold(1.0, 2, 1)
        with pytest.raises(ValueError):
            alpha_threshold(1.0, 3, 4)
        with pytest.raises(ValueError):
            alpha_threshold(0.5, 3, 1)


class TestSmallBBound:
    def test_two_components(self):
        assert small_b_bound([1.0, 4.0]) == pytest.approx(2.0, rel=1e-14)

    def test_three_equal(self):
        assert small_b_bound([1.0, 1.0, 1.0]) == pytest.approx(2.0 ** -0.5, rel=1e-14)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        mu = rng.uniform(0.1, 5.0, size=4)
        base = small_b_bound(mu)
        for _ in range(5):
            assert small_b_bound(rng.permutation(mu)) == pytest.approx(base, rel=1e-14)
        assert small_b_bound([4.0, 1.0]) == pytest.approx(2.0)

    def test_requires_two_components(self):
        with pytest.raises(ValueError):
            small_b_bound([1.0])


class TestCouplingSpread:
    def test_constant_coupling_holds(self):
        p = ParameterSet.make([1.0] * 3, [1.0] * 3, 2.0)
        rep = coupling_spread_condition(p)
        assert rep.alpha_gap == pytest.approx(1.0)
        assert rep.spread == 0.0
        assert rep.holds

    def test_spread_too_wide_fails(self):
        b = [[0, 2.0, 2.0], [2.0, 0, 3.5], [2.0, 3.5, 0]]
        p = ParameterSet.make([1.0] * 3, [1.0] * 3, b)
        rep = coupling_spread_condition(p)
        assert rep.alpha_gap == pytest.approx(1.0)
        assert rep.spread == pytest.approx(1.5)
        assert not rep.holds

    def test_four_equations_constant(self):
        p = ParameterSet.make([1.0] * 4, [1.0] * 4, 5.0)
        rep = coupling_spread_condition(p)
        assert rep.alpha_gap == pytest.approx(4.0)
        assert rep.holds

    def test_unequal_lambda_is_a_precondition_error(self):
        p = ParameterSet.make([1.0, 1.0, 1.5], [1.0] * 3, 2.0)
        with pytest.raises(ValueError, match="lambda"):
            coupling_spread_condition(p)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        b = np.zeros((4, 4))
        iu = np.triu_indices(4, 1)
        b[iu] = rng.uniform(2.0, 2.3, size=len(iu[0]))
        b = b + b.T
        mu = rng.uniform(0.5, 1.5, size=4)
        p = ParameterSet.make([1.0] * 4, mu, b)
        base = coupling_spread_condition(p)
        perm = rng.permutation(4)
        q = ParameterSet.make([1.0] * 4, mu[perm], b[np.ix_(perm, perm)])
        rep = coupling_spread_condition(q)
        assert rep.holds == base.holds
        assert rep.alpha_gap == pytest.approx(base.alpha_gap, rel=1e-14)
        assert rep.spread == pytest.approx(base.spread, abs=1e-14)


class TestLambdaConditions:
    def test_cluster_examples(self):
        assert lambda_cluster_condition([1.0, 1.5, 1.9]).admissible  # alpha = 2
        rep = lambda_cluster_condition([1.0, 1.2, 1.4, 1.6])  # alpha = 1.5
        assert rep.alpha == pytest.approx(1.5) and not rep.admissible
        assert lambda_cluster_condition([0.7, 0.7, 0.7]).admissible

    def test_cluster_needs_three(self):
        with pytest.raises(ValueError):
            lambda_cluster_condition([1.0, 2.0])

    def test_tail_examples(self):
        rep = lambda_tail_condition([1.0, 1.0, 1.0], 3)
        assert rep.alpha == pytest.approx(2.25) and rep.admissible
        assert not lambda_tail_condition([1.0, 1.0, 2.3], 3).admissible
        assert lambda_tail_condition([1.0, 1.0, 2.2], 3).admissible

    def test_tail_requires_sorted_input(self):
        with pytest.raises(ValueError, match="sorted"):
            lambda_tail_condition([2.0, 1.0, 3.0], 1)


def test_values_all_equal_tolerance():
    assert values_all_equal([1.0, 1.0 + 1e-14])
    assert not values_all_equal([1.0, 1.0 + 1e-9])
    assert values_all_equal([5.0])
