import dataclasses
import json
import math

import numpy as np
import pytest

from cnls.params import ParameterSet, alpha_threshold, small_b_bound, validate, values_all_equal
from cnls.phase import evaluate_predicates, set_parameter


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


def test_validate_rejects_nonpositive_lambda():
    with pytest.raises(ValueError, match="positivity"):
        ParameterSet.make([1.0, 0.0], [1.0, 1.0], 2.0)


PAIR_JSON = {"d": 2, "N": 1, "lambda": [1.0, 1.0], "mu": [1.0, 1.0],
             "b": [[0.0, 2.0], [2.0, 0.0]]}


@pytest.mark.parametrize("key, value", [
    ("mu", ["1.0", 1.0]), ("mu", [True, 1.0]), ("lambda", [1.0, False]),
    ("b", [[0.0, "2"], ["2", 0.0]]), ("b", [[0.0, True], [True, 0.0]]), ("lambda", [1.0, None]),
])
def test_from_json_rejects_coerced_entries(key, value):
    with pytest.raises(ValueError, match=f"{key} entry must be a number"):
        ParameterSet.from_json_dict({**PAIR_JSON, key: value})


PAIR = ParameterSet.from_json_dict(PAIR_JSON)

#: Every way of building a parameter set, as f(lambda, mu, b, N=1[, d=2]).
WAYS_IN = {
    "constructor": lambda lam, mu, b, N=1, d=2: ParameterSet(d=d, N=N, lam=lam, mu=mu, b=b),
    "make": lambda lam, mu, b, N=1: ParameterSet.make(lam, mu, b, N=N),
    "from_json": lambda lam, mu, b, N=1, d=2: ParameterSet.from_json_dict(
        {"d": d, "N": N, "lambda": lam, "mu": mu, "b": b}),
    "replace": lambda lam, mu, b, N=1, d=2: dataclasses.replace(PAIR, d=d, N=N, lam=lam,
                                                                mu=mu, b=b),
}


# the JSON path has its own cases in test_from_json_rejects_coerced_entries
@pytest.mark.parametrize("way", sorted(set(WAYS_IN) - {"from_json"}))
@pytest.mark.parametrize("key, value", [
    ("lambda", ["1.0", 1.0]), ("lambda", [1.0, True]), ("lambda", ("1", True)),
    ("mu", [1, "2"]), ("mu", np.array([True, True])), ("mu", np.array(["1", "2"])),
    ("b", "3"), ("b", True), ("b", [[0.0, "2"], ["2", 0.0]]),
    ("b", np.array([[0.0, True], [True, 0.0]], dtype=object)), ("b", [[0.0, 2j], [2j, 0.0]]),
])
def test_every_way_in_rejects_coerced_entries(way, key, value):
    args = {"lambda": [1.0, 1.0], "mu": [1.0, 1.0], "b": [[0.0, 2.0], [2.0, 0.0]], key: value}
    with pytest.raises(ValueError, match=f"^{key} entry must be a number, got "):
        WAYS_IN[way](args["lambda"], args["mu"], args["b"])


@pytest.mark.parametrize("way, key, value", [
    (way, key, value) for way in sorted(WAYS_IN)
    for key, value in (("N", 1.9), ("N", True), ("N", "1"), ("d", 2.0))
    if (way, key) != ("make", "d")  # make takes d from len(lambda)
])
def test_every_way_in_rejects_non_integer_d_and_N(way, key, value):
    with pytest.raises(ValueError, match=f"^{key} must be an integer, got "):
        WAYS_IN[way]([1.0, 1.0], [1.0, 1.0], [[0.0, 2.0], [2.0, 0.0]], **{key: value})


@pytest.mark.parametrize("way", sorted(WAYS_IN))
@pytest.mark.parametrize("key, value", [
    ("lambda", [[1, 2], [3]]), ("lambda", [1, [1, 2]]), ("mu", [1.0, [1.0]]),
    ("b", [[0, 1], [1]]), ("b", [[0.0, 1.0], 1.0]),
])
def test_every_way_in_names_a_ragged_array(way, key, value):
    args = {"lambda": [1.0, 1.0], "mu": [1.0, 1.0], "b": [[0.0, 2.0], [2.0, 0.0]], key: value}
    with pytest.raises(ValueError, match=f"^{key} must be a rectangular array, got ragged "):
        WAYS_IN[way](args["lambda"], args["mu"], args["b"])


@pytest.mark.parametrize("way", sorted(WAYS_IN))
def test_every_way_in_stores_the_diagonal_of_b_as_zero(way):
    p = WAYS_IN[way]([1.0, 2.0], [1.0, 1.0], np.array([[5.0, 2.0], [2.0, 7.0]]), N=2)
    assert p.to_json_dict() == {"d": 2, "N": 2, "lambda": [1.0, 2.0], "mu": [1.0, 1.0],
                                "b": [[0.0, 2.0], [2.0, 0.0]]}
    assert type(p.d) is int and type(p.N) is int and not p.b.flags.writeable


def test_numpy_scalars_and_integer_arrays_are_accepted():
    p = ParameterSet(d=np.int64(2), N=np.int32(1), lam=np.array([1, 2]), mu=[np.float64(1.0), 1],
                     b=np.array([[0, 3], [3, 0]]))
    q = ParameterSet.make(np.array([1.0, 2.0]), (1, 1.0), np.float64(3.0), N=np.int64(1))
    assert p.to_json_dict() == q.to_json_dict()


@pytest.mark.parametrize("path, value", [("b", True), ("b", "3"), ("lambda[0]", "2"),
                                         ("b[0][1]", False), ("mu[1]", None)])
def test_set_parameter_rejects_coerced_values(path, value):
    with pytest.raises(ValueError, match="must be a number, got "):
        set_parameter(PAIR, path, value)


def test_restrict_is_the_subsystem_on_the_support():
    b = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 4.0], [3.0, 4.0, 0.0]])
    p = ParameterSet.make([1.0, 1.5, 2.0], [0.5, 1.0, 1.5], b, N=3)
    q = p.restrict((2, 0))
    assert q.d == 2 and q.N == 3
    assert np.array_equal(q.lam, p.lam[[0, 2]]) and np.array_equal(q.mu, p.mu[[0, 2]])
    assert np.array_equal(q.b, p.b[np.ix_([0, 2], [0, 2])])
    assert p.restrict(range(3)).to_json_dict() == p.to_json_dict()
    for bad in ((), (3,), (0.5,), (True,), ("1",)):
        with pytest.raises(ValueError, match="support"):
            p.restrict(bad)


@pytest.mark.parametrize("key", ["lambda", "mu"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_validate_rejects_nonfinite_lambda_and_mu(key, value):
    with pytest.raises(ValueError, match=f"^{key} has non-finite entries$"):
        ParameterSet.from_json_dict({**PAIR_JSON, key: [value, 1.0]})


def test_validate_rejects_bad_dimension():
    one, two, pair_b = np.ones(1), np.ones(2), np.array([[0.0, 2.0], [2.0, 0.0]])
    for d, N, lam, mu, b, message in (
        (1, 4, one, one, np.zeros((1, 1)), "N must be 1, 2 or 3, got 4"),
        (0, 1, [], [], np.zeros((0, 0)), "d must be >= 1, got 0"),
        (2, 1, one, two, pair_b, r"lambda must have length d=2, got shape \(1,\)"),
        (2, 1, two, [1.0, 1.0, 1.0], pair_b, r"mu must have length d=2, got shape \(3,\)"),
        (2, 1, two, two, np.ones((2, 3)), r"b must be a 2x2 matrix, got shape \(2, 3\)"),
        (2, 1, two, two, [2.0, 2.0], r"b must be a 2x2 matrix, got shape \(2,\)"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ParameterSet(d=d, N=N, lam=lam, mu=mu, b=b)


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


def predicates_of(lam, mu=None, b=3.0, N=1):
    """`evaluate_predicates` of a parameter set; ``mu`` defaults to ones."""
    mu = [1.0] * len(lam) if mu is None else mu
    return evaluate_predicates(ParameterSet.make(lam, mu, b, N=N))


class TestAlphaAdmissible:
    """The strict max < alpha * min test of lambda_tail and lambda_cluster."""

    def test_equal_vector_always_admissible(self):
        preds = predicates_of([0.7, 0.7, 0.7])
        for name in ("lambda_tail", "lambda_cluster"):
            assert preds[name].info["ratio"] == 1.0 and preds[name].satisfied

    def test_boundary_tie_is_not_admissible(self):
        cluster = predicates_of([1.0, 1.5, 2.0])["lambda_cluster"]  # alpha = 2
        assert (cluster.info["alpha"], cluster.info["ratio"]) == (2.0, 2.0)
        assert cluster.applicable and not cluster.satisfied

    def test_strictly_inside_is_admissible(self):
        assert predicates_of([1.0, 1.4, 1.9])["lambda_cluster"].satisfied

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lam = rng.uniform(0.2, 5.0, size=rng.integers(3, 6))
            c = rng.uniform(1e-3, 1e3)
            base, scaled = predicates_of(lam), predicates_of(c * lam)
            for name in ("lambda_tail", "lambda_cluster"):
                assert scaled[name].satisfied == base[name].satisfied
                assert scaled[name].info["ratio"] == pytest.approx(base[name].info["ratio"],
                                                                    rel=1e-12)


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

    @pytest.mark.parametrize("mu", [[1.0, 0.0], [-1.0, 2.0, 3.0]])
    def test_requires_positive_mu(self, mu):
        with pytest.raises(ValueError, match="^mu entries must be > 0$"):
            small_b_bound(mu)


class TestCouplingSpread:
    def test_constant_coupling_holds(self):
        spread = predicates_of([1.0] * 3, b=2.0)["coupling_spread"]
        assert spread.info == {"alpha_gap": 1.0, "spread": 0.0}
        assert spread.applicable and spread.satisfied

    def test_spread_too_wide_fails(self):
        b = [[0, 2.0, 2.0], [2.0, 0, 3.5], [2.0, 3.5, 0]]
        spread = predicates_of([1.0] * 3, b=b)["coupling_spread"]
        assert spread.info["alpha_gap"] == pytest.approx(1.0)
        assert spread.info["spread"] == pytest.approx(1.5)
        assert spread.applicable and not spread.satisfied

    def test_four_equations_constant(self):
        spread = predicates_of([1.0] * 4, b=5.0)["coupling_spread"]
        assert spread.info["alpha_gap"] == pytest.approx(4.0) and spread.satisfied

    def test_unequal_lambda_is_not_applicable(self):
        spread = predicates_of([1.0, 1.0, 1.5], b=2.0)["coupling_spread"]
        assert not spread.applicable
        assert spread.info == {"reason": "requires equal lambdas"}

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        b = np.zeros((4, 4))
        iu = np.triu_indices(4, 1)
        b[iu] = rng.uniform(2.0, 2.3, size=len(iu[0]))
        b = b + b.T
        mu = rng.uniform(0.5, 1.5, size=4)
        base = predicates_of([1.0] * 4, mu, b)["coupling_spread"]
        perm = rng.permutation(4)
        rep = predicates_of([1.0] * 4, mu[perm], b[np.ix_(perm, perm)])["coupling_spread"]
        assert rep.satisfied == base.satisfied
        assert rep.info["alpha_gap"] == pytest.approx(base.info["alpha_gap"], rel=1e-14)
        assert rep.info["spread"] == pytest.approx(base.info["spread"], abs=1e-14)


class TestLambdaConditions:
    def test_cluster_examples(self):
        assert predicates_of([1.0, 1.5, 1.9])["lambda_cluster"].satisfied  # alpha = 2
        cluster = predicates_of([1.0, 1.2, 1.4, 1.6])["lambda_cluster"]  # alpha = 1.5
        assert cluster.info["alpha"] == pytest.approx(1.5) and not cluster.satisfied
        assert predicates_of([0.7, 0.7, 0.7])["lambda_cluster"].satisfied

    def test_cluster_needs_three(self):
        preds = predicates_of([1.0, 2.0])
        for name in ("lambda_tail", "lambda_cluster"):
            assert not preds[name].applicable
            assert preds[name].info == {"reason": "requires d >= 3"}

    def test_tail_examples(self):
        tail = predicates_of([1.0, 1.0, 1.0], N=3)["lambda_tail"]
        assert tail.info["alpha"] == pytest.approx(2.25) and tail.satisfied
        assert not predicates_of([1.0, 1.0, 2.3], N=3)["lambda_tail"].satisfied
        assert predicates_of([1.0, 1.0, 2.2], N=3)["lambda_tail"].satisfied

    def test_tail_sorts_lambda_itself(self):
        tail = predicates_of([2.0, 1.0, 3.0])["lambda_tail"]
        assert tail.to_json_dict() == predicates_of([1.0, 2.0, 3.0])["lambda_tail"].to_json_dict()
        assert tail.info["alpha"] == alpha_threshold(2.0, 3, 1) and tail.info["ratio"] == 1.5


def test_values_all_equal_tolerance():
    assert values_all_equal([1.0, 1.0 + 1e-14])
    assert not values_all_equal([1.0, 1.0 + 1e-9])
    assert values_all_equal([5.0])
