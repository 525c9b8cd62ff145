"""Problem parameters and closed-form admissibility conditions.

The system under study is the weakly coupled cubic Schrodinger system

    -Laplace(u_i) + lambda_i u_i = mu_i u_i^3 + u_i sum_{j != i} b_ij u_j^2,
    u_i in H^1(R^N),  i = 1, ..., d,

with 1 <= N <= 3, lambda_i > 0, mu_i > 0 and symmetric cooperative
couplings b_ij = b_ji > 0.  A :class:`ParameterSet` is the full problem
datum.  The remaining functions are cheap, exact evaluations of the
closed-form hypotheses that govern whether ground states keep every
component alive: the max/min ratio ("alpha-admissibility") conditions on
the lambdas, the spread condition on the couplings, and the small-coupling
bound below which the ground states are always semitrivial.

All inequalities are strict: a tie (e.g. max = alpha * min) reports "not
admissible".  None of these predicates runs the numerical solver; the
classifier in :mod:`cnls.phase` is the arbiter whenever a hypothesis alone
is not decisive.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

#: Relative tolerance used wherever "these values are equal" is a
#: hypothesis (grouping of equal lambdas, constant coupling matrices).
#: Config-file input represents intended equality exactly; swept or derived
#: values may be perturbed in the last bits, hence a tolerance instead of ==.
EQUAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ParameterSet:
    """The full problem datum: d equations on R^N with coefficient arrays.

    ``lam`` and ``mu`` are length-d vectors of positive reals, ``b`` is the
    d x d symmetric coupling matrix whose diagonal is ignored.
    """

    d: int
    N: int
    lam: np.ndarray
    mu: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        lam = np.array(self.lam, dtype=float)
        mu = np.array(self.mu, dtype=float)
        b = np.array(self.b, dtype=float)
        for arr in (lam, mu, b):
            arr.flags.writeable = False
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "b", b)

    @classmethod
    def make(cls, lam, mu, b, N=1):
        """Build a parameter set; ``b`` may be a scalar (constant coupling).

        A scalar ``b`` fills every off-diagonal entry; the diagonal is zero.
        """
        lam = np.atleast_1d(np.array(lam, dtype=float))
        mu = np.atleast_1d(np.array(mu, dtype=float))
        d = len(lam)
        if np.isscalar(b) or np.ndim(b) == 0:
            bm = np.full((d, d), float(b))
            np.fill_diagonal(bm, 0.0)
        else:
            bm = np.array(b, dtype=float)
        return cls(d=d, N=int(N), lam=lam, mu=mu, b=bm)

    def to_json_dict(self):
        return {
            "d": int(self.d),
            "N": int(self.N),
            "lambda": [float(x) for x in self.lam],
            "mu": [float(x) for x in self.mu],
            "b": [[float(x) for x in row] for row in self.b],
        }

    @classmethod
    def from_json_dict(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("parameters must be a JSON object")
        missing = [k for k in ("d", "N", "lambda", "mu", "b") if k not in obj]
        if missing:
            raise ValueError(f"parameters lack key(s): {missing}")
        try:
            lam, mu, b = (np.array(obj[k], dtype=float) for k in ("lambda", "mu", "b"))
        except TypeError as exc:
            raise ValueError(f"parameters hold a non-numeric entry: {exc}") from exc
        p = cls(d=as_int(obj["d"], "d"), N=as_int(obj["N"], "N"), lam=lam, mu=mu, b=b)
        return validate(p)

    def constant_coupling(self):
        """Return the common off-diagonal coupling, or None if not constant."""
        if self.d < 2:
            return None
        off = self.b[~np.eye(self.d, dtype=bool)]
        if values_all_equal(off):
            return float(off.mean())
        return None

    def replace(self, lam=None, mu=None, b=None):
        """Copy with some coefficient arrays replaced (revalidated)."""
        return validate(
            ParameterSet(
                d=self.d,
                N=self.N,
                lam=self.lam if lam is None else np.array(lam, dtype=float),
                mu=self.mu if mu is None else np.array(mu, dtype=float),
                b=self.b if b is None else np.array(b, dtype=float),
            )
        )


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of a max/min ratio test against a threshold alpha."""

    alpha: float
    ratio: float
    admissible: bool


@dataclass(frozen=True)
class SpreadConditionReport:
    """Outcome of the coupling-spread condition (equal-lambda systems).

    ``alpha_gap`` is min_i (min_{j != i} b_ij - mu_i); ``spread`` is the
    largest within-row difference max |b_ij - b_ik| over j, k != i.  The
    condition holds when alpha_gap > 0 and spread < alpha_gap / (d - 2).
    """

    alpha_gap: float
    spread: float
    holds: bool


def values_all_equal(values):
    """True when all entries agree within EQUAL_TOL, relative."""
    values = np.asarray(values, dtype=float)
    if values.size <= 1:
        return True
    scale = np.abs(values).max()
    return float(values.max() - values.min()) <= EQUAL_TOL * max(scale, 1e-300)


def as_int(value, name):
    """``value`` as an int; a bool or a non-integral number from a config is
    an error, not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_float(value, name):
    """``value`` as a float; a bool, string or other non-number is an error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def validate(p: ParameterSet) -> ParameterSet:
    """Check every ParameterSet invariant; return ``p`` unchanged if valid.

    Raises ValueError naming the first violated invariant.
    """
    if int(p.d) < 1:
        raise ValueError(f"d must be >= 1, got {p.d}")
    if p.N not in (1, 2, 3):
        raise ValueError(f"N must be 1, 2 or 3, got {p.N}")
    if p.lam.shape != (p.d,):
        raise ValueError(f"lambda must have length d={p.d}, got shape {p.lam.shape}")
    if p.mu.shape != (p.d,):
        raise ValueError(f"mu must have length d={p.d}, got shape {p.mu.shape}")
    if p.b.shape != (p.d, p.d):
        raise ValueError(f"b must be a {p.d}x{p.d} matrix, got shape {p.b.shape}")
    if not np.all(np.isfinite(p.lam)) or np.any(p.lam <= 0):
        raise ValueError("positivity violated: every lambda_i must be > 0")
    if not np.all(np.isfinite(p.mu)) or np.any(p.mu <= 0):
        raise ValueError("positivity violated: every mu_i must be > 0")
    if not np.all(np.isfinite(p.b)):
        raise ValueError("coupling matrix has non-finite entries")
    for i in range(p.d):
        for j in range(i + 1, p.d):
            if p.b[i, j] != p.b[j, i]:
                raise ValueError(
                    f"symmetry violated: b[{i}][{j}]={p.b[i, j]} != b[{j}][{i}]={p.b[j, i]}"
                )
            if p.b[i, j] <= 0:
                raise ValueError(
                    f"cooperative regime requires b[{i}][{j}] > 0, got {p.b[i, j]}"
                )
    return p


def is_alpha_admissible(a, alpha) -> AdmissibilityReport:
    """Test max a_i < alpha * min a_i (strictly) for a positive vector.

    The report is scale invariant: multiplying ``a`` by any c > 0 leaves
    ratio and verdict unchanged.
    """
    a = np.atleast_1d(np.array(a, dtype=float))
    if a.size < 2:
        raise ValueError(f"admissibility needs at least 2 entries, got {a.size}")
    if np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise ValueError("admissibility requires strictly positive entries")
    alpha = float(alpha)
    if alpha <= 1:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    amax = float(a.max())
    amin = float(a.min())
    return AdmissibilityReport(
        alpha=alpha, ratio=amax / amin, admissible=amax < alpha * amin
    )


def alpha_threshold(omega, d, N):
    """Admissibility threshold alpha(omega, d, N) for the lambda tail.

    With rho(k) = (k - 2)/(k - 1) and omega = lambda_2/lambda_1 >= 1,

        alpha = (1 - (rho(d) - rho(d-1)) /
                 (sqrt(2 omega^2 ((rho(d-1) + omega)^2 + omega^2)
                       / (rho(d-1) + 2 omega)^2) + rho(d))) ** (-2/(4-N)).

    Strictly decreasing in d at fixed omega and N, and always > 1.
    """
    omega = float(omega)
    d = int(d)
    if d < 3:
        raise ValueError(f"alpha_threshold requires d >= 3, got {d}")
    if N not in (1, 2, 3):
        raise ValueError(f"N must be 1, 2 or 3, got {N}")
    if omega < 1:
        raise ValueError(
            f"omega = lambda_2/lambda_1 must be >= 1 (sorted lambdas), got {omega}"
        )

    def rho(k):
        return (k - 2.0) / (k - 1.0)

    rd, rd1 = rho(d), rho(d - 1)
    root = math.sqrt(
        2.0 * omega**2 * ((rd1 + omega) ** 2 + omega**2) / (rd1 + 2.0 * omega) ** 2
    )
    base = 1.0 - (rd - rd1) / (root + rd)
    return base ** (-2.0 / (4.0 - N))


def small_b_bound(mu):
    """Coupling size below which constant-coupling ground states lose components.

    Returns 2**(1 - d/2) * sqrt(min_i mu_i * max_i mu_i); the caller's
    ordering of ``mu`` is irrelevant.  If b_ij = b < this value for all
    i != j, every ground state has at least one zero component.
    """
    mu = np.atleast_1d(np.array(mu, dtype=float))
    d = mu.size
    if d < 2:
        raise ValueError(f"small_b_bound requires d >= 2, got {d}")
    if np.any(mu <= 0):
        raise ValueError("mu entries must be > 0")
    return 2.0 ** (1.0 - d / 2.0) * math.sqrt(float(mu.min()) * float(mu.max()))


def coupling_spread_condition(p: ParameterSet) -> SpreadConditionReport:
    """Spread condition on non-constant couplings for equal-lambda systems.

    Requires d >= 3 and all lambda_i equal (that equality is a hypothesis of
    the condition, so unequal lambdas are a precondition error, not a False).
    """
    validate(p)
    if p.d < 3:
        raise ValueError(f"coupling spread condition requires d >= 3, got d={p.d}")
    if not values_all_equal(p.lam):
        raise ValueError(
            "hypothesis violated: the coupling spread condition assumes "
            "lambda_1 = ... = lambda_d"
        )
    gaps = []
    spread = 0.0
    for i in range(p.d):
        row = np.array([p.b[i, j] for j in range(p.d) if j != i])
        gaps.append(float(row.min()) - float(p.mu[i]))
        spread = max(spread, float(row.max() - row.min()))
    alpha_gap = min(gaps)
    holds = alpha_gap > 0 and spread < alpha_gap / (p.d - 2)
    return SpreadConditionReport(alpha_gap=alpha_gap, spread=spread, holds=holds)


def lambda_cluster_condition(lam) -> AdmissibilityReport:
    """Admissibility of the whole lambda vector at alpha = 1 + 1/(d-2).

    When the lambdas cluster this tightly (and the coupling is constant and
    large), ground states are fully nontrivial.
    """
    lam = np.atleast_1d(np.array(lam, dtype=float))
    d = lam.size
    if d < 3:
        raise ValueError(f"lambda cluster condition requires d >= 3, got d={d}")
    return is_alpha_admissible(lam, 1.0 + 1.0 / (d - 2))


def lambda_tail_condition(lam, N) -> AdmissibilityReport:
    """Admissibility of (lambda_2, ..., lambda_d) at alpha(omega, d, N).

    ``lam`` must be sorted in nondecreasing order; omega = lambda_2/lambda_1.
    Only the tail must cluster: the two smallest lambdas are unconstrained
    relative to each other.
    """
    lam = np.atleast_1d(np.array(lam, dtype=float))
    d = lam.size
    if d < 3:
        raise ValueError(f"lambda tail condition requires d >= 3, got d={d}")
    if np.any(np.diff(lam) < 0):
        raise ValueError("lambda vector must be sorted in nondecreasing order")
    if np.any(lam <= 0):
        raise ValueError("lambda entries must be > 0")
    omega = float(lam[1] / lam[0])
    alpha = alpha_threshold(omega, d, N)
    return is_alpha_admissible(lam[1:], alpha)
