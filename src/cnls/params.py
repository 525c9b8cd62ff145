"""Problem parameters and the paper's closed-form threshold formulas.

The system under study is the weakly coupled cubic Schrodinger system

    -Laplace(u_i) + lambda_i u_i = mu_i u_i^3 + u_i sum_{j != i} b_ij u_j^2,
    u_i in H^1(R^N),  i = 1, ..., d,

with 1 <= N <= 3, lambda_i > 0, mu_i > 0 and symmetric cooperative
couplings b_ij = b_ji > 0.  A :class:`ParameterSet` is the full problem
datum and owns these rules: every way of building one (the constructor,
`ParameterSet.make`, `ParameterSet.from_json_dict`, `dataclasses.replace`,
`ParameterSet.restrict`) checks the same entry rule and stores b with its
diagonal zeroed, since b_ii is not a parameter.  `alpha_threshold` and
`small_b_bound` are the two closed-form thresholds of the paper;
:func:`cnls.phase.evaluate_predicates` tests a parameter set against them.
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
    d x d symmetric coupling matrix.  Construction is the one entry check:
    ``d`` and ``N`` must be integers and every entry of ``lam``, ``mu`` and
    ``b`` a real number, not a string or a bool (lists, tuples and arrays
    alike; `ValueError` otherwise), then `validate` runs, so every instance
    satisfies the standing hypotheses.  The diagonal of ``b`` is not a
    parameter: it is stored, and echoed by `to_json_dict`, as 0.
    """

    d: int
    N: int
    lam: np.ndarray
    mu: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        checked = {"d": as_int(self.d, "d"), "N": as_int(self.N, "N")}
        for field, name in (("lam", "lambda"), ("mu", "mu"), ("b", "b")):
            entries = _entries(getattr(self, field), name)
            try:
                checked[field] = np.array(entries, dtype=float)
            except ValueError:  # numpy's message names neither the array nor the rule
                raise ValueError(f"{name} must be a rectangular array, got ragged rows "
                                 f"{entries}") from None
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        validate(self)
        np.fill_diagonal(self.b, 0.0)
        for arr in (self.lam, self.mu, self.b):
            arr.flags.writeable = False

    @classmethod
    def make(cls, lam, mu, b, N=1):
        """Build a parameter set; a scalar ``b`` fills every coupling."""
        lam = [lam] if _scalar(lam) else lam
        d = len(lam)
        return cls(d=d, N=N, lam=lam, mu=[mu] if _scalar(mu) else mu,
                   b=np.full((d, d), b) if _scalar(b) else b)

    def to_json_dict(self):
        return {
            "d": self.d,
            "N": self.N,
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
        return cls(d=obj["d"], N=obj["N"], lam=obj["lambda"], mu=obj["mu"], b=obj["b"])

    def constant_coupling(self):
        """Return the common off-diagonal coupling, or None if not constant."""
        if self.d < 2:
            return None
        off = self.b[~np.eye(self.d, dtype=bool)]
        if values_all_equal(off):
            return float(off.mean())
        return None

    def restrict(self, support):
        """The subsystem on ``support`` = I: the equations in I, with
        parameters lam[I], mu[I] and b[I, I], indexed 0..|I|-1 in the
        sorted order of I."""
        rows = list(index_set(support, self.d, "support", 1))
        return ParameterSet(d=len(rows), N=self.N, lam=self.lam[rows], mu=self.mu[rows],
                            b=self.b[np.ix_(rows, rows)])


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


def _scalar(value):
    """True unless ``value`` is a list, a tuple or an array of dimension > 0;
    lists are told by type, since numpy cannot size a ragged one."""
    return not isinstance(value, (list, tuple)) and np.ndim(value) == 0


def _entries(value, name):
    """Nested lists, tuples or arrays of entries as floats by the rule of
    `as_float`, so a string or a bool is an error rather than coerced."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_entries(v, name) for v in value]
    return as_float(value, f"{name} entry")


def index_set(indices, d, name, min_size):
    """``indices`` as a sorted tuple of distinct integers in [0, d) with at
    least ``min_size`` entries; a non-integral index is an error, not
    truncated."""
    out = tuple(sorted({as_int(i, f"{name} index") for i in indices}))
    if len(out) < min_size:
        raise ValueError(f"{name} must be a nonempty index set of at least {min_size} "
                         f"distinct indices, got {list(out)}")
    for i in out:
        if not 0 <= i < d:
            raise ValueError(f"{name} index {i} out of range for d={d}")
    return out


def validate(p: ParameterSet) -> ParameterSet:
    """Check every ParameterSet invariant; return ``p`` unchanged if valid.

    Raises ValueError naming the first violated invariant.
    """
    if p.d < 1:
        raise ValueError(f"d must be >= 1, got {p.d}")
    if p.N not in (1, 2, 3):
        raise ValueError(f"N must be 1, 2 or 3, got {p.N}")
    if p.lam.shape != (p.d,):
        raise ValueError(f"lambda must have length d={p.d}, got shape {p.lam.shape}")
    if p.mu.shape != (p.d,):
        raise ValueError(f"mu must have length d={p.d}, got shape {p.mu.shape}")
    if p.b.shape != (p.d, p.d):
        raise ValueError(f"b must be a {p.d}x{p.d} matrix, got shape {p.b.shape}")
    for name, arr in (("lambda", p.lam), ("mu", p.mu), ("coupling matrix", p.b)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} has non-finite entries")
    if np.any(p.lam <= 0):
        raise ValueError("positivity violated: every lambda_i must be > 0")
    if np.any(p.mu <= 0):
        raise ValueError("positivity violated: every mu_i must be > 0")
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
