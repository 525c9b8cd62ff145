"""Radial discretization of H^1(R^N) for N in {1, 2, 3}.

Functions are sampled on the uniform radial grid r_j = j*h, j = 0..n,
h = R/n, truncated to a ball of radius R with a zero (Dirichlet) value at
r = R.  Quadrature weights carry the volume factor s_N * r^(N-1) with
s_1 = 2 (half-line with even symmetry: whole-line values come out directly),
s_2 = 2*pi, s_3 = 4*pi.

The weights integrate the piecewise-linear interpolant against the exact
r^(N-1) measure (closed-form cell moments), so the sum of weights equals
the volume of the ball to machine precision for every N; for N = 1 they
reduce to the classic trapezoid rule with a half-weight axis node.  The
gradient part of the H^1 norm uses the matching piecewise-constant
derivative against the same measure, which makes `apply_neg_laplacian_plus`
the exact representation of the quadratic form in the weighted pairing:
<Au, u>_w == h1_lambda_sq(u, lam) up to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

S_FACTOR = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

#: Test-mode fault injection: scales quadrature weights by (1 + value) so a
#: self-test harness can prove it detects corrupted quadrature.  Keep at 0.
_FAULT_WEIGHT_SCALE = 0.0


def default_radius(lam_min):
    """Truncation radius heuristic 20/sqrt(min lambda).

    Ground states decay like exp(-sqrt(lambda) r), so the truncation error
    is exponentially small next to the O(h^2) scheme error.
    """
    if lam_min <= 0:
        raise ValueError("lam_min must be > 0")
    return 20.0 / math.sqrt(lam_min)


def ball_volume(N, R):
    if N == 1:
        return 2.0 * R
    if N == 2:
        return math.pi * R**2
    return 4.0 / 3.0 * math.pi * R**3


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Uniform radial grid with exact-moment quadrature weights.

    ``weights[j]`` integrates nodal values (including the s_N r^(N-1)
    factor); ``cell_weights[j]`` is the exact measure of cell
    [r_j, r_{j+1}], used by the gradient quadrature.
    """

    N: int
    R: float
    n: int
    h: float
    nodes: np.ndarray
    weights: np.ndarray
    cell_weights: np.ndarray

    @classmethod
    def make(cls, N, R, n):
        N = int(N)
        R = float(R)
        n = int(n)
        if N not in (1, 2, 3):
            raise ValueError(f"N must be 1, 2 or 3, got {N}")
        if R <= 0:
            raise ValueError(f"R must be > 0, got {R}")
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        h = R / n
        nodes = np.linspace(0.0, R, n + 1)
        s = S_FACTOR[N]
        a, b = nodes[:-1], nodes[1:]
        m0 = (b**N - a**N) / N            # integral of r^(N-1) over each cell
        m1 = (b ** (N + 1) - a ** (N + 1)) / (N + 1)
        weights = np.zeros(n + 1)
        weights[:-1] += s * (b * m0 - m1) / h
        weights[1:] += s * (m1 - a * m0) / h
        if _FAULT_WEIGHT_SCALE:
            weights = weights * (1.0 + _FAULT_WEIGHT_SCALE)
        cell_weights = s * m0
        if _FAULT_WEIGHT_SCALE:
            cell_weights = cell_weights * (1.0 + _FAULT_WEIGHT_SCALE)
        for arr in (nodes, weights, cell_weights):
            arr.flags.writeable = False
        return cls(N=N, R=R, n=n, h=h, nodes=nodes, weights=weights,
                   cell_weights=cell_weights)

    @property
    def key(self):
        return (self.N, self.R, self.n)

    def to_json_dict(self):
        return {"N": self.N, "R": self.R, "n": self.n}

    @classmethod
    def from_json_dict(cls, obj):
        return cls.make(obj["N"], obj["R"], obj["n"])


def _check_same_grid(a, b):
    if a.key != b.key:
        raise ValueError(f"mismatched grids: {a.key} vs {b.key}")


@dataclass(frozen=True, eq=False)
class Field:
    """A single radial profile on a grid; zero at r = R, finite everywhere."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (self.grid.n + 1,):
            raise ValueError(
                f"field needs {self.grid.n + 1} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        if values[-1] != 0.0:
            raise ValueError("field must vanish at r = R (Dirichlet boundary)")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros(grid.n + 1))


@dataclass(frozen=True, eq=False)
class MultiField:
    """d radial profiles on one shared grid, stored as a (d, n+1) array."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != self.grid.n + 1:
            raise ValueError(
                f"multifield needs shape (d, {self.grid.n + 1}), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("multifield values must be finite")
        if np.any(values[:, -1] != 0.0):
            raise ValueError("every component must vanish at r = R")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def d(self):
        return self.values.shape[0]

    def component(self, i) -> Field:
        return Field(self.grid, self.values[i])

    @classmethod
    def from_fields(cls, fields):
        fields = list(fields)
        if not fields:
            raise ValueError("need at least one field")
        grid = fields[0].grid
        for f in fields[1:]:
            _check_same_grid(grid, f.grid)
        return cls(grid, np.stack([f.values for f in fields]))

    @classmethod
    def zero(cls, grid, d):
        return cls(grid, np.zeros((d, grid.n + 1)))


# --------------------------------------------------------------------------
# Quadrature kernels.  The *_raw functions operate on bare arrays and are the
# hot path shared by the functional and the solver; the Field wrappers add
# validation for public use.
# --------------------------------------------------------------------------

def wdot(grid, a, b):
    """Weighted L^2 pairing sum_j w_j a_j b_j."""
    return float(np.dot(grid.weights, a * b))


def h1_sq_raw(grid, values, lam):
    du = (values[1:] - values[:-1]) / grid.h
    stiff = float(np.dot(grid.cell_weights, du * du))
    mass = float(np.dot(grid.weights, values * values))
    return stiff + lam * mass


def l4_raw(grid, values):
    v2 = values * values
    return float(np.dot(grid.weights, v2 * v2))


def mixed_raw(grid, u_values, v_values):
    return float(np.dot(grid.weights, (u_values * u_values) * (v_values * v_values)))


def neg_lap_plus_raw(grid, values, lam, out=None):
    """Apply -Laplace + lam in the exact weighted-pairing representation.

    Row 0 uses the natural (Neumann) axis closure of the quadratic form;
    row n is the Dirichlet row and returns 0.
    """
    n = grid.n
    flux = grid.cell_weights * (values[1:] - values[:-1]) / grid.h**2
    if out is None:
        out = np.empty(n + 1)
    out[0] = -flux[0]
    out[1:n] = flux[: n - 1] - flux[1:n]
    out[n] = 0.0
    out /= grid.weights
    out += lam * values
    out[n] = 0.0
    return out


def h1_lambda_sq(u: Field, lam):
    """Discrete integral of |u'|^2 + lam*u^2 (weighted by s_N r^(N-1)).

    Quadratic under scaling and zero only for the zero field.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    return h1_sq_raw(u.grid, u.values, float(lam))


def l4_quartic(u: Field):
    """Discrete integral of u^4."""
    return l4_raw(u.grid, u.values)


def mixed_l2(u: Field, v: Field):
    """Discrete integral of u^2 v^2 (fields must share a grid)."""
    _check_same_grid(u.grid, v.grid)
    return mixed_raw(u.grid, u.values, v.values)


def apply_neg_laplacian_plus(u: Field, lam) -> Field:
    """-u'' - ((N-1)/r) u' + lam*u with the axis and Dirichlet closures.

    The returned field is the gradient of (1/2)*h1_lambda_sq in the weighted
    pairing, so <apply(u), u>_w equals h1_lambda_sq(u, lam) to roundoff.
    Pointwise it is an O(h^2) approximation away from the axis; at the first
    few nodes next to r = 0 (for N >= 2) it is consistent in the variational
    sense only.
    """
    out = neg_lap_plus_raw(u.grid, u.values, float(lam))
    return Field(u.grid, out)


def write_profiles_csv(mf: MultiField, fobj, meta=None):
    """Write profiles as CSV columns r, u1, ..., ud (plus a comment header)."""
    if meta:
        pairs = " ".join(f"{k}={v}" for k, v in meta.items())
        fobj.write(f"# {pairs}\n")
    d = mf.d
    fobj.write("r," + ",".join(f"u{i + 1}" for i in range(d)) + "\n")
    for j, r in enumerate(mf.grid.nodes):
        row = [repr(float(r))] + [repr(float(mf.values[i, j])) for i in range(d)]
        fobj.write(",".join(row) + "\n")
