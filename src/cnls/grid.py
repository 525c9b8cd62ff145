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
gradient part uses the matching piecewise-constant derivative: cell j adds
conductance_j (u_{j+1} - u_j)^2, the cell's exact measure over its squared
length.  The kernels read only ``weights`` and ``conductance``, so all
spacing arithmetic lives in `RadialGrid.make`.  `neg_lap_plus_raw` and
`operator_tridiag` (the one matrix of -Laplace + V) represent the quadratic
form exactly: <Au, u>_w == h1_sq_raw(grid, u, lam) up to roundoff, where
`h1_sq_raw` is the test oracle in tests/oracles.py.

The unknown u = (u_1, ..., u_d) is a `MultiField`, or a bare (d, n+1) array
on the hot path; the kernels below take bare arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import as_float, as_int

S_FACTOR = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

#: Fault injection for tests: scales quadrature weights by (1 + value) so a
#: test can prove the acceptance suite and the benchmark's check catch
#: corrupted quadrature.  Keep at 0.
_FAULT_WEIGHT_SCALE = 0.0


def default_radius(lam_min):
    """Truncation radius 20/sqrt(min lambda).

    Ground states decay like exp(-sqrt(lambda) r), so truncating at R moves
    a level by about exp(-40), below roundoff and far below the O(h^2)
    scheme error.  `test_doubling_the_default_radius_leaves_the_level_unchanged`
    in tests/test_grid.py checks that a solve on (2R, 2n) gives the same
    support and the same level within 1e-12 relative.
    """
    if lam_min <= 0:
        raise ValueError("lam_min must be > 0")
    return 20.0 / math.sqrt(lam_min)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Uniform radial grid with exact-moment quadrature weights.

    ``weights[j]`` integrates nodal values (including the s_N r^(N-1)
    factor); ``conductance[j]`` is the exact measure of cell
    [r_j, r_{j+1}] over the squared cell length, used by the gradient
    quadrature.
    """

    N: int
    R: float
    n: int
    nodes: np.ndarray
    weights: np.ndarray
    conductance: np.ndarray

    @classmethod
    def make(cls, N, R, n):
        N, R, n = as_int(N, "N"), as_float(R, "R"), as_int(n, "n")
        if N not in (1, 2, 3):
            raise ValueError(f"N must be 1, 2 or 3, got {N}")
        if not 0 < R < math.inf:
            raise ValueError(f"R must be finite and > 0, got {R}")
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
        conductance = s * m0 / h**2
        if _FAULT_WEIGHT_SCALE:
            weights = weights * (1.0 + _FAULT_WEIGHT_SCALE)
            conductance = conductance * (1.0 + _FAULT_WEIGHT_SCALE)
        for arr in (nodes, weights, conductance):
            arr.flags.writeable = False
        return cls(N=N, R=R, n=n, nodes=nodes, weights=weights, conductance=conductance)

    @property
    def key(self):
        return (self.N, self.R, self.n)

    def to_json_dict(self):
        return {"N": self.N, "R": self.R, "n": self.n}


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


# --------------------------------------------------------------------------
# Operator kernels on bare arrays: -Laplace + lam for the gradient, its
# matrix for the solver.  The tests check both against tests/oracles.py.
# --------------------------------------------------------------------------

def neg_lap_plus_raw(grid, values, lam, out=None, spare=None):
    """Apply -Laplace + lam in the exact weighted-pairing representation.

    ``values`` is one profile (n+1,) with a scalar ``lam``, or a (d, n+1)
    array with one lam per row.  Node 0 uses the natural (Neumann) axis
    closure of the quadratic form; node n is the Dirichlet node and returns 0.
    ``out`` receives the result and ``spare`` holds the cell fluxes and
    lam * values; both have the shape of ``values``, do not overlap it, and
    are allocated when not given.
    """
    n = grid.n
    if out is None:
        out = np.empty_like(values)
    if spare is None:
        spare = np.empty_like(values)
    flux = np.subtract(values[..., 1:], values[..., :-1], out=spare[..., :n])
    flux *= grid.conductance
    np.negative(flux[..., 0], out=out[..., 0])
    np.subtract(flux[..., : n - 1], flux[..., 1:n], out=out[..., 1:n])
    out[..., n] = 0.0
    out /= grid.weights
    out += np.multiply(np.asarray(lam)[..., None], values, out=spare)
    out[..., n] = 0.0
    return out


def operator_tridiag(grid, potential):
    """(diag, off) of the n x n tridiagonal matrix K + W V of -Laplace + V on
    the free nodes 0..n-1 (the Dirichlet node n is dropped), in the weighted
    pairing: W = diag(weights[:n]), ``potential`` V is a scalar or one value
    per free node, and u^T (K + W lam) u == h1_sq_raw(grid, u, lam), the test
    oracle, up to roundoff."""
    n, c = grid.n, grid.conductance
    diag = np.append(c[0], c[: n - 1] + c[1:n]) + grid.weights[:n] * potential
    return diag, -c[: n - 1]
