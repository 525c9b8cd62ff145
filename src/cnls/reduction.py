"""Merging equal-lambda components via a sphere maximization.

When k components share one lambda and the coupling matrix is constant
(b_ij = b for all i != j), every ground state has those components
proportional to a common profile u, with proportions given by a maximizer
of

    f(X) = sum_{i != j} b x_i^2 x_j^2 + sum_i mu_i x_i^4     on |X| = 1

(the i != j sum runs over ordered pairs, so each unordered pair counts
twice).  The k equations then collapse into one with self-interaction
mu = f_max, leaving a system of d - k + 1 equations with the same levels.

`sphere_max` evaluates the three closed-form regimes of the maximizer;
`brute_force_sphere_max` is the independent grid-search oracle over the
simplex parametrization Z = (x_i^2) (f depends on X only through Z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import MultiField
from .params import EQUAL_TOL, ParameterSet, validate, values_all_equal
from .solver import GroundStateResult

REGIME_VERTEX = "vertex"
REGIME_INTERIOR = "interior"
REGIME_FACE = "face"


@dataclass(frozen=True)
class SphereMaxResult:
    """Maximum of f on the unit sphere with one canonical maximizer.

    ``X_repr`` picks all-positive signs (interior), the smallest index on
    ties (vertex), or the uniform positive vector on the active face; the
    full maximizer set is described structurally in ``X_description``.
    """

    f_max: float
    regime: str
    X_repr: np.ndarray
    X_description: dict

    def to_json_dict(self):
        return {
            "f_max": self.f_max,
            "regime": self.regime,
            "X_repr": [float(x) for x in self.X_repr],
            "X_description": self.X_description,
        }


@dataclass(frozen=True)
class ReductionMap:
    """Bookkeeping for a merge: which indices collapsed, which remain.

    The reduced system orders the merged component first, then the retained
    components in ascending original order.
    """

    group: tuple
    retained: tuple
    d_full: int


@dataclass(frozen=True)
class ReducedSystem:
    reduced: ParameterSet
    mapping: ReductionMap
    sphere: SphereMaxResult


def f_eval(X, mu, b):
    """f(X) = sum_{i != j} b x_i^2 x_j^2 + sum_i mu_i x_i^4 (even in X)."""
    X = np.atleast_1d(np.array(X, dtype=float))
    mu = np.atleast_1d(np.array(mu, dtype=float))
    if X.size < 2:
        raise ValueError(f"f_eval needs k >= 2 coordinates, got {X.size}")
    if X.size != mu.size:
        raise ValueError("X and mu must have the same length")
    z = X * X
    s = z.sum()
    return float(b * (s * s - np.dot(z, z)) + np.dot(mu, z * z))


def sphere_max(mu, b) -> SphereMaxResult:
    """Closed-form maximum of f over the unit sphere.

    Three regimes:
      * vertex (max mu > b): f_max = max mu, maximizers are +-e_i over the
        argmax indices;
      * interior (max mu < b): f_max = b - 1/sum_i 1/(b - mu_i), which
        solves sum_i (b - f_max)/(b - mu_i) = 1; the maximizer magnitudes
        are x_i = ((b - f_max)/(b - mu_i))^(1/2) with free signs;
      * face (max mu = b within tolerance): f_max = b on the whole unit
        sphere of the coordinates with mu_i = b.
    """
    mu = np.atleast_1d(np.array(mu, dtype=float))
    k = mu.size
    b = float(b)
    if k < 2:
        raise ValueError(f"sphere_max needs k >= 2, got {k}")
    if b <= 0:
        raise ValueError(f"coupling must be > 0, got {b}")
    if np.any(mu < 0):
        raise ValueError("mu entries must be nonnegative")
    mu_max = float(mu.max())
    scale = max(abs(mu_max), abs(b), 1e-300)
    if abs(mu_max - b) <= EQUAL_TOL * scale:
        active = np.flatnonzero(np.abs(mu - b) <= EQUAL_TOL * scale)
        x = np.zeros(k)
        x[active] = 1.0 / np.sqrt(active.size)
        return SphereMaxResult(
            f_max=b,
            regime=REGIME_FACE,
            X_repr=x,
            X_description={
                "type": "sphere_face",
                "indices": [int(i) for i in active],
            },
        )
    if mu_max > b:
        winners = np.flatnonzero(mu == mu_max)
        x = np.zeros(k)
        x[winners[0]] = 1.0
        return SphereMaxResult(
            f_max=mu_max,
            regime=REGIME_VERTEX,
            X_repr=x,
            X_description={
                "type": "signed_vertices",
                "indices": [int(i) for i in winners],
            },
        )
    f_max = b - 1.0 / float(np.sum(1.0 / (b - mu)))
    x = np.sqrt((b - f_max) / (b - mu))
    return SphereMaxResult(
        f_max=f_max,
        regime=REGIME_INTERIOR,
        X_repr=x,
        X_description={
            "type": "sign_choices",
            "magnitudes": [float(v) for v in x],
        },
    )


def brute_force_sphere_max(mu, b, resolution):
    """Grid-search oracle: maximize f over Z = (x_i^2) on the simplex.

    Enumerates all integer compositions m/resolution with sum 1, so the
    result is within O(1/resolution) of the true maximum (and exact in the
    vertex and face regimes, whose maximizers are grid points).  Guarded to
    k <= 4 for cost.
    """
    mu = np.atleast_1d(np.array(mu, dtype=float))
    k = mu.size
    b = float(b)
    if k < 2 or k > 4:
        raise ValueError(f"brute force oracle supports 2 <= k <= 4, got {k}")
    resolution = int(resolution)
    if resolution < 50:
        raise ValueError(f"resolution must be >= 50, got {resolution}")
    coeff = mu - b  # g(Z) = b + sum z_i^2 (mu_i - b) on the simplex
    m = resolution
    # compositions of m into k parts: the first k-1 parts sum to at most m
    head = np.indices((m + 1,) * (k - 1)).reshape(k - 1, -1)
    head = head[:, head.sum(axis=0) <= m]
    z = np.vstack([head, m - head.sum(axis=0)]) / m
    return float((b + coeff @ (z * z)).max())


def reduce_system(p: ParameterSet, group) -> ReducedSystem:
    """Collapse an equal-lambda group into one equation with mu = f_max.

    Requires a constant coupling matrix (the reduction is proved only for
    b_ij = b, and is not extrapolated) and at least two group members
    sharing one lambda within the equality tolerance.
    """
    validate(p)
    group = tuple(sorted(set(int(i) for i in group)))
    if len(group) < 2:
        raise ValueError("group must contain at least 2 component indices")
    for i in group:
        if not 0 <= i < p.d:
            raise ValueError(f"group index {i} out of range for d={p.d}")
    b = p.constant_coupling()
    if b is None:
        raise ValueError(
            "reduction requires a constant coupling matrix (b_ij = b for all "
            "i != j); refusing to extrapolate to non-constant couplings"
        )
    lam_group = p.lam[list(group)]
    if not values_all_equal(lam_group):
        raise ValueError("group members must share one lambda value")
    retained = tuple(i for i in range(p.d) if i not in group)
    sphere = sphere_max(p.mu[list(group)], b)
    d_red = 1 + len(retained)
    lam_red = np.empty(d_red)
    mu_red = np.empty(d_red)
    lam_red[0] = float(lam_group.mean())
    mu_red[0] = sphere.f_max
    for pos, i in enumerate(retained, start=1):
        lam_red[pos] = p.lam[i]
        mu_red[pos] = p.mu[i]
    b_red = np.full((d_red, d_red), b)
    np.fill_diagonal(b_red, 0.0)
    reduced = validate(ParameterSet(d=d_red, N=p.N, lam=lam_red, mu=mu_red, b=b_red))
    mapping = ReductionMap(group=group, retained=retained, d_full=p.d)
    return ReducedSystem(reduced=reduced, mapping=mapping, sphere=sphere)


def lift_ground_state(reduced_result: GroundStateResult, sphere: SphereMaxResult,
                      mapping: ReductionMap) -> MultiField:
    """Expand a reduced minimizer back to the full system.

    The merged profile u is distributed over the group as X_repr[i] * u; the
    retained components pass through.  The lifted fields have the same
    action under the full parameters as the reduced level (the splitting
    f(X_repr) = f_max makes the quartic terms match identically).
    """
    k = len(mapping.group)
    d_red = 1 + len(mapping.retained)
    if reduced_result.fields.d != d_red:
        raise ValueError(
            f"mapping mismatch: reduced result has d={reduced_result.fields.d}, "
            f"expected {d_red}"
        )
    if sphere.X_repr.size != k:
        raise ValueError("mapping mismatch: sphere maximizer has wrong length")
    grid = reduced_result.fields.grid
    merged = reduced_result.fields.values[0]
    out = np.zeros((mapping.d_full, grid.n + 1))
    for pos, i in enumerate(mapping.group):
        out[i] = float(sphere.X_repr[pos]) * merged
    for pos, i in enumerate(mapping.retained, start=1):
        out[i] = reduced_result.fields.values[pos]
    return MultiField(grid, out)
