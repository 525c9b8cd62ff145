"""Merging equal-lambda components via a sphere maximization.

When k components share one lambda and the coupling matrix is constant
(b_ij = b for all i != j), every ground state has those components
proportional to a common profile u, with proportions given by a maximizer
of

    f(X) = sum_{i != j} b x_i^2 x_j^2 + sum_i mu_i x_i^4     on |X| = 1

(the i != j sum runs over ordered pairs, so each unordered pair counts
twice).  The k equations then collapse into one with self-interaction
mu = f_max, leaving a system of d - k + 1 equations with the same levels.

`sphere_max` evaluates the three closed-form regimes of the maximizer.
As f(X) = z^T B z with z = (x_i^2) and B holding mu on the diagonal and b
off it, `functional.simplex_qp_max`, the exact maximum of z^T B z on the
simplex for any symmetric B, is its independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import MultiField
from .params import EQUAL_TOL, ParameterSet, index_set, values_all_equal
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
class ReducedSystem:
    """A merge: the reduced parameters, the sphere maximum, and which indices
    collapsed (``group``) and which remain (``retained``).

    The reduced system orders the merged component first, then the retained
    components in ascending original order.
    """

    reduced: ParameterSet
    sphere: SphereMaxResult
    group: tuple
    retained: tuple


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
    mu = np.array(mu, dtype=float)
    b = float(b)
    if mu.ndim != 1:
        raise ValueError(f"mu must be a 1-D array, got shape {mu.shape}")
    k = mu.size
    if k < 2:
        raise ValueError(f"sphere_max needs k >= 2, got {k}")
    if not (np.isfinite(b) and b > 0):
        raise ValueError(f"b must be finite and > 0, got {b}")
    if not np.all(np.isfinite(mu) & (mu >= 0)):
        raise ValueError(f"mu must be finite and nonnegative, got {mu.tolist()}")
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


def reduce_system(p: ParameterSet, group) -> ReducedSystem:
    """Collapse an equal-lambda group into one equation with mu = f_max.

    Requires a constant coupling matrix (the reduction is proved only for
    b_ij = b, and is not extrapolated) and at least two group members
    sharing one lambda within the equality tolerance.
    """
    group = index_set(group, p.d, "group", 2)
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
    reduced = ParameterSet(d=d_red, N=p.N, lam=lam_red, mu=mu_red,
                           b=np.full((d_red, d_red), b))
    return ReducedSystem(reduced=reduced, sphere=sphere, group=group, retained=retained)


def lift_ground_state(reduced_result: GroundStateResult, red: ReducedSystem) -> MultiField:
    """Expand a minimizer of ``red.reduced`` back to the full system.

    The merged profile u is distributed over the group as X_repr[i] * u; the
    retained components pass through.  The lifted fields have the same
    action under the full parameters as the reduced level (the splitting
    f(X_repr) = f_max makes the quartic terms match identically).
    """
    if reduced_result.fields.d != red.reduced.d:
        raise ValueError(
            f"mapping mismatch: reduced result has d={reduced_result.fields.d}, "
            f"expected {red.reduced.d}"
        )
    grid = reduced_result.fields.grid
    merged = reduced_result.fields.values[0]
    out = np.zeros((len(red.group) + len(red.retained), grid.n + 1))
    for pos, i in enumerate(red.group):
        out[i] = float(red.sphere.X_repr[pos]) * merged
    for pos, i in enumerate(red.retained, start=1):
        out[i] = reduced_result.fields.values[pos]
    return MultiField(grid, out)
