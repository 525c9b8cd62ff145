"""Merging an equal-lambda group of components into one equation.

Take a group G of components sharing one lambda, any symmetric in-group
coupling, and every other component m coupled to all of G by one value
beta_m.  Let B hold mu_i on the diagonal and b_ij off it over G, and let
F = max z^T B z on the simplex, attained at z (`functional.simplex_qp_max`,
the package's one simplex oracle).  The group then collapses into one
equation with self-interaction mu = F, leaving d - |G| + 1 equations with
the same level, and a ground state has u_i = sqrt(z_i) W on G.

This holds on the grid, not only in the continuum.  Put W = (sum_{i in G}
u_i^2)^(1/2) pointwise: the group's mass part equals W's; per cell the
reverse triangle inequality bounds W's stiffness part by the group's; the
group quartic is at most F W^4 pointwise; and the cross terms equal
beta_m W^2 u_m^2.  Equality holds at u_i = sqrt(z_i) W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functional import simplex_qp_max
from .grid import MultiField
from .params import ParameterSet, index_set, values_all_equal
from .solver import GroundStateResult


@dataclass(frozen=True)
class ReducedSystem:
    """A merge: the reduced parameters, the simplex maximizer ``z`` of the
    group's coupling matrix (its maximum F is ``reduced.mu[0]``), and which
    indices collapsed (``group``) and which remain (``retained``).

    The reduced system orders the merged component first, then the retained
    components in ascending original order.
    """

    reduced: ParameterSet
    z: np.ndarray
    group: tuple
    retained: tuple


def reduce_system(p: ParameterSet, group) -> ReducedSystem:
    """Collapse an equal-lambda group into one equation with mu = F.

    Requires at least two group members sharing one lambda within the
    equality tolerance, and each retained component coupled to every group
    member by one value beta_m; the coupling inside the group is free.  The
    reduced b is ``p.b`` on the first group index and the retained indices,
    so the merged row holds the beta_m.
    """
    group = index_set(group, p.d, "group", 2)
    members = list(group)
    lam_group = p.lam[members]
    if not values_all_equal(lam_group):
        raise ValueError("group members must share one lambda value")
    retained = tuple(i for i in range(p.d) if i not in group)
    for m in retained:
        beta = p.b[m, members]
        if not values_all_equal(beta):
            i, j = members[int(beta.argmin())], members[int(beta.argmax())]
            raise ValueError(
                f"retained component {m} couples to group members {i} and {j} by "
                f"different values (b[{m}][{i}]={p.b[m, i]}, b[{m}][{j}]={p.b[m, j]}); "
                "the reduction needs one coupling to the whole group"
            )
    F, z = simplex_qp_max(p.b[np.ix_(members, members)] + np.diag(p.mu[members]))
    rows = [group[0], *retained]
    lam_red, mu_red = p.lam[rows], p.mu[rows]
    lam_red[0], mu_red[0] = lam_group.mean(), F
    reduced = ParameterSet(d=len(rows), N=p.N, lam=lam_red, mu=mu_red,
                           b=p.b[np.ix_(rows, rows)])
    return ReducedSystem(reduced=reduced, z=z, group=group, retained=retained)


def lift_ground_state(reduced_result: GroundStateResult, red: ReducedSystem) -> MultiField:
    """Expand a minimizer of ``red.reduced`` back to the full system.

    The merged profile W is distributed over the group as sqrt(z_i) W; the
    retained components pass through.  The lifted fields have the same
    action under the full parameters as the reduced level (z^T B z = F
    makes the group quartic match F W^4 identically).
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
        out[i] = float(np.sqrt(red.z[pos])) * merged
    for pos, i in enumerate(red.retained, start=1):
        out[i] = reduced_result.fields.values[pos]
    return MultiField(grid, out)
