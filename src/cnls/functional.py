"""Action functional, Nehari rescaling, and the action gradient.

For u = (u_1, ..., u_d) the action is

    I(u) = (1/2) sum_i ||u_i||^2_{lambda_i}
         - (1/4) sum_i mu_i |u_i|_4^4
         - (1/2) sum_{i<j} b_ij |u_i u_j|_2^2,

and the Nehari residual is tau(u) = sum_i ||u_i||^2 - (sum_i mu_i|u_i|_4^4
+ 2 sum_{i<j} b_ij |u_i u_j|_2^2).  Because the nonlinearity is homogeneous
quartic, tau(t*u) = 0 has the closed-form solution t^2 = quadratic/quartic,
and on the constraint set I(u) = quadratic/4.

The gradient is represented in the weighted L^2 pairing of the grid, so
directional derivatives of `action` equal <action_gradient(u), v>_w exactly
(the pairing includes the quadrature weights); this keeps descent
directions mesh independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import MultiField, h1_sq_raw, l4_raw, neg_lap_plus_raw
from .params import ParameterSet


@dataclass(frozen=True)
class ActionBreakdown:
    """Action value with its quadratic/quartic pieces and Nehari residual."""

    quadratic: float
    quartic_self: float
    quartic_cross: float
    action: float
    nehari_residual: float

    def to_json_dict(self):
        return {
            "quadratic": self.quadratic,
            "quartic_self": self.quartic_self,
            "quartic_cross": self.quartic_cross,
            "action": self.action,
            "nehari_residual": self.nehari_residual,
        }


def _check_dims(u: MultiField, p: ParameterSet):
    if u.d != p.d:
        raise ValueError(f"dimension mismatch: fields have d={u.d}, parameters d={p.d}")


def _coupling_raw(p: ParameterSet, v2):
    """Row i is sum_{j != i} b_ij v_j^2: one product with the diagonal of b
    zeroed, since the diagonal is ignored."""
    b_off = np.array(p.b)
    np.fill_diagonal(b_off, 0.0)
    return b_off @ v2


def action_parts_raw(grid, values, p: ParameterSet):
    """Return (quadratic, quartic_self, quartic_cross) for a (d, n+1) array."""
    v2 = values * values
    cross = _coupling_raw(p, v2)
    quad = qself = qcross = 0.0
    for i in range(values.shape[0]):
        quad += h1_sq_raw(grid, values[i], float(p.lam[i]))
        qself += float(p.mu[i]) * l4_raw(grid, values[i])
        qcross += float(np.dot(grid.weights, v2[i] * cross[i]))
    return quad, qself, qcross


def gradient_raw(grid, values, p: ParameterSet):
    """Weighted-pairing gradient of the action as a (d, n+1) array; the
    nonlinear part is built in place (at large n temporaries cost most)."""
    v2 = values * values
    nonlin = _coupling_raw(p, v2)
    nonlin += p.mu[:, None] * v2
    nonlin *= values
    out = neg_lap_plus_raw(grid, values, p.lam)
    out -= nonlin
    out[:, -1] = 0.0
    return out


def nehari_raw(quad, qself, qcross):
    """Nehari projection from the action parts: (t, level) with
    t^2 = quadratic / quartic total and level = quadratic^2 / (4 * quartic
    total), the action at t*u; None when the field cannot be projected
    (zero quadratic part or nonpositive quartic total)."""
    total = qself + qcross
    if quad <= 0.0 or total <= 0.0:
        return None
    return float(np.sqrt(quad / total)), quad * quad / (4.0 * total)


def action(u: MultiField, p: ParameterSet) -> ActionBreakdown:
    """Evaluate the action and its breakdown at u."""
    _check_dims(u, p)
    quad, qself, qcross = action_parts_raw(u.grid, u.values, p)
    return ActionBreakdown(
        quadratic=quad,
        quartic_self=qself,
        quartic_cross=qcross,
        action=quad / 2.0 - qself / 4.0 - qcross / 4.0,
        nehari_residual=quad - qself - qcross,
    )


def _projection(u: MultiField, p: ParameterSet):
    _check_dims(u, p)
    quad, qself, qcross = action_parts_raw(u.grid, u.values, p)
    proj = nehari_raw(quad, qself, qcross)
    if proj is None:
        if quad <= 0.0:
            raise ValueError("cannot project the zero field onto the constraint set")
        raise ValueError("cannot project: quartic part vanishes")
    return proj


def nehari_scale(u: MultiField, p: ParameterSet):
    """The unique t > 0 with tau(t*u) = 0: t^2 = quadratic / quartic total.

    t*u maximizes s -> I(s*u) over s > 0.  Requires u != 0 with positive
    quartic total.
    """
    return _projection(u, p)[0]


def action_on_nehari(u: MultiField, p: ParameterSet):
    """I at the Nehari rescaling of u: quadratic^2 / (4 * quartic total).

    Degree-0 homogeneous in u (same value for c*u, any c > 0).
    """
    return _projection(u, p)[1]


def action_gradient(u: MultiField, p: ParameterSet) -> MultiField:
    """Euler-Lagrange map: component i is

        -Laplace(u_i) + lambda_i u_i - mu_i u_i^3 - u_i sum_{j!=i} b_ij u_j^2,

    represented so that d/ds action(u + s v)|_0 = <gradient, v>_w exactly.
    """
    _check_dims(u, p)
    return MultiField(u.grid, gradient_raw(u.grid, u.values, p))
