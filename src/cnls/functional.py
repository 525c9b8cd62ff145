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
directional derivatives of `action` equal <gradient_raw(grid, u, p), v>_w
exactly (the pairing includes the quadrature weights); this keeps descent
directions mesh independent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv, dsyev

from .grid import MultiField, neg_lap_plus_raw
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


def action_parts_raw(grid, values, p: ParameterSet, work=None):
    """Return (q, M) for a (d, n+1) array: q_i = ||u_i||^2_{lambda_i},
    M_ii = mu_i |u_i|_4^4 and M_ij = b_ij |u_i u_j|_2^2 (i != j).

    The quadratic part of the action is sum(q) and the quartic part
    sum(M).  Scaling row i by s_i maps (q, M) to (D q, D M D) with D =
    diag(s^2), which is what the solver's amplitude step solves in.  Each
    entry is one weighted dot product, so a zero row gives exact zeros and
    a system with zero rows has the same parts as the system without them;
    q_i is the test oracle `h1_sq_raw` (tests/oracles.py) of row i to the
    last bit.  The squares are computed into work[0] and work[1] of a
    workspace like `gradient_raw`'s, which is allocated when ``work`` is
    None.
    """
    d, n = values.shape[0], grid.n
    if work is None:
        work = np.empty((2,) + values.shape)
    v2 = np.multiply(values, values, out=work[0])
    du2 = np.subtract(values[:, 1:], values[:, :-1], out=work[1][:, :n])
    du2 *= du2
    q = np.empty(d)
    for i in range(d):
        stiff = float(np.dot(grid.conductance, du2[i]))
        q[i] = stiff + float(p.lam[i]) * float(np.dot(grid.weights, v2[i]))
    wv2 = np.multiply(grid.weights, v2, out=work[1])
    M = np.empty((d, d))
    for i in range(d):
        M[i, i] = float(p.mu[i]) * float(np.dot(wv2[i], v2[i]))
        for j in range(i):
            M[i, j] = M[j, i] = float(p.b[i, j]) * float(np.dot(wv2[i], v2[j]))
    return q, M


_EPS = float(np.finfo(float).eps)


def simplex_qp_max(B):
    """Exact maximum F of z^T B z over the simplex and a maximizer z, for a
    finite symmetric k x k matrix B (the standard quadratic program; Bomze,
    J. Global Optim. 13 (1998)).  Ties go to the smallest support, and among
    supports of one size to the first in lexicographic order."""
    B = np.array(B, dtype=float)
    k = B.shape[0] if B.ndim == 2 else 0
    if B.shape != (k, k) or k < 1:
        raise ValueError(f"B must be a square matrix, got shape {B.shape}")
    if not np.all(np.isfinite(B)):
        raise ValueError("B has non-finite entries")
    if not np.array_equal(B, B.T):
        raise ValueError("B must be symmetric")
    return simplex_qp_kernel(B)


def simplex_qp_kernel(B):
    """`simplex_qp_max` on a checked float matrix B, by three exact rules
    tried in order; one LAPACK dsyev gives the inertia the first two need.

    1. B positive definite: z^T B z is convex, so the best vertex wins.
    2. B with exactly one positive eigenvalue and y = B^{-1} 1 > 0: B is
       negative definite on the complement of 1 (Haynsworth inertia of the
       matrix bordered by 1), so z = y / sum(y) is the unique maximizer,
       with F = 1 / sum(y).
    3. Otherwise `_simplex_supports` enumerates the supports.

    An eigenvalue within k * eps * max|eigenvalue| of 0 sends rule 2 to
    rule 3, where a singular block is skipped instead of inverted.  The
    small-k arithmetic runs on Python floats: numpy's per-call cost would
    dominate, and the solver calls this once per accepted descent step.
    """
    k = B.shape[0]
    w, _, info = dsyev(B, compute_v=0)
    if info == 0 and k > 1:
        w = w.tolist()
        if w[0] > 0.0:
            diag = B.diagonal().tolist()
            i = diag.index(max(diag))
            z = np.zeros(k)
            z[i] = 1.0
            return diag[i], z
        tol = k * _EPS * max(-w[0], w[-1])
        if w[-1] > tol and w[-2] < -tol:
            y, info = dgesv(B, np.ones(k))[2:]
            ys = y.tolist()
            if info == 0 and min(ys) > 0.0:
                total = sum(ys)
                return 1.0 / total, y / total
    return _simplex_supports(B)


def _simplex_supports(B):
    """The simplex maximum by enumerating the supports S, smallest first.

    A maximizer on S solves B_SS z_S = F 1.  When F > 0 some maximizer has
    a nonsingular B_SS (a kernel vector of B_SS is orthogonal to 1 there, so
    it leads to a smaller face at the same value), and z_S = y / sum(y) with
    y = B_SS^{-1} 1 > 0; the first support reaching the largest value wins.
    Adding c to B adds c on the simplex, so the solves use B + c where F > 0
    is not implied by the diagonal or z = 1/k.
    """
    k = B.shape[0]
    lower = max(float(B.diagonal().max()), float(B.sum()) / k**2)  # F >= lower
    shifted = B if lower > 0 else B + (1.0 - lower)
    best, best_z = -np.inf, None
    for size in range(1, k + 1):
        for S in itertools.combinations(range(k), size):
            S = list(S)
            try:
                y = np.linalg.solve(shifted[np.ix_(S, S)], np.ones(size))
            except np.linalg.LinAlgError:
                continue
            if np.all(y > 0):
                z_S = y / y.sum()
                value = float(z_S @ B[np.ix_(S, S)] @ z_S)
                if value > best:
                    best, best_z = value, np.zeros(k)
                    best_z[S] = z_S
    return best, best_z


def gradient_raw(grid, values, p: ParameterSet, work=None):
    """Weighted-pairing gradient of the action as a (d, n+1) array: row i
    is -Laplace(u_i) + lambda_i u_i - mu_i u_i^3 - u_i sum_{j!=i} b_ij u_j^2,
    so that d/ds action(u + s v)|_0 = <gradient, v>_w exactly.

    ``work`` is a (3, d, n+1) workspace that takes every intermediate and
    the result, work[2], so a caller that passes one makes no temporaries
    of that size; the next kernel call with the same workspace overwrites
    the result.  Without one the workspace is allocated here.  Row i of
    ``p.b @ v2`` is sum_{j != i} b_ij v_j^2, as b_ii is stored 0.
    """
    if work is None:
        work = np.empty((3,) + values.shape)
    v2 = np.multiply(values, values, out=work[0])
    nonlin = np.matmul(p.b, v2, out=work[1])
    v2 *= p.mu[:, None]
    nonlin += v2
    nonlin *= values
    out = neg_lap_plus_raw(grid, values, p.lam, out=work[2], spare=work[0])
    out -= nonlin
    out[:, -1] = 0.0
    return out


def nehari_raw(quadratic, quartic):
    """Nehari projection from the quadratic and quartic parts: (t, level)
    with t^2 = quadratic / quartic and level = quadratic^2 / (4 * quartic),
    the action at t*u; None when the field cannot be projected (zero
    quadratic part or nonpositive quartic part)."""
    if quadratic <= 0.0 or quartic <= 0.0:
        return None
    return float(np.sqrt(quadratic / quartic)), quadratic * quadratic / (4.0 * quartic)


def action(u: MultiField, p: ParameterSet) -> ActionBreakdown:
    """Evaluate the action and its breakdown at u."""
    if u.d != p.d:
        raise ValueError(f"dimension mismatch: fields have d={u.d}, parameters d={p.d}")
    q, M = action_parts_raw(u.grid, u.values, p)
    quad, quartic = float(q.sum()), float(M.sum())
    qself = float(np.trace(M))
    qcross = quartic - qself
    return ActionBreakdown(
        quadratic=quad,
        quartic_self=qself,
        quartic_cross=qcross,
        action=quad / 2.0 - quartic / 4.0,
        nehari_residual=quad - quartic,
    )
