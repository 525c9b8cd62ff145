"""Ground-state levels c(I) by multistart minimization over the Nehari set.

The level c(I) of a support I is the ground-state level of the subsystem
made of the equations in I, so `minimize_restricted` solves that subsystem
(`ParameterSet.restrict`: lam[I], mu[I], b[I, I]) as a system of its own
and embeds the minimizer with zero rows outside I.

The minimization runs on the constraint surface tau(u) = 0, which is free
to enforce because the rescaling is closed form: every iterate is projected
back by `functional.nehari_raw`, the one Nehari projection (`nehari_scale`,
`action_on_nehari` and `amplitude_step` are built on it).  Descent
directions are L-BFGS directions in the H^1 (Sobolev) metric: the two-loop
recursion over the last LBFGS_MEMORY pairs (s, y), with s the change of the
iterate and y the change of the weighted gradient on the free nodes, and
with (-Laplace + lambda_i)^{-1} per component as the initial inverse
Hessian (one LAPACK dpttrs solve per iteration on the stack of the d
tridiagonal blocks, factored once per multistart).  On the Nehari set the
Hessian in that metric is the identity plus a compact part, so a few pairs
capture it.  A pair is computed straight into a spare ring slot from the
previous point and gradient, which the descent keeps in alternating
buffers, and is stored only when s.y > 0 (relative to |s| |y|); the memory
is cleared when the amplitude step switches a component off and when a
direction fails to descend, and with no pair stored the direction is the
H^1 gradient.  Armijo backtracking runs on the scale-invariant merit
action_on_nehari, and a trial is accepted only when it lowers the merit.
Backtracking stops once the predicted decrease is below one ulp of the
level: a trial accepted there would be accepted by rounding noise, so the
descent ends at that roundoff floor.  Each trial is built in place in a
buffer of the descent, and an accepted trial becomes the iterate without a
copy.  `gradient_raw` and `action_parts_raw` compute into a workspace that
the descent allocates once per multistart, so an iteration allocates no
array of the grid's size.  Iterates are clamped nonnegative: ground states
have signed components, and fixing the positive representative removes
sign oscillation.

After each accepted Armijo step the descent takes an exact step in the
component amplitudes (`amplitude_step`).  With the action parts (q, M) of
the accepted point, scaling component i by sqrt(t_i) gives the Nehari level
f(t) = (q.t)^2 / (4 t.M.t), and minimizing f over t >= 0 is a quadratic
program on the simplex (the synchronized reduction of Sirakov, CMP 271
(2007)), solved exactly by `functional.simplex_qp_kernel`, the kernel of the
one simplex oracle `simplex_qp_max`.  The step moves to the minimizing
amplitudes when they lower the merit, on a smaller face if one wins.  That
removes the two slow modes of the H^1 descent: next to the switch-on coupling, where the
component-ratio mode has curvature of order b - mu, and below it, where a
component that the ground state lacks would drain toward 0 at H^1 speed.

The semitrivial level is the minimum of c(I) over the supports I of size
d-1, found by a support search (`semitrivial_level`).  The d singles are
solved first; with their unit levels c_i = mu_i c({i}) and
C_ij = B_ij / sqrt(c_i c_j), B holding mu on its diagonal and b off it,
every field on the discrete Nehari set with support I has level at least
L_I = 1 / F(C_II), F the simplex maximum (the synchronized reduction again;
both steps are weighted Cauchy-Schwarz, so the bound holds on the grid once
c_i is the discrete single minimum).  The supports are taken in ascending
L_I, branch and bound over the support lattice (Land and Doig, Econometrica
28 (1960)): a support whose bound lies above the best level so far,
outside its tie band, is pruned, and one whose bound is met by the level of
a single inside it takes that single's result unsolved.  Both steps need the bound, so they run only
while every single converged within RESOLUTION_TOL of its continuum level
`UNIT_LEVEL` and no solved level falls below its bound; otherwise every
support is solved.

No global-optimality claim is made: the returned level is the best local
minimum over a deterministic multistart inventory (`_multistart`: the
soliton start, any seeded starts, then RANDOM_STARTS random starts seeded by
their index alone, so a restricted level depends only on its subsystem).
The perturbation certificate provides the only strict-comparison guarantee:
it lists the missing slots i0 where the linearized operator -Laplace +
lambda_i0 - sum_i b_{i,i0} u_i^2 at a semitrivial minimizer u is not
positive definite, and each such slot proves that u is not the ground state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cholesky_banded
from scipy.linalg import cho_solve_banded  # noqa: F401  (perfbench/tracing.py wraps this name)
from scipy.linalg.lapack import dpttrf, dpttrs

from .functional import (
    action_parts_raw,
    gradient_raw,
    nehari_raw,
    simplex_qp_kernel,
    simplex_qp_max,
)
from .grid import MultiField, RadialGrid, operator_tridiag
from .params import ParameterSet, index_set
from .params import validate  # noqa: F401  (perfbench/tracing.py wraps this name)

#: Two multistart results count as the same level when they agree within this
#: relative tolerance; distinct supports at equal level are reported as
#: alternates (uniqueness of minimizers is not guaranteed).
LEVEL_TIE_TOL = 1e-8

#: A descent has converged when the weighted norm of its gradient is at most
#: GRAD_TOL * max(1, 4 * level) (see `_Descent.passes`).
GRAD_TOL = 1e-7

#: Armijo backtracking: first trial step, step shrink factor and
#: sufficient-decrease constant.
INITIAL_STEP = 1.0
BACKTRACK_FACTOR = 0.5
ARMIJO_C = 1e-4

#: Relative L^4 mass below which a component of a computed minimizer is
#: declared identically zero (the fully-nontrivial / semitrivial dichotomy is
#: exact in the continuum; a numeric proxy needs a declared cutoff).
THETA_TRIV = 1e-6

#: Weight of the soliton profile added in the missing slot of each
#: semitrivial start of `ground_state`.
SEMITRIVIAL_EPS = 0.1

#: Iteration cap of one descent; a start that reaches it unconverged is
#: reported with ``converged=False``.
MAX_ITERATIONS = 3000

#: The amplitude step fires only when it lowers the level by more than this
#: relative amount: a component it zeroes never comes back (its gradient is
#: 0), so a gain at roundoff level must not decide the support.
AMPLITUDE_MIN_DROP = 1e-12

#: L-BFGS memory: the number of stored (s, y) pairs that shape each descent
#: direction.  With no pairs stored the direction is the H^1 gradient.
LBFGS_MEMORY = 5

#: A pair (s, y) is stored only when s.y exceeds this fraction of |s| |y|,
#: which keeps the L-BFGS inverse Hessian positive definite.
CURVATURE_MIN = 1e-10

#: Level of the single equation -Laplace w + w = w^3 on R^N in the grid's
#: measure (s_N r^(N-1) dr): 4/3 for N = 1 exactly, N = 2 and 3 by shooting
#: the radial ODE (perfbench keeps a copy, which its `test_unit_levels`
#: re-shoots to 1e-10).  Scaling gives c(lambda, mu) = lambda^((4-N)/2) /
#: mu * UNIT_LEVEL[N] in the continuum.
UNIT_LEVEL = {1: 4.0 / 3.0, 2: 5.850448262261, 3: 18.897251302546}

#: The support search prunes only when every discrete single level lies
#: within this relative distance of its continuum value: the lower bound
#: rests on the singles being the discrete minima of a resolved grid.
RESOLUTION_TOL = 1e-3

#: Relative slack of the support search's comparisons with a lower bound,
#: far above the roundoff of the bound and far below any level gap that
#: decides a verdict.
BOUND_TOL = 1e-10

#: Seeded random starts per multistart, on top of the deterministic ones,
#: and the seed they are drawn from.
RANDOM_STARTS = 2
SEED = 12345


@dataclass(frozen=True)
class GroundStateResult:
    """Minimizer, level, surviving support, and convergence diagnostics.

    Invariants: the Nehari residual of ``fields`` is ~0, ``level`` equals
    the action at ``fields``, components flagged in ``support`` carry L^4
    mass above THETA_TRIV times the largest and all others are identically 0.
    """

    fields: MultiField
    level: float
    support: tuple
    iterations: int
    grad_norm: float
    starts_used: int
    converged: bool
    alternates: tuple = ()

    def to_json_dict(self):
        return {
            "level": self.level,
            "support": [int(i) for i in self.support],
            "iterations": int(self.iterations),
            "grad_norm": self.grad_norm,
            "starts_used": int(self.starts_used),
            "converged": bool(self.converged),
            "alternates": [
                {"support": [int(i) for i in s], "level": lv}
                for (s, lv) in self.alternates
            ],
            "grid": self.fields.grid.to_json_dict(),
        }


@dataclass(frozen=True)
class SemitrivialResult:
    """Best level over the size-(d-1) supports: the results of the supports
    the search solved or closed by a single, the d single results in
    component order, the lower bound of every size-(d-1) support and the
    pruned supports."""

    level: float
    best_subset: tuple
    results: dict
    singles: tuple
    lower_bounds: dict
    pruned: tuple


def soliton_profile(grid: RadialGrid, lam, mu):
    """sqrt(2*lam/mu) * sech(sqrt(lam) r): the exact N=1 single-equation
    ground state, and a serviceable start profile for N = 2, 3.

    sech x is evaluated as 2 e^-x / (1 + e^-2x), which cannot overflow for
    x = sqrt(lam) r >= 0 (1/cosh x overflows once x > 710)."""
    e = np.exp(-np.sqrt(lam) * grid.nodes)
    vals = np.sqrt(2.0 * lam / mu) * (2.0 * e / (1.0 + e * e))
    vals[-1] = 0.0
    return vals


def _random_start(p: ParameterSet, grid: RadialGrid, rng):
    """A (d, n+1) start with a seeded profile amp * exp(-rate r) per component."""
    u = np.empty((p.d, grid.n + 1))
    for i in range(p.d):
        amp = 0.5 + rng.random()
        rate = (0.5 + rng.random()) * np.sqrt(float(p.lam[i]))
        u[i] = amp * np.exp(-rate * grid.nodes)
    return u


def _dot(a, b):
    """Sum of a * b over two (d, n) arrays by numpy's own loop; every dot of
    the descent goes through it (the pair curvature, the two-loop
    coefficients, the decrement <rhs, H rhs> and the gradient norm).  Above
    about 10^4 entries a BLAS dot hands its work to the BLAS worker threads,
    and waking them between the other calls of an iteration costs more than
    the dot (`wide_system` ran at 3.8 points/s with BLAS dots here, 4.6
    with this loop, on 2 cores with threaded OpenBLAS)."""
    return float(np.einsum("ij,ij->", a, b))


class _Pairs:
    """The L-BFGS memory of a descent: ring buffers of LBFGS_MEMORY + 1
    pairs (s, y) on the free nodes, overwritten in place.  A new pair is
    computed straight into the slot that no stored pair uses, so a pair
    that fails the curvature test leaves the stored pairs untouched."""

    def __init__(self, d, n):
        shape = (LBFGS_MEMORY + 1, d, n)
        self.S, self.Y, self.rho = np.empty(shape), np.empty(shape), np.empty(shape[0])
        self.work, self.scaled = np.empty((d, n)), np.empty((d, n))
        self.stored = deque()  # slots of the stored pairs, oldest first

    def clear(self):
        """Forget every pair."""
        self.stored.clear()

    def add(self, u, u_old, rhs, rhs_old):
        """Write the pair s = u - u_old (free nodes), y = rhs - rhs_old into
        the spare slot and store it when s.y > CURVATURE_MIN |s| |y|,
        dropping the oldest pair beyond LBFGS_MEMORY.  s is written row by
        row: numpy copies the strided (d, n) views of a whole-array subtract
        into iterator buffers."""
        slot = next(j for j in range(len(self.S)) if j not in self.stored)
        n = self.work.shape[1]
        s = self.S[slot]
        for i in range(len(s)):
            np.subtract(u[i, :n], u_old[i, :n], out=s[i])
        y = np.subtract(rhs, rhs_old, out=self.Y[slot])
        sy = _dot(s, y)
        if sy > CURVATURE_MIN * np.sqrt(_dot(s, s) * _dot(y, y)):
            self.rho[slot] = 1.0 / sy
            self.stored.append(slot)
            if len(self.stored) > LBFGS_MEMORY:
                self.stored.popleft()


class _Descent:
    """Shared machinery for the descents of one multistart at fixed
    (parameters, grid): the preconditioner is factored once, and the L-BFGS
    ring buffers, the two weighted-gradient buffers, the workspace of the
    action kernels (three (d, n+1) arrays that `gradient_raw` and
    `action_parts_raw` compute into) and the three (d, n+1) run buffers of
    `run` are allocated once, for all starts, so neither a start nor an
    iteration allocates an array of the grid's size."""

    def __init__(self, p: ParameterSet, grid: RadialGrid):
        self.p = p
        self.grid = grid
        self._ldl = None
        self._rhs = [np.empty((p.d, grid.n)) for _ in range(2)]
        self._pairs = _Pairs(p.d, grid.n)
        self._work = np.empty((3, p.d, grid.n + 1))
        self._run = np.zeros((3, p.d, grid.n + 1))

    def _direction(self, rhs):
        """The L-BFGS direction H rhs on the free nodes and <rhs, H rhs>,
        where ``rhs`` is the weighted gradient from `_weigh`.  The direction
        is a (d, n) buffer of the memory, overwritten by the next call.

        The two-loop recursion (Nocedal, Math. Comp. 35 (1980)) runs over
        the stored pairs with the H^1 preconditioner (-Laplace +
        lambda_i)^{-1} as initial inverse Hessian: one dpttrs solve on the
        block-diagonal stack.  With no pair stored, H rhs is the H^1
        gradient.  The LDL^T factors come from a banded Cholesky A = U^T U
        per block: D = diag(U)^2, E = superdiag(U) / diag(U)[:-1], and E = 0
        at block joins."""
        g, d, n = self.grid, self.p.d, self.grid.n
        if self._ldl is None:
            D, E = np.empty((d, n)), np.zeros((d, n))
            for i in range(d):
                diag, off = operator_tridiag(g, float(self.p.lam[i]))
                U = cholesky_banded(np.array([np.append(0.0, off), diag]))
                D[i] = U[1] ** 2
                E[i, :-1] = U[0, 1:] / U[1, :-1]
            self._ldl = D.ravel(), E.ravel()[:-1]
        pairs = self._pairs
        S, Y, rho, x, scaled = pairs.S, pairs.Y, pairs.rho, pairs.work, pairs.scaled
        np.copyto(x, rhs)
        coef = []
        for j in reversed(pairs.stored):
            a = rho[j] * _dot(S[j], x)
            x -= np.multiply(Y[j], a, out=scaled)
            coef.append(a)
        x, info = dpttrs(*self._ldl, x.ravel(), overwrite_b=1)
        if info != 0:
            raise ValueError(f"dpttrs failed (info={info})")
        x = x.reshape(d, n)
        for j, a in zip(pairs.stored, reversed(coef)):
            x += np.multiply(S[j], a - rho[j] * _dot(Y[j], x), out=scaled)
        return x, _dot(rhs, x)

    def _parts(self, values):
        """(q, M) of `action_parts_raw` at values and their Nehari
        projection (t, level), or None when values cannot be projected."""
        q, M = action_parts_raw(self.grid, values, self.p, self._work)
        return q, M, nehari_raw(float(q.sum()), float(M.sum()))

    def _weigh(self, grad):
        """(weights * grad on the free nodes, weighted norm of grad): one
        pass gives both, since grad vanishes at the Dirichlet node.  The
        first array is one of two buffers that the calls take in turn, so
        it survives the next call and is overwritten by the one after.  It
        is filled row by row, as in `_Pairs.add`."""
        self._rhs.reverse()
        rhs, n = self._rhs[0], self.grid.n
        weights = self.grid.weights[:n]
        for i in range(len(rhs)):
            np.multiply(weights, grad[i, :n], out=rhs[i])
        return rhs, float(np.sqrt(_dot(rhs, grad[:, :n])))

    @staticmethod
    def passes(gnorm, level, factor=1.0):
        """The convergence test: gradient norm at most factor * GRAD_TOL
        times max(1, 4 * level)."""
        return gnorm <= factor * GRAD_TOL * max(1.0, 4.0 * level)

    def run(self, u0):
        """Projected L-BFGS descent from u0 (clamped nonnegative, zero at
        the outer node), with the amplitude step after every accepted Armijo
        step.

        The memory starts empty.  After each accepted step the next
        iteration writes the pair of the two points and their weighted
        gradients into it; no pair is made for a step on which the
        amplitude step switches a component off.  The memory is cleared at
        that step, since its pairs describe the level on the support that
        was left, and when a direction is not a descent direction; that
        iteration then moves along the H^1 gradient.

        Backtracking stops once the predicted decrease alpha * <rhs, H rhs>
        is below one ulp of the level, and at alpha = 1e-16 at the latest.
        A descent that finds no lower trial ends there, at the roundoff
        floor of the merit.  The iterate, the previous iterate and the trial
        live in the three run buffers of the descent, zeroed once, which
        swap roles by reference; a trial is built on the free nodes only,
        so the Dirichlet node of every buffer stays 0.  Each buffer is
        written on the free nodes before it is read.

        Returns (values, iterations, grad_norm, converged) or None when the
        start cannot be projected onto the constraint set.  ``values`` is a
        run buffer, which the next run overwrites; `finalize` measures it
        into a new array.
        """
        p, g, n = self.p, self.grid, self.grid.n
        u, u_old, cand = self._run
        np.maximum(u0, 0.0, out=u)
        u[:, -1] = 0.0
        proj = self._parts(u)[2]
        if proj is None:
            return None
        t, phi = proj
        u *= t
        eps = np.finfo(float).eps
        pairs = self._pairs
        pairs.clear()
        rhs_old = None  # the weighted gradient at u_old, when a pair is due
        step = INITIAL_STEP
        converged = False  # the loop runs at least once (MAX_ITERATIONS >= 1)
        for iterations in range(1, MAX_ITERATIONS + 1):
            rhs, gnorm = self._weigh(gradient_raw(g, u, p, self._work))
            if not np.isfinite(gnorm):
                raise ValueError("descent gradient is not finite")
            if self.passes(gnorm, phi):
                converged = True
                break
            if rhs_old is not None:
                pairs.add(u, u_old, rhs, rhs_old)
            direction, decrement = self._direction(rhs)
            if not decrement > 0.0:
                pairs.clear()
                direction, decrement = self._direction(rhs)
            alpha = step
            while alpha > 1e-16 and alpha * decrement > eps * phi:
                trial = cand[:, :n]
                np.multiply(direction, alpha, out=trial)
                np.subtract(u[:, :n], trial, out=trial)
                np.maximum(cand, 0.0, out=cand)  # node n is 0 throughout
                q, M, proj = self._parts(cand)
                if proj is not None and proj[1] < phi - ARMIJO_C * alpha * decrement:
                    t, phi = proj
                    amp = amplitude_step(q, M, phi)
                    rhs_old = rhs
                    if amp is None:
                        cand *= t
                    else:
                        s, phi = amp
                        cand *= s[:, None]
                        if np.count_nonzero(s) < np.count_nonzero(q):
                            pairs.clear()  # a component was switched off
                            rhs_old = None
                    u_old, u, cand = u, cand, u_old
                    break
                alpha *= BACKTRACK_FACTOR
            else:
                # backtracking hit the roundoff floor of the merit function;
                # count it as converged when the gradient is within a small
                # factor of the tolerance (value error scales as gnorm^2)
                converged = self.passes(gnorm, phi, 10.0)
                break
            step = min(INITIAL_STEP, alpha / BACKTRACK_FACTOR)
        return u, iterations, gnorm, converged

    def finalize(self, values):
        """Zero sub-threshold components, reproject, and measure the result
        in a new array.  The L^4 masses (`grid.l4_raw` per row) come from
        one pass over the workspace."""
        p, g = self.p, self.grid
        v4 = np.multiply(values, values, out=self._work[0])
        v4 *= v4
        masses = np.array([float(np.dot(g.weights, v4[i])) for i in range(p.d)])
        top = masses.max()
        if top <= 0.0:
            raise ValueError("descent collapsed to the zero field")
        alive = masses > THETA_TRIV * top
        values = np.where(alive[:, None], values, 0.0)
        t, level = self._parts(values)[2]
        values *= t
        gnorm = self._weigh(gradient_raw(g, values, p, self._work))[1]
        support = tuple(int(i) for i in np.flatnonzero(alive))
        return values, level, support, gnorm


def amplitude_step(q, M, level):
    """Exact minimum of the level over the component amplitudes of a field
    with parts (q, M), faces included.

    Scaling row i by sqrt(t_i) gives the parts (q.t, t.M.t), so `nehari_raw`
    moves the level to f(t) = (q.t)^2 / (4 t.M.t).  Over the rows with
    q_i > 0, s_i = q_i t_i / (q.t) lies on the simplex and f = 1 / (4 s.C.s)
    with C_ij = M_ij / (q_i q_j), so min f = 1 / (4 F) for F the simplex
    maximum of `simplex_qp_kernel`, attained at t_i = z_i / q_i (the
    synchronized reduction of Sirakov, CMP 271 (2007)).  Rows with q_i = 0
    stay 0, and so do the rows with z_i = 0: the step zeroes a component
    when a smaller face is best.

    When at least two rows are live and 1 / (4 F) is below ``level`` by more
    than AMPLITUDE_MIN_DROP relative, this returns (s, f(t)) with s = tau
    sqrt(t) and tau the projection of the scaled rows: the rows scaled by s
    lie on the Nehari set at level f(t), evaluated from (q, M) at t.
    Otherwise it returns None.
    """
    if q.size < 2:
        return None
    if min(q.tolist()) > 0.0:
        F, z = simplex_qp_kernel(M / np.outer(q, q))
        t = z / q
    else:
        live = q > 0.0
        if live.sum() < 2:
            return None
        ql = q[live]
        F, z = simplex_qp_kernel(M[np.ix_(live, live)] / np.outer(ql, ql))
        t = np.zeros(q.size)
        t[live] = z / ql
    if not 4.0 * F * level * (1.0 - AMPLITUDE_MIN_DROP) > 1.0:
        return None
    proj = nehari_raw(float(q @ t), float(t @ M @ t))
    if proj is None:
        return None
    tau, f = proj
    return tau * np.sqrt(t), f


def _tied(level, best):
    """``level`` agrees with ``best`` within LEVEL_TIE_TOL, relative."""
    return abs(level - best) <= LEVEL_TIE_TOL * max(1.0, abs(best))


def _better(entry, best):
    """Lower level entry[0] wins; tied levels break to the smaller support
    entry[1]."""
    if _tied(entry[0], best[0]):
        return entry[1] < best[1]
    return entry[0] < best[0]


def _multistart(p: ParameterSet, grid: RadialGrid, seeded=()) -> GroundStateResult:
    """Best of the soliton start of ``p``, the ``seeded`` starts and
    RANDOM_STARTS random starts, in that order, merged by `_better`.

    The k-th random start is drawn from the seed [SEED, k] with the lambda of
    ``p``, so the result depends only on ``p``, ``grid`` and ``seeded``.  The
    alternates are the other supports whose level, the first seen for each
    support, is tied with the winner's (minimizers need not be unique).
    """
    soliton = np.array([soliton_profile(grid, float(p.lam[i]), float(p.mu[i]))
                        for i in range(p.d)])
    randoms = [_random_start(p, grid, np.random.default_rng([SEED, k]))
               for k in range(RANDOM_STARTS)]
    desc = _Descent(p, grid)
    best = None
    first_level = {}
    runs = 0
    for u0 in [soliton, *seeded, *randoms]:
        out = desc.run(u0)
        if out is None:
            continue
        runs += 1
        values, iterations, gnorm, converged = out
        values, level, sup, gnorm = desc.finalize(values)
        # finalize may zero a slowly decaying component, which leaves a field
        # that passes the test the descent itself never reached
        converged = converged or desc.passes(gnorm, level)
        first_level.setdefault(sup, level)
        if best is None or _better((level, sup), best):
            best = (level, sup, values, iterations, gnorm, converged)
    if best is None:
        raise ValueError("no start could be projected onto the constraint set")
    level, sup, values, iterations, gnorm, converged = best
    return GroundStateResult(
        fields=MultiField(grid, values),
        level=level,
        support=sup,
        iterations=iterations,
        grad_norm=gnorm,
        starts_used=runs,
        converged=converged,
        alternates=tuple(sorted((s, lv) for s, lv in first_level.items()
                                if s != sup and _tied(lv, level))),
    )


def minimize_restricted(p: ParameterSet, support, grid: RadialGrid) -> GroundStateResult:
    """Approximate the ground-state level of the subsystem on ``support``.

    The subsystem ``p.restrict(support)`` keeps the equations in I =
    ``support`` and `_multistart` minimizes it as a system of its own, so the
    result depends only on the subsystem and ``grid``.  The result has d
    rows, identically zero outside I, and its ``support`` and ``alternates``
    use the indices of ``p``.

    A non-converged run is still returned, flagged via ``converged=False``.
    """
    support = index_set(support, p.d, "support", 1)
    res = _multistart(p.restrict(support), grid)
    embedded = np.zeros((p.d, grid.n + 1))
    embedded[list(support)] = res.fields.values

    def lift(s):
        return tuple(support[i] for i in s)

    return replace(res, fields=MultiField(grid, embedded), support=lift(res.support),
                   alternates=tuple((lift(s), lv) for s, lv in res.alternates))


def semitrivial_subsets(d):
    """The d supports of size d-1, each listed without its missing index."""
    return [tuple(i for i in range(d) if i != missing) for missing in range(d)]


def semitrivial_level(p: ParameterSet, grid: RadialGrid, singles=None) -> SemitrivialResult:
    """Minimum ground-state level over the d supports of size d-1, by a
    support search.

    Supports of smaller size are dominated by feasible-set inclusion
    (c(I') <= c(I) for I inside I'), so size d-1 suffices.  ``singles`` is
    None or the d results of `minimize_restricted` (p, (i,), grid) in
    component order (`sweep` shares them between points); with None they
    are solved here.

    The lowest single level is the first best level, since every single
    lies in some support.  Each size-(d-1) support I gets its lower bound
    L_I (module docstring) and the supports are taken in ascending (L_I, I).
    While the bound can be trusted, a support is pruned when even L_I (1 -
    BOUND_TOL) lies above the best level outside its `_tied` band: its level
    can neither win nor tie, so the pruning never changes ``best_subset``.
    A support holding a single i with c({i}) <= L_I (1 + BOUND_TOL) takes
    that single's result without a solve, since c({i}) >= c(I) >= L_I.  Any
    other support is solved; at d = 2 every support is a single and is
    never pruned.  The bound is trusted when every single converged and
    lies within RESOLUTION_TOL of lambda_i^((4-N)/2) / mu_i UNIT_LEVEL[N],
    and stops being trusted for the rest of the call once a level falls
    below its bound by more than BOUND_TOL relative.

    Inclusion guard: a restricted minimizer of I can settle on the soliton
    of another component than i*, the member of I with the lowest single
    level.  Then the single result of i* replaces it when `_better` prefers
    it (lower level, or a tied level and a smaller support), which is sound
    because c(I) <= c({i*}).
    """
    if p.d < 2:
        raise ValueError("semitrivial levels need d >= 2")
    if singles is None:
        singles = [minimize_restricted(p, (i,), grid) for i in range(p.d)]
    singles = tuple(singles)
    if len(singles) != p.d:
        raise ValueError(f"expected {p.d} single results, got {len(singles)}")
    for i, res in enumerate(singles):
        if not isinstance(res, GroundStateResult) or res.support != (i,):
            raise ValueError(f"single {i} is not a result of support ({i},)")
        if res.fields.grid.key != grid.key:
            raise ValueError(f"result of single {i} was solved on another grid")
    unit = p.mu * np.array([res.level for res in singles])
    B = p.b.copy()
    np.fill_diagonal(B, p.mu)
    C = B / np.sqrt(np.outer(unit, unit))
    bounds = {subset: 1.0 / simplex_qp_max(C[np.ix_(subset, subset)])[0]
              for subset in semitrivial_subsets(p.d)}
    continuum = p.lam ** ((4.0 - p.N) / 2.0) * UNIT_LEVEL[p.N]
    trusted = (all(res.converged for res in singles)
               and float(np.abs(unit / continuum - 1.0).max()) <= RESOLUTION_TOL)

    best_level = min(res.level for res in singles)
    results, pruned = {}, []
    for subset in sorted(bounds, key=lambda s: (bounds[s], s)):
        bound = bounds[subset]
        lowest = min(subset, key=lambda i: (singles[i].level, i))
        single = singles[lowest]
        res = single if len(subset) == 1 else None
        if res is None and trusted:
            floor = bound * (1.0 - BOUND_TOL)  # the least level the bound allows
            if floor > best_level and not _tied(floor, best_level):
                pruned.append(subset)
                continue
            if single.level <= bound * (1.0 + BOUND_TOL):
                res = single
        if res is None:
            res = minimize_restricted(p, subset, grid)
        if res.level < bound * (1.0 - BOUND_TOL):
            trusted = False
        if lowest not in res.support and _better((single.level, single.support),
                                                 (res.level, res.support)):
            res = single
        results[subset] = res
        best_level = min(best_level, res.level)

    best_subset = None
    for subset, res in sorted(results.items()):
        if best_subset is None or _better((res.level, subset), (best.level, best_subset)):
            best_subset, best = subset, res
    return SemitrivialResult(level=best.level, best_subset=best_subset, results=results,
                             singles=singles, lower_bounds=bounds, pruned=tuple(pruned))


def ground_state(p: ParameterSet, grid: RadialGrid,
                 semitrivial: SemitrivialResult = None) -> GroundStateResult:
    """Best level over the full multistart inventory.

    For d = 1 this is the plain `_multistart` of ``p``.  Otherwise the
    minimizers of ``semitrivial.results`` are seeded into `_multistart`
    between its soliton start and its random starts: each distinct
    minimizer bare, once (supports closed by one single share its result
    object, and a repeated bare start would repeat its descent), and each
    support's minimizer with SEMITRIVIAL_EPS times the soliton profile added
    in the missing slot; a support that the search pruned seeds nothing.
    The bare starts include the best semitrivial minimizer, so the returned
    level never exceeds the semitrivial level by more than solver noise.
    The level is an upper approximation of the true ground-state level.
    """
    if p.d == 1:
        return _multistart(p, grid)
    if semitrivial is None:
        semitrivial = semitrivial_level(p, grid)

    seeded, bare = [], set()
    for subset, res in sorted(semitrivial.results.items()):
        if id(res) not in bare:
            bare.add(id(res))
            seeded.append(res.fields.values)
        missing = next(i for i in range(p.d) if i not in subset)
        bumped = res.fields.values.copy()
        bumped[missing] += SEMITRIVIAL_EPS * soliton_profile(
            grid, float(p.lam[missing]), float(p.mu[missing]))
        seeded.append(bumped)
    return _multistart(p, grid, seeded)


def perturbation_certificate(p: ParameterSet, semi: GroundStateResult) -> tuple:
    """Missing slots i0 in which the semitrivial minimizer u is unstable.

    Slot i0 is unstable when the linearized operator -Laplace + lambda_i0 -
    sum_{i in support} b_{i,i0} u_i^2 is not positive definite in the
    weighted pairing, i.e. some w has ||w||^2_{lambda_i0} <= sum_i b_{i,i0}
    |u_i w|_2^2.  Where that holds strictly, switching w on lowers the
    action below the level of u, so u is not the ground state.  The operator
    is tridiagonal, and by Sylvester's criterion its LDL^T factorization
    (LAPACK dpttrf) meets a nonpositive pivot exactly when it is not
    positive definite.  Returns the unstable slots in increasing order.
    """
    g = semi.fields.grid
    alive = list(semi.support)
    u2 = semi.fields.values[alive, :g.n] ** 2
    unstable = []
    for i0 in range(p.d):
        if i0 in semi.support:
            continue
        potential = float(p.lam[i0]) - p.b[alive, i0] @ u2
        info = dpttrf(*operator_tridiag(g, potential))[2]
        if info < 0:
            raise ValueError(f"dpttrf rejected its arguments (info={info})")
        if info > 0:
            unstable.append(i0)
    return tuple(unstable)
