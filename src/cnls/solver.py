"""Ground-state levels c(I) by multistart minimization over the Nehari set.

The level c(I) of a support I is the ground-state level of the subsystem
made of the equations in I, so `minimize_restricted` solves that subsystem
as a system of its own (parameters lam[I], mu[I], b[I, I]) and embeds the
minimizer with zero rows outside I.

The minimization runs on the constraint surface tau(u) = 0, which is free
to enforce because the rescaling is closed form: every iterate is projected
back by `functional.nehari_raw`, the one Nehari projection (`nehari_scale`
and `action_on_nehari` are built on it).  Descent uses the H^1 (Sobolev)
gradient, i.e. the raw gradient preconditioned by (-Laplace + lambda_i)^{-1}
per component (one banded Cholesky factorization per component, reused
across iterations), with Armijo backtracking on the scale-invariant merit
action_on_nehari.  Iterates are clamped nonnegative: ground states have
signed components, and fixing the positive representative removes sign
oscillation.

No global-optimality claim is made: the returned level is the best local
minimum over a deterministic multistart inventory.  The perturbation
certificate provides the only strict-comparison guarantee (it certifies
that a given semitrivial configuration is not the ground state).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .functional import action_parts_raw, gradient_raw, nehari_raw
from .grid import Field, MultiField, RadialGrid, h1_sq_raw, l4_raw, mixed_raw, wdot
from .params import ParameterSet, as_float, as_int, validate

#: Two multistart results count as the same level when they agree within this
#: relative tolerance; distinct supports at equal level are reported as
#: alternates (uniqueness of minimizers is not guaranteed).
LEVEL_TIE_TOL = 1e-8

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


@dataclass(frozen=True)
class SolverOptions:
    """Descent and multistart controls."""

    max_iterations: int = 3000
    grad_tol: float = 1e-7
    random_starts: int = 2
    seed: int = 12345

    def __post_init__(self):
        for name in ("max_iterations", "random_starts", "seed"):
            as_int(getattr(self, name), name)
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be > 0")
        if as_float(self.grad_tol, "grad_tol") <= 0:
            raise ValueError("grad_tol must be > 0")
        if self.random_starts < 0:
            raise ValueError("random_starts must be >= 0")

    @classmethod
    def from_json_dict(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("solver options must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        bad = set(obj) - known
        if bad:
            raise ValueError(f"unknown solver option(s): {sorted(bad)}")
        return cls(**obj)


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
    """Best level over the size-(d-1) supports, with per-support results."""

    level: float
    best_subset: tuple
    results: dict
    converged: bool


@dataclass(frozen=True)
class CertificateReport:
    """Strict inequality ||w||^2_{lambda_i0} < sum_i b_{i,i0} |u_i w|_2^2.

    When it holds, the missing component can be switched on at first order
    with an action strictly below the given semitrivial level, so that
    configuration is certified not to be the ground state.
    """

    lhs: float
    rhs: float
    holds: bool
    missing_index: int


def soliton_profile(grid: RadialGrid, lam, mu):
    """sqrt(2*lam/mu) * sech(sqrt(lam) r): the exact N=1 single-equation
    ground state, and a serviceable start profile for N = 2, 3.

    sech x is evaluated as 2 e^-x / (1 + e^-2x), which cannot overflow for
    x = sqrt(lam) r >= 0 (1/cosh x overflows once x > 710)."""
    e = np.exp(-np.sqrt(lam) * grid.nodes)
    vals = np.sqrt(2.0 * lam / mu) * (2.0 * e / (1.0 + e * e))
    vals[-1] = 0.0
    return vals


def _soliton_start(p: ParameterSet, grid: RadialGrid):
    """A (d, n+1) start with the soliton profile of every component."""
    return np.array(
        [soliton_profile(grid, float(p.lam[i]), float(p.mu[i])) for i in range(p.d)]
    )


def _random_start(p: ParameterSet, grid: RadialGrid, rng):
    """A (d, n+1) start with a seeded profile amp * exp(-rate r) per component."""
    u = np.empty((p.d, grid.n + 1))
    for i in range(p.d):
        amp = 0.5 + rng.random()
        rate = (0.5 + rng.random()) * np.sqrt(float(p.lam[i]))
        u[i] = amp * np.exp(-rate * grid.nodes)
    return u


class _Descent:
    """Shared machinery for descents at fixed (parameters, grid)."""

    def __init__(self, p: ParameterSet, grid: RadialGrid, opts: SolverOptions):
        self.p = p
        self.grid = grid
        self.opts = opts
        self._factor_cache = {}

    def _factor(self, i):
        fac = self._factor_cache.get(i)
        if fac is None:
            g = self.grid
            n = g.n
            h2 = g.h**2
            sig = g.cell_weights
            diag = np.empty(n)
            diag[0] = sig[0] / h2
            diag[1:] = (sig[: n - 1] + sig[1:n]) / h2
            diag += float(self.p.lam[i]) * g.weights[:n]
            ab = np.zeros((2, n))
            ab[0, 1:] = -sig[: n - 1] / h2
            ab[1, :] = diag
            fac = cholesky_banded(ab)
            self._factor_cache[i] = fac
        return fac

    def _project(self, values):
        return nehari_raw(*action_parts_raw(self.grid, values, self.p))

    def _norm(self, grad):
        g = self.grid
        return float(np.sqrt(sum(wdot(g, grad[i], grad[i]) for i in range(self.p.d))))

    def run(self, u0):
        """Projected, preconditioned descent from u0 (clamped nonnegative,
        zero at the outer node).

        Returns (values, iterations, grad_norm, converged) or None when the
        start cannot be projected onto the constraint set.
        """
        p, g, opts = self.p, self.grid, self.opts
        n = g.n
        u = np.maximum(u0, 0.0)
        u[:, -1] = 0.0
        proj = self._project(u)
        if proj is None:
            return None
        t, phi = proj
        u *= t
        step = INITIAL_STEP
        gnorm = np.inf
        iterations = 0
        converged = False
        direction = np.zeros_like(u)
        for iterations in range(1, opts.max_iterations + 1):
            grad = gradient_raw(g, u, p)
            gnorm = self._norm(grad)
            if gnorm <= opts.grad_tol * max(1.0, 4.0 * phi):
                converged = True
                break
            decrement = 0.0
            for i in range(p.d):
                rhs = (g.weights * grad[i])[:n]
                direction[i, :n] = cho_solve_banded((self._factor(i), False), rhs)
                decrement += wdot(g, grad[i], direction[i])
            alpha = step
            accepted = False
            while alpha > 1e-16:
                cand = np.maximum(u - alpha * direction, 0.0)
                cand[:, -1] = 0.0
                proj = self._project(cand)
                if proj is not None and proj[1] <= phi - ARMIJO_C * alpha * decrement:
                    t, phi = proj
                    u = t * cand
                    accepted = True
                    break
                alpha *= BACKTRACK_FACTOR
            if not accepted:
                # backtracking hit the roundoff floor of the merit function;
                # count it as converged when the gradient is within a small
                # factor of the tolerance (value error scales as gnorm^2)
                converged = gnorm <= 10.0 * opts.grad_tol * max(1.0, 4.0 * phi)
                break
            step = min(INITIAL_STEP, alpha / BACKTRACK_FACTOR)
        return u, iterations, gnorm, converged

    def finalize(self, values):
        """Zero sub-threshold components, reproject, and measure the result."""
        p, g = self.p, self.grid
        masses = np.array([l4_raw(g, values[i]) for i in range(p.d)])
        top = masses.max()
        if top <= 0.0:
            raise ValueError("descent collapsed to the zero field")
        alive = masses > THETA_TRIV * top
        values = np.where(alive[:, None], values, 0.0)
        t, level = self._project(values)
        values = t * values
        gnorm = self._norm(gradient_raw(g, values, p))
        support = tuple(int(i) for i in np.flatnonzero(alive))
        return values, level, support, gnorm


def _run_starts(desc: _Descent, starts) -> GroundStateResult:
    """Run every start and merge: lowest level wins, ties break to the
    lexicographically smallest support; tied distinct supports are kept as
    alternates (minimizers need not be unique)."""
    best = None
    alternates = {}
    runs = 0
    for u0 in starts:
        out = desc.run(u0)
        if out is None:
            continue
        runs += 1
        values, iterations, gnorm, converged = out
        values, level, sup, gnorm = desc.finalize(values)
        entry = (level, sup, values, iterations, gnorm, converged)
        if best is None or _better(entry, best):
            best = entry
        elif _tied(entry, best) and sup != best[1] and sup not in alternates:
            alternates[sup] = level
    if best is None:
        raise ValueError("no start could be projected onto the constraint set")
    alternates.pop(best[1], None)
    level, sup, values, iterations, gnorm, converged = best
    return GroundStateResult(
        fields=MultiField(desc.grid, values),
        level=level,
        support=sup,
        iterations=iterations,
        grad_norm=gnorm,
        starts_used=runs,
        converged=converged,
        alternates=tuple(sorted(alternates.items())),
    )


def minimize_restricted(p: ParameterSet, support, grid: RadialGrid,
                        opts: SolverOptions = SolverOptions(),
                        init: MultiField = None) -> GroundStateResult:
    """Approximate the ground-state level of the subsystem on ``support``.

    The subsystem keeps the equations in I = ``support`` (parameters
    lam[I], mu[I], b[I, I]) and is minimized as a system of its own.  The
    result has d rows, identically zero outside I, and its ``support`` and
    ``alternates`` use the indices of ``p``.  With ``init`` given (d rows,
    zero outside I), a single descent runs from it; otherwise the start
    inventory is the subsystem's soliton start plus ``opts.random_starts``
    seeded random starts.

    A non-converged run is still returned, flagged via ``converged=False``.
    """
    validate(p)
    support = tuple(sorted(set(int(i) for i in support)))
    if not support:
        raise ValueError("support must be a nonempty index set")
    for i in support:
        if not 0 <= i < p.d:
            raise ValueError(f"support index {i} out of range for d={p.d}")
    rows = list(support)
    sub = ParameterSet(d=len(rows), N=p.N, lam=p.lam[rows], mu=p.mu[rows],
                       b=p.b[np.ix_(rows, rows)])

    if init is not None:
        if init.grid.key != grid.key:
            raise ValueError("init fields live on a different grid")
        if init.d != p.d:
            raise ValueError(f"init has {init.d} components, parameters have d={p.d}")
        if np.any(np.delete(init.values, rows, axis=0) != 0.0):
            raise ValueError("init has nonzero components outside the support")
        starts = [init.values[rows]]
    else:
        bitmask = sum(1 << i for i in support)
        starts = [_soliton_start(sub, grid)] + [
            _random_start(sub, grid, np.random.default_rng([opts.seed, 17, bitmask, k]))
            for k in range(opts.random_starts)
        ]

    res = _run_starts(_Descent(sub, grid, opts), starts)
    embedded = np.zeros((p.d, grid.n + 1))
    embedded[rows] = res.fields.values

    def lift(s):
        return tuple(support[i] for i in s)

    return replace(res, fields=MultiField(grid, embedded), support=lift(res.support),
                   alternates=tuple((lift(s), lv) for s, lv in res.alternates))


def _tied(entry, best):
    """Levels (entry[0], best[0]) agree within LEVEL_TIE_TOL, relative."""
    return abs(entry[0] - best[0]) <= LEVEL_TIE_TOL * max(1.0, abs(best[0]))


def _better(entry, best):
    """Lower level wins; tied levels break to the smaller support entry[1]."""
    if _tied(entry, best):
        return entry[1] < best[1]
    return entry[0] < best[0]


def semitrivial_level(p: ParameterSet, grid: RadialGrid,
                      opts: SolverOptions = SolverOptions()) -> SemitrivialResult:
    """Minimum ground-state level over the d supports of size d-1.

    Supports of smaller size are dominated by feasible-set inclusion
    (c(I') <= c(I) for I inside I'), so size d-1 suffices.
    """
    validate(p)
    if p.d < 2:
        raise ValueError("semitrivial levels need d >= 2")
    results = {}
    for missing in range(p.d):
        subset = tuple(i for i in range(p.d) if i != missing)
        results[subset] = minimize_restricted(p, subset, grid, opts)
    best_subset = None
    for subset, res in sorted(results.items()):
        if best_subset is None or _better((res.level, subset), (best.level, best_subset)):
            best_subset, best = subset, res
    return SemitrivialResult(
        level=best.level,
        best_subset=best_subset,
        results=results,
        converged=best.converged,
    )


def ground_state(p: ParameterSet, grid: RadialGrid,
                 opts: SolverOptions = SolverOptions(),
                 semitrivial: SemitrivialResult = None) -> GroundStateResult:
    """Best level over the full multistart inventory.

    Starts: (a) soliton-type profiles in every slot, (b) each size-(d-1)
    semitrivial minimizer, bare and with SEMITRIVIAL_EPS times the soliton
    profile added in the missing slot, (c) seeded random positive profiles.
    The bare semitrivial starts guarantee the returned level never exceeds
    the semitrivial level by more than solver noise.  The level is an upper
    approximation of the true ground-state level.
    """
    validate(p)
    if p.d == 1:
        return minimize_restricted(p, (0,), grid, opts)
    if semitrivial is None:
        semitrivial = semitrivial_level(p, grid, opts)

    soliton = _soliton_start(p, grid)
    starts = [soliton]
    for subset, res in sorted(semitrivial.results.items()):
        missing = next(i for i in range(p.d) if i not in subset)
        bumped = res.fields.values.copy()
        bumped[missing] += SEMITRIVIAL_EPS * soliton[missing]
        starts += [res.fields.values, bumped]
    starts += [_random_start(p, grid, np.random.default_rng([opts.seed, 23, k]))
               for k in range(opts.random_starts)]

    return _run_starts(_Descent(p, grid, opts), starts)


def perturbation_certificate(p: ParameterSet, semi: GroundStateResult,
                             w: Field) -> CertificateReport:
    """Test ||w||^2_{lambda_i0} < sum_{i in support} b_{i,i0} |u_i w|_2^2.

    ``semi`` must miss exactly one component i0.  Both sides are degree-2
    homogeneous in w, so the verdict is scale free.
    """
    validate(p)
    missing = [i for i in range(p.d) if i not in semi.support]
    if len(missing) != 1:
        raise ValueError(
            f"certificate needs exactly one missing component, got {len(missing)}"
        )
    i0 = missing[0]
    if w.grid.key != semi.fields.grid.key:
        raise ValueError("candidate field lives on a different grid")
    if not np.any(w.values != 0.0):
        raise ValueError("candidate field w must be nonzero")
    lhs = h1_sq_raw(w.grid, w.values, float(p.lam[i0]))
    rhs = 0.0
    for i in semi.support:
        rhs += float(p.b[i, i0]) * mixed_raw(w.grid, semi.fields.values[i], w.values)
    return CertificateReport(lhs=lhs, rhs=rhs, holds=lhs < rhs, missing_index=i0)
