"""Ground-state levels c(I) by multistart minimization over the Nehari set.

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

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .functional import action_parts_raw, gradient_raw, nehari_raw
from .grid import Field, MultiField, RadialGrid, h1_sq_raw, l4_raw, mixed_raw, wdot
from .params import ParameterSet, validate

#: Two multistart results count as the same level when they agree within this
#: relative tolerance; distinct supports at equal level are reported as
#: alternates (uniqueness of minimizers is not guaranteed).
LEVEL_TIE_TOL = 1e-8


@dataclass(frozen=True)
class SolverOptions:
    """Descent and multistart controls.

    ``theta_triv`` is the relative L^4 mass below which a component of a
    computed minimizer is declared identically zero (the fully-nontrivial /
    semitrivial dichotomy is exact in the continuum; a numeric proxy needs a
    declared cutoff).
    """

    max_iterations: int = 3000
    initial_step: float = 1.0
    backtrack_factor: float = 0.5
    armijo_c: float = 1e-4
    grad_tol: float = 1e-7
    theta_triv: float = 1e-6
    random_starts: int = 2
    seed: int = 12345
    semitrivial_eps: float = 0.1

    def __post_init__(self):
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be > 0")
        if self.initial_step <= 0:
            raise ValueError("initial_step must be > 0")
        if not 0 < self.backtrack_factor < 1:
            raise ValueError("backtrack_factor must be in (0, 1)")
        if not 0 < self.armijo_c < 1:
            raise ValueError("armijo_c must be in (0, 1)")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be > 0")
        if not 0 < self.theta_triv < 1e-2:
            raise ValueError("theta_triv must be in (0, 1e-2)")
        if self.random_starts < 0:
            raise ValueError("random_starts must be >= 0")
        if self.semitrivial_eps <= 0:
            raise ValueError("semitrivial_eps must be > 0")

    @classmethod
    def from_json_dict(cls, obj):
        known = {f for f in cls.__dataclass_fields__}
        bad = set(obj) - known
        if bad:
            raise ValueError(f"unknown solver option(s): {sorted(bad)}")
        return cls(**obj)

    def to_json_dict(self):
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass(frozen=True)
class GroundStateResult:
    """Minimizer, level, surviving support, and convergence diagnostics.

    Invariants: the Nehari residual of ``fields`` is ~0, ``level`` equals
    the action at ``fields``, components flagged in ``support`` carry L^4
    mass above the triviality threshold and all others are identically 0.
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

    def to_json_dict(self):
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": bool(self.holds),
            "missing_index": int(self.missing_index),
        }


def soliton_profile(grid: RadialGrid, lam, mu):
    """sqrt(2*lam/mu) * sech(sqrt(lam) r): the exact N=1 single-equation
    ground state, and a serviceable start profile for N = 2, 3.

    sech x is evaluated as 2 e^-x / (1 + e^-2x), which cannot overflow for
    x = sqrt(lam) r >= 0 (1/cosh x overflows once x > 710)."""
    e = np.exp(-np.sqrt(lam) * grid.nodes)
    vals = np.sqrt(2.0 * lam / mu) * (2.0 * e / (1.0 + e * e))
    vals[-1] = 0.0
    return vals


def _random_profile(grid: RadialGrid, rng, lam):
    amp = 0.5 + rng.random()
    rate = (0.5 + rng.random()) * np.sqrt(lam)
    vals = amp * np.exp(-rate * grid.nodes)
    vals[-1] = 0.0
    return vals


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

    def run(self, u0, mask):
        """Projected, preconditioned descent from u0 on the given support.

        Returns (values, iterations, grad_norm, converged) or None when the
        start cannot be projected onto the constraint set.
        """
        p, g, opts = self.p, self.grid, self.opts
        n = g.n
        u = np.where(mask[:, None], np.maximum(u0, 0.0), 0.0)
        u[:, -1] = 0.0
        proj = self._project(u)
        if proj is None:
            return None
        t, phi = proj
        u *= t
        step = opts.initial_step
        gnorm = np.inf
        iterations = 0
        converged = False
        direction = np.zeros_like(u)
        for iterations in range(1, opts.max_iterations + 1):
            grad = gradient_raw(g, u, p)
            grad[~mask] = 0.0
            gnorm = self._norm(grad)
            if gnorm <= opts.grad_tol * max(1.0, 4.0 * phi):
                converged = True
                break
            decrement = 0.0
            for i in range(p.d):
                if not mask[i]:
                    direction[i] = 0.0
                    continue
                rhs = (g.weights * grad[i])[:n]
                direction[i, :n] = cho_solve_banded((self._factor(i), False), rhs)
                direction[i, n] = 0.0
                decrement += wdot(g, grad[i], direction[i])
            alpha = step
            accepted = False
            while alpha > 1e-16:
                cand = np.maximum(u - alpha * direction, 0.0)
                cand[:, -1] = 0.0
                proj = self._project(cand)
                if proj is not None and proj[1] <= phi - opts.armijo_c * alpha * decrement:
                    t, phi = proj
                    u = t * cand
                    accepted = True
                    break
                alpha *= opts.backtrack_factor
            if not accepted:
                # backtracking hit the roundoff floor of the merit function;
                # count it as converged when the gradient is within a small
                # factor of the tolerance (value error scales as gnorm^2)
                converged = gnorm <= 10.0 * opts.grad_tol * max(1.0, 4.0 * phi)
                break
            step = min(opts.initial_step, alpha / opts.backtrack_factor)
        return u, iterations, gnorm, converged

    def finalize(self, values):
        """Zero sub-threshold components, reproject, and measure the result."""
        p, g = self.p, self.grid
        masses = np.array([l4_raw(g, values[i]) for i in range(p.d)])
        top = masses.max()
        if top <= 0.0:
            raise ValueError("descent collapsed to the zero field")
        alive = masses > self.opts.theta_triv * top
        values = np.where(alive[:, None], values, 0.0)
        t, level = self._project(values)
        values = t * values
        gnorm = self._norm(gradient_raw(g, values, p))
        support = tuple(int(i) for i in np.flatnonzero(alive))
        return values, level, support, gnorm


def _support_mask(d, indices):
    mask = np.zeros(d, dtype=bool)
    for i in indices:
        if not 0 <= i < d:
            raise ValueError(f"support index {i} out of range for d={d}")
        mask[i] = True
    return mask


def _run_starts(desc: _Descent, starts):
    """Run every (start, mask) pair and merge: lowest level wins, ties break
    to the lexicographically smallest support; tied distinct supports are
    kept as alternates (minimizers need not be unique)."""
    best = None
    alternates = {}
    runs = 0
    for u0, mask in starts:
        out = desc.run(u0, mask)
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
    return best, alternates, runs


def _as_result(grid, best, alternates, runs) -> GroundStateResult:
    level, sup, values, iterations, gnorm, converged = best
    return GroundStateResult(
        fields=MultiField(grid, values),
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

    Components outside ``support`` stay identically zero throughout.  With
    ``init`` given, a single descent runs from it (components outside the
    support must be zero); otherwise the start inventory is one soliton-type
    profile per supported component plus ``opts.random_starts`` seeded
    positive random profiles.

    A non-converged run is still returned, flagged via ``converged=False``.
    """
    validate(p)
    support = tuple(sorted(set(int(i) for i in support)))
    if not support:
        raise ValueError("support must be a nonempty index set")
    mask = _support_mask(p.d, support)
    desc = _Descent(p, grid, opts)

    starts = []
    if init is not None:
        if init.grid.key != grid.key:
            raise ValueError("init fields live on a different grid")
        if np.any(init.values[~mask] != 0.0):
            raise ValueError("init has nonzero components outside the support")
        starts.append((init.values.copy(), mask))
    else:
        u0 = np.zeros((p.d, grid.n + 1))
        for i in support:
            u0[i] = soliton_profile(grid, float(p.lam[i]), float(p.mu[i]))
        starts.append((u0, mask))
        bitmask = sum(1 << i for i in support)
        for k in range(opts.random_starts):
            rng = np.random.default_rng([opts.seed, 17, bitmask, k])
            ur = np.zeros((p.d, grid.n + 1))
            for i in support:
                ur[i] = _random_profile(grid, rng, float(p.lam[i]))
            starts.append((ur, mask))

    best, alternates, runs = _run_starts(desc, starts)
    return _as_result(grid, best, alternates, runs)


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
    semitrivial minimizer, bare and with ``opts.semitrivial_eps`` times a
    soliton profile added in the missing slot, (c) seeded random positive
    profiles.  The bare semitrivial starts guarantee the returned level
    never exceeds the semitrivial level by more than solver noise.  The
    level is an upper approximation of the true ground-state level.
    """
    validate(p)
    if p.d == 1:
        return minimize_restricted(p, (0,), grid, opts)
    if semitrivial is None:
        semitrivial = semitrivial_level(p, grid, opts)
    mask = np.ones(p.d, dtype=bool)
    desc = _Descent(p, grid, opts)

    starts = []
    starts.append((np.array(
        [soliton_profile(grid, float(p.lam[i]), float(p.mu[i])) for i in range(p.d)]
    ), mask))
    for subset, res in sorted(semitrivial.results.items()):
        missing = next(i for i in range(p.d) if i not in subset)
        base = res.fields.values.copy()
        starts.append((base, mask))
        bumped = base.copy()
        bumped[missing] += opts.semitrivial_eps * soliton_profile(
            grid, float(p.lam[missing]), float(p.mu[missing])
        )
        starts.append((bumped, mask))
    for k in range(opts.random_starts):
        rng = np.random.default_rng([opts.seed, 23, k])
        starts.append((np.array(
            [_random_profile(grid, rng, float(p.lam[i])) for i in range(p.d)]
        ), mask))

    best, alternates, runs = _run_starts(desc, starts)
    return _as_result(grid, best, alternates, runs)


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
