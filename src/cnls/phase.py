"""Phase classification: numeric levels plus analytic hypothesis flags.

`classify` compares the best full and semitrivial levels, decides by the
first row of `VERDICT_RULES` whose test holds and names it in ``decided_by``.

Analytic predicates (lambda clustering, coupling spread, the small-coupling
bound) are attached for interpretation but never override the numbers: the
closed-form existence conditions involve non-explicit largeness constants,
so "hypothesis holds" does not pin down a verdict at a given coupling.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter, namedtuple
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .grid import RadialGrid, default_radius
from .params import (
    ParameterSet,
    alpha_threshold,
    as_float,
    as_int,
    small_b_bound,
    values_all_equal,
)
from .params import validate  # noqa: F401  (perfbench/tracing.py wraps this name)
from .solver import (
    ground_state,
    minimize_restricted,
    perturbation_certificate,
    semitrivial_level,
)

FULLY_NONTRIVIAL = "fully_nontrivial"
SEMITRIVIAL = "semitrivial"
INCONCLUSIVE = "inconclusive"

PREDICATE_NAMES = ("lambda_tail", "lambda_cluster", "coupling_spread", "small_coupling")

#: Decision margin of `classify`, relative to the semitrivial level; safely
#: above the solver's discretization noise at the default resolution.
MARGIN_TOL = 1e-4

#: The verdict table of `classify`: (name, verdict, test) rows; the first row
#: whose test holds decides, and past the first row the tests partition the
#: cases.  A test reads `VerdictFacts`: whether every solve converged, the
#: margin is above MARGIN_TOL * |semitrivial level| and every component of the
#: full minimizer is alive, and the best semitrivial minimizer's unstable slots.
VerdictFacts = namedtuple("VerdictFacts", "converged above_band all_alive unstable_slots")
VERDICT_RULES = (
    ("unconverged", INCONCLUSIVE, lambda f: not f.converged),
    ("margin_above_band", FULLY_NONTRIVIAL, lambda f: f.above_band and f.all_alive),
    ("full_support_incomplete", INCONCLUSIVE, lambda f: f.above_band and not f.all_alive),
    ("stable_semitrivial", SEMITRIVIAL, lambda f: not f.above_band and not f.unstable_slots),
    ("unstable_slot", INCONCLUSIVE, lambda f: not f.above_band and bool(f.unstable_slots)),
)

#: Largest number of points one `sweep` may classify.
SWEEP_CAP = 2000

#: Largest sweep process pool; a `fork` pool starts all its workers at once.
WORKERS_CAP = 64


@dataclass(frozen=True)
class PhaseOptions:
    """Grid size and worker count of classification runs.  The radius is not
    an option: `build_grid` always derives it as 20/sqrt(min lambda)."""

    grid_n: int = 2000
    workers: int = 1

    def __post_init__(self):
        if as_int(self.grid_n, "grid_n") < 100:
            raise ValueError("grid_n must be >= 100")
        if not 1 <= as_int(self.workers, "workers") <= WORKERS_CAP:
            raise ValueError(f"workers must be between 1 and {WORKERS_CAP}")


@dataclass(frozen=True)
class PredicateReport:
    """One analytic hypothesis: whether it applies here and whether it holds."""

    name: str
    applicable: bool
    satisfied: bool
    info: dict

    def to_json_dict(self):
        return {
            "name": self.name,
            "applicable": bool(self.applicable),
            "satisfied": None if not self.applicable else bool(self.satisfied),
            "info": self.info,
        }


@dataclass(frozen=True)
class PhaseVerdict:
    """Classification of a parameter set with the numbers behind it."""

    verdict: str
    decided_by: str  # the `VERDICT_RULES` row that gave the verdict
    numeric_full_level: float
    numeric_semitrivial_level: float
    margin: float
    certificate_held: bool
    predicates: dict
    full_support: tuple
    diagnostics: dict

    def to_json_dict(self):
        return {
            "verdict": self.verdict,
            "decided_by": self.decided_by,
            "numeric_full_level": self.numeric_full_level,
            "numeric_semitrivial_level": self.numeric_semitrivial_level,
            "margin": self.margin,
            "certificate_held": bool(self.certificate_held),
            "predicates": {k: v.to_json_dict() for k, v in self.predicates.items()},
            "full_support": [int(i) for i in self.full_support],
            "diagnostics": self.diagnostics,
        }


def _grid_key(p: ParameterSet, opts: PhaseOptions):
    """(N, R, n) of the grid for ``p``: R = `default_radius` of min lambda."""
    return p.N, default_radius(float(p.lam.min())), opts.grid_n


def build_grid(p: ParameterSet, opts: PhaseOptions) -> RadialGrid:
    return RadialGrid.make(*_grid_key(p, opts))


def _report(name, numbers, unmet=None, satisfied=False):
    """Report that applies unless a hypothesis is ``unmet`` (its reason)."""
    if unmet is not None:
        return PredicateReport(name, False, False, {**numbers, "reason": unmet})
    return PredicateReport(name, True, satisfied, numbers)


def _ratio_below(values, alpha):
    """max/min of ``values`` and whether max < alpha * min (strictly)."""
    vmax, vmin = float(values.max()), float(values.min())
    return vmax / vmin, vmax < alpha * vmin


def evaluate_predicates(p: ParameterSet):
    """Evaluate the paper's closed-form conditions for ``p``.

    With lambda sorted, lambda_1 <= ... <= lambda_d, and d >= 3:

      * ``lambda_tail``: max/min of (lambda_2, ..., lambda_d) is below
        alpha = alpha_threshold(lambda_2/lambda_1, d, N);
      * ``lambda_cluster``: max/min of the whole lambda vector is below
        alpha = 1 + 1/(d - 2);
      * ``coupling_spread`` (equal lambdas only): alpha_gap > 0 and
        spread < alpha_gap/(d - 2), where alpha_gap = min_i (min_{j != i}
        b_ij - mu_i) and spread = max_i (max_{j != i} b_ij - min_{j != i} b_ij).

    With d >= 2, ``small_coupling``: the constant coupling b is below
    small_b_bound(mu).  The two lambda conditions and small_coupling
    require a constant coupling.  Every inequality is strict: a tie such as
    max = alpha * min does not satisfy its condition.

    Each report's ``info`` carries the numbers of its condition wherever they
    are defined; a report that does not apply adds the ``reason``.
    """
    out = {}
    b_const = p.constant_coupling()
    nonconstant = None if b_const is not None else "requires constant coupling"
    if p.d >= 3:
        lam = np.sort(p.lam)
        alpha = alpha_threshold(lam[1] / lam[0], p.d, p.N)
        ratio, below = _ratio_below(lam[1:], alpha)
        out["lambda_tail"] = _report(
            "lambda_tail", {"alpha": alpha, "ratio": ratio}, nonconstant, below)
        alpha = 1.0 + 1.0 / (p.d - 2)
        ratio, below = _ratio_below(lam, alpha)
        out["lambda_cluster"] = _report(
            "lambda_cluster", {"alpha": alpha, "ratio": ratio}, nonconstant, below)
        if values_all_equal(p.lam):
            off = p.b[~np.eye(p.d, dtype=bool)].reshape(p.d, p.d - 1)  # row i: b_ij, j != i
            alpha_gap = float((off.min(axis=1) - p.mu).min())
            spread = float((off.max(axis=1) - off.min(axis=1)).max())
            out["coupling_spread"] = _report(
                "coupling_spread", {"alpha_gap": alpha_gap, "spread": spread},
                satisfied=alpha_gap > 0 and spread < alpha_gap / (p.d - 2),
            )
        else:
            out["coupling_spread"] = _report("coupling_spread", {}, "requires equal lambdas")
    else:
        for name in ("lambda_tail", "lambda_cluster", "coupling_spread"):
            out[name] = _report(name, {}, "requires d >= 3")

    if p.d >= 2:
        bound = small_b_bound(p.mu)
        numbers = {"bound": bound} if b_const is None else {"bound": bound, "b": b_const}
        out["small_coupling"] = _report(
            "small_coupling", numbers, nonconstant,
            b_const is not None and b_const < bound,
        )
    else:
        out["small_coupling"] = _report("small_coupling", {}, "requires d >= 2")
    return out


def classify(p: ParameterSet, opts: PhaseOptions = PhaseOptions(),
             singles=None) -> PhaseVerdict:
    """Classify a parameter set by `VERDICT_RULES`.

    ``singles`` is None or the d results of `minimize_restricted` (p, (i,),
    grid) on the grid of ``p``, in component order (`sweep` shares them
    between points); it goes to `semitrivial_level` as it is.
    """
    if p.d < 2:
        raise ValueError("classification needs d >= 2 (no semitrivial side for d=1)")
    grid = build_grid(p, opts)
    semi = semitrivial_level(p, grid, singles)
    full = ground_state(p, grid, semitrivial=semi)
    margin = semi.level - full.level
    margin_abs = MARGIN_TOL * max(abs(semi.level), 1e-300)

    # only the best semitrivial minimizer can be the ground state
    unstable_slots = perturbation_certificate(p, semi.results[semi.best_subset])
    converged = full.converged and all(
        r.converged for r in [*semi.results.values(), *semi.singles])
    facts = VerdictFacts(converged, margin > margin_abs, len(full.support) == p.d, unstable_slots)
    rule, verdict = next((name, verdict) for name, verdict, test in VERDICT_RULES if test(facts))

    diagnostics = {
        "full": full.to_json_dict(),
        "semitrivial": {
            "level": semi.level,
            "best_subset": [int(i) for i in semi.best_subset],
            "levels": {str(list(k)): v.level for k, v in sorted(semi.results.items())},
            "lower_bounds": {str(list(k)): v for k, v in sorted(semi.lower_bounds.items())},
            "pruned": [list(k) for k in sorted(semi.pruned)],
        },
        "unstable_slots": list(unstable_slots),
        "margin_tol_abs": margin_abs,
        "solver_converged": converged,
        "grid": grid.to_json_dict(),
    }
    return PhaseVerdict(
        verdict=verdict,
        decided_by=rule,
        numeric_full_level=full.level,
        numeric_semitrivial_level=semi.level,
        margin=margin,
        certificate_held=bool(unstable_slots),
        predicates=evaluate_predicates(p),
        full_support=full.support,
        diagnostics=diagnostics,
    )


# --------------------------------------------------------------------------
# Parameter sweeps
# --------------------------------------------------------------------------

_PATH_RE = re.compile(r"^(b|(lambda|mu)\[(\d+)\]|b\[(\d+)\]\[(\d+)\])$")


def set_parameter(p: ParameterSet, path, value) -> ParameterSet:
    """Return a copy of ``p`` with one swept entry replaced.

    Paths: ``b`` (every off-diagonal coupling), ``b[i][j]`` (one symmetric
    pair), ``lambda[i]``, ``mu[i]``; indices are 0-based.
    """
    m = _PATH_RE.match(path)
    if not m:
        raise ValueError(f"bad parameter path: {path!r}")
    value = as_float(value, path)
    if path == "b":
        return replace(p, b=np.full((p.d, p.d), value))
    if m.group(2):  # lambda[i] or mu[i]
        name, i = m.group(2), int(m.group(3))
        if not 0 <= i < p.d:
            raise ValueError(f"{name} index {i} out of range for d={p.d}")
        field = "lam" if name == "lambda" else "mu"
        entries = np.array(getattr(p, field))
        entries[i] = value
        return replace(p, **{field: entries})
    i, j = int(m.group(4)), int(m.group(5))
    if i == j or not (0 <= i < p.d and 0 <= j < p.d):
        raise ValueError(f"bad coupling indices in path {path!r} for d={p.d}")
    bm = np.array(p.b)
    bm[i, j] = bm[j, i] = value
    return replace(p, b=bm)


@dataclass(frozen=True)
class SweepPoint:
    values: dict
    verdict: PhaseVerdict


# The two pool tasks stay module-level functions that look `minimize_restricted`
# and `classify` up when they run: a process pool pickles the function it maps
# by reference, and a traced run (perfbench's `tracing.Tracer.wrap`) replaces
# `phase.classify` with a local wrapper, which cannot be pickled, so mapping
# `classify` itself would break the traced sweep.
def _solve_single(p: ParameterSet, i, opts: PhaseOptions):
    return minimize_restricted(p, (i,), build_grid(p, opts))


def _classify_sweep_point(p: ParameterSet, opts: PhaseOptions, singles):
    return classify(p, opts, singles)


def sweep(base: ParameterSet, axes, opts: PhaseOptions = PhaseOptions()):
    """Classify the cartesian product of the axes (row-major, deterministic).

    ``axes`` is a list of (path, values) with distinct paths (each path is
    one swept parameter).  With no axes the base point alone is classified.
    Every distinct single (i,) is solved once, before the points, and each
    point gets its d singles in component order: every point's support
    search needs them, whatever its bounds say.  A single is fixed by (i,
    grid, lambda_i, mu_i), since the single equation sees no coupling and
    its result is embedded at row i.  With ``opts.workers > 1`` both stages
    run in one process pool of at most one worker per point, and points are
    emitted in input order regardless.
    """
    axes = [(str(path), [as_float(v, f"axis {path!r} value") for v in values])
            for path, values in axes]
    repeated = sorted(path for path, n in Counter(path for path, _ in axes).items() if n > 1)
    if repeated:
        raise ValueError(f"repeated axis path(s): {repeated}")
    for path, values in axes:
        if not values:
            raise ValueError(f"axis {path!r} has no values")
        set_parameter(base, path, values[0])  # validates the path early
    total = math.prod(len(values) for _, values in axes)
    if total > SWEEP_CAP:
        raise ValueError(f"sweep has {total} points, exceeding cap {SWEEP_CAP}")

    points = list(itertools.product(*[[(path, v) for v in values] for path, values in axes]))
    params = []
    for assignments in points:
        p = base
        for path, value in assignments:
            p = set_parameter(p, path, value)
        params.append(p)

    components = range(base.d) if base.d >= 2 else ()  # classify rejects d = 1
    keys = [[(i, _grid_key(p, opts), float(p.lam[i]), float(p.mu[i])) for i in components]
            for p in params]
    first = {}  # key -> the first point that uses it
    for p, point_keys in zip(params, keys):
        for key in point_keys:
            first.setdefault(key, p)

    pool_size = min(opts.workers, len(params))
    parallel = pool_size > 1
    with ProcessPoolExecutor(max_workers=pool_size) if parallel else nullcontext() as pool:
        run = pool.map if parallel else map
        solved = dict(zip(first, run(_solve_single, first.values(),
                                     [key[0] for key in first], [opts] * len(first))))
        singles = [tuple(solved[key] for key in point_keys) for point_keys in keys]
        verdicts = list(run(_classify_sweep_point, params, [opts] * len(params), singles))
    return [
        SweepPoint(values=dict(assignments), verdict=v)
        for assignments, v in zip(points, verdicts)
    ]
