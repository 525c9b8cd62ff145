"""Phase classification: numeric levels plus analytic hypothesis flags.

`classify` compares the best fully-supported level against the best
semitrivial level and issues one of three verdicts:

  * ``fully_nontrivial`` -- the full minimizer beats the semitrivial level
    by more than the margin tolerance and keeps every component alive;
  * ``semitrivial``      -- the numeric margin is negative, or it is flat
    and the perturbation certificate fails for every size-(d-1) minimizer
    and every candidate direction;
  * ``inconclusive``     -- anything else (including solver non-convergence).

Analytic predicates (lambda clustering, coupling spread, the small-coupling
bound) are attached for interpretation but never override the numbers: the
closed-form existence conditions involve non-explicit largeness constants,
so "hypothesis holds" does not pin down a verdict at a given coupling.
"""

from __future__ import annotations

import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .functional import action_on_nehari
from .grid import Field, MultiField, RadialGrid, default_radius
from .params import (
    ParameterSet,
    coupling_spread_condition,
    lambda_cluster_condition,
    lambda_tail_condition,
    small_b_bound,
    validate,
    values_all_equal,
)
from .solver import (
    SolverOptions,
    ground_state,
    minimize_restricted,
    perturbation_certificate,
    semitrivial_level,
    soliton_profile,
)

FULLY_NONTRIVIAL = "fully_nontrivial"
SEMITRIVIAL = "semitrivial"
INCONCLUSIVE = "inconclusive"

PREDICATE_NAMES = ("lambda_tail", "lambda_cluster", "coupling_spread", "small_coupling")

#: Slack in the monotonicity inequality c_p <= c_q, above the solver's level
#: noise at the default resolution.
MONOTONICITY_TOL = 1e-6


@dataclass(frozen=True)
class PhaseOptions:
    """Grid, solver, and decision controls for classification runs.

    ``margin_tol`` is relative to the semitrivial level and defaults safely
    above the solver's discretization noise at the default resolution.
    """

    grid_n: int = 2000
    grid_R: float = None  # None -> 20/sqrt(min lambda)
    solver: SolverOptions = field(default_factory=SolverOptions)
    margin_tol: float = 1e-4
    workers: int = 1
    sweep_cap: int = 2000

    def __post_init__(self):
        if self.grid_n < 100:
            raise ValueError("grid_n must be >= 100")
        if self.grid_R is not None and self.grid_R <= 0:
            raise ValueError("grid_R must be > 0")
        if self.margin_tol <= 0:
            raise ValueError("margin_tol must be > 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.sweep_cap < 1:
            raise ValueError("sweep_cap must be >= 1")


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
            "numeric_full_level": self.numeric_full_level,
            "numeric_semitrivial_level": self.numeric_semitrivial_level,
            "margin": self.margin,
            "certificate_held": bool(self.certificate_held),
            "predicates": {k: v.to_json_dict() for k, v in self.predicates.items()},
            "full_support": [int(i) for i in self.full_support],
            "diagnostics": self.diagnostics,
        }


def build_grid(p: ParameterSet, opts: PhaseOptions) -> RadialGrid:
    R = opts.grid_R if opts.grid_R is not None else default_radius(float(p.lam.min()))
    return RadialGrid.make(p.N, R, opts.grid_n)


def _report(name, numbers, unmet=None, satisfied=False):
    """Report that applies unless a hypothesis is ``unmet`` (its reason)."""
    if unmet is not None:
        return PredicateReport(name, False, False, {**numbers, "reason": unmet})
    return PredicateReport(name, True, satisfied, numbers)


def evaluate_predicates(p: ParameterSet):
    """Evaluate every closed-form hypothesis for ``p``.

    Each report's ``info`` carries the numbers of its condition wherever they
    are defined; a report that does not apply adds the ``reason``.
    """
    out = {}
    b_const = p.constant_coupling()
    nonconstant = None if b_const is not None else "requires constant coupling"
    if p.d >= 3:
        tail = lambda_tail_condition(np.sort(p.lam), p.N)
        out["lambda_tail"] = _report(
            "lambda_tail", {"alpha": tail.alpha, "ratio": tail.ratio},
            nonconstant, tail.admissible,
        )
        cluster = lambda_cluster_condition(p.lam)
        out["lambda_cluster"] = _report(
            "lambda_cluster", {"alpha": cluster.alpha, "ratio": cluster.ratio},
            nonconstant, cluster.admissible,
        )
        if values_all_equal(p.lam):
            spread = coupling_spread_condition(p)
            out["coupling_spread"] = _report(
                "coupling_spread",
                {"alpha_gap": spread.alpha_gap, "spread": spread.spread},
                satisfied=spread.holds,
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


def classify(p: ParameterSet, opts: PhaseOptions = PhaseOptions()) -> PhaseVerdict:
    """Classify a parameter set as fully nontrivial / semitrivial / inconclusive."""
    validate(p)
    if p.d < 2:
        raise ValueError("classification needs d >= 2 (no semitrivial side for d=1)")
    grid = build_grid(p, opts)
    semi = semitrivial_level(p, grid, opts.solver)
    full = ground_state(p, grid, opts.solver, semitrivial=semi)
    margin = semi.level - full.level
    margin_abs = opts.margin_tol * max(abs(semi.level), 1e-300)

    # certificate inventory: every surviving component of every size-(d-1)
    # minimizer (this includes the smallest-lambda component)
    certificates = []
    for subset, res in sorted(semi.results.items()):
        if len(res.support) != p.d - 1:
            continue  # sub-minimizer degenerated further; nothing to certify
        for i in res.support:
            w = Field(grid, res.fields.values[i])
            rep = perturbation_certificate(p, res, w)
            certificates.append(
                {"subset": list(subset), "w_component": int(i),
                 "lhs": rep.lhs, "rhs": rep.rhs, "holds": bool(rep.holds)}
            )
    certificate_held = any(c["holds"] for c in certificates)

    all_alive = len(full.support) == p.d
    sub_converged = all(r.converged for r in semi.results.values())
    solver_converged = full.converged and sub_converged
    if not solver_converged:
        verdict = INCONCLUSIVE
    elif margin > margin_abs and all_alive:
        verdict = FULLY_NONTRIVIAL
    elif margin < -margin_abs or (abs(margin) <= margin_abs and not certificate_held):
        verdict = SEMITRIVIAL
    else:
        verdict = INCONCLUSIVE

    diagnostics = {
        "full": full.to_json_dict(),
        "semitrivial": {
            "level": semi.level,
            "best_subset": [int(i) for i in semi.best_subset],
            "levels": {str(list(k)): v.level for k, v in sorted(semi.results.items())},
        },
        "certificates": certificates,
        "margin_tol_abs": margin_abs,
        "solver_converged": solver_converged,
        "grid": grid.to_json_dict(),
    }
    return PhaseVerdict(
        verdict=verdict,
        numeric_full_level=full.level,
        numeric_semitrivial_level=semi.level,
        margin=margin,
        certificate_held=certificate_held,
        predicates=evaluate_predicates(p),
        full_support=full.support,
        diagnostics=diagnostics,
    )


# --------------------------------------------------------------------------
# Parameter sweeps
# --------------------------------------------------------------------------

_PATH_RE = re.compile(r"^(b|lambda\[(\d+)\]|mu\[(\d+)\]|b\[(\d+)\]\[(\d+)\])$")


def set_parameter(p: ParameterSet, path, value) -> ParameterSet:
    """Return a copy of ``p`` with one swept entry replaced.

    Paths: ``b`` (every off-diagonal coupling), ``b[i][j]`` (one symmetric
    pair), ``lambda[i]``, ``mu[i]``; indices are 0-based.
    """
    m = _PATH_RE.match(path)
    if not m:
        raise ValueError(f"bad parameter path: {path!r}")
    value = float(value)
    if path == "b":
        bm = np.array(p.b)
        bm[~np.eye(p.d, dtype=bool)] = value
        return p.replace(b=bm)
    if path.startswith("lambda["):
        i = int(m.group(2))
        if not 0 <= i < p.d:
            raise ValueError(f"lambda index {i} out of range for d={p.d}")
        lam = np.array(p.lam)
        lam[i] = value
        return p.replace(lam=lam)
    if path.startswith("mu["):
        i = int(m.group(3))
        if not 0 <= i < p.d:
            raise ValueError(f"mu index {i} out of range for d={p.d}")
        mu = np.array(p.mu)
        mu[i] = value
        return p.replace(mu=mu)
    i, j = int(m.group(4)), int(m.group(5))
    if i == j or not (0 <= i < p.d and 0 <= j < p.d):
        raise ValueError(f"bad coupling indices in path {path!r} for d={p.d}")
    bm = np.array(p.b)
    bm[i, j] = bm[j, i] = value
    return p.replace(b=bm)


@dataclass(frozen=True)
class SweepPoint:
    values: dict
    verdict: PhaseVerdict


def _classify_sweep_point(args):
    base, assignments, opts = args
    p = base
    for path, value in assignments:
        p = set_parameter(p, path, value)
    return classify(p, opts)


def sweep(base: ParameterSet, axes, opts: PhaseOptions = PhaseOptions()):
    """Classify the cartesian product of the axes (row-major, deterministic).

    ``axes`` is a list of (path, values).  With no axes the base point alone
    is classified.  Points are independent; with ``opts.workers > 1`` they
    run in a process pool and are emitted in input order regardless.
    """
    validate(base)
    axes = [(str(path), [float(v) for v in values]) for path, values in axes]
    for path, values in axes:
        if not values:
            raise ValueError(f"axis {path!r} has no values")
        set_parameter(base, path, values[0])  # validates the path early
    total = 1
    for _, values in axes:
        total *= len(values)
    if total > opts.sweep_cap:
        raise ValueError(f"sweep has {total} points, exceeding cap {opts.sweep_cap}")

    grids = [[(path, v) for v in values] for path, values in axes]
    points = [[]]
    for axis in grids:
        points = [prev + [entry] for prev in points for entry in axis]

    tasks = [(base, tuple(assignments), opts) for assignments in points]
    if opts.workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=opts.workers) as pool:
            verdicts = list(pool.map(_classify_sweep_point, tasks))
    else:
        verdicts = [_classify_sweep_point(t) for t in tasks]
    return [
        SweepPoint(values=dict(assignments), verdict=v)
        for assignments, v in zip(points, verdicts)
    ]


def write_sweep_csv(points, axes, fobj, meta=None):
    """CSV: swept values, both levels, margin, verdict, certificate, predicates."""
    if meta:
        pairs = " ".join(f"{k}={v}" for k, v in meta.items())
        fobj.write(f"# {pairs}\n")
    paths = [path for path, _ in axes]
    header = paths + [
        "full_level", "semitrivial_level", "margin", "verdict", "certificate_held",
    ] + [f"pred_{name}" for name in PREDICATE_NAMES]
    fobj.write(",".join(header) + "\n")
    for pt in points:
        v = pt.verdict
        row = [repr(pt.values[path]) for path in paths]
        row += [
            repr(v.numeric_full_level),
            repr(v.numeric_semitrivial_level),
            repr(v.margin),
            v.verdict,
            str(v.certificate_held).lower(),
        ]
        for name in PREDICATE_NAMES:
            rep = v.predicates[name]
            row.append(str(rep.satisfied).lower() if rep.applicable else "n/a")
        fobj.write(",".join(row) + "\n")


# --------------------------------------------------------------------------
# Scaling and monotonicity checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityReport:
    c_p: float
    c_q: float
    consistent: bool


@dataclass(frozen=True)
class ScalingReport:
    lhs: float
    rhs: float
    rel_err: float


def monotonicity_check(p: ParameterSet, q: ParameterSet,
                       opts: PhaseOptions = PhaseOptions()) -> MonotonicityReport:
    """Levels are monotone: lowering lambdas or raising mu/b lowers the level.

    Requires lambda_p <= lambda_q, mu_q <= mu_p and b_q <= b_p entrywise.
    The p-solve is additionally seeded with the q-minimizer so the reported
    inequality reflects feasible-point inclusion rather than multistart luck.
    """
    validate(p)
    validate(q)
    if p.d != q.d or p.N != q.N:
        raise ValueError("parameter sets must share d and N")
    if np.any(p.lam > q.lam):
        raise ValueError("ordering hypothesis violated: need lambda_p <= lambda_q")
    if np.any(q.mu > p.mu):
        raise ValueError("ordering hypothesis violated: need mu_q <= mu_p")
    off = ~np.eye(p.d, dtype=bool)
    if p.d > 1 and np.any(q.b[off] > p.b[off]):
        raise ValueError("ordering hypothesis violated: need b_q <= b_p entrywise")
    grid = build_grid(p, opts)  # lam_p.min() <= lam_q.min(): radius covers both
    res_q = ground_state(q, grid, opts.solver)
    res_p = ground_state(p, grid, opts.solver)
    seeded = minimize_restricted(
        p, tuple(range(p.d)), grid, opts.solver, init=res_q.fields
    )
    c_p = min(res_p.level, seeded.level)
    return MonotonicityReport(
        c_p=c_p, c_q=res_q.level, consistent=c_p <= res_q.level + MONOTONICITY_TOL
    )


def scaling_check(p: ParameterSet, sigma,
                  opts: PhaseOptions = PhaseOptions()) -> ScalingReport:
    """Check level(sigma*lambda) = sigma^((4-N)/2) * level(lambda).

    The scaled solve runs on radius R/sqrt(sigma) with the same node count,
    which is the exact image of the base grid under the scaling, so the two
    discrete problems match resolution for resolution.
    """
    validate(p)
    sigma = float(sigma)
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    grid = build_grid(p, opts)
    base = ground_state(p, grid, opts.solver)
    p_scaled = p.replace(lam=sigma * p.lam)
    grid_scaled = RadialGrid.make(p.N, grid.R / np.sqrt(sigma), grid.n)
    scaled = ground_state(p_scaled, grid_scaled, opts.solver)
    lhs = scaled.level
    rhs = sigma ** ((4.0 - p.N) / 2.0) * base.level
    return ScalingReport(lhs=lhs, rhs=rhs, rel_err=abs(lhs - rhs) / abs(rhs))


def coupling_scaling_identity(p: ParameterSet, u: MultiField = None,
                              grid: RadialGrid = None,
                              opts: PhaseOptions = PhaseOptions()) -> ScalingReport:
    """Algebraic identity level(lam, mu, b) = (1/b) level(lam, mu/b, 1).

    Holds for the constrained action of every fixed field, not just at the
    minimum, so it is checked at a fixed field.
    """
    validate(p)
    b = p.constant_coupling()
    if b is None:
        raise ValueError("coupling scaling identity needs a constant coupling")
    if grid is None:
        grid = build_grid(p, opts)
    if u is None:
        vals = np.array(
            [
                (1.0 + 0.1 * i) * soliton_profile(grid, float(p.lam[i]), float(p.mu[i]))
                for i in range(p.d)
            ]
        )
        u = MultiField(grid, vals)
    unit_b = np.full((p.d, p.d), 1.0)
    np.fill_diagonal(unit_b, 0.0)
    p_unit = p.replace(mu=p.mu / b, b=unit_b)
    lhs = action_on_nehari(u, p)
    rhs = action_on_nehari(u, p_unit) / b
    return ScalingReport(lhs=lhs, rhs=rhs, rel_err=abs(lhs - rhs) / abs(rhs))
