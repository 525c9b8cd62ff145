"""Acceptance criteria: analytic desk-scale oracles plus property checks.

Each criterion is a function returning (passed, detail).  The runner times
them against their budgets and is shared by the CLI self-test and the test
suite, so a fresh build can be verified identically from either entry
point.  All randomness is seeded; repeated runs produce identical reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import grid as grid_mod
from .functional import action, action_gradient, nehari_scale
from .grid import Field, MultiField, RadialGrid, wdot
from .params import ParameterSet, small_b_bound
from .phase import (
    FULLY_NONTRIVIAL,
    SEMITRIVIAL,
    PhaseOptions,
    classify,
    coupling_scaling_identity,
    monotonicity_check,
    scaling_check,
)
from .reduction import brute_force_sphere_max, lift_ground_state, reduce_system, sphere_max
from .solver import SolverOptions, ground_state, perturbation_certificate

SINGLE_LEVEL = 4.0 / 3.0  # (4/3) lambda^(3/2) / mu at lambda = mu = 1, N = 1


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    passed: bool
    detail: str
    seconds: float
    budget: float

    @property
    def in_budget(self):
        return self.seconds < self.budget


def _smooth_bump(grid, rng, nonneg=False):
    r = grid.nodes
    center = rng.uniform(0.5, 0.3 * grid.R)
    width = rng.uniform(0.5, 3.0)
    amp = rng.uniform(0.5, 1.5)
    vals = amp * np.exp(-((r - center) ** 2) / width**2) * (1.0 - (r / grid.R) ** 2)
    if not nonneg and rng.random() < 0.5:
        vals = vals * np.cos(0.3 * r)
    vals[-1] = 0.0
    return vals


def criterion_01_single_equation_level():
    """Single-equation level at lambda = mu = 1, N = 1 equals 4/3 (1e-3 rel)."""
    p = ParameterSet.make([1.0], [1.0], 0.0, N=1)
    g = RadialGrid.make(1, 20.0, 4000)
    res = ground_state(p, g, SolverOptions())
    rel = abs(res.level - SINGLE_LEVEL) / SINGLE_LEVEL
    return rel <= 1e-3 and res.converged, (
        f"level={res.level:.8f} target={SINGLE_LEVEL:.8f} rel_err={rel:.2e}"
    )


def criterion_02_symmetric_pair_threshold():
    """d=2 symmetric system: semitrivial at b=0.5, fully nontrivial at b=3,
    and the b=3 level equals 8/(3*(mu+b)) = 2/3 within 1e-3 relative."""
    opts = PhaseOptions(grid_n=2000, grid_R=20.0)
    low = classify(ParameterSet.make([1.0, 1.0], [1.0, 1.0], 0.5, N=1), opts)
    high = classify(ParameterSet.make([1.0, 1.0], [1.0, 1.0], 3.0, N=1), opts)
    target = 2.0 / 3.0
    rel = abs(high.numeric_full_level - target) / target
    ok = (
        low.verdict == SEMITRIVIAL
        and high.verdict == FULLY_NONTRIVIAL
        and rel <= 1e-3
    )
    return ok, (
        f"b=0.5 -> {low.verdict}, b=3 -> {high.verdict}, "
        f"level={high.numeric_full_level:.6f} (target {target:.6f}, rel {rel:.2e})"
    )


def criterion_03_sphere_max_oracle():
    """Closed-form sphere maximum vs the simplex grid-search oracle."""
    rng = np.random.default_rng(20240811)
    resolutions = {2: 400, 3: 150, 4: 60}
    worst = 0.0
    checks = 0
    for k, res in resolutions.items():
        tol = 2.0 / res
        # known value at mu = 0, b = 1: f_max = 1 - 1/k
        closed = sphere_max(np.zeros(k), 1.0)
        brute = brute_force_sphere_max(np.zeros(k), 1.0, res)
        if abs(closed.f_max - (1.0 - 1.0 / k)) > 1e-12:
            return False, f"k={k}: closed form at mu=0,b=1 is {closed.f_max}"
        if abs(closed.f_max - brute) > tol:
            return False, f"k={k}: mu=0,b=1 disagreement {abs(closed.f_max - brute)}"
        for regime in ("vertex", "interior", "face"):
            for _ in range(100):
                mu = rng.uniform(0.2, 2.0, size=k)
                if regime == "vertex":
                    b = float(mu.max()) * rng.uniform(0.3, 0.95)
                elif regime == "interior":
                    b = float(mu.max()) * rng.uniform(1.05, 3.0)
                else:
                    b = float(mu.max())
                closed = sphere_max(mu, b)
                brute = brute_force_sphere_max(mu, b, res)
                gap = abs(closed.f_max - brute)
                worst = max(worst, gap * res / 2.0)
                checks += 1
                if gap > tol:
                    return False, (
                        f"k={k} {regime}: |closed-brute|={gap:.3e} > {tol:.3e} "
                        f"(mu={mu}, b={b})"
                    )
    return True, f"{checks} draws agreed; worst gap = {worst:.3f} of tolerance"


def criterion_04_reduction_consistency():
    """Full d=3 system (lambda=(1,1,2), mu=1, b=3) vs its reduced d=2 system."""
    p = ParameterSet.make([1.0, 1.0, 2.0], [1.0, 1.0, 1.0], 3.0, N=1)
    g = RadialGrid.make(1, 20.0, 2000)
    sopts = SolverOptions()
    full = ground_state(p, g, sopts)
    red = reduce_system(p, (0, 1))
    expect = np.array([[0.0, 3.0], [3.0, 0.0]])
    if not (
        np.allclose(red.reduced.lam, [1.0, 2.0])
        and np.allclose(red.reduced.mu, [2.0, 1.0])
        and np.allclose(red.reduced.b, expect)
    ):
        return False, f"unexpected reduced parameters {red.reduced.to_json_dict()}"
    red_res = ground_state(red.reduced, g, sopts)
    rel = abs(full.level - red_res.level) / abs(red_res.level)
    u1, u2 = full.fields.values[0], full.fields.values[1]
    sup = float(np.max(np.abs(u1 - u2))) / max(
        float(np.max(np.abs(u1))), float(np.max(np.abs(u2))), 1e-300
    )
    lifted = lift_ground_state(red_res, red.sphere, red.mapping)
    lift_rel = abs(action(lifted, p).action - red_res.level) / abs(red_res.level)
    ok = rel <= 3e-3 and sup <= 1e-3 and lift_rel <= 1e-8
    return ok, (
        f"levels: full={full.level:.8f} reduced={red_res.level:.8f} (rel {rel:.2e}); "
        f"component proportionality sup={sup:.2e}; lift action rel={lift_rel:.2e}"
    )


def criterion_05_scaling_identities():
    """Coupling-scaling identity to 1e-10; lambda-scaling exponent (4-N)/2."""
    p = ParameterSet.make([1.0, 1.3], [1.0, 0.8], 2.0, N=1)
    opts = PhaseOptions(grid_n=1500)
    bscale = coupling_scaling_identity(p, opts=opts)
    lam = scaling_check(ParameterSet.make([1.0], [1.0], 0.0, N=1), 4.0, opts)
    ok = bscale.rel_err <= 1e-10 and lam.rel_err <= 1e-3
    return ok, (
        f"coupling identity rel_err={bscale.rel_err:.2e}; "
        f"lambda scaling sigma=4: lhs={lam.lhs:.6f} rhs={lam.rhs:.6f} "
        f"rel_err={lam.rel_err:.2e}"
    )


def criterion_06_monotonicity():
    """20 random ordered pairs at d=2, N=1 satisfy c_p <= c_q + 1e-6."""
    rng = np.random.default_rng(611)
    opts = PhaseOptions(grid_n=800)
    worst = -np.inf
    for _ in range(20):
        lam_p = rng.uniform(0.7, 1.5, size=2)
        mu_p = rng.uniform(0.7, 1.5, size=2)
        b_p = rng.uniform(0.6, 1.8)
        p = ParameterSet.make(lam_p, mu_p, b_p, N=1)
        q = ParameterSet.make(
            lam_p * (1.0 + rng.uniform(0.0, 1.0, size=2)),
            mu_p / (1.0 + rng.uniform(0.0, 0.8, size=2)),
            b_p / (1.0 + rng.uniform(0.0, 0.8)),
            N=1,
        )
        rep = monotonicity_check(p, q, opts)
        worst = max(worst, rep.c_p - rep.c_q)
        if not rep.consistent:
            return False, f"violated: c_p={rep.c_p} > c_q={rep.c_q} + 1e-6"
    return True, f"20 pairs consistent; worst c_p - c_q = {worst:.3e}"


def criterion_07_small_coupling_consistency():
    """20 draws at b = 0.9 * small-coupling bound never classify fully nontrivial."""
    rng = np.random.default_rng(717)
    opts = PhaseOptions(grid_n=1000)
    verdicts = []
    for trial in range(20):
        d = 2 if trial < 10 else 3
        lam = rng.uniform(0.5, 2.0, size=d)
        mu = rng.uniform(0.5, 2.0, size=d)
        b = 0.9 * small_b_bound(mu)
        p = ParameterSet.make(lam, mu, b, N=1)
        v = classify(p, opts)
        verdicts.append(v.verdict)
        if v.verdict == FULLY_NONTRIVIAL:
            return False, (
                f"draw {trial} (d={d}, b={b:.4f}) classified fully nontrivial"
            )
    counts = {v: verdicts.count(v) for v in sorted(set(verdicts))}
    return True, f"verdicts: {counts}"


def criterion_08_certificate_sanity():
    """d=2 certificate with w = u1 flips from fail to hold across b = mu."""
    g = RadialGrid.make(1, 20.0, 4000)
    mu = 1.0
    semi = ground_state(
        ParameterSet.make([1.0], [mu], 0.0, N=1), g, SolverOptions()
    )
    # embed the single-equation minimizer as the (u1, 0) configuration
    from .solver import GroundStateResult

    vals = np.zeros((2, g.n + 1))
    vals[0] = semi.fields.values[0]
    semi2 = GroundStateResult(
        fields=MultiField(g, vals), level=semi.level, support=(0,),
        iterations=semi.iterations, grad_norm=semi.grad_norm,
        starts_used=semi.starts_used, converged=semi.converged,
    )
    w = Field(g, vals[0])
    outcomes = {}
    for tag, b in (("below", mu * (1 - 1e-3)), ("above", mu * (1 + 1e-3))):
        p = ParameterSet.make([1.0, 1.0], [mu, 1.0], b, N=1)
        outcomes[tag] = perturbation_certificate(p, semi2, w)
    ok = (not outcomes["below"].holds) and outcomes["above"].holds
    return ok, (
        f"b=mu(1-1e-3): lhs={outcomes['below'].lhs:.6f} rhs={outcomes['below'].rhs:.6f} "
        f"holds={outcomes['below'].holds}; "
        f"b=mu(1+1e-3): holds={outcomes['above'].holds}"
    )


def criterion_09_gradient_correctness():
    """Directional derivatives match central differences to 1e-6 relative."""
    rng = np.random.default_rng(909)
    p = ParameterSet.make([1.0, 1.4, 0.8], [1.0, 0.7, 1.2], 1.5, N=1)
    g = RadialGrid.make(1, 15.0, 600)
    eps = 1e-5
    worst = 0.0
    for _ in range(10):
        u_vals = np.array([_smooth_bump(g, rng) for _ in range(3)])
        v_vals = np.array([_smooth_bump(g, rng) for _ in range(3)])
        u = MultiField(g, u_vals)
        grad = action_gradient(u, p)
        paired = sum(wdot(g, grad.values[i], v_vals[i]) for i in range(3))
        plus = action(MultiField(g, u_vals + eps * v_vals), p).action
        minus = action(MultiField(g, u_vals - eps * v_vals), p).action
        fd = (plus - minus) / (2 * eps)
        rel = abs(paired - fd) / max(abs(fd), 1e-300)
        worst = max(worst, rel)
        if rel > 1e-6:
            return False, f"directional derivative mismatch: rel={rel:.2e}"
    return True, f"10 random pairs matched; worst rel err = {worst:.2e}"


def criterion_10_nehari_projection():
    """Projection zeroes the residual and maximizes the ray action."""
    rng = np.random.default_rng(1010)
    p = ParameterSet.make([1.0, 1.2], [1.0, 0.9], 1.3, N=1)
    g = RadialGrid.make(1, 15.0, 500)
    worst = 0.0
    for _ in range(50):
        vals = np.array([_smooth_bump(g, rng, nonneg=True) for _ in range(2)])
        u = MultiField(g, vals)
        t = nehari_scale(u, p)
        scaled = MultiField(g, t * vals)
        bk = action(scaled, p)
        rel = abs(bk.nehari_residual) / bk.quadratic
        worst = max(worst, rel)
        if rel > 1e-10:
            return False, f"residual after projection: {rel:.2e} of quadratic"
        on = bk.action
        for s in (0.5, 2.0):
            off = action(MultiField(g, s * t * vals), p).action
            if not off < on:
                return False, f"ray action not maximal at t (s={s})"
    return True, f"50 fields projected; worst residual = {worst:.2e} of quadratic"


CRITERIA = (
    ("01", "single-equation-level", criterion_01_single_equation_level, 10.0),
    ("02", "symmetric-pair-threshold", criterion_02_symmetric_pair_threshold, 60.0),
    ("03", "sphere-max-oracle", criterion_03_sphere_max_oracle, 30.0),
    ("04", "reduction-consistency", criterion_04_reduction_consistency, 120.0),
    ("05", "scaling-identities", criterion_05_scaling_identities, 60.0),
    ("06", "monotonicity", criterion_06_monotonicity, 120.0),
    ("07", "small-coupling-consistency", criterion_07_small_coupling_consistency, 300.0),
    ("08", "certificate-sanity", criterion_08_certificate_sanity, 10.0),
    ("09", "gradient-correctness", criterion_09_gradient_correctness, 10.0),
    ("10", "nehari-projection", criterion_10_nehari_projection, 10.0),
)


def run_criterion(cid) -> CriterionResult:
    for c, name, fn, budget in CRITERIA:
        if c == cid:
            t0 = time.perf_counter()
            try:
                passed, detail = fn()
            except Exception as exc:  # a crash is a failure, not an abort
                passed, detail = False, f"exception: {exc!r}"
            dt = time.perf_counter() - t0
            if passed and dt >= budget:
                passed = False
                detail += f" [exceeded budget: {dt:.1f}s >= {budget:.0f}s]"
            return CriterionResult(c, name, passed, detail, dt, budget)
    raise ValueError(f"unknown criterion id {cid!r}")


def run_acceptance(only=None, fault_weight_scale=0.0):
    """Run all (or selected) criteria; returns the list of results.

    ``fault_weight_scale`` is a test-mode hook that corrupts quadrature
    weights so the harness can be shown to catch a broken build.
    """
    ids = [c[0] for c in CRITERIA]
    if only:
        wanted = {str(x).zfill(2) for x in only}
        unknown = wanted - set(ids)
        if unknown:
            raise ValueError(f"unknown criterion id(s): {sorted(unknown)}")
        ids = [c for c in ids if c in wanted]
    old = grid_mod._FAULT_WEIGHT_SCALE
    grid_mod._FAULT_WEIGHT_SCALE = float(fault_weight_scale)
    try:
        return [run_criterion(cid) for cid in ids]
    finally:
        grid_mod._FAULT_WEIGHT_SCALE = old
