"""Acceptance criteria: analytic desk-scale oracles plus property checks.

Each criterion is a function returning (passed, detail).  The runner times
them against their budgets and is shared by the CLI self-test and the test
suite, so a fresh build can be verified identically from either entry
point.  All randomness is seeded; repeated runs produce identical reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .functional import action, action_gradient, action_on_nehari, nehari_scale, simplex_qp_max
from .grid import MultiField, RadialGrid, default_radius, wdot
from .params import ParameterSet, small_b_bound
from .phase import FULLY_NONTRIVIAL, MARGIN_TOL, SEMITRIVIAL, PhaseOptions, build_grid, classify
from .reduction import lift_ground_state, reduce_system
from .solver import (
    UNIT_LEVEL,
    ground_state,
    minimize_restricted,
    perturbation_certificate,
    semitrivial_subsets,
    soliton_profile,
)


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    passed: bool
    detail: str
    seconds: float
    budget: float


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
    res = ground_state(p, g)
    rel = abs(res.level - UNIT_LEVEL[1]) / UNIT_LEVEL[1]
    return rel <= 1e-3 and res.converged, (
        f"level={res.level:.8f} target={UNIT_LEVEL[1]:.8f} rel_err={rel:.2e}"
    )


def criterion_02_symmetric_pair_threshold():
    """d=2 symmetric system: semitrivial at b=0.5, fully nontrivial at b=3,
    and the b=3 level equals 8/(3*(mu+b)) = 2/3 within 1e-3 relative."""
    opts = PhaseOptions(grid_n=2000)
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


def _closed_form_max(mu, b):
    """max z^T B z on the simplex for B with mu on the diagonal and one b
    off it: the largest mu_i when it is at least b (vertex and face), else
    b - 1/sum_i 1/(b - mu_i) (interior, where sum_i (b - F)/(b - mu_i) = 1)."""
    mu_max = float(mu.max())
    if mu_max >= b:
        return mu_max
    return b - 1.0 / float(np.sum(1.0 / (b - mu)))


def criterion_03_sphere_max_oracle():
    """Closed-form sphere maximum vs the exact simplex QP of B (mu on the
    diagonal, b off it) at 1e-12 relative, k = 2..6, in all three regimes
    and at mu = 0, b = 1, where f_max = 1 - 1/k.  The closed form holds for
    a constant b only and lives here, as the independent check of
    `simplex_qp_max`, which the reduction and the solver use."""
    rng = np.random.default_rng(20240811)
    worst = 0.0
    checks = 0
    for k in range(2, 7):
        draws = [("mu=0,b=1", np.zeros(k), 1.0)]
        for regime in ("vertex", "interior", "face"):
            for _ in range(100):
                mu = rng.uniform(0.2, 2.0, size=k)
                if regime == "vertex":
                    b = float(mu.max()) * rng.uniform(0.3, 0.95)
                elif regime == "interior":
                    b = float(mu.max()) * rng.uniform(1.05, 3.0)
                else:
                    b = float(mu.max())
                draws.append((regime, mu, b))
        if abs(_closed_form_max(np.zeros(k), 1.0) - (1.0 - 1.0 / k)) > 1e-12:
            return False, f"k={k}: closed form at mu=0,b=1 is not 1 - 1/k"
        for regime, mu, b in draws:
            B = np.full((k, k), b)
            np.fill_diagonal(B, mu)
            exact, _ = simplex_qp_max(B)
            gap = abs(_closed_form_max(mu, b) - exact) / exact
            worst = max(worst, gap)
            checks += 1
            if gap > 1e-12:
                return False, f"k={k} {regime}: relative gap {gap:.3e} (mu={mu}, b={b})"
    return True, f"{checks} draws agreed; worst relative gap = {worst:.2e}"


def criterion_04_reduction_consistency():
    """Full d=3 system (lambda=(1,1,2), mu=1, b=3) vs its reduced d=2 system."""
    p = ParameterSet.make([1.0, 1.0, 2.0], [1.0, 1.0, 1.0], 3.0, N=1)
    g = RadialGrid.make(1, 20.0, 2000)
    full = ground_state(p, g)
    red = reduce_system(p, (0, 1))
    expect = np.array([[0.0, 3.0], [3.0, 0.0]])
    if not (
        np.allclose(red.reduced.lam, [1.0, 2.0])
        and np.allclose(red.reduced.mu, [2.0, 1.0])
        and np.allclose(red.reduced.b, expect)
    ):
        return False, f"unexpected reduced parameters {red.reduced.to_json_dict()}"
    red_res = ground_state(red.reduced, g)
    rel = abs(full.level - red_res.level) / abs(red_res.level)
    u1, u2 = full.fields.values[0], full.fields.values[1]
    sup = float(np.max(np.abs(u1 - u2))) / max(
        float(np.max(np.abs(u1))), float(np.max(np.abs(u2))), 1e-300
    )
    lifted = lift_ground_state(red_res, red)
    lift_rel = abs(action(lifted, p).action - red_res.level) / abs(red_res.level)
    ok = rel <= 3e-3 and sup <= 1e-3 and lift_rel <= 1e-8
    return ok, (
        f"levels: full={full.level:.8f} reduced={red_res.level:.8f} (rel {rel:.2e}); "
        f"component proportionality sup={sup:.2e}; lift action rel={lift_rel:.2e}"
    )


def criterion_05_scaling_identities():
    """Coupling identity level(lam, mu, b) = level(lam, mu/b, 1)/b and lambda
    scaling level(sigma lam) = sigma^((4-N)/2) level(lam), both to 1e-10.

    The coupling identity holds for the constrained action of every field,
    so it is checked at a fixed one: soliton profiles scaled by 1 + 0.1 i.
    The sigma = 4 solve runs on radius R/sqrt(sigma) with the same node
    count, the exact image of the base grid, so the two discrete problems
    are the same up to the scaling and the identity holds to roundoff.
    """
    b = 2.0
    p = ParameterSet.make([1.0, 1.3], [1.0, 0.8], b, N=1)
    g = RadialGrid.make(1, 20.0, 1500)
    u = MultiField(g, np.array([(1.0 + 0.1 * i) * soliton_profile(g, p.lam[i], p.mu[i])
                                for i in range(p.d)]))
    p_unit = replace(p, mu=p.mu / b, b=np.ones((2, 2)))
    lhs, rhs = action_on_nehari(u, p), action_on_nehari(u, p_unit) / b
    b_err = abs(lhs - rhs) / abs(rhs)

    single, sigma = ParameterSet.make([1.0], [1.0], 0.0, N=1), 4.0
    base = ground_state(single, g).level
    scaled = ground_state(replace(single, lam=sigma * single.lam),
                          RadialGrid.make(1, g.R / np.sqrt(sigma), g.n)).level
    expect = sigma ** ((4.0 - single.N) / 2.0) * base
    lam_err = abs(scaled - expect) / abs(expect)
    return b_err <= 1e-10 and lam_err <= 1e-10, (
        f"coupling identity rel_err={b_err:.2e}; "
        f"lambda scaling sigma=4: lhs={scaled:.6f} rhs={expect:.6f} "
        f"rel_err={lam_err:.2e}"
    )


def criterion_06_monotonicity():
    """20 random ordered pairs at d=2, N=1 satisfy c_p <= c_q (1e-12 rel).

    With lambda_p <= lambda_q, mu_q <= mu_p and b_q <= b_p, at every field
    the quadratic part is no larger under p and the quartic part no smaller
    (the quadrature weights are positive), so projecting the q-minimizer
    onto p's Nehari set gives an action at most c_q.  ``c_p`` is the lower
    of the p-solve and that projection, so the inequality holds by the
    inclusion argument up to roundoff, not by multistart luck.
    """
    rng = np.random.default_rng(611)
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
        g = RadialGrid.make(1, default_radius(lam_p.min()), 800)  # covers q too
        res_q = ground_state(q, g)
        c_q = res_q.level
        c_p = min(ground_state(p, g).level, action_on_nehari(res_q.fields, p))
        worst = max(worst, c_p - c_q)
        if c_p > c_q * (1.0 + 1e-12):
            return False, f"violated: c_p={c_p} > (1 + 1e-12) c_q, c_q={c_q}"
    return True, f"20 pairs consistent; worst c_p - c_q = {worst:.3e}"


def criterion_07_small_coupling_consistency():
    """20 draws at b = 0.9 * small-coupling bound all classify semitrivial."""
    rng = np.random.default_rng(717)
    opts = PhaseOptions(grid_n=1000)
    for trial in range(20):
        d = 2 if trial < 10 else 3
        lam = rng.uniform(0.5, 2.0, size=d)
        mu = rng.uniform(0.5, 2.0, size=d)
        b = 0.9 * small_b_bound(mu)
        p = ParameterSet.make(lam, mu, b, N=1)
        v = classify(p, opts)
        if v.verdict != SEMITRIVIAL:
            return False, f"draw {trial} (d={d}, b={b:.4f}) classified {v.verdict}"
    return True, "20 draws semitrivial"


def criterion_08_certificate_sanity():
    """d=2: the (u1, 0) minimizer turns from stable to unstable in slot 1
    across b = mu."""
    g = RadialGrid.make(1, 20.0, 4000)
    mu = 1.0
    ps = {tag: ParameterSet.make([1.0, 1.0], [mu, 1.0], b, N=1)
          for tag, b in (("below", mu * (1 - 1e-3)), ("above", mu * (1 + 1e-3)))}
    semi = minimize_restricted(ps["below"], (0,), g)  # c({0}) does not depend on b
    slots = {tag: perturbation_certificate(p, semi) for tag, p in ps.items()}
    ok = slots["below"] == () and slots["above"] == (1,)
    return ok, (
        f"unstable slots: b=mu(1-1e-3) -> {list(slots['below'])}, "
        f"b=mu(1+1e-3) -> {list(slots['above'])}"
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


def criterion_11_equal_lambda_exact_levels():
    """40 seeded equal-lambda draws (d = 3..6, N = 1..3, n = 400, constant
    and non-constant b): both levels of `classify` within 1e-10 relative of
    c1/F, the verdict exact wherever the exact margin exceeds MARGIN_TOL
    times the semitrivial level, and never the wrong decided verdict inside
    that band.

    With lambda_i = 1 and B holding mu on the diagonal and b off it, every
    level on the grid is c1/F(B_II): c1 is the single-equation level at
    lambda = mu = 1 on the same grid and F the simplex maximum of
    `simplex_qp_max`.  u_i = sqrt(z_i) U attains it, and two weighted
    Cauchy-Schwarz steps bound every field on the discrete Nehari set
    below by it, so it holds to roundoff, not only as h -> 0.  A draw is
    exactly semitrivial when 1 - F_T/F, the margin over the semitrivial
    level, is at most 1e-12 (F = F_T up to roundoff); such a draw must not
    be classified fully nontrivial, and any other draw must not be
    classified semitrivial.
    """
    rng = np.random.default_rng(7)
    opts = PhaseOptions(grid_n=400)
    single = {}
    worst = 0.0
    verdicts, in_band = [], 0
    for draw in range(40):
        d, N = 3 + draw % 4, 1 + draw % 3
        mu = rng.uniform(0.5, 1.5, size=d)
        b = mu.max() * rng.uniform(0.6, 1.8)
        if (draw // 4) % 2:  # every d in turn with constant, then non-constant b
            upper = np.triu(b * rng.uniform(0.85, 1.15, size=(d, d)), 1)
            b = upper + upper.T
        p = ParameterSet.make(np.ones(d), mu, b, N=N)
        if N not in single:
            unit = ParameterSet.make([1.0], [1.0], 0.0, N=N)
            single[N] = ground_state(unit, build_grid(p, opts)).level
        B = p.b + np.diag(mu)
        F = simplex_qp_max(B)[0]
        F_T = max(simplex_qp_max(B[np.ix_(T, T)])[0] for T in semitrivial_subsets(d))
        full, semi = single[N] / F, single[N] / F_T
        v = classify(p, opts)
        for got, exact in ((v.numeric_full_level, full), (v.numeric_semitrivial_level, semi)):
            rel = abs(got - exact) / exact
            worst = max(worst, rel)
            if rel > 1e-10:
                return False, f"draw {draw} (d={d}, N={N}): level {got!r} vs exact {exact!r}"
        margin = semi - full
        if margin > MARGIN_TOL * semi:
            ok = v.verdict == FULLY_NONTRIVIAL
        elif margin <= 1e-12 * semi:  # F = F_T: exactly semitrivial
            ok = v.verdict != FULLY_NONTRIVIAL
        else:  # exactly fully nontrivial inside the margin band
            ok, in_band = v.verdict != SEMITRIVIAL, in_band + 1
        if not ok:
            return False, f"draw {draw} (d={d}, N={N}): {v.verdict} at exact margin {margin:.3e}"
        verdicts.append(v.verdict)
    tally = ", ".join(f"{verdicts.count(x)} {x}" for x in sorted(set(verdicts)))
    return True, (f"40 draws: {tally}; {in_band} inside the margin band; "
                  f"worst level error {worst:.2e}")


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
    ("11", "equal-lambda-exact-levels", criterion_11_equal_lambda_exact_levels, 60.0),
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


def run_acceptance(only=None):
    """Run all (or selected) criteria; returns the list of results."""
    ids = [c[0] for c in CRITERIA]
    if only:
        wanted = {str(x).zfill(2) for x in only}
        unknown = wanted - set(ids)
        if unknown:
            raise ValueError(f"unknown criterion id(s): {sorted(unknown)}")
        ids = [c for c in ids if c in wanted]
    return [run_criterion(cid) for cid in ids]
