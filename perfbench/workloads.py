"""Workload inputs, runners and output checks for the cnls benchmark.

Every workload is a sequence of passes.  A pass classifies a list of points
and returns one `Outcome` per point; `judge` compares outcomes with the
analytic references and the golden values recorded in ``golden.json``.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cnls
import cnls.cli
from cnls import FULLY_NONTRIVIAL, INCONCLUSIVE, SEMITRIVIAL, ParameterSet, PhaseOptions, small_b_bound

#: Level of the single equation -Laplace w + w = w^3 on R^N, measured with the
#: s_N r^(N-1) weight the grid uses.  N = 1 is 4/3 exactly; N = 2, 3 come from
#: shooting the radial ODE (``test_perfbench.test_unit_levels`` recomputes
#: them).  Scaling gives c(lambda, mu) = lambda^((4-N)/2) / mu * UNIT_LEVEL[N].
UNIT_LEVEL = {1: 4.0 / 3.0, 2: 5.850448262261, 3: 18.897251302546}

#: Relative error allowed against an analytic level (as acceptance 01 and 02).
LEVEL_TOL = 1e-3
#: Relative drift allowed against a golden level recorded at the baseline.
GOLDEN_TOL = 1e-6
#: The full level may exceed the semitrivial level by this much (relative):
#: the multistart includes the semitrivial minimizers themselves.
TIE_TOL = 1e-8

#: Switch-on coupling of component 1 for N = 1, lambda = (1, 2), mu = (1, 1).
B_STAR = (2.0 + math.sqrt(2.0)) / 2.0

GOLDEN_PATH = Path(__file__).with_name("golden.json")

perf_counter = time.perf_counter


def single_level(lam, mu, N):
    """Ground-state level of one equation, from the scaling law."""
    return lam ** ((4.0 - N) / 2.0) / mu * UNIT_LEVEL[N]


def lowest_single_level(p: ParameterSet):
    return min(single_level(float(l), float(m), p.N) for l, m in zip(p.lam, p.mu))


@dataclass(frozen=True)
class Point:
    """One classify input with whatever references are known for it."""

    label: str
    params: ParameterSet
    verdict: str = None   # reference verdict
    semi: float = None    # analytic semitrivial level
    ground: float = None  # analytic ground-state level
    #: analytic levels of every local minimizer the multistart may settle on
    #: (single-component solitons); the reference is the lowest of them
    local_levels: tuple = ()


@dataclass(frozen=True)
class Outcome:
    point: Point
    verdict: str = None      # None when classify raised
    full: float = math.nan
    semi: float = math.nan
    seconds: float = None    # per-point classify time, when observable
    error: str = None


@dataclass
class Judgement:
    failed: int           # raised, inconclusive, missed, or a check failed
    problems: list        # descriptions of wrong outputs
    misses: list          # descriptions of points that settled above the ground level
    level_err_max: float  # largest relative error against an analytic level
    miss_max: float       # largest relative excess of a higher local minimizer
    drift_max: float      # largest relative drift against a golden level


def load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _rel(a, b):
    return abs(a - b) / abs(b)


def judge(outcomes, golden):
    """Check every outcome; a point fails once however many checks it fails.

    A level is compared with the nearest analytic local-minimizer level; its
    error there is the discretization error (``level_err_max``).  A point
    whose level sits on a higher local minimizer than the reference by more
    than LEVEL_TOL has missed the ground state: it fails, but the output is
    not wrong, since the solver claims a best local minimum, not a global one.
    """
    failed = 0
    problems = []
    misses = []
    err_max = 0.0
    miss_max = 0.0
    drift_max = 0.0
    for out in outcomes:
        pt = out.point
        bad = []
        missed = []
        if out.error is not None:
            bad.append(f"raised {out.error}")
        else:
            if out.full > out.semi * (1.0 + TIE_TOL):
                bad.append(f"full level {out.full!r} above semitrivial {out.semi!r}")
            if pt.verdict is not None and out.verdict not in (pt.verdict, INCONCLUSIVE):
                bad.append(f"verdict {out.verdict} contradicts {pt.verdict}")
            for name, value, ref in (("semitrivial", out.semi, pt.semi),
                                     ("ground", min(out.full, out.semi), pt.ground)):
                if ref is None:
                    continue
                nearest = min(pt.local_levels or (ref,), key=lambda lv: _rel(value, lv))
                err = _rel(value, nearest)
                err_max = max(err_max, err)
                if not err <= LEVEL_TOL:
                    bad.append(f"{name} level {value!r} vs analytic {nearest!r}")
                elif nearest != ref:
                    excess = (value - ref) / ref
                    miss_max = max(miss_max, excess)
                    if excess > LEVEL_TOL:
                        missed.append(f"{name} level {value!r} on a higher minimizer "
                                      f"than the analytic {ref!r}")
            gold = golden.get(pt.label)
            if gold is not None:
                if out.verdict != gold["verdict"]:
                    bad.append(f"verdict {out.verdict} differs from golden {gold['verdict']}")
                for key, value in (("full_level", out.full), ("semitrivial_level", out.semi)):
                    drift = _rel(value, gold[key])
                    drift_max = max(drift_max, drift)
                    if not drift <= GOLDEN_TOL:
                        bad.append(f"{key} {value!r} drifted from golden {gold[key]!r}")
        if bad:
            problems.append(f"{pt.label}: " + "; ".join(bad))
        if missed:
            misses.append(f"{pt.label}: " + "; ".join(missed))
        if bad or missed or out.verdict == INCONCLUSIVE:
            failed += 1
    return Judgement(failed, problems, misses, err_max, miss_max, drift_max)


def _outcome(pt, verdict, seconds):
    return Outcome(pt, verdict.verdict, verdict.numeric_full_level,
                   verdict.numeric_semitrivial_level, seconds)


# --------------------------------------------------------------------------
# In-process workloads: cnls.classify called once per point
# --------------------------------------------------------------------------

class InProcess:
    """Runs ``cnls.classify`` on each point of a pass and writes verdict.json
    for it, in the format ``cnls classify`` uses, under the pass directory."""

    workers = 1
    min_passes = 1
    #: whether every pass classifies the same points (so outputs must repeat)
    same_points = True

    def __init__(self, seed, workdir, opts):
        self.seed = seed
        self.workdir = workdir
        self.opts = opts

    def points(self, k):
        raise NotImplementedError

    def run_pass(self, k, tracer=None, probe=None):
        """Classify the pass's points; returns (outcomes, pass seconds, bytes
        written, outputs by name).  With a probe, times are scaled by it."""
        points = self.points(k)
        outdir = self.workdir / f"pass{k}"
        outdir.mkdir(parents=True, exist_ok=True)
        outcomes = []
        blobs = {}
        written = 0
        elapsed = 0.0
        for pt in points:
            t0 = perf_counter()
            try:
                verdict = cnls.classify(pt.params, self.opts)
            except Exception as exc:  # a raising point is a failed point
                verdict, error = None, repr(exc)
            t1 = perf_counter()
            if verdict is not None:
                span = tracer.span("cli.write") if tracer else contextlib.nullcontext()
                with span:
                    blob = json.dumps(verdict.to_json_dict(), indent=2, sort_keys=True) + "\n"
                    with open(outdir / f"{pt.label}.json", "w", encoding="utf-8", newline="\n") as fh:
                        fh.write(blob)
                blobs[pt.label] = blob
                written += len(blob)
            t2 = perf_counter()
            f = probe.scale() if probe else 1.0
            elapsed += (t2 - t0) * f
            if verdict is None:
                outcomes.append(Outcome(pt, seconds=(t1 - t0) * f, error=error))
            else:
                outcomes.append(_outcome(pt, verdict, (t1 - t0) * f))
        return outcomes, elapsed, written, blobs


class Threshold(InProcess):
    """Five points around the switch-on coupling, d=2, N=1, n=2000."""

    name = "threshold"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, PhaseOptions())
        pts = []
        for b in (0.99, 1.0001, 1.01):
            p = ParameterSet.make([1.0, 1.0], [1.0, 1.0], b, N=1)
            below = b < 1.0
            pts.append(Point(
                f"sym-b{b}", p,
                verdict=SEMITRIVIAL if below else FULLY_NONTRIVIAL,
                semi=lowest_single_level(p),
                ground=4.0 / 3.0 if below else 8.0 / (3.0 * (1.0 + b)),
            ))
        for factor, verdict in ((0.98, None), (1.02, FULLY_NONTRIVIAL)):
            p = ParameterSet.make([1.0, 2.0], [1.0, 1.0], factor * B_STAR, N=1)
            pts.append(Point(f"asym-{factor}bstar", p, verdict=verdict,
                             semi=lowest_single_level(p)))
        self._points = pts

    def points(self, k):
        return self._points


class WideSystem(InProcess):
    """One system per (d, N, coupling band) every pass, n=8000: fresh seeded
    draws in the low band, entries of a fixed pool in the high band."""

    name = "wide_system"
    same_points = False

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, PhaseOptions(grid_n=8000))

    def points(self, k):
        return draw_wide(self.seed, k)


class WidePool(WideSystem):
    """The high-band pool of wide_system in one pass (for ``golden.json``)."""

    def points(self, k):
        return wide_pool()


#: Strata of wide_system: every pass draws one system from each.
WIDE_STRATA = [(d, N, band) for d in (3, 4) for N in (2, 3) for band in ("low", "high")]
#: uniforms per stratum: d lambdas, d mus and one coupling (d <= 4)
_WIDE_DIMS = 9


def _wide_uniforms(seed, k):
    """Uniforms for pass k: a Kronecker sequence frac(offset + k * alpha) per
    coordinate, with seeded offsets and alpha = frac(sqrt(prime)).  Each
    coordinate spreads evenly over the passes of a run, so runs of
    different seeds see the same spread of inputs."""
    count = len(WIDE_STRATA) * _WIDE_DIMS
    primes = [q for q in range(2, 2000) if all(q % r for r in range(2, int(q**0.5) + 1))]
    alpha = np.sqrt(np.array(primes[:count], dtype=float)) % 1.0
    offset = np.random.default_rng(seed).random(count)
    return ((offset + k * alpha) % 1.0).reshape(len(WIDE_STRATA), _WIDE_DIMS)


#: High-band systems come from a fixed pool of this many draws per stratum
#: (the first passes of seed 0), which ``golden.json`` covers.
WIDE_POOL = 8


def draw_wide(seed, k):
    """The k-th pass of wide_system inputs for ``seed``.

    Below ``small_b_bound`` every ground state loses a component, and at that
    coupling every subsystem does too, so the semitrivial and ground levels
    are the lowest single-equation level.  The band [2.5, 4] has no analytic
    reference: its systems are entry (seed + k) mod WIDE_POOL of the pool,
    checked against golden verdicts and levels.
    """
    j = (seed + k) % WIDE_POOL
    return [pt for pt in _wide_points(seed, k) if pt.label.endswith("low")] + \
        [pt for pt in _wide_points(0, j) if pt.label.endswith("high")]


def wide_pool():
    """Every high-band system of the pool."""
    return [pt for j in range(WIDE_POOL) for pt in _wide_points(0, j)
            if pt.label.endswith("high")]


def _wide_points(seed, k):
    pts = []
    for (d, N, band), u in zip(WIDE_STRATA, _wide_uniforms(seed, k)):
        lam = 1.0 + 0.2 * u[:d]
        mu = 0.9 + 0.2 * u[4:4 + d]
        if band == "low":
            b = (0.3 + 0.4 * u[8]) * small_b_bound(mu)
        else:
            b = 2.5 + 1.5 * u[8]
        p = ParameterSet.make(lam, mu, b, N=N)
        group = f"d{d}-N{N}-{band}"
        if band == "low":
            levels = tuple(sorted(single_level(float(l), float(m), N) for l, m in zip(lam, mu)))
            pts.append(Point(f"pass{k}-{group}", p, SEMITRIVIAL,
                             levels[0], levels[0], levels))
        else:
            pts.append(Point(f"pool{k}-{group}", p))
    return pts


# --------------------------------------------------------------------------
# phase_diagram: `cnls sweep` through cnls.cli.main with a 2-worker pool
# --------------------------------------------------------------------------

PHASE_B = [round(0.1 * k, 10) for k in range(1, 51)]
PHASE_PARAMS = {"d": 2, "N": 2, "lambda": [1.0, 1.5], "mu": [1.0, 1.0],
                "b": [[0.0, 1.0], [1.0, 0.0]]}


class PhaseDiagram:
    """A 50-point b sweep, d=2, N=2, lambda=(1, 1.5), mu=(1, 1), 2 workers."""

    name = "phase_diagram"
    workers = 2
    min_passes = 2  # sweep.csv must be compared across two passes
    same_points = True

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.config = workdir / "sweep-config.json"
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump({"parameters": PHASE_PARAMS,
                       "sweep": {"axes": [{"path": "b", "values": PHASE_B}]}}, fh)
        base = ParameterSet.from_json_dict(PHASE_PARAMS)
        bound = small_b_bound(base.mu)
        semi = lowest_single_level(base)
        self._points = [
            Point(f"b={b!r}", base,
                  verdict=SEMITRIVIAL if b < bound else None, semi=semi,
                  ground=semi if b < bound else None)
            for b in PHASE_B
        ]

    def points(self, k):
        return self._points

    def run_pass(self, k, tracer=None, probe=None):
        # one output directory for every pass: it is part of the config hash
        # written into sweep.csv, which must repeat byte for byte
        outdir = self.workdir / "sweep"
        argv = ["sweep", str(self.config), "--workers", str(self.workers),
                "--output-dir", str(outdir)]
        t0 = perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            code = cnls.cli.main(argv)
        wall = (perf_counter() - t0) * (probe.scale() if probe else 1.0)
        csv_path = outdir / "sweep.csv"
        if code not in (cnls.cli.EXIT_OK, cnls.cli.EXIT_WARNINGS) or not csv_path.is_file():
            err = f"cnls sweep exited {code}"
            return [Outcome(pt, error=err) for pt in self._points], wall, 0, {}
        blob = csv_path.read_text(encoding="utf-8")
        rows = {}
        for line in blob.splitlines()[2:]:
            b, full, semi, _margin, verdict = line.split(",")[:5]
            rows[f"b={float(b)!r}"] = (verdict, float(full), float(semi))
        outcomes = []
        for pt in self._points:
            row = rows.get(pt.label)
            if row is None:
                outcomes.append(Outcome(pt, error="row missing from sweep.csv"))
            else:
                outcomes.append(Outcome(pt, *row))
        return outcomes, wall, len(blob), {"sweep.csv": blob}


WORKLOADS = {cls.name: cls for cls in (Threshold, PhaseDiagram, WideSystem)}


def record_golden(workdir):
    """Golden verdicts and levels for every decided point that lacks an
    analytic verdict or ground level: one pass of each fixed workload and the
    high-band pool of wide_system."""
    golden = {}
    for cls in (Threshold, PhaseDiagram, WidePool):
        sub = workdir / f"golden-{cls.__name__}"
        sub.mkdir(parents=True, exist_ok=True)
        outcomes = cls(0, sub).run_pass(0)[0]
        for out in outcomes:
            pt = out.point
            if out.error is not None or out.verdict == INCONCLUSIVE:
                continue
            if pt.verdict is None or pt.ground is None:
                golden[pt.label] = {"verdict": out.verdict, "full_level": out.full,
                                    "semitrivial_level": out.semi}
    return golden
