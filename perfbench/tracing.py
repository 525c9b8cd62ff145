"""In-memory span tracing for the benchmark's traced run (``--trace 1``).

Wrappers are installed from outside the package, on the names that callers
look up at call time: ``solver`` and ``phase`` import their helpers by name,
so wrapping only the defining module would miss those calls.  Each call
through a wrapper records one span ``(pid, seq, name, t0, t1, parent, point,
info)``; ``point`` is the ``seq`` of the enclosing ``phase.classify`` span.

Forked pool workers inherit the wrappers.  A fork hook clears the inherited
spans in the child, and the child appends its spans to a file in the spill
directory each time a root span ends; ``collect`` merges those files back
into the parent's list.  Nothing is written in the parent until ``collect``.
"""

from __future__ import annotations

import importlib
import os
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager

perf_counter = time.perf_counter

CLASSIFY = "phase.classify"


def _descent_info(args, kwargs, out):
    if out is None:  # the start could not be projected onto the constraint set
        return (0, False)
    return (int(out[1]), bool(out[3]))


def _kernel_bytes(writes_result):
    """Bytes a kernel must read and write, computed from its array sizes:
    the (d, n+1) field, the two grid weight vectors and, for the gradient,
    the (d, n+1) result.  Temporaries are not counted."""

    def info(args, kwargs, out):
        grid, values = args[0], args[1]
        return values.nbytes * (2 if writes_result else 1) + 2 * grid.weights.nbytes

    return info


def _restricted_key(args, kwargs, out):
    """Key of a restricted solve: the restricted parameters, grid and options.
    A solve seeded with ``init`` is never a repeat (key None)."""
    p, support, grid = args[0], args[1], args[2]
    opts = args[3] if len(args) > 3 else kwargs.get("opts")
    init = args[4] if len(args) > 4 else kwargs.get("init")
    if init is not None:
        return None
    s = sorted(set(int(i) for i in support))
    return (
        tuple(p.lam[s].tolist()), tuple(p.mu[s].tolist()),
        tuple(p.b[s][:, s].ravel().tolist()), int(p.N), grid.key, repr(opts),
    )


#: (owner, attribute, span name, info) for every wrapped name; an owner is a
#: module or ``module:Class``.  The same function reached through several
#: modules gets one wrapper per name.
TARGETS = (
    ("cnls.params", "validate", "params.validate", None),
    ("cnls.solver", "validate", "params.validate", None),
    ("cnls.phase", "validate", "params.validate", None),
    ("cnls.cli", "validate", "params.validate", None),
    ("cnls.grid:RadialGrid", "make", "grid.make", None),
    ("cnls.solver", "gradient_raw", "functional.gradient", _kernel_bytes(True)),
    ("cnls.solver", "action_parts_raw", "functional.action_parts", _kernel_bytes(False)),
    ("cnls.solver", "cho_solve_banded", "solver.precond", None),
    ("cnls.solver", "cholesky_banded", "solver.factor", None),
    ("cnls.solver:_Descent", "run", "solver.descent", _descent_info),
    ("cnls.solver", "minimize_restricted", "solver.minimize_restricted", _restricted_key),
    ("cnls.phase", "minimize_restricted", "solver.minimize_restricted", _restricted_key),
    ("cnls.solver", "semitrivial_level", "solver.semitrivial_level", None),
    ("cnls.phase", "semitrivial_level", "solver.semitrivial_level", None),
    ("cnls.phase", "ground_state", "solver.ground_state", None),
    ("cnls.cli", "ground_state", "solver.ground_state", None),
    ("cnls.phase", "perturbation_certificate", "solver.certificate", None),
    ("cnls.phase", "evaluate_predicates", "phase.predicates", None),
    ("cnls", "classify", CLASSIFY, None),
    ("cnls.phase", "classify", CLASSIFY, None),
    ("cnls.cli", "classify", CLASSIFY, None),
    ("cnls.cli", "sweep", "phase.sweep", None),
    ("cnls.cli", "write_sweep_csv", "cli.write", None),
    ("cnls.cli", "main", "cli.main", None),
)


def resolve(owner):
    """The module or class named by ``module`` or ``module:Class``."""
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder for one process tree."""

    def __init__(self, spill_dir=None):
        self.spill_dir = spill_dir
        self.root_pid = os.getpid()
        self.records = []  # [seq, name, t0, t1, parent, point, info]
        self.stack = []
        self.seq = 0
        self.point = -1
        self.missing = []
        self._undo = []
        self._active = False

    # -- recording ---------------------------------------------------------

    def _begin(self, name):
        seq = self.seq
        self.seq = seq + 1
        parent = self.stack[-1] if self.stack else -1
        if name == CLASSIFY:
            self.point = seq
        rec = [seq, name, 0.0, 0.0, parent, self.point, None]
        self.records.append(rec)
        self.stack.append(seq)
        rec[2] = perf_counter()
        return rec

    def _end(self, rec, outer_point):
        rec[3] = perf_counter()
        self.stack.pop()
        self.point = outer_point

    def wrap(self, fn, name, info=None):
        def traced(*args, **kwargs):
            outer_point = self.point
            rec = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(rec, outer_point)
            if info is not None:
                rec[6] = info(args, kwargs, out)
            if rec[4] == -1 and self.spill_dir is not None and os.getpid() != self.root_pid:
                self._spill()
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        outer_point = self.point
        rec = self._begin(name)
        try:
            yield rec
        finally:
            self._end(rec, outer_point)

    # -- installation ------------------------------------------------------

    def install(self, targets=TARGETS):
        """Wrap every target that exists; remember the missing ones."""
        for owner_name, attr, name, info in targets:
            try:
                owner = resolve(owner_name)
            except (ImportError, AttributeError):
                owner = None
            raw = None if owner is None else owner.__dict__.get(attr)
            if raw is None:
                self.missing.append(f"{owner_name}.{attr}")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name, info))
            else:
                new = self.wrap(raw, name, info)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
        if not self._active:
            self._active = True
            os.register_at_fork(after_in_child=self._forked)

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()
        self._active = False

    def _forked(self):
        if self._active:
            self.records = []
            self.stack = []
            self.point = -1

    def _spill(self):
        path = os.path.join(self.spill_dir, f"spans-{os.getpid()}.pkl")
        pid = os.getpid()
        with open(path, "ab") as fh:
            pickle.dump([(pid, *rec) for rec in self.records], fh)
        self.records = []

    def collect(self):
        """All spans of the process tree as (pid, seq, name, t0, t1, parent,
        point, info) tuples; worker spill files are read and removed."""
        out = [(self.root_pid, *rec) for rec in self.records]
        if self.spill_dir is not None:
            for fname in sorted(os.listdir(self.spill_dir)):
                if not (fname.startswith("spans-") and fname.endswith(".pkl")):
                    continue
                path = os.path.join(self.spill_dir, fname)
                with open(path, "rb") as fh:
                    while True:
                        try:
                            out.extend(pickle.load(fh))
                        except EOFError:
                            break
                os.remove(path)
        return out


def per_span_cost(calls=20000):
    """Seconds one traced call adds over a plain call (calibrated here)."""
    probe = Tracer()

    def noop():
        return None

    traced = probe.wrap(noop, "probe")
    best = float("inf")
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        t2 = perf_counter()
        probe.records.clear()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


# --------------------------------------------------------------------------
# Span arithmetic
# --------------------------------------------------------------------------

def self_times(spans):
    """Map (pid, seq) -> duration minus the durations of its direct children.

    Spans of one process nest (single-threaded), so direct children never
    overlap and their durations add up to the covered part of the parent.
    """
    child = defaultdict(float)
    for pid, seq, name, t0, t1, parent, point, info in spans:
        if parent != -1:
            child[(pid, parent)] += t1 - t0
    return {
        (pid, seq): (t1 - t0) - child[(pid, seq)]
        for pid, seq, name, t0, t1, parent, point, info in spans
    }


def layer_metrics(spans, points, workers, span_cost, bytes_written):
    """Per-layer metrics of a traced run, normalised per classified point.

    ``bytes_written`` is the size of the result files the run wrote."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    by_key = {}
    for sp in spans:
        pid, seq, name = sp[0], sp[1], sp[2]
        calls[name] += 1
        total[name] += sp[4] - sp[3]
        self_total[name] += selfs[(pid, seq)]
        by_key[(pid, seq)] = sp

    iterations = starts_ok = 0
    for sp in spans:
        if sp[2] == "solver.descent":
            iterations += sp[7][0]
            starts_ok += sp[7][1]
    starts = calls["solver.descent"]
    in_descent = sum(
        1 for sp in spans
        if sp[2] == "functional.action_parts"
        and by_key.get((sp[0], sp[5]), (None,) * 3)[2] == "solver.descent"
    )
    trials = in_descent - starts

    seen = defaultdict(set)
    repeats = 0
    for sp in sorted((s for s in spans if s[2] == "solver.minimize_restricted"),
                     key=lambda s: (s[0], s[1])):
        key = sp[7]
        if key is not None and key in seen[sp[0]]:
            repeats += 1
        elif key is not None:
            seen[sp[0]].add(key)

    work = total[CLASSIFY]
    wall = total["bench.pass"]
    nbytes = sum(sp[7] for sp in spans
                 if sp[2] in ("functional.gradient", "functional.action_parts"))

    def per_pt(x):
        return x / points

    def us_per_call(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    def share(a, b):
        return a / b if b else 0.0

    return {
        "solver.iterations": (per_pt(iterations), "count/point"),
        "solver.starts": (per_pt(starts), "count/point"),
        "solver.starts_unconverged": (per_pt(starts - starts_ok), "count/point"),
        "solver.start_converged_ratio": (share(starts_ok, starts), "ratio"),
        "solver.armijo_trials_per_iter": (share(trials, iterations), "ratio"),
        "solver.descent.self_s": (per_pt(self_total["solver.descent"]), "s/point"),
        "functional.gradient.calls": (per_pt(calls["functional.gradient"]), "count/point"),
        "functional.gradient.us_per_call": (us_per_call("functional.gradient"), "us"),
        "functional.action_parts.calls": (per_pt(calls["functional.action_parts"]), "count/point"),
        "functional.action_parts.us_per_call": (us_per_call("functional.action_parts"), "us"),
        "functional.bytes_computed": (per_pt(nbytes), "B/point"),
        "solver.precond.calls": (per_pt(calls["solver.precond"]), "count/point"),
        "solver.precond.us_per_call": (us_per_call("solver.precond"), "us"),
        "solver.factor.calls": (per_pt(calls["solver.factor"]), "count/point"),
        "solver.minimize_restricted.calls": (per_pt(calls["solver.minimize_restricted"]), "count/point"),
        "solver.minimize_restricted.s": (per_pt(total["solver.minimize_restricted"]), "s/point"),
        "solver.restricted_repeat_share": (share(repeats, calls["solver.minimize_restricted"]), "ratio"),
        "solver.semitrivial_level.s": (per_pt(total["solver.semitrivial_level"]), "s/point"),
        "solver.ground_state.s": (per_pt(total["solver.ground_state"]), "s/point"),
        "phase.pool_efficiency": (share(work, workers * wall), "ratio"),
        "solver.certificate.calls": (per_pt(calls["solver.certificate"]), "count/point"),
        "solver.certificate.s": (per_pt(total["solver.certificate"]), "s/point"),
        "phase.predicates.s": (per_pt(total["phase.predicates"]), "s/point"),
        "phase.classify.self_s": (per_pt(self_total[CLASSIFY]), "s/point"),
        "params.validate.calls": (per_pt(calls["params.validate"]), "count/point"),
        "params.validate.s": (per_pt(total["params.validate"]), "s/point"),
        "grid.make.calls": (per_pt(calls["grid.make"]), "count/point"),
        "grid.make.s": (per_pt(total["grid.make"]), "s/point"),
        "cli.write.s": (per_pt(total["cli.write"]), "s/point"),
        "cli.bytes_written": (per_pt(bytes_written), "B/point"),
        "trace.overhead_share": (share(len(spans) * span_cost, work), "ratio"),
    }
