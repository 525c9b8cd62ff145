"""The cnls benchmark: one command per workload run.

    python3 perfbench/run.py --workload threshold --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run repeats passes of the workload while the next pass, at the
mean pace so far, would end within ``--seconds`` (at least ``min_passes``),
checks every output, and prints one line per metric followed by a JSON object
as the last line of stdout.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the layer entry points are wrapped (see
``tracing.py``), the per-layer metrics are reported instead, and the spans
are written to ``.perfbench-out/<workload>-seed<seed>/spans.csv.gz``.

``--write-golden`` re-records ``golden.json`` from the checkout's code.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from probe import NOMINAL, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: fresh interpreters started to time set-up; the median is reported
SETUP_SAMPLES = 9


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("threshold", "phase_diagram", "wide_system"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import cnls, generate the inputs, print the clock and exit")
    ap.add_argument("--write-golden", action="store_true",
                    help="record golden.json from this checkout and exit")
    args = ap.parse_args(argv)
    if args.workload is None and not args.write_golden:
        ap.error("--workload is required")
    return args


def _import_cnls():
    """Import cnls from this checkout's src/ and nowhere else."""
    if not (SRC / "cnls" / "__init__.py").is_file():
        raise SystemExit(f"error: no cnls package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cnls

    if Path(cnls.__file__).resolve().parent != SRC / "cnls":
        raise SystemExit(f"error: cnls imported from {cnls.__file__}, not {SRC}")
    return cnls


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _clock():
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _setup_dir(args):
    return OUT / f"{args.workload}-seed{args.seed}-setup"


def _setup_seconds(args, probe):
    """Median time from starting a fresh interpreter until it has imported
    cnls and generated the workload's inputs, each sample scaled by the
    probe.  The child prints the clock when it is ready, so its exit and
    teardown are not counted."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        _fresh_dir(_setup_dir(args))
        t0 = _clock()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        samples.append((float(proc.stdout.split()[-1]) - t0) * probe.scale())
    return statistics.median(samples)


def _peak_rss_mb():
    """Peak RSS of this process plus the largest of its waited-for children
    (the pool workers of phase_diagram), from getrusage."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _write_spans(spans, path):
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("pid,seq,name,t0,t1,parent,point\n")
        for pid, seq, name, t0, t1, parent, point, _info in spans:
            fh.write(f"{pid},{seq},{name},{t0!r},{t1!r},{parent},{point}\n")


def end_to_end(outcomes, walls, workers, failed, level_err_max):
    """End-to-end metrics measured in the run itself (set-up time and memory
    are added by the caller).  ``walls`` holds (seconds, points) per pass."""
    if workers > 1:  # the pool hides per-point times: use each pass's mean
        samples = [w / n for w, n in walls]
        slowest = max(samples)
    else:  # the repeats of one point over the passes count by their median
        samples = [o.seconds for o in outcomes]
        repeats = {}
        for o in outcomes:
            repeats.setdefault(o.point.label, []).append(o.seconds)
        slowest = max(statistics.median(ts) for ts in repeats.values())
    attempted = len(outcomes)
    return {
        "points_per_s": (attempted / sum(w for w, _ in walls), "1/s"),
        "point_p50_s": (statistics.median(samples), "s"),
        "point_max_s": (slowest, "s"),
        "success_share": ((attempted - failed) / attempted, "share"),
        "level_rel_err_max": (level_err_max, "ratio"),
    }


def run(args):
    _import_cnls()
    import workloads

    if args.setup_only:  # the parent made the directory empty
        workloads.WORKLOADS[args.workload](args.seed, _setup_dir(args)).points(0)
        print(f"ready {_clock()!r}")
        return 0

    workdir = OUT / f"{args.workload}-seed{args.seed}"

    golden = workloads.load_golden()
    wl = workloads.WORKLOADS[args.workload](args.seed, _fresh_dir(workdir))

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(spill_dir=str(_fresh_dir(workdir / "spill")))
        tracer.install()
        for name in tracer.missing:
            print(f"warning: trace target {name} not found", file=sys.stderr)

    probe = None if tracer else SpeedProbe(cpus=wl.workers)
    try:
        return _measure(args, wl, workdir, golden, tracer, probe)
    finally:
        if probe:
            probe.close()


def _measure(args, wl, workdir, golden, tracer, probe):
    import workloads

    outcomes = []
    walls = []
    written = 0
    problems = []
    unstable = 0  # points of passes whose output differs from pass 0
    first_blobs = None
    start = time.perf_counter()
    k = 0
    while True:
        if tracer:
            with tracer.span("bench.pass"):
                outs, wall, nbytes, blobs = wl.run_pass(k, tracer)
        else:
            outs, wall, nbytes, blobs = wl.run_pass(k, probe=probe)
        outcomes.extend(outs)
        walls.append((wall, len(outs)))
        written += nbytes
        if wl.same_points:
            if first_blobs is None:
                first_blobs = blobs
            elif blobs != first_blobs:
                changed = sorted(n for n in set(blobs) | set(first_blobs)
                                 if blobs.get(n) != first_blobs.get(n))
                problems.append(f"pass {k} output differs from pass 0: {', '.join(changed)}")
                unstable += len(outs)
        k += 1
        # stop before a pass that would end past --seconds (at the mean pace)
        elapsed = time.perf_counter() - start
        if k >= wl.min_passes and elapsed * (k + 1) / k > args.seconds:
            break

    verdict = workloads.judge(outcomes, golden)
    problems = verdict.problems + problems
    attempted = len(outcomes)
    failed = min(verdict.failed + unstable, attempted)
    correct = not problems

    if tracer:
        tracer.uninstall()
        spans = tracer.collect()
        if wl.workers > 1 and not any(s[0] != tracer.root_pid for s in spans):
            print("warning: no spans came back from pool workers", file=sys.stderr)
        metrics = tracing.layer_metrics(spans, attempted, wl.workers,
                                        tracing.per_span_cost(), written)
        _write_spans(spans, workdir / "spans.csv.gz")
    else:
        metrics = end_to_end(outcomes, walls, wl.workers, failed, verdict.level_err_max)
        metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
        metrics["setup_s"] = (_setup_seconds(args, probe), "s")

    print(f"workload={args.workload} seed={args.seed} passes={k} points={attempted} "
          f"failed={failed} failed_share={failed / attempted:.4f} "
          f"level_drift_max={verdict.drift_max:.3e} level_miss_max={verdict.miss_max:.3e}")
    if probe:
        print(f"speed probe: median scale {statistics.median(probe.factors):.4f} "
              f"(times below are in seconds at {NOMINAL} s per probe)")
    for line in problems:
        print(f"check failed: {line}")
    for line in verdict.misses:
        print(f"ground state missed: {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None):
    args = _parse(argv)
    if args.write_golden:
        _import_cnls()
        import workloads

        golden = workloads.record_golden(_fresh_dir(OUT / "golden"))
        with open(workloads.GOLDEN_PATH, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(golden, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(golden)} golden points to {workloads.GOLDEN_PATH}")
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
