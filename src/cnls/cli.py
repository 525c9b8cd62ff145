"""Command-line interface: solve, classify, sweep, reduce, thresholds, selftest.

One JSON config file is the sole positional argument (sweeps are
config-heavy, and a single artifact per run aids provenance).  The config
says what to compute: the parameters, the grid size `grid.n`, the sweep
axes and the reduce group; the grid radius is always derived from the
parameters, and `solve` solves once on it.  The flags say where and how
wide, and a command takes only the flags it reads: `--output-dir` (solve,
classify, sweep; default the current directory), `--workers` (sweep;
default 1) and `--only` (selftest).  This module writes every output
file: result.json and profiles.csv (solve), verdict.json (classify) and
sweep.csv (sweep).  Each embeds the tool version, the solver seed and a
hash of the config as loaded, so no flag changes an output file.

Exit codes: 0 success, 1 usage/validation error (a malformed command line
included), 2 converged with warnings (e.g. a flagged non-converged solve;
the result is still written).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .functional import action
from .params import ParameterSet, as_int
from .params import validate  # noqa: F401  (perfbench/tracing.py wraps this name)
from .phase import (
    PREDICATE_NAMES,
    PhaseOptions,
    build_grid,
    classify,
    evaluate_predicates,
    sweep,
)
from .reduction import reduce_system
from .solver import SEED, ground_state

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_WARNINGS = 2

#: Every top-level key a run config may hold; any other key is an error.
_CONFIG_KEYS = ("parameters", "grid", "sweep", "reduce")
#: The config sections, which must be JSON objects, and the keys each may hold.
_SECTIONS = {"grid": ("n",), "sweep": ("axes",), "reduce": ("group",)}

#: `cnls thresholds` row label and the words for a satisfied / failed
#: condition, per predicate report.
_THRESHOLD_ROWS = {
    "lambda_tail": ("lambda_tail_condition", "admissible", "not admissible"),
    "lambda_cluster": ("lambda_cluster_condition", "admissible", "not admissible"),
    "coupling_spread": ("coupling_spread_condition", "holds", "fails"),
    "small_coupling": ("small_coupling_bound", "below", "not below"),
}


def _config_hash(config):
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    if "parameters" not in config:
        raise ValueError('config needs a "parameters" object')
    unknown = sorted(set(config) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config key(s): {unknown}")
    for key, known in _SECTIONS.items():
        section = config.get(key, {})
        if not isinstance(section, dict):
            raise ValueError(f'"{key}" must be a JSON object')
        unknown = sorted(set(section) - set(known))
        if unknown:
            raise ValueError(f'unknown "{key}" key(s): {unknown}')
    axes = config.get("sweep", {}).get("axes", [])
    if not isinstance(axes, list) or not all(
        isinstance(a, dict) and set(a) == {"path", "values"}
        and isinstance(a["path"], str) and isinstance(a["values"], list)
        for a in axes
    ):
        raise ValueError('"sweep.axes" must be a list of {"path": string, "values": list}'
                         " objects with no other keys")
    return config


def _phase_options(config, **kwargs):
    """The `PhaseOptions` of a config, with ``kwargs`` from the flags; an
    absent `grid.n` keeps its default."""
    if "n" in config.get("grid", {}):
        kwargs["grid_n"] = as_int(config["grid"]["n"], "grid.n")
    return PhaseOptions(**kwargs)


def _meta(config):
    return {
        "tool": "cnls",
        "version": __version__,
        "config_sha256": _config_hash(config),
        "seed": SEED,
    }


def _outdir(args):
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, meta, columns, rows):
    """A CSV file: the provenance line `# tool=... seed=...`, the column names
    and the rows (lists of strings)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_profiles_csv(path, mf, meta):
    """Columns r, u1, ..., ud of a `MultiField`, one row per grid node."""
    columns = ["r"] + [f"u{i + 1}" for i in range(mf.d)]
    rows = ([repr(float(r))] + [repr(float(u)) for u in mf.values[:, j]]
            for j, r in enumerate(mf.grid.nodes))
    _write_csv(path, meta, columns, rows)


def write_sweep_csv(path, points, axes, meta):
    """One row per `SweepPoint`: the swept values, both levels, the margin, the
    verdict, the certificate, the predicate flags and `decided_by`."""
    paths = [axis for axis, _ in axes]
    columns = paths + ["full_level", "semitrivial_level", "margin", "verdict", "certificate_held",
                       *(f"pred_{name}" for name in PREDICATE_NAMES), "decided_by"]

    def row(pt):
        v = pt.verdict
        return ([repr(pt.values[axis]) for axis in paths]
                + [repr(v.numeric_full_level), repr(v.numeric_semitrivial_level),
                   repr(v.margin), v.verdict, str(v.certificate_held).lower()]
                + [str(rep.satisfied).lower() if rep.applicable else "n/a"
                   for rep in map(v.predicates.get, PREDICATE_NAMES)] + [v.decided_by])

    _write_csv(path, meta, columns, map(row, points))


def cmd_solve(config, p, args):
    res = ground_state(p, build_grid(p, _phase_options(config)))
    meta = _meta(config)
    out = _outdir(args)
    payload = dict(meta)
    payload["result"] = res.to_json_dict()
    payload["action"] = action(res.fields, p).to_json_dict()
    payload["parameters"] = p.to_json_dict()
    _write_json(out / "result.json", payload)
    write_profiles_csv(out / "profiles.csv", res.fields, meta)
    support = ",".join(str(i) for i in res.support)
    print(f"level={res.level:.6f} support=[{support}] converged={res.converged}")
    return EXIT_OK if res.converged else EXIT_WARNINGS


def cmd_classify(config, p, args):
    verdict = classify(p, _phase_options(config))
    out = _outdir(args)
    payload = dict(_meta(config))
    payload["classification"] = verdict.to_json_dict()
    payload["parameters"] = p.to_json_dict()
    _write_json(out / "verdict.json", payload)
    print(
        f"verdict={verdict.verdict} full={verdict.numeric_full_level:.6f} "
        f"semitrivial={verdict.numeric_semitrivial_level:.6f} "
        f"margin={verdict.margin:.3e} decided_by={verdict.decided_by}"
    )
    return EXIT_OK if verdict.diagnostics["solver_converged"] else EXIT_WARNINGS


def cmd_sweep(config, p, args):
    opts = _phase_options(config, workers=args.workers)
    axes = [(a["path"], a["values"]) for a in config.get("sweep", {}).get("axes", [])]
    if not axes:
        return cmd_classify(config, p, args)
    points = sweep(p, axes, opts)
    write_sweep_csv(_outdir(args) / "sweep.csv", points, axes, _meta(config))
    flagged = sum(1 for pt in points if not pt.verdict.diagnostics["solver_converged"])
    print(f"swept {len(points)} points -> sweep.csv ({flagged} flagged)")
    return EXIT_OK if flagged == 0 else EXIT_WARNINGS


def cmd_reduce(config, p, args):
    group = config.get("reduce", {}).get("group")
    if not isinstance(group, list):
        raise ValueError('reduce needs config["reduce"]["group"] (a list of component indices)')
    red = reduce_system(p, group)
    print(json.dumps({
        "reduced_parameters": red.reduced.to_json_dict(),
        "simplex_max": {"F": float(red.reduced.mu[0]), "z": [float(x) for x in red.z]},
        "mapping": {
            "group": list(red.group),
            "retained": list(red.retained),
        },
    }, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_thresholds(config, p, args):
    preds = evaluate_predicates(p)
    tail = preds["lambda_tail"].info
    alpha = f"{tail['alpha']:.6g}" if "alpha" in tail else f"n/a ({tail['reason']})"
    rows = [("alpha_threshold", alpha)]
    for name in PREDICATE_NAMES:
        rep = preds[name]
        label, yes, no = _THRESHOLD_ROWS[name]
        if rep.applicable:
            outcome = yes if rep.satisfied else no
        else:
            outcome = f"n/a ({rep.info['reason']})"
        numbers = [f"{k}={v:.6g}" for k, v in rep.info.items() if k != "reason"]
        rows.append((label, " ".join(numbers + ["->", outcome]) if numbers else outcome))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name.ljust(width)}  {value}")
    return EXIT_OK


def cmd_selftest(args):
    from .acceptance import run_acceptance

    only = None
    if args.only:
        only = [tok.strip() for tok in args.only.split(",") if tok.strip()]
    results = run_acceptance(only=only)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.cid} {res.name}")
        print(f"       {res.detail}", file=sys.stderr)
        print(f"       elapsed {res.seconds:.2f}s (budget {res.budget:.0f}s)",
              file=sys.stderr)
    npass = sum(1 for r in results if r.passed)
    print(f"acceptance: {npass}/{len(results)} passed")
    return EXIT_OK if npass == len(results) else EXIT_USAGE


#: The flags of the config commands; neither changes an output file.
_OUTPUT_DIR = ("--output-dir", {"default": ".",
                                "help": "directory for the output files (default: %(default)s)"})
_WORKERS = ("--workers", {"type": int, "default": PhaseOptions.workers,
                          "help": "sweep worker processes (default: %(default)s)"})

#: The config commands: name -> (handler, help text, the flags it reads).
_COMMANDS = {
    "solve": (cmd_solve, "compute the ground state and write result.json/profiles.csv",
              [_OUTPUT_DIR]),
    "classify": (cmd_classify, "classify the parameter set and write verdict.json",
                 [_OUTPUT_DIR]),
    "sweep": (cmd_sweep, "classify a grid of parameter values and write sweep.csv",
              [_OUTPUT_DIR, _WORKERS]),
    "reduce": (cmd_reduce, "merge an equal-lambda group and print the reduced system", []),
    "thresholds": (cmd_thresholds, "print the closed-form thresholds for the parameters", []),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cnls",
        description=(
            "Ground states of weakly coupled cubic Schrodinger systems. Every "
            "command but selftest reads one JSON run config, which says what to "
            "compute; solve, classify and sweep write their output files into "
            "the output directory."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("config", help="path to the JSON run config")
        for flag, kwargs in flags:
            sp.add_argument(flag, **kwargs)
    st = sub.add_parser("selftest", help="run the acceptance suite")
    st.add_argument("--only", default=None,
                    help="comma-separated criterion ids (e.g. 01,03,10)")
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_OK if not exc.code else EXIT_USAGE
    try:
        if args.command == "selftest":
            return cmd_selftest(args)
        config = _load_config(args.config)
        handler = _COMMANDS[args.command][0]
        return handler(config, ParameterSet.from_json_dict(config["parameters"]), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
