"""Command-line interface: solve, classify, sweep, reduce, thresholds, selftest.

One JSON config file is the sole positional argument (sweeps are
config-heavy, and a single artifact per run aids provenance); flags only
override the seed, the output directory, and the worker count.  Every
output file embeds the tool version and a hash of the effective config.

Exit codes: 0 success, 1 usage/validation error, 2 converged with warnings
(e.g. a flagged non-converged solve; the result is still written).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .functional import action
from .grid import RadialGrid, write_profiles_csv
from .params import ParameterSet, as_float, as_int, validate
from .phase import (
    PREDICATE_NAMES,
    PhaseOptions,
    build_grid,
    classify,
    evaluate_predicates,
    sweep,
    write_sweep_csv,
)
from .reduction import reduce_system
from .solver import SolverOptions, ground_state

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_WARNINGS = 2

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
    return config


def _effective_config(config, args):
    eff = json.loads(json.dumps(config))  # deep copy, JSON-clean
    if getattr(args, "seed", None) is not None:
        eff.setdefault("solver", {})["seed"] = args.seed
    if getattr(args, "output_dir", None) is not None:
        eff.setdefault("output", {})["dir"] = args.output_dir
    if getattr(args, "workers", None) is not None:
        eff["workers"] = args.workers
    return eff


def _phase_options(config):
    grid_cfg = config.get("grid", {})
    if not isinstance(grid_cfg, dict):
        raise ValueError('"grid" must be a JSON object')
    R = grid_cfg.get("R", "auto")
    R = None if R in (None, "auto") else as_float(R, "grid.R")
    n = as_int(grid_cfg.get("n", 2000), "grid.n")
    solver = SolverOptions.from_json_dict(config.get("solver", {}))
    kwargs = dict(grid_n=n, grid_R=R, solver=solver)
    if "margin_tol" in config:
        kwargs["margin_tol"] = as_float(config["margin_tol"], "margin_tol")
    if "workers" in config:
        kwargs["workers"] = as_int(config["workers"], "workers")
    if "sweep_cap" in config:
        kwargs["sweep_cap"] = as_int(config["sweep_cap"], "sweep_cap")
    return PhaseOptions(**kwargs)


def _meta(config):
    return {
        "tool": "cnls",
        "version": __version__,
        "config_sha256": _config_hash(config),
        "seed": config.get("solver", {}).get("seed", SolverOptions().seed),
    }


def _outdir(config):
    out = Path(config.get("output", {}).get("dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_solve(config):
    p = ParameterSet.from_json_dict(config["parameters"])
    opts = _phase_options(config)
    grid = build_grid(p, opts)
    res = ground_state(p, grid, opts.solver)
    meta = _meta(config)
    out = _outdir(config)
    payload = dict(meta)
    payload["result"] = res.to_json_dict()
    payload["action"] = action(res.fields, p).to_json_dict()
    payload["parameters"] = p.to_json_dict()
    if config.get("check_truncation"):
        # R-doubling convergence check: same spacing, doubled radius
        grid2 = RadialGrid.make(grid.N, 2.0 * grid.R, 2 * grid.n)
        res2 = ground_state(p, grid2, opts.solver)
        payload["truncation_check"] = {
            "R_doubled_level": res2.level,
            "level_drift": abs(res2.level - res.level),
        }
    _write_json(out / "result.json", payload)
    with open(out / "profiles.csv", "w", encoding="utf-8", newline="\n") as fh:
        write_profiles_csv(res.fields, fh, meta)
    support = ",".join(str(i) for i in res.support)
    print(f"level={res.level:.6f} support=[{support}] converged={res.converged}")
    return EXIT_OK if res.converged else EXIT_WARNINGS


def cmd_classify(config):
    p = ParameterSet.from_json_dict(config["parameters"])
    opts = _phase_options(config)
    verdict = classify(p, opts)
    out = _outdir(config)
    payload = dict(_meta(config))
    payload["classification"] = verdict.to_json_dict()
    payload["parameters"] = p.to_json_dict()
    _write_json(out / "verdict.json", payload)
    print(
        f"verdict={verdict.verdict} full={verdict.numeric_full_level:.6f} "
        f"semitrivial={verdict.numeric_semitrivial_level:.6f} "
        f"margin={verdict.margin:.3e}"
    )
    return EXIT_OK if verdict.diagnostics["solver_converged"] else EXIT_WARNINGS


def cmd_sweep(config):
    p = ParameterSet.from_json_dict(config["parameters"])
    opts = _phase_options(config)
    axes_cfg = config.get("sweep", {}).get("axes", [])
    axes = [(a["path"], a["values"]) for a in axes_cfg]
    if not axes:
        return cmd_classify(config)
    points = sweep(p, axes, opts)
    out = _outdir(config)
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="\n") as fh:
        write_sweep_csv(points, axes, fh, _meta(config))
    flagged = sum(1 for pt in points if not pt.verdict.diagnostics["solver_converged"])
    print(f"swept {len(points)} points -> sweep.csv ({flagged} flagged)")
    return EXIT_OK if flagged == 0 else EXIT_WARNINGS


def cmd_reduce(config):
    p = ParameterSet.from_json_dict(config["parameters"])
    group = config.get("reduce", {}).get("group")
    if not group:
        raise ValueError('reduce needs config["reduce"]["group"] (component indices)')
    red = reduce_system(p, group)
    print(json.dumps({
        "reduced_parameters": red.reduced.to_json_dict(),
        "sphere_max": red.sphere.to_json_dict(),
        "mapping": {
            "group": list(red.mapping.group),
            "retained": list(red.mapping.retained),
        },
    }, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_thresholds(config):
    p = validate(ParameterSet.from_json_dict(config["parameters"]))
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
    fault = 0.05 if args.inject_fault else 0.0
    results = run_acceptance(only=only, fault_weight_scale=fault)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.cid} {res.name}")
        print(f"       {res.detail}", file=sys.stderr)
        print(f"       elapsed {res.seconds:.2f}s (budget {res.budget:.0f}s)",
              file=sys.stderr)
    npass = sum(1 for r in results if r.passed)
    print(f"acceptance: {npass}/{len(results)} passed")
    return EXIT_OK if npass == len(results) else EXIT_USAGE


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cnls",
        description=(
            "Ground states of weakly coupled cubic Schrodinger systems: "
            "solve, classify, sweep, reduce, thresholds, selftest."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "compute the ground state and write result.json/profiles.csv"),
        ("classify", "classify the parameter set and write verdict.json"),
        ("sweep", "classify a grid of parameter values and write sweep.csv"),
        ("reduce", "merge an equal-lambda group and print the reduced system"),
        ("thresholds", "print the closed-form thresholds for the parameters"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("config", help="path to the JSON run config")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the solver seed")
        sp.add_argument("--output-dir", default=None,
                        help="override the output directory")
        sp.add_argument("--workers", type=int, default=None,
                        help="override the sweep worker count")
    st = sub.add_parser("selftest", help="run the acceptance suite")
    st.add_argument("--only", default=None,
                    help="comma-separated criterion ids (e.g. 01,03,10)")
    st.add_argument("--inject-fault", action="store_true",
                    help=argparse.SUPPRESS)  # test-mode: corrupt quadrature
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "selftest":
        return cmd_selftest(args)
    try:
        config = _effective_config(_load_config(args.config), args)
        handler = {
            "solve": cmd_solve,
            "classify": cmd_classify,
            "sweep": cmd_sweep,
            "reduce": cmd_reduce,
            "thresholds": cmd_thresholds,
        }[args.command]
        return handler(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
