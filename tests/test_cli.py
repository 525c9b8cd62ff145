import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from cnls import cli, phase, solver
from cnls.cli import main
from cnls.grid import MultiField, RadialGrid

SINGLE = {
    "parameters": {"d": 1, "N": 1, "lambda": [1.0], "mu": [1.0], "b": [[0.0]]},
    "grid": {"n": 1200},
}

PAIR = {
    "parameters": {
        "d": 2, "N": 1, "lambda": [1.0, 1.0], "mu": [1.0, 1.0],
        "b": [[0.0, 3.0], [3.0, 0.0]],
    },
    "grid": {"n": 800},
}


def write_config(tmp_path, payload, name="config.json"):
    """Write ``payload`` as JSON, or verbatim if it is a string."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    config = cli._load_config(write_config(tmp_path, json.loads(blocks[0])))
    opts = cli._phase_options(config)
    assert opts.grid_n == config["grid"]["n"]


@pytest.mark.parametrize("argv", [
    ["solve"], ["frob", "x"], ["solve", "{cfg}", "--seed", "3"],
    # a command takes only the flags it reads
    ["solve", "{cfg}", "--workers", "2"], ["classify", "{cfg}", "--workers", "2"],
    ["reduce", "{cfg}", "--workers", "2"], ["thresholds", "{cfg}", "--workers", "2"],
    ["reduce", "{cfg}", "--output-dir", "out"], ["thresholds", "{cfg}", "--output-dir", "out"],
], ids=["no-config", "unknown-command", "removed-seed-flag", "solve-workers",
        "classify-workers", "reduce-workers", "thresholds-workers", "reduce-output-dir",
        "thresholds-output-dir"])
def test_usage_error_exit_1(tmp_path, capsys, monkeypatch, argv):
    # argparse's own status 2 would read as "finished with warnings"
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, SINGLE)
    assert main([arg.format(cfg=cfg) for arg in argv]) == 1
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_help_exit_0(capsys):
    assert main(["solve", "--help"]) == 0
    assert "--seed" not in capsys.readouterr().out


def test_each_command_lists_only_the_flags_it_reads(capsys):
    assert main(["--help"]) == 0
    assert "{solve,classify,sweep,reduce,thresholds,selftest}" in capsys.readouterr().out
    for command, flags in (("solve", ["--output-dir"]), ("classify", ["--output-dir"]),
                           ("sweep", ["--output-dir", "--workers"]), ("reduce", []),
                           ("thresholds", []), ("selftest", ["--only"])):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert listed == {"--help", *flags}, command


def test_profiles_csv_writer(tmp_path):
    g = RadialGrid.make(1, 2.0, 4)
    mf = MultiField(g, np.array([[1.0, 2.0, 3.0, 4.0, 0.0], [0.0] * 5]))
    cli.write_profiles_csv(tmp_path / "profiles.csv", mf, {"tool": "cnls", "seed": 7})
    lines = (tmp_path / "profiles.csv").read_text().splitlines()
    assert lines[0] == "# tool=cnls seed=7"
    assert lines[1] == "r,u1,u2"
    assert len(lines) == 2 + 5
    assert lines[2].split(",")[1] == "1.0"


GRID_R_ERROR = "unknown \"grid\" key(s): ['R']"
OUTPUT_ERROR = "unknown config key(s): ['output']"

#: The error a malformed config must name, where one check alone could catch it.
MALFORMED_ERRORS = {
    "invalid-json": "is not valid JSON",
    "non-object-config": "config must be a JSON object",
    "no-parameters": 'config needs a "parameters" object',
    "empty-axis-values": "axis 'b' has no values",
    # a removed key is named, whatever its value
    "string-R": GRID_R_ERROR, "nan-R": GRID_R_ERROR, "removed-grid-R": GRID_R_ERROR,
    "string-output": OUTPUT_ERROR, "integer-output-dir": OUTPUT_ERROR,
    "string-output-with-dir-flag": OUTPUT_ERROR, "unknown-output-key": OUTPUT_ERROR,
    "removed-output": OUTPUT_ERROR,
    "removed-workers": "unknown config key(s): ['workers']",
    "removed-check_truncation": "unknown config key(s): ['check_truncation']",
}


class TestSolve:
    def test_happy_path(self, tmp_path, capsys, monkeypatch):
        # the output directory defaults to the current one
        monkeypatch.chdir(tmp_path)
        code = main(["solve", write_config(tmp_path, SINGLE)])
        out = capsys.readouterr().out
        assert code == 0
        assert "level=1.3333" in out
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["tool"] == "cnls"
        assert result["config_sha256"] == cli._config_hash(SINGLE)
        assert result["result"]["support"] == [0]
        # R = 20/sqrt(min lambda)
        assert result["result"]["grid"] == {"N": 1, "R": 20.0, "n": 1200}
        profiles = (tmp_path / "profiles.csv").read_text().splitlines()
        assert result["config_sha256"] in profiles[0]
        assert profiles[1] == "r,u1"
        assert len(profiles) == 2 + 1201

    def test_invalid_parameters_exit_1(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(SINGLE))
        cfg["parameters"]["mu"] = [-1.0]
        code = main(["solve", write_config(tmp_path, cfg)])
        assert code == 1
        assert "positivity" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, edit", [
        ("solve", lambda c: c["parameters"].pop("b")),
        ("solve", lambda c: c.update(parameters=[1.0])),
        ("solve", lambda c: c["grid"].update(R="20")),
        ("solve", lambda c: c.update(solver={"max_iterations": 2.5})),
        ("solve", lambda c: c["parameters"].update(N=1.5)),
        ("solve", lambda c: c["grid"].update(n=2000.5)),
        ("reduce", lambda c: c.update(reduce=[0, 1])),
        ("reduce", lambda c: c.update(parameters=PAIR["parameters"],
                                      reduce={"group": [0.7, 1]})),
        ("sweep", lambda c: c.update(sweep={"axes": [{"path": "b"}]})),
        ("sweep", lambda c: c.update(sweep=[1])),
        ("sweep", lambda c: c.update(sweep={"axes": [{"path": "b", "values": [None]}]})),
        ("solve", lambda c: c.update(output="x")),
        ("solve", lambda c: c.update(output={"dir": 5})),
        ("solve --output-dir o", lambda c: c.update(output="x")),
        # the flag itself is gone: test_usage_error_exit_1[removed-seed-flag]
        ("solve", lambda c: c.update(solver=[1])),
        ("solve", lambda c: c.update(check_truncation=True)),
        ("solve", lambda c: c.update(margn_tol=0.5)),
        ("solve", lambda c: c.update(margin_tol=1e-4)),
        ("solve", lambda c: c.update(sweep_cap=3)),
        ("solve", lambda c: c.update(solver={"grad_tol": 1e-7})),
        ("solve", lambda c: c["grid"].update(nodes=4000)),
        ("sweep", lambda c: c.update(parameters=PAIR["parameters"],
                                     sweep={"axes": [{"path": "b", "values": [3.0]}],
                                            "axis": []})),
        ("reduce", lambda c: c.update(parameters=PAIR["parameters"],
                                      reduce={"group": [0, 1], "groups": [[0, 1]]})),
        ("solve", lambda c: c.update(output={"format": "yaml"})),
        ("sweep", lambda c: c.update(parameters=PAIR["parameters"], sweep={"axes": [
            {"path": "b", "values": [0.5]}, {"path": "b", "values": [3.0]}]})),
        ("sweep", lambda c: c.update(parameters=PAIR["parameters"], sweep={"axes": [
            {"path": "b", "values": [1.0], "step": 0.1}]})),
        ("solve", lambda c: c["grid"].update(R=float("nan"))),
        ("sweep --workers 1000000", lambda c: c.update(
            parameters=PAIR["parameters"], sweep={"axes": [{"path": "b", "values": [3.0]}]})),
        ("solve", lambda c: c["parameters"].update(mu=["1.0"])),
        ("solve", lambda c: c["parameters"].update(b=[[True]])),
        ("solve", lambda c: '{"parameters": '),
        ("solve", lambda c: "[1]"),
        ("solve", lambda c: c.pop("parameters")),
        ("sweep", lambda c: c.update(parameters=PAIR["parameters"], sweep={"axes": [
            {"path": "b", "values": []}]})),
        # the radius is derived, and the output directory and worker count are flags
        ("solve", lambda c: c["grid"].update(R="auto")),
        ("sweep", lambda c: c.update(workers=2)),
        ("solve", lambda c: c.update(output={"dir": "out"})),
    ], ids=["no-b", "list-parameters", "string-R", "fractional-max_iterations",
            "fractional-N", "fractional-n", "list-reduce", "fractional-group",
            "axis-without-values", "list-sweep", "null-axis-value", "string-output",
            "integer-output-dir", "string-output-with-dir-flag", "list-solver-with-seed-flag",
            "removed-check_truncation", "misspelt-key", "removed-margin_tol",
            "removed-sweep_cap", "removed-grad_tol", "unknown-grid-key", "unknown-sweep-key",
            "unknown-reduce-key", "unknown-output-key", "repeated-axis-path",
            "unknown-axis-key", "nan-R", "workers-over-cap", "string-mu", "bool-b",
            "invalid-json", "non-object-config", "no-parameters", "empty-axis-values",
            "removed-grid-R", "removed-workers", "removed-output"])
    def test_malformed_config_exit_1(self, tmp_path, capsys, monkeypatch, request, argv, edit):
        monkeypatch.chdir(tmp_path)
        cfg = json.loads(json.dumps(SINGLE))
        text = edit(cfg)  # a string replaces the whole config file
        command, *flags = argv.split()
        path = write_config(tmp_path, text if isinstance(text, str) else cfg)
        assert main([command, path, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert MALFORMED_ERRORS.get(request.node.callspec.id, "") in err
        assert [f.name for f in tmp_path.iterdir()] == ["config.json"]  # nothing written

    def test_removed_solver_section_is_named(self, tmp_path, capsys, monkeypatch):
        # the iteration cap, random-start count and seed are solver constants
        monkeypatch.chdir(tmp_path)
        cfg = json.loads(json.dumps(SINGLE))
        cfg["solver"] = {"max_iterations": 3000, "random_starts": 2, "seed": 12345}
        assert main(["solve", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == "error: unknown config key(s): ['solver']\n"
        assert [f.name for f in tmp_path.iterdir()] == ["config.json"]

    def test_unknown_section_key_is_named(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(SINGLE))
        cfg["grid"]["nodes"] = 4000
        assert main(["solve", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == 'error: unknown "grid" key(s): [\'nodes\']\n'

    def test_missing_config_exit_1(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_non_convergence_exit_2_with_result(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
        monkeypatch.setattr(solver, "RANDOM_STARTS", 0)
        code = main(["solve", write_config(tmp_path, SINGLE), "--output-dir",
                     str(tmp_path / "out")])
        assert code == 2
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["result"]["converged"] is False


class TestClassify:
    def test_writes_verdict(self, tmp_path, capsys):
        code = main(["classify", write_config(tmp_path, PAIR), "--output-dir",
                     str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict=fully_nontrivial" in out
        assert out.rstrip().endswith(" decided_by=margin_above_band")
        verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
        assert verdict["classification"]["verdict"] == "fully_nontrivial"
        assert verdict["classification"]["decided_by"] == "margin_above_band"
        assert "predicates" in verdict["classification"]

    def test_output_dir_leaves_verdict_unchanged(self, tmp_path):
        # config_sha256 hashes the config as loaded, never a flag
        cfg = {**PAIR, "grid": {"n": 300}}
        path = write_config(tmp_path, cfg)
        blobs = []
        for name in ("a", "b"):
            assert main(["classify", path, "--output-dir", str(tmp_path / name)]) == 0
            blobs.append((tmp_path / name / "verdict.json").read_bytes())
        assert blobs[0] == blobs[1]
        assert json.loads(blobs[0])["config_sha256"] == cli._config_hash(cfg)

    def test_diagonal_of_b_is_ignored_and_echoed_as_zero(self, tmp_path, capsys):
        runs = []
        for name, diagonal in (("zero", [0.0, 0.0]), ("nonzero", [5.0, 7.0])):
            b = [[diagonal[0], 3.0], [3.0, diagonal[1]]]
            cfg = {**PAIR, "parameters": {**PAIR["parameters"], "b": b}}
            assert main(["classify", write_config(tmp_path, cfg, f"{name}.json"),
                         "--output-dir", str(tmp_path / name)]) == 0
            verdict = json.loads((tmp_path / name / "verdict.json").read_text())
            del verdict["config_sha256"]
            runs.append((capsys.readouterr().out, verdict))
        assert runs[1] == runs[0]
        assert runs[1][1]["parameters"]["b"] == [[0.0, 3.0], [3.0, 0.0]]


class TestSweep:
    def test_zero_axes_behaves_as_classify(self, tmp_path):
        assert main(["sweep", write_config(tmp_path, PAIR), "--output-dir",
                     str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "verdict.json").exists()

    def test_axis_sweep_writes_csv_deterministically(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(PAIR))
        cfg["grid"]["n"] = 500
        cfg["sweep"] = {"axes": [{"path": "b", "values": [0.5, 3.0]}]}
        argv = ["sweep", write_config(tmp_path, cfg), "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        blob1 = (tmp_path / "out" / "sweep.csv").read_bytes()
        assert main(argv) == 0
        blob2 = (tmp_path / "out" / "sweep.csv").read_bytes()
        assert blob1 == blob2
        lines = blob1.decode().splitlines()
        # perfbench reads the first five columns by position; decided_by comes last
        header = lines[1].split(",")
        assert header[:5] == ["b", "full_level", "semitrivial_level", "margin", "verdict"]
        assert header[-1] == "decided_by"
        assert len(lines) == 2 + 2
        assert lines[2].endswith("semitrivial,false,n/a,n/a,n/a,true,stable_semitrivial")
        assert lines[3].endswith("fully_nontrivial,true,n/a,n/a,n/a,false,margin_above_band")

    def test_flags_leave_sweep_csv_unchanged(self, tmp_path):
        # the flags say where and how wide, the config what: config_sha256
        # hashes the config as loaded
        cfg = json.loads(json.dumps(PAIR))
        cfg["grid"]["n"] = 300
        cfg["sweep"] = {"axes": [{"path": "b", "values": [0.5, 3.0]}]}
        path = write_config(tmp_path, cfg)
        blobs = []
        for workers, name in (("1", "a"), ("2", "b")):
            assert main(["sweep", path, "--workers", workers,
                         "--output-dir", str(tmp_path / name)]) == 0
            blobs.append((tmp_path / name / "sweep.csv").read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0].startswith(f"# tool=cnls version={cli.__version__} "
                                   f"config_sha256={cli._config_hash(cfg)} ".encode())

    def test_unconverged_restricted_solve_is_flagged(self, tmp_path, capsys, monkeypatch):
        real_classify = phase.classify

        def classify(p, opts, singles=None):
            v = real_classify(p, opts, singles)
            if p.constant_coupling() != 3.0:
                return v
            # the full solve converged; only a restricted solve did not
            assert v.diagnostics["full"]["converged"]
            return dataclasses.replace(
                v, diagnostics={**v.diagnostics, "solver_converged": False}
            )

        monkeypatch.setattr(phase, "classify", classify)
        cfg = json.loads(json.dumps(PAIR))
        cfg["grid"]["n"] = 500
        cfg["sweep"] = {"axes": [{"path": "b", "values": [0.5, 3.0]}]}
        assert main(["sweep", write_config(tmp_path, cfg), "--output-dir",
                     str(tmp_path / "out")]) == 2
        assert "(1 flagged)" in capsys.readouterr().out

    def test_unconverged_shared_restricted_solve_flags_every_point(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 2)
        monkeypatch.setattr(solver, "RANDOM_STARTS", 0)
        real_solve = phase.minimize_restricted
        shared = []

        def minimize_restricted(*args):
            res = real_solve(*args)
            shared.append(res.converged)
            return res

        monkeypatch.setattr(phase, "minimize_restricted", minimize_restricted)
        cfg = json.loads(json.dumps(PAIR))
        cfg["parameters"]["lambda"] = [1.0, 1.5]
        cfg["grid"]["n"] = 300
        cfg["sweep"] = {"axes": [{"path": "b", "values": [0.5, 1.0, 3.0]}]}
        assert main(["sweep", write_config(tmp_path, cfg), "--output-dir",
                     str(tmp_path / "out")]) == 2
        # each single-equation level is solved once and shared by all 3 points
        assert shared == [False, False]
        assert "(3 flagged)" in capsys.readouterr().out
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[2:]
        assert [row.split(",")[4] for row in rows] == ["inconclusive"] * 3
        assert [row.split(",")[-1] for row in rows] == ["unconverged"] * 3


class TestReduce:
    def test_prints_reduced_system(self, tmp_path, capsys):
        cfg = {
            "parameters": {
                "d": 3, "N": 1, "lambda": [1.0, 1.0, 2.0], "mu": [1.0, 1.0, 1.0],
                "b": [[0, 3.0, 3.0], [3.0, 0, 3.0], [3.0, 3.0, 0]],
            },
            "reduce": {"group": [0, 1]},
        }
        assert main(["reduce", write_config(tmp_path, cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "mapping": {"group": [0, 1], "retained": [2]},
            "reduced_parameters": {"N": 1, "b": [[0.0, 3.0], [3.0, 0.0]], "d": 2,
                                   "lambda": [1.0, 2.0], "mu": [2.0, 1.0]},
            "simplex_max": {"F": 2.0, "z": pytest.approx([0.5, 0.5], rel=0, abs=1e-15)},
        }

    def test_nonconstant_coupling_exit_1(self, tmp_path, capsys):
        cfg = {
            "parameters": {
                "d": 3, "N": 1, "lambda": [1.0, 1.0, 2.0], "mu": [1.0, 1.0, 1.0],
                "b": [[0, 3.0, 2.0], [3.0, 0, 3.0], [2.0, 3.0, 0]],
            },
            "reduce": {"group": [0, 1]},
        }
        assert main(["reduce", write_config(tmp_path, cfg)]) == 1
        assert ("retained component 2 couples to group members 0 and 1 by different values"
                in capsys.readouterr().err)

    def test_nonconstant_group_coupling_exit_0(self, tmp_path, capsys):
        cfg = {
            "parameters": {
                "d": 3, "N": 1, "lambda": [1.0, 1.0, 2.0], "mu": [1.0, 1.0, 1.0],
                "b": [[0, 3.0, 2.0], [3.0, 0, 2.0], [2.0, 2.0, 0]],
            },
            "reduce": {"group": [0, 1]},
        }
        assert main(["reduce", write_config(tmp_path, cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reduced_parameters"]["b"] == [[0.0, 2.0], [2.0, 0.0]]
        assert payload["simplex_max"] == {"F": 2.0,
                                          "z": pytest.approx([0.5, 0.5], rel=0, abs=1e-15)}

    def test_missing_group_exit_1(self, tmp_path, capsys):
        cfg = {"parameters": PAIR["parameters"]}
        assert main(["reduce", write_config(tmp_path, cfg)]) == 1


class TestThresholds:
    def test_prints_table(self, tmp_path, capsys):
        cfg = {
            "parameters": {
                "d": 3, "N": 3, "lambda": [1.0, 1.0, 2.0], "mu": [1.0, 1.0, 1.0],
                "b": [[0, 3.0, 3.0], [3.0, 0, 3.0], [3.0, 3.0, 0]],
            },
        }
        assert main(["thresholds", write_config(tmp_path, cfg)]) == 0
        out = capsys.readouterr().out
        assert "alpha_threshold" in out and "2.25" in out
        assert "lambda_tail_condition" in out and "-> admissible" in out
        assert "n/a (requires equal lambdas)" in out

    def test_single_equation_table(self, tmp_path, capsys):
        assert main(["thresholds", write_config(tmp_path, SINGLE)]) == 0
        assert capsys.readouterr().out == (
            "alpha_threshold            n/a (requires d >= 3)\n"
            "lambda_tail_condition      n/a (requires d >= 3)\n"
            "lambda_cluster_condition   n/a (requires d >= 3)\n"
            "coupling_spread_condition  n/a (requires d >= 3)\n"
            "small_coupling_bound       n/a (requires d >= 2)\n"
        )

    def test_pair_table(self, tmp_path, capsys):
        cfg = {"parameters": {"d": 2, "N": 2, "lambda": [1.0, 1.5], "mu": [1.0, 4.0],
                              "b": [[0.0, 0.5], [0.5, 0.0]]}}
        assert main(["thresholds", write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().out == (
            "alpha_threshold            n/a (requires d >= 3)\n"
            "lambda_tail_condition      n/a (requires d >= 3)\n"
            "lambda_cluster_condition   n/a (requires d >= 3)\n"
            "coupling_spread_condition  n/a (requires d >= 3)\n"
            "small_coupling_bound       bound=2 b=0.5 -> below\n"
        )


class TestSelftest:
    def test_subset_passes_and_is_deterministic(self, capsys):
        assert main(["selftest", "--only", "10"]) == 0
        out1 = capsys.readouterr().out
        assert "PASS 10 nehari-projection" in out1
        assert main(["selftest", "--only", "10"]) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_fault_injection_is_detected(self, capsys, monkeypatch):
        monkeypatch.setattr("cnls.grid._FAULT_WEIGHT_SCALE", 0.05)
        assert main(["selftest", "--only", "01"]) == 1
        assert "FAIL 01" in capsys.readouterr().out

    def test_unknown_criterion_rejected(self, capsys):
        assert main(["selftest", "--only", "42"]) == 1
        assert capsys.readouterr().err == "error: unknown criterion id(s): ['42']\n"
