import dataclasses
import json

import pytest

from cnls import phase
from cnls.cli import main

SINGLE = {
    "parameters": {"d": 1, "N": 1, "lambda": [1.0], "mu": [1.0], "b": [[0.0]]},
    "grid": {"R": 20.0, "n": 1200},
    "solver": {"seed": 7},
}

PAIR = {
    "parameters": {
        "d": 2, "N": 1, "lambda": [1.0, 1.0], "mu": [1.0, 1.0],
        "b": [[0.0, 3.0], [3.0, 0.0]],
    },
    "grid": {"R": 20.0, "n": 800},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestSolve:
    def test_happy_path(self, tmp_path, capsys):
        cfg = dict(SINGLE)
        cfg["output"] = {"dir": str(tmp_path / "out")}
        code = main(["solve", write_config(tmp_path, cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "level=1.3333" in out
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["tool"] == "cnls"
        assert result["result"]["support"] == [0]
        assert result["result"]["grid"] == {"N": 1, "R": 20.0, "n": 1200}
        profiles = (tmp_path / "out" / "profiles.csv").read_text().splitlines()
        assert result["config_sha256"] in profiles[0]
        assert profiles[1] == "r,u1"
        assert len(profiles) == 2 + 1201

    def test_truncation_check(self, tmp_path, capsys):
        cfg = dict(SINGLE)
        cfg["grid"] = {"R": 10.0, "n": 400}
        cfg["check_truncation"] = True
        cfg["output"] = {"dir": str(tmp_path / "out")}
        assert main(["solve", write_config(tmp_path, cfg)]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["truncation_check"]["level_drift"] < 1e-4

    def test_invalid_parameters_exit_1(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(SINGLE))
        cfg["parameters"]["mu"] = [-1.0]
        code = main(["solve", write_config(tmp_path, cfg)])
        assert code == 1
        assert "positivity" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda c: c["parameters"].pop("b"),
        lambda c: c.update(parameters=[1.0]),
        lambda c: c["grid"].update(R="20"),
        lambda c: c["solver"].update(max_iterations=2.5),
        lambda c: c["parameters"].update(N=1.5),
        lambda c: c["grid"].update(n=2000.5),
    ], ids=["no-b", "list-parameters", "string-R", "fractional-max_iterations",
            "fractional-N", "fractional-n"])
    def test_malformed_config_exit_1(self, tmp_path, capsys, edit):
        cfg = json.loads(json.dumps(SINGLE))
        edit(cfg)
        cfg["output"] = {"dir": str(tmp_path / "out")}
        assert main(["solve", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_missing_config_exit_1(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_non_convergence_exit_2_with_result(self, tmp_path, capsys):
        cfg = dict(SINGLE)
        cfg["solver"] = {"max_iterations": 1, "random_starts": 0}
        cfg["output"] = {"dir": str(tmp_path / "out")}
        code = main(["solve", write_config(tmp_path, cfg)])
        assert code == 2
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["result"]["converged"] is False

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = dict(SINGLE)
        cfg["output"] = {"dir": str(tmp_path / "a")}
        main(["solve", write_config(tmp_path, cfg, "c1.json")])
        cfg["output"] = {"dir": str(tmp_path / "b")}
        main(["solve", write_config(tmp_path, cfg, "c2.json"), "--seed", "9"])
        h1 = json.loads((tmp_path / "a" / "result.json").read_text())["config_sha256"]
        h2 = json.loads((tmp_path / "b" / "result.json").read_text())["config_sha256"]
        assert h1 != h2


class TestClassify:
    def test_writes_verdict(self, tmp_path, capsys):
        cfg = dict(PAIR)
        cfg["output"] = {"dir": str(tmp_path / "out")}
        code = main(["classify", write_config(tmp_path, cfg)])
        assert code == 0
        assert "verdict=fully_nontrivial" in capsys.readouterr().out
        verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
        assert verdict["classification"]["verdict"] == "fully_nontrivial"
        assert "predicates" in verdict["classification"]


class TestSweep:
    def test_zero_axes_behaves_as_classify(self, tmp_path):
        cfg = dict(PAIR)
        cfg["output"] = {"dir": str(tmp_path / "out")}
        assert main(["sweep", write_config(tmp_path, cfg)]) == 0
        assert (tmp_path / "out" / "verdict.json").exists()

    def test_axis_sweep_writes_csv_deterministically(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(PAIR))
        cfg["grid"]["n"] = 500
        cfg["sweep"] = {"axes": [{"path": "b", "values": [0.5, 3.0]}]}
        cfg["output"] = {"dir": str(tmp_path / "out")}
        path = write_config(tmp_path, cfg)
        assert main(["sweep", path]) == 0
        blob1 = (tmp_path / "out" / "sweep.csv").read_bytes()
        assert main(["sweep", path]) == 0
        blob2 = (tmp_path / "out" / "sweep.csv").read_bytes()
        assert blob1 == blob2
        lines = blob1.decode().splitlines()
        assert lines[1].startswith("b,full_level")
        assert len(lines) == 2 + 2
        assert lines[2].endswith("semitrivial,false,n/a,n/a,n/a,true")

    def test_unconverged_restricted_solve_is_flagged(self, tmp_path, capsys, monkeypatch):
        real_classify = phase.classify

        def classify(p, opts):
            v = real_classify(p, opts)
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
        cfg["output"] = {"dir": str(tmp_path / "out")}
        cfg["workers"] = 1
        assert main(["sweep", write_config(tmp_path, cfg)]) == 2
        assert "(1 flagged)" in capsys.readouterr().out


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
        assert payload["reduced_parameters"]["lambda"] == [1.0, 2.0]
        assert payload["reduced_parameters"]["mu"] == [2.0, 1.0]
        assert payload["sphere_max"]["f_max"] == 2.0

    def test_nonconstant_coupling_exit_1(self, tmp_path, capsys):
        cfg = {
            "parameters": {
                "d": 3, "N": 1, "lambda": [1.0, 1.0, 2.0], "mu": [1.0, 1.0, 1.0],
                "b": [[0, 3.0, 2.0], [3.0, 0, 3.0], [2.0, 3.0, 0]],
            },
            "reduce": {"group": [0, 1]},
        }
        assert main(["reduce", write_config(tmp_path, cfg)]) == 1
        assert "constant coupling" in capsys.readouterr().err

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


class TestSelftest:
    def test_subset_passes_and_is_deterministic(self, capsys):
        assert main(["selftest", "--only", "10"]) == 0
        out1 = capsys.readouterr().out
        assert "PASS 10 nehari-projection" in out1
        assert main(["selftest", "--only", "10"]) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_fault_injection_is_detected(self, capsys):
        assert main(["selftest", "--only", "01", "--inject-fault"]) == 1
        assert "FAIL 01" in capsys.readouterr().out

    def test_unknown_criterion_rejected(self, capsys):
        with pytest.raises(ValueError):
            main(["selftest", "--only", "42"])
