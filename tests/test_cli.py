import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from dsm import NumericalFailure, corpus, emit_table, main, run_experiment

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def load_config(name):
    return json.loads((CONFIGS / name).read_text())


class TestRunExperiment:
    def test_flow_report_shape(self, tmp_path):
        report = run_experiment(load_config("flow.json"), tmp_path)
        assert report["kind"] == "flow"
        assert report["checks_pass"]
        assert report["problem"]["name"] == "cubic-monotone"
        assert set(report["artifacts"]) == {"report.json", "trajectory.csv"}
        checks = {c["check"] for run in report["runs"] for c in run["checks"]}
        assert checks == {"residual-decay", "flow-limit-gap", "stopping-gap"}
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "trajectory.csv").exists()
        timing = json.loads((tmp_path / "timing.json").read_text())
        assert timing["total_seconds"] > 0

    def test_each_shipped_config_passes(self, tmp_path):
        for name in ("flow", "iterate", "reg-path", "noise-study", "lemma-sim"):
            out = tmp_path / name
            report = run_experiment(load_config(f"{name}.json"), out)
            assert report["checks_pass"], name
            for artifact in report["artifacts"]:
                assert (out / artifact).exists(), f"{name}: missing {artifact}"

    def test_report_is_byte_reproducible(self, tmp_path):
        cfg = load_config("flow.json")
        run_experiment(dict(cfg), tmp_path / "a")
        run_experiment(dict(cfg), tmp_path / "b")
        assert (tmp_path / "a/report.json").read_bytes() == (
            tmp_path / "b/report.json"
        ).read_bytes()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = load_config("flow.json")
        cfg["bogus"] = 1
        with pytest.raises(ValueError, match="unknown"):
            run_experiment(cfg, tmp_path)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="experiment kind"):
            run_experiment({"kind": "mystery"}, tmp_path)

    def test_missing_required_field_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="problem"):
            run_experiment({"kind": "flow"}, tmp_path)

    def test_numerical_failure_propagates(self, tmp_path):
        cfg = load_config("flow.json")
        cfg["rtol"] = 1e-300
        cfg["atol"] = 1e-320
        with pytest.raises(NumericalFailure):
            run_experiment(cfg, tmp_path)

    def test_trajectory_wire_format(self, tmp_path):
        run_experiment(load_config("flow.json"), tmp_path)
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t," + "g," + ",".join(f"u_{i}" for i in range(10))
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert len(first) == 12

    def test_history_wire_format(self, tmp_path):
        run_experiment(load_config("iterate.json"), tmp_path)
        lines = (tmp_path / "history.csv").read_text().splitlines()
        assert lines[0] == "n,eps_n,h_n,residual_n,oracle_g_n,oracle_b_n"
        # the final row records state only; no step was taken from it
        assert lines[-1].split(",")[2] == ""

    def test_linear_report_hashes_the_matrix(self, tmp_path):
        report = run_experiment(load_config("reg-path.json"), tmp_path)
        block = json.loads((tmp_path / "report.json").read_text())["problem"]
        assert block == report["problem"]
        assert block["name"] == "psd-singular-linear"
        assert "matrix" not in block
        rebuilt = corpus.problem_from_dict(block["spec"])
        matrix = np.ascontiguousarray(rebuilt.jacobian(np.zeros(rebuilt.dim)), dtype=np.float64)
        assert block["matrix_sha256"] == hashlib.sha256(matrix.tobytes()).hexdigest()

    def test_nonlinear_report_has_no_matrix(self, tmp_path):
        report = run_experiment(load_config("flow.json"), tmp_path)
        assert report["problem"]["name"] == "cubic-monotone"
        assert "matrix" not in report["problem"]
        assert "matrix_sha256" not in report["problem"]

    def test_each_experiment_builds_its_problem_once(self, tmp_path, monkeypatch):
        builds = []
        build = corpus.problem_from_dict

        def counting(spec):
            builds.append(spec)
            return build(spec)

        monkeypatch.setattr(corpus, "problem_from_dict", counting)
        for name in ("flow", "iterate", "reg-path", "noise-study", "lemma-sim"):
            builds.clear()
            run_experiment(load_config(f"{name}.json"), tmp_path / name)
            assert len(builds) == (0 if name == "lemma-sim" else 1), name

    def test_noise_stopping_errors_decrease(self, tmp_path):
        report = run_experiment(load_config("noise-study.json"), tmp_path)
        by_name = {
            c["check"]: c for run in report["runs"] for c in run["checks"]
        }
        assert by_name["noise-convergence"]["pass"]
        assert by_name["noisy-stopping-gap"]["observed"] <= 1.05


class TestCliEntryPoint:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_success_prints_check_lines(self, tmp_path, capsys):
        code, out, err = self.run(
            capsys, "flow", "--config", str(CONFIGS / "flow.json"), "--out", str(tmp_path)
        )
        assert code == 0
        assert err == ""
        assert "[pass] residual-decay" in out
        assert "[pass] stopping-gap" in out
        assert "bound check(s) pass" in out

    def test_failed_check_exits_one(self, tmp_path, capsys):
        code, out, err = self.run(
            capsys,
            "flow",
            "--config",
            str(CONFIGS / "flow.json"),
            "--out",
            str(tmp_path),
            "--set",
            "decay_tol=1e-12",
        )
        assert code == 1
        assert "[FAIL] residual-decay" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert not report["checks_pass"]

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = self.run(capsys, "flow", "--config", str(bad))
        assert code == 2
        assert "invalid configuration" in err

        code, _, err = self.run(capsys, "flow", "--config", str(tmp_path / "absent.json"))
        assert code == 2

        mismatched = tmp_path / "mismatch.json"
        mismatched.write_text(json.dumps(load_config("iterate.json")))
        code, _, err = self.run(
            capsys, "flow", "--config", str(mismatched), "--out", str(tmp_path)
        )
        assert code == 2
        assert "kind" in err

    def test_numerical_failure_exits_three(self, tmp_path, capsys):
        code, _, err = self.run(
            capsys,
            "flow",
            "--config",
            str(CONFIGS / "flow.json"),
            "--out",
            str(tmp_path),
            "--set",
            "rtol=1e-300",
            "--set",
            "atol=1e-320",
        )
        assert code == 3
        assert "numerical failure" in err

    def test_dotted_override_and_seed(self, tmp_path, capsys):
        code, out, _ = self.run(
            capsys,
            "flow",
            "--config",
            str(CONFIGS / "flow.json"),
            "--out",
            str(tmp_path),
            "--set",
            "problem.corpus=hilbert-psd",
            "--seed",
            "7",
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["problem"]["name"] == "hilbert-psd"
        assert report["config"]["seed"] == 7

    def test_table_modes(self, tmp_path, capsys):
        code, md, _ = self.run(
            capsys, "lemma-sim", "--config", str(CONFIGS / "lemma-sim.json"),
            "--out", str(tmp_path / "md"),
        )
        assert code == 0
        assert md.count("|") > 10

        code, csv_out, _ = self.run(
            capsys, "lemma-sim", "--config", str(CONFIGS / "lemma-sim.json"),
            "--out", str(tmp_path / "csv"), "--table", "csv",
        )
        assert "|" not in csv_out.splitlines()[0]
        assert csv_out.splitlines()[0] == "n,simulated,unrolled_bound,majorant,tail_sum"

        code, quiet, _ = self.run(
            capsys, "lemma-sim", "--config", str(CONFIGS / "lemma-sim.json"),
            "--out", str(tmp_path / "none"), "--table", "none",
        )
        assert "simulated" not in quiet


class TestEmitTable:
    REPORT = {
        "table": {
            "columns": ["n", "value", "flag", "gap"],
            "rows": [[0, 1.0 / 3.0, True, None], [1, 2.5e-17, False, 0.125]],
        }
    }

    def test_csv_uses_full_precision(self):
        text = emit_table(self.REPORT, "csv")
        lines = text.splitlines()
        assert lines[0] == "n,value,flag,gap"
        assert lines[1] == "0,0.33333333333333331,true,"
        assert lines[2] == "1,2.4999999999999999e-17,false,0.125"
        assert float(lines[2].split(",")[1]) == 2.5e-17  # round-trips exactly
        assert text.endswith("\n")

    def test_markdown_rounds_to_six_digits(self):
        text = emit_table(self.REPORT, "markdown")
        assert "0.333333" in text
        assert "0.33333333" not in text
        assert text.splitlines()[1].startswith("|")

    def test_empty_table_is_header_only(self):
        text = emit_table({"table": {"columns": ["a", "b"], "rows": []}}, "csv")
        assert text == "a,b\n"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_table(self.REPORT, "latex")
