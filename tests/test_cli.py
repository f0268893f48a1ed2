import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dsm import NumericalFailure, corpus, emit_table, flow, main, regroot, run_experiment
from dsm.cli import _EXPERIMENTS
from dsm.corpus import OPTIONAL, REQUIRED
from dsm.problem import _seed, apply_operator, inner, norm

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
README = Path(__file__).resolve().parents[1] / "README.md"


# a reg-path whose one shifted solve is singular to working precision
SINGULAR_REG_PATH = {
    "kind": "reg-path",
    "problem": {"corpus": "cubic-monotone", "dim": 50},
    "epsilons": [1e-10],
}


def load_config(name):
    return json.loads((CONFIGS / name).read_text())


def refuse(constant):
    # parse_constant of a strict (RFC 8259) reader: Infinity, -Infinity and NaN are not JSON
    raise ValueError(f"{constant} is not JSON")


class TestRunExperiment:
    def test_flow_report_shape(self, tmp_path):
        report = run_experiment(load_config("flow.json"), tmp_path)
        assert report["kind"] == "flow"
        assert report["checks_pass"]
        assert report["problem"]["name"] == "cubic-monotone"
        assert set(report["artifacts"]) == {"report.json", "trajectory.csv", "flow.csv"}
        checks = {c["check"] for run in report["runs"] for c in run["checks"]}
        assert checks == {"residual-decay", "flow-limit-gap", "stopping-gap"}
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "flow.csv").exists()
        timing = json.loads((tmp_path / "timing.json").read_text())
        assert timing["total_seconds"] > 0

    def test_each_shipped_config_passes(self, tmp_path):
        for name in ("flow", "iterate", "reg-path", "noise-study", "lemma-sim"):
            out = tmp_path / name
            report = run_experiment(load_config(f"{name}.json"), out)
            assert report["checks_pass"], name
            for artifact in report["artifacts"]:
                assert (out / artifact).exists(), f"{name}: missing {artifact}"
            # one verdict per row: it passes iff observed is within its bound
            for row in (c for run in report["runs"] for c in run["checks"]):
                assert row["pass"] == (row["observed"] <= row["bound"]), row
                assert row["margin"] == row["bound"] - row["observed"], row

    # past the stopping time the recorded residuals still follow the decay law
    @pytest.mark.parametrize(
        "problem",
        [
            {"corpus": "cubic-monotone"},
            {"corpus": "psd-singular-linear", "dim": 200},
            {"corpus": "random-monotone", "dim": 50},
            {"corpus": "hilbert-psd"},
        ],
        ids=lambda p: p["corpus"],
    )
    def test_flow_holds_the_decay_law_at_t_end_20(self, tmp_path, problem):
        cfg = {"kind": "flow", "problem": problem, "epsilon": 0.01, "t_end": 20}
        report = run_experiment(cfg, tmp_path)
        decay = next(c for c in report["runs"][0]["checks"] if c["check"] == "residual-decay")
        assert decay["pass"], decay
        assert report["checks_pass"]

    def test_shipped_flow_predicts_its_checkpoints_and_its_root(self, tmp_path):
        # started from the previous state and from 0, they took 30 and 7 Newton steps
        metrics = run_experiment(load_config("flow.json"), tmp_path)["runs"][0]["metrics"]
        assert metrics["rhs_evals"] < 30
        assert metrics["root_newton_iters"] < 7

    @pytest.mark.parametrize("t_end", [None, 20.0])
    @pytest.mark.parametrize(
        "problem",
        [
            {"corpus": "cubic-monotone", "dim": 50},
            {"corpus": "psd-singular-linear", "dim": 50},
            {"corpus": "random-monotone", "dim": 20},
            {"corpus": "hilbert-psd"},
        ],
        ids=lambda problem: problem["corpus"],
    )
    def test_reference_root_starts_on_the_flow_and_agrees_with_a_cold_root(
        self, tmp_path, monkeypatch, problem, t_end
    ):
        calls = []
        solve = regroot.solve_regularized

        def recording(*args, **kwargs):
            calls.append((kwargs.get("init"), solve(*args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(regroot, "solve_regularized", recording)
        eps = 0.01
        run_experiment(
            {"kind": "flow", "problem": problem, "epsilon": eps, "t_end": t_end}, tmp_path
        )
        monkeypatch.undo()
        [(init, root)] = calls
        assert init is not None
        # B + eps I is eps-strongly monotone: each lies within |F|/eps of the one root
        p = corpus.problem_from_dict(problem)
        cold = regroot.solve_regularized(p, eps)
        radius = sum(
            norm(apply_operator(p, v) + eps * v - p.data) for v in (root.v, cold.v)
        ) / eps
        assert norm(root.v - cold.v) <= radius

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
        # the shifted solve at eps 1e-10 misses its tolerance 1.6e-9 by a factor of 2000
        with pytest.raises(NumericalFailure, match="residual 3.179e-06 > tolerance 1.646e-09"):
            run_experiment(SINGULAR_REG_PATH, tmp_path)

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

    # at eps0 1e-6 both halves of the check fail, and the first step lands
    # at |u| = 1.5e6, far outside the ball m2_bound holds on; at eps0 1 the
    # contraction still holds and only eps_n >= 2 c g_n is broken
    @pytest.mark.parametrize("eps0, curvature_holds", [(1e-6, False), (1.0, True)])
    def test_recursion_step_observes_schedule_excess(self, tmp_path, eps0, curvature_holds):
        cfg = load_config("iterate.json")
        cfg["schedule"] = {"kind": "geometric", "eps0": eps0, "ratio": 0.5}
        report = run_experiment(cfg, tmp_path)
        check, *assumptions = report["runs"][0]["checks"]
        assert check["check"] == "recursion-step"
        assert check["observed"] > check["bound"]
        assert check["pass"] is False
        assert [(c["check"], c["pass"]) for c in assumptions] == [
            ("monotone-pairing", True), ("taylor-remainder", curvature_holds)
        ]

    def test_non_finite_metric_is_written_as_a_string(self, tmp_path, monkeypatch):
        # lemma-sim's final_value overflows on huge b terms; strict JSON has no NaN
        runner, *rest = _EXPERIMENTS["lemma-sim"]

        def overflowing(cfg, out_dir):
            runs, table, problem = runner(cfg, out_dir)
            runs[0]["metrics"]["final_value"] = math.nan
            return runs, table, problem

        monkeypatch.setitem(_EXPERIMENTS, "lemma-sim", (overflowing, *rest))
        report = run_experiment(load_config("lemma-sim.json"), tmp_path)
        assert report["runs"][0]["metrics"]["final_value"] == "nan"
        written = json.loads((tmp_path / "report.json").read_text(), parse_constant=refuse)
        assert {**report, "table": None} == {**written, "table": None}

    def test_oracle_run_observes_no_excess(self, tmp_path):
        report = run_experiment(load_config("iterate.json"), tmp_path)
        checks = report["runs"][0]["checks"]
        assert [c["check"] for c in checks] == [
            "recursion-step", "monotone-pairing", "taylor-remainder"
        ]
        assert all(c["observed"] == 0.0 and c["pass"] is True for c in checks)
        assert 0.0 < report["runs"][0]["metrics"]["curvature_ratio"] < 1.0

    def test_linear_report_hashes_the_matrix(self, tmp_path):
        report = run_experiment(load_config("reg-path.json"), tmp_path)
        block = json.loads((tmp_path / "report.json").read_text())["problem"]
        assert block == report["problem"]
        assert block["spec"] == {"corpus": "psd-singular-linear"}
        assert block["name"] == "psd-singular-linear"
        assert block["dim"] == 8
        assert block["is_linear"]
        assert "is_strictly_monotone" not in block and "m1_bound" not in block
        assert "matrix" not in block
        rebuilt = corpus.problem_from_dict(block["spec"])
        matrix = np.ascontiguousarray(rebuilt.jacobian(np.zeros(rebuilt.dim)), dtype=np.float64)
        assert block["matrix_sha256"] == hashlib.sha256(matrix.tobytes()).hexdigest()

    def test_reg_path_checks_and_errors_share_one_y(self, tmp_path):
        cfg = {**load_config("reg-path.json"), "problem": {"corpus": "hilbert-psd"}}
        report = run_experiment(cfg, tmp_path)
        problem = corpus.problem_from_dict(cfg["problem"])
        y = problem.known_solution
        path = regroot.regularization_path(problem, cfg["epsilons"])
        errors = [float(line.split(",")[2]) for line in
                  (tmp_path / "path.csv").read_text().splitlines()[1:]]
        assert errors == [norm(e.root.v - y) for e in path.entries]
        checks = {c["check"]: c for c in report["runs"][0]["checks"]}
        assert checks["norm-dominance"]["bound"] == norm(y) * (1.0 + regroot.NORM_SLACK)
        worst = max(norm(e.root.v - y) ** 2 - inner(y, y - e.root.v) for e in path.entries)
        assert checks["error-inner-bound"]["observed"] == worst

    def test_nonlinear_report_has_no_matrix(self, tmp_path):
        report = run_experiment(load_config("flow.json"), tmp_path)
        assert report["problem"]["name"] == "cubic-monotone"
        assert "matrix" not in report["problem"]
        assert "matrix_sha256" not in report["problem"]
        assert report["problem"]["m2_bound"] == pytest.approx(6.0 * (5.0 + norm(np.ones(10))))
        assert len(report["problem"]["data"]) == 10

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

    @pytest.mark.parametrize(
        "rule, clean_solves",
        [
            ({"epsilons": [1e-1, 1e-2, 1e-3]}, 3),
            ({"epsilons": [1e-1, 1e-2, 1e-1]}, 2),
            ({"b_exp": 0.5}, 2),
        ],
        ids=["grid", "grid-repeated-eps", "stopping-rule"],
    )
    def test_noise_grid_solves_each_clean_root_once(
        self, tmp_path, monkeypatch, rule, clean_solves
    ):
        cfg = {
            "kind": "noise-study",
            "problem": {"corpus": "psd-singular-linear"},
            "deltas": [0.01, 0.001],
            "seed": 4,
            **rule,
        }
        solves = []
        solve = regroot.solve_regularized

        def counting(*args, **kwargs):
            solves.append(kwargs.get("f_override") is None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(regroot, "solve_regularized", counting)
        report = run_experiment(cfg, tmp_path)
        monkeypatch.undo()
        noisy_solves = 2 * len(rule.get("epsilons", [None]))
        assert (solves.count(True), solves.count(False)) == (clean_solves, noisy_solves)

        # reference: a cold clean solve in every cell, and the noisy root warm from it
        problem = corpus.problem_from_dict(cfg["problem"])
        slack = flow.GAP_SLACK
        rows = []
        for i, delta in enumerate(cfg["deltas"]):
            f_noisy = corpus.add_noise(problem.data, delta, cfg["seed"] + i)
            epsilons = rule["epsilons"] if "epsilons" in rule else [delta ** rule["b_exp"]]
            for eps in epsilons:
                v = solve(problem, eps)
                w = solve(problem, eps, f_override=f_noisy, init=v.v)
                rows.append([delta, eps, norm(w.v - v.v), slack * delta / eps])
            if "b_exp" in rule:
                stop = flow.solve_noisy_to_stopping(problem, f_noisy, delta, rule["b_exp"])
                g0 = stop.trajectory.residuals[0]
                y = regroot.minimal_norm_solution(problem)
                rows[-1] += [norm(stop.w_final - w.v), slack * g0 * eps, norm(stop.w_final - y)]
        reference = {"table": {"columns": report["table"]["columns"], "rows": rows}}
        assert (tmp_path / "noise.csv").read_text() == emit_table(reference, "csv")

    def test_noise_stopping_errors_decrease(self, tmp_path):
        report = run_experiment(load_config("noise-study.json"), tmp_path)
        by_name = {
            c["check"]: c for run in report["runs"] for c in run["checks"]
        }
        assert by_name["noise-convergence"]["pass"]
        # errors must strictly decrease, so the bound is the largest double below 1
        assert by_name["noise-convergence"]["bound"] == math.nextafter(1.0, 0.0)
        assert by_name["noise-convergence"]["bound"] < 1.0
        assert by_name["noisy-stopping-gap"]["observed"] <= 1.05

    def test_noise_gap_observes_the_linear_gap_ratio(self, tmp_path):
        # on a linear problem the noisy and clean roots differ by
        # (A + eps I)^{-1} (f_delta - f), solved here by numpy alone
        cfg = {
            "kind": "noise-study",
            "problem": {"corpus": "psd-singular-linear", "dim": 50},
            "deltas": [0.01, 0.001],
            "epsilons": [0.1, 0.01, 0.001],
        }
        report = run_experiment(cfg, tmp_path)
        (check,) = report["runs"][0]["checks"]
        assert check["check"] == "noise-gap"
        problem = corpus.problem_from_dict(cfg["problem"])
        a = problem.jacobian(np.zeros(problem.dim))
        ratios = []
        for i, delta in enumerate(cfg["deltas"]):
            shift = corpus.add_noise(problem.data, delta, i) - problem.data
            for eps in cfg["epsilons"]:
                gap = norm(np.linalg.solve(a + eps * np.eye(problem.dim), shift))
                ratios.append(gap * eps / delta)
        assert check["observed"] == pytest.approx(max(ratios), rel=1e-9)

    @pytest.mark.parametrize("eps", [0.01, 0.1])
    def test_flow_limit_gap_observes_the_linear_flow_ratio(self, tmp_path, eps):
        # from u0 = 0 a linear flow is u(t) = (1 - exp(-t)) V, so at every t
        # |u(t) - V| eps / (g0 exp(-t)) is eps |V| / |f|
        cfg = {
            "kind": "flow",
            "problem": {"corpus": "psd-singular-linear", "dim": 50},
            "epsilon": eps,
        }
        report = run_experiment(cfg, tmp_path)
        checks = {c["check"]: c for c in report["runs"][0]["checks"]}
        problem = corpus.problem_from_dict(cfg["problem"])
        a = problem.jacobian(np.zeros(problem.dim))
        v = np.linalg.solve(a + eps * np.eye(problem.dim), problem.data)
        expected = eps * norm(v) / norm(problem.data)
        assert checks["flow-limit-gap"]["observed"] == pytest.approx(expected, rel=1e-9)


class TestCliEntryPoint:
    def test_python_m_dsm_runs_without_warnings(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "dsm", "iterate",
             "--config", str(CONFIGS / "iterate.json"), "--out", str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert (tmp_path / "report.json").exists()

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
        # a geometric schedule does not keep eps_n >= 2c g_n, so recursion-step fails
        code, out, err = self.run(
            capsys, "iterate", "--config", str(CONFIGS / "iterate.json"), "--out", str(tmp_path),
            "--set", 'schedule={"kind": "geometric", "eps0": 0.1, "ratio": 0.5}',
            "--set", "record_roots=true",
        )
        assert code == 1
        assert "[FAIL] recursion-step" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert not report["checks_pass"]

    def test_flow_at_its_caps_fails_residual_decay_without_a_warning(self, tmp_path, capsys):
        # g(0) exp(-1000) underflows; dividing by its subnormal neighbours warned
        code, out, err = self.run(
            capsys, "flow", "--config", str(CONFIGS / "flow.json"), "--out", str(tmp_path),
            "--set", "t_end=1000", "--set", "checkpoints=1000",
        )
        assert (code, err) == (1, "")
        assert "[FAIL] residual-decay: observed inf" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert not report["checks_pass"]

    def test_caps_run_writes_strict_json(self, tmp_path, capsys):
        # RFC 8259 has no Infinity: a non-finite float is written as a string
        code, out, _ = self.run(
            capsys, "flow", "--config", str(CONFIGS / "flow.json"), "--out", str(tmp_path),
            "--set", "t_end=1000", "--set", "checkpoints=1000",
        )
        assert code == 1
        assert "observed inf vs bound 0.001 (margin -inf)" in out
        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=refuse)
        decay = next(c for c in report["runs"][0]["checks"] if c["check"] == "residual-decay")
        assert (decay["observed"], decay["bound"], decay["margin"]) == ("inf", 0.001, "-inf")

    @pytest.mark.filterwarnings("error")
    def test_overflowed_lemma_sim_fails_induction_chain(self, tmp_path, capsys):
        # b = 1e308 overflows the sequences; the NaN excess read as a pass after four warnings
        code, out, err = self.run(
            capsys, "lemma-sim", "--config", str(CONFIGS / "lemma-sim.json"), "--out", str(tmp_path),
            "--set", "a=0.1", "--set", "b=1e308", "--set", "horizon=10",
        )
        assert (code, err) == (1, "")
        assert "[FAIL] induction-chain: observed nan" in out
        run = json.loads((tmp_path / "report.json").read_text(), parse_constant=refuse)["runs"][0]
        assert [(c["check"], c["observed"], c["pass"]) for c in run["checks"]] == [
            ("induction-chain", "nan", False)
        ]
        assert run["metrics"]["final_value"] == "inf"

    def test_far_start_fails_taylor_remainder(self, tmp_path, capsys):
        # from |u0| = 316 the steps leave the ball cubic-monotone's m2_bound holds on
        code, out, _ = self.run(
            capsys, "iterate", "--config", str(CONFIGS / "iterate.json"), "--out", str(tmp_path),
            "--set", "u0=[100,-100,100,-100,100,-100,100,-100,100,-100]",
        )
        assert code == 1
        assert "[pass] recursion-step" in out
        assert "[pass] monotone-pairing" in out
        assert "[FAIL] taylor-remainder" in out
        run = json.loads((tmp_path / "report.json").read_text())["runs"][0]
        failed = [c["check"] for c in run["checks"] if not c["pass"]]
        assert failed == ["taylor-remainder"]
        assert run["metrics"]["curvature_ratio"] == pytest.approx(3.15, abs=0.01)

    def test_cubic_radius_exits_two(self, tmp_path, capsys):
        code, _, err = self.run(
            capsys, "iterate", "--config", str(CONFIGS / "iterate.json"), "--out", str(tmp_path),
            "--set", "problem.radius=5",
        )
        assert code == 2
        assert "unknown corpus options ['radius']" in err
        assert not (tmp_path / "report.json").exists()

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

    @pytest.mark.parametrize(
        "given, shown",
        [("[1, 3, 1]", "is not minimal-norm"), ("[1, 2, 0]", "does not reproduce the data")],
    )
    def test_wrong_known_solution_exits_two(self, tmp_path, capsys, given, shown):
        problem = ('{"linear": {"matrix": [[2, 0, 0], [0, 1, 0], [0, 0, 0]], "data": [2, 3, 0], '
                   f'"known_solution": {given}}}}}')
        code, _, err = self.run(
            capsys, "reg-path", "--config", str(CONFIGS / "reg-path.json"),
            "--out", str(tmp_path), "--set", f"problem={problem}",
        )
        assert code == 2
        assert f"known_solution {shown}" in err

    # the problem each kind would build, at a size whose build takes a second
    BIG_PROBLEM = {
        "flow": '{"corpus": "cubic-monotone", "dim": 2000}',
        "iterate": '{"corpus": "cubic-monotone", "dim": 2000}',
        "reg-path": '{"corpus": "psd-singular-linear", "dim": 2000}',
        "noise-study": '{"corpus": "psd-singular-linear", "dim": 2000}',
    }
    GRID = ["--set", "b_exp=null"]  # noise-study's grid mode, with the epsilons given

    @pytest.mark.parametrize(
        "kind, args, shown",
        [
            ("flow", ["--set", "rtol=0"],
             "experiment 'flow' rtol must be a positive finite real, got 0.0"),
            ("flow", ["--set", "checkpoints=0"],
             "experiment 'flow' checkpoints must be an integer in [1, 1000], got 0"),
            ("flow", ["--set", "epsilon=2"], "epsilon must lie in (0, 1), got 2.0"),
            ("flow", ["--set", "t_end=0"],
             "experiment 'flow' t_end must be a positive finite real, got 0.0"),
            ("flow", ["--set", "t_end=5", "--set", "epsilon=-1"],
             "experiment 'flow' epsilon must be a positive finite real, got -1.0"),
            ("flow", ["--seed", "-1"],
             "experiment 'flow' seed must be a non-negative integer, got -1"),
            ("iterate", ["--set", "max_n=0"],
             "experiment 'iterate' max_n must be an integer in [1, 10000], got 0"),
            ("iterate", ["--set", "stop_residual=-1"],
             "experiment 'iterate' stop_residual must be a finite non-negative real, got -1.0"),
            ("iterate", ["--set", 'schedule={"kind": "geometric", "eps0": 0.1, "ratio": 2}'],
             "ratio must lie in (0, 1), got 2.0"),
            ("iterate", ["--set", 'step_rule={"kind": "constant_h", "h": 2}'],
             "step size h must lie in (0, 1], got 2.0"),
            ("reg-path", ["--set", "epsilons=[0.1, 0.2]"],
             "experiment 'reg-path' epsilons must be strictly decreasing, got [0.1, 0.2]"),
            ("reg-path", ["--set", "epsilons=[]"],
             "experiment 'reg-path' epsilons must be a non-empty sequence, got []"),
            ("reg-path", ["--set", "epsilons=[[0.1], [0.2, 0.3]]"],
             "experiment 'reg-path' epsilons entry must be a number, got [0.1]"),
            ("noise-study", ["--set", "deltas=[]"],
             "experiment 'noise-study' deltas must be a non-empty list, got []"),
            ("noise-study", ["--set", "deltas=[0.1, 1.5]"],
             "experiment 'noise-study' deltas entry must lie in (0, 1), got 1.5"),
            ("noise-study", ["--set", "epsilons=[0.1]"], "provide exactly one of"),
            ("noise-study", ["--set", "deltas=[0.001, 0.01]"], "deltas must be strictly decreasing"),
            ("noise-study", ["--set", "b_exp=1.5"],
             "experiment 'noise-study' b_exp must lie in (0, 1), got 1.5"),
            ("noise-study", ["--set", "rtol=0"],
             "experiment 'noise-study' rtol must be a positive finite real, got 0.0"),
            ("noise-study", ["--set", "checkpoints=0"],
             "experiment 'noise-study' checkpoints must be an integer in [1, 1000], got 0"),
            ("noise-study", ["--seed", "-1"],
             "experiment 'noise-study' seed must be a non-negative integer, got -1"),
            ("noise-study", ["--set", "epsilons=[]", *GRID],
             "experiment 'noise-study' epsilons must be a non-empty list, got []"),
            ("noise-study", ["--set", "epsilons=[0.1, 0.0]", *GRID],
             "experiment 'noise-study' epsilons entry must be a positive finite real, got 0.0"),
            ("noise-study", ["--set", "epsilons=[0.1, -0.01]", *GRID],
             "experiment 'noise-study' epsilons entry must be a positive finite real, got -0.01"),
            ("noise-study", ["--set", "epsilons=[0.1]", *GRID, "--set", "rtol=0"],
             "experiment 'noise-study' rtol must be a positive finite real, got 0.0"),
            ("noise-study", ["--set", "epsilons=[0.1]", *GRID, "--set", "checkpoints=0"],
             "experiment 'noise-study' checkpoints must be an integer in [1, 1000], got 0"),
        ],
        ids=["flow-rtol", "flow-checkpoints", "flow-epsilon", "flow-t-end",
             "flow-epsilon-with-t-end", "flow-seed", "iterate-max-n", "iterate-stop-residual",
             "iterate-ratio", "iterate-h", "reg-path-increasing", "reg-path-no-eps",
             "reg-path-ragged", "noise-no-delta", "noise-delta-outside",
             "noise-both-rules", "noise-increasing", "noise-b-exp-outside",
             "noise-rtol", "noise-checkpoints", "noise-seed", "grid-no-eps", "grid-zero-eps",
             "grid-negative-eps", "grid-rtol", "grid-checkpoints"],
    )
    def test_refused_field_builds_no_problem(
        self, tmp_path, capsys, monkeypatch, kind, args, shown
    ):
        # each was refused only after the d2000 build, or not at all
        builds = []
        monkeypatch.setattr(corpus, "problem_from_dict", builds.append)
        code, _, err = self.run(
            capsys, kind, "--config", str(CONFIGS / f"{kind}.json"), "--out", str(tmp_path),
            "--set", f"problem={self.BIG_PROBLEM[kind]}", *args,
        )
        assert code == 2
        assert shown in err
        assert builds == []

    def test_negative_problem_seed_is_refused_by_name(self, tmp_path, capsys):
        code, _, err = self.run(
            capsys, "flow", "--config", str(CONFIGS / "flow.json"), "--out", str(tmp_path),
            "--set", "problem.seed=-1",
        )
        assert code == 2
        assert "seed must be a non-negative integer, got -1" in err

    @pytest.mark.parametrize(
        "kind, setting, shown",
        [
            ("lemma-sim", "a=0.7", "weights a must lie in (0, 0.5], got a[0] = 0.7"),
            ("lemma-sim", 'b={"kind": "power", "scale": -1, "exponent": 1}',
             "perturbations b must be non-negative, got b[0] = -1.0"),
            ("flow", "problem.dim=0", "dim must be an integer in [3, 2000], got 0"),
            ("flow", "problem.dim=2", "dim must be an integer in [3, 2000], got 2"),
            ("flow", "problem.dim=2001", "dim must be an integer in [3, 2000], got 2001"),
            ("flow", 'problem={"corpus": "hilbert-psd", "dim": 0}',
             "dim must be an integer in [1, 2000], got 0"),
            # the value as given, not the 301 digits of int(1e300)
            ("flow", "problem.dim=1e300", "dim must be an integer in [3, 2000], got 1e+300"),
            ("flow", "problem.dim=40.5", "dim must be an integer in [3, 2000], got 40.5"),
        ],
        ids=["lemma-a", "lemma-b", "dim-0", "dim-2", "dim-2001", "hilbert-dim-0", "dim-1e300",
             "dim-40.5"],
    )
    def test_refusal_shows_the_value_and_its_range(self, tmp_path, capsys, kind, setting, shown):
        code, _, err = self.run(
            capsys, kind, "--config", str(CONFIGS / f"{kind}.json"), "--out", str(tmp_path),
            "--set", setting,
        )
        assert code == 2
        assert err == f"dsm: invalid configuration: {shown}\n"

    def test_data_outside_the_range_exits_two_before_any_solve(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a shifted solve ran on a problem with no solution")

        monkeypatch.setattr(regroot, "reg_solve", no_solve)
        code, _, err = self.run(
            capsys, "reg-path", "--config", str(CONFIGS / "reg-path.json"),
            "--out", str(tmp_path), "--set",
            'problem={"linear": {"matrix": [[1, 0], [0, 0]], "data": [1, 1]}}',
        )
        assert code == 2
        assert "known_solution does not reproduce the data (residual 1.000e+00)" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "kind, knob",
        [("flow", "atol=1e-10"), ("noise-study", "atol=1e-10"), ("reg-path", "newton_tol=1e-12")],
    )
    def test_removed_tolerance_knobs_exit_two(self, tmp_path, capsys, kind, knob):
        code, _, err = self.run(
            capsys, kind, "--config", str(CONFIGS / f"{kind}.json"),
            "--out", str(tmp_path), "--set", knob,
        )
        assert code == 2
        assert f"unknown experiment {kind!r} options ['{knob.split('=')[0]}']" in err

    # each only moved a check's bound, which is now a constant of the check's module;
    # even the old default is refused
    @pytest.mark.parametrize(
        "kind, field, old_default",
        [
            ("flow", "decay_tol", 1e-3), ("flow", "slack", 1.05), ("iterate", "slack", 1e-8),
            ("reg-path", "norm_slack", 1e-8), ("reg-path", "inner_slack", 1e-9),
            ("noise-study", "slack", 1.05), ("lemma-sim", "slack", 1e-12),
        ],
    )
    def test_retired_bound_fields_exit_two(self, tmp_path, capsys, kind, field, old_default):
        code, _, err = self.run(
            capsys, kind, "--config", str(CONFIGS / f"{kind}.json"),
            "--out", str(tmp_path), "--set", f"{field}={old_default}",
        )
        assert code == 2
        assert f"unknown experiment {kind!r} options ['{field}']" in err
        assert not (tmp_path / "report.json").exists()

    def test_numerical_failure_exits_three(self, tmp_path, capsys):
        config = tmp_path / "singular.json"
        config.write_text(json.dumps(SINGULAR_REG_PATH))
        code, _, err = self.run(
            capsys, "reg-path", "--config", str(config), "--out", str(tmp_path / "out")
        )
        assert code == 3
        assert "numerical failure" in err
        assert "residual 3.179e-06 > tolerance 1.646e-09" in err

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
        assert csv_out.splitlines()[0] == "n,simulated,unrolled_bound,majorant"

        code, quiet, _ = self.run(
            capsys, "lemma-sim", "--config", str(CONFIGS / "lemma-sim.json"),
            "--out", str(tmp_path / "none"), "--table", "none",
        )
        assert "simulated" not in quiet


class TestTableWrittenOnce:
    # the summary table is the kind's CSV artifact
    TABLE_CSV = {
        "flow": "flow.csv",
        "iterate": "history.csv",
        "reg-path": "path.csv",
        "noise-study": "noise.csv",
        "lemma-sim": "sequences.csv",
    }

    @pytest.mark.parametrize("kind", list(TABLE_CSV))
    def test_report_has_no_table_and_the_csv_is_its_only_copy(self, kind, tmp_path, capsys):
        report = run_experiment(load_config(f"{kind}.json"), tmp_path / "lib")
        written = json.loads((tmp_path / "lib" / "report.json").read_text())
        assert "table" not in written
        assert {k: v for k, v in report.items() if k != "table"} == written
        csv_text = emit_table(report, "csv")
        csv_name = self.TABLE_CSV[kind]
        assert (tmp_path / "lib" / csv_name).read_text() == csv_text

        code = main([kind, "--config", str(CONFIGS / f"{kind}.json"),
                     "--out", str(tmp_path / "cli"), "--table", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out[:len(csv_text)] == csv_text
        assert out[len(csv_text):].startswith(f"{kind}: ")
        assert (tmp_path / "cli" / csv_name).read_text() == csv_text

    def test_lemma_sim_reports_only_its_chain(self, tmp_path):
        report = run_experiment(load_config("lemma-sim.json"), tmp_path)
        (run,) = report["runs"]
        assert set(run["metrics"]) == {"horizon", "final_value"}
        assert [c["check"] for c in run["checks"]] == ["induction-chain"]
        header = (tmp_path / "sequences.csv").read_text().splitlines()[0]
        assert header == "n,simulated,unrolled_bound,majorant"

    def test_lemma_sim_runs_a_single_step(self, tmp_path, capsys):
        code = main(["lemma-sim", "--config", str(CONFIGS / "lemma-sim.json"),
                     "--out", str(tmp_path), "--table", "none", "--set", "horizon=1"])
        assert code == 0
        rows = (tmp_path / "sequences.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "1"]

    def test_lemma_sim_report_stays_small_at_horizon_3000(self, tmp_path):
        # the path-certify workload's lemma-sim: 3001 table rows, none in report.json
        run_experiment({**load_config("lemma-sim.json"), "horizon": 3000}, tmp_path)
        assert (tmp_path / "report.json").stat().st_size < 8 * 1024
        assert len((tmp_path / "sequences.csv").read_text().splitlines()) == 3002


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


def field_summary() -> dict:
    """README's field summary as ``{bullet head: text}``, the head being the
    backticked kind, ``problem`` or ``every kind``."""
    text = README.read_text().split("Field summary", 1)[1].split("\n###", 1)[0]
    bullets = {}
    for bullet in text.split("\n- ")[1:]:
        head, body = bullet.split(":", 1)
        bullets[head.strip("`")] = " ".join(body.split())
    return bullets


def documented(text: str) -> dict:
    """Each backticked name in ``text`` mapped to the JSON literal that opens
    the parentheses after its first mention; ``None`` when none does."""
    out = {}
    for name, paren in re.findall(r"`(\w+)`(?: \(([^:;)]*))?", text):
        try:
            value = (json.loads(paren),)
        except ValueError:
            value = None
        out.setdefault(name, value)
    return out


class TestReadmeFieldSummary:
    """The field summary lists every field of each kind's table with its default."""

    def check(self, fields: dict, text: str, where: str):
        shown = documented(text)
        for key, (_, default, *_) in fields.items():
            assert key in shown, f"{where}: {key} is not documented"
            if default is REQUIRED or default is OPTIONAL:
                assert shown[key] is None, f"{where}: {key} has no default, README gives one"
            else:
                assert shown[key] is not None, f"{where}: {key} lacks its default ({default!r})"
                (value,) = shown[key]
                assert value == default and isinstance(value, bool) == isinstance(default, bool), (
                    f"{where}: {key} defaults to {default!r}, README says {value!r}"
                )
        extra = [k for k, v in shown.items() if v is not None and k not in fields]
        assert not extra, f"{where}: README gives defaults for unknown fields {extra}"

    def test_every_kind_matches_its_field_table(self):
        bullets = field_summary()
        assert set(bullets) == {*_EXPERIMENTS, "every kind", "problem"}
        self.check({"seed": (_seed, 0)}, bullets["every kind"], "every kind")
        for kind, (_, fields, _) in _EXPERIMENTS.items():
            assert fields["seed"] == (_seed, 0), kind
            rest = {k: v for k, v in fields.items() if k != "seed"}
            self.check(rest, bullets[kind], kind)

    def test_linear_problem_matches_its_field_table(self):
        linear = field_summary()["problem"].split("linear", 1)[1]
        self.check(corpus._LINEAR_FIELDS, linear, "linear problem")
