import os
import subprocess
import sys
from pathlib import Path

import dsm

ROOT = Path(__file__).resolve().parents[1]

# the public surface: every layer's __all__, the runner's three names, and
# the version
PUBLIC = {
    "ChainReport", "Check", "FlowResult", "IterationHistory", "IterationStep",
    "MAX_DIM", "NumericalFailure",
    "ProblemInstance", "RecursionReport", "RegPathEntry", "RegPathResult", "RegRoot",
    "RegSolveReport", "Schedule", "StepBoundRecord", "StepRule", "StoppingResult",
    "__version__", "add_noise", "apply_operator", "as_matrix", "as_vector",
    "check_bound_chain", "check_flow", "check_path", "default_newton_tol", "emit_table",
    "exponential_majorant", "geometric_weighted_sum", "inner",
    "integrate_flow", "jacobian", "main", "make_cubic_monotone", "make_hilbert_psd",
    "make_problem", "make_psd_singular_linear", "make_random_monotone",
    "minimal_norm_solution", "norm", "problem_from_dict", "reg_solve",
    "regularization_path", "run_experiment", "run_iteration",
    "simulate_recursion", "solve_noisy_to_stopping", "solve_regularized",
    "solve_to_stopping", "stopping_time", "unrolled_bound",
    "verify_step_recursion",
}


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True
    )


def test_public_names_are_unchanged():
    assert len(dsm.__all__) == len(PUBLIC) == 52
    assert set(dsm.__all__) == PUBLIC
    for name in dsm.__all__:
        assert getattr(dsm, name) is not None, name


def test_runner_names_import_from_the_package():
    from dsm import cli, emit_table, main, run_experiment

    assert (main, run_experiment, emit_table) == (cli.main, cli.run_experiment, cli.emit_table)


def test_import_leaves_the_runner_unloaded():
    proc = _python("-c", "import sys, dsm; print('dsm.cli' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_python_m_dsm_cli_runs_under_w_error(tmp_path):
    proc = _python(
        "-W", "error", "-m", "dsm.cli", "iterate",
        "--config", str(ROOT / "configs" / "iterate.json"), "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
