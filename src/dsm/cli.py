"""Experiment runner: configure a study, run it, emit report and tables.

Five experiment kinds cover the library surface: ``flow`` integrates the
regularized Newton flow and checks the residual decay law plus the gap
bounds, ``iterate`` runs the discrete iteration and the step recursion
check, ``reg-path`` walks a regularization path and checks the
minimal-norm inequalities, ``noise-study`` sweeps noise levels against
the perturbation bounds, and ``lemma-sim`` exercises the scalar
recursion certificates.

Configuration is one JSON file per run; ``--set key=value`` flags
override individual fields and ``--seed`` overrides the seed.  Every run
writes ``report.json`` (fully deterministic for a fixed config and seed:
wall-clock times go to a ``timing.json`` sidecar instead) plus CSV
artifacts, and prints a summary table.  Exit status: 0 when every
enabled bound check passes, 1 when one fails, 2 for invalid
configuration, 3 for numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import corpus, flow, iterate, recursion, regroot
from .flow import MAX_CHECKPOINTS
from .problem import (
    _TINY, OPTIONAL, REQUIRED, Check, NumericalFailure, _as_count, _coerce, _in_unit_interval,
    _non_negative, _positive, _seed, norm,
)

__all__ = ["run_experiment", "emit_table", "main"]


def _check(c: Check) -> dict:
    """The report row of one bound check."""
    return {
        "check": c.name,
        "observed": float(c.observed),
        "bound": float(c.bound),
        "margin": float(c.bound) - float(c.observed),
        "pass": c.passed,
    }


# ---------------------------------------------------------------------------
# flow


def _run_flow(cfg: dict, out_dir: Path):
    eps = cfg["epsilon"]
    at_stopping = cfg["t_end"] is None
    t_end = flow.stopping_time(eps) if at_stopping else cfg["t_end"]
    problem = corpus.problem_from_dict(cfg["problem"])
    traj = flow.integrate_flow(
        problem, eps, t_end, checkpoints=cfg["checkpoints"], u0=cfg["u0"], rtol=cfg["rtol"]
    )
    # the root at s = exp(-t) = 0, started from the flow's curve extrapolated there
    tail = [(math.exp(-t), u) for t, u in zip(traj.times[-3:], traj.states[-3:])]
    root = regroot.solve_regularized(problem, eps, init=regroot._predict(tail, 0.0))
    rows, checks = flow.check_flow(traj, root.v, cfg["slack"], cfg["decay_tol"], at_stopping)

    _write_trajectory(out_dir / "trajectory.csv", traj)
    run = {
        "label": "flow",
        "metrics": {
            "epsilon": eps,
            "t_end": t_end,
            "g0": float(traj.residuals[0]),
            "final_residual": float(traj.residuals[-1]),
            "final_root_gap": rows[-1][3],
            "accepted_steps": traj.accepted,
            "rejected_steps": traj.rejected,
            "rhs_evals": traj.rhs_evals,
            "root_newton_iters": root.newton_iters,
        },
        "checks": checks,
        "artifacts": ["trajectory.csv", "flow.csv"],
    }
    table = {
        "columns": ["t", "residual", "model_residual", "root_gap", "gap_bound"],
        "rows": rows,
    }
    return [run], table, problem


# ---------------------------------------------------------------------------
# iterate


def _run_iterate(cfg: dict, out_dir: Path):
    schedule = _build(_SCHEDULES, cfg["schedule"])
    step_rule = _build(_STEP_RULES, cfg["step_rule"])
    problem = corpus.problem_from_dict(cfg["problem"])
    history = iterate.run_iteration(
        problem, schedule, step_rule, cfg["max_n"], u0=cfg["u0"],
        stop_residual=cfg["stop_residual"], record_roots=cfg["record_roots"],
    )
    tracked = history.steps[0].gap is not None
    checks = []
    if tracked and len(history.steps) >= 2:
        checks.append(iterate.verify_step_recursion(problem, history, slack=cfg["slack"]))
    rows = [
        [s.index, s.epsilon, s.h, s.residual, s.gap, s.root_gap] for s in history.steps
    ]
    run = {
        "label": "iterate",
        "metrics": {
            "steps_taken": len(history.steps) - 1,
            "converged": history.converged,
            "final_residual": float(history.steps[-1].residual),
            "final_gap": None if not tracked else float(history.steps[-1].gap),
        },
        "checks": checks,
        "artifacts": ["history.csv"],
    }
    table = {
        "columns": ["n", "eps_n", "h_n", "residual_n", "oracle_g_n", "oracle_b_n"],
        "rows": rows,
    }
    return [run], table, problem


# ---------------------------------------------------------------------------
# reg-path


def _run_reg_path(cfg: dict, out_dir: Path):
    problem = corpus.problem_from_dict(cfg["problem"])
    path = regroot.regularization_path(problem, cfg["epsilons"])
    y = problem.known_solution

    rows = []
    for i, entry in enumerate(path.entries):
        gap = path.root_gaps[i] if i < len(path.root_gaps) else None
        rows.append([entry.epsilon, entry.v_norm, entry.error_to_y, gap])

    checks = [] if y is None else regroot.check_path(
        path, y, cfg["norm_slack"], cfg["inner_slack"]
    )

    run = {
        "label": "reg-path",
        "metrics": {
            "entries": len(path.entries),
            "final_epsilon": path.entries[-1].epsilon,
            "final_v_norm": path.entries[-1].v_norm,
            "final_error": path.entries[-1].error_to_y,
            "min_norm_available": y is not None,
            "all_converged": all(e.root.converged for e in path.entries),
        },
        "checks": checks,
        "artifacts": ["path.csv"],
    }
    table = {
        "columns": ["eps", "v_norm", "err_to_min_norm", "root_gap"],
        "rows": rows,
    }
    return [run], table, problem


# ---------------------------------------------------------------------------
# noise-study


def _run_noise_study(cfg: dict, out_dir: Path):
    deltas, b_exp, slack = cfg["deltas"], cfg["b_exp"], cfg["slack"]
    stopping = b_exp is not None
    if stopping == (cfg["epsilons"] is not None):
        raise ValueError("provide exactly one of 'epsilons' (grid) or 'b_exp' (stopping rule)")
    columns = ["delta", "eps", "root_gap", "gap_bound"]
    if stopping:
        if any(b >= a for a, b in zip(deltas, deltas[1:])):
            raise ValueError("deltas must be strictly decreasing for the stopping study")
        columns += ["stop_gap", "stop_bound", "err_at_stop"]
    problem = corpus.problem_from_dict(cfg["problem"])
    y = regroot.minimal_norm_solution(problem) if stopping else None

    clean = {}  # eps -> clean regularized root, solved cold once per distinct eps
    runs = []
    rows = []
    max_ratio = 0.0
    max_stop_ratio = 0.0
    errors = []
    for i, delta in enumerate(deltas):
        f_noisy = corpus.add_noise(problem.data, delta, cfg["seed"] + i)
        epsilons = cfg["epsilons"]
        if stopping:
            result = flow.solve_noisy_to_stopping(
                problem, f_noisy, delta, b_exp, checkpoints=cfg["checkpoints"], rtol=cfg["rtol"]
            )
            epsilons = [result.trajectory.epsilon]
        for eps in epsilons:
            if eps not in clean:
                clean[eps] = regroot.solve_regularized(problem, eps).v
            w = regroot.solve_regularized(problem, eps, f_override=f_noisy, init=clean[eps]).v
            gap = norm(w - clean[eps])
            rows.append([delta, eps, gap, slack * delta / eps])
            max_ratio = max(max_ratio, gap * eps / delta)
        if stopping:
            # the stopping rule's list holds one eps, so w and rows[-1] belong to it
            g0d = float(result.trajectory.residuals[0])
            stop_gap = norm(result.w_final - w)
            err = norm(result.w_final - y)
            errors.append(err)
            rows[-1] += [stop_gap, slack * g0d * eps, err]
            max_stop_ratio = max(max_stop_ratio, flow._stopping_ratio(stop_gap, g0d, eps))
            traj_name = f"trajectory-{i:02d}.csv"
            _write_trajectory(out_dir / traj_name, result.trajectory)
            runs.append(
                {
                    "label": f"delta-{i:02d}",
                    "metrics": {
                        "delta": delta,
                        "epsilon": eps,
                        "g0_noisy": g0d,
                        "err_at_stop": err,
                    },
                    "checks": [],
                    "artifacts": [traj_name, "noise.csv"],
                }
            )

    checks = [Check("noise-gap", max_ratio, slack)]
    metrics = {"cells": len(rows), "max_gap_ratio": max_ratio}
    if stopping:
        checks.append(Check("noisy-stopping-gap", max_stop_ratio, slack))
        if len(errors) >= 2:
            # errors must strictly decrease: the bound is the largest double below 1
            worst = max(nxt / max(prev, _TINY) for prev, nxt in zip(errors, errors[1:]))
            checks.append(Check("noise-convergence", worst, math.nextafter(1.0, 0.0)))
        metrics = {
            "b_exp": b_exp,
            "errors_at_stop": errors,
        }
    runs.append(
        {
            "label": "noise-sweep" if stopping else "noise-grid",
            "metrics": metrics,
            "checks": checks,
            "artifacts": ["noise.csv"],
        }
    )
    table = {"columns": columns, "rows": rows}
    return runs, table, problem


# ---------------------------------------------------------------------------
# lemma-sim


def _sequence(spec, horizon: int, name: str) -> np.ndarray:
    if isinstance(spec, float):
        return np.full(horizon, spec)
    if isinstance(spec, list):
        if len(spec) < horizon:
            raise ValueError(f"{name} supplies {len(spec)} terms but horizon is {horizon}")
        return np.asarray(spec[:horizon])
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite terms are rejected later
        return _build(_SEQUENCES, spec, np.arange(1, horizon + 1, dtype=float))


def _run_lemma_sim(cfg: dict, out_dir: Path):
    horizon = cfg["horizon"]
    a = _sequence(cfg["a"], horizon, "a")
    b = _sequence(cfg["b"], horizon, "b")
    chain = recursion.check_bound_chain(cfg["g1"], a, b, slack=cfg["slack"])
    rows = [
        list(row) for row in zip(
            range(horizon + 1),
            chain.simulated.tolist(), chain.unrolled.tolist(), chain.majorant.tolist(),
        )
    ]
    run = {
        "label": "lemma-sim",
        "metrics": {"horizon": horizon, "final_value": float(chain.simulated[-1])},
        "checks": [chain],
        "artifacts": ["sequences.csv"],
    }
    table = {"columns": ["n", "simulated", "unrolled_bound", "majorant"], "rows": rows}
    return [run], table, None


# ---------------------------------------------------------------------------
# assembly


# Size caps only the runner applies, checked before anything they size is
# allocated; the library caps dim, checkpoints and max_n itself.
MAX_HORIZON = 100_000  # lemma-sim writes horizon + 1 CSV rows once: 7.4 MB, 87 MB peak RSS
MAX_T_END = 1000.0  # the model residual g(0) exp(-t) underflows past t = 745

# Field tables: key -> (type, default) or (type, default, cap), read by
# problem._parse.  A type may be a library checker, the field's whole range
# rule.  A variant table {kind: (constructor, fields)} is itself a type: a
# mapping whose "kind" picks the constructor and its fields.
_SCHEDULES = {
    "constant": (iterate.Schedule.constant, {"epsilon": (float, REQUIRED)}),
    "geometric": (
        iterate.Schedule.geometric,
        {"eps0": (float, REQUIRED), "ratio": (float, REQUIRED), "floor": (float, OPTIONAL)},
    ),
    "oracle": (iterate.Schedule.oracle, {"floor": (float, OPTIONAL)}),
}
_STEP_RULES = {
    "constant_p": (iterate.StepRule.constant_p, {"p": (float, REQUIRED)}),
    "constant_h": (iterate.StepRule.constant_h, {"h": (float, REQUIRED)}),
    "explicit": (lambda h: iterate.StepRule.explicit(h), {"h": ([float], REQUIRED)}),
}
# lemma-sim generators, evaluated at k = 1..horizon
_SEQUENCES = {
    "power": (
        lambda k, exponent, scale=1.0: scale * k ** (-exponent),
        {"scale": (float, OPTIONAL), "exponent": (float, REQUIRED)},
    ),
    "geometric": (
        lambda k, ratio, scale=1.0: scale * ratio**k,
        {"scale": (float, OPTIONAL), "ratio": (float, REQUIRED)},
    ),
}
_FLOW_TOLERANCES = {
    "checkpoints": (_as_count, 10, MAX_CHECKPOINTS),
    "rtol": (_positive, 1e-8),
}
_FLOW_FIELDS = {
    "problem": (dict, REQUIRED),
    "epsilon": (_positive, 1e-2),
    "t_end": ((_positive, None), None, MAX_T_END),
    **_FLOW_TOLERANCES,
    "decay_tol": (_non_negative, 1e-3),
    "slack": (_non_negative, 1.05),
    "u0": (([float], None), None),
    "seed": (_seed, 0),
}
_ITERATE_FIELDS = {
    "problem": (dict, REQUIRED),
    "schedule": (_SCHEDULES, REQUIRED),
    "step_rule": (_STEP_RULES, REQUIRED),
    "max_n": (_as_count, 60, iterate.MAX_STEPS),
    "stop_residual": ((_non_negative, None), None),
    "record_roots": (bool, False),
    "slack": (_non_negative, 1e-8),
    "u0": (([float], None), None),
    "seed": (_seed, 0),
}
_REG_PATH_FIELDS = {
    "problem": (dict, REQUIRED),
    "epsilons": (regroot._eps_grid, REQUIRED),
    "norm_slack": (_non_negative, 1e-8),
    "inner_slack": (_non_negative, 1e-9),
    "seed": (_seed, 0),
}
_NOISE_STUDY_FIELDS = {
    "problem": (dict, REQUIRED),
    "deltas": ([_in_unit_interval], REQUIRED),
    "epsilons": (([_positive], None), None),
    "b_exp": ((_in_unit_interval, None), None),
    "slack": (_non_negative, 1.05),
    **_FLOW_TOLERANCES,
    "seed": (_seed, 0),
}
_LEMMA_SIM_FIELDS = {
    "a": ((float, [float], _SEQUENCES), REQUIRED),
    "b": ((float, [float], _SEQUENCES), REQUIRED),
    "horizon": (_as_count, REQUIRED, MAX_HORIZON),
    "g1": (_non_negative, 1.0),
    "slack": (_non_negative, 1e-12),
    "seed": (_seed, 0),
}
# kind -> (runner, fields, the CSV that holds the summary table)
_EXPERIMENTS = {
    "flow": (_run_flow, _FLOW_FIELDS, "flow.csv"),
    "iterate": (_run_iterate, _ITERATE_FIELDS, "history.csv"),
    "reg-path": (_run_reg_path, _REG_PATH_FIELDS, "path.csv"),
    "noise-study": (_run_noise_study, _NOISE_STUDY_FIELDS, "noise.csv"),
    "lemma-sim": (_run_lemma_sim, _LEMMA_SIM_FIELDS, "sequences.csv"),
}
KINDS = tuple(_EXPERIMENTS)


def _build(table: dict, spec: dict, *args):
    """Call the constructor that ``table`` holds for a parsed variant ``spec``."""
    params = dict(spec)
    return table[params.pop("kind")][0](*args, **params)


def run_experiment(config: dict, out_dir) -> dict:
    """Validate the config, run the study, write artifacts, return the report.

    The report is also written to ``<out_dir>/report.json`` and is byte
    reproducible for a fixed config; wall-clock timings are written to
    ``<out_dir>/timing.json`` so they never perturb the report.  The
    summary table is written once, as the kind's CSV artifact, and not
    into ``report.json``; the returned report is the written one plus the
    in-memory ``"table"``, which :func:`emit_table` renders.
    """
    cfg = _coerce(config, _EXPERIMENTS, "experiment")
    kind = cfg["kind"]
    runner, _, csv_name = _EXPERIMENTS[kind]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    runs, table, problem = runner(cfg, out_dir)
    elapsed = time.perf_counter() - start
    for run in runs:  # every report row is one library Check
        run["checks"] = [_check(c) for c in run["checks"]]

    artifacts = sorted({name for run in runs for name in run["artifacts"]} | {"report.json"})
    report = {
        "kind": kind,
        "config": cfg,
        "runs": runs,
        "checks_pass": all(c["pass"] for run in runs for c in run["checks"]),
        "artifacts": artifacts,
    }
    if problem is not None:
        # describe the instance the runner built; the matrix goes in as a hash
        report["problem"] = corpus._describe(cfg["problem"], problem)
    (out_dir / csv_name).write_text(_csv(table["columns"], table["rows"]))

    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    (out_dir / "timing.json").write_text(
        json.dumps({"total_seconds": elapsed}, indent=2, sort_keys=True) + "\n"
    )
    return {**report, "table": table}


def _fmt(value, spec: str) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return spec % float(value)


def emit_table(report: dict, fmt: str = "markdown") -> str:
    """Render the report's summary table.

    CSV carries full double precision (17 significant digits) for
    machine consumption; markdown rounds to 6 significant digits for
    reading.  Identical reports render to identical bytes.
    """
    if fmt not in ("markdown", "csv"):
        raise ValueError(f"format must be 'markdown' or 'csv', got {fmt!r}")
    table = report["table"]
    cols = table["columns"]
    if fmt == "csv":
        return _csv(cols, table["rows"])
    body = [[_fmt(v, "%.6g") for v in row] for row in table["rows"]]
    widths = [
        max(len(c), *(len(r[i]) for r in body)) if body else len(c)
        for i, c in enumerate(cols)
    ]
    header = "| " + " | ".join(c.ljust(w) for c, w in zip(cols, widths)) + " |"
    rule = "|-" + "-|-".join("-" * w for w in widths) + "-|"
    lines = [header, rule]
    for r in body:
        lines.append("| " + " | ".join(v.ljust(w) for v, w in zip(r, widths)) + " |")
    return "\n".join(lines) + "\n"


def _csv(columns, rows) -> str:
    """CSV text with every float at 17 significant digits, so values round-trip."""
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v, "%.17g") for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_trajectory(path: Path, traj: flow.FlowResult) -> None:
    columns = ["t", "g"] + [f"u_{i}" for i in range(traj.states.shape[1])]
    rows = ([t, g, *u] for t, g, u in zip(traj.times, traj.residuals, traj.states))
    path.write_text(_csv(columns, rows))


def _apply_override(config: dict, item: str) -> None:
    if "=" not in item:
        raise ValueError(f"override {item!r} is not of the form key=value")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    target = config
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = target.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ValueError(f"cannot descend into non-mapping config key {part!r}")
        target = nxt
    target[parts[-1]] = value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dsm",
        description="Run regularized Newton flow and iteration experiments.",
    )
    parser.add_argument("kind", choices=KINDS, help="experiment kind")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override a config field (dotted keys, JSON values)",
    )
    parser.add_argument(
        "--table",
        choices=("markdown", "csv", "none"),
        default="markdown",
        help="summary table format printed to stdout",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
        if "kind" in config and config["kind"] != args.kind:
            raise ValueError(
                f"config file is for kind {config['kind']!r} but {args.kind!r} was requested"
            )
        config["kind"] = args.kind
        for item in args.overrides:
            _apply_override(config, item)
        if args.seed is not None:
            config["seed"] = args.seed
        started = time.perf_counter()
        report = run_experiment(config, args.out)
        elapsed = time.perf_counter() - started
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"dsm: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"dsm: numerical failure: {exc}", file=sys.stderr)
        return 3

    if args.table != "none":
        print(emit_table(report, args.table), end="")
    n_checks = sum(len(run["checks"]) for run in report["runs"])
    verdict = "pass" if report["checks_pass"] else "FAIL"
    print(f"{args.kind}: {n_checks} bound check(s) {verdict} in {elapsed:.3f}s")
    for run in report["runs"]:
        for c in run["checks"]:
            state = "pass" if c["pass"] else "FAIL"
            print(
                f"  [{state}] {c['check']}: observed {c['observed']:.6g}"
                f" vs bound {c['bound']:.6g} (margin {c['margin']:.6g})"
            )
    return 0 if report["checks_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
