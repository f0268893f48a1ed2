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
from .problem import OPTIONAL, REQUIRED, NumericalFailure, _coerce, _non_negative, inner, norm

__all__ = ["run_experiment", "emit_table", "main"]

# Bound checks are reported under stable names so downstream tooling can
# key on them; each name states what the inequality controls.
CHECK_RESIDUAL_DECAY = "residual-decay"
CHECK_FLOW_LIMIT_GAP = "flow-limit-gap"
CHECK_STOPPING_GAP = "stopping-gap"
CHECK_NORM_DOMINANCE = "norm-dominance"
CHECK_ERROR_INNER_BOUND = "error-inner-bound"
CHECK_NOISY_STOPPING_GAP = "noisy-stopping-gap"
CHECK_NOISE_GAP = "noise-gap"
CHECK_NOISE_CONVERGENCE = "noise-convergence"
CHECK_RECURSION_STEP = "recursion-step"
CHECK_INDUCTION_CHAIN = "induction-chain"

_TINY = 1e-300


def _check(check_id: str, observed: float, bound: float) -> dict:
    return {
        "check": check_id,
        "observed": float(observed),
        "bound": float(bound),
        "margin": float(bound) - float(observed),
        "pass": bool(observed <= bound),
    }


def _stopping_ratio(gap: float, g0: float, eps: float) -> float:
    """``|u(T) - V| / (g0 eps)``: a flow's gap to its root at the stopping time, over its bound."""
    return gap / max(g0 * eps, _TINY)


# ---------------------------------------------------------------------------
# flow


def _flow_tables(traj, root_v, slack):
    g0 = float(traj.residuals[0])
    rows = []
    max_dev = 0.0
    max_gap_ratio = 0.0
    for t, u, g in zip(traj.times, traj.states, traj.residuals):
        model = g0 * math.exp(-t)
        dev = abs(g / model - 1.0) if model > 0.0 else (0.0 if g == 0.0 else math.inf)
        gap = norm(u - root_v)
        gap_bound = slack * (model / traj.epsilon)
        max_dev = max(max_dev, dev)
        max_gap_ratio = max(max_gap_ratio, gap * traj.epsilon / max(model, _TINY))
        rows.append([float(t), float(g), model, gap, gap_bound])
    return rows, max_dev, max_gap_ratio


def _run_flow(cfg: dict, out_dir: Path):
    decay_tol = _non_negative(cfg["decay_tol"], "decay_tol")
    slack = _non_negative(cfg["slack"], "slack")
    problem = corpus.problem_from_dict(cfg["problem"])
    eps = cfg["epsilon"]
    at_stopping = cfg["t_end"] is None
    t_end = flow.stopping_time(eps) if at_stopping else cfg["t_end"]
    traj = flow.integrate_flow(
        problem,
        eps,
        t_end,
        checkpoints=cfg["checkpoints"],
        u0=cfg["u0"],
        rtol=cfg["rtol"],
        atol=cfg["atol"],
    )
    # the root at s = exp(-t) = 0, started from the flow's curve extrapolated there
    tail = [(math.exp(-t), u) for t, u in zip(traj.times[-3:], traj.states[-3:])]
    root = regroot.solve_regularized(problem, eps, init=regroot._predict(tail, 0.0))
    rows, max_dev, max_gap_ratio = _flow_tables(traj, root.v, slack)
    g0 = float(traj.residuals[0])
    final_gap = norm(traj.states[-1] - root.v)

    checks = [
        _check(CHECK_RESIDUAL_DECAY, max_dev, decay_tol),
        _check(CHECK_FLOW_LIMIT_GAP, max_gap_ratio, slack),
    ]
    if at_stopping:
        checks.append(_check(CHECK_STOPPING_GAP, _stopping_ratio(final_gap, g0, eps), slack))

    _write_trajectory(out_dir / "trajectory.csv", traj)
    run = {
        "label": "flow",
        "metrics": {
            "epsilon": eps,
            "t_end": t_end,
            "g0": g0,
            "final_residual": float(traj.residuals[-1]),
            "final_root_gap": final_gap,
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
    slack = _non_negative(cfg["slack"], "slack")
    problem = corpus.problem_from_dict(cfg["problem"])
    history = iterate.run_iteration(
        problem,
        _build(_SCHEDULES, cfg["schedule"]),
        _build(_STEP_RULES, cfg["step_rule"]),
        cfg["max_n"],
        u0=cfg["u0"],
        stop_residual=cfg["stop_residual"],
        record_roots=cfg["record_roots"],
    )
    tracked = history.steps[0].gap is not None
    checks = []
    if tracked and len(history.steps) >= 2:
        report = iterate.verify_step_recursion(problem, history, slack=slack)
        checks.append(_check(CHECK_RECURSION_STEP, report.observed, report.bound))
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
    norm_slack = _non_negative(cfg["norm_slack"], "norm_slack")
    inner_slack = _non_negative(cfg["inner_slack"], "inner_slack")
    problem = corpus.problem_from_dict(cfg["problem"])
    path = regroot.regularization_path(problem, cfg["epsilons"], newton_tol=cfg["newton_tol"])
    y = problem.known_solution

    rows = []
    for i, entry in enumerate(path.entries):
        gap = path.root_gaps[i] if i < len(path.root_gaps) else None
        rows.append([entry.epsilon, entry.v_norm, entry.error_to_y, gap])

    checks = []
    if y is not None:
        y_norm = norm(y)
        max_vnorm = max(e.v_norm for e in path.entries)
        checks.append(
            _check(CHECK_NORM_DOMINANCE, max_vnorm, y_norm * (1.0 + norm_slack))
        )
        worst = -math.inf
        for entry in path.entries:
            worst = max(worst, entry.error_to_y ** 2 - inner(y, y - entry.root.v))
        checks.append(_check(CHECK_ERROR_INNER_BOUND, worst, inner_slack))

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
    deltas = cfg["deltas"]
    if len(deltas) == 0:
        raise ValueError("deltas must be non-empty")
    if any(not (0.0 < d < 1.0) for d in deltas):
        raise ValueError("every delta must lie in (0, 1)")
    slack = _non_negative(cfg["slack"], "slack")
    b_exp = cfg["b_exp"]
    stopping = b_exp is not None
    if stopping == (cfg["epsilons"] is not None):
        raise ValueError("provide exactly one of 'epsilons' (grid) or 'b_exp' (stopping rule)")
    columns = ["delta", "eps", "root_gap", "gap_bound"]
    if stopping:
        if any(b >= a for a, b in zip(deltas, deltas[1:])):
            raise ValueError("deltas must be strictly decreasing for the stopping study")
        columns += ["stop_gap", "stop_bound", "err_at_stop"]
    elif len(cfg["epsilons"]) == 0:
        raise ValueError("epsilons must be non-empty")
    elif any(not eps > 0.0 for eps in cfg["epsilons"]):
        raise ValueError("every epsilon must be positive")
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
                problem,
                f_noisy,
                delta,
                b_exp,
                checkpoints=cfg["checkpoints"],
                rtol=cfg["rtol"],
                atol=cfg["atol"],
            )
            epsilons = [result.epsilon_used]
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
            max_stop_ratio = max(max_stop_ratio, _stopping_ratio(stop_gap, g0d, eps))
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

    checks = [_check(CHECK_NOISE_GAP, max_ratio, slack)]
    metrics = {"cells": len(rows), "max_gap_ratio": max_ratio}
    if stopping:
        checks.append(_check(CHECK_NOISY_STOPPING_GAP, max_stop_ratio, slack))
        if len(errors) >= 2:
            # errors must strictly decrease: the bound is the largest double below 1
            worst = max(nxt / max(prev, _TINY) for prev, nxt in zip(errors, errors[1:]))
            checks.append(_check(CHECK_NOISE_CONVERGENCE, worst, math.nextafter(1.0, 0.0)))
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
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    a = _sequence(cfg["a"], horizon, "a")
    b = _sequence(cfg["b"], horizon, "b")
    chain = recursion.check_bound_chain(cfg["g1"], a, b, slack=cfg["slack"])
    diag = recursion.horizon_diagnostics(a, b)
    checks = [_check(CHECK_INDUCTION_CHAIN, chain.observed, chain.bound)]

    rows = []
    for m in range(horizon + 1):
        tail = float(diag.tail_sums[m]) if m < horizon else None
        rows.append(
            [m, float(chain.simulated[m]), float(chain.unrolled[m]), float(chain.majorant[m]), tail]
        )
    run = {
        "label": "lemma-sim",
        "metrics": {
            "horizon": horizon,
            "final_value": float(chain.simulated[-1]),
            "weight_sum": diag.weight_sum,
            "weights_diverging_trend": diag.weights_diverging_trend,
            "tail_sum": diag.tail_sum,
            "tail_nonincreasing_trend": diag.tail_nonincreasing_trend,
        },
        "checks": checks,
        "artifacts": ["sequences.csv"],
    }
    table = {
        "columns": ["n", "simulated", "unrolled_bound", "majorant", "tail_sum"],
        "rows": rows,
    }
    return [run], table, None


# ---------------------------------------------------------------------------
# assembly


# Size caps only the runner applies, checked before anything they size is
# allocated; the library caps dim, checkpoints and max_n itself.
MAX_HORIZON = 100_000  # lemma-sim writes horizon + 1 CSV rows once: 10 MB, 100 MB peak RSS
MAX_T_END = 1000.0  # the model residual g(0) exp(-t) underflows past t = 745

# Field tables: key -> (type, default) or (type, default, cap), read by
# problem._parse.  A variant table {kind: (constructor, fields)} is itself
# a type: a mapping whose "kind" picks the constructor and its fields.
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
    # capped here too: noise-study's grid mode never passes checkpoints to the library
    "checkpoints": (int, 10, MAX_CHECKPOINTS),
    "rtol": (float, 1e-8),
    "atol": (float, 1e-10),
}
_FLOW_FIELDS = {
    "problem": (dict, REQUIRED),
    "epsilon": (float, 1e-2),
    "t_end": ((float, None), None, MAX_T_END),
    **_FLOW_TOLERANCES,
    "decay_tol": (float, 1e-3),
    "slack": (float, 1.05),
    "u0": (([float], None), None),
    "seed": (int, 0),
}
_ITERATE_FIELDS = {
    "problem": (dict, REQUIRED),
    "schedule": (_SCHEDULES, REQUIRED),
    "step_rule": (_STEP_RULES, REQUIRED),
    "max_n": (int, 60),
    "stop_residual": ((float, None), None),
    "record_roots": (bool, False),
    "slack": (float, 1e-8),
    "u0": (([float], None), None),
    "seed": (int, 0),
}
_REG_PATH_FIELDS = {
    "problem": (dict, REQUIRED),
    "epsilons": ([float], REQUIRED),
    "newton_tol": ((float, None), None),
    "norm_slack": (float, 1e-8),
    "inner_slack": (float, 1e-9),
    "seed": (int, 0),
}
_NOISE_STUDY_FIELDS = {
    "problem": (dict, REQUIRED),
    "deltas": ([float], REQUIRED),
    "epsilons": (([float], None), None),
    "b_exp": ((float, None), None),
    "slack": (float, 1.05),
    **_FLOW_TOLERANCES,
    "seed": (int, 0),
}
_LEMMA_SIM_FIELDS = {
    "a": ((float, [float], _SEQUENCES), REQUIRED),
    "b": ((float, [float], _SEQUENCES), REQUIRED),
    "horizon": (int, REQUIRED, MAX_HORIZON),
    "g1": (float, 1.0),
    "slack": (float, 1e-12),
    "seed": (int, 0),
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
        report["problem"] = corpus._describe(cfg["problem"], problem, full_matrix=False)
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
