"""Benchmark of dsm: whole experiment sweeps through ``dsm.cli.run_experiment``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload flow-stop --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One process drives a workload's experiment list as a closed loop with one
caller.  With ``--trace 0`` it first times ``import dsm`` in fresh
interpreters, then runs one warm-up pass and timed passes until
``--seconds`` have been measured, and reports the end-to-end metrics.
With ``--trace 1`` it alternates traced and untraced passes and reports
the per-layer metrics of ``perfbench/tracer.py``.  ``--workload all``
runs every workload in both modes in child processes and prints every
metric.  Metric names and units come from ``BENCHMARK.json``.

Correctness: every pass must write byte-identical ``report.json`` files,
traced or not, and the trace must agree with the program's own counters;
otherwise ``correct`` is false and the exit code is 1.  A failed
experiment (a bound check with ``pass: false``, a ``NumericalFailure`` or
a ``ValueError``) is counted in ``failed`` and the sweep goes on.
``attempted`` and ``failed`` count the workload's experiments once each,
not once per pass, so they depend on the seed only.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# dsm has no parallelism of its own and the machine's cores are shared, so
# BLAS runs on one thread; set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import copy
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 15
MIN_PASSES = 3
_TINY = 1e-300


def setup_sample() -> float:
    """Wall time of one fresh interpreter running ``import dsm``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import dsm"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def run_pass(configs: list[dict], dest: Path, tracer=None):
    """Run every experiment once and return ``(seconds, outcomes, report_bytes)``.

    An outcome is ``(failed, fingerprint, checks)``.  The fingerprint is
    the SHA-256 of ``report.json``, or the error's text, so equal
    outcomes mean byte-identical reports.
    """
    from dsm import cli
    from dsm.problem import NumericalFailure

    configs = copy.deepcopy(configs)
    results = []
    start = time.perf_counter()
    with tracer if tracer is not None else contextlib.nullcontext():
        for i, cfg in enumerate(configs):
            try:
                results.append(cli.run_experiment(cfg, dest / f"{i:02d}"))
            except (NumericalFailure, ValueError) as exc:
                results.append(exc)
    elapsed = time.perf_counter() - start

    outcomes = []
    report_bytes = 0
    for i, result in enumerate(results):
        if isinstance(result, Exception):
            outcomes.append((True, f"{type(result).__name__}: {result}", []))
            continue
        data = (dest / f"{i:02d}" / "report.json").read_bytes()
        report_bytes += len(data)
        checks = [c for run in result["runs"] for c in run["checks"]]
        outcomes.append((not result["checks_pass"], hashlib.sha256(data).hexdigest(), checks))
    shutil.rmtree(dest)
    return elapsed, outcomes, report_bytes


def min_headroom(outcomes) -> float:
    """Smallest ``margin / |bound|`` over every bound check emitted."""
    return min(
        c["margin"] / max(abs(c["bound"]), _TINY)
        for _, _, checks in outcomes
        for c in checks
    )


def describe_failures(configs, outcomes) -> list[str]:
    notes = []
    for i, (failed, fingerprint, checks) in enumerate(outcomes):
        if failed:
            what = ", ".join(c["check"] for c in checks if not c["pass"]) or fingerprint
            problem = configs[i].get("problem", {}).get("corpus", "-")
            notes.append(f"experiment {i} ({configs[i]['kind']} on {problem}) failed: {what}")
    return notes


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; return ``(errors, attempted, failed, metrics, notes)``.

    Set-up samples are taken between passes, so that a burst of load from
    elsewhere on the machine lands on few of them.
    """
    configs = WORKLOADS[workload](seed)
    OUT.mkdir(exist_ok=True)
    errors: list[str] = []
    plain, traced, summaries, setup = [], [], [], []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tmp = Path(tmp)
        _, reference, report_bytes = run_pass(configs, tmp / "warm")
        passes = 1
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(plain) < MIN_PASSES:
            if trace:
                tracer = Tracer()
                elapsed, outcomes, _ = run_pass(configs, tmp / "pass", tracer)
                passes += 1
                traced.append(elapsed)
                layer_metrics, mismatches = tracer.summary()
                summaries.append(layer_metrics)
                errors += [f"trace self-check: {text}" for text in mismatches]
                if outcomes != reference:
                    errors.append("traced report.json differs from the untraced one")
            else:
                setup.append(setup_sample())
            elapsed, outcomes, _ = run_pass(configs, tmp / "pass")
            passes += 1
            plain.append(elapsed)
            if outcomes != reference:
                errors.append("report.json bytes differ between passes")
    while not trace and len(setup) < SETUP_REPS:
        setup.append(setup_sample())

    per_pass = sum(1 for failed, _, _ in reference if failed)
    notes = describe_failures(configs, reference)
    if trace:
        timed = {k for k in summaries[-1] if k.endswith("_s")}
        metrics = {k: v for k, v in summaries[-1].items() if k not in timed}
        if any({k: v for k, v in s.items() if k not in timed} != metrics for s in summaries):
            errors.append("trace counts differ between traced passes")
        for key in timed:
            metrics[key] = statistics.median(s[key] for s in summaries)
        metrics["cli.report_bytes"] = report_bytes
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        tracer.write_spans(OUT / f"spans-{workload}.json")
        notes.append(f"{len(traced)} traced and {len(plain)} untraced passes; spans of "
                     f"the last traced pass in {OUT.name}/spans-{workload}.json")
    else:
        metrics = {
            "sweep_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "min_headroom": min_headroom(reference),
        }
        notes.append(f"sweep_s: median of {len(plain)} timed passes; setup_s: median "
                     f"of {len(setup)} samples; {per_pass} of {len(configs)} experiments "
                     f"fail per pass")
    # every pass repeats the reference pass byte for byte (checked above), so
    # each experiment is one operation however many passes fitted the time
    return list(dict.fromkeys(errors)), len(configs), per_pass, metrics, notes


def result_line(spec: dict, trace: bool, errors, attempted, failed, metrics) -> dict:
    """The JSON result, with metrics in ``BENCHMARK.json`` order and units."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics  # absent when dsm no longer has the field
        },
    }


def run_all(spec: dict, seed: int, seconds: int) -> int:
    """Run every workload in both modes in child processes; print all metrics."""
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print(*lines[:-1], sep="\n")
            if proc.returncode != 0 or not lines:
                ok = False
                continue
            ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dsm" / "__init__.py").is_file():
        print(f"perfbench: no dsm source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(spec, args.seed, args.seconds)

    trace = bool(args.trace)
    errors, attempted, failed, metrics, notes = measure(
        args.workload, args.seed, args.seconds, trace
    )
    line = result_line(spec, trace, errors, attempted, failed, metrics)
    mode = "traced" if trace else "untraced"
    print(f"== {args.workload} seed {args.seed} ({mode})")
    for name, m in line["metrics"].items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    if not trace:
        print(f"  {'fail_rate':<30} {failed / attempted:>16.6g} ratio (failed / attempted)")
    for text in notes + errors:
        print(f"  note: {text}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
