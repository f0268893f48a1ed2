"""Experiment lists of the three benchmark workloads, derived from a seed.

Each workload is a list of ``dsm.cli.run_experiment`` configs.  The
workload seed becomes the corpus ``seed`` of every problem that takes one
(``hilbert-psd`` is deterministic and takes none) and the config ``seed``,
which draws the noise of ``noise-study``.  Nothing else depends on it:
dimensions, eps grids and step rules are fixed, so a seed never resizes or
reshapes a workload.  Why each workload exists is in ``RATIONALE.md``.
"""

from __future__ import annotations

# the shipped step rule of configs/iterate.json: p = sqrt(e), so h = 1
SHIPPED_P = 1.6487212707001282
DELTAS = [1e-2, 1e-3, 1e-4]
PATH_EPS = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]


def _corpus(name: str, dim: int, seed: int) -> dict:
    return {"corpus": name, "dim": dim, "seed": seed}


def flow_stop(seed: int) -> list[dict]:
    runs = [
        {
            "kind": "flow",
            "problem": _corpus("cubic-monotone", dim, seed),
            "epsilon": 0.01,
            "seed": seed,
        }
        for dim in (50, 100, 200)
    ]
    runs.append(
        {
            "kind": "flow",
            "problem": _corpus("psd-singular-linear", 200, seed),
            "epsilon": 0.01,
            "seed": seed,
        }
    )
    runs.append(
        {
            "kind": "noise-study",
            "problem": _corpus("psd-singular-linear", 200, seed),
            "deltas": DELTAS,
            "b_exp": 0.5,
            "seed": seed,
        }
    )
    return runs


def matched_iterate(seed: int) -> list[dict]:
    def run(name, dim, step_rule):
        return {
            "kind": "iterate",
            "problem": _corpus(name, dim, seed),
            "schedule": {"kind": "oracle"},
            "step_rule": step_rule,
            "max_n": 40,
            "record_roots": True,
            "seed": seed,
        }

    shipped = {"kind": "constant_p", "p": SHIPPED_P}
    half = {"kind": "constant_h", "h": 0.5}
    return [
        run("cubic-monotone", 10, shipped),
        run("cubic-monotone", 50, shipped),
        run("random-monotone", 20, half),
        run("random-monotone", 50, half),
    ]


def path_certify(seed: int) -> list[dict]:
    return [
        {
            "kind": "reg-path",
            "problem": _corpus("psd-singular-linear", 500, seed),
            "epsilons": PATH_EPS,
            "seed": seed,
        },
        {
            "kind": "reg-path",
            "problem": {"corpus": "hilbert-psd"},
            "epsilons": PATH_EPS + [1e-7, 1e-8],
            "seed": seed,
        },
        {
            "kind": "reg-path",
            "problem": _corpus("random-monotone", 200, seed),
            "epsilons": PATH_EPS,
            "seed": seed,
        },
        {
            "kind": "noise-study",
            "problem": _corpus("psd-singular-linear", 200, seed),
            "deltas": DELTAS,
            "epsilons": [1e-1, 1e-2, 1e-3, 1e-4, 1e-5],
            "seed": seed,
        },
        {
            "kind": "lemma-sim",
            "a": 0.5,
            "b": {"kind": "power", "scale": 1.0, "exponent": 1.0},
            "horizon": 3000,
            "seed": seed,
        },
    ]


WORKLOADS = {
    "flow-stop": flow_stop,
    "matched-iterate": matched_iterate,
    "path-certify": path_certify,
}
