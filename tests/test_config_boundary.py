"""Boundary property test of the CLI: a mutated shipped config never escapes.

Each case takes one shipped config and mutates one field: it drops the
key, or sets it to null, a string, a list, a mapping, a bool, a negative,
a non-integral or a huge number.  Whatever the mutation, ``main`` must
return 0-3 without raising; 1 only with a ``report.json`` whose
``checks_pass`` is false; 2 only with the ``dsm: invalid configuration:``
prefix.  A value of the wrong type for its field (per the README's field
summary: Infinity and NaN are not numbers, a bool is not a number, a
non-integral number is not an int, only true and false are bools), a
value outside the range the summary gives the field, and a dropped
required key must exit 2 with a message that names the field, and the
value when it is a scalar.  Outside ``problem``, such a refusal comes
before the problem is built: ``corpus.problem_from_dict`` is never called.

Huge values run in a child process under an address-space limit, so that
a missing size cap fails the test instead of exhausting the machine.
Run this file as a script to evaluate huge cases: it reads their JSON
list on stdin and prints one outcome per case.
"""

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsm import corpus, main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = Path(__file__).resolve().parents[1] / "src"
KINDS = ("flow", "iterate", "reg-path", "noise-study", "lemma-sim")

_PROBLEM = ["problem", "problem.corpus", "problem.dim", "problem.seed"]
_FLOW_TOLERANCES = ["checkpoints", "rtol"]
FIELDS = {
    "flow": _PROBLEM
    + ["epsilon", "t_end", *_FLOW_TOLERANCES, "u0", "seed"],
    "iterate": _PROBLEM
    + ["schedule", "schedule.kind", "schedule.floor", "step_rule", "step_rule.kind"]
    + ["step_rule.p", "max_n", "stop_residual", "record_roots", "u0", "seed"],
    "reg-path": _PROBLEM + ["epsilons", "seed"],
    "noise-study": _PROBLEM
    + ["deltas", "epsilons", "b_exp", *_FLOW_TOLERANCES, "seed"],
    "lemma-sim": ["a", "b", "b.kind", "b.scale", "b.exponent", "horizon", "g1", "seed"],
}
REQUIRED = {
    "problem", "problem.corpus", "schedule", "schedule.kind", "step_rule",
    "step_rule.kind", "step_rule.p", "deltas", "a", "b", "b.kind", "b.exponent", "horizon",
}
# the type the README's field summary gives each field, by its last key;
# "?" marks null as allowed, and every field not listed is a number
TYPES = {
    "problem": "mapping", "schedule": "mapping", "step_rule": "mapping",
    "corpus": "string", "kind": "string", "record_roots": "bool",
    "dim": "int", "seed": "int", "checkpoints": "int", "max_n": "int", "horizon": "int",
    "deltas": "list", "epsilons": "list", "u0": "list?", "a": "sequence", "b": "sequence",
    "t_end": "number?", "stop_residual": "number?", "b_exp": "number?",
}
# the range the README's field summary gives each numeric field, by its last
# key, for a value of the right type; a list must also be non-empty
_POSITIVE, _NON_NEGATIVE, _UNIT = (lambda v: v > 0), (lambda v: v >= 0), (lambda v: 0 < v < 1)
RANGES = {
    "epsilon": _POSITIVE, "rtol": _POSITIVE,
    "t_end": lambda v: 0 < v <= 1000,
    "checkpoints": lambda v: 1 <= v <= 1000,
    "max_n": lambda v: 1 <= v <= 10_000,
    "horizon": lambda v: 1 <= v <= 100_000,
    # a number is every term of a constant sequence; lists and generators pass here,
    # since their terms are not modelled
    "a": lambda v: isinstance(v, (list, dict)) or 0 < v <= 0.5,
    "b": lambda v: isinstance(v, (list, dict)) or v >= 0,
    "dim": lambda v: 3 <= v <= 2000,  # the shipped configs' corpus problems
    "p": lambda v: 1 < v <= math.exp(0.5),
    "b_exp": _UNIT,
    "deltas": lambda v: all(map(_UNIT, v)),
    "epsilons": lambda v: all(map(_POSITIVE, v)),
    **dict.fromkeys(["stop_residual", "floor", "g1", "seed"], _NON_NEGATIVE),
}
HUGE = (10**9, 10**400, math.inf)


class _Drop:
    def __repr__(self):
        return "DROP"


DROP = _Drop()


def field_type(kind: str, path: str) -> str:
    if kind == "noise-study" and path == "epsilons":
        return "list?"
    return TYPES.get(path.rsplit(".", 1)[-1], "number")


def _is_number(v) -> bool:
    finite = isinstance(v, int) or isinstance(v, float) and math.isfinite(v)
    return finite and not isinstance(v, bool)


def accepts(kind: str, path: str, value) -> bool:
    """Whether the field takes ``value``: its type, and its range when it has one."""
    expected = field_type(kind, path)
    if value is None:
        return expected.endswith("?")
    if isinstance(value, list) and not value:
        return False
    numbers = isinstance(value, list) and all(_is_number(v) for v in value)
    typed = {
        "mapping": isinstance(value, dict),
        "string": isinstance(value, str),
        "bool": isinstance(value, bool),
        "number": _is_number(value),
        "int": _is_number(value) and (isinstance(value, int) or value.is_integer()),
        "list": numbers,
        "sequence": _is_number(value) or numbers or isinstance(value, dict),
    }[expected.rstrip("?")]
    name = path.rsplit(".", 1)[-1]
    if not typed or name not in RANGES:
        return typed
    if kind == "reg-path" and name == "epsilons" and any(b >= a for a, b in zip(value, value[1:])):
        return False
    return RANGES[name](value)


def mutated(kind: str, path: str, value) -> dict:
    config = json.loads((CONFIGS / f"{kind}.json").read_text())
    *parents, key = path.split(".")
    target = config
    for part in parents:
        target = target[part]
    if value is DROP:
        target.pop(key, None)
    else:
        target[key] = value
    return config


def outcome(kind: str, path: str, value) -> dict:
    """Run ``main`` on one mutated config in this process."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(mutated(kind, path, value)))
        out = Path(tmp) / "out"
        err = io.StringIO()
        result = {"code": None, "raised": None}
        build = mock.Mock(wraps=corpus.problem_from_dict)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    mock.patch.object(corpus, "problem_from_dict", build):
                result["code"] = main(
                    [kind, "--config", str(config), "--out", str(out), "--table", "none"]
                )
        except (Exception, SystemExit) as exc:  # anything escaping main fails the property
            result["raised"] = f"{type(exc).__name__}: {exc}"[:300]
        result["builds"] = build.call_count
        report = out / "report.json"
        result["checks_pass"] = (
            json.loads(report.read_text())["checks_pass"] if report.exists() else None
        )
        result["stderr"] = err.getvalue()
    return result


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def outcomes_in_child(cases: list) -> list:
    """Run ``outcome`` for each case in a child under a 1 GiB address space."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, __file__],
        input=json.dumps(cases),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def check(kind: str, path: str, value, result: dict) -> None:
    case = f"{kind} {path}={value!r}"
    assert result["raised"] is None, f"{case} raised {result['raised']}"
    code, err = result["code"], result["stderr"]
    assert code in (0, 1, 2, 3), f"{case} returned {code!r}"
    if code == 1:
        assert result["checks_pass"] is False, f"{case} exited 1 without a failed report"
    if code == 2:
        assert err.startswith("dsm: invalid configuration:"), f"{case}: {err!r}"
    name = path.rsplit(".", 1)[-1]
    if value is DROP and path in REQUIRED or value is not DROP and not accepts(kind, path, value):
        assert code == 2, f"{case} exited {code}, not 2: {err!r}"
        assert name in err, f"{case}: message does not name {name!r}: {err!r}"
        if not isinstance(value, (list, dict, _Drop)):
            assert repr(value) in err, f"{case}: message does not show the value: {err!r}"
        if not path.startswith("problem."):
            assert result["builds"] == 0, f"{case}: refused only after the problem was built"


def _is_huge(value) -> bool:
    return isinstance(value, (int, float)) and abs(value) >= HUGE[0]


_NUMBERS = st.one_of(
    st.integers(-3, 3), st.floats(-3, 3, allow_nan=False), st.booleans(), st.text(max_size=1)
)
VALUES = st.one_of(
    st.just(DROP),
    st.none(),
    st.text(max_size=3),
    st.lists(_NUMBERS, max_size=3),
    st.dictionaries(st.sampled_from(["kind", "k"]), _NUMBERS, max_size=2),
    st.booleans(),
    st.integers(-5, -1),
    st.floats(-5.0, -0.01),
    st.floats(0.01, 5.0).filter(lambda x: not x.is_integer()),
)


@st.composite
def mutations(draw):
    kind = draw(st.sampled_from(KINDS))
    return kind, draw(st.sampled_from(FIELDS[kind])), draw(VALUES)


@settings(max_examples=60, deadline=None)
@given(mutations())
@example(("iterate", "max_n", None))
@example(("flow", "checkpoints", [1]))
@example(("noise-study", "deltas", 5))
@example(("reg-path", "epsilons", None))
@example(("flow", "problem.dim", math.inf))
@example(("iterate", "max_n", 3.7))
@example(("iterate", "record_roots", "no"))
@example(("flow", "problem.dim", 2.5))
@example(("reg-path", "epsilons", [1, 2]))
@example(("flow", "seed", -1))
@example(("iterate", "max_n", -2.0))
@example(("flow", "t_end", 0))
@example(("lemma-sim", "a", 0.7))
@example(("lemma-sim", "b", -1))
def test_mutated_config_exits_0_to_3(mutation):
    kind, path, value = mutation
    if _is_huge(value):
        (result,) = outcomes_in_child([[kind, path, value]])
    else:
        result = outcome(kind, path, value)
    check(kind, path, value, result)


def test_huge_values_are_capped_or_rejected():
    cases = [[kind, path, value] for kind in KINDS for path in FIELDS[kind] for value in HUGE]
    for (kind, path, value), result in zip(cases, outcomes_in_child(cases)):
        check(kind, path, value, result)


if __name__ == "__main__":
    import warnings

    warnings.filterwarnings("error", module="dsm")  # as the suite's pyproject filter
    print(json.dumps([outcome(*case) for case in json.loads(sys.stdin.read())]))
