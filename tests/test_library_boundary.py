"""Boundary property test of the library: a mutated argument never escapes.

Each case takes one valid call of a public function or constructor in
``dsm.__all__`` that takes a number, a sequence or a problem, and mutates
one argument: to None, a string, a bool, NaN, an infinity, 0, -1, 2.5, a
list, or a huge int.  Whatever the mutation, the call must return or raise
``ValueError`` or ``NumericalFailure``, with no warning from ``dsm``.  An
argument the README gives a type (a number, an integer, a count of at
least 1, a string or a sequence of numbers) must reject, with
``ValueError``, every value that is not of that type, by the rule config
values follow: Infinity and NaN are not numbers, a bool is not a number, a
non-integral number is not an integer.

Problem, schedule, step-rule, history, flow and path arguments are not
mutated: they are the library's own types, and their constructors are cases here.
``main`` and ``run_experiment`` are the config boundary test's.  Huge
values run in a child process under an address-space limit
(``conftest.run_capped``), so that a missing size cap fails the test
instead of exhausting the machine.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import capped_outcome, run_capped
from dsm import (
    ProblemInstance,
    Schedule,
    StepRule,
    add_noise,
    apply_operator,
    as_matrix,
    as_vector,
    check_bound_chain,
    check_flow,
    check_path,
    default_newton_tol,
    exponential_majorant,
    geometric_weighted_sum,
    inner,
    integrate_flow,
    jacobian,
    make_cubic_monotone,
    make_hilbert_psd,
    make_problem,
    make_psd_singular_linear,
    make_random_monotone,
    minimal_norm_solution,
    norm,
    problem_from_dict,
    reg_solve,
    regularization_path,
    run_iteration,
    simulate_recursion,
    solve_noisy_to_stopping,
    solve_regularized,
    solve_to_stopping,
    stopping_time,
    unrolled_bound,
    verify_step_recursion,
)

TESTS = Path(__file__).resolve().parent
HUGE = (10**9, 10**400)

P = make_cubic_monotone(dim=4)
U = np.full(4, 0.5)
A = np.eye(3)
B = np.ones(3)
WEIGHTS = [0.25, 0.5, 0.1]
HISTORY = run_iteration(P, Schedule.constant(0.1), StepRule.constant_h(0.5), 2, record_roots=True)
FLOW = integrate_flow(P, 0.5, 1.0, checkpoints=2)
PATH = regularization_path(P, [0.1, 0.01])
SPEC = {"corpus": "cubic-monotone", "dim": 4}
CHAIN = {"g1": "number", "a": "vector", "b": "vector"}

# name -> (callable, valid keyword arguments, {mutated argument: its type});
# the types are "number", "int", "count" (an integer of at least 1), "str",
# "mapping", "numbers" (a list of numbers), "vector" (what numpy makes an
# array of reals of, NaN and infinities included: see _makes_reals), each
# with a trailing "?" where None is allowed, and "any" (no type rule)
CALLS = {
    "ProblemInstance": (
        ProblemInstance,
        dict(dim=2, operator=lambda u: u, data=[1.0, 2.0], m2_bound=0.0),
        {"dim": "count", "data": "vector", "known_solution": "vector?", "m2_bound": "number?"},
    ),
    "inner": (inner, dict(u=U, v=U), {"u": "vector", "v": "vector"}),
    "norm": (norm, dict(u=U), {"u": "vector"}),
    "as_vector": (as_vector, dict(x=U, dim=4), {"x": "vector", "dim": "any"}),
    "as_matrix": (as_matrix, dict(m=A, dim=3), {"m": "vector", "dim": "any"}),
    "apply_operator": (apply_operator, dict(problem=P, u=U), {"u": "vector"}),
    "jacobian": (jacobian, dict(problem=P, u=U), {"u": "vector"}),
    "reg_solve": (
        reg_solve, dict(a=A, epsilon=0.1, b=B), {"a": "vector", "epsilon": "number", "b": "vector"}
    ),
    "default_newton_tol": (default_newton_tol, dict(f_active=U), {"f_active": "vector"}),
    "solve_regularized": (
        solve_regularized,
        dict(problem=P, epsilon=0.1),
        {
            "epsilon": "number", "f_override": "vector?", "init": "vector?",
            "newton_tol": "number?", "max_iters": "count",
        },
    ),
    "regularization_path": (
        regularization_path,
        dict(problem=P, epsilons=[0.1, 0.01]),
        {"epsilons": "numbers"},
    ),
    "check_path": (
        check_path,
        dict(path=PATH, y=P.known_solution),
        {"y": "vector"},
    ),
    "minimal_norm_solution": (minimal_norm_solution, dict(problem=P), {}),
    "stopping_time": (stopping_time, dict(epsilon=0.1), {"epsilon": "number"}),
    "integrate_flow": (
        integrate_flow,
        dict(problem=P, epsilon=0.1, t_end=1.0, checkpoints=2),
        {
            "epsilon": "number", "t_end": "number", "checkpoints": "count", "u0": "vector?",
            "f_override": "vector?", "rtol": "number", "atol": "number",
        },
    ),
    "check_flow": (
        check_flow,
        dict(traj=FLOW, root_v=U),
        {"root_v": "vector", "at_stopping": "any"},
    ),
    "solve_to_stopping": (
        solve_to_stopping,
        dict(problem=P, epsilon=0.5, checkpoints=2),
        {
            "epsilon": "number", "checkpoints": "count", "u0": "vector?",
            "f_override": "vector?", "rtol": "number",
        },
    ),
    "solve_noisy_to_stopping": (
        solve_noisy_to_stopping,
        dict(problem=P, f_noisy=P.data, delta=0.1, b_exp=0.5, checkpoints=2),
        {
            "f_noisy": "vector", "delta": "number", "b_exp": "number",
            "checkpoints": "count", "rtol": "number",
        },
    ),
    "StepRule": (StepRule, dict(h_constant=0.5), {"h_constant": "number?", "h_list": "numbers?"}),
    "StepRule.constant_p": (StepRule.constant_p, dict(p=1.5), {"p": "number"}),
    "StepRule.constant_h": (StepRule.constant_h, dict(h=0.5), {"h": "number"}),
    "StepRule.explicit": (StepRule.explicit, dict(hs=[0.5, 1.0]), {"hs": "numbers"}),
    "Schedule": (
        Schedule,
        dict(kind="geometric", eps0=0.1, ratio=0.5),
        {"kind": "str", "eps0": "number", "ratio": "number", "floor": "number"},
    ),
    "Schedule.constant": (Schedule.constant, dict(epsilon=0.1), {"epsilon": "number"}),
    "Schedule.geometric": (
        Schedule.geometric,
        dict(eps0=0.1, ratio=0.5),
        {"eps0": "number", "ratio": "number", "floor": "number"},
    ),
    "Schedule.oracle": (Schedule.oracle, dict(floor=0.1), {"floor": "number"}),
    "run_iteration": (
        run_iteration,
        dict(problem=P, schedule=Schedule.constant(0.1), steps=StepRule.constant_h(0.5), max_n=3),
        {"max_n": "count", "u0": "vector?", "stop_residual": "number?"},
    ),
    "verify_step_recursion": (verify_step_recursion, dict(problem=P, history=HISTORY), {}),
    "simulate_recursion": (simulate_recursion, dict(g1=1.0, a=WEIGHTS, b=B), CHAIN),
    "unrolled_bound": (unrolled_bound, dict(g1=1.0, a=WEIGHTS, b=B), CHAIN),
    "exponential_majorant": (exponential_majorant, dict(g1=1.0, a=WEIGHTS, b=B), CHAIN),
    "geometric_weighted_sum": (
        geometric_weighted_sum,
        dict(g1=1.0, b=B, ratio=0.75),
        {"g1": "number", "b": "vector", "ratio": "number"},
    ),
    "check_bound_chain": (
        check_bound_chain,
        dict(g1=1.0, a=WEIGHTS, b=B),
        {**CHAIN, "slack": "number"},
    ),
    "make_problem": (
        make_problem,
        dict(name="cubic-monotone", dim=4, seed=2),
        {"name": "str", "dim": "count", "seed": "int"},
    ),
    "make_psd_singular_linear": (
        make_psd_singular_linear, dict(dim=4, seed=1), {"dim": "count", "seed": "int"}
    ),
    "make_hilbert_psd": (make_hilbert_psd, dict(dim=4), {"dim": "count"}),
    "make_cubic_monotone": (
        make_cubic_monotone, dict(dim=4, seed=2), {"dim": "count", "seed": "int"}
    ),
    "make_random_monotone": (
        make_random_monotone, dict(dim=4, seed=3), {"dim": "count", "seed": "int"}
    ),
    "add_noise": (
        add_noise, dict(f=U, delta=0.1, seed=0), {"f": "vector", "delta": "number", "seed": "int"}
    ),
    "problem_from_dict": (problem_from_dict, dict(spec=SPEC), {"spec": "mapping"}),
}
CASES = [(name, arg) for name, (_, _, args) in CALLS.items() for arg in args]


def _is_number(v) -> bool:
    finite = isinstance(v, int) or isinstance(v, float) and math.isfinite(v)
    return finite and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _makes_reals(v) -> bool:
    """Whether numpy makes an array of reals of ``v``: a number, or a list of
    numbers in which a bool is cast when it stands beside a number."""
    if not isinstance(v, list):
        return _is_real(v)
    return all(isinstance(x, (int, float)) for x in v) and (not v or any(map(_is_real, v)))


def must_reject(kind: str, value) -> bool:
    """Whether ``value`` is not of the type ``kind`` (its range aside, but for counts)."""
    if kind == "any":
        return False
    if value is None:
        return not kind.endswith("?")
    integer = _is_number(value) and (isinstance(value, int) or value.is_integer())
    return {
        "number": not _is_number(value),
        "int": not integer,
        "count": not integer or value < 1,
        "str": not isinstance(value, str),
        "mapping": not isinstance(value, dict),
        "numbers": not isinstance(value, list) or not all(_is_number(v) for v in value),
        "vector": not _makes_reals(value),
    }[kind.rstrip("?")]


def outcome(name: str, arg: str, value) -> str:
    """``"returned"`` or ``"<exception type>: <message>"`` for one mutated call;
    a warning from ``dsm`` is raised, so it shows as its own type."""
    func, kwargs, _ = CALLS[name]
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("error", module="dsm")
            func(**{**kwargs, arg: value})
        return "returned"
    except Exception as exc:  # anything escaping the call is the outcome under test
        return f"{type(exc).__name__}: {exc}"[:300]


def check(name: str, arg: str, value, result: str) -> None:
    case = f"{name}({arg}={value!r})"
    assert result == "returned" or result.startswith(("ValueError: ", "NumericalFailure: ")), (
        f"{case}: {result}"
    )
    if must_reject(CALLS[name][2][arg], value):
        assert result.startswith("ValueError: "), f"{case} must raise ValueError: {result}"


def outcomes_in_child(cases: list) -> list:
    """Run ``outcome`` for each case in a capped child (see ``conftest.run_capped``)."""
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(TESTS)!r})\n"
        "from test_library_boundary import outcome\n"
        f"cases = json.loads({json.dumps(cases)!r})\n"
        "print(json.dumps([outcome(*case) for case in cases]))\n"
    )
    return json.loads(run_capped(script))


VALUES = st.one_of(
    st.none(),
    st.sampled_from(["", "a", "0.5", "2"]),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0, -1, 2.5, 0.0]),
    st.lists(st.one_of(st.floats(0.01, 1.0), st.sampled_from(["0.5", None, True])), max_size=3),
    st.integers(-3, 3),
    st.floats(-3.0, 3.0, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CASES), VALUES)
# each escaped as a TypeError before every scalar went through the number rule
@example(("solve_regularized", "epsilon"), None)
@example(("reg_solve", "epsilon"), None)
@example(("integrate_flow", "rtol"), None)
@example(("regularization_path", "epsilons"), 0.1)
@example(("StepRule.explicit", "hs"), 0.5)
@example(("make_problem", "name"), [])
@example(("ProblemInstance", "dim"), "a")
@example(("check_bound_chain", "slack"), None)
# each was accepted before: True as 1.0, -1 or 2.5 Newton steps, NaN as "never stop", strings
@example(("solve_regularized", "epsilon"), True)
@example(("solve_regularized", "max_iters"), -1)
@example(("solve_regularized", "max_iters"), 2.5)
@example(("run_iteration", "stop_residual"), math.nan)
@example(("Schedule.constant", "epsilon"), "0.1")
@example(("StepRule.constant_h", "h"), "0.5")
@example(("regularization_path", "epsilons"), ["0.1", "0.01"])
# each was converted by numpy before: None as NaN, "2" as 2.0, True as 1.0
@example(("norm", "u"), None)
@example(("norm", "u"), "2")
@example(("norm", "u"), True)
@example(("norm", "u"), [True])
@example(("default_newton_tol", "f_active"), None)
# each was converted by numpy before: "2" as 2.0, True as 1.0
@example(("as_vector", "x"), ["2", "3", "4", "5"])
@example(("inner", "v"), [True, True, True, True])
@example(("reg_solve", "b"), ["1", "2", "3"])
@example(("as_matrix", "m"), [[True, False, False], [False, True, False], [False, False, True]])
def test_mutated_argument_returns_or_raises_value_error(case, value):
    name, arg = case
    check(name, arg, value, outcome(name, arg, value))


def test_huge_values_are_capped_or_rejected():
    cases = [[name, arg, value] for name, arg in CASES for value in HUGE]
    for (name, arg, value), result in zip(cases, outcomes_in_child(cases)):
        check(name, arg, value, result)


def test_add_noise_rejects_an_empty_vector():
    # its only draw is zero, which was redrawn forever; the child has a timeout
    outcome = capped_outcome("add_noise", "", "add_noise([], 0.1, 0)")
    assert outcome == "ValueError: f must be non-empty"
