"""Continuous regularized Newton flow, evaluated as a Newton homotopy.

The flow is ``du/dt = -(B'(u) + eps I)^{-1} F(u)`` with the regularized
residual ``F(u) = B(u) + eps*u - f`` and a fixed eps > 0.  Along it
``dF/dt = -F``, so ``F(u(t)) = exp(-t) F(u0)`` exactly, and ``B + eps I``
is strongly monotone, so ``u(t)`` is the unique root of
``B(u) + eps*u = f + exp(-t) F(u0)``.  Each checkpoint is one damped Newton
solve of that equation, started from a quadratic predictor in s = exp(-t)
(continuation as in Allgower and Georg, *Numerical Continuation Methods*,
1990), so the cost does not grow with the horizon.  Residuals are recomputed
from the operator, so the decay law is checked independently of the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import NumericalFailure, ProblemInstance, _as_count, _positive, as_vector, norm
from .regroot import NEWTON_CAP, _damped_newton, _predict, _residual

__all__ = [
    "FlowResult",
    "residual_value",
    "stopping_time",
    "integrate_flow",
    "StoppingResult",
    "solve_to_stopping",
    "NoisyStoppingResult",
    "solve_noisy_to_stopping",
]

MAX_CHECKPOINTS = 1000  # integrate_flow holds (checkpoints + 1) x dim states
ROUNDOFF_FACTOR = 16.0  # c of each checkpoint's roundoff floor; see integrate_flow


def residual_value(
    problem: ProblemInstance, epsilon: float, u: np.ndarray, f_override=None
) -> float:
    """Regularized residual norm |B(u) + eps*u - f| at a single point."""
    epsilon = _positive(epsilon, "epsilon")
    f_active = problem.data if f_override is None else as_vector(f_override, problem.dim, "f")
    return norm(_residual(problem, epsilon, u, f_active))


def stopping_time(epsilon: float) -> float:
    """Flow horizon matched to eps: the time where the flow iterate
    is within ``g(0) * eps`` of the regularized root."""
    epsilon = _positive(epsilon, "epsilon")
    if not epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1) for a positive horizon, got {epsilon!r}")
    return -2.0 * math.log(epsilon)


@dataclass(frozen=True)
class FlowResult:
    """Trajectory of the regularized Newton flow at checkpoint times.

    ``states[k]`` is the iterate at ``times[k]`` (row 0 is the initial
    point at t = 0); ``residuals[k]`` is the measured regularized residual
    there, recomputed from the operator.  Over all checkpoints,
    ``rhs_evals`` counts shifted solves (each the flow field at shifted
    data), ``accepted`` Newton steps and ``rejected`` line-search halvings.
    """

    epsilon: float
    times: np.ndarray
    states: np.ndarray
    residuals: np.ndarray
    accepted: int
    rejected: int
    rhs_evals: int


def integrate_flow(
    problem: ProblemInstance,
    epsilon: float,
    t_end: float,
    checkpoints: int = 10,
    u0=None,
    f_override=None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> FlowResult:
    """Evaluate the flow at equispaced checkpoints over [0, t_end].

    ``checkpoints`` counts the recording times after t = 0, so the result
    holds ``checkpoints + 1`` rows; it is an integer of at most
    ``MAX_CHECKPOINTS``.  The state at ``t_k`` solves ``F(u) = r_k`` with
    ``r_k = exp(-t_k) F(u0)``, by damped Newton from ``start_k``, the quadratic
    predictor in ``s = exp(-t)`` through the latest three states, to
    ``|F(u) - r_k| <= rtol*|r_k| + min(atol, floor_k)``.  The roundoff floor
    ``floor_k = c sqrt(n) u (|f + r_k| + eps |start_k|)``, ``u`` the float64
    machine epsilon and ``c = ROUNDOFF_FACTOR = 16``, is attainable: at the
    corpus roots Newton settles below ``0.6 floor_k / c``.  So ``atol`` only
    lowers the floor.  Missing the tolerance within 80 Newton steps, or a
    stalled line search, raises :class:`NumericalFailure`.
    """
    t_end = _positive(t_end, "t_end")
    checkpoints = _as_count(checkpoints, "checkpoints", cap=MAX_CHECKPOINTS)
    rtol, atol = (_positive(tol, "each of rtol and atol") for tol in (rtol, atol))
    epsilon = _positive(epsilon, "epsilon")
    f_active = (
        problem.data if f_override is None else as_vector(f_override, problem.dim, "f")
    )
    u = np.zeros(problem.dim) if u0 is None else as_vector(u0, problem.dim, "u0").copy()
    res0 = _residual(problem, epsilon, u, f_active)
    times = np.linspace(0.0, t_end, checkpoints + 1)
    states = np.empty((checkpoints + 1, problem.dim))
    states[0] = u
    known = [(1.0, states[0])]  # (s, u(s)) with s = exp(-t), as views of states
    unit_floor = ROUNDOFF_FACTOR * math.sqrt(problem.dim) * np.finfo(float).eps
    steps = halvings = 0
    for k in range(1, checkpoints + 1):
        s = math.exp(-times[k])
        r = s * res0
        shifted = f_active + r
        start = _predict(known[-3:], s)
        tol = rtol * norm(r) + min(atol, unit_floor * (norm(shifted) + epsilon * norm(start)))
        try:
            u, res_norm, iters, cuts = _damped_newton(
                problem, epsilon, shifted, start, tol, NEWTON_CAP
            )
        except NumericalFailure as exc:
            raise NumericalFailure(f"flow at t={times[k]:.6g}: {exc}") from exc
        if res_norm > tol:
            raise NumericalFailure(
                f"flow: Newton missed the tolerance {tol:.3e} at eps={epsilon:.3e}, "
                f"t={times[k]:.6g} within {NEWTON_CAP} steps, residual {res_norm:.3e}"
            )
        states[k] = u
        known.append((s, states[k]))
        steps += iters
        halvings += cuts

    residuals = np.array([norm(_residual(problem, epsilon, u, f_active)) for u in states])
    return FlowResult(
        epsilon=epsilon,
        times=times,
        states=states,
        residuals=residuals,
        accepted=steps,
        rejected=halvings,
        rhs_evals=steps,
    )


@dataclass(frozen=True)
class StoppingResult:
    """Flow iterate at the eps-matched horizon, with its trajectory."""

    u_final: np.ndarray
    trajectory: FlowResult


def solve_to_stopping(
    problem: ProblemInstance,
    epsilon: float,
    checkpoints: int = 10,
    u0=None,
    f_override=None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> StoppingResult:
    """Run the flow, on ``f_override`` if given, up to t = stopping_time(epsilon).

    At that horizon the iterate sits within ``g(0) * epsilon`` of the
    regularized root, so pairing this with a decreasing epsilon sequence
    drives the iterate to the minimal-norm solution.
    """
    traj = integrate_flow(
        problem, epsilon, stopping_time(epsilon), checkpoints=checkpoints, u0=u0,
        f_override=f_override, rtol=rtol, atol=atol,
    )
    return StoppingResult(u_final=traj.states[-1], trajectory=traj)


@dataclass(frozen=True)
class NoisyStoppingResult:
    """Noisy-data flow iterate at the horizon matched to the noise level."""

    w_final: np.ndarray
    epsilon_used: float
    trajectory: FlowResult


def solve_noisy_to_stopping(
    problem: ProblemInstance,
    f_noisy,
    delta: float,
    b_exp: float,
    checkpoints: int = 10,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> NoisyStoppingResult:
    """Run the flow on noisy data with the coupled choice eps = delta**b_exp.

    Any exponent in (0, 1) balances the two error terms: the gap to the
    noisy root scales like delta/eps -> 0 while eps -> 0 sends that root
    to the minimal-norm solution.
    """
    f_noisy = as_vector(f_noisy, problem.dim, "f_noisy")
    delta = _positive(delta, "delta")
    if not delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    b_exp = _positive(b_exp, "b_exp")
    if not b_exp < 1.0:
        raise ValueError(f"b_exp must lie in (0, 1), got {b_exp!r}")
    eps = delta**b_exp
    res = solve_to_stopping(
        problem, eps, checkpoints=checkpoints, f_override=f_noisy, rtol=rtol, atol=atol
    )
    return NoisyStoppingResult(w_final=res.u_final, epsilon_used=eps, trajectory=res.trajectory)
