"""Continuous regularized Newton flow and its adaptive integrator.

The flow is ``du/dt = -(B'(u) + eps I)^{-1} (B(u) + eps u - f)`` with a
fixed eps > 0.  Along exact trajectories the regularized residual
``g(t) = |B(u(t)) + eps u(t) - f|`` decays as ``g(0) * exp(-t)``, so the
integrator is held to tight tolerances and the suite checks the measured
residuals against that law independently of the stepper.

Time stepping is an embedded 5(4) Runge-Kutta pair (Dormand-Prince
coefficients) with the first-same-as-last economization.  Steps are
clamped to land exactly on the requested checkpoint times so recorded
states are never interpolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problem import NumericalFailure, ProblemInstance, _as_count, as_vector, norm
from .regroot import _newton_direction, _residual

__all__ = [
    "FlowResult",
    "residual_value",
    "flow_field",
    "stopping_time",
    "integrate_flow",
    "StoppingResult",
    "solve_to_stopping",
    "NoisyStoppingResult",
    "solve_noisy_to_stopping",
]

# Dormand-Prince 5(4) tableau.  _E is the difference between the 5th- and
# 4th-order weight rows, so h * (k @ _E) estimates the local error.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = 1.0 / 5.0
MAX_CHECKPOINTS = 1000  # integrate_flow holds (checkpoints + 1) x dim states


def residual_value(
    problem: ProblemInstance, epsilon: float, u: np.ndarray, f_override=None
) -> float:
    """Regularized residual norm |B(u) + eps*u - f| at a single point."""
    f_active = problem.data if f_override is None else as_vector(f_override, problem.dim, "f")
    return norm(_residual(problem, epsilon, u, f_active))


def flow_field(
    problem: ProblemInstance, epsilon: float, f_override=None
) -> Callable[[np.ndarray], np.ndarray]:
    """Right-hand side of the regularized Newton flow as a closure."""
    if not (epsilon > 0) or not np.isfinite(epsilon):
        raise ValueError("epsilon must be a positive finite real")
    f_active = (
        problem.data if f_override is None else as_vector(f_override, problem.dim, "f")
    )

    def rhs(u: np.ndarray) -> np.ndarray:
        return -_newton_direction(problem, epsilon, u, _residual(problem, epsilon, u, f_active))

    return rhs


def stopping_time(epsilon: float) -> float:
    """Integration horizon matched to eps: the time where the flow iterate
    is within ``g(0) * eps`` of the regularized root."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1) for a positive horizon")
    return -2.0 * math.log(epsilon)


@dataclass(frozen=True)
class FlowResult:
    """Trajectory of the regularized Newton flow at checkpoint times.

    ``states[k]`` is the iterate at ``times[k]`` (row 0 is the initial
    point at t = 0); ``residuals[k]`` is the measured regularized residual
    there, recomputed from the operator rather than from stepper
    internals.
    """

    epsilon: float
    times: np.ndarray
    states: np.ndarray
    residuals: np.ndarray
    accepted: int
    rejected: int
    rhs_evals: int


def _error_norm(delta: np.ndarray, y: np.ndarray, y_new: np.ndarray,
                rtol: float, atol: float) -> float:
    # an overflowing ratio just means certain rejection, so keep it quiet
    with np.errstate(over="ignore", divide="ignore"):
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        return float(np.sqrt(np.mean((delta / scale) ** 2)))


def _initial_step(rhs, y0, f0, t_end, rtol, atol):
    # standard two-evaluation warm-up estimate for the first step size;
    # absurdly tight tolerances overflow the scaled norms, which simply
    # drives the estimate to its floor
    with np.errstate(over="ignore", divide="ignore"):
        scale = atol + rtol * np.abs(y0)
        d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
        d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
        h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
        y1 = y0 + h0 * f0
        f1 = rhs(y1)
        d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXP
    return min(100 * h0, h1, t_end)


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
    """Integrate the flow over [0, t_end], recording equispaced checkpoints.

    ``checkpoints`` counts the recording times after t = 0, so the result
    holds ``checkpoints + 1`` rows; it is an integer of at most
    ``MAX_CHECKPOINTS``.  Steps never straddle a checkpoint:
    the proposed step is shortened to hit it exactly.  A step size driven
    below ``1e-14 * t_end`` raises :class:`NumericalFailure`.
    """
    if not (t_end > 0) or not np.isfinite(t_end):
        raise ValueError("t_end must be a positive finite real")
    checkpoints = _as_count(checkpoints, "checkpoints", cap=MAX_CHECKPOINTS)
    if not (0 < rtol < math.inf and 0 < atol < math.inf):
        raise ValueError("rtol and atol must be positive finite reals")
    rhs = flow_field(problem, epsilon, f_override=f_override)
    y = (
        np.zeros(problem.dim)
        if u0 is None
        else as_vector(u0, problem.dim, "u0").copy()
    )
    times = np.linspace(0.0, t_end, checkpoints + 1)
    states = np.empty((checkpoints + 1, problem.dim))
    states[0] = y
    next_ck = 1

    k = np.empty((7, problem.dim))
    k[0] = rhs(y)
    evals = 1
    h = _initial_step(rhs, y, k[0], t_end, rtol, atol)
    evals += 1
    accepted = rejected = 0
    t = 0.0
    h_floor = 1e-14 * t_end

    while next_ck <= checkpoints:
        if h < h_floor:
            raise NumericalFailure(
                f"flow step size underflow at t={t:.6g} (h={h:.3e})"
            )
        clamped = False
        if t + h >= times[next_ck]:
            h_use = times[next_ck] - t
            clamped = True
        else:
            h_use = h
        for i in range(1, 7):
            k[i] = rhs(y + h_use * (_A[i - 1] @ k[:i]))
        evals += 6
        y_new = y + h_use * (_B5 @ k)
        err = _error_norm(h_use * (_E @ k), y, y_new, rtol, atol)
        if err <= 1.0:
            accepted += 1
            t = times[next_ck] if clamped else t + h_use
            y = y_new
            k[0] = k[6]  # first stage of the next step is the last of this one
            if clamped:
                states[next_ck] = y
                next_ck += 1
            factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** -_ORDER_EXP
            h = h_use * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        else:
            rejected += 1
            h = h_use * max(_MIN_FACTOR, _SAFETY * err ** -_ORDER_EXP)

    residuals = np.array(
        [
            residual_value(problem, epsilon, states[i], f_override=f_override)
            for i in range(checkpoints + 1)
        ]
    )
    return FlowResult(
        epsilon=float(epsilon),
        times=times,
        states=states,
        residuals=residuals,
        accepted=accepted,
        rejected=rejected,
        rhs_evals=evals,
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
    """Integrate the flow, on ``f_override`` if given, up to t = stopping_time(epsilon).

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
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if not (0.0 < b_exp < 1.0):
        raise ValueError("b_exp must lie in (0, 1)")
    eps = delta**b_exp
    res = solve_to_stopping(
        problem, eps, checkpoints=checkpoints, f_override=f_noisy, rtol=rtol, atol=atol
    )
    return NoisyStoppingResult(w_final=res.u_final, epsilon_used=eps, trajectory=res.trajectory)
