"""Roots of the regularized equation B(v) + eps*v = f and the path eps -> 0.

For monotone B and eps > 0 the regularized equation has exactly one
solution, and as eps decreases those roots converge to the minimal-norm
solution of B(u) = f.  This module holds the regularized residual, its
shifted Newton direction, which the iteration steps along too, and the
damped Newton loop along it, which computes the roots and the flow's
checkpoints.  It walks regularization paths with warm starts and provides
minimal-norm ground truth for problems that admit an oracle.  All
quantitative bound checks in the test suite lean on these roots, so the
Newton tolerance defaults tight: ``1e-12 * (1 + |f|)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linsolve import reg_solve
from .problem import (
    Check,
    NumericalFailure,
    ProblemInstance,
    _as_count,
    _non_negative,
    _positive,
    apply_operator,
    as_vector,
    inner,
    jacobian,
    norm,
)

__all__ = [
    "RegRoot",
    "RegPathEntry",
    "RegPathResult",
    "default_newton_tol",
    "solve_regularized",
    "regularization_path",
    "check_path",
    "minimal_norm_solution",
]

# line-search floor: below this damping factor the model is not decreasing
MIN_DAMPING = 2.0 ** -30
NEWTON_CAP = 80  # Newton steps per solve: one root, or one flow checkpoint


def default_newton_tol(f_active: np.ndarray) -> float:
    return 1e-12 * (1.0 + norm(f_active))


def _residual(problem: ProblemInstance, epsilon: float, u: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The regularized residual B(u) + eps*u - f."""
    return apply_operator(problem, u) + epsilon * u - f


def _newton_direction(
    problem: ProblemInstance, epsilon: float, u: np.ndarray, res: np.ndarray
) -> np.ndarray:
    """The shifted Newton direction (B'(u) + eps I)^{-1} res; the flow, the
    iteration and the root all step along its negative."""
    return reg_solve(jacobian(problem, u), epsilon, res).solution


def _predict(known: list[tuple[float, np.ndarray]], eps: float) -> Optional[np.ndarray]:
    """Start of the root solve at eps, from roots ``(eps_i, V_i)`` already known.

    The Lagrange polynomial in eps through the (at most) three known roots
    nearest eps, one per eps value, the latest of equal ones; a quadratic
    predictor on the root curve ``eps -> V_eps``.  None when none is known.
    """
    nodes: dict[float, np.ndarray] = {}
    for e, v in sorted(reversed(known), key=lambda point: abs(point[0] - eps)):
        nodes.setdefault(e, v)
        if len(nodes) == 3:
            break
    if not nodes:
        return None
    weights = []  # plain loops: a comprehension costs more than the arithmetic here
    for e in nodes:
        w = 1.0
        for x in nodes:
            if x != e:
                w *= (eps - x) / (e - x)
        weights.append(w)
    return np.dot(weights, list(nodes.values()))


@dataclass(frozen=True)
class RegRoot:
    """One regularized root, with the residual it achieved.

    ``converged`` is False when the iteration cap was hit first; the best
    iterate is still returned.
    """

    epsilon: float
    v: np.ndarray
    residual_norm: float
    newton_iters: int
    converged: bool = True


def _damped_newton(
    problem: ProblemInstance,
    epsilon: float,
    f: np.ndarray,
    v: np.ndarray,
    tol: float,
    max_iters: int,
) -> tuple[np.ndarray, float, int, int]:
    """Damped Newton on B(v) + eps*v = f from ``v`` until ``|F(v)| <= tol``
    or ``max_iters`` steps; returns ``(v, |F(v)|, steps, halvings)``.

    Each step takes the shifted Newton direction ``d`` of the residual
    ``F`` and halves ``lam`` until ``|F(v - lam*d)| <= (1 - 0.25*lam) |F(v)|``;
    a stalled line search raises :class:`NumericalFailure`.
    """
    res = _residual(problem, epsilon, v, f)
    res_norm = norm(res)
    iters = halvings = 0
    while res_norm > tol and iters < max_iters:
        d = _newton_direction(problem, epsilon, v, res)
        lam = 1.0
        while True:
            trial = v - lam * d
            trial_res = _residual(problem, epsilon, trial, f)
            trial_norm = norm(trial_res)
            if trial_norm <= (1.0 - 0.25 * lam) * res_norm:
                break
            lam *= 0.5
            halvings += 1
            if lam < MIN_DAMPING:
                raise NumericalFailure(
                    f"regroot: Newton line search stalled at eps={epsilon:.3e}, "
                    f"iteration {iters}, residual {res_norm:.3e}"
                )
        v, res, res_norm = trial, trial_res, trial_norm
        iters += 1
    return v, res_norm, iters, halvings


def solve_regularized(
    problem: ProblemInstance,
    epsilon: float,
    f_override=None,
    init=None,
    newton_tol: float | None = None,
    max_iters: int = NEWTON_CAP,
) -> RegRoot:
    """Damped Newton for B(v) + eps*v = f (or an overriding right-hand side).

    A given ``newton_tol`` must be a positive finite real.  A stalled line
    search raises :class:`NumericalFailure`; exceeding ``max_iters``
    returns the best iterate flagged as unconverged.
    """
    epsilon = _positive(epsilon, "epsilon")
    max_iters = _as_count(max_iters, "max_iters")
    f_active = (
        problem.data if f_override is None else as_vector(f_override, problem.dim, "f")
    )
    if newton_tol is None:
        newton_tol = default_newton_tol(f_active)
    else:
        newton_tol = _positive(newton_tol, "newton_tol")
    v = np.zeros(problem.dim) if init is None else as_vector(init, problem.dim, "init").copy()
    v, res_norm, iters, _ = _damped_newton(problem, epsilon, f_active, v, newton_tol, max_iters)
    return RegRoot(
        epsilon=epsilon,
        v=v,
        residual_norm=res_norm,
        newton_iters=iters,
        converged=res_norm <= newton_tol,
    )


@dataclass(frozen=True)
class RegPathEntry:
    epsilon: float
    root: RegRoot
    v_norm: float
    error_to_y: Optional[float]


@dataclass(frozen=True)
class RegPathResult:
    """Roots along a decreasing regularization sequence.

    ``root_gaps[k]`` is the distance between consecutive roots
    ``|V_{k+1} - V_k|`` (one shorter than ``entries``).
    """

    entries: list[RegPathEntry]
    root_gaps: list[float]


def _eps_grid(epsilons, name: str = "epsilons") -> list[float]:
    """A non-empty, strictly decreasing sequence of positive finite reals, as a list."""
    if not (isinstance(epsilons, (list, tuple)) or np.ndim(epsilons) == 1) or len(epsilons) == 0:
        raise ValueError(f"{name} must be a non-empty sequence, got {epsilons!r}")
    eps_list = [_positive(e, f"{name} entry") for e in epsilons]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError(f"{name} must be strictly decreasing, got {eps_list}")
    return eps_list


def regularization_path(
    problem: ProblemInstance,
    epsilons: Sequence[float],
) -> RegPathResult:
    """Solve the regularized equation along a strictly decreasing eps grid.

    Each root seeds the next Newton run; the first runs from the zero
    vector, which biases the solve toward the minimal-norm branch.  Errors
    to the known solution are recorded when the problem carries one.
    Unconverged entries are kept and flagged on their :class:`RegRoot`
    rather than discarded.
    """
    y = problem.known_solution
    entries: list[RegPathEntry] = []
    prev_v: np.ndarray | None = None
    for eps in _eps_grid(epsilons):
        root = solve_regularized(problem, eps, init=prev_v)
        entries.append(
            RegPathEntry(
                epsilon=eps,
                root=root,
                v_norm=norm(root.v),
                error_to_y=None if y is None else norm(root.v - y),
            )
        )
        prev_v = root.v
    gaps = [
        norm(b.root.v - a.root.v) for a, b in zip(entries, entries[1:])
    ]
    return RegPathResult(entries=entries, root_gaps=gaps)


def check_path(path: RegPathResult, y, norm_slack: float, inner_slack: float) -> list[Check]:
    """The minimal-norm inequalities along ``path`` against its limit ``y``:
    ``norm-dominance``, the largest ``|V_eps|`` against ``|y| (1 + norm_slack)``, and
    ``error-inner-bound``, the largest ``|V_eps - y|^2 - (y, y - V_eps)`` against ``inner_slack``.
    """
    y = as_vector(y, path.entries[0].root.v.size, "y")
    norm_bound = norm(y) * (1.0 + _non_negative(norm_slack, "norm_slack"))
    inner_slack = _non_negative(inner_slack, "inner_slack")
    worst = max(norm(e.root.v - y) ** 2 - inner(y, y - e.root.v) for e in path.entries)
    return [
        Check("norm-dominance", max(e.v_norm for e in path.entries), norm_bound),
        Check("error-inner-bound", worst, inner_slack),
    ]


def minimal_norm_solution(problem: ProblemInstance) -> np.ndarray:
    """Ground-truth minimal-norm solution of B(u) = f: a copy of the stored
    ``known_solution``, which is the minimal-norm solution by contract and
    reproduces the data by construction (a linear problem built without one
    stores its least-squares solution).  Without one there is no oracle and
    ``ValueError`` is raised.
    """
    if problem.known_solution is None:
        raise ValueError(
            "no minimal-norm oracle for this problem "
            "(needs a stored known_solution)"
        )
    return problem.known_solution.copy()
