"""Roots of the regularized equation B(v) + eps*v = f and the path eps -> 0.

For monotone B and eps > 0 the regularized equation has exactly one
solution, and as eps decreases those roots converge to the minimal-norm
solution of B(u) = f.  This module computes the roots by damped Newton
(sharing the shifted linear solve used everywhere else), walks
regularization paths with warm starts, and provides minimal-norm ground
truth for problems that admit an oracle.  All quantitative bound checks in
the test suite lean on these roots, so the Newton tolerance defaults tight:
``1e-12 * (1 + |f|)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linsolve import reg_solve
from .problem import (
    NumericalFailure,
    ProblemInstance,
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
    "minimal_norm_solution",
]

# line-search floor: below this damping factor the model is not decreasing
MIN_DAMPING = 2.0 ** -30


def default_newton_tol(f_active: np.ndarray) -> float:
    return 1e-12 * (1.0 + norm(f_active))


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


def solve_regularized(
    problem: ProblemInstance,
    epsilon: float,
    f_override=None,
    init=None,
    newton_tol: float | None = None,
    max_iters: int = 80,
) -> RegRoot:
    """Damped Newton for B(v) + eps*v = f (or an overriding right-hand side).

    Each step solves the shifted linearization and backtracks by halving
    until the residual satisfies the sufficient-decrease test
    ``|F(v + lam*d)| <= (1 - 0.25*lam) |F(v)|``.  A stalled line search
    raises :class:`NumericalFailure`; exceeding ``max_iters`` returns the
    best iterate flagged as unconverged.
    """
    if not (epsilon > 0) or not np.isfinite(epsilon):
        raise ValueError("epsilon must be a positive finite real")
    f_active = (
        problem.data if f_override is None else as_vector(f_override, problem.dim, "f")
    )
    if newton_tol is None:
        newton_tol = default_newton_tol(f_active)
    v = np.zeros(problem.dim) if init is None else as_vector(init, problem.dim, "init").copy()

    def residual(x: np.ndarray) -> np.ndarray:
        return apply_operator(problem, x) + epsilon * x - f_active

    res = residual(v)
    res_norm = norm(res)
    iters = 0
    while res_norm > newton_tol and iters < max_iters:
        step = reg_solve(jacobian(problem, v), epsilon, -res).solution
        lam = 1.0
        while True:
            trial = v + lam * step
            trial_res = residual(trial)
            trial_norm = norm(trial_res)
            if trial_norm <= (1.0 - 0.25 * lam) * res_norm:
                break
            lam *= 0.5
            if lam < MIN_DAMPING:
                raise NumericalFailure(
                    f"Newton line search stalled at eps={epsilon:.3e} "
                    f"(residual {res_norm:.3e})"
                )
        v, res, res_norm = trial, trial_res, trial_norm
        iters += 1
    return RegRoot(
        epsilon=float(epsilon),
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


def regularization_path(
    problem: ProblemInstance,
    epsilons: Sequence[float],
    newton_tol: float | None = None,
    max_iters: int = 80,
) -> RegPathResult:
    """Solve the regularized equation along a strictly decreasing eps grid.

    Each root seeds the next Newton run; the first runs from the zero
    vector, which biases the solve toward the minimal-norm branch.  Errors
    to the known solution are recorded when the problem carries one.
    Unconverged entries are kept and flagged on their :class:`RegRoot`
    rather than discarded.
    """
    eps_list = [float(e) for e in epsilons]
    if len(eps_list) == 0:
        raise ValueError("epsilons must be non-empty")
    if any(e <= 0 for e in eps_list):
        raise ValueError("epsilons must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilons must be strictly decreasing")

    y = problem.known_solution
    entries: list[RegPathEntry] = []
    prev_v: np.ndarray | None = None
    for eps in eps_list:
        root = solve_regularized(
            problem, eps, init=prev_v, newton_tol=newton_tol, max_iters=max_iters
        )
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


def minimal_norm_solution(problem: ProblemInstance) -> np.ndarray:
    """Ground-truth minimal-norm solution of B(u) = f.

    Linear problems get the SVD pseudoinverse solution (singular values
    below ``1e-12 * sigma_max`` are treated as zero), which is orthogonal
    to the kernel by construction.  Strictly monotone problems return the
    stored solution, unique by strict monotonicity.  Anything else has no
    oracle and raises ``ValueError``.
    """
    if problem.is_linear:
        m = jacobian(problem, np.zeros(problem.dim))
        u_mat, sing, vt = np.linalg.svd(m)
        cutoff = 1e-12 * (sing[0] if sing.size else 0.0)
        inv = np.divide(1.0, sing, out=np.zeros_like(sing), where=sing > cutoff)
        y = vt.T @ (inv * (u_mat.T @ problem.data))
    elif problem.is_strictly_monotone and problem.known_solution is not None:
        y = problem.known_solution.copy()
    else:
        raise ValueError(
            "no minimal-norm oracle for this problem "
            "(needs linearity or strict monotonicity with a stored solution)"
        )
    back = norm(apply_operator(problem, y) - problem.data)
    if back > 1e-9 * (1.0 + norm(problem.data)):
        raise NumericalFailure(
            f"minimal-norm oracle failed to reproduce the data (residual {back:.3e}); "
            "the equation may have no solution"
        )
    return y
