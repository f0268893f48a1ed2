"""Dense solves of the shifted systems (A + eps*I) x = b.

Every Newton step and every flow right-hand side reduces to one of these
solves.  When A has positive-semidefinite symmetric part (the derivative of
a monotone operator always does), the shifted matrix is invertible with
``|x| <= |b| / eps``, and the solver enforces a tight residual contract so
downstream bound checks can trust the returned solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import NumericalFailure, _finite, _positive, as_matrix, as_vector, norm

__all__ = ["RegSolveReport", "reg_solve", "MAX_DIM"]

# dense LU is the only factorization offered; keep problems at desk scale
MAX_DIM = 2000


@dataclass(frozen=True)
class RegSolveReport:
    """Solution of (A + eps*I) x = b with its achieved residual norm."""

    solution: np.ndarray
    residual_norm: float
    epsilon: float


def reg_solve(a, epsilon: float, b) -> RegSolveReport:
    """Solve (A + eps*I) x = b by LU with partial pivoting.

    Parameters
    ----------
    a : array
        Square matrix, expected to have PSD symmetric part.
    epsilon : float
        Positive shift.
    b : array
        Right-hand side.

    Returns
    -------
    RegSolveReport
        The residual contract is ``|(A + eps I) x - b| <= 1e-10 * (1 + |b|)``.
        A singular shifted matrix, a non-finite solution, or a residual
        above the contract raises :class:`NumericalFailure` (the shift was
        too small for the conditioning, or the symmetric part is not PSD).
    """
    epsilon = _positive(epsilon, "epsilon")
    a = as_matrix(a, name="A")
    n = a.shape[0]
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds supported maximum {MAX_DIM}")
    b = as_vector(b, n, "b")

    # a + epsilon * np.eye(n) to the bit: + 0.0 turns each -0.0 into +0.0 as the eye's zeros do
    a_eps = np.add(a, 0.0, order="C")
    a_eps.ravel()[:: n + 1] += epsilon
    tol = 1e-10 * (1.0 + norm(b))
    try:
        x = np.linalg.solve(a_eps, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"linsolve: shifted matrix is singular at dim {n}: {exc}") from exc
    if not _finite(x):
        raise NumericalFailure(f"linsolve: solve at dim {n} produced non-finite values")

    res_norm = norm(b - a_eps @ x)
    if not res_norm <= tol:  # a NaN residual fails too
        raise NumericalFailure(
            f"linsolve: regularized solve at dim {n} is singular to working precision "
            f"(residual {res_norm:.3e} > tolerance {tol:.3e}); "
            "the shift may be too small for the conditioning"
        )
    return RegSolveReport(solution=x, residual_norm=res_norm, epsilon=epsilon)
