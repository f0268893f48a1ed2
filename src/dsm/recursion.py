"""Scalar gap recursions g_{n+1} <= (1 - a_n) g_n + b_n and their bounds.

The discrete solver's convergence proof reduces to this one-dimensional
recursion with contraction weights a_n in (0, 1/2] and perturbations
b_n >= 0 (the drift between consecutive regularized roots).  Three
routes to the same ceiling live here:

* the recursion itself, run at equality (the extremal trajectory),
* the unrolled sum-of-products bound, evaluated term by term,
* the exponential majorant obtained from 1 - a <= exp(-a).

The first two are equal in exact arithmetic and the third dominates
both, so checking the chain pointwise validates each against the others.
For constant weights the unrolled bound collapses to a geometric
weighted sum, provided separately as a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "simulate_recursion",
    "unrolled_bound",
    "exponential_majorant",
    "geometric_weighted_sum",
    "ChainReport",
    "check_bound_chain",
    "HorizonReport",
    "horizon_diagnostics",
]


def _validate(g1, a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError("a and b must be one-dimensional and equally long")
    if a.size == 0:
        raise ValueError("need at least one step")
    if not np.all((a > 0.0) & (a <= 0.5)):
        raise ValueError("weights a must lie in (0, 0.5]")
    if not np.all(b >= 0.0) or not np.all(np.isfinite(b)):
        raise ValueError("perturbations b must be finite and non-negative")
    g1 = float(g1)
    if not (g1 >= 0.0) or not np.isfinite(g1):
        raise ValueError("g1 must be a finite non-negative real")
    return g1, a, b


def simulate_recursion(g1, a, b) -> np.ndarray:
    """Run the recursion at equality; entry m is the value after m steps."""
    g1, a, b = _validate(g1, a, b)
    out = np.empty(a.size + 1)
    out[0] = g1
    for m in range(a.size):
        out[m + 1] = (1.0 - a[m]) * out[m] + b[m]
    return out


def unrolled_bound(g1, a, b) -> np.ndarray:
    """Sum-of-products form of the recursion ceiling.

    Entry m is ``sum_k b_k prod_{j>k} (1 - a_j) + g1 prod_j (1 - a_j)``
    with products over steps up to m, accumulated backward so no
    division by small products occurs.  ``cumprod`` and ``cumsum`` add
    and multiply in sequence, so every entry is bit-identical to the
    scalar walk over k = m..1; pairwise reductions (``sum``, ``@``) are
    avoided because they would change the last bits.
    """
    g1, a, b = _validate(g1, a, b)
    out = np.empty(a.size + 1)
    out[0] = g1
    q = 1.0 - a
    for m in range(1, a.size + 1):
        # walk k = m-1..0: prods[i] = q[m-1] * ... * q[k] and before[i],
        # the weight of b[k], is the product over the steps after k
        prods = np.cumprod(q[m - 1 :: -1])
        before = np.concatenate(([1.0], prods[:-1]))
        total = np.cumsum(b[m - 1 :: -1] * before)[-1]
        out[m] = total + g1 * prods[-1]
    return out


def exponential_majorant(g1, a, b) -> np.ndarray:
    """Ceiling with every product replaced by exp(-sum of weights)."""
    g1, a, b = _validate(g1, a, b)
    out = np.empty(a.size + 1)
    out[0] = g1
    for m in range(a.size):
        out[m + 1] = math.exp(-a[m]) * out[m] + b[m]
    return out


def geometric_weighted_sum(g1, b, ratio) -> np.ndarray:
    """Closed form of the unrolled bound for one constant weight.

    ``ratio`` is the per-step contraction 1 - a, so admissible values lie
    in [0.5, 1).  Entry m is ``sum_k b_k ratio^(m-k) + g1 ratio^m``.
    """
    ratio = float(ratio)
    if not (0.5 <= ratio < 1.0):
        raise ValueError("ratio must lie in [0.5, 1)")
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size == 0:
        raise ValueError("b must be a non-empty one-dimensional sequence")
    if not np.all(b >= 0.0) or not np.all(np.isfinite(b)):
        raise ValueError("perturbations b must be finite and non-negative")
    g1 = float(g1)
    if not (g1 >= 0.0) or not np.isfinite(g1):
        raise ValueError("g1 must be a finite non-negative real")
    out = np.empty(b.size + 1)
    out[0] = g1
    for m in range(1, b.size + 1):
        powers = ratio ** np.arange(m - 1, -1, -1)
        out[m] = float(powers @ b[:m]) + g1 * ratio ** m
    return out


@dataclass(frozen=True)
class ChainReport:
    simulated: np.ndarray
    unrolled: np.ndarray
    majorant: np.ndarray
    passed: bool


def check_bound_chain(g1, a, b, slack: float = 1e-12) -> ChainReport:
    """Verify simulated <= unrolled <= majorant pointwise, up to ``slack``.

    The first comparison is an identity in exact arithmetic, so the slack
    only absorbs rounding; the second is a strict mathematical dominance.
    """
    sim = simulate_recursion(g1, a, b)
    unr = unrolled_bound(g1, a, b)
    maj = exponential_majorant(g1, a, b)
    ok = bool(
        np.all(sim <= unr * (1.0 + slack)) and np.all(unr <= maj * (1.0 + slack))
    )
    return ChainReport(simulated=sim, unrolled=unr, majorant=maj, passed=ok)


@dataclass(frozen=True)
class HorizonReport:
    """Finite-horizon diagnostics for the recursion's convergence hypotheses.

    The hypotheses are limits (the weights must sum to infinity, the
    exponentially weighted perturbation tail must vanish) and cannot be
    decided from finite data, so everything here is a labeled trend, not
    a verdict.  ``tail_sums[m]`` is ``sum_k b_k exp(-(A_m - A_k))`` with
    A the running weight sum, up to entry m.
    """

    weight_sum: float
    weights_diverging_trend: bool
    tail_sums: np.ndarray
    tail_sum: float
    tail_nonincreasing_trend: bool


def horizon_diagnostics(a, b, horizon: int | None = None) -> HorizonReport:
    """Summarize the convergence hypotheses over a finite horizon.

    The weight trend asks whether the last half of the horizon still
    contributes more than 1% of the partial sum; the tail trend asks
    whether the weighted tail is nonincreasing over the last half.  The
    weights here only need to be positive (no 0.5 cap): this op explores
    hypotheses, including inadmissible ones, rather than running the
    recursion.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError("a and b must be one-dimensional and equally long")
    if horizon is None:
        horizon = a.size
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    if a.size < horizon:
        raise ValueError(f"need {horizon} terms, got {a.size}")
    a, b = a[:horizon], b[:horizon]
    if not np.all(a > 0.0) or not np.all(np.isfinite(a)):
        raise ValueError("weights a must be positive finite reals")
    if not np.all(b >= 0.0) or not np.all(np.isfinite(b)):
        raise ValueError("perturbations b must be finite and non-negative")

    partial = np.cumsum(a)
    half = horizon // 2
    weight_sum = float(partial[-1])
    diverging = (weight_sum - float(partial[half - 1])) > 0.01 * weight_sum

    # tail recurrence: T_{m+1} = exp(-a_{m+1}) * (T_m + b_m), T_1 = 0
    tails = np.empty(horizon)
    tails[0] = 0.0
    for m in range(1, horizon):
        tails[m] = math.exp(-a[m]) * (tails[m - 1] + b[m - 1])
    last_half = tails[half:]
    nonincreasing = bool(np.all(np.diff(last_half) <= 1e-15))
    return HorizonReport(
        weight_sum=weight_sum,
        weights_diverging_trend=bool(diverging),
        tail_sums=tails,
        tail_sum=float(tails[-1]),
        tail_nonincreasing_trend=nonincreasing,
    )
