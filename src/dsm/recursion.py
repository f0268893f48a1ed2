"""Scalar gap recursions g_{n+1} <= (1 - a_n) g_n + b_n and their bounds.

The discrete solver's convergence proof reduces to this one-dimensional
recursion with contraction weights a_n in (0, 1/2] and perturbations
b_n >= 0 (the drift between consecutive regularized roots).  Three
routes to the same ceiling live here:

* the recursion itself, run at equality (the extremal trajectory),
* the unrolled sum-of-products bound, composed as a prefix scan,
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

from .problem import _TINY, Check, _coerce, _non_negative, _worst, as_vector

__all__ = [
    "simulate_recursion",
    "unrolled_bound",
    "exponential_majorant",
    "geometric_weighted_sum",
    "ChainReport",
    "check_bound_chain",
]


def _validate(g1, a, b):
    a = as_vector(a, name="weights a")
    b = as_vector(b, a.size, "perturbations b")
    if a.size == 0:
        raise ValueError("need at least one step")
    for name, x, ok, rule in (
        ("a", a, (a > 0.0) & (a <= 0.5), "weights a must lie in (0, 0.5]"),
        ("b", b, b >= 0.0, "perturbations b must be non-negative"),
    ):
        if not ok.all():  # name the first offending term
            k = int(np.argmin(ok))
            raise ValueError(f"{rule}, got {name}[{k}] = {float(x[k])!r}")
    g1 = _non_negative(g1, "g1")
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
    with products over steps up to m: the maps ``x -> (1 - a_k) x + b_k``,
    k < m, composed and applied to g1.  A doubling scan (Kogge & Stone 1973;
    Blelloch 1990) gives every prefix in about log2(n) vector passes with no
    division: pass s = 1, 2, 4, ... composes each prefix with the one s maps
    before it, so products associate as that binary tree, not left to right.
    """
    g1, a, b = _validate(g1, a, b)
    prod = 1.0 - a  # prod[k], acc[k]: the maps up to k, as x -> prod x + acc
    acc = b.copy()
    s = 1
    while s < a.size:
        acc[s:] = prod[s:] * acc[:-s] + acc[s:]
        prod[s:] = prod[s:] * prod[:-s]
        s *= 2
    return np.concatenate(([g1], acc + g1 * prod))


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
    Kept public: acceptance criterion 8 checks it against the direct sum.
    """
    ratio = _coerce(ratio, float, "ratio")
    if not 0.5 <= ratio < 1.0:
        raise ValueError(f"ratio must lie in [0.5, 1), got {ratio!r}")
    g1, _, b = _validate(g1, np.full(np.size(b), 1.0 - ratio), b)
    out = np.empty(b.size + 1)
    out[0] = g1
    for m in range(1, b.size + 1):
        powers = ratio ** np.arange(m - 1, -1, -1)
        out[m] = float(powers @ b[:m]) + g1 * ratio ** m
    return out


@dataclass(frozen=True)
class ChainReport(Check):
    """The ``induction-chain`` check, with the three sequences it compares."""

    simulated: np.ndarray
    unrolled: np.ndarray
    majorant: np.ndarray


def check_bound_chain(g1, a, b, slack: float = 1e-12) -> ChainReport:
    """Verify simulated <= unrolled <= majorant pointwise, up to ``slack``.

    The first comparison is an identity in exact arithmetic, so the slack
    only absorbs rounding; the second is a strict mathematical dominance.
    ``observed`` is the worst ``(sim - unr) / unr`` or ``(unr - maj) / maj``,
    floored at 0; the chain passes when it is at most ``bound``, the slack.
    Sequences that overflow make it NaN or inf, a failure, not a warning.
    """
    slack = _non_negative(slack, "slack")
    with np.errstate(over="ignore", invalid="ignore"):
        sim = simulate_recursion(g1, a, b)
        unr = unrolled_bound(g1, a, b)
        maj = exponential_majorant(g1, a, b)
        excess = np.maximum(
            (sim - unr) / np.maximum(unr, _TINY), (unr - maj) / np.maximum(maj, _TINY)
        )
    return ChainReport("induction-chain", _worst(excess), slack, sim, unr, maj)
