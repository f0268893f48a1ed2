"""Damped regularized Newton iteration with per-step regularization.

One step is ``u_{n+1} = u_n - h_n (B'(u_n) + eps_n I)^{-1}
(B(u_n) + eps_n u_n - f)``.  With step sizes h_n in (0, 1] and a
regularization at or above twice the curvature constant times the gap to
the regularized root, the gap sequence ``g_n = |u_n - V_n|`` obeys the
contraction ``g_{n+1} <= (1 - 0.5 h_n) g_n + |V_{n+1} - V_n|``, which
:func:`verify_step_recursion` checks step by step against recorded roots.

Three schedules are provided.  The oracle schedule ``eps_n = 2 c g_n``
is implicit (g_n depends on eps_n through the root) and, started from
``log eps`` extrapolated cubically in n (step 0 from its a-priori bound)
with the previous step's secant slope carried over, takes about 2.5 root
solves per step (eps within 1e-4 of its root), each from a degree-5
predictor on ``eps -> V_eps``: it is meant for verification at corpus scale.
The practical mode is the geometric ``eps_n = max(eps_min, eps0 * q^n)``;
a constant one serves closed-form tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .flow import ROUNDOFF_FACTOR
from .linsolve import reg_solve
from .problem import (
    _TINY,
    Check,
    NumericalFailure,
    ProblemInstance,
    _as_count,
    _in_unit_interval,
    _non_negative,
    _positive,
    _worst,
    apply_operator,
    as_vector,
    jacobian,
    norm,
)
from .regroot import PREDICT_NODES, RegRoot, _predict, solve_regularized

__all__ = [
    "StepRule",
    "Schedule",
    "IterationStep",
    "IterationHistory",
    "run_iteration",
    "StepBoundRecord",
    "RecursionReport",
    "verify_step_recursion",
]

MAX_STEPS = 10_000  # run_iteration keeps every iterate and root it visits
STEP_SLACK = 1e-8  # relative slack, and bound, of recursion-step, monotone-pairing and taylor-remainder
_MAX_FP_EVALS = 100
_ACCEPT_WINDOW = 1e-4  # the oracle accepts 0 <= phi <= 1e-4 eps; also its bracket's width stop
_CUBIC_TRUST = 2.0  # the cubic first guess must lie within this factor of the quadratic


def _check_h(h: float) -> float:
    h = _positive(h, "step size h")
    if not h <= 1.0:
        raise ValueError(f"step size h must lie in (0, 1], got {h!r}")
    return h


@dataclass(frozen=True)
class StepRule:
    """Step sizes h_n, either one constant or an explicit list.

    Constant rules are usually given through the contraction ratio p via
    ``constant_p``: h = 2 ln(p), and p in (1, sqrt(e)] keeps h in (0, 1].
    """

    h_constant: Optional[float] = None
    h_list: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if (self.h_constant is None) == (self.h_list is None):
            raise ValueError("exactly one of h_constant and h_list must be set")
        if self.h_constant is not None:
            object.__setattr__(self, "h_constant", _check_h(self.h_constant))
        else:
            if np.ndim(self.h_list) != 1 or len(self.h_list) == 0:
                raise ValueError(f"explicit step list must be non-empty, got {self.h_list!r}")
            object.__setattr__(self, "h_list", tuple(_check_h(h) for h in self.h_list))

    @classmethod
    def constant_p(cls, p: float) -> "StepRule":
        p = _positive(p, "contraction ratio p")
        if not 1.0 < p <= math.sqrt(math.e):
            raise ValueError(f"contraction ratio p must lie in (1, sqrt(e)], got {p!r}")
        # p = sqrt(e) means h = 1 exactly; clamp the log round-trip
        return cls(h_constant=min(2.0 * math.log(p), 1.0))

    @classmethod
    def constant_h(cls, h: float) -> "StepRule":
        return cls(h_constant=h)

    @classmethod
    def explicit(cls, hs: Sequence[float]) -> "StepRule":
        return cls(h_list=hs)

    def h_at(self, n: int) -> float:
        if self.h_constant is not None:
            return self.h_constant
        return self.h_list[n]

    @property
    def limit(self) -> Optional[int]:
        """Number of steps an explicit list can supply (None if unlimited)."""
        return None if self.h_list is None else len(self.h_list)


@dataclass(frozen=True)
class Schedule:
    """Rule for choosing eps_n at each step.

    ``constant`` holds one value.  ``geometric`` decays from eps0 by the
    ratio q each step, clamped from below by ``floor``.  ``oracle`` solves
    ``eps = max(2 c g(eps), floor)`` with ``g(eps) = |u_n - V_eps|`` and
    c half the problem's curvature bound, by a bracketed secant that starts
    at ``log eps`` extrapolated cubically in n, steps on the previous
    step's slope and returns a feasible eps within a relative 1e-4 of the
    root, so ``eps_n >= 2 c g_n`` holds exactly, at 2.5 root solves a step.
    When that bound is zero (linear problems) the oracle value degenerates
    to zero, so the floor must be positive and becomes the schedule.
    """

    kind: str
    epsilon: Optional[float] = None
    eps0: Optional[float] = None
    ratio: Optional[float] = None
    floor: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "geometric", "oracle"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        object.__setattr__(self, "floor", _non_negative(self.floor, "floor"))
        if self.kind == "constant":
            object.__setattr__(self, "epsilon", _positive(self.epsilon, "epsilon"))
        if self.kind == "geometric":
            object.__setattr__(self, "eps0", _positive(self.eps0, "eps0"))
            object.__setattr__(self, "ratio", _in_unit_interval(self.ratio, "ratio"))

    @classmethod
    def constant(cls, epsilon: float) -> "Schedule":
        return cls(kind="constant", epsilon=epsilon)

    @classmethod
    def geometric(cls, eps0: float, ratio: float, floor: float = 0.0) -> "Schedule":
        return cls(kind="geometric", eps0=eps0, ratio=ratio, floor=floor)

    @classmethod
    def oracle(cls, floor: float = 0.0) -> "Schedule":
        """The oracle schedule eps_n = 2 c g_n; needs root solves per step."""
        return cls(kind="oracle", floor=floor)


@dataclass(frozen=True)
class IterationStep:
    """Iterate n with the regularization chosen for it.

    ``h`` is the step size applied to move away from this iterate (None
    on the final row).  ``root``, ``gap`` and ``root_gap`` are populated
    when roots are tracked: gap is ``|u_n - V_n|`` and root_gap is
    ``|V_{n+1} - V_n|`` (None on the final row).
    """

    index: int
    u: np.ndarray
    epsilon: float
    h: Optional[float]
    residual: float
    root: Optional[np.ndarray] = None
    gap: Optional[float] = None
    root_gap: Optional[float] = None


@dataclass(frozen=True)
class IterationHistory:
    """The visited iterates, with the checks of :func:`run_iteration` on
    their steps (``assumptions``) and its ``curvature_ratio``."""

    steps: list[IterationStep]
    converged: bool
    assumptions: tuple[Check, ...] = ()
    curvature_ratio: Optional[float] = None

    @property
    def gaps(self) -> Optional[np.ndarray]:
        if self.steps[0].gap is None:
            return None
        return np.array([s.gap for s in self.steps])

    @property
    def residuals(self) -> np.ndarray:
        return np.array([s.residual for s in self.steps])


def _curvature_constant(problem: ProblemInstance) -> float:
    if problem.m2_bound is None:
        raise ValueError("oracle schedule needs the problem's curvature bound")
    return 0.5 * problem.m2_bound


def _oracle_epsilon(
    problem: ProblemInstance,
    u: np.ndarray,
    b: np.ndarray,
    c: float,
    floor: float,
    known: list[tuple[float, np.ndarray]],
    n: int,
    slope: Optional[float] = None,
) -> tuple[RegRoot, Optional[float]]:
    """Solve ``phi(eps) = eps - max(2 c |u - V_eps|, floor) = 0`` at step n.

    The first evaluation at step 0 is ``c |u| + sqrt(c^2 |u|^2 + 2 c
    |b - f|)``, ``b = B(u)``, where ``phi >= 0`` since strong monotonicity gives
    ``|u - V_eps| <= |B(u) + eps u - f| / eps``.  Later it is ``log eps``
    extrapolated in n from the last steps (``known``): the cubic through
    four, kept only within a factor ``_CUBIC_TRUST`` (2) of the quadratic
    through three, ``eps_{n-1}^3 eps_{n-3} / eps_{n-2}^3``, which it falls
    back to (``eps_{n-1}^2 / eps_{n-2}`` with two).  The second is a
    secant step on ``slope``, the previous step's slope of ``phi`` between
    its last two evaluations, when that is positive and the step lands at
    or above the floor.  Otherwise, and after it, the fixed-point map
    ``eps <- max(2 c g(eps), floor)`` is hopped until the root
    is bracketed by an infeasible end ``lo`` (phi < 0) and a feasible end
    ``hi`` (phi > 0).  A bracketed secant then closes the bracket: regula
    falsi with Anderson-Bjorck damping of a stale end, aimed at the middle
    of the acceptance window, with bisection as the fallback when the
    secant leaves the bracket.  Each root solve starts from
    :func:`_predict` on the roots of the last six steps (``known``) and
    every root evaluated since.  Only an evaluated root with ``phi >= 0``
    is returned, the first with ``phi <= 1e-4 eps`` or else the feasible
    end ``hi`` once ``|hi - lo| <= 1e-4 hi``, so ``eps >= 2 c g`` holds
    exactly for the root and gap the iteration records; the window
    (``_ACCEPT_WINDOW``) bounds only how far eps sits above the smallest
    feasible one.  The benchmark's corpus takes about 2.5 root solves per
    step and 0.98 Newton iterations per root solve.  Returns the
    :class:`RegRoot`, which carries eps, and this step's slope for the
    next (None after a single evaluation).
    """
    if c == 0.0:
        if floor <= 0.0:
            raise ValueError(
                "oracle schedule on a flat (zero-curvature) problem needs a "
                "positive floor"
            )
        return solve_regularized(problem, floor, init=_predict(known, floor)), None

    if known:
        warm_eps = known[-1][0]
    else:  # the a-priori bound, feasible: |u - V_eps| <= |B(u) + eps u - f| / eps
        a, r = c * norm(u), norm(b - problem.data)
        warm_eps = a + math.sqrt(a * a + 2.0 * c * r)
    if len(known) > 2:  # eps_{n-1}^3 eps_{n-3} / eps_{n-2}^3: log eps quadratic in n
        warm_eps *= (warm_eps / known[-2][0]) ** 2 * (known[-3][0] / known[-2][0])
    elif len(known) > 1:  # eps_{n-1}^2 / eps_{n-2}: the last ratio carried on
        warm_eps *= warm_eps / known[-2][0]
    if len(known) > 3:  # log eps cubic in n, kept within _CUBIC_TRUST of the quadratic
        e1, e2, e3, e4 = (point[0] for point in known[-1:-5:-1])
        cubic = (e1 / e2) * (e3 / e2) * (e3 / e2) * (e3 / e4)  # inf or 0, not an error
        if 1.0 / _CUBIC_TRUST <= cubic <= _CUBIC_TRUST:
            warm_eps *= cubic
    eps = max(warm_eps, floor, _TINY)
    known = list(known)
    lo = hi = None  # bracket ends [eps, psi, root]; lo < hi is not assumed
    last_feasible = prev = None  # prev: (eps, psi) of the previous evaluation
    carried, slope = slope, None
    for _ in range(_MAX_FP_EVALS):
        root = solve_regularized(problem, eps, init=_predict(known, eps))
        known.append((eps, root.v))
        target = max(2.0 * c * norm(u - root.v), floor)
        phi = eps - target
        # aim the secant at the middle of the acceptance window
        # [0, _ACCEPT_WINDOW eps], so that a near miss on either side is accepted
        psi = phi - 0.5 * _ACCEPT_WINDOW * eps
        if prev is not None and eps != prev[0]:
            slope = (psi - prev[1]) / (eps - prev[0])
        if 0.0 <= phi <= _ACCEPT_WINDOW * eps:
            return root, slope
        prev = (eps, psi)
        feasible = phi > 0.0
        kept, moved = (lo, hi) if feasible else (hi, lo)
        if feasible == last_feasible and kept is not None:
            # Anderson-Bjorck: damp the end that stayed put twice running
            m = 1.0 - psi / moved[1]
            kept[1] *= m if m > 0.0 else 0.5
        if feasible:
            hi = [eps, psi, root]
        else:
            lo = [eps, psi, root]
        last_feasible = feasible
        if lo is None or hi is None:
            # a secant step on the carried slope first, then fixed-point hops
            step = eps - psi / carried if carried is not None and carried > 0.0 else 0.0
            eps = step if max(floor, _TINY) <= step < math.inf else target
            carried = None
            continue
        if abs(hi[0] - lo[0]) <= _ACCEPT_WINDOW * hi[0]:
            return hi[2], slope
        eps = hi[0] - hi[1] * (hi[0] - lo[0]) / (hi[1] - lo[1])
        if not min(lo[0], hi[0]) < eps < max(lo[0], hi[0]):
            eps = 0.5 * (lo[0] + hi[0])
    ends = [None if end is None else end[0] for end in (lo, hi)]
    raise NumericalFailure(
        f"iterate: oracle regularization not found at step n={n} within "
        f"{_MAX_FP_EVALS} root solves: bracket [lo, hi] = {ends}, "
        f"last eps={root.epsilon:.6e} with phi={phi:.3e}"
    )


def run_iteration(
    problem: ProblemInstance,
    schedule: Schedule,
    steps: StepRule,
    max_n: int,
    u0=None,
    stop_residual: Optional[float] = None,
    record_roots: bool = False,
) -> IterationHistory:
    """Run the iteration until the residual stops it or max_n is reached.

    The history records one row per visited iterate, schedule included,
    so gap sequences line up with the step bounds.  Roots are tracked
    automatically under the oracle schedule and on request otherwise.
    ``max_n`` is an integer of at most ``MAX_STEPS``.  The default
    stopping residual is ``1e-10 * (1 + |f|)``.

    Each step ``z_n = u_{n+1} - u_n`` checks the standing assumptions on
    the ``B(u_n)`` and ``B'(u_n)`` it evaluates anyway, up to the flow's
    roundoff floor ``fl_n = 16 sqrt(dim) u (|B(u_n)| + |B(u_{n+1})|)``:
    ``monotone-pairing``, ``<B(u_{n+1}) - B(u_n), z_n> >= -fl_n |z_n|``,
    and, for a positive ``m2_bound``, ``taylor-remainder``,
    ``|B(u_{n+1}) - B(u_n) - B'(u_n) z_n| <= m2 |z_n|^2 / 2 + fl_n``.  As
    for ``recursion-step``, ``observed`` is the worst relative excess (the
    Taylor row's over ``m2 |z_n|^2 / 2``), floored at 0, and the bound is
    ``STEP_SLACK``.  ``curvature_ratio``, the largest Taylor remainder over
    its right side, is at most ``1 + STEP_SLACK`` when that row passes.
    """
    max_n = _as_count(max_n, "max_n", cap=MAX_STEPS)
    if steps.limit is not None and steps.limit < max_n:
        raise ValueError(
            f"explicit step rule supplies {steps.limit} steps but max_n={max_n}"
        )
    if stop_residual is None:
        stop_residual = 1e-10 * (1.0 + norm(problem.data))
    else:
        stop_residual = _non_negative(stop_residual, "stop_residual")
    track = record_roots or schedule.kind == "oracle"
    c = _curvature_constant(problem) if schedule.kind == "oracle" else None
    u = np.zeros(problem.dim) if u0 is None else as_vector(u0, problem.dim, "u0").copy()
    half_m2 = 0.5 * (problem.m2_bound or 0.0)
    unit_floor = ROUNDOFF_FACTOR * math.sqrt(problem.dim) * np.finfo(float).eps

    rows: list[dict] = []
    known: list[tuple[float, np.ndarray]] = []  # (eps, V_eps) of the last six roots
    slope = None  # the oracle's last secant slope, carried to the next step
    converged = False
    pairings, remainders, ratios = [], [], []  # per-step excesses and Taylor ratios
    last = None  # (u_n, B(u_n), |B(u_n)|, B'(u_n)) of the step just taken
    for n in range(max_n + 1):
        root: Optional[RegRoot] = None
        b = apply_operator(problem, u)
        if schedule.kind == "oracle":
            root, slope = _oracle_epsilon(problem, u, b, c, schedule.floor, known, n, slope)
            eps_n = root.epsilon
        else:
            if schedule.kind == "constant":
                eps_n = schedule.epsilon
            else:
                eps_n = max(schedule.floor, schedule.eps0 * schedule.ratio**n)
            if track:
                root = solve_regularized(problem, eps_n, init=_predict(known, eps_n))
        b_norm = math.sqrt(np.dot(b, b))  # norm(b), without its argument checks; so below
        if last is not None:  # the step z = u_n - u_{n-1} just taken
            u_prev, b_prev, b_prev_norm, jac = last
            z, db = u - u_prev, b - b_prev
            z_norm, floor = math.sqrt(np.dot(z, z)), unit_floor * (b_prev_norm + b_norm)
            pair = float(np.dot(db, z))
            pairings.append(-(pair + floor * z_norm) / max(floor * z_norm, _TINY))
            if half_m2 > 0.0:
                r = db - jac @ z
                model, rem = half_m2 * z_norm * z_norm, math.sqrt(np.dot(r, r))
                remainders.append((rem - floor - model) / max(model, _TINY))
                ratios.append(rem / max(model + floor, _TINY))
        res_vec = b + eps_n * u - problem.data
        res_norm = norm(res_vec)
        rows.append(
            dict(
                index=n,
                u=u.copy(),
                epsilon=eps_n,
                h=None,
                residual=res_norm,
                root=None if root is None else root.v,
                gap=None if root is None else norm(u - root.v),
            )
        )
        if root is not None:
            known = known[1 - PREDICT_NODES :] + [(eps_n, root.v)]
        if res_norm <= stop_residual:
            converged = True
            break
        if n == max_n:
            break
        h_n = steps.h_at(n)
        rows[-1]["h"] = h_n
        jac = jacobian(problem, u)
        last = (u, b, b_norm, jac)
        u = u - h_n * reg_solve(jac, eps_n, res_vec).solution

    out = []
    for i, row in enumerate(rows):
        root_gap = None
        if track and i + 1 < len(rows):
            root_gap = norm(rows[i + 1]["root"] - row["root"])
        out.append(IterationStep(root_gap=root_gap, **row))
    checks = [Check("monotone-pairing", _worst(pairings), STEP_SLACK)] if pairings else []
    checks += [Check("taylor-remainder", _worst(remainders), STEP_SLACK)] if remainders else []
    return IterationHistory(out, converged, tuple(checks), _worst(ratios) if ratios else None)


@dataclass(frozen=True)
class StepBoundRecord:
    """One step's contraction inequality and its excess, from recorded roots."""

    index: int
    gap_next: float
    bound: float
    epsilon: float
    curvature_threshold: float
    excess: float


@dataclass(frozen=True)
class RecursionReport(Check):
    """The ``recursion-step`` check, with the step records it is the worst of."""

    records: list[StepBoundRecord]


def verify_step_recursion(problem: ProblemInstance, history: IterationHistory) -> RecursionReport:
    """Check the per-step gap contraction on a run with recorded roots.

    For each step n the inequality
    ``g_{n+1} <= (1 - 0.5 h_n) g_n + |V_{n+1} - V_n|`` must hold up to
    relative slack ``STEP_SLACK`` (1e-8, plus a tiny absolute cushion for
    gaps at roundoff), and when the problem carries a positive curvature
    bound the schedule must satisfy ``eps_n >= 2 c g_n`` up to the same
    slack.  ``observed`` is the worst step's excess ``max((g_{n+1} - 1e-13
    (1 + g_n) - bound_n) / bound_n, (2 c g_n - eps_n) / (2 c g_n))``,
    floored at 0 (a NaN fails), and the run passes when it is at most
    ``bound``, ``STEP_SLACK``.
    """
    if len(history.steps) < 2:
        raise ValueError("recursion check needs at least one completed step")
    if history.steps[0].gap is None or history.steps[0].root_gap is None:
        raise ValueError("recursion check needs a run with recorded roots")
    c = 0.5 * float(problem.m2_bound) if problem.m2_bound is not None else 0.0
    records: list[StepBoundRecord] = []
    for cur, nxt in zip(history.steps, history.steps[1:]):
        bound = (1.0 - 0.5 * cur.h) * cur.gap + cur.root_gap
        threshold = 2.0 * c * cur.gap
        excess = max(
            (nxt.gap - 1e-13 * (1.0 + cur.gap) - bound) / max(bound, _TINY),
            (threshold - cur.epsilon) / max(threshold, _TINY),
        )
        records.append(
            StepBoundRecord(
                index=cur.index,
                gap_next=nxt.gap,
                bound=bound,
                epsilon=cur.epsilon,
                curvature_threshold=threshold,
                excess=excess,
            )
        )
    observed = _worst([rec.excess for rec in records])
    return RecursionReport("recursion-step", observed, STEP_SLACK, records)
