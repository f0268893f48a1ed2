"""Finite-dimensional setting for monotone operator equations B(u) = f.

The ambient space is R^n with the Euclidean inner product.  Vectors are 1-D
numpy arrays, operator derivatives are dense square matrices.  A
:class:`ProblemInstance` bundles the operator with its data vector and
whatever ground truth is available (analytic Jacobian, known minimal-norm
solution, a second-derivative bound on a working ball), and this module holds
the numerical certificates for the standing assumptions: monotonicity of B
and control of the second-order Taylor remainder.  Every layer checks its
inputs by the one coercion rule here, :func:`_coerce`, which the config
field tables use too.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "NumericalFailure",
    "Check",
    "ProblemInstance",
    "MonotonicityReport",
    "TaylorReport",
    "inner",
    "norm",
    "as_vector",
    "as_matrix",
    "apply_operator",
    "jacobian",
    "check_monotonicity",
    "taylor_remainder_check",
]

MAX_TRIALS = 100_000  # check_monotonicity holds no memory; this bounds its running time
_FLOAT = np.dtype(float)
_TINY = 1e-300  # floor of a denominator that may be zero


class NumericalFailure(RuntimeError):
    """A numerical procedure broke down (singular solve, stalled line
    search, step-size underflow, or an evaluator returning non-finite
    values)."""


@dataclass(frozen=True)
class Check:
    """One bound check: ``name`` holds when ``observed <= bound`` (a NaN fails)."""

    name: str
    observed: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.observed <= self.bound)


def inner(u: np.ndarray, v: np.ndarray) -> float:
    """Euclidean inner product of two finite vectors."""
    return float(np.dot(as_vector(u, name="u"), as_vector(v, name="v")))


def norm(u: np.ndarray) -> float:
    """Euclidean norm of an array of real numbers: ``np.linalg.norm``'s own
    ``ord=None`` sum, without its dispatch."""
    x = _reals(u, "norm's argument").ravel(order="K")
    return math.sqrt(np.vdot(x, x))  # dot's bits, but inf past the float range, not a warning


def _reals(x, name: str) -> np.ndarray:
    """``x`` as a float64 array, when numpy makes an array of real numbers of it."""
    arr = np.asarray(x)  # a ragged list raises ValueError here
    if arr.dtype is not _FLOAT:  # a float64 array, the hot path's case, passes at once
        if arr.dtype.kind not in "fiu":  # None, a bool, a string, an object or a complex
            raise ValueError(f"{name} must be an array of real numbers, got dtype {arr.dtype}")
        arr = arr.astype(float)
    return arr


REQUIRED = object()  # field-table default: the key must be given
OPTIONAL = object()  # field-table default: an absent key stays absent
_EXPECTED = {int: "an integer", float: "a number", bool: "true or false",
             str: "a string", dict: "a mapping", None: "null"}


def _number(value, integral: bool = False) -> bool:
    """A finite real that is not a bool, an int of any size included; integral if asked."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return isinstance(value, numbers.Integral) or math.isfinite(value) and (
        not integral or float(value).is_integer())


def _parse(spec: dict, fields: dict, where: str) -> dict:
    """Coerce the mapping ``spec`` by a field table ``{key: (type, default)}``.

    A row may add a cap, ``(type, default, cap)``.  Unknown keys are
    rejected, a ``REQUIRED`` key must be given, an absent ``OPTIONAL``
    key stays absent, and any other default fills an absent key.
    """
    unknown = [key for key in spec if key not in fields]
    if unknown:
        raise ValueError(f"unknown {where} options {unknown}")
    out = {}
    for key, (kind, default, *cap) in fields.items():
        if key in spec:
            out[key] = _coerce(spec[key], kind, f"{where} {key}", *cap)
        elif default is REQUIRED:
            raise ValueError(f"{where} needs {key!r}")
        elif default is not OPTIONAL:
            out[key] = default
    return out


def _coerce(value, kind, name: str, cap=None):
    """Coerce one config value or library argument to ``kind`` without loss.

    ``kind`` is ``int`` or ``float`` (at most ``cap``), ``bool``, ``str``,
    ``dict`` (any mapping), ``[t]`` (a non-empty list of ``t``), a variant
    table ``{kind: (constructor, fields)}`` (a mapping whose ``"kind"``
    picks the field table of the rest), a checker such as :func:`_positive`
    (called with ``name`` and ``cap``), or a tuple of these and ``None``.
    A number is a finite real (Infinity and NaN are not numbers; numpy
    scalars and ints of any size are), a bool is not a number, a
    non-integral number is not an int, and only true and false are bools.
    Anything else raises ``ValueError``, before anything sized by the
    value is allocated.
    """
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if value is None and None in kinds:
        return value
    for k in kinds:
        if callable(k) and not isinstance(k, type):  # a checker
            return k(value, name) if cap is None else k(value, name, cap)
        if k in (bool, str, dict) and isinstance(value, k):
            return value
        if (k is int or k is float) and _number(value):
            if k is int and not _number(value, integral=True):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if cap is not None and value > cap:
                raise ValueError(f"{name} must be at most {cap}, got {value!r}")
            try:
                return k(value)
            except OverflowError:  # an int beyond the float range
                raise ValueError(f"{name} is out of range, got {value!r}") from None
        if isinstance(k, list) and isinstance(value, list):
            if not value:
                raise ValueError(f"{name} must be a non-empty list, got []")
            return [_coerce(v, k[0], f"{name} entry") for v in value]
        if isinstance(k, dict) and isinstance(value, dict):
            variant = value.get("kind")
            if not isinstance(variant, str) or variant not in k:
                raise ValueError(f"{name} kind must be one of {list(k)}, got {variant!r}")
            rest = {key: v for key, v in value.items() if key != "kind"}
            return {"kind": variant, **_parse(rest, k[variant][1], f"{name} {variant!r}")}
    expected = " or ".join(
        "a list" if isinstance(k, list) else "a mapping with a 'kind'"
        if isinstance(k, dict) else _EXPECTED[k] for k in kinds
    )
    raise ValueError(f"{name} must be {expected}, got {value!r}")


def _positive(value, name: str, cap: float = math.inf) -> float:
    """A positive finite real of at most ``cap`` as a float."""
    if type(value) is float and 0.0 < value < cap:  # the hot path's case, at once
        return value
    value = _coerce(value, float, name, cap)
    if not value > 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")
    return value


def _non_negative(value, name: str) -> float:
    """A finite non-negative real as a float."""
    value = _coerce(value, float, name)
    if not value >= 0.0:
        raise ValueError(f"{name} must be a finite non-negative real, got {value!r}")
    return value


def _in_unit_interval(value, name: str) -> float:
    """A real in (0, 1) as a float."""
    value = _coerce(value, float, name)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
    return value


def _as_count(value, name: str, cap: float = math.inf) -> int:
    """A count in [1, cap] as an int; the message shows the range only when the cap is finite."""
    if type(value) is int and 1 <= value <= cap:  # the hot path's case, at once
        return value
    if not _number(value, integral=True) or not 1 <= value <= cap:
        rule = f"an integer in [1, {cap}]" if cap < math.inf else "a positive integer"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return int(value)


def _seed(value, name: str = "seed") -> int:
    """A non-negative integer as an int, the seeds numpy's generators take."""
    seed = _coerce(value, int, name)
    if seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return seed


def _rng(seed) -> np.random.Generator:
    """The generator of a seed that :func:`_seed` takes; anything else is a ``ValueError``."""
    return np.random.default_rng(_seed(seed))


def as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce an array of real numbers to a finite 1-D float array, optionally
    of fixed length; None, a bool, a string, an object or a complex array is a
    ``ValueError``."""
    arr = _reals(x, name)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {dim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_matrix(m, dim: int | None = None, name: str = "matrix") -> np.ndarray:
    """Coerce an array of real numbers to a finite square 2-D float array,
    optionally of fixed size, by :func:`as_vector`'s dtype rule."""
    arr = _reals(m, name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} has size {arr.shape[0]}, expected {dim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class ProblemInstance:
    """An operator equation B(u) = f on R^dim.

    Parameters
    ----------
    dim : int
        Space dimension, an integer of at least 1.
    operator : callable
        Evaluator ``u -> B(u)``, mapping 1-D arrays to 1-D arrays.
    data : array
        Right-hand side f.
    jacobian : callable, optional
        Analytic derivative ``u -> B'(u)`` as a dense square matrix.  When
        absent, :func:`jacobian` falls back to central finite differences.
    known_solution : array, optional
        The minimal-norm solution of B(u) = f, when an oracle provides it.
    m2_bound : float, optional
        Upper bound for the second derivative norm on the problem's
        working ball.  It gates the Taylor-remainder certificate and the
        residual-driven iteration schedule.
    is_linear : bool
        B is a matrix.  Without a ``known_solution``, construction stores the
        ``lstsq`` minimal-norm one: one Jacobian and one O(dim^3) solve.  A
        stored solution is checked against the data: one operator evaluation.
    name : str
        Free-form label, echoed in reports.
    """

    dim: int
    operator: Callable[[np.ndarray], np.ndarray]
    data: np.ndarray
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    known_solution: Optional[np.ndarray] = None
    m2_bound: Optional[float] = None
    is_linear: bool = False
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "dim", _as_count(self.dim, "dim"))
        object.__setattr__(self, "data", as_vector(self.data, self.dim, "data"))
        y = self.known_solution
        if y is None and self.is_linear:
            y = np.linalg.lstsq(jacobian(self, np.zeros(self.dim)), self.data, rcond=1e-12)[0]
        if y is not None:
            y = as_vector(y, self.dim, "known_solution")
            back = norm(apply_operator(self, y) - self.data)
            if back > 1e-9 * (1.0 + norm(self.data)):
                raise ValueError(
                    f"known_solution does not reproduce the data (residual {back:.3e}); "
                    "a linear problem built without one has data outside its matrix's range"
                )
            object.__setattr__(self, "known_solution", y)
        if self.m2_bound is not None:
            object.__setattr__(self, "m2_bound", _non_negative(self.m2_bound, "m2_bound"))


def apply_operator(problem: ProblemInstance, u) -> np.ndarray:
    """Evaluate B(u), validating shapes and finiteness of the result."""
    u = as_vector(u, problem.dim, "u")
    out = _reals(problem.operator(u), "operator output")
    if out.shape != (problem.dim,):
        raise ValueError(
            f"operator returned shape {out.shape}, expected ({problem.dim},)"
        )
    if not np.isfinite(out).all():
        raise NumericalFailure("operator returned non-finite values")
    return out


def jacobian(problem: ProblemInstance, u) -> np.ndarray:
    """Evaluate B'(u) as a dense matrix.

    Uses the problem's analytic Jacobian when supplied; otherwise central
    finite differences with per-column step ``sqrt(eps) * (1 + |u_j|)``.
    """
    u = as_vector(u, problem.dim, "u")
    if problem.jacobian is not None:
        mat = as_matrix(problem.jacobian(u), problem.dim, "jacobian")
        return mat
    n = problem.dim
    mat = np.empty((n, n))
    root_eps = np.sqrt(np.finfo(float).eps)
    for j in range(n):
        h = root_eps * (1.0 + abs(u[j]))
        up = u.copy()
        um = u.copy()
        up[j] += h
        um[j] -= h
        mat[:, j] = (apply_operator(problem, up) - apply_operator(problem, um)) / (2.0 * h)
    if not np.all(np.isfinite(mat)):
        raise NumericalFailure("finite-difference jacobian is non-finite")
    return mat


@dataclass(frozen=True)
class MonotonicityReport:
    min_pairing: float
    passed: bool
    trials: int


def _sample_ball(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    # uniform in the ball: uniform direction, radius scaled by U^(1/dim)
    x = rng.standard_normal(dim)
    r = np.linalg.norm(x)
    while r == 0.0:
        x = rng.standard_normal(dim)
        r = np.linalg.norm(x)
    return x / r * radius * rng.uniform() ** (1.0 / dim)


def check_monotonicity(
    problem: ProblemInstance, trials: int, seed: int, radius: float
) -> MonotonicityReport:
    """Sample pairs (u, v) in a ball and test <B(u) - B(v), u - v> >= 0.

    The tolerance per pair is ``1e-10 * (1 + |u - v|^2)``, absorbing the
    cancellation incurred when both operator values are large.  Returns the
    raw minimum pairing over all sampled pairs and whether every pair
    cleared its tolerance.
    """
    trials = _as_count(trials, "trials", cap=MAX_TRIALS)
    radius = _positive(radius, "radius")
    rng = _rng(seed)
    min_pairing = np.inf
    passed = True
    for _ in range(trials):
        u = _sample_ball(rng, problem.dim, radius)
        v = _sample_ball(rng, problem.dim, radius)
        diff = u - v
        pairing = inner(apply_operator(problem, u) - apply_operator(problem, v), diff)
        tol = 1e-10 * (1.0 + inner(diff, diff))
        if pairing < min_pairing:
            min_pairing = pairing
        if pairing < -tol:
            passed = False
    return MonotonicityReport(min_pairing=float(min_pairing), passed=passed, trials=trials)


@dataclass(frozen=True)
class TaylorReport:
    remainder: float
    bound: float
    passed: bool


def taylor_remainder_check(problem: ProblemInstance, u, z) -> TaylorReport:
    """Certify |B(u+z) - B(u) - B'(u) z| <= 0.5 * m2_bound * |z|^2.

    Requires the problem to carry ``m2_bound``; the comparison allows a
    1e-8 relative slack on the bound side.
    """
    if problem.m2_bound is None:
        raise ValueError("taylor_remainder_check requires m2_bound on the problem")
    u = as_vector(u, problem.dim, "u")
    z = as_vector(z, problem.dim, "z")
    remainder = norm(
        apply_operator(problem, u + z)
        - apply_operator(problem, u)
        - jacobian(problem, u) @ z
    )
    bound = 0.5 * problem.m2_bound * inner(z, z)
    return TaylorReport(
        remainder=remainder, bound=bound, passed=remainder <= bound * (1.0 + 1e-8)
    )
