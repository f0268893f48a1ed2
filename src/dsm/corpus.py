"""Built-in benchmark problems and perturbed right-hand sides.

Four small finite-dimensional problems exercise the solver contracts
from different directions:

* ``psd-singular-linear``: symmetric positive semidefinite matrix with a
  two-dimensional kernel, so the equation has an affine solution set and
  the minimal-norm member is the interesting one.
* ``hilbert-psd``: the Hilbert matrix, positive definite but with
  condition number far beyond 1e15 at the default size; stresses the
  shifted solves without any kernel.
* ``cubic-monotone``: rank-deficient quadratic form plus a componentwise
  cube; monotone with genuine curvature, so the second-derivative bound
  is active.
* ``random-monotone``: rank-deficient quadratic form plus tanh, strictly
  monotone with a small curvature bound.

Construction is deterministic given (dim, seed).  Data vectors are built
as the operator's value at a designated solution, so every problem is
consistent by construction.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .linsolve import MAX_DIM
from .problem import ProblemInstance, as_matrix, as_vector, jacobian, norm

__all__ = [
    "corpus_names",
    "make_problem",
    "make_psd_singular_linear",
    "make_hilbert_psd",
    "make_cubic_monotone",
    "make_random_monotone",
    "add_noise",
    "problem_from_dict",
    "describe_problem",
]


def _orthogonal(dim: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    # fix the sign convention so the factorization is unique
    return q * np.sign(np.diag(r))


def make_psd_singular_linear(dim: int = 8, seed: int = 1) -> ProblemInstance:
    """Symmetric PSD matrix with two zero eigenvalues and spectrum up to 1.

    The data lies in the range by construction and the stored solution is
    the range projection of the generating point, which is exactly the
    minimal-norm solution.
    """
    if dim < 3:
        raise ValueError("dim must be at least 3")
    rng = np.random.default_rng(seed)
    q = _orthogonal(dim, rng)
    eigs = np.concatenate([[0.0, 0.0], np.linspace(0.1, 1.0, dim - 2)])
    m = (q * eigs) @ q.T
    m = 0.5 * (m + m.T)
    y_star = np.ones(dim)
    f = m @ y_star
    coords = q.T @ y_star
    coords[:2] = 0.0  # drop the kernel components
    y_min = q @ coords
    return ProblemInstance(
        dim=dim,
        operator=lambda u: m @ u,
        data=f,
        jacobian=lambda u: m,
        known_solution=y_min,
        m1_bound=1.0,
        m2_bound=0.0,
        is_linear=True,
        is_strictly_monotone=False,
        name="psd-singular-linear",
    )


def make_hilbert_psd(dim: int = 12) -> ProblemInstance:
    """Hilbert matrix problem; positive definite but extremely ill-conditioned."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    i = np.arange(1, dim + 1)
    m = 1.0 / (i[:, None] + i[None, :] - 1.0)
    y_star = np.ones(dim)
    f = m @ y_star
    return ProblemInstance(
        dim=dim,
        operator=lambda u: m @ u,
        data=f,
        jacobian=lambda u: m,
        known_solution=y_star,
        m1_bound=float(np.linalg.norm(m, 2)),
        m2_bound=0.0,
        is_linear=True,
        is_strictly_monotone=True,
        name="hilbert-psd",
    )


def make_cubic_monotone(
    dim: int = 10, seed: int = 2, radius: float = 5.0
) -> ProblemInstance:
    """Rank-deficient quadratic form plus componentwise cube.

    The operator is ``u -> G'G u + u**3`` with G two rows short of full
    rank; the cube is strictly increasing componentwise, so the sum is
    strictly monotone despite the matrix kernel.  The second-derivative
    bound ``6 * (radius + |y*|)`` is valid on the origin-centered ball of
    that radius, which contains every iterate the suite produces.
    """
    if dim < 3:
        raise ValueError("dim must be at least 3")
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim - 2, dim)) / np.sqrt(dim)
    m = g.T @ g
    y_star = np.ones(dim)
    f = m @ y_star + y_star**3
    return ProblemInstance(
        dim=dim,
        operator=lambda u: m @ u + u**3,
        data=f,
        jacobian=lambda u: m + np.diag(3.0 * u**2),
        known_solution=y_star,
        m1_bound=None,
        m2_bound=6.0 * (radius + float(norm(y_star))),
        is_linear=False,
        is_strictly_monotone=True,
        name="cubic-monotone",
    )


def make_random_monotone(dim: int = 10, seed: int = 3) -> ProblemInstance:
    """Rank-deficient quadratic form plus tanh; strictly monotone.

    tanh has derivative in (0, 1], so the sum is strictly monotone even
    on the kernel of the matrix part.  Its second derivative never
    exceeds 0.77 in magnitude, giving a small global curvature bound.
    """
    if dim < 3:
        raise ValueError("dim must be at least 3")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim - 2, dim)) / np.sqrt(dim)
    m = g.T @ g
    y_star = rng.uniform(-1.0, 1.0, size=dim)
    f = m @ y_star + np.tanh(y_star)
    return ProblemInstance(
        dim=dim,
        operator=lambda u: m @ u + np.tanh(u),
        data=f,
        jacobian=lambda u: m + np.diag(1.0 - np.tanh(u) ** 2),
        known_solution=y_star,
        m1_bound=None,
        m2_bound=0.77,
        is_linear=False,
        is_strictly_monotone=True,
        name="random-monotone",
    )


_FACTORIES = {
    "psd-singular-linear": make_psd_singular_linear,
    "hilbert-psd": make_hilbert_psd,
    "cubic-monotone": make_cubic_monotone,
    "random-monotone": make_random_monotone,
}


def corpus_names() -> list[str]:
    return list(_FACTORIES)


def make_problem(name: str, **kwargs) -> ProblemInstance:
    """Build a corpus problem by name; kwargs go to its factory."""
    if name not in _FACTORIES:
        raise ValueError(f"unknown corpus problem {name!r}; choose from {sorted(_FACTORIES)}")
    return _FACTORIES[name](**kwargs)


def add_noise(f: np.ndarray, delta: float, seed: int) -> np.ndarray:
    """Perturb a data vector to exactly the requested distance.

    The direction is an isotropic draw normalized to unit length, so
    ``|f_noisy - f| = delta`` up to roundoff.  A zero draw is redrawn.
    """
    f = np.asarray(f, dtype=float)
    if not (delta > 0) or not np.isfinite(delta):
        raise ValueError("delta must be a positive finite real")
    eta = np.random.default_rng(seed).standard_normal(f.shape)
    while norm(eta) == 0.0:  # astronomically improbable; re-draw deterministically
        seed += 1
        eta = np.random.default_rng(seed).standard_normal(f.shape)
    return f + delta * (eta / norm(eta))


REQUIRED = object()  # field-table default: the key must be given
OPTIONAL = object()  # field-table default: an absent key stays absent
_EXPECTED = {int: "an integer", float: "a number", bool: "true or false",
             str: "a string", dict: "a mapping", None: "null"}


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
    """Coerce one configuration value to ``kind`` without loss.

    ``kind`` is ``int`` or ``float`` (at most ``cap``), ``bool``, ``str``,
    ``dict`` (any mapping), ``[t]`` (a list of ``t``), a variant table
    ``{kind: (constructor, fields)}`` (a mapping whose ``"kind"`` picks
    the field table of the rest), or a tuple of these and ``None`` (null).
    A number is finite (Infinity and NaN are not numbers), a bool is not
    a number, a non-integral number is not an int, and only true and
    false are bools.  Anything else raises ``ValueError``, before
    anything sized by the value is allocated.
    """
    kinds = kind if isinstance(kind, tuple) else (kind,)
    number = not isinstance(value, bool) and (
        isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    )
    for k in kinds:
        if value is None and k is None or k in (bool, str, dict) and isinstance(value, k):
            return value
        if (k is int or k is float) and number:
            if k is int and isinstance(value, float) and not value.is_integer():
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if cap is not None and value > cap:
                raise ValueError(f"{name} must be at most {cap}, got {value!r}")
            try:
                return k(value)
            except OverflowError:  # an int beyond the float range
                raise ValueError(f"{name} is out of range, got {value!r}") from None
        if isinstance(k, list) and isinstance(value, list):
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


_CORPUS_FIELDS = {
    "corpus": (str, REQUIRED),
    "dim": (int, OPTIONAL, MAX_DIM),
    "seed": (int, OPTIONAL),
    "radius": (float, OPTIONAL),
}
_LINEAR_FIELDS = {
    "matrix": ([[float]], REQUIRED),
    "data": ([float], REQUIRED),
    "known_solution": (([float], None), None),
    "m1_bound": ((float, None), None),
    "name": (str, "external-linear"),
}


def problem_from_dict(spec: dict) -> ProblemInstance:
    """Build a problem from a configuration mapping.

    Two forms are accepted: ``{"corpus": name, ...factory options}`` and
    ``{"linear": {"matrix": ..., "data": ..., ...}}`` for an explicit
    matrix problem.  Explicit matrices must be monotone (symmetric part
    positive semidefinite); that is checked exactly here rather than
    sampled later.
    """
    if isinstance(spec, dict) and "corpus" in spec:
        kwargs = _parse(spec, _CORPUS_FIELDS, "corpus")
        name = kwargs.pop("corpus")
        if name == "hilbert-psd" and "seed" in kwargs:
            raise ValueError("hilbert-psd is deterministic and takes no seed")
        if name != "cubic-monotone" and "radius" in kwargs:
            raise ValueError("radius only applies to cubic-monotone")
        return make_problem(name, **kwargs)
    if isinstance(spec, dict) and "linear" in spec:
        body = _parse(spec, {"linear": (dict, REQUIRED)}, "problem")["linear"]
        body = _parse(body, _LINEAR_FIELDS, "linear problem")
        m = as_matrix(body["matrix"])
        dim = m.shape[0]
        f = as_vector(body["data"], dim, "data")
        sym_min = float(np.linalg.eigvalsh(0.5 * (m + m.T)).min())
        if sym_min < -1e-12 * max(1.0, float(np.linalg.norm(m, 2))):
            raise ValueError(
                f"matrix is not monotone (symmetric part has eigenvalue {sym_min:.3e})"
            )
        known = body["known_solution"]
        return ProblemInstance(
            dim=dim,
            operator=lambda u: m @ u,
            data=f,
            jacobian=lambda u: m,
            known_solution=None if known is None else as_vector(known, dim, "known_solution"),
            m1_bound=body["m1_bound"],
            m2_bound=0.0,
            is_linear=True,
            is_strictly_monotone=False,
            name=body["name"],
        )
    raise ValueError("problem specification needs a 'corpus' or 'linear' entry")


def describe_problem(spec: dict) -> dict:
    """JSON-ready description of a problem specification.

    Echoes the specification and adds what reproduction needs: the
    dimension, the data vector, and for linear problems the full matrix.
    """
    return _describe(spec, problem_from_dict(spec), full_matrix=True)


def _describe(spec: dict, problem: ProblemInstance, full_matrix: bool) -> dict:
    """Describe an already built ``problem`` of ``spec``.

    A linear problem's matrix goes in as ``matrix`` (nested lists) when
    ``full_matrix`` is set, and otherwise as ``matrix_sha256``, the
    SHA-256 of its C-contiguous float64 bytes.
    """
    out = {
        "spec": spec,
        "name": problem.name,
        "dim": problem.dim,
        "data": problem.data.tolist(),
        "is_linear": problem.is_linear,
        "is_strictly_monotone": problem.is_strictly_monotone,
    }
    if problem.m1_bound is not None:
        out["m1_bound"] = problem.m1_bound
    if problem.m2_bound is not None:
        out["m2_bound"] = problem.m2_bound
    if problem.known_solution is not None:
        out["known_solution"] = problem.known_solution.tolist()
    if problem.is_linear:
        m = np.ascontiguousarray(jacobian(problem, np.zeros(problem.dim)), dtype=np.float64)
        if full_matrix:
            out["matrix"] = m.tolist()
        else:
            out["matrix_sha256"] = hashlib.sha256(m.tobytes()).hexdigest()
    return out
