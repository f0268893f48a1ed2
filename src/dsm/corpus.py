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

import numpy as np

from .problem import ProblemInstance, as_vector, jacobian, norm

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
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown corpus problem {name!r}; choose from {sorted(_FACTORIES)}"
        ) from None
    return factory(**kwargs)


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


def problem_from_dict(spec: dict) -> ProblemInstance:
    """Build a problem from a configuration mapping.

    Two forms are accepted: ``{"corpus": name, ...factory options}`` and
    ``{"linear": {"matrix": ..., "data": ..., ...}}`` for an explicit
    matrix problem.  Explicit matrices must be monotone (symmetric part
    positive semidefinite); that is checked exactly here rather than
    sampled later.
    """
    if not isinstance(spec, dict):
        raise ValueError("problem specification must be a mapping")
    if "corpus" in spec:
        kwargs = {k: v for k, v in spec.items() if k != "corpus"}
        allowed = {"dim", "seed", "radius"}
        unknown = set(kwargs) - allowed
        if unknown:
            raise ValueError(f"unknown corpus options {sorted(unknown)}")
        if "dim" in kwargs:
            kwargs["dim"] = int(kwargs["dim"])
        if "seed" in kwargs:
            kwargs["seed"] = int(kwargs["seed"])
        if "radius" in kwargs:
            kwargs["radius"] = float(kwargs["radius"])
        name = spec["corpus"]
        if name == "hilbert-psd" and "seed" in kwargs:
            raise ValueError("hilbert-psd is deterministic and takes no seed")
        if name != "cubic-monotone" and "radius" in kwargs:
            raise ValueError("radius only applies to cubic-monotone")
        return make_problem(name, **kwargs)
    if "linear" in spec:
        body = spec["linear"]
        if not isinstance(body, dict) or "matrix" not in body or "data" not in body:
            raise ValueError("linear problem needs 'matrix' and 'data'")
        m = np.asarray(body["matrix"], dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        dim = m.shape[0]
        f = as_vector(body["data"], dim, "data")
        sym_min = float(np.linalg.eigvalsh(0.5 * (m + m.T)).min())
        if sym_min < -1e-12 * max(1.0, float(np.linalg.norm(m, 2))):
            raise ValueError(
                f"matrix is not monotone (symmetric part has eigenvalue {sym_min:.3e})"
            )
        known = body.get("known_solution")
        return ProblemInstance(
            dim=dim,
            operator=lambda u: m @ u,
            data=f,
            jacobian=lambda u: m,
            known_solution=None if known is None else as_vector(known, dim, "known_solution"),
            m1_bound=None if body.get("m1_bound") is None else float(body["m1_bound"]),
            m2_bound=0.0,
            is_linear=True,
            is_strictly_monotone=False,
            name=str(body.get("name", "external-linear")),
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
