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
import inspect

import numpy as np

from .linsolve import MAX_DIM
from .problem import (
    OPTIONAL,
    REQUIRED,
    ProblemInstance,
    _number,
    _parse,
    _positive,
    _rng,
    _seed,
    as_matrix,
    as_vector,
    jacobian,
    norm,
)

__all__ = [
    "make_problem",
    "make_psd_singular_linear",
    "make_hilbert_psd",
    "make_cubic_monotone",
    "make_random_monotone",
    "add_noise",
    "problem_from_dict",
]


def _check_dim(dim: int, least: int) -> int:
    """The integer dim, rejected outside [least, MAX_DIM] before anything is allocated."""
    if not _number(dim, integral=True) or not least <= dim <= MAX_DIM:
        raise ValueError(f"dim must be an integer in [{least}, {MAX_DIM}], got {dim!r}")
    return int(dim)


def _orthogonal(dim: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    # fix the sign convention so the factorization is unique
    return q * np.sign(np.diag(r))


def _linear(m: np.ndarray, f, known_solution, name: str) -> ProblemInstance:
    """The linear problem ``m u = f``; ``known_solution`` is its minimal-norm solution, or
    None to store the least-squares one."""
    return ProblemInstance(
        dim=m.shape[0],
        operator=lambda u: m @ u,
        data=f,
        jacobian=lambda u: m,
        known_solution=known_solution,
        m2_bound=0.0,
        is_linear=True,
        name=name,
    )


def make_psd_singular_linear(dim: int = 8, seed: int = 1) -> ProblemInstance:
    """Symmetric PSD matrix with two zero eigenvalues and spectrum up to 1.

    The data lies in the range by construction and the stored solution is
    the range projection of the generating point, which is exactly the
    minimal-norm solution.
    """
    dim = _check_dim(dim, 3)
    rng = _rng(seed)
    q = _orthogonal(dim, rng)
    eigs = np.concatenate([[0.0, 0.0], np.linspace(0.1, 1.0, dim - 2)])
    m = (q * eigs) @ q.T
    m = 0.5 * (m + m.T)
    y_star = np.ones(dim)
    f = m @ y_star
    coords = q.T @ y_star
    coords[:2] = 0.0  # drop the kernel components
    return _linear(m, f, q @ coords, "psd-singular-linear")


def make_hilbert_psd(dim: int = 12) -> ProblemInstance:
    """Hilbert matrix problem; positive definite but extremely ill-conditioned."""
    dim = _check_dim(dim, 1)
    i = np.arange(1, dim + 1)
    m = 1.0 / (i[:, None] + i[None, :] - 1.0)
    y_star = np.ones(dim)
    return _linear(m, m @ y_star, y_star, "hilbert-psd")


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
    dim = _check_dim(dim, 3)
    radius = _positive(radius, "radius")
    rng = _rng(seed)
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
        m2_bound=6.0 * (radius + float(norm(y_star))),
        name="cubic-monotone",
    )


def make_random_monotone(dim: int = 10, seed: int = 3) -> ProblemInstance:
    """Rank-deficient quadratic form plus tanh; strictly monotone.

    tanh has derivative in (0, 1], so the sum is strictly monotone even
    on the kernel of the matrix part.  Its second derivative never
    exceeds 0.77 in magnitude, giving a small global curvature bound.
    """
    dim = _check_dim(dim, 3)
    rng = _rng(seed)
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
        m2_bound=0.77,
        name="random-monotone",
    )


_FACTORIES = {
    "psd-singular-linear": make_psd_singular_linear,
    "hilbert-psd": make_hilbert_psd,
    "cubic-monotone": make_cubic_monotone,
    "random-monotone": make_random_monotone,
}


def make_problem(name: str, **kwargs) -> ProblemInstance:
    """Build a corpus problem by name; kwargs go to its factory, dim <= MAX_DIM.

    An option the factory does not take raises ``ValueError``.
    """
    if not isinstance(name, str) or name not in _FACTORIES:
        raise ValueError(f"unknown corpus problem {name!r}; choose from {sorted(_FACTORIES)}")
    factory = _FACTORIES[name]
    takes = inspect.signature(factory).parameters
    for key in kwargs:
        if key not in takes:
            raise ValueError(f"{name} takes no {key} option, only {', '.join(takes)}")
    return factory(**kwargs)


def add_noise(f: np.ndarray, delta: float, seed: int) -> np.ndarray:
    """Perturb a data vector to exactly the requested distance.

    The direction is an isotropic draw normalized to unit length, so
    ``|f_noisy - f| = delta`` up to roundoff.  A zero draw is redrawn.
    """
    f = as_vector(f, name="f")
    if f.size == 0:  # its only draw is zero, redrawn forever
        raise ValueError("f must be non-empty")
    delta = _positive(delta, "delta")
    eta = _rng(seed).standard_normal(f.shape)
    while norm(eta) == 0.0:  # astronomically improbable; re-draw deterministically
        seed += 1
        eta = _rng(seed).standard_normal(f.shape)
    return f + delta * (eta / norm(eta))


_CORPUS_FIELDS = {
    "corpus": (str, REQUIRED),
    "dim": (lambda dim, name: dim, OPTIONAL),  # passed as given: the factory's range is its rule
    "seed": (_seed, OPTIONAL),
    "radius": (_positive, OPTIONAL),
}
_LINEAR_FIELDS = {
    "matrix": ([[float]], REQUIRED),
    "data": ([float], REQUIRED),
    "known_solution": (([float], None), None),
    "name": (str, "external-linear"),
}


def problem_from_dict(spec: dict) -> ProblemInstance:
    """Build a problem from a configuration mapping.

    Two forms are accepted: ``{"corpus": name, ...factory options}`` and
    ``{"linear": {"matrix": ..., "data": ..., ...}}`` for an explicit
    matrix problem.  Explicit matrices must be monotone (symmetric part
    positive semidefinite); that is checked exactly here rather than
    sampled later.  A given ``known_solution`` must be at most ``1 + 1e-9``
    times as long as the least-squares solution, which is stored when none
    is given; :class:`ProblemInstance` checks that either reproduces the data.
    A corpus option its factory does not take is rejected by :func:`make_problem`.
    """
    if isinstance(spec, dict) and "corpus" in spec:
        kwargs = _parse(spec, _CORPUS_FIELDS, "corpus")
        return make_problem(kwargs.pop("corpus"), **kwargs)
    if isinstance(spec, dict) and "linear" in spec:
        body = _parse(spec, {"linear": (dict, REQUIRED)}, "problem")["linear"]
        body = _parse(body, _LINEAR_FIELDS, "linear problem")
        m = as_matrix(body["matrix"])
        sym_min = float(np.linalg.eigvalsh(0.5 * (m + m.T)).min())
        if sym_min < -1e-12 * max(1.0, float(np.linalg.norm(m, 2))):
            raise ValueError(
                f"matrix is not monotone (symmetric part has eigenvalue {sym_min:.3e})"
            )
        problem = _linear(m, body["data"], None, body["name"])  # stores the lstsq solution
        if body["known_solution"] is not None:
            given = _linear(m, problem.data, body["known_solution"], problem.name)
            if norm(given.known_solution) > (1.0 + 1e-9) * norm(problem.known_solution):
                raise ValueError("known_solution is not minimal-norm: lstsq finds a shorter one")
            problem = given
        return problem
    raise ValueError("problem specification needs a 'corpus' or 'linear' entry")


def _describe(spec: dict, problem: ProblemInstance) -> dict:
    """JSON-ready description of an already built ``problem`` of ``spec``.

    Echoes the specification and adds what reproduction needs: the
    dimension and the data vector, and for a linear problem its matrix as
    ``matrix_sha256``, the SHA-256 of its C-contiguous float64 bytes.
    """
    out = {
        "spec": spec,
        "name": problem.name,
        "dim": problem.dim,
        "data": problem.data.tolist(),
        "is_linear": problem.is_linear,
    }
    if problem.m2_bound is not None:
        out["m2_bound"] = problem.m2_bound
    if problem.known_solution is not None:
        out["known_solution"] = problem.known_solution.tolist()
    if problem.is_linear:
        m = np.ascontiguousarray(jacobian(problem, np.zeros(problem.dim)), dtype=np.float64)
        out["matrix_sha256"] = hashlib.sha256(m.tobytes()).hexdigest()
    return out
