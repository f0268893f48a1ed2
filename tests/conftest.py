import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dsm import (
    ProblemInstance,
    make_cubic_monotone,
    make_hilbert_psd,
    make_psd_singular_linear,
    make_random_monotone,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_capped(script: str) -> str:
    """Run ``script`` in a child under a 1 GiB address space, with one BLAS
    thread and a 60 s timeout, so that a missing size cap fails there with
    MemoryError instead of exhausting memory here; return its stdout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def capped_outcome(imports: str, setup: str, call: str) -> str:
    """The outcome of ``call`` in a capped child (see :func:`run_capped`):
    ``"returned"`` or ``"<exception type>: <message>"``."""
    script = (
        f"from dsm import {imports}\n"
        f"{setup}\n"
        "try:\n"
        f"    {call}\n"
        "    print('returned')\n"
        "except Exception as exc:\n"
        "    print(f'{type(exc).__name__}: {exc}')\n"
    )
    return run_capped(script).strip()


@pytest.fixture(scope="session")
def rank_deficient_linear():
    return make_psd_singular_linear()


@pytest.fixture(scope="session")
def hilbert_linear():
    return make_hilbert_psd()


@pytest.fixture(scope="session")
def cubic():
    return make_cubic_monotone()


@pytest.fixture(scope="session")
def tanh_monotone():
    return make_random_monotone()


@pytest.fixture(scope="session")
def all_problems(rank_deficient_linear, hilbert_linear, cubic, tanh_monotone):
    return [rank_deficient_linear, hilbert_linear, cubic, tanh_monotone]


def identity_problem(dim=2, f=None):
    f = np.zeros(dim) if f is None else np.asarray(f, dtype=float)
    return ProblemInstance(
        dim=dim,
        operator=lambda u: u.copy(),
        data=f,
        jacobian=lambda u: np.eye(dim),
        known_solution=f.copy(),
        m2_bound=0.0,
        is_linear=True,
        name="identity",
    )


def diag_linear_problem(diag, f):
    m = np.diag(np.asarray(diag, dtype=float))
    return ProblemInstance(
        dim=m.shape[0],
        operator=lambda u: m @ u,
        data=np.asarray(f, dtype=float),
        jacobian=lambda u: m.copy(),
        m2_bound=0.0,
        is_linear=True,
        name="diag",
    )


def scalar_cubic_problem(f=2.0, m2_bound=12.0):
    # dim 1, operator u + u^3; strictly increasing so the root is unique
    return ProblemInstance(
        dim=1,
        operator=lambda u: u + u**3,
        data=np.array([float(f)]),
        jacobian=lambda u: np.array([[1.0 + 3.0 * u[0] ** 2]]),
        m2_bound=m2_bound,
        name="scalar-cubic",
    )
