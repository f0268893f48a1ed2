"""Regularized Newton flow solvers for monotone operator equations.

The package solves ``B(u) = f`` for monotone ``B`` where the equation may
be degenerate, by following the damped flow of the regularized problem
``B(u) + eps * u = f`` and driving ``eps`` to zero.  It ships a small
corpus of finite-dimensional test problems, a discrete iteration with
verifiable per-step contraction, scalar recursion certificates for the
convergence argument, and an experiment runner that checks every bound
numerically.

Every name in a layer's ``__all__`` is re-exported here.  The experiment
runner's names are loaded from ``dsm.cli`` on first use (PEP 562), so
``import dsm`` does not import the runner and ``python -m dsm.cli`` runs
it without a second copy.
"""

import importlib

from . import corpus, flow, iterate, linsolve, problem, recursion, regroot
from .corpus import *  # noqa: F401,F403
from .flow import *  # noqa: F401,F403
from .iterate import *  # noqa: F401,F403
from .linsolve import *  # noqa: F401,F403
from .problem import *  # noqa: F401,F403
from .recursion import *  # noqa: F401,F403
from .regroot import *  # noqa: F401,F403

__version__ = "0.1.0"

_LAYERS = (problem, linsolve, regroot, flow, iterate, recursion, corpus)
_CLI_NAMES = ("emit_table", "main", "run_experiment")
__all__ = [name for layer in _LAYERS for name in layer.__all__] + [*_CLI_NAMES, "__version__"]


def __getattr__(name):
    if name in _CLI_NAMES:
        return getattr(importlib.import_module(".cli", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
