"""Tolerances, budgets, and error types shared across the package.

A run's budgets and its probability slack are `RunConfig` fields: the slack
bounds every probability identity checked with a config in reach (`run`'s
range check, the passes' identities and premises, the adversary's
re-simulations). The fixed gates on norms and unitarity are module
constants, each defined once here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

NORM_TOL = 1e-9         # | ||psi|| - 1 | of a state promised to be normalized
UNITARITY_TOL = 1e-10   # ||U^dag U - I||_max of a computed or loaded unitary


def is_integer(value) -> bool:
    """An integral number that is not a bool (a bool would count as 0 or 1)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    """Execution budgets and the probability slack of protocol runs and
    transforms."""

    max_branches: int = 256       # coin branches a single run may enumerate
    max_qubits: int = 22          # total register qubits a run may allocate
    probability_tol: float = 1e-9  # slack on probabilities / honest-value identities

    def __post_init__(self):
        for name in ("max_branches", "max_qubits"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValidationError(f"{name} must be >= 1, got {value}")
        tol = self.probability_tol
        if not (is_real(tol) and math.isfinite(tol) and tol >= 0):
            raise ValidationError(
                f"probability_tol must be finite and >= 0, got {tol!r}")


class QmipError(Exception):
    """Base class; `exit_code` drives the CLI process exit status."""

    exit_code = 1


class ValidationError(QmipError):
    exit_code = 2


class PreconditionError(QmipError):
    """A transformation hypothesis is violated; the message names it."""

    exit_code = 3


class BudgetError(QmipError):
    exit_code = 4


class NumericalCheckError(QmipError):
    """An internal cross-check (re-simulation, identity) failed."""

    exit_code = 5


DEFAULT_RUN_CONFIG = RunConfig()
