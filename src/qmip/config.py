"""Tolerances, budgets, and error types shared across the package.

Every numeric tolerance that a caller might reasonably want to tighten or
loosen lives here rather than being buried as a literal.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Tolerances:
    unitarity: float = 1e-10          # ||U^dag U - I||_max for operator validation
    hermiticity: float = 1e-10        # ||H - H^dag||_max for eigensolver inputs
    state_norm: float = 1e-12         # | ||psi|| - 1 | for normalized state vectors
    probability: float = 1e-9         # slack on probabilities / honest-value identities
    psd: float = 1e-9                 # eigenvalue floor for density-operator checks
    trace: float = 1e-9               # | tr(rho) - 1 | for density operators


@dataclass(frozen=True)
class RunConfig:
    """Execution budgets for protocol runs and transforms."""

    max_branches: int = 256   # coin branches a single run may enumerate
    max_qubits: int = 22      # total register qubits a run may allocate
    tolerances: Tolerances = field(default_factory=Tolerances)


DEFAULT_TOLERANCES = Tolerances()
DEFAULT_RUN_CONFIG = RunConfig()


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
