"""Gates and circuits over named registers.

A Gate is a small dense unitary on an ordered tuple of target qubits plus an
optional list of (qubit, bit) controls. Circuits stay as flat lists of small
primitive gates: taking inverses, adding controls, and remapping registers
all distribute gate-by-gate, so large composite matrices are never built
during execution.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import ValidationError
from .linalg import (Qubit, StateVector, apply_matrix, permutation_sources,
                     read_only)

Control = tuple[Qubit, int]

_SQ = {
    "I": np.eye(2, dtype=np.complex128),
    "H": np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "S": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
}

_SWAP = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]], dtype=np.complex128)
# read-only, so every gate that names them holds these very objects
for _m in (*_SQ.values(), _SWAP):
    _m.setflags(write=False)
_SWAP_SOURCES = (0, 2, 1, 3)   # permutation_sources(_SWAP)

MAX_GATE_SPAN = 12  # controls + targets; keeps single-gate matrices small

_PERMUTATIONS: dict[int, tuple[weakref.ref, tuple[int, ...] | None]] = {}
"""`Gate.permutation` per matrix object, keyed by `id`: `remap`,
`controlled`, purification and the passes wrap one read-only matrix in many
gates. A weakref callback drops an entry when its matrix is collected, so no
entry outlives its matrix and no id is read for another."""


def _permutation_of(matrix: np.ndarray) -> tuple[int, ...] | None:
    key = id(matrix)
    entry = _PERMUTATIONS.get(key)
    if entry is None:
        src = permutation_sources(matrix)
        entry = _PERMUTATIONS[key] = (
            weakref.ref(matrix, lambda _, key=key: _PERMUTATIONS.pop(key, None)),
            None if src is None else tuple(src.tolist()))
    return entry[1]


def _q(q) -> Qubit:
    return (str(q[0]), int(q[1]))


@dataclass(frozen=True)
class Gate:
    name: str
    matrix: np.ndarray
    targets: tuple[Qubit, ...]
    controls: tuple[Control, ...] = ()

    def __post_init__(self):
        m = read_only(self.matrix)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "targets", tuple(_q(t) for t in self.targets))
        object.__setattr__(self, "controls",
                           tuple((_q(q), int(b) & 1) for q, b in self.controls))
        d = 2 ** len(self.targets)
        if m.shape != (d, d):
            raise ValidationError(
                f"gate {self.name}: matrix {m.shape} does not fit {len(self.targets)} targets")
        self._check_qubits()

    def _check_qubits(self) -> None:
        span = len(self.targets) + len(self.controls)
        if span > MAX_GATE_SPAN:
            raise ValidationError(
                f"gate {self.name} spans {span} qubits (limit {MAX_GATE_SPAN})")
        seen = set(self.targets) | {q for q, _ in self.controls}
        if len(seen) != span:
            raise ValidationError(f"gate {self.name}: overlapping targets/controls")

    def _derived(self, matrix: np.ndarray, targets: tuple[Qubit, ...],
                 controls: tuple[Control, ...], check: bool = True) -> "Gate":
        """A gate with this one's name on normalised qubits, holding
        `matrix`, which is this gate's or made the same way (read-only,
        C-contiguous complex128, of this shape), so it is not normalised
        again; with `check`, the span and overlap are."""
        g = object.__new__(Gate)
        object.__setattr__(g, "name", self.name)
        object.__setattr__(g, "matrix", matrix)
        object.__setattr__(g, "targets", targets)
        object.__setattr__(g, "controls", controls)
        if check:
            g._check_qubits()
        return g

    @property
    def permutation(self) -> tuple[int, ...] | None:
        """For a 0/1 permutation matrix, the column each row takes (see
        `permutation_sources`); None for any other matrix. Computed once per
        matrix object (`_PERMUTATIONS`): the matrix is read-only."""
        return _permutation_of(self.matrix)

    def qubits(self) -> tuple[Qubit, ...]:
        return tuple(q for q, _ in self.controls) + self.targets

    def registers(self) -> set[str]:
        return {r for r, _ in self.qubits()}

    def dagger(self) -> "Gate":
        """The inverse gate. A matrix equal to its conjugate transpose (X,
        Y, Z, H, SWAP) is kept as the same object, so its facts per matrix
        (`permutation`) carry over; any other adjoint is made read-only and
        contiguous here, once. The qubits are this gate's."""
        m = self.matrix.conj().T
        if np.array_equal(m, self.matrix):
            m = self.matrix
        else:
            m = np.ascontiguousarray(m)
            m.setflags(write=False)
        return self._derived(m, self.targets, self.controls, check=False)

    def controlled(self, extra: Sequence[Control]) -> "Gate":
        return self._derived(self.matrix, self.targets,
                             tuple((_q(q), int(b) & 1) for q, b in extra)
                             + self.controls)

    def remap(self, fn: Callable[[Qubit], Qubit]) -> "Gate":
        return self._derived(self.matrix, tuple(_q(fn(t)) for t in self.targets),
                             tuple((_q(fn(q)), b) for q, b in self.controls))

    def full_matrix(self) -> np.ndarray:
        """Dense matrix over (control qubits ++ target qubits), big-endian."""
        if not self.controls:
            return self.matrix
        nc = len(self.controls)
        d = self.matrix.shape[0]
        fire = 0
        for _, b in self.controls:
            fire = (fire << 1) | b
        full = np.eye((2**nc) * d, dtype=np.complex128)
        full[fire * d:(fire + 1) * d, fire * d:(fire + 1) * d] = self.matrix
        return full


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """The gate applied to a copy of the state, by the executor's kernel."""
    amps = apply_matrix(state, gate.matrix, gate.targets, gate.controls)
    amps.setflags(write=False)
    return state.with_amplitudes(amps)


def is_swap(gate: Gate) -> bool:
    """An uncontrolled SWAP: a relabelling of two qubits that moves no data
    in the executor: exactly the matrix `_SWAP`, read from its matrix's
    cached permutation once the shape fits."""
    return (not gate.controls and gate.matrix.shape == (4, 4)
            and gate.permutation == _SWAP_SOURCES)


@dataclass(frozen=True)
class Circuit:
    """An ordered, exactly invertible gate sequence."""

    gates: tuple[Gate, ...] = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))

    def __iter__(self):
        return iter(self.gates)

    def __len__(self):
        return len(self.gates)

    def __add__(self, other: "Circuit") -> "Circuit":
        return Circuit(self.gates + other.gates, self.label)

    def inverse(self) -> "Circuit":
        return Circuit(tuple(g.dagger() for g in reversed(self.gates)),
                       label=self.label + "^dag" if self.label else "")

    def controlled(self, extra: Sequence[Control]) -> "Circuit":
        return Circuit(tuple(g.controlled(extra) for g in self.gates), self.label)

    def remap(self, fn: Callable[[Qubit], Qubit]) -> "Circuit":
        return Circuit(tuple(g.remap(fn) for g in self.gates), self.label)

    def qubits(self) -> set[Qubit]:
        out: set[Qubit] = set()
        for g in self.gates:
            out.update(g.qubits())
        return out

    def registers(self) -> set[str]:
        return {r for r, _ in self.qubits()}


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    for g in circuit:
        state = apply_gate(state, g)
    return state


def circuit_matrix(circuit: Circuit, layout) -> np.ndarray:
    """Dense matrix of a circuit over the full layout (test-scale only)."""
    from .linalg import zero_state

    base = zero_state(layout)
    dim = base.dim
    cols = []
    for i in range(dim):
        amps = np.zeros(dim, dtype=np.complex128)
        amps[i] = 1.0
        st = StateVector(amps, base.layout, normalized=True)
        cols.append(apply_circuit(st, circuit).amplitudes)
    return np.array(cols).T


# ---------------------------------------------------------------------------
# gate constructors (the fixture-authoring vocabulary)


def gate1(name: str, target: Qubit) -> Gate:
    if name not in _SQ:
        raise ValidationError(f"unknown single-qubit gate {name!r}")
    return Gate(name, _SQ[name], (target,))


def h(target: Qubit) -> Gate:
    return gate1("H", target)


def x(target: Qubit) -> Gate:
    return gate1("X", target)


def y(target: Qubit) -> Gate:
    return gate1("Y", target)


def z(target: Qubit) -> Gate:
    return gate1("Z", target)


def s(target: Qubit) -> Gate:
    return gate1("S", target)


def cnot(control: Qubit, target: Qubit) -> Gate:
    return Gate("X", _SQ["X"], (target,), ((control, 1),))


def toffoli(c1: Qubit, c2: Qubit, target: Qubit) -> Gate:
    return Gate("X", _SQ["X"], (target,), ((c1, 1), (c2, 1)))


def mcx(controls: Sequence[Control], target: Qubit) -> Gate:
    """Multi-controlled X with per-control polarity (0 = anti-control)."""
    return Gate("X", _SQ["X"], (target,), tuple(controls))


def swap(a: Qubit, b: Qubit) -> Gate:
    return Gate("SWAP", _SWAP, (a, b))


def swap_slices(a: Sequence[Qubit], b: Sequence[Qubit]) -> list[Gate]:
    if len(a) != len(b):
        raise ValidationError("slice swap needs equal lengths")
    return [swap(p, q) for p, q in zip(a, b)]


def cphase(qubits: Sequence[Qubit]) -> Gate:
    """Phase -1 on the all-ones configuration of the listed qubits."""
    qs = [_q(q) for q in qubits]
    if not qs:
        raise ValidationError("controlled-phase needs at least one qubit")
    return Gate("Z", _SQ["Z"], (qs[-1],), tuple((q, 1) for q in qs[:-1]))


def zero_phase_flip(qubits: Sequence[Qubit]) -> list[Gate]:
    """I - 2|0...0><0...0| on the listed qubits, as X-conjugated CPHASE."""
    qs = [_q(q) for q in qubits]
    flips = [x(q) for q in qs]
    return flips + [cphase(qs)] + [g.dagger() for g in reversed(flips)]


def u1(matrix: np.ndarray, target: Qubit, controls: Sequence[Control] = ()) -> Gate:
    return Gate("U", matrix, (target,), tuple(controls))


def unitary_gate(matrix: np.ndarray, targets: Sequence[Qubit]) -> Gate:
    return Gate("U", matrix, tuple(targets))


def ry(theta: float) -> np.ndarray:
    c, sn = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -sn], [sn, c]], dtype=np.complex128)


def amplitude_rotation(p_one: float) -> np.ndarray:
    """Real rotation sending |0> to sqrt(1-p)|0> + sqrt(p)|1>."""
    if not 0.0 <= p_one <= 1.0:
        raise ValidationError(f"amplitude {p_one} outside [0, 1]")
    a, b = math.sqrt(1.0 - p_one), math.sqrt(p_one)
    return np.array([[a, -b], [b, a]], dtype=np.complex128)
