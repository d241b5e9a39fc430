"""Exact dense linear algebra over partitioned qubit registers.

State vectors are indexed big-endian: the first qubit of the first register
in the layout is the most significant bit of the amplitude index. Everything
is plain complex128 numpy; at desk scale (<= ~22 qubits total, operator
targets <= ~10 qubits) dense is both exact and fast enough.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Collection, Iterable, Sequence

import numpy as np

from .config import (DEFAULT_RUN_CONFIG, NORM_TOL, UNITARITY_TOL,
                     NumericalCheckError, ValidationError)

Qubit = tuple[str, int]          # (register name, qubit index within register)
Layout = tuple[tuple[str, int], ...]   # ordered (register name, qubit count)


def _as_layout(layout: Iterable[Sequence]) -> Layout:
    out = tuple((str(name), int(n)) for name, n in layout)
    names = [name for name, _ in out]
    if len(set(names)) != len(names):
        raise ValidationError(f"register names not unique: {names}")
    for name, n in out:
        if n < 0:
            raise ValidationError(f"register {name} has negative size")
    return out


def read_only(a) -> np.ndarray:
    """`a` as a read-only C-contiguous complex128 array: `a` itself when it
    already is one, else a read-only copy, so no caller's writable array is
    frozen or shared."""
    if (type(a) is np.ndarray and a.dtype == np.complex128
            and not a.flags.writeable and a.flags.c_contiguous):
        return a
    out = np.array(a, dtype=np.complex128, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StateVector:
    """A state over an ordered set of named registers, at its live width.

    `known` lists the qubits that hold a known bit, as (qubit, bit) pairs in
    layout order; `amplitudes` holds the 2^(n - len(known)) amplitudes of
    the other, live qubits, big-endian in layout order. The full state is
    zero wherever a known qubit differs from its bit. A state given as dense
    amplitudes has no known bits: nothing scans it for any. `dense()` is the
    one routine that writes the full vector, and `placed` the one that
    writes the state in another register order. Shared states, `run`'s
    snapshots and the passes' outputs are all held in this form.
    """

    amplitudes: np.ndarray
    layout: Layout
    normalized: bool = True
    known: tuple[tuple[Qubit, int], ...] = ()

    def __post_init__(self):
        amps = read_only(self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "layout", _as_layout(self.layout))
        if self.known:
            object.__setattr__(self, "known", self._checked_known())
        n = self.n_qubits - len(self.known)
        # no array has 2^64 amplitudes, and 2**n of a huge n is slow
        if amps.shape != (2 ** min(n, 64),):
            with_known = (f" with {len(self.known)} known bits"
                          if self.known else "")
            raise ValidationError(
                f"amplitude vector has length {amps.shape}, layout{with_known} "
                f"needs 2^{n}")
        if self.normalized:
            self._check_norm()

    @classmethod
    def _unchecked(cls, amps: np.ndarray, layout: Layout,
                   known: tuple[tuple[Qubit, int], ...],
                   normalized: bool = False) -> "StateVector":
        """A state on `amps`, which the caller hands over and no longer
        writes, with `layout` and `known` taken as they are: a checked
        layout and (qubit, 0/1 bit) pairs in layout order, as `run` gives
        them for its snapshots and `placed` for its states. Only the norm
        of a normalized state is checked."""
        amps.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amps)
        object.__setattr__(state, "layout", layout)
        object.__setattr__(state, "normalized", normalized)
        object.__setattr__(state, "known", known)
        if normalized:
            state._check_norm()
        return state

    def _check_norm(self) -> None:
        err = abs(np.linalg.norm(self.amplitudes) - 1.0)
        if not err <= NORM_TOL:             # a NaN amplitude fails too
            raise ValidationError(f"state norm deviates from 1 by {err:.3e}")

    def _checked_known(self) -> tuple[tuple[Qubit, int], ...]:
        """`known` with each qubit checked against the layout and each bit
        0 or 1, no qubit twice, in layout order."""
        at: dict[int, tuple[Qubit, int]] = {}
        for i, (qubit, bit) in enumerate(self.known):
            try:
                pos = self.qubit_position(qubit)
            except ValidationError as e:
                raise ValidationError(f"known[{i}]: {e}") from None
            if isinstance(bit, (bool, float)) or bit not in (0, 1):
                raise ValidationError(
                    f"known[{i}]: bit must be 0 or 1, not {bit!r}")
            if pos in at:
                raise ValidationError(f"known[{i}]: duplicate qubit {qubit!r}")
            at[pos] = ((str(qubit[0]), int(qubit[1])), int(bit))
        return tuple(at[pos] for pos in sorted(at))

    @property
    def n_qubits(self) -> int:
        return sum(n for _, n in self.layout)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @cached_property
    def _registers(self) -> dict[str, tuple[int, int]]:
        """Each register's first big-endian position and its size."""
        starts = itertools.accumulate((n for _, n in self.layout), initial=0)
        return {name: (start, n) for (name, n), start in zip(self.layout, starts)}

    def qubit_position(self, qubit: Qubit) -> int:
        """Global big-endian position of (register, index)."""
        reg, idx = qubit
        if reg not in self._registers:
            raise ValidationError(f"unknown register {reg!r}")
        offset, n = self._registers[reg]
        if not 0 <= idx < n:
            raise ValidationError(f"qubit index {idx} out of range for {reg}({n})")
        return offset + idx

    @property
    def full_index(self) -> tuple:
        """Where the live amplitudes sit in the full state read as a [2]*n
        tensor: each known qubit's bit, slice(None) for each live one."""
        index: list = [slice(None)] * self.n_qubits
        for qubit, bit in self.known:
            index[self.qubit_position(qubit)] = bit
        return tuple(index)

    def dense(self) -> np.ndarray:
        """The full amplitude vector, big-endian over the layout: the
        amplitudes themselves when no bit is known, else written here."""
        if not self.known:
            return self.amplitudes
        n = self.n_qubits
        out = np.zeros(2**n, dtype=np.complex128)
        out.reshape([2] * n)[self.full_index] = self.amplitudes.reshape(
            [2] * (n - len(self.known)))
        out.setflags(write=False)
        return out

    def _axes(self, regs: Collection[str]) -> list[int]:
        """The full-state axes of the registers `regs`, in order."""
        spans = [self._registers[r] for r in regs]
        return [offset + j for offset, n in spans for j in range(n)]

    def _projected(self, zeroed: Collection[str]
                   ) -> tuple[np.ndarray, list[int]] | None:
        """The live amplitudes as a tensor with the registers in `zeroed`
        projected onto |0...0> (a view), and the full-state axis of each of
        its axes; None when one of those registers holds a known 1."""
        index = self.full_index
        zero = set(self._axes(zeroed))
        if any(index[a] == 1 for a in zero):
            return None
        live = [a for a, i in enumerate(index) if isinstance(i, slice)]
        take = tuple(0 if a in zero else slice(None) for a in live)
        return (self.amplitudes.reshape([2] * len(live))[take + (...,)],
                [a for a in live if a not in zero])

    def norm(self, zeroed: Collection[str] = ()) -> float:
        """The norm of the state with the registers in `zeroed` projected
        onto |0...0>."""
        if not zeroed:
            return float(np.linalg.norm(self.amplitudes))
        projected = self._projected(zeroed)
        return 0.0 if projected is None else float(np.linalg.norm(projected[0]))

    def placed(self, groups: Sequence[tuple[str, Sequence[str]]],
               zeroed: Collection[str] = (), normalized: bool = True
               ) -> "StateVector":
        """The state written once in a new register order, at its live
        width: the registers fused into `groups` ((name, members) in order),
        and the registers in `zeroed` projected onto |0...0> and left out.
        The known bits in the grouped registers stay known bits, and the
        live amplitudes are the one array written. This is the package's one
        register reorder."""
        order = [m for _, members in groups for m in members]
        if sorted([*order, *zeroed]) != sorted(name for name, _ in self.layout):
            raise ValidationError(
                "groups and zeroed registers must partition the layout")
        sizes = dict(self.layout)
        layout = _as_layout((name, sum(sizes[m] for m in members))
                            for name, members in groups)
        kept = self._axes(order)
        index = self.full_index
        qubits = [(name, j) for name, n in layout for j in range(n)]
        known = tuple((q, index[a]) for q, a in zip(qubits, kept)
                      if not isinstance(index[a], slice))
        projected = self._projected(zeroed)
        if projected is None:
            live = np.zeros(2 ** (len(kept) - len(known)), dtype=np.complex128)
        else:
            src, axes = projected
            at = {a: j for j, a in enumerate(axes)}
            live = src.transpose([at[a] for a in kept if a in at]).ravel()
        # the known bits are this state's, in the new layout's order
        return StateVector._unchecked(live, layout, known, normalized)

    def with_amplitudes(self, amps: np.ndarray, normalized: bool | None = None) -> "StateVector":
        """The state with dense amplitudes `amps` over the same layout."""
        return StateVector(amps, self.layout,
                           self.normalized if normalized is None else normalized)


def zero_state(layout: Iterable[Sequence]) -> StateVector:
    lay = _as_layout(layout)
    n = sum(q for _, q in lay)
    if 16 * 2 ** min(n, 64) > np.iinfo(np.intp).max:
        raise ValidationError(
            f"no array holds the 2^{n} amplitudes of {n} qubits")
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = 1.0
    amps.setflags(write=False)
    return StateVector(amps, lay)


def tensor_states(a: StateVector, b: StateVector) -> StateVector:
    """a (x) b, with a's registers preceding b's, at its live width: the
    product of the live amplitudes and both states' known bits."""
    amps = np.kron(a.amplitudes, b.amplitudes)
    amps.setflags(write=False)
    return StateVector(amps, a.layout + b.layout,
                       a.normalized and b.normalized, a.known + b.known)


# ---------------------------------------------------------------------------
# projectors


@dataclass(frozen=True)
class ProjectorOp:
    """One of: output-qubit-is-1, all-listed-qubits-are-0, complement-of(P).

    complement(all_zero(())) is the never-accept projector (all_zero on an
    empty list is the identity).
    """

    kind: str                     # "output_one" | "all_zero" | "complement"
    qubits: tuple[Qubit, ...] = ()
    inner: "ProjectorOp | None" = None

    def __post_init__(self):
        if self.kind not in ("output_one", "all_zero", "complement"):
            raise ValidationError(f"unknown projector kind {self.kind!r}")
        if self.kind == "output_one" and len(self.qubits) != 1:
            raise ValidationError("output_one takes exactly one qubit")
        if self.kind == "complement" and self.inner is None:
            raise ValidationError("complement needs an inner projector")
        object.__setattr__(self, "qubits", tuple((str(r), int(i)) for r, i in self.qubits))

    @staticmethod
    def output_one(qubit: Qubit) -> "ProjectorOp":
        return ProjectorOp("output_one", (qubit,))

    @staticmethod
    def all_zero(qubits: Iterable[Qubit]) -> "ProjectorOp":
        return ProjectorOp("all_zero", tuple(qubits))

    @staticmethod
    def complement(inner: "ProjectorOp") -> "ProjectorOp":
        return ProjectorOp("complement", (), inner)

    @staticmethod
    def never() -> "ProjectorOp":
        return ProjectorOp.complement(ProjectorOp.all_zero(()))

    def target_qubits(self) -> tuple[Qubit, ...]:
        if self.kind == "complement":
            return self.inner.target_qubits()
        return self.qubits


def _target_axes(state: StateVector, qubits: Sequence[Qubit]) -> list[int]:
    axes = [state.qubit_position(q) for q in qubits]
    if len(set(axes)) != len(axes):
        raise ValidationError(f"duplicate target qubits: {qubits}")
    return axes


# ---------------------------------------------------------------------------
# slices and in-place kernels
#
# An n-qubit state is one C-contiguous buffer of 2^n amplitudes, read as a
# [2]*n tensor (axis 0 is the most significant bit). Fixing some axes at given
# bits selects a slice. Reshaping the buffer so that every run of untouched
# axes becomes one dimension gives that slice as a numpy view with at most
# (fixed axes) + 1 dimensions, so numpy's inner loops stay long.

Fixed = tuple[tuple[int, int], ...]   # (axis, bit) pairs


def _merged(fixed: dict[int, int], free: Sequence[int] = ()
            ) -> tuple[tuple[int, ...], list, dict[int, int]]:
    """The buffer shape with runs of untouched axes merged, an index holding
    the fixed axes at their bits, and the shape position of each `free` axis.
    The shape always ends in the merged run after the last of them, as -1:
    it takes the rest of the buffer, which may be a (2^n, b) block of b
    columns as well as one amplitude vector, and indexing yields a view,
    never a scalar. Only the fixed and free axes are walked."""
    shape: list[int] = []
    index: list = []
    where: dict[int, int] = {}
    start = 0                   # the first axis of the current untouched run
    for a in sorted({*fixed, *free}):
        if a > start:
            shape.append(2 ** (a - start))
            index.append(slice(None))
        if a in fixed:
            index.append(fixed[a])
        else:
            where[a] = len(shape)
            index.append(slice(None))
        shape.append(2)
        start = a + 1
    shape.append(-1)
    index.append(slice(None))
    return tuple(shape), index, where


def permutation_sources(matrix: np.ndarray) -> np.ndarray | None:
    """For a 0/1 permutation matrix, the column each row takes (row j takes
    column src[j]); None for any other matrix."""
    m = np.asarray(matrix)
    if np.count_nonzero(m) != len(m):
        return None
    if (((m == 0) | (m == 1)).all() and (m.sum(axis=0) == 1).all()
            and (m.sum(axis=1) == 1).all()):
        return m.real.argmax(axis=1)
    return None


LAYOUT_CACHE_SIZE = 4096
"""How many kernel and slice layouts (`_kernel_layout`, `_slice_layout`) are
kept. A layout is a few small tuples and depends on the axes alone, so the
protocols a process runs again and again compile from kept layouts."""


@lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _kernel_layout(targets: tuple[int, ...], controls: Fixed
                   ) -> tuple[tuple[int, ...], tuple, tuple[int, ...]]:
    """`MatrixKernel`'s buffer shape, slice index and axis order for a
    matrix on the axes `targets` under the (axis, bit) `controls`."""
    shape, index, where = _merged(dict(controls), targets)
    kept = [pos for pos, i in enumerate(index) if isinstance(i, slice)]
    tdims = [kept.index(where[a]) for a in targets]
    # the slice's axes with the targets first, as np.moveaxis orders them
    order = tdims + [a for a in range(len(kept)) if a not in tdims]
    return shape, tuple(index), tuple(order)


@lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _slice_layout(fixed: Fixed) -> tuple[tuple[int, ...], tuple]:
    """The buffer shape and index of the slice that fixes `fixed`."""
    shape, index, _ = _merged(dict(fixed))
    return shape, tuple(index)


class MatrixKernel:
    """A (controlled) matrix compiled against the axes of a buffer (`_merged`)
    and applied in place to the control-satisfied slice only;
    `full_matrix()` is never built. The slice, with its targets moved to the
    front, is multiplied by the matrix in one product and written back.

    For a 0/1 permutation (X, CNOT, mcx, SWAP) or a diagonal with entries in
    {1, -1, i, -i} (Z, S, CPHASE), every output amplitude has exactly one
    nonzero term, so the product is exact: only the sign of a zero amplitude
    can differ from `full_matrix()` plus tensordot.
    """

    def __init__(self, matrix: np.ndarray, targets: Sequence[int],
                 controls: Fixed):
        self.matrix = np.asarray(matrix, dtype=np.complex128)
        d = len(targets)
        self.dim = 2 ** d
        if self.matrix.shape != (self.dim, self.dim):
            raise ValidationError(
                f"matrix shape {self.matrix.shape} does not fit {d} targets")
        self.shape, self.index, self.order = _kernel_layout(tuple(targets),
                                                            tuple(controls))

    def __call__(self, buf: np.ndarray) -> None:
        """Apply in place to `buf`, a writable C-contiguous amplitude buffer."""
        view = buf.reshape(self.shape)[self.index].transpose(self.order)
        view[...] = (self.matrix @ view.reshape(self.dim, -1)).reshape(view.shape)

    def front(self, buf: np.ndarray) -> np.ndarray:
        """The view of `buf` that `__call__` multiplies: the
        control-satisfied slice with the targets first."""
        return buf.reshape(self.shape)[self.index].transpose(self.order)


def apply_matrix(state: StateVector, matrix: np.ndarray,
                 targets: Sequence[Qubit],
                 controls: Sequence[tuple[Qubit, int]] = ()) -> np.ndarray:
    """Amplitudes of `matrix` on `targets`, controlled by (qubit, bit) pairs,
    applied to `state`: a copy of the amplitudes, then `MatrixKernel`."""
    axes = _target_axes(state, tuple(targets) + tuple(q for q, _ in controls))
    d = len(targets)
    kernel = MatrixKernel(matrix, axes[:d],
                          tuple(zip(axes[d:], (b for _, b in controls))))
    out = np.array(state.dense())
    kernel(out)
    return out


def _intersect(xs: list[dict], ys: list[dict]) -> list[dict]:
    return [{**x, **y} for x in xs for y in ys
            if all(x.get(a, b) == b for a, b in y.items())]


def _slices(p: ProjectorOp, axis: Callable[[Qubit], int]) -> list[dict]:
    if p.kind == "output_one":
        return [{axis(p.qubits[0]): 1}]
    if p.kind == "all_zero":
        return [{axis(q): 0 for q in p.qubits}]
    # the complement of one slice is the disjoint union over its fixed axes a
    # of "earlier fixed axes hold, a is flipped"; of a union, the intersection
    out: list[dict] = [{}]
    for s in _slices(p.inner, axis):
        items = list(s.items())
        out = _intersect(out, [dict(items[:j] + [(a, 1 - b)])
                               for j, (a, b) in enumerate(items)])
    return out


def projector_slices(projectors: Iterable[ProjectorOp],
                     axis: Callable[[Qubit], int]) -> list[Fixed]:
    """The conjunction of commuting basis projectors as disjoint slices, each
    a tuple of (axis, bit) pairs; `axis` maps a qubit to its buffer axis. An
    empty list is the zero projector, [()] the identity."""
    out: list[dict] = [{}]
    for p in projectors:
        out = _intersect(out, _slices(p, axis))
    return [tuple(s.items()) for s in out]


class Slices:
    """A disjoint union of slices compiled against the axes of a buffer
    (`_merged`): the basis projector onto every amplitude in any of them."""

    def __init__(self, slices: Iterable[Fixed]):
        self.views = [_slice_layout(tuple(s)) for s in slices]

    def mass(self, buf: np.ndarray) -> float:
        """||P psi||^2."""
        total = 0.0
        for shape, index in self.views:
            v = buf.reshape(shape)[index].ravel()
            total += float(np.vdot(v, v).real)
        return total

    def clear(self, buf: np.ndarray) -> None:
        """psi <- (I - P) psi, in place."""
        for shape, index in self.views:
            buf.reshape(shape)[index] = 0.0

    def kept(self, buf: np.ndarray) -> np.ndarray:
        """A new buffer holding P psi."""
        out = np.zeros(buf.shape, dtype=buf.dtype)
        for shape, index in self.views:
            out.reshape(shape)[index] = buf.reshape(shape)[index]
        return out


def checked_probability(val: float, what: str, slack: float) -> float:
    """`val` clipped into [0, 1]; NumericalCheckError if it lies outside by
    more than `slack`."""
    if not -slack <= val <= 1.0 + slack:
        raise NumericalCheckError(
            f"{what} {val!r} lies outside [0, 1] by more than {slack:g}")
    return min(max(val, 0.0), 1.0)


def project(state: StateVector, p: ProjectorOp) -> np.ndarray:
    """Return the (unnormalized) amplitudes of P|psi>."""
    return Slices(projector_slices((p,), state.qubit_position)
                  ).kept(state.dense())


def project_norm_sq(state: StateVector, p: ProjectorOp) -> float:
    """||P |psi>||^2. For a normalized input it must lie in [0, 1] within the
    default probability slack (else NumericalCheckError) and is clipped
    there."""
    val = Slices(projector_slices((p,), state.qubit_position)
                 ).mass(state.dense())
    if state.normalized:
        val = checked_probability(val, "projector mass",
                                  DEFAULT_RUN_CONFIG.probability_tol)
    return val


# ---------------------------------------------------------------------------
# density-operator utilities


def _check_density(rho: np.ndarray, name: str) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"{name} is not square")
    if np.abs(rho - rho.conj().T).max() > 1e-8:
        raise ValidationError(f"{name} is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValidationError(f"{name} does not have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        raise ValidationError(f"{name} is not positive semidefinite")
    return rho


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _pure_part(rho: np.ndarray) -> np.ndarray | None:
    """Return the state vector if rho is (numerically) rank one, else None."""
    purity = float(np.trace(rho @ rho).real)
    if abs(purity - 1.0) > 1e-10:
        return None
    vals, vecs = np.linalg.eigh(rho)
    return vecs[:, -1]


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """F(rho, sigma) = tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1].

    For a pair of pure states the overlap |<phi|psi>| is computed directly;
    the matrix square-root path is kept for mixed inputs.
    """
    rho = _check_density(rho, "rho")
    sigma = _check_density(sigma, "sigma")
    if rho.shape != sigma.shape:
        raise ValidationError(
            f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    phi = _pure_part(rho)
    psi = _pure_part(sigma)
    if phi is not None and psi is not None:
        return float(min(abs(np.vdot(phi, psi)), 1.0))
    if phi is not None:
        # F = sqrt(<phi| sigma |phi>)
        return float(min(np.sqrt(max(np.vdot(phi, sigma @ phi).real, 0.0)), 1.0))
    if psi is not None:
        return float(min(np.sqrt(max(np.vdot(psi, rho @ psi).real, 0.0)), 1.0))
    s = _psd_sqrt(rho)
    vals = np.linalg.eigvalsh(s @ sigma @ s)
    return float(min(np.sqrt(np.clip(vals, 0.0, None)).sum(), 1.0))


# ---------------------------------------------------------------------------
# polar decomposition


def polar_unitary(a: np.ndarray) -> np.ndarray:
    """The unitary maximizing Re tr(U^dag a): U = V W^dag from a = V S W^dag.

    Rank-deficient inputs are allowed; any completion of the SVD basis is a
    valid maximizer. tr(U^dag a) equals the sum of singular values (real,
    nonnegative).
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("polar decomposition input is not square")
    v, _, wh = np.linalg.svd(a)
    return require_unitary(v @ wh)


def require_unitary(u: np.ndarray) -> np.ndarray:
    """u, if ||U^dag U - I||_max <= UNITARITY_TOL; ValidationError if not."""
    err = np.abs(u.conj().T @ u - np.eye(len(u))).max()
    if err > UNITARITY_TOL:
        raise ValidationError(f"operator not unitary (||U^dag U - I|| = {err:.3e})")
    return u


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity so the distribution is exactly Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
