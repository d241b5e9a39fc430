"""Optimization over dishonest provers and shared states.

Two engines:

* `optimal_shared_state`: with all prover circuits fixed, acceptance is a
  quadratic form <Phi| A |Phi> on the joint prover space. A is assembled
  exactly by simulating computational basis vectors, and the best shared
  state is the top eigenvector.

* `seesaw`: alternating best-response ascent. Each prover-turn unitary is
  relaxed through the bilinear form Re<phi| (tail) (U x I) (head) |psi> whose
  exact maximizer over unitaries is the polar factor of the environment
  operator E (assembled by one forward and one backward pass per coin branch,
  with environment operators averaged across branches). The shared state is
  re-optimized by the eigensolver. Both moves are exact maximizations of the
  surrogate, so the per-sweep value trace is non-decreasing.

Both engines, `random_search` and `brute_force_value` execute a `_Program`:
every coin branch compiled once per call into a short list of steps. A
maximal run of verifier gates between prover slots and events is one step;
while the state has at most `FUSE_MAX_DIM` amplitudes it is one dense matrix
over the whole state, built once, and above that it stays one step per gate
with the gate's matrix and axes precomputed. A prover slot holds a row
permutation that brings its qubits to the front, so the slot's unitary is one
matmul; the same permutation gives the environment contraction. Events and
accept rules are 0/1 masks over the basis. Backward passes apply adjoints as
conj(M^T conj(x)), so no daggered copy of a step is built or stored.

The environment operators of the see-saw audits are often rank deficient
(rank 1-2 for the 16x16 operators of the rewound `sound_no` audit), so their
polar completion on the null space is set by rounding. Any reordering of the
floating-point sums moves see-saw trajectories after the first sweep (by
about 1e-4 on that audit, while the first sweep agrees to 1e-15); executors
are compared step by step, not by whole traces.

Everything is seeded: restart r uses default_rng([seed, r]).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .circuits import Circuit, Gate, ry
from .config import (DEFAULT_RUN_CONFIG, NumericalCheckError,
                     PreconditionError, RunConfig, ValidationError)
from .linalg import ProjectorOp, Qubit, StateVector, polar_unitary, random_unitary
from .model import (FlatBranch, ProtocolInstance, ProverStrategy,
                    Register, RegisterLayout, VerifierSpec, flatten,
                    require_budget, run)

_SWAP4 = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]], dtype=np.complex128)

FUSE_MAX_DIM = 256
"""Largest state dimension 2^n whose verifier segments fuse into one matrix."""

Assignment = dict[tuple[int, int], np.ndarray]


# ---------------------------------------------------------------------------
# compiled branch programs (columns = independent initial vectors)


class _Program:
    """The coin branches of one layout as step lists, compiled once.

    Steps are ("matrix", M) for a fused segment, ("gate", M, axes) for one
    gate above the fusion bound, ("prover", key, perm) for a prover slot and
    ("event", mask) for an accept event.
    """

    def __init__(self, layout: RegisterLayout, branches: Sequence[FlatBranch]):
        self.n = layout.total_qubits
        self.dim = 2 ** self.n
        self.pos: dict[Qubit, int] = {}
        for r in layout.registers:
            for i in range(r.qubits):
                self.pos[(r.name, i)] = len(self.pos)
        self.d_p = _prover_dim(layout)
        self._index = np.arange(self.dim).reshape(-1, 1)
        perms: dict[tuple[Qubit, ...], np.ndarray] = {}
        self.branches = []
        for br in branches:
            steps: list[tuple] = []
            segment: list[Gate] = []
            for op in br.ops:
                if op.kind == "gate":
                    segment.append(op.gate)
                elif op.kind != "turn":
                    steps += self._segment(segment, first=not steps)
                    segment = []
                    if op.kind == "prover":
                        if op.qubits not in perms:
                            perms[op.qubits] = self._front_perm(op.qubits)
                        steps.append(("prover", op.prover_key, perms[op.qubits]))
                    else:
                        steps.append(("event", self._mask(op.projectors)))
            steps += self._segment(segment, first=not steps)
            self.branches.append((br.weight, tuple(steps), self._mask(br.accept)))

    # -- compilation

    def _segment(self, gates: Sequence[Gate], first: bool) -> list[tuple]:
        steps = [("gate", g.full_matrix(), [self.pos[q] for q in g.qubits()])
                 for g in gates]
        if not steps or self.dim > FUSE_MAX_DIM:
            return steps
        # a branch starts from |0>_(V,M) (x) prover columns, so its leading
        # segment only needs the columns of the first d_p basis states
        fused = np.eye(self.dim, self.d_p if first else self.dim,
                       dtype=np.complex128)
        for _, m, axes in steps:
            fused = self._gate(fused, m, axes)
        return [("matrix", fused)]

    def _front_perm(self, qubits: Sequence[Qubit]) -> np.ndarray:
        """Row order with `qubits` as the leading bits, the rest in place."""
        axes = [self.pos[q] for q in qubits]
        rest = [a for a in range(self.n) if a not in axes]
        return self._index.reshape([2] * self.n).transpose(axes + rest).reshape(-1)

    def _holds(self, p: ProjectorOp) -> np.ndarray:
        if p.kind == "complement":
            return ~self._holds(p.inner)
        bits = [(self._index >> (self.n - 1 - self.pos[q])) & 1 for q in p.qubits]
        if p.kind == "output_one":
            return bits[0] == 1
        keep = np.ones((self.dim, 1), dtype=bool)
        for b in bits:
            keep &= b == 0
        return keep

    def _mask(self, projectors: Sequence[ProjectorOp]) -> np.ndarray:
        """The conjunction of commuting diagonal projectors, a (dim, 1) column."""
        keep = np.ones((self.dim, 1), dtype=bool)
        for p in projectors:
            keep &= self._holds(p)
        return keep.astype(np.float64)

    # -- kernels

    def _gate(self, cols: np.ndarray, matrix: np.ndarray,
              axes: Sequence[int]) -> np.ndarray:
        d = len(axes)
        b = cols.shape[1]
        tensor = cols.reshape([2] * self.n + [b])
        m = matrix.reshape([2] * (2 * d))
        out = np.tensordot(m, tensor, axes=(list(range(d, 2 * d)), axes))
        out = np.moveaxis(out, list(range(d)), axes)
        return np.ascontiguousarray(out.reshape(self.dim, b))

    @staticmethod
    def _front(cols: np.ndarray, perm: np.ndarray, d: int) -> np.ndarray:
        return cols[perm].reshape(d, -1)

    def _act(self, step: tuple, cols: np.ndarray, assignment: Assignment | None,
             transpose: bool = False) -> np.ndarray:
        """A gate, segment or prover step (or its transpose) on the columns."""
        kind = step[0]
        if kind == "matrix":
            m = step[1].T if transpose else step[1]
            return m @ cols[:m.shape[1]]
        if kind == "gate":
            return self._gate(cols, step[1].T if transpose else step[1], step[2])
        u = assignment[step[1]]
        perm = step[2]
        out = np.empty_like(cols)
        out[perm] = ((u.T if transpose else u) @ self._front(cols, perm, u.shape[0])
                     ).reshape(cols.shape)
        return out

    def _adjoint(self, step: tuple, cols: np.ndarray,
                 assignment: Assignment) -> np.ndarray:
        return self._act(step, cols.conj(), assignment, transpose=True).conj()

    # -- evaluation

    def _initial_columns(self, prover_cols: np.ndarray) -> np.ndarray:
        """|0...0>_(V,M) (x) each column of prover_cols."""
        cols = np.zeros((self.dim, prover_cols.shape[1]), dtype=np.complex128)
        cols[:self.d_p, :] = prover_cols
        return cols

    def _hits(self, steps: Sequence[tuple], accept: np.ndarray,
              cols: np.ndarray, assignment: Assignment | None) -> list[np.ndarray]:
        """Run one branch; returns each event's projected columns and finally
        the accepted columns."""
        hits = []
        for step in steps:
            if step[0] == "event":
                hit = cols * step[1]
                hits.append(hit)
                cols = cols - hit
            else:
                cols = self._act(step, cols, assignment)
        hits.append(cols * accept)
        return hits

    def value(self, prover_col: np.ndarray,
              assignment: Assignment | None) -> float:
        """Acceptance probability of the shared state in prover_col."""
        init = self._initial_columns(prover_col)
        return sum(w * sum(float(np.vdot(v, v).real)
                           for v in self._hits(steps, accept, init, assignment))
                   for w, steps, accept in self.branches)

    def acceptance_operator(self, assignment: Assignment | None,
                            prover_cols: np.ndarray) -> np.ndarray:
        """A with <Phi|A|Phi> = acceptance, restricted to span(prover_cols)."""
        b = prover_cols.shape[1]
        init = self._initial_columns(prover_cols)
        a = np.zeros((b, b), dtype=np.complex128)
        for w, steps, accept in self.branches:
            for v in self._hits(steps, accept, init, assignment):
                a += w * (v.conj().T @ v)
        return (a + a.conj().T) / 2.0

    def environment(self, prover_col: np.ndarray, assignment: Assignment,
                    key: tuple[int, int]) -> np.ndarray:
        """The environment operator of assignment[key] at the shared state in
        prover_col, before the polar step."""
        init = self._initial_columns(prover_col)
        d = assignment[key].shape[0]
        env = np.zeros((d, d), dtype=np.complex128)
        for w, steps, accept in self.branches:
            idx = next(i for i, s in enumerate(steps)
                       if s[0] == "prover" and s[1] == key)
            # forward to just before the variable
            chi = init
            for step in steps[:idx]:
                if step[0] == "event":
                    chi = chi - chi * step[1]
                else:
                    chi = self._act(step, chi, assignment)
            # forward through the tail, stashing event hits
            phi = self._act(steps[idx], chi, assignment)
            stash: dict[int, np.ndarray] = {}
            for j in range(idx + 1, len(steps)):
                if steps[j][0] == "event":
                    stash[j] = phi * steps[j][1]
                    phi = phi - stash[j]
                else:
                    phi = self._act(steps[j], phi, assignment)
            mu = phi * accept
            # backward to just after the variable, accumulating event terms
            for j in range(len(steps) - 1, idx, -1):
                if steps[j][0] == "event":
                    mu = mu - mu * steps[j][1] + stash[j]
                else:
                    mu = self._adjoint(steps[j], mu, assignment)
            perm = steps[idx][2]
            env += w * (self._front(mu, perm, d)
                        @ self._front(chi, perm, d).conj().T)
        return env


def _prover_dim(layout: RegisterLayout) -> int:
    return 2 ** sum(r.qubits for r in layout.provers)


# ---------------------------------------------------------------------------
# optimal shared state


def optimal_shared_state(verifier: VerifierSpec,
                         provers: Sequence[ProverStrategy],
                         config: RunConfig = DEFAULT_RUN_CONFIG,
                         check: bool = True) -> tuple[float, StateVector]:
    """Best a-priori shared state for fixed prover circuits, by eigensolver.

    Returns (p_max, state). With check=True the state is re-simulated and
    must reproduce p_max within 1e-9.
    """
    layout = verifier.layout
    require_budget(layout, config)
    d_p = _prover_dim(layout)
    if d_p > 2 ** 12:
        raise PreconditionError(
            f"joint prover space 2^{int(math.log2(d_p))} exceeds the eigensolver budget")
    first = np.zeros(d_p, dtype=np.complex128)
    first[0] = 1.0
    dummy = StateVector(first, tuple((r.name, r.qubits) for r in layout.provers))
    inst = ProtocolInstance(verifier, tuple(provers), dummy)
    program = _Program(layout, flatten(inst, config=config))
    a = program.acceptance_operator(None, np.eye(d_p, dtype=np.complex128))
    vals, vecs = np.linalg.eigh(a)
    p_max = float(vals[-1])
    vec = vecs[:, -1]
    state = StateVector(vec / np.linalg.norm(vec),
                        tuple((r.name, r.qubits) for r in layout.provers))
    if check:
        resim = run(inst.with_shared(state), config=config).acceptance
        if abs(resim - p_max) > 1e-9:
            raise NumericalCheckError(
                f"eigenvalue {p_max:.12f} vs re-simulated {resim:.12f}")
    return p_max, state


# ---------------------------------------------------------------------------
# see-saw


@dataclass(frozen=True)
class SeesawConfig:
    prover_dims: tuple[int, ...]          # qubits of each P_i
    restarts: int = 20
    max_sweeps: int = 60
    convergence_tol: float = 1e-9
    seed: int = 0
    product_groups: tuple[tuple[int, ...], ...] | None = None
    # product_groups partitions prover indices into groups that may not share
    # entanglement across group boundaries (see parallel repetition audits)

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.convergence_tol <= 0:
            raise ValidationError("convergence_tol must be > 0")


@dataclass(frozen=True)
class AdversaryResult:
    value: float
    strategies: tuple[ProverStrategy, ...]
    shared: StateVector
    trace: tuple[float, ...]              # per-sweep values of the best restart
    converged: bool
    restart_values: tuple[float, ...]
    prover_dims: tuple[int, ...]


def resize_prover_registers(verifier: VerifierSpec,
                            prover_dims: Sequence[int]) -> VerifierSpec:
    layout = verifier.layout
    if len(prover_dims) != layout.k:
        raise ValidationError(f"need {layout.k} prover dimensions")
    provers = tuple(Register(r.name, int(d), "prover")
                    for r, d in zip(layout.provers, prover_dims))
    new_layout = RegisterLayout(layout.verifier_side + layout.messages + provers)
    return replace(verifier, layout=new_layout)


def strategies_from_assignment(verifier: VerifierSpec,
                               assignment: Assignment) -> tuple[ProverStrategy, ...]:
    layout = verifier.layout
    n_turns = verifier.prover_turn_count()
    out = []
    for i in range(1, layout.k + 1):
        qs = tuple(layout.qubits_of(layout.provers[i - 1].name)
                   + layout.qubits_of(layout.messages[i - 1].name))
        circuits = tuple(
            Circuit((Gate("U", assignment[(i, t)], qs),), label=f"P{i} turn {t}")
            for t in range(1, n_turns + 1))
        out.append(ProverStrategy(i, circuits))
    return tuple(out)


def _product_state_update(program: _Program, layout: RegisterLayout,
                          assignment: Assignment,
                          groups: Sequence[Sequence[int]],
                          group_states: list[np.ndarray]) -> np.ndarray:
    """One round of per-group eigen-updates under a product constraint.

    Groups must be contiguous in the prover register order. Returns the full
    product state.
    """
    reg_dims = [2 ** r.qubits for r in layout.provers]
    for gi, group in enumerate(groups):
        dims = [reg_dims[i - 1] for i in group]
        d_g = int(np.prod(dims))
        basis = np.eye(d_g, dtype=np.complex128)
        factors = []
        for gj, _ in enumerate(groups):
            if gj == gi:
                factors.append(basis)
            else:
                factors.append(group_states[gj][:, None])
        cols = factors[0]
        for f in factors[1:]:
            cols = np.kron(cols, f)
        a = program.acceptance_operator(assignment, cols)
        _, vecs = np.linalg.eigh(a)
        group_states[gi] = vecs[:, -1] / np.linalg.norm(vecs[:, -1])
    full = group_states[0]
    for st in group_states[1:]:
        full = np.kron(full, st)
    return full


def seesaw(verifier: VerifierSpec, cfg: SeesawConfig,
           config: RunConfig = DEFAULT_RUN_CONFIG) -> AdversaryResult:
    """Alternating maximization over prover unitaries and the shared state.

    Returns the best restart. The trace holds one value per sweep and is
    non-decreasing; the final value is re-simulated through the plain
    executor and must agree within 1e-9.
    """
    spec = resize_prover_registers(verifier, cfg.prover_dims)
    layout = spec.layout
    require_budget(layout, config)
    if cfg.product_groups is not None:
        flat = [i for g in cfg.product_groups for i in g]
        if sorted(flat) != list(range(1, layout.k + 1)):
            raise ValidationError("product groups must partition the provers")
    branches = flatten(verifier=spec, config=config)
    program = _Program(layout, branches)
    d_p = _prover_dim(layout)
    keys = sorted({op.prover_key for br in branches for op in br.ops
                   if op.kind == "prover"},
                  key=lambda k: (k[1], k[0]))
    dims = {key: 2 ** (layout.provers[key[0] - 1].qubits
                       + layout.message_qubits) for key in keys}

    best: tuple[float, int, Assignment, np.ndarray, list[float], bool] | None = None
    restart_values = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        assignment: Assignment = {k: random_unitary(dims[k], rng) for k in keys}
        if cfg.product_groups is None:
            group_states = None
        else:
            group_states = []
            for g in cfg.product_groups:
                d_g = int(np.prod([2 ** layout.provers[i - 1].qubits for i in g]))
                v = rng.standard_normal(d_g) + 1j * rng.standard_normal(d_g)
                group_states.append(v / np.linalg.norm(v))
        shared = None
        trace: list[float] = []
        converged = False
        prev = -1.0
        for _ in range(cfg.max_sweeps):
            if cfg.product_groups is None:
                basis = np.eye(d_p, dtype=np.complex128)
                a = program.acceptance_operator(assignment, basis)
                _, vecs = np.linalg.eigh(a)
                shared = vecs[:, -1] / np.linalg.norm(vecs[:, -1])
            else:
                shared = _product_state_update(program, layout, assignment,
                                               cfg.product_groups, group_states)
            for key in keys:
                assignment[key] = polar_unitary(
                    program.environment(shared[:, None], assignment, key)).matrix
            value = program.value(shared[:, None], assignment)
            trace.append(value)
            if value - prev < cfg.convergence_tol:
                converged = True
                break
            prev = value
        restart_values.append(trace[-1])
        cand = (trace[-1], -r, assignment, shared, trace, converged)
        if best is None or cand[:2] > best[:2]:
            best = cand

    value, _, assignment, shared, trace, converged = best
    strategies = strategies_from_assignment(spec, assignment)
    shared_state = StateVector(shared, tuple((r.name, r.qubits)
                                             for r in layout.provers))
    inst = ProtocolInstance(spec, strategies, shared_state)
    resim = run(inst, config=config).acceptance
    if abs(resim - value) > 1e-9:
        raise NumericalCheckError(
            f"see-saw value {value:.12f} vs re-simulated {resim:.12f}")
    return AdversaryResult(resim, strategies, shared_state, tuple(trace),
                           converged, tuple(restart_values), cfg.prover_dims)


def random_search(verifier: VerifierSpec, prover_dims: Sequence[int],
                  samples: int, seed: int = 0,
                  config: RunConfig = DEFAULT_RUN_CONFIG) -> float:
    """Best acceptance over `samples` Haar-random strategies and states.

    A lower-bound oracle, independent of the see-saw path.
    """
    spec = resize_prover_registers(verifier, prover_dims)
    layout = spec.layout
    require_budget(layout, config)
    branches = flatten(verifier=spec, config=config)
    program = _Program(layout, branches)
    d_p = _prover_dim(layout)
    keys = sorted({op.prover_key for br in branches for op in br.ops
                   if op.kind == "prover"})
    dims = {key: 2 ** (layout.provers[key[0] - 1].qubits
                       + layout.message_qubits) for key in keys}
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        assignment = {k: random_unitary(dims[k], rng) for k in keys}
        v = rng.standard_normal(d_p) + 1j * rng.standard_normal(d_p)
        v /= np.linalg.norm(v)
        best = max(best, program.value(v[:, None], assignment))
    return best


# ---------------------------------------------------------------------------
# exhaustive grid oracle


def _grid_turn_unitary(theta0: float, theta1: float) -> np.ndarray:
    """Message-bit-controlled RY on the private qubit, then swap the private
    qubit into the message slot. Basis order (P, M), big-endian P."""
    c = np.zeros((4, 4), dtype=np.complex128)
    for m_bit, theta in ((0, theta0), (1, theta1)):
        r = ry(theta)
        for p_out in (0, 1):
            for p_in in (0, 1):
                c[2 * p_out + m_bit, 2 * p_in + m_bit] = r[p_out, p_in]
    return _SWAP4 @ c


def brute_force_value(verifier: VerifierSpec, grid: float = math.pi / 64,
                      max_evals: int = 200_000,
                      config: RunConfig = DEFAULT_RUN_CONFIG) -> float:
    """Exhaustive grid over a two-angle-per-turn strategy family.

    Every prover turn must act on a (1 private qubit, 1 message qubit) pair.
    Each turn's unitary is a message-controlled RY pair followed by a swap;
    the shared state is eigen-optimized exactly at every grid point, so the
    result is a guaranteed lower bound on the true optimum. If the grid would
    exceed `max_evals`, prover 1's turns are pinned to the canonical angles
    (0, pi/2), which preserves the lower-bound guarantee. A best value above
    1 + 1e-9 raises NumericalCheckError.
    """
    layout = verifier.layout
    if layout.message_qubits != 1 or any(r.qubits != 1 for r in layout.provers):
        raise PreconditionError(
            "grid search needs 1-qubit private and message registers per prover turn")
    require_budget(layout, config)
    branches = flatten(verifier=verifier, config=config)
    program = _Program(layout, branches)
    d_p = _prover_dim(layout)
    keys = sorted({op.prover_key for br in branches for op in br.ops
                   if op.kind == "prover"})
    points = max(2, int(round(2 * math.pi / grid)))
    angles = [2 * math.pi * j / points for j in range(points)]

    free = list(keys)
    pinned: dict[tuple[int, int], tuple[float, float]] = {}
    if points ** (2 * len(free)) > max_evals:
        for key in keys:
            if key[0] == 1:
                pinned[key] = (0.0, math.pi / 2)
        free = [k for k in keys if k not in pinned]
    if points ** (2 * len(free)) > max_evals:
        raise PreconditionError(
            f"grid of {points}^{2*len(free)} points exceeds the exhaustion "
            f"budget ({max_evals})")

    basis = np.eye(d_p, dtype=np.complex128)
    best = 0.0
    assignment: Assignment = {
        k: _grid_turn_unitary(*pinned[k]) for k in pinned}
    for combo in itertools.product(angles, repeat=2 * len(free)):
        for j, key in enumerate(free):
            assignment[key] = _grid_turn_unitary(combo[2 * j], combo[2 * j + 1])
        a = program.acceptance_operator(assignment, basis)
        top = float(np.linalg.eigvalsh(a)[-1])
        if top > best:
            best = top
    if best > 1.0 + 1e-9:
        raise NumericalCheckError(f"grid value {best:.12f} exceeds 1")
    return best
