"""Optimization over dishonest provers and shared states.

Two engines:

* `optimal_shared_state`: with all prover circuits fixed, acceptance is a
  quadratic form <Phi| A |Phi> on the joint prover space. A is assembled
  exactly by simulating computational basis vectors, and the best shared
  state is the top eigenvector.

* `seesaw`: alternating best-response ascent. Each prover-turn unitary is
  relaxed through the bilinear form Re<phi| (tail) (U x I) (head) |psi> whose
  exact maximizer over unitaries is the polar factor of the environment
  operator E (assembled by a forward and a backward pass through the tail of
  each coin branch, with environment operators averaged across branches).
  One sweep updates the turns in (turn, prover) order and walks each branch
  forward once: the columns reaching one slot are carried on to the next,
  and the sweep's value comes from walking on past the last slot. The shared
  state is re-optimized by the eigensolver. Both moves are exact
  maximizations of the surrogate, so the per-sweep value trace is
  non-decreasing.

Both engines, `random_search` and `brute_force_value` execute a `_Program`:
every coin branch compiled once per call into a short list of steps. A
maximal run of verifier gates between prover slots and events is one step;
while the state has at most `FUSE_MAX_DIM` amplitudes it is one dense matrix
M, built once, and above that it stays one step per gate with the gate's
matrix and axes precomputed. M spans the leading s axes, where s - 1 is the
last axis its gates touch, and acts as kron(M, I): registers are ordered
verifier, messages, provers, so a segment of verifier gates between prover
slots spans V and M only (32x32 instead of 128x128 on the 7-qubit `sound_no`
audit), while a segment that holds inlined prover gates spans the whole
state. A branch's leading segment keeps only the columns its initial vectors
|0>_(V,M) (x) prover columns occupy. A prover slot holds a row
permutation that brings its qubits to the front, so the slot's unitary is one
matmul; the same permutation gives the environment contraction. Events and
accept rules are 0/1 masks over the basis, cut by `linalg.projector_slices`
as in `model.run`. Backward passes apply adjoints as
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

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .circuits import _SWAP, Circuit, Gate, ry
from .config import (DEFAULT_RUN_CONFIG, NumericalCheckError,
                     PreconditionError, RunConfig, ValidationError)
from .linalg import (ProjectorOp, Qubit, Slices, StateVector, polar_unitary,
                     projector_slices, random_state, random_unitary)
from .model import (ProtocolInstance, ProverStrategy, Register,
                    RegisterLayout, VerifierSpec, flatten, require_budget,
                    run)

FUSE_MAX_DIM = 256
"""Largest state dimension 2^n whose verifier segments fuse into one matrix.

A fused matrix spans only the leading axes its gates touch, so it has at most
2^n rows."""

Assignment = dict[tuple[int, int], np.ndarray]
_Walk = tuple[int, np.ndarray, Sequence[np.ndarray]]
"""A branch walked forward to a step index: the columns there and the event
hits so far."""


# ---------------------------------------------------------------------------
# compiled branch programs (columns = independent initial vectors)


class _Program:
    """The coin branches of one verifier as step lists, compiled once.

    The layout's qubit budget is checked before anything is built. The
    branches are `flatten(spec, provers)`: with `provers`, their circuits
    are inlined as verifier gates; without, each prover turn is a slot on
    `layout.slot_qubits(i)`. `keys` lists the (prover, turn) slots in sorted
    order and `dims[key]` is the dimension of a slot's unitary. `d_p` is the
    dimension of the joint prover space, and qubit axes are the layout's
    `qubit_axes()`.

    Steps are ("matrix", M) for a fused segment on the leading log2(len(M))
    axes (with fewer columns on a branch's leading segment), ("gate", M,
    axes) for one gate above the fusion bound, ("prover", key, perm) for a
    prover slot and ("event", mask) for an accept event. Every evaluation
    walks steps forward with `_forward`.
    """

    def __init__(self, spec: VerifierSpec, config: RunConfig,
                 provers: Sequence[ProverStrategy] | None = None):
        layout = spec.layout
        require_budget(layout, config)
        branches = flatten(spec, provers, config=config)
        self.n = layout.total_qubits
        self.dim = 2 ** self.n
        self.pos = layout.qubit_axes()
        self.d_p = 2 ** sum(r.qubits for r in layout.provers)
        self.keys = sorted({op.prover_key for br in branches for op in br.ops
                            if op.kind == "prover"})
        self.dims = {key: 2 ** len(layout.slot_qubits(key[0]))
                     for key in self.keys}
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
        # the gates act on the leading s axes only, so the segment is
        # kron(M, I) with M of dimension 2^s; a branch starts from
        # |0>_(V,M) (x) prover columns, so its leading segment only needs the
        # rows those columns occupy, the first max(1, 2^s d_p / 2^n)
        s = 1 + max(a for _, _, axes in steps for a in axes)
        fused = np.eye(2 ** s, max(1, 2 ** s * self.d_p // self.dim) if first
                       else 2 ** s, dtype=np.complex128)
        for _, m, axes in steps:
            fused = self._gate(fused, m, axes, s)
        return [("matrix", fused)]

    def _front_perm(self, qubits: Sequence[Qubit]) -> np.ndarray:
        """Row order with `qubits` as the leading bits, the rest in place."""
        axes = [self.pos[q] for q in qubits]
        rest = [a for a in range(self.n) if a not in axes]
        index = np.arange(self.dim).reshape([2] * self.n)
        return index.transpose(axes + rest).reshape(-1)

    def _mask(self, projectors: Sequence[ProjectorOp]) -> np.ndarray:
        """The conjunction of commuting diagonal projectors, a (dim, 1) column."""
        return Slices(self.n, projector_slices(projectors, self.pos.__getitem__)
                      ).kept(np.ones((self.dim, 1)))

    # -- kernels

    @staticmethod
    def _gate(cols: np.ndarray, matrix: np.ndarray, axes: Sequence[int],
              n: int) -> np.ndarray:
        """`matrix` on `axes` of the leading n axes of each column."""
        d = len(axes)
        b = cols.shape[1]
        tensor = cols.reshape([2] * n + [b])
        m = matrix.reshape([2] * (2 * d))
        out = np.tensordot(m, tensor, axes=(list(range(d, 2 * d)), axes))
        out = np.moveaxis(out, list(range(d)), axes)
        return np.ascontiguousarray(out.reshape(cols.shape))

    @staticmethod
    def _front(cols: np.ndarray, perm: np.ndarray, d: int) -> np.ndarray:
        return cols[perm].reshape(d, -1)

    def _act(self, step: tuple, cols: np.ndarray, assignment: Assignment | None,
             transpose: bool) -> np.ndarray:
        """A gate, segment or prover step (or its transpose) on the columns."""
        kind = step[0]
        if kind == "matrix":
            m = step[1].T if transpose else step[1]
            lead = cols.reshape(step[1].shape[0], -1)
            return (m @ lead[:m.shape[1]]).reshape(cols.shape)
        if kind == "gate":
            return self._gate(cols, step[1].T if transpose else step[1],
                              step[2], self.n)
        u = assignment[step[1]]
        perm = step[2]
        out = np.empty_like(cols)
        out[perm] = ((u.T if transpose else u) @ self._front(cols, perm, u.shape[0])
                     ).reshape(cols.shape)
        return out

    def _adjoint(self, step: tuple, cols: np.ndarray,
                 assignment: Assignment) -> np.ndarray:
        return self._act(step, cols.conj(), assignment, True).conj()

    # -- evaluation

    def _initial_columns(self, prover_cols: np.ndarray) -> np.ndarray:
        """|0...0>_(V,M) (x) each column of prover_cols."""
        cols = np.zeros((self.dim, prover_cols.shape[1]), dtype=np.complex128)
        cols[:self.d_p, :] = prover_cols
        return cols

    def _forward(self, steps: Sequence[tuple], cols: np.ndarray,
                 assignment: Assignment | None,
                 hits: list[np.ndarray] | None = None) -> np.ndarray:
        """The columns carried forward through `steps`. An event removes its
        hit (the projected columns), appended to `hits` when given."""
        for step in steps:
            if step[0] == "event":
                hit = cols * step[1]
                if hits is not None:
                    hits.append(hit)
                cols = cols - hit
            else:
                cols = self._act(step, cols, assignment, False)
        return cols

    def _acceptance(self, walks: Sequence[_Walk],
                    assignment: Assignment | None) -> np.ndarray:
        """The acceptance operator over the columns of `walks`, each branch
        walked on from where its walk stopped."""
        b = walks[0][1].shape[1]
        a = np.zeros((b, b), dtype=np.complex128)
        for (w, steps, accept), (start, cols, done) in zip(self.branches, walks):
            hits = list(done)
            final = self._forward(steps[start:], cols, assignment, hits)
            for v in hits + [final * accept]:
                a += w * (v.conj().T @ v)
        return (a + a.conj().T) / 2.0

    def acceptance_operator(self, assignment: Assignment | None,
                            prover_cols: np.ndarray) -> np.ndarray:
        """A with <Phi|A|Phi> = acceptance, restricted to span(prover_cols)."""
        init = self._initial_columns(prover_cols)
        return self._acceptance([(0, init, ())] * len(self.branches), assignment)

    def _environment(self, walks: list[_Walk], assignment: Assignment,
                     key: tuple[int, int]) -> np.ndarray:
        """The environment operator of assignment[key], before the polar step.

        Per branch: carry the walk on to just before the slot (it must not
        have passed it), forward through the tail collecting the event hits,
        then backward to just after the slot, adding each event's hit back
        in."""
        d = assignment[key].shape[0]
        env = np.zeros((d, d), dtype=np.complex128)
        for j, (w, steps, accept) in enumerate(self.branches):
            start, chi, done = walks[j]
            idx = next(i for i in range(start, len(steps))
                       if steps[i][0] == "prover" and steps[i][1] == key)
            chi = self._forward(steps[start:idx], chi, assignment, done)
            walks[j] = (idx, chi, done)
            hits: list[np.ndarray] = []
            mu = self._forward(steps[idx:], chi, assignment, hits) * accept
            for step in reversed(steps[idx + 1:]):
                if step[0] == "event":
                    mu = mu - mu * step[1] + hits.pop()
                else:
                    mu = self._adjoint(step, mu, assignment)
            perm = steps[idx][2]
            env += w * (self._front(mu, perm, d)
                        @ self._front(chi, perm, d).conj().T)
        return env

    def environment(self, prover_col: np.ndarray, assignment: Assignment,
                    key: tuple[int, int]) -> np.ndarray:
        """The environment operator of assignment[key] at the shared state in
        prover_col, before the polar step."""
        init = self._initial_columns(prover_col)
        return self._environment([(0, init, []) for _ in self.branches],
                                 assignment, key)

    def sweep(self, prover_col: np.ndarray, assignment: Assignment,
              keys: Sequence[tuple[int, int]]) -> float:
        """One see-saw sweep over `keys` at the shared state in prover_col.

        Each key in turn is set to the polar factor of its `environment`;
        then the acceptance of the updated assignment is returned, as
        `acceptance_operator` computes it. The keys must be in the order in
        which the branches reach their slots, (turn, prover). Each branch is
        walked forward once: its columns and event hits are carried from one
        slot to the next, and the rest of it is walked after the last key.
        """
        init = self._initial_columns(prover_col)
        walks: list[_Walk] = [(0, init, []) for _ in self.branches]
        for key in keys:
            assignment[key] = polar_unitary(
                self._environment(walks, assignment, key))
        return float(self._acceptance(walks, assignment)[0, 0].real)


# ---------------------------------------------------------------------------
# optimal shared state


def optimal_shared_state(verifier: VerifierSpec,
                         provers: Sequence[ProverStrategy],
                         config: RunConfig = DEFAULT_RUN_CONFIG,
                         check: bool = True) -> tuple[float, StateVector]:
    """Best a-priori shared state for fixed prover circuits, by eigensolver.

    Returns (p_max, state). With check=True the state is re-simulated and
    must reproduce p_max within `config.probability_tol`.
    """
    program = _Program(verifier, config, provers)
    d_p = program.d_p
    if d_p > 2 ** 12:
        raise PreconditionError(
            f"joint prover space 2^{int(math.log2(d_p))} exceeds the eigensolver budget")
    a = program.acceptance_operator(None, np.eye(d_p, dtype=np.complex128))
    vals, vecs = np.linalg.eigh(a)
    p_max = float(vals[-1])
    vec = vecs[:, -1]
    state = StateVector(vec / np.linalg.norm(vec), verifier.layout.shared_layout)
    if check:
        resim = run(ProtocolInstance(verifier, tuple(provers), state),
                    config=config).acceptance
        if abs(resim - p_max) > config.probability_tol:
            raise NumericalCheckError(
                f"eigenvalue {p_max:.12f} vs re-simulated {resim:.12f}")
    return p_max, state


# ---------------------------------------------------------------------------
# see-saw


@dataclass(frozen=True)
class SeesawConfig:
    """See-saw settings.

    `product_groups` splits the provers into groups that may not share
    entanglement across group boundaries (see parallel repetition audits):
    the shared state is a product of one state per group. The groups must
    be non-empty and, read in order, list the provers 1..k in order, so
    each group is a run of consecutive prover registers.
    """

    prover_dims: tuple[int, ...]          # qubits of each P_i
    restarts: int = 20
    max_sweeps: int = 60
    convergence_tol: float = 1e-9
    seed: int = 0
    product_groups: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.restarts < 1 or self.max_sweeps < 1:
            raise ValidationError("restarts and max_sweeps must be >= 1")
        if self.convergence_tol <= 0:
            raise ValidationError("convergence_tol must be > 0")
        groups = self.product_groups
        if groups is not None and (
                not all(groups) or [i for g in groups for i in g]
                != list(range(1, len(self.prover_dims) + 1))):
            raise ValidationError(
                "product groups must be non-empty and list the provers "
                "1..k in order")


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
        qs = layout.slot_qubits(i)
        circuits = tuple(
            Circuit((Gate("U", assignment[(i, t)], qs),), label=f"P{i} turn {t}")
            for t in range(1, n_turns + 1))
        out.append(ProverStrategy(i, circuits))
    return tuple(out)


def _product_state_update(program: _Program, assignment: Assignment,
                          group_states: list[np.ndarray]) -> np.ndarray:
    """One round of per-group eigen-updates under a product constraint; one
    group of all provers is the unconstrained update.

    The groups are runs of consecutive prover registers, in register order,
    so their Kronecker product is in the order of the prover space. Returns
    the full product state.
    """
    for gi in range(len(group_states)):
        cols = functools.reduce(np.kron, [
            np.eye(len(st), dtype=np.complex128) if gj == gi else st[:, None]
            for gj, st in enumerate(group_states)])
        a = program.acceptance_operator(assignment, cols)
        _, vecs = np.linalg.eigh(a)
        group_states[gi] = vecs[:, -1] / np.linalg.norm(vecs[:, -1])
    return functools.reduce(np.kron, group_states)


def seesaw(verifier: VerifierSpec, cfg: SeesawConfig,
           config: RunConfig = DEFAULT_RUN_CONFIG) -> AdversaryResult:
    """Alternating maximization over prover unitaries and the shared state.

    Returns the best restart. The trace holds one value per sweep and is
    non-decreasing; the final value is re-simulated through the plain
    executor and must agree within `config.probability_tol`.
    """
    spec = resize_prover_registers(verifier, cfg.prover_dims)
    layout = spec.layout
    groups = cfg.product_groups or (tuple(range(1, layout.k + 1)),)
    program = _Program(spec, config)
    keys = sorted(program.keys, key=lambda k: (k[1], k[0]))

    best: tuple[float, int, Assignment, np.ndarray, list[float], bool] | None = None
    restart_values = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        assignment: Assignment = {k: random_unitary(program.dims[k], rng)
                                  for k in keys}
        group_states = [random_state(2 ** sum(cfg.prover_dims[i - 1] for i in g),
                                     rng) for g in groups]
        shared = None
        trace: list[float] = []
        converged = False
        prev = -1.0
        for _ in range(cfg.max_sweeps):
            shared = _product_state_update(program, assignment, group_states)
            value = program.sweep(shared[:, None], assignment, keys)
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
    shared_state = StateVector(shared, layout.shared_layout)
    inst = ProtocolInstance(spec, strategies, shared_state)
    resim = run(inst, config=config).acceptance
    if abs(resim - value) > config.probability_tol:
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
    program = _Program(resize_prover_registers(verifier, prover_dims), config)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        assignment = {k: random_unitary(program.dims[k], rng)
                      for k in program.keys}
        v = random_state(program.d_p, rng)
        best = max(best, float(
            program.acceptance_operator(assignment, v[:, None])[0, 0].real))
    return best


# ---------------------------------------------------------------------------
# exhaustive grid oracle

GRID_MAX_EVALS = 200_000   # grid points `brute_force_value` may evaluate
GRID_STEP = math.pi / 64   # `brute_force_value`'s default angle step


def _grid_turn_unitary(theta0: float, theta1: float) -> np.ndarray:
    """Message-bit-controlled RY on the private qubit, then swap the private
    qubit into the message slot. Basis order (P, M), big-endian P."""
    c = np.zeros((4, 4), dtype=np.complex128)
    for m_bit, theta in ((0, theta0), (1, theta1)):
        r = ry(theta)
        for p_out in (0, 1):
            for p_in in (0, 1):
                c[2 * p_out + m_bit, 2 * p_in + m_bit] = r[p_out, p_in]
    return _SWAP @ c


def brute_force_value(verifier: VerifierSpec, grid: float = GRID_STEP,
                      config: RunConfig = DEFAULT_RUN_CONFIG) -> float:
    """Exhaustive grid over a two-angle-per-turn strategy family.

    Every prover turn must act on a (1 private qubit, 1 message qubit) pair.
    Each turn's unitary is a message-controlled RY pair followed by a swap;
    the shared state is eigen-optimized exactly at every grid point, so the
    result is a guaranteed lower bound on the true optimum. If the grid would
    exceed `GRID_MAX_EVALS` points, prover 1's turns are pinned to the
    canonical angles (0, pi/2), which preserves the lower-bound guarantee. A
    best value above 1 + `config.probability_tol` raises NumericalCheckError;
    a `grid` that is not finite and > 0, or that rounds to fewer than 2
    points per angle (a step above 4*pi/3), raises ValidationError.
    """
    if not (math.isfinite(grid) and grid > 0):
        raise ValidationError(f"grid must be finite and > 0, got {grid!r}")
    points = int(round(2 * math.pi / grid))
    if points < 2:
        raise ValidationError(
            f"grid {grid!r} gives {points} point(s) per angle; it must give "
            f"at least 2 (grid <= 4*pi/3)")
    layout = verifier.layout
    if layout.message_qubits != 1 or any(r.qubits != 1 for r in layout.provers):
        raise PreconditionError(
            "grid search needs 1-qubit private and message registers per prover turn")
    program = _Program(verifier, config)
    keys = program.keys
    angles = [2 * math.pi * j / points for j in range(points)]

    free = list(keys)
    pinned: dict[tuple[int, int], tuple[float, float]] = {}
    if points ** (2 * len(free)) > GRID_MAX_EVALS:
        for key in keys:
            if key[0] == 1:
                pinned[key] = (0.0, math.pi / 2)
        free = [k for k in keys if k not in pinned]
    if points ** (2 * len(free)) > GRID_MAX_EVALS:
        raise PreconditionError(
            f"grid of {points}^{2*len(free)} points exceeds the exhaustion "
            f"budget ({GRID_MAX_EVALS})")

    basis = np.eye(program.d_p, dtype=np.complex128)
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
    if best > 1.0 + config.probability_tol:
        raise NumericalCheckError(f"grid value {best:.12f} exceeds 1")
    return best
