"""Optimization over dishonest provers and shared states.

Two engines:

* `optimal_shared_state`: with all prover circuits fixed, acceptance is a
  quadratic form <Phi| A |Phi> on the joint prover space. A is assembled
  exactly by simulating computational basis vectors, and the best shared
  state is the top eigenvector.

* `seesaw`: alternating best-response ascent (Werner & Wolf, QIC 2001).
  Each prover-turn unitary is relaxed through the bilinear form
  Re<phi| (tail) (U x I) (head) |psi> whose exact maximizer over unitaries
  is the polar factor of the environment operator E (assembled by a forward
  and a backward pass through the tail of each coin branch, with
  environment operators averaged across branches). One sweep updates the
  shared state, then the turns in (turn, prover) order, and walks each
  branch forward once. It carries the first product group's eigen-update
  columns (the d_p basis without product groups): at each slot it takes the
  shared state's column from them, and past the last slot they give the
  acceptance operator A over those columns, hence the sweep's value and the
  next sweep's first eigen-update. The shared state is re-optimized by the
  eigensolver. Both moves are exact maximizations of the surrogate, so a
  sweep never lowers the value.

  Every restart, with or without product groups, is one loop
  (`_restart`): a sweep starts from the top eigenvector of the last A. With
  one group (no product groups) the shared state is always A's top
  eigenvector, so the restart ascends f(U) = lambda_max(A(U)) over all
  prover unitaries at once: after `WARMUP_SWEEPS` sweeps it takes
  Riemannian L-BFGS steps (Abrudan, Eriksson & Koivunen, IEEE TSP 56(3),
  2008) with a Cayley retraction and an Armijo line search, and goes back
  to a sweep whenever a step fails or stalls. Under product groups every
  iteration is a sweep. A point's A is one forward walk of the prover
  columns, or the A its sweep returned. One walk (`_Program._costates`)
  carries a column forward from a given step and its costate back, giving
  each slot's input and costate (adjoint differentiation, Jones & Gacon,
  arXiv:2009.02823): from step 0 it gives every key's environment at once
  (`_Program.environments`), from a slot that slot's environment in a
  sweep. The gradient of f along U_k exp(t Omega) is Re tr(Omega^dag G_k)
  with G_k = U_k^dag E_k - E_k^dag U_k. Every step raises f, so the
  per-iteration trace is non-decreasing too.

Both engines, `random_search` and `brute_force_value` execute a `_Program`:
every coin branch compiled once per call into a short list of steps. At or
below `FUSE_MAX_DIM` amplitudes a branch is dense stretches alternating with
prover slots. A stretch is every verifier gate and accept event between two
slots (and the accept rule in the last one) as one stacked matrix F = [G; H]
on the leading axes they touch, acting as kron(F, I): G carries the state on
with the events' rows zeroed and H holds the rows the events and the accept
rule bank. Forward is one product F x, the acceptance operator is the gram
of the banked rows, and backward is F^dag [mu; h]. Registers are ordered
verifier, messages, provers, so a stretch between prover slots spans V and
M only (at most 32 columns on the 7-qubit rewound `sound_no` audit); a
branch's first stretch keeps only the columns its initial vectors
|0>_(V,M) (x) prover columns occupy. A slot is one matmul on the contiguous
run of axes from its first to its last qubit, with the slot-order unitary
permuted into axis order once per key update.

Above the bound a branch is the step list `model._compile_branch` compiles
for `run`, walked on (2^live, b) column blocks: the verifier and message
qubits start as known bits and join the columns when a gate or a prover slot
first needs them, SWAPs are relabelled at compile time, and a gate or slot
is a `linalg.MatrixKernel` on its control-satisfied slice, a slot's matrix
read from the assignment at call time. Going back, a kernel applies U^dag, a
grow takes the rows at its known bit, and an event puts back the
`linalg.Slices` rows it banked and cleared. In both regimes a branch ends at
its last step that banks anything, so no step that cannot change its
acceptance is walked or back-propagated.

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
                     PreconditionError, RunConfig, ValidationError, is_integer,
                     is_real)
from .linalg import (MatrixKernel, Slices, StateVector,
                     polar_unitary, projector_slices, random_state,
                     random_unitary, require_unitary)
from .model import (FlatBranch, ProtocolInstance, ProverStrategy, Register,
                    RegisterLayout, VerifierSpec, _compile_branch, flatten,
                    require_budget, run)

FUSE_MAX_DIM = 256
"""Largest state dimension 2^n whose branches compile into dense stretches
and span slots, whose matrices have at most 2^n columns. Above it a branch
is `model._compile_branch`'s steps on the live qubits only."""

Assignment = dict[tuple[int, int], np.ndarray]
_Operators = dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]
"""Each slot's matrix in the form its step applies, and that matrix's
adjoint."""
_Walk = tuple[int, np.ndarray, list[np.ndarray]]
"""A branch walked forward to a step index: the columns there and the rows
banked so far."""


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


# ---------------------------------------------------------------------------
# compiled steps. `forward(cols, ops)` returns the columns carried on (which
# nothing reads after a branch's last step) and the rows the step banks
# (None if it banks nothing). `backward(mu, banked, ops)` takes the adjoint
# columns after the step and the rows it banked going forward, and returns
# the adjoint columns before it. A branch's last step banks and carries
# nothing on, so going back through it is its `gram`, F^dag F on the
# columns reaching it. Above the bound, steps work in place on their input
# columns.


class _Kernel:
    """A matrix on a `MatrixKernel`'s slice of the live axes, and going back
    its adjoint: a verifier gate's own, or a prover slot's (`key`) from the
    assignment at call time. A slot's forward leaves its input as it was:
    the environment reads it again."""

    banks = False

    def __init__(self, kernel: MatrixKernel,
                 key: tuple[int, int] | None = None):
        self.kernel = kernel
        self.key = key
        self.pair = kernel.matrix, np.ascontiguousarray(kernel.matrix.conj().T)

    def _apply(self, m: np.ndarray, cols: np.ndarray) -> np.ndarray:
        view = self.kernel.front(cols)
        view[...] = (m @ view.reshape(len(m), -1)).reshape(view.shape)
        return cols

    def forward(self, cols, ops):
        if self.key is not None:
            cols = cols.copy()
        return self._apply(ops.get(self.key, self.pair)[0], cols), None

    def backward(self, mu, banked, ops):
        return self._apply(ops.get(self.key, self.pair)[1], mu)

    @staticmethod
    def operator(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return u, u.conj().T

    def _front(self, cols: np.ndarray) -> np.ndarray:
        return self.kernel.front(cols).reshape(self.kernel.dim, -1)

    def outer(self, mu: np.ndarray, chi: np.ndarray) -> np.ndarray:
        """mu chi^dag summed over the qubits outside the slot."""
        return self._front(mu) @ self._front(chi).conj().T

    @staticmethod
    def environment(e: np.ndarray) -> np.ndarray:
        """A sum of `outer` products in slot order."""
        return e


class _Grow:
    """A known bit joining the live axes: the rows double, the old ones at
    the bit. Going back takes the rows at the bit."""

    banks = False

    def __init__(self, lead: int, bit: int):
        self.lead = lead
        self.bit = bit

    def forward(self, cols, ops):
        grown = np.zeros((2 * len(cols), cols.shape[1]), dtype=cols.dtype)
        grown.reshape(self.lead, 2, -1)[:, self.bit] = cols.reshape(self.lead, -1)
        return grown, None

    def backward(self, mu, banked, ops):
        return np.ascontiguousarray(
            mu.reshape(self.lead, 2, -1)[:, self.bit]).reshape(-1, mu.shape[1])


class _Bank:
    """An accept event or rule: its slices' rows are banked (the rest of the
    banked block is zero) and cleared. Going back puts them in their place."""

    banks = True

    def __init__(self, slices: Slices):
        self.slices = slices

    def final(self) -> "_Bank":
        return self

    def forward(self, cols, ops):
        rows = self.slices.kept(cols)
        self.slices.clear(cols)
        return cols, rows

    def backward(self, mu, banked, ops):
        self.slices.clear(mu)
        mu += banked
        return mu

    def gram(self, cols):
        return self.slices.kept(cols)


class _Stretch:
    """The verifier gates, events and (last stretch only) accept rule
    between two slots as one matrix F = [G; H] on the leading log2(lead)
    axes, acting as kron(F, I). G, the first `keep` rows, carries the state
    on with each event's rows zeroed; H holds the nonzero rows that the
    events and the accept rule bank. A branch's last stretch is H alone, and
    its first has only the columns its initial vectors |0>_(V,M) (x) prover
    columns occupy."""

    def __init__(self, f: np.ndarray, keep: int, lead: int):
        self.f = f
        self.fh = np.ascontiguousarray(f.conj().T)
        self.keep = keep
        self.lead = lead
        self.banks = len(f) > keep
        self.fhf = None if keep else self.fh @ f

    def final(self) -> "_Stretch":
        return _Stretch(self.f[self.keep:], 0, self.lead)

    def forward(self, cols, ops):
        y = self.f @ cols.reshape(self.lead, -1)[:self.f.shape[1]]
        return (y[:self.keep].reshape(cols.shape) if self.keep else None,
                y[self.keep:] if self.banks else None)

    def backward(self, mu, banked, ops):
        z = mu.reshape(self.lead, -1)
        if banked is not None:
            z = np.concatenate((z, banked))
        return (self.fh @ z).reshape(mu.shape)

    def gram(self, cols):
        return (self.fhf @ cols.reshape(self.lead, -1)).reshape(cols.shape)


_ZERO = np.zeros(1, dtype=np.complex128)


class _SpanSlot:
    """A prover slot as one matmul on the contiguous run of axes from its
    first to its last qubit. Its operator is the slot-order unitary permuted
    into axis order, with identity on the registers in between. Every
    branch shares the slot's one `_SpanSlot`."""

    banks = False

    def __init__(self, axes: Sequence[int], n: int, key: tuple[int, int]):
        self.key = key
        lo, hi = min(axes), max(axes)
        self.outer_dim = 2 ** lo
        self.span = 2 ** (hi + 1 - lo)
        d = 2 ** len(axes)
        between = [a for a in range(lo, hi + 1) if a not in axes]
        # index[i, k]: the span basis index of slot basis i, between basis k
        index = np.arange(self.span).reshape([2] * (hi + 1 - lo)).transpose(
            [a - lo for a in list(axes) + between]).reshape(d, -1)
        # the flat span-operator index of slot entry (i, j) for each k
        self.flat = index[:, None, :] * self.span + index[None, :, :]
        # where each span-operator entry comes from in u.ravel(), d*d
        # (an appended 0) where the between bases differ
        self.source = np.full(self.span ** 2, d * d)
        self.source[self.flat] = np.arange(d * d).reshape(d, d, 1)
        self.source = self.source.reshape(self.span, self.span)

    def operator(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = np.concatenate((u.reshape(-1), _ZERO)).take(self.source)
        return m, m.conj().T

    def _front(self, cols: np.ndarray) -> np.ndarray:
        return cols.reshape(self.outer_dim, self.span, -1).transpose(
            1, 0, 2).reshape(self.span, -1)

    def forward(self, cols, ops):
        return np.matmul(ops[self.key][0], cols.reshape(
            self.outer_dim, self.span, -1)).reshape(cols.shape), None

    def backward(self, mu, banked, ops):
        return np.matmul(ops[self.key][1], mu.reshape(
            self.outer_dim, self.span, -1)).reshape(mu.shape)

    def outer(self, mu: np.ndarray, chi: np.ndarray) -> np.ndarray:
        """mu chi^dag summed over the axes outside the span."""
        return self._front(mu) @ self._front(chi).conj().T

    def environment(self, e: np.ndarray) -> np.ndarray:
        """A sum of `outer` products in slot order: traced over the
        registers in between."""
        return e.take(self.flat).sum(axis=2)


# ---------------------------------------------------------------------------
# compiled branch programs (columns = independent initial vectors)


class _Program:
    """The coin branches of one verifier as step lists, compiled once.

    The layout's qubit budget is checked before anything is built. The
    branches are `flatten(spec, provers)`: with `provers`, their circuits
    are inlined as verifier gates; without, each prover turn is a slot on
    `layout.slot_qubits(i)`. `keys` lists the (prover, turn) slots in sorted
    order, `slots[key]` gives a slot's `operator` and `environment`,
    `dims[key]` is the dimension of its unitary and `slot_at[j][key]` its
    step's index in branch j. `d_p` is the dimension of the joint prover
    space, and qubit axes are the layout's `qubit_axes()`. Every branch has
    the weight `weight`, 2^-(coin flips); a power of two, so the sums over
    branches are scaled once, exactly.

    While 2^n <= `FUSE_MAX_DIM` a branch is stretches (`_Stretch`)
    alternating with the span slots (`_SpanSlot`) every branch shares;
    above it, `_compile_branch`'s kernels (`_Kernel`, gates and slots),
    grows (`_Grow`) and events (`_Bank`), from the prover columns alone.
    Each branch ends at its last step that banks anything: later steps
    cannot change its acceptance, and a branch that banks nothing is
    dropped. Every evaluation walks steps forward with `_forward`.
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
        self.fused = self.dim <= FUSE_MAX_DIM
        self.weight = branches[0].weight
        self.keys = sorted({op.prover_key for br in branches for op in br.ops
                            if op.kind == "prover"})
        self.dims = {key: 2 ** len(layout.slot_qubits(key[0]))
                     for key in self.keys}
        # a live slot takes the assignment's matrix as it is (`_Kernel`)
        self.slots = {key: _SpanSlot([self.pos[q] for q in layout.slot_qubits(key[0])],
                                     self.n, key) if self.fused else _Kernel
                      for key in self.keys}
        self.branches: list[tuple] = []
        self.slot_at: list[dict[tuple[int, int], int]] = []
        for br in branches:
            steps = self._fused_steps(br) if self.fused else self._live_steps(br)
            last = max((j for j, step in enumerate(steps) if step.banks),
                       default=None)
            if last is not None:
                steps[last:] = [steps[last].final()]
                self.branches.append(tuple(steps))
                self.slot_at.append({step.key: j for j, step in enumerate(steps)
                                     if getattr(step, "key", None)})

    # -- compilation

    def _live_steps(self, br: FlatBranch) -> list:
        """The steps `model._compile_branch` gives the branch, from the
        prover columns with every verifier and message qubit known at 0.
        An event whose slices are empty banks nothing and is left out."""
        # the verifier and message axes lead
        known = dict.fromkeys(range(self.n + 1 - self.d_p.bit_length()), 0)
        compiled, accept = _compile_branch(br, self.pos, self.n, known, ())
        steps: list = []
        for kind, *args in compiled + [("event", accept)]:
            if kind in ("gate", "slot"):
                steps.append(_Kernel(*args))
            elif kind == "grow":
                steps.append(_Grow(*args))
            elif args[0].views:
                steps.append(_Bank(args[0]))
        return steps

    def _fused_steps(self, br: FlatBranch) -> list:
        """Stretches of the verifier gates and banked projectors, split at
        the span slots."""
        parts: list = [[]]
        for op in br.ops:
            if op.kind == "prover":
                parts += [self.slots[op.prover_key], []]
            elif op.kind == "gate":
                parts[-1].append(op.gate)
            elif op.kind == "event":
                parts[-1].append(op.projectors)
        parts[-1].append(br.accept)
        steps: list = []
        for j, part in enumerate(parts):
            steps += [part] if j % 2 else self._verifier_steps(part, j == 0)
        return steps

    def _verifier_steps(self, items: Sequence, first: bool) -> list:
        """The stretch of the gates and banked projector conjunctions
        between two slots, if any; `first` when no slot precedes them."""
        if not items:
            return []
        s = 1 + max((self.pos[q] for item in items for q in (
            item.qubits() if isinstance(item, Gate)
            else [q for p in item for q in p.target_qubits()])), default=-1)
        lead = 2 ** s
        # a branch starts from |0>_(V,M) (x) prover columns, which occupy
        # the first max(1, 2^s d_p / 2^n) rows of the leading s axes
        t = np.eye(lead, max(1, lead * self.d_p // self.dim) if first
                   else lead, dtype=np.complex128)
        banked = []
        for item in items:
            if isinstance(item, Gate):
                t = _gate(t, item.full_matrix(),
                          [self.pos[q] for q in item.qubits()], s)
            else:
                slices = Slices(projector_slices(item, self.pos.__getitem__))
                hit = slices.kept(t)
                banked.append(hit[(hit != 0).any(axis=1)])
                slices.clear(t)
        return [_Stretch(np.concatenate([t] + banked), lead, lead)]

    # -- evaluation

    def _walks(self, prover_cols: np.ndarray) -> list[_Walk]:
        """Every branch at its start: |0...0>_(V,M) (x) each column of
        prover_cols, nothing banked. Above the bound the known bits are not
        stored, and each branch gets its own copy to work on in place."""
        if not self.fused:
            return [(0, np.array(prover_cols, dtype=np.complex128, order="C"),
                     []) for _ in self.branches]
        init = np.zeros((self.dim, prover_cols.shape[1]), dtype=np.complex128)
        init[:self.d_p, :] = prover_cols
        return [(0, init, []) for _ in self.branches]

    def _operators(self, assignment: Assignment | None) -> _Operators:
        return {key: self.slots[key].operator(u)
                for key, u in (assignment or {}).items()}

    @staticmethod
    def _forward(steps: Sequence, cols: np.ndarray, ops: _Operators,
                 banked: list[np.ndarray]) -> np.ndarray:
        """The columns carried forward through `steps`; the rows each step
        banks are appended to `banked`."""
        for step in steps:
            cols, rows = step.forward(cols, ops)
            if rows is not None:
                banked.append(rows)
        return cols

    def _acceptance(self, walks: Sequence[_Walk], ops: _Operators,
                    b: int) -> np.ndarray:
        """The acceptance operator over the b columns of `walks`, each
        branch walked on from where its walk stopped: the gram of the rows
        every step banks."""
        a = np.zeros((b, b), dtype=np.complex128)
        for steps, (start, cols, done) in zip(self.branches, walks):
            banked = list(done)
            self._forward(steps[start:], cols, ops, banked)
            for v in banked:
                v = v.reshape(-1, b)
                a += v.conj().T @ v
        return self.weight * (a + a.conj().T) / 2.0

    def acceptance_operator(self, assignment: Assignment | None,
                            prover_cols: np.ndarray) -> np.ndarray:
        """A with <Phi|A|Phi> = acceptance, restricted to span(prover_cols)."""
        return self._acceptance(self._walks(prover_cols),
                                self._operators(assignment),
                                prover_cols.shape[1])

    @staticmethod
    def _costates(steps: Sequence, start: int, x: np.ndarray, ops: _Operators):
        """The columns x walked forward from steps[start], keeping each
        slot's input and the rows each step banks; then the costate mu = the
        last step's `gram` walked back to the first slot at or after start.
        Yields (slot step, mu just after it, its input) at each slot on the
        way back, the last slot first (adjoint differentiation, Jones &
        Gacon, arXiv:2009.02823). A slot's forward leaves its input as it
        was."""
        inputs, banked = {}, []
        for idx in range(start, len(steps) - 1):
            if getattr(steps[idx], "key", None):
                inputs[idx] = x
            x, rows = steps[idx].forward(x, ops)
            banked.append(rows)
        mu = steps[-1].gram(x)
        first = min(inputs)
        for idx in range(len(steps) - 2, first - 1, -1):
            if idx in inputs:
                yield steps[idx], mu, inputs[idx]
            if idx > first:
                mu = steps[idx].backward(mu, banked[idx - start], ops)

    def _scaled(self, key: tuple[int, int], e: np.ndarray | None) -> np.ndarray:
        """The environment operator of `key` from its summed branch terms."""
        if e is None:
            return np.zeros((self.dims[key],) * 2, dtype=np.complex128)
        return self.weight * self.slots[key].environment(e)

    def _environment(self, walks: list[_Walk], ops: _Operators,
                     key: tuple[int, int],
                     coeffs: np.ndarray | None) -> np.ndarray:
        """The environment operator of slot `key`, before the polar step.

        Per branch: carry the walk, on all its columns, on to just before
        the slot (it must not have passed it), and add the slot's `outer`
        of the costate and the shared state's column x = chi @ coeffs (chi
        itself when coeffs is None), from `_costates` starting at the slot.
        A branch whose slot lies past its last banking step adds nothing."""
        e = None
        for j, steps in enumerate(self.branches):
            idx = self.slot_at[j].get(key)
            if idx is None:
                continue
            start, chi, done = walks[j]
            chi = self._forward(steps[start:idx], chi, ops, done)
            walks[j] = (idx, chi, done)
            *_, (slot, mu, x) = self._costates(
                steps, idx, chi if coeffs is None else chi @ coeffs, ops)
            outer = slot.outer(mu, x)
            e = outer if e is None else e + outer
        return self._scaled(key, e)

    def environment(self, prover_col: np.ndarray, assignment: Assignment,
                    key: tuple[int, int]) -> np.ndarray:
        """The environment operator of assignment[key] at the shared state in
        prover_col, before the polar step."""
        return self._environment(self._walks(prover_col),
                                 self._operators(assignment), key, None)

    def environments(self, prover_col: np.ndarray, assignment: Assignment
                     ) -> dict[tuple[int, int], np.ndarray]:
        """Every key's `environment` at the shared state in prover_col, from
        one forward and one backward walk per branch: each slot's term from
        `_costates` starting at step 0."""
        ops = self._operators(assignment)
        e: dict[tuple[int, int], np.ndarray] = {}
        for steps, at, (_, x, _) in zip(self.branches, self.slot_at,
                                        self._walks(prover_col)):
            if not at:
                continue
            for slot, mu, x_in in self._costates(steps, 0, x, ops):
                outer = slot.outer(mu, x_in)
                e[slot.key] = e[slot.key] + outer if slot.key in e else outer
        return {key: self._scaled(key, e.get(key)) for key in self.keys}

    def sweep(self, cols: np.ndarray, coeffs: np.ndarray,
              assignment: Assignment, keys: Sequence[tuple[int, int]]
              ) -> tuple[float, np.ndarray]:
        """One see-saw sweep over `keys` at the shared state cols @ coeffs.

        Each key in turn is set to the polar factor of its `environment`.
        Returns the acceptance of the updated assignment and A =
        `acceptance_operator(assignment, cols)`, so value = coeffs^dag A
        coeffs; with the first product group's update columns as `cols`, A
        is that group's next eigen-update operator. The keys must be in the
        order in which the branches reach their slots, (turn, prover). Each
        branch is walked forward once on all the columns: they are carried
        from one slot to the next, with the rows banked so far, and the rest
        of it is walked after the last key.
        """
        ops = self._operators(assignment)
        walks = self._walks(cols)
        c = coeffs[:, None]
        for key in keys:
            assignment[key] = polar_unitary(
                self._environment(walks, ops, key, c))
            ops[key] = self.slots[key].operator(assignment[key])
        a = self._acceptance(walks, ops, cols.shape[1])
        return float((c.conj().T @ a @ c)[0, 0].real), a


# ---------------------------------------------------------------------------
# optimal shared state


def _top_eigenpair(a: np.ndarray) -> tuple[float, np.ndarray]:
    """The largest eigenvalue of the Hermitian a and its unit eigenvector."""
    vals, vecs = np.linalg.eigh(a)
    return float(vals[-1]), vecs[:, -1] / np.linalg.norm(vecs[:, -1])


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
    p_max, vec = _top_eigenpair(
        program.acceptance_operator(None, np.eye(d_p, dtype=np.complex128)))
    state = StateVector(vec, verifier.layout.shared_layout)
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

    `max_sweeps` caps a restart's iterations, each a sweep or an L-BFGS
    step. A restart has converged when a plain sweep gains less than
    `convergence_tol`.

    `product_groups` splits the provers into groups that may not share
    entanglement across group boundaries (see parallel repetition audits):
    the shared state is a product of one state per group. The groups must
    be non-empty and, read in order, list the provers 1..k in order, so
    each group is a run of consecutive prover registers. Both modes run
    one restart loop, but under two or more groups every iteration is a
    sweep: the state is then not the top eigenvector of A(U), so f(U) =
    lambda_max(A(U)), which the L-BFGS steps ascend, is not the value. One
    group of all provers is no groups: the same draws and the same
    iterations, bit for bit.
    """

    prover_dims: tuple[int, ...]          # qubits of each P_i
    restarts: int = 20
    max_sweeps: int = 60
    convergence_tol: float = 1e-9
    seed: int = 0
    product_groups: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        try:
            dims = tuple(self.prover_dims)
        except TypeError:
            raise ValidationError(
                f"prover_dims must be a sequence of integers, got "
                f"{self.prover_dims!r}") from None
        for name, values in (("prover_dims", dims),
                             ("restarts", (self.restarts,)),
                             ("max_sweeps", (self.max_sweeps,)),
                             ("seed", (self.seed,))):
            if not all(map(is_integer, values)):
                raise ValidationError(
                    f"{name} must be integral, got {getattr(self, name)!r}")
        object.__setattr__(self, "prover_dims", dims)
        if self.restarts < 1 or self.max_sweeps < 1:
            raise ValidationError("restarts and max_sweeps must be >= 1")
        tol = self.convergence_tol
        if not (is_real(tol) and math.isfinite(tol) and tol > 0):
            raise ValidationError(
                f"convergence_tol must be finite and > 0, got {tol!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
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
    trace: tuple[float, ...]              # per-iteration values of the best restart
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


def _group_columns(group_states: Sequence[np.ndarray], gi: int) -> np.ndarray:
    """The Kronecker product of the group states with the identity in place
    of group gi: the columns of group gi's eigen-update."""
    return functools.reduce(np.kron, [
        np.eye(len(st), dtype=np.complex128) if gj == gi else st[:, None]
        for gj, st in enumerate(group_states)])


def _product_state_update(program: _Program, assignment: Assignment,
                          group_states: list[np.ndarray]) -> None:
    """The eigen-updates of groups 2..G under a product constraint, in
    order. The groups are runs of consecutive prover registers, in register
    order, so their Kronecker product is in the order of the prover space.
    The first group's operator comes from the previous sweep."""
    for gi in range(1, len(group_states)):
        group_states[gi] = _top_eigenpair(program.acceptance_operator(
            assignment, _group_columns(group_states, gi)))[1]


WARMUP_SWEEPS = 2
"""Plain sweeps that start each restart without product groups, before its
first L-BFGS step."""
LBFGS_MEMORY = 8
"""(step, gradient change) pairs the L-BFGS two-loop keeps."""
ARMIJO = 1e-4
"""A step of length t along d is taken once it gains ARMIJO * t * <d, G>."""
FIRST_STEP = 0.01
"""The Frobenius norm of a step at t = 1 when the L-BFGS memory is empty."""
BACKTRACKS = 12
"""Halvings of t after which a line search fails."""


class _Point:
    """An assignment with A, its acceptance operator over the prover columns
    `cols`, f = lambda_max(A), A's top eigenvector psi and, on demand, the
    Riemannian gradient of f in the Lie algebra, G_k = U_k^dag E_k - E_k^dag
    U_k, packed into one flat vector. `blocks` (`_blocks`) orders the
    packing; a block's unitaries are stacked and moved together. `a` is A,
    if at hand."""

    def __init__(self, program: _Program, assignment: Assignment,
                 blocks: Sequence[Sequence[tuple[int, int]]], cols: np.ndarray,
                 a: np.ndarray | None = None):
        self.program = program
        self.assignment = assignment
        self.blocks = blocks
        self.cols = cols
        if a is None:
            a = program.acceptance_operator(assignment, cols)
        self.f, self.psi = _top_eigenpair(a)

    def _stack(self, keys: Sequence[tuple[int, int]]) -> np.ndarray:
        return np.stack([self.assignment[key] for key in keys])

    def gradient(self) -> np.ndarray:
        envs = self.program.environments(self.psi[:, None], self.assignment)
        parts = []
        for keys in self.blocks:
            ue = self._stack(keys).conj().transpose(0, 2, 1) @ np.stack(
                [envs[key] for key in keys])
            parts.append((ue - ue.conj().transpose(0, 2, 1)).ravel())
        return np.concatenate(parts)

    def moved(self, direction: np.ndarray, t: float) -> "_Point":
        """The point reached along t * direction by the Cayley retraction
        U (I - t Omega/2)^-1 (I + t Omega/2), unitary for skew-Hermitian
        Omega."""
        out, at = {}, 0
        for keys in self.blocks:
            us = self._stack(keys)
            half = (t / 2) * direction[at:at + us.size].reshape(us.shape)
            one = np.eye(us.shape[1], dtype=np.complex128)
            out.update(zip(keys, us @ np.linalg.solve(one - half, one + half)))
            at += us.size
        return _Point(self.program, out, self.blocks, self.cols)


def _blocks(program: _Program, keys: Sequence[tuple[int, int]]
            ) -> list[list[tuple[int, int]]]:
    """`keys` grouped by the dimension of their unitaries, smallest first."""
    return [[key for key in keys if program.dims[key] == d]
            for d in sorted(set(program.dims.values()))]


def _direction(g: np.ndarray, memory: list) -> np.ndarray:
    """The L-BFGS two-loop ascent direction for gradient g, with (s, y, rho)
    pairs oldest first (y = previous gradient - next, the change of the
    gradient of -f); without memory, g scaled to length FIRST_STEP. Inner
    products are Re vdot."""
    if not memory:
        return g * (FIRST_STEP / np.linalg.norm(g))
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        alpha = rho * np.vdot(s, q).real
        q -= alpha * y
        alphas.append(alpha)
    s, y, _ = memory[-1]
    q *= np.vdot(s, y).real / np.vdot(y, y).real
    for (s, y, rho), alpha in zip(memory, reversed(alphas)):
        q += (alpha - rho * np.vdot(y, q).real) * s
    return q


def _restart(program: _Program, assignment: Assignment,
             keys: Sequence[tuple[int, int]], group_states: list[np.ndarray],
             cfg: SeesawConfig) -> tuple[Assignment, list[float], bool]:
    """One restart from `assignment` and one state per product group (one
    group of all provers without product groups).

    A plain sweep sets the first group's state to the top eigenvector of
    the last A, its eigen-update operator, updates the other groups
    (`_product_state_update`), then every turn, and returns the next A. With
    one group the state is always A's top eigenvector, so after
    `WARMUP_SWEEPS` sweeps the restart takes Riemannian L-BFGS steps on
    f(U) = lambda_max(A(U)); a step that fails its Armijo line search or
    gains less than `cfg.convergence_tol` is followed by a plain sweep from
    where it stopped, which clears the memory. The point after a sweep
    takes the A the sweep returned. The restart stops when a plain sweep
    gains less than `cfg.convergence_tol`, or after `cfg.max_sweeps`
    iterations (steps and sweeps, one trace value each; a failed line
    search adds none). `group_states` is left at the shared state of the
    last value. Returns the assignment, the trace and whether it
    converged."""
    blocks = _blocks(program, keys)
    point = _Point(program, assignment, blocks, _group_columns(group_states, 0))
    trace: list[float] = []
    step_next = False
    while len(trace) < cfg.max_sweeps:
        if not step_next:
            group_states[0] = point.psi
            _product_state_update(program, assignment, group_states)
            cols = _group_columns(group_states, 0)
            value, a = program.sweep(cols, point.psi, assignment, keys)
            gain = value - (trace[-1] if trace else -1.0)
            trace.append(value)
            if gain < cfg.convergence_tol or len(trace) == cfg.max_sweeps:
                return assignment, trace, gain < cfg.convergence_tol
            point = _Point(program, assignment, blocks, cols, a)
            g, memory = None, []
            step_next = len(group_states) == 1 and len(trace) >= WARMUP_SWEEPS
            continue
        if g is None:
            g = point.gradient()
        d = _direction(g, memory) if g.any() else g
        slope = np.vdot(d, g).real
        t = 1.0
        for _ in range(BACKTRACKS if slope > 0 else 0):
            trial = point.moved(d, t)
            if trial.f >= point.f + ARMIJO * t * slope:
                break
            t /= 2
        else:
            step_next = False
            continue
        g_next = trial.gradient()
        s, y = t * d, g - g_next
        if np.vdot(s, y).real > 0:
            memory = memory[1 - LBFGS_MEMORY:] + [(s, y, 1.0 / np.vdot(s, y).real)]
        step_next = trial.f - point.f >= cfg.convergence_tol
        point, g = trial, g_next
        assignment = point.assignment
        trace.append(point.f)
    group_states[0] = point.psi
    return assignment, trace, False


def seesaw(verifier: VerifierSpec, cfg: SeesawConfig,
           config: RunConfig = DEFAULT_RUN_CONFIG) -> AdversaryResult:
    """Alternating maximization over prover unitaries and the shared state.

    Returns the best restart. The trace holds one value per iteration and
    is non-decreasing; the final value is re-simulated through the plain
    executor and must agree within `config.probability_tol`, and every
    returned unitary must pass `polar_unitary`'s unitarity check. Each
    restart draws its unitaries, then one state per product group (one
    group of all provers without product groups), and runs `_restart`: its
    sweeps update the shared state group by group, then every turn, and
    with one group it also takes L-BFGS steps.
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
        group_states = [random_state(2 ** sum(cfg.prover_dims[i - 1]
                                              for i in g), rng)
                        for g in groups]
        assignment, trace, converged = _restart(program, assignment, keys,
                                                group_states, cfg)
        restart_values.append(trace[-1])
        cand = (trace[-1], -r, assignment, functools.reduce(np.kron, group_states),
                trace, converged)
        if best is None or cand[:2] > best[:2]:
            best = cand

    value, _, assignment, shared, trace, converged = best
    for u in assignment.values():
        require_unitary(u)
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

    A lower-bound oracle, independent of the see-saw path. `samples` must
    be an integer >= 1 (ValidationError).
    """
    if not (is_integer(samples) and samples >= 1):
        raise ValidationError(f"samples must be an integer >= 1, got {samples!r}")
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
    a `grid` that is not a finite real > 0 (a bool included), or that rounds
    to fewer than 2 points per angle (a step above 4*pi/3), raises
    ValidationError.
    """
    if not (is_real(grid) and math.isfinite(grid) and grid > 0):
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
