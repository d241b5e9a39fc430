"""The compiled executors against a frozen per-gate reference.

Random verifiers (at most 7 qubits, coins, accept events, the vocabulary
gates H, X, Y, Z, S, CNOT, SWAP, CPHASE, TOFFOLI and their inverses, and
permutation, diagonal and dense gates with 0-3 controls) and random prover
assignments are run three ways: the adversary's compiled program,
`model.run` of the equivalent strategies, and a per-gate reference kept here
as a test oracle (`Gate.full_matrix()` plus one tensordot per gate). Every
adversary test runs on both sides of the fusion bound: with the module's
bound (dense stretches and span slots) and with a bound of 1 (the live-width
steps of `model._compile_branch`, as above the bound; on criterion 08's
program no column block has more than 2^10 of its 2^14 rows). Provers
inlined by `flatten` and the same provers as slot matrices over
`RegisterLayout.slot_qubits` give one acceptance operator, and the layout's
qubit axes are `StateVector`'s big-endian positions.

`model.run`'s in-place slice kernel (`linalg.MatrixKernel`) is checked gate by
gate against the same reference (bit for bit on permutations and unit
diagonals), and `run` with a snapshot after every turn branch by branch,
including the snapshots it copies out. Hand-written cases
take each compile-time path of the lazy qubits in `run` once (bit rewrites,
classical controls, activations, SWAPs of classical and live qubits,
projectors fixed by classical bits), and random protocols compare `run` with
`run∘purify_coins`. `run` compiles snapshot steps for the requested turns
only; a pass places a snapshot's state in its register groups at its live
width, and the same state given dense is placed the same way, both equal
to a plain transpose of the expanded state kept here as a reference, and a
branch-dependent snapshot is rejected whether or not its branches share
their known bits. The
gate classification its compile reads once per matrix
(`Gate.permutation`, `is_swap`) equals the plain reductions on random and
named gates and their inverses. Over the same random verifiers, `flatten`'s
branch count, weights and order, the file codec's `load∘save` round trip and
`save`'s text against json's encoder are properties, and so is
`circuit.inverse()` composed with the circuit being the identity.
"""

import itertools
import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qmip import adversary, files, fixtures, model, transforms
from qmip.adversary import (SeesawConfig, resize_prover_registers, seesaw,
                            strategies_from_assignment)
from qmip.circuits import (Circuit, Gate, apply_gate, circuit_matrix, cnot,
                           cphase, h, is_swap, mcx, s as s_gate, swap, toffoli,
                           x, y, z)
from qmip.config import DEFAULT_RUN_CONFIG, PreconditionError
from qmip.linalg import (ProjectorOp, StateVector, permutation_sources,
                         polar_unitary, random_state, random_unitary,
                         zero_state)
from qmip.model import (AcceptNowStep, AcceptRule, ApplyStep, CoinStep,
                        FinalDecision, ProtocolInstance, ProverStrategy,
                        VerifierSpec, VerifierTurn, _compile_branch, flatten,
                        make_layout, purify_coins, run, validate)
from qmip.transforms import (make_perfectly_rewindable,
                             rewind_to_perfect_completeness)

TOL = 1e-12
FUSE_BOUNDS = [adversary.FUSE_MAX_DIM, 1]


# --- reference: one tensordot per gate, daggers rebuilt per call -------------


class _Reference:
    def __init__(self, layout):
        """`layout`: ordered (register name, qubit count) pairs."""
        self.n = sum(size for _, size in layout)
        self.dim = 2 ** self.n
        self.pos = {}
        for name, size in layout:
            for i in range(size):
                self.pos[(name, i)] = len(self.pos)

    def apply(self, cols, matrix, qubits):
        d = len(qubits)
        axes = [self.pos[q] for q in qubits]
        b = cols.shape[1]
        tensor = cols.reshape([2] * self.n + [b])
        m = matrix.reshape([2] * (2 * d))
        out = np.tensordot(m, tensor, axes=(list(range(d, 2 * d)), axes))
        out = np.moveaxis(out, list(range(d)), axes)
        return np.ascontiguousarray(out.reshape(self.dim, b))

    def apply_gate(self, cols, gate):
        return self.apply(cols, gate.full_matrix(), gate.qubits())

    def project(self, cols, p):
        b = cols.shape[1]
        if p.kind == "complement":
            return cols - self.project(cols, p.inner)
        tensor = cols.reshape([2] * self.n + [b])
        out = np.zeros_like(tensor)
        sl = [slice(None)] * (self.n + 1)
        if p.kind == "output_one":
            sl[self.pos[p.qubits[0]]] = 1
        else:
            for q in p.qubits:
                sl[self.pos[q]] = 0
        out[tuple(sl)] = tensor[tuple(sl)]
        return out.reshape(self.dim, b)

    def project_all(self, cols, projectors):
        for p in projectors:
            cols = self.project(cols, p)
        return cols

    def front(self, vec, qubits):
        axes = [self.pos[q] for q in qubits]
        tensor = np.moveaxis(vec.reshape([2] * self.n), axes,
                             list(range(len(axes))))
        return tensor.reshape(2 ** len(axes), -1)

    def step(self, cols, op, assignment):
        if op.kind == "gate":
            return self.apply_gate(cols, op.gate)
        if op.kind == "prover":
            return self.apply(cols, assignment[op.prover_key], op.qubits)
        if op.kind == "event":
            return cols - self.project_all(cols, op.projectors)
        return cols

    def environment(self, branches, init, assignment, key):
        d = assignment[key].shape[0]
        env = np.zeros((d, d), dtype=np.complex128)
        for br in branches:
            idx = next(i for i, op in enumerate(br.ops)
                       if op.kind == "prover" and op.prover_key == key)
            qubits = br.ops[idx].qubits
            chi = init.copy()
            for op in br.ops[:idx]:
                chi = self.step(chi, op, assignment)
            phi = self.apply(chi, assignment[key], qubits)
            stash = {}
            for j, op in enumerate(br.ops[idx + 1:], start=idx + 1):
                if op.kind == "event":
                    stash[j] = self.project_all(phi, op.projectors)
                    phi = phi - stash[j]
                else:
                    phi = self.step(phi, op, assignment)
            mu = self.project_all(phi, br.accept)
            for j in range(len(br.ops) - 1, idx, -1):
                op = br.ops[j]
                if op.kind == "gate":
                    mu = self.apply_gate(mu, op.gate.dagger())
                elif op.kind == "prover":
                    mu = self.apply(mu, assignment[op.prover_key].conj().T,
                                    op.qubits)
                elif op.kind == "event":
                    mu = mu - self.project_all(mu, op.projectors) + stash[j]
            c = self.front(mu[:, 0], qubits).conj() @ self.front(chi[:, 0], qubits).T
            env += br.weight * c.conj()
        return env

    def run(self, branches, init):
        """Acceptance, per-branch (event masses, final mass) and
        (turn, history key, amplitudes) snapshots of an inlined protocol."""
        acceptance, records, snapshots = 0.0, [], []
        for br in branches:
            cols, events = init.copy(), []
            for op in br.ops:
                if op.kind == "event":
                    proj = self.project_all(cols, op.projectors)
                    events.append(float(np.vdot(proj, proj).real))
                    cols = cols - proj
                elif op.kind == "turn":
                    snapshots.append((op.turn, br.history_key(), cols[:, 0].copy()))
                else:
                    cols = self.step(cols, op, {})
            final = self.project_all(cols, br.accept)
            records.append((events, float(np.vdot(final, final).real)))
            acceptance += br.weight * (sum(events) + records[-1][1])
        return acceptance, records, snapshots


def _matrix(kind, dim, rng):
    if kind == "permutation":
        return np.eye(dim, dtype=np.complex128)[rng.permutation(dim)]
    if kind == "diagonal":
        return np.diag(rng.choice(np.array([1, -1, 1j, -1j]), dim))
    if kind == "phases":   # diagonal, but not unit-valued: the dense path
        return np.diag(np.exp(2j * np.pi * rng.random(dim)))
    return random_unitary(dim, rng)


KINDS = ["permutation", "diagonal", "phases", "dense"]


# --- random protocols ----------------------------------------------------------


# the fixture-authoring vocabulary, each with the number of qubits it takes
NAMED = [(h, 1), (x, 1), (y, 1), (z, 1), (s_gate, 1), (cnot, 2), (swap, 2),
         (lambda a, b: cphase((a, b)), 2), (toffoli, 3)]


@st.composite
def protocol_gates(draw, pool):
    """A gate on qubits of `pool`: a vocabulary gate or its inverse, or a
    permutation, diagonal, phase or dense "U" with 0-3 controls."""
    qubits = draw(st.permutations(pool))
    kind = draw(st.sampled_from(KINDS + ["swap", "named"]))
    if kind == "swap" and len(qubits) >= 2:
        return swap(qubits[0], qubits[1])
    if kind == "named":
        make, arity = draw(st.sampled_from(
            [entry for entry in NAMED if entry[1] <= len(qubits)]))
        g = make(*qubits[:arity])
        return g.dagger() if draw(st.booleans()) else g
    n_t = draw(st.integers(1, min(2, len(qubits))))
    n_c = draw(st.integers(0, min(3, len(qubits) - n_t)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    matrix = _matrix(kind, 2 ** n_t, np.random.default_rng(seed))
    controls = tuple((c, draw(st.integers(0, 1)))
                     for c in qubits[n_t:n_t + n_c])
    return Gate("U", matrix, tuple(qubits[:n_t]), controls)


@st.composite
def verifiers(draw, max_qubits=7):
    """A random verifier. Its events and accept rules read verifier and
    message qubits only, as `validate` requires."""
    k = draw(st.integers(1, 2))
    q = draw(st.integers(1, 2))
    p_sizes = [draw(st.integers(1, 2)) for _ in range(k)]
    room = max_qubits - k * q - sum(p_sizes)
    if room < 1:
        p_sizes = [1] * k
        q = 1
        room = max_qubits - 2 * k
    n_v = draw(st.integers(1, min(3, room)))
    layout = make_layout([("V", n_v)], q, k, p_sizes)
    m = draw(st.integers(1, 4))
    vm = layout.verifier_message_qubits()
    coins: list[tuple[str, int]] = []

    def condition():
        if coins and draw(st.booleans()):
            cid, flips = draw(st.sampled_from(coins))
            return cid, draw(st.text("01", min_size=flips, max_size=flips))
        return None

    def projector(pool, depth=0):
        kind = draw(st.sampled_from(["output_one", "all_zero", "complement"]
                                    if depth == 0 else ["output_one", "all_zero"]))
        if kind == "output_one":
            return ProjectorOp.output_one(draw(st.sampled_from(pool)))
        if kind == "all_zero":
            return ProjectorOp.all_zero(
                draw(st.lists(st.sampled_from(pool), max_size=3, unique=True)))
        return ProjectorOp.complement(projector(pool, depth + 1))

    def projectors():
        return tuple(projector(vm) for _ in range(draw(st.integers(1, 2))))

    def apply_step():
        gates = tuple(draw(protocol_gates(vm)) for _ in range(draw(st.integers(1, 4))))
        return ApplyStep(Circuit(gates), when=condition())

    def steps(allow_coins):
        out = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["apply", "apply", "event", "coin"]))
            if kind == "coin" and allow_coins and len(coins) < 2:
                cid = f"c{len(coins)}"
                flips = draw(st.integers(1, q))
                recipients = tuple(i for i in range(1, k + 1) if draw(st.booleans()))
                record = None
                if flips <= n_v and draw(st.booleans()):
                    record = tuple(("V", i) for i in range(flips))
                out.append(CoinStep(cid, flips, recipients, record))
                coins.append((cid, flips))
            elif kind == "event":
                out.append(AcceptNowStep(projectors(), when=condition()))
            else:
                out.append(apply_step())
        return tuple(out)

    turns = tuple(VerifierTurn(steps(allow_coins=True)) for _ in range(m // 2))
    final_steps = steps(allow_coins=False)
    # one default rule, or one rule per outcome of one coin (rules may not
    # overlap)
    rules = [AcceptRule(projectors())]
    if coins and draw(st.booleans()):
        cid, flips = draw(st.sampled_from(coins))
        rules = [AcceptRule(projectors(), when=(cid, "".join(bits)))
                 for bits in itertools.product("01", repeat=flips)]
    return VerifierSpec(layout, m, turns, FinalDecision(final_steps, tuple(rules)))


def _setup(spec, seed):
    """A program, a random assignment and a random shared state for `spec`."""
    layout = spec.layout
    branches = flatten(spec)
    rng = np.random.default_rng(seed)
    keys = sorted({op.prover_key for br in branches for op in br.ops
                   if op.kind == "prover"})
    assignment = {
        key: random_unitary(2 ** (layout.provers[key[0] - 1].qubits
                                  + layout.message_qubits), rng)
        for key in keys}
    d_p = 2 ** sum(r.qubits for r in layout.provers)
    phi = random_state(d_p, rng)
    strategies = strategies_from_assignment(spec, assignment)
    inst = ProtocolInstance(spec, strategies,
                            StateVector(phi, layout.shared_layout))
    assert validate(inst) == []
    return (adversary._Program(spec, DEFAULT_RUN_CONFIG), branches, assignment,
            inst)


@pytest.mark.parametrize("fuse_max_dim", FUSE_BOUNDS)
@settings(max_examples=40, deadline=None)
@given(spec=verifiers(), seed=st.integers(0, 2 ** 32 - 1))
def test_compiled_value_equals_run(fuse_max_dim, spec, seed):
    with mock.patch.object(adversary, "FUSE_MAX_DIM", fuse_max_dim):
        program, _, assignment, inst = _setup(spec, seed)
        phi = inst.shared.amplitudes[:, None]
        value = program.acceptance_operator(assignment, phi)[0, 0].real
        assert abs(value - run(inst).acceptance) <= TOL


@pytest.mark.parametrize("fuse_max_dim", FUSE_BOUNDS)
@settings(max_examples=40, deadline=None)
@given(spec=verifiers(), seed=st.integers(0, 2 ** 32 - 1))
def test_compiled_acceptance_operator_equals_run(fuse_max_dim, spec, seed):
    with mock.patch.object(adversary, "FUSE_MAX_DIM", fuse_max_dim):
        program, _, assignment, inst = _setup(spec, seed)
        d_p = inst.shared.dim
        a = program.acceptance_operator(assignment,
                                        np.eye(d_p, dtype=np.complex128))
        rng = np.random.default_rng(seed)
        for _ in range(3):
            phi = random_state(d_p, rng)
            shared = StateVector(phi, inst.shared.layout)
            form = float(np.vdot(phi, a @ phi).real)
            assert abs(form - run(inst.with_shared(shared)).acceptance) <= TOL


@pytest.mark.parametrize("fuse_max_dim", FUSE_BOUNDS)
@settings(max_examples=40, deadline=None)
@given(spec=verifiers(), seed=st.integers(0, 2 ** 32 - 1))
def test_compiled_environment_equals_reference(fuse_max_dim, spec, seed):
    with mock.patch.object(adversary, "FUSE_MAX_DIM", fuse_max_dim):
        program, branches, assignment, inst = _setup(spec, seed)
        ref = _Reference(spec.layout.as_state_layout())
        phi = inst.shared.amplitudes[:, None]
        init = np.zeros((ref.dim, 1), dtype=np.complex128)
        init[:len(phi)] = phi
        for key in assignment:
            got = program.environment(phi, assignment, key)
            want = ref.environment(branches, init, assignment, key)
            assert np.abs(got - want).max() <= TOL


def test_compiled_program_above_the_fusion_bound():
    # 9 qubits: 2^9 amplitudes exceed FUSE_MAX_DIM without patching it
    spec = resize_prover_registers(fixtures.chsh().verifier, (2, 2))
    assert 2 ** spec.layout.total_qubits > adversary.FUSE_MAX_DIM
    program, branches, assignment, inst = _setup(spec, 11)
    assert not any(isinstance(s, adversary._Stretch)
                   for steps in program.branches for s in steps)
    phi = inst.shared.amplitudes[:, None]
    value = program.acceptance_operator(assignment, phi)[0, 0].real
    assert abs(value - run(inst).acceptance) <= TOL
    ref = _Reference(spec.layout.as_state_layout())
    init = np.zeros((ref.dim, 1), dtype=np.complex128)
    init[:len(phi)] = phi
    for key in assignment:
        got = program.environment(phi, assignment, key)
        want = ref.environment(branches, init, assignment, key)
        assert np.abs(got - want).max() <= TOL


def test_columns_above_the_fusion_bound_keep_their_live_width():
    # criterion 08's see-saw program, the one-round five_turn_no output at
    # prover_dims=(2, 2), has 14 qubits, of which at most 10 are ever live:
    # no column block a sweep or an acceptance operator walks has more than
    # 2^10 rows
    spec = resize_prover_registers(
        transforms.run_pipeline(fixtures.five_turn_no()).instance.verifier,
        (2, 2))
    assert spec.layout.total_qubits == 14
    program, _, assignment, inst = _setup(spec, 8)
    rows = []

    def spy(fn):
        def wrapped(cols, *args):
            rows.append(len(cols))
            return fn(cols, *args)
        return wrapped

    for steps in program.branches:
        for step in steps:
            for name in ("forward", "backward", "gram", "outer"):
                if hasattr(step, name):
                    setattr(step, name, spy(getattr(step, name)))
    phi = inst.shared.amplitudes[:, None]
    keys = sorted(assignment, key=lambda k: (k[1], k[0]))
    program.sweep(phi, np.ones(1), dict(assignment), keys)
    value = program.acceptance_operator(assignment, phi)[0, 0].real
    assert abs(value - run(inst).acceptance) <= TOL
    assert rows and max(rows) <= 2 ** 10


@pytest.mark.parametrize("fuse_max_dim", FUSE_BOUNDS)
@settings(max_examples=40, deadline=None)
@given(spec=verifiers(), seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_equals_per_key_updates(fuse_max_dim, spec, seed):
    """One sweep gives the assignment and value of the per-key path: the
    polar factor of a fresh `environment` for each key in (turn, prover)
    order, then `acceptance_operator`."""
    with mock.patch.object(adversary, "FUSE_MAX_DIM", fuse_max_dim):
        program, _, assignment, inst = _setup(spec, seed)
        phi = inst.shared.amplitudes[:, None]
        keys = sorted(assignment, key=lambda k: (k[1], k[0]))
        want = dict(assignment)
        for key in keys:
            want[key] = polar_unitary(program.environment(phi, want, key))
        value = program.acceptance_operator(want, phi)[0, 0].real
        got = dict(assignment)
        assert abs(program.sweep(phi, np.ones(1), got, keys)[0] - value) <= TOL
        for key in keys:
            assert np.abs(got[key] - want[key]).max() <= TOL


@pytest.mark.parametrize("fuse_max_dim", FUSE_BOUNDS)
@settings(max_examples=40, deadline=None)
@given(spec=verifiers(), split=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_returns_the_next_eigen_update_operator(fuse_max_dim, spec,
                                                      split, seed):
    """The sweep carries the first product group's update columns, kron(I,
    s_2, ...) (the d_p basis for one group), and returns the acceptance
    operator over them at the updated assignment, with the value it gives at
    the group state."""
    with mock.patch.object(adversary, "FUSE_MAX_DIM", fuse_max_dim):
        program, _, assignment, _ = _setup(spec, seed)
        rng = np.random.default_rng(seed)
        sizes = [r.qubits for r in spec.layout.provers]
        groups = [sizes[:1], sizes[1:]] if split and len(sizes) == 2 else [sizes]
        states = [random_state(2 ** sum(g), rng) for g in groups]
        cols = adversary._group_columns(states, 0)
        keys = sorted(assignment, key=lambda k: (k[1], k[0]))
        value, a = program.sweep(cols, states[0], assignment, keys)
        assert np.abs(a - program.acceptance_operator(assignment, cols)).max() <= TOL
        shared = (cols @ states[0])[:, None]
        assert abs(value - program.acceptance_operator(assignment, shared)[0, 0].real) <= TOL


def _assert_adjoint_environments(spec, program, branches, assignment, inst):
    """`environments` at the shared state, from one backward walk per
    branch, equal the per-key `environment` (a tail walk per key) and the
    reference's."""
    eye = np.eye(program.d_p, dtype=np.complex128)
    c = inst.shared.amplitudes
    got = program.environments((eye @ c)[:, None], assignment)
    ref = _Reference(spec.layout.as_state_layout())
    init = np.zeros((ref.dim, 1), dtype=np.complex128)
    init[:len(c), 0] = c
    assert sorted(got) == sorted(assignment)
    for key in assignment:
        per_key = program.environment((eye @ c)[:, None], assignment, key)
        assert np.abs(got[key] - per_key).max() <= 1e-12
        want = ref.environment(branches, init, assignment, key)
        assert np.abs(got[key] - want).max() <= TOL


@pytest.mark.parametrize("fuse_max_dim", FUSE_BOUNDS)
@settings(max_examples=40, deadline=None)
@given(spec=verifiers(), seed=st.integers(0, 2 ** 32 - 1))
def test_adjoint_environments_equal_the_per_key_path(fuse_max_dim, spec, seed):
    with mock.patch.object(adversary, "FUSE_MAX_DIM", fuse_max_dim):
        program, branches, assignment, inst = _setup(spec, seed)
        _assert_adjoint_environments(spec, program, branches, assignment, inst)


@pytest.mark.parametrize("fuse_max_dim", FUSE_BOUNDS)
@settings(max_examples=40, deadline=None)
@given(spec=verifiers(), seed=st.integers(0, 2 ** 32 - 1))
def test_point_from_a_sweep_is_a_fresh_point(fuse_max_dim, spec, seed):
    """A sweep over every key walks each branch as `acceptance_operator`
    would at the updated assignment, so the L-BFGS point built from the
    sweep's A is the fresh one bit for bit."""
    with mock.patch.object(adversary, "FUSE_MAX_DIM", fuse_max_dim):
        program, _, assignment, inst = _setup(spec, seed)
        eye = np.eye(program.d_p, dtype=np.complex128)
        keys = sorted(assignment, key=lambda k: (k[1], k[0]))
        blocks = adversary._blocks(program, keys)
        _, a = program.sweep(eye, inst.shared.amplitudes, assignment, keys)
        swept = adversary._Point(program, assignment, blocks, eye, a)
        fresh = adversary._Point(program, assignment, blocks, eye)
        assert swept.f == fresh.f
        assert np.array_equal(swept.psi, fresh.psi)
        assert np.array_equal(swept.gradient(), fresh.gradient())


def _eigenvalues(program, assignment):
    a = program.acceptance_operator(
        assignment, np.eye(program.d_p, dtype=np.complex128))
    return np.linalg.eigvalsh(a)


@pytest.mark.parametrize("fuse_max_dim", FUSE_BOUNDS)
@settings(max_examples=12, deadline=None)
@given(spec=verifiers(), seed=st.integers(0, 2 ** 32 - 1))
def test_gradient_equals_finite_difference(fuse_max_dim, spec, seed):
    """The evaluation's Riemannian gradient G_k = U_k^dag E_k - E_k^dag U_k,
    against a central difference of lambda_max(A) along U_k exp(t Omega_k)
    for a random skew-Hermitian Omega. lambda_max is smooth only where it
    is simple; the difference is accurate where the gap is not small."""
    with mock.patch.object(adversary, "FUSE_MAX_DIM", fuse_max_dim):
        program, _, assignment, _ = _setup(spec, seed)
        vals = _eigenvalues(program, assignment)
        assume(vals[-1] - vals[-2] > 0.05)
        keys = sorted(assignment, key=lambda k: (k[1], k[0]))
        blocks = adversary._blocks(program, keys)
        point = adversary._Point(program, assignment, blocks,
                                 np.eye(program.d_p, dtype=np.complex128))
        rng = np.random.default_rng(seed)
        omegas = {}
        for key in keys:
            w = rng.standard_normal((2, program.dims[key], program.dims[key]))
            w = w[0] + 1j * w[1]
            omegas[key] = w - w.conj().T
        norm = np.sqrt(sum(np.vdot(w, w).real for w in omegas.values()))
        slope = np.vdot(np.concatenate([omegas[k].ravel() for ks in blocks
                                        for k in ks]) / norm,
                        point.gradient()).real

        def moved(t):
            out = {}
            for key, w in omegas.items():
                # exp(t w) for skew-Hermitian w, from the Hermitian 1j * w
                lam, v = np.linalg.eigh(1j * w / norm)
                out[key] = assignment[key] @ (v * np.exp(-1j * t * lam)) @ v.conj().T
            return _eigenvalues(program, out)[-1]

        h = 1e-5
        assert abs((moved(h) - moved(-h)) / (2 * h) - slope) <= 1e-6


@pytest.mark.parametrize("fuse_max_dim", FUSE_BOUNDS)
def test_branch_ends_at_its_last_banking_step(fuse_max_dim):
    """Coin outcome 1 has an empty accept rule and a prover turn after its
    last event: its compiled branch ends at that event, and the environments,
    per key and from the adjoint walk, still equal the reference's."""
    layout = make_layout([("V", 2)], 1, 1, [1])
    event = AcceptNowStep((ProjectorOp.output_one(V0),), when=("c", "1"))
    turn = VerifierTurn((CoinStep("c", 1, ()),
                         ApplyStep(Circuit((h(V0), cnot(M, V1)))), event))
    spec = VerifierSpec(layout, 3, (turn,), FinalDecision(
        (ApplyStep(Circuit((cnot(M, V0),))),),
        (AcceptRule((ProjectorOp.output_one(V0),), when=("c", "0")),
         AcceptRule((ProjectorOp.never(),), when=("c", "1")))))
    with mock.patch.object(adversary, "FUSE_MAX_DIM", fuse_max_dim):
        program, branches, assignment, inst = _setup(spec, 5)
        kept, cut = program.branches
        assert [(1, 2) in at for at in program.slot_at] == [True, False]
        assert isinstance(cut[-1], adversary._Bank if fuse_max_dim == 1
                          else adversary._Stretch)
        ref = _Reference(spec.layout.as_state_layout())
        phi = inst.shared.amplitudes[:, None]
        init = np.zeros((ref.dim, 1), dtype=np.complex128)
        init[:len(phi)] = phi
        for key in assignment:
            got = program.environment(phi, assignment, key)
            want = ref.environment(branches, init, assignment, key)
            assert np.abs(got - want).max() <= TOL
        _assert_adjoint_environments(spec, program, branches, assignment, inst)


def _audit_verifier():
    """The verifier of the rewound sound_no, 5 verifier and message qubits."""
    rwd = make_perfectly_rewindable(fixtures.sound_no(), p_max=1.0, check=False)
    return rewind_to_perfect_completeness(rwd.instance,
                                          check=False).instance.verifier


def test_fused_segments_stay_on_the_verifier_axes():
    spec = resize_prover_registers(_audit_verifier(), (2,))
    assert len(spec.layout.verifier_message_qubits()) == 5
    program = adversary._Program(spec, DEFAULT_RUN_CONFIG)
    stretches = [s.f for steps in program.branches for s in steps
                 if isinstance(s, adversary._Stretch)]
    assert stretches and all(f.shape[1] <= 2 ** 5 for f in stretches)


@pytest.mark.parametrize("seed", range(4))
def test_fusion_leaves_the_first_audit_sweep_unchanged(seed):
    # later sweeps may move by rounding: the environments are rank deficient
    cfg = SeesawConfig(prover_dims=(2,), restarts=1, max_sweeps=1, seed=seed)
    fused = seesaw(_audit_verifier(), cfg).trace
    with mock.patch.object(adversary, "FUSE_MAX_DIM", 1):
        per_gate = seesaw(_audit_verifier(), cfg).trace
    assert abs(fused[0] - per_gate[0]) <= TOL


# --- the prover-slot convention ------------------------------------------------


def _slot_layout(qubits):
    """The (register, qubit count) layout whose qubit order is `qubits`."""
    names = list(dict.fromkeys(name for name, _ in qubits))
    layout = tuple((name, sum(1 for n, _ in qubits if n == name)) for name in names)
    assert [(n, j) for n, size in layout for j in range(size)] == list(qubits)
    return layout


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inlined_provers_equal_their_slot_matrices(data):
    """Provers inlined by `flatten` and the same provers as slot matrices,
    each the circuit's matrix over `slot_qubits(i)` in that order, give one
    acceptance operator."""
    spec = data.draw(verifiers())
    layout = spec.layout
    provers, assignment = [], {}
    for i in range(1, layout.k + 1):
        slot = layout.slot_qubits(i)
        circuits = tuple(
            Circuit(tuple(data.draw(st.lists(protocol_gates(list(slot)), max_size=3))))
            for _ in range(spec.prover_turn_count()))
        provers.append(ProverStrategy(i, circuits))
        for t, c in enumerate(circuits, start=1):
            assignment[(i, t)] = circuit_matrix(c, _slot_layout(slot))
    eye = np.eye(2 ** sum(r.qubits for r in layout.provers), dtype=np.complex128)
    inlined = adversary._Program(spec, DEFAULT_RUN_CONFIG, provers
                                 ).acceptance_operator(None, eye)
    slots = adversary._Program(spec, DEFAULT_RUN_CONFIG
                               ).acceptance_operator(assignment, eye)
    assert np.abs(inlined - slots).max() <= TOL


@settings(max_examples=40, deadline=None)
@given(spec=verifiers())
def test_layout_axes_are_state_vector_positions(spec):
    layout = spec.layout
    state = zero_state(layout.as_state_layout())
    axes = layout.qubit_axes()
    assert sorted(axes.values()) == list(range(layout.total_qubits))
    assert axes == {q: state.qubit_position(q) for q in axes}


# --- model.run's in-place kernel ----------------------------------------------


@st.composite
def gates(draw, n, kinds=KINDS):
    """A gate on ("Q", 0..n-1): 1-3 targets, 0-5 controls of both polarities,
    and a matrix of one of `kinds`: permutation, unit diagonal, general
    diagonal or dense."""
    qubits = draw(st.permutations(range(n)))
    n_t = draw(st.integers(1, min(3, n)))
    n_c = draw(st.integers(0, min(5, n - n_t)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    matrix = _matrix(draw(st.sampled_from(kinds)), 2 ** n_t, rng)
    controls = tuple((("Q", q), draw(st.integers(0, 1)))
                     for q in qubits[n_t:n_t + n_c])
    return Gate("U", matrix, tuple(("Q", q) for q in qubits[:n_t]), controls)


def _kernel_against_reference(n, gate, seed):
    state = StateVector(random_state(2 ** n, np.random.default_rng(seed)),
                        (("Q", n),))
    want = _Reference(state.layout).apply_gate(state.amplitudes[:, None], gate)
    got = apply_gate(state, gate).amplitudes
    assert np.abs(got - want[:, 0]).max() <= TOL


@settings(max_examples=150, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_equals_full_matrix_reference(data, seed):
    n = data.draw(st.integers(1, 10))
    _kernel_against_reference(n, data.draw(gates(n)), seed)


@pytest.mark.parametrize("kind", KINDS)
def test_kernel_equals_full_matrix_reference_16_qubits(kind):
    rng = np.random.default_rng(16)
    controls = ((("Q", 12), 1), (("Q", 3), 0), (("Q", 7), 1))
    gate = Gate("U", _matrix(kind, 4, rng), (("Q", 9), ("Q", 0)), controls)
    _kernel_against_reference(16, gate, 17)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_is_exact_on_permutations_and_unit_diagonals(data, seed):
    """Every output amplitude of a 0/1 permutation or a {1, -1, i, -i}
    diagonal has one nonzero term, so the product equals the reference bit
    for bit, up to the sign of a zero."""
    n = data.draw(st.integers(1, 12))
    gate = data.draw(gates(n, kinds=("permutation", "diagonal")))
    state = StateVector(random_state(2 ** n, np.random.default_rng(seed)),
                        (("Q", n),))
    want = _Reference(state.layout).apply_gate(state.amplitudes[:, None], gate)
    got = apply_gate(state, gate).amplitudes
    assert (got + 0.0).tobytes() == (want[:, 0] + 0.0).tobytes()


def _run_against_reference(inst):
    """`run` of `inst`, with a snapshot after every turn, against the per-gate
    reference: acceptance, branch records and snapshots to 1e-12; no two
    snapshots share memory."""
    tr = run(inst, snapshot_turns=range(1, inst.m + 1))
    ref = _Reference(inst.verifier.layout.as_state_layout())
    init = np.zeros((ref.dim, 1), dtype=np.complex128)
    init[:inst.shared.dim, 0] = inst.shared.amplitudes
    acceptance, records, snapshots = ref.run(
        flatten(inst.verifier, inst.provers), init)
    assert abs(tr.acceptance - acceptance) <= TOL
    for rec, (events, final) in zip(tr.branches, records, strict=True):
        assert np.abs(np.subtract(rec.event_probs, events)).max(initial=0) <= TOL
        assert abs(rec.final_prob - final) <= TOL
    for snap, (t_ref, key_ref, amps) in zip(tr.snapshots, snapshots,
                                            strict=True):
        assert (snap.turn, snap.history) == (t_ref, key_ref)
        assert np.abs(snap.state.dense() - amps).max() <= TOL
    for a, b in itertools.combinations(tr.snapshots, 2):
        assert not np.shares_memory(a.state.amplitudes, b.state.amplitudes)
    return tr


@settings(max_examples=60, deadline=None)
@given(spec=verifiers(), seed=st.integers(0, 2 ** 32 - 1))
def test_run_equals_reference(spec, seed):
    _run_against_reference(_setup(spec, seed)[3])


# --- lazy qubits: each compile-time path of `model._compile_branch` -----------

V0, V1, V2, M, P0 = ("V", 0), ("V", 1), ("V", 2), ("M1", 0), ("P1", 0)
_H = _matrix("dense", 2, np.random.default_rng(5))
_PHASES = _matrix("phases", 2, np.random.default_rng(6))
_ONE, _ZERO = ProjectorOp.output_one, ProjectorOp.all_zero
_NOT = ProjectorOp.complement

# (gates of the verifier's turn, its event or None, accept projector,
#  grow steps, gate kernels, live slices of the event, live slices of accept).
# The prover's first turn swaps P1[0] into M1, so M1 and P1[1] are live and
# V, P1[0] classical at 0 when the verifier moves.
LAZY_CASES = {
    "bit-rewrites": ([x(V0), cnot(V0, V1), mcx(((V0, 1), (V1, 1)), V2)],
                     None, _ONE(V2), 0, 0, [], 1),
    "control-at-its-bit": ([x(V1), Gate("U", _H, (M,), ((V1, 1),))],
                           None, _ONE(M), 0, 1, [], 1),
    "control-at-other-bit": ([Gate("U", _H, (M,), ((V1, 1),))],
                             None, _ONE(M), 0, 0, [], 1),
    "dense-activation": ([Gate("U", _H, (V0,)), Gate("U", _H, (M,), ((V0, 1),))],
                         None, _ONE(V0), 1, 2, [], 1),
    "diagonal-activation": ([x(V0), z(V0), Gate("U", _PHASES, (V1,))],
                            None, _ZERO([V0, M]), 2, 2, [], 1),
    "cnot-onto-classical": ([cnot(M, V0)], None, _ONE(V0), 1, 1, [], 1),
    "swap-classical-live": ([swap(V0, M), x(M), Gate("U", _H, (V0,))],
                            None, _ONE(M), 0, 1, [], 1),
    "event-constant-false": ([], _ONE(V0), _ZERO([V0, M]), 0, 0, [0], 1),
    "event-constant-true": ([x(V1)], _ONE(V1), _ONE(M), 0, 0, [1], 1),
    "complement-constant-true": ([], _NOT(_ONE(V1)), _ONE(M), 0, 0, [1], 1),
    "complement-partly-classical": ([], _NOT(_ZERO([V0, M])), _ONE(M),
                                    0, 0, [1], 1),
    "accept-constant-true": ([x(V2)], None, _NOT(_ZERO([V0, V2])), 0, 0, [], 1),
    "accept-constant-false": ([], None, _NOT(_ZERO([V0, V2])), 0, 0, [], 0),
}


@pytest.mark.parametrize("case", LAZY_CASES)
def test_lazy_paths_equal_reference(case):
    gates, event, accept, grows, kernels, event_slices, accept_slices = LAZY_CASES[case]
    layout = make_layout([("V", 3)], 1, 1, [2])
    steps = (ApplyStep(Circuit(tuple(gates))),)
    if event is not None:
        steps += (AcceptNowStep((event,)),)
    spec = VerifierSpec(layout, 3, (VerifierTurn(steps),),
                        FinalDecision((), (AcceptRule((accept,)),)))
    prover = ProverStrategy(1, (Circuit((swap(P0, M),)), Circuit(())))
    inst = ProtocolInstance(spec, (prover,), StateVector(
        random_state(4, np.random.default_rng(3)), (("P1", 2),)))
    compiled = []

    def spy(*args):
        compiled.append(_compile_branch(*args))
        return compiled[-1]

    with mock.patch.object(model, "_compile_branch", spy):
        tr = _run_against_reference(inst)
    (steps, final), = compiled
    kinds = [s[0] for s in steps]
    assert (kinds.count("grow"), kinds.count("gate")) == (grows, kernels)
    assert [len(s[1].views) for s in steps if s[0] == "event"] == event_slices
    assert len(final.views) == accept_slices
    assert [s.turn for s in tr.snapshots] == [1, 2, 3]


@settings(max_examples=40, deadline=None)
@given(spec=verifiers(), seed=st.integers(0, 2 ** 32 - 1),
       requested=st.sets(st.integers(0, 5)))
def test_only_requested_turns_are_compiled(spec, seed, requested):
    # `run` compiles a ("turn", ...) step for the requested turns only;
    # snapshots change neither the acceptance nor any branch record, and a
    # snapshot is the state that requesting every turn gives for that turn
    inst = _setup(spec, seed)[3]
    compiled = []

    def spy(*args):
        compiled.append(_compile_branch(*args))
        return compiled[-1]

    with mock.patch.object(model, "_compile_branch", spy):
        tr = run(inst, snapshot_turns=requested)
    wanted = sorted(requested & set(range(1, inst.m + 1)))
    for steps, _ in compiled:
        assert [s[1] for s in steps if s[0] == "turn"] == wanted
    plain = run(inst)
    assert tr.acceptance == plain.acceptance and tr.branches == plain.branches
    every = run(inst, snapshot_turns=range(1, inst.m + 1))
    assert [(s.turn, s.history) for s in tr.snapshots] == [
        (s.turn, s.history) for s in every.snapshots if s.turn in requested]
    for got, want in zip(
            tr.snapshots, [s for s in every.snapshots if s.turn in requested]):
        assert got.state.dense().tobytes() == want.state.dense().tobytes()


def _permutation_reference(m):
    """`permutation_sources` as three reductions, without its early reject."""
    if (((m == 0) | (m == 1)).all() and (m.sum(axis=0) == 1).all()
            and (m.sum(axis=1) == 1).all()):
        return tuple(m.real.argmax(axis=1).tolist())
    return None


def _gate_classification_matches_reference(gate):
    for g in (gate, gate.dagger()):
        src = permutation_sources(g.matrix)
        assert (None if src is None else tuple(src.tolist())) \
            == _permutation_reference(g.matrix) == g.permutation
        assert g.permutation is g.permutation
        assert is_swap(g) == (not g.controls
                              and np.array_equal(g.matrix, swap(V0, V1).matrix))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_gate_classification_equals_reference(data):
    pool = [("Q", i) for i in range(5)]
    _gate_classification_matches_reference(data.draw(protocol_gates(pool)))


@pytest.mark.parametrize("matrix", [
    np.eye(4), np.eye(4)[[0, 2, 1, 3]], np.eye(4)[[2, 0, 1, 3]],
    [[1, 1], [0, 0]], [[0, 1j], [1, 0]], [[0, 2], [1, 0]], [[0, 1], [1, 1e-300]],
    [[np.nan, 0], [0, 1]], [[0, 1 + 1e-16j], [1, 0]], np.eye(2) * -1,
    np.ones((4, 4)) / 2])
@pytest.mark.parametrize("controls", [(), ((("Q", 9), 1),)])
def test_gate_classification_on_near_permutations(matrix, controls):
    targets = [("Q", i) for i in range(int(np.log2(len(matrix))))]
    _gate_classification_matches_reference(Gate("U", matrix, targets, controls))


def test_snapshot_is_not_changed_by_later_gates():
    # no SWAP precedes the snapshot, so its logical-order copy is an identity
    # transpose of the live buffer, which the final X then changes in place
    tr = run(fixtures.always(), snapshot_turns=range(1, 3))
    snap, = [s for s in tr.snapshots if s.turn == 2]
    assert snap.state.dense()[0] == 1.0
    assert tr.acceptance == 1.0


def _regrouped(state, groups):
    """`state` with its registers transposed into group order and each
    group fused under one name: the reference for `StateVector.placed`."""
    axes = dict(zip((name for name, _ in state.layout), np.split(
        np.arange(state.n_qubits), np.cumsum([q for _, q in state.layout]))))
    sizes = dict(state.layout)
    amps = state.amplitudes.reshape([2] * state.n_qubits).transpose(
        [a for _, members in groups for m in members for a in axes[m]])
    return StateVector(amps.reshape(-1),
                       tuple((name, sum(sizes[m] for m in members))
                             for name, members in groups), normalized=False)


@settings(max_examples=40, deadline=None)
@given(spec=verifiers(), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_snapshot_in_groups_equals_regrouped_full_state(spec, seed, data):
    # a pass writes its snapshot once, in its register groups, from the
    # live amplitudes (`StateVector.placed`), with the registers in
    # `zeroed` projected onto |0...0> and left out: written in full, byte
    # for byte the all-zero slice of the expanded state transposed into
    # group order; the same state given dense (as a dense tensor power in
    # the repetitions) is placed the same way, and gains no known bits
    inst = _setup(spec, seed)[3]
    tr = run(inst, snapshot_turns=range(1, inst.m + 1))
    sizes = dict(inst.verifier.layout.as_state_layout())
    order = data.draw(st.permutations(sorted(sizes)))
    zeroed = order[:data.draw(st.integers(0, len(order) - 1))]
    kept = order[len(zeroed):]
    cuts = [0] + [j for j in range(1, len(kept)) if data.draw(st.booleans())]
    groups = [(f"G{g}", kept[a:b])
              for g, (a, b) in enumerate(zip(cuts, cuts[1:] + [len(kept)]))]
    for snap in tr.snapshots:
        dense = StateVector(snap.state.dense(), snap.state.layout,
                            normalized=False)
        want = _regrouped(dense, [("Z", zeroed)] + groups)
        zero_slice = want.amplitudes.reshape(2 ** want.layout[0][1], -1)[0]
        for source in (snap.state, dense):
            got = source.placed(groups, zeroed, normalized=False)
            assert got.layout == want.layout[1:]
            assert got.dense().tobytes() == zero_slice.tobytes()
        assert dense.placed(groups, zeroed, normalized=False).known == ()


def _coin_after_prover_turn(prover_gates):
    """Prover 1 applies `prover_gates` in turn 1, then the verifier XORs a
    coin into M1; the state after turn 2 depends on the coin."""
    layout = make_layout([("V", 1)], 1, 1, [1])
    spec = VerifierSpec(layout, 3, (VerifierTurn((CoinStep("c", 1, (1,)),)),),
                        FinalDecision((), (AcceptRule((_ONE(V0),)),)))
    prover = ProverStrategy(1, (Circuit(prover_gates), Circuit(())))
    return ProtocolInstance(spec, (prover,),
                            StateVector(np.array([1.0, 0.0]), (("P1", 1),)))


@pytest.mark.parametrize("same_known", [True, False],
                         ids=["live-message", "classical-message"])
def test_branch_dependent_snapshot_is_rejected(same_known):
    # a dense gate makes M1 live, so the coin's X changes the live
    # amplitudes and both branches keep the same known bits; without it
    # the X flips M1's known bit and the known bits differ
    gates = (Gate("U", _H, (M,)),) if same_known else ()
    tr = run(_coin_after_prover_turn(gates), snapshot_turns=(1, 2))
    before, after = ([s for s in tr.snapshots if s.turn == t]
                     for t in (1, 2))
    assert (after[0].state.known == after[1].state.known) == same_known
    assert transforms._snapshot_after(tr, 1) is before[0].state
    with pytest.raises(PreconditionError, match="branch-dependent"):
        transforms._snapshot_after(tr, 2)


# --- run == run o purify_coins -------------------------------------------------


def _rule_with_a_repeated_qubit():
    """A coin, and an accept rule that names V[0] twice: `validate` takes
    it and `run` reads it as V[0] = 0."""
    layout = make_layout([("V", 1)], 1, 1, [1])
    return VerifierSpec(layout, 3, (VerifierTurn((CoinStep("c0", 1, (1,)),)),),
                        FinalDecision((), (AcceptRule((_ZERO([V0, V0]),)),)))


@settings(max_examples=60, deadline=None)
@given(spec=verifiers(max_qubits=8), seed=st.integers(0, 2 ** 32 - 1))
@example(spec=_rule_with_a_repeated_qubit(), seed=0)
def test_run_equals_run_of_purified(spec, seed):
    # purified coins are Hadamards on |0> qubits that nothing else touches
    # (the declared record, or a fresh register copied into it), so the
    # purified run also activates classical qubits by a dense gate; what
    # purification cannot express it refuses by name
    inst = _setup(spec, seed)[3]
    tr = run(inst)
    assert abs(sum(rec.weight for rec in tr.branches) - 1.0) <= TOL
    try:
        purified = purify_coins(inst)
    except PreconditionError as e:
        assert str(e).startswith("cannot purify")
        return
    assert abs(run(purified).acceptance - tr.acceptance) <= 1e-10


# --- circuit inverses -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_inverse_composed_with_circuit_is_identity(data):
    layout = (("A", data.draw(st.integers(1, 3))), ("B", data.draw(st.integers(0, 3))))
    pool = [(name, i) for name, size in layout for i in range(size)]
    c = Circuit(tuple(data.draw(st.lists(protocol_gates(pool), min_size=1, max_size=8))))
    product = circuit_matrix(c.inverse(), layout) @ circuit_matrix(c, layout)
    assert np.abs(product - np.eye(len(product))).max() <= TOL


# --- flatten and the file codec over random protocols ---------------------------


@settings(max_examples=60, deadline=None)
@given(spec=verifiers())
def test_flatten_branch_invariants(spec):
    coins = [(s.coin_id, s.flips) for t in spec.turns for s in t.steps
             if isinstance(s, CoinStep)]
    flips = sum(f for _, f in coins)
    branches = flatten(spec)
    assert len(branches) == 2 ** flips
    assert all(br.weight == 2.0 ** -flips for br in branches)
    # coin ids c0, c1 sort in coin order, so sorted histories list the
    # outcomes with the first coin most significant
    outcomes = [[(cid, "".join(bits)) for bits in itertools.product("01", repeat=f)]
                for cid, f in coins]
    assert [br.history for br in branches] == list(itertools.product(*outcomes))


@settings(max_examples=40, deadline=None)
@given(spec=verifiers(), seed=st.integers(0, 2 ** 32 - 1))
def test_load_save_round_trip(spec, seed, tmp_path_factory):
    """Saving what `load` read writes the bytes that saving the instance
    wrote, and the loaded instance accepts with the same probability."""
    inst = _setup(spec, seed)[3]
    path = tmp_path_factory.mktemp("round_trip") / "protocol.json"
    text = files.save(inst, path)
    loaded = files.load(path)
    assert files.save(loaded, path) == text
    assert run(loaded).acceptance == run(inst).acceptance


@settings(max_examples=40, deadline=None)
@given(spec=verifiers(), seed=st.integers(0, 2 ** 32 - 1))
def test_save_writes_what_json_dumps_writes(spec, seed):
    """`save`'s own writer writes the text json's encoder writes for the
    data that the text holds."""
    _assert_json_text(files.save(_setup(spec, seed)[3], os.devnull))


def _assert_json_text(text: str) -> None:
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"


def _oneshot_pass_outputs():
    """Every pass output on the inputs of the benchmark's `oneshot` ops."""
    load = fixtures.fixtures_dir().joinpath
    three = files.load(load("three_turn.json"))
    runs = [("rewindable", n, {}) for n in ("good", "always")]
    runs += [("rewind", n, {}) for n in ("rw_good", "rw_always", "rw_ent")]
    runs += [("halve", n, {}) for n in ("five_turn_yes", "nine_turn_yes")]
    runs += [(p, "three_turn", {})
             for p in ("public-coin", "direct-one-round")]
    runs += [(p, "good", {"n": 3}) for p in ("seq-rep", "par-rep")]
    for name, n, kw in runs:
        yield transforms.PASSES[name](files.load(load(f"{n}.json")), **kw)
    yield transforms.PASSES["one-round"](
        transforms.to_public_coin_3turn(three).instance)
    cascade = transforms.parallelize_to_three(
        files.load(load("five_turn_yes.json")))
    yield cascade
    yield transforms.PASSES["direct-one-round"](cascade.instance)


def _odd_value_instances():
    """`guess` with a register named with non-ASCII letters, a quote and a
    backslash, a non-ASCII note, -0.0 and subnormal amplitudes and matrix
    entries, and claims that are an int, a bool and null."""
    text = files.save(fixtures.guess(), os.devnull)
    data = json.loads(text.replace('"P1"', json.dumps('P\u00fc"\\1')))
    data["meta"]["notes"] = ["\u00fcber \u2713", 'a "quote" and \\ too']
    data["meta"]["name"] = 'n\u00e4me "q" \\'
    tiny = 5e-324
    data["shared_state"]["amplitudes"] = [[-0.0, -0.0], [1.0, -tiny]]
    data["circuits"]["final"].append(
        {"gate": "U", "targets": [["V", 0]],
         "matrix": [[[1.0, -0.0], [tiny, 0.0]], [[-tiny, -0.0], [1.0, 0.0]]]})
    for claims in ((1, True), (None, None), (False, 0)):
        data["meta"]["claimed_completeness"], data["meta"]["claimed_soundness"] = claims
        yield files.instance_from_dict(data)


def test_save_writes_what_json_dumps_writes_on_outputs_and_odd_values():
    """The same on every oneshot pass output, every pipeline stage (known
    bits included) and on names, notes, amplitudes and claims that json
    writes in its own ways."""
    outputs = [r.instance for r in _oneshot_pass_outputs()]
    for name in ("five_turn_yes", "sound_yes", "sound_no"):
        stages = transforms.run_pipeline(getattr(fixtures, name)()).stages
        outputs += [stage.instance for stage in stages]
    assert sum(bool(inst.shared.known) for inst in outputs) >= 9
    odd = list(_odd_value_instances())
    for inst in outputs + odd:
        _assert_json_text(files.save(inst, os.devnull))
    texts = [files.save(inst, os.devnull) for inst in odd]
    assert all("\\u00fc" in t and "5e-324" in t and "-0.0" not in t
               for t in texts)
    assert '"claimed_soundness": true' in texts[0]
    assert '"claimed_completeness": null' in texts[1]
