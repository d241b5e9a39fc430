"""The compiled branch program against independent executors.

Random verifiers (at most 7 qubits, coins, accept events, gates with 0-3
controls) and random prover assignments are run three ways: the compiled
program, `model.run` of the equivalent strategies, and a per-gate reference
of the environment operator kept here as a test oracle. Every test runs on
both sides of the fusion bound: with the module's bound (fused segments) and
with a bound of 1 (one step per gate).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmip import adversary, fixtures
from qmip.adversary import (resize_prover_registers,
                            strategies_from_assignment)
from qmip.circuits import Circuit, Gate
from qmip.linalg import ProjectorOp, StateVector, random_state, random_unitary
from qmip.model import (AcceptNowStep, AcceptRule, ApplyStep, CoinStep,
                        FinalDecision, ProtocolInstance, VerifierSpec,
                        VerifierTurn, flatten, make_layout, run, validate)

TOL = 1e-12
FUSE_BOUNDS = [adversary.FUSE_MAX_DIM, 1]


# --- reference: one tensordot per gate, daggers rebuilt per call -------------


class _Reference:
    def __init__(self, layout):
        self.n = layout.total_qubits
        self.dim = 2 ** self.n
        self.pos = {}
        for r in layout.registers:
            for i in range(r.qubits):
                self.pos[(r.name, i)] = len(self.pos)

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


# --- random protocols ----------------------------------------------------------


@st.composite
def verifiers(draw, max_qubits=7):
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
    every = [(r.name, i) for r in layout.registers for i in range(r.qubits)]
    coins: list[tuple[str, int]] = []

    def gate():
        qubits = draw(st.permutations(vm))
        n_t = draw(st.integers(1, min(2, len(qubits))))
        n_c = draw(st.integers(0, min(3, len(qubits) - n_t)))
        seed = draw(st.integers(0, 2 ** 32 - 1))
        matrix = random_unitary(2 ** n_t, np.random.default_rng(seed))
        controls = tuple((c, draw(st.integers(0, 1)))
                         for c in qubits[n_t:n_t + n_c])
        return Gate("U", matrix, tuple(qubits[:n_t]), controls)

    def condition():
        if coins and draw(st.booleans()):
            cid, flips = draw(st.sampled_from(coins))
            return cid, draw(st.text("01", min_size=flips, max_size=flips))
        return None

    def projector(depth=0):
        kind = draw(st.sampled_from(["output_one", "all_zero", "complement"]
                                    if depth == 0 else ["output_one", "all_zero"]))
        if kind == "output_one":
            return ProjectorOp.output_one(draw(st.sampled_from(every)))
        if kind == "all_zero":
            return ProjectorOp.all_zero(
                draw(st.lists(st.sampled_from(every), max_size=3, unique=True)))
        return ProjectorOp.complement(projector(depth + 1))

    def projectors():
        return tuple(projector() for _ in range(draw(st.integers(1, 2))))

    def apply_step():
        gates = tuple(gate() for _ in range(draw(st.integers(1, 4))))
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
    rules = []
    if coins and draw(st.booleans()):
        rules.append(AcceptRule(projectors(), when=condition()))
    rules.append(AcceptRule(projectors()))
    return VerifierSpec(layout, m, turns, FinalDecision(final_steps, tuple(rules)))


def _setup(spec, seed):
    """A program, a random assignment and a random shared state for `spec`."""
    layout = spec.layout
    branches = flatten(verifier=spec)
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
    inst = ProtocolInstance(spec, strategies, StateVector(
        phi, tuple((r.name, r.qubits) for r in layout.provers)))
    assert validate(inst) == []
    return adversary._Program(layout, branches), branches, assignment, inst


@pytest.mark.parametrize("fuse_max_dim", FUSE_BOUNDS)
@settings(max_examples=40, deadline=None)
@given(spec=verifiers(), seed=st.integers(0, 2 ** 32 - 1))
def test_compiled_value_equals_run(fuse_max_dim, spec, seed):
    with mock.patch.object(adversary, "FUSE_MAX_DIM", fuse_max_dim):
        program, _, assignment, inst = _setup(spec, seed)
        phi = inst.shared.amplitudes[:, None]
        assert abs(program.value(phi, assignment) - run(inst).acceptance) <= TOL


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
        ref = _Reference(spec.layout)
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
    assert not any(s[0] == "matrix" for _, steps, _ in program.branches
                   for s in steps)
    phi = inst.shared.amplitudes[:, None]
    assert abs(program.value(phi, assignment) - run(inst).acceptance) <= TOL
    ref = _Reference(spec.layout)
    init = np.zeros((ref.dim, 1), dtype=np.complex128)
    init[:len(phi)] = phi
    for key in assignment:
        got = program.environment(phi, assignment, key)
        want = ref.environment(branches, init, assignment, key)
        assert np.abs(got - want).max() <= TOL
