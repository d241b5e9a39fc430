"""Transformation passes: turn arithmetic, honest identities, rewinding
algebra, and empirical soundness audits."""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from qmip import circuits, files, fixtures, transforms
from qmip.adversary import SeesawConfig, optimal_shared_state, seesaw
from qmip.circuits import circuit_matrix
from qmip.config import (BudgetError, NumericalCheckError, PreconditionError,
                         RunConfig)
from qmip.linalg import (ProjectorOp, StateVector, project, tensor_states,
                          zero_state)
from qmip.model import run, validate
from qmip.transforms import (direct_two_turn, halve_turns,
                             make_perfectly_rewindable, pad_turns,
                             parallel_repetition_fresh_provers,
                             parallelize_to_three, public_coin_to_one_round,
                             rewind_to_perfect_completeness, run_pipeline,
                             sequential_repetition, to_public_coin_3turn)


# --- structural invariant: everything a pass emits validates cleanly --------


def _all_outputs():
    yield make_perfectly_rewindable(fixtures.good()).instance
    rw = make_perfectly_rewindable(fixtures.ent()).instance
    yield rewind_to_perfect_completeness(rw).instance
    yield halve_turns(fixtures.five_turn_yes()).instance
    yield parallelize_to_three(fixtures.nine_turn_yes()).instance
    pc = to_public_coin_3turn(fixtures.three_turn()).instance
    yield pc
    yield public_coin_to_one_round(pc).instance
    yield direct_two_turn(fixtures.three_turn()).instance
    yield sequential_repetition(fixtures.good(), 2).instance
    yield parallel_repetition_fresh_provers(fixtures.guess(), 2).instance


def test_all_transform_outputs_validate():
    for inst in _all_outputs():
        assert validate(inst) == []


# --- each pass simulates its input once -----------------------------------------


_SNAPSHOT_PASS_INPUTS = {
    "halve": fixtures.five_turn_yes,
    "public-coin": fixtures.three_turn,
    "one-round": lambda: to_public_coin_3turn(fixtures.three_turn()).instance,
    "direct-one-round": fixtures.three_turn,
    "three-turn": fixtures.nine_turn_yes,
}


@pytest.mark.parametrize("name", sorted(_SNAPSHOT_PASS_INPUTS))
def test_each_pass_runs_its_input_once(monkeypatch, name):
    """One snapshot run of the input, whose acceptance is the honest input
    value, then one run of the output; three-turn reuses the runs of its two
    halvings."""
    inst = _SNAPSHOT_PASS_INPUTS[name]()
    calls = []
    real_run = transforms.run

    def counting_run(instance, snapshot_turns=(), **kwargs):
        tr = real_run(instance, snapshot_turns=snapshot_turns, **kwargs)
        calls.append((bool(snapshot_turns), tr.acceptance))
        return tr

    monkeypatch.setattr(transforms, "run", counting_run)
    report = transforms.PASSES[name](inst).report
    halvings = 2 if name == "three-turn" else 1
    assert [snap for snap, _ in calls] == [True, False] * halvings
    assert report.input_honest == calls[0][1]
    assert report.output_honest == calls[-1][1]


@pytest.mark.parametrize("name", sorted(_SNAPSHOT_PASS_INPUTS))
def test_snapshot_run_keeps_one_state_per_branch(monkeypatch, name):
    """A pass reads the state after one turn, so its snapshot run keeps one
    state per branch, not one per turn and branch."""
    inst = _SNAPSHOT_PASS_INPUTS[name]()
    transcripts = []
    real_run = transforms.run

    def recording_run(*args, **kwargs):
        transcripts.append(real_run(*args, **kwargs))
        return transcripts[-1]

    monkeypatch.setattr(transforms, "run", recording_run)
    transforms.PASSES[name](inst)
    snapshot_runs = [tr for tr in transcripts if tr.snapshots]
    assert snapshot_runs
    for tr in snapshot_runs:
        assert len(tr.snapshots) == len(tr.branches)
        assert len({s.turn for s in tr.snapshots}) == 1


def _planted_runs(monkeypatch):
    """Every honest run of a pass reads 1e-8 above its true acceptance."""
    real_run = transforms.run

    def run_plus(instance, **kwargs):
        tr = real_run(instance, **kwargs)
        return dataclasses.replace(tr, acceptance=tr.acceptance + 1e-8)

    monkeypatch.setattr(transforms, "run", run_plus)


def _planted_optimum(monkeypatch):
    """An honest optimum at 1/2 reads 1e-8 above it."""
    real = transforms.optimal_shared_state

    def optimum_plus(*args, **kwargs):
        p, phi = real(*args, **kwargs)
        return (p + 1e-8 if abs(p - 0.5) < 1e-6 else p), phi

    monkeypatch.setattr(transforms, "optimal_shared_state", optimum_plus)


def _rw_good():
    return files.load(fixtures.fixtures_dir() / "rw_good.json")


# (planted value, pass, error at the default tolerance)
_PLANTED = {
    "honest-identity": (_planted_runs, lambda cfg: rewind_to_perfect_completeness(
        _rw_good(), config=cfg), NumericalCheckError),
    "rewindable-optimum": (_planted_optimum, lambda cfg: make_perfectly_rewindable(
        fixtures.good(), config=cfg), NumericalCheckError),
    "rewind-premise": (_planted_optimum, lambda cfg: rewind_to_perfect_completeness(
        _rw_good(), config=cfg), PreconditionError),
}


@pytest.mark.parametrize("check", sorted(_PLANTED))
def test_pass_checks_read_the_probability_tolerance(monkeypatch, check):
    plant, run_pass, error = _PLANTED[check]
    plant(monkeypatch)
    with pytest.raises(error):
        run_pass(RunConfig())
    loose = RunConfig(probability_tol=1e-7)
    assert run_pass(loose).report.output_honest is not None


# --- turn / prover arithmetic ------------------------------------------------


def test_shape_arithmetic():
    rw = make_perfectly_rewindable(fixtures.good())
    assert rw.report.output_shape == (1, 2)  # k, m unchanged

    res = rewind_to_perfect_completeness(rw.instance)
    assert res.report.output_shape == (1, 6)  # 3m

    # odd input is padded to even before tripling
    rw5 = make_perfectly_rewindable(fixtures.five_turn_yes(), p_max=1.0,
                                    check=False)
    res5 = rewind_to_perfect_completeness(rw5.instance, check=False)
    assert res5.instance.m == 18

    assert halve_turns(fixtures.five_turn_yes()).report.output_shape == (1, 3)
    assert halve_turns(fixtures.nine_turn_yes()).report.output_shape == (1, 5)

    t9 = parallelize_to_three(fixtures.nine_turn_yes())
    assert t9.report.output_shape == (1, 3)
    assert t9.report.extras["halvings"] == 2  # 9 = 2^3 + 1

    pc = to_public_coin_3turn(fixtures.three_turn())
    assert pc.report.output_shape == (1, 3)

    orr = public_coin_to_one_round(pc.instance)
    assert orr.report.output_shape == (2, 2)  # k+1 provers, 2 turns

    dt = direct_two_turn(fixtures.three_turn())
    assert dt.report.output_shape == (2, 2)

    sr = sequential_repetition(fixtures.good(), 3)
    assert sr.report.output_shape == (1, 6)  # n*m for even m

    pr = parallel_repetition_fresh_provers(fixtures.chsh(), 2)
    assert pr.report.output_shape == (4, 2)  # n*k provers, m unchanged


def test_halve_rejects_wrong_turn_count():
    with pytest.raises(PreconditionError, match="4m\\+1"):
        halve_turns(fixtures.good())


def test_three_turn_needs_four_turns():
    with pytest.raises(PreconditionError, match="4 turns"):
        parallelize_to_three(fixtures.three_turn())


def test_one_round_requires_public_coin():
    with pytest.raises(PreconditionError, match="public-coin"):
        public_coin_to_one_round(fixtures.three_turn())


def test_pad_turns_preserves_value():
    inst = fixtures.good()
    padded = pad_turns(inst, 6)
    assert padded.m == 6
    assert validate(padded) == []
    assert abs(run(padded).acceptance - run(inst).acceptance) <= 1e-12


# --- rewindability -----------------------------------------------------------


def test_rewindable_optimum_is_half():
    for name in ("good", "always", "ent"):
        res = make_perfectly_rewindable(fixtures.BUILDERS[name]())
        p, _ = optimal_shared_state(res.instance.verifier, res.instance.provers)
        assert abs(p - 0.5) <= 1e-9


def test_rewindable_p_max_consistency_check():
    with pytest.raises(PreconditionError, match="inconsistent"):
        make_perfectly_rewindable(fixtures.good(), p_max=0.9)


def test_rewindable_rejects_low_optimum():
    with pytest.raises(PreconditionError, match="at least 1/2"):
        make_perfectly_rewindable(fixtures.sound_no(), p_max=0.01, check=False)


def test_rewindable_cheating_bounded_by_input_soundness():
    # dishonest provers cannot beat the original game's optimum (0.75 here)
    res = make_perfectly_rewindable(fixtures.good())
    sw = seesaw(res.instance.verifier,
                SeesawConfig(prover_dims=(1,), restarts=8, seed=2))
    assert sw.value <= 0.75 + 1e-3


# --- rewinding ---------------------------------------------------------------


def test_rewind_perfect_completeness_all_fixtures():
    for name in ("good", "always", "ent"):
        rw = make_perfectly_rewindable(fixtures.BUILDERS[name]()).instance
        res = rewind_to_perfect_completeness(rw)
        assert abs(res.report.output_honest - 1.0) <= 1e-9
        assert abs(res.report.extras["p3"] - 1.0) <= 1e-9


def test_rewind_report_branch_probabilities_match_records():
    # p1, p2 come from the rewinding branch (coin b = 0), p3 from the
    # invertibility branch (b = 1)
    for name in ("rw_good", "rw_always", "rw_ent"):
        res = rewind_to_perfect_completeness(
            files.load(fixtures.fixtures_dir() / f"{name}.json"))
        recs = {dict(rec.coins)["b"]: rec for rec in run(res.instance).branches}
        assert set(recs) == {"0", "1"}
        extras = res.report.extras
        assert extras["p1"] == recs["0"].event_probs[0]
        assert extras["p2"] == recs["0"].final_prob
        assert extras["p3"] == recs["1"].event_probs[0]


def test_rewind_requires_perfect_rewindability():
    with pytest.raises(PreconditionError, match="exactly 1/2"):
        rewind_to_perfect_completeness(fixtures.good())


def _projector_matrix(p, layout):
    base = zero_state(layout)
    dim = base.dim
    cols = []
    for i in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[i] = 1.0
        cols.append(project(base.with_amplitudes(amps, normalized=False), p))
    return np.array(cols).T


def test_rewinding_algebra_identities():
    """The backward-phase identities behind the phase-flip trick, checked as
    explicit matrix algebra on a flagged fixture."""
    rw = make_perfectly_rewindable(fixtures.ent()).instance
    spec = rw.verifier
    layout = spec.layout.as_state_layout()

    # full protocol unitary before the measurement: final o P o V1
    v1 = spec.turns[0].steps[0].circuit + spec.turns[0].steps[1].circuit
    prover = rw.provers[0].circuits[0]
    v_final = spec.final.steps[0].circuit + spec.final.steps[1].circuit
    q_mat = (circuit_matrix(v_final, layout)
             @ circuit_matrix(prover, layout)
             @ circuit_matrix(v1, layout))

    vm_qubits = spec.layout.verifier_message_qubits()
    pi_init = _projector_matrix(ProjectorOp.all_zero(vm_qubits), layout)
    pi_acc = _projector_matrix(
        spec.final.accept[0].projectors[0], layout)
    pi_rej = np.eye(pi_acc.shape[0]) - pi_acc
    z_flip = np.eye(pi_init.shape[0]) - 2 * pi_init

    vm = tuple((r.name, r.qubits)
               for r in spec.layout.verifier_side + spec.layout.messages)
    psi_star = tensor_states(zero_state(vm), rw.shared).amplitudes

    m_mat = pi_init @ q_mat.conj().T @ pi_acc @ q_mat @ pi_init
    # eigen-identity: the committed shared state attains exactly one half
    assert np.abs(m_mat @ psi_star - 0.5 * psi_star).max() <= 1e-9

    phi0 = pi_acc @ q_mat @ psi_star
    phi1 = pi_rej @ q_mat @ psi_star
    psi0 = pi_init @ q_mat.conj().T @ phi0
    psi1 = (np.eye(pi_init.shape[0]) - pi_init) @ q_mat.conj().T @ phi0
    # Q^dag phi1 = psi0 - psi1, and the phase flip sends it to -(psi0 + psi1)
    assert np.abs(q_mat.conj().T @ phi1 - (psi0 - psi1)).max() <= 1e-9
    assert np.abs(z_flip @ (psi0 - psi1) + (psi0 + psi1)).max() <= 1e-9


def test_rewind_soundness_bound_consistency():
    # build the no-instance chain and audit against 1/2 + 2 sqrt(s) + 5s/2
    s_true = 0.01
    rwd = make_perfectly_rewindable(fixtures.sound_no(), p_max=1.0, check=False)
    res = rewind_to_perfect_completeness(rwd.instance, check=False)
    sw = seesaw(res.instance.verifier,
                SeesawConfig(prover_dims=(2,), restarts=12, seed=7,
                             convergence_tol=1e-7))
    bound = 0.5 + 2 * math.sqrt(s_true) + 2.5 * s_true
    assert sw.value <= bound + 1e-2
    # the invertibility-test route alone already yields one half
    assert sw.value >= 0.5 - 1e-6


# --- halving and the three-turn cascade ---------------------------------------


def test_halve_honest_identity():
    for name in ("five_turn_yes", "nine_turn_yes"):
        inst = fixtures.BUILDERS[name]()
        c = run(inst).acceptance
        res = halve_turns(inst)
        assert abs(res.report.output_honest - (1 + c) / 2) <= 1e-9


def test_halve_no_instance_audit():
    res = halve_turns(fixtures.five_turn_no(), check=False)
    sw = seesaw(res.instance.verifier,
                SeesawConfig(prover_dims=(2,), restarts=10, seed=11,
                             convergence_tol=1e-7))
    assert sw.value <= (1 + math.sqrt(0.04)) / 2 + 1e-2


def test_three_turn_cascade_perfect_completeness():
    res = parallelize_to_three(fixtures.nine_turn_yes())
    assert res.instance.m == 3
    assert abs(res.report.output_honest - 1.0) <= 1e-9


# --- public coin and one-round -------------------------------------------------


def test_public_coin_honest_identity_and_width():
    inst = fixtures.three_turn()
    c = run(inst).acceptance
    res = to_public_coin_3turn(inst)
    assert abs(res.report.output_honest - (1 + c) / 2) <= 1e-9
    coins = [s for t in res.instance.verifier.turns for s in t.steps
             if hasattr(s, "flips")]
    assert len(coins) == 1 and coins[0].flips == 1


def test_one_round_preserves_value():
    pc = to_public_coin_3turn(fixtures.three_turn()).instance
    v = run(pc).acceptance
    res = public_coin_to_one_round(pc)
    assert abs(res.report.output_honest - v) <= 1e-9


def _one_round_with_dirty_workspace(monkeypatch, live: bool):
    """`public_coin_to_one_round` of the public-coin three_turn, with its
    snapshot's first verifier qubit made live (amplitudes 0.6, 0.8 over
    the snapshot) or classical at 1. A valid input never leaves that
    qubit dirty after the provers' turn, so the run's result is edited."""
    pc = to_public_coin_3turn(fixtures.three_turn()).instance
    real_run = transforms.run

    def dirty(snap):
        if not live:
            return dataclasses.replace(snap, index=(1,) + snap.index[1:])
        return dataclasses.replace(
            snap, live=np.kron([0.6, 0.8], snap.live),
            index=(slice(None),) + snap.index[1:],
            perm=(0,) + tuple(b + 1 for b in snap.perm))

    def dirty_run(instance, snapshot_turns=(), **kwargs):
        tr = real_run(instance, snapshot_turns=snapshot_turns, **kwargs)
        assert all(s.index[0] == 0 for s in tr.snapshots)
        return dataclasses.replace(
            tr, snapshots=tuple(map(dirty, tr.snapshots)))

    monkeypatch.setattr(transforms, "run", dirty_run)
    return public_coin_to_one_round(pc)


@pytest.mark.parametrize("live", [True, False], ids=["live", "classical-1"])
def test_one_round_rejects_a_dirty_verifier_workspace(monkeypatch, live):
    with pytest.raises(NumericalCheckError,
                       match="verifier workspace not clean"):
        _one_round_with_dirty_workspace(monkeypatch, live)


def test_direct_equals_detour():
    for inst in (fixtures.three_turn(),
                 parallelize_to_three(fixtures.five_turn_yes()).instance):
        direct = direct_two_turn(inst).report.output_honest
        detour = public_coin_to_one_round(
            to_public_coin_3turn(inst).instance).report.output_honest
        assert abs(direct - detour) <= 1e-9


# --- repetitions ----------------------------------------------------------------


def test_sequential_repetition_values():
    sr = sequential_repetition(fixtures.good(), 3)
    assert abs(sr.report.output_honest - 0.75 ** 3) <= 1e-9
    inst = fixtures.good()
    for repeat in (sequential_repetition, parallel_repetition_fresh_provers):
        res = repeat(inst, 1)
        assert res.instance is inst and res.instance.m == 2  # unchanged
        assert res.report.notes == ("n = 1: instance unchanged",)


def test_sequential_repetition_perfect_completeness():
    sr = sequential_repetition(fixtures.sound_yes(), 3)
    assert abs(sr.report.output_honest - 1.0) <= 1e-9


def test_sequential_repetition_soundness_multiplicativity_audit():
    base = seesaw(fixtures.sound_no().verifier,
                  SeesawConfig(prover_dims=(1,), restarts=5, seed=1))
    sr = sequential_repetition(fixtures.sound_no(), 2, check=False)
    rep = seesaw(sr.instance.verifier,
                 SeesawConfig(prover_dims=(1,), restarts=5, seed=1))
    assert rep.value <= base.value ** 2 + 1e-2


def test_parallel_repetition_values():
    pr = parallel_repetition_fresh_provers(fixtures.guess(), 2)
    assert abs(pr.report.output_honest - 0.25) <= 1e-9
    pr_chsh = parallel_repetition_fresh_provers(fixtures.chsh(), 2)
    expect = ((1 + 1 / math.sqrt(2)) / 2) ** 2
    assert abs(pr_chsh.report.output_honest - expect) <= 1e-9


@pytest.mark.parametrize("repeat", [sequential_repetition,
                                    parallel_repetition_fresh_provers])
def test_repetition_refuses_the_budget_before_the_tensor_power(monkeypatch,
                                                               repeat):
    # nine copies of chsh exceed the 22-qubit budget, which the honest run
    # of the output would refuse: the pass fails with the same error before
    # it builds the 2^18-amplitude power of the shared state
    real = transforms.tensor_states
    calls = []
    monkeypatch.setattr(transforms, "tensor_states",
                        lambda a, b: calls.append(a.layout) or real(a, b))
    with pytest.raises(BudgetError, match="exceed the configured budget"):
        repeat(fixtures.chsh(), 9)
    assert calls == []


@pytest.mark.parametrize("repeat", [sequential_repetition,
                                    parallel_repetition_fresh_provers])
def test_repetition_refuses_a_live_width_over_budget_without_checks(
        monkeypatch, repeat):
    # without the honest run nothing refuses the layout, but twelve copies
    # of chsh's 2-qubit shared state would be a 24-qubit power: the pass
    # refuses it before building it; nine copies (18 live qubits) pass
    real = transforms.tensor_states
    calls = []
    monkeypatch.setattr(transforms, "tensor_states",
                        lambda a, b: calls.append(a.layout) or real(a, b))
    with pytest.raises(BudgetError, match="24 live qubits, which exceed the "
                                          r"configured budget \(22\)"):
        repeat(fixtures.chsh(), 12, check=False)
    assert calls == []
    out = repeat(fixtures.chsh(), 9, check=False).instance
    assert out.shared.n_qubits == 18 and len(calls) == 8


@pytest.mark.parametrize("repeat", [sequential_repetition,
                                    parallel_repetition_fresh_provers])
def test_repetition_keeps_known_bits(repeat):
    # the tensor power of a shared state with known bits multiplies the
    # live amplitudes and keeps every copy's known bits: the same state as
    # the power of its dense form, with the same honest value
    inst = halve_turns(fixtures.five_turn_yes()).instance
    shared = inst.shared
    assert len(shared.known) == 1
    dense = inst.with_shared(StateVector(shared.dense(), shared.layout))
    got, want = repeat(inst, 2), repeat(dense, 2)
    assert len(got.instance.shared.known) == 2
    assert want.instance.shared.known == ()
    assert np.array_equal(got.instance.shared.dense(),
                          want.instance.shared.amplitudes)
    assert got.report.output_honest == pytest.approx(
        want.report.output_honest, abs=1e-12)


def test_parallel_repetition_group_local_audit():
    pr = parallel_repetition_fresh_provers(fixtures.chsh(), 2).instance
    res = seesaw(pr.verifier,
                 SeesawConfig(prover_dims=(1, 1, 1, 1), restarts=5, seed=2,
                              convergence_tol=1e-8,
                              product_groups=((1, 2), (3, 4))))
    expect = ((1 + 1 / math.sqrt(2)) / 2) ** 2
    assert res.value <= expect + 2e-2
    # cross-group entanglement allowed: recorded, not bounded
    free = seesaw(pr.verifier,
                  SeesawConfig(prover_dims=(1, 1, 1, 1), restarts=3, seed=2,
                               convergence_tol=1e-8))
    assert 0.0 <= free.value <= 1.0


# --- pipeline --------------------------------------------------------------------


def test_pipeline_yes_instance():
    res = run_pipeline(fixtures.five_turn_yes())
    assert (res.instance.k, res.instance.m) == (2, 2)
    assert abs(res.stages[-1].report.output_honest - 1.0) <= 1e-9
    assert res.inverse_gap is not None


def test_nine_turn_pipeline_runs_at_its_live_width():
    # the one-round output has 39 layout qubits and a 23-qubit shared state,
    # 16 of whose qubits hold known bits: run and the passes never write
    # more than the live amplitudes (a dense shared state alone would be
    # 128 MiB)
    tracemalloc.start()
    try:
        res = run_pipeline(fixtures.nine_turn_yes(),
                           config=RunConfig(max_qubits=40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.instance.k, res.instance.m) == (2, 2)
    for stage in res.stages:
        assert abs(stage.report.output_honest - 1.0) <= 1e-9
    shared = res.instance.shared
    assert (res.stages[-1].report.qubits_after, shared.n_qubits,
            len(shared.known)) == (39, 23, 16)
    assert peak < 8 * 2**20


def test_pipeline_classifies_no_matrix_after_its_first_op():
    # every matrix a pipeline op wraps is the input's, a constant, or the
    # dagger of a self-adjoint one, which keeps its object: a second op
    # reads every gate's permutation from the table the first one filled
    inputs = [files.load(fixtures.fixtures_dir() / f"{n}.json")
              for n in ("five_turn_yes", "sound_yes")]
    for inst in inputs:
        run_pipeline(inst)
    with mock.patch.object(circuits, "permutation_sources",
                           wraps=circuits.permutation_sources) as spy:
        for inst in inputs:
            run_pipeline(inst)
    assert spy.call_count == 0


def test_pipeline_aborts_on_zero_gap():
    with pytest.raises(PreconditionError, match="stage rewindable"):
        run_pipeline(fixtures.good())  # claims c = s = 0.75


def test_pipeline_keeps_the_stage_error_class(monkeypatch):
    def failing(*args, **kwargs):
        raise NumericalCheckError("re-simulation mismatch")

    monkeypatch.setattr(transforms, "to_public_coin_3turn", failing)
    with pytest.raises(NumericalCheckError) as info:
        run_pipeline(fixtures.five_turn_yes())
    assert str(info.value) == "stage public-coin: re-simulation mismatch"
