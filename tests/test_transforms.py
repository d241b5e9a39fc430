"""Transformation passes: turn arithmetic, honest identities, rewinding
algebra, and empirical soundness audits."""

import math

import numpy as np
import pytest

from qmip import files, fixtures, transforms
from qmip.adversary import SeesawConfig, optimal_shared_state, seesaw
from qmip.circuits import circuit_matrix
from qmip.config import NumericalCheckError, PreconditionError
from qmip.linalg import ProjectorOp, project, zero_state, tensor_states
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
    sr1 = sequential_repetition(fixtures.good(), 1)
    assert sr1.instance.m == 2  # unchanged


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
