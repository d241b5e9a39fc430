"""Protocol model: validation, execution, coins, purification."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qmip import files, fixtures, model
from qmip.circuits import Circuit, Gate, cnot, h, x
from qmip.config import (BudgetError, NumericalCheckError, RunConfig,
                         ValidationError)
from qmip.linalg import ProjectorOp, StateVector
from qmip.model import (AcceptNowStep, AcceptRule, ApplyStep, CoinStep,
                        FinalDecision, ProtocolInstance, ProverStrategy,
                        Register, RegisterLayout, VerifierSpec, VerifierTurn,
                        is_public_coin, make_layout, purify_coins, run,
                        turn_owner, validate)
from qmip.transforms import (direct_two_turn, halve_turns, run_pipeline,
                             to_public_coin_3turn)


def test_validate_well_formed_fixture():
    assert validate(fixtures.guess()) == []


def test_validate_prover_locality():
    inst = fixtures.chsh()
    bad = list(inst.provers)
    # prover 2 reaching into M1
    bad[1] = ProverStrategy(2, (Circuit((x(("M1", 0)),)),))
    problems = validate(inst.with_provers(bad))
    assert any("prover 2 acts outside (P2, M2)" in p for p in problems)


# --- validity memoised on the instance ----------------------------------------


def test_validate_returns_a_new_list_each_call():
    good, bad = fixtures.chsh(), fixtures.chsh().with_provers(())
    for inst in (good, bad):
        first = validate(inst)
        first.append("changed by the caller")
        assert validate(inst) == first[:-1]
        assert validate(inst) is not validate(inst)
    assert validate(good) == [] and validate(bad) != []


@pytest.mark.parametrize("broken", ["provers", "shared", "meta", "verifier"])
def test_replaced_instance_is_checked_afresh(broken):
    inst = fixtures.chsh()
    assert validate(inst) == []
    field_value = {
        "provers": inst.provers[:1],
        "shared": StateVector(np.array([1, 0, 0, 0, 0, 0, 0, 0]),
                              (("P1", 1), ("P2", 2))),
        "meta": replace(inst.meta, claimed_soundness=1.5),
        "verifier": replace(inst.verifier, m=3)}[broken]
    bad = replace(inst, **{broken: field_value})
    assert validate(bad) != []
    with pytest.raises(ValidationError):
        run(bad)
    assert validate(inst) == []


def test_list_fields_are_frozen_at_construction():
    # a list handed in and changed afterwards cannot change what was checked
    inst = fixtures.chsh()
    provers = list(inst.provers)
    notes = ["a note"]
    made = ProtocolInstance(inst.verifier, provers, inst.shared,
                            replace(inst.meta, notes=notes))
    assert validate(made) == []
    provers.pop()
    notes.append("another")
    assert made.provers == inst.provers and made.meta.notes == ("a note",)
    assert validate(made) == []
    turn = VerifierTurn([ApplyStep(Circuit(), when=["c", "0"])])
    assert isinstance(turn.steps, tuple) and turn.steps[0].when == ("c", "0")


def test_load_then_run_validates_once(monkeypatch):
    calls = []
    body = model._problems_of

    def counted(instance):
        calls.append(instance)
        return body(instance)

    monkeypatch.setattr(model, "_problems_of", counted)
    inst = files.load(fixtures.fixtures_dir() / "chsh.json")
    run(inst)
    run(inst, snapshot_turns=(1,))
    assert calls == [inst]


def test_layout_facts_are_computed_once():
    layout = make_layout([("V", 2), ("W", 1)], 1, 2, [1, 3])
    by_role = {role: tuple(r for r in layout.registers if r.role == role)
               for role in ("verifier", "message", "prover")}
    assert layout.verifier_side == by_role["verifier"]
    assert layout.messages == by_role["message"]
    assert layout.provers == by_role["prover"]
    assert layout.provers is layout.provers
    assert (layout.k, layout.total_qubits) == (2, 9)
    assert layout.shared_layout == (("P1", 1), ("P2", 3))
    assert layout.register("P2") is by_role["prover"][1]
    with pytest.raises(ValidationError, match="unknown register 'P3'"):
        layout.register("P3")


def test_validate_unequal_message_sizes():
    with pytest.raises(ValidationError, match="unequal|message"):
        lay = RegisterLayout((
            Register("V", 1, "verifier"),
            Register("M1", 1, "message"), Register("M2", 2, "message"),
            Register("P1", 1, "prover"), Register("P2", 1, "prover")))
        inst = fixtures.chsh()
        spec = replace(inst.verifier, layout=lay)
        problems = validate(ProtocolInstance(spec, inst.provers, inst.shared))
        if problems:
            raise ValidationError("; ".join(problems))


def test_turn_owner_parity():
    # even turn count: verifier first; odd: provers first; last always provers
    for m in range(1, 13):
        assert turn_owner(m, m) == "P"
        if m >= 2:
            assert turn_owner(m, 1) == ("V" if m % 2 == 0 else "P")
        owners = [turn_owner(m, t) for t in range(1, m + 1)]
        for a, b in zip(owners, owners[1:]):
            assert a != b


def test_prover_turn_counts():
    for name in ("guess", "five_turn_yes", "nine_turn_yes", "three_turn"):
        inst = fixtures.BUILDERS[name]()
        m = inst.m
        expected = (m + 1) // 2 if m % 2 else m // 2
        for p in inst.provers:
            assert len(p.circuits) == expected


def test_run_examples():
    assert run(fixtures.always()).acceptance == 1.0
    assert run(fixtures.never()).acceptance == 0.0
    assert abs(run(fixtures.guess()).acceptance - 0.5) < 1e-12


def test_run_determinism_bitwise():
    inst = fixtures.chsh()
    a = run(inst).acceptance
    b = run(inst).acceptance
    assert a == b


def test_snapshot_norms_are_one():
    tr = run(fixtures.five_turn_yes(), snapshot_turns=range(1, 6))
    assert len(tr.snapshots) == 5
    for snap in tr.snapshots:
        assert abs(snap.state().norm() - 1.0) <= 1e-10


def test_branch_mass_conservation():
    # coin branches partition probability: acceptance <= 1 and each branch's
    # banked masses never exceed 1
    inst = halve_turns(fixtures.five_turn_yes()).instance
    tr = run(inst)
    assert len(tr.branches) == 2
    for rec in tr.branches:
        assert rec.weight == 0.5
        assert -1e-12 <= rec.branch_acceptance <= 1 + 1e-12


def test_coin_budget():
    inst = halve_turns(fixtures.five_turn_yes()).instance
    with pytest.raises(BudgetError):
        run(inst, config=RunConfig(max_branches=1))


def test_coin_budget_checked_before_any_branch_is_built(monkeypatch):
    inst = halve_turns(fixtures.five_turn_yes()).instance   # 2 branches
    built = []
    real = model.FlatBranch

    def counting_branch(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "FlatBranch", counting_branch)
    with pytest.raises(BudgetError, match=r"exceeds the configured budget \(1\)"):
        model.flatten(inst.verifier, inst.provers,
                      config=RunConfig(max_branches=1))
    assert built == []
    assert len(model.flatten(inst.verifier, inst.provers,
                              config=RunConfig(max_branches=2))) == 2


def test_qubit_budget():
    with pytest.raises(BudgetError):
        run(fixtures.chsh(), config=RunConfig(max_qubits=3))


def test_run_never_allocates_the_full_state():
    # the 21-qubit one-round output of five_turn_yes holds 2^21 amplitudes
    # (32 MiB); its verifier and message qubits stay classical until a gate
    # needs them, so the run's buffers stay far smaller
    inst = run_pipeline(fixtures.five_turn_yes()).instance
    assert inst.verifier.layout.total_qubits == 21
    tracemalloc.start()
    try:
        acceptance = run(inst).acceptance
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(acceptance - 1.0) <= 1e-9
    assert peak < 8 * 2**20


def test_qubit_budget_counts_layout_qubits(monkeypatch):
    # 23 qubits, of which the verifier touches two: the run would need a
    # buffer of 2^3 amplitudes, but the budget counts the layout
    layout = make_layout([("V", 20)], 1, 1, [2])
    send = Circuit((h(("V", 0)), cnot(("V", 0), ("M1", 0))))
    spec = VerifierSpec(
        layout, 2, (VerifierTurn((ApplyStep(send),)),),
        FinalDecision((), (AcceptRule((ProjectorOp.output_one(("M1", 0)),)),)))
    copy = ProverStrategy(1, (Circuit((cnot(("M1", 0), ("P1", 0)),)),))
    shared = StateVector(np.array([1, 0, 0, 0], dtype=complex), (("P1", 2),))
    inst = ProtocolInstance(spec, (copy,), shared)
    assert layout.total_qubits == 23
    assert abs(run(inst, config=RunConfig(max_qubits=23)).acceptance - 0.5) <= 1e-12

    def no_flatten(*args, **kwargs):
        raise AssertionError("flattened before the budget check")

    monkeypatch.setattr(model, "flatten", no_flatten)
    with pytest.raises(BudgetError, match="23 qubits exceed"):
        run(inst)


def _hidden_coin_variant():
    """GUESS with the hidden coin implemented as an explicit coin turn that is
    broadcast to nobody (private classical randomness)."""
    lay = RegisterLayout((Register("V", 2, "verifier"),
                          Register("M1", 1, "message"),
                          Register("P1", 1, "prover")))
    spec = VerifierSpec(
        lay, 2,
        (VerifierTurn((CoinStep("h", 1, recipients=(), record=(("V", 0),)),)),),
        FinalDecision(
            (ApplyStep(Circuit((cnot(("M1", 0), ("V", 1)),
                                cnot(("V", 0), ("V", 1)), x(("V", 1))))),),
            (AcceptRule((ProjectorOp.output_one(("V", 1)),)),)),
        output_qubit=("V", 1))
    shared = StateVector(np.array([1, 0], dtype=complex), (("P1", 1),))
    return ProtocolInstance(spec, (ProverStrategy(1, (Circuit(()),)),), shared)


def test_private_coin_matches_hadamard_model():
    # branch-enumerated private coin vs the committed coherent-H fixture
    coin_version = _hidden_coin_variant()
    assert abs(run(coin_version).acceptance
               - run(fixtures.guess()).acceptance) < 1e-12


def test_purify_equals_branch_enumeration():
    cases = [
        halve_turns(fixtures.five_turn_yes()).instance,
        to_public_coin_3turn(fixtures.three_turn()).instance,
        direct_two_turn(fixtures.three_turn()).instance,
        _hidden_coin_variant(),
    ]
    for inst in cases:
        a = run(inst).acceptance
        b = run(purify_coins(inst)).acceptance
        assert abs(a - b) <= 1e-10


def test_purified_instance_is_coin_free_and_valid():
    inst = purify_coins(halve_turns(fixtures.five_turn_yes()).instance)
    assert validate(inst) == []
    from qmip.model import coin_steps
    assert coin_steps(inst.verifier) == []


def test_is_public_coin_classification():
    pc = to_public_coin_3turn(fixtures.three_turn()).instance
    assert is_public_coin(pc.verifier)
    assert not is_public_coin(fixtures.chsh().verifier)
    # halving output broadcasts but also applies circuits after the coin
    hv = halve_turns(fixtures.five_turn_yes()).instance
    assert not is_public_coin(hv.verifier)


def test_accept_rules_must_cover_branches():
    inst = halve_turns(fixtures.five_turn_yes()).instance
    spec = inst.verifier
    broken = replace(spec, final=FinalDecision(spec.final.steps,
                                               spec.final.accept[:1]))
    problems = validate(replace(inst, verifier=broken))
    assert any("cover" in p for p in problems)


def test_purify_rejects_conditioned_accept_events():
    from qmip.config import PreconditionError
    from qmip.transforms import (make_perfectly_rewindable,
                                 rewind_to_perfect_completeness)
    rw = make_perfectly_rewindable(fixtures.good()).instance
    rewound = rewind_to_perfect_completeness(rw).instance
    with pytest.raises(PreconditionError, match="accept events"):
        purify_coins(rewound)


def _coin_with_rules(rules):
    """A 1-flip coin sent to prover 1; V0 stays 0, so output_one(V0) never
    holds."""
    lay = RegisterLayout((Register("V", 1, "verifier"),
                          Register("M1", 1, "message"),
                          Register("P1", 1, "prover")))
    spec = VerifierSpec(lay, 2, (VerifierTurn((CoinStep("c", 1, (1,)),)),),
                        FinalDecision((), tuple(rules)))
    shared = StateVector(np.array([1, 0], dtype=complex), (("P1", 1),))
    return ProtocolInstance(spec, (ProverStrategy(1, (Circuit(()),)),), shared)


def test_purify_rejects_conditioned_accept_events_in_the_final_block():
    from qmip.config import PreconditionError
    inst = _coin_with_rules([AcceptRule((ProjectorOp.all_zero(()),))])
    spec = inst.verifier
    event = AcceptNowStep((ProjectorOp.output_one(("M1", 0)),), when=("c", "1"))
    inst = replace(inst, verifier=replace(
        spec, final=replace(spec.final, steps=(event,))))
    assert validate(inst) == []
    with pytest.raises(PreconditionError, match="accept events"):
        purify_coins(inst)


@pytest.mark.parametrize("where", ["event", "accept"])
def test_validate_rejects_projectors_on_prover_registers(where):
    # the verifier measures its own and the message registers only; run
    # would evaluate such a projector, but purify_coins would turn it into a
    # verifier gate on P1
    on_p1 = (ProjectorOp.output_one(("P1", 0)),)
    inst = _coin_with_rules([AcceptRule((ProjectorOp.all_zero(()),))])
    spec = inst.verifier
    final = (FinalDecision((AcceptNowStep(on_p1),), spec.final.accept)
             if where == "event" else FinalDecision((), (AcceptRule(on_p1),)))
    inst = replace(inst, verifier=replace(spec, final=final))
    assert any("reads prover register P1" in p for p in validate(inst))
    with pytest.raises(ValidationError, match="reads prover register P1"):
        run(inst)


@pytest.mark.parametrize("taken, fresh", [("XP", "XP2"), ("Q_c0", "Q_c02")])
def test_purify_coins_picks_free_register_names(taken, fresh):
    # a one-coin 1+1+1-qubit protocol whose verifier register already has
    # the name purify_coins would give its output or coin record register
    lay = RegisterLayout((Register(taken, 1, "verifier"),
                          Register("M1", 1, "message"),
                          Register("P1", 1, "prover")))
    v = (taken, 0)
    spec = VerifierSpec(
        lay, 2, (VerifierTurn((CoinStep("c0", 1, (1,)),)),),
        FinalDecision((ApplyStep(Circuit((cnot(("M1", 0), v),))),),
                      (AcceptRule((ProjectorOp.output_one(v),), when=("c0", "0")),
                       AcceptRule((ProjectorOp.complement(ProjectorOp.output_one(v)),),
                                  when=("c0", "1")))))
    tilt = Gate("U", np.array([[0.8, -0.6], [0.6, 0.8]]), (("M1", 0),))
    inst = ProtocolInstance(spec, (ProverStrategy(1, (Circuit((tilt,)),)),),
                            StateVector(np.array([1, 0], dtype=complex), (("P1", 1),)))
    assert validate(inst) == []
    purified = purify_coins(inst)
    assert validate(purified) == []
    assert {taken, fresh} <= {r.name for r in purified.verifier.layout.registers}
    assert abs(run(purified).acceptance - run(inst).acceptance) <= 1e-10


@pytest.mark.parametrize("field, value", [
    ("max_qubits", 0), ("max_branches", 0), ("probability_tol", -1e-9),
    ("probability_tol", float("nan")), ("probability_tol", float("inf"))])
def test_run_config_rejects_out_of_range_settings(field, value):
    with pytest.raises(ValidationError, match=field):
        RunConfig(**{field: value})


def test_overlapping_accept_rules_rejected():
    # first match gives 1/2 here, the XOR of purify_coins gives 1
    v0 = (ProjectorOp.output_one(("V", 0)),)
    always = (ProjectorOp.all_zero(()),)
    overlapping = _coin_with_rules([AcceptRule(v0, when=("c", "0")),
                                    AcceptRule(always)])
    assert any("overlap" in p for p in validate(overlapping))
    with pytest.raises(ValidationError, match="overlap"):
        run(overlapping)
    for rules in ([AcceptRule(always), AcceptRule(always)],
                  [AcceptRule(v0, when=("c", "0")),
                   AcceptRule(always, when=("c", "0"))]):
        assert any("overlap" in p for p in validate(_coin_with_rules(rules)))
    disjoint = _coin_with_rules([AcceptRule(v0, when=("c", "0")),
                                 AcceptRule(always, when=("c", "1"))])
    assert validate(disjoint) == []
    assert abs(run(disjoint).acceptance - 0.5) <= 1e-12
    assert abs(run(purify_coins(disjoint)).acceptance - 0.5) <= 1e-12


def _scaled_output(factor):
    """ALWAYS with a non-unitary final gate scaling every amplitude."""
    inst = fixtures.always()
    spec = inst.verifier
    scale = Gate("U", factor * np.eye(2), (("V", 0),))
    final = replace(spec.final, steps=spec.final.steps
                    + (ApplyStep(Circuit((scale,))),))
    return replace(inst, verifier=replace(spec, final=final))


def test_run_raises_instead_of_clamping():
    with pytest.raises(NumericalCheckError, match="acceptance"):
        run(_scaled_output(1.5))
    # within the 1e-9 probability tolerance the excess is clipped
    assert run(_scaled_output(np.sqrt(1 + 5e-10))).acceptance == 1.0
