"""Protocol transformations as compiler passes.

Each pass consumes a ProtocolInstance (verifier + honest provers + shared
state) and emits a new one together with a TransformReport. Claimed
completeness/soundness formulas are attached as metadata and evaluated from
the input's claims; they are never assumed true - tests measure honest values
and estimate adversarial values independently.

Passes that need a unitary verifier (rewinding, halving, public-coin, direct
two-turn, repetitions) purify coin turns first; this is the exact coherent
simulation of the coin and preserves acceptance probabilities.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .adversary import optimal_shared_state
from .circuits import (Circuit, amplitude_rotation, mcx, swap_slices, toffoli,
                       unitary_gate, zero_phase_flip)
from .config import (DEFAULT_RUN_CONFIG, NumericalCheckError,
                     PreconditionError, RunConfig, ValidationError)
from .linalg import ProjectorOp, Qubit, StateVector, reorder_registers
from .model import (AcceptNowStep, AcceptRule, ApplyStep, CoinStep,
                    FinalDecision, InstanceMeta, ProtocolInstance,
                    ProverStrategy, Register, RegisterLayout, VerifierSpec,
                    VerifierTurn, coin_steps, is_public_coin, purify_coins,
                    run, validate)

DIM_CAP_NOTE = ("adversarial values are lower bounds at fixed prover "
                "dimension; no strategy found exceeding a bound does not "
                "certify the bound")


@dataclass(frozen=True)
class TransformReport:
    name: str
    input_shape: tuple[int, int]            # (k, m)
    output_shape: tuple[int, int]
    input_honest: float | None
    output_honest: float | None
    claimed: dict
    qubits_before: int
    qubits_after: int
    warnings: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "transform": self.name,
            "input": {"k": self.input_shape[0], "m": self.input_shape[1],
                      "honest_value": self.input_honest,
                      "qubits": self.qubits_before},
            "output": {"k": self.output_shape[0], "m": self.output_shape[1],
                       "honest_value": self.output_honest,
                       "qubits": self.qubits_after},
            "claimed": self.claimed,
            "warnings": list(self.warnings),
            "notes": list(self.notes),
            "extras": self.extras,
        }


@dataclass(frozen=True)
class TransformResult:
    instance: ProtocolInstance
    report: TransformReport


# ---------------------------------------------------------------------------
# shared helpers


def _ensure_unitary(instance: ProtocolInstance, notes: list[str]
                    ) -> ProtocolInstance:
    if coin_steps(instance.verifier):
        notes.append("coin turns purified into coherent form")
        return purify_coins(instance)
    return instance


def _standard_components(instance: ProtocolInstance
                         ) -> tuple[list[Circuit], Circuit, tuple[ProjectorOp, ...]]:
    """Turn circuits, final circuit, and the single default accept rule of a
    coin-free instance."""
    spec = instance.verifier
    circuits = []
    for j, turn in enumerate(spec.turns):
        merged = Circuit((), label=f"V^{j+1}")
        for step in turn.steps:
            if not isinstance(step, ApplyStep) or step.when is not None:
                raise PreconditionError(
                    "pass needs a unitary verifier (plain circuit turns)")
            merged = merged + step.circuit
        circuits.append(replace(merged, label=f"V^{j+1}"))
    final = Circuit((), label="V^final")
    for step in spec.final.steps:
        if not isinstance(step, ApplyStep) or step.when is not None:
            raise PreconditionError(
                "pass needs a unitary verifier (plain final circuit)")
        final = final + step.circuit
    if len(spec.final.accept) != 1 or spec.final.accept[0].when is not None:
        raise PreconditionError("pass needs a single unconditional accept rule")
    return circuits, final, spec.final.accept[0].projectors


def _remap_projector(p: ProjectorOp, fn: Callable[[Qubit], Qubit]) -> ProjectorOp:
    if p.kind == "complement":
        return ProjectorOp.complement(_remap_projector(p.inner, fn))
    return ProjectorOp(p.kind, tuple(fn(q) for q in p.qubits))


def _regroup_state(state: StateVector,
                   groups: Sequence[tuple[str, Sequence[str]]]) -> StateVector:
    """Reorder registers into group order and fuse each group under one name."""
    order = [name for _, members in groups for name in members]
    st = reorder_registers(state, order)
    sizes = dict(st.layout)
    layout = tuple((gname, sum(sizes[m] for m in members))
                   for gname, members in groups)
    return StateVector(st.amplitudes, layout, st.normalized)


def _honest_snapshot(instance: ProtocolInstance, turn: int,
                     config: RunConfig) -> StateVector:
    tr = run(instance, keep_snapshots=True, config=config)
    snaps = tr.snapshots_after_turn(turn)
    if not snaps:
        raise PreconditionError(f"no snapshot recorded after turn {turn}")
    first = snaps[0][1].amplitudes
    for _, other in snaps[1:]:
        # branches that fork after this turn carry identical prefixes
        if np.abs(other.amplitudes - first).max() > 1e-12:
            raise PreconditionError(
                f"snapshot after turn {turn} is branch-dependent; purify coins first")
    st = snaps[0][1]
    if abs(st.norm() - 1.0) > 1e-9:
        raise NumericalCheckError("snapshot state is not normalized")
    return StateVector(st.amplitudes, st.layout, normalized=True)


def _measure_honest(instance: ProtocolInstance, config: RunConfig) -> float:
    return run(instance, config=config).acceptance


def _identity_circuits(count: int) -> tuple[Circuit, ...]:
    return tuple(Circuit((), label="identity") for _ in range(count))


def pad_turns(instance: ProtocolInstance, target_m: int) -> ProtocolInstance:
    """Prepend identity dummy turns until the protocol has target_m turns.

    Owner parity stays consistent for any padding length, so the original
    turns keep their circuits and only the fronts of the turn lists grow.
    """
    spec = instance.verifier
    d = target_m - spec.m
    if d < 0:
        raise PreconditionError("cannot pad to fewer turns")
    if d == 0:
        return instance
    new_v = sum(1 for t in range(1, d + 1)
                if (t % 2) != (target_m % 2))
    new_p = d - new_v
    turns = tuple(VerifierTurn((ApplyStep(Circuit((), label="padding")),))
                  for _ in range(new_v)) + spec.turns
    provers = tuple(
        ProverStrategy(p.index, _identity_circuits(new_p) + p.circuits)
        for p in instance.provers)
    new_spec = replace(spec, m=target_m, turns=turns)
    return ProtocolInstance(new_spec, provers, instance.shared, instance.meta)


def _claims(instance: ProtocolInstance) -> tuple[float | None, float | None]:
    return (instance.meta.claimed_completeness, instance.meta.claimed_soundness)


def _meta_with(instance: ProtocolInstance, suffix: str,
               c: float | None, s: float | None) -> InstanceMeta:
    m = instance.meta
    name = f"{m.name}+{suffix}" if m.name else suffix
    return replace(m, name=name, claimed_completeness=c, claimed_soundness=s)


def _check_valid(instance: ProtocolInstance, name: str) -> None:
    problems = validate(instance)
    if problems:
        raise NumericalCheckError(f"{name} produced an invalid instance: "
                                  + "; ".join(problems))


def _fresh(name: str, taken: set[str]) -> str:
    out = name
    i = 2
    while out in taken:
        out = f"{name}{i}"
        i += 1
    taken.add(out)
    return out


# ---------------------------------------------------------------------------
# making the honest optimum exactly one half


def make_perfectly_rewindable(instance: ProtocolInstance,
                              p_max: float | None = None,
                              check: bool = True,
                              config: RunConfig = DEFAULT_RUN_CONFIG
                              ) -> TransformResult:
    """Route a fresh flag qubit through prover 1 and fold it into acceptance,
    with the honest prover rotating the flag so the best achievable value
    becomes exactly one half (attained at the eigen-optimal shared state)."""
    notes: list[str] = []
    inst = _ensure_unitary(instance, notes)
    spec = inst.verifier
    if spec.m < 2:
        raise PreconditionError("needs at least one verifier message turn (m >= 2)")
    _standard_components(inst)  # shape check only
    layout = spec.layout
    _, s_in = _claims(inst)

    honest_in = _measure_honest(inst, config) if check else None
    computed_p, phi_star = optimal_shared_state(spec, inst.provers,
                                                config=config, check=check)
    if p_max is None:
        if check:
            p_max = computed_p
        else:
            raise PreconditionError(
                "p_max must be supplied when honest verification is disabled")
    elif check and abs(p_max - computed_p) > 1e-6:
        raise PreconditionError(
            f"supplied p_max {p_max:.9f} inconsistent with the measured honest "
            f"optimum {computed_p:.9f} (beyond 1e-6)")
    if p_max < 0.5 - 1e-12:
        raise PreconditionError(
            f"requires honest optimum at least 1/2, got p_max = {p_max:.9f}")

    warnings = []
    if s_in is not None and s_in >= 0.5:
        warnings.append("claimed soundness >= 1/2; the rewindability statement "
                        "assumes soundness below 1/2")

    taken = {r.name for r in layout.registers}
    b_name = _fresh("B", taken)
    x_name = _fresh("XW", taken)
    q = layout.message_qubits
    v_regs = layout.verifier_side + (Register(b_name, 1, "verifier"),
                                     Register(x_name, 1, "verifier"))
    messages = tuple(Register(r.name, q + 1, "message") for r in layout.messages)
    new_layout = RegisterLayout(v_regs + messages + layout.provers)

    m1 = layout.messages[0].name
    b_slot: Qubit = (m1, q)
    turns = list(spec.turns)
    last = turns[-1]
    turns[-1] = VerifierTurn(last.steps + (
        ApplyStep(Circuit(tuple(swap_slices([(b_name, 0)], [b_slot])),
                          label="route flag to prover 1")),))

    _, _, accept = _standard_components(inst)
    if len(accept) != 1 or accept[0].kind != "output_one":
        raise PreconditionError(
            "needs a standard-form input (acceptance reads one output qubit)")
    old_out = accept[0].qubits[0]
    new_final = FinalDecision(
        spec.final.steps + (
            ApplyStep(Circuit((toffoli(b_slot, old_out, (x_name, 0)),),
                              label="flag AND original output")),),
        (AcceptRule((ProjectorOp.output_one((x_name, 0)),)),))

    new_spec = VerifierSpec(new_layout, spec.m, tuple(turns), new_final,
                            output_qubit=(x_name, 0))

    t_gate = unitary_gate(
        amplitude_rotation(min(1.0, 1.0 / (2.0 * p_max))), (b_slot,), name="U")
    provers = []
    for p in inst.provers:
        circuits = list(p.circuits)
        if p.index == 1:
            circuits[-1] = circuits[-1] + Circuit((t_gate,), label="flag rotation")
        provers.append(ProverStrategy(p.index, tuple(circuits)))

    out = ProtocolInstance(new_spec, tuple(provers), phi_star,
                           _meta_with(inst, "rewindable", 0.5, s_in))
    _check_valid(out, "make_perfectly_rewindable")

    honest_out = None
    if check:
        p_out, _ = optimal_shared_state(new_spec, out.provers, config=config)
        if abs(p_out - 0.5) > 1e-9:
            raise NumericalCheckError(
                f"rewindable optimum is {p_out:.12f}, expected 0.5")
        honest_out = _measure_honest(out, config)
    report = TransformReport(
        "rewindable", (spec.k, spec.m), (new_spec.k, new_spec.m),
        honest_in, honest_out,
        {"completeness": {"formula": "exactly 1/2 at the optimal shared state",
                          "value": 0.5},
         "soundness": {"formula": "s (unchanged)", "value": s_in}},
        layout.total_qubits, new_layout.total_qubits,
        tuple(warnings), tuple(notes),
        {"p_max": p_max, "dim_caveat": DIM_CAP_NOTE})
    return TransformResult(out, report)


# ---------------------------------------------------------------------------
# rewinding to perfect completeness


def rewind_to_perfect_completeness(instance: ProtocolInstance,
                                   check: bool = True,
                                   config: RunConfig = DEFAULT_RUN_CONFIG
                                   ) -> TransformResult:
    """Forward, backward, forward execution with a phase flip on the all-zero
    start subspace, guarded by a fifty-fifty choice between the rewinding test
    and the invertibility test. Requires a perfectly rewindable input."""
    notes: list[str] = []
    inst = _ensure_unitary(instance, notes)
    if inst.m % 2 == 1:
        inst = pad_turns(inst, inst.m + 1)
        notes.append("odd turn count padded with one dummy verifier turn")
    spec = inst.verifier
    m = spec.m
    half = m // 2
    layout = spec.layout
    _, s_in = _claims(inst)

    if check:
        p_opt, _ = optimal_shared_state(spec, inst.provers, config=config)
        if abs(p_opt - 0.5) > 1e-9:
            raise PreconditionError(
                f"requires honest optimum exactly 1/2 (perfectly rewindable), "
                f"got {p_opt:.12f}")
    honest_in = _measure_honest(inst, config) if check else None

    v_circuits, v_final, accept = _standard_components(inst)
    vm_qubits = layout.verifier_message_qubits()
    flip = Circuit(tuple(zero_phase_flip(vm_qubits)), label="phase flip on start")

    b0 = ("b", "0")
    b1 = ("b", "1")
    new_turns: list[VerifierTurn] = []
    # first forward phase
    for j in range(half):
        new_turns.append(VerifierTurn((ApplyStep(v_circuits[j]),)))
    # decision turn: simulate the final test, bank acceptance, undo
    new_turns.append(VerifierTurn((
        CoinStep("b", 1, recipients=()),
        ApplyStep(v_final, when=b0),
        AcceptNowStep(accept, when=b0),
        ApplyStep(v_final.inverse(), when=b0),
    )))
    # backward phase
    for r in range(1, half):
        new_turns.append(VerifierTurn((
            ApplyStep(v_circuits[half - r].inverse()),)))
    new_turns.append(VerifierTurn((
        ApplyStep(v_circuits[0].inverse()),
        ApplyStep(flip, when=b0),
        AcceptNowStep((ProjectorOp.all_zero(vm_qubits),), when=b1),
        ApplyStep(v_circuits[0], when=b0),
    )))
    # second forward phase
    for r in range(1, half):
        new_turns.append(VerifierTurn((ApplyStep(v_circuits[r], when=b0),)))

    final = FinalDecision(
        (ApplyStep(v_final, when=b0),),
        (AcceptRule(accept, when=b0),
         AcceptRule((ProjectorOp.never(),), when=b1)))

    new_spec = VerifierSpec(layout, 3 * m, tuple(new_turns), final,
                            output_qubit=spec.output_qubit)

    provers = []
    for p in inst.provers:
        fwd = list(p.circuits)
        back = [c.inverse() for c in reversed(fwd)]
        provers.append(ProverStrategy(p.index, tuple(fwd + back + fwd)))

    s_formula = None
    if s_in is not None:
        s_formula = 0.5 + 2.0 * math.sqrt(s_in) + 2.5 * s_in
    warnings = []
    if s_in is not None and s_in >= 1.0 / 25.0:
        warnings.append("claimed soundness >= 1/25; the soundness bound "
                        "formula needs soundness below 1/25")

    s_claim = None if s_formula is None else min(1.0, s_formula)
    out = ProtocolInstance(new_spec, tuple(provers), inst.shared,
                           _meta_with(inst, "rewind", 1.0, s_claim))
    _check_valid(out, "rewind_to_perfect_completeness")

    honest_out = None
    extras = {"dim_caveat": DIM_CAP_NOTE}
    if check:
        tr = run(out, config=config)
        honest_out = tr.acceptance
        for rec in tr.branches:
            if b0 in rec.coins:
                extras["p1"] = rec.event_probs[0] if rec.event_probs else 0.0
                extras["p2"] = rec.final_prob
            else:
                extras["p3"] = rec.event_probs[0] if rec.event_probs else 0.0
        if abs(honest_out - 1.0) > 1e-9:
            raise NumericalCheckError(
                f"rewound honest acceptance {honest_out:.12f} != 1.0")
    report = TransformReport(
        "rewind", (spec.k, m), (new_spec.k, 3 * m), honest_in, honest_out,
        {"completeness": {"formula": "1 (perfect)", "value": 1.0},
         "soundness": {"formula": "1/2 + 2*sqrt(s) + 5s/2", "value": s_formula}},
        layout.total_qubits, layout.total_qubits,
        tuple(warnings), tuple(notes), extras)
    return TransformResult(out, report)


# ---------------------------------------------------------------------------
# halving the number of turns


def halve_turns(instance: ProtocolInstance, check: bool = True,
                config: RunConfig = DEFAULT_RUN_CONFIG) -> TransformResult:
    """Receive the mid-protocol snapshot as the first message, then run a
    fifty-fifty forward or backward simulation of the second half."""
    notes: list[str] = []
    inst = _ensure_unitary(instance, notes)
    spec = inst.verifier
    m = spec.m
    if m < 5 or (m - 1) % 4 != 0:
        raise PreconditionError(
            f"turn count must be of the form 4m+1 with m >= 1, got {m}")
    m0 = (m - 1) // 4
    layout = spec.layout
    k = layout.k
    c_in, s_in = _claims(inst)
    warnings = []
    if c_in is not None and s_in is not None and c_in ** 2 <= s_in:
        warnings.append("claimed completeness^2 does not exceed claimed "
                        "soundness; the halving statement assumes c^2 > s")

    honest_in = _measure_honest(inst, config) if check else None
    v_circuits, v_final, accept = _standard_components(inst)
    # v_circuits has 2*m0 entries; v_final is circuit 2*m0+1

    v_names = [r.name for r in layout.verifier_side]
    n_v = sum(r.qubits for r in layout.verifier_side)
    q = layout.message_qubits
    p_sizes = [r.qubits for r in layout.provers]

    taken: set[str] = set()
    vs = _fresh("VS", taken)
    qh = _fresh("QH", taken)
    new_msgs = tuple(Register(f"M{i+1}", n_v + q, "message") for i in range(k))
    new_provers = tuple(
        Register(f"P{i+1}", (n_v + q + p_sizes[i]) if i == 0 else q + p_sizes[i],
                 "prover") for i in range(k))
    new_layout = RegisterLayout(
        (Register(vs, n_v, "verifier"), Register(qh, 1, "verifier"))
        + new_msgs + new_provers)

    # old verifier+message qubits inside the new system
    v_offsets: dict[str, int] = {}
    off = 0
    for r in layout.verifier_side:
        v_offsets[r.name] = off
        off += r.qubits
    old_msgs = [r.name for r in layout.messages]

    def ver_map(qb: Qubit) -> Qubit:
        reg, i = qb
        if reg in v_offsets:
            return (vs, v_offsets[reg] + i)
        idx = old_msgs.index(reg)
        return (f"M{idx+1}", n_v + i)

    store = Circuit(tuple(swap_slices([("M1", i) for i in range(n_v)],
                                      [(vs, i) for i in range(n_v)])),
                    label="store received workspace")
    b0 = ("b", "0")
    b1 = ("b", "1")
    new_turns: list[VerifierTurn] = [VerifierTurn((
        ApplyStep(store),
        CoinStep("b", 1, recipients=tuple(range(1, k + 1)), record=((qh, 0),)),
        ApplyStep(v_circuits[m0].remap(ver_map), when=b0),
    ))]
    for j in range(2, m0 + 1):
        new_turns.append(VerifierTurn((
            ApplyStep(v_circuits[m0 + j - 1].remap(ver_map), when=b0),
            ApplyStep(v_circuits[m0 - j + 1].remap(ver_map).inverse(), when=b1),
        )))
    final = FinalDecision(
        (ApplyStep(v_final.remap(ver_map), when=b0),
         ApplyStep(v_circuits[0].remap(ver_map).inverse(), when=b1)),
        (AcceptRule(tuple(_remap_projector(p, ver_map) for p in accept), when=b0),
         AcceptRule((ProjectorOp.all_zero([(vs, i) for i in range(n_v)]),),
                    when=b1)))
    new_spec = VerifierSpec(new_layout, 2 * m0 + 1, tuple(new_turns), final)

    # honest provers: inject the snapshot, then simulate forward or backward
    snapshot = _honest_snapshot(inst, 2 * m0 + 1, config)

    def prover_map(i: int) -> Callable[[Qubit], Qubit]:
        p_off = n_v + q if i == 1 else q
        m_old = old_msgs[i - 1]
        p_old = layout.provers[i - 1].name

        def fn(qb: Qubit) -> Qubit:
            reg, x = qb
            if reg == p_old:
                return (f"P{i}", p_off + x)
            if reg == m_old:
                return (f"M{i}", n_v + x)
            raise ValidationError(f"prover {i} circuit touches {reg}")
        return fn

    provers = []
    for p in inst.provers:
        i = p.index
        fn = prover_map(i)
        if i == 1:
            inject = swap_slices([(f"P{i}", x) for x in range(n_v + q)],
                                 [(f"M{i}", x) for x in range(n_v + q)])
        else:
            inject = swap_slices([(f"P{i}", x) for x in range(q)],
                                 [(f"M{i}", n_v + x) for x in range(q)])
        circuits = [Circuit(tuple(inject), label="send snapshot slices")]
        for j in range(1, m0 + 1):
            fwd = p.circuits[m0 + j].remap(fn).controlled(
                (((f"M{i}", 0), 0),))
            bwd = p.circuits[m0 - j + 1].inverse().remap(fn).controlled(
                (((f"M{i}", 0), 1),))
            circuits.append(Circuit(fwd.gates + bwd.gates,
                                    label=f"simulate turn pair {j}"))
        provers.append(ProverStrategy(i, tuple(circuits)))

    groups = [("P1", v_names + [old_msgs[0], layout.provers[0].name])]
    for i in range(2, k + 1):
        groups.append((f"P{i}", [old_msgs[i - 1], layout.provers[i - 1].name]))
    shared = _regroup_state(snapshot, groups)

    c_formula = None if c_in is None else (1.0 + c_in) / 2.0
    s_formula = None if s_in is None else (1.0 + math.sqrt(s_in)) / 2.0
    out = ProtocolInstance(new_spec, tuple(provers), shared,
                           _meta_with(inst, "halve", c_formula, s_formula))
    _check_valid(out, "halve_turns")

    honest_out = None
    if check:
        honest_out = _measure_honest(out, config)
        expected = (1.0 + honest_in) / 2.0
        if abs(honest_out - expected) > 1e-9:
            raise NumericalCheckError(
                f"halved honest value {honest_out:.12f} != (1+c)/2 = {expected:.12f}")
    report = TransformReport(
        "halve", (k, m), (k, 2 * m0 + 1), honest_in, honest_out,
        {"completeness": {"formula": "(1+c)/2", "value": c_formula},
         "soundness": {"formula": "(1+sqrt(s))/2", "value": s_formula}},
        layout.total_qubits, new_layout.total_qubits,
        tuple(warnings), tuple(notes), {"dim_caveat": DIM_CAP_NOTE})
    return TransformResult(out, report)


# ---------------------------------------------------------------------------
# cascading to three turns


def parallelize_to_three(instance: ProtocolInstance,
                         epsilon: float | None = None,
                         delta: float | None = None,
                         check: bool = True,
                         config: RunConfig = DEFAULT_RUN_CONFIG
                         ) -> TransformResult:
    """Pad to 2^(l+1)+1 turns and halve l times, ending at three turns."""
    spec = instance.verifier
    m = spec.m
    if m < 4:
        raise PreconditionError(f"needs at least 4 turns, got {m}")
    c_in, s_in = _claims(instance)
    if epsilon is None:
        epsilon = None if c_in is None else 1.0 - c_in
    if delta is None:
        delta = None if s_in is None else 1.0 - s_in
    warnings = []
    if epsilon is not None and delta is not None and delta <= 2 * (m - 1) * epsilon:
        warnings.append("gap condition violated: 1-s must exceed 2(m-1)(1-c); "
                        "the three-turn statement's formulas are not implied")

    l = 1
    while 2 ** (l + 1) + 1 < m:
        l += 1
    target = 2 ** (l + 1) + 1
    notes = []
    inst = instance
    if target != m:
        inst = pad_turns(inst, target)
        notes.append(f"padded from {m} to {target} turns with dummy turns")
    honest_in = _measure_honest(inst, config) if check else None

    qubits_before = spec.layout.total_qubits
    sub_reports = []
    for _ in range(l):
        res = halve_turns(inst, check=check, config=config)
        sub_reports.append(res.report)
        inst = res.instance

    claimed = {
        "completeness": {
            "formula": "1 - 2(1-c)/(m-1)",
            "value": None if epsilon is None else 1.0 - 2 * epsilon / (m - 1)},
        "soundness": {
            "formula": "1 - (1-s)/(m-1)^2",
            "value": None if delta is None else 1.0 - delta / (m - 1) ** 2},
        "composed": {
            "formula": "l-fold (1+c)/2 and (1+sqrt(s))/2",
            "completeness": inst.meta.claimed_completeness,
            "soundness": inst.meta.claimed_soundness},
    }
    meta = replace(inst.meta,
                   name=(instance.meta.name + "+three-turn"
                         if instance.meta.name else "three-turn"))
    out = replace(inst, meta=meta)
    honest_out = _measure_honest(out, config) if check else None
    report = TransformReport(
        "three-turn", (spec.k, m), (out.k, out.m), honest_in, honest_out,
        claimed, qubits_before, out.verifier.layout.total_qubits,
        tuple(warnings), tuple(notes),
        {"halvings": l, "sub_reports": [r.as_dict() for r in sub_reports],
         "dim_caveat": DIM_CAP_NOTE})
    return TransformResult(out, report)


# ---------------------------------------------------------------------------
# public-coin conversion


def to_public_coin_3turn(instance: ProtocolInstance, check: bool = True,
                         config: RunConfig = DEFAULT_RUN_CONFIG
                         ) -> TransformResult:
    """Three-turn to three-turn public-coin: the verifier's workspace travels
    as the first message, a single broadcast bit selects forward or backward
    checking."""
    notes: list[str] = []
    inst = _ensure_unitary(instance, notes)
    spec = inst.verifier
    if spec.m != 3:
        raise PreconditionError(f"input must have 3 turns, got {spec.m}")
    layout = spec.layout
    k = layout.k
    c_in, s_in = _claims(inst)
    warnings = []
    if c_in is not None and s_in is not None and c_in ** 2 <= s_in:
        warnings.append("claimed completeness^2 does not exceed claimed "
                        "soundness; the public-coin statement assumes c^2 > s")

    honest_in = _measure_honest(inst, config) if check else None
    v_circuits, v_final, accept = _standard_components(inst)
    v1 = v_circuits[0]

    n_v = sum(r.qubits for r in layout.verifier_side)
    q = layout.message_qubits
    p_sizes = [r.qubits for r in layout.provers]
    q_new = max(n_v, q)

    taken: set[str] = set()
    vs = _fresh("VS", taken)
    qp = _fresh("QPC", taken)
    new_msgs = tuple(Register(f"M{i+1}", q_new, "message") for i in range(k))
    new_provers = tuple(
        Register(f"P{i+1}", (n_v + q + p_sizes[i]) if i == 0 else q + p_sizes[i],
                 "prover") for i in range(k))
    new_layout = RegisterLayout(
        (Register(vs, n_v, "verifier"), Register(qp, 1, "verifier"))
        + new_msgs + new_provers)

    v_offsets: dict[str, int] = {}
    off = 0
    for r in layout.verifier_side:
        v_offsets[r.name] = off
        off += r.qubits
    old_msgs = [r.name for r in layout.messages]

    def ver_map(qb: Qubit) -> Qubit:
        reg, i = qb
        if reg in v_offsets:
            return (vs, v_offsets[reg] + i)
        return (f"M{old_msgs.index(reg)+1}", i)

    store = Circuit(tuple(swap_slices([("M1", i) for i in range(n_v)],
                                      [(vs, i) for i in range(n_v)])),
                    label="store received workspace")
    b0 = ("b", "0")
    b1 = ("b", "1")
    new_turns = (VerifierTurn((
        ApplyStep(store),
        CoinStep("b", 1, recipients=tuple(range(1, k + 1)), record=((qp, 0),)),
    )),)
    final = FinalDecision(
        (ApplyStep(v_final.remap(ver_map), when=b0),
         ApplyStep(v1.remap(ver_map).inverse(), when=b1)),
        (AcceptRule(tuple(_remap_projector(p, ver_map) for p in accept), when=b0),
         AcceptRule((ProjectorOp.all_zero([(vs, i) for i in range(n_v)]),),
                    when=b1)))
    new_spec = VerifierSpec(new_layout, 3, tuple(new_turns), final)

    snapshot = _honest_snapshot(inst, 2, config)

    provers = []
    for p in inst.provers:
        i = p.index
        p_off = n_v + q if i == 1 else q
        m_old = old_msgs[i - 1]
        p_old = layout.provers[i - 1].name

        def fn(qb: Qubit, i=i, p_off=p_off, m_old=m_old, p_old=p_old) -> Qubit:
            reg, x = qb
            if reg == p_old:
                return (f"P{i}", p_off + x)
            if reg == m_old:
                return (f"P{i}", (n_v if i == 1 else 0) + x)
            raise ValidationError(f"prover {i} circuit touches {reg}")

        if i == 1:
            first = Circuit(tuple(swap_slices(
                [(f"P{i}", x) for x in range(n_v)],
                [(f"M{i}", x) for x in range(n_v)])), label="send workspace")
        else:
            first = Circuit((), label="send nothing")
        answer_off = n_v if i == 1 else 0
        play = p.circuits[1].remap(fn).controlled((((f"M{i}", 0), 0),))
        hand_over = swap_slices([(f"P{i}", answer_off + x) for x in range(q)],
                                [(f"M{i}", x) for x in range(q)])
        second = Circuit(play.gates + tuple(hand_over),
                         label="answer on broadcast 0, play back message")
        provers.append(ProverStrategy(i, (first, second)))

    groups = [("P1", [r.name for r in layout.verifier_side]
               + [old_msgs[0], layout.provers[0].name])]
    for i in range(2, k + 1):
        groups.append((f"P{i}", [old_msgs[i - 1], layout.provers[i - 1].name]))
    shared = _regroup_state(snapshot, groups)

    c_formula = None if c_in is None else (1.0 + c_in) / 2.0
    s_formula = None if s_in is None else (1.0 + math.sqrt(s_in)) / 2.0
    out = ProtocolInstance(new_spec, tuple(provers), shared,
                           _meta_with(inst, "public-coin", c_formula, s_formula))
    _check_valid(out, "to_public_coin_3turn")
    if not is_public_coin(new_spec):
        raise NumericalCheckError("output failed the public-coin structure check")

    honest_out = None
    if check:
        honest_out = _measure_honest(out, config)
        expected = (1.0 + honest_in) / 2.0
        if abs(honest_out - expected) > 1e-9:
            raise NumericalCheckError(
                f"public-coin honest value {honest_out:.12f} != {expected:.12f}")
    report = TransformReport(
        "public-coin", (k, 3), (k, 3), honest_in, honest_out,
        {"completeness": {"formula": "(1+c)/2", "value": c_formula},
         "soundness": {"formula": "(1+sqrt(s))/2", "value": s_formula}},
        layout.total_qubits, new_layout.total_qubits,
        tuple(warnings), tuple(notes),
        {"coin_bits": 1, "dim_caveat": DIM_CAP_NOTE})
    return TransformResult(out, report)


# ---------------------------------------------------------------------------
# one-round conversions


def public_coin_to_one_round(instance: ProtocolInstance, check: bool = True,
                             config: RunConfig = DEFAULT_RUN_CONFIG
                             ) -> TransformResult:
    """Three-turn public-coin to two turns with one extra prover, preserving
    completeness and soundness exactly: the extra prover supplies the original
    first messages unprompted."""
    spec = instance.verifier
    if spec.m != 3:
        raise PreconditionError(f"input must have 3 turns, got {spec.m}")
    if not is_public_coin(spec):
        raise PreconditionError("input verifier is not public-coin")
    layout = spec.layout
    k = layout.k
    q = layout.message_qubits
    c_in, s_in = _claims(instance)
    honest_in = _measure_honest(instance, config) if check else None

    turn = spec.turns[0]
    pre_steps = turn.steps[:-1]
    coin: CoinStep = turn.steps[-1]
    f = coin.flips
    old_msgs = [r.name for r in layout.messages]
    q_new = max(f, q, k * q)

    new_msgs = tuple(Register(f"N{i+1}", q_new, "message") for i in range(k + 1))
    p_sizes = [r.qubits for r in layout.provers]
    new_provers = tuple(Register(f"R{i+1}",
                                 p_sizes[i] if i < k else k * q, "prover")
                        for i in range(k + 1))
    new_layout = RegisterLayout(layout.verifier_side + new_msgs + new_provers)

    def bundle_map(qb: Qubit) -> Qubit:
        reg, i = qb
        if reg in old_msgs:
            return (f"N{k+1}", old_msgs.index(reg) * q + i)
        return qb

    def answer_map(qb: Qubit) -> Qubit:
        reg, i = qb
        if reg in old_msgs:
            return (f"N{old_msgs.index(reg)+1}", i)
        return qb

    def remap_condition(when) -> tuple[str, str] | None:
        if when is None:
            return None
        return ("r", when[1]) if when[0] == coin.coin_id else when

    new_turn = VerifierTurn((
        CoinStep("r", f, recipients=tuple(range(1, k + 1)), record=coin.record),))
    final_steps: list[ApplyStep] = [
        ApplyStep(s.circuit.remap(bundle_map), when=remap_condition(s.when))
        for s in pre_steps]
    for s in spec.final.steps:
        if not isinstance(s, ApplyStep):
            raise PreconditionError("input final circuit must be measurement-free")
        final_steps.append(ApplyStep(s.circuit.remap(answer_map),
                                     when=remap_condition(s.when)))
    accept = tuple(
        AcceptRule(tuple(_remap_projector(p, answer_map) for p in rule.projectors),
                   when=remap_condition(rule.when))
        for rule in spec.final.accept)
    new_spec = VerifierSpec(new_layout, 2, (new_turn,),
                            FinalDecision(tuple(final_steps), accept),
                            output_qubit=spec.output_qubit)

    snapshot_full = _honest_snapshot(instance, 1, config)
    # the verifier side must still be |0...0> after the provers' first turn
    v_names = [r.name for r in layout.verifier_side]
    reordered = reorder_registers(
        snapshot_full, v_names + old_msgs + [r.name for r in layout.provers])
    n_v = sum(r.qubits for r in layout.verifier_side)
    tensor = reordered.amplitudes.reshape(2 ** n_v, -1)
    if abs(np.linalg.norm(tensor[0]) - 1.0) > 1e-9:
        raise NumericalCheckError(
            "verifier workspace not clean after the first turn")
    mp_layout = tuple((r.name, r.qubits) for r in layout.messages + layout.provers)
    snapshot = StateVector(tensor[0], mp_layout)

    provers = []
    for p in instance.provers:
        i = p.index
        m_old = old_msgs[i - 1]
        p_old = layout.provers[i - 1].name

        def fn(qb: Qubit, i=i, m_old=m_old, p_old=p_old) -> Qubit:
            reg, x = qb
            if reg == p_old:
                return (f"R{i}", x)
            if reg == m_old:
                return (f"N{i}", x)
            raise ValidationError(f"prover {i} circuit touches {reg}")
        provers.append(ProverStrategy(i, (p.circuits[1].remap(fn),)))
    hand_over = swap_slices([(f"R{k+1}", x) for x in range(k * q)],
                            [(f"N{k+1}", x) for x in range(k * q)])
    provers.append(ProverStrategy(
        k + 1, (Circuit(tuple(hand_over), label="send stored first messages"),)))

    groups = [(f"R{i+1}", [layout.provers[i].name]) for i in range(k)]
    groups.append((f"R{k+1}", old_msgs))
    shared = _regroup_state(snapshot, groups)

    out = ProtocolInstance(new_spec, tuple(provers), shared,
                           _meta_with(instance, "one-round", c_in, s_in))
    _check_valid(out, "public_coin_to_one_round")

    honest_out = None
    if check:
        honest_out = _measure_honest(out, config)
        if abs(honest_out - honest_in) > 1e-9:
            raise NumericalCheckError(
                f"one-round honest value {honest_out:.12f} != preserved "
                f"{honest_in:.12f}")
    report = TransformReport(
        "one-round", (k, 3), (k + 1, 2), honest_in, honest_out,
        {"completeness": {"formula": "c (preserved)", "value": c_in},
         "soundness": {"formula": "s (preserved)", "value": s_in}},
        layout.total_qubits, new_layout.total_qubits,
        (), (), {"dim_caveat": DIM_CAP_NOTE})
    return TransformResult(out, report)


def direct_two_turn(instance: ProtocolInstance, check: bool = True,
                    config: RunConfig = DEFAULT_RUN_CONFIG) -> TransformResult:
    """Three-turn to two turns with one extra prover, directly: the extra
    prover sends the verifier's workspace, the broadcast bit selects the
    forward or backward check."""
    notes: list[str] = []
    inst = _ensure_unitary(instance, notes)
    spec = inst.verifier
    if spec.m != 3:
        raise PreconditionError(f"input must have 3 turns, got {spec.m}")
    layout = spec.layout
    k = layout.k
    q = layout.message_qubits
    c_in, s_in = _claims(inst)
    warnings = []
    if c_in is not None and s_in is not None and c_in ** 2 <= s_in:
        warnings.append("claimed completeness^2 does not exceed claimed "
                        "soundness; the two-turn statement assumes c^2 > s")

    honest_in = _measure_honest(inst, config) if check else None
    v_circuits, v_final, accept = _standard_components(inst)
    v1 = v_circuits[0]

    n_v = sum(r.qubits for r in layout.verifier_side)
    q_new = max(q, n_v)
    old_msgs = [r.name for r in layout.messages]
    p_sizes = [r.qubits for r in layout.provers]

    taken: set[str] = set()
    qd = _fresh("QD", taken)
    new_msgs = tuple(Register(f"N{i+1}", q_new, "message") for i in range(k + 1))
    new_provers = tuple(Register(f"R{i+1}",
                                 q + p_sizes[i] if i < k else n_v, "prover")
                        for i in range(k + 1))
    new_layout = RegisterLayout((Register(qd, 1, "verifier"),)
                                + new_msgs + new_provers)

    v_offsets: dict[str, int] = {}
    off = 0
    for r in layout.verifier_side:
        v_offsets[r.name] = off
        off += r.qubits

    def ver_map(qb: Qubit) -> Qubit:
        reg, i = qb
        if reg in v_offsets:
            return (f"N{k+1}", v_offsets[reg] + i)
        return (f"N{old_msgs.index(reg)+1}", i)

    b0 = ("b", "0")
    b1 = ("b", "1")
    new_turn = VerifierTurn((
        CoinStep("b", 1, recipients=tuple(range(1, k + 1)), record=((qd, 0),)),))
    final = FinalDecision(
        (ApplyStep(v_final.remap(ver_map), when=b0),
         ApplyStep(v1.remap(ver_map).inverse(), when=b1)),
        (AcceptRule(tuple(_remap_projector(p, ver_map) for p in accept), when=b0),
         AcceptRule((ProjectorOp.all_zero(
             [(f"N{k+1}", v_offsets[r.name] + i) for r in layout.verifier_side
              for i in range(r.qubits)]),), when=b1)))
    new_spec = VerifierSpec(new_layout, 2, (new_turn,), final)

    snapshot = _honest_snapshot(inst, 2, config)

    provers = []
    for p in inst.provers:
        i = p.index
        m_old = old_msgs[i - 1]
        p_old = layout.provers[i - 1].name

        def fn(qb: Qubit, i=i, m_old=m_old, p_old=p_old) -> Qubit:
            reg, x = qb
            if reg == p_old:
                return (f"R{i}", q + x)
            if reg == m_old:
                return (f"R{i}", x)
            raise ValidationError(f"prover {i} circuit touches {reg}")

        play = p.circuits[1].remap(fn).controlled((((f"N{i}", 0), 0),))
        hand_over = swap_slices([(f"R{i}", x) for x in range(q)],
                                [(f"N{i}", x) for x in range(q)])
        provers.append(ProverStrategy(
            i, (Circuit(play.gates + tuple(hand_over),
                        label="answer on broadcast 0"),)))
    hand_v = swap_slices([(f"R{k+1}", x) for x in range(n_v)],
                         [(f"N{k+1}", x) for x in range(n_v)])
    provers.append(ProverStrategy(
        k + 1, (Circuit(tuple(hand_v), label="send workspace"),)))

    groups = [(f"R{i}", [old_msgs[i - 1], layout.provers[i - 1].name])
              for i in range(1, k + 1)]
    groups.append((f"R{k+1}", [r.name for r in layout.verifier_side]))
    shared = _regroup_state(snapshot, groups)

    c_formula = None if c_in is None else (1.0 + c_in) / 2.0
    s_formula = None if s_in is None else (1.0 + math.sqrt(s_in)) / 2.0
    out = ProtocolInstance(new_spec, tuple(provers), shared,
                           _meta_with(inst, "direct-one-round", c_formula, s_formula))
    _check_valid(out, "direct_two_turn")

    honest_out = None
    if check:
        honest_out = _measure_honest(out, config)
        expected = (1.0 + honest_in) / 2.0
        if abs(honest_out - expected) > 1e-9:
            raise NumericalCheckError(
                f"direct two-turn honest value {honest_out:.12f} != {expected:.12f}")
    report = TransformReport(
        "direct-one-round", (k, 3), (k + 1, 2), honest_in, honest_out,
        {"completeness": {"formula": "(1+c)/2", "value": c_formula},
         "soundness": {"formula": "(1+sqrt(s))/2", "value": s_formula}},
        layout.total_qubits, new_layout.total_qubits,
        tuple(warnings), tuple(notes), {"dim_caveat": DIM_CAP_NOTE})
    return TransformResult(out, report)


# ---------------------------------------------------------------------------
# repetitions


def _standard_form_for_repetition(instance: ProtocolInstance,
                                  notes: list[str]) -> tuple[ProtocolInstance, Qubit]:
    inst = _ensure_unitary(instance, notes)
    for turn in inst.verifier.turns:
        for step in turn.steps:
            if isinstance(step, AcceptNowStep):
                raise PreconditionError(
                    "repetition needs measurement-free copies "
                    "(no mid-protocol accept events)")
    _, _, accept = _standard_components(inst)
    if len(accept) != 1 or accept[0].kind != "output_one":
        raise PreconditionError(
            "repetition needs standard-form copies (one output qubit)")
    return inst, accept[0].qubits[0]


def sequential_repetition(instance: ProtocolInstance, n: int,
                          check: bool = True,
                          config: RunConfig = DEFAULT_RUN_CONFIG
                          ) -> TransformResult:
    """Run n copies one after another on fresh register blocks; accept iff
    every copy accepts."""
    if n < 1:
        raise PreconditionError("repetition count must be >= 1")
    c_in, s_in = _claims(instance)
    if n == 1:
        report = TransformReport(
            "seq-rep", (instance.k, instance.m), (instance.k, instance.m),
            None, None,
            {"completeness": {"formula": "c^n", "value": c_in},
             "soundness": {"formula": "s^n (audited, not asserted)", "value": s_in}},
            instance.verifier.layout.total_qubits,
            instance.verifier.layout.total_qubits,
            (), ("n = 1: instance unchanged",), {})
        return TransformResult(instance, report)

    notes: list[str] = []
    inst, out_qubit = _standard_form_for_repetition(instance, notes)
    spec = inst.verifier
    m = spec.m
    layout = spec.layout
    k = layout.k
    q = layout.message_qubits
    honest_in = _measure_honest(inst, config) if check else None
    v_circuits, v_final, _ = _standard_components(inst)
    seam = m % 2 == 1
    m_new = n * m + (n - 1 if seam else 0)
    if seam:
        notes.append("odd copies separated by dummy verifier turns")

    taken: set[str] = set()
    v_copy_names: list[dict[str, str]] = []
    v_regs: list[Register] = []
    for c in range(1, n + 1):
        names = {}
        for r in layout.verifier_side:
            nm = _fresh(f"{r.name}_c{c}", taken)
            names[r.name] = nm
            v_regs.append(Register(nm, r.qubits, "verifier"))
        v_copy_names.append(names)
    xs = _fresh("XS", taken)
    v_regs.append(Register(xs, 1, "verifier"))
    new_msgs = tuple(Register(f"M{i+1}", n * q, "message") for i in range(k))
    p_sizes = [r.qubits for r in layout.provers]
    new_provers = tuple(Register(f"P{i+1}", n * p_sizes[i], "prover")
                        for i in range(k))
    new_layout = RegisterLayout(tuple(v_regs) + new_msgs + new_provers)
    old_msgs = [r.name for r in layout.messages]
    old_prov = [r.name for r in layout.provers]

    def copy_map(c: int) -> Callable[[Qubit], Qubit]:
        names = v_copy_names[c - 1]

        def fn(qb: Qubit) -> Qubit:
            reg, i = qb
            if reg in names:
                return (names[reg], i)
            if reg in old_msgs:
                return (f"M{old_msgs.index(reg)+1}", (c - 1) * q + i)
            return (f"P{old_prov.index(reg)+1}", (c - 1) * p_sizes[old_prov.index(reg)] + i)
        return fn

    new_turns: list[VerifierTurn] = []
    prover_circuits: dict[int, list[Circuit]] = {i: [] for i in range(1, k + 1)}
    for c in range(1, n + 1):
        fn = copy_map(c)
        carry: tuple[ApplyStep, ...] = ()
        if c > 1:
            prev = copy_map(c - 1)
            carry = (ApplyStep(v_final.remap(prev)),)
            if seam:
                new_turns.append(VerifierTurn(carry))
                carry = ()
        for j, circ in enumerate(v_circuits):
            steps = carry + (ApplyStep(circ.remap(fn)),) if j == 0 else (
                ApplyStep(circ.remap(fn)),)
            new_turns.append(VerifierTurn(steps))
            carry = ()
        for p in inst.provers:
            prover_circuits[p.index].extend(cc.remap(fn) for cc in p.circuits)
    outs = [copy_map(c)(out_qubit) for c in range(1, n + 1)]
    final = FinalDecision(
        (ApplyStep(v_final.remap(copy_map(n))),
         ApplyStep(Circuit((mcx(tuple((o, 1) for o in outs), (xs, 0)),),
                           label="all copies accept"))),
        (AcceptRule((ProjectorOp.output_one((xs, 0)),)),))
    new_spec = VerifierSpec(new_layout, m_new, tuple(new_turns), final,
                            output_qubit=(xs, 0))

    provers = tuple(ProverStrategy(i, tuple(prover_circuits[i]))
                    for i in range(1, k + 1))
    product = inst.shared
    labeled = StateVector(
        product.amplitudes,
        tuple((f"{nm}_c1", sz) for nm, sz in product.layout))
    for c in range(2, n + 1):
        from .linalg import tensor_states
        labeled = tensor_states(labeled, StateVector(
            product.amplitudes,
            tuple((f"{nm}_c{c}", sz) for nm, sz in product.layout)))
    groups = [(f"P{i+1}", [f"{old_prov[i]}_c{c}" for c in range(1, n + 1)])
              for i in range(k)]
    shared = _regroup_state(labeled, groups)

    c_formula = None if c_in is None else c_in ** n
    s_formula = None if s_in is None else s_in ** n
    out = ProtocolInstance(new_spec, provers, shared,
                           _meta_with(inst, f"seq-rep{n}", c_formula, s_formula))
    _check_valid(out, "sequential_repetition")

    honest_out = None
    if check:
        honest_out = _measure_honest(out, config)
        expected = honest_in ** n
        if abs(honest_out - expected) > 1e-9:
            raise NumericalCheckError(
                f"repeated honest value {honest_out:.12f} != c^n = {expected:.12f}")
    report = TransformReport(
        "seq-rep", (k, m), (k, m_new), honest_in, honest_out,
        {"completeness": {"formula": "c^n", "value": c_formula},
         "soundness": {"formula": "s^n (audited empirically, not asserted)",
                       "value": s_formula}},
        layout.total_qubits, new_layout.total_qubits,
        (), tuple(notes), {"n": n, "dim_caveat": DIM_CAP_NOTE})
    return TransformResult(out, report)


def parallel_repetition_fresh_provers(instance: ProtocolInstance, n: int,
                                      check: bool = True,
                                      config: RunConfig = DEFAULT_RUN_CONFIG
                                      ) -> TransformResult:
    """Run n copies in parallel, each served by a fresh prover group; accept
    iff every copy accepts. Turn count unchanged, k' = n*k."""
    if n < 1:
        raise PreconditionError("repetition count must be >= 1")
    c_in, s_in = _claims(instance)
    if n == 1:
        report = TransformReport(
            "par-rep", (instance.k, instance.m), (instance.k, instance.m),
            None, None,
            {"completeness": {"formula": "c^n", "value": c_in},
             "soundness": {"formula": "s^n under group-local strategies "
                           "(audited)", "value": s_in}},
            instance.verifier.layout.total_qubits,
            instance.verifier.layout.total_qubits,
            (), ("n = 1: instance unchanged",), {})
        return TransformResult(instance, report)

    notes: list[str] = []
    inst, out_qubit = _standard_form_for_repetition(instance, notes)
    spec = inst.verifier
    m = spec.m
    layout = spec.layout
    k = layout.k
    q = layout.message_qubits
    honest_in = _measure_honest(inst, config) if check else None
    v_circuits, v_final, _ = _standard_components(inst)

    taken: set[str] = set()
    v_copy_names: list[dict[str, str]] = []
    v_regs: list[Register] = []
    for c in range(1, n + 1):
        names = {}
        for r in layout.verifier_side:
            nm = _fresh(f"{r.name}_c{c}", taken)
            names[r.name] = nm
            v_regs.append(Register(nm, r.qubits, "verifier"))
        v_copy_names.append(names)
    xs = _fresh("XS", taken)
    v_regs.append(Register(xs, 1, "verifier"))
    old_msgs = [r.name for r in layout.messages]
    old_prov = [r.name for r in layout.provers]
    p_sizes = [r.qubits for r in layout.provers]
    new_msgs = tuple(Register(f"M{(c-1)*k + i + 1}", q, "message")
                     for c in range(1, n + 1) for i in range(k))
    new_provers = tuple(Register(f"P{(c-1)*k + i + 1}", p_sizes[i], "prover")
                        for c in range(1, n + 1) for i in range(k))
    new_layout = RegisterLayout(tuple(v_regs) + new_msgs + new_provers)

    def copy_map(c: int) -> Callable[[Qubit], Qubit]:
        names = v_copy_names[c - 1]

        def fn(qb: Qubit) -> Qubit:
            reg, i = qb
            if reg in names:
                return (names[reg], i)
            if reg in old_msgs:
                return (f"M{(c-1)*k + old_msgs.index(reg) + 1}", i)
            return (f"P{(c-1)*k + old_prov.index(reg) + 1}", i)
        return fn

    new_turns = []
    for j, circ in enumerate(v_circuits):
        merged = Circuit((), label=f"V^{j+1} x{n}")
        for c in range(1, n + 1):
            merged = merged + circ.remap(copy_map(c))
        new_turns.append(VerifierTurn((ApplyStep(merged),)))
    outs = [copy_map(c)(out_qubit) for c in range(1, n + 1)]
    final_circ = Circuit((), label="finals")
    for c in range(1, n + 1):
        final_circ = final_circ + v_final.remap(copy_map(c))
    final = FinalDecision(
        (ApplyStep(final_circ),
         ApplyStep(Circuit((mcx(tuple((o, 1) for o in outs), (xs, 0)),),
                           label="all copies accept"))),
        (AcceptRule((ProjectorOp.output_one((xs, 0)),)),))
    new_spec = VerifierSpec(new_layout, m, tuple(new_turns), final,
                            output_qubit=(xs, 0))

    provers = []
    for c in range(1, n + 1):
        fn = copy_map(c)
        for p in inst.provers:
            provers.append(ProverStrategy(
                (c - 1) * k + p.index,
                tuple(circ.remap(fn) for circ in p.circuits)))

    from .linalg import tensor_states
    labeled = StateVector(inst.shared.amplitudes,
                          tuple((f"{nm}_c1", sz) for nm, sz in inst.shared.layout))
    for c in range(2, n + 1):
        labeled = tensor_states(labeled, StateVector(
            inst.shared.amplitudes,
            tuple((f"{nm}_c{c}", sz) for nm, sz in inst.shared.layout)))
    groups = [(f"P{(c-1)*k + i + 1}", [f"{old_prov[i]}_c{c}"])
              for c in range(1, n + 1) for i in range(k)]
    shared = _regroup_state(labeled, groups)

    c_formula = None if c_in is None else c_in ** n
    s_formula = None if s_in is None else s_in ** n
    out = ProtocolInstance(new_spec, tuple(provers), shared,
                           _meta_with(inst, f"par-rep{n}", c_formula, s_formula))
    _check_valid(out, "parallel_repetition_fresh_provers")

    honest_out = None
    if check:
        honest_out = _measure_honest(out, config)
        expected = honest_in ** n
        if abs(honest_out - expected) > 1e-9:
            raise NumericalCheckError(
                f"parallel honest value {honest_out:.12f} != c^n = {expected:.12f}")
    report = TransformReport(
        "par-rep", (k, m), (n * k, m), honest_in, honest_out,
        {"completeness": {"formula": "c^n", "value": c_formula},
         "soundness": {"formula": "s^n under group-local strategies (audited); "
                       "cross-group entanglement recorded, not bounded",
                       "value": s_formula}},
        layout.total_qubits, new_layout.total_qubits,
        (), tuple(notes), {"n": n, "dim_caveat": DIM_CAP_NOTE})
    return TransformResult(out, report)


# ---------------------------------------------------------------------------
# the full chain


@dataclass(frozen=True)
class PipelineResult:
    instance: ProtocolInstance
    stages: tuple[TransformResult, ...]
    final_soundness_claim: float | None
    inverse_gap: float | None          # p' with soundness = 1 - 1/p'

    def stage_names(self) -> tuple[str, ...]:
        return tuple(s.report.name for s in self.stages)


@contextmanager
def _stage(name: str):
    """Prefix a stage's precondition or numerical-check error with its name,
    keeping the error class (and so the CLI exit code)."""
    try:
        yield
    except (PreconditionError, NumericalCheckError) as e:
        raise type(e)(f"stage {name}: {e}") from e


def run_pipeline(instance: ProtocolInstance, check: bool = True,
                 config: RunConfig = DEFAULT_RUN_CONFIG) -> PipelineResult:
    """Perfect completeness, three turns, public coin, one round - in order.

    The perfect-completeness stages are skipped when the file already claims
    (and, on yes-instances, measurably has) completeness 1: the rewinding
    construction's register growth makes the full chain infeasible at desk
    scale otherwise, and the remaining stages preserve perfect completeness.
    """
    c_in, s_in = _claims(instance)
    if c_in is None or s_in is None:
        raise PreconditionError("stage rewindable: claimed completeness and "
                                "soundness metadata are required")
    if c_in - s_in <= 0:
        raise PreconditionError(
            "stage rewindable: completeness does not exceed soundness (gap <= 0)")
    stages: list[TransformResult] = []
    inst = instance
    verify_honest = check and instance.meta.role != "no"

    if c_in < 1.0:
        with _stage("rewindable"):
            res = make_perfectly_rewindable(
                inst, p_max=None if verify_honest else c_in,
                check=verify_honest, config=config)
        stages.append(res)
        with _stage("rewind"):
            res = rewind_to_perfect_completeness(res.instance,
                                                 check=verify_honest,
                                                 config=config)
        stages.append(res)
        inst = res.instance

    if inst.m < 4 and inst.m != 3:
        inst = pad_turns(inst, 5)
    if inst.m > 3:
        with _stage("three-turn"):
            res = parallelize_to_three(inst, check=verify_honest, config=config)
        stages.append(res)
        inst = res.instance

    with _stage("public-coin"):
        res = to_public_coin_3turn(inst, check=verify_honest, config=config)
    stages.append(res)
    inst = res.instance

    with _stage("one-round"):
        res = public_coin_to_one_round(inst, check=verify_honest, config=config)
    stages.append(res)
    inst = res.instance

    s_final = inst.meta.claimed_soundness
    p_prime = None
    if s_final is not None and s_final < 1.0:
        p_prime = 1.0 / (1.0 - s_final)
    return PipelineResult(inst, tuple(stages), s_final, p_prime)


PASSES = {
    "rewindable": make_perfectly_rewindable,
    "rewind": rewind_to_perfect_completeness,
    "halve": halve_turns,
    "three-turn": parallelize_to_three,
    "public-coin": to_public_coin_3turn,
    "one-round": public_coin_to_one_round,
    "direct-one-round": direct_two_turn,
    "seq-rep": sequential_repetition,
    "par-rep": parallel_repetition_fresh_provers,
}
