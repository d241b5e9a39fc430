"""Protocol transformations as compiler passes.

Each pass consumes a ProtocolInstance (verifier + honest provers + shared
state) and emits a new one together with a TransformReport. Claimed
completeness/soundness formulas are attached as metadata and evaluated from
the input's claims; they are never assumed true - tests measure honest values
and estimate adversarial values independently.

Passes that need a unitary verifier (rewinding, halving, public-coin, direct
two-turn, repetitions) purify coin turns first; this is the exact coherent
simulation of the coin and preserves acceptance probabilities.

A pass is a construction run by `_run_pass`: the construction builds the
output and names its formulas and honest-value identity; the runner purifies,
validates, measures and checks the identity to `RunConfig.probability_tol`
(1e-9 by default), and writes the report. `parallelize_to_three` is the one
pass that is not a construction: it composes halvings, which validate and
measure, and returns the last one's output under its own name.
Each pass simulates its input at most once, and `run_pipeline` runs each
protocol once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .adversary import optimal_shared_state
from .circuits import (Circuit, amplitude_rotation, mcx, swap_slices, toffoli,
                       unitary_gate, zero_phase_flip)
from .config import (DEFAULT_RUN_CONFIG, NORM_TOL, BudgetError,
                     NumericalCheckError, PreconditionError, RunConfig,
                     ValidationError, is_real)
from .linalg import ProjectorOp, Qubit, StateVector, tensor_states
from .model import (AcceptNowStep, AcceptRule, ApplyStep, CoinStep,
                    FinalDecision, InstanceMeta, ProtocolInstance,
                    ProverStrategy, Register, RegisterLayout,
                    Transcript, VerifierSpec, VerifierTurn, _fresh,
                    coin_steps, is_public_coin, purify_coins,
                    require_budget, run, validate)

DIM_CAP_NOTE = ("adversarial values are lower bounds at fixed prover "
                "dimension; no strategy found exceeding a bound does not "
                "certify the bound")

_B0 = ("b", "0")
_B1 = ("b", "1")


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

    def merged(steps, label: str, what: str) -> Circuit:
        out = Circuit((), label=label)
        for step in steps:
            if not isinstance(step, ApplyStep) or step.when is not None:
                raise PreconditionError(f"pass needs a unitary verifier ({what})")
            out = out + step.circuit
        return out

    circuits = [merged(turn.steps, f"V^{j+1}", "plain circuit turns")
                for j, turn in enumerate(spec.turns)]
    final = merged(spec.final.steps, "V^final", "plain final circuit")
    if len(spec.final.accept) != 1 or spec.final.accept[0].when is not None:
        raise PreconditionError("pass needs a single unconditional accept rule")
    return circuits, final, spec.final.accept[0].projectors


def _remap_projector(p: ProjectorOp, fn: Callable[[Qubit], Qubit]) -> ProjectorOp:
    if p.kind == "complement":
        return ProjectorOp.complement(_remap_projector(p.inner, fn))
    return ProjectorOp(p.kind, tuple(fn(q) for q in p.qubits))


def _block(reg: str, count: int, start: int = 0) -> list[Qubit]:
    """Qubits start .. start+count-1 of register `reg`."""
    return [(reg, start + x) for x in range(count)]


def _sizes(layout: RegisterLayout) -> tuple[int, int, int, list[int]]:
    """k, message qubits, verifier-side qubits and prover register sizes."""
    return (layout.k, layout.message_qubits,
            sum(r.qubits for r in layout.verifier_side),
            [r.qubits for r in layout.provers])


def _new_layout(verifier: Sequence[Register], messages: Sequence[int],
                provers: Sequence[int], msg: str = "M", prover: str = "P"
                ) -> RegisterLayout:
    """`verifier`, then registers <msg>i and <prover>i of the given sizes."""
    return RegisterLayout(
        tuple(verifier)
        + tuple(Register(f"{msg}{i+1}", size, "message")
                for i, size in enumerate(messages))
        + tuple(Register(f"{prover}{i+1}", size, "prover")
                for i, size in enumerate(provers)))


def _snapshot_after(tr: Transcript, turn: int) -> StateVector:
    """The honest state after `turn`, which must not depend on the branch,
    at its live width. Branches with the same known bits are compared on
    their live amplitudes, which gives the full states' max |diff|; others
    in full."""
    states = [s.state for s in tr.snapshots if s.turn == turn]
    if not states:
        raise PreconditionError(f"no snapshot recorded after turn {turn}")
    first = states[0]
    for other in states[1:]:
        # branches that fork after this turn carry identical prefixes
        if other.known == first.known:
            gap = np.abs(other.amplitudes - first.amplitudes).max()
        else:
            gap = np.abs(other.dense() - first.dense()).max()
        if gap > 1e-12:
            raise PreconditionError(
                f"snapshot after turn {turn} is branch-dependent; purify coins first")
    if abs(first.norm() - 1.0) > NORM_TOL:
        raise NumericalCheckError("snapshot state is not normalized")
    return first


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
        ProverStrategy(p.index, tuple(Circuit((), label="identity")
                                      for _ in range(new_p)) + p.circuits)
        for p in instance.provers)
    new_spec = replace(spec, m=target_m, turns=turns)
    return ProtocolInstance(new_spec, provers, instance.shared, instance.meta)


def _claims(instance: ProtocolInstance) -> tuple[float | None, float | None]:
    return (instance.meta.claimed_completeness, instance.meta.claimed_soundness)


def _claimed(c_formula: str, c: float | None,
             s_formula: str, s: float | None) -> dict:
    return {"completeness": {"formula": c_formula, "value": c},
            "soundness": {"formula": s_formula, "value": s}}


def _meta_with(instance: ProtocolInstance, suffix: str,
               c: float | None, s: float | None) -> InstanceMeta:
    m = instance.meta
    name = f"{m.name}+{suffix}" if m.name else suffix
    return replace(m, name=name, claimed_completeness=c, claimed_soundness=s)


# ---------------------------------------------------------------------------
# the pass runner


class _Built(NamedTuple):
    """A pass's construction and formulas, handed back to `_run_pass`:
    `expected` maps the honest input value to the honest output value,
    `claims` (default: the values in `claimed`) go to the output's meta,
    `verify` checks the validated output and `out_extras` reads the honest
    output run."""

    verifier: VerifierSpec
    provers: tuple[ProverStrategy, ...]
    shared: StateVector
    claimed: dict
    expected: Callable[[float], float] | None = None
    claims: tuple[float | None, float | None] | None = None
    warnings: tuple[str, ...] = ()
    extras: dict = {}               # read only; the runner adds dim_caveat
    verify: Callable[[ProtocolInstance], None] | None = None
    out_extras: Callable[[Transcript], dict] | None = None


def _run_pass(name: str, instance: ProtocolInstance, check: bool,
              config: RunConfig,
              build: Callable[..., _Built],
              prepare: Callable | None = _ensure_unitary,
              suffix: str | None = None,
              input_run: Transcript | None = None,
              keep_turns: Sequence[int] = ()
              ) -> tuple[TransformResult, Transcript | None]:
    """Run one pass: `prepare(instance, notes)` gives the input (default:
    coins purified), `build(inst, notes, snapshot)` the `_Built` output.
    `snapshot(turn, groups, zeroed)` is the honest state after `turn`, as
    `run` keeps it, written once into the new provers' register `groups`
    (`StateVector.placed`), with its known bits. The registers in `zeroed`,
    the old verifier's workspace, must be back at |0...0>; they are left
    out. Its run also gives the input's honest value, and only that float
    and the state outlive it. `input_run`, when given, is that run already
    made: a run of the input that kept its state after the turn read.

    Returns the result and, with `check`, the output's honest run, which
    keeps its states after `keep_turns` for a next pass's snapshot."""
    notes: list[str] = []
    inst = prepare(instance, notes) if prepare else instance
    measured: list[float] = []

    def snapshot(turn: int, groups: Sequence[tuple[str, Sequence[str]]],
                 zeroed: Sequence[str] = ()) -> StateVector:
        tr = input_run
        if tr is None:
            tr = run(inst, snapshot_turns=(turn,), config=config)
        measured.append(tr.acceptance)
        state = _snapshot_after(tr, turn)
        if zeroed and abs(state.norm(zeroed) - 1.0) > NORM_TOL:
            raise NumericalCheckError(
                f"verifier workspace not clean after turn {turn}")
        return state.placed(groups, zeroed)

    b = build(inst, notes, snapshot)
    claims = b.claims
    if claims is None:
        claims = (b.claimed["completeness"]["value"],
                  b.claimed["soundness"]["value"])
    out = ProtocolInstance(b.verifier, b.provers, b.shared,
                           _meta_with(inst, suffix or name, *claims))
    problems = validate(out)
    if problems:
        raise NumericalCheckError(f"{name} produced an invalid instance: "
                                  + "; ".join(problems))
    if b.verify is not None:
        b.verify(out)

    extras = {**b.extras, "dim_caveat": DIM_CAP_NOTE}
    honest_in = honest_out = tr = None
    if check:
        honest_in = measured[0] if measured else run(inst, config=config).acceptance
        tr = run(out, snapshot_turns=keep_turns, config=config)
        honest_out = tr.acceptance
        if b.out_extras is not None:
            extras.update(b.out_extras(tr))
        if b.expected is not None:
            expected = b.expected(honest_in)
            if abs(honest_out - expected) > config.probability_tol:
                raise NumericalCheckError(
                    f"{name} honest value {honest_out:.12f} != "
                    f"{b.claimed['completeness']['formula']} = {expected:.12f}")
    report = TransformReport(
        name, (inst.k, inst.m), (out.k, out.m), honest_in, honest_out,
        b.claimed, inst.verifier.layout.total_qubits,
        out.verifier.layout.total_qubits, tuple(b.warnings), tuple(notes),
        extras)
    return TransformResult(out, report), tr


# ---------------------------------------------------------------------------
# the forward-or-backward check shared by halving, public-coin and two-turn


def _remap(places: dict[str, tuple[str, int]], owner: str
           ) -> Callable[[Qubit], Qubit]:
    """Qubit x of register r goes to qubit start + x of register new, where
    places[r] = (new, start); `owner` names the circuit in errors."""
    def fn(qb: Qubit) -> Qubit:
        reg, x = qb
        if reg not in places:
            raise ValidationError(f"{owner} circuit touches {reg}")
        new, start = places[reg]
        return (new, start + x)
    return fn


def _packed(registers: Sequence[Register], target: str
            ) -> dict[str, tuple[str, int]]:
    """Places for `registers` on consecutive qubits of `target`."""
    places = {}
    start = 0
    for r in registers:
        places[r.name] = (target, start)
        start += r.qubits
    return places


def _verifier_map(layout: RegisterLayout, workspace: str, messages: str,
                  shift: int) -> Callable[[Qubit], Qubit]:
    """Old verifier-side registers packed into `workspace`; old message
    register i onto `{messages}{i}`, from qubit `shift` on."""
    return _remap({**_packed(layout.verifier_side, workspace),
                   **{m.name: (f"{messages}{i + 1}", shift)
                      for i, m in enumerate(layout.messages)}}, "verifier")


def _prover_map(layout: RegisterLayout, i: int, message: tuple[str, int],
                prover: tuple[str, int]) -> Callable[[Qubit], Qubit]:
    """Prover i's old message and private registers onto new places."""
    return _remap({layout.messages[i - 1].name: message,
                   layout.provers[i - 1].name: prover}, f"prover {i}")


def _forward_backward_check(ver_map: Callable[[Qubit], Qubit], v1: Circuit,
                            v_final: Circuit, accept: Sequence[ProjectorOp],
                            workspace: list[Qubit], record: Qubit, k: int,
                            received: str | None = None
                            ) -> tuple[tuple, FinalDecision]:
    """Opening steps (store the workspace when it arrives in message register
    `received`, then broadcast one coin bit b, recorded on `record`) and the
    final decision: on b = 0 V_final and the original accept, on b = 1 undo V1
    and accept iff the workspace is all-zero."""
    opening: tuple = (CoinStep("b", 1, recipients=tuple(range(1, k + 1)),
                               record=(record,)),)
    if received is not None:
        store = swap_slices(_block(received, len(workspace)), workspace)
        opening = (ApplyStep(Circuit(tuple(store),
                                     label="store received workspace")),
                   ) + opening
    final = FinalDecision(
        (ApplyStep(v_final.remap(ver_map), when=_B0),
         ApplyStep(v1.remap(ver_map).inverse(), when=_B1)),
        (AcceptRule(tuple(_remap_projector(p, ver_map) for p in accept), when=_B0),
         AcceptRule((ProjectorOp.all_zero(workspace),), when=_B1)))
    return opening, final


def _snapshot_groups(layout: RegisterLayout, prefix: str,
                     workspace_first: bool) -> list[tuple[str, list[str]]]:
    """The new provers' registers for the honest snapshot: prover i holds
    its old message and private registers, and the verifier-side registers
    go in front of prover 1 (`workspace_first`) or to an extra prover k+1."""
    v_names = [r.name for r in layout.verifier_side]
    groups = [(f"{prefix}{i + 1}", [m.name, p.name])
              for i, (m, p) in enumerate(zip(layout.messages, layout.provers))]
    if workspace_first:
        groups[0] = (groups[0][0], v_names + groups[0][1])
    else:
        groups.append((f"{prefix}{len(groups) + 1}", v_names))
    return groups


def _halving_terms(inst: ProtocolInstance, statement: str) -> dict:
    """Formulas, warning and identity of a forward-or-backward check pass."""
    c_in, s_in = _claims(inst)
    warnings = ()
    if c_in is not None and s_in is not None and c_in ** 2 <= s_in:
        warnings = ("claimed completeness^2 does not exceed claimed "
                    f"soundness; the {statement} statement assumes c^2 > s",)
    return {"claimed": _claimed(
                "(1+c)/2", None if c_in is None else (1.0 + c_in) / 2.0,
                "(1+sqrt(s))/2",
                None if s_in is None else (1.0 + math.sqrt(s_in)) / 2.0),
            "expected": lambda c: (1.0 + c) / 2.0,
            "warnings": warnings}


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
    if p_max is not None and not (is_real(p_max) and math.isfinite(p_max)
                                  and p_max <= 1.0):
        raise ValidationError(f"p_max must be finite and <= 1, got {p_max!r}")

    def build(inst, notes, snapshot):
        spec = inst.verifier
        if spec.m < 2:
            raise PreconditionError(
                "needs at least one verifier message turn (m >= 2)")
        _, _, accept = _standard_components(inst)
        if len(accept) != 1 or accept[0].kind != "output_one":
            raise PreconditionError(
                "needs a standard-form input (acceptance reads one output qubit)")
        layout = spec.layout
        _, s_in = _claims(inst)

        computed_p, phi_star = optimal_shared_state(spec, inst.provers,
                                                    config=config, check=check)
        p = p_max
        if p is None:
            if not check:
                raise PreconditionError(
                    "p_max must be supplied when honest verification is disabled")
            p = computed_p
        elif check and abs(p - computed_p) > 1e-6:
            raise PreconditionError(
                f"supplied p_max {p:.9f} inconsistent with the measured honest "
                f"optimum {computed_p:.9f} (beyond 1e-6)")
        if p < 0.5 - 1e-12:
            raise PreconditionError(
                f"requires honest optimum at least 1/2, got p_max = {p:.9f}")

        warnings = ()
        if s_in is not None and s_in >= 0.5:
            warnings = ("claimed soundness >= 1/2; the rewindability statement "
                        "assumes soundness below 1/2",)

        taken = {r.name for r in layout.registers}
        b_name = _fresh("B", taken)
        x_name = _fresh("XW", taken)
        q = layout.message_qubits
        v_regs = layout.verifier_side + (Register(b_name, 1, "verifier"),
                                         Register(x_name, 1, "verifier"))
        messages = tuple(Register(r.name, q + 1, "message")
                         for r in layout.messages)
        new_layout = RegisterLayout(v_regs + messages + layout.provers)

        b_slot: Qubit = (layout.messages[0].name, q)
        turns = list(spec.turns)
        turns[-1] = VerifierTurn(turns[-1].steps + (
            ApplyStep(Circuit(tuple(swap_slices([(b_name, 0)], [b_slot])),
                              label="route flag to prover 1")),))
        new_final = FinalDecision(
            spec.final.steps + (
                ApplyStep(Circuit((toffoli(b_slot, accept[0].qubits[0],
                                           (x_name, 0)),),
                                  label="flag AND original output")),),
            (AcceptRule((ProjectorOp.output_one((x_name, 0)),)),))
        new_spec = VerifierSpec(new_layout, spec.m, tuple(turns), new_final,
                                output_qubit=(x_name, 0))

        t_gate = unitary_gate(
            amplitude_rotation(min(1.0, 1.0 / (2.0 * p))), (b_slot,))
        provers = []
        for pr in inst.provers:
            circuits = list(pr.circuits)
            if pr.index == 1:
                circuits[-1] = circuits[-1] + Circuit((t_gate,),
                                                      label="flag rotation")
            provers.append(ProverStrategy(pr.index, tuple(circuits)))

        return _Built(new_spec, tuple(provers), phi_star,
                      _claimed("exactly 1/2 at the optimal shared state", 0.5,
                               "s (unchanged)", s_in),
                      warnings=warnings, extras={"p_max": p}, verify=verify)

    def verify(out: ProtocolInstance) -> None:
        if check:
            p_out, _ = optimal_shared_state(out.verifier, out.provers,
                                            config=config)
            if abs(p_out - 0.5) > config.probability_tol:
                raise NumericalCheckError(
                    f"rewindable optimum is {p_out:.12f}, expected 0.5")

    return _run_pass("rewindable", instance, check, config, build)[0]


# ---------------------------------------------------------------------------
# rewinding to perfect completeness


def _purified_even(instance: ProtocolInstance, notes: list[str]
                   ) -> ProtocolInstance:
    inst = _ensure_unitary(instance, notes)
    if inst.m % 2 == 1:
        inst = pad_turns(inst, inst.m + 1)
        notes.append("odd turn count padded with one dummy verifier turn")
    return inst


def _rewind_routes(tr: Transcript) -> dict:
    """p1, p2 from the rewinding branch (b = 0), p3 from the invertibility
    branch (b = 1)."""
    extras = {}
    for rec in tr.branches:
        if _B0 in rec.coins:
            extras["p1"] = rec.event_probs[0] if rec.event_probs else 0.0
            extras["p2"] = rec.final_prob
        else:
            extras["p3"] = rec.event_probs[0] if rec.event_probs else 0.0
    return extras


def rewind_to_perfect_completeness(instance: ProtocolInstance,
                                   check: bool = True,
                                   config: RunConfig = DEFAULT_RUN_CONFIG
                                   ) -> TransformResult:
    """Forward, backward, forward execution with a phase flip on the all-zero
    start subspace, guarded by a fifty-fifty choice between the rewinding test
    and the invertibility test. Requires a perfectly rewindable input."""

    def build(inst, notes, snapshot):
        spec = inst.verifier
        m = spec.m
        half = m // 2
        layout = spec.layout
        _, s_in = _claims(inst)
        if check:
            p_opt, _ = optimal_shared_state(spec, inst.provers, config=config)
            if abs(p_opt - 0.5) > config.probability_tol:
                raise PreconditionError(
                    f"requires honest optimum exactly 1/2 (perfectly "
                    f"rewindable), got {p_opt:.12f}")

        v_circuits, v_final, accept = _standard_components(inst)
        vm_qubits = layout.verifier_message_qubits()
        flip = Circuit(tuple(zero_phase_flip(vm_qubits)),
                       label="phase flip on start")

        new_turns: list[VerifierTurn] = []
        # first forward phase
        for j in range(half):
            new_turns.append(VerifierTurn((ApplyStep(v_circuits[j]),)))
        # decision turn: simulate the final test, bank acceptance, undo
        new_turns.append(VerifierTurn((
            CoinStep("b", 1, recipients=()),
            ApplyStep(v_final, when=_B0),
            AcceptNowStep(accept, when=_B0),
            ApplyStep(v_final.inverse(), when=_B0),
        )))
        # backward phase
        for r in range(1, half):
            new_turns.append(VerifierTurn((
                ApplyStep(v_circuits[half - r].inverse()),)))
        new_turns.append(VerifierTurn((
            ApplyStep(v_circuits[0].inverse()),
            ApplyStep(flip, when=_B0),
            AcceptNowStep((ProjectorOp.all_zero(vm_qubits),), when=_B1),
            ApplyStep(v_circuits[0], when=_B0),
        )))
        # second forward phase
        for r in range(1, half):
            new_turns.append(VerifierTurn((ApplyStep(v_circuits[r], when=_B0),)))

        final = FinalDecision(
            (ApplyStep(v_final, when=_B0),),
            (AcceptRule(accept, when=_B0),
             AcceptRule((ProjectorOp.never(),), when=_B1)))
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
        warnings = ()
        if s_in is not None and s_in >= 1.0 / 25.0:
            warnings = ("claimed soundness >= 1/25; the soundness bound "
                        "formula needs soundness below 1/25",)
        return _Built(
            new_spec, tuple(provers), inst.shared,
            _claimed("1 (perfect)", 1.0, "1/2 + 2*sqrt(s) + 5s/2", s_formula),
            expected=lambda c: 1.0,
            claims=(1.0, None if s_formula is None else min(1.0, s_formula)),
            warnings=warnings, out_extras=_rewind_routes)

    return _run_pass("rewind", instance, check, config, build,
                     prepare=_purified_even)[0]


# ---------------------------------------------------------------------------
# halving the number of turns


def halve_turns(instance: ProtocolInstance, check: bool = True,
                config: RunConfig = DEFAULT_RUN_CONFIG) -> TransformResult:
    """Receive the mid-protocol snapshot as the first message, then run a
    fifty-fifty forward or backward simulation of the second half."""

    def build(inst, notes, snapshot):
        spec = inst.verifier
        m = spec.m
        if m < 5 or (m - 1) % 4 != 0:
            raise PreconditionError(
                f"turn count must be of the form 4m+1 with m >= 1, got {m}")
        m0 = (m - 1) // 4
        layout = spec.layout
        k, q, n_v, p_sizes = _sizes(layout)
        v_circuits, v_final, accept = _standard_components(inst)
        # v_circuits has 2*m0 entries; v_final is circuit 2*m0+1
        new_layout = _new_layout(
            (Register("VS", n_v, "verifier"), Register("QH", 1, "verifier")),
            [n_v + q] * k, [n_v + q + p_sizes[0]] + [q + s for s in p_sizes[1:]])

        ver_map = _verifier_map(layout, "VS", "M", n_v)
        opening, final = _forward_backward_check(
            ver_map, v_circuits[0], v_final, accept, _block("VS", n_v),
            ("QH", 0), k, received="M1")
        new_turns: list[VerifierTurn] = [VerifierTurn(opening + (
            ApplyStep(v_circuits[m0].remap(ver_map), when=_B0),))]
        for j in range(2, m0 + 1):
            new_turns.append(VerifierTurn((
                ApplyStep(v_circuits[m0 + j - 1].remap(ver_map), when=_B0),
                ApplyStep(v_circuits[m0 - j + 1].remap(ver_map).inverse(),
                          when=_B1),
            )))
        new_spec = VerifierSpec(new_layout, 2 * m0 + 1, tuple(new_turns), final)

        # honest provers: inject the snapshot, then simulate forward or backward
        provers = []
        for p in inst.provers:
            i = p.index
            # prover 1 also carries the workspace
            width, start = (n_v + q, 0) if i == 1 else (q, n_v)
            fn = _prover_map(layout, i, (f"M{i}", n_v), (f"P{i}", width))
            inject = swap_slices(_block(f"P{i}", width),
                                 _block(f"M{i}", width, start))
            circuits = [Circuit(tuple(inject), label="send snapshot slices")]
            for j in range(1, m0 + 1):
                fwd = p.circuits[m0 + j].remap(fn).controlled(
                    (((f"M{i}", 0), 0),))
                bwd = p.circuits[m0 - j + 1].inverse().remap(fn).controlled(
                    (((f"M{i}", 0), 1),))
                circuits.append(Circuit(fwd.gates + bwd.gates,
                                        label=f"simulate turn pair {j}"))
            provers.append(ProverStrategy(i, tuple(circuits)))

        shared = snapshot(2 * m0 + 1, _snapshot_groups(layout, "P",
                                                       workspace_first=True))
        return _Built(new_spec, tuple(provers), shared,
                      **_halving_terms(inst, "halving"))

    return _run_pass("halve", instance, check, config, build)[0]


# ---------------------------------------------------------------------------
# cascading to three turns


def parallelize_to_three(instance: ProtocolInstance, check: bool = True,
                         config: RunConfig = DEFAULT_RUN_CONFIG
                         ) -> TransformResult:
    """Pad to 2^(l+1)+1 turns and halve l times, ending at three turns.

    The halvings validate and measure every protocol they build. The
    output is the last halving's under this pass's name, with that
    halving's claims, so nothing is validated or run again here."""
    m = instance.m
    if m < 4:
        raise PreconditionError(f"needs at least 4 turns, got {m}")
    c_in, s_in = _claims(instance)
    eps = None if c_in is None else 1.0 - c_in
    dlt = None if s_in is None else 1.0 - s_in
    warnings = ()
    if eps is not None and dlt is not None and dlt <= 2 * (m - 1) * eps:
        warnings = ("gap condition violated: 1-s must exceed 2(m-1)(1-c); "
                    "the three-turn statement's formulas are not implied",)

    l = 1
    while 2 ** (l + 1) + 1 < m:
        l += 1
    target = 2 ** (l + 1) + 1
    notes = ()
    out = instance
    if target != m:
        out = pad_turns(out, target)
        notes = (f"padded from {m} to {target} turns with dummy turns",)
    sub_reports = []
    for _ in range(l):
        res = halve_turns(out, check=check, config=config)
        sub_reports.append(res.report)
        out = res.instance

    claimed = _claimed(
        "1 - 2(1-c)/(m-1)", None if eps is None else 1.0 - 2 * eps / (m - 1),
        "1 - (1-s)/(m-1)^2", None if dlt is None else 1.0 - dlt / (m - 1) ** 2)
    c_out, s_out = _claims(out)
    claimed["composed"] = {"formula": "l-fold (1+c)/2 and (1+sqrt(s))/2",
                           "completeness": c_out, "soundness": s_out}
    report = TransformReport(
        "three-turn", (instance.k, m), (out.k, out.m),
        sub_reports[0].input_honest, sub_reports[-1].output_honest, claimed,
        instance.verifier.layout.total_qubits,
        out.verifier.layout.total_qubits, warnings, notes,
        {"halvings": l, "sub_reports": [r.as_dict() for r in sub_reports],
         "dim_caveat": DIM_CAP_NOTE})
    meta = _meta_with(instance, "three-turn", c_out, s_out)
    return TransformResult(replace(out, meta=meta), report)


# ---------------------------------------------------------------------------
# public-coin conversion


def _require_public_coin(out: ProtocolInstance) -> None:
    if not is_public_coin(out.verifier):
        raise NumericalCheckError("output failed the public-coin structure check")


def to_public_coin_3turn(instance: ProtocolInstance, check: bool = True,
                         config: RunConfig = DEFAULT_RUN_CONFIG
                         ) -> TransformResult:
    """Three-turn to three-turn public-coin: the verifier's workspace travels
    as the first message, a single broadcast bit selects forward or backward
    checking."""
    return _run_pass("public-coin", instance, check, config, _public_coin)[0]


def _public_coin(inst: ProtocolInstance, notes: list[str],
                 snapshot: Callable) -> _Built:
    """The construction of `to_public_coin_3turn`."""
    spec = inst.verifier
    if spec.m != 3:
        raise PreconditionError(f"input must have 3 turns, got {spec.m}")
    layout = spec.layout
    k, q, n_v, p_sizes = _sizes(layout)
    v_circuits, v_final, accept = _standard_components(inst)
    new_layout = _new_layout(
        (Register("VS", n_v, "verifier"), Register("QPC", 1, "verifier")),
        [max(n_v, q)] * k, [n_v + q + p_sizes[0]] + [q + s for s in p_sizes[1:]])

    opening, final = _forward_backward_check(
        _verifier_map(layout, "VS", "M", 0), v_circuits[0], v_final,
        accept, _block("VS", n_v), ("QPC", 0), k, received="M1")
    new_spec = VerifierSpec(new_layout, 3, (VerifierTurn(opening),), final)

    provers = []
    for p in inst.provers:
        i = p.index
        # prover 1 keeps the workspace in front of its old message
        answer_off = n_v if i == 1 else 0
        fn = _prover_map(layout, i, (f"P{i}", answer_off),
                         (f"P{i}", answer_off + q))
        if i == 1:
            first = Circuit(tuple(swap_slices(_block("P1", n_v),
                                              _block("M1", n_v))),
                            label="send workspace")
        else:
            first = Circuit((), label="send nothing")
        play = p.circuits[1].remap(fn).controlled((((f"M{i}", 0), 0),))
        hand_over = swap_slices(_block(f"P{i}", q, answer_off),
                                _block(f"M{i}", q))
        second = Circuit(play.gates + tuple(hand_over),
                         label="answer on broadcast 0, play back message")
        provers.append(ProverStrategy(i, (first, second)))

    shared = snapshot(2, _snapshot_groups(layout, "P",
                                          workspace_first=True))
    return _Built(new_spec, tuple(provers), shared,
                  **_halving_terms(inst, "public-coin"),
                  extras={"coin_bits": 1}, verify=_require_public_coin)


# ---------------------------------------------------------------------------
# one-round conversions


def public_coin_to_one_round(instance: ProtocolInstance, check: bool = True,
                             config: RunConfig = DEFAULT_RUN_CONFIG
                             ) -> TransformResult:
    """Three-turn public-coin to two turns with one extra prover, preserving
    completeness and soundness exactly: the extra prover supplies the original
    first messages unprompted."""
    return _run_pass("one-round", instance, check, config, _one_round,
                     prepare=None)[0]


def _one_round(inst: ProtocolInstance, notes: list[str],
               snapshot: Callable) -> _Built:
    """The construction of `public_coin_to_one_round`."""
    spec = inst.verifier
    if spec.m != 3:
        raise PreconditionError(f"input must have 3 turns, got {spec.m}")
    if not is_public_coin(spec):
        raise PreconditionError("input verifier is not public-coin")
    layout = spec.layout
    k, q, _, p_sizes = _sizes(layout)

    turn = spec.turns[0]
    pre_steps = turn.steps[:-1]
    coin: CoinStep = turn.steps[-1]
    f = coin.flips
    old_msgs = [r.name for r in layout.messages]
    new_layout = _new_layout(layout.verifier_side, [max(f, q, k * q)] * (k + 1),
                             p_sizes + [k * q], "N", "R")
    # the extra prover's bundle of first messages, and the answers
    keep = {r.name: (r.name, 0) for r in layout.verifier_side}
    bundle_map = _remap({**keep, **_packed(layout.messages, f"N{k+1}")},
                        "verifier")
    answer_map = _remap({**keep, **{m: (f"N{i+1}", 0)
                                    for i, m in enumerate(old_msgs)}},
                        "verifier")

    def remap_condition(when) -> tuple[str, str] | None:
        if when is None:
            return None
        return ("r", when[1]) if when[0] == coin.coin_id else when

    new_turn = VerifierTurn((
        CoinStep("r", f, recipients=tuple(range(1, k + 1)),
                 record=coin.record),))
    final_steps: list[ApplyStep] = [
        ApplyStep(s.circuit.remap(bundle_map), when=remap_condition(s.when))
        for s in pre_steps]
    for s in spec.final.steps:
        if not isinstance(s, ApplyStep):
            raise PreconditionError(
                "input final circuit must be measurement-free")
        final_steps.append(ApplyStep(s.circuit.remap(answer_map),
                                     when=remap_condition(s.when)))
    accept = tuple(
        AcceptRule(tuple(_remap_projector(p, answer_map)
                         for p in rule.projectors),
                   when=remap_condition(rule.when))
        for rule in spec.final.accept)
    new_spec = VerifierSpec(new_layout, 2, (new_turn,),
                            FinalDecision(tuple(final_steps), accept),
                            output_qubit=spec.output_qubit)

    provers = []
    for p in inst.provers:
        i = p.index
        fn = _prover_map(layout, i, (f"N{i}", 0), (f"R{i}", 0))
        provers.append(ProverStrategy(i, (p.circuits[1].remap(fn),)))
    hand_over = swap_slices(_block(f"R{k+1}", k * q), _block(f"N{k+1}", k * q))
    provers.append(ProverStrategy(
        k + 1, (Circuit(tuple(hand_over), label="send stored first messages"),)))

    groups = [(f"R{i+1}", [layout.provers[i].name]) for i in range(k)]
    groups.append((f"R{k+1}", old_msgs))
    # the verifier side must still be |0...0> after the provers' first turn
    shared = snapshot(1, groups, zeroed=[r.name for r in layout.verifier_side])
    c_in, s_in = _claims(inst)
    return _Built(new_spec, tuple(provers), shared,
                  _claimed("c (preserved)", c_in, "s (preserved)", s_in),
                  expected=lambda c: c)


def direct_two_turn(instance: ProtocolInstance, check: bool = True,
                    config: RunConfig = DEFAULT_RUN_CONFIG) -> TransformResult:
    """Three-turn to two turns with one extra prover, directly: the extra
    prover sends the verifier's workspace, the broadcast bit selects the
    forward or backward check."""

    def build(inst, notes, snapshot):
        spec = inst.verifier
        if spec.m != 3:
            raise PreconditionError(f"input must have 3 turns, got {spec.m}")
        layout = spec.layout
        k, q, n_v, p_sizes = _sizes(layout)
        v_circuits, v_final, accept = _standard_components(inst)
        new_layout = _new_layout((Register("QD", 1, "verifier"),),
                                 [max(q, n_v)] * (k + 1),
                                 [q + s for s in p_sizes] + [n_v], "N", "R")

        workspace = f"N{k+1}"
        opening, final = _forward_backward_check(
            _verifier_map(layout, workspace, "N", 0), v_circuits[0], v_final,
            accept, _block(workspace, n_v), ("QD", 0), k)
        new_spec = VerifierSpec(new_layout, 2, (VerifierTurn(opening),), final)

        provers = []
        for p in inst.provers:
            i = p.index
            fn = _prover_map(layout, i, (f"R{i}", 0), (f"R{i}", q))
            play = p.circuits[1].remap(fn).controlled((((f"N{i}", 0), 0),))
            hand_over = swap_slices(_block(f"R{i}", q), _block(f"N{i}", q))
            provers.append(ProverStrategy(
                i, (Circuit(play.gates + tuple(hand_over),
                            label="answer on broadcast 0"),)))
        hand_v = swap_slices(_block(f"R{k+1}", n_v), _block(workspace, n_v))
        provers.append(ProverStrategy(
            k + 1, (Circuit(tuple(hand_v), label="send workspace"),)))

        shared = snapshot(2, _snapshot_groups(layout, "R",
                                              workspace_first=False))
        return _Built(new_spec, tuple(provers), shared,
                      **_halving_terms(inst, "two-turn"))

    return _run_pass("direct-one-round", instance, check, config, build)[0]


# ---------------------------------------------------------------------------
# repetitions


def _copy_blocks(name: str, instance: ProtocolInstance, n: int, check: bool,
                 config: RunConfig, parallel: bool,
                 soundness: tuple[str, str], build: Callable
                 ) -> TransformResult:
    """n copies on fresh register blocks, accepting iff every copy accepts
    (XS); n = 1 returns the input unchanged. Copy c's message and prover
    registers are block c of widened M_i, P_i, or (`parallel`) new M_j, P_j
    with j = (c-1)k + i. `build(inst, v_circuits, v_final, copy_map, notes)`
    gives the turns, turn count and final circuits; `soundness` is
    the formula for n = 1 and for n > 1."""
    if n < 1:
        raise PreconditionError("repetition count must be >= 1")
    if n == 1:
        c_in, s_in = _claims(instance)
        qubits = instance.verifier.layout.total_qubits
        report = TransformReport(
            name, (instance.k, instance.m), (instance.k, instance.m),
            None, None, _claimed("c^n", c_in, soundness[0], s_in),
            qubits, qubits, (), ("n = 1: instance unchanged",), {})
        return TransformResult(instance, report)

    def build_copies(inst, notes, snapshot):
        if any(isinstance(step, AcceptNowStep)
               for turn in inst.verifier.turns for step in turn.steps):
            raise PreconditionError("repetition needs measurement-free copies "
                                    "(no mid-protocol accept events)")
        v_circuits, v_final, accept = _standard_components(inst)
        if len(accept) != 1 or accept[0].kind != "output_one":
            raise PreconditionError(
                "repetition needs standard-form copies (one output qubit)")
        layout = inst.verifier.layout
        k, q, _, p_sizes = _sizes(layout)
        old_prov = [r.name for r in layout.provers]

        taken: set[str] = set()
        v_copy_names = [{r.name: _fresh(f"{r.name}_c{c}", taken)
                         for r in layout.verifier_side}
                        for c in range(1, n + 1)]
        v_regs = [Register(names[r.name], r.qubits, "verifier")
                  for names in v_copy_names for r in layout.verifier_side]
        xs = _fresh("XS", taken)
        v_regs.append(Register(xs, 1, "verifier"))
        # parallel: one register per copy and prover; else one block per copy
        count, width = (n * k, 1) if parallel else (k, n)
        new_layout = _new_layout(v_regs, [width * q] * count,
                                 [width * p_sizes[j % k] for j in range(count)])
        if check:
            # the honest run would refuse this layout: fail before the
            # tensor power of the shared state is built
            require_budget(new_layout, config)
        shared = inst.shared
        live = n * (shared.n_qubits - len(shared.known))
        if live > config.max_qubits:
            raise BudgetError(
                f"the {n}-fold tensor power of the shared state has {live} "
                f"live qubits, which exceed the configured budget "
                f"({config.max_qubits})")

        def slot(c: int, i: int) -> tuple[int, int]:
            """New register number and block of copy c's prover i (0-based)."""
            return ((c - 1) * k + i + 1, 0) if parallel else (i + 1, c - 1)

        def copy_map(c: int) -> Callable[[Qubit], Qubit]:
            places = {r: (new, 0) for r, new in v_copy_names[c - 1].items()}
            for i in range(k):
                j, blk = slot(c, i)
                places[layout.messages[i].name] = (f"M{j}", blk * q)
                places[old_prov[i]] = (f"P{j}", blk * p_sizes[i])
            return _remap(places, f"copy {c}")

        turns, m_new, finals = build(inst, v_circuits, v_final, copy_map, notes)
        outs = tuple((copy_map(c)(accept[0].qubits[0]), 1)
                     for c in range(1, n + 1))
        final = FinalDecision(
            (ApplyStep(finals),
             ApplyStep(Circuit((mcx(outs, (xs, 0)),), label="all copies accept"))),
            (AcceptRule((ProjectorOp.output_one((xs, 0)),)),))
        new_spec = VerifierSpec(new_layout, m_new, tuple(turns), final,
                                output_qubit=(xs, 0))

        # new prover j plays (and holds the shared state of) the old provers
        # that slot(c, i) sends to it, in copy order
        power = None
        circuits: dict[int, list[Circuit]] = {}
        groups: dict[str, list[str]] = {}
        for c in range(1, n + 1):
            copy = StateVector(shared.amplitudes,
                               tuple((f"{nm}_c{c}", sz)
                                     for nm, sz in shared.layout),
                               known=tuple(((f"{r}_c{c}", j), bit)
                                           for (r, j), bit in shared.known))
            power = copy if power is None else tensor_states(power, copy)
            for i, p in enumerate(inst.provers):
                j = slot(c, i)[0]
                circuits.setdefault(j, []).extend(
                    circ.remap(copy_map(c)) for circ in p.circuits)
                groups.setdefault(f"P{j}", []).append(f"{old_prov[i]}_c{c}")
        provers = [ProverStrategy(j, tuple(cs)) for j, cs in circuits.items()]
        shared = power.placed(list(groups.items()))

        c, s = _claims(inst)
        return _Built(new_spec, tuple(provers), shared,
                      _claimed("c^n", None if c is None else c ** n,
                               soundness[1], None if s is None else s ** n),
                      expected=lambda h: h ** n, extras={"n": n})

    return _run_pass(name, instance, check, config, build_copies,
                     suffix=f"{name}{n}")[0]


def sequential_repetition(instance: ProtocolInstance, n: int,
                          check: bool = True,
                          config: RunConfig = DEFAULT_RUN_CONFIG
                          ) -> TransformResult:
    """Run n copies one after another on fresh register blocks; accept iff
    every copy accepts."""

    def build(inst, v_circuits, v_final, copy_map, notes):
        m = inst.m
        seam = m % 2 == 1
        if seam:
            notes.append("odd copies separated by dummy verifier turns")
        new_turns: list[VerifierTurn] = []
        for c in range(1, n + 1):
            fn = copy_map(c)
            carry: tuple[ApplyStep, ...] = ()
            if c > 1:
                # the previous copy's final circuit opens this copy
                carry = (ApplyStep(v_final.remap(copy_map(c - 1))),)
                if seam:
                    new_turns.append(VerifierTurn(carry))
                    carry = ()
            for circ in v_circuits:
                new_turns.append(VerifierTurn(carry + (ApplyStep(circ.remap(fn)),)))
                carry = ()
        return (new_turns, n * m + (n - 1 if seam else 0),
                v_final.remap(copy_map(n)))

    return _copy_blocks("seq-rep", instance, n, check, config, False,
                        ("s^n (audited, not asserted)",
                         "s^n (audited empirically, not asserted)"), build)


def parallel_repetition_fresh_provers(instance: ProtocolInstance, n: int,
                                      check: bool = True,
                                      config: RunConfig = DEFAULT_RUN_CONFIG
                                      ) -> TransformResult:
    """Run n copies in parallel, each served by a fresh prover group; accept
    iff every copy accepts. Turn count unchanged, k' = n*k."""

    def build(inst, v_circuits, v_final, copy_map, notes):
        new_turns = []
        for j, circ in enumerate(v_circuits):
            merged = Circuit((), label=f"V^{j+1} x{n}")
            for c in range(1, n + 1):
                merged = merged + circ.remap(copy_map(c))
            new_turns.append(VerifierTurn((ApplyStep(merged),)))
        finals = Circuit((), label="finals")
        for c in range(1, n + 1):
            finals = finals + v_final.remap(copy_map(c))
        return new_turns, inst.m, finals

    return _copy_blocks("par-rep", instance, n, check, config, True,
                        ("s^n under group-local strategies (audited)",
                         "s^n under group-local strategies (audited); "
                         "cross-group entanglement recorded, not bounded"),
                        build)


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


def run_pipeline(instance: ProtocolInstance, check: bool = True,
                 config: RunConfig = DEFAULT_RUN_CONFIG) -> PipelineResult:
    """Perfect completeness, three turns, public coin, one round - in order.

    The perfect-completeness stages are skipped when the file already claims
    (and, on yes-instances, measurably has) completeness 1: the rewinding
    construction's register growth makes the full chain infeasible at desk
    scale otherwise, and the remaining stages preserve perfect completeness.

    Each protocol is run once: the public-coin output's honest run keeps
    its state after turn 1 and is handed to the one-round pass as its
    input run.
    """
    c_in, s_in = _claims(instance)
    if c_in is None or s_in is None:
        raise PreconditionError("stage rewindable: claimed completeness and "
                                "soundness metadata are required")
    if c_in - s_in <= 0:
        raise PreconditionError(
            "stage rewindable: completeness does not exceed soundness (gap <= 0)")
    stages: list[TransformResult] = []
    verify_honest = check and instance.meta.role != "no"
    # the public-coin output's honest run, which keeps its state after turn
    # 1: it is also the one-round pass's input run
    handed: Transcript | None = None

    def public_coin(inst, check, config) -> TransformResult:
        nonlocal handed
        res, handed = _run_pass("public-coin", inst, check, config,
                                _public_coin, keep_turns=(1,))
        return res

    def one_round(inst, check, config) -> TransformResult:
        return _run_pass("one-round", inst, check, config, _one_round,
                         prepare=None, input_run=handed)[0]

    def stage(name: str, fn: Callable, inst: ProtocolInstance, **kw
              ) -> ProtocolInstance:
        """Run one pass; its precondition or numerical-check error gets the
        stage name as prefix and keeps its class (and so the CLI exit code)."""
        try:
            res = fn(inst, check=verify_honest, config=config, **kw)
        except (PreconditionError, NumericalCheckError) as e:
            raise type(e)(f"stage {name}: {e}") from e
        stages.append(res)
        return res.instance

    inst = instance
    if c_in < 1.0:
        inst = stage("rewindable", make_perfectly_rewindable, inst,
                     p_max=None if verify_honest else c_in)
        inst = stage("rewind", rewind_to_perfect_completeness, inst)
    if inst.m < 4 and inst.m != 3:
        inst = pad_turns(inst, 5)
    if inst.m > 3:
        inst = stage("three-turn", parallelize_to_three, inst)
    inst = stage("public-coin", public_coin, inst)
    inst = stage("one-round", one_round, inst)

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
