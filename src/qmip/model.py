"""Protocol data model and exact execution.

A protocol instance is a verifier (per-turn step lists plus a final decision),
one strategy per prover, and an a-priori shared state on the prover registers.
Turn parity follows the standard convention: with an even number of turns the
verifier moves first, with an odd number the provers do, and the last turn
always belongs to the provers; the verifier's final circuit and measurement
come after the last turn.

Verifier coins are executed by exact branch enumeration: a coin step with f
flips splits each live branch into 2^f branches of equal weight, XOR-writes
the outcome into the leading qubits of the recipients' message registers (and
optionally into a verifier-side record register), and later steps or accept
rules may be conditioned on the outcome. Prover circuits can never be
conditioned on a coin: provers only see what physically lands in their
registers.

Mid-protocol accept-or-continue tests are accept events: the accepting
component's probability mass is banked and execution continues on the
orthogonal complement, unnormalized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .circuits import Circuit, Gate, apply_gate, cnot, h as h_gate, mcx, x as x_gate
from .config import (DEFAULT_RUN_CONFIG, BudgetError, PreconditionError,
                     RunConfig, ValidationError)
from .linalg import (ProjectorOp, Qubit, StateVector, project, tensor_states,
                     zero_state)

# ---------------------------------------------------------------------------
# registers


@dataclass(frozen=True)
class Register:
    name: str
    qubits: int
    role: str  # "verifier" | "message" | "prover"

    def __post_init__(self):
        if self.role not in ("verifier", "message", "prover"):
            raise ValidationError(f"unknown register role {self.role!r}")
        if self.qubits < 1:
            raise ValidationError(f"register {self.name} must have >= 1 qubit")


@dataclass(frozen=True)
class RegisterLayout:
    """Canonically ordered registers: verifier side, then M_1..M_k, then P_1..P_k."""

    registers: tuple[Register, ...]

    def __post_init__(self):
        object.__setattr__(self, "registers", tuple(self.registers))
        roles = [r.role for r in self.registers]
        names = [r.name for r in self.registers]
        if len(set(names)) != len(names):
            raise ValidationError("register names not unique")
        order = {"verifier": 0, "message": 1, "prover": 2}
        if [order[r] for r in roles] != sorted(order[r] for r in roles):
            raise ValidationError(
                "registers must be ordered verifier side, messages, provers")
        if len(self.messages) != len(self.provers):
            raise ValidationError("need one message register per prover")
        if not self.messages:
            raise ValidationError("need at least one prover")

    @property
    def verifier_side(self) -> tuple[Register, ...]:
        return tuple(r for r in self.registers if r.role == "verifier")

    @property
    def messages(self) -> tuple[Register, ...]:
        return tuple(r for r in self.registers if r.role == "message")

    @property
    def provers(self) -> tuple[Register, ...]:
        return tuple(r for r in self.registers if r.role == "prover")

    @property
    def k(self) -> int:
        return len(self.provers)

    @property
    def message_qubits(self) -> int:
        return self.messages[0].qubits

    @property
    def total_qubits(self) -> int:
        return sum(r.qubits for r in self.registers)

    def as_state_layout(self) -> tuple[tuple[str, int], ...]:
        return tuple((r.name, r.qubits) for r in self.registers)

    def register(self, name: str) -> Register:
        for r in self.registers:
            if r.name == name:
                return r
        raise ValidationError(f"unknown register {name!r}")

    def qubits_of(self, name: str) -> list[Qubit]:
        return [(name, i) for i in range(self.register(name).qubits)]

    def verifier_message_qubits(self) -> list[Qubit]:
        out: list[Qubit] = []
        for r in self.verifier_side + self.messages:
            out.extend((r.name, i) for i in range(r.qubits))
        return out


def make_layout(verifier: Sequence[tuple[str, int]],
                message_qubits: int, k: int,
                prover_qubits: Sequence[int]) -> RegisterLayout:
    regs = [Register(n, q, "verifier") for n, q in verifier]
    regs += [Register(f"M{i+1}", message_qubits, "message") for i in range(k)]
    regs += [Register(f"P{i+1}", int(prover_qubits[i]), "prover") for i in range(k)]
    return RegisterLayout(tuple(regs))


# ---------------------------------------------------------------------------
# verifier steps


Condition = tuple[str, str]  # (coin id, outcome bits); None means unconditional


@dataclass(frozen=True)
class ApplyStep:
    circuit: Circuit
    when: Condition | None = None


@dataclass(frozen=True)
class CoinStep:
    coin_id: str
    flips: int
    recipients: tuple[int, ...]          # 1-based prover indices; () = private
    record: tuple[Qubit, ...] | None = None

    def __post_init__(self):
        if self.flips < 1:
            raise ValidationError("coin step needs at least one flip")
        if self.record is not None and len(self.record) != self.flips:
            raise ValidationError("coin record width must equal flip count")
        object.__setattr__(self, "recipients", tuple(sorted(set(self.recipients))))


@dataclass(frozen=True)
class AcceptNowStep:
    """Accept immediately with probability ||P psi||^2, else continue on the
    orthogonal complement. `projectors` is a conjunction of commuting
    projectors (usually a single one)."""

    projectors: tuple[ProjectorOp, ...]
    when: Condition | None = None


Step = ApplyStep | CoinStep | AcceptNowStep


@dataclass(frozen=True)
class AcceptRule:
    projectors: tuple[ProjectorOp, ...]
    when: Condition | None = None


@dataclass(frozen=True)
class VerifierTurn:
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class FinalDecision:
    steps: tuple[Step, ...]
    accept: tuple[AcceptRule, ...]


@dataclass(frozen=True)
class VerifierSpec:
    layout: RegisterLayout
    m: int
    turns: tuple[VerifierTurn, ...]
    final: FinalDecision
    output_qubit: Qubit | None = None

    @property
    def k(self) -> int:
        return self.layout.k

    def verifier_turn_count(self) -> int:
        return self.m // 2

    def prover_turn_count(self) -> int:
        return (self.m + 1) // 2

    def coin_turn_indices(self) -> list[int]:
        """Verifier message turns (1-based over verifier turns) containing a coin."""
        return [j + 1 for j, t in enumerate(self.turns)
                if any(isinstance(s, CoinStep) for s in t.steps)]


def turn_owner(m: int, t: int) -> str:
    """Owner of turn t (1-based): 'P' iff t has the parity of m."""
    return "P" if (t % 2) == (m % 2) else "V"


@dataclass(frozen=True)
class ProverStrategy:
    index: int                       # 1-based
    circuits: tuple[Circuit, ...]    # one per prover turn, in order


@dataclass(frozen=True)
class InstanceMeta:
    name: str = ""
    role: str | None = None          # "yes" | "no" | None
    claimed_completeness: float | None = None
    claimed_soundness: float | None = None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ProtocolInstance:
    verifier: VerifierSpec
    provers: tuple[ProverStrategy, ...]
    shared: StateVector
    meta: InstanceMeta = field(default_factory=InstanceMeta)

    @property
    def k(self) -> int:
        return self.verifier.k

    @property
    def m(self) -> int:
        return self.verifier.m

    def with_shared(self, shared: StateVector) -> "ProtocolInstance":
        return replace(self, shared=shared)

    def with_provers(self, provers: Sequence[ProverStrategy]) -> "ProtocolInstance":
        return replace(self, provers=tuple(provers))


# ---------------------------------------------------------------------------
# validation


def _projector_qubits_exist(p: ProjectorOp, layout: RegisterLayout, where: str,
                            problems: list[str]) -> None:
    for reg, idx in p.target_qubits():
        try:
            r = layout.register(reg)
        except ValidationError:
            problems.append(f"{where}: projector targets unknown register {reg!r}")
            continue
        if not 0 <= idx < r.qubits:
            problems.append(f"{where}: projector qubit index {idx} out of range for {reg}")


def _circuit_in_registers(c: Circuit, allowed: set[str], layout: RegisterLayout,
                          where: str, problems: list[str]) -> None:
    for qreg, qidx in c.qubits():
        if qreg not in allowed:
            problems.append(f"{where} acts outside its registers (touches {qreg})")
            return
        r = layout.register(qreg)
        if not 0 <= qidx < r.qubits:
            problems.append(f"{where}: qubit index {qidx} out of range for {qreg}")
            return


def validate(instance: ProtocolInstance) -> list[str]:
    """Structural invariants as data: an empty list means well-formed."""
    problems: list[str] = []
    v = instance.verifier
    layout = v.layout

    msg_sizes = {r.qubits for r in layout.messages}
    if len(msg_sizes) != 1:
        problems.append("unequal message register sizes")

    if v.m < 1:
        problems.append("turn count must be >= 1")
    if len(v.turns) != v.verifier_turn_count():
        problems.append(
            f"verifier has {len(v.turns)} turn entries, {v.verifier_turn_count()} expected")
    if len(instance.provers) != layout.k:
        problems.append(
            f"{len(instance.provers)} prover strategies for {layout.k} prover registers")

    v_side = {r.name for r in layout.verifier_side}
    vm = v_side | {r.name for r in layout.messages}
    coin_ids: dict[str, int] = {}

    def check_condition(when: Condition | None, where: str):
        if when is None:
            return
        cid, bits = when
        if cid not in coin_ids:
            problems.append(f"{where} conditioned on undeclared coin {cid!r}")
        elif len(bits) != coin_ids[cid] or any(ch not in "01" for ch in bits):
            problems.append(f"{where} has a malformed outcome for coin {cid!r}")

    for j, turn in enumerate(v.turns):
        where = f"verifier turn {j+1}"
        for si, step in enumerate(turn.steps):
            loc = f"{where} step {si+1}"
            if isinstance(step, ApplyStep):
                check_condition(step.when, loc)
                _circuit_in_registers(step.circuit, vm, layout, loc, problems)
            elif isinstance(step, CoinStep):
                if step.coin_id in coin_ids:
                    problems.append(f"{loc}: duplicate coin id {step.coin_id!r}")
                coin_ids[step.coin_id] = step.flips
                if step.flips > layout.message_qubits:
                    problems.append(
                        f"{loc}: {step.flips} flips exceed message width "
                        f"{layout.message_qubits}")
                for i in step.recipients:
                    if not 1 <= i <= layout.k:
                        problems.append(f"{loc}: recipient {i} out of range")
                if step.record is not None:
                    for reg, _ in step.record:
                        if reg not in v_side:
                            problems.append(
                                f"{loc}: coin record must sit in verifier registers")
                            break
            elif isinstance(step, AcceptNowStep):
                check_condition(step.when, loc)
                for p in step.projectors:
                    _projector_qubits_exist(p, layout, loc, problems)

    for si, step in enumerate(v.final.steps):
        loc = f"final step {si+1}"
        if isinstance(step, ApplyStep):
            check_condition(step.when, loc)
            _circuit_in_registers(step.circuit, vm, layout, loc, problems)
        elif isinstance(step, AcceptNowStep):
            check_condition(step.when, loc)
            for p in step.projectors:
                _projector_qubits_exist(p, layout, loc, problems)
        else:
            problems.append(f"{loc}: coin steps are not allowed in the final circuit")

    if not v.final.accept:
        problems.append("final decision has no accept rules")
    has_default = any(rule.when is None for rule in v.final.accept)
    for rule in v.final.accept:
        check_condition(rule.when, "final accept rule")
        for p in rule.projectors:
            _projector_qubits_exist(p, layout, "final accept rule", problems)
    if not has_default:
        keyed = {}
        for rule in v.final.accept:
            if rule.when is not None:
                keyed.setdefault(rule.when[0], set()).add(rule.when[1])
        covered = any(
            cid in coin_ids and len(vals) == 2 ** coin_ids[cid]
            for cid, vals in keyed.items())
        if not covered:
            problems.append("final accept rules do not cover every branch")

    for prover in instance.provers:
        i = prover.index
        if not 1 <= i <= layout.k:
            problems.append(f"prover index {i} out of range")
            continue
        allowed = {layout.provers[i - 1].name, layout.messages[i - 1].name}
        if len(prover.circuits) != v.prover_turn_count():
            problems.append(
                f"prover {i} has {len(prover.circuits)} turn circuits, "
                f"{v.prover_turn_count()} expected")
        for t, c in enumerate(prover.circuits):
            names = c.registers()
            if not names <= allowed:
                pr = layout.provers[i - 1].name
                mr = layout.messages[i - 1].name
                problems.append(f"prover {i} acts outside ({pr}, {mr})")
                break
            _circuit_in_registers(c, allowed, layout, f"prover {i} turn {t+1}", problems)

    expected_shared = tuple((r.name, r.qubits) for r in layout.provers)
    if instance.shared.layout != expected_shared:
        problems.append("shared state layout does not match the prover registers")
    elif abs(instance.shared.norm() - 1.0) > 1e-9:
        problems.append("shared state is not normalized")

    if v.output_qubit is not None:
        _projector_qubits_exist(ProjectorOp.output_one(v.output_qubit), layout,
                                "output qubit", problems)

    for label, val in (("completeness", instance.meta.claimed_completeness),
                       ("soundness", instance.meta.claimed_soundness)):
        if val is not None and not 0.0 <= val <= 1.0:
            problems.append(f"claimed {label} outside [0, 1]")

    return problems


def require_valid(instance: ProtocolInstance) -> None:
    problems = validate(instance)
    if problems:
        raise ValidationError("; ".join(problems))


# ---------------------------------------------------------------------------
# flattening into per-branch op lists


@dataclass(frozen=True)
class FlatOp:
    kind: str                       # "gate" | "prover" | "event" | "turn"
    gate: Gate | None = None
    prover_key: tuple[int, int] | None = None   # (prover index, prover turn)
    qubits: tuple[Qubit, ...] = ()              # prover op target qubits
    projectors: tuple[ProjectorOp, ...] = ()
    turn: int = 0


@dataclass(frozen=True)
class FlatBranch:
    history: tuple[tuple[str, str], ...]
    weight: float
    ops: tuple[FlatOp, ...]
    accept: tuple[ProjectorOp, ...]   # conjunction; Never rejects the branch

    def history_key(self) -> str:
        return ",".join(f"{cid}={bits}" for cid, bits in self.history) or "-"


def _matches(when: Condition | None, history: dict[str, str]) -> bool:
    return when is None or history.get(when[0]) == when[1]


def _accept_for(final: FinalDecision, history: dict[str, str]
                ) -> tuple[ProjectorOp, ...]:
    for rule in final.accept:
        if _matches(rule.when, history):
            return rule.projectors
    raise ValidationError(f"no accept rule matches branch {history}")


def flatten(instance: ProtocolInstance | None = None, *,
            verifier: VerifierSpec | None = None,
            config: RunConfig = DEFAULT_RUN_CONFIG) -> tuple[FlatBranch, ...]:
    """Expand a protocol into per-coin-branch op lists.

    With an instance, prover turns are inlined as gates. With only a verifier,
    prover turns become placeholder ops (kind "prover") so an optimizer can
    substitute its own matrices; placeholder targets are (P_i ++ M_i) qubits.
    """
    if (instance is None) == (verifier is None):
        raise ValidationError("pass exactly one of instance / verifier")
    spec = instance.verifier if instance else verifier
    layout = spec.layout
    m = spec.m

    prover_circ: dict[tuple[int, int], Circuit] = {}
    if instance is not None:
        for p in instance.provers:
            for t, c in enumerate(p.circuits):
                prover_circ[(p.index, t + 1)] = c

    branches: list[FlatBranch] = []

    def walk(turn_idx: int, v_turn_idx: int, history: dict[str, str],
             ops: list[FlatOp], weight: float,
             resume: tuple[int, int] | None) -> None:
        # resume = (verifier turn index, step offset) when re-entering after a coin
        if len(branches) >= config.max_branches:
            raise BudgetError(
                f"coin branching exceeds the configured budget ({config.max_branches})")
        t = turn_idx
        vj = v_turn_idx
        while t <= m:
            owner = turn_owner(m, t)
            if owner == "V":
                steps = spec.turns[vj - 1].steps
                start = 0
                if resume is not None and resume[0] == vj:
                    start = resume[1]
                    resume = None
                pending = list(steps[start:])
                for si, step in enumerate(pending):
                    if isinstance(step, ApplyStep):
                        if _matches(step.when, history):
                            for g in step.circuit:
                                ops.append(FlatOp("gate", gate=g))
                    elif isinstance(step, AcceptNowStep):
                        if _matches(step.when, history):
                            ops.append(FlatOp("event", projectors=step.projectors))
                    elif isinstance(step, CoinStep):
                        for bits in itertools.product("01", repeat=step.flips):
                            outcome = "".join(bits)
                            sub_hist = dict(history)
                            sub_hist[step.coin_id] = outcome
                            sub_ops = list(ops)
                            for j, b in enumerate(outcome):
                                if b == "0":
                                    continue
                                if step.record is not None:
                                    sub_ops.append(
                                        FlatOp("gate", gate=x_gate(step.record[j])))
                            for i in step.recipients:
                                mreg = layout.messages[i - 1].name
                                for j, b in enumerate(outcome):
                                    if b == "1":
                                        sub_ops.append(
                                            FlatOp("gate", gate=x_gate((mreg, j))))
                            walk(t, vj, sub_hist, sub_ops,
                                 weight / (2 ** step.flips),
                                 (vj, start + si + 1))
                        return
                ops.append(FlatOp("turn", turn=t))
                vj += 1
            else:
                pt = (t + 1) // 2 if m % 2 == 1 else t // 2
                for i in range(1, layout.k + 1):
                    key = (i, pt)
                    if instance is not None:
                        for g in prover_circ[key]:
                            ops.append(FlatOp("gate", gate=g))
                    else:
                        qs = tuple(layout.qubits_of(layout.provers[i - 1].name)
                                   + layout.qubits_of(layout.messages[i - 1].name))
                        ops.append(FlatOp("prover", prover_key=key, qubits=qs))
                ops.append(FlatOp("turn", turn=t))
            t += 1
        # final decision
        for step in spec.final.steps:
            if isinstance(step, ApplyStep):
                if _matches(step.when, history):
                    for g in step.circuit:
                        ops.append(FlatOp("gate", gate=g))
            elif isinstance(step, AcceptNowStep):
                if _matches(step.when, history):
                    ops.append(FlatOp("event", projectors=step.projectors))
        branches.append(FlatBranch(tuple(sorted(history.items())), weight,
                                   tuple(ops), _accept_for(spec.final, history)))

    walk(1, 1, {}, [], 1.0, None)
    return tuple(branches)


# ---------------------------------------------------------------------------
# execution


@dataclass(frozen=True)
class BranchRecord:
    history: str
    weight: float
    event_probs: tuple[float, ...]   # within-branch, unweighted
    final_prob: float                # within-branch, unweighted
    coins: tuple[tuple[str, str], ...] = ()   # (coin id, outcome bits), sorted

    @property
    def branch_acceptance(self) -> float:
        return sum(self.event_probs) + self.final_prob


@dataclass(frozen=True)
class Transcript:
    acceptance: float
    branches: tuple[BranchRecord, ...]
    snapshots: tuple[tuple[int, str, StateVector], ...] = ()

    def snapshots_after_turn(self, turn: int) -> list[tuple[str, StateVector]]:
        return [(key, st) for t, key, st in self.snapshots if t == turn]


def initial_state(instance: ProtocolInstance) -> StateVector:
    """|0...0> on the verifier and message registers, tensored with the shared state."""
    layout = instance.verifier.layout
    vm = tuple((r.name, r.qubits) for r in layout.verifier_side + layout.messages)
    return tensor_states(zero_state(vm), instance.shared)


def apply_projectors(amps: np.ndarray, state_template: StateVector,
                     projectors: Iterable[ProjectorOp]) -> np.ndarray:
    out = amps
    for p in projectors:
        out = project(state_template.with_amplitudes(out, normalized=False), p)
    return out


def require_budget(layout: RegisterLayout, config: RunConfig) -> None:
    """Raise BudgetError when the layout has more qubits than the budget."""
    if layout.total_qubits > config.max_qubits:
        raise BudgetError(
            f"{layout.total_qubits} qubits exceed the configured budget "
            f"({config.max_qubits})")


def run(instance: ProtocolInstance, keep_snapshots: bool = False,
        config: RunConfig = DEFAULT_RUN_CONFIG) -> Transcript:
    """Execute the protocol exactly and return its transcript.

    The acceptance probability is the coin-weighted sum over branches of the
    banked accept-event masses plus the final projector mass. Summation order
    is the deterministic branch enumeration order.
    """
    problems = validate(instance)
    if problems:
        raise ValidationError("; ".join(problems))
    require_budget(instance.verifier.layout, config)

    init = initial_state(instance)
    template = init.with_amplitudes(init.amplitudes, normalized=False)
    branches = flatten(instance, config=config)

    records: list[BranchRecord] = []
    snapshots: list[tuple[int, str, StateVector]] = []
    acceptance = 0.0
    for br in branches:
        amps = init.amplitudes.copy()
        events: list[float] = []
        for op in br.ops:
            if op.kind == "gate":
                amps = apply_gate(template.with_amplitudes(amps, normalized=False),
                                  op.gate).amplitudes
            elif op.kind == "event":
                projected = apply_projectors(amps, template, op.projectors)
                events.append(float(np.vdot(projected, projected).real))
                amps = amps - projected
            elif op.kind == "turn":
                if keep_snapshots:
                    snapshots.append(
                        (op.turn, br.history_key(),
                         template.with_amplitudes(amps.copy(), normalized=False)))
        final_amps = apply_projectors(amps, template, br.accept)
        final_prob = float(np.vdot(final_amps, final_amps).real)
        records.append(BranchRecord(br.history_key(), br.weight,
                                    tuple(events), final_prob, br.history))
        acceptance += br.weight * (sum(events) + final_prob)

    acceptance = min(max(acceptance, 0.0), 1.0)
    return Transcript(acceptance, tuple(records), tuple(snapshots))


def acceptance_probability(instance: ProtocolInstance,
                           config: RunConfig = DEFAULT_RUN_CONFIG) -> float:
    """Convenience wrapper over run()."""
    return run(instance, config=config).acceptance


# ---------------------------------------------------------------------------
# public-coin structure and purification


def is_public_coin(spec: VerifierSpec) -> bool:
    """True when every verifier message turn stores and then broadcasts coins
    to all provers, with nothing after the broadcast in that turn."""
    all_provers = tuple(range(1, spec.k + 1))
    for turn in spec.turns:
        if not turn.steps or not isinstance(turn.steps[-1], CoinStep):
            return False
        coin = turn.steps[-1]
        if coin.recipients != all_provers:
            return False
        for step in turn.steps[:-1]:
            if not isinstance(step, ApplyStep) or step.when is not None:
                return False
    return True


def coin_steps(spec: VerifierSpec) -> list[CoinStep]:
    out = [s for t in spec.turns for s in t.steps if isinstance(s, CoinStep)]
    out += [s for s in spec.final.steps if isinstance(s, CoinStep)]
    return out


def _predicate_gates(p: ProjectorOp, target: Qubit,
                     sector: tuple[tuple[Qubit, int], ...]) -> list[Gate]:
    """Gates XOR-ing the truth value of projector `p` into `target` on the
    given control sector. Classical reversible only."""
    if p.kind == "output_one":
        return [mcx(sector + ((p.qubits[0], 1),), target)]
    if p.kind == "all_zero":
        if not p.qubits:
            return [mcx(sector, target)] if sector else [x_gate(target)]
        return [mcx(sector + tuple((q, 0) for q in p.qubits), target)]
    # complement: write inner, then flip within the sector
    gates = _predicate_gates(p.inner, target, sector)
    gates.append(mcx(sector, target) if sector else x_gate(target))
    return gates


def purify_coins(instance: ProtocolInstance,
                 out_register: str = "XP") -> ProtocolInstance:
    """Replace coin branching with its exact unitary purification.

    Each coin becomes Hadamards on its record qubits plus CNOT broadcasts into
    the recipients' leading message qubits; conditioned circuits become
    record-controlled circuits; the branch-dependent accept rules become a
    classically computed predicate on a fresh output qubit. Instances with
    conditioned mid-protocol accept events (private-coin rewinding protocols)
    are not purifiable in place and are rejected.
    """
    spec = instance.verifier
    layout = spec.layout
    coins = coin_steps(spec)
    if not coins:
        return instance
    for turn in spec.turns:
        for step in turn.steps:
            if isinstance(step, AcceptNowStep) and step.when is not None:
                raise PreconditionError(
                    "cannot purify a protocol with coin-conditioned accept events")

    # assign record registers for coins that lack them
    new_regs = list(layout.verifier_side)
    record_of: dict[str, tuple[Qubit, ...]] = {}
    for c in coins:
        if c.record is not None:
            record_of[c.coin_id] = c.record
        else:
            name = f"Q_{c.coin_id}"
            new_regs.append(Register(name, c.flips, "verifier"))
            record_of[c.coin_id] = tuple((name, j) for j in range(c.flips))
    out_q: Qubit = (out_register, 0)
    new_regs.append(Register(out_register, 1, "verifier"))
    new_layout = RegisterLayout(tuple(new_regs) + layout.messages + layout.provers)

    def sector_controls(when: Condition | None) -> tuple[tuple[Qubit, int], ...]:
        if when is None:
            return ()
        cid, bits = when
        return tuple((record_of[cid][j], int(b)) for j, b in enumerate(bits))

    def lift_steps(steps: Sequence[Step]) -> tuple[Step, ...]:
        out: list[Step] = []
        for step in steps:
            if isinstance(step, ApplyStep):
                ctrls = sector_controls(step.when)
                circ = step.circuit.controlled(ctrls) if ctrls else step.circuit
                out.append(ApplyStep(circ))
            elif isinstance(step, AcceptNowStep):
                out.append(step)
            elif isinstance(step, CoinStep):
                gates: list[Gate] = [h_gate(q) for q in record_of[step.coin_id]]
                for i in step.recipients:
                    mreg = layout.messages[i - 1].name
                    for j in range(step.flips):
                        gates.append(cnot(record_of[step.coin_id][j], (mreg, j)))
                out.append(ApplyStep(Circuit(tuple(gates),
                                             label=f"coin {step.coin_id} purified")))
        return tuple(out)

    new_turns = tuple(VerifierTurn(lift_steps(t.steps)) for t in spec.turns)
    final_steps = list(lift_steps(spec.final.steps))
    predicate: list[Gate] = []
    for rule in spec.final.accept:
        sector = sector_controls(rule.when)
        conj = [p for p in rule.projectors]
        if len(conj) == 1:
            predicate.extend(_predicate_gates(conj[0], out_q, sector))
        else:
            # conjunction: chain through the sector using De Morgan on a
            # single target is not expressible reversibly without ancillas;
            # our constructions only emit single-projector rules.
            raise PreconditionError(
                "cannot purify multi-projector accept rules")
    final_steps.append(ApplyStep(Circuit(tuple(predicate), label="accept predicate")))
    new_final = FinalDecision(tuple(final_steps),
                              (AcceptRule((ProjectorOp.output_one(out_q),)),))

    new_spec = VerifierSpec(new_layout, spec.m, new_turns, new_final,
                            output_qubit=out_q)
    return ProtocolInstance(new_spec, instance.provers, instance.shared,
                            instance.meta)
