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
from functools import cached_property
from typing import Collection, NamedTuple, Sequence

import numpy as np

from .circuits import (Circuit, Gate, cnot, h as h_gate, is_swap, mcx,
                       x as x_gate)
# bench/layers.py traces gate applications under this name
from .circuits import apply_gate  # noqa: F401
from .config import (DEFAULT_RUN_CONFIG, NORM_TOL, BudgetError,
                     PreconditionError, RunConfig, ValidationError)
from .linalg import (Layout, MatrixKernel, ProjectorOp, Qubit, Slices,
                     StateVector, checked_probability, projector_slices)

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
    """Canonically ordered registers: verifier side, then M_1..M_k, then P_1..P_k.

    The derived facts (registers by role, k, total qubits, the shared-state
    layout and the register-by-name index) are computed on first use and
    kept: the layout is frozen and its registers a tuple of frozen records.
    """

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

    @cached_property
    def verifier_side(self) -> tuple[Register, ...]:
        return tuple(r for r in self.registers if r.role == "verifier")

    @cached_property
    def messages(self) -> tuple[Register, ...]:
        return tuple(r for r in self.registers if r.role == "message")

    @cached_property
    def provers(self) -> tuple[Register, ...]:
        return tuple(r for r in self.registers if r.role == "prover")

    @cached_property
    def k(self) -> int:
        return len(self.provers)

    @property
    def message_qubits(self) -> int:
        return self.messages[0].qubits

    @cached_property
    def total_qubits(self) -> int:
        return sum(r.qubits for r in self.registers)

    @cached_property
    def shared_layout(self) -> tuple[tuple[str, int], ...]:
        """The state layout of the shared state: the prover registers."""
        return tuple((r.name, r.qubits) for r in self.provers)

    def as_state_layout(self) -> tuple[tuple[str, int], ...]:
        return tuple((r.name, r.qubits) for r in self.registers)

    @cached_property
    def _by_name(self) -> dict[str, Register]:
        return {r.name: r for r in self.registers}

    def register(self, name: str) -> Register:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"unknown register {name!r}") from None

    def qubits_of(self, name: str) -> list[Qubit]:
        return [(name, i) for i in range(self.register(name).qubits)]

    def slot_qubits(self, i: int) -> tuple[Qubit, ...]:
        """The qubits prover i's turns act on: P_i, then M_i."""
        return tuple(self.qubits_of(self.provers[i - 1].name)
                     + self.qubits_of(self.messages[i - 1].name))

    def qubit_axes(self) -> dict[Qubit, int]:
        """Each qubit's big-endian position in the full state."""
        qubits = [(r.name, j) for r in self.registers for j in range(r.qubits)]
        return {q: a for a, q in enumerate(qubits)}

    def verifier_message_qubits(self) -> list[Qubit]:
        out: list[Qubit] = []
        for r in self.verifier_side + self.messages:
            out.extend((r.name, i) for i in range(r.qubits))
        return out


def _fresh(name: str, taken: set[str]) -> str:
    """The first of name, name2, name3, ... not in `taken`; it is added."""
    out = name
    i = 2
    while out in taken:
        out = f"{name}{i}"
        i += 1
    taken.add(out)
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


def _frozen(obj, field_name: str, item=None) -> None:
    """Make a sequence field of a frozen record a tuple (of `item(x)` when
    given); None stays None. No field can then hold a list that changes
    after `validate` has checked it."""
    val = getattr(obj, field_name)
    if val is not None:
        object.__setattr__(obj, field_name,
                           tuple(val) if item is None else tuple(map(item, val)))


@dataclass(frozen=True)
class ApplyStep:
    circuit: Circuit
    when: Condition | None = None

    def __post_init__(self):
        _frozen(self, "when")


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
        _frozen(self, "record", tuple)


@dataclass(frozen=True)
class AcceptNowStep:
    """Accept immediately with probability ||P psi||^2, else continue on the
    orthogonal complement. `projectors` is a conjunction of commuting
    projectors (usually a single one)."""

    projectors: tuple[ProjectorOp, ...]
    when: Condition | None = None

    def __post_init__(self):
        _frozen(self, "projectors")
        _frozen(self, "when")


Step = ApplyStep | CoinStep | AcceptNowStep


@dataclass(frozen=True)
class AcceptRule:
    projectors: tuple[ProjectorOp, ...]
    when: Condition | None = None

    def __post_init__(self):
        _frozen(self, "projectors")
        _frozen(self, "when")


@dataclass(frozen=True)
class VerifierTurn:
    steps: tuple[Step, ...]

    def __post_init__(self):
        _frozen(self, "steps")


@dataclass(frozen=True)
class FinalDecision:
    steps: tuple[Step, ...]
    accept: tuple[AcceptRule, ...]

    def __post_init__(self):
        _frozen(self, "steps")
        _frozen(self, "accept")


@dataclass(frozen=True)
class VerifierSpec:
    layout: RegisterLayout
    m: int
    turns: tuple[VerifierTurn, ...]
    final: FinalDecision
    output_qubit: Qubit | None = None

    def __post_init__(self):
        _frozen(self, "turns")
        _frozen(self, "output_qubit")

    @property
    def k(self) -> int:
        return self.layout.k

    def verifier_turn_count(self) -> int:
        return self.m // 2

    def prover_turn_count(self) -> int:
        return (self.m + 1) // 2


def turn_owner(m: int, t: int) -> str:
    """Owner of turn t (1-based): 'P' iff t has the parity of m."""
    return "P" if (t % 2) == (m % 2) else "V"


@dataclass(frozen=True)
class ProverStrategy:
    index: int                       # 1-based
    circuits: tuple[Circuit, ...]    # one per prover turn, in order

    def __post_init__(self):
        _frozen(self, "circuits")


@dataclass(frozen=True)
class InstanceMeta:
    name: str = ""
    role: str | None = None          # "yes" | "no" | None
    claimed_completeness: float | None = None
    claimed_soundness: float | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        _frozen(self, "notes")


@dataclass(frozen=True)
class ProtocolInstance:
    """A verifier, its provers' strategies, their shared state and meta.

    Every field is a frozen record (sequence fields are made tuples) or a
    read-only array, so `validate`'s finding is memoised on the instance;
    `dataclasses.replace` builds a new instance, which is checked afresh.
    """

    verifier: VerifierSpec
    provers: tuple[ProverStrategy, ...]
    shared: StateVector
    meta: InstanceMeta = field(default_factory=InstanceMeta)

    def __post_init__(self):
        _frozen(self, "provers")

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        return tuple(_problems_of(self))

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


def _projector_off_provers(p: ProjectorOp, layout: RegisterLayout, where: str,
                           problems: list[str]) -> None:
    """The verifier measures only its own and the message registers."""
    read = sorted({reg for reg, _ in p.target_qubits()}
                  & {r.name for r in layout.provers})
    if read:
        problems.append(f"{where}: projector reads prover register "
                        f"{', '.join(read)}")


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
    """Structural invariants as data: an empty list means well-formed.

    The check runs once per instance and its finding is kept on it (see
    `ProtocolInstance`); each call returns a new list."""
    return list(instance._problems)


def _problems_of(instance: ProtocolInstance) -> list[str]:
    """The body of `validate`."""
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

    blocks = [(f"verifier turn {j+1}", turn.steps) for j, turn in enumerate(v.turns)]
    blocks.append(("final", v.final.steps))
    for where, steps in blocks:
        for si, step in enumerate(steps):
            loc = f"{where} step {si+1}"
            if isinstance(step, ApplyStep):
                check_condition(step.when, loc)
                _circuit_in_registers(step.circuit, vm, layout, loc, problems)
            elif isinstance(step, CoinStep) and where == "final":
                problems.append(
                    f"{loc}: coin steps are not allowed in the final circuit")
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
                    _projector_off_provers(p, layout, loc, problems)

    if not v.final.accept:
        problems.append("final decision has no accept rules")
    # run() takes the first matching rule and purify_coins XORs every rule
    # into one output qubit; the two agree only when no branch matches twice,
    # i.e. several rules must all key distinct outcomes of one coin
    whens = [rule.when for rule in v.final.accept]
    if len(whens) > 1 and (None in whens or len({w[0] for w in whens}) > 1
                           or len(set(whens)) < len(whens)):
        problems.append("final accept rules overlap: several rules must key "
                        "distinct outcomes of one coin")
    has_default = None in whens
    for rule in v.final.accept:
        check_condition(rule.when, "final accept rule")
        for p in rule.projectors:
            _projector_qubits_exist(p, layout, "final accept rule", problems)
            _projector_off_provers(p, layout, "final accept rule", problems)
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

    if instance.shared.layout != layout.shared_layout:
        problems.append("shared state layout does not match the prover registers")
    elif abs(instance.shared.norm() - 1.0) > NORM_TOL:
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


class FlatOp(NamedTuple):
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


def flatten(spec: VerifierSpec, provers: Sequence[ProverStrategy] | None = None,
            *, config: RunConfig = DEFAULT_RUN_CONFIG) -> tuple[FlatBranch, ...]:
    """Expand a protocol into per-coin-branch op lists.

    With `provers`, their turns are inlined as gates. Without, each prover
    turn is a placeholder op (kind "prover") so an optimizer can substitute
    its own matrices; its targets are `layout.slot_qubits(i)`.

    A branch is one outcome of every coin in the verifier's turns, and its
    weight is 2^-(total flips). Branches come in `itertools.product` order
    over the coins in protocol order, the first coin most significant. A
    condition only sees the coins drawn before its step, so a condition on a
    later coin never holds.
    """
    layout = spec.layout
    m = spec.m
    coins = [s for t in spec.turns for s in t.steps if isinstance(s, CoinStep)]
    flips = sum(c.flips for c in coins)
    if 2 ** flips > config.max_branches:
        raise BudgetError(
            f"coin branching exceeds the configured budget ({config.max_branches})")

    circuits = {(p.index, t + 1): c for p in provers or ()
                for t, c in enumerate(p.circuits)}

    def step_ops(step: Step) -> list:
        """The ops of a verifier step, built once and shared by the
        branches: for a coin, one row of X ops per register it writes."""
        if isinstance(step, CoinStep):
            regs = [step.record] if step.record is not None else []
            regs += [[(layout.messages[i - 1].name, j)
                      for j in range(step.flips)] for i in step.recipients]
            return [[FlatOp("gate", gate=x_gate(q)) for q in qs] for qs in regs]
        if isinstance(step, ApplyStep):
            return [FlatOp("gate", gate=g) for g in step.circuit]
        return [FlatOp("event", projectors=step.projectors)]

    # (ops before the steps, verifier steps with their ops, ops after); the
    # final decision has no turn op, and validate() rejects its coin steps,
    # which flatten skips
    blocks: list[tuple[list[FlatOp], list[tuple[Step, list]], list[FlatOp]]] = []
    for t in range(1, m + 1):
        # owners alternate, so turn t is its owner's ((t + 1) // 2)-th
        pt = (t + 1) // 2
        if turn_owner(m, t) == "V":
            blocks.append(([], [(s, step_ops(s)) for s in spec.turns[pt - 1].steps],
                           [FlatOp("turn", turn=t)]))
            continue
        ops: list[FlatOp] = []
        for i in range(1, layout.k + 1):
            if provers is not None:
                ops += [FlatOp("gate", gate=g) for g in circuits[(i, pt)]]
            else:
                ops.append(FlatOp("prover", prover_key=(i, pt),
                                  qubits=layout.slot_qubits(i)))
        blocks.append((ops, [], [FlatOp("turn", turn=t)]))
    blocks.append(([], [(s, step_ops(s)) for s in spec.final.steps
                        if not isinstance(s, CoinStep)], []))

    outcomes = [["".join(b) for b in itertools.product("01", repeat=c.flips)]
                for c in coins]
    branches: list[FlatBranch] = []
    for drawn in itertools.product(*outcomes):
        bits_of = iter(drawn)
        history: dict[str, str] = {}
        ops = []
        for before, steps, after in blocks:
            ops += before
            for step, sops in steps:
                if isinstance(step, CoinStep):
                    bits = history[step.coin_id] = next(bits_of)
                    ops += [op for row in sops
                            for op, b in zip(row, bits) if b == "1"]
                elif _matches(step.when, history):
                    ops += sops
            ops += after
        branches.append(FlatBranch(tuple(sorted(history.items())), 2.0 ** -flips,
                                   tuple(ops), _accept_for(spec.final, history)))
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
class Snapshot:
    """A state at its live width: one branch's state after a turn, as `run`
    left it, or a whole state (`Snapshot.whole`).

    `live` is a read-only array. The full state, with the registers of
    `layout` in order, is zero except at `index` (a known bit or
    `slice(None)` per axis), which holds `live` with its axes permuted by
    `perm`: the j-th live axis of the full state is buffer axis perm[j].
    """

    turn: int
    history: str
    live: np.ndarray
    index: tuple
    perm: tuple[int, ...]
    layout: Layout

    @classmethod
    def whole(cls, state: StateVector) -> "Snapshot":
        """`state` as it is held: its known bits, and its live axes in order
        (turn 0, no history)."""
        return cls(0, "", state.amplitudes, state.full_index,
                   tuple(range(state.n_qubits - len(state.known))),
                   state.layout)

    def same_placement(self, other: "Snapshot") -> bool:
        return self.index == other.index and self.perm == other.perm

    def _axes(self, regs: Collection[str]) -> list[int]:
        """The full-state axes of the registers `regs`, in order."""
        sizes = dict(self.layout)
        start = dict(zip(sizes, itertools.accumulate(sizes.values(),
                                                     initial=0)))
        return [a for r in regs for a in range(start[r], start[r] + sizes[r])]

    def _projected(self, zeroed: Collection[str]
                   ) -> tuple[np.ndarray, dict[int, int]] | None:
        """The buffer with the registers in `zeroed` projected onto
        |0...0> (a view), and the axis in it of each full-state axis it
        keeps; None when one of those registers holds a known 1."""
        buffer_axis = dict(zip((a for a, i in enumerate(self.index)
                                if isinstance(i, slice)), self.perm))
        take: list = [slice(None)] * len(self.perm)
        for a in self._axes(zeroed):
            if a in buffer_axis:
                take[buffer_axis[a]] = 0
            elif self.index[a]:
                return None
        left = [b for b, t in enumerate(take) if isinstance(t, slice)]
        return (self.live.reshape([2] * len(self.perm))[tuple(take)],
                {a: left.index(b) for a, b in buffer_axis.items() if b in left})

    def norm(self, zeroed: Collection[str] = ()) -> float:
        """The norm of the state with the registers in `zeroed` projected
        onto |0...0>."""
        projected = self._projected(zeroed)
        return 0.0 if projected is None else float(np.linalg.norm(projected[0]))

    def placed(self, groups: Sequence[tuple[str, Sequence[str]]],
               zeroed: Collection[str] = (), normalized: bool = True
               ) -> StateVector:
        """The state written once in a new register order, at its live
        width: the registers fused into `groups` ((name, members) in order),
        and the registers in `zeroed` projected onto |0...0> and left out.
        The known bits in the grouped registers stay known bits, and the
        live amplitudes are the one array written. This is the package's one
        register reorder."""
        order = [m for _, members in groups for m in members]
        if sorted([*order, *zeroed]) != sorted(name for name, _ in self.layout):
            raise ValidationError(
                "groups and zeroed registers must partition the layout")
        sizes = dict(self.layout)
        layout = tuple((name, sum(sizes[m] for m in members))
                       for name, members in groups)
        kept = self._axes(order)
        qubits = [(name, j) for name, n in layout for j in range(n)]
        known = tuple((q, self.index[a]) for q, a in zip(qubits, kept)
                      if not isinstance(self.index[a], slice))
        projected = self._projected(zeroed)
        if projected is None:
            live = np.zeros(2 ** (len(kept) - len(known)), dtype=self.live.dtype)
        else:
            src, at = projected
            live = src.transpose([at[a] for a in kept if a in at]).ravel()
        return StateVector(live, layout, normalized, known)

    def state(self) -> StateVector:
        """The state in the layout's order, at its live width."""
        return self.placed([(name, [name]) for name, _ in self.layout],
                           normalized=False)


@dataclass(frozen=True)
class Transcript:
    acceptance: float
    branches: tuple[BranchRecord, ...]
    snapshots: tuple[Snapshot, ...] = ()


def require_budget(layout: RegisterLayout, config: RunConfig) -> None:
    """Raise BudgetError when the layout has more qubits than the budget."""
    if layout.total_qubits > config.max_qubits:
        raise BudgetError(
            f"{layout.total_qubits} qubits exceed the configured budget "
            f"({config.max_qubits})")


def _compile_branch(br: FlatBranch, axis: dict[Qubit, int], n: int,
                    classical: dict[int, int], snapshot_turns: Collection[int]
                    ) -> tuple[list[tuple], Slices]:
    """A flattened branch compiled against the state buffer: its steps and
    its accept projector.

    The full state has n axes. A classical axis holds a known bit and is not
    stored: the buffer holds the live axes only, in full-state order, and
    `classical` maps the axes that start classical to their bits. At compile
    time an uncontrolled SWAP permutes the logical-to-full axis map and moves
    no data; a control on a classical axis drops the gate (other bit) or the
    control (its bit); a 0/1 permutation on classical targets without live
    controls rewrites their bits. Any other gate first activates its
    classical targets, one ("grow", lead, bit) step each: the buffer doubles
    and the old amplitudes land at the known bit of the new axis (`lead` is
    2 to the number of live axes before it). Projector slices that
    disagree with a classical bit are dropped, and the classical pairs of
    the rest removed.

    The other steps are ("gate", MatrixKernel), ("event", Slices) and, for
    each turn in `snapshot_turns`, ("turn", turn, index, perm): the full
    state in the layout's order has the live buffer, with its axes permuted
    by perm, at `index`.
    """
    phys = list(range(n))       # logical axis -> full-state axis
    bits = dict(classical)      # full-state axis -> bit, for classical axes
    # full-state axis -> its buffer axis (when live); changes only at a grow
    at = list(itertools.accumulate((a not in bits for a in range(n)),
                                   initial=0))

    def slices(projectors: Sequence[ProjectorOp]) -> Slices:
        kept = [tuple((at[a], b) for a, b in s if a not in bits)
                for s in projector_slices(projectors, lambda q: phys[axis[q]])
                if all(bits.get(a, b) == b for a, b in s)]
        return Slices(n - len(bits), kept)

    steps: list[tuple] = []
    for op in br.ops:
        if op.kind == "gate":
            g = op.gate
            if is_swap(g):
                a, b = (axis[q] for q in g.targets)
                phys[a], phys[b] = phys[b], phys[a]
                continue
            controls = [(phys[axis[q]], bit) for q, bit in g.controls]
            if any(bits.get(a, b) != b for a, b in controls):
                continue
            controls = [(a, b) for a, b in controls if a not in bits]
            targets = [phys[axis[q]] for q in g.targets]
            if (not controls and all(t in bits for t in targets)
                    and g.permutation is not None):
                j = g.permutation.index(int("".join(str(bits[t]) for t in targets), 2))
                for i, t in enumerate(reversed(targets)):
                    bits[t] = (j >> i) & 1
                continue
            for t in targets:
                if t in bits:
                    steps.append(("grow", 2 ** at[t], bits.pop(t)))
                    for a in range(t + 1, n):
                        at[a] += 1
            steps.append(("gate", MatrixKernel(
                g.matrix, [at[t] for t in targets],
                tuple((at[a], b) for a, b in controls), n - len(bits))))
        elif op.kind == "event":
            steps.append(("event", slices(op.projectors)))
        elif op.kind == "turn" and op.turn in snapshot_turns:
            index = tuple(bits.get(a, slice(None)) for a in phys)
            perm = tuple(at[a] for a in phys if a not in bits)
            steps.append(("turn", op.turn, index, perm))
    return steps, slices(br.accept)


def run(instance: ProtocolInstance, snapshot_turns: Collection[int] = (),
        config: RunConfig = DEFAULT_RUN_CONFIG) -> Transcript:
    """Execute the protocol exactly and return its transcript.

    The acceptance probability is the coin-weighted sum over branches of the
    banked accept-event masses plus the final projector mass. Summation order
    is the deterministic branch enumeration order. Each branch is compiled
    once (`_compile_branch`) and runs in place on one writable buffer.

    Qubits that hold a known bit stay out of the buffer: it starts as a copy
    of the shared state's live amplitudes, with every verifier and message
    qubit classical at 0 and each of the shared state's known qubits
    classical at its bit, and a qubit joins it only when a gate needs it as
    a target (a classical control or a permutation of classical bits is
    resolved at compile time). The budget still counts the layout's qubits.
    After each turn in `snapshot_turns`, every branch's state is kept at its
    live width: a copy of the buffer plus its placement (`Snapshot`).
    `Snapshot.placed` writes one in any register order, with its known bits
    (`Snapshot.state` in the layout's), so a pass places it directly in its
    own register groups. No other turn is compiled into a step.

    Set-up facts that cannot change are computed once and kept: the
    instance's validity (`validate`) and a layout's registers by role and
    name on those frozen objects, and the permutation of each gate matrix
    (`Gate.permutation`, read by the SWAP and bit-rewrite tests) per matrix
    object, shared by every gate that wraps it and dropped with the matrix.
    They are sound to keep because every record is a frozen dataclass whose
    sequence fields are tuples and every array is read-only. Nothing
    compiled outlives the call: kernels, slices and buffers are built per
    branch and dropped.
    """
    require_valid(instance)
    layout = instance.verifier.layout
    require_budget(layout, config)

    state_layout = layout.as_state_layout()
    n = layout.total_qubits
    axis = layout.qubit_axes()
    shared = instance.shared
    offset = n - shared.n_qubits
    classical = dict.fromkeys(range(offset), 0)
    classical.update((axis[q], bit) for q, bit in shared.known)
    branches = flatten(instance.verifier, instance.provers, config=config)

    records: list[BranchRecord] = []
    snapshots: list[Snapshot] = []
    acceptance = 0.0
    for br in branches:
        steps, accept = _compile_branch(br, axis, n, classical, snapshot_turns)
        buf = shared.amplitudes.copy()
        events: list[float] = []
        for step in steps:
            if step[0] == "gate":
                step[1](buf)
            elif step[0] == "grow":
                grown = np.zeros(2 * buf.size, dtype=buf.dtype)
                grown.reshape(step[1], 2, -1)[:, step[2]] = buf.reshape(step[1], -1)
                buf = grown
            elif step[0] == "event":
                events.append(step[1].mass(buf))
                step[1].clear(buf)
            else:
                live = buf.copy()
                live.setflags(write=False)
                snapshots.append(Snapshot(step[1], br.history_key(), live,
                                          step[2], step[3], state_layout))
        final_prob = accept.mass(buf)
        records.append(BranchRecord(br.history_key(), br.weight,
                                    tuple(events), final_prob, br.history))
        acceptance += br.weight * (sum(events) + final_prob)

    acceptance = checked_probability(acceptance, "acceptance",
                                     config.probability_tol)
    return Transcript(acceptance, tuple(records), tuple(snapshots))


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


def purify_coins(instance: ProtocolInstance) -> ProtocolInstance:
    """Replace coin branching with its exact unitary purification.

    Each coin becomes Hadamards on its record qubits plus CNOT broadcasts into
    the recipients' leading message qubits; conditioned circuits become
    record-controlled circuits; the branch-dependent accept rules become a
    classically computed predicate on a fresh output qubit, register XP (or
    the first free name XP2, XP3, ...; likewise for coin records Q_<id>).
    Instances with conditioned mid-protocol accept events (private-coin
    rewinding protocols) are not purifiable in place and are rejected.
    """
    spec = instance.verifier
    layout = spec.layout
    coins = coin_steps(spec)
    if not coins:
        return instance
    for steps in [t.steps for t in spec.turns] + [spec.final.steps]:
        if any(isinstance(s, AcceptNowStep) and s.when is not None
               for s in steps):
            raise PreconditionError(
                "cannot purify a protocol with coin-conditioned accept events")

    # assign record registers for coins that lack them
    new_regs = list(layout.verifier_side)
    taken = {r.name for r in layout.registers}
    record_of: dict[str, tuple[Qubit, ...]] = {}
    for c in coins:
        if c.record is not None:
            record_of[c.coin_id] = c.record
        else:
            name = _fresh(f"Q_{c.coin_id}", taken)
            new_regs.append(Register(name, c.flips, "verifier"))
            record_of[c.coin_id] = tuple((name, j) for j in range(c.flips))
    out_q: Qubit = (_fresh("XP", taken), 0)
    new_regs.append(Register(out_q[0], 1, "verifier"))
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
