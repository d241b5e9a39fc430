"""Protocol description files: a human-diffable JSON schema.

Complex numbers are [re, im] pairs; matrices are row-major. Gates come from
the named vocabulary (H, X, Y, Z, S, CNOT, TOFFOLI, SWAP, CPHASE) or are
explicit unitaries ("U" with a matrix); any gate can carry a list of
(qubit, bit) controls, and a step can reference a named circuit. Loading
validates everything and anchors error messages with structural paths.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from stat import S_ISREG

import numpy as np

from .circuits import Circuit, Gate, _SQ, _SWAP
from .config import NORM_TOL, UNITARITY_TOL, ValidationError
from .linalg import ProjectorOp, StateVector
from .model import (AcceptNowStep, AcceptRule, ApplyStep, CoinStep,
                    FinalDecision, InstanceMeta, ProtocolInstance,
                    ProverStrategy, Register, RegisterLayout, VerifierSpec,
                    VerifierTurn, require_valid, turn_owner)

FORMAT_TAG = "qmip-protocol/1"
STRATEGY_TAG = "qmip-strategy/1"

PROJ_OUTPUT_ONE = "output-qubit-is-1"
PROJ_ALL_ZERO = "all-listed-qubits-are-0"
PROJ_COMPLEMENT = "complement-of"


def _err(path: str, msg: str) -> ValidationError:
    return ValidationError(f"{path}: {msg}")


_MALFORMED = (AttributeError, LookupError, TypeError, ValueError)
"""What reading a JSON value of the wrong shape or type raises."""


def _malformed(path: str, e: Exception) -> ValidationError:
    return _err(path, f"malformed entry ({type(e).__name__}: {e})")


# ---------------------------------------------------------------------------
# complex / matrix encoding


def _c_dec(v, path: str) -> complex:
    if not (isinstance(v, list) and len(v) == 2):
        raise _err(path, "complex numbers are [re, im] pairs")
    try:
        return complex(float(v[0]), float(v[1]))
    except (TypeError, ValueError):
        raise _err(path, f"complex numbers are pairs of numbers, not {v!r}"
                   ) from None


def _claim_dec(v, path: str) -> float | None:
    """A claimed completeness or soundness: a number or null (`validate`
    checks its range)."""
    if v is None or isinstance(v, (int, float)):
        return v
    raise _err(path, f"claims are numbers or null, not {v!r}")


def _mat_dec(v, path: str) -> np.ndarray:
    if not isinstance(v, list) or not v:
        raise _err(path, "matrix must be a non-empty row-major list")
    return np.array([[_c_dec(z, path) for z in row] for row in v],
                    dtype=np.complex128)


def _int_dec(v, path: str, what: str) -> int:
    """A JSON integer; a float or a bool is refused, not truncated."""
    if type(v) is not int:
        raise _err(path, f"{what} are integers, not {v!r}")
    return v


def _qubit_dec(v, path: str) -> tuple[str, int]:
    if not (isinstance(v, list) and len(v) == 2):
        raise _err(path, "qubits are [register, index] pairs")
    return (str(v[0]), _int_dec(v[1], path, "qubit indices"))


def _control_dec(v, path: str) -> tuple[tuple[str, int], int]:
    """A [qubit, bit] control; the bit is the integer 0 or 1."""
    if v[1] not in (0, 1) or type(v[1]) is not int:
        raise _err(path, f"control bits are 0 or 1, not {v[1]!r}")
    return _qubit_dec(v[0], path), v[1]


def _known_dec(v, path: str) -> tuple:
    """The known bits of a shared state as ((register, index), bit) pairs;
    `StateVector` checks them against its layout."""
    if not isinstance(v, list):
        raise _err(path, "known bits are a list of "
                         "[[register, index], bit] pairs")
    out = []
    for i, entry in enumerate(v):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise _err(f"{path}[{i}]",
                       "known bits are [[register, index], bit] pairs")
        out.append((_qubit_dec(entry[0], f"{path}[{i}]"), entry[1]))
    return tuple(out)


# ---------------------------------------------------------------------------
# gates and circuits


_NAMED = {**{n: _SQ[n] for n in ("H", "X", "Y", "Z", "S")}, "SWAP": _SWAP}
"""The gates saved by name alone, with the matrix each name loads as."""


def _check_unitary(name: str, m: np.ndarray, path: str) -> None:
    d = m.shape[0]
    if m.ndim != 2 or m.shape[0] != m.shape[1] or d & (d - 1):
        raise _err(path, f"gate {name} matrix must be square power-of-two")
    dev = float(np.abs(m.conj().T @ m - np.eye(d)).max())
    if not dev <= UNITARITY_TOL:            # a NaN entry fails too
        raise _err(path, f"gate {name} not unitary (||U^dag U - I|| = {dev:.3e})")


def _gate_dec(v, circuits: dict[str, Circuit], path: str) -> list[Gate]:
    if not isinstance(v, dict) or "gate" not in v:
        raise _err(path, "gate entries are objects with a 'gate' field")
    try:
        name = v["gate"]
        controls = tuple(_control_dec(c, f"{path}.controls")
                         for c in v.get("controls", []))
        if name == "CIRCUIT":
            ref = v.get("ref")
            if ref not in circuits:
                raise _err(path, f"unknown circuit reference {ref!r}")
            circ = circuits[ref]
            if controls:
                circ = circ.controlled(controls)
            return list(circ.gates)
        targets = [_qubit_dec(t, f"{path}.targets")
                   for t in v.get("targets", [])]
        if name in _NAMED:
            m = _NAMED[name]
            if len(m) != 2 ** len(targets):
                raise _err(path, f"{name} takes "
                                 f"{len(m).bit_length() - 1} target(s)")
            return [Gate(name, m, tuple(targets), controls)]
        if name == "CNOT":
            if len(targets) != 2:
                raise _err(path, "CNOT takes [control, target]")
            return [Gate("X", _SQ["X"], (targets[1],),
                         ((targets[0], 1),) + controls)]
        if name == "TOFFOLI":
            if len(targets) != 3:
                raise _err(path, "TOFFOLI takes [control, control, target]")
            return [Gate("X", _SQ["X"], (targets[2],),
                         ((targets[0], 1), (targets[1], 1)) + controls)]
        if name == "CPHASE":
            if not targets:
                raise _err(path, "CPHASE needs at least one qubit")
            return [Gate("Z", _SQ["Z"], (targets[-1],),
                         tuple((q, 1) for q in targets[:-1]) + controls)]
        if name == "U":
            m = _mat_dec(v.get("matrix"), f"{path}.matrix")
            if m.shape[0] != 2 ** len(targets):
                raise _err(path, f"matrix of size {m.shape[0]} does not fit "
                                 f"{len(targets)} targets")
            _check_unitary("U", m, path)
            return [Gate("U", m, tuple(targets), controls)]
        raise _err(path, f"unknown gate {name!r}")
    except _MALFORMED as e:
        raise _malformed(path, e) from None


def _circuit_dec(v, circuits: dict[str, Circuit], path: str) -> Circuit:
    if v is None:
        return Circuit(())
    if isinstance(v, str):
        if v not in circuits:
            raise _err(path, f"unknown circuit {v!r}")
        return circuits[v]
    if not isinstance(v, list):
        raise _err(path, "circuits are names or gate lists")
    gates: list[Gate] = []
    for i, gv in enumerate(v):
        gates.extend(_gate_dec(gv, circuits, f"{path}[{i}]"))
    return Circuit(tuple(gates))


# ---------------------------------------------------------------------------
# projectors


def _proj_dec(v, path: str) -> ProjectorOp:
    if not isinstance(v, dict) or "type" not in v:
        raise _err(path, "projectors are objects with a 'type' field")
    t = v["type"]
    if t == PROJ_OUTPUT_ONE:
        return ProjectorOp.output_one(_qubit_dec(v.get("qubit"), path))
    if t == PROJ_ALL_ZERO:
        return ProjectorOp.all_zero(
            tuple(_qubit_dec(q, path) for q in v.get("qubits", [])))
    if t == PROJ_COMPLEMENT:
        return ProjectorOp.complement(_proj_dec(v.get("inner"), f"{path}.inner"))
    raise _err(path, f"unknown projector type {t!r}")


def _when_dec(v, path: str):
    if v is None:
        return None
    if not (isinstance(v, list) and len(v) == 2):
        raise _err(path, "conditions are [coin id, outcome] pairs")
    return (str(v[0]), str(v[1]))


def _steps_dec(values, circuits: dict[str, Circuit], path: str,
               turn: int | None) -> tuple:
    """The verifier steps at `path`: those of verifier turn `turn`, which
    names a coin without an id, or with `turn` None the final steps, which
    may not hold coins."""
    steps: list = []
    for si, sv in enumerate(values):
        spath = f"{path}[{si}]"
        try:
            if "apply" in sv:
                steps.append(ApplyStep(
                    _circuit_dec(sv["apply"], circuits, spath),
                    _when_dec(sv.get("when"), spath)))
            elif "coin" in sv and turn is not None:
                cv = sv["coin"]
                rec = cv.get("record")
                steps.append(CoinStep(
                    str(cv.get("id", f"coin{turn}")),
                    _int_dec(cv.get("flips", 1), f"{spath}.coin.flips",
                             "coin flips"),
                    tuple(_int_dec(r, f"{spath}.coin.recipients[{j}]",
                                   "coin recipients")
                          for j, r in enumerate(cv.get("recipients", []))),
                    None if rec is None else tuple(
                        _qubit_dec(q, spath) for q in rec)))
            elif "accept_now" in sv:
                steps.append(AcceptNowStep(
                    tuple(_proj_dec(p, spath) for p in sv["accept_now"]),
                    _when_dec(sv.get("when"), spath)))
            elif turn is None:
                raise _err(spath, "final steps are apply / accept_now")
            else:
                raise _err(spath, "steps are apply / coin / accept_now")
        except _MALFORMED as e:
            raise _malformed(spath, e) from None
    return tuple(steps)


# ---------------------------------------------------------------------------
# the writer
#
# A file's text is what `json.dumps(data, indent=1)` writes for the data the
# format gives the objects (with `sort_keys=True` for protocol files), written
# straight from the objects with no dict tree in between. `indent` turns off
# json's C encoder, and its pure-Python one spends most of a save on circuits.
# Each part is rendered for the place it sits, given as `nl`: a newline and
# the indent of the part's closing bracket; its items sit one space further.


def _seq(items: list[str], nl: str) -> str:
    """A JSON array of rendered items."""
    if not items:
        return "[]"
    inner = nl + " "
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _obj(fields: list[tuple[str, str]], nl: str) -> str:
    """A JSON object of (rendered key, rendered value) fields, in order."""
    if not fields:
        return "{}"
    inner = nl + " "
    return "{" + inner + ("," + inner).join(
        [k + ": " + v for k, v in fields]) + nl + "}"


def _float(x: float) -> str:
    if isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _value(v, nl: str) -> str:
    """Any JSON value as json writes it: a str, int or finite float
    directly, anything else (null, a bool, a list or dict in the meta, a
    float subclass) through json itself. json escapes every newline inside
    a string, so each newline in its text is indentation, moved to `nl`."""
    t = type(v)
    if t is str:
        return encode_basestring_ascii(v)
    if t is int:
        return int.__repr__(v)
    if t is float and isfinite(v):
        return float.__repr__(v)
    return json.dumps(v, sort_keys=True, indent=1).replace("\n", nl)


class _Writer:
    """The parts of one file. Qubits, matrices and circuits are rendered
    once per file and place, keyed by value or by `id`: the objects stay
    alive, and so keep their ids, while their file is written.
    `sorted_keys` gives a gate's keys in sorted order (protocol files), else
    in the order the strategy file writes them."""

    def __init__(self, sorted_keys: bool):
        self.sorted_keys = sorted_keys
        self.qubits: dict = {}
        self.matrices: dict = {}
        self.circuits: dict = {}

    def qubit(self, q, nl: str) -> str:
        text = self.qubits.get((q, nl))
        if text is None:
            inner = nl + " "
            text = self.qubits[q, nl] = (
                "[" + inner + _value(q[0], inner) + "," + inner
                + _value(q[1], inner) + nl + "]")
        return text

    def pairs(self, a: np.ndarray, nl: str) -> list[str]:
        """The entries of the complex array `a`, flattened, as [re, im]
        pairs; each distinct entry is rendered once."""
        # + 0.0 writes a zero component as 0.0 whatever its sign, so saved
        # bytes do not depend on how a kernel reached the zero, and equal
        # entries are equal bit for bit
        vals = (np.asarray(a) + 0.0).ravel().tolist()
        pair = "[" + nl + " %s," + nl + " %s" + nl + "]"
        texts = dict.fromkeys(vals)
        for z in texts:
            texts[z] = pair % (_float(z.real), _float(z.imag))
        return list(map(texts.__getitem__, vals))

    def matrix(self, m: np.ndarray, nl: str) -> str:
        text = self.matrices.get((id(m), nl))
        if text is None:
            row_nl = nl + " "
            items = self.pairs(m, row_nl + " ")
            cols = m.shape[1]
            text = self.matrices[id(m), nl] = _seq(
                [_seq(items[i:i + cols], row_nl)
                 for i in range(0, len(items), cols)], nl)
        return text

    def gate(self, g: Gate, nl: str) -> str:
        inner = nl + " "
        item = inner + " "
        named = _NAMED.get(g.name)
        # a name is saved only with its own matrix: S^dag keeps the name "S"
        if named is None or (g.matrix is not named
                             and not np.array_equal(g.matrix, named)):
            name = '"gate": "U"'
            matrix = "," + inner + '"matrix": ' + self.matrix(g.matrix, inner)
        else:
            name = '"gate": ' + _value(g.name, inner)
            matrix = ""
        targets = '"targets": ' + _seq([self.qubit(t, item)
                                        for t in g.targets], inner)
        if g.controls:
            bit = item + " "
            controls = '"controls": ' + _seq(
                ["[" + bit + self.qubit(q, bit) + "," + bit + _value(b, bit)
                 + item + "]" for q, b in g.controls], inner)
            fields = ((controls, name + matrix, targets) if self.sorted_keys
                      else (name, targets + matrix, controls))
        else:
            fields = ((name + matrix, targets) if self.sorted_keys
                      else (name, targets + matrix))
        return "{" + inner + ("," + inner).join(fields) + nl + "}"

    def circuit(self, c: Circuit, nl: str) -> str:
        text = self.circuits.get((id(c), nl))
        if text is None:
            inner = nl + " "
            text = self.circuits[id(c), nl] = _seq(
                [self.gate(g, inner) for g in c.gates], nl)
        return text

    def projector(self, p: ProjectorOp, nl: str) -> str:
        inner = nl + " "
        if p.kind == "output_one":
            return _obj([('"qubit"', self.qubit(p.qubits[0], inner)),
                         ('"type"', f'"{PROJ_OUTPUT_ONE}"')], nl)
        if p.kind == "all_zero":
            return _obj([('"qubits"', _seq([self.qubit(q, inner + " ")
                                            for q in p.qubits], inner)),
                         ('"type"', f'"{PROJ_ALL_ZERO}"')], nl)
        return _obj([('"inner"', self.projector(p.inner, inner)),
                     ('"type"', f'"{PROJ_COMPLEMENT}"')], nl)

    def projectors(self, ps, nl: str) -> str:
        return _seq([self.projector(p, nl + " ") for p in ps], nl)


def _when(w, nl: str) -> str:
    if w is None:
        return "null"
    return _seq([_value(w[0], nl + " "), _value(w[1], nl + " ")], nl)


def _instance_text(instance: ProtocolInstance) -> str:
    """The protocol file of `instance`, without its final newline.

    Circuits are named as they are first met (verifier turn j's apply steps
    v<j>, v<j>_2, ...; prover i's turn t p<i>_t<t>; the final steps final)
    and listed by name."""
    w = _Writer(sorted_keys=True)
    spec = instance.verifier
    n1, n2, n3, n4 = ("\n" + " " * d for d in range(1, 5))
    circuits: dict[str, str] = {}

    def name_circuit(base: str, c: Circuit) -> str:
        nm = base
        i = 2
        while nm in circuits:
            nm = f"{base}_{i}"
            i += 1
        circuits[nm] = w.circuit(c, n2)
        return encode_basestring_ascii(nm)

    def steps_text(steps, base: str, nl: str) -> str:
        """The steps as the items of a list closed at `nl`."""
        item = nl + " "
        key = item + " "
        out = []
        for s in steps:
            if isinstance(s, ApplyStep):
                out.append(_obj([('"apply"', name_circuit(base, s.circuit)),
                                 ('"when"', _when(s.when, key))], item))
            elif isinstance(s, CoinStep):
                inner = key + " "
                record = "null" if s.record is None else _seq(
                    [w.qubit(q, inner + " ") for q in s.record], inner)
                out.append(_obj([('"coin"', _obj([
                    ('"flips"', _value(s.flips, inner)),
                    ('"id"', _value(s.coin_id, inner)),
                    ('"recipients"', _seq([_value(r, inner + " ")
                                           for r in s.recipients], inner)),
                    ('"record"', record)], key))], item))
            else:
                out.append(_obj([('"accept_now"', w.projectors(s.projectors, key)),
                                 ('"when"', _when(s.when, key))], item))
        return _seq(out, nl)

    turns: list[str] = []
    v_idx = p_idx = 0
    for t in range(1, spec.m + 1):
        if turn_owner(spec.m, t) == "V":
            v_idx += 1
            turns.append(_obj([
                ('"owner"', '"verifier"'),
                ('"steps"', steps_text(spec.turns[v_idx - 1].steps,
                                       f"v{v_idx}", n3))], n2))
        else:
            p_idx += 1
            entry = {}
            for p in instance.provers:
                entry[str(p.index)] = name_circuit(
                    f"p{p.index}_t{p_idx}", p.circuits[p_idx - 1])
            turns.append(_obj([
                ('"circuits"', _obj([(encode_basestring_ascii(i), entry[i])
                                     for i in sorted(entry)], n3)),
                ('"owner"', '"provers"')], n2))

    final_steps = steps_text(spec.final.steps, "final", n2)
    accept = _seq([_obj([('"projectors"', w.projectors(rule.projectors, n4)),
                         ('"when"', _when(rule.when, n4))], n3)
                   for rule in spec.final.accept], n2)

    meta = instance.meta
    shared = instance.shared
    shared_fields = [('"amplitudes"', _seq(w.pairs(shared.amplitudes, n3), n2))]
    # written only when there are known bits, so a state without them keeps
    # the bytes it had before known bits existed
    if shared.known:
        shared_fields.append(('"known"', _seq(
            [_seq([w.qubit(q, n4), _value(bit, n4)], n3)
             for q, bit in shared.known], n2)))
    return _obj([
        ('"circuits"', _obj([(encode_basestring_ascii(nm), circuits[nm])
                             for nm in sorted(circuits)], n1)),
        ('"final"', _obj([('"accept"', accept), ('"steps"', final_steps)], n1)),
        ('"format"', f'"{FORMAT_TAG}"'),
        ('"meta"', _obj([
            ('"claimed_completeness"', _value(meta.claimed_completeness, n2)),
            ('"claimed_soundness"', _value(meta.claimed_soundness, n2)),
            ('"name"', _value(meta.name, n2)),
            ('"notes"', _seq([_value(x, n3) for x in meta.notes], n2)),
            ('"role"', _value(meta.role, n2))], n1)),
        ('"output_qubit"', "null" if spec.output_qubit is None
         else w.qubit(spec.output_qubit, n1)),
        ('"registers"', _seq([_obj([('"name"', _value(r.name, n3)),
                                    ('"qubits"', _value(r.qubits, n3)),
                                    ('"role"', _value(r.role, n3))], n2)
                              for r in spec.layout.registers], n1)),
        ('"shared_state"', _obj(shared_fields, n1)),
        ('"turns"', _seq(turns, n1)),
    ], "\n")


def instance_to_dict(instance: ProtocolInstance) -> dict:
    """The data of `instance`'s protocol file, read back from the text
    `save` writes."""
    return json.loads(_instance_text(instance))


def instance_from_dict(data: dict) -> ProtocolInstance:
    if not isinstance(data, dict) or data.get("format") != FORMAT_TAG:
        raise _err("format", f"expected {FORMAT_TAG!r}")
    # `where` is the part being read, named if its JSON has the wrong shape
    where = "registers"
    try:
        regs = []
        for i, rv in enumerate(data.get("registers", [])):
            where = f"registers[{i}]"
            if type(rv["qubits"]) is not int:
                raise _err(where, f"register sizes are integers, "
                                  f"not {rv['qubits']!r}")
            regs.append(Register(str(rv["name"]), rv["qubits"],
                                 str(rv["role"])))
        layout = RegisterLayout(tuple(regs))

        where = "circuits"
        circuits: dict[str, Circuit] = {}
        for name, cv in data.get("circuits", {}).items():
            circuits[name] = _circuit_dec(cv, circuits, f"circuits.{name}")

        turns_v: list[VerifierTurn] = []
        prover_circuits: dict[int, list[Circuit]] = {
            i: [] for i in range(1, layout.k + 1)}
        where = "turns"
        turns = data.get("turns", [])
        m = len(turns)
        for t, tv in enumerate(turns, start=1):
            where = path = f"turns[{t-1}]"
            owner = tv.get("owner")
            expected = "verifier" if turn_owner(m, t) == "V" else "provers"
            if owner != expected:
                raise _err(path, f"turn {t} must belong to the {expected} "
                                 f"(alternation with the last turn for the "
                                 f"provers)")
            if owner == "verifier":
                turns_v.append(VerifierTurn(
                    _steps_dec(tv.get("steps", []), circuits,
                               f"{path}.steps", t)))
            else:
                entry = tv.get("circuits", {})
                for i in range(1, layout.k + 1):
                    prover_circuits[i].append(
                        _circuit_dec(entry.get(str(i)), circuits,
                                     f"{path}.circuits.{i}"))

        where = "final"
        fv = data.get("final", {})
        final_steps = _steps_dec(fv.get("steps", []), circuits,
                                 "final.steps", None)
        accept = tuple(
            AcceptRule(tuple(_proj_dec(p, f"final.accept[{i}]")
                             for p in rv.get("projectors", [])),
                       _when_dec(rv.get("when"), f"final.accept[{i}]"))
            for i, rv in enumerate(fv.get("accept", [])))

        out_q = data.get("output_qubit")
        spec = VerifierSpec(layout, m, tuple(turns_v),
                            FinalDecision(final_steps, accept),
                            None if out_q is None
                            else _qubit_dec(out_q, "output_qubit"))

        where = "shared_state"
        sv = data.get("shared_state", {})
        if "amplitudes" in sv:
            amps = np.array([_c_dec(z, "shared_state.amplitudes")
                             for z in sv["amplitudes"]], dtype=np.complex128)
            norm = np.linalg.norm(amps)
            if not abs(norm - 1.0) <= NORM_TOL:     # a NaN entry fails too
                raise _err("shared_state",
                           f"amplitudes not normalized (||psi|| deviates by "
                           f"{abs(norm-1.0):.3e})")
            known = _known_dec(sv.get("known", []), "shared_state.known")
            try:
                shared = StateVector(amps, layout.shared_layout, known=known)
            except ValidationError as e:
                raise _err("shared_state", str(e)) from None
        elif "known" in sv:
            raise _err("shared_state.known", "known bits go with amplitudes")
        elif "circuit" in sv:
            from .circuits import apply_circuit
            from .linalg import zero_state
            prep = _circuit_dec(sv["circuit"], circuits,
                                "shared_state.circuit")
            try:
                shared = apply_circuit(zero_state(layout.shared_layout), prep)
            except MemoryError:
                raise _err("shared_state.circuit",
                           "the prepared state does not fit in memory") from None
        else:
            raise _err("shared_state",
                       "needs amplitudes or a preparation circuit")

        where = "meta"
        mv = data.get("meta", {})
        meta = InstanceMeta(
            name=str(mv.get("name", "")),
            role=mv.get("role"),
            claimed_completeness=_claim_dec(mv.get("claimed_completeness"),
                                            "meta.claimed_completeness"),
            claimed_soundness=_claim_dec(mv.get("claimed_soundness"),
                                         "meta.claimed_soundness"),
            notes=tuple(mv.get("notes", [])))
        provers = tuple(ProverStrategy(i, tuple(prover_circuits[i]))
                        for i in range(1, layout.k + 1))
    except _MALFORMED as e:
        raise _malformed(where, e) from None
    instance = ProtocolInstance(spec, provers, shared, meta)
    require_valid(instance)
    return instance


def save(instance: ProtocolInstance, path: str | Path) -> str:
    """Write `instance` to `path` and return the text written.

    The file is rewritten in place: opened without truncation, overwritten
    and then cut to the new length. On ext4 this avoids the writeback that
    truncating a file starts at close; a crash mid-save can leave old and
    new bytes mixed.
    """
    text = _instance_text(instance) + "\n"
    data = memoryview(text.encode("ascii"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
        st = os.fstat(fd)
        if S_ISREG(st.st_mode) and st.st_size > len(text):
            os.ftruncate(fd, len(text))
    finally:
        os.close(fd)
    return text


def _read_json(p: Path):
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ValidationError(f"{p}: line {e.lineno}: {e.msg}") from None


def load(path: str | Path) -> ProtocolInstance:
    p = Path(path)
    data = _read_json(p)
    try:
        return instance_from_dict(data)
    except ValidationError as e:
        raise ValidationError(f"{p}: {e}")


def digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# strategy files (adversary output) and run records


def strategy_text(result) -> str:
    """The strategy file of a see-saw result: the text
    `json.dumps(data, indent=1)` writes, keys in the order below."""
    w = _Writer(sorted_keys=False)
    n1, n2, n3, n4 = ("\n" + " " * d for d in range(1, 5))
    strategies = [_obj([('"index"', _value(p.index, n3)),
                        ('"turns"', _seq([w.circuit(c, n4) for c in p.circuits],
                                         n3))], n2)
                  for p in result.strategies]
    return _obj([
        ('"format"', f'"{STRATEGY_TAG}"'),
        ('"value"', _value(result.value, n1)),
        ('"prover_dims"', _seq([_value(d, n2) for d in result.prover_dims],
                               n1)),
        ('"strategies"', _seq(strategies, n1)),
        ('"shared"', _seq(w.pairs(result.shared.amplitudes, n2), n1)),
        ('"trace"', _seq([_value(x, n2) for x in result.trace], n1)),
        ('"converged"', _value(result.converged, n1)),
        ('"restart_values"', _seq([_value(x, n2)
                                   for x in result.restart_values], n1)),
    ], "\n")


def load_strategy(path: str | Path) -> dict:
    p = Path(path)
    data = _read_json(p)
    if not isinstance(data, dict) or data.get("format") != STRATEGY_TAG:
        raise ValidationError(f"{p}: expected {STRATEGY_TAG!r}")
    where = "prover_dims"
    try:
        dims = [_int_dec(d, f"prover_dims[{i}]", "prover dimensions")
                for i, d in enumerate(data["prover_dims"])]
        strategies = []
        for i, sv in enumerate(data["strategies"]):
            where = f"strategies[{i}]"
            circuits = tuple(_circuit_dec(cv, {}, f"{where}.turns[{t}]")
                             for t, cv in enumerate(sv["turns"]))
            strategies.append(ProverStrategy(
                _int_dec(sv["index"], f"{where}.index", "prover indices"),
                circuits))
        where = "shared"
        amps = np.array([_c_dec(z, "shared") for z in data["shared"]],
                        dtype=np.complex128)
        where = "value"
        value = float(data["value"])
    except _MALFORMED as e:
        raise ValidationError(f"{p}: {_malformed(where, e)}") from None
    except ValidationError as e:
        raise ValidationError(f"{p}: {e}") from None
    return {"prover_dims": dims, "strategies": tuple(strategies),
            "shared_amplitudes": amps, "value": value}


@dataclass(frozen=True)
class RunRecord:
    command: str
    input_digest: str
    seed: int | None
    acceptance: float | None = None
    transform_report: dict | None = None
    adversary: dict | None = None
    verdict: str | None = None
    wall_time_s: float | None = None

    def as_json_line(self) -> str:
        data = {k: v for k, v in asdict(self).items() if v is not None}
        return json.dumps(data, sort_keys=True)
