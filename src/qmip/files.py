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
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from stat import S_ISREG
from typing import Any

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


def _complex_enc(a) -> list:
    """The complex array `a` as nested lists of [re, im] pairs, with equal
    entries as one shared pair object, which `_json_pairs` renders once."""
    # + 0.0 writes a zero component as 0.0 whatever its sign, so saved bytes
    # do not depend on how a kernel reached the zero and equal entries are
    # equal bit for bit; NaNs stay distinct (equal_nan=False)
    a = np.asarray(a) + 0.0
    vals, inv = np.unique(a.ravel(), return_inverse=True, equal_nan=False)
    pairs = np.stack((vals.real, vals.imag), -1).tolist()
    out = list(map(pairs.__getitem__, inv.tolist()))
    for n in reversed(a.shape[1:]):
        out = [out[i:i + n] for i in range(0, len(out), n)]
    return out


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


def _qubit_enc(q) -> list:
    return [q[0], q[1]]


def _qubit_dec(v, path: str) -> tuple[str, int]:
    if not (isinstance(v, list) and len(v) == 2):
        raise _err(path, "qubits are [register, index] pairs")
    try:
        return (str(v[0]), int(v[1]))
    except (TypeError, ValueError):
        raise _err(path, f"qubit indices are integers, not {v[1]!r}") from None


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


def _gate_enc(g: Gate) -> dict:
    out: dict[str, Any] = {"gate": g.name, "targets": [_qubit_enc(t) for t in g.targets]}
    named = _NAMED.get(g.name)
    # a name is saved only with its own matrix: S^dag keeps the name "S"
    if named is None or (g.matrix is not named
                         and not np.array_equal(g.matrix, named)):
        out["gate"] = "U"
        out["matrix"] = _complex_enc(g.matrix)
    if g.controls:
        out["controls"] = [[_qubit_enc(q), b] for q, b in g.controls]
    return out


def _check_unitary(name: str, m: np.ndarray, path: str) -> None:
    d = m.shape[0]
    if m.ndim != 2 or m.shape[0] != m.shape[1] or d & (d - 1):
        raise _err(path, f"gate {name} matrix must be square power-of-two")
    dev = float(np.abs(m.conj().T @ m - np.eye(d)).max())
    if dev > UNITARITY_TOL:
        raise _err(path, f"gate {name} not unitary (||U^dag U - I|| = {dev:.3e})")


def _gate_dec(v, circuits: dict[str, Circuit], path: str) -> list[Gate]:
    if not isinstance(v, dict) or "gate" not in v:
        raise _err(path, "gate entries are objects with a 'gate' field")
    try:
        name = v["gate"]
        controls = tuple((_qubit_dec(c[0], f"{path}.controls"), int(c[1]) & 1)
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


def _circuit_enc(c: Circuit) -> list[dict]:
    return [_gate_enc(g) for g in c.gates]


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


def _proj_enc(p: ProjectorOp) -> dict:
    if p.kind == "output_one":
        return {"type": PROJ_OUTPUT_ONE, "qubit": _qubit_enc(p.qubits[0])}
    if p.kind == "all_zero":
        return {"type": PROJ_ALL_ZERO, "qubits": [_qubit_enc(q) for q in p.qubits]}
    return {"type": PROJ_COMPLEMENT, "inner": _proj_enc(p.inner)}


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


def _when_enc(w) -> list | None:
    return None if w is None else [w[0], w[1]]


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
                    str(cv.get("id", f"coin{turn}")), int(cv.get("flips", 1)),
                    tuple(int(r) for r in cv.get("recipients", [])),
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
# instance <-> dict


def instance_to_dict(instance: ProtocolInstance) -> dict:
    spec = instance.verifier
    layout = spec.layout
    circuits: dict[str, list] = {}

    def name_circuit(base: str, c: Circuit) -> str:
        nm = base
        i = 2
        while nm in circuits:
            nm = f"{base}_{i}"
            i += 1
        circuits[nm] = _circuit_enc(c)
        return nm

    def steps_enc(steps, base: str) -> list[dict]:
        out = []
        for s in steps:
            if isinstance(s, ApplyStep):
                out.append({"apply": name_circuit(base, s.circuit),
                            "when": _when_enc(s.when)})
            elif isinstance(s, CoinStep):
                out.append({"coin": {
                    "id": s.coin_id, "flips": s.flips,
                    "recipients": list(s.recipients),
                    "record": None if s.record is None
                    else [_qubit_enc(q) for q in s.record]}})
            else:
                out.append({"accept_now": [_proj_enc(p) for p in s.projectors],
                            "when": _when_enc(s.when)})
        return out

    turns_out: list[dict] = []
    v_idx = 0
    p_idx = 0
    for t in range(1, spec.m + 1):
        if turn_owner(spec.m, t) == "V":
            v_idx += 1
            turns_out.append({"owner": "verifier", "steps": steps_enc(
                spec.turns[v_idx - 1].steps, f"v{v_idx}")})
        else:
            p_idx += 1
            entry = {}
            for p in instance.provers:
                entry[str(p.index)] = name_circuit(
                    f"p{p.index}_t{p_idx}", p.circuits[p_idx - 1])
            turns_out.append({"owner": "provers", "circuits": entry})

    final_steps = steps_enc(spec.final.steps, "final")
    accept = [{"projectors": [_proj_enc(p) for p in rule.projectors],
               "when": _when_enc(rule.when)} for rule in spec.final.accept]

    meta = instance.meta
    return {
        "format": FORMAT_TAG,
        "meta": {
            "name": meta.name, "role": meta.role,
            "claimed_completeness": meta.claimed_completeness,
            "claimed_soundness": meta.claimed_soundness,
            "notes": list(meta.notes),
        },
        "registers": [{"name": r.name, "qubits": r.qubits, "role": r.role}
                      for r in layout.registers],
        "circuits": circuits,
        "turns": turns_out,
        "final": {"steps": final_steps, "accept": accept},
        "output_qubit": None if spec.output_qubit is None
        else _qubit_enc(spec.output_qubit),
        "shared_state": _shared_enc(instance.shared),
    }


def _shared_enc(shared: StateVector) -> dict:
    """The live amplitudes, and the known bits when there are any, so a
    state without them keeps the bytes it had before known bits existed."""
    out: dict[str, Any] = {"amplitudes": _complex_enc(shared.amplitudes)}
    if shared.known:
        out["known"] = [[_qubit_enc(q), bit] for q, bit in shared.known]
    return out


def instance_from_dict(data: dict) -> ProtocolInstance:
    if not isinstance(data, dict) or data.get("format") != FORMAT_TAG:
        raise _err("format", f"expected {FORMAT_TAG!r}")
    # `where` is the part being read, named if its JSON has the wrong shape
    where = "registers"
    try:
        regs = []
        for i, rv in enumerate(data.get("registers", [])):
            where = f"registers[{i}]"
            regs.append(Register(str(rv["name"]), int(rv["qubits"]),
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
            if abs(norm - 1.0) > NORM_TOL:
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


def canonical_json(data) -> str:
    """`data` as `json.dumps(data, sort_keys=True, indent=1)` writes it.

    `data` is built of dicts with str keys, lists, str, int, float, bool and
    None; anything else raises TypeError. `indent` turns off json's C
    encoder, so this writer stands in for it: a list of [float, float] pairs
    (amplitudes, matrix rows) is rendered with one format, each distinct
    pair object once, and floats go through `float.__repr__`, as json's do
    (numpy 2's `repr` of a float64 differs).
    """
    return _json(data, "\n")


def _json(o, nl: str) -> str:
    """`o` rendered with its closing bracket after `nl` (newline + indent)."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, list):
        if not o:
            return "[]"
        inner = nl + " "
        items = _json_pairs(o, inner)
        if items is None:
            items = ("," + inner).join([_json(v, inner) for v in o])
        return "[" + inner + items + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + " "
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _json(o[k], inner)
             for k in sorted(o)]) + nl + "}"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(o).__name__} "
                    f"is not JSON serializable")


def _json_pairs(o: list, inner: str) -> str | None:
    """The items of `o`, each after `inner`, if all are [float, float] pairs
    of finite floats; None otherwise.

    Each distinct item object is checked and rendered once, keyed by `id`,
    which holds because the tree does not change while it is written.
    """
    first = o[0]
    if (type(first) is not list or len(first) != 2
            or type(first[0]) is not float):
        return None
    ids = list(map(id, o))
    items = dict(zip(ids, o))
    distinct = list(items.values())
    if set(map(type, distinct)) != {list} or set(map(len, distinct)) != {2}:
        return None
    flat = list(chain.from_iterable(distinct))
    if set(map(type, flat)) != {float} or not all(map(isfinite, flat)):
        return None
    reprs = list(map(float.__repr__, flat))
    pair = "[" + inner + " %s," + inner + " %s" + inner + "]"
    texts = dict(zip(items, map(pair.__mod__, zip(reprs[::2], reprs[1::2]))))
    return ("," + inner).join(map(texts.__getitem__, ids))


def save(instance: ProtocolInstance, path: str | Path) -> str:
    """Write `instance` to `path` and return the text written.

    The file is rewritten in place: opened without truncation, overwritten
    and then cut to the new length. On ext4 this avoids the writeback that
    truncating a file starts at close; a crash mid-save can leave old and
    new bytes mixed.
    """
    text = canonical_json(instance_to_dict(instance)) + "\n"
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


def strategy_to_dict(result) -> dict:
    return {
        "format": STRATEGY_TAG,
        "value": result.value,
        "prover_dims": list(result.prover_dims),
        "strategies": [
            {"index": p.index,
             "turns": [_circuit_enc(c) for c in p.circuits]}
            for p in result.strategies],
        "shared": _complex_enc(result.shared.amplitudes),
        "trace": list(result.trace),
        "converged": result.converged,
        "restart_values": list(result.restart_values),
    }


def load_strategy(path: str | Path) -> dict:
    p = Path(path)
    data = _read_json(p)
    if not isinstance(data, dict) or data.get("format") != STRATEGY_TAG:
        raise ValidationError(f"{p}: expected {STRATEGY_TAG!r}")
    where = "prover_dims"
    try:
        dims = [int(d) for d in data["prover_dims"]]
        strategies = []
        for i, sv in enumerate(data["strategies"]):
            where = f"strategies[{i}]"
            circuits = tuple(_circuit_dec(cv, {}, where)
                             for cv in sv["turns"])
            strategies.append(ProverStrategy(int(sv["index"]), circuits))
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
