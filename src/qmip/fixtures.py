"""Bundled protocol fixtures and their generation/verification.

Most soundness-calibrated fixtures use the tilt/phase/untilt game: the
verifier rotates its output qubit by RY(theta), applies a controlled phase
between the output qubit and a message qubit, and finally rotates back by
RY(-theta). Acceptance probability is sin^2(theta) times the weight the
provers place on |1> in the message qubit at the phase moment, so the exact
optimum is sin^2(theta) for every prover dimension - an analytic anchor for
completeness and soundness tests alike.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .circuits import Circuit, cnot, cphase, h, ry, swap, toffoli, u1, x
from .config import NumericalCheckError
from .linalg import StateVector, zero_state
from .model import (AcceptRule, ApplyStep, FinalDecision, InstanceMeta,
                    ProtocolInstance, ProverStrategy, ProjectorOp, Register,
                    RegisterLayout, VerifierSpec, VerifierTurn, make_layout,
                    run)

COS2_PI_8 = (1.0 + 1.0 / math.sqrt(2.0)) / 2.0


def _accept_on(qubit) -> tuple[AcceptRule, ...]:
    return (AcceptRule((ProjectorOp.output_one(qubit),)),)


def _instance(name, role, c, s, layout, m, v_turns, final_steps, accept_qubit,
              prover_circuits, shared=None) -> ProtocolInstance:
    spec = VerifierSpec(
        layout, m,
        tuple(VerifierTurn((ApplyStep(circ),)) for circ in v_turns),
        FinalDecision(tuple(ApplyStep(c) for c in final_steps),
                      _accept_on(accept_qubit)),
        output_qubit=accept_qubit)
    provers = tuple(ProverStrategy(i + 1, tuple(circs))
                    for i, circs in enumerate(prover_circuits))
    meta = InstanceMeta(name=name, role=role, claimed_completeness=c,
                        claimed_soundness=s)
    return ProtocolInstance(spec, provers,
                            shared or zero_state(layout.shared_layout), meta)


def _tilt_gate(theta: float):
    return u1(ry(theta), ("V", 0))


def always() -> ProtocolInstance:
    lay = make_layout([("V", 1)], 1, 1, [1])
    return _instance(
        "always", "yes", 1.0, 1.0, lay, 2,
        [Circuit(())],
        [Circuit((x(("V", 0)),), label="set output")],
        ("V", 0),
        [[Circuit(())]])


def never() -> ProtocolInstance:
    lay = make_layout([("V", 1)], 1, 1, [1])
    return _instance(
        "never", "no", 0.0, 0.0, lay, 2,
        [Circuit(())],
        [Circuit(())],
        ("V", 0),
        [[Circuit(())]])


def guess() -> ProtocolInstance:
    """The verifier hides a fair coin; the prover guesses it. Value 1/2 for
    every strategy."""
    lay = make_layout([("V", 2)], 1, 1, [1])
    final = Circuit((cnot(("M1", 0), ("V", 1)), cnot(("V", 0), ("V", 1)),
                     x(("V", 1))), label="output = (guess == coin)")
    return _instance(
        "guess", None, 0.5, 0.5, lay, 2,
        [Circuit((h(("V", 0)),), label="hide a coin")],
        [final],
        ("V", 1),
        [[Circuit(())]])


def _phase_echo(name, role, theta, m, c_claim, s_claim) -> ProtocolInstance:
    """Tilt/phase/untilt game over m turns (m = 2, 3, 5 or 9)."""
    lay = make_layout([("V", 1)], 1, 1, [1])
    tilt = Circuit((_tilt_gate(theta),), label="tilt")
    untilt = Circuit((_tilt_gate(-theta),), label="untilt")
    phase = Circuit((cphase([("V", 0), ("M1", 0)]),), label="mark")
    hon = Circuit((x(("M1", 0)),), label="commit to 1")
    ident = Circuit(())
    if m == 2:
        v_turns = [tilt]
        final = [phase + untilt]
        provers = [[hon]]
    elif m == 3:
        v_turns = [tilt + phase]
        final = [untilt]
        provers = [[hon, ident]]
    elif m == 5:
        v_turns = [tilt, phase]
        final = [untilt]
        provers = [[hon, ident, ident]]
    elif m == 9:
        v_turns = [tilt, ident, phase, ident]
        final = [untilt]
        provers = [[hon, ident, ident, ident, ident]]
    else:
        raise ValueError(f"unsupported turn count {m}")
    return _instance(name, role, c_claim, s_claim, lay, m, v_turns, final,
                     ("V", 0), provers)


def good() -> ProtocolInstance:
    """Honest optimum exactly 3/4 = sin^2(pi/3)."""
    return _phase_echo("good", "yes", math.pi / 3, 2, 0.75, 0.75)


def ent() -> ProtocolInstance:
    """Random-basis readout: the verifier checks the returned qubit against
    |0> in a randomly chosen basis. Acceptance is linear in the answer state,
    so the exact optimum is the top eigenvalue (1 + 1/sqrt(2))/2 for every
    prover dimension, attained at the Bloch pi/4 state."""
    lay = make_layout([("V", 2)], 1, 1, [1])
    phi = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)],
                   dtype=np.complex128)
    honest = Circuit((swap(("P1", 0), ("M1", 0)),), label="send the state")
    final = Circuit((u1(np.array([[1, 1], [1, -1]]) / math.sqrt(2),
                        ("M1", 0), controls=((("V", 0), 1),)),
                     cnot(("M1", 0), ("V", 1)), x(("V", 1))),
                    label="unrotate, accept answer 0")
    return _instance(
        "ent", "yes", COS2_PI_8, COS2_PI_8, lay, 2,
        [Circuit((h(("V", 0)),), label="pick a basis")],
        [final],
        ("V", 1),
        [[honest]],
        shared=StateVector(phi, (("P1", 1),)))


def chsh() -> ProtocolInstance:
    lay = RegisterLayout((
        Register("V", 3, "verifier"),
        Register("M1", 1, "message"), Register("M2", 1, "message"),
        Register("P1", 1, "prover"), Register("P2", 1, "prover")))
    questions = Circuit((h(("V", 0)), h(("V", 1)),
                         cnot(("V", 0), ("M1", 0)), cnot(("V", 1), ("M2", 0))),
                        label="independent questions")
    alice = Circuit((u1(ry(-math.pi / 2), ("P1", 0), controls=((("M1", 0), 1),)),
                     swap(("P1", 0), ("M1", 0))), label="alice")
    bob = Circuit((u1(ry(-math.pi / 4), ("P2", 0), controls=((("M2", 0), 0),)),
                   u1(ry(math.pi / 4), ("P2", 0), controls=((("M2", 0), 1),)),
                   swap(("P2", 0), ("M2", 0))), label="bob")
    win = Circuit((cnot(("M1", 0), ("V", 2)), cnot(("M2", 0), ("V", 2)),
                   toffoli(("V", 0), ("V", 1), ("V", 2)), x(("V", 2))),
                  label="win predicate")
    epr = np.zeros(4, dtype=np.complex128)
    epr[0] = epr[3] = 1.0 / math.sqrt(2.0)
    return _instance(
        "chsh", None, COS2_PI_8, COS2_PI_8, lay, 2,
        [questions], [win], ("V", 2),
        [[alice], [bob]],
        shared=StateVector(epr, (("P1", 1), ("P2", 1))))


def sound_yes() -> ProtocolInstance:
    return _phase_echo("sound_yes", "yes", math.pi / 2, 2, 1.0, 0.01)


def sound_no() -> ProtocolInstance:
    return _phase_echo("sound_no", "no", math.asin(math.sqrt(0.01)), 2, 1.0, 0.01)


def five_turn_yes() -> ProtocolInstance:
    return _phase_echo("five_turn_yes", "yes", math.pi / 2, 5, 1.0, 0.04)


def five_turn_no() -> ProtocolInstance:
    return _phase_echo("five_turn_no", "no", math.asin(math.sqrt(0.04)), 5,
                       1.0, 0.04)


def nine_turn_yes() -> ProtocolInstance:
    return _phase_echo("nine_turn_yes", "yes", math.pi / 2, 9, 1.0, 0.04)


def nine_turn_no() -> ProtocolInstance:
    return _phase_echo("nine_turn_no", "no", math.asin(math.sqrt(0.04)), 9,
                       1.0, 0.04)


def three_turn() -> ProtocolInstance:
    return _phase_echo("three_turn", "yes", math.pi / 3, 3, 0.75, 0.75)


BUILDERS = {
    "always": always,
    "never": never,
    "guess": guess,
    "good": good,
    "ent": ent,
    "chsh": chsh,
    "sound_yes": sound_yes,
    "sound_no": sound_no,
    "five_turn_yes": five_turn_yes,
    "five_turn_no": five_turn_no,
    "nine_turn_yes": nine_turn_yes,
    "nine_turn_no": nine_turn_no,
    "three_turn": three_turn,
}

# honest acceptance values with citation-free provenance
EXPECTED = {
    "always": (1.0, "analytic: output set unconditionally"),
    "never": (0.0, "analytic: output never set"),
    "guess": (0.5, "analytic: answer independent of the hidden coin"),
    "good": (0.75, "analytic: sin^2(pi/3)"),
    "ent": (COS2_PI_8, "analytic: (1 + 1/sqrt(2))/2 at the Bloch pi/4 state"),
    "chsh": (COS2_PI_8, "analytic: optimal entangled strategy value"),
    "sound_yes": (1.0, "analytic: sin^2(pi/2)"),
    "sound_no": (0.01, "analytic: sin^2 of the tilt, committed answer 1"),
    "five_turn_yes": (1.0, "analytic: sin^2(pi/2)"),
    "five_turn_no": (0.04, "analytic: sin^2 of the tilt, committed answer 1"),
    "nine_turn_yes": (1.0, "analytic: sin^2(pi/2)"),
    "nine_turn_no": (0.04, "analytic: sin^2 of the tilt, committed answer 1"),
    "three_turn": (0.75, "analytic: sin^2(pi/3)"),
}

REWINDABLE_SOURCES = ("good", "always", "ent")


def generate_all(directory: str | Path) -> dict:
    """Build every fixture, write the protocol files and a manifest with
    computed expected values, and return the manifest."""
    from . import files
    from .transforms import make_perfectly_rewindable

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"format": "qmip-fixtures/1", "entries": {}}

    instances = {name: builder() for name, builder in BUILDERS.items()}
    for src in REWINDABLE_SOURCES:
        res = make_perfectly_rewindable(instances[src])
        inst = res.instance
        instances[f"rw_{src}"] = inst

    for name, inst in instances.items():
        fname = f"{name}.json"
        text = files.save(inst, directory / fname)
        measured = run(inst).acceptance
        if name in EXPECTED:
            expected, provenance = EXPECTED[name]
        else:
            expected, provenance = 0.5, (
                "construction-identity: flagged system's optimum is exactly 1/2 "
                "and the committed shared state attains it")
        if abs(measured - expected) > 1e-9:
            raise NumericalCheckError(
                f"fixture {name}: measured {measured:.12f}, expected {expected:.12f}")
        manifest["entries"][name] = {
            "file": fname,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
            "honest_value": measured,
            "expected_honest_value": expected,
            "provenance": provenance,
            "claims": {
                "completeness": inst.meta.claimed_completeness,
                "soundness": inst.meta.claimed_soundness,
                "role": inst.meta.role,
            },
        }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return manifest


def verify_all(directory: str | Path) -> list[str]:
    """Re-run every committed fixture against the manifest. Returns a list of
    discrepancies (empty = all good)."""
    from . import files

    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    problems = []
    for name, entry in sorted(manifest["entries"].items()):
        path = directory / entry["file"]
        if not path.exists():
            problems.append(f"{name}: file missing")
            continue
        d = files.digest(path)
        if d != entry["digest"]:
            problems.append(f"{name}: digest mismatch")
        inst = files.load(path)
        measured = run(inst).acceptance
        if abs(measured - entry["expected_honest_value"]) > 1e-9:
            problems.append(
                f"{name}: honest value {measured:.12f} != "
                f"{entry['expected_honest_value']:.12f}")
    return problems


def fixtures_dir() -> Path:
    """The repository fixtures directory (next to the package sources)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        cand = parent / "fixtures"
        if (cand / "manifest.json").exists():
            return cand
    raise FileNotFoundError("fixtures directory not found; run "
                            "`qmip fixtures generate` first")
