# Simulating multi-prover protocols exactly
# =========================================
#
# A protocol instance bundles a verifier (per-turn circuits plus a final
# decision), one strategy per prover, and the state the provers share before
# the first message. This demo builds a tiny guessing game from scratch,
# runs it, and pokes at the transcript.

import numpy as np

from qmip import (AcceptRule, ApplyStep, FinalDecision, InstanceMeta,
                  ProjectorOp, ProtocolInstance, ProverStrategy, Register,
                  RegisterLayout, StateVector, VerifierSpec, VerifierTurn,
                  run, validate)
from qmip.circuits import Circuit, cnot, h, x

# Registers: the verifier holds a hidden coin and the output qubit, there is
# one single-qubit message register, and the prover has one private qubit.
layout = RegisterLayout((
    Register("V", 2, "verifier"),
    Register("M1", 1, "message"),
    Register("P1", 1, "prover"),
))

# Turn 1 (verifier): flip the hidden coin. Nothing useful is sent.
hide = Circuit((h(("V", 0)),), label="hide a coin")

# After the prover's turn the verifier computes
#   output = 1 XOR guess XOR coin,
# i.e. accepts exactly when the guess matches the coin.
decide = Circuit((cnot(("M1", 0), ("V", 1)),
                  cnot(("V", 0), ("V", 1)),
                  x(("V", 1))), label="compare")

spec = VerifierSpec(
    layout, 2,
    (VerifierTurn((ApplyStep(hide),)),),
    FinalDecision((ApplyStep(decide),),
                  (AcceptRule((ProjectorOp.output_one(("V", 1)),)),)),
    output_qubit=("V", 1))

# The prover guesses "1" by flipping its message qubit.
prover = ProverStrategy(1, (Circuit((x(("M1", 0)),)),))
shared = StateVector(np.array([1, 0], dtype=complex), (("P1", 1),))
instance = ProtocolInstance(spec, (prover,), shared,
                            InstanceMeta(name="demo-guess"))

print("validation problems:", validate(instance))

transcript = run(instance, snapshot_turns=range(1, instance.m + 1))
print(f"acceptance probability: {transcript.acceptance:.12f}")
# No strategy can beat 1/2: the coin never leaves the verifier's space.

# Each snapshot is held at its live width: qubits the run knows to hold a
# fixed bit (here the untouched verifier and message qubits) are kept as
# known bits, not as amplitudes.
for snap in transcript.snapshots:
    state = snap.state()
    print(f"  after turn {snap.turn}: ||state|| = {snap.norm():.12f}, "
          f"{len(state.amplitudes)} amplitudes, known bits {state.known}")

# The transcript also records per-branch bookkeeping. This protocol has no
# coin broadcasts, so there is a single branch with full weight.
for rec in transcript.branches:
    print(f"  branch {rec.history!r}: weight {rec.weight}, "
          f"final probability {rec.final_prob:.6f}")
