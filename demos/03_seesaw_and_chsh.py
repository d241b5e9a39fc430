# Adversarial audits: see-saw best response and the grid oracle
# ==============================================================
#
# Soundness claims quantify over all prover strategies and shared states.
# At fixed prover dimension we can search: alternate exact best-response
# updates (the polar factor of the environment operator for each prover-turn
# unitary, the top eigenvector of the acceptance operator for the shared
# state), then take L-BFGS steps on all unitaries at once with the state
# kept at that top eigenvector. No iteration lowers the value, so the trace
# tells the whole story.

import math

from qmip import SeesawConfig, brute_force_value, fixtures, seesaw
from qmip.adversary import optimal_shared_state

chsh = fixtures.chsh()
target = (1 + 1 / math.sqrt(2)) / 2
print(f"two provers, one round, correlated questions; "
      f"best value should be {target:.9f}")

result = seesaw(chsh.verifier,
                SeesawConfig(prover_dims=(1, 1), restarts=20, seed=0,
                             convergence_tol=1e-11, max_sweeps=120))
print(f"see-saw value: {result.value:.9f} "
      f"({'converged' if result.converged else 'hit the iteration cap'})")
print("ascent trace:", " ".join(f"{v:.6f}" for v in result.trace[:8]), "...")

# An independent lower-bound oracle: exhaustive grid over message-controlled
# rotation strategies with the shared state eigen-optimized at each point.
grid_value = brute_force_value(chsh.verifier, grid=math.pi / 64)
print(f"grid oracle: {grid_value:.9f} (never exceeds see-saw + grid slack)")

# For fixed strategies the optimal shared state is an eigenproblem. On the
# random-basis readout game the optimizer has to find a genuinely tilted
# state, not a computational basis vector.
ent = fixtures.ent()
p, state = optimal_shared_state(ent.verifier, ent.provers)
print(f"\nrandom-basis readout: optimum {p:.9f} at shared state "
      f"[{state.amplitudes[0]:.6f}, {state.amplitudes[1]:.6f}]")
print(f"(analytic: cos(pi/8), sin(pi/8) = "
      f"{math.cos(math.pi/8):.6f}, {math.sin(math.pi/8):.6f})")

# The audit language is deliberately one-sided: a see-saw value is what some
# concrete strategy achieves; finding nothing above a claimed bound is
# consistency, not certification.
no_instance = fixtures.sound_no()
audit = seesaw(no_instance.verifier,
               SeesawConfig(prover_dims=(2,), restarts=10, seed=1))
print(f"\nno-instance audit: best strategy found {audit.value:.9f}, "
      f"claimed soundness {no_instance.meta.claimed_soundness}")
