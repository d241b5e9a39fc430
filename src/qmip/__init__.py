"""Desk-scale toolkit for quantum multi-prover interactive protocols:
exact state-vector simulation, protocol transformations (rewinding to perfect
completeness, turn halving, public-coin conversion, one-round compression,
repetitions), and adversarial audits by see-saw optimization."""

from .adversary import (AdversaryResult, SeesawConfig, brute_force_value,
                        optimal_shared_state, random_search, seesaw)
from .circuits import Circuit, Gate, apply_circuit, apply_gate, circuit_matrix
from .config import (DEFAULT_RUN_CONFIG, BudgetError, NumericalCheckError,
                     PreconditionError, RunConfig, ValidationError)
from .linalg import (ProjectorOp, StateVector, fidelity, polar_unitary,
                     project, project_norm_sq, random_density, random_state,
                     random_unitary, tensor_states, zero_state)
from .model import (AcceptNowStep, AcceptRule, ApplyStep, CoinStep,
                    FinalDecision, InstanceMeta, ProtocolInstance,
                    ProverStrategy, Register, RegisterLayout, Transcript,
                    VerifierSpec, VerifierTurn, is_public_coin, purify_coins,
                    run, turn_owner, validate)
from .transforms import (PASSES, PipelineResult, TransformReport,
                         TransformResult, direct_two_turn, halve_turns,
                         make_perfectly_rewindable, pad_turns,
                         parallel_repetition_fresh_provers,
                         parallelize_to_three, public_coin_to_one_round,
                         rewind_to_perfect_completeness, run_pipeline,
                         sequential_repetition, to_public_coin_3turn)

__version__ = "0.1.0"
