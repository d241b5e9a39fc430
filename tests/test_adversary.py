"""Optimal shared states, see-saw ascent, and the exhaustive grid oracle."""

import math

import numpy as np
import pytest

from qmip import adversary, fixtures
from qmip.adversary import (SeesawConfig, brute_force_value,
                            optimal_shared_state, random_search,
                            resize_prover_registers, seesaw,
                            strategies_from_assignment)
from qmip.config import (BudgetError, NumericalCheckError, PreconditionError,
                         RunConfig)
from qmip.linalg import StateVector, random_state
from qmip.model import ProtocolInstance, run
from qmip.transforms import make_perfectly_rewindable

COS2_PI_8 = (1.0 + 1.0 / math.sqrt(2.0)) / 2.0


# --- optimal shared state ---------------------------------------------------


def test_optimal_state_on_flagged_fixture_is_half():
    rw = make_perfectly_rewindable(fixtures.good()).instance
    p, state = optimal_shared_state(rw.verifier, rw.provers)
    assert abs(p - 0.5) <= 1e-9


def test_optimal_state_state_independent_game():
    # the verifier ignores the messages and accepts: value 1 for any state
    inst = fixtures.always()
    p, state = optimal_shared_state(inst.verifier, inst.provers)
    assert abs(p - 1.0) <= 1e-9
    assert abs(state.norm() - 1.0) <= 1e-12


def test_optimal_state_guess_with_random_sample_oracle():
    inst = fixtures.guess()
    p, _ = optimal_shared_state(inst.verifier, inst.provers)
    assert abs(p - 0.5) <= 1e-9
    rng = np.random.default_rng(9)
    for _ in range(20):
        phi = StateVector(random_state(2, rng), (("P1", 1),))
        val = run(inst.with_shared(phi)).acceptance
        assert val <= p + 1e-9


def test_optimal_state_nontrivial_eigenvector():
    inst = fixtures.ent()
    p, state = optimal_shared_state(inst.verifier, inst.provers)
    assert abs(p - COS2_PI_8) <= 1e-9
    expected = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
    overlap = abs(np.vdot(expected, state.amplitudes))
    assert overlap >= 1.0 - 1e-9


def test_eigen_simulation_agreement():
    for name in ("guess", "good", "ent", "chsh"):
        inst = fixtures.BUILDERS[name]()
        p, state = optimal_shared_state(inst.verifier, inst.provers)
        resim = run(inst.with_shared(state)).acceptance
        assert abs(resim - p) <= 1e-9


# --- see-saw ----------------------------------------------------------------


def test_seesaw_always_converges_first_sweep():
    res = seesaw(fixtures.always().verifier,
                 SeesawConfig(prover_dims=(1,), restarts=1, seed=0))
    assert abs(res.trace[0] - 1.0) <= 1e-9
    assert abs(res.value - 1.0) <= 1e-9


def test_seesaw_guess_with_random_search_oracle():
    res = seesaw(fixtures.guess().verifier,
                 SeesawConfig(prover_dims=(1,), restarts=3, seed=1))
    assert abs(res.value - 0.5) <= 1e-6
    best = random_search(fixtures.guess().verifier, (1,), samples=10_000, seed=2)
    assert best <= 0.5 + 1e-6


def test_seesaw_chsh_reaches_optimum():
    res = seesaw(fixtures.chsh().verifier,
                 SeesawConfig(prover_dims=(1, 1), restarts=20, seed=0,
                              convergence_tol=1e-11, max_sweeps=120))
    assert abs(res.value - COS2_PI_8) <= 1e-4


def test_chsh_independent_angle_grid_oracle():
    # closed-form CHSH win probability for measurement angle strategies on a
    # maximally correlated pair: P(equal answers) = cos^2((a-b)/2)
    def win(a0, a1, b0, b1):
        total = 0.0
        for x_, y_ in ((0, 0), (0, 1), (1, 0), (1, 1)):
            a = a0 if x_ == 0 else a1
            b = b0 if y_ == 0 else b1
            p_eq = math.cos((a - b) / 2.0) ** 2
            total += p_eq if x_ * y_ == 0 else 1.0 - p_eq
        return total / 4.0

    grid = np.linspace(0, 2 * math.pi, 33)[:-1]
    best = max(win(a0, a1, b0, b1)
               for a0 in grid for a1 in grid for b0 in grid for b1 in grid)
    assert abs(best - COS2_PI_8) <= 1e-9  # pi/4 multiples are on this grid


def test_seesaw_trace_monotone():
    res = seesaw(fixtures.chsh().verifier,
                 SeesawConfig(prover_dims=(1, 1), restarts=5, seed=3))
    for a, b in zip(res.trace, res.trace[1:]):
        assert b >= a - 1e-9
    assert res.value == res.trace[-1] or abs(res.value - res.trace[-1]) <= 1e-9


def test_seesaw_value_is_resimulated_probability():
    res = seesaw(fixtures.chsh().verifier,
                 SeesawConfig(prover_dims=(1, 1), restarts=3, seed=4))
    spec = resize_prover_registers(fixtures.chsh().verifier, (1, 1))
    inst = ProtocolInstance(spec, res.strategies, res.shared)
    assert abs(run(inst).acceptance - res.value) <= 1e-9


def test_best_response_local_optimality():
    # at convergence, small unitary perturbations of any single prover turn
    # must not improve the acceptance probability beyond 1e-7
    res = seesaw(fixtures.chsh().verifier,
                 SeesawConfig(prover_dims=(1, 1), restarts=8, seed=5,
                              convergence_tol=1e-12, max_sweeps=200))
    spec = resize_prover_registers(fixtures.chsh().verifier, (1, 1))
    base = ProtocolInstance(spec, res.strategies, res.shared)
    rng = np.random.default_rng(6)
    eps = 1e-3
    for which, strat in enumerate(res.strategies):
        u = strat.circuits[0].gates[0].matrix
        d = u.shape[0]
        for _ in range(1000 // 2):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, _ = np.linalg.qr(u + eps * g)
            # re-unitarize the perturbation via QR (phase-fixed)
            pert = q * np.sign(np.diag(q @ u.conj().T).real + 1e-300)
            assignment = {
                (p.index, 1): p.circuits[0].gates[0].matrix
                for p in res.strategies}
            assignment[(which + 1, 1)] = pert
            strategies = strategies_from_assignment(spec, assignment)
            val = run(base.with_provers(strategies)).acceptance
            assert val <= res.value + 1e-7


def test_seesaw_sound_no_finds_true_optimum():
    res = seesaw(fixtures.sound_no().verifier,
                 SeesawConfig(prover_dims=(1,), restarts=5, seed=1))
    assert abs(res.value - 0.01) <= 1e-6


# --- brute force grid --------------------------------------------------------


def test_grid_always_and_guess():
    assert abs(brute_force_value(fixtures.always().verifier) - 1.0) <= 1e-9
    v = brute_force_value(fixtures.guess().verifier)
    assert abs(v - 0.5) <= 1e-3


def test_grid_chsh_bounds():
    v = brute_force_value(fixtures.chsh().verifier)
    assert v >= 0.85
    res = seesaw(fixtures.chsh().verifier,
                 SeesawConfig(prover_dims=(1, 1), restarts=10, seed=0,
                              convergence_tol=1e-11, max_sweeps=120))
    assert v <= res.value + 1e-3


def test_grid_ent_reaches_eigen_optimum():
    v = brute_force_value(fixtures.ent().verifier)
    assert abs(v - COS2_PI_8) <= 1e-3
    p, _ = optimal_shared_state(fixtures.ent().verifier, fixtures.ent().provers)
    assert v <= p + 1e-9


def test_grid_refuses_large_instances():
    rw = make_perfectly_rewindable(fixtures.good()).instance
    with pytest.raises(PreconditionError):
        brute_force_value(rw.verifier)  # message registers are 2 qubits wide


def test_grid_raises_instead_of_clamping(monkeypatch):
    compiled = adversary._Program.acceptance_operator

    def scaled(factor):
        def operator(self, assignment, prover_cols):
            return factor * compiled(self, assignment, prover_cols)
        return operator

    monkeypatch.setattr(adversary._Program, "acceptance_operator", scaled(1.01))
    with pytest.raises(NumericalCheckError, match="exceeds 1"):
        brute_force_value(fixtures.always().verifier, grid=math.pi / 4)
    # within 1e-9 of 1 the value is returned as computed, not clamped
    monkeypatch.setattr(adversary._Program, "acceptance_operator",
                        scaled(1.0 + 1e-12))
    value = brute_force_value(fixtures.always().verifier, grid=math.pi / 4)
    assert 1.0 < value <= 1.0 + 1e-9


# --- budgets -------------------------------------------------------------------


@pytest.mark.parametrize("entry", ["seesaw", "optimal_shared_state",
                                   "random_search", "brute_force_value"])
def test_budget_checked_before_allocation(entry, monkeypatch):
    def no_flatten(*args, **kwargs):
        raise AssertionError("flattened before the budget check")

    monkeypatch.setattr(adversary, "flatten", no_flatten)
    inst = fixtures.chsh()   # 7 qubits with 1-qubit prover registers
    small = RunConfig(max_qubits=6)
    calls = {
        "seesaw": lambda: seesaw(inst.verifier,
                                 SeesawConfig(prover_dims=(1, 1), restarts=1),
                                 config=small),
        "optimal_shared_state": lambda: optimal_shared_state(
            inst.verifier, inst.provers, config=small),
        "random_search": lambda: random_search(inst.verifier, (1, 1), samples=1,
                                               config=small),
        "brute_force_value": lambda: brute_force_value(inst.verifier,
                                                       config=small),
    }
    with pytest.raises(BudgetError, match="7 qubits exceed"):
        calls[entry]()
