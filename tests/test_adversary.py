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
                         RunConfig, ValidationError)
from qmip.linalg import StateVector, random_state, require_unitary
from qmip.model import ProtocolInstance, run
from qmip.transforms import (make_perfectly_rewindable,
                             rewind_to_perfect_completeness)

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


def test_one_product_group_of_every_prover_is_no_groups():
    # both take L-BFGS steps from the same draws, so every output agrees bit
    # for bit
    def audit(groups):
        return seesaw(fixtures.chsh().verifier,
                      SeesawConfig(prover_dims=(1, 1), restarts=3, seed=5,
                                   product_groups=groups))

    free, grouped = audit(None), audit(((1, 2),))
    assert grouped.value == free.value
    assert grouped.trace == free.trace
    assert grouped.restart_values == free.restart_values
    assert grouped.converged == free.converged
    assert np.array_equal(grouped.shared.amplitudes, free.shared.amplitudes)
    for p, q in zip(grouped.strategies, free.strategies, strict=True):
        for c, d in zip(p.circuits, q.circuits, strict=True):
            for g, h in zip(c, d, strict=True):
                assert np.array_equal(g.matrix, h.matrix)


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


# the 60-sweep values of the benchmark's audit restarts before the L-BFGS
# steps, none of which reached the fixed-point test
_AUDIT_SWEEP_VALUES = (0.5243370102256004, 0.5237137417273703,
                       0.5239445806030557, 0.5240559457523959)
AUDIT_OPTIMUM = 0.524602


@pytest.mark.parametrize("seed", range(4))
def test_audit_restarts_reach_the_fixed_point(seed):
    # the benchmark's audit: the rewound sound_no at prover dimensions (2,)
    rwd = make_perfectly_rewindable(fixtures.sound_no(), p_max=1.0, check=False)
    verifier = rewind_to_perfect_completeness(rwd.instance,
                                              check=False).instance.verifier
    res = seesaw(verifier, SeesawConfig(prover_dims=(2,), convergence_tol=1e-7,
                                        max_sweeps=60, restarts=1, seed=seed))
    assert res.converged
    assert abs(res.value - AUDIT_OPTIMUM) <= 1e-5
    assert res.value >= _AUDIT_SWEEP_VALUES[seed]
    for a, b in zip(res.trace, res.trace[1:]):
        assert b >= a
    for gate in (g for p in res.strategies for c in p.circuits for g in c):
        require_unitary(gate.matrix)


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


@pytest.mark.parametrize("grid", [4.2, 10.0, 1e9])
def test_grid_rejects_steps_with_fewer_than_two_points(grid):
    # 2*pi/grid rounds to 1 or 0 above 4*pi/3
    with pytest.raises(ValidationError, match="at least 2"):
        brute_force_value(fixtures.always().verifier, grid=grid)


@pytest.mark.parametrize("grid", [True, "x"])
def test_grid_rejects_a_step_that_is_not_a_real_number(grid):
    # True would run as a step of 1.0
    with pytest.raises(ValidationError, match="grid must be finite"):
        brute_force_value(fixtures.always().verifier, grid=grid)


@pytest.mark.parametrize("samples", [0, -3, True, 2.5])
def test_random_search_rejects_sample_counts_that_are_not_positive_integers(samples):
    # 0 and -3 would return 0.0 as if it were a best value
    with pytest.raises(ValidationError, match="samples"):
        random_search(fixtures.guess().verifier, (1,), samples=samples)


def _scale_acceptance_operator(monkeypatch, factor):
    """Scale the compiled acceptance operator by `factor`, replacing any
    earlier scaling."""
    monkeypatch.undo()
    compiled = adversary._Program.acceptance_operator

    def operator(self, assignment, prover_cols):
        return factor * compiled(self, assignment, prover_cols)
    monkeypatch.setattr(adversary._Program, "acceptance_operator", operator)


def _scale_sweep_value(monkeypatch, factor):
    """Scale the value each see-saw sweep returns by `factor`."""
    compiled = adversary._Program.sweep

    def sweep(self, cols, coeffs, assignment, keys):
        value, a = compiled(self, cols, coeffs, assignment, keys)
        return factor * value, a
    monkeypatch.setattr(adversary._Program, "sweep", sweep)


def test_grid_raises_instead_of_clamping(monkeypatch):
    _scale_acceptance_operator(monkeypatch, 1.01)
    with pytest.raises(NumericalCheckError, match="exceeds 1"):
        brute_force_value(fixtures.always().verifier, grid=math.pi / 4)
    # within 1e-9 of 1 the value is returned as computed, not clamped
    _scale_acceptance_operator(monkeypatch, 1.0 + 1e-12)
    value = brute_force_value(fixtures.always().verifier, grid=math.pi / 4)
    assert 1.0 < value <= 1.0 + 1e-9


_RESIMULATED = {
    "seesaw": lambda cfg: seesaw(fixtures.always().verifier,
                                 SeesawConfig(prover_dims=(1,), restarts=1),
                                 config=cfg),
    "optimal_shared_state": lambda cfg: optimal_shared_state(
        fixtures.always().verifier, fixtures.always().provers, config=cfg),
    "brute_force_value": lambda cfg: brute_force_value(
        fixtures.always().verifier, grid=math.pi / 4, config=cfg),
}


@pytest.mark.parametrize("entry", sorted(_RESIMULATED))
def test_adversary_checks_read_the_probability_tolerance(monkeypatch, entry):
    # ALWAYS accepts with probability 1 under every strategy, so scaling the
    # compiled operator (the see-saw's sweep value) by 1 + 1e-8 plants an
    # offset of 1e-8 against `run` (and a value 1e-8 above 1 for the grid)
    plant = _scale_sweep_value if entry == "seesaw" else _scale_acceptance_operator
    plant(monkeypatch, 1.0 + 1e-8)
    with pytest.raises(NumericalCheckError):
        _RESIMULATED[entry](RunConfig())
    _RESIMULATED[entry](RunConfig(probability_tol=1e-7))


def test_seesaw_config_rejects_zero_sweeps():
    with pytest.raises(ValidationError, match="max_sweeps"):
        SeesawConfig(prover_dims=(1,), max_sweeps=0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), "x", True])
def test_seesaw_config_rejects_a_tolerance_that_is_not_finite(tol):
    # a NaN tolerance would never stop a restart: `gain < nan` is False; a
    # bool would run as a tolerance of 1.0
    with pytest.raises(ValidationError, match="convergence_tol must be finite"):
        SeesawConfig(prover_dims=(1,), convergence_tol=tol)


@pytest.mark.parametrize("field, value", [
    ("prover_dims", (1.5,)), ("prover_dims", (True,)), ("prover_dims", 1),
    ("restarts", 2.5), ("restarts", True), ("max_sweeps", 2.0),
    ("max_sweeps", True), ("seed", 1.5), ("seed", True)])
def test_seesaw_config_rejects_values_that_are_not_integers(field, value):
    # int() would audit a 1.5-qubit prover with one qubit, and a bool would
    # run as 0 or 1
    with pytest.raises(ValidationError, match=field):
        SeesawConfig(**{"prover_dims": (1,), field: value})


def test_seesaw_config_keeps_prover_dims_as_a_tuple():
    cfg = SeesawConfig(prover_dims=[1], restarts=1)
    assert cfg.prover_dims == (1,)
    assert seesaw(fixtures.guess().verifier, cfg).prover_dims == (1,)


@pytest.mark.parametrize("dims, groups", [((1, 2), ((2,), (1,))),
                                          ((1, 2), ((1,), (), (2,))),
                                          ((1, 1, 1), ((1, 3), (2,)))])
def test_seesaw_config_rejects_product_groups_out_of_register_order(dims, groups):
    # the product of the group states is read in prover-register order, so
    # these would optimize over states that are product across another cut
    with pytest.raises(ValidationError, match="product groups"):
        SeesawConfig(prover_dims=dims, product_groups=groups)


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
