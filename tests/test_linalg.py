"""Core linear algebra: operations, spec examples, and randomized invariants."""

import math
from unittest import mock

import numpy as np
import pytest

from qmip.circuits import (apply_circuit, apply_gate, Circuit, cnot, h,
                           unitary_gate, x)
from qmip.config import NumericalCheckError, ValidationError
from qmip.linalg import (StateVector, fidelity, polar_unitary, project_norm_sq,
                         ProjectorOp, random_density, random_state,
                         random_unitary, zero_state)
from qmip.model import Snapshot


def test_apply_basis_flip():
    st = zero_state([("Q", 1)])
    out = apply_gate(st, x(("Q", 0)))
    assert np.allclose(out.amplitudes, [0, 1])


def test_apply_hadamard():
    st = zero_state([("Q", 1)])
    out = apply_gate(st, h(("Q", 0)))
    assert np.allclose(out.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_bell_state_preparation():
    st = zero_state([("Q", 2)])
    bell = apply_circuit(st, Circuit((h(("Q", 0)), cnot(("Q", 0), ("Q", 1)))))
    assert np.allclose(bell.amplitudes,
                       [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])


def test_apply_rejects_unknown_register():
    st = zero_state([("Q", 1)])
    with pytest.raises(ValidationError):
        apply_gate(st, x(("R", 0)))
    with pytest.raises(ValidationError):
        apply_gate(st, x(("Q", 3)))


def test_unitarity_validation():
    # polar_unitary checks the product of its SVD factors
    bad = (np.diag([1.0, 2.0]).astype(complex), np.ones(2), np.eye(2))
    with mock.patch("numpy.linalg.svd", return_value=bad):
        with pytest.raises(ValidationError, match="not unitary"):
            polar_unitary(np.eye(2, dtype=complex))


def test_project_norm_sq_examples():
    one = StateVector(np.array([0, 1], dtype=complex), (("Q", 1),))
    assert project_norm_sq(one, ProjectorOp.output_one(("Q", 0))) == 1.0
    plus = StateVector(np.array([1, 1], dtype=complex) / math.sqrt(2), (("Q", 1),))
    assert abs(project_norm_sq(plus, ProjectorOp.output_one(("Q", 0))) - 0.5) < 1e-12
    bell = StateVector(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
                       (("Q", 2),))
    assert abs(project_norm_sq(bell, ProjectorOp.all_zero([("Q", 0)])) - 0.5) < 1e-12


def test_project_norm_sq_raises_instead_of_clamping():
    # |norm - 1| = 9e-10 passes StateVector's check; the mass 1 + 1.8e-9 does not
    over = StateVector(np.array([math.sqrt(1 + 1.8e-9), 0], dtype=complex),
                       (("Q", 1),))
    with pytest.raises(NumericalCheckError, match="projector mass"):
        project_norm_sq(over, ProjectorOp.all_zero(()))
    near = StateVector(np.array([math.sqrt(1 + 5e-10), 0], dtype=complex),
                       (("Q", 1),))
    assert project_norm_sq(near, ProjectorOp.all_zero(())) == 1.0


def test_complement_projector():
    plus = StateVector(np.array([1, 1], dtype=complex) / math.sqrt(2), (("Q", 1),))
    p = ProjectorOp.complement(ProjectorOp.output_one(("Q", 0)))
    assert abs(project_norm_sq(plus, p) - 0.5) < 1e-12
    assert project_norm_sq(plus, ProjectorOp.never()) == 0.0


def test_norm_preservation_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = rng.integers(1, 7)
        d = int(rng.integers(1, min(n, 3) + 1))
        st = StateVector(random_state(2**n, rng), (("Q", int(n)),))
        targets = tuple(("Q", int(i)) for i in
                        rng.choice(n, size=d, replace=False))
        u = unitary_gate(random_unitary(2**d, rng), targets)
        assert abs(apply_gate(st, u).norm() - 1.0) <= 1e-10


def test_inversion_exactness():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, min(n, 3) + 1))
        st = StateVector(random_state(2**n, rng), (("Q", n),))
        targets = tuple(("Q", int(i)) for i in
                        rng.choice(n, size=d, replace=False))
        u = unitary_gate(random_unitary(2**d, rng), targets)
        back = apply_gate(apply_gate(st, u), u.dagger())
        assert np.abs(back.amplitudes - st.amplitudes).max() <= 1e-10


def test_reorder_registers_roundtrip():
    rng = np.random.default_rng(13)
    st = StateVector(random_state(8, rng), (("A", 1), ("B", 2)))
    flipped = Snapshot.whole(st).placed([("B", ["B"]), ("A", ["A"])])
    assert flipped.layout == (("B", 2), ("A", 1))
    again = Snapshot.whole(flipped).placed([("A", ["A"]), ("B", ["B"])])
    assert np.allclose(again.amplitudes, st.amplitudes)


# --- fidelity -------------------------------------------------------------


def _ketbra(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def test_fidelity_examples():
    zero = _ketbra([1, 0])
    one = _ketbra([0, 1])
    plus = _ketbra([1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert fidelity(zero, zero) == 1.0
    assert fidelity(zero, one) == 0.0
    # oracle for pure states: overlap |<0|+>| = 1/sqrt(2)
    overlap = abs(np.vdot([1, 0], [1 / math.sqrt(2), 1 / math.sqrt(2)]))
    assert abs(fidelity(zero, plus) - overlap) < 1e-12
    assert abs(overlap - 1 / math.sqrt(2)) < 1e-15


def test_fidelity_errors():
    zero = _ketbra([1, 0])
    with pytest.raises(ValidationError, match="dimension mismatch"):
        fidelity(zero, _ketbra([1, 0, 0, 0]))
    with pytest.raises(ValidationError):
        fidelity(np.array([[2, 0], [0, -1]], dtype=complex), zero)


def test_fidelity_mixed_matches_pure_path():
    # a mixed state built as a tiny perturbation should agree with sqrtm math
    rng = np.random.default_rng(5)
    rho = random_density(4, rng)
    sig = random_density(4, rng)
    f1, f2 = fidelity(rho, sig), fidelity(sig, rho)
    assert abs(f1 - f2) < 1e-9
    assert 0.0 <= f1 <= 1.0


def test_fidelity_triple_inequality_random():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        r, s, x_ = (random_density(d, rng) for _ in range(3))
        lhs = fidelity(r, s) ** 2 + fidelity(s, x_) ** 2
        assert lhs <= 1.0 + fidelity(r, x_) + 1e-9


# --- polar decomposition ----------------------------------------------------


def test_polar_of_unitary_is_itself():
    rng = np.random.default_rng(4)
    u = random_unitary(4, rng)
    assert np.abs(polar_unitary(u) - u).max() < 1e-10


def test_polar_of_positive_diagonal_is_identity():
    assert np.allclose(polar_unitary(np.diag([2.0, 0.5]).astype(complex)),
                       np.eye(2))


def test_polar_signed_diagonal_against_grid_oracle():
    a = np.diag([2.0, -1.0]).astype(complex)
    # oracle: exhaustive grid over diagonal-phase unitaries diag(e^ia, e^ib)
    best, best_u = -np.inf, None
    for pa in np.linspace(0, 2 * math.pi, 257):
        for pb in np.linspace(0, 2 * math.pi, 257):
            u = np.diag([np.exp(1j * pa), np.exp(1j * pb)])
            val = np.trace(u.conj().T @ a).real
            if val > best:
                best, best_u = val, u
    u_star = polar_unitary(a)
    assert np.abs(u_star - np.diag([1.0, -1.0])).max() < 1e-10
    assert np.trace(u_star.conj().T @ a).real >= best - 1e-3


def test_polar_beats_random_unitaries():
    rng = np.random.default_rng(6)
    for dim in (2, 4):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u_star = polar_unitary(g)
        star = np.trace(u_star.conj().T @ g).real
        assert star >= -1e-9
        assert abs(np.trace(u_star.conj().T @ g).imag) < 1e-9
        for _ in range(10_000):
            u = random_unitary(dim, rng)
            assert np.trace(u.conj().T @ g).real <= star + 1e-9


def test_polar_rank_deficient_still_unitary():
    u = polar_unitary(np.zeros((4, 4), dtype=complex))
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10
