"""Gate constructors, controls, composition, inversion, and the
permutation facts kept per matrix object."""

import gc
import math
from unittest import mock

import numpy as np
import pytest

from qmip import circuits
from qmip.circuits import (Circuit, Gate, apply_circuit, circuit_matrix, cnot,
                           cphase, h, mcx, ry, s, swap, toffoli, u1, x, y, z,
                           zero_phase_flip)
from qmip.config import ValidationError
from qmip.linalg import zero_state


LAYOUT = (("Q", 3),)


def test_cnot_is_controlled_x():
    st = apply_circuit(zero_state(LAYOUT), Circuit((x(("Q", 0)),
                                                    cnot(("Q", 0), ("Q", 2)))))
    # |101>
    assert abs(st.amplitudes[0b101] - 1.0) < 1e-12


def test_toffoli_truth_table():
    m = circuit_matrix(Circuit((toffoli(("Q", 0), ("Q", 1), ("Q", 2)),)), LAYOUT)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                src = (a << 2) | (b << 1) | c
                dst = (a << 2) | (b << 1) | (c ^ (a & b))
                assert abs(m[dst, src] - 1.0) < 1e-12


def test_anti_controls():
    g = mcx(((("Q", 0), 0),), ("Q", 1))
    st = apply_circuit(zero_state(LAYOUT), Circuit((g,)))
    assert abs(st.amplitudes[0b010] - 1.0) < 1e-12  # fires on |0> control


def test_swap_and_inverse_exact():
    circ = Circuit((h(("Q", 0)), swap(("Q", 0), ("Q", 2)),
                    cphase([("Q", 0), ("Q", 1)])))
    m = circuit_matrix(circ, LAYOUT)
    mi = circuit_matrix(circ.inverse(), LAYOUT)
    assert np.abs(mi @ m - np.eye(8)).max() < 1e-12


def test_zero_phase_flip_matrix():
    gates = zero_phase_flip([("Q", 0), ("Q", 1)])
    m = circuit_matrix(Circuit(tuple(gates)), (("Q", 2),))
    expect = np.eye(4, dtype=complex)
    expect[0, 0] = -1.0
    assert np.abs(m - expect).max() < 1e-12


def test_cphase_single_qubit_is_z():
    m = circuit_matrix(Circuit((cphase([("Q", 0)]),)), (("Q", 1),))
    assert np.allclose(m, np.diag([1, -1]))


def test_controlled_circuit_distributes():
    base = Circuit((h(("Q", 1)), x(("Q", 2))))
    ctrl = base.controlled(((("Q", 0), 1),))
    m = circuit_matrix(ctrl, LAYOUT)
    mb = circuit_matrix(base, (("Q", 3),))
    # control = 0 block is identity, control = 1 block is the base circuit
    assert np.abs(m[:4, :4] - np.eye(4)).max() < 1e-12
    assert np.abs(m[4:, 4:] - mb[4:, 4:]).max() < 1e-12


def test_remap():
    circ = Circuit((cnot(("A", 0), ("B", 0)),))
    mapped = circ.remap(lambda q: ("Z", q[1]) if q[0] == "B" else q)
    assert mapped.gates[0].targets == (("Z", 0),)
    assert mapped.gates[0].controls == ((("A", 0), 1),)


def test_ry_rotation():
    m = ry(math.pi)
    assert np.allclose(m @ np.array([1, 0]), np.array([0, 1]))


def test_overlapping_targets_rejected():
    with pytest.raises(ValidationError, match="overlapping"):
        mcx(((("Q", 0), 1),), ("Q", 0))


def test_gate_unitarity_not_enforced_for_internal_matrices():
    # placeholder (non-unitary) matrices are allowed at the Gate level; the
    # file loader and polar_unitary enforce unitarity where it matters
    g = u1(np.array([[1, 0], [0, 0]], dtype=complex), ("Q", 0))
    assert g.name == "U"


# --- Gate.permutation, kept per matrix object ---------------------------------


def _counting_sources():
    """A spy on `permutation_sources` as `circuits` calls it."""
    return mock.patch.object(circuits, "permutation_sources",
                             wraps=circuits.permutation_sources)


def test_gates_sharing_a_matrix_classify_it_once():
    m = np.eye(4)[[0, 1, 3, 2]].astype(np.complex128)
    with _counting_sources() as spy:
        a = Gate("U", m, (("Q", 0), ("Q", 1)))
        b = a.remap(lambda q: ("R", q[1])).controlled(((("Q", 5), 1),))
        assert b.matrix is a.matrix
        assert a.permutation == b.permutation == (0, 1, 3, 2)
        assert a.permutation is b.permutation
        assert spy.call_count == 1


def test_equal_matrix_in_another_object_gets_the_same_answer():
    m = np.eye(4)[[2, 0, 3, 1]].astype(np.complex128)
    a = Gate("U", m, (("Q", 0), ("Q", 1)))
    b = Gate("U", m.copy(), (("Q", 0), ("Q", 1)))
    assert b.matrix is not a.matrix
    assert a.permutation == b.permutation == (2, 0, 3, 1)
    dense = Gate("U", np.full((2, 2), 0.5 + 0j), (("Q", 0),))
    assert dense.permutation is None
    assert Gate("U", dense.matrix.copy(), (("Q", 0),)).permutation is None


def test_permutation_entry_is_dropped_with_its_matrix():
    g = Gate("U", np.eye(2)[[1, 0]].astype(np.complex128), (("Q", 0),))
    key = id(g.matrix)
    assert g.permutation == (1, 0)
    assert key in circuits._PERMUTATIONS
    del g
    gc.collect()
    assert key not in circuits._PERMUTATIONS


def test_self_adjoint_dagger_keeps_its_matrix():
    # an inverse circuit wraps the same matrix object as the circuit, so it
    # reads the facts kept for it: the SWAP's permutation is not computed
    # again for its dagger
    q0, q1 = ("Q", 0), ("Q", 1)
    for g in (x(q0), y(q0), z(q0), h(q0), swap(q0, q1), cnot(q0, q1)):
        assert g.dagger().matrix is g.matrix
    sw = swap(q0, q1)
    assert sw.permutation is not None
    with _counting_sources() as spy:
        assert sw.dagger().permutation == sw.permutation
        assert spy.call_count == 0
    phase = s(q0)
    assert phase.dagger().matrix is not phase.matrix
    assert np.array_equal(phase.dagger().matrix, phase.matrix.conj().T)
