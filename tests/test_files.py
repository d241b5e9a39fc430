"""Protocol file format: round-trips, digests, error anchoring."""

import json
import os
import stat
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qmip import fixtures, files
from qmip.circuits import Circuit, Gate, ry, s as s_gate
from qmip.config import ValidationError
from qmip.linalg import StateVector
from qmip.model import ApplyStep, VerifierTurn, run, validate
from qmip.transforms import (halve_turns, make_perfectly_rewindable,
                             parallelize_to_three,
                             rewind_to_perfect_completeness, run_pipeline)


def test_roundtrip_all_fixtures(tmp_path):
    for name, builder in fixtures.BUILDERS.items():
        inst = builder()
        path = tmp_path / f"{name}.json"
        files.save(inst, path)
        loaded = files.load(path)
        assert validate(loaded) == []
        assert loaded.verifier.layout == inst.verifier.layout
        assert abs(run(loaded).acceptance - run(inst).acceptance) <= 1e-12


def test_roundtrip_transform_outputs(tmp_path):
    # a pass output's shared state is saved at its live width: its live
    # amplitudes and, when it has any, its known bits, which load gives back,
    # so saving what load read writes the same bytes
    outputs = [halve_turns(fixtures.five_turn_yes()).instance,
               parallelize_to_three(fixtures.nine_turn_yes()).instance,
               make_perfectly_rewindable(fixtures.ent()).instance]
    outputs += [s.instance for s in run_pipeline(fixtures.sound_yes()).stages]
    for inst in outputs:
        path = tmp_path / "t.json"
        text = files.save(inst, path)
        assert ('"known"' in text) == bool(inst.shared.known)
        loaded = files.load(path)
        assert loaded.shared.known == inst.shared.known
        assert files.save(loaded, path) == text
        assert abs(run(loaded).acceptance - run(inst).acceptance) <= 1e-12
    assert [len(inst.shared.known) for inst in outputs] == [1, 3, 0, 2, 4, 7]


def test_digest_stable_across_identical_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    files.save(fixtures.guess(), a)
    files.save(fixtures.guess(), b)
    assert files.digest(a) == files.digest(b)


def test_save_is_deterministic(tmp_path):
    t1 = files.save(fixtures.chsh(), tmp_path / "c1.json")
    t2 = files.save(fixtures.chsh(), tmp_path / "c2.json")
    assert t1 == t2


def test_save_returns_the_bytes_it_writes(tmp_path):
    rw = make_perfectly_rewindable(fixtures.ent()).instance
    for name, inst in [*((n, b()) for n, b in fixtures.BUILDERS.items()),
                       ("rw_ent", rw)]:
        path = tmp_path / f"{name}.json"
        assert files.save(inst, path).encode() == path.read_bytes()


@pytest.mark.parametrize("old_size", [0, 1, 200_000])
def test_save_over_a_file_leaves_only_the_new_bytes(tmp_path, old_size):
    # a save rewrites the file in place: an old file shorter than the saved
    # text (about 2 kB) is overwritten, and a longer one is cut to length
    path = tmp_path / "p.json"
    path.write_bytes(b"x" * old_size)
    text = files.save(fixtures.five_turn_yes(), path)
    assert path.read_bytes() == text.encode()


def test_save_to_a_new_path_has_the_mode_write_text_gives(tmp_path):
    ref = tmp_path / "ref.json"
    ref.write_text("")
    text = files.save(fixtures.guess(), tmp_path / "new.json")
    assert (tmp_path / "new.json").read_bytes() == text.encode()
    assert (stat.S_IMODE(os.stat(tmp_path / "new.json").st_mode)
            == stat.S_IMODE(os.stat(ref).st_mode))


def test_signed_zeros_are_saved_as_zeros():
    # equal amplitudes share one saved pair, and a zero is saved as 0.0
    # whichever sign the kernel left on it
    inst = fixtures.guess()
    amps = np.array([complex(-0.0, -0.0), complex(1.0, -0.0)])
    text = files.save(inst.with_shared(StateVector(amps, inst.shared.layout)),
                      os.devnull)
    assert "-0.0" not in text


def test_amplitudes_changed_after_encoding_are_written_as_they_are():
    # `instance_to_dict` keeps each amplitude vector's distinct pairs for the
    # writer; a caller that then replaces an entry gets what json writes
    data = files.instance_to_dict(fixtures.chsh())
    amps = data["shared_state"]["amplitudes"]
    amps[0] = [-0.0, 0.25]
    assert files.canonical_json(data) == json.dumps(data, sort_keys=True,
                                                    indent=1)


def test_save_to_a_device():
    # only a regular file is cut to length: a device cannot be truncated
    assert files.save(fixtures.guess(), os.devnull).startswith("{")


_PY_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5,
                     float("nan"), float("inf"), float("-inf")]))
_FLOATS = st.one_of(_PY_FLOATS, _PY_FLOATS.map(np.float64))


def _float_lists(n: int):
    return st.lists(_PY_FLOATS, min_size=n, max_size=n)


# pair objects a tree holds several times (0.0 and -0.0 in separate pairs,
# which are equal but render differently), and one list of them that a tree
# holds at several depths, as a pair list and as an item of other lists
_SHARED_PAIRS = st.sampled_from([[0.0, 1.0], [-0.0, 1.0], [0.5, -0.0]])
_SHARED_PAIR_LIST = st.shared(st.lists(_SHARED_PAIRS, min_size=1, max_size=4),
                              key="pair list")
_PAIRS = st.lists(st.one_of(_float_lists(2), _SHARED_PAIRS), min_size=1,
                  max_size=6)
# items that must send a list of pairs down the general path: a pair holding
# an int or a float64, a length-1 or length-3 item (or both, so that the
# lengths add up to two pairs'), a pair of pairs, and a scalar
_NEAR_MISSES = st.one_of(
    st.tuples(_PY_FLOATS, st.one_of(st.integers(), _FLOATS)).map(
        lambda p: [list(p)]),
    st.lists(st.one_of(_float_lists(1), _float_lists(3)), min_size=1,
             max_size=2),
    st.lists(_float_lists(2), min_size=2, max_size=2).map(lambda p: [p]),
    st.one_of(st.none(), st.text(), _FLOATS).map(lambda x: [x]))


@st.composite
def _near_miss_pairs(draw):
    pairs = draw(_PAIRS)
    for item in draw(_NEAR_MISSES):
        pairs.insert(draw(st.integers(0, len(pairs))), item)
    return pairs


_PAIR, _NEG_PAIR = [0.0, 2.0], [-0.0, 2.0]
_PAIR_LIST = [_PAIR, _NEG_PAIR, _PAIR]
_SCALARS = st.one_of(st.none(), st.booleans(),
                     st.integers(-2 ** 200, 2 ** 200), _FLOATS, st.text())
_JSON_TREES = st.recursive(
    st.one_of(_SCALARS, _PAIRS, _near_miss_pairs(), _SHARED_PAIRS,
              _SHARED_PAIR_LIST),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(tree=_JSON_TREES)
@example(tree=[[1.0], [2.0, 3.0, 4.0]])
@example(tree={"a": [[1.0, 2], [-0.0, np.float64(0.1)]]})
@example(tree=[_PAIR, _PAIR_LIST, [_PAIR_LIST, [_PAIR_LIST]],
               {"a": [_PAIR_LIST] * 2, "b": [_NEG_PAIR, _PAIR, _NEG_PAIR]}])
def test_canonical_json_writes_what_json_dumps_writes(tree):
    assert files.canonical_json(tree) == json.dumps(tree, sort_keys=True,
                                                    indent=1)


@pytest.mark.parametrize("value", [(1.0, 2.0), np.int64(1), np.bool_(True),
                                   {1.0}, {1: 2}, [object()]])
def test_canonical_json_rejects_other_types(value):
    with pytest.raises(TypeError):
        files.canonical_json(value)


def test_non_unitary_gate_rejected(tmp_path):
    data = files.instance_to_dict(fixtures.always())
    # corrupt the final circuit with a non-unitary matrix gate
    name = next(iter(data["circuits"]))
    data["circuits"][name] = [
        {"gate": "U", "targets": [["V", 0]],
         "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match=r"not unitary \(\|\|U\^dag U - I\|\|"):
        files.load(path)


def test_unnormalized_shared_state_rejected(tmp_path):
    data = files.instance_to_dict(fixtures.always())
    data["shared_state"] = {"amplitudes": [[0.5, 0.0], [0.0, 0.0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match="not normalized"):
        files.load(path)


def test_parse_error_carries_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "qmip-protocol/1",\n  "registers": [}')
    with pytest.raises(ValidationError, match="line 2"):
        files.load(path)


def test_error_paths_are_anchored(tmp_path):
    data = files.instance_to_dict(fixtures.guess())
    data["turns"][1]["circuits"]["1"] = "no-such-circuit"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match=r"turns\[1\]"):
        files.load(path)


def test_wrong_turn_owner_rejected(tmp_path):
    data = files.instance_to_dict(fixtures.guess())
    data["turns"][0]["owner"] = "provers"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match="must belong to the verifier"):
        files.load(path)


def test_shared_state_by_preparation_circuit(tmp_path):
    data = files.instance_to_dict(fixtures.guess())
    data["circuits"]["prep"] = [{"gate": "H", "targets": [["P1", 0]]}]
    data["shared_state"] = {"circuit": "prep"}
    path = tmp_path / "prep.json"
    path.write_text(json.dumps(data))
    inst = files.load(path)
    assert np.allclose(np.abs(inst.shared.amplitudes) ** 2, [0.5, 0.5])


def test_known_bits_go_with_amplitudes(tmp_path):
    data = files.instance_to_dict(fixtures.guess())
    data["circuits"]["prep"] = [{"gate": "H", "targets": [["P1", 0]]}]
    data["shared_state"] = {"circuit": "prep", "known": []}
    path = tmp_path / "prep.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match="shared_state.known: known bits "
                                              "go with amplitudes"):
        files.load(path)


def test_named_gate_sugar(tmp_path):
    data = files.instance_to_dict(fixtures.guess())
    data["circuits"]["extra"] = [
        {"gate": "CNOT", "targets": [["V", 0], ["V", 1]]},
        {"gate": "TOFFOLI", "targets": [["V", 0], ["V", 1], ["V", 1]]},
    ]
    path = tmp_path / "sugar.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match="overlapping"):
        files.load(path)  # the Toffoli reuses a control as target


def test_gate_name_is_saved_only_with_its_matrix(tmp_path):
    # S^dag keeps the name "S" and a relabelled rotation keeps the name "X";
    # both must load as the matrices they hold
    odd = (s_gate(("V", 0)).dagger(), Gate("X", ry(0.3), (("V", 1),)),
           s_gate(("V", 1)))
    inst = fixtures.guess()
    turn = VerifierTurn((ApplyStep(Circuit(odd)),))
    inst = replace(inst, verifier=replace(inst.verifier, turns=(turn,)))
    path = tmp_path / "named.json"
    files.save(inst, path)
    loaded = files.load(path)
    gates = loaded.verifier.turns[0].steps[0].circuit.gates
    assert [g.name for g in gates] == ["U", "U", "S"]
    for saved, read in zip(odd, gates):
        assert np.array_equal(saved.matrix, read.matrix)
    assert run(loaded).acceptance == run(inst).acceptance


def test_run_record_determinism():
    a = files.RunRecord("simulate", "abc", 7, acceptance=0.5)
    b = files.RunRecord("simulate", "abc", 7, acceptance=0.5)
    assert a.as_json_line() == b.as_json_line()
    # wall time excluded from the comparison surface by putting it last
    c = files.RunRecord("simulate", "abc", 7, acceptance=0.5, wall_time_s=1.0)
    assert json.loads(c.as_json_line())["acceptance"] == 0.5


def test_roundtrip_rewound_instance(tmp_path):
    # accept events, a private coin, and branch-keyed never-accept rules all
    # have to survive serialization
    rw = make_perfectly_rewindable(fixtures.ent()).instance
    rewound = rewind_to_perfect_completeness(rw).instance
    path = tmp_path / "rewound.json"
    files.save(rewound, path)
    loaded = files.load(path)
    tr_a, tr_b = run(rewound), run(loaded)
    assert abs(tr_a.acceptance - tr_b.acceptance) <= 1e-12
    assert [r.history for r in tr_a.branches] == [r.history for r in tr_b.branches]
