"""Protocol file format: round-trips, digests, error anchoring."""

import json
import os
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qmip import fixtures, files
from qmip.adversary import SeesawConfig, seesaw
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


def test_save_to_a_device():
    # only a regular file is cut to length: a device cannot be truncated
    assert files.save(fixtures.guess(), os.devnull).startswith("{")


@pytest.mark.parametrize("value", [(1.0, 2.0), np.int64(1), np.bool_(True),
                                   {1.0}, {1: 2}, [object()]])
def test_meta_values_are_written_as_json_writes_them(value):
    # the meta's role and notes hold whatever a file or a caller put there:
    # save writes them as json does, and raises TypeError where json does
    inst = fixtures.guess()
    inst = replace(inst, meta=replace(inst.meta, role=value, notes=("n", value)))
    try:
        expected = json.loads(json.dumps(value))
    except TypeError:
        with pytest.raises(TypeError):
            files.save(inst, os.devnull)
        return
    text = files.save(inst, os.devnull)
    data = json.loads(text)
    assert data["meta"]["role"] == expected
    assert data["meta"]["notes"] == ["n", expected]
    assert text == json.dumps(data, sort_keys=True, indent=1) + "\n"


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


_HUGE_REGISTER_PROBE = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from qmip import cli, files
from qmip.config import ValidationError
out = []
for path in sys.argv[1:]:
    t = time.perf_counter()
    try:
        files.load(path)
        error = None
    except ValidationError as e:
        error = str(e)
    out.append((error, time.perf_counter() - t, cli.main(["simulate", path])))
print(json.dumps(out))
"""


def test_huge_register_is_rejected_before_any_allocation(tmp_path):
    # a width no array can hold is refused before 2**n is computed, with
    # amplitudes and with a preparation circuit, and a preparation circuit
    # whose state does not fit in memory is refused where it is allocated;
    # run under a 1 GiB address space cap so that a regression cannot
    # exhaust the machine
    paths = []
    cases = [(qubits, shared) for qubits in (10 ** 9, 10 ** 30)
             for shared in ({"amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
                            {"circuit": []})]
    for qubits, shared in cases + [(40, {"circuit": []})]:
        data = files.instance_to_dict(fixtures.guess())
        data["registers"][-1]["qubits"] = qubits
        data["shared_state"] = shared
        paths.append(tmp_path / f"huge{len(paths)}.json")
        paths[-1].write_text(json.dumps(data))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(files.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _HUGE_REGISTER_PROBE,
                           *map(str, paths)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for error, seconds, exit_code in json.loads(proc.stdout.splitlines()[-1]):
        assert error is not None and seconds < 1.0 and exit_code == 2


_MUTATION_PROBE = """
import contextlib, io, json, os, resource, sys
from pathlib import Path
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from qmip import adversary, cli, files, fixtures, transforms
from qmip.config import ValidationError

def paths(v, at=()):
    items = (v.items() if isinstance(v, dict)
             else enumerate(v) if isinstance(v, list) else ())
    for key, item in items:
        yield at + (key,)
        yield from paths(item, at + (key,))

def mutated(data, path, value):
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data

work = Path(sys.argv[1])
chsh = work / "chsh.json"
files.save(fixtures.chsh(), chsh)
stage = transforms.run_pipeline(fixtures.sound_yes()).stages[0].instance
assert stage.shared.known
see_saw = adversary.seesaw(fixtures.chsh().verifier, adversary.SeesawConfig(
    prover_dims=(1, 1), restarts=1, seed=0))
cases = [("protocol", files.save(fixtures.guess(), os.devnull)),
         ("protocol", files.save(stage, os.devnull)),
         ("strategy", files.strategy_text(see_saw))]
values = (5, -1, 1.5, "x", None, [], {}, float("nan"), 1e30)
escapes, tried = [], 0
for kind, text in cases:
    data = json.loads(text)
    for path in paths(data):
        for value in values:
            tried += 1
            f = work / "mutated.json"
            f.write_text(json.dumps(mutated(data, path, value)))
            try:
                if kind == "protocol":
                    files.load(f)
                    argv = ["simulate", str(f)]
                else:
                    files.load_strategy(f)
                    argv = ["simulate", str(chsh), "--strategy", str(f)]
            except ValidationError as e:
                if str(f) not in str(e):
                    escapes.append([kind, path, repr(value), f"unnamed: {e}"])
                # simulate reads the file first and exits 2 on this error
                continue
            except Exception as e:
                escapes.append([kind, path, repr(value), repr(e)])
                continue
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv + ["--out", str(work / "out")])
            if code not in (0, 2):
                escapes.append([kind, path, repr(value), f"simulate exit {code}"])
print(json.dumps({"tried": tried, "escapes": escapes}))
"""


def test_one_value_mutations_load_or_fail_validation(tmp_path):
    # every one-value mutation of a fixture, of a stage file with known bits
    # and of a strategy file loads as a valid object or raises
    # ValidationError naming the file, and `qmip simulate` on it exits 0 or
    # 2; run under a 1 GiB address space cap so that a regression cannot
    # exhaust the machine
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(files.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _MUTATION_PROBE,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["tried"] > 4000
    assert result["escapes"] == []


def _set(data, path, value):
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


_GUESS_GATE = ("circuits", "final", 0)
_STAGE_COIN = ("turns", 1, "steps", 1, "coin")
_STRATEGY_GATE = ("strategies", 0, "turns", 0, 0)
_INTEGER_FIELDS = {
    # field: (file, where the value goes, the error it gives, values)
    "control bit": ("guess", _GUESS_GATE + ("controls", 0, 1),
                    r"circuits\.final\[0\]\.controls: control bits "
                    r"are 0 or 1", (5, -1, 2, 1.5, True)),
    "target index": ("guess", _GUESS_GATE + ("targets", 0, 1),
                     r"circuits\.final\[0\]\.targets: qubit indices "
                     r"are integers", (0.5, 1.5, True)),
    "coin flips": ("stage", _STAGE_COIN + ("flips",),
                   r"turns\[1\]\.steps\[1\]\.coin\.flips: coin flips are "
                   r"integers", (1.5, True)),
    "coin recipient": ("stage", _STAGE_COIN + ("recipients", 0),
                       r"turns\[1\]\.steps\[1\]\.coin\.recipients\[0\]: "
                       r"coin recipients are integers", (1.5, True)),
    "strategy target index": (
        "strategy", _STRATEGY_GATE + ("targets", 0, 1),
        r"strategies\[0\]\.turns\[0\]\[0\]\.targets: qubit indices "
        r"are integers", (0.5, 1.5, True)),
    "strategy prover dimension": (
        "strategy", ("prover_dims", 0),
        r"prover_dims\[0\]: prover dimensions are integers", (1.5, True)),
    "strategy prover index": (
        "strategy", ("strategies", 0, "index"),
        r"strategies\[0\]\.index: prover indices are integers", (1.5, True)),
    "strategy control bit": (
        "strategy", _STRATEGY_GATE + ("controls",),
        r"strategies\[0\]\.turns\[0\]\[0\]\.controls: control bits "
        r"are 0 or 1", (5, -1, 2, 1.5, True)),
}


@pytest.mark.parametrize("field, value", [
    (field, v) for field, (*_, values) in _INTEGER_FIELDS.items()
    for v in values])
def test_integer_fields_are_not_truncated(tmp_path, field, value):
    # a float, a bool or an out-of-range bit is refused with its path, not
    # read as int(value) (& 1 for a control bit)
    kind, path, message, _ = _INTEGER_FIELDS[field]
    if kind == "guess":
        text = files.save(fixtures.guess(), os.devnull)
    elif kind == "stage":
        text = files.save(run_pipeline(fixtures.sound_yes()).stages[0].instance,
                          os.devnull)
    else:
        text = files.strategy_text(seesaw(fixtures.chsh().verifier, SeesawConfig(
            prover_dims=(1, 1), restarts=1, seed=0)))
        if field == "strategy control bit":
            value = [[["M2", 0], value]]
    data = json.loads(text)
    _set(data, path, value)
    f = tmp_path / "mutated.json"
    f.write_text(json.dumps(data))
    load = files.load_strategy if kind == "strategy" else files.load
    with pytest.raises(ValidationError, match=message):
        load(f)


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
