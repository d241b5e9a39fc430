"""Digest every output a refactor must leave unchanged, as one JSON object.

Run it on two trees and diff the outputs: a refactor is neutral when the two
objects are equal key for key.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/output_digests.py > after.json

Point PYTHONPATH at another checkout's `src` to digest that tree; the
fixtures are read next to the package, so each tree is compared on its own
committed fixtures. Compare two such outputs with

    PYTHONPATH=src python tools/output_digests.py --compare before.json after.json

which lists every key that differs, is missing on one side or holds an
error, with the largest |difference| for keys holding a float or a list of
floats, and exits 1 if any key differs. Each key is a label and each value
is a sha256, a `repr`'d float or an error's class and message:

* the 16 fixtures `fixtures.generate_all` writes and its manifest;
* every `PASSES` entry on every committed fixture, with check=True and with
  check=False, with the other arguments `qmip transform` passes by default:
  the output file and the report;
* every `run_pipeline` stage of five_turn_yes, sound_yes, five_turn_no and
  sound_no, and the final output;
* `run` acceptance on every committed fixture, and its snapshot after
  every turn, each branch keyed by turn and history and holding the sha256
  of the dense state's bytes;
* `optimal_shared_state` (value and state) and `random_search` on every
  committed fixture, and `brute_force_value` on the fixtures it accepts;
* see-saw values, traces, restart values, states and strategies on the
  verifier of the rewound sound_no (the benchmark's audit, seeds 0-3) and on
  chsh with and without product groups;
* the bytes `qmip audit --out-strategy` writes for a chsh see-saw (4
  restarts, seed 0);
* the value and trace of one see-saw sweep from one restart on two programs
  above `adversary.FUSE_MAX_DIM`: criterion 08's (the one-round output of
  five_turn_no, 14 qubits at prover dimensions (2, 2)) and par-rep(chsh, 2)
  with product groups ((1, 2), (3, 4)), 15 qubits;
* the value, trace length and `converged` of one full restart on criterion
  08's program (seed 5, tolerance 1e-6), so the fixed point of a restart
  above the bound is compared too;
* f and the packed gradient (real parts, then imaginary parts, as a list of
  floats) of a restart's first L-BFGS point, restart 0 after
  `adversary.WARMUP_SWEEPS` plain sweeps, on the audit program (seeds 0-1)
  and on chsh (seed 0), so the gradient's own difference is shown, not
  only its effect on the trajectories.

The environment operators are rank deficient, so the polar factor's
completion on their null space is set by rounding, and any reordering of a
sum moves a see-saw trajectory after its first sweep (a restart without
product groups sweeps first, then takes L-BFGS steps). A refactor that
reorders a sum may therefore move the full traces of the audit and chsh
keys in their last digits; the one-sweep keys do not move, and a restart
that reaches its fixed point moves its value by about the tolerance at
most.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from qmip import adversary, cli, files, fixtures, model, transforms
from qmip.linalg import random_unitary

PIPELINE_INPUTS = ("five_turn_yes", "sound_yes", "five_turn_no", "sound_no")


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data
                          ).hexdigest()


def _error(e: Exception) -> str:
    return f"{type(e).__name__}: {e}"


def _save_sha(instance, directory: Path) -> str:
    return _sha(files.save(instance, directory / "out.json"))


def _array_sha(a: np.ndarray) -> str:
    return _sha(np.ascontiguousarray(a, dtype=np.complex128).tobytes())


def _seesaw(out: dict, label: str, verifier, cfg) -> None:
    try:
        res = adversary.seesaw(verifier, cfg)
    except Exception as e:
        out[label] = _error(e)
        return
    out[f"{label} value"] = repr(res.value)
    out[f"{label} trace"] = repr(res.trace)
    out[f"{label} restart values"] = repr(res.restart_values)
    out[f"{label} converged"] = repr(res.converged)
    out[f"{label} state"] = _array_sha(res.shared.amplitudes)
    out[f"{label} strategies"] = _sha(b"".join(
        _array_sha(g.matrix).encode() for p in res.strategies
        for c in p.circuits for g in c))


def _first_point(out: dict, label: str, verifier, dims, seed: int) -> None:
    """f and the gradient where restart 0 of a see-saw at `seed` takes its
    first L-BFGS step, from `_Program`, `sweep` and `_Point` alone."""
    try:
        program = adversary._Program(
            adversary.resize_prover_registers(verifier, dims),
            adversary.DEFAULT_RUN_CONFIG)
        keys = sorted(program.keys, key=lambda k: (k[1], k[0]))
        rng = np.random.default_rng([seed, 0])
        assignment = {k: random_unitary(program.dims[k], rng) for k in keys}
        eye = np.eye(program.d_p, dtype=np.complex128)
        _, psi = adversary._top_eigenpair(
            program.acceptance_operator(assignment, eye))
        for _ in range(adversary.WARMUP_SWEEPS):
            _, psi = adversary._top_eigenpair(
                program.sweep(eye, psi, assignment, keys)[1])
        point = adversary._Point(program, assignment,
                                 adversary._blocks(program, keys), eye)
        g = point.gradient()
    except Exception as e:
        out[label] = _error(e)
        return
    out[f"{label} f"] = repr(point.f)
    out[f"{label} gradient"] = repr(np.concatenate([g.real, g.imag]).tolist())


def digests(work: Path) -> dict[str, str]:
    out: dict[str, str] = {}
    fix = fixtures.fixtures_dir()
    names = sorted(json.loads((fix / "manifest.json").read_text())["entries"])
    loaded = {n: files.load(fix / f"{n}.json") for n in names}

    generated = work / "generated"
    fixtures.generate_all(generated)
    for path in sorted(generated.iterdir()):
        out[f"generate_all {path.name}"] = _sha(path.read_bytes())

    for n in names:
        out[f"run {n}"] = repr(model.run(loaded[n]).acceptance)
        tr = model.run(loaded[n], snapshot_turns=range(1, loaded[n].m + 1))
        for snap in tr.snapshots:
            # trees before the one state form give it by a `state()` method
            state = snap.state() if callable(snap.state) else snap.state
            out[f"run {n} snapshot turn={snap.turn} branch={snap.history}"] = (
                _array_sha(state.dense()))

    for pass_name, fn in sorted(transforms.PASSES.items()):
        for n in names:
            for check in (True, False):
                label = f"pass {pass_name} {n} check={check}"
                # the arguments `qmip transform` passes by default
                kw = {}
                if pass_name in ("seq-rep", "par-rep"):
                    kw["n"] = 2
                if pass_name == "rewindable" and not check:
                    kw["p_max"] = loaded[n].meta.claimed_completeness
                try:
                    res = fn(loaded[n], check=check, **kw)
                except Exception as e:
                    out[label] = _error(e)
                    continue
                out[f"{label} output"] = _save_sha(res.instance, work)
                out[f"{label} report"] = _sha(repr(res.report))

    for n in PIPELINE_INPUTS:
        try:
            res = transforms.run_pipeline(loaded[n])
        except Exception as e:
            out[f"pipeline {n}"] = _error(e)
            continue
        for stage in res.stages:
            label = f"pipeline {n} {stage.report.name}"
            out[f"{label} output"] = _save_sha(stage.instance, work)
            out[f"{label} report"] = _sha(repr(stage.report))
        out[f"pipeline {n} final"] = _save_sha(res.instance, work)

    for n in names:
        inst = loaded[n]
        dims = tuple(r.qubits for r in inst.verifier.layout.provers)
        try:
            value, state = adversary.optimal_shared_state(inst.verifier,
                                                          inst.provers)
            out[f"optimal_shared_state {n} value"] = repr(value)
            out[f"optimal_shared_state {n} state"] = _array_sha(state.amplitudes)
        except Exception as e:
            out[f"optimal_shared_state {n}"] = _error(e)
        try:
            out[f"random_search {n}"] = repr(adversary.random_search(
                inst.verifier, dims, samples=8, seed=1))
        except Exception as e:
            out[f"random_search {n}"] = _error(e)
        try:
            out[f"brute_force_value {n}"] = repr(
                adversary.brute_force_value(inst.verifier))
        except Exception as e:
            out[f"brute_force_value {n}"] = _error(e)

    rwd = transforms.make_perfectly_rewindable(loaded["sound_no"], p_max=1.0,
                                               check=False)
    audit = transforms.rewind_to_perfect_completeness(rwd.instance,
                                                      check=False).instance
    for seed in range(4):
        _seesaw(out, f"seesaw audit seed={seed}", audit.verifier,
                adversary.SeesawConfig(prover_dims=(2,), convergence_tol=1e-7,
                                       max_sweeps=60, restarts=1, seed=seed))
    for seed in range(2):
        _first_point(out, f"first L-BFGS point audit seed={seed}",
                     audit.verifier, (2,), seed)
    _first_point(out, "first L-BFGS point chsh seed=0", loaded["chsh"].verifier,
                 (1, 1), 0)
    for groups in (None, ((1,), (2,))):
        _seesaw(out, f"seesaw chsh groups={groups}", loaded["chsh"].verifier,
                adversary.SeesawConfig(prover_dims=(1, 1), restarts=4, seed=0,
                                       product_groups=groups))
    strategy = work / "strategy.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["audit", str(fix / "chsh.json"), "--restarts", "4",
                         "--seed", "0", "--out-strategy", str(strategy)])
    out["audit chsh strategy file"] = (_sha(strategy.read_bytes())
                                       if code == 0 else f"exit {code}")
    above = (
        ("criterion 08", transforms.run_pipeline(loaded["five_turn_no"])
         .instance, (2, 2), None, 5),
        ("par-rep chsh", transforms.PASSES["par-rep"](loaded["chsh"], n=2)
         .instance, (1, 1, 1, 1), ((1, 2), (3, 4)), 2))
    for name, inst, dims, groups, seed in above:
        label = f"seesaw {name} one sweep"
        try:
            res = adversary.seesaw(inst.verifier, adversary.SeesawConfig(
                prover_dims=dims, restarts=1, max_sweeps=1, seed=seed,
                product_groups=groups))
        except Exception as e:
            out[label] = _error(e)
            continue
        out[f"{label} value"] = repr(res.value)
        out[f"{label} trace"] = repr(res.trace)
    label = "seesaw criterion 08 restart"
    try:
        res = adversary.seesaw(above[0][1].verifier, adversary.SeesawConfig(
            prover_dims=(2, 2), restarts=1, seed=5, convergence_tol=1e-6))
        out[f"{label} value"] = repr(res.value)
        out[f"{label} trace length"] = str(len(res.trace))
        out[f"{label} converged"] = repr(res.converged)
    except Exception as e:
        out[label] = _error(e)
    return out


def _floats(value: str) -> list[float] | None:
    """The float, or the floats of a tuple or list, that `value` is the
    repr of; None for a digest or an error."""
    try:
        parsed = ast.literal_eval(value)
    except (ValueError, SyntaxError):
        return None
    items = parsed if isinstance(parsed, (list, tuple)) else [parsed]
    if all(isinstance(v, float) for v in items):
        return list(items)
    return None


def compare(before: dict[str, str], after: dict[str, str]) -> list[str]:
    """One line per key that differs between two digest objects."""
    lines = []
    for key in sorted(before.keys() | after.keys()):
        old, new = before.get(key), after.get(key)
        if old == new:
            continue
        if old is None or new is None:
            lines.append(f"{key}: only {'after' if old is None else 'before'}")
            continue
        a, b = _floats(old), _floats(new)
        if a is not None and b is not None and len(a) == len(b):
            delta = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
            lines.append(f"{key}: max |delta| {delta:.3g}")
        elif a is not None and b is not None:
            lines.append(f"{key}: {len(a)} values before, {len(b)} after")
        else:
            lines.append(f"{key}: differs")
    return lines


def main(argv: list[str]) -> int:
    if argv[:1] == ["--compare"] and len(argv) == 3:
        before, after = (json.loads(Path(f).read_text()) for f in argv[1:])
        lines = compare(before, after)
        print("\n".join(lines + [f"{len(lines)} of {len(after)} keys differ"]))
        return 1 if lines else 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        out = digests(Path(tmp))
    print(json.dumps(out, sort_keys=True, indent=1))
    print(f"{len(out)} outputs in {time.perf_counter() - t0:.1f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
