"""The benchmark's three workloads.

Each workload is built from the checkout's committed fixtures and the workload
seed. `round(rng)` returns one balanced round of op keys; the runner draws
rounds until its time is up, so every run holds whole rounds and the same mix
of op kinds. `op(key, index)` performs one op, checks its result and returns
`(problems, fingerprint)`: an empty problem list means the op passed.
`fingerprints(fps)` summarises a run's output fingerprints for the record;
they are never gated on. The references the checks compare against are plain
attributes, so a test can plant a wrong one.

Why these three (see bench/README.md for the prediction table):

* audit - see-saw restarts on a 7-qubit state: tens of thousands of small
  kernel calls per op, so the cost is per-call dispatch.
* pipeline - the full compiler chain up to 21 qubits: few calls on large
  states, so the cost is moving memory.
* oneshot - single small simulations and passes: no repeated work, so any
  compile-once or caching step shows its set-up cost here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from qmip import adversary, files, model, transforms
from qmip.fixtures import fixtures_dir

TOL = 1e-9


def _close(label: str, got: float | None, want: float) -> list[str]:
    if got is None or not abs(got - want) <= TOL:
        return [f"{label}: {got!r} differs from {want!r} by more than {TOL}"]
    return []


class Audit:
    """One see-saw restart per op on the verifier of the rewound `sound_no`,
    with acceptance criterion 03's settings."""

    name = "audit"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        rwd = transforms.make_perfectly_rewindable(
            files.load(fixtures_dir() / "sound_no.json"), p_max=1.0, check=False)
        self.verifier = transforms.rewind_to_perfect_completeness(
            rwd.instance, check=False).instance.verifier
        # criterion 03's bound 1/2 + 2 sqrt(s) + 5s/2 + 0.01 at its premise s = 0.01
        self.bound = 0.735

    def round(self, rng) -> list:
        return [None]

    def op_seed(self, index: int) -> int:
        # index -1 is the warm-up op; op seeds never repeat it
        return int(np.random.SeedSequence([self.seed, index + 1]).generate_state(1)[0])

    def op(self, key, index: int):
        cfg = adversary.SeesawConfig(prover_dims=(2,), convergence_tol=1e-7,
                                     max_sweeps=60, restarts=1,
                                     seed=self.op_seed(index))
        res = adversary.seesaw(self.verifier, cfg)
        problems = []
        for i, (a, b) in enumerate(zip(res.trace, res.trace[1:])):
            if b < a - TOL:
                problems.append(f"trace decreases at sweep {i + 1}: {a!r} -> {b!r}")
        if not res.value <= self.bound:
            problems.append(f"value {res.value!r} exceeds the bound {self.bound}")
        return problems, {"seed": cfg.seed, "value": res.value,
                          "trace": list(res.trace)}

    def fingerprints(self, fps: list) -> dict:
        return {"ops": [fp for fp in fps if fp is not None]}


class Pipeline:
    """One `run_pipeline(check=True)` per op, then `files.save` of every stage
    output, as `qmip pipeline` does."""

    name = "pipeline"
    inputs = ("five_turn_yes", "sound_yes")

    def __init__(self, seed: int, out_dir: Path):
        self.instances = {n: files.load(fixtures_dir() / f"{n}.json")
                          for n in self.inputs}
        self.out_dir = out_dir
        self.final_shape = (2, 2)
        self.stage_honest = 1.0

    def round(self, rng) -> list:
        return [self.inputs[i] for i in rng.permutation(len(self.inputs))]

    def op(self, key: str, index: int):
        res = transforms.run_pipeline(self.instances[key], check=True)
        digests = {}
        for stage in res.stages:
            path = self.out_dir / f"{key}.{stage.report.name}.json"
            files.save(stage.instance, path)
            digests[stage.report.name] = files.digest(path)
        problems = []
        shape = (res.instance.k, res.instance.m)
        if shape != self.final_shape:
            problems.append(f"{key}: final (k, m) = {shape}, "
                            f"expected {self.final_shape}")
        for stage in res.stages:
            problems += _close(f"{key} stage {stage.report.name} honest value",
                               stage.report.output_honest, self.stage_honest)
        return problems, {"input": key, "stages": digests}

    def fingerprints(self, fps: list) -> dict:
        """Stage-file digests per input; `stable` says whether every op on
        the same input saved byte-identical files."""
        seen: dict[str, list] = {}
        for fp in fps:
            if fp is not None and fp["stages"] not in seen.setdefault(fp["input"], []):
                seen[fp["input"]].append(fp["stages"])
        return {"stage_sha256": seen,
                "stable": all(len(v) == 1 for v in seen.values())}


class Oneshot:
    """Single small simulations and passes drawn from a fixed pool.

    `simulate <fixture>` loads a committed fixture, runs it and compares with
    the manifest's expected honest value. `<pass> <input>` runs one PASSES
    entry with check=True and compares the honest value of its output with the
    identity that acceptance criteria 01, 02, 04, 06, 07 and 09 check, plus
    n = 3 repetitions of `good`. Pairs from those criteria that act on a
    15-qubit or larger state (public-coin and one-round on the five-turn
    cascade) belong to the pipeline regime and are left out.
    """

    name = "oneshot"

    def __init__(self, seed: int, out_dir: Path):
        fix = fixtures_dir()
        entries = json.loads((fix / "manifest.json").read_text())["entries"]
        c = {n: e["expected_honest_value"] for n, e in entries.items()}
        self.paths = {n: fix / e["file"] for n, e in entries.items()}

        def load(n):
            return files.load(self.paths[n])

        cascade = transforms.parallelize_to_three(load("five_turn_yes")).instance
        pc_three = transforms.to_public_coin_3turn(load("three_turn")).instance
        # key -> (pass, input instance, extra arguments); reference values
        # follow from the manifest by each pass's identity
        self.passes = {}
        self.references = {}

        def add(pass_name, label, inst, ref, **kw):
            key = f"{pass_name} {label}"
            self.passes[key] = (pass_name, inst, kw)
            self.references[key] = ref

        for n in ("good", "always"):
            add("rewindable", n, load(n), 0.5)
        for n in ("rw_good", "rw_always", "rw_ent"):
            add("rewind", n, load(n), 1.0)
        for n in ("five_turn_yes", "nine_turn_yes"):
            add("halve", n, load(n), (1 + c[n]) / 2)
        add("public-coin", "three_turn", load("three_turn"),
            (1 + c["three_turn"]) / 2)
        add("one-round", "public-coin(three_turn)", pc_three,
            (1 + c["three_turn"]) / 2)
        add("direct-one-round", "three_turn", load("three_turn"),
            (1 + c["three_turn"]) / 2)
        add("direct-one-round", "three-turn(five_turn_yes)", cascade,
            (1 + c["five_turn_yes"]) / 2)
        add("seq-rep", "good", load("good"), c["good"] ** 3, n=3)
        add("par-rep", "good", load("good"), c["good"] ** 3, n=3)
        for n in sorted(entries):
            self.references[f"simulate {n}"] = c[n]
        self.pool = sorted(self.references)

    def round(self, rng) -> list:
        return [self.pool[i] for i in rng.permutation(len(self.pool))]

    def op(self, key: str, index: int):
        if key.startswith("simulate "):
            inst = files.load(self.paths[key.split(" ", 1)[1]])
            value = model.run(inst).acceptance
        else:
            pass_name, inst, kw = self.passes[key]
            value = transforms.PASSES[pass_name](inst, check=True, **kw
                                                 ).report.output_honest
        return _close(key, value, self.references[key]), None

    def fingerprints(self, fps: list) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Audit, Pipeline, Oneshot)}

# Rough wall time of one round at the seed commit on a 2-core Xeon. The traced
# run performs a fixed number of rounds, seconds / NOMINAL_ROUND_S, so that its
# counts repeat exactly at one seed and compare across commits.
NOMINAL_ROUND_S = {"audit": 0.6, "pipeline": 2.8, "oneshot": 0.075}


def traced_rounds(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / NOMINAL_ROUND_S[workload]))
