"""The benchmark's own tests: `python -m pytest bench -q` from the repo root.

They run a single round of each workload in short mode and check that every
metric BENCHMARK.json names is emitted with its unit, that a planted wrong
reference is counted as a failed op, that traced counts repeat exactly, and
that the command refuses a directory without the program.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402

run.single_thread_blas()
run.load_program(ROOT)

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _short(name, trace, seed=3):
    return run.measure(name, seed, 1.0, trace, ROOT, rounds=1, setup_runs=1,
                       t_start=time.perf_counter())


def _check_line(line, kind):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = line["metrics"]
    assert set(got) == set(want)
    for name, unit in want.items():
        assert got[name]["unit"] == unit, name
        assert isinstance(got[name]["value"], (int, float)), name
        assert math.isfinite(got[name]["value"]), name


def test_benchmark_json_follows_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[k]]
    assert all(NAME.match(n) for n in names)
    assert len(set(m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"])) \
        == len(SPEC["end_to_end"]) + len(SPEC["per_layer"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_short_mode_emits_every_end_to_end_metric(name):
    line, record = _short(name, trace=False)
    _check_line(line, "end_to_end")
    # fail_frac and op_p90_s are reported in the record, not the result line
    assert record["metrics"]["fail_frac"] == {"value": 0.0, "unit": "ratio"}
    assert ("op_p90_s" in record["metrics"]) == (line["attempted"] >= 100)
    env = record["environment"]
    assert env["nproc"] >= 1 and env["blas"]["threads"] <= env["nproc"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_short_mode_emits_every_per_layer_metric(name):
    line, record = _short(name, trace=True)
    _check_line(line, "per_layer")
    m = line["metrics"]
    assert m["numpy.tensordot.calls"]["value"] > 0
    assert m["model.run.calls"]["value"] > 0
    if name == "audit":
        assert m["adversary.sweeps"]["value"] == 60 * m["trace.ops"]["value"]
    if name == "pipeline":
        assert m["model.run.qubits_max"]["value"] == 21
        assert record["fingerprints"]["stable"] is True
    assert (ROOT / record["trace_file"]).is_file()


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        line, _ = _short("oneshot", trace=True, seed=5)
        counts.append({k: v["value"] for k, v in line["metrics"].items()
                       if v["unit"] in ("count", "qubits", "B", "B-computed")})
    assert counts[0] == counts[1]
    assert counts[0]["model.flatten.branches"] > 0


def test_wrappers_reach_every_lookup_and_are_restored():
    from qmip import model, transforms
    before = (model.apply_gate, transforms.run, transforms.PASSES["halve"])
    tracer = layers.Tracer()
    undo = layers.install(tracer)
    try:
        assert model.apply_gate is not before[0]
        assert transforms.run is not before[1]
        assert transforms.PASSES["halve"] is transforms.halve_turns
        assert transforms.PASSES["halve"] is not before[2]
    finally:
        layers.restore(undo)
    assert (model.apply_gate, transforms.run, transforms.PASSES["halve"]) == before


@pytest.mark.parametrize("name,plant", [
    ("oneshot", lambda wl: wl.references.__setitem__(
        "simulate good", wl.references["simulate good"] + 1e-6)),
    ("audit", lambda wl: setattr(wl, "bound", 0.3)),
])
def test_wrong_reference_counts_in_fail_frac(name, plant, tmp_path):
    wl = run.set_up(name, 7, tmp_path)
    plant(wl)
    loop = run.run_ops(wl, 7, rounds=1)
    assert len(loop["failures"]) == 1
    frac = run.end_to_end(loop, [1.0])["fail_frac"][0]
    assert frac == 1 / loop["ops"]


def test_bare_directory_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "audit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_command_line_prints_result_last():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "oneshot", "--seed", "2", "--seconds", "0.5",
                           "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    _check_line(json.loads(proc.stdout.strip().splitlines()[-1]), "end_to_end")
    record = json.loads(
        (ROOT / ".bench_out" / "oneshot-seed2-trace0.json").read_text())
    assert record["samples"]["ops"] >= 100
    assert record["metrics"]["op_p90_s"]["unit"] == "s"
