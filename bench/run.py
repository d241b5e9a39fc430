"""The qmip benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload audit|pipeline|oneshot --seed N \
        --seconds S --trace 0|1

One workload runs in this process with one client in a closed loop: the next
op starts when the previous one has finished and been checked. The seed is the
only input; the workload builds its inputs from it and from the committed
fixtures. Every op's result is checked, and a failed check or an exception
counts the op as failed.

With --trace 0 the run measures for S seconds, in whole rounds of ops, and
reports the end-to-end metrics. With --trace 1 it runs a fixed number of
rounds twice, untraced and then traced, and reports the per-layer metrics and
the tracing overhead. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A fuller record (environment, sample counts, fail_frac, op_p90_s, output
fingerprints) goes to .bench_out/<workload>-seed<N>-trace<T>.json, and a
traced run writes its spans to .bench_out/<workload>-seed<N>.trace.npz. The
exit code is 0 only if every op passed; a checkout without src/qmip gives 2.
"""

import time

T_START = time.perf_counter()   # set-up is measured from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_RUNS = 3          # set-ups per untraced run; setup_s is their median
OUT_DIR = ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def single_thread_blas() -> None:
    """Run BLAS on one thread; must run before numpy loads.

    With two OpenBLAS threads on a 2-core VM, a 15-qubit pass such as
    direct-one-round took 16 ms in some processes and 200 ms in others, which
    made oneshot's throughput differ twofold from run to run. One thread keeps
    runs comparable; it costs the 21-qubit pipeline about 13%.
    """
    for var in BLAS_ENV:
        os.environ[var] = "1"


def checkout_problem(root: Path) -> str | None:
    for need in ("src/qmip/__init__.py", "fixtures/manifest.json"):
        if not (root / need).is_file():
            return f"{root} is not a qmip checkout: {need} is missing"
    return None


def load_program(root: Path) -> None:
    """Import qmip from the checkout's sources, never from site-packages."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import qmip
    here = (root / "src" / "qmip").resolve()
    if Path(qmip.__file__).resolve().parent != here:
        raise RuntimeError(f"imported qmip from {qmip.__file__}, not {here}")


# ---------------------------------------------------------------------------
# measurement


def set_up(name: str, seed: int, out_dir: Path):
    """Input generation and warm-up: one untimed, checked op per op kind
    (a round holds each kind once)."""
    import numpy as np
    from workloads import WORKLOADS
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](seed, out_dir)
    for key in wl.round(np.random.default_rng([seed, 0])):
        problems, _ = wl.op(key, -1)
        if problems:
            raise RuntimeError(f"warm-up op failed: {problems}")
    return wl


def run_ops(wl, seed: int, seconds: float | None = None,
            rounds: int | None = None, tracer=None) -> dict:
    """Closed loop over whole rounds: until `seconds` have passed (at least
    one round), or exactly `rounds` rounds. The op order comes from the seed."""
    import numpy as np
    rng = np.random.default_rng([seed, 1])
    op_span = tracer.name_id("op") if tracer else None
    keys, times, failures, fingerprints = [], [], [], []
    index = done = 0
    t0 = time.perf_counter()
    deadline = t0 + (seconds or 0.0)

    def more() -> bool:
        if rounds is not None:
            return done < rounds
        return done == 0 or time.perf_counter() < deadline

    while more():
        for key in wl.round(rng):
            if tracer:
                tracer.op_id = index
                tracer.enter(op_span)
            t = time.perf_counter()
            try:
                problems, fp = wl.op(key, index)
            except Exception:  # an op that raises is a failed op, not a crash
                problems, fp = [f"{key}: {traceback.format_exc()}"], None
            finally:
                times.append(time.perf_counter() - t)
                if tracer:
                    tracer.exit()
            if problems:
                failures.append({"op": index, "key": key, "problems": problems})
            keys.append(key)
            fingerprints.append(fp)
            index += 1
        done += 1
    wall = time.perf_counter() - t0
    return {"ops": index, "rounds": done, "wall_s": wall, "keys": keys,
            "times": times, "failures": failures, "fingerprints": fingerprints}


def child_setup_s(name: str, seed: int, root: Path) -> float:
    """Set-up time of a fresh process: imports, inputs and warm-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--trace", "0",
         "--setup-only"],
        cwd=root, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(loop: dict, setup_samples: list) -> dict:
    times = loop["times"]
    out = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (loop["ops"] / loop["wall_s"], "ops/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "fail_frac": (len(loop["failures"]) / loop["ops"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MiB"),
    }
    if len(times) >= 100:   # >= 10 samples beyond p90: in practice oneshot
        out["op_p90_s"] = (statistics.quantiles(times, n=10)[8], "s")
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path,
            rounds: int | None = None, setup_runs: int = SETUP_RUNS,
            t_start: float = T_START) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, full record). `rounds` caps
    the work for the benchmark's own short-mode tests."""
    import layers
    from workloads import traced_rounds

    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    out_dir = root / OUT_DIR
    stage_dir = out_dir / f"stages-{os.getpid()}"
    try:
        wl = set_up(name, seed, stage_dir)
        setup_s = time.perf_counter() - t_start
        record = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": int(trace)}
        if not trace:
            loop = run_ops(wl, seed, seconds=seconds, rounds=rounds)
            setup_samples = [setup_s] + [child_setup_s(name, seed, root)
                                         for _ in range(setup_runs - 1)]
            metrics = end_to_end(loop, setup_samples)
            record["setup_samples_s"] = setup_samples
            loops = [loop]
        else:
            n = rounds or traced_rounds(name, seconds)
            base = run_ops(wl, seed, rounds=n)
            tracer = layers.Tracer()
            undo = layers.install(tracer)
            try:
                loop = run_ops(wl, seed, rounds=n, tracer=tracer)
            finally:
                layers.restore(undo)
            names = [m["name"] for m in spec["per_layer"]]
            values = layers.layer_metrics(tracer, names)
            traced_rate = loop["ops"] / loop["wall_s"]
            base_rate = base["ops"] / base["wall_s"]
            values.update({"trace.ops": loop["ops"],
                           "trace.ops_per_s": traced_rate,
                           "trace.untraced_ops_per_s": base_rate,
                           "trace.overhead_frac": 1.0 - traced_rate / base_rate})
            metrics = {m["name"]: (values[m["name"]], m["unit"])
                       for m in spec["per_layer"]}
            trace_path = out_dir / f"{name}-seed{seed}.trace.npz"
            tracer.dump(trace_path)
            record["trace_file"] = str(trace_path.relative_to(root))
            record["spans"] = len(tracer.span_start)
            loops = [base, loop]
    finally:
        shutil.rmtree(stage_dir, ignore_errors=True)

    attempted = sum(lp["ops"] for lp in loops)
    failures = [f for lp in loops for f in lp["failures"]]
    record.update({
        "environment": environment(root, name, seed, loops),
        "samples": {"ops": loop["ops"], "rounds": loop["rounds"],
                    "timed_wall_s": loop["wall_s"],
                    "op_keys": loop["keys"], "op_times_s": loop["times"]},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": failures,
        "fingerprints": wl.fingerprints(loop["fingerprints"]),
    })
    listed = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    line = {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()
                        if k in listed}}
    return line, record


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked from the library."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _lscpu() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    fields = dict(line.split(":", 1) for line in text.splitlines() if ":" in line)
    return {k: fields[f].strip() for k, f in
            (("model", "Model name"), ("l2", "L2 cache"), ("l3", "L3 cache"))
            if f in fields}


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=10)
    return proc.stdout.strip() or None


def _src_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src" / "qmip").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(root: Path, name: str, seed: int, loops: list) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "env": {v: os.environ.get(v) for v in BLAS_ENV}},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _lscpu(),
        "git_commit": _git_commit(root),
        "src_sha256": _src_sha256(root),
        "workload": name,
        "seed": seed,
        "ops": [lp["ops"] for lp in loops],
    }


# ---------------------------------------------------------------------------
# command line


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("audit", "pipeline", "oneshot"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used to "
                        "repeat set-up in fresh processes)")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def summary(name: str, line: dict, record: dict) -> str:
    m = record["metrics"]
    n = record["samples"]["ops"]
    if record["trace"]:
        text = (f"traced {n} ops in {record['spans']} spans, "
                f"overhead_frac={m['trace.overhead_frac']['value']:.4f}")
    else:
        text = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in m.items())
        text += f" (ops n={n}, setup n={len(record['setup_samples_s'])})"
    return f"{name}: {text}; failed {line['failed']}/{line['attempted']}"


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    problem = checkout_problem(root)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    single_thread_blas()
    load_program(root)
    if args.setup_only:
        stage_dir = root / OUT_DIR / f"stages-{os.getpid()}"
        try:
            set_up(args.workload, args.seed, stage_dir)
        finally:
            shutil.rmtree(stage_dir, ignore_errors=True)
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0
    line, record = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace), root)
    path = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for f in record["failures"][:5]:
        print(f"FAILED op {f['op']} ({f['key']}): {f['problems']}", file=sys.stderr)
    print(summary(args.workload, line, record))
    print(f"record: {path.relative_to(root)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
