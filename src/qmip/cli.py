"""Command line entry point: simulate, transform, audit, pipeline, fixtures.

Exit codes: 0 success, 2 validation failure, 3 precondition failure,
4 budget exceeded, 5 internal numerical check failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import adversary, files, fixtures, transforms
from .config import (DEFAULT_RUN_CONFIG, QmipError, RunConfig,
                     ValidationError)
from .model import run

VERDICT_SLACK = 1e-6


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("QMIP_OUT", "qmip-out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run_config(args) -> RunConfig:
    if args.max_qubits is None:
        return DEFAULT_RUN_CONFIG
    return replace(DEFAULT_RUN_CONFIG, max_qubits=args.max_qubits)


def _emit(record: files.RunRecord) -> None:
    print(record.as_json_line())


def cmd_simulate(args) -> int:
    t0 = time.time()
    inst = files.load(args.file)
    cfg = _run_config(args)
    if args.optimal_shared:
        p_max, state = adversary.optimal_shared_state(
            inst.verifier, inst.provers, config=cfg)
        inst = inst.with_shared(state)
        print(f"optimal shared state value = {p_max:.12f}")
    if args.strategy:
        strat = files.load_strategy(args.strategy)
        spec = adversary.resize_prover_registers(inst.verifier,
                                                 strat["prover_dims"])
        from .linalg import StateVector
        shared = StateVector(strat["shared_amplitudes"],
                             spec.layout.shared_layout)
        inst = inst.__class__(spec, strat["strategies"], shared, inst.meta)
    tr = run(inst, snapshot_turns=range(1, inst.m + 1) if args.snapshots else (),
             config=cfg)
    print(f"p_acc = {tr.acceptance:.12f}")
    if args.snapshots:
        out = _out_dir(args)
        dump = [{"turn": s.turn, "branch": s.history,
                 "norm_sq": s.state.norm() ** 2}
                for s in tr.snapshots]
        (out / (Path(args.file).stem + ".snapshots.json")).write_text(
            json.dumps(dump, indent=1))
    _emit(files.RunRecord("simulate", files.digest(args.file), args.seed,
                          acceptance=tr.acceptance,
                          wall_time_s=round(time.time() - t0, 3)))
    return 0


def cmd_transform(args) -> int:
    t0 = time.time()
    inst = files.load(args.file)
    name = getattr(args, "pass_name")
    if name not in transforms.PASSES:
        print(f"unknown pass {name!r}; choose from "
              f"{sorted(transforms.PASSES)}", file=sys.stderr)
        return 2
    cfg = _run_config(args)
    check = not args.no_verify and inst.meta.role != "no"
    fn = transforms.PASSES[name]
    kwargs = {"check": check, "config": cfg}
    if name in ("seq-rep", "par-rep"):
        kwargs["n"] = args.n
    if name == "rewindable":
        if args.p_max is not None:
            kwargs["p_max"] = args.p_max
        elif not check:
            kwargs["p_max"] = inst.meta.claimed_completeness
    res = fn(inst, **kwargs)
    out = _out_dir(args)
    stem = Path(args.file).stem
    out_file = out / f"{stem}.{name}.json"
    files.save(res.instance, out_file)
    report = res.report.as_dict()
    (out / f"{stem}.{name}.report.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))
    print(f"{name}: (k, m) = ({res.report.input_shape[0]}, "
          f"{res.report.input_shape[1]}) -> ({res.report.output_shape[0]}, "
          f"{res.report.output_shape[1]})")
    if res.report.output_honest is not None:
        print(f"honest value = {res.report.output_honest:.12f}")
    for w in res.report.warnings:
        print(f"warning: {w}")
    print(f"wrote {out_file}")
    _emit(files.RunRecord("transform." + name, files.digest(args.file),
                          args.seed, transform_report=report,
                          wall_time_s=round(time.time() - t0, 3)))
    return 0


def _prover_dims(text: str) -> tuple[int, ...]:
    """The prover qubit counts of `--dims`, comma separated."""
    dims = []
    for entry in text.split(","):
        try:
            dims.append(int(entry))
        except ValueError:
            raise ValidationError(
                f"--dims entry {entry!r} is not an integer") from None
    return tuple(dims)


def cmd_audit(args) -> int:
    t0 = time.time()
    inst = files.load(args.file)
    cfg = _run_config(args)
    claimed = inst.meta.claimed_soundness
    if args.method == "grid":
        value = adversary.brute_force_value(inst.verifier,
                                            grid=args.grid_resolution,
                                            config=cfg)
        result_dict = {"method": "grid", "value": value,
                       "grid_resolution": args.grid_resolution}
        trace_note = ""
    else:
        dims = (_prover_dims(args.dims) if args.dims else
                tuple(r.qubits for r in inst.verifier.layout.provers))
        res = adversary.seesaw(
            inst.verifier,
            adversary.SeesawConfig(prover_dims=dims, restarts=args.restarts,
                                   max_sweeps=args.sweeps,
                                   convergence_tol=args.tol, seed=args.seed),
            config=cfg)
        value = res.value
        result_dict = {"method": "seesaw", "value": res.value,
                       "trace": list(res.trace), "converged": res.converged,
                       "restart_values": list(res.restart_values),
                       "prover_dims": list(res.prover_dims)}
        trace_note = (f" ({len(res.trace)} iterations, "
                      f"{'converged' if res.converged else 'not converged'})")
        if args.out_strategy:
            Path(args.out_strategy).write_text(files.strategy_text(res))
            print(f"wrote strategy to {args.out_strategy}")
    print(f"best adversarial value found = {value:.12f}{trace_note}")
    verdict = None
    if claimed is not None:
        verdict = "CONSISTENT" if value <= claimed + VERDICT_SLACK else "EXCEEDS"
        print(f"claimed soundness = {claimed:.12f} -> verdict {verdict} "
              f"(no strategy found exceeding the claim)"
              if verdict == "CONSISTENT" else
              f"claimed soundness = {claimed:.12f} -> verdict {verdict}")
    _emit(files.RunRecord("audit", files.digest(args.file), args.seed,
                          adversary=result_dict, verdict=verdict,
                          wall_time_s=round(time.time() - t0, 3)))
    return 0


def cmd_pipeline(args) -> int:
    t0 = time.time()
    inst = files.load(args.file)
    cfg = _run_config(args)
    check = not args.no_verify
    result = transforms.run_pipeline(inst, check=check, config=cfg)
    out = _out_dir(args)
    stem = Path(args.file).stem
    reports = []
    for stage in result.stages:
        nm = stage.report.name
        files.save(stage.instance, out / f"{stem}.{nm}.json")
        reports.append(stage.report.as_dict())
    (out / f"{stem}.pipeline.report.json").write_text(
        json.dumps({"stages": reports,
                    "final_soundness_claim": result.final_soundness_claim,
                    "inverse_gap": result.inverse_gap},
                   indent=1, sort_keys=True))
    final = result.instance
    honest = result.stages[-1].report.output_honest
    print(f"pipeline: stages {' -> '.join(result.stage_names())}")
    print(f"final (k, m) = ({final.k}, {final.m})")
    if honest is not None:
        print(f"final honest value = {honest:.12f}")
    if result.inverse_gap is not None:
        print(f"claimed final soundness = {result.final_soundness_claim:.12f} "
              f"(= 1 - 1/p' with p' = {result.inverse_gap:.6f})")
    print(f"wrote stage files to {out}")
    _emit(files.RunRecord("pipeline", files.digest(args.file), args.seed,
                          transform_report={"stages": [r["transform"]
                                                       for r in reports]},
                          wall_time_s=round(time.time() - t0, 3)))
    return 0


def cmd_fixtures(args) -> int:
    directory = args.dir or str(fixtures.fixtures_dir()) \
        if args.action == "verify" else (args.dir or "fixtures")
    if args.action == "generate":
        manifest = fixtures.generate_all(directory)
        print(f"generated {len(manifest['entries'])} fixtures in {directory}")
        return 0
    problems = fixtures.verify_all(directory)
    if problems:
        for p in problems:
            print(f"FAIL {p}")
        return 5
    print("all fixtures verified against the manifest")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qmip",
        description="simulate, transform, and audit quantum multi-prover "
                    "interactive protocols")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None,
                       help="output directory (default $QMIP_OUT or ./qmip-out)")
        p.add_argument("--max-qubits", type=int, default=None)

    p = sub.add_parser("simulate", help="run a protocol file exactly")
    p.add_argument("file")
    p.add_argument("--optimal-shared", action="store_true",
                   help="replace the shared state by the eigen-optimal one")
    p.add_argument("--strategy", default=None,
                   help="strategy file from an audit run")
    p.add_argument("--snapshots", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("transform", help="apply a transformation pass")
    p.add_argument("file")
    p.add_argument("--pass", dest="pass_name", required=True,
                   choices=sorted(transforms.PASSES))
    p.add_argument("--n", type=int, default=2, help="repetition count")
    p.add_argument("--p-max", type=float, default=None)
    p.add_argument("--no-verify", action="store_true",
                   help="skip honest-value verification")
    common(p)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("audit", help="search for cheating strategies")
    p.add_argument("file")
    p.add_argument("--method", choices=("seesaw", "grid"), default="seesaw")
    p.add_argument("--restarts", type=int, default=adversary.SeesawConfig.restarts)
    p.add_argument("--sweeps", type=int, default=adversary.SeesawConfig.max_sweeps,
                   help="iterations (sweeps or L-BFGS steps) per restart")
    p.add_argument("--tol", type=float,
                   default=adversary.SeesawConfig.convergence_tol)
    p.add_argument("--dims", default=None,
                   help="comma-separated prover qubit counts")
    p.add_argument("--grid-resolution", type=float, default=adversary.GRID_STEP)
    p.add_argument("--out-strategy", default=None)
    common(p)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("pipeline", help="full chain to a one-round system")
    p.add_argument("file")
    p.add_argument("--no-verify", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("fixtures", help="generate or verify bundled fixtures")
    p.add_argument("action", choices=("generate", "verify"))
    p.add_argument("--dir", default=None)
    p.set_defaults(fn=cmd_fixtures)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except QmipError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
