"""CLI surface: subcommands, outputs, exit codes."""

import json

import pytest

from qmip import cli, files, fixtures


@pytest.fixture(scope="module")
def fdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    fixtures.generate_all(d)
    return d


def run_cli(capsys, *args) -> tuple[int, str, str]:
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_simulate_always(fdir, capsys):
    code, out, _ = run_cli(capsys, "simulate", str(fdir / "always.json"))
    assert code == 0
    assert "p_acc = 1.000000000000" in out


def test_simulate_optimal_shared(fdir, capsys):
    code, out, _ = run_cli(capsys, "simulate", str(fdir / "rw_good.json"),
                           "--optimal-shared")
    assert code == 0
    assert "p_acc = 0.500000000000" in out


def test_simulate_missing_register_error(fdir, tmp_path, capsys):
    data = json.loads((fdir / "guess.json").read_text())
    data["output_qubit"] = ["NOPE", 0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "simulate", str(bad))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("where, value, path", [
    (("shared_state", "amplitudes", 0), ["a", 0.0], "shared_state.amplitudes"),
    (("circuits", "v1", 0, "targets", 0), ["V", "x"],
     "circuits.v1[0].targets"),
    (("registers", 0, "qubits"), "two", "registers[0]"),
    (("turns",), 5, "turns"),
], ids=["amplitude", "target", "register", "turns"])
def test_simulate_malformed_file_exit_code(fdir, tmp_path, capsys, where,
                                           value, path):
    data = json.loads((fdir / "guess.json").read_text())
    parent = data
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "simulate", str(bad))
    assert code == 2
    assert f"{path}: " in err


@pytest.mark.parametrize("value", ["x", [], {}], ids=["str", "list", "dict"])
@pytest.mark.parametrize("field", ["claimed_completeness", "claimed_soundness"])
def test_simulate_non_number_claim_exit_code(fdir, tmp_path, capsys, field,
                                             value):
    data = json.loads((fdir / "guess.json").read_text())
    data.setdefault("meta", {})[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "simulate", str(bad))
    assert code == 2
    assert f"meta.{field}: " in err


@pytest.mark.parametrize("text", ["{not json", None],
                         ids=["not-json", "no-prover-dims"])
def test_simulate_malformed_strategy_exit_code(fdir, tmp_path, capsys, text):
    strat = tmp_path / "strat.json"
    if text is None:
        # a strategy file without its prover dimensions
        text = json.dumps({"format": files.STRATEGY_TAG, "value": 0.5,
                           "strategies": [], "shared": [[1.0, 0.0]]})
    strat.write_text(text)
    code, _, err = run_cli(capsys, "simulate", str(fdir / "guess.json"),
                           "--strategy", str(strat))
    assert code == 2
    assert str(strat) in err


def test_transform_and_report(fdir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "transform", str(fdir / "good.json"),
                           "--pass", "rewindable", "--out", str(out_dir))
    assert code == 0
    assert "(1, 2) -> (1, 2)" in out
    produced = files.load(out_dir / "good.rewindable.json")
    assert produced.meta.claimed_completeness == 0.5
    report = json.loads((out_dir / "good.rewindable.report.json").read_text())
    assert report["transform"] == "rewindable"


def test_transform_precondition_exit_code(fdir, tmp_path, capsys):
    code, _, err = run_cli(capsys, "transform", str(fdir / "good.json"),
                           "--pass", "halve", "--out", str(tmp_path))
    assert code == 3
    assert "4m+1" in err


def test_transform_no_verify_on_no_instance(fdir, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "transform", str(fdir / "five_turn_no.json"),
                           "--pass", "halve", "--out", str(tmp_path))
    assert code == 0  # role = no disables honest verification automatically


def test_audit_consistent_verdict(fdir, capsys):
    code, out, _ = run_cli(capsys, "audit", str(fdir / "guess.json"),
                           "--restarts", "3", "--dims", "1")
    assert code == 0
    assert "CONSISTENT" in out
    assert "no strategy found exceeding" in out


@pytest.mark.parametrize("args", [
    ("must be >= 1", "audit", "guess.json", "--sweeps", "0", "--restarts", "1",
     "--dims", "1"),
    ("must be >= 1", "simulate", "always.json", "--max-qubits", "0"),
    *(("must be finite and > 0", "audit", "always.json", "--method", "grid",
       f"--grid-resolution={value}") for value in ("0", "-0.1", "nan")),
    # a step above 4*pi/3 rounds to fewer than 2 points per angle
    ("at least 2", "audit", "always.json", "--method", "grid",
     "--grid-resolution=10"),
    *(("--dims entry", "audit", "guess.json", f"--dims={value}")
      for value in ("1.5", ",")),
    *(("convergence_tol must be finite and > 0", "audit", "guess.json",
       f"--tol={value}", "--restarts", "1", "--sweeps", "3", "--dims", "1")
      for value in ("nan", "inf"))])
def test_out_of_range_settings_exit_with_validation_code(fdir, capsys, args):
    message, command, name, *flags = args
    code, _, err = run_cli(capsys, command, str(fdir / name), *flags)
    assert code == 2
    assert message in err


def test_audit_grid_method(fdir, capsys):
    code, out, _ = run_cli(capsys, "audit", str(fdir / "always.json"),
                           "--method", "grid")
    assert code == 0
    assert "1.000000000000" in out


def test_audit_strategy_file_feeds_simulate(fdir, tmp_path, capsys):
    strat = tmp_path / "strat.json"
    code, out, _ = run_cli(capsys, "audit", str(fdir / "chsh.json"),
                           "--restarts", "6", "--dims", "1,1",
                           "--out-strategy", str(strat))
    assert code == 0
    code, out, _ = run_cli(capsys, "simulate", str(fdir / "chsh.json"),
                           "--strategy", str(strat))
    assert code == 0
    assert "p_acc = 0.8535" in out


def test_pipeline_aborts_on_zero_gap(fdir, tmp_path, capsys):
    code, _, err = run_cli(capsys, "pipeline", str(fdir / "good.json"),
                           "--out", str(tmp_path))
    assert code == 3
    assert "stage rewindable" in err
    assert "gap" in err


def test_fixtures_verify(fdir, capsys):
    code, out, _ = run_cli(capsys, "fixtures", "verify", "--dir", str(fdir))
    assert code == 0
    assert "verified" in out


def test_generated_fixtures_reproduce_committed_digests(fdir):
    def digests(directory):
        entries = json.loads((directory / "manifest.json").read_text())
        return {n: e["digest"] for n, e in entries["entries"].items()}

    generated = digests(fdir)
    assert generated == digests(fixtures.fixtures_dir())
    assert generated == {n: files.digest(fdir / f"{n}.json")
                         for n in generated}


def test_fixtures_verify_detects_tampering(fdir, tmp_path, capsys):
    import shutil
    d = tmp_path / "tampered"
    shutil.copytree(fdir, d)
    p = d / "always.json"
    p.write_text(p.read_text().replace(" ", "  ", 1))
    code, out, _ = run_cli(capsys, "fixtures", "verify", "--dir", str(d))
    assert code == 5
    assert "digest mismatch" in out


def test_records_are_json_lines(fdir, capsys):
    code, out, _ = run_cli(capsys, "simulate", str(fdir / "never.json"))
    line = [l for l in out.splitlines() if l.startswith("{")][-1]
    rec = json.loads(line)
    assert rec["command"] == "simulate"
    assert rec["acceptance"] == 0.0
