"""Batch command surface: recorded configuration, deterministic table
output, exit codes, output redirection, and the self-check subcommand."""

import argparse
import csv
import json

import numpy as np
import pytest

from isingrg.cli import build_parser, main
from isingrg.wavelet import make_daubechies_filter


def run_cli(args, monkeypatch, outdir):
    monkeypatch.setenv("ISINGRG_OUTDIR", str(outdir))
    return main(args)


def read_table(path):
    header = []
    body = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                header.append(line.rstrip("\n"))
            elif line.strip():
                body.append(line)
    rows = list(csv.reader(body))
    return header, rows[0], rows[1:]


# ---------------------------------------------------------------------------
# recorded configuration


def parsed_flags():
    """Destination names of every subcommand's flags, by subcommand."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest for a in p._actions if a.dest != "help"}
            for name, p in sub.choices.items()}


@pytest.mark.parametrize("argv", [
    ["filters", "--filter", "d4", "--out", "t.csv"],
    ["kernel", "--points", "3", "--format", "json", "--out", "t.json"],
    ["flow", "--filter", "haar", "--t3", "0.5", "--out", "t.csv"],
    ["spincorr", "--state", "lattice", "--dmax", "1", "--out", "t.csv"],
    ["oracle", "--out", "t.csv"],
    ["verify", "--suite", "wavelet", "--out", "t.json"],
])
def test_config_records_exactly_the_parsed_flags(argv, tmp_path, monkeypatch):
    assert run_cli(argv, monkeypatch, tmp_path) == 0
    path = tmp_path / argv[-1]
    if path.suffix == ".json":
        config = json.loads(path.read_text())["config"]
    else:
        config = json.loads(read_table(path)[0][1].removeprefix("# config: "))
    assert set(config) == {"command"} | parsed_flags()[argv[0]]
    assert config["command"] == argv[0]


def test_config_records_resolved_values(tmp_path, monkeypatch):
    # --critical is applied and the kind's kmax resolved before recording
    assert run_cli(["kernel", "--critical", "--t1", "2", "--t3", "0.5",
                    "--beta", "3", "--points", "3", "--out", "k.csv"],
                   monkeypatch, tmp_path) == 0
    header, _, rows = read_table(tmp_path / "k.csv")
    config = json.loads(header[1].removeprefix("# config: "))
    assert (config["t1"], config["t3"], config["beta"]) == (2.0, 2.0, "inf")
    assert config["kmax"] == 10.0 and float(rows[0][0]) == -10.0
    assert config["beta0"] == "inf"


# ---------------------------------------------------------------------------
# table output


def test_filters_table_matches_module(tmp_path, monkeypatch):
    assert run_cli(["filters", "--filter", "d4", "--out", "taps.csv"],
                   monkeypatch, tmp_path) == 0
    header, cols, rows = read_table(tmp_path / "taps.csv")
    assert header[0].startswith("# isingrg ")
    assert header[1].startswith("# config: ")
    assert cols == ["n", "h_n", "g_n"]
    taps = make_daubechies_filter(2).taps
    got = np.array([float(r[1]) for r in rows[:len(taps)]])
    assert np.array_equal(got, taps)  # repr round-trips exactly


def test_determinism_across_directories(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        assert run_cli(["kernel", "--kind", "lattice", "--points", "21",
                        "--out", "kern.csv"], monkeypatch, d) == 0
    assert (a / "kern.csv").read_bytes() == (b / "kern.csv").read_bytes()


def test_kernel_sign_structure(tmp_path, monkeypatch):
    assert run_cli(["kernel", "--kind", "critical-limit", "--points", "11",
                    "--kmax", "2.0", "--out", "k.csv"],
                   monkeypatch, tmp_path) == 0
    _, cols, rows = read_table(tmp_path / "k.csv")
    assert cols[:2] == ["k", "sign_k"]
    by_k = {float(r[0]): r for r in rows}
    # off-diagonal entry flips with the momentum sign; diagonal stays 1
    assert float(by_k[2.0][cols.index("c01_re")]) == -1.0
    assert float(by_k[-2.0][cols.index("c01_re")]) == 1.0
    assert float(by_k[2.0][cols.index("c00_re")]) == 1.0


def test_flow_critical_example(tmp_path, monkeypatch):
    assert run_cli(["flow", "--filter", "d4", "--m", "8", "--critical",
                    "--out", "flow.csv"], monkeypatch, tmp_path) == 0
    _, cols, rows = read_table(tmp_path / "flow.csv")
    errs = [float(r[cols.index("abs_error")]) for r in rows]
    assert len(errs) == 4
    assert max(errs) < 2e-3


def test_spincorr_odd_sites_exact_zero(tmp_path, monkeypatch):
    assert run_cli(["spincorr", "--state", "lattice", "--sites", "0,1,2",
                    "--out", "odd.csv"], monkeypatch, tmp_path) == 0
    _, cols, rows = read_table(tmp_path / "odd.csv")
    assert rows[0][0] == "sites:0,1,2"
    assert rows[0][1] == "0.0"  # exact parity zero, not approximately zero


def test_spincorr_exponent_record(tmp_path, monkeypatch):
    assert run_cli(["spincorr", "--state", "lattice", "--dmax", "12",
                    "--check-exponent", "--out", "sc.csv"],
                   monkeypatch, tmp_path) == 0
    _, cols, rows = read_table(tmp_path / "sc.csv")
    assert rows[-1][0] == "exponent_fit"
    assert float(rows[-1][1]) == pytest.approx(-0.25, abs=0.05)
    # the per-separation rows carry the cross-route deltas
    deltas = [float(r[3]) for r in rows[:-1] if r[3]]
    assert deltas and max(deltas) < 1e-10


def test_spincorr_exponent_needs_range(tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run_cli(["spincorr", "--dmax", "5", "--check-exponent"],
                monkeypatch, tmp_path)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# exit codes and file hygiene


def test_parser_error_leaves_no_file(tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run_cli(["kernel", "--kind", "bogus", "--out", "x.csv"],
                monkeypatch, tmp_path)
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()


def test_filter_range_matches_builder(tmp_path, monkeypatch, capsys):
    # make_daubechies_filter builds p <= 10, so d22 is a usage error
    with pytest.raises(SystemExit) as exc:
        run_cli(["filters", "--filter", "d22", "--out", "x.csv"],
                monkeypatch, tmp_path)
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()
    assert "between 2 and 20" in capsys.readouterr().err
    assert run_cli(["filters", "--filter", "d20", "--out", "d20.csv"],
                   monkeypatch, tmp_path) == 0
    _, _, rows = read_table(tmp_path / "d20.csv")
    assert len(rows) == 22


def test_value_error_exit_code(tmp_path, monkeypatch, capsys):
    # momentum table with a negative point count fails validation, code 2
    code = run_cli(["kernel", "--points", "-3", "--out", "x.csv"],
                   monkeypatch, tmp_path)
    assert code == 2
    assert not (tmp_path / "x.csv").exists()
    assert capsys.readouterr().err.strip()


def test_spincorr_rejects_negative_depth(tmp_path, monkeypatch, capsys):
    code = run_cli(["spincorr", "--state", "renormalized", "--m", "-1",
                    "--filter", "d4", "--t3", "0.8", "--dmax", "2",
                    "--out", "x.csv"], monkeypatch, tmp_path)
    assert code == 2
    assert not (tmp_path / "x.csv").exists()
    assert "non-negative integer" in capsys.readouterr().err


def test_spincorr_rejects_options_it_does_not_read(tmp_path, monkeypatch):
    # the momentum grid and quadrature order are not spincorr inputs
    with pytest.raises(SystemExit) as exc:
        run_cli(["spincorr", "--kmax", "5", "--quad-order", "12",
                 "--points", "7", "--out", "x.csv"], monkeypatch, tmp_path)
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--state", "critical-limit", "--m", "5", "--mu0", "3", "--t3", "0.2",
     "--beta", "2", "--dmax", "2"],
    ["--state", "critical-limit", "--critical"],
    ["--state", "lattice", "--filter", "d4", "--dmax", "2"],
    ["--state", "lattice", "--beta0", "2", "--dmax", "2"],
    ["--state", "renormalized", "--filter", "d4", "--m", "2", "--mu0", "2"],
    ["--state", "massive-thermal", "--t3", "0.5", "--dmax", "2"],
    ["--state", "massive-thermal", "--critical", "--dmax", "2"],
    ["--state", "massive-thermal", "--m", "2", "--dmax", "2"],
    # a --sites product reads no table size and fits no exponent
    ["--state", "lattice", "--sites", "0,1", "--dmax", "50", "--check-exponent"],
    ["--state", "lattice", "--sites", "0,1", "--dmax", "2"],
])
def test_spincorr_rejects_flags_its_state_does_not_read(argv, tmp_path, monkeypatch,
                                                        capsys):
    # an unread flag away from its default would be recorded but change no row
    assert run_cli(["spincorr", *argv, "--out", "x.csv"], monkeypatch, tmp_path) == 2
    assert not (tmp_path / "x.csv").exists()
    assert "does not read" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--state", "lattice", "--t1", "2", "--t3", "1", "--beta", "3", "--dmax", "2"],
    ["--state", "lattice", "--critical", "--t1", "2", "--sites", "0,1"],
    ["--state", "renormalized", "--filter", "d4", "--m", "2", "--t3", "0.8",
     "--beta", "5", "--dmax", "8", "--check-exponent"],
    ["--state", "critical-limit", "--filter", "d4", "--dmax", "2"],
    ["--state", "massive-thermal", "--filter", "d4", "--mu0", "2", "--beta0", "3",
     "--t1", "1.5", "--sites", "0,1"],
])
def test_spincorr_accepts_every_flag_its_state_reads(argv, tmp_path, monkeypatch):
    assert run_cli(["spincorr", *argv, "--out", "x.csv"], monkeypatch, tmp_path) == 0


def test_spincorr_rejects_nonphysical_massive_state(tmp_path, monkeypatch,
                                                    capsys):
    # beta0 <= 0 or t = t1 <= 0 names no state: exit 2, no table
    for flags in (["--beta0", "-1"], ["--beta0", "0"], ["--t1", "-1"]):
        code = run_cli(["spincorr", "--filter", "d4", "--state",
                        "massive-thermal", "--dmax", "2", "--out", "x.csv",
                        *flags], monkeypatch, tmp_path)
        assert code == 2
        assert not (tmp_path / "x.csv").exists()
        assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # a flipped population, a non-positive velocity or a non-finite mass
    ["kernel", "--kind", "massive-thermal", "--beta0", "-1"],
    ["kernel", "--kind", "massive-thermal", "--t1", "-1"],
    ["kernel", "--kind", "massive-thermal", "--mu0", "nan"],
    ["spincorr", "--filter", "d4", "--state", "massive-thermal", "--mu0",
     "nan", "--dmax", "1"],
    # non-finite couplings or velocity: the symbol would carry inf/nan
    ["kernel", "--kind", "lattice", "--t1", "inf", "--points", "3",
     "--format", "json"],
    ["kernel", "--kind", "massive-thermal", "--t1", "inf", "--beta0", "2"],
    ["flow", "--filter", "haar", "--t1", "inf"],
    ["spincorr", "--state", "lattice", "--t3", "inf"],
    # a depth past the cap would sample about 2^m panels
    ["spincorr", "--state", "renormalized", "--m", "17"],
    # sizes that would give an empty, reversed or degenerate table
    ["spincorr", "--state", "lattice", "--dmax", "0"],
    ["spincorr", "--state", "lattice", "--dmax", "-2"],
    # a table past the string cap, rejected before any lag is read
    ["spincorr", "--state", "lattice", "--dmax", "65"],
    ["spincorr", "--state", "renormalized", "--m", "16", "--dmax", "100000"],
    ["kernel", "--kmax", "-1"],
    ["kernel", "--kmax", "0"],
    ["kernel", "--points", "0"],
])
def test_rejected_input_writes_no_file(argv, tmp_path, monkeypatch, capsys):
    assert run_cli(argv + ["--out", "x.csv"], monkeypatch, tmp_path) == 2
    assert not (tmp_path / "x.csv").exists()
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["oracle", "--m", "3"],
                                  ["filters", "--t1", "2"],
                                  ["kernel", "--filter", "d4"],
                                  ["verify", "--beta", "2"],
                                  ["flow", "--seed", "1"]])
def test_commands_accept_only_flags_they_read(argv, tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--out", "x.out"], monkeypatch, tmp_path)
    assert exc.value.code == 2
    assert not (tmp_path / "x.out").exists()


def test_absolute_out_ignores_outdir(tmp_path, monkeypatch):
    target = tmp_path / "abs" / "table.csv"
    target.parent.mkdir()
    assert run_cli(["filters", "--out", str(target)], monkeypatch,
                   tmp_path / "elsewhere") == 0
    assert target.exists()


# ---------------------------------------------------------------------------
# oracle fixtures and self-check


def test_oracle_fixture_export_matches_frozen(tmp_path, monkeypatch,
                                              oracle_fixtures):
    assert run_cli(["oracle", "--fixtures", "--out", "fix.json"],
                   monkeypatch, tmp_path) == 0
    payload = json.loads((tmp_path / "fix.json").read_text())
    assert set(payload) == {"version", "config", "fixtures"}
    got = payload["fixtures"]["partition"]
    want = oracle_fixtures["partition"]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g["M"], g["N"], g["K"]) == (w["M"], w["N"], w["K"])
        assert g["Z"] == pytest.approx(w["Z"], rel=1e-12)


SUITES = ("wavelet", "kernels", "rgflow", "correlators", "errorbounds", "oracle")


@pytest.mark.parametrize("suite", [*SUITES, "all"])
def test_verify_suite_passes(suite, tmp_path, monkeypatch, capsys):
    assert run_cli(["verify", "--suite", suite, "--out", "rep.json"],
                   monkeypatch, tmp_path) == 0
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["passed"] is True
    assert all(r["passed"] for r in report["records"])
    ran = list(dict.fromkeys(r["suite"] for r in report["records"]))
    assert ran == (list(SUITES) if suite == "all" else [suite])
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_rgflow_suite_passes(tmp_path, monkeypatch):
    assert run_cli(["verify", "--suite", "rgflow", "--out", "rep.json"],
                   monkeypatch, tmp_path) == 0
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["passed"] is True
    names = [r["name"] for r in report["records"]]
    assert "depth-0 transverse field 2/pi" in names
    assert "depth-0 determinism" not in names


def test_verify_corrupt_filter_fails(tmp_path, monkeypatch, capsys):
    code = run_cli(["verify", "--suite", "wavelet", "--corrupt-filter",
                    "--out", "rep.json"], monkeypatch, tmp_path)
    assert code == 1
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["passed"] is False
    failing = [r for r in report["records"] if not r["passed"]]
    assert failing
    # the broken invariant is named: scaled taps no longer sum to sqrt2
    assert any("sum" in r["detail"] for r in failing)
    assert "[FAIL]" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    # the scaled taps make the pairing quadrature move under panel doubling
    ["--suite", "errorbounds", "--corrupt-filter"],
    ["--corrupt-filter"],
    # the two-tap filter's weighted density does not decay on the window
    ["--suite", "errorbounds", "--filter", "haar"],
])
def test_verify_sweep_error_fails_its_record(argv, tmp_path, monkeypatch, capsys):
    code = run_cli(["verify", *argv, "--out", "rep.json"], monkeypatch, tmp_path)
    assert code == 1
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["passed"] is False
    [sweep] = [r for r in report["records"]
               if r["name"] == "empirical error within certified bound"]
    assert not sweep["passed"]
    assert ("OscillationResolutionError" in sweep["detail"]
            or "InadmissibleFilterError" in sweep["detail"])
    assert "bound sweep CSV emitted" not in [r["name"] for r in report["records"]]
    assert not list(tmp_path.glob("bound_sweep_*.csv"))
    assert "[FAIL] errorbounds" in capsys.readouterr().out
