"""CLI surface: subcommands, CSV format, determinism, exit codes."""

import csv
import io
import logging
import math
import time

import pytest

from qbrown import selftest
from qbrown.cli import COLUMNS, build_parser, main
from qbrown.coefficients import alpha_pair
from qbrown.core import SystemParams
from qbrown.diffusion import diffusion_constants, positivity_delta
from qbrown.grid import BoundaryMassWarning


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    # splitlines: stdout keeps the CRLF row endings, Path.read_text normalizes
    lines = [ln for ln in text.splitlines() if ln]
    assert lines[0].startswith("# qbrown ")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return lines[0], rows[0], rows[1:]


class TestCoeffs:
    def test_default_sweep(self, capsys):
        code, out, _ = run_cli(["coeffs", "--points", "7"], capsys)
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == COLUMNS["coeffs"]
        assert len(rows) == 7
        assert rows[0][0] == "T"
        assert "hbar=1" in meta and "gamma=1" in meta
        # alpha' decreases toward high T
        assert float(rows[0][3]) > float(rows[-1][3])

    def test_sweep_other_variable(self, capsys):
        code, out, _ = run_cli(
            ["coeffs", "--sweep", "omega0=0.5:4", "--points", "5", "--T", "2"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert rows[0][0] == "omega0"
        assert float(rows[0][1]) == 0.5 and float(rows[-1][1]) == 4.0

    def test_sweep_rows_match_scalar_calls(self, capsys):
        # the whole sweep is one batch; each row equals its own scalar call,
        # the critical omega0 = gamma row included
        code, out, _ = run_cli(
            ["coeffs", "--sweep", "omega0=0.5:1.5", "--points", "11", "--T", "0.7",
             "--omega-c", "40"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        for r in rows:
            ab = alpha_pair(SystemParams(omega0=float(r[1]), T=0.7, omega_c=40.0))
            assert r[2:] == ["%.17g" % v for v in (ab.alpha, ab.alpha_prime, ab.residual_imag)]

    def test_underflowing_omega0_gives_finite_rows(self, capsys):
        # omega0^2 (1e-200) or lambda1^2 (1e-100) underflows: alpha takes its
        # omega0 = 0 value 1 instead of 0/0
        for omega0 in ("1e-200", "1e-100"):
            for cmd in ("coeffs", "diffusion"):
                code, out, _ = run_cli([cmd, "--omega0", omega0, "--sweep", "T=0.5:1",
                                        "--points", "2"], capsys)
                assert code == 0
                _, _, rows = parse_csv(out)
                assert all(math.isfinite(float(v)) for r in rows for v in r[2:6])
                if cmd == "coeffs":
                    assert [r[2] for r in rows] == ["1", "1"]

    def test_zero_temperature_is_numerical_failure(self, capsys):
        # sweep another variable so the fixed T=0 actually reaches the kernel
        code, _, err = run_cli(
            ["coeffs", "--sweep", "omega0=1:2", "--T", "0"], capsys)
        assert code == 2
        assert "numerical failure" in err and "Temperature" in err


class TestDiffusionCmd:
    def test_columns_and_positivity_flag(self, capsys):
        code, out, _ = run_cli(
            ["diffusion", "--sweep", "T=0.1:100:log", "--points", "9"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == COLUMNS["diffusion"]
        assert rows[0][6] == "false"    # below breakdown at T = 0.1
        assert rows[-1][6] == "true"    # high T is positive

    def test_sweep_rows_match_scalar_calls(self, capsys):
        code, out, _ = run_cli(
            ["diffusion", "--sweep", "M=0.5:2", "--points", "4", "--T", "0.45"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        for r in rows:
            p = SystemParams(omega0=1.0, T=0.45, M=float(r[1]))
            d = diffusion_constants(p)
            rep = positivity_delta(d)
            assert r[2:6] == ["%.17g" % v for v in (d.Dpp, d.Dqq, d.Dpq, rep.delta)]
            assert r[6] == ("true" if rep.positive else "false")


class TestTcCurve:
    def test_first_row_matches_anchor(self, capsys, tmp_path):
        out_path = tmp_path / "tc.csv"
        code, _, _ = run_cli(["tc-curve", "--omega0-over-gamma", "1e-3:1e2",
                              "--points", "24", "--out", str(out_path)], capsys)
        assert code == 0
        meta, header, rows = parse_csv(out_path.read_text())
        assert header == COLUMNS["tc-curve"]
        assert float(rows[0][0]) == pytest.approx(1e-3)
        assert float(rows[0][1]) == pytest.approx(0.4, abs=0.05)
        # plot sidecar emitted next to the CSV
        sidecar = tmp_path / "tc.csv.plot.py"
        assert sidecar.exists()
        assert "matplotlib" in sidecar.read_text()

    def test_debug_logging_leaves_csv_unchanged(self, capsys, caplog, tmp_path):
        argv = ["tc-curve", "--omega0-over-gamma", "0.5:2", "--points", "3"]
        _, quiet, _ = run_cli(argv, capsys)
        with caplog.at_level(logging.DEBUG, logger="qbrown"):
            _, loud, _ = run_cli(argv, capsys)
        assert loud == quiet
        assert any("scan crossing index" in r.getMessage() for r in caplog.records)

    def test_byte_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(["tc-curve", "--omega0-over-gamma", "0.01:10",
                                  "--points", "8", "--out", str(path)], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestEquilibriumCmd:
    def test_gap_closes_at_high_t(self, capsys):
        code, out, _ = run_cli(
            ["equilibrium", "--gamma-over-omega0", "2", "--T", "0.7:20:log",
             "--points", "6"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == COLUMNS["equilibrium"]
        pot_gaps = [abs(float(r[5])) for r in rows]
        assert pot_gaps[-1] < 0.01
        assert pot_gaps[-1] < pot_gaps[0]
        # energies approach kB*T/2 at the top of the range
        T, pot, kin = (float(rows[-1][i]) for i in (0, 1, 2))
        assert pot == pytest.approx(T / 2.0, rel=0.05)
        assert kin == pytest.approx(T / 2.0, rel=0.05)

    def test_meta_records_oracle_cutoff(self, capsys):
        # the oracle's default Drude cutoff 1e3*max(gamma, omega0): gamma/omega0
        # = 0.25 gives omega0 = 4 and omega_c = 4000
        code, out, _ = run_cli(
            ["equilibrium", "--gamma-over-omega0", "0.25", "--T", "200:400", "--points", "1"],
            capsys)
        assert code == 0
        meta, _, _ = parse_csv(out)
        assert meta.endswith(" omega0=4 gamma=1 M=1 hbar=1 kB=1 omega_c=4000")


class TestMomentsCmd:
    def test_analytic_and_numeric_agree(self, capsys):
        code, out, _ = run_cli(
            ["moments", "--omega0", "2", "--T", "1", "--q2", "1.5", "--p2", "0.8",
             "--qp", "0.1", "--t-end", "2", "--points", "10"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == COLUMNS["moments"]
        assert float(rows[0][0]) == 0.0
        for r in rows:
            assert float(r[1]) == pytest.approx(float(r[4]), rel=1e-6, abs=1e-9)
            assert float(r[2]) == pytest.approx(float(r[5]), rel=1e-6, abs=1e-9)

    def test_seventeen_digit_roundtrip(self, capsys):
        code, out, _ = run_cli(["moments", "--t-end", "0.5", "--points", "3"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        v = rows[1][1]
        assert float(v) == float(repr(float(v)))  # full precision survives

    def test_tiny_omega0_analytic_matches_numeric(self, capsys):
        # omega0 = 1e-8: the modal solve wrote q2_analytic = 2, 4, 4, 4 here
        code, out, _ = run_cli(["moments", "--omega0", "1e-8", "--T", "1", "--t-end", "1",
                                "--points", "4"], capsys)
        assert code == 0
        rows = [[float(v) for v in r] for r in parse_csv(out)[2]]
        assert len(rows) == 5
        for r in rows:
            scale = max(abs(v) for v in r[1:4])
            assert max(abs(r[i] - r[i + 3]) for i in (1, 2, 3)) <= 1e-6 * scale

    @pytest.mark.parametrize("flags, what", [
        (["--t-end", "-1"], "--t-end"),
        (["--t-end", "inf"], "--t-end"),
        (["--t-end", "nan"], "--t-end"),
        (["--dt", "-0.1"], "--dt"),
        (["--dt", "inf"], "--dt"),
        # above the accuracy bound 0.01/max(gamma, omega0)
        (["--dt", "0.5"], "--dt"),
        # ~1e10 RK4 steps
        (["--dt", "1e-9", "--points", "3"], "--dt"),
    ])
    def test_invalid_time_is_configuration_error(self, flags, what, capsys, tmp_path):
        out = tmp_path / "moments.csv"
        t0 = time.perf_counter()
        code, _, err = run_cli(["moments", "--out", str(out)] + flags, capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert f"configuration error: {what}" in err
        assert not out.exists()

    def test_zero_time_options_mean_default(self, capsys):
        code, out, _ = run_cli(["moments", "--t-end", "0", "--dt", "0", "--points", "4"],
                               capsys)
        assert code == 0
        rows = parse_csv(out)[2]
        assert float(rows[-1][0]) == pytest.approx(10.0)  # 10/gamma

    def test_bare_arithmetic_error_is_numerical_failure(self, capsys):
        # gamma^2 - omega0^2 underflows, so alpha' divides by (lambda2 - lambda1)^2
        # = 0: a ZeroDivisionError, reported as exit 2, not as a traceback and
        # Python's exit 1
        code, out, err = run_cli(["moments", "--gamma", "1e-170", "--omega0", "2e-170",
                                  "--t-end", "0.1"], capsys)
        assert code == 2
        assert "numerical failure: ZeroDivisionError" in err
        assert out == ""


class TestFreeParticleCmd:
    def test_table(self, capsys):
        code, out, _ = run_cli(["free-particle", "--gamma", "1", "--T", "1"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == COLUMNS["free-particle"]
        table = {r[0]: (float(r[1]), float(r[2]), float(r[3])) for r in rows}
        val, ref, gap = table["p2_longtime"]
        assert ref == pytest.approx(1.3130352854993313, rel=1e-12)
        assert abs(gap) < 1e-3
        # exact at omega0 = 0: the Richardson extrapolation left a 9.4e-5 gap
        assert abs(table["q2_slope"][2]) < 1e-12
        assert abs(table["alpha_limit"][2]) < 1e-6
        assert abs(table["alpha_prime_limit"][2]) < 1e-6


class TestGridValidateCmd:
    def test_small_run_tracks(self, capsys, tmp_path):
        snap = tmp_path / "rho.csv"
        code, out, err = run_cli(
            ["grid-validate", "--omega0", "2", "--T", "2", "--N", "96",
             "--t-end", "0.3", "--sample-every", "50",
             "--snapshot-out", str(snap)], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == COLUMNS["grid-validate"]
        for r in rows:
            assert float(r[1]) == pytest.approx(float(r[2]), rel=0.01)
            assert float(r[3]) == pytest.approx(float(r[4]), rel=0.01)
            assert float(r[7]) == pytest.approx(1.0, abs=1e-6)
            assert float(r[8]) < 1e-9
        assert "grid-validate: worst moment gap" in err
        # the step plan is reported on stderr, not in the CSV
        assert "steps=" in err and " dt=" in err
        assert "steps" not in out
        assert snap.exists()
        first = snap.read_text().splitlines()[0]
        assert first.startswith("# N=96")

    def test_coarse_grid_is_numerical_failure(self, capsys):
        # N=8 leaves the box and misses the moments by ~160%: the CSV is still
        # written for inspection, but the run exits 2
        with pytest.warns(BoundaryMassWarning):
            code, out, err = run_cli(["grid-validate", "--N", "8"], capsys)
        assert code == 2
        assert len(parse_csv(out)[2]) > 0
        assert "numerical failure: GridToleranceError" in err
        assert "moment gap" in err and "boundary" in err

    @pytest.mark.parametrize("flags, what", [
        (["--N", "1"], "--N"),                   # narrower than the 5-point stencil
        (["--sample-every", "0"], "--sample-every"),
        (["--t-end", "-1"], "--t-end"),
        (["--t-end", "inf"], "--t-end"),
    ])
    def test_invalid_option_is_configuration_error(self, flags, what, capsys, tmp_path):
        out = tmp_path / "grid.csv"
        code, _, err = run_cli(["grid-validate", "--out", str(out)] + flags, capsys)
        assert code == 1
        assert f"configuration error: {what}" in err
        assert not out.exists()


class TestNonFiniteOutput:
    @pytest.mark.parametrize("argv, column", [
        # at T = 1e-300 <p^2>, the slope and alpha come out nan or inf
        (["free-particle", "--T", "1e-300"], "value"),
        # gamma^2 - omega0^2 underflows, so lambda2 - lambda1 = 0 off the
        # critical band
        (["coeffs", "--gamma", "1e-170", "--omega0", "2e-170", "--sweep", "T=0.5:1",
          "--points", "2"], "alpha_prime"),
        # 1/M = 1e300 overflows the moment matrix products
        (["moments", "--M", "1e-300", "--t-end", "0.1"], "q2_analytic"),
    ])
    def test_exit_2_without_csv(self, argv, column, capsys, tmp_path):
        out_file = tmp_path / "out.csv"
        code, out, err = run_cli(argv + ["--out", str(out_file)], capsys)
        assert code == 2
        assert f"numerical failure: NonFiniteOutputError: {column} = " in err
        assert not out_file.exists() and out == ""


class TestConfigErrors:
    @pytest.mark.parametrize("argv", [
        ["coeffs", "--sweep", "bogus"],
        ["coeffs", "--sweep", "T=5:1"],
        ["coeffs", "--points", "0"],
        ["tc-curve", "--omega0-over-gamma", "nope"],
        ["equilibrium", "--gamma-over-omega0", "-1"],
        ["coeffs", "--gamma", "-2"],
        ["no-such-command"],
        # non-finite values, fixed or swept, are configuration errors
        ["moments", "--T", "inf"],
        ["moments", "--omega0", "nan"],
        ["coeffs", "--omega0", "nan"],
        ["diffusion", "--sweep", "T=0.1:inf"],
        ["diffusion", "--sweep", "omega0=-1:1"],
        ["tc-curve", "--omega0-over-gamma", "1e-3:inf"],
        ["tc-curve", "--omega0-over-gamma", "0:1"],
        ["tc-curve", "--hbar", "inf"],
        ["equilibrium", "--gamma-over-omega0", "nan"],
        ["equilibrium", "--T", "1:inf"],
    ])
    def test_exit_1(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert "configuration error" in err

    def test_help_lists_columns(self):
        # emitted headers are documented verbatim in --help
        parser = build_parser()
        for cmd, cols in COLUMNS.items():
            sub = next(a for a in parser._subparsers._group_actions[0].choices.items()
                       if a[0] == cmd)[1]
            assert "columns: " + ",".join(cols) in sub.description


class TestSelftestCmd:
    def test_passes_on_clean_checkout(self, capsys):
        code, out, _ = run_cli(["selftest"], capsys)
        assert code == 0
        assert "all 4 checks passed" in out
        assert out.count("ok   ") == 4

    def test_failure_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(selftest, "PINNED_ALPHA", selftest.PINNED_ALPHA + 1e-9)
        code, out, _ = run_cli(["selftest"], capsys)
        assert code == 2
        assert "FAIL pinned alpha, alpha'" in out
        assert "selftest: 1/4 checks failed" in out
