"""CLI surface: subcommands, CSV format, determinism, exit codes."""

import csv
import hashlib
import io
import logging
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qbrown import cli, selftest
from qbrown.cli import COLUMNS, build_parser, main
from qbrown.coefficients import alpha_pair
from qbrown.core import StateError, SystemParams
from qbrown.diffusion import diffusion_constants, positivity_delta
from qbrown.grid import BoundaryMassWarning


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def fresh_env():
    """The environment of a fresh interpreter that imports the same qbrown
    the tests do."""
    root = str(Path(selftest.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [root] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


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

    @given(g=st.floats(0.2, 5.0), half=st.floats(0.05, 0.9), T=st.floats(0.05, 50.0),
           wc=st.one_of(st.just(math.inf), st.floats(2.0, 1e3)))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_sweep_rows_match_scalar_calls(self, g, half, T, wc, capsys):
        # the whole sweep is one batch; each row equals its own scalar call:
        # over- and underdamped rows and the critical omega0 = gamma row in
        # the middle, at finite and infinite cutoff
        argv = ["coeffs", "--sweep", f"omega0={g * (1 - half)!r}:{g * (1 + half)!r}",
                "--points", "11", "--gamma", repr(g), "--T", repr(T), "--omega-c", repr(wc)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        for r in rows:
            ab = alpha_pair(SystemParams(omega0=float(r[1]), T=T, gamma=g, omega_c=wc))
            assert r[2:] == ["%.17g" % v for v in (ab.alpha, ab.alpha_prime, ab.residual_imag)]

    def test_underflowing_omega0_gives_finite_rows(self, capsys):
        # omega0^2 (1e-200) or lambda1^2 (1e-100) underflows: alpha takes its
        # omega0 = 0 value 1 instead of 0/0.  Underdamped at omega0 = 1e-160,
        # |lambda1^2| is subnormal and a complex quotient by it would overflow
        for omega0, gamma in (("1e-200", "1"), ("1e-100", "1"), ("1e-160", "1e-161")):
            for cmd in ("coeffs", "diffusion"):
                code, out, _ = run_cli([cmd, "--omega0", omega0, "--gamma", gamma,
                                        "--sweep", "T=0.5:1", "--points", "2"], capsys)
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

    def test_bare_arithmetic_error_is_numerical_failure(self, capsys, monkeypatch):
        # gamma^2 - omega0^2 underflows, so alpha' divides by (lambda2 - lambda1)^2
        # = 0: NaN coefficients, reported as exit 2, not as a traceback
        code, out, err = run_cli(["moments", "--gamma", "1e-170", "--omega0", "2e-170",
                                  "--t-end", "0.1"], capsys)
        assert code == 2
        assert "numerical failure" in err and "Traceback" not in err
        assert out == ""
        # a bare ArithmeticError from a runner is a numerical failure too,
        # not Python's exit 1 (free-particle's polyfit raises one for real,
        # see TestFreeParticleCmd)
        def divide_by_zero(cfg):
            return 1.0 / 0.0

        monkeypatch.setitem(cli._RUNNERS, "moments", divide_by_zero)
        code, out, err = run_cli(["moments"], capsys)
        assert code == 2
        assert "numerical failure: ZeroDivisionError" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["--gamma", "1e-170", "--omega0", "2e-170", "--t-end", "0.1"],
        ["--points", "3", "--omega0", "7.612307035266722", "--gamma", "0.01601674243681294",
         "--T", "5.785746136932585e-309", "--hbar", "0.2815474720212982",
         "--kB", "1.0485253050864642"],
    ])
    def test_nonfinite_constants_fail_before_integrating(self, argv, capsys, monkeypatch):
        # non-finite diffusion constants exit 2 without running the RK4 loop
        calls = []
        monkeypatch.setattr(cli, "evolve_numeric", lambda *a, **kw: calls.append(a))
        code, out, err = run_cli(["moments"] + argv, capsys)
        assert calls == []
        assert code == 2
        assert "numerical failure: NonFiniteOutputError: diffusion constant" in err
        assert "Traceback" not in err and out == ""

    def test_overflowed_kernel_phase_is_numerical_failure(self, capsys):
        # hbar/(2 kB T) overflows, so exp(-2w) in the one-system x*coth(x)
        # kernel has an infinite phase: non-finite coefficients, exit 2, not
        # a ValueError traceback
        code, out, err = run_cli(
            ["moments", "--points", "3", "--omega0", "7.612307035266722",
             "--gamma", "0.01601674243681294", "--T", "5.785746136932585e-309",
             "--hbar", "0.2815474720212982", "--kB", "1.0485253050864642"], capsys)
        assert code == 2
        assert "numerical failure" in err and "Traceback" not in err
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

    def test_failed_slope_fit_is_numerical_failure(self, capsys):
        # the slope fit's times, 50/gamma..100/gamma, are ~1e-298: its
        # column scaling underflows to 0 and divides by it
        code, out, err = run_cli(["free-particle", "--gamma", "1e300"], capsys)
        assert code == 2
        assert "numerical failure: FloatingPointError" in err
        assert out == ""


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
        assert "steps=" in err and " dt=" in err and " K=" in err
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
        (["--L", "-1"], "--L"),                  # not silently the automatic box
        (["--L", "nan"], "--L"),
        (["--L", "inf"], "--L"),
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


def reference_csv(command, meta, rows):
    """The CSV text by the per-value rule that the row template replaced: a
    bool as true/false, a float of either kind as %.17g, anything else as str."""
    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (float, np.floating)):
            return "%.17g" % v
        return str(v)

    lines = [f"# qbrown {command} {meta}", ",".join(COLUMNS[command])]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return "".join(line + "\r\n" for line in lines)


@pytest.fixture
def emitted(monkeypatch):
    """The (command, meta, rows) of every table the CLI emits."""
    calls = []
    real = cli._emit

    def spy(cfg, meta, rows, xlabel=""):
        calls.append((cfg.command, meta, list(rows)))
        return real(cfg, meta, rows, xlabel)

    monkeypatch.setattr(cli, "_emit", spy)
    return calls


GRID_SMALL = ["grid-validate", "--omega0", "2", "--T", "2", "--N", "96", "--t-end", "0.3",
              "--sample-every", "50"]


class TestEmission:
    @pytest.mark.parametrize("argv", [
        ["coeffs", "--sweep", "omega0=0.5:1.5", "--points", "11", "--omega-c", "40"],
        # sweep values and results with exponents near +-300
        ["coeffs", "--sweep", "T=1e-300:1e300:log", "--points", "9"],
        ["diffusion", "--sweep", "T=1e-300:1e300:log", "--points", "9"],
        ["tc-curve", "--omega0-over-gamma", "0.01:10", "--points", "5"],
        # a single-row table
        ["equilibrium", "--gamma-over-omega0", "0.25", "--T", "200:400", "--points", "1"],
        ["moments", "--t-end", "1", "--points", "5"],
        ["free-particle"],             # np.float64 and float cells in one column
        GRID_SMALL,
    ])
    def test_bytes_match_per_value_join(self, argv, emitted, capsys, tmp_path):
        out = tmp_path / "out.csv"
        code, _, _ = run_cli(argv + ["--out", str(out)], capsys)
        assert code == 0
        (command, meta, rows), = emitted
        assert out.read_bytes() == reference_csv(command, meta, rows).encode()
        if command == "diffusion":
            assert {r[-1] for r in rows} == {"true", "false"}

    def test_edge_cells(self, capsys, tmp_path):
        rows = [("a", np.float64(1e-300), -0.0, 1.7976931348623157e308),
                ("b", 5e-324, np.float64(-0.0), np.float64(-2.5e-308)),
                ("c", 1.0, np.float64(3.0), -1e300)]
        for table in (rows, rows[:1]):
            path = tmp_path / f"{len(table)}.csv"
            cli._emit(cli.RunConfig("free-particle", out=str(path)), "m=1", table)
            assert path.read_bytes() == reference_csv("free-particle", "m=1", table).encode()
        cli._emit(cli.RunConfig("free-particle"), "m=1", rows)
        assert capsys.readouterr().out == reference_csv("free-particle", "m=1", rows)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    def test_non_finite_row_raises_and_writes_nothing(self, bad, capsys, tmp_path):
        rows = [(0.5, 0.4), (1.0, bad), (2.0, 0.3)]
        path = tmp_path / "tc.csv"
        for out in (str(path), None):
            with pytest.raises(cli.NonFiniteOutputError) as info:
                cli._emit(cli.RunConfig("tc-curve", out=out), "m=1", rows)
            assert str(info.value) == f"kBTc_over_hbar_gamma = {'%.17g' % bad} in data row 2"
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().out == ""


def _numpy_rounding() -> str:
    """SHA-256 of numpy's real and complex exp, complex product and complex
    quotient over a fixed grid: which loops this CPU and numpy build round
    with.  numpy's real exp has its own AVX512F loop and other CPUs take
    libm's, which rounds ~5% of these arguments differently."""
    x = -np.linspace(0.0, 40.0, 20001)
    z = x[:, None] * np.array([1.0, 0.6 + 0.8j])[None]
    parts = (np.exp(x), np.exp(z), z * z, 1.0 / (z + 1e-3))
    return hashlib.sha256(b"".join(v.tobytes() for v in parts)).hexdigest()


# the coeffs and diffusion digests were taken where this fingerprint reads
# dcba0e73...: numpy 2.4.6 on an x86-64 CPU with AVX512F (numpy dispatches
# its AVX512_SPR loops there)
TAKEN_ROUNDING = pytest.mark.skipif(
    _numpy_rounding() != "dcba0e73f1b41e9754e1459423320d6100e48482f82eb4fb8fe58a16d523c080",
    reason="numpy rounds exp or complex arithmetic differently from where the digest was "
           "taken (numpy 2.4.6, AVX512F); TestHighPrecisionReference checks the rows")


class TestGoldenBytes:
    """SHA-256 of whole CSV files.  The tc-curve digest predates the kernel's
    move to real and then to numpy's own arithmetic, neither of which moved
    one bit of it.  The coeffs and diffusion digests were re-derived at that
    second move, after every row that changed had matched an mpmath
    evaluation of the closed forms to 1e-10.  numpy's exp and complex loops
    round the last digit, so those four hold only where numpy rounds as it
    did when they were taken (``TAKEN_ROUNDING``); elsewhere they skip, and
    the mpmath checks of test_coefficients stay the portable guard."""

    @pytest.mark.parametrize("argv, digest", [
        (["tc-curve", "--omega0-over-gamma", "0.001:100", "--points", "200"],
         "aa80cf6c722a47263c034dac9cedecab11dd12365d3bd904afb7c96ff258a8d6"),
        pytest.param(
            ["coeffs", "--omega0", "2", "--sweep", "T=0.01:1000:log", "--points", "101"],
            "273bead40495a628b99d7f29feb33d8bc75fa315df231d2746cf10ab34f68702",
            marks=TAKEN_ROUNDING),
        pytest.param(
            ["coeffs", "--omega0", "2", "--omega-c", "30", "--sweep", "T=0.01:1000:log",
             "--points", "101"],
            "cb7c48a6161165645c39c749dce1af3d4dacdcf5ab02ed0dc1ecad3fb75d2ff3",
            marks=TAKEN_ROUNDING),
        pytest.param(
            ["diffusion", "--omega0", "0.5", "--sweep", "T=0.01:1000:log", "--points", "101"],
            "567ea078ef390daeecfba648e3201ad94570da6dcea3a434a3f497c203778116",
            marks=TAKEN_ROUNDING),
        pytest.param(
            ["diffusion", "--omega0", "0.5", "--omega-c", "30", "--sweep", "T=0.01:1000:log",
             "--points", "101"],
            "f7b9b4bc6c4464b8dac48b147c6eb2bc7a7f106ea0165b60b669a81ccf9a2f97",
            marks=TAKEN_ROUNDING),
    ])
    def test_sha256(self, argv, digest, capsys, tmp_path):
        out = tmp_path / "out.csv"
        code, _, _ = run_cli(argv + ["--out", str(out)], capsys)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestUnwritableOutput:
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    @pytest.mark.parametrize("argv, flag", [
        (["coeffs", "--points", "2"], "--out"),
        (["tc-curve", "--points", "2"], "--out"),
        (GRID_SMALL, "--snapshot-out"),
    ])
    def test_configuration_error(self, argv, flag, where, capsys, tmp_path):
        path = tmp_path / "no-such-dir" / "x.csv" if where == "missing-directory" else tmp_path
        code, _, err = run_cli(argv + [flag, str(path)], capsys)
        assert code == 1
        assert err.startswith(f"qbrown: configuration error: {flag}: cannot write ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_snapshot_fails_before_the_evolution(self, where, monkeypatch, capsys, tmp_path):
        def never(*args, **kwargs):
            raise AssertionError("grid evolved before --snapshot-out was opened")

        monkeypatch.setattr(cli, "grid_evolve", never)
        path = tmp_path / "no-such-dir" / "x.csv" if where == "missing-directory" else tmp_path
        out = tmp_path / "out.csv"
        code, _, err = run_cli(GRID_SMALL + ["--out", str(out), "--snapshot-out", str(path)],
                               capsys)
        assert code == 1
        assert err.startswith("qbrown: configuration error: --snapshot-out: cannot write ")
        assert not out.exists()

    def test_failed_run_removes_the_snapshot(self, monkeypatch, capsys, tmp_path):
        def fail(*args, **kwargs):
            raise StateError("grid failed")

        monkeypatch.setattr(cli, "grid_evolve", fail)
        snap = tmp_path / "rho.csv"
        code, _, err = run_cli(GRID_SMALL + ["--snapshot-out", str(snap)], capsys)
        assert code == 2 and "StateError: grid failed" in err
        assert list(tmp_path.iterdir()) == []


class TestParserReuse:
    def test_no_option_carries_over(self, capsys, tmp_path):
        # every call after the first reuses the parser; each must write what
        # a fresh process writes, with no value left from an earlier call,
        # even a flag (--omega-c) that the later subcommand does not have
        first = tmp_path / "first.csv"
        assert main(["coeffs", "--omega0", "3", "--omega-c", "40", "--sweep", "T=1:2",
                     "--points", "4", "--out", str(first)]) == 0
        # argparse fails after it has read --omega0
        assert main(["coeffs", "--omega0", "5", "--points", "nope"]) == 1
        later = [["equilibrium", "--gamma-over-omega0", "0.25", "--T", "200:400",
                  "--points", "1"],
                 ["coeffs", "--points", "4"]]
        code = "import sys; from qbrown.cli import main; sys.exit(main(sys.argv[1:]))"
        for k, argv in enumerate(later):
            reused, fresh = tmp_path / f"reused{k}.csv", tmp_path / f"fresh{k}.csv"
            assert main(argv + ["--out", str(reused)]) == 0
            proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(fresh)],
                                  env=fresh_env(), capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            assert reused.read_bytes() == fresh.read_bytes() != first.read_bytes()
        capsys.readouterr()

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()


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
        ["tc-curve", "--points", "1"],
    ])
    def test_exit_1(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert "configuration error" in err
        assert out == ""

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

    def test_checks_survive_optimize_flag(self):
        # python -O strips assert statements; a wrong pinned constant must
        # still fail the run
        code = ("import sys; from qbrown import selftest; "
                "selftest.PINNED_ALPHA = 0.5; sys.exit(selftest.run_selftest())")
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=fresh_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "FAIL pinned alpha, alpha'" in proc.stdout
