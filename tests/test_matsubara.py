"""Matsubara-sum equilibrium reference values."""

import itertools
import math
import warnings

import numpy as np
import pytest

from qbrown.cli import main
from qbrown.core import SystemParams, TemperatureError
from qbrown.diffusion import breakdown_temperature, diffusion_constants
from qbrown.dynamics import equilibrium_moments
from qbrown.matsubara import (
    CutoffSensitivityWarning,
    MatsubaraConfig,
    _digamma,
    drude_friction,
    matsubara_p2,
    matsubara_q2,
)


# (M, hbar, kB): the default units and a set where each enters
UNITS = [(1.0, 1.0, 1.0), (1.7, 0.6, 1.3)]


def isolated_q2(omega0, T, M=1.0, hbar=1.0, kB=1.0):
    """Brute-force oracle: undamped oscillator (hbar/2 M omega0) coth(hbar omega0/2 kB T)."""
    x = hbar * omega0 / (2.0 * kB * T)
    return hbar / (2.0 * M * omega0) / math.tanh(x)


def brute_force_sum(p, wc, kind, n_max=10 ** 5):
    """The two-sided Matsubara sum term by term over |n| <= n_max, plus the
    Euler-Maclaurin estimate of the |n| > n_max remainder (M = hbar = kB = 1).

    The remainder expands the summand in 1/nu with a = omega0^2 + 2 gamma wc
    and b = 2 gamma wc^2: q2 terms go as nu^-2 - a nu^-4 + b nu^-5, p2 terms
    as a nu^-2 - b nu^-3 + (2 gamma wc^3 - a^2) nu^-4.  It holds only where
    n_max*nu1 is far above wc.
    """
    nu1 = 2.0 * math.pi * p.T
    assert n_max * nu1 > 100.0 * wc, "remainder expansion invalid"
    w2 = p.omega0 ** 2
    nu = nu1 * np.abs(np.arange(-n_max, n_max + 1, dtype=float))
    nug = nu * drude_friction(nu, p.gamma, wc)
    den = w2 + nu * nu + nug
    N = float(n_max)
    zeta2 = 1.0 / N - 1.0 / (2.0 * N * N) + 1.0 / (6.0 * N ** 3)
    zeta3 = 1.0 / (2.0 * N * N) - 1.0 / (2.0 * N ** 3) + 1.0 / (4.0 * N ** 4)
    zeta4 = 1.0 / (3.0 * N ** 3) - 1.0 / (2.0 * N ** 4) + 1.0 / (3.0 * N ** 5)
    zeta5 = 1.0 / (4.0 * N ** 4) - 1.0 / (2.0 * N ** 5) + 5.0 / (12.0 * N ** 6)
    a = w2 + 2.0 * p.gamma * wc
    b = 2.0 * p.gamma * wc * wc
    if kind == "q2":
        tail = zeta2 / nu1 ** 2 - a * zeta4 / nu1 ** 4 + b * zeta5 / nu1 ** 5
        return p.T * (float(np.sum(1.0 / den)) + 2.0 * tail)
    tail = (a * zeta2 / nu1 ** 2 - b * zeta3 / nu1 ** 3
            + (2.0 * p.gamma * wc ** 3 - a * a) * zeta4 / nu1 ** 4)
    return p.T * (float(np.sum((w2 + nug) / den)) + 2.0 * tail)


def mp_reference(omega0, T, gamma=1.0, wc=None):
    """<q^2>, <p^2> (M = hbar = kB = 1) from 30-digit mpmath: the same
    partial-fraction/digamma closed form as the library, with mpmath's roots
    and digamma.  <q^2> is None at omega0 = 0."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        w2, g, T = mp.mpf(omega0) ** 2, mp.mpf(gamma), mp.mpf(T)
        wc = 1000 * max(g, mp.mpf(omega0)) if wc is None else mp.mpf(wc)
        nu1 = 2 * mp.pi * T
        roots = mp.polyroots([1, wc, w2 + 2 * g * wc, w2 * wc], maxsteps=400, extraprec=120)

        def folded(num):
            total = mp.mpf(0)
            for r in roots:
                dP = 3 * r * r + 2 * wc * r + w2 + 2 * g * wc
                total += num(r) / dP * mp.digamma(1 - r / nu1)
            return -mp.re(total) / nu1

        q2 = None if omega0 == 0 else float(T * (1 / w2 + 2 * folded(lambda z: z + wc)))
        p2 = float(T * (1 + 2 * folded(lambda z: w2 * (z + wc) + 2 * g * wc * z)))
        return q2, p2


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MatsubaraConfig(drude_cutoff=math.inf)
        with pytest.raises(ValueError):
            MatsubaraConfig(drude_cutoff=-1.0)

    def test_default_cutoff_tracks_scales(self):
        c = MatsubaraConfig()
        assert c.cutoff_for(SystemParams(omega0=50.0, T=1.0)) == 5e4
        assert c.cutoff_for(SystemParams(omega0=0.1, T=1.0, gamma=2.0)) == 2e3

    def test_friction_convention(self):
        # gamma_hat(0) = 2*gamma (classical q'' + 2 gamma q' + omega0^2 q = 0)
        assert drude_friction(np.array([0.0]), 1.5, 100.0)[0] == 3.0


class TestQ2:
    def test_classical_equipartition(self):
        p = SystemParams(omega0=1.0, T=100.0, gamma=0.01)
        assert matsubara_q2(p) == pytest.approx(100.0, rel=0.01)

    def test_isolated_oscillator_limit(self):
        for (M, hbar, kB), T in itertools.product(UNITS, (0.3, 1.0, 3.0)):
            p = SystemParams(omega0=1.0, T=T, gamma=1e-6, M=M, hbar=hbar, kB=kB)
            assert matsubara_q2(p) == pytest.approx(isolated_q2(1.0, T, M, hbar, kB), rel=1e-4)

    def test_requires_positive_t_and_omega0(self):
        with pytest.raises(TemperatureError):
            matsubara_q2(SystemParams(omega0=1.0, T=0.0))
        with pytest.raises(ValueError):
            matsubara_q2(SystemParams(omega0=0.0, T=1.0))

    def test_matches_master_equation_above_tc(self):
        for ratio in (100.0, 0.5):   # gamma/omega0 = 0.01 and 2
            tc = breakdown_temperature(ratio)
            for fac in (1.2, 3.0, 10.0):
                p = SystemParams(omega0=ratio, T=fac * tc)
                eq = equilibrium_moments(p, diffusion_constants(p))
                assert matsubara_q2(p) == pytest.approx(eq.q2, rel=0.05)

    def test_folded_equals_two_sided(self):
        # the closed form against the brute-force two-sided sum
        p = SystemParams(omega0=1.3, T=0.9, gamma=0.7)
        wc = 1e3 * 1.3
        assert matsubara_q2(p) == pytest.approx(brute_force_sum(p, wc, "q2"), rel=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffSensitivityWarning)
            p2 = matsubara_p2(p)
        assert p2 == pytest.approx(brute_force_sum(p, wc, "p2"), rel=1e-12)

    def test_increasing_in_temperature(self):
        p0 = SystemParams(omega0=1.0, T=1.0, gamma=0.8)
        vals = [matsubara_q2(SystemParams(omega0=1.0, T=T, gamma=0.8))
                for T in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestP2:
    def test_classical_equipartition(self):
        p = SystemParams(omega0=1.0, T=100.0, gamma=0.01)
        assert matsubara_p2(p) == pytest.approx(100.0, rel=0.01)

    def test_isolated_oscillator_limit(self):
        for (M, hbar, kB), T in itertools.product(UNITS, (0.3, 1.0, 3.0)):
            p = SystemParams(omega0=1.0, T=T, gamma=1e-6, M=M, hbar=hbar, kB=kB)
            # <p^2> = M^2 omega0^2 <q^2> for the undamped oscillator
            assert matsubara_p2(p) == pytest.approx(M * M * isolated_q2(1.0, T, M, hbar, kB),
                                                    rel=1e-3)

    def test_increasing_in_temperature(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vals = [matsubara_p2(SystemParams(omega0=1.0, T=T, gamma=0.8))
                    for T in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_cutoff_sensitivity_warned_at_low_t(self):
        # the log(omega_c) weight in <p^2> is a real physical sensitivity
        p = SystemParams(omega0=0.5, T=0.6)
        with pytest.warns(CutoffSensitivityWarning):
            matsubara_p2(p)

    def test_cutoff_insensitive_at_high_t(self):
        p = SystemParams(omega0=1.0, T=300.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CutoffSensitivityWarning)
            matsubara_p2(p)

    def test_matches_master_equation_at_high_t(self):
        # the kinetic comparison carries the cutoff log; gap < 5% only well
        # above breakdown, decreasing with T (see the acceptance analysis)
        for ratio in (100.0, 0.5):
            tc = breakdown_temperature(ratio)
            gaps = []
            for fac in (40.0, 80.0, 160.0):
                p = SystemParams(omega0=ratio, T=fac * tc)
                eq = equilibrium_moments(p, diffusion_constants(p))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    gaps.append(abs(eq.p2 / matsubara_p2(p) - 1.0))
            assert gaps[-1] < 0.05
            assert gaps[0] > gaps[1] > gaps[2]


class TestClosedForm:
    def test_digamma_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        re = [0.3, 1.0, 1.4616321449683622, 2.5, 7.9, 11.99, 12.0, 40.0, 1e3, 1e6]
        im = [0.0, 1e-3, 0.7, -5.0, 30.0, -2e4]
        z = np.array([complex(x, y) for x in re for y in im])
        got = _digamma(z)
        for zi, gi in zip(z, got):
            ref = complex(mp.digamma(mp.mpc(zi)))
            assert abs(gi - ref) <= 1e-14 * max(1.0, abs(ref)), zi

    def test_mpmath_grid(self):
        # (omega0, gamma, Drude cutoff or None for the default 1e3*max(gamma, omega0))
        systems = [(100.0, 1.0, None), (0.5, 1.0, None), (0.01, 1.0, None),  # gamma/omega0
                   (1.0, 1.0, None), (1.0 - 1e-6, 1.0, None),                 # critical
                   (1.0, 1.0, 1e5),                                            # wc/omega0 = 1e5
                   (0.0, 1.0, None), (0.0, 0.3, 50.0)]                         # free particle
        systems += [(w0, 1.0, wc) for wc in (2.05, 4.0, 10.0) for w0 in (0.5, 1.0, 3.0)]
        worst = 0.0
        for w0, g, wc in systems:
            Ts = np.geomspace(1e-3 * (w0 or g), 500.0, 9)
            p = SystemParams(omega0=w0, T=Ts, gamma=g)
            cfg = MatsubaraConfig(drude_cutoff=wc)
            q2 = matsubara_q2(p, cfg) if w0 > 0 else [None] * len(Ts)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CutoffSensitivityWarning)
                p2 = matsubara_p2(p, cfg)
            for T, q, pp in zip(Ts, q2, p2):
                ref_q, ref_p = mp_reference(w0, T, g, wc)
                gaps = [abs(pp / ref_p - 1.0)] + ([abs(q / ref_q - 1.0)] if w0 > 0 else [])
                assert max(gaps) <= 1e-12, (w0, g, wc, T, gaps)
                worst = max(worst, *gaps)
        print(f"closed form vs 30-digit mpmath: worst relative gap {worst:.2e}")

    def test_batch_equals_per_temperature_calls(self):
        Ts = np.geomspace(0.01, 300.0, 12).reshape(3, 4)
        for w0 in (0.5, 1.0, 7.0):
            batch = SystemParams(omega0=w0, T=Ts, gamma=1.0, M=1.7, hbar=0.6, kB=1.3)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CutoffSensitivityWarning)
                q2, p2 = matsubara_q2(batch), matsubara_p2(batch)
                single = [SystemParams(omega0=w0, T=T, gamma=1.0, M=1.7, hbar=0.6, kB=1.3)
                          for T in Ts.ravel().tolist()]
                q2_single = [matsubara_q2(p) for p in single]
                p2_single = [matsubara_p2(p) for p in single]
            assert q2.shape == p2.shape == Ts.shape
            assert isinstance(q2_single[0], float) and isinstance(p2_single[0], float)
            assert q2.ravel().tolist() == q2_single
            assert p2.ravel().tolist() == p2_single

    def test_batch_validation(self):
        with pytest.raises(TemperatureError):
            matsubara_p2(SystemParams(omega0=1.0, T=np.array([1.0, 0.0])))
        with pytest.raises(ValueError):
            matsubara_q2(SystemParams(omega0=np.array([1.0, 2.0]), T=1.0))

    def test_one_cutoff_warning_per_batch(self):
        # omega0 = 0.5: cutoff-sensitive at T = 0.6, not at T = 300
        p = SystemParams(omega0=0.5, T=np.array([0.6, 300.0]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            matsubara_p2(p)
        assert [w.category for w in caught] == [CutoffSensitivityWarning]

    def test_low_temperature_cli_oracle(self, capsys):
        # the 10^6-term sums wrote kinetic_oracle 27.265 here (exact: 27.0367...)
        code = main(["equilibrium", "--gamma-over-omega0", "0.01", "--T", "0.01:0.02",
                     "--points", "2"])
        out, _ = capsys.readouterr()
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()[2:] if ln]
        assert len(rows) == 2
        for r in rows:
            T, kin_or = float(r[0]), float(r[4])
            assert kin_or == pytest.approx(0.5 * mp_reference(100.0, T)[1], rel=1e-10)
