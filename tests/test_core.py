"""Core parameter handling, decay rates, and the x*coth(x) kernel."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbrown.core import (
    PoleError,
    SystemParams,
    decay_rates,
    xcothx,
    xcothx_m1,
)

# positive scales spanning the regimes the solver meets in practice
scales = st.floats(min_value=1e-3, max_value=1e3)


class TestSystemParams:
    def test_defaults_are_dimensionless_convention(self):
        p = SystemParams(omega0=1.0, T=1.0)
        assert (p.M, p.gamma, p.hbar, p.kB) == (1.0, 1.0, 1.0, 1.0)
        assert math.isinf(p.omega_c)

    @pytest.mark.parametrize("kw", [
        dict(omega0=-1.0, T=1.0),
        dict(omega0=1.0, T=-0.5),
        dict(omega0=1.0, T=1.0, gamma=0.0),
        dict(omega0=1.0, T=1.0, M=-2.0),
        dict(omega0=1.0, T=1.0, hbar=0.0),
        dict(omega0=1.0, T=1.0, kB=0.0),
        dict(omega0=1.0, T=1.0, omega_c=0.0),
        dict(omega0=1.0, T=1.0, omega_c=-3.0),
        dict(omega0=math.nan, T=1.0),
        dict(omega0=math.inf, T=1.0),
        dict(omega0=1.0, T=math.nan),
        dict(omega0=1.0, T=math.inf),
        dict(omega0=1.0, T=1.0, gamma=math.inf),
        dict(omega0=1.0, T=1.0, M=math.nan),
        dict(omega0=1.0, T=1.0, omega_c=math.nan),
    ])
    def test_rejects_invalid(self, kw):
        with pytest.raises(ValueError):
            SystemParams(**kw)

    @pytest.mark.parametrize("field,bad", [("omega0", math.nan), ("omega0", -1.0),
                                           ("T", math.inf), ("gamma", 0.0)])
    def test_batch_validates_every_element(self, field, bad):
        kw = dict(omega0=1.0, T=1.0)
        kw[field] = np.array([0.5, 2.0, bad])
        with pytest.raises(ValueError):
            SystemParams(**kw)

    def test_batch_shape(self):
        assert SystemParams(omega0=1.0, T=1.0).shape == ()
        p = SystemParams(omega0=np.ones(3), T=np.ones((2, 1)), omega_c=math.inf)
        assert p.shape == (2, 3)
        assert p.is_critical().shape == (3,)


def rates(omega0, gamma):
    """(lambda1, lambda2, Omega) of one system as Python complex numbers."""
    return tuple(complex(v) for v in decay_rates(omega0, gamma))


class TestEigenvalues:
    """decay_rates: the roots lambda_{1,2} = -gamma +/- Omega of the
    damped-oscillator characteristic equation."""

    def test_overdamped_example(self):
        # lambda_{1,2} = -2 +/- sqrt(3) by hand
        l1, l2, _ = rates(1.0, 2.0)
        assert l1 == pytest.approx(-2.0 + math.sqrt(3.0), rel=1e-14)
        assert l2 == pytest.approx(-2.0 - math.sqrt(3.0), rel=1e-14)
        assert l1.imag == 0.0 and l2.imag == 0.0
        assert l1.real < 0 and l2.real < 0

    def test_critical_example(self):
        l1, l2, om = rates(1.0, 1.0)
        assert (l1, l2, om) == (-1.0, -1.0, 0.0)

    def test_underdamped_example(self):
        l1, l2, _ = rates(2.0, 1.0)
        assert l1 == pytest.approx(-1.0 + 1j * math.sqrt(3.0), rel=1e-14)
        assert l2 == pytest.approx(l1.conjugate(), rel=1e-14)
        assert l1 * l2 == pytest.approx(4.0, rel=1e-13)

    def test_critical_tolerance_is_relative(self):
        assert SystemParams(omega0=1.0 + 5e-10, T=1.0).is_critical()
        assert not SystemParams(omega0=1.0 + 5e-9, T=1.0).is_critical()
        assert SystemParams(omega0=1e3 * (1.0 + 5e-10), T=1.0, gamma=1e3).is_critical()

    @given(gamma=scales, omega0=scales)
    @settings(max_examples=300, deadline=None)
    def test_identities_property(self, gamma, omega0):
        l1, l2, _ = rates(omega0, gamma)
        assert abs(l1 * l2 - omega0 ** 2) <= 1e-12 * omega0 ** 2
        assert abs(l1 + l2 + 2.0 * gamma) <= 1e-12 * 2.0 * gamma

    def test_identities_bulk(self):
        # 1e4 deterministic pseudo-random parameter pairs
        rng = np.random.default_rng(20260808)
        gs = 10.0 ** rng.uniform(-3, 3, 10_000)
        ws = 10.0 ** rng.uniform(-3, 3, 10_000)
        l1, l2, _ = decay_rates(ws, gs)
        assert np.all(np.abs(l1 * l2 - ws * ws) <= 1e-12 * ws * ws)
        assert np.all(np.abs(l1 + l2 + 2.0 * gs) <= 1e-12 * 2.0 * gs)

    def test_omega0_zero(self):
        l1, l2, _ = rates(0.0, 1.5)
        assert l1 == 0.0
        assert l2 == pytest.approx(-3.0, rel=1e-14)

    def test_decay_rates_match_scalar_complex_formulas(self):
        # the element-wise kernel reproduces the cmath forms bit for bit
        rng = np.random.default_rng(7)
        gs = 10.0 ** rng.uniform(-2, 2, 500)
        ws = np.concatenate([gs[:100], 10.0 ** rng.uniform(-2, 2, 400)])
        ws[:50] = 0.0
        l1, l2, om = decay_rates(ws, gs)
        for i, (w, g) in enumerate(zip(ws.tolist(), gs.tolist())):
            Om = cmath.sqrt(complex(g * g - w * w))
            lam1 = -(w * w) / (g + Om) if g >= w else -g + Om
            assert (l1[i], l2[i], om[i]) == (lam1, -g - Om, Om)


class TestXCothX:
    def test_zero(self):
        assert xcothx(0.0) == 1.0

    def test_one(self):
        # (e^2+1)/(e^2-1), evaluated directly
        ref = (math.e ** 2 + 1.0) / (math.e ** 2 - 1.0)
        assert xcothx(1.0) == pytest.approx(ref, rel=1e-15)
        assert xcothx(1.0) == pytest.approx(1.3130352854993313, rel=1e-15)

    def test_even(self):
        assert xcothx(-1.0) == xcothx(1.0)

    @given(st.complex_numbers(min_magnitude=1e-8, max_magnitude=2.0,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_even_property(self, z):
        assert xcothx(-z) == pytest.approx(xcothx(z), rel=1e-13)

    def test_branch_agreement_on_annulus(self):
        # series (|z| < 1e-2) and exponential branches agree on the overlap
        for r in np.linspace(5e-3, 5e-2, 25):
            for phase in np.linspace(0.0, 2.0 * math.pi, 13):
                z = r * cmath.exp(1j * phase)
                z2 = z * z
                series = 1.0 + z2 * (1.0 / 3.0 + z2 * (-1.0 / 45.0 + z2 * (2.0 / 945.0)))
                e = cmath.exp(-2.0 * (z if z.real >= 0 else -z))
                w = z if z.real >= 0 else -z
                expo = w * (1.0 + e) / (1.0 - e)
                assert abs(series - expo) <= 1e-13 * abs(expo)

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            xcothx(1j * math.pi)
        with pytest.raises(PoleError):
            xcothx(1e-13 + 2j * math.pi)

    def test_near_but_not_at_pole_ok(self):
        # a comfortable distance from i*pi evaluates fine
        val = xcothx(0.05 + 1j * (math.pi - 0.05))
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_large_negative_real_part_is_safe(self):
        # deep low-temperature arguments: no overflow, xcothx -> -z
        z = complex(-700.0, 40000.0)
        assert xcothx(z) == pytest.approx(-z, rel=1e-12)

    def test_pole_sum_identity(self):
        # xcothx(x) - 1 = sum_n 2x^2/(x^2 + n^2 pi^2); partial sums to 1e6
        # carry a tail ~2x^2/(pi^2 n_max), so the raw comparison is checked
        # at the tail size and the tail-corrected one at 1e-8
        n = np.arange(1, 10 ** 6 + 1, dtype=float)
        for x in (0.1, 1.0, 10.0):
            target = xcothx_m1(x).real
            partial = float(np.sum(2.0 * x * x / (x * x + n * n * math.pi ** 2)))
            tail = 2.0 * x * x / math.pi ** 2 * (1e-6 - 0.5e-12 + 1e-18 / 6.0)
            assert abs(partial - target) <= 2.1 * x * x / math.pi ** 2 * 1e-6
            assert abs(partial + tail - target) <= 1e-8 * max(1.0, abs(target))

    def test_array_matches_scalar_elements(self):
        # each element takes its own branch: series, exponential, negated
        zs = np.array([0.0, 1e-4, 3e-3 - 4e-3j, 0.5, -2.0 + 0.3j, 1e-2, 40.0 - 700.0j,
                       -700.0 + 40000.0j])
        got = xcothx_m1(zs)
        assert got.shape == zs.shape and got.dtype == complex
        assert got.tolist() == [xcothx_m1(complex(z)) for z in zs]
        assert type(xcothx_m1(0.5)) is complex
        assert xcothx_m1(zs.reshape(2, 4)).shape == (2, 4)

    def test_pole_rejected_in_array(self):
        with pytest.raises(PoleError):
            xcothx_m1(np.array([0.5, 1e-13 + 2j * math.pi]))
        with pytest.raises(PoleError):
            xcothx_m1(1e-13 + 2j * math.pi)

    def test_m1_matches_xcothx(self):
        # the roundtrip through 1 + ... costs an ulp of 1, which is the whole
        # reason the m1 variant exists
        for z in (1e-4, 1e-3 + 1e-3j, 0.5, 2.0 - 0.3j):
            assert xcothx(z) - 1.0 == pytest.approx(xcothx_m1(z), rel=1e-10, abs=3e-16)
