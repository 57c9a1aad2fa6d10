"""Link budget, spectral efficiency, and the high-SNR expansion machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pinchfl import phy
from pinchfl.config import RunConfig
from pinchfl.errors import (InfeasibleLinkError, OutOfRegimeError,
                            ParameterError)


def _params(**kw):
    base = dict(P=1.0, sigma_n2=1.0, f_c=1.0, d=1.0, D=1.0, W=1.0, B_t=1.0)
    return phy.PhyParams(**{**base, **kw})


class TestSnrScale:
    def test_free_space_constant(self):
        S = _params(f_c=phy.SPEED_OF_LIGHT).S
        assert S == pytest.approx(1.0 / (16.0 * math.pi**2))

    def test_positivity_enforced(self):
        for name in ("P", "sigma_n2", "f_c"):
            with pytest.raises(ParameterError):
                _params(**{name: 0.0})


class TestPhyParams:
    def test_from_snr_scale_round_trip(self):
        p = phy.PhyParams.from_snr_scale(36.0, d=3.0, D=10.0, W=1e6, B_t=1e5)
        assert p.S == pytest.approx(36.0)
        assert p.c == pytest.approx(0.1)

    def test_round_constant_splits_bandwidth(self):
        p = phy.PhyParams.from_snr_scale(36.0, d=3.0, D=10.0, W=1e6, B_t=1e5)
        assert p.c_round(1) == p.c == p.B_t / p.W
        assert p.c_round(4) == 4 * p.B_t / p.W
        # M * B_t / W in that order: M * c rounds differently here
        assert p.c_round(7) == 7 * p.B_t / p.W == 0.7 != 7 * p.c


class TestSpectralEfficiency:
    def test_hand_value(self):
        # S=36, d=3, user at the radiator: R = log2(1 + 36/9) = log2(5)
        assert phy.spectral_efficiency(0.0, 0.0, 36.0, 3.0) == pytest.approx(
            math.log2(5.0)
        )

    def test_array_and_symmetry(self):
        xs = np.array([-2.0, 0.0, 2.0])
        R = phy.spectral_efficiency(xs, 0.0, 36.0, 3.0)
        assert R.shape == (3,)
        assert R[0] == pytest.approx(R[2])
        assert R[1] > R[0]
        ints = phy.spectral_efficiency(np.array([-2, 0, 2]), 0, 36.0, 3.0)
        assert np.array_equal(ints, R)

    def test_latency_inverse_rate(self):
        # c = B_t / W = 0.5 s per bit/s/Hz, user under the radiator
        tau = phy.upload_latency(0.5, 0.0, 0.0, 36.0, 3.0)
        assert tau == 0.5 / math.log2(5.0)

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(1e-3, 1e3), x=st.floats(-50, 50), z=st.floats(-50, 50),
           S=st.floats(1e-2, 1e8), d=st.floats(0.1, 10))
    def test_latency_matches_math_formula(self, c, x, z, S, d):
        # a scalar is a batch of one: the same bits as its batch element
        rate = phy.spectral_efficiency(x, z, S, d)
        assert rate == phy.spectral_efficiency(np.array([x]), z, S, d)[0]
        tau = phy.upload_latency(c, x, z, S, d)
        taus = phy.upload_latency(c, np.array([x, x]), z, S, d)
        assert taus.shape == (2,) and np.shape(tau) == ()
        assert tau == taus[0] == taus[1] == c / rate
        # numpy's log2 may differ from libm's in the last bit; the square is
        # a product, as in the kernel (pow may round it differently, which
        # near a zero rate moves the rate by more than 1e-14 relative)
        ref = c / math.log2(1.0 + S / ((x - z) * (x - z) + d**2))
        assert tau == pytest.approx(ref, rel=1e-14)

    def test_zero_rate_anywhere_is_infeasible(self):
        # S / (x^2 + d^2) vanishes next to 1 at x = 10 but not at x = 0
        assert phy.spectral_efficiency(0.0, 0.0, 1e-15, 1.0) > 0.0
        assert phy.spectral_efficiency(10.0, 0.0, 1e-15, 1.0) == 0.0
        for x in (10.0, np.array([0.0, 10.0]), np.array([[10.0], [0.0]])):
            with pytest.raises(InfeasibleLinkError):
                phy.upload_latency(1.0, x, 0.0, 1e-15, 1.0)

    def test_array_latency_divides_into_rate_buffer(self):
        xs = np.random.default_rng(5).uniform(-40, 40, (50, 7))
        taus = phy.upload_latency(0.3, xs, 1.5, 1e4, 3.0)
        ref = 0.3 / phy.spectral_efficiency(xs, 1.5, 1e4, 3.0)
        assert taus.shape == xs.shape
        assert taus.tobytes() == ref.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(c=st.floats(1e-3, 1e3),
           xs=st.lists(st.floats(-50, 50), min_size=1, max_size=30),
           z=st.floats(-50, 50), S=st.floats(1e-2, 1e8), d=st.floats(0.1, 10),
           into_x=st.booleans())
    def test_out_has_the_bits_of_a_fresh_call(self, c, xs, z, S, d, into_x):
        x = np.array(xs)
        want = phy.upload_latency(c, x, z, S, d)
        # the positions themselves, or a buffer holding stale values
        out = x if into_x else np.full_like(x, np.nan)
        got = phy.upload_latency(c, x, z, S, d, out=out)
        for times in (got, out):
            assert np.array_equal(times.view(np.int64), want.view(np.int64))


class TestLatencyInverse:
    # the default link: S = 7259, d = 3, c = 0.1 s per bit/s/Hz
    LINK = RunConfig().phy()

    @pytest.mark.parametrize("M", [1, 7])
    def test_round_trip(self, M):
        link = self.LINK
        c = link.c_round(M)
        xs = np.geomspace(0.01, 50.0, 400)
        taus = phy.upload_latency(c, xs, 0.0, link.S, link.d)
        rho = phy.latency_inverse(c, taus, link.S, link.d)
        assert rho.shape == xs.shape
        np.testing.assert_allclose(rho, xs, rtol=1e-9, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(1e-3, 1e3), S=st.floats(1e-2, 1e8),
           d=st.floats(0.1, 10), slack=st.floats(1e-6, 1e3))
    def test_scalar_has_the_bits_of_the_math_formula(self, c, S, d, slack):
        # a scalar is a batch of one; the power is libm's, as in Python
        t = phy.upload_latency(c, 0.0, 0.0, S, d) * (1.0 + slack)
        rho = phy.latency_inverse(c, t, S, d)
        assert np.shape(rho) == ()
        assert rho == phy.latency_inverse(c, np.array([t, t]), S, d)[1]
        radicand = S / (2.0 ** (c / t) - 1.0) - d**2
        assert rho == math.sqrt(max(radicand, 0.0))

    def test_where_no_offset_meets_t(self, recwarn):
        link = self.LINK
        c, S, d = link.c, link.S, link.d
        tau0 = phy.upload_latency(c, 0.0, 0.0, S, d)
        # t <= 0, below the pinned time, and where 2^(c/t) overflows: even a
        # zero offset exceeds t
        ts = [-math.inf, -1e20, -1.0, -0.0, 0.0, 1e-300, c / 2000.0,
              c / 1024.0, tau0 / 2.0, tau0 * (1.0 - 1e-9)]
        assert phy.latency_inverse(c, np.array(ts), S, d).tolist() == (
            [-math.inf] * len(ts))
        assert phy.latency_inverse(c, c / 1024.0, S, d) == -math.inf
        # every offset meets an infinite deadline
        assert phy.latency_inverse(c, math.inf, S, d) == math.inf
        # from tau(0) on a zero offset meets t, though at tau(0) itself the
        # root's radicand rounds below 0 at this link
        assert S / (2.0 ** (c / tau0) - 1.0) - d**2 < 0
        assert phy.latency_inverse(c, tau0, S, d) == 0.0
        assert phy.latency_inverse(c, tau0 * (1.0 + 1e-9), S, d) > 0.0
        assert not recwarn.list

    def test_dead_link_is_infeasible(self):
        # as upload_latency: the rate of a zero offset rounds to zero
        with pytest.raises(InfeasibleLinkError):
            phy.latency_inverse(1.0, np.array([1.0, math.inf]), 1e-30, 3.0)


class TestHighSnrConstants:
    def test_operating_point_values(self):
        c = phy.high_snr_constants(10.0, 3.0)
        assert c.zeta == pytest.approx(5.0 / 3.0)
        assert c.C0 == pytest.approx(math.log2(34.0))
        assert c.C1 == pytest.approx(34.0 / math.log(2.0))
        assert c.g_zeta == pytest.approx(
            math.log(34.0 / 9.0) - 2.0 + 1.2 * math.atan(5.0 / 3.0)
        )
        assert c.ell_conv == pytest.approx(math.log2(9.0) + c.g_zeta / math.log(2.0))

    def test_ell_conv_is_corridor_average_quadrature(self):
        # corridor average of log2(x^2 + d^2) over x in [-D/2, D/2]
        D, d = 10.0, 3.0
        c = phy.high_snr_constants(D, d)
        val, _ = quad(lambda x: math.log2(x**2 + d**2) / D, -D / 2, D / 2,
                      epsabs=1e-12)
        assert c.ell_conv == pytest.approx(val, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(zeta=st.floats(1e-3, 1e3))
    def test_g_positive_and_increasing(self, zeta):
        g = phy.g_of_zeta(zeta)
        assert g > 0.0
        assert phy.g_of_zeta(zeta * 1.01) > g

    @pytest.mark.parametrize("zeta", [1e-9, 1e-6, 1e-3, 0.099])
    def test_g_small_zeta_matches_exact_series(self, zeta):
        # the closed form returned 0.0 at 1e-8 and -2.2e-16 at 1e-9
        assert phy.g_of_zeta(zeta) == pytest.approx(_g_series(zeta), rel=1e-15)

    def test_g_across_the_series_switch(self):
        # the closed form from 0.1 on keeps its cancellation error, about
        # 5e-14 relative there, and g stays increasing across the switch
        zetas = [0.0999, math.nextafter(0.1, 0.0), 0.1,
                 math.nextafter(0.1, 1.0), 0.1001]
        gs = [phy.g_of_zeta(z) for z in zetas]
        assert gs == sorted(gs)
        for zeta, g in zip(zetas, gs):
            assert g == pytest.approx(_g_series(zeta),
                                      rel=1e-15 if zeta < 0.1 else 1e-12)


def _g_series(zeta):
    """g(zeta) summed exactly in fractions to 40 terms, whose tail is below
    1e-75 relative for zeta <= 0.1001."""
    z2 = Fraction(zeta) ** 2
    return float(sum(Fraction((-1) ** (n + 1), n * (2 * n + 1)) * z2**n
                     for n in range(1, 41)))


class TestRemainderEnvelope:
    def test_below_threshold_rejected(self):
        c = phy.high_snr_constants(10.0, 3.0)
        with pytest.raises(OutOfRegimeError):
            phy.remainder_envelope(c.Lambda0 * 0.5, c)

    def test_envelope_dominates_exact_remainder(self):
        # exact: 1/R - (1/Lambda)(1 + ell(x)/Lambda) with ell(x)=log2(x^2+d^2)
        D, d = 10.0, 3.0
        c = phy.high_snr_constants(D, d)
        xs = np.linspace(-D / 2, D / 2, 10_001)
        for lam in (c.Lambda0, 2 * c.Lambda0, 10 * c.Lambda0):
            S = 2.0**lam
            R = np.log2(1.0 + S / (xs**2 + d**2))
            ell = np.log2(xs**2 + d**2)
            remainder = 1.0 / R - (1.0 / lam) * (1.0 + ell / lam)
            env = phy.remainder_envelope(lam, c)
            assert np.all(np.abs(remainder) <= env + 1e-15)

    def test_envelope_shrinks_with_lambda(self):
        c = phy.high_snr_constants(10.0, 3.0)
        e1 = phy.remainder_envelope(c.Lambda0, c)
        e2 = phy.remainder_envelope(4 * c.Lambda0, c)
        assert e2 < e1


class TestRegime:
    def test_lambda_whose_cube_overflows_is_out_of_regime(self):
        # a cube overflows a double from Lambda of about 5.64e102 on
        c = phy.high_snr_constants(10.0, 3.0)
        for bound in (phy.remainder_envelope, phy.afl_gap_bracket):
            assert math.isfinite(bound(5.6e102, c))
            for bad in (5.7e102, math.inf, math.nan):
                with pytest.raises(OutOfRegimeError,
                                   match=r"Lambda=\S+ at zeta=1\.66"):
                    bound(bad, c)

    @pytest.mark.parametrize("D,lam", [(1e-50, "3.1"), (1e-160, "inf"),
                                       (1e-165, "inf"), (1e-170, "inf")])
    def test_lambda_star_beyond_the_regime_is_rejected(self, D, lam):
        # lambda* grows as 3/zeta^2: its cube overflows at zeta ~ 1.7e-51,
        # at zeta ~ 1.7e-161 g(zeta) is subnormal and lambda* infinite, and
        # below zeta ~ 1e-162 zeta^2 underflows and g(zeta) is 0
        with pytest.raises(OutOfRegimeError,
                           match=rf"Lambda={lam}\S* at zeta=1\.6"):
            phy.lambda_star(phy.high_snr_constants(D, 3.0))


class TestGapBracket:
    def test_positive_at_and_beyond_lambda_star(self):
        c = phy.high_snr_constants(10.0, 3.0)
        lam = phy.lambda_star(c)
        for scale in (1.0, 2.0, 10.0):
            assert phy.afl_gap_bracket(lam * scale, c) > 0.0

    def test_bracket_below_true_gap(self):
        # the bracket lower-bounds the corridor-averaged 1/R gap
        D, d = 10.0, 3.0
        c = phy.high_snr_constants(D, d)
        lam = 10.0 * c.Lambda0  # representable SNR; the bound needs Lambda >= Lambda0
        S = 2.0**lam
        gap_exact, _ = quad(
            lambda x: (1.0 / math.log2(1.0 + S / (x**2 + d**2))
                       - 1.0 / math.log2(1.0 + S / d**2)) / D,
            -D / 2, D / 2, epsabs=1e-15,
        )
        assert phy.afl_gap_bracket(lam, c) <= gap_exact + 1e-12
