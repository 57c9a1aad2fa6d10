"""Deadline-limited coverage radius and expected participant counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from pinchfl import montecarlo
from pinchfl.config import load_config
from pinchfl.errors import ParameterError, UnsupportedDistributionError
from pinchfl.participation import (DETERMINISTIC, SHIFTED_EXPONENTIAL,
                                   DeadlineModel, coverage_radius,
                                   expected_participants, gm_abs_cdf)
from pinchfl.phy import PhyParams, upload_latency
from pinchfl.spatial import GAUSSIAN_MIXTURE, UNIFORM, DistributionSpec

PHY = PhyParams.from_snr_scale(36.0, d=3.0, D=10.0, W=1e6, B_t=1e5)
UNI = DistributionSpec(kind=UNIFORM, D=10.0)
GM = DistributionSpec(kind=GAUSSIAN_MIXTURE, D=10.0, mu=3.0, sigma=0.5)


def det_model(T_d, t0=0.0, p_s=1.0):
    return DeadlineModel(T_d=T_d, fc_kind=DETERMINISTIC, t0=t0, p_s=p_s)


class TestDeadlineModel:
    def test_deterministic_cdf_is_step(self):
        m = DeadlineModel(T_d=1.0, t0=0.5)
        assert m.F_c(0.49) == 0.0
        assert m.F_c(0.5) == 1.0

    def test_shifted_exponential_cdf(self):
        m = DeadlineModel(T_d=1.0, fc_kind=SHIFTED_EXPONENTIAL, t0=0.5, rate=2.0)
        assert m.F_c(0.4) == 0.0
        assert m.F_c(1.5) == pytest.approx(1.0 - math.exp(-2.0))

    @settings(max_examples=100, deadline=None)
    @given(u=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=40),
           t0=st.floats(0.0, 1.0), rate=st.floats(1e-3, 1e4),
           kind=st.sampled_from([DETERMINISTIC, SHIFTED_EXPONENTIAL]))
    def test_array_branch_matches_scalar(self, u, t0, rate, kind):
        m = DeadlineModel(T_d=1.0, fc_kind=kind, t0=t0, rate=rate)
        u = [*u, t0, math.nextafter(t0, -math.inf)]
        got = m.F_c(np.array(u))
        # a scalar is a batch of one: the same bits as its batch element
        ref = np.array([m.F_c(v) for v in u])
        assert got.tobytes() == ref.tobytes()

    def test_bad_rate_rejected(self):
        with pytest.raises(ParameterError):
            DeadlineModel(T_d=1.0, fc_kind=SHIFTED_EXPONENTIAL, rate=0.0)


class TestCoverageRadius:
    def test_hand_value(self):
        # S=36, d=3, c=0.1: at T=0.1 the coverage equation gives sqrt(27),
        # which exceeds the half-corridor, so rho is capped at D/2
        cov = coverage_radius(0.1, det_model(0.1), PHY)
        assert cov.rho == pytest.approx(5.0)
        assert cov.T_min == pytest.approx(0.1 / math.log2(5.0))

    def test_numeric_inversion_oracle(self):
        # rho solves tau(sqrt(rho^2 + d^2)) = T - t0 exactly
        model = det_model(0.1, t0=0.01)
        cov = coverage_radius(0.1, model, PHY)

        def residual(rho):
            return PHY.c / math.log2(1.0 + PHY.S / (rho**2 + PHY.d**2)) - 0.09

        root = brentq(residual, 0.0, PHY.D, xtol=1e-13)
        assert cov.rho == pytest.approx(root, abs=1e-10)

    def test_clamped_below_and_capped_above(self):
        m_lo = det_model(1e-6)
        assert coverage_radius(1e-6, m_lo, PHY).rho == 0.0
        m_hi = det_model(10.0)
        assert coverage_radius(10.0, m_hi, PHY).rho == pytest.approx(5.0)

    def test_sqrt_law_near_threshold(self):
        # log-log regression of rho against T - T_min gives slope ~ 1/2
        cov0 = coverage_radius(1.0, det_model(1.0), PHY)
        dts = np.geomspace(1e-9, 1e-6, 30)
        rhos = [coverage_radius(cov0.T_min + dt, det_model(cov0.T_min + dt), PHY).rho
                for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(rhos), 1)[0]
        assert 0.48 <= slope <= 0.52
        # and the coefficient agrees with kappa
        assert rhos[0] / math.sqrt(dts[0]) == pytest.approx(cov0.kappa, rel=1e-3)

    def test_requires_deterministic_compute(self):
        m = DeadlineModel(T_d=1.0, fc_kind=SHIFTED_EXPONENTIAL, rate=1.0)
        with pytest.raises(UnsupportedDistributionError):
            coverage_radius(1.0, m, PHY)


class TestDeadlineArgument:
    BAD = (float("nan"), float("inf"), -float("inf"), -0.01)

    @pytest.mark.parametrize("spec", [UNI, GM], ids=["uniform", "gm"])
    @pytest.mark.parametrize("model", [
        det_model(0.05),
        DeadlineModel(T_d=0.05, fc_kind=SHIFTED_EXPONENTIAL, t0=0.001,
                      rate=200.0),
    ], ids=["deterministic", "shifted_exp"])
    def test_expected_participants_rejects_bad_deadline(self, spec, model):
        # F_c(nan) is 1: a NaN deadline would count every pinned user
        for T_d in self.BAD:
            with pytest.raises(ParameterError, match="finite and nonnegative"):
                expected_participants(10, T_d, model, spec, PHY)

    def test_coverage_radius_rejects_bad_deadline(self):
        for T_d in self.BAD:
            with pytest.raises(ParameterError, match="finite and nonnegative"):
                coverage_radius(T_d, det_model(0.05), PHY)


class TestGmAbsCdf:
    def test_matches_numeric_integral(self):
        from scipy.integrate import quad

        def dens(x):
            return (math.exp(-((x - 3.0) ** 2) / (2 * 0.25))
                    + math.exp(-((x + 3.0) ** 2) / (2 * 0.25))) / (
                        2.0 * math.sqrt(2 * math.pi) * 0.5)

        for rho in (0.5, 2.0, 3.5, 10.0):
            val, _ = quad(dens, -rho, rho, epsabs=1e-12)
            assert gm_abs_cdf(rho, 3.0, 0.5) == pytest.approx(val, abs=1e-10)

    def test_centred_mixture_is_one_gaussian(self):
        # mu = 0 merges the two clusters: P(|X| <= rho) = erf(rho/(sigma sqrt 2))
        for sigma in (0.05, 0.5, 3.0):
            for rho in np.linspace(0.0, 10.0 * sigma, 201):
                assert abs(gm_abs_cdf(rho, 0.0, sigma)
                           - math.erf(rho / (sigma * math.sqrt(2.0)))) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(rho=st.floats(0.0, 20.0), mu=st.floats(0.0, 5.0),
           sigma=st.floats(0.05, 3.0))
    def test_is_a_cdf_in_rho(self, rho, mu, sigma):
        v = gm_abs_cdf(rho, mu, sigma)
        assert 0.0 <= v <= 1.0
        assert gm_abs_cdf(rho + 0.1, mu, sigma) >= v - 1e-12


class TestExpectedParticipants:
    def test_pinned_count_is_distribution_free(self):
        for spec in (UNI, GM):
            rep = expected_participants(40, 0.05, det_model(0.05), spec, PHY)
            assert rep.n_pa == pytest.approx(40.0)

    def test_uniform_closed_form(self):
        rep = expected_participants(10, 0.058, det_model(0.058), UNI, PHY)
        cov = coverage_radius(0.058, det_model(0.058), PHY)
        assert rep.n_conv == pytest.approx(10 * 2 * cov.rho / 10.0)

    def test_quadrature_path_agrees_with_closed_form_limit(self):
        # a huge exponential rate makes the compute time almost deterministic
        sharp = DeadlineModel(T_d=0.058, fc_kind=SHIFTED_EXPONENTIAL,
                              t0=0.0, rate=1e9)
        rep_q = expected_participants(10, 0.058, sharp, UNI, PHY)
        rep_c = expected_participants(10, 0.058, det_model(0.058), UNI, PHY)
        assert rep_q.n_conv == pytest.approx(rep_c.n_conv, rel=1e-4)
        assert rep_q.n_pa == pytest.approx(rep_c.n_pa, rel=1e-4)

    @settings(max_examples=60, deadline=None)
    @given(T=st.floats(0.0, 0.3), K=st.integers(1, 80),
           which=st.sampled_from(["uni", "gm"]),
           kind=st.sampled_from([DETERMINISTIC, SHIFTED_EXPONENTIAL]))
    def test_pinning_never_loses(self, T, K, which, kind):
        spec = UNI if which == "uni" else GM
        if kind == DETERMINISTIC:
            model = DeadlineModel(T_d=T, fc_kind=kind)
        else:
            model = DeadlineModel(T_d=T, fc_kind=kind, rate=5.0)
        rep = expected_participants(K, T, model, spec, PHY)
        assert rep.gap >= -1e-9
        assert 0.0 <= rep.n_conv <= K + 1e-9
        assert 0.0 <= rep.n_pa <= K + 1e-9

    @pytest.mark.parametrize("phy, spec, T_d, t0, rate", [
        # a narrow cluster far from the origin: adaptive quadrature over the
        # whole line without breakpoints returned 6.6e-13 per user here
        (PhyParams.from_snr_scale(1000.0, d=3.5, D=10.0, W=1e6, B_t=1e5),
         DistributionSpec(kind=GAUSSIAN_MIXTURE, D=10.0, mu=5.0, sigma=0.1),
         0.25, 0.0, 0.15),
        (load_config(None, {}).phy(), DistributionSpec(kind=UNIFORM, D=10.0),
         0.05, 0.0, 200.0),
        (load_config(None, {}).phy(), GM, 0.05, 0.001, 300.0),
        (PHY, UNI, 0.058, 0.0, 1e6),
        (PHY, GM, 0.07, 0.01, 1e6),
    ])
    def test_quadrature_matches_split_reference(self, phy, spec, T_d, t0, rate):
        model = DeadlineModel(T_d=T_d, fc_kind=SHIFTED_EXPONENTIAL, t0=t0,
                              rate=rate)
        rep = expected_participants(40, T_d, model, spec, phy)
        ref = _split_quad_reference(T_d, t0, rate, spec, phy)
        assert ref > 1e-3
        assert rep.n_conv / 40 == pytest.approx(ref, rel=0.0, abs=1e-9)

    def test_coverage_where_the_snr_scale_exceeds_d2_times_2_to_the_1000(self):
        # at S = 1e305 a deadline of c/1010 s is met within about 0.34 m of
        # the origin, though 2^(c/T_d) exceeds 2^1000: the closed forms count
        # those users, and the Monte Carlo sweep agrees
        phy = PhyParams.from_snr_scale(1e305, d=3.0, D=10.0, W=1e6, B_t=1e5)
        T_d = phy.c / 1010.0
        model = det_model(T_d)
        assert upload_latency(phy.c, 0.0, 0.0, phy.S, phy.d) < T_d
        rho = math.sqrt(phy.S / (2.0 ** (phy.c / T_d) - 1.0) - phy.d**2)
        assert 0.3 < coverage_radius(T_d, model, phy).rho == rho
        rep = expected_participants(40, T_d, model, UNI, phy)
        assert rep.n_conv == 40 * min(2.0 * rho / 10.0, 1.0)
        gm = expected_participants(40, T_d, model, GM, phy)
        assert gm.n_conv == 40 * gm_abs_cdf(rho, GM.mu, GM.sigma) > 0.0
        row, = montecarlo.participation_sweep(40, [T_d], model, UNI, phy,
                                              trials=20_000, seed=0)
        assert row["n_conv"] == rep.n_conv
        assert abs(row["n_conv_mc"] - rep.n_conv) <= 3.0 * row["conv_stderr"]

    def test_monotone_in_deadline(self):
        counts = [expected_participants(20, T, det_model(T), UNI, PHY).n_conv
                  for T in np.linspace(0.0, 0.2, 40)]
        assert all(b >= a - 1e-12 for a, b in zip(counts, counts[1:]))


# S = 1e305: 2^(c/T_d) overflows past 2^1000 at the deadline c/1010
HUGE_S = PhyParams.from_snr_scale(1e305, d=3.0, D=10.0, W=1e6, B_t=1e5)


class TestDeadlineBatch:
    @pytest.mark.parametrize("phy", [PHY, HUGE_S], ids=["S36", "S1e305"])
    @pytest.mark.parametrize("spec", [UNI, GM], ids=["uniform", "gm"])
    @pytest.mark.parametrize("model", [
        det_model(0.0, t0=0.002),
        DeadlineModel(T_d=0.0, fc_kind=SHIFTED_EXPONENTIAL, t0=0.002,
                      rate=300.0),
    ], ids=["deterministic", "shifted_exp"])
    def test_batch_is_the_scalar_calls(self, phy, spec, model):
        T_min = model.t0 + upload_latency(phy.c, 0.0, 0.0, phy.S, phy.d)
        T_max = model.t0 + upload_latency(phy.c, spec.D / 2.0, 0.0, phy.S,
                                          phy.d)
        grid = [0.0, model.t0 / 2.0, np.nextafter(T_min, 0.0), T_min,
                (T_min + T_max) / 2.0, np.nextafter(T_max, 0.0), T_max,
                np.nextafter(T_max, 1.0), 2.0 * T_max, 1.0]
        if phy is HUGE_S:
            grid.append(model.t0 + phy.c / 1010.0)
        got = expected_participants(40, np.array(grid), model, spec, phy)
        want = np.array([expected_participants(40, T, model, spec, phy)
                         for T in grid]).T
        assert np.array(got).tobytes() == want.tobytes()
        # the grid reaches both ends of the counts
        assert got.n_conv.min() == 0.0 < got.n_conv.max()

    @pytest.mark.parametrize("spec", [UNI, GM], ids=["uniform", "gm"])
    @pytest.mark.parametrize("model", [
        det_model(0.0),
        DeadlineModel(T_d=0.0, fc_kind=SHIFTED_EXPONENTIAL, rate=300.0),
    ], ids=["deterministic", "shifted_exp"])
    def test_scalar_deadline_returns_scalars(self, spec, model):
        rep = expected_participants(40, 0.05, model, spec, PHY)
        assert all(isinstance(v, float) and np.ndim(v) == 0 for v in rep)
        rep = expected_participants(40, [[0.05, 0.06]], model, spec, PHY)
        assert all(np.shape(v) == (1, 2) for v in rep)

    def test_uniform_corridor_is_the_distributions(self):
        # the draws cover spec.D = 8, not PhyParams.D = 10
        phy = load_config(None, {}).phy()
        spec = DistributionSpec(kind=UNIFORM, D=8.0)
        T_d = 0.01056
        rho = coverage_radius(T_d, det_model(T_d), phy._replace(D=8.0)).rho
        assert 0.0 < rho < 4.0 < phy.D / 2.0
        rep = expected_participants(40, T_d, det_model(T_d), spec, phy)
        assert rep.n_conv == 40 * (2.0 * rho / 8.0)
        row, = montecarlo.participation_sweep(40, [T_d], det_model(T_d), spec,
                                              phy, trials=20_000, seed=0)
        assert abs(row["n_conv_mc"] - row["n_conv"]) <= \
            5.0 * row["conv_stderr_binom"]


def _split_quad_reference(T_d, t0, rate, spec, phy):
    """Per-user CONV participation by adaptive quadrature over x >= 0, split
    at the coverage kink, where the slack is 1, 10 and 100 over the rate,
    and at the cluster: the places where the integrand turns."""
    from scipy.integrate import quad

    S, d, c = phy.S, phy.d, phy.c

    def radius(slack):  # offset whose upload leaves this much slack
        if T_d - t0 - slack <= 0:
            return 0.0
        return math.sqrt(max(S / (2.0 ** (c / (T_d - t0 - slack)) - 1.0)
                             - d**2, 0.0))

    kink = radius(0.0)

    def eligible(x):
        slack = T_d - t0 - c / math.log2(1.0 + S / (x**2 + d**2))
        return 1.0 - math.exp(-rate * slack) if slack > 0 else 0.0

    points = [radius(k / rate) for k in (1, 10, 100)]
    if spec.kind == UNIFORM:
        hi, scale, integrand = min(kink, spec.D / 2.0), 2.0 / spec.D, eligible
    else:
        hi = kink
        points += [spec.mu + k * spec.sigma for k in (-4, 0, 4)]
        scale = 1.0 / (math.sqrt(2.0 * math.pi) * spec.sigma)

        def integrand(x):
            return eligible(x) * (
                math.exp(-((x - spec.mu) ** 2) / (2.0 * spec.sigma**2))
                + math.exp(-((x + spec.mu) ** 2) / (2.0 * spec.sigma**2)))

    edges = sorted({min(max(p, 0.0), hi) for p in points} | {0.0, hi})
    return scale * sum(quad(integrand, a, b, epsabs=1e-14, limit=200)[0]
                       for a, b in zip(edges, edges[1:]))
