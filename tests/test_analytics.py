"""Closed-form moment formulas, the sandwich, and concentration bounds."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchfl import analytics, montecarlo
from pinchfl.errors import ParameterError


class TestOrderStatMoments:
    def test_uniform_minimum(self):
        mean, second = analytics.order_stat_moments(3, 1)
        assert mean == pytest.approx(0.25)
        assert second == pytest.approx(2.0 / 20.0)

    def test_maximum_of_k(self):
        mean, second = analytics.order_stat_moments(4, 4)
        assert mean == pytest.approx(0.8)
        assert second == pytest.approx(20.0 / 30.0)

    def test_beta_integral_oracle(self):
        # frozen against direct quadrature of the Beta(M, K-M+1) density
        from scipy.integrate import quad
        from scipy.special import betaln
        K, M = 11, 4
        norm = math.exp(-betaln(M, K - M + 1))

        def dens(x):
            return norm * x ** (M - 1) * (1 - x) ** (K - M)

        mean_q, _ = quad(lambda x: x * dens(x), 0, 1, epsabs=1e-13)
        sec_q, _ = quad(lambda x: x * x * dens(x), 0, 1, epsabs=1e-13)
        mean, second = analytics.order_stat_moments(K, M)
        assert mean == pytest.approx(mean_q, abs=1e-12)
        assert second == pytest.approx(sec_q, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            analytics.order_stat_moments(3, 4)
        # a non-integral M or K is rejected; an integral float is an integer
        for call in (lambda: analytics.order_stat_moments(20, 2.9),
                     lambda: analytics.order_stat_moments(4.5, 2),
                     lambda: analytics.straggler_moments(20, 2.9, 10.0),
                     lambda: analytics.hoeffding_tail(4.5, 0.05),
                     lambda: analytics.min_spacing_second_moment(4.5)):
            with pytest.raises(ParameterError):
                call()
        assert analytics.order_stat_moments(20.0, 3.0) == \
            analytics.order_stat_moments(20, 3)


class TestStragglerMoments:
    def test_spec_example(self):
        rep = analytics.straggler_moments(3, 2, 2.0)
        assert rep.conv_E2 == pytest.approx(0.3)
        assert rep.pa_ub_beta == pytest.approx(0.1)
        assert rep.pa_ub_avg == pytest.approx(0.25)
        assert rep.pa_ub == pytest.approx(0.1)
        assert rep.pa_lb == pytest.approx(2.0 / 320.0)
        assert rep.ratio_limit == pytest.approx(1.0 / 6.0)

    def test_operating_point(self):
        rep = analytics.straggler_moments(40, 7, 10.0)
        assert rep.conv_E2 == pytest.approx(25.0 * 56.0 / 1722.0)

    def test_m1_pinning_is_free(self):
        rep = analytics.straggler_moments(10, 1, 4.0)
        assert rep.pa_ub == 0.0
        assert rep.pa_lb == 0.0
        assert rep.ratio_limit == 0.0

    @settings(max_examples=200, deadline=None)
    @given(K=st.integers(2, 200), data=st.data())
    def test_sandwich_is_consistent(self, K, data):
        M = data.draw(st.integers(2, K))
        rep = analytics.straggler_moments(K, M, 7.0)
        assert 0.0 <= rep.pa_lb <= rep.pa_ub
        assert rep.pa_ub == min(rep.pa_ub_avg, rep.pa_ub_beta)
        # the movable-radiator ceiling never exceeds the fixed-antenna value
        assert rep.pa_ub_beta <= rep.conv_E2

    @pytest.mark.parametrize("K, M, D", [(3, 1, 2.0), (40, 7, 10.0),
                                         (11, 4, 7.5), (20, 20, 3.0)])
    def test_beta_moments_are_order_stat_moments(self, K, M, D):
        # both Beta second moments are (D/2)^2 E[U^2] of one order
        # statistic, U_(M) for CONV and U_(M-1) for the PA span ceiling
        rep = analytics.straggler_moments(K, M, D)
        half_sq = (D / 2.0) ** 2
        assert rep.conv_E2 == half_sq * analytics.order_stat_moments(K, M)[1]
        assert rep.pa_ub_beta == (
            half_sq * analytics.order_stat_moments(K, M - 1)[1] if M > 1
            else 0.0)

    def test_rejects_bad_corridor(self):
        for D in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                analytics.straggler_moments(3, 2, D)


class TestMinSpacingMoment:
    def test_formula(self):
        assert analytics.min_spacing_second_moment(3) == pytest.approx(
            2.0 / (64.0 * 5.0)
        )

    def test_exact_integral_oracle(self):
        # P(min spacing > s) = (1 - (K+1) s)^K for s < 1/(K+1)
        from scipy.integrate import quad
        K = 6
        val, _ = quad(lambda s: 2 * s * (1 - (K + 1) * s) ** K,
                      0, 1.0 / (K + 1), epsabs=1e-14)
        assert analytics.min_spacing_second_moment(K) == pytest.approx(val, abs=1e-12)


class TestConcentrationBounds:
    def test_hoeffding_form(self):
        h = analytics.hoeffding_tail(100, 0.05)
        assert h == pytest.approx(2.0 * math.exp(-2.0 * 100 * 0.0025))

    def test_eps_window_enforced(self):
        for eps in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ParameterError):
                analytics.hoeffding_tail(10, eps)
        # verify_bounds drops the tail verdict of an eps at or above
        # min(p, 1-p), p = M/(K+1), and keeps every other verdict
        names = [v.name for v in montecarlo.verify_bounds([10], [5], 10.0,
                                                          200, 0, eps=0.5)]
        assert "K=10 M=5 hoeffding tail" not in names
        assert "K=10 M=5 span mean" in names

    @settings(max_examples=100, deadline=None)
    @given(K=st.integers(5, 500), data=st.data())
    def test_bounds_decay_in_k(self, K, data):
        # fixed occupancy fraction, growing K: the bound lies in (0, 2]
        # and falls as K grows
        M = max(1, K // 4)
        p = M / (K + 1)
        eps = data.draw(st.floats(1e-3, float(min(p, 1 - p)) * 0.9))
        h = analytics.hoeffding_tail(K, eps)
        assert 0.0 < h <= 2.0
        assert analytics.hoeffding_tail(K + 1, eps) <= h
