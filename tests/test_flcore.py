"""Gates, quantization with error feedback, aggregation, convergence
constants, and the two training loops."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinchfl import flcore
from pinchfl.errors import (DivergenceError, InfeasibleLinkError,
                            ParameterError)
from pinchfl.flcore import (CONV, PA, QuantizerSpec, SyntheticProblem,
                            TrainRecord, convergence_constants, draw_gates,
                            ht_aggregate, ht_second_moment_exact,
                            inclusion_probability, make_synthetic_problem,
                            quantize, quantize_ef, run_afl, run_sfl, xi_safe)
from pinchfl.participation import DETERMINISTIC, SHIFTED_EXPONENTIAL, DeadlineModel
from pinchfl.phy import PhyParams, upload_latency
from pinchfl.spatial import (UNIFORM, DistributionSpec, sample_positions,
                             schedule_round)

PHY = PhyParams.from_snr_scale(1000.0, d=3.0, D=10.0, W=1e6, B_t=1e5)
UNI = DistributionSpec(kind=UNIFORM, D=10.0)


def _quantize_row(v, b):
    """Scalar reference quantizer for one row."""
    s = max(abs(x) for x in v)
    n = 2**b
    step = 2.0 * s / (n - 1)
    if step == 0.0:  # nothing to grid: the row comes back as is, zeros as +0
        return [x + 0.0 for x in v]
    out = []
    for x in v:
        j = min(max(math.floor((abs(x) + s) / step + 0.5), 0), n - 1)
        out.append((-1.0 if x < 0 else 1.0) * (-s + j * step))
    return out


@st.composite
def _batches(draw):
    """A (K, d) batch, C or Fortran order, whose rows are zero (signed
    zeros), subnormal, or entries in [-1, 1] with some ±0.0 among them, times
    10^k for |k| <= 300.  Hypothesis picks the shape, each row's kind and
    exponent, and the seed of the entries."""
    K, d = draw(st.integers(1, 49)), draw(st.integers(1, 11))
    rows = draw(st.lists(st.tuples(
        st.sampled_from(["scaled", "zero", "subnormal"]), st.integers(-300, 300)),
        min_size=K, max_size=K))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.uniform(-1.0, 1.0, (K, d))
    v[rng.random((K, d)) < 0.2] = 0.0
    v[rng.random((K, d)) < 0.1] = -0.0
    for row, (kind, k) in zip(v, rows):
        if kind == "zero":
            row[:] = np.where(rng.random(d) < 0.5, 0.0, -0.0)
        elif kind == "subnormal":
            row[:] = rng.integers(-2**20, 2**20, d) * 5e-324
        else:
            row *= 10.0 ** k
    return np.asfortranarray(v) if draw(st.booleans()) else v


class TestQuantizer:
    def test_two_bit_grid(self):
        # b=2, v=[1, 0.5]: grid {-1, -1/3, 1/3, 1}; 0.5 rounds away from 0
        y = quantize(np.array([1.0, 0.5]), 2)
        assert y == pytest.approx([1.0, 1.0 / 3.0])

    def test_levels_count(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(-1, 1, 1000)
        for b in (1, 2, 3):
            y = quantize(v, b)
            assert len(np.unique(np.round(y, 12))) <= 2**b

    def test_zero_vector(self):
        assert np.all(quantize(np.zeros(4), 3) == 0.0)

    def test_endpoints_exact(self):
        v = np.array([-2.0, 2.0, 0.0])
        y = quantize(v, 4)
        assert y[0] == -2.0 and y[1] == 2.0

    @settings(max_examples=200, deadline=None)
    @given(b=st.integers(1, 8),
           v=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                      max_size=50))
    @example(b=3, v=[5e-324])  # the grid step underflows to zero
    def test_error_bounded_by_half_step(self, b, v):
        v = np.asarray(v)
        s = np.max(np.abs(v))
        y = quantize(v, b)
        if s == 0:
            assert np.all(y == 0)
        else:
            step = 2 * s / (2**b - 1)
            assert np.max(np.abs(v - y)) <= step / 2 + 1e-9 * s

    @settings(max_examples=200, deadline=None)
    @given(b=st.integers(1, flcore.MAX_BITS), d=st.integers(1, 8),
           rows=st.lists(st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
                                   st.just(0.0), st.just(-0.0),
                                   st.just(5e-324)),
                         min_size=1, max_size=64),
           zero_row=st.booleans())
    # -0.0 is not negative: it takes the +0.0 grid value, and +0.0 in an
    # all-zero row
    @example(b=3, d=2, rows=[-0.0, 1.0, -0.0, -0.0], zero_row=False)
    # the finest grid, next to a row whose step underflows
    @example(b=53, d=2, rows=[1.0, -0.3, 5e-324, -0.0], zero_row=False)
    def test_rows_match_scalar_reference(self, b, d, rows, zero_row):
        K = max(len(rows) // d, 1)
        v = np.resize(np.asarray(rows), (K, d))
        if zero_row:
            v[0] = 0.0
        before = v.tobytes()
        y = quantize(v, b)
        assert v.tobytes() == before, "the input must not be written"
        ref = np.array([_quantize_row(row, b) for row in v.tolist()])
        assert y.tobytes() == ref.tobytes()
        # a 1-D vector is one row
        assert quantize(v[0], b).tobytes() == ref[0].tobytes()
        # memory layout does not matter: Fortran order, a strided 2-D view,
        # and a row read as a non-contiguous column of the transpose
        assert quantize(np.asfortranarray(v), b).tobytes() == ref.tobytes()
        wide = np.zeros((K, 2 * d))
        wide[:, ::2] = v
        assert quantize(wide[:, ::2], b).tobytes() == ref.tobytes()
        column = np.ascontiguousarray(v.T)[:, 0]
        assert quantize(column, b).tobytes() == ref[0].tobytes()

    @pytest.mark.parametrize("b", [13, 26, 52])
    def test_zero_entries_keep_their_grid_sign(self, b):
        # a zero entry lands about half a step off zero, on either side by
        # the rounding of s / step: here below it, so a restore that copies
        # v's sign onto q would move it above
        rows = [[0.0, 3.0], [-0.0, 3.0], [0.0, -3.0]]
        for row in rows:
            y = quantize(np.array([row]), b)
            ref = np.array([_quantize_row(row, b)])
            assert y.tobytes() == ref.tobytes()
            assert np.signbit(y[0, 0])
            assert y[0, 0] != 0.0

    def test_rejects_a_0d_input(self):
        # a 0-d value has no last axis to take the row scale along
        for v in (1.0, np.float64(-2.0), np.array(0.5)):
            with pytest.raises(ParameterError, match="last axis"):
                quantize(v, 3)
            with pytest.raises(ParameterError, match="last axis"):
                quantize_ef(v, 0.0, QuantizerSpec(b=3))
            with pytest.raises(ParameterError, match="last axis"):
                quantize_ef(v, 0.0, QuantizerSpec(b=3, c_q=0.0))
        assert quantize([1.0], 3).tobytes() == np.array([1.0]).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(b=st.integers(1, flcore.MAX_BITS), v=_batches())
    @example(b=53, v=np.asfortranarray([[1e300, -0.0], [5e-324, 0.0]]))
    def test_kernel_on_a_reused_workspace_matches_quantize(self, b, v):
        # the training loops hand the kernel one workspace for the whole run:
        # what a previous call left there, or NaN, must not leak into a result
        work = tuple(np.full(v.shape, np.nan) for _ in range(3))
        for x in (v, -v):
            before = x.tobytes()
            got = flcore._quantize_kernel(x, *flcore._grid(b), work).tobytes()
            assert got == quantize(x, b).tobytes()
            assert x.tobytes() == before, "the input must not be written"

    def test_rejects_rows_that_would_overflow(self):
        # a NaN, an infinity or a scale whose 2 s overflows used to come back
        # as an all-NaN row
        for row in ([np.inf, 1.0, -2.0], [1.0, np.nan], [-np.inf, 0.0],
                    [1e308, -1e308], [1e308, 0.0]):
            with pytest.raises(ParameterError):
                quantize(np.array(row), 3)
            with pytest.raises(ParameterError):
                quantize(np.array([[0.5, -0.5], row[:2]]), 3)  # one bad row
        # g + e overflows to inf before the quantizer sees it
        with pytest.raises(ParameterError), np.errstate(over="ignore"):
            quantize_ef(np.array([1e308, 1e308]), np.array([1e308, 0.0]),
                        QuantizerSpec(b=3))
        # just under the limit, every intermediate stays finite
        v = np.array([8.9e307, -8.9e307, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = quantize(v, 3)
        step = 2 * 8.9e307 / 7
        assert np.all(np.isfinite(y))
        assert np.max(np.abs(v - y)) <= step / 2 * (1 + 1e-12)

    def test_ef_rows_are_independent_users(self):
        rng = np.random.default_rng(7)
        g, e = rng.normal(size=(5, 3)), rng.normal(scale=0.1, size=(5, 3))
        Y, e_next = quantize_ef(g, e, QuantizerSpec(b=3))
        for i in range(5):
            Yi, ei = quantize_ef(g[i], e[i], QuantizerSpec(b=3))
            assert np.array_equal(Y[i], Yi) and np.array_equal(e_next[i], ei)

    def test_contraction_with_calibrated_constant(self):
        # batch-mean MSE ratio stays below 1 - alpha(b) = c_q 2^(-2b) with
        # the calibrated constant c_q = 3 on low-dimensional uniform vectors
        rng = np.random.default_rng(11)
        for b in range(1, 9):
            spec = QuantizerSpec(b=b, c_q=3.0)
            num = den = 0.0
            for _ in range(200):
                v = rng.uniform(-1, 1, 4)
                err = v - quantize(v, b)
                num += float(np.dot(err, err))
                den += float(np.dot(v, v))
            assert num / den <= 1.0 - spec.alpha


class TestQuantizerSpec:
    def test_alpha_formula(self):
        assert QuantizerSpec(b=4, c_q=1.0).alpha == pytest.approx(1 - 2.0**-8)

    def test_identity_mode(self):
        assert QuantizerSpec(b=1, c_q=0.0).alpha == 1.0

    def test_alpha_floor(self):
        # absurd c_q still leaves a positive fidelity
        assert QuantizerSpec(b=1, c_q=1e9).alpha > 0.0

    def test_bad_bits(self):
        # 2^b - 1 must be an exact double, the top index of an integer grid
        for b in (0, 2.5, 54, -1, math.nan):
            with pytest.raises(ParameterError):
                QuantizerSpec(b=b)
            with pytest.raises(ParameterError):
                quantize(np.array([0.3, -0.1]), b)

    def test_bits_up_to_the_exact_grid(self):
        v = np.array([0.3, -0.1, 0.2])
        assert QuantizerSpec(b=53).b == 53
        # an integral float is an integer
        assert quantize(v, 6.0).tobytes() == quantize(v, 6).tobytes()

    def test_nan_c_q_rejected(self):
        with pytest.raises(ParameterError):
            QuantizerSpec(b=6, c_q=math.nan)


class TestErrorFeedback:
    def test_recursion_identity(self):
        spec = QuantizerSpec(b=3)
        g = np.array([0.3, -0.7, 0.1])
        e = np.array([0.05, 0.0, -0.02])
        Y, e_next = quantize_ef(g, e, spec)
        assert np.allclose(Y + e_next, g + e)

    def test_identity_mode_passes_through(self):
        spec = QuantizerSpec(b=1, c_q=0.0)
        g = np.array([1.0, 2.0])
        Y, e_next = quantize_ef(g, np.zeros(2), spec)
        assert np.array_equal(Y, g)
        assert np.all(e_next == 0.0)

    @pytest.mark.parametrize("b, c_q", [(1, 1e-20), (27, 1.0)])
    def test_only_c_q_zero_is_lossless(self, b, c_q):
        # alpha rounds to 1 here, and the step still quantizes
        spec = QuantizerSpec(b=b, c_q=c_q)
        assert spec.alpha == 1.0
        rng = np.random.default_rng(b)
        g, e = rng.normal(size=(6, 5)), rng.normal(scale=0.01, size=(6, 5))
        for g, e in ((g, e), (np.array([0.3, -0.1, 0.2]), np.zeros(3))):
            Y, e_next = quantize_ef(g, e, spec)
            assert Y.tobytes() == quantize(g + e, b).tobytes()
            assert e_next.tobytes() == ((g + e) - Y).tobytes()
            assert not np.array_equal(Y, g + e)
        if b == 1:  # the 1-bit grid of [0.3, -0.1, 0.2] is {-0.3, 0.3}
            assert list(Y) == [0.3, -0.3, 0.3]

    def test_residual_energy_stays_below_fixed_point(self):
        # constant gradient stream: residual energy must stay below the
        # recursion fixed point c1 (1-alpha) G^2 / (1 - rho_b)
        rng = np.random.default_rng(3)
        for b in (2, 4, 6):
            spec = QuantizerSpec(b=b, c_q=3.0)
            g = rng.uniform(-1, 1, 4)
            e = np.zeros(4)
            G2 = float(np.dot(g, g))
            alpha = spec.alpha
            rho_b = (1 - alpha) * (1 + alpha / 2)
            c1 = 1 + 2 / alpha
            fixed_point = c1 * (1 - alpha) * G2 / (1 - rho_b)
            for _ in range(10_000):
                _, e = quantize_ef(g, e, spec)
                assert float(np.dot(e, e)) <= fixed_point


class TestGatesAndWeights:
    def test_inclusion_probability(self):
        m = DeadlineModel(T_d=1.0, t0=0.2, p_s=0.5)
        assert inclusion_probability(0.7, m) == pytest.approx(0.5)
        assert inclusion_probability(0.9, m) == 0.0

    def test_inclusion_probability_of_an_array(self):
        taus = np.array([0.0, 0.3, 0.7, 0.85, 0.95, 1.2])
        for model in (DeadlineModel(T_d=1.0, t0=0.2, p_s=0.5),
                      DeadlineModel(T_d=1.0, fc_kind=SHIFTED_EXPONENTIAL,
                                    t0=0.1, rate=3.0, p_s=0.6)):
            pis = inclusion_probability(taus, model)
            ref = np.array([inclusion_probability(t, model) for t in taus])
            assert pis.shape == taus.shape
            assert pis.tobytes() == ref.tobytes()
            for i in range(taus.size):
                bad = taus.copy()
                bad[i] = -1e-12
                with pytest.raises(ParameterError):
                    inclusion_probability(bad, model)

    def test_xi_safe_values(self):
        assert xi_safe(10, 1.0) == pytest.approx(1.0)
        assert xi_safe(10, 0.1) == pytest.approx((9 + 10) / 10)
        with pytest.raises(ParameterError):
            xi_safe(10, 0.0)

    def test_draw_gates_frequency(self):
        # inclusion frequency per upload time matches p_s F_c(T_d - tau)
        # under both compute-time models
        n = 4000
        taus = np.repeat([0.3, 0.7, 0.85, 0.95], n)
        for model in (DeadlineModel(T_d=1.0, t0=0.2, p_s=0.6),
                      DeadlineModel(T_d=1.0, fc_kind=SHIFTED_EXPONENTIAL,
                                    t0=0.1, rate=3.0, p_s=0.6)):
            Z, T_c, I = draw_gates(taus, model, np.random.default_rng(5))
            assert Z.shape == T_c.shape == I.shape == taus.shape
            assert np.all(I <= Z) and np.all(T_c >= model.t0)
            for tau, inc in zip(taus[::n], I.reshape(-1, n).mean(axis=1)):
                p = inclusion_probability(tau, model)
                # 3-sigma binomial interval
                assert abs(inc - p) <= 3 * math.sqrt(p * (1 - p) / n)

    @pytest.mark.parametrize("model", [
        DeadlineModel(T_d=0.9, t0=0.2, p_s=0.6),
        DeadlineModel(T_d=0.9, fc_kind=SHIFTED_EXPONENTIAL, t0=0.1, rate=3.0,
                      p_s=0.6)], ids=["deterministic", "shifted-exp"])
    def test_gate_kernel_matches_draw_gates(self, model):
        taus = np.random.default_rng(1).uniform(0.0, 1.0, 300)
        Z, T_c, I = draw_gates(taus, model, np.random.default_rng(6))
        kZ, kT_c, kI, finish = flcore._gate_kernel(
            taus, *flcore._gate_params(model), np.random.default_rng(6))
        assert Z.tobytes() == kZ.tobytes() and I.tobytes() == kI.tobytes()
        # deterministic compute keeps the scalar t0
        assert np.full(taus.shape, kT_c).tobytes() == T_c.tobytes()
        assert finish.tobytes() == (T_c + taus).tobytes()
        assert 0 < I.sum() < Z.sum() < taus.size

    def test_draw_gates_consumes_one_uniform_per_user(self):
        model = DeadlineModel(T_d=1.0, p_s=0.5)
        Z, _, _ = draw_gates(np.zeros(50), model, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        assert list(Z) == [rng.random() < 0.5 for _ in range(50)]

    def test_ht_aggregate_unbiased_mc(self):
        rng = np.random.default_rng(0)
        Ys = [np.array([1.0, 2.0]), np.array([-3.0, 0.5]), np.array([0.0, 4.0])]
        pis = [0.9, 0.5, 0.3]
        target = np.sum(Ys, axis=0) / 3
        acc = np.zeros(2)
        n = 20_000
        for _ in range(n):
            Is = (rng.random(3) < pis).astype(int)
            acc += ht_aggregate(list(zip(Is, pis, Ys)), 3)
        mean = acc / n
        # 3-sigma check on each coordinate
        se = 3.0 / math.sqrt(n) * max(np.linalg.norm(Y) / p
                                      for Y, p in zip(Ys, pis)) / 3
        assert np.all(np.abs(mean - target) <= se)

    def test_ht_second_moment_vs_enumeration(self):
        rng = np.random.default_rng(2)
        K = 8
        Ys = [rng.normal(size=3) for _ in range(K)]
        pis = rng.uniform(0.2, 1.0, K)
        exact = ht_second_moment_exact(Ys, pis, K)
        total = 0.0
        for mask in itertools.product([0, 1], repeat=K):
            prob = math.prod(p if m else 1 - p for m, p in zip(mask, pis))
            agg = ht_aggregate([(m, p, Y) for m, p, Y in zip(mask, pis, Ys)], K)
            total += prob * float(np.dot(agg, agg))
        assert exact == pytest.approx(total, abs=1e-12)

    def test_ht_aggregate_sums_in_entry_order(self):
        # bit-equal to a left-to-right sum of Y/pi, also for 1-D updates
        rng = np.random.default_rng(4)
        for d in (1, 3):
            Ys = rng.normal(size=(30, d)) * 10.0 ** rng.integers(-8, 8, (30, 1))
            pis = rng.uniform(0.1, 1.0, 30)
            Is = (rng.random(30) < 0.7).astype(int)
            ref = sum(Y / pi for I, pi, Y in zip(Is, pis, Ys) if I) / 30
            agg = ht_aggregate(list(zip(Is, pis, Ys)), 30)
            assert agg.tobytes() == ref.tobytes()

    def test_included_zero_probability_rejected(self):
        ones = np.ones(2)
        for entries in ([(1, 0.0, ones)],
                        [(1, 0.5, ones), (0, 0.0, ones), (1, 0.0, ones)],
                        # NaN and a value above 1 are no probabilities
                        [(1, math.nan, ones)], [(1, 1.5, ones)]):
            with pytest.raises(ParameterError, match="inclusion probability"):
                ht_aggregate(entries, 3)
        # an excluded entry may have zero probability
        assert ht_aggregate([(1, 0.5, ones), (0, 0.0, ones)], 2).tolist() == [1.0, 1.0]

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 4), K=st.integers(1, 60),
           entries=st.lists(st.tuples(
               # any indicator value, so a dropped I factor shows
               st.one_of(st.sampled_from([0, 1]), st.floats(-4.0, 4.0)),
               st.one_of(st.floats(1e-6, 1.0), st.just(0.0)),
               st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                        min_size=4, max_size=4),
               st.integers(-8, 8)),
               min_size=1, max_size=12))
    # 0.1 is absorbed into 1e14 when added first, and exact when added last
    @example(d=1, K=1, entries=[(1, 1.0, [0.1] * 4, 0), (1, 1.0, [1e6] * 4, 8),
                                (1, 1.0, [-1e6] * 4, 8)])
    def test_ht_kernel_matches_scalar_reference(self, d, K, entries):
        # rows of mixed magnitude, so a change of summation order shows
        entries = [(i, p, [y * 10.0**k for y in ys[:d]]) for i, p, ys, k in entries]
        I = np.array([e[0] for e in entries], dtype=float)
        pi = np.array([e[1] for e in entries])
        Y = np.array([e[2] for e in entries])
        wrapped = lambda: ht_aggregate(list(zip(I, pi, Y)), K)
        # the kernel takes the included rows only, with I already applied
        inc = [e for e in entries if e[0]]
        kernel = lambda: flcore._ht_kernel(
            np.array([p for _, p, _ in inc]),
            np.array([[i * yj for yj in y] for i, _, y in inc]).reshape(-1, d), K)
        if any(i and p == 0.0 for i, p, _ in entries):
            # an included entry must have a positive inclusion probability;
            # ht_aggregate checks it, the kernel takes it as given
            with pytest.raises(ParameterError):
                wrapped()
            return
        # left-to-right scalar sum over the included entries; excluded ones,
        # zero probability allowed, add nothing
        acc = None
        for i, p, y in entries:
            if i:
                terms = [i * yj / p for yj in y]
                acc = terms if acc is None else [a + t for a, t in zip(acc, terms)]
        ref = np.array([a / K for a in acc] if acc else [0.0] * d)
        assert wrapped().tobytes() == ref.tobytes()
        assert kernel().tobytes() == ref.tobytes()


class TestConvergenceConstants:
    def test_eta_max_shape(self):
        spec = QuantizerSpec(b=4)
        rep = convergence_constants(L=2.0, eta=0.01, xi=1.5, spec=spec)
        assert rep.eta_max == pytest.approx(1.0 / (2.0 * (1 + 4.5)))
        assert rep.rho_b == pytest.approx((1 - spec.alpha) * (1 + spec.alpha / 2))
        assert 0.0 < rep.rho_b < 1.0

    def test_floors_vanish_without_noise(self):
        rep = convergence_constants(L=1.0, eta=0.1, xi=1.0,
                                    spec=QuantizerSpec(b=1, c_q=0.0))
        assert rep.variance_floor == 0.0
        assert rep.ef_floor == 0.0
        assert rep.rho_b == 0.0

    def test_linear_rate_constants(self):
        rep = convergence_constants(L=1.0, eta=0.1, xi=1.0,
                                    spec=QuantizerSpec(b=6), mu=1.0)
        assert rep.pl_rate == pytest.approx(0.9)
        assert rep.pl_lambda_min > rep.lambda_min > 0.0

    def test_stale_stepsize_decreases_with_staleness(self):
        spec = QuantizerSpec(b=6)
        r0 = convergence_constants(1.0, 0.1, 1.0, spec, delta_max=0)
        r5 = convergence_constants(1.0, 0.1, 1.0, spec, delta_max=5)
        assert r0.eta_max_stale == pytest.approx(0.25)
        assert r5.eta_max_stale == pytest.approx(0.25 / 6.0)

    def test_rate_regime_guard(self):
        with pytest.raises(ParameterError):
            convergence_constants(1.0, 0.9, 1.0, QuantizerSpec(b=1, c_q=1.0),
                                  mu=8.0)


class TestSyntheticProblem:
    def test_heterogeneity_hit_exactly(self):
        p = make_synthetic_problem(10, 5, delta2_target=0.37, noise_sigma=0.0,
                                   seed=1)
        assert p.delta2 == pytest.approx(0.37, abs=1e-12)

    def test_initial_gap(self):
        p = make_synthetic_problem(4, 6, 0.1, 0.0, seed=0)
        w0 = p.initial_point(gap=2.5)
        assert 0.5 * p.grad_norm2(w0) == pytest.approx(2.5, abs=1e-12)

    def test_centers_are_a_private_read_only_copy(self):
        centers = np.random.default_rng(0).normal(size=(5, 3))
        mean = centers.mean(axis=0)
        p = SyntheticProblem(centers=centers, noise_sigma=0.0)
        # the cached optimum cannot drift from the centers it was computed on
        for frozen in (p.centers, p.w_star):
            with pytest.raises(ValueError):
                frozen[0] += 1.0
        # the caller's array is neither frozen nor shared
        centers[0] = 99.0
        assert p.w_star.tobytes() == p.centers.mean(axis=0).tobytes() == mean.tobytes()
        assert 0.5 * p.grad_norm2(p.w_star) == 0.0 and p.w_star is p.w_star

    def test_one_user_has_no_heterogeneity(self):
        # its one centre is the mean: there is no spread to scale, where a
        # draw used to be divided by zero into NaN centres
        assert make_synthetic_problem(1, 3, 0.0, 0.1, seed=0).delta2 == 0.0
        with pytest.raises(ParameterError, match="K"):
            make_synthetic_problem(1, 3, 0.05, 0.0, seed=0)

    def test_noise_statistics(self):
        p = make_synthetic_problem(3, 4, 0.0, noise_sigma=0.5, seed=0)
        rng = np.random.default_rng(1)
        grads = np.stack([p.stochastic_grads(p.w_star, rng) for _ in range(4000)])
        var = float(np.mean(np.sum(grads**2, axis=2)))
        assert var == pytest.approx(0.25, rel=0.1)


class TestRunSfl:
    def test_pl_contraction_noiseless(self):
        # full participation, identity quantizer: exact (1 - eta mu)^t decay
        K, eta = 6, 0.2
        p = make_synthetic_problem(K, 4, 0.0, 0.0, seed=0)
        sample = sample_positions(UNI, K, seed=1)
        log = run_sfl(p, sample, PHY, M=K, eta=eta, spec=QuantizerSpec(1, 0.0),
                      rounds=50, arch=CONV, seed=0)
        gap0 = 1.0
        for t, rec in enumerate(log.records, start=1):
            assert rec.loss == pytest.approx(gap0 * (1 - eta) ** (2 * t),
                                             abs=1e-12)

    def test_round_time_is_constant_and_pa_faster(self):
        K, M = 20, 5
        p = make_synthetic_problem(K, 4, 0.0, 0.0, seed=0)
        sample = sample_positions(UNI, K, seed=3)
        log_c = run_sfl(p, sample, PHY, M, 0.1, QuantizerSpec(6), 10, CONV, 0)
        log_p = run_sfl(p, sample, PHY, M, 0.1, QuantizerSpec(6), 10, PA, 0)
        assert len({r.latency for r in log_c.records}) == 1
        assert log_p.total_time <= log_c.total_time
        assert log_p.records[0].bottleneck <= log_c.records[0].bottleneck + 1e-12

    def test_zero_rate_link_is_infeasible(self):
        # S / d^2 vanishes next to 1, so every scheduled rate rounds to zero
        p = make_synthetic_problem(4, 2, 0.0, 0.0, seed=0)
        sample = sample_positions(UNI, 4, seed=0)
        dead = PhyParams.from_snr_scale(1e-300, d=3.0, D=10.0, W=1e6, B_t=1e5)
        with pytest.raises(InfeasibleLinkError):
            run_sfl(p, sample, dead, 2, 0.1, QuantizerSpec(6), 1, CONV, 0)

    def test_rejects_positions_of_wrong_shape(self):
        p = make_synthetic_problem(4, 2, 0.0, 0.0, seed=0)
        xs = sample_positions(UNI, 4, seed=0)
        for bad in (xs[None, :], xs[:3], np.tile(xs, 2).reshape(2, 4)):
            with pytest.raises(ParameterError):
                run_sfl(p, bad, PHY, 2, 0.1, QuantizerSpec(6), 1, CONV, 0)

    @pytest.mark.parametrize("c_q", [0.0, 1.0])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_round(self, c_q):
        p = make_synthetic_problem(8, 4, 0.0, 0.0, seed=0)
        xs = sample_positions(UNI, 8, seed=0)
        with pytest.raises(DivergenceError,
                           match=r"^round 0 at t=.* loss inf with eta=1e\+155$"):
            run_sfl(p, xs, PHY, 3, 1e155, QuantizerSpec(6, c_q), 5, CONV, 0)

    def test_integral_float_m_is_an_int(self):
        p = make_synthetic_problem(8, 4, 0.1, 0.3, seed=0)
        xs = sample_positions(UNI, 8, seed=2)
        args = (p, xs, PHY)
        rest = (0.1, QuantizerSpec(6), 5, PA, 9)
        as_float = run_sfl(*args, 2.0, *rest).records
        assert ([dataclasses.astuple(r) for r in as_float]
                == [dataclasses.astuple(r) for r in run_sfl(*args, 2, *rest).records])
        assert all(type(r.participants) is int for r in as_float)
        with pytest.raises(ParameterError):
            run_sfl(*args, 2.5, *rest)

    def test_same_seed_same_trajectory(self):
        K = 8
        p = make_synthetic_problem(K, 4, 0.1, 0.3, seed=0)
        sample = sample_positions(UNI, K, seed=2)
        a = run_sfl(p, sample, PHY, 3, 0.1, QuantizerSpec(6), 20, CONV, 9)
        b = run_sfl(p, sample, PHY, 3, 0.1, QuantizerSpec(6), 20, CONV, 9)
        assert [r.loss for r in a.records] == [r.loss for r in b.records]


class TestRunAfl:
    def _setup(self, K=12, seed=4):
        p = make_synthetic_problem(K, 4, 0.02, 0.05, seed=seed)
        sample = sample_positions(UNI, K, seed=seed)
        tau_max = PHY.c / math.log2(1 + PHY.S / (PHY.d**2 + 25.0))
        model = DeadlineModel(T_d=1.05 * tau_max, fc_kind=DETERMINISTIC)
        return p, sample, model

    def test_times_nondecreasing_and_staleness_bounded(self):
        p, sample, model = self._setup()
        log = run_afl(p, sample, PHY, model, 0.05, QuantizerSpec(6),
                      horizon_s=50 * model.T_d, arch=CONV, seed=0)
        times = [r.time for r in log.records]
        assert times == sorted(times)
        assert all(r.staleness >= 0 for r in log.records)
        assert log.records, "deadline admits everyone; updates must flow"

    def test_pa_never_stales_more_than_conv(self):
        for seed in range(3):
            p, sample, model = self._setup(seed=seed)
            kw = dict(eta=0.05, spec=QuantizerSpec(6),
                      horizon_s=50 * model.T_d, seed=seed)
            log_c = run_afl(p, sample, PHY, model, arch=CONV, **kw)
            log_p = run_afl(p, sample, PHY, model, arch=PA, **kw)
            assert log_p.max_staleness <= log_c.max_staleness

    def test_uniform_weighting_runs(self):
        p, sample, model = self._setup()
        log = run_afl(p, sample, PHY, model, 0.05, QuantizerSpec(6),
                      horizon_s=20 * model.T_d, arch=PA, seed=1,
                      weighting="uniform")
        assert log.records
        with pytest.raises(ParameterError):
            run_afl(p, sample, PHY, model, 0.05, QuantizerSpec(6),
                    horizon_s=1.0, arch=PA, seed=1, weighting="median")

    def test_out_of_order_arrivals_apply_in_time_order(self):
        # random compute times and a trigger period well below the deadline:
        # a later tick's batch can land before an earlier tick's
        p, sample, det = self._setup()
        model = DeadlineModel(T_d=2.0 * det.T_d, fc_kind=SHIFTED_EXPONENTIAL,
                              rate=4.0 / det.T_d)
        T_p = model.T_d / 10
        kw = dict(eta=0.05, spec=QuantizerSpec(6), horizon_s=30 * model.T_d,
                  arch=CONV, seed=0, tick_period=T_p)
        log = run_afl(p, sample, PHY, model, **kw)
        ticks = [round((r.time - r.latency) / T_p) for r in log.records]
        assert any(a > b for a, b in zip(ticks, ticks[1:]))
        times = [r.time for r in log.records]
        assert times == sorted(times)
        assert [r.index for r in log.records] == list(range(1, len(times) + 1))
        # repr is exact for floats and compares NaN fields by value
        rerun = run_afl(p, sample, PHY, model, **kw)
        assert ([repr(dataclasses.astuple(r)) for r in rerun.records]
                == [repr(dataclasses.astuple(r)) for r in log.records])

    def test_rejects_positions_of_wrong_shape(self):
        p, xs, model = self._setup()
        for bad in (xs[None, :], xs[:-1], np.append(xs, 0.0)):
            for arch in (CONV, PA):
                with pytest.raises(ParameterError):
                    run_afl(p, bad, PHY, model, 0.05, QuantizerSpec(6),
                            horizon_s=model.T_d, arch=arch, seed=0)

    @pytest.mark.parametrize("c_q", [0.0, 1.0])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_event(self, c_q):
        p, sample, model = self._setup()
        with pytest.raises(DivergenceError,
                           match=r"^event 1 at t=.* loss inf with eta=1e\+155$"):
            run_afl(p, sample, PHY, model, 1e155, QuantizerSpec(6, c_q),
                    horizon_s=5 * model.T_d, arch=CONV, seed=0)

    def test_upload_from_a_zero_probability_user_rejected(self, monkeypatch):
        # the HT kernel takes pi > 0 as given; a run in which some user's pi
        # is zero checks each batch's uploaders instead
        p, sample, model = self._setup()
        real = flcore.inclusion_probability

        def first_user_never_included(taus, model):
            pis = real(taus, model)
            pis[0] = 0.0
            return pis

        monkeypatch.setattr(flcore, "inclusion_probability",
                            first_user_never_included)
        with pytest.raises(ParameterError, match="zero-probability user"):
            run_afl(p, sample, PHY, model, 0.05, QuantizerSpec(6),
                    horizon_s=5 * model.T_d, arch=CONV, seed=0)

    def test_deterministic_rerun(self):
        p, sample, model = self._setup()
        kw = dict(eta=0.05, spec=QuantizerSpec(6), horizon_s=30 * model.T_d,
                  arch=CONV, seed=11)
        a = run_afl(p, sample, PHY, model, **kw)
        b = run_afl(p, sample, PHY, model, **kw)
        assert [r.loss for r in a.records] == [r.loss for r in b.records]


_BAD_RUN_ARGS = [
    ("sfl", "eta", math.nan), ("sfl", "eta", math.inf), ("sfl", "eta", 0.0),
    ("sfl", "rounds", 2.5), ("sfl", "rounds", 0), ("sfl", "rounds", math.inf),
    ("sfl", "w0", np.zeros(3)), ("sfl", "w0", np.zeros((1, 4))),
    ("sfl", "w0", np.array([0.0, math.nan, 0.0, 0.0])),
    ("afl", "eta", math.nan), ("afl", "eta", math.inf),
    ("afl", "horizon_s", math.nan), ("afl", "horizon_s", math.inf),
    ("afl", "horizon_s", 0.0),
    ("afl", "tick_period", math.nan), ("afl", "tick_period", math.inf),
    ("afl", "tick_period", -1.0),
    ("afl", "tick_period", 1e-320),  # horizon_s / tick_period overflows
    ("afl", "w0", np.zeros(5)), ("afl", "w0", np.array([math.inf, 0, 0, 0])),
    # a NaN position used to win PA's window and make every logged time NaN
    # under SFL, and get pi = 1 but never upload under AFL at CONV
    *((loop, "xs", np.array([0.1, bad, -0.3, 2.0] * 2))
      for loop in ("sfl", "afl") for bad in (math.nan, math.inf, -math.inf)),
]


@pytest.mark.parametrize("loop, key, value", _BAD_RUN_ARGS,
                         ids=[f"{m}-{k}-{v!r}" for m, k, v in _BAD_RUN_ARGS])
def test_bad_run_arguments_rejected_before_any_draw(loop, key, value,
                                                     monkeypatch):
    problem = make_synthetic_problem(8, 4, 0.02, 0.05, seed=0)
    xs = sample_positions(UNI, 8, seed=0)
    common = dict(problem=problem, xs=xs, phy=PHY, eta=0.1,
                  spec=QuantizerSpec(6), arch=CONV, seed=0)
    if loop == "sfl":
        run, kw = run_sfl, dict(common, M=3, rounds=5)
    else:
        run, kw = run_afl, dict(common, model=DeadlineModel(T_d=0.05),
                                horizon_s=0.5)
    run(**kw)  # the valid call runs

    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was made before validation")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ParameterError, match=key):
        run(**dict(kw, **{key: value}))


def _ref_sfl(problem, xs, phy, M, eta, spec, rounds, arch, seed):
    """Plain run_sfl: every user runs error feedback over all K rows, then
    the scheduled rows are averaged."""
    sched, z = schedule_round(xs, M, arch)
    round_time = float(np.max(upload_latency(phy.c_round(M), xs[sched], z,
                                             phy.S, phy.d)))
    bottleneck = float(np.max(np.abs(xs[sched] - z)))
    rng = np.random.default_rng(seed)
    w = problem.initial_point()
    e = np.zeros_like(problem.centers)
    records, t = [], 0.0
    for rnd in range(rounds):
        pre = problem.grad_norm2(w)
        Ys, e = quantize_ef(problem.stochastic_grads(w, rng), e, spec)
        w = w - eta * Ys[sched].mean(axis=0)
        t += round_time
        records.append(TrainRecord(
            time=t, index=rnd, arch=arch, scheduled=tuple(int(i) for i in sched),
            z=float(z), bottleneck=bottleneck, latency=round_time,
            participants=M, staleness=0, loss=0.5 * problem.grad_norm2(w),
            grad_norm2=pre))
    return records


def _ref_afl(problem, xs, phy, model, eta, spec, horizon_s, arch, seed,
             weighting="HT", tick_period=None):
    """Plain run_afl: a sorted list of pending batches, each a list of
    (1, pi, Y) entries aggregated by ht_aggregate."""
    K = problem.K
    T_p = model.T_d if tick_period is None else tick_period
    if arch == CONV:
        taus = upload_latency(phy.c, xs, 0.0, phy.S, phy.d)
    else:
        taus = np.full(K, upload_latency(phy.c, 0.0, 0.0, phy.S, phy.d))
    pis = np.array([inclusion_probability(t, model) for t in taus])
    rng = np.random.default_rng(seed)
    w = problem.initial_point()
    e = np.zeros_like(problem.centers)
    caches = np.tile(w, (K, 1))
    cache_ver = np.zeros(K, dtype=int)
    busy_until = np.zeros(K)
    version = 0
    pending, records = [], []

    def apply_due(up_to):
        nonlocal w, version
        pending.sort(key=lambda batch: batch[:2])  # apply time, then tick
        while pending and pending[0][0] <= up_to:
            apply_time, _, lat, entries, fetched = pending.pop(0)
            if weighting == "HT":
                update = ht_aggregate(entries, K)
            else:
                update = ht_aggregate([(1, 1.0, Y) for _, _, Y in entries],
                                      len(entries))
            w = w - eta * update
            staleness = version - int(min(fetched))
            version += 1
            gn2 = problem.grad_norm2(w)
            records.append(TrainRecord(
                time=apply_time, index=version, arch=arch,
                scheduled=(), z=0.0 if arch == CONV else math.nan,
                bottleneck=math.nan, latency=lat, participants=len(entries),
                staleness=staleness, loss=0.5 * gn2, grad_norm2=gn2))

    for n in range(math.ceil(horizon_s / T_p)):
        t_tick = n * T_p
        apply_due(t_tick)
        idle = np.flatnonzero(busy_until <= t_tick + 1e-12)
        caches[idle] = w
        cache_ver[idle] = version
        Ys, e = quantize_ef(problem.stochastic_grads(caches, rng), e, spec)
        Z, T_c, I = draw_gates(taus[idle], model, rng)
        finish = T_c + taus[idle]
        busy_until[idle[Z]] = t_tick + np.where(I, finish, T_c)[Z]
        if np.any(I):
            up = idle[I][np.argsort(finish[I], kind="stable")]
            lat = finish[I].max()
            pending.append((t_tick + lat, n, lat,
                            [(1, pis[i], Ys[i]) for i in up],
                            [cache_ver[i] for i in up]))
    apply_due(horizon_s)
    return records


def _as_reprs(records):
    # repr is exact for floats, compares NaN by value and shows numpy scalars
    return [repr(dataclasses.astuple(r)) for r in records]


_REF_LINK = PhyParams.from_snr_scale(5.0, d=0.5, D=10.0, W=1e6, B_t=1e5)
_REF_SPECS = {"b6": QuantizerSpec(b=6), "b3": QuantizerSpec(b=3),
              "identity": QuantizerSpec(b=6, c_q=0.0)}
_REF_MODELS = {
    "deterministic": (DeadlineModel(T_d=0.05), None, 0.5),
    "deterministic-tick": (DeadlineModel(T_d=0.05), 0.025, 0.5),
    "shifted-exp": (DeadlineModel(T_d=0.05, fc_kind=SHIFTED_EXPONENTIAL,
                                  t0=1e-3, rate=200.0, p_s=0.7), 0.005, 0.2),
    # ticks one PA upload apart: a batch lands exactly on the next tick and
    # is applied before that tick refreshes the caches
    "tick-on-arrival": (DeadlineModel(T_d=0.05), upload_latency(
        _REF_LINK.c, 0.0, 0.0, _REF_LINK.S, _REF_LINK.d), 0.2),
    # a batch waits several ticks, each of which quantizes into the run's
    # one workspace, so a queued batch must not be a view of it
    "pending-across-ticks": (DeadlineModel(T_d=0.05), 0.004, 0.2),
}


def _ref_problem(seed):
    return (make_synthetic_problem(40, 8, 0.002, 0.05, seed=seed),
            sample_positions(UNI, 40, seed=seed))


class TestLoopsMatchReference:
    """The training loops against plain references built from the public
    kernels, record for record."""

    @pytest.mark.parametrize("spec", list(_REF_SPECS))
    @pytest.mark.parametrize("arch", [CONV, PA])
    def test_run_sfl(self, arch, spec):
        for seed in (0, 1):
            problem, xs = _ref_problem(seed)
            args = (problem, xs, _REF_LINK, 7, 0.2, _REF_SPECS[spec], 40,
                    arch, seed)
            assert (_as_reprs(run_sfl(*args).records)
                    == _as_reprs(_ref_sfl(*args)))

    @pytest.mark.parametrize("weighting", ["HT", "uniform"])
    @pytest.mark.parametrize("model", list(_REF_MODELS))
    @pytest.mark.parametrize("spec", list(_REF_SPECS))
    @pytest.mark.parametrize("arch", [CONV, PA])
    def test_run_afl(self, arch, spec, model, weighting):
        deadline, tick, horizon = _REF_MODELS[model]
        problem, xs = _ref_problem(3)
        args = (problem, xs, _REF_LINK, deadline, 0.2, _REF_SPECS[spec],
                horizon, arch, 3)
        kw = dict(weighting=weighting, tick_period=tick)
        records = run_afl(*args, **kw).records
        assert records
        assert _as_reprs(records) == _as_reprs(_ref_afl(*args, **kw))


@pytest.mark.parametrize("b, c_q", [(1, 1e-20), (27, 1.0)])
def test_loops_quantize_whenever_c_q_is_positive(b, c_q):
    # alpha rounds to 1 at these specs, and the loops still quantize
    problem, xs = _ref_problem(0)
    spec, lossless = QuantizerSpec(b, c_q), QuantizerSpec(b, 0.0)
    deadline = DeadlineModel(T_d=0.05)
    for arch in (CONV, PA):
        for loop, ref, args in (
                (run_sfl, _ref_sfl, lambda q: (problem, xs, _REF_LINK, 7, 0.2,
                                               q, 40, arch, 0)),
                (run_afl, _ref_afl, lambda q: (problem, xs, _REF_LINK,
                                               deadline, 0.2, q, 0.5, arch, 0))):
            got = _as_reprs(loop(*args(spec)).records)
            assert got == _as_reprs(ref(*args(spec)))
            assert got != _as_reprs(loop(*args(lossless)).records)
