"""Chunked trial runners: determinism, CCDF shape, and bound verdicts."""

import numpy as np
import pytest

from pinchfl import montecarlo
from pinchfl.errors import ParameterError
from pinchfl.participation import (DETERMINISTIC, SHIFTED_EXPONENTIAL,
                                   DeadlineModel)
from pinchfl.phy import PhyParams, upload_latency
from pinchfl.spatial import (GAUSSIAN_MIXTURE, UNIFORM, DistributionSpec,
                             draw_positions)

PHY = PhyParams.from_snr_scale(1000.0, d=3.0, D=10.0, W=1e6, B_t=1e5)
UNI = DistributionSpec(kind=UNIFORM, D=10.0)
GM = DistributionSpec(kind=GAUSSIAN_MIXTURE, D=10.0, mu=3.0, sigma=0.5)
GRID = np.linspace(0.0, 0.2, 30)


@pytest.fixture
def no_draws(monkeypatch):
    """Fail any test that reaches a Monte Carlo draw."""
    def _chunk_rng(seed, chunk_index):
        raise AssertionError("drew trials before rejecting the input")
    monkeypatch.setattr(montecarlo, "_chunk_rng", _chunk_rng)


class TestEstimateCcdf:
    def test_deterministic_rerun(self):
        a = montecarlo.estimate_ccdf("SFL", "CONV", PHY, UNI, 20, 5, 5000,
                                     GRID, seed=3)
        b = montecarlo.estimate_ccdf("SFL", "CONV", PHY, UNI, 20, 5, 5000,
                                     GRID, seed=3)
        assert np.array_equal(a.ccdf, b.ccdf)

    def test_ccdf_monotone_nonincreasing(self):
        s = montecarlo.estimate_ccdf("SFL", "PA", PHY, UNI, 20, 5, 5000,
                                     GRID, seed=1)
        assert np.all(np.diff(s.ccdf) <= 1e-12)
        assert np.all((0.0 <= s.ccdf) & (s.ccdf <= 1.0))

    def test_pa_dominates_conv_paired(self):
        kw = dict(phy=PHY, spec=UNI, K=20, M_or_model=5, trials=20_000,
                  grid=GRID, seed=9)
        conv = montecarlo.estimate_ccdf("SFL", "CONV", **kw)
        pa = montecarlo.estimate_ccdf("SFL", "PA", **kw)
        # same seed means the same position draws: dominance is exact
        assert np.all(pa.ccdf <= conv.ccdf + 1e-12)

    def test_afl_pa_is_degenerate(self):
        tau = PHY.c / np.log2(1.0 + PHY.S / PHY.d**2)
        grid = np.array([tau * 0.99, tau * 1.01])
        s = montecarlo.estimate_ccdf("AFL", "PA", PHY, UNI, 1, None, 1000,
                                     grid, seed=0)
        assert s.ccdf[0] == 1.0 and s.ccdf[1] == 0.0

    def test_rejects_bad_inputs(self, no_draws):
        with pytest.raises(ParameterError):
            montecarlo.estimate_ccdf("SFL", "CONV", PHY, UNI, 20, 5, 0,
                                     GRID, seed=0)
        with pytest.raises(ParameterError):
            montecarlo.estimate_ccdf("batch", "CONV", PHY, UNI, 20, 5, 10,
                                     GRID, seed=0)
        with pytest.raises(ParameterError):
            montecarlo.estimate_ccdf("SFL", "CONV", PHY, UNI, 20, 5, 10,
                                     GRID[::-1], seed=0)
        # K < 1 or not integral, and M outside [1, K] or not integral under
        # SFL, fail before any draw
        for mode, arch, K, M in [("SFL", "CONV", 20, 0), ("SFL", "PA", 20, 0),
                                 ("SFL", "CONV", 20, -1), ("SFL", "CONV", 20, 21),
                                 ("SFL", "PA", 20, 21), ("SFL", "CONV", 0, 1),
                                 ("SFL", "CONV", 20, 2.9), ("SFL", "PA", 4.5, 2),
                                 ("AFL", "CONV", 0, None), ("AFL", "CONV", 4.5, None)]:
            with pytest.raises(ParameterError):
                montecarlo.estimate_ccdf(mode, arch, PHY, UNI, K, M, 10, GRID,
                                         seed=0)

    @pytest.mark.parametrize("mode", ["SFL", "AFL"])
    @pytest.mark.parametrize("arch", ["CONV", "PA"])
    def test_counts_match_pairwise_reference(self, monkeypatch, mode, arch):
        # several chunks, the last one partial
        monkeypatch.setattr(montecarlo, "CHUNK", 1000)
        trials, seed, K, M = 2500, 6, 12, 4
        afl_pa = upload_latency(PHY.B_t / PHY.W, 0.0, 0.0, PHY.S, PHY.d)
        grid = np.sort(np.concatenate([GRID, [afl_pa, afl_pa]]))
        s = montecarlo.estimate_ccdf(mode, arch, PHY, UNI, K, M, trials, grid,
                                     seed=seed)
        exceed = np.zeros(grid.size)
        for chunk, n in montecarlo._chunks(trials):
            rng = montecarlo._chunk_rng(seed, chunk)
            if mode == "SFL":
                lat = montecarlo.sfl_round_latencies(rng, UNI, K, M, PHY, arch, n)
            else:
                lat = montecarlo.afl_upload_latencies(rng, UNI, PHY, arch, n)
            exceed += (lat[:, None] > grid[None, :]).sum(axis=0)
        assert np.array_equal(s.ccdf, exceed / trials)


class TestVerifyBounds:
    def test_small_grid_all_pass(self):
        verdicts = montecarlo.verify_bounds([10, 20], [2, 5], 10.0,
                                            trials=40_000, seed=2)
        names = {v.name for v in verdicts}
        assert any("ordering" in n for n in names)
        assert any("min-spacing" in n for n in names)
        assert all(v.passed for v in verdicts), [
            (v.name, v.analytic, v.empirical) for v in verdicts if not v.passed
        ]

    def test_skips_m_above_k(self):
        verdicts = montecarlo.verify_bounds([3], [2, 7], 10.0, trials=5000,
                                            seed=0)
        assert not any("M=7" in v.name for v in verdicts)

    def test_rejects_bad_inputs(self, no_draws):
        for K_grid, M_grid, trials in [([5], [2], 0), ([5, 0], [1], 10),
                                       ([5], [2, -1], 10), ([10], [2.9], 10),
                                       ([10.5], [2], 10), ([10, 4.5], [2], 10)]:
            with pytest.raises(ParameterError):
                montecarlo.verify_bounds(K_grid, M_grid, 10.0, trials=trials,
                                         seed=0)

    def test_matches_row_major_reference(self, monkeypatch):
        # several chunks, the last one partial
        monkeypatch.setattr(montecarlo, "CHUNK", 700)
        K_grid, M_grid = [1, 2, 3, 10], [1, 2, 5, 7]
        D, trials, seed = 10.0, 1600, 5
        verdicts = montecarlo.verify_bounds(K_grid, M_grid, D, trials, seed)
        ref = _row_major_reference(K_grid, M_grid, D, trials, seed, eps=0.1)
        got = {v.name: (v.empirical, v.std_error) for v in verdicts}
        assert len(got) == len(verdicts)
        assert {n for n in ref if "hoeffding" not in n} <= set(got) <= set(ref)
        for name, value in got.items():
            assert value == ref[name], name


def _row_major_reference(K_grid, M_grid, D, trials, seed, eps):
    """Empirical value and standard error of every verdict, from a per-trial
    row-major loop: |x| re-sorted, all K+1 spacings stacked as columns, and
    each PA window found by argmin before its span is read."""
    ref = {}
    for K in K_grid:
        Ms = [M for M in M_grid if M <= K]
        conv, pa, tail, span = ({M: montecarlo._Moment() for M in Ms}
                                for _ in range(4))
        minspace = montecarlo._Moment()
        violations = 0
        for chunk, n in montecarlo._chunks(trials):
            u = montecarlo._chunk_rng(seed, chunk).random((n, K))
            xs = np.sort(D * (u - 0.5), axis=1)
            abs_sorted = np.sort(np.abs(xs), axis=1)
            unit = (xs + D / 2.0) / D
            all_sp = np.column_stack([unit[:, 0], np.diff(unit, axis=1),
                                      1.0 - unit[:, -1]])
            minspace.add(all_sp.min(axis=1) ** 2)
            for M in Ms:
                y = abs_sorted[:, M - 1]
                spans = xs[:, M - 1:] - xs[:, : K - M + 1]
                half = spans[np.arange(n), spans.argmin(axis=1)] / 2.0
                conv[M].add(y**2)
                pa[M].add(half**2)
                violations += int(np.sum(half > y + 1e-12))
                tail[M].add((np.abs(y / (D / 2.0) - M / (K + 1)) >= eps)
                            .astype(float))
                span[M].add((xs[:, M - 1] - xs[:, 0]) / D)
        ref[f"K={K} ordering pa<=conv"] = (float(violations), 0.0)
        ref[f"K={K} min-spacing E[M*^2]"] = (minspace.mean, minspace.std_error)
        for M in Ms:
            key = f"K={K} M={M}"
            ref[f"{key} conv E[Y^2]"] = (conv[M].mean, conv[M].std_error)
            ref[f"{key} pa upper"] = ref[f"{key} pa lower"] = (pa[M].mean,
                                                              pa[M].std_error)
            ref[f"{key} hoeffding tail"] = (tail[M].mean, tail[M].std_error)
            if M >= 2:
                ref[f"{key} span mean"] = (span[M].mean, span[M].std_error)
    return ref


class TestParticipationSweep:
    def test_mc_matches_closed_form(self):
        model = DeadlineModel(T_d=0.0, fc_kind=DETERMINISTIC)
        tau_min = PHY.c / np.log2(1.0 + PHY.S / PHY.d**2)
        tau_max = PHY.c / np.log2(1.0 + PHY.S / (PHY.d**2 + 25.0))
        grid = np.linspace(tau_min, 1.05 * tau_max, 8)
        rows = montecarlo.participation_sweep(20, grid, model, UNI, PHY,
                                              trials=20_000, seed=4)
        for row in rows:
            tol = 3.0 * row["conv_stderr"] + 1e-6
            assert abs(row["n_conv_mc"] - row["n_conv"]) <= tol
            assert row["n_pa_mc"] == pytest.approx(row["n_pa"], abs=1e-9)
            assert row["gap"] >= -1e-9

    def test_rejects_bad_inputs(self, no_draws):
        model = DeadlineModel(T_d=0.0, fc_kind=DETERMINISTIC)
        with pytest.raises(ParameterError):
            montecarlo.participation_sweep(5, [0.01, 0.02], model, UNI, PHY,
                                           trials=0, seed=0)
        with pytest.raises(ParameterError):
            montecarlo.participation_sweep(5, [0.02, 0.01], model, UNI, PHY,
                                           trials=10, seed=0)
        for K in (0, 4.5):
            with pytest.raises(ParameterError):
                montecarlo.participation_sweep(K, [0.01, 0.02], model, UNI,
                                               PHY, trials=10, seed=0)

    @pytest.mark.parametrize("spec", [UNI, GM], ids=["uniform", "gm"])
    @pytest.mark.parametrize("model", [
        DeadlineModel(T_d=0.0, fc_kind=DETERMINISTIC, t0=0.002),
        DeadlineModel(T_d=0.0, fc_kind=SHIFTED_EXPONENTIAL, t0=0.001,
                      rate=300.0),
    ], ids=["deterministic", "shifted_exp"])
    def test_common_draws_match_per_deadline_reference(self, monkeypatch,
                                                       spec, model):
        # several chunks, the last one partial
        monkeypatch.setattr(montecarlo, "CHUNK", 700)
        K, trials, seed = 9, 1600, 3
        tau_pa = upload_latency(PHY.c, 0.0, 0.0, PHY.S, PHY.d)
        pinned = model.t0 + tau_pa
        grid = np.sort(np.concatenate([
            np.linspace(0.9 * pinned, pinned + 0.02, 7), [pinned, pinned],
        ]))
        rows = montecarlo.participation_sweep(K, grid, model, spec, PHY,
                                              trials, seed)
        conv = [montecarlo._Moment() for _ in grid]
        pa = [montecarlo._Moment() for _ in grid]
        for chunk, n in montecarlo._chunks(trials):
            rng = montecarlo._chunk_rng(seed, chunk)
            tau_conv = upload_latency(PHY.c, draw_positions(rng, spec, (n, K)),
                                      0.0, PHY.S, PHY.d)
            if model.fc_kind == DETERMINISTIC:
                T_c = np.full((n, K), model.t0)
            else:
                T_c = model.t0 + rng.exponential(1.0 / model.rate, size=(n, K))
            for j, T_d in enumerate(grid):
                conv[j].add((T_c + tau_conv <= T_d).sum(axis=1))
                pa[j].add((T_c + tau_pa <= T_d).sum(axis=1))
        got = [(r["n_conv_mc"], r["n_pa_mc"], r["conv_stderr"], r["pa_stderr"])
               for r in rows]
        want = [(c.mean, p.mean, c.std_error, p.std_error)
                for c, p in zip(conv, pa)]
        assert got == want
        # the grid straddles the earliest PA finishing time
        assert rows[0]["n_pa_mc"] == 0 < rows[-1]["n_pa_mc"]
