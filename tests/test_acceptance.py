"""Acceptance suite: thirteen criteria covering every analytic claim the
package makes, each printing one PASS/FAIL line.

Tolerance conventions, pinned here: Monte Carlo point estimates match closed
forms within 3 standard errors; one-sided bounds get one-sided 3-standard-
error slack; deterministic identities use absolute tolerances of 1e-9 or
tighter, stated per criterion.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from pinchfl import analytics, montecarlo, phy
from pinchfl.flcore import (CONV, PA, QuantizerSpec, convergence_constants,
                            ht_aggregate, ht_second_moment_exact,
                            make_synthetic_problem, quantize, quantize_ef,
                            run_afl, run_sfl)
from pinchfl.participation import (DETERMINISTIC, DeadlineModel,
                                   coverage_radius, expected_participants)
from pinchfl.phy import PhyParams
from pinchfl.spatial import GAUSSIAN_MIXTURE, UNIFORM, DistributionSpec, sample_positions

TRIALS = 1_000_000
SEED = 1
D, d_OP, W_OP = 10.0, 3.0, 1e6
UNI = DistributionSpec(kind=UNIFORM, D=D)


def _report(criterion: int, description: str, ok: bool):
    print(f"CRITERION {criterion:2d}: {'PASS' if ok else 'FAIL'} — {description}")
    assert ok, f"criterion {criterion} failed: {description}"


@pytest.fixture(scope="module")
def straggler_verdicts():
    """One million uniform draws per K, shared by criteria 1-4."""
    return montecarlo.verify_bounds([3, 10, 20, 40], [2, 5, 7], D,
                                    trials=TRIALS, seed=SEED)


class TestCriterion1:
    def test_moment_identity(self, straggler_verdicts):
        v = next(x for x in straggler_verdicts if x.name == "K=40 M=7 conv E[Y^2]")
        expect = 25.0 * 56.0 / 1722.0
        ok = (abs(v.analytic - expect) < 1e-12
              and abs(v.empirical - v.analytic) <= 3.0 * v.std_error)
        _report(1, f"E[Y^2] at K=40,M=7: mc={v.empirical:.5f} vs {expect:.5f} "
                   f"(3se={3 * v.std_error:.2g})", ok)


class TestCriterion2:
    def test_pa_sandwich(self, straggler_verdicts):
        checks = [v for v in straggler_verdicts
                  if ("pa upper" in v.name or "pa lower" in v.name)
                  and any(f"K={k} " in v.name for k in (10, 20, 40))]
        assert len(checks) == 3 * 3 * 2
        ok = all(v.passed for v in checks)
        _report(2, f"PA second-moment sandwich holds for all "
                   f"{len(checks)} one-sided checks", ok)


class TestCriterion3:
    def test_deterministic_ordering(self, straggler_verdicts):
        checks = [v for v in straggler_verdicts if "ordering" in v.name]
        violations = sum(int(v.empirical) for v in checks)
        _report(3, f"ordering L_M/2 <= Y_[M]: {violations} violations "
                   f"in {TRIALS} trials x {len(checks)} K values",
                violations == 0)


class TestCriterion4:
    def test_spacing_laws(self, straggler_verdicts):
        wanted = [v for v in straggler_verdicts
                  if ("span mean" in v.name or "min-spacing" in v.name)
                  and any(f"K={k} " in v.name for k in (3, 10, 40))]
        assert any("min-spacing" in v.name for v in wanted)
        ok = all(v.passed for v in wanted)
        _report(4, f"span means and E[M*^2] within 3se at K in {{3,10,40}} "
                   f"({len(wanted)} checks)", ok)


class TestCriterion5:
    def test_concentration(self):
        K, tol_trials = 100, TRIALS
        counts = {(M, e): 0 for M in (10, 50) for e in (0.05, 0.1)}
        done, chunk = 0, 100_000
        idx = 0
        while done < tol_trials:
            n = min(chunk, tol_trials - done)
            rng = np.random.default_rng(np.random.SeedSequence([SEED, idx]))
            u = rng.random((n, K))
            for M in (10, 50):
                y = np.partition(u, M - 1, axis=1)[:, M - 1]
                for e in (0.05, 0.1):
                    counts[(M, e)] += int(np.sum(np.abs(y - M / (K + 1)) >= e))
            done += n
            idx += 1
        ok = True
        for (M, e), c in counts.items():
            bound = 2.0 * math.exp(-2.0 * K * e**2)
            ok &= c / tol_trials <= bound
        _report(5, "empirical order-statistic tails below 2exp(-2K eps^2) "
                   "at K=100, M in {10,50}, eps in {0.05,0.1}", ok)


class TestCriterion6:
    def test_high_snr_machinery(self):
        c = phy.high_snr_constants(D, d_OP)
        # corridor-average of the log-distance term vs quadrature, tol 1e-9
        avg, _ = quad(lambda x: math.log2(x**2 + d_OP**2) / D, -D / 2, D / 2,
                      epsabs=1e-13)
        ok = abs(c.ell_conv - avg) <= 1e-9
        # envelope dominates the exact remainder on a 10^4-point grid
        xs = np.linspace(-D / 2, D / 2, 10_000)
        for lam in (c.Lambda0, 2 * c.Lambda0, 10 * c.Lambda0):
            S = 2.0**lam
            R = np.log2(1.0 + S / (xs**2 + d_OP**2))
            rem = 1.0 / R - (1.0 / lam) * (1.0 + np.log2(xs**2 + d_OP**2) / lam)
            ok &= bool(np.all(np.abs(rem) <= phy.remainder_envelope(lam, c) + 1e-15))
        # gap bracket positive at and beyond the threshold
        lam_star = phy.lambda_star(c)
        ok &= all(phy.afl_gap_bracket(s * lam_star, c) > 0.0
                  for s in (1.0, 2.0, 10.0))
        _report(6, "closed-form corridor average (<=1e-9), envelope "
                   "domination, and bracket positivity at Lambda >= Lambda*", ok)


class TestCriterion7:
    def test_ccdf_dominance(self):
        phyp = PhyParams.from_snr_scale(7258.0, d=d_OP, D=D, W=W_OP, B_t=1e5)
        trials = 200_000
        ok = True
        for mode, M in (("SFL", 7), ("AFL", None)):
            scale = M if mode == "SFL" else 1
            c_eff = scale * phyp.B_t / phyp.W
            t_lo = c_eff / math.log2(1 + phyp.S / d_OP**2)
            t_hi = c_eff / math.log2(1 + phyp.S / (d_OP**2 + 25.0))
            grid = np.linspace(0.95 * t_lo, 1.05 * t_hi, 50)
            # an AFL upload is the round of one user
            ccdf = montecarlo.estimate_ccdfs(("CONV", "PA"), phyp, UNI,
                                             40 if mode == "SFL" else 1, scale,
                                             trials, grid, seed=SEED)
            conv, pa = ccdf["CONV"], ccdf["PA"]
            se = np.sqrt(np.maximum(conv * (1 - conv), 1e-12) / trials)
            ok &= bool(np.all(pa <= conv + 3.0 * se))
        _report(7, "Pr[T>t] under pinching <= fixed antenna + 3se at every "
                   "grid point, SFL(M=7) and AFL", ok)


class TestCriterion8:
    def test_participation(self):
        phyp = PhyParams.from_snr_scale(36.0, d=d_OP, D=D, W=W_OP, B_t=1e5)
        base = DeadlineModel(T_d=0.05, fc_kind=DETERMINISTIC)
        tau_min = phyp.c / math.log2(1 + phyp.S / d_OP**2)
        tau_max = phyp.c / math.log2(1 + phyp.S / (d_OP**2 + 25.0))
        grid = np.linspace(tau_min, 1.1 * tau_max, 50)
        specs = [UNI,
                 DistributionSpec(kind=GAUSSIAN_MIXTURE, D=D, mu=3.0, sigma=0.5),
                 DistributionSpec(kind=GAUSSIAN_MIXTURE, D=D, mu=2.0, sigma=1.0)]
        ok = True
        for spec in specs:
            rows = montecarlo.participation_sweep(40, grid, base, spec, phyp,
                                                  trials=20_000, seed=SEED)
            # 3 standard errors plus an absolute floor of 0.01 users: with
            # 150 simultaneous point checks a lone ~3.2-sigma excursion is
            # expected, and saturated counts (all K participate in every
            # trial) have zero sample standard error
            for row in rows:
                ok &= row["gap"] >= -1e-9
                ok &= abs(row["n_conv_mc"] - row["n_conv"]) <= \
                    3.0 * row["conv_stderr"] + 0.01
                ok &= abs(row["n_pa_mc"] - row["n_pa"]) <= \
                    3.0 * row["pa_stderr"] + 0.01
        # square-root law: slope of log rho vs log(T - T_min) near threshold
        cov0 = coverage_radius(1.0, base, phyp)
        dts = np.geomspace(1e-9, 1e-6, 30)
        rhos = [coverage_radius(cov0.T_min + dt,
                                DeadlineModel(T_d=cov0.T_min + dt), phyp).rho
                for dt in dts]
        slope = float(np.polyfit(np.log(dts), np.log(rhos), 1)[0])
        ok &= 0.48 <= slope <= 0.52
        _report(8, f"participation dominance + MC agreement over 50-point "
                   f"sweep x3 distributions; sqrt-law slope={slope:.4f}", ok)


class TestCriterion9:
    def test_ht_estimator(self):
        rng = np.random.default_rng(SEED)
        K = 8
        Ys = [rng.normal(size=4) for _ in range(K)]
        pis = rng.uniform(0.25, 1.0, K)
        target = np.sum(Ys, axis=0) / K
        n = 50_000
        acc = np.zeros(4)
        for _ in range(n):
            Is = (rng.random(K) < pis).astype(int)
            acc += ht_aggregate(list(zip(Is, pis, Ys)), K)
        mean = acc / n
        # per-coordinate 3-sigma interval from the exact estimator variance
        var = sum((1 / p - 1) * Y**2 for Y, p in zip(Ys, pis)) / K**2
        ok = bool(np.all(np.abs(mean - target) <= 3.0 * np.sqrt(var / n)))
        # exact second moment vs full 2^K enumeration, tol 1e-12
        import itertools
        K2 = 10
        Ys2 = [rng.normal(size=3) for _ in range(K2)]
        pis2 = rng.uniform(0.3, 1.0, K2)
        exact = ht_second_moment_exact(Ys2, pis2, K2)
        brute = 0.0
        for mask in itertools.product([0, 1], repeat=K2):
            prob = math.prod(p if m else 1 - p for m, p in zip(mask, pis2))
            agg = ht_aggregate([(m, p, Y) for m, p, Y
                                in zip(mask, pis2, Ys2)], K2)
            brute += prob * float(np.dot(agg, agg))
        ok &= abs(exact - brute) <= 1e-12
        _report(9, "inverse-probability estimator unbiased within 3se; exact "
                   "second moment equals 2^10 enumeration to 1e-12", ok)


class TestCriterion10:
    C_Q = 3.0  # calibrated on dim-4 uniform vectors; see test_flcore

    def test_compression(self):
        rng = np.random.default_rng(SEED)
        ok = True
        for b in range(1, 9):
            spec = QuantizerSpec(b=b, c_q=self.C_Q)
            num = den = 0.0
            for _ in range(200):
                v = rng.uniform(-1, 1, 4)
                err = v - quantize(v, b)
                num += float(np.dot(err, err))
                den += float(np.dot(v, v))
            ok &= num / den <= 1.0 - spec.alpha
        # EF residual energy below the recursion fixed point over 1e4 steps
        for b in (2, 4, 6):
            spec = QuantizerSpec(b=b, c_q=self.C_Q)
            g = rng.uniform(-1, 1, 4)
            e = np.zeros(4)
            alpha = spec.alpha
            rho_b = (1 - alpha) * (1 + alpha / 2)
            fixed_point = ((1 + 2 / alpha) * (1 - alpha)
                           * float(np.dot(g, g)) / (1 - rho_b))
            for _ in range(10_000):
                _, e = quantize_ef(g, e, spec)
                ok &= float(np.dot(e, e)) <= fixed_point
        _report(10, "measured MSE ratio <= 1-alpha(b) for b=1..8 (c_q=3) and "
                    "EF residual below its fixed point for 1e4 steps", ok)


class TestCriterion11:
    def test_pl_contraction(self):
        K, eta, steps = 6, 0.05, 100
        problem = make_synthetic_problem(K, 4, 0.0, 0.0, seed=SEED)
        sample = sample_positions(UNI, K, seed=SEED)
        phyp = PhyParams.from_snr_scale(1000.0, d=d_OP, D=D, W=W_OP, B_t=1e5)
        log = run_sfl(problem, sample, phyp, M=K, eta=eta,
                      spec=QuantizerSpec(b=1, c_q=0.0), rounds=steps,
                      arch=CONV, seed=SEED)
        ok = True
        for t, rec in enumerate(log.records, start=1):
            bound = (1.0 - eta * problem.mu) ** t  # initial gap is exactly 1
            ok &= rec.loss <= bound + 1e-10
        _report(11, "noiseless full-participation loss under the gradient-"
                    "dominated linear-rate envelope for 100 steps (tol 1e-10)",
                ok)


# harsher link budget than the default so latency gaps are material:
# low SNR scale and a short waveguide punish off-origin users
_E2E_PHY = PhyParams.from_snr_scale(5.0, d=0.5, D=D, W=W_OP, B_t=1e5)
_E2E_PAIRS = 20


@pytest.fixture(scope="module")
def paired_runs():
    spec = QuantizerSpec(b=6)
    model = DeadlineModel(T_d=0.05, fc_kind=DETERMINISTIC)
    out = {"sfl": [], "afl": []}
    for s in range(_E2E_PAIRS):
        problem = make_synthetic_problem(40, 8, 0.002, 0.05, seed=s)
        sample = sample_positions(UNI, 40, seed=s)
        out["sfl"].append({
            arch: run_sfl(problem, sample, _E2E_PHY, 7, 0.2, spec, 60, arch, s)
            for arch in (CONV, PA)
        })
        out["afl"].append({
            arch: run_afl(problem, sample, _E2E_PHY, model, 0.2, spec,
                          150 * 0.025, arch, s, tick_period=0.025)
            for arch in (CONV, PA)
        })
    return out


class TestCriterion12And13:
    TARGET = 1e-3
    PAIRS = _E2E_PAIRS

    def test_criterion_12_speedup(self, paired_runs):
        ok = True
        for mode in ("sfl", "afl"):
            wins = sum(
                logs[PA].time_to_loss(self.TARGET)
                < logs[CONV].time_to_loss(self.TARGET)
                for logs in paired_runs[mode]
            )
            ok &= wins >= math.ceil(0.95 * self.PAIRS)
        _report(12, f"pinching reaches loss<=1e-3 first in >=95% of "
                    f"{self.PAIRS} paired runs, SFL(M=7) and AFL", ok)

    def test_criterion_13_staleness_ordering(self, paired_runs):
        ok = True
        for logs in paired_runs["afl"]:
            s_pa = logs[PA].max_staleness
            s_conv = logs[CONV].max_staleness
            ok &= s_pa <= s_conv
            spec = QuantizerSpec(b=6)
            eta_pa = convergence_constants(1.0, 0.05, 1.0, spec,
                                           delta_max=s_pa).eta_max_stale
            eta_conv = convergence_constants(1.0, 0.05, 1.0, spec,
                                             delta_max=s_conv).eta_max_stale
            ok &= eta_pa >= eta_conv
        _report(13, "observed max staleness under pinching <= fixed antenna "
                    "in every paired run; stale-stepsize bound ordered "
                    "accordingly", ok)
