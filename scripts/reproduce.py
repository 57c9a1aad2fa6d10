#!/usr/bin/env python3
"""Reproduce the experiment artifacts from one table of runs.

    python scripts/reproduce.py [name ...]

runs the named entries of ``RUNS``, or all of them, through
``pinchfl.cli.main`` with ``--out artifacts/<name>``. Each entry is an argv
and the exit code it must give; a run that must fail must also leave no
artifact directory. The driver prints, in ``sha256sum`` format, the sha256 of
every artifact it wrote, so ``sha256sum -c`` rechecks a saved listing; the
commands' own summaries go to stderr. It exits 1 if any run breaks its entry.

The table has three readers: this driver, the ledger test
(``tests/test_ledger.py``, which compares each run's rows and metrics with
``tests/data/ledger.json``) and CI, which runs the whole table without scipy
and checks further properties of some entries by name.
"""

import contextlib
import hashlib
import os
import sys

from pinchfl.cli import main

_TRAIN = "--k 40 --bits 6 --sigma-grad 0.05 --delta2 0.05 --eta 0.1 --seed 21"
_NOISY = "--sigma-grad 0.05 --delta2 0.05"
_MIXTURE = "--dist gaussian_mixture --mu 3 --sigma-x 0.5"
_EXPONENTIAL = "--fc-kind shifted_exponential --rate 200"

# name: (argv, exit code). The first eight are the paper's figures and the
# full verification; the benchmark's sweep and train workloads repeat them,
# and participation_exp, at workload seed 0.
RUNS = {
    "verify": ("verify --k 40 --m 7 --corridor 10 --trials 1000000 --seed 1", 0),
    "ccdf_sfl": ("ccdf --mode sfl --m 7 --trials 200000 --seed 11", 0),
    "ccdf_afl": ("ccdf --mode afl --trials 200000 --seed 11", 0),
    "highsnr": ("highsnr", 0),
    "participation_uniform": ("participation --trials 20000 --seed 5", 0),
    "participation_gm": (f"participation {_MIXTURE} --trials 20000 --seed 5", 0),
    "train_sfl": (f"train --mode sfl --arch both --m 7 --rounds 300 {_TRAIN}", 0),
    "train_afl": (f"train --mode afl --arch both --rounds 300 {_TRAIN}", 0),
    "participation_exp": (f"participation {_EXPONENTIAL} --trials 20000 --seed 5", 0),
    # each command and mode at reduced trials or rounds, both distributions
    # and both compute-time families
    "verify_k8_m3": ("verify --k 8 --m 3 --trials 2000", 0),
    "ccdf_sfl_small": ("ccdf --mode sfl --trials 2000", 0),
    "ccdf_afl_small": ("ccdf --mode afl --trials 2000", 0),
    "ccdf_sfl_pa_gm": (f"ccdf --mode sfl --arch PA {_MIXTURE} --m 3 --trials 2000", 0),
    "ccdf_afl_conv": ("ccdf --mode afl --arch CONV --trials 2000", 0),
    "participation_exp_small": (f"participation {_EXPONENTIAL} --trials 2000", 0),
    "participation_gm_small": (f"participation {_MIXTURE} --trials 2000", 0),
    "train_sfl_small": ("train --mode sfl --rounds 20", 0),
    "train_sfl_pa_gm": (f"train --mode sfl --arch PA {_MIXTURE} --m 5 --rounds 20", 0),
    "train_sfl_cq0": (f"train --mode sfl --c-q 0 {_NOISY} --rounds 20", 0),
    "train_afl_small": ("train --mode afl --rounds 20", 0),
    "train_afl_exp": (f"train --mode afl {_EXPONENTIAL} --rounds 20", 0),
    "train_afl_uniform": (f"train --mode afl --weighting uniform {_NOISY} --rounds 20", 0),
    # K below the default M=7: participation never reads M
    "participation_k5": ("participation --k 5 --trials 100", 0),
    # the schedule's edge windows: one window of all K users, K windows of
    # one user each, and one user alone
    "train_sfl_k7_m7": ("train --mode sfl --arch both --k 7 --m 7 --rounds 20", 0),
    "train_sfl_k3_m1": ("train --mode sfl --arch both --k 3 --m 1 --rounds 20", 0),
    "train_sfl_k1_m1": ("train --mode sfl --arch both --k 1 --m 1 --rounds 20", 0),
    # the ends of the bit budget, where the top clip acts; at the defaults
    # every gradient row is constant and the quantizer returns it exactly
    "train_sfl_b1": (f"train --mode sfl --bits 1 --rounds 20 {_NOISY}", 0),
    "train_sfl_b53": (f"train --mode sfl --bits 53 --rounds 20 {_NOISY}", 0),
    "train_afl_b1": (f"train --mode afl --bits 1 --rounds 20 {_NOISY}", 0),
    "train_afl_b53": (f"train --mode afl --bits 53 --rounds 20 {_NOISY}", 0),
    # AFL with thinned triggers; under a 4 ms tick and the 12 ms deadline
    # each batch waits up to three ticks
    "train_afl_ps07": (f"train --mode afl --arch both {_EXPONENTIAL} --p-s 0.7 "
                       f"{_NOISY} --rounds 100", 0),
    "train_afl_pending": (f"train --mode afl --arch both {_EXPONENTIAL} --p-s 0.7 "
                          f"--tick 0.004 {_NOISY} --rounds 100", 0),
    # verify's peak RSS at two K, one (4096, K) block each
    "verify_rss_k40": ("verify --k 40 --m 7 --trials 20000", 0),
    "verify_rss_k200": ("verify --k 200 --m 7 --trials 20000", 0),
    # across row blocks, ending in a partial one: row chunks of 128 (K=200),
    # 2048 (K=9) and 32 (K=1000) rows, each the largest divisor of the
    # 4096-row block that fits the workspace
    "verify_k200": ("verify --k 200 --m 7 --trials 110000", 0),
    "verify_k9": ("verify --k 9 --m 5 --trials 9001", 0),
    "verify_k1000": ("verify --k 1000 --m 7 --trials 9001", 0),
    "ccdf_k200": ("ccdf --mode sfl --k 200 --m 7 --trials 110000", 0),
    "participation_k200": (f"participation --k 200 {_MIXTURE} {_EXPONENTIAL} "
                           f"--trials 110000", 0),
    # one window per M: at K=2 the interior gap scan is a single width, at
    # K=1 only the two edge gaps make the minimum spacing
    "verify_k7_m7": ("verify --k 7 --m 7 --trials 5000", 0),
    "verify_k2_m2": ("verify --k 2 --m 2 --trials 5000", 0),
    "verify_k1_m1": ("verify --k 1 --m 1 --trials 5000", 0),
    # M past K/2: no selection; CONV scans its 20 windows in three chunks
    "verify_k40_m21": ("verify --k 40 --m 21 --trials 20000", 0),
    # zeta = D / (2 d) far below 0.1, where g(zeta) is summed from its series
    "highsnr_short_corridor": ("highsnr --corridor 1e-9", 0),
    "highsnr_high_radiator": ("highsnr --height 1e9", 0),
    # exit 1: a flag the command does not read
    "unread_dist_verify": ("verify --dist gaussian_mixture", 1),
    "unread_snr_highsnr": ("highsnr --snr 1e6", 1),
    # the sweep counts the users that finish by the deadline, triggered or
    # not: only the AFL training gate draws the trigger
    "unread_p_s_participation": ("participation --p-s 0.5", 1),
    # exit 2: a key read only in another mode or distribution, a value out
    # of range
    "unread_m_train_afl": ("train --mode afl --m 3", 2),
    "unread_mu_ccdf": ("ccdf --mu 3", 2),
    "unread_k_ccdf_afl": ("ccdf --mode afl --k 3 --trials 100", 2),
    "bits54": ("train --bits 54 --rounds 2", 2),
    "one_user_delta2": ("train --k 1 --m 1 --delta2 0.05", 2),
    "seed_neg_participation": ("participation --trials 10 --seed -1", 2),
    "seed_neg_verify": ("verify --trials 10 --seed -1", 2),
    "seed_neg_ccdf": ("ccdf --trials 10 --seed -1", 2),
    "seed_neg_train": ("train --rounds 2 --seed -1", 2),
    # exit 3: an SNR scale this small rounds every rate to zero, a step
    # this large diverges, with and without the quantizer, and a corridor
    # this short puts lambda* where its cube overflows, or at infinity, also
    # where zeta^2 underflows in the series of g(zeta)
    "dead_link_train_afl_conv": ("train --mode afl --arch CONV --snr 1e-30", 3),
    "dead_link_train_afl_pa": ("train --mode afl --arch PA --snr 1e-30", 3),
    "dead_link_train_sfl": ("train --mode sfl --snr 1e-30", 3),
    "dead_link_ccdf": ("ccdf --snr 1e-30", 3),
    "dead_link_participation": ("participation --snr 1e-30", 3),
    "diverge_sfl_cq0": ("train --mode sfl --c-q 0 --eta 1e155 --rounds 5", 3),
    "diverge_sfl_cq1": ("train --mode sfl --c-q 1 --eta 1e155 --rounds 5", 3),
    "diverge_afl_cq0": ("train --mode afl --c-q 0 --eta 1e155 --rounds 5", 3),
    "diverge_afl_cq1": ("train --mode afl --c-q 1 --eta 1e155 --rounds 5", 3),
    "highsnr_cube_overflow": ("highsnr --corridor 1e-50", 3),
    "highsnr_infinite_lambda_star": ("highsnr --corridor 1e-160", 3),
    "highsnr_zeta_underflow": ("highsnr --corridor 1e-170", 3),
}


def run(name):
    """Run one entry into ``artifacts/<name>`` and print the sha256 of each
    artifact; return what breaks the entry, or None."""
    argv, expected = RUNS[name]
    argv = argv.split()
    out = os.path.join("artifacts", name)
    with contextlib.redirect_stdout(sys.stderr):
        rc = main([*argv, "--out", out])
    if rc != expected:
        return f"{name}: exit code {rc}, expected {expected}"
    if rc != 0:
        return f"{name}: exit code {rc} left {out}" if os.path.exists(out) else None
    for ext in ("csv", "json"):
        path = os.path.join(out, f"{argv[0]}.{ext}")
        with open(path, "rb") as fh:
            print(f"{hashlib.sha256(fh.read()).hexdigest()}  {path}")
    return None


if __name__ == "__main__":
    names = sys.argv[1:] or list(RUNS)
    unknown = [name for name in names if name not in RUNS]
    if unknown:
        sys.exit(f"unknown runs: {' '.join(unknown)}")
    problems = [problem for name in names if (problem := run(name))]
    for problem in problems:
        print(problem, file=sys.stderr)
    sys.exit(1 if problems else 0)
