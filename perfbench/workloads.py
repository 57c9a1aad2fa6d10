"""One repetition of one benchmark workload, in a fresh interpreter.

Usage (``run.py`` launches this; it is not meant to be run by hand):

    python3 perfbench/workloads.py WORKLOAD SEED TRACED LAUNCH RESULT OUTDIR

``LAUNCH`` is the launcher's ``time.monotonic()`` just before it started this
process, so set-up time counts interpreter start-up.  The process imports
``pinchfl.cli``, validates a config, runs the workload body once (inside the
span tracer when ``TRACED`` is 1), then checks every output and writes one
JSON record to ``RESULT``.  Output checks run after the timed body.  With
``WORKLOAD`` ``setup`` it stops after set-up and records only set-up times.

Workload seed ``s`` offsets every source seed by ``s``: at ``s = 0`` each call
is exactly the call made by ``tests/test_acceptance.py`` or ``scripts/``.  The
shifted-exponential sweep has no source call; it uses the participation seed.
"""

import csv
import json
import math
import os
import resource
import sys
import time

LAYERS = ("spatial", "analytics", "phy", "participation", "flcore",
          "montecarlo", "config", "cli")

# Source seeds of the calls each workload repeats.
VERIFY_SEED = 1        # straggler_verdicts fixture
PARTICIPATION_SEED = 5  # scripts/fig_participation.py
CCDF_SEED = 11         # scripts/fig_ccdf.py
TRAIN_SEED = 21        # scripts/fig_training.py
PAIRS = 20             # paired_runs fixture: seeds 0..19
TARGET = 1e-3          # loss target of criteria 12 and 13

_t = time.perf_counter()
from pinchfl import cli, config, flcore, montecarlo, participation, phy, spatial  # noqa: E402
IMPORT_S = time.perf_counter() - _t


class Ops:
    """Operations of one body: what was attempted, returned values, failures
    by operation, and seed-dependent counts that are not failures."""

    def __init__(self):
        self.attempted = []
        self.results = {}
        self.failures = {}
        self.wrong = 0
        self.counts = {}

    def call(self, name, fn, *args, **kwargs):
        self.attempted.append(name)
        try:
            self.results[name] = fn(*args, **kwargs)
        except Exception as exc:  # every program failure is an operation failure
            self.fail(name, f"{type(exc).__name__}: {exc}")

    def cli(self, name, argv):
        """Run ``cli.main``; a non-zero exit fails the operation and leaves
        no artifacts to check."""
        self.call(name, cli.main, argv)
        if self.results.get(name, 0) != 0:
            self.fail(name, f"cli.main exit code {self.results.pop(name)}")

    def fail(self, name, reason, wrong=True):
        """Record a failed operation.  ``wrong=False`` marks an artifact that
        is unreadable (not strict JSON, a cell that is not a number) rather
        than a result that is missing or incorrect."""
        self.failures.setdefault(name, []).append(reason)
        self.wrong += wrong


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def _lenient_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _nonfinite_numbers(obj, skip=(), path=""):
    """Keys of non-finite numbers in a JSON tree, ignoring keys in ``skip``."""
    if isinstance(obj, dict):
        return [bad for k, v in obj.items() if k not in skip
                for bad in _nonfinite_numbers(v, skip, f"{path}.{k}")]
    if isinstance(obj, float) and not math.isfinite(obj):
        return [path]
    return []


def _csv_columns(path):
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return {h: [r[i] for r in rows] for i, h in enumerate(header)}


def check_cli_artifacts(ops, name, out, stem, finite_columns=None, skip_json=()):
    """Strict JSON and finite CSV/JSON values of one CLI run's artifacts."""
    base = os.path.join(out, stem)
    try:
        payload = _strict_json(base + ".json")
    except OSError as exc:
        ops.fail(name, f"missing artifact ({exc})")
        return {}
    except ValueError as exc:
        ops.fail(name, f"{stem}.json is not strict JSON ({exc})", wrong=False)
        payload = _lenient_json(base + ".json")
    bad = _nonfinite_numbers(payload["metrics"], skip_json)
    if bad:
        ops.fail(name, f"{stem}.json has non-finite values at {', '.join(bad)}")
    cols = _csv_columns(base + ".csv")
    for col in finite_columns or cols:
        numbers = [_number(v) for v in cols[col]]
        if None in numbers:
            ops.fail(name, f"{stem}.csv column {col} has cells that are not "
                           f"numbers, e.g. {cols[col][numbers.index(None)]!r}",
                     wrong=False)
        if not all(math.isfinite(x) for x in numbers if x is not None):
            ops.fail(name, f"{stem}.csv column {col} has non-finite values")
    return cols


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


# ---- verify -----------------------------------------------------------------

def verify_body(ops, seed, out):
    ops.call("verify_bounds", montecarlo.verify_bounds, [3, 10, 20, 40],
             [2, 5, 7], D=10.0, trials=10**6, seed=VERIFY_SEED + seed)


def verify_check(ops, out):
    name = "verify_bounds"
    verdicts = ops.results.get(name, [])
    ops.counts["montecarlo.verdicts_failed"] = int(sum(
        not v.passed for v in verdicts if v.kind != "exact"))
    for v in verdicts:
        if not all(map(math.isfinite, (v.analytic, v.empirical, v.std_error))):
            ops.fail(name, f"{v.name}: non-finite verdict")
        if "ordering" in v.name and v.empirical != 0:
            ops.fail(name, f"{v.name}: {int(v.empirical)} PA > CONV violations")


# ---- sweep ------------------------------------------------------------------

SWEEP_RUNS = {
    "participation_uniform": ["participation", "--trials", "20000"],
    "participation_gm": ["participation", "--dist", "gaussian_mixture",
                         "--mu", "3", "--sigma-x", "0.5", "--trials", "20000"],
    "participation_exp": ["participation", "--fc-kind", "shifted_exponential",
                          "--rate", "200", "--trials", "20000"],
    "ccdf_sfl": ["ccdf", "--mode", "sfl", "--m", "7", "--trials", "200000"],
    "ccdf_afl": ["ccdf", "--mode", "afl", "--trials", "200000"],
    "highsnr": ["highsnr"],
}


def sweep_body(ops, seed, out):
    for name, argv in SWEEP_RUNS.items():
        if argv[0] == "highsnr":  # closed forms only: no seed
            extra = []
        else:
            base = PARTICIPATION_SEED if argv[0] == "participation" else CCDF_SEED
            extra = ["--seed", str(base + seed)]
        ops.cli(name, [*argv, *extra, "--out", os.path.join(out, name)])


def sweep_check(ops, out):
    for name in ops.results:
        stem = SWEEP_RUNS[name][0]
        cols = check_cli_artifacts(ops, name, os.path.join(out, name), stem)
        if stem == "ccdf" and not all(0.0 <= v <= 1.0
                                      for c, vals in cols.items() if c != "t"
                                      for v in map(_number, vals)
                                      if v is not None):
            ops.fail(name, "ccdf.csv has an exceedance outside [0, 1]")


# ---- train ------------------------------------------------------------------

TRAIN_RUNS = {
    "train_sfl": ["train", "--mode", "sfl", "--arch", "both", "--m", "7",
                  "--rounds", "300"],
    "train_afl": ["train", "--mode", "afl", "--arch", "both", "--rounds", "300"],
}
TRAIN_COMMON = ["--k", "40", "--bits", "6", "--sigma-grad", "0.05",
                "--delta2", "0.05", "--eta", "0.1"]


def _paired_run(s):
    """One seed of the paired_runs fixture: CONV and PA, SFL and AFL."""
    uni = spatial.DistributionSpec(kind=spatial.UNIFORM, D=10.0)
    link = phy.PhyParams.from_snr_scale(5.0, d=0.5, D=10.0, W=1e6, B_t=1e5)
    spec = flcore.QuantizerSpec(b=6)
    model = participation.DeadlineModel(T_d=0.05,
                                        fc_kind=participation.DETERMINISTIC)
    problem = flcore.make_synthetic_problem(40, 8, 0.002, 0.05, seed=s)
    sample = spatial.sample_positions(uni, 40, seed=s)
    archs = (flcore.CONV, flcore.PA)
    return {
        "sfl": {a: flcore.run_sfl(problem, sample, link, 7, 0.2, spec, 60, a, s)
                for a in archs},
        "afl": {a: flcore.run_afl(problem, sample, link, model, 0.2, spec,
                                  150 * 0.025, a, s, tick_period=0.025)
                for a in archs},
    }


def train_body(ops, seed, out):
    for s in range(PAIRS):
        ops.call(f"paired_run_{s}", _paired_run, s + seed)
    for name, argv in TRAIN_RUNS.items():
        ops.cli(name, [*argv, *TRAIN_COMMON, "--seed", str(TRAIN_SEED + seed),
                       "--out", os.path.join(out, name)])


def _check_log(ops, name, label, log):
    times = [r.time for r in log.records]
    if not log.records:
        ops.fail(name, f"{label}: empty training log")
    elif not all(math.isfinite(r.loss) and math.isfinite(r.grad_norm2)
                 and math.isfinite(r.time) for r in log.records):
        ops.fail(name, f"{label}: non-finite loss, gradient norm or time")
    elif any(b < a for a, b in zip(times, times[1:])):
        ops.fail(name, f"{label}: event times decrease")


def train_check(ops, out):
    pa_first = staleness_ordered = 0
    for name, value in ops.results.items():
        if name in TRAIN_RUNS:
            check_cli_artifacts(ops, name, os.path.join(out, name), "train",
                                finite_columns=("time", "latency", "loss",
                                                "grad_norm2"),
                                skip_json=("time_to_target",))
            continue
        for mode, logs in value.items():
            for arch, log in logs.items():
                _check_log(ops, name, f"{mode} {arch}", log)
            pa_first += (logs[flcore.PA].time_to_loss(TARGET)
                         < logs[flcore.CONV].time_to_loss(TARGET))
        afl = value["afl"]
        staleness_ordered += (afl[flcore.PA].max_staleness
                              <= afl[flcore.CONV].max_staleness)
    ops.counts["flcore.pairs_pa_first"] = int(pa_first)
    ops.counts["flcore.pairs_staleness_ordered"] = int(staleness_ordered)


WORKLOADS = {
    "verify": (verify_body, verify_check),
    "sweep": (sweep_body, sweep_check),
    "train": (train_body, train_check),
}


def main(argv):
    workload, seed, traced, launch, result, out = argv
    seed, traced, launch = int(seed), traced == "1", float(launch)
    config.load_config(None, {"seed": seed})
    setup_s = time.monotonic() - launch
    if workload == "setup":
        with open(result, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s, "import_s": IMPORT_S}, fh)
        return 0

    body, check = WORKLOADS[workload]
    ops = Ops()
    tracer = None
    if traced:
        import spans
        tracer = spans.Tracer()
        tracer.install("pinchfl", LAYERS)
    usage0 = (resource.getrusage(resource.RUSAGE_SELF),
              resource.getrusage(resource.RUSAGE_CHILDREN))
    t0 = time.perf_counter()
    if tracer is None:
        body(ops, seed, out)
    else:
        tracer.run(lambda: body(ops, seed, out))
    wall_s = time.perf_counter() - t0
    usage1 = (resource.getrusage(resource.RUSAGE_SELF),
              resource.getrusage(resource.RUSAGE_CHILDREN))
    cpu_s = sum(b.ru_utime + b.ru_stime - a.ru_utime - a.ru_stime
                for a, b in zip(usage0, usage1))

    record = {"setup_s": setup_s, "import_s": IMPORT_S, "wall_s": wall_s,
              "cpu_s": cpu_s, "peak_rss_mb": usage1[0].ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        spans_path = os.path.join(out, "spans.npz")
        tracer.write(spans_path)
        record["trace"] = dict(spans.summarize(tracer.arrays()),
                               file=os.path.relpath(spans_path))
    check(ops, out)
    record.update(ops=len(ops.attempted), failures=ops.failures,
                  wrong=ops.wrong, counts=ops.counts)
    with open(result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
