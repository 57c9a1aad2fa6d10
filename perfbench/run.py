#!/usr/bin/env python3
"""pinchfl benchmark: time to a verified result on three workloads.

    python3 perfbench/run.py --workload {verify,sweep,train,all} \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports ``pinchfl`` from ``src/``.
Each repetition of a workload runs in its own fresh, single-threaded Python
process (BLAS/OpenMP pinned to one thread), one after another, until about
``--seconds`` have passed.  Byte-code caching is on, as for a user, whatever
the caller's environment says; a run first imports the package once,
untimed, so the caches are warm.

Times are in reference seconds.  The speed of a core of a shared host drifts
by tens of percent, over seconds and over minutes, and a kernel timed on the
other core of a 2-core guest follows it only loosely.  So the runner and
every child run pinned to one core, and while a child runs the runner times
a fixed reference kernel on that core every ``REF_PERIOD_S`` (it preempts
the child for about 3% of the time, the same on every commit).  Each time a child measures is multiplied
by ``REF_NOMINAL_S`` over the median CPU time of the kernel during that
child: it reads as seconds on a core where the kernel takes
``REF_NOMINAL_S``.  The results file keeps the raw times as well.  This
assumes that the workloads keep to one thread, as they do: load that a
change puts on the pinned core while the kernel runs would make the kernel
slower and the change look faster.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as the
median over at least ``MIN_PLAIN_REPS`` repetitions; ``setup_s`` also counts
``SETUPS`` extra processes that only set up.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the median traced
repetition: calls and self time of each package module, measured by wrapping
the public API (see ``spans.py``), import times from ``-X importtime``, and
seed-dependent verdict counts.  Layer self times plus ``harness.self_s`` add
up to ``trace.wall_s``; the run fails if they do not.

Every operation (an API call or a ``cli.main`` run) counts as attempted; it
counts as failed on an exception, a non-zero exit code, a non-finite value
where a finite one is expected, a PA > CONV ordering violation, or an
artifact that cannot be read back (not strict JSON, a CSV cell that is not a
number).  ``correct`` is false if any failure other than an unreadable
artifact occurred, or if the traced self times do not add up.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; a results file with provenance, every repetition and every
failure is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 150

# One-line reason each workload exists, and its unit of work per repetition.
WORKLOADS = {
    "verify": {
        "why": "largest Monte Carlo cost the suite pays: one uniform draw "
               "feeds sorts, spacings, spans and moments, chunks 2.4-32 MB",
        "unit": "trials", "work": 4 * 10**6,
    },
    "sweep": {
        "why": "deadline sweeps and CCDFs through the CLI: fresh draws and "
               "log2 per deadline, closed forms and scipy quadrature",
        "unit": "trials", "work": 3 * 20_000 * 50 + 2 * 2 * 200_000,
    },
    "train": {
        "why": "FL training loops bound by per-user quantize_ef and gate "
               "loops in flcore; no Monte Carlo or participation code",
        "unit": "steps", "work": 20 * 2 * (60 + 150) + 2 * 2 * 300,
    },
}
# Span layers: the package modules, and the benchmark's own root span.
LAYERS = ("spatial", "analytics", "phy", "participation", "flcore",
          "montecarlo", "config", "cli", "harness")
# Per-function metric name -> span name recorded by the tracer.
FUNCTIONS = {
    "montecarlo.verify_bounds": "montecarlo.verify_bounds",
    "montecarlo.participation_sweep": "montecarlo.participation_sweep",
    "montecarlo.estimate_ccdf": "montecarlo.estimate_ccdf",
    "participation.expected_participants": "participation.expected_participants",
    "flcore.quantize_ef": "flcore.quantize_ef",
    "flcore.run_sfl": "flcore.run_sfl",
    "flcore.run_afl": "flcore.run_afl",
    "flcore.stochastic_grads": "flcore.SyntheticProblem.stochastic_grads",
}
MC_ENTRY = ("montecarlo.verify_bounds", "montecarlo.participation_sweep",
            "montecarlo.estimate_ccdf")
TRAIN_ENTRY = ("flcore.run_sfl", "flcore.run_afl")
COUNTS = ("montecarlo.verdicts_failed", "flcore.pairs_pa_first",
          "flcore.pairs_staleness_ordered")
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}


# Reference kernel: sampled every REF_PERIOD_S while a child runs; its
# nominal CPU time is about its median on the 2-vCPU Xeon guest the
# baseline in results/ was measured on.
REF_PERIOD_S = 0.05
REF_NOMINAL_S = 1.5e-3
SETUPS = 2
MIN_PLAIN_REPS = 2
_REF_DATA = []


def reference_kernel_s():
    """CPU seconds of one run of a fixed kernel: a numpy sort that fits in
    L2 and a Python loop, the two kinds of work the workloads do.  CPU time,
    not wall time, so a sample that the child preempts is not longer."""
    import numpy as np
    if not _REF_DATA:
        _REF_DATA.append(np.random.default_rng(0).random(20_000))
    c0 = time.thread_time()
    np.sort(_REF_DATA[0])
    acc = 0
    for i in range(15_000):
        acc += i * i
    return time.thread_time() - c0


class BenchError(Exception):
    pass


# ---- provenance -------------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches():
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level and kind != "Instruction":
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = _read(index / "size")
    return caches


def _git():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=30, check=True).stdout

    try:
        return {"sha": git("rev-parse", "HEAD").strip(),
                "dirty": bool(git("status", "--porcelain").strip())}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None, "note": "not a git checkout"}


def provenance(seed):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git": _git(),
        "seed": seed,
        "thread_env": THREAD_ENV,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "reference": {"nominal_s": REF_NOMINAL_S, "period_s": REF_PERIOD_S},
    }


# ---- one repetition ---------------------------------------------------------

def scipy_import_s(importtime_lines):
    """Seconds spent importing scipy and everything first imported by it.

    ``-X importtime`` lists modules after their imports, indented by depth;
    read backwards, every module follows the one that imported it.
    """
    total_us, stack = 0, []
    for line in reversed(importtime_lines):
        self_us, _, name = line.split(":", 1)[1].split("|")
        if not self_us.strip().isdigit():
            continue  # header line
        depth = (len(name) - len(name.lstrip())) // 2
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = (stack and stack[-1][1]) or name.strip().startswith("scipy")
        stack.append((depth, inside))
        if inside:
            total_us += int(self_us)
    return total_us / 1e6


def run_rep(workload, seed, traced, env):
    out = OUT / workload
    out.mkdir(parents=True, exist_ok=True)
    result = out / "rep.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []),
           str(HERE / "workloads.py"), workload, str(seed), str(int(traced))]
    ref = []
    # stderr goes to a file: the runner samples the reference kernel instead
    # of draining a pipe.
    with open(out / "stderr.txt", "w+", encoding="utf-8") as err_file:
        launch = time.monotonic()
        proc = subprocess.Popen(
            [*cmd, repr(launch), str(result), str(out)], cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=err_file, text=True)
        try:
            while True:
                ref.append(reference_kernel_s())
                if proc.poll() is not None:
                    break
                if time.monotonic() - launch > CHILD_TIMEOUT_S:
                    raise BenchError(f"{workload} repetition exceeded "
                                     f"{CHILD_TIMEOUT_S} s")
                time.sleep(REF_PERIOD_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        err_file.seek(0)
        err = err_file.read()
    importtime = [l for l in err.splitlines() if l.startswith("import time:")]
    other = "\n".join(l for l in err.splitlines() if not l.startswith("import time:"))
    if other:
        print(other, file=sys.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition exited with {proc.returncode}")
    rec = json.loads(result.read_text(encoding="utf-8"))
    rec["traced"] = traced
    if traced:
        rec["import_scipy_s"] = scipy_import_s(importtime)
    rec["ref_s"] = statistics.median(ref)
    rec["ref_samples"] = len(ref)
    rec["scale"] = REF_NOMINAL_S / rec["ref_s"]
    return rec


# ---- metrics ----------------------------------------------------------------

def layer_metrics(rec, untraced_wall_s, workload):
    """Per-layer metrics of one traced repetition, in reference seconds."""
    trace, k = rec["trace"], rec["scale"]
    by_name = trace["by_name"]
    none = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
    m = {"setup.import_s": k * rec["import_s"],
         "setup.import_scipy_s": k * rec["import_scipy_s"]}
    for layer in LAYERS:
        entry = trace["by_layer"].get(layer, none)
        m[f"{layer}.calls"], m[f"{layer}.self_s"] = entry["calls"], k * entry["self_s"]
    for metric, span in FUNCTIONS.items():
        entry = by_name.get(span, none)
        m[f"{metric}.calls"], m[f"{metric}.self_s"] = entry["calls"], k * entry["self_s"]

    def rate(entries, unit):
        busy = k * sum(by_name.get(s, none)["incl_s"] for s in entries)
        info = WORKLOADS[workload]
        return info["work"] / busy if busy > 0 and info["unit"] == unit else 0.0

    m["montecarlo.trials_per_s"] = rate(MC_ENTRY, "trials")
    m["flcore.steps_per_s"] = rate(TRAIN_ENTRY, "steps")
    m["trace.wall_s"] = k * trace["root_s"]
    m["trace.overhead_ratio"] = m["trace.wall_s"] / untraced_wall_s
    m["trace.spans"] = trace["spans"]
    for name in COUNTS:
        m[name] = rec["counts"].get(name, 0)
    return m


def self_times_add_up(m):
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    return abs(total - m["trace.wall_s"]) <= 1e-6 * max(1.0, m["trace.wall_s"])


def normalized(rec, name):
    return rec["scale"] * rec[name]


def run_workload(workload, seed, seconds, trace, spec):
    # Children inherit the runner's core; see the module docstring.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:  # untimed: fills the byte-code and file caches
        run_rep("setup", seed, False, env)
    except BenchError as exc:
        raise BenchError(f"cannot set up pinchfl from src/: {exc}") from exc
    start = time.monotonic()
    setups = [] if trace else [run_rep("setup", seed, False, env)
                               for _ in range(SETUPS)]
    reps, rep_s = [], []
    while True:
        t0 = time.monotonic()
        reps.append(run_rep(workload, seed, trace and len(reps) % 2 == 1, env))
        rep_s.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        enough = (sum(not r["traced"] for r in reps) >= MIN_PLAIN_REPS
                  and (not trace or any(r["traced"] for r in reps)))
        if enough and elapsed + 0.5 * statistics.mean(rep_s) >= seconds:
            break

    plain = [r for r in reps if not r["traced"]]
    failures = {}
    for rec in reps:
        for op, reasons in rec["failures"].items():
            for reason in reasons:
                failures[f"{op}: {reason}"] = failures.get(f"{op}: {reason}", 0) + 1
    correct = not any(r["wrong"] for r in reps)
    if trace:
        traced = sorted((r for r in reps if r["traced"]),
                        key=lambda r: r["scale"] * r["trace"]["root_s"])
        median_wall = statistics.median(normalized(r, "wall_s") for r in plain)
        values = layer_metrics(traced[len(traced) // 2], median_wall, workload)
        correct &= self_times_add_up(values)
        wanted = spec["per_layer"]
    else:
        values = {name: statistics.median(normalized(r, name) for r in plain)
                  for name in ("wall_s", "cpu_s")}
        values["setup_s"] = statistics.median(
            normalized(r, "setup_s") for r in setups + plain)
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
        values.update({f"raw.{name}": statistics.median(r[name] for r in plain)
                       for name in ("wall_s", "cpu_s", "setup_s")})
        values["raw.ref_kernel_s"] = statistics.median(
            r["ref_s"] for r in setups + plain)
        wanted = spec["end_to_end"]
    result = {
        "correct": correct,
        "attempted": sum(r["ops"] for r in reps),
        "failed": sum(len(r["failures"]) for r in reps),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    report = {
        "workload": dict(WORKLOADS[workload], name=workload),
        "seconds": seconds, "trace": trace,
        "provenance": provenance(seed),
        "failures": failures,
        "all_metrics": values,
        "setups": setups,
        "repetitions": reps,
        "result": result,
    }
    path = OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return result, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "pinchfl" / "cli.py").is_file():
        print(f"error: no pinchfl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, failures = run_workload(name, args.seed, seconds,
                                            bool(args.trace), spec)
            for metric, v in result["metrics"].items():
                print(f"{name:8s} {metric:40s} {v['value']:>14.6g} {v['unit']}")
            print(f"{name:8s} {'failed/attempted':40s} "
                  f"{result['failed']:>7d}/{result['attempted']}")
            for what, times in failures.items():
                print(f"{name:8s}   failure x{times}: {what}")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            combined["metrics"].update({prefix + k: v
                                        for k, v in result["metrics"].items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
