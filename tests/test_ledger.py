"""The run ledger: every entry of the run table in ``scripts/reproduce.py``,
run in process and capped in size, against the rows, metrics and exit codes
recorded in ``tests/data/ledger.json``; and a summary of each of the 80
training logs of the benchmark's paired runs, against
``tests/data/paired_runs.json``.

Each run is capped at ``TRIALS`` Monte Carlo trials and ``ROUNDS`` training
rounds: one full 4096-row block and part of a second, and CI's short
training runs. Integers, strings, booleans, nulls and exit codes must match
exactly; floats must match within the relative tolerance ``REL_TOL``,
because numpy's SIMD ``log2`` and ``exp`` may differ from libm in the last
bit on other CPUs. A change that moves a value regenerates both files with

    PYTHONPATH=src python tests/test_ledger.py

and their diff, one line per row or log, is the list of moves that the
change must explain.
"""

import hashlib
import importlib.util
import json
import math
import os
import pathlib

import pytest

from pinchfl import cli
from pinchfl.errors import ConfigError

ROOT = pathlib.Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "data" / "ledger.json"
PAIRED = ROOT / "tests" / "data" / "paired_runs.json"
TRIALS = 5000
ROUNDS = 20
REL_TOL = 1e-9


def _module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reproduce = _module(ROOT / "scripts" / "reproduce.py")


def _workloads():
    return _module(ROOT / "perfbench" / "workloads.py")


def _records(name):
    """``[name, key, value]`` records of one capped in-process run: its exit
    code, the error behind a non-zero one (the message of a config error,
    the type of a runtime error), its metrics, and one record per row."""
    try:
        command, cfg = cli._load(reproduce.RUNS[name][0].split())
    except cli._UsageError:
        result = {"rc": 1}
    except ConfigError as exc:
        result = {"rc": 2, "error": str(exc)}
    else:
        cfg = cfg._replace(trials=min(cfg.trials, TRIALS),
                           rounds=min(cfg.rounds, ROUNDS))
        try:
            rows, metrics = cli._COMMANDS[command](cfg)
        except Exception as exc:  # as main: any runtime failure exits 3
            result = {"rc": 3, "error": type(exc).__name__}
        else:
            result = {"rc": 0, "metrics": metrics, **dict(enumerate(rows))}
    # as written to the ledger: tuples become lists, numpy floats floats
    return json.loads(json.dumps([[name, key, value]
                                  for key, value in result.items()]))


def _moves(got, want, where):
    """Where ``got`` departs from ``want``: a float beyond ``REL_TOL``, any
    other value, type or shape at all."""
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [move for i, (g, w) in enumerate(zip(got, want))
                for move in _moves(g, w, f"{where}[{i}]")]
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [move for key in want
                for move in _moves(got[key], want[key], f"{where}.{key}")]
    if type(got) is float and type(want) is float and (
            math.isclose(got, want, rel_tol=REL_TOL)
            or math.isnan(got) and math.isnan(want)):
        return []
    if type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r}, ledger {want!r}"]


@pytest.fixture(scope="module")
def ledger():
    with open(LEDGER, encoding="utf-8") as fh:
        records = json.load(fh)
    by_name = {}
    for record in records:
        by_name.setdefault(record[0], []).append(record)
    return by_name


def test_ledger_lists_the_table(ledger):
    assert list(ledger) == list(reproduce.RUNS)


@pytest.mark.parametrize("name", list(reproduce.RUNS))
def test_run_matches_its_ledger_entry(ledger, name):
    got, want = _records(name), ledger[name]
    assert got[0] == [name, "rc", reproduce.RUNS[name][1]]
    assert [key for _, key, _ in got] == [key for _, key, _ in want]
    moves = [move for (_, key, g), (_, _, w) in zip(got, want)
             for move in _moves(g, w, f"{name}/{key}")]
    assert not moves, "\n".join(moves[:10])


def test_driver_checks_exit_codes_and_prints_hashes(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.chdir(tmp_path)
    assert reproduce.run("highsnr") is None
    listing = [line.split("  ") for line in capsys.readouterr().out.splitlines()]
    assert [path for _, path in listing] == [
        os.path.join("artifacts", "highsnr", f"highsnr.{ext}")
        for ext in ("csv", "json")]
    for digest, path in listing:
        assert hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() == digest
    # a run that must fail leaves no directory and prints no hash
    assert reproduce.run("bits54") is None
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "artifacts" / "bits54").exists()
    monkeypatch.setitem(reproduce.RUNS, "bits54", ("train --bits 54", 0))
    assert reproduce.run("bits54") == "bits54: exit code 2, expected 0"


def _paired_records(workloads):
    """``[seed, mode, arch, summary]`` of each log of the train workload's
    paired runs at workload seed 0, seeds 0-19: the log's event count, final
    loss and time to the workload's loss target (null if not reached), and
    the totals of its event times, losses, participants and staleness."""
    records = []
    for s in range(workloads.PAIRS):
        for mode, logs in workloads._paired_run(s).items():
            for arch, log in logs.items():
                reached = log.time_to_loss(workloads.TARGET)
                records.append([s, mode, arch, {
                    "events": len(log.records),
                    "final_loss": log.records[-1].loss,
                    "time_to_target": reached if math.isfinite(reached) else None,
                    **{f"total_{name}": sum(getattr(r, name) for r in log.records)
                       for name in ("time", "loss", "participants", "staleness")},
                }])
    return json.loads(json.dumps(records))


def test_paired_runs_match_their_ledger():
    with open(PAIRED, encoding="utf-8") as fh:
        want = json.load(fh)
    got = _paired_records(_workloads())
    assert [g[:3] for g in got] == [w[:3] for w in want]
    moves = [move for g, w in zip(got, want)
             for move in _moves(g[3], w[3], " ".join(map(str, g[:3])))]
    assert not moves, "\n".join(moves[:10])


def test_benchmark_runs_are_table_entries():
    # the CLI calls of the sweep and train workloads at workload seed 0,
    # --out aside, are the table's entries of the same names
    workloads = _workloads()

    class Recorder:
        def __init__(self):
            self.argvs = {}

        def cli(self, name, argv):
            self.argvs[name] = argv

        def call(self, name, fn, *args, **kwargs):
            pass

    ops = Recorder()
    workloads.sweep_body(ops, 0, "out")
    workloads.train_body(ops, 0, "out")
    assert list(ops.argvs) == [*workloads.SWEEP_RUNS, *workloads.TRAIN_RUNS]
    for name, argv in ops.argvs.items():
        assert argv[-2:] == ["--out", os.path.join("out", name)]
        assert argv[:-2] == reproduce.RUNS[name][0].split(), name


def _write(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n")


if __name__ == "__main__":
    LEDGER.parent.mkdir(exist_ok=True)
    _write(LEDGER, [record for name in reproduce.RUNS
                    for record in _records(name)])
    _write(PAIRED, _paired_records(_workloads()))
