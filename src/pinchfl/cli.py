"""Command-line front end: parses configs, runs one experiment pipeline per
subcommand, and writes CSV series plus a self-describing JSON summary.

Exit codes: 0 success, 1 usage error, 2 config validation error, 3 runtime
error (e.g. an infeasible link or out-of-regime request). Only a run that
exits 0 writes artifacts.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import analytics, montecarlo
from .config import RunConfig, flags, load_config, reads
from .errors import ConfigError
from .flcore import (TrainRecord, make_synthetic_problem, run_afl,
                     run_sfl)
from .participation import DETERMINISTIC, coverage_radius, expected_participants
from .phy import (afl_gap_bracket, high_snr_constants, lambda_star,
                  remainder_envelope, upload_latency)
from .spatial import CONV, PA, UNIFORM, sample_positions


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exit code 1, under the
    prog and usage of the command they concern."""

    commands: Dict[str, "_Parser"]  # the top level's, by command name

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")

    def parse_args(self, args=None, namespace=None):
        # argparse reports flags a command left unparsed from the top level,
        # with the top-level usage; report them as the command's
        parsed, extra = self.parse_known_args(args, namespace)
        if extra:
            self.commands[parsed.command].error(
                f"unrecognized arguments: {' '.join(extra)}")
        return parsed


# parsing keeps no state in the parser, so one serves every call of a process
@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(prog="pinchfl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        # no abbreviations: --m must not stand for a command's --mu
        command = sub.add_parser(name, help=cmd.__doc__, allow_abbrev=False)
        command.add_argument("--config", help="key = value config file")
        for key, text in flags(name):
            command.add_argument(f"--{key.replace('_', '-')}", help=text)
    parser.commands = sub.choices
    return parser


def _load(argv: Optional[Sequence[str]]) -> Tuple[str, RunConfig]:
    """The command of ``argv`` and its validated config; raises _UsageError
    or ConfigError."""
    overrides = vars(_build_parser().parse_args(argv))
    command, path = overrides.pop("command"), overrides.pop("config")
    return command, load_config(path, overrides, command)


def _write_artifacts(command: str, cfg: RunConfig, rows: List[Sequence],
                     metrics: dict):
    """Write ``<command>.csv`` (``rows``, header first, floats as ``repr``)
    and ``<command>.json`` (config, metrics and, where the command reads
    one, seed) into ``cfg.out``.

    Both are serialized before the directory is made, so rows or metrics that
    do not serialize, such as a NaN metric, leave no file and no directory.
    """
    table = io.StringIO()
    csv.writer(table).writerows(
        [repr(float(v)) if isinstance(v, float) else v for v in row]
        for row in rows)
    payload = {"config": cfg._asdict(), "metrics": metrics}
    if "seed" in reads(cfg, command):
        payload["seed"] = cfg.seed
    texts = {"csv": table.getvalue(),
             "json": json.dumps(payload, indent=2, sort_keys=True,
                                allow_nan=False) + "\n"}
    os.makedirs(cfg.out, exist_ok=True)
    for ext, text in texts.items():
        path = os.path.join(cfg.out, f"{command}.{ext}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _reach(cfg: RunConfig) -> float:
    """Offset of the farthest position worth gridding."""
    if cfg.dist == UNIFORM:
        return cfg.corridor / 2.0
    return cfg.mu + 5.0 * cfg.sigma_x


_Artifacts = Tuple[List[Sequence], dict]


def _cmd_ccdf(cfg: RunConfig) -> _Artifacts:
    """empirical latency CCDF for both architectures"""
    phy, spec = cfg.phy(), cfg.dist_spec()
    # an AFL upload is the round of one user, at the whole bandwidth
    k, m = (cfg.k, cfg.m) if cfg.mode == "sfl" else (1, 1)
    t_min = upload_latency(phy.c_round(m), 0.0, 0.0, phy.S, phy.d)
    t_max = upload_latency(phy.c_round(m), _reach(cfg), 0.0, phy.S, phy.d)
    grid = np.linspace(0.95 * t_min, 1.05 * t_max, cfg.grid_points)
    archs = [CONV, PA] if cfg.arch == "both" else [cfg.arch]
    ccdf = montecarlo.estimate_ccdfs(archs, phy, spec, k, m, cfg.trials, grid,
                                     cfg.seed)
    rows = [["t", *(f"ccdf_{arch.lower()}" for arch in archs)],
            *zip(grid.tolist(), *(ccdf[arch].tolist() for arch in archs))]
    metrics: Dict[str, object] = {"mode": cfg.mode, "trials": cfg.trials,
                                  "grid_points": cfg.grid_points}
    for arch in archs:
        metrics[f"mean_exceedance_{arch.lower()}"] = float(ccdf[arch].mean())
    if len(archs) == 2:
        # PA's latency is at most CONV's on every shared draw: no slack
        gap = ccdf[CONV] - ccdf[PA]
        metrics["min_ccdf_gap_conv_minus_pa"] = float(gap.min())
        metrics["pa_dominates"] = bool(gap.min() >= 0)
    return rows, metrics


def _cmd_participation(cfg: RunConfig) -> _Artifacts:
    """deadline sweep of expected participant counts"""
    phy, spec, model = cfg.phy(), cfg.dist_spec(), cfg.deadline_model()
    t_lo = cfg.t0 + upload_latency(0.98 * phy.c, 0.0, 0.0, phy.S, phy.d)
    t_hi = cfg.t0 + upload_latency(1.10 * phy.c, _reach(cfg), 0.0, phy.S, phy.d)
    if cfg.fc_kind != DETERMINISTIC and cfg.rate > 0:
        t_hi += 3.0 / cfg.rate
    grid = np.linspace(t_lo, t_hi, cfg.grid_points)
    sweep = montecarlo.participation_sweep(cfg.k, grid, model, spec, phy,
                                           cfg.trials, cfg.seed)
    report = expected_participants(cfg.k, cfg.deadline, model, spec, phy)
    metrics = {
        "n_conv_at_deadline": report.n_conv,
        "n_pa_at_deadline": report.n_pa,
        "gap_at_deadline": report.gap,
        "min_gap_over_sweep": min(r["gap"] for r in sweep),
    }
    if cfg.dist == UNIFORM and cfg.fc_kind == DETERMINISTIC:
        cov = coverage_radius(cfg.deadline, model, phy)
        metrics.update(rho=cov.rho, T_min=cov.T_min, T_max=cov.T_max,
                       kappa=cov.kappa)
    return [list(sweep[0]), *(list(r.values()) for r in sweep)], metrics


def _cmd_highsnr(cfg: RunConfig) -> _Artifacts:
    """high-SNR expansion constants, envelope, and gap bracket"""
    consts = high_snr_constants(cfg.corridor, cfg.height)
    lam_star = lambda_star(consts)
    rows: List[Sequence] = [["Lambda", "envelope", "gap_bracket"]]
    for lam in (consts.Lambda0, 2 * consts.Lambda0, 10 * consts.Lambda0,
                lam_star, 2 * lam_star):
        rows.append([float(lam), remainder_envelope(lam, consts),
                     afl_gap_bracket(lam, consts)])
    metrics = consts._asdict()
    metrics["lambda_star"] = lam_star
    metrics["bracket_positive_at_lambda_star"] = bool(
        afl_gap_bracket(lam_star, consts) > 0
    )
    return rows, metrics


def _cmd_train(cfg: RunConfig) -> _Artifacts:
    """synthetic-objective training run (SFL or AFL)"""
    problem = make_synthetic_problem(cfg.k, cfg.dim, cfg.delta2,
                                     cfg.sigma_grad, cfg.seed)
    xs = sample_positions(cfg.dist_spec(), cfg.k, cfg.seed)
    phy, spec = cfg.phy(), cfg.quantizer()
    archs = [CONV, PA] if cfg.arch == "both" else [cfg.arch]
    rows: List[Sequence] = [TrainRecord._fields]
    metrics = {}
    for arch in archs:
        if cfg.mode == "sfl":
            log = run_sfl(problem, xs, phy, cfg.m, cfg.eta, spec,
                          cfg.rounds, arch, cfg.seed)
        else:
            model = cfg.deadline_model()._replace(p_s=cfg.p_s)
            log = run_afl(problem, xs, phy, model, cfg.eta, spec,
                          cfg.afl_horizon(), arch, cfg.seed,
                          weighting=cfg.weighting,
                          tick_period=cfg.tick_period())
        rows += (rec._replace(scheduled=" ".join(map(str, rec.scheduled)))
                 for rec in log.records)
        # strict JSON has no NaN or Infinity: no events or an unreached
        # target are null
        final = log.records[-1].loss if log.records else None
        reached = log.time_to_loss(cfg.target)
        metrics[arch] = {
            "total_time": log.total_time,
            "final_loss": final,
            "time_to_target": reached if math.isfinite(reached) else None,
            "max_staleness": log.max_staleness,
            "events": len(log.records),
        }
    return rows, metrics


def _cmd_verify(cfg: RunConfig) -> _Artifacts:
    """closed-form straggler moments; every bound vs Monte Carlo"""
    verdicts = montecarlo.verify_bounds([cfg.k], [cfg.m], cfg.corridor,
                                        cfg.trials, cfg.seed)
    rows = [montecarlo.BoundVerdict._fields, *verdicts]
    metrics = {
        "all_passed": bool(all(v.passed for v in verdicts)),
        "checks": {v.name: v.passed for v in verdicts},
        "moments": analytics.straggler_moments(cfg.k, cfg.m,
                                               cfg.corridor)._asdict(),
    }
    return rows, metrics


# the one command table: the parser's subcommands, their help (each
# command's docstring) and the dispatch of ``main``
_COMMANDS = {
    "ccdf": _cmd_ccdf,
    "participation": _cmd_participation,
    "highsnr": _cmd_highsnr,
    "train": _cmd_train,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        command, cfg = _load(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        rows, metrics = _COMMANDS[command](cfg)
        _write_artifacts(command, cfg, rows, metrics)
    except Exception as exc:  # runtime failures map to a distinct exit code
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"command": command, "metrics": metrics},
                     indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
