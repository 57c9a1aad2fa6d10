"""Command-line front end: parses configs, runs one experiment pipeline per
subcommand, and writes CSV series plus a self-describing JSON summary.

Exit codes: 0 success, 1 usage error, 2 config validation error, 3 runtime
error (e.g. an infeasible link or out-of-regime request).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import analytics, montecarlo
from .config import RunConfig, load_config
from .errors import ConfigError
from .flcore import make_synthetic_problem, run_afl, run_sfl
from .participation import DETERMINISTIC, coverage_radius, expected_participants
from .phy import (afl_gap_bracket, high_snr_constants, lambda_star,
                  remainder_envelope, upload_latency)
from .spatial import CONV, PA, UNIFORM, sample_positions


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exit code 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


_FLAG_KEYS = [f.name for f in dataclasses.fields(RunConfig) if f.name != "out"]


# parsing keeps no state in the parser, so one serves every call of a process
@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="key = value config file")
    common.add_argument("--out", default=None, help="artifact directory")
    for key in _FLAG_KEYS:
        common.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    parser = _Parser(prog="pinchfl", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    commands = {
        "ccdf": "empirical latency CCDF for both architectures",
        "participation": "deadline sweep of expected participant counts",
        "highsnr": "high-SNR expansion constants, envelope, and gap bracket",
        "train": "synthetic-objective training run (SFL or AFL)",
        "verify": "closed-form straggler moments; every bound vs Monte Carlo",
    }
    for name, help_text in commands.items():
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


def _write_csv(path: str, fieldnames: Sequence[str], rows: List[dict]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(float(v)) if isinstance(v, float) else v
                             for k, v in row.items()})


def _write_json(path: str, cfg: RunConfig, metrics: dict):
    payload = {
        "config": dataclasses.asdict(cfg),
        "seed": cfg.seed,
        "metrics": metrics,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _reach(cfg: RunConfig) -> float:
    """Offset of the farthest position worth gridding."""
    if cfg.dist == UNIFORM:
        return cfg.corridor / 2.0
    return cfg.mu + 5.0 * cfg.sigma_x


def _latency_grid(cfg: RunConfig) -> np.ndarray:
    phy = cfg.phy()
    c_eff = phy.c_round(cfg.m if cfg.mode == "sfl" else 1)
    t_min = upload_latency(c_eff, 0.0, 0.0, phy.S, phy.d)
    t_max = upload_latency(c_eff, _reach(cfg), 0.0, phy.S, phy.d)
    return np.linspace(0.95 * t_min, 1.05 * t_max, cfg.grid_points)


def _cmd_ccdf(cfg: RunConfig, out: str) -> dict:
    phy, spec = cfg.phy(), cfg.dist_spec()
    grid = _latency_grid(cfg)
    mode = montecarlo.SFL if cfg.mode == "sfl" else montecarlo.AFL
    archs = [CONV, PA] if cfg.arch == "both" else [cfg.arch]
    series = montecarlo.estimate_ccdfs(mode, archs, phy, spec, cfg.k, cfg.m,
                                       cfg.trials, grid, cfg.seed)
    rows = []
    for i, t in enumerate(grid):
        row = {"t": float(t)}
        for arch in archs:
            row[f"ccdf_{arch.lower()}"] = float(series[arch].ccdf[i])
        rows.append(row)
    _write_csv(os.path.join(out, "ccdf.csv"), list(rows[0]), rows)
    metrics: Dict[str, object] = {"mode": cfg.mode, "trials": cfg.trials,
                                  "grid_points": cfg.grid_points}
    for arch in archs:
        metrics[f"mean_exceedance_{arch.lower()}"] = float(series[arch].ccdf.mean())
    if len(archs) == 2:
        gap = series[CONV].ccdf - series[PA].ccdf
        metrics["min_ccdf_gap_conv_minus_pa"] = float(gap.min())
        metrics["pa_dominates"] = bool(gap.min() >= -3.0 / math.sqrt(cfg.trials))
    _write_json(os.path.join(out, "ccdf.json"), cfg, metrics)
    return metrics


def _cmd_participation(cfg: RunConfig, out: str) -> dict:
    phy, spec, model = cfg.phy(), cfg.dist_spec(), cfg.deadline_model()
    t_lo = cfg.t0 + upload_latency(0.98 * phy.c, 0.0, 0.0, phy.S, phy.d)
    t_hi = cfg.t0 + upload_latency(1.10 * phy.c, _reach(cfg), 0.0, phy.S, phy.d)
    if cfg.fc_kind != DETERMINISTIC and cfg.rate > 0:
        t_hi += 3.0 / cfg.rate
    grid = np.linspace(t_lo, t_hi, cfg.grid_points)
    rows = montecarlo.participation_sweep(cfg.k, grid, model, spec, phy,
                                          cfg.trials, cfg.seed)
    _write_csv(os.path.join(out, "participation.csv"), list(rows[0]), rows)
    report = expected_participants(cfg.k, cfg.deadline, model, spec, phy)
    metrics = {
        "n_conv_at_deadline": report.n_conv,
        "n_pa_at_deadline": report.n_pa,
        "gap_at_deadline": report.gap,
        "min_gap_over_sweep": min(r["gap"] for r in rows),
    }
    if cfg.dist == UNIFORM and cfg.fc_kind == DETERMINISTIC:
        cov = coverage_radius(cfg.deadline, model, phy)
        metrics.update(rho=cov.rho, T_min=cov.T_min, T_max=cov.T_max,
                       kappa=cov.kappa)
    _write_json(os.path.join(out, "participation.json"), cfg, metrics)
    return metrics


def _cmd_highsnr(cfg: RunConfig, out: str) -> dict:
    consts = high_snr_constants(cfg.corridor, cfg.height)
    lam_star = lambda_star(consts)
    rows = []
    for lam in (consts.Lambda0, 2 * consts.Lambda0, 10 * consts.Lambda0,
                lam_star, 2 * lam_star):
        rows.append({
            "Lambda": float(lam),
            "envelope": remainder_envelope(lam, consts),
            "gap_bracket": afl_gap_bracket(lam, consts),
        })
    _write_csv(os.path.join(out, "highsnr.csv"), list(rows[0]), rows)
    metrics = dict(dataclasses.asdict(consts))
    metrics["lambda_star"] = lam_star
    metrics["bracket_positive_at_lambda_star"] = bool(
        afl_gap_bracket(lam_star, consts) > 0
    )
    _write_json(os.path.join(out, "highsnr.json"), cfg, metrics)
    return metrics


def _cmd_train(cfg: RunConfig, out: str) -> dict:
    problem = make_synthetic_problem(cfg.k, cfg.dim, cfg.delta2,
                                     cfg.sigma_grad, cfg.seed)
    xs = sample_positions(cfg.dist_spec(), cfg.k, cfg.seed)
    phy, spec, model = cfg.phy(), cfg.quantizer(), cfg.deadline_model()
    archs = [CONV, PA] if cfg.arch == "both" else [cfg.arch]
    rows, metrics = [], {}
    for arch in archs:
        if cfg.mode == "sfl":
            log = run_sfl(problem, xs, phy, cfg.m, cfg.eta, spec,
                          cfg.rounds, arch, cfg.seed)
        else:
            log = run_afl(problem, xs, phy, model, cfg.eta, spec,
                          cfg.afl_horizon(), arch, cfg.seed,
                          weighting=cfg.weighting,
                          tick_period=cfg.tick_period())
        for rec in log.records:
            row = dict(vars(rec))
            row["scheduled"] = " ".join(str(i) for i in rec.scheduled)
            rows.append(row)
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
    fieldnames = list(rows[0]) if rows else ["time"]
    _write_csv(os.path.join(out, "train.csv"), fieldnames, rows)
    _write_json(os.path.join(out, "train.json"), cfg, metrics)
    return metrics


def _cmd_verify(cfg: RunConfig, out: str) -> dict:
    verdicts = montecarlo.verify_bounds([cfg.k], [cfg.m], cfg.corridor,
                                        cfg.trials, cfg.seed)
    rows = [dataclasses.asdict(v) for v in verdicts]
    _write_csv(os.path.join(out, "verify.csv"), list(rows[0]), rows)
    metrics = {
        "all_passed": bool(all(v.passed for v in verdicts)),
        "checks": {v.name: v.passed for v in verdicts},
        "moments": dataclasses.asdict(
            analytics.straggler_moments(cfg.k, cfg.m, cfg.corridor)),
    }
    _write_json(os.path.join(out, "verify.json"), cfg, metrics)
    return metrics


_COMMANDS = {
    "ccdf": _cmd_ccdf,
    "participation": _cmd_participation,
    "highsnr": _cmd_highsnr,
    "train": _cmd_train,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.command is None:
        print(parser.format_usage(), file=sys.stderr)
        return 1
    overrides = {key: getattr(args, key) for key in _FLAG_KEYS}
    if args.out is not None:
        overrides["out"] = args.out
    try:
        cfg = load_config(args.config, overrides, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = cfg.out
    try:
        os.makedirs(out, exist_ok=True)
        metrics = _COMMANDS[args.command](cfg, out)
    except Exception as exc:  # runtime failures map to a distinct exit code
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"command": args.command, "metrics": metrics},
                     indent=2, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
