"""Run configuration: one flat record of every experiment knob.

Configs come from a line-based ``key = value`` file, optionally overridden by
command-line flags.  Unknown keys and malformed or out-of-range values raise
``ConfigError`` naming the offending key.  Defaults are the corridor operating
point used throughout: K=40 users on a 10 m corridor, 3 m waveguide height,
1 MHz bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Optional

from .errors import ConfigError, ParameterError
from .flcore import MAX_BITS, QuantizerSpec
from .participation import DETERMINISTIC, SHIFTED_EXPONENTIAL, DeadlineModel
from .phy import PhyParams
from .spatial import GAUSSIAN_MIXTURE, UNIFORM, DistributionSpec


@dataclass(frozen=True)
class RunConfig:
    """Every knob of the simulator, validated as a whole."""

    # population and geometry
    k: int = 40
    m: int = 7
    corridor: float = 10.0     # corridor length D, metres
    height: float = 3.0        # waveguide height d, metres
    # link budget
    power: float = 0.01        # transmit power P, watts
    noise: float = 1e-12       # noise power sigma_n^2, watts
    f_c: float = 28e9          # carrier frequency, Hz
    bandwidth: float = 1e6     # total bandwidth W, Hz
    payload: float = 1e5       # update payload B_t, bits
    snr: float = 0.0           # optional SNR-scale override (0 = use link budget)
    # compression
    bits: int = 6
    c_q: float = 1.0
    # deadline / trigger model
    deadline: float = 0.012    # T_d, seconds
    t0: float = 0.0
    fc_kind: str = DETERMINISTIC
    rate: float = 0.0
    p_s: float = 1.0
    tick: float = 0.0          # AFL trigger period (0 = deadline)
    # spatial distribution
    dist: str = UNIFORM
    mu: float = 3.0
    sigma_x: float = 0.5
    # training
    eta: float = 0.1
    rounds: int = 200
    horizon: float = 0.0       # AFL wall-clock horizon, seconds (0 = rounds*tick)
    sigma_grad: float = 0.0
    delta2: float = 0.0
    dim: int = 8
    target: float = 1e-3
    weighting: str = "HT"
    # experiment plumbing
    trials: int = 100_000
    seed: int = 1
    grid_points: int = 50
    arch: str = "both"
    mode: str = "sfl"
    out: str = "."

    # ---- derived module objects -------------------------------------------

    def phy(self) -> PhyParams:
        if self.snr > 0:
            return PhyParams.from_snr_scale(self.snr, d=self.height,
                                            D=self.corridor, W=self.bandwidth,
                                            B_t=self.payload, f_c=self.f_c)
        return PhyParams(P=self.power, sigma_n2=self.noise, f_c=self.f_c,
                         d=self.height, D=self.corridor, W=self.bandwidth,
                         B_t=self.payload)

    def dist_spec(self) -> DistributionSpec:
        if self.dist == UNIFORM:
            return DistributionSpec(kind=UNIFORM, D=self.corridor)
        return DistributionSpec(kind=GAUSSIAN_MIXTURE, D=self.corridor,
                                mu=self.mu, sigma=self.sigma_x)

    def deadline_model(self) -> DeadlineModel:
        return DeadlineModel(T_d=self.deadline, fc_kind=self.fc_kind,
                             t0=self.t0, rate=self.rate, p_s=self.p_s)

    def quantizer(self) -> QuantizerSpec:
        return QuantizerSpec(b=self.bits, c_q=self.c_q)

    def tick_period(self) -> float:
        return self.tick if self.tick > 0 else self.deadline

    def afl_horizon(self) -> float:
        return self.horizon if self.horizon > 0 else self.rounds * self.tick_period()


# each key parses as its annotation in RunConfig, a string under postponed
# evaluation of annotations
_FIELD_TYPES = {f.name: {"int": int, "float": float, "str": str}[f.type]
                for f in fields(RunConfig)}


def _parse_value(key: str, raw) -> object:
    try:
        return _FIELD_TYPES[key](str(raw).strip())
    except ValueError:
        raise ConfigError(f"malformed value for config key '{key}': {raw!r}")


def _require(ok: bool, key: str, why: str):
    if not ok:
        raise ConfigError(f"invalid value for config key '{key}': {why}")


def _reads_m(cfg: RunConfig, command: Optional[str]) -> bool:
    """Whether ``command`` reads M: verify does, and ccdf and train do in
    SFL mode.  A config built for no command is checked as if it did."""
    return command in (None, "verify") or (command in ("ccdf", "train")
                                           and cfg.mode == "sfl")


def validate(cfg: RunConfig, command: Optional[str] = None) -> RunConfig:
    """Full precondition check for the subcommand ``command``; raises
    ConfigError naming the offending key.  M is checked only where
    ``command`` reads it, and the seed only where it seeds a draw."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float):
            _require(math.isfinite(value), f.name, "must be finite")
    _require(cfg.k >= 1, "k", "must be at least 1")
    if _reads_m(cfg, command):
        _require(1 <= cfg.m <= cfg.k, "m", f"must lie in [1, k={cfg.k}]")
    for key in ("corridor", "height", "power", "noise", "f_c", "bandwidth",
                "payload", "eta", "target"):
        _require(getattr(cfg, key) > 0, key, "must be positive")
    for key in ("snr", "t0", "tick", "horizon", "sigma_grad", "delta2",
                "deadline", "c_q"):
        _require(getattr(cfg, key) >= 0, key, "must be nonnegative")
    _require(1 <= cfg.bits <= MAX_BITS, "bits",
             f"must lie in [1, {MAX_BITS}], where every grid index is an "
             f"exact double")
    _require(0 < cfg.p_s <= 1, "p_s", "must lie in (0, 1]")
    _require(cfg.fc_kind in (DETERMINISTIC, SHIFTED_EXPONENTIAL), "fc_kind",
             f"must be one of {DETERMINISTIC!r}, {SHIFTED_EXPONENTIAL!r}")
    if cfg.fc_kind == SHIFTED_EXPONENTIAL:
        _require(cfg.rate > 0, "rate", "must be positive for the exponential family")
    _require(cfg.dist in (UNIFORM, GAUSSIAN_MIXTURE), "dist",
             f"must be one of {UNIFORM!r}, {GAUSSIAN_MIXTURE!r}")
    if cfg.dist == GAUSSIAN_MIXTURE:
        _require(cfg.mu > 0, "mu", "must be positive")
        _require(cfg.sigma_x > 0, "sigma_x", "must be positive")
    _require(cfg.rounds >= 1, "rounds", "must be at least 1")
    if command in (None, "train"):
        _require(cfg.k >= 2 or cfg.delta2 == 0, "delta2",
                 "must be 0 with k=1: one user's centre is the mean, with no "
                 "spread to scale")
    _require(cfg.dim >= 1, "dim", "must be at least 1")
    _require(cfg.trials >= 1, "trials", "must be at least 1")
    if command != "highsnr":
        # numpy's SeedSequence takes only nonnegative integers; highsnr's
        # outputs are closed forms, so it draws nothing
        _require(cfg.seed >= 0, "seed", "must be nonnegative")
    _require(cfg.grid_points >= 2, "grid_points", "must be at least 2")
    _require(cfg.weighting in ("HT", "uniform"), "weighting",
             "must be 'HT' or 'uniform'")
    _require(cfg.arch in ("CONV", "PA", "both"), "arch",
             "must be 'CONV', 'PA', or 'both'")
    _require(cfg.mode in ("sfl", "afl"), "mode", "must be 'sfl' or 'afl'")
    if cfg.mode == "afl":
        # the tick period is the deadline unless a tick is given
        period_key = "tick" if cfg.tick > 0 else "deadline"
        _require(cfg.tick_period() > 0, period_key,
                 "the afl tick period must be positive")
        _require(0 < cfg.afl_horizon() < math.inf, "horizon",
                 "the afl horizon (rounds times the tick period unless "
                 "given) must be positive and finite")
        _require(math.isfinite(cfg.afl_horizon() / cfg.tick_period()),
                 period_key, "the afl tick period is too small: horizon / "
                 "tick period overflows")
    try:
        cfg.phy()
        cfg.dist_spec()
        cfg.deadline_model()
        cfg.quantizer()
    except ParameterError as exc:
        raise ConfigError(str(exc))
    return cfg


def load_config(path: Optional[str],
                overrides: Optional[Dict[str, object]] = None,
                command: Optional[str] = None) -> RunConfig:
    """Build a RunConfig from a ``key = value`` file plus overrides, validated
    for the subcommand ``command``.

    Flags win over file values; unknown keys are rejected by name.  Arch and
    mode strings are case-normalized (arch upper, mode lower).
    """
    values: Dict[str, object] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}")
        for lineno, line in enumerate(lines, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key '{key}'")
            values[key] = _parse_value(key, raw)
    for key, raw in (overrides or {}).items():
        if raw is None:
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key '{key}'")
        values[key] = _parse_value(key, raw)
    if "arch" in values:
        norm = str(values["arch"]).lower()
        values["arch"] = "both" if norm == "both" else norm.upper()
    if "mode" in values:
        values["mode"] = str(values["mode"]).lower()
    return validate(RunConfig(**values), command)
