"""Run configuration: one flat record of every experiment knob, with its
default, its help and the commands that read it.

Configs come from a line-based ``key = value`` file, optionally overridden by
command-line flags.  Unknown keys, keys the command does not read, and
malformed or out-of-range values raise ``ConfigError`` naming the key.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Dict, List, Optional, Set, Tuple

from .errors import ConfigError, ParameterError
from .flcore import MAX_BITS, QuantizerSpec
from .participation import DETERMINISTIC, SHIFTED_EXPONENTIAL, DeadlineModel
from .phy import PhyParams
from .spatial import GAUSSIAN_MIXTURE, UNIFORM, DistributionSpec


_ALL = "ccdf participation highsnr train verify"
_SIM = "ccdf participation train"   # the commands that compute link rates
_DEADLINE = "participation train:afl"
_MIXTURE = " ".join(f"{c}:{GAUSSIAN_MIXTURE}" for c in _SIM.split())


# (name, default, readers, help) of each knob, the one list of RunConfig's
# fields.  A key parses as the type of its default.  Its readers are
# commands, each written ``command:when`` where it reads the key only in one
# mode (sfl or afl) or one distribution (uniform or gaussian_mixture).
_KNOBS = (
    # population and geometry
    ("k", 40, "ccdf:sfl participation train verify", "number of users K"),
    ("m", 7, "ccdf:sfl train:sfl verify", "users per SFL round M"),
    ("corridor", 10.0, _ALL, "corridor length D, metres"),
    ("height", 3.0, _SIM + " highsnr", "waveguide height d, metres"),
    # link budget
    ("power", 0.01, _SIM, "transmit power P, watts"),
    ("noise", 1e-12, _SIM, "noise power sigma_n^2, watts"),
    ("f_c", 28e9, _SIM, "carrier frequency, Hz"),
    ("bandwidth", 1e6, _SIM, "total bandwidth W, Hz"),
    ("payload", 1e5, _SIM, "update payload B_t, bits"),
    ("snr", 0.0, _SIM, "SNR scale; 0 uses power and noise"),
    # compression
    ("bits", 6, "train", "quantizer bits per coordinate, 1 to 53"),
    ("c_q", 1.0, "train", "quantizer fidelity constant; 0 is lossless"),
    # deadline / trigger model
    ("deadline", 0.012, _DEADLINE, "deadline T_d, seconds"),
    ("t0", 0.0, _DEADLINE, "compute-time offset, seconds"),
    ("fc_kind", DETERMINISTIC, _DEADLINE,
     "compute time: deterministic or shifted_exponential"),
    ("rate", 0.0, _DEADLINE, "exponential compute-time rate, 1/s"),
    ("p_s", 1.0, "train:afl", "trigger probability, in (0, 1]"),
    ("tick", 0.0, "train:afl", "AFL trigger period; 0 = deadline"),
    # spatial distribution
    ("dist", UNIFORM, _SIM, "positions: uniform or gaussian_mixture"),
    ("mu", 3.0, _MIXTURE, "mixture cluster offset, metres"),
    ("sigma_x", 0.5, _MIXTURE, "mixture cluster spread, metres"),
    # training
    ("eta", 0.1, "train", "step size"),
    ("rounds", 200, "train", "SFL rounds, or AFL ticks at horizon 0"),
    ("horizon", 0.0, "train:afl", "AFL wall-clock horizon, seconds; 0 uses "
     "rounds times the tick period"),
    ("sigma_grad", 0.0, "train", "gradient noise deviation"),
    ("delta2", 0.0, "train", "heterogeneity of the user centres"),
    ("dim", 8, "train", "model dimension"),
    ("target", 1e-3, "train", "loss target of time_to_target"),
    ("weighting", "HT", "train:afl", "AFL weights: HT or uniform"),
    # experiment plumbing
    ("trials", 100_000, "ccdf participation verify", "Monte Carlo trials"),
    ("seed", 1, "ccdf participation train verify", "random seed"),
    ("grid_points", 50, "ccdf participation", "points of the grid"),
    ("arch", "both", "ccdf train", "architecture: CONV, PA or both"),
    ("mode", "sfl", "ccdf train", "sfl or afl"),
    ("out", ".", _ALL, "artifact directory"),
)
_TYPES = {name: type(default) for name, default, _, _ in _KNOBS}
_READERS = {name: dict(r.partition(":")[::2] for r in readers.split())
            for name, _, readers, _ in _KNOBS}


class RunConfig(namedtuple("_RunConfigFields", list(_TYPES),
                           defaults=[default for _, default, _, _ in _KNOBS])):
    """Every knob of the simulator with its readers, validated as a whole."""

    __slots__ = ()

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
        """The deadline and compute time; only AFL training adds ``p_s``."""
        return DeadlineModel(T_d=self.deadline, fc_kind=self.fc_kind,
                             t0=self.t0, rate=self.rate)

    def quantizer(self) -> QuantizerSpec:
        return QuantizerSpec(b=self.bits, c_q=self.c_q)

    def tick_period(self) -> float:
        return self.tick if self.tick > 0 else self.deadline

    def afl_horizon(self) -> float:
        return self.horizon if self.horizon > 0 else self.rounds * self.tick_period()


def flags(command: str) -> List[Tuple[str, str]]:
    """``(key, help)`` of each field ``command`` reads in any mode or dist."""
    return [(key, f"{help} (default {default}"
             + (f"; read only under {when})" if when else ")"))
            for key, default, _, help in _KNOBS
            if (when := _READERS[key].get(command)) is not None]


def reads(cfg: RunConfig, command: Optional[str] = None) -> Set[str]:
    """The fields ``command`` reads at ``cfg``'s mode and dist; all for None."""
    return {key for key, readers in _READERS.items() if command is None
            or readers.get(command) in ("", cfg.mode, cfg.dist)}


def validate(cfg: RunConfig, command: Optional[str] = None) -> RunConfig:
    """Check the fields that the subcommand ``command`` reads, every field for
    no command; ConfigError names the offending key."""
    read = reads(cfg, command)

    def require(key: str, ok: bool, why: str):
        if key in read and not ok:
            raise ConfigError(f"invalid value for config key '{key}': {why}")

    for key, value in cfg._asdict().items():
        if isinstance(value, float):
            require(key, math.isfinite(value), "must be finite")
    for key, low in (("k", 1), ("rounds", 1), ("dim", 1), ("trials", 1),
                     ("grid_points", 2)):
        require(key, getattr(cfg, key) >= low, f"must be at least {low}")
    require("m", 1 <= cfg.m <= cfg.k, f"must lie in [1, k={cfg.k}]")
    for key in ("corridor", "height", "power", "noise", "f_c", "bandwidth",
                "payload", "sigma_x", "eta", "target"):
        require(key, getattr(cfg, key) > 0, "must be positive")
    # numpy's SeedSequence takes only nonnegative integers
    for key in ("snr", "t0", "tick", "horizon", "sigma_grad", "delta2",
                "deadline", "c_q", "mu", "seed"):
        require(key, getattr(cfg, key) >= 0, "must be nonnegative")
    for key, choices in (("fc_kind", (DETERMINISTIC, SHIFTED_EXPONENTIAL)),
                         ("dist", (UNIFORM, GAUSSIAN_MIXTURE)),
                         ("weighting", ("HT", "uniform")),
                         ("arch", ("CONV", "PA", "both")),
                         ("mode", ("sfl", "afl"))):
        require(key, getattr(cfg, key) in choices,
                f"must be one of {', '.join(map(repr, choices))}")
    require("bits", 1 <= cfg.bits <= MAX_BITS,
            f"must lie in [1, {MAX_BITS}], where every grid index is an "
            f"exact double")
    require("p_s", 0 < cfg.p_s <= 1, "must lie in (0, 1]")
    require("rate", cfg.fc_kind != SHIFTED_EXPONENTIAL or cfg.rate > 0,
            "must be positive for the exponential family")
    require("delta2", cfg.k >= 2 or cfg.delta2 == 0,
            "must be 0 with k=1: one user's centre is the mean, with no "
            "spread to scale")
    if cfg.mode == "afl" and "horizon" in read:
        period_key = "tick" if cfg.tick > 0 else "deadline"
        require(period_key, cfg.tick_period() > 0,
                "the afl tick period must be positive")
        require("horizon", 0 < cfg.afl_horizon() < math.inf,
                "the afl horizon (rounds times the tick period unless "
                "given) must be positive and finite")
        require(period_key, math.isfinite(cfg.afl_horizon() / cfg.tick_period()),
                "the afl tick period is too small: horizon / tick period "
                "overflows")
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

    Flags win over file values; unknown keys, and keys that ``command`` does
    not read at the config's mode and distribution, are rejected by name.
    Arch and mode strings are case-normalized (arch upper, mode lower).
    """
    pairs = []
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
            pairs.append(tuple(part.strip() for part in text.split("=", 1)))
    pairs += [(key, raw) for key, raw in (overrides or {}).items()
              if raw is not None]
    values: Dict[str, object] = {}
    for key, raw in pairs:
        if key not in _TYPES:
            raise ConfigError(f"unknown config key '{key}'")
        try:
            values[key] = _TYPES[key](str(raw).strip())
        except ValueError:
            raise ConfigError(f"malformed value for config key '{key}': {raw!r}")
    if "arch" in values:
        norm = str(values["arch"]).lower()
        values["arch"] = "both" if norm == "both" else norm.upper()
    if "mode" in values:
        values["mode"] = str(values["mode"]).lower()
    cfg = RunConfig(**values)
    read = reads(cfg, command)
    for key in values:
        if key not in read:
            when = _READERS[key].get(command)
            raise ConfigError(f"config key '{key}' is read by {command} only "
                              f"under {when}" if when else
                              f"config key '{key}' is not read by {command}")
    return validate(cfg, command)
