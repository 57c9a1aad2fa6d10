"""Line-of-sight channel, spectral efficiency, upload latency, high-SNR gap.

The channel gain at horizontal offset x from a radiator at z and height d is
eta_f / ((x-z)^2 + d^2); the phase factor cancels in the squared magnitude and
is not carried.  The high-SNR machinery expands 1/R in powers of 1/Lambda with
Lambda = log2(S) and an explicit remainder envelope.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (InfeasibleLinkError, OutOfRegimeError, ParameterError,
                     _Checked)

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact


def _eta_f(f_c: float) -> float:
    """Free-space gain constant c^2 / (16 pi^2 f_c^2) at carrier ``f_c``."""
    return SPEED_OF_LIGHT**2 / (16.0 * math.pi**2 * f_c**2)


class _PhyParamsFields(NamedTuple):
    P: float
    sigma_n2: float
    f_c: float
    d: float
    D: float
    W: float
    B_t: float


class PhyParams(_Checked, _PhyParamsFields):
    """Link-budget parameters: geometry, SNR scale, payload and bandwidth.

    A synchronous FDMA round of M users gives each of them the bandwidth W/M;
    a single asynchronous upload has all of W.  ``c_round(M)`` is the link
    constant for either case and ``c`` the single-user one.
    """

    __slots__ = ()

    def _check(self):
        for name in ("P", "sigma_n2", "f_c", "d", "D", "W", "B_t"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ParameterError(f"{name} must be positive and finite")

    @property
    def eta_f(self) -> float:
        return _eta_f(self.f_c)

    @property
    def S(self) -> float:
        return self.P * self.eta_f / self.sigma_n2

    def c_round(self, M: int) -> float:
        """Link constant M * B_t / W of a round of M users sharing W, in
        seconds per bit/s/Hz of rate."""
        return M * self.B_t / self.W

    @property
    def c(self) -> float:
        """Single-user link constant B_t / W."""
        return self.c_round(1)

    @staticmethod
    def from_snr_scale(S: float, d: float, D: float, W: float, B_t: float,
                       f_c: float = 28e9) -> "PhyParams":
        """Build params achieving a target SNR scale S with unit transmit power."""
        if S <= 0:
            raise ParameterError("S must be positive")
        return PhyParams(P=1.0, sigma_n2=_eta_f(f_c) / S, f_c=f_c,
                         d=d, D=D, W=W, B_t=B_t)


def _rate(x, z: float, S: float, d: float, out=None) -> np.ndarray:
    """log2(1 + S / ((x-z)^2 + d^2)) shaped like x, written into the float
    array ``out`` if given (which may be x itself), else into a new one."""
    if S <= 0 or d <= 0:
        raise ParameterError("S and d must be positive")
    r = np.subtract(x, z, out=np.empty(np.shape(x)) if out is None else out,
                    dtype=float)
    np.square(r, out=r)
    r += d**2
    np.divide(S, r, out=r)
    r += 1.0
    return np.log2(r, out=r)


def spectral_efficiency(x, z: float, S: float, d: float):
    """Achievable rate R = log2(1 + S / ((x-z)^2 + d^2)) in bit/s/Hz at x,
    an array or a scalar (a batch of one, returned as a numpy scalar)."""
    return _rate(x, z, S, d)[()]


def upload_latency(c: float, x, z: float, S: float, d: float, out=None):
    """Upload time tau = c / R(x, z) for users at x and the radiator at z.

    ``c`` is the link constant ``PhyParams.c_round(M)`` of the caller's
    round (``PhyParams.c`` for a single upload).  The times are divided into
    the rate buffer, which is ``out`` if given (x itself may be passed, to
    overwrite the positions); a zero rate anywhere raises
    InfeasibleLinkError.
    """
    rate = _rate(x, z, S, d, out)
    if not rate.all():
        raise InfeasibleLinkError("a link has zero rate")
    return np.divide(c, rate, out=rate)[()]


def latency_inverse(c: float, t, S: float, d: float):
    """Inverse of ``upload_latency``: the farthest offset |x - z| whose
    upload time is at most t, sqrt(S / (2^(c/t) - 1) - d^2), t an array or
    a scalar (a batch of one); inf at t = inf.  Below tau(0), the latency
    of a zero offset (a dead link raises there), it is -inf, and from tau(0)
    on at least 0, whatever the root's rounding.  Its power is libm's, by
    numpy scalars, as Python's is."""
    t = np.asarray(t, dtype=float)
    met = t >= upload_latency(c, 0.0, 0.0, S, d)
    with np.errstate(divide="ignore", over="ignore"):
        q = np.array([np.float64(2.0) ** e for e in np.divide(c, t).flat])
        radicand = S / (q.reshape(t.shape) - 1.0) - d**2
        return np.where(met, np.sqrt(np.maximum(radicand, 0.0)), -np.inf)[()]


class HighSnrConstants(NamedTuple):
    """Envelope constants for the 1/Lambda expansion of 1/R on the corridor."""

    zeta: float
    C0: float
    C1: float
    Lambda0: float
    g_zeta: float
    ell_conv: float


def g_of_zeta(zeta: float) -> float:
    """g(zeta) = ln(1+zeta^2) - 2 + (2/zeta) arctan(zeta); positive for zeta > 0."""
    if zeta <= 0:
        raise ParameterError("zeta must be positive")
    if zeta < 0.1:
        # the closed form cancels to about zeta^2 / 3: sum 8 terms of the
        # series, smallest first, to a relative 2e-18
        return sum((-1) ** (n + 1) * zeta ** (2 * n) / (n * (2 * n + 1))
                   for n in range(8, 0, -1))
    return math.log(1.0 + zeta**2) - 2.0 + (2.0 / zeta) * math.atan(zeta)


def high_snr_constants(D: float, d: float) -> HighSnrConstants:
    """Envelope constants and the corridor-averaged log-distance term."""
    if D <= 0 or d <= 0:
        raise ParameterError("D and d must be positive")
    zeta = D / (2.0 * d)
    r2_max = d**2 + (D / 2.0) ** 2
    C0 = max(abs(math.log2(d**2)), abs(math.log2(r2_max)))
    C1 = r2_max / math.log(2.0)
    Lambda0 = max(4.0 * C0, math.log2(4.0 * C1), 1.0)
    g = g_of_zeta(zeta)
    ell_conv = math.log2(d**2) + g / math.log(2.0)
    return HighSnrConstants(zeta=zeta, C0=C0, C1=C1, Lambda0=Lambda0,
                            g_zeta=g, ell_conv=ell_conv)


def _in_regime(Lambda: float, consts: HighSnrConstants) -> float:
    """``Lambda`` if the expansion holds there, Lambda >= Lambda0 with a
    finite double Lambda**3; else OutOfRegimeError naming Lambda and zeta."""
    try:
        if Lambda >= consts.Lambda0 and math.isfinite(Lambda**3):
            return Lambda
    except OverflowError:
        pass
    raise OutOfRegimeError(f"Lambda={Lambda} at zeta={consts.zeta}: need "
                           f"Lambda >= {consts.Lambda0} with a finite cube")


def remainder_envelope(Lambda: float, consts: HighSnrConstants) -> float:
    """Uniform bound on the expansion remainder of 1/R at log-SNR Lambda."""
    _in_regime(Lambda, consts)
    damp = consts.C1 * 2.0 ** (-Lambda)
    return 2.0 * (consts.C0 + damp) ** 2 / Lambda**3 + damp / Lambda**2


def lambda_star(consts: HighSnrConstants) -> float:
    """Log-SNR threshold above which the latency-gap bracket stays positive,
    if the expansion holds there (see ``_in_regime``).

    Where g(zeta) is not positive, as where zeta^2 underflows in its series
    (zeta below about 1e-162), the bracket's leading term never wins: the
    threshold is infinite, and out of the regime.
    """
    g = consts.g_zeta
    if not g > 0:
        return _in_regime(math.inf, consts)
    ln2 = math.log(2.0)
    return _in_regime(max(consts.Lambda0,
                          16.0 * (consts.C0 + consts.C1) ** 2 * ln2 / g,
                          math.log2(8.0 * consts.C1 * ln2 / g), 1.0), consts)


def afl_gap_bracket(Lambda: float, consts: HighSnrConstants) -> float:
    """The per-upload 1/R gap bracket; may be negative below lambda_star."""
    _in_regime(Lambda, consts)
    ln2 = math.log(2.0)
    damp = consts.C1 * 2.0 ** (-Lambda)
    return (
        consts.g_zeta / (Lambda**2 * ln2)
        - 4.0 * (consts.C0 + damp) ** 2 / Lambda**3
        - 2.0 * damp / Lambda**2
    )
