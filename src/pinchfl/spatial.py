"""User positions, the round schedule, and straggler-offset geometry.

A position sample is a plain (K,) array on a 1-D corridor, a batch (n, K).
This module decides where the radiator sits: the fixed antenna stays at the
origin, the pinched one moves to the midpoint of the tightest window of M
consecutive sorted users.  Their bottlenecks, the M-th smallest absolute
offset and half that window's span, are the least cost of an M-window of the
sorted row; the schedule takes the lowest window start of that cost.  The
minimum spacing is the smallest of the K+1 gaps, edge gaps included, over D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; pay that at import

from .analytics import check_order
from .errors import ParameterError

UNIFORM = "uniform"
GAUSSIAN_MIXTURE = "gaussian_mixture"

CONV = "CONV"  # fixed radiator at the origin
PA = "PA"      # pinched radiator, movable along the waveguide


@dataclass(frozen=True)
class DistributionSpec:
    """Spatial distribution of user x-coordinates.

    ``uniform``: i.i.d. on [-D/2, D/2].
    ``gaussian_mixture``: fair coin picks the +mu or -mu cluster, then a
    Gaussian(center, sigma^2) draw, unclipped.
    """

    kind: str
    D: float = 0.0
    mu: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in (UNIFORM, GAUSSIAN_MIXTURE):
            raise ParameterError(f"unknown distribution kind {self.kind!r}")
        for name in ("D", "mu", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if self.kind == UNIFORM and self.D <= 0:
            raise ParameterError("uniform corridor length D must be positive")
        if self.kind == GAUSSIAN_MIXTURE:
            if self.sigma <= 0:
                raise ParameterError("cluster sigma must be positive")
            if self.mu < 0:
                raise ParameterError("cluster offset mu must be nonnegative")


def draw_positions(rng, spec: DistributionSpec, size, normal_rng=None,
                   out=None) -> np.ndarray:
    """Array of i.i.d. user positions from ``spec`` with shape ``size``,
    written into ``out``, a C-contiguous float array of that shape, if
    given, else into a new array.

    A mixture position takes a fair coin from ``rng`` to pick the cluster,
    then a Gaussian offset from ``normal_rng`` (``rng`` itself if None): all
    the coins of the call are drawn before any normal.  The coins are drawn
    into the result and kept as a boolean mask, the normals then overwrite
    them, so no second float array is allocated.
    """
    # numpy fills a Fortran-order out in memory order, permuting the draw
    if out is not None and not out.flags.c_contiguous:
        raise ParameterError("out must be a C-contiguous array")
    xs = rng.random(size, out=out)
    if spec.kind == UNIFORM:
        # the bits of rng.uniform(-D/2, D/2), which rounds D u, then adds
        # -D/2, but without its slower per-element call
        xs *= spec.D
        xs -= spec.D / 2.0
        return xs
    left = xs < 0.5
    (rng if normal_rng is None else normal_rng).standard_normal(size, out=xs)
    # sigma z: the bits of normal(0, sigma), which is 0.0 + sigma z, but
    # for the sign of a zero
    xs *= spec.sigma
    # +1 or -1 per position, in the bytes of the mask.  Rounding is
    # symmetric, so -(-y + mu) is y - mu bit for bit: flipping the left
    # cluster's offsets, adding mu and flipping back adds every centre
    # with no array of centres
    sign = left.view(np.int8)
    sign *= -2
    sign += 1
    xs *= sign
    xs += spec.mu
    xs *= sign
    # the flip leaves -0.0 where -y + mu is +0.0, but +-mu + (0.0 + sigma z)
    # is never -0.0, as 0.0 + sigma z is not
    xs += 0.0
    return xs


def sample_positions(spec: DistributionSpec, K: int, seed: int) -> np.ndarray:
    """Draw K i.i.d. user positions from ``spec`` with a fixed seed: a (K,) array."""
    K, _ = check_order(K)
    return draw_positions(np.random.default_rng(seed), spec, K)


def _window_min(sorted_xs: np.ndarray, M: int, cost, work=None) -> np.ndarray:
    """Smallest ``cost(first, last, out)`` over the M-windows of consecutive
    sorted positions (last axis), as a running minimum over the window start.

    ``cost`` writes the value of every row's window into ``out`` from the
    window's first and last position, for one window or for a chunk of
    consecutive ones.  Without ``work`` the scan takes one window at a time;
    given ``work``, a flat float buffer of at least one column of the batch,
    it takes as many windows at a time as ``work`` holds columns, into a
    Fortran-order view of ``work``, and folds each chunk's minimum into the
    result.  Only two arrays of the batch shape are allocated, the second
    only when there is a second window; on a Fortran-ordered batch each
    window reads two contiguous columns.  Minima of the same values are
    exact, so the result does not depend on the layout, bit for bit, nor on
    the chunk width, but for the sign of a zero cost.  M outside [1, K]
    raises ParameterError.
    """
    K = sorted_xs.shape[-1]
    if not 1 <= M <= K:
        raise ParameterError(f"window of M={M} sorted positions: need "
                             f"1 <= M <= K={K}")
    windows = K - M + 1
    best = np.empty(sorted_xs.shape[:-1])
    scratch = np.empty_like(best) if windows > 1 else None
    if work is None:
        cost(sorted_xs[..., 0], sorted_xs[..., M - 1], best)
        for i in range(1, windows):
            cost(sorted_xs[..., i], sorted_xs[..., i + M - 1], scratch)
            np.minimum(best, scratch, out=best)
        return best
    n = best.size
    if work.dtype != float or work.ndim != 1 or work.size < max(n, 1):
        raise ParameterError("work must be a flat float buffer of at least "
                             "one column of the batch")
    width = min(windows, work.size // max(n, 1))
    for i in range(0, windows, width):
        c = min(width, windows - i)
        chunk = work[:n * c].reshape(best.shape + (c,), order="F")
        cost(sorted_xs[..., i:i + c], sorted_xs[..., i + M - 1:i + M - 1 + c],
             chunk)
        if i == 0:
            np.minimum.reduce(chunk, axis=-1, out=best)
        else:
            np.minimum.reduce(chunk, axis=-1, out=scratch)
            np.minimum(best, scratch, out=best)
    return best


def _reach(first, last, out):
    # the larger |x| of a sorted window's ends, as first <= last
    np.negative(first, out=out)
    np.maximum(out, last, out=out)


def _width(first, last, out):
    np.subtract(last, first, out=out)


def _min_spacing(sorted_xs, half2, D, work):
    """Smallest of the K+1 gaps of each sorted row of an (n, K) batch on
    [-D/2, D/2], edge gaps included, over D, written into ``work``, a flat
    float buffer of two columns of the batch (one at K = 1).

    ``half2`` is ``pa_offsets(sorted_xs, 2)``, half the smallest interior
    gap, or None at K = 1.  min(x[0] + D/2, D/2 - x[-1]) is
    D/2 - max(-x[0], x[-1]) bit for bit, as rounding is monotone, so the
    result has the bits of the smallest ``np.diff`` of [-D/2, *x, D/2],
    over D, unless a half gap is subnormal.
    """
    n = len(sorted_xs)
    gap = work[:n]
    _reach(sorted_xs[:, 0], sorted_xs[:, -1], gap)
    np.subtract(D / 2.0, gap, out=gap)
    if half2 is not None:
        np.minimum(gap, np.multiply(half2, 2.0, out=work[n:2 * n]), out=gap)
    gap /= D
    return gap


def sorted_conv_offsets(sorted_xs: np.ndarray, M: int,
                        work=None) -> np.ndarray:
    """M-th smallest absolute offset of each sorted row (last axis).

    The M users nearest the origin are consecutive in a sorted row, so the
    offset is the smallest ``max(-x[i], x[i+M-1])`` over the M-windows.  It
    equals the M-th entry of the sorted ``|x|`` of the row, except that a
    zero may come out as -0.0.  ``work``: see ``_window_min``.
    """
    return _window_min(sorted_xs, M, _reach, work)


def pa_offsets(sorted_xs: np.ndarray, M: int, work=None) -> np.ndarray:
    """Half the span of the tightest M-window of each sorted row (last axis).

    A running minimum over the window start, in chunks of windows if given
    a flat float buffer ``work`` (see ``_window_min``): no (n, K)
    temporary, and the result does not depend on the layout, bit for bit,
    nor on the chunk width, unless a position is -0.0.
    """
    half = _window_min(sorted_xs, M, _width, work)
    half /= 2.0
    return half


def schedule_round(xs: np.ndarray, M: int, arch: str):
    """Scheduled user indices (ascending) and radiator position for one round.

    The M consecutive users of the stably sorted row whose window costs
    least, ties going to the lowest window start.  Fixed antenna: cost
    ``_reach``, radiator at the origin; at an exact tie |x| = |y| at the
    M-th place the negative user, which sorts first, wins.  Pinched antenna:
    cost ``_width``, radiator at the window's midpoint.  Non-finite
    positions raise ParameterError.
    """
    if arch not in (CONV, PA):
        raise ParameterError(f"unknown architecture {arch!r}")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ParameterError("xs must be a 1-D array")
    if not np.isfinite(xs).all():
        raise ParameterError("xs must hold finite positions")
    K, M = check_order(xs.size, M)
    order = np.argsort(xs, kind="stable")
    srt = xs[order]
    cost = np.empty(K - M + 1)
    (_reach if arch == CONV else _width)(srt[:K - M + 1], srt[M - 1:], cost)
    i = int(cost.argmin())
    z = 0.0 if arch == CONV else float(0.5 * (srt[i] + srt[i + M - 1]))
    return np.sort(order[i:i + M]), z
