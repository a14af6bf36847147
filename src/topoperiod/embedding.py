"""Delay-coordinate embeddings and the correlation curve that tunes them.

The delay for an embedding is read off an autocorrelation-like (ACL)
curve of the signal: the lag where the curve first crosses zero marks a
quarter-turn of the dominant oscillation, which spreads the embedded
points into an open loop instead of collapsing them onto a line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    NoCriticalPointsError,
    NoZeroCrossingError,
    SignalTooShortError,
)
from .signal_io import Signal, _read_table


def pairwise(p: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distances from each row of p to each row of q (default p).

    Squared coordinate differences are summed one coordinate at a time,
    in coordinate order, and the sum is square-rooted: the order the
    functions of ``scipy.spatial.distance`` sum in, so the distances equal
    theirs to the last bit. A reduction over the coordinate axis
    (``np.linalg.norm``, ``np.sum``) sums 8 or more terms pairwise and
    rounds differently.
    One accumulator and one temporary of shape (len(p), len(q)) are live.

    A distance whose square overflows float64 (coordinates about 1e154
    apart) is ``inf``, without a warning: the callers raise only where
    such a distance enters their answer, through ``_finite_distance``.
    """
    q = p if q is None else q
    with np.errstate(over="ignore"):
        acc = np.subtract.outer(p[:, 0], q[:, 0])
        acc *= acc
        tmp = np.empty_like(acc)
        for k in range(1, p.shape[1]):
            np.subtract.outer(p[:, k], q[:, k], out=tmp)
            tmp *= tmp
            acc += tmp
    return np.sqrt(acc, out=acc)


def _finite_distance(d: float) -> float:
    """d, a distance between finite points, unless it overflowed to ``inf``."""
    if math.isinf(d):
        raise ValueError("distance overflow: points about 1e154 or more apart")
    return d


def _unit_shift(*arrays: np.ndarray) -> int:
    """The exponent k for which 2^k times the largest magnitude lies in [0.5, 1).

    0 when every value is 0. Scaling by ``np.ldexp(a, k)`` is exact for
    every value that stays normal, so a kernel whose answer is an index
    can run on the scaled copy without overflowing.
    """
    top = max(float(np.abs(a).max(initial=0.0)) for a in arrays)
    return -math.frexp(top)[1]


@dataclass(frozen=True)
class PointCloud:
    """A finite set of points in a common ambient dimension.

    ``points`` is a read-only (n, m) float64 view; n may be zero.
    Coordinates must be finite. A float64 array passed in is not copied,
    and it stays writable for its owner. The coordinates are checked only
    when the cloud is built; a later write through the owner's array
    reaches the cloud unchecked and is the owner's responsibility. The
    view need not be contiguous, such as ``delay_embed``'s rows over the
    signal's samples.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.points, dtype=np.float64).view()
        if arr.ndim != 2:
            raise ValueError("points must be a 2-D array of shape (n, m)")
        if arr.shape[1] < 1:
            raise ValueError("ambient dimension must be at least 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coordinates must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "points", arr)

    def __len__(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    def diameter(self) -> float:
        """Largest pairwise Euclidean distance, 0 for fewer than 2 points.

        Raises ValueError when that distance overflows float64.
        """
        if len(self) < 2:
            return 0.0
        return _finite_distance(float(pairwise(self.points).max()))


def acl(s: Signal, form: str = "lag") -> Signal:
    """Correlation curve used for delay selection, as a signal on s's grid.

    Parameters
    ----------
    s : Signal
        Input signal of length k.
    form : str
        ``"lag"`` (default) computes the lag correlation: sample j holds
        ``sum_{l=1..k-j} x_l * x_{l+j}``, evaluated by direct summation.
        ``"literal"`` computes the degenerate unlagged form: sample i holds
        ``x_i * sum_l x_l``, kept only for auditing; its shape mirrors the
        signal itself and carries no lag information.

    Returns
    -------
    Signal
        One sample per lag, at ``s``'s sample rate. A sum that overflows
        float64 fails the ``Signal`` check: ``ValueError("samples must be
        finite")``.

    Notes
    -----
    This computes all k lags in O(k^2), and it is the reference for delay
    selection. ``detect`` and ``embed --delay auto`` go through
    ``find_delay``, which evaluates the same sums one lag at a time and
    stops after the strategy's feature. The sums are direct rather than
    FFT-based because an FFT rounds differently and could move a zero
    crossing, and with it the delay.
    """
    x = s.samples
    if form == "lag":
        # np.correlate performs the direct O(k^2) summation in C; the slice
        # keeps the nonnegative lags j = 0 .. k-1.
        vals = np.correlate(x, x, mode="full")[x.size - 1 :]
    elif form == "literal":
        # An overflowing sum or product gives inf, and a zero sample times
        # an inf sum NaN; the Signal check rejects both.
        with np.errstate(over="ignore", invalid="ignore"):
            vals = x * float(np.sum(x))
    else:
        raise ValueError(f"unknown ACL form: {form!r}")
    return Signal(vals, s.sample_rate_hz)


def _sign_changes(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (a, b) of consecutive nonzero entries of opposite sign.

    Zero entries are skipped, so ``b > a + 1`` means the values between
    them are exactly zero. Pairs come in increasing order.
    """
    nz = np.flatnonzero((v > 0) | (v < 0))
    up = v[nz] > 0
    turn = np.flatnonzero(up[1:] != up[:-1])
    return nz[turn], nz[turn + 1]


def crossing_positions(v: np.ndarray) -> np.ndarray:
    """Fractional positions where a sampled curve changes sign, in order.

    Between adjacent samples of opposite sign the position is linearly
    interpolated, ``a + v[a] / (v[a] - v[a + 1])``, or, where that
    difference overflows, ``a + 1 / (1 - v[a + 1] / v[a])``. When the
    curve touches zero exactly, the crossing is the index of the first
    zero.
    """
    a, b = _sign_changes(v)
    pos = (a + 1).astype(np.float64)
    adjacent = b == a + 1
    a = a[adjacent]
    left, right = v[a], v[a + 1]
    with np.errstate(over="ignore"):
        gap = left - right
        frac = left / gap
        wide = np.isinf(gap)
        frac[wide] = 1.0 / (1.0 - right[wide] / left[wide])
    pos[adjacent] = a + frac
    return pos


def _critical_lags(v: np.ndarray) -> np.ndarray:
    """Lags where the discrete derivative of v changes sign, in order.

    A difference that overflows is an infinity of its sign, so it still
    counts.
    """
    with np.errstate(over="ignore"):
        a, b = _sign_changes(np.diff(v))
    return np.rint((a + 1 + b) / 2).astype(np.int64)


# How many ACL features each delay strategy reads.
_FEATURES_NEEDED = {"first-zero": 1, "second-zero": 2, "mid-critical": 2}


def _feature_lags(v: np.ndarray, strategy: str) -> list[int]:
    """The lags of the features ``strategy`` reads from curve values v.

    Both scanners work left to right, so on a prefix of a curve they find
    exactly the curve's features that lie inside the prefix.
    """
    if strategy == "mid-critical":
        return _critical_lags(v).tolist()
    return np.rint(crossing_positions(v)).astype(np.int64).tolist()


def _delay_from(lags: list[int], strategy: str, k: int) -> int:
    """The delay a strategy picks from its feature lags, on a length-k curve.

    Raises NoZeroCrossingError or NoCriticalPointsError when ``lags``
    holds fewer features than the strategy needs.
    """
    if strategy == "mid-critical":
        if not lags:
            raise NoCriticalPointsError("curve is monotone, no critical points")
        if len(lags) < 2:
            raise NoCriticalPointsError("need two critical points for mid-critical")
        j = int(round((lags[0] + lags[1]) / 2))
    else:
        need = _FEATURES_NEEDED[strategy]
        if len(lags) < need:
            raise NoZeroCrossingError(
                f"curve has {len(lags)} zero crossing(s), {need} needed"
            )
        j = lags[need - 1]
    return min(max(j, 1), k - 1)


def _check_strategy(strategy: str) -> None:
    if strategy not in _FEATURES_NEEDED:
        raise ValueError(f"unknown delay strategy: {strategy!r}")


def select_delay(curve: Signal, strategy: str = "first-zero") -> int:
    """Pick an embedding delay, in samples, from an ``acl`` curve.

    Strategies
    ----------
    ``"first-zero"`` (default)
        Nearest integer lag to the first sign change of the curve.
    ``"second-zero"``
        Nearest integer lag to the second sign change.
    ``"mid-critical"``
        Rounded midpoint of the first two critical-point lags.

    ``curve`` is an ``acl`` curve: sample j holds lag j, and its rate is
    not read. Raises NoZeroCrossingError or NoCriticalPointsError when the
    curve does not supply the feature the strategy needs.

    This scans a full curve from ``acl``. ``detect`` and ``embed --delay
    auto`` use ``find_delay`` instead, which gives the same delay, or the
    same error, from a scan that stops at the strategy's feature, wherever
    ``acl(s)`` is finite and no lag product is subnormal (it scans in
    power-of-two units, so it answers beyond that too). Both use direct
    sums, not an FFT, whose different rounding could move a zero crossing
    and with it the delay.
    """
    _check_strategy(strategy)
    return _delay_from(_feature_lags(curve.samples, strategy), strategy, len(curve))


def find_delay(s: Signal, strategy: str = "first-zero") -> int:
    """The delay ``select_delay(acl(s'), strategy)`` picks, from one scan.

    ``s'`` is ``s`` scaled by the power of two that puts its largest
    magnitude in [0.5, 1), so no lag sum can overflow. The scaling is
    exact, so this is also ``select_delay(acl(s))`` wherever that curve
    is finite and no lag product is subnormal.

    Lag j of the curve is computed as ``np.dot(x[:k-j], x[j:])``, the
    same sum with the same rounding as ``np.correlate``, which calls the
    same dot routine once per lag. Lags come one at a time, and the scan
    counts the sign changes the strategy reads, as ``_sign_changes``
    counts them: of the curve for a zero crossing, of its differences for
    a critical point. Once they are enough, the lags so far hold the
    features, and the scan stops and reads them as ``select_delay`` does:
    a curve whose feature lies at lag j costs j + 1 dot products. A curve
    without the feature costs all k dot products, one call each: 1-2 us
    of call overhead per lag above what ``np.correlate`` takes, so on a
    featureless curve of a few thousand samples or fewer this is several
    times slower than ``acl``. The errors, messages included, are those
    of ``select_delay(acl(s'))``, because the last prefix is the full
    curve.
    """
    _check_strategy(strategy)
    x = np.ldexp(s.samples, _unit_shift(s.samples))
    k = x.size
    need = _FEATURES_NEEDED[strategy]
    slope = strategy == "mid-critical"
    vals = np.empty(k)
    # The sign of the last nonzero term and how often it changed. Lag 0
    # has no difference: NaN, which counts as zero.
    side = turns = 0
    prev = math.nan
    for j in range(k):
        v = vals[j] = float(np.dot(x[: k - j], x[j:]))
        term, prev = (v - prev if slope else v), v
        sign = (term > 0) - (term < 0)
        if sign and sign != side:
            turns += side != 0
            side = sign
            if turns >= need:
                break
    return _delay_from(_feature_lags(vals[: j + 1], strategy), strategy, k)


def delay_embed(s: Signal, delay: int, dim: int = 2) -> PointCloud:
    """Embed a signal into R^dim with the given sample delay.

    Point i is ``(x_i, x_{i+j}, ..., x_{i+(dim-1) j})`` for delay j, giving
    ``k - (dim-1) * j`` points for a length-k signal. The points are a
    read-only strided view of the samples, so the cloud costs no memory
    of its own. Raises SignalTooShortError when the signal cannot supply
    a single point.
    """
    if delay < 1:
        raise ValueError("delay must be at least 1 sample")
    if dim < 2:
        raise ValueError("embedding dimension must be at least 2")
    k = len(s)
    count = k - (dim - 1) * delay
    if count < 1:
        raise SignalTooShortError(
            f"signal of length {k} cannot be embedded with delay {delay}, dim {dim}"
        )
    return PointCloud(sliding_window_view(s.samples, (dim - 1) * delay + 1)[:, ::delay])


def cloud_csv_text(cloud: PointCloud) -> str:
    """The CSV form of a cloud: one point per line, comma-separated."""
    lines = [",".join(map(repr, row)) for row in cloud.points.tolist()]
    return "\n".join(lines) + ("\n" if lines else "")


def write_cloud_csv(cloud: PointCloud, path: str | Path) -> None:
    """Write a point cloud to a file in the cloud CSV format."""
    Path(path).write_text(cloud_csv_text(cloud))


def read_cloud_csv(path: str | Path) -> PointCloud:
    """Read a comma-separated point cloud written by write_cloud_csv.

    One point per line, its coordinates as ``float`` parses them, all
    finite (a non-finite one is ``MalformedHeaderError`` naming its
    line); ``#`` and blank lines are skipped, and a file without points
    is an empty 2-D cloud. As in ``load_csv``, a file whose only
    comments and blank lines lead it goes through numpy's C parser, any
    other file through a per-line loop, with the same values and errors.
    """
    table = _read_table(path, "bad point")
    if table.shape[0] == 0:
        return PointCloud(np.empty((0, 2)))
    return PointCloud(table)
