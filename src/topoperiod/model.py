"""Piecewise-sinusoid signal model: synthesis and estimation.

A model is a sequence of contiguous sinusoid segments under one shared
amplitude envelope. Phases are chained so the waveform stays continuous
across segment boundaries: each segment inherits the accumulated phase of
its predecessor at the boundary time. Estimation walks the signal's zero
crossings, splits the gap sequence where the local mean gap shifts, and
reads each segment's frequency from its mean half-period.

Both searches in the fit are vectorized and exact:

- **Gap splits.** Every window mean is taken once, and every position
  where two adjacent windows differ enough is found in one test. Only
  the triggers that the scan actually reaches are refined in Python.
- **Initial phase.** The squared error of ``a sin(theta + phi)`` against
  the first interval is a trigonometric polynomial of degree 2 in
  ``phi``, so six sums over the interval screen all 256 grid phases at
  once. Only the phases whose screened error lies within a rounding bound
  of the smallest are re-scored with the direct sum, and the first of
  their minima wins, which is the phase a full direct scan would pick.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .embedding import PointCloud, _sign_changes, _unit_shift, crossing_positions
from .errors import (
    InsufficientPeaksError,
    NoZeroCrossingsError,
    PhaseConditionError,
)
from .signal_io import Signal

_TWO_PI = 2.0 * math.pi
_PHASE_TOL = 1e-9

# Gap-sequence change detection: windows this many half-period gaps wide,
# splitting when the windowed means differ by this relative amount.
_GAP_WINDOW = 8
_GAP_SHIFT = 0.2

_PHI_GRID = 256  # resolution of the initial-phase search, steps of 2*pi/256
_PHI = _TWO_PI * np.arange(_PHI_GRID) / _PHI_GRID
_COS_PHI, _SIN_PHI = np.cos(_PHI), np.sin(_PHI)
_COS_2PHI, _SIN_2PHI = np.cos(2.0 * _PHI), np.sin(2.0 * _PHI)
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)

# Samples per block in ``_pchip_at``: its temporaries are a few blocks,
# not a few copies of the input.
_ENVELOPE_BLOCK = 1 << 14


@dataclass(frozen=True)
class SinusoidSegment:
    """One segment: ``sin(2 pi t / period + phase)`` on [t_start, t_end)."""

    t_start: float
    t_end: float
    period: float
    phase: float


# SinusoidSegment fields, in order, and their keys in the model file.
_SEGMENT_FIELDS = (("t_start", "t0"), ("t_end", "t1"), ("period", "period"), ("phase", "phase"))
_SEGMENT_KEYS = tuple(key for _, key in _SEGMENT_FIELDS)
_segment_values = operator.attrgetter(*(name for name, _ in _SEGMENT_FIELDS))


def _pchip_coefficients(ts: np.ndarray, amps: np.ndarray) -> np.ndarray | None:
    """Per-interval cubic coefficients of the PCHIP through (ts, amps).

    Row k holds ``(c3, c2, c1, c0)``, and the interpolant on interval k is
    ``c3 + c2 s + c1 s^2 + c0 s^3`` with ``s = t - ts[k]``. Every value is
    the float scipy's ``PchipInterpolator`` forms, by the same operations
    in the same order:

    - breakpoint slopes as ``PchipInterpolator._find_derivatives`` picks
      them: zero where the secant slopes either side change sign or one
      is zero, else their weighted harmonic mean (Fritsch and Butland);
      at each end the one-sided three-point estimate of Moler's
      ``pchiptx``, zeroed when its sign differs from the end secant's,
      and clipped to three times that secant when the first two secants
      differ in sign; with two breakpoints, the one secant slope;
    - coefficients as ``CubicHermiteSpline`` forms them.

    Returns None when a breakpoint slope is not finite, where scipy
    raises ValueError. The caller silences floating-point warnings.
    """
    h = ts[1:] - ts[:-1]
    m = (amps[1:] - amps[:-1]) / h
    if m.size == 1:
        d = np.concatenate((m, m))
    else:
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        # Both ends at once: (h0, h1, m0, m1) from the outside in.
        h0, h1 = h[[0, -1]], h[[1, -2]]
        m0, m1 = m[[0, -1]], m[[1, -2]]
        end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        s0 = np.sign(m0)
        zero = np.sign(end) != s0
        clip = ~zero & (s0 != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
        end = np.where(zero, 0.0, np.where(clip, 3.0 * m0, end))
        d = np.concatenate((end[:1], np.where(flat, 0.0, 1.0 / whmean), end[1:]))
    if not np.isfinite(d).all():
        return None
    c = (d[:-1] + d[1:] - 2 * m) / h
    return np.column_stack((amps[:-1], d[:-1], (m - d[:-1]) / h - c, c / h))


def _pchip_at(ts: np.ndarray, amps: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The PCHIP through (ts, amps) at times t, edge-clamped, in t's shape.

    Evaluated in blocks of samples so the temporaries stay small. Raises
    ValueError naming the span when a breakpoint slope is not finite.
    """
    if ts.size == 1:
        return np.full(np.shape(t), amps[0])
    # The coefficients of intervals far narrower than their amplitude
    # steps may overflow, and so may their products with the offsets:
    # the values are then not finite, without a warning.
    with np.errstate(all="ignore"):
        coef = _pchip_coefficients(ts, amps)
        if coef is None:
            raise ValueError(
                f"envelope slopes between breakpoints {float(ts[0])!r} and "
                f"{float(ts[-1])!r} s are not finite"
            )
        x = np.asarray(t, dtype=np.float64)
        flat = x.reshape(-1)
        out = np.empty(flat.size)
        last = ts.size - 2
        for lo in range(0, flat.size, _ENVELOPE_BLOCK):
            hi = lo + _ENVELOPE_BLOCK
            s = np.clip(flat[lo:hi], ts[0], ts[-1])
            # The interval holding s, as scipy's PPoly finds it: the last
            # breakpoint at or below s, but the last interval for s at the
            # right end.
            i = np.searchsorted(ts, s, side="right")
            i -= 1
            np.minimum(i, last, out=i)
            s -= ts[i]
            c = coef.take(i, axis=0)
            # PPoly's sum order: ((c3 + c2 s) + c1 (s s)) + c0 ((s s) s).
            # It starts from 0.0 + c3, which is c3 as no amplitude is
            # -0.0, and float addition commutes.
            res = np.multiply(c[:, 1], s, out=out[lo:hi])
            res += c[:, 0]
            s2 = s * s
            res += c[:, 2] * s2
            s2 *= s
            res += c[:, 3] * s2
    return out.reshape(x.shape)


def _wrap_phase(x: float) -> float:
    """Map a phase difference into (-pi, pi]."""
    return x - _TWO_PI * math.floor((x + math.pi) / _TWO_PI)


@dataclass(frozen=True)
class PiecewiseSinusoidModel:
    """Contiguous sinusoid segments under a shared positive envelope.

    ``envelope`` holds (time, amplitude) breakpoints, strictly increasing
    in time and positive in amplitude; between breakpoints the envelope is
    interpolated with a shape-preserving monotone cubic, and outside them
    it holds the edge value. Construction fails with ValueError, naming
    the field, when a segment time, period or phase or an envelope time or
    amplitude is not finite, and with PhaseConditionError unless each
    phase equals the previous one plus the boundary-time correction that
    keeps the waveform continuous.
    """

    segments: tuple[SinusoidSegment, ...]
    envelope: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("model needs at least one segment")
        env = tuple((float(t), float(a)) for t, a in self.envelope)
        if not env:
            raise ValueError("model needs at least one envelope breakpoint")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "envelope", env)

        # Named by the field and its model-file key: an infinite time or a
        # NaN phase would otherwise fail far from here, or not at all.
        for i, seg in enumerate(segs):
            for name, key in _SEGMENT_FIELDS:
                value = getattr(seg, name)
                if not math.isfinite(value):
                    raise ValueError(f"segment {i} {name} ({key}) must be finite, got {value}")
        for i, (t, a) in enumerate(env):
            if not (math.isfinite(t) and math.isfinite(a)):
                name, key, value = ("amplitude", "a", a) if math.isfinite(t) else ("time", "t", t)
                raise ValueError(
                    f"envelope breakpoint {i} {name} ({key}) must be finite, got {value}"
                )

        for seg in segs:
            if not (seg.period > 0):
                raise ValueError(f"segment period must be positive, got {seg.period}")
            if not (seg.t_end > seg.t_start):
                raise ValueError("segment must have positive duration")
        for prev, cur in zip(segs, segs[1:]):
            if prev.t_end != cur.t_start:
                raise ValueError(
                    f"segments must be contiguous: {prev.t_end} != {cur.t_start}"
                )
        times = [t for t, _ in env]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("envelope breakpoint times must be strictly increasing")
        if any(a <= 0 for _, a in env):
            raise ValueError("envelope amplitudes must be positive")

        for prev, cur in zip(segs, segs[1:]):
            expected = prev.phase + _TWO_PI * cur.t_start * (
                1.0 / prev.period - 1.0 / cur.period
            )
            if abs(_wrap_phase(cur.phase - expected)) > _PHASE_TOL:
                raise PhaseConditionError(
                    f"phase {cur.phase} at t={cur.t_start} breaks continuity; "
                    f"expected {expected} (mod 2 pi)"
                )

    @classmethod
    def from_periods(
        cls,
        boundaries: list[float],
        periods: list[float],
        phi0: float = 0.0,
        envelope: float | list[tuple[float, float]] = 1.0,
    ) -> "PiecewiseSinusoidModel":
        """Build a model with phases derived from the continuity chain.

        ``boundaries`` has one more entry than ``periods``. A scalar
        envelope becomes a constant breakpoint pair over the full span.
        """
        if len(boundaries) != len(periods) + 1:
            raise ValueError("need one more boundary than periods")
        phases = [float(phi0)]
        for i in range(1, len(periods)):
            phases.append(
                phases[i - 1]
                + _TWO_PI * boundaries[i] * (1.0 / periods[i - 1] - 1.0 / periods[i])
            )
        segs = tuple(
            SinusoidSegment(boundaries[i], boundaries[i + 1], periods[i], phases[i])
            for i in range(len(periods))
        )
        if isinstance(envelope, (int, float)):
            envelope = [
                (boundaries[0], float(envelope)),
                (boundaries[-1], float(envelope)),
            ]
        # The constructor turns the rows into float pairs.
        return cls(segs, envelope)

    @property
    def t_start(self) -> float:
        return self.segments[0].t_start

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_end

    def envelope_at(self, t: np.ndarray) -> np.ndarray:
        """Envelope values at times t: ``_pchip_at`` on the breakpoints.

        That is ``scipy.interpolate.PchipInterpolator(ts, amps)`` at the
        edge-clamped times bit for bit, or ValueError for a non-finite slope.
        """
        ts, amps = np.asarray(self.envelope).T
        return _pchip_at(ts, amps, t)

    def to_dict(self) -> dict:
        return {
            "segments": [
                dict(zip(_SEGMENT_KEYS, _segment_values(s))) for s in self.segments
            ],
            "envelope": [{"t": t, "a": a} for t, a in self.envelope],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PiecewiseSinusoidModel":
        """Inverse of ``to_dict``.

        Raises ``ValueError`` naming the part when the model is not an
        object, lacks its segments or envelope or holds them other than
        as a list, or a segment or breakpoint is not an object, lacks a
        key or holds a value that is not a number.
        """
        if not isinstance(data, dict):
            raise ValueError(f"a model must be an object, not {type(data).__name__}")
        segs = _model_rows(data, "segments", "segment", _SEGMENT_KEYS)
        env = _model_rows(data, "envelope", "envelope breakpoint", ("t", "a"))
        return cls(tuple(SinusoidSegment(*row) for row in segs), tuple(env))


def _model_rows(
    data: dict, part: str, name: str, keys: tuple[str, ...]
) -> list[tuple[float, ...]]:
    """The values of ``keys`` in each row of one part of a model file."""
    if part not in data:
        raise ValueError(f"model lacks {part!r}")
    rows = data[part]
    if not isinstance(rows, list):
        raise ValueError(f"model {part!r} must be a list, not {type(rows).__name__}")
    get = operator.itemgetter(*keys)
    out = []
    for i, row in enumerate(rows):
        try:
            out.append(tuple(map(float, get(row))))
        except KeyError as exc:
            raise ValueError(f"{name} {i} lacks {exc}") from None
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                f"{name} {i} must be an object with a number at each of {keys}: {row!r}"
            ) from None
    return out


def synthesize(model: PiecewiseSinusoidModel, sample_rate_hz: float) -> Signal:
    """Sample a model on the grid ``i / rate`` over its time span.

    Samples fall in the half-open span [t_start, t_end); each takes the
    period and phase of the segment containing its time.
    """
    r = float(sample_rate_hz)
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"sample rate must be finite and positive, not {r!r}")
    first, last = model.t_start * r - 1e-9, model.t_end * r - 1e-9
    if not max(abs(first), abs(last)) < 2.0**63:
        raise ValueError(f"sample rate {r!r} puts the model's sample indices past int64")
    i0, i1 = math.ceil(first), math.ceil(last)
    if i1 - i0 < 2:
        raise ValueError("sample rate too low for the model's span")
    t = np.arange(i0, i1, dtype=np.float64) / r

    starts = np.asarray([seg.t_start for seg in model.segments])
    periods = np.asarray([seg.period for seg in model.segments])
    phases = np.asarray([seg.phase for seg in model.segments])
    seg_idx = np.searchsorted(starts[1:], t, side="right")

    amps = model.envelope_at(t)
    w = amps * np.sin(_TWO_PI * t / periods[seg_idx] + phases[seg_idx])
    return Signal(w, r)


@dataclass(frozen=True)
class SegmentEstimate:
    """Constant-frequency intervals found in a signal.

    ``frequencies[j]`` is exactly ``1 / (2 * gap_means[j])``: the mean gap
    between zero crossings inside an interval is half the local period.
    """

    intervals: tuple[tuple[float, float], ...]
    gap_means: tuple[float, ...]
    frequencies: tuple[float, ...]


def _split_gap_runs(gaps: np.ndarray) -> list[int]:
    """Indices where the gap sequence switches to a new mean level.

    A split is declared when two adjacent windows of _GAP_WINDOW gaps have
    means differing by more than _GAP_SHIFT of the left mean, then refined
    to the largest adjacent-gap jump near the trigger point. The scan then
    resumes one window past the split, so triggers it jumps over are
    skipped.
    """
    n = gaps.size
    w = _GAP_WINDOW
    if n < 2 * w:
        return []
    # means[k] is the mean of gaps[k : k + w], reduced in the same order
    # as np.mean of that slice, so every trigger test matches bit for bit.
    means = sliding_window_view(gaps, w).mean(axis=1)
    left, right = means[:-w], means[w:]
    triggers = np.flatnonzero(np.abs(left - right) > _GAP_SHIFT * left) + w
    jumps = np.abs(np.diff(gaps))
    splits: list[int] = []
    k = np.searchsorted(triggers, w)
    while k < triggers.size:
        i = int(triggers[k])
        lo = max(1, i - 2)
        hi = min(n - 1, i + w)
        bp = lo + int(np.argmax(jumps[lo - 1 : hi]))
        if not splits or bp > splits[-1]:
            splits.append(bp)
        k = np.searchsorted(triggers, bp + w)
    return splits


def estimate_segments(s: Signal) -> SegmentEstimate:
    """Partition a signal into constant-frequency intervals.

    Zero-crossing gaps approximate half-periods; a shift in their running
    mean marks a frequency change. Raises NoZeroCrossingsError when the
    signal has fewer than two crossings.
    """
    crossings = crossing_positions(s.samples) / s.sample_rate_hz
    if crossings.size < 2:
        raise NoZeroCrossingsError(
            f"found {crossings.size} zero crossing(s), need at least 2"
        )
    gaps = np.diff(crossings)
    splits = _split_gap_runs(gaps)
    bounds = [0] + splits + [gaps.size]
    intervals: list[tuple[float, float]] = []
    mus: list[float] = []
    freqs: list[float] = []
    for a, b in zip(bounds, bounds[1:]):
        mu = float(np.mean(gaps[a:b]))
        intervals.append((float(crossings[a]), float(crossings[b])))
        mus.append(mu)
        freqs.append(1.0 / (2.0 * mu))
    return SegmentEstimate(tuple(intervals), tuple(mus), tuple(freqs))


def fit_envelope(s: Signal) -> np.ndarray:
    """Amplitude breakpoints from the positive local maxima of a signal.

    Strict maxima only; a flat plateau contributes its midpoint sample.
    Returns an (n, 2) array of (time, amplitude) rows. Raises
    InsufficientPeaksError with fewer than two qualifying peaks.
    """
    x = s.samples
    # A difference that overflows is an infinity of its sign, so it still
    # counts.
    with np.errstate(over="ignore"):
        d = np.diff(x)
    a, b = _sign_changes(d)
    rise = d[a] > 0
    # Floor, not round: a plateau of even length keeps its left middle sample.
    mid = (a[rise] + 1 + b[rise]) // 2
    mid = mid[x[mid] > 0]
    if len(mid) < 2:
        raise InsufficientPeaksError(
            f"found {len(mid)} positive local maxima, need at least 2"
        )
    return np.column_stack((mid / s.sample_rate_hz, x[mid]))


def _best_phase(x: np.ndarray, amps: np.ndarray, theta: np.ndarray) -> int:
    """Index of the grid phase minimizing ``sum((x - amps sin(theta + phi))**2)``.

    The first index wins among equal errors, as in a direct scan of the
    grid. Expanding the square gives, for every phi,

        E(phi) = X - 2 (Ss cos phi + Sc sin phi)
                 + (A - C2 cos 2phi + S2 sin 2phi) / 2

    with X = sum x^2, A = sum a^2, Ss = sum x a sin theta, Sc = sum x a
    cos theta, C2 = sum a^2 cos 2theta and S2 = sum a^2 sin 2theta. That
    screen is exact in real arithmetic. In floating point, with u = eps/2,
    N samples, T = max |theta| and sin and cos within 4 ulp:

    - the direct sum is within u (X + A) (3T + 2N + 60) of E: rounding
      theta + phi moves sin by up to u (T + 2 pi), sin, the product, the
      difference and the square add a few u per term, and summing N terms
      adds N u of their total, which is at most 2 (X + A);
    - the screen is within u (X + A) (5N + 80) of E: each of the six sums
      is within (N + 10) u of the sum of its terms' magnitudes, which is
      at most X + A, and combining them adds a few u (X + A) more.

    So for every phase |screen - direct| < M = u (X + A) (7N + 4T + 160),
    and the phase with the least direct error has a screened error within
    2M of the least screened error. Underflow adds at most one smallest
    subnormal per rounded product, hence the (16N + 64) tiny term. Only
    the phases inside that margin are re-scored directly.

    All sums run on x and amps divided by one power of two near their
    largest magnitude, so none can overflow. That scales every term by
    one factor exactly, so the argmin is the one of the unscaled sums.
    """
    shift = _unit_shift(x, amps)
    x, amps = np.ldexp(x, shift), np.ldexp(amps, shift)
    xa = x * amps
    a2 = amps * amps
    sum_x2 = float(np.dot(x, x))
    sum_a2 = float(np.dot(amps, amps))
    ss = float(np.dot(xa, np.sin(theta)))
    sc = float(np.dot(xa, np.cos(theta)))
    c2 = float(np.dot(a2, np.cos(2.0 * theta)))
    s2 = float(np.dot(a2, np.sin(2.0 * theta)))
    screen = (
        sum_x2
        - 2.0 * (ss * _COS_PHI + sc * _SIN_PHI)
        + 0.5 * (sum_a2 - c2 * _COS_2PHI + s2 * _SIN_2PHI)
    )
    n = x.size
    theta_max = float(np.abs(theta).max(initial=0.0))
    # 2M from the bound above, as eps = 2u.
    margin = _EPS * (7 * n + 4 * theta_max + 160) * (sum_x2 + sum_a2) + (16 * n + 64) * _TINY
    keep = np.flatnonzero(screen <= screen.min() + margin)
    errs = [float(np.sum((x - amps * np.sin(theta + phi)) ** 2)) for phi in _PHI[keep]]
    return int(keep[int(np.argmin(errs))])


def fit_model(s: Signal) -> PiecewiseSinusoidModel:
    """Estimate a piecewise-sinusoid model from a signal.

    Interior segment boundaries sit on zero crossings found by the gap
    scan; the outer boundaries extend to the signal's full span. The
    initial phase is picked from a 2 pi / 256 grid by least squares on the
    first interval, and later phases follow from the continuity chain. A
    closed-form screen of all 256 squared errors leaves only the phases
    within a rounding bound of the best, and those are re-scored by the
    direct sum, so the pick is the one a direct scan of the grid makes.
    """
    est = estimate_segments(s)
    env_rows = fit_envelope(s)

    inner = [iv[0] for iv in est.intervals[1:]]
    boundaries = [0.0] + inner + [s.duration_s]
    periods = [1.0 / f for f in est.frequencies]

    t = s.times()
    mask = t < boundaries[1]
    x = s.samples[mask]
    # The phase is fitted on the first segment, in times scaled by 2^a,
    # which puts the span in [0.5, 1), and in amplitudes scaled by 2^b,
    # which puts the largest below 1. Both scalings are exact, so every
    # value is the unscaled one scaled and the pick does not move, but
    # neither the envelope's PCHIP nor theta can leave float64 at any rate
    # or amplitude a signal holds.
    a = -math.frexp(s.duration_s)[1]
    b = _unit_shift(x, env_rows[:, 1])
    t_scaled = np.ldexp(t[mask], a)
    amps = _pchip_at(np.ldexp(env_rows[:, 0], a), np.ldexp(env_rows[:, 1], b), t_scaled)
    theta = _TWO_PI * t_scaled / math.ldexp(periods[0], a)
    phi0 = float(_PHI[_best_phase(np.ldexp(x, b), amps, theta)])

    return PiecewiseSinusoidModel.from_periods(boundaries, periods, phi0, env_rows.tolist())


def graph(s: Signal) -> PointCloud:
    """The signal's graph {(t_i, x_i)} as a 2-D point cloud."""
    return PointCloud(np.column_stack((s.times(), s.samples)))
