"""Piecewise-sinusoid model: synthesis, estimation, fitting, graphs."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from topoperiod import (
    InsufficientPeaksError,
    NoZeroCrossingsError,
    PhaseConditionError,
    PiecewiseSinusoidModel,
    Signal,
    SinusoidSegment,
    estimate_segments,
    fit_envelope,
    fit_model,
    graph,
    hausdorff,
    synthesize,
)
from topoperiod.embedding import crossing_positions
from topoperiod.model import (
    _ENVELOPE_BLOCK,
    _GAP_WINDOW,
    _PHI_GRID,
    _best_phase,
    _pchip_coefficients,
    _split_gap_runs,
)
from topoperiod.subsampling import SplitMix64

from fixtures import (
    GAUSS_SEEDS,
    fit_fixture,
    gauss_noise,
    noise_signal,
    reference_signal,
    wheeze_model,
)
from oracles import (
    best_phase_scan,
    envelope_pchip_scipy,
    fit_envelope_loop,
    split_gap_runs_loop,
    zero_crossing_times,
)


def _tone(freq: float) -> np.ndarray:
    """400 samples of a phase-0.3 tone at 4 kHz."""
    return np.sin(2 * np.pi * freq * np.arange(400) / 4000.0 + 0.3)


def _two_level_tone() -> np.ndarray:
    """A 440 Hz tone at 4 kHz: 400 samples of peak 1e300, then 400 of peak 1e-30.

    Scaled so the largest peak is near 1, the small peaks round to 0.
    """
    x = np.sin(2 * np.pi * 440.0 * np.arange(800) / 4000.0 + 0.3)
    x[:400] *= 1e300
    x[400:] *= 1e-30
    return x


def _ptp(s: Signal) -> float:
    return float(s.samples.max() - s.samples.min())


def _envelope_or_error(fit, s: Signal):
    """``fit(s)`` as (dtype, shape, bytes), or its error as (class, message)."""
    try:
        rows = fit(s)
    except InsufficientPeaksError as exc:
        return type(exc), str(exc)
    return rows.dtype, rows.shape, rows.tobytes()


class TestModelConstruction:
    def test_phase_chain_across_boundary(self):
        model = PiecewiseSinusoidModel.from_periods([0.0, 0.02, 0.03], [0.01, 0.005])
        assert model.segments[1].phase == pytest.approx(-4 * math.pi, abs=1e-12)
        t1 = 0.02
        left = math.sin(2 * math.pi * t1 / 0.01 + model.segments[0].phase)
        right = math.sin(2 * math.pi * t1 / 0.005 + model.segments[1].phase)
        assert abs(left - right) <= 1e-9

    def test_broken_phase_rejected(self):
        with pytest.raises(PhaseConditionError):
            PiecewiseSinusoidModel(
                (
                    SinusoidSegment(0.0, 0.02, 0.01, 0.0),
                    SinusoidSegment(0.02, 0.03, 0.005, 1.0),
                ),
                ((0.0, 1.0), (0.03, 1.0)),
            )

    def test_zero_period_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseSinusoidModel.from_periods([0.0, 0.01], [0.0])

    def test_noncontiguous_segments_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseSinusoidModel(
                (
                    SinusoidSegment(0.0, 0.01, 0.01, 0.0),
                    SinusoidSegment(0.02, 0.03, 0.01, 0.0),
                ),
                ((0.0, 1.0),),
            )

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseSinusoidModel((), ((0.0, 1.0),))

    def test_bad_envelope_rejected(self):
        seg = (SinusoidSegment(0.0, 0.01, 0.01, 0.0),)
        with pytest.raises(ValueError):
            PiecewiseSinusoidModel(seg, ())
        with pytest.raises(ValueError):
            PiecewiseSinusoidModel(seg, ((0.0, 1.0), (0.0, 2.0)))
        with pytest.raises(ValueError):
            PiecewiseSinusoidModel(seg, ((0.0, -1.0),))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "field, key", [("t_start", "t0"), ("t_end", "t1"), ("period", "period"), ("phase", "phase")]
    )
    def test_non_finite_segment_field_rejected(self, field, key, value):
        seg = {"t_start": 0.0, "t_end": 0.01, "period": 0.01, "phase": 0.0, field: value}
        with pytest.raises(ValueError, match=rf"segment 0 {field} \({key}\) must be finite"):
            PiecewiseSinusoidModel((SinusoidSegment(**seg),), ((0.0, 1.0),))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("column, name, key", [(0, "time", "t"), (1, "amplitude", "a")])
    def test_non_finite_envelope_field_rejected(self, column, name, key, value):
        seg = (SinusoidSegment(0.0, 0.01, 0.01, 0.0),)
        point = [0.01, 2.0]
        point[column] = value
        with pytest.raises(
            ValueError, match=rf"envelope breakpoint 1 {name} \({key}\) must be finite"
        ):
            PiecewiseSinusoidModel(seg, ((0.0, 1.0), tuple(point)))

    def test_boundary_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseSinusoidModel.from_periods([0.0, 1.0], [0.01, 0.005])

    def test_dict_round_trip(self):
        model = PiecewiseSinusoidModel.from_periods(
            [0.0, 0.02, 0.05], [0.01, 0.004], 0.7, [(0.0, 1.0), (0.05, 2.0)]
        )
        back = PiecewiseSinusoidModel.from_dict(model.to_dict())
        assert back == model
        import json

        assert json.loads(json.dumps(model.to_dict())) == model.to_dict()

    def test_segments_convert_to_one_array(self):
        model = PiecewiseSinusoidModel.from_periods([0.0, 0.02, 0.05], [0.01, 0.004], 0.7)
        columns = np.array(model.segments).T
        for name, column in zip(SinusoidSegment._fields, columns):
            assert column.tolist() == [getattr(seg, name) for seg in model.segments]

    def test_dict_keys_follow_field_order(self):
        model = PiecewiseSinusoidModel.from_periods([0.0, 0.02, 0.05], [0.01, 0.004], 0.7)
        row = model.to_dict()["segments"][0]
        assert SinusoidSegment._fields == ("t_start", "t_end", "period", "phase")
        assert list(row) == ["t0", "t1", "period", "phase"]
        assert tuple(row.values()) == model.segments[0]

    def test_envelope_interpolation_clamps_edges(self):
        model = PiecewiseSinusoidModel.from_periods(
            [0.0, 1.0], [0.01], 0.0, [(0.2, 1.0), (0.8, 3.0)]
        )
        vals = model.envelope_at(np.array([0.0, 0.2, 0.8, 1.0]))
        assert vals[0] == vals[1] == 1.0
        assert vals[2] == vals[3] == 3.0


def _envelope_model(envelope) -> PiecewiseSinusoidModel:
    return PiecewiseSinusoidModel.from_periods(
        [envelope[0][0], envelope[-1][0] + 1.0], [0.5], 0.0, envelope
    )


def _assert_scipy_envelope(envelope, t) -> None:
    """envelope_at equals scipy's PCHIP at t bit for bit, or both reject it."""
    want = envelope_pchip_scipy(envelope, t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = _envelope_model(envelope).envelope_at(t)
        except ValueError as exc:
            assert want is None, exc
            assert "are not finite" in str(exc)
            return
    assert want is not None
    assert got.dtype == np.float64
    assert got.shape == want.shape == np.shape(t)
    assert got.tobytes() == want.tobytes()


# Spacings and amplitudes that repeat, so flat runs, equal steps and both
# end-rule branches come up; 1e305 over a 1e-6 s step overflows a slope.
_SPACING = st.one_of(
    st.sampled_from([1e-6, 1e-3, 0.25, 1.0, 1e3]), st.floats(1e-6, 1e3)
)
_AMPLITUDE = st.one_of(
    st.sampled_from([0.5, 1.0, 1.0, 2.0, 5.0, 6.0, 1e-3, 1e305]), st.floats(0.01, 100.0)
)


class TestPchipEnvelope:
    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(
        st.floats(-10.0, 10.0),
        st.lists(st.tuples(_SPACING, _AMPLITUDE), min_size=1, max_size=12),
        _AMPLITUDE,
        st.integers(0, 2**32 - 1),
        st.sampled_from([0, 1, 2]),
    )
    def test_matches_scipy_pchip(self, t0, steps, a0, seed, ndim):
        envelope = [(t0, a0)]
        for dt, a in steps:
            envelope.append((envelope[-1][0] + dt, a))
        ts = np.array([p[0] for p in envelope])
        rng = np.random.default_rng(seed)
        span = ts[-1] - ts[0]
        t = np.concatenate(
            (
                ts,  # on the breakpoints
                np.nextafter(ts, np.inf),
                (ts[:-1] + ts[1:]) / 2.0,
                rng.uniform(ts[0], ts[-1], 40),
                [ts[0] - 1.0, ts[0] - span, ts[-1] + 1e-9, ts[-1] + span],  # outside
            )
        )
        rng.shuffle(t)
        if ndim == 0:
            t = t[0]
        elif ndim == 2:
            t = t[: t.size // 2 * 2].reshape(2, -1)
        _assert_scipy_envelope(envelope, t)

    @pytest.mark.parametrize(
        "envelope, slope",
        [
            # (2 h0 + h1) m0 - h0 m1 changes the sign of m0 = 0.1: zeroed.
            ([(0.0, 1.0), (1.0, 1.1), (2.0, 5.0)], 0.0),
            # m0 = 1 and m1 = -5 differ in sign and the estimate 4 exceeds
            # 3 m0: clipped.
            ([(0.0, 5.0), (1.0, 6.0), (2.0, 1.0)], 3.0),
            # Two breakpoints: the secant slope.
            ([(0.0, 1.0), (2.0, 2.0)], 0.5),
            # A flat end interval.
            ([(0.0, 2.0), (1.0, 2.0), (3.0, 1.0)], 0.0),
        ],
    )
    def test_end_rule_branches(self, envelope, slope):
        ts = np.array([p[0] for p in envelope])
        amps = np.array([p[1] for p in envelope])
        with np.errstate(all="ignore"):
            assert _pchip_coefficients(ts, amps)[0, 1] == slope
        _assert_scipy_envelope(envelope, np.linspace(-1.0, 4.0, 501))

    def test_unsorted_times_over_several_blocks(self):
        rng = np.random.default_rng(5)
        ts = np.cumsum(rng.uniform(1e-3, 0.1, 300))
        envelope = list(zip(ts.tolist(), rng.uniform(0.1, 2.0, 300).tolist()))
        t = rng.uniform(ts[0] - 1.0, ts[-1] + 1.0, 2 * _ENVELOPE_BLOCK + 123)
        _assert_scipy_envelope(envelope, t)

    def test_temporaries_are_bounded(self):
        # At 970 200 samples (22 s at 44.1 kHz) the former scipy path
        # peaked at two sample arrays in envelope_at (the clipped times and
        # the values) and at five in synthesize; evaluating all samples at
        # once holds several more.
        model = PiecewiseSinusoidModel.from_periods(
            [0.0, 10.0, 22.0], [0.01, 0.013], 0.0, [(0.0, 0.8), (11.0, 1.0), (22.0, 0.9)]
        )
        t = np.arange(970_200) / 44_100.0
        slack = 1 << 16
        tracemalloc.start()
        try:
            model.envelope_at(t)
            envelope_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            s = synthesize(model, 44_100.0)
            synth_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s) == t.size
        assert envelope_peak <= 2 * t.nbytes + slack
        assert synth_peak <= 5 * t.nbytes + slack


class TestSynthesize:
    def test_single_segment_frozen(self):
        model = PiecewiseSinusoidModel.from_periods([0.0, 0.01], [0.01])
        s = synthesize(model, 1000.0)
        t = np.arange(10) / 1000.0
        assert len(s) == 10
        assert s.sample_rate_hz == 1000.0
        assert np.allclose(s.samples, np.sin(2 * np.pi * 100.0 * t), atol=1e-12)

    def test_single_breakpoint_envelope_is_constant(self):
        one = PiecewiseSinusoidModel.from_periods([0.0, 0.01], [0.01], 0.0, [(0.005, 0.5)])
        pair = PiecewiseSinusoidModel.from_periods([0.0, 0.01], [0.01], 0.0, 0.5)
        assert np.array_equal(synthesize(one, 1000.0).samples, synthesize(pair, 1000.0).samples)

    def test_boundary_continuity(self):
        # The waveform evaluated from the left and right segment formulas
        # must agree at every interior boundary.
        model = PiecewiseSinusoidModel.from_periods(
            [0.0, 0.021, 0.034, 0.06],
            [0.007, 0.0031, 0.0112],
            0.4,
            [(0.0, 0.5), (0.03, 2.0), (0.06, 1.0)],
        )
        max_amp = max(a for _, a in model.envelope)
        for prev, cur in zip(model.segments, model.segments[1:]):
            t1 = cur.t_start
            amp = float(model.envelope_at(np.array([t1]))[0])
            left = amp * math.sin(2 * math.pi * t1 / prev.period + prev.phase)
            right = amp * math.sin(2 * math.pi * t1 / cur.period + cur.phase)
            assert abs(left - right) <= 1e-9 * max_amp

    def test_low_rate_rejected(self):
        model = PiecewiseSinusoidModel.from_periods([0.0, 0.01], [0.01])
        with pytest.raises(ValueError):
            synthesize(model, 100.0)
        with pytest.raises(ValueError):
            synthesize(model, 0.0)

    def test_span_is_half_open(self):
        model = PiecewiseSinusoidModel.from_periods([0.0, 1.0], [0.25])
        s = synthesize(model, 8.0)
        assert len(s) == 8
        assert s.times()[-1] == pytest.approx(7 / 8)


class TestEstimateSegments:
    def test_single_tone(self):
        t = np.arange(int(44100 * 0.1)) / 44100.0
        s = Signal(np.sin(2 * np.pi * 100.0 * t), 44100.0)
        est = estimate_segments(s)
        assert len(est.frequencies) == 1
        assert 98.0 <= est.frequencies[0] <= 102.0

    def test_two_tone_split(self):
        model = PiecewiseSinusoidModel.from_periods([0.0, 0.5, 1.0], [1 / 400, 1 / 600])
        est = estimate_segments(synthesize(model, 44100.0))
        assert len(est.frequencies) == 2
        assert est.frequencies[0] == pytest.approx(400.0, rel=0.02)
        assert est.frequencies[1] == pytest.approx(600.0, rel=0.02)
        assert est.intervals[0][1] == pytest.approx(0.5, abs=2 / 400)

    def test_constant_signal_rejected(self):
        with pytest.raises(NoZeroCrossingsError):
            estimate_segments(Signal(np.full(100, 0.5), 100.0))

    def test_frequency_formula_is_exact(self):
        t = np.arange(2000) / 4000.0
        s = Signal(np.sin(2 * np.pi * 170.0 * t), 4000.0)
        est = estimate_segments(s)
        for mu, f in zip(est.gap_means, est.frequencies):
            assert f == 1.0 / (2.0 * mu)

    def test_crossing_times_match_loop_oracle(self):
        sigs = [synthesize(fit_fixture(i), 4000.0) for i in range(30)]
        sigs += [gauss_noise(seed) for seed in GAUSS_SEEDS]
        sigs.append(Signal(np.array([0.0, 1.0, 0.0, 0.0, -2.0, 1.0, 0.0, 3.0, -1.0]), 8.0))
        for s in sigs:
            times = crossing_positions(s.samples) / s.sample_rate_hz
            want = zero_crossing_times(s.samples, s.sample_rate_hz)
            assert times.tobytes() == want.tobytes()


def _fit_signals() -> list[Signal]:
    """Fixture tones, wheezes at 44.1 kHz and noise: few to many gap triggers."""
    sigs = [synthesize(fit_fixture(i), 4000.0) for i in range(12)]
    sigs += [synthesize(wheeze_model(i), 44100.0) for i in range(0, 8, 3)]
    sigs += [gauss_noise(seed) for seed in GAUSS_SEEDS]
    sigs += [noise_signal(seed) for seed in range(3)]
    sigs.append(reference_signal())
    return sigs


def _gaps(s: Signal) -> np.ndarray:
    return np.diff(crossing_positions(s.samples) / s.sample_rate_hz)


def _phase_inputs(s: Signal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first-interval samples, envelope and angle fit_model scores."""
    est = estimate_segments(s)
    rows = fit_envelope(s)
    model = PiecewiseSinusoidModel.from_periods(
        [0.0, s.duration_s], [1.0 / est.frequencies[0]], 0.0, rows.tolist()
    )
    t = s.times()
    mask = t < (est.intervals[1][0] if len(est.intervals) > 1 else s.duration_s)
    theta = 2.0 * math.pi * t[mask] * est.frequencies[0]
    return s.samples[mask], model.envelope_at(t[mask]), theta


class TestSplitGapRuns:
    def test_windowed_mean_is_bitwise_slice_mean(self):
        # The vectorized trigger test is exact only because the windowed
        # mean reduces each window in the order np.mean reduces a slice.
        w = _GAP_WINDOW
        for s in _fit_signals():
            gaps = _gaps(s)
            got = sliding_window_view(gaps, w).mean(axis=1)
            want = np.array([np.mean(gaps[k : k + w]) for k in range(gaps.size - w + 1)])
            assert got.tobytes() == want.tobytes()

    def test_matches_loop_oracle_on_fixtures(self):
        triggered = 0
        for s in _fit_signals():
            gaps = _gaps(s)
            want = split_gap_runs_loop(gaps)
            assert _split_gap_runs(gaps) == want
            triggered = max(triggered, len(want))
        assert triggered >= 100  # the noise signals split many times

    def test_matches_loop_oracle_on_tied_integer_steps(self):
        rng = SplitMix64(515)
        for trial in range(300):
            level = 1 + rng.below(4)
            gaps = []
            for _ in range(1 + rng.below(8)):
                level = max(1, level + rng.below(5) - 2)
                gaps += [float(level)] * (1 + rng.below(20))
                if rng.below(3) == 0:
                    gaps.append(float(level + 1))
            gaps = np.array(gaps)
            assert _split_gap_runs(gaps) == split_gap_runs_loop(gaps), trial

    @pytest.mark.parametrize("count", range(2 * _GAP_WINDOW + 2))
    def test_matches_loop_oracle_on_short_sequences(self, count):
        rng = SplitMix64(9000 + count)
        for _ in range(40):
            step = np.array([1.0 + rng.below(3) for _ in range(count)])
            smooth = np.array([1.0 + (rng.next_u64() >> 11) / 2**53 for _ in range(count)])
            for gaps in (step, smooth, np.repeat(step[:1], count)):
                assert _split_gap_runs(gaps) == split_gap_runs_loop(gaps)


class TestBestPhase:
    def test_matches_direct_scan_on_fit_inputs(self):
        for s in _fit_signals():
            x, amps, theta = _phase_inputs(s)
            assert _best_phase(x, amps, theta) == best_phase_scan(x, amps, theta)

    def test_all_zero_ties_to_first_phase(self):
        theta = np.linspace(0.0, 40.0, 500)
        zeros = np.zeros(500)
        assert _best_phase(zeros, zeros, theta) == 0
        amps = np.full(500, 0.5)
        assert _best_phase(zeros, amps, theta) == best_phase_scan(zeros, amps, theta)

    @pytest.mark.filterwarnings("error")
    def test_overflow_falls_back_to_direct_scan(self):
        # The direct sums would overflow and tie at phase 0. Scaled by a
        # power of two they do not, and the huge sample picks the phase.
        theta = np.linspace(0.0, 40.0, 500)
        x = np.sin(theta)
        amps = np.ones(500)
        x[123] = amps[123] = 1e300  # the envelope follows the peak
        scaled = best_phase_scan(np.ldexp(x, -997), np.ldexp(amps, -997), theta)
        assert _best_phase(x, amps, theta) == scaled == 174

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4000),
        st.sampled_from([1.0, 1e3, 1e5]),
        st.sampled_from([1e-150, 1e-3, 1.0, 1e100]),
        st.floats(0.0, 1.0),
    )
    def test_matches_direct_scan(self, seed, n, top, scale, noise):
        rng = np.random.default_rng(seed)
        theta = np.sort(rng.uniform(-top, top, n))
        phase = rng.uniform(0.0, 2.0 * math.pi)
        amps = scale * rng.uniform(0.1, 2.0, n)
        x = amps * np.sin(theta + phase) + noise * scale * rng.standard_normal(n)
        if seed % 5 == 0:
            x = np.round(x / scale) * scale  # ties between grid phases
        assert _best_phase(x, amps, theta) == best_phase_scan(x, amps, theta)


class TestFitEnvelope:
    def test_unit_sine(self):
        t = np.arange(4000) / 4000.0
        s = Signal(np.sin(2 * np.pi * 100.0 * t), 4000.0)
        rows = fit_envelope(s)
        assert np.all(rows[:, 1] >= 0.99)
        assert np.all(rows[:, 1] <= 1.01)
        model = PiecewiseSinusoidModel.from_periods(
            [0.0, 1.0], [0.01], 0.0, [tuple(r) for r in rows]
        )
        grid = model.envelope_at(np.linspace(0.0, 1.0, 500))
        assert np.all(grid >= 0.99)
        assert np.all(grid <= 1.01)

    def test_ramped_envelope(self):
        t = np.arange(4000) / 4000.0
        s = Signal((1 + 0.5 * t) * np.sin(2 * np.pi * 100.0 * t), 4000.0)
        rows = fit_envelope(s)
        model = PiecewiseSinusoidModel.from_periods(
            [0.0, 1.0], [0.01], 0.0, [tuple(r) for r in rows]
        )
        probe = np.linspace(0.05, 0.95, 300)
        got = model.envelope_at(probe)
        want = 1 + 0.5 * probe
        assert np.all(np.abs(got - want) <= 0.02 * want)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_difference_keeps_the_peak(self):
        # 1e308 - (-1e308) overflows to -inf, which still reads as a fall.
        x = np.array([0.0, 1.0, 1e308, -1e308, 2.0, 1e308, 0.0])
        assert fit_envelope(Signal(x, 1.0)).tolist() == [[2.0, 1e308], [5.0, 1e308]]

    def test_negative_signal_rejected(self):
        t = np.arange(1000) / 1000.0
        s = Signal(-2.0 + 0.5 * np.sin(2 * np.pi * 50.0 * t), 1000.0)
        with pytest.raises(InsufficientPeaksError):
            fit_envelope(s)

    def test_plateau_peak_uses_midpoint(self):
        x = np.array([0.0, 1.0, 2.0, 2.0, 2.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0])
        rows = fit_envelope(Signal(x, 1.0))
        assert rows.tolist() == [[3.0, 2.0], [8.0, 3.0]]

    def test_matches_loop_oracle_on_fixtures(self):
        sigs = [synthesize(fit_fixture(i), 4000.0) for i in range(12)]
        sigs += [synthesize(wheeze_model(i), 44100.0) for i in range(4)]
        sigs += [gauss_noise(seed) for seed in GAUSS_SEEDS]
        sigs += [noise_signal(seed) for seed in range(3)]
        sigs.append(reference_signal())
        for s in sigs:
            got = _envelope_or_error(fit_envelope, s)
            assert got == _envelope_or_error(fit_envelope_loop, s)

    @pytest.mark.parametrize(
        "x",
        [
            [0, 1, 2, 2, 2, 1, 0, 1, 3, 1, 0],
            [0, 1, 2, 2, 1, 0, 3, 3, 3, 3, 0, 1, 0],
            [2, 2, 2, 1, 0, 1, 3, 1, 0, 1, 2, 1],
            [0, 1, 0, 2, 1, 3, 3, 3],
            [4, 4, 1, 2, 2, 0, 5, 5],
            [-3, -1, -2, -1, -3, 0, 1, 0, 2, 0],
            [-3, -1, -2, -1, -3],
            [0, 1, 0],
            [0, 2, 2, 0, 0, 0],
            [0, 1, 2, 3],
            [1, 1, 1],
        ],
        ids=[
            "odd-plateau",
            "even-plateau",
            "plateau-at-start",
            "plateau-at-end",
            "plateaus-at-both-ends",
            "negative-maxima-skipped",
            "only-negative-maxima",
            "one-peak",
            "one-even-plateau",
            "monotone",
            "constant",
        ],
    )
    def test_matches_loop_oracle_on_plateaus(self, x):
        s = Signal(np.array(x, dtype=np.float64), 2.0)
        got = _envelope_or_error(fit_envelope, s)
        assert got == _envelope_or_error(fit_envelope_loop, s)

    def test_matches_loop_oracle_on_short_integer_signals(self):
        rng = SplitMix64(4242)
        for trial in range(300):
            x = np.array([rng.below(5) - 2.0 for _ in range(2 + rng.below(30))])
            s = Signal(x, 8.0)
            got = _envelope_or_error(fit_envelope, s)
            assert got == _envelope_or_error(fit_envelope_loop, s), trial


class TestFitModel:
    def test_noise_free_round_trip(self):
        truth = fit_fixture(0)
        s = synthesize(truth, 4000.0)
        peak = float(np.abs(s.samples).max())
        fitted = fit_model(Signal(s.samples / peak, 4000.0))

        true_f = sorted(1.0 / seg.period for seg in truth.segments)
        got_f = sorted(1.0 / seg.period for seg in fitted.segments)
        assert len(got_f) == len(true_f)
        for want, got in zip(true_f, got_f):
            assert got == pytest.approx(want, rel=0.02)

        true_bounds = [seg.t_start for seg in truth.segments[1:]]
        got_bounds = [seg.t_start for seg in fitted.segments[1:]]
        for want, got, left, right in zip(
            true_bounds, got_bounds, truth.segments, truth.segments[1:]
        ):
            assert abs(got - want) <= max(left.period, right.period)

        resynth = synthesize(fitted, 4000.0)
        d = hausdorff(graph(Signal(s.samples / peak, 4000.0)), graph(resynth))
        assert d <= 0.02 * _ptp(Signal(s.samples / peak, 4000.0))

    def test_noisy_round_trip(self):
        model = PiecewiseSinusoidModel.from_periods([0.0, 0.5, 1.0], [1 / 400, 1 / 600])
        clean = synthesize(model, 4000.0)
        rng = SplitMix64(77)
        noise = np.array(
            [2.0 * ((rng.next_u64() >> 11) / 2**53) - 1.0 for _ in range(len(clean))]
        )
        noisy = Signal(
            clean.samples + 0.05 * float(np.abs(clean.samples).max()) * noise, 4000.0
        )
        fitted = fit_model(noisy)
        resynth = synthesize(fitted, 4000.0)
        d = hausdorff(graph(noisy), graph(resynth))
        assert d <= 0.05 * _ptp(noisy)

    def test_white_noise_fits_badly(self):
        s = gauss_noise(3000)
        fitted = fit_model(s)
        resynth = synthesize(fitted, s.sample_rate_hz)
        d = hausdorff(graph(s), graph(resynth))
        assert d >= 0.05 * _ptp(s)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "x",
        [_tone(100.0), _tone(440.0), _tone(700.0), _tone(1000.0), _two_level_tone()],
        ids=["100.0", "440.0", "700.0", "1000.0", "two-level"],
    )
    def test_fit_commutes_with_powers_of_two(self, x):
        # Scaling the samples or the sample rate by 2^k is exact, so the fit
        # is the unit fit with the amplitudes, or the times and periods,
        # scaled. The amplitude axis takes every k that keeps each nonzero
        # sample normal and finite.
        unit = fit_model(Signal(x, 4000.0))
        exps = [math.frexp(v)[1] for v in np.abs(x[x != 0]).tolist()]
        lo, hi = -1021 - min(exps), 1024 - max(exps)
        ks = set(range(lo, hi + 1, 4)) | set(range(lo, lo + 24)) | set(range(hi - 23, hi + 1))
        for k in sorted(ks):
            fitted = fit_model(Signal(np.ldexp(x, k), 4000.0))
            assert fitted.segments == unit.segments, k
            assert fitted.envelope == tuple((t, math.ldexp(a, k)) for t, a in unit.envelope), k
        for k in range(-1000, 1001, 7):
            fitted = fit_model(Signal(x, 4000.0 * 2.0**k))
            assert fitted.segments == tuple(
                SinusoidSegment(
                    math.ldexp(seg.t_start, -k),
                    math.ldexp(seg.t_end, -k),
                    math.ldexp(seg.period, -k),
                    seg.phase,
                )
                for seg in unit.segments
            ), k
            assert fitted.envelope == tuple((math.ldexp(t, -k), a) for t, a in unit.envelope), k
        # Rates that are not powers of two round the times, but the phase
        # is the same at every rate whose sample times float64 holds.
        phases = [seg.phase for seg in unit.segments]
        for e in range(-305, 308):
            fitted = fit_model(Signal(x, 10.0**e))
            assert [seg.phase for seg in fitted.segments] == phases, e

    def test_overflowing_envelope_slopes_name_the_span(self):
        # At 1e200 Hz the envelope breakpoints sit 4e-200 s apart. The fit
        # holds, but the slopes of its envelope overflow in synthesis.
        i = np.arange(4000)
        x = (1.0 + 0.5 * np.sin(2 * np.pi * i / 997)) * np.sin(2 * np.pi * i / 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_model(Signal(x, 1e200))
            unit = fit_model(Signal(x, 4000.0))
            assert [seg.phase for seg in model.segments] == [seg.phase for seg in unit.segments]
            with pytest.raises(ValueError, match="between breakpoints 1e-199 and"):
                synthesize(model, 1e200)


class TestGraph:
    def test_two_samples(self):
        cloud = graph(Signal(np.array([5.0, 7.0]), 1.0))
        assert cloud.points.tolist() == [[0.0, 5.0], [1.0, 7.0]]

    def test_point_count(self):
        t = np.arange(300) / 100.0
        s = Signal(np.sin(t), 100.0)
        assert len(graph(s)) == 300

    def test_explicit_rate(self):
        cloud = graph(Signal(np.array([1.0, 2.0]), 4.0))
        assert cloud.points[:, 0].tolist() == [0.0, 0.25]
