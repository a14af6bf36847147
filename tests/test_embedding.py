"""Lag-correlation curve, delay selection, delay embeddings, cloud CSV."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist, squareform

from topoperiod import (
    MalformedHeaderError,
    NoCriticalPointsError,
    NoZeroCrossingError,
    PointCloud,
    Signal,
    SignalTooShortError,
    acl,
    delay_embed,
    find_delay,
    hausdorff,
    normalize,
    read_cloud_csv,
    select_delay,
    synthesize,
    write_cloud_csv,
)
from topoperiod import embedding
from topoperiod.embedding import cloud_csv_text, crossing_positions, pairwise
from topoperiod.subsampling import SplitMix64

from fixtures import (
    GAUSS_SEEDS,
    NOISE_SEEDS,
    fit_fixture,
    gauss_noise,
    noise_signal,
    reference_signal,
    wheeze_model,
)
from oracles import critical_lags, fit_conic, zero_crossing_lags

STRATEGIES = ("first-zero", "second-zero", "mid-critical")


def _sine(period_samples: int, periods: int, amp: float = 1.0, phase: float = 0.0,
          rate: float = 1.0) -> Signal:
    n = period_samples * periods
    t = np.arange(n)
    return Signal(amp * np.sin(2 * np.pi * t / period_samples + phase), rate)


class TestAcl:
    def test_all_ones(self):
        curve = acl(Signal(np.array([1.0, 1.0, 1.0, 1.0]), 1.0))
        assert np.array_equal(curve.samples, [4.0, 3.0, 2.0, 1.0])

    def test_alternating_signs(self):
        curve = acl(Signal(np.array([1.0, -1.0, 1.0, -1.0]), 1.0))
        assert np.array_equal(curve.samples, [4.0, -3.0, 2.0, -1.0])

    def test_lag_zero_is_energy(self):
        rng = SplitMix64(5)
        x = np.array([(rng.next_u64() >> 11) / 2**53 - 0.5 for _ in range(50)])
        curve = acl(Signal(x, 2.0))
        assert len(curve) == 50
        assert curve.sample_rate_hz == 2.0
        assert curve.samples[0] == pytest.approx(float(np.sum(x * x)), abs=1e-12)

    def test_matches_direct_summation(self):
        rng = SplitMix64(6)
        x = np.array([(rng.next_u64() >> 11) / 2**53 - 0.5 for _ in range(40)])
        curve = acl(Signal(x, 1.0))
        for j in (1, 7, 39):
            direct = float(np.sum(x[: 40 - j] * x[j:]))
            assert curve.samples[j] == pytest.approx(direct, abs=1e-12)

    def test_literal_form_is_sample_times_sum(self):
        x = np.array([1.0, 2.0, 3.0])
        curve = acl(Signal(x, 1.0), form="literal")
        assert np.array_equal(curve.samples, [6.0, 12.0, 18.0])

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            acl(Signal(np.array([1.0, 2.0]), 1.0), form="fourier")

    def test_sine_first_zero_near_quarter_period(self):
        curve = acl(_sine(100, 10))
        assert select_delay(curve, "first-zero") == pytest.approx(25, abs=1)

    def test_curve_is_a_signal_on_the_input_grid(self):
        i = np.arange(300)
        x = np.cos(0.37 * i) + 0.1 * np.sin(2.1 * i)
        curve = acl(Signal(x, 4000.0))
        assert type(curve) is Signal and curve.sample_rate_hz == 4000.0
        assert curve.samples.tobytes() == np.correlate(x, x, "full")[x.size - 1 :].tobytes()

    def test_overflowing_sums_fail_the_signal_check(self):
        # A 100 Hz tone at 4 kHz: its quarter period is 10 samples, but at
        # amplitude 1e200 the lag sums overflow.
        s = _sine(40, 10, amp=1e200, rate=4000.0)
        with pytest.raises(ValueError, match="^samples must be finite$"):
            select_delay(acl(s))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [[1e200, -1e200, 3e200], [1e308, 1e308, 0.0]],
                             ids=["product", "sum"])
    def test_overflowing_literal_form_fails_without_a_warning(self, x):
        # The second sum overflows to inf, and 0 * inf is NaN.
        with pytest.raises(ValueError, match="^samples must be finite$"):
            acl(Signal(np.array(x), 1.0), form="literal")


class TestCriticalPoints:
    def test_enumeration(self):
        crit = embedding._critical_lags(np.array([4.0, 1.0, 3.0, 0.0, 2.0]))
        assert crit.tolist() == [1, 2, 3]

    def test_monotone_curve_rejected(self):
        curve = Signal(np.array([5.0, 4.0, 3.0, 2.0]), 1.0)
        with pytest.raises(NoCriticalPointsError, match="monotone"):
            select_delay(curve, "mid-critical")

    def test_flat_extremum_reports_midpoint(self):
        crit = embedding._critical_lags(np.array([0.0, 1.0, 1.0, 1.0, 0.0]))
        assert crit.tolist() == [2]

    def test_sine_first_critical_near_half_period(self):
        crit = embedding._critical_lags(acl(_sine(100, 10)).samples)
        assert crit[0] == pytest.approx(50, abs=1)


class TestSelectDelay:
    def test_first_zero_on_sine(self):
        curve = acl(_sine(100, 10))
        assert abs(select_delay(curve, "first-zero") - 25) <= 1

    def test_second_zero_on_sine(self):
        curve = acl(_sine(100, 10))
        assert abs(select_delay(curve, "second-zero") - 75) <= 1

    def test_mid_critical_on_sine(self):
        # Critical points of the correlation curve sit near lags 50 and
        # 100, so their midpoint lands near 75.
        curve = acl(_sine(100, 10))
        assert abs(select_delay(curve, "mid-critical") - 75) <= 1

    def test_constant_signal_has_no_zero(self):
        curve = acl(Signal(np.array([1.0, 1.0, 1.0, 1.0]), 1.0))
        with pytest.raises(NoZeroCrossingError):
            select_delay(curve, "first-zero")

    def test_unknown_strategy_rejected(self):
        curve = acl(_sine(100, 2))
        with pytest.raises(ValueError):
            select_delay(curve, "third-zero")

    def test_result_bounds(self):
        for strategy in ("first-zero", "second-zero", "mid-critical"):
            curve = acl(_sine(20, 3))
            j = select_delay(curve, strategy)
            assert 1 <= j < len(curve)


@pytest.fixture(scope="module")
def fixture_signals() -> list[Signal]:
    """Every signal family of the fixtures, at 4 kHz and, for tones, 16 kHz.

    At 16 kHz a tone is long enough for find_delay to evaluate its curve
    lazily; the 4 kHz signals are short enough to take the full curve.
    """
    sigs = []
    for i in range(30):
        sigs.append(synthesize(wheeze_model(i), 4000.0))
        sigs.append(synthesize(wheeze_model(i), 16000.0))
        sigs.append(synthesize(fit_fixture(i), 4000.0))
    sigs += [noise_signal(seed) for seed in NOISE_SEEDS]
    sigs += [noise_signal(seed, n=16000, rate=16000.0) for seed in NOISE_SEEDS[:3]]
    sigs += [gauss_noise(seed) for seed in GAUSS_SEEDS]
    sigs.append(reference_signal())
    return sigs


def _outcome(fn, *args):
    """A call's result, or the class and message of what it raised."""
    try:
        return fn(*args)
    except (NoZeroCrossingError, NoCriticalPointsError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_same_delays(s: Signal) -> None:
    curve = _outcome(acl, s)
    for strategy in STRATEGIES:
        full = curve if isinstance(curve, tuple) else _outcome(select_delay, curve, strategy)
        assert _outcome(find_delay, s, strategy) == full


class TestCrossingScanner:
    HAND_CURVES = [
        [1.0, -1.0],
        [1.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, -2.0, 0.0, 0.0, 3.0, 0.0, -1.0],
        [-2.0, 0.0, 0.0, 0.0, 2.0, 1.0, -1.0, 1.0],
        [0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 2.0, 2.0, -5.0],
    ]

    def test_matches_loop_oracle_on_hand_curves(self):
        for values in self.HAND_CURVES:
            v = np.asarray(values)
            lags = np.maximum(np.rint(crossing_positions(v)), 1).astype(int).tolist()
            assert lags == zero_crossing_lags(v)
            assert embedding._critical_lags(v).tolist() == critical_lags(v)

    def test_matches_loop_oracle_on_fixture_curves(self, fixture_signals):
        for s in fixture_signals[::3]:
            v = acl(normalize(s)).samples
            lags = np.maximum(np.rint(crossing_positions(v)), 1).astype(int).tolist()
            assert lags == zero_crossing_lags(v)
            assert embedding._critical_lags(v).tolist() == critical_lags(v)

    def test_touching_zero_is_the_crossing(self):
        v = np.array([3.0, 1.0, 0.0, 0.0, -1.0])
        assert crossing_positions(v).tolist() == [2.0]

    def test_adjacent_values_interpolate(self):
        v = np.array([3.0, 1.0, -3.0])
        assert crossing_positions(v).tolist() == [1.25]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_difference_keeps_the_position(self):
        # 1e308 - (-1e308) overflows; the crossing still lies halfway, as
        # it does on the same curve scaled down.
        v = np.array([1.0, 1e308, -1e308, 2.0])
        assert crossing_positions(v).tolist() == [1.5, 3.0]
        assert crossing_positions(np.ldexp(v, -10)).tolist() == [1.5, 3.0]
        assert embedding._critical_lags(v).tolist() == [1, 2]


class TestFindDelay:
    def test_equals_full_curve_on_every_fixture(self, fixture_signals):
        for s in fixture_signals:
            _assert_same_delays(normalize(s))

    @pytest.mark.parametrize(
        "period, straddle, lag",
        [(1018.0, 254, 255), (1019.5, 255, 256), (1022.0, 256, 257)],
    )
    def test_crossing_at_the_first_block_boundary(self, monkeypatch, period, straddle, lag):
        # These crossings lie just before, across and just after the edge
        # between lags 254 and 255, so the scan stops on one side of it or
        # the other and must round the crossing the way the full curve does.
        s = Signal(np.sin(2 * np.pi * np.arange(20000) / period), 1.0)
        assert int(crossing_positions(acl(s).samples)[0]) == straddle
        _assert_same_delays(s)
        # With the full curve unavailable, the scan alone finds it.
        monkeypatch.setattr(embedding, "acl", None)
        assert find_delay(s, "first-zero") == lag

    def test_curve_touching_zero_on_the_block_boundary(self, monkeypatch):
        # Lag 256 pairs every nonzero sample with a zero one, so the curve
        # is exactly 0 there, positive before and negative after; the scan
        # counts the crossing only at lag 257, past the zero.
        x = np.tile(np.repeat([1.0, 0.0, -1.0, 0.0], 256), 20)
        s = Signal(x, 1.0)
        v = acl(s).samples
        assert v[255] > 0 and v[256] == 0.0 and v[257] < 0
        _assert_same_delays(s)
        monkeypatch.setattr(embedding, "acl", None)
        assert find_delay(s, "first-zero") == 256

    def test_short_tone_takes_the_lazy_path(self, monkeypatch):
        # A 200 Hz tone sampled at 4 kHz has every feature within the
        # first 31 lags.
        s = Signal(np.sin(2 * np.pi * 200.0 * np.arange(4000) / 4000.0), 4000.0)
        curve = acl(s)
        expected = [select_delay(curve, strategy) for strategy in STRATEGIES]
        monkeypatch.setattr(embedding, "acl", None)
        assert [find_delay(s, strategy) for strategy in STRATEGIES] == expected

    def test_curve_with_exact_zeros_at_every_odd_lag(self):
        _assert_same_delays(Signal(np.tile([1.0, 0.0, -1.0, 0.0], 5000), 1.0))

    # Short curves, some without the feature: the scan may reach their end.
    @pytest.mark.parametrize("k", [2, 3, 100, 255])
    def test_shorter_than_one_block(self, k):
        _assert_same_delays(Signal(np.cos(np.arange(k) * 0.7), 1.0))
        _assert_same_delays(Signal(np.ones(k), 1.0))

    def test_no_crossing_raises_the_full_curve_error(self, monkeypatch):
        s = Signal(1.0 + 0.5 * np.sin(np.arange(20000) * 0.003), 1.0)
        _assert_same_delays(s)
        # The scan reaches the end of the curve without the full curve.
        monkeypatch.setattr(embedding, "acl", None)
        with pytest.raises(NoZeroCrossingError, match=r"^curve has 0 zero crossing\(s\), 1 needed$"):
            find_delay(s, "first-zero")

    def test_long_period_tone_scans_past_a_thousand_lags(self, monkeypatch):
        # Period 1000: zeros near lags 250 and 750 and critical points near
        # 500 and 1000, so mid-critical reads the curve past lag 1000.
        s = Signal(np.sin(2 * np.pi * np.arange(30000) / 1000.0), 1.0)
        curve = acl(s)
        expected = [select_delay(curve, strategy) for strategy in STRATEGIES]
        assert expected == [251, 751, 750]
        monkeypatch.setattr(embedding, "acl", None)
        assert [find_delay(s, strategy) for strategy in STRATEGIES] == expected

    def test_second_zero_with_one_crossing(self):
        # A +1/-1 pulse pair: the curve crosses zero once, stays negative
        # to lag 19 and is exactly zero from lag 20 on.
        x = np.zeros(20000)
        x[:10], x[10:20] = 1.0, -1.0
        s = Signal(x, 1.0)
        assert find_delay(s, "first-zero") == 7
        with pytest.raises(NoZeroCrossingError, match=r"^curve has 1 zero crossing\(s\), 2 needed$"):
            find_delay(s, "second-zero")
        _assert_same_delays(s)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown delay strategy"):
            find_delay(_sine(100, 2), "third-zero")

    @pytest.mark.parametrize(
        "s",
        [
            _sine(40, 10, rate=4000.0),
            _sine(23, 9, amp=3.0, phase=0.7),
            _sine(100, 8),
            noise_signal(NOISE_SEEDS[0], 600),
            gauss_noise(GAUSS_SEEDS[0], 600),
            Signal(np.round(50.0 * np.sin(np.arange(500) * 0.09)), 1.0),
            Signal(np.array([3.0, -7.0, 0.0, 12.0, 5.0, -1.0, 0.0, -9.0] * 40), 1.0),
            Signal(1.0 + 0.5 * np.sin(np.arange(120) * 0.01), 1.0),
        ],
        ids=["tone", "tone-phase", "long-period", "noise", "gauss", "rounded-tone",
             "integers", "no-crossing"],
    )
    def test_delay_commutes_with_powers_of_two(self, s):
        # The scan runs on the signal scaled to unit size, so every copy
        # scaled by 2^k whose nonzero samples stay normal and finite gives
        # the unit delay, or the unit error, for each strategy.
        _assert_same_delays(s)
        unit = [_outcome(find_delay, s, strategy) for strategy in STRATEGIES]
        mags = np.abs(s.samples[s.samples != 0])
        lo = -1021 - math.frexp(float(mags.min()))[1]
        hi = 1024 - math.frexp(float(mags.max()))[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(lo, hi + 1):
                scaled = Signal(np.ldexp(s.samples, k), s.sample_rate_hz)
                assert [_outcome(find_delay, scaled, st_) for st_ in STRATEGIES] == unit, k


class TestDelayEmbed:
    def test_lag_one_pairs(self):
        s = Signal(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 1.0)
        cloud = delay_embed(s, 1, 2)
        assert np.array_equal(cloud.points, [[1, 2], [2, 3], [3, 4], [4, 5]])

    def test_lag_two_triples(self):
        s = Signal(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 1.0)
        cloud = delay_embed(s, 2, 3)
        assert np.array_equal(cloud.points, [[1, 3, 5]])

    def test_point_count_formula(self):
        s = Signal(np.arange(50, dtype=float), 1.0)
        for j, m in [(1, 2), (3, 2), (7, 3), (5, 4)]:
            assert len(delay_embed(s, j, m)) == 50 - (m - 1) * j

    def test_too_short_signal_rejected(self):
        s = Signal(np.arange(5, dtype=float), 1.0)
        with pytest.raises(SignalTooShortError):
            delay_embed(s, 5, 2)

    def test_bad_parameters_rejected(self):
        s = Signal(np.arange(5, dtype=float), 1.0)
        with pytest.raises(ValueError):
            delay_embed(s, 0, 2)
        with pytest.raises(ValueError):
            delay_embed(s, 1, 1)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_points_are_a_view_of_the_samples(self, dim):
        s = _sine(40, 5)
        cloud = delay_embed(s, 7, dim)
        assert np.shares_memory(cloud.points, s.samples)
        assert not cloud.points.flags.writeable

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60),
        st.integers(1, 20),
        st.integers(2, 5),
    )
    def test_rows_equal_the_column_stack(self, values, delay, dim):
        s = Signal(np.array(values), 1.0)
        count = len(values) - (dim - 1) * delay
        if count < 1:
            with pytest.raises(SignalTooShortError):
                delay_embed(s, delay, dim)
            return
        x = s.samples
        cols = [x[d * delay : d * delay + count] for d in range(dim)]
        got = delay_embed(s, delay, dim).points
        assert got.shape == (count, dim)
        assert np.ascontiguousarray(got).tobytes() == np.column_stack(cols).tobytes()

    def test_embedding_a_long_signal_copies_no_samples(self):
        s = Signal(np.sin(0.01 * np.arange(1_000_000)), 44100.0)
        tracemalloc.start()
        try:
            cloud = delay_embed(s, 25, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cloud) == 999_975
        # What is left is the constructor's finiteness check, 1 byte a
        # coordinate; a copy of the cloud would be 16 MB.
        assert peak < 4_000_000

    def test_quarter_period_delay_gives_circle(self):
        amp = 2.0
        cloud = delay_embed(_sine(100, 10, amp=amp), 25, 2)
        radii = np.linalg.norm(cloud.points, axis=1)
        assert np.allclose(radii, amp, atol=1e-9)


class TestEllipseGeometry:
    def test_conic_fit_recovers_rotation_and_radii(self):
        for amp, period, lag in [(1.0, 100, 10), (2.0, 80, 12), (0.5, 60, 21)]:
            cloud = delay_embed(_sine(period, 12, amp=amp, phase=0.3), lag, 2)
            angle, r_major, r_minor = fit_conic(cloud.points)
            c = math.cos(2 * math.pi * lag / period)
            expected_major = amp * math.sqrt(1 + abs(c))
            expected_minor = amp * math.sqrt(1 - abs(c))
            assert angle == pytest.approx(45.0, abs=0.5)
            assert r_major == pytest.approx(expected_major, abs=1e-3 * amp)
            assert r_minor == pytest.approx(expected_minor, abs=1e-3 * amp)

    def test_circumscribed_square(self):
        amp = 1.7
        period = 100
        cloud = delay_embed(_sine(period, 10, amp=amp, phase=0.1), 20, 2)
        peak = float(np.abs(cloud.points).max())
        assert peak <= amp + 1e-12
        assert peak >= amp * math.cos(math.pi / period) - 1e-12

    def test_phase_invariance(self):
        amp, period = 1.0, 64
        a = delay_embed(_sine(period, 12, amp=amp, phase=0.0), 16, 2)
        b = delay_embed(_sine(period, 12, amp=amp, phase=1.234), 16, 2)
        bound = 2 * amp * math.sin(math.pi / period)
        assert hausdorff(a, b) <= bound + 1e-12

    def test_reparametrization_same_delay_ratio(self):
        # Two sinusoids trace the same ellipse when delay/period matches;
        # the clouds then differ by at most one sampling step.
        n1, j1 = 60, 10
        n2, j2 = 120, 20
        a = delay_embed(_sine(n1, 20), j1, 2).points
        b = delay_embed(_sine(n2, 10), j2, 2).points
        step = max(
            float(np.linalg.norm(np.diff(a, axis=0), axis=1).max()),
            float(np.linalg.norm(np.diff(b, axis=0), axis=1).max()),
        )
        d = hausdorff(PointCloud(a), PointCloud(b))
        assert d <= step + 1e-12

    def test_transition_points_are_few(self):
        # Points of a multi-segment embedding straddling two segments are
        # rare: all but a few percent lie on one of the per-segment
        # ellipses.
        model = wheeze_model(0)
        s = synthesize(model, 4000.0)
        peak = float(np.abs(s.samples).max())
        x = s.samples / peak
        delay = select_delay(acl(Signal(x, 4000.0)))
        cloud = delay_embed(Signal(x, 4000.0), delay, 2).points

        t = np.arange(len(x)) / 4000.0
        amps = model.envelope_at(t) / peak
        on_some_ellipse = np.zeros(len(cloud), dtype=bool)
        for seg in model.segments:
            c = math.cos(2 * math.pi * delay / 4000.0 / seg.period)
            s2 = 1 - c * c
            a_loc = amps[: len(cloud)]
            resid = np.abs(
                cloud[:, 0] ** 2
                + cloud[:, 1] ** 2
                - 2 * c * cloud[:, 0] * cloud[:, 1]
                - a_loc**2 * s2
            )
            on_some_ellipse |= resid <= 0.05 * np.maximum(a_loc**2, 1e-12)
        frac_off = 1.0 - float(np.mean(on_some_ellipse))
        assert frac_off <= 0.05


class TestPointCloudType:
    def test_validation(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros(3))
        with pytest.raises(ValueError):
            PointCloud(np.array([[np.inf, 0.0]]))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((2, 0)))

    def test_immutability(self):
        cloud = PointCloud(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 9.0

    def test_callers_array_stays_writable(self):
        # No copy; the points are checked when the cloud is built, and a
        # later write through the caller's array reaches the cloud unchecked.
        a = np.zeros((3, 2))
        cloud = PointCloud(a)
        assert np.shares_memory(cloud.points, a)
        assert a.flags.writeable and not cloud.points.flags.writeable
        a[0, 0] = 1.0
        assert cloud.points[0, 0] == 1.0

    def test_diameter(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]]))
        assert cloud.diameter() == 5.0
        assert PointCloud(np.array([[1.0, 1.0]])).diameter() == 0.0

    def test_overflowing_diameter_rejected(self):
        cloud = PointCloud(np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="distance overflow"):
            cloud.diameter()

    def test_len_and_dim(self):
        cloud = PointCloud(np.zeros((7, 3)))
        assert len(cloud) == 7
        assert cloud.dim == 3


def _cloud(rng: np.random.Generator, kind: str, n: int, dim: int, scale: float):
    if kind == "gauss":
        return scale * rng.standard_normal((n, dim))
    if kind == "grid":
        # Half-integer coordinates: many exactly tied distances.
        return scale * np.round(rng.uniform(-3.0, 3.0, (n, dim)) * 2.0) / 2.0
    return scale * rng.uniform(0.0, 1.0, (n, dim))


class TestPairwise:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["gauss", "grid", "uniform"]),
        dim=st.integers(1, 12),
        n=st.integers(1, 120),
        m=st.integers(1, 120),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_bit_identical_to_scipy(self, seed, kind, dim, n, m, log_scale):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        p = _cloud(rng, kind, n, dim, scale)
        q = _cloud(rng, kind, m, dim, scale)
        assert np.array_equal(pairwise(p), squareform(pdist(p)))
        assert np.array_equal(pairwise(p, q), cdist(p, q))

    def test_overflow_is_inf_without_a_warning(self):
        p = np.array([[1e200, 0.0], [-1e200, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = pairwise(p)
        assert d.tolist() == [[0.0, math.inf], [math.inf, 0.0]]


class TestCloudCsv:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = SplitMix64(9)
        pts = np.array(
            [[(rng.next_u64() >> 11) / 2**53 - 0.5 for _ in range(3)] for _ in range(25)]
        )
        cloud = PointCloud(pts)
        p = tmp_path / "cloud.csv"
        write_cloud_csv(cloud, p)
        back = read_cloud_csv(p)
        assert back.points.tobytes() == cloud.points.tobytes()

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("# a header\n1.0,2.0\n\n3.0,4.0\n")
        cloud = read_cloud_csv(p)
        assert np.array_equal(cloud.points, [[1, 2], [3, 4]])

    def test_empty_file_gives_empty_cloud(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        assert len(read_cloud_csv(p)) == 0

    def test_inconsistent_width_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(MalformedHeaderError):
            read_cloud_csv(p)

    def test_bad_token_rejected(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("1.0,two\n")
        with pytest.raises(MalformedHeaderError):
            read_cloud_csv(p)

    def test_empty_cloud_text(self):
        assert cloud_csv_text(PointCloud(np.empty((0, 2)))) == ""
