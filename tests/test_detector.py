"""End-to-end detection pipeline and evaluation harness."""

import math

import numpy as np
import pytest

from topoperiod import (
    PersistenceDiagram,
    PersistenceInterval,
    PipelineConfig,
    PiecewiseSinusoidModel,
    Signal,
    acl,
    bottleneck,
    delay_embed,
    detect,
    evaluate,
    h1_diagram,
    hausdorff,
    normalize,
    random_subsample,
    select_delay,
    significance,
    synthesize,
)
from topoperiod import detector as detector_module
from topoperiod.subsampling import SplitMix64

from fixtures import NOISE_SEEDS, noise_signal, wheeze_model


def _wheeze_signal(index: int) -> Signal:
    return synthesize(wheeze_model(index), 4000.0)


def _sine(freq: float, rate: float, n: int, amp: float = 1.0) -> Signal:
    t = np.arange(n) / rate
    return Signal(amp * np.sin(2 * np.pi * freq * t), rate)


class TestSignificance:
    def test_empty_h1_scores_zero(self):
        assert significance(PersistenceDiagram(()), 2.0) == 0.0

    def test_square_diagram(self):
        d = PersistenceDiagram(
            (
                PersistenceInterval(0, 0.0, 1.0),
                PersistenceInterval(1, 1.0, math.sqrt(2.0)),
            )
        )
        want = (math.sqrt(2.0) - 1.0) / math.sqrt(2.0)
        assert significance(d, math.sqrt(2.0)) == pytest.approx(want, abs=1e-12)

    def test_max_rule(self):
        d = PersistenceDiagram(
            (
                PersistenceInterval(1, 0.0, 0.1),
                PersistenceInterval(1, 0.2, 0.7),
            )
        )
        assert significance(d, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_essential_bars_do_not_count(self):
        d = PersistenceDiagram((PersistenceInterval(1, 0.1, math.inf),))
        assert significance(d, 1.0) == 0.0

    def test_zero_diameter_scores_zero(self):
        d = PersistenceDiagram((PersistenceInterval(1, 0.0, 1.0),))
        assert significance(d, 0.0) == 0.0


class TestDetect:
    def test_multisegment_model_is_harmonic(self):
        model = PiecewiseSinusoidModel.from_periods(
            [0.0, 30 / 150.0, 30 / 150.0 + 30 / 250.0, 30 / 150.0 + 30 / 250.0 + 0.2],
            [1 / 150.0, 1 / 250.0, 1 / 160.0],
        )
        rep = detect(synthesize(model, 4000.0))
        assert rep.label == "harmonic"
        assert len(rep.diagram.finite(1)) >= 1
        assert rep.significance_score >= rep.threshold

    def test_quarter_period_sine_matches_circle_geometry(self):
        # At a quarter-period delay the embedding of a unit sinusoid is a
        # circle; the dominant loop of a dense circle dies at sqrt(3)
        # times the radius, so the score approaches sqrt(3)/2.
        rep = detect(
            _sine(40.0, 4000.0, 4000),
            PipelineConfig(method="maxmin", delay=25),
        )
        assert rep.label == "harmonic"
        theory = math.sqrt(3.0) / 2.0
        assert abs(rep.significance_score - theory) <= 0.1 * theory

    def test_noise_seeds_are_rejected(self):
        for seed in NOISE_SEEDS[:5]:
            rep = detect(noise_signal(seed))
            assert rep.label == "non-harmonic"

    def test_label_matches_threshold_rule(self):
        for sig in (_wheeze_signal(0), noise_signal(2000), _sine(40.0, 4000.0, 4000)):
            rep = detect(sig)
            assert (rep.label == "harmonic") == (
                rep.significance_score >= rep.threshold
            )

    def test_theorem_guarantee_on_model_family(self):
        # A model with bounded envelope and a delay between the first two
        # correlation critical points always embeds with a hole.
        rep = detect(_wheeze_signal(0), PipelineConfig(strategy="mid-critical"))
        assert len(rep.diagram.finite(1)) >= 1
        assert rep.significance_score > 0.0

    def test_amplitude_scale_invariance(self):
        base = _wheeze_signal(1)
        rep = detect(base)
        scaled = detect(Signal(base.samples * 4.0, base.sample_rate_hz))
        assert scaled.label == rep.label
        assert scaled.significance_score == rep.significance_score
        assert scaled.diagram == rep.diagram

        odd = detect(Signal(base.samples * 3.0, base.sample_rate_hz))
        assert odd.label == rep.label
        assert odd.significance_score == pytest.approx(
            rep.significance_score, rel=1e-9
        )

    def test_constant_signal_is_undecidable(self):
        rep = detect(Signal(np.full(200, 1.5), 100.0))
        assert rep.to_dict() == {
            "label": "undecidable",
            "significance": 0.0,
            "threshold": 0.15,
            "delay": None,
            "subsample_method": "random",
            "subsample_size": 0,
            "seed": 0,
            "diagram": [],
            "reason": "NoZeroCrossing: curve has 0 zero crossing(s), 1 needed",
        }

    def test_short_signal_is_undecidable(self):
        # The requested delay is not echoed: no cloud was built with it.
        rep = detect(
            Signal(np.sin(np.arange(60.0)), 10.0),
            PipelineConfig(delay=60, seed=7, method="maxmin"),
        )
        assert rep.to_dict() == {
            "label": "undecidable",
            "significance": 0.0,
            "threshold": 0.15,
            "delay": None,
            "subsample_method": "maxmin",
            "subsample_size": 0,
            "seed": 7,
            "diagram": [],
            "reason": "SignalTooShort: signal of length 60 cannot be embedded "
            "with delay 60, dim 2",
        }

    def test_degenerate_cloud_reason(self):
        s = Signal(np.full(50, 2.0), 10.0)
        expected = {
            "label": "non-harmonic",
            "significance": 0.0,
            "threshold": 0.15,
            "delay": 1,
            "subsample_method": "random",
            "subsample_size": 49,
            "seed": 0,
            "diagram": [],
            "reason": "degenerate cloud with zero diameter",
        }
        assert detect(s, PipelineConfig(delay=1)).to_dict() == expected
        # A score of 0 meets a threshold of 0, so the same cloud is harmonic.
        rep = detect(s, PipelineConfig(delay=1, threshold=0.0, seed=3, subsample_size=20))
        assert rep.to_dict() == {
            **expected,
            "label": "harmonic",
            "threshold": 0.0,
            "subsample_size": 20,
            "seed": 3,
        }

    def test_delay_override_is_echoed(self):
        rep = detect(_sine(40.0, 4000.0, 2000), PipelineConfig(delay=31))
        assert rep.delay == 31

    def test_report_dict_shape(self):
        s = _sine(40.0, 4000.0, 2000)
        rep = detect(s, PipelineConfig(seed=5))
        # The same pipeline, spelled out stage by stage.
        normed = normalize(s)
        delay = select_delay(acl(normed))
        sub = random_subsample(delay_embed(normed, delay), 100, 5)
        diagram = h1_diagram(sub)
        score = significance(diagram, sub.diameter())
        assert score >= 0.15
        assert rep.to_dict() == {
            "label": "harmonic",
            "significance": score,
            "threshold": 0.15,
            "delay": delay,
            "subsample_method": "random",
            "subsample_size": 100,
            "seed": 5,
            "diagram": diagram.to_dicts(),
            "reason": None,
        }

    def test_decision_stability_chain(self):
        # Jitter within one percent of peak: subsampled clouds stay close
        # in Hausdorff distance, and the loop barcodes stay within twice
        # that (the sharp constant for edge-length filtrations).
        base = normalize(_wheeze_signal(2))
        peak = float(np.abs(base.samples).max())
        rng = SplitMix64(123)
        eta = 0.01 * peak
        jitter = np.array(
            [eta * (2.0 * ((rng.next_u64() >> 11) / 2**53) - 1.0) for _ in base.samples]
        )
        moved = Signal(base.samples + jitter, base.sample_rate_hz)

        delay = select_delay(acl(base))
        p = random_subsample(delay_embed(base, delay, 2), 100, seed=0)
        q = random_subsample(delay_embed(moved, delay, 2), 100, seed=0)
        d_h = hausdorff(p, q)
        assert d_h <= 2.0 * eta + 1e-12
        assert bottleneck(h1_diagram(p), h1_diagram(q), 1) <= 2.0 * d_h + 1e-12


class TestPipelineConfig:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(method="grid")
        with pytest.raises(ValueError):
            PipelineConfig(threshold=-0.5)
        with pytest.raises(ValueError):
            PipelineConfig(subsample_size=0)

    @pytest.mark.parametrize("threshold", [math.inf, math.nan])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold must be finite"):
            PipelineConfig(threshold=threshold)

    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.threshold == 0.15
        assert cfg.subsample_size == 100
        assert cfg.method == "random"
        assert cfg.strategy == "first-zero"
        assert cfg.seed == 0
        assert cfg.delay is None


class TestEvaluate:
    def _dataset(self):
        items = [(_wheeze_signal(i), "harmonic") for i in range(10)]
        items += [(noise_signal(s), "non-harmonic") for s in NOISE_SEEDS[:10]]
        return items

    def test_fixture_suite_accuracy(self):
        result = evaluate(self._dataset())
        assert result.accuracy == 1.0
        assert result.confusion["harmonic"]["harmonic"] == 10
        assert result.confusion["non-harmonic"]["non-harmonic"] == 10
        assert len(result.reports) == 20

    def test_inverted_labels_score_zero(self):
        flipped = [
            (s, "harmonic" if label == "non-harmonic" else "non-harmonic")
            for s, label in self._dataset()
        ]
        assert evaluate(flipped).accuracy == 0.0

    def test_single_item(self):
        assert evaluate([(_wheeze_signal(0), "harmonic")]).accuracy == 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate([])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            evaluate([(_wheeze_signal(0), "wheeze")])

    def test_generator_is_consumed_once_one_item_at_a_time(self, monkeypatch):
        # Each signal is drawn just before its detect(), and never again.
        events = []

        def dataset():
            for i in range(3):
                events.append(f"load {i}")
                yield _wheeze_signal(i), "harmonic"

        def traced(sig, config=None):
            events.append("detect")
            return detect(sig, config)

        monkeypatch.setattr(detector_module, "detect", traced)
        result = evaluate(dataset())
        assert events == ["load 0", "detect", "load 1", "detect", "load 2", "detect"]
        assert result == evaluate([(_wheeze_signal(i), "harmonic") for i in range(3)])
        assert len(result.reports) == 3

    def test_empty_generator_rejected(self):
        with pytest.raises(ValueError, match="dataset must not be empty"):
            evaluate(iter(()))
