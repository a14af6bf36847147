"""Harmonic-structure detection pipeline.

A signal is normalized, embedded with a delay chosen from its lag
correlation, subsampled, and run through a Rips persistence computation.
The longest finite one-dimensional bar, divided by the subsample's
diameter, is the significance score; a score at or above the threshold
labels the signal harmonic. Signals where no delay can be chosen come
back undecidable rather than forced into either class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .embedding import delay_embed, find_delay
from .errors import (
    NoCriticalPointsError,
    NoZeroCrossingError,
    SignalTooShortError,
)
from .persistence import PersistenceDiagram, h1_diagram
from .signal_io import Signal, normalize
from .subsampling import maxmin, random_subsample

_LABELS = ("harmonic", "non-harmonic", "undecidable")


@dataclass(frozen=True)
class PipelineConfig:
    """Tunable knobs for detect().

    ``threshold`` is the significance cutoff. ``subsample_size`` points
    are kept by ``method``, "random" or "maxmin", seeded with ``seed``.
    ``strategy`` picks the delay rule; ``delay`` overrides the automatic
    choice when set.
    """

    threshold: float = 0.15
    subsample_size: int = 100
    seed: int = 0
    method: str = "random"
    strategy: str = "first-zero"
    delay: int | None = None

    def __post_init__(self) -> None:
        if self.method not in ("random", "maxmin"):
            raise ValueError(f"unknown subsample method {self.method!r}")
        # An infinite threshold would reach the report, which JSON cannot hold.
        if not (self.threshold >= 0 and math.isfinite(self.threshold)):
            raise ValueError("threshold must be finite and nonnegative")
        if self.subsample_size < 1:
            raise ValueError("subsample size must be at least 1")


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of one detection run, with everything needed to audit it."""

    label: str
    significance_score: float
    threshold: float
    delay: int | None
    subsample_method: str
    subsample_size: int
    seed: int
    diagram: PersistenceDiagram
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "significance": self.significance_score,
            "threshold": self.threshold,
            "delay": self.delay,
            "subsample_method": self.subsample_method,
            "subsample_size": self.subsample_size,
            "seed": self.seed,
            "diagram": self.diagram.to_dicts(),
            "reason": self.reason,
        }


def significance(diagram: PersistenceDiagram, diameter: float) -> float:
    """Longest finite 1-dimensional bar relative to the cloud diameter.

    Zero when the diagram has no finite 1-dimensional bars or the
    diameter is zero.
    """
    lengths = [iv.length for iv in diagram.finite(1)]
    if not lengths or diameter <= 0:
        return 0.0
    return max(lengths) / diameter


def detect(s: Signal, config: PipelineConfig | None = None) -> DetectionReport:
    """Classify a signal as harmonic, non-harmonic, or undecidable."""
    cfg = config if config is not None else PipelineConfig()
    normed = normalize(s)
    n, diagram, score, reason = 0, PersistenceDiagram(()), 0.0, None
    try:
        if cfg.delay is not None:
            delay = int(cfg.delay)
        else:
            delay = find_delay(normed, cfg.strategy)
        cloud = delay_embed(normed, delay)
    except (NoZeroCrossingError, NoCriticalPointsError, SignalTooShortError) as exc:
        delay, reason = None, f"{exc.kind}: {exc}"
    else:
        n = min(cfg.subsample_size, len(cloud))
        if n == len(cloud):
            sub = cloud
        elif cfg.method == "maxmin":
            sub = maxmin(cloud, n, cfg.seed)
        else:
            sub = random_subsample(cloud, n, cfg.seed)
        diameter = sub.diameter()
        if diameter == 0.0:
            reason = "degenerate cloud with zero diameter"
        else:
            diagram = h1_diagram(sub)
            score = significance(diagram, diameter)

    if delay is None:
        label = "undecidable"
    else:
        label = "harmonic" if score >= cfg.threshold else "non-harmonic"
    return DetectionReport(
        label=label,
        significance_score=score,
        threshold=cfg.threshold,
        delay=delay,
        subsample_method=cfg.method,
        subsample_size=n,
        seed=cfg.seed,
        diagram=diagram,
        reason=reason,
    )


@dataclass(frozen=True)
class EvaluationResult:
    """Batch accuracy plus the full confusion table and per-item reports."""

    accuracy: float
    confusion: dict[str, dict[str, int]] = field(compare=False)
    reports: tuple[DetectionReport, ...] = field(compare=False, default=())


def evaluate(
    dataset: Iterable[tuple[Signal, str]],
    config: PipelineConfig | None = None,
) -> EvaluationResult:
    """Run detect() over labeled signals and tally a confusion table.

    Labels must come from {harmonic, non-harmonic, undecidable}. Accuracy
    counts exact label matches, undecidable outcomes included. The dataset
    is iterated once, so a generator can load each signal just before its
    detect() and keep one signal at a time.
    """
    confusion: dict[str, dict[str, int]] = {
        a: {b: 0 for b in _LABELS} for a in _LABELS
    }
    reports: list[DetectionReport] = []
    hits = 0
    for sig, truth in dataset:
        if truth not in _LABELS:
            raise ValueError(f"unknown label {truth!r}")
        rep = detect(sig, config)
        reports.append(rep)
        confusion[truth][rep.label] += 1
        if rep.label == truth:
            hits += 1
    if not reports:
        raise ValueError("dataset must not be empty")
    return EvaluationResult(hits / len(reports), confusion, tuple(reports))
