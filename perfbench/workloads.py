"""The benchmark's workloads: seeded inputs, the op each one runs, its checks.

Every input comes from the package's own SplitMix64 stream, wheeze-like
tones from PiecewiseSinusoidModel and synthesize, so the same seed gives
byte-identical input files on every platform.

The detect workload times one in-process ``topoperiod detect FILE --out
OUT`` per op. Its reference is ``detect()`` called directly, and the
CLI's bytes must equal that report serialized. Each workload also names the
probes a traced op installs: the functions its op calls, wrapped where
the op's code looks them up, so a traced op is the real op with a span
around each call.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import wave
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from topoperiod import (
    PersistenceDiagram,
    PiecewiseSinusoidModel,
    PointCloud,
    Signal,
    acl,
    bottleneck,
    cli,
    delay_embed,
    detect,
    detector,
    fit_model,
    graph,
    h1_diagram,
    hausdorff,
    load_csv,
    load_wav,
    normalize,
    persistent_homology,
    random_subsample,
    rips_filtration,
    save_csv,
    select_delay,
    synthesize,
)
from topoperiod.subsampling import SplitMix64

from tracing import Probe

# A recording whose resynthesis lands within this share of its
# peak-to-peak range, in graph Hausdorff distance, is structured.
STRUCTURED_RESIDUAL = 0.05


class OpFailed(Exception):
    """An op exited non-zero or its output failed a check."""


# ---------------------------------------------------------------- inputs


def _unit(rng: SplitMix64) -> float:
    """A float in [0, 1) from the next 53 bits of the stream."""
    return (rng.next_u64() >> 11) / float(1 << 53)


def wheeze(
    rng: SplitMix64, rate: float, duration_s: float | None = None, zero_phase: bool = False
) -> Signal:
    """A gliding multi-segment tone shaped like a wheeze.

    Two to five segments of 30-40 cycles, adjacent frequencies a factor
    1.45-1.9 apart starting in 120-280 Hz, under a constant, ramped or
    arched envelope. With ``duration_s`` the cycle counts are rescaled so
    the tone lasts about that long. ``zero_phase`` starts the tone at
    phase 0, which puts every segment boundary on a zero crossing, the
    boundary class fit_model can localize.
    """
    n_seg = 2 + rng.below(4)
    freqs = [120.0 + 160.0 * _unit(rng)]
    for i in range(1, n_seg):
        ratio = 1.45 + 0.45 * _unit(rng)
        freqs.append(freqs[-1] * ratio if i % 2 else freqs[-1] / ratio)
    cycles = [30 + int(10 * _unit(rng)) for _ in freqs]
    if duration_s is not None:
        scale = duration_s / sum(c / f for c, f in zip(cycles, freqs))
        cycles = [max(3, round(c * scale)) for c in cycles]
    bounds = [0.0]
    for c, f in zip(cycles, freqs):
        bounds.append(bounds[-1] + c / f)
    total = bounds[-1]
    style = rng.below(3)
    if style == 0:
        envelope: float | list[tuple[float, float]] = 0.7 + 0.3 * _unit(rng)
    elif style == 1:
        envelope = [(0.0, 0.7 + 0.3 * _unit(rng)), (total, 0.7 + 0.3 * _unit(rng))]
    else:
        envelope = [(t, 0.7 + 0.3 * _unit(rng)) for t in (0.0, total / 2.0, total)]
    phi0 = 0.0 if zero_phase else 2.0 * math.pi * _unit(rng)
    model = PiecewiseSinusoidModel.from_periods(
        bounds, [1.0 / f for f in freqs], phi0, envelope
    )
    return synthesize(model, rate)


def uniform_noise(rng: SplitMix64, n: int, rate: float) -> Signal:
    return Signal(np.asarray([2.0 * _unit(rng) - 1.0 for _ in range(n)]), rate)


def gauss_noise(rng: SplitMix64, n: int, rate: float) -> Signal:
    """Gaussian white noise by the Box-Muller transform."""
    out: list[float] = []
    while len(out) < n:
        r = math.sqrt(-2.0 * math.log(max(_unit(rng), 1e-300)))
        theta = 2.0 * math.pi * _unit(rng)
        out.extend((r * math.cos(theta), r * math.sin(theta)))
    return Signal(np.asarray(out[:n]), rate)


def _strata(rng: SplitMix64, count: int, lo: float, hi: float) -> list[float]:
    """One value drawn from each of ``count`` equal slices of [lo, hi).

    Lengths drawn this way have nearly the same spread for every seed,
    so a run's median does not hinge on how many long inputs it drew.
    """
    return [lo + (hi - lo) * (i + _unit(rng)) / count for i in range(count)]


def _shuffled(rng: SplitMix64, items: list) -> list:
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def write_wav16(s: Signal, path: Path) -> None:
    """Mono 16-bit PCM, scaled to 0.9 of full range."""
    peak = float(np.max(np.abs(s.samples))) or 1.0
    pcm = np.round(s.samples / peak * (0.9 * 32767)).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(int(s.sample_rate_hz))
        fh.writeframes(pcm.tobytes())


def wav_pool(rng: SplitMix64) -> list[tuple[Signal, str]]:
    """16 wheezes and 4 uniform-noise signals at 44.1 kHz, 15k-32k samples each."""
    rate = 44100.0
    items = [
        (wheeze(rng, rate, k / rate), "harmonic") for k in _strata(rng, 16, 15000, 32000)
    ]
    items += [
        (uniform_noise(rng, int(k), rate), "non-harmonic")
        for k in _strata(rng, 4, 15000, 32000)
    ]
    return _shuffled(rng, items)


def model_pool(rng: SplitMix64) -> list[tuple[Signal, str]]:
    """10 peak-normalized wheezes of 0.55-0.8 s and 6 Gaussian-noise signals, 4 kHz."""
    items = [
        (normalize(wheeze(rng, 4000.0, d, zero_phase=True)), "structured")
        for d in _strata(rng, 10, 0.55, 0.8)
    ]
    items += [(gauss_noise(rng, 3000, 4000.0), "unstructured") for _ in range(6)]
    return _shuffled(rng, items)


# ------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Item:
    """One input of a workload's pool, as the files set-up wrote."""

    path: Path
    truth: str
    diagrams: tuple[Path, Path] | None = None


def _load_signal(path: Path) -> Signal:
    return load_wav(path) if path.suffix == ".wav" else load_csv(path)


def _json_text(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _text_bytes(text: str, *_args) -> int:
    return len(text.encode())


# What `topoperiod detect` calls, where cli and detect look it up.
DETECT_PROBES = (
    Probe(cli, "load_csv", "signal_io.load"),
    Probe(cli, "load_wav", "signal_io.load"),
    Probe(cli, "detect", "detector.detect"),
    Probe(detector, "acl", "embedding.acl", ("embedding.acl_lags", lambda c, *_: len(c))),
    Probe(detector, "select_delay", "embedding.select_delay"),
    Probe(detector, "delay_embed", "embedding.delay_embed",
          ("embedding.cloud_points", lambda c, *_: len(c))),
    Probe(detector, "random_subsample", "subsampling.subsample",
          ("subsampling.landmarks", lambda c, *_: len(c))),
    Probe(detector, "maxmin", "subsampling.subsample",
          ("subsampling.landmarks", lambda c, *_: len(c))),
    Probe(PointCloud, "diameter", "embedding.diameter"),
    Probe(detector, "h1_diagram", "persistence.h1_diagram",
          ("persistence.h1_bars", lambda d, *_: len(d.in_dim(1)))),
    Probe(cli, "_json_text", "cli.serialize", ("cli.report_bytes", _text_bytes)),
    Probe(cli, "_emit", "cli.serialize"),
)


@dataclass(frozen=True)
class DetectWorkload:
    """``topoperiod detect`` with default settings over a pool of WAV files."""

    name: str
    pool: Callable[[SplitMix64], list[tuple[Signal, str]]]
    probes = DETECT_PROBES

    def setup(self, workdir: Path, seed: int, limit: int | None = None) -> list[Item]:
        items = []
        for i, (sig, truth) in enumerate(self.pool(SplitMix64(seed))[:limit]):
            path = workdir / f"in{i:03d}.wav"
            write_wav16(sig, path)
            items.append(Item(path, truth))
        return items

    def reference(self, item: Item) -> str:
        """detect() called directly, serialized the way the CLI does."""
        return _json_text(detect(_load_signal(item.path)).to_dict())

    def op(self, item: Item, out: Path) -> None:
        rc = cli.run(["detect", str(item.path), "--out", str(out)])
        if rc != 0:
            raise OpFailed(f"detect exited {rc} on {item.path.name}")


@dataclass(frozen=True)
class ModelCompareWorkload:
    """Fit, resynthesize and compare recordings against saved diagrams.

    Set-up saves each recording with the diagrams detect() reports, with
    default settings, for the recording and for its resynthesis.
    An op fits a model, resynthesizes it, measures the graph Hausdorff
    residual, labels the recording, and takes the bottleneck distance
    between the two saved diagrams in dimensions 0 and 1.
    """

    name: str
    pool: Callable[[SplitMix64], list[tuple[Signal, str]]]

    def setup(self, workdir: Path, seed: int, limit: int | None = None) -> list[Item]:
        items = []
        for i, (sig, truth) in enumerate(self.pool(SplitMix64(seed))[:limit]):
            path = workdir / f"in{i:03d}.csv"
            save_csv(sig, path)
            resynth = synthesize(fit_model(sig), sig.sample_rate_hz)
            diagrams = (workdir / f"in{i:03d}.rec.json", workdir / f"in{i:03d}.syn.json")
            for src, dst in zip((sig, resynth), diagrams):
                dst.write_text(_json_text(detect(src).diagram.to_dicts()))
            items.append(Item(path, truth, diagrams))
        return items

    def reference(self, item: Item) -> str:
        """The op's answer assembled from ``topoperiod fit`` and ``dist``."""
        scratch = item.path.with_suffix(".ref.json")
        if cli.run(["fit", str(item.path), "--out", str(scratch)]) != 0:
            raise OpFailed(f"fit exited non-zero on {item.path.name}")
        model = json.loads(scratch.read_text())
        distances = []
        for dim in (0, 1):
            args = ["dist", "bottleneck", *map(str, item.diagrams), "--dim", str(dim)]
            if cli.run([*args, "--out", str(scratch)]) != 0:
                raise OpFailed(f"dist exited non-zero on {item.path.name}")
            distances.append(json.loads(scratch.read_text())["distance"])
        scratch.unlink()
        s = load_csv(item.path)
        resynth = synthesize(PiecewiseSinusoidModel.from_dict(model), s.sample_rate_hz)
        return _model_text(s, model, hausdorff(graph(s), graph(resynth)), distances)

    def op(self, item: Item, out: Path) -> None:
        s = load_csv(item.path)
        model = fit_model(s)
        resynth = synthesize(model, s.sample_rate_hz)
        residual = hausdorff(graph(s), graph(resynth))
        rec, syn = (
            PersistenceDiagram.from_dicts(json.loads(p.read_text())) for p in item.diagrams
        )
        distances = [bottleneck(rec, syn, dim) for dim in (0, 1)]
        out.write_text(_model_text(s, model.to_dict(), residual, distances))

    @property
    def probes(self) -> tuple[Probe, ...]:
        """What op calls, in this module, where op looks it up."""
        here = sys.modules[__name__]
        return (
            Probe(here, "load_csv", "signal_io.load"),
            Probe(here, "fit_model", "model.fit_model",
                  ("model.segments", lambda m, *_: len(m.segments))),
            Probe(here, "synthesize", "model.synthesize"),
            Probe(here, "hausdorff", "metrics.hausdorff"),
            Probe(here, "bottleneck", "metrics.bottleneck",
                  ("metrics.bottleneck_intervals",
                   lambda _, a, b, dim: len(a.in_dim(dim)) + len(b.in_dim(dim)))),
            Probe(here, "_json_text", "cli.serialize", ("cli.report_bytes", _text_bytes)),
        )


def _model_text(s: Signal, model: dict, residual: float, distances: list) -> str:
    ptp = float(s.samples.max() - s.samples.min())
    structured = residual < STRUCTURED_RESIDUAL * ptp
    return _json_text({
        "bottleneck": [None if math.isinf(d) else d for d in distances],
        "label": "structured" if structured else "unstructured",
        "model": model,
        "residual": residual,
    })


WORKLOADS = {
    w.name: w
    for w in (
        DetectWorkload("wav-44k", wav_pool),
        ModelCompareWorkload("model-compare", model_pool),
    )
}


def spot_check(items: list[Item]) -> tuple[bool, str]:
    """h1_diagram against the explicit two-skeleton on one 100-point subsample."""
    item = next((it for it in items if it.truth in ("harmonic", "structured")), items[0])
    try:
        s = normalize(_load_signal(item.path))
        sub = random_subsample(delay_embed(s, select_delay(acl(s))), 100, 0)
        fast = _intervals(h1_diagram(sub))
        slow = _intervals(persistent_homology(rips_filtration(sub, max_dim=2)))
    except Exception as exc:  # reported as a failed check, not a crash
        return False, f"FAILED on {item.path.name}: {type(exc).__name__}: {exc}"
    if fast != slow:
        return False, f"MISMATCH on {item.path.name}: {len(fast)} vs {len(slow)} intervals"
    return True, f"diagrams equal on 100 points of {item.path.name} ({len(fast)} intervals)"


def _intervals(d: PersistenceDiagram) -> list[tuple[int, float, float]]:
    return sorted((iv.dim, iv.birth, iv.death) for iv in d.intervals)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
