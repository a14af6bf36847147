"""Signal container plus WAV and CSV input/output.

WAV reading is a small hand-rolled RIFF parser rather than the stdlib
``wave`` module because 24-bit integer and 32-bit float payloads need
manual decoding anyway and the error taxonomy here is finer grained.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyAudioError,
    InvalidRangeError,
    MalformedHeaderError,
    UnsupportedEncodingError,
)

_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# WAVE_FORMAT_EXTENSIBLE names its encoding by a sub-format GUID: the
# plain format tag in two little-endian bytes, then a fixed tail.
_SUBFORMATS = {
    struct.pack("<H", tag) + bytes.fromhex("000000001000800000aa00389b71"): tag
    for tag in (_WAVE_FORMAT_PCM, _WAVE_FORMAT_IEEE_FLOAT)
}


@dataclass(frozen=True)
class Signal:
    """A uniformly sampled 1-D signal.

    Attributes
    ----------
    samples : np.ndarray
        Sample values, 1-D float64, at least two of them, all finite.
    sample_rate_hz : float
        Positive sampling rate. Sample ``i`` sits at time ``i / rate``.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("samples must be a 1-D array")
        if arr.size < 2:
            raise ValueError("a signal needs at least two samples")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        if not (self.sample_rate_hz > 0):
            raise ValueError("sample rate must be positive")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        """Total covered time, each sample owning one sampling interval."""
        return len(self) / self.sample_rate_hz

    def times(self) -> np.ndarray:
        """Sample times ``i / rate`` in seconds."""
        return np.arange(len(self), dtype=np.float64) / self.sample_rate_hz


def normalize(s: Signal) -> Signal:
    """Scale samples so the largest magnitude becomes 1.

    An all-zero signal is returned unchanged. The operation is idempotent
    up to floating point rounding.
    """
    peak = float(np.max(np.abs(s.samples)))
    if peak == 0.0:
        return s
    return Signal(s.samples / peak, s.sample_rate_hz)


def window(s: Signal, start_s: float, end_s: float) -> Signal:
    """Cut the half-open time range ``[start_s, end_s)`` from a signal.

    Keeps samples whose time ``i / rate`` falls inside the range. The end
    bound is clamped to the signal's duration, which makes re-windowing a
    window over its own full span an identity. Raises InvalidRangeError
    when the bounds are reversed, the start falls outside the signal, or
    fewer than two samples are selected.
    """
    if not (0.0 <= start_s < s.duration_s and end_s > start_s):
        raise InvalidRangeError(
            f"window [{start_s}, {end_s}) invalid for signal of duration "
            f"{s.duration_s}"
        )
    end_s = min(end_s, s.duration_s)
    rate = s.sample_rate_hz
    # Small slack so exact grid hits are not lost to float rounding.
    i0 = int(np.ceil(start_s * rate - 1e-9))
    i1 = int(np.ceil(end_s * rate - 1e-9))
    i0 = max(i0, 0)
    i1 = min(i1, len(s))
    if i1 - i0 < 2:
        raise InvalidRangeError(
            f"window [{start_s}, {end_s}) selects fewer than two samples"
        )
    return Signal(s.samples[i0:i1].copy(), rate)


def _decode_pcm(data: bytes, bits: int, fmt: int, channels: int) -> np.ndarray:
    """Decode raw frame bytes into a float64 mono array in [-1, 1)."""
    if fmt == _WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise UnsupportedEncodingError(f"{bits}-bit float samples")
        vals = np.frombuffer(data, dtype="<f4").astype(np.float64)
    elif fmt == _WAVE_FORMAT_PCM:
        if bits == 8:
            vals = (np.frombuffer(data, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
        elif bits == 16:
            vals = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
        elif bits == 24:
            raw = np.frombuffer(data, dtype=np.uint8)
            raw = raw[: (raw.size // 3) * 3].reshape(-1, 3).astype(np.int64)
            vals = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
            vals = vals - ((vals & 0x800000) << 1)
            vals = vals.astype(np.float64) / float(1 << 23)
        elif bits == 32:
            vals = np.frombuffer(data, dtype="<i4").astype(np.float64) / float(1 << 31)
        else:
            raise UnsupportedEncodingError(f"{bits}-bit integer samples")
    else:
        raise UnsupportedEncodingError(f"audio format tag {fmt}")
    if channels > 1:
        vals = vals[: (vals.size // channels) * channels]
        vals = vals.reshape(-1, channels).mean(axis=1)
    return vals


def _format_tag(fmt_chunk: bytes, path: str | Path) -> int:
    """The fmt chunk's format tag, read through the sub-format GUID of
    WAVE_FORMAT_EXTENSIBLE, which only PCM and IEEE float pass."""
    (fmt,) = struct.unpack_from("<H", fmt_chunk, 0)
    if fmt != _WAVE_FORMAT_EXTENSIBLE:
        return fmt
    if len(fmt_chunk) < 40:
        raise MalformedHeaderError(f"{path}: short WAVE_FORMAT_EXTENSIBLE fmt chunk")
    guid = fmt_chunk[24:40]
    if guid not in _SUBFORMATS:
        raise UnsupportedEncodingError(f"extensible sub-format {guid.hex()}")
    return _SUBFORMATS[guid]


def load_wav(path: str | Path) -> Signal:
    """Read an uncompressed RIFF/WAVE file and downmix to mono.

    Supports 8/16/24/32-bit integer PCM and 32-bit float payloads, with
    a plain format tag or as WAVE_FORMAT_EXTENSIBLE.
    Multi-channel audio is averaged across channels. Integer samples are
    scaled by the type's magnitude so values land in [-1, 1).
    """
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[0:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise MalformedHeaderError(f"{path}: not a RIFF/WAVE file")

    fmt_chunk: bytes | None = None
    data_chunk: bytes | None = None
    pos = 12
    while pos + 8 <= len(blob):
        cid = blob[pos : pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        body = blob[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise MalformedHeaderError(f"{path}: truncated {cid!r} chunk")
        if cid == b"fmt ":
            fmt_chunk = body
        elif cid == b"data":
            data_chunk = body
        pos += 8 + size + (size & 1)

    if fmt_chunk is None or len(fmt_chunk) < 16:
        raise MalformedHeaderError(f"{path}: missing or short fmt chunk")
    if data_chunk is None:
        raise MalformedHeaderError(f"{path}: missing data chunk")

    _, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt_chunk, 0)
    if channels < 1:
        raise MalformedHeaderError(f"{path}: zero channels")
    if rate <= 0:
        raise MalformedHeaderError(f"{path}: nonpositive sample rate")

    vals = _decode_pcm(data_chunk, bits, _format_tag(fmt_chunk, path), channels)
    if vals.size == 0:
        raise EmptyAudioError(f"{path}: no audio frames")
    if vals.size < 2:
        raise EmptyAudioError(f"{path}: fewer than two samples")
    return Signal(vals, float(rate))


def signal_csv_text(s: Signal) -> str:
    """The CSV form of a signal: a rate header, then one sample per line.

    ``repr`` formatting keeps the round trip through load_csv bit-exact.
    """
    lines = [f"# sample_rate={s.sample_rate_hz!r}"]
    lines.extend(repr(float(v)) for v in s.samples)
    return "\n".join(lines) + "\n"


def save_csv(s: Signal, path: str | Path) -> None:
    """Write a signal to a file in the signal CSV format."""
    Path(path).write_text(signal_csv_text(s))


def load_csv(path: str | Path) -> Signal:
    """Read a one-sample-per-line text signal.

    A leading ``# sample_rate=<hz>`` comment sets the rate; without it the
    rate defaults to 1 Hz.
    """
    rate = 1.0
    samples: list[float] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("sample_rate="):
                try:
                    rate = float(body.split("=", 1)[1])
                except ValueError as exc:
                    raise MalformedHeaderError(f"{path}:{lineno}: bad sample rate") from exc
            continue
        try:
            samples.append(float(line))
        except ValueError as exc:
            raise MalformedHeaderError(f"{path}:{lineno}: not a number: {line!r}") from exc
    if len(samples) < 2:
        raise EmptyAudioError(f"{path}: fewer than two samples")
    return Signal(np.asarray(samples, dtype=np.float64), rate)
