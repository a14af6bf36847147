"""Signal container plus WAV and CSV input/output.

WAV reading is a small hand-rolled RIFF parser rather than the stdlib
``wave`` module because 24-bit integer and 32-bit float payloads need
manual decoding anyway and the error taxonomy here is finer grained.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

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
        Sample values, 1-D float64, at least two of them, all finite. A
        read-only view: a float64 array passed in is not copied, and it
        stays writable for its owner.
    sample_rate_hz : float
        Finite positive sampling rate whose duration ``len / rate`` is
        finite too. Sample ``i`` sits at time ``i / rate``.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64).view()
        if arr.ndim != 1:
            raise ValueError("samples must be a 1-D array")
        if arr.size < 2:
            raise ValueError("a signal needs at least two samples")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        rate = float(self.sample_rate_hz)
        if not (math.isfinite(rate) and rate > 0):
            raise ValueError(f"sample rate must be finite and positive, not {rate!r}")
        if not math.isfinite(arr.size / rate):
            raise ValueError(f"{arr.size} samples at rate {rate!r} overflow the duration")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate_hz", rate)

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


def _decode_pcm(
    data: bytes, bits: int, width: int, fmt: int, channels: int
) -> np.ndarray:
    """Decode raw frame bytes into a float64 mono array in [-1, 1).

    ``width`` is the byte size of one sample's container and ``bits`` the
    valid bits in it, at most ``8 * width``. Valid bits sit at the top of
    the container, so scaling by the container's range serves every
    count of them: 12 bits in 16, 20 in 24. A partial sample at the end
    of ``data`` is dropped, and so is a partial frame of a multi-channel
    file. A 24-bit sample goes into the top three bytes of a zeroed int32
    word, and the scaling by 2^31 is exact.
    """

    def samples(dtype: str) -> np.ndarray:
        return np.frombuffer(data, dtype=dtype, count=len(data) // width)

    if fmt not in (_WAVE_FORMAT_PCM, _WAVE_FORMAT_IEEE_FLOAT):
        raise UnsupportedEncodingError(f"audio format tag {fmt}")
    if not 1 <= bits <= 8 * width:
        raise UnsupportedEncodingError(f"{bits}-bit samples in {width}-byte containers")
    if fmt == _WAVE_FORMAT_IEEE_FLOAT:
        if width == 4:
            vals = samples("<f4").astype(np.float64)
        elif width == 8:
            vals = samples("<f8")
        else:
            raise UnsupportedEncodingError(f"{8 * width}-bit float samples")
    elif width == 1:
        vals = (samples("u1").astype(np.float64) - 128.0) / 128.0
    elif width == 2:
        vals = samples("<i2").astype(np.float64) / 32768.0
    elif width == 3:
        words = np.zeros((len(data) // 3, 4), dtype=np.uint8)
        words[:, 1:] = np.frombuffer(data, np.uint8, len(words) * 3).reshape(-1, 3)
        vals = words.view("<i4")[:, 0] / float(1 << 31)
    elif width == 4:
        vals = samples("<i4").astype(np.float64) / float(1 << 31)
    else:
        raise UnsupportedEncodingError(f"{8 * width}-bit integer samples")
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

    Supports 8/16/24/32-bit integer PCM and 32/64-bit float payloads,
    with a plain format tag or as WAVE_FORMAT_EXTENSIBLE. The sample
    width is the container's, ``block_align / channels``, and fewer valid
    bits in it (12 in 16, 20 in 24) load too. A partial trailing sample
    or frame is dropped.
    Multi-channel audio is averaged across channels. Integer samples are
    scaled by the container's magnitude so values land in [-1, 1).

    A ``data`` chunk is read to the end of the file when its size is
    ``0xFFFFFFFF`` or runs past the end, or when it is 0 and so is the
    RIFF size (or that is ``0xFFFFFFFF``): the sizes a streaming writer
    leaves. Any other chunk that runs past the end is MalformedHeaderError.
    """
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[0:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise MalformedHeaderError(f"{path}: not a RIFF/WAVE file")

    (riff_size,) = struct.unpack_from("<I", blob, 4)
    fmt_chunk: bytes | None = None
    data_chunk: bytes | None = None
    pos = 12
    while pos + 8 <= len(blob):
        cid = blob[pos : pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        if cid == b"data" and (
            size == 0xFFFFFFFF
            or pos + 8 + size > len(blob)
            or (size == 0 and riff_size in (0, 0xFFFFFFFF))
        ):
            size = len(blob) - pos - 8
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

    _, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt_chunk, 0)
    if channels < 1:
        raise MalformedHeaderError(f"{path}: zero channels")
    if rate <= 0:
        raise MalformedHeaderError(f"{path}: nonpositive sample rate")

    fmt = _format_tag(fmt_chunk, path)
    vals = _decode_pcm(data_chunk, bits, block_align // channels, fmt, channels)
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
    lines.extend(map(repr, s.samples.tolist()))
    return "\n".join(lines) + "\n"


def save_csv(s: Signal, path: str | Path) -> None:
    """Write a signal to a file in the signal CSV format."""
    Path(path).write_text(signal_csv_text(s))


def _read_table(
    path: str | Path,
    label: str,
    on_comment: Callable[[int, str], None] | None = None,
    one_column: bool = False,
) -> np.ndarray:
    """The comma-separated numbers of a text file, one row per data line.

    Blank lines are skipped, and a ``#`` line is passed, stripped and with
    its line number, to ``on_comment``. Every other line is a data line:
    fields that ``float`` parses to a finite number, as many on every
    line (exactly one with ``one_column``). Returns a float64 array of
    shape (rows, fields), or (0, 0) without a data line.

    The ``#`` and blank lines before the first data line are handled
    here; the rest go to numpy's C parser in one call. It parses every
    number it accepts to the same float as ``float``, and it rejects the
    rest of what ``float`` accepts (``1_0``, non-ASCII digits) as well as
    later ``#`` and whitespace-only lines. A file it rejects, whose
    shape it reads differently or that holds a non-finite number
    (``nan``, ``inf``, ``1e5000``) is read again one line at a time, and
    that loop gives the value or raises ``MalformedHeaderError`` naming
    the first bad line as ``{path}:{lineno}: {label}: {line!r}``, or the
    file when lines differ in field count.
    """
    lines = Path(path).read_text().splitlines()
    start = 0
    while start < len(lines):
        line = lines[start].strip()
        if line and not line.startswith("#"):
            break
        if line and on_comment is not None:
            on_comment(start + 1, line)
        start += 1
    if start == len(lines):
        return np.empty((0, 0))
    try:
        table = np.loadtxt(
            lines[start:], delimiter=",", comments=None, dtype=np.float64, ndmin=2
        )
        if (not one_column or table.shape[1] == 1) and np.isfinite(table).all():
            return table
    except ValueError:
        pass
    rows: list[list[float]] = []
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if on_comment is not None:
                on_comment(lineno, line)
            continue
        try:
            row = [float(tok) for tok in ([line] if one_column else line.split(","))]
            if not all(map(math.isfinite, row)):
                raise ValueError("not finite")
        except ValueError as exc:
            raise MalformedHeaderError(f"{path}:{lineno}: {label}: {line!r}") from exc
        rows.append(row)
    if not rows:
        return np.empty((0, 0))
    if any(len(r) != len(rows[0]) for r in rows):
        raise MalformedHeaderError(f"{path}: inconsistent coordinate counts")
    return np.asarray(rows, dtype=np.float64)


def load_csv(path: str | Path) -> Signal:
    """Read a one-sample-per-line text signal.

    A ``# sample_rate=<hz>`` comment sets the rate, the last one if there
    are several; without it the rate defaults to 1 Hz. Other ``#`` lines
    and blank lines are skipped. Samples are parsed as ``float`` parses
    them, and a non-finite one is ``MalformedHeaderError`` naming its
    line. A file whose only comments and blank lines come before the
    first sample, and whose samples are plain finite ASCII numbers, is
    parsed by numpy's C parser; any other file is read one line at a
    time (see ``_read_table``), with the same values and errors.
    """
    rate = 1.0

    def comment(lineno: int, line: str) -> None:
        nonlocal rate
        body = line[1:].strip()
        if body.startswith("sample_rate="):
            try:
                rate = float(body.split("=", 1)[1])
            except ValueError as exc:
                raise MalformedHeaderError(f"{path}:{lineno}: bad sample rate") from exc

    table = _read_table(path, "not a number", comment, one_column=True)
    if table.shape[0] < 2:
        raise EmptyAudioError(f"{path}: fewer than two samples")
    return Signal(table[:, 0], rate)
