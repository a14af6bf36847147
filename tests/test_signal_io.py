"""Signal container, WAV decoding, CSV round trips, normalize, window."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoperiod import (
    EmptyAudioError,
    InvalidRangeError,
    MalformedHeaderError,
    Signal,
    UnsupportedEncodingError,
    load_csv,
    load_wav,
    normalize,
    read_cloud_csv,
    save_csv,
    window,
)
from topoperiod.subsampling import SplitMix64

from fixtures import wav_bytes
from oracles import load_csv_loop, pcm24_assembly, read_cloud_csv_loop


_PCM_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def _extensible_wav_bytes(
    channels: int, rate: int, bits: int, frames: bytes, sub_tag: int = 1,
    guid_tail: bytes = _PCM_GUID_TAIL,
) -> bytes:
    """A WAVE_FORMAT_EXTENSIBLE blob: a 40-byte fmt chunk naming its sub-format."""
    byte_rate = rate * channels * bits // 8
    block = channels * bits // 8
    fmt_chunk = struct.pack("<HHIIHH", 0xFFFE, channels, rate, byte_rate, block, bits)
    fmt_chunk += struct.pack("<HHI", 22, bits, 0) + struct.pack("<H", sub_tag) + guid_tail
    body = b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
    body += b"data" + struct.pack("<I", len(frames)) + frames
    if len(frames) % 2:
        body += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestSignalType:
    def test_basic_fields(self):
        s = Signal(np.array([1.0, 2.0, 3.0, 4.0]), 4.0)
        assert len(s) == 4
        assert s.duration_s == 1.0
        assert np.array_equal(s.times(), [0.0, 0.25, 0.5, 0.75])

    def test_samples_are_immutable(self):
        s = Signal(np.array([1.0, 2.0]), 1.0)
        with pytest.raises(ValueError):
            s.samples[0] = 5.0

    def test_callers_array_stays_writable(self):
        a = np.array([1.0, 2.0, 3.0])
        s = Signal(a, 1.0)
        assert a.flags.writeable and not s.samples.flags.writeable
        a[0] = 5.0
        assert a[0] == 5.0

    def test_rejects_2d_samples(self):
        with pytest.raises(ValueError):
            Signal(np.zeros((2, 2)), 1.0)

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0]), 1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0, np.nan]), 1.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError):
            Signal(np.array([1.0, 2.0]), -1.0)

    @pytest.mark.parametrize("rate", [np.inf, np.nan, 1e-310], ids=["inf", "nan", "overflow"])
    def test_rejects_rate_without_finite_duration(self, rate):
        # 400 samples at 1e-310 Hz last 4e312 s, past the largest float64.
        with pytest.raises(ValueError, match="sample rate|duration"):
            Signal(np.zeros(400), rate)


class TestLoadWav:
    def test_16bit_mono_scaling(self, tmp_path):
        frames = struct.pack("<4h", 0, 16384, -16384, 32767)
        p = tmp_path / "mono16.wav"
        p.write_bytes(wav_bytes(1, 1, 44100, 16, frames))
        s = load_wav(p)
        assert s.sample_rate_hz == 44100.0
        assert np.array_equal(s.samples, [0.0, 0.5, -0.5, 32767 / 32768])

    def test_stereo_float_downmix(self, tmp_path):
        frames = struct.pack("<4f", 1.0, 0.0, 0.0, 1.0)  # L=[1,0], R=[0,1]
        p = tmp_path / "stereo_f32.wav"
        p.write_bytes(wav_bytes(3, 2, 8000, 32, frames))
        s = load_wav(p)
        assert np.array_equal(s.samples, [0.5, 0.5])

    def test_8bit_unsigned_scaling(self, tmp_path):
        frames = bytes([0, 128, 192, 255])
        p = tmp_path / "mono8.wav"
        p.write_bytes(wav_bytes(1, 1, 1000, 8, frames))
        s = load_wav(p)
        assert np.array_equal(s.samples, [-1.0, 0.0, 0.5, 127 / 128])

    def test_24bit_sign_extension(self, tmp_path):
        def enc(v: int) -> bytes:
            return (v & 0xFFFFFF).to_bytes(3, "little")

        frames = enc(0) + enc(1 << 22) + enc(-(1 << 22)) + enc(-(1 << 23))
        p = tmp_path / "mono24.wav"
        p.write_bytes(wav_bytes(1, 1, 1000, 24, frames))
        s = load_wav(p)
        assert np.array_equal(s.samples, [0.0, 0.5, -0.5, -1.0])

    def test_32bit_integer_scaling(self, tmp_path):
        frames = struct.pack("<2i", 1 << 30, -(1 << 31))
        p = tmp_path / "mono32.wav"
        p.write_bytes(wav_bytes(1, 1, 1000, 32, frames))
        s = load_wav(p)
        assert np.array_equal(s.samples, [0.5, -1.0])

    def test_64bit_float_samples(self, tmp_path):
        # The header scipy.io.wavfile.write gives a float64 array: format
        # tag 3, 64 bits per sample.
        frames = struct.pack("<4d", 0.25, -0.5, 1e-300, 1.5)
        p = tmp_path / "mono_f64.wav"
        p.write_bytes(wav_bytes(3, 1, 8000, 64, frames))
        s = load_wav(p)
        assert s.samples.tobytes() == np.array([0.25, -0.5, 1e-300, 1.5]).tobytes()
        p.write_bytes(wav_bytes(3, 2, 8000, 64, frames))
        assert np.array_equal(load_wav(p).samples, [-0.125, 0.75])

    @pytest.mark.parametrize(
        "fmt, bits, code",
        [(1, 16, "h"), (1, 32, "i"), (3, 32, "f"), (3, 64, "d")],
    )
    def test_partial_trailing_sample_dropped(self, tmp_path, fmt, bits, code):
        width = bits // 8
        values = [1, 2, 3]
        frames = struct.pack(f"<3{code}", *values)
        p = tmp_path / "whole.wav"
        p.write_bytes(wav_bytes(fmt, 1, 1000, bits, frames))
        whole = load_wav(p).samples
        for stray in range(1, width):
            p.write_bytes(wav_bytes(fmt, 1, 1000, bits, frames + b"\x7f" * stray))
            assert np.array_equal(load_wav(p).samples, whole)

    def test_three_channel_average(self, tmp_path):
        frames = struct.pack("<6h", 3000, 0, -3000, 300, 600, 900)
        p = tmp_path / "tri.wav"
        p.write_bytes(wav_bytes(1, 3, 1000, 16, frames))
        s = load_wav(p)
        assert np.allclose(s.samples, [0.0, 600 / 32768])

    def test_text_masquerading_as_wav(self, tmp_path):
        p = tmp_path / "fake.wav"
        p.write_text("this is not audio at all, just words\n" * 3)
        with pytest.raises(MalformedHeaderError):
            load_wav(p)

    def test_data_chunk_past_end_of_file_is_read_to_the_end(self, tmp_path):
        # A cut file keeps the samples it still holds, as a streaming
        # writer's file whose data size was never written back does.
        blob = wav_bytes(1, 1, 1000, 16, struct.pack("<4h", 1, 2, 3, 4))
        p = tmp_path / "cut.wav"
        p.write_bytes(blob[:-3])
        assert np.array_equal(load_wav(p).samples, np.array([1, 2]) / 32768)
        p.write_bytes(blob[:-5])
        with pytest.raises(EmptyAudioError):
            load_wav(p)

    def test_data_size_all_ones_is_read_to_the_end(self, tmp_path):
        frames = struct.pack("<3h", 5, -6, 7)
        p = tmp_path / "streamed.wav"
        p.write_bytes(wav_bytes(1, 1, 1000, 16, frames, data_size=0xFFFFFFFF))
        assert np.array_equal(load_wav(p).samples, np.array([5, -6, 7]) / 32768)

    @pytest.mark.parametrize("riff_size", [0, 0xFFFFFFFF])
    def test_zero_data_size_with_unset_riff_size_is_read_to_the_end(self, tmp_path, riff_size):
        frames = struct.pack("<3h", 5, -6, 7)
        p = tmp_path / "streamed.wav"
        p.write_bytes(wav_bytes(1, 1, 1000, 16, frames, data_size=0, riff_size=riff_size))
        assert np.array_equal(load_wav(p).samples, np.array([5, -6, 7]) / 32768)

    def test_zero_data_size_with_set_riff_size_stays_malformed(self, tmp_path):
        # The frames after the empty data chunk read as a chunk whose size
        # runs past the end of the file.
        frames = b"junk" + struct.pack("<I", 1000) + b"\x00" * 4
        p = tmp_path / "zero.wav"
        p.write_bytes(wav_bytes(1, 1, 1000, 16, frames, data_size=0))
        with pytest.raises(MalformedHeaderError, match="truncated b'junk' chunk"):
            load_wav(p)

    def test_other_chunk_past_end_of_file_stays_malformed(self, tmp_path):
        blob = wav_bytes(1, 1, 1000, 16, struct.pack("<4h", 1, 2, 3, 4))
        p = tmp_path / "list.wav"
        p.write_bytes(blob + b"LIST" + struct.pack("<I", 64) + b"INFO")
        with pytest.raises(MalformedHeaderError, match="truncated b'LIST' chunk"):
            load_wav(p)

    @pytest.mark.parametrize(
        "bits, width, values",
        [(12, 2, [-2048, 0, 2047, 1]), (20, 3, [-(1 << 19), 0, (1 << 19) - 1, 1])],
    )
    def test_fewer_valid_bits_than_the_container(self, tmp_path, bits, width, values):
        # Valid bits sit at the top of the container, the rest are zero.
        shift = 8 * width - bits
        frames = b"".join(
            ((v << shift) & ((1 << 8 * width) - 1)).to_bytes(width, "little") for v in values
        )
        p = tmp_path / "valid.wav"
        p.write_bytes(wav_bytes(1, 1, 1000, bits, frames, block=width))
        expected = np.array(values, dtype=np.float64) / (1 << (bits - 1))
        assert np.array_equal(load_wav(p).samples, expected)
        p.write_bytes(wav_bytes(1, 1, 1000, 8 * width, frames))
        assert np.array_equal(load_wav(p).samples, expected)

    @pytest.mark.parametrize(
        "channels, bits, block",
        [(1, 16, 0), (2, 16, 1), (1, 16, 1), (1, 0, 2), (1, 40, 5), (2, 16, 12), (1, 65, 8)],
    )
    def test_bad_block_align_is_rejected(self, tmp_path, channels, bits, block):
        p = tmp_path / "block.wav"
        p.write_bytes(wav_bytes(1, channels, 1000, bits, b"\x01" * 24, block=block))
        with pytest.raises(UnsupportedEncodingError):
            load_wav(p)

    def test_missing_data_chunk(self, tmp_path):
        fmt_chunk = struct.pack("<HHIIHH", 1, 1, 1000, 2000, 2, 16)
        body = b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
        p = tmp_path / "nodata.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        with pytest.raises(MalformedHeaderError):
            load_wav(p)

    def test_compressed_format_tag_rejected(self, tmp_path):
        frames = struct.pack("<2h", 0, 1)
        p = tmp_path / "adpcm.wav"
        p.write_bytes(wav_bytes(2, 1, 1000, 16, frames))
        with pytest.raises(UnsupportedEncodingError):
            load_wav(p)

    def test_odd_bit_depth_rejected(self, tmp_path):
        p = tmp_path / "weird.wav"
        # 12-bit PCM, and 16-bit IEEE float (tag 3), which has no decoder.
        for fmt, bits in ((1, 12), (3, 16)):
            p.write_bytes(wav_bytes(fmt, 1, 1000, bits, b"\x00" * 6))
            with pytest.raises(UnsupportedEncodingError):
                load_wav(p)

    @pytest.mark.parametrize(
        "channels, rate, message",
        [(0, 1000, "zero channels"), (1, 0, "nonpositive sample rate")],
        ids=["channels", "rate"],
    )
    def test_zero_channels_or_rate_is_malformed(self, tmp_path, channels, rate, message):
        p = tmp_path / "zero.wav"
        p.write_bytes(wav_bytes(1, channels, rate, 16, b"\x00" * 8))
        with pytest.raises(MalformedHeaderError, match=message):
            load_wav(p)

    def test_empty_data_chunk(self, tmp_path):
        p = tmp_path / "empty.wav"
        p.write_bytes(wav_bytes(1, 1, 1000, 16, b""))
        with pytest.raises(EmptyAudioError):
            load_wav(p)

    def test_single_sample_rejected(self, tmp_path):
        p = tmp_path / "one.wav"
        p.write_bytes(wav_bytes(1, 1, 1000, 16, struct.pack("<h", 7)))
        with pytest.raises(EmptyAudioError):
            load_wav(p)


class TestDecode24Bit:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.binary(min_size=6, max_size=120), st.sampled_from([1, 1, 2]))
    def test_equals_the_byte_assembly(self, tmp_path_factory, frames, channels):
        # Random lengths leave 0-2 stray bytes after the last whole sample.
        p = tmp_path_factory.mktemp("wav") / "in24.wav"
        p.write_bytes(wav_bytes(1, channels, 1000, 24, frames))
        vals = pcm24_assembly(frames)
        vals = vals[: vals.size // channels * channels].reshape(-1, channels).mean(axis=1)
        if vals.size < 2:
            with pytest.raises(EmptyAudioError):
                load_wav(p)
        else:
            assert load_wav(p).samples.tobytes() == vals.tobytes()

    def test_load_holds_under_24_bytes_per_sample(self, tmp_path):
        count = 300_000
        frames = (np.arange(3 * count) * 37 % 256).astype(np.uint8).tobytes()
        p = tmp_path / "long24.wav"
        p.write_bytes(wav_bytes(1, 1, 44100, 24, frames))
        tracemalloc.start()
        try:
            samples = load_wav(p).samples
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert samples.size == count
        assert peak / count < 24


class TestLoadWavExtensible:
    def test_16bit_mono(self, tmp_path):
        frames = struct.pack("<4h", 0, 16384, -16384, 32767)
        p = tmp_path / "ext16.wav"
        p.write_bytes(_extensible_wav_bytes(1, 44100, 16, frames))
        s = load_wav(p)
        assert s.sample_rate_hz == 44100.0
        assert np.array_equal(s.samples, [0.0, 0.5, -0.5, 32767 / 32768])

    def test_24bit_stereo(self, tmp_path):
        def enc(v: int) -> bytes:
            return (v & 0xFFFFFF).to_bytes(3, "little")

        # L=[1/2, -1], R=[1/2, 0]
        frames = enc(1 << 22) + enc(1 << 22) + enc(-(1 << 23)) + enc(0)
        p = tmp_path / "ext24.wav"
        p.write_bytes(_extensible_wav_bytes(2, 96000, 24, frames))
        s = load_wav(p)
        assert s.sample_rate_hz == 96000.0
        assert np.array_equal(s.samples, [0.5, -0.5])

    def test_float_sub_format(self, tmp_path):
        frames = struct.pack("<2f", 0.25, -0.75)
        p = tmp_path / "extf.wav"
        p.write_bytes(_extensible_wav_bytes(1, 8000, 32, frames, sub_tag=3))
        assert np.array_equal(load_wav(p).samples, [0.25, -0.75])

    def test_unknown_guid_rejected(self, tmp_path):
        frames = struct.pack("<2h", 0, 1)
        for sub_tag, tail in [(2, _PCM_GUID_TAIL), (1, bytes(14))]:
            p = tmp_path / "extx.wav"
            p.write_bytes(_extensible_wav_bytes(1, 1000, 16, frames, sub_tag, tail))
            with pytest.raises(UnsupportedEncodingError):
                load_wav(p)

    def test_missing_extension_rejected(self, tmp_path):
        p = tmp_path / "short.wav"
        p.write_bytes(wav_bytes(0xFFFE, 1, 1000, 16, struct.pack("<2h", 0, 1)))
        with pytest.raises(MalformedHeaderError):
            load_wav(p)


class TestNormalize:
    def test_divides_by_peak(self):
        s = normalize(Signal(np.array([2.0, -4.0, 1.0]), 1.0))
        assert np.array_equal(s.samples, [0.5, -1.0, 0.25])

    def test_zero_signal_unchanged(self):
        s = Signal(np.array([0.0, 0.0, 0.0]), 1.0)
        assert normalize(s) is s

    def test_symmetric_pair(self):
        s = normalize(Signal(np.array([-0.5, 0.5]), 1.0))
        assert np.array_equal(s.samples, [-1.0, 1.0])

    def test_idempotent(self):
        rng = SplitMix64(42)
        vals = np.array([(rng.next_u64() >> 11) / 2**53 - 0.5 for _ in range(64)])
        once = normalize(Signal(vals, 3.0))
        twice = normalize(once)
        assert np.array_equal(once.samples, twice.samples)
        assert np.max(np.abs(once.samples)) == 1.0


class TestWindow:
    def test_half_open_selection(self):
        s = Signal(np.arange(8, dtype=float), 4.0)
        w = window(s, 0.5, 1.5)
        assert np.array_equal(w.samples, [2.0, 3.0, 4.0, 5.0])
        assert w.sample_rate_hz == 4.0

    def test_full_range_is_identity(self):
        s = Signal(np.arange(8, dtype=float), 4.0)
        w = window(s, 0.0, s.duration_s)
        assert np.array_equal(w.samples, s.samples)

    def test_reversed_bounds_rejected(self):
        s = Signal(np.arange(8, dtype=float), 4.0)
        with pytest.raises(InvalidRangeError):
            window(s, 2.0, 1.0)

    def test_start_past_end_of_signal_rejected(self):
        s = Signal(np.arange(8, dtype=float), 4.0)
        with pytest.raises(InvalidRangeError):
            window(s, 2.0, 3.0)

    def test_end_clamped_to_duration(self):
        s = Signal(np.arange(8, dtype=float), 4.0)
        w = window(s, 1.0, 99.0)
        assert np.array_equal(w.samples, [4.0, 5.0, 6.0, 7.0])

    def test_too_few_samples_rejected(self):
        s = Signal(np.arange(8, dtype=float), 4.0)
        with pytest.raises(InvalidRangeError):
            window(s, 0.5, 0.6)

    def test_composition(self):
        s = Signal(np.arange(32, dtype=float), 8.0)
        inner = window(s, 1.0, 3.0)
        again = window(inner, 0.0, 2.0)
        assert np.array_equal(again.samples, inner.samples)


class TestCsvRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = SplitMix64(7)
        vals = np.array([(rng.next_u64() >> 11) / 2**53 - 0.5 for _ in range(100)])
        s = Signal(vals, 44100.0)
        p = tmp_path / "sig.csv"
        save_csv(s, p)
        back = load_csv(p)
        assert back.sample_rate_hz == s.sample_rate_hz
        assert np.array_equal(back.samples, s.samples)
        assert back.samples.tobytes() == s.samples.tobytes()

    def test_missing_header_defaults_to_1hz(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("1.5\n-2.5\n0.25\n")
        s = load_csv(p)
        assert s.sample_rate_hz == 1.0
        assert np.array_equal(s.samples, [1.5, -2.5, 0.25])

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        p = tmp_path / "sparse.csv"
        p.write_text("# sample_rate=10\n\n1.0\n# a note\n2.0\n\n")
        s = load_csv(p)
        assert s.sample_rate_hz == 10.0
        assert np.array_equal(s.samples, [1.0, 2.0])

    def test_bad_number_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0\npotato\n")
        with pytest.raises(MalformedHeaderError):
            load_csv(p)

    def test_bad_rate_rejected(self, tmp_path):
        p = tmp_path / "badrate.csv"
        p.write_text("# sample_rate=fast\n1.0\n2.0\n")
        with pytest.raises(MalformedHeaderError):
            load_csv(p)

    def test_too_few_samples_rejected(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("1.0\n")
        with pytest.raises(EmptyAudioError):
            load_csv(p)

    @pytest.mark.parametrize("value", ["nan", "-inf", "Infinity", "1e5000"])
    def test_non_finite_sample_names_its_line(self, tmp_path, value):
        p = tmp_path / "nonfinite.csv"
        p.write_text(f"# sample_rate=8000\n1.0\n{value}\n2.0\n")
        with pytest.raises(MalformedHeaderError) as info:
            load_csv(p)
        assert str(info.value) == f"{p}:3: not a number: {value!r}"
        p.write_text(f"0.5,1.0\n\n1.0,{value}\n")
        with pytest.raises(MalformedHeaderError) as info:
            read_cloud_csv(p)
        assert str(info.value) == f"{p}:3: bad point: '1.0,{value}'"


_REPR_FIELDS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# Fields the C parser and float() may disagree on, and lines that must
# take the per-line path.
_ODD_FIELDS = st.sampled_from(
    ["inf", "-Infinity", "nan", "1_0", "\u0661\u0662", "0x1p3", "nan(1)", "1 2",
     "1.0 # c", " 0.5 ", "+1", "1e5000", "1e-400", ".5", "\x00", ""]
)
_ODD_LINES = st.sampled_from(
    ["", "   ", "\t", "\x0c", "1.0\x0c2.0", "# note", "# sample_rate=8000",
     "# sample_rate=fast", "#sample_rate=0.5", "1,2", "1.0,"]
)
_HEADERS = st.lists(st.sampled_from(["# sample_rate=44100.0", "", "# x", "  "]), max_size=3)


def _csv_texts(width: int) -> st.SearchStrategy[str]:
    clean = st.lists(_REPR_FIELDS, min_size=width, max_size=width).map(",".join)
    mixed = st.lists(st.one_of(_REPR_FIELDS, _ODD_FIELDS), min_size=1, max_size=3).map(
        ",".join
    )
    lines = st.one_of(
        st.lists(clean, max_size=10),
        st.lists(st.one_of(clean, clean, clean, mixed, _ODD_LINES), max_size=10),
    )
    return st.tuples(_HEADERS, lines, st.sampled_from(["\n", "\r\n"]), st.booleans()).map(
        lambda t: t[2].join(t[0] + t[1]) + (t[2] if t[3] else "")
    )


def _outcome(read, path):
    """A reader's result as comparable bytes, or its error class and message."""
    try:
        got = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(got, Signal):
        return got.samples.dtype.str, got.samples.shape, got.samples.tobytes(), got.sample_rate_hz.hex()
    return got.points.dtype.str, got.points.shape, got.points.tobytes()


class TestCsvReadersMatchLineLoop:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from([1, 1, 2, 3]).flatmap(_csv_texts))
    def test_same_values_or_errors_as_the_loop(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("csv") / "in.csv"
        p.write_bytes(text.encode())
        assert _outcome(load_csv, p) == _outcome(load_csv_loop, p)
        assert _outcome(read_cloud_csv, p) == _outcome(read_cloud_csv_loop, p)
