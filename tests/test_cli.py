"""End-to-end checks of the command-line interface.

Each subcommand runs through ``run`` against temporary files and its
output is compared with the library call it wraps, which keeps the CLI a
thin shell over the public API. Exit codes, the JSON error channel on
stderr, option precedence, and byte determinism are covered here too.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoperiod import (
    PersistenceDiagram,
    PiecewiseSinusoidModel,
    PipelineConfig,
    PointCloud,
    Signal,
    acl,
    delay_embed,
    detect,
    fit_model,
    maxmin,
    normalize,
    persistent_homology,
    random_subsample,
    read_cloud_csv,
    render_svg,
    rips_filtration,
    save_csv,
    select_delay,
    synthesize,
    window,
    write_cloud_csv,
)
from topoperiod import cli as cli_module
from topoperiod.cli import run
from topoperiod.embedding import cloud_csv_text
from topoperiod.signal_io import signal_csv_text

from fixtures import noise_signal, wav_bytes, wheeze_model


@pytest.fixture
def cli(capsys):
    """Invoke the CLI in process and capture (exit code, stdout, stderr)."""

    def invoke(*argv):
        code = run([str(a) for a in argv])
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    return invoke


@pytest.fixture
def sine(tmp_path):
    """A 100 Hz sine sampled for 0.1 s at 4 kHz, saved as CSV."""
    t = np.arange(400) / 4000.0
    s = Signal(np.sin(2 * np.pi * 100.0 * t), 4000.0)
    path = tmp_path / "sine.csv"
    save_csv(s, path)
    return path, s


@pytest.fixture
def square_cloud(tmp_path):
    """The unit square corners, saved as a point cloud CSV."""
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    path = tmp_path / "square.csv"
    write_cloud_csv(cloud, path)
    return path, cloud


def error_kind(stderr: str) -> str:
    """Parse the one-line JSON error object and return its kind."""
    lines = [ln for ln in stderr.splitlines() if ln.strip()]
    assert len(lines) == 1, f"expected one error line, got {stderr!r}"
    payload = json.loads(lines[0])
    assert set(payload) == {"kind", "message"}
    assert isinstance(payload["message"], str) and payload["message"]
    return payload["kind"]


class TestAclCommand:
    def test_matches_library_lag_form(self, cli, sine):
        path, s = sine
        code, out, err = cli("acl", path)
        assert code == 0 and err == ""
        assert out == signal_csv_text(acl(s))

    def test_literal_flag_switches_form(self, cli, sine):
        path, s = sine
        code, out, _ = cli("acl", path, "--literal")
        assert code == 0
        assert out == signal_csv_text(acl(s, form="literal"))

    def test_out_writes_file_and_silences_stdout(self, cli, sine, tmp_path):
        path, s = sine
        dest = tmp_path / "curve.csv"
        code, out, err = cli("acl", path, "--out", dest)
        assert code == 0 and out == "" and err == ""
        assert dest.read_text() == signal_csv_text(acl(s))

    def test_window_flag_cuts_before_transform(self, cli, sine):
        path, s = sine
        code, out, _ = cli("acl", path, "--window", "0.0:0.05")
        assert code == 0
        assert out == signal_csv_text(acl(window(s, 0.0, 0.05)))


class TestEmbedCommand:
    def test_explicit_delay_matches_library(self, cli, sine):
        path, s = sine
        code, out, err = cli("embed", path, "--delay", "7", "--dim", "2")
        assert code == 0 and err == ""
        lines = out.splitlines(keepends=True)
        assert lines[0] == "# delay=7 dim=2 strategy=first-zero\n"
        assert "".join(lines[1:]) == cloud_csv_text(delay_embed(s, 7, 2))

    def test_auto_delay_uses_selection_rule(self, cli, sine):
        path, s = sine
        code, out, _ = cli("embed", path, "--strategy", "mid-critical")
        assert code == 0
        delay = select_delay(acl(s), "mid-critical")
        assert out.splitlines()[0] == f"# delay={delay} dim=2 strategy=mid-critical"

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("strategy", ["first-zero", "second-zero", "mid-critical"])
    def test_scaled_tone_prints_the_unit_header(self, cli, sine, tmp_path, scale, strategy):
        # The delay is scanned in power-of-two units: a tone whose lag
        # sums overflow, or whose lag products underflow, gets the delay
        # of the unit tone, without a warning.
        path, s = sine
        scaled = tmp_path / "scaled.csv"
        save_csv(Signal(scale * s.samples, s.sample_rate_hz), scaled)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, unit, _ = cli("embed", path, "--strategy", strategy)
            assert code == 0
            code, out, err = cli("embed", scaled, "--strategy", strategy)
        assert code == 0 and err == ""
        assert out.splitlines()[0] == unit.splitlines()[0]

    def test_embed_output_reads_back_as_cloud(self, cli, sine, tmp_path):
        path, s = sine
        dest = tmp_path / "cloud.csv"
        code, _, _ = cli("embed", path, "--delay", "10", "--out", dest)
        assert code == 0
        cloud = read_cloud_csv(dest)
        assert np.array_equal(cloud.points, delay_embed(s, 10, 2).points)

    def test_wav_input_decodes_as_pcm16(self, cli, tmp_path):
        ints = (
            np.round(30000.0 * np.sin(2 * np.pi * np.arange(200) / 40.0))
            .astype(np.int16)
        )
        path = tmp_path / "tone.wav"
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(1)
            handle.setsampwidth(2)
            handle.setframerate(4000)
            handle.writeframes(ints.tobytes())
        code, out, _ = cli("acl", path)
        assert code == 0
        expected = acl(Signal(ints.astype(np.float64) / 32768.0, 4000.0))
        assert out == signal_csv_text(expected)

    def test_valid_bits_below_the_container_embed_as_the_container(self, cli, tmp_path):
        # 12-bit samples in 16-bit containers: the same frames as a 16-bit
        # file whose low four bits are zero, so the same cloud.
        ints = np.round(2000.0 * np.sin(2 * np.pi * np.arange(400) / 40.0)).astype("<i2")
        frames = (ints * 16).astype("<i2").tobytes()
        outs = []
        for bits in (12, 16):
            path = tmp_path / f"tone{bits}.wav"
            path.write_bytes(wav_bytes(1, 1, 4000, bits, frames, block=2))
            code, out, err = cli("embed", path, "--delay", "10")
            assert code == 0 and err == ""
            outs.append(out)
        assert outs[0] == outs[1]

    def test_malformed_wav_reports_header_kind(self, cli, tmp_path):
        path = tmp_path / "broken.wav"
        path.write_bytes(b"RIFF\x04\x00\x00\x00WAVE")
        code, out, err = cli("embed", path)
        assert code == 1 and out == ""
        assert error_kind(err) == "MalformedHeader"

    def test_missing_input_reports_file_not_found(self, cli, tmp_path):
        code, out, err = cli("embed", tmp_path / "absent.csv")
        assert code == 1 and out == ""
        assert error_kind(err) == "FileNotFound"


class TestSubsampleCommand:
    def test_default_method_is_maxmin(self, cli, square_cloud):
        path, cloud = square_cloud
        code, out, _ = cli("subsample", path, "--n", "3")
        assert code == 0
        lines = out.splitlines(keepends=True)
        assert lines[0] == "# method=maxmin n=3 seed=0\n"
        assert "".join(lines[1:]) == cloud_csv_text(maxmin(cloud, 3, 0))

    def test_random_method_matches_library(self, cli, square_cloud):
        path, cloud = square_cloud
        code, out, _ = cli("subsample", path, "--n", "2", "--method", "random", "--seed", "5")
        assert code == 0
        lines = out.splitlines(keepends=True)
        assert lines[0] == "# method=random n=2 seed=5\n"
        assert "".join(lines[1:]) == cloud_csv_text(random_subsample(cloud, 2, 5))

    def test_missing_n_is_invalid_input(self, cli, square_cloud):
        path, _ = square_cloud
        code, _, err = cli("subsample", path)
        assert code == 1
        assert error_kind(err) == "InvalidInput"

    def test_unknown_method_from_config_is_invalid(self, cli, square_cloud, tmp_path):
        # The flag's choices stop a bad --method; a config value reaches the command.
        path, _ = square_cloud
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"method": "median"}))
        code, out, err = cli("subsample", path, "--n", "2", "--config", config)
        assert code == 1 and out == ""
        assert error_kind(err) == "InvalidInput"
        assert "unknown subsample method 'median'" in json.loads(err)["message"]

    def test_oversized_n_reports_domain_error(self, cli, square_cloud):
        path, _ = square_cloud
        code, _, err = cli("subsample", path, "--n", "9")
        assert code == 1
        assert error_kind(err) == "NTooLarge"


class TestPersistCommand:
    def test_diagram_matches_library(self, cli, square_cloud):
        path, cloud = square_cloud
        code, out, err = cli("persist", path)
        assert code == 0 and err == ""
        expected = persistent_homology(rips_filtration(cloud, max_dim=2))
        assert json.loads(out) == expected.to_dicts()

    def test_render_sidecar_matches_library_svg(self, cli, square_cloud, tmp_path):
        path, cloud = square_cloud
        svg_path = tmp_path / "barcode.svg"
        code, _, _ = cli("persist", path, "--render", svg_path)
        assert code == 0
        expected = persistent_homology(rips_filtration(cloud, max_dim=2))
        assert svg_path.read_text() == render_svg(expected)

    def test_max_eps_truncation_yields_open_interval(self, cli, square_cloud):
        path, _ = square_cloud
        code, out, _ = cli("persist", path, "--max-eps", "1.2")
        assert code == 0
        records = json.loads(out)
        h1 = [r for r in records if r["dim"] == 1]
        assert len(h1) == 1 and h1[0]["death"] is None

    @pytest.mark.parametrize("extra", [
        ["--max-dim", "1"], ["--max-dim", "2"], ["--max-dim", "3"], ["--max-eps", "0.4"],
        ["--max-dim", "4"],
    ])
    def test_bytes_match_the_explicit_filtration(self, cli, tmp_path, extra):
        # A random cloud plus a lattice, so many distances are tied.
        rng = np.random.default_rng(3)
        lattice = np.array([[i / 3, j / 3] for i in range(3) for j in range(3)])
        cloud = PointCloud(np.vstack((rng.random((7, 2)), lattice)))
        path = tmp_path / "cloud.csv"
        write_cloud_csv(cloud, path)
        code, out, _ = cli("persist", path, *extra)
        assert code == 0
        max_dim = int(extra[1]) if extra[0] == "--max-dim" else 2
        max_eps = float(extra[1]) if extra[0] == "--max-eps" else "auto"
        expected = persistent_homology(rips_filtration(cloud, max_dim, max_eps))
        assert out == json.dumps(expected.to_dicts(), sort_keys=True, indent=2) + "\n"

    def test_octahedron_dimension_two_bar(self, cli, tmp_path):
        path = tmp_path / "octahedron.csv"
        write_cloud_csv(PointCloud(np.vstack((np.eye(3), -np.eye(3)))), path)
        code, out, _ = cli("persist", path, "--max-dim", "3")
        assert code == 0
        h2 = [r for r in json.loads(out) if r["dim"] == 2]
        assert h2 == [{"dim": 2, "birth": math.sqrt(2.0), "death": 2.0}]

    def test_negative_max_eps_on_one_point_is_invalid(self, cli, tmp_path):
        path = tmp_path / "one.csv"
        write_cloud_csv(PointCloud(np.array([[1.0, 2.0]])), path)
        code, out, err = cli("persist", path, "--max-eps", "-1")
        assert code == 1 and out == ""
        assert error_kind(err) == "InvalidInput"

    @pytest.mark.parametrize("max_dim", ["1", "2", "3"])
    def test_nan_max_eps_is_invalid(self, cli, square_cloud, max_dim):
        path, _ = square_cloud
        code, out, err = cli("persist", path, "--max-eps", "nan", "--max-dim", max_dim)
        assert code == 1 and out == ""
        assert error_kind(err) == "InvalidInput"

    def test_empty_cloud_reports_domain_error(self, cli, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# nothing here\n")
        code, _, err = cli("persist", path)
        assert code == 1
        assert error_kind(err) == "EmptyCloud"


class TestDistCommand:
    def test_hausdorff_between_cloud_files(self, cli, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_cloud_csv(PointCloud(np.array([[0.0], [1.0]])), a)
        write_cloud_csv(PointCloud(np.array([[0.0], [1.0], [10.0]])), b)
        code, out, _ = cli("dist", "hausdorff", a, b)
        assert code == 0
        payload = json.loads(out)
        assert payload == {"metric": "hausdorff", "distance": 9.0, "infinite": False}

    def test_bottleneck_between_diagram_files(self, cli, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps([{"dim": 1, "birth": 1.0, "death": 2.0}]))
        b.write_text(json.dumps([{"dim": 1, "birth": 1.5, "death": 2.5}]))
        code, out, _ = cli("dist", "bottleneck", a, b, "--dim", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "metric": "bottleneck",
            "dim": 1,
            "distance": 0.5,
            "infinite": False,
        }

    def test_bottleneck_infinite_distance_is_flagged(self, cli, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps([{"dim": 1, "birth": 1.0, "death": None}]))
        b.write_text(json.dumps([]))
        code, out, _ = cli("dist", "bottleneck", a, b, "--dim", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["distance"] is None and payload["infinite"] is True

    def test_negative_dim_is_invalid(self, cli, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(json.dumps([{"dim": 1, "birth": 1.0, "death": 2.0}]))
        code, out, err = cli("dist", "bottleneck", a, a, "--dim", "-1")
        assert code == 1 and out == ""
        assert error_kind(err) == "InvalidInput"
        # A dimension above every row compares two empty diagrams.
        code, out, _ = cli("dist", "bottleneck", a, a, "--dim", "7")
        assert code == 0 and json.loads(out)["distance"] == 0.0

    def test_non_list_diagram_file_is_invalid(self, cli, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"dim": 1}))
        b.write_text(json.dumps([]))
        code, _, err = cli("dist", "bottleneck", a, b)
        assert code == 1
        assert error_kind(err) == "InvalidInput"

    @pytest.mark.parametrize(
        "row",
        [
            '{"dim": 1, "birth": NaN, "death": 1.0}',
            '{"dim": 1, "birth": Infinity, "death": null}',
            '{"dim": 1, "birth": 1.0, "death": NaN}',
            '{"dim": 1, "birth": 1.0, "death": -Infinity}',
            '{"dim": 1, "birth": 2.0, "death": 1.0}',
            "1",
            '{"dim": 1.5, "birth": 0.0, "death": 1.0}',
            '{"dim": true, "birth": 0.0, "death": 1.0}',
            '{"dim": -1, "birth": 0.0, "death": 1.0}',
            '{"dim": 1, "birth": "0.5", "death": 1.0}',
            '{"birth": 0.0, "death": 1.0}',
            '{"dim": 1, "death": 1.0}',
            '{"dim": 1, "birth": 0.0, "death": false}',
            '{"dim": 1, "birth": 0.0, "death": 1' + "0" * 400 + "}",
        ],
        ids=["nan-birth", "inf-birth", "nan-death", "minus-inf-death", "death-below-birth",
             "not-an-object", "dim-fraction", "dim-bool", "dim-negative", "birth-string",
             "missing-dim", "missing-birth", "death-bool", "death-past-float-range"],
    )
    def test_malformed_diagram_row_is_invalid(self, cli, tmp_path, row):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(f'[{{"dim": 1, "birth": 0.0, "death": 1.0}}, {row}]')
        b.write_text(json.dumps([]))
        code, out, err = cli("dist", "bottleneck", a, b, "--dim", "1")
        assert code == 1 and out == ""
        assert error_kind(err) == "InvalidInput"
        assert "row 1" in json.loads(err)["message"]

    def test_zero_length_and_null_death_rows_load(self, cli, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps([{"dim": 1, "birth": 1.0, "death": 1.0},
                                 {"dim": 1, "birth": 0.5, "death": None}]))
        b.write_text(json.dumps([{"dim": 1, "birth": 0.25, "death": None}]))
        code, out, _ = cli("dist", "bottleneck", a, b, "--dim", "1")
        assert code == 0
        assert json.loads(out)["distance"] == 0.25


class TestSynthCommand:
    def test_samples_match_library(self, cli, tmp_path):
        model = wheeze_model(1)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model.to_dict()))
        code, out, err = cli("synth", path, "--rate", "4000")
        assert code == 0 and err == ""
        assert out == signal_csv_text(synthesize(model, 4000.0))

    def test_missing_rate_is_invalid_input(self, cli, tmp_path):
        model = wheeze_model(1)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model.to_dict()))
        code, _, err = cli("synth", path)
        assert code == 1
        assert error_kind(err) == "InvalidInput"

    @pytest.mark.parametrize(
        "part, index, key, value",
        [("segments", -1, "t1", math.inf), ("segments", 0, "phase", math.nan),
         ("envelope", -1, "a", math.inf)],
        ids=["t1-inf", "phase-nan", "a-inf"],
    )
    def test_non_finite_model_number_gives_one_error_line(self, tmp_path, part, index, key, value):
        # Python's json writes and reads Infinity and NaN. A fresh process
        # shows any traceback or warning that would reach stderr.
        model = wheeze_model(1).to_dict()
        model[part][index][key] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        src = str(Path(cli_module.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "topoperiod.cli", "synth", str(path), "--rate", "4000"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert error_kind(proc.stderr) == "InvalidInput"
        assert f"({key}) must be finite" in json.loads(proc.stderr)["message"]

    @pytest.mark.parametrize(
        "reshape, message",
        [
            (lambda m: [m], "a model must be an object, not list"),
            (lambda m: {"segments": m["segments"]}, "model lacks 'envelope'"),
            (lambda m: {"envelope": m["envelope"]}, "model lacks 'segments'"),
            (lambda m: {**m, "segments": 3}, "model 'segments' must be a list"),
            (lambda m: {**m, "envelope": [1]}, "envelope breakpoint 0 must be an object"),
            (lambda m: {**m, "segments": [{k: v for k, v in m["segments"][0].items()
                                           if k != "phase"}]}, "segment 0 lacks 'phase'"),
            (lambda m: {**m, "envelope": m["envelope"][:1] + [{"t": 1.0}]},
             "envelope breakpoint 1 lacks 'a'"),
            (lambda m: {**m, "segments": [{**m["segments"][0], "period": None}]},
             "segment 0 must be an object with a number"),
            (lambda m: {**m, "segments": [{**m["segments"][0], "period": "0.025"}]},
             "segment 0 must be an object with a number"),
            (lambda m: {**m, "envelope": [{**m["envelope"][0], "a": True}]},
             "envelope breakpoint 0 must be an object with a number"),
            (lambda m: {**m, "segments": [{**m["segments"][0], "t0": False}]},
             "segment 0 must be an object with a number"),
            (lambda m: {**m, "segments": [{**m["segments"][0], "t1": m["segments"][0]["t0"]}]},
             "segment must have positive duration"),
        ],
        ids=["top-level-list", "no-envelope", "no-segments", "segments-not-list",
             "breakpoint-not-object", "segment-without-phase", "breakpoint-without-a",
             "null-period", "string-period", "bool-amplitude", "bool-t0", "empty-segment"],
    )
    def test_misshapen_model_names_the_part(self, cli, tmp_path, reshape, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(reshape(wheeze_model(1).to_dict())))
        code, out, err = cli("synth", path, "--rate", "4000")
        assert code == 1 and out == ""
        assert error_kind(err) == "InvalidInput"
        assert message in json.loads(err)["message"]


    def test_broken_phase_chain_keeps_its_kind_and_names_the_file(self, cli, tmp_path):
        model = wheeze_model(1).to_dict()
        model["segments"][1]["phase"] += 1.0
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code, out, err = cli("synth", path, "--rate", "4000")
        assert code == 1 and out == ""
        assert error_kind(err) == "PhaseConditionViolated"
        assert json.loads(err)["message"].startswith(f"{path}: phase ")


class TestFitCommand:
    def test_model_json_matches_library(self, cli, sine):
        path, s = sine
        code, out, err = cli("fit", path)
        assert code == 0 and err == ""
        assert out == json.dumps(fit_model(s).to_dict(), sort_keys=True, indent=2) + "\n"

    def test_fitted_model_round_trips_through_synth(self, cli, sine, tmp_path):
        path, s = sine
        model_path = tmp_path / "fitted.json"
        code, _, _ = cli("fit", path, "--out", model_path)
        assert code == 0
        model = PiecewiseSinusoidModel.from_dict(json.loads(model_path.read_text()))
        assert 1.0 / model.segments[0].period == pytest.approx(100.0, rel=0.02)

    def test_overflowing_envelope_slopes_give_one_error_line(self, tmp_path):
        # At 1e200 Hz the envelope breakpoints sit 4e-200 s apart, so the
        # slopes of a modulated tone's envelope overflow in synthesis,
        # though the fit holds. Fresh processes show any warning that would
        # reach stderr.
        i = np.arange(4000)
        x = (1.0 + 0.5 * np.sin(2 * np.pi * i / 997)) * np.sin(2 * np.pi * i / 40)
        path = tmp_path / "fast.csv"
        model_path = tmp_path / "fast.json"
        save_csv(Signal(x, 1e200), path)
        src = str(Path(cli_module.__file__).resolve().parents[1])

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "topoperiod.cli", *args],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=src),
            )

        proc = run("fit", str(path), "--out", str(model_path))
        assert proc.returncode == 0 and proc.stderr == ""
        model = PiecewiseSinusoidModel.from_dict(json.loads(model_path.read_text()))
        unit = fit_model(Signal(x, 4000.0))
        assert [seg.phase for seg in model.segments] == [seg.phase for seg in unit.segments]
        proc = run("synth", str(model_path), "--rate", "1e200")
        assert proc.returncode == 1 and proc.stdout == ""
        assert error_kind(proc.stderr) == "InvalidInput"
        assert "dydx" not in proc.stderr and "breakpoints" in proc.stderr


class TestDetectCommand:
    def test_report_matches_library_detect(self, cli, tmp_path):
        s = synthesize(wheeze_model(0), 4000.0)
        path = tmp_path / "wheeze.csv"
        save_csv(s, path)
        code, out, err = cli("detect", path)
        assert code == 0 and err == ""
        assert json.loads(out) == detect(s, PipelineConfig()).to_dict()

    def test_flags_are_echoed_in_report(self, cli, tmp_path):
        s = noise_signal(NOISE_SEED_FOR_CLI)
        path = tmp_path / "noise.csv"
        save_csv(s, path)
        code, out, _ = cli(
            "detect",
            path,
            "--threshold", "0.3",
            "--n", "40",
            "--seed", "9",
            "--method", "maxmin",
            "--strategy", "second-zero",
            "--delay", "11",
        )
        assert code == 0
        report = json.loads(out)
        assert report["threshold"] == 0.3
        assert report["subsample_size"] == 40
        assert report["seed"] == 9
        assert report["subsample_method"] == "maxmin"
        assert report["delay"] == 11

    def test_report_schema(self, cli, tmp_path):
        s = synthesize(wheeze_model(2), 4000.0)
        path = tmp_path / "wheeze.csv"
        save_csv(s, path)
        code, out, _ = cli("detect", path)
        assert code == 0
        report = json.loads(out)
        assert set(report) == {
            "label",
            "significance",
            "threshold",
            "delay",
            "subsample_method",
            "subsample_size",
            "seed",
            "diagram",
            "reason",
        }
        assert report["label"] == "harmonic"

    def test_stage_chain_reproduces_report_diagram(self, cli, tmp_path):
        """acl, embed, subsample, and persist compose into detect."""
        s = normalize(synthesize(wheeze_model(3), 4000.0))
        sig_path = tmp_path / "norm.csv"
        save_csv(s, sig_path)

        cloud_path = tmp_path / "cloud.csv"
        code, _, _ = cli("embed", sig_path, "--out", cloud_path)
        assert code == 0
        sub_path = tmp_path / "sub.csv"
        code, _, _ = cli(
            "subsample", cloud_path, "--n", "100", "--method", "random",
            "--seed", "0", "--out", sub_path,
        )
        assert code == 0
        code, diagram_text, _ = cli("persist", sub_path, "--max-dim", "2")
        assert code == 0
        code, report_text, _ = cli("detect", sig_path)
        assert code == 0

        def key(record):
            death = math.inf if record["death"] is None else record["death"]
            return (record["dim"], record["birth"], death)

        chained = sorted(json.loads(diagram_text), key=key)
        reported = sorted(json.loads(report_text)["diagram"], key=key)
        assert chained == reported


NOISE_SEED_FOR_CLI = 2000


_JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e-300, 0.5]),
)
_DIAGRAM_ROWS = st.lists(
    st.fixed_dictionaries(
        {"dim": st.integers(0, 3), "birth": _JSON_FLOATS, "death": st.none() | _JSON_FLOATS}
    ),
    max_size=30,
)
# Lists that look like diagrams but are not, which must take json.dumps.
_NEAR_ROWS = st.lists(
    st.fixed_dictionaries(
        {"dim": st.integers(0, 3), "birth": st.text(max_size=3) | st.lists(st.integers()),
         "death": st.none()},
        optional={"note": st.integers()},
    ),
    max_size=3,
)
_REPORTS = st.fixed_dictionaries(
    {
        "label": st.sampled_from(["harmonic", "non-harmonic", "undecidable"]),
        "significance": _JSON_FLOATS,
        "threshold": _JSON_FLOATS,
        "delay": st.none() | st.integers(1, 10**6),
        "subsample_method": st.sampled_from(["random", "maxmin"]),
        "subsample_size": st.integers(0, 1000),
        "seed": st.integers(-(2**63), 2**63),
        "diagram": _DIAGRAM_ROWS | _NEAR_ROWS,
        "reason": st.none() | st.text(),
    }
)


_MODELS = st.fixed_dictionaries(
    {
        "segments": st.lists(
            st.fixed_dictionaries(
                {"t0": _JSON_FLOATS, "t1": _JSON_FLOATS, "period": _JSON_FLOATS,
                 "phase": _JSON_FLOATS}
            ),
            max_size=5,
        ),
        "envelope": st.lists(st.fixed_dictionaries({"t": _JSON_FLOATS, "a": _JSON_FLOATS}),
                             max_size=40),
    }
)
# Strings that a compact encoding could split or quote wrongly.
_JSON_STRINGS = st.text(
    alphabet=st.sampled_from(list('ab, "\\%:[]{}\n\t\x00é€😀')), max_size=8
) | st.sampled_from(["", ", ", '", "', "%s", "%%", "}\n{", "naïve", "\u2028"])
_LABELS = st.sampled_from(["harmonic", "non-harmonic", "undecidable"])
_EVALS = st.fixed_dictionaries(
    {
        "accuracy": _JSON_FLOATS,
        "confusion": st.dictionaries(_LABELS, st.dictionaries(_LABELS, st.integers(0, 99))),
        "config": st.fixed_dictionaries(
            {"threshold": _JSON_FLOATS, "n": st.integers(0, 1000), "seed": st.integers(),
             "method": st.sampled_from(["random", "maxmin"]), "strategy": _JSON_STRINGS}
        ),
        "items": st.lists(
            st.fixed_dictionaries(
                {"label": _LABELS, "path": _JSON_STRINGS, "significance": _JSON_FLOATS,
                 "truth": _JSON_STRINGS}
            ),
            max_size=6,
        ),
    }
)
_DISTS = st.fixed_dictionaries(
    {"metric": st.sampled_from(["bottleneck", "hausdorff"]),
     "distance": st.none() | _JSON_FLOATS, "infinite": st.booleans()},
    optional={"dim": st.integers(0, 3)},
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), _JSON_FLOATS, _JSON_STRINGS,
    st.sampled_from([0, 1, True, False, -0.0, 5e-324, 1e300, -1e300, math.nan, math.inf,
                     -math.inf]),
)
_KEYS = _JSON_STRINGS | st.sampled_from(["%", "%s", "a%%b", '"', "k\"ey", "é"])
# Nested dicts, int-keyed dicts, empty containers, and lists of rows whose
# key sets differ or whose values are lists and dicts.
_ANY_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_KEYS, inner, max_size=4),
        st.dictionaries(st.integers(-3, 3), inner, max_size=3),
        st.lists(st.dictionaries(st.sampled_from(["a", "b", "%c"]), _SCALARS), max_size=4),
        st.lists(st.dictionaries(st.sampled_from([1, 2]), _SCALARS), max_size=4),
        st.lists(st.fixed_dictionaries({"a": inner, "b": _SCALARS}), max_size=4),
    ),
    max_leaves=20,
)


class TestJsonText:
    @settings(max_examples=1000, deadline=None, database=None, derandomize=True)
    @given(st.one_of(_REPORTS, _DIAGRAM_ROWS, _NEAR_ROWS, _MODELS, _EVALS, _DISTS, _ANY_JSON))
    def test_same_bytes_as_json_dumps(self, obj):
        expected = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        assert cli_module._json_text(obj) == expected

    @pytest.mark.parametrize(
        "obj",
        [
            {}, [], {"a": {}, "b": []}, [{}, {}], {1: 0}, {2: {"x": [1]}, -1: None},
            [{"a": 1}, {"b": 2}], [{"a": 1}, {"a": [2]}], [{"a%": 1, '"': "x, y"}] * 3,
            [{"a": "[b"}, {"a": "{c"}], [{"a": {"k": 1}}, {"a": {"k": 2}}],
            [{1: "x", 2: None}, {1: "y", 2: 0}], [True, 1, 0, False], {"t": (1, (2, 3))},
            [-0.0, 5e-324, 1e300, -1e300, math.nan, math.inf, -math.inf, None],
        ],
    )
    def test_edge_cases_have_json_dumps_bytes(self, obj):
        assert cli_module._json_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"

    def test_detect_and_persist_print_json_dumps_bytes(self, cli, tmp_path):
        s = synthesize(wheeze_model(0), 4000.0)
        path = tmp_path / "wheeze.csv"
        save_csv(s, path)
        report = detect(s, PipelineConfig()).to_dict()
        code, out, _ = cli("detect", path)
        assert code == 0
        assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
        sub = tmp_path / "sub.csv"
        write_cloud_csv(random_subsample(delay_embed(normalize(s), report["delay"]), 60, 0), sub)
        code, out, _ = cli("persist", sub)
        assert code == 0
        assert json.loads(out) and out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


class TestEvalCommand:
    def test_two_item_manifest_scores_perfectly(self, cli, tmp_path):
        save_csv(synthesize(wheeze_model(0), 4000.0), tmp_path / "wheeze.csv")
        save_csv(noise_signal(NOISE_SEED_FOR_CLI), tmp_path / "noise.csv")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "# path,label\n"
            "\n"
            "wheeze.csv, harmonic\n"
            "noise.csv, non-harmonic\n"
        )
        code, out, err = cli("eval", manifest)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert set(payload) == {"accuracy", "confusion", "config", "items"}
        assert payload["accuracy"] == 1.0
        assert payload["config"] == {
            "threshold": 0.15,
            "n": 100,
            "seed": 0,
            "method": "random",
            "strategy": "first-zero",
        }
        assert [item["path"] for item in payload["items"]] == [
            "wheeze.csv",
            "noise.csv",
        ]
        for item in payload["items"]:
            assert item["label"] == item["truth"]
            assert isinstance(item["significance"], float)

    def test_manifest_paths_resolve_relative_to_manifest(self, cli, tmp_path):
        nested = tmp_path / "data"
        nested.mkdir()
        save_csv(noise_signal(NOISE_SEED_FOR_CLI), nested / "noise.csv")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("data/noise.csv,non-harmonic\n")
        code, out, _ = cli("eval", manifest)
        assert code == 0
        assert json.loads(out)["accuracy"] == 1.0

    def test_missing_entry_file_reports_file_not_found(self, cli, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("ghost.csv,harmonic\n")
        code, _, err = cli("eval", manifest)
        assert code == 1
        assert error_kind(err) == "FileNotFound"

    def test_missing_entry_names_its_manifest_line(self, cli, tmp_path):
        save_csv(noise_signal(NOISE_SEED_FOR_CLI), tmp_path / "noise.csv")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("# path,label\nnoise.csv,non-harmonic\n\nmissing.csv,harmonic\n")
        code, out, err = cli("eval", manifest)
        assert code == 1 and out == ""
        report = json.loads(err)
        assert report["kind"] == "FileNotFound"
        assert report["message"].startswith(f"{manifest}:4: ")
        assert "missing.csv" in report["message"]

    def test_non_numeric_entry_names_its_manifest_line(self, cli, tmp_path):
        (tmp_path / "b.csv").write_text("0.5\nhello\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("b.csv,harmonic\n")
        code, _, err = cli("eval", manifest)
        assert code == 1
        report = json.loads(err)
        assert report["kind"] == "MalformedHeader"
        assert report["message"].startswith(f"{manifest}:1: ")
        assert report["message"].endswith("b.csv:2: not a number: 'hello'")

    def test_malformed_manifest_line_is_invalid(self, cli, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("just-a-path-without-label\n")
        code, _, err = cli("eval", manifest)
        assert code == 1
        assert error_kind(err) == "InvalidInput"

    def test_unknown_truth_label_is_invalid(self, cli, tmp_path):
        save_csv(noise_signal(NOISE_SEED_FOR_CLI), tmp_path / "noise.csv")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("noise.csv,wheeze\n")
        code, _, err = cli("eval", manifest)
        assert code == 1
        assert error_kind(err) == "InvalidInput"

    def test_label_error_comes_before_a_later_load_error(self, cli, tmp_path):
        # Each entry loads just before its detect, so line 1's unknown label
        # ends the run before line 2's missing file is opened.
        save_csv(noise_signal(NOISE_SEED_FOR_CLI), tmp_path / "noise.csv")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("noise.csv,wheeze\nmissing.csv,harmonic\n")
        code, out, err = cli("eval", manifest)
        assert code == 1 and out == ""
        assert error_kind(err) == "InvalidInput"
        assert json.loads(err)["message"] == "unknown label 'wheeze'"


class TestRenderCommand:
    def test_cloud_csv_input(self, cli, square_cloud):
        path, cloud = square_cloud
        code, out, _ = cli("render", path)
        assert code == 0
        assert out == render_svg(cloud)

    def test_diagram_json_input(self, cli, square_cloud, tmp_path):
        _, cloud = square_cloud
        diagram = persistent_homology(rips_filtration(cloud, max_dim=2))
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(diagram.to_dicts()))
        code, out, _ = cli("render", path)
        assert code == 0
        assert out == render_svg(diagram)

    def test_report_json_input_extracts_diagram(self, cli, tmp_path):
        s = synthesize(wheeze_model(0), 4000.0)
        sig_path = tmp_path / "wheeze.csv"
        save_csv(s, sig_path)
        report_path = tmp_path / "report.json"
        code, _, _ = cli("detect", sig_path, "--out", report_path)
        assert code == 0
        code, out, _ = cli("render", report_path)
        assert code == 0
        diagram = PersistenceDiagram.from_dicts(
            json.loads(report_path.read_text())["diagram"]
        )
        assert out == render_svg(diagram)

    def test_json_without_diagram_is_invalid(self, cli, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"note": "no diagram here"}))
        code, _, err = cli("render", path)
        assert code == 1
        assert error_kind(err) == "InvalidInput"


@st.composite
def _float_range_inputs(draw):
    """A signal, its rate, a cloud and a subsample size at a drawn scale.

    The signal is a tone, uniform noise or a tone whose second half has
    peaks 10^b instead of 10^k; the cloud has 1-16 points in 1-3
    dimensions, so the explicit engine stays small.
    """
    n = draw(st.integers(2, 400))
    rate = 10.0 ** draw(st.integers(-300, 300))
    kind = draw(st.sampled_from(["tone", "noise", "two-level"]))
    k = draw(st.integers(-320, 308))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "noise":
        x = rng.uniform(-1.0, 1.0, n)
    else:
        x = np.sin(2 * np.pi * rng.uniform(0.02, 0.3) * np.arange(n) + rng.uniform(0, 2 * np.pi))
    scale = np.full(n, 10.0**k)
    if kind == "two-level":
        scale[n // 2 :] = 10.0 ** draw(st.integers(-320, k))
    m = draw(st.integers(1, 16))
    points = rng.uniform(-1.0, 1.0, (m, draw(st.integers(1, 3))))
    points *= 10.0 ** draw(st.integers(-320, 308))
    return x * scale, rate, points, draw(st.integers(1, m + 2))


def _ends_cleanly(argv) -> bool:
    """Run the CLI in process: True on exit 0, else check the one error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([str(a) for a in argv])
    if code == 0:
        assert err.getvalue() == "", argv
        return True
    assert code == 1 and out.getvalue() == "", argv
    assert error_kind(err.getvalue()) != "InternalError", (argv, err.getvalue())
    return False


class TestExitCodesAndErrors:
    def test_missing_file_error_shape(self, cli, tmp_path):
        code, out, err = cli("acl", tmp_path / "absent.csv")
        assert code == 1 and out == ""
        assert error_kind(err) == "FileNotFound"

    def test_unknown_subcommand_is_usage_error(self, cli):
        code, _, _ = cli("frobnicate", "x.csv")
        assert code == 2

    def test_no_arguments_is_usage_error(self, cli):
        code, _, _ = cli()
        assert code == 2

    def test_bad_window_spec_is_usage_error(self, cli, sine):
        path, _ = sine
        for spec in ("nonsense", "a:b"):
            code, _, _ = cli("acl", path, "--window", spec)
            assert code == 2

    def test_directory_input_is_io_error(self, cli, tmp_path):
        code, out, err = cli("acl", tmp_path)
        assert code == 1 and out == ""
        assert error_kind(err) == "IOError"

    def test_out_of_range_window_is_domain_error(self, cli, sine):
        path, _ = sine
        code, _, err = cli("acl", path, "--window", "5.0:6.0")
        assert code == 1
        assert error_kind(err) == "InvalidRange"

    def test_malformed_cloud_csv(self, cli, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nthree,4.0\n")
        code, _, err = cli("persist", path)
        assert code == 1
        assert error_kind(err) == "MalformedHeader"

    def test_non_finite_csv_sample_names_its_line(self, cli, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("0.5\nnan\n-0.5\n")
        code, out, err = cli("detect", path)
        assert code == 1 and out == ""
        assert error_kind(err) == "MalformedHeader"
        assert json.loads(err)["message"] == f"{path}:2: not a number: 'nan'"

    @pytest.mark.parametrize(
        "argv",
        [["acl", "sine.csv"], ["acl", "--literal", "sine.csv"],
         ["persist", "cloud.csv"], ["dist", "hausdorff", "near.csv", "far.csv"]],
        ids=["acl", "acl-literal", "persist", "hausdorff"],
    )
    def test_overflow_is_one_error_line(self, tmp_path, argv):
        # A 100 Hz tone at 4 kHz and amplitude 1e200, whose lag sums and
        # sample-times-sum products overflow, and clouds 1e200 apart, whose
        # squared distances do. A fresh process with warnings as errors
        # shows any warning that would reach stderr.
        save_csv(Signal(1e200 * np.sin(2 * np.pi * np.arange(400) / 40), 4000.0),
                 tmp_path / "sine.csv")
        corners = [[1e200, 1e200], [-1e200, 1e200], [1e200, -1e200], [-1e200, -1e200]]
        write_cloud_csv(PointCloud(np.array(corners + [[0.0, 0.0]])), tmp_path / "cloud.csv")
        write_cloud_csv(PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]])), tmp_path / "near.csv")
        write_cloud_csv(PointCloud(np.array([[1e200, 0.0], [2e200, 0.0]])), tmp_path / "far.csv")
        src = str(Path(cli_module.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "topoperiod.cli", *argv],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="error"),
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert error_kind(proc.stderr) == "InvalidInput"

    @pytest.mark.parametrize(
        "argv",
        [["fit", "inf-rate.csv"], ["detect", "inf-rate.csv"], ["fit", "tiny-rate.csv"],
         ["synth", "model.json", "--rate", "1e308"], ["synth", "model.json", "--rate", "inf"],
         ["synth", "model.json", "--rate", "nan"]],
        ids=["fit-inf", "detect-inf", "fit-tiny", "synth-1e308", "synth-inf", "synth-nan"],
    )
    def test_bad_sample_rate_is_one_error_line(self, cli, tmp_path, monkeypatch, argv):
        # A rate of inf, or one so small that 400 samples last past the
        # largest float64, and a 4 s model whose sample index at 1e308 Hz
        # overflows. Warnings are errors, so none may reach stderr.
        tone = "\n".join(str(math.sin(2 * math.pi * i / 40)) for i in range(400)) + "\n"
        for name, rate in (("inf-rate", "inf"), ("tiny-rate", "1e-310"), ("slow", "100")):
            (tmp_path / f"{name}.csv").write_text(f"# sample_rate={rate}\n{tone}")
        monkeypatch.chdir(tmp_path)
        assert cli("fit", "slow.csv", "--out", "model.json")[0] == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = cli(*argv)
        assert code == 1 and out == ""
        assert error_kind(err) == "InvalidInput"

    @pytest.mark.parametrize("rate", ["1e-300", "1e300"])
    @pytest.mark.parametrize("command", ["fit", "detect", "acl", "embed"])
    def test_extreme_finite_sample_rate_succeeds(self, cli, tmp_path, command, rate):
        path = tmp_path / "tone.csv"
        save_csv(Signal(np.sin(2 * np.pi * np.arange(400) / 40), float(rate)), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = cli(command, path)
        assert code == 0 and out and err == ""

    @settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @given(_float_range_inputs())
    def test_every_command_ends_cleanly_across_the_float_range(self, inputs):
        # Tones, noise, two-level tones and clouds from 10^-320 to 10^308,
        # at rates from 1e-300 to 1e300: each command either succeeds or
        # ends as one JSON error line of a named kind, with no warning.
        x, rate, points, n_sub = inputs
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            d = Path(tmp)
            sig, cloud, sub = d / "sig.csv", d / "cloud.csv", d / "sub.csv"
            model, dgms = d / "model.json", [d / "d2.json", d / "d3.json"]
            sig.write_text(signal_csv_text(Signal(x, rate)))
            write_cloud_csv(PointCloud(points), cloud)
            for argv in (["acl", sig], ["acl", "--literal", sig], ["embed", sig], ["detect", sig]):
                _ends_cleanly(argv)
            if _ends_cleanly(["fit", sig, "--out", model]):
                _ends_cleanly(["synth", model, "--rate", repr(rate)])
            ok = [
                _ends_cleanly(["persist", cloud, "--out", dgms[0]]),
                _ends_cleanly(["persist", cloud, "--max-dim", "3", "--out", dgms[1]]),
            ]
            if all(ok):
                _ends_cleanly(["dist", "bottleneck", *dgms])
            if _ends_cleanly(["subsample", cloud, "--n", n_sub, "--out", sub]):
                _ends_cleanly(["dist", "hausdorff", cloud, sub])

    @pytest.mark.parametrize("block", [0, 1, 6])
    def test_bad_wav_block_align_is_one_error_line(self, cli, tmp_path, block):
        path = tmp_path / "block.wav"
        frames = np.arange(64, dtype="<i2").tobytes()
        path.write_bytes(wav_bytes(1, 1, 4000, 16, frames, block=block))
        code, out, err = cli("detect", path)
        assert code == 1 and out == ""
        assert error_kind(err) == "UnsupportedEncoding"

    def test_corrupt_json_model_is_invalid(self, cli, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        code, _, err = cli("synth", path, "--rate", "100")
        assert code == 1
        assert error_kind(err) == "InvalidInput"

    @pytest.mark.parametrize("exc", [RecursionError("maximum recursion depth exceeded"),
                                     RuntimeError("boom"), ZeroDivisionError()])
    def test_unexpected_exception_is_one_json_line(self, cli, sine, monkeypatch, exc):
        def broken(args, cfg):
            raise exc

        monkeypatch.setitem(cli_module._DISPATCH, "detect", broken)
        path, _ = sine
        code, out, err = cli("detect", path)
        assert code == 1 and out == ""
        assert error_kind(err) == "InternalError"
        assert type(exc).__name__ in json.loads(err)["message"]

    def test_help_exits_zero(self, cli):
        code, out, _ = cli("--help")
        assert code == 0
        assert "usage" in out.lower()


# The contents of a file that is not JSON, or that holds the wrong top-level
# type for its place, or an array nested past the decoder's recursion limit.
_BAD_JSON = {
    "malformed": lambda wrong: b"{not json",
    "wrong-type": lambda wrong: wrong.encode(),
    "deep-nesting": lambda wrong: b"[" * 200_000 + b"]" * 200_000,
    "not-utf8": lambda wrong: b'{"seed": "\xff"}',
}


class TestInputFiles:
    @pytest.mark.parametrize("case", list(_BAD_JSON))
    @pytest.mark.parametrize(
        "argv, wrong",
        [
            (["detect", "{sig}", "--config", "{bad}"], "[1, 2]"),
            (["dist", "bottleneck", "{bad}", "{dgm}"], '{"dim": 1}'),
            (["dist", "bottleneck", "{dgm}", "{bad}"], '"diagram"'),
            (["render", "{bad}"], "3"),
            (["synth", "{bad}", "--rate", "4000"], "[]"),
        ],
        ids=["detect-config", "bottleneck-a", "bottleneck-b", "render", "synth"],
    )
    def test_bad_json_file_is_invalid_and_named(self, cli, sine, tmp_path, argv, wrong, case):
        sig, _ = sine
        dgm = tmp_path / "dgm.json"
        dgm.write_text(json.dumps([{"dim": 1, "birth": 0.0, "death": 1.0}]))
        bad = tmp_path / "bad.json"
        bad.write_bytes(_BAD_JSON[case](wrong))
        code, out, err = cli(*(a.format(sig=sig, bad=bad, dgm=dgm) for a in argv))
        assert code == 1 and out == ""
        assert error_kind(err) == "InvalidInput"
        assert json.loads(err)["message"].startswith(f"{bad}: ")

    @pytest.mark.parametrize("command", ["detect", "persist", "eval"])
    def test_text_input_that_is_not_utf8_is_invalid_and_named(self, cli, tmp_path, command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"# sample_rate=4000 \xff\n0.5\n-0.5\n")
        if command == "eval":
            (tmp_path / "noise.csv").write_text("0.5\n-0.5\n")
            bad.write_bytes(b"noise.csv,harmonic\n\xff,harmonic\n")
        code, out, err = cli(command, bad)
        assert code == 1 and out == ""
        assert error_kind(err) == "InvalidInput"
        assert json.loads(err)["message"].startswith(f"{bad}: 'utf-8' codec")


class TestOptionResolution:
    def _detect_seed(self, cli, tmp_path, *extra):
        s = noise_signal(NOISE_SEED_FOR_CLI, n=400)
        path = tmp_path / "sig.csv"
        save_csv(s, path)
        code, out, _ = cli("detect", path, *extra)
        assert code == 0
        return json.loads(out)["seed"]

    def test_builtin_seed_default(self, cli, tmp_path):
        assert self._detect_seed(cli, tmp_path) == 0

    def test_environment_overrides_builtin(self, cli, tmp_path, monkeypatch):
        monkeypatch.setenv("TOPOPERIOD_SEED", "7")
        assert self._detect_seed(cli, tmp_path) == 7

    def test_config_overrides_environment(self, cli, tmp_path, monkeypatch):
        monkeypatch.setenv("TOPOPERIOD_SEED", "7")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5}))
        assert self._detect_seed(cli, tmp_path, "--config", config) == 5

    def test_flag_overrides_config(self, cli, tmp_path, monkeypatch):
        monkeypatch.setenv("TOPOPERIOD_SEED", "7")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5}))
        seed = self._detect_seed(cli, tmp_path, "--config", config, "--seed", "3")
        assert seed == 3

    def test_bad_environment_seed_is_invalid(self, cli, tmp_path, monkeypatch):
        monkeypatch.setenv("TOPOPERIOD_SEED", "not-a-number")
        s = noise_signal(NOISE_SEED_FOR_CLI, n=400)
        path = tmp_path / "sig.csv"
        save_csv(s, path)
        code, _, err = cli("detect", path)
        assert code == 1
        assert error_kind(err) == "InvalidInput"

    def test_config_supplies_non_seed_options(self, cli, tmp_path):
        s = noise_signal(NOISE_SEED_FOR_CLI, n=400)
        path = tmp_path / "sig.csv"
        save_csv(s, path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 50, "method": "maxmin"}))
        code, out, _ = cli("detect", path, "--config", config)
        assert code == 0
        report = json.loads(out)
        assert report["subsample_size"] == 50
        assert report["subsample_method"] == "maxmin"

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("synth", '{"rate": 1' + "0" * 400 + "}", "rate"),
            ("detect", '{"threshold": 1' + "0" * 400 + "}", "threshold"),
            ("detect", '{"n": 1e400}', "n"),
            ("detect", '{"n": 40.7}', "n"),
            ("detect", '{"n": 100.0}', "n"),
            ("detect", '{"seed": 1.9}', "seed"),
            ("detect", '{"n": true}', "n"),
            ("detect", '{"threshold": true}', "threshold"),
            ("detect", '{"delay": 9.9}', "delay"),
            ("subsample", '{"n": 40.5}', "n"),
            ("embed", '{"delay": 9.9}', "delay"),
            ("persist", '{"max_eps": "abc"}', "max_eps"),
        ],
        ids=["huge-rate", "huge-threshold", "inf-n", "fraction-n", "float-n", "fraction-seed",
             "bool-n", "bool-threshold", "fraction-delay", "subsample-fraction-n",
             "embed-fraction-delay", "persist-text-max-eps"],
    )
    def test_config_value_its_flag_rejects_is_invalid(self, cli, tmp_path, sine, command,
                                                       text, key):
        # A config value is read as the text its flag would be given.
        path, s = sine
        if command == "synth":
            path = tmp_path / "model.json"
            path.write_text(json.dumps(wheeze_model(1).to_dict()))
        elif command in ("subsample", "persist"):
            path = tmp_path / "cloud.csv"
            write_cloud_csv(delay_embed(s, 10, 2), path)
        config = tmp_path / "config.json"
        config.write_text(text)
        code, out, err = cli(command, path, "--config", config)
        assert code == 1 and out == ""
        assert error_kind(err) == "InvalidInput"
        assert key in json.loads(err)["message"]

    @pytest.mark.parametrize(
        "command, flag, value",
        [("embed", "--delay", "9.9"), ("persist", "--max-eps", "abc")],
        ids=["embed-delay", "persist-max-eps"],
    )
    def test_flag_text_that_does_not_cast_names_the_flag(self, cli, tmp_path, sine, command,
                                                         flag, value):
        path, s = sine
        if command == "persist":
            path = tmp_path / "cloud.csv"
            write_cloud_csv(delay_embed(s, 10, 2), path)
        code, out, err = cli(command, path, flag, value)
        assert code == 1 and out == ""
        assert error_kind(err) == "InvalidInput"
        assert json.loads(err)["message"].startswith(f"{flag}: ")
        assert repr(value) in json.loads(err)["message"]

    def test_config_values_give_the_flags_bytes(self, cli, tmp_path, sine):
        path, _ = sine
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"n": 50, "seed": 3, "threshold": 0.3, "delay": 9, "method": "maxmin",
             "strategy": None}
        ))
        flags = ("--n", "50", "--seed", "3", "--threshold", "0.3", "--delay", "9",
                 "--method", "maxmin")
        assert cli("detect", path, "--config", config) == cli("detect", path, *flags)

    def test_non_object_config_is_invalid(self, cli, tmp_path, sine):
        path, _ = sine
        config = tmp_path / "config.json"
        config.write_text(json.dumps([1, 2, 3]))
        code, _, err = cli("acl", path, "--config", config)
        assert code == 1
        assert error_kind(err) == "InvalidInput"


class TestParserReuse:
    def test_in_process_calls_match_fresh_processes(self, cli, sine, tmp_path):
        # The parser is built once per process; a usage error must leave
        # nothing behind that changes a later call's output.
        path, _ = sine
        calls = [
            ("acl", path, "--window", "nonsense"),
            ("fit", path),
            ("acl", path, "--window", "0.0:0.05"),
        ]
        src = str(Path(cli_module.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        codes = []
        for argv in calls:
            fresh = subprocess.run(
                [sys.executable, "-m", "topoperiod.cli", *map(str, argv)],
                capture_output=True,
                text=True,
                env=env,
                cwd=tmp_path,
            )
            assert cli(*argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
            codes.append(fresh.returncode)
        assert codes == [2, 0, 0]
        assert cli_module._build_parser() is cli_module._build_parser()


# Runs in a fresh interpreter, so the modules it reports are the ones the
# commands themselves import.
_FOOTPRINT_SCRIPT = """
import json, sys
from fixtures import noise_signal, reference_signal
from topoperiod import save_csv
from topoperiod.cli import run
save_csv(reference_signal(), "sig.csv")
save_csv(noise_signal(2000), "noise.csv")
with open("manifest.csv", "w") as f:
    f.write("sig.csv,harmonic\\nnoise.csv,non-harmonic\\n")
calls = [
    ["acl", "sig.csv", "--out", "acl.csv"],
    ["detect", "sig.csv", "--out", "report.json"],
    ["eval", "manifest.csv", "--out", "eval.json"],
    ["embed", "sig.csv", "--out", "cloud.csv"],
    ["subsample", "cloud.csv", "--n", "30", "--out", "sub.csv"],
    ["subsample", "cloud.csv", "--n", "30", "--method", "random", "--out", "rsub.csv"],
    ["persist", "sub.csv", "--out", "dgm.json", "--render", "dgm.svg"],
    ["persist", "sub.csv", "--max-dim", "3", "--out", "dgm3.json"],
    ["render", "report.json", "--out", "report.svg"],
    ["render", "sub.csv", "--out", "cloud.svg"],
    ["fit", "sig.csv", "--out", "model.json"],
    ["synth", "model.json", "--rate", "4000", "--out", "resynth.csv"],
    ["dist", "bottleneck", "dgm.json", "dgm3.json", "--dim", "1", "--out", "dist.json"],
    ["dist", "hausdorff", "sub.csv", "rsub.csv", "--out", "hdist.json"],
]
codes = [run(argv) for argv in calls]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


class TestImportFootprint:
    def test_commands_load_no_scipy(self, tmp_path):
        # scipy is needed only for the k-d tree of a Hausdorff pair above
        # the brute-force fork, so a small dist hausdorff loads none; PCHIP
        # envelopes are evaluated in numpy.
        src = Path(cli_module.__file__).resolve().parents[1]
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
        proc = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["codes"] == [0] * 14
        assert result["scipy"] == []


class TestDeterminism:
    def test_detect_is_byte_identical_across_runs(self, cli, tmp_path):
        s = synthesize(wheeze_model(1), 4000.0)
        path = tmp_path / "wheeze.csv"
        save_csv(s, path)
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        assert cli("detect", path, "--out", first)[0] == 0
        assert cli("detect", path, "--out", second)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_persist_and_render_are_byte_identical(self, cli, square_cloud, tmp_path):
        path, _ = square_cloud
        outs = []
        svgs = []
        for tag in ("1", "2"):
            diagram_path = tmp_path / f"d{tag}.json"
            svg_path = tmp_path / f"b{tag}.svg"
            assert cli(
                "persist", path, "--out", diagram_path, "--render", svg_path
            )[0] == 0
            outs.append(diagram_path.read_bytes())
            svgs.append(svg_path.read_bytes())
        assert outs[0] == outs[1]
        assert svgs[0] == svgs[1]
