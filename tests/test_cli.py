"""End-to-end checks of the command-line interface.

Each subcommand runs through ``run`` against temporary files and its
output is compared with the library call it wraps, which keeps the CLI a
thin shell over the public API. Exit codes, the JSON error channel on
stderr, option precedence, and byte determinism are covered here too.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
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
        ],
        ids=["nan-birth", "inf-birth", "nan-death", "minus-inf-death", "death-below-birth",
             "not-an-object"],
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


class TestFitCommand:
    def test_model_json_matches_library(self, cli, sine):
        path, s = sine
        code, out, err = cli("fit", path)
        assert code == 0 and err == ""
        assert json.loads(out) == fit_model(s).to_dict()

    def test_fitted_model_round_trips_through_synth(self, cli, sine, tmp_path):
        path, s = sine
        model_path = tmp_path / "fitted.json"
        code, _, _ = cli("fit", path, "--out", model_path)
        assert code == 0
        model = PiecewiseSinusoidModel.from_dict(json.loads(model_path.read_text()))
        assert 1.0 / model.segments[0].period == pytest.approx(100.0, rel=0.02)

    def test_overflowing_envelope_slopes_give_one_error_line(self, tmp_path):
        # At 1e200 Hz the envelope breakpoints sit 4e-200 s apart, so the
        # slopes of a modulated tone overflow. A fresh process shows any
        # warning that would reach stderr.
        i = np.arange(4000)
        x = (1.0 + 0.5 * np.sin(2 * np.pi * i / 997)) * np.sin(2 * np.pi * i / 40)
        path = tmp_path / "fast.csv"
        save_csv(Signal(x, 1e200), path)
        src = str(Path(cli_module.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "topoperiod.cli", "fit", str(path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
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


class TestJsonText:
    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(st.one_of(_REPORTS, _DIAGRAM_ROWS, _NEAR_ROWS))
    def test_same_bytes_as_json_dumps(self, obj):
        expected = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        assert cli_module._json_text(obj) == expected

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
        code, _, _ = cli("acl", path, "--window", "nonsense")
        assert code == 2

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
        [["acl", "sine.csv"], ["acl", "--literal", "sine.csv"], ["embed", "sine.csv"],
         ["persist", "cloud.csv"], ["dist", "hausdorff", "near.csv", "far.csv"]],
        ids=["acl", "acl-literal", "embed", "persist", "hausdorff"],
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
]
codes = [run(argv) for argv in calls]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


class TestImportFootprint:
    def test_detect_path_loads_no_scipy(self, tmp_path):
        # scipy is needed only for fitting and synthesis (PCHIP envelopes)
        # and for the k-d tree of a large Hausdorff pair.
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
        assert result["codes"] == [0] * 10
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
