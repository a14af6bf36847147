"""Tests of the benchmark itself: inputs, the tail rule, failure counting, output.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import stats  # noqa: E402
from tracing import Probe, Tracer  # noqa: E402
from workloads import WORKLOADS, Item, OpFailed  # noqa: E402

from topoperiod import cli, detector  # noqa: E402
from topoperiod.subsampling import SplitMix64  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _pool_bytes(name: str, seed: int) -> list[bytes]:
    return [sig.samples.tobytes() for sig, _ in WORKLOADS[name].pool(SplitMix64(seed))]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_signals_other_seed_different(name):
    first = _pool_bytes(name, 7)
    assert first == _pool_bytes(name, 7)
    other = _pool_bytes(name, 8)
    assert len(other) == len(first)
    assert all(a != b for a, b in zip(first, other))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_setup_files_are_byte_identical_per_seed(name, tmp_path):
    def files(seed: int, sub: str) -> dict[str, bytes]:
        d = tmp_path / sub
        d.mkdir()
        WORKLOADS[name].setup(d, seed, limit=4)
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    a, b, c = files(3, "a"), files(3, "b"), files(4, "c")
    assert a == b
    assert a.keys() == c.keys()
    assert all(a[k] != c[k] for k in a)


def test_tail_is_highest_percentile_with_ten_beyond():
    p, value, beyond = stats.tail([float(x) for x in range(1, 101)])
    assert (p, beyond) == (90, 10)
    assert value == pytest.approx(90.1)
    # 91st percentile would leave only 9 samples above it.
    assert sum(1 for x in range(1, 101) if x > stats.percentile(list(range(1, 101)), 91)) == 9

    p, value, beyond = stats.tail([float(x) for x in range(1, 21)])
    assert (p, beyond) == (52, 10)


def test_tail_falls_back_to_median_when_samples_are_few_or_tied():
    assert stats.tail([float(x) for x in range(1, 12)]) == (50, 6.0, 5)
    assert stats.tail([2.0] * 40) == (50, 2.0, 0)


def test_missing_file_and_raised_error_count_as_failed_and_loop_goes_on(tmp_path):
    w = WORKLOADS["wav-44k"]
    (good,) = w.setup(tmp_path, 1, limit=1)
    items = [good, Item(tmp_path / "missing.wav", "harmonic"), None]
    done = []

    def step(i: int) -> None:
        item = items[i % 3]
        if item is None:
            raise RuntimeError("boom")
        w.op(item, tmp_path / "out.json")
        done.append(i)

    res = run.closed_loop(3, step, seconds=0.0)
    assert (res.attempted, res.failed) == (3, 2)
    assert done == [0]
    assert "OpFailed" in res.errors[0] and "RuntimeError" in res.errors[1]


def test_op_on_missing_file_raises_op_failed(tmp_path):
    with pytest.raises(OpFailed):
        WORKLOADS["wav-44k"].op(Item(tmp_path / "nope.wav", "harmonic"), tmp_path / "o.json")


def test_traced_op_times_the_functions_detect_calls(tmp_path):
    w = WORKLOADS["wav-44k"]
    (item,) = w.setup(tmp_path, 1, limit=1)
    originals = {p.attr: vars(p.owner)[p.attr] for p in w.probes}
    tracer = Tracer()
    tracer.begin_op(0)
    with tracer.installed(w.probes):
        w.op(item, tmp_path / "out.json")
    assert {p.attr: vars(p.owner)[p.attr] for p in w.probes} == originals

    spans = {sp.name: sp for sp in tracer.spans}
    assert set(spans) == {
        "signal_io.load", "detector.detect", "embedding.acl", "embedding.select_delay",
        "embedding.delay_embed", "subsampling.subsample", "embedding.diameter",
        "persistence.h1_diagram", "cli.serialize",
    }
    detect_span = tracer.spans.index(spans["detector.detect"])
    assert spans["persistence.h1_diagram"].parent == detect_span
    report = json.loads((tmp_path / "out.json").read_text())
    counts = tracer.counts()[0]
    assert counts["persistence.h1_bars"] == sum(1 for iv in report["diagram"] if iv["dim"] == 1)
    assert counts["subsampling.landmarks"] == report["subsample_size"]
    assert counts["cli.report_bytes"] == len((tmp_path / "out.json").read_bytes())


def test_a_function_the_op_no_longer_calls_reads_zero(tmp_path):
    w = WORKLOADS["wav-44k"]
    (item,) = w.setup(tmp_path, 1, limit=1)
    probes = (*w.probes, Probe(detector, "no_such_stage", "embedding.gone"))
    tracer = Tracer()
    with tracer.installed(probes):
        w.op(item, tmp_path / "out.json")
    assert "no_such_stage" not in vars(detector)
    assert all(sp.name != "embedding.gone" for sp in tracer.spans)
    assert vars(cli)["detect"] is detector.detect


def test_digest_mismatch_fails_every_op_on_an_unrecorded_seed(tmp_path):
    shutil.copytree(ROOT / "src" / "topoperiod", tmp_path / "src" / "topoperiod",
                    ignore=shutil.ignore_patterns("__pycache__"))
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_bytes(f.read_bytes())
    digests = json.loads((BENCH / "digests.json").read_text())
    digests["wav-44k"]["canary"] = "0" * 64
    (copy / "digests.json").write_text(json.dumps(digests))
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "wav-44k", "--seed", "12345",
         "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_frac"]["value"] == 0.0


@pytest.fixture(scope="module")
def bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_exactly_the_declared_ones(bench, trace, kind):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "wav-44k", "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    assert all(line.startswith("#") for line in lines[:-1])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in bench[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(NAME.match(k) for k in result["metrics"])


def test_declared_names_are_well_formed(bench):
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in bench[kind]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "wav-44k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
