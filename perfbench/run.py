"""Closed-loop benchmark of the topoperiod pipeline.

    python3 perfbench/run.py --workload wav-44k --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. One client in one process sends
the next op only after the previous one has finished; BLAS and OpenMP
are capped at one thread. Set-up writes the workload's inputs, made from
--seed, under .perfbench_work/. The loop then runs ops for --seconds, and
always at least one pass over the inputs. Set-up is repeated between
ops and after the loop, at least three times in all; the median is
setup_s. Every op's output is checked against a
reference computed by the code under test. The references are checked
in turn against digests.json: the canary digest, of the first few inputs
of seed 0, in every run, and this seed's digest of all its inputs when
one is recorded. A digest that differs, or a missing canary, fails every
op of the run.

--trace 0 prints the end-to-end metrics. --trace 1 alternates each
untraced op with the same op traced, with probes around the package
functions it calls, prints the per-layer metrics, and writes the spans
to .perfbench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it start with "#".
"""

from __future__ import annotations

import os

# Thread caps must be in place before numpy loads its BLAS.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"
# The CLI reads its default seed from here; the benchmark's ops must not.
os.environ.pop("TOPOPERIOD_SEED", None)

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import stats
from tracing import Tracer, cpu_clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up runs once before the loop, again between ops while all set-ups
# together have used under SETUP_SHARE of the loop's time so far, and
# after the loop until there are SETUPS; at most SETUP_MAX in all. Spread
# over the run, their median sees the same fast and slow stretches of the
# machine as the ops do.
SETUPS = 3
SETUP_SHARE = 0.1
SETUP_MAX = 20
# Every run checks the references of the first CANARY_ITEMS inputs of
# CANARY_SEED against the digest recorded for them, whatever its --seed.
CANARY_SEED = 0
CANARY_ITEMS = 3
# A first pass over the inputs stops here even if it is not complete, so
# the process ends well within three minutes.
FIRST_PASS_CAP_S = 100.0

LAYER_TIMES = (
    "signal_io.load",
    "embedding.acl",
    "embedding.select_delay",
    "embedding.delay_embed",
    "embedding.diameter",
    "subsampling.subsample",
    "persistence.h1_diagram",
    "detector.detect",
    "cli.serialize",
    "model.fit_model",
    "model.synthesize",
    "metrics.hausdorff",
    "metrics.bottleneck",
)
LAYER_COUNTS = (
    "embedding.acl_lags",
    "embedding.cloud_points",
    "subsampling.landmarks",
    "persistence.h1_bars",
    "cli.report_bytes",
    "model.segments",
    "metrics.bottleneck_intervals",
)


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def closed_loop(n_items: int, step: Callable[[int], None], seconds: float) -> LoopResult:
    """Call step(0), step(1), ... one after another.

    Runs until ``seconds`` have passed and at least ``n_items`` steps are
    done. A step that raises is counted as failed and the loop goes on.
    """
    res = LoopResult()
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (i >= n_items or elapsed >= FIRST_PASS_CAP_S):
            break
        res.attempted += 1
        try:
            step(i)
        except Exception as exc:  # one bad op must not end the run
            res.failed += 1
            res.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        i += 1
    return res


def digest(outputs: list[str | None]) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(b"\0" if out is None else out.encode())
        h.update(b"\n")
    return h.hexdigest()


def main(argv: list[str]) -> int:
    src = ROOT / "src"
    if not (src / "topoperiod" / "__init__.py").is_file():
        print(f"perfbench: no topoperiod sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from workloads import WORKLOADS, OpFailed, fresh_dir, spot_check

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    w = WORKLOADS[args.workload]
    work = fresh_dir(ROOT / ".perfbench_work" / f"{w.name}-{args.seed}")
    setup_times: list[float] = []

    def set_up(dest: Path) -> list:
        fresh_dir(dest)
        t0 = cpu_clock()
        made = w.setup(dest, args.seed)
        setup_times.append(cpu_clock() - t0)
        return made

    items = set_up(work / "in")
    outdir = fresh_dir(work / "out")

    ref_errors: list[str] = []
    refs = _references(w, items, ref_errors)
    canary = w.setup(fresh_dir(work / "canary"), CANARY_SEED, CANARY_ITEMS)
    canary_got = digest(_references(w, canary, ref_errors))
    got = digest(refs)
    recorded = json.loads((HERE / "digests.json").read_text()).get(w.name, {})
    canary_want = recorded.get("canary")
    want = recorded.get("seeds", {}).get(str(args.seed))
    answers_ok = canary_got == canary_want and want in (None, got)

    untraced: list[float] = []
    traced: list[float] = []
    wall: list[float] = []
    op_item: dict[int, int] = {}
    tracer = Tracer()
    n = len(items)

    def run_op(i: int, idx: int, trace: bool) -> None:
        if refs[idx] is None:
            raise OpFailed(f"no reference for {items[idx].path.name}")
        out = outdir / f"out{idx:03d}.json"
        out.unlink(missing_ok=True)
        if trace:
            tracer.begin_op(i)
            op_item[i] = idx
            with tracer.installed(w.probes):
                t0 = cpu_clock()
                with tracer.span("op"):
                    w.op(items[idx], out)
                dt = cpu_clock() - t0
        else:
            t0, w0 = cpu_clock(), time.perf_counter()
            w.op(items[idx], out)
            dt = cpu_clock() - t0
            wall.append(time.perf_counter() - w0)
        if out.read_text() != refs[idx]:
            raise OpFailed(f"output for {items[idx].path.name} differs from its reference")
        if not answers_ok:
            raise OpFailed("the references differ from the recorded digests")
        (traced if trace else untraced).append(dt)

    def step(i: int) -> None:
        loop_s = time.perf_counter() - loop_start
        if len(setup_times) < SETUP_MAX and sum(setup_times) < SETUP_SHARE * loop_s:
            set_up(work / "again")
        if args.trace:
            run_op(i, (i // 2) % n, i % 2 == 1)
        else:
            run_op(i, i % n, False)

    rss_before_mb = _peak_rss_mb()
    loop_start = time.perf_counter()
    loop = closed_loop(2 * n if args.trace else n, step, args.seconds)
    peak_rss_mb = _peak_rss_mb()
    while len(setup_times) < SETUPS:
        set_up(work / "again")

    spot_ok, spot_note = spot_check(items)
    accuracy = sum(
        1 for it, ref in zip(items, refs)
        if ref is not None and json.loads(ref)["label"] == it.truth
    ) / n

    print(f"# workload {w.name} seed {args.seed}: {n} inputs, {loop.attempted} ops, "
          f"{loop.failed} failed, set-up runs {[round(t, 4) for t in setup_times]}")
    print(f"# canary digest {canary_got} " + (
        "matches" if canary_got == canary_want else f"MISMATCH, recorded {canary_want}"))
    print(f"# digest {got} " + (
        "(none recorded for this seed)" if want is None
        else "matches" if want == got else f"MISMATCH, recorded {want}"))
    print(f"# reference-engine spot check: {spot_note}")
    for err in (ref_errors + loop.errors)[:10]:
        print(f"# error: {err}")

    if args.trace:
        metrics = _layer_metrics(tracer, op_item, traced, untraced)
        print("# share of traced op time: " + _shares(tracer))
        tracer.write(_spans_path(w.name, args.seed))
    else:
        lat = untraced or [0.0]
        p, tail_v, beyond = stats.tail(lat)
        print(f"# latency_tail_s is p{p} of {len(untraced)} samples, {beyond} beyond it; "
              f"wall-clock p50 {stats.median(wall or [0.0]):.4f} s; "
              f"peak resident set {rss_before_mb:.1f} MB before the loop")
        metrics = {
            "setup_s": (stats.median(setup_times), "s"),
            "latency_p50_s": (stats.median(lat), "s"),
            "latency_tail_s": (tail_v, "s"),
            "throughput_ops_per_s": (len(untraced) / sum(lat) if sum(lat) else 0.0, "1/s"),
            "accuracy": (accuracy, "frac"),
            "ok_frac": (1.0 - loop.failed / loop.attempted, "frac"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    shutil.rmtree(work)
    print(json.dumps({
        "correct": loop.failed == 0 and not ref_errors and spot_ok and answers_ok,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _references(w, items, errors: list[str]) -> list[str | None]:
    """Each input's reference output; None, with a note in errors, where it raised."""
    refs: list[str | None] = []
    for it in items:
        try:
            refs.append(w.reference(it))
        except Exception as exc:  # counted against every op on this input
            refs.append(None)
            errors.append(f"reference {it.path.name}: {type(exc).__name__}: {exc}")
    return refs


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _spans_path(workload: str, seed: int) -> Path:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    return out / f"spans-{workload}-{seed}.jsonl"


def _shares(tracer: Tracer) -> str:
    """Each layer's self time summed over all traced ops, as a share of their total.

    "op" is the op's own code between the calls the probes time.
    """
    totals: dict[str, float] = {}
    for per_op in tracer.self_times().values():
        for layer, t in per_op.items():
            totals[layer] = totals.get(layer, 0.0) + t
    whole = sum(totals.values()) or 1.0
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])
    return ", ".join(f"{layer} {t / whole:.1%}" for layer, t in ranked)


def _layer_metrics(tracer: Tracer, op_item, traced, untraced) -> dict:
    """Median self time per traced op for each layer, median count per input."""
    self_times = tracer.self_times()
    metrics = {}
    for layer in LAYER_TIMES:
        per_op = [t.get(layer, 0.0) for t in self_times.values()] or [0.0]
        metrics[f"{layer}_s"] = (stats.median(per_op), "s")
    per_item: dict[int, dict[str, int]] = {}
    for op, counts in tracer.counts().items():
        per_item.setdefault(op_item[op], counts)
    for name in LAYER_COUNTS:
        per_input = [float(c.get(name, 0)) for c in per_item.values()] or [0.0]
        metrics[name] = (stats.median(per_input), "count")
    if traced and untraced:
        overhead = stats.median(traced) / stats.median(untraced) - 1.0
    else:
        overhead = 0.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
