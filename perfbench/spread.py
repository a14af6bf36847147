"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload wav-44k --seeds 0-9 [--record]

Spread is the distance between the first and third quartiles of the
per-run values (statistics.quantiles, n=4) as a share of their median,
the rule BENCHMARK.json's bounds are checked against. Runs happen one
after another, from the root of a source checkout. --record stores the
canary digest and each run's seed digest in digests.json, as the code
under test computes them: record only from code whose answers are right.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    """"1-10" is seeds 1 to 10; "3x5" is seed 3 five times."""
    if "x" in text:
        seed, _, times = text.partition("x")
        return [int(seed)] * int(times)
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, required=True, help='"0-9", or "3x5" for seed 3 five times')
    p.add_argument("--record", action="store_true")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    digests: dict[str, str] = {}
    canary = None
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        match = re.search(r"^# digest ([0-9a-f]{64})", proc.stdout, re.M)
        if match:
            digests[str(seed)] = match.group(1)
        match = re.search(r"^# canary digest ([0-9a-f]{64})", proc.stdout, re.M)
        if match:
            canary = match.group(1)
        print(f"seed {seed}: wall {wall:.1f} s, correct {result['correct']}, "
              f"attempted {result['attempted']}, failed {result['failed']}", flush=True)

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        verdict = "ok" if spread < bound / 3 else "WIDE" if spread <= bound else "OVER"
        print(f"{name:32s} median {med:.6g}  spread {spread:.4f}  bound {bound}  {verdict}  "
              f"[{' '.join(f'{v:.4g}' for v in vals)}]")

    if args.record:
        path = HERE / "digests.json"
        recorded = json.loads(path.read_text())
        entry = recorded.setdefault(args.workload, {})
        if canary is not None:
            entry["canary"] = canary
        entry["seeds"] = {**entry.get("seeds", {}), **digests}
        path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
