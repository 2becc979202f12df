#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 e2ebench/spread.py --seeds 1-10 [--workload graph_trickle ...] [--out FILE]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
and reports for each metric the median of its values and the distance
between their first and third quartiles (``statistics.quantiles(n=4)``)
as a share of the median, beside the metric's bound from
``BENCHMARK.json``.  Exits 1 when a run fails or a spread (``setup_s``
excepted) exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    report, ok = {}, True
    for workload in workloads:
        values, runs = {}, []
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", f"{args.seconds:g}", "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode or result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED\n{proc.stdout}{proc.stderr}")
                continue
            runs.append({"seed": seed, "wall_s": time.perf_counter() - t0,
                         "host": [ln for ln in lines if ln.startswith("host.")],
                         "metrics": {k: m["value"] for k, m in result["metrics"].items()}})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {runs[-1]['wall_s']:.1f} s "
                  + " ".join(f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        summary = {}
        for name, xs in values.items():
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4) if len(xs) >= 2 else [med, med, med]
            spread = (q[2] - q[0]) / med
            summary[name] = {"median": med, "q1": q[0], "q3": q[2],
                             "spread": spread, "bound": bounds[name]}
            if name != "setup_s" and spread > bounds[name]:
                ok = False
            print(f"  {name:16s} median {med:11.5g}  spread {spread:.4f}  "
                  f"bound {bounds[name]}")
        report[workload] = {"summary": summary, "runs": runs}
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
