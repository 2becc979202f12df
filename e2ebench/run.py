#!/usr/bin/env python3
"""End-to-end benchmark of the k-core maintenance stack.

    python3 e2ebench/run.py --workload graph_trickle --seed 1 --seconds 20 --trace 0

Run from the repository root.  Builds its inputs from ``--seed``, runs the
workload's closed loop in whole cycles for ``--seconds`` (and at least
three cycles), checks every answer against the ``peel`` oracle, prints one
``name = value unit`` line per metric and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
traced run.  ``--out FILE`` also writes the full record (host probe,
sample counts, gate failures) as JSON.  See e2ebench/README.md.

Exit status: 0 when every gate passed, 1 when a gate failed (the result
line is still printed), 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import os
import sys

# Fixed hash seed and single-threaded BLAS/OpenMP, set before NumPy is
# imported: re-execute this same process image once with them in place.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _pin_environment() -> None:
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    env = dict(os.environ, **PINNED_ENV)
    os.execve(sys.executable,
              [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)


def result_of(record: dict, trace: bool, probe: dict) -> dict:
    """The result line: every end-to-end metric, or with ``trace`` every
    per-layer one (the host probe included), each with its unit."""
    from workloads import END_TO_END, PER_LAYER

    if trace:
        values = dict(record["layers"])
        values["host.py_loop_ms"] = probe["py_loop_ms"]
        values["host.np_loop_ms"] = probe["np_loop_ms"]
    else:
        values = record["metrics"]
    names = PER_LAYER if trace else END_TO_END
    return {
        "correct": not record["gate_failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }


def main(argv=None) -> int:
    import argparse
    import json
    import shutil
    import traceback
    from pathlib import Path

    here = Path(__file__).resolve().parent
    root = here.parent
    src = root / "src"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no library source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(here))
    from harness import host_probe
    from workloads import END_TO_END, PER_LAYER, SPECS, run_workload

    if args.workload not in SPECS:
        print(f"e2ebench: unknown workload {args.workload!r}; "
              f"choose from {sorted(SPECS)}", file=sys.stderr)
        return 2
    spec = SPECS[args.workload]
    workdir = root / ".bench_work" / f"{spec.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        probe_before = host_probe()
        record = run_workload(spec, args.seed, args.seconds, bool(args.trace),
                              workdir)
        probe_after = host_probe()
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it holds leftovers

    probe = {k: (probe_before[k] + probe_after[k]) / 2 for k in probe_before}
    result = result_of(record, bool(args.trace), probe)

    print(f"# e2ebench {spec.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, unit in END_TO_END:
        print(f"{name} = {record['metrics'][name]:.6g} {unit}")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"{name} = {result['metrics'][name]['value']:.6g} {unit}")
    print(f"error_rate = {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']} operations)")
    for key, val in record["samples"].items():
        print(f"samples.{key} = {val:.6g}")
    for when, p in (("before", probe_before), ("after", probe_after)):
        print(f"host.{when} = py_loop {p['py_loop_ms']:.3f} ms, "
              f"np_loop {p['np_loop_ms']:.3f} ms")
    for failure in record["gate_failures"]:
        print(f"GATE FAILED: {failure}")
    if args.out is not None:
        full = dict(result, workload=spec.name, seed=args.seed,
                    seconds=args.seconds, trace=args.trace,
                    end_to_end=record["metrics"], samples=record["samples"],
                    series=record["series"],
                    gate_failures=record["gate_failures"],
                    host_probe={"before": probe_before, "after": probe_after})
        if args.trace:
            full["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(full, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    _pin_environment()
    sys.exit(main())
