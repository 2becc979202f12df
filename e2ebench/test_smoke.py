"""Smoke test of the end-to-end benchmark at tiny sizes.

    python3 -m pytest e2ebench/test_smoke.py

Checks that every workload passes its gates and emits every metric
``BENCHMARK.json`` names, with its unit, in both modes; that a corrupted
kappa trips the oracle gate; and that the benchmark refuses to run
without the library source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from harness import host_probe  # noqa: E402
from run import result_of  # noqa: E402
from workloads import END_TO_END, PER_LAYER, SPECS, run_workload, tiny  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_contract_lists_match_the_code():
    # every workload the contract runs exists; hyper_served is kept for
    # manual runs only (see README: the run-time budget holds two)
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(SPECS)
    assert [(m["name"], m["unit"]) for m in CONTRACT["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in CONTRACT["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(SPECS))
def test_every_metric_with_its_unit(workload, trace, tmp_path):
    record = run_workload(tiny(SPECS[workload]), 3, 0.1, trace, tmp_path)
    assert record["gate_failures"] == []
    result = result_of(record, trace, host_probe(reps=1))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = CONTRACT["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name
    json.dumps(result)


@pytest.mark.parametrize("workload", list(SPECS))
def test_corrupted_kappa_trips_the_oracle_gate(workload, tmp_path):
    def corrupt(kappa):
        v = next(iter(kappa))
        return {**kappa, v: kappa[v] + 1}

    record = run_workload(tiny(SPECS[workload]), 5, 0.1, False, tmp_path,
                          corrupt_kappa=corrupt)
    assert record["failed"] >= 1
    assert "maintained kappa != peel at end of run" in record["gate_failures"]
    assert result_of(record, False, host_probe(reps=1))["correct"] is False


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "graph_trickle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
