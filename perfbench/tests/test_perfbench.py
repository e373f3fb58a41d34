"""Self-test of the benchmark: every workload once at its smallest size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    for m in SPEC["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in SPEC["per_layer"]:
        assert m["unit"] == run.PER_LAYER[m["name"]]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(TINY)


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_untraced_and_traced(name):
    plain = run.run_workload(name, seed=5, seconds=0, trace=False, tiny=True)
    assert plain["failed"] == 0, plain["failures"]
    assert set(plain["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert plain["samples"] >= run.MIN_SAMPLES
    reports = {}
    for sub, spec in TINY[name].commands:
        label = f"{name}-{sub}-{spec.replace(':', '-')}"
        reports[label] = (run.WORK / "reports" / f"{label}.json").read_bytes()

    traced = run.run_workload(name, seed=5, seconds=0, trace=True, tiny=True)
    assert traced["failed"] == 0, traced["failures"]
    assert set(traced["metrics"]) == set(run.PER_LAYER)
    for label, data in reports.items():
        assert (run.WORK / "reports" / f"{label}-traced.json").read_bytes() == data


def test_failed_check_is_counted(monkeypatch):
    from hitsp import ojoin

    original = ojoin.run_sample

    def broken(*args, **kwargs):
        out = original(*args, **kwargs)
        return out.__class__(**{**out.__dict__, "join_cost": out.join_cost + 1})

    monkeypatch.setattr(ojoin, "run_sample", broken)
    record = run.run_workload("sample-chains", seed=5, seconds=0, trace=False, tiny=True)
    assert record["failed"] > 0
    assert record["error_rate"] > 0
