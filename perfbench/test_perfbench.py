"""Smoke test of the benchmark at a tiny size: every workload runs untraced
and traced, passes its output checks, and reports every metric named in
BENCHMARK.json with that metric's unit."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(w: workloads.Workload) -> workloads.Workload:
    return dataclasses.replace(w, pool_n=2, corpus_n=8, center_epochs=2, ranker_epochs=2, k=3)


def test_workloads_match_benchmark_json():
    assert [x["name"] for x in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    result = workloads.run(tiny(workloads.WORKLOADS[name]), seed=3, seconds=0,
                           trace=trace, work=tmp_path)
    assert result.correct, result.checks
    assert result.failed == 0 and result.attempted > 0
    expected = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert {k: unit for k, (_, unit, _) in result.metrics.items()} == expected
    for key, (value, _, samples) in result.metrics.items():
        assert isinstance(value, float) or isinstance(value, int), key
        assert samples >= 1, key
