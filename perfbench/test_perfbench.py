"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py -q

Each test runs ``run.py`` as a subprocess on a minimal draw: the three
cheapest programs of a workload's class, one of them Python.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: counts and quality figures that must repeat exactly for a seed
EXACT_PER_LAYER = (
    "runtime.events", "runtime.steps", "profiler.deps", "cu.cus",
    "discovery.containers", "discovery.replay_events",
    "parallelize.feasible", "parallelize.validation_runs",
    "parallelize.transform_identical_frac", "simulate.prediction_error",
    "batch.jobs_hit", "batch.jobs_resumed", "batch.jobs_computed",
)
EXACT_END_TO_END = ("loop_precision", "loop_recall")


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT,
          script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--draw-size", "3"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def result(workload: str, trace: int, seed: int = 3) -> dict:
    proc = bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        out = result(workload, trace)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True
        assert out["failed"] == 0 and out["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in out["metrics"].items()}
        assert got == units
        for name, metric in out["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
        if trace == 0:
            for name, metric in out["metrics"].items():
                assert metric["value"] > 0, name
        else:
            metrics = {n: m["value"] for n, m in out["metrics"].items()}
            wall = metrics["trace.wall_s"]
            selfs = [v for n, v in metrics.items() if n.endswith(".self_s")]
            assert all(0 <= v <= wall for v in selfs)
            assert sum(selfs) <= wall * (1 + 1e-9)


@pytest.mark.parametrize("workload", ["loops", "batch"])
def test_counts_repeat_exactly_for_a_seed(workload):
    first, second = result(workload, 1), result(workload, 1)
    for name in EXACT_PER_LAYER:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name
    first, second = result(workload, 0), result(workload, 0)
    for name in EXACT_END_TO_END:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name


def test_tasks_replay_dominates_detect():
    metrics = {n: m["value"] for n, m in result("tasks", 1)["metrics"].items()}
    assert metrics["discovery.replay_s"] > 0.5 * metrics["engine.detect_s"]
    assert metrics["discovery.replay_ratio"] > 1.0


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, non-zero."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("loops", 0, cwd=tmp_path,
                 script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
