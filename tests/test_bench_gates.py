"""The ``repro bench`` gate table: thresholds, verdicts, exit codes."""

from __future__ import annotations

import copy

import pytest

from repro.cli import main
from repro.engine.bench import SUITES, Gate, _lookup, evaluate_gates

#: every gate with its threshold; a change here is a change of a gate
EXPECTED_GATES = {
    "vm": {
        ("all_traces_identical", "==", True, True),
        ("all_stores_identical", "==", True, True),
        ("traced_speedup_geomean", ">=", 2.0, "default_set"),
        ("profile_speedup_geomean", ">=", 1.25, "default_set"),
    },
    "detect": {
        ("all_stores_identical", "==", True, True),
        ("equivalence_sweep.all_identical", "==", True, True),
        ("sharded_all_identical", "==", True, True),
        ("detect_speedup_geomean", ">=", 3.0, "default_set"),
        ("profile_speedup_geomean", ">=", 1.5, "default_set"),
        ("detect_phase.gate.measured", ">=", 5.0, True),
        ("sampling_precision_min", ">=", 0.95, "default_set"),
        ("sampling_recall_min", ">=", 0.95, "default_set"),
        ("scale.store_identical", "==", True, "scale"),
        ("scale.sharded_speedup", ">=", 2.5, "scale.speedup_gate.enforced"),
        ("scale.sampled.precision", ">=", 0.95, "scale"),
        ("scale.sampled.recall", ">=", 0.95, "scale"),
    },
    "obs": {
        ("all_stores_identical", "==", True, True),
        ("disabled_overhead_pct_max", "<=", 2.0, "default_set"),
    },
    "faults": {
        ("all_recovered", "==", True, True),
        ("all_stores_identical", "==", True, True),
        ("degraded_runs", "==", 1, True),
    },
    "store": {
        ("reference_ok", "==", True, True),
        ("all_stores_identical", "==", True, True),
        ("all_rows_ok", "==", True, True),
        ("all_exits_ok", "==", True, True),
        ("computed_once", "==", True, True),
        ("torn_reads", "==", 0, True),
        ("healed_corruptions", ">=", 2, True),
        ("lock_steals", ">=", 1, True),
        ("min_concurrent_writers", ">=", 2, True),
    },
}


def _set(result: dict, key: str, value) -> None:
    *parents, leaf = key.split(".")
    for part in parents:
        result = result.setdefault(part, {})
    result[leaf] = value


def _canned(suite: str) -> dict:
    """A result that passes every gate of ``suite``, all of them enforced."""
    result: dict = {}
    for gate in SUITES[suite].gates:
        _set(result, gate.key, gate.required)
    for gate in SUITES[suite].gates:
        decider = gate.enforced
        if decider is not True and _lookup(result, decider) is None:
            _set(result, decider, True)
    return result


def _broken(gate: Gate):
    if isinstance(gate.required, bool):
        return not gate.required
    return gate.required - 1 if gate.op == ">=" else gate.required + 1


def _run_bench(monkeypatch, tmp_path, suite: str, result: dict) -> int:
    monkeypatch.setitem(
        SUITES, suite,
        SUITES[suite]._replace(run=lambda **_: copy.deepcopy(result)),
    )
    return main([
        "bench", "--suite", suite, "--format", "json",
        "--save", str(tmp_path / "bench.json"),
    ])


def test_gate_table_thresholds():
    assert set(SUITES) == set(EXPECTED_GATES)
    for suite, expected in EXPECTED_GATES.items():
        gates = SUITES[suite].gates
        assert len(gates) == len(expected)
        assert {tuple(g) for g in gates} == expected, suite


@pytest.mark.parametrize(
    "suite,key",
    [(s, g.key) for s in SUITES for g in SUITES[s].gates],
)
def test_broken_gate_fails_bench(suite, key, monkeypatch, tmp_path, capsys):
    result = _canned(suite)
    gate = next(g for g in SUITES[suite].gates if g.key == key)
    _set(result, key, _broken(gate))
    assert _run_bench(monkeypatch, tmp_path, suite, result) == 1
    fails = [
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("; FAIL:")
    ]
    assert len(fails) == 1 and fails[0].startswith(f"; FAIL: {key}:"), fails


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_passing_result_exits_zero(suite, monkeypatch, tmp_path, capsys):
    assert _run_bench(monkeypatch, tmp_path, suite, _canned(suite)) == 0
    assert "; FAIL:" not in capsys.readouterr().err


def test_scale_leg_gates():
    detect = SUITES["detect"].gates
    result = _canned("detect")
    result["scale"]["store_identical"] = False
    verdicts = {g["name"]: g for g in evaluate_gates(detect, result)}
    assert verdicts["scale.store_identical"]["passed"] is False
    assert verdicts["scale.sampled.recall"]["passed"] is True
    # without a scale leg its gates are recorded, not enforced
    del result["scale"]
    verdicts = {g["name"]: g for g in evaluate_gates(detect, result)}
    scale = [v for k, v in verdicts.items() if k.startswith("scale.")]
    assert len(scale) == 4
    assert all(not v["enforced"] and v["passed"] is None for v in scale)
    # an enforced gate whose key is missing fails instead of passing
    (missing,) = evaluate_gates([Gate("no_such_key")], result)
    assert missing["measured"] is None and missing["passed"] is False
