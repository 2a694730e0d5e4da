"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q

The ensembles here are two-cell, screen-only versions of the benchmark's
workloads, so the whole file takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import layers, run, workloads  # noqa: E402

TINY_CELLS = 2


@pytest.fixture(scope="module")
def tiny():
    return workloads.ensemble_inputs(3, "ensemble_screen", TINY_CELLS,
                                     verify=False)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_metrics_match_the_reported_ones():
    spec = _benchmark_json()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_traced_rep_reports_every_per_layer_metric_and_a_valid_trace(tiny):
    from repro.obs import validate_chrome_trace

    workload = workloads.WORKLOADS["ensemble_screen"]
    rep = run.run_rep(workload, tiny, traced=True)
    values = rep.layer_values
    assert set(values) == set(run.PER_LAYER) - {"obs.tracing_overhead"}
    assert values["traps.count"] == rep.check.counts["traps"]
    assert values["markov.candidates"] == rep.check.counts["candidates"]
    assert values["spice.transient_calls"] == 1  # the clean pass only
    assert values["ensemble.unattributed_s"] >= 0.0
    table = layers.self_time_table(rep.probe)
    for phase in layers.ENSEMBLE_PHASES:
        assert f"ensemble.{phase}" in table
    document = layers.chrome_trace([rep.probe])
    assert validate_chrome_trace(document) == []
    ids = {event["args"]["id"] for event in document["traceEvents"]}
    for event in document["traceEvents"]:
        assert event["args"]["parent"] is None \
            or event["args"]["parent"] in ids
    # The wrappers are gone once the repetition ends.
    import repro.core.ensemble as ensemble
    from repro.spice.transient import simulate_transient
    assert ensemble.simulate_transient is simulate_transient


def test_every_rep_starts_with_a_cold_table_cache(tiny):
    workload = workloads.WORKLOADS["ensemble_screen"]
    for _ in range(2):
        rep = run.run_rep(workload, tiny, traced=False)
        assert rep.check.cache["hits"] == 0
        assert rep.check.problems == []
    # Skipping the reset serves the tables from the cache, and the check
    # rejects the run.
    warm = workloads.check_ensemble(tiny, workload.call(tiny))
    assert warm.cache["hits"] > 0
    assert any("cold" in problem for problem in warm.problems)


def test_inputs_are_derived_from_the_workload_seed():
    assert workloads.derive_seed(5, "a") == workloads.derive_seed(5, "a")
    assert workloads.derive_seed(5, "a") != workloads.derive_seed(6, "a")
    assert workloads.derive_seed(5, "a") != workloads.derive_seed(5, "b")
    for name, workload in workloads.WORKLOADS.items():
        first, again, other = (workload.build(seed) for seed in (1, 1, 2))
        assert first == again, name
        assert first != other, name
    verify = workloads.WORKLOADS["ensemble_verify"].build(1)
    screen = workloads.WORKLOADS["ensemble_screen"].build(1)
    assert verify.rng_seed != screen.rng_seed


def test_a_failing_output_check_fails_the_run(tiny, capsys):
    from repro.testing.faults import inject_faults

    workload = workloads.WORKLOADS["ensemble_screen"]
    with inject_faults(nan_rate=1.0):
        result, code = run.report(workload, tiny, 0.0, False, [1.0], 3)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == TINY_CELLS
    assert result["metrics"]["completed_share"]["value"] == 0.0
    assert "CHECK FAILED" in capsys.readouterr().out


def test_a_correct_run_prints_every_metric(tiny, capsys):
    workload = workloads.WORKLOADS["ensemble_screen"]
    result, code = run.report(workload, tiny, 0.0, False, [1.0], 3)
    assert code == 0 and result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_source_it_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ensemble_screen",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert done.stdout.strip() == ""
