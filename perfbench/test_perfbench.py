"""Tests of the benchmark itself, kept out of the repository's test suite.

Run from the root of a checkout (about two minutes on two cores):

    python3 -m pytest perfbench -q

The traced counts are the benchmark's reference for later changes: they
must repeat exactly between two traced calls with the same seed and match
the counts each workload was chosen for.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from functools import partial

import pytest

import run
from workloads import SCAN_DEFAULT_CURVES, WORKLOADS, scan_argv, scan_check

# the default 12-curve scan, which the benchmark trims to SCAN_BENCH_CURVES
SCAN_DEFAULT = replace(
    WORKLOADS["scan-grid"],
    argv=partial(scan_argv, curves=SCAN_DEFAULT_CURVES),
    check=partial(scan_check, curves=SCAN_DEFAULT_CURVES),
)

EXPECTED_COUNTS = {
    "chsh-ideal": {"interferometer.measure.calls": 272, "ensemble.moments.calls": 23},
    "scan-grid": {"interferometer.measure.calls": 2 * 6120 + 68,
                  "interferometer.extract.stripped": 68},
    "scan-grid-default": {"interferometer.measure.calls": 73_576,
                          "interferometer.extract.stripped": 136},
    "chsh-noisy": {"interferometer.measure.field_calls": 16},
    "validate": {"bell.lhv.calls": 64, "bell.projected.calls": 20},
}


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def traced_counts(cli, workload, seed: int) -> dict:
    call = run.run_call(cli, workload, seed, run.Tracer())
    assert call["reason"] is None
    return {k: v for k, v in call["tracer"].layer_metrics().items() if run.unit_of(k) != "s"}


@pytest.mark.parametrize("name", EXPECTED_COUNTS)
def test_traced_counts_repeat_and_match(cli, name):
    workload = SCAN_DEFAULT if name == "scan-grid-default" else WORKLOADS[name]
    first = traced_counts(cli, workload, 0)
    second = traced_counts(cli, workload, 0)
    assert first == second
    for metric, expected in EXPECTED_COUNTS[name].items():
        assert first[metric] == expected, metric


@pytest.mark.parametrize("name", WORKLOADS)
def test_checks_pass_on_second_seed(cli, name):
    assert run.run_call(cli, WORKLOADS[name], 1)["reason"] is None


def test_check_rejects_wrong_output(cli):
    workload = WORKLOADS["chsh-ideal"]
    assert run.run_call(cli, workload, 0)["reason"] is None
    report = run.WORK / "out" / "report.json"
    payload = json.loads(report.read_text())
    payload["chsh"] -= 0.01
    report.write_text(json.dumps(payload))
    assert "from 2 sqrt(2 - DOP^2)" in workload.check(0, run.WORK / "out", "")


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_follows_benchmark_json(trace, section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "validate", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "validate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
