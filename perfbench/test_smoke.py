"""Smoke test for the benchmark: each workload at minimal length, each
output check firing on a planted fault, the traced run's metric set, and
the refusal to run without the program's sources.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=None, run=BENCH_DIR / "run.py"):
    done = subprocess.run(
        [sys.executable, str(run), "--seed", "7", "--ops", "3", *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )
    return done


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_minimal_run_is_correct_and_reports_end_to_end_metrics(workload):
    done = bench("--workload", workload)
    result = result_of(done)
    assert done.returncode == 0, done.stdout + done.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize(
    "workload, fault",
    [("kem_satellite_n16", "key"), ("cli_hybrid_n280", "plaintext"), ("verify_micro", "distance")],
)
def test_output_check_fires_on_planted_fault(workload, fault):
    done = bench("--workload", workload, "--fault", fault)
    result = result_of(done)
    assert done.returncode == 1
    assert not result["correct"] and result["failed"] >= 1
    assert "CHECK FAILED" in done.stdout


def test_traced_run_reports_every_per_layer_metric():
    done = bench("--workload", "cli_hybrid_n280", "--trace", "1")
    result = result_of(done)
    assert done.returncode == 0, done.stdout + done.stderr
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] is not None, m["name"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = bench("--workload", WORKLOADS[0], cwd=tmp_path, run=tmp_path / BENCH_DIR.name / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
