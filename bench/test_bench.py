"""Self-test of the benchmark: BENCHMARK.json agrees with bench/run.py, and each
workload runs end to end at a tiny simulated duration with every check on.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# long enough for the saturated cell to code and decode, short enough to be quick
SMOKE_SCALE = "0.1"


def test_benchmark_json_matches_runner():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(worker.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == worker.PER_LAYER + ["trace_overhead_frac"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"]), metric
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_pinned_fingerprints_cover_every_cell():
    pinned = json.loads(worker.FINGERPRINTS.read_text())
    assert pinned["seed"] == worker.DEFAULT_SEED
    assert set(pinned["saturated"]["cells"]) == set(worker.SCHEMES)
    assert len(pinned["sweep"]["cells"]) == 4 * 10 * 3


def bench(*args: str) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_smoke_run(workload, trace):
    proc, result = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                         "--trace", trace, "--scale", SMOKE_SCALE)
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for line in ("facts ", "failed_frac "):
        assert any(out.startswith(line) for out in proc.stdout.splitlines())


def test_refuses_to_run_without_the_program():
    """Copied without src/, the benchmark exits non-zero and prints no result."""
    copy = ROOT / ".bench_out" / "selftest-without-src"
    shutil.rmtree(copy, ignore_errors=True)
    (copy / "bench").mkdir(parents=True)
    try:
        for path in BENCH.glob("*.*"):
            shutil.copy(path, copy / "bench")
        shutil.copy(ROOT / "BENCHMARK.json", copy)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "saturated", "--seconds", "1"],
                              cwd=copy, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(copy)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
