"""Smoke test of the benchmark at tiny sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs its minimum of three runs, untraced and traced.  The
test checks that every metric BENCHMARK.json names is printed with its unit,
that no operation failed, and that two runs with the same seed give the
same wire and count digests.  Two unit tests cover the assignment order of
circuit-deep and the reference scaling.
"""

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(workload: str, trace: int):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and details["error_rate"] == 0
    assert result["attempted"] >= 1
    return details, result


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    details, result = result_of(workload, 0)
    assert units(result["metrics"]) == units({m["name"]: m for m in SPEC["end_to_end"]})
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["runs"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_digests(workload):
    plain, _ = result_of(workload, 0)
    first, result = result_of(workload, 1)
    second, _ = result_of(workload, 1)
    assert units(result["metrics"]) == units({m["name"]: m for m in SPEC["per_layer"]})
    assert first["traced_wire_matches"]
    assert 0 <= result["metrics"]["trace.unattributed_share"]["value"] < 0.5
    assert first["wire_digest"] == second["wire_digest"] == plain["wire_digest"]
    assert first["count_digest"] == second["count_digest"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_balanced_order_mixes_every_prefix():
    import workloads
    assignments = list(itertools.product((0, 1), repeat=6))
    order = workloads.balanced_order(random.Random(5), assignments)
    assert sorted(order) == assignments
    for n in range(8, len(order) + 1, 8):
        assert abs(sum(map(sum, order[:n])) / n - 3) <= 0.25


def test_calibration_scales_by_the_timings_around_an_interval():
    import run
    calibration = run.Calibration(["words", "powers"])
    calibration.times = [0.01, 0.03, 0.02]
    nominal = calibration.nominal_s
    assert calibration.scale(0) == pytest.approx(nominal / 0.01)
    assert calibration.scale(1) == pytest.approx(nominal / 0.02)
    assert calibration.scale(3) == pytest.approx(nominal / 0.02)
