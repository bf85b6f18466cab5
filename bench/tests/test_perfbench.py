"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: `python -m pytest -q bench/tests`.
"""
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as bench_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_the_declared_metrics(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    run = bench_run.Run("long-horizon", 4, "tiny", str(tmp_path))
    first = run.run_pass()
    assert bench_run.tally([first]) == (2, 0)

    snapshot = tmp_path / "pass" / "simulate" / "snapshot.csv"
    lines = snapshot.read_text().splitlines()
    t, idx, _ = lines[-1].split(",")
    lines[-1] = f"{t},{idx},-1.0"  # an atom below the barrier
    snapshot.write_text("\n".join(lines) + "\n")

    records = run.evaluate(str(tmp_path / "pass"), first["invocations"])
    attempted, failed = bench_run.tally([{"invocations": records}])
    assert failed / attempted > 0
    simulate = next(r for r in records if r["command"] == "simulate")
    assert any("below Y(T)" in f for f in simulate["failures"])
    assert any("digests differ" in f for f in simulate["failures"])


def test_missing_package_exits_nonzero_without_result(tmp_path):
    bench_copy = tmp_path / "bench"
    bench_copy.mkdir()
    for name in ("run.py", "worker.py", "workloads.py", "spans.py"):
        (bench_copy / name).write_text(open(os.path.join(BENCH, name)).read())
    out = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "meanfield",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
