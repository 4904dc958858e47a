"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

A reduced run of every workload must print every metric that
``BENCHMARK.json`` names, with its unit, and check its answers; the
proximity oracle must agree with the capacity DP.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reduced_run_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = _run("wide-w", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_proximity_oracle_matches_capacity_dp():
    from knapsolve import generate_instance, solve_bellman
    from oracle import proximity_dp

    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randint(1, 30)
        w_max = rng.randint(1, 12)
        p_max = rng.choice([2, 30, 10**6])
        items = [(rng.randint(1, w_max), rng.randint(1, p_max)) for _ in range(n)]
        t = rng.randint(0, sum(w for w, _ in items))
        assert proximity_dp(items, t) == solve_bellman(items, t, cell_budget=None)
    for fam in ("uniform", "clustered", "hard-equal-weights"):
        items, t = generate_instance(1024, 64, 32, 0.5, 5, fam)
        assert proximity_dp(items, t) == solve_bellman(items, t, cell_budget=None)
