"""Smoke test of the benchmark harness at tiny sizes; no timing is asserted.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that counts and ratios of traced runs repeat exactly, and that the
harness refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, cwd=ROOT, seed=5):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    result = result_of(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == named


@pytest.mark.parametrize("workload", ["sample", "grid"])
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(run(workload, 1))["metrics"] for _ in range(2))
    exact = [n for n in first if not n.endswith("_s") and ".overhead." not in n]
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
    assert first["linalg.householder_qr.calls"]["value"] == 0
    assert first["linalg.qr_backward.calls"]["value"] == 0
    assert first["denoiser.forward_pass.rows_per_call"]["value"] == 1.0
    assert first["guidance.network_evals_per_step"]["value"] == 2.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("sample", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
