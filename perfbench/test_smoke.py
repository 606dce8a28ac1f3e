"""Smoke test of the benchmark itself, every workload at a tiny length.

    python3 -m pytest perfbench/test_smoke.py -q

It records a one-seed pool at a tiny horizon into a temporary reference
file, runs each workload against it in both modes and checks that every
metric named in BENCHMARK.json is printed with its unit. A corrupted digest
must make the run count as failed, and a directory without the simulator's
sources must make the benchmark exit non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_HORIZON = {"desk": 40, "churn": 3010, "replan": 20}   # churn's deaths are at 3000


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("pool") / "reference.json"
    for workload, horizon in TINY_HORIZON.items():
        proc = bench("--workload", workload, "--record", "--pool-size", "1",
                     "--horizon", str(horizon), "--reference", str(path))
        assert proc.returncode == 0, proc.stderr
    return path


@pytest.mark.parametrize("workload", sorted(TINY_HORIZON))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(reference, tmp_path, workload, trace, section):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--reference", str(reference),
                 "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = proc.stdout.splitlines()
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.split()[3] == unit
                   for line in printed), name
    assert any(line.startswith("runs_failed_frac = 0.0 ratio") for line in printed)


def test_corrupted_digest_counts_as_failed(reference, tmp_path):
    data = json.loads(reference.read_text())
    data["workloads"]["desk"]["runs"]["1"]["PDD"]["digest"] = "0" * 64
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(data))
    proc = bench("--workload", "desk", "--seconds", "1", "--reference", str(corrupted))
    assert proc.returncode == 1
    result = result_of(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert "output digest" in proc.stderr


def test_fails_without_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "desk", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
