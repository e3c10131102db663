"""Self-test of the repository benchmark (``perfbench/run.py``).

Each workload runs twice at tiny size, all runs concurrently:

* a traced run, which must exit 0, report its outputs correct and
  print every per-layer metric ``BENCHMARK.json`` declares, with its
  unit, and write its span file;
* an untraced run with ``--perturb``, which corrupts one output before
  the check: it must still print every end-to-end metric with its
  unit, and it must report the corruption as a failure and exit 1.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
SEED = 5


def _command(workload: str, trace: int, *extra: str) -> list[str]:
    return [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(SEED), "--seconds", "1",
        "--trace", str(trace), "--tiny", *extra,
    ]


@pytest.fixture(scope="module")
def runs():
    """Start every run at once; ``(workload, kind) -> (code, result,
    stdout, stderr)``."""
    launched = {}
    for workload in WORKLOADS:
        launched[(workload, "traced")] = _command(workload, 1)
        launched[(workload, "perturbed")] = _command(workload, 0, "--perturb")
    procs = {
        key: subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        for key, command in launched.items()
    }
    out = {}
    for key, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=900)
        last = stdout.strip().splitlines()[-1] if stdout.strip() else "{}"
        out[key] = (proc.returncode, json.loads(last), stdout, stderr)
    return out


def _assert_declared(result: dict, declared: list) -> None:
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for metric in declared:
        entry = metrics[metric["name"]]
        assert entry["unit"] == metric["unit"], metric["name"]
        assert isinstance(entry["value"], (int, float)), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny_run_prints_every_per_layer_metric(runs, workload):
    code, result, stdout, stderr = runs[(workload, "traced")]
    assert code == 0, stderr
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    _assert_declared(result, DECLARED["per_layer"])
    span_file = ROOT / ".perfbench-out" / f"spans-{workload}-{SEED}.jsonl"
    spans = [json.loads(line) for line in span_file.read_text().splitlines()]
    assert {"name", "start", "end", "parent", "request"} <= set(spans[0])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_output_is_caught_as_a_failure(runs, workload):
    code, result, stdout, stderr = runs[(workload, "perturbed")]
    assert code == 1, stderr
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAILED" in stderr
    _assert_declared(result, DECLARED["end_to_end"])
