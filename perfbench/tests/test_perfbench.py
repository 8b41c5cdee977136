"""The benchmark's own contract: every workload runs at tiny size with
no failed operation, a seed fixes the inputs and the q-errors, and every
emitted metric is well named and declared in ``BENCHMARK.json``."""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = ["oltp-sql", "olap-plans", "proc-mixed", "fit"]
_RUNS = {}


def tiny(name: str, trace: bool, seed: int = 1):
    """A memoised tiny run (each costs a bundle fit and a worker boot)."""
    key = (name, trace, seed)
    if key not in _RUNS:
        _RUNS[key] = workloads.run_workload(name, seed, 0.6, trace, size="tiny")
    return _RUNS[key]


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_has_no_failed_operation(name, trace):
    result = tiny(name, trace)
    assert result.failed == 0, (result.checks, result.errors)
    assert result.attempted > 0
    names = workloads.PER_LAYER if trace else workloads.END_TO_END
    for metric in names:
        if metric == "host.calib_ms":
            continue  # stamped by run.py
        value = result.metrics[metric]
        assert math.isfinite(value), metric
        if not trace:
            assert value > 0, metric


@pytest.mark.parametrize("name", ["oltp-sql", "fit"])
def test_same_seed_same_inputs_and_qerrors(name):
    first = tiny(name, False)
    again = workloads.run_workload(name, 1, 0.6, False, size="tiny")
    other = workloads.run_workload(name, 2, 0.6, False, size="tiny")
    assert again.info["inputs_digest"] == first.info["inputs_digest"]
    assert again.info["qerror_digest"] == first.info["qerror_digest"]
    for metric in ("qerror_p50", "qerror_p95"):
        assert again.metrics[metric] == first.metrics[metric]
    assert other.info["inputs_digest"] != first.info["inputs_digest"]


def test_metric_tables_match_benchmark_json():
    spec = declared()
    for workload in spec["workloads"]:
        assert workload["why"] == workloads.WORKLOADS[workload["name"]].why
    for section, table in (("end_to_end", workloads.END_TO_END),
                           ("per_layer", workloads.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[section]} == table
        for metric in spec[section]:
            assert NAME.fullmatch(metric["name"]), metric
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in spec["end_to_end"])


def test_cli_prints_declared_metrics_as_last_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oltp-sql",
         "--seed", "1", "--seconds", "0.6", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    spec = {m["name"]: m["unit"] for m in declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == spec
    for name in summary["metrics"]:
        assert NAME.fullmatch(name)


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oltp-sql",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
