"""The command's interface: metric names, printed results, failure modes."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_are_the_ones_the_command_reports():
    declared = _declared()
    for section, reported in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        names = [metric["name"] for metric in declared[section]]
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names)
        assert {metric["name"]: metric["unit"] for metric in declared[section]} == reported


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed(trace, tmp_path):
    workload = "refetch_small_edit"
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--trace-out", str(tmp_path / "spans.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {metric["name"]: metric["unit"] for metric in _declared()[section]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        assert math.isfinite(entry["value"])
        assert any(line.startswith(f"{workload} {name} ") for line in lines[:-1])
    if trace:
        spans = json.loads((tmp_path / "spans.json").read_text())
        assert {"level.core", "level.http", "call.parse_document"} <= {
            span["name"] for span in spans
        }


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table17_known_site",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
