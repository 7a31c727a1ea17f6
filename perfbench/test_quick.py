"""Smoke tests of the benchmark, in quick mode.  From the repository root:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_reports_every_metric(trace):
    proc = _run(ROOT, "--workload", "all", "--quick", "--seed", "7", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if trace == "1" else "end_to_end"]
    names = {f"{w['name']}.{m['name']}": m["unit"] for w in bench["workloads"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if trace == "1":
        for w in ("sweep", "verdicts"):
            assert result["metrics"][f"{w}.trace.self_frac"]["value"] >= 0.9


def test_declared_per_layer_metrics_match_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == workloads.NAMES


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "point", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checks_reject_wrong_answers(tmp_path):
    # the quick runs above show that the right answers pass
    for name in workloads.NAMES:
        for cmd in workloads.build(name, 3, True, str(tmp_path / "towers.txt")):
            assert cmd.check("1\n", "") is not None, cmd.argv


def test_self_time_subtracts_child_spans():
    # main [0, 10] > nth_prime [1, 6] > prime_count [2, 5]; main > prime_count [7, 8]
    m = spans.layer_metrics([
        ["cli.main", 0.0, 10.0, -1, 0],
        ["engine.nth_prime", 1.0, 6.0, 0, 0],
        ["engine.prime_count", 2.0, 5.0, 1, 10**10],
        ["engine.prime_count", 7.0, 8.0, 0, 10**11],
    ])
    assert m["cli.main.self_s"] == 4.0 and m["engine.nth_prime.self_s"] == 2.0
    assert m["engine.prime_count.s"] == 4.0
    assert m["engine.prime_count.e10.s"] == 3.0 and m["engine.prime_count.e11.s"] == 1.0
    assert m["engine.nth_prime.pi_per_call"] == 1.0
    assert m["trace.named_self_s"] == 10.0
