"""The benchmark's shortest run still drives the package and passes its own checks.

It fails when the step hook's signature or the step records the benchmark
reads change, not only when the benchmark itself is run.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _assert_one_second_run_is_correct(workload: str) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "1"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_rf_b1_gradual_one_second_run_is_correct():
    _assert_one_second_run_is_correct("rf-b1-gradual")


def test_ds_gnb_wide_one_second_run_is_correct():
    # Runs `preprocess_csv` through the benchmark's wide-stream check and its
    # check that every round writes the same stream bytes.
    _assert_one_second_run_is_correct("ds-gnb-wide")


def test_wv_rf_abrupt_one_second_run_is_correct():
    # The one workload that refits forests and swaps in shadows: every round
    # must write the same bytes, and its events must be the steps' events.
    _assert_one_second_run_is_correct("wv-rf-abrupt")


def test_forest_fit_timer_prints_each_fit_and_the_same_forest():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "scripts/time_forest_fit.py", "--trees", "2", "--rows", "300", "--repeat", "2"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 and all(re.fullmatch(r"RF\(2\) rows=300 fit_s=\d+\.\d{3} sha256=[0-9a-f]{64}", s) for s in lines)
    assert lines[0].split("sha256=")[1] == lines[1].split("sha256=")[1]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(step_p50_us, instances_per_s=27000.0, returncode=0, correct=True, failed=0):
    metrics = {"instances_per_s": instances_per_s, "step_p50_us": step_p50_us, "setup_s": 0.055, "peak_rss_mb": 113.0}
    result = {"correct": correct, "attempted": 40000, "failed": failed,
              "metrics": {name: {"value": value, "unit": ""} for name, value in metrics.items()}}
    return {"returncode": returncode, "result": result}


def _summary(parent, change, claim="step_p50_us"):
    pairs = [{"first": ("parent", "change")[i % 2], "parent": p, "change": c} for i, (p, c) in enumerate(zip(parent, change))]
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    return _bench_pairs().summarize(pairs, end_to_end, claim)


def _metric_line(lines, name):
    return next(line for line in lines if line.startswith(f"{name} ("))


def test_bench_pairs_holds_a_clear_gain():
    parent = [_run(6.0 + 0.02 * i) for i in range(10)]
    change = [_run(3.3 + 0.02 * i, instances_per_s=19000.0) for i in range(10)]
    lines, holds = _summary(parent, change)
    assert holds is True
    assert lines[0] == ("pair 1 (parent first):  instances_per_s 27000 / 19000  step_p50_us 6 / 3.3"
                        "  setup_s 0.055 / 0.055  peak_rss_mb 113 / 113")
    assert lines[1].startswith("pair 2 (change first):")
    assert "10 of 10 pairs valid" in lines[10]
    assert "change wins 10 of 10; within its bound of 25%" in _metric_line(lines, "step_p50_us")
    assert "change wins 0 of 10; BEYOND its bound of 25%" in _metric_line(lines, "instances_per_s")
    assert "within its bound of 10%" in _metric_line(lines, "peak_rss_mb")
    claim = next(line for line in lines if line.startswith("claim step_p50_us"))
    assert "change wins 10 of 10 pairs" in claim and claim.endswith("HOLDS")


def test_bench_pairs_refuses_a_claim_won_in_8_of_10_pairs():
    parent = [_run(6.0 + 0.02 * i) for i in range(10)]
    change = [_run(3.3) for _ in range(8)] + [_run(7.0), _run(7.0)]
    lines, holds = _summary(parent, change)
    assert holds is False
    claim = next(line for line in lines if line.startswith("claim step_p50_us"))
    assert "change wins 8 of 10 pairs" in claim and "exceeds" in claim and claim.endswith("DOES NOT HOLD")


def test_bench_pairs_refuses_a_gain_inside_the_parents_spread():
    parent = [_run(5.0 + 0.2 * i) for i in range(10)]  # IQR 0.9
    change = [_run(5.0 + 0.2 * i - 0.5) for i in range(10)]
    lines, holds = _summary(parent, change)
    assert holds is False
    assert "does not exceed the parent's IQR 0.9" in next(line for line in lines if line.startswith("claim"))


def test_bench_pairs_voids_a_pair_with_a_failed_run():
    parent = [_run(6.0) for _ in range(10)]
    change = [_run(3.3) for _ in range(10)]
    parent[2] = _run(6.0, returncode=1)
    change[4] = _run(3.3, correct=False)
    change[6] = _run(3.3, failed=2)
    lines, holds = _summary(parent, change)
    assert lines[2] == "pair 3 (parent first): void (parent exit 1)"
    assert lines[4] == "pair 5 (parent first): void (change correct: false)"
    assert lines[6] == "pair 7 (parent first): void (change failed 2)"
    assert "7 of 10 pairs valid" in lines[10]
    assert "change wins 7 of 7" in _metric_line(lines, "step_p50_us")
    assert holds is False  # a voided pair counts as lost: 7 of 10
    assert _summary(parent, change, claim=None)[1] is None
