"""The benchmark's shortest run still drives the package and passes its own checks.

It fails when the step hook's signature or the step records the benchmark
reads change, not only when the benchmark itself is run.
"""

from __future__ import annotations

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
