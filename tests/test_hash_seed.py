"""Outputs must not depend on string hashing: the same command under two
``PYTHONHASHSEED`` values writes the same bytes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from test_golden import ARTIFACTS, run_config

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args: list[str], hash_seed: int) -> None:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-m", "driftstream.cli", *args, "--quiet"], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()


def test_run_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    config = tmp_path / "wv-rf.json"
    config.write_text(json.dumps(run_config("wv-rf")))
    outputs = []
    for hash_seed in (0, 1):
        out_dir = tmp_path / f"run{hash_seed}"
        run_cli(["run", "--config", str(config), "--out", str(out_dir)], hash_seed)
        outputs.append([(out_dir / name).read_bytes() for name in ARTIFACTS])
    assert outputs[0] == outputs[1]


def test_preprocess_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # Categoricals with blanks and many levels, and a datetime sort key with ties.
    rng = np.random.default_rng(11)
    lines = ["when,colour,city,v,target"]
    for i in range(300):
        colour = ["red", "blue", "green", "teal", ""][int(rng.integers(5))]
        city = f"c{int(rng.integers(40))}"
        lines.append(f"2024-01-{1 + int(rng.integers(28)):02d},{colour},{city},{rng.normal():.6f},{'xyz'[i % 3]}")
    raw = tmp_path / "raw.csv"
    raw.write_text("\n".join(lines) + "\n")
    config = tmp_path / "ingest.json"
    config.write_text(json.dumps({
        "input": str(raw),
        "target_column": "target",
        "categorical_columns": ["colour", "city"],
        "datetime_columns": ["when"],
        "datetime_format": "%Y-%m-%d",
    }))
    outputs = []
    for hash_seed in (0, 1):
        out = tmp_path / f"stream{hash_seed}.dsv"
        run_cli(["preprocess", "--config", str(config), "--out", str(out)], hash_seed)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
