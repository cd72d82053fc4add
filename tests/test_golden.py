"""Byte equality of a small run grid with committed golden artifacts.

Every run but ``wv-gnb-long`` replays the same seeded synthetic stream.
Together the runs cover a capped since-last-replacement cache, a last-window
member whose window is larger than ``cache_cap``, a warm-up longer than
``cache_cap``, a replacement that clears a member's cache, a train-once member
and both shadow metrics. ``wv-gnb-long`` has a longer stream of its own, so
windows above 1000 rows run the Wasserstein and Jensen-Shannon tests.
Every run must also swallow no member failure, so that none can hide behind
the fallback label.

Regenerate the fixtures (only with a CHANGES.md entry that says why) with

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from driftstream.experiment import parse_config, run_experiment
from driftstream.learners import cart as cart_module

GOLDEN_DIR = Path(__file__).parent / "golden"
ARTIFACTS = ("report.json", "trace.csv", "events.csv")

STREAM = {
    "synthetic": {
        "n_instances": 3000,
        "n_features": 5,
        "n_classes": 3,
        "drift_points": [1500],
        "drift_kind": "abrupt",
        "seed": 7,
    }
}
ENSEMBLE_STRATEGIES = [{"id": "S4", "s": 200}, {"id": "S5", "s": 200}, {"id": "S6", "s": 400}, {"id": "S7", "s": 400}]
ENSEMBLE_OPTIONS = {"first_fit_size": 300, "shadow_eval_size": 150, "score_window": 200}

GRID = {
    "wv-rf": {
        "method": {
            "type": "ensemble",
            "batch_algorithm": "rf",
            "batch_params": {"n_trees": 5},
            "strategies": ENSEMBLE_STRATEGIES,
            "combiner": "wv",
        },
        **ENSEMBLE_OPTIONS,
        "cache_cap": 300,
    },
    "ds-gnb": {
        "method": {
            "type": "ensemble",
            "batch_algorithm": "gnb",
            "strategies": ENSEMBLE_STRATEGIES,
            "combiner": "ds",
        },
        **ENSEMBLE_OPTIONS,
    },
    "rf-b1": {
        "method": {"type": "batch", "algorithm": "rf", "strategy": "B1", "params": {"n_trees": 5}},
        "first_fit_size": 300,
    },
    "cart-s2": {
        "method": {"type": "batch", "algorithm": "cart", "strategy": {"id": "S2", "s": 300}},
        "first_fit_size": 300,
        "shadow_eval_size": 100,
        "shadow_metric": "accuracy",
    },
    "wv-gnb-b2": {
        "method": {
            "type": "ensemble",
            "batch_algorithm": "gnb",
            "strategies": [{"id": "B2", "first_fit_size": 700}, {"id": "S5", "s": 250}],
            "combiner": "wv",
        },
        "first_fit_size": 200,
        "cache_cap": 400,
        "shadow_eval_size": 300,
        "score_window": 100,
    },
    "wv-gnb-long": {
        "stream": {"synthetic": {**STREAM["synthetic"], "n_instances": 5000, "drift_points": [2500]}},
        "method": {
            "type": "ensemble",
            "batch_algorithm": "gnb",
            "strategies": [{"id": "S4", "s": 1100}, {"id": "S7", "s": 1100}],
            "combiner": "wv",
        },
        "first_fit_size": 1100,
    },
}


def run_config(name: str) -> dict:
    return {"stream": STREAM, "seed": 3, "trace_every": 250, **GRID[name]}


def write_run(name: str, out_dir: Path) -> None:
    run_experiment(parse_config(run_config(name)), out_dir=out_dir)


@pytest.mark.parametrize("name", sorted(GRID))
def test_run_matches_golden_artifacts(name, tmp_path):
    write_run(name, tmp_path)
    for artifact in ARTIFACTS:
        expected = (GOLDEN_DIR / name / artifact).read_bytes()
        assert (tmp_path / artifact).read_bytes() == expected, f"{name}/{artifact} differs from the golden file"
    failures = json.loads((tmp_path / "timing.json").read_text())["failures"]
    assert all(count == 0 for phases in failures.values() for count in phases.values()), failures


@pytest.mark.parametrize("name", ["rf-b1", "wv-rf"])
def test_forests_grown_in_forked_shares_match_golden_artifacts(name, tmp_path, monkeypatch):
    # The golden forests are too small to fork on their own; two shares must give the same bytes.
    monkeypatch.setattr(cart_module, "_workers", lambda n_trees, n_rows: min(2, n_trees))
    test_run_matches_golden_artifacts(name, tmp_path)


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 1
    for name in sorted(GRID):
        with tempfile.TemporaryDirectory() as tmp:
            write_run(name, Path(tmp))
            target = GOLDEN_DIR / name
            target.mkdir(parents=True, exist_ok=True)
            for artifact in ARTIFACTS:
                (target / artifact).write_bytes((Path(tmp) / artifact).read_bytes())
        print(f"wrote {GOLDEN_DIR / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
