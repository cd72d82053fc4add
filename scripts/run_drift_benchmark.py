"""Benchmark a method grid on synthetic drifting streams and rank the results.

Generates three seeded streams (stationary, abrupt drift, gradual drift),
runs train-once baselines, drift-adaptive single learners, online learners
and the hybrid ensembles over each, then ranks them across the streams with
``driftstream report``, which writes ``ranking.csv`` and ``traces.csv`` to the
output directory.

    python scripts/run_drift_benchmark.py --out results/ [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from driftstream.cli import main as cli_main


def stream_specs(quick: bool) -> dict[str, dict]:
    n = 6000 if quick else 15000
    return {
        "stationary": {"n_instances": n, "n_features": 6, "n_classes": 3, "seed": 11},
        "abrupt": {
            "n_instances": n, "n_features": 6, "n_classes": 3,
            "drift_points": [n // 2], "drift_kind": "abrupt", "seed": 12,
        },
        "gradual": {
            "n_instances": n, "n_features": 6, "n_classes": 3,
            "drift_points": [n // 2], "drift_kind": "gradual", "gradual_width": n // 10, "seed": 13,
        },
    }


def method_specs(quick: bool) -> dict[str, dict]:
    window = 1000 if quick else 2000
    first_fit = 600 if quick else 1500
    adaptive = {
        "id": "SA",
        "monitor_features": True,
        "monitor_target": True,
        "monitor_performance": True,
        "threshold": 0.02,
        "window_size": window,
        "perf_tolerance": 0.2,
        "retrain_scope": "last_window",
    }
    perf_only = {
        "id": "SP",
        "monitor_features": False,
        "monitor_target": False,
        "monitor_performance": True,
        "threshold": 0.0,
        "window_size": window,
        "perf_tolerance": 0.2,
        "retrain_scope": "last_window",
    }
    rf_params = {"n_trees": 10 if quick else 20}
    common = {"first_fit_size": first_fit, "shadow_eval_size": 300, "score_window": 500}
    return {
        "RF-B1": {
            "method": {"type": "batch", "algorithm": "rf", "strategy": "B1", "params": rf_params},
            **common,
        },
        "RF-SA": {
            "method": {"type": "batch", "algorithm": "rf", "strategy": adaptive, "params": rf_params},
            **common,
        },
        "GNB": {"method": {"type": "online", "algorithm": "gnb"}, **common},
        "HT": {"method": {"type": "online", "algorithm": "hoeffding"}, **common},
        "DS-RF": {
            "method": {
                "type": "ensemble",
                "batch_algorithm": "rf",
                "batch_params": rf_params,
                "strategies": [adaptive, perf_only],
                "online_members": ["gnb", "hoeffding"],
                "combiner": "ds",
            },
            **common,
        },
        "WV-RF": {
            "method": {
                "type": "ensemble",
                "batch_algorithm": "rf",
                "batch_params": rf_params,
                "strategies": [adaptive, perf_only],
                "online_members": ["gnb", "hoeffding"],
                "combiner": "wv",
            },
            **common,
        },
    }


def _cli(argv: list[str], what: str) -> None:
    """Run one ``driftstream`` command; exit with a message naming ``what`` if it fails."""
    code = cli_main(argv)
    if code != 0:
        sys.exit(f"{what} failed with exit code {code}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--quick", action="store_true", help="smaller streams and forests")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    out = Path(args.out)
    streams_dir = out / "streams"
    runs_dir = out / "runs"
    streams_dir.mkdir(parents=True, exist_ok=True)

    stream_files = {}
    for name, spec in stream_specs(args.quick).items():
        cfg_path = streams_dir / f"{name}.synth.json"
        cfg_path.write_text(json.dumps(spec, indent=2))
        stream_path = streams_dir / f"{name}.dsv"
        argv = ["generate", "--config", str(cfg_path), "--out", str(stream_path), "--force", "--quiet"]
        _cli(argv, f"generate {name}")
        stream_files[name] = stream_path
        print(f"stream {name}: {stream_path}")

    for method_id, spec in method_specs(args.quick).items():
        for stream_name, stream_path in stream_files.items():
            run_dir = runs_dir / f"{method_id}__{stream_name}"
            config = {
                "method_id": method_id,
                "stream": {"path": str(stream_path)},
                "seed": args.seed,
                **spec,
            }
            cfg_path = run_dir.with_suffix(".json")
            run_dir.parent.mkdir(parents=True, exist_ok=True)
            cfg_path.write_text(json.dumps(config, indent=2))
            argv = ["run", "--config", str(cfg_path), "--out", str(run_dir), "--force"]
            _cli(argv, f"run {method_id} on {stream_name}")

    print("\nranking across streams:")
    _cli(["report", str(runs_dir), "--out", str(out), "--force"], "report")


if __name__ == "__main__":
    main()
