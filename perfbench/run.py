"""Prequential benchmark of driftstream: replayed workloads, timed and traced.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from `src/`.
One workload runs in this process. `--workload all` (the default) runs each
workload in a fresh process of its own, one after the other.

A round is one prequential pass, the way `driftstream run` makes it: the
program writes or preprocesses the stream file, `parse_config` reads the
experiment config and `run_experiment` replays the file and writes the run
artifacts. Every round of a run replays the same file, so each round does
the same work; a run makes as many whole rounds as fit in `--seconds`, and
at least two. Every time is divided by the machine's speed factor measured
around it (see speed.py) and reported as a median over rounds or set-ups.

With `--trace 0` it prints the end-to-end metrics. With `--trace 1` it
alternates untraced and traced rounds and prints the per-layer metrics. The
last line of standard output is one JSON object: correct, attempted, failed
and metrics. The exit code is 1 when an output check fails and 2 when the
package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: One thread everywhere: the loop is sequential, and pinned pools keep
#: timings apart from the machine's core count.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOAD_NAMES = ("wv-rf-abrupt", "rf-b1-gradual", "ds-gnb-wide")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "driftstream" / "__init__.py").is_file():
        print(f"error: no driftstream package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    from bench import run_workload  # imports numpy, so after the pins

    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), WORK)


def run_all(args) -> int:
    """Each workload in a fresh process; a summary table at the end."""
    status = 0
    summary = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            summary.append((name, json.loads(lines[-1])))
    print("== summary")
    for name, result in summary:
        metrics = ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {metrics}")
    return status


if __name__ == "__main__":
    sys.exit(main())
