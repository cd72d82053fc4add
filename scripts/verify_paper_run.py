"""Run one catalog-scale experiment in memory and check its output bytes against pinned SHA-256s.

The run is the 7-member WV-RF ensemble at the catalog's settings (RF of 100
trees, windows of 10,000) over a 40,000-row synthetic stream: 8 features, 3
classes, an abrupt drift at row 20,000, stream seed 5, run seed 1. It fits
forests of 100 trees on 20,000 rows and more, which no golden test does. The
script prints the run's wall time and the count and wall time of its
random-forest fits, then checks the SHA-256 of ``report.json``, ``trace.csv``
and ``events.csv``. It exits 1 when one differs, and names each file that does:

    PYTHONPATH=src python scripts/verify_paper_run.py [--one-cpu]

``--one-cpu`` runs the check in a child process pinned to one CPU with
``sched_setaffinity``, where a forest grows every tree in one process instead
of in forked shares. Both ways must give the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import os
import sys
import tempfile
import time
from pathlib import Path

from driftstream.experiment import parse_config, run_experiment
from driftstream.learners import RandomForestClassifier

CONFIG = {
    "stream": {"synthetic": {"n_instances": 40000, "n_features": 8, "n_classes": 3, "drift_points": [20000], "seed": 5}},
    "method": {"type": "ensemble", "batch_algorithm": "rf", "combiner": "wv"},
    "seed": 1,
}

#: The SHA-256 of each checked file of the run of ``CONFIG``.
PINNED = {
    "report.json": "34473b260831b365201d882ce1839047c4c10eb10ffe770360f8156d5aa21851",
    "trace.csv": "0fe479c350679340ad3248799ff948eeb444812f1b514cf3d4db9cc40cd66fd3",
    "events.csv": "c440f68c1fc632780f7d953a635261444751881767487663e24eeed83b57a28c",
}


def run_hashes(config: dict, names) -> tuple[dict[str, str], float, int, float]:
    """Run ``config``; return the SHA-256 of each named run file, the wall time, and the count and time of RF fits."""
    fit, fits = RandomForestClassifier.fit, [0, 0.0]

    def timed_fit(self, X, y):
        t0 = time.perf_counter()
        try:
            return fit(self, X, y)
        finally:
            fits[0] += 1
            fits[1] += time.perf_counter() - t0

    RandomForestClassifier.fit = timed_fit
    try:
        with tempfile.TemporaryDirectory() as out:
            t0 = time.perf_counter()
            run_experiment(parse_config(config), out)
            wall = time.perf_counter() - t0
            hashes = {name: hashlib.sha256((Path(out) / name).read_bytes()).hexdigest() for name in names}
    finally:
        RandomForestClassifier.fit = fit
    return hashes, wall, fits[0], fits[1]


def verify(config: dict, pinned: dict[str, str]) -> list[str]:
    """Run ``config``, print its timings and every file whose SHA-256 differs from ``pinned``; return those files."""
    hashes, wall, n_fits, fit_s = run_hashes(config, pinned)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"wall_s={wall:.2f} rf_fits={n_fits} rf_fit_s={fit_s:.2f} cpus={cpus}", flush=True)
    differ = [name for name in pinned if hashes[name] != pinned[name]]
    for name in differ:
        print(f"{name} differs: sha256 {hashes[name]}, pinned {pinned[name]}", flush=True)
    if not differ:
        print(f"same bytes: {', '.join(pinned)}", flush=True)
    return differ


def _check_on_one_cpu(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    sys.exit(1 if verify(CONFIG, PINNED) else 0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--one-cpu", action="store_true", help="run the check in a child process pinned to one CPU")
    args = parser.parse_args(argv)
    if args.one_cpu:
        if not hasattr(os, "sched_setaffinity"):
            parser.error("--one-cpu needs os.sched_setaffinity, which this platform lacks")
        child = multiprocessing.get_context("spawn").Process(
            target=_check_on_one_cpu, args=(min(os.sched_getaffinity(0)),))
        child.start()
        child.join()
        return child.exitcode
    return 1 if verify(CONFIG, PINNED) else 0


if __name__ == "__main__":
    raise SystemExit(main())
