"""Time one-process random-forest fits on a fixed, seeded synthetic stream.

Each fit grows a forest of ``--trees`` trees (forest seed 1) on the last
``--rows`` rows of a 40,000-row synthetic stream: 8 features, 3 classes, an
abrupt drift at row 20,000, stream seed 5. Forking is off, so a fit runs in
this process alone. Every fit prints its wall time and the SHA-256 of the
forest's node arrays, so two checkouts can be run in alternating pairs and
their forests compared:

    PYTHONPATH=src python scripts/time_forest_fit.py --trees 100 --rows 20000 --repeat 3
"""

from __future__ import annotations

import argparse
import hashlib
import time

from driftstream.ingest import SynthConfig, _synthetic_parts
from driftstream.learners import RandomForestClassifier
from driftstream.learners import cart

STREAM = SynthConfig(n_instances=40_000, n_features=8, n_classes=3, drift_points=[20_000], seed=5)


def forest_sha256(forest: RandomForestClassifier) -> str:
    digest = hashlib.sha256()
    for tree in forest.trees:
        for name in cart._NODE_ARRAYS:
            digest.update(getattr(tree, name).tobytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trees", type=int, default=100, help="trees per forest (default 100)")
    parser.add_argument("--rows", type=int, default=2500, help="rows per fit, at most 40000 (default 2500)")
    parser.add_argument("--repeat", type=int, default=1, help="fits to time (default 1)")
    args = parser.parse_args(argv)
    if not 1 <= args.rows <= STREAM.n_instances or args.trees < 1 or args.repeat < 1:
        parser.error(f"--trees and --repeat must be positive and --rows in [1, {STREAM.n_instances}]")
    schema, labels, rows = _synthetic_parts(STREAM)
    X, y = rows[-args.rows :], labels[-args.rows :]
    cart._workers = lambda n_trees, n_rows: 1  # one process: no forked shares
    for _ in range(args.repeat):
        forest = RandomForestClassifier(schema, n_trees=args.trees, seed=1)
        t0 = time.perf_counter()
        forest.fit(X, y)
        fit_s = time.perf_counter() - t0
        print(f"RF({args.trees}) rows={args.rows} fit_s={fit_s:.3f} sha256={forest_sha256(forest)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
