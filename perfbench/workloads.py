"""The benchmark's workloads: seeded inputs and the method config each one runs.

Every workload is a function of the workload seed only. The program receives
the files and config dicts built here and nothing else: synthetic rows that
its `write_stream` writes as a stream file, or a raw CSV plus an ingest config
for `preprocess_csv`, and an experiment config for `parse_config`.

The seed draws the rows: labels, noise, blank cells, row order. The shape of
the data (class means, category probabilities, where the drift falls) is
fixed, because forest size follows the class geometry: with class means drawn
from the seed, as `generate_synthetic` does, forests fit on the same number
of rows differed 2.7x in node count between seeds, and the benchmark would
measure the seed instead of the code.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from driftstream.core import FeatureKind, Schema


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_instances: int  # rows the program replays per round
    method: dict
    run_options: dict = field(default_factory=dict)
    synthetic: dict | None = None  # `synthetic_rows` arguments
    raw_rows: int = 0  # rows of the raw CSV (wide workload only)
    retrains: bool = True  # False for a train-once method


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wv-rf-abrupt",
            why="7-member WV-RF ensemble in which every batch member checks and retrains; forest fit and predict dominate",
            n_instances=10000,
            synthetic=dict(n_features=8, n_classes=3, drift_point=3750),
            method={
                "type": "ensemble",
                "batch_algorithm": "rf",
                "batch_params": {"n_trees": 20},
                "strategies": [
                    {"id": "S4", "s": 1250},
                    {"id": "S5", "s": 1250},
                    {"id": "S6", "s": 2500},
                    {"id": "S7", "s": 2500},
                ],
                "combiner": "wv",
            },
            run_options={"first_fit_size": 1250, "cache_cap": 1250},
        ),
        Workload(
            name="rf-b1-gradual",
            why="single train-once RF-B1 (100 trees) over a gradual drift; the frozen-forest predict path",
            n_instances=10000,
            synthetic=dict(n_features=8, n_classes=3, drift_point=5000, gradual_width=2000),
            method={"type": "batch", "algorithm": "rf", "strategy": "B1"},
            retrains=False,
        ),
        Workload(
            name="ds-gnb-wide",
            why="DS ensemble of batch GNB on a preprocessed 68-column CSV; ingest, all five tests and online learners, no RF",
            n_instances=0,  # set by preprocessing: raw rows minus missing-target rows
            raw_rows=10300,
            method={
                "type": "ensemble",
                "batch_algorithm": "gnb",
                "strategies": [
                    {"id": "S4", "s": 500},
                    {"id": "S5", "s": 500},
                    {"id": "S6", "s": 2000},
                    {"id": "S7", "s": 2000},
                ],
                "combiner": "ds",
            },
            run_options={"first_fit_size": 1000},
        ),
    )
}


def experiment_config(workload: Workload, stream_path: Path, seed: int) -> dict:
    """The `driftstream run` config for one workload over a replayed file."""
    return {"stream": {"path": str(stream_path)}, "method": workload.method, "seed": seed, **workload.run_options}


# -- synthetic streams ------------------------------------------------------

#: Distance of each class mean from the origin, on its own axis.
CLASS_SEPARATION = 3.0


def synthetic_rows(
    n: int, seed: int, n_features: int, n_classes: int, drift_point: int, gradual_width: int = 0
) -> tuple[Schema, np.ndarray, np.ndarray]:
    """Class-conditional Gaussians whose class-to-mean map rotates at the drift.

    Class c has its mean on axis c. From `drift_point` on, class c takes the
    mean of class c-1: at once, or blended in linearly over `gradual_width`
    rows.
    """
    means = np.zeros((n_classes, n_features))
    means[np.arange(n_classes), np.arange(n_classes)] = CLASS_SEPARATION
    rotated = np.roll(means, 1, axis=0)
    rng = np.random.default_rng(seed)
    y = rng.integers(0, n_classes, size=n)
    rows = np.arange(n)
    if gradual_width:
        t = np.clip((rows - drift_point + 1) / gradual_width, 0.0, 1.0)
    else:
        t = (rows >= drift_point).astype(float)
    X = (1.0 - t)[:, None] * means[y] + t[:, None] * rotated[y] + rng.normal(size=(n, n_features))
    schema = Schema(
        feature_names=tuple(f"f{j}" for j in range(n_features)),
        feature_kinds=(FeatureKind.NUMERIC,) * n_features,
        class_labels=tuple(f"c{c}" for c in range(n_classes)),
    )
    return schema, X, y


# -- the wide raw CSV ------------------------------------------------------

#: Categorical columns of the wide CSV and their category counts.
CATEGORICALS = {
    "purpose": 7,
    "weather": 6,
    "region": 8,
    "vehicle": 5,
    "income_band": 7,
    "age_band": 6,
    "household": 5,
    "occupation": 8,
}
CONTINUOUS = ("distance_km", "duration_min", "speed", "cost")
FEW_UNIQUE = ("companions", "transfers", "rating")
CLASSES = ("bike", "bus", "car", "walk")
START_DAY = date(2021, 1, 1)
ROWS_PER_DAY = 40
SHAPE_SEED = 20240417


@dataclass(frozen=True)
class WideInput:
    raw_path: Path
    ingest: dict  # IngestConfig fields
    raw_rows: int
    missing_target_rows: int


def write_wide_csv(path: Path, n_rows: int, seed: int) -> WideInput:
    """Seeded raw CSV for `ds-gnb-wide`.

    Rows are made in time order, with the class-conditional distributions of
    every column (fixed, drawn from `SHAPE_SEED`) switching at the middle row, and then written shuffled, so
    the program's date sort recovers the drift. `day_index` is the day offset
    of `date` and has no gaps, so it is non-decreasing once sorted. Numeric
    columns have blank cells (imputed by the program), categoricals have blank
    cells (their own one-hot category), and about 1 % of targets are blank.
    """
    shape = np.random.default_rng(SHAPE_SEED)  # the fixed shape of the data
    rng = np.random.default_rng(seed)
    k = len(CLASSES)
    drift_row = n_rows // 2
    y = rng.integers(0, k, size=n_rows)
    after = np.arange(n_rows) >= drift_row

    columns: dict[str, list[str]] = {}
    for name, n_cat in CATEGORICALS.items():
        probs = shape.dirichlet(np.full(n_cat, 0.6), size=(2, k))  # (regime, class) -> category probs
        cats = np.empty(n_rows, dtype=int)
        for regime in (0, 1):
            for c in range(k):
                rows = np.nonzero((after == bool(regime)) & (y == c))[0]
                cats[rows] = rng.choice(n_cat, size=rows.size, p=probs[regime, c])
        cells = [f"{name[:3]}_{v}" for v in cats]
        for i in np.nonzero(rng.random(n_rows) < 0.03)[0]:
            cells[i] = ""
        columns[name] = cells
    for name in CONTINUOUS:
        means = shape.normal(scale=2.0, size=(2, k))
        values = means[after.astype(int), y] + rng.normal(size=n_rows)
        cells = [repr(round(float(v), 4)) for v in values]
        for i in np.nonzero(rng.random(n_rows) < 0.02)[0]:
            cells[i] = ""
        columns[name] = cells
    for name in FEW_UNIQUE:
        shift = shape.integers(0, 3, size=(2, k))
        values = np.clip(shift[after.astype(int), y] + rng.integers(0, 2, size=n_rows), 0, 4)
        cells = [str(int(v)) for v in values]
        for i in np.nonzero(rng.random(n_rows) < 0.02)[0]:
            cells[i] = ""
        columns[name] = cells

    targets = [CLASSES[c] for c in y]
    missing = np.nonzero(rng.random(n_rows) < 0.01)[0]
    for i in missing:
        targets[i] = ""
    days = np.arange(n_rows) // ROWS_PER_DAY

    header = ["respondent_id", "date", "day_index", *CONTINUOUS, *FEW_UNIQUE, *CATEGORICALS, "mode"]
    order = rng.permutation(n_rows)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in order:
            day = int(days[i])
            writer.writerow(
                [f"r{i:06d}", (START_DAY + timedelta(days=day)).isoformat(), day]
                + [columns[c][i] for c in CONTINUOUS]
                + [columns[c][i] for c in FEW_UNIQUE]
                + [columns[c][i] for c in CATEGORICALS]
                + [targets[i]]
            )
    ingest = {
        "target_column": "mode",
        "datetime_columns": ["date"],
        "datetime_format": "%Y-%m-%d",
        "categorical_columns": list(CATEGORICALS),
        "drop_columns": ["respondent_id"],
    }
    return WideInput(raw_path=path, ingest=ingest, raw_rows=n_rows, missing_target_rows=int(missing.size))
