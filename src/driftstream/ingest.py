"""Turning raw CSV files and synthetic generators into canonical streams.

Canonical stream file layout (text, debuggable, CSV after the first line):

    #schema {"features": [{"name": ..., "kind": ...}, ...], "classes": [...], "target": ...}
    <feature names...>,<target name>
    <float>,...,<class label text>

Preprocessing collects categories and imputation statistics in a full first
pass over the file, encodes categorical columns one-hot (one output column
per observed category, missing values mapped to a dedicated category first),
imputes missing numeric values with the whole-file mode and drops rows whose
target is missing. Re-encoding a canonical file is a byte-level no-op.
"""

from __future__ import annotations

import csv
import json
import numbers
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .core import ConfigError, DataError, FeatureKind, Instance, Schema

SCHEMA_PREFIX = "#schema "

#: Largest accepted ``SynthConfig.class_separation``. Class means farther apart
#: than this, in units of the unit-variance noise, separate the classes no
#: better; and from about 1e154 on, the squared deviations that the learners
#: and drift tests sum overflow to inf.
MAX_CLASS_SEPARATION = 1e6

#: Cell values treated as missing in numeric columns.
_MISSING_MARKERS = {"", "?", "na", "n/a", "nan", "none", "null"}


@dataclass
class IngestConfig:
    """How to turn one raw CSV file into a canonical stream."""

    target_column: str
    datetime_columns: list[str] = field(default_factory=list)
    categorical_columns: list[str] = field(default_factory=list)
    drop_columns: list[str] = field(default_factory=list)
    missing_category_label: str = "Don't know / Refuse to answer"
    datetime_format: str | None = None

    def __post_init__(self) -> None:
        if self.target_column in self.drop_columns:
            raise ConfigError("target_column must not appear in drop_columns")


@dataclass
class SynthConfig:
    """Seeded synthetic drifting stream of class-conditional Gaussians.

    Class mean vectors are drawn once from the seed; at every drift point the
    class-to-mean assignment permutes (abrupt) or interpolates linearly over
    ``gradual_width`` instances toward the permuted assignment (gradual).
    Each class mean lies ``class_separation`` from the origin.
    """

    n_instances: int
    n_features: int
    n_classes: int
    drift_points: list[int] = field(default_factory=list)
    drift_kind: str = "abrupt"  # "abrupt" | "gradual"
    gradual_width: int = 0
    seed: int = 0
    class_separation: float = 3.0

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ConfigError("synthetic streams need at least two classes")
        if self.n_instances < 1 or self.n_features < 1:
            raise ConfigError("n_instances and n_features must be positive")
        pts = list(self.drift_points)
        if pts != sorted(set(pts)) or any(p < 0 or p >= self.n_instances for p in pts):
            raise ConfigError("drift_points must be strictly increasing and < n_instances")
        if self.drift_kind not in ("abrupt", "gradual"):
            raise ConfigError(f"unknown drift_kind {self.drift_kind!r}")
        if self.drift_kind == "gradual" and self.gradual_width < 1:
            raise ConfigError("gradual drift needs gradual_width >= 1")
        sep = self.class_separation
        if isinstance(sep, bool) or not isinstance(sep, numbers.Real) or not 0 <= sep <= MAX_CLASS_SEPARATION:
            # Also refuses nan and inf, which would make every feature value nan or inf.
            raise ConfigError(f"class_separation must be a number in [0, {MAX_CLASS_SEPARATION:g}], got {sep!r}")


def config_from_dict(cls, data: dict):
    """``cls(**data)`` for a config read from JSON; an unknown key or a bad value is a ConfigError."""
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {cls.__name__}: {exc}") from None


def _manifest_line(schema: Schema, target_name: str) -> str:
    manifest = {
        "features": [
            {"name": n, "kind": k.value} for n, k in zip(schema.feature_names, schema.feature_kinds)
        ],
        "classes": list(schema.class_labels),
        "target": target_name,
    }
    return SCHEMA_PREFIX + json.dumps(manifest)


def write_stream(
    path: str | Path,
    schema: Schema,
    rows: Iterator[Sequence[float]] | Sequence[Sequence[float]],
    labels: Sequence[int],
    target_name: str = "target",
) -> Path:
    """Write a canonical stream file; labels are class indices."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(_manifest_line(schema, target_name) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(schema.feature_names) + [target_name])
        for x, y in zip(rows, labels):
            writer.writerow([repr(float(v)) for v in x] + [schema.class_labels[y]])
    return path


def _undecodable(path: Path, exc: UnicodeDecodeError) -> DataError:
    bad = exc.object[exc.start:exc.end]
    return DataError(f"{path}: bytes {bad!r} are not {exc.encoding} text ({exc.reason})")


def stream_schema(path: str | Path) -> Schema:
    """Read only the embedded schema manifest of a canonical stream file."""
    try:
        with Path(path).open() as fh:
            first = fh.readline()
    except FileNotFoundError:
        raise DataError(f"stream file not found: {path}") from None
    except (IsADirectoryError, PermissionError) as exc:
        raise DataError(f"cannot read stream file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    if not first.startswith(SCHEMA_PREFIX):
        raise DataError(f"{path}: missing schema manifest line")
    try:
        manifest = json.loads(first[len(SCHEMA_PREFIX):])
        features = manifest["features"]
        return Schema(
            feature_names=tuple(f["name"] for f in features),
            feature_kinds=tuple(FeatureKind(f["kind"]) for f in features),
            class_labels=tuple(manifest["classes"]),
        )
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"{path}: malformed schema manifest: {type(exc).__name__}: {exc}") from None


def replay(path: str | Path) -> Iterator[Instance]:
    """Yield the stored instances in order, with seq equal to row position.

    Memory use is constant in the stream length. Malformed rows, including
    rows with a nan or infinite feature value or a field longer than the csv
    module's limit, raise a DataError naming the offending row; bytes that
    do not decode raise one naming the file.
    """
    path = Path(path)
    schema = stream_schema(path)
    label_index = {label: i for i, label in enumerate(schema.class_labels)}
    n_features = schema.n_features
    with path.open(newline="") as fh:
        fh.readline()  # manifest
        reader = csv.reader(fh)
        seq = 0
        try:
            next(reader, None)  # header row
            for row_number, row in enumerate(reader, start=3):
                if not row:
                    continue
                if len(row) != n_features + 1:
                    raise DataError(f"{path}: row {row_number}: expected {n_features + 1} fields, got {len(row)}")
                try:
                    x = np.array([float(v) for v in row[:-1]])
                except ValueError as exc:
                    raise DataError(f"{path}: row {row_number}: {exc}") from None
                if not np.isfinite(x).all():
                    raise DataError(f"{path}: row {row_number}: non-finite feature value")
                label = row[-1]
                if label not in label_index:
                    raise DataError(f"{path}: row {row_number}: unknown class label {label!r}")
                yield Instance(x=x, y=label_index[label], seq=seq)
                seq += 1
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from None
        except csv.Error as exc:
            raise DataError(f"{path}: row {reader.line_num + 1}: {exc}") from None


def _is_missing_numeric(value: str) -> bool:
    return value.strip().lower() in _MISSING_MARKERS


def _numeric_mode(values: Sequence[float]) -> float:
    """Most frequent value; ties resolve to the smallest value."""
    uniques, counts = np.unique(np.asarray(values, dtype=float), return_counts=True)
    return float(uniques[np.argmax(counts)])  # uniques are sorted, argmax takes the smallest tie


def _read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    with path.open(newline="") as fh:
        try:
            manifest = fh.readline().startswith(SCHEMA_PREFIX)
            if not manifest:
                fh.seek(0)
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [row for row in reader if row]
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from None
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num + manifest}: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty file")
    return header, rows


def preprocess_csv(raw_path: str | Path, config: IngestConfig, out_path: str | Path) -> tuple[Schema, Path]:
    """Encode a raw CSV file into a canonical stream file.

    Rows are sorted by the configured datetime columns (stable, so ties keep
    their original order); datetime columns serve as sort keys only and are
    not emitted as features.
    """
    raw_path = Path(raw_path)
    header, rows = _read_csv_rows(raw_path)
    col_index = {name: i for i, name in enumerate(header)}
    if config.target_column not in col_index:
        raise ConfigError(f"target column {config.target_column!r} not found in {raw_path}")
    for role, names in (
        ("datetime", config.datetime_columns),
        ("drop", config.drop_columns),
        ("categorical", config.categorical_columns),
    ):
        for name in names:
            if name not in col_index:
                raise ConfigError(f"{role} column {name!r} not found in {raw_path}")

    # Rows are numbered by their place among the file's data rows, dropped ones included.
    for number, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise DataError(f"{raw_path}: row {number}: expected {len(header)} fields, got {len(row)}")
    target_i = col_index[config.target_column]
    numbered = [(n, r) for n, r in enumerate(rows, start=1) if r[target_i].strip() != ""]
    rows = [r for _, r in numbered]
    if not rows:
        raise DataError(f"{raw_path}: no rows with a target value remain")

    excluded = set(config.drop_columns) | set(config.datetime_columns) | {config.target_column}
    feature_columns = [name for name in header if name not in excluded]
    categorical = [name for name in feature_columns if name in config.categorical_columns]

    # First pass, in file order: category catalogues and numeric imputation
    # statistics, neither of which depends on the row order.
    categories: dict[str, list[str]] = {}
    numeric_values: dict[str, list[float]] = {name: [] for name in feature_columns if name not in categorical}
    for row in rows:
        for name in feature_columns:
            raw = row[col_index[name]]
            if name in config.categorical_columns:
                value = raw if raw.strip() != "" else config.missing_category_label
                categories.setdefault(name, [])
                if value not in categories[name]:
                    categories[name].append(value)
            elif not _is_missing_numeric(raw):
                try:
                    numeric_values[name].append(float(raw))
                except ValueError:
                    raise DataError(
                        f"{raw_path}: column {name!r} has non-numeric value {raw!r}; "
                        "declare it categorical or drop it"
                    ) from None
    modes = {}
    for name, values in numeric_values.items():
        if not values:
            raise DataError(f"{raw_path}: numeric column {name!r} has no usable values")
        values = np.asarray(values)
        if not np.isfinite(values).all():
            i = col_index[name]
            number, raw = next(
                (n, r[i]) for n, r in numbered if not _is_missing_numeric(r[i]) and not np.isfinite(float(r[i]))
            )
            raise DataError(f"{raw_path}: row {number}: column {name!r} has non-finite value {raw!r}")
        modes[name] = _numeric_mode(values)

    if config.datetime_columns:
        def sort_key(row: list[str]):
            keys = []
            for name in config.datetime_columns:
                value = row[col_index[name]]
                if config.datetime_format:
                    try:
                        keys.append(datetime.strptime(value, config.datetime_format))
                    except ValueError as exc:
                        raise DataError(f"{raw_path}: bad datetime {value!r}: {exc}") from None
                else:
                    keys.append(value)
            return tuple(keys)

        rows.sort(key=sort_key)

    # Output column layout: original order, categoricals expanded in place.
    out_names: list[str] = []
    encoders: list[tuple[str, str | None]] = []  # (source column, category or None)
    for name in feature_columns:
        if name in categorical:
            for cat in sorted(categories[name]):
                out_names.append(f"{name}={cat}")
                encoders.append((name, cat))
        else:
            out_names.append(name)
            encoders.append((name, None))

    class_labels = sorted({row[target_i] for row in rows})
    encoded_rows: list[list[float]] = []
    labels: list[int] = []
    label_index = {label: i for i, label in enumerate(class_labels)}
    binary_possible = [True] * len(out_names)
    for row in rows:
        values: list[float] = []
        for j, (name, cat) in enumerate(encoders):
            raw = row[col_index[name]]
            if cat is not None:
                observed = raw if raw.strip() != "" else config.missing_category_label
                v = 1.0 if observed == cat else 0.0
            elif _is_missing_numeric(raw):
                v = modes[name]
            else:
                v = float(raw)
            if v not in (0.0, 1.0):
                binary_possible[j] = False
            values.append(v)
        encoded_rows.append(values)
        labels.append(label_index[row[target_i]])

    kinds = tuple(
        FeatureKind.BINARY if binary_possible[j] else FeatureKind.NUMERIC for j in range(len(out_names))
    )
    schema = Schema(feature_names=tuple(out_names), feature_kinds=kinds, class_labels=tuple(class_labels))
    out = write_stream(out_path, schema, encoded_rows, labels, target_name=config.target_column)
    return schema, out


def _synthetic_parts(config: SynthConfig) -> tuple[Schema, np.ndarray, "Iterator[np.ndarray]"]:
    """Schema, label vector and feature-row generator for a synthetic config."""
    rng = np.random.default_rng(config.seed)
    k, d = config.n_classes, config.n_features
    means = rng.normal(size=(k, d))
    means *= config.class_separation / np.linalg.norm(means, axis=1, keepdims=True)

    def next_permutation(current: np.ndarray) -> np.ndarray:
        while True:
            perm = rng.permutation(k)
            if not np.array_equal(perm, current):
                return perm

    segments: list[tuple[int, np.ndarray, np.ndarray]] = []  # (start, before, after)
    prev = np.arange(k)
    for point in config.drift_points:
        nxt = next_permutation(prev)
        segments.append((point, prev, nxt))
        prev = nxt

    def means_at(seq: int) -> np.ndarray:
        current = means[np.arange(k)]
        for start, before, after in segments:
            if seq < start:
                break
            if config.drift_kind == "abrupt" or seq >= start + config.gradual_width:
                current = means[after]
            else:
                t = (seq - start + 1) / config.gradual_width
                current = (1.0 - t) * means[before] + t * means[after]
        return current

    schema = Schema(
        feature_names=tuple(f"f{j}" for j in range(d)),
        feature_kinds=tuple(FeatureKind.NUMERIC for _ in range(d)),
        class_labels=tuple(f"c{c}" for c in range(k)),
    )
    labels = rng.integers(0, k, size=config.n_instances)
    noise = rng.normal(size=(config.n_instances, d))

    def rows() -> Iterator[np.ndarray]:
        for seq in range(config.n_instances):
            yield means_at(seq)[labels[seq]] + noise[seq]

    return schema, labels, rows()


def synthetic_instances(config: SynthConfig) -> tuple[Schema, Iterator[Instance]]:
    """In-memory variant of :func:`generate_synthetic` (same seed, same data)."""
    schema, labels, rows = _synthetic_parts(config)

    def instances() -> Iterator[Instance]:
        for seq, (x, y) in enumerate(zip(rows, labels)):
            yield Instance(x=x, y=int(y), seq=seq)

    return schema, instances()


def generate_synthetic(config: SynthConfig, out_path: str | Path) -> tuple[Schema, Path]:
    """Write a seeded synthetic stream; identical configs yield identical bytes."""
    schema, labels, rows = _synthetic_parts(config)
    out = write_stream(out_path, schema, rows, labels.tolist())
    return schema, out
