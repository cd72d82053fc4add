"""Turning raw CSV files and synthetic generators into canonical streams.

Canonical stream file layout (text, debuggable, CSV after the first line):

    #schema {"features": [{"name": ..., "kind": ...}, ...], "classes": [...], "target": ...}
    <feature names...>,<target name>
    <float>,...,<class label text>

Preprocessing collects categories and imputation statistics over the whole
file, encodes categorical columns one-hot (one output column per observed
category, missing values mapped to a dedicated category first), imputes
missing numeric values with the whole-file mode and drops rows whose target
is missing. It works a column at a time: each column's distinct texts are
parsed and encoded once, a categorical text into its whole one-hot block and
a numeric text into its ``repr``, and each output line joins those pieces
with the csv-quoted class label. Re-encoding a canonical file is a
byte-level no-op.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from datetime import datetime
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import ConfigError, DataError, FeatureKind, Instance, Schema, SchemaError, is_number, reading

SCHEMA_PREFIX = "#schema "

#: Csv rows ``replay`` reads and parses at a time.
BLOCK_ROWS = 256

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
        kinds = {"target_column": str, "missing_category_label": str, "datetime_format": (str, type(None))}
        for key, kind in kinds.items():
            if not isinstance(value := getattr(self, key), kind):
                raise ConfigError(f"{key} must be a string{'' if kind is str else ' or null'}, got {value!r}")
        for key in ("datetime_columns", "categorical_columns", "drop_columns"):
            if not isinstance(value := getattr(self, key), list) or not all(isinstance(v, str) for v in value):
                raise ConfigError(f"{key} must be a list of strings, got {value!r}")
        roles = (("drop", self.drop_columns), ("datetime", self.datetime_columns))
        for role, names in (*roles, ("categorical", self.categorical_columns)):
            if self.target_column in names:
                raise ConfigError(f"target column {self.target_column!r} must not appear in {role}_columns")
        for role, names in roles:
            if clash := [name for name in self.categorical_columns if name in names]:
                raise ConfigError(f"column {clash[0]!r} is listed both as categorical and in {role}_columns")


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
        pts = list(self.drift_points)
        for key in ("n_instances", "n_features", "n_classes", "gradual_width", "seed"):
            if not is_number(value := getattr(self, key), integral=True):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if not all(is_number(p, integral=True) for p in pts):
            raise ConfigError(f"drift_points must be integers, got {pts!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.n_classes < 2:
            raise ConfigError("synthetic streams need at least two classes")
        if self.n_instances < 1 or self.n_features < 1:
            raise ConfigError("n_instances and n_features must be positive")
        if pts != sorted(set(pts)) or any(p < 0 or p >= self.n_instances for p in pts):
            raise ConfigError("drift_points must be strictly increasing and < n_instances")
        if self.drift_kind not in ("abrupt", "gradual"):
            raise ConfigError(f"unknown drift_kind {self.drift_kind!r}")
        if self.drift_kind == "gradual" and self.gradual_width < 1:
            raise ConfigError("gradual drift needs gradual_width >= 1")
        sep = self.class_separation
        if not is_number(sep) or not 0 <= sep <= MAX_CLASS_SEPARATION:
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
    label_ends = tuple(map(_csv_row_end, schema.class_labels))
    lines = (
        ",".join([*map(repr, map(float, x.tolist() if isinstance(x, np.ndarray) else x)), label_ends[y]])
        for x, y in zip(rows, labels)
    )
    return _write_lines(path, schema, target_name, lines)


def _csv_row_end(label: str) -> str:
    """``label`` as the csv module writes it as the last field of a row, line end included.

    Class labels are never empty, so a label's quoting does not depend on the
    fields before it, and float ``repr`` fields never need quoting.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([label])
    return buf.getvalue()


def _write_lines(path: str | Path, schema: Schema, target_name: str, lines: Iterable[str]) -> Path:
    """Write the manifest, the header and the data ``lines`` (each ending in a newline)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(_manifest_line(schema, target_name) + "\n")
        csv.writer(fh, lineterminator="\n").writerow([*schema.feature_names, target_name])
        fh.writelines(lines)
    return path


def stream_schema(path: str | Path) -> Schema:
    """Read only the embedded schema manifest of a canonical stream file."""
    with reading(path, DataError, "stream file"), Path(path).open() as fh:
        first = fh.readline()
    if not first.startswith(SCHEMA_PREFIX):
        raise DataError(f"{path}: missing schema manifest line")
    try:
        manifest = json.loads(first[len(SCHEMA_PREFIX):])
        features = manifest["features"]
        schema = Schema(
            feature_names=tuple(f["name"] for f in features),
            feature_kinds=tuple(FeatureKind(f["kind"]) for f in features),
            class_labels=tuple(manifest["classes"]),
        )
    except (ValueError, KeyError, TypeError, SchemaError) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"{path}: malformed schema manifest: {type(exc).__name__}: {exc}") from None
    if not schema.feature_names:
        raise DataError(f"{path}: schema manifest lists no features")
    return schema


def replay(path: str | Path) -> Iterator[Instance]:
    """Yield the stored instances in order, with seq equal to row position.

    Rows are parsed ``BLOCK_ROWS`` at a time, so memory use is bounded by one
    block, and each ``x`` is a row of its block's (rows x features) array.
    Malformed rows, including rows with a nan or infinite feature value or a
    field longer than the csv module's limit, raise a DataError naming the
    offending row once the rows before it are yielded; bytes that do not
    decode raise one naming the file.
    """
    path = Path(path)
    schema = stream_schema(path)
    label_index = {label: i for i, label in enumerate(schema.class_labels)}
    width = schema.n_features + 1
    with reading(path, DataError, "stream file"), path.open(newline="") as fh:
        fh.readline()  # manifest
        reader = csv.reader(fh)
        try:
            next(reader, None)  # header row
        except csv.Error as exc:
            raise DataError(f"{path}: row {reader.line_num + 1}: {exc}") from None
        number, seq = 3, 0  # the file row of the block's first csv row
        while True:
            block: list[list[str]] = []
            failure = None
            try:
                block.extend(islice(reader, BLOCK_ROWS))  # keeps the rows read before an error
            except csv.Error as exc:
                failure = DataError(f"{path}: row {reader.line_num + 1}: {exc}")
            rows = list(filter(None, block))  # blank lines hold no instance
            try:
                parsed = [_parse_rows(rows, width, label_index)] if rows else []
            except ValueError:
                parsed = _rows_before_fault(path, block, number, width, label_index)
            for x, y in parsed:
                for row, label in zip(x, y):
                    yield Instance(x=row, y=label, seq=seq)
                    seq += 1
            if failure is not None:
                raise failure
            if len(block) < BLOCK_ROWS:
                return
            number += BLOCK_ROWS


def _rows_before_fault(
    path: Path, block: list[list[str]], number: int, width: int, label_index: dict[str, int]
) -> Iterator[tuple[np.ndarray, list[int]]]:
    """The non-empty rows of ``block``, whose first row is file row ``number``, parsed one at a time
    up to the first that fails; that one raises a DataError naming it."""
    for row_number, row in enumerate(block, start=number):
        if row:
            try:
                one = _parse_rows([row], width, label_index)
            except ValueError as exc:
                raise DataError(f"{path}: row {row_number}: {exc}") from None
            yield one


def _parse_rows(rows: list[list[str]], width: int, label_index: dict[str, int]) -> tuple[np.ndarray, list[int]]:
    """The (rows x features) float array and the class indices of non-empty csv rows.

    Each check covers every row before the next runs: field count, float
    parse, finiteness, class label. The first to fail raises a ValueError
    whose message, for a single row, is the complaint about that row.
    """
    if widths := set(map(len, rows)) - {width}:
        raise ValueError(f"expected {width} fields, got {widths.pop()}")
    x = np.array(list(map(itemgetter(slice(None, -1)), rows)), dtype=float)  # float()'s parse and ValueError
    if not np.isfinite(x).all():
        raise ValueError("non-finite feature value")
    labels = list(map(itemgetter(-1), rows))
    y = list(map(label_index.get, labels))
    if None in y:
        raise ValueError(f"unknown class label {labels[y.index(None)]!r}")
    return x, y


def _numeric_mode(values: Sequence[float]) -> float:
    """Most frequent value; ties resolve to the smallest value."""
    uniques, counts = np.unique(np.asarray(values, dtype=float), return_counts=True)
    return float(uniques[np.argmax(counts)])  # uniques are sorted, argmax takes the smallest tie


def _read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with reading(path, DataError, "input file"), path.open(newline="") as fh:
        try:
            manifest = fh.readline().startswith(SCHEMA_PREFIX)
            if not manifest:
                fh.seek(0)
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [row for row in reader if row]
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
    if not feature_columns:
        raise DataError(
            f"{raw_path}: no feature columns remain once the target, datetime and drop columns are removed"
        )
    categorical = [name for name in feature_columns if name in config.categorical_columns]
    numeric = [name for name in feature_columns if name not in categorical]
    columns = list(zip(*rows))  # in file order, like every check below

    # Each distinct text of a numeric column is parsed once (None marks a missing cell).
    parsed = _parse_once(
        [columns[col_index[name]] for name in numeric],
        lambda text: None if text.strip().lower() in _MISSING_MARKERS else float(text),
        lambda i, text, _: f"{raw_path}: column {numeric[i]!r} has non-numeric value {text!r}; "
        "declare it categorical or drop it",
    )

    # One output piece per distinct text: a float repr, or a whole one-hot block.
    pieces: dict[str, dict[str, str]] = {}
    binary: dict[str, bool] = {}
    for name, values in zip(numeric, parsed):
        column = columns[col_index[name]]
        present = [v for v in values.values() if v is not None]
        if not present:
            raise DataError(f"{raw_path}: numeric column {name!r} has no usable values")
        if not all(map(math.isfinite, present)):
            text = next(t for t, v in values.items() if v is not None and not math.isfinite(v))
            row = column.index(text)
            raise DataError(f"{raw_path}: row {numbered[row][0]}: column {name!r} has non-finite value {text!r}")
        if len(present) < len(values):
            # The mode over every present cell in file order, not over the distinct
            # values: which of -0.0 and 0.0 np.unique keeps depends on the cells' order.
            cells = np.fromiter(map({t: math.nan if v is None else v for t, v in values.items()}.get, column), float)
            mode = _numeric_mode(cells[~np.isnan(cells)])
            values = {t: mode if v is None else v for t, v in values.items()}
        pieces[name] = {t: repr(v) for t, v in values.items()}
        binary[name] = all(v in (0.0, 1.0) for v in present)  # the mode is one of them
    categories: dict[str, list[str]] = {}
    for name in categorical:
        observed = {
            t: t if t.strip() != "" else config.missing_category_label
            for t in dict.fromkeys(columns[col_index[name]])
        }
        categories[name] = cats = sorted(dict.fromkeys(observed.values()))
        pieces[name] = {t: ",".join("1.0" if o == cat else "0.0" for cat in cats) for t, o in observed.items()}

    order = None
    if config.datetime_columns:
        keys = [columns[col_index[name]] for name in config.datetime_columns]
        order = _chronological_order(raw_path, keys, config.datetime_format)

    # Output column layout: original order, categoricals expanded in place.
    _check_unique_names(raw_path, feature_columns, categories)
    out_names: list[str] = []
    kinds: list[FeatureKind] = []
    for name in feature_columns:
        if name in categories:
            out_names += [f"{name}={cat}" for cat in categories[name]]
            kinds += [FeatureKind.BINARY] * len(categories[name])
        else:
            out_names.append(name)
            kinds.append(FeatureKind.BINARY if binary[name] else FeatureKind.NUMERIC)

    target = columns[target_i]
    class_labels = sorted(dict.fromkeys(target))
    label_ends = dict(zip(class_labels, map(_csv_row_end, class_labels)))
    encoded = [list(map(pieces[name].__getitem__, columns[col_index[name]])) for name in feature_columns]
    lines = list(map(",".join, zip(*encoded, map(label_ends.__getitem__, target))))
    if order is not None:
        lines = [lines[i] for i in order]
    schema = Schema(feature_names=tuple(out_names), feature_kinds=tuple(kinds), class_labels=tuple(class_labels))
    out = _write_lines(out_path, schema, config.target_column, lines)
    return schema, out


def _chronological_order(raw_path: Path, columns: list[tuple[str, ...]], datetime_format: str | None) -> list[int]:
    """Row positions in stable order of the datetime columns' keys, parsed with ``datetime_format`` if given."""
    keys = columns
    if datetime_format:
        parsed = _parse_once(
            columns,
            lambda text: datetime.strptime(text, datetime_format),
            lambda _, text, exc: f"{raw_path}: bad datetime {text!r}: {exc}",
        )
        keys = [list(map(values.__getitem__, column)) for values, column in zip(parsed, columns)]
    row_keys = list(zip(*keys))
    return sorted(range(len(row_keys)), key=row_keys.__getitem__)


def _parse_once(
    columns: Sequence[Sequence[str]], parse: Callable[[str], object], complaint: Callable[[int, str, ValueError], str]
) -> list[dict]:
    """Each column's distinct texts mapped through ``parse``, which parses each text once.

    Distinct texts come in order of first appearance, so a column's first text
    that ``parse`` refuses with a ValueError is its first unparsable cell. The
    first such cell in row-major order raises a DataError with the message
    ``complaint(column position, text, error)``.
    """
    parsed, first_bad = [], None
    for position, column in enumerate(columns):
        parsed.append(values := {})
        for text in dict.fromkeys(column):
            try:
                values[text] = parse(text)
            except ValueError as exc:
                bad = (column.index(text), position, text, exc)  # positions differ, so min never compares exc
                first_bad = bad if first_bad is None else min(first_bad, bad)
                break
    if first_bad is not None:
        raise DataError(complaint(*first_bad[1:]))
    return parsed


def _check_unique_names(raw_path: Path, feature_columns: list[str], categories: dict[str, list[str]]) -> None:
    """Refuse a header that repeats a feature column, or two columns encoded to one feature name."""
    repeated = [name for name, n in Counter(feature_columns).items() if n > 1]
    if repeated:
        raise DataError(f"{raw_path}: the header repeats feature column {', '.join(map(repr, repeated))}")
    sources: dict[str, list[str]] = {}
    for name in feature_columns:
        if name in categories:
            for cat in categories[name]:
                sources.setdefault(f"{name}={cat}", []).append(f"category {cat!r} of column {name!r}")
        else:
            sources.setdefault(name, []).append(f"column {name!r}")
    clashes = [f"{out!r} from {' and '.join(where)}" for out, where in sources.items() if len(where) > 1]
    if clashes:
        raise DataError(f"{raw_path}: duplicate feature names: {'; '.join(clashes)}")


def _synthetic_parts(config: SynthConfig) -> tuple[Schema, np.ndarray, np.ndarray]:
    """Schema, label vector and (rows x features) array for a synthetic config.

    Each row is its class's mean plus unit Gaussian noise. The means are set
    one drift segment at a time, from a drift point up to the next: for gradual
    drift the segment's first ``gradual_width`` rows interpolate toward the new
    class-to-mean assignment, and every later row takes it.
    """
    rng = np.random.default_rng(config.seed)
    k, d, n = config.n_classes, config.n_features, config.n_instances
    means = rng.normal(size=(k, d))
    means *= config.class_separation / np.linalg.norm(means, axis=1, keepdims=True)

    assignments = [np.arange(k)]  # class -> mean row, before and after each drift point
    for _ in config.drift_points:
        perm = rng.permutation(k)
        while np.array_equal(perm, assignments[-1]):
            perm = rng.permutation(k)
        assignments.append(perm)

    schema = Schema(
        feature_names=tuple(f"f{j}" for j in range(d)),
        feature_kinds=tuple(FeatureKind.NUMERIC for _ in range(d)),
        class_labels=tuple(f"c{c}" for c in range(k)),
    )
    labels = rng.integers(0, k, size=n)
    rows = means[labels]
    width = config.gradual_width if config.drift_kind == "gradual" else 0
    ends = [*config.drift_points[1:], n]
    for start, end, before, after in zip(config.drift_points, ends, assignments, assignments[1:]):
        stop = min(start + width, end)
        t = (np.arange(1, stop - start + 1) / width)[:, None]
        y = labels[start:stop]
        rows[start:stop] = (1.0 - t) * means[before[y]] + t * means[after[y]]
        rows[stop:end] = means[after[labels[stop:end]]]
    rows += rng.normal(size=(n, d))
    return schema, labels, rows


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
