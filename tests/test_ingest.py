from __future__ import annotations

import csv
import hashlib
import io
import tempfile
from datetime import datetime
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftstream.core import ConfigError, DataError, FeatureKind, Instance, Schema, reading
from driftstream.evaluation import f1_from_pairs
from driftstream.ingest import (
    IngestConfig,
    SynthConfig,
    _manifest_line,
    _read_csv_rows,
    generate_synthetic,
    preprocess_csv,
    replay,
    stream_schema,
    synthetic_instances,
    write_stream,
)
from driftstream.learners import BatchGaussianNB


def write_csv(path, text):
    path.write_text(text)
    return path


def test_one_hot_encoding(tmp_path):
    raw = write_csv(tmp_path / "raw.csv", "color,target\nred,x\nblue,x\nred,y\n")
    schema, out = preprocess_csv(raw, IngestConfig(target_column="target", categorical_columns=["color"]), tmp_path / "s.dsv")
    assert schema.feature_names == ("color=blue", "color=red")
    assert schema.feature_kinds == (FeatureKind.BINARY, FeatureKind.BINARY)
    rows = [inst.x.tolist() for inst in replay(out)]
    assert rows == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]


def test_one_hot_rows_sum_to_one(tmp_path):
    raw = write_csv(
        tmp_path / "raw.csv",
        "c1,c2,target\nred,s,x\nblue,,x\ngreen,t,y\nred,s,y\n",
    )
    schema, out = preprocess_csv(
        raw,
        IngestConfig(target_column="target", categorical_columns=["c1", "c2"], missing_category_label="unknown"),
        tmp_path / "s.dsv",
    )
    c1_cols = [j for j, n in enumerate(schema.feature_names) if n.startswith("c1=")]
    c2_cols = [j for j, n in enumerate(schema.feature_names) if n.startswith("c2=")]
    assert "c2=unknown" in schema.feature_names
    for inst in replay(out):
        assert inst.x[c1_cols].sum() == 1.0
        assert inst.x[c2_cols].sum() == 1.0


def test_numeric_mode_imputation(tmp_path):
    raw = write_csv(tmp_path / "raw.csv", "v,target\n5,x\n?,x\n5,y\n7,y\n")
    _, out = preprocess_csv(raw, IngestConfig(target_column="target"), tmp_path / "s.dsv")
    values = [inst.x[0] for inst in replay(out)]
    assert values == [5.0, 5.0, 5.0, 7.0]


def test_numeric_mode_tie_takes_smallest(tmp_path):
    raw = write_csv(tmp_path / "raw.csv", "v,target\n9,x\n2,x\n9,y\n2,y\n,x\n")
    _, out = preprocess_csv(raw, IngestConfig(target_column="target"), tmp_path / "s.dsv")
    values = [inst.x[0] for inst in replay(out)]
    assert values[-1] == 2.0


def test_rows_with_missing_target_are_dropped(tmp_path):
    raw = write_csv(tmp_path / "raw.csv", "v,target\n1,x\n2,\n3,y\n")
    _, out = preprocess_csv(raw, IngestConfig(target_column="target"), tmp_path / "s.dsv")
    assert len(list(replay(out))) == 2


def test_missing_target_column_is_config_error(tmp_path):
    raw = write_csv(tmp_path / "raw.csv", "v,other\n1,x\n")
    with pytest.raises(ConfigError, match="target"):
        preprocess_csv(raw, IngestConfig(target_column="target"), tmp_path / "s.dsv")


def test_all_rows_missing_target_is_data_error(tmp_path):
    raw = write_csv(tmp_path / "raw.csv", "v,target\n1,\n2,\n")
    with pytest.raises(DataError):
        preprocess_csv(raw, IngestConfig(target_column="target"), tmp_path / "s.dsv")


def test_target_in_drop_columns_rejected():
    with pytest.raises(ConfigError):
        IngestConfig(target_column="t", drop_columns=["t"])


def test_chronological_sort_with_format(tmp_path):
    raw = write_csv(
        tmp_path / "raw.csv",
        "when,v,target\n02/01/2020,2,x\n01/01/2020,1,x\n03/01/2020,3,y\n",
    )
    _, out = preprocess_csv(
        raw,
        IngestConfig(target_column="target", datetime_columns=["when"], datetime_format="%d/%m/%Y"),
        tmp_path / "s.dsv",
    )
    values = [inst.x[0] for inst in replay(out)]
    assert values == [1.0, 2.0, 3.0]


def test_drop_columns_removed(tmp_path):
    raw = write_csv(tmp_path / "raw.csv", "id,v,target\n101,1,x\n102,2,y\n")
    schema, _ = preprocess_csv(
        raw, IngestConfig(target_column="target", drop_columns=["id"]), tmp_path / "s.dsv"
    )
    assert schema.feature_names == ("v",)


def test_preprocess_is_idempotent_on_canonical_output(tmp_path):
    raw = write_csv(
        tmp_path / "raw.csv",
        "v,color,target\n1.5,red,x\n2 , blue,y\n3.25,red,x\n",
    )
    config = IngestConfig(target_column="target", categorical_columns=["color"])
    _, first = preprocess_csv(raw, config, tmp_path / "a.dsv")
    _, second = preprocess_csv(first, IngestConfig(target_column="target"), tmp_path / "b.dsv")
    assert first.read_bytes() == second.read_bytes()


def test_replay_seq_and_determinism(tmp_path):
    _, path = generate_synthetic(SynthConfig(n_instances=5, n_features=2, n_classes=2, seed=3), tmp_path / "s.dsv")
    seqs = [inst.seq for inst in replay(path)]
    assert seqs == [0, 1, 2, 3, 4]
    first = [(inst.x.tolist(), inst.y) for inst in replay(path)]
    second = [(inst.x.tolist(), inst.y) for inst in replay(path)]
    assert first == second


def test_replay_empty_body(tmp_path):
    _, path = generate_synthetic(SynthConfig(n_instances=1, n_features=2, n_classes=2, seed=3), tmp_path / "s.dsv")
    text = path.read_text().splitlines()
    (tmp_path / "empty.dsv").write_text("\n".join(text[:2]) + "\n")
    assert list(replay(tmp_path / "empty.dsv")) == []


def test_replay_malformed_row_names_row_number(tmp_path):
    _, path = generate_synthetic(SynthConfig(n_instances=2, n_features=2, n_classes=2, seed=3), tmp_path / "s.dsv")
    lines = path.read_text().splitlines()
    lines[2] = "not_a_number,0.0,c0"
    bad = tmp_path / "bad.dsv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="row 3"):
        list(replay(bad))


def test_replay_wrong_field_count(tmp_path):
    _, path = generate_synthetic(SynthConfig(n_instances=2, n_features=2, n_classes=2, seed=3), tmp_path / "s.dsv")
    lines = path.read_text().splitlines()
    lines[3] = "1.0,c0"
    bad = tmp_path / "bad.dsv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="row 4"):
        list(replay(bad))


@pytest.mark.parametrize("value, row", [("nan", 3), ("-inf", 4)])
def test_replay_rejects_non_finite_values(tmp_path, value, row):
    _, path = generate_synthetic(SynthConfig(n_instances=2, n_features=2, n_classes=2, seed=3), tmp_path / "s.dsv")
    lines = path.read_text().splitlines()
    lines[row - 1] = f"0.5,{value},c0"
    bad = tmp_path / "bad.dsv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"bad.dsv: row {row}: non-finite"):
        list(replay(bad))


def test_synthetic_same_seed_is_byte_identical(tmp_path):
    config = SynthConfig(n_instances=200, n_features=3, n_classes=3, drift_points=[100], seed=9)
    _, a = generate_synthetic(config, tmp_path / "a.dsv")
    _, b = generate_synthetic(config, tmp_path / "b.dsv")
    assert a.read_bytes() == b.read_bytes()


def test_synthetic_file_matches_in_memory_instances(tmp_path):
    config = SynthConfig(n_instances=50, n_features=2, n_classes=2, seed=4)
    _, path = generate_synthetic(config, tmp_path / "s.dsv")
    schema_mem, instances = synthetic_instances(config)
    assert stream_schema(path) == schema_mem
    for from_file, from_mem in zip(replay(path), instances):
        assert from_file.y == from_mem.y
        assert np.allclose(from_file.x, from_mem.x)


#: SHA-256 of the stream file each config writes, taken when every row's class
#: means were still looked up one row at a time.
SYNTHETIC_SHA256 = [
    (  # a gradual window that runs past the next drift point
        dict(n_instances=300, n_features=3, n_classes=3, drift_points=[50, 90, 200], drift_kind="gradual",
             gradual_width=60, seed=11),
        "f0ccb3f83eb463bc10144524eb2ee22af5bf2cb61a37961282adbf0902c0b35f",
    ),
    (  # gradual drifts at the first and the last row
        dict(n_instances=120, n_features=2, n_classes=2, drift_points=[0, 119], drift_kind="gradual",
             gradual_width=7, seed=12),
        "e8c876524d09bc4446a98dcea3c30752b2d7335796695e76ebb0a15b35d9efdb",
    ),
    (  # abrupt drifts at the first and the last row, five classes
        dict(n_instances=120, n_features=4, n_classes=5, drift_points=[0, 60, 119], seed=13),
        "ce812db1f9cdecb3df318380417b39044beed3bcf79dd7774ed5412f09d5fe07",
    ),
    (  # five classes, every gradual window running past the end of the stream
        dict(n_instances=200, n_features=3, n_classes=5, drift_points=[10, 40, 45], drift_kind="gradual",
             gradual_width=250, seed=14, class_separation=2.5),
        "35757de5ea469167e60cc1b6b88fdb74ed13d17b5227ae77cf08202646d0f7c9",
    ),
    (  # one feature, an abrupt drift at the last row
        dict(n_instances=80, n_features=1, n_classes=2, drift_points=[79], seed=15),
        "bdf4ec294e4de3d1c1bfbc3db597bde517c52bdfcb560a73ff7f10e93891e28b",
    ),
]


@pytest.mark.parametrize("config, digest", SYNTHETIC_SHA256)
def test_synthetic_stream_bytes_are_pinned(tmp_path, config, digest):
    _, path = generate_synthetic(SynthConfig(**config), tmp_path / "s.dsv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_synthetic_requires_two_classes():
    with pytest.raises(ConfigError):
        SynthConfig(n_instances=10, n_features=2, n_classes=1)


def test_synthetic_drift_points_validated():
    with pytest.raises(ConfigError):
        SynthConfig(n_instances=10, n_features=2, n_classes=2, drift_points=[5, 5])
    with pytest.raises(ConfigError):
        SynthConfig(n_instances=10, n_features=2, n_classes=2, drift_points=[12])


@pytest.mark.parametrize("separation", [float("nan"), float("inf"), -float("inf"), 1e308, -1.0, "3", True])
def test_synthetic_rejects_a_class_separation_that_is_not_a_finite_distance(separation):
    with pytest.raises(ConfigError, match="class_separation"):
        SynthConfig(n_instances=10, n_features=2, n_classes=2, class_separation=separation)


@pytest.mark.parametrize("separation", [0, 0.0, 3.0, 1e6])
def test_synthetic_stream_is_finite_up_to_the_largest_class_separation(separation):
    config = SynthConfig(
        n_instances=60, n_features=3, n_classes=3, drift_points=[20], drift_kind="gradual", gradual_width=30,
        seed=2, class_separation=separation,
    )
    _, instances = synthetic_instances(config)
    X = np.stack([inst.x for inst in instances])
    assert np.isfinite(X).all() and np.isfinite(X * X).all()


def _fit_and_score(schema, train, test):
    model = BatchGaussianNB(schema)
    model.fit(np.stack([i.x for i in train]), np.array([i.y for i in train]))
    preds = [model.predict(i.x) for i in test]
    return f1_from_pairs([i.y for i in test], preds, schema.n_classes)


def test_stationary_stream_halves_agree():
    schema, instances = synthetic_instances(SynthConfig(n_instances=4000, n_features=4, n_classes=3, seed=21))
    instances = list(instances)
    first, second = instances[:2000], instances[2000:]
    f1_first = _fit_and_score(schema, first, second)
    f1_second = _fit_and_score(schema, second, first)
    assert abs(f1_first - f1_second) <= 0.03


def test_abrupt_drift_breaks_a_frozen_model():
    config = SynthConfig(n_instances=4000, n_features=4, n_classes=3, drift_points=[2000], seed=22)
    schema, instances = synthetic_instances(config)
    instances = list(instances)
    model = BatchGaussianNB(schema)
    train = instances[:1000]
    model.fit(np.stack([i.x for i in train]), np.array([i.y for i in train]))

    def windowed_f1(window):
        preds = [model.predict(i.x) for i in window]
        return f1_from_pairs([i.y for i in window], preds, schema.n_classes)

    pre = windowed_f1(instances[1000:2000])
    post = windowed_f1(instances[2000:3000])
    chance = 1.0 / schema.n_classes
    assert pre > 0.8
    assert post <= chance + 0.05


def test_gradual_drift_interpolates():
    config = SynthConfig(
        n_instances=3000, n_features=4, n_classes=3,
        drift_points=[1000], drift_kind="gradual", gradual_width=1000, seed=23,
    )
    schema, instances = synthetic_instances(config)
    instances = list(instances)
    model = BatchGaussianNB(schema)
    train = instances[:800]
    model.fit(np.stack([i.x for i in train]), np.array([i.y for i in train]))

    def acc(window):
        return np.mean([model.predict(i.x) == i.y for i in window])

    early = acc(instances[1000:1300])
    late = acc(instances[2200:2500])
    assert early > late  # degradation grows as the interpolation completes


# -- The encoder before it worked a column at a time --------------------------
#
# Verbatim copies of the row-at-a-time `write_stream` and `preprocess_csv`
# (and the two helpers they shared), kept as the reference: on every input the
# column-wise encoder must write the same bytes, return the same Schema, or
# raise the same error type with the same message. Only reading the CSV file
# and the manifest line are shared with the package.

_MISSING_MARKERS = {"", "?", "na", "n/a", "nan", "none", "null"}


def old_write_stream(
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



def _is_missing_numeric(value: str) -> bool:
    return value.strip().lower() in _MISSING_MARKERS


def _numeric_mode(values: Sequence[float]) -> float:
    """Most frequent value; ties resolve to the smallest value."""
    uniques, counts = np.unique(np.asarray(values, dtype=float), return_counts=True)
    return float(uniques[np.argmax(counts)])  # uniques are sorted, argmax takes the smallest tie



def old_preprocess_csv(raw_path: str | Path, config: IngestConfig, out_path: str | Path) -> tuple[Schema, Path]:
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
    out = old_write_stream(out_path, schema, encoded_rows, labels, target_name=config.target_column)
    return schema, out


NUMERIC_CELLS = st.one_of(
    st.sampled_from(["0", "1", "1.0", "0.0", "-0.0", "2.5", " 3 ", "1e3", "-7"]),
    st.sampled_from(["", "?", "NA", " n/a", "nan", "None", "NULL"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
BINARY_CELLS = st.sampled_from(["0", "1", "1.0", "0.0", "-0.0", "", "?"])
BAD_NUMERIC_CELLS = st.sampled_from(["x", "1,5", "inf", "-inf", "1e999", "+nan", "-NaN"])
CATEGORY_CELLS = st.sampled_from(
    ["red", "blue", "", " ", "a,b", 'say "hi"', "two\nlines", "Don't know / Refuse to answer", "\u00e9"]
)
DATE_CELLS = st.sampled_from(["2020-01-02", "2020-01-01", "2019-12-31", "2020-1-3", "2020-02-30", "soon", ""])
DROP_CELLS = st.sampled_from(["id1", "", "a,b", 'q"', "\n"])
TARGET_CELLS = st.sampled_from(["x", "y", "", " ", "a,b", 'q"q', "l\nm", " z", "x "])
BLANK_TARGET_CELLS = st.sampled_from(["", " "])
CELLS = {
    "numeric": NUMERIC_CELLS,
    "binary": BINARY_CELLS,
    "categorical": CATEGORY_CELLS,
    "datetime": DATE_CELLS,
    "drop": DROP_CELLS,
}


@st.composite
def raw_csvs(draw):
    """A raw CSV text and its ingest config, with at least one feature column and no clashing names."""
    kinds = draw(
        st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5).filter(
            lambda ks: any(k in ("numeric", "binary", "categorical") for k in ks)
        )
    )
    n_rows = draw(st.integers(1, 12))
    columns = []
    for kind in kinds:
        cells = CELLS[kind]
        if kind in ("numeric", "binary") and draw(st.integers(0, 3)) == 0:
            cells = st.one_of(cells, BAD_NUMERIC_CELLS)
        columns.append(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    names = [f"c{i}" for i in range(len(kinds))]
    of_kind = {kind: [n for n, k in zip(names, kinds) if k == kind] for kind in CELLS}
    at = draw(st.integers(0, len(kinds)))
    names.insert(at, "target")
    targets = BLANK_TARGET_CELLS if draw(st.integers(0, 9)) == 0 else TARGET_CELLS  # all blank: no rows remain
    columns.insert(at, draw(st.lists(targets, min_size=n_rows, max_size=n_rows)))
    rows = [list(row) for row in zip(*columns)]
    if draw(st.integers(0, 9)) == 0:
        short = draw(st.integers(0, n_rows - 1))
        rows[short] = rows[short][:-1]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    writer.writerows(rows)
    config = IngestConfig(
        target_column="target",
        datetime_columns=draw(st.permutations(of_kind["datetime"])),
        categorical_columns=of_kind["categorical"],
        drop_columns=of_kind["drop"],
        datetime_format=draw(st.sampled_from([None, "%Y-%m-%d"])),
    )
    return buf.getvalue(), config


def _outcome(encode, raw, config, out):
    try:
        schema, path = encode(raw, config, out)
    except Exception as exc:
        assert not out.exists()
        return type(exc), str(exc)
    return schema, path.read_bytes()


@settings(max_examples=400, deadline=None)
@given(case=raw_csvs())
def test_preprocess_matches_the_row_at_a_time_encoder(case):
    text, config = case
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "raw.csv"
        raw.write_text(text)
        expected = _outcome(old_preprocess_csv, raw, config, Path(tmp) / "old.dsv")
        assert _outcome(preprocess_csv, raw, config, Path(tmp) / "new.dsv") == expected


def test_preprocess_parity_inputs_reach_every_outcome():
    # The generated CSVs are written as streams and fail in each way preprocessing can.
    errors = {
        "row width": "fields, got",
        "no rows": "no rows with a target value",
        "non-numeric": "non-numeric value",
        "no usable values": "has no usable values",
        "non-finite": "non-finite value",
        "bad datetime": "bad datetime",
    }
    seen = set()

    @settings(max_examples=400, deadline=None, database=None)
    @given(case=raw_csvs())
    def collect(case):
        text, config = case
        with tempfile.TemporaryDirectory() as tmp:
            raw = Path(tmp) / "raw.csv"
            raw.write_text(text)
            outcome = _outcome(preprocess_csv, raw, config, Path(tmp) / "new.dsv")
        if isinstance(outcome[0], Schema):
            seen.add("written")
        else:
            seen.update(kind for kind, words in errors.items() if words in outcome[1])

    collect()
    assert seen == {"written", *errors}


@pytest.mark.parametrize("seed", range(8))
def test_preprocess_imputes_the_same_signed_zero_as_the_row_at_a_time_encoder(tmp_path, seed):
    # From about 16 cells on, numpy's sort does not keep equal values in order,
    # so which zero a tied -0.0/0.0 mode takes depends on every cell, not on the
    # distinct values alone.
    rng = np.random.default_rng(seed)
    cells = [*rng.choice(["0", "-0.0", "0.0", "-0", "1"], size=40, p=[0.3, 0.3, 0.15, 0.15, 0.1]), "", "?"]
    raw = write_csv(tmp_path / "raw.csv", "v,target\n" + "".join(f"{c},{'xy'[i % 2]}\n" for i, c in enumerate(cells)))
    config = IngestConfig(target_column="target")
    expected = _outcome(old_preprocess_csv, raw, config, tmp_path / "old.dsv")
    assert _outcome(preprocess_csv, raw, config, tmp_path / "new.dsv") == expected


LABEL_TEXTS = st.sampled_from(["c0", "c1", "a,b", 'q"q', "l\nm", " z", "\u00e9", "-1.5"])
NAME_TEXTS = st.sampled_from(["f0", "f1", "f 2", "a,b", 'q"', "n\nl", "target"])


@st.composite
def streams(draw):
    """A schema, feature rows as a float array, int lists or a generator, and labels."""
    labels = draw(st.lists(LABEL_TEXTS, min_size=1, max_size=4, unique=True))
    n_features = draw(st.integers(1, 4))
    names = draw(st.lists(NAME_TEXTS, min_size=n_features, max_size=n_features, unique=True))
    schema = Schema(
        feature_names=tuple(names), feature_kinds=(FeatureKind.NUMERIC,) * n_features, class_labels=tuple(labels)
    )
    n_rows = draw(st.integers(0, 8))
    y = draw(st.lists(st.integers(-len(labels), len(labels) - 1), min_size=n_rows, max_size=n_rows))
    form = draw(st.sampled_from(["float array", "int lists", "generator"]))
    if form == "float array":
        dtype = draw(st.sampled_from([np.float64, np.float32]))
        X = draw(arrays(dtype, (n_rows, n_features), elements=st.floats(width=np.dtype(dtype).itemsize * 8)))
        return schema, lambda: X, np.array(y, dtype=np.int64), draw(NAME_TEXTS)
    def lists(elements):
        return st.lists(st.lists(elements, min_size=n_features, max_size=n_features), min_size=n_rows, max_size=n_rows)

    if form == "int lists":
        X = draw(lists(st.integers(-(2**70), 2**70)))
        return schema, lambda: X, y, draw(NAME_TEXTS)
    X = draw(lists(st.floats()))
    return schema, lambda: (row for row in X), y, draw(NAME_TEXTS)


@settings(max_examples=300, deadline=None)
@given(case=streams())
def test_write_stream_matches_the_row_at_a_time_writer(case):
    schema, rows, labels, target_name = case
    with tempfile.TemporaryDirectory() as tmp:
        old = old_write_stream(Path(tmp) / "old.dsv", schema, rows(), labels, target_name)
        new = write_stream(Path(tmp) / "new.dsv", schema, rows(), labels, target_name)
        assert new.read_bytes() == old.read_bytes()


# -- Replay before it parsed a block at a time ---------------------------------
#
# The row-at-a-time `replay` loop, kept as the reference: on every stream file
# the block parser must yield the same instances (x bytes, dtype and length, y
# and seq) and then raise the same DataError, or none.


def old_replay(path: str | Path) -> Iterator:
    path = Path(path)
    schema = stream_schema(path)
    label_index = {label: i for i, label in enumerate(schema.class_labels)}
    n_features = schema.n_features
    with reading(path, DataError, "stream file"), path.open(newline="") as fh:
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
        except csv.Error as exc:
            raise DataError(f"{path}: row {reader.line_num + 1}: {exc}") from None


def replay_outcome(replayer, path):
    """Every yielded instance as (x bytes, x dtype, x length, y, seq), and the DataError message or None."""
    got = []
    try:
        for inst in replayer(path):
            got.append((inst.x.tobytes(), inst.x.dtype, len(inst.x), inst.y, inst.seq))
    except DataError as exc:
        return got, str(exc)
    return got, None


def csv_line(fields: Sequence[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def write_stream_text(path: Path, labels: Sequence[str], n_features: int, rows: Sequence[Sequence[str] | None]) -> Path:
    """A stream file of ``rows`` (feature texts, then the label text); None writes a blank line."""
    schema = Schema(
        feature_names=tuple(f"f{j}" for j in range(n_features)),
        feature_kinds=(FeatureKind.NUMERIC,) * n_features,
        class_labels=tuple(labels),
    )
    lines = ["\n" if row is None else csv_line(row) for row in rows]
    path.write_text(_manifest_line(schema, "target") + "\n" + csv_line([*schema.feature_names, "target"]) + "".join(lines))
    return path


#: Feature texts float() reads, signed zero, the smallest subnormal and the largest double among them.
VALUE_TEXTS = ["-0.0", "0.0", "5e-324", "1.7976931348623157e308", "-1.7976931348623157e308", "2.5", " 7", "1_0", "1e-320"]

#: One fault each, applied to a row's fields.
FAULTS = {
    "short": lambda fields: fields[1:],
    "long": lambda fields: ["0.5", *fields],
    "unparsable": lambda fields: ["x1", *fields[1:]],
    "nan": lambda fields: ["nan", *fields[1:]],
    "overflow": lambda fields: [*fields[:-2], "1e999", fields[-1]],
    "label": lambda fields: [*fields[:-1], "nope"],
    "csv": lambda fields: ["9" * 200_000, *fields[1:]],
}


def stream_rows(rng, labels, n_features, n_rows, blank=0.0, faults=()):
    """``n_rows`` rows of value texts and labels, a blank line before a row with probability ``blank``,
    and ``faults`` as (row position, FAULTS key) applied in turn."""
    rows = []
    for _ in range(n_rows):
        picks, normals = rng.integers(0, 2 * len(VALUE_TEXTS), n_features), rng.normal(scale=1e3, size=n_features)
        values = [VALUE_TEXTS[i] if i < len(VALUE_TEXTS) else repr(v) for i, v in zip(picks, normals.tolist())]
        rows.append([*values, labels[rng.integers(len(labels))]])
    for position, kind in faults:
        rows[position] = FAULTS[kind](rows[position])
    out = []
    for row in rows:
        if rng.random() < blank:
            out.append(None)
        out.append(row)
    return out


@settings(max_examples=100, deadline=None)
@given(
    labels=st.lists(LABEL_TEXTS, min_size=1, max_size=3, unique=True),
    n_features=st.integers(1, 3),
    n_rows=st.one_of(st.integers(0, 20), st.integers(240, 600), st.integers(500, 600)),
    seed=st.integers(0, 2**32 - 1),
    blank=st.sampled_from([0.0, 0.05, 0.5]),
    faults=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.sampled_from(sorted(FAULTS))), max_size=2),
)
def test_replay_matches_the_row_at_a_time_reader(labels, n_features, n_rows, seed, blank, faults):
    rng = np.random.default_rng(seed)
    faults = [(int(at * n_rows), kind) for at, kind in faults] if n_rows else []
    rows = stream_rows(rng, labels, n_features, n_rows, blank, faults)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_stream_text(Path(tmp) / "s.dsv", labels, n_features, rows)
        assert replay_outcome(replay, path) == replay_outcome(old_replay, path)


def faulty_stream(tmp_path, faults, n_rows=600):
    """A 2-feature stream of ``n_rows`` rows with ``faults`` as (file row, FAULTS key)."""
    rows = stream_rows(np.random.default_rng(3), ["a", "b"], 2, n_rows, faults=[(r - 3, kind) for r, kind in faults])
    return write_stream_text(tmp_path / "s.dsv", ["a", "b"], 2, rows)


@pytest.mark.parametrize("kind", sorted(FAULTS))
@pytest.mark.parametrize("row", [259, 400, 258])  # the second block's first row, mid-block, the first block's last
def test_replay_yields_the_rows_before_a_fault_then_raises_it(tmp_path, row, kind):
    path = faulty_stream(tmp_path, [(row, kind)])
    got, error = replay_outcome(replay, path)
    assert len(got) == row - 3
    assert error is not None and error.startswith(f"{path}: row {row}: ")
    assert (got, error) == replay_outcome(old_replay, path)


@pytest.mark.parametrize(
    "faults, complaint",
    [
        ([(300, "label"), (310, "nan")], "row 300: unknown class label 'nope'"),
        ([(300, "short"), (305, "unparsable")], "row 300: expected 3 fields, got 2"),
        ([(300, "unparsable"), (305, "short")], "row 300: could not convert string to float: 'x1'"),
        ([(300, "label"), (301, "csv")], "row 300: unknown class label 'nope'"),
        ([(300, "label"), (300, "nan")], "row 300: non-finite feature value"),  # one row: finiteness first
        ([(300, "unparsable"), (300, "short")], "row 300: expected 3 fields, got 2"),  # one row: width first
    ],
)
def test_replay_reports_the_earlier_of_two_faults_in_a_block(tmp_path, faults, complaint):
    path = faulty_stream(tmp_path, faults)
    got, error = replay_outcome(replay, path)
    assert len(got) == 297 and error == f"{path}: {complaint}"
    assert (got, error) == replay_outcome(old_replay, path)


def test_replay_x_is_a_row_of_its_block_array(tmp_path):
    path = faulty_stream(tmp_path, [], n_rows=300)
    instances = list(replay(path))
    assert [inst.seq for inst in instances] == list(range(300))
    assert instances[0].x.base is instances[255].x.base and instances[256].x.base is not instances[0].x.base
    assert instances[0].x.base.shape == (256, 2) and instances[256].x.base.shape == (44, 2)
