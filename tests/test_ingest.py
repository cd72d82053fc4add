import numpy as np
import pytest

from driftstream.core import ConfigError, DataError, FeatureKind
from driftstream.evaluation import f1_from_pairs
from driftstream.ingest import (
    IngestConfig,
    SynthConfig,
    generate_synthetic,
    preprocess_csv,
    replay,
    stream_schema,
    synthetic_instances,
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
