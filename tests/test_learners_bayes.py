import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftstream.core import DataError, FeatureKind, Schema, SchemaError, argmax_tiebreak
from driftstream.learners import BATCH_LEARNERS, BatchGaussianNB, OnlineGaussianNB, RunningMoments
from driftstream.learners import bayes
from driftstream.learners.bayes import _gaussian_nb_scores, _normalised

from conftest import gaussian_instances


def make_schema(d, k):
    return Schema(
        feature_names=tuple(f"f{i}" for i in range(d)),
        feature_kinds=(FeatureKind.NUMERIC,) * d,
        class_labels=tuple(f"c{i}" for i in range(k)),
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=2, max_size=60))
def test_welford_matches_two_pass(values):
    moments = RunningMoments(1)
    for v in values:
        moments.update(np.array([v]))
    arr = np.asarray(values)
    assert moments.mean[0, 0] == pytest.approx(arr.mean(), rel=1e-9, abs=1e-9)
    assert moments.var[0, 0] == pytest.approx(arr.var(ddof=1), rel=1e-6, abs=1e-6)


def test_batch_online_equivalence_small():
    schema = make_schema(3, 3)
    instances = gaussian_instances(np.array([[0, 0, 0], [2, 2, 2], [-2, 2, 0]]), 500, seed=11)
    online = OnlineGaussianNB(schema)
    for inst in instances:
        online.learn_one(inst.x, inst.y)
    batch = BatchGaussianNB(schema)
    batch.fit(np.stack([i.x for i in instances]), np.array([i.y for i in instances]))
    assert np.allclose(online.class_means(), batch.class_means(), atol=1e-9)
    assert np.allclose(online.class_variances(), batch.class_variances(), atol=1e-6)
    probe = np.array([0.5, 0.5, 0.5])
    assert online.predict(probe) == batch.predict(probe)


def _scores(model, x):
    counts = model.class_counts
    return _gaussian_nb_scores(x, counts, model.class_means(), model.class_variances(), model._global_variance, counts.sum())


def test_zero_variance_class_is_floored_and_finite():
    schema = make_schema(2, 2)
    X = np.array([[1.0, 5.0], [1.0, 6.0], [2.0, 7.0], [3.0, 8.0]])
    y = np.array([0, 0, 1, 1])  # feature 0 is constant within class 0
    model = BatchGaussianNB(schema)
    model.fit(X, y)
    probe = np.array([1.0, 5.5])
    assert model.predict(probe) == 0
    assert np.all(np.isfinite(_scores(model, probe)))


def test_all_constant_features_still_finite():
    schema = make_schema(1, 2)
    model = BatchGaussianNB(schema)
    model.fit(np.array([[2.0], [2.0], [2.0]]), np.array([0, 0, 1]))
    probe = np.array([2.0])
    assert model.predict(probe) == 0  # equal likelihoods, so the larger prior wins
    assert np.all(np.isfinite(_scores(model, probe)))


def test_batch_fit_empty_raises():
    model = BatchGaussianNB(make_schema(2, 2))
    with pytest.raises(DataError):
        model.fit(np.empty((0, 2)), np.empty(0, dtype=int))


def test_single_class_batch_predicts_it_everywhere():
    schema = make_schema(2, 3)
    model = BatchGaussianNB(schema)
    model.fit(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([2, 2]))
    for probe in (np.array([0.0, 0.0]), np.array([100.0, -50.0])):
        assert model.predict(probe) == 2


def test_priors_matter_for_close_points():
    schema = make_schema(1, 2)
    model = OnlineGaussianNB(schema)
    # Same spread, class 1 three times as frequent: the midpoint goes to 1.
    for v in (-1.0, 1.0):
        model.learn_one(np.array([v]), 0)
    for v in (-1.0, 1.0) * 3:
        model.learn_one(np.array([v]), 1)
    assert model.predict(np.array([0.0])) == 1


# -- block prediction and cached variances ----------------------------------


def random_batch_fit(rng, d, k):
    """A batch GNB (k >= 3) fitted on rounded, tied features, with one class
    absent, one seen once (zero variance) and one with a constant feature."""
    n = int(rng.integers(50, 400))
    absent, single, *others = rng.permutation(k).tolist()
    y = rng.choice(others, size=n)
    y[0] = single
    X = np.round(rng.normal(size=(n, d)) * rng.uniform(0.1, 4.0, d) + y[:, None], int(rng.integers(0, 3)))
    X[y == others[0], int(rng.integers(d))] = 0.5
    model = BatchGaussianNB(make_schema(d, k))
    model.fit(X, y)
    probes = np.vstack([np.round(rng.normal(size=(60, d)) * 3, 1), X[:40], model.class_means()])
    return model, probes


def row_scores(model, x):
    counts = model.class_counts
    return _gaussian_nb_scores(x, counts, model.class_means(), model.class_variances(), model._global_variance, counts.sum())


@pytest.mark.parametrize("d", [3, 8, 17, 68])
def test_block_scores_equal_per_row_scores_bit_for_bit(d):
    rng = np.random.default_rng(d)
    for _ in range(15):
        model, probes = random_batch_fit(rng, d, int(rng.integers(3, 9)))
        assert np.count_nonzero(model.class_counts == 0) >= 1
        assert np.count_nonzero(model.class_counts == 1) >= 1
        counts = model.class_counts
        block = _gaussian_nb_scores(
            probes[:, None, :], counts, model._means, model._variances, model._global_variance, counts.sum()
        )
        for x, scores in zip(probes, block):
            assert np.array_equal(scores, row_scores(model, x))


@st.composite
def score_blocks(draw):
    """(rows x classes) raw scores, 1-12 classes, with -inf columns for unseen classes and exact ties."""
    k = draw(st.integers(1, 12))
    pool = draw(st.lists(st.floats(-800, 800), min_size=1, max_size=3))  # values drawn again tie exactly
    entry = st.one_of(st.sampled_from([*pool, -math.inf]), st.floats(-1e6, 1e6))
    z = draw(arrays(np.float64, (draw(st.integers(1, 10)), k), elements=entry))
    unseen = draw(st.lists(st.integers(0, k - 1), max_size=k - 1))
    z[:, unseen] = -math.inf
    seen = [c for c in range(k) if c not in unseen][0]
    z[np.isinf(z).all(axis=1), seen] = pool[0]  # every row has a class with a finite score
    return z


@settings(max_examples=1000, deadline=None)
@given(z=score_blocks())
def test_normalised_block_equals_normalised_rows_bit_for_bit(z):
    block = _normalised(z.copy())
    assert block.shape == z.shape
    for row, scores in zip(z, block):
        assert scores.tobytes() == _normalised(row.copy()).tobytes()


def test_a_feature_whose_variance_overflows_for_every_class_counts_as_uninformative():
    # Feature 0 separates the classes; feature 1's squares overflow, so every class variance of it is inf.
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, 100)
    X = np.column_stack([4 * y + 0.1 * rng.normal(size=100), rng.normal(size=100) * 1e160])
    batch, online = BatchGaussianNB(make_schema(2, 2)), OnlineGaussianNB(make_schema(2, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        batch.fit(X, y)
        for x, label in zip(X, y.tolist()):
            online.learn_one(x, label)
        assert np.isinf(batch.class_variances()[:, 1]).all() and np.isinf(online.class_variances()[:, 1]).all()
        # Feature 1's terms are NaN for both classes; kept, they would make every score NaN and every label 0.
        assert batch.predict_labels(X).tolist() == y.tolist()
        assert [online.predict(x) for x in X] == y.tolist()
        assert np.isfinite(_scores(batch, X[0])).all()


@pytest.mark.parametrize("d", [3, 68])
def test_predict_labels_equals_per_row_predict(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(10):
        model, probes = random_batch_fit(rng, d, int(rng.integers(3, 9)))
        labels = model.predict_labels(probes)
        assert labels.dtype == np.int64
        expected = [argmax_tiebreak(row_scores(model, x)) for x in probes]
        assert labels.tolist() == [model.predict(x) for x in probes] == expected


def test_predict_labels_in_row_chunks_gives_the_same_labels(monkeypatch):
    model, probes = random_batch_fit(np.random.default_rng(3), 8, 5)
    whole = model.predict_labels(probes)
    monkeypatch.setattr(bayes, "_BLOCK_CELLS", 100)  # 100 // (seen classes x 8 features): a few rows a chunk
    assert np.array_equal(model.predict_labels(probes), whole)


def test_unfit_batch_model_labels_every_row_zero():
    model = BatchGaussianNB(make_schema(3, 4))
    labels = model.predict_labels(np.ones((6, 3)))
    assert labels.dtype == np.int64 and labels.tolist() == [0] * 6
    assert model.predict(np.ones(3)) == 0


def test_batch_predict_labels_rejects_a_block_of_the_wrong_width():
    model = BatchGaussianNB(make_schema(2, 2))
    model.fit(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
    with pytest.raises(SchemaError):
        model.predict_labels(np.ones((4, 3)))


def old_variances(moments):
    """``RunningMoments.var`` rebuilt from ``m2``, as the variances were before they were kept as state."""
    counts = moments.counts[:, None]
    return np.where(counts >= 2, moments.m2 / np.maximum(counts - 1, 1), 0.0)


def test_online_cached_variances_equal_the_rebuilt_variances_over_a_drifting_stream():
    d, k = 8, 4
    rng = np.random.default_rng(21)
    model = OnlineGaussianNB(make_schema(d, k))
    # Class 3 arrives only after the drift at row 3000, where the means move.
    before = gaussian_instances(rng.normal(size=(3, d)) * 2, 3000, seed=1)
    after = gaussian_instances(rng.normal(size=(k, d)) * 2, 3000, seed=2, start_seq=3000)
    probes = np.round(rng.normal(size=(5, d)) * 2, 1)
    for inst in before + after:
        model.learn_one(inst.x, inst.y)
        variances = old_variances(model._classes)
        assert np.array_equal(model.class_variances(), variances)
        if inst.seq % 50 == 0:
            for x in probes:
                old = _gaussian_nb_scores(
                    x, model.class_counts, model.class_means(), variances, old_variances(model._global)[0],
                    model.class_counts.sum(),
                )
                assert model.predict(x) == argmax_tiebreak(old)
    assert model.class_counts.min() >= 2


@pytest.mark.parametrize("name", sorted(BATCH_LEARNERS))
def test_batch_fit_refuses_float_labels_instead_of_truncating_them(name):
    model = BATCH_LEARNERS[name](make_schema(2, 3), seed=0)
    X = np.arange(12.0).reshape(6, 2)
    with pytest.raises(SchemaError, match="float64"):
        model.fit(X, np.array([0.2, 0.9, 1.7, 1.1, 2.99, 0.0]))  # truncated, they were counted [3, 2, 1]
    with pytest.raises(SchemaError, match="bool"):
        model.fit(X, np.array([True, False] * 3))
    with pytest.raises(SchemaError, match=r"shape \(0,\) for 6 rows"):
        model.fit(X, [])  # an empty list is float64, but the count is the fault
    for y in ([0, 1, 2, 1, 2, 0], np.array([0, 1, 2, 1, 2, 0], dtype=np.uint8)):
        model.fit(X, y)
    if name == "gnb":
        assert model.class_counts.tolist() == [2, 2, 2]
