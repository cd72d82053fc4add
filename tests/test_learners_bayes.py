import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.core import DataError, FeatureKind, Schema
from driftstream.learners import BatchGaussianNB, OnlineGaussianNB, RunningMoments
from driftstream.learners.bayes import _gaussian_nb_scores

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
    assert moments.mean[0] == pytest.approx(arr.mean(), rel=1e-9, abs=1e-9)
    assert moments.variance()[0] == pytest.approx(arr.var(ddof=1), rel=1e-6, abs=1e-6)


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
    return _gaussian_nb_scores(x, model.class_counts, model.class_means(), model.class_variances(), model._global_variance)


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
