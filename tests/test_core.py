import numpy as np
import pytest

from driftstream.core import (
    DataError,
    FeatureKind,
    Schema,
    SchemaError,
    argmax_tiebreak,
)
from driftstream.learners import (
    BatchGaussianNB,
    CartClassifier,
    HoeffdingTreeClassifier,
    OnlineGaussianNB,
    OnlineLogisticRegression,
    RandomForestClassifier,
)

from conftest import gaussian_instances


def test_schema_rejects_duplicate_feature_names():
    with pytest.raises(SchemaError):
        Schema(("x", "x"), (FeatureKind.NUMERIC,) * 2, ("a", "b"))


def test_schema_rejects_bad_class_catalogue():
    with pytest.raises(SchemaError):
        Schema(("x",), (FeatureKind.NUMERIC,), ())
    with pytest.raises(SchemaError):
        Schema(("x",), (FeatureKind.NUMERIC,), ("a", "a"))
    with pytest.raises(SchemaError):
        Schema(("x",), (FeatureKind.NUMERIC,), ("a", ""))


def test_argmax_tiebreak_prefers_lowest_index():
    assert argmax_tiebreak([1.0, 1.0, 0.5]) == 0
    assert argmax_tiebreak([0.2, 0.8, 0.8]) == 1


def test_untrained_models_fall_back_to_class_zero_uniform(schema2x3):
    x = np.array([0.3, -0.7])
    for model in (
        OnlineGaussianNB(schema2x3),
        HoeffdingTreeClassifier(schema2x3),
        OnlineLogisticRegression(schema2x3),
        CartClassifier(schema2x3),
        RandomForestClassifier(schema2x3, n_trees=3),
        BatchGaussianNB(schema2x3),
    ):
        label = model.predict(x)
        assert label == 0
        assert type(label) is int


def test_olr_zero_weights_gives_uniform_scores(schema2x3):
    model = OnlineLogisticRegression(schema2x3)
    assert model.predict(np.array([1.0, 2.0])) == 0


def test_single_class_models_predict_that_class(schema2x3):
    gnb = OnlineGaussianNB(schema2x3)
    gnb.learn_one(np.array([1.0, 2.0]), 2)
    gnb.learn_one(np.array([1.5, 2.5]), 2)
    assert gnb.predict(np.array([-10.0, 10.0])) == 2

    cart = CartClassifier(schema2x3)
    cart.fit(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1, 1]))
    assert cart.predict(np.array([5.0, 5.0])) == 1


def test_dimension_mismatch_raises_schema_error(schema2x3):
    model = OnlineGaussianNB(schema2x3)
    with pytest.raises(SchemaError):
        model.predict(np.array([1.0]))
    with pytest.raises(SchemaError):
        model.learn_one(np.array([1.0, 2.0, 3.0]), 0)


def test_unknown_class_index_raises_schema_error(schema2x3):
    model = OnlineGaussianNB(schema2x3)
    with pytest.raises(SchemaError):
        model.learn_one(np.array([1.0, 2.0]), 3)


BATCH_LEARNERS = (CartClassifier, RandomForestClassifier, BatchGaussianNB)


@pytest.mark.parametrize("learner", BATCH_LEARNERS)
@pytest.mark.parametrize(
    "X, y",
    [
        (np.ones((50, 3)), np.arange(50) % 3),  # three columns under a two-feature schema
        (np.ones((50, 1)), np.arange(50) % 3),
        (np.ones(50), np.arange(50) % 3),  # not a block of rows
        (np.ones((50, 2)), np.arange(49) % 3),  # one label short
        (np.ones((50, 2)), np.ones((50, 1), dtype=int)),
        (np.ones((50, 2)), np.where(np.arange(50) == 7, 5, np.arange(50) % 3)),  # label 5 of 3 classes
        (np.ones((50, 2)), np.where(np.arange(50) == 7, -1, np.arange(50) % 3)),
    ],
)
def test_batch_fit_rejects_a_batch_off_the_schema(schema2x3, learner, X, y):
    model = learner(schema2x3)
    with pytest.raises(SchemaError):
        model.fit(X, y)


@pytest.mark.parametrize("learner", BATCH_LEARNERS)
def test_batch_fit_rejects_an_empty_batch(schema2x3, learner):
    with pytest.raises(DataError):
        learner(schema2x3).fit(np.empty((0, 2)), np.empty(0, dtype=int))


def test_gnb_single_point_moments(schema1x2):
    model = OnlineGaussianNB(schema1x2)
    model.learn_one(np.array([1.0]), 0)
    assert model.class_counts[0] == 1
    assert model.class_means()[0, 0] == 1.0


def test_gnb_two_point_moments_match_direct_arithmetic(schema1x2):
    # Direct oracle: mean (1+3)/2 = 2, unbiased variance ((1-2)^2+(3-2)^2)/1 = 2.
    model = OnlineGaussianNB(schema1x2)
    model.learn_one(np.array([1.0]), 0)
    model.learn_one(np.array([3.0]), 0)
    assert model.class_means()[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert model.class_variances()[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_predict_is_pure(schema2x3):
    instances = gaussian_instances(np.array([[0.0, 0.0], [3.0, 3.0], [-3.0, 3.0]]), 60, seed=3)
    probe = np.array([0.5, 0.5])

    with_probe = OnlineGaussianNB(schema2x3)
    without_probe = OnlineGaussianNB(schema2x3)
    for inst in instances:
        assert with_probe.predict(probe) == with_probe.predict(probe)
        with_probe.learn_one(inst.x, inst.y)
        without_probe.learn_one(inst.x, inst.y)
    # Interleaved predictions changed nothing about the learned state.
    assert np.array_equal(with_probe.class_means(), without_probe.class_means())
    assert np.array_equal(with_probe.class_variances(), without_probe.class_variances())


def test_prediction_scores_are_simplex(schema2x3):
    instances = gaussian_instances(np.array([[0.0, 0.0], [3.0, 3.0], [-3.0, 3.0]]), 100, seed=4)
    models = [
        OnlineGaussianNB(schema2x3),
        HoeffdingTreeClassifier(schema2x3),
        OnlineLogisticRegression(schema2x3),
    ]
    for inst in instances:
        for model in models:
            label = model.predict(inst.x)
            assert type(label) is int
            assert 0 <= label < schema2x3.n_classes
            model.learn_one(inst.x, inst.y)


def test_online_learners_are_deterministic(schema2x3):
    instances = gaussian_instances(np.array([[0.0, 0.0], [3.0, 3.0], [-3.0, 3.0]]), 200, seed=5)

    def trace(model):
        out = []
        for inst in instances:
            out.append(model.predict(inst.x))
            model.learn_one(inst.x, inst.y)
        return out

    for make in (OnlineGaussianNB, HoeffdingTreeClassifier, OnlineLogisticRegression):
        assert trace(make(schema2x3)) == trace(make(schema2x3))
