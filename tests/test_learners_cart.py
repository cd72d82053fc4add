import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.core import DataError, FeatureKind, Schema
from driftstream.learners import CartClassifier, RandomForestClassifier

from conftest import gaussian_instances


def make_schema(d, k):
    return Schema(
        feature_names=tuple(f"f{i}" for i in range(d)),
        feature_kinds=(FeatureKind.NUMERIC,) * d,
        class_labels=tuple(f"c{i}" for i in range(k)),
    )


def test_separable_1d_gets_one_midpoint_split():
    schema = make_schema(1, 2)
    tree = CartClassifier(schema)
    tree.fit(np.array([[0.0], [1.0], [10.0], [11.0]]), np.array([0, 0, 1, 1]))
    assert tree.feature.tolist().count(-1) == 2  # two leaves
    root_threshold = tree.threshold[0]
    assert 1.0 < root_threshold < 10.0
    for x, y in (([0.0], 0), ([1.0], 0), ([10.0], 1), ([11.0], 1)):
        assert tree.predict(np.array(x)) == y


def test_cart_memorizes_consistent_data():
    schema = make_schema(3, 3)
    rng = np.random.default_rng(1)
    X = rng.normal(size=(150, 3))
    y = rng.integers(0, 3, size=150)
    tree = CartClassifier(schema)
    tree.fit(X, y)
    preds = [tree.predict(x) for x in X]
    assert preds == y.tolist()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_cart_training_accuracy_on_random_consistent_batches(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    X = rng.normal(size=(n, 2))
    y = rng.integers(0, 2, size=n)
    schema = make_schema(2, 2)
    tree = CartClassifier(schema)
    tree.fit(X, y)
    assert [tree.predict(x) for x in X] == y.tolist()


def test_cart_conflicting_duplicates_take_majority():
    schema = make_schema(1, 2)
    tree = CartClassifier(schema)
    tree.fit(np.array([[1.0], [1.0], [1.0]]), np.array([0, 0, 1]))
    assert tree.predict(np.array([1.0])) == 0


def test_cart_empty_batch_raises():
    with pytest.raises(DataError):
        CartClassifier(make_schema(1, 2)).fit(np.empty((0, 1)), np.empty(0, dtype=int))


def test_cart_zero_gain_splits_still_solve_xor():
    schema = make_schema(2, 2)
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    tree = CartClassifier(schema)
    tree.fit(X, y)
    assert [tree.predict(x) for x in X] == y.tolist()


def test_forest_single_tree_without_bootstrap_equals_cart():
    schema = make_schema(3, 3)
    instances = gaussian_instances(np.array([[0, 0, 0], [3, 3, 0], [-3, 3, 3]]), 300, seed=2)
    X = np.stack([i.x for i in instances])
    y = np.array([i.y for i in instances])
    forest = RandomForestClassifier(schema, n_trees=1, bootstrap=False, max_features=None, seed=5)
    forest.fit(X, y)
    tree = CartClassifier(schema)
    tree.fit(X, y)
    probes = gaussian_instances(np.array([[0, 0, 0], [3, 3, 0], [-3, 3, 3]]), 100, seed=3)
    for probe in probes:
        assert forest.predict(probe.x) == tree.predict(probe.x)


def test_forest_of_identical_trees_votes_like_one_tree():
    schema = make_schema(2, 3)
    instances = gaussian_instances(np.array([[0, 0], [3, 3], [-3, 3]]), 200, seed=9)
    X = np.stack([i.x for i in instances])
    y = np.array([i.y for i in instances])
    # No bootstrap, no feature subsampling: every tree is the same tree.
    forest = RandomForestClassifier(schema, n_trees=5, bootstrap=False, max_features=None, seed=1)
    forest.fit(X, y)
    tree = CartClassifier(schema)
    tree.fit(X, y)
    for probe in gaussian_instances(np.array([[0, 0], [3, 3], [-3, 3]]), 100, seed=10):
        assert forest.predict(probe.x) == tree.predict(probe.x)


def test_forest_same_seed_identical_predictions():
    schema = make_schema(3, 3)
    instances = gaussian_instances(np.array([[0, 0, 0], [3, 3, 0], [-3, 3, 3]]), 400, seed=4)
    X = np.stack([i.x for i in instances])
    y = np.array([i.y for i in instances])
    a = RandomForestClassifier(schema, n_trees=10, seed=42)
    a.fit(X, y)
    b = RandomForestClassifier(schema, n_trees=10, seed=42)
    b.fit(X, y)
    probes = [i.x for i in gaussian_instances(np.array([[0, 0, 0], [3, 3, 0], [-3, 3, 3]]), 200, seed=5)]
    labels_a = [a.predict(x) for x in probes]
    labels_b = [b.predict(x) for x in probes]
    assert labels_a == labels_b
    for ta, tb in zip(a.trees, b.trees):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.threshold, tb.threshold)


def test_forest_different_seeds_differ_somewhere():
    schema = make_schema(3, 3)
    instances = gaussian_instances(np.array([[0, 0, 0], [2, 2, 0], [-2, 2, 2]]), 300, seed=6)
    X = np.stack([i.x for i in instances])
    y = np.array([i.y for i in instances])
    a = RandomForestClassifier(schema, n_trees=5, seed=1)
    b = RandomForestClassifier(schema, n_trees=5, seed=2)
    a.fit(X, y)
    b.fit(X, y)
    differs = any(
        not np.array_equal(ta.threshold, tb.threshold) for ta, tb in zip(a.trees, b.trees)
    )
    assert differs


def test_forest_training_accuracy_close_to_single_tree():
    schema = make_schema(2, 2)
    rng = np.random.default_rng(7)
    X = np.vstack([rng.normal((-2, 0), 0.7, (150, 2)), rng.normal((2, 0), 0.7, (150, 2))])
    y = np.array([0] * 150 + [1] * 150)
    tree = CartClassifier(schema)
    tree.fit(X, y)
    forest = RandomForestClassifier(schema, n_trees=30, seed=11)
    forest.fit(X, y)
    tree_acc = np.mean([tree.predict(x) for x in X] == y)
    forest_acc = np.mean([forest.predict(x) for x in X] == y)
    assert forest_acc >= tree_acc - 0.01


def test_forest_label_is_lowest_index_majority_of_its_trees():
    # Noisy labels make the trees disagree, and an even tree count over three
    # classes produces tied votes, so the stacked route is checked against the
    # single-tree reference including the lowest-index tie-break.
    schema = make_schema(2, 3)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(90, 2))
    y = rng.integers(0, 3, 90)
    forest = RandomForestClassifier(schema, n_trees=6, seed=3)
    forest.fit(X, y)
    ties = 0
    for x in rng.normal(size=(200, 2)):
        votes = np.bincount([tree.predict(x) for tree in forest.trees], minlength=3)
        ties += np.count_nonzero(votes == votes.max()) > 1
        assert forest.predict(x) == int(np.argmax(votes))
    assert ties > 0
