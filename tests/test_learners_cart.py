import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.core import DataError, FeatureKind, Schema, SchemaError
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


# -- block prediction -----------------------------------------------------


def route_one(tree, x):
    """The per-row walk down one tree's node arrays, written independently of the flat layout."""
    node = 0
    while tree.feature[node] >= 0:
        node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
    return int(tree.label[node])


def reference_labels(model, X):
    if isinstance(model, CartClassifier):
        return [route_one(model, x) for x in X]
    k = model.schema.n_classes
    return [int(np.argmax(np.bincount([route_one(t, x) for t in model.trees], minlength=k))) for x in X]


def assert_block_matches_rows(model, X):
    labels = model.predict_labels(X)
    assert labels.dtype == np.int64
    assert labels.tolist() == [model.predict(x) for x in X] == reference_labels(model, X)


@pytest.mark.parametrize("seed", range(4))
def test_predict_labels_equals_per_row_predict_on_random_data(seed):
    rng = np.random.default_rng(seed)
    d, k = int(rng.integers(1, 6)), int(rng.integers(2, 5))
    schema = make_schema(d, k)
    X = rng.normal(size=(200, d))
    y = rng.integers(0, k, 200)
    for model in (CartClassifier(schema, seed=seed), RandomForestClassifier(schema, seed=seed, n_trees=7)):
        model.fit(X, y)
        assert_block_matches_rows(model, np.vstack([rng.normal(size=(150, d)), X[:50]]))


def test_predict_labels_keeps_the_lowest_index_tie_break():
    schema = make_schema(2, 3)
    rng = np.random.default_rng(8)
    forest = RandomForestClassifier(schema, n_trees=6, seed=3)
    forest.fit(rng.normal(size=(90, 2)), rng.integers(0, 3, 90))
    probes = rng.normal(size=(300, 2))
    votes = [np.bincount([route_one(t, x) for t in forest.trees], minlength=3) for x in probes]
    assert sum(np.count_nonzero(v == v.max()) > 1 for v in votes) > 20  # many tied rows
    assert_block_matches_rows(forest, probes)


def test_predict_labels_of_single_leaf_trees():
    schema = make_schema(2, 3)
    X = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    y = np.array([2, 2, 2])
    tree = CartClassifier(schema)
    tree.fit(X, y)
    assert tree.feature.tolist() == [-1]
    forest = RandomForestClassifier(schema, n_trees=4, seed=1)
    forest.fit(X, y)
    probes = np.random.default_rng(0).normal(size=(20, 2))
    for model in (tree, forest):
        assert model.predict_labels(probes).tolist() == [2] * 20
        assert_block_matches_rows(model, probes)


def test_predict_labels_on_rows_exactly_at_a_threshold():
    # A row whose value equals a split's threshold goes left, as in the walk.
    schema = make_schema(3, 3)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(120, 3))
    y = rng.integers(0, 3, 120)
    forest = RandomForestClassifier(schema, n_trees=5, seed=2)
    forest.fit(X, y)
    tree = CartClassifier(schema, seed=2)
    tree.fit(X, y)
    for model in (tree, forest):
        trees = [model] if isinstance(model, CartClassifier) else model.trees
        probes = []
        for t in trees:
            for node in np.flatnonzero(t.feature >= 0):
                x = X[node % len(X)].copy()
                x[t.feature[node]] = t.threshold[node]
                probes.append(x)
        assert_block_matches_rows(model, np.array(probes))


def test_untrained_models_label_every_row_zero():
    schema = make_schema(2, 3)
    X = np.ones((5, 2))
    for model in (CartClassifier(schema), RandomForestClassifier(schema)):
        labels = model.predict_labels(X)
        assert labels.dtype == np.int64 and labels.tolist() == [0] * 5


def test_predict_labels_rejects_a_block_of_the_wrong_width():
    schema = make_schema(2, 2)
    forest = RandomForestClassifier(schema, n_trees=2)
    forest.fit(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
    with pytest.raises(SchemaError):
        forest.predict_labels(np.ones((4, 3)))
