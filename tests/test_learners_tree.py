import math

import numpy as np
import pytest

from driftstream.core import FeatureKind, Schema
from driftstream.learners import HoeffdingTreeClassifier, hoeffding_bound
from driftstream.learners.tree import _Leaf, _square

from conftest import gaussian_instances


def make_schema(d, k):
    return Schema(
        feature_names=tuple(f"f{i}" for i in range(d)),
        feature_kinds=(FeatureKind.NUMERIC,) * d,
        class_labels=tuple(f"c{i}" for i in range(k)),
    )


# ---------------------------------------------------------------------------
# the bound itself


def test_hoeffding_bound_value():
    # sqrt(ln(20) / 200) computed directly.
    assert hoeffding_bound(1.0, 0.05, 100) == pytest.approx(math.sqrt(math.log(20) / 200), abs=1e-12)
    assert hoeffding_bound(1.0, 0.05, 100) == pytest.approx(0.12239, abs=1e-5)


def test_hoeffding_bound_sqrt_scaling():
    assert hoeffding_bound(1.0, 0.01, 400) == pytest.approx(hoeffding_bound(1.0, 0.01, 100) / 2, abs=1e-12)


def test_hoeffding_bound_delta_one():
    assert hoeffding_bound(1.0, 1.0, 50) == 0.0


# ---------------------------------------------------------------------------
# split behaviour


def test_pure_leaf_never_splits():
    schema = make_schema(2, 2)
    tree = HoeffdingTreeClassifier(schema)
    rng = np.random.default_rng(0)
    for _ in range(500):
        tree.learn_one(rng.normal(size=2), 0)
    assert tree.n_nodes == 1


def test_perfectly_separating_feature_splits_quickly():
    # Two far-apart class clusters on one informative feature: gain is about
    # 1 bit against a runner-up of 0, which beats the radius well before 200.
    schema = make_schema(2, 2)
    tree = HoeffdingTreeClassifier(schema)
    rng = np.random.default_rng(1)
    for i in range(200):
        y = i % 2
        x = np.array([(-5.0 if y == 0 else 5.0) + 0.01 * rng.normal(), rng.normal()])
        tree.learn_one(x, y)
    assert tree.n_nodes >= 3
    assert tree.predict(np.array([-5.0, 0.0])) == 0
    assert tree.predict(np.array([5.0, 0.0])) == 1


def test_identical_features_split_only_via_tie_rule():
    # Two identical separating features tie exactly, so the split waits for
    # the radius to fall below the 0.05 tie threshold:
    # sqrt(ln(1/0.01) / (2n)) < 0.05 first holds at n = 922, reached at the
    # n = 1000 check with the default grace period.
    schema = make_schema(2, 2)
    tree = HoeffdingTreeClassifier(schema)
    rng = np.random.default_rng(2)

    def feed(tree, n, start=0):
        for i in range(start, start + n):
            y = i % 2
            v = (-5.0 if y == 0 else 5.0) + 0.01 * rng.normal()
            tree.learn_one(np.array([v, v]), y)

    assert hoeffding_bound(1.0, 0.01, 921) > 0.05
    assert hoeffding_bound(1.0, 0.01, 922) < 0.05
    feed(tree, 900)
    assert tree.n_nodes == 1
    feed(tree, 100, start=900)
    assert tree.n_nodes == 3


def test_leaf_majority_below_nb_threshold():
    leaf_schema = make_schema(1, 2)
    tree = HoeffdingTreeClassifier(leaf_schema, nb_threshold=10)
    for _ in range(3):
        tree.learn_one(np.array([0.0]), 0)
    tree.learn_one(np.array([0.1]), 1)
    assert tree.predict(np.array([0.1])) == 0  # 4 < 10: majority wins


def test_leaf_naive_bayes_above_threshold():
    # Majority is class 0 overall, but near x = 5 the class-1 Gaussian wins
    # once the leaf switches to naive Bayes prediction.
    schema = make_schema(1, 2)
    tree = HoeffdingTreeClassifier(schema, nb_threshold=10, grace_period=1000)
    rng = np.random.default_rng(3)
    for _ in range(30):
        tree.learn_one(np.array([rng.normal(0.0, 1.0)]), 0)
    for _ in range(20):
        tree.learn_one(np.array([rng.normal(5.0, 1.0)]), 1)
    assert tree.predict(np.array([5.0])) == 1
    assert tree.predict(np.array([0.0])) == 0


def test_empty_child_falls_back_to_parent_majority():
    schema = make_schema(2, 2)
    tree = HoeffdingTreeClassifier(schema)
    rng = np.random.default_rng(4)
    seen = []
    while tree.n_nodes < 3:  # stop right after the root splits
        y = int(len(seen) % 3 != 0)  # class 1 is the majority
        x = np.array([(-5.0 if y == 0 else 5.0) + 0.01 * rng.normal(), rng.normal()])
        tree.learn_one(x, y)
        seen.append(y)
    assert np.argmax(np.bincount(seen)) == 1
    # Both children are empty, so even a point on the class-0 side gets the parent's majority.
    assert tree.predict(np.array([-5.0, 0.0])) == 1
    assert tree.predict(np.array([5.0, 0.0])) == 1


def test_node_count_bounded_by_grace_period():
    schema = make_schema(3, 3)
    tree = HoeffdingTreeClassifier(schema, grace_period=100)
    instances = gaussian_instances(np.array([[0, 0, 0], [4, 4, 0], [-4, 4, 4]]), 3000, seed=5)
    last = 1
    for inst in instances:
        tree.learn_one(inst.x, inst.y)
        assert tree.n_nodes >= last
        last = tree.n_nodes
    assert tree.n_nodes <= 3000 / 100 + 1


def test_a_split_attempt_over_class_means_too_large_to_square_does_not_raise():
    # Python's float ** 2 raises OverflowError above about 1.3e154, where numpy's square gives inf.
    # A raising split attempt also skipped the leaf's check reset, so every later learn_one raised.
    schema = make_schema(2, 3)
    tree = HoeffdingTreeClassifier(schema, grace_period=20)
    rng = np.random.default_rng(0)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(200):
            y = i % 3
            tree.learn_one(np.array([1e300 * (y + rng.random()), rng.normal()]), y)
        labels = {tree.predict(np.array([1e300 * (c + 0.5), 0.0])) for c in range(3)}
    assert tree._root.n_since_check == 200 % 20
    assert labels <= {0, 1, 2}


def test_a_feature_with_a_nan_gain_is_never_split_on():
    # Feature 0's pooled variance is inf - inf, so its gain is NaN; feature 1 separates the classes.
    # np.argmax picks a NaN first, and a split on it at threshold NaN sends every row right.
    schema = make_schema(2, 3)
    tree = HoeffdingTreeClassifier(schema, grace_period=20)
    rng = np.random.default_rng(0)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(3000):
            y = i % 3
            tree.learn_one(np.array([1e300 * (y + rng.random()), 5.0 * y + rng.normal()]), y)
    assert tree.n_nodes > 1
    assert tree._root.feature == 1 and math.isfinite(tree._root.threshold)


def test_square_keeps_python_float_squares_and_gives_inf_where_they_overflow():
    rng = np.random.default_rng(3)
    values = (rng.normal(size=2000) * 10.0 ** rng.integers(-170, 153, 2000)).tolist()
    values += [1.3e154, -1.3e154, 5e-324, 0.0, -0.0]
    assert [_square(m).hex() for m in values] == [(m**2).hex() for m in values]
    assert [_square(m) for m in (1.4e154, -1e300, 1.7976931348623157e308)] == [math.inf] * 3


def test_tree_learns_gaussian_stream():
    schema = make_schema(3, 3)
    means = np.array([[0, 0, 0], [4, 4, 0], [-4, 4, 4]])
    tree = HoeffdingTreeClassifier(schema)
    for inst in gaussian_instances(means, 2000, seed=6):
        tree.learn_one(inst.x, inst.y)
    holdout = gaussian_instances(means, 300, seed=7)
    accuracy = np.mean([tree.predict(i.x) == i.y for i in holdout])
    assert accuracy > 0.85


def test_leaf_stats_track_welford():
    leaf = _Leaf(n_classes=2, n_features=1, fallback_label=0)
    for v in (1.0, 3.0):
        leaf.update(np.array([v]), 0)
    assert leaf.mean[0, 0] == pytest.approx(2.0)
    assert leaf.var[0, 0] == pytest.approx(2.0)
    assert leaf.counts.tolist() == [2, 0]
