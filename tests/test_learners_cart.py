import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.core import DataError, FeatureKind, Schema, SchemaError, argmax_tiebreak
from driftstream.learners import CartClassifier, RandomForestClassifier
from driftstream.learners import cart as cart_module

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


_ODD = np.nextafter(1.0, 2.0)  # 1 + 2**-52: an odd mantissa, so the midpoint with its successor rounds up to it


@pytest.mark.parametrize(
    "values",
    [
        [1.0e308, 1.2e308, 1.4e308, 1.6e308],  # (a + b) / 2 overflows to +inf
        [-1.6e308, -1.4e308, -1.2e308, -1.0e308],  # ... and to -inf
        [1.0, _ODD, np.nextafter(_ODD, 2.0), 1.0 + 2.0**-50],  # adjacent a = _ODD and b: (a + b) / 2 == b
    ],
)
def test_split_thresholds_keep_the_training_partition(values):
    X, y = np.array(values)[:, None], np.array([0, 0, 1, 1])
    models = [
        CartClassifier(make_schema(1, 2)),
        RandomForestClassifier(make_schema(1, 2), n_trees=3, bootstrap=False, max_features=None, seed=1),
    ]
    for model in models:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model.fit(X, y)
        assert model.predict_labels(X).tolist() == y.tolist()
        assert [model.predict(x) for x in X] == y.tolist()


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


def path(tree, x):
    """The nodes the per-row walk visits in ``tree``, root to leaf, written independently of the flat layout."""
    nodes = [0]
    while tree.feature[node := nodes[-1]] >= 0:
        nodes.append(tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node])
    return nodes


def route_one(tree, x):
    """The label of the leaf the per-row walk reaches in ``tree``."""
    return int(tree.label[path(tree, x)[-1]])


def reference_labels(model, X):
    if isinstance(model, CartClassifier):
        return [route_one(model, x) for x in X]
    k = model.schema.n_classes
    return [int(np.argmax(np.bincount([route_one(t, x) for t in model.trees], minlength=k))) for x in X]


def threshold_probes(trees, X):
    """One row per split of every tree, with the split's feature set exactly to its threshold."""
    probes = []
    for t in trees:
        for node in np.flatnonzero(t.feature >= 0):
            x = X[node % len(X)].copy()
            x[t.feature[node]] = t.threshold[node]
            probes.append(x)
    return np.array(probes)


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
        assert_block_matches_rows(model, threshold_probes(trees, X))


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


# -- fitting against the per-feature reference ------------------------------


class ReferenceCart(CartClassifier):
    """The per-node, per-feature split search that the vectorized fit replaced, verbatim but for the
    threshold rule, which both share: the midpoint of ``a < b`` unless it rounds to ``b``, then ``a``."""

    def _best_split(self, X: np.ndarray, y: np.ndarray, idx: np.ndarray, rng) -> tuple | None:
        d = X.shape[1]
        if self.max_features is not None and self.max_features < d:
            feats = np.sort(rng.choice(d, size=self.max_features, replace=False))
        else:
            feats = np.arange(d)
        k = self.schema.n_classes
        ys = y[idx]
        onehot = np.zeros((idx.size, k))
        onehot[np.arange(idx.size), ys] = 1.0
        total = onehot.sum(axis=0)
        n = idx.size
        best = None
        best_impurity = math.inf
        for f in feats:
            xf = X[idx, f]
            order = np.argsort(xf, kind="stable")
            xs = xf[order]
            if xs[0] == xs[-1]:
                continue
            cum = np.cumsum(onehot[order], axis=0)
            cut = np.nonzero(np.diff(xs) > 0)[0] + 1  # left side takes the first `cut` rows
            if cut.size == 0:
                continue
            nl = cut.astype(float)
            nr = n - nl
            lc = cum[cut - 1]
            rc = total[None, :] - lc
            gini_l = 1.0 - np.sum((lc / nl[:, None]) ** 2, axis=1)
            gini_r = 1.0 - np.sum((rc / nr[:, None]) ** 2, axis=1)
            weighted = (nl * gini_l + nr * gini_r) / n
            j = int(np.argmin(weighted))
            if weighted[j] < best_impurity:
                best_impurity = weighted[j]
                a, b = xs[cut[j] - 1], xs[cut[j]]
                mid = a / 2.0 + b / 2.0
                thr = mid if mid < b else a
                best = (int(f), float(thr), order, int(cut[j]))
        if best is None:
            return None
        f, thr, order, pos = best
        return f, thr, idx[order[:pos]], idx[order[pos:]]

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.size == 0:
            raise DataError("empty training batch")
        rng = np.random.default_rng(self.seed)
        k = self.schema.n_classes
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        label: list[int] = []
        self.depth = 0

        def new_node() -> int:
            feature.append(-1)
            threshold.append(0.0)
            left.append(0)
            right.append(0)
            label.append(0)
            return len(feature) - 1

        root = new_node()
        stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(X.shape[0]), 0)]
        while stack:
            node_id, idx, depth = stack.pop()
            self.depth = max(self.depth, depth)
            counts = np.bincount(y[idx], minlength=k)
            label[node_id] = argmax_tiebreak(counts)
            if idx.size < self.min_samples_split or np.count_nonzero(counts) < 2:
                continue
            split = self._best_split(X, y, idx, rng)
            if split is None:
                continue
            f, thr, left_idx, right_idx = split
            feature[node_id] = f
            threshold[node_id] = thr
            lid = new_node()
            rid = new_node()
            left[node_id] = lid
            right[node_id] = rid
            # Push right first so the left subtree is built first (stable rng order).
            stack.append((rid, right_idx, depth + 1))
            stack.append((lid, left_idx, depth + 1))

        self.feature = np.array(feature, dtype=np.int32)
        self.threshold = np.array(threshold)
        self.left = np.array(left, dtype=np.int32)
        self.right = np.array(right, dtype=np.int32)
        self.label = np.array(label, dtype=np.int32)
        self._flat = cart_module._FlatTrees([self])


def assert_same_tree(tree, reference):
    for name in ("feature", "threshold", "left", "right", "label"):
        got, want = getattr(tree, name), getattr(reference, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert tree.depth == reference.depth


def fit_both(schema, X, y, **params):
    tree, reference = CartClassifier(schema, **params), ReferenceCart(schema, **params)
    tree.fit(X, y)
    reference.fit(X, y)
    assert_same_tree(tree, reference)
    return tree


def awkward_batch(rng, n, d, k):
    """Integer-valued features with heavy ties, a constant column, a duplicated column and repeated rows."""
    X = rng.integers(0, 4, size=(n, d)).astype(float)
    X[:, 1] = rng.normal(size=n).round(1)
    X[:, 2] = 7.0
    X[:, 3] = X[:, 0]  # every split on column 0 ties with one on column 3
    y = np.minimum(rng.integers(0, k, n), (X[:, 0] + rng.integers(0, 2, n)).astype(int) % k)
    rows = rng.integers(0, n, n)  # a bootstrap sample
    return X[rows], y[rows]


@pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 12])
@pytest.mark.parametrize("max_features", [None, 2])
@pytest.mark.parametrize("min_samples_split", [2, 5])
def test_fit_builds_the_reference_tree(k, max_features, min_samples_split):
    # k >= 8 is where numpy's row sums switch to pairwise summation.
    rng = np.random.default_rng(100 * k + min_samples_split + (max_features or 0))
    schema = make_schema(6, k)
    params = dict(max_features=max_features, min_samples_split=min_samples_split)
    for seed in range(3):
        X, y = awkward_batch(rng, int(rng.integers(20, 300)), 6, k)
        fit_both(schema, X, y, seed=seed, **params)
        fit_both(schema, rng.normal(size=(200, 6)), rng.integers(0, k, 200), seed=seed, **params)


def test_fit_builds_the_reference_tree_on_degenerate_batches():
    schema = make_schema(3, 4)
    rng = np.random.default_rng(3)
    tree = fit_both(schema, rng.normal(size=(30, 3)), np.full(30, 2))
    assert tree.feature.tolist() == [-1] and tree.label.tolist() == [2]
    tree = fit_both(schema, np.array([[1.0, 2.0, 3.0]]), np.array([3]))
    assert tree.feature.tolist() == [-1] and tree.label.tolist() == [3]
    tree = fit_both(schema, np.ones((12, 3)), np.arange(12) % 4)  # nothing to split on
    assert tree.feature.tolist() == [-1] and tree.label.tolist() == [0]


def test_chunked_split_search_builds_the_reference_tree(monkeypatch):
    # A node too wide for one search block takes its features a chunk at a time.
    monkeypatch.setattr(cart_module, "_SEARCH_CELLS", 60)
    rng = np.random.default_rng(11)
    schema = make_schema(6, 3)
    for seed in range(4):
        X, y = awkward_batch(rng, 150, 6, 3)
        fit_both(schema, X, y, seed=seed)
        fit_both(schema, X, y, seed=seed, max_features=4)


def reference_forest(schema, X, y, n_trees, seed, max_features):
    """One ReferenceCart per tree, on bootstrap rows and with seeds drawn the way the forest draws them."""
    n = len(X)
    seeds = np.random.SeedSequence(seed).generate_state(2 * n_trees)
    trees = []
    for i in range(n_trees):
        rows = np.random.default_rng(int(seeds[2 * i])).integers(0, n, size=n)
        tree = ReferenceCart(schema, seed=int(seeds[2 * i + 1]), max_features=max_features)
        tree.fit(X[rows], y[rows])
        trees.append(tree)
    return trees


def assert_same_forest(forest, reference_trees):
    for tree, ref in zip(forest.trees, reference_trees, strict=True):
        assert_same_tree(tree, ref)


def test_forest_trees_equal_reference_trees():
    rng = np.random.default_rng(21)
    schema = make_schema(6, 5)
    X, y = awkward_batch(rng, 400, 6, 5)
    X = np.hstack([X[:, :3], rng.normal(size=(400, 3))])
    forest = RandomForestClassifier(schema, n_trees=10, seed=4)
    forest.fit(X, y)
    assert_same_forest(forest, reference_forest(schema, X, y, 10, 4, max_features=2))  # "sqrt" of 6 features


def test_30_feature_trees_equal_reference_trees():
    # One, "sqrt" (5) and all but one of 30 candidate features per node.
    rng = np.random.default_rng(41)
    schema = make_schema(30, 4)
    X, y = awkward_batch(rng, 160, 30, 4)
    X[:, 15:] = rng.normal(size=(160, 15))
    for max_features in (1, 5, 29):
        for seed in range(2):
            fit_both(schema, X, y, seed=seed, max_features=max_features)
    for max_features, per_tree in ((1, 1), ("sqrt", 5), (29, 29)):
        forest = RandomForestClassifier(schema, n_trees=4, seed=6, max_features=max_features)
        forest.fit(X, y)
        assert_same_forest(forest, reference_forest(schema, X, y, 4, 6, per_tree))


def forest_trees(forest):
    names = ("feature", "threshold", "left", "right", "label")
    return [tuple(getattr(tree, name).tolist() for name in names) for tree in forest.trees]


def test_search_schedule_does_not_change_the_forest(monkeypatch):
    # Batches of one node part at a time, the default batches, and all open nodes in one batch.
    rng = np.random.default_rng(31)
    schema = make_schema(6, 4)
    X, y = awkward_batch(rng, 300, 6, 4)
    X = np.hstack([X[:, :4], rng.normal(size=(300, 2))])
    forests = {}
    for cells in (60, cart_module._SEARCH_CELLS, 1 << 30):
        monkeypatch.setattr(cart_module, "_SEARCH_CELLS", cells)
        for max_features in (None, 2, "sqrt"):
            forest = RandomForestClassifier(schema, n_trees=8, seed=5, max_features=max_features)
            forest.fit(X, y)
            forests.setdefault(max_features, []).append(forest_trees(forest))
    for fits in forests.values():
        assert fits[0] == fits[1] == fits[2]


# -- forked shares -------------------------------------------------------------


def tree_bytes(forest):
    return [(tuple(getattr(t, name).tobytes() for name in cart_module._NODE_ARRAYS), t.depth) for t in forest.trees]


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(cart_module, "_workers", lambda n_trees, n_rows: min(workers, n_trees))


def fit_with_workers(monkeypatch, workers, schema, X, y, **params):
    force_workers(monkeypatch, workers)
    forest = RandomForestClassifier(schema, **params)
    forest.fit(X, y)
    return forest


@pytest.mark.parametrize("cells", [60, cart_module._SEARCH_CELLS])
@pytest.mark.parametrize("max_features", ["sqrt", None, 3])
@pytest.mark.parametrize("bootstrap", [True, False])
def test_forked_shares_grow_the_same_trees(monkeypatch, cells, max_features, bootstrap):
    # One share (no fork), two and three shares; at 60 cells every search runs in feature chunks.
    monkeypatch.setattr(cart_module, "_SEARCH_CELLS", cells)
    rng = np.random.default_rng(31)
    schema = make_schema(6, 4)
    X, y = awkward_batch(rng, 200, 6, 4)
    X = np.hstack([X[:, :4], rng.normal(size=(200, 2))])
    probes = np.vstack([X[:40], rng.normal(size=(40, 6))])
    for n_trees in (2, 3, 7, 20):
        params = dict(seed=n_trees, n_trees=n_trees, bootstrap=bootstrap, max_features=max_features)
        forests = [fit_with_workers(monkeypatch, workers, schema, X, y, **params) for workers in (1, 2, 3)]
        assert tree_bytes(forests[0]) == tree_bytes(forests[1]) == tree_bytes(forests[2]), n_trees
        labels = [forest.predict_labels(probes).tolist() for forest in forests]
        assert labels[0] == labels[1] == labels[2], n_trees


@pytest.mark.parametrize("max_features", ["sqrt", None])
def test_roots_wider_than_a_search_batch_grow_the_same_trees(monkeypatch, max_features):
    # At 12,000 rows a root alone exceeds the default budget, so it is searched a feature part at a time;
    # at 2^30 every open node fits one batch. One, two and three shares under both budgets.
    rng = np.random.default_rng(12)
    n, d, k = 12_000, 6, 3
    schema = make_schema(d, k)
    X = np.hstack([rng.integers(0, 40, size=(n, 2)).astype(float), rng.normal(size=(n, d - 2)).round(2)])
    y = (X[:, 0] // 10 + (X[:, 2] > 0) + (rng.random(n) < 0.05)).astype(int) % k
    budget = cart_module._SEARCH_CELLS
    assert n * 2 * k > budget  # a root's 2 ("sqrt" of 6) candidate features
    pending, next_batch = [], cart_module._next_batch

    def recording(growing):
        if cart_module._SEARCH_CELLS == budget:
            pending.append([entry[2] for entry in growing])  # the cells of each tree's pending part
        return next_batch(growing)

    monkeypatch.setattr(cart_module, "_next_batch", recording)
    params = dict(n_trees=6, seed=7, max_features=max_features)
    fits = []
    for cells in (budget, 1 << 30):
        monkeypatch.setattr(cart_module, "_SEARCH_CELLS", cells)
        for workers in (1, 2, 3):
            fits.append(tree_bytes(fit_with_workers(monkeypatch, workers, schema, X, y, **params)))
    assert all(fit == fits[0] for fit in fits[1:])
    # Some tree's small part was pending before another tree's over-budget part, which went first.
    assert any(
        any(c <= budget for c in cells[: next(i for i, c in enumerate(cells) if c > budget)])
        for cells in pending
        if max(cells) > budget
    )


def test_a_forest_grows_its_shares_here_when_it_cannot_fork(monkeypatch):
    rng = np.random.default_rng(8)
    schema = make_schema(6, 3)
    X, y = awkward_batch(rng, 150, 6, 3)
    want = tree_bytes(fit_with_workers(monkeypatch, 1, schema, X, y, n_trees=5))

    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(cart_module.os, "fork", no_fork)
    assert tree_bytes(fit_with_workers(monkeypatch, 3, schema, X, y, n_trees=5)) == want


def assert_no_child_left():
    with pytest.raises(ChildProcessError):  # no child process, running or a zombie
        os.waitpid(-1, os.WNOHANG)


def fail_searches_in(monkeypatch, in_parent, exc):
    """Make ``_search`` raise ``exc`` in this process only, or in forked children only."""
    parent, search = os.getpid(), cart_module._search

    def failing(*args):
        if (os.getpid() == parent) == in_parent:
            raise exc
        return search(*args)

    monkeypatch.setattr(cart_module, "_search", failing)


def test_a_fault_in_a_forked_share_is_raised_by_fit(monkeypatch):
    schema = make_schema(6, 3)
    X, y = awkward_batch(np.random.default_rng(2), 150, 6, 3)
    fail_searches_in(monkeypatch, False, ValueError("bad split in a child"))
    forest = RandomForestClassifier(schema, n_trees=6)
    for workers in (2, 3):
        force_workers(monkeypatch, workers)
        with pytest.raises(ValueError, match="^bad split in a child$"):
            forest.fit(X, y)
        assert_no_child_left()


def test_a_fault_that_cannot_be_pickled_is_named(monkeypatch):
    class LocalError(Exception):  # a local class: pickle cannot find it by name
        pass

    schema = make_schema(6, 3)
    X, y = awkward_batch(np.random.default_rng(2), 150, 6, 3)
    fail_searches_in(monkeypatch, False, LocalError("unpicklable"))
    force_workers(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="LocalError in a forked forest share: unpicklable"):
        RandomForestClassifier(schema, n_trees=4).fit(X, y)
    assert_no_child_left()


def test_a_fault_in_the_parent_share_leaves_no_child(monkeypatch):
    schema = make_schema(6, 3)
    X, y = awkward_batch(np.random.default_rng(2), 150, 6, 3)
    fail_searches_in(monkeypatch, True, KeyError("parent"))
    force_workers(monkeypatch, 3)
    with pytest.raises(KeyError, match="parent"):
        RandomForestClassifier(schema, n_trees=9).fit(X, y)
    assert_no_child_left()


def test_a_child_that_dies_without_a_result_is_reported(monkeypatch):
    schema = make_schema(6, 3)
    X, y = awkward_batch(np.random.default_rng(2), 150, 6, 3)
    parent, search = os.getpid(), cart_module._search
    monkeypatch.setattr(cart_module, "_search", lambda *a: search(*a) if os.getpid() == parent else os._exit(3))
    force_workers(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="ended with exit code 3 and no result"):
        RandomForestClassifier(schema, n_trees=4).fit(X, y)
    assert_no_child_left()


def test_a_fit_forks_for_large_forests_on_several_cpus_only(monkeypatch):
    monkeypatch.setattr(cart_module.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    rows = cart_module._FORK_ROWS
    assert cart_module._workers(100, math.ceil(rows / 100)) == 4
    assert cart_module._workers(3, rows) == 3  # at most one share per tree
    assert cart_module._workers(100, math.ceil(rows / 100) - 1) == 1  # too small to pay for a fork
    assert cart_module._workers(1, 10 * rows) == 1
    monkeypatch.setattr(cart_module.os, "sched_getaffinity", lambda pid: {0})
    assert cart_module._workers(100, rows) == 1
    monkeypatch.delattr(cart_module.os, "sched_getaffinity")  # as on macOS and Windows
    assert cart_module._workers(100, rows) == 1


def test_lone_trees_and_one_tree_forests_do_not_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(cart_module.os, "fork", no_fork)
    monkeypatch.setattr(cart_module, "_FORK_ROWS", 0)
    monkeypatch.setattr(cart_module.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    schema = make_schema(6, 3)
    X, y = awkward_batch(np.random.default_rng(2), 150, 6, 3)
    CartClassifier(schema).fit(X, y)
    RandomForestClassifier(schema, n_trees=1).fit(X, y)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=120),
    k=st.integers(min_value=2, max_value=12),
    max_features=st.sampled_from([None, 2]),
)
def test_tie_heavy_fits_build_the_reference_trees(seed, n, k, max_features):
    rng = np.random.default_rng(seed)
    schema = make_schema(6, k)
    X, y = awkward_batch(rng, n, 6, k)
    fit_both(schema, X, y, seed=seed % 1000, max_features=max_features)
    forest = RandomForestClassifier(schema, n_trees=4, seed=seed % 1000, max_features=max_features)
    forest.fit(X, y)
    assert_same_forest(forest, reference_forest(schema, X, y, 4, seed % 1000, max_features))


@pytest.mark.parametrize("seed", range(4))
def test_one_row_walk_reaches_the_leaves_of_the_block_path(seed):
    # A one-row block walks the trees in Python; every tree's leaf label must
    # be the one the vectorized path gives the same row inside a larger block.
    rng = np.random.default_rng(seed)
    d, k = int(rng.integers(1, 6)), int(rng.integers(2, 6))
    schema = make_schema(d, k)
    X = np.round(rng.normal(size=(400, d)), 1)  # noisy labels and tied values: deep trees
    y = rng.integers(0, k, 400)
    for model in (CartClassifier(schema, seed=seed), RandomForestClassifier(schema, seed=seed, n_trees=7)):
        model.fit(X, y)
        trees = [model] if isinstance(model, CartClassifier) else model.trees
        at_thresholds = []
        for t in trees:
            for node in np.flatnonzero(t.feature >= 0)[:40]:
                x = X[node % len(X)].copy()
                x[t.feature[node]] = t.threshold[node]
                at_thresholds.append(x)
        probes = np.vstack([rng.normal(size=(100, d)), X[:50], at_thresholds])
        flat = model._flat
        assert flat.depth >= 10
        one_row = np.vstack([flat.leaf_labels(x[None]) for x in probes])
        assert np.array_equal(one_row, flat.leaf_labels(probes))
        assert [model.predict(x) for x in probes] == model.predict_labels(probes).tolist()


@pytest.mark.parametrize("workers", [1, 2])
def test_forest_trees_build_their_route_arrays_on_first_predict(monkeypatch, workers):
    # A forest routes through its own arrays; a member tree makes its own only when asked to predict alone.
    rng = np.random.default_rng(8)
    schema = make_schema(4, 3)
    X, y = deep_batch(rng, 300, 4, 3)
    forest = fit_with_workers(monkeypatch, workers, schema, X, y, seed=4, n_trees=6)
    assert all(tree._flat is None for tree in forest.trees)
    probes = np.vstack([X[:60], rng.normal(size=(60, 4))])
    columns = forest._flat.leaf_labels(probes)
    for i, tree in enumerate(forest.trees):
        assert np.array_equal(tree.predict_labels(probes), columns[:, i])
        assert [tree.predict(x) for x in probes] == columns[:, i].tolist()
    lone = CartClassifier(schema, seed=4)
    lone.fit(X, y)
    assert lone._flat is not None


# -- the compacting block walk ----------------------------------------------


def assert_walk_matches_references(flat, trees, X):
    """The block walk's (rows x trees) labels equal the per-tree walk's and the one-row walk's."""
    labels = flat.leaf_labels(X)
    assert labels.dtype == np.int64 and labels.shape == (len(X), len(trees))
    per_tree = np.array([[route_one(t, x) for t in trees] for x in X], dtype=np.int64).reshape(labels.shape)
    one_row = np.array([flat._walk(x.tolist()) for x in X], dtype=np.int64).reshape(labels.shape)
    assert np.array_equal(labels, per_tree)
    assert np.array_equal(labels, one_row)


def deep_batch(rng, n, d, k):
    """Noisy labels over tied values: trees grown on it are 10 or more levels deep."""
    return np.round(rng.normal(size=(n, d)), 1), rng.integers(0, k, n)


def test_block_walk_mixes_single_leaf_trees_with_deep_ones():
    rng = np.random.default_rng(11)
    schema = make_schema(3, 4)
    X, y = deep_batch(rng, 400, 3, 4)
    trees = []
    for i in range(6):
        tree = CartClassifier(schema, seed=i, max_features=2)
        if i % 3 == 0:
            tree.fit(X[:5], np.full(5, i % 4))  # one pure batch: a single leaf, depth 0
        else:
            tree.fit(X[rng.integers(0, 400, 400)], y)
        trees.append(tree)
    assert [t.depth == 0 for t in trees] == [True, False, False] * 2
    flat = cart_module._FlatTrees(trees)
    assert flat.depth >= 10
    probes = np.vstack([rng.normal(size=(200, 3)), X[:100], threshold_probes(trees, X)])
    assert_walk_matches_references(flat, trees, probes)


def test_block_walk_of_a_forest_shallower_than_the_first_compaction():
    rng = np.random.default_rng(12)
    schema = make_schema(2, 3)
    X, y = deep_batch(rng, 24, 2, 3)
    forest = RandomForestClassifier(schema, seed=4, n_trees=9)
    forest.fit(X, y)
    assert 2 <= forest._flat.depth < 7  # no level the walk compacts at
    probes = np.vstack([rng.normal(size=(300, 2)), threshold_probes(forest.trees, X)])
    assert_walk_matches_references(forest._flat, forest.trees, probes)


def test_block_walk_stops_once_every_pair_is_on_a_leaf():
    # Rows with a negative first feature fall on a leaf near the root of every tree;
    # the rest of each tree is deep. A block of such rows ends levels before `depth`.
    rng = np.random.default_rng(13)
    schema = make_schema(2, 3)
    pure = np.column_stack([rng.uniform(-5, -1, 300), rng.normal(size=300)])
    X = np.vstack([pure, deep_batch(rng, 300, 2, 3)[0] + [3, 0]])
    y = np.concatenate([np.zeros(300, dtype=int), rng.integers(0, 3, 300)])
    forest = RandomForestClassifier(schema, seed=5, n_trees=8, max_features=None)
    forest.fit(X, y)
    block = X[:300][::3]
    assert forest._flat.depth >= 10
    assert max(len(path(t, x)) - 1 for t in forest.trees for x in block) < 7
    assert_walk_matches_references(forest._flat, forest.trees, block)
    assert_walk_matches_references(forest._flat, forest.trees, np.vstack([block, X[300:310]]))


@pytest.mark.parametrize("n_trees", [1, 20])
def test_block_walk_of_every_block_size_and_partial_block(n_trees):
    rng = np.random.default_rng(14 + n_trees)
    schema = make_schema(4, 3)
    X, y = deep_batch(rng, 500, 4, 3)
    forest = RandomForestClassifier(schema, seed=6, n_trees=n_trees)
    forest.fit(X, y)
    flat = forest._flat
    at = threshold_probes(forest.trees, X)
    assert flat.depth >= 10 and len(at) >= 150
    rows = np.empty((300, 4))
    rows[0::2], rows[1::2] = at[:150], rng.normal(size=(150, 4))  # every other row exactly at a threshold
    for size in (2, 3, 255, 256, 257):
        assert_walk_matches_references(flat, forest.trees, rows[:size])
    block = rows[:256]
    for i in (1, 2, 100, 253, 254, 255):  # what a shadow fitted mid-block labels
        assert_walk_matches_references(flat, forest.trees, block[i:])


def test_block_walk_steps_past_splits_whose_threshold_is_inf():
    # A fit keeps every threshold below a split's upper value, but the walk tells a leaf by ``inner``,
    # not by the +inf threshold a leaf has: a split at +inf routes every finite value left, and the
    # walk must not stop on it.
    rng = np.random.default_rng(15)
    schema = make_schema(2, 3)
    X, y = deep_batch(rng, 400, 2, 3)
    forest = RandomForestClassifier(schema, seed=7, n_trees=10)
    forest.fit(X, y)
    for tree in forest.trees:
        tree.threshold[np.flatnonzero(tree.feature == 1)[::2]] = np.inf
    probes = np.vstack([X[:200], rng.normal(size=(100, 2))])
    on_inf_split = sum(
        t.feature[node] >= 0 and t.threshold[node] == np.inf
        for t in forest.trees
        for x in probes
        for node in path(t, x)[7:]
    )
    assert on_inf_split >= 50  # pairs on such a split at level 7 or deeper
    assert_walk_matches_references(cart_module._FlatTrees(forest.trees), forest.trees, probes)


# -- candidate feature draws against Generator.choice -------------------------


class CountingHalves:
    """Counts the 32-bit draws a ``_FeatureDraws`` takes from its stream."""

    def __init__(self, halves):
        self.halves, self.taken = halves, 0

    def __next__(self):
        self.taken += 1
        return next(self.halves)


def draw_calls(rng):
    """(d, size) calls covering every branch of numpy's ``choice(d, size, replace=False)``."""
    calls = [(8, 2), (30, 5), (30, int(rng.integers(1, 31)))]  # sizes 1 to d; Floyd's j when size is near d
    calls.append((int(rng.integers(2, 6)),) * 2)  # size == d: Floyd's draws often repeat, and j is taken
    calls.append((10001, 200))  # size == d // 50: still Floyd's algorithm
    if rng.random() < 0.25:
        d = int(rng.choice([10001, 12000]))
        calls.append((d, int(rng.integers(d // 50 + 1, d + 1))))  # numpy's tail shuffle
    calls.append((3_000_000_000, int(rng.integers(1, 6))))  # Lemire rejects about 30 % of draws here
    calls.append((2**32 - 1, 2))  # the largest d in the domain
    calls.append((int(rng.integers(2, 100)), 1))
    return calls


@pytest.mark.parametrize("block", range(4))
def test_feature_draws_equal_generator_choice(block):
    # 250 seeds a block; each makes every call of draw_calls in turn on one stream.
    rng = np.random.default_rng(block)
    bounded = rejected = 0
    for seed in range(250 * block, 250 * (block + 1)):
        choice = np.random.default_rng(seed)
        draw = cart_module._FeatureDraws(seed)
        for d, size in draw_calls(rng):
            if d == 3_000_000_000:
                draw._halves = counting = CountingHalves(draw._halves)
            want = np.sort(choice.choice(d, size=size, replace=False)).tolist()
            assert draw.draw(d, size) == want, (seed, d, size)
            if d == 3_000_000_000:
                bounded += 2 * size - 1  # Floyd's draws and the shuffle's
                rejected += counting.taken - (2 * size - 1)
                draw._halves = counting.halves
    assert rejected > 0.2 * bounded  # the rejection loop ran, as often as Lemire's bound predicts



def test_pooled_draws_equal_generator_choice_across_refills_and_wide_draws():
    # 300 draws of each (d, size) on one stream cross several 64-draw pools; mid-pool, a tail-shuffle draw
    # and a draw beyond 10000 features (both made a half at a time) drop the pool, and the next draw
    # must start just after them.
    for seed in range(4):
        choice = np.random.default_rng(seed)
        draw = cart_module._FeatureDraws(seed)
        for d, size in [(8, 2), (68, 8), (30, 29), (5, 5), (7, 1)]:
            calls = [(d, size)] * 150 + [(10001, 300)] + [(d, size)] * 75 + [(3_000_000_000, 2)] + [(d, size)] * 75
            for i, (d_i, size_i) in enumerate(calls):
                want = np.sort(choice.choice(d_i, size=size_i, replace=False)).tolist()
                assert draw.draw(d_i, size_i) == want, (seed, d, size, i)


@pytest.mark.parametrize(
    "d, size, position",
    [(8, 2, 99), (68, 8, 300), (30, 29, 571), (5, 5, 1), (7, 1, 200)],  # each position's bound is no power of two
)
def test_a_draw_that_may_need_lemires_rejection_is_made_a_half_at_a_time(d, size, position):
    # A zero half gives a Lemire product whose low half, 0, is below its bound; for a bound that is no
    # power of two the rejection loop takes another half. The pooled draws must equal those made a half at
    # a time on the same stream, and so must later draws (size == d always draws every feature).
    streams = []
    for _ in range(2):
        draw = cart_module._FeatureDraws(11)
        draw._halves.ahead(4096)
        draw._halves.stream[position : position + 2] = 0
        streams.append(draw)
    pooled, one = streams
    calls = [(d, size)] * 300 + [(30, 5)] * 20
    assert [pooled.draw(*call) for call in calls] == [one._draw_one(*call) for call in calls]
