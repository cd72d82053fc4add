"""The online learners over ``RunningMoments`` against verbatim copies of their earlier code.

Online Gaussian NB, the Hoeffding tree's leaves and the online logistic
scaler each kept their own running moments before they shared
``RunningMoments``. The copies below are that earlier code, kept as the
reference: over a drifting stream every prediction and every final statistic
must be equal, float for float. The copies share no scoring, entropy,
standardizing or gradient code with the package (only routing, the quantile
grid and the Hoeffding bound), so a later rewrite of that code is compared
with the code it replaced, not with itself.

The Hoeffding tree once scored each feature's split candidates on its own
(``_candidate_gains`` below); it now scores all features in one pass, and
the online naive Bayes scores skip the unseen-class masking once every class
has been seen. Both are checked against the copies on seeded random inputs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from driftstream.core import FeatureKind, OnlineClassifier, Schema, argmax_tiebreak
from driftstream.learners import (
    HoeffdingTreeClassifier,
    OnlineGaussianNB,
    OnlineLogisticRegression,
    RunningMoments,
)
from driftstream.learners import bayes
from driftstream.learners.tree import _Leaf, _split_gains, _SplitNode, hoeffding_bound

from conftest import gaussian_instances


class _OldRunningMoments:
    """Incremental mean and variance over vectors of a fixed dimension.

    Variance uses the n - 1 denominator and is reported as zero until two
    observations have been seen.
    """

    __slots__ = ("count", "mean", "m2")

    def __init__(self, dim: int) -> None:
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)

    def update(self, x: np.ndarray) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    def variance(self) -> np.ndarray:
        if self.count < 2:
            return np.zeros_like(self.m2)
        return self.m2 / (self.count - 1)

    def std(self) -> np.ndarray:
        return np.sqrt(self.variance())


_VAR_FLOOR_SCALE = 1e-9


def _floored(variances: np.ndarray, global_variance: np.ndarray) -> np.ndarray:
    floor = _VAR_FLOOR_SCALE * (global_variance + 1e-12)
    return np.maximum(variances, floor)


def _gaussian_nb_scores(
    x: np.ndarray,
    class_counts: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
    global_variance: np.ndarray,
) -> np.ndarray:
    """Posterior class probabilities from per-(class, feature) Gaussians."""
    total = class_counts.sum()
    seen = class_counts > 0
    var = _floored(variances, global_variance)
    log_joint = np.full(class_counts.shape[0], -np.inf)
    log_prior = np.log(class_counts[seen] / total)
    diff = x[None, :] - means[seen]
    log_lik = -0.5 * np.sum(np.log(2.0 * np.pi * var[seen]) + diff * diff / var[seen], axis=1)
    log_joint[seen] = log_prior + log_lik
    shifted = log_joint - log_joint.max()
    scores = np.exp(shifted)
    return scores / scores.sum()


def _entropy_bits(counts: np.ndarray, axis: int = 0) -> np.ndarray:
    totals = counts.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(totals > 0, counts / np.where(totals > 0, totals, 1.0), 0.0)
        terms = np.where(p > 0, -p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return terms.sum(axis=axis)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def _softmax_gradient(W: np.ndarray, b: np.ndarray, x: np.ndarray, y: int, l2: float) -> tuple[np.ndarray, ...]:
    """Class probabilities and the exact gradient (dW, db) of the L2-penalized cross-entropy."""
    probs = _softmax(x @ W + b)
    g = probs.copy()
    g[y] -= 1.0
    dW = np.outer(x, g) + l2 * W
    return probs, dW, g


def _candidate_gains(leaf: _Leaf, feature: int, quantiles: np.ndarray) -> tuple[float, float]:
    """Best information gain (bits) and threshold for one feature."""
    present = np.nonzero(leaf.counts)[0]
    n = leaf.counts.sum()
    mu = leaf.mean[present, feature]
    var = leaf.var[present, feature]
    w = leaf.counts[present] / n
    pooled_mean = float(w @ mu)
    pooled_var = float(max(w @ (var + mu**2) - pooled_mean**2, 0.0))
    if pooled_var <= 0.0:
        return 0.0, 0.0
    sigma = np.sqrt(_floored(var, pooled_var))
    thresholds = pooled_mean + math.sqrt(pooled_var) * quantiles
    frac_left = ndtr((thresholds[None, :] - mu[:, None]) / sigma[:, None])
    left = leaf.counts[present][:, None] * frac_left
    right = leaf.counts[present][:, None] - left
    nl = left.sum(axis=0)
    nr = right.sum(axis=0)
    parent_entropy = _entropy_bits(leaf.counts[present])
    child = (nl * _entropy_bits(left) + nr * _entropy_bits(right)) / n
    gains = parent_entropy - child
    best = int(np.argmax(gains))
    return float(gains[best]), float(thresholds[best])


class _OldOnlineGaussianNB(OnlineClassifier):
    """Gaussian naive Bayes updated one instance at a time."""

    def __init__(self, schema: Schema) -> None:
        super().__init__(schema)
        k, d = schema.n_classes, schema.n_features
        self.class_counts = np.zeros(k, dtype=np.int64)
        self._means = np.zeros((k, d))
        self._m2 = np.zeros((k, d))
        self._variances = np.zeros((k, d))  # m2 / (n - 1) per class, 0 below two rows
        self._global = _OldRunningMoments(d)

    def learn_one(self, x: np.ndarray, y: int) -> None:
        self._check_x(x)
        self._check_y(y)
        x = np.asarray(x, dtype=float)
        self.class_counts[y] += 1
        n = self.class_counts[y]
        delta = x - self._means[y]
        self._means[y] += delta / n
        self._m2[y] += delta * (x - self._means[y])
        if n >= 2:
            self._variances[y] = self._m2[y] / (n - 1)
        self._global.update(x)

    def predict(self, x: np.ndarray) -> int:
        self._check_x(x)
        if self.class_counts.sum() == 0:
            return 0
        scores = _gaussian_nb_scores(
            np.asarray(x, dtype=float),
            self.class_counts,
            self._means,
            self._variances,
            self._global.variance(),
        )
        return argmax_tiebreak(scores)


class _OldLeaf:
    __slots__ = ("counts", "mean", "m2", "n_since_check", "fallback_label")

    def __init__(self, n_classes: int, n_features: int, fallback_label: int) -> None:
        self.counts = np.zeros(n_classes, dtype=np.int64)
        self.mean = np.zeros((n_classes, n_features))
        self.m2 = np.zeros((n_classes, n_features))
        self.n_since_check = 0
        self.fallback_label = fallback_label

    def update(self, x: np.ndarray, y: int) -> None:
        self.counts[y] += 1
        n = self.counts[y]
        delta = x - self.mean[y]
        self.mean[y] += delta / n
        self.m2[y] += delta * (x - self.mean[y])
        self.n_since_check += 1

    def class_variances(self) -> np.ndarray:
        counts = self.counts[:, None]
        return np.where(counts >= 2, self.m2 / np.maximum(counts - 1, 1), 0.0)

    def pooled_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Mixture mean and variance per feature across the leaf's classes."""
        n = self.counts.sum()
        w = self.counts / n
        mean = w @ self.mean
        second = w @ (self.class_variances() + self.mean**2)
        return mean, np.maximum(second - mean**2, 0.0)


class _OldHoeffdingTree(HoeffdingTreeClassifier):
    """The earlier leaf, learn, split-search and predict code; routing is shared."""

    def __init__(self, schema: Schema, **params) -> None:
        super().__init__(schema, **params)
        self._root = _OldLeaf(schema.n_classes, schema.n_features, 0)

    def learn_one(self, x: np.ndarray, y: int) -> None:
        self._check_x(x)
        self._check_y(y)
        x = np.asarray(x, dtype=float)
        leaf, parent, side = self._route(x)
        leaf.update(x, y)
        if leaf.n_since_check >= self.grace_period:
            self._attempt_split(leaf, parent, side)
            leaf.n_since_check = 0

    def _candidate_gains(self, leaf: _OldLeaf, feature: int) -> tuple[float, float]:
        """Best information gain (bits) and threshold for one feature."""
        present = np.nonzero(leaf.counts)[0]
        n = leaf.counts.sum()
        mu = leaf.mean[present, feature]
        var = leaf.class_variances()[present, feature]
        w = leaf.counts[present] / n
        pooled_mean = float(w @ mu)
        pooled_var = float(max(w @ (var + mu**2) - pooled_mean**2, 0.0))
        if pooled_var <= 0.0:
            return 0.0, 0.0
        floor = _VAR_FLOOR_SCALE * (pooled_var + 1e-12)
        sigma = np.sqrt(np.maximum(var, floor))
        thresholds = pooled_mean + math.sqrt(pooled_var) * self._quantiles
        frac_left = ndtr((thresholds[None, :] - mu[:, None]) / sigma[:, None])
        left = leaf.counts[present][:, None] * frac_left
        right = leaf.counts[present][:, None] - left
        nl = left.sum(axis=0)
        nr = right.sum(axis=0)
        parent_entropy = _entropy_bits(leaf.counts[present])
        child = (nl * _entropy_bits(left) + nr * _entropy_bits(right)) / n
        gains = parent_entropy - child
        best = int(np.argmax(gains))
        return float(gains[best]), float(thresholds[best])

    def _attempt_split(self, leaf: _OldLeaf, parent: _SplitNode | None, side: int) -> None:
        present = np.count_nonzero(leaf.counts)
        if present < 2:
            return
        n = int(leaf.counts.sum())
        d = self.schema.n_features
        gains = np.zeros(d)
        thresholds = np.zeros(d)
        for j in range(d):
            gains[j], thresholds[j] = self._candidate_gains(leaf, j)
        best = int(np.argmax(gains))
        g1 = gains[best]
        others = np.delete(gains, best)
        g2 = float(others.max()) if others.size else 0.0
        radius = hoeffding_bound(math.log2(max(2, present)), self.delta, n)
        if g1 <= 1e-12:
            return
        if g1 - g2 > radius or radius < self.tie_threshold:
            fallback = argmax_tiebreak(leaf.counts)
            node = _SplitNode(
                best,
                thresholds[best],
                _OldLeaf(self.schema.n_classes, d, fallback),
                _OldLeaf(self.schema.n_classes, d, fallback),
            )
            if parent is None:
                self._root = node
            elif side == 0:
                parent.left = node
            else:
                parent.right = node
            self._n_nodes += 2

    def predict(self, x: np.ndarray) -> int:
        self._check_x(x)
        x = np.asarray(x, dtype=float)
        leaf, _, _ = self._route(x)
        n = int(leaf.counts.sum())
        if n == 0:
            # Untrained root (0) or empty child after a split (the parent's majority).
            return leaf.fallback_label
        if n < self.nb_threshold:
            return argmax_tiebreak(leaf.counts)
        _, pooled_var = leaf.pooled_moments()
        scores = _gaussian_nb_scores(x, leaf.counts, leaf.mean, leaf.class_variances(), pooled_var)
        return argmax_tiebreak(scores)


class _OldOnlineLogisticRegression(OnlineLogisticRegression):
    """The earlier scaler, ``_standardize``, predict and gradient step; only the parameters are shared."""

    def __init__(self, schema: Schema) -> None:
        super().__init__(schema)
        self._scaler = _OldRunningMoments(schema.n_features)

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        if self._scaler.count == 0:
            return np.zeros_like(x, dtype=float)
        std = self._scaler.std()
        out = np.zeros_like(x, dtype=float)
        nz = std > 0
        out[nz] = (x[nz] - self._scaler.mean[nz]) / std[nz]
        return out

    def predict(self, x: np.ndarray) -> int:
        self._check_x(x)
        scores = _softmax(self._standardize(np.asarray(x, dtype=float)) @ self.W + self.b)
        return argmax_tiebreak(scores)

    def learn_one(self, x: np.ndarray, y: int) -> None:
        self._check_x(x)
        self._check_y(y)
        x = np.asarray(x, dtype=float)
        # Scaler sees the instance before the gradient step.
        self._scaler.update(x)
        x_std = self._standardize(x)
        clip = self.gradient_clip
        _, dW, g = _softmax_gradient(self.W, self.b, x_std, y, self.l2)
        np.clip(dW, -clip, clip, out=dW)
        g = np.clip(g, -clip, clip)
        self.W -= self.learning_rate * dW
        self.b -= self.intercept_lr * g


def _leaves(node):
    if isinstance(node, _SplitNode):
        return _leaves(node.left) + _leaves(node.right)
    return [node]


def _drifting_stream(d: int, k: int = 4, n: int = 1200):
    """``n`` rows of classes 0..k-2, then ``n`` rows of all k classes about moved means; column 0 is constant."""
    rng = np.random.default_rng(d)
    before = gaussian_instances(rng.normal(size=(k - 1, d)) * 2, n, seed=1)
    after = gaussian_instances(rng.normal(size=(k, d)) * 2, n, seed=2, start_seq=n)
    for inst in before + after:
        inst.x[0] = 2.5
    return before + after


@pytest.mark.parametrize("d", [8, 68])
def test_online_learners_equal_their_earlier_code_over_a_drifting_stream(d):
    k = 4
    schema = Schema(
        feature_names=tuple(f"f{i}" for i in range(d)),
        feature_kinds=(FeatureKind.NUMERIC,) * d,
        class_labels=tuple(f"c{i}" for i in range(k)),
    )
    pairs = [
        (OnlineGaussianNB(schema), _OldOnlineGaussianNB(schema)),
        (HoeffdingTreeClassifier(schema, grace_period=30), _OldHoeffdingTree(schema, grace_period=30)),
        (OnlineLogisticRegression(schema), _OldOnlineLogisticRegression(schema)),
    ]
    stream = _drifting_stream(d, k)
    assert all(inst.y < k - 1 for inst in stream[:1200]) and any(inst.y == k - 1 for inst in stream[1200:])
    for inst in stream:
        for new, old in pairs:
            assert new.predict(inst.x) == old.predict(inst.x), (type(new).__name__, inst.seq)
            new.learn_one(inst.x, inst.y)
            old.learn_one(inst.x, inst.y)

    (gnb, old_gnb), (tree, old_tree), (olr, old_olr) = pairs
    assert np.array_equal(gnb.class_counts, old_gnb.class_counts)
    assert np.array_equal(gnb.class_means(), old_gnb._means)
    assert np.array_equal(gnb.class_variances(), old_gnb._variances)
    assert np.array_equal(gnb._global.var[0], old_gnb._global.variance())

    assert tree.n_nodes == old_tree.n_nodes > 1
    leaves, old_leaves = _leaves(tree._root), _leaves(old_tree._root)
    assert len(leaves) == len(old_leaves)
    for leaf, old_leaf in zip(leaves, old_leaves):
        assert np.array_equal(leaf.counts, old_leaf.counts)
        assert np.array_equal(leaf.mean, old_leaf.mean)
        assert np.array_equal(leaf.var, old_leaf.class_variances())
        assert leaf.fallback_label == old_leaf.fallback_label

    assert np.array_equal(olr.W, old_olr.W) and np.array_equal(olr.b, old_olr.b)
    assert np.array_equal(olr._scaler.var[0], old_olr._scaler.variance())


def test_running_moments_rows_equal_one_summary_per_class():
    rng = np.random.default_rng(4)
    X = np.round(rng.normal(size=(300, 5)) * 3, 2)
    y = rng.integers(0, 3, size=300)
    joint = RunningMoments(5, 3)
    apart = [_OldRunningMoments(5) for _ in range(3)]
    for x, c in zip(X, y):
        joint.update(x, c)
        apart[c].update(x)
    for c, old in enumerate(apart):
        assert joint.counts[c] == old.count
        assert np.array_equal(joint.mean[c], old.mean) and np.array_equal(joint.m2[c], old.m2)
        assert np.array_equal(joint.var[c], old.variance())


def _random_leaf(seed: int) -> tuple[_Leaf, np.ndarray]:
    """A leaf fed rounded rows of 2-12 present classes (0-2 absent), 1-80 features (some constant), and 1-20 quantiles."""
    rng = np.random.default_rng(seed)
    present, absent = int(rng.integers(2, 13)), int(rng.integers(0, 3))
    k, d, decimals = present + absent, int(rng.integers(1, 81)), int(rng.integers(0, 4))
    n_candidates = int(rng.integers(1, 21))
    leaf = _Leaf(k, d, 0)
    centers = rng.normal(size=(k, d)) * rng.uniform(0.1, 3)
    constant = rng.random(d) < 0.2
    for c in rng.permutation(k)[:present]:
        X = np.round(centers[c] + rng.normal(size=(int(rng.integers(1, 40)), d)) * rng.uniform(0.05, 2), decimals)
        X[:, constant] = 1.5
        for x in X:
            leaf.update(x, int(c))
    return leaf, ndtri(np.arange(1, n_candidates + 1) / (n_candidates + 1))


@pytest.mark.parametrize("first_seed", [0, 300, 600, 900])
def test_split_gains_equal_the_per_feature_search_bit_for_bit(first_seed):
    for seed in range(first_seed, first_seed + 300):
        leaf, quantiles = _random_leaf(seed)
        gains, thresholds = _split_gains(leaf, quantiles)
        old = [_candidate_gains(leaf, j, quantiles) for j in range(leaf.mean.shape[1])]
        assert gains.tolist() == [g for g, _ in old], seed
        assert thresholds.tolist() == [t for _, t in old], seed


def test_split_gains_of_a_leaf_with_only_constant_features_are_zero():
    leaf = _Leaf(3, 4, 0)
    for c in (0, 1, 2, 1):
        leaf.update(np.array([1.5, -2.0, 0.0, 7.25]), c)
    quantiles = ndtri(np.arange(1, 11) / 11)
    gains, thresholds = _split_gains(leaf, quantiles)
    assert gains.tolist() == thresholds.tolist() == [0.0] * 4
    assert [_candidate_gains(leaf, j, quantiles) for j in range(4)] == [(0.0, 0.0)] * 4


def test_gaussian_nb_scores_equal_their_earlier_code_bit_for_bit():
    seen_all = 0
    for seed in range(3000):
        rng = np.random.default_rng(seed)
        k, d, decimals = int(rng.integers(1, 13)), int(rng.integers(1, 81)), int(rng.integers(0, 4))
        counts = rng.integers(0, 50, size=k) * (rng.random(k) < rng.choice([1.0, 0.7]))
        counts[rng.integers(k)] += 1
        means = np.round(rng.normal(size=(k, d)) * 3, decimals)
        variances = np.round(rng.exponential(size=(k, d)), decimals) * (rng.random((k, d)) < 0.8)
        global_variance = np.round(rng.exponential(size=d), decimals) * (rng.random(d) < 0.8)
        x = np.round(rng.normal(size=d) * 3, decimals)
        args = (x, counts, means, variances, global_variance)
        assert np.array_equal(bayes._gaussian_nb_scores(*args, counts.sum()), _gaussian_nb_scores(*args)), seed
        seen_all += bool(counts.all())
    assert 500 < seen_all < 2500


# ---------------------------------------------------------------------------
# The row path against the code it replaced: the NB scores built in place,
# the Welford update on a Python int count, the pooled leaf variance in place
# and online logistic regression's cached standardization. The functions
# below are verbatim copies of that code; the classes apply them to the
# package's own state, so only the row path differs.


def _parent_gaussian_nb_scores(
    x: np.ndarray,
    class_counts: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
    global_variance: np.ndarray,
) -> np.ndarray:
    """Posterior class probabilities from per-(class, feature) Gaussians; an unseen class scores 0."""
    total = class_counts.sum()
    var = _floored(variances, global_variance)
    diff = x - means
    with np.errstate(divide="ignore"):  # an unseen class's log prior is -inf
        log_prior = np.log(class_counts / total)
    log_joint = log_prior + -0.5 * (np.log(2.0 * np.pi * var) + diff * diff / var).sum(axis=1)
    log_joint -= log_joint.max()
    scores = np.exp(log_joint, out=log_joint)
    return scores / scores.sum()


def _parent_update(self, x: np.ndarray, y: int = 0) -> None:
    self.counts[y] += 1
    n = self.counts[y]
    mean, m2 = self.mean[y], self.m2[y]  # row views, updated in place
    delta = x - mean
    mean += delta / n
    m2 += delta * (x - mean)
    if n >= 2:
        np.divide(m2, n - 1, out=self.var[y])


def _parent_pooled_variance(self) -> np.ndarray:
    """Mixture variance per feature across the leaf's classes."""
    w = self.counts / self.counts.sum()
    mean = w @ self.mean
    return np.maximum(w @ (self.var + self.mean**2) - mean**2, 0.0)


def _parent_softmax_gradient(W: np.ndarray, b: np.ndarray, x: np.ndarray, y: int, l2: float) -> tuple[np.ndarray, ...]:
    """Class probabilities and the exact gradient (dW, db) of the L2-penalized cross-entropy."""
    probs = _softmax(x @ W + b)
    g = probs.copy()
    g[y] -= 1.0
    dW = x[:, None] * g + l2 * W
    return probs, dW, g


class _ParentGaussianNB(OnlineGaussianNB):
    def learn_one(self, x: np.ndarray, y: int) -> None:
        self._check_x(x)
        self._check_y(y)
        x = np.asarray(x, dtype=float)
        _parent_update(self._classes, x, y)
        _parent_update(self._global, x)

    def predict(self, x: np.ndarray) -> int:
        self._check_x(x)
        c = self._classes
        if not np.count_nonzero(c.counts):
            return 0
        scores = _parent_gaussian_nb_scores(np.asarray(x, dtype=float), c.counts, c.mean, c.var, self._global.var[0])
        return argmax_tiebreak(scores)


class _ParentHoeffdingTree(HoeffdingTreeClassifier):
    """The earlier leaf update and predict; routing and the split search are shared."""

    def learn_one(self, x: np.ndarray, y: int) -> None:
        self._check_x(x)
        self._check_y(y)
        x = np.asarray(x, dtype=float)
        leaf, parent, side = self._route(x)
        _parent_update(leaf, x, y)
        leaf.n_since_check += 1
        if leaf.n_since_check >= self.grace_period:
            self._attempt_split(leaf, parent, side)
            leaf.n_since_check = 0

    def predict(self, x: np.ndarray) -> int:
        self._check_x(x)
        x = np.asarray(x, dtype=float)
        leaf, _, _ = self._route(x)
        n = int(leaf.counts.sum())
        if n == 0:
            # Untrained root (0) or empty child after a split (the parent's majority).
            return leaf.fallback_label
        if n < self.nb_threshold:
            return argmax_tiebreak(leaf.counts)
        scores = _parent_gaussian_nb_scores(x, leaf.counts, leaf.mean, leaf.var, _parent_pooled_variance(leaf))
        return argmax_tiebreak(scores)


class _ParentLogisticRegression(OnlineLogisticRegression):
    def _standardize(self, x: np.ndarray) -> np.ndarray:
        if self._scaler.counts[0] == 0:
            return np.zeros_like(x, dtype=float)
        std = np.sqrt(self._scaler.var[0])
        return np.divide(x - self._scaler.mean[0], std, out=np.zeros(len(x)), where=std > 0)

    def predict(self, x: np.ndarray) -> int:
        self._check_x(x)
        scores = _softmax(self._standardize(np.asarray(x, dtype=float)) @ self.W + self.b)
        return argmax_tiebreak(scores)

    def learn_one(self, x: np.ndarray, y: int) -> None:
        self._check_x(x)
        self._check_y(y)
        x = np.asarray(x, dtype=float)
        # Scaler sees the instance before the gradient step.
        _parent_update(self._scaler, x)
        x_std = self._standardize(x)
        clip = self.gradient_clip
        _, dW, g = _parent_softmax_gradient(self.W, self.b, x_std, y, self.l2)
        np.minimum(np.maximum(dW, -clip, out=dW), clip, out=dW)
        np.minimum(np.maximum(g, -clip, out=g), clip, out=g)
        self.W -= self.learning_rate * dW
        self.b -= self.intercept_lr * g


def _one_hot_stream(d: int, k: int = 4):
    """``_drifting_stream`` with one-hot columns: 1-3 encode ``y % 3`` (no variance within a class), 4-5 a coin."""
    stream = _drifting_stream(d, k)
    coins = np.random.default_rng(d + 1).integers(0, 2, size=len(stream))
    for inst, coin in zip(stream, coins):
        inst.x[1:6] = 0.0
        inst.x[1 + inst.y % 3] = 1.0
        inst.x[4 + coin] = 1.0
    return stream


def _schema(d: int, k: int = 4) -> Schema:
    return Schema(
        feature_names=tuple(f"f{i}" for i in range(d)),
        feature_kinds=(FeatureKind.NUMERIC,) * d,
        class_labels=tuple(f"c{i}" for i in range(k)),
    )


def _moments_bytes(m: RunningMoments) -> tuple[bytes, ...]:
    return m.counts.tobytes(), m.mean.tobytes(), m.m2.tobytes(), m.var.tobytes()


@pytest.mark.parametrize("d", [8, 68])
def test_online_learners_equal_the_code_before_the_in_place_row_path(d):
    schema = _schema(d)
    pairs = [
        (OnlineGaussianNB(schema), _ParentGaussianNB(schema)),
        (HoeffdingTreeClassifier(schema, grace_period=30), _ParentHoeffdingTree(schema, grace_period=30)),
        (OnlineLogisticRegression(schema), _ParentLogisticRegression(schema)),
    ]
    stream = _one_hot_stream(d)
    assert all(inst.y < 3 for inst in stream[:1200]) and any(inst.y == 3 for inst in stream[1200:])
    labels = {type(new).__name__: ([], []) for new, _ in pairs}
    for inst in stream:
        for new, old in pairs:
            mine, theirs = labels[type(new).__name__]
            mine.append(new.predict(inst.x))
            theirs.append(old.predict(inst.x))
            new.learn_one(inst.x, inst.y)
            old.learn_one(inst.x, inst.y)
    for name, (mine, theirs) in labels.items():
        assert mine == theirs, name
        assert len(set(mine)) > 1, name

    (gnb, old_gnb), (tree, old_tree), (olr, old_olr) = pairs
    assert _moments_bytes(gnb._classes) == _moments_bytes(old_gnb._classes)
    assert _moments_bytes(gnb._global) == _moments_bytes(old_gnb._global)
    assert tree.n_nodes == old_tree.n_nodes > 1
    leaves, old_leaves = _leaves(tree._root), _leaves(old_tree._root)
    assert [_moments_bytes(leaf) for leaf in leaves] == [_moments_bytes(leaf) for leaf in old_leaves]
    assert (olr.W.tobytes(), olr.b.tobytes()) == (old_olr.W.tobytes(), old_olr.b.tobytes())
    assert _moments_bytes(olr._scaler) == _moments_bytes(old_olr._scaler)


@pytest.mark.parametrize("d", [8, 68])
@pytest.mark.parametrize("order", ["predict predict learn predict", "learn learn predict"])
def test_logistic_regression_standardizes_with_the_current_scaler_in_any_call_order(order, d):
    # Each call takes the next row; a standardization cached past a scaler update changes the bytes.
    ops = order.split()
    new, old = OnlineLogisticRegression(_schema(d)), _ParentLogisticRegression(_schema(d))
    for t, inst in enumerate(_one_hot_stream(d)):
        op = ops[t % len(ops)]
        if op == "learn":
            new.learn_one(inst.x, inst.y)
            old.learn_one(inst.x, inst.y)
        else:
            assert new._standardize(inst.x).tobytes() == old._standardize(inst.x).tobytes(), t
            assert new.predict(inst.x) == old.predict(inst.x), t
    assert (new.W.tobytes(), new.b.tobytes()) == (old.W.tobytes(), old.b.tobytes())
    assert _moments_bytes(new._scaler) == _moments_bytes(old._scaler)


def test_nb_scores_and_pooled_variance_equal_the_code_before_the_in_place_row_path():
    for seed in range(2000):
        rng = np.random.default_rng(seed)
        k, d, decimals = int(rng.integers(1, 13)), int(rng.integers(1, 81)), int(rng.integers(0, 4))
        counts = rng.integers(0, 50, size=k) * (rng.random(k) < rng.choice([1.0, 0.7]))
        counts[rng.integers(k)] += 1
        means = np.round(rng.normal(size=(k, d)) * 3, decimals)
        variances = np.round(rng.exponential(size=(k, d)), decimals) * (rng.random((k, d)) < 0.8)
        global_variance = np.round(rng.exponential(size=d), decimals) * (rng.random(d) < 0.8)
        x = np.round(rng.normal(size=d) * 3, decimals)
        args = (x, counts, means, variances, global_variance)
        before = [a.tobytes() for a in args]
        expected = _parent_gaussian_nb_scores(*args).tobytes()
        assert bayes._gaussian_nb_scores(*args, np.add.reduce(counts)).tobytes() == expected, seed
        assert [a.tobytes() for a in args] == before, seed  # the inputs are not written to
    for seed in range(600):
        leaf, _ = _random_leaf(seed)
        state = _moments_bytes(leaf)
        pooled = leaf.pooled_variance(np.add.reduce(leaf.counts))
        assert pooled.tobytes() == _parent_pooled_variance(leaf).tobytes(), seed
        assert _moments_bytes(leaf) == state, seed


def test_running_moments_update_equals_the_code_before_it_counted_in_python_ints():
    rng = np.random.default_rng(5)
    X = np.round(rng.normal(size=(400, 6)) * 3, 2)
    X[:, 0] = 1.5
    y = rng.integers(0, 3, size=400)
    new, old = RunningMoments(6, 4), RunningMoments(6, 4)  # class 3 is never seen
    for x, c in zip(X, y.tolist()):
        new.update(x, c)
        _parent_update(old, x, c)
        assert _moments_bytes(new) == _moments_bytes(old)
