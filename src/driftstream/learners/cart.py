"""CART decision trees and a bagged random forest.

Trees use Gini impurity, midpoint thresholds between consecutive distinct
values, unlimited depth, a minimum of two samples to split and a
deterministic first-best tie-break. Nodes are stored in flat arrays.

Fitting searches each splitting node with one fixed set of array operations
over all of its candidate features: one stable ``argsort`` of the (features x
rows) value block, one ``cumsum`` of the sorted one-hot labels that gives the
left class counts of every cut, the Gini of every cut, and one ``argmin``, whose
first minimum in (feature, cut) order is the first best split. A node's class
counts are handed down from its parent (the left child takes the counts at the
chosen cut, the right child the rest), so a leaf costs no array operation.

Prediction lays the trees end to end in one node layout (``_FlatTrees``):
node ids are global across trees, and a leaf routes to itself with feature 0
and threshold +inf. A block of rows then walks every tree at once, one
vectorized step per level, and the forest takes its votes with one
``bincount``. ``predict(x)`` is the one-row case of ``predict_labels``.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import BatchClassifier, DataError, Schema


#: The most (features x rows x classes) cells one split search holds per
#: temporary array (8 MiB of floats); a node wider than that searches its
#: candidate features a chunk at a time, keeping the first best split.
_SEARCH_CELLS = 1 << 20


class _FlatTrees:
    """Route arrays of one or more fitted trees, laid end to end.

    ``child`` interleaves each node's right and left child, so a step takes
    ``child[2 * node + (x[feature] <= threshold)]``. A leaf's children are
    itself and its threshold is +inf, so every row takes ``depth`` steps in
    every tree and stays on its leaf once there. A one-row block instead walks
    each tree in Python over list copies of the arrays, made on first use,
    and stops at the leaf: the same comparisons without a numpy call a level.
    """

    def __init__(self, trees: list[CartClassifier]) -> None:
        sizes = [tree.feature.size for tree in trees]
        self.roots = np.cumsum([0] + sizes[:-1])
        feature, threshold, left, right, label = (
            np.concatenate([getattr(tree, name) for tree in trees])
            for name in ("feature", "threshold", "left", "right", "label")
        )
        leaf = feature < 0
        ids = np.arange(feature.size)
        offset = np.repeat(self.roots, sizes)
        self.feature = np.where(leaf, 0, feature)
        self.threshold = np.where(leaf, np.inf, threshold)
        self.child = np.column_stack([np.where(leaf, ids, right + offset), np.where(leaf, ids, left + offset)]).ravel()
        self.label = label.astype(np.int64)
        self.depth = max(tree.depth for tree in trees)
        self._lists: tuple[list, ...] | None = None

    def leaf_labels(self, X: np.ndarray) -> np.ndarray:
        """The label of the leaf each row reaches in each tree: (rows x trees)."""
        n, d = X.shape
        if n == 1:
            return np.array([self._walk(X[0].tolist())], dtype=np.int64)
        cells = X.ravel()
        row_start = np.arange(n)[:, None] * d
        nodes = np.broadcast_to(self.roots, (n, self.roots.size))
        for _ in range(self.depth):
            go_left = cells.take(row_start + self.feature.take(nodes)) <= self.threshold.take(nodes)
            nodes = self.child.take(2 * nodes + go_left)
        return self.label.take(nodes)

    def _walk(self, x: list[float]) -> list[int]:
        """The leaf label one row reaches in each tree."""
        if self._lists is None:
            self._lists = tuple(a.tolist() for a in (self.roots, self.feature, self.threshold, self.child, self.label))
        roots, feature, threshold, child, label = self._lists
        labels = []
        for node in roots:
            while (step := child[2 * node + (x[feature[node]] <= threshold[node])]) != node:
                node = step
            labels.append(label[node])
        return labels


class CartClassifier(BatchClassifier):
    """Single CART tree grown to purity (where the data allows)."""

    def __init__(
        self,
        schema: Schema,
        seed: int | None = None,
        max_features: int | None = None,
        min_samples_split: int = 2,
    ) -> None:
        super().__init__(schema)
        self.seed = seed
        self.max_features = max_features
        self.min_samples_split = min_samples_split
        self.feature: np.ndarray | None = None  # -1 marks a leaf
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.label: np.ndarray | None = None
        self.depth = 0
        self._flat: _FlatTrees | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.size == 0:
            raise DataError("empty training batch")
        rng = np.random.default_rng(self.seed)
        n, d = X.shape
        k = self.schema.n_classes
        subsample = self.max_features is not None and self.max_features < d
        root_counts = np.bincount(y, minlength=k).tolist()
        Xt = np.ascontiguousarray(X.T)
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y] = 1.0
        sizes = np.arange(1, n, dtype=float)  # rows left of each cut
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

        stack: list[tuple[int, np.ndarray, list[int], int]] = [(new_node(), np.arange(n), root_counts, 0)]
        while stack:
            node_id, rows, counts, depth = stack.pop()
            self.depth = max(self.depth, depth)
            m = rows.size
            label[node_id] = counts.index(max(counts))  # the first maximum, as argmax_tiebreak
            if m < self.min_samples_split or counts[label[node_id]] == m:
                continue
            feats = np.sort(rng.choice(d, size=self.max_features, replace=False)) if subsample else np.arange(d)
            total = np.array(counts, dtype=float)
            nl = sizes[: m - 1]
            nr = m - nl
            best = math.inf
            step = max(1, _SEARCH_CELLS // (m * k))
            for lo in range(0, feats.size, step):
                fs = feats[lo : lo + step, None]
                srows = rows[Xt[fs, rows].argsort(axis=1, kind="stable")]
                xs = Xt[fs, srows]
                lc = onehot[srows[:, :-1]].cumsum(axis=1)  # left class counts of every cut
                gini_l = 1.0 - ((lc / nl[:, None]) ** 2).sum(axis=2)
                gini_r = 1.0 - (((total - lc) / nr[:, None]) ** 2).sum(axis=2)
                # No cut between equal values; argmin takes the first minimum in (feature, cut) order.
                weighted = np.where(xs[:, 1:] > xs[:, :-1], (nl * gini_l + nr * gini_r) / m, np.inf)
                f, j = divmod(int(weighted.argmin()), m - 1)
                if weighted[f, j] < best:
                    best = weighted[f, j]
                    thr = float((xs[f, j] + xs[f, j + 1]) / 2.0)
                    split = (int(fs[f, 0]), thr, srows[f], j + 1, lc[f, j].astype(np.int64).tolist())
            if best == math.inf:
                continue
            feature[node_id], threshold[node_id], sorted_rows, pos, left_counts = split
            left[node_id] = lid = new_node()
            right[node_id] = rid = new_node()
            # Push right first so the left subtree is built first (stable rng order).
            stack.append((rid, sorted_rows[pos:], [c - l for c, l in zip(counts, left_counts)], depth + 1))
            stack.append((lid, sorted_rows[:pos], left_counts, depth + 1))

        self.feature = np.array(feature, dtype=np.int32)
        self.threshold = np.array(threshold)
        self.left = np.array(left, dtype=np.int32)
        self.right = np.array(right, dtype=np.int32)
        self.label = np.array(label, dtype=np.int32)
        self._flat = _FlatTrees([self])

    def predict(self, x: np.ndarray) -> int:
        self._check_x(x)
        return int(self.predict_labels(np.reshape(x, (1, -1)))[0])

    def predict_labels(self, X: np.ndarray) -> np.ndarray:
        X = self._check_block(X)
        if self._flat is None:
            return np.zeros(len(X), dtype=np.int64)
        return self._flat.leaf_labels(X)[:, 0]


class RandomForestClassifier(BatchClassifier):
    """Bagging over CART trees with per-split feature subsampling.

    Per-tree seeds are fixed up front from the forest seed, so the fitted
    forest is identical however tree construction is scheduled. The predicted
    label is a majority vote over trees, ties resolved by class order.
    """

    def __init__(
        self,
        schema: Schema,
        seed: int = 0,
        n_trees: int = 100,
        bootstrap: bool = True,
        max_features: int | str | None = "sqrt",
    ) -> None:
        super().__init__(schema)
        self.seed = seed
        self.n_trees = n_trees
        self.bootstrap = bootstrap
        self.max_features = max_features
        self.trees: list[CartClassifier] = []
        self._flat: _FlatTrees | None = None

    def _resolve_max_features(self, d: int) -> int | None:
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(d)))
        return self.max_features

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.size == 0:
            raise DataError("empty training batch")
        n, d = X.shape
        seeds = np.random.SeedSequence(self.seed).generate_state(2 * self.n_trees)
        mf = self._resolve_max_features(d)
        self.trees = []
        for i in range(self.n_trees):
            boot_rng = np.random.default_rng(int(seeds[2 * i]))
            idx = boot_rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            tree = CartClassifier(self.schema, seed=int(seeds[2 * i + 1]), max_features=mf)
            tree.fit(X[idx], y[idx])
            self.trees.append(tree)
        self._flat = _FlatTrees(self.trees)

    def predict(self, x: np.ndarray) -> int:
        self._check_x(x)
        return int(self.predict_labels(np.reshape(x, (1, -1)))[0])

    def predict_labels(self, X: np.ndarray) -> np.ndarray:
        X = self._check_block(X)
        if self._flat is None:
            return np.zeros(len(X), dtype=np.int64)
        n, k = len(X), self.schema.n_classes
        codes = self._flat.leaf_labels(X) + k * np.arange(n)[:, None]
        votes = np.bincount(codes.ravel(), minlength=n * k).reshape(n, k)
        return votes.argmax(axis=1)  # the first maximum: ties go to the lowest class index
