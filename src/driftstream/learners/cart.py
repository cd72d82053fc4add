"""CART decision trees and a bagged random forest.

Trees use Gini impurity, midpoint thresholds between consecutive distinct
values, unlimited depth, a minimum of two samples to split and a
deterministic first-best tie-break. Nodes are stored in flat arrays; the
forest stacks them so one prediction routes every tree with vectorized steps
instead of per-tree Python loops.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import BatchClassifier, DataError, Schema, argmax_tiebreak


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
                thr = (xs[cut[j] - 1] + xs[cut[j]]) / 2.0
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

    def predict(self, x: np.ndarray) -> int:
        self._check_x(x)
        if self.feature is None:
            return 0
        node = 0
        while self.feature[node] >= 0:
            node = self.left[node] if x[self.feature[node]] <= self.threshold[node] else self.right[node]
        return int(self.label[node])


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
        self._flat = None

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
        self._stack()

    def _stack(self) -> None:
        t = len(self.trees)
        width = max(tree.feature.size for tree in self.trees)
        feat = np.full((t, width), -1, dtype=np.int32)
        thr = np.zeros((t, width))
        left = np.zeros((t, width), dtype=np.int32)
        right = np.zeros((t, width), dtype=np.int32)
        label = np.zeros((t, width), dtype=np.int32)
        for i, tree in enumerate(self.trees):
            m = tree.feature.size
            feat[i, :m] = tree.feature
            thr[i, :m] = tree.threshold
            left[i, :m] = tree.left
            right[i, :m] = tree.right
            label[i, :m] = tree.label
        self._flat = (feat, thr, left, right, label)
        self._rows = np.arange(t)
        self._max_depth = max(tree.depth for tree in self.trees)

    def predict(self, x: np.ndarray) -> int:
        self._check_x(x)
        if self._flat is None:
            return 0
        feat, thr, left, right, label = self._flat
        x = np.asarray(x, dtype=float)
        nodes = np.zeros(len(self.trees), dtype=np.int32)
        for _ in range(self._max_depth + 1):
            f = feat[self._rows, nodes]
            internal = f >= 0
            if not internal.any():
                break
            go_left = x[np.maximum(f, 0)] <= thr[self._rows, nodes]
            nxt = np.where(go_left, left[self._rows, nodes], right[self._rows, nodes])
            nodes = np.where(internal, nxt, nodes)
        votes = np.bincount(label[self._rows, nodes], minlength=self.schema.n_classes)
        return argmax_tiebreak(votes)
