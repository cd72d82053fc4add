"""CART decision trees and a bagged random forest.

Trees use Gini impurity, midpoint thresholds between consecutive distinct
values, unlimited depth, a minimum of two samples to split and a
deterministic first-best tie-break. Nodes are stored in flat arrays.

A fit grows all of its trees in lockstep; a CART fit is the one-tree case
and a forest fit the n-tree case. Each tree keeps its own depth-first stack
and feature draws, so it opens its nodes, and draws their candidate features,
in the order it would if grown alone. At each step every tree with
an open node (as many as ``_SEARCH_CELLS`` holds) contributes that node, and
one segmented pass over the whole batch finds the first best split of each:

- A segment is one (node, candidate feature) pair. One ``argsort`` of the
  integer keys ``segment * n + rank`` orders every segment by value, where
  ``rank`` is the dense rank of a value in its feature, taken once per fit.
  The order among equal values is free: no cut falls between them, and the
  left class counts at a cut and both child row sets depend on values only.
- One running ``cumsum`` per class over the batch, less each segment's base,
  gives the left (and right) class counts of every cut as exact integers.
  Only cuts between distinct values are kept.
- Each cut's Gini takes the float operations, in the same order, of a
  search over one node's contiguous (cuts x classes) counts, as in the
  per-node reference the tests keep, so the floats are the same.
- ``np.minimum.reduceat`` and the first hit at or after each node's first
  cut give the node's first minimum in (feature, cut) order: its first best
  split. A node searched in feature chunks keeps the first best chunk (a
  strict ``<``), which is the same split.

A node's candidate features are ``np.sort(rng.choice(d, max_features,
replace=False))`` on one ``rng = default_rng(seed)`` per tree.
``_FeatureDraws`` makes the same draws without ``Generator.choice`` and its
per-call set-up: it reads the seed's PCG64 words in chunks, hands out each
word's lower 32-bit half, then its upper half, as PCG64 buffers them, and
bounds each draw by Lemire's method (ACM TOMACS 2019), all in numpy's order:
Floyd's algorithm and the result shuffle's draws, or numpy's tail shuffle
when ``d > 10000`` and ``size > d // 50``.

A node's class counts are handed down from its parent (the left child takes
the counts at the chosen cut, the right child the rest), so a leaf costs no
array operation.

Where the process may run on two or more CPUs (``os.sched_getaffinity``), a
forest fit of at least ``_FORK_ROWS`` rows x trees deals its trees round-robin
into one share per CPU, up to one per tree. This process grows the first
share and a forked child each other share, which sends back its trees' node
arrays; separate processes run the Python-bound lockstep loops side by side,
where threads share one GIL. As each tree's splits depend on its own rows and
draws only, the shares change no tree.

Prediction lays the trees end to end in one node layout (``_FlatTrees``):
node ids are global across trees, and a leaf routes to itself with feature 0
and threshold +inf. A block of rows then walks every tree at once, one
vectorized step per level, and the forest takes its votes with one
``bincount``. ``predict(x)`` is the one-row case of ``predict_labels``.
"""

from __future__ import annotations

import io
import math
import os
import pickle
import signal
import warnings

import numpy as np

from ..core import BatchClassifier, Schema, is_number


#: The most (rows x candidate features x classes) cells one split search
#: batch holds per class-major array. A node wider than that on its own is
#: searched a chunk of features at a time, keeping the first best split.
_SEARCH_CELLS = 1 << 15

#: A fitted tree's node arrays, as a forked share sends them back.
_NODE_ARRAYS = ("feature", "threshold", "left", "right", "label")

#: The fewest (rows x trees) a forest fit forks for. Below it a fit loses: its
#: shares make about as many lockstep searches as one process would, and a
#: fork costs some 20-30 ms in a 100 MB process on a 2-vCPU machine (pages the
#: parent writes are copied while the child lives, and both share the CPUs).
#: RF(20) on 1250 rows took 1.4-1.6x as long in two shares, RF(100) on 2500
#: rows 0.56-0.6x, RF(20) on 2500 rows 0.67x and RF(100) on 500 rows 1.37x.
_FORK_ROWS = 1 << 16


def _class_sum(a: np.ndarray) -> np.ndarray:
    """Sum a (classes x cuts) array over classes as a sum of each cut's contiguous class values does.

    numpy adds fewer than 8 contiguous values in order, as an axis-0 sum
    adds rows, and 8 or more pairwise, which only a class-last copy repeats.
    """
    return a.sum(axis=0) if len(a) < 8 else np.ascontiguousarray(a.T).sum(axis=1)


def _search(
    parts: list[tuple[np.ndarray, np.ndarray]], Xt: np.ndarray, ranks: np.ndarray, y: np.ndarray, k: int
) -> list[tuple | None]:
    """The first best split of each part ``(rows, candidate features)`` of an open node, in one pass.

    A part's result is None when no cut separates two distinct values, else
    ``(impurity, feature, threshold, left rows, right rows, left class counts)``.
    """
    n = Xt.shape[1]
    sizes = np.array([rows.size for rows, _ in parts])
    widths = np.array([len(feats) for _, feats in parts])
    seg_feature = np.array([f for _, feats in parts for f in feats])
    seg_len = np.repeat(sizes, widths)
    seg_end = np.cumsum(seg_len)
    seg_start = seg_end - seg_len
    segment = np.repeat(np.arange(seg_feature.size), seg_len)
    rows = np.concatenate([rows for rows, feats in parts for _ in feats])
    key = segment * n + ranks.take(seg_feature.take(segment) * n + rows)
    order = key.argsort()
    key, rows = key.take(order), rows.take(order)  # each segment keeps its place, sorted by value
    # A cut at p sends a segment's rows up to p left; none falls between equal values or at a segment's end.
    is_cut = key[1:] != key[:-1]
    is_cut[seg_end[:-1] - 1] = False
    cuts = np.flatnonzero(is_cut)
    running = np.zeros((k, key.size + 1), dtype=np.int64)
    np.cumsum(y.take(rows) == np.arange(k)[:, None], axis=1, out=running[:, 1:])
    seg = segment.take(cuts)
    at_cut = running.take(cuts + 1, axis=1)
    lc = at_cut - running.take(seg_start.take(seg), axis=1)  # left class counts of every cut
    rc = running.take(seg_end.take(seg), axis=1) - at_cut
    m = seg_len.take(seg)
    nl = cuts - seg_start.take(seg) + 1.0
    nr = m - nl
    gini_l = 1.0 - _class_sum((lc / nl) ** 2)
    gini_r = 1.0 - _class_sum((rc / nr) ** 2)
    weighted = (nl * gini_l + nr * gini_r) / m

    # Each part's cuts are weighted[first[i]:first[i + 1]], in (feature, cut) order.
    first = np.searchsorted(cuts, seg_start.take(np.cumsum(widths) - widths))
    found = np.flatnonzero(first < np.append(first[1:], cuts.size))
    best = np.minimum.reduceat(weighted, first.take(found))
    hits = np.flatnonzero(weighted == best.repeat(np.diff(np.append(first.take(found), cuts.size))))
    at = hits.take(np.searchsorted(hits, first.take(found)))  # the first minimum of each part
    p, seg = cuts.take(at), seg.take(at)
    feature = seg_feature.take(seg)
    threshold = ((Xt[feature, rows.take(p)] + Xt[feature, rows.take(p + 1)]) / 2.0).tolist()
    left_counts = lc.take(at, axis=1).T.tolist()
    results: list[tuple | None] = [None] * len(parts)
    for i, impurity, p, s, f, thr, counts in zip(
        found.tolist(), best.tolist(), p.tolist(), seg.tolist(), feature.tolist(), threshold, left_counts
    ):
        node_rows = rows[seg_start[s] : seg_end[s]].copy()  # a copy: the children keep only their node's rows alive
        split = p + 1 - seg_start[s]
        results[i] = (impurity, f, thr, node_rows[:split], node_rows[split:], counts)
    return results


class _FeatureDraws:
    """One tree's candidate-feature draws: ``draw(d, size)`` call after call equals
    ``np.sort(rng.choice(d, size, replace=False)).tolist()`` call after call on
    ``rng = np.random.default_rng(seed)``, for ``1 <= size <= d < 2**32``."""

    def __init__(self, seed: int | None) -> None:
        self._halves = self._read(np.random.PCG64(seed))

    @staticmethod
    def _read(bit_generator: np.random.PCG64):
        """The stream's 32-bit draws: each 64-bit word's lower half, then its upper half."""
        while True:
            for word in bit_generator.random_raw(16).tolist():  # 16 words: a forest's trees hold little memory
                yield word & 0xFFFFFFFF
                yield word >> 32

    def _below(self, n: int) -> int:
        """A uniform integer in ``[0, n)``, ``n <= 2**32 - 1``; ``n == 1`` takes no draw, as in numpy."""
        if n == 1:
            return 0
        m = next(self._halves) * n
        if m & 0xFFFFFFFF < n:
            threshold = (1 << 32) % n
            while m & 0xFFFFFFFF < threshold:
                m = next(self._halves) * n
        return m >> 32

    def draw(self, d: int, size: int) -> list[int]:
        if d > 10000 and size > d // 50:
            # Positions d - 1 down to d - size (never 0) each swap with a position at or below; the last size stay.
            moved: dict[int, int] = {}
            for i in range(d - 1, max(d - size, 1) - 1, -1):
                j = self._below(i + 1)
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            return sorted(moved.get(i, i) for i in range(d - size, d))
        chosen: set[int] = set()
        for j in range(d - size, d):
            value = self._below(j + 1)
            chosen.add(j if value in chosen else value)
        for i in range(size - 1, 0, -1):  # the result shuffle's draws; the sort undoes its order
            self._below(i + 1)
        return sorted(chosen)


class _Growth:
    """One tree being grown: its node lists, depth-first stack, feature draws and open node.

    The open node is the next one, in depth-first order, that needs a split
    search. Its candidate features are searched in parts of at most ``step``
    features, and the first best split over the parts wins.
    """

    def __init__(self, tree: CartClassifier, rows: np.ndarray, counts: list[int], d: int, k: int) -> None:
        self.tree, self.d, self.k = tree, d, k
        subsample = tree.max_features is not None and tree.max_features < d
        self.draws = _FeatureDraws(tree.seed) if subsample else None
        # Node lists; feature -1 marks a leaf.
        self.feature, self.threshold, self.left, self.right, self.label = [-1], [0.0], [0], [0], [0]
        self._nodes = (self.feature, self.threshold, self.left, self.right, self.label)
        self.depth = 0
        self.stack: list[tuple[int, np.ndarray, list[int], int]] = [(0, rows, counts, 0)]
        self._open_next()

    def _open_next(self) -> None:
        """Pop nodes, leaving as leaves those with nothing to search, until one needs a search."""
        while self.stack:
            node_id, rows, counts, depth = self.node = self.stack.pop()
            self.depth = max(self.depth, depth)
            m = rows.size
            self.label[node_id] = label = counts.index(max(counts))  # the first maximum, as argmax_tiebreak
            if m >= self.tree.min_samples_split and counts[label] < m:
                self.feats = self.draws.draw(self.d, self.tree.max_features) if self.draws else range(self.d)
                self.step = max(1, _SEARCH_CELLS // (m * self.k))
                self.best, self.split = math.inf, None
                self._next_part(0)
                return
        self.node = None

    def _next_part(self, lo: int) -> None:
        self.lo = lo
        feats = self.feats[lo : lo + self.step]
        self.part = (self.node[1], feats)
        self.cells = self.node[1].size * len(feats) * self.k

    def take(self, result: tuple | None) -> None:
        """Keep a part's split if strictly better; after the last part, split the node and open the next."""
        if result is not None and result[0] < self.best:
            self.best, self.split = result[0], result[1:]
        if self.lo + self.step < len(self.feats):
            self._next_part(self.lo + self.step)
            return
        node_id, _, counts, depth = self.node
        if self.split is not None:
            self.feature[node_id], self.threshold[node_id], left_rows, right_rows, left_counts = self.split
            self.left[node_id] = lid = len(self.feature)
            self.right[node_id] = rid = lid + 1
            for nodes, blank in zip(self._nodes, (-1, 0.0, 0, 0, 0)):
                nodes += (blank, blank)
            # Push right first so the left subtree is built first (stable rng order).
            self.stack.append((rid, right_rows, [c - l for c, l in zip(counts, left_counts)], depth + 1))
            self.stack.append((lid, left_rows, left_counts, depth + 1))
        self._open_next()

    def finish(self) -> None:
        tree = self.tree
        tree.feature = np.array(self.feature, dtype=np.int32)
        tree.threshold = np.array(self.threshold)
        tree.left = np.array(self.left, dtype=np.int32)
        tree.right = np.array(self.right, dtype=np.int32)
        tree.label = np.array(self.label, dtype=np.int32)
        tree.depth = self.depth


def _lockstep(
    trees: list[CartClassifier], Xt: np.ndarray, ranks: np.ndarray, y: np.ndarray, row_sets: list[np.ndarray], k: int
) -> None:
    """Fit ``trees[i]`` on the rows ``row_sets[i]``, growing all the trees in lockstep."""
    d = Xt.shape[0]
    growths = [
        _Growth(tree, rows, np.bincount(y[rows], minlength=k).tolist(), d, k) for tree, rows in zip(trees, row_sets)
    ]
    growing = [g for g in growths if g.node is not None]
    while growing:
        batch, cells = [], 0
        for g in growing:
            if not batch or cells + g.cells <= _SEARCH_CELLS:
                batch.append(g)
                cells += g.cells
        for g, result in zip(batch, _search([g.part for g in batch], Xt, ranks, y, k)):
            g.take(result)
        growing = [g for g in growing if g.node is not None]
    for g in growths:
        g.finish()


def _workers(n_trees: int, n_rows: int) -> int:
    """The shares a forest fit grows its trees in: one per CPU this process may run on, at most one
    per tree. Just one below ``_FORK_ROWS`` or where the platform cannot tell the CPUs (no fork there)."""
    if n_trees * n_rows < _FORK_ROWS or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(n_trees, len(os.sched_getaffinity(0)))


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if a pickle round trip gives back its type, else a RuntimeError that names it."""
    try:
        if type(pickle.loads(pickle.dumps(exc))) is type(exc):
            return exc
    except Exception:
        pass
    return RuntimeError(f"{type(exc).__module__}.{type(exc).__qualname__} in a forked forest share: {exc}")


def _fork(job) -> tuple[int, io.BufferedReader]:
    """Run ``job()`` in a forked child: its pid, and a pipe that carries ``(True, job())``
    pickled, or ``(False, exception)`` if it raised. The child always ends through ``os._exit``."""
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that a fork while other threads (a BLAS pool) run may deadlock the child.
            # This child takes no lock such a thread can hold: it makes no BLAS call, and it ends through
            # os._exit, which runs no exit handler and flushes none of the parent's stdio.
            warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    status = 1
    try:
        os.close(r)
        try:
            outcome = (True, job())
        except BaseException as exc:  # the parent raises it
            outcome = (False, _portable(exc))
        with open(w, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _grow(
    trees: list[CartClassifier], X: np.ndarray, y: np.ndarray, row_sets: list[np.ndarray], workers: int = 1
) -> None:
    """Fit ``trees[i]`` on the rows ``row_sets[i]`` (int32 ids) of ``(X, y)`` in ``workers`` shares.

    Tree ``i`` goes to share ``i % workers``. This process grows share 0 and a
    forked child each other share (this process, if no child can be made),
    each share in lockstep. A child sends back its trees' node arrays and
    depths. A tree's splits do not depend on the trees it is grown beside, so
    the shares change no tree.
    """
    k = trees[0].schema.n_classes
    Xt = np.ascontiguousarray(X.T)
    ranks = np.concatenate([np.unique(column, return_inverse=True)[1] for column in Xt])  # feature-major, as Xt

    def grow(share: list[int]) -> list[tuple]:
        _lockstep([trees[i] for i in share], Xt, ranks, y, [row_sets[i] for i in share], k)
        return [tuple(getattr(trees[i], name) for name in _NODE_ARRAYS) + (trees[i].depth,) for i in share]

    own, children = list(range(0, len(trees), workers)), []
    try:
        for first in range(1, workers):
            share = list(range(first, len(trees), workers))
            try:
                children.append((*_fork(lambda share=share: grow(share)), share))
            except OSError:  # no process or pipe to spare
                own += share
        grow(own)
        payloads = [pipe.read() for _, pipe, _ in children]
    except BaseException:
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, pipe, _ in children:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid, _, _ in children]
    for (pid, _, share), payload, status in zip(children, payloads, statuses):
        if status or not payload:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"forked forest share {pid} ended with exit code {code} and no result")
        grown, result = pickle.loads(payload)
        if not grown:
            raise result
        for i, (*arrays, depth) in zip(share, result):
            for name, array in zip(_NODE_ARRAYS, arrays):
                setattr(trees[i], name, array)
            trees[i].depth = depth
    for tree in trees:
        tree._flat = _FlatTrees([tree])


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
            np.concatenate([getattr(tree, name) for tree in trees]) for name in _NODE_ARRAYS
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
        if max_features is not None and not (is_number(max_features, integral=True) and max_features >= 1):
            raise ValueError(f"max_features must be null or an integer of at least 1, got {max_features!r}")
        if not (is_number(min_samples_split, integral=True) and min_samples_split >= 2):
            raise ValueError(f"min_samples_split must be an integer of at least 2, got {min_samples_split!r}")
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
        X, y = self._check_batch(X, y)
        _grow([self], X, y, [np.arange(len(X), dtype=np.int32)])

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

    Per-tree seeds and bootstrap rows are fixed up front from the forest
    seed, so the fitted forest is identical however tree construction is
    scheduled: the trees grow in lockstep, in one share per usable CPU for a
    large fit, each as it would alone. The predicted label is a majority vote over trees,
    ties resolved by class order.
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
        if not (is_number(n_trees, integral=True) and n_trees >= 1):
            raise ValueError(f"n_trees must be an integer of at least 1, got {n_trees!r}")
        if not isinstance(bootstrap, bool):
            raise ValueError(f"bootstrap must be true or false, got {bootstrap!r}")
        if max_features not in (None, "sqrt") and not (is_number(max_features, integral=True) and max_features >= 1):
            raise ValueError(f"max_features must be null, \"sqrt\" or an integer of at least 1, got {max_features!r}")
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
        X, y = self._check_batch(X, y)
        n, d = X.shape
        seeds = np.random.SeedSequence(self.seed).generate_state(2 * self.n_trees)
        mf = self._resolve_max_features(d)
        self.trees, rows = [], []
        for i in range(self.n_trees):
            idx = np.random.default_rng(int(seeds[2 * i])).integers(0, n, size=n) if self.bootstrap else np.arange(n)
            rows.append(idx.astype(np.int32))
            self.trees.append(CartClassifier(self.schema, seed=int(seeds[2 * i + 1]), max_features=mf))
        _grow(self.trees, X, y, rows, _workers(self.n_trees, n))
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
