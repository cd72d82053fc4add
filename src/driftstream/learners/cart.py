"""CART decision trees and a bagged random forest.

Trees use Gini impurity, midpoint thresholds between consecutive distinct
values ``a < b`` (``a`` where the midpoint rounds to ``b``), unlimited depth,
a minimum of two samples to split and a deterministic first-best tie-break.
Nodes are stored in flat arrays.

A fit grows all of its trees in lockstep; a CART fit is the one-tree case
and a forest fit the n-tree case. Each tree grows in its own generator
(``_grow_tree``), a depth-first loop with the tree's own feature draws, so it
opens its nodes, and draws their candidate features, in the order it would if
grown alone. It yields each node's split search and is sent the result. At
each step a pending search wider than ``_SEARCH_CELLS`` forms a batch alone,
or else the trees' pending searches, in tree order and as many as it holds,
form one batch; one segmented pass over a batch finds the first best split
of each:

- A segment is one (node, candidate feature) pair. One ``argsort`` of the
  integer keys ``segment * n + rank`` orders every segment by value, where
  ``rank`` is the dense rank of a value in its feature, taken once per fit.
  The order among equal values is free: no cut falls between them, and the
  left class counts at a cut and both child row sets depend on values only.
- A running ``cumsum`` over the batch, less each segment's base, gives the
  left (and right) class counts of every cut as exact integers. It counts
  several classes at once, each in its own bit field of one int64. Only
  cuts between distinct values are kept.
- Each cut's Gini takes the float operations, in the same order, of a
  search over one node's contiguous (cuts x classes) counts, as in the
  per-node reference the tests keep, so the floats are the same; they are
  computed in place.
- ``np.minimum.reduceat`` and the first hit at or after each node's first
  cut give the node's first minimum in (feature, cut) order: its first best
  split. A node searched in feature chunks keeps the first best chunk (a
  strict ``<``), which is the same split.

A node's candidate features are ``np.sort(rng.choice(d, max_features,
replace=False))`` on one ``rng = default_rng(seed)`` per tree.
``_FeatureDraws`` makes the same draws without ``Generator.choice`` and its
per-call set-up: it reads the seed's PCG64 words ahead, takes each word's
lower 32-bit half, then its upper half, as PCG64 buffers them, and bounds
each draw by Lemire's method (ACM TOMACS 2019), all in numpy's order:
Floyd's algorithm and the result shuffle's draws, or numpy's tail shuffle
when ``d > 10000`` and ``size > d // 50``. A tree's draws share one
``(d, size)``, so it makes them 64 at a time in numpy.

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
vectorized step per level over its (row, tree) pairs, every few levels
dropping the pairs already on a leaf (most paths are far shorter than the
deepest), and the forest takes its votes with one ``bincount``.
``predict(x)`` is the one-row case of ``predict_labels``. A forest's tree
lays out its own ``_FlatTrees`` only when it is asked to predict alone.
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

#: The fewest (rows x trees) a forest fit forks for. Below it a fit loses to
#: the fork itself, some 20-30 ms in a 100 MB process on a 2-vCPU machine
#: (pages the parent writes are copied while the child lives), and to the two
#: CPUs' shared throughput: two CPU-bound processes each ran at 0.7-1.2x
#: their solo speed. Half the trees take about half the time (RF(10) on 1250
#: rows 48 ms, RF(20) 84 ms). RF(20) on 1250 rows took 1.4-1.6x as long in two
#: shares, RF(100) on 2500 rows 0.56-0.6x, RF(20) on 2500 rows 0.67x and
#: RF(100) on 500 rows 1.37x.
_FORK_ROWS = 1 << 16


def _class_sum(a: np.ndarray) -> np.ndarray:
    """Sum a (classes x cuts) array over classes as a sum of each cut's contiguous class values does.

    numpy adds fewer than 8 contiguous values in order, as an axis-0 sum
    adds rows, and 8 or more pairwise, which only a class-last copy repeats.
    """
    return a.sum(axis=0) if len(a) < 8 else np.ascontiguousarray(a.T).sum(axis=1)


def _weighted_gini(counts: np.ndarray, size: np.ndarray) -> np.ndarray:
    """``size * (1.0 - _class_sum((counts / size) ** 2))`` per cut of (classes x cuts) ``counts``, in place."""
    q = counts / size
    q *= q  # the bits of ``** 2``, which numpy computes as a square
    gini = _class_sum(q)
    np.subtract(1.0, gini, out=gini)
    gini *= size
    return gini


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
    # Running class counts, packed: class c counts in bits * (c % per) and up of lane c // per, so one cumsum
    # counts all of a lane's classes. A count stays below 2**bits, and a later position's counts are at
    # least an earlier one's, so the packed sums and differences never carry from one class into the next.
    bits, classes, labels = key.size.bit_length(), np.arange(k), y.take(rows)
    per = 63 // bits
    lanes = (k - 1) // per + 1
    packed = np.left_shift(1, bits * (classes % per)).take(labels)
    running = np.zeros((lanes, key.size + 1), dtype=np.int64)
    for lane in range(lanes):
        np.cumsum(packed if lanes == 1 else np.where(labels // per == lane, packed, 0), out=running[lane, 1:])
    seg = segment.take(cuts)
    base = seg_start.take(seg)
    at_cut = running.take(cuts + 1, axis=1)
    lc = at_cut - running.take(base, axis=1)
    rc = running.take(seg_end.take(seg), axis=1) - at_cut
    if lanes > 1:
        lc, rc = lc.take(classes // per, axis=0), rc.take(classes // per, axis=0)
    shift, mask = (bits * (classes % per))[:, None], (1 << bits) - 1
    lc, rc = (lc >> shift) & mask, (rc >> shift) & mask  # the left and right class counts of every cut
    m = seg_len.take(seg)
    nl = cuts - base + 1.0
    weighted = _weighted_gini(lc, nl)
    weighted += _weighted_gini(rc, m - nl)
    weighted /= m  # (nl * gini_l + nr * gini_r) / m

    # Each part's cuts are weighted[first[i]:first[i + 1]], in (feature, cut) order.
    first = np.searchsorted(cuts, seg_start.take(np.cumsum(widths) - widths))
    found = np.flatnonzero(first < np.append(first[1:], cuts.size))
    best = np.minimum.reduceat(weighted, first.take(found))
    hits = np.flatnonzero(weighted == best.repeat(np.diff(np.append(first.take(found), cuts.size))))
    at = hits.take(np.searchsorted(hits, first.take(found)))  # the first minimum of each part
    p, seg = cuts.take(at), seg.take(at)
    feature = seg_feature.take(seg)
    lows, highs = Xt[feature, rows.take(p)].tolist(), Xt[feature, rows.take(p + 1)].tolist()
    left_counts = lc.take(at, axis=1).T.tolist()
    starts, ends = seg_start.take(seg).tolist(), seg_end.take(seg).tolist()
    results: list[tuple | None] = [None] * len(parts)
    for i, impurity, p, start, end, f, a, b, counts in zip(
        found.tolist(), best.tolist(), p.tolist(), starts, ends, feature.tolist(), lows, highs, left_counts
    ):
        mid = a / 2.0 + b / 2.0  # (a + b) / 2 without overflow: halving a normal float is exact
        thr = mid if mid < b else a  # in [a, b): a where mid rounds up to b
        node_rows = rows[start:end].copy()  # a copy: the children keep only their node's rows alive
        results[i] = (impurity, f, thr, node_rows[: p + 1 - start], node_rows[p + 1 - start :], counts)
    return results


class _Halves:
    """A PCG64 stream's 32-bit draws: each word's lower half, then its upper half, as PCG64 buffers them.

    ``stream[at:]`` holds the halves read ahead and not yet taken; ``next`` takes one.
    """

    def __init__(self, seed: int | None) -> None:
        self._bits = np.random.PCG64(seed)
        self.stream = np.empty(0, dtype=np.uint64)
        self.at = 0

    def ahead(self, count: int) -> np.ndarray:
        """The next ``count`` halves, without taking them."""
        short = self.at + count - self.stream.size
        if short > 0:
            words = self._bits.random_raw(max(16, (short + 1) // 2))
            halves = np.column_stack((words & 0xFFFFFFFF, words >> 32)).ravel()
            self.stream = np.concatenate((self.stream[self.at :], halves))
            self.at = 0
        return self.stream[self.at : self.at + count]

    def __next__(self) -> int:
        half = self.ahead(1).item()
        self.at += 1
        return half


class _FeatureDraws:
    """One tree's candidate-feature draws: ``draw(d, size)`` call after call equals
    ``np.sort(rng.choice(d, size, replace=False)).tolist()`` call after call on
    ``rng = np.random.default_rng(seed)``, for ``1 <= size <= d < 2**32``.

    A draw from the pool moves the stream past its own halves only, so a
    dropped pool (a new ``(d, size)``, or a draw made a half at a time)
    leaves the stream just after the last draw.
    """

    _POOL = 64

    def __init__(self, seed: int | None) -> None:
        self._halves = _Halves(seed)  # not a generator over self: a cycle would outlive the fit until a full gc
        # The pool's (d, size), the halves each of its draws takes, and its draws, the next one last.
        self._key, self._width, self._pool = (0, 0), 0, []

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

    def _fill(self, d: int, size: int) -> None:
        """Pool the next ``_POOL`` draws for ``(d, size)`` at once: Lemire's products over a (draws x bounds)
        block of halves, Floyd's rule a column at a time, a sort per row. The pool stops before the first
        draw with a product whose low half is below its bound, as Lemire's rejection loop may run there."""
        # Floyd's bounds j + 1 (bound 1 takes no draw: its value is 0), then the result shuffle's.
        bounds = np.array([*range(max(d - size, 1) + 1, d + 1), *range(size, 1, -1)], dtype=np.uint64)
        floyd = min(size, d - 1)
        m = self._halves.ahead(self._POOL * bounds.size).reshape(self._POOL, bounds.size) * bounds
        slow = ((m & 0xFFFFFFFF) < bounds).any(axis=1)
        rows = int(slow.argmax()) if slow.any() else self._POOL
        chosen = np.zeros((rows, size), dtype=np.int64)
        chosen[:, size - floyd :] = m[:rows, :floyd] >> 32
        for t in range(1, size):  # Floyd's rule: a value already chosen gives way to j
            chosen[(chosen[:, :t] == chosen[:, t, None]).any(axis=1), t] = d - size + t
        chosen.sort(axis=1)
        self._key, self._width, self._pool = (d, size), bounds.size, chosen.tolist()[::-1]

    def draw(self, d: int, size: int) -> list[int]:
        if d <= 10000 and size <= 100:  # wider: numpy's tail shuffle may run, or Floyd's rule costs size**2 / 2 a draw
            if (d, size) != self._key or not self._pool:
                self._fill(d, size)
            if self._pool:
                self._halves.at += self._width
                return self._pool.pop()
        self._pool = []
        return self._draw_one(d, size)

    def _draw_one(self, d: int, size: int) -> list[int]:
        """``draw(d, size)`` a half at a time, as numpy takes them."""
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


def _grow_tree(tree: CartClassifier, rows: np.ndarray, counts: list[int], d: int, k: int):
    """Grow ``tree`` on ``rows``, whose class counts are ``counts``, depth first.

    Yields each node's split search a part ``(rows, candidate features)`` at
    a time, at most ``step`` features wide, and is sent each part's
    ``_search`` result; the first best split over the parts wins. Sets the
    tree's node arrays and depth when its stack is empty.
    """
    draws = _FeatureDraws(tree.seed) if tree.max_features is not None and tree.max_features < d else None
    feature, threshold, left, right, label = [-1], [0.0], [0], [0], [0]  # feature -1 marks a leaf
    deepest = 0
    stack = [(0, rows, counts, 0)]
    while stack:
        node_id, rows, counts, depth = stack.pop()
        deepest = max(deepest, depth)
        m = rows.size
        label[node_id] = top = counts.index(max(counts))  # the first maximum, as argmax_tiebreak
        if m < tree.min_samples_split or counts[top] == m:
            continue
        feats = draws.draw(d, tree.max_features) if draws else range(d)
        step = max(1, _SEARCH_CELLS // (m * k))
        best, split = math.inf, None
        for lo in range(0, len(feats), step):
            result = yield rows, feats[lo : lo + step]
            if result is not None and result[0] < best:
                best, split = result[0], result[1:]
        if split is not None:
            feature[node_id], threshold[node_id], left_rows, right_rows, left_counts = split
            left[node_id] = lid = len(feature)
            right[node_id] = lid + 1
            for nodes, blank in zip((feature, threshold, left, right, label), (-1, 0.0, 0, 0, 0)):
                nodes += (blank, blank)
            # Push right first so the left subtree is built first (stable rng order).
            stack.append((lid + 1, right_rows, [c - l for c, l in zip(counts, left_counts)], depth + 1))
            stack.append((lid, left_rows, left_counts, depth + 1))
    tree.feature, tree.threshold = np.array(feature, dtype=np.int32), np.array(threshold)
    tree.left, tree.right, tree.label = (np.array(a, dtype=np.int32) for a in (left, right, label))
    tree.depth = deepest


def _lockstep(
    trees: list[CartClassifier], Xt: np.ndarray, ranks: np.ndarray, y: np.ndarray, row_sets: list[np.ndarray], k: int
) -> None:
    """Fit ``trees[i]`` on the rows ``row_sets[i]``, growing all the trees in lockstep."""
    d = Xt.shape[0]
    counts = [np.bincount(y[rows], minlength=k).tolist() for rows in row_sets]
    # [growth, its pending part, the part's cells] per tree, in tree order.
    growing = [[_grow_tree(t, rows, c, d, k), None, 0] for t, rows, c in zip(trees, row_sets, counts)]
    batch, results = growing, [None] * len(growing)  # sending None starts a growth
    while True:
        for entry, result in zip(batch, results):
            try:
                entry[1] = rows, feats = entry[0].send(result)
                entry[2] = rows.size * len(feats) * k
            except StopIteration:
                entry[0] = None
        growing = [entry for entry in growing if entry[0]]
        if not growing:
            return
        batch = _next_batch(growing)
        results = _search([entry[1] for entry in batch], Xt, ranks, y, k)


def _next_batch(growing: list[list]) -> list[list]:
    """The first pending part over ``_SEARCH_CELLS`` alone, if any, else the pending parts that fit
    under it, greedily in tree order. Taking big parts first keeps a tree's small parts from running
    ahead while later trees wait on big ones: it would grow nearly alone, one node per search."""
    batch, cells = [], 0
    for entry in growing:
        if entry[2] > _SEARCH_CELLS:
            return [entry]
        if cells + entry[2] <= _SEARCH_CELLS:
            batch.append(entry)
            cells += entry[2]
    return batch


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


class _FlatTrees:
    """Route arrays of one or more fitted trees, laid end to end.

    ``child`` interleaves each node's right and left child, so a step takes
    ``child[2 * node + (x[feature] <= threshold)]``. A leaf's children are
    itself and its threshold is +inf, so a (row, tree) pair stays on its leaf
    once there. A block steps all its pairs a level at a time; from level 7,
    every third level it keeps only the pairs not yet on a leaf (``inner``),
    and it stops when none is left. A one-row block instead walks each tree in
    Python over list copies of the arrays, made on first use, and stops at the
    leaf: the same comparisons without a numpy call a level.
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
        self.inner = ~leaf
        self.depth = max(tree.depth for tree in trees)
        self._lists: tuple[list, ...] | None = None

    def leaf_labels(self, X: np.ndarray) -> np.ndarray:
        """The label of the leaf each row reaches in each tree: (rows x trees)."""
        n, d = X.shape
        if n == 1:
            return np.array([self._walk(X[0].tolist())], dtype=np.int64)
        cells = X.ravel()
        # The pairs still walking: their nodes, row offsets in cells and places in (rows x trees) order.
        nodes = np.tile(self.roots, n)
        at = np.repeat(np.arange(0, n * d, d), self.roots.size)
        pairs = np.arange(nodes.size)
        reached = np.empty_like(nodes)
        # In RF(100) fit on 2500 rows (depth 23, mean path 8.3), 60 % of pairs are above a leaf after level
        # 7, 18 % after level 10 and 5 % after 12. Compacting at 7, 10, 13, ... walked 256-row blocks
        # 1.8-1.9x as fast as no compaction (RF(20) on 1250 rows: 1.3-1.4x); other starts and strides from
        # 5 to 8 and 2 to 4 were within noise of it, and compacting every level from 4 on was slower.
        for level in range(1, self.depth + 1):
            go_left = cells.take(at + self.feature.take(nodes)) <= self.threshold.take(nodes)
            nodes = self.child.take(2 * nodes + go_left)
            if level >= 7 and level % 3 == 1:
                reached.put(pairs, nodes)
                live = np.flatnonzero(self.inner.take(nodes))
                if not live.size:
                    break
                nodes, at, pairs = nodes.take(live), at.take(live), pairs.take(live)
        reached.put(pairs, nodes)
        return self.label.take(reached).reshape(n, self.roots.size)

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
        self._flat = _FlatTrees([self])

    def predict(self, x: np.ndarray) -> int:
        self._check_x(x)
        return int(self.predict_labels(np.reshape(x, (1, -1)))[0])

    def predict_labels(self, X: np.ndarray) -> np.ndarray:
        X = self._check_block(X)
        if self.feature is None:
            return np.zeros(len(X), dtype=np.int64)
        if self._flat is None:  # a forest's tree: the forest routes through its own
            self._flat = _FlatTrees([self])
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

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        X, y = self._check_batch(X, y)
        n, d = X.shape
        seeds = np.random.SeedSequence(self.seed).generate_state(2 * self.n_trees)
        mf = max(1, int(math.sqrt(d))) if self.max_features == "sqrt" else self.max_features
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
