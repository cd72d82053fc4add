"""Incremental decision tree with Hoeffding-bound split decisions.

Each leaf is a ``RunningMoments`` with a row per class, the Gaussian summary
online naive Bayes keeps, so memory per leaf is bounded and split candidates
come from quantiles of the leaf's pooled distribution rather than exhaustive
value histograms. A split attempt scores every candidate of every feature in
one (present classes x features x candidates) pass, ``_split_gains``, as
VFDT and MOA's Gaussian attribute observer score every candidate of every
attribute; its floats equal those of scoring each feature on its own. Leaf
prediction is majority class until ``nb_threshold`` instances have been seen,
then naive Bayes over the leaf's means and variances.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri

from ..core import OnlineClassifier, Schema, argmax_tiebreak, is_number
from .bayes import _floored, _gaussian_nb_log_joint, first_best
from .moments import RunningMoments


def hoeffding_bound(range_r: float, delta: float, n: int) -> float:
    """Confidence radius sqrt(R^2 ln(1/delta) / (2 n)).

    With probability 1 - delta, the observed mean of n samples of a quantity
    with range R lies within this radius of its true mean; a leaf splits once
    the gap between its best and second-best candidate gain exceeds it.
    """
    return math.sqrt(range_r * range_r * math.log(1.0 / delta) / (2.0 * n))


def _entropy_bits(counts: np.ndarray, axis: int = 0) -> np.ndarray:
    totals = counts.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(totals > 0, counts / np.where(totals > 0, totals, 1.0), 0.0)
        terms = np.where(p > 0, -p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return terms.sum(axis=axis)


class _Leaf(RunningMoments):
    """Per-class moments of the rows routed here, plus split bookkeeping."""

    __slots__ = ("n_since_check", "fallback_label")

    def __init__(self, n_classes: int, n_features: int, fallback_label: int) -> None:
        super().__init__(n_features, n_classes)
        self.n_since_check = 0
        self.fallback_label = fallback_label

    def pooled_variance(self, total) -> np.ndarray:
        """Mixture variance per feature across the leaf's classes; ``total`` is the sum of ``counts``."""
        w = self.counts / total
        mean = w @ self.mean
        second = self.mean**2
        second += self.var
        second = w @ second
        mean *= mean
        second -= mean
        return np.maximum(second, 0.0, out=second)


def _column_dots(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``w @ a[:, j].copy()`` for every column j of ``a``, bit for bit.

    Stacked vector-vector products take one BLAS dot per column over a
    contiguous row, as the 1-D product of two contiguous vectors does;
    ``w @ a`` (one gemv), ``einsum`` and the dot of a strided column round
    differently.
    """
    return (np.ascontiguousarray(a.T)[:, None, :] @ w)[:, 0]


def _square(m: float) -> float:
    """``m**2`` of a Python float (libm pow; numpy's ``**2`` multiplies and can round differently), ``inf`` on overflow.

    Python raises ``OverflowError`` where the square of a finite float is too
    large (``abs(m)`` above about 1.3e154); numpy's square gives ``inf``.
    """
    try:
        return m**2
    except OverflowError:
        return math.inf


def _split_gains(leaf: _Leaf, quantiles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best information gain (bits) and its threshold for every feature.

    A feature's candidates are its pooled mean plus its pooled standard
    deviation times ``quantiles``. The arrays are (present classes x features x
    candidates), so every sum over classes is an axis-0 sum in the order one
    feature alone takes. A feature whose pooled variance is <= 0 keeps gain
    and threshold 0.0.
    """
    present = np.flatnonzero(leaf.counts)
    counts = leaf.counts[present]
    n = counts.sum()
    mu = leaf.mean[present]
    var = leaf.var[present]
    w = counts / n
    pooled_mean = _column_dots(w, mu)
    second = _column_dots(w, var + mu**2)
    pooled_var = np.maximum(second - [_square(m) for m in pooled_mean.tolist()], 0.0)
    gains = np.zeros(leaf.mean.shape[1])
    thresholds = np.zeros(leaf.mean.shape[1])
    scored = np.flatnonzero(~(pooled_var <= 0.0))
    pooled_var = pooled_var[scored]
    mu, var = mu[:, scored], var[:, scored]
    sigma = np.sqrt(_floored(var, pooled_var))
    candidates = pooled_mean[scored, None] + np.sqrt(pooled_var)[:, None] * quantiles
    frac_left = ndtr((candidates - mu[:, :, None]) / sigma[:, :, None])
    left = counts[:, None, None] * frac_left
    right = counts[:, None, None] - left
    nl = left.sum(axis=0)
    nr = right.sum(axis=0)
    child = (nl * _entropy_bits(left) + nr * _entropy_bits(right)) / n
    candidate_gains = _entropy_bits(counts) - child
    best = candidate_gains.argmax(axis=1)
    rows = np.arange(scored.size)
    gains[scored] = candidate_gains[rows, best]
    thresholds[scored] = candidates[rows, best]
    return gains, thresholds


class _SplitNode:
    __slots__ = ("feature", "threshold", "left", "right")

    def __init__(self, feature: int, threshold: float, left: _Leaf, right: _Leaf) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


class HoeffdingTreeClassifier(OnlineClassifier):
    """Single-pass decision tree for streams.

    Split attempts happen every ``grace_period`` instances routed to a leaf.
    A split is taken when the information-gain lead of the best feature over
    the runner-up exceeds the Hoeffding radius, or when the radius itself has
    shrunk below ``tie_threshold`` (near-identical candidates are then
    interchangeable and waiting longer buys nothing).
    """

    def __init__(
        self,
        schema: Schema,
        grace_period: int = 100,
        delta: float = 0.01,
        nb_threshold: int = 10,
        tie_threshold: float = 0.05,
        n_candidates: int = 10,
    ) -> None:
        super().__init__(schema)
        for name, value, least in (("grace_period", grace_period, 1), ("nb_threshold", nb_threshold, 0),
                                   ("n_candidates", n_candidates, 1)):
            if not (is_number(value, integral=True) and value >= least):
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        if not (is_number(delta) and 0 < delta < 1):
            raise ValueError(f"delta must be a number in (0, 1), got {delta!r}")
        if not (is_number(tie_threshold) and 0 <= tie_threshold < math.inf):
            raise ValueError(f"tie_threshold must be a finite number of at least 0, got {tie_threshold!r}")
        self.grace_period = grace_period
        self.delta = delta
        self.nb_threshold = nb_threshold
        self.tie_threshold = tie_threshold
        self.n_candidates = n_candidates
        self._root: _Leaf | _SplitNode = _Leaf(schema.n_classes, schema.n_features, 0)
        self._n_nodes = 1
        self._quantiles = ndtri(np.arange(1, n_candidates + 1) / (n_candidates + 1))

    @property
    def n_nodes(self) -> int:
        return self._n_nodes

    def _route(self, x: np.ndarray) -> tuple[_Leaf, _SplitNode | None, int]:
        node = self._root
        parent: _SplitNode | None = None
        side = 0
        while isinstance(node, _SplitNode):
            parent = node
            if x[node.feature] <= node.threshold:
                node, side = node.left, 0
            else:
                node, side = node.right, 1
        return node, parent, side

    def learn_one(self, x: np.ndarray, y: int) -> None:
        self._check_x(x)
        self._check_y(y)
        x = np.asarray(x, dtype=float)
        leaf, parent, side = self._route(x)
        leaf.update(x, y)
        leaf.n_since_check += 1
        if leaf.n_since_check >= self.grace_period:
            self._attempt_split(leaf, parent, side)
            leaf.n_since_check = 0

    def _attempt_split(self, leaf: _Leaf, parent: _SplitNode | None, side: int) -> None:
        present = np.count_nonzero(leaf.counts)
        if present < 2:
            return
        n = int(leaf.counts.sum())
        d = self.schema.n_features
        gains, thresholds = _split_gains(leaf, self._quantiles)
        finite = np.flatnonzero(np.isfinite(gains))  # a NaN gain (pooled variance inf - inf) is no candidate
        if finite.size == 0:
            return
        best = int(finite[np.argmax(gains[finite])])
        g1 = gains[best]
        others = gains[finite[finite != best]]
        g2 = float(others.max()) if others.size else 0.0
        radius = hoeffding_bound(math.log2(max(2, present)), self.delta, n)
        if g1 <= 1e-12:
            return
        if g1 - g2 > radius or radius < self.tie_threshold:
            fallback = argmax_tiebreak(leaf.counts)
            node = _SplitNode(
                best,
                thresholds[best],
                _Leaf(self.schema.n_classes, d, fallback),
                _Leaf(self.schema.n_classes, d, fallback),
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
        n = np.add.reduce(leaf.counts)
        if n == 0:
            # Untrained root (0) or empty child after a split (the parent's majority).
            return leaf.fallback_label
        if n < self.nb_threshold:
            return argmax_tiebreak(leaf.counts)
        return first_best(_gaussian_nb_log_joint(x, leaf.counts, leaf.mean, leaf.var, leaf.pooled_variance(n), n))
