"""Running per-class first and second moments: the package's one copy of Welford's recurrence.

Online Gaussian naive Bayes keeps its class and global statistics in it, every
Hoeffding-tree leaf is one, and online logistic regression scales with one.
"""

from __future__ import annotations

import numpy as np


class RunningMoments:
    """Incremental mean and variance of vectors of a fixed dimension, one row per class.

    Row ``c`` of ``counts``, ``mean``, ``m2`` and ``var`` summarises the vectors
    seen with class ``c``; ``var`` is ``m2 / (n - 1)``, kept as state and zero
    until the class has two rows. Global moments are the one-class case.
    """

    __slots__ = ("counts", "mean", "m2", "var")

    def __init__(self, dim: int, n_classes: int = 1) -> None:
        self.counts = np.zeros(n_classes, dtype=np.int64)
        self.mean = np.zeros((n_classes, dim))
        self.m2 = np.zeros((n_classes, dim))
        self.var = np.zeros((n_classes, dim))

    def update(self, x: np.ndarray, y: int = 0) -> None:
        # A Python int: numpy converts it to the same float below 2**53.
        n = self.counts.item(y) + 1
        self.counts[y] = n
        mean, m2 = self.mean[y], self.m2[y]  # row views, updated in place
        delta = x - mean
        mean += delta / n
        delta *= x - mean
        m2 += delta
        if n >= 2:
            np.divide(m2, n - 1, out=self.var[y])
