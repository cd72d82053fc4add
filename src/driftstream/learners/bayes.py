"""Gaussian naive Bayes, in online (Welford) and batch (two-pass) form.

Both variants share one prediction routine, so fitting the batch model on a
prefix of a stream is numerically equivalent to running the online model over
the same prefix.
"""

from __future__ import annotations

import numpy as np

from ..core import (
    BatchClassifier,
    DataError,
    OnlineClassifier,
    Schema,
    argmax_tiebreak,
)
from .moments import RunningMoments

#: Per-feature variance floor: VAR_FLOOR_SCALE * (global feature variance + 1e-12).
#: Keeps class-conditional densities finite on constant features.
VAR_FLOOR_SCALE = 1e-9


def _floored(variances: np.ndarray, global_variance: np.ndarray) -> np.ndarray:
    floor = VAR_FLOOR_SCALE * (global_variance + 1e-12)
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


class OnlineGaussianNB(OnlineClassifier):
    """Gaussian naive Bayes updated one instance at a time."""

    def __init__(self, schema: Schema) -> None:
        super().__init__(schema)
        k, d = schema.n_classes, schema.n_features
        self.class_counts = np.zeros(k, dtype=np.int64)
        self._means = np.zeros((k, d))
        self._m2 = np.zeros((k, d))
        self._global = RunningMoments(d)

    def learn_one(self, x: np.ndarray, y: int) -> None:
        self._check_x(x)
        self._check_y(y)
        x = np.asarray(x, dtype=float)
        self.class_counts[y] += 1
        n = self.class_counts[y]
        delta = x - self._means[y]
        self._means[y] += delta / n
        self._m2[y] += delta * (x - self._means[y])
        self._global.update(x)

    def class_means(self) -> np.ndarray:
        return self._means.copy()

    def class_variances(self) -> np.ndarray:
        counts = self.class_counts[:, None]
        return np.where(counts >= 2, self._m2 / np.maximum(counts - 1, 1), 0.0)

    def predict(self, x: np.ndarray) -> int:
        self._check_x(x)
        if self.class_counts.sum() == 0:
            return 0
        scores = _gaussian_nb_scores(
            np.asarray(x, dtype=float),
            self.class_counts,
            self._means,
            self.class_variances(),
            self._global.variance(),
        )
        return argmax_tiebreak(scores)


class BatchGaussianNB(BatchClassifier):
    """Gaussian naive Bayes fit in two passes over a training batch."""

    def __init__(self, schema: Schema, seed: int | None = None) -> None:
        super().__init__(schema)
        self.class_counts = np.zeros(schema.n_classes, dtype=np.int64)
        self._means = np.zeros((schema.n_classes, schema.n_features))
        self._variances = np.zeros((schema.n_classes, schema.n_features))
        self._global_variance = np.zeros(schema.n_features)

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.size == 0:
            raise DataError("empty training batch")
        if X.shape[1] != self.schema.n_features:
            self._check_x(X[0])
        k = self.schema.n_classes
        self.class_counts = np.zeros(k, dtype=np.int64)
        self._means = np.zeros((k, self.schema.n_features))
        self._variances = np.zeros((k, self.schema.n_features))
        for c in range(k):
            rows = X[y == c]
            self.class_counts[c] = rows.shape[0]
            if rows.shape[0] >= 1:
                self._means[c] = rows.mean(axis=0)
            if rows.shape[0] >= 2:
                self._variances[c] = rows.var(axis=0, ddof=1)
        self._global_variance = X.var(axis=0, ddof=1) if X.shape[0] >= 2 else np.zeros(X.shape[1])

    def class_means(self) -> np.ndarray:
        return self._means.copy()

    def class_variances(self) -> np.ndarray:
        return self._variances.copy()

    def predict(self, x: np.ndarray) -> int:
        self._check_x(x)
        if self.class_counts.sum() == 0:
            return 0
        scores = _gaussian_nb_scores(
            np.asarray(x, dtype=float),
            self.class_counts,
            self._means,
            self._variances,
            self._global_variance,
        )
        return argmax_tiebreak(scores)
