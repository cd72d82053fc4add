"""Gaussian naive Bayes, in online (Welford) and batch (two-pass) form.

The online model keeps its class and global statistics in ``RunningMoments``,
as Hoeffding-tree leaves and the online logistic scaler do. Both variants
compute the same scores in the same float operations, so fitting the batch
model on a prefix of a stream is numerically equivalent to running the online
model over the same prefix. The online model scores one row at a time with
``_gaussian_nb_scores``; the batch model scores a whole block at once over a
(rows x seen classes x features) array, with the parts that depend only on the
fit (floored variances, log prior, ``log(2 pi var)``) computed in ``fit``.
Every block score equals the per-row score bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..core import BatchClassifier, OnlineClassifier, Schema
from .moments import RunningMoments

#: Per-feature variance floor: VAR_FLOOR_SCALE * (global feature variance + 1e-12).
#: Keeps class-conditional densities finite on constant features.
VAR_FLOOR_SCALE = 1e-9

#: The most (rows x seen classes x features) cells a block score holds per
#: temporary array (1 MiB of floats); a larger block is scored in row chunks.
_BLOCK_CELLS = 1 << 17


def _floored(variances: np.ndarray, global_variance: np.ndarray) -> np.ndarray:
    floor = VAR_FLOOR_SCALE * (global_variance + 1e-12)
    return np.maximum(variances, floor)


def _gaussian_nb_scores(
    x: np.ndarray,
    class_counts: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
    global_variance: np.ndarray,
    total,
) -> np.ndarray:
    """Posterior class probabilities from per-(class, feature) Gaussians; an unseen class scores 0.

    ``total`` is ``class_counts``' sum, which the caller has. The terms are
    built in place in two (classes x features) buffers, with the ufuncs and
    operands of ``log(2 pi var) + diff * diff / var``.
    """
    var = _floored(variances, global_variance)
    terms = x - means
    terms *= terms
    terms /= var
    var *= 2.0 * np.pi
    log_norm = np.log(var, out=var)
    log_norm += terms
    prior = class_counts / total
    if 0 not in class_counts.tolist():  # cheaper than entering np.errstate, as on most calls
        log_joint = np.log(prior)
    else:
        with np.errstate(divide="ignore"):  # an unseen class's log prior is -inf
            log_joint = np.log(prior)
    log_lik = np.add.reduce(log_norm, axis=1)
    log_lik *= -0.5
    log_joint += log_lik
    log_joint -= np.maximum.reduce(log_joint)
    scores = np.exp(log_joint, out=log_joint)
    scores /= np.add.reduce(scores)
    return scores


class OnlineGaussianNB(OnlineClassifier):
    """Gaussian naive Bayes updated one instance at a time."""

    def __init__(self, schema: Schema) -> None:
        super().__init__(schema)
        self._classes = RunningMoments(schema.n_features, schema.n_classes)
        self._global = RunningMoments(schema.n_features)

    def learn_one(self, x: np.ndarray, y: int) -> None:
        self._check_x(x)
        self._check_y(y)
        x = np.asarray(x, dtype=float)
        self._classes.update(x, y)
        self._global.update(x)

    @property
    def class_counts(self) -> np.ndarray:
        return self._classes.counts.copy()

    def class_means(self) -> np.ndarray:
        return self._classes.mean.copy()

    def class_variances(self) -> np.ndarray:
        return self._classes.var.copy()

    def predict(self, x: np.ndarray) -> int:
        self._check_x(x)
        c = self._classes
        total = np.add.reduce(c.counts)
        if not total:
            return 0
        scores = _gaussian_nb_scores(np.asarray(x, dtype=float), c.counts, c.mean, c.var, self._global.var[0], total)
        return int(scores.argmax())  # the first maximum, as argmax_tiebreak


class BatchGaussianNB(BatchClassifier):
    """Gaussian naive Bayes fit in two passes over a training batch."""

    def __init__(self, schema: Schema, seed: int | None = None) -> None:
        super().__init__(schema)
        self.class_counts = np.zeros(schema.n_classes, dtype=np.int64)
        self._means = np.zeros((schema.n_classes, schema.n_features))
        self._variances = np.zeros((schema.n_classes, schema.n_features))
        self._global_variance = np.zeros(schema.n_features)
        self._fit_terms()

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        X, y = self._check_batch(X, y)
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
        self._fit_terms()

    def _fit_terms(self) -> None:
        """The seen classes' score terms that depend only on the fit, as ``_gaussian_nb_scores`` forms them."""
        seen = self.class_counts > 0
        var = _floored(self._variances, self._global_variance)[seen]
        self._seen = np.flatnonzero(seen)
        self._seen_means = self._means[seen]
        self._seen_var = var
        self._log_prior = np.log(self.class_counts[seen] / self.class_counts.sum())
        self._log_norm = np.log(2.0 * np.pi * var)

    def class_means(self) -> np.ndarray:
        return self._means.copy()

    def class_variances(self) -> np.ndarray:
        return self._variances.copy()

    def _block_scores(self, X: np.ndarray) -> np.ndarray:
        """``_gaussian_nb_scores`` of every row of ``X`` at once: (rows x classes)."""
        terms = X[:, None, :] - self._seen_means
        # log(2 pi var) + diff * diff / var, in place: one (rows x seen x features) array.
        np.multiply(terms, terms, out=terms)
        np.divide(terms, self._seen_var, out=terms)
        np.add(self._log_norm, terms, out=terms)
        log_lik = -0.5 * np.sum(terms, axis=2)
        log_joint = np.full((len(X), self.schema.n_classes), -np.inf)
        log_joint[:, self._seen] = self._log_prior + log_lik
        scores = np.exp(log_joint - log_joint.max(axis=1, keepdims=True))
        return scores / scores.sum(axis=1, keepdims=True)

    def predict(self, x: np.ndarray) -> int:
        self._check_x(x)
        return int(self.predict_labels(np.reshape(x, (1, -1)))[0])

    def predict_labels(self, X: np.ndarray) -> np.ndarray:
        X = self._check_block(X)
        labels = np.zeros(len(X), dtype=np.int64)
        if self._seen.size == 0:
            return labels
        step = max(1, _BLOCK_CELLS // self._seen_means.size)
        for lo in range(0, len(X), step):
            # argmax_tiebreak of each row's normalised scores: the first maximum.
            labels[lo : lo + step] = self._block_scores(X[lo : lo + step]).argmax(axis=1)
        return labels
