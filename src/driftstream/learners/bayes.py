"""Gaussian naive Bayes, in online (Welford) and batch (two-pass) form.

The online model keeps its class and global statistics in ``RunningMoments``,
as Hoeffding-tree leaves and the online logistic scaler do. Both variants
score with one function, ``_gaussian_nb_log_joint``, so fitting the batch
model on a prefix of a stream is numerically equivalent to running the online
model over the same prefix. The online model labels one row at a time through
``first_best``, which normalises only on a near tie; the batch model keeps
only its fitted counts, means and variances, and labels a whole block of rows
through ``_gaussian_nb_scores`` as one (rows x 1 x features) array: one
posterior and one softmax for a row and a block, equal bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import BatchClassifier, OnlineClassifier, Schema
from .moments import RunningMoments

#: Per-feature variance floor: VAR_FLOOR_SCALE * (global feature variance + 1e-12).
#: Keeps class-conditional densities finite on constant features.
VAR_FLOOR_SCALE = 1e-9

#: The most (rows x classes x features) cells a block score holds per
#: temporary array (1 MiB of floats); a larger block is scored in row chunks.
_BLOCK_CELLS = 1 << 17


def _floored(variances: np.ndarray, global_variance: np.ndarray) -> np.ndarray:
    floor = VAR_FLOOR_SCALE * (global_variance + 1e-12)
    return np.maximum(variances, floor)


def _normalised(z: np.ndarray) -> np.ndarray:
    """``exp(z - max(z))`` over its sum along the last axis, in ``z``: the softmax of one row or of each row."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(z, out=z)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


#: ``first_best`` takes the top raw score as the label when every other score is at least this far below it.
_MARGIN = 2.0**-40


def first_best(z: np.ndarray) -> int:
    """``int(_normalised(z).argmax())``: the first best class of raw scores ``z``, mostly without normalising.

    When the top of ``z`` is finite and every other entry ``v`` has ``v - top
    <= -2**-40`` (the subtraction the normalisation makes), its index is the
    answer: ``exp`` of such a difference, within a few ULPs as numpy computes
    it at any dispatch level, is below ``1 - 2**-41``, so after dividing by the
    same sum the top keeps the strictly largest score. Otherwise (a tie, a
    near tie, a NaN or an infinite top) ``z`` is normalised in place.
    """
    values = z.tolist()
    top = max(values)
    if -math.inf < top < math.inf:
        near = 0  # entries not clearly below the top, the top itself and any NaN included
        for v in values:
            if not v - top <= -_MARGIN:
                near += 1
        if near == 1:
            return values.index(top)
    return int(_normalised(z).argmax())


def _gaussian_nb_log_joint(
    x: np.ndarray,
    class_counts: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
    global_variance: np.ndarray,
    total,
) -> np.ndarray:
    """Log prior plus log likelihood of ``x`` per class from per-(class, feature) Gaussians; an unseen class is -inf.

    ``total`` is ``class_counts``' sum, which the caller has. ``x`` is one row,
    or a (rows x 1 x features) block that scores every row at once (rows x
    classes). The terms are built in place, with the ufuncs and operands of
    ``log(2 pi var) + diff * diff / var``. If some sum is not finite, a feature
    whose terms in a row are inf or NaN for every class (an overflowed
    variance) tells no class apart there: they count 0 and the sums are redone.
    """
    var = _floored(variances, global_variance)
    terms = x - means
    terms *= terms
    terms /= var
    var *= 2.0 * np.pi
    terms += np.log(var, out=var)
    prior = class_counts / total
    if 0 not in class_counts.tolist():  # cheaper than entering np.errstate, as on most calls
        log_prior = np.log(prior)
    else:
        with np.errstate(divide="ignore"):  # an unseen class's log prior is -inf
            log_prior = np.log(prior)
    log_lik = np.add.reduce(terms, axis=-1)
    if not math.isfinite(np.add.reduce(log_lik, axis=None)):
        np.copyto(terms, 0.0, where=~np.isfinite(terms).any(axis=-2, keepdims=True))
        log_lik = np.add.reduce(terms, axis=-1)
    log_lik *= -0.5
    log_lik += log_prior
    return log_lik


def _gaussian_nb_scores(*args) -> np.ndarray:
    """Posterior class probabilities: ``_gaussian_nb_log_joint(*args)`` normalised; an unseen class scores 0."""
    return _normalised(_gaussian_nb_log_joint(*args))


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
        x = np.asarray(x, dtype=float)
        return first_best(_gaussian_nb_log_joint(x, c.counts, c.mean, c.var, self._global.var[0], total))


class BatchGaussianNB(BatchClassifier):
    """Gaussian naive Bayes fit in two passes over a training batch."""

    def __init__(self, schema: Schema, seed: int | None = None) -> None:
        super().__init__(schema)
        self.class_counts = np.zeros(schema.n_classes, dtype=np.int64)
        self._means = np.zeros((schema.n_classes, schema.n_features))
        self._variances = np.zeros((schema.n_classes, schema.n_features))
        self._global_variance = np.zeros(schema.n_features)

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

    def class_means(self) -> np.ndarray:
        return self._means.copy()

    def class_variances(self) -> np.ndarray:
        return self._variances.copy()

    def predict(self, x: np.ndarray) -> int:
        self._check_x(x)
        return int(self.predict_labels(np.reshape(x, (1, -1)))[0])

    def predict_labels(self, X: np.ndarray) -> np.ndarray:
        X = self._check_block(X)
        labels = np.zeros(len(X), dtype=np.int64)
        counts, total = self.class_counts, self.class_counts.sum()
        if not total:
            return labels
        step = max(1, _BLOCK_CELLS // self._means.size)
        for lo in range(0, len(X), step):
            # argmax_tiebreak of each row's posterior: the first maximum.
            labels[lo : lo + step] = _gaussian_nb_scores(
                X[lo : lo + step, None, :], counts, self._means, self._variances, self._global_variance, total
            ).argmax(axis=1)
        return labels
