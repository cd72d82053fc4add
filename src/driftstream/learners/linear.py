"""Online multinomial logistic regression trained by SGD.

The learner standardizes features with a one-class ``RunningMoments``
updated before each gradient step (scale, then learn), uses a shared learning
rate for the weights and a separate one for the intercept, applies L2 at
strength ``l2`` and clips gradient coordinates at ``gradient_clip``. The
multinomial softmax form generalizes the binary learner to the multi-class
streams this package targets.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import OnlineClassifier, Schema, is_number
from .bayes import _normalised, first_best
from .moments import RunningMoments


def _softmax_gradient(W: np.ndarray, b: np.ndarray, x: np.ndarray, y: int, l2: float) -> tuple:
    """The probability of class ``y`` and the exact gradient (dW, db) of the L2-penalized cross-entropy."""
    g = _normalised(x @ W + b)
    p_y = g[y]
    g[y] -= 1.0
    dW = x[:, None] * g
    dW += l2 * W
    return p_y, dW, g


def softmax_loss_and_gradient(
    W: np.ndarray, b: np.ndarray, x: np.ndarray, y: int, l2: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross-entropy loss with an L2 penalty on W and its exact gradient.

    Returns (loss, dW, db). The intercept is unpenalized.
    """
    p_y, dW, g = _softmax_gradient(W, b, x, y, l2)
    loss = -np.log(max(p_y, 1e-300)) + 0.5 * l2 * float(np.sum(W * W))
    return float(loss), dW, g


class OnlineLogisticRegression(OnlineClassifier):
    """Multinomial logistic regression trained by per-instance SGD."""

    def __init__(
        self,
        schema: Schema,
        learning_rate: float = 0.005,
        l2: float = 1.0,
        intercept_lr: float = 0.01,
        gradient_clip: float = 1e12,
    ) -> None:
        super().__init__(schema)
        self.learning_rate, self.l2 = learning_rate, l2
        self.intercept_lr, self.gradient_clip = intercept_lr, gradient_clip
        for name in ("learning_rate", "l2", "intercept_lr", "gradient_clip"):
            if not (is_number(value := getattr(self, name)) and 0 <= value < math.inf):
                raise ValueError(f"{name} must be a finite number of at least 0, got {value!r}")
        d, k = schema.n_features, schema.n_classes
        self.W = np.zeros((d, k))
        self.b = np.zeros(k)
        self._scaler = RunningMoments(d)
        self._scale: tuple[np.ndarray, np.ndarray] | None = None  # (std, std > 0) of the scaler; None before any row

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        if self._scale is None:
            return np.zeros_like(x, dtype=float)
        std, nonzero = self._scale
        return np.divide(x - self._scaler.mean[0], std, out=np.zeros(len(x)), where=nonzero)

    def predict(self, x: np.ndarray) -> int:
        self._check_x(x)
        return first_best(self._standardize(np.asarray(x, dtype=float)) @ self.W + self.b)

    def learn_one(self, x: np.ndarray, y: int) -> None:
        self._check_x(x)
        self._check_y(y)
        x = np.asarray(x, dtype=float)
        # Scaler sees the instance before the gradient step.
        self._scaler.update(x)
        std = np.sqrt(self._scaler.var[0])
        self._scale = (std, std > 0)
        x_std = self._standardize(x)
        clip = self.gradient_clip
        _, dW, g = _softmax_gradient(self.W, self.b, x_std, y, self.l2)
        np.minimum(np.maximum(dW, -clip, out=dW), clip, out=dW)
        np.minimum(np.maximum(g, -clip, out=g), clip, out=g)
        dW *= self.learning_rate
        self.W -= dW
        g *= self.intercept_lr
        self.b -= g
