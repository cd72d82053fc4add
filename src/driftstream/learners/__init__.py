"""Concrete classifiers behind the shared stream interface."""

from __future__ import annotations

from ..core import ConfigError, Schema
from .bayes import BatchGaussianNB, OnlineGaussianNB
from .cart import CartClassifier, RandomForestClassifier
from .linear import (
    BatchLogisticRegression,
    OnlineLogisticConfig,
    OnlineLogisticRegression,
    softmax_loss_and_gradient,
)
from .moments import RunningMoments
from .tree import HoeffdingTreeClassifier, hoeffding_bound

__all__ = [
    "BatchGaussianNB",
    "BatchLogisticRegression",
    "CartClassifier",
    "HoeffdingTreeClassifier",
    "OnlineGaussianNB",
    "OnlineLogisticConfig",
    "OnlineLogisticRegression",
    "RandomForestClassifier",
    "RunningMoments",
    "hoeffding_bound",
    "make_batch_classifier",
    "make_online_classifier",
    "softmax_loss_and_gradient",
]

ONLINE_ALGORITHMS = ("gnb", "hoeffding", "logreg")
BATCH_ALGORITHMS = ("gnb", "logreg", "cart", "rf")


def make_online_classifier(name: str, schema: Schema, params: dict | None = None):
    params = dict(params or {})
    try:
        if name == "gnb":
            return OnlineGaussianNB(schema, **params)
        if name == "hoeffding":
            return HoeffdingTreeClassifier(schema, **params)
        if name == "logreg":
            return OnlineLogisticRegression(schema, OnlineLogisticConfig(**params))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"online algorithm {name!r}: invalid params: {exc}") from None
    raise ConfigError(f"unknown online algorithm {name!r}, expected one of {ONLINE_ALGORITHMS}")


def make_batch_classifier(name: str, schema: Schema, seed: int, params: dict | None = None):
    params = dict(params or {})
    try:
        if name == "gnb":
            return BatchGaussianNB(schema, seed=seed, **params)
        if name == "logreg":
            return BatchLogisticRegression(schema, seed=seed, **params)
        if name == "cart":
            return CartClassifier(schema, seed=seed, **params)
        if name == "rf":
            return RandomForestClassifier(schema, seed=seed, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"batch algorithm {name!r}: invalid params: {exc}") from None
    raise ConfigError(f"unknown batch algorithm {name!r}, expected one of {BATCH_ALGORITHMS}")
