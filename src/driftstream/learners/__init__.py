"""Concrete classifiers behind the shared stream interface."""

from __future__ import annotations

from ..core import ConfigError, Schema
from .bayes import BatchGaussianNB, OnlineGaussianNB
from .cart import CartClassifier, RandomForestClassifier
from .linear import BatchLogisticRegression, OnlineLogisticRegression, softmax_loss_and_gradient
from .moments import RunningMoments
from .tree import HoeffdingTreeClassifier, hoeffding_bound

__all__ = [
    "BATCH_LEARNERS",
    "ONLINE_LEARNERS",
    "BatchGaussianNB",
    "BatchLogisticRegression",
    "CartClassifier",
    "HoeffdingTreeClassifier",
    "OnlineGaussianNB",
    "OnlineLogisticRegression",
    "RandomForestClassifier",
    "RunningMoments",
    "hoeffding_bound",
    "make_batch_classifier",
    "make_online_classifier",
    "softmax_loss_and_gradient",
]

#: Learner classes by config name, one table per member kind.
ONLINE_LEARNERS = {
    "gnb": OnlineGaussianNB,
    "hoeffding": HoeffdingTreeClassifier,
    "logreg": OnlineLogisticRegression,
}
BATCH_LEARNERS = {
    "gnb": BatchGaussianNB,
    "logreg": BatchLogisticRegression,
    "cart": CartClassifier,
    "rf": RandomForestClassifier,
}


def _build(learners: dict, kind: str, name: str, schema: Schema, params: dict, **fixed):
    try:
        return learners[name](schema, **fixed, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{kind} algorithm {name!r}: invalid params: {exc}") from None


def make_online_classifier(name: str, schema: Schema, params: dict | None = None):
    """A new online learner; ``name`` is a key of ``ONLINE_LEARNERS``."""
    return _build(ONLINE_LEARNERS, "online", name, schema, params or {})


def make_batch_classifier(name: str, schema: Schema, seed: int, params: dict | None = None):
    """A new batch learner; ``name`` is a key of ``BATCH_LEARNERS``."""
    return _build(BATCH_LEARNERS, "batch", name, schema, params or {}, seed=seed)
