"""Concrete classifiers behind the shared stream interface."""

from __future__ import annotations

from .bayes import BatchGaussianNB, OnlineGaussianNB
from .cart import CartClassifier, RandomForestClassifier
from .linear import OnlineLogisticRegression, softmax_loss_and_gradient
from .moments import RunningMoments
from .tree import HoeffdingTreeClassifier, hoeffding_bound

__all__ = [
    "BATCH_LEARNERS",
    "ONLINE_LEARNERS",
    "BatchGaussianNB",
    "CartClassifier",
    "HoeffdingTreeClassifier",
    "OnlineGaussianNB",
    "OnlineLogisticRegression",
    "RandomForestClassifier",
    "RunningMoments",
    "hoeffding_bound",
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
    "cart": CartClassifier,
    "rf": RandomForestClassifier,
}

