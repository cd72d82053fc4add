"""Shared data model: schemas, instances and classifier contracts.

The ordering of ``Schema.class_labels`` is the global tie-break order: every
argmax in the package resolves ties toward the lowest class index, so a fixed
schema plus a fixed seed pins the full output trace of any model.
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np


class ToolkitError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(ToolkitError):
    """A configuration value or experiment file is invalid."""


class SchemaError(ToolkitError):
    """Data does not conform to the declared schema."""


class DataError(ToolkitError):
    """Input data is unusable: empty batch, malformed row, missing column."""


class MetricError(ToolkitError):
    """A metric was requested on an empty or inconsistent state."""


@contextmanager
def reading(path, error: type[ToolkitError], what: str) -> Iterator[None]:
    """Raise ``error`` naming ``path`` for an ``OSError`` or ``UnicodeDecodeError`` in the block."""
    try:
        yield
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.end]
        raise error(f"{path}: bytes {bad!r} are not {exc.encoding} text ({exc.reason})") from None


class FeatureKind(str, Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    BINARY = "binary"


@dataclass(frozen=True)
class Schema:
    """Column layout of a stream: feature names/kinds and the class catalogue.

    The class catalogue is closed: it is fixed at ingestion time and learners
    never discover new classes mid-stream.
    """

    feature_names: tuple[str, ...]
    feature_kinds: tuple[FeatureKind, ...]
    class_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.feature_names) != len(self.feature_kinds):
            raise SchemaError("feature_names and feature_kinds differ in length")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise SchemaError("duplicate feature names")
        if not self.class_labels:
            raise SchemaError("class catalogue is empty")
        if len(set(self.class_labels)) != len(self.class_labels):
            raise SchemaError("duplicate class labels")
        if any(not label for label in self.class_labels):
            raise SchemaError("empty class label")

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def n_classes(self) -> int:
        return len(self.class_labels)


@dataclass
class Instance:
    """One labelled stream element.

    ``x`` is a dense float vector of length ``Schema.n_features``, ``y`` is an
    index into the schema's class catalogue and ``seq`` is the 0-based arrival
    index, strictly increasing along a stream.
    """

    x: np.ndarray
    y: int
    seq: int


def is_number(value, integral: bool = False) -> bool:
    """An int (``integral``) or real number that is not a bool, as JSON configs spell them."""
    kind = numbers.Integral if integral else numbers.Real
    return type(value) is int or isinstance(value, kind) and not isinstance(value, bool)  # an int skips the slow ABC


def argmax_tiebreak(values: Sequence[float] | np.ndarray) -> int:
    """Index of the maximum, ties resolved toward the lowest index."""
    return int(np.asarray(values).argmax())


class Classifier:
    """Base contract shared by every learner.

    ``predict`` is pure: it never mutates model state, so predictions can be
    taken before the true label is revealed (test-then-train) and a frozen
    model can serve concurrent read-only predictions.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema

    def predict(self, x: np.ndarray) -> int:
        """The predicted class index; 0 before any training data."""
        raise NotImplementedError

    def predict_labels(self, X: np.ndarray) -> np.ndarray:
        """``predict`` of every row of ``X``, as an int64 array.

        Models that can route a block of rows at once override this.
        """
        return np.array([self.predict(x) for x in X], dtype=np.int64)

    def _check_block(self, X: np.ndarray) -> np.ndarray:
        """``X`` as a float (rows x features) array; another shape raises SchemaError."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.schema.n_features:
            raise SchemaError(f"feature block has shape {X.shape}, schema expects {self.schema.n_features} columns")
        return X

    def _check_x(self, x: np.ndarray) -> None:
        if len(x) != self.schema.n_features:
            raise SchemaError(
                f"feature vector has length {len(x)}, schema expects {self.schema.n_features}"
            )

    def _check_y(self, y: int) -> None:
        if not 0 <= y < self.schema.n_classes:
            raise SchemaError(f"class index {y} outside catalogue of size {self.schema.n_classes}")


class OnlineClassifier(Classifier):
    """Incremental learner: inspects each instance exactly once."""

    def learn_one(self, x: np.ndarray, y: int) -> None:
        raise NotImplementedError


class BatchClassifier(Classifier):
    """Batch learner trained from scratch on a cached window of instances.

    Refitting on the same batch with the same seed must be bit-identical.
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        raise NotImplementedError

    def _check_batch(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(X, y)`` as float rows and int labels. An empty batch raises DataError; a wrong width, a label
        count other than the row count, labels that are not integers or a label outside the catalogue,
        SchemaError."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.size == 0:
            raise DataError("empty training batch")
        X = self._check_block(X)
        if y.shape != (len(X),):
            raise SchemaError(f"label array has shape {y.shape} for {len(X)} rows")
        if y.dtype.kind not in "iu":
            raise SchemaError(f"labels must be integer class indices, got dtype {y.dtype}")
        y = y.astype(int, copy=False)
        lo, hi = int(y.min()), int(y.max())
        if lo < 0 or hi >= self.schema.n_classes:
            raise SchemaError(f"class index {lo if lo < 0 else hi} outside catalogue of size {self.schema.n_classes}")
        return X, y
