"""Prequential metrics, run reports and cross-stream ranking.

The headline metric everywhere is the macro-averaged F1 score: the unweighted
mean of per-class F1 values. A class whose precision and recall are both zero
contributes F1 = 0; classes absent from both the truth and the predictions of
a window are excluded from the mean so short windows are not penalized for
classes they never saw.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from .core import MetricError


class ConfusionMatrix:
    """The (true, predicted) pairs of a window, kept as the per-class true totals,
    predicted totals and diagonal, as Python ints for ``f1_macro``."""

    def __init__(self, n_classes: int) -> None:
        if n_classes < 1:
            raise MetricError("confusion matrix needs at least one class")
        self.true_totals = [0] * n_classes
        self.pred_totals = [0] * n_classes
        self.diag = [0] * n_classes

    def update(self, y_true: int, y_pred: int) -> None:
        self.true_totals[y_true] += 1
        self.pred_totals[y_pred] += 1
        if y_true == y_pred:
            self.diag[y_true] += 1

    def slide(self, y_true: int, y_pred: int, old_true: int, old_pred: int) -> None:
        """Add the pair ``(y_true, y_pred)`` and take the window's oldest pair ``(old_true, old_pred)`` out."""
        self.true_totals[y_true] += 1
        self.true_totals[old_true] -= 1
        self.pred_totals[y_pred] += 1
        self.pred_totals[old_pred] -= 1
        if y_true == y_pred:
            self.diag[y_true] += 1
        if old_true == old_pred:
            self.diag[old_true] -= 1

    def f1_macro(self) -> float:
        return _f1_from_totals(self.true_totals, self.pred_totals, self.diag)


def f1_macro(counts: np.ndarray) -> float:
    """Macro-averaged F1 from a confusion-matrix count array."""
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise MetricError("confusion matrix must be square")
    return _f1_from_totals(counts.sum(axis=1).tolist(), counts.sum(axis=0).tolist(), np.diag(counts).tolist())


def _f1_from_totals(true_totals: list[int], pred_totals: list[int], diag: list[int]) -> float:
    """Macro F1 from per-class true totals, predicted totals and true positives, as Python ints:
    the same operations in the same order as on numpy scalars give the same floats below 2**53.

    A class with no true positive is counted and adds nothing (its precision
    and recall are 0); one with a true positive has both totals positive.
    """
    f1_sum = 0.0
    n_seen = 0
    for true_c, pred_c, tp in zip(true_totals, pred_totals, diag):
        if tp:
            n_seen += 1
            precision = tp / pred_c
            recall = tp / true_c
            f1_sum += 2.0 * precision * recall / (precision + recall)
        elif true_c or pred_c:
            n_seen += 1
    if n_seen == 0:
        raise MetricError("confusion matrix is empty")
    return f1_sum / n_seen


def f1_from_pairs(y_true: Sequence[int], y_pred: Sequence[int], n_classes: int) -> float:
    """Macro F1 of paired true and predicted class indices."""
    k = n_classes
    codes = np.asarray(y_true, dtype=np.int64) * k + np.asarray(y_pred, dtype=np.int64)
    return f1_macro(np.bincount(codes, minlength=k * k).reshape(k, k))


class PrequentialState:
    """Test-then-train metric accumulator.

    Counts every scored instance in a cumulative confusion matrix and the
    instances since the last ``new_window()`` in a windowed one. Callers must
    only feed predictions that were produced before the true label was
    revealed.
    """

    def __init__(self, n_classes: int) -> None:
        self.n_classes = n_classes
        self.cumulative = ConfusionMatrix(n_classes)
        self.new_window()

    def new_window(self) -> None:
        self.window = ConfusionMatrix(self.n_classes)

    def update(self, y_true: int, y_pred: int) -> None:
        self.cumulative.update(y_true, y_pred)
        self.window.update(y_true, y_pred)

    def cumulative_f1(self) -> float:
        return self.cumulative.f1_macro()

    def windowed_f1(self) -> float:
        return self.window.f1_macro()


@dataclass
class RunReport:
    """Summary of one experiment run.

    ``trace`` holds (seq, windowed_f1, cumulative_f1) rows sampled every
    ``trace_every`` instances. Wall time and ``failures`` (the swallowed
    failures per member id and phase) are recorded but excluded from the
    canonical serialization so that reports from identical configurations are
    byte-identical.
    """

    run_id: str
    stream_id: str
    method_id: str
    final_f1_macro: float
    trace: list[tuple[int, float, float]]
    drift_count: int
    replacement_count: int
    seed: int
    config_digest: str
    n_instances: int
    wall_time_s: float = 0.0
    failures: dict[str, dict[str, int]] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in _REPORT_KEYS}

    @classmethod
    def from_json_dict(cls, data: dict, trace: list[tuple[int, float, float]] | None = None) -> "RunReport":
        return cls(trace=trace or [], **{name: data[name] for name in _REPORT_KEYS})


#: The keys of ``report.json``: every ``RunReport`` field but the trace and the run-to-run ones.
_REPORT_KEYS = tuple(f.name for f in fields(RunReport) if f.name not in ("trace", "wall_time_s", "failures"))


@dataclass(frozen=True)
class RankedMethod:
    method: str
    score: float
    position: int


def ranking(results: Mapping[str, Sequence[tuple[str, float]]]) -> list[RankedMethod]:
    """Cross-stream ranking of methods by macro F1.

    ``results`` maps stream id to a list of (method, f1) pairs. Every method
    must be present once for every stream. Within each stream, methods are ranked
    by F1 descending (ties receive the average of the tied positions); a
    method's ranking score is its mean rank across streams and positions are
    assigned in ascending order of that score.
    """
    from scipy.stats import rankdata  # here, not at the top: importing it costs ~0.8 s and 44 MiB

    if not results:
        raise MetricError("no results to rank")
    methods: set[str] = set()
    for entries in results.values():
        methods.update(m for m, _ in entries)
    missing = []
    for stream, entries in results.items():
        named = Counter(m for m, _ in entries)
        for m, n in sorted(named.items()):
            if n > 1:
                raise MetricError(f"ranking cell ({m}, {stream}) is given {n} times; rank one F1 per method and stream")
        missing += [(m, stream) for m in sorted(methods - named.keys())]
        if not all(math.isfinite(f1) for _, f1 in entries):
            raise MetricError(f"stream {stream} has an F1 that is not a finite number")
    if missing:
        cells = ", ".join(f"({m}, {s})" for m, s in sorted(missing))
        raise MetricError(f"incomplete ranking grid, missing cells: {cells}")

    totals: dict[str, float] = {m: 0.0 for m in methods}
    for entries in results.values():
        ranks = rankdata([-f1 for _, f1 in entries], method="average").tolist()
        for (method, _), rank in zip(entries, ranks):
            totals[method] += rank
    n_streams = len(results)
    scores = {m: totals[m] / n_streams for m in methods}
    ordered = sorted(scores.items(), key=lambda ms: (ms[1], ms[0]))
    return [RankedMethod(method=m, score=s, position=i + 1) for i, (m, s) in enumerate(ordered)]
