"""Window-based drift monitoring: test dispatch, strategies and verdicts.

Monitoring compares two adjacent windows of ``window_size`` instances, the
reference batch and the current batch. Each feature column gets its own
two-sample test, chosen from the column's kind and its number of unique
values across both windows; the target column is monitored the same way,
treated as categorical. The performance monitor compares the macro F1 of the
member's own recorded predictions between the two windows and flags drift on
a relative drop beyond ``perf_tolerance``.

A verdict is a pure function of (history rows, strategy, schema): the rows
are a member's last ``2 * window_size`` instances, the reference window then
the current one, and at least one trigger marks them as drifted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, FeatureKind, Schema, is_number
from .evaluation import f1_from_pairs
from .stattests import P_VALUE, chi_squared, js_divergence, ks_two_sample, wasserstein_1d, z_proportion

SINCE_LAST_REPLACEMENT = "since_last_replacement"
LAST_WINDOW = "last_window"


@dataclass(frozen=True)
class DriftStrategy:
    """One drift-handling configuration for a batch member.

    ``threshold`` applies to the statistical monitors (p-value tests flag
    below it, distance scores above it); ``perf_tolerance`` is the relative
    F1 drop that trips the performance monitor. ``first_fit_size`` overrides
    the ensemble-wide warm-up length when set (the train-once baselines
    differ only in this).
    """

    id: str
    monitor_features: bool
    monitor_target: bool
    monitor_performance: bool
    threshold: float
    window_size: int
    perf_tolerance: float
    retrain_scope: str = SINCE_LAST_REPLACEMENT
    first_fit_size: int | None = None

    def __post_init__(self) -> None:
        for name, expected, ok in (
            ("monitor_features", "true or false", isinstance(self.monitor_features, bool)),
            ("monitor_target", "true or false", isinstance(self.monitor_target, bool)),
            ("monitor_performance", "true or false", isinstance(self.monitor_performance, bool)),
            ("threshold", "a finite number", is_number(self.threshold) and -math.inf < self.threshold < math.inf),
            ("perf_tolerance", "a number", is_number(self.perf_tolerance)),
            ("window_size", "an integer", is_number(self.window_size, integral=True)),
            ("first_fit_size", "an integer or null",
             self.first_fit_size is None or is_number(self.first_fit_size, integral=True)),
        ):
            if not ok:
                raise ConfigError(f"strategy {self.id!r}: {name} must be {expected}, got {getattr(self, name)!r}")
        if not 0.0 < self.perf_tolerance < 1.0:
            raise ConfigError("perf_tolerance must lie in (0, 1)")
        if self.window_size < 2:
            raise ConfigError("window_size must be at least 2")
        if self.first_fit_size is not None and self.first_fit_size < 1:
            raise ConfigError(f"strategy {self.id!r}: first_fit_size must be at least 1, got {self.first_fit_size!r}")
        if (self.monitor_features or self.monitor_target) and self.threshold <= 0:
            raise ConfigError("threshold must be positive when statistical monitors are on")
        if self.retrain_scope not in (SINCE_LAST_REPLACEMENT, LAST_WINDOW):
            raise ConfigError(f"unknown retrain_scope {self.retrain_scope!r}")

    @property
    def monitors_any(self) -> bool:
        return self.monitor_features or self.monitor_target or self.monitor_performance


@dataclass(frozen=True)
class Trigger:
    source: str  # "feature:<name>" | "target" | "performance"
    drift_score: float


@dataclass(frozen=True)
class DriftVerdict:
    drifted: bool
    triggers: tuple[Trigger, ...] = ()


def select_test(kind: FeatureKind, n_unique: int, window_size: int) -> str | None:
    """Pick the two-sample test for one column.

    Continuous numeric columns (more than five uniques) use Wasserstein on
    large windows and Kolmogorov-Smirnov otherwise; categorical columns and
    few-unique numerics use Jensen-Shannon on large windows and chi-squared
    otherwise; two-valued columns use Jensen-Shannon or the Z proportion
    test. Constant columns (one unique value) are never tested.
    """
    if n_unique < 1:
        raise ValueError("n_unique must be at least 1")
    large = window_size > 1000
    if n_unique == 1:
        return None
    if n_unique == 2:
        return "js" if large else "zprop"
    if kind is FeatureKind.NUMERIC and n_unique > 5:
        return "wasserstein" if large else "ks"
    return "js" if large else "chi2"


def _column_outcome(test: str, column: np.ndarray, s: int):
    ref, cur = column[:s], column[s:]
    if test == "wasserstein":
        with np.errstate(over="ignore", invalid="ignore"):  # the squares overflow above about 1e154
            std = float(np.std(ref, ddof=1))
        if not np.isfinite(std):  # score the column scaled by a power of two, which leaves every ratio exact
            column = np.ldexp(column, -np.frexp(np.abs(column).max())[1])
            ref, cur, std = column[:s], column[s:], float(np.std(column[:s], ddof=1))
        return wasserstein_1d(ref, cur, std)
    if test == "ks":
        return ks_two_sample(ref, cur)
    if test == "js":
        # Dispatch only routes few-unique or categorical columns here, so the
        # union-of-values treatment applies.
        return js_divergence(ref, cur)
    if test == "chi2":
        return chi_squared(ref, cur)
    if test == "zprop":
        top = column.max()
        return z_proportion(int((ref == top).sum()), ref.size, int((cur == top).sum()), cur.size)
    raise ValueError(f"unknown test {test!r}")


def check_windows(rows: tuple[np.ndarray, ...], strategy: DriftStrategy, schema: Schema) -> DriftVerdict:
    """Run every enabled monitor over a member's last two windows and aggregate triggers.

    ``rows`` is ``(X, y, pred)``: the features, labels and the member's own
    predictions of ``2 s`` history rows, the reference window first.
    """
    X, y, pred = rows
    s = len(y) // 2
    if len(y) % 2 or not len(X) == len(y) == len(pred):
        raise ValueError("the two windows need an even number of rows, as many in X, y and pred")
    triggers: list[Trigger] = []
    columns = []  # (trigger source, kind, column of both windows), in trigger order
    if strategy.monitor_features:
        for j, (name, kind) in enumerate(zip(schema.feature_names, schema.feature_kinds)):
            columns.append((f"feature:{name}", kind, X[:, j]))
    if strategy.monitor_target:
        columns.append(("target", FeatureKind.CATEGORICAL, y.astype(float)))
    for source, kind, column in columns:
        test = select_test(kind, np.unique(column).size, s)
        if test is None:
            continue
        outcome = _column_outcome(test, column, s)
        score, threshold = outcome.drift_score, strategy.threshold
        if score < threshold if outcome.score_kind == P_VALUE else score > threshold:  # a p-value flags low
            triggers.append(Trigger(source, score))
    if strategy.monitor_performance:
        f1_ref = f1_from_pairs(y[:s], pred[:s], schema.n_classes)
        f1_cur = f1_from_pairs(y[s:], pred[s:], schema.n_classes)
        if f1_cur < (1.0 - strategy.perf_tolerance) * f1_ref:
            drop = 1.0 - f1_cur / f1_ref if f1_ref > 0 else 0.0
            triggers.append(Trigger("performance", drop))
    return DriftVerdict(drifted=bool(triggers), triggers=tuple(triggers))


def strategy_catalog() -> dict[str, DriftStrategy]:
    """The nine canonical drift-handling configurations.

    S1-S3 are the single-batch-learner strategies, S4-S7 the ensemble-member
    strategies, and B1/B2 the train-once baselines (all monitors off, so a
    batch model is fit on the initial window and never retrained).
    """
    full = dict(monitor_features=True, monitor_target=True, monitor_performance=True)
    perf_only = dict(monitor_features=False, monitor_target=False, monitor_performance=True)
    off = dict(monitor_features=False, monitor_target=False, monitor_performance=False)
    catalog = [
        DriftStrategy(id="S1", threshold=0.03, window_size=10_000, perf_tolerance=0.2, **full),
        DriftStrategy(id="S2", threshold=0.0, window_size=10_000, perf_tolerance=0.2, **perf_only),
        DriftStrategy(id="S3", threshold=0.02, window_size=5_000, perf_tolerance=0.2, **full),
        DriftStrategy(id="S4", threshold=0.02, window_size=2_500, perf_tolerance=0.2, **full),
        DriftStrategy(
            id="S5", threshold=0.0, window_size=2_500, perf_tolerance=0.2,
            retrain_scope=LAST_WINDOW, **perf_only,
        ),
        DriftStrategy(id="S6", threshold=0.03, window_size=10_000, perf_tolerance=0.2, **full),
        DriftStrategy(
            id="S7", threshold=0.02, window_size=10_000, perf_tolerance=0.2,
            retrain_scope=LAST_WINDOW, **full,
        ),
        DriftStrategy(id="B1", threshold=0.0, window_size=10_000, perf_tolerance=0.2, **off),
        DriftStrategy(
            id="B2", threshold=0.0, window_size=10_000, perf_tolerance=0.2,
            first_fit_size=25_000, **off,
        ),
    ]
    return {s.id: s for s in catalog}
