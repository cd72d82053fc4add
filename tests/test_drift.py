import collections
import functools
import itertools
import math

import numpy as np
import pytest

import driftstream.drift as drift_mod
from driftstream.core import ConfigError, FeatureKind, Schema
from driftstream.drift import (
    LAST_WINDOW,
    SINCE_LAST_REPLACEMENT,
    DriftStrategy,
    check_windows,
    select_test,
    strategy_catalog,
)
from driftstream.evaluation import f1_from_pairs
from driftstream.stattests import P_VALUE, chi_squared, js_divergence, ks_two_sample, wasserstein_1d, z_proportion


def make_strategy(**overrides) -> DriftStrategy:
    base = dict(
        id="T",
        monitor_features=True,
        monitor_target=True,
        monitor_performance=True,
        threshold=0.02,
        window_size=100,
        perf_tolerance=0.2,
    )
    base.update(overrides)
    return DriftStrategy(**base)


def make_pair(X_ref, y_ref, pred_ref, X_cur, y_cur, pred_cur) -> tuple[np.ndarray, ...]:
    """The rows of two windows as ``check_windows`` reads them: (X, y, pred), the reference window first."""
    return (
        np.concatenate([np.asarray(X_ref, dtype=float), np.asarray(X_cur, dtype=float)]),
        np.concatenate([np.asarray(y_ref, dtype=int), np.asarray(y_cur, dtype=int)]),
        np.concatenate([np.asarray(pred_ref, dtype=int), np.asarray(pred_cur, dtype=int)]),
    )


# ---------------------------------------------------------------------------
# test dispatch


@pytest.mark.parametrize(
    "kind, n_unique, s, expected",
    [
        (FeatureKind.NUMERIC, 10, 5000, "wasserstein"),
        (FeatureKind.NUMERIC, 10, 500, "ks"),
        (FeatureKind.NUMERIC, 10, 1000, "ks"),  # the large-window rule is strict
        (FeatureKind.NUMERIC, 6, 5000, "wasserstein"),
        (FeatureKind.NUMERIC, 4, 5000, "js"),
        (FeatureKind.NUMERIC, 4, 500, "chi2"),
        (FeatureKind.CATEGORICAL, 9, 5000, "js"),
        (FeatureKind.CATEGORICAL, 9, 500, "chi2"),
        (FeatureKind.BINARY, 2, 5000, "js"),
        (FeatureKind.BINARY, 2, 500, "zprop"),
        (FeatureKind.NUMERIC, 2, 500, "zprop"),  # two-valued numerics are binary in effect
        (FeatureKind.CATEGORICAL, 2, 500, "zprop"),
        (FeatureKind.NUMERIC, 1, 500, None),
        (FeatureKind.BINARY, 1, 5000, None),
    ],
)
def test_select_test_dispatch(kind, n_unique, s, expected):
    assert select_test(kind, n_unique, s) == expected


def test_select_test_rejects_zero_uniques():
    with pytest.raises(ValueError):
        select_test(FeatureKind.NUMERIC, 0, 100)


# ---------------------------------------------------------------------------
# check_windows


@pytest.fixture
def schema_nb() -> Schema:
    return Schema(
        feature_names=("num", "bin"),
        feature_kinds=(FeatureKind.NUMERIC, FeatureKind.BINARY),
        class_labels=("a", "b"),
    )


def test_identical_windows_do_not_drift(schema_nb):
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.normal(size=200), rng.integers(0, 2, 200)])
    y = rng.integers(0, 2, 200)
    pred = y.copy()
    pair = make_pair(X, y, pred, X.copy(), y.copy(), pred.copy())
    verdict = check_windows(pair, make_strategy(window_size=200), schema_nb)
    assert not verdict.drifted
    assert verdict.triggers == ()


def test_performance_drop_rule(schema_nb):
    # F1_ref = 0.5, F1_cur just below (1 - 0.2) * 0.5 = 0.4 fires the monitor.
    rng = np.random.default_rng(1)
    X = np.column_stack([rng.normal(size=1000), rng.integers(0, 2, 1000)])
    y = np.tile([0, 1], 500)

    def preds_with_f1(target):
        # Flip a prefix of predictions to hit an exact accuracy; with balanced
        # classes and symmetric errors, macro F1 equals accuracy.
        n_correct = int(round(target * 1000))
        pred = y.copy()
        flip = np.arange(1000 - n_correct)
        pred[flip] = 1 - pred[flip]
        return pred

    strategy = make_strategy(monitor_features=False, monitor_target=False, window_size=1000)
    pair = make_pair(X, y, preds_with_f1(0.50), X, y, preds_with_f1(0.39))
    verdict = check_windows(pair, strategy, schema_nb)
    assert verdict.drifted
    assert verdict.triggers[0].source == "performance"

    pair_ok = make_pair(X, y, preds_with_f1(0.50), X, y, preds_with_f1(0.41))
    assert not check_windows(pair_ok, strategy, schema_nb).drifted


def test_binary_flip_triggers_js(schema_nb):
    # 10% positives vs 90% positives over s = 5000: JS drift score is about
    # sqrt(1 - H(0.1)) = 0.7287 in base 2, far above a 0.02 threshold.
    s = 5000
    rng = np.random.default_rng(3)
    num = rng.normal(size=2 * s)
    bin_ref = np.concatenate([np.ones(s // 10), np.zeros(s - s // 10)])
    bin_cur = np.concatenate([np.ones(9 * s // 10), np.zeros(s - 9 * s // 10)])
    X_ref = np.column_stack([num[:s], bin_ref])
    X_cur = np.column_stack([num[s:], bin_cur])
    y = np.tile([0, 1], s // 2)
    strategy = make_strategy(monitor_target=False, monitor_performance=False, window_size=s)
    verdict = check_windows(make_pair(X_ref, y, y, X_cur, y, y), strategy, schema_nb)
    assert verdict.drifted
    trigger = [t for t in verdict.triggers if t.source == "feature:bin"][0]
    h = -(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9))
    assert trigger.drift_score == pytest.approx(math.sqrt(1 - h), abs=1e-9)


def test_target_shift_triggers(schema_nb):
    s = 2000
    rng = np.random.default_rng(4)
    X = np.column_stack([rng.normal(size=s), rng.integers(0, 2, s)])
    y_ref = np.tile([0, 1], s // 2)
    y_cur = np.zeros(s, dtype=int)
    y_cur[: s // 10] = 1  # class balance flips from 50/50 to 90/10
    strategy = make_strategy(monitor_features=False, monitor_performance=False, window_size=s)
    verdict = check_windows(make_pair(X, y_ref, y_ref, X, y_cur, y_cur), strategy, schema_nb)
    assert verdict.drifted
    assert verdict.triggers[0].source == "target"


def test_false_positive_rate_on_stationary_windows(schema_nb):
    # P-value tests at threshold 0.02: the per-feature false-positive rate
    # over seeded stationary window pairs stays no worse than 0.10.
    s = 500  # small windows dispatch to the p-value tests (KS, Z)
    strategy = make_strategy(monitor_performance=False, monitor_target=False, window_size=s)
    fired = 0
    total = 0
    for rep in range(50):
        rng = np.random.default_rng(1000 + rep)
        X = np.column_stack([rng.normal(size=2 * s), rng.integers(0, 2, 2 * s)])
        y = rng.integers(0, 2, 2 * s)
        pair = make_pair(X[:s], y[:s], y[:s], X[s:], y[s:], y[s:])
        verdict = check_windows(pair, strategy, schema_nb)
        fired += len(verdict.triggers)
        total += 2
    assert fired / total <= 0.10


def test_verdict_is_pure(schema_nb):
    rng = np.random.default_rng(5)
    s = 300
    X = rng.normal(size=(2 * s, 2))
    y = rng.integers(0, 2, 2 * s)
    pair = make_pair(X[:s], y[:s], y[:s], X[s:], y[s:], 1 - y[s:])
    strategy = make_strategy(window_size=s)
    first = check_windows(pair, strategy, schema_nb)
    second = check_windows(pair, strategy, schema_nb)
    assert first == second


def test_unequal_windows_rejected(schema_nb):
    strategy = make_strategy(window_size=2)
    odd = make_pair(np.zeros((3, 2)), [0, 0, 1], [0, 0, 1], np.ones((2, 2)), [1, 0], [1, 0])
    short_pred = (np.zeros((4, 2)), np.zeros(4, dtype=int), np.zeros(2, dtype=int))
    long_X = (np.zeros((6, 2)), np.zeros(4, dtype=int), np.zeros(4, dtype=int))
    for rows in (odd, short_pred, long_X):
        with pytest.raises(ValueError, match="even number of rows"):
            check_windows(rows, strategy, schema_nb)


def test_drifted_iff_triggers(schema_nb):
    rng = np.random.default_rng(6)
    s = 400
    for rep in range(10):
        shift = rng.uniform(0, 1.5)
        X_ref = rng.normal(size=(s, 2))
        X_cur = rng.normal(loc=shift, size=(s, 2))
        X_ref[:, 1] = rng.integers(0, 2, s)
        X_cur[:, 1] = rng.integers(0, 2, s)
        y = rng.integers(0, 2, s)
        verdict = check_windows(
            make_pair(X_ref, y, y, X_cur, y, y), make_strategy(window_size=s), schema_nb
        )
        assert verdict.drifted == bool(verdict.triggers)


def pair_check(X_ref, y_ref, pred_ref, X_cur, y_cur, pred_cur, strategy, schema):
    """The check as it ran on a pair of separate windows, joining each column's halves again.

    Kept as the reference for ``check_windows``, which reads one block of
    rows: both must give the same triggers, to the bit.
    """

    def outcome_of(test, ref, cur):
        if test == "wasserstein":
            return wasserstein_1d(ref, cur, float(np.std(ref, ddof=1)))
        if test == "ks":
            return ks_two_sample(ref, cur)
        if test == "js":
            return js_divergence(ref, cur)
        if test == "chi2":
            return chi_squared(ref, cur)
        top = np.max(np.concatenate([ref, cur]))
        return z_proportion(int((ref == top).sum()), ref.size, int((cur == top).sum()), cur.size)

    triggers = []
    columns = []
    if strategy.monitor_features:
        for j, (name, kind) in enumerate(zip(schema.feature_names, schema.feature_kinds)):
            columns.append((f"feature:{name}", kind, X_ref[:, j], X_cur[:, j]))
    if strategy.monitor_target:
        columns.append(("target", FeatureKind.CATEGORICAL, y_ref.astype(float), y_cur.astype(float)))
    for source, kind, ref, cur in columns:
        test = select_test(kind, np.unique(np.concatenate([ref, cur])).size, len(y_ref))
        if test is None:
            continue
        outcome = outcome_of(test, ref, cur)
        if outcome.score_kind == P_VALUE:
            flagged = outcome.drift_score < strategy.threshold
        else:
            flagged = outcome.drift_score > strategy.threshold
        if flagged:
            triggers.append((source, outcome.drift_score))
    if strategy.monitor_performance:
        f1_ref = f1_from_pairs(y_ref, pred_ref, schema.n_classes)
        f1_cur = f1_from_pairs(y_cur, pred_cur, schema.n_classes)
        if f1_cur < (1.0 - strategy.perf_tolerance) * f1_ref:
            triggers.append(("performance", 1.0 - f1_cur / f1_ref if f1_ref > 0 else 0.0))
    return triggers


SIGNED_ZERO_SCHEMA = Schema(
    feature_names=("num", "few", "bin", "cat", "const", "zeros", "signed", "signed_bin", "appears"),
    feature_kinds=(
        FeatureKind.NUMERIC,
        FeatureKind.NUMERIC,
        FeatureKind.BINARY,
        FeatureKind.CATEGORICAL,
        FeatureKind.NUMERIC,
        FeatureKind.NUMERIC,
        FeatureKind.NUMERIC,
        FeatureKind.BINARY,
        FeatureKind.NUMERIC,
    ),
    class_labels=("a", "b", "c"),
)


def history_block(rng, s):
    """2 s history rows as a member reads them, the current window drifting by a random amount."""
    n = 2 * s
    cur = np.arange(n) >= s
    shift = rng.uniform(0.0, 0.6)
    zero = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    X = np.column_stack([
        rng.normal(size=n) + shift * cur,
        rng.integers(0, 4, n),
        rng.random(n) < 0.3 + shift * cur,
        rng.integers(0, 7, n),
        np.full(n, 2.5),
        zero,  # one value: -0.0 == 0.0
        np.where(rng.random(n) < 0.4 + shift * cur, -1.0, zero),  # two values, the larger a signed zero
        np.where(rng.random(n) < 0.5 - shift * cur / 2, 1.0, zero),
        np.where(cur & (rng.random(n) < 0.2 + shift), 1.0, zero),  # its larger value only in the current window
    ])
    y = np.where(rng.random(n) < shift * cur, 0, rng.integers(0, 3, n))
    labels = np.column_stack([y, np.where(rng.random(n) < 0.2 + shift * cur, (y + 1) % 3, y)])
    return X, y, labels[:, 1]  # the member's predictions are a column of the history's labels


def counting(calls, name, fn):
    @functools.wraps(fn)
    def counted(*args):
        calls[name] += 1
        return fn(*args)

    return counted


def test_one_block_of_rows_gives_the_triggers_of_the_window_pair(monkeypatch):
    calls = collections.Counter()
    for name in ("wasserstein_1d", "ks_two_sample", "js_divergence", "chi_squared", "z_proportion"):
        monkeypatch.setattr(drift_mod, name, counting(calls, name, getattr(drift_mod, name)))
    rng = np.random.default_rng(30)
    sources = collections.Counter()
    for s in (20, 400, 1000, 1001, 1500):
        for _ in range(3):
            X, y, pred = history_block(rng, s)
            threshold = float(rng.choice([0.02, 0.1, 0.4]))
            for features, target, performance in itertools.product((False, True), repeat=3):
                strategy = make_strategy(
                    monitor_features=features, monitor_target=target, monitor_performance=performance,
                    threshold=threshold, window_size=s,
                )
                verdict = check_windows((X, y, pred), strategy, SIGNED_ZERO_SCHEMA)
                want = pair_check(X[:s], y[:s], pred[:s], X[s:], y[s:], pred[s:], strategy, SIGNED_ZERO_SCHEMA)
                assert [(t.source, t.drift_score.hex()) for t in verdict.triggers] == [
                    (source, score.hex()) for source, score in want
                ]
                assert verdict.drifted == bool(want)
                sources.update(t.source for t in verdict.triggers)
    assert set(calls) == {"wasserstein_1d", "ks_two_sample", "js_divergence", "chi_squared", "z_proportion"}
    # Every tested column and the performance monitor fired at least once; the constant columns never.
    names = [f"feature:{name}" for name in SIGNED_ZERO_SCHEMA.feature_names if name not in ("const", "zeros")]
    assert set(sources) == {*names, "target", "performance"}


# ---------------------------------------------------------------------------
# strategy catalog


def test_catalog_has_nine_strategies():
    catalog = strategy_catalog()
    assert set(catalog) == {"S1", "S2", "S3", "S4", "S5", "S6", "S7", "B1", "B2"}


def test_catalog_s1():
    s1 = strategy_catalog()["S1"]
    assert s1.monitor_features and s1.monitor_target and s1.monitor_performance
    assert s1.threshold == 0.03
    assert s1.window_size == 10_000
    assert s1.perf_tolerance == 0.2
    assert s1.retrain_scope == SINCE_LAST_REPLACEMENT


def test_catalog_s5():
    s5 = strategy_catalog()["S5"]
    assert not s5.monitor_features and not s5.monitor_target and s5.monitor_performance
    assert s5.window_size == 2_500
    assert s5.perf_tolerance == 0.2
    assert s5.retrain_scope == LAST_WINDOW


def test_catalog_retrain_scopes():
    catalog = strategy_catalog()
    for sid in ("S1", "S2", "S3", "S4", "S6"):
        assert catalog[sid].retrain_scope == SINCE_LAST_REPLACEMENT
    for sid in ("S5", "S7"):
        assert catalog[sid].retrain_scope == LAST_WINDOW


def test_catalog_baselines_never_monitor():
    catalog = strategy_catalog()
    for sid, first_fit in (("B1", None), ("B2", 25_000)):
        strategy = catalog[sid]
        assert not strategy.monitors_any
        assert strategy.first_fit_size == first_fit


def test_catalog_windows_and_thresholds():
    catalog = strategy_catalog()
    assert (catalog["S2"].window_size, catalog["S2"].monitor_performance) == (10_000, True)
    assert (catalog["S3"].threshold, catalog["S3"].window_size) == (0.02, 5_000)
    assert (catalog["S4"].threshold, catalog["S4"].window_size) == (0.02, 2_500)
    assert (catalog["S6"].threshold, catalog["S6"].window_size) == (0.03, 10_000)
    assert (catalog["S7"].threshold, catalog["S7"].window_size) == (0.02, 10_000)


def test_strategy_validation():
    with pytest.raises(ConfigError):
        make_strategy(perf_tolerance=0.0)
    with pytest.raises(ConfigError):
        make_strategy(window_size=1)
    with pytest.raises(ConfigError):
        make_strategy(threshold=0.0)  # statistical monitors on require a threshold
    with pytest.raises(ConfigError):
        make_strategy(retrain_scope="bogus")


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("monitors", [True, False])
def test_a_non_finite_threshold_is_refused(threshold, monitors):
    # A NaN threshold would never flag: every comparison with it is false.
    with pytest.raises(ConfigError, match="threshold must be a finite number"):
        make_strategy(threshold=threshold, monitor_features=monitors, monitor_target=monitors)
