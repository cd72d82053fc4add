import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.core import MetricError
from driftstream.evaluation import (
    ConfusionMatrix,
    PrequentialState,
    f1_from_pairs,
    f1_macro,
    ranking,
)


def f1_macro_oracle(counts):
    """Per-class precision/recall arithmetic, written independently."""
    counts = np.asarray(counts)
    k = counts.shape[0]
    values = []
    for c in range(k):
        tp = counts[c, c]
        fn = counts[c, :].sum() - tp
        fp = counts[:, c].sum() - tp
        if tp + fn == 0 and tp + fp == 0:
            continue
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        values.append(2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0)
    return sum(values) / len(values)


def test_f1_all_correct():
    assert f1_macro(np.diag([5, 3, 2])) == 1.0


def test_f1_worked_example():
    # y = (0,0,1,1), yhat = (0,1,1,1): class-0 F1 = 2/3, class-1 F1 = 0.8.
    assert f1_from_pairs([0, 0, 1, 1], [0, 1, 1, 1], 2) == pytest.approx(11 / 15, abs=1e-12)


def test_f1_constant_predictor_on_balanced_classes():
    # Always predicting class 0 on balanced data: F1 = ((2/3) + 0) / 2.
    assert f1_from_pairs([0, 1] * 10, [0, 0] * 10, 2) == pytest.approx(1 / 3, abs=1e-12)


def test_f1_excludes_classes_absent_everywhere():
    counts = np.zeros((3, 3), dtype=int)
    counts[0, 0] = 4
    counts[1, 1] = 4
    assert f1_macro(counts) == 1.0


def f1_macro_numpy_scalars(counts):
    """The body of ``f1_macro`` before it moved to Python numbers, verbatim."""
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise MetricError("confusion matrix must be square")
    if counts.sum() == 0:
        raise MetricError("confusion matrix is empty")
    true_totals = counts.sum(axis=1)
    pred_totals = counts.sum(axis=0)
    diag = np.diag(counts)
    f1_sum = 0.0
    n_seen = 0
    for c in range(counts.shape[0]):
        if true_totals[c] == 0 and pred_totals[c] == 0:
            continue
        n_seen += 1
        precision = diag[c] / pred_totals[c] if pred_totals[c] > 0 else 0.0
        recall = diag[c] / true_totals[c] if true_totals[c] > 0 else 0.0
        if precision + recall > 0:
            f1_sum += 2.0 * precision * recall / (precision + recall)
    return float(f1_sum / n_seen)


def test_f1_is_bit_identical_to_the_numpy_scalar_body():
    rng = np.random.default_rng(12)
    for _ in range(3000):
        k = int(rng.integers(1, 7))
        counts = rng.integers(0, int(rng.choice([3, 50, 100_000])), size=(k, k))
        counts[rng.random(k) < 0.3, :] = 0  # classes never true
        counts[:, rng.random(k) < 0.3] = 0  # classes never predicted
        if counts.sum() == 0:
            with pytest.raises(MetricError):
                f1_macro(counts)
            continue
        assert f1_macro(counts).hex() == f1_macro_numpy_scalars(counts).hex()


def test_f1_empty_matrix_raises():
    with pytest.raises(MetricError):
        f1_macro(np.zeros((3, 3), dtype=int))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_f1_matches_oracle_and_permutation_invariance(k, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 12, size=(k, k))
    if counts.sum() == 0:
        counts[0, 0] = 1
    ours = f1_macro(counts)
    assert ours == pytest.approx(f1_macro_oracle(counts), abs=1e-12)
    perm = rng.permutation(k)
    assert f1_macro(counts[np.ix_(perm, perm)]) == pytest.approx(ours, abs=1e-12)


def test_prequential_single_correct_instance():
    state = PrequentialState(n_classes=2)
    state.update(1, 1)
    assert state.cumulative_f1() == 1.0
    assert state.windowed_f1() == 1.0


def test_prequential_ring_eviction():
    state = PrequentialState(n_classes=2)
    state.update(0, 1)  # wrong, leaves the window at new_window()
    state.new_window()
    state.update(1, 1)
    state.update(0, 0)
    assert state.windowed_f1() == 1.0
    assert state.cumulative_f1() < 1.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.none()), max_size=80))
def test_windowed_f1_matches_rebuilt_matrix(steps):
    # None starts a new window; a pair is scored. The windowed F1 is that of
    # the pairs since the last new window, the cumulative F1 that of all pairs.
    state = PrequentialState(n_classes=3)
    pairs, window = [], []
    for step in steps:
        if step is None:
            state.new_window()
            window = []
        else:
            state.update(*step)
            pairs.append(step)
            window.append(step)
        for scored, f1 in ((window, state.windowed_f1), (pairs, state.cumulative_f1)):
            if scored:  # same integer counts, so the same float
                assert f1().hex() == f1_from_pairs(*zip(*scored), 3).hex()
            else:
                with pytest.raises(MetricError):
                    f1()


def test_cumulative_f1_changes_slowly_after_burn_in():
    rng = np.random.default_rng(9)
    state = PrequentialState(n_classes=3)
    previous = None
    for i in range(2000):
        t = int(rng.integers(3))
        p = t if rng.random() < 0.8 else int(rng.integers(3))
        state.update(t, p)
        current = state.cumulative_f1()
        if i >= 300 and previous is not None:
            assert abs(current - previous) <= 20.0 / (i + 1)
        previous = current


def remove_pair(cm, y_true, y_pred):
    """Take one (true, predicted) pair back out of ``cm``, decrementing its three count lists."""
    cm.true_totals[y_true] -= 1
    cm.pred_totals[y_pred] -= 1
    if y_true == y_pred:
        cm.diag[y_true] -= 1


def test_confusion_matrix_f1_is_bit_identical_to_f1_of_its_counts():
    # Random update/remove walks, with classes that never occur and matrices that empty.
    rng = np.random.default_rng(31)
    for _ in range(40):
        k = int(rng.integers(1, 8))
        present = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        cm = ConfusionMatrix(k)
        live = []
        for _ in range(300):
            if live and rng.random() < 0.45:
                remove_pair(cm, *live.pop(int(rng.integers(len(live)))))
            else:
                pair = (int(rng.choice(present)), int(rng.choice(present)))
                cm.update(*pair)
                live.append(pair)
            if not live:
                with pytest.raises(MetricError):
                    cm.f1_macro()
                continue
            y_true, y_pred = zip(*live)
            assert cm.f1_macro().hex() == f1_from_pairs(y_true, y_pred, k).hex()


def f1_from_totals_before_the_true_positive_branch(true_totals, pred_totals, diag):
    """``evaluation._f1_from_totals`` as it was before it branched on the true positives, verbatim."""
    f1_sum = 0.0
    n_seen = 0
    for true_c, pred_c, tp in zip(true_totals, pred_totals, diag):
        if true_c == 0 and pred_c == 0:
            continue
        n_seen += 1
        precision = tp / pred_c if pred_c > 0 else 0.0
        recall = tp / true_c if true_c > 0 else 0.0
        if precision + recall > 0:
            f1_sum += 2.0 * precision * recall / (precision + recall)
    if n_seen == 0:
        raise MetricError("confusion matrix is empty")
    return float(f1_sum / n_seen)


def test_window_f1_is_bit_identical_to_the_code_before_the_true_positive_branch():
    # Random windows of 1-12 classes, some never true, never predicted or never right; windows that empty.
    rng = np.random.default_rng(43)
    for _ in range(300):
        k = int(rng.integers(1, 13))
        truths = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        guesses = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        cm = ConfusionMatrix(k)
        live = []
        for _ in range(60):
            if live and rng.random() < 0.4:
                remove_pair(cm, *live.pop(int(rng.integers(len(live)))))
            else:
                pair = (int(rng.choice(truths)), int(rng.choice(guesses)))
                cm.update(*pair)
                live.append(pair)
            if not live:
                with pytest.raises(MetricError):
                    cm.f1_macro()
                continue
            expected = f1_from_totals_before_the_true_positive_branch(cm.true_totals, cm.pred_totals, cm.diag)
            assert type(cm.f1_macro()) is float and cm.f1_macro().hex() == expected.hex()


def test_slide_equals_update_then_remove():
    # Random windows sliding one pair at a time; a third of the slides replace a pair with itself.
    rng = np.random.default_rng(37)
    for _ in range(40):
        k = int(rng.integers(1, 8))
        present = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        pairs = [(int(rng.choice(present)), int(rng.choice(present))) for _ in range(int(rng.integers(1, 30)))]
        slid, stepped = ConfusionMatrix(k), ConfusionMatrix(k)
        for pair in pairs:
            slid.update(*pair)
            stepped.update(*pair)
        for _ in range(200):
            old = pairs.pop(0)
            new = old if rng.random() < 0.33 else (int(rng.choice(present)), int(rng.choice(present)))
            pairs.append(new)
            slid.slide(*new, *old)
            stepped.update(*new)
            remove_pair(stepped, *old)
            assert (slid.true_totals, slid.pred_totals, slid.diag) == (
                stepped.true_totals, stepped.pred_totals, stepped.diag
            )
            y_true, y_pred = zip(*pairs)
            assert slid.f1_macro().hex() == stepped.f1_macro().hex() == f1_from_pairs(y_true, y_pred, k).hex()


# ---------------------------------------------------------------------------
# ranking


def test_ranking_mean_of_positions():
    results = {
        "s1": [("m1", 0.9), ("m2", 0.8), ("m3", 0.7)],
        "s2": [("m1", 0.5), ("m2", 0.9), ("m3", 0.2)],
        "s3": [("m1", 0.4), ("m2", 0.9), ("m3", 0.6)],
    }
    table = {row.method: row for row in ranking(results)}
    assert table["m1"].score == pytest.approx(2.0)  # ranks 1, 2, 3
    assert table["m2"].score == pytest.approx((2 + 1 + 1) / 3)
    assert table["m2"].position == 1


def test_ranking_ties_get_average_rank():
    results = {"s1": [("m1", 0.5), ("m2", 0.5), ("m3", 0.1)]}
    table = {row.method: row for row in ranking(results)}
    assert table["m1"].score == pytest.approx(1.5)
    assert table["m2"].score == pytest.approx(1.5)
    assert table["m3"].score == pytest.approx(3.0)


def test_ranking_invariant_to_input_order():
    a = {"s1": [("m1", 0.3), ("m2", 0.6)], "s2": [("m1", 0.8), ("m2", 0.1)]}
    b = {"s2": [("m2", 0.1), ("m1", 0.8)], "s1": [("m2", 0.6), ("m1", 0.3)]}
    assert ranking(a) == ranking(b)


def test_ranking_missing_cell_is_reported():
    results = {"s1": [("m1", 0.5), ("m2", 0.4)], "s2": [("m1", 0.5)]}
    with pytest.raises(MetricError, match=r"\(m2, s2\)"):
        ranking(results)


def test_ranking_cell_given_twice_is_reported():
    results = {"s1": [("A", 0.9), ("A", 0.7), ("B", 0.8)], "s2": [("A", 0.9), ("B", 0.8)]}
    with pytest.raises(MetricError, match=r"\(A, s1\) is given 2 times"):
        ranking(results)


def test_ranking_refuses_a_non_finite_f1():
    with pytest.raises(MetricError, match="stream s1 has an F1 that is not a finite number"):
        ranking({"s1": [("A", float("nan")), ("B", 0.5)]})


def test_single_method_ranks_first():
    table = ranking({"s1": [("only", 0.4)], "s2": [("only", 0.2)]})
    assert table == [type(table[0])(method="only", score=1.0, position=1)]
