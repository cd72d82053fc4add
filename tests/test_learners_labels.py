"""The label rule of the online learners, ``first_best``, against normalising every row.

``first_best(z)`` takes the first index of ``max(z)`` when every other raw
score is at least 2**-40 below it, and otherwise normalises ``z`` as the
learners did before. The rule's margin rests on the error of ``np.exp``,
which differs between numpy's dispatch levels, so CI also runs this file
with numpy's AVX-512 kernels switched off.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.learners import OnlineGaussianNB, OnlineLogisticRegression, bayes
from driftstream.learners.bayes import _normalised, first_best

from test_learners_moments import _ParentGaussianNB, _ParentLogisticRegression, _schema


@st.composite
def raw_scores(draw):
    """Vectors of length 1-12 mixing finite values, +-inf, NaN, repeated maxima and near ties of one top value."""
    top = draw(st.one_of(st.floats(-1, 1), st.floats(-64, 64), st.floats(allow_nan=False, allow_infinity=False)))
    with np.errstate(over="ignore"):
        near = [top, np.nextafter(top, -math.inf), np.nextafter(top, math.inf)]
    # Below 2**-53 a difference can round exp to 1.0 and tie the normalised scores.
    near += [top + sign * 2.0**e for e in (-60, -54, -41, -40, -39) for sign in (-1, 1)]
    entry = st.one_of(
        st.sampled_from([*near, -math.inf, math.inf, math.nan]),
        st.floats(top - 4, top + 4) if math.isfinite(top - 4) and math.isfinite(top + 4) else st.just(top),
        st.floats(),
    )
    return np.array(draw(st.lists(entry, min_size=1, max_size=12)), dtype=float)


@settings(max_examples=3000, deadline=None)
@given(z=raw_scores())
def test_first_best_is_the_argmax_of_the_normalised_scores(z):
    with np.errstate(invalid="ignore"):
        expected = int(_normalised(z.copy()).argmax())
        assert first_best(z) == expected


@pytest.fixture
def normalisations(monkeypatch):
    """The calls ``first_best`` makes to the normalisation, recorded."""
    calls = []

    def spy(z):
        calls.append(z.copy())
        return _normalised(z)

    monkeypatch.setattr(bayes, "_normalised", spy)
    return calls


@pytest.mark.parametrize(
    "z, label",
    [
        ([1.0, 1.0], 0),  # a tie: the first maximum
        ([-3.0, 2.5, 2.5], 1),
        ([0.0, -2.0**-41], 0),  # within the margin, below or above the top
        ([-2.0**-41, 0.0], 1),
        ([5.0, np.nextafter(5.0, math.inf)], 1),
        ([0.0, -0.0], 0),
        ([1.0, math.nan], 0),  # a NaN makes the maximum and so every score NaN
        ([math.nan, 1.0], 0),
        ([math.inf, 0.0], 0),  # an infinite top gives NaN scores
        ([-math.inf, -math.inf], 0),
        ([math.nan], 0),
    ],
)
def test_ties_near_ties_nan_and_infinite_tops_are_normalised(z, label, normalisations):
    with np.errstate(invalid="ignore"):
        assert first_best(np.array(z)) == label
    assert len(normalisations) == 1


@pytest.mark.parametrize(
    "z, label",
    [
        ([3.0], 0),
        ([0.0, -2.0**-40], 0),  # exactly at the margin
        ([-2.0**-40, 0.0], 1),
        ([-7.5, -1.0, -math.inf, -1.5], 1),
        ([-math.inf, 1e308, -1e308], 1),
    ],
)
def test_a_top_clear_of_every_other_score_is_taken_without_normalising(z, label, normalisations):
    assert first_best(np.array(z)) == label
    assert normalisations == []


def _stream(d: int, k: int, n: int = 600, seed: int = 0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, k, size=n)
    X = np.round(rng.normal(size=(n, d)) + y[:, None], 2)
    return X, y.tolist()


@pytest.mark.parametrize("twin", ["equal", "one ulp apart"])
def test_gaussian_nb_with_twin_classes_labels_as_the_code_that_normalised_every_row(twin, normalisations):
    # Class 2 learns class 1's rows (or rows one ULP above them), so the two log-joints tie or nearly tie;
    # class 3 stays unseen.
    d = 5
    new, old = OnlineGaussianNB(_schema(d)), _ParentGaussianNB(_schema(d))
    X, y = _stream(d, 2)
    labels = ([], [])
    for x, c in zip(X, y):
        for model, out in zip((new, old), labels):
            out.append(model.predict(x))
            model.learn_one(x, c)
            if c == 1:
                model.learn_one(x if twin == "equal" else np.nextafter(x, math.inf), 2)
    assert labels[0] == labels[1]
    assert 1 in labels[0] and 3 not in labels[0]
    assert len(normalisations) > 100
    if twin == "equal":
        assert 2 not in labels[0]  # an exact tie goes to the first class
        assert len(normalisations) == labels[0].count(1)  # every row whose top is a twin, and no other


@pytest.mark.parametrize("twin", ["equal", "one ulp apart"])
def test_logistic_regression_with_equal_weight_columns_labels_as_the_code_that_normalised_every_row(
    twin, normalisations
):
    # Class 3 is never seen; its weights are then made class 1's (or one ULP above them).
    d = 5
    new, old = OnlineLogisticRegression(_schema(d)), _ParentLogisticRegression(_schema(d))
    X, y = _stream(d, 3)
    for x, c in zip(X[:400], y[:400]):
        new.learn_one(x, c)
        old.learn_one(x, c)
    for model in (new, old):
        model.W[:, 3] = model.W[:, 1] if twin == "equal" else np.nextafter(model.W[:, 1], math.inf)
        model.b[3] = model.b[1]
    mine = [new.predict(x) for x in X[400:]]
    assert mine == [old.predict(x) for x in X[400:]]
    assert 1 in mine
    assert normalisations
    if twin == "equal":
        assert 3 not in mine  # an exact tie goes to the first class
        assert len(normalisations) == mine.count(1)  # every row whose top is a twin, and no other
