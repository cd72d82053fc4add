"""Unit tests for the two-sample tests, each against a direct-definition oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from driftstream import stattests
from driftstream.stattests import (
    DISTANCE,
    P_VALUE,
    _as_sample,
    _js_from_distributions,
    chi_squared,
    js_divergence,
    kolmogorov_sf,
    ks_two_sample,
    wasserstein_1d,
    z_proportion,
)

# ---------------------------------------------------------------------------
# oracles: brute-force evaluations straight from the definitions


def ks_statistic_oracle(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    points = np.concatenate([a, b])
    best = 0.0
    for v in points:
        diff = abs(np.mean(a <= v) - np.mean(b <= v))
        best = max(best, diff)
    return best


def wasserstein_oracle_equal_sizes(a, b):
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


def js_oracle(p, q):
    m = [(pi + qi) / 2 for pi, qi in zip(p, q)]
    total = 0.0
    for r in (p, q):
        for ri, mi in zip(r, m):
            if ri > 0:
                total += 0.5 * ri * math.log2(ri / mi)
    return total


def chi2_statistic_oracle(ref_counts, cur_counts):
    smoothed = [c + 0.5 for c in ref_counts]
    total_ref = sum(smoothed)
    n_cur = sum(cur_counts)
    stat = 0.0
    for rc, cc in zip(smoothed, cur_counts):
        expected = rc / total_ref * n_cur
        stat += (cc - expected) ** 2 / expected
    return stat


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov


def test_ks_identical_samples():
    out = ks_two_sample([1.0, 2.0, 5.0], [1.0, 2.0, 5.0])
    assert out.statistic == 0.0
    assert out.p_value == 1.0
    assert out.score_kind == P_VALUE


def test_ks_disjoint_supports():
    out = ks_two_sample([0, 0, 0, 0], [1, 1, 1, 1])
    assert out.statistic == 1.0


def test_ks_shifted_sample_statistic():
    # Oracle: enumerate ECDF differences at all sample points, max is 0.4.
    out = ks_two_sample([1, 2, 3, 4, 5], [3, 4, 5, 6, 7])
    assert out.statistic == pytest.approx(0.4, abs=1e-12)
    assert out.statistic == pytest.approx(ks_statistic_oracle([1, 2, 3, 4, 5], [3, 4, 5, 6, 7]), abs=1e-12)


def test_ks_empty_sample_rejected():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_kolmogorov_sf_against_scipy():
    from scipy.special import kolmogorov

    for x in [0.01, 0.05, 0.2, 0.4, 0.6, 0.8, 0.99, 1.0, 1.2, 1.6, 2.5, 4.0]:
        assert kolmogorov_sf(x) == pytest.approx(float(kolmogorov(x)), abs=1e-12)


# ---------------------------------------------------------------------------
# Wasserstein


def test_wasserstein_identical():
    out = wasserstein_1d([1.0, 2.0], [1.0, 2.0], reference_std=1.0)
    assert out.statistic == 0.0
    assert out.drift_score == 0.0
    assert out.score_kind == DISTANCE
    assert out.p_value is None


def test_wasserstein_point_masses():
    out = wasserstein_1d([0.0], [1.0], reference_std=1.0)
    assert out.statistic == pytest.approx(1.0)
    assert out.drift_score == pytest.approx(1.0)


def test_wasserstein_sorted_matching_oracle():
    out = wasserstein_1d([0.0, 1.0], [1.0, 2.0], reference_std=0.5)
    assert out.statistic == pytest.approx(wasserstein_oracle_equal_sizes([0, 1], [1, 2]), abs=1e-12)
    assert out.drift_score == pytest.approx(2.0, abs=1e-12)


def test_wasserstein_monotone_in_mean_shift():
    rng = np.random.default_rng(77)
    a = rng.normal(0.0, 1.0, 1000)
    scores = []
    for mu in (0.0, 0.5, 1.0, 2.0):
        b = rng.normal(mu, 1.0, 1000)
        scores.append(wasserstein_1d(a, b, reference_std=float(np.std(a, ddof=1))).drift_score)
    assert scores == sorted(scores)


# ---------------------------------------------------------------------------
# Jensen-Shannon


def test_js_identical_samples():
    out = js_divergence([0, 1, 1], [0, 1, 1])
    assert out.drift_score == pytest.approx(0.0, abs=1e-12)


def test_js_disjoint_point_supports_is_maximal():
    out = js_divergence([0.0], [1.0])
    assert out.statistic == pytest.approx(1.0, abs=1e-9)
    assert out.drift_score == pytest.approx(1.0, abs=1e-9)


def test_js_half_half_versus_pure():
    # Samples realizing P = (1/2, 1/2) and Q = (1, 0); mixture M = (3/4, 1/4).
    out = js_divergence([0.0, 1.0], [0.0, 0.0])
    expected = js_oracle([0.5, 0.5], [1.0, 0.0])
    assert out.statistic == pytest.approx(expected, abs=1e-12)
    assert out.drift_score == pytest.approx(math.sqrt(expected), abs=1e-12)
    assert out.statistic == pytest.approx(0.311278, abs=1e-6)
    assert out.drift_score == pytest.approx(0.557923, abs=1e-6)


def test_js_numeric_constant_pooled_sample():
    out = js_divergence([2.0, 2.0], [2.0])
    assert out.drift_score == 0.0


# ---------------------------------------------------------------------------
# chi-squared


def test_chi2_identical_profiles():
    a = [0] * 50 + [1] * 50
    out = chi_squared(a, a)
    assert out.statistic == pytest.approx(0.0, abs=1e-12)
    assert out.p_value == pytest.approx(1.0, abs=1e-12)


def test_chi2_known_statistic():
    # Reference (50, 50), current (30, 70): expected (50, 50), stat = 8 + 8 = 16.
    a = [0] * 50 + [1] * 50
    b = [0] * 30 + [1] * 70
    out = chi_squared(a, b)
    assert out.statistic == pytest.approx(16.0, abs=1e-9)
    assert out.statistic == pytest.approx(chi2_statistic_oracle([50, 50], [30, 70]), abs=1e-12)
    assert out.p_value == pytest.approx(6.334e-5, rel=1e-3)


def test_chi2_pvalue_against_quadrature():
    from scipy.integrate import quad

    def chi2_pdf(t, df):
        return t ** (df / 2 - 1) * math.exp(-t / 2) / (2 ** (df / 2) * math.gamma(df / 2))

    a = [0] * 40 + [1] * 30 + [2] * 30
    b = [0] * 20 + [1] * 50 + [2] * 30
    out = chi_squared(a, b)
    tail, _ = quad(chi2_pdf, out.statistic, np.inf, args=(2,))
    assert out.p_value == pytest.approx(tail, abs=1e-9)


def test_chi2_new_category_in_current_is_finite():
    # A category absent from the reference gets expected mass via smoothing.
    out = chi_squared([0, 0, 0], [0, 1, 1])
    assert math.isfinite(out.statistic)
    assert 0.0 <= out.p_value <= 1.0


def test_chi2_single_category_rejected():
    with pytest.raises(ValueError):
        chi_squared([1, 1], [1, 1])


def _js_by_value_loop(a, b):
    # js_divergence as it was, counting each union value with a pass over each sample.
    a = _as_sample(a)
    b = _as_sample(b)
    union = np.unique(np.concatenate([a, b]))
    counts_a = np.array([(a == v).sum() for v in union], dtype=float)
    counts_b = np.array([(b == v).sum() for v in union], dtype=float)
    p = counts_a / counts_a.sum()
    q = counts_b / counts_b.sum()
    js = max(0.0, _js_from_distributions(p, q))
    return stattests.TestOutcome(statistic=js, p_value=None, drift_score=math.sqrt(js), score_kind=DISTANCE)


def _chi2_by_value_loop(a, b):
    # chi_squared as it was, counting each union value with a pass over each sample.
    a = _as_sample(a, "reference sample")
    b = _as_sample(b, "current sample")
    union = np.unique(np.concatenate([a, b]))
    if union.size < 2:
        raise ValueError("chi-squared needs at least two categories in the union")
    ref_counts = np.array([(a == v).sum() for v in union], dtype=float) + 0.5
    cur_counts = np.array([(b == v).sum() for v in union], dtype=float)
    expected = ref_counts / ref_counts.sum() * b.size
    stat = float(np.sum((cur_counts - expected) ** 2 / expected))
    df = union.size - 1
    p = float(gammaincc(df / 2.0, stat / 2.0))
    return stattests.TestOutcome(statistic=stat, p_value=p, drift_score=p, score_kind=P_VALUE)


def test_js_and_chi2_are_bit_identical_to_the_per_value_loop():
    # Seeded categorical samples over value sets with -0.0 and 0.0, two-valued
    # and one-valued columns; every field is compared by its repr.
    rng = np.random.default_rng(41)
    value_sets = [[-0.0, 0.0, 1.0], [0.0, 1.0], [-0.0, 0.0], [3.0], [-1.5, -0.0, 2.0, 7.25, 0.0], [0.0, 1.0, 2.0, 3.0, 4.0]]
    n_refused = 0
    for _ in range(400):
        values_a = value_sets[int(rng.integers(len(value_sets)))]
        values_b = value_sets[int(rng.integers(len(value_sets)))]
        a = rng.choice(values_a, size=int(rng.integers(1, 60)))
        b = rng.choice(values_b, size=int(rng.integers(1, 60)))
        assert repr(js_divergence(a, b)) == repr(_js_by_value_loop(a, b))
        try:
            expected = repr(_chi2_by_value_loop(a, b))
        except ValueError:
            n_refused += 1
            with pytest.raises(ValueError, match="at least two categories"):
                chi_squared(a, b)
            continue
        assert repr(chi_squared(a, b)) == expected
    assert 0 < n_refused < 400


# ---------------------------------------------------------------------------
# Z proportion


def test_z_equal_proportions():
    out = z_proportion(30, 100, 30, 100)
    assert out.statistic == 0.0
    assert out.p_value == 1.0


def test_z_known_value():
    out = z_proportion(30, 100, 50, 100)
    assert out.statistic == pytest.approx(-2.886751, abs=1e-6)


def test_z_degenerate_pooled_proportion():
    out = z_proportion(0, 50, 0, 50)
    assert out.statistic == 0.0
    assert out.p_value == 1.0
    out = z_proportion(50, 50, 50, 50)
    assert out.p_value == 1.0


def test_z_validates_inputs():
    with pytest.raises(ValueError):
        z_proportion(1, 0, 0, 5)
    with pytest.raises(ValueError):
        z_proportion(6, 5, 0, 5)


# ---------------------------------------------------------------------------
# shared invariants


@st.composite
def sample_pairs(draw):
    floats = st.floats(min_value=-50, max_value=50, allow_nan=False)
    a = draw(st.lists(floats, min_size=1, max_size=40))
    b = draw(st.lists(floats, min_size=1, max_size=40))
    return a, b


@settings(max_examples=60, deadline=None)
@given(sample_pairs())
def test_ks_symmetry(pair):
    a, b = pair
    assert ks_two_sample(a, b).statistic == pytest.approx(ks_two_sample(b, a).statistic, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(sample_pairs())
def test_js_symmetry_and_bounds(pair):
    a, b = pair
    out_ab = js_divergence(a, b)
    out_ba = js_divergence(b, a)
    assert out_ab.drift_score == pytest.approx(out_ba.drift_score, abs=1e-12)
    assert 0.0 <= out_ab.drift_score <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(sample_pairs())
def test_outcome_invariants(pair):
    a, b = pair
    for out in (ks_two_sample(a, b), wasserstein_1d(a, b, 1.0), js_divergence(a, b)):
        assert out.drift_score >= 0.0
        if out.score_kind == P_VALUE:
            assert out.p_value is not None and 0.0 <= out.p_value <= 1.0
            assert out.drift_score == out.p_value
        else:
            assert out.p_value is None
