"""Two-sample tests and divergences behind the per-feature drift monitors.

Every function is a pure function of its inputs and returns a
:class:`TestOutcome` whose ``drift_score`` is the quantity compared against a
detection threshold. The convention is:

* p-value outcomes flag drift when ``drift_score`` (the p-value) falls
  *below* the threshold;
* distance outcomes flag drift when ``drift_score`` rises *above* it.

P-values are asymptotic throughout; the window sizes the monitors operate on
(hundreds to tens of thousands of points) make the asymptotics adequate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaincc

P_VALUE = "p_value"
DISTANCE = "distance"

#: Floor for the reference standard deviation used to normalize Wasserstein
#: distances; keeps the score scale-free without dividing by zero.
_STD_FLOOR = 1e-12


@dataclass(frozen=True)
class TestOutcome:
    """Result of one two-sample comparison.

    ``score_kind`` is ``"p_value"`` or ``"distance"``; for p-value outcomes
    ``drift_score`` equals ``p_value``.
    """

    statistic: float
    p_value: Optional[float]
    drift_score: float
    score_kind: str


def _as_sample(values, name: str = "sample") -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError(f"empty {name}")
    return arr


def kolmogorov_sf(x: float) -> float:
    """Survival function Q(x) of the Kolmogorov distribution.

    Uses the alternating series 2 * sum_k (-1)^(k-1) exp(-2 k^2 x^2) for
    x >= 1 and the Jacobi theta form for smaller x, where the alternating
    series converges too slowly.
    """
    if x <= 0.0:
        return 1.0
    if x >= 1.0:
        total = 0.0
        sign = 1.0
        for k in range(1, 200):
            term = math.exp(-2.0 * k * k * x * x)
            total += sign * term
            if term < 1e-17:
                break
            sign = -sign
        return min(1.0, max(0.0, 2.0 * total))
    # Q(x) = 1 - sqrt(2 pi)/x * sum over odd k of exp(-(k pi)^2 / (8 x^2))
    total = 0.0
    for k in range(1, 40, 2):
        term = math.exp(-((k * math.pi) ** 2) / (8.0 * x * x))
        total += term
        if term < 1e-17:
            break
    return min(1.0, max(0.0, 1.0 - math.sqrt(2.0 * math.pi) / x * total))


def ks_two_sample(a, b) -> TestOutcome:
    """Two-sample Kolmogorov-Smirnov test.

    Statistic D = sup |ECDF_a - ECDF_b|; the p-value comes from the
    asymptotic Kolmogorov distribution evaluated at sqrt(n_eff) * D with
    effective size n_eff = |a| |b| / (|a| + |b|).
    """
    a = _as_sample(a)
    b = _as_sample(b)
    a_sorted = np.sort(a)
    b_sorted = np.sort(b)
    pooled = np.concatenate([a_sorted, b_sorted])
    cdf_a = np.searchsorted(a_sorted, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b_sorted, pooled, side="right") / b.size
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = a.size * b.size / (a.size + b.size)
    p = kolmogorov_sf(math.sqrt(n_eff) * stat)
    return TestOutcome(statistic=stat, p_value=p, drift_score=p, score_kind=P_VALUE)


def wasserstein_1d(a, b, reference_std: float) -> TestOutcome:
    """First Wasserstein distance, normalized by the reference deviation.

    The raw distance is the integral of |ECDF_a - ECDF_b|, which for
    equal-size samples equals the mean absolute difference of matched order
    statistics. ``drift_score`` divides by max(reference_std, 1e-12) so a
    single threshold works across features of different scales.
    """
    a = _as_sample(a)
    b = _as_sample(b)
    if reference_std < 0:
        raise ValueError("reference_std must be non-negative")
    pooled = np.sort(np.concatenate([a, b]))
    deltas = np.diff(pooled)
    if deltas.size == 0:
        w1 = 0.0
    else:
        cdf_a = np.searchsorted(np.sort(a), pooled[:-1], side="right") / a.size
        cdf_b = np.searchsorted(np.sort(b), pooled[:-1], side="right") / b.size
        w1 = float(np.sum(np.abs(cdf_a - cdf_b) * deltas))
    score = w1 / max(reference_std, _STD_FLOOR)
    return TestOutcome(statistic=w1, p_value=None, drift_score=score, score_kind=DISTANCE)


def _js_from_distributions(p: np.ndarray, q: np.ndarray) -> float:
    m = 0.5 * (p + q)

    def _kl(r: np.ndarray) -> float:
        mask = r > 0
        return float(np.sum(r[mask] * np.log2(r[mask] / m[mask])))

    return 0.5 * _kl(p) + 0.5 * _kl(q)


def _union_counts(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """How often each value of the sorted union of ``a`` and ``b`` occurs in each, as floats;
    values are told apart as ``==`` tells them, so -0.0 and 0.0 count as one."""
    union = np.unique(np.concatenate([a, b]))

    def count(sample: np.ndarray) -> np.ndarray:
        ordered = np.sort(sample)
        return (np.searchsorted(ordered, union, "right") - np.searchsorted(ordered, union)).astype(float)

    return count(a), count(b)


def js_divergence(a, b) -> TestOutcome:
    """Jensen-Shannon divergence between two samples, log base 2.

    The samples are compared as categorical: over the union of their observed
    values. ``drift_score`` is sqrt(JS), which lies in [0, 1] for base-2
    logarithms.
    """
    a = _as_sample(a)
    b = _as_sample(b)
    counts_a, counts_b = _union_counts(a, b)
    p = counts_a / counts_a.sum()
    q = counts_b / counts_b.sum()
    js = max(0.0, _js_from_distributions(p, q))
    return TestOutcome(statistic=js, p_value=None, drift_score=math.sqrt(js), score_kind=DISTANCE)


def chi_squared(a, b) -> TestOutcome:
    """Chi-squared comparison of the current sample against reference proportions.

    Expected counts for ``b`` are the reference proportions from ``a`` scaled
    to |b|. To keep every expected count positive, 0.5 is added to each
    union-category count in the reference before proportions are formed. The
    statistic is asymmetric by design (reference vs current); the p-value is
    the regularized upper incomplete gamma at (df/2, stat/2) with df = k - 1.
    """
    a = _as_sample(a, "reference sample")
    b = _as_sample(b, "current sample")
    ref_counts, cur_counts = _union_counts(a, b)
    if ref_counts.size < 2:
        raise ValueError("chi-squared needs at least two categories in the union")
    ref_counts += 0.5
    expected = ref_counts / ref_counts.sum() * b.size
    stat = float(np.sum((cur_counts - expected) ** 2 / expected))
    df = ref_counts.size - 1
    p = float(gammaincc(df / 2.0, stat / 2.0))
    return TestOutcome(statistic=stat, p_value=p, drift_score=p, score_kind=P_VALUE)


def z_proportion(successes_a: int, n_a: int, successes_b: int, n_b: int) -> TestOutcome:
    """Two-sided Z test for the difference of two independent proportions.

    Uses the pooled proportion in the denominator. A degenerate pooled
    proportion (0 or 1) carries no evidence of a difference, so z = 0 and
    p = 1 in that case.
    """
    if n_a < 1 or n_b < 1:
        raise ValueError("sample sizes must be at least 1")
    if not (0 <= successes_a <= n_a and 0 <= successes_b <= n_b):
        raise ValueError("successes must lie within [0, n]")
    pooled = (successes_a + successes_b) / (n_a + n_b)
    if pooled <= 0.0 or pooled >= 1.0:
        return TestOutcome(statistic=0.0, p_value=1.0, drift_score=1.0, score_kind=P_VALUE)
    p_a = successes_a / n_a
    p_b = successes_b / n_b
    denom = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b))
    z = (p_a - p_b) / denom
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return TestOutcome(statistic=z, p_value=p, drift_score=p, score_kind=P_VALUE)
