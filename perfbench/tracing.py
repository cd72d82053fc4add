"""Per-layer tracing from outside the package, and scipy cross-checks.

`Tracer.install()` wraps the package's functions and methods at the layer
boundaries listed in `SPANS`. Each wrapped call is a span: its duration is
added to its name's total, and subtracted from the parent span's self time.
Spans are aggregated in memory per name and read out after the run.

Work the benchmark itself does inside a span, such as checking a statistical
test against scipy, is timed and taken out of every open span, so it counts
in no layer.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import spatial, stats

import driftstream.drift as drift_mod
import driftstream.ensemble as ensemble_mod
import driftstream.evaluation as evaluation_mod
import driftstream.experiment as experiment_mod
from driftstream.ensemble import HybridEnsemble, Member
from driftstream.evaluation import PrequentialState
from driftstream.learners import (
    BatchGaussianNB,
    HoeffdingTreeClassifier,
    OnlineGaussianNB,
    OnlineLogisticRegression,
    RandomForestClassifier,
)

#: (owner, attribute, span name). Module attributes are patched in the module
#: that calls them, since the package imports functions by name.
SPANS = (
    (HybridEnsemble, "process_instance", "ensemble.step"),
    (ensemble_mod, "compute_weights", "ensemble.weights"),
    (ensemble_mod, "combine_votes", "ensemble.vote"),
    (Member, "_cache_append", "ensemble.cache_append"),
    (Member, "_cache_arrays", "ensemble.restack"),
    (Member, "_window_pair", "ensemble.restack"),
    (Member, "_trim_cache", "ensemble.restack"),
    (ensemble_mod, "check_windows", "drift.check"),
    (drift_mod, "ks_two_sample", "stattests.ks"),
    (drift_mod, "wasserstein_1d", "stattests.wasserstein"),
    (drift_mod, "js_divergence", "stattests.js"),
    (drift_mod, "chi_squared", "stattests.chi2"),
    (drift_mod, "z_proportion", "stattests.zprop"),
    (RandomForestClassifier, "fit", "learners.rf.fit"),
    (RandomForestClassifier, "predict", "learners.rf.predict"),
    (BatchGaussianNB, "fit", "learners.gnb_batch.fit"),
    (BatchGaussianNB, "predict", "learners.gnb_batch.predict"),
    (OnlineGaussianNB, "predict", "learners.gnb.predict"),
    (OnlineGaussianNB, "learn_one", "learners.gnb.learn"),
    (HoeffdingTreeClassifier, "predict", "learners.hoeffding.predict"),
    (HoeffdingTreeClassifier, "learn_one", "learners.hoeffding.learn"),
    (OnlineLogisticRegression, "predict", "learners.logreg.predict"),
    (OnlineLogisticRegression, "learn_one", "learners.logreg.learn"),
    (evaluation_mod, "f1_macro", "evaluation.f1"),
    (PrequentialState, "update", "evaluation.update"),
    (experiment_mod, "run_stream", "experiment.run_stream"),
    (experiment_mod, "write_run_artifacts", "experiment.artifacts"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    units: int = 0  # rows for fits, True verdicts for drift checks


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.excluded_ns = 0
        self._stack: list[list[int]] = []  # per open span: [child time so far]
        self._saved: list[tuple[object, str, object]] = []
        self.crosschecks: dict[str, int] = {}
        self.crosscheck_failures: list[str] = []

    # -- spans -------------------------------------------------------------

    def _record(self, name: str, t0: int, t1: int, ex0: int, children: int, units: int) -> None:
        duration = t1 - t0 - (self.excluded_ns - ex0)
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = SpanStats()
        entry.calls += 1
        entry.total_ns += duration
        entry.self_ns += duration - children
        entry.units += units
        if self._stack:
            self._stack[-1][0] += duration

    def wrap(self, name: str, fn):
        tracer = self
        check = _CROSSCHECKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0]
            tracer._stack.append(frame)
            ex0 = tracer.excluded_ns
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                tracer._stack.pop()
            tracer._record(name, t0, t1, ex0, frame[0], _units(name, args, result))
            if check is not None:
                c0 = time.perf_counter_ns()
                # Recorded, not raised: the ensemble swallows member exceptions.
                problem = check(args, result)
                if problem is not None:
                    tracer.crosscheck_failures.append(problem)
                tracer.crosschecks[name] = tracer.crosschecks.get(name, 0) + 1
                tracer.excluded_ns += time.perf_counter_ns() - c0
            return result

        return traced

    def wrap_replay(self, rows):
        """Time each row the replay generator yields, as a child of the loop."""
        while True:
            frame = [0]
            self._stack.append(frame)
            ex0 = self.excluded_ns
            t0 = time.perf_counter_ns()
            try:
                inst = next(rows)
            except StopIteration:
                self._stack.pop()
                return
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._record("ingest.replay", t0, t1, ex0, frame[0], 0)
            yield inst

    def install(self) -> None:
        for owner, attr, name in SPANS:
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())


def _units(name: str, args, result) -> int:
    if name.endswith(".fit"):
        return len(args[2])
    if name == "drift.check":
        return int(result.drifted)
    return 0


# -- scipy cross-checks of every statistical-test outcome --------------------


def _agree(label: str, got: float, want: float, tol: float = 1e-9) -> str | None:
    if math.isclose(got, want, rel_tol=tol, abs_tol=tol):
        return None
    return f"{label}: program {got!r} vs scipy {want!r}"


def _first(*problems: str | None) -> str | None:
    return next((p for p in problems if p is not None), None)


def _counts(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    union = np.unique(np.concatenate([a, b]))
    return (
        np.array([(a == v).sum() for v in union], float),
        np.array([(b == v).sum() for v in union], float),
    )


def _check_ks(args, outcome) -> str | None:
    a, b = np.asarray(args[0], float), np.asarray(args[1], float)
    ref = stats.ks_2samp(a, b)
    n_eff = a.size * b.size / (a.size + b.size)
    return _first(
        _agree("ks statistic", outcome.statistic, float(ref.statistic)),
        _agree("ks p-value", outcome.p_value, float(stats.kstwobign.sf(math.sqrt(n_eff) * ref.statistic))),
    )


def _check_wasserstein(args, outcome) -> str | None:
    a, b = np.asarray(args[0], float), np.asarray(args[1], float)
    want = stats.wasserstein_distance(a, b) / max(float(np.std(a, ddof=1)), 1e-12)
    return _agree("wasserstein score", outcome.drift_score, float(want))


def _check_js(args, outcome) -> str | None:
    p, q = _counts(np.asarray(args[0], float), np.asarray(args[1], float))
    return _agree("js distance", outcome.drift_score, float(spatial.distance.jensenshannon(p, q, base=2)))


def _check_chi2(args, outcome) -> str | None:
    ref, cur = _counts(np.asarray(args[0], float), np.asarray(args[1], float))
    ref += 0.5  # the documented reference smoothing
    want = stats.chisquare(cur, f_exp=ref / ref.sum() * cur.sum())
    return _first(
        _agree("chi2 statistic", outcome.statistic, float(want.statistic)),
        _agree("chi2 p-value", outcome.p_value, float(want.pvalue)),
    )


def _check_zprop(args, outcome) -> str | None:
    s_a, n_a, s_b, n_b = args
    pooled = (s_a + s_b) / (n_a + n_b)
    if pooled in (0.0, 1.0):
        return _agree("z p-value", outcome.p_value, 1.0)
    z = (s_a / n_a - s_b / n_b) / math.sqrt(pooled * (1 - pooled) * (1 / n_a + 1 / n_b))
    return _agree("z p-value", outcome.p_value, float(2.0 * stats.norm.sf(abs(z))))


_CROSSCHECKS = {
    "stattests.ks": _check_ks,
    "stattests.wasserstein": _check_wasserstein,
    "stattests.js": _check_js,
    "stattests.chi2": _check_chi2,
    "stattests.zprop": _check_zprop,
}
