import logging
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.core import BatchClassifier, ConfigError, FeatureKind, Instance, Schema, SchemaError, argmax_tiebreak
from driftstream.drift import DriftStrategy, DriftVerdict, Trigger, strategy_catalog
from driftstream.ensemble import (
    DYNAMIC_SWITCH,
    WEIGHTED_VOTE,
    DriftEvent,
    EnsembleConfig,
    HybridEnsemble,
    MemberSpec,
    ReplacementEvent,
    combine_votes,
    compute_weights,
)
from driftstream.evaluation import f1_from_pairs
from driftstream.learners import BATCH_LEARNERS, OnlineGaussianNB, RandomForestClassifier
from driftstream.learners import cart as cart_module

from conftest import gaussian_instances
from test_readahead import golden_stream, golden_steps

SCHEMA = Schema(
    feature_names=("seq", "hint"),
    feature_kinds=(FeatureKind.NUMERIC, FeatureKind.NUMERIC),
    class_labels=("a", "b", "c"),
)


def encoded_stream(n, start=0):
    """Instances whose features carry the arrival index and the true label."""
    out = []
    for seq in range(start, start + n):
        y = seq % 3
        out.append(Instance(x=np.array([float(seq), float(y)]), y=y, seq=seq))
    return out


def perf_strategy(**overrides) -> DriftStrategy:
    base = dict(
        id="T",
        monitor_features=False,
        monitor_target=False,
        monitor_performance=True,
        threshold=0.0,
        window_size=1000,
        perf_tolerance=0.2,
    )
    base.update(overrides)
    return DriftStrategy(**base)


class SpyBatchModel(BatchClassifier):
    """Test double: records every fit; behaviour is fixed per creation index.

    "oracle" reads the label encoded in the second feature, "constant0"
    always answers class 0.
    """

    def __init__(self, schema, behaviour):
        super().__init__(schema)
        self.behaviour = behaviour
        self.fits: list[tuple[np.ndarray, np.ndarray]] = []

    def fit(self, X, y):
        self.fits.append((np.array(X), np.array(y)))

    def fit_seqs(self, i=0):
        """Arrival indices of the rows of the i-th fit, read from the first feature."""
        return self.fits[i][0][:, 0].astype(int).tolist()

    def predict(self, x):
        if self.behaviour == "oracle":
            return int(x[1])
        return 0


def install_spies(monkeypatch, behaviours):
    """Route the creation of batch ``cart`` models through spies; returns the created list."""
    created = []

    def factory(schema, seed):
        behaviour = behaviours[len(created)] if len(created) < len(behaviours) else "oracle"
        model = SpyBatchModel(schema, behaviour)
        created.append(model)
        return model

    monkeypatch.setitem(BATCH_LEARNERS, "cart", factory)
    return created


def count_events(events):
    """(drifts, replacements) in a run's event log."""
    return (
        sum(isinstance(e, DriftEvent) for e in events),
        sum(isinstance(e, ReplacementEvent) for e in events),
    )


def always_drift(pair, strategy, schema):
    return DriftVerdict(True, (Trigger("performance", 1.0),))


# ---------------------------------------------------------------------------
# weights and votes


def test_wv_weights_are_proportional():
    assert np.allclose(compute_weights([1, 1, 2], "wv"), [0.25, 0.25, 0.5])


def test_ds_weights_are_one_hot_at_argmax():
    assert compute_weights([0.2, 0.5, 0.3], "ds").tolist() == [0.0, 1.0, 0.0]


def test_wv_all_zero_scores_fall_back_to_uniform():
    assert np.allclose(compute_weights([0.0, 0.0, 0.0], "wv"), [1 / 3, 1 / 3, 1 / 3])


def test_ds_tie_takes_lowest_member_index():
    assert compute_weights([0.4, 0.4], "ds").tolist() == [1.0, 0.0]


def test_weights_reject_negative_scores():
    with pytest.raises(ValueError):
        compute_weights([-0.1, 0.5], "wv")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False), min_size=1, max_size=8))
def test_weights_form_a_simplex(scores):
    for combiner in ("wv", "ds"):
        weights = compute_weights(scores, combiner)
        assert np.all(weights >= 0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_combine_votes_weighted_majority():
    # Class 0 collects 0.5 + 0.2 = 0.7 against 0.3.
    assert combine_votes([0, 1, 0], np.array([0.5, 0.3, 0.2]), 2) == 0


def test_combine_votes_one_hot_selects_that_member():
    assert combine_votes([2, 1, 0], np.array([0.0, 1.0, 0.0]), 3) == 1


def test_combine_votes_tie_takes_lowest_class():
    assert combine_votes([0, 1], np.array([0.5, 0.5]), 2) == 0


def test_combine_votes_length_mismatch():
    with pytest.raises(ValueError):
        combine_votes([0, 1], np.array([1.0]), 2)


@pytest.mark.parametrize("combiner", ["wv", "ds"])
def test_weights_of_no_members_raise_a_value_error(combiner):
    with pytest.raises(ValueError, match="no member scores"):
        compute_weights([], combiner)


def compute_weights_numpy(scores, combiner):
    """``compute_weights`` before it moved to Python floats, verbatim."""
    scores = np.asarray(scores, dtype=float)
    if np.any(scores < 0):
        raise ValueError("member scores must be non-negative")
    n = scores.size
    if combiner == DYNAMIC_SWITCH:
        weights = np.zeros(n)
        weights[argmax_tiebreak(scores)] = 1.0
        return weights
    if combiner == WEIGHTED_VOTE:
        total = scores.sum()
        if total <= 0:
            return np.full(n, 1.0 / n)
        return scores / total
    raise ValueError(f"unknown combiner {combiner!r}")


def combine_votes_numpy(labels, weights, n_classes):
    """``combine_votes`` before it moved to Python floats, verbatim."""
    if len(labels) != len(weights):
        raise ValueError("one weight per member prediction is required")
    tally = np.zeros(n_classes)
    for label, weight in zip(labels, weights):
        tally[label] += weight
    return argmax_tiebreak(tally)


def member_scores(rng, n):
    """Window F1-like scores: arbitrary fractions, all zeros, some zeros, or ties from a small pool."""
    kind = rng.integers(4)
    if kind == 0:
        return (rng.integers(0, 500, n) / rng.integers(1, 500, n)).tolist()
    if kind == 1:
        return [0.0] * n
    if kind == 2:
        return np.where(rng.random(n) < 0.5, 0.0, rng.random(n)).tolist()
    return rng.choice([0.0, 1 / 3, 0.5, 2 / 3, 0.7142857142857143, 1.0], n).tolist()


def hexes(weights):
    return [w.hex() for w in weights.tolist()]


@pytest.mark.parametrize("combiner", ["wv", "ds"])
def test_weights_and_vote_are_bit_identical_to_the_numpy_versions(combiner):
    # 1-12 members crosses numpy's switch to pairwise sums at 8 values.
    rng = np.random.default_rng(41)
    for n in range(1, 13):
        for k in range(2, 13):
            for _ in range(12):
                scores = member_scores(rng, n)
                weights = compute_weights(scores, combiner)
                assert weights.dtype == np.float64
                assert hexes(weights) == hexes(compute_weights_numpy(scores, combiner)), scores
                labels = rng.integers(0, min(k, int(rng.integers(1, 4))), n).tolist()  # duplicate labels
                for w in (weights, np.full(n, 1.0 / n)):  # the second has only tied votes
                    assert combine_votes(labels, w, k) == combine_votes_numpy(labels, w, k)


@pytest.mark.parametrize("run", ["wv-rf", "ds-gnb"])
def test_every_step_weighs_the_members_by_their_last_score_window(run):
    # The kept scores against each member's F1 recomputed from the StepResults before the step.
    config, schema, _ = golden_stream(run)
    steps = golden_steps(run)
    w, k = config.score_window, schema.n_classes
    for t, step in enumerate(steps):
        window = steps[max(0, t - w):t]
        y = [s.y_true for s in window]
        scores = [
            f1_from_pairs(y, [s.member_labels[m] for s in window], k) if window else 0.0
            for m in range(len(config.members))
        ]
        assert hexes(step.weights) == hexes(compute_weights(scores, config.combiner)), t


# ---------------------------------------------------------------------------
# member construction and warm-up semantics


def online_spec(algo="gnb"):
    return MemberSpec(id=algo, kind="online", algorithm=algo)


def batch_spec(strategy, algo="cart", id=None):
    return MemberSpec(id=id or f"{algo}-{strategy.id}", kind="batch", algorithm=algo, strategy=strategy)


def test_member_spec_validation():
    with pytest.raises(ConfigError):
        MemberSpec(id="x", kind="batch", algorithm="cart")  # no strategy
    with pytest.raises(ConfigError):
        MemberSpec(id="x", kind="online", algorithm="gnb", strategy=perf_strategy())
    with pytest.raises(ConfigError):
        MemberSpec(id="x", kind="nope", algorithm="gnb")


def test_ensemble_config_validation():
    with pytest.raises(ConfigError):
        EnsembleConfig(members=())
    with pytest.raises(ConfigError):
        EnsembleConfig(members=(online_spec(),), combiner="avg")
    with pytest.raises(ConfigError):
        EnsembleConfig(members=(online_spec(), online_spec()))  # duplicate ids


@pytest.mark.parametrize(
    "setting, named",
    [({"score_window": 2.5}, "score_window"), ({"cache_cap": 0}, "cache_cap"), ({"seed": -1}, "seed")],
    ids=["float-score-window", "zero-cache-cap", "negative-seed"],
)
def test_ensemble_config_refuses_bad_integer_settings(setting, named):
    with pytest.raises(ConfigError, match=f"{named} must be an integer of at least"):
        EnsembleConfig(members=(online_spec(),), **setting)


def test_batch_member_warm_up_predicts_cache_majority(monkeypatch):
    install_spies(monkeypatch, ["constant0"])
    config = EnsembleConfig(members=(batch_spec(perf_strategy()),), first_fit_size=10, seed=0)
    ensemble = HybridEnsemble(SCHEMA, config)
    stream = encoded_stream(6) + [Instance(np.array([6.0, 1.0]), 1, 6), Instance(np.array([7.0, 0.0]), 0, 7)]
    labels = [ensemble.process_instance(inst).member_labels[0] for inst in stream]
    assert labels[0] == 0  # empty cache falls back to class 0
    assert labels[6] == 0  # labels 0,1,2,0,1,2 tie between all classes, lowest wins
    assert labels[7] == 1  # now class 1 leads the cache


def test_batch_member_first_fit_trains_on_initial_window(monkeypatch):
    created = install_spies(monkeypatch, ["oracle"])
    config = EnsembleConfig(members=(batch_spec(perf_strategy(window_size=50)),), first_fit_size=10, seed=0)
    ensemble = HybridEnsemble(SCHEMA, config)
    stream = encoded_stream(12)
    labels = [ensemble.process_instance(inst).member_labels[0] for inst in stream]
    assert len(created) == 1
    fitted_X, fitted_y = created[0].fits[0]
    assert fitted_X[:, 0].tolist() == [float(i) for i in range(10)]  # exactly the warm-up window
    assert fitted_y.tolist() == [i % 3 for i in range(10)]
    # Warm-up answers come from the cache majority, the rest from the model.
    assert labels[:10] == [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    assert labels[10:] == [10 % 3, 11 % 3]


def test_online_member_untrained_fallback():
    config = EnsembleConfig(members=(online_spec(),), seed=0)
    ensemble = HybridEnsemble(SCHEMA, config)
    step = ensemble.process_instance(encoded_stream(1)[0])
    assert step.member_labels[0] == 0


# ---------------------------------------------------------------------------
# retraining scope and the shadow lifecycle


def run_spy_member(monkeypatch, behaviours, scope, n, fire_at=None, window_size=1000, member_first_fit=None, **options):
    created = install_spies(monkeypatch, behaviours)
    if fire_at is None:
        monkeypatch.setattr("driftstream.ensemble.check_windows", always_drift)
    else:
        def fire(pair, strategy, schema, _seen=[]):
            _seen.append(True)
            return always_drift(pair, strategy, schema) if len(_seen) in fire_at else DriftVerdict(False)

        monkeypatch.setattr("driftstream.ensemble.check_windows", fire)
    strategy = perf_strategy(retrain_scope=scope, window_size=window_size, first_fit_size=member_first_fit)
    options = {"first_fit_size": 500, "shadow_eval_size": 100, "seed": 0, **options}
    config = EnsembleConfig(members=(batch_spec(strategy),), **options)
    ensemble = HybridEnsemble(SCHEMA, config)
    events = []
    for inst in encoded_stream(n):
        events.extend(ensemble.process_instance(inst).events)
    return created, events, ensemble


def test_retrain_since_last_replacement_uses_cache_since_swap(monkeypatch):
    created, events, ensemble = run_spy_member(
        monkeypatch, ["constant0", "oracle", "oracle"], "since_last_replacement", 3600
    )
    # Timeline: fit at seq 499 (model 0, bad). The first due check lands at
    # seq 2499 (buffer needs 2 * window_size = 2000 rows). Shadow (model 1)
    # trains on everything cached so far, wins, swaps at seq 2599 and clears
    # the cache. The next check at seq 3499 retrains on seq 2600..3499 only.
    drift_seqs = [e.seq for e in events if isinstance(e, DriftEvent)]
    replace_seqs = [e.seq for e in events if isinstance(e, ReplacementEvent)]
    assert drift_seqs == [2499, 3499]
    assert replace_seqs == [2599]
    shadow1_X, _ = created[1].fits[0]
    assert shadow1_X[:, 0].tolist() == [float(i) for i in range(0, 2500)]
    shadow2_X, _ = created[2].fits[0]
    assert shadow2_X[:, 0].tolist() == [float(i) for i in range(2600, 3500)]


def test_retrain_last_window_uses_trailing_window(monkeypatch):
    created, events, ensemble = run_spy_member(
        monkeypatch, ["constant0", "oracle"], "last_window", 2600
    )
    shadow_X, _ = created[1].fits[0]
    assert shadow_X[:, 0].tolist() == [float(i) for i in range(1500, 2500)]  # last 1000 at seq 2499


def test_retrain_since_last_replacement_is_capped(monkeypatch):
    created, events, ensemble = run_spy_member(
        monkeypatch, ["constant0", "oracle"], "since_last_replacement", 2600, cache_cap=800
    )
    assert created[1].fit_seqs() == list(range(1700, 2500))  # the last cache_cap rows at seq 2499


def test_retrain_last_window_larger_than_cache_cap(monkeypatch):
    created, events, ensemble = run_spy_member(
        monkeypatch, ["constant0", "oracle"], "last_window", 2600, cache_cap=600
    )
    assert created[1].fit_seqs() == list(range(1500, 2500))  # the last s rows, not the last cache_cap


def test_first_fit_longer_than_cache_cap_uses_last_cache_cap_rows(monkeypatch):
    created, events, ensemble = run_spy_member(
        monkeypatch, ["oracle"], "since_last_replacement", 800,
        member_first_fit=700, first_fit_size=200, cache_cap=400,
    )
    assert created[0].fit_seqs() == list(range(300, 700))


def test_rejected_shadow_keeps_the_since_replacement_cache(monkeypatch):
    # Window 100 after a fit at seq 499: checks land at 599, 799, 999, 1099, ...
    # The check-1 shadow wins and swaps at 699; the check-2 shadow (constant)
    # loses to the oracle incumbent at 899; the check-30 shadow at seq 3699
    # must still train on every row since the swap.
    created, events, ensemble = run_spy_member(
        monkeypatch, ["constant0", "oracle", "constant0", "oracle"], "since_last_replacement", 3800,
        fire_at={1, 2, 30}, window_size=100,
    )
    assert [e.seq for e in events if isinstance(e, DriftEvent)] == [599, 799, 3699]
    assert [e.seq for e in events if isinstance(e, ReplacementEvent)] == [699]
    assert created[3].fit_seqs() == list(range(700, 3700))


def test_history_keeps_only_readable_rows(monkeypatch):
    # A last-window member with s = 100 and a score window of 200 reads at
    # most the last 200 rows, so the history compacts without growing.
    created, events, ensemble = run_spy_member(
        monkeypatch, ["oracle"], "last_window", 5000, fire_at=set(), window_size=100, score_window=200
    )
    history = ensemble.history
    assert history.end == 5000
    assert len(history.y) == 1024
    assert history.start > 5000 - 1024


def test_shadow_tie_keeps_incumbent(monkeypatch):
    # Both incumbent and shadow answer constant 0: identical records tie, and
    # a tie keeps the incumbent.
    created, events, ensemble = run_spy_member(
        monkeypatch, ["constant0", "constant0"], "since_last_replacement", 2700, fire_at={1}
    )
    member = ensemble.members[0]
    assert count_events(events) == (1, 0)
    assert member.incumbent.model is created[0]
    assert member.shadow is None  # comparison window resolved and cleared


def test_better_shadow_replaces_incumbent(monkeypatch):
    created, events, ensemble = run_spy_member(
        monkeypatch, ["constant0", "oracle"], "since_last_replacement", 2700, fire_at={1}
    )
    assert count_events(events) == (1, 1)
    assert ensemble.members[0].incumbent.model is created[1]


def test_verdicts_are_suppressed_while_shadow_pending(monkeypatch):
    created = install_spies(monkeypatch, ["constant0", "constant0", "constant0"])
    monkeypatch.setattr("driftstream.ensemble.check_windows", always_drift)
    strategy = perf_strategy(retrain_scope="since_last_replacement")
    config = EnsembleConfig(
        members=(batch_spec(strategy),), first_fit_size=500, shadow_eval_size=2500, seed=0
    )
    ensemble = HybridEnsemble(SCHEMA, config)
    events = []
    for inst in encoded_stream(5600):
        events.extend(ensemble.process_instance(inst).events)
    drift_seqs = [e.seq for e in events if isinstance(e, DriftEvent)]
    # Shadow from the seq-2499 verdict is under comparison until seq 4999, so
    # the due checks at 3499 and 4499 are ignored; the next verdict lands at 5499.
    assert drift_seqs == [2499, 5499]
    assert count_events(events) == (2, 0)


def test_counters_zero_for_online_and_train_once_members():
    b1 = DriftStrategy(
        id="B1", monitor_features=False, monitor_target=False, monitor_performance=False,
        threshold=0.0, window_size=100, perf_tolerance=0.2,
    )
    config = EnsembleConfig(
        members=(online_spec("gnb"), batch_spec(b1, algo="cart")),
        first_fit_size=200,
        seed=1,
    )
    ensemble = HybridEnsemble(SCHEMA, config)
    events = [e for inst in encoded_stream(1500) for e in ensemble.process_instance(inst).events]
    assert count_events(events) == (0, 0)


def test_replacements_never_exceed_drifts(monkeypatch):
    created, events, ensemble = run_spy_member(
        monkeypatch, ["constant0"] + ["oracle"] * 10, "last_window", 4000
    )
    drifts, replacements = count_events(events)
    assert 1 <= drifts
    assert replacements <= drifts


# ---------------------------------------------------------------------------
# the per-instance protocol


def test_single_member_reduces_to_standalone(schema2x3=None):
    means = np.array([[0.0, 0.0], [3.0, 3.0], [-3.0, 3.0]])
    schema = Schema(("f0", "f1"), (FeatureKind.NUMERIC,) * 2, ("a", "b", "c"))
    instances = gaussian_instances(means, 400, seed=31)
    for combiner in ("wv", "ds"):
        config = EnsembleConfig(members=(online_spec("gnb"),), combiner=combiner, seed=0)
        ensemble = HybridEnsemble(schema, config)
        standalone = OnlineGaussianNB(schema)
        for inst in instances:
            step = ensemble.process_instance(inst)
            expected = standalone.predict(inst.x)
            standalone.learn_one(inst.x, inst.y)
            assert step.final_label == expected
            assert step.final_label == step.member_labels[0]


def test_ds_final_prediction_is_always_some_members():
    config = EnsembleConfig(
        members=(online_spec("gnb"), online_spec("hoeffding"), online_spec("logreg")),
        combiner="ds",
        seed=3,
        score_window=50,
    )
    schema = Schema(("f0", "f1"), (FeatureKind.NUMERIC,) * 2, ("a", "b", "c"))
    ensemble = HybridEnsemble(schema, config)
    means = np.array([[0.0, 0.0], [3.0, 3.0], [-3.0, 3.0]])
    for inst in gaussian_instances(means, 500, seed=33):
        step = ensemble.process_instance(inst)
        best = int(np.argmax(step.weights))
        assert step.weights.tolist().count(1.0) == 1
        assert step.final_label == step.member_labels[best]


def test_weights_exclude_current_instance():
    # Two members; the first is wrong on every instance, the second right.
    # On the very first instance both windows are empty, so weights must be
    # uniform even though scoring this instance would already separate them.
    config = EnsembleConfig(
        members=(online_spec("gnb"), online_spec("hoeffding")), combiner="wv", seed=0
    )
    schema = Schema(("f0", "f1"), (FeatureKind.NUMERIC,) * 2, ("a", "b", "c"))
    ensemble = HybridEnsemble(schema, config)
    step = ensemble.process_instance(Instance(np.array([1.0, 1.0]), 2, 0))
    assert np.allclose(step.weights, [0.5, 0.5])


def test_label_mutation_cannot_change_the_same_steps_prediction():
    schema = Schema(("f0", "f1"), (FeatureKind.NUMERIC,) * 2, ("a", "b", "c"))
    means = np.array([[0.0, 0.0], [3.0, 3.0], [-3.0, 3.0]])
    instances = gaussian_instances(means, 300, seed=35)
    strategy = perf_strategy(window_size=60)
    config = EnsembleConfig(
        members=(online_spec("gnb"), batch_spec(strategy, algo="gnb")),
        combiner="wv",
        first_fit_size=40,
        shadow_eval_size=20,
        score_window=50,
        seed=7,
    )

    baseline = []
    ensemble = HybridEnsemble(schema, config)
    for inst in instances:
        baseline.append(ensemble.process_instance(inst).final_label)

    for checkpoint in (0, 40, 41, 150, 299):
        ensemble = HybridEnsemble(schema, config)
        for inst in instances[:checkpoint]:
            ensemble.process_instance(inst)
        target = instances[checkpoint]
        mutated = Instance(target.x, (target.y + 1) % 3, target.seq)
        step = ensemble.process_instance(mutated)
        assert step.final_label == baseline[checkpoint]


def test_instance_of_the_wrong_width_rejected():
    config = EnsembleConfig(members=(online_spec(),), seed=0)
    ensemble = HybridEnsemble(SCHEMA, config)
    with pytest.raises(SchemaError, match="instance 0 has 3 features"):
        ensemble.process_instance(Instance(np.array([0.0, 1.0, 2.0]), 0, 0))


def test_a_row_of_the_wrong_width_does_not_advance_the_stream():
    config = EnsembleConfig(members=(online_spec(),), seed=0)
    ensemble = HybridEnsemble(SCHEMA, config)
    rows = encoded_stream(2)
    ensemble.lookahead(rows)
    with pytest.raises(SchemaError, match="instance 0 has 3 features"):
        ensemble.process_instance(Instance(np.array([0.0, 1.0, 2.0]), 0, 0))  # not read ahead
    with pytest.raises(SchemaError, match="instance 1 has 1 features"):
        ensemble.lookahead([rows[0], Instance(np.array([0.0]), 0, 1)])
    assert [ensemble.process_instance(inst).seq for inst in rows] == [0, 1]


def test_out_of_order_instances_rejected():
    config = EnsembleConfig(members=(online_spec(),), seed=0)
    ensemble = HybridEnsemble(SCHEMA, config)
    ensemble.process_instance(encoded_stream(1)[0])
    with pytest.raises(ValueError):
        ensemble.process_instance(Instance(np.array([0.0, 0.0]), 0, 5))


def test_broken_member_falls_back_and_logs(caplog):
    config = EnsembleConfig(members=(online_spec("gnb"), online_spec("hoeffding")), seed=0)
    ensemble = HybridEnsemble(SCHEMA, config)

    class Broken:
        def predict(self, x):
            raise RuntimeError("boom")

        def learn_one(self, x, y):
            raise RuntimeError("boom")

    ensemble.members[0].model = Broken()
    with caplog.at_level(logging.WARNING):
        step = ensemble.process_instance(encoded_stream(1)[0])
    assert step.member_labels[0] == 0  # fallback, not a crash
    assert any("failed to predict" in r.message for r in caplog.records)
    assert any("failed to learn" in r.message for r in caplog.records)
    assert ensemble.failures == {
        "gnb": {"predict": 1, "shadow_predict": 0, "learn": 1},
        "hoeffding": {"predict": 0, "shadow_predict": 0, "learn": 0},
    }


# ---------------------------------------------------------------------------
# batch member failures: one logged warning each, and the fallback


class FailureCounter(logging.Handler):
    """Counts the warnings whose message contains "failed", as the benchmark does."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "failed" in record.getMessage():
            self.count += 1


class FlakySpy(SpyBatchModel):
    """An oracle spy whose ``fit`` and ``predict_labels`` raise on the given calls, counted from 1."""

    def __init__(self, fail_fits=(), fail_predicts=()):
        super().__init__(SCHEMA, "oracle")
        self.fail_fits = fail_fits
        self.fail_predicts = fail_predicts
        self.predict_calls = 0

    def fit(self, X, y):
        super().fit(X, y)
        if self.fail_fits == "always" or len(self.fits) in self.fail_fits:
            raise RuntimeError("fit failed on purpose")

    def predict_labels(self, X):
        self.predict_calls += 1
        if self.predict_calls in self.fail_predicts:
            raise RuntimeError("predict failed on purpose")
        return super().predict_labels(X)


def never_drift(pair, strategy, schema):
    return DriftVerdict(False)


def run_flaky_member(monkeypatch, models, check, n):
    """One batch member (warm-up 50, checks every 50 rows from row 100, shadows judged over 20)
    on ``n`` rows, each labelled on its own. Returns the steps, the member and the failure count."""
    models = list(models)
    monkeypatch.setitem(BATCH_LEARNERS, "cart", lambda schema, seed: models.pop(0) if models else FlakySpy())
    monkeypatch.setattr("driftstream.ensemble.check_windows", check)
    config = EnsembleConfig(
        members=(batch_spec(perf_strategy(window_size=50)),), first_fit_size=50, shadow_eval_size=20, seed=0
    )
    ensemble = HybridEnsemble(SCHEMA, config)
    failures = FailureCounter()
    logger = logging.getLogger("driftstream.ensemble")
    logger.addHandler(failures)
    try:
        steps = [ensemble.process_instance(inst) for inst in encoded_stream(n)]
    finally:
        logger.removeHandler(failures)
    return steps, ensemble.members[0], failures.count


def drift_events(steps):
    return [e for s in steps for e in s.events if isinstance(e, DriftEvent)]


def test_failed_incumbent_predict_answers_zero(monkeypatch):
    steps, member, failures = run_flaky_member(monkeypatch, [FlakySpy(fail_predicts={1})], never_drift, 60)
    labels = [s.member_labels[0] for s in steps]
    assert failures == 1
    assert member.failures == {"predict": 1, "shadow_predict": 0, "learn": 0}
    assert labels[50] == 0  # the oracle would answer 50 % 3 = 2
    assert labels[51:] == [seq % 3 for seq in range(51, 60)]


def test_failed_shadow_predict_records_zero(monkeypatch):
    models = [FlakySpy(), FlakySpy(fail_predicts={1})]
    steps, member, failures = run_flaky_member(monkeypatch, models, always_drift, 102)
    assert failures == 1
    assert member.failures == {"predict": 0, "shadow_predict": 1, "learn": 0}
    assert [e.seq for e in drift_events(steps)] == [99]
    assert member.shadow.labels == [0, 101 % 3]  # the oracle would answer 100 % 3 = 1 first


def test_failed_warm_up_fit_keeps_the_majority_answer(monkeypatch):
    steps, member, failures = run_flaky_member(monkeypatch, [FlakySpy(fail_fits={1})], never_drift, 99)
    assert failures == 1
    assert member.failures == {"predict": 0, "shadow_predict": 0, "learn": 1}
    assert not member.fitted
    assert [s.member_labels[0] for s in steps[50:]] == [0] * 49  # labels cycle 0, 1, 2: class 0 leads or ties


def test_a_forest_whose_forked_share_fails_is_one_learn_failure(monkeypatch):
    parent, search = os.getpid(), cart_module._search

    def search_in_parent_only(*args):
        if os.getpid() != parent:
            raise RuntimeError("forked share failed on purpose")
        return search(*args)

    monkeypatch.setattr(cart_module, "_search", search_in_parent_only)
    monkeypatch.setattr(cart_module, "_workers", lambda n_trees, n_rows: 2)
    forest = RandomForestClassifier(SCHEMA, n_trees=4)
    steps, member, failures = run_flaky_member(monkeypatch, [forest], never_drift, 99)
    assert failures == 1
    assert member.failures == {"predict": 0, "shadow_predict": 0, "learn": 1}
    assert not member.fitted
    assert [s.member_labels[0] for s in steps[50:]] == [0] * 49  # the cache majority, as for any failed fit
    with pytest.raises(ChildProcessError):  # no child left, running or a zombie
        os.waitpid(-1, os.WNOHANG)


def test_failed_shadow_fit_leaves_no_shadow_and_no_event(monkeypatch):
    models = [FlakySpy(), FlakySpy(fail_fits={1})]
    steps, member, failures = run_flaky_member(monkeypatch, models, always_drift, 149)
    assert failures == 1
    assert member.failures == {"predict": 0, "shadow_predict": 0, "learn": 1}
    assert member.shadow is None
    assert drift_events(steps) == []
    assert [s.member_labels[0] for s in steps[50:]] == [seq % 3 for seq in range(50, 149)]


def test_failed_drift_check_leaves_no_shadow_and_no_event(monkeypatch):
    def check(pair, strategy, schema, _calls=[]):
        _calls.append(True)
        if len(_calls) == 1:
            raise RuntimeError("check failed on purpose")
        return always_drift(pair, strategy, schema)

    steps, member, failures = run_flaky_member(monkeypatch, [FlakySpy()], check, 149)
    assert failures == 1
    assert member.failures == {"predict": 0, "shadow_predict": 0, "learn": 1}
    assert member.shadow is None
    assert drift_events(steps) == []


def test_warm_up_fit_is_retried_on_the_check_grid(monkeypatch):
    model = FlakySpy(fail_fits={1})
    steps, member, failures = run_flaky_member(monkeypatch, [model], never_drift, 110)
    assert failures == 1
    assert len(model.fits) == 2
    assert model.fit_seqs(1) == list(range(100))  # the retry at row 100 fits the whole cache
    labels = [s.member_labels[0] for s in steps]
    assert labels[:100] == [0] * 100  # the majority class until the retry
    assert labels[100:] == [seq % 3 for seq in range(100, 110)]


def test_a_fit_that_always_fails_is_tried_once_per_grid_point(monkeypatch):
    model = FlakySpy(fail_fits="always")
    steps, member, failures = run_flaky_member(monkeypatch, [model], never_drift, 260)
    assert len(model.fits) == failures == 5  # rows 50, 100, 150, 200 and 250
    assert [len(X) for X, _ in model.fits] == [50, 100, 150, 200, 250]


# ---------------------------------------------------------------------------
# read-ahead: the block size changes no step


def drifting_rows(seed, n, d, k):
    """``n`` rows of class-conditional Gaussians whose class-to-mean map permutes at a random row."""
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(k, d)) * 2
    y = rng.integers(0, k, n)
    moved = np.where(np.arange(n) < rng.integers(n // 4, 3 * n // 4), y, rng.permutation(k)[y])
    X = np.round(means[moved] + rng.normal(size=(n, d)), int(rng.integers(0, 4)))
    return [Instance(X[i], int(y[i]), i) for i in range(n)]


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    k=st.integers(2, 4),
    combiner=st.sampled_from([WEIGHTED_VOTE, DYNAMIC_SWITCH]),
    score_window=st.integers(1, 80),
    cache_cap=st.integers(40, 150),
    window=st.integers(10, 60),
    extra_rows=st.integers(0, 300),
)
def test_read_ahead_block_size_does_not_change_any_step(seed, d, k, combiner, score_window, cache_cap, window,
                                                         extra_rows):
    # Over 1024 rows, so the history compacts; score window and caches are small enough to reach back across it.
    schema = Schema(tuple(f"f{i}" for i in range(d)), (FeatureKind.NUMERIC,) * d, tuple(f"c{i}" for i in range(k)))
    catalog = strategy_catalog()
    members = (
        batch_spec(replace(catalog["S4"], window_size=window), "gnb"),
        batch_spec(replace(catalog["S5"], window_size=window), "cart"),
        batch_spec(replace(catalog["S7"], window_size=2 * window), "gnb", id="gnb-S7"),
        online_spec("gnb"),
        online_spec("hoeffding"),
        online_spec("logreg"),
    )
    config = EnsembleConfig(
        members=members, combiner=combiner, first_fit_size=min(cache_cap, 2 * window),
        shadow_eval_size=window // 2 + 1, score_window=score_window, cache_cap=cache_cap, seed=seed % 1000,
    )
    instances = drifting_rows(seed, 1030 + extra_rows, d, k)
    runs = []
    for block_size in (1, 7, 256):
        ensemble = HybridEnsemble(schema, config)
        steps = []
        for start in range(0, len(instances), block_size):
            block = instances[start:start + block_size]
            ensemble.lookahead(block)
            steps += [ensemble.process_instance(inst) for inst in block]
        assert ensemble.history.start > 0  # compacted
        # A member failure answers class 0 on every block size alike; the runs must have none to hide behind.
        assert all(count == 0 for phases in ensemble.failures.values() for count in phases.values())
        runs.append([
            (s.seq, s.y_true, s.final_label, s.member_labels, [w.hex() for w in s.weights.tolist()], s.events)
            for s in steps
        ])
    assert runs[0] == runs[1] == runs[2]
