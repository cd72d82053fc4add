"""Read-ahead blocks: frozen models label a block in one call, with identical steps.

The stream is the golden runs' (3000 rows, an abrupt drift). The ``wv-rf`` run
has five-tree forests under S4-S7 plus three online members, the ``ds-gnb``
run batch Gaussian NB under the same strategies; both have drifts, shadows and
replacements.
"""

from __future__ import annotations

import functools
import logging

import numpy as np
import pytest

from driftstream.core import BatchClassifier, Instance
from driftstream.ensemble import DriftEvent, HybridEnsemble, ReplacementEvent
from driftstream.experiment import parse_config
from driftstream.ingest import synthetic_instances
from driftstream.learners import BATCH_LEARNERS, BatchGaussianNB, RandomForestClassifier

from test_golden import run_config


@functools.cache
def golden_stream(run):
    config = parse_config(run_config(run))
    schema, instances = synthetic_instances(config.synth)
    return config, schema, list(instances)


@functools.cache
def golden_steps(run):
    return drive(*golden_stream(run))


@pytest.fixture(scope="module")
def golden():
    return golden_stream("wv-rf")


def drive(config, schema, instances, block_size=None, until=None):
    """The StepResults of a run up to seq ``until``; ``block_size`` None processes rows without read-ahead."""
    ensemble = HybridEnsemble(schema, config)
    steps = []
    size = block_size or 1
    for start in range(0, len(instances), size):
        block = instances[start:start + size]
        if block_size is not None:
            ensemble.lookahead(block)
        if until is not None:
            for later in block:  # read ahead: only the features may have been read
                if later.seq > until:
                    later.y = (later.y + 1) % schema.n_classes
        for inst in block:
            if until is not None and inst.seq > until:
                return steps
            steps.append(ensemble.process_instance(inst))
    return steps


def assert_same_steps(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.seq, x.y_true, x.final_label, x.member_labels) == (y.seq, y.y_true, y.final_label, y.member_labels)
        assert np.array_equal(x.weights, y.weights)
        assert x.events == y.events


@pytest.fixture(scope="module")
def per_instance():
    return golden_steps("wv-rf")


def test_golden_stream_has_drifts_shadows_and_replacements(per_instance):
    events = [e for s in per_instance for e in s.events]
    assert sum(isinstance(e, ReplacementEvent) for e in events) >= 3
    assert len(events) > sum(isinstance(e, ReplacementEvent) for e in events)


def assert_block_size_does_not_change_any_step(run, model_class, block_size, monkeypatch):
    calls = []
    original = model_class.predict_labels

    def counted(model, X):
        calls.append(len(X))
        return original(model, X)

    monkeypatch.setattr(model_class, "predict_labels", counted)
    per_instance = golden_steps(run)
    assert_same_steps(drive(*golden_stream(run), block_size=block_size), per_instance)
    if block_size > 1:
        assert max(calls) > 1 and len(calls) < sum(calls) / 4  # labelled a block per call
    if block_size == 3000:
        # One call per model: each member's first fit, each shadow over its
        # comparison window if that ends within the stream, and each promoted
        # shadow over its first block as the incumbent.
        events = [e for s in per_instance for e in s.events]
        window = golden_stream(run)[0].shadow_eval_size
        judged = sum(isinstance(e, DriftEvent) and e.seq + window < len(per_instance) for e in events)
        assert len(calls) == 4 + judged + sum(isinstance(e, ReplacementEvent) for e in events)


BLOCK_SIZES = [1, 7, 256, 3000]


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_block_size_does_not_change_any_step(block_size, monkeypatch):
    assert_block_size_does_not_change_any_step("wv-rf", RandomForestClassifier, block_size, monkeypatch)


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_block_size_does_not_change_any_gnb_step(block_size, monkeypatch):
    assert_block_size_does_not_change_any_step("ds-gnb", BatchGaussianNB, block_size, monkeypatch)


def test_labels_of_read_ahead_rows_are_not_read_before_their_step(golden, per_instance):
    config, schema, _ = golden
    events = sorted({e.seq for s in per_instance for e in s.events})
    for t in (100, 256, 299, 300, events[0] + 1, events[len(events) // 2], events[-1]):
        # Fresh copies, so the golden instances stay untouched; every row of
        # a block after seq t gets another label once the block is read ahead.
        copies = [Instance(inst.x, inst.y, inst.seq) for inst in golden[2]]
        steps = drive(config, schema, copies, 256, until=t)
        assert copies[t + 1].y != golden[2][t + 1].y
        assert_same_steps(steps[t:], per_instance[t:t + 1])


class _FailingBlocks(BatchClassifier):
    """Predicts class 1, but a block of more than one row raises."""

    def fit(self, X, y):
        pass

    def predict(self, x):
        return 1

    def predict_labels(self, X):
        if len(X) > 1:
            raise RuntimeError("block failed")
        return super().predict_labels(X)


def test_failed_block_predict_answers_zero_and_fills_no_cache(golden, monkeypatch, caplog):
    config, schema, instances = golden
    monkeypatch.setitem(BATCH_LEARNERS, "rf", lambda schema, seed, **params: _FailingBlocks(schema))
    ensemble = HybridEnsemble(schema, config)
    n = config.first_fit_size
    ensemble.lookahead(instances[:n + 5])
    with caplog.at_level(logging.WARNING):
        steps = [ensemble.process_instance(inst) for inst in instances[:n + 5]]
    assert [s.member_labels[0] for s in steps[n:]] == [0] * 4 + [1]  # the last row's block is one row
    assert sum("failed to predict" in r.message for r in caplog.records) == 4 * 4  # four batch members
