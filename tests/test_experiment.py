import csv
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftstream.core import ConfigError, FeatureKind, Instance, Schema
from driftstream.drift import LAST_WINDOW, SINCE_LAST_REPLACEMENT
from driftstream.ensemble import EnsembleConfig, HybridEnsemble, MemberSpec
from driftstream.evaluation import f1_from_pairs
from driftstream.experiment import (
    build_member_specs,
    load_json,
    parse_config,
    resolve_strategy,
    run_experiment,
    run_stream,
)
from driftstream.ingest import synthetic_instances, write_stream


def test_resolve_strategy_from_catalog_id():
    s3 = resolve_strategy("S3")
    assert (s3.id, s3.threshold, s3.window_size) == ("S3", 0.02, 5000)


def test_resolve_strategy_unknown_id():
    with pytest.raises(ConfigError, match="S99"):
        resolve_strategy("S99")


def test_resolve_strategy_catalog_override_with_aliases():
    # The OPT-style overrides: shrink the window, keep everything else.
    s = resolve_strategy({"id": "S4", "s": 100, "theta": 0.05, "alpha": 0.3})
    assert s.window_size == 100
    assert s.threshold == 0.05
    assert s.perf_tolerance == 0.3
    assert s.monitor_features  # inherited from S4
    assert s.retrain_scope == SINCE_LAST_REPLACEMENT


def test_resolve_strategy_full_custom():
    s = resolve_strategy(
        {
            "id": "mine",
            "monitor_features": False,
            "monitor_target": False,
            "monitor_performance": True,
            "threshold": 0.0,
            "window_size": 750,
            "perf_tolerance": 0.25,
            "retrain_scope": "last_window",
        }
    )
    assert s.id == "mine"
    assert s.retrain_scope == LAST_WINDOW


def test_resolve_strategy_rejects_unknown_fields_and_incomplete_customs():
    with pytest.raises(ConfigError, match="unknown strategy field"):
        resolve_strategy({"id": "S4", "bogus": 1})
    with pytest.raises(ConfigError, match="incomplete strategy"):
        resolve_strategy({"id": "mine", "window_size": 500})
    with pytest.raises(ConfigError, match="'id'"):
        resolve_strategy({"window_size": 500})


def test_ensemble_defaults_to_seven_members():
    specs = build_member_specs({"type": "ensemble", "batch_algorithm": "rf", "combiner": "ds"})
    assert [s.id for s in specs] == [
        "rf-S4", "rf-S5", "rf-S6", "rf-S7", "gnb", "hoeffding", "logreg",
    ]
    assert all(s.kind == "batch" for s in specs[:4])
    assert all(s.kind == "online" for s in specs[4:])


def test_ensemble_batch_only_and_online_only_variants():
    batch_only = build_member_specs(
        {"type": "ensemble", "batch_algorithm": "cart", "strategies": ["S4", "S5"], "online_members": []}
    )
    assert [s.kind for s in batch_only] == ["batch", "batch"]
    online_only = build_member_specs({"type": "ensemble", "strategies": [], "online_members": ["gnb"]})
    assert [s.kind for s in online_only] == ["online"]
    with pytest.raises(ConfigError, match="no members"):
        build_member_specs({"type": "ensemble", "strategies": [], "online_members": []})


def test_method_id_derivation():
    def method_id(method):
        return parse_config({"stream": {"path": "x"}, "method": method}).method_id

    assert method_id({"type": "online", "algorithm": "gnb"}) == "GNB"
    assert method_id({"type": "online", "algorithm": "hoeffding"}) == "HT"
    assert method_id({"type": "online", "algorithm": "logreg"}) == "OLR"
    assert method_id({"type": "batch", "algorithm": "rf", "strategy": "S3"}) == "RF-S3"
    assert method_id({"type": "ensemble", "batch_algorithm": "rf", "combiner": "ds"}) == "DS-RF"
    assert (
        method_id({"type": "ensemble", "batch_algorithm": "rf", "combiner": "wv", "online_members": []})
        == "WV-BATCH"
    )
    assert method_id({"type": "ensemble", "strategies": [], "combiner": "ds"}) == "DS-ONLINE"


def _benchmark_script():
    path = Path(__file__).parents[1] / "scripts" / "run_drift_benchmark.py"
    spec = importlib.util.spec_from_file_location("run_drift_benchmark", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("quick", [True, False])
def test_benchmark_script_configs_parse_to_their_method_ids(quick):
    # The script names each run by its key; the derived id must agree.
    for method_id, spec in _benchmark_script().method_specs(quick).items():
        config = parse_config({"stream": {"path": "x.dsv"}, "seed": 42, **spec})
        assert config.method_id == method_id


def test_benchmark_script_quick_run_ranks_all_six_methods(tmp_path, monkeypatch):
    script = _benchmark_script()
    monkeypatch.setattr(sys, "argv", ["run_drift_benchmark.py", "--quick", "--out", str(tmp_path)])
    script.main()
    with (tmp_path / "ranking.csv").open() as fh:
        methods = [row["method"] for row in csv.DictReader(fh)]
    assert sorted(methods) == sorted(script.method_specs(True))


def test_parse_config_leaves_unset_options_at_the_ensemble_defaults():
    config = parse_config({"stream": {"path": "x"}, "method": {"type": "online", "algorithm": "gnb"}})
    assert isinstance(config, EnsembleConfig)
    options = (config.combiner, config.seed, config.first_fit_size, config.shadow_eval_size, config.score_window)
    assert options == ("wv", 0, 2500, 500, 500)
    assert (config.cache_cap, config.shadow_metric, config.trace_every) == (200_000, "f1_macro", 1000)


def test_explicit_method_id_wins():
    config = parse_config(
        {"stream": {"path": "x"}, "method": {"type": "online", "algorithm": "gnb"}, "method_id": "mine"}
    )
    assert config.method_id == "mine"


def test_config_digest_is_deterministic_and_content_sensitive():
    data = {"stream": {"path": "x"}, "method": {"type": "online", "algorithm": "gnb"}, "seed": 1}
    a = parse_config(json.loads(json.dumps(data)))
    b = parse_config(json.loads(json.dumps(data)))
    assert a.digest() == b.digest()
    data["seed"] = 2
    assert parse_config(data).digest() != a.digest()


def test_parse_config_validation():
    with pytest.raises(ConfigError):
        parse_config({"method": {"type": "online", "algorithm": "gnb"}})
    with pytest.raises(ConfigError):
        parse_config({"stream": {}, "method": {"type": "online", "algorithm": "gnb"}})
    with pytest.raises(ConfigError):
        parse_config({"stream": {"path": "x"}, "method": {"type": "nope"}})


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_json(tmp_path / "nope.json")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_json(path)


def test_load_config_not_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="expected a JSON object, got list"):
        load_json(path)


def test_shadow_metric_accuracy_mode():
    # Accuracy-based shadow comparison is selectable; the run still works.
    schema = Schema(("f0",), (FeatureKind.NUMERIC,), ("a", "b"))
    strategy = resolve_strategy(
        {
            "id": "SP",
            "monitor_features": False,
            "monitor_target": False,
            "monitor_performance": True,
            "threshold": 0.0,
            "window_size": 100,
            "perf_tolerance": 0.2,
            "retrain_scope": "last_window",
        }
    )
    members = (MemberSpec(id="gnb-SP", kind="batch", algorithm="gnb", strategy=strategy),)
    config = EnsembleConfig(
        members=members, first_fit_size=50, shadow_eval_size=20, score_window=50,
        seed=0, shadow_metric="accuracy",
    )
    rng = np.random.default_rng(0)
    instances = []
    for seq in range(800):
        flip = seq >= 400  # mean swap mid-stream forces a performance drop
        y = int(rng.integers(2))
        mean = (-2.0 if y == 0 else 2.0) * (-1.0 if flip else 1.0)
        instances.append(Instance(np.array([mean + rng.normal()]), y, seq))
    result = run_stream(HybridEnsemble(schema, config), instances, trace_every=100)
    assert result.drift_count >= 1
    assert result.replacement_count >= 1


@pytest.mark.parametrize("trace_every", [1, 7])
def test_each_trace_row_scores_the_rows_since_the_previous_one(trace_every):
    raw = {
        "stream": {"synthetic": {"n_instances": 100, "n_features": 3, "n_classes": 3, "drift_points": [50]}},
        "method": {"type": "ensemble", "batch_algorithm": "gnb", "strategies": [{"id": "S4", "s": 20}]},
        "first_fit_size": 30, "shadow_eval_size": 10, "score_window": 20,
    }
    config = parse_config(raw)
    schema, instances = synthetic_instances(config.synth)
    instances = list(instances)
    result = run_stream(HybridEnsemble(schema, config), instances, trace_every=trace_every)
    twin = HybridEnsemble(schema, config)
    truth = [inst.y for inst in instances]
    labels = [twin.process_instance(inst).final_label for inst in instances]

    def f1(lo, hi):
        return f1_from_pairs(truth[lo:hi], labels[lo:hi], 3).hex()

    expected = [(n, f1(n - trace_every, n), f1(0, n)) for n in range(trace_every, 101, trace_every)]
    assert [(n, w.hex(), c.hex()) for n, w, c in result.trace] == expected
    assert result.final_f1.hex() == f1(0, 100)


# ---------------------------------------------------------------------------
# arbitrary finite streams: no member failure


SMALL_WINDOWS = {
    "strategies": [{"id": "S4", "s": 40}, {"id": "S5", "s": 40}, {"id": "S6", "s": 60}, {"id": "S7", "s": 60}],
}
SMALL_OPTIONS = {"first_fit_size": 50, "shadow_eval_size": 20, "score_window": 40, "cache_cap": 120, "trace_every": 50}
FAILURE_CONFIGS = {
    "wv-rf": {"type": "ensemble", "batch_algorithm": "rf", "batch_params": {"n_trees": 3}, "combiner": "wv"},
    "ds-gnb": {"type": "ensemble", "batch_algorithm": "gnb", "combiner": "ds"},
}


@st.composite
def finite_streams(draw):
    """(rows x features, labels): any finite float64 feature values, subnormals and +-1.7e308 included; 3 classes."""
    n = draw(st.integers(110, 240))  # past the Hoeffding tree's first split attempt at row 100
    d = draw(st.integers(1, 3))
    X = draw(arrays(np.float64, (n, d), elements=st.floats(allow_nan=False, allow_infinity=False)))
    y = draw(arrays(np.int64, n, elements=st.integers(0, 2)))
    return X, y


@settings(max_examples=30, deadline=None)
@example(stream=(np.array([[1e300 * (1 + i % 3), float(i % 7)] for i in range(150)]), np.arange(150) % 3))
@example(stream=(np.array([[(-1.0) ** i * np.finfo(float).max, 5e-324 * i] for i in range(130)]), np.arange(130) % 3))
@given(stream=finite_streams())
def test_arbitrary_finite_streams_leave_every_failure_count_at_zero(stream):
    X, y = stream
    schema = Schema(tuple(f"f{i}" for i in range(X.shape[1])), (FeatureKind.NUMERIC,) * X.shape[1], ("a", "b", "c"))
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        path = write_stream(Path(tmp) / "stream.csv", schema, X, y.tolist())
        for name, method in FAILURE_CONFIGS.items():
            raw = {"stream": {"path": str(path)}, "method": {**method, **SMALL_WINDOWS}, **SMALL_OPTIONS}
            run_experiment(parse_config(raw), Path(tmp) / name)
            failures = json.loads((Path(tmp) / name / "timing.json").read_text())["failures"]
            assert len(failures) == 7, name
            assert {member: phases for member, phases in failures.items() if any(phases.values())} == {}, name
