import json
import logging
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.cli import main
from driftstream.ingest import replay
from driftstream.learners import ONLINE_LEARNERS


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def raw_csv(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("color,v,target\nred,1,x\nblue,2,y\nred,3,x\nblue,4,y\n")
    return path


@pytest.fixture
def synth_config(tmp_path):
    return write_json(
        tmp_path / "synth.json",
        {"n_instances": 3000, "n_features": 3, "n_classes": 3, "drift_points": [1500], "seed": 5},
    )


def experiment_config(tmp_path, stream_path, method, name="exp", **extra):
    data = {
        "stream": {"path": str(stream_path)},
        "method": method,
        "seed": 9,
        "first_fit_size": 300,
        "shadow_eval_size": 100,
        "score_window": 200,
        **extra,
    }
    return write_json(tmp_path / f"{name}.json", data)


def test_preprocess_happy_path(tmp_path, raw_csv, capsys):
    config = write_json(tmp_path / "ing.json", {"input": str(raw_csv), "target_column": "target", "categorical_columns": ["color"]})
    out = tmp_path / "stream.dsv"
    assert main(["preprocess", "--config", config, "--out", str(out)]) == 0
    assert out.exists()
    printed = capsys.readouterr().out
    assert "4 instances" in printed and "3 features" in printed and "2 classes" in printed


def test_preprocess_refuses_overwrite_without_force(tmp_path, raw_csv):
    config = write_json(
        tmp_path / "ing.json",
        {"input": str(raw_csv), "target_column": "target", "categorical_columns": ["color"]},
    )
    out = tmp_path / "stream.dsv"
    assert main(["preprocess", "--config", config, "--out", str(out)]) == 0
    assert main(["preprocess", "--config", config, "--out", str(out)]) == 1
    assert main(["preprocess", "--config", config, "--out", str(out), "--force"]) == 0


def test_preprocess_missing_target_column_exits_1(tmp_path, raw_csv, capsys):
    config = write_json(tmp_path / "ing.json", {"input": str(raw_csv), "target_column": "nope"})
    assert main(["preprocess", "--config", config, "--out", str(tmp_path / "s.dsv")]) == 1
    assert "nope" in capsys.readouterr().err


def test_generate_and_run_baseline_has_zero_counters(tmp_path, synth_config):
    stream = tmp_path / "s.dsv"
    assert main(["generate", "--config", synth_config, "--out", str(stream), "--quiet"]) == 0
    config = experiment_config(
        tmp_path, stream, {"type": "batch", "algorithm": "cart", "strategy": "B1"}, name="b1"
    )
    out_dir = tmp_path / "run-b1"
    assert main(["run", "--config", config, "--out", str(out_dir), "--quiet"]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["drift_count"] == 0
    assert report["replacement_count"] == 0
    assert report["method_id"] == "CART-B1"
    assert (out_dir / "trace.csv").exists()
    assert (out_dir / "events.csv").exists()


class ZeroStub:
    """An online learner that answers class 0; when ``fails``, its predict and learn raise instead,
    and the ensemble's fallback answers class 0 all the same."""

    def __init__(self, schema, fails):
        self.fails = fails

    def predict(self, x):
        if self.fails:
            raise RuntimeError("predict failed on purpose")
        return 0

    def learn_one(self, x, y):
        if self.fails:
            raise RuntimeError("learn failed on purpose")


def test_run_counts_swallowed_failures_in_timing_json_and_warns(tmp_path, synth_config, monkeypatch, capsys):
    # Keep the package's records from the test runner's root handlers, as in a
    # `driftstream run` process that configures no logging.
    monkeypatch.setattr(logging.getLogger("driftstream"), "propagate", False)
    stream = tmp_path / "s.dsv"
    assert main(["generate", "--config", synth_config, "--out", str(stream), "--quiet"]) == 0
    method = {"type": "ensemble", "strategies": [], "online_members": ["gnb", "zero"]}
    config = experiment_config(tmp_path, stream, method, trace_every=500)
    for fails in (False, True):
        monkeypatch.setitem(ONLINE_LEARNERS, "zero", lambda schema, fails=fails: ZeroStub(schema, fails))
        capsys.readouterr()
        assert main(["run", "--config", config, "--out", str(tmp_path / f"fails-{fails}"), "--quiet"]) == 0
        warned = capsys.readouterr().err
        assert ("warning: swallowed member failures: zero predict x3000, zero learn x3000" in warned) == fails
        assert ("warning" in warned) == fails
        assert "Traceback" not in warned
    for artifact in ("report.json", "trace.csv", "events.csv"):
        assert (tmp_path / "fails-True" / artifact).read_bytes() == (tmp_path / "fails-False" / artifact).read_bytes()
    zero = {"predict": 0, "shadow_predict": 0, "learn": 0}
    for fails, counts in ((False, zero), (True, {**zero, "predict": 3000, "learn": 3000})):
        timing = json.loads((tmp_path / f"fails-{fails}" / "timing.json").read_text())
        assert timing["failures"] == {"gnb": zero, "zero": counts}


def test_run_adaptive_ensemble_detects_drift(tmp_path, synth_config):
    stream = tmp_path / "s.dsv"
    assert main(["generate", "--config", synth_config, "--out", str(stream), "--quiet"]) == 0
    method = {
        "type": "ensemble",
        "batch_algorithm": "cart",
        "strategies": [
            {
                "id": "SA",
                "monitor_features": True,
                "monitor_target": True,
                "monitor_performance": True,
                "theta": 0.02,
                "s": 500,
                "alpha": 0.2,
                "retrain_scope": "last_window",
            }
        ],
        "online_members": ["gnb"],
        "combiner": "ds",
    }
    config = experiment_config(tmp_path, stream, method, name="ds")
    out_dir = tmp_path / "run-ds"
    assert main(["run", "--config", config, "--out", str(out_dir), "--quiet"]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["method_id"] == "DS-CART"
    assert report["drift_count"] >= 1
    events = (out_dir / "events.csv").read_text().splitlines()
    assert events[0] == "seq,member,event,source,score"
    drift_rows = [line for line in events[1:] if line.split(",")[2] == "drift"]
    replace_rows = [line for line in events[1:] if line.split(",")[2] == "replace"]
    assert len(drift_rows) == report["drift_count"]
    assert len(replace_rows) == report["replacement_count"]


def test_run_same_seed_is_byte_identical(tmp_path, synth_config):
    stream = tmp_path / "s.dsv"
    assert main(["generate", "--config", synth_config, "--out", str(stream), "--quiet"]) == 0
    config = experiment_config(
        tmp_path, stream, {"type": "online", "algorithm": "gnb"}, name="gnb"
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", config, "--out", str(out_a), "--quiet"]) == 0
    assert main(["run", "--config", config, "--out", str(out_b), "--quiet"]) == 0
    for name in ("report.json", "trace.csv", "events.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_never_mutates_the_input_stream(tmp_path, synth_config):
    stream = tmp_path / "s.dsv"
    assert main(["generate", "--config", synth_config, "--out", str(stream), "--quiet"]) == 0
    before = stream.read_bytes()
    config = experiment_config(tmp_path, stream, {"type": "online", "algorithm": "gnb"}, name="gnb")
    assert main(["run", "--config", config, "--out", str(tmp_path / "r"), "--quiet"]) == 0
    assert stream.read_bytes() == before


def test_run_seed_flag_overrides_config(tmp_path, synth_config):
    stream = tmp_path / "s.dsv"
    assert main(["generate", "--config", synth_config, "--out", str(stream), "--quiet"]) == 0
    config = experiment_config(tmp_path, stream, {"type": "online", "algorithm": "gnb"}, name="gnb")
    out_dir = tmp_path / "seeded"
    assert main(["run", "--config", config, "--out", str(out_dir), "--seed", "77", "--quiet"]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["seed"] == 77


def test_run_bad_config_exits_1(tmp_path):
    config = write_json(tmp_path / "bad.json", {"method": {"type": "online", "algorithm": "gnb"}})
    assert main(["run", "--config", config, "--out", str(tmp_path / "r")]) == 1
    config2 = write_json(
        tmp_path / "bad2.json",
        {"stream": {"path": "x"}, "method": {"type": "batch", "algorithm": "rf", "strategy": "S99"}},
    )
    assert main(["run", "--config", config2, "--out", str(tmp_path / "r2")]) == 1


SYNTHETIC = {"n_instances": 100, "n_features": 2, "n_classes": 2}
RF_S4 = {"type": "batch", "algorithm": "rf", "strategy": "S4"}
CART_S4 = {"type": "batch", "algorithm": "cart", "strategy": "S4"}
HT = {"type": "online", "algorithm": "hoeffding"}
OLR = {"type": "online", "algorithm": "logreg"}


@pytest.mark.parametrize(
    "config",
    [
        {"stream": {"synthetic": {**SYNTHETIC, "n_instance": 100}}, "method": {"type": "online", "algorithm": "gnb"}},
        {"stream": {"synthetic": SYNTHETIC}, "method": {"type": "online", "algorithm": "gnb"}, "seed": "abc"},
    ],
    ids=["unknown-synthetic-key", "non-integer-seed"],
)
def test_run_malformed_config_exits_1(tmp_path, config, capsys):
    path = write_json(tmp_path / "bad.json", config)
    assert main(["run", "--config", path, "--out", str(tmp_path / "r")]) == 1
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "method, extra, named",
    [
        ({"type": "batch", "algorithm": "rf", "strategy": "S4", "params": {"n_tres": 5}}, {}, "'rf'"),
        ({"type": "online", "algorithm": "hoeffding", "params": {"grace": 1}}, {}, "'hoeffding'"),
        ({"type": "online", "algorithm": "gnb", "params": {"var_smoothing": 1e-9}}, {}, "'gnb'"),
        ({"type": "batch", "algorithm": "cart", "strategy": "S2"}, {"shadow_metric": "acuracy"}, "'acuracy'"),
        ({**RF_S4, "params": {"n_trees": 0}}, {}, "n_trees"),
        ({**RF_S4, "params": {"n_trees": True}}, {}, "n_trees"),
        ({**RF_S4, "params": {"max_features": "log2"}}, {}, "max_features"),
        ({**RF_S4, "params": {"max_features": 0}}, {}, "max_features"),
        ({**RF_S4, "params": {"bootstrap": "no"}}, {}, "bootstrap"),
        ({**CART_S4, "params": {"min_samples_split": 0}}, {}, "min_samples_split"),
        ({**CART_S4, "params": {"min_samples_split": 2.0}}, {}, "min_samples_split"),
        ({**CART_S4, "params": {"max_features": "sqrt"}}, {}, "max_features"),
        ({**HT, "params": {"grace_period": 0}}, {}, "grace_period"),
        ({**HT, "params": {"grace_period": 1.5}}, {}, "grace_period"),
        ({**HT, "params": {"delta": 0}}, {}, "delta"),
        ({**HT, "params": {"delta": 1}}, {}, "delta"),
        ({**HT, "params": {"nb_threshold": "x"}}, {}, "nb_threshold"),
        ({**HT, "params": {"nb_threshold": -1}}, {}, "nb_threshold"),
        ({**HT, "params": {"tie_threshold": float("inf")}}, {}, "tie_threshold"),
        ({**HT, "params": {"n_candidates": 0}}, {}, "n_candidates"),
        ({**OLR, "params": {"learning_rate": float("nan")}}, {}, "learning_rate"),
        ({**OLR, "params": {"l2": "strong"}}, {}, "l2"),
    ],
    ids=[
        "unknown-rf-param",
        "unknown-hoeffding-param",
        "unknown-gnb-param",
        "shadow-metric-typo",
        "rf-zero-trees",
        "rf-boolean-trees",
        "rf-log2-features",
        "rf-zero-features",
        "rf-string-bootstrap",
        "cart-zero-min-split",
        "cart-float-min-split",
        "cart-sqrt-features",
        "ht-zero-grace-period",
        "ht-float-grace-period",
        "ht-zero-delta",
        "ht-unit-delta",
        "ht-string-nb-threshold",
        "ht-negative-nb-threshold",
        "ht-infinite-tie-threshold",
        "ht-zero-candidates",
        "olr-nan-learning-rate",
        "olr-string-l2",
    ],
)
def test_run_invalid_method_options_exit_1_before_the_stream(tmp_path, synth_config, method, extra, named, capsys):
    stream = tmp_path / "s.dsv"
    assert main(["generate", "--config", synth_config, "--out", str(stream), "--quiet"]) == 0
    config = experiment_config(tmp_path, stream, method, **extra)
    out_dir = tmp_path / "r"
    assert main(["run", "--config", config, "--out", str(out_dir), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert named in err and "internal error" not in err
    assert not out_dir.exists()


WV_RF = {"type": "ensemble", "batch_algorithm": "rf"}


@pytest.mark.parametrize(
    "config, named",
    [
        ({"strategis": []}, "'strategis'"),
        ({"method": {**WV_RF, "bach_params": {"n_trees": 3}}}, "'bach_params'"),
        ({"method": {**HT, "strategies": ["S4"]}}, "'strategies'"),  # an ensemble's key
        ({"stream": {"path": "missing.dsv", "synthtic": SYNTHETIC}}, "'synthtic'"),
        ({"stream": {"path": "missing.dsv", "synthetic": SYNTHETIC}}, "'synthetic'"),
        ({"method": {**RF_S4, "strategy": {"id": "S4", "s": 100, "window_size": 200}}}, "'window_size'"),
        ({"method": {**RF_S4, "strategy": {"id": "S4", "window_size": 200, "s": 100}}}, "'window_size'"),
    ],
    ids=["top-level", "ensemble-method", "online-method", "stream", "path-and-synthetic", "alias-first", "name-first"],
)
def test_run_refuses_unknown_and_doubled_config_keys_before_the_stream(tmp_path, config, named, capsys):
    # The stream file does not exist: a key that is not refused gets as far as opening it (exit 2).
    data = {"stream": {"path": str(tmp_path / "missing.dsv")}, "method": WV_RF, **config}
    path = write_json(tmp_path / "run.json", data)
    out_dir = tmp_path / "r"
    assert main(["run", "--config", path, "--out", str(out_dir), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert named in err and "internal error" not in err
    assert not out_dir.exists()


def test_run_non_finite_stream_value_exits_2(tmp_path, synth_config, capsys):
    stream = tmp_path / "s.dsv"
    assert main(["generate", "--config", synth_config, "--out", str(stream), "--quiet"]) == 0
    lines = stream.read_text().splitlines()
    lines[500] = "nan," + lines[500].split(",", 1)[1]
    stream.write_text("\n".join(lines) + "\n")
    config = experiment_config(tmp_path, stream, {"type": "online", "algorithm": "gnb"})
    assert main(["run", "--config", config, "--out", str(tmp_path / "r"), "--quiet"]) == 2
    assert "row 501" in capsys.readouterr().err


@pytest.mark.parametrize("separation", [float("nan"), float("inf"), 1e308])
def test_non_finite_synthetic_stream_exits_1_before_the_stream(tmp_path, separation, capsys):
    # json writes nan and inf as the NaN and Infinity literals that json reads back.
    synth = {**SYNTHETIC, "class_separation": separation}
    path = write_json(tmp_path / "synth.json", synth)
    out = tmp_path / "s.dsv"
    assert main(["generate", "--config", path, "--out", str(out)]) == 1
    assert not out.exists()
    config = write_json(tmp_path / "run.json", {"stream": {"synthetic": synth}, "method": {"type": "online", "algorithm": "gnb"}})
    out_dir = tmp_path / "r"
    assert main(["run", "--config", config, "--out", str(out_dir), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "class_separation" in err and "internal error" not in err
    assert not out_dir.exists()


GRADUAL = {**SYNTHETIC, "drift_points": [50], "drift_kind": "gradual", "gradual_width": 5}


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", -1),
        ("seed", True),
        ("n_instances", 50.5),
        ("n_features", 2.5),
        ("n_classes", 2.5),
        ("drift_points", [10.5]),
        ("gradual_width", 2.5),
    ],
)
def test_synthetic_stream_with_a_bad_integer_exits_1_before_any_row(tmp_path, field, value, capsys):
    synth = {**GRADUAL, field: value}
    path = write_json(tmp_path / "synth.json", synth)
    out = tmp_path / "s.dsv"
    assert main(["generate", "--config", path, "--out", str(out)]) == 1
    assert not out.exists()
    config = write_json(tmp_path / "run.json", {"stream": {"synthetic": synth}, "method": {"type": "online", "algorithm": "gnb"}})
    out_dir = tmp_path / "r"
    assert main(["run", "--config", config, "--out", str(out_dir), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.count(field) == 2 and "internal error" not in err
    assert not out_dir.exists()


def test_generate_with_a_negative_seed_flag_exits_1(tmp_path, capsys):
    path = write_json(tmp_path / "synth.json", SYNTHETIC)
    out = tmp_path / "s.dsv"
    assert main(["generate", "--config", path, "--out", str(out), "--seed", "-1"]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "seed" in err and "internal error" not in err


def test_run_malformed_row_inside_a_read_ahead_block_exits_2(tmp_path, synth_config, capsys):
    # File line 302 (seq 299) lies inside the second block of BLOCK_ROWS = 256
    # rows, after the RF member's first fit; no run directory is written.
    stream = tmp_path / "s.dsv"
    assert main(["generate", "--config", synth_config, "--out", str(stream), "--quiet"]) == 0
    lines = stream.read_text().splitlines()
    lines[301] = lines[301].rsplit(",", 1)[0]
    stream.write_text("\n".join(lines) + "\n")
    method = {"type": "ensemble", "batch_algorithm": "rf", "batch_params": {"n_trees": 3}, "strategies": ["S4"]}
    config = experiment_config(tmp_path, stream, method, first_fit_size=200)
    out_dir = tmp_path / "r"
    assert main(["run", "--config", config, "--out", str(out_dir), "--quiet"]) == 2
    assert "row 302" in capsys.readouterr().err
    assert not out_dir.exists()


def test_preprocess_infinite_numeric_value_exits_2(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("color,v,target\nred,1,x\nblue,2,y\nred,-inf,x\nblue,4,y\n")
    config = write_json(
        tmp_path / "ing.json", {"input": str(raw), "target_column": "target", "categorical_columns": ["color"]}
    )
    out = tmp_path / "stream.dsv"
    assert main(["preprocess", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "row 3" in err and "'v'" in err and "'-inf'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (b"a,b,target\n1,2,x\n3\n4,5,y\n", "row 2: expected 3 fields, got 1"),
        (b"a,target\n1,x\n2,\ninf,y\n", "row 3: column 'a' has non-finite value 'inf'"),
        (b"a,target\n1,x\n2\xff,y\n", "bytes b'\\xff' are not utf-8 text"),
        (b"a,target\n1,x\n" + b"2" * 200_000 + b",y\n", "line 3: field larger than field limit"),
    ],
    ids=["short-row-before-the-target", "row-after-a-dropped-one", "undecodable-byte", "over-long-field"],
)
def test_preprocess_row_errors_name_the_data_row_exit_2(tmp_path, text, message, capsys):
    # Rows are numbered among the file's data rows, those dropped for a missing target included;
    # a field the csv reader refuses is named by its file line.
    raw = tmp_path / "raw.csv"
    raw.write_bytes(text)
    config = write_json(tmp_path / "ing.json", {"input": str(raw), "target_column": "target"})
    out = tmp_path / "stream.dsv"
    assert main(["preprocess", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "internal error" not in err
    assert not out.exists()


def test_preprocess_without_feature_columns_exits_2(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("id,when,target\n1,2020-01-02,x\n2,2020-01-01,y\n")
    config = write_json(
        tmp_path / "ing.json",
        {"input": str(raw), "target_column": "target", "datetime_columns": ["when"], "drop_columns": ["id"]},
    )
    out = tmp_path / "stream.dsv"
    assert main(["preprocess", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(raw) in err and "no feature columns" in err
    assert not out.exists()


def test_run_on_a_stream_whose_manifest_lists_no_features_exits_2(tmp_path, capsys):
    stream = tmp_path / "s.dsv"
    stream.write_text('#schema {"features": [], "classes": ["x", "y"], "target": "target"}\ntarget\nx\ny\n')
    config = experiment_config(tmp_path, stream, {"type": "online", "algorithm": "gnb"})
    out_dir = tmp_path / "r"
    assert main(["run", "--config", config, "--out", str(out_dir), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert str(stream) in err and "lists no features" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "text, categorical, named",
    [
        ("v,w,v,target\n1,2,3,x\n4,5,6,y\n", [], "repeats feature column 'v'"),
        (
            "color=red,color,target\n1,red,x\n0,blue,y\n",
            ["color"],
            "duplicate feature names: 'color=red' from column 'color=red' and category 'red' of column 'color'",
        ),
    ],
    ids=["repeated-header-name", "numeric-column-named-like-a-one-hot-column"],
)
def test_preprocess_clashing_feature_names_exit_2_naming_them(tmp_path, text, categorical, named, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(text)
    config = write_json(
        tmp_path / "ing.json", {"input": str(raw), "target_column": "target", "categorical_columns": categorical}
    )
    out = tmp_path / "stream.dsv"
    assert main(["preprocess", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(raw) in err and named in err
    assert not out.exists()


def test_generate_and_preprocess_unknown_key_exit_1(tmp_path, raw_csv):
    synth = write_json(tmp_path / "synth.json", {**SYNTHETIC, "drift_kinds": "abrupt"})
    assert main(["generate", "--config", synth, "--out", str(tmp_path / "s.dsv")]) == 1
    ingest = write_json(tmp_path / "ing.json", {"input": str(raw_csv), "target_column": "target", "categoricals": []})
    assert main(["preprocess", "--config", ingest, "--out", str(tmp_path / "p.dsv")]) == 1


def test_report_ranks_methods(tmp_path, synth_config, capsys):
    stream = tmp_path / "s.dsv"
    assert main(["generate", "--config", synth_config, "--out", str(stream), "--quiet"]) == 0
    runs = tmp_path / "runs"
    for name, method in (
        ("gnb", {"type": "online", "algorithm": "gnb"}),
        ("ht", {"type": "online", "algorithm": "hoeffding"}),
    ):
        config = experiment_config(tmp_path, stream, method, name=name)
        assert main(["run", "--config", config, "--out", str(runs / name), "--quiet"]) == 0
    out = tmp_path / "summary"
    assert main(["report", str(runs), "--out", str(out)]) == 0
    lines = (out / "ranking.csv").read_text().splitlines()
    assert lines[0] == "position,method,ranking_score"
    assert len(lines) == 3
    assert (out / "traces.csv").exists()


def test_report_incomplete_grid_exits_2(tmp_path, synth_config, capsys):
    stream_a = tmp_path / "a.dsv"
    stream_b = tmp_path / "b.dsv"
    assert main(["generate", "--config", synth_config, "--out", str(stream_a), "--quiet"]) == 0
    assert main(["generate", "--config", synth_config, "--out", str(stream_b), "--quiet"]) == 0
    runs = tmp_path / "runs"
    grid = [("gnb", stream_a), ("hoeffding", stream_a), ("gnb", stream_b)]  # HT x b missing
    for algo, stream in grid:
        config = experiment_config(
            tmp_path, stream, {"type": "online", "algorithm": algo}, name=f"{algo}-{stream.stem}"
        )
        out_dir = runs / f"{algo}-{stream.stem}"
        assert main(["run", "--config", config, "--out", str(out_dir), "--quiet"]) == 0
    code = main(["report", str(runs), "--out", str(tmp_path / "summary")])
    assert code == 2
    assert "(HT, b)" in capsys.readouterr().err


def test_report_of_two_runs_of_one_method_on_one_stream_exits_2(tmp_path, synth_config, capsys):
    stream = tmp_path / "s.dsv"
    assert main(["generate", "--config", synth_config, "--out", str(stream), "--quiet"]) == 0
    runs = tmp_path / "runs"
    for name, algo, seed in (("gnb-1", "gnb", 1), ("gnb-2", "gnb", 2), ("ht", "hoeffding", 1)):
        config = experiment_config(tmp_path, stream, {"type": "online", "algorithm": algo}, name=name, seed=seed)
        assert main(["run", "--config", config, "--out", str(runs / name), "--quiet"]) == 0
    assert main(["report", str(runs), "--out", str(tmp_path / "summary")]) == 2
    assert "(GNB, s)" in capsys.readouterr().err


def test_report_empty_directory_exits_2(tmp_path):
    assert main(["report", str(tmp_path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("command", ["run", "generate"])
def test_seed_flag_on_a_config_that_is_not_an_object_exits_1(tmp_path, command, capsys):
    path = write_json(tmp_path / "list.json", [1, 2])
    assert main([command, "--config", path, "--out", str(tmp_path / "r"), "--seed", "3"]) == 1
    assert "expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "manifest",
    [
        '{"features": [',
        '{"features": [{"name": "f0", "kind": "ordinal"}], "classes": ["a"]}',
        '{"classes": ["a"]}',
        "[]",
        '{"features": [{"name": "f0", "kind": "numeric"}, {"name": "f0", "kind": "numeric"}], "classes": ["a"]}',
        '{"features": [{"name": "f0", "kind": "numeric"}], "classes": ["a", "a"]}',
    ],
    ids=["invalid-json", "unknown-kind", "no-features", "json-list", "repeated-feature", "repeated-class"],
)
def test_run_malformed_schema_manifest_exits_2(tmp_path, manifest, capsys):
    stream = tmp_path / "s.dsv"
    stream.write_text(f"#schema {manifest}\nf0,target\n1.0,a\n")
    config = experiment_config(tmp_path, stream, {"type": "online", "algorithm": "gnb"})
    assert main(["run", "--config", config, "--out", str(tmp_path / "r"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert str(stream) in err and "malformed schema manifest" in err and "internal error" not in err


STREAM_HEAD = (
    b'#schema {"features": [{"name": "f0", "kind": "numeric"}, {"name": "f1", "kind": "numeric"}], '
    b'"classes": ["a", "b"]}\nf0,f1,target\n'
)


@pytest.mark.parametrize(
    "rows, message",
    [
        (b"", "stream produced no instances"),
        (b"\n\n", "stream produced no instances"),
        (b"1.0,2.0,a\n2.0\xff,1.0,b\n", "bytes b'\\xff' are not utf-8 text"),
        (b"1.0,2.0,a\n2.0,1.0,b\n" + b"3" * 200_000 + b",1.0,a\n", "row 5: field larger than field limit"),
    ],
    ids=["no-rows", "blank-rows", "undecodable-byte", "over-long-field"],
)
def test_run_stream_without_readable_rows_exits_2(tmp_path, rows, message, capsys):
    stream = tmp_path / "s.dsv"
    stream.write_bytes(STREAM_HEAD + rows)
    config = experiment_config(tmp_path, stream, {"type": "online", "algorithm": "gnb"})
    out_dir = tmp_path / "r"
    assert main(["run", "--config", config, "--out", str(out_dir), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert message in err and "internal error" not in err
    assert not out_dir.exists()


FEATURE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: repr(v).encode()),
    st.sampled_from([b"nan", b"-inf", b"1e999", b"x", b"", b'"', b"\xff", b"\xc3", b"1" * 100_000, b"9" * 200_000]),
)
LABEL_CELLS = st.sampled_from([b"a", b"b", b"c", b"", b"\xe9", b"b" * 200_000])
ROWS = st.lists(
    st.builds(lambda features, label: b",".join([*features, label]), st.lists(FEATURE_CELLS, max_size=3), LABEL_CELLS),
    max_size=20,
)


@settings(max_examples=50, deadline=None)
@given(rows=ROWS)
def test_run_on_generated_stream_rows_exits_0_or_2(rows):
    # Rows after a valid manifest and header either run or fail as data errors, never as internal ones.
    with tempfile.TemporaryDirectory() as tmp:
        stream = Path(tmp) / "s.dsv"
        stream.write_bytes(STREAM_HEAD + b"".join(row + b"\n" for row in rows))
        config = write_json(
            Path(tmp) / "run.json", {"stream": {"path": str(stream)}, "method": {"type": "online", "algorithm": "gnb"}}
        )
        assert main(["run", "--config", config, "--out", str(Path(tmp) / "r"), "--quiet"]) in (0, 2)


@pytest.mark.parametrize("field, name", [("drop_columns", "ID"), ("categorical_columns", "colour")])
def test_preprocess_unknown_column_name_exits_1(tmp_path, field, name, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("id,color,v,target\n1,red,1,x\n2,blue,2,y\n")
    config = write_json(tmp_path / "ing.json", {"input": str(raw), "target_column": "target", field: [name]})
    out = tmp_path / "stream.dsv"
    assert main(["preprocess", "--config", config, "--out", str(out)]) == 1
    assert repr(name) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("role", ["drop_columns", "datetime_columns"])
def test_preprocess_categorical_column_in_another_role_exits_1_before_reading(tmp_path, role, capsys):
    # The input does not exist: the conflict is refused before any file is read.
    config = write_json(
        tmp_path / "ing.json",
        {"input": str(tmp_path / "missing.csv"), "target_column": "target", "categorical_columns": ["color"], role: ["color"]},
    )
    out = tmp_path / "stream.dsv"
    assert main(["preprocess", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'color'" in err and role in err
    assert not out.exists()


@pytest.mark.parametrize("role", ["categorical_columns", "datetime_columns"])
def test_preprocess_target_column_in_another_role_exits_1_before_reading(tmp_path, role, capsys):
    config = write_json(
        tmp_path / "ing.json",
        {"input": str(tmp_path / "missing.csv"), "target_column": "target", role: ["color", "target"]},
    )
    out = tmp_path / "stream.dsv"
    assert main(["preprocess", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'target'" in err and role in err
    assert not out.exists()


GNB_S4 = {"type": "batch", "algorithm": "gnb", "strategy": "S4"}
GNB_ENSEMBLE = {"type": "ensemble", "batch_algorithm": "gnb"}
CUSTOM_STRATEGY = {
    "id": "X", "monitor_features": True, "monitor_target": True, "monitor_performance": False,
    "window_size": 300, "perf_tolerance": 0.2,
}


@pytest.mark.parametrize(
    "method, extra, named",
    [
        ({**GNB_S4, "strategy": {"id": "S4", "s": "100"}}, {}, "window_size"),
        ({**GNB_S4, "strategy": {"id": "S4", "theta": None}}, {}, "threshold"),
        ({**GNB_S4, "strategy": {"id": "S4", "alpha": "x"}}, {}, "perf_tolerance"),
        ({**GNB_S4, "strategy": {"id": "S4", "s": 2.5}}, {}, "window_size"),
        (GNB_S4, {"trace_every": 0}, "trace_every"),
        (GNB_S4, {"score_window": 2.7}, "score_window"),
        (GNB_S4, {"seed": -1}, "seed"),
        ({**GNB_S4, "strategy": {"id": "B2", "first_fit_size": -5}}, {}, "first_fit_size"),
        ({**GNB_S4, "strategy": {"id": "B2", "first_fit_size": 0}}, {}, "first_fit_size"),
        ({**GNB_ENSEMBLE, "strategies": "S4"}, {}, "method.strategies must be a list"),
        ({**GNB_ENSEMBLE, "online_members": "gnb"}, {}, "method.online_members must be a list"),
        ({**GNB_S4, "strategy": {**CUSTOM_STRATEGY, "threshold": float("nan")}}, {}, "threshold must be a finite"),
        ({**GNB_S4, "strategy": {"id": "S4", "theta": float("inf")}}, {}, "threshold must be a finite"),
        ({"type": "online", "algorithm": "gnb"}, {"stream": {"path": 5}}, "stream.path must be a string"),
        ({"type": ["ensemble"]}, {}, "method.type"),
        ({**GNB_S4, "strategy": {"id": ["S4"]}}, {}, "string 'id'"),
        (GNB_S4, {"method_id": ["x"]}, "method_id must be a string"),
    ],
    ids=[
        "string-window",
        "null-threshold",
        "string-tolerance",
        "float-window",
        "zero-trace-every",
        "float-score-window",
        "negative-seed",
        "negative-strategy-first-fit",
        "zero-strategy-first-fit",
        "string-strategies",
        "string-online-members",
        "nan-threshold",
        "infinite-threshold",
        "number-stream-path",
        "list-method-type",
        "list-strategy-id",
        "list-method-id",
    ],
)
def test_run_config_value_of_the_wrong_type_exits_1_before_the_stream(tmp_path, method, extra, named, capsys):
    # The stream file does not exist: opening it first would exit 2.
    config = experiment_config(tmp_path, tmp_path / "missing.dsv", method, **extra)
    assert main(["run", "--config", config, "--out", str(tmp_path / "r"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert named in err and "internal error" not in err


@pytest.mark.parametrize(
    "method, named",
    [
        ({**GNB_ENSEMBLE, "combiner": "xx"}, "unknown combiner 'xx'"),
        ({"type": "online", "algorithm": "gnbx"}, "unknown online algorithm 'gnbx'"),
        ({**GNB_S4, "algorithm": "rff"}, "unknown batch algorithm 'rff'"),
        ({**GNB_S4, "algorithm": "logreg"}, "unknown batch algorithm 'logreg'"),
        ({**GNB_ENSEMBLE, "batch_algorithm": "rff"}, "unknown batch algorithm 'rff'"),
        ({**GNB_ENSEMBLE, "online_members": ["gnb", "ht"]}, "unknown online algorithm 'ht'"),
        ({"type": "online"}, "unknown online algorithm None"),
        ({"type": "online", "algorithm": "gnb", "params": {"var_smoothing": 1}}, "unknown params ['var_smoothing']"),
        ({**GNB_S4, "algorithm": "rf", "params": {"n_tres": 5}}, "unknown params ['n_tres']"),
        ({**GNB_S4, "algorithm": "rf", "params": {"seed": 5}}, "unknown params ['seed']"),
        ({**GNB_ENSEMBLE, "batch_params": {"max_depth": 3}}, "unknown params ['max_depth']"),
        ({**GNB_S4, "params": [1]}, "params must be an object"),
    ],
    ids=[
        "combiner",
        "online-algorithm",
        "batch-algorithm",
        "batch-logreg",
        "ensemble-batch-algorithm",
        "ensemble-online-member",
        "missing-online-algorithm",
        "unknown-online-param",
        "unknown-batch-param",
        "batch-seed-param",
        "unknown-ensemble-batch-param",
        "params-not-an-object",
    ],
)
def test_run_unknown_combiner_or_learner_exits_1_before_the_stream(tmp_path, method, named, capsys):
    config = experiment_config(tmp_path, tmp_path / "missing.dsv", method)
    assert main(["run", "--config", config, "--out", str(tmp_path / "r"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert named in err and "stream file not found" not in err and "internal error" not in err


@pytest.mark.parametrize("section", ["stream", "method"])
def test_run_section_that_is_not_an_object_exits_1(tmp_path, section, capsys):
    data = {"stream": {"path": str(tmp_path / "s.dsv")}, "method": {"type": "online", "algorithm": "gnb"}}
    data[section] = "path"
    config = write_json(tmp_path / "run.json", data)
    assert main(["run", "--config", config, "--out", str(tmp_path / "r"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"'{section}'" in err and "internal error" not in err


@pytest.mark.parametrize(
    "content, reason",
    [("{not json", "invalid JSON"), ('{"run_id": "x"}', "missing key 'stream_id'"), ("[1, 2]", "expected a JSON object")],
    ids=["invalid-json", "missing-key", "not-an-object"],
)
def test_report_on_a_broken_report_json_exits_2_naming_it(tmp_path, content, reason, capsys):
    report = tmp_path / "runs" / "x" / "report.json"
    report.parent.mkdir(parents=True)
    report.write_text(content)
    assert main(["report", str(tmp_path / "runs"), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(report) in err and reason in err and "internal error" not in err


REPORT = {
    "run_id": "r", "stream_id": "s", "method_id": "GNB", "final_f1_macro": 0.5, "drift_count": 0,
    "replacement_count": 0, "seed": 0, "config_digest": "d", "n_instances": 10,
}


@pytest.mark.parametrize(
    "key, value",
    [("final_f1_macro", "0.5"), ("stream_id", ["x"]), ("method_id", None), ("drift_count", True), ("seed", 1.5)],
)
def test_report_on_a_report_json_value_of_the_wrong_type_exits_2_naming_it(tmp_path, key, value, capsys):
    good = tmp_path / "good" / "x" / "report.json"
    good.parent.mkdir(parents=True)
    write_json(good, REPORT)
    assert main(["report", str(tmp_path / "good"), "--out", str(tmp_path / "good-out")]) == 0
    report = tmp_path / "runs" / "x" / "report.json"
    report.parent.mkdir(parents=True)
    write_json(report, {**REPORT, key: value})
    assert main(["report", str(tmp_path / "runs"), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(report) in err and f"{key} must be of type" in err and "internal error" not in err


def test_report_on_a_broken_trace_csv_exits_2_naming_it(tmp_path, synth_config, capsys):
    stream = tmp_path / "s.dsv"
    assert main(["generate", "--config", synth_config, "--out", str(stream), "--quiet"]) == 0
    run = tmp_path / "runs" / "gnb"
    config = experiment_config(tmp_path, stream, {"type": "online", "algorithm": "gnb"})
    assert main(["run", "--config", config, "--out", str(run), "--quiet"]) == 0
    trace = run / "trace.csv"
    trace.write_text("seq,windowed_f1,cumulative_f1\n100,0.5\n")
    assert main(["report", str(tmp_path / "runs"), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{trace}:2" in err and "internal error" not in err


def test_run_on_a_stream_path_that_is_a_directory_exits_2_naming_it(tmp_path, capsys):
    stream = tmp_path / "streams"
    stream.mkdir()
    config = experiment_config(tmp_path, stream, {"type": "online", "algorithm": "gnb"})
    assert main(["run", "--config", config, "--out", str(tmp_path / "r"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"cannot read stream file {stream}" in err and "internal error" not in err


def test_preprocess_into_a_missing_directory_exits_1_before_reading_the_input(tmp_path, capsys):
    # The input does not exist either: the output directory is checked first.
    config = write_json(tmp_path / "ing.json", {"input": str(tmp_path / "absent.csv"), "target_column": "target"})
    out = tmp_path / "nodir" / "s.dsv"
    assert main(["preprocess", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'nodir'} is not a directory" in err and "internal error" not in err
    assert not out.parent.exists()


def test_generate_into_a_missing_directory_exits_1(tmp_path, synth_config, capsys):
    out = tmp_path / "nodir" / "s.dsv"
    assert main(["generate", "--config", synth_config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'nodir'} is not a directory" in err and "internal error" not in err
    assert not out.parent.exists()


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_run_into_a_file_exits_1_before_the_stream(tmp_path, out, capsys):
    # The stream does not exist: a run that opened it would exit 2.
    (tmp_path / "afile").write_text("keep\n")
    config = experiment_config(tmp_path, tmp_path / "absent.dsv", {"type": "online", "algorithm": "gnb"})
    assert main(["run", "--config", config, "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'afile'} is not a directory" in err and "internal error" not in err
    assert (tmp_path / "afile").read_text() == "keep\n"


def test_report_refuses_an_existing_traces_csv_and_a_file_out_dir(tmp_path, synth_config, capsys):
    stream = tmp_path / "s.dsv"
    assert main(["generate", "--config", synth_config, "--out", str(stream), "--quiet"]) == 0
    config = experiment_config(tmp_path, stream, {"type": "online", "algorithm": "gnb"})
    assert main(["run", "--config", config, "--out", str(tmp_path / "runs" / "gnb"), "--quiet"]) == 0
    out = tmp_path / "rep"
    out.mkdir()
    (out / "traces.csv").write_text("keep\n")
    assert main(["report", str(tmp_path / "runs"), "--out", str(out)]) == 1
    assert f"{out / 'traces.csv'} already exists" in capsys.readouterr().err
    assert (out / "traces.csv").read_text() == "keep\n" and not (out / "ranking.csv").exists()
    assert main(["report", str(tmp_path / "runs"), "--out", str(out), "--force", "--quiet"]) == 0
    assert (out / "traces.csv").read_text().startswith("method,stream,seq,")
    assert main(["report", str(tmp_path / "runs"), "--out", str(stream)]) == 1
    assert f"{stream} is not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["report.json", "trace.csv", "events.csv", "timing.json"])
def test_run_refuses_any_existing_run_file_without_force(tmp_path, synth_config, name, capsys):
    stream = tmp_path / "s.dsv"
    assert main(["generate", "--config", synth_config, "--out", str(stream), "--quiet"]) == 0
    config = experiment_config(tmp_path, stream, {"type": "online", "algorithm": "gnb"})
    out = tmp_path / "run"
    out.mkdir()
    (out / name).write_text("keep\n")
    assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 1
    assert f"{out / name} already exists" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [name] and (out / name).read_text() == "keep\n"
    assert main(["run", "--config", config, "--out", str(out), "--force", "--quiet"]) == 0
    assert (out / name).read_text() != "keep\n" and len(list(out.iterdir())) == 4


def unreadable(path, kind, what):
    """Make ``path`` a directory or a file whose bytes are not utf-8; return the message that names it."""
    if kind == "directory":
        path.mkdir()
        return f"cannot read {what} {path}: Is a directory"
    path.write_bytes(b'{"seed": 1\xff}')
    return "bytes b'\\xff' are not utf-8 text"


@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
@pytest.mark.parametrize("command", ["run", "generate"])
def test_unreadable_config_exits_1_naming_it(tmp_path, command, kind, capsys):
    message = unreadable(tmp_path / "cfg.json", kind, "config file")
    assert main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert message in err and "internal error" not in err


def test_preprocess_input_that_is_a_directory_exits_2_naming_it(tmp_path, capsys):
    message = unreadable(tmp_path / "raw", "directory", "input file")
    config = write_json(tmp_path / "ing.json", {"input": str(tmp_path / "raw"), "target_column": "target"})
    assert main(["preprocess", "--config", config, "--out", str(tmp_path / "s.dsv")]) == 2
    err = capsys.readouterr().err
    assert message in err and "internal error" not in err


@pytest.mark.parametrize("name, kind", [("report.json", "directory"), ("trace.csv", "not-utf-8")])
def test_report_on_an_unreadable_run_file_exits_2_naming_it(tmp_path, synth_config, name, kind, capsys):
    stream = tmp_path / "s.dsv"
    assert main(["generate", "--config", synth_config, "--out", str(stream), "--quiet"]) == 0
    run = tmp_path / "runs" / "gnb"
    config = experiment_config(tmp_path, stream, {"type": "online", "algorithm": "gnb"})
    assert main(["run", "--config", config, "--out", str(run), "--quiet"]) == 0
    (run / name).unlink()
    message = unreadable(run / name, kind, "report file")
    assert main(["report", str(tmp_path / "runs"), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err and "internal error" not in err


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("categorical_columns", "ab", "must be a list of strings"),  # not a substring test that takes a, b and ab
        ("categorical_columns", ["a", 1], "must be a list of strings"),
        ("drop_columns", None, "must be a list of strings"),
        ("datetime_columns", "a", "must be a list of strings"),
        ("missing_category_label", 5, "must be a string"),  # not an internal TypeError (exit 3) when ab is encoded
        ("target_column", ["mode"], "must be a string"),
        ("datetime_format", 7, "must be a string or null"),
        ("input", 5, "CSV path string"),  # not an internal TypeError (exit 3) from opening it
    ],
)
def test_preprocess_config_field_of_the_wrong_type_exits_1_before_reading(tmp_path, field, value, expected, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("a,b,ab,mode\n1,2,,car\n3,4,x,bike\n")
    out = tmp_path / "stream.dsv"
    for raw_path in (raw, tmp_path / "missing.csv"):
        ingest = {"input": str(raw_path), "target_column": "mode", "categorical_columns": ["ab"], field: value}
        config = write_json(tmp_path / "ing.json", ingest)
        assert main(["preprocess", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert field in err and expected in err and "internal error" not in err
        assert not out.exists()


def test_preprocess_counts_instances_not_lines(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text('v,mode\n1,car\n2,"bi\nke"\n3,car\n')
    config = write_json(tmp_path / "ing.json", {"input": str(raw), "target_column": "mode"})
    out = tmp_path / "stream.dsv"
    assert main(["preprocess", "--config", config, "--out", str(out)]) == 0
    assert len(list(replay(out))) == 3
    assert "3 instances" in capsys.readouterr().out  # five lines after the manifest: one label spans two
