"""The benchmark's tracer patches package attributes by name; each must still exist and be reached."""

import collections
import functools
import importlib.util
import sys
from pathlib import Path

import driftstream.ensemble as ensemble_mod
from driftstream.ensemble import Member
from driftstream.experiment import parse_config, run_experiment

from test_golden import run_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_attribute_exists(monkeypatch):
    tracing = load_tracing(monkeypatch)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing.SPANS
        if not (attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr))
    ]
    assert tracing.SPANS
    assert not missing, missing


#: The golden runs traced, with the statistical-test spans each must reach; wv-gnb-long's windows of over
#: 1000 rows run the distance tests.
STATTEST_SPANS = {"wv-rf": ("stattests.ks", "stattests.chi2"), "wv-gnb-long": ("stattests.wasserstein", "stattests.js")}


def test_every_traced_member_method_and_the_drift_check_are_called(monkeypatch):
    # A refactor can keep a traced name but stop calling it, and its layer then reads 0.
    for run, stattests in STATTEST_SPANS.items():
        with monkeypatch.context() as patch:
            tracing = load_tracing(patch)
            reached = [(owner, attr, name) for owner, attr, name in tracing.SPANS if owner in (Member, ensemble_mod)]
            calls = collections.Counter()
            for owner, attr, _ in reached:  # counted inside the tracer's wrappers; the context restores the originals
                patch.setattr(owner, attr, _counting(calls, attr, getattr(owner, attr)))
            tracer = tracing.Tracer()
            tracer.install()
            try:
                run_experiment(parse_config(run_config(run)))
            finally:
                tracer.uninstall()
        assert {"_cache_append", "_cache_arrays", "_window_pair", "_trim_cache", "check_windows"} <= {a for _, a, _ in reached}
        assert [attr for _, attr, _ in reached if calls[attr] == 0] == [], run
        assert [name for _, _, name in reached if tracer.get(name).calls == 0] == [], run
        # Each statistical test reached, and every outcome agreeing with scipy.
        assert [name for name in stattests if tracer.get(name).calls == 0 or not tracer.crosschecks.get(name)] == [], run
        assert tracer.crosscheck_failures == [], run


def _counting(calls, attr, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls[attr] += 1
        return fn(*args, **kwargs)

    return counted
