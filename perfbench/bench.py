"""One workload in this process: set-up repetitions, measured rounds, checks.

A round goes through the public API that `driftstream run` uses. Two hooks are
present in every round: a `perf_counter_ns` pair around each
`HybridEnsemble.process_instance` call, and a stamp at the first row the
replay yields, which ends set-up. Between steps, about every 20 ms, the step
hook also reads the machine's speed (`speed.SpeedGauge`); every reported time
is divided by the speed factor measured around it. Traced rounds add the spans
of `tracing`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import driftstream.experiment as experiment_mod
from driftstream.ensemble import DriftEvent, HybridEnsemble
from driftstream.experiment import parse_config, run_experiment
from driftstream.ingest import IngestConfig, preprocess_csv, stream_schema, write_stream

import checks
from speed import SpeedGauge
from tracing import Tracer
from workloads import (
    CATEGORICALS,
    WORKLOADS,
    WideInput,
    Workload,
    experiment_config,
    synthetic_rows,
    write_wide_csv,
)

MIN_ROUNDS = 2  # the fewest measured rounds of a run
SETUPS_PER_ROUND = 3  # set-up-only repetitions before each measured round
READINGS_AROUND_SETUP = 3  # speed readings before and after each of them
ARTIFACTS = ("report.json", "trace.csv", "events.csv")
STREAM_FILE = "stream.dsv"


class SetupDone(Exception):
    """Ends a set-up-only repetition at the first replayed row."""


class FailureCounter(logging.Handler):
    """Counts the member predict, learn and shadow-fit failures the ensemble swallows."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "failed" in record.getMessage():
            self.count += 1


class Probe:
    """The hooks of every round: step timer, step recorder, first-row stamp, speed readings."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.steps: list | None = None  # StepResults, while recording
        self.first_row_ns = 0
        self.stop_at_first_row = False
        self.tracer: Tracer | None = None
        self.gauge = SpeedGauge()
        self.gauge_ns = 0  # time spent reading the speed since the last reset
        self._saved = []

    def read_speed(self) -> None:
        """One speed reading, taken between steps and out of every measured interval."""
        ns = self.gauge.read(len(self.samples))
        self.gauge_ns += ns
        if self.tracer is not None:
            self.tracer.excluded_ns += ns  # out of every open span

    def install(self) -> None:
        probe = self
        process_instance = HybridEnsemble.process_instance
        replay = experiment_mod.replay

        def timed_step(ensemble, inst):
            t0 = time.perf_counter_ns()
            step = process_instance(ensemble, inst)
            t1 = time.perf_counter_ns()
            probe.samples.append(t1 - t0)
            if probe.steps is not None:
                probe.steps.append(step)
            if probe.gauge.due(t1):
                probe.read_speed()
            return step

        def stamped_replay(path):
            rows = replay(path)

            def stamped():
                probe.first_row_ns = time.perf_counter_ns()
                if probe.stop_at_first_row:
                    raise SetupDone
                yield from (probe.tracer.wrap_replay(rows) if probe.tracer else rows)

            return stamped()

        self._saved = [(HybridEnsemble, "process_instance", process_instance), (experiment_mod, "replay", replay)]
        HybridEnsemble.process_instance = timed_step
        experiment_mod.replay = stamped_replay

    def uninstall(self) -> None:
        for owner, attr, fn in self._saved:
            setattr(owner, attr, fn)


@dataclass
class Round:
    """Wall-clock times as measured, and the speed factors measured around them."""

    setup_s: float
    prepare_s: float
    speed: float  # mean speed factor of the readings around the round or set-up
    stream_s: float = 0.0  # first replayed row to artifacts written, benchmark work excluded
    n: int = 0
    digests: tuple[str, ...] = ()
    report: dict | None = None
    steps_us: np.ndarray | None = None  # this round's process_instance times
    step_speed: np.ndarray | None = None  # the speed factor around each step

    @property
    def wall_instances_per_s(self) -> float:
        return self.n / self.stream_s

    @property
    def ref_steps_us(self) -> np.ndarray:
        """Each step's time at the reference speed."""
        return self.steps_us / self.step_speed

    @property
    def ref_stream_s(self) -> float:
        """The round's stream time at the reference speed; time outside the steps at the round's mean speed."""
        outside_s = self.stream_s - self.steps_us.sum() / 1e6
        return self.ref_steps_us.sum() / 1e6 + outside_s / self.speed

    @property
    def instances_per_s(self) -> float:
        return self.n / self.ref_stream_s

    @property
    def ref_setup_s(self) -> float:
        return self.setup_s / self.speed


class Runner:
    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.stream_path = workdir / STREAM_FILE
        # The inputs are made once and not timed; writing or preprocessing
        # the stream file is the program's work and counts as set-up.
        self.wide: WideInput | None = None
        if workload.synthetic is None:
            self.wide = write_wide_csv(workdir / "raw.csv", workload.raw_rows, seed)
        else:
            self.synthetic = synthetic_rows(workload.n_instances, seed, **workload.synthetic)
        self.probe = Probe()
        self.rounds = 0

    def prepare(self) -> None:
        """The program's own ingest step: generate or preprocess the stream file."""
        if self.wide is not None:
            preprocess_csv(self.wide.raw_path, IngestConfig(**self.wide.ingest), self.stream_path)
        else:
            schema, X, y = self.synthetic
            write_stream(self.stream_path, schema, X, y.tolist())

    def config(self):
        return parse_config(experiment_config(self.workload, self.stream_path, self.seed))

    def setup_only(self) -> Round:
        first_reading = len(self.probe.gauge.readings_ns)
        for _ in range(READINGS_AROUND_SETUP):
            self.probe.read_speed()
        t0 = time.perf_counter_ns()
        self.prepare()
        prepared = time.perf_counter_ns()
        config = self.config()
        self.probe.stop_at_first_row = True
        try:
            run_experiment(config, self.workdir / "setup")
        except SetupDone:
            pass
        finally:
            self.probe.stop_at_first_row = False
        setup_ns = self.probe.first_row_ns - t0
        for _ in range(READINGS_AROUND_SETUP):
            self.probe.read_speed()
        speed = float(self.probe.gauge.factors(first_reading, len(self.probe.gauge.readings_ns)).mean())
        return Round(setup_s=setup_ns / 1e9, prepare_s=(prepared - t0) / 1e9, speed=speed)

    def measured(self, tracer: Tracer | None = None, record: bool = False) -> Round:
        out = self.workdir / f"round{self.rounds}"
        self.rounds += 1
        self.probe.steps = [] if record else None
        gauge = self.probe.gauge
        first_reading = len(gauge.readings_ns)
        self.probe.read_speed()  # the reading before the first step
        self.probe.gauge_ns = 0
        if tracer is not None:
            tracer.install()
            self.probe.tracer = tracer
        first_sample = len(self.probe.samples)
        try:
            t0 = time.perf_counter_ns()
            self.prepare()
            prepared = time.perf_counter_ns()
            config = self.config()
            report = run_experiment(config, out)
            end = time.perf_counter_ns()
        finally:
            if tracer is not None:
                tracer.uninstall()
                self.probe.tracer = None
        # Speed readings and scipy cross-checks happened inside the stream;
        # in traced rounds the tracer's total holds both.
        excluded = self.probe.gauge_ns
        if tracer is not None:
            excluded, tracer.excluded_ns = tracer.excluded_ns, 0
        last_sample = len(self.probe.samples)
        self.probe.read_speed()  # the reading after the last step
        last_reading = len(gauge.readings_ns)
        digests = tuple(_sha256(p) for p in [self.stream_path, *(out / a for a in ARTIFACTS)])
        return Round(
            setup_s=(self.probe.first_row_ns - t0) / 1e9,
            prepare_s=(prepared - t0) / 1e9,
            speed=float(gauge.factors(first_reading, last_reading).mean()),
            stream_s=(end - self.probe.first_row_ns - excluded) / 1e9,
            n=report.n_instances,
            digests=digests,
            report=json.loads((out / "report.json").read_text()),
            steps_us=np.asarray(self.probe.samples[first_sample:], dtype=float) / 1e3,
            step_speed=gauge.step_factors(first_reading, last_reading, first_sample, last_sample),
        )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_root: Path) -> int:
    workload = WORKLOADS[name]
    workdir = work_root / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    failures = FailureCounter()
    logger = logging.getLogger("driftstream.ensemble")
    logger.addHandler(failures)
    runner = None
    try:
        runner = Runner(workload, seed, workdir)
        runner.probe.install()
        result = _measure(runner, seconds, trace)
        problems = _check(runner, result)
    finally:
        if runner is not None:
            runner.probe.uninstall()
        logger.removeHandler(failures)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()  # only when no other run is using it
        except OSError:
            pass
    for line in result["lines"]:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    attempted = sum(r.n for r in result["rounds"])
    print(f"checks: {'all passed' if not problems else f'{len(problems)} failed'}; "
          f"attempted {attempted} instances, {failures.count} member failures counted")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": result["metrics"],
    }))
    return 0 if not problems else 1


def _measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Set up a few times before each round; traced runs alternate untraced and traced rounds.

    A run makes whole rounds: at least `MIN_ROUNDS`, and another one only
    while it is expected to end within `seconds`, judged by the last round.
    Every metric is a median over rounds or set-ups of times at the reference
    speed, so the count does not bias it.
    """
    setups: list[Round] = []
    untraced: list[Round] = []
    traced: list[Round] = []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    round_s = 0.0  # the last round's duration, its set-ups included
    i = 0
    while i < MIN_ROUNDS or time.perf_counter() - start + round_s <= seconds:
        began = time.perf_counter()
        setups += [runner.setup_only() for _ in range(SETUPS_PER_ROUND)]
        if trace and i % 2 == 1:
            traced.append(runner.measured(tracer=tracer))
        else:
            untraced.append(runner.measured(record=i == 0))
        if i == 0:
            # Kept as arrays: ten thousand StepResults would lengthen every
            # later garbage collection inside the measured steps.
            recorded, runner.probe.steps = _compact(runner.probe.steps), None
        round_s = time.perf_counter() - began
        i += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = untraced + traced
    if trace:
        metrics, lines = _layer_metrics(runner, tracer, untraced, traced, setups + rounds)
    else:
        metrics, lines = _end_to_end(runner, untraced, setups, rss_mb)
    return {"rounds": rounds, "recorded": recorded, "metrics": metrics, "lines": lines, "tracer": tracer}


def _compact(steps: list) -> dict:
    return {
        "y_true": np.array([s.y_true for s in steps]),
        "final": np.array([s.final_label for s in steps]),
        "member_labels": np.array([s.member_labels for s in steps]),
        "weights": np.array([s.weights for s in steps]),
        "events": [
            (e.seq, e.member_id, "drift" if isinstance(e, DriftEvent) else "replace")
            for s in steps
            for e in s.events
        ],
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _end_to_end(runner: Runner, rounds: list[Round], setups: list[Round], rss_mb: float):
    # Times at the reference speed; medians over the rounds and set-ups.
    ref_steps = [r.ref_steps_us for r in rounds]
    metrics = {
        "instances_per_s": _metric(statistics.median(r.instances_per_s for r in rounds), "instances/s"),
        "step_p50_us": _metric(statistics.median(np.median(s) for s in ref_steps), "us"),
        "setup_s": _metric(statistics.median(r.ref_setup_s for r in setups), "s"),
        "peak_rss_mb": _metric(rss_mb, "MiB"),
    }
    # The tail is taken over each step's least time over the rounds: a single
    # round's slowest steps are mostly the machine's own stalls.
    best_steps = np.min(np.stack(ref_steps), axis=0)
    p999 = np.percentile(best_steps, 99.9)
    speed = np.concatenate([r.step_speed for r in rounds])
    lines = [
        f"workload {runner.workload.name} seed {runner.seed}: {len(rounds)} rounds of {rounds[0].n} instances; "
        f"{len(setups)} set-ups",
        *(f"  {name:<16} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()),
        f"  {'step_p999_us':<16} {p999:.6g} us over {best_steps.size} per-step least times, "
        f"{int(best_steps.size * 0.001)} beyond it (not in the JSON result)",
        f"  as measured, before dividing by the speed factor: "
        f"{statistics.median(r.wall_instances_per_s for r in rounds):.6g} instances/s, "
        f"p50 {statistics.median(np.median(r.steps_us) for r in rounds):.6g} us, "
        f"set-up {statistics.median(r.setup_s for r in setups):.6g} s; "
        f"speed factor around the steps: median {np.median(speed):.3f}, quartiles "
        f"{np.percentile(speed, 25):.3f}-{np.percentile(speed, 75):.3f}",
    ]
    return metrics, lines


def _layer_metrics(runner: Runner, tracer: Tracer, untraced: list[Round], traced: list[Round], setups):
    t = tracer.get
    n_rounds = len(traced)
    n = traced[0].n

    # Span times are summed over the traced rounds; they are divided by the
    # rounds' mean speed factor, weighted by stream time, to read at the
    # reference speed like the end-to-end metrics.
    speed = sum(r.speed * r.stream_s for r in traced) / sum(r.stream_s for r in traced)

    def per_round(count: float) -> float:
        return count / n_rounds  # every traced round does the same work

    def mean(name: str, scale: float, of: str = "total_ns") -> float:
        stats = t(name)
        return getattr(stats, of) / stats.calls / scale / speed if stats.calls else 0.0

    m: dict[str, dict] = {}
    m["ingest.prepare_s"] = _metric(statistics.median(r.prepare_s / r.speed for r in setups), "s")
    m["ingest.replay_us_per_row"] = _metric(mean("ingest.replay", 1e3), "us")
    m["ingest.rows"] = _metric(n, "count")
    for kind in ("ks", "wasserstein", "js", "chi2", "zprop"):
        m[f"stattests.{kind}.calls"] = _metric(per_round(t(f"stattests.{kind}").calls), "count")
        m[f"stattests.{kind}.us_per_call"] = _metric(mean(f"stattests.{kind}", 1e3), "us")
    check = t("drift.check")
    m["drift.checks"] = _metric(per_round(check.calls), "count")
    m["drift.drifted"] = _metric(per_round(check.units), "count")
    m["drift.check_ms"] = _metric(mean("drift.check", 1e6), "ms")
    m["drift.self_ms"] = _metric(mean("drift.check", 1e6, "self_ns"), "ms")
    for learner in ("rf", "gnb_batch"):
        fit = t(f"learners.{learner}.fit")
        m[f"learners.{learner}.fits"] = _metric(per_round(fit.calls), "count")
        m[f"learners.{learner}.fit_rows"] = _metric(per_round(fit.units), "count")
        m[f"learners.{learner}.fit_s"] = _metric(per_round(fit.total_ns) / 1e9 / speed, "s")
        m[f"learners.{learner}.fit_us_per_row"] = _metric(
            fit.total_ns / fit.units / 1e3 / speed if fit.units else 0.0, "us"
        )
        m[f"learners.{learner}.predicts"] = _metric(per_round(t(f"learners.{learner}.predict").calls), "count")
        m[f"learners.{learner}.predict_us"] = _metric(mean(f"learners.{learner}.predict", 1e3), "us")
    for learner in ("gnb", "hoeffding", "logreg"):
        m[f"learners.{learner}.predict_us"] = _metric(mean(f"learners.{learner}.predict", 1e3), "us")
        m[f"learners.{learner}.learn_us"] = _metric(mean(f"learners.{learner}.learn", 1e3), "us")
    m["ensemble.step_self_us"] = _metric(mean("ensemble.step", 1e3, "self_ns"), "us")
    shadows = traced[0].report["drift_count"]
    replacements = traced[0].report["replacement_count"]
    m["ensemble.shadows"] = _metric(shadows, "count")
    m["ensemble.replacements"] = _metric(replacements, "count")
    m["ensemble.shadow_accept_ratio"] = _metric(replacements / shadows if shadows else 0.0, "ratio")
    m["ensemble.restack_ms"] = _metric(mean("ensemble.restack", 1e6), "ms")
    m["ensemble.cache_append_us"] = _metric(mean("ensemble.cache_append", 1e3), "us")
    m["evaluation.f1_calls_per_instance"] = _metric(t("evaluation.f1").calls / (n_rounds * n), "count")
    m["evaluation.f1_us_per_call"] = _metric(mean("evaluation.f1", 1e3), "us")
    m["evaluation.update_us"] = _metric(mean("evaluation.update", 1e3), "us")
    m["experiment.loop_self_us"] = _metric(t("experiment.run_stream").self_ns / (n_rounds * n) / 1e3 / speed, "us")
    m["experiment.artifacts_ms"] = _metric(mean("experiment.artifacts", 1e6), "ms")
    plain = statistics.median(r.instances_per_s for r in untraced)
    with_spans = statistics.median(r.instances_per_s for r in traced)
    m["trace.overhead_pct"] = _metric((plain / with_spans - 1.0) * 100.0, "%")

    stream_ns = sum(r.stream_s for r in traced) * 1e9
    shares: dict[str, float] = {}
    for span, stats in tracer.stats.items():
        layer = span.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + stats.self_ns / stream_ns
    lines = [
        f"workload {runner.workload.name} seed {runner.seed}: {len(untraced)} untraced and {n_rounds} traced "
        f"rounds of {n} instances; instances/s at the reference speed untraced {plain:.1f}, traced {with_spans:.1f}; "
        f"speed factor of the traced rounds {speed:.3f}",
        "  share of traced stream time (self time by layer): "
        + ", ".join(f"{layer} {share:.1%}" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1])),
        "  statistical-test outcomes checked against scipy: "
        + (", ".join(f"{k.split('.')[1]} {v}" for k, v in sorted(tracer.crosschecks.items())) or "none"),
        *(f"  {name:<34} {v['value']:.6g} {v['unit']}" for name, v in m.items()),
    ]
    return m, lines


def _check(runner: Runner, result: dict) -> list[str]:
    """Every output check of a run; the recorded first round is recomputed in full."""
    rounds: list[Round] = result["rounds"]
    problems = []
    if len({r.digests for r in rounds}) != 1:
        problems.append("stream file or artifacts differ between rounds (SHA-256)")
    tracer: Tracer | None = result["tracer"]
    if tracer is not None:
        problems += [f"scipy cross-check: {p}" for p in tracer.crosscheck_failures[:5]]

    steps = result["recorded"]
    workload = runner.workload
    config = runner.config()
    k = stream_schema(runner.stream_path).n_classes
    report, trace, events = checks.read_artifacts(runner.workdir / "round0")
    y_true, final = steps["y_true"], steps["final"]
    combiner = workload.method.get("combiner", "wv")
    problems += checks.check_f1_and_trace(y_true, final, k, config.trace_every, report, trace)
    problems += checks.check_weights_and_votes(
        y_true, steps["member_labels"], steps["weights"], final, combiner, config.score_window, k
    )
    problems += checks.check_events(events, steps["events"], report, config.shadow_eval_size, workload.retrains)
    if runner.wide is not None:
        w = runner.wide
        problems += checks.check_wide_stream(runner.stream_path, w.raw_rows, w.missing_target_rows, CATEGORICALS)
    return problems
