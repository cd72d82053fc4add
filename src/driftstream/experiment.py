"""Experiment configuration, the run loop and on-disk artifacts.

A run directory always contains the same file names:

* ``report.json``   summary (deterministic: identical config + seed gives
  identical bytes; wall time lives in ``timing.json`` for that reason)
* ``trace.csv``     (seq, windowed_f1, cumulative_f1) sampled every
  ``trace_every`` instances; windowed_f1 covers the rows since the previous sample
* ``events.csv``    drift and replacement log
  (seq, member, event, source, score)
* ``timing.json``   wall time and the swallowed member failures, excluded
  from the canonical report
"""

from __future__ import annotations

import csv
import hashlib
import json
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

from .core import ConfigError, DataError, Instance, Schema, ToolkitError, reading
from .drift import DriftStrategy, strategy_catalog
from .ensemble import (
    BATCH,
    DriftEvent,
    EnsembleConfig,
    HybridEnsemble,
    MemberSpec,
    ONLINE,
    ReplacementEvent,
    WEIGHTED_VOTE,
)
from .evaluation import PrequentialState, RunReport
from .ingest import BLOCK_ROWS, SynthConfig, config_from_dict, replay, stream_schema, synthetic_instances

ONLINE_DISPLAY = {"gnb": "GNB", "hoeffding": "HT", "logreg": "OLR"}

#: The files of a run directory, as the module docstring lists them.
RUN_FILES = ("report.json", "trace.csv", "events.csv", "timing.json")

_STRATEGY_ALIASES = {"theta": "threshold", "s": "window_size", "alpha": "perf_tolerance"}
_STRATEGY_FIELDS = {f.name for f in fields(DriftStrategy)} - {"id"}


def resolve_strategy(entry) -> DriftStrategy:
    """Turn a config entry (catalog id, or dict with overrides) into a strategy.

    A dict whose ``id`` names a catalog strategy starts from that strategy
    and overrides selected fields; any other id must define every monitor
    field explicitly.
    """
    catalog = strategy_catalog()
    if isinstance(entry, str):
        if entry not in catalog:
            raise ConfigError(f"unknown strategy id {entry!r}")
        return catalog[entry]
    if not isinstance(entry, dict):
        raise ConfigError(f"strategy entry must be an id or an object, got {type(entry).__name__}")
    entry = dict(entry)
    sid = entry.pop("id", None)
    if not isinstance(sid, str):
        raise ConfigError(f"strategy object needs a string 'id', got {sid!r}")
    overrides = {}
    for key, value in entry.items():
        key = _STRATEGY_ALIASES.get(key, key)
        if key not in _STRATEGY_FIELDS:
            raise ConfigError(f"unknown strategy field {key!r}")
        if key in overrides:
            raise ConfigError(f"strategy field {key!r} is given twice, by its name and by its alias")
        overrides[key] = value
    if sid in catalog:
        return replace(catalog[sid], **overrides)
    try:
        return DriftStrategy(id=sid, **overrides)
    except TypeError as exc:
        raise ConfigError(f"incomplete strategy {sid!r}: {exc}") from None


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(EnsembleConfig):
    """A parsed experiment: the ensemble, plus its stream, run id and trace interval.

    ``raw`` is the config as read; it backs the config digest.
    """

    stream_path: Path | None = None
    synth: SynthConfig | None = None
    method_id: str
    trace_every: int = 1000
    raw: dict = field(repr=False, default_factory=dict)

    INT_LEAST = {**EnsembleConfig.INT_LEAST, "trace_every": 1}

    @property
    def stream_id(self) -> str:
        if self.stream_path is not None:
            return self.stream_path.stem
        return f"synth-{self.digest()[:8]}"

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.raw, sort_keys=True).encode()).hexdigest()[:16]


def _derive_method_id(kind: str, members: tuple[MemberSpec, ...], combiner: str) -> str:
    if kind == "online":
        return ONLINE_DISPLAY[members[0].algorithm]
    if kind == "batch":
        return f"{members[0].algorithm.upper()}-{members[0].strategy.id}"
    batch = [m for m in members if m.kind == BATCH]
    makeup = "online" if not batch else "batch" if len(batch) == len(members) else batch[0].algorithm
    return f"{combiner}-{makeup}".upper()


def _refuse_unknown(section: dict, known: Iterable[str], where: str) -> None:
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where} key {', '.join(map(repr, unknown))}")


#: The keys of a config's top level; ``parse_config`` reads them, the options into the ``ExperimentConfig``.
_OPTION_KEYS = (*ExperimentConfig.INT_LEAST, "shadow_metric")
_CONFIG_KEYS = ("stream", "method", "method_id", *_OPTION_KEYS)


def parse_config(data: dict) -> ExperimentConfig:
    """Check and resolve a whole experiment config, before any stream is opened."""
    if "method" not in data or "stream" not in data:
        raise ConfigError("experiment config needs 'stream' and 'method' sections")
    _refuse_unknown(data, _CONFIG_KEYS, "config")
    stream, method = data["stream"], data["method"]
    if not isinstance(stream, dict) or not isinstance(method, dict):
        raise ConfigError("the 'stream' and 'method' sections must be JSON objects")
    _refuse_unknown(stream, ("path", "synthetic"), "stream")
    if len(stream) != 1:
        raise ConfigError("stream section needs exactly one of 'path' and 'synthetic'")
    if "path" in stream:
        if not isinstance(stream["path"], str):
            raise ConfigError(f"stream.path must be a string, got {stream['path']!r}")
        source = {"stream_path": Path(stream["path"])}
    else:
        source = {"synth": config_from_dict(SynthConfig, stream["synthetic"])}
    kind = method.get("type")
    if not isinstance(kind, str) or kind not in _METHOD_KEYS:
        raise ConfigError("method.type must be 'online', 'batch' or 'ensemble'")
    _refuse_unknown(method, _METHOD_KEYS[kind], f"{kind} method")
    members = build_member_specs(method)
    combiner = method.get("combiner", WEIGHTED_VOTE) if kind == "ensemble" else WEIGHTED_VOTE
    options = {key: data[key] for key in _OPTION_KEYS if key in data}
    method_id = data.get("method_id")
    if method_id is not None and not isinstance(method_id, str):
        raise ConfigError(f"method_id must be a string, got {method_id!r}")
    return ExperimentConfig(
        members=members,
        combiner=combiner,
        method_id=method_id or _derive_method_id(kind, members, combiner),
        raw=data,
        **source,
        **options,
    )


def load_json(path: str | Path, error: type[ToolkitError] = ConfigError, what: str = "config file") -> dict:
    """The JSON object in the ``what`` at ``path``; a missing or malformed file raises ``error``."""
    with reading(path, error, what):
        text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise error(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _list_field(method: dict, key: str, default: list) -> list:
    value = method.get(key)
    if value is None:
        return default
    if not isinstance(value, list):
        raise ConfigError(f"method.{key} must be a list, got {type(value).__name__}")
    return value


def _batch_spec(name, strategy_entry, params: dict) -> MemberSpec:
    strategy = resolve_strategy(strategy_entry)
    return MemberSpec(id=f"{name}-{strategy.id}", kind=BATCH, algorithm=name, strategy=strategy, params=params)


#: The keys of each type of method; ``build_member_specs`` reads them, and ``parse_config`` the combiner.
_METHOD_KEYS = {
    "online": ("type", "algorithm", "params"),
    "batch": ("type", "algorithm", "strategy", "params"),
    "ensemble": ("type", "strategies", "online_members", "batch_algorithm", "batch_params", "combiner"),
}


def build_member_specs(method: dict) -> tuple[MemberSpec, ...]:
    kind = method["type"]
    if kind == "online":
        name = method.get("algorithm")
        return (MemberSpec(id=name, kind=ONLINE, algorithm=name, params=method.get("params", {})),)
    if kind == "batch":
        return (_batch_spec(method.get("algorithm"), method.get("strategy"), method.get("params", {})),)
    # Absent keys take the canonical seven-member layout; explicit empty
    # lists select the batch-only / online-only variants.
    strategies = _list_field(method, "strategies", ["S4", "S5", "S6", "S7"])
    online_names = _list_field(method, "online_members", ["gnb", "hoeffding", "logreg"])
    if strategies and "batch_algorithm" not in method:
        raise ConfigError("ensemble with batch strategies needs 'batch_algorithm'")
    specs = [_batch_spec(method["batch_algorithm"], entry, method.get("batch_params", {})) for entry in strategies]
    specs += [MemberSpec(id=name, kind=ONLINE, algorithm=name) for name in online_names]
    if not specs:
        raise ConfigError("ensemble method defines no members")
    return tuple(specs)


@dataclass
class RunResult:
    final_f1: float
    trace: list[tuple[int, float, float]]
    events: list
    drift_count: int
    replacement_count: int
    n_instances: int
    failures: dict[str, dict[str, int]]


def run_stream(
    ensemble: HybridEnsemble,
    instances: Iterable[Instance],
    trace_every: int = 1000,
) -> RunResult:
    """Drive the ensemble over a stream, collecting prequential metrics.

    The stream is read in blocks of ``BLOCK_ROWS`` rows, as ``replay`` parses it, so frozen models can
    label a block in one call; each row is still processed on its own.
    """
    metrics = PrequentialState(ensemble.schema.n_classes)
    trace: list[tuple[int, float, float]] = []
    events: list = []
    n = 0
    rows = iter(instances)
    while block := list(islice(rows, BLOCK_ROWS)):
        ensemble.lookahead(block)
        for inst in block:
            step = ensemble.process_instance(inst)
            metrics.update(inst.y, step.final_label)
            events.extend(step.events)
            n += 1
            if n % trace_every == 0:
                trace.append((n, metrics.windowed_f1(), metrics.cumulative_f1()))
                metrics.new_window()
    if n == 0:
        raise DataError("stream produced no instances")
    return RunResult(
        final_f1=metrics.cumulative_f1(),
        trace=trace,
        events=events,
        drift_count=sum(isinstance(e, DriftEvent) for e in events),
        replacement_count=sum(isinstance(e, ReplacementEvent) for e in events),
        n_instances=n,
        failures=ensemble.failures,
    )


def _open_stream(config: ExperimentConfig) -> tuple[Schema, Iterator[Instance]]:
    if config.stream_path is not None:
        return stream_schema(config.stream_path), replay(config.stream_path)
    return synthetic_instances(config.synth)


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None) -> RunReport:
    """Execute one configured experiment end to end.

    ``parse_config`` has already checked the whole config, so a bad one
    fails before the stream is opened.
    """
    start = time.perf_counter()
    schema, instances = _open_stream(config)
    ensemble = HybridEnsemble(schema, config)
    result = run_stream(ensemble, instances, trace_every=config.trace_every)
    wall = time.perf_counter() - start
    report = RunReport(
        run_id=f"{config.method_id}__{config.stream_id}__seed{config.seed}",
        stream_id=config.stream_id,
        method_id=config.method_id,
        final_f1_macro=result.final_f1,
        trace=result.trace,
        drift_count=result.drift_count,
        replacement_count=result.replacement_count,
        seed=config.seed,
        config_digest=config.digest(),
        n_instances=result.n_instances,
        wall_time_s=wall,
        failures=result.failures,
    )
    if out_dir is not None:
        write_run_artifacts(Path(out_dir), report, result.events)
    return report


def write_run_artifacts(out_dir: Path, report: RunReport, events: list) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n")
    with (out_dir / "trace.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seq", "windowed_f1", "cumulative_f1"])
        for seq, windowed, cumulative in report.trace:
            writer.writerow([seq, repr(windowed), repr(cumulative)])
    with (out_dir / "events.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seq", "member", "event", "source", "score"])
        for event in events:
            if isinstance(event, DriftEvent):
                source = ";".join(t.source for t in event.triggers)
                score = repr(max(t.drift_score for t in event.triggers))
                writer.writerow([event.seq, event.member_id, "drift", source, score])
            elif isinstance(event, ReplacementEvent):
                writer.writerow([event.seq, event.member_id, "replace", "", ""])
    timing = {"wall_time_s": report.wall_time_s, "failures": report.failures}
    (out_dir / "timing.json").write_text(json.dumps(timing) + "\n")


def read_run_dir(run_dir: Path) -> RunReport:
    """The run's report and windowed trace; a malformed report.json or trace.csv raises a DataError naming it."""
    trace = []
    trace_path = run_dir / "trace.csv"
    if trace_path.exists():
        with reading(trace_path, DataError, "trace file"), trace_path.open(newline="") as fh:
            reader = csv.reader(fh)
            next(reader, None)
            for row in reader:
                try:
                    trace.append((int(row[0]), float(row[1]), float(row[2])))
                except (ValueError, IndexError):
                    expected = "seq,windowed_f1,cumulative_f1"
                    raise DataError(f"{trace_path}:{reader.line_num}: expected {expected}, got {row}") from None
    report_path = run_dir / "report.json"
    data = load_json(report_path, DataError, "report file")
    try:
        report = RunReport.from_json_dict(data, trace=trace)
    except KeyError as exc:
        raise DataError(f"{report_path}: missing key {exc}") from None
    kinds = {"str": str, "float": numbers.Real, "int": numbers.Integral}  # a bool is none of them
    for f in fields(RunReport):
        value, kind = getattr(report, f.name), kinds.get(f.type)
        if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
            raise DataError(f"{report_path}: {f.name} must be of type {f.type}, got {value!r}")
    return report
