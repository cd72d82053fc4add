"""Command-line entry points: preprocess, generate, run, report.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .core import ConfigError, DataError, MetricError, SchemaError, ToolkitError
from .evaluation import ranking
from .experiment import RUN_FILES, load_json, parse_config, read_run_dir, run_experiment
from .ingest import IngestConfig, SynthConfig, config_from_dict, generate_synthetic, preprocess_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _refuse_existing(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise ConfigError(f"{path} already exists, pass --force to overwrite")


def _refuse_missing_dir(path: Path) -> None:
    if not path.parent.is_dir():
        raise ConfigError(f"cannot write {path}: {path.parent} is not a directory")


def _refuse_file_in_the_way(out_dir: Path) -> None:
    """Refuse an output directory that is, or would be made under, something other than a directory."""
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"cannot write into {out_dir}: {existing} is not a directory")


def cmd_preprocess(args) -> int:
    data = load_json(args.config)
    if not isinstance(data.get("input"), str):
        raise ConfigError(f"preprocess config needs an 'input' CSV path string, got {data.get('input')!r}")
    raw_path = data.pop("input")
    config = config_from_dict(IngestConfig, data)
    out = Path(args.out)
    _refuse_existing(out, args.force)
    _refuse_missing_dir(out)
    schema, path = preprocess_csv(raw_path, config, out)
    with path.open(newline="") as fh:
        next(fh)  # the manifest line
        n_rows = sum(1 for row in csv.reader(fh) if row) - 1  # records less the header: a label may span lines
    _say(args, f"wrote {path}: {n_rows} instances, {schema.n_features} features, {schema.n_classes} classes")
    return EXIT_OK


def cmd_generate(args) -> int:
    data = load_json(args.config)
    if args.seed is not None:
        data["seed"] = args.seed
    config = config_from_dict(SynthConfig, data)
    out = Path(args.out)
    _refuse_existing(out, args.force)
    _refuse_missing_dir(out)
    schema, path = generate_synthetic(config, out)
    _say(args, f"wrote {path}: {config.n_instances} instances, {schema.n_features} features, {schema.n_classes} classes")
    return EXIT_OK


def cmd_run(args) -> int:
    data = load_json(args.config)
    if args.seed is not None:
        data["seed"] = args.seed
    config = parse_config(data)
    out_dir = Path(args.out)
    _refuse_file_in_the_way(out_dir)
    for name in RUN_FILES:
        _refuse_existing(out_dir / name, args.force)
    report = run_experiment(config, out_dir=out_dir)
    _say(
        args,
        f"{report.run_id}: f1_macro={report.final_f1_macro:.4f} "
        f"drifts={report.drift_count} replacements={report.replacement_count} "
        f"({report.wall_time_s:.1f}s)",
    )
    failed = [f"{member} {phase} x{n}" for member, counts in report.failures.items() for phase, n in counts.items() if n]
    if failed:
        print(f"warning: swallowed member failures: {', '.join(failed)} (counted in timing.json)", file=sys.stderr)
    return EXIT_OK


def cmd_report(args) -> int:
    runs_root = Path(args.runs)
    report_files = sorted(runs_root.glob("**/report.json"))
    if not report_files:
        raise DataError(f"no report.json files under {runs_root}")
    reports = [read_run_dir(p.parent) for p in report_files]
    per_stream: dict[str, list[tuple[str, float]]] = {}
    for report in reports:
        per_stream.setdefault(report.stream_id, []).append((report.method_id, report.final_f1_macro))
    table = ranking(per_stream)

    out_dir = Path(args.out)
    ranking_path, traces_path = out_dir / "ranking.csv", out_dir / "traces.csv"
    _refuse_file_in_the_way(out_dir)
    _refuse_existing(ranking_path, args.force)
    _refuse_existing(traces_path, args.force)
    out_dir.mkdir(parents=True, exist_ok=True)
    with ranking_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["position", "method", "ranking_score"])
        for row in table:
            writer.writerow([row.position, row.method, f"{row.score:.4f}"])
    with traces_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "stream", "seq", "windowed_f1", "cumulative_f1"])
        for report in reports:
            for seq, windowed, cumulative in report.trace:
                writer.writerow([report.method_id, report.stream_id, seq, repr(windowed), repr(cumulative)])
    for row in table:
        _say(args, f"{row.position:3d}  {row.method:<20s} {row.score:.2f}")
    _say(args, f"wrote {ranking_path} and {traces_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftstream",
        description="Drift-aware stream classification experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--force", action="store_true")
    common.add_argument("--quiet", action="store_true")

    p = sub.add_parser("preprocess", parents=[common], help="encode a raw CSV into a canonical stream file")
    p.add_argument("--config", required=True, help="ingest config JSON (input, target_column, ...)")
    p.add_argument("--out", required=True, help="output stream file")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("generate", parents=[common], help="generate a seeded synthetic drifting stream")
    p.add_argument("--config", required=True, help="synthetic stream config JSON")
    p.add_argument("--out", required=True, help="output stream file")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", parents=[common], help="run one configured experiment")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output run directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", parents=[common], help="rank methods across a directory of runs")
    p.add_argument("runs", help="directory containing run directories")
    p.add_argument("--out", required=True, help="output directory for ranking and merged traces")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, SchemaError, MetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ToolkitError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # invariant violation, report instead of crashing
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
