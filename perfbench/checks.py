"""Output checks computed apart from the program.

Each check takes what the program produced (its step records and run
artifacts) and recomputes the expected values with its own code: confusion
counts and macro F1, member weights and votes, the event log's invariants and
the preprocessed stream's layout. Each returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

#: Tolerance for floats the program and these checks compute in another order.
TOL = 1e-9


def read_artifacts(run_dir: Path) -> tuple[dict, list[tuple[int, float, float]], list[list[str]]]:
    report = json.loads((run_dir / "report.json").read_text())
    with (run_dir / "trace.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    trace = [(int(r[0]), float(r[1]), float(r[2])) for r in rows]
    with (run_dir / "events.csv").open(newline="") as fh:
        events = list(csv.reader(fh))[1:]
    return report, trace, events


def _window_counts(y_true: np.ndarray, y_pred: np.ndarray, k: int) -> np.ndarray:
    """Prefix sums of confusion counts: [t] holds the counts of pairs [0, t)."""
    pair = y_true * k + y_pred
    onehot = np.zeros((pair.size + 1, k * k), dtype=np.int64)
    onehot[np.arange(1, pair.size + 1), pair] = 1
    return np.cumsum(onehot, axis=0).reshape(-1, k, k)


def macro_f1(counts: np.ndarray) -> np.ndarray:
    """Macro F1 of confusion counts (..., k, k), rows true and columns predicted.

    Classes absent from both truth and prediction are skipped; an empty
    window scores 0.
    """
    tp = np.diagonal(counts, axis1=-2, axis2=-1).astype(float)
    fn = counts.sum(axis=-1) - tp
    fp = counts.sum(axis=-2) - tp
    present = (tp + fn + fp) > 0
    denom = 2 * tp + fp + fn
    per_class = np.divide(2 * tp, denom, out=np.zeros_like(tp), where=denom > 0)
    n_present = present.sum(axis=-1)
    total = (per_class * present).sum(axis=-1)
    return np.divide(total, n_present, out=np.zeros_like(total), where=n_present > 0)


def check_f1_and_trace(
    y_true: np.ndarray, final: np.ndarray, k: int, trace_every: int, report: dict, trace: list
) -> list[str]:
    problems = []
    n = y_true.size
    prefix = _window_counts(y_true, final, k)
    if report["n_instances"] != n:
        problems.append(f"report n_instances {report['n_instances']} != {n} steps")
    final_f1 = float(macro_f1(prefix[n]))
    if abs(final_f1 - report["final_f1_macro"]) > TOL:
        problems.append(f"final macro F1 {report['final_f1_macro']!r} != recomputed {final_f1!r}")
    seqs = np.arange(trace_every, n + 1, trace_every)
    if [row[0] for row in trace] != seqs.tolist():
        return problems + [f"trace.csv rows at {[row[0] for row in trace][:5]}... expected every {trace_every}"]
    windowed = macro_f1(prefix[seqs] - prefix[seqs - trace_every])
    cumulative = macro_f1(prefix[seqs])
    for (seq, got_w, got_c), want_w, want_c in zip(trace, windowed, cumulative):
        if abs(got_w - want_w) > TOL or abs(got_c - want_c) > TOL:
            problems.append(f"trace row {seq}: ({got_w!r}, {got_c!r}) != recomputed ({want_w!r}, {want_c!r})")
            break
    return problems


def _lowest_best(values: np.ndarray) -> np.ndarray:
    """Per row, the lowest index whose value ties the maximum."""
    top = values.max(axis=1, keepdims=True)
    return np.argmax(values >= top - TOL, axis=1)


def check_weights_and_votes(
    y_true: np.ndarray,
    member_labels: np.ndarray,
    weights: np.ndarray,
    final: np.ndarray,
    combiner: str,
    score_window: int,
    k: int,
) -> list[str]:
    """Weights from the earlier steps' member labels only, and the weighted vote."""
    n, m = member_labels.shape
    steps = np.arange(n)
    starts = np.maximum(steps - score_window, 0)
    scores = np.empty((n, m))
    for j in range(m):
        prefix = _window_counts(y_true, member_labels[:, j], k)
        scores[:, j] = macro_f1(prefix[steps] - prefix[starts])
    if combiner == "ds":
        want = np.zeros((n, m))
        want[steps, _lowest_best(scores)] = 1.0
    else:
        totals = scores.sum(axis=1, keepdims=True)
        want = np.divide(scores, totals, out=np.full((n, m), 1.0 / m), where=totals > 0)
    problems = []
    bad = np.nonzero(~np.isclose(weights, want, rtol=TOL, atol=1e-12).all(axis=1))[0]
    if bad.size:
        t = int(bad[0])
        problems.append(f"{bad.size} steps with wrong weights, first at seq {t}: {weights[t]} != {want[t]}")
    tally = np.zeros((n, k))
    for j in range(m):
        np.add.at(tally, (steps, member_labels[:, j]), want[:, j])
    votes = _lowest_best(tally)
    bad = np.nonzero(votes != final)[0]
    if bad.size:
        t = int(bad[0])
        problems.append(f"{bad.size} steps with a wrong vote, first at seq {t}: {final[t]} != {votes[t]}")
    return problems


def check_events(
    events: list[list[str]],
    step_events: list[tuple[int, str, str]],
    report: dict,
    shadow_eval_size: int,
    retrains: bool,
) -> list[str]:
    problems = []
    logged = [(int(seq), member, kind) for seq, member, kind, _source, _score in events]
    if logged != step_events:
        problems.append("events.csv differs from the events the steps returned")
    drifts = [e for e in logged if e[2] == "drift"]
    replaces = [e for e in logged if e[2] == "replace"]
    if report["drift_count"] != len(drifts) or report["replacement_count"] != len(replaces):
        problems.append(
            f"report counts ({report['drift_count']}, {report['replacement_count']}) != "
            f"events.csv ({len(drifts)}, {len(replaces)})"
        )
    if not retrains and (drifts or replaces):
        problems.append("a train-once method logged drift or replacement events")
    last_drift: dict[str, int] = {}
    for seq, member, kind in logged:
        if kind == "drift":
            prev = last_drift.get(member)
            if prev is not None and seq - prev <= shadow_eval_size:
                problems.append(f"{member}: drift at {seq} while the shadow from {prev} was under comparison")
            last_drift[member] = seq
        else:
            prev = last_drift.pop(member, None)
            if prev is None or seq - prev < shadow_eval_size:
                problems.append(f"{member}: replace at {seq} without a drift {shadow_eval_size} or more earlier")
    return problems


def check_wide_stream(stream_path: Path, raw_rows: int, missing_target_rows: int, categoricals) -> list[str]:
    """Row count, date order and one-hot blocks of the preprocessed wide stream."""
    with stream_path.open(newline="") as fh:
        fh.readline()  # schema manifest
        reader = csv.reader(fh)
        header = next(reader)
        values = np.array([[float(v) for v in row[:-1]] for row in reader if row])
    problems = []
    if values.shape[0] != raw_rows - missing_target_rows:
        problems.append(f"{values.shape[0]} rows, expected {raw_rows} - {missing_target_rows} missing targets")
    day = values[:, header.index("day_index")]
    if np.any(np.diff(day) < 0):
        problems.append("day_index decreases after the date sort")
    for name in categoricals:
        block = [j for j, col in enumerate(header[:-1]) if col.startswith(f"{name}=")]
        if not block:
            problems.append(f"no one-hot columns for {name}")
        elif np.any(values[:, block].sum(axis=1) != 1.0):
            problems.append(f"one-hot block of {name} does not sum to 1 on every row")
    return problems
