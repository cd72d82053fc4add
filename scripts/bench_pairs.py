"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W \
        [--seed N] [--pairs 10] [--seconds 30] [--claim METRIC]

Each pair runs ``perfbench/run.py --workload W --seed N --seconds S`` once in
each checkout, one after the other; the side that goes first alternates from
pair to pair. The last JSON line of each run is its result. A run that exits
non-zero, reads ``correct: false`` or counts ``failed > 0`` voids its pair.

The script prints every end-to-end metric of every pair, then per metric each
side's median and quartiles over the valid pairs, how many pairs the change
won, and whether the change's median is within the metric's ``bound`` of the
parent's. ``better`` and ``bound`` come from the ``BENCHMARK.json`` at the
root of the checkout this script lives in. ``--claim METRIC`` also prints
whether a gain in METRIC holds by the rule: the change wins at least 9 of
every 10 pairs, voided pairs counting as lost, and its median beats the
parent's by more than the parent's interquartile range.

It exits 1 when the claim does not hold. It writes nothing itself;
``perfbench/run.py`` keeps its work files in each checkout's ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its exit code and its last JSON line, or None for a run that printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {"returncode": proc.returncode, "result": result}


def void_reason(run: dict) -> str | None:
    """Why a run voids its pair, or None for a valid run."""
    result = run["result"]
    if run["returncode"] != 0:
        return f"exit {run['returncode']}"
    if result is None:
        return "no JSON line"
    if result.get("correct") is not True:
        return "correct: false"
    if result.get("failed", 0) > 0:
        return f"failed {result['failed']}"
    return None


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def _won(change: float, parent: float, better: str) -> bool:
    return change > parent if better == "higher" else change < parent


def pair_values(pair: dict) -> dict | None:
    """Each side's metric values, or None for a voided pair."""
    if any(void_reason(pair[side]) for side in SIDES):
        return None
    return {side: {m: v["value"] for m, v in pair[side]["result"]["metrics"].items()} for side in SIDES}


def pair_line(number: int, pair: dict, end_to_end: list[dict]) -> str:
    head = f"pair {number} ({pair['first']} first):"
    values = pair_values(pair)
    if values is None:
        reasons = [f"{side} {reason}" for side in SIDES if (reason := void_reason(pair[side]))]
        return f"{head} void ({', '.join(reasons)})"
    return head + "".join(
        f"  {name} {values['parent'][name]:.6g} / {values['change'][name]:.6g}"
        for name in (spec["name"] for spec in end_to_end)
    )


def summarize(pairs: list[dict], end_to_end: list[dict], claim: str | None = None) -> tuple[list[str], bool | None]:
    """The report's lines, and whether the claim holds (None without ``--claim``).

    ``pairs`` holds one dict per pair: ``parent`` and ``change`` runs as
    ``run_once`` returns them, and ``first``, the side that ran first.
    """
    lines = [pair_line(number, pair, end_to_end) for number, pair in enumerate(pairs, 1)]
    valid = [values for values in map(pair_values, pairs) if values is not None]
    lines.append(f"{len(valid)} of {len(pairs)} pairs valid; each metric reads parent / change")
    holds = None
    for spec in end_to_end:
        name, better, bound = spec["name"], spec["better"], spec["bound"]
        if not valid:
            lines.append(f"{name}: no valid pair")
            holds = False if name == claim else holds
            continue
        parent = [v["parent"][name] for v in valid]
        change = [v["change"][name] for v in valid]
        (p1, pm, p3), (c1, cm, c3) = _quartiles(parent), _quartiles(change)
        wins = sum(_won(c, p, better) for p, c in zip(parent, change))
        worse = (pm - cm if better == "higher" else cm - pm) / pm if pm else 0.0
        lines.append(
            f"{name} ({better} is better): parent median {pm:.6g} [{p1:.6g}, {p3:.6g}], "
            f"change median {cm:.6g} [{c1:.6g}, {c3:.6g}] ({(cm - pm) / pm if pm else 0.0:+.1%}); "
            f"change wins {wins} of {len(valid)}; "
            f"{'within' if worse <= bound else 'BEYOND'} its bound of {bound:.0%}"
        )
        if name == claim:
            gap, iqr = (cm - pm if better == "higher" else pm - cm), p3 - p1
            enough = 10 * wins >= 9 * len(pairs)
            holds = enough and gap > iqr
            lines.append(
                f"claim {name}: change wins {wins} of {len(pairs)} pairs (needs at least 9 of 10) "
                f"and its median gain {gap:.6g} {'exceeds' if gap > iqr else 'does not exceed'} "
                f"the parent's IQR {iqr:.6g}: {'HOLDS' if holds else 'DOES NOT HOLD'}"
            )
    return lines, holds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent commit's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the changed checkout")
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--claim", default=None, help="an end-to-end metric whose gain to judge")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.claim is not None and args.claim not in [m["name"] for m in benchmark["end_to_end"]]:
        parser.error(f"--claim {args.claim!r} is no end-to-end metric of BENCHMARK.json")
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    checkouts = {"parent": args.parent, "change": args.change}
    pairs = []
    for number in range(1, args.pairs + 1):
        order = SIDES if number % 2 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, args.seed, args.seconds)
        pairs.append(pair)
        print(pair_line(number, pair, benchmark["end_to_end"]), flush=True)
    print(f"== {args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    lines, holds = summarize(pairs, benchmark["end_to_end"], args.claim)
    print("\n".join(lines))
    return 0 if holds is not False else 1


if __name__ == "__main__":
    raise SystemExit(main())
