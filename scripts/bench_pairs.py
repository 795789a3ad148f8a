#!/usr/bin/env python3
"""Run the benchmark in two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py DIR_A DIR_B --workload record-replay \\
        --pairs 10 --seconds 20 --seed 401

Pair i runs ``bench/run.py --workload W --seed S0+i --seconds S`` in both
checkouts, A first in even pairs and B first in odd ones, so a drift in
the machine's speed falls on both sides alike. The output is one JSON
line: for each end-to-end metric that BENCHMARK.json declares, the median
and quartiles of each side, B's value over A's in each pair, and how many
pairs B won (a tie counts for neither side) and a verdict, the first of
these that holds, with the metric's bound from BENCHMARK.json:

- ``regression``: B's median is worse than A's by more than the bound;
- ``unresolved``: A's interquartile range exceeds the bound times A's
  median, and not every run of B reads better than every run of A;
- ``gain``: B won at least 9 in 10 pairs, and its median is better than
  A's by more than A's interquartile range;
- ``no regression``.

Also the failed and attempted operations of each side, each side's
failed share (failed / attempted), and a ``fail_share`` verdict:
``regression`` when B's share exceeds A's, else ``no regression``.
The exit status is 2, the CLI's threshold code, when any verdict is
``regression``, and 0 otherwise. Stdlib only.

``--out FILE`` also writes the line, indented, to FILE with where it was
measured: the host's processor count, the Python version, and each
checkout's git commit and whether its files differ from that commit
(null outside git).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float, metric_names: list[str]
) -> dict:
    """The result line, the last line of stdout, of one untraced benchmark run.

    It must be a JSON object with integer ``attempted`` and ``failed`` and a
    ``metrics`` object that holds, for each of ``metric_names``, an object
    with a numeric ``value``.
    """
    command = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"error: bench/run.py in {checkout} exited with {proc.returncode}:"
            f" {proc.stderr.strip()[-500:]}"
        )
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    metrics = result.get("metrics") if isinstance(result, dict) else None
    if not (
        isinstance(metrics, dict)
        and type(result.get("attempted")) is int
        and type(result.get("failed")) is int
        and all(
            isinstance(metrics.get(name), dict)
            and type(metrics[name].get("value")) in (int, float)
            for name in metric_names
        )
    ):
        raise SystemExit(
            f"error: bench/run.py in {checkout} ended with no result line: {lines[-1][-500:]!r}"
        )
    return result


def checkout_commit(checkout: Path) -> dict:
    """The checkout's git commit and whether its files differ from it; nulls outside git."""

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=checkout, capture_output=True, text=True, check=False
        )

    try:
        head = git("rev-parse", "HEAD")
    except OSError:  # no git
        head = None
    if head is None or head.returncode != 0:
        return {"commit": None, "modified": None}
    return {"commit": head.stdout.strip(), "modified": bool(git("status", "--porcelain").stdout)}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def verdict(a: list[float], b: list[float], higher: bool, bound: float, wins_b: int) -> str:
    """B's verdict against A on one metric, by the rules in the module docstring."""
    sign = 1 if higher else -1
    median_a = statistics.median(a)
    gain = sign * (statistics.median(b) - median_a)  # > 0 when B's median is better
    q1, q3 = quartiles(a)
    if gain < -bound * abs(median_a):
        return "regression"
    if q3 - q1 > bound * abs(median_a) and not all(sign * (y - x) > 0 for x in a for y in b):
        return "unresolved"
    if 10 * wins_b >= 9 * len(a) and gain > q3 - q1:
        return "gain"
    return "no regression"


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> dict:
    """Compare the result lines of A and B, pair by pair, on every metric.

    ``end_to_end`` holds BENCHMARK.json's entries (``name``, ``better``,
    ``bound``).
    """
    metrics = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        a = [result_a["metrics"][name]["value"] for result_a, _ in pairs]
        b = [result_b["metrics"][name]["value"] for _, result_b in pairs]
        wins_b = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        metrics[name] = {
            "better": spec["better"],
            "median_a": statistics.median(a),
            "median_b": statistics.median(b),
            "quartiles_a": quartiles(a),
            "quartiles_b": quartiles(b),
            "ratios": [round(y / x, 4) if x else None for x, y in zip(a, b)],
            "wins_b": wins_b,
            "verdict": verdict(a, b, higher, spec["bound"], wins_b),
        }
    attempted = [sum(r[side]["attempted"] for r in pairs) for side in (0, 1)]
    failed = [sum(r[side]["failed"] for r in pairs) for side in (0, 1)]
    share = [f / a if a else 0.0 for f, a in zip(failed, attempted)]
    return {
        "pairs": len(pairs),
        "attempted": attempted,
        "failed": failed,
        "fail_share": {
            "a": share[0],
            "b": share[1],
            "verdict": "regression" if share[1] > share[0] else "no regression",
        },
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path, help="checkout A, usually the parent")
    parser.add_argument("dir_b", type=Path, help="checkout B, usually the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", type=Path, help="also write the result, with the host, here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    end_to_end = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    metric_names = [spec["name"] for spec in end_to_end]

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        results = [None, None]
        for side in order:
            checkout = (args.dir_a, args.dir_b)[side]
            print(f"pair {i + 1}/{args.pairs}: {'AB'[side]} seed {seed}", file=sys.stderr)
            results[side] = run_once(checkout, args.workload, seed, args.seconds, metric_names)
        pairs.append((results[0], results[1]))
    summary = summarize(pairs, end_to_end)
    line = {
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        **summary,
    }
    print(json.dumps(line))
    if args.out is not None:
        host = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "checkouts": {"a": checkout_commit(args.dir_a), "b": checkout_commit(args.dir_b)},
        }
        args.out.write_text(json.dumps({**line, **host}, indent=2) + "\n", encoding="utf-8")
    verdicts = [m["verdict"] for m in summary["metrics"].values()]
    verdicts.append(summary["fail_share"]["verdict"])
    return 2 if "regression" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
