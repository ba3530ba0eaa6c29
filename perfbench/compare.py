"""Compare sets of run records against the benchmark's own bounds.

    python -m perfbench.compare A.jsonl B.jsonl
    python -m perfbench.compare A.jsonl
    python -m perfbench.compare --bounds A.jsonl [B.jsonl ...]

A set is a JSONL file of run records (``run.py --out``), several runs
per workload.  With two sets, each workload gets a row per end-to-end
metric and per unbounded timing (``e2e.*``): both medians, the relative
change (positive is worse), the bound from ``BENCHMARK.json`` and a
verdict — ``worse`` when B's median is worse than A's by more than the
bound, ``unresolved`` when either set's own spread (distance between
its quartiles as a share of its median) is wider than the bound,
``missing`` when a set has no run of that workload with that metric,
else ``ok``; a timing has no bound and its verdict is ``unbounded``.
Exit status 1 if any end-to-end row is not ``ok``.  With one set: each
metric's median, minimum, maximum, largest deviation from the median
and spread.  ``--bounds``: the bound the rule in the README gives each
metric from these sets.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from perfbench.metrics import iqr_share

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: The least bound a metric may get, by the first matching name ending:
#: narrower than this and the noise of a quiet day fails an honest PR.
FLOORS = (
    ("_p50_ms", 0.05),
    ("ops_per_s", 0.05),
    ("_p95_ms", 0.08),
    ("setup_s", 0.08),
    ("peak_rss_mb", 0.03),
    ("_per_user_byte", 0.01),
)

Runs = Dict[str, Dict[str, List[float]]]


def load(path: str) -> Runs:
    """workload -> metric -> that metric's value in each run: the
    end-to-end metrics and the unbounded timings of the workload's mix."""
    values: Runs = defaultdict(lambda: defaultdict(list))
    with open(path) as lines:
        for line in lines:
            record = json.loads(line)
            measured = {**record["end_to_end"], **record.get("timings", {})}
            for name, value in measured.items():
                if value:
                    values[record["workload"]][name].append(value)
    return values


def largest_deviation(runs: List[float]) -> float:
    median = statistics.median(runs)
    return max(abs(value / median - 1.0) for value in runs)


def describe(path: str) -> int:
    for workload, metrics in load(path).items():
        print(f"{workload}")
        print(
            f"  {'metric':28s} {'runs':>4s} {'median':>12s} {'min':>12s} "
            f"{'max':>12s} {'max dev':>8s} {'spread':>8s}"
        )
        for name, runs in metrics.items():
            print(
                f"  {name:28s} {len(runs):4d} {statistics.median(runs):12.4f} "
                f"{min(runs):12.4f} {max(runs):12.4f} "
                f"{largest_deviation(runs):8.4f} {iqr_share(runs):8.4f}"
            )
    return 0


def bounds(paths: List[str]) -> int:
    """Per metric: max(floor, 2 x the largest relative deviation of any
    run from its own set's and workload's median)."""
    worst: Dict[str, float] = defaultdict(float)
    for path in paths:
        for metrics in load(path).values():
            for name, runs in metrics.items():
                worst[name] = max(worst[name], largest_deviation(runs))
    print(f"{'metric':28s} {'max dev':>8s} {'floor':>6s} {'bound':>7s}")
    for name, deviation in worst.items():
        floor = next(low for ending, low in FLOORS if name.endswith(ending))
        print(
            f"{name:28s} {deviation:8.4f} {floor:6.2f} "
            f"{max(floor, 2 * deviation):7.4f}"
        )
    return 0


def compare(path_a: str, path_b: str) -> int:
    declared = json.loads(BENCHMARK.read_text())
    bounded = {metric["name"]: metric for metric in declared["end_to_end"]}
    known = {
        **bounded, **{metric["name"]: metric for metric in declared["per_layer"]}
    }
    set_a, set_b = load(path_a), load(path_b)
    not_ok = 0
    for workload in dict.fromkeys([*set_a, *set_b]):
        print(f"{workload}")
        print(
            f"  {'metric':28s} {'A median':>12s} {'B median':>12s} "
            f"{'change':>8s} {'bound':>6s} {'spread':>8s}  verdict"
        )
        of_a, of_b = set_a.get(workload, {}), set_b.get(workload, {})
        for name in dict.fromkeys([*bounded, *of_a, *of_b]):
            runs_a, runs_b = of_a.get(name), of_b.get(name)
            present = {"A": runs_a, "B": runs_b, "BENCHMARK.json": name in known}
            missing = [where for where, there in present.items() if not there]
            if missing:
                not_ok += 1
                print(f"  {name:28s} missing in {', '.join(missing)}")
                continue
            median_a = statistics.median(runs_a)
            median_b = statistics.median(runs_b)
            change = median_b / median_a - 1.0
            if known[name]["better"] == "higher":
                change = -change
            spread = max(iqr_share(runs_a), iqr_share(runs_b))
            if name not in bounded:
                bound, verdict = "-", "unbounded"
            else:
                bound = bounded[name]["bound"]
                if change > bound:
                    verdict = "worse"
                elif spread > bound:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                not_ok += verdict != "ok"
            print(
                f"  {name:28s} {median_a:12.4f} {median_b:12.4f} "
                f"{change:+8.4f} {bound:>6} {spread:8.4f}  {verdict}"
            )
    return 1 if not_ok else 0


def main(argv: List[str]) -> int:
    if argv[:1] == ["--bounds"] and len(argv) > 1:
        return bounds(argv[1:])
    if len(argv) == 1:
        return describe(argv[0])
    if len(argv) == 2:
        return compare(argv[0], argv[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
