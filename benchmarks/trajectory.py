"""The benchmark's trajectory: one file that a PR cites and CI diffs.

Reads the paired perfbench runs each PR commits,
``benchmarks/results/prNN_{parent,change}.jsonl``, and writes
``BENCH_TRAJECTORY.json`` at the repository root: for every PR, every
workload it ran and every end-to-end metric ``BENCHMARK.json`` bounds,
the parent's and the change's median over that PR's runs and the
change between them as a share of the parent's median; after the run
set numbered ``DRIFT_FROM``, also the change's median as a share of
that set's change median (``since_prNN``, NN that number), the drift
the changes since then add up to.  Traced runs (``*_layers.jsonl``)
carry no end-to-end metrics and are not read.

    python benchmarks/trajectory.py

Standard library only; the output is a pure function of the committed
runs, so CI regenerates it and fails on any difference.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"
OUTPUT = ROOT / "BENCH_TRAJECTORY.json"
_RUNS = re.compile(r"pr(\d+)_(parent|change)\.jsonl")
#: The run set (``prNN_*.jsonl``, NN this number) that the later run
#: sets' ``since_prNN`` is measured against.
DRIFT_FROM = 30


def _values(path: Path, metrics: List[str]) -> Dict[str, Dict[str, list]]:
    """Workload → metric → the value of every run in ``path``."""
    found: Dict[str, Dict[str, list]] = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        by_metric = found.setdefault(record["workload"], {})
        for name in metrics:
            if name in record["end_to_end"]:
                by_metric.setdefault(name, []).append(
                    record["end_to_end"][name]
                )
    return found


def trajectory() -> Dict[str, object]:
    bounded = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    metrics = [metric["name"] for metric in bounded]
    sides: Dict[int, Dict[str, dict]] = {}
    for path in RESULTS.iterdir():
        match = _RUNS.fullmatch(path.name)
        if match:
            pr, side = int(match.group(1)), match.group(2)
            sides.setdefault(pr, {})[side] = _values(path, metrics)
    prs = {}
    for pr, runs in sorted(sides.items()):
        parent, change = runs.get("parent", {}), runs.get("change", {})
        rows = {}
        for workload in sorted(set(parent) & set(change)):
            row = {}
            for name in metrics:
                before = parent[workload].get(name)
                after = change[workload].get(name)
                if not (before and after):
                    continue
                medians = statistics.median(before), statistics.median(after)
                row[name] = {
                    "parent": round(medians[0], 6),
                    "change": round(medians[1], 6),
                    "change_share": round(medians[1] / medians[0] - 1, 4),
                    "runs": [len(before), len(after)],
                }
            rows[workload] = row
        prs[f"pr{pr}"] = rows
    _add_drift(prs)
    return {
        "source": "benchmarks/results/prNN_{parent,change}.jsonl",
        "metrics": {
            metric["name"]: {k: v for k, v in metric.items() if k != "name"}
            for metric in bounded
        },
        "prs": prs,
    }


def _add_drift(prs: Dict[str, dict]) -> None:
    """After the run set numbered :data:`DRIFT_FROM`, give each row
    ``since_prNN`` (NN that number): its change median as a share of
    that set's change median for the same workload and metric — the
    drift that a series of changes each inside its bound adds up to,
    which no single ``change_share`` shows."""
    anchor = prs.get(f"pr{DRIFT_FROM}", {})
    key = f"since_pr{DRIFT_FROM}"
    for name, rows in prs.items():
        if int(name[2:]) <= DRIFT_FROM:
            continue
        for workload, row in rows.items():
            for metric, cell in row.items():
                base = anchor.get(workload, {}).get(metric)
                if base:
                    cell[key] = round(
                        cell["change"] / base["change"] - 1, 4
                    )


def main() -> int:
    OUTPUT.write_text(json.dumps(trajectory(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
