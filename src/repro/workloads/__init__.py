"""Workload generators for the paper's experiments.

- :mod:`~repro.workloads.distributions` — key choosers (uniform,
  zipfian);
- :mod:`~repro.workloads.generator` — the Section 6.2 key-value
  workload (keys 5–12 bytes, values 20 bytes; read-only / write-only /
  mixed / range);
- :mod:`~repro.workloads.wiki` — the Figure 1 wiki-page versioning
  workload (10 pages × 16 KB, localized edits).
"""

from repro.workloads.distributions import UniformChooser, ZipfChooser
from repro.workloads.generator import Operation, OpKind, WorkloadGenerator
from repro.workloads.wiki import WikiWorkload

__all__ = [
    "Operation",
    "OpKind",
    "UniformChooser",
    "WikiWorkload",
    "WorkloadGenerator",
    "ZipfChooser",
]
