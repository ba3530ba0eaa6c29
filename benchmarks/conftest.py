"""Shared fixtures for the benchmark suite.

Each fixture loads one system with a paper-style workload at a size
chosen by ``SPITZ_BENCH_N`` (default 2000 — small enough for CI, big
enough for index depth to matter).  Loading happens once per module;
``pytest-benchmark`` then times the measured operation only.

The paper's Figures 6–8 (all sizes, all series) live in
``repro.bench.harness``; run ``python -m repro.bench.harness`` for
those.  This suite (Figure 1 and the ablations) feeds ``pytest
benchmarks/ --benchmark-only``.
"""

import gc
import os

import pytest

from repro.baseline.ledger_db import BaselineLedgerDB
from repro.core.database import SpitzDatabase
from repro.workloads.generator import WorkloadGenerator

BENCH_N = int(os.environ.get("SPITZ_BENCH_N", "2000"))
SEED = 1


@pytest.fixture(scope="module")
def gen():
    return WorkloadGenerator(BENCH_N, seed=SEED)


@pytest.fixture(scope="module")
def spitz(gen):
    system = SpitzDatabase(block_batch=64)
    for key, value in gen.records():
        system.put(key, value)
    system.flush_ledger()
    gc.collect()
    return system


@pytest.fixture(scope="module")
def baseline(gen):
    system = BaselineLedgerDB()
    for key, value in gen.records():
        system.put(key, value)
    gc.collect()
    return system

