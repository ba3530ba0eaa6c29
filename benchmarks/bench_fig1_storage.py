"""Figure 1 — storage growth with version count (wiki workload).

Regenerates the paper's introductory figure: 10 wiki pages of 16 KB,
one localized edit per version; naive snapshot storage vs ForkBase's
content-based deduplication.  The benchmarked operation is storing one
full version round (Figure 1's unit of work); the storage-size series
itself is printed by ``python -m repro.bench.harness --figure 1``.
"""

import pytest

from repro.forkbase.chunker import FixedSizeChunker, RollingChunker
from repro.forkbase.store import ForkBase
from repro.workloads.wiki import WikiWorkload


def _load_versions(chunker, versions=20):
    wiki = WikiWorkload(seed=7)
    store = ForkBase(chunker=chunker)
    for page, content in wiki.initial_pages():
        store.put(page, content)
    store.commit("v1")
    for edit in wiki.edits(versions):
        store.put(edit.page, edit.content)
        store.commit(f"v{edit.version}")
    return store


def test_forkbase_versioned_store_dedup(benchmark):
    """Store 20 wiki versions with content-defined chunking."""
    store = benchmark(_load_versions, RollingChunker())
    report = store.storage_report()
    assert report["dedup_ratio"] > 1.5


def test_forkbase_versioned_store_fixed_chunks(benchmark):
    """Ablation: same load with fixed-size chunking (weaker dedup)."""
    store = benchmark(_load_versions, FixedSizeChunker(4096))
    assert store.storage_report()["physical_bytes"] > 0


def test_fig1_shape_dedup_beats_naive():
    """Shape assertion: ForkBase beats the naive snapshot store.

    Whether content-defined chunking beats fixed-size chunking is
    asserted on a mid-page insertion in
    ``tests/integration/test_bench_shapes.py``: these edits overwrite in
    place, shift nothing, and leave the two chunkers within noise.
    """
    from repro.workloads.wiki import naive_storage_bytes

    wiki = WikiWorkload(seed=7)
    initial = wiki.initial_pages()
    edits = wiki.edits(30)
    naive = naive_storage_bytes(initial, edits)
    rolling = _load_versions(RollingChunker(), 30)
    assert rolling.stats.physical_bytes < naive
