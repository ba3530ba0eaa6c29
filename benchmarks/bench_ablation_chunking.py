"""Ablation 4 — content-defined vs fixed-size chunking (extends Fig 1).

Figure 1's dedup gain depends on the chunker resynchronizing after
localized edits.  This ablation measures the dedup ratio and the
chunking throughput of both strategies on the wiki workload.  Its edits
overwrite a slice in place, which shifts no later chunk, so there the
two strategies dedup within noise of each other; the insertion that
separates them is asserted in ``tests/integration/test_bench_shapes.py``
(``test_rolling_chunks_beat_fixed_after_a_mid_page_insertion``).
"""

import pytest

from repro.forkbase.chunker import FixedSizeChunker, RollingChunker
from repro.forkbase.store import ForkBase
from repro.workloads.wiki import WikiWorkload


def _dedup_ratio(chunker, versions=30):
    wiki = WikiWorkload(seed=11)
    store = ForkBase(chunker=chunker)
    for page, content in wiki.initial_pages():
        store.put(page, content)
    store.commit("v1")
    for edit in wiki.edits(versions):
        store.put(edit.page, edit.content)
        store.commit(f"v{edit.version}")
    return store.stats.dedup_ratio


@pytest.mark.parametrize(
    "label,chunker",
    [
        ("rolling", RollingChunker()),
        ("fixed-4k", FixedSizeChunker(4096)),
        ("fixed-512", FixedSizeChunker(512)),
    ],
)
def test_chunking_throughput(benchmark, label, chunker):
    wiki = WikiWorkload(seed=11)
    pages = [content for _page, content in wiki.initial_pages()]

    def chunk_all():
        return [chunker.split(page) for page in pages]

    benchmark(chunk_all)


def test_rolling_dedup_beats_naive():
    assert _dedup_ratio(RollingChunker()) > 1.5


@pytest.mark.parametrize("mask_bits", [8, 11, 14])
def test_rolling_chunk_size_sweep(benchmark, mask_bits):
    """Expected chunk size (2^mask_bits) vs chunking cost."""
    chunker = RollingChunker(mask_bits=mask_bits)
    wiki = WikiWorkload(seed=11)
    pages = [content for _page, content in wiki.initial_pages()]
    benchmark(lambda: [chunker.split(page) for page in pages])
