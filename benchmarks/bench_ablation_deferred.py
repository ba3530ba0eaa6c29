"""Ablation 3 — deferred vs online verification (Section 5.3).

"To improve verification throughput, we use a deferred scheme, which
means the transactions are verified asynchronously in batch."  The
sweep measures the verified-writer batch effect at batch sizes 1
(online) through 64, and a warm verifier against a cold one.
"""

import itertools

import pytest

from repro.core.verifier import ClientVerifier, VerifiedWriter


@pytest.mark.parametrize("batch_size", [1, 16, 64])
def test_deferred_verified_writes(benchmark, gen, spitz, batch_size):
    ops = itertools.cycle(list(gen.writes(512)))
    verifier = ClientVerifier()
    verifier.trust(spitz.digest())
    writer = VerifiedWriter(spitz, verifier, batch_size=batch_size)

    def verified_write():
        op = next(ops)
        writer.put(op.key, op.value)

    benchmark(verified_write)
    writer.flush()


def test_deferred_amortizes_shared_path_checks():
    """Quantitative claim behind the scheme: consecutive proofs share
    the ledger's upper nodes, so a warm verifier checks fewer raw
    bytes per proof than a cold one."""
    import time

    from repro.core.database import SpitzDatabase
    from repro.workloads.generator import WorkloadGenerator

    gen = WorkloadGenerator(4000, seed=9)
    db = SpitzDatabase(block_batch=64)
    for key, value in gen.records():
        db.put(key, value)
    db.flush_ledger()
    keys = [op.key for op in gen.reads(400)]
    proofs = [db.get_verified(key)[1] for key in keys]
    digest = db.digest()

    cold_verifier = ClientVerifier()
    cold_verifier.trust(digest)
    start = time.perf_counter()
    for proof in proofs[:100]:
        assert cold_verifier.verify(proof)
    cold = time.perf_counter() - start

    # Same verifier, now warm: the shared upper levels are cached.
    start = time.perf_counter()
    for proof in proofs[100:400]:
        assert cold_verifier.verify(proof)
    warm = (time.perf_counter() - start) / 3

    assert warm < cold
