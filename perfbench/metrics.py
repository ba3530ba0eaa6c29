"""Metric catalogue (name -> unit) and the statistics every number uses.

``BENCHMARK.json`` declares the same names and units; the smoke test
cross-checks the two.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "stored_bytes_per_user_byte": "ratio",
    "peak_rss_mb": "MB",
}

#: What a client waits for.  Run to run none of these holds a bound of
#: 0.10 here, so none is bounded (README, "Bounds"): they are per-layer
#: metrics, measured in every mode and kept in every run record.
TIMINGS: Dict[str, str] = {
    "e2e.ops_per_s": "1/s",
    "e2e.get_p50_ms": "ms",
    "e2e.get_p95_ms": "ms",
    "e2e.mget_p50_ms": "ms",
    "e2e.mget_p95_ms": "ms",
    "e2e.scan_p50_ms": "ms",
    "e2e.scan_p95_ms": "ms",
    "e2e.put_p50_ms": "ms",
    "e2e.put_p95_ms": "ms",
}

#: Span name -> the per-layer metric reporting its mean self-time.
SPAN_METRICS: Dict[str, str] = {
    "bench.driver": "bench.driver_us",
    "serve.client": "serve.http.transport_us",
    "serve.codec.client": "serve.codec.client_us",
    "serve.codec.server": "serve.codec.server_us",
    "serve.server.edge": "serve.server.edge_us",
    "core.node": "core.node.queue_us",
    "core.request_handler": "core.request_handler.handle_us",
    "core.database.read": "core.database.read_us",
    "core.database.write": "core.database.write_us",
    "txn.commit": "txn.commit_us",
    "core.ledger.prove": "core.ledger.prove_us",
    "core.ledger.append": "core.ledger.append_us",
    "indexes.pos_tree.lookup": "indexes.pos_tree.lookup_us",
    "indexes.pos_tree.apply": "indexes.pos_tree.apply_us",
    "indexes.siri.codec": "indexes.siri.codec_us",
    "forkbase.chunk_store.put": "forkbase.chunk_store.put_us",
    "forkbase.chunk_store.get": "forkbase.chunk_store.get_us",
    "core.verifier": "core.verifier.verify_us",
    "durability.wal.append": "durability.wal.append_us",
    "durability.wal.fsync": "durability.wal.fsync_us",
}

PER_LAYER: Dict[str, str] = {
    **{name: "us" for name in SPAN_METRICS.values()},
    "serve.client.submit_us": "us",
    "serve.wire_bytes_per_op": "B",
    "serve.codec.body_bytes_per_op": "B",
    "serve.codec.framing_ratio": "ratio",
    "indexes.pos_tree.nodes_per_lookup": "count",
    "indexes.pos_tree.nodes_written_per_put": "count",
    "indexes.siri.codec_calls_per_op": "count",
    "forkbase.chunk_store.bytes_per_put": "B",
    "forkbase.chunk_store.dedup_share": "ratio",
    "crypto.hashing.calls_per_op": "count",
    "crypto.hashing.bytes_per_op": "B",
    "core.verifier.cache_hit_share": "ratio",
    "core.verifier.proof_nodes_per_op": "count",
    "core.verifier.proof_bytes_per_op": "B",
    "durability.wal.fsyncs_per_put": "count",
    "durability.wal.bytes_per_put": "B",
    "durability.recovery_s": "s",
    "durability.recovery.checkpoint_load_s": "s",
    "durability.recovery.replay_s": "s",
    "durability.recovery.records_replayed": "count",
    **TIMINGS,
    # The same as the clock read them: no scaling, no gate.
    "bench.raw_setup_s": "s",
    "bench.raw_ops_per_s": "1/s",
    "bench.raw_get_p50_ms": "ms",
    "bench.raw_mget_p50_ms": "ms",
    "bench.raw_scan_p50_ms": "ms",
    "bench.raw_put_p50_ms": "ms",
    "bench.rss_kb_per_put": "kB",
    "bench.trace_overhead_share": "ratio",
    "bench.calib_ms": "ms",
    "bench.speed_spread_share": "ratio",
    "bench.steady_share": "ratio",
    "bench.round_spread_share": "ratio",
    "bench.warmup_drift_share": "ratio",
}


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    first, _middle, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
