#!/usr/bin/env python3
"""perfbench entry point: one workload, one process invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures and prints the end-to-end metrics, ``--trace 1``
the per-layer metrics; without ``--trace`` the run does both and prints
every metric by name with its unit first.  The last stdout line is
always ``{"correct", "attempted", "failed", "metrics"}``.  See
perfbench/README.md for the protocol and the catalogue.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("perfbench: no src/repro beside perfbench/; nothing to measure")
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from typing import Dict, List, Mapping, Optional  # noqa: E402

from repro.core.verifier import ClientVerifier  # noqa: E402
from repro.durability import DurableDatabase  # noqa: E402
from repro.durability import recovery as recovery_module  # noqa: E402

from perfbench import engines, probes  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SPAN_METRICS,
    TIMINGS,
    iqr_share,
    percentile,
)
from perfbench.speed import Gate, across_rounds, scale  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    OpStream,
    Workload,
    make_dataset,
    op_keys,
)

WARMUP_SLICES = 5


def kind_stats(samples, gate: Gate) -> Dict[str, Dict[str, float]]:
    """Per kind: p50/p95/p99/max in ms and the mean in ns at the
    reference speed over the steady samples (all, where too few are; see
    ``speed``), their number, and the p50 as the clock read it."""
    by_kind = defaultdict(list)
    for sample in samples:
        by_kind[sample.kind].append(sample)
    stats = {}
    for kind, of_kind in by_kind.items():
        used, steady = gate.steady_or_all(of_kind)
        values = sorted(
            scale(sample.raw_ns, sample.mean_spin) for sample in used
        )
        stats[kind] = {
            "n": len(of_kind),
            "n_used": len(used),
            "steady": steady,
            "p50_ms": percentile(values, 50) / 1e6,
            "p95_ms": percentile(values, 95) / 1e6,
            "p99_ms": percentile(values, 99) / 1e6,
            "max_ms": values[-1] / 1e6,
            "mean_ns": statistics.fmean(values),
            "raw_p50_ms": statistics.median(s.raw_ns for s in of_kind) / 1e6,
        }
    return stats


def run_rounds(client, stream, counts: Mapping[str, int], rounds: int):
    """``rounds`` rounds of ``counts`` ops; one ``Measured`` each.

    Between rounds, outside any timing: generate the round's ops and
    collect garbage.
    """
    measured = []
    for _ in range(rounds):
        ops = stream.batch(counts)
        gc.collect()
        measured.append(client.run(ops))
    return measured


def round_stats(measured, gate: Gate) -> Dict[str, object]:
    """Every statistic of one round, from its steady slices."""
    used, steady = gate.steady_or_all(measured.slices)
    return {
        "steady": steady,
        "ops_per_s": (
            sum(piece.succeeded for piece in used)
            / sum(
                scale(piece.raw_seconds, piece.mean_spin)
                for piece in used
            )
        ),
        "raw_ops_per_s": (
            sum(piece.succeeded for piece in measured.slices)
            / sum(piece.raw_seconds for piece in measured.slices)
        ),
        "steady_share": statistics.fmean(
            sample.slower_spin <= gate.gate_ns for sample in measured.samples
        ),
        "median_spin_ms": statistics.median(measured.spins) / 1e6,
        "kinds": kind_stats(measured.samples, gate),
    }


def warmup_drift(samples, kind: str) -> float:
    """Is latency still moving when the warm-up ends?  The last two of
    ``WARMUP_SLICES`` slices' p50 of the mix's commonest kind, compared.
    """
    values = [
        sample.raw_ns / sample.mean_spin
        for sample in samples
        if sample.kind == kind
    ]
    width = len(values) // WARMUP_SLICES
    before = statistics.median(values[-2 * width:-width])
    last = statistics.median(values[-width:])
    return abs(last / before - 1.0)


def tamper_canary(client) -> bool:
    """Flip one value byte in a served proof; nobody may accept it.

    The honest proof must pass first, with the warm verifier and a cold
    one: a verifier that rejects everything would pass the second half.
    """
    keys = op_keys(client.dataset, ("get", 0, None))
    value, proof, digest = client.engine.call("get", keys, None)
    client.verifier.observe(digest)
    cold = ClientVerifier()
    cold.trust(digest)
    if not (client.verifier.verify(proof) and cold.verify(proof)):
        return False
    flipped = bytes([value[0] ^ 1]) + value[1:]
    nodes = proof.siri.nodes
    forged = dataclasses.replace(
        proof,
        siri=dataclasses.replace(
            proof.siri,
            value=flipped,
            nodes=nodes[:-1] + (nodes[-1].replace(value, flipped),),
        ),
    )
    cold = ClientVerifier()
    cold.trust(digest)
    return not client.verifier.verify(forged) and not cold.verify(forged)


def count_pass(client, engine, stream, workload: Workload) -> Dict[str, float]:
    """Exact counts over the next ``count_ops`` ops of the mix."""
    ops = stream.batch(workload.mix_counts(workload.count_ops))
    puts = sum(1 for op in ops if op[0] == "put")
    verifier = client.verifier
    before = engine.stats()
    wire_before = engine.wire_bytes()
    disk_before = engines.directory_bytes(engine.durable_root)
    hits_before, misses_before = verifier.cache_hits, verifier.cache_misses
    proof_bytes_before = client.proof_bytes

    recorder = probes.CountRecorder()
    installed = probes.Probes(recorder)
    if engine.http:
        engine.control(cmd="probe", mode="count")
    try:
        client.run(ops, size_proofs=True)
    finally:
        installed.remove()
    counted = [recorder.report()]
    if engine.http:
        counted.append(engine.control(cmd="unprobe"))

    after = engine.stats()
    delta = {name: after[name] - before[name] for name in after}
    disk = engines.directory_bytes(engine.durable_root) - disk_before
    proof_nodes = (
        verifier.cache_hits - hits_before + verifier.cache_misses - misses_before
    )
    proof_bytes = client.proof_bytes - proof_bytes_before
    body_bytes = counted[0]["bytes"].get("serve.codec.client", 0)

    def both(section: str, layer: str) -> int:
        return sum(report[section].get(layer, 0) for report in counted)

    def per(amount: float, base: float) -> float:
        return amount / base if base else 0.0

    n = len(ops)
    return {
        "serve.wire_bytes_per_op": (engine.wire_bytes() - wire_before) / n,
        "serve.codec.body_bytes_per_op": body_bytes / n,
        "serve.codec.framing_ratio": body_bytes / proof_bytes,
        "indexes.pos_tree.nodes_per_lookup": delta["chunk_gets"] / n,
        "indexes.pos_tree.nodes_written_per_put": per(delta["chunk_puts"], puts),
        "indexes.siri.codec_calls_per_op": both("calls", "indexes.siri.codec") / n,
        "forkbase.chunk_store.bytes_per_put": per(
            delta["chunk_physical_bytes"], puts
        ),
        "forkbase.chunk_store.dedup_share": per(
            delta["chunk_puts"] - delta["chunk_unique"], delta["chunk_puts"]
        ),
        "crypto.hashing.calls_per_op": both("calls", probes.HASHING) / n,
        "crypto.hashing.bytes_per_op": both("bytes", probes.HASHING) / n,
        "core.verifier.cache_hit_share": per(
            verifier.cache_hits - hits_before, proof_nodes
        ),
        "core.verifier.proof_nodes_per_op": proof_nodes / n,
        "core.verifier.proof_bytes_per_op": proof_bytes / n,
        "durability.wal.fsyncs_per_put": per(delta["wal_fsyncs"], puts),
        "durability.wal.bytes_per_put": per(disk, puts),
    }


def traced_pass(client, engine, stream, workload: Workload, work_dir: Path):
    """``traced_ops`` further ops with the span wrappers installed.

    Returns the ``Measured``, per-op self-nanoseconds by layer, per-op
    client round trips, and the spans of both processes.
    """
    ops = stream.batch(workload.mix_counts(workload.traced_ops))
    recorder = probes.SpanRecorder()
    installed = probes.Probes(recorder)
    if engine.http:
        engine.control(cmd="probe", mode="trace")
    try:
        measured = client.run(ops, recorder=recorder)
    finally:
        installed.remove()
    server_spans = []
    if engine.http:
        spans_file = work_dir / "server_spans.json"
        engine.control(cmd="unprobe", spans=str(spans_file))
        server_spans = [
            probes.Span(*row) for row in json.loads(spans_file.read_text())
        ]
    by_op, round_trips = probes.self_times(recorder.spans, server_spans)
    return measured, by_op, round_trips, recorder.spans + server_spans


def layer_times(samples, by_op, round_trips, gate: Gate):
    """Mean self-microseconds per op by layer, the same per kind, the
    mean client round trip (us) and the mean latency (ns), all over the
    traced pass's steady ops and at the reference speed.

    Spans are as the clock read them; an op's own latency sample says
    how fast the machine was running around it.
    """
    used, _steady = gate.steady_or_all(
        list(enumerate(samples)), slower_spin=lambda pair: pair[1].slower_spin
    )
    by_layer: Dict[str, float] = defaultdict(float)
    by_kind: Dict[str, Dict[str, float]] = {}
    kind_ops = defaultdict(int)
    round_trip_us = 0.0
    for number, sample in used:
        to_reference_us = scale(1e-3, sample.mean_spin)
        kind_ops[sample.kind] += 1
        row = by_kind.setdefault(sample.kind, defaultdict(float))
        for layer, nanoseconds in by_op[number].items():
            by_layer[layer] += nanoseconds * to_reference_us / len(used)
            row[layer] += nanoseconds * to_reference_us
        round_trip_us += round_trips.get(number, 0) * to_reference_us / len(used)
    table = {
        kind: {layer: total / kind_ops[kind] for layer, total in row.items()}
        for kind, row in by_kind.items()
    }
    mean_latency_ns = statistics.fmean(
        scale(sample.raw_ns, sample.mean_spin) for _number, sample in used
    )
    return dict(by_layer), table, round_trip_us, mean_latency_ns


def crash_and_recover(client, engine) -> Dict[str, float]:
    """SIGKILL the server, reopen its directory here, read back every
    acknowledged write through a cold verifier.

    ``recover()`` itself audits the ledger and checks ``verify_chain()``
    before it returns, so a reopened database is a verified one.  The
    times are as the clock read them: one call of seconds, much of it
    I/O, is not what the spin calibrates.
    """
    engine.close(kill=True)
    seconds = defaultdict(float)

    def stopwatch(name):
        plain = getattr(recovery_module, name)

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return plain(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - started

        setattr(recovery_module, name, timed)
        return plain

    plain = {name: stopwatch(name) for name in ("load_database", "replay_record")}
    started = time.perf_counter()
    try:
        durable = DurableDatabase.open(engine.durable_root)
    finally:
        for name, function in plain.items():
            setattr(recovery_module, name, function)
    recovery_s = time.perf_counter() - started

    verifier = ClientVerifier()
    verifier.trust(durable.db.digest())
    lost = 0
    shadow = client.shadow
    for index in sorted(shadow.dirty):
        value, proof = durable.db.get_verified(client.dataset.keys[index])
        if not (verifier.verify(proof) and value == shadow.values[index]):
            lost += 1
    report = durable.last_recovery
    durable.close()
    return {
        "read_back": len(shadow.dirty),
        "lost": lost,
        "durability.recovery_s": recovery_s,
        "durability.recovery.checkpoint_load_s": seconds["load_database"],
        "durability.recovery.replay_s": seconds["replay_record"],
        "durability.recovery.records_replayed": report.replayed,
    }


def run_workload(
    workload: Workload, seed: int, seconds: float, mode: str, work_dir: Path
) -> Dict[str, object]:
    """The whole protocol for one workload; the run record.

    ``mode``: ``layers`` and ``full`` add the count pass and the traced
    pass to what ``e2e`` does; the rest is the same work in every mode.
    """
    dataset = make_dataset(workload.records)
    durable_root = str(work_dir / "durable") if workload.durable else None
    if workload.http:
        engine = engines.HttpEngine(workload.records, durable_root)
    else:
        engine = engines.EmbeddedEngine(dataset)
    try:
        return measure(workload, seed, seconds, mode, work_dir, dataset, engine)
    finally:
        engine.close()


def measure(workload, seed, seconds, mode, work_dir, dataset, engine):
    """Everything after set-up: warm-up to crash, then the record."""
    client = engines.Client(engine, dataset)
    stream = OpStream(workload, dataset, seed)
    record: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "mode": mode,
        "records": workload.records,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": sorted(os.sched_getaffinity(0)),
        },
    }
    per_layer = dict.fromkeys(PER_LAYER, 0.0)
    phase_s = record["phase_s"] = {"setup": engine.setup.raw_seconds}
    mark = time.perf_counter()

    def phase_done(name: str) -> None:
        nonlocal mark
        phase_s[name] = time.perf_counter() - mark
        mark = time.perf_counter()

    warmup = client.run(
        stream.batch(workload.mix_counts(workload.warmup_ops))
    ).samples
    commonest = max(workload.mix, key=workload.mix.get)
    per_layer["bench.warmup_drift_share"] = warmup_drift(warmup, commonest)
    phase_done("warmup")

    if mode != "e2e":
        per_layer.update(count_pass(client, engine, stream, workload))
        phase_done("count_pass")

    at_start = engine.stats()
    puts_at_start = client.shadow.puts
    timed_runs = run_rounds(
        client, stream, workload.mix, workload.rounds_for(seconds)
    )
    at_end = engine.stats()
    phase_done("timed")
    timed_puts = client.shadow.puts - puts_at_start
    stored_per_user_byte = (
        at_end["chunk_physical_bytes"]
        + engines.directory_bytes(engine.durable_root)
    ) / client.shadow.user_bytes
    # SIGKILL leaves the page cache intact, so reading back after the
    # crash cannot show that an acknowledgement waited for its fsync;
    # the WAL's own fsync count can.
    fsyncs_cover_puts = not workload.durable or (
        at_end["wal_fsyncs"] - at_start["wal_fsyncs"] >= timed_puts
    )

    if mode != "e2e":
        traced, by_op, round_trips, record["spans"] = traced_pass(
            client, engine, stream, workload, work_dir
        )
        phase_done("traced_pass")

    # Every timing below is read at one reference speed: see ``speed``.
    measured_runs = timed_runs + ([traced] if mode != "e2e" else [])
    spins = engine.setup.spins + [ns for run in measured_runs for ns in run.spins]
    gate = Gate(spins)
    timed = record["rounds"] = [round_stats(run, gate) for run in timed_runs]

    end_to_end = {
        "setup_s": engine.setup.seconds,
        "stored_bytes_per_user_byte": stored_per_user_byte,
        "peak_rss_mb": at_end["rss_peak_kb"] / 1024,
    }
    # What a client waits for: measured in every mode, bounded in none
    # (README, "Bounds"); the median across rounds of the round's value.
    per_layer["e2e.ops_per_s"] = across_rounds(
        [(r["ops_per_s"], r["steady"]) for r in timed]
    )
    per_layer["bench.raw_setup_s"] = engine.setup.raw_seconds
    per_layer["bench.raw_ops_per_s"] = statistics.median(
        r["raw_ops_per_s"] for r in timed
    )
    for kind in workload.mix:
        for statistic in ("p50_ms", "p95_ms"):
            per_layer[f"e2e.{kind}_{statistic}"] = across_rounds([
                (r["kinds"][kind][statistic], r["kinds"][kind]["steady"])
                for r in timed
            ])
        per_layer[f"bench.raw_{kind}_p50_ms"] = statistics.median(
            r["kinds"][kind]["raw_p50_ms"] for r in timed
        )
    record["timings"] = {
        name: value for name, value in per_layer.items() if name in TIMINGS
    }
    per_layer["bench.calib_ms"] = statistics.median(spins) / 1e6
    per_layer["bench.speed_spread_share"] = iqr_share(spins)
    per_layer["bench.steady_share"] = statistics.fmean(
        r["steady_share"] for r in timed
    )
    per_layer["bench.round_spread_share"] = iqr_share(
        [r["ops_per_s"] for r in timed]
    )
    if timed_puts:
        per_layer["bench.rss_kb_per_put"] = (
            at_end["rss_kb"] - at_start["rss_kb"]
        ) / timed_puts

    if mode != "e2e":
        by_layer, table, round_trip_us, traced_mean_ns = layer_times(
            traced.samples, by_op, round_trips, gate
        )
        for layer, microseconds in by_layer.items():
            per_layer[SPAN_METRICS[layer]] = microseconds
        per_layer["serve.client.submit_us"] = round_trip_us
        untraced_mean_ns = sum(
            stats["mean_ns"] * stats["n_used"]
            for r in timed
            for stats in r["kinds"].values()
        ) / sum(
            stats["n_used"] for r in timed for stats in r["kinds"].values()
        )
        per_layer["bench.trace_overhead_share"] = (
            traced_mean_ns / untraced_mean_ns - 1.0
        )
        record["layer_table_us"] = table
        record["traced_mean_latency_us"] = traced_mean_ns / 1e3

    checks = {
        "tamper_rejected": tamper_canary(client),
        "fsyncs_cover_puts": fsyncs_cover_puts,
        "lost_writes": 0,
    }
    attempted, failed = client.attempted, client.failed
    if workload.durable:
        recovered = crash_and_recover(client, engine)
        checks["lost_writes"] = recovered.pop("lost")
        attempted += recovered.pop("read_back")
        failed += checks["lost_writes"]
        per_layer.update(recovered)
        phase_done("crash_and_recover")

    record.update(
        correct=(
            failed == 0
            and checks["tamper_rejected"]
            and checks["fsyncs_cover_puts"]
        ),
        attempted=attempted,
        failed=failed,
        first_errors=client.first_errors,
        checks=checks,
        end_to_end=end_to_end if mode != "layers" else {},
        per_layer=per_layer if mode != "e2e" else {},
    )
    return record


def pin_to_one_cpu() -> None:
    """Driver and server share one CPU.

    A closed loop with one client never has both busy at once, so one
    CPU loses nothing; left to the scheduler, the pair migrates between
    a same-core and a cross-core regime that differ by ~40 % in round
    trip time and flip within and between runs.  Children inherit it.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--smoke", action="store_true",
        help="2 000 records, 2 rounds: the scale the tests run",
    )
    parser.add_argument("--out", help="append the run record to this JSONL file")
    parser.add_argument("--spans", help="write the traced pass's spans here")
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    mode = {None: "full", 0: "e2e", 1: "layers"}[args.trace]
    work_dir = Path(tempfile.mkdtemp(prefix=".work-", dir=ROOT / "perfbench"))
    try:
        record = run_workload(workload, args.seed, args.seconds, mode, work_dir)
    finally:
        shutil.rmtree(work_dir)

    spans = record.pop("spans", None)
    if args.spans and spans is not None:
        Path(args.spans).write_text(json.dumps(spans))
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps(record) + "\n")

    units = {**END_TO_END, **PER_LAYER}
    values = {**record["end_to_end"], **record["per_layer"]}
    if mode == "full":
        for name, value in values.items():
            print(f"{name:44s} {value:16.6f} {units[name]}")
        for kind, row in record["layer_table_us"].items():
            print(f"-- one verified {kind}: self-time by layer (us)")
            for layer, microseconds in sorted(row.items(), key=lambda kv: -kv[1]):
                print(f"   {layer:40s} {microseconds:12.2f}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
