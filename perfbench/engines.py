"""The system under test, in-process or behind a launched HTTP server.

Both engines answer ``call(kind, keys, value) -> (result, proof,
digest)`` so one :class:`Client` drives, verifies and checks either.
The embedded engine calls ``SpitzDatabase`` directly (no request
handler, no queue); the HTTP engine is the repo's own
``HttpTransport`` against ``perfbench.server_main`` in a child process.
"""

from __future__ import annotations

import inspect
import json
import os
import socket
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.database import SpitzDatabase
from repro.core.node import SpitzCluster
from repro.core.request_handler import Request, RequestKind
from repro.core.schema import KV_PREFIX
from repro.core.verifier import ClientVerifier
from repro.serve import HttpTransport, serve_cluster

from perfbench.speed import SLICE_NS, SpeedGauge, scale
from perfbench.workloads import Dataset, Op, Shadow, op_keys

ROOT = Path(__file__).resolve().parent.parent
#: The embedded engine runs the tree shape the served one does, so the
#: embedded/HTTP pair differs by the serving layers only.
SERVED_MASK_BITS = (
    inspect.signature(SpitzCluster.__init__).parameters["mask_bits"].default
)
REQUEST_KINDS = {
    "get": RequestKind.GET,
    "mget": RequestKind.MULTI_GET,
    "scan": RequestKind.SCAN,
    "put": RequestKind.PUT,
}


@dataclass
class Setup:
    """The one timed set-up of a run, step by step."""

    #: Per step: seconds as the clock read them, mean spin around it.
    steps: List[Tuple[float, float]]
    spins: List[int]

    @property
    def seconds(self) -> float:
        """At the reference speed (see ``speed``)."""
        return sum(scale(raw, spin) for raw, spin in self.steps)

    @property
    def raw_seconds(self) -> float:
        return sum(raw for raw, _spin in self.steps)


def build(dataset: Dataset, serve: bool, durable_root: Optional[str]):
    """Set-up as ``setup_s`` times it: build the system, bulk preload
    through ``put_batch`` one block at a time, durable: one checkpoint.

    Returns ``(service or None, db, Setup)``; a calibration spin runs
    between the steps, outside their time (see ``speed``).
    """
    gauge = SpeedGauge()
    if serve:
        service, step = gauge.timed(
            lambda: serve_cluster(durable_root=durable_root)
        )
        db = service.cluster.db
    else:
        service = None
        db, step = gauge.timed(
            lambda: SpitzDatabase(mask_bits=SERVED_MASK_BITS)
        )
    steps = [step]
    for block in dataset.preload_blocks():
        steps.append(gauge.timed(lambda: db.put_batch(block))[1])
    if durable_root is not None:
        steps.append(gauge.timed(service.cluster.checkpoint)[1])
    return service, db, Setup(steps, gauge.spins)


def _rss_kb() -> Tuple[int, int]:
    """(current, peak) resident set of this process, in kB."""
    fields = {}
    with open("/proc/self/status") as status:
        for line in status:
            name, _, rest = line.partition(":")
            if name in ("VmRSS", "VmHWM"):
                fields[name] = int(rest.split()[0])
    return fields["VmRSS"], fields["VmHWM"]


def db_stats(db: SpitzDatabase, wal=None) -> Dict[str, int]:
    """Counters the database process keeps anyway, read in that process."""
    chunks = db.chunks.stats
    rss, peak = _rss_kb()
    return {
        "chunk_puts": chunks.puts,
        "chunk_gets": chunks.gets,
        "chunk_unique": chunks.unique_chunks,
        "chunk_physical_bytes": chunks.physical_bytes,
        "wal_fsyncs": wal.fsync_count if wal is not None else 0,
        "rss_kb": rss,
        "rss_peak_kb": peak,
    }


def directory_bytes(root: Optional[str]) -> int:
    if root is None:
        return 0
    return sum(
        path.stat().st_size for path in Path(root).rglob("*") if path.is_file()
    )


def launch(
    records: int, durable_root: Optional[str]
) -> Tuple[subprocess.Popen, Dict[str, object]]:
    """Start ``perfbench.server_main``; wait for its ready line."""
    command = [
        sys.executable, "-m", "perfbench.server_main", "--records", str(records)
    ]
    if durable_root is not None:
        command += ["--durable-root", durable_root]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    line = process.stdout.readline()
    if not line:
        process.wait()
        raise RuntimeError(
            f"server_main exited with {process.returncode} before ready"
        )
    return process, json.loads(line)


def stop(process: subprocess.Popen, kill: bool = False) -> None:
    """End a launched process and wait for it."""
    if kill:
        process.kill()
    process.stdin.close()
    process.stdout.close()
    process.wait()


class EmbeddedEngine:
    http = False
    durable_root = None

    def __init__(self, dataset: Dataset):
        _service, self.db, self.setup = build(dataset, False, None)

    def call(self, kind: str, keys: Sequence[bytes], value: Optional[bytes]):
        db = self.db
        if kind == "get":
            result, proof = db.get_verified(keys[0])
        elif kind == "mget":
            result, proof = db.get_many_verified(list(keys))
        elif kind == "scan":
            result, proof = db.scan_verified(keys[0], keys[1])
        else:
            block, proof = db.put_with_proof(keys[0], value)
            result = block.height
        return result, proof, db.digest()

    def stats(self) -> Dict[str, int]:
        return db_stats(self.db)

    def wire_bytes(self) -> int:
        return 0

    def close(self) -> None:
        pass


class HttpEngine:
    http = True

    def __init__(self, records: int, durable_root: Optional[str]):
        self.durable_root = durable_root
        self.process, ready = launch(records, durable_root)
        self.setup = Setup(**ready["setup"])
        self.transport = HttpTransport("127.0.0.1", ready["port"])

    def call(self, kind: str, keys: Sequence[bytes], value: Optional[bytes]):
        if kind == "get":
            payload = {"key": keys[0]}
        elif kind == "mget":
            payload = {"keys": list(keys)}
        elif kind == "scan":
            payload = {"low": keys[0], "high": keys[1]}
        else:
            payload = {"key": keys[0], "value": value}
        response = self.transport.submit(
            Request(REQUEST_KINDS[kind], payload, verify=True)
        )
        if not response.ok:
            raise RuntimeError(f"{kind} refused: {response.error}")
        return response.result, response.proof, response.digest

    def control(self, **command) -> Dict[str, object]:
        """One command to the launcher, one reply."""
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        return json.loads(self.process.stdout.readline())

    def stats(self) -> Dict[str, int]:
        return self.control(cmd="stats")

    def wire_bytes(self) -> int:
        """TCP payload bytes this connection has carried, both ways, as
        the kernel counts them (``tcp_info.tcpi_bytes_acked`` and
        ``tcpi_bytes_received``): request and response heads included.
        """
        sock = self.transport._connection(10.0).sock
        info = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_INFO, 192)
        acked, received = struct.unpack_from("QQ", info, 120)
        return acked + received

    def close(self, kill: bool = False) -> None:
        if self.process is not None:
            self.transport.close()
            stop(self.process, kill=kill)
            self.process = None


def claims_match(kind, keys, value, result, proof) -> bool:
    """Does the proof speak about *this* request and *this* reply?

    ``ClientVerifier.verify`` shows the proof is consistent with the
    pinned digest; a valid proof about another key would pass it.
    """
    prefixed = [KV_PREFIX + key for key in keys]
    if kind == "get":
        return proof.key == prefixed[0] and proof.value == result
    if kind == "put":
        return proof.key == prefixed[0] and proof.value == value
    if kind == "mget":
        return proof.keys == tuple(prefixed) and [
            claimed for _key, claimed in proof.entries
        ] == list(result)
    bounds = proof.range_proof
    return (
        bounds.low == prefixed[0]
        and bounds.high == prefixed[1]
        and [(key[len(KV_PREFIX):], found) for key, found in proof.entries]
        == [tuple(entry) for entry in result]
    )


class Sample(NamedTuple):
    kind: str
    #: Latency as the clock read it.
    raw_ns: int
    #: The mean and the slower of the spins around the op's slice.
    mean_spin: float
    slower_spin: int


class Slice(NamedTuple):
    """The ops between two calibration spins."""

    succeeded: int
    #: Wall time of the ops as the clock read it, spins excluded.
    raw_seconds: float
    mean_spin: float
    slower_spin: int


@dataclass
class Measured:
    samples: List[Sample] = field(default_factory=list)
    slices: List[Slice] = field(default_factory=list)
    spins: List[int] = field(default_factory=list)


class Client:
    """Closed loop, one client: issue, verify, check, next.

    One ``ClientVerifier`` is pinned for the connection's lifetime.  An
    op that raises, fails verification, carries a proof about something
    else or returns a value the shadow model disagrees with is failed.
    """

    def __init__(self, engine, dataset: Dataset):
        self.engine = engine
        self.dataset = dataset
        self.shadow = Shadow(dataset)
        self.verifier = ClientVerifier()
        self.attempted = 0
        self.failed = 0
        self.first_errors: List[str] = []
        self.proof_bytes = 0

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.first_errors) < 5:
            self.first_errors.append(reason)

    def execute(self, op: Op) -> Tuple[int, int, object]:
        """Run one op; ``(start_ns, end_ns, proof or None)``.

        The latency window covers request, reply, digest observation,
        proof verification and the claim check — what a verifying
        client waits for.  The shadow check is outside it.
        """
        kind, _target, value = op
        keys = op_keys(self.dataset, op)
        self.attempted += 1
        clock = time.perf_counter_ns
        start = clock()
        try:
            result, proof, digest = self.engine.call(kind, keys, value)
            self.verifier.observe(digest)
            verified = self.verifier.verify(proof) and claims_match(
                kind, keys, value, result, proof
            )
            error = None
        except Exception as caught:  # any failure is a failed op, not a crash
            verified, proof, error = False, None, caught
        end = clock()
        if error is not None:
            self._fail(f"{kind}: {type(error).__name__}: {error}")
        elif not verified:
            self._fail(f"{kind}: proof rejected")
        elif not self.shadow.check(op, result):
            self._fail(f"{kind}: wrong reply")
        return start, end, proof

    def run(self, ops: Sequence[Op], recorder=None, size_proofs=False):
        """Run ``ops``; a :class:`Measured`.

        Every ``SLICE_NS`` of work a calibration spin runs between two
        ops (see ``speed``).  With a span recorder, each op gets a root
        span over exactly its latency window, numbered by its position
        in ``ops``.  With ``size_proofs`` (the count pass),
        ``proof_bytes`` accumulates each proof's ``size_bytes``.
        """
        clock = time.perf_counter_ns
        gauge = SpeedGauge()
        measured = Measured(spins=gauge.spins)
        raw: List[Tuple[str, int]] = []
        failed_before = self.failed
        slice_started = clock()
        for number, op in enumerate(ops):
            if recorder is not None:
                recorder.begin_op(number)
            start, end, proof = self.execute(op)
            if recorder is not None:
                recorder.end_op(start, end)
            raw.append((op[0], end - start))
            if size_proofs and proof is not None:
                self.proof_bytes += proof.size_bytes
            now = clock()
            if now - slice_started >= SLICE_NS or number == len(ops) - 1:
                mean_spin, slower_spin = gauge.close()
                measured.slices.append(Slice(
                    succeeded=len(raw) - (self.failed - failed_before),
                    raw_seconds=(now - slice_started) / 1e9,
                    mean_spin=mean_spin,
                    slower_spin=slower_spin,
                ))
                measured.samples += [
                    Sample(kind, latency, mean_spin, slower_spin)
                    for kind, latency in raw
                ]
                raw.clear()
                failed_before = self.failed
                slice_started = clock()
        return measured
