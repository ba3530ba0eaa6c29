"""Multi-process HTTP load generator for the service plane.

The in-process saturation harness (``repro.core.client.run_saturation``)
shares the GIL, the allocator and the scheduler with the cluster it is
measuring; the numbers it produces are *simulated* offered load.  This
module drives the HTTP server from **separate OS processes** — real
sockets, real serialization, no shared GIL — which is the only
configuration under which "sustained RPS" and "p99 latency" mean what
they say.

Each worker process runs :func:`~repro.core.client.drive` — the same
per-request loop as the in-process harness — through an
:class:`~repro.serve.client.HttpClusterClient` and ships its tally back
through a ``multiprocessing`` queue; the parent merges the tallies into
one :class:`~repro.core.client.LoadReport`.

Workers are started with the ``spawn`` context: the benchmark parent
runs the server's threads in-process, and forking a multi-threaded
parent can deadlock children on locks held mid-fork.
"""

from __future__ import annotations

import multiprocessing
from typing import Optional

from repro.core.client import LoadReport, drive
from repro.serve.client import HttpClusterClient


def _worker(
    host: str,
    port: int,
    token: Optional[str],
    worker_id: int,
    ops: int,
    put_ratio: float,
    verify_every: int,
    attempts: int,
    backoff: float,
    timeout: float,
    results,  # multiprocessing.Queue
) -> None:
    """One load process: drive the server, ship the tally back."""
    with HttpClusterClient(
        host, port, token=token,
        attempts=attempts, backoff=backoff, timeout=timeout,
    ) as client:
        results.put(drive(client, worker_id, ops, put_ratio, verify_every))


def run_load(
    host: str,
    port: int,
    processes: int = 2,
    ops_per_process: int = 100,
    put_ratio: float = 0.8,
    verify_every: int = 0,
    token: Optional[str] = None,
    attempts: int = 1,
    backoff: float = 0.02,
    timeout: float = 5.0,
    start_timeout: float = 120.0,
) -> LoadReport:
    """Drive ``processes`` separate OS processes at ``host:port``.

    ``verify_every > 0`` turns every N-th operation into a verified
    one (proof shipped back over the wire); ``attempts`` > 1 enables
    the client retry loop, measuring recovered goodput instead of raw
    rejection behaviour.
    """
    if processes < 1:
        raise ValueError("need at least one load process")
    context = multiprocessing.get_context("spawn")
    results = context.Queue()
    workers = [
        context.Process(
            target=_worker,
            args=(
                host, port, token, worker_id, ops_per_process, put_ratio,
                verify_every, attempts, backoff, timeout, results,
            ),
            daemon=True,
        )
        for worker_id in range(processes)
    ]
    for worker in workers:
        worker.start()
    report = LoadReport(workers=processes, ops_per_worker=ops_per_process)
    report.merge(results.get(timeout=start_timeout) for _ in workers)
    for worker in workers:
        worker.join(timeout=10.0)
    return report


__all__ = ["LoadReport", "run_load"]
