"""Integration test for the multi-process HTTP load generator.

Spawns real worker processes (the ``spawn`` context — each worker is
a fresh interpreter) against a real server socket, then checks the
merged :class:`LoadReport` against the server's own accounting.  Kept
small: the point is that the machinery works end to end, not the
absolute numbers.
"""

import json

from repro.serve.loadgen import LoadReport, run_load
from repro.serve.server import serve_cluster


class TestRunLoad:
    def test_multiprocess_load_reports_and_accounts(self):
        svc = serve_cluster(nodes=2, queue_capacity=256)
        try:
            report = run_load(
                host="127.0.0.1",
                port=svc.port,
                processes=2,
                ops_per_process=25,
                put_ratio=0.8,
                verify_every=5,
                attempts=2,
            )
        finally:
            svc.stop()

        assert report.offered == 50
        # Generous queue, retries on: everything lands.
        assert report.completed == 50
        assert report.errors == 0
        assert report.network_errors == 0
        assert report.attempts >= 50
        assert report.elapsed_seconds > 0
        assert report.rps > 0
        assert report.latency_p50 is not None
        assert report.latency_p99 >= report.latency_p50
        assert len(report.per_worker) == 2

        # The server's own books agree: every accepted envelope was
        # processed exactly once (nothing shed at this load).
        counters = svc.cluster.stats()["counters"]
        assert counters["queue.submitted"] == counters["node.processed"]
        assert counters["serve.http.status.200"] >= 50

        # The report is the JSON artifact the bench/CI path uploads.
        payload = report.to_dict()
        json.dumps(payload)
        assert payload["rps"] == report.rps

    def test_report_math_without_processes(self):
        report = LoadReport(workers=4, ops_per_worker=10)
        assert report.rps == 0.0
        report.completed, report.elapsed_seconds = 30, 2.0
        assert report.rps == 15.0
