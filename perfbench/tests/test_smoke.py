"""Smoke tests for the benchmark itself (not collected by tier-1).

    python3 -m pytest perfbench/tests -q

Every run here is the real entry point in a subprocess at ``--smoke``
scale (2 000 records, 2 rounds).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import compare, probes  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, SPAN_METRICS  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    OpStream,
    make_dataset,
)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Per-layer metrics taken in the count pass: exact for one seed.
COUNTS = [
    "serve.wire_bytes_per_op",
    "serve.codec.body_bytes_per_op",
    "serve.codec.framing_ratio",
    "indexes.pos_tree.nodes_per_lookup",
    "indexes.pos_tree.nodes_written_per_put",
    "indexes.siri.codec_calls_per_op",
    "forkbase.chunk_store.bytes_per_put",
    "forkbase.chunk_store.dedup_share",
    "crypto.hashing.calls_per_op",
    "crypto.hashing.bytes_per_op",
    "core.verifier.cache_hit_share",
    "core.verifier.proof_nodes_per_op",
    "core.verifier.proof_bytes_per_op",
    "durability.wal.fsyncs_per_put",
    "durability.wal.bytes_per_put",
    "durability.recovery.records_replayed",
]


def run(workload, *extra, cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    """Run the entry point; the parsed last stdout line."""
    done = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def full_runs(tmp_path_factory):
    """Each workload once, both metric sets: (result line, run record)."""
    out = tmp_path_factory.mktemp("records") / "runs.jsonl"
    results = {name: run(name, "--out", str(out)) for name in WORKLOADS}
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return {
        record["workload"]: (results[record["workload"]], record)
        for record in records
    }


def test_benchmark_json_declares_the_catalogue():
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == PER_LAYER
    assert {w["name"]: w["why"] for w in DECLARED["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])


def test_every_declared_metric_is_emitted_with_its_unit(full_runs):
    units = {**END_TO_END, **PER_LAYER}
    for name, (result, _record) in full_runs.items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1
        assert {
            metric: body["unit"] for metric, body in result["metrics"].items()
        } == units, name
        for metric in END_TO_END:
            assert result["metrics"][metric]["value"] > 0, (name, metric)


def test_trace_flag_selects_the_metric_set():
    assert set(run("embedded_read", "--trace", "0")["metrics"]) == set(END_TO_END)
    assert set(run("embedded_read", "--trace", "1")["metrics"]) == set(PER_LAYER)


def test_idle_layers_report_zero_and_busy_ones_do_not(full_runs):
    def value(workload, metric):
        return full_runs[workload][0]["metrics"][metric]["value"]

    for metric in PER_LAYER:
        serving = metric.startswith(("serve.", "core.node.", "core.request_handler."))
        durable = metric.startswith("durability.")
        writing = metric in (
            "core.database.write_us", "txn.commit_us", "core.ledger.append_us",
            "indexes.pos_tree.apply_us", "forkbase.chunk_store.put_us",
            "indexes.pos_tree.nodes_written_per_put",
            "forkbase.chunk_store.bytes_per_put", "bench.rss_kb_per_put",
            "e2e.put_p50_ms", "e2e.put_p95_ms", "bench.raw_put_p50_ms",
        )
        for name, workload in WORKLOADS.items():
            idle = (
                (serving and not workload.http)
                or (durable and not workload.durable)
                or (writing and "put" not in workload.mix)
            )
            if idle:
                assert value(name, metric) == 0, (name, metric)
        if serving:
            assert value("http_read", metric) > 0, metric
        if durable:
            assert value("http_durable_write", metric) > 0, metric
        if writing:
            assert value("embedded_write", metric) > 0, metric


def test_a_workload_reports_the_latency_of_its_own_kinds_only(full_runs):
    for name, workload in WORKLOADS.items():
        metrics = full_runs[name][0]["metrics"]
        assert metrics["e2e.ops_per_s"]["value"] > 0
        for kind in ("get", "mget", "scan", "put"):
            for metric in (f"e2e.{kind}_p50_ms", f"e2e.{kind}_p95_ms",
                           f"bench.raw_{kind}_p50_ms"):
                assert (metrics[metric]["value"] > 0) == (kind in workload.mix), (
                    name, metric
                )


def test_traced_self_times_sum_to_the_traced_latency(full_runs):
    for name, (result, record) in full_runs.items():
        layers = sum(
            result["metrics"][metric]["value"] for metric in SPAN_METRICS.values()
        )
        assert layers == pytest.approx(record["traced_mean_latency_us"], rel=0.02)
        for kind, row in record["layer_table_us"].items():
            assert all(microseconds >= 0 for microseconds in row.values()), (
                name, kind, row
            )


def test_acknowledged_puts_waited_for_their_fsync(full_runs):
    result, record = full_runs["http_durable_write"]
    assert result["metrics"]["durability.wal.fsyncs_per_put"]["value"] >= 1
    assert record["checks"] == {
        "tamper_rejected": True, "fsyncs_cover_puts": True, "lost_writes": 0,
    }


@pytest.mark.parametrize("workload", ["http_durable_write", "embedded_write"])
def test_one_seed_gives_identical_counts(full_runs, workload):
    first = full_runs[workload][0]["metrics"]
    again = run(workload)["metrics"]
    for metric in COUNTS:
        assert again[metric]["value"] == first[metric]["value"], metric


def test_op_sequence_is_a_function_of_the_seed_alone():
    probe = (
        "import sys, perfbench.workloads; "
        "sys.exit(any(m.split('.')[0] == 'repro' for m in sys.modules))"
    )
    assert subprocess.run([sys.executable, "-c", probe], cwd=ROOT).returncode == 0
    for workload in WORKLOADS.values():
        workload = workload.smoke()

        def sequence(seed):
            stream = OpStream(workload, make_dataset(workload.records), seed)
            return stream.batch(workload.mix) + stream.batch(workload.mix)

        assert sequence(1) == sequence(1)
        assert sequence(1) != sequence(2)
        # What is stored does not change with the seed (workloads.py).
        assert [op for op in sequence(1) if op[0] == "put"] == [
            op for op in sequence(2) if op[0] == "put"
        ]
        kinds = [op[0] for op in sequence(1)[:workload.round_ops]]
        assert {k: kinds.count(k) for k in workload.mix} == dict(workload.mix)


def test_compare_reports_a_missing_side_as_not_ok(tmp_path, capsys):
    def record(workload, **end_to_end):
        return json.dumps({"workload": workload, "end_to_end": end_to_end})

    both = [record("embedded_read", setup_s=1.0 + n / 100, peak_rss_mb=100.0)
            for n in range(5)]
    set_a, set_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    set_a.write_text("\n".join(both + [record("http_read", setup_s=1.0)]))
    set_b.write_text("\n".join(line.replace(', "peak_rss_mb": 100.0', "")
                               for line in both))
    assert compare.compare(str(set_a), str(set_b)) == 1
    rows = capsys.readouterr().out.splitlines()
    assert any("peak_rss_mb" in row and "missing in B" in row for row in rows)
    assert "http_read" in rows  # a workload only A has is not skipped
    assert any("setup_s" in row and "missing in B" in row
               for row in rows[rows.index("http_read"):])


def test_self_time_is_span_minus_the_spans_it_caused():
    span = probes.Span
    driver = [
        span("serve.codec.client", 10, 20, 2, 1, 0),   # encode
        span("serve.codec.client", 80, 95, 3, 1, 0),   # decode
        span("serve.client", 5, 100, 1, 9, 0),
        span("core.verifier", 100, 110, 4, 9, 0),
        span("bench.driver", 0, 120, 9, None, 0),
    ]
    server = [
        span("core.node", 40, 60, -2, -1, 0),
        # Closes after the client began decoding: only 30..80 counts.
        span("serve.server.edge", 30, 90, -1, None, 0),
    ]
    by_op, round_trips = probes.self_times(driver, server)
    assert round_trips == {0: 95}
    assert dict(by_op[0]) == {
        "serve.codec.client": 25,
        "serve.client": 95 - 25 - 50,
        "core.verifier": 10,
        "bench.driver": 120 - 95 - 10,
        "core.node": 20,
        "serve.server.edge": 60 - 20 - 10,
    }
    assert sum(by_op[0].values()) == 120


def test_nothing_is_printed_where_there_is_no_repository(tmp_path):
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for source in (ROOT / "perfbench").glob("*.py"):
        (bare / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "embedded_read",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
