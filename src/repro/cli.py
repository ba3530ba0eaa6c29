"""Command-line interface.

A small operational surface over a Spitz database directory: a
write-ahead log plus checkpoints.  Opening runs crash recovery (latest
checkpoint + log replay + full chain audit); a mutation appends one
fsynced record to the log.  Every data subcommand is one
:class:`~repro.core.request_handler.Request` answered by the
:class:`~repro.core.request_handler.RequestHandler` a server's
processor nodes run — ``search --port`` asks a running ``spitz serve``
for the same answer instead.

::

    python -m repro.cli init mydb.d
    python -m repro.cli put mydb.d account:alice 100
    python -m repro.cli get mydb.d account:alice --verify
    python -m repro.cli sql mydb.d "CREATE TABLE t (id INT, PRIMARY KEY (id))"
    python -m repro.cli history mydb.d account:alice
    python -m repro.cli init shop.d --index items.price
    python -m repro.cli search shop.d items.price '>= 10' --verify
    python -m repro.cli checkpoint mydb.d
    python -m repro.cli recover mydb.d
    python -m repro.cli audit mydb.d
    python -m repro.cli digest mydb.d
    python -m repro.cli stats mydb.d
    python -m repro.cli saturate --clients 8 --capacity 16
    python -m repro.cli trace --ops 50
    python -m repro.cli slowest --ops 50 --limit 3
    python -m repro.cli serve --port 7421 --rate 200 --token secret
    python -m repro.cli serve --port 7421 --shards 4
    python -m repro.cli loadgen --port 7421 --processes 4 --token secret
    python -m repro.cli stats mydb.d --prom
    python -m repro.cli top --port 7421
    python -m repro.cli profile --ops 100 > profile.folded

(Installed as the ``spitz`` console script: ``spitz stats mydb.d``.)

Exit codes: 0 success, 1 operational error, 2 failed verification or
audit findings, 3 **tamper detected** — scripted audits can tell "the
data was modified at rest" apart from "the tool hit an error".
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.core.audit import audit_ledger
from repro.core.client import run_saturation
from repro.core.request_handler import (
    Request,
    RequestHandler,
    RequestKind,
    Response,
)
from repro.core.verifier import ClientVerifier
from repro.durability import DurableDatabase, list_checkpoints, recover
from repro.durability.wal import list_segments
from repro.errors import SpitzError, TamperDetectedError

#: Exit code for detected tampering (vs. 1 for operational errors).
EXIT_TAMPERED = 3


def _existing(path: str) -> str:
    """``path`` if it holds a database ``init`` made, else refuse.

    Checked before any open: opening a directory starts a log in it.
    """
    root = Path(path)
    if root.is_dir() and (list_segments(root) or list_checkpoints(root)):
        return path
    raise SpitzError(f"no database at {path}; run 'init {path}' first")


def _answer(args: argparse.Namespace, request: Request) -> Response:
    """Answer ``request`` the way a server does; an error raises.

    Locally the opened directory's database sits behind a
    :class:`RequestHandler`; with ``--port`` (``search`` only) a
    running ``spitz serve`` answers over HTTP.
    """
    if getattr(args, "port", None) is not None:
        from repro.serve.client import HttpClusterClient

        with HttpClusterClient(
            args.host, args.port, token=args.token
        ) as client:
            response = client.call(request)
    else:
        with DurableDatabase.open(_existing(args.db)) as durable:
            response = RequestHandler(durable.db).handle(request)
    if not response.ok:
        raise SpitzError(response.error)
    return response


def _check(response: Response, summary: str, prefix: str = "") -> int:
    """Verify the answer the way a client holding only its digest
    would; print the verdict; return the exit code."""
    verifier = ClientVerifier()
    verifier.trust(response.digest)
    ok = verifier.verify(response.proof)
    state = "VERIFIED" if ok else "VERIFICATION FAILED"
    print(f"{prefix}[{state}; {summary}]")
    return 0 if ok else 2


def _render(value: Optional[bytes]) -> str:
    return value.decode(errors="replace") if value else "(absent)"


def cmd_init(args: argparse.Namespace) -> int:
    target = Path(args.db)
    if target.exists() and not (
        target.is_dir() and not any(target.iterdir())
    ):
        raise SpitzError(
            f"refusing to reuse {args.db}: init only creates a database"
        )
    with DurableDatabase.open(args.db) as durable:  # the first WAL segment
        if args.index:
            durable.db.enable_search(args.index)  # logged, so it persists
    indexed = (
        f", search over {', '.join(args.index)}" if args.index else ""
    )
    print(f"initialized {args.db}{indexed}")
    return 0


def cmd_put(args: argparse.Namespace) -> int:
    response = _answer(args, Request(
        RequestKind.PUT,
        {"key": args.key.encode(), "value": args.value.encode()},
    ))
    print(f"ok: sealed block #{response.result}")
    return 0


def cmd_get(args: argparse.Namespace) -> int:
    response = _answer(args, Request(
        RequestKind.GET, {"key": args.key.encode()}, args.verify
    ))
    if not args.verify:
        print(_render(response.result))
        return 0
    return _check(
        response,
        f"{len(response.proof.cacheable_nodes)} proof nodes",
        prefix=f"{_render(response.result)}  ",
    )


def cmd_mget(args: argparse.Namespace) -> int:
    response = _answer(args, Request(
        RequestKind.MULTI_GET,
        {"keys": [key.encode() for key in args.keys]},
        args.verify,
    ))
    for key, value in zip(args.keys, response.result):
        print(f"{key}\t{_render(value)}")
    if not args.verify:
        return 0
    proof = response.proof
    return _check(
        response,
        f"one multiproof, {len(proof.cacheable_nodes)} deduped nodes, "
        f"{proof.size_bytes} bytes for {len(args.keys)} keys",
    )


def cmd_delete(args: argparse.Namespace) -> int:
    response = _answer(
        args, Request(RequestKind.DELETE, {"key": args.key.encode()})
    )
    print(f"ok: sealed block #{response.result}")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    response = _answer(args, Request(
        RequestKind.SCAN,
        {"low": args.low.encode(), "high": args.high.encode()},
    ))
    for key, value in response.result:
        print(f"{key.decode(errors='replace')}\t"
              f"{value.decode(errors='replace')}")
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    response = _answer(
        args, Request(RequestKind.HISTORY, {"key": args.key.encode()})
    )
    for timestamp, value in response.result:
        print(f"ts {timestamp}: {value.decode(errors='replace')}")
    return 0


def cmd_sql(args: argparse.Namespace) -> int:
    result = _answer(
        args, Request(RequestKind.SQL, {"text": args.statement})
    ).result
    if isinstance(result, list):
        for row in result:
            print(row)
        print(f"({len(result)} rows)")
    elif isinstance(result, int):
        print(f"({result} rows affected)")
    else:
        print(f"ok: sealed block #{getattr(result, 'height', '?')}")
    return 0


def _print_search_matches(ukeys) -> None:
    """Render matched universal keys as ``column pk @ts`` rows."""
    from repro.core.universal_key import UniversalKey

    for ukey in ukeys:
        try:
            decoded = UniversalKey.decode(bytes(ukey))
            raw = decoded.primary_key
            if len(raw) == 8 and (raw[0] & 0x80):
                # Integer primary keys are offset-shifted 8-byte
                # big-endian (encode_pk); anything else renders as text.
                pk = str(int.from_bytes(raw, "big") - 2**63)
            else:
                pk = raw.decode(errors="replace")
            print(f"{decoded.column}\t{pk}\t@{decoded.timestamp}")
        except (ValueError, UnicodeDecodeError):
            print(bytes(ukey).hex())


def cmd_search(args: argparse.Namespace) -> int:
    """Secondary-index search, local directory or remote server.

    ``spitz search DB users.age '>= 10' --verify`` answers from an
    opened database; ``spitz search users.age '>= 10' --port 7421
    --verify`` asks a running ``spitz serve`` over HTTP.  Either way
    the proof is verified client-side against the answer's digest.
    """
    from repro.search.proofs import SearchPredicate

    predicate = SearchPredicate.parse(args.predicate)
    if args.port is not None and args.db is not None:
        raise SpitzError(
            "give either a DB path or --port, not both "
            "(remote mode takes COLUMN PREDICATE only)"
        )
    if args.port is None and args.db is None:
        raise SpitzError(
            "search needs a DB path (or --port for a running server)"
        )
    response = _answer(args, Request(
        RequestKind.SEARCH,
        {"column": args.column, "predicate": predicate.to_payload()},
        args.verify,
    ))
    matches = len(response.result)
    _print_search_matches(response.result)
    if not args.verify:
        print(f"({matches} matches)")
        return 0
    carried = (
        "over the wire" if args.port is not None
        else "incl. completeness evidence"
    )
    return _check(
        response,
        f"{matches} matches, {response.proof.size_bytes} proof bytes "
        f"{carried}",
    )


def cmd_digest(args: argparse.Namespace) -> int:
    digest = _answer(args, Request(RequestKind.DIGEST)).result
    print(f"height: {digest.height}")
    print(f"chain:  {digest.chain_digest.hex()}")
    print(f"root:   {digest.tree_root.hex()}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    with DurableDatabase.open(_existing(args.db)) as durable:
        findings = audit_ledger(durable.db.ledger)
        if findings:
            for finding in findings:
                print(f"FINDING: {finding}")
            return 2
        print(f"clean: {durable.db.ledger.height} blocks audited")
    return 0


def _print_snapshot_json(payload: dict) -> None:
    """One serialization path for every stats surface.

    ``spitz stats --json``, ``spitz slowest --json`` and the HTTP
    ``/v1/stats`` endpoint all run their snapshot through
    :func:`repro.serve.codec.to_jsonable`, so a scraper sees the same
    frame no matter which door it knocked on.
    """
    from repro.serve.codec import to_jsonable

    print(json.dumps(to_jsonable(payload), indent=2, sort_keys=True))


def cmd_stats(args: argparse.Namespace) -> int:
    """Print the database's metrics snapshot.

    The same payload a running cluster serves for a
    ``RequestKind.STATS`` request — here it covers whatever the open
    itself did (recovery replay, WAL fsyncs, chunk dedup state), which
    is what an operator inspecting a database at rest cares about.
    ``--json`` emits the machine frame; ``--prom`` the Prometheus
    text rendering (what a running server serves at ``/metrics``);
    the default is a readable table.  A direct read, not a request:
    the handler's own request counters would show up in the answer.
    """
    with DurableDatabase.open(_existing(args.db)) as durable:
        snapshot = durable.db.metrics_snapshot()
        if args.prom:
            from repro.obs.exposition import render_prometheus

            print(
                render_prometheus(
                    durable.db.metrics.exposition_snapshot()
                ),
                end="",
            )
            return 0
    if args.json:
        _print_snapshot_json(snapshot)
        return 0
    for name, value in sorted(snapshot["counters"].items()):
        print(f"{name:<40} {value}")
    for name, value in sorted(snapshot["gauges"].items()):
        print(f"{name:<40} {value:g}")
    print(f"{'histogram':<40} {'count':>8} {'p50':>12} {'p99':>12}")
    for name, summary in sorted(snapshot["histograms"].items()):
        if not summary.get("count"):
            continue
        print(
            f"{name:<40} {summary['count']:>8} "
            f"{summary['p50']:>12.6f} {summary['p99']:>12.6f}"
        )
    return 0


def cmd_saturate(args: argparse.Namespace) -> int:
    """Drive an in-process cluster past saturation and report as JSON.

    An operator smoke test for the admission-control settings: spins
    up a bounded cluster (no on-disk database involved), hammers it
    with client threads through the retrying
    :class:`~repro.core.client.ClusterClient`, and prints the
    reject/shed/complete split plus queue-wait percentiles.
    """
    report = run_saturation(
        clients=args.clients,
        ops_per_client=args.ops,
        nodes=args.nodes,
        capacity=args.capacity,
        deadline=args.deadline,
        attempts=args.attempts,
        service_delay=args.service_delay,
    )
    payload = report.to_dict()
    payload["counters"] = report.counters
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _drive_traced_cluster(args: argparse.Namespace):
    """Run a small traced workload on an in-process cluster.

    Shared by ``trace`` and ``slowest``: puts, plain gets, verified
    gets, indexed-row inserts with verified searches (so the
    ``search.maintain`` / ``search.prove`` stages show up in the
    critical-path attribution) and one deliberately malformed request,
    so the flight recorder holds ok *and* error traces across request
    kinds.  Returns the cluster's metrics registry (cluster already
    stopped).
    """
    # Imported here: only these subcommands need the cluster.
    from repro.core.node import SpitzCluster

    cluster = SpitzCluster(nodes=args.nodes, indexed_columns=["t.score"])
    cluster.start()
    try:
        cluster.submit(Request(RequestKind.SQL, {
            "text": "CREATE TABLE t (id INT, score INT, PRIMARY KEY (id))"
        }))
        for i in range(args.ops):
            key = f"trace:{i % max(args.ops // 2, 1)}".encode()
            cluster.submit(
                Request(RequestKind.PUT, {"key": key, "value": b"v%d" % i})
            )
            cluster.submit(Request(RequestKind.GET, {"key": key}))
            cluster.submit(
                Request(RequestKind.GET, {"key": key}, verify=True)
            )
            cluster.submit(Request(RequestKind.SQL, {
                "text": (
                    f"INSERT INTO t (id, score) VALUES ({i}, {i % 10})"
                )
            }))
            if i % 5 == 0:
                cluster.submit(Request(
                    RequestKind.SEARCH,
                    {
                        "column": "t.score",
                        "predicate": {"op": "between", "low": 2, "high": 6},
                    },
                    verify=True,
                ))
        # One malformed request so the failure ring is never empty.
        cluster.submit(Request(RequestKind.GET, {"wrong_field": 1}))
    finally:
        cluster.stop()
    return cluster.metrics


def cmd_trace(args: argparse.Namespace) -> int:
    """Print full span trees from a traced in-process workload.

    Each tree shows the request's path — ``client.submit`` →
    ``node.serve`` → ``request.handle`` → storage leaf spans — with
    per-span durations, statuses and attributes.
    """
    metrics = _drive_traced_cluster(args)
    flight = metrics.flight
    if args.json:
        _print_snapshot_json(
            flight.snapshot(slowest=args.limit, failures=args.limit)
        )
        return 0
    traces = (
        flight.failures(args.limit) if args.failures
        else flight.recent(args.limit)
    )
    if not traces:
        print("(no traces retained)")
        return 0
    for trace in traces:
        print(trace.render())
        print()
    return 0


def cmd_slowest(args: argparse.Namespace) -> int:
    """Print the slowest retained traces and the per-request-kind
    critical-path attribution table (fraction of end-to-end time per
    stage, computed from every completed request trace)."""
    metrics = _drive_traced_cluster(args)
    flight = metrics.flight
    if args.json:
        _print_snapshot_json(flight.snapshot(slowest=args.limit))
        return 0
    for trace in flight.slowest(args.limit):
        print(trace.render())
        print()
    print("critical-path attribution (per request kind):")
    print(flight.render_attribution())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a cluster over HTTP until interrupted.

    The service plane in one command: boots an N-node cluster
    (in-memory, or over a durable directory with ``--durable-root``),
    fronts it with the threaded HTTP server — request-id + auth +
    per-client rate-limit middleware, 429/503 shedding at the edge —
    and blocks until Ctrl-C, then prints the serving stats.
    """
    from repro.serve.server import serve_cluster

    service = serve_cluster(
        nodes=args.nodes,
        host=args.host,
        port=args.port,
        queue_capacity=args.capacity if args.capacity > 0 else None,
        durable_root=args.durable_root,
        auth_tokens=args.token or None,
        rate=args.rate,
        burst=args.burst,
        request_timeout=args.request_timeout,
        shards=args.shards,
        indexed_columns=getattr(args, "index", None) or None,
    )
    auth = "token auth" if args.token else "open (no auth)"
    limit = (
        f"{args.rate:g} req/s per client" if args.rate is not None
        else "unlimited"
    )
    layout = f"{args.shards} shards" if args.shards > 1 else "1 ledger"
    print(f"serving on http://{service.address}  "
          f"[{args.nodes} nodes, {layout}, {auth}, rate {limit}]")
    print("endpoints: /healthz /readyz /metrics /v1/stats /v1/digest "
          "POST /v1/request  (Ctrl-C to stop)")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    snapshot = service.cluster.stats()
    served = {
        name: value for name, value in snapshot["counters"].items()
        if name.startswith("serve.") or name.startswith("queue.")
    }
    print()
    for name, value in sorted(served.items()):
        print(f"{name:<40} {value}")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a running ``spitz serve`` from separate processes.

    Reports sustained RPS, pooled p50/p99 latency and the
    completed / rejected(429) / rate-limited / shed(503) split as
    JSON — the client half of the service-plane bench.
    """
    from repro.serve.loadgen import run_load

    report = run_load(
        host=args.host,
        port=args.port,
        processes=args.processes,
        ops_per_process=args.ops,
        put_ratio=args.put_ratio,
        verify_every=args.verify_every,
        token=args.token,
        attempts=args.attempts,
        timeout=args.timeout,
    )
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def _fetch_stats(host: str, port: int, timeout: float = 5.0) -> dict:
    from urllib.request import urlopen

    with urlopen(
        f"http://{host}:{port}/v1/stats", timeout=timeout
    ) as response:
        return json.loads(response.read().decode("utf-8"))


def _render_top(
    snapshot: dict, prev: Optional[dict], elapsed: Optional[float]
) -> str:
    """One ``spitz top`` frame from a ``/v1/stats`` payload.

    Windowed signals (RPS, percentiles, error rate, SLO states) come
    from the server's telemetry plane; per-shard write rates are
    computed client-side from successive poll deltas, since shard
    snapshots carry cumulative counters only.
    """
    lines: List[str] = []
    windows = snapshot.get("windows", {}).get("windows", {})
    fast_label = "60s" if "60s" in windows else next(iter(windows), None)
    fast = windows.get(fast_label, {}) if fast_label else {}
    rates = fast.get("rates", {})
    rps = rates.get("requests.total", 0.0)
    err_rate = rates.get("requests.errors", 0.0)
    err_pct = (100.0 * err_rate / rps) if rps else 0.0
    latency = fast.get("histograms", {}).get("request.latency_seconds", {})
    depth = snapshot.get("gauges", {}).get("queue.depth", 0)
    shed_rate = rates.get("queue.shed", 0.0)
    window_note = f" (over {fast_label})" if fast_label else ""
    lines.append(f"spitz top{window_note}")
    lines.append(
        f"  rps {rps:8.1f}   errors {err_pct:5.1f}%   "
        f"queue depth {depth:g}   shed/s {shed_rate:.1f}"
    )
    if latency.get("count"):
        lines.append(
            f"  latency p50 {latency['p50'] * 1000:7.2f}ms   "
            f"p99 {latency['p99'] * 1000:7.2f}ms   "
            f"({latency['count']} requests)"
        )
    else:
        lines.append("  latency (no requests in window)")
    kinds = sorted(
        (name[len("requests.kind."):], rate)
        for name, rate in rates.items()
        if name.startswith("requests.kind.")
        and not name.endswith((".ok", ".errors"))
    )
    if kinds:
        lines.append("  by kind: " + "  ".join(
            f"{kind} {rate:.1f}/s" for kind, rate in kinds
        ))
    search_qps = rates.get("search.queries", 0.0)
    search_hists = fast.get("histograms", {})
    maintain = search_hists.get("span.search.maintain", {})
    if search_qps or maintain.get("count"):
        match_rate = rates.get("search.matches", 0.0)
        proof_rate = rates.get("search.proof_bytes", 0.0)
        lines.append(
            f"  search: {search_qps:.1f} q/s   matches {match_rate:.1f}/s"
            f"   proof {proof_rate:.0f} B/s"
        )
        if maintain.get("count"):
            lines.append(
                f"  index maintain p50 {maintain['p50'] * 1000:7.3f}ms   "
                f"p99 {maintain['p99'] * 1000:7.3f}ms   "
                f"({maintain['count']} seals)"
            )
    shards = snapshot.get("shards")
    if shards:
        lines.append("  shards (write rate):")
        prev_shards = (prev or {}).get("shards", {})
        for shard_id in sorted(shards):
            commits = shards[shard_id].get("counters", {}).get(
                "db.commits", 0
            )
            note = f"{commits} commits"
            if elapsed and shard_id in prev_shards:
                before = prev_shards[shard_id].get("counters", {}).get(
                    "db.commits", 0
                )
                note += f"  {(commits - before) / elapsed:8.1f} writes/s"
            lines.append(f"    shard {shard_id}: {note}")
    slo = snapshot.get("slo", {})
    objectives = slo.get("objectives", [])
    if objectives:
        overall = "OK" if slo.get("ok", True) else "BURNING"
        lines.append(f"  slo [{overall}]:")
        for status in objectives:
            lines.append(
                f"    {status['name']:<24} {status['state']:<9} "
                f"burn {status['fast_burn']:.2f}x/1m "
                f"{status['slow_burn']:.2f}x/10m"
            )
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    """Polling terminal dashboard over a running ``spitz serve``.

    Renders RPS, p50/p99 latency, error %, queue depth, per-shard
    write rates and SLO burn states from ``/v1/stats`` every
    ``--interval`` seconds.  ``--iterations 1`` prints one frame and
    exits (scriptable); 0 polls until interrupted.
    """
    prev: Optional[dict] = None
    prev_at: Optional[float] = None
    frames = 0
    while True:
        try:
            snapshot = _fetch_stats(args.host, args.port)
        except OSError as error:
            print(
                f"error: cannot reach http://{args.host}:{args.port}"
                f"/v1/stats: {error}",
                file=sys.stderr,
            )
            return 1
        now = time.monotonic()
        elapsed = (now - prev_at) if prev_at is not None else None
        frame = _render_top(snapshot, prev, elapsed)
        if sys.stdout.isatty() and args.iterations != 1:
            # Clear + home, only on a live terminal: redirected output
            # stays a plain append-only log.
            print("\x1b[2J\x1b[H", end="")
        print(frame)
        frames += 1
        if args.iterations and frames >= args.iterations:
            return 0
        prev, prev_at = snapshot, now
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run the traced workload under the sampling profiler.

    Prints flamegraph-compatible folded stacks on stdout (feed to
    ``flamegraph.pl`` or speedscope); the sample-count summary goes to
    stderr so redirection stays clean.
    """
    from repro.obs.profiler import SamplingProfiler

    profiler = SamplingProfiler(interval=args.interval)
    profiler.start()
    try:
        _drive_traced_cluster(args)
    finally:
        profiler.stop()
    folded = profiler.folded(limit=args.limit if args.limit > 0 else None)
    if folded:
        print(folded)
    print(
        f"# {profiler.samples} samples at {args.interval * 1000:g}ms "
        f"interval across {args.ops} ops",
        file=sys.stderr,
    )
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    with DurableDatabase.open(_existing(args.db)) as durable:
        lsn, path = durable.checkpoint()
        print(f"checkpoint at lsn {lsn}: {path.name}")
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    report = recover(_existing(args.db))
    print(f"recovered: {report.describe()}")
    print(f"height: {report.db.ledger.height}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "init", help="create an empty database directory (WAL + checkpoints)"
    )
    p.add_argument("db")
    p.add_argument(
        "--index", action="append", default=[], metavar="TABLE.COLUMN",
        help="enable the verified search plane over this column "
             "(repeatable)",
    )
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("put", help="write one key")
    p.add_argument("db")
    p.add_argument("key")
    p.add_argument("value")
    p.set_defaults(func=cmd_put)

    p = sub.add_parser("get", help="read one key")
    p.add_argument("db")
    p.add_argument("key")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_get)

    p = sub.add_parser(
        "mget", help="batch read; --verify uses one multiproof"
    )
    p.add_argument("db")
    p.add_argument("keys", nargs="+")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_mget)

    p = sub.add_parser("delete", help="delete one key (history kept)")
    p.add_argument("db")
    p.add_argument("key")
    p.set_defaults(func=cmd_delete)

    p = sub.add_parser("scan", help="range scan")
    p.add_argument("db")
    p.add_argument("low")
    p.add_argument("high")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("history", help="all versions of one key")
    p.add_argument("db")
    p.add_argument("key")
    p.set_defaults(func=cmd_history)

    p = sub.add_parser("sql", help="execute one SQL statement")
    p.add_argument("db")
    p.add_argument("statement")
    p.set_defaults(func=cmd_sql)

    p = sub.add_parser(
        "search",
        help="secondary-index search; --verify proves membership AND "
             "completeness against the pinned digest",
    )
    p.add_argument(
        "db", nargs="?", default=None,
        help="database path (omit in remote mode with --port)",
    )
    p.add_argument("column", metavar="TABLE.COLUMN")
    p.add_argument(
        "predicate",
        help="'== foo', '>= 10', '< 2.5', 'between 3 7', or a bare "
             "keyword (equality); quote a literal to force a string",
    )
    p.add_argument("--verify", action="store_true")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="query a running spitz serve instead of a DB path")
    p.add_argument("--token", default=None, help="auth token to present")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("digest", help="print the ledger digest")
    p.add_argument("db")
    p.set_defaults(func=cmd_digest)

    p = sub.add_parser("audit", help="full-chain consistency audit")
    p.add_argument("db")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "stats",
        help="print the metrics snapshot (counters/gauges/histograms)",
    )
    p.add_argument("db")
    p.add_argument("--json", action="store_true",
                   help="emit the snapshot as JSON (the same frame the "
                        "HTTP /v1/stats endpoint serves)")
    p.add_argument("--prom", action="store_true",
                   help="emit the Prometheus text rendering (what a "
                        "running server serves at /metrics)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "saturate",
        help="overload an in-process cluster; report reject/shed/complete",
    )
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--ops", type=int, default=25)
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--capacity", type=int, default=16)
    p.add_argument(
        "--deadline", type=float, default=0.25,
        help="per-request client deadline in seconds",
    )
    p.add_argument(
        "--attempts", type=int, default=1,
        help="client retry attempts (1 = no retries)",
    )
    p.add_argument(
        "--service-delay", type=float, default=0.002,
        help="artificial per-request service time, seconds",
    )
    p.set_defaults(func=cmd_saturate)

    for name, func, blurb in (
        (
            "trace",
            cmd_trace,
            "run a traced in-process workload; print request span trees",
        ),
        (
            "slowest",
            cmd_slowest,
            "run a traced in-process workload; print the slowest traces "
            "and per-stage critical-path attribution",
        ),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--ops", type=int, default=50,
                       help="put/get/verified-get rounds to drive")
        p.add_argument("--nodes", type=int, default=2)
        p.add_argument("--limit", type=int, default=5,
                       help="traces to print")
        if name == "trace":
            p.add_argument(
                "--failures", action="store_true",
                help="show failed/shed traces instead of recent ones",
            )
        p.add_argument("--json", action="store_true",
                       help="emit the flight-recorder snapshot as JSON")
        p.set_defaults(func=func)

    p = sub.add_parser(
        "serve",
        help="serve a cluster over HTTP (rate limits, auth, shedding)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421)
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--capacity", type=int, default=64,
                   help="admission queue capacity (0 = unbounded)")
    p.add_argument("--durable-root", default=None,
                   help="serve a durable database rooted at this directory")
    p.add_argument("--shards", type=int, default=1,
                   help="hash-partition the keyspace across N shard "
                        "ledgers behind one digest-of-digests (1 = single "
                        "ledger)")
    p.add_argument("--token", action="append", default=[],
                   help="accepted auth token (repeatable; none = open)")
    p.add_argument("--rate", type=float, default=None,
                   help="per-client sustained requests/second (None = off)")
    p.add_argument("--burst", type=float, default=None,
                   help="per-client burst size (defaults to 2x rate)")
    p.add_argument("--request-timeout", type=float, default=10.0,
                   help="default per-request deadline, seconds")
    p.add_argument("--index", action="append", default=[],
                   metavar="TABLE.COLUMN",
                   help="enable the verified search plane over this "
                        "column (repeatable; incompatible with --shards)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="drive a running spitz serve from separate OS processes",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421)
    p.add_argument("--processes", type=int, default=2)
    p.add_argument("--ops", type=int, default=200,
                   help="operations per process")
    p.add_argument("--put-ratio", type=float, default=0.8)
    p.add_argument("--verify-every", type=int, default=0,
                   help="every Nth op requests a verifiable proof (0 = off)")
    p.add_argument("--attempts", type=int, default=1,
                   help="client retry attempts per op (1 = no retries)")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="per-request deadline, seconds")
    p.add_argument("--token", default=None, help="auth token to present")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "top",
        help="polling terminal dashboard over a running spitz serve",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421)
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls")
    p.add_argument("--iterations", type=int, default=0,
                   help="frames to render before exiting (0 = forever)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "profile",
        help="run the traced workload under the sampling profiler; "
             "print folded stacks",
    )
    p.add_argument("--ops", type=int, default=200,
                   help="put/get/verified-get rounds to drive")
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--interval", type=float, default=0.005,
                   help="sampling interval, seconds")
    p.add_argument("--limit", type=int, default=0,
                   help="hottest folded stacks to print (0 = all)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "checkpoint",
        help="snapshot a durable database and truncate its WAL",
    )
    p.add_argument("db")
    p.set_defaults(func=cmd_checkpoint)

    p = sub.add_parser(
        "recover",
        help="run crash recovery on a durable database and report",
    )
    p.add_argument("db")
    p.set_defaults(func=cmd_recover)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TamperDetectedError as error:
        print(f"TAMPER DETECTED: {error}", file=sys.stderr)
        return EXIT_TAMPERED
    except SpitzError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
