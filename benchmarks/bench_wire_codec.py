"""Wire-codec micro-timing: one served response, there and back.

Times ``encode_response`` + ``json.dumps`` + ``json.loads`` +
``decode_response`` for one verified GET, one K=16 MULTI_GET and one
32-key SCAN response taken from perfbench's ``http_read`` dataset
(50 000 records, the served tree shape).  Those are the three proof
frames the gated benchmark's traffic carries, so this is the number a
change to ``repro.serve.codec`` must hold.

Run from the repository root, against any checkout's ``src``::

    PYTHONPATH=src:. python -m benchmarks.bench_wire_codec

Prints, per request kind, the median over ``REPEATS`` repeats of the
mean microseconds per round trip over ``ITERATIONS`` iterations, and
the encoded body size.
"""

import json
import statistics
import time

from perfbench.engines import SERVED_MASK_BITS
from perfbench.workloads import MGET_KEYS, SCAN_KEYS, make_dataset
from repro.core.database import SpitzDatabase
from repro.core.request_handler import (
    Request,
    RequestHandler,
    RequestKind,
)
from repro.serve.codec import decode_response, encode_response

RECORDS = 50_000
ITERATIONS = 2000
REPEATS = 5


def served_responses():
    dataset = make_dataset(RECORDS)
    db = SpitzDatabase(mask_bits=SERVED_MASK_BITS)
    for block in dataset.preload_blocks():
        db.put_batch(block)
    handler = RequestHandler(db)
    keys = dataset.keys
    start = RECORDS // 2
    payloads = {
        "get": (RequestKind.GET, {"key": keys[start]}),
        "mget": (
            RequestKind.MULTI_GET,
            {"keys": [keys[start + 997 * i] for i in range(MGET_KEYS)]},
        ),
        "scan": (
            RequestKind.SCAN,
            {"low": keys[start], "high": keys[start + SCAN_KEYS - 1]},
        ),
    }
    return {
        name: handler.handle(Request(kind, payload, verify=True))
        for name, (kind, payload) in payloads.items()
    }


def round_trip_us(response) -> float:
    clock = time.perf_counter
    repeats = []
    for _ in range(REPEATS):
        start = clock()
        for _ in range(ITERATIONS):
            decode_response(json.loads(json.dumps(encode_response(response))))
        repeats.append((clock() - start) / ITERATIONS * 1e6)
    return statistics.median(repeats)


def main() -> None:
    for name, response in served_responses().items():
        assert response.ok, response.error
        body = len(json.dumps(encode_response(response)))
        print(f"{name:5s} {round_trip_us(response):9.1f} us  {body:7d} B")


if __name__ == "__main__":
    main()
