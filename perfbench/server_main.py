"""Launcher for the database in a process of its own.

``python -m perfbench.server_main --records N [--durable-root DIR]``
regenerates the dataset, runs the timed set-up
(:func:`perfbench.engines.build`) and prints one JSON ready line
(``setup``, ``port``).  It then answers one JSON command per stdin line
with one JSON line:

- ``stats``: the database process's own counters and memory;
- ``probe`` (``mode`` ``count`` or ``trace``): install the layer wrappers;
- ``unprobe``: remove them; replies with the counts, or writes the spans
  to the file named in ``spans``.

End of input stops the service.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from perfbench.engines import build, db_stats
from perfbench.probes import CountRecorder, Probes, SpanRecorder
from perfbench.workloads import make_dataset


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--records", type=int, required=True)
    parser.add_argument("--durable-root")
    args = parser.parse_args()

    dataset = make_dataset(args.records)
    service, db, setup = build(dataset, True, args.durable_root)
    ready = {"setup": dataclasses.asdict(setup), "port": service.port}
    print(json.dumps(ready), flush=True)

    durable = service.cluster.durable
    wal = durable.wal if durable is not None else None
    recorder = probes = None
    for line in sys.stdin:
        command = json.loads(line)
        reply = {}
        if command["cmd"] == "stats":
            reply = db_stats(db, wal)
        elif command["cmd"] == "probe":
            recorder = (
                CountRecorder() if command["mode"] == "count"
                else SpanRecorder(sign=-1)
            )
            probes = Probes(recorder, service=service)
        elif command["cmd"] == "unprobe":
            probes.remove()
            if isinstance(recorder, CountRecorder):
                reply = recorder.report()
            else:
                with open(command["spans"], "w") as out:
                    json.dump(recorder.spans, out)
        print(json.dumps(reply), flush=True)
    service.stop()


if __name__ == "__main__":
    main()
