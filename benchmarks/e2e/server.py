"""The TCP workloads' server: one ``repro.serve``d StreamHub in its own process.

Running the server apart from the load generator keeps the two from sharing
one interpreter lock; ``--cpu N`` pins it to core N, away from the load
generator's.  Protocol, one line each way:

* on start the server prints ``PORT <n>`` (an ephemeral port on 127.0.0.1);
* it then reads commands from stdin: ``on <window>`` starts tracing into a
  named window, ``off`` stops it, ``stop`` (or end of input) shuts down;
* on shutdown it prints one JSON object: its peak RSS in KiB and, when it
  traced, the trace summary (see :class:`trace.Tracer`).

Started by ``run.py``; by hand: ``PYTHONPATH=src python benchmarks/e2e/server.py [--cpu N]``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

import repro
from measure import pin
from trace import Tracer


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark server; see the module docstring")
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args()
    if args.cpu is not None:
        pin(args.cpu)  # before serve() starts the event-loop thread, which inherits it
    handle = repro.serve(repro.StreamHub())
    tracer = Tracer("server")
    print(f"PORT {handle.address[1]}", flush=True)
    try:
        for line in sys.stdin:
            command, *rest = line.split() or [""]
            if command == "on":
                tracer.start(rest[0])
            elif command == "off":
                tracer.stop()
            elif command == "stop":
                break
    finally:
        tracer.stop()
        handle.stop(flush=False)
    report = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary(),
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
