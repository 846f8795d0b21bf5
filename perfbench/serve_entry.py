"""Server entry point: the ``repro serve`` app, optionally with layer tracing.

Usage::

    python perfbench/serve_entry.py --fabric-dir DIR --store DIR --run-memory N [--spans DIR]

It builds the same :class:`~repro.serve.ServeApp` and runs the same
``serve_forever`` loop as ``repro serve``, on a free loopback port (printed
on the first stdout line), with one fabric worker per cold job and the
store's memory tier off.  The one setting the CLI does not expose is the
fabric poll interval: at the default 50 ms a cold job's latency moves in
50 ms steps, so a few percent of host drift flips it by half; at
``POLL_S`` the steps stay small against the job.

With ``--spans``, the layer wrappers are installed before the app starts;
forked fabric workers inherit them.  Each process writes its spans to the
directory when it ends (the server after its SIGTERM drain).
"""

import argparse
import os
import sys

from layers import Tracer

POLL_S = 0.005


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fabric-dir", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--run-memory", type=int, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    tracer = None
    if args.spans is not None:
        tracer = Tracer(dump_dir=args.spans)
        tracer.install()
    from repro.runtime import ResultStore
    from repro.serve import ServeApp, serve_forever

    app = ServeApp(
        fabric_root=args.fabric_dir,
        store=ResultStore(root=args.store, memory_entries=0),
        workers=1,
        max_jobs=2,
        poll=POLL_S,
        run_memory=args.run_memory,
    )

    def ready(server) -> None:
        host, port = server.server_address[:2]
        print(f"listening on http://{host}:{port}", flush=True)

    try:
        serve_forever(app, host="127.0.0.1", port=0, ready_callback=ready)
    finally:
        if tracer is not None:
            tracer.dump(os.path.join(args.spans, f"spans-{os.getpid()}.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
