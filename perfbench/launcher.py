"""The benchmark's server process for ``serve-2mib``.

Mirrors the defaults of ``python -m repro serve --listen``: 2 replicas
of 4 streams each, hash routing, 256 inflight permits, zero-copy data
path, a plan store in the state directory.  Started by ``run.py``::

    python3 perfbench/launcher.py --state DIR --ready FILE --exit FILE \\
        [--trace-out FILE] [--cpu N]

It writes ``{"port"}`` to ``--ready`` once it accepts
connections and serves until SIGTERM.  Then it drains, closes, and
writes whether the drain finished, the arena leases still held at
drain, and its peak RSS to ``--exit``.  With ``--trace-out`` it records server-side spans around
the layers' public entry points; SIGUSR2 pauses recording and SIGUSR1
resumes it.  The spans are written at exit.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys
from pathlib import Path

import common
from spans import Tracer, wrap_runtime_layers


def install_tracer() -> Tracer:
    import repro.core.cache
    import repro.serving.server as server

    tracer = Tracer()
    # The server module binds the codec functions by name.
    tracer.wrap(server, "decode", "serving.server.decode",
                rid_of=lambda a, k, r: r.get("id"))
    tracer.wrap(server, "pack_frame_parts", "serving.server.encode",
                rid_of=lambda a, k, r: a[0].get("id"))
    # A plan span carries the plan's candidate count in place of a
    # request id, and a kernel span the byte count of the output it
    # wrote: neither call knows the request.
    tracer.wrap(repro.core.cache, "make_plan", "core.plan",
                rid_of=lambda a, k, r: r.num_candidates)
    wrap_runtime_layers(tracer, run_rid=lambda a, k, r: r.nbytes)
    return tracer


async def serve(args, tracer) -> dict:
    from repro.serving import ServingServer

    state = Path(args.state)
    server = ServingServer(
        replicas=2,
        host="127.0.0.1",
        port=0,
        store_path=state / "plans.json",
        num_streams=4,
        max_inflight=256,
        router="hash",
        zero_copy=True,
    )
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    if tracer is not None:
        loop.add_signal_handler(signal.SIGUSR1, lambda: setattr(tracer, "enabled", True))
        loop.add_signal_handler(signal.SIGUSR2, lambda: setattr(tracer, "enabled", False))
    common.write_json(Path(args.ready), {"port": server.port})
    try:
        await stop.wait()
        drained = await server.drain(timeout=30)
    finally:
        await server.close()
    counters = server.serving_snapshot()["counters"]
    return {
        "drained": drained,
        "leases_at_drain": counters.get("serving.arena.leases_at_drain", 0),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--state", required=True)
    p.add_argument("--ready", required=True)
    p.add_argument("--exit", required=True)
    p.add_argument("--trace-out", default=None)
    p.add_argument("--cpu", type=int, default=None)
    args = p.parse_args(argv)
    if args.cpu is not None:
        # Before the server starts any thread, so they all inherit it.
        os.sched_setaffinity(0, {args.cpu})
    tracer = install_tracer() if args.trace_out else None
    final = asyncio.run(serve(args, tracer))
    if tracer is not None:
        tracer.restore()
        tracer.dump(args.trace_out)
    final["peak_rss_mib"] = common.vm_hwm_mib()
    common.write_json(Path(args.exit), final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
