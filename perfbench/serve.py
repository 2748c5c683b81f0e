"""The ``serve-2mib`` workload: one load-generator process (this one)
driving the benchmark's server process (``launcher.py``) over loopback.

Requests carry f64 payloads of about 2 MiB with ``return_output=True``
over a small zipf set of keys at ranks 2-6.  The client is the
program's own ``ServingClient`` with its 2 pooled connections, on one
asyncio thread.  Phases: a closed loop with 1 outstanding request, an
open loop at a fixed offered rate, and a ladder of fixed rates for
``slo_rate_rps``.  Every reply is compared with a precomputed expected
array after its latency is taken.

The key set is one fixed draw, the same for every seed: which replica
a key hashes to shapes the figures, so a per-seed key set would spread
them across seeds.  The seed draws the payloads and the request
sequence.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import common
from library import np_problem, scale_to
from spans import Tracer, load_spans, self_times

HERE = Path(__file__).resolve().parent

# ----------------------------------------------------------------------
# frozen load shape
# ----------------------------------------------------------------------

KEYS = 8
#: The draw of the fixed key set.
KEY_SEED = 2018
ELEMS = 2 * 2 ** 20 // 8
ZIPF_S = 1.1
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
CLOSED_SHARE = 0.5
OPEN_SHARE = 0.4
#: One request in flight keeps the load generator and the server from
#: both holding a CPU at once: with two, CPU steal by other guests of
#: the 2-vCPU VM swung the figures by 20-40% between runs.
CLOSED_OUTSTANDING = 1
#: Untimed closed-loop seconds between set-up and the first phase, so
#: arena and connection buffers reach their steady size first.
SETTLE_S = 1.0
#: Open-loop offered rate, requests/s (about a quarter of the 200-250/s
#: the closed loop completes).
OPEN_RATE = 50.0
#: The closed and open phases each run as this many back-to-back
#: windows.  Each window notes the CPU time the hypervisor gave other
#: guests meanwhile (steal), and the figures pool the quieter half of
#: the windows: steal stalls the round trip, while the program itself
#: cannot cause it.  While fewer than half of the windows saw at most
#: ``QUIET_STEAL``, up to ``EXTRA_WINDOWS`` more run, so a run that
#: starts in an episode of steal can wait part of it out.
WINDOWS = 16
EXTRA_WINDOWS = 16
QUIET_STEAL = 0.02
#: ``slo_rate_rps`` ladder, requests/s.  A rung passes when it has no
#: failures, its p95 is within ``SLO_MS`` and no window's latency grows
#: by more than ``BACKLOG_MS`` from its first third to its last (both
#: over the quieter half of its windows).  The top rung lies well below
#: the server's capacity (200-400/s, by how much steal a run sees), so
#: the highest passing rung does not flip between runs of one program:
#: the figure catches a program that can no longer sustain it.  The
#: open phase is the rung at its own rate; the other rungs run
#: ``RUNG_S`` each.
LADDER = (25.0, 50.0, 100.0)
RUNG_S = 1.5
SLO_MS = 100.0
BACKLOG_MS = 50.0
#: Tail percentiles, each with at least ten samples beyond it in the
#: pooled quieter windows of a 20 s run (~1000 closed, 200 open
#: requests).
TAIL_P = 95.0
OPEN_TAIL_P = 90.0
LADDER_TAIL_P = 95.0
REQUEST_TIMEOUT_S = 10.0

#: The load generator and the server each keep to one CPU of their
#: own, so where the OS places them does not change from run to run.
#: With fewer than two CPUs both share whatever there is.
_CPUS = sorted(os.sched_getaffinity(0))
LOADGEN_CPU, SERVER_CPU = (_CPUS[0], _CPUS[1]) if len(_CPUS) >= 2 else (None, None)

#: Request id of the caller, for the client-side spans.
CURRENT = contextvars.ContextVar("request", default=None)


def serve_keys(seed: int):
    """(dims, perm) of the key set: a draw of TTC-suite problems, one
    rank per slot cycling through 2-6, scaled to 2 MiB of f64 with
    extents nudged off powers of two."""
    from repro.bench.suites import ttc_benchmark_suite

    suite = ttc_benchmark_suite()
    rng = np.random.default_rng(seed)
    keys = []
    while len(keys) < KEYS:
        rank = 2 + len(keys) % 5
        pool = [c for c in suite if len(c.dims) == rank]
        case = pool[int(rng.integers(len(pool)))]
        dims = [off_pow2(d) for d in scale_to(case.dims, ELEMS)]
        # Refit the largest extent so the payload stays near 2 MiB.
        big = dims.index(max(dims))
        dims[big] = off_pow2(round(ELEMS * dims[big] / math.prod(dims)))
        key = (tuple(dims), tuple(case.perm))
        if key not in keys:
            keys.append(key)
    return keys


def off_pow2(d: int) -> int:
    return d + 1 if d & (d - 1) == 0 else d


class Requests:
    """Seeded payloads, expected outputs and the zipf key sequence."""

    def __init__(self, seed: int):
        from repro import axes_to_perm

        rng = np.random.default_rng([seed, 3])
        self.items = []
        for dims, perm in serve_keys(KEY_SEED):
            shape, axes = np_problem(dims, perm)
            a = rng.standard_normal(shape)
            self.items.append(
                (
                    dims,
                    axes_to_perm(axes),
                    a.reshape(-1),
                    np.ascontiguousarray(a.transpose(axes)).reshape(-1),
                )
            )
        weights = 1.0 / np.arange(1, KEYS + 1) ** ZIPF_S
        self.p = weights / weights.sum()
        self.rng = np.random.default_rng([seed, 4])
        self.bytes = [item[2].nbytes for item in self.items]

    def next(self):
        return self.items[int(self.rng.choice(KEYS, p=self.p))]


class Phase:
    def __init__(self, name):
        self.name = name
        self.lat, self.lag, self.queued, self.wall, self.rids = [], [], [], [], []
        self.attempted = self.failed = 0
        self.ok_bytes = 0
        self.ticks = common.cpu_ticks()
        self.steal = 0.0
        self.start = time.perf_counter()
        self.end = self.start

    def close(self):
        self.steal = common.steal_ratio(self.ticks, common.cpu_ticks())
        return self

    @property
    def ok(self):
        return self.attempted - self.failed

    @property
    def seconds(self):
        return self.end - self.start


async def one(client, phase, item, due=None, rid=None):
    """One request; latency from ``due`` (open loop) or from the send."""
    dims, perm, payload, expected = item
    CURRENT.set(rid)
    t0 = time.perf_counter()
    if due is not None:
        phase.lag.append(t0 - due)
    phase.attempted += 1
    try:
        res = await asyncio.wait_for(
            client.execute(dims, perm, 8, payload, return_output=True),
            REQUEST_TIMEOUT_S,
        )
    except Exception as exc:  # typed errors and timeouts are failures
        phase.failed += 1
        print(f"request failed: {dims}:{perm} {exc!r}", file=sys.stderr)
        return
    t1 = time.perf_counter()
    phase.end = max(phase.end, t1)
    out = res.get("output")
    if out is None or not np.array_equal(out, expected):
        phase.failed += 1
        print(f"wrong output: {dims}:{perm}", file=sys.stderr)
        return
    phase.lat.append(t1 - (due if due is not None else t0))
    phase.queued.append(res["queued_s"])
    phase.wall.append(res["wall_s"])
    phase.rids.append(rid)
    phase.ok_bytes += 2 * payload.nbytes


async def closed_loop(client, reqs, seconds, name="closed"):
    phase = Phase(name)
    stop = phase.start + seconds
    count = 0

    async def worker():
        nonlocal count
        while time.perf_counter() < stop:
            count += 1
            await one(client, phase, reqs.next(), rid=(name, count))

    await asyncio.gather(*(worker() for _ in range(CLOSED_OUTSTANDING)))
    phase.end = time.perf_counter()
    return phase.close()


async def windows(run_window):
    """``WINDOWS`` back-to-back windows, and more while too few are quiet."""
    ws = []
    while len(ws) < WINDOWS or (
        len(ws) < WINDOWS + EXTRA_WINDOWS
        and sum(w.steal <= QUIET_STEAL for w in ws) < WINDOWS // 2
    ):
        ws.append(await run_window(len(ws)))
    return ws


async def open_loop(client, reqs, rate, seconds, name="open"):
    """Send on a fixed schedule regardless of replies."""
    phase = Phase(name)
    tasks = []
    for i in range(max(1, int(rate * seconds))):
        due = phase.start + i / rate
        # Poll the event loop until the due time rather than sleep: the
        # load generator's CPU then never idles, and waking an idle
        # vCPU takes the hypervisor a time that varies with its load.
        while time.perf_counter() < due:
            await asyncio.sleep(0)
        tasks.append(asyncio.ensure_future(
            one(client, phase, reqs.next(), due=due, rid=(name, i))
        ))
    await asyncio.gather(*tasks)
    return phase.close()


async def ladder(client, reqs, open_windows):
    """``slo_rate_rps``: the achieved rate at the highest ladder rung
    that passes.  Rungs above the open rate run upward until one fails;
    rungs below it run downward only while they fail."""
    results = {OPEN_RATE: open_windows}
    above = [r for r in LADDER if r > OPEN_RATE]
    below = sorted((r for r in LADDER if r < OPEN_RATE), reverse=True)
    if rung_passes(open_windows):
        for rate in above:
            results[rate] = [await open_loop(client, reqs, rate, RUNG_S, f"rung-{rate:g}")]
            if not rung_passes(results[rate]):
                break
    else:
        for rate in below:
            results[rate] = [await open_loop(client, reqs, rate, RUNG_S, f"rung-{rate:g}")]
            if rung_passes(results[rate]):
                break
    passed = [r for r in sorted(results) if rung_passes(results[r])]
    slo = pooled(quiet(results[passed[-1]])).rate if passed else 0.0
    line = "ladder: " + ", ".join(
        f"{rate:g}/s {'pass' if rung_passes(ws) else 'fail'} p{LADDER_TAIL_P:g}="
        + "/".join(f"{common.percentile(w.lat, LADDER_TAIL_P) * 1e3:.1f}" for w in ws)
        + " ms"
        for rate, ws in sorted(results.items()))
    rungs = [w for rate, ws in results.items() if rate != OPEN_RATE for w in ws]
    return slo, line, rungs


def rung_passes(windows):
    """No failures in any window; in the quieter half, p95 within the
    limit and no window whose latency grows (a backlog)."""
    if any(w.failed for w in windows):
        return False
    kept = quiet(windows)
    return (all(growth_ms(w) <= BACKLOG_MS for w in kept)
            and common.percentile(pooled(kept).lat, LADDER_TAIL_P) * 1e3 <= SLO_MS)


def growth_ms(phase):
    """Median latency of the last third of a window less the first's."""
    third = max(1, len(phase.lat) // 3)
    return (common.median(phase.lat[-third:]) - common.median(phase.lat[:third])) * 1e3


def quiet(windows):
    """The ``WINDOWS // 2`` windows (at least one) with the least steal."""
    return sorted(windows, key=lambda w: w.steal)[: max(1, min(len(windows) // 2, WINDOWS // 2))]


class pooled:
    """Samples of several windows taken together, and their median
    rate and bandwidth."""

    def __init__(self, windows):
        self.lat = [x for w in windows for x in w.lat]
        # Median over the windows, so one stalled window does not set it.
        self.rate = common.median([w.ok / w.seconds for w in windows])
        self.gbps = common.median([w.ok_bytes / w.seconds for w in windows]) / 1e9


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------

class Server:
    """One launcher process with its own fresh state directory."""

    def __init__(self, state: Path, trace: bool = False):
        self.dir = state
        self.dir.mkdir(parents=True)
        self.ready = self.dir / "ready.json"
        self.exit = self.dir / "exit.json"
        self.spans = self.dir / "spans.json" if trace else None
        cmd = [sys.executable, str(HERE / "launcher.py"), "--state", str(self.dir),
               "--ready", str(self.ready), "--exit", str(self.exit)]
        if SERVER_CPU is not None:
            cmd += ["--cpu", str(SERVER_CPU)]
        if trace:
            cmd += ["--trace-out", str(self.spans)]
        self.log = open(self.dir / "server.log", "w")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, env=common.child_env(self.dir), stdout=self.log, stderr=subprocess.STDOUT
        )
        deadline = time.monotonic() + 120
        while not self.ready.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise RuntimeError(f"server did not start: {self.tail()}")
            time.sleep(0.01)
        self.port = json.loads(self.ready.read_text())["port"]

    def signal(self, sig):
        self.proc.send_signal(sig)

    def tail(self):
        if not self.log.closed:
            self.log.flush()
        return (self.dir / "server.log").read_text()[-2000:]

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()

    def stop(self) -> bool:
        """Ask the server to drain and exit; kill it if it will not.
        True when it drained, exited by itself and left its port closed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
            clean = self.proc.returncode == 0
        except subprocess.TimeoutExpired:
            clean = False
        self.kill()
        if clean:
            self.final = json.loads(self.exit.read_text())
            clean = self.final["drained"] and self.final["leases_at_drain"] == 0
        with socket.socket() as s:
            s.settimeout(1)
            try:
                s.connect(("127.0.0.1", self.port))
                clean = False
            except OSError:
                pass
        if not clean:
            print(f"server did not stop cleanly: {self.tail()}", file=sys.stderr)
        return clean


async def start(state: Path, reqs, trace=False):
    """Spawn a server, connect, run every key once.  Returns the server,
    the client and the set-up time (spawn until the first timed op)."""
    from repro.serving import ServingClient

    server = Server(state, trace)
    try:
        client = await ServingClient("127.0.0.1", server.port, pool_size=2).connect()
        warm = Phase("warm-up")
        for item in reqs.items:
            await one(client, warm, item)
    except BaseException:
        server.kill()
        raise
    return server, client, time.monotonic() - server.spawned, warm


async def finish(server, client):
    """Close the client, stop the server (SIGTERM makes it drain and
    close), and check that it drained and left nothing behind."""
    try:
        await client.close()
    finally:
        clean = server.stop()
    return clean


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

def install_client_tracer() -> Tracer:
    import repro.serving.client as client_mod

    tracer = Tracer()
    tracer.enabled = False
    # The client module binds the codec functions by name.
    tracer.wrap(client_mod, "pack_frame_parts", "serving.client.encode",
                rid_of=lambda a, k, r: (CURRENT.get(), a[0].get("id")))
    tracer.wrap(client_mod, "decode", "serving.client.decode",
                rid_of=lambda a, k, r: r.get("id"))
    return tracer


async def run(state: Path, seed: int, seconds: float, trace: bool) -> dict:
    if SERVER_CPU is not None:
        # Before the event loop starts any thread, so they all inherit it.
        os.sched_setaffinity(0, {LOADGEN_CPU})
    reqs = Requests(seed)
    setups = []
    for i in range(SETUPS - 1):
        server, client, setup_s, warm = await start(state / f"setup-{i}", reqs)
        setups.append(setup_s)
        clean = await finish(server, client)
        if warm.failed or not clean:
            raise RuntimeError("set-up run failed")
    tracer = install_client_tracer() if trace else None
    server, client, setup_s, warm = await start(state / "main", reqs, trace)
    setups.append(setup_s)
    phases = [warm]
    lines = []
    layers = {}
    try:
        copy = common.copy_gbps(reqs.bytes[0])
        phases.append(await closed_loop(client, reqs, SETTLE_S, "settle"))
        closed_s = seconds * CLOSED_SHARE
        open_s = seconds * OPEN_SHARE
        if not trace:
            closed_w = await windows(
                lambda i: closed_loop(client, reqs, closed_s / WINDOWS, f"closed-{i}"))
            # Peak RSS with one request in flight.  The open loop's
            # backlog, and so its buffers, grows with the host's steal.
            peak = common.vm_hwm_mib(server.proc.pid)
            open_w = await windows(
                lambda i: open_loop(client, reqs, OPEN_RATE, open_s / WINDOWS, f"open-{i}"))
            phases += closed_w + open_w
            slo, ladder_line, rungs = await ladder(client, reqs, open_w)
            phases += rungs
            lines.append(ladder_line)
        else:
            # Half the closed phase untraced, half traced; the ratio of
            # their throughputs is the tracing overhead.
            server.signal(signal.SIGUSR2)
            await asyncio.sleep(0.05)
            untraced = await closed_loop(client, reqs, closed_s / 2, "untraced")
            server.signal(signal.SIGUSR1)
            tracer.enabled = True
            await asyncio.sleep(0.05)
            before = await client.stats()
            closed = await closed_loop(client, reqs, closed_s / 2)
            after = await client.stats()
            peak = common.vm_hwm_mib(server.proc.pid)
            opened = await open_loop(client, reqs, OPEN_RATE, open_s)
            phases += [untraced, closed, opened]
            closed_w, open_w, slo = [closed], [opened], 0.0
            layers["trace.overhead_ratio"] = (
                (untraced.ok / untraced.seconds) / (closed.ok / closed.seconds)
            )
        snapshot = await client.stats()
        retries = client.retries
    finally:
        clean = await finish(server, client)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    if not clean:
        failed += 1
        attempted += 1
        lines.append("server did not drain and stop cleanly: counted as a failed op")
    data_path = snapshot["data_path"]
    lines += common.host_lines(reqs.bytes, large=False) + [
        f"key {dims}:{perm} weight {p:.3f}"
        for (dims, perm, _a, _e), p in zip(reqs.items, reqs.p)
    ] + [
        f"closed loop: {sum(w.attempted for w in closed_w)} requests, "
        f"{CLOSED_OUTSTANDING} outstanding, {len(closed_w)} windows, tail = p{TAIL_P:g}",
        *(f"  {w.name}: steal {w.steal:.1%}, {w.ok / w.seconds:.0f}/s; " + spread_line(w)
          for w in closed_w),
        f"open loop: {sum(w.attempted for w in open_w)} requests at {OPEN_RATE:g}/s, "
        f"{len(open_w)} windows, tail = p{OPEN_TAIL_P:g}",
        *(f"  {w.name}: steal {w.steal:.1%}; " + spread_line(w) for w in open_w),
        f"server peak RSS (VmHWM) after the closed loop: {peak:.1f} MiB",
        f"slo ladder {list(LADDER)} req/s, {RUNG_S:g} s per extra rung, "
        f"limit p{LADDER_TAIL_P:g} <= {SLO_MS:g} ms, growth <= {BACKLOG_MS:g} ms",
        f"copy yardstick: np.copyto at {reqs.bytes[0] / 2 ** 20:.1f} MiB = {copy:.2f} GB/s",
        f"data path: {data_path['tensor_bytes_zero_copy']} tensor bytes zero-copy, "
        f"{data_path['tensor_bytes_copied']} copied",
    ]
    out = {
        "setup_s": common.median(setups),
        "peak_rss_mib": peak,
        "attempted": attempted,
        "failed": failed,
        "lines": lines,
    }
    closed_q, open_q = pooled(quiet(closed_w)), pooled(quiet(open_w))
    out["metrics"] = {
        "latency_p50_ms": common.percentile(closed_q.lat, 50) * 1e3,
        "latency_tail_ms": common.percentile(closed_q.lat, TAIL_P) * 1e3,
        "throughput_ops_s": closed_q.rate,
        "throughput_gbps": closed_q.gbps,
        "open_p50_ms": common.percentile(open_q.lat, 50) * 1e3,
        "open_tail_ms": common.percentile(open_q.lat, OPEN_TAIL_P) * 1e3,
        "slo_rate_rps": slo,
    }
    if trace:
        tracer.restore()
        layers.update(serve_layers(
            server, tracer, closed, opened, before, after, snapshot, copy, retries))
        layers["error_rate"] = failed / attempted
        out["layers"] = layers
    return out


def serve_layers(server, tracer, closed, opened, before, after, snapshot, copy, retries):
    """Per-layer figures: reply fields of the traced closed phase, the
    stats verb, and the spans of both processes."""
    server_spans = load_spans(server.spans) if server.spans.exists() else []
    st = self_times(server_spans)
    client_st = self_times(tracer.spans)

    def med_ms(xs):
        return common.median(xs) * 1e3 if xs else 0.0

    def delta(name):
        return (after["runtime_counters"].get(name, 0)
                - before["runtime_counters"].get(name, 0))

    def ratio(hit, miss):
        return hit / (hit + miss) if hit + miss else 0.0

    # Client codec time per request: encode spans map the caller's
    # request id to wire ids, decode spans carry the wire id.
    wire_to_rid = {}
    codec = {}
    for _sid, _p, name, t0, t1, rid in tracer.spans:
        if name == "serving.client.encode" and rid:
            caller, wire = rid
            caller = tuple(caller) if caller else None
            wire_to_rid[wire] = caller
            codec[caller] = codec.get(caller, 0.0) + t1 - t0
    for _sid, _p, name, t0, t1, rid in tracer.spans:
        if name == "serving.client.decode" and rid in wire_to_rid:
            caller = wire_to_rid[rid]
            codec[caller] = codec.get(caller, 0.0) + t1 - t0
    overhead = [
        (lat - q - w - codec.get(tuple(rid), 0.0)) * 1e3
        for lat, q, w, rid in zip(closed.lat, closed.queued, closed.wall, closed.rids)
    ]
    runs = [s for s in server_spans if s[2].startswith("kernels.run.")]
    run_s = [s[4] - s[3] for s in runs]
    fracs = [2 * s[5] / (s[4] - s[3]) / 1e9 / copy for s in runs if s[4] > s[3]]
    arena_b, arena_a = before["arena"], after["arena"]
    reuses = arena_a["reuses"] - arena_b["reuses"]
    allocs = arena_a["allocations"] - arena_b["allocations"]
    routed = [r["routed"] for r in snapshot["per_replica"]]
    admission = snapshot["admission"]
    streams = len(snapshot["per_replica"]) * 4
    figures = {
        "core.plan_ms": med_ms(st.get("core.plan", [])),
        "core.plans_built": len(st.get("core.plan", [])),
        "core.candidates_per_plan": common.median(
            [s[5] for s in server_spans if s[2] == "core.plan"] or [0]),
        "runtime.store.flush_ms": med_ms(st.get("runtime.store.flush", [])),
        "runtime.store.puts": len(st.get("runtime.store.put", [])),
        "runtime.store.file_bytes": snapshot_store_bytes(server),
        "kernels.executor.compile_ms": med_ms(st.get("kernels.executor.compile", [])),
        "kernels.executor.cache_hit_ratio": ratio(
            delta("exec_cache_hits"), delta("exec_cache_misses")),
        "kernels.run_ms": med_ms(run_s),
        "kernels.bytes_moved": sum(2 * s[5] for s in runs),
        "kernels.frac_of_copy": common.median(fracs) if fracs else 0.0,
        "runtime.scheduler.queue_wait_p50_ms": common.percentile(closed.queued, 50) * 1e3,
        "runtime.scheduler.queue_wait_tail_ms": common.percentile(closed.queued, TAIL_P) * 1e3,
        "runtime.scheduler.exec_ms": common.percentile(closed.wall, 50) * 1e3,
        "runtime.scheduler.busy_ratio": sum(closed.wall) / closed.seconds / streams,
        "runtime.service.plan_hit_ratio": ratio(delta("cache_hits"), delta("cache_misses")),
        "runtime.service.exec_cache_hit_ratio": ratio(
            delta("exec_cache_hits"), delta("exec_cache_misses")),
        "runtime.arena.reuse_ratio": ratio(reuses, allocs),
        "runtime.arena.leaked": snapshot["arena"]["leaked"],
        "serving.server.overhead_p50_ms": common.percentile(overhead, 50),
        "serving.server.overhead_tail_ms": common.percentile(overhead, TAIL_P),
        "serving.server.decode_ms": med_ms(st.get("serving.server.decode", [])),
        "serving.server.encode_ms": med_ms(st.get("serving.server.encode", [])),
        "serving.server.shed": admission["shed_overloaded"] + admission["shed_quota"],
        "serving.server.route_share_max": max(routed) / sum(routed) if sum(routed) else 0.0,
        "serving.codec.tensor_bytes_copied": snapshot["data_path"]["tensor_bytes_copied"],
        "serving.codec.tensor_bytes_zero_copy": snapshot["data_path"]["tensor_bytes_zero_copy"],
        "serving.client.encode_ms": med_ms(client_st.get("serving.client.encode", [])),
        "serving.client.decode_ms": med_ms(client_st.get("serving.client.decode", [])),
        "serving.client.retries": retries,
        "host.copy_gbps": copy,
        "loadgen.lag_p99_ms": common.percentile(opened.lag, 99) * 1e3,
    }
    for kind in ("view", "region", "indexed", "chunked", "nest"):
        figures[f"kernels.executor.kind.{kind}"] = sum(
            1 for s in runs if s[2] == "kernels.run." + kind)
    return figures


def spread_line(phase):
    return "ms at p50/p90/p95/p98/p99: " + "/".join(
        f"{common.percentile(phase.lat, p) * 1e3:.2f}" for p in (50, 90, 95, 98, 99))


def snapshot_store_bytes(server):
    path = server.dir / "plans.json"
    return path.stat().st_size if path.exists() else 0
