"""Library workloads, run in their own process: ``repeat-large`` and
``single-use``.

Started by ``run.py``::

    python3 perfbench/library.py --workload repeat-large --seed 1 \\
        --seconds 20 --trace 0 --state DIR --result FILE \\
        --spawned-at T [--setup-only]

The process plays one caller of the library.  It sets the library up
(imports, model load, planning and compiling of the workload's keys),
notes how long that took since it was spawned, and with
``--setup-only`` stops there.  Otherwise it builds the seeded inputs,
runs a closed-loop phase and then an open-loop phase, checks every
output against ``np.transpose`` outside the timed interval, and writes
its figures as JSON to ``--result``.  With ``--trace 1`` it records
spans around the public entry points of each layer (see ``spans.py``).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

import common
from spans import Tracer, self_times, wrap_runtime_layers

# ----------------------------------------------------------------------
# frozen load shape
# ----------------------------------------------------------------------

#: repeat-large: 64 MiB f64 cases in the paper convention (dims with
#: dim 0 fastest; perm[i] is the input dim of output dim i).  ``None``
#: dims take the named TTC case scaled to 64 MiB.  A fifth case is
#: drawn by the seed from the TTC suite's balanced rank-6 cases.
REPEAT_FIXED = (
    ("od-reverse", (128, 64, 32, 32), (3, 2, 1, 0)),
    ("oa-partial", (64, 32768, 2, 2), (1, 0, 3, 2)),
    ("reverse-3d", (256, 256, 128), (2, 1, 0)),
    ("ttc-r3v1-2-1-0", None, (2, 1, 0)),
)
REPEAT_BYTES = 64 * 2 ** 20
#: Open-loop offered rate, calls/s (about half of capacity).
REPEAT_OPEN_RATE = 5.0
#: Tail percentiles: the highest with at least ten samples beyond them
#: at the phase lengths a 20 s run gives (~120 closed, ~45 open calls).
REPEAT_TAIL_P = 90.0
REPEAT_OPEN_TAIL_P = 75.0
#: Open-loop latency limit of ``slo_rate_rps``, ms.
REPEAT_SLO_MS = 400.0

#: single-use: calls per round.  Every round opens a fresh plan store,
#: so a store grows from 0 to this many entries and no further.  The
#: closed phase runs whole rounds, one per ``SINGLE_ROUND_S`` of its
#: share of ``--seconds`` (2 rounds in a 20 s run).
SINGLE_CALLS = 100
SINGLE_ROUND_S = 5.0
#: The draw of the problems: one fixed set per round index, the same
#: for every seed.  Planning time differs widely between problems, so
#: a per-seed set would spread the figures across seeds; the seed
#: draws the operand values.
SINGLE_KEY_SEED = 2018
SINGLE_MIN_ELEMS = 32 * 1024
SINGLE_MAX_ELEMS = 256 * 1024
SINGLE_OPEN_RATE = 8.0
SINGLE_TAIL_P = 95.0
SINGLE_OPEN_TAIL_P = 90.0
SINGLE_SLO_MS = 250.0
#: A fixed problem outside the key space, run during set-up.
SINGLE_WARMUP = ((24, 40, 56), (2, 0, 1))
#: The copy yardstick's size for single-use: a typical operand.
SINGLE_COPY_BYTES = 2 ** 20

#: Share of the measured seconds given to the closed-loop phase.
CLOSED_SHARE = 0.55


def scale_to(dims, target_elems):
    s = (target_elems / math.prod(dims)) ** (1 / len(dims))
    return tuple(max(2, round(d * s)) for d in dims)


def repeat_cases(seed: int):
    """(name, dims, perm) of the repeat-large operands."""
    from repro.bench.suites import ttc_benchmark_suite

    suite = ttc_benchmark_suite()
    elems = REPEAT_BYTES // 8
    cases = []
    for name, dims, perm in REPEAT_FIXED:
        if dims is None:
            label = "r3v1 " + " ".join(map(str, perm))
            dims = scale_to(next(c for c in suite if c.label == label).dims, elems)
        cases.append((name, tuple(dims), tuple(perm)))
    rank6 = [c for c in suite if c.label.startswith("r6v0 ")]
    pick = rank6[int(np.random.default_rng(seed).integers(len(rank6)))]
    cases.append(
        ("ttc-" + pick.label.replace(" ", "-"), scale_to(pick.dims, elems), pick.perm)
    )
    return cases


def single_keys(seed: int, round_no: int, count: int, seen: set):
    """``count`` unseen (dims, perm) in shuffled order: ranks 3-6 in
    equal numbers, volumes stratified log-uniformly over 32K-256K
    elements, extents nudged off powers of two so partial-tile (region)
    programs appear.  Stratifying keeps each round's mix the same
    across seeds."""
    rng = np.random.default_rng([seed, round_no])
    lo, hi = math.log(SINGLE_MIN_ELEMS), math.log(SINGLE_MAX_ELEMS)
    keys = []
    while len(keys) < count:
        slot = len(keys)
        rank = 3 + slot % 4
        stratum = (slot // 4 + rng.uniform()) / math.ceil(count / 4)
        target = math.exp(lo + stratum * (hi - lo))
        shares = rng.dirichlet(np.ones(rank))
        dims = [max(2, int(round(target ** w))) for w in shares]
        dims = tuple(d + 1 if d & (d - 1) == 0 else d for d in dims)
        if not SINGLE_MIN_ELEMS <= math.prod(dims) <= SINGLE_MAX_ELEMS:
            continue
        perm = tuple(int(p) for p in rng.permutation(rank))
        if perm == tuple(range(rank)) or (dims, perm) in seen:
            continue
        seen.add((dims, perm))
        keys.append((dims, perm))
    return [keys[i] for i in rng.permutation(count)]


def np_problem(dims, perm):
    """NumPy shape and transpose axes of a paper-convention problem."""
    from repro import perm_to_axes

    return tuple(dims[::-1]), perm_to_axes(perm)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

def install_tracer() -> Tracer:
    """Spans around each layer's public entry point, from outside."""
    import repro.core.api
    import repro.core.cache

    tracer = Tracer()
    tracer.candidates = []

    def note_plan(plan):
        if plan is not None:
            tracer.candidates.append(plan.num_candidates)

    # make_plan is bound by name in both modules that call it.
    for module in (repro.core.api, repro.core.cache):
        tracer.wrap(module, "make_plan", "core.plan", on_result=note_plan)
    wrap_runtime_layers(tracer)
    return tracer


# ----------------------------------------------------------------------
# measurement loops
# ----------------------------------------------------------------------

class Op:
    """One library call with its output check."""

    __slots__ = ("name", "call", "check", "nbytes")

    def __init__(self, name, call, check, nbytes):
        self.name, self.call, self.check, self.nbytes = name, call, check, nbytes


class Phase:
    """Per-op latencies, lateness, computed bytes and failures of one phase."""

    def __init__(self) -> None:
        self.lat = []
        self.lag = []
        self.ok_bytes = 0
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def ok(self) -> int:
        return self.attempted - self.failed

    def run(self, op, due=None, tracer=None, rid=None):
        """Time one call; check its output outside the timed part."""
        if tracer is not None:
            tracer.set_request(rid)
        err = got = None
        t0 = time.perf_counter()
        try:
            got = op.call()
        except Exception as exc:  # every failure is counted, none is fatal
            err = exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.set_request(None)
        self.attempted += 1
        self.busy += t1 - t0
        self.end = t1
        if due is not None:
            self.lag.append(t0 - due)
        if err is None and op.check(got):
            self.lat.append(t1 - (due if due is not None else t0))
            self.ok_bytes += 2 * op.nbytes
        else:
            self.failed += 1
            print(f"{'failed' if err else 'wrong output'}: {op.name} {err!r}",
                  file=sys.stderr)


def closed_loop(ops, seconds, tracer=None):
    phase = Phase()
    stop = phase.start + seconds
    for i, op in enumerate(ops):
        if op is None or time.perf_counter() >= stop:
            break
        phase.run(op, tracer=tracer, rid=(op.name, op.nbytes, i))
    return phase


def open_loop(ops, rate, count, tracer=None):
    """Issue ``count`` calls due at a fixed ``rate``.  Latency runs from
    each call's due time, so a stall also delays the calls behind it."""
    phase = Phase()
    for i, op in zip(range(count), ops):
        if op is None:
            break
        due = phase.start + i / rate
        common.sleep_until(due)
        phase.run(op, due=due, tracer=tracer, rid=(op.name, op.nbytes, f"open-{i}"))
    return phase


def slo_rate(phase, limit_ms, tail_p):
    """The open phase's achieved rate when its tail met the latency
    limit with no failures and no growing backlog; else 0.  A single
    caller's ladder has one rung: the workload's open-loop rate."""
    if not phase.lat or phase.failed:
        return 0.0
    third = max(1, len(phase.lag) // 3)
    growing = common.median(phase.lag[-third:]) > 2 * common.median(phase.lag[:third]) + 0.010
    if growing or common.percentile(phase.lat, tail_p) * 1e3 > limit_ms:
        return 0.0
    return phase.ok / (phase.end - phase.start)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class RepeatLarge:
    """Warm ``repro.transpose(a, axes, out=out)`` over fixed 64 MiB
    operands on the default path, no service installed."""

    tail_p = REPEAT_TAIL_P
    open_tail_p = REPEAT_OPEN_TAIL_P
    open_rate = REPEAT_OPEN_RATE
    slo_ms = REPEAT_SLO_MS
    copy_bytes = REPEAT_BYTES

    def __init__(self, args):
        self.seed = args.seed

    def setup(self):
        import repro

        self.repro = repro
        self.cases = repeat_cases(self.seed)
        self.kinds = {
            name: repro.plan_transpose(dims, perm).executor().kind
            for name, dims, perm in self.cases
        }

    def prepare(self):
        """Seeded operands and one untimed call per case, so first-touch
        page faults stay out of the loop.  Outputs are checked against a
        view of the operand, not a stored copy, so the program's own
        allocations make up a real share of the peak RSS."""
        rng = np.random.default_rng(self.seed)
        biggest = max(math.prod(dims) for _n, dims, _p in self.cases)
        out_buf = np.empty(biggest)
        self.ops = []
        for name, dims, perm in self.cases:
            shape, axes = np_problem(dims, perm)
            a = rng.standard_normal(shape)
            out = out_buf[: a.size].reshape(tuple(shape[ax] for ax in axes))
            op = Op(
                name,
                lambda a=a, axes=axes, out=out: self.repro.transpose(a, axes, out=out),
                lambda got, a=a, axes=axes: np.array_equal(got, a.transpose(axes)),
                a.nbytes,
            )
            op.call()
            self.ops.append(op)
        self.operand_bytes = [op.nbytes for op in self.ops]

    def _cycle(self):
        i = 0
        while True:
            yield self.ops[i % len(self.ops)]
            i += 1

    def closed_ops(self, seconds):
        """Ops of a closed phase and its time limit."""
        return self._cycle(), seconds

    def rewind(self):
        """Every closed phase already starts from the first case, warm."""

    def ops_open(self):
        return self._cycle()

    def open_count(self, seconds):
        return max(1, int(seconds * self.open_rate))

    def describe(self):
        return [
            f"case {name}: dims {dims} perm {perm} "
            f"{math.prod(dims) * 8 / 2 ** 20:.1f} MiB, program {self.kinds[name]}"
            for name, dims, perm in self.cases
        ]

    def close(self):
        pass


class SingleUse:
    """Every call a new (dims, perm) through ``repro.transpose`` with a
    persistent-plan default service; rounds of ``SINGLE_CALLS`` calls,
    each round on a fresh store."""

    tail_p = SINGLE_TAIL_P
    open_tail_p = SINGLE_OPEN_TAIL_P
    open_rate = SINGLE_OPEN_RATE
    slo_ms = SINGLE_SLO_MS
    copy_bytes = SINGLE_COPY_BYTES

    def __init__(self, args):
        self.seed = args.seed
        self.state = Path(args.state)
        self.rounds = 0
        self.service = None
        self.seen = set()
        #: Keys of each measured round by number, drawn once.
        self.drawn = {}
        self.next_round = self.last_first = 1
        self.store_sizes = []
        #: Plan-cache (hits, misses) of each closed service.
        self.plan_counts = []
        self.operand_bytes = []

    def _open_service(self):
        import repro

        self.close()
        self.store_path = self.state / f"round-{self.rounds:03d}" / "plans.json"
        self.rounds += 1
        self.service = repro.install_default_service(store_path=self.store_path)

    def close(self):
        if self.service is None:
            return
        import repro

        stats = self.service.cache.snapshot_stats()
        self.plan_counts.append((stats.hits, stats.misses))
        self.service.close()
        repro.set_default_service(None)
        self.service = None
        if self.store_path.exists():
            self.store_sizes.append(self.store_path.stat().st_size)

    def setup(self):
        import repro

        self.repro = repro
        self._open_service()
        dims, perm = SINGLE_WARMUP
        shape, axes = np_problem(dims, perm)
        repro.transpose(np.ones(shape), axes)
        self.close()
        self.store_sizes.clear()

    def prepare(self):
        pass

    def _round(self, number):
        """The calls of measured round ``number`` on a fresh store.  A
        number seen before replays the same keys and operands."""
        self._open_service()
        if number not in self.drawn:
            self.drawn[number] = single_keys(SINGLE_KEY_SEED, number, SINGLE_CALLS, self.seen)
        rng = np.random.default_rng([self.seed, number, 1])
        for dims, perm in self.drawn[number]:
            shape, axes = np_problem(dims, perm)
            a = rng.standard_normal(shape)
            self.operand_bytes.append(a.nbytes)
            yield Op(
                f"{dims}:{perm}",
                lambda a=a, axes=axes: self.repro.transpose(a, axes),
                lambda got, a=a, axes=axes: np.array_equal(got, a.transpose(axes)),
                a.nbytes,
            )
        self.close()

    def closed_ops(self, seconds):
        """Whole rounds, as many as ``seconds`` holds at the nominal
        round time; the count, not a clock, ends the phase."""
        count = max(1, round(seconds / SINGLE_ROUND_S))
        self.last_first = self.next_round
        self.next_round += count
        return self._rounds(range(self.last_first, self.next_round)), math.inf

    def rewind(self):
        """Make the next closed phase replay the rounds of the last one,
        from caches as cold as they were then."""
        self.next_round = self.last_first
        cold_caches()

    def _rounds(self, numbers):
        for number in numbers:
            yield from self._round(number)
        while True:
            yield None

    def ops_open(self):
        self.next_round += 1
        return self._rounds([self.next_round - 1])

    def open_count(self, seconds):
        return SINGLE_CALLS

    def describe(self):
        return [
            f"{SINGLE_CALLS} new keys per round, each round on a fresh plan "
            f"store; ranks 3-6, {SINGLE_MIN_ELEMS}-{SINGLE_MAX_ELEMS} f64 elements",
            f"rounds measured: {len(self.store_sizes)}, plan-store bytes at round end: "
            f"{self.store_sizes}",
        ]


WORKLOADS = {"repeat-large": RepeatLarge, "single-use": SingleUse}


def cold_caches():
    """Drop the in-process caches a new problem would miss: compiled
    programs and the kernels' memo tables.  The loaded model stays, as
    it does for every call after set-up; plan stores are per round."""
    import repro

    repro.clear_exec_caches()
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.kernels."):
            continue
        for obj in list(vars(module).values()):
            # functools.lru_cache wrappers
            if not isinstance(obj, type) and callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------

def e2e_figures(wl, closed, opened):
    lat_ms = [x * 1e3 for x in closed.lat]
    open_ms = [x * 1e3 for x in opened.lat]
    return {
        "latency_p50_ms": common.percentile(lat_ms, 50),
        "latency_tail_ms": common.percentile(lat_ms, wl.tail_p),
        "throughput_ops_s": closed.ok / closed.busy,
        "throughput_gbps": closed.ok_bytes / closed.busy / 1e9,
        "open_p50_ms": common.percentile(open_ms, 50),
        "open_tail_ms": common.percentile(open_ms, wl.open_tail_p),
        "slo_rate_rps": slo_rate(opened, wl.slo_ms, wl.open_tail_p),
    }


def layer_figures(tracer, wl, exec_delta, plan_delta, copy_gbps):
    """Per-layer figures from the spans of the traced phases (request
    id ``(case, operand bytes, n)``) and the set-up spans."""
    timed = [s for s in tracer.spans if s[5] != "setup"]
    st = self_times(timed)
    runs = [s for s in timed if s[2].startswith("kernels.run.")]
    per_case = {}
    for s in runs:
        per_case.setdefault(s[5][0], []).append((s[5][1], s[4] - s[3]))
    fracs = {
        case: 2 * v[0][0] / common.median([t for _b, t in v]) / 1e9 / copy_gbps
        for case, v in per_case.items()
    }
    compiles = self_times(tracer.spans).get("kernels.executor.compile", [])
    flushes = st.get("runtime.store.flush", [])
    plans = st.get("core.plan", [])
    hits, misses = exec_delta

    def med_ms(xs):
        return common.median(xs) * 1e3 if xs else 0.0

    def ratio(hit, miss):
        return hit / (hit + miss) if hit + miss else 0.0

    figures = {
        "core.plan_ms": med_ms(plans),
        "core.plans_built": len(plans),
        "core.candidates_per_plan": common.median(tracer.candidates)
        if tracer.candidates else 0.0,
        "runtime.store.flush_ms": med_ms(flushes),
        "runtime.store.puts": len(st.get("runtime.store.put", [])),
        "runtime.store.file_bytes": common.median(getattr(wl, "store_sizes", []) or [0]),
        "kernels.executor.compile_ms": med_ms(compiles),
        "kernels.executor.cache_hit_ratio": ratio(hits, misses),
        "kernels.run_ms": med_ms([s[4] - s[3] for s in runs]),
        "kernels.bytes_moved": sum(2 * s[5][1] for s in runs),
        "kernels.frac_of_copy": common.median(list(fracs.values())) if fracs else 0.0,
    }
    if st.get("runtime.service.plan"):
        # Only single-use goes through a service; there the library's
        # program cache is the service's.
        figures["runtime.service.plan_hit_ratio"] = ratio(*plan_delta)
        figures["runtime.service.exec_cache_hit_ratio"] = ratio(hits, misses)
    for kind in ("view", "region", "indexed", "chunked", "nest"):
        figures[f"kernels.executor.kind.{kind}"] = sum(
            1 for s in runs if s[2] == "kernels.run." + kind
        )
    return figures, fracs


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--state", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import repro

    wl = WORKLOADS[args.workload](args)
    tracer = install_tracer() if args.trace else None
    if tracer is not None:
        tracer.set_request("setup")
    wl.setup()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        common.write_json(Path(args.result), {"setup_s": setup_s})
        return 0
    # The copy yardstick runs before the inputs exist, so its buffers
    # do not add to the peak RSS the workload reports.
    host_copy = common.copy_gbps(wl.copy_bytes, reps=9)
    wl.prepare()
    closed_s = args.seconds * CLOSED_SHARE
    layers = {}
    started = time.perf_counter()
    if tracer is None:
        phases = [closed_loop(*wl.closed_ops(closed_s))]
    else:
        # Half the closed phase untraced, then the same calls traced:
        # the throughput ratio of the two halves is the tracing overhead.
        tracer.set_request(None)
        tracer.enabled = False
        untraced = closed_loop(*wl.closed_ops(closed_s / 2))
        wl.rewind()
        tracer.enabled = True
        tracer.candidates.clear()
        plan_counts = getattr(wl, "plan_counts", [])
        plan_counts.clear()
        before = repro.exec_cache_stats()
        phases = [closed_loop(*wl.closed_ops(closed_s / 2), tracer), untraced]
        after = repro.exec_cache_stats()
        exec_delta = (after["hits"] - before["hits"], after["misses"] - before["misses"])
        plan_delta = tuple(sum(c[i] for c in plan_counts) for i in (0, 1))
        layers["trace.overhead_ratio"] = (
            (untraced.ok / untraced.busy) / (phases[0].ok / phases[0].busy)
        )
    closed = phases[0]
    wl.close()
    open_s = args.seconds - (time.perf_counter() - started)
    opened = open_loop(wl.ops_open(), wl.open_rate, wl.open_count(open_s), tracer)
    phases.append(opened)
    wl.close()

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    out = {
        "setup_s": setup_s,
        "peak_rss_mib": common.vm_hwm_mib(),
        "attempted": attempted,
        "failed": failed,
        "metrics": e2e_figures(wl, closed, opened),
        "lines": common.host_lines(wl.operand_bytes, wl.copy_bytes == REPEAT_BYTES)
        + wl.describe() + [
            f"closed loop: {closed.attempted} calls in {closed.end - closed.start:.2f} s, "
            f"tail = p{wl.tail_p:g}",
            f"open loop: {opened.attempted} calls at {wl.open_rate:g}/s, "
            f"tail = p{wl.open_tail_p:g}, SLO limit {wl.slo_ms:g} ms",
            f"copy yardstick: np.copyto at {wl.copy_bytes / 2 ** 20:g} MiB = "
            f"{host_copy:.2f} GB/s (read + write)",
        ],
    }
    if tracer is not None:
        figures, fracs = layer_figures(tracer, wl, exec_delta, plan_delta, host_copy)
        layers.update(figures)
        layers["host.copy_gbps"] = host_copy
        layers["loadgen.lag_p99_ms"] = common.percentile(opened.lag, 99) * 1e3
        layers["error_rate"] = failed / attempted
        out["layers"] = layers
        if len(fracs) <= 8:
            out["lines"] += [f"frac_of_copy {c}: {f:.3f}" for c, f in sorted(fracs.items())]
        tracer.restore()
    common.write_json(Path(args.result), out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
