"""The repository benchmark: one command, every metric by name with its
unit, every output checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload repeat-large --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``repeat-large``: warm ``repro.transpose(a, axes, out=out)`` over
  fixed 64 MiB operands, one thread, no service (``library.py``).
- ``single-use``: every call a new problem through ``repro.transpose``
  with a persistent-plan default service (``library.py``).
- ``serve-2mib``: 2 MiB requests to a server process over loopback,
  one outstanding at a time (``serve.py``, ``launcher.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs with
span recorders around each layer and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every run keeps its state (plan stores, autotune and model files,
native objects, temp files) in a fresh directory under
``.bench_state/`` in the checkout and removes it at the end.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import shutil
import subprocess
import sys
import time
import uuid
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
LIBRARY_SETUPS = 5
CHILD_TIMEOUT_S = 170


def spec():
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
        [w["name"] for w in bench["workloads"]],
    )


def run_library(workload, seed, seconds, trace, state: Path) -> dict:
    """Set-up-only children, then the measured child; set-up time is
    the median over all of them."""
    setups = []
    result = None
    for i in range(LIBRARY_SETUPS):
        last = i == LIBRARY_SETUPS - 1
        sub = state / f"proc-{i}"
        sub.mkdir(parents=True)
        out = sub / "result.json"
        cmd = [
            sys.executable, str(HERE / "library.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace and last)),
            "--state", str(sub), "--result", str(out),
            "--spawned-at", repr(time.monotonic()),
        ]
        if not last:
            cmd.append("--setup-only")
        proc = subprocess.run(cmd, env=common.child_env(sub), timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(f"{workload} process exited with {proc.returncode}")
        result = json.loads(out.read_text())
        setups.append(result["setup_s"])
    result["setup_s"] = common.median(setups)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not common.program_present():
        print(f"no program to measure: {common.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    e2e, per_layer, workloads = spec()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; one of {workloads}",
              file=sys.stderr)
        return 2

    state = common.STATE_ROOT / f"{args.workload}-{args.seed}-{uuid.uuid4().hex[:8]}"
    state.mkdir(parents=True)
    ticks = common.cpu_ticks()
    try:
        if args.workload == "serve-2mib":
            sys.path.insert(0, str(common.SRC))
            os.environ.update(common.child_env(state))
            import serve

            result = asyncio.run(serve.run(state, args.seed, args.seconds, bool(args.trace)))
        else:
            result = run_library(args.workload, args.seed, args.seconds,
                                 bool(args.trace), state)
    finally:
        shutil.rmtree(state, ignore_errors=True)
        try:
            common.STATE_ROOT.rmdir()
        except OSError:
            pass

    steal = common.steal_ratio(ticks, common.cpu_ticks())
    result.setdefault("lines", []).append(
        f"host CPU steal during the run: {steal:.1%} (time given to other guests)")
    result.setdefault("layers", {})["host.steal_ratio"] = steal
    figures = dict(result["metrics"])
    figures["setup_s"] = result["setup_s"]
    figures["peak_rss_mib"] = result["peak_rss_mib"]
    if args.trace:
        # Layers a workload never enters report 0.
        figures = {name: result.get("layers", {}).get(name, 0.0) for name in per_layer}
        units = per_layer
    else:
        units = e2e
    metrics = {}
    correct = result["failed"] == 0
    for name, unit in units.items():
        value = float(figures[name])
        if not math.isfinite(value):
            print(f"metric {name} is not finite", file=sys.stderr)
            value, correct = 0.0, False
        metrics[name] = common.metric(value, unit)
    for line in result.get("lines", []):
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
