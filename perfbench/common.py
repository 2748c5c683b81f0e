"""Helpers shared by the benchmark's processes: statistics, host facts,
the copy yardstick and the result record."""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Checkout root: the benchmark is run from it, and ``src/`` holds the program.
ROOT = Path.cwd()
SRC = ROOT / "src"

#: Where every run keeps its private state (plan stores, autotune and
#: model files, native objects, temp files).  Listed in ``.gitignore``.
STATE_ROOT = ROOT / ".bench_state"


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env(state_dir: Path) -> Dict[str, str]:
    """Environment for a process that runs the program.

    Every location the program may persist to points into this run's
    private state directory, so nothing a previous run (or another
    commit) built can warm this one, and nothing lands outside the
    checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(state_dir / "tmp")
    env["REPRO_NATIVE_CACHE_DIR"] = str(state_dir / "native")
    env["REPRO_RUNTIME_DIR"] = str(state_dir / "runtime")
    # Fixed string hashing: set iteration order, and any work that
    # depends on it, repeats from run to run.
    env["PYTHONHASHSEED"] = "0"
    (state_dir / "tmp").mkdir(parents=True, exist_ok=True)
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    xs = sorted(values)
    if not xs:
        return math.nan
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------

def vm_hwm_mib(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return math.nan


def cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat``: user, nice, system,
    idle, iowait, irq, softirq, steal, ... in clock ticks."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def steal_ratio(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between
    two :func:`cpu_ticks` readings."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta[:8]) if sum(delta[:8]) else 0.0


def llc_bytes() -> Optional[int]:
    """Size of the highest-level cache sysfs reports for cpu0."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, None)
    for idx in sorted(base.glob("index*")):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1:], 1)
        digits = size.rstrip("KMG")
        if digits.isdigit() and level >= best[0]:
            best = (level, int(digits) * mult)
    return best[1]


def copy_gbps(nbytes: int, reps: int = 5) -> float:
    """``np.copyto`` bandwidth at ``nbytes`` per operand, GB/s of
    bytes read plus bytes written (median of ``reps``)."""
    import numpy as np

    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / median(times) / 1e9


def host_lines(operand_bytes: Sequence[int], large: bool = True) -> List[str]:
    """Host and operand-size lines; ``large`` operands are meant to
    stream from memory, so their size is held against the LLC."""
    llc = llc_bytes()
    mib = sorted({round(b / 2 ** 20, 1) for b in operand_bytes})
    lines = [
        f"host: {os.cpu_count()} cpus, LLC (sysfs cpu0) "
        + (f"{llc / 2 ** 20:.0f} MiB" if llc else "unknown"),
        f"operand sizes (MiB): {mib[:8]}{' ...' if len(mib) > 8 else ''}",
    ]
    if large and llc and max(operand_bytes, default=0) < 4 * llc:
        lines.append(
            "note: operands are below 4x the LLC sysfs reports (on a VM, a "
            "share of the host's cache); they stay at this size so a run "
            "fits memory and its time limit"
        )
    return lines


# ----------------------------------------------------------------------
# result record
# ----------------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def write_json(path: Path, obj) -> None:
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(json.dumps(obj))
    os.replace(tmp, path)


def sleep_until(t: float) -> None:
    """Sleep until ``time.perf_counter()`` reaches ``t``."""
    while True:
        left = t - time.perf_counter()
        if left <= 0:
            return
        time.sleep(min(left, 0.05) if left > 0.002 else 0)
