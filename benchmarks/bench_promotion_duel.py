"""Promotion duel sweep: the native nest against the view/region chain.

The library path promotes a hot view/region program to the native C
nest only after the nest wins a measured duel
(``repro.kernels.executor.run_promoted``).  This sweep is the evidence
that the duel decides something a static rule cannot: it runs the same
comparison on every case of the 57-case TTC suite (Fig. 14), with each
case's extents scaled to about 64 MiB of doubles.  Per case:

**program** — the default program the plan compiles to.  Only
``view``/``region`` programs are promotable; other kinds are listed
and not timed.

**parity first** — the nest the duel would build
(:func:`~repro.kernels.codegen.promotion_nest`) and the incumbent
program must both equal ``np.transpose`` before anything is timed.

**duel** — warm ``run(out=)`` of both, interleaved; best-of per side.
The verdict applies the duel's own rule: the nest is kept only if it
beats the incumbent by ``REFINE_SWITCH_MARGIN``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_promotion_duel.py

writes ``results/promotion_duel.json``.  CI runs ``--smoke``: 2 MiB
operands (still above ``NEST_MIN_BYTES``), fewer repeats, gating only
parity and the native attach.  The timings are host-dependent, so no
mode gates on who wins.  Without a C toolchain (``CC=/bin/false``) no
nest attaches, nothing is timed and the bench passes.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import numpy as np

import repro
from conftest import bench_parser, env_stamp, gate, interleaved_ms, pick_repeats
from repro.bench.suites import ttc_benchmark_suite
from repro.kernels.codegen import (
    REFINE_SWITCH_MARGIN,
    compile_backend,
    promotion_nest,
)

RESULTS_PATH = (
    Path(__file__).resolve().parent.parent / "results" / "promotion_duel.json"
)

#: Target operand size in f64 elements: 64 MiB full, 2 MiB smoke.
FULL_ELEMS = 8 << 20
SMOKE_ELEMS = 256 << 10

PROMOTABLE = ("view", "region")


def scaled_dims(dims, target):
    """``dims`` scaled by one factor so the volume is about ``target``."""
    factor = (target / float(np.prod(dims))) ** (1.0 / len(dims))
    return tuple(max(2, round(d * factor)) for d in dims)


def duel_case(case, target, repeats, have_cc):
    dims = scaled_dims(case.dims, target)
    axes = repro.perm_to_axes(case.perm)
    program = repro.plan_transpose(dims, case.perm, 8).executor()
    row = {
        "label": case.label,
        "dims": list(dims),
        "perm": list(case.perm),
        "program": program.kind,
    }
    if program.kind not in PROMOTABLE or not have_cc:
        return row
    nest = promotion_nest(program.in_shape, program.axes, 8)
    assert nest is not None, f"{case.label}: native nest did not attach"

    shape = tuple(dims[::-1])
    src = np.random.default_rng(5).standard_normal(shape)
    ref = src.transpose(axes).reshape(-1)
    flat = src.reshape(-1)
    out_chain = np.empty_like(flat)
    out_nest = np.empty_like(flat)
    program.run(flat, out_chain)
    nest.run(flat, out_nest)
    assert np.array_equal(out_chain, ref), f"{case.label}: incumbent parity"
    assert np.array_equal(out_nest, ref), f"{case.label}: nest parity"
    del ref

    timed = interleaved_ms(
        {
            "incumbent": lambda: program.run(flat, out_chain),
            "nest": lambda: nest.run(flat, out_nest),
        },
        repeats,
    )
    chain_ms, nest_ms = timed["incumbent"][0], timed["nest"][0]
    keep = nest_ms <= chain_ms * (1.0 - REFINE_SWITCH_MARGIN)
    row.update(
        incumbent_ms=round(chain_ms, 3),
        nest_ms=round(nest_ms, 3),
        nest_speedup=round(chain_ms / nest_ms, 3),
        verdict="nest" if keep else "incumbent",
        tiles=list(nest.descriptor["tiles"]),
    )
    return row


def main(argv=None):
    ap = bench_parser(__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=RESULTS_PATH)
    args = ap.parse_args(argv)
    repeats = pick_repeats(args, full=5, smoke=2)
    target = SMOKE_ELEMS if args.smoke else FULL_ELEMS
    have_cc = compile_backend() == "c"

    rows = []
    for case in ttc_benchmark_suite():
        rows.append(duel_case(case, target, repeats, have_cc))
        repro.clear_exec_caches()

    dueled = [r for r in rows if "verdict" in r]
    lost = sorted(
        (r for r in dueled if r["verdict"] == "incumbent"),
        key=lambda r: r["nest_speedup"],
    )
    speedups = [r["nest_speedup"] for r in dueled]
    print(
        f"{'case':<24s} {'program':<8s} {'incumbent':>10s} {'nest':>10s} "
        f"{'speedup':>8s}  verdict"
    )
    for r in rows:
        if "verdict" not in r:
            print(f"{r['label']:<24s} {r['program']:<8s} {'-':>10s}")
            continue
        print(
            f"{r['label']:<24s} {r['program']:<8s} "
            f"{r['incumbent_ms']:>8.2f}ms {r['nest_ms']:>8.2f}ms "
            f"{r['nest_speedup']:>7.2f}x  {r['verdict']}"
        )
    if dueled:
        print(
            f"{len(dueled)} of {len(rows)} cases promotable; nest kept on "
            f"{len(dueled) - len(lost)}, incumbent kept on {len(lost)}; "
            f"nest speedup median {statistics.median(speedups):.2f}x, "
            f"min {min(speedups):.2f}x, max {max(speedups):.2f}x"
        )
    else:
        print(f"no case dueled (C backend: {have_cc})")

    if args.smoke:
        # Parity and the native attach are asserted per case; who wins
        # depends on the host, so smoke gates nothing further.
        return gate("PROMOTION DUEL SMOKE REGRESSION", [], smoke=True)

    summary = {
        "env": env_stamp(False, "sweep reports verdicts; nothing is gated"),
        "repeats": repeats,
        "operand_mib": target * 8 / (1 << 20),
        "switch_margin": REFINE_SWITCH_MARGIN,
        "cases": len(rows),
        "dueled": len(dueled),
        "kept_nest": len(dueled) - len(lost),
        "kept_incumbent": len(lost),
        "nest_speedup_median": (
            round(statistics.median(speedups), 3) if speedups else None
        ),
        "incumbent_wins": [
            {k: r[k] for k in ("label", "dims", "program", "nest_speedup")}
            for r in lost
        ],
        "rows": rows,
    }
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
