"""Public TTLG API.

Two entry levels:

- **NumPy convention** (friendly): :func:`transpose` behaves like
  ``np.transpose(a, axes)`` but runs through a TTLG plan on the
  simulated GPU and can report the simulated time/bandwidth.
- **Paper convention** (dims with dim 0 fastest, permutation ``p[i] = j``
  meaning output dim ``i`` is input dim ``j``): :func:`plan_transpose`,
  :class:`Transposer`, :func:`predict_time`.

:func:`predict_time` is the paper's "performance modeling interface that
can be queried by an invoking context" — e.g. the TTGT contraction
planner in :mod:`repro.ttgt`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import cached_plan
from repro.core.plan import Predictor, TransposePlan, make_plan
from repro.core.taxonomy import Schema
from repro.errors import InvalidLayoutError
from repro.gpusim.cost import CostModel
from repro.gpusim.spec import KEPLER_K40C, DeviceSpec


def axes_to_perm(axes: Sequence[int]) -> Tuple[int, ...]:
    """Convert NumPy ``transpose`` axes to the paper's permutation.

    With rank ``r``: ``p[i] = r - 1 - axes[r - 1 - i]``.
    """
    r = len(axes)
    return tuple(r - 1 - axes[r - 1 - i] for i in range(r))


def perm_to_axes(perm: Sequence[int]) -> Tuple[int, ...]:
    """Inverse of :func:`axes_to_perm` (the conversion is an involution)."""
    return axes_to_perm(perm)


def _elem_bytes_of(dtype: np.dtype) -> int:
    size = np.dtype(dtype).itemsize
    if size not in (4, 8):
        raise InvalidLayoutError(
            f"TTLG kernels support 4- or 8-byte elements, got {size}-byte "
            f"dtype {dtype}"
        )
    return size


def _check_out(
    out: np.ndarray,
    dtype: np.dtype,
    shape: Optional[Tuple[int, ...]] = None,
    size: Optional[int] = None,
) -> np.ndarray:
    """Validate a caller-provided output buffer up front.

    The kernels' own ``check_output`` runs deep inside execution and
    raises ``SchemaError``; historically a non-contiguous or
    wrong-dtype ``out`` was accepted by some paths (silently copied) and
    rejected by others.  Every public ``out=`` now fails fast here with
    a consistent :class:`InvalidLayoutError`.
    """
    if not isinstance(out, np.ndarray):
        raise InvalidLayoutError(
            f"out must be a numpy array, got {type(out).__name__}"
        )
    if shape is not None and out.shape != tuple(shape):
        raise InvalidLayoutError(
            f"out has shape {out.shape}, expected {tuple(shape)}"
        )
    if size is not None and out.size != size:
        raise InvalidLayoutError(
            f"out has {out.size} elements, expected {size}"
        )
    if out.dtype != np.dtype(dtype):
        raise InvalidLayoutError(
            f"out has dtype {out.dtype}, expected {np.dtype(dtype)}"
        )
    if not out.flags.c_contiguous:
        raise InvalidLayoutError(
            "out must be C-contiguous (the kernels write the output "
            "linearization in place)"
        )
    if not out.flags.writeable:
        raise InvalidLayoutError("out is read-only")
    return out


def _plan_for(
    dims: Sequence[int],
    perm: Sequence[int],
    elem_bytes: int,
    spec: DeviceSpec,
    predictor: Optional[Predictor],
) -> TransposePlan:
    """Plan through the installed runtime service, else the process-wide
    plan cache.

    When a process-wide :class:`repro.runtime.TransposeService` is
    installed (see :func:`repro.runtime.set_default_service`), planning
    routes through it — gaining request coalescing, the LRU cache, the
    persistent plan store, and metrics.  Without one, the process-wide
    :class:`~repro.core.cache.PlanCache` (:func:`~repro.core.cache
    .cached_plan`) plans each problem once.  A caller that pins a custom
    ``predictor`` bypasses both: neither can honour it per call.
    """
    if predictor is not None:
        return make_plan(dims, perm, elem_bytes, spec, predictor)
    from repro.runtime import get_default_service

    service = get_default_service()
    if service is not None:
        return service.plan(dims, perm, elem_bytes, spec)
    return cached_plan(dims, perm, elem_bytes, spec)


@dataclass(frozen=True)
class TransposeEstimate:
    """Answer of the queryable performance-model interface."""

    schema: Schema
    kernel_time: float
    plan_time: float
    bandwidth_gbps: float
    num_candidates: int

    @property
    def single_use_time(self) -> float:
        return self.kernel_time + self.plan_time


class Transposer:
    """A planned transposition for the repeated-use scenario.

    Plan once, call many times; mirrors cuTT's plan handle and TTC's
    generated kernel.

    Parameters use the paper convention; see :func:`transpose` for the
    NumPy-flavoured one-shot API.
    """

    def __init__(
        self,
        dims: Sequence[int],
        perm: Sequence[int],
        elem_bytes: int = 8,
        spec: DeviceSpec = KEPLER_K40C,
        predictor: Optional[Predictor] = None,
    ):
        self.plan = make_plan(dims, perm, elem_bytes, spec, predictor)
        self._cost_model = CostModel(spec)
        self.calls = 0

    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self.plan.schema

    def __call__(
        self, src_flat: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Execute on linearized data (paper convention).

        With ``out`` (C-contiguous, same size and dtype) the result is
        written in place — the steady-state repeated-use call does no
        allocation at all.  An ``out`` of the wrong dtype, size, or
        memory layout raises :class:`InvalidLayoutError` before
        anything executes.
        """
        self.calls += 1
        if out is not None:
            _check_out(
                out,
                np.asarray(src_flat).dtype,
                size=self.plan.layout.volume,
            )
        return self.plan.execute(src_flat, out=out)

    def simulated_time(self) -> float:
        return self.plan.simulated_time(self._cost_model)

    def estimate(self) -> TransposeEstimate:
        t = self.simulated_time()
        return TransposeEstimate(
            schema=self.schema,
            kernel_time=t,
            plan_time=self.plan.plan_time,
            bandwidth_gbps=self._cost_model.bandwidth_gbps(
                self.plan.layout.volume, self.plan.elem_bytes, t
            ),
            num_candidates=self.plan.num_candidates,
        )


def plan_transpose(
    dims: Sequence[int],
    perm: Sequence[int],
    elem_bytes: int = 8,
    spec: DeviceSpec = KEPLER_K40C,
    predictor: Optional[Predictor] = None,
) -> TransposePlan:
    """Plan a transposition in the paper convention (see module docs).

    Routes through the installed runtime service, when there is one.
    """
    return _plan_for(dims, perm, elem_bytes, spec, predictor)


def predict_time(
    dims: Sequence[int],
    perm: Sequence[int],
    elem_bytes: int = 8,
    spec: DeviceSpec = KEPLER_K40C,
    predictor: Optional[Predictor] = None,
) -> TransposeEstimate:
    """Estimate a transposition without executing it.

    This is the interface a higher-level optimizer (e.g. a TTGT tensor
    contraction planner) queries to choose among layouts.
    """
    plan = _plan_for(dims, perm, elem_bytes, spec, predictor)
    cm = CostModel(spec)
    t = plan.simulated_time(cm)
    return TransposeEstimate(
        schema=plan.schema,
        kernel_time=t,
        plan_time=plan.plan_time,
        bandwidth_gbps=cm.bandwidth_gbps(plan.layout.volume, elem_bytes, t),
        num_candidates=plan.num_candidates,
    )


def transpose_many(
    arrays: Sequence[np.ndarray],
    axes: Sequence[int],
    spec: DeviceSpec = KEPLER_K40C,
    predictor: Optional[Predictor] = None,
) -> list:
    """Transpose a batch of same-shape arrays through ONE plan.

    The repeated-use pattern (Fig. 12) as an API: the plan is built once
    and reused, and the whole batch moves as **one** fused
    :meth:`~repro.kernels.executor.ExecutorProgram.run_batch` over a
    stacked leading axis, so the per-call cost is a single kernel
    execution for the entire batch.  All arrays must share the first
    array's shape and dtype.
    """
    if not arrays:
        return []
    first = np.ascontiguousarray(arrays[0])
    if first.ndim != len(axes):
        raise InvalidLayoutError(
            f"axes of length {len(axes)} for a rank-{first.ndim} array"
        )
    dims = first.shape[::-1]
    perm = axes_to_perm(axes)
    plan = _plan_for(dims, perm, _elem_bytes_of(first.dtype), spec, predictor)
    out_shape = tuple(first.shape[ax] for ax in axes)
    flats = []
    for a in arrays:
        a = np.ascontiguousarray(a)
        if a.shape != first.shape or a.dtype != first.dtype:
            raise InvalidLayoutError(
                "transpose_many requires a homogeneous batch: got "
                f"{a.shape}/{a.dtype} vs {first.shape}/{first.dtype}"
            )
        flats.append(plan.kernel.check_input(a.reshape(-1)))
    moved = plan.executor().run_batch(flats)
    return [row.reshape(out_shape) for row in moved]


def transpose(
    array: np.ndarray,
    axes: Sequence[int],
    spec: DeviceSpec = KEPLER_K40C,
    predictor: Optional[Predictor] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``np.transpose(array, axes)`` through a TTLG plan.

    The array must be C-contiguous (or convertible); the result is a new
    contiguous array, element-identical to NumPy's transposition.  With
    ``out`` (C-contiguous, the transposed shape, same dtype) the result
    is written in place and ``out`` is returned; a non-contiguous,
    wrong-shape, or wrong-dtype ``out`` raises
    :class:`InvalidLayoutError` before anything is planned or executed.

    The plan is memoized: without an installed runtime service, each
    problem ``(shape, axes, dtype width, spec)`` is planned once per
    process through the process-wide :class:`~repro.core.cache
    .PlanCache`, so repeated calls skip planning (a pinned
    ``predictor`` bypasses the cache and plans every call).  Repeated
    large calls may also be promoted to the native nest after a
    measured duel (:func:`~repro.kernels.executor.run_promoted`).
    """
    a = np.ascontiguousarray(array)
    if a.ndim != len(axes):
        raise InvalidLayoutError(
            f"axes of length {len(axes)} for a rank-{a.ndim} array"
        )
    dims = a.shape[::-1]  # our dim 0 is the fastest (NumPy's last axis)
    perm = axes_to_perm(axes)
    out_shape = tuple(a.shape[ax] for ax in axes)
    if out is not None:
        _check_out(out, a.dtype, shape=out_shape)
    plan = _plan_for(dims, perm, _elem_bytes_of(a.dtype), spec, predictor)
    if out is not None:
        plan.execute(a.reshape(-1), out=out)
        return out
    return plan.execute(a.reshape(-1)).reshape(out_shape)
