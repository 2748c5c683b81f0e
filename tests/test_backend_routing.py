"""The scheduler's execution backends: ``thread``, ``codegen``, ``auto``.

Covers bit-exact thread/codegen parity across the four schemas, the
supported dtypes and the batched path; the routing rules (view/region
and small jobs stay on ``thread``, the calibrated ``auto`` router
measures both sides); the warm path leasing every output from the
arena's free lists; orderly close; and that removed backend options
fail fast instead of being silently ignored.
"""

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.plan import make_plan
from repro.kernels.codegen import NEST_MIN_BYTES
from repro.kernels.common import reference_transpose
from repro.runtime.autotune import CELL_BACKENDS, ThroughputCalibrator
from repro.runtime.scheduler import BACKENDS, StreamScheduler
from repro.runtime.service import TransposeService

#: schema -> (dims, perm, backend a forced-"codegen" request lands on).
#: The FVI kernels publish no index maps, so they always compile to
#: strided view programs, which the router keeps on threads.
SCHEMA_CASES = {
    "orthogonal-arbitrary": ((64, 64, 32, 16), (3, 2, 1, 0), "codegen"),
    "orthogonal-distinct": ((81, 81, 81), (2, 0, 1), "codegen"),
    "fvi-match-large": ((128, 64, 64, 4), (0, 3, 2, 1), "thread"),
    "fvi-match-small": ((3, 24, 24, 24), (0, 2, 3, 1), "thread"),
}

DTYPES = [np.float32, np.float64, np.int32, np.int64]

#: A 4 MiB reverse permutation: above the nest floor, nest profitable.
OD_DIMS, OD_PERM = (64, 32, 16, 16), (3, 2, 1, 0)

#: Warm-path burst length for the zero-allocation check.
BURST = 4


@pytest.fixture(scope="module")
def sched():
    with StreamScheduler(num_streams=2) as scheduler:
        yield scheduler


def _operand(volume, dtype=np.float64):
    rng = np.random.default_rng(99)
    if np.issubdtype(dtype, np.integer):
        return rng.integers(-1000, 1000, size=volume).astype(dtype)
    return rng.standard_normal(volume).astype(dtype)


def _run(sched, plan, src, **kw):
    report = sched.submit_partitioned(plan, src, lowering=False, **kw).result()
    out = np.array(report.output, copy=True)
    report.release()
    return out, report


class TestBackendParity:
    @pytest.mark.parametrize("schema", list(SCHEMA_CASES))
    def test_schemas_bit_exact(self, sched, schema):
        dims, perm, expected = SCHEMA_CASES[schema]
        plan = make_plan(dims, perm)
        assert plan.schema.value == schema
        src = _operand(plan.layout.volume)
        ref = reference_transpose(src, plan.layout, plan.perm)
        threaded, t_report = _run(sched, plan, src, backend="thread")
        assert t_report.backend == "thread"
        assert np.array_equal(threaded, ref)
        generated, g_report = _run(sched, plan, src, backend="codegen")
        assert g_report.backend == expected
        assert np.array_equal(generated, ref)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dtypes_bit_exact(self, sched, dtype):
        dims, perm, _ = SCHEMA_CASES["orthogonal-arbitrary"]
        plan = make_plan(dims, perm)
        src = _operand(plan.layout.volume, dtype)
        assert src.nbytes >= NEST_MIN_BYTES
        ref = reference_transpose(src, plan.layout, plan.perm)
        out, report = _run(sched, plan, src, backend="codegen")
        assert report.backend == "codegen"
        assert out.dtype == dtype
        assert np.array_equal(out, ref)

    def test_batch_mode_bit_exact(self, sched):
        """submit_batch runs the nest's fused batch kernel per row range."""
        plan = make_plan(OD_DIMS, OD_PERM)
        rows = 3
        srcs = [_operand(plan.layout.volume) + i for i in range(rows)]
        assert rows * srcs[0].nbytes >= NEST_MIN_BYTES
        report = sched.submit_batch(
            plan, srcs, backend="codegen", lowering=False
        ).result()
        assert report.backend == "codegen"
        assert report.batch == rows
        for i, src in enumerate(srcs):
            ref = reference_transpose(src, plan.layout, plan.perm)
            assert np.array_equal(report.output[i], ref)
        report.release()


class TestRouting:
    def test_small_payload_stays_on_threads(self, sched):
        plan = make_plan((16, 16, 16), (2, 1, 0))  # 32 KiB
        _, report = _run(
            sched, plan, _operand(plan.layout.volume), backend="codegen"
        )
        assert report.backend == "thread"

    def test_thread_override_never_routes(self):
        with StreamScheduler(num_streams=1, backend="codegen") as s:
            plan = make_plan(OD_DIMS, OD_PERM)
            _, report = _run(
                s, plan, _operand(plan.layout.volume), backend="thread"
            )
            assert report.backend == "thread"

    def test_unknown_backend_rejected(self, sched):
        plan = make_plan((16, 16, 16), (2, 1, 0))
        with pytest.raises(ValueError, match="backend"):
            sched.submit_partitioned(
                plan, _operand(plan.layout.volume), backend="gpu"
            )

    def test_auto_explores_both_backends(self):
        tuner = ThroughputCalibrator(pool_size=2, backends=CELL_BACKENDS)
        with StreamScheduler(num_streams=2, tuner=tuner, backend="auto") as s:
            plan = make_plan(OD_DIMS, OD_PERM)
            src = _operand(plan.layout.volume)
            ref = reference_transpose(src, plan.layout, plan.perm)
            seen = set()
            for _ in range(2 * tuner.min_samples * len(tuner.candidates)):
                out, report = _run(s, plan, src)
                assert np.array_equal(out, ref)
                seen.add(report.backend)
            assert seen == set(CELL_BACKENDS)


class TestCloseSemantics:
    def test_close_refuses_work(self):
        plan = make_plan(OD_DIMS, OD_PERM)
        src = _operand(plan.layout.volume)
        with StreamScheduler(num_streams=1, backend="codegen") as s:
            _, report = _run(s, plan, src)
            assert report.backend == "codegen"
            snap = s.snapshot()
            assert snap["backend"] == "codegen"
            assert snap["arena"]["allocations"] >= 1
        with pytest.raises(RuntimeError, match="shut down"):
            s.submit_partitioned(plan, src)
        s.close()  # idempotent


@pytest.mark.parametrize("backend", CELL_BACKENDS)
def test_warm_burst_allocates_no_arena_blocks(backend):
    """After warm-up, every partitioned output is a free-list lease."""
    with StreamScheduler(num_streams=2, backend=backend) as s:
        plan = make_plan(OD_DIMS, OD_PERM)
        src = _operand(plan.layout.volume)
        _, report = _run(s, plan, src)
        assert report.backend == backend
        before = s.arena.stats()["allocations"]
        for _ in range(BURST):
            _run(s, plan, src)
        stats = s.arena.stats()
        assert stats["allocations"] == before
        assert stats["reuses"] >= BURST
        assert stats["active_blocks"] == 0


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(
            lambda: StreamScheduler(num_streams=1, backend="process"),
            ValueError,
            id="scheduler-backend-process",
        ),
        pytest.param(
            lambda: TransposeService(backend="process"),
            ValueError,
            id="service-backend-process",
        ),
        pytest.param(
            lambda: main(["serve", "--backend", "process"]),
            SystemExit,
            id="cli-backend-process",
        ),
        pytest.param(
            lambda: main(["serve", "--proc-workers", "2"]),
            SystemExit,
            id="cli-proc-workers",
        ),
    ],
)
def test_removed_options_fail_fast(call, error, capsys):
    with pytest.raises(error) as exc:
        call()
    if error is ValueError:
        assert str(BACKENDS) in str(exc.value)
    else:
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
