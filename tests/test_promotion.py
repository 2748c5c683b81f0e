"""Promote-on-hot and the plan memo of the default library path.

``repro.transpose`` without a service plans each problem once through
the process-wide plan cache, and a hot large view/region program is
promoted to the native nest only after the nest wins a measured duel
(``repro.kernels.executor.run_promoted``).  Every call before, during
and after the duel must stay bit-exact against ``np.transpose``.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.core.api as api
import repro.core.cache as cache
from repro.kernels import codegen, native
from repro.kernels.codegen import NestProgram, codegen_stats
from repro.kernels.executor import DUEL_CALLS, RegionProgram, ViewProgram
from repro.model.pretrained import oracle_predictor

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Paper-convention problems of at least NEST_MIN_BYTES at f32, with
#: the program kind the default lowering picks for them.
PROBLEMS = [
    ((100, 50, 60), (1, 2, 0), "view"),
    ((64, 80, 64), (0, 2, 1), "view"),
    ((67, 65, 63), (2, 1, 0), "region"),
]

#: Calls that carry a program from its first call through the trigger,
#: the duel (one untimed nest call, DUEL_CALLS timed calls per side)
#: and a few calls past the commit.
CALLS = 1 + 1 + 2 * DUEL_CALLS + 3


@pytest.fixture(autouse=True)
def fresh_programs():
    repro.clear_exec_caches()
    yield
    repro.clear_exec_caches()


def np_problem(dims, perm):
    return tuple(dims[::-1]), repro.perm_to_axes(perm)


def program_of(dims, perm, elem_bytes):
    return repro.plan_transpose(dims, perm, elem_bytes).executor()


def counters():
    s = codegen_stats()
    return {
        k: s[k]
        for k in (
            "native_compiled",
            "promotions_tried",
            "promotions_kept_nest",
            "promotions_kept_incumbent",
        )
    }


def native_available():
    return codegen.compile_backend() == "c"


class TestDuelParity:
    @pytest.mark.parametrize("use_out", [False, True], ids=["alloc", "out"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dims,perm,kind", PROBLEMS)
    def test_every_call_bit_exact(self, monkeypatch, dims, perm, kind, dtype, use_out):
        # Price the nest at zero so the first call already triggers.
        monkeypatch.setattr(codegen, "expected_compile_s", lambda: 0.0)
        shape, axes = np_problem(dims, perm)
        program = program_of(dims, perm, np.dtype(dtype).itemsize)
        assert program.kind == kind
        rng = np.random.default_rng(7)
        stages = []
        for _ in range(CALLS):
            a = rng.standard_normal(shape).astype(dtype)
            if use_out:
                out = np.full(tuple(shape[x] for x in axes), np.nan, dtype=dtype)
                got = repro.transpose(a, axes, out=out)
                assert got is out
            else:
                got = repro.transpose(a, axes)
            np.testing.assert_array_equal(got, a.transpose(axes))
            assert got.dtype == dtype
            stages.append(program.promotion.stage)
        if native_available():
            assert "duel" in stages
            assert stages[-1] in ("nest", "incumbent")
        else:
            assert stages[-1] == "incumbent"

    def test_forced_win_serves_later_calls_from_the_nest(self, monkeypatch):
        if not native_available():
            pytest.skip("no C toolchain")
        # A slowed incumbent: the real native nest must win and then
        # serve every later call, bit-exactly.
        real_region = RegionProgram.run

        def slow_region(self, src, out=None):
            time.sleep(0.02)
            return real_region(self, src, out)

        monkeypatch.setattr(RegionProgram, "run", slow_region)
        monkeypatch.setattr(codegen, "expected_compile_s", lambda: 0.0)
        dims, perm, _ = PROBLEMS[2]
        shape, axes = np_problem(dims, perm)
        program = program_of(dims, perm, 8)
        before = counters()
        a = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        for _ in range(CALLS):
            np.testing.assert_array_equal(
                repro.transpose(a, axes), a.transpose(axes)
            )
        promo = program.promotion
        assert promo.stage == "nest"
        assert promo.nest.descriptor["backend"] == "c"
        after = counters()
        assert after["promotions_tried"] == before["promotions_tried"] + 1
        assert after["promotions_kept_nest"] == before["promotions_kept_nest"] + 1
        nest_calls = []
        real_nest = NestProgram.run
        monkeypatch.setattr(
            NestProgram, "run",
            lambda self, *args: nest_calls.append(1) or real_nest(self, *args),
        )
        np.testing.assert_array_equal(repro.transpose(a, axes), a.transpose(axes))
        assert nest_calls == [1]


class TestTriggerAndCommit:
    def test_single_call_never_compiles(self):
        # The single-use regime: one call of a new problem, at the
        # default nest price, compiles nothing; nor does set-up.
        dims, perm = (65, 66, 67), (2, 0, 1)
        shape, axes = np_problem(dims, perm)
        before = counters()
        program = program_of(dims, perm, 8)
        assert counters() == before
        a = np.ones(shape)
        np.testing.assert_array_equal(repro.transpose(a, axes), a.transpose(axes))
        assert counters() == before
        assert program.promotion.stage == "watch"

    def test_below_nest_floor_never_promotes(self, monkeypatch):
        monkeypatch.setattr(codegen, "expected_compile_s", lambda: 0.0)
        shape, axes = (16, 16, 16), (2, 1, 0)
        before = counters()
        a = np.ones(shape)
        for _ in range(CALLS):
            repro.transpose(a, axes)
        assert counters() == before

    def test_no_toolchain_keeps_incumbent_uncounted(self, monkeypatch):
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.delenv("REPRO_CC", raising=False)
        native.reset_toolchain_cache()
        try:
            monkeypatch.setattr(codegen, "expected_compile_s", lambda: 0.0)
            dims, perm, kind = PROBLEMS[2]
            shape, axes = np_problem(dims, perm)
            program = program_of(dims, perm, 8)
            before = counters()
            a = np.ones(shape)
            for _ in range(CALLS):
                np.testing.assert_array_equal(
                    repro.transpose(a, axes), a.transpose(axes)
                )
            assert program_of(dims, perm, 8) is program
            assert program.kind == kind
            assert program.promotion.stage == "incumbent"
            assert program.promotion.nest is None
            assert counters() == before
        finally:
            monkeypatch.undo()
            native.reset_toolchain_cache()

    def test_forced_loss_keeps_incumbent_for_good(self, monkeypatch):
        # A nest that is always slower: the incumbent must win and the
        # nest must never run again.  Both sides stay bit-exact.
        nest_calls = []

        class SlowNest(ViewProgram):
            def run(self, src, out=None):
                nest_calls.append(1)
                time.sleep(0.02)
                return super().run(src, out)

        monkeypatch.setattr(codegen, "expected_compile_s", lambda: 0.0)
        monkeypatch.setattr(codegen, "compile_backend", lambda: "c")
        monkeypatch.setattr(
            codegen, "promotion_nest",
            lambda in_shape, axes, eb: SlowNest(tuple(in_shape), tuple(axes)),
        )
        dims, perm, _ = PROBLEMS[0]
        shape, axes = np_problem(dims, perm)
        program = program_of(dims, perm, 8)
        before = counters()
        a = np.random.default_rng(3).standard_normal(shape)
        for _ in range(CALLS):
            np.testing.assert_array_equal(
                repro.transpose(a, axes), a.transpose(axes)
            )
        promo = program.promotion
        assert promo.stage == "incumbent" and promo.nest is None
        assert len(nest_calls) == 1 + DUEL_CALLS
        after = counters()
        assert after["promotions_kept_incumbent"] == before["promotions_kept_incumbent"] + 1
        assert after["promotions_kept_nest"] == before["promotions_kept_nest"]
        for _ in range(5):
            repro.transpose(a, axes)
        assert len(nest_calls) == 1 + DUEL_CALLS

    def test_concurrent_callers_compile_once_and_commit_once(self, monkeypatch):
        # More threads than cores, a short switch interval: the nest is
        # built once, the duel commits once, and every output is exact.
        built = []

        def build(in_shape, axes, eb):
            built.append(1)
            time.sleep(0.01)  # a compile other callers run alongside
            return ViewProgram(tuple(in_shape), tuple(axes))

        real_region = RegionProgram.run

        def slow_region(self, src, out=None):
            time.sleep(0.005)  # keep every caller inside the incumbent
            return real_region(self, src, out)

        monkeypatch.setattr(RegionProgram, "run", slow_region)
        monkeypatch.setattr(codegen, "expected_compile_s", lambda: 0.0)
        monkeypatch.setattr(codegen, "compile_backend", lambda: "c")
        monkeypatch.setattr(codegen, "promotion_nest", build)
        verdicts = []
        monkeypatch.setattr(codegen, "promotion_verdict", verdicts.append)
        dims, perm, _ = PROBLEMS[2]
        shape, axes = np_problem(dims, perm)
        program = program_of(dims, perm, 4)
        a = np.random.default_rng(5).standard_normal(shape).astype(np.float32)
        want = a.transpose(axes)
        wrong = []

        start = threading.Barrier(6)

        def caller():
            start.wait(timeout=30)
            for _ in range(CALLS):
                if not np.array_equal(repro.transpose(a, axes), want):
                    wrong.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert built == [1]
        assert len(verdicts) == 1
        assert program.promotion.stage in ("nest", "incumbent")

    def test_clear_exec_caches_drops_promotion_state(self, monkeypatch):
        monkeypatch.setattr(codegen, "expected_compile_s", lambda: 0.0)
        monkeypatch.setattr(codegen, "compile_backend", lambda: "numpy")
        dims, perm, _ = PROBLEMS[0]
        shape, axes = np_problem(dims, perm)
        repro.transpose(np.ones(shape), axes)
        assert program_of(dims, perm, 8).promotion.stage == "incumbent"
        repro.clear_exec_caches()
        assert program_of(dims, perm, 8).promotion.stage == "watch"

    def test_hot_object_array_stays_on_the_incumbent(self, monkeypatch):
        # Object elements are 8-byte reference-counted pointers: a C
        # nest would copy them without taking references.  A hot large
        # object array must never start a promotion, and every output
        # must hold its own references.
        monkeypatch.setattr(codegen, "expected_compile_s", lambda: 0.0)
        dims, perm, _ = PROBLEMS[0]
        shape, axes = np_problem(dims, perm)
        program = program_of(dims, perm, 8)
        a = np.empty(shape, dtype=object)
        a.reshape(-1)[:] = [float(i) + 0.5 for i in range(a.size)]
        probe = a.reshape(-1)[1]
        refs = sys.getrefcount(probe)
        before = counters()
        outs = []
        for _ in range(CALLS):
            outs.append(repro.transpose(a, axes))
            np.testing.assert_array_equal(outs[-1], a.transpose(axes))
        assert program.promotion.stage == "watch"
        assert counters() == before
        assert sys.getrefcount(probe) == refs + CALLS
        del outs
        assert sys.getrefcount(probe) == refs

    def test_nest_never_runs_object_arrays_natively(self):
        if not native_available():
            pytest.skip("no C toolchain")
        shape, axes = (64, 128, 160), (2, 0, 1)
        nest = codegen.promotion_nest(shape, axes, 8)
        assert nest is not None and nest.descriptor["backend"] == "c"
        a = np.empty(shape, dtype=object)
        a.reshape(-1)[:] = [float(i) for i in range(a.size)]
        probe = a.reshape(-1)[1]
        refs = sys.getrefcount(probe)
        got = nest.run(a.reshape(-1))
        np.testing.assert_array_equal(
            got.reshape(tuple(shape[x] for x in axes)), a.transpose(axes)
        )
        assert sys.getrefcount(probe) == refs + 1
        assert nest.descriptor["backend"] == "c"

    def test_stats_carry_promotion_counters(self):
        stats = codegen_stats()
        for key in (
            "promotions_tried",
            "promotions_kept_nest",
            "promotions_kept_incumbent",
            "native_compile_s",
        ):
            assert key in stats


class TestPlanMemo:
    def test_repeated_calls_build_one_plan(self, monkeypatch):
        assert repro.get_default_service() is None
        built = []
        real = cache.make_plan
        monkeypatch.setattr(
            cache, "make_plan", lambda *a, **k: built.append(a) or real(*a, **k)
        )
        cache.global_cache().clear()
        a = np.arange(7 * 9 * 11, dtype=np.float64).reshape(7, 9, 11)
        for _ in range(5):
            np.testing.assert_array_equal(
                repro.transpose(a, (2, 0, 1)), a.transpose(2, 0, 1)
            )
        assert len(built) == 1

    def test_pinned_predictor_bypasses_the_cache(self, monkeypatch):
        built = []
        real = api.make_plan
        monkeypatch.setattr(
            api, "make_plan", lambda *a, **k: built.append(a) or real(*a, **k)
        )
        a = np.ones((5, 6, 7))
        for _ in range(3):
            repro.transpose(a, (1, 2, 0), predictor=oracle_predictor())
        assert len(built) == 3


def run_python(code, env):
    full = {k: v for k, v in os.environ.items() if k != "REPRO_NATIVE_CACHE_DIR"}
    full.update(env)
    full["PYTHONPATH"] = SRC + os.pathsep + full.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=full, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestProcessHygiene:
    def test_planning_does_not_import_scipy(self):
        out = run_python(
            "import sys, repro\n"
            "repro.plan_transpose((8, 8, 8), (2, 1, 0))\n"
            "print('scipy' in sys.modules)\n",
            {},
        )
        assert out.strip() == "False"

    def test_native_temp_dir_removed_at_exit(self, tmp_path):
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        out = run_python(
            "from repro.kernels import codegen, native\n"
            "d = native.default_cache_dir()\n"
            "(d / 'probe').write_text('x')\n"
            "if codegen.compile_backend() == 'c':\n"
            "    codegen.promotion_nest((64, 48), (1, 0), 8)\n"
            "print(d)\n",
            {"TMPDIR": str(tmp)},
        )
        assert Path(out.strip()).parent == tmp
        assert list(tmp.iterdir()) == []

    def test_override_dir_is_kept(self, tmp_path):
        keep = tmp_path / "objects"
        run_python(
            "from repro.kernels import native\n"
            "(native.default_cache_dir() / 'probe').parent.mkdir(parents=True)\n"
            "(native.default_cache_dir() / 'probe').write_text('x')\n",
            {"REPRO_NATIVE_CACHE_DIR": str(keep), "TMPDIR": str(tmp_path)},
        )
        assert (keep / "probe").read_text() == "x"
