"""Persistent worker pool: reuse, crash recovery, shm hygiene.

The pool changes *how* ranks get an OS process (park-and-redispatch
instead of boot-per-run) but must not change *what* a run computes —
every pooled run must be bitwise identical to a fresh-engine run, across
repeated dispatches, worker crashes, and system-shape changes.
"""

import os
import time

import numpy as np
import pytest

from repro.dist.engine import MultiprocessEngine
from repro.dist.pool import WorkerPool
from repro.dist.shm import live_segment_names
from repro.errors import ProcessFailedError
from repro.runtime import ProcessSpec, System, make_engine
from repro.util import bitwise_equal_arrays


def exchange_system(nprocs=2, n=64, mark=1.0):
    """A ring exchange with stores big enough to live in shared memory."""

    def body(ctx):
        right = (ctx.rank + 1) % ctx.nprocs
        left = (ctx.rank - 1) % ctx.nprocs
        ctx.send(f"r{ctx.rank}", ctx.store["u"] * 2.0)
        ctx.store["ghost"] = ctx.recv(f"r{left}")
        return float(ctx.store["ghost"].sum()) + right

    system = System(
        [
            ProcessSpec(
                r, body, store={"u": np.full(n, mark + r, dtype=float)}
            )
            for r in range(nprocs)
        ]
    )
    for r in range(nprocs):
        system.add_channel(f"r{r}", r, (r + 1) % nprocs)
    return system


def run_pair_equal(res_a, res_b):
    assert res_a.returns == res_b.returns
    for sa, sb in zip(res_a.stores, res_b.stores):
        assert set(sa) == set(sb)
        for key in sa:
            assert bitwise_equal_arrays(np.asarray(sa[key]), np.asarray(sb[key]))


class TestPooledRuns:
    def test_three_pooled_runs_bitwise_identical_to_fresh(self):
        fresh = MultiprocessEngine(start_method="fork").run(exchange_system())
        with MultiprocessEngine(start_method="fork", pool=True) as engine:
            for _ in range(3):
                run_pair_equal(engine.run(exchange_system()), fresh)
            assert engine._pool.spawned == 2  # booted once, reused twice

    def test_pool_grows_across_system_shapes(self):
        with MultiprocessEngine(start_method="fork", pool=True) as engine:
            small = engine.run(exchange_system(nprocs=2))
            big = engine.run(exchange_system(nprocs=4))
            assert len(engine._pool) == 4
            again = engine.run(exchange_system(nprocs=2))
            run_pair_equal(small, again)
            assert len(big.returns) == 4

    def test_make_engine_pool_variant(self):
        engine = make_engine("multiprocess+pool", start_method="fork")
        try:
            for _ in range(2):
                result = engine.run(exchange_system())
                assert len(result.returns) == 2
            assert engine._pool.spawned == 2  # workers persist across runs
        finally:
            engine.close()

    @pytest.mark.slow
    def test_pool_under_spawn(self):
        with MultiprocessEngine(start_method="spawn", pool=True) as engine:
            first = engine.run(exchange_system())
            second = engine.run(exchange_system())
            run_pair_equal(first, second)


class TestCrashRecovery:
    def test_hard_crash_is_reported_and_worker_respawned(self):
        def crasher(ctx):
            if ctx.rank == 0:
                os._exit(17)
            ctx.send(f"r{ctx.rank}", 1.0)
            return ctx.recv(f"r{(ctx.rank - 1) % ctx.nprocs}")

        system = System([ProcessSpec(r, crasher) for r in range(2)])
        for r in range(2):
            system.add_channel(f"r{r}", r, (r + 1) % 2)

        with MultiprocessEngine(
            start_method="fork", pool=True, crash_grace=2.0
        ) as engine:
            good = engine.run(exchange_system())
            with pytest.raises(ProcessFailedError):
                engine.run(system)
            # The dead slot is reaped; the next run respawns it.
            assert len(engine._pool) < 2
            run_pair_equal(engine.run(exchange_system()), good)
            assert engine._pool.spawned == 3

    def test_cold_fork_pool_crash_fails_fast(self):
        # Workers boot before the run creates its pipes, so none holds
        # a pipe end of another rank: the crashed rank's reader sees EOF
        # at once instead of waiting out crash_grace.
        def crasher(ctx):
            if ctx.rank == 0:
                os._exit(17)
            ctx.send(f"r{ctx.rank}", 1.0)
            return ctx.recv(f"r{(ctx.rank - 1) % ctx.nprocs}")

        system = System([ProcessSpec(r, crasher) for r in range(2)])
        for r in range(2):
            system.add_channel(f"r{r}", r, (r + 1) % 2)

        with MultiprocessEngine(
            start_method="fork", pool=True, crash_grace=8.0
        ) as engine:
            t0 = time.perf_counter()
            with pytest.raises(ProcessFailedError):
                engine.run(system)
            assert time.perf_counter() - t0 < 2.0

    def test_body_exception_does_not_kill_workers(self):
        def raiser(ctx):
            raise ValueError("body failure")

        bad = System([ProcessSpec(r, raiser) for r in range(2)])
        with MultiprocessEngine(start_method="fork", pool=True) as engine:
            good = engine.run(exchange_system())
            with pytest.raises(ProcessFailedError):
                engine.run(bad)
            # A Python-level failure is reported over the result pipe;
            # the parked workers survive and are reused.
            run_pair_equal(engine.run(exchange_system()), good)
            assert engine._pool.spawned == 2


class TestShmHygiene:
    def test_no_segment_leaks_after_pool_shutdown(self):
        engine = MultiprocessEngine(start_method="fork", pool=True)
        for _ in range(3):
            engine.run(exchange_system())
        assert live_segment_names() != frozenset()  # recycled, still owned
        engine.close()
        assert live_segment_names() == frozenset()

    def test_segments_recycled_between_runs(self):
        with MultiprocessEngine(start_method="fork", pool=True) as engine:
            engine.run(exchange_system())
            before = engine._pool.arena.recycled
            engine.run(exchange_system())  # same shapes: all reused
            assert engine._pool.arena.recycled > before

    def test_close_is_idempotent(self):
        engine = MultiprocessEngine(start_method="fork", pool=True)
        engine.run(exchange_system())
        engine.close()
        engine.close()
        assert live_segment_names() == frozenset()


class TestWorkerPoolDirect:
    def test_ensure_and_reap(self):
        pool = WorkerPool(start_method="fork")
        try:
            pool.ensure(2)
            assert len(pool) == 2
            slots = pool.checkout(2)
            pool.checkin(slots)
            slots[0].proc.terminate()
            slots[0].proc.join()
            assert pool.reap() == 1
            pool.ensure(2)
            assert len(pool) == 2
            assert pool.spawned == 3
        finally:
            pool.shutdown()

    def test_shutdown_joins_workers(self):
        pool = WorkerPool(start_method="fork")
        slots = pool.checkout(2)
        procs = [slot.proc for slot in slots]
        pool.checkin(slots)
        pool.shutdown()
        assert all(not p.is_alive() for p in procs)
        assert live_segment_names() == frozenset()


class TestAffinity:
    def test_pinned_run_identical_to_unpinned(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform")
        cpu = min(os.sched_getaffinity(0))
        plain = MultiprocessEngine(start_method="fork").run(exchange_system())
        pinned = MultiprocessEngine(
            start_method="fork", affinity=[cpu]
        ).run(exchange_system())
        run_pair_equal(plain, pinned)

    def test_auto_affinity_round_robins(self):
        def where(ctx):
            return sorted(os.sched_getaffinity(0))

        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform")
        system = System([ProcessSpec(r, where) for r in range(2)])
        result = MultiprocessEngine(
            start_method="fork", affinity="auto"
        ).run(system)
        available = sorted(os.sched_getaffinity(0))
        for pins in result.returns:
            assert len(pins) == 1 and pins[0] in available
