"""JobServer: concurrent serving, backpressure, teardown hygiene.

Serving interleaves many jobs on one pool; by the determinacy theorem
each job's result must be exactly what a dedicated engine run produces
— asserted bitwise here.  The rest pins the operational contract:
``max_inflight`` backpressure in both block and reject flavours, failed
and crashed jobs staying contained to their own future, and a close —
even mid-flight — leaving no shared segment and no worker process
behind.
"""

import threading
import time

import pytest

from tests.dist.test_pool import exchange_system, run_pair_equal
from repro.dist.engine import MultiprocessEngine
from repro.dist.pool import WorkerPool
from repro.dist.serve import (
    JobServer,
    ServerClosedError,
    ServerSaturatedError,
)
from repro.dist.shm import live_segment_names
from repro.errors import ProcessFailedError
from repro.explore import InjectedKill, apply_faults, parse_fault_plan
from repro.explore.fixtures import prodcons_system
from repro.runtime import ProcessSpec, System


def sleeper_system(delay=0.3, nprocs=1):
    def body(ctx):
        time.sleep(delay)
        return ctx.rank

    return System([ProcessSpec(r, body) for r in range(nprocs)])


def failing_system():
    def body(ctx):
        raise ValueError("job body boom")

    return System([ProcessSpec(0, body)])


def crashing_system():
    def body(ctx):
        import os

        os.kill(os.getpid(), 9)

    return System([ProcessSpec(0, body)])


class TestServing:
    def test_concurrent_jobs_bitwise_identical_to_fresh_engine(self):
        seeds = [
            MultiprocessEngine(start_method="fork").run(
                exchange_system(2, 64, float(i))
            )
            for i in range(3)
        ]
        with JobServer(pool_size=4, max_inflight=4) as server:
            futs = [
                server.submit(exchange_system(2, 64, float(i % 3)))
                for i in range(9)
            ]
            for i, fut in enumerate(futs):
                run_pair_equal(fut.result(timeout=60), seeds[i % 3])
            stats = server.stats()
        assert stats["jobs_done"] == 9
        assert stats["jobs_failed"] == 0
        assert stats["inflight_hwm"] > 1  # genuinely concurrent admission
        assert live_segment_names() == frozenset()

    def test_jobs_overlap_on_the_pool(self):
        # Two one-rank sleepers on two slots must co-run: total wall
        # clock well under the serialized sum.
        with JobServer(pool_size=2, max_inflight=2) as server:
            t0 = time.perf_counter()
            futs = [server.submit(sleeper_system(0.4)) for _ in range(2)]
            for fut in futs:
                fut.result(timeout=60)
            elapsed = time.perf_counter() - t0
        assert elapsed < 0.75  # two serialized sleeps would be >= 0.8

    def test_reject_policy_raises_when_saturated(self):
        with JobServer(
            pool_size=1, max_inflight=1, on_full="reject"
        ) as server:
            first = server.submit(sleeper_system(0.5))
            with pytest.raises(ServerSaturatedError):
                server.submit(sleeper_system(0.0))
            assert first.result(timeout=60).returns == [0]
            # Capacity returned: a later submit is admitted again.
            assert server.submit(sleeper_system(0.0)).result(
                timeout=60
            ).returns == [0]
        assert server.stats()["jobs_failed"] == 0

    def test_block_policy_waits_for_capacity(self):
        with JobServer(
            pool_size=1, max_inflight=1, on_full="block"
        ) as server:
            server.submit(sleeper_system(0.3))
            t0 = time.perf_counter()
            fut = server.submit(sleeper_system(0.0))  # blocks for slot 1
            assert time.perf_counter() - t0 > 0.1
            assert fut.result(timeout=60).returns == [0]

    def test_failed_job_contained_to_its_future(self):
        with JobServer(pool_size=2, max_inflight=2) as server:
            bad = server.submit(failing_system())
            good = server.submit(exchange_system(2, 64, 7.0))
            with pytest.raises(ProcessFailedError, match="job body boom"):
                bad.result(timeout=60)
            assert len(good.result(timeout=60).returns) == 2
            stats = server.stats()
        assert stats["jobs_failed"] == 1
        assert stats["jobs_done"] == 2

    def test_crashed_worker_contained_and_pool_recovers(self):
        with JobServer(pool_size=2, max_inflight=2) as server:
            crash = server.submit(crashing_system())
            with pytest.raises(ProcessFailedError):
                crash.result(timeout=60)
            # The dead slot is discarded at checkin; the next job gets
            # a respawned worker and computes normally.
            seed = MultiprocessEngine(start_method="fork").run(
                exchange_system(2, 64, 2.0)
            )
            run_pair_equal(
                server.submit(exchange_system(2, 64, 2.0)).result(timeout=60),
                seed,
            )

    def test_submit_after_close_raises(self):
        server = JobServer(pool_size=1)
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit(sleeper_system(0.0))
        server.close()  # idempotent

    def test_failed_job_keeps_fault_provenance(self):
        # A planted fault's step and id survive the serving path exactly
        # as they do a dedicated engine run.
        system = apply_faults(
            prodcons_system(), parse_fault_plan("kill:0@2")
        )
        with JobServer(pool_size=2) as server:
            fut = server.submit(system)
            with pytest.raises(ProcessFailedError) as info:
                fut.result(timeout=60)
        assert info.value.rank == 0
        assert info.value.step == 2
        assert info.value.fault_id == "kill:0@2"
        assert isinstance(info.value.original, InjectedKill)

    def test_oversized_job_rejected_up_front(self):
        with JobServer(pool_size=2) as server:
            with pytest.raises(ValueError, match="schedules"):
                server.submit(exchange_system(nprocs=4))


class TestMidFlightClose:
    def test_close_mid_flight_leaks_nothing(self):
        # Regression: shutdown racing queued + running jobs must leave
        # no shm segment and no worker process behind.
        server = JobServer(pool_size=2, max_inflight=6)
        running = [server.submit(sleeper_system(0.4)) for _ in range(2)]
        queued = [server.submit(sleeper_system(0.0)) for _ in range(4)]
        procs = [s.proc for s in server.pool._lent + server.pool._slots]
        server.close(drain=False)
        for fut in running:
            assert fut.result(timeout=60).returns == [0]
        for fut in queued:
            assert fut.cancelled() or isinstance(
                fut.exception(timeout=60), ServerClosedError
            )
        assert live_segment_names() == frozenset()
        for proc in procs:
            proc.join(timeout=5.0)
            assert not proc.is_alive()
        assert len(server.pool) == 0

    def test_close_drain_completes_everything(self):
        server = JobServer(pool_size=1, max_inflight=4)
        futs = [server.submit(sleeper_system(0.05)) for _ in range(4)]
        server.close(drain=True)
        assert [f.result(timeout=60).returns for f in futs] == [[0]] * 4
        assert live_segment_names() == frozenset()

    def test_concurrent_closes_race_safely(self):
        server = JobServer(pool_size=2, max_inflight=4)
        for _ in range(3):
            server.submit(sleeper_system(0.1))
        threads = [
            threading.Thread(target=server.close) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert live_segment_names() == frozenset()
        assert len(server.pool) == 0


class TestExternalPool:
    def test_external_pool_not_shut_down(self):
        with WorkerPool("fork") as pool:
            with JobServer(pool_size=2, pool=pool) as server:
                assert server.submit(sleeper_system(0.0)).result(
                    timeout=60
                ).returns == [0]
            assert not pool.closed  # caller owns it
            # Still usable for an engine run afterwards.
            result = MultiprocessEngine(start_method="fork", pool=pool).run(
                exchange_system(2, 64, 1.0)
            )
            assert len(result.returns) == 2
        assert live_segment_names() == frozenset()
