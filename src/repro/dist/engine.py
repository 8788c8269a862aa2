"""The multiprocess engine: each rank is a real OS process.

:class:`MultiprocessEngine` is the third execution backend, honouring
the same ``run(System) -> RunResult`` contract as
:class:`~repro.runtime.engine_threaded.ThreadedEngine` and the
cooperative engine.  Where the threaded engine shares one address space
(and one GIL), this engine gives every rank genuinely private memory
and a whole interpreter — the paper's model taken literally, and the
only backend on which compute-bound ranks actually run in parallel.

Every run puts its ranks on the parked workers of a
:class:`~repro.dist.pool.WorkerPool` through one job path,
:func:`run_pool_job` (which :class:`~repro.dist.serve.JobServer` uses
too).  Per run, the parent:

1. checks out one worker per rank, booting any that are missing
   *before* the run creates a pipe — a worker forked later would
   inherit the run's pipe ends and keep a dead writer's channel open;
2. places each rank's large store arrays in the pool's
   :class:`~repro.dist.shm.SharedStoreArena` (the FDTD Yee-grid blocks
   cross the process boundary exactly twice: written once at setup,
   read once at readback);
3. builds one OS pipe per channel and one duplex *result pipe* per
   rank and ships each worker its job down its control pipe — bodies,
   typically closures, and store remainders cross by value via
   :mod:`repro.dist.closures` under ``spawn`` and ``fork`` alike;
4. holds all workers at a start barrier until every one reports ready,
   so :attr:`MultiprocessEngine.last_timing` can split startup from
   the run proper;
5. multiplexes result pipes and process sentinels
   (:func:`collect_results`): ``done`` payloads carry returns, store
   overrides, channel statistics, and observation payloads; a worker
   that dies without reporting is reaped via its sentinel into
   :class:`~repro.errors.ProcessFailedError`, exactly as a raising
   body is;
6. reads the shared segments back, recycles this run's segments, and
   checks the workers in (dead ones are discarded), then assembles the
   result (:func:`finish_run`).

``pool=False`` (the default) is a pool used once: created for the run
and shut down in a ``finally``, so no worker or segment outlives it,
even when a worker crashed mid-step (the no-leak tests exercise
precisely this).

Tracing is unsupported: a trace is a single observation order, and
separate address spaces have none to offer.  Requesting one raises
:class:`~repro.errors.RuntimeModelError` up front.
"""

from __future__ import annotations

import multiprocessing.connection as mp_connection
import os
import time
from typing import Any, NamedTuple

from repro.dist import closures, wire
from repro.dist.channels import EndpointSpec
from repro.dist.pool import WorkerPool
from repro.dist.shm import DEFAULT_SLAB, DEFAULT_THRESHOLD, SharedStoreArena
from repro.errors import (
    RuntimeModelError,
    TransportAbortError,
    wrap_process_failure,
)
from repro.runtime.system import (
    ChannelStatsRecord,
    RunResult,
    System,
    assemble_run_result,
)

__all__ = [
    "Collected",
    "MultiprocessEngine",
    "WorkerCrashError",
    "build_channel_endpoints",
    "collect_results",
    "finish_run",
    "run_pool_job",
    "split_timing",
]

_EMPTY_W = {
    "sends": 0,
    "bytes_sent": 0,
    "queue_hwm": 0,
    "frames": 0,
    "pipe_bytes": 0,
    "shm_bytes": 0,
}
_EMPTY_R = {"receives": 0}


def _affinity_sets(affinity, nprocs: int) -> list:
    """Normalize the ``affinity=`` knob to one CPU set per rank.

    ``None`` → no pinning; ``"auto"`` → ranks round-robin over the CPUs
    this process may use; otherwise a sequence (cycled over ranks) of
    CPU ids or CPU-id iterables.
    """
    if affinity is None:
        return [None] * nprocs
    if not hasattr(os, "sched_getaffinity"):  # non-Linux: knob is a no-op
        return [None] * nprocs
    if affinity == "auto":
        cpus = sorted(os.sched_getaffinity(0))
        return [{cpus[r % len(cpus)]} for r in range(nprocs)]
    items = list(affinity)
    if not items:
        return [None] * nprocs
    sets = []
    for r in range(nprocs):
        item = items[r % len(items)]
        if isinstance(item, int):
            sets.append({item})
        else:
            sets.append({int(c) for c in item})
    return sets


class WorkerCrashError(RuntimeError):
    """A worker process died without reporting a result.

    Wrapped in :class:`~repro.errors.ProcessFailedError` like any other
    body failure; ``exitcode`` is the process's exit code (negative =
    killed by that signal number).
    """

    def __init__(self, rank: int, exitcode: int | None):
        self.rank = rank
        self.exitcode = exitcode
        super().__init__(
            f"worker process for rank {rank} died without reporting "
            f"(exitcode {exitcode})"
        )


class _RemoteError(RuntimeError):
    """Stand-in for a worker exception that could not be unpickled."""

    def __init__(self, message: str, remote_traceback: str):
        super().__init__(message)
        self.remote_traceback = remote_traceback


def _rebuild_exception(exc_info: tuple[str, Any, str]) -> BaseException:
    kind, data, tb = exc_info
    if kind == "pickle":
        try:
            exc = closures.loads(data)
            exc.remote_traceback = tb
            return exc
        except Exception:
            data = "<unpicklable worker exception>"
    return _RemoteError(str(data), tb)


class Collected(NamedTuple):
    """What :func:`collect_results` gathered from one run's ranks.

    Per-rank dicts keyed by rank: ``causal`` holds each rank's
    :meth:`~repro.obs.causal.CausalRecorder.payload` when the run
    traced causally (else it stays empty); ``errors`` holds every
    failed rank's exception.  ``t_run0`` is when the start barrier
    released (``None`` if it never did), ``t_run1`` when the last rank
    went terminal.
    """

    returns: dict[int, Any]
    overrides: dict[int, dict]
    stats: dict[int, dict]
    observations: dict[int, dict]
    causal: dict[int, dict]
    errors: dict[int, BaseException]
    t_run0: float | None
    t_run1: float


def collect_results(
    system: System, procs, parent_conns, crash_grace: float
) -> Collected:
    """Multiplex result pipes + sentinels until every rank is terminal.

    The one collection loop of every OS-process job path (pool jobs and
    the socket engine): ready/go barrier, done/error frames, sentinel
    reaping into :class:`WorkerCrashError`, and the post-first-failure
    grace window (``crash_grace`` seconds) before survivors are
    terminated.

    ``procs`` entries need not be local processes: the socket engine
    passes proxies for ranks living in remote daemons, with
    ``sentinel=None`` (there is no local fd to watch — the result
    connection itself is the liveness signal) and ``is_alive()`` always
    false.  A connection that drops before its rank's terminal report —
    EOF, stream abort, or reset — is therefore treated as that rank's
    crash unless the local process object is demonstrably still alive.
    """
    nprocs = system.nprocs
    sentinels = {
        proc.sentinel: rank
        for rank, proc in enumerate(procs)
        if proc.sentinel is not None
    }
    conn_of = {rank: conn for conn, rank in parent_conns.items()}
    terminal: set[int] = set()
    ready: set[int] = set()
    started = False
    aborted = False
    returns: dict[int, Any] = {}
    overrides: dict[int, dict] = {}
    stats: dict[int, dict] = {}
    observations: dict[int, dict] = {}
    causal: dict[int, dict] = {}
    errors: dict[int, BaseException] = {}
    t_run0: float | None = None
    t_run1: float | None = None
    deadline: float | None = None

    def fail(rank: int, exc: BaseException) -> None:
        nonlocal deadline
        terminal.add(rank)
        errors.setdefault(rank, exc)
        if deadline is None:
            deadline = time.perf_counter() + crash_grace

    def handle(rank: int, msg: tuple) -> None:
        nonlocal started, aborted, t_run0
        kind = msg[0]
        if kind == "ready":
            if aborted:
                wire.send(conn_of[rank], ("abort",))
                terminal.add(rank)
                return
            ready.add(rank)
            if len(ready) == nprocs and not started:
                started = True
                t_run0 = time.perf_counter()
                for r in range(nprocs):
                    wire.send(conn_of[r], ("go",))
        elif kind == "done":
            payload = msg[2]
            returns[rank] = payload["return"]
            overrides[rank] = payload["overrides"]
            stats[rank] = payload["stats"]
            if payload["obs"] is not None:
                observations[rank] = payload["obs"]
            if payload.get("causal") is not None:
                causal[rank] = payload["causal"]
            terminal.add(rank)
        elif kind == "error":
            fail(rank, _rebuild_exception(msg[2]))

    live_conns = dict(parent_conns)
    while len(terminal) < nprocs:
        if deadline is not None and not aborted and not started:
            # Startup failed: release ranks already at the barrier.
            aborted = True
            for r in ready - terminal:
                try:
                    wire.send(conn_of[r], ("abort",))
                except (OSError, TransportAbortError):
                    pass

        timeout = None
        if deadline is not None:
            timeout = deadline - time.perf_counter()
            if timeout <= 0:
                break
        pending_sentinels = [
            s for s, r in sentinels.items() if r not in terminal
        ]
        # Buffered frame streams may hold a complete report in user
        # space with nothing left on the fd — wait() would block past
        # it.  Serve those first; only a fully drained set blocks.
        buffered = [
            c for c in live_conns if getattr(c, "has_buffered", False)
        ]
        if buffered:
            fired = buffered + [
                c
                for c in mp_connection.wait(
                    list(live_conns) + pending_sentinels, 0
                )
                if c not in buffered
            ]
        else:
            fired = mp_connection.wait(
                list(live_conns) + pending_sentinels, timeout
            )
        for obj in fired:
            if obj in live_conns:
                rank = live_conns[obj]
                try:
                    msg = wire.recv(obj)
                except (EOFError, OSError, TransportAbortError):
                    del live_conns[obj]
                    if rank not in terminal:
                        # The result stream died before a terminal
                        # report.  For a local process the sentinel
                        # usually beats us here; for a remote rank this
                        # EOF *is* the death notice.
                        procs[rank].join(timeout=1.0)
                        if not procs[rank].is_alive():
                            fail(
                                rank,
                                WorkerCrashError(
                                    rank, procs[rank].exitcode
                                ),
                            )
                    continue
                handle(rank, msg)
            else:
                rank = sentinels[obj]
                # Drain any final report racing the process exit.
                conn = conn_of[rank]
                try:
                    while conn in live_conns and conn.poll(0):
                        handle(rank, wire.recv(conn))
                except (EOFError, OSError):
                    live_conns.pop(conn, None)
                if rank not in terminal:
                    procs[rank].join(timeout=1.0)
                    fail(
                        rank,
                        WorkerCrashError(rank, procs[rank].exitcode),
                    )
        if started and len(terminal) == nprocs and t_run1 is None:
            t_run1 = time.perf_counter()

    if len(terminal) < nprocs:
        # Grace expired: the survivors are presumed wedged.
        for rank in range(nprocs):
            if rank not in terminal:
                if procs[rank].is_alive():
                    procs[rank].terminate()
                    procs[rank].join(timeout=5.0)
                fail(rank, WorkerCrashError(rank, procs[rank].exitcode))
    if t_run1 is None:
        t_run1 = time.perf_counter()
    return Collected(
        returns, overrides, stats, observations, causal, errors, t_run0, t_run1
    )


def build_channel_endpoints(
    system: System, ctx, arena: SharedStoreArena, payload_slab: int
) -> tuple[list, list, list, list[str]]:
    """One OS pipe + shm counters/slab per channel, split per rank.

    Returns ``(w_specs, r_specs, parent_conns, segment_names)``:
    per-rank writer/reader :class:`EndpointSpec` lists, every parent-side
    pipe end (to close after the workers hold duplicates), and the names
    of the arena segments created — so the job can recycle exactly
    these when it completes while other jobs' segments stay live.
    """
    nprocs = system.nprocs
    w_specs: list[list[EndpointSpec]] = [[] for _ in range(nprocs)]
    r_specs: list[list[EndpointSpec]] = [[] for _ in range(nprocs)]
    conns: list[Any] = []
    names: list[str] = []
    for spec in system.channel_specs:
        r_conn, w_conn = ctx.Pipe(duplex=False)
        conns.extend((r_conn, w_conn))
        counter = arena.new_counter()
        names.append(counter)
        slab_name, slab_counter = "", ""
        if payload_slab:
            slab_name = arena.new_slab(payload_slab)
            slab_counter = arena.new_counter()
            names.extend((slab_name, slab_counter))
        for mode, rank, conn in (
            ("w", spec.writer, w_conn),
            ("r", spec.reader, r_conn),
        ):
            specs = w_specs if mode == "w" else r_specs
            specs[rank].append(
                EndpointSpec(
                    spec.name,
                    spec.writer,
                    spec.reader,
                    mode,
                    conn,
                    counter,
                    slab_name,
                    payload_slab,
                    slab_counter,
                )
            )
    return w_specs, r_specs, conns, names


def split_timing(
    t_start: float, t_run0: float | None, t_run1: float | None
) -> dict[str, float]:
    """``{"startup_s", "run_s", "total_s"}`` of a run that began at
    ``t_start`` and ends now, split at the start barrier's release
    ``t_run0`` and the last terminal report ``t_run1``.  A run whose
    barrier never released spent all of its time starting up."""
    t_end = time.perf_counter()
    if t_run0 is None:
        t_run0 = t_run1 = t_end
    return {
        "startup_s": t_run0 - t_start,
        "run_s": t_run1 - t_run0,
        "total_s": t_end - t_start,
    }


def _merge_channel_stats(
    system: System, stats: dict[int, dict]
) -> list[ChannelStatsRecord]:
    """Fuse the writer and reader endpoint halves per channel."""
    records = []
    for spec in system.channel_specs:
        w = stats.get(spec.writer, {}).get(spec.name, _EMPTY_W)
        r = stats.get(spec.reader, {}).get(spec.name, _EMPTY_R)
        records.append(
            ChannelStatsRecord(
                name=spec.name,
                writer=spec.writer,
                reader=spec.reader,
                sends=w["sends"],
                receives=r["receives"],
                bytes_sent=w["bytes_sent"],
                queue_hwm=w["queue_hwm"],
                frames=w.get("frames", 0),
                pipe_bytes=w.get("pipe_bytes", 0),
                shm_bytes=w.get("shm_bytes", 0),
                net_syscalls=w.get("net_syscalls", 0),
                net_syscalls_unvectored=w.get("net_syscalls_unvectored", 0),
                net_vectored=w.get("net_vectored", 0),
                coalesce_hwm=w.get("coalesce_hwm", 0),
            )
        )
    return records


def finish_run(
    system: System,
    collected: Collected,
    stores: list[dict[str, Any]],
    *,
    engine: str,
    observe: bool,
    report_engine: str | None = None,
) -> RunResult:
    """Turn one collected run into its :class:`RunResult`, or raise.

    The one assembly tail of every OS-process job path (:func:`run_pool_job`
    and the socket engine's ``run_assigned``): the lowest failed rank's
    exception goes through :func:`~repro.errors.wrap_process_failure`,
    so fault-injection provenance survives on every path; otherwise the
    channel halves, worker observations and causal logs are merged.
    ``report_engine`` names the merged report (default: ``engine``).
    """
    nprocs = system.nprocs
    if collected.errors:
        rank = min(collected.errors)
        err = collected.errors[rank]
        raise wrap_process_failure(rank, err) from err
    records = _merge_channel_stats(system, collected.stats)
    report = None
    if observe:
        from repro.obs.report import merge_worker_observations

        report = merge_worker_observations(
            report_engine or engine, nprocs, collected.observations, records
        )
    causal = None
    if collected.causal:
        from repro.obs.causal import merge_causal_events

        causal = merge_causal_events(collected.causal, nprocs, engine=engine)
    return assemble_run_result(
        stores=stores,
        returns=[collected.returns.get(r) for r in range(nprocs)],
        engine=engine,
        channel_stats=records,
        report=report,
        causal=causal,
    )


def run_pool_job(
    pool: WorkerPool,
    system: System,
    *,
    bodies: list | None = None,
    recv_timeout: float | None = None,
    observe: bool = False,
    shm_threshold: int = DEFAULT_THRESHOLD,
    payload_slab: int = DEFAULT_SLAB,
    crash_grace: float = 5.0,
    affinity=None,
    trace_causal: bool = False,
    report_engine: str | None = None,
    marks: dict | None = None,
) -> RunResult:
    """Run one system on workers checked out of ``pool``.

    The one job path for pipe-backed ranks, shared by
    :meth:`MultiprocessEngine.run` and
    :class:`~repro.dist.serve.JobServer`: check out slots, build channel
    endpoints, share stores, create result pipes, dispatch,
    :func:`collect_results`, read back, recycle exactly this job's
    segments (other jobs may be live on the same arena), check the
    slots in, then :func:`finish_run`.

    ``bodies`` takes pre-pickled ``("pickle", bytes)`` payloads per rank
    (the server pickles while a job waits for slots); by default they
    are pickled here.  ``marks``, when given, receives the collection
    loop's ``t_run0`` / ``t_run1`` even when the run fails.  The other
    keywords are as on :class:`MultiprocessEngine`.
    """
    nprocs = system.nprocs
    if bodies is None:
        bodies = [("pickle", closures.dumps(p.body)) for p in system.processes]
    cpus = _affinity_sets(affinity, nprocs)
    arena = pool.arena
    # Boot missing workers before this job creates any pipe: a worker
    # forked after that would inherit the write ends and mute the EOF
    # cascade when a rank dies.
    slots = pool.checkout(nprocs)
    parent_conns: dict[Any, int] = {}
    collected = None
    try:
        with pool.arena_lock:
            w_specs, r_specs, channel_conns, seg_names = (
                build_channel_endpoints(system, pool.ctx, arena, payload_slab)
            )
            shared = [
                arena.share_store(p.store, shm_threshold)
                for p in system.processes
            ]
        for plan, _rest in shared:
            seg_names.extend(name for name, _dt, _sh in plan.values())

        child_conns = []
        for p in system.processes:
            parent_conn, child_conn = pool.ctx.Pipe(duplex=True)
            parent_conns[parent_conn] = p.rank
            child_conns.append(child_conn)
        for p in system.processes:
            rank = p.rank
            plan, rest = shared[rank]
            # The embedded pipe ends are fd-duplicated at pickle time,
            # so the parent's copies can close right after dispatch.
            pool.dispatch(
                slots[rank],
                {
                    "rank": rank,
                    "name": p.name,
                    "nprocs": nprocs,
                    "result_conn": child_conns[rank],
                    "body": bodies[rank],
                    "plan": plan,
                    "rest": ("pickle", closures.dumps(rest)),
                    "w_specs": w_specs[rank],
                    "r_specs": r_specs[rank],
                    "recv_timeout": recv_timeout,
                    "observe": observe,
                    "affinity": cpus[rank],
                    "trace_causal": trace_causal,
                },
            )
        # The parent's copies must close so a dead writer's reader sees
        # EOF rather than a silently-held-open pipe.
        for conn in (*channel_conns, *child_conns):
            conn.close()

        collected = collect_results(
            system, [slot.proc for slot in slots], parent_conns, crash_grace
        )
        # Workers are finished (or dead): the segments are quiescent.
        stores: list[dict[str, Any]] = []
        with pool.arena_lock:
            for rank, (plan, rest) in enumerate(shared):
                store = arena.readback(plan)
                # A failed rank reports no overrides: best-effort
                # initial remainder.
                store.update(collected.overrides.get(rank, rest))
                stores.append(store)
    finally:
        if collected is not None:
            # Only quiescent segments recycle; an abandoned setup may
            # leave a worker briefly attached, so its segments stay out
            # of reuse until pool shutdown.
            with pool.arena_lock:
                arena.recycle(seg_names)
            if marks is not None:
                marks.update(t_run0=collected.t_run0, t_run1=collected.t_run1)
        pool.checkin(slots)
        for conn in parent_conns:
            try:
                conn.close()
            except OSError:
                pass
    return finish_run(
        system,
        collected,
        stores,
        engine="multiprocess",
        observe=observe,
        report_engine=report_engine,
    )


class MultiprocessEngine:
    """Run a :class:`~repro.runtime.system.System` on OS processes.

    Parameters
    ----------
    recv_timeout:
        Optional upper bound, in seconds, on any single blocking
        receive inside a worker (same semantics as the threaded
        engine).  ``None`` waits indefinitely.
    observe:
        Truthy runs a fresh per-worker observer in every rank and
        merges the payloads into the result's ``report``.  A shared
        :class:`~repro.obs.observer.Observer` instance cannot span
        address spaces, so unlike the in-process engines only the
        boolean form is accepted.
    start_method:
        ``"spawn"`` (default, per the model: a pristine interpreter per
        rank) or ``"fork"`` (cheaper startup).  Bodies cross by value
        under both.
    shm_threshold:
        Store arrays of at least this many bytes are placed in shared
        segments; smaller values ride the bootstrap pickle.
    crash_grace:
        After the first worker failure, how long to wait for the
        remaining workers to unwind on their own (via the EOF cascade)
        before terminating them.
    payload_slab:
        Per-channel payload-staging slab size in bytes (default 1 MiB);
        array payloads that fit cross via shared memory descriptors
        instead of pipe frames (see :mod:`repro.dist.wire`).  ``0``
        disables slabs: every array rides the pipe.
    affinity:
        CPU pinning per rank: ``None`` (no pinning), ``"auto"``
        (round-robin over available CPUs), or a sequence of CPU ids /
        CPU-id sets cycled over ranks.  Best effort; a no-op where
        ``os.sched_setaffinity`` is unavailable.
    pool:
        How long the :class:`~repro.dist.pool.WorkerPool` every run
        goes through lives; it selects no code path.  ``False`` makes
        a pool per run and shuts it down when the run ends (a pool used
        once).  ``True`` lazily creates an owned pool on first run,
        reused by every subsequent run until :meth:`close`.  An
        existing ``WorkerPool`` instance is used without being owned
        (the caller shuts it down).
    trace_causal:
        Per-rank Lamport-clock event logs (:mod:`repro.obs.causal`),
        shipped home in the done payload and merged into the result's
        ``causal`` :class:`~repro.obs.causal.CausalTrace`.  This is the
        tracing the process engines *can* do — a happens-before partial
        order needs no global observation order — and it is a pure
        refinement: final field state is bitwise identical on/off.

    Attributes
    ----------
    last_timing:
        ``{"startup_s", "run_s", "total_s"}`` for the most recent run —
        ``run_s`` covers the span from the post-barrier "go" to the
        last worker's terminal report, which is what the benchmark
        harness compares across engines; ``total_s`` spans the whole
        ``run()`` call, pool boot and shutdown included.
    """

    name = "multiprocess"

    def __init__(
        self,
        trace: bool = False,
        recv_timeout: float | None = None,
        observe=False,
        start_method: str = "spawn",
        shm_threshold: int = DEFAULT_THRESHOLD,
        crash_grace: float = 5.0,
        payload_slab: int = DEFAULT_SLAB,
        affinity=None,
        pool=False,
        trace_causal: bool = False,
    ):
        if trace:
            raise RuntimeModelError(
                "the multiprocess engine cannot trace: a trace is a single "
                "observation order, and separate address spaces have none; "
                "use trace_causal=True for the happens-before partial "
                "order, or the threaded/cooperative engine for total-order "
                "traces"
            )
        if start_method not in ("spawn", "fork"):
            raise ValueError(f"unsupported start method {start_method!r}")
        self._recv_timeout = recv_timeout
        self._observe = bool(observe)
        self._start_method = start_method
        self._shm_threshold = shm_threshold
        self._crash_grace = crash_grace
        self._payload_slab = max(0, int(payload_slab))
        self._affinity = affinity
        self._trace_causal = bool(trace_causal)
        self._pool = None if isinstance(pool, bool) else pool
        self._owns_pool = pool is True
        self.last_timing: dict[str, float] = {}

    def close(self) -> None:
        """Shut down the owned worker pool, if any.  Idempotent."""
        if self._owns_pool and self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "MultiprocessEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, system: System) -> RunResult:
        t_start = time.perf_counter()
        pool = self._pool
        if pool is None:
            pool = WorkerPool(self._start_method)
            if self._owns_pool:
                self._pool = pool
        marks: dict[str, Any] = {}
        try:
            return run_pool_job(
                pool,
                system,
                recv_timeout=self._recv_timeout,
                observe=self._observe,
                shm_threshold=self._shm_threshold,
                payload_slab=self._payload_slab,
                crash_grace=self._crash_grace,
                affinity=self._affinity,
                trace_causal=self._trace_causal,
                marks=marks,
            )
        finally:
            if pool is not self._pool:  # pool=False: a pool used once
                pool.shutdown()
            self.last_timing = split_timing(
                t_start, marks.get("t_run0"), marks.get("t_run1")
            )
