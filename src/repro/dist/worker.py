"""What runs inside each worker OS process.

:func:`run_job` runs one dispatched rank, in a parked worker of
:mod:`repro.dist.pool` or on a thread of a worker daemon
(:mod:`repro.dist.net.daemon`).  A job rebuilds one rank's world — store
(attached to the parent's shared segments), channel endpoints, context,
optional observer — runs the unmodified process body, and reports back
over a dedicated duplex result pipe.

Result-pipe protocol (all frames via :mod:`repro.dist.wire`):

* worker → parent ``("ready", rank)`` once fully constructed;
* parent → worker ``("go",)`` — the start barrier, so engine timing
  can separate process startup from the run proper — or ``("abort",)``
  to unwind without running (a sibling failed during startup);
* worker → parent ``("done", rank, payload)`` with the body's return
  value, store overrides (entries not backed by shared memory, see
  :func:`repro.dist.shm.flush_store`), per-endpoint channel statistics,
  and the observation payload when observing;
* worker → parent ``("error", rank, exc_info)`` when the body raised.

Whatever happens, the ``finally`` block closes the rank's write
endpoints — flushing queued values and signalling EOF downstream, the
cross-process analogue of the threaded engine's close-wakes-readers
cascade — and detaches from shared memory.  A hard crash (the process
dying without reporting) closes every fd anyway; the parent notices via
the process sentinel.
"""

from __future__ import annotations

import os
import traceback
from typing import Any

from repro.dist import closures, wire
from repro.dist.channels import EndpointSpec, ProcChannel
from repro.dist.shm import attach_store, close_handles, flush_store
from repro.errors import TransportError
from repro.runtime.context import ProcessContext

__all__ = ["run_job", "apply_affinity", "report_error"]


def _open_channel(spec) -> ProcChannel:
    """Build the channel endpoint a spec describes.

    Pipe specs (:class:`~repro.dist.channels.EndpointSpec`) are the
    default; specs tagged ``transport="socket"`` come from the network
    engine and get a :class:`~repro.dist.net.transport.SocketChannel`.
    The import is lazy so pipe-only runs never load the net package.
    """
    if getattr(spec, "transport", "pipe") == "socket":
        from repro.dist.net.transport import SocketChannel

        return SocketChannel(spec)
    return ProcChannel(spec)


class _ProcExecutor:
    """Immediate-execution executor for one worker process.

    Like the threaded executor minus total-order tracing (a global
    trace needs a global observation order, which separate address
    spaces do not have); *causal* tracing needs only the local
    Lamport clock, so a :class:`~repro.obs.causal.CausalRecorder` can
    be attached — sends/receives tick it through the channels, local
    steps through :meth:`exec_step`.  With an observer attached,
    blocked-receive intervals are timed exactly as the threaded
    engine times them.
    """

    def __init__(self, recv_timeout: float | None, observer=None, causal=None):
        self._recv_timeout = recv_timeout
        self._obs = observer
        self._causal = causal

    def exec_send(self, rank: int, channel: ProcChannel, value: Any) -> None:
        channel.send(value, rank=rank)

    def exec_recv(self, rank: int, channel: ProcChannel) -> Any:
        if self._obs is not None:
            t0 = self._obs.clock()
            value = channel.recv(rank=rank, timeout=self._recv_timeout)
            self._obs.recv_blocked(rank, channel.name, t0, self._obs.clock())
            return value
        return channel.recv(rank=rank, timeout=self._recv_timeout)

    def exec_step(self, rank: int, label: str) -> None:
        if self._causal is not None:
            self._causal.on_step(label)


def apply_affinity(cpus) -> None:
    """Pin the calling process to ``cpus`` (best effort, Linux only)."""
    if not cpus or not hasattr(os, "sched_setaffinity"):
        return
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass  # cpu set not permitted/offline: run unpinned


def _unpack(payload: tuple[str, bytes]) -> Any:
    """Rebuild a ``("pickle", bytes)`` body or store payload."""
    return closures.loads(payload[1])


def _exc_info(exc: BaseException) -> tuple[str, Any, str]:
    """A best-effort shippable form of a worker exception."""
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        return ("pickle", closures.dumps(exc), tb)
    except Exception:
        return ("repr", f"{type(exc).__name__}: {exc}", tb)


def _wire_metrics(observer, channels) -> None:
    """Fold this rank's pipe/slab traffic into the observer's registry.

    Merged across workers by summing (``merge_worker_observations``),
    so the report carries run-total wire counters next to the modelled
    message counts.
    """
    frames = pipe_bytes = shm_bytes = net_frames = net_bytes = 0
    net_syscalls = net_unvectored = net_vectored = 0
    for ch in channels:
        if getattr(ch, "transport", "pipe") == "socket":
            net_frames += ch.frames
            net_bytes += ch.pipe_bytes
            net_syscalls += ch.net_syscalls
            net_unvectored += ch.net_syscalls_unvectored
            net_vectored += ch.net_vectored
        else:
            frames += ch.frames
            pipe_bytes += ch.pipe_bytes
            shm_bytes += ch.shm_bytes
    registry = observer.registry
    registry.counter("wire/frames").inc(frames)
    registry.counter("wire/pipe_bytes").inc(pipe_bytes)
    registry.counter("wire/shm_bytes").inc(shm_bytes)
    if net_frames or net_bytes:
        registry.counter("wire/net_frames").inc(net_frames)
        registry.counter("wire/net_bytes").inc(net_bytes)
    if net_syscalls:
        registry.counter("wire/net_syscalls").inc(net_syscalls)
        registry.counter("wire/net_syscalls_unvectored").inc(net_unvectored)
        registry.counter("wire/net_vectored").inc(net_vectored)


def run_job(
    rank: int,
    name: str,
    nprocs: int,
    result_conn,
    body_payload: tuple[str, bytes],
    plan: dict[str, tuple],
    rest_payload: tuple[str, bytes],
    w_specs: list[EndpointSpec],
    r_specs: list[EndpointSpec],
    recv_timeout: float | None,
    observe: bool,
    affinity=None,
    trace_causal: bool = False,
) -> None:
    """Execute one dispatched rank: build, barrier, run body, report.

    Never raises: failures are shipped to the parent as ``("error", …)``
    frames.  Does **not** close ``result_conn`` — its owner (the pool
    worker loop or the daemon) does, per job.
    """
    out: dict[str, ProcChannel] = {}
    inc: dict[str, ProcChannel] = {}
    handles: dict[str, tuple] = {}
    try:
        apply_affinity(affinity)
        body = _unpack(body_payload)
        rest = _unpack(rest_payload)
        store, handles = attach_store(plan, rest)
        out = {spec.name: _open_channel(spec) for spec in w_specs}
        inc = {spec.name: _open_channel(spec) for spec in r_specs}

        observer = None
        if observe:
            from repro.obs.observer import Observer

            observer = Observer()

        recorder = None
        if trace_causal:
            from repro.obs.causal import CausalRecorder

            recorder = CausalRecorder(rank)
            for ch in (*out.values(), *inc.values()):
                ch.causal = recorder

        executor = _ProcExecutor(recv_timeout, observer, recorder)
        ctx = ProcessContext(
            rank=rank,
            nprocs=nprocs,
            store=store,
            out_channels=out,
            in_channels=inc,
            executor=executor,
            name=name,
            observer=observer,
        )

        wire.send(result_conn, ("ready", rank))
        msg = wire.recv(result_conn)
        if msg[0] != "go":
            return

        if observer is not None:
            observer.process_started(rank, name)
        try:
            ret = body(ctx)
        finally:
            if observer is not None:
                observer.process_finished(rank)
            # Flush-and-close before reporting: once the parent sees
            # "done", every value this rank sent is in its pipe.
            for ch in out.values():
                ch.close()

        overrides = flush_store(store, handles)
        stats = {ch.name: ch.stats() for ch in (*out.values(), *inc.values())}
        obs_payload = None
        if observer is not None:
            from repro.obs.report import worker_observation

            _wire_metrics(observer, out.values())
            obs_payload = worker_observation(observer)

        wire.send(
            result_conn,
            (
                "done",
                rank,
                {
                    "return": ret,
                    "overrides": overrides,
                    "stats": stats,
                    "obs": obs_payload,
                    "causal": recorder.payload() if recorder else None,
                },
            ),
        )
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        report_error(result_conn, rank, exc)
    finally:
        for ch in out.values():
            ch.close()
        for ch in inc.values():
            ch.close()
        close_handles(handles)


def report_error(result_conn, rank: int, exc: BaseException) -> None:
    """Ship ``exc`` to the coordinator as this rank's ``("error", …)``
    frame (shared with the worker daemon, which reports rendezvous
    failures before :func:`run_job` ever starts)."""
    try:
        wire.send(result_conn, ("error", rank, _exc_info(exc)))
    except OSError:
        pass
    except TransportError:
        pass
