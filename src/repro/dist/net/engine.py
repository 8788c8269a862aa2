"""The network-spanning engine: ranks run in worker daemons over TCP.

:class:`SocketEngine` is the fourth execution backend, honouring the
same ``run(System) -> RunResult`` contract as the cooperative,
threaded, and multiprocess engines.  Where the multiprocess engine
spawns its own workers and wires them with OS pipes, this engine ships
each rank as a *job* to a long-lived per-host worker daemon
(:mod:`repro.dist.net.daemon`) and wires the channels with TCP sockets
— the only backend whose ranks can live on different machines.

By default the engine spawns ``daemons`` loopback daemons on this box
and reuses them run after run until :meth:`close` — so tests and CI
exercise the entire network path (rendezvous, framing, goodbye/abort
semantics) with no cluster.  Point ``hosts="hostA:9001,hostB:9002"``
(or a list of ``(host, port)`` pairs) at daemons started by hand
(``python -m repro worker-daemon``) to actually span machines; those
daemons are operator-owned and are *not* shut down by :meth:`close`.

Per run, the coordinator:

1. assigns ranks to daemons round-robin
   (:func:`~repro.dist.net.rendezvous.assign_ranks`) under a fresh
   ``job_id`` so back-to-back runs cannot cross-match streams;
2. builds per-rank :class:`~repro.dist.net.transport.NetEndpointSpec`
   lists — each naming the *reader's* daemon, so writer daemons dial
   data connections peer-to-peer (values never relay through the
   coordinator);
3. opens one control connection per rank, sends the job (body and
   store travel by value via :mod:`repro.dist.closures` — shared
   memory cannot span hosts, so there is no segment plan), and hands
   the connections to the same
   :func:`~repro.dist.engine.collect_results` barrier/collection loop
   the multiprocess engine uses, with proxies standing in for the
   remote processes;
4. a daemon that dies mid-run drops its control streams without the
   clean-close goodbye — surfaced by the collection loop as a worker
   crash, hence :class:`~repro.errors.ProcessFailedError`, within the
   crash-grace window rather than a hang.

Determinacy is engine-independent (Theorem 1): TCP neither reorders a
stream nor bounds the channel (sends park in the
:class:`~repro.dist.net.feeder.SendFeeder` queue, never blocking the
writer), so the socket engine's results are bitwise-identical to every
other backend's — which the equivalence tests assert.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Any

from repro.dist import closures, wire
from repro.dist.engine import collect_results, finish_run, split_timing
from repro.dist.net import rendezvous
from repro.dist.net.transport import NetEndpointSpec
from repro.errors import RendezvousError, RuntimeModelError
from repro.runtime.system import RunResult, System

__all__ = [
    "SocketEngine",
    "build_net_endpoints",
    "fresh_job_id",
    "run_assigned",
    "spawn_loopback_daemons",
    "stop_loopback_daemons",
]


class _RemoteRank:
    """Process-shaped proxy for a rank living in a (possibly remote)
    worker daemon.

    :func:`~repro.dist.engine.collect_results` watches process
    sentinels and, failing that, result-connection EOFs.  A remote rank
    has no local fd to watch, so the proxy reports ``sentinel=None``
    (skip sentinel multiplexing) and ``is_alive() == False`` (an EOF on
    the control connection *is* the death notice — there is nothing
    local left to wait for), and join/terminate are no-ops.
    """

    sentinel = None
    exitcode: int | None = None

    def __init__(self, rank: int, daemon_addr: rendezvous.Address):
        self.rank = rank
        self.daemon_addr = daemon_addr

    def join(self, timeout: float | None = None) -> None:
        pass

    def is_alive(self) -> bool:
        return False

    def terminate(self) -> None:
        pass


def build_net_endpoints(
    system: System, assign: list[rendezvous.Address], job_id: str
) -> tuple[list, list]:
    """Per-rank writer/reader :class:`NetEndpointSpec` lists.

    Every spec carries the *reader's* daemon address as ``peer``: the
    writer's daemon dials it, the reader's daemon claims the accepted
    stream from its broker — including the degenerate same-daemon case
    (self-channels, or both ranks assigned to one daemon), which simply
    rides loopback.
    """
    nprocs = system.nprocs
    w_specs: list[list[NetEndpointSpec]] = [[] for _ in range(nprocs)]
    r_specs: list[list[NetEndpointSpec]] = [[] for _ in range(nprocs)]
    for spec in system.channel_specs:
        peer = assign[spec.reader]
        for role, rank in (("w", spec.writer), ("r", spec.reader)):
            target = w_specs if role == "w" else r_specs
            target[rank].append(
                NetEndpointSpec(
                    spec.name,
                    spec.writer,
                    spec.reader,
                    role,
                    job_id=job_id,
                    peer=peer,
                )
            )
    return w_specs, r_specs


_job_seq = 0
_job_seq_lock = threading.Lock()


def fresh_job_id(tag: str = "") -> str:
    """A process-unique job id.  Every dispatch of a system — including
    a retry of the *same* submitted job after a daemon death — gets a
    fresh one, so a dead attempt's late channel dials can never
    cross-match the replacement's rendezvous."""
    global _job_seq
    with _job_seq_lock:
        _job_seq += 1
        seq = _job_seq
    suffix = f"-{tag}" if tag else ""
    return f"{os.getpid():x}-{seq}{suffix}-{os.urandom(4).hex()}"


def spawn_loopback_daemons(
    n: int, handshake_timeout: float = 30.0
) -> tuple[list[rendezvous.Address], list[Any]]:
    """Spawn ``n`` loopback worker-daemon subprocesses.

    Returns ``(addrs, procs)``; the caller owns the processes and
    should retire them with :func:`stop_loopback_daemons`.  A daemon
    that fails to report its bound address within ``handshake_timeout``
    aborts the whole batch (already-started daemons are stopped) with
    :class:`~repro.errors.RendezvousError`.
    """
    from repro.dist.net.daemon import daemon_process_main

    ctx = multiprocessing.get_context()
    addrs: list[rendezvous.Address] = []
    procs: list[Any] = []
    for _ in range(max(1, int(n))):
        recv_end, send_end = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=daemon_process_main,
            name="repro-daemon",
            args=("127.0.0.1", 0, send_end),
            daemon=True,
        )
        proc.start()
        send_end.close()
        procs.append(proc)
        if not recv_end.poll(handshake_timeout):
            recv_end.close()
            stop_loopback_daemons(addrs, procs)
            raise RendezvousError(
                "a loopback worker daemon failed to report its "
                f"address within {handshake_timeout:.1f}s"
            )
        addrs.append(tuple(recv_end.recv()))
        recv_end.close()
    return addrs, procs


def stop_loopback_daemons(
    addrs: list[rendezvous.Address], procs: list[Any]
) -> None:
    """Shut down loopback daemons: polite shutdown hello first (which
    drains in-flight ranks daemon-side), then join, then terminate
    stragglers.  Already-dead processes are fine."""
    for addr in addrs:
        rendezvous.request_shutdown(addr)
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)


def run_assigned(
    system: System,
    assign: list[rendezvous.Address],
    job_id: str,
    *,
    handshake_timeout: float,
    recv_timeout: float | None = None,
    observe: bool = False,
    crash_grace: float = 5.0,
    trace_causal: bool = False,
    engine_name: str = "socket",
    bodies: list | None = None,
    rests: list | None = None,
    timing_sink: dict | None = None,
) -> RunResult:
    """Dispatch one system onto an explicit rank→daemon assignment and
    collect the result — the whole coordinator side of a networked run,
    shared by :class:`SocketEngine` (round-robin assignment) and the
    fleet scheduler (policy-driven placement with retry).

    ``bodies`` / ``rests`` accept pre-pickled ``("pickle", bytes)``
    payloads per rank (a scheduler pickles once and re-dispatches the
    same bytes on retry); by default each rank's body and store are
    pickled here.  ``timing_sink``, when given, receives the
    ``startup_s`` / ``run_s`` / ``total_s`` split even when the run
    fails.  Failures — body exceptions, rendezvous failures, or a
    daemon dying mid-run (control-stream EOF without the goodbye) —
    raise :class:`~repro.errors.ProcessFailedError` for the lowest
    failed rank.
    """
    t_start = time.perf_counter()
    nprocs = system.nprocs
    w_specs, r_specs = build_net_endpoints(system, assign, job_id)
    if bodies is None:
        bodies = [
            ("pickle", closures.dumps(p.body)) for p in system.processes
        ]
    if rests is None:
        rests = [
            ("pickle", closures.dumps(p.store)) for p in system.processes
        ]

    procs: list[_RemoteRank] = []
    parent_conns: dict[Any, int] = {}
    collected = None
    try:
        for p in system.processes:
            rank = p.rank
            stream = rendezvous.dial_control(assign[rank], handshake_timeout)
            parent_conns[stream] = rank
            procs.append(_RemoteRank(rank, assign[rank]))
            wire.send(
                stream,
                (
                    "job",
                    {
                        "job_id": job_id,
                        "rank": rank,
                        "name": p.name,
                        "nprocs": nprocs,
                        "body": bodies[rank],
                        "rest": rests[rank],
                        "w_specs": w_specs[rank],
                        "r_specs": r_specs[rank],
                        "recv_timeout": recv_timeout,
                        "observe": observe,
                        "handshake_timeout": handshake_timeout,
                        "trace_causal": trace_causal,
                    },
                ),
            )
        collected = collect_results(system, procs, parent_conns, crash_grace)
    finally:
        for stream in parent_conns:
            stream.close()
        if timing_sink is not None:
            timing_sink.update(
                split_timing(
                    t_start,
                    getattr(collected, "t_run0", None),
                    getattr(collected, "t_run1", None),
                )
            )

    # Stores travelled by value both ways: each rank's final store is
    # exactly its overrides payload (flush_store with no shared handles
    # returns the whole store).  A failed rank reports nothing — fall
    # back to its initial store.
    stores = [
        dict(collected.overrides.get(r, system.processes[r].store))
        for r in range(nprocs)
    ]
    return finish_run(
        system, collected, stores, engine=engine_name, observe=observe
    )


class SocketEngine:
    """Run a :class:`~repro.runtime.system.System` across worker daemons.

    Parameters
    ----------
    recv_timeout:
        Optional upper bound, in seconds, on any single blocking
        receive inside a rank (same semantics as every other engine).
    observe:
        Truthy runs a per-rank observer in every daemon and merges the
        payloads into the result's ``report``; like the multiprocess
        engine, only the boolean form is accepted.
    daemons:
        How many loopback daemons to spawn when ``hosts`` is not given
        (default 2, so even single-box runs cross a real socket between
        two daemon processes).
    hosts:
        Externally started daemons to use instead:
        ``"hostA:9001,hostB:9002"`` or a list of ``(host, port)``
        pairs.  These are operator-owned; :meth:`close` leaves them
        running.
    handshake_timeout:
        Upper bound, seconds, on every rendezvous step: control dials,
        channel dials (with exponential-backoff retry), and broker
        claims.  Exceeding it raises
        :class:`~repro.errors.RendezvousTimeoutError` — never a hang.
    crash_grace:
        After the first rank failure, how long to wait for the rest to
        unwind via the EOF/abort cascade before giving up on them.
    trace_causal:
        Per-rank Lamport-clock event logs (:mod:`repro.obs.causal`),
        merged into the result's ``causal``
        :class:`~repro.obs.causal.CausalTrace`.  Stamps cross hosts in
        the TCP frame headers (:mod:`repro.dist.net.frames`), so even a
        fleet-spanning run is traced end-to-end; pure refinement —
        final field state is bitwise identical on/off.

    Attributes
    ----------
    last_timing:
        ``{"startup_s", "run_s", "total_s"}`` for the most recent run,
        split at the ready/go barrier exactly like the multiprocess
        engine — so engine-comparison benches read transport cost out
        of ``run_s`` directly.
    """

    name = "socket"

    def __init__(
        self,
        trace: bool = False,
        recv_timeout: float | None = None,
        observe=False,
        daemons: int = 2,
        hosts=None,
        handshake_timeout: float = 30.0,
        crash_grace: float = 5.0,
        trace_causal: bool = False,
    ):
        if trace:
            raise RuntimeModelError(
                "the socket engine cannot trace: a trace is a single "
                "observation order, and ranks on separate hosts have none; "
                "use trace_causal=True for the happens-before partial "
                "order, or the threaded/cooperative engine for total-order "
                "traces"
            )
        self._recv_timeout = recv_timeout
        self._observe = bool(observe)
        self._ndaemons = max(1, int(daemons))
        if isinstance(hosts, str):
            hosts = rendezvous.parse_hosts(hosts)
        self._hosts: list[rendezvous.Address] | None = (
            [tuple(h) for h in hosts] if hosts else None
        )
        self._handshake_timeout = handshake_timeout
        self._crash_grace = crash_grace
        self._trace_causal = bool(trace_causal)
        self._addrs: list[rendezvous.Address] | None = None
        self._local_procs: list[Any] = []
        self._seq = 0
        self.last_timing: dict[str, float] = {}

    # -- daemon plumbing -----------------------------------------------------

    @property
    def daemon_addresses(self) -> list[rendezvous.Address]:
        """The daemons this engine dispatches to (spawning loopback
        daemons on first use when none were configured)."""
        return list(self._ensure_daemons())

    def _ensure_daemons(self) -> list[rendezvous.Address]:
        if self._addrs is not None:
            return self._addrs
        if self._hosts:
            self._addrs = self._hosts
            return self._addrs
        self._addrs, self._local_procs = spawn_loopback_daemons(
            self._ndaemons, self._handshake_timeout
        )
        return self._addrs

    def close(self) -> None:
        """Shut down engine-owned loopback daemons.  Idempotent; hosts
        passed in by the operator are left running."""
        procs, self._local_procs = self._local_procs, []
        stop_loopback_daemons(self._addrs if procs else [], procs)
        if not self._hosts:
            self._addrs = None

    def __enter__(self) -> "SocketEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- run ----------------------------------------------------------------

    def run(self, system: System) -> RunResult:
        addrs = self._ensure_daemons()
        assign = rendezvous.assign_ranks(system.nprocs, addrs)
        self._seq += 1
        timing: dict[str, float] = {}
        try:
            return run_assigned(
                system,
                assign,
                fresh_job_id(),
                handshake_timeout=self._handshake_timeout,
                recv_timeout=self._recv_timeout,
                observe=self._observe,
                crash_grace=self._crash_grace,
                trace_causal=self._trace_causal,
                engine_name=self.name,
                timing_sink=timing,
            )
        finally:
            self.last_timing = timing
