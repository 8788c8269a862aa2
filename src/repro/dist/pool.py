"""Persistent worker pool: boot OS processes once, dispatch many jobs.

A :class:`WorkerPool` keeps a set of long-lived worker processes parked
on a *control pipe*.  Every pipe-backed run goes through one: the
multiprocess engine's (with ``pool=False`` a pool used once, created and
shut down around the run) and every :class:`~repro.dist.serve.JobServer`
job.  :func:`repro.dist.engine.run_pool_job` checks workers out, ships
each rank's job — body, store plan, channel endpoints, a fresh result
pipe — down its control pipe, and the worker executes
:func:`repro.dist.worker.run_job`, then parks again.  Reusing a pool
amortizes process boot and nothing else: the result-pipe protocol
(ready / go / done / error), barrier timing, and crash reaping are the
same for every run.

Mechanics worth noting:

* **Live pipe handles cross a live pipe.**  Job payloads are sent with
  plain ``Connection.send`` — multiprocessing's ``ForkingPickler``
  reduces each embedded ``Connection`` by duplicating its fd at pickle
  time and handing it over through the resource sharer, under both
  ``fork`` and ``spawn`` contexts — so the parent can close its copies
  immediately after dispatch and EOF semantics stay exact.  Bodies and
  store remainders are pre-pickled with :mod:`repro.dist.closures`
  (workers outlive the fork point, so even under ``fork`` bodies
  created later must cross by value).
* **Crash containment.**  A worker that dies mid-job is detected via
  its process sentinel; :meth:`WorkerPool.checkin` discards the dead
  slot and the next :meth:`checkout` respawns a replacement.  A body
  that merely *raises* reports an error frame and parks again — the
  worker survives.
* **Segment recycling.**  The pool owns a persistent
  :class:`~repro.dist.shm.SharedStoreArena` (guarded by
  :attr:`WorkerPool.arena_lock`, since concurrent jobs share it); as a
  job completes its segments are recycled so same-shape grids reuse
  them.  :meth:`shutdown` unlinks everything — the pool holds the only
  parent-side ownership, and the no-leak tests assert emptiness after.
"""

from __future__ import annotations

import multiprocessing
import threading
from dataclasses import dataclass
from typing import Any

from repro.dist.shm import SharedStoreArena
from repro.dist.worker import run_job

__all__ = ["WorkerPool", "pool_worker_main"]


def pool_worker_main(slot: int, ctrl) -> None:
    """Long-lived worker loop: park on the control pipe, run jobs."""
    try:
        while True:
            try:
                msg = ctrl.recv()
            except (EOFError, OSError):
                break  # pool parent went away: exit quietly
            if msg[0] == "stop":
                break
            if msg[0] != "job":  # unknown frame: ignore, keep parking
                continue
            job = msg[1]
            result_conn = job["result_conn"]
            try:
                run_job(
                    job["rank"],
                    job["name"],
                    job["nprocs"],
                    result_conn,
                    job["body"],
                    job["plan"],
                    job["rest"],
                    job["w_specs"],
                    job["r_specs"],
                    job["recv_timeout"],
                    job["observe"],
                    job["affinity"],
                    job.get("trace_causal", False),
                )
            finally:
                try:
                    result_conn.close()
                except OSError:
                    pass
    finally:
        try:
            ctrl.close()
        except OSError:
            pass


@dataclass
class _Slot:
    proc: Any
    conn: Any  # parent end of the control pipe


class WorkerPool:
    """A reusable set of parked worker processes plus their arena.

    Usable as a context manager; :meth:`shutdown` is idempotent.  Every
    job borrows its workers with :meth:`checkout` and returns them with
    :meth:`checkin`; many jobs — of different systems and sizes, one
    after another or concurrently — reuse the pool, which grows on
    demand and respawns any worker that died.  :meth:`ensure` only
    pre-sizes it.

    :meth:`checkout` / :meth:`checkin` are safe to call from multiple
    threads and concurrently with :meth:`shutdown`: every mutation of
    the slot lists happens under one lock, borrowed slots are tracked
    so a shutdown racing a job terminates them too (a parked worker
    gets a polite ``stop``; a borrowed one is mid-job and is
    terminated), and a checkin after shutdown stops the returned
    workers instead of re-parking them.
    """

    def __init__(self, start_method: str = "fork"):
        if start_method not in ("spawn", "fork"):
            raise ValueError(f"unsupported start method {start_method!r}")
        self.start_method = start_method
        self.ctx = multiprocessing.get_context(start_method)
        self.arena = SharedStoreArena()
        self.arena_lock = threading.Lock()  # the arena is not thread-safe
        self._slots: list[_Slot] = []
        self._lent: list[_Slot] = []
        self._lock = threading.RLock()
        self._closed = False
        self.spawned = 0  # total workers ever started (tests/bench)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __len__(self) -> int:
        with self._lock:
            return len(self._slots) + len(self._lent)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self) -> _Slot:
        # Workers must inherit the parent's resource tracker.  A worker
        # forked before the tracker exists (no shared segment created
        # yet — e.g. a pre-sized serving pool) would lazily boot its
        # own private tracker on first attach; its registrations then
        # never see the parent's unlinks, and that orphan tracker
        # "cleans up" already-unlinked segments at exit.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        parent, child = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(
            target=pool_worker_main,
            name=f"repro-pool-{self.spawned}",
            args=(self.spawned, child),
            daemon=True,
        )
        proc.start()
        child.close()
        self.spawned += 1
        return _Slot(proc, parent)

    @staticmethod
    def _discard(slot: _Slot) -> None:
        slot.proc.join(timeout=1.0)
        if slot.proc.is_alive():
            slot.proc.terminate()
            slot.proc.join(timeout=1.0)
        try:
            slot.conn.close()
        except OSError:
            pass

    def reap(self) -> int:
        """Drop dead *parked* workers; returns how many were discarded.

        Borrowed slots are never reaped here — the job that borrowed
        them detects the crash (process sentinel) and returns them via
        :meth:`checkin`, which discards the dead.
        """
        with self._lock:
            dead = [s for s in self._slots if not s.proc.is_alive()]
            self._slots = [s for s in self._slots if s.proc.is_alive()]
        for slot in dead:
            self._discard(slot)
        return len(dead)

    def ensure(self, n: int) -> None:
        """Pre-size: boot parked workers until at least ``n`` are live.

        A caller that will fork from a multithreaded process (the
        serving layer) boots its workers here first, while it is still
        single-threaded.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is shut down")
            self.reap()
            while len(self._slots) < n:
                self._slots.append(self._spawn())

    def checkout(self, n: int) -> list[_Slot]:
        """Borrow ``n`` live workers exclusively, booting any missing.

        The returned slots are removed from the parked list until
        :meth:`checkin`; concurrent checkouts never share a slot.
        """
        with self._lock:
            self.ensure(n)
            taken = self._slots[:n]
            del self._slots[:n]
            self._lent.extend(taken)
            return taken

    def checkin(self, slots: list[_Slot]) -> None:
        """Return borrowed slots: live ones park again, dead ones are
        discarded.  After :meth:`shutdown` the returned workers are
        stopped instead — never re-parked on a closed pool."""
        with self._lock:
            for slot in slots:
                if slot in self._lent:
                    self._lent.remove(slot)
            if self._closed:
                doomed, parked = list(slots), []
            else:
                doomed = [s for s in slots if not s.proc.is_alive()]
                parked = [s for s in slots if s.proc.is_alive()]
                self._slots.extend(parked)
        for slot in doomed:
            try:
                slot.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            self._discard(slot)

    def dispatch(self, slot: _Slot, job: dict[str, Any]) -> None:
        """Ship one run's job to a parked worker (plain pickle: the
        embedded Connections must go through ForkingPickler)."""
        slot.conn.send(("job", job))

    def shutdown(self) -> None:
        """Stop every worker and unlink every shared segment.

        Idempotent and safe while jobs are in flight: parked workers
        get a ``stop`` frame; borrowed (mid-job) workers are terminated
        outright — their parent-side collector sees the sentinel and
        fails that job, exactly like a crash.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            parked = list(self._slots)
            lent = list(self._lent)
            self._slots.clear()
            self._lent.clear()
        for slot in parked:
            try:
                slot.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for slot in lent:
            slot.proc.terminate()
        for slot in parked + lent:
            slot.proc.join(timeout=5.0)
            if slot.proc.is_alive():
                slot.proc.terminate()
                slot.proc.join(timeout=5.0)
            try:
                slot.conn.close()
            except OSError:
                pass
        self.arena.cleanup()
