"""Measurement plumbing shared by the workloads.

* :class:`Recorder` holds the raw samples, the operation tally and, in a
  traced run, the spans (name, start, end, parent, operation id), all in
  memory until the run ends.
* :class:`Watchdog` is the outside deadline on every operation: it
  kills the program's worker processes when an operation overruns, and
  ends the benchmark with a failed result if the operation still does
  not return.
* :func:`leak_audit` checks, after a workload has closed its engines
  and servers, that no shared-memory segment, child process or thread
  outlived them.
* :func:`stop_resource_tracker` ends the one helper process the
  standard library starts outside ``multiprocessing.active_children()``.
* :func:`environment` records where and on what the run happened.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent


class Recorder:
    """Raw samples, operation outcomes and (traced runs only) spans."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._op = 0
        self._muted = 0
        self._warming = 0

    def add(self, name: str, value: float) -> None:
        if not self._warming:
            self.samples[name].append(float(value))

    def outcome(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; ``ok`` False counts a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def error(self, what: str, exc: BaseException) -> None:
        """Count one operation that raised."""
        detail = "".join(traceback.format_exception_only(type(exc), exc))
        self.outcome(False, f"{what}: {detail.strip()}")

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block (no-op when not traced).

        A span opened with no enclosing span starts a new operation;
        nested spans share its operation id and name their parent.
        Yields the span record, or None when nothing is recorded.
        """
        if not self.traced or self._muted:
            yield None
            return
        record = self.record(
            name,
            time.perf_counter(),
            None,
            self.spans[self._open[-1]] if self._open else None,
        )
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def record(self, name: str, start: float, end: float | None, parent=None):
        """Add a span from known timestamps (engine-reported phases,
        server-side job phases); ``parent`` None starts a new operation.
        Returns the span record, or None when nothing is recorded."""
        if not self.traced or self._muted:
            return None
        if parent is None:
            self._op += 1
        record = {
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "op": self._op if parent is None else parent["op"],
            "name": name,
            "start": start,
            "end": end,
        }
        self.spans.append(record)
        return record

    @contextlib.contextmanager
    def muted(self, when: bool = True):
        """Record no spans inside the block when ``when`` holds: the
        untraced twin of an operation, timed for the tracing-overhead
        comparison."""
        self._muted += when
        try:
            yield
        finally:
            self._muted -= when

    @contextlib.contextmanager
    def warming(self):
        """Keep no samples inside the block: the cold first operations
        of a set-up are checked and counted but not measured."""
        self._warming += 1
        try:
            yield
        finally:
            self._warming -= 1


class _Deadline:
    __slots__ = ("at", "label", "fired")

    def __init__(self, at: float, label: str):
        self.at = at
        self.label = label
        self.fired = False


class Watchdog:
    """Outside deadline on operations and on the whole run.

    ``guard(seconds, label)`` arms a deadline for the block.  When it
    passes, every child process is terminated, which makes the process
    engines and the job server fail the hung operation instead of
    waiting forever.  If the block has still not returned ``grace``
    seconds later (a hang no process kill can break, as in the threaded
    engine), ``on_fatal`` is called and the process exits.
    """

    def __init__(self, on_fatal, run_deadline: float, grace: float = 10.0):
        self._on_fatal = on_fatal
        self._grace = grace
        self._lock = threading.Lock()
        self._armed: _Deadline | None = None
        self._run_deadline = time.monotonic() + run_deadline
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="perfbench-watchdog", daemon=True
        )
        self._thread.start()

    @contextlib.contextmanager
    def guard(self, seconds: float, label: str):
        """Arm the deadline for the block; the yielded token's ``fired``
        tells afterwards whether the block overran it."""
        token = _Deadline(time.monotonic() + seconds, label)
        with self._lock:
            self._armed = token
        try:
            yield token
        finally:
            with self._lock:
                self._armed = None

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(0.2):
            now = time.monotonic()
            with self._lock:
                armed = self._armed
            if now > self._run_deadline:
                self._fatal("the run exceeded its deadline")
            if armed is None or now < armed.at:
                continue
            if not armed.fired:
                armed.fired = True
                kill_children()
            elif now - armed.at > self._grace:
                self._fatal(f"operation {armed.label} hung past its deadline")

    def _fatal(self, why: str) -> None:
        kill_children()
        stop_resource_tracker()
        self._on_fatal(why)
        os._exit(0)


def kill_children(timeout: float = 5.0) -> None:
    """Terminate and reap every child process of this process."""
    children = multiprocessing.active_children()
    for proc in children:
        proc.terminate()
    for proc in children:
        proc.join(timeout)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout)


def stop_resource_tracker(timeout: float = 10.0) -> None:
    """Stop the standard library's resource-tracker process and reap it.

    The process engines start it on first use of shared memory.  It is
    not a ``multiprocessing`` child, and left alone it outlives the
    benchmark until the last holder of its pipe exits.  Call once every
    child is gone: closing this process's end of the pipe then ends it.
    It is killed if it has not exited within ``timeout`` seconds.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if not tracker._lock.acquire(timeout=timeout):
        return
    try:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    finally:
        tracker._lock.release()
    if fd is None:
        return
    os.close(fd)
    if pid is None:
        return
    deadline = time.monotonic() + timeout
    try:
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.02)
    except ChildProcessError:
        pass  # already reaped


def leak_audit(threads_before: set[threading.Thread], wait: float = 5.0):
    """Leftovers after a workload closed everything it opened.

    Returns a list of human-readable leaks (empty when clean).  Children
    and threads get ``wait`` seconds to finish exiting.  The standard
    library's connection-sharing listener thread is stopped first: it
    is started on demand when a pipe end is pickled to a worker and is
    meant to live until it is told to stop, so it is not the program's.
    """
    from multiprocessing import resource_sharer

    from repro.dist.shm import live_segment_names

    resource_sharer.stop(timeout=wait)
    deadline = time.monotonic() + wait
    while True:
        segments = sorted(live_segment_names())
        children = multiprocessing.active_children()
        threads = [
            t
            for t in threading.enumerate()
            if t not in threads_before and t.is_alive()
        ]
        if not (children or threads) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    leaks = []
    if segments:
        leaks.append(f"{len(segments)} shared-memory segment(s) left")
    if children:
        leaks.append(
            "child process(es) left: "
            + ", ".join(f"{p.name}[{p.pid}]" for p in children)
        )
    if threads:
        leaks.append(
            "thread(s) left: " + ", ".join(t.name for t in threads)
        )
    return leaks


def child_kinds(before: set) -> list[str]:
    """Process classes (``ForkProcess``/``SpawnProcess``) of the children
    started since ``before`` was taken: the start method actually used."""
    return sorted(
        {
            type(p).__name__
            for p in multiprocessing.active_children()
            if p not in before
        }
    )


def _cache_sizes() -> dict[str, int]:
    """Per-level data/unified cache sizes of CPU 0, in bytes, from sysfs."""
    sizes: dict[str, int] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        units = {"K": 1024, "M": 1024 * 1024}
        value = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        sizes[f"l{level}_bytes"] = value
    return sizes


def _source_digest() -> str:
    """sha256 over the program's sources: identifies the code measured
    when the checkout carries no version control metadata."""
    digest = hashlib.sha256()
    for path in sorted((REPO / "src").rglob("*.py")):
        digest.update(str(path.relative_to(REPO)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (REPO / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot, from /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def environment(
    seed: int, start_methods: dict[str, list[str]], cpu_start: tuple[int, int]
) -> dict:
    """Where and on what this result was measured.  ``cpu_start`` is
    :func:`cpu_times` at the start of the run: the share of CPU time the
    hypervisor stole since then explains run-to-run drift."""
    steal, total = (now - then for now, then in zip(cpu_times(), cpu_start))
    affinity = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    )
    caches = _cache_sizes()
    levels = sorted(caches)
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "l2_bytes": caches.get("l2_bytes"),
        "llc_bytes": caches[levels[-1]] if levels else None,
        "seed": seed,
        "cpu_steal_frac": steal / total if total else None,
        "default_start_method": multiprocessing.get_start_method(),
        "start_methods": start_methods,
        "argv": sys.argv[1:],
    }


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, default=str) + "\n")
