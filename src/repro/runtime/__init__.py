"""Message-passing substrate implementing the paper's parallel model.

The target parallel program of the paper (section 3.1) is:

1. a collection of N sequential, deterministic processes;
2. with no shared variables — each process has a distinct address space;
3. interacting only through sends and *blocking* receives on
   single-reader single-writer channels with infinite slack;
4. executed as a fair interleaving of actions from the processes.

This package provides exactly that model, twice over:

* :class:`~repro.runtime.engine_threaded.ThreadedEngine` runs process
  bodies on free-running OS threads with thread-safe FIFO channels —
  the "real parallel" execution;
* :class:`~repro.runtime.engine_cooperative.CooperativeEngine` runs the
  *same* bodies one action at a time, with a pluggable
  :mod:`~repro.runtime.schedulers` policy choosing which process acts
  next — a generator of arbitrary maximal interleavings, i.e. the
  simulated execution of section 3.1, and the vehicle for the
  Theorem 1 experiments in :mod:`repro.theory`.

On top of raw channels, :mod:`~repro.runtime.communicator` provides
tagged point-to-point messaging (the paper notes channels may be
simulated by tagged point-to-point messages; we provide both
directions), and :mod:`~repro.runtime.collectives` provides the
broadcast / reduction / gather / scatter operations the mesh archetype's
communication library is built from.
"""

from repro.runtime.channel import Channel, ChannelSpec
from repro.runtime.message import TaggedMessage
from repro.runtime.process import ProcessSpec
from repro.runtime.context import ProcessContext
from repro.runtime.system import System, RunResult
from repro.runtime.engine_threaded import ThreadedEngine
from repro.runtime.engine_cooperative import CooperativeEngine
from repro.runtime.schedulers import (
    RoundRobinPolicy,
    RandomPolicy,
    RunToBlockPolicy,
    SendsFirstPolicy,
    ReplayPolicy,
)
from repro.runtime.communicator import Communicator, make_full_mesh_channels
from repro.runtime.collectives import Collectives
from repro.runtime.mpi_style import MPIStyleComm, run_mpi_style

def __getattr__(name):
    # Lazy: importing the multiprocess backend pulls in multiprocessing
    # machinery that plain in-process runs never need.
    if name == "MultiprocessEngine":
        from repro.dist.engine import MultiprocessEngine

        return MultiprocessEngine
    if name == "SocketEngine":
        from repro.dist.net.engine import SocketEngine

        return SocketEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


ENGINE_NAMES = (
    "cooperative",
    "threaded",
    "multiprocess",
    "multiprocess+pool",
    "socket",
)


def make_engine(name: str = "threaded", backend: str | None = None, **kwargs):
    """Engine factory by name — the CLI's ``--engine`` values.

    ``kwargs`` are forwarded to the engine constructor (``observe``,
    ``recv_timeout``, ...; ``start_method``, ``pool``, ``affinity`` and
    ``payload_slab`` for the multiprocess backend).  Both multiprocess
    names run every system through one worker-pool job path and differ
    only in the pool's lifetime: ``"multiprocess"`` uses a pool once
    per ``run()``, while ``"multiprocess+pool"`` is shorthand for
    ``("multiprocess", pool=True)`` — workers boot once and are reused
    across every subsequent ``run()`` on the same engine (close with
    ``engine.close()`` or use the engine as a context manager).
    ``"socket"`` runs ranks in TCP-connected worker daemons — loopback
    daemons it spawns itself by default, or external ones via
    ``hosts="hostA:9001,hostB:9002"`` — and likewise wants a
    ``close()`` when done.

    ``backend`` names the array backend the caller's program was built
    on (``"numpy"`` / ``"cupy"``, see :mod:`repro.xp`).  Engines move
    bytes and never touch array arithmetic, so the name is only
    *validated* here — an unknown or uninstalled backend fails at
    engine creation instead of deep inside a run.
    """
    if backend is not None:
        from repro.xp import get_backend

        get_backend(backend)
    if name == "threaded":
        return ThreadedEngine(**kwargs)
    if name == "cooperative":
        return CooperativeEngine(**kwargs)
    if name in ("multiprocess", "multiprocess+pool"):
        from repro.dist.engine import MultiprocessEngine

        if name.endswith("+pool"):
            kwargs.setdefault("pool", True)
        return MultiprocessEngine(**kwargs)
    if name == "socket":
        from repro.dist.net.engine import SocketEngine

        return SocketEngine(**kwargs)
    raise ValueError(
        f"unknown engine {name!r}; options: {', '.join(ENGINE_NAMES)}"
    )


__all__ = [
    "Channel",
    "ChannelSpec",
    "MultiprocessEngine",
    "SocketEngine",
    "TaggedMessage",
    "ProcessSpec",
    "ProcessContext",
    "System",
    "RunResult",
    "ThreadedEngine",
    "CooperativeEngine",
    "RoundRobinPolicy",
    "RandomPolicy",
    "RunToBlockPolicy",
    "SendsFirstPolicy",
    "ReplayPolicy",
    "Communicator",
    "Collectives",
    "MPIStyleComm",
    "run_mpi_style",
    "make_full_mesh_channels",
    "make_engine",
    "ENGINE_NAMES",
]
