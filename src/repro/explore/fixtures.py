"""Named exploration targets: the systems the explorer drives.

Each target is registered as a zero-argument **factory** returning a
fresh :class:`~repro.runtime.system.System`.  Factories (not cached
instances) matter because the deliberately-racy fixtures carry shared
closure state — the very thing Theorem 1 forbids — which must be reset
between re-executions or the replayed schedules would not reproduce.

The registry serves two callers: the ``python -m repro explore`` CLI
(``--target`` names resolve here) and violation-artifact replay
(:func:`repro.explore.report.replay_artifact` rebuilds the system from
the artifact's recorded target name).

Targets:

======================  =====================================================
``racy``                MRSW store shared *without* a channel — one writer
                        bumping a closure-shared cell, two readers peeking at
                        it.  Violates the no-shared-variables hypothesis;
                        bounded search must convict it (nondeterminate).
``exchange2``           Two ranks exchanging values over a channel pair.
``ring3``               Three ranks passing an accumulating token round a
                        ring, with independent local steps.
``fanin``               Two producers feeding one consumer over separate
                        channels (SRSW; determinate by Theorem 1).
``prodcons``            Producer/consumer stream with interleaved compute.
``pipeline``            The pipeline archetype's hand-written streaming form
                        (3 stages x 6 items).
``dc``                  Divide-and-conquer mergesort at 8 leaves.
``e1``                  Experiment 1's FDTD program (Version A) on a small
                        grid over a 2x2x1 process mesh plus host.
======================  =====================================================
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ReproError
from repro.runtime.process import ProcessSpec
from repro.runtime.system import System

__all__ = [
    "build_target",
    "list_targets",
    "racy_store_system",
    "exchange2_system",
    "ring3_system",
    "fanin_system",
    "prodcons_system",
]


# ---------------------------------------------------------------------------
# Racy fixture: the system the explorer must convict
# ---------------------------------------------------------------------------


def racy_store_system(bumps: int = 2) -> System:
    """One writer and two readers sharing a store cell with NO channel.

    The writer bumps a closure-shared counter across ``bumps``
    scheduler-visible steps; each reader records the value it happens to
    observe after one step of its own.  The readers' final stores
    depend on where the scheduler interleaved them relative to the
    writer — a model violation (shared variable) that bounded DFS
    convicts by finding two schedules with different final digests.

    Always call this factory per run: the shared cell lives in the
    closure, so a reused instance would leak state across re-executions.
    """
    shared = {"x": 0}

    def writer(ctx):
        for _ in range(bumps):
            ctx.step("bump")
            shared["x"] += 1

    def reader(ctx):
        ctx.step("peek")
        ctx.store["seen"] = shared["x"]

    return System(
        [
            ProcessSpec(0, writer, name="writer"),
            ProcessSpec(1, reader, name="reader1"),
            ProcessSpec(2, reader, name="reader2"),
        ]
    )


# ---------------------------------------------------------------------------
# Conforming toy systems (determinate by Theorem 1)
# ---------------------------------------------------------------------------


def exchange2_system() -> System:
    """Two ranks exchange values over an SRSW channel pair."""

    def body(ctx):
        out = "c01" if ctx.rank == 0 else "c10"
        inn = "c10" if ctx.rank == 0 else "c01"
        ctx.step("local")
        ctx.send(out, 10 * (ctx.rank + 1))
        ctx.store["peer"] = ctx.recv(inn)

    system = System([ProcessSpec(0, body), ProcessSpec(1, body)])
    system.add_channel("c01", 0, 1)
    system.add_channel("c10", 1, 0)
    return system


def ring3_system() -> System:
    """A token accumulates rank ids round a 3-ring.

    The independent ``init`` steps give the scheduler genuine choices
    at every layer, so the interleaving space is wide while the final
    state stays schedule-independent.
    """

    def body(ctx):
        nxt = f"ring{ctx.rank}"
        prv = f"ring{(ctx.rank - 1) % 3}"
        ctx.step("init")
        if ctx.rank == 0:
            ctx.send(nxt, 1)
            ctx.store["token"] = ctx.recv(prv)
        else:
            token = ctx.recv(prv)
            ctx.store["seen"] = token
            ctx.send(nxt, token + ctx.rank)

    system = System([ProcessSpec(r, body) for r in range(3)])
    for r in range(3):
        system.add_channel(f"ring{r}", r, (r + 1) % 3)
    return system


def fanin_system(n_items: int = 2) -> System:
    """Two producers feed one consumer over separate SRSW channels."""

    def producer(ctx):
        for i in range(n_items):
            ctx.step("make")
            ctx.send(f"in{ctx.rank}", 100 * ctx.rank + i)

    def consumer(ctx):
        got = []
        for i in range(n_items):
            got.append(ctx.recv("in0"))
            got.append(ctx.recv("in1"))
        ctx.store["got"] = got

    system = System(
        [
            ProcessSpec(0, producer),
            ProcessSpec(1, producer),
            ProcessSpec(2, consumer),
        ]
    )
    system.add_channel("in0", 0, 2)
    system.add_channel("in1", 1, 2)
    return system


def prodcons_system(n_items: int = 3) -> System:
    """Producer/consumer stream with interleaved local compute."""

    def producer(ctx):
        for i in range(n_items):
            ctx.step("produce")
            ctx.send("stream", i * i)

    def consumer(ctx):
        total = 0
        for _ in range(n_items):
            total += ctx.recv("stream")
            ctx.step("consume")
        ctx.store["total"] = total

    system = System([ProcessSpec(0, producer), ProcessSpec(1, consumer)])
    system.add_channel("stream", 0, 1)
    return system


# ---------------------------------------------------------------------------
# Archetype-scale targets
# ---------------------------------------------------------------------------


def pipeline_target() -> System:
    from repro.archetypes.pipeline import pipeline_system

    stages = [
        lambda x: x + 1.0,
        lambda x: x * 2.0,
        lambda x: x - 3.0,
    ]
    return pipeline_system(stages, np.arange(6, dtype=np.float64))


def dc_target() -> System:
    from repro.archetypes.divide_conquer import DivideConquerBuilder

    problem = np.random.default_rng(7).normal(size=16)
    builder = DivideConquerBuilder(
        problem,
        solve=lambda x: np.sort(x),
        merge=lambda a, b: np.sort(np.concatenate([a, b])),
        nprocs=8,
    )
    return builder.to_parallel()


def e1_target() -> System:
    from repro.apps.fdtd import (
        FDTDConfig,
        GaussianPulse,
        PointSource,
        YeeGrid,
        build_parallel_fdtd,
    )

    config = FDTDConfig(
        grid=YeeGrid(shape=(6, 5, 4)),
        steps=2,
        sources=[
            PointSource("ez", (3, 2, 2), GaussianPulse(delay=4, spread=2))
        ],
    )
    par = build_parallel_fdtd(config, (2, 2, 1), version="A")
    return par.to_parallel()


_TARGETS: dict[str, tuple[str, Callable[[], System]]] = {
    "racy": (
        "MRSW store shared without a channel (must be convicted)",
        racy_store_system,
    ),
    "exchange2": ("two-rank value exchange", exchange2_system),
    "ring3": ("3-rank accumulating token ring", ring3_system),
    "fanin": ("two producers, one consumer", fanin_system),
    "prodcons": ("producer/consumer stream", prodcons_system),
    "pipeline": ("3-stage x 6-item streaming pipeline", pipeline_target),
    "dc": ("8-leaf divide-and-conquer mergesort", dc_target),
    "e1": (
        "experiment 1 FDTD, 2x2x1 mesh + host, small grid",
        e1_target,
    ),
}


def list_targets() -> dict[str, str]:
    """Target name -> one-line description."""
    return {name: desc for name, (desc, _) in _TARGETS.items()}


def build_target(name: str) -> Callable[[], System]:
    """The registered zero-argument system factory for ``name``."""
    try:
        return _TARGETS[name][1]
    except KeyError:
        raise ReproError(
            f"unknown exploration target {name!r} "
            f"(known: {', '.join(sorted(_TARGETS))})"
        ) from None
