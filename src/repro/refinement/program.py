"""Sequential simulated-parallel programs (paper §2.2, Definition 1).

A :class:`SimulatedParallelProgram` is the key intermediate artifact of
the methodology: a *sequential* program whose data is partitioned into
N simulated address spaces and whose computation is an alternating
sequence of :class:`LocalBlock` and
:class:`~repro.refinement.dataexchange.DataExchange` stages.

Running it (:meth:`SimulatedParallelProgram.run`) is ordinary sequential
execution — which is the methodology's payoff: the hard part of
parallelization is developed and debugged with sequential tools.  The
mechanical jump to a real process system is
:func:`repro.refinement.transform.to_parallel_system`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, Union

from repro.errors import RefinementError
from repro.refinement.dataexchange import DataExchange
from repro.refinement.store import AddressSpace, make_stores

__all__ = ["LocalBlock", "SimulatedParallelProgram"]

#: A local-computation function: receives its own address space only.
LocalFn = Callable[[AddressSpace], None]


@dataclass
class LocalBlock:
    """A local-computation block: one function per simulated process.

    The i-th function accesses only the i-th address space — enforced
    structurally (it is *given* only that space; like process bodies, it
    must not smuggle state through closures).  ``fns`` may be:

    * a list of N functions (one per process);
    * a dict ``{rank: fn}`` — unlisted ranks do nothing this block
      (corresponding to processes that sit out a phase, e.g. grid
      processes during host I/O);
    * a single function plus ``spmd=True`` — the same function for every
      rank (it receives ``(store, rank)``), the common SPMD case.
    """

    fns: Union[list[LocalFn], dict[int, LocalFn], Callable[[AddressSpace, int], None]]
    name: str = "local"
    spmd: bool = False

    def fn_for(self, rank: int) -> Callable[[AddressSpace], None] | None:
        if self.spmd:
            fn = self.fns

            def bound(store: AddressSpace, _fn=fn, _rank=rank) -> None:
                _fn(store, _rank)

            return bound
        if isinstance(self.fns, dict):
            return self.fns.get(rank)
        if isinstance(self.fns, list):
            if rank < len(self.fns):
                return self.fns[rank]
            return None
        raise RefinementError(
            f"local block {self.name!r}: fns must be list, dict, or "
            "spmd callable"
        )

    def apply(self, stores: Sequence[AddressSpace]) -> None:
        """Run every per-process function, in rank order.

        Rank order is arbitrary but fixed: the functions touch disjoint
        address spaces, so any order gives the same result — that is
        what makes the block parallelisable.
        """
        for rank in range(len(stores)):
            fn = self.fn_for(rank)
            if fn is not None:
                fn(stores[rank])


Stage = Union[LocalBlock, DataExchange]


def _fuse_local_blocks(first: LocalBlock, second: LocalBlock) -> LocalBlock:
    """One local block performing ``first`` then ``second`` per rank.

    Sequencing two local computations of the *same* process is itself a
    local computation; fusing never changes semantics because blocks
    touch only their own partition.
    """

    def fuse(rank: int):
        fa = first.fn_for(rank)
        fb = second.fn_for(rank)

        def fused(store, _fa=fa, _fb=fb):
            if _fa is not None:
                _fa(store)
            if _fb is not None:
                _fb(store)

        return fused

    # Build an explicit dict over every rank either block mentions; the
    # fused fns close over the originals, so SPMD and dict forms fuse
    # uniformly.  Rank coverage must be conservative: SPMD blocks cover
    # all ranks, so fall back to a dict keyed lazily at apply time via
    # fn_for — represented here by wrapping in a dict-form block built
    # per rank on demand is not possible, so enumerate from dict forms
    # and mark SPMD coverage with a sentinel.
    ranks: set[int] = set()
    for block in (first, second):
        if block.spmd or isinstance(block.fns, list):
            # covers rank indices up to the program size; represented
            # by a closure-based SPMD form instead.
            def spmd_fused(store, rank: int, _f=first, _s=second):
                fa = _f.fn_for(rank)
                fb = _s.fn_for(rank)
                if fa is not None:
                    fa(store)
                if fb is not None:
                    fb(store)

            return LocalBlock(
                spmd_fused, name=f"{first.name}+{second.name}", spmd=True
            )
        ranks.update(block.fns.keys())
    return LocalBlock(
        {r: fuse(r) for r in sorted(ranks)},
        name=f"{first.name}+{second.name}",
    )


@dataclass
class SimulatedParallelProgram:
    """An alternating sequence of local blocks and data exchanges."""

    nprocs: int
    stages: list[Stage] = field(default_factory=list)
    name: str = "program"

    # -- builder API -------------------------------------------------------------

    def local(
        self,
        fns: Union[list[LocalFn], dict[int, LocalFn]],
        name: str = "",
    ) -> "SimulatedParallelProgram":
        """Append a local-computation block (chainable)."""
        self.stages.append(LocalBlock(fns, name or f"local{len(self.stages)}"))
        return self

    def spmd(
        self, fn: Callable[[AddressSpace, int], None], name: str = ""
    ) -> "SimulatedParallelProgram":
        """Append an SPMD local block: ``fn(store, rank)`` for all ranks."""
        self.stages.append(
            LocalBlock(fn, name or f"local{len(self.stages)}", spmd=True)
        )
        return self

    def exchange(self, op: DataExchange) -> "SimulatedParallelProgram":
        """Append a data-exchange operation (chainable)."""
        self.stages.append(op)
        return self

    # -- structure ---------------------------------------------------------------

    def local_blocks(self) -> list[LocalBlock]:
        return [s for s in self.stages if isinstance(s, LocalBlock)]

    def exchanges(self) -> list[DataExchange]:
        """Every data-exchange operation, in stage order."""
        return [s for s in self.stages if isinstance(s, DataExchange)]

    def is_strictly_alternating(self) -> bool:
        """True iff stages strictly alternate local / exchange.

        The definition in the paper presents the computation as an
        alternating sequence; consecutive blocks of the same kind are
        harmless (they can always be merged), so this is a property
        check, not a validity requirement.
        """
        for a, b in zip(self.stages, self.stages[1:]):
            if isinstance(a, LocalBlock) == isinstance(b, LocalBlock):
                return False
        return True

    def normalized(self) -> "SimulatedParallelProgram":
        """An equivalent program with adjacent local blocks merged.

        The §2.2 definition presents the computation as a *strictly
        alternating* sequence; builders often emit consecutive local
        blocks (e.g. absorb-then-compute), which are semantically one
        block.  Exchanges are never merged (each has its own restriction
        scope), so the normalized program is strictly alternating
        exactly when the original had no two adjacent exchange stages.
        """
        merged: list[Stage] = []
        for stage in self.stages:
            if (
                isinstance(stage, LocalBlock)
                and merged
                and isinstance(merged[-1], LocalBlock)
            ):
                merged[-1] = _fuse_local_blocks(merged[-1], stage)
            else:
                merged.append(stage)
        return SimulatedParallelProgram(
            self.nprocs, merged, name=f"{self.name}:normalized"
        )

    def validate(self, stores: Sequence[AddressSpace] | None = None) -> None:
        """Validate every data-exchange stage against the restrictions."""
        for stage in self.exchanges():
            stage.validate(nprocs=self.nprocs, stores=stores)

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        stores: Sequence[AddressSpace] | None = None,
        initial: dict[str, Any] | None = None,
        validate: bool = False,
    ) -> list[AddressSpace]:
        """Execute sequentially; returns the (mutated) address spaces.

        Provide either ready-made ``stores`` (length ``nprocs``) or an
        ``initial`` mapping duplicated into fresh spaces.  With
        ``validate=True`` every exchange is re-checked against live
        shapes just before it runs.
        """
        if stores is None:
            stores = make_stores(self.nprocs, initial)
        if len(stores) != self.nprocs:
            raise RefinementError(
                f"program {self.name!r} needs {self.nprocs} stores, got "
                f"{len(stores)}"
            )
        for stage in self.stages:
            if validate and isinstance(stage, DataExchange):
                stage.validate(nprocs=self.nprocs, stores=stores)
            stage.apply(stores)
        return list(stores)

    def describe(self) -> str:
        lines = [f"simulated-parallel program {self.name!r} (N={self.nprocs}):"]
        for i, stage in enumerate(self.stages):
            if isinstance(stage, DataExchange):
                n = len(stage.assignments)
                lines.append(
                    f"  {i:3d} exchange {stage.name!r} ({n} assignments, "
                    f"{len(stage.message_pairs())} message pairs)"
                )
            else:
                lines.append(f"  {i:3d} local    {stage.name!r}")
        return "\n".join(lines)
