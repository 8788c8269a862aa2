"""Exhaustive enumeration of maximal interleavings.

Theorem 1 quantifies over *all* maximal interleavings.  For small
systems we can visit every one: the interleaving space is a tree whose
nodes are scheduler decisions (which enabled process acts next) and
whose leaves are completed executions.  The enumerator walks that tree
by depth-first search, re-executing the system along each path:

1. run once following a *prefix* of forced choices, recording at every
   post-prefix decision the full enabled set
   (:class:`~repro.runtime.schedulers.RecordingPolicy` around
   :class:`~repro.runtime.schedulers.PrefixPolicy`);
2. every recorded alternative not taken becomes a new prefix to
   explore.

Because each complete interleaving corresponds to a unique decision
sequence, every maximal interleaving is visited exactly once.  Each
leaf's final state is digested; Theorem 1 predicts exactly one digest.

Cost grows as the number of interleavings (times re-execution), so
this is for *small* systems — the empirical sampler in
:mod:`repro.theory.determinacy` covers larger ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.runtime.engine_cooperative import CooperativeEngine
from repro.runtime.schedulers import PrefixPolicy, RecordingPolicy
from repro.runtime.system import System
from repro.theory.determinacy import state_digest

__all__ = [
    "EnumerationResult",
    "enumerate_interleavings",
    "count_interleavings",
]


class EnumerationOverflow(ReproError):
    """More interleavings exist than the requested cap."""


@dataclass
class EnumerationResult:
    """All maximal interleavings of a system and their final states."""

    interleavings: int = 0
    digests: dict[str, int] = field(default_factory=dict)  # digest -> count
    schedules: list[tuple[int, ...]] = field(default_factory=list)
    #: longest / shortest schedule lengths (all equal for conforming
    #: systems — same actions, reordered)
    min_len: int = 0
    max_len: int = 0

    @property
    def determinate(self) -> bool:
        return len(self.digests) == 1

    def summary(self) -> str:
        return (
            f"{self.interleavings} maximal interleavings, "
            f"{len(self.digests)} distinct final state(s)"
        )


def enumerate_interleavings(
    system: System,
    max_interleavings: int = 10_000,
    keep_schedules: bool = True,
) -> EnumerationResult:
    """Visit every maximal interleaving of ``system``.

    Raises :class:`EnumerationOverflow` if more than
    ``max_interleavings`` complete interleavings exist.
    """
    result = EnumerationResult()
    stack: list[list[int]] = [[]]
    while stack:
        prefix = stack.pop()
        recorder = RecordingPolicy(PrefixPolicy(prefix))
        engine = CooperativeEngine(recorder, trace=True)
        run = engine.run(system)
        # Register this completed interleaving.
        result.interleavings += 1
        if result.interleavings > max_interleavings:
            raise EnumerationOverflow(
                f"more than {max_interleavings} interleavings"
            )
        digest = state_digest(run)
        result.digests[digest] = result.digests.get(digest, 0) + 1
        schedule = [choice for choice, _ in recorder.log]
        if keep_schedules:
            result.schedules.append(tuple(schedule))
        n = len(schedule)
        result.min_len = n if result.min_len == 0 else min(result.min_len, n)
        result.max_len = max(result.max_len, n)
        # Branch at every post-prefix decision: alternatives in the
        # enabled set that were not chosen.
        for i in range(len(prefix), len(recorder.log)):
            chosen, enabled = recorder.log[i]
            for alt in enabled:
                if alt != chosen:
                    stack.append(schedule[:i] + [alt])
    return result


def count_interleavings(system: System, max_interleavings: int = 10_000) -> int:
    """Number of maximal interleavings (without keeping schedules)."""
    return enumerate_interleavings(
        system, max_interleavings, keep_schedules=False
    ).interleavings


def count_trace_classes(system: System, max_interleavings: int = 10_000) -> int:
    """Number of Mazurkiewicz trace classes among all maximal
    interleavings — distinct Foata normal forms over the enumeration.

    For a conforming system this is **1**: all interleavings commute
    into each other (the content of Theorem 1's proof).  A value above
    1 means some pair of interleavings is *not* related by independent
    swaps — i.e. the system's actions themselves depend on the
    schedule, which only a hypothesis violation can cause.
    """
    from repro.runtime.schedulers import ReplayPolicy
    from repro.theory.foata import foata_normal_form

    result = enumerate_interleavings(system, max_interleavings)
    forms = set()
    for schedule in result.schedules:
        run = CooperativeEngine(ReplayPolicy(list(schedule)), trace=True).run(
            system
        )
        forms.add(foata_normal_form(run.trace))
    return len(forms)
