"""Seeded input generation for the benchmark workloads.

Everything the program under test receives is built here from the
workload seed, so the same seed always yields the same configurations
and job mix.  The seed places point sources and draws the serve job
mix; it never changes problem sizes, so runs with different seeds do
the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.apps.fdtd import FDTDConfig, GaussianPulse, PointSource, YeeGrid

#: Process-grid shape of every parallel run: 2 compute ranks plus the host.
PSHAPE = (2, 1, 1)

#: (cells per axis, steps, FDTD version) of the two FDTD workloads.
BULK = (97, 4, "A")
STEPS = (33, 64, "C")

#: Grid sizes of the serve-sweep job mix, in equal proportion.
SERVE_SIZES = (13, 15, 17)
SERVE_STEPS = 3
#: Distinct job configurations in one mix, and jobs drawn from them.
SERVE_CONFIGS = 12
SERVE_JOBS = 1536


def _point_source(rng: random.Random, n: int, steps: int) -> PointSource:
    """An ``ez`` Gaussian pulse at a seeded interior node.

    The node stays two cells clear of every face, inside the ``ez``
    update region, and the pulse peaks within the run so every step
    injects a non-trivial value.
    """
    index = tuple(rng.randint(2, n - 3) for _ in range(3))
    delay = rng.uniform(0.0, min(steps - 1, 3))
    spread = rng.uniform(1.5, 3.0)
    return PointSource("ez", index, GaussianPulse(delay=delay, spread=spread))


def fdtd_config(seed: int, problem: tuple[int, int, str]) -> FDTDConfig:
    """The FDTD problem of one workload with a seeded point source."""
    n, steps, _version = problem
    rng = random.Random(f"fdtd:{n}:{steps}:{seed}")
    return FDTDConfig(
        grid=YeeGrid(shape=(n, n, n)),
        steps=steps,
        sources=[_point_source(rng, n, steps)],
    )


@dataclass(frozen=True)
class JobMix:
    """The serve-sweep inputs: distinct configs and the job order."""

    configs: tuple[FDTDConfig, ...]
    #: indices into ``configs``, in submission order
    order: tuple[int, ...]

    def sizes(self) -> list[int]:
        """Grid size of every job, in submission order."""
        return [self.configs[i].grid.shape[0] for i in self.order]


def job_mix(seed: int) -> JobMix:
    """Seeded serve-sweep job mix with a fixed size distribution.

    Configs cycle through :data:`SERVE_SIZES` so each size owns the same
    number of configs; the order is drawn in blocks that hold every
    config once, so any seed submits each size equally often.
    """
    rng = random.Random(f"serve:{seed}")
    configs = tuple(
        FDTDConfig(
            grid=YeeGrid(shape=(n, n, n)),
            steps=SERVE_STEPS,
            sources=[_point_source(rng, n, SERVE_STEPS)],
        )
        for n in (
            SERVE_SIZES[i % len(SERVE_SIZES)] for i in range(SERVE_CONFIGS)
        )
    )
    order: list[int] = []
    while len(order) < SERVE_JOBS:
        block = list(range(SERVE_CONFIGS))
        rng.shuffle(block)
        order.extend(block)
    return JobMix(configs=configs, order=tuple(order[:SERVE_JOBS]))
