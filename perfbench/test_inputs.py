"""The benchmark's own check of its seeded inputs.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_inputs.py
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402


def test_same_seed_same_inputs():
    for problem in (inputs.BULK, inputs.STEPS):
        assert inputs.fdtd_config(7, problem) == inputs.fdtd_config(7, problem)
    assert inputs.job_mix(7) == inputs.job_mix(7)


def test_other_seed_other_mix_same_sizes():
    a, b = inputs.job_mix(7), inputs.job_mix(8)
    assert a.order != b.order
    assert [c.sources for c in a.configs] != [c.sources for c in b.configs]
    assert [c.grid for c in a.configs] == [c.grid for c in b.configs]
    assert Counter(a.sizes()) == Counter(b.sizes())
    per_size = len(a.order) // len(inputs.SERVE_SIZES)
    assert Counter(a.sizes()) == {n: per_size for n in inputs.SERVE_SIZES}


def test_other_seed_moves_the_fdtd_source_only():
    for problem in (inputs.BULK, inputs.STEPS):
        a, b = inputs.fdtd_config(7, problem), inputs.fdtd_config(8, problem)
        assert a.sources != b.sources
        assert (a.grid, a.steps) == (b.grid, b.steps)


def test_every_seed_gives_valid_configs():
    # FDTDConfig validates its sources on construction.
    for seed in range(64):
        inputs.fdtd_config(seed, inputs.BULK)
        inputs.fdtd_config(seed, inputs.STEPS)
        inputs.job_mix(seed)
