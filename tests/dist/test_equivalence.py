"""Engine-equivalence matrix: Theorem 1 across execution backends.

The paper's Theorem 1 says a conforming system (deterministic bodies,
SRSW channels, infinite slack) reaches the same final state under every
fair interleaving.  The three engines are three very different
interleaving generators — cooperative scheduling policies, free-running
threads, and genuinely concurrent OS processes — so ``(stores,
returns)`` must agree bitwise across all of them.
"""

import numpy as np
import pytest

from repro.runtime import (
    CooperativeEngine,
    ProcessSpec,
    RandomPolicy,
    RoundRobinPolicy,
    RunToBlockPolicy,
    SendsFirstPolicy,
    System,
    ThreadedEngine,
    make_engine,
)
from repro.util import bitwise_equal_arrays


def stencil_ring():
    """Miniature FDTD exchange/compute cycle on a ring (mirrors the CLI demo)."""

    def body(ctx):
        import numpy as _np

        u = _np.arange(4.0) + ctx.rank
        for _ in range(3):
            ctx.send(f"r{ctx.rank}", u[-1])
            ghost = ctx.recv(f"r{(ctx.rank - 1) % ctx.nprocs}")
            u[0] = 0.5 * (u[0] + ghost)
        ctx.store["u"] = u
        return float(u.sum())

    system = System([ProcessSpec(r, body) for r in range(4)])
    for r in range(4):
        system.add_channel(f"r{r}", r, (r + 1) % 4)
    return system


def two_proc_exchange():
    def body(ctx):
        other = 1 - ctx.rank
        ctx.send(f"c{ctx.rank}", ctx.rank * 10)
        ctx.store["got"] = ctx.recv(f"c{other}")

    system = System([ProcessSpec(0, body), ProcessSpec(1, body)])
    system.add_channel("c0", 0, 1)
    system.add_channel("c1", 1, 0)
    return system


ENGINES = [
    ("cooperative/round-robin", lambda: CooperativeEngine(RoundRobinPolicy())),
    ("cooperative/run-to-block", lambda: CooperativeEngine(RunToBlockPolicy())),
    ("cooperative/sends-first", lambda: CooperativeEngine(SendsFirstPolicy())),
    ("cooperative/random-7", lambda: CooperativeEngine(RandomPolicy(7))),
    ("cooperative/random-23", lambda: CooperativeEngine(RandomPolicy(23))),
    ("threaded", ThreadedEngine),
    ("multiprocess/fork", lambda: make_engine("multiprocess", start_method="fork")),
    ("multiprocess/spawn", lambda: make_engine("multiprocess", start_method="spawn")),
    ("socket/loopback", lambda: make_engine("socket", daemons=2)),
]


def value_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and bitwise_equal_arrays(a, b)
        )
    return a == b


def stores_equal(a, b):
    if len(a) != len(b):
        return False
    for sa, sb in zip(a, b):
        if set(sa) != set(sb):
            return False
        if not all(value_equal(sa[k], sb[k]) for k in sa):
            return False
    return True


@pytest.mark.parametrize("factory", [stencil_ring, two_proc_exchange])
def test_final_state_identical_across_engines(factory):
    reference = ThreadedEngine().run(factory())
    for label, make in ENGINES:
        engine = make()
        try:
            result = engine.run(factory())
        finally:
            getattr(engine, "close", lambda: None)()
        assert stores_equal(result.stores, reference.stores), label
        assert result.returns == reference.returns, label
        assert result.channel_stats == reference.channel_stats, label


def test_channel_accounting_identical_across_engines():
    reference = ThreadedEngine().run(stencil_ring())
    for label, make in ENGINES:
        engine = make()
        try:
            result = engine.run(stencil_ring())
        finally:
            getattr(engine, "close", lambda: None)()
        assert result.channel_stats == reference.channel_stats, label
        # Byte counts use the same payload sizing on every backend.
        assert result.channel_bytes == reference.channel_bytes, label


@pytest.mark.slow
def test_version_a_fdtd_identical_across_engines():
    from repro.apps.fdtd import (
        COMPONENTS,
        FDTDConfig,
        GaussianPulse,
        PointSource,
        YeeGrid,
        build_parallel_fdtd,
    )

    shape = (9, 7, 7)
    config = FDTDConfig(
        grid=YeeGrid(shape=shape),
        steps=3,
        sources=[
            PointSource(
                "ez",
                tuple(s // 2 for s in shape),
                GaussianPulse(delay=10, spread=3),
            )
        ],
    )
    par = build_parallel_fdtd(config, (2, 1, 1), version="A")

    def host_fields(result):
        host = result.stores[par.host]
        return {c: np.asarray(host[c]) for c in COMPONENTS}

    reference = host_fields(ThreadedEngine().run(par.to_parallel()))
    for label, make in ENGINES:
        engine = make()
        try:
            fields = host_fields(engine.run(par.to_parallel()))
        finally:
            getattr(engine, "close", lambda: None)()
        for c in COMPONENTS:
            assert bitwise_equal_arrays(fields[c], reference[c]), (label, c)


def batch_config(boundary="pec", shape=(9, 7, 7), steps=3):
    from repro.apps.fdtd import FDTDConfig, GaussianPulse, PointSource, YeeGrid

    return FDTDConfig(
        grid=YeeGrid(shape=shape),
        steps=steps,
        boundary=boundary,
        sources=[
            PointSource(
                "ez",
                tuple(s // 2 for s in shape),
                GaussianPulse(delay=10, spread=3),
            )
        ],
    )


def host_fields(par, stores):
    from repro.apps.fdtd import COMPONENTS

    host = stores[par.host]
    return {c: np.asarray(host[c]) for c in COMPONENTS}


def fields_identical(a, b):
    return all(bitwise_equal_arrays(a[c], b[c]) for c in a)


@pytest.mark.parametrize("boundary", ["pec", "mur1"])
@pytest.mark.parametrize("pshape", [(1, 1, 1), (2, 1, 1), (2, 2, 1)])
def test_batched_simulated_equals_sequential(boundary, pshape):
    """Coalescing each phase's exchanges into one stage leaves the
    simulated-parallel program's near fields bitwise equal to the
    sequential code's, with and without Mur faces."""
    from repro.apps.fdtd import VersionA, build_parallel_fdtd

    config = batch_config(boundary=boundary, steps=6)
    seq = VersionA(config).run().fields
    par = build_parallel_fdtd(
        config, pshape, version="A", batch_exchanges=True
    )
    assert fields_identical(host_fields(par, par.run_simulated()), seq)


def test_batched_farfield_equals_baseline():
    """Version C: batching changes no far-field partial, so the reduced
    potentials match the unbatched program bitwise."""
    from repro.apps.fdtd import (
        FDTDConfig,
        NTFFConfig,
        PointSource,
        RickerWavelet,
        YeeGrid,
        build_parallel_fdtd,
    )

    config = FDTDConfig(
        grid=YeeGrid(shape=(12, 10, 8)),
        steps=6,
        boundary="mur1",
        sources=[
            PointSource("ez", (6, 5, 4), RickerWavelet(delay=10, spread=4))
        ],
    )
    ntff = NTFFConfig(gap=3)
    base = build_parallel_fdtd(config, (2, 2, 1), version="C", ntff=ntff)
    batched = build_parallel_fdtd(
        config, (2, 2, 1), version="C", ntff=ntff, batch_exchanges=True
    )
    base_stores = base.run_simulated()
    batched_stores = batched.run_simulated()
    assert fields_identical(
        host_fields(batched, batched_stores), host_fields(base, base_stores)
    )
    for key in ("ffA_total", "ffF_total"):
        assert bitwise_equal_arrays(
            np.asarray(batched_stores[batched.host][key]),
            np.asarray(base_stores[base.host][key]),
        )


BATCHED_ENGINES = [
    pytest.param(ThreadedEngine, id="threaded"),
    pytest.param(
        lambda: make_engine("multiprocess", start_method="fork"),
        id="mp-slab",
    ),
    pytest.param(
        lambda: make_engine(
            "multiprocess", start_method="fork", payload_slab=0
        ),
        id="mp-no-slab",
    ),
    pytest.param(
        lambda: make_engine("multiprocess+pool", start_method="fork"),
        id="mp-pool",
    ),
    *[
        pytest.param(
            lambda seed=seed: CooperativeEngine(RandomPolicy(seed=seed)),
            id=f"cooperative-random{seed}",
        )
        for seed in range(3)
    ],
    pytest.param(
        lambda: make_engine("socket", daemons=2),
        id="socket",
        marks=pytest.mark.slow,
    ),
]


@pytest.mark.parametrize("factory", BATCHED_ENGINES)
def test_batched_exchanges_identical_across_fast_paths(factory, request):
    """The batched ghost exchange on every engine and fast-path
    configuration (zero-copy slab on/off, persistent pool, adversarial
    cooperative schedules, sockets) reproduces the sequential near
    fields bitwise — batching and transport are pure plumbing."""
    from repro.apps.fdtd import VersionA, build_parallel_fdtd

    config = batch_config(boundary="mur1")
    seq = VersionA(config).run().fields
    batched = build_parallel_fdtd(
        config, (2, 2, 1), version="A", batch_exchanges=True
    )
    engine = factory()
    try:
        result = engine.run(batched.to_parallel())
    finally:
        getattr(engine, "close", lambda: None)()
    assert fields_identical(host_fields(batched, result.stores), seq)
    label = request.node.callspec.id
    if label.startswith("mp"):
        # Batched exchange channels carry fewer, fatter frames.
        dx_frames = sum(
            n
            for name, n in result.channel_frames.items()
            if name.startswith("dx_")
        )
        assert 0 < dx_frames
        shm_bytes = sum(result.channel_shm_bytes.values())
        assert (shm_bytes == 0) if label == "mp-no-slab" else (shm_bytes > 0)
