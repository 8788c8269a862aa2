"""The benchmark workloads.

Each workload sets itself up ``SETUP_REPS`` times (recording
``setup_s``), measures for the run's time budget, then closes every
engine and server it opened and audits for leaks.  Every operation is
checked bitwise against an oracle computed before set-up; a mismatch or
an error counts as a failed operation and the run goes on.

The library is driven through its public calls only:
``build_parallel_fdtd``, ``ParallelFDTD.to_parallel/host_fields/
host_potentials``, ``make_engine(...).run``, ``VersionA/VersionC.run``,
``JobServer.submit``, ``explore_dfs`` and ``state_fingerprint``, plus the
update kernels and the NTFF accumulator for the traced kernel timings.

Every workload runs its parallel operation on each of the three engines
a caller can choose: the threaded engine, the pooled multiprocess engine
and the socket engine over two loopback daemons.  A traced run observes
every engine (``observe=True`` plus benchmark spans) and keeps a plain,
span-muted twin of the threaded engine and of the job server, so the
twins' medians give the tracing overhead.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import threading
import time
from concurrent.futures import FIRST_COMPLETED, wait

import numpy as np

import inputs
from harness import child_kinds, leak_audit
from repro.apps.fdtd import (
    COMPONENTS,
    NTFFAccumulator,
    VersionA,
    VersionC,
    build_parallel_fdtd,
)
from repro.apps.fdtd.update import (
    KernelScratch,
    local_update_regions,
    update_e,
    update_h,
)
from repro.dist.bench import _exchange_frames
from repro.dist.serve import JobServer
from repro.explore import build_target, explore_dfs, state_fingerprint
from repro.runtime import CooperativeEngine, make_engine
from repro.theory.determinacy import state_digest

#: label -> ``make_engine`` name of the three engine paths.
ENGINES = {
    "threaded": "threaded",
    "pool": "multiprocess+pool",
    "socket": "socket",
}
SETUP_REPS = 3
#: Unmeasured seconds of cycles after the set-up, before the measured ones.
WARM_SECONDS = 3.0
#: Outside deadline on one operation; the slowest, a schedule search,
#: takes about 30 s.
OP_DEADLINE = 100.0
#: Timed calls per kernel in the traced kernel measurements.
KERNEL_CALLS = 5
#: Schedules per ``explore_dfs`` call, within the budgets the
#: repository's own searches of ``e1`` use (60 to 500).  From 50
#: schedules on, a search's shape per schedule (states fingerprinted,
#: prune ratio) matches a 500-schedule search (perfbench/README.md).
EXPLORE_BUDGET = 100
#: Direct runs of the explored target per engine after each search.
EXPLORE_DIRECT_RUNS = 32
#: Closed-loop client: outstanding jobs, and jobs per served burst.
SERVE_OUTSTANDING = 2
SERVE_BURST = 16
#: Direct runs of sweep jobs per engine between two served bursts:
#: enough samples, a minor share of the time.
SMALL_RUNS = 3
#: Bytes one curl-update cell moves, computed: it reads the component,
#: its two coefficients and the two curl operands, and writes the
#: component, all float64.
CELL_BYTES = 6 * 8


def bitwise_equal(a, b) -> bool:
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.array_equal(a.view(np.uint8), b.view(np.uint8))
    )


def fields_equal(fields, reference) -> bool:
    return all(bitwise_equal(fields[c], reference[c]) for c in COMPONENTS)


def seq_fields(result) -> dict:
    return dict(result.fields.components())


def parallel_fdtd(rec, par):
    """``(build, collect)`` of one parallel solve of ``par``: its
    ``to_parallel()``, and the host fields plus, for Version C, the
    potentials, as ``(fields, potentials or None)``."""

    def build():
        with rec.span("to_parallel"):
            t0 = time.perf_counter()
            system = par.to_parallel()
            rec.add("refinement.to_parallel_s", time.perf_counter() - t0)
        return system

    def collect(result):
        with rec.span("host_fields"):
            fields = par.host_fields(result.stores)
        if par.version != "C":
            return fields, None
        with rec.span("host_potentials"):
            return fields, par.host_potentials(result.stores)

    return build, collect


class Run:
    """One workload run: recorder, watchdog, seed, time budget, and
    the engine paths (with their observed twins when traced)."""

    def __init__(self, rec, dog, seed: int, seconds: float):
        self.rec = rec
        self.dog = dog
        self.seed = seed
        self.seconds = seconds
        self.start_methods: dict[str, list[str]] = {}
        if rec.traced:
            # Every engine observed; only the in-process engine also
            # runs plain, as the twin for the tracing overhead: a plain
            # twin of each process engine would double the worker
            # processes and their memory.
            self.paths = [("threaded", "threaded", False)] + [
                (f"{label}+obs", name, True) for label, name in ENGINES.items()
            ]
        else:
            self.paths = [(label, name, False) for label, name in ENGINES.items()]

    @staticmethod
    def observed(label: str) -> bool:
        return label.endswith("+obs")

    def op(self, label: str, fn, twin: bool = False):
        """Run one operation under the outside deadline; ``twin`` mutes
        its spans, for the plain twin of a traced path.

        Returns ``fn()``'s value, or None after counting the failure
        when it raised or overran the deadline.
        """
        try:
            with self.rec.muted(twin):
                with self.dog.guard(OP_DEADLINE, label) as deadline:
                    value = fn()
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            self.rec.error(label, exc)
            return None
        if deadline.fired:
            self.rec.outcome(False, f"{label}: hung past {OP_DEADLINE} s")
            return None
        return value

    def check(self, ok: bool, label: str) -> bool:
        return self.rec.outcome(ok, f"{label}: result differs from the oracle")

    def set_up(self, setup, teardown):
        """Set up ``SETUP_REPS`` times (once when traced, where set-up
        time is not reported), recording each as a ``setup_s`` sample;
        all but the last are torn down.  Returns the last state."""
        state = None
        for _rep in range(1 if self.rec.traced else SETUP_REPS):
            if state is not None:
                teardown(state)
                state = None  # drop the old programs before building anew
            t0 = time.perf_counter()
            with self.rec.span("setup"):
                state = setup()
            self.rec.add("setup_s", time.perf_counter() - t0)
        return state

    def measuring(self, warm: float = 0.0):
        """Yields unmeasured cycles for ``warm`` seconds (at least one
        when ``warm`` is set), then measured ones until the measurement
        budget is spent.  The first operations after a set-up run slow
        while the workers and the allocator settle: measured, they
        drifted the medians from run to run."""
        deadline = time.perf_counter() + warm
        while warm and time.perf_counter() < deadline:
            with self.rec.warming():
                yield
        deadline = time.perf_counter() + self.seconds
        while time.perf_counter() < deadline:
            yield

    def open_engines(self, warm) -> dict:
        """Construct every engine path and run ``warm(label, engine)``,
        its cold first operation, unmeasured.  Records the process kind
        each engine started its workers with."""
        engines = {}
        for label, name, observe in self.paths:
            before = set(multiprocessing.active_children())
            engines[label] = make_engine(name, observe=observe)
            with self.rec.warming():
                warm(label, engines[label])
            self.start_methods.setdefault(
                label, child_kinds(before) or ["threads"]
            )
        return engines

    def solve(self, label, engine, build, collect, check, host=None, keep=False):
        """One parallel solve: ``build()`` makes the system, the engine
        runs it and ``collect(result)`` takes its output, all timed.
        ``check(output)`` is the oracle, untimed; ``host`` is the host
        rank of a mesh program, for the exchange-frame count.  Returns
        ``(seconds, RunResult if keep)`` of a correct solve, else None."""
        rec = self.rec

        def op():
            with rec.span(f"solve.{label}"):
                t0 = time.perf_counter()
                system = build()
                with rec.span("engine.run") as run_span:
                    t1 = time.perf_counter()
                    result = engine.run(system)
                    t2 = time.perf_counter()
                output = collect(result)
                t3 = time.perf_counter()
            return (t3 - t0, t2 - t1), result, output, run_span

        twin = self.rec.traced and not self.observed(label)
        got = self.op(f"solve.{label}", op, twin)
        if got is None:
            return None
        (total, run_s), result, output, run_span = got
        if not self.check(check(output), f"solve.{label}"):
            return None
        self.record_solve(label, engine, result, total, run_s, run_span, host)
        return total, result if keep else None

    def record_solve(
        self, label, engine, result, total, run_s, run_span, host
    ) -> None:
        """Samples of one checked parallel solve: its time and, on an
        observed path, the engine's layer counts and phases."""
        rec = self.rec
        rec.add(f"solve_s.{label}", total)
        if not self.observed(label):
            return
        kind = label.split("+")[0]
        if kind == "threaded":
            rec.add("runtime.run_s.threaded", run_s)
            rec.add(
                "runtime.messages",
                sum(sends for sends, _ in result.channel_stats.values()),
            )
            rec.add("runtime.bytes", sum(result.channel_bytes.values()))
            procs = result.report.processes
            rec.add("runtime.compute_s", sum(p.compute for p in procs))
            rec.add("runtime.blocked_s", sum(p.blocked for p in procs))
            return
        prefix = "dist" if kind == "pool" else "net"
        timing = engine.last_timing
        stage_out = timing["total_s"] - timing["startup_s"] - timing["run_s"]
        t = run_span["start"]
        for phase, seconds in (
            ("startup", timing["startup_s"]),
            ("run", timing["run_s"]),
            ("stage_out", stage_out),
        ):
            rec.add(f"{prefix}.{phase}_s", seconds)
            rec.record(f"{prefix}.{phase}", t, t + seconds, run_span)
            t += seconds
        rec.add(f"{prefix}.frames", sum(result.channel_frames.values()))
        if kind == "pool":
            if host is not None:
                rec.add(
                    "dist.dx_frames", _exchange_frames(result.channel_frames, host)
                )
            rec.add("dist.pipe_bytes", sum(result.channel_pipe_bytes.values()))
            rec.add("dist.shm_bytes", sum(result.channel_shm_bytes.values()))
            rec.add(
                "dist.blocked_s",
                sum(p.blocked for p in result.report.processes),
            )
        else:
            rec.add("net.syscalls", sum(result.channel_net_syscalls.values()))
            rec.add(
                "net.syscalls_unvectored",
                sum(result.channel_net_syscalls_unvectored.values()),
            )
            rec.add("net.vectored", sum(result.channel_net_vectored.values()))

    def seq(self, solve, check) -> None:
        """One plain sequential run ``solve()``, checked by
        ``check(result)``."""
        rec = self.rec

        def op():
            with rec.span("seq"):
                t0 = time.perf_counter()
                result = solve()
                return time.perf_counter() - t0, result

        got = self.op("seq", op)
        if got is not None and self.check(check(got[1]), "seq"):
            rec.add("seq_solve_s", got[0])

    def finish(self, threads_before) -> None:
        """Audit for leaks once everything is closed: one more operation."""
        leaks = leak_audit(threads_before)
        self.rec.outcome(not leaks, "leak audit: " + "; ".join(leaks))


def close_all(closables: dict) -> None:
    """Close every engine or server that has a ``close``."""
    for obj in closables.values():
        close = getattr(obj, "close", None)
        if close is not None:
            close()


# -- FDTD time to solution ---------------------------------------------------


def fdtd(run: Run, problem) -> None:
    """Time to solution of one FDTD problem, sequential and per engine."""
    rec = run.rec
    version = problem[2]
    config = inputs.fdtd_config(run.seed, problem)
    solver_cls = VersionA if version == "A" else VersionC

    # Oracle, untimed.  Near fields must equal the sequential code's.
    # Version C potentials must equal the simulated-parallel program's:
    # its reordered far-field sum legitimately differs from the
    # sequential one.
    ref_fields = seq_fields(solver_cls(config).run())
    ref_pots = None
    if version == "C":
        sim = build_parallel_fdtd(config, inputs.PSHAPE, version=version)
        ref_pots = sim.host_potentials(sim.run_simulated())
        del sim

    def check(output) -> bool:
        fields, pots = output
        ok = fields_equal(fields, ref_fields)
        if pots is not None:
            ok = ok and all(map(bitwise_equal, pots, ref_pots))
        return ok

    def seq_check(result) -> bool:
        return fields_equal(seq_fields(result), ref_fields)

    def solve(par, label, engine, keep=False):
        build, collect = parallel_fdtd(rec, par)
        return run.solve(
            label, engine, build, collect, check, host=par.host, keep=keep
        )

    def setup():
        with rec.span("build"):
            t0 = time.perf_counter()
            par = build_parallel_fdtd(config, inputs.PSHAPE, version=version)
            rec.add("refinement.build_s", time.perf_counter() - t0)
        solver = solver_cls(config)
        engines = run.open_engines(lambda label, engine: solve(par, label, engine))
        with rec.warming():
            run.seq(solver.run, seq_check)
        return par, solver, engines

    threads_before = set(threading.enumerate())
    par, solver, engines = run.set_up(setup, lambda st: close_all(st[2]))
    try:
        if rec.traced:
            got = solve(par, "threaded", engines["threaded"], keep=True)
            if got is not None:
                kernel_layers(run, par, got[1].stores[0])
            del got
        for _ in run.measuring(WARM_SECONDS):
            run.seq(solver.run, seq_check)
            for label, engine in engines.items():
                got = solve(par, label, engine)
                if got is not None and not run.observed(label):
                    rec.add("ops.count", 1)
                    rec.add("ops.seconds", got[0])
    finally:
        close_all(engines)
    run.finish(threads_before)


def kernel_layers(run: Run, par, store) -> None:
    """Kernel times on rank 0's block: update_e, update_h, NTFF."""
    rec = run.rec
    grid = par.config.grid
    block = {
        k: np.array(v, copy=True)
        for k, v in dict(store).items()
        if isinstance(v, np.ndarray)
    }
    regions = local_update_regions(grid, par.decomp, 0)
    inv = tuple(1.0 / d for d in grid.spacing)
    scratch = KernelScratch()
    for name, kernel in (("update_e", update_e), ("update_h", update_h)):
        kernel(block, regions, inv, scratch)  # fills the scratch cache
        for _ in range(KERNEL_CALLS):
            with rec.span(f"kernel.{name}"):
                t0 = time.perf_counter()
                kernel(block, regions, inv, scratch)
                rec.add(f"fdtd.{name}_s", time.perf_counter() - t0)
    cells = sum(
        math.prod(s.stop - s.start for s in regions[c])
        for c in COMPONENTS
        if regions[c] is not None
    )
    rec.add("fdtd.kernel_bytes", cells * CELL_BYTES)
    if par.version == "C":
        acc = NTFFAccumulator(
            grid, par.ntff_config, steps=par.config.steps, restrict=(par.decomp, 0)
        )
        shape = (len(acc.directions), acc.nbins, 3)
        A, F = np.zeros(shape), np.zeros(shape)
        for step in range(KERNEL_CALLS):
            with rec.span("kernel.ntff"):
                t0 = time.perf_counter()
                acc.accumulate_into(block, step, A, F)
                rec.add("fdtd.ntff_s", time.perf_counter() - t0)


# -- serving a parameter sweep ------------------------------------------------


def serve_sweep(run: Run) -> None:
    """A closed-loop sweep on one JobServer, alternating with the same
    jobs run directly on each engine and sequentially."""
    rec = run.rec
    mix = inputs.job_mix(run.seed)
    ref_fields = [seq_fields(VersionA(c).run()) for c in mix.configs]
    nprocs = math.prod(inputs.PSHAPE) + 1
    jobs = itertools.count()
    tags = itertools.count()  # unique job labels, to find each in job_stats()

    def next_job() -> int:
        """The next job of the mix, cycling; served bursts and direct
        runs draw from the same sequence."""
        return mix.order[next(jobs) % len(mix.order)]

    def solve(label, engine, i, keep=False):
        build, collect = parallel_fdtd(rec, pars[i])

        def check(output) -> bool:
            return fields_equal(output[0], ref_fields[i])

        return run.solve(
            label, engine, build, collect, check, host=pars[i].host, keep=keep
        )

    def seq(i) -> None:
        run.seq(
            solvers[i].run,
            lambda result: fields_equal(seq_fields(result), ref_fields[i]),
        )

    def burst(label, server, pars, count: int) -> None:
        """One closed-loop burst of ``count`` jobs: at most
        ``SERVE_OUTSTANDING`` in flight, the next submitted as soon as
        one completes.  Latency runs from the client's ``to_parallel()``
        until the job's result is in hand."""
        observed = Run.observed(label)
        inflight: dict = {}
        done = 0

        def submit() -> None:
            i = next_job()
            tag = f"{label}-{next(tags)}"
            t0 = time.perf_counter()
            system = pars[i].to_parallel()
            t1 = time.perf_counter()
            future = server.submit(system, label=tag)
            t2 = time.perf_counter()
            stamp: list[float] = []
            future.add_done_callback(lambda _f: stamp.append(time.perf_counter()))
            inflight[future] = (i, tag, (t0, t1, t2), stamp)

        t_start = time.perf_counter()
        submitted = 0
        with rec.muted(rec.traced and not observed):
            try:
                while submitted < min(SERVE_OUTSTANDING, count):
                    submit()
                    submitted += 1
                while inflight:
                    with run.dog.guard(OP_DEADLINE, label) as deadline:
                        ready, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
                    for future in ready:
                        i, tag, times, stamp = inflight.pop(future)
                        done += served(label, server, pars[i], i, tag, future,
                                       times, stamp, deadline.fired)
                        if submitted < count:
                            submit()
                            submitted += 1
            except Exception as exc:  # noqa: BLE001 - a submit failed
                rec.error(f"burst {label}", exc)
        if not observed:
            rec.add("ops.count", done)
            rec.add("ops.seconds", time.perf_counter() - t_start)

    def served(label, server, par, i, tag, future, times, stamp, hung) -> int:
        """Check one completed job and take its samples; 1 if correct."""
        try:
            result = future.result()
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            rec.error(f"job {tag}", exc)
            return 0
        if hung:
            rec.outcome(False, f"job {tag}: hung past {OP_DEADLINE} s")
            return 0
        fields = par.host_fields(result.stores)
        if not run.check(fields_equal(fields, ref_fields[i]), f"job {tag}"):
            return 0
        t0, t1, t2 = times
        t_done = stamp[0] if stamp else time.perf_counter()
        if not Run.observed(label):
            rec.add("job_latency_s", t_done - t0)
            return 1
        rec.add("job_latency_s.traced", t_done - t0)
        rec.add("serve.submit_s", t2 - t1)
        rec.add("refinement.to_parallel_s", t1 - t0)
        top = rec.record("job", t0, t_done)
        rec.record("to_parallel", t0, t1, top)
        rec.record("serve.submit", t1, t2, top)
        for js in server.job_stats():
            if js.label == tag and js.t_dispatch is not None:
                rec.record("serve.queue_wait", js.t_submit, js.t_dispatch, top)
                rec.record("serve.service", js.t_dispatch, js.t_done, top)
                break
        return 1

    def open_servers(pars) -> dict:
        servers = {}
        for label in ("serve", "serve+obs") if rec.traced else ("serve",):
            before = set(multiprocessing.active_children())
            servers[label] = JobServer(
                pool_size=SERVE_OUTSTANDING * nprocs,
                max_inflight=SERVE_OUTSTANDING,
                observe=Run.observed(label),
            )
            with rec.warming():
                burst(label, servers[label], pars, SERVE_OUTSTANDING)
            run.start_methods.setdefault(label, child_kinds(before))
        return servers

    def setup():
        pars.clear()
        with rec.span("build"):
            for config in mix.configs:
                t0 = time.perf_counter()
                pars.append(build_parallel_fdtd(config, inputs.PSHAPE))
                rec.add("refinement.build_s", time.perf_counter() - t0)
        servers = open_servers(pars)
        engines = run.open_engines(
            lambda label, engine: solve(label, engine, next_job())
        )
        with rec.warming():
            seq(next_job())
        return servers, engines

    def teardown(state) -> None:
        for closables in state:
            close_all(closables)

    pars: list = []
    solvers = [VersionA(config) for config in mix.configs]
    threads_before = set(threading.enumerate())
    state = run.set_up(setup, teardown)
    servers, engines = state
    try:
        if rec.traced:
            got = solve("threaded", engines["threaded"], 0, keep=True)
            if got is not None:
                kernel_layers(run, pars[0], got[1].stores[0])
            del got
        for _ in run.measuring(WARM_SECONDS):
            for label, server in servers.items():
                burst(label, server, pars, SERVE_BURST)
            for _ in range(SMALL_RUNS):
                i = next_job()
                seq(i)
                for label, engine in engines.items():
                    solve(label, engine, i)
        server = servers["serve+obs" if rec.traced else "serve"]
        rec.add("serve.inflight_hwm", server.stats()["inflight_hwm"])
        for js in server.job_stats()[SERVE_OUTSTANDING:]:  # after warm-up
            if js.ok:
                rec.add("serve.queue_wait_s", js.queue_wait_s)
                rec.add("serve.service_s", js.service_s)
    finally:
        teardown(state)
    run.finish(threads_before)


# -- schedule-space search -----------------------------------------------------


def explore(run: Run) -> None:
    """DFS schedule searches over the registered ``e1`` target, each
    followed by the same target run directly on each engine and under the
    default schedule on the cooperative engine.

    The seed does not change this workload's input: the target is fixed
    by its registration.
    """
    rec = run.rec
    factory = build_target("e1")
    # Oracle: the digest of the default-schedule cooperative run.  Every
    # explored schedule and every engine must reach exactly this state.
    ref_digest = state_digest(CooperativeEngine().run(factory()))

    def build():
        with rec.span("target_build"):
            t0 = time.perf_counter()
            system = factory()
            rec.add("explore.target_build_s", time.perf_counter() - t0)
        return system

    def reached(result) -> bool:
        return state_digest(result) == ref_digest

    def cooperative():
        """The target built and run under the default schedule."""
        system = build()
        with rec.span("engine.run"):
            t0 = time.perf_counter()
            result = CooperativeEngine().run(system)
            rec.add("runtime.run_s.cooperative", time.perf_counter() - t0)
        return result

    def direct(label, engine) -> None:
        run.solve(label, engine, build, lambda result: result, reached)

    def search(budget: int) -> None:
        """One ``explore_dfs`` call of ``budget`` schedules."""

        def op():
            with rec.span("explore"):
                t0 = time.perf_counter()
                report = explore_dfs(factory, max_schedules=budget, target="e1")
                return time.perf_counter() - t0, report

        got = run.op("explore", op)
        if got is None:
            return
        seconds, report = got
        ok = (
            report.ok
            and set(report.digests) == {ref_digest}
            and report.baseline_digest == ref_digest
            and report.schedules == budget
        )
        if not run.check(ok, "explore"):
            return
        rec.add("ops.count", report.schedules)
        rec.add("ops.seconds", seconds)
        rec.add("explore.schedules", report.schedules)
        rec.add("explore.runs", report.runs)
        rec.add("explore.states_fingerprinted", report.states_fingerprinted)
        pruned = report.pruned_sleep + report.pruned_fingerprint
        # Every run after the baseline explores one branch.
        rec.add("explore.prune_ratio", pruned / (pruned + report.runs - 1))

    def setup():
        build()
        engines = run.open_engines(direct)
        with rec.warming():
            search(1)
            run.seq(cooperative, reached)
        return engines

    threads_before = set(threading.enumerate())
    engines = run.set_up(setup, close_all)
    try:
        if rec.traced:
            final = CooperativeEngine().run(factory())
            for _ in range(KERNEL_CALLS):
                with rec.span("state_fingerprint"):
                    t0 = time.perf_counter()
                    state_fingerprint(final.stores, {})
                    rec.add("explore.fingerprint_call_s", time.perf_counter() - t0)
        for _ in run.measuring():
            search(EXPLORE_BUDGET)
            for _ in range(EXPLORE_DIRECT_RUNS):
                run.seq(cooperative, reached)
                for label, engine in engines.items():
                    direct(label, engine)
    finally:
        close_all(engines)
    run.finish(threads_before)


WORKLOADS = {
    "fdtd-bulk": lambda run: fdtd(run, inputs.BULK),
    "fdtd-steps": lambda run: fdtd(run, inputs.STEPS),
    "serve-sweep": serve_sweep,
    "explore-dfs": explore,
}
