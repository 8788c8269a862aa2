"""Benchmark of the repository's parallel FDTD system, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fdtd-bulk --seed 1 --seconds 12 --trace 0

Workloads: ``fdtd-bulk``, ``fdtd-steps``, ``serve-sweep``,
``explore-dfs`` (see perfbench/README.md).  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` a separate, traced
run reports the per-layer metrics.  Human-readable lines (every metric
with its unit and sample count) come first; the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (environment, raw samples, spans) is
written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

#: Hard bound on one run, kept under the 180 s a run may take.
RUN_DEADLINE = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("fdtd-bulk", "fdtd-steps", "serve-sweep", "explore-dfs"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        # Measure this checkout's program, never an installed copy.
        sys.exit(f"program sources not found under {SRC}")
    import analysis
    import harness
    import workloads

    rec = harness.Recorder(traced=bool(args.trace))
    done = threading.Event()
    started = time.time()
    cpu_start = harness.cpu_times()
    run = None

    def finish(fatal: str | None = None) -> None:
        if done.is_set():
            return
        done.set()
        if fatal is not None:
            rec.outcome(False, fatal)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "traced": rec.traced,
            "started": started,
            "environment": harness.environment(
                args.seed, run.start_methods if run else {}, cpu_start
            ),
            "attempted": rec.attempted,
            "failed": rec.failed,
            "failures": rec.failures,
            "samples": dict(rec.samples),
            "spans": rec.spans,
        }
        record["samples"]["peak_rss_mb"] = [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ]
        metrics = (
            analysis.per_layer(record) if rec.traced else analysis.end_to_end(record)
        )
        extra = {} if rec.traced else analysis.report(record)
        record["metrics"] = {**metrics, **extra}
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        harness.write_json(HERE / "results" / name, record)

        env = record["environment"]
        steal = env["cpu_steal_frac"]
        print(
            f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
            f"trace={args.trace} nproc={env['nproc']} python={env['python']} "
            f"numpy={env['numpy']} "
            f"cpu_steal={'n/a' if steal is None else f'{steal:.3f}'} "
            f"start_methods={env['start_methods']}"
        )
        for failure in rec.failures:
            print(f"FAILED {failure}")
        for metric, m in record["metrics"].items():
            print(f"{metric:32s} {m['value']:.6g} {m['unit']} (n={m['samples']})")
        print(
            json.dumps(
                {
                    "correct": rec.failed == 0,
                    "attempted": rec.attempted,
                    "failed": rec.failed,
                    "metrics": {
                        metric: {"value": m["value"], "unit": m["unit"]}
                        for metric, m in metrics.items()
                    },
                }
            ),
            flush=True,
        )

    dog = harness.Watchdog(finish, RUN_DEADLINE)
    run = workloads.Run(rec, dog, args.seed, args.seconds)
    try:
        workloads.WORKLOADS[args.workload](run)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        rec.error(f"{args.workload} aborted", exc)
    dog.stop()
    # Leave no process behind: children the workload failed to close
    # (already counted by its leak audit), then the resource tracker.
    harness.kill_children()
    harness.stop_resource_tracker()
    finish()
    return 0


if __name__ == "__main__":
    sys.exit(main())
