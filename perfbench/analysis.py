"""Turn a benchmark record (raw samples and spans) into metrics.

Measurement (``run.py``) only records; this module only computes, so a
saved record can be analysed again without re-running anything::

    python3 perfbench/analysis.py perfbench/results/<record>.json ...

Every metric comes out as ``{"value", "unit", "samples"}``.  Timings are
medians.  A per-layer metric whose layer did no work in the workload is
0 with 0 samples.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

#: (name, unit) of the end-to-end metrics, reported with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("seq_solve_s", "s"),
    ("solve_s.threaded", "s"),
    ("solve_s.pool", "s"),
    ("solve_s.socket", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

#: (name, unit) of the per-layer metrics, reported by the traced run.
PER_LAYER = (
    ("fdtd.update_e_s", "s"),
    ("fdtd.update_h_s", "s"),
    ("fdtd.ntff_s", "s"),
    ("fdtd.kernel_bytes", "B"),
    ("fdtd.kernel_gbps", "GB/s"),
    ("refinement.build_s", "s"),
    ("refinement.to_parallel_s", "s"),
    ("runtime.run_s.threaded", "s"),
    ("runtime.messages", "count"),
    ("runtime.bytes", "B"),
    ("runtime.compute_s", "s"),
    ("runtime.blocked_s", "s"),
    ("dist.startup_s", "s"),
    ("dist.run_s", "s"),
    ("dist.stage_out_s", "s"),
    ("dist.frames", "count"),
    ("dist.dx_frames", "count"),
    ("dist.pipe_bytes", "B"),
    ("dist.shm_bytes", "B"),
    ("dist.blocked_s", "s"),
    ("net.startup_s", "s"),
    ("net.run_s", "s"),
    ("net.stage_out_s", "s"),
    ("net.frames", "count"),
    ("net.syscalls", "count"),
    ("net.syscalls_unvectored", "count"),
    ("net.vectored", "count"),
    ("serve.submit_s", "s"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.service_p50_s", "s"),
    ("serve.inflight_hwm", "count"),
    ("explore.schedules", "count"),
    ("explore.runs", "count"),
    ("explore.states_fingerprinted", "count"),
    ("explore.prune_ratio", "ratio"),
    ("explore.fingerprint_call_s", "s"),
    ("explore.target_build_s", "s"),
    ("runtime.run_s.cooperative", "s"),
    ("solve.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

#: Per-layer metrics that are the median of a differently named sample.
_SAMPLE_OF = {
    "serve.queue_wait_p50_s": "serve.queue_wait_s",
    "serve.service_p50_s": "serve.service_s",
}

#: (plain, traced) sample pairs of the same operation, for the overhead.
_TWINS = (
    ("solve_s.threaded", "solve_s.threaded+obs"),
    ("solve_s.pool", "solve_s.pool+obs"),
    ("solve_s.socket", "solve_s.socket+obs"),
    ("job_latency_s", "job_latency_s.traced"),
)


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _median(samples: dict, name: str, unit: str) -> dict:
    values = samples.get(name, [])
    return _metric(statistics.median(values) if values else 0, unit, len(values))


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(record: dict) -> dict:
    samples = record["samples"]
    out = {}
    for name, unit in END_TO_END:
        if name == "ops_per_s":
            count, seconds = samples.get("ops.count", []), samples.get("ops.seconds", [])
            out[name] = _metric(
                sum(count) / sum(seconds) if sum(seconds) else 0, unit, int(sum(count))
            )
        else:
            out[name] = _median(samples, name, unit)
    return out


def per_layer(record: dict) -> dict:
    samples = record["samples"]
    out = {}
    for name, unit in PER_LAYER:
        if name == "fdtd.kernel_gbps":
            e = _median(samples, "fdtd.update_e_s", "s")
            h = _median(samples, "fdtd.update_h_s", "s")
            nbytes = _median(samples, "fdtd.kernel_bytes", "B")["value"]
            seconds = e["value"] + h["value"]
            out[name] = _metric(
                nbytes / seconds / 1e9 if seconds else 0,
                unit,
                min(e["samples"], h["samples"]),
            )
        elif name == "serve.inflight_hwm":
            values = samples.get(name, [])
            out[name] = _metric(max(values, default=0), unit, len(values))
        elif name == "solve.unattributed_s":
            residues = unattributed(record.get("spans", []))
            out[name] = _metric(
                statistics.median(residues) if residues else 0, unit, len(residues)
            )
        elif name == "trace.overhead_frac":
            out[name] = overhead(samples, unit)
        else:
            out[name] = _median(samples, _SAMPLE_OF.get(name, name), unit)
    return out


def unattributed(spans: list[dict]) -> list[float]:
    """Per solve or served job: the part of its span no leaf span (a
    layer boundary the benchmark timed) covers."""
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    residues = []
    for top in children.get(None, []):
        if not (top["name"].startswith("solve.") or top["name"] == "job"):
            continue
        if top["end"] is None:  # cut short by the run's deadline
            continue
        leaves, stack = [], list(children.get(top["id"], []))
        while stack:
            span = stack.pop()
            below = children.get(span["id"])
            if below:
                stack.extend(below)
            elif span["end"] is not None:
                leaves.append((span["start"], span["end"]))
        residues.append(top["end"] - top["start"] - _covered(leaves, top))
    return residues


def _covered(intervals, top) -> float:
    """Length of the union of ``intervals`` clipped to ``top``."""
    total, reach = 0.0, top["start"]
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, top["end"])
        if end > start:
            total += end - start
            reach = end
    return total


def overhead(samples: dict, unit: str) -> dict:
    """Traced over untraced time of the same operations, minus one:
    sums of the twins' medians over every operation kind run both ways."""
    plain = traced = 0.0
    count = 0
    for untraced_name, traced_name in _TWINS:
        a, b = samples.get(untraced_name), samples.get(traced_name)
        if a and b:
            plain += statistics.median(a)
            traced += statistics.median(b)
            count += min(len(a), len(b))
    return _metric(traced / plain - 1 if plain else 0, unit, count)


def report(record: dict) -> dict:
    """What a reader of one workload's results looks for beside the
    metrics: failure ratio, per-workload names of ``ops_per_s``,
    served-job latency percentiles, and speed-ups over the sequential
    code."""
    samples = record["samples"]
    e2e = end_to_end(record)
    out = {
        "fail_ratio": _metric(
            record["failed"] / record["attempted"] if record["attempted"] else 0,
            "ratio",
            record["attempted"],
        )
    }
    workload = record["workload"]
    if workload == "serve-sweep":
        out["jobs_per_s"] = dict(e2e["ops_per_s"])
        latencies = samples.get("job_latency_s", [])
        for q in (50, 90):
            out[f"job_latency_p{q}_s"] = _metric(
                nearest_rank(latencies, q / 100) if latencies else 0,
                "s",
                len(latencies),
            )
    if workload == "explore-dfs":
        out["schedules_per_s"] = dict(e2e["ops_per_s"])
    seq = e2e["seq_solve_s"]["value"]
    for engine in ("threaded", "pool", "socket"):
        solve = e2e[f"solve_s.{engine}"]["value"]
        out[f"speedup.{engine}"] = _metric(
            seq / solve if solve else 0,
            "x",
            e2e[f"solve_s.{engine}"]["samples"],
        )
    return out


def main(paths: list[str]) -> int:
    for path in paths:
        record = json.loads(Path(path).read_text())
        metrics = per_layer(record) if record["traced"] else end_to_end(record)
        metrics.update(report(record) if not record["traced"] else {})
        print(f"# {path}")
        for name, m in metrics.items():
            print(f"{name:32s} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
