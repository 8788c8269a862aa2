"""``python -m repro explore`` — drive the schedule-space explorer.

Modes:

* **explore** (default) — run DFS or random-walk exploration of one or
  more named targets on the cooperative engine, print the report,
  export ``explore.*`` metrics, and dump a replayable JSON artifact for
  every violation found;
* **sweep** (``--engine multiprocess|socket`` + ``--faults``) — run a
  fault plan against a real process engine (kills become genuine
  ``SIGKILL``s), asserting every run ends bitwise-identical or with a
  clean :class:`~repro.errors.ProcessFailedError`;
* **replay** (``--replay FILE``) — re-execute a violation artifact's
  minimal failing prefix deterministically.

Exit status: 0 when every explored target upheld the contract (or,
under ``--expect-violation``, when the expected violation WAS found and
its artifact replays), 1 on contract failure, 2 on usage errors.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ReproError

__all__ = ["run_explore"]

_USAGE = """\
usage: python -m repro explore [options]

  --target NAME[,NAME...]   targets to explore (see --list; default ring3)
  --strategy dfs|walk       search strategy (default dfs)
  --schedules N             distinct schedules per target (default 200)
  --max-steps N             per-run action bound (hang conviction)
  --max-depth N             DFS: deepest decision index to branch at
  --seed N                  walk: base RNG seed (default 0)
  --faults SPEC             kill:RANK@STEP,delay:CHANNEL#INDEX[~HOLD],...
  --no-fingerprints         DFS: disable state-fingerprint pruning
  --no-sleep-sets           DFS: disable sleep-set (POR) pruning
  --engine NAME             multiprocess|socket: real-fault sweep mode
  --runs N                  sweep: repetitions per engine (default 3)
  --replay FILE             re-execute a violation artifact and exit
  --expect-violation        exit 0 iff a violation was found (racy CI)
  --artifact-dir DIR        where violation artifacts go
                            (default artifacts/explore)
  --json FILE               write the full report(s) as JSON
  --list                    list known targets and exit
"""


def _parse_args(args: list[str]) -> dict | str | None:
    """Parsed options, ``"help"`` after printing usage, or ``None`` on
    a usage error."""
    opts = {
        "targets": ["ring3"],
        "strategy": "dfs",
        "schedules": 200,
        "max_steps": None,
        "max_depth": None,
        "seed": 0,
        "faults": "",
        "fingerprints": True,
        "sleep_sets": True,
        "engine": None,
        "runs": 3,
        "replay": None,
        "expect_violation": False,
        "artifact_dir": "artifacts/explore",
        "json": None,
        "list": False,
    }
    it = iter(args)
    for flag in it:
        try:
            if flag == "--target":
                opts["targets"] = [
                    t for t in next(it).split(",") if t
                ]
            elif flag == "--strategy":
                opts["strategy"] = next(it)
            elif flag == "--schedules":
                opts["schedules"] = int(next(it))
            elif flag == "--max-steps":
                opts["max_steps"] = int(next(it))
            elif flag == "--max-depth":
                opts["max_depth"] = int(next(it))
            elif flag == "--seed":
                opts["seed"] = int(next(it))
            elif flag == "--faults":
                opts["faults"] = next(it)
            elif flag == "--no-fingerprints":
                opts["fingerprints"] = False
            elif flag == "--no-sleep-sets":
                opts["sleep_sets"] = False
            elif flag == "--engine":
                opts["engine"] = next(it)
            elif flag == "--runs":
                opts["runs"] = int(next(it))
            elif flag == "--replay":
                opts["replay"] = next(it)
            elif flag == "--expect-violation":
                opts["expect_violation"] = True
            elif flag == "--artifact-dir":
                opts["artifact_dir"] = next(it)
            elif flag == "--json":
                opts["json"] = next(it)
            elif flag == "--list":
                opts["list"] = True
            elif flag in ("-h", "--help"):
                print(_USAGE)
                return "help"
            else:
                print(f"unknown explore option {flag!r}")
                print(_USAGE)
                return None
        except (StopIteration, ValueError):
            print(f"bad or incomplete explore option {flag!r}")
            return None
    if opts["strategy"] not in ("dfs", "walk"):
        print(f"unknown strategy {opts['strategy']!r} (dfs or walk)")
        return None
    return opts


def _replay(path: str, max_steps: int | None) -> int:
    from repro.explore.report import load_artifact, replay_artifact

    violation = load_artifact(path)
    print(f"replaying {violation.describe()}")
    reproduced, outcome = replay_artifact(violation, max_steps=max_steps)
    print(f"  outcome: {outcome.describe()}")
    print(f"  reproduced: {'yes' if reproduced else 'NO'}")
    return 0 if reproduced else 1


def _sweep(opts: dict, plan) -> int:
    from repro.explore.fixtures import build_target
    from repro.explore.strategies import fault_sweep_engine
    from repro.runtime.engine_cooperative import CooperativeEngine
    from repro.theory.determinacy import state_digest

    if not plan:
        print("--engine sweep mode needs --faults")
        return 2
    bad = 0
    for target in opts["targets"]:
        factory = build_target(target)
        baseline = state_digest(CooperativeEngine().run(factory()))
        # Engine name, not instance: a fresh engine per run survives
        # SIGKILLed workers taking their daemon down with them.
        outcomes = fault_sweep_engine(
            factory,
            plan,
            opts["engine"],
            runs=opts["runs"],
            baseline_digest=baseline,
            target=target,
        )
        print(
            f"sweep[{opts['engine']}] {target}: {plan.describe()} "
            f"x{opts['runs']}"
        )
        for outcome in outcomes:
            print(f"  {outcome.describe()}")
            if not (
                outcome.kind == "ok"
                or (outcome.kind == "crash" and plan.kills)
            ):
                bad += 1
        clean = sum(1 for o in outcomes if o.kind == "crash")
        identical = sum(1 for o in outcomes if o.kind == "ok")
        print(
            f"  {identical} identical final state(s), "
            f"{clean} clean failure(s), "
            f"{len(outcomes) - clean - identical} contract break(s)"
        )
    return 1 if bad else 0


def run_explore(args: list[str]) -> int:
    opts = _parse_args(args)
    if opts == "help":
        return 0
    if opts is None:
        return 2

    if opts["list"]:
        from repro.explore.fixtures import list_targets

        for name, desc in sorted(list_targets().items()):
            print(f"  {name:12s} {desc}")
        return 0

    if opts["replay"]:
        return _replay(opts["replay"], opts["max_steps"])

    from repro.explore.faults import FaultPlan, parse_fault_plan

    try:
        plan = (
            parse_fault_plan(opts["faults"])
            if opts["faults"]
            else FaultPlan()
        )
    except ReproError as exc:
        print(str(exc))
        return 2

    from repro.explore.fixtures import build_target

    try:
        for target in opts["targets"]:
            build_target(target)
    except ReproError as exc:
        print(str(exc))
        return 2

    if opts["engine"] and opts["engine"] != "cooperative":
        return _sweep(opts, plan)

    from repro.explore.report import save_artifact
    from repro.explore.strategies import explore_dfs, explore_walk

    reports = []
    any_violation = False
    for target in opts["targets"]:
        factory = build_target(target)
        if opts["strategy"] == "dfs":
            report = explore_dfs(
                factory,
                max_schedules=opts["schedules"],
                max_depth=opts["max_depth"],
                max_steps=opts["max_steps"],
                fingerprints=opts["fingerprints"],
                sleep_sets=opts["sleep_sets"],
                plan=plan,
                target=target,
            )
        else:
            report = explore_walk(
                factory,
                n_schedules=opts["schedules"],
                seed=opts["seed"],
                max_steps=opts["max_steps"],
                plan=plan,
                target=target,
            )
        report.export_metrics()
        print(report.summary())
        reports.append(report)
        for i, violation in enumerate(report.violations):
            any_violation = True
            path = (
                Path(opts["artifact_dir"])
                / f"{target}-{report.strategy}-{violation.kind}-{i}.json"
            )
            save_artifact(violation, path)
            print(f"  artifact: {path}")

    if opts["json"]:
        path = Path(opts["json"])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
        )
        print(f"report JSON: {path}")

    if opts["expect_violation"]:
        if not any_violation:
            print("expected a violation but every target held")
            return 1
        from repro.explore.report import load_artifact, replay_artifact

        # The conviction must also replay deterministically.
        for report in reports:
            for i, violation in enumerate(report.violations):
                path = (
                    Path(opts["artifact_dir"])
                    / f"{violation.target}-{report.strategy}"
                    f"-{violation.kind}-{i}.json"
                )
                reproduced, outcome = replay_artifact(
                    load_artifact(path), max_steps=opts["max_steps"]
                )
                print(
                    f"  replay {path.name}: {outcome.describe()} "
                    f"reproduced={'yes' if reproduced else 'NO'}"
                )
                if not reproduced:
                    return 1
        return 0
    return 1 if any_violation else 0
