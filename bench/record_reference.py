"""Record bench/reference.json: the reference outputs of every benchmark task.

    python3 bench/record_reference.py --workload race-feddf   # one file per workload
    python3 bench/record_reference.py --merge                  # writes bench/reference.json

Run from the root of a source checkout. For each task it runs one traced
pass and stores its outputs, the work done (local-SGD examples plus
distillation rows, counted by the tracer) and, for task 0, the share of
traced wall time spent in client_local_update and feddf_fuse. Benchmark runs
check that traced passes give the same outputs as untraced ones. The task-0
race inputs are hashed from the acceptance suite's race_task and race_pool,
which is the only place the benchmark reads the test suite; a benchmark run
compares against the hash.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run
import workloads as wl

PARTS = run.OUT / "reference"


def record_workload(name: str) -> None:
    tasks = {}
    shares = {}
    for task in range(wl.TASKS):
        w = run.Workload(name, {"tasks": {name: {}}}, time.monotonic() + run.RUN_LIMIT_S)
        traced = w.run_pass(task, traced=True)
        c = traced["trace"]["counters"]
        work = c.get("flcore.client_local_update.examples", 0) + c.get("flcore.feddf_fuse.rows", 0)
        tasks[str(task)] = {"outputs": traced["outputs"], "work": {"examples": work}}
        if task == 0:
            spans = traced["trace"]["spans"]
            shares = {
                q: spans.get(q, {}).get("busy_s", 0.0) / traced["wall_s"]
                for q in ("flcore.client_local_update", "flcore.feddf_fuse")
            }
        print(f"{name} task {task}: {traced['outputs']} work {work}", flush=True)
    PARTS.mkdir(parents=True, exist_ok=True)
    (PARTS / f"{name}.json").write_text(json.dumps({"tasks": tasks, "share_of_traced_wall": shares}))


def race_task_digest() -> str:
    sys.path.insert(0, str(run.ROOT / "tests"))
    import test_acceptance as ta

    centers, train, val, shards, proto = ta.race_task(0, wl.RACE_ALPHA)
    pool = ta.race_pool("heldout", centers, 0)
    return wl.inputs_digest(
        dict(centers=centers, train=train, val=val, shards=shards, pool_inputs=pool._inputs, proto=proto)
    )


def merge() -> None:
    parts = {name: json.loads((PARTS / f"{name}.json").read_text()) for name in wl.WORKLOADS}
    reference = {
        "tasks_per_workload": wl.TASKS,
        "race_task_0_digest": race_task_digest(),
        "share_of_traced_wall_task0": {n: p["share_of_traced_wall"] for n, p in parts.items()},
        "tasks": {n: p["tasks"] for n, p in parts.items()},
    }
    (run.BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=wl.WORKLOADS)
    group.add_argument("--merge", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    if args.merge:
        merge()
    else:
        record_workload(args.workload)


if __name__ == "__main__":
    main()
