"""One benchmark process: a pass, a set-up, a traced cli pass or the floor probe.

Started by bench/run.py in a fresh interpreter with fedfusion's source on
PYTHONPATH; prints one JSON object as its last line of standard output.

    worker.py pass  <workload> <task> [--trace FILE]
    worker.py setup <workload> <task> <spawn>
    worker.py cli   <config-dir> <output-root> --trace FILE
    worker.py floor

<spawn> is time.monotonic() in the parent just before the process started,
so the measured set-up includes interpreter start and `import fedfusion`.
"""

from __future__ import annotations

import argparse
import json
import time
import uuid
from pathlib import Path


def _tracer(trace_file):
    if trace_file is None:
        return None
    from tracing import Tracer

    tracer = Tracer(uuid.uuid4().hex)
    tracer.install()
    return tracer


def _finish(result: dict, tracer, trace_file) -> None:
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.save(trace_file)
    print(json.dumps(result))


def cmd_pass(args) -> None:
    import fedfusion as ff
    import workloads as wl

    tracer = _tracer(args.trace)
    run = wl.build_library_run(ff, args.workload, args.task)
    _finish(wl.run_library_pass(ff, run, args.task), tracer, args.trace)


def cmd_setup(args) -> None:
    import fedfusion as ff
    import workloads as wl

    wl.build_library_run(ff, args.workload, args.task)
    print(json.dumps({"setup_s": time.monotonic() - args.spawn}))


def cmd_cli(args) -> None:
    import fedfusion.cli
    import workloads as wl

    tracer = _tracer(args.trace)
    root = Path(args.output_root)
    experiment, bound = Path(args.config_dir) / "experiment.ini", Path(args.config_dir) / "bound.ini"
    codes = [fedfusion.cli.main(["run", str(experiment)]), fedfusion.cli.main(["bound-check", str(bound)])]
    _finish(wl.cli_outputs(root, codes), tracer, args.trace)


def cmd_floor(args) -> None:
    import numpy as np

    import fedfusion as ff
    from calib import numpy_step_us
    from fedfusion.data import ring_centers

    shard = ff.make_gaussian_blobs(10, 32, ring_centers(10, 2.5), 0.45, seed=7)
    start = ff.init_params(ff.Prototype("m", (2, 32, 32, 10)), 0)
    epochs, steps = 10, 10 * -(-len(shard) // 32)
    per_step = []
    for rep in range(9):
        t0 = time.perf_counter()
        ff.client_local_update(start, shard, epochs, 0.1, 32, np.random.default_rng(rep))
        per_step.append((time.perf_counter() - t0) / steps * 1e6)
    library_us = float(np.median(per_step))
    floor_us = numpy_step_us()
    print(json.dumps({"library_step_us": library_us, "numpy_step_us": floor_us}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pass")
    p.add_argument("workload")
    p.add_argument("task", type=int)
    p.add_argument("--trace")
    p.set_defaults(fn=cmd_pass)
    s = sub.add_parser("setup")
    s.add_argument("workload")
    s.add_argument("task", type=int)
    s.add_argument("spawn", type=float)
    s.set_defaults(fn=cmd_setup)
    c = sub.add_parser("cli")
    c.add_argument("config_dir")
    c.add_argument("output_root")
    c.add_argument("--trace")
    c.set_defaults(fn=cmd_cli)
    f = sub.add_parser("floor")
    f.set_defaults(fn=cmd_floor)
    args = parser.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
