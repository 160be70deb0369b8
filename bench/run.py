"""fedfusion benchmark: end-to-end metrics of one workload, or per-layer metrics of a traced run.

    python3 bench/run.py --workload {local-sgd,fusion-hetero,race-feddf,cli}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: fedfusion is imported from ./src.
Every pass runs in a fresh process on one recorded task; the seed and the
run length pick the run's tasks (see `plan`). With --trace 0 the last line
of standard output is the JSON result with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of traced passes, each paired with
an untraced pass of the same task. The line before it is a JSON detail
record: quality outputs, error rate, bitwise agreement, machine probe and
environment. Scratch files go to .bench_out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import workloads as wl
from calib import numpy_step_us

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"

RUN_LIMIT_S = 150.0  # every child is killed past this, well inside a 180 s run
# One untraced iteration (probe, set-up, pass), measured on a 2-core x86_64
# box in its slower state, so that a run fits in --seconds on a slow day. A
# run makes as many as fit, so its tasks are fixed by the seed and the run
# length alone, never by how fast the machine was.
ITERATION_S = {"local-sgd": 6.2, "fusion-hetero": 7.6, "race-feddf": 10.9, "cli": 4.4}
TRACED_PAIR_FACTOR = 2.3  # an untraced plus a traced pass, in untraced iterations
MIN_ROUND_SAMPLES = 40  # round_ms.tail is p75, so at least ten rounds lie beyond it
TAIL_PERCENTILE = 75
MIN_SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class PassFailed(RuntimeError):
    pass


def child_env(output_root: Path | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if output_root is not None:
        env["FEDFUSION_OUTPUT_ROOT"] = str(output_root)
    return env


def spawn(argv_tail: list[str], log: Path, env: dict, deadline: float, pass_spawn: bool = False) -> dict:
    """Run one child to completion; wall time, exit code, peak RSS and its last stdout line.

    With pass_spawn the spawn timestamp is appended to argv, so the child
    can measure its own set-up from the moment it was started. The child is
    killed at the deadline (a time.monotonic() value).
    """
    if deadline - time.monotonic() < 1.0:
        raise PassFailed("run time limit reached")
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        t0 = time.monotonic()
        argv = [sys.executable] + argv_tail + ([repr(t0)] if pass_spawn else [])
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(deadline - t0, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = log.read_text().strip().splitlines()
    return dict(wall_s=wall, code=proc.returncode, rss_mb=usage.ru_maxrss / 1024.0, last=lines[-1] if lines else "")


def worker_json(res: dict, what: str) -> dict:
    if res["code"] != 0:
        raise PassFailed(f"{what} exited with {res['code']}")
    try:
        return json.loads(res["last"])
    except json.JSONDecodeError as exc:
        raise PassFailed(f"{what} printed no result") from exc


def plan(workload: str, seed: int, seconds: float, trace: bool) -> list[int]:
    """The run's tasks: a window of consecutive recorded tasks chosen by the seed."""
    rounds = wl.CLI_SEEDS_PER_TASK * 10 if workload == "cli" else (
        wl.HETERO["rounds"] if workload == "fusion-hetero" else wl.RECIPE["rounds"])
    n = max(-(-MIN_ROUND_SAMPLES // rounds), int(seconds // ITERATION_S[workload]))
    tasks = [(seed * n + j) % wl.TASKS for j in range(n)]
    if trace:
        return tasks[: max(1, int(seconds // (ITERATION_S[workload] * TRACED_PAIR_FACTOR)))]
    return tasks


# --- one pass of each kind --------------------------------------------------


class Workload:
    def __init__(self, name: str, reference: dict, deadline: float):
        self.name = name
        self.ref = reference["tasks"][name]
        self.deadline = deadline
        self.dir = OUT / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.count = 0

    def spawn(self, argv_tail: list[str], kind: str, env: dict, pass_spawn: bool = False) -> dict:
        self.count += 1
        log = self.dir / "logs" / f"{self.count:04d}-{kind}.out"
        return spawn(argv_tail, log, env, self.deadline, pass_spawn)

    def cli_config(self, task: int) -> Path:
        cfg_dir = self.dir / f"config{task}"
        if not cfg_dir.is_dir():
            wl.write_cli_configs(cfg_dir, task, self.dir / "default")
        return cfg_dir

    def setup(self, task: int) -> float:
        if self.name == "cli":
            root = self.dir / "setup"
            shutil.rmtree(root, ignore_errors=True)
            cfg = self.cli_config(task) / "experiment.ini"
            res = self.spawn(["-m", "fedfusion", "partition-stats", str(cfg)], "setup", child_env(root))
            if res["code"] != 0:
                raise PassFailed(f"partition-stats exited with {res['code']}")
            return res["wall_s"]
        res = self.spawn([str(WORKER), "setup", self.name, str(task)], "setup", child_env(), True)
        return worker_json(res, "setup")["setup_s"]

    def run_pass(self, task: int, traced: bool) -> dict:
        """One pass; wall_s, rss_mb, round_ms, outputs (and trace when traced)."""
        kind = "traced" if traced else "pass"
        trace_args = []
        if traced:
            trace_file = OUT / "traces" / f"{self.name}-task{task}.npz"
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            trace_args = ["--trace", str(trace_file)]
        if self.name != "cli":
            res = self.spawn([str(WORKER), "pass", self.name, str(task)] + trace_args, kind, child_env())
            out = worker_json(res, kind)
            out.update(wall_s=res["wall_s"], rss_mb=res["rss_mb"])
            return out
        cfg_dir = self.cli_config(task)
        root = self.dir / kind
        shutil.rmtree(root, ignore_errors=True)
        if traced:
            res = self.spawn([str(WORKER), "cli", str(cfg_dir), str(root)] + trace_args, kind, child_env(root))
            out = worker_json(res, "traced cli pass")
            out.update(wall_s=res["wall_s"], rss_mb=res["rss_mb"])
            return out
        run = self.spawn(["-m", "fedfusion", "run", str(cfg_dir / "experiment.ini")], "run", child_env(root))
        check = self.spawn(["-m", "fedfusion", "bound-check", str(cfg_dir / "bound.ini")], "bound", child_env(root))
        codes = [run["code"], check["code"]]
        if codes != [0, 0]:
            raise PassFailed(f"fedfusion exit codes {codes}")
        out = wl.cli_outputs(root, codes)
        out.update(wall_s=run["wall_s"] + check["wall_s"], rss_mb=max(run["rss_mb"], check["rss_mb"]))
        return out

    def check(self, task: int, outputs: dict) -> tuple[bool, bool]:
        """(verdicts match the task's reference, every output bit matches it)."""
        ref = self.ref[str(task)]["outputs"]
        keys = ("exit_codes", "summary_digest", "bound_holds") if self.name == "cli" else (
            "final_acc", "rounds_to_target", "distill_steps")
        return all(outputs[k] == ref[k] for k in keys), outputs["digest"] == ref["digest"]


# --- probes -----------------------------------------------------------------


def self_check(reference: dict) -> bool:
    """The task-0 race inputs equal the acceptance suite's race_task(0, 0.1) bit for bit."""
    import fedfusion as ff

    return wl.inputs_digest(wl.race_inputs(ff, 0, wl.RACE_ALPHA)) == reference["race_task_0_digest"]


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return dict(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        numpy=np.__version__,
        blas=f"{blas.get('name')} {blas.get('version')}",
        thread_env={k: os.environ.get(k) for k in THREAD_ENV},
        git_sha=git_sha(),
        machine=platform.machine(),
    )


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree; read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


# --- metrics ----------------------------------------------------------------


def end_to_end(w: Workload, passes: list[dict], setups: list[float]) -> dict:
    rounds = [r for p in passes for r in p["round_ms"]]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "round_ms.p50": (float(np.percentile(rounds, 50)), "ms"),
        "round_ms.tail": (float(np.percentile(rounds, TAIL_PERCENTILE)), "ms"),
        "examples_per_s": (
            sum(w.ref[str(p["task"])]["work"]["examples"] for p in passes) / sum(p["wall_s"] for p in passes),
            "1/s",
        ),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }


def layer_values(trace: dict, wall_s: float) -> tuple[dict, set]:
    """Per-layer metrics of a trace over wall_s seconds; (name -> (value, unit), absent names)."""
    spans, c = trace["spans"], trace["counters"]
    absent = set(trace["absent"])
    out: dict[str, tuple[float, str]] = {}

    def ratio(a, b):
        return a / b if b else 0.0

    def span(q, *fields):
        s = spans.get(q, dict(calls=0, busy_s=0.0, self_s=0.0))
        for f in fields:
            out[f"{q}.{f}"] = (s[f], "count" if f == "calls" else "s")
        return s

    def counter(q, key, unit="count"):
        out[f"{q}.{key}"] = (c.get(f"{q}.{key}", 0), unit)
        return c.get(f"{q}.{key}", 0)

    q = "flcore.client_local_update"
    s = span(q, "calls", "busy_s")
    steps = counter(q, "steps")
    out[q + ".us_per_step"] = (1e6 * ratio(s["busy_s"], steps), "us")
    out[q + ".share"] = (ratio(s["busy_s"], wall_s), "ratio")
    q = "flcore.feddf_fuse"
    s = span(q, "calls", "busy_s", "self_s")
    steps = counter(q, "steps")
    out[q + ".us_per_step"] = (1e6 * ratio(s["busy_s"], steps), "us")
    out[q + ".share"] = (ratio(s["busy_s"], wall_s), "ratio")
    q = "flcore.ensemble_logits"
    span(q, "calls", "busy_s")
    counter(q, "teacher_rows")
    out[q + ".useful_ratio"] = (ratio(c.get(q + ".distinct_pairs", 0), c.get(q + ".fusion_rows", 0)), "ratio")
    span("flcore.top1_accuracy", "calls", "busy_s")
    counter("flcore.top1_accuracy", "rows")
    span("flcore.run_training", "self_s")
    q = "models.forward_cached"
    s = span(q, "calls", "busy_s", "self_s")
    rows = counter(q, "rows")
    out[q + ".ns_per_row"] = (1e9 * ratio(s["busy_s"], rows), "ns")
    span("models.predict_logits", "calls", "busy_s")
    span("models.average_params", "calls", "busy_s")
    counter("models.layer_slices", "calls")
    counter("models.Prototype.n_params", "calls")
    q = "numerics.grad"
    s = span(q, "calls", "busy_s", "self_s")
    out[q + ".us_per_call"] = (1e6 * ratio(s["busy_s"], s["calls"]), "us")
    q = "numerics.opt_step"
    s = span(q, "calls", "busy_s")
    out[q + ".us_per_call"] = (1e6 * ratio(s["busy_s"], s["calls"]), "us")
    span("numerics.softmax", "calls", "busy_s")
    span("data.sample_distill_batch", "calls", "busy_s")
    for name in ("make_gaussian_blobs", "split_train_val", "dirichlet_partition"):
        span(f"data.{name}", "busy_s")
    for name in ("load_experiment_config", "build_seed_data", "centralized_reference", "write_metrics"):
        span(f"harness.{name}", "busy_s")
    span("harness.save_boundary_grid", "calls", "busy_s")
    counter("harness.save_boundary_grid", "bytes", "B")
    span("harness.run_experiment", "self_s")
    for name in ("make_bound_instance", "check_bound", "erm"):
        span(f"bound.{name}", "calls", "busy_s")
    absent_metrics = {m for m in out if any(m.startswith(a + ".") for a in absent)}
    return out, absent_metrics


def merged_trace(passes: list[dict]) -> dict:
    """Spans and counters of several traced passes, summed."""
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for p in passes:
        for q, s in p["trace"]["spans"].items():
            total = spans.setdefault(q, dict(calls=0, busy_s=0.0, self_s=0.0))
            for f in total:
                total[f] += s[f]
        for k, v in p["trace"]["counters"].items():
            counters[k] = counters.get(k, 0) + v
    absent = sorted(set().union(*(p["trace"]["absent"] for p in passes)))
    return dict(spans=spans, counters=counters, absent=absent)


def per_layer(traced: list[dict], untraced: list[dict], extra: dict) -> tuple[dict, list]:
    """Per-layer metrics summed over the traced passes (one per task of the run)."""
    traced_wall = sum(p["wall_s"] for p in traced)
    metrics, absent = layer_values(merged_trace(traced), traced_wall)
    metrics["trace.overhead_ratio"] = (traced_wall / sum(p["wall_s"] for p in untraced), "ratio")
    metrics.update(extra)
    return metrics, sorted(absent)


def emit(metrics: dict, section: str, attempted: int, failed: int, correct: bool) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in spec[section]]
    if sorted(expected) != sorted(metrics):
        raise SystemExit(
            f"benchmark metrics disagree with BENCHMARK.json {section}: "
            f"missing {sorted(set(expected) - set(metrics))}, extra {sorted(set(metrics) - set(expected))}"
        )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in expected},
    }
    print(json.dumps(result))


# --- the run ----------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "fedfusion" / "__init__.py").is_file():
        print(f"error: no fedfusion source under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fedfusion

    if Path(fedfusion.__file__).resolve().parent != (SRC / "fedfusion").resolve():
        print(f"error: fedfusion imported from {fedfusion.__file__}, not {SRC}", file=sys.stderr)
        return 2

    start = time.monotonic()
    reference = json.loads((BENCH / "reference.json").read_text())
    w = Workload(args.workload, reference, start + RUN_LIMIT_S)
    tasks = plan(args.workload, args.seed, args.seconds, bool(args.trace))
    # the input self-check counts as one attempted operation
    attempted, failed = 1, 0
    self_ok = self_check(reference)
    failed += not self_ok
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    calib: list[float] = []
    bitwise = 0

    def attempt(fn, *args):
        nonlocal attempted, failed
        attempted += 1
        try:
            return fn(*args)
        except PassFailed as exc:
            failed += 1
            print(f"{fn.__name__} failed: {exc}", file=sys.stderr)
            return None

    def run_pass(task: int, traced_pass: bool, into: list) -> None:
        nonlocal failed, bitwise
        p = attempt(w.run_pass, task, traced_pass)
        if p is None:
            return
        ok, same_bits = w.check(task, p["outputs"])
        failed += not ok
        bitwise += same_bits
        p["task"] = task
        into.append(p)

    def take_setup(task: int) -> None:
        s = attempt(w.setup, task)
        if s is not None:
            setups.append(s)

    for task in tasks:
        calib.append(numpy_step_us())
        if not args.trace:
            take_setup(task)
        run_pass(task, False, untraced)
        if args.trace:
            run_pass(task, True, traced)
    if not args.trace:
        for task in itertools.islice(itertools.cycle(tasks), max(0, MIN_SETUP_SAMPLES - len(setups))):
            take_setup(task)

    if not untraced or (args.trace and not traced) or (not args.trace and not setups):
        print("error: no pass completed", file=sys.stderr)
        return 3
    detail = dict(
        workload=w.name,
        seed=args.seed,
        tasks=tasks,
        trace=args.trace,
        passes=len(untraced),
        traced_passes=len(traced),
        round_samples=sum(len(p["round_ms"]) for p in untraced),
        round_ms_tail_percentile=TAIL_PERCENTILE,
        error_rate=failed / attempted,
        task0_inputs_match_race_task=self_ok,
        outputs_bitwise_equal=bitwise,
        quality=[dict(task=p["task"], time_to_target_s=p.get("time_to_target_s"), **{
            k: v for k, v in p["outputs"].items() if k in ("final_acc", "rounds_to_target")}) for p in untraced],
        calib_numpy_step_us=statistics.median(calib),
        elapsed_s=time.monotonic() - start,
        environment=environment(),
    )
    correct = self_ok and failed == 0
    if not args.trace:
        print(json.dumps(detail))
        emit(end_to_end(w, untraced, setups), "end_to_end", attempted, failed, correct)
        return 0
    try:
        floor = worker_json(w.spawn([str(WORKER), "floor"], "floor", child_env()), "floor probe")
        imports = []
        for _ in range(IMPORT_SAMPLES):
            res = w.spawn(["-c", "import fedfusion"], "import", child_env())
            if res["code"] != 0:
                raise PassFailed("import fedfusion failed")
            imports.append(res["wall_s"])
    except PassFailed as exc:
        print(f"error: probe failed: {exc}", file=sys.stderr)
        return 3
    extra = {
        "numerics.sgd_step.floor_ratio": (floor["library_step_us"] / floor["numpy_step_us"], "ratio"),
        "cli.import_s": (statistics.median(imports), "s"),
        "calib.numpy_step_us": (statistics.median(calib), "us"),
        "outputs.bitwise_equal": (bitwise, "count"),
    }
    metrics, absent = per_layer(traced, untraced, extra)
    detail.update(absent=absent, floor=floor)
    print(json.dumps(detail))
    emit(metrics, "per_layer", attempted, failed, correct)
    return 0


if __name__ == "__main__":
    sys.exit(main())
