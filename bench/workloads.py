"""Benchmark workloads: the inputs of one task, one pass, its outputs.

Every input is built here through fedfusion's public API. The acceptance
recipe constants are copied, not imported from the test suite, so that a
test edit cannot move the benchmark.

A task is one seeded instance of a workload's inputs; bench/reference.json
holds the reference outputs of all TASKS tasks of every workload, and a run
picks a window of them from its seed (run.plan).
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

TASKS = 64
LIBRARY_WORKLOADS = ("local-sgd", "fusion-hetero", "race-feddf")
WORKLOADS = LIBRARY_WORKLOADS + ("cli",)

# the frozen acceptance recipe (criteria 4-8)
RECIPE = dict(
    classes=10,
    per_class=200,
    ring_radius=2.5,
    scale=0.45,
    clients=20,
    participation=0.4,
    local_epochs=40,
    local_lr=0.1,
    local_batch=32,
    rounds=30,
    distill_steps=400,
    distill_patience=120,
    pool_size=512,
    distill_batch=128,
    widths=(32, 32),
    centralized_epochs=40,
    val_fraction=0.2,
)
TARGET_FRACTION = 0.9
HETERO_WIDTHS = ((32, 32), (48, 48), (64,))
HETERO = dict(alpha=1.0, local_epochs=2, rounds=10)
RACE_ALPHA = 0.1


def race_inputs(ff, task: int, alpha: float) -> dict:
    """Data, split, shards, heldout pool and model family of one recipe task."""
    from fedfusion.data import ring_centers

    p = RECIPE
    centers = ring_centers(p["classes"], p["ring_radius"])
    full = ff.make_gaussian_blobs(p["classes"], p["per_class"], centers, p["scale"], seed=1000 + task)
    train, val = ff.split_train_val(full, p["val_fraction"], seed=2000 + task)
    spec = ff.PartitionSpec(alpha, p["clients"], 4000 + task)
    shards = [train.subset(ix) for ix in ff.dirichlet_partition(train.labels, spec)]
    per = -(-p["pool_size"] // p["classes"])
    blobs = ff.make_gaussian_blobs(p["classes"], per, centers, p["scale"], seed=5000 + task)
    pool_inputs = blobs.inputs[: p["pool_size"]]
    proto = ff.Prototype("m", (2,) + p["widths"] + (p["classes"],))
    return dict(centers=centers, train=train, val=val, shards=shards, pool_inputs=pool_inputs, proto=proto)


def inputs_digest(inputs: dict) -> str:
    """sha256 over every array of a race task, for the task-0 self-check."""
    h = hashlib.sha256()
    arrays = [inputs["centers"], inputs["train"].inputs, inputs["train"].labels]
    arrays += [inputs["val"].inputs, inputs["val"].labels, inputs["pool_inputs"]]
    for shard in inputs["shards"]:
        arrays += [shard.inputs, shard.labels]
    for a in arrays:
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr(inputs["proto"].layer_widths).encode())
    return h.hexdigest()


def build_library_run(ff, workload: str, task: int) -> dict:
    """Everything a library pass needs before its first federated round."""
    p = RECIPE
    alpha = HETERO["alpha"] if workload == "fusion-hetero" else RACE_ALPHA
    inp = race_inputs(ff, task, alpha)
    protos = [inp["proto"]]
    cmap = None
    rounds, epochs, strategy = p["rounds"], p["local_epochs"], "fedavg"
    distill = None
    if workload == "fusion-hetero":
        protos = [
            ff.Prototype(f"p{i}", (2,) + w + (p["classes"],)) for i, w in enumerate(HETERO_WIDTHS)
        ]
        cmap = [protos[k % len(protos)].id for k in range(p["clients"])]
        rounds, epochs, strategy = HETERO["rounds"], HETERO["local_epochs"], "feddf_hetero"
    elif workload == "race-feddf":
        strategy = "feddf"
    if strategy != "fedavg":
        distill = ff.DistillConfig(
            max_steps=p["distill_steps"],
            patience=p["distill_patience"],
            pool=ff.DistillPool.heldout(inp["pool_inputs"], p["distill_batch"]),
            init_mode="from_average",
        )
    cfg = ff.FLConfig(
        rounds=rounds,
        client_count=p["clients"],
        participation=p["participation"],
        local_epochs=epochs,
        local_lr=p["local_lr"],
        local_batch=p["local_batch"],
        strategy=strategy,
        seed=task,
        distill=distill,
    )
    return dict(inputs=inp, cfg=cfg, protos=protos, cmap=cmap)


def run_library_pass(ff, run: dict, task: int) -> dict:
    """One federated run plus its centralized reference; returns outputs and round stamps.

    Round ends are stamped when the round loop builds each RoundRecord, so
    the stamps do not depend on how the loop is organised inside run_training.
    """
    from fedfusion import flcore

    stamps: list[float] = []
    orig_init = flcore.RoundRecord.__init__

    def stamped_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        stamps.append(time.monotonic())

    inp = run["inputs"]
    flcore.RoundRecord.__init__ = stamped_init
    try:
        t_start = time.monotonic()
        state, records = ff.run_training(
            run["cfg"], inp["shards"], inp["val"], run["protos"], client_prototypes=run["cmap"]
        )
    finally:
        flcore.RoundRecord.__init__ = orig_init
    if len(stamps) != len(records):
        raise RuntimeError(f"{len(stamps)} round stamps for {len(records)} rounds")

    p = RECIPE
    cent = ff.client_local_update(
        ff.init_params(inp["proto"], 6000 + task),
        inp["train"],
        p["centralized_epochs"],
        p["local_lr"],
        p["local_batch"],
        np.random.default_rng(6500 + task),
    )
    target = TARGET_FRACTION * ff.top1_accuracy(cent, inp["val"])
    rtt = next((i for i, r in enumerate(records, 1) if r.acc_fused >= target), None)

    h = hashlib.sha256()
    for pid, pv in sorted(state.params.items()):
        h.update(pid.encode() + pv.values.tobytes())
    h.update(json.dumps([r.as_dict() for r in records], sort_keys=True).encode())
    ends = [t - t_start for t in stamps]
    return dict(
        round_ms=[1000.0 * (b - a) for a, b in zip([0.0] + ends, ends)],
        time_to_target_s=None if rtt is None else ends[rtt - 1],
        outputs=dict(
            final_acc=float(records[-1].acc_fused),
            rounds_to_target=rtt,
            distill_steps=int(sum(r.distill_steps for r in records)),
            digest=h.hexdigest(),
        ),
    )


# --- cli workload -----------------------------------------------------------

CLI_SEEDS_PER_TASK = 3
BOUND_INSTANCES = 100


def write_cli_configs(directory: Path, task: int, output_root: Path) -> tuple[Path, Path]:
    """The README experiment config and a bound-check config for one task."""
    directory.mkdir(parents=True, exist_ok=True)
    seeds = ", ".join(str(CLI_SEEDS_PER_TASK * task + i) for i in range(CLI_SEEDS_PER_TASK))
    experiment = directory / "experiment.ini"
    experiment.write_text(
        f"""[experiment]
schema_version = 1
seeds = {seeds}
output = {output_root}

[dataset]
classes = 3
per_class = 150
scale = 0.6
val_fraction = 0.2

[partition]
alpha = 0.1

[federated]
rounds = 10
clients = 8
participation = 0.5
local_epochs = 10
local_lr = 0.05
local_batch = 32
strategies = fedavg, feddf
prototypes = 2,32,3

[distillation]
max_steps = 200
patience = 60
pool = heldout
pool_size = 256
batch_size = 64

[evaluation]
target = relative:0.9
centralized_epochs = 30
grid = -3,3,41
"""
    )
    bound = directory / "bound.ini"
    bound.write_text(
        f"""[bound]
instances = {BOUND_INSTANCES}
family = mixed
seed = {BOUND_INSTANCES * task}
output = {output_root}
"""
    )
    return experiment, bound


def cli_outputs(output_root: Path, exit_codes: list[int]) -> dict:
    """Verdict-level outputs and a digest of every artifact of one cli pass."""
    summary_bytes = (output_root / "summary.json").read_bytes()
    summary = json.loads(summary_bytes)
    bound = json.loads((output_root / "bound_reports.json").read_text())
    h = hashlib.sha256()
    for path in sorted(output_root.rglob("*")):
        if path.is_file() and path.name != "metrics.jsonl":  # wall_ms varies
            h.update(str(path.relative_to(output_root)).encode() + path.read_bytes())
    agg = summary["aggregate"]
    feddf_round_ms = []
    for metrics in sorted(output_root.glob("seed*/feddf/metrics.jsonl")):
        feddf_round_ms += [json.loads(line)["wall_ms"] for line in metrics.read_text().splitlines()]
    return dict(
        round_ms=feddf_round_ms,
        outputs=dict(
            exit_codes=exit_codes,
            summary_digest=hashlib.sha256(summary_bytes).hexdigest(),
            bound_holds=int(bound["holds"]),
            final_acc=float(agg["feddf"]["mean_final_acc_fused"]),
            rounds_to_target=agg["feddf"]["mean_rounds_to_target"],
            digest=h.hexdigest(),
        ),
    )
