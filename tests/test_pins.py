"""Pinned outputs of small runs: a change that moves one of their bits fails here.

Three kinds of run are pinned:

- a fleet: feddf on two prototypes, a binary_ste one and a full-precision
  one, with clients assigned round-robin, a drop threshold and a heldout pool
  whose epochs straddle fusions and rounds;
- a table of one-prototype runs, one row per strategy, pool kind, the
  binary_ste and tanh kernel, the from_previous student start, and a fusion
  of 4 steps, whose records move with every step of the cosine schedule;
- every file one small `fedfusion run` writes (two seeds, fedavg and feddf,
  the dataset exports and every decision-boundary grid).

The values were recorded by running this file as a script, which prints
every one of them, so re-recording after an intended change of outputs is
one command:

    PYTHONPATH=src python tests/test_pins.py [strategy]

The fleet values were recorded with strategy feddf_hetero, the name
several-prototype fusion had before every strategy ran on a fleet, so the pin
also shows that feddf on a fleet is the old feddf_hetero bit for bit.

Digests (sha256 over the final parameters and every record's as_dict(), and
one sha256 per written file) are compared only on the platform they were
recorded on: the machine, the numpy version and the BLAS build numpy reports.
Another BLAS may round a matmul differently, so elsewhere the tests compare
the records alone (the per-round accuracies, distillation steps and client
ids, which are exact counts), and a run's file names and exit code.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import fedfusion as ff
from fedfusion.cli import main as cli_main
from fedfusion.harness import OUTPUT_ENV_VAR


PLATFORM = "x86_64 numpy 2.4.6 scipy-openblas 0.3.31.188.0"
DIGEST = "8524e5d059c5052a4188c229aa7de15f283e7ceeaf50ae0c63fdb122a94f0b19"
RECORDS = [  # each round's as_dict()
    {'round': 1, 'sampled': [2, 3, 4], 'dropped': [3], 'acc_averaged': 0.9722222222222222, 'acc_fused': 0.9722222222222222, 'acc_ensemble': 0.7777777777777778, 'distill_steps': 5, 'acc_per_prototype': {'a': {'acc_averaged': 0.9722222222222222, 'acc_fused': 0.9722222222222222}}},
    {'round': 2, 'sampled': [1, 3, 4], 'dropped': [3], 'acc_averaged': 0.7916666666666666, 'acc_fused': 0.8611111111111112, 'acc_ensemble': 1.0, 'distill_steps': 14, 'acc_per_prototype': {'a': {'acc_averaged': 0.9166666666666666, 'acc_fused': 0.9166666666666666}, 'b': {'acc_averaged': 0.6666666666666666, 'acc_fused': 0.8055555555555556}}},
    {'round': 3, 'sampled': [0, 3, 4], 'dropped': [], 'acc_averaged': 0.7777777777777777, 'acc_fused': 0.7916666666666666, 'acc_ensemble': 1.0, 'distill_steps': 10, 'acc_per_prototype': {'a': {'acc_averaged': 0.8888888888888888, 'acc_fused': 0.9166666666666666}, 'b': {'acc_averaged': 0.6666666666666666, 'acc_fused': 0.6666666666666666}}},
    {'round': 4, 'sampled': [0, 3, 4], 'dropped': [], 'acc_averaged': 0.7638888888888888, 'acc_fused': 0.7638888888888888, 'acc_ensemble': 1.0, 'distill_steps': 5, 'acc_per_prototype': {'a': {'acc_averaged': 0.8611111111111112, 'acc_fused': 0.8611111111111112}, 'b': {'acc_averaged': 0.6666666666666666, 'acc_fused': 0.6666666666666666}}},]
TABLE = {  # row: (digest, each round's as_dict())
    'fedavg': ('c23dee842caec1bd933a933e20524f58d9af765ae04e78e9bc5c99882c7f10cd', [{'round': 1, 'sampled': [1, 2, 3], 'dropped': [], 'acc_averaged': 0.6944444444444444, 'acc_fused': 0.6944444444444444, 'acc_ensemble': 0.5, 'distill_steps': 0, 'acc_per_prototype': {}}, {'round': 2, 'sampled': [1, 2, 3], 'dropped': [], 'acc_averaged': 0.75, 'acc_fused': 0.75, 'acc_ensemble': 0.7222222222222222, 'distill_steps': 0, 'acc_per_prototype': {}}, {'round': 3, 'sampled': [0, 2, 3], 'dropped': [], 'acc_averaged': 1.0, 'acc_fused': 1.0, 'acc_ensemble': 1.0, 'distill_steps': 0, 'acc_per_prototype': {}}]),
    'fedprox': ('d87a48e1f8fc574c48d666786aa8ac2fbceca182c8c40fefadd0a7fdce25b1d0', [{'round': 1, 'sampled': [1, 2, 3], 'dropped': [], 'acc_averaged': 0.6944444444444444, 'acc_fused': 0.6944444444444444, 'acc_ensemble': 0.5, 'distill_steps': 0, 'acc_per_prototype': {}}, {'round': 2, 'sampled': [1, 2, 3], 'dropped': [], 'acc_averaged': 0.75, 'acc_fused': 0.75, 'acc_ensemble': 0.7222222222222222, 'distill_steps': 0, 'acc_per_prototype': {}}, {'round': 3, 'sampled': [0, 2, 3], 'dropped': [], 'acc_averaged': 1.0, 'acc_fused': 1.0, 'acc_ensemble': 1.0, 'distill_steps': 0, 'acc_per_prototype': {}}]),
    'fedavgm': ('6dcef5c6013772a6b2a709a8ac6dd7083d0127ad0e7cbbfe2d9b162ee8def7d0', [{'round': 1, 'sampled': [1, 2, 3], 'dropped': [], 'acc_averaged': 0.6944444444444444, 'acc_fused': 0.6944444444444444, 'acc_ensemble': 0.5, 'distill_steps': 0, 'acc_per_prototype': {}}, {'round': 2, 'sampled': [1, 2, 3], 'dropped': [], 'acc_averaged': 0.75, 'acc_fused': 0.6944444444444444, 'acc_ensemble': 0.7222222222222222, 'distill_steps': 0, 'acc_per_prototype': {}}, {'round': 3, 'sampled': [0, 2, 3], 'dropped': [], 'acc_averaged': 1.0, 'acc_fused': 1.0, 'acc_ensemble': 1.0, 'distill_steps': 0, 'acc_per_prototype': {}}]),
    'feddf_heldout': ('88ae6a189eeb7f0f1f2c9f84084fbc0869e126dbf6d4b5c1001020e3868856c9', [{'round': 1, 'sampled': [1, 2, 3], 'dropped': [], 'acc_averaged': 0.6944444444444444, 'acc_fused': 0.8888888888888888, 'acc_ensemble': 0.5, 'distill_steps': 18, 'acc_per_prototype': {}}, {'round': 2, 'sampled': [1, 2, 3], 'dropped': [], 'acc_averaged': 0.9166666666666666, 'acc_fused': 0.9722222222222222, 'acc_ensemble': 0.9166666666666666, 'distill_steps': 16, 'acc_per_prototype': {}}, {'round': 3, 'sampled': [0, 2, 3], 'dropped': [], 'acc_averaged': 1.0, 'acc_fused': 1.0, 'acc_ensemble': 1.0, 'distill_steps': 15, 'acc_per_prototype': {}}]),
    'feddf_uniform_noise': ('f445014414d6eeecdc592532ab703aec56990cbb957475e96ca2778e60547331', [{'round': 1, 'sampled': [1, 2, 3], 'dropped': [], 'acc_averaged': 0.6944444444444444, 'acc_fused': 0.9166666666666666, 'acc_ensemble': 0.5, 'distill_steps': 17, 'acc_per_prototype': {}}, {'round': 2, 'sampled': [1, 2, 3], 'dropped': [], 'acc_averaged': 0.9166666666666666, 'acc_fused': 0.9722222222222222, 'acc_ensemble': 0.9166666666666666, 'distill_steps': 16, 'acc_per_prototype': {}}, {'round': 3, 'sampled': [0, 2, 3], 'dropped': [], 'acc_averaged': 1.0, 'acc_fused': 1.0, 'acc_ensemble': 1.0, 'distill_steps': 15, 'acc_per_prototype': {}}]),
    'feddf_gaussian_noise': ('6108fc0a7edccc3a31388ffc5a88d7c943811fa64f25193958e0fb0daa7dc494', [{'round': 1, 'sampled': [1, 2, 3], 'dropped': [], 'acc_averaged': 0.6944444444444444, 'acc_fused': 0.8333333333333334, 'acc_ensemble': 0.5, 'distill_steps': 17, 'acc_per_prototype': {}}, {'round': 2, 'sampled': [1, 2, 3], 'dropped': [], 'acc_averaged': 0.8611111111111112, 'acc_fused': 0.9444444444444444, 'acc_ensemble': 0.8611111111111112, 'distill_steps': 16, 'acc_per_prototype': {}}, {'round': 3, 'sampled': [0, 2, 3], 'dropped': [], 'acc_averaged': 1.0, 'acc_fused': 1.0, 'acc_ensemble': 1.0, 'distill_steps': 15, 'acc_per_prototype': {}}]),
    'feddf_binary_ste_tanh': ('3912dd1abd1eb46f39c3774dd06e977b35edf64fc298c440f8b9e6938ae30e68', [{'round': 1, 'sampled': [1, 2, 3], 'dropped': [], 'acc_averaged': 0.8888888888888888, 'acc_fused': 0.9722222222222222, 'acc_ensemble': 0.8888888888888888, 'distill_steps': 21, 'acc_per_prototype': {}}, {'round': 2, 'sampled': [1, 2, 3], 'dropped': [], 'acc_averaged': 0.8888888888888888, 'acc_fused': 0.9166666666666666, 'acc_ensemble': 0.8888888888888888, 'distill_steps': 18, 'acc_per_prototype': {}}, {'round': 3, 'sampled': [0, 2, 3], 'dropped': [], 'acc_averaged': 1.0, 'acc_fused': 1.0, 'acc_ensemble': 0.9444444444444444, 'distill_steps': 15, 'acc_per_prototype': {}}]),
    'feddf_from_previous': ('8faa5b95b30bc0881e172c91e1c81a437f39c5e73eacc0edebbc5c2bf24ab4d2', [{'round': 1, 'sampled': [1, 2, 3], 'dropped': [], 'acc_averaged': 0.6944444444444444, 'acc_fused': 0.5555555555555556, 'acc_ensemble': 0.5, 'distill_steps': 15, 'acc_per_prototype': {}}, {'round': 2, 'sampled': [1, 2, 3], 'dropped': [], 'acc_averaged': 0.6944444444444444, 'acc_fused': 0.5555555555555556, 'acc_ensemble': 0.5833333333333334, 'distill_steps': 15, 'acc_per_prototype': {}}, {'round': 3, 'sampled': [0, 2, 3], 'dropped': [], 'acc_averaged': 0.6666666666666666, 'acc_fused': 0.6666666666666666, 'acc_ensemble': 0.6944444444444444, 'distill_steps': 16, 'acc_per_prototype': {}}]),
    'feddf_short_schedule': ('f8b83100701c81617559f3290b506a90ebe759b02f57d18c2e07ce5e2205975e', [{'round': 1, 'sampled': [1, 2, 3], 'dropped': [], 'acc_averaged': 0.6944444444444444, 'acc_fused': 0.8888888888888888, 'acc_ensemble': 0.5, 'distill_steps': 4, 'acc_per_prototype': {}}, {'round': 2, 'sampled': [1, 2, 3], 'dropped': [], 'acc_averaged': 0.8888888888888888, 'acc_fused': 0.8888888888888888, 'acc_ensemble': 0.8611111111111112, 'distill_steps': 2, 'acc_per_prototype': {}}, {'round': 3, 'sampled': [0, 2, 3], 'dropped': [], 'acc_averaged': 1.0, 'acc_fused': 1.0, 'acc_ensemble': 1.0, 'distill_steps': 2, 'acc_per_prototype': {}}]),
}
ARTIFACTS = {  # written file: sha256, of metrics.jsonl with its wall_ms values cut
    'seed0/fedavg/averaged_grid.csv': '723e12122733b7330bb8e9b448d664a77d7147f5bf5a2c8cdcc64d81137cd21e',
    'seed0/fedavg/client1_grid.csv': 'db610483a3d1a1299fe763d0c713def5000c78768ae02a20f55f5eb5a1c0a203',
    'seed0/fedavg/client3_grid.csv': 'c51c37fc86b8e8fb33a9563a40e88ee91fe8470952ebb0596c73399c7750b2cb',
    'seed0/fedavg/final_p0.params': 'd3f0ce5a16f4a345a7dc2282f071fada8c788311a1868717a4cfff10917cae4a',
    'seed0/fedavg/fused_grid_p0.csv': '723e12122733b7330bb8e9b448d664a77d7147f5bf5a2c8cdcc64d81137cd21e',
    'seed0/fedavg/metrics.jsonl': 'c03e79ad43b5a50f24097fe9aeb08e9ad4096af1e22afaeb65b5c7d463a3f2bd',
    'seed0/feddf/averaged_grid.csv': '723e12122733b7330bb8e9b448d664a77d7147f5bf5a2c8cdcc64d81137cd21e',
    'seed0/feddf/client1_grid.csv': 'db610483a3d1a1299fe763d0c713def5000c78768ae02a20f55f5eb5a1c0a203',
    'seed0/feddf/client3_grid.csv': 'c51c37fc86b8e8fb33a9563a40e88ee91fe8470952ebb0596c73399c7750b2cb',
    'seed0/feddf/final_p0.params': '09564ada7e1033044237a22be24a744510751fce4d13fd7b98f7e7b7eef670df',
    'seed0/feddf/fused_grid_p0.csv': 'da1c8ff6faa3c199eaf0840f55d462913dcd939033dca67be42433239e4f8b19',
    'seed0/feddf/metrics.jsonl': '644e5f96df74acd6f80836adc8268f0c97aeb5df2473dbb418cbe773015820d2',
    'seed0/test.csv': 'f96ca35c1c00e007119731eec05453ed11aba6d86f1a7c06b73a261bb174ebf4',
    'seed0/test.csv.meta.json': 'de824e8896ab2175570f94e64c2bddc21e2d40a85673ee52bf65adbed418fff4',
    'seed0/train.csv': '5b148f2688cfe308f77a97b0d249d481c5e7dbb481195a7a0cbf417549d2e5bc',
    'seed0/train.csv.meta.json': '3c1d2e8d58f67fe2ee6f5da3808c86bfee8980f0564a6753945a6a7dfadae384',
    'seed0/val.csv': '97f7702d7483f220a875670edce7e340c00c1c5f74dcee43e4112d41293c0a18',
    'seed0/val.csv.meta.json': 'ec59619ecbdfd749955d6feb01ee1cfec3a4c9222cded8041baf7c4642697606',
    'seed1/fedavg/averaged_grid.csv': 'd01eeed334f6505f6cd9f10924ea2395e5d6d58e39fcafe24f163e35a6b204ab',
    'seed1/fedavg/client2_grid.csv': '958f4162cd5456b1d22b7fd29ae52c1e25a8cd283d6fa10716c9828a8cc806ef',
    'seed1/fedavg/client3_grid.csv': '74dcd7ec31ed6ee78ad1b41bf47ac483c5c08dc132fb71a9eb8f89728e20ba05',
    'seed1/fedavg/final_p0.params': '3424efdf8346e3b5b128b489ea7a591d8aa0568342fc12ecdbdabd1bed8ef0ad',
    'seed1/fedavg/fused_grid_p0.csv': 'd01eeed334f6505f6cd9f10924ea2395e5d6d58e39fcafe24f163e35a6b204ab',
    'seed1/fedavg/metrics.jsonl': '865665c80ea13e8131d036787a5f2fa3006f01fe0383590701ac116bf1c11830',
    'seed1/feddf/averaged_grid.csv': 'd01eeed334f6505f6cd9f10924ea2395e5d6d58e39fcafe24f163e35a6b204ab',
    'seed1/feddf/client2_grid.csv': '958f4162cd5456b1d22b7fd29ae52c1e25a8cd283d6fa10716c9828a8cc806ef',
    'seed1/feddf/client3_grid.csv': '74dcd7ec31ed6ee78ad1b41bf47ac483c5c08dc132fb71a9eb8f89728e20ba05',
    'seed1/feddf/final_p0.params': '3424efdf8346e3b5b128b489ea7a591d8aa0568342fc12ecdbdabd1bed8ef0ad',
    'seed1/feddf/fused_grid_p0.csv': 'd01eeed334f6505f6cd9f10924ea2395e5d6d58e39fcafe24f163e35a6b204ab',
    'seed1/feddf/metrics.jsonl': '234a337dc70a8aa5af8eb6961120bfeea13f6cc50f2b8745f0b63cc7cc090627',
    'seed1/test.csv': 'a61af0da88c64a5b0a0307284a60d820156ea464112e0fdf1e4c832626017680',
    'seed1/test.csv.meta.json': 'de824e8896ab2175570f94e64c2bddc21e2d40a85673ee52bf65adbed418fff4',
    'seed1/train.csv': 'af60e63abe1731893bc5aa7cc8d8f57fe31074e2a47b34805636913909437687',
    'seed1/train.csv.meta.json': '3c1d2e8d58f67fe2ee6f5da3808c86bfee8980f0564a6753945a6a7dfadae384',
    'seed1/val.csv': '8b6fc5541fd428b09ce415f492b46aa84fc4a52734f7ecdddd68939cc23508fc',
    'seed1/val.csv.meta.json': 'ec59619ecbdfd749955d6feb01ee1cfec3a4c9222cded8041baf7c4642697606',
    'summary.json': '1d4bb5bb96c9afbc5bcf9a94e68d9363d0d3cac68d26a979832bca75002b3e75',
}

ROWS = {  # row: its settings over the table's feddf, heldout pool, relu, full precision, from_average, 40 steps
    "fedavg": {"strategy": "fedavg"},
    "fedprox": {"strategy": "fedprox", "prox_mu": 0.05},
    "fedavgm": {"strategy": "fedavgm", "server_momentum": 0.5},
    "feddf_heldout": {},
    "feddf_uniform_noise": {"pool": "uniform_noise"},
    "feddf_gaussian_noise": {"pool": "gaussian_noise"},
    "feddf_binary_ste_tanh": {"activation": "tanh", "precision": "binary_ste"},
    "feddf_from_previous": {"init_mode": "from_previous"},
    "feddf_short_schedule": {"max_steps": 4, "patience": 2},
}

ARTIFACT_INI = """\
[experiment]
schema_version = 1
seeds = 0, 1
output = {output}

[dataset]
classes = 3
per_class = 30
scale = 0.6
val_fraction = 0.2
save = true

[partition]
alpha = 0.1

[federated]
rounds = 2
clients = 4
participation = 0.5
local_epochs = 2
local_lr = 0.05
local_batch = 16
strategies = fedavg, feddf
prototypes = 2,8,3

[distillation]
max_steps = 40
patience = 15
base_lr = 0.01
pool = heldout
pool_size = 32
batch_size = 16

[evaluation]
target = relative:0.9
centralized_epochs = 5
grid = -3,3,11
grid_clients = true
"""


def platform_key() -> str:
    """The machine, the numpy version and the BLAS build numpy reports."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # a numpy without show_config's dict mode
        blas = "unknown BLAS"
    return f"{platform.machine()} numpy {np.__version__} {blas}"


def fleet_run(strategy: str = "feddf", client_prototypes=None):
    full = ff.make_gaussian_blobs(3, 60, None, 0.5, seed=1000)
    train, val = ff.split_train_val(full, 0.2, seed=2000)
    shards = [train.subset(ix) for ix in ff.dirichlet_partition(train.labels, ff.PartitionSpec(1.0, 5, 3000))]
    protos = [ff.Prototype("a", (2, 12, 3), "tanh", "binary_ste"), ff.Prototype("b", (2, 8, 3))]
    pool = ff.DistillPool.heldout(np.random.default_rng(3).normal(size=(45, 2)), 16)
    cfg = ff.FLConfig(
        rounds=4, client_count=5, participation=0.6, local_epochs=2, local_lr=0.1, local_batch=16,
        strategy=strategy, seed=0, drop_threshold=0.5, distill=ff.DistillConfig(20, 5, pool),
    )
    return ff.run_training(cfg, shards, val, protos, client_prototypes)


def table_run(row: str):
    """One prototype, 3 rounds of 3 of 4 label-skewed clients, with ROWS[row] over the table's defaults."""
    s = {"strategy": "feddf", "prox_mu": 0.0, "server_momentum": 0.0, "pool": "heldout", "activation": "relu",
         "precision": "full", "init_mode": "from_average", "max_steps": 40, "patience": 15, **ROWS[row]}
    full = ff.make_gaussian_blobs(3, 50, None, 0.6, seed=1001)
    train, val = ff.split_train_val(full, 0.25, seed=2001)
    shards = [train.subset(ix) for ix in ff.dirichlet_partition(train.labels, ff.PartitionSpec(0.1, 4, 3001))]
    pool = {
        "heldout": ff.DistillPool.heldout(np.random.default_rng(4).normal(size=(40, 2)), 16),
        "uniform_noise": ff.DistillPool.uniform_noise(-3.0, 3.0, 2, 16),
        "gaussian_noise": ff.DistillPool.gaussian_noise(2, 16),
    }[s["pool"]]
    cfg = ff.FLConfig(
        rounds=3, client_count=4, participation=0.75, local_epochs=3, local_lr=0.05, local_batch=16,
        strategy=s["strategy"], seed=0, prox_mu=s["prox_mu"], server_momentum=s["server_momentum"],
        distill=None if s["strategy"] != "feddf" else ff.DistillConfig(
            s["max_steps"], s["patience"], pool, 0.01, s["init_mode"]
        ),
    )
    return ff.run_training(cfg, shards, val, [ff.Prototype("p", (2, 10, 3), s["activation"], s["precision"])])


def artifact_run(tmp: Path) -> tuple[int, dict[str, str]]:
    """Run ARTIFACT_INI through the CLI into tmp/out; return its exit code and each written file's sha256."""
    (tmp / "exp.ini").write_text(ARTIFACT_INI.format(output=tmp / "out"))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["run", str(tmp / "exp.ini")])
    files = {}
    for path in sorted((tmp / "out").rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "metrics.jsonl":  # wall time is the one field a rerun changes
                data = re.sub(rb'"wall_ms": [^,}]*', b'"wall_ms"', data)
            files[path.relative_to(tmp / "out").as_posix()] = hashlib.sha256(data).hexdigest()
    return code, files


def digest(state, records) -> str:
    h = hashlib.sha256()
    for pid, pv in sorted(state.params.items()):
        h.update(pid.encode() + pv.values.tobytes())
    h.update(json.dumps([r.as_dict() for r in records], sort_keys=True).encode())
    return h.hexdigest()


def check_digest(found, pinned) -> None:
    if platform_key() == PLATFORM:
        assert found == pinned
    else:
        print(f"digests not compared: recorded on {PLATFORM}, running on {platform_key()}")


def test_feddf_on_a_fleet_gives_its_pinned_outputs():
    state, records = fleet_run()
    assert [r.as_dict() for r in records] == RECORDS
    assert any(r.dropped for r in records) and any(len(r.per_prototype) == 2 for r in records)
    check_digest(digest(state, records), DIGEST)


@pytest.mark.parametrize("row", ROWS)
def test_a_one_prototype_run_gives_its_pinned_outputs(row):
    state, records = table_run(row)
    assert [r.as_dict() for r in records] == TABLE[row][1]
    assert row.startswith("feddf") == any(r.distill_steps for r in records)
    check_digest(digest(state, records), TABLE[row][0])


def test_a_small_run_writes_its_pinned_files(tmp_path, monkeypatch):
    monkeypatch.delenv(OUTPUT_ENV_VAR, raising=False)
    code, files = artifact_run(tmp_path)
    assert code == 0 and sorted(files) == sorted(ARTIFACTS)
    check_digest(files, ARTIFACTS)


if __name__ == "__main__":
    strategy = sys.argv[1] if len(sys.argv) > 1 else "feddf"
    # feddf_hetero took its round-robin map as an argument; feddf assumes it
    state, records = fleet_run(strategy, ["a", "b", "a", "b", "a"] if strategy == "feddf_hetero" else None)
    print(f"PLATFORM = {platform_key()!r}")
    print(f"DIGEST = {digest(state, records)!r}")
    print(f"RECORDS = {json.loads(json.dumps([r.as_dict() for r in records]))!r}")
    print("TABLE = {  # row: (digest, each round's as_dict())")
    for row in ROWS:
        state, records = table_run(row)
        print(f"    {row!r}: ({digest(state, records)!r}, {json.loads(json.dumps([r.as_dict() for r in records]))!r}),")
    print("}")
    os.environ.pop(OUTPUT_ENV_VAR, None)
    with tempfile.TemporaryDirectory() as tmp:
        code, files = artifact_run(Path(tmp))
    print(f"# exit code {code}")
    print("ARTIFACTS = {  # written file: sha256, of metrics.jsonl with its wall_ms values cut")
    for name, sha in files.items():
        print(f"    {name!r}: {sha!r},")
    print("}")
