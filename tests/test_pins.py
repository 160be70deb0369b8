"""Pinned outputs of a small fleet run: a change that moves one of its bits fails here.

The fleet is feddf on two prototypes, a binary_ste one and a full-precision
one, with clients assigned round-robin, a drop threshold and a heldout pool
whose epochs straddle fusions and rounds. Its values were recorded by running
this file as a script, which prints them:

    PYTHONPATH=src python tests/test_pins.py [strategy]

They were recorded with strategy feddf_hetero, the name several-prototype
fusion had before every strategy ran on a fleet, so the pin also shows that
feddf on a fleet is the old feddf_hetero bit for bit.

The digest (sha256 over the final parameters and every record's as_dict())
is compared only on the platform it was recorded on: the machine, the numpy
version and the BLAS build numpy reports. Another BLAS may round a matmul
differently, so elsewhere the test compares the records alone: the per-round
accuracies, distillation steps and client ids, which are exact counts.
"""

import hashlib
import json
import platform
import sys

import numpy as np

import fedfusion as ff

PLATFORM = "x86_64 numpy 2.4.6 scipy-openblas 0.3.31.188.0"
DIGEST = "c2fb023e76f6ad2a3e5d42f4979bdf0c70288fd5ec993ba17257ca854b46de44"
RECORDS = [  # each round's as_dict()
    {'round': 1, 'sampled': [2, 3, 4], 'dropped': [3], 'acc_averaged': 0.9722222222222222, 'acc_fused': 0.9722222222222222, 'acc_ensemble': 0.7777777777777778, 'distill_steps': 5, 'acc_per_prototype': {'a': {'acc_averaged': 0.9722222222222222, 'acc_fused': 0.9722222222222222}}},
    {'round': 2, 'sampled': [1, 3, 4], 'dropped': [3], 'acc_averaged': 0.7916666666666666, 'acc_fused': 0.8611111111111112, 'acc_ensemble': 1.0, 'distill_steps': 14, 'acc_per_prototype': {'a': {'acc_averaged': 0.9166666666666666, 'acc_fused': 0.9166666666666666}, 'b': {'acc_averaged': 0.6666666666666666, 'acc_fused': 0.8055555555555556}}},
    {'round': 3, 'sampled': [0, 3, 4], 'dropped': [], 'acc_averaged': 0.7777777777777777, 'acc_fused': 0.7916666666666666, 'acc_ensemble': 1.0, 'distill_steps': 12, 'acc_per_prototype': {'a': {'acc_averaged': 0.8888888888888888, 'acc_fused': 0.9166666666666666}, 'b': {'acc_averaged': 0.6666666666666666, 'acc_fused': 0.6666666666666666}}},
    {'round': 4, 'sampled': [0, 3, 4], 'dropped': [], 'acc_averaged': 0.7638888888888888, 'acc_fused': 0.7638888888888888, 'acc_ensemble': 1.0, 'distill_steps': 15, 'acc_per_prototype': {'a': {'acc_averaged': 0.8611111111111112, 'acc_fused': 0.8611111111111112}, 'b': {'acc_averaged': 0.6666666666666666, 'acc_fused': 0.6666666666666666}}},
]


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


def digest(state, records) -> str:
    h = hashlib.sha256()
    for pid, pv in sorted(state.params.items()):
        h.update(pid.encode() + pv.values.tobytes())
    h.update(json.dumps([r.as_dict() for r in records], sort_keys=True).encode())
    return h.hexdigest()


def test_feddf_on_a_fleet_gives_its_pinned_outputs():
    state, records = fleet_run()
    assert [r.as_dict() for r in records] == RECORDS
    assert any(r.dropped for r in records) and any(len(r.per_prototype) == 2 for r in records)
    if platform_key() == PLATFORM:
        assert digest(state, records) == DIGEST
    else:
        print(f"digest not compared: recorded on {PLATFORM}, running on {platform_key()}")


if __name__ == "__main__":
    strategy = sys.argv[1] if len(sys.argv) > 1 else "feddf"
    # feddf_hetero took its round-robin map as an argument; feddf assumes it
    state, records = fleet_run(strategy, ["a", "b", "a", "b", "a"] if strategy == "feddf_hetero" else None)
    print(f"PLATFORM = {platform_key()!r}")
    print(f"DIGEST = {digest(state, records)!r}")
    print(f"RECORDS = {json.loads(json.dumps([r.as_dict() for r in records]))!r}")
