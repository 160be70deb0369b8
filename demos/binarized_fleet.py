"""Fusing a fleet of binarized clients into one full-precision student.

Clients train with sign-binarized weights (straight-through estimator on
the backward pass) and ship binarized parameters, as a bandwidth-starved
deployment would. The server cannot meaningfully average such weights, but
it can still distill the clients' ensemble logits into a full-precision
student. The script compares the binarized clients, their naive average,
and the distilled student on a shared test set.

Usage: python3 binarized_fleet.py [--seed N] [--clients K]
"""

import argparse

import numpy as np

import fedfusion as ff
from fedfusion.models import binarize_values

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--seed", type=int, default=0)
parser.add_argument("--clients", type=int, default=4)
args = parser.parse_args()
seed = args.seed

centers = np.array([[0.0, 2.0], [-2.0, -1.0], [2.0, -1.0]])
binary_proto = ff.Prototype("b", (2, 24, 24, 3), precision="binary_ste")
student_proto = ff.Prototype("s", (2, 24, 24, 3))

full = ff.make_gaussian_blobs(3, 200, centers, 0.5, seed=1000 + seed)
train, val = ff.split_train_val(full, 0.2, seed=2000 + seed)
test = ff.make_gaussian_blobs(3, 200, centers, 0.5, seed=3000 + seed)
spec = ff.PartitionSpec(2.0, args.clients, 4000 + seed)
shards = [train.subset(ix) for ix in ff.dirichlet_partition(train.labels, spec)]

clients = []
for k, shard in enumerate(shards):
    start = ff.init_params(binary_proto, 5000 + seed * 100 + k)
    trained = ff.client_local_update(
        start, shard, 200, 0.1, 32, np.random.default_rng(6000 + seed * 100 + k)
    )
    # what travels to the server: the binarized weights themselves
    wire = ff.ParamVector(binary_proto, binarize_values(binary_proto, trained.values))
    clients.append(wire)
    print(f"client {k}: {len(shard):>4} samples, "
          f"binarized test acc {ff.top1_accuracy(wire, test):.4f}")

weights = [len(s) for s in shards]
averaged = ff.average_params(clients, weights)
distill = ff.DistillConfig(
    max_steps=600, patience=150, pool=ff.DistillPool.uniform_noise(-4.0, 4.0, 2, 96)
)
init = ff.ParamVector(student_proto, averaged.values.copy())
fused, steps, _ = ff.feddf_fuse(
    clients, init, distill, val, np.random.default_rng(7000 + seed)
)

print()
print(f"ensemble of binarized clients  test acc {ff.ensemble_accuracy(clients, test):.4f}")
print(f"naive average of +-1 weights   test acc {ff.top1_accuracy(averaged, test):.4f}")
print(f"distilled full-precision student ({steps} steps) "
      f"test acc {ff.top1_accuracy(fused, test):.4f}")
