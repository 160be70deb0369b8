"""Why averaging blurs decision boundaries and distillation repairs them.

Two clients see complementary halves of a 3-class blob problem (client A
never sees class 2, client B never sees class 0) and train from independent
initializations. Averaging their weights mixes two unrelated solutions of
the same network; distilling their ensemble into a student recovers a sharp
boundary. The script prints test accuracies and exports decision-boundary
grids as CSV for plotting.

Usage: python3 boundary_story.py [--seed N] [--outdir DIR]
"""

import argparse
import os

import numpy as np

import fedfusion as ff
from fedfusion.harness import decision_boundary_grid, save_boundary_grid

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--seed", type=int, default=0)
parser.add_argument("--outdir", default="boundary_out")
args = parser.parse_args()
seed = args.seed
os.makedirs(args.outdir, exist_ok=True)

centers = np.array([[0.0, 2.0], [-2.0, -1.0], [2.0, -1.0]])
proto = ff.Prototype("m", (2, 32, 32, 3))

full = ff.make_gaussian_blobs(3, 150, centers, 0.5, seed=1000 + seed)
train, val = ff.split_train_val(full, 0.2, seed=2000 + seed)
test = ff.make_gaussian_blobs(3, 150, centers, 0.5, seed=3000 + seed)

# complementary shards: A gets class 0 + half of class 1, B the rest
i0 = np.flatnonzero(train.labels == 0)
i1 = np.flatnonzero(train.labels == 1)
i2 = np.flatnonzero(train.labels == 2)
half = len(i1) // 2
shard_a = train.subset(np.sort(np.concatenate([i0, i1[:half]])))
shard_b = train.subset(np.sort(np.concatenate([i2, i1[half:]])))
print(f"client A: {len(shard_a)} samples, classes {sorted(set(shard_a.labels.tolist()))}")
print(f"client B: {len(shard_b)} samples, classes {sorted(set(shard_b.labels.tolist()))}")

model_a = ff.client_local_update(
    ff.init_params(proto, 4000 + seed), shard_a, 200, 0.05, 32,
    np.random.default_rng(5000 + seed),
)
model_b = ff.client_local_update(
    ff.init_params(proto, 14000 + seed), shard_b, 200, 0.05, 32,
    np.random.default_rng(6000 + seed),
)

averaged = ff.average_params([model_a, model_b], [len(shard_a), len(shard_b)])
distill = ff.DistillConfig(
    max_steps=800, patience=200, pool=ff.DistillPool.uniform_noise(-3.0, 3.0, 2, 60)
)
fused, steps, _ = ff.feddf_fuse(
    [model_a, model_b], averaged, distill, val, np.random.default_rng(7000 + seed)
)

print()
print(f"distillation ran {steps} steps")
print(f"client A alone   test acc {ff.top1_accuracy(model_a, test):.4f}")
print(f"client B alone   test acc {ff.top1_accuracy(model_b, test):.4f}")
print(f"ensemble (logit mean) acc {ff.ensemble_accuracy([model_a, model_b], test):.4f}")
print(f"weight average   test acc {ff.top1_accuracy(averaged, test):.4f}")
print(f"distilled fusion test acc {ff.top1_accuracy(fused, test):.4f}")

for name, params in [
    ("client_a", model_a),
    ("client_b", model_b),
    ("averaged", averaged),
    ("fused", fused),
]:
    xs, ys, probs = decision_boundary_grid(params, (-4.0, 4.0), 81)
    path = os.path.join(args.outdir, f"grid_{name}.csv")
    save_boundary_grid(xs, ys, probs, path)
    print(f"wrote {path}")
