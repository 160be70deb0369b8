"""Synthetic datasets, label-skewed partitioning, and distillation input pools."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._errors import ShapeError


@dataclass
class Dataset:
    """Feature matrix plus integer labels; class_count is fixed at creation."""

    inputs: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self) -> None:
        x = np.ascontiguousarray(self.inputs, dtype=np.float64)
        y = np.ascontiguousarray(self.labels, dtype=np.int64)
        if x.ndim != 2:
            raise ShapeError(f"inputs must be 2-D, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ShapeError(f"labels shape {y.shape} does not match {x.shape[0]} rows")
        if x.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if not np.isfinite(x).all():
            raise ValueError("inputs contain non-finite values")
        if self.class_count < 1:
            raise ValueError("class_count must be positive")
        if y.min() < 0 or y.max() >= self.class_count:
            raise IndexError(f"labels must lie in [0, {self.class_count})")
        self.inputs = x
        self.labels = y

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset(self.inputs[idx], self.labels[idx], self.class_count)

    def class_histogram(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.class_count)


def ring_centers(class_count: int, radius: float = 2.0) -> np.ndarray:
    """Evenly spaced 2-D class centers on a circle."""
    angles = 2.0 * np.pi * np.arange(class_count) / class_count
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def make_gaussian_blobs(
    class_count: int,
    per_class: int,
    centers: np.ndarray | None = None,
    scale: float = 0.5,
    seed: int = 0,
) -> Dataset:
    """Isotropic Gaussian blob per class; centers default to a ring of radius 2."""
    if class_count < 1:
        raise ValueError("class_count must be positive")
    if per_class < 1:
        raise ValueError("per_class must be positive")
    if scale < 0:
        raise ValueError("scale must be non-negative")
    if centers is None:
        centers = ring_centers(class_count)
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] != class_count:
        raise ShapeError(f"centers must have shape ({class_count}, dim), got {centers.shape}")
    if len({tuple(c) for c in centers}) != class_count:
        raise ValueError("class centers must be distinct")
    rng = np.random.default_rng(seed)
    base = np.repeat(centers, per_class, axis=0)
    noise = rng.standard_normal(base.shape)
    inputs = base + scale * noise
    labels = np.repeat(np.arange(class_count, dtype=np.int64), per_class)
    return Dataset(inputs, labels, class_count)


@dataclass(frozen=True)
class PartitionSpec:
    """Label-skew partition parameters: concentration, client count, seed."""

    alpha: float
    client_count: int
    seed: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if self.client_count < 1:
            raise ValueError("client_count must be positive")


def dirichlet_partition(labels: np.ndarray, spec: PartitionSpec) -> list[np.ndarray]:
    """Split sample indices across clients with Dirichlet label skew.

    For each class, client proportions are drawn from Dir(alpha * p) with p
    the uniform prior over clients, then the class's (shuffled) indices are
    cut at the cumulative proportions. Shards are disjoint, cover all
    indices, and are returned sorted. More clients than samples is a
    ValueError; otherwise each empty shard is repaired by moving one
    randomly chosen sample from the largest shard, so no shard is empty.
    """
    y = np.asarray(labels)
    if y.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {y.shape}")
    if y.shape[0] < 1:
        raise ValueError("cannot partition an empty label array")
    k = spec.client_count
    if k > y.shape[0]:
        raise ValueError(f"cannot split {y.shape[0]} samples across {k} clients")
    rng = np.random.default_rng(spec.seed)
    conc = np.full(k, spec.alpha / k)
    parts: list[list[np.ndarray]] = [[] for _ in range(k)]
    for c in np.unique(y):
        idx = rng.permutation(np.flatnonzero(y == c))
        props = rng.dirichlet(conc)
        # tiny concentrations can underflow every gamma draw to zero; redraw
        while not np.isfinite(props).all():
            props = rng.dirichlet(conc)
        cuts = (np.cumsum(props) * len(idx)).astype(np.int64)[:-1]
        for j, piece in enumerate(np.split(idx, cuts)):
            parts[j].append(piece)
    shards = [
        np.sort(np.concatenate(p)) if p else np.empty(0, dtype=np.int64) for p in parts
    ]
    sizes = np.array([len(s) for s in shards])
    for j in range(k):
        if sizes[j] > 0:
            continue
        donor = int(np.argmax(sizes))  # k <= n: some shard holds two or more
        pick = int(rng.integers(sizes[donor]))
        moved = shards[donor][pick]
        shards[donor] = np.delete(shards[donor], pick)
        shards[j] = np.array([moved], dtype=np.int64)
        sizes[donor] -= 1
        sizes[j] = 1
    return shards


def label_entropy(labels: np.ndarray, class_count: int) -> float:
    """Shannon entropy (nats) of the empirical label distribution."""
    counts = np.bincount(np.asarray(labels), minlength=class_count)
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum() + 0.0)


class DistillPool:
    """Unlabeled input source for distillation batches; holds no draw state.

    Kinds: "heldout" draws without replacement from a fixed input matrix,
    reshuffling at each epoch boundary, through a cursor its caller threads
    (sample_distill_rows); "uniform_noise" and "gaussian_noise" synthesize
    fresh inputs per call (sample_distill_batch). Pools never carry labels.
    A heldout pool's input matrix is `inputs`; noise pools have none (None).
    """

    def __init__(self, kind: str, batch_size: int, *, inputs=None, dim=None, low=None, high=None):
        if kind not in ("heldout", "uniform_noise", "gaussian_noise"):
            raise ValueError(f"unknown pool kind {kind!r}")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.kind = kind
        self.batch_size = int(batch_size)
        self._inputs: np.ndarray | None = None
        if kind == "heldout":
            x = np.ascontiguousarray(inputs, dtype=np.float64)
            if x.ndim != 2 or x.shape[0] < 1:
                raise ShapeError("heldout pool needs a non-empty 2-D input matrix")
            self._inputs = x
            self.dim = x.shape[1]
        else:
            if dim is None or dim < 1:
                raise ValueError("noise pools need a positive dim")
            self.dim = int(dim)
            if kind == "uniform_noise":
                if low is None or high is None or not low < high:
                    raise ValueError("uniform_noise needs low < high")
                self.low = float(low)
                self.high = float(high)

    @staticmethod
    def heldout(inputs: np.ndarray, batch_size: int) -> "DistillPool":
        return DistillPool("heldout", batch_size, inputs=inputs)

    @staticmethod
    def uniform_noise(low: float, high: float, dim: int, batch_size: int) -> "DistillPool":
        return DistillPool("uniform_noise", batch_size, dim=dim, low=low, high=high)

    @staticmethod
    def gaussian_noise(dim: int, batch_size: int) -> "DistillPool":
        return DistillPool("gaussian_noise", batch_size, dim=dim)

    @property
    def inputs(self) -> np.ndarray | None:  # read-only; bench/record_reference.py reads _inputs
        return self._inputs


def sample_distill_rows(
    pool: DistillPool, rng: np.random.Generator, cursor: tuple = (None, 0)
) -> tuple[np.ndarray, tuple]:
    """(row indices into a heldout pool's inputs for its next batch, cursor after it).

    Draws without replacement, reshuffling at each epoch boundary; a batch
    that crosses the boundary takes the rest of one epoch and the start of
    the next. cursor = (this epoch's order, position in it); the fresh
    cursor (None, 0) starts a new epoch.
    """
    if pool.kind != "heldout":
        raise ValueError(f"{pool.kind} pools have no rows to sample")
    order, pos = cursor
    parts = []
    need = pool.batch_size
    n = pool.inputs.shape[0]
    while need > 0:
        if order is None or pos >= n:
            order, pos = rng.permutation(n), 0
        take = min(n - pos, need)
        parts.append(order[pos : pos + take])
        pos += take
        need -= take
    return np.concatenate(parts), (order, pos)


def sample_distill_batch(pool: DistillPool, rng: np.random.Generator) -> np.ndarray:
    """Next batch of a noise pool's inputs, shape (batch_size, dim)."""
    size = (pool.batch_size, pool.dim)
    if pool.kind == "uniform_noise":
        return rng.uniform(pool.low, pool.high, size=size)
    if pool.kind == "gaussian_noise":
        return rng.standard_normal(size=size)
    raise ValueError("heldout pools hand out row indices (sample_distill_rows), not batches")


def split_train_val(dataset: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified split; per-class validation counts are round(fraction * n_c)."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    val_parts = []
    for c in range(dataset.class_count):
        idx = np.flatnonzero(dataset.labels == c)
        if len(idx) == 0:
            continue
        perm = rng.permutation(idx)
        n_val = int(round(val_fraction * len(idx)))
        val_parts.append(perm[:n_val])
    val_idx = np.sort(np.concatenate(val_parts)) if val_parts else np.empty(0, dtype=np.int64)
    mask = np.ones(len(dataset), dtype=bool)
    mask[val_idx] = False
    train_idx = np.flatnonzero(mask)
    if len(val_idx) == 0 or len(train_idx) == 0:
        raise ValueError(
            f"val_fraction {val_fraction} leaves an empty side for {len(dataset)} samples"
        )
    return dataset.subset(train_idx), dataset.subset(val_idx)


def save_dataset(dataset: Dataset, path) -> None:
    """CSV with header x0..x{d-1},label plus a JSON sidecar (<path>.meta.json)."""
    d = dataset.dim
    header = ",".join([f"x{i}" for i in range(d)] + ["label"])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row, lab in zip(dataset.inputs, dataset.labels):
            cells = ["%.17g" % v for v in row]
            cells.append(str(int(lab)))
            fh.write(",".join(cells) + "\n")
    meta = {"class_count": dataset.class_count, "n": len(dataset), "d": d}
    with open(str(path) + ".meta.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")


def load_dataset(path) -> Dataset:
    """Inverse of save_dataset; validates the sidecar against the CSV."""
    with open(str(path) + ".meta.json") as fh:
        meta = json.load(fh)
    d = int(meta["d"])
    with open(path) as fh:
        header = fh.readline().strip()
        expect = ",".join([f"x{i}" for i in range(d)] + ["label"])
        if header != expect:
            raise ValueError(f"unexpected CSV header {header!r}")
        raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    if raw.shape != (int(meta["n"]), d + 1):
        raise ValueError(
            f"CSV shape {raw.shape} does not match sidecar (n={meta['n']}, d={d})"
        )
    return Dataset(raw[:, :d], raw[:, d].astype(np.int64), int(meta["class_count"]))
