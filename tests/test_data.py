"""Synthetic data, Dirichlet partitioning, distillation pools, persistence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fedfusion as ff
from fedfusion.data import (
    Dataset,
    DistillPool,
    PartitionSpec,
    dirichlet_partition,
    label_entropy,
    load_dataset,
    make_gaussian_blobs,
    ring_centers,
    sample_distill_batch,
    sample_distill_rows,
    save_dataset,
    split_train_val,
)


def test_blobs_shapes_and_grouped_labels():
    ds = make_gaussian_blobs(4, 25, None, 0.5, seed=0)
    assert ds.inputs.shape == (100, 2) and ds.labels.shape == (100,)
    assert np.array_equal(ds.labels, np.repeat(np.arange(4), 25))
    assert np.array_equal(ds.class_histogram(), np.full(4, 25))
    assert len(ds) == 100


def test_blobs_zero_scale_sits_on_centers():
    centers = np.array([[1.0, -2.0], [0.5, 3.0]])
    ds = make_gaussian_blobs(2, 10, centers, 0.0, seed=5)
    assert np.array_equal(ds.inputs, np.repeat(centers, 10, axis=0))


def test_blobs_deterministic_per_seed():
    a = make_gaussian_blobs(3, 50, None, 0.5, seed=7)
    b = make_gaussian_blobs(3, 50, None, 0.5, seed=7)
    c = make_gaussian_blobs(3, 50, None, 0.5, seed=8)
    assert np.array_equal(a.inputs, b.inputs)
    assert not np.array_equal(a.inputs, c.inputs)


def test_ring_centers_geometry():
    centers = ring_centers(8, 2.5)
    assert centers.shape == (8, 2)
    assert np.abs(np.linalg.norm(centers, axis=1) - 2.5).max() < 1e-12
    gaps = np.linalg.norm(centers[1:] - centers[:-1], axis=1)
    assert gaps.min() > 1.0  # distinct, evenly spread


def test_dataset_validation_and_subset():
    with pytest.raises(IndexError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), 2)  # label out of range
    ds = make_gaussian_blobs(3, 10, None, 0.5, seed=0)
    sub = ds.subset(np.array([0, 10, 20]))
    assert np.array_equal(sub.labels, np.array([0, 1, 2]))
    assert sub.class_count == 3


def test_partition_disjoint_cover_and_determinism():
    rng = np.random.default_rng(0)
    for _ in range(25):
        classes = int(rng.integers(2, 8))
        per_class = int(rng.integers(5, 40))
        labels = np.repeat(np.arange(classes), per_class)
        spec = PartitionSpec(
            alpha=float(10.0 ** rng.uniform(-2, 2)),
            client_count=int(rng.integers(2, 12)),
            seed=int(rng.integers(0, 1000)),
        )
        shards = dirichlet_partition(labels, spec)
        assert len(shards) == spec.client_count
        merged = np.sort(np.concatenate(shards))
        assert np.array_equal(merged, np.arange(labels.shape[0]))
        again = dirichlet_partition(labels, spec)
        assert all(np.array_equal(a, b) for a, b in zip(shards, again))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    labels=st.lists(st.integers(0, 6), min_size=1, max_size=80),
    alpha=st.floats(1e-3, 1e3),
    clients=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
)
def test_partition_is_an_exact_cover_of_nonempty_sorted_shards(labels, alpha, clients, seed):
    labels = np.array(labels)
    clients = min(clients, len(labels))
    shards = dirichlet_partition(labels, PartitionSpec(alpha, clients, seed))
    assert len(shards) == clients
    assert all(len(s) > 0 and np.array_equal(s, np.sort(s)) for s in shards)
    counts = np.bincount(np.concatenate(shards), minlength=len(labels))
    assert counts.tolist() == [1] * len(labels)  # every index in exactly one shard


def test_partition_alpha_100_spreads_classes():
    labels = np.repeat(np.arange(10), 200)
    for seed in range(5):
        shards = dirichlet_partition(labels, PartitionSpec(100.0, 20, seed))
        for ix in shards:
            assert len(np.unique(labels[ix])) >= 9


def test_partition_alpha_tiny_concentrates():
    labels = np.repeat(np.arange(10), 200)
    shares = []
    for seed in range(10):
        shards = dirichlet_partition(labels, PartitionSpec(0.01, 20, seed))
        for ix in shards:
            hist = np.bincount(labels[ix], minlength=10)
            shares.append(hist.max() / hist.sum())
    assert np.median(shares) >= 0.95


def test_partition_entropy_monotone_in_alpha():
    labels = np.repeat(np.arange(10), 200)
    means = []
    for alpha in (0.01, 0.1, 1.0, 100.0):
        ents = []
        for seed in range(10):
            shards = dirichlet_partition(labels, PartitionSpec(alpha, 20, seed))
            ents += [label_entropy(labels[ix], 10) for ix in shards]
        means.append(float(np.mean(ents)))
    assert means[0] < means[1] < means[2] < means[3]


def test_partition_rebalance_leaves_no_empty_shard():
    labels = np.repeat(np.arange(4), 10)
    shards = dirichlet_partition(labels, PartitionSpec(0.001, 8, seed=3))
    assert all(len(ix) >= 1 for ix in shards)
    merged = np.sort(np.concatenate(shards))
    assert np.array_equal(merged, np.arange(40))


def test_partition_rejects_more_clients_than_samples():
    labels = np.repeat(np.arange(5), 1)
    with pytest.raises(ValueError, match="cannot split 5 samples across 8 clients"):
        dirichlet_partition(labels, PartitionSpec(1.0, 8, seed=0))
    shards = dirichlet_partition(labels, PartitionSpec(1.0, 5, seed=0))
    assert sorted(len(ix) for ix in shards) == [1] * 5


@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_partition_spec_rejects_non_finite_alpha(alpha):
    # an all-inf concentration makes every rng.dirichlet draw NaN, so the redraw
    # loop of dirichlet_partition would never end; the spec refuses it up front
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        PartitionSpec(alpha, 4, seed=0)


def test_label_entropy_values():
    assert label_entropy(np.array([0, 1, 0, 1]), 2) == pytest.approx(math.log(2.0), abs=1e-12)
    single = label_entropy(np.array([3, 3, 3]), 5)
    assert single == 0.0 and math.copysign(1.0, single) == 1.0
    mixed = label_entropy(np.array([0, 0, 1]), 2)
    expect = -(2.0 / 3.0) * math.log(2.0 / 3.0) - (1.0 / 3.0) * math.log(1.0 / 3.0)
    assert mixed == pytest.approx(expect, abs=1e-12)
    assert label_entropy(np.array([], dtype=np.int64), 4) == 0.0


def test_uniform_pool_bounds_and_determinism():
    pool = DistillPool.uniform_noise(-3.0, 3.0, 2, 40)
    a = sample_distill_batch(pool, np.random.default_rng(0))
    b = sample_distill_batch(DistillPool.uniform_noise(-3.0, 3.0, 2, 40), np.random.default_rng(0))
    assert a.shape == (40, 2)
    assert a.min() >= -3.0 and a.max() <= 3.0
    assert np.array_equal(a, b)
    assert pool.dim == 2


def test_gaussian_pool_moments():
    pool = DistillPool.gaussian_noise(2, 2000)
    x = sample_distill_batch(pool, np.random.default_rng(1))
    assert x.shape == (2000, 2)
    assert np.abs(x.mean(axis=0)).max() < 0.1
    assert np.abs(x.std(axis=0) - 1.0).max() < 0.1


def test_heldout_pool_epochs_draw_without_replacement():
    inputs = np.arange(20.0).reshape(10, 2)
    pool = DistillPool.heldout(inputs, 5)
    rng = np.random.default_rng(0)
    first, cursor = sample_distill_rows(pool, rng)
    second, _ = sample_distill_rows(pool, rng, cursor)
    assert sorted(np.concatenate([first, second]).tolist()) == list(range(10))  # one full epoch, no repeats

    full = DistillPool.heldout(inputs, 10)
    rows, _ = sample_distill_rows(full, np.random.default_rng(1))
    assert sorted(rows.tolist()) == list(range(10))


def test_the_fresh_cursor_restarts_the_epoch():
    pool = DistillPool.heldout(np.arange(20.0).reshape(10, 2), 5)
    first, cursor = sample_distill_rows(pool, np.random.default_rng(0))
    again, again_cursor = sample_distill_rows(pool, np.random.default_rng(0), (None, 0))
    assert np.array_equal(first, again)
    assert again_cursor[1] == cursor[1] == 5 and np.array_equal(again_cursor[0], cursor[0])


@pytest.mark.parametrize("rows, batch", [(10, 4), (10, 10), (10, 25), (7, 3)])
def test_a_threaded_cursor_slices_one_stream_of_epoch_permutations(rows, batch):
    pool = DistillPool.heldout(np.arange(2.0 * rows).reshape(rows, 2), batch)
    held = dict(vars(pool))
    rng, cursor, drawn = np.random.default_rng(3), (None, 0), []
    for _ in range(7):  # crosses epoch boundaries, or several epochs per batch
        taken, cursor = sample_distill_rows(pool, rng, cursor)
        assert taken.shape == (batch,)
        drawn.append(taken)
    ref = np.random.default_rng(3)  # epochs are drawn as they are needed, one permutation each
    stream = np.concatenate([ref.permutation(rows) for _ in range(-(-7 * batch // rows))])
    assert np.array_equal(np.concatenate(drawn), stream[: 7 * batch])
    assert rng.bit_generator.state == ref.bit_generator.state
    assert cursor[1] == 7 * batch - (len(stream) - rows)
    assert vars(pool).keys() == held.keys() and all(vars(pool)[k] is v for k, v in held.items())


def test_only_heldout_pools_have_rows():
    inputs = np.arange(20.0).reshape(10, 2)
    heldout = DistillPool.heldout(inputs, 4)
    assert np.array_equal(heldout.inputs, inputs)
    with pytest.raises(ValueError, match="row indices"):
        sample_distill_batch(heldout, np.random.default_rng(0))
    for pool in (DistillPool.uniform_noise(-1.0, 1.0, 2, 4), DistillPool.gaussian_noise(2, 4)):
        assert pool.inputs is None
        with pytest.raises(ValueError):
            sample_distill_rows(pool, np.random.default_rng(0))


def test_pools_expose_no_labels():
    ds = make_gaussian_blobs(3, 20, None, 0.5, seed=0)
    pool = DistillPool.heldout(ds.inputs, 8)
    stored = vars(pool)
    assert not any("label" in name for name in stored)
    for value in stored.values():
        if isinstance(value, np.ndarray) and value.ndim == 1:
            assert not np.shares_memory(value, ds.labels)


def test_pool_validation():
    with pytest.raises(ValueError):
        DistillPool.uniform_noise(3.0, -3.0, 2, 10)
    with pytest.raises(ValueError):
        DistillPool.gaussian_noise(0, 10)
    with pytest.raises(Exception):
        DistillPool.heldout(np.zeros((0, 2)), 4)


def test_split_train_val_stratified():
    ds = make_gaussian_blobs(5, 40, None, 0.5, seed=2)
    train, val = split_train_val(ds, 0.25, seed=0)
    assert len(train) + len(val) == len(ds)
    for c in range(5):
        n_val = int((val.labels == c).sum())
        assert abs(n_val - 0.25 * 40) <= 1
    both = np.vstack([train.inputs, val.inputs])
    assert np.array_equal(
        np.sort(both.view([("", both.dtype)] * 2), axis=0),
        np.sort(ds.inputs.view([("", ds.inputs.dtype)] * 2), axis=0),
    )
    t2, v2 = split_train_val(ds, 0.25, seed=0)
    assert np.array_equal(train.inputs, t2.inputs) and np.array_equal(val.inputs, v2.inputs)


def test_split_train_val_errors():
    ds = make_gaussian_blobs(2, 10, None, 0.5, seed=0)
    with pytest.raises(ValueError):
        split_train_val(ds, 0.0, seed=0)
    with pytest.raises(ValueError):
        split_train_val(ds, 0.01, seed=0)  # rounds to an empty validation side


def test_dataset_csv_roundtrip_bitwise(tmp_path):
    ds = make_gaussian_blobs(3, 15, None, 0.7, seed=9)
    path = tmp_path / "blobs.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.labels, ds.labels)
    assert back.class_count == ds.class_count
    header = path.read_text().splitlines()[0]
    assert header == "x0,x1,label"


def test_dataset_csv_rejects_corrupt_header(tmp_path):
    ds = make_gaussian_blobs(2, 5, None, 0.5, seed=0)
    path = tmp_path / "blobs.csv"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    lines[0] = "a,b,c"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_dataset(path)
