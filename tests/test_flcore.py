"""Federated rounds: sampling, local training, fusion, strategy degeneracies."""

import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fedfusion as ff
from fedfusion._errors import ConfigError, ShapeError
from fedfusion import flcore, numerics
from fedfusion.models import ParamVector, Prototype, binarize_values, init_params, predict_logits, unflatten
from fedfusion.flcore import (
    DistillConfig,
    FLConfig,
    ServerState,
    client_local_update,
    client_rng,
    ensemble_accuracy,
    ensemble_logits,
    feddf_fuse,
    run_round,
    run_training,
    sample_clients,
    sampling_rng,
    top1_accuracy,
)


def small_task(seed=0, classes=3, clients=5, alpha=1.0):
    full = ff.make_gaussian_blobs(classes, 60, None, 0.5, seed=1000 + seed)
    train, val = ff.split_train_val(full, 0.2, seed=2000 + seed)
    shards = [
        train.subset(ix)
        for ix in ff.dirichlet_partition(train.labels, ff.PartitionSpec(alpha, clients, 3000 + seed))
    ]
    proto = Prototype("m", (2, 12, classes))
    return train, val, shards, proto


def small_cfg(strategy, rounds=3, **kw):
    defaults = dict(
        rounds=rounds, client_count=5, participation=0.6, local_epochs=2,
        local_lr=0.05, local_batch=16, strategy=strategy, seed=0,
    )
    defaults.update(kw)
    return FLConfig(**defaults)


def uniform_pool(batch=20):
    return ff.DistillPool.uniform_noise(-3.0, 3.0, 2, batch)


def over_gate_cfg(strategy, **kw):
    """small_cfg with enough local steps per round for run_training to fork workers."""
    cfg = small_cfg(strategy, local_epochs=40, local_batch=8, **kw)
    _, _, shards, _ = small_task()
    ids = sample_clients(cfg.client_count, cfg.participation, sampling_rng(cfg.seed, 1))
    assert sum(cfg.local_epochs * -(-len(shards[k]) // cfg.local_batch) for k in ids) >= flcore._POOL_MIN_STEPS
    return cfg


@pytest.fixture(autouse=True)
def no_worker_outlives_its_test():
    """A pool that outlives run_training or the scorer_workers fixture fails the test that made it."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def pooled_rounds(monkeypatch):
    """Two usable CPUs on any host; returns, per run_training round, whether it trained in forked workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pooled, sent = [], []
    run_jobs, submit = flcore._Workers.map, concurrent.futures.ProcessPoolExecutor.submit

    def spy(self, fn, jobs, label):
        sent.clear()
        try:
            return run_jobs(self, fn, jobs, label)
        finally:
            if self.size:  # run_training's workers, made with its prototypes; run_round alone runs its jobs in-process
                pooled.append(bool(sent))

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit", lambda pool, *a: sent.append(1) or submit(pool, *a))
    monkeypatch.setattr(flcore._Workers, "map", spy)
    return pooled


def test_sample_clients_count_sorted_unique():
    ids = sample_clients(20, 0.4, sampling_rng(0, 1))
    assert ids.shape == (8,)
    assert np.array_equal(ids, np.sort(ids))
    assert len(set(ids.tolist())) == 8
    assert ids.min() >= 0 and ids.max() < 20
    assert np.array_equal(sample_clients(20, 1.0, sampling_rng(0, 1)), np.arange(20))
    again = sample_clients(20, 0.4, sampling_rng(0, 1))
    assert np.array_equal(ids, again)
    other_round = sample_clients(20, 0.4, sampling_rng(0, 2))
    assert not np.array_equal(ids, other_round)


def test_sample_clients_count_is_the_exact_ceiling():
    """participation k/100 of n clients samples ceil(k * n / 100), even where the float
    product lands just above an integer (0.55 * 100 == 55.00000000000001)."""
    wrong = [
        (k, n)
        for k in range(1, 101)
        for n in range(1, 101)
        if len(sample_clients(n, k / 100, sampling_rng(0, 1))) != -(-k * n // 100)
    ]
    assert wrong == []


def test_sample_clients_validation():
    with pytest.raises(ConfigError):
        sample_clients(0, 0.5, sampling_rng(0, 1))
    with pytest.raises(ConfigError):
        sample_clients(5, 0.0, sampling_rng(0, 1))
    with pytest.raises(ConfigError):
        sample_clients(5, 1.5, sampling_rng(0, 1))


def test_top1_accuracy_hand_case():
    proto = Prototype("m", (1, 2))
    # logits = [x*1 + 0, x*(-1) + 0]: class 0 wins for x > 0, tie at x = 0 -> class 0
    pv = ParamVector(proto, np.array([1.0, -1.0, 0.0, 0.0]))
    ds = ff.Dataset(np.array([[2.0], [-1.0], [0.0]]), np.array([0, 1, 0]), 2)
    assert top1_accuracy(pv, ds) == 1.0


def test_accuracy_counts_hits_as_the_mean_did_bitwise():
    for n in range(1, 401):
        assert all(c / n == float((np.arange(n) < c).mean()) for c in range(n + 1))
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(400, 10))
    ds = ff.Dataset(rng.normal(size=(400, 2)), rng.integers(0, 10, 400), 10)
    assert flcore._accuracy(logits, ds) == float((np.argmax(logits, axis=1) == ds.labels).mean())


def test_local_update_zero_epochs_copies_start():
    train, _, shards, proto = small_task()
    start = init_params(proto, 0)
    out = client_local_update(start, shards[0], 0, 0.1, 16, np.random.default_rng(0))
    assert out is not start
    assert np.array_equal(out.values, start.values)


def test_local_update_full_batch_equals_plain_gradient_step():
    ds = ff.make_gaussian_blobs(3, 30, None, 0.5, seed=3)
    proto = Prototype("m", (2, 8, 3))
    start = init_params(proto, 5)
    out = client_local_update(start, ds, 1, 0.1, len(ds), np.random.default_rng(7))
    manual = start.values - 0.1 * numerics.grad("ce", start, ds.inputs, ds.labels)
    assert np.abs(out.values - manual).max() < 1e-12


@pytest.mark.filterwarnings("error")  # no step runs, so numpy never warns
def test_an_infinite_learning_rate_is_refused_before_any_step():
    _, _, shards, proto = small_task()
    with pytest.raises(ValueError, match="^base_lr must be finite and positive$"):
        numerics.OptimizerState.sgd(float("inf"))
    with pytest.raises(ValueError, match="^base_lr must be finite and positive$"):
        numerics.OptimizerState.adam(float("inf"), 4)
    with pytest.raises(ValueError, match="^base_lr must be finite and positive$"):
        client_local_update(init_params(proto, 0), shards[0], 1, float("inf"), 8, np.random.default_rng(0))


def test_local_update_determinism():
    train, _, shards, proto = small_task()
    start = init_params(proto, 1)
    a = client_local_update(start, shards[0], 3, 0.05, 8, np.random.default_rng(42))
    b = client_local_update(start, shards[0], 3, 0.05, 8, np.random.default_rng(42))
    assert np.array_equal(a.values, b.values)


def reference_local_update(start, shard, epochs, lr, batch_size, rng, prox_mu):
    """client_local_update written with the public numerics.grad and opt_step."""
    params = start.copy()
    state = numerics.OptimizerState.sgd(lr)
    for _ in range(epochs):
        order = rng.permutation(len(shard))
        for lo in range(0, len(shard), batch_size):
            sel = order[lo : lo + batch_size]
            g = numerics.grad("ce", params, shard.inputs[sel], labels=shard.labels[sel])
            if prox_mu != 0.0:
                g = g + prox_mu * (params.values - start.values)
            params, state = numerics.opt_step(state, params, g)
    return params


@pytest.mark.parametrize(
    "widths, rows, batch", [((2, 64, 10), 1, 32), ((2, 8, 3), 37, 8), ((2, 32, 32, 10), 159, 32)]
)
@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("precision", ["full", "binary_ste"])
@pytest.mark.parametrize("mu", [0.0, 0.05])
def test_local_update_equals_grad_and_opt_step_loop_bitwise(widths, rows, batch, activation, precision, mu):
    rng = np.random.default_rng(rows)
    shard = ff.Dataset(rng.normal(size=(rows, widths[0])), rng.integers(0, widths[-1], rows), widths[-1])
    proto = Prototype("m", widths, activation, precision)
    start = init_params(proto, 3)
    out = client_local_update(start, shard, 3, 0.05, batch, np.random.default_rng(9), mu)
    ref = reference_local_update(start, shard, 3, 0.05, batch, np.random.default_rng(9), mu)
    assert np.array_equal(out.values, ref.values)
    assert out.prototype == proto


@st.composite
def training_shapes(draw):
    """A prototype of random widths, activation and precision, and a seed for its data."""
    widths = (2, *draw(st.lists(st.integers(1, 12), max_size=2)), draw(st.integers(2, 5)))
    activation = draw(st.sampled_from(["relu", "tanh"]))
    precision = draw(st.sampled_from(["full", "binary_ste"]))
    return Prototype("h", widths, activation, precision), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    shape=training_shapes(),
    batch=st.integers(1, 12),
    full_batches=st.integers(0, 3),
    rest=st.integers(0, 11),
    mu=st.sampled_from([0.0, 0.05]),
)
def test_local_update_equals_the_reference_loop_on_random_shapes(shape, batch, full_batches, rest, mu):
    """rows = full_batches * batch + rest: a ragged last batch gives one trainer two batch sizes."""
    proto, seed = shape
    rows = max(1, full_batches * batch + rest % batch)
    rng = np.random.default_rng(seed)
    classes = proto.n_classes
    shard = ff.Dataset(rng.normal(size=(rows, 2)), rng.integers(0, classes, rows), classes)
    start = ParamVector(proto, rng.normal(scale=0.5, size=proto.n_params))
    out = client_local_update(start, shard, 3, 0.05, batch, np.random.default_rng(seed), mu)
    ref = reference_local_update(start, shard, 3, 0.05, batch, np.random.default_rng(seed), mu)
    assert np.array_equal(out.values, ref.values)


def test_local_update_checks_a_shard_mutated_after_construction():
    train, _, shards, proto = small_task()
    start = init_params(proto, 0)
    shard = shards[0].subset(np.arange(len(shards[0])))
    shard.inputs[-1, 0] = np.nan
    with pytest.raises(ValueError, match="inputs contain non-finite values"):
        client_local_update(start, shard, 1, 0.1, 4, np.random.default_rng(0))
    shard = shards[0].subset(np.arange(len(shards[0])))
    shard.labels[-1] = proto.n_classes
    with pytest.raises(IndexError):
        client_local_update(start, shard, 1, 0.1, 4, np.random.default_rng(0))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_client_whose_gradient_overflows_under_finite_logits_fails_its_first_step(monkeypatch):
    proto = Prototype("c", (2, 4, 3))
    values = np.zeros(proto.n_params)
    (w1, _), (w2, _) = unflatten(proto, values)
    w1[:], w2[:, 0] = 1e-300, 1e300  # hidden units of 2e-291 give logits of 8e9; the first layer's gradient is inf
    start, shard = ParamVector(proto, values), ff.Dataset(np.full((4, 2), 1e9), np.array([1, 2, 1, 2]), 3)
    assert np.isfinite(predict_logits(start, shard.inputs)).all()
    g = numerics.grad("ce", start, shard.inputs[:2], shard.labels[:2])
    assert not np.isfinite(g).all()
    with pytest.raises(ValueError, match="^gradient contains non-finite values$"):
        numerics.opt_step(numerics.OptimizerState.sgd(0.1), start, g)
    trainer, steps = numerics._trainer, []

    def counted_trainer(*args, **kwargs):
        step = trainer(*args, **kwargs)
        return lambda x, target: steps.append(1) or step(x, target)

    monkeypatch.setattr(numerics, "_trainer", counted_trainer)
    with pytest.raises(ValueError, match="^gradient contains non-finite values$"):
        client_local_update(start, shard, 3, 0.1, 2, np.random.default_rng(0))
    assert len(steps) == 1


def test_prox_pull_dominates_at_huge_mu():
    train, _, shards, proto = small_task()
    start = init_params(proto, 2)
    out = client_local_update(
        start, shards[0], 3, 1e-6, 16, np.random.default_rng(0), prox_mu=1e6
    )
    assert np.abs(out.values - start.values).max() < 1e-3


@pytest.mark.parametrize("threshold", [0.6, 0.99])
def test_drop_threshold_keeps_clients_above_it_or_else_the_single_best(threshold):
    _, val, shards, proto = small_task()
    cap = {}
    cfg = small_cfg("fedavg", rounds=1, drop_threshold=threshold, seed=2)  # clients 0, 1, 4 score 0.47, 0.69, 0.67
    _, rec = run_round(ServerState.initialize([proto], 2), cfg, shards, val, capture=cap)
    accs = {k: top1_accuracy(m, val) for k, m in cap["client_models"].items()}
    above = [k for k, a in accs.items() if a > threshold]
    assert len(above) == (2 if threshold == 0.6 else 0)  # 0.99: no client clears it, so the best one is kept
    assert [k for k in rec.sampled if k not in rec.dropped] == (above or [max(accs, key=accs.get)])


def test_ensemble_logits_is_mean_of_logits():
    _, val, _, proto = small_task()
    models = [init_params(proto, s) for s in range(3)]
    x = val.inputs[:7]
    expect = np.mean([predict_logits(m, x) for m in models], axis=0)
    assert np.abs(ensemble_logits(models, x) - expect).max() < 1e-12
    solo = ensemble_logits([models[0]], x)
    assert np.array_equal(solo, predict_logits(models[0], x))


def test_ensemble_rejects_mismatched_heads():
    a = init_params(Prototype("a", (2, 4, 3)), 0)
    b = init_params(Prototype("b", (2, 4, 4)), 0)
    with pytest.raises(ShapeError):
        ensemble_logits([a, b], np.zeros((2, 2)))


def test_feddf_fuse_zero_steps_returns_init_copy():
    _, val, _, proto = small_task()
    teachers = [init_params(proto, s) for s in range(2)]
    init = init_params(proto, 9)
    cfg = DistillConfig(max_steps=0, patience=1, pool=uniform_pool())
    fused, steps, _ = feddf_fuse(teachers, init, cfg, val, np.random.default_rng(0))
    assert steps == 0
    assert fused is not init
    assert np.array_equal(fused.values, init.values)


def test_feddf_fuse_never_scores_below_init():
    for seed in range(5):
        _, val, shards, proto = small_task(seed=seed)
        teachers = [
            client_local_update(init_params(proto, 10 + s), shards[s % len(shards)],
                                3, 0.05, 16, np.random.default_rng(s))
            for s in range(3)
        ]
        init = ff.average_params(teachers, [len(shards[s % len(shards)]) for s in range(3)])
        cfg = DistillConfig(max_steps=60, patience=20, pool=uniform_pool())
        fused, steps, _ = feddf_fuse(teachers, init, cfg, val, np.random.default_rng(seed))
        assert 1 <= steps <= 60
        assert top1_accuracy(fused, val) >= top1_accuracy(init, val)


def test_feddf_fuse_early_stops_on_plateau():
    _, val, shards, proto = small_task()
    teachers = [init_params(proto, s) for s in range(2)]
    init = init_params(proto, 5)
    cfg = DistillConfig(max_steps=500, patience=10, pool=uniform_pool())
    _, steps, _ = feddf_fuse(teachers, init, cfg, val, np.random.default_rng(0))
    assert steps < 500


def fused_targets(monkeypatch, teachers, init, cfg, val):
    """(batch, target probabilities) of every step feddf_fuse takes."""
    seen = []
    real_trainer = numerics._trainer

    def spy_trainer(*args, **kwargs):
        step = real_trainer(*args, **kwargs)

        def spy(inputs, targets):
            seen.append((inputs.copy(), targets.copy()))  # heldout batches reuse one buffer
            return step(inputs, targets)

        return spy

    monkeypatch.setattr(numerics, "_trainer", spy_trainer)
    _, steps, _ = feddf_fuse(teachers, init, cfg, val, np.random.default_rng(0))
    assert len(seen) == steps
    return seen


@pytest.mark.parametrize(
    "widths, pool_rows, batch",
    [((2, 32, 32, 10), 512, 128), ((2, 48, 48, 10), 512, 128), ((2, 64, 10), 512, 128),
     ((2, 32, 3), 256, 64)],
)
def test_heldout_targets_equal_per_batch_targets_bitwise(monkeypatch, widths, pool_rows, batch):
    proto = Prototype("p", widths)
    teachers = [init_params(proto, s) for s in range(3)]
    val = ff.make_gaussian_blobs(widths[-1], 10, None, 0.5, seed=1)
    pool = ff.DistillPool.heldout(np.random.default_rng(2).normal(scale=2.5, size=(pool_rows, 2)), batch)
    cfg = DistillConfig(max_steps=9, patience=9, pool=pool)  # 9 batches cross two epoch boundaries
    for inputs, targets in fused_targets(monkeypatch, teachers, init_params(proto, 7), cfg, val):
        assert np.array_equal(targets, numerics.softmax(ensemble_logits(teachers, inputs)))


def test_heldout_targets_match_per_batch_targets_at_any_row_count(monkeypatch):
    rng = np.random.default_rng(5)
    val = ff.make_gaussian_blobs(3, 10, None, 0.5, seed=1)
    for trial in range(12):
        protos = [Prototype(f"p{w}", (2, w, 3)) for w in (5, 16, 33)]
        teachers = [init_params(p, trial) for p in protos]
        rows, batch = 4 * int(rng.integers(1, 60)) + int(rng.integers(1, 4)), 0
        while batch % 4 == 0:
            batch = int(rng.integers(1, rows + 1))
        pool = ff.DistillPool.heldout(rng.normal(scale=2.5, size=(rows, 2)), batch)
        cfg = DistillConfig(max_steps=5, patience=5, pool=pool)
        for inputs, targets in fused_targets(monkeypatch, teachers, init_params(protos[0], 9), cfg, val):
            expect = numerics.softmax(ensemble_logits(teachers, inputs))
            np.testing.assert_allclose(targets, expect, rtol=0.0, atol=1e-14)


def reference_fuse(teachers, init, cfg, val, rng, cursor=(None, 0)):
    """feddf_fuse written with the public numerics.grad, opt_step and top1_accuracy."""
    proto = init.prototype  # a binary_ste student trains through the STE step and is scored binarized
    student = init.copy()
    opt = numerics.OptimizerState.adam(cfg.base_lr, proto.n_params, schedule="cosine", total_steps=cfg.max_steps)
    best_values, best_acc, best_step, steps = init.values.copy(), top1_accuracy(student, val), 0, 0
    pool = cfg.pool.inputs if cfg.pool.kind == "heldout" else ff.sample_noise_rows(cfg.pool, rng)  # drawn once per fusion
    pool_targets = numerics.softmax(ensemble_logits(teachers, pool))
    for _ in range(cfg.max_steps):  # every pool kind's batches continue the cursor given
        rows, cursor = ff.data.sample_distill_rows(len(pool), cfg.pool.batch_size, rng, cursor)
        batch, targets = pool[rows], pool_targets[rows]
        g = numerics.grad("kl_vs_target", student, batch, target_probs=targets)
        student, opt = numerics.opt_step(opt, student, g)
        steps += 1
        acc = top1_accuracy(student, val)
        if acc > best_acc:
            best_acc, best_values, best_step = acc, student.values.copy(), steps
        if steps - best_step >= cfg.patience:
            break
    return ParamVector(proto, best_values), steps, cursor


def same_cursor(a, b):
    return a[1] == b[1] and (a[0] is b[0] is None or np.array_equal(a[0], b[0]))


def fusion_case(pool_kind, activation, precision, init_mode, max_steps, patience):
    """Trained (teachers, init, cfg, val) of a 3-class fusion."""
    _, val, shards, _ = small_task(seed=4)
    proto = Prototype("m", (2, 12, 3), activation, precision)
    teachers = [
        client_local_update(init_params(proto, s), shards[s], 3, 0.05, 16, np.random.default_rng(s))
        for s in range(3)
    ]
    if precision == "binary_ste":  # clients transmit their binarized copies
        teachers = [ParamVector(proto, binarize_values(proto, t.values)) for t in teachers]
    init = ff.average_params(teachers, [len(shards[s]) for s in range(3)])
    if init_mode == "from_previous":
        init = init_params(proto, 11)
    pool = {
        "heldout": lambda: ff.DistillPool.heldout(np.random.default_rng(3).normal(scale=2.0, size=(45, 2)), 16),
        "uniform_noise": lambda: uniform_pool(16),
        "gaussian_noise": lambda: ff.DistillPool.gaussian_noise(2, 16),
    }[pool_kind]()
    cfg = DistillConfig(max_steps, patience, pool, base_lr=0.01, init_mode=init_mode)
    return teachers, init, cfg, val


@pytest.mark.parametrize("pool_kind", ["heldout", "uniform_noise", "gaussian_noise"])
def test_teachers_of_another_class_count_fail_before_the_first_draw(pool_kind):
    _, init, cfg, val = fusion_case(pool_kind, "relu", "full", "from_average", 10, 5)
    teachers = [init_params(Prototype("t", (2, 12, 4)), s) for s in range(2)]  # the student has 3 classes
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ShapeError, match="class counts differ from the student's 3"):
        feddf_fuse(teachers, init, cfg, val, rng)
    assert rng.bit_generator.state == before


def test_teachers_of_another_class_count_fail_also_at_zero_steps():
    _, init, cfg, val = fusion_case("heldout", "relu", "full", "from_average", 10, 5)
    teachers = [init_params(Prototype("t", (2, 12, 5)), s) for s in range(2)]  # the student has 3 classes
    with pytest.raises(ShapeError, match="class counts differ from the student's 3"):
        feddf_fuse(teachers, init, replace(cfg, max_steps=0), val, np.random.default_rng(0))


FUSION_CASES = [
    (pool_kind, activation, precision, init_mode, 30, 30)
    for pool_kind in ("heldout", "uniform_noise", "gaussian_noise")
    for activation in ("relu", "tanh")
    for precision in ("full", "binary_ste")
    for init_mode in ("from_average", "from_previous")
] + [("heldout", "relu", "full", "from_average", 400, 5)]  # stops on patience


@pytest.mark.parametrize("pool_kind, activation, precision, init_mode, max_steps, patience", FUSION_CASES)
def test_feddf_fuse_equals_grad_opt_step_loop_bitwise(pool_kind, activation, precision, init_mode, max_steps, patience):
    teachers, init, cfg, val = fusion_case(pool_kind, activation, precision, init_mode, max_steps, patience)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    fused, steps, cursor = feddf_fuse(teachers, init, cfg, val, rng)
    ref, ref_steps, ref_cursor = reference_fuse(teachers, init, cfg, val, ref_rng)
    assert steps == ref_steps
    assert same_cursor(cursor, ref_cursor) and len(cursor[0]) == (45 if pool_kind == "heldout" else 4 * 16)
    assert steps == max_steps if patience == max_steps else steps < max_steps
    assert fused.prototype == ref.prototype == init.prototype
    assert np.array_equal(fused.values, ref.values)
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # no step past the stop drew from it


@pytest.fixture
def scorer_workers(monkeypatch):
    """make(prototypes): a _Workers that scores every fusion in a forked job, on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(flcore, "_SCORE_MIN_WORK", 0)
    made = []

    def make(prototypes):
        made.append(flcore._Workers(prototypes))
        return made[-1]

    yield make
    for workers in made:
        workers.close()
    assert multiprocessing.active_children() == []


def pipelined_and_serial_fuse(workers, teachers, init, cfg, val, seed):
    """[(result, rng after)] of feddf_fuse with the forked scorer, without it, and of reference_fuse."""
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    out = [
        feddf_fuse(teachers, init, cfg, val, rngs[0], (None, 0), workers),
        feddf_fuse(teachers, init, cfg, val, rngs[1]),
        reference_fuse(teachers, init, cfg, val, rngs[2]),
    ]
    assert workers.job.done()  # the fusion was scored by the forked job
    return list(zip(out, rngs))


def assert_same_fusions(runs):
    (fused, steps, cursor), rng = runs[0]
    for (other, other_steps, other_cursor), other_rng in runs[1:]:
        assert steps == other_steps and same_cursor(cursor, other_cursor)
        assert fused.prototype == other.prototype and np.array_equal(fused.values, other.values)
        assert rng.bit_generator.state == other_rng.bit_generator.state


@pytest.mark.parametrize("pool_kind, activation, precision, init_mode, max_steps, patience", FUSION_CASES)
def test_pipelined_fusion_equals_the_serial_loop_bitwise(pool_kind, activation, precision, init_mode, max_steps, patience, scorer_workers):
    teachers, init, cfg, val = fusion_case(pool_kind, activation, precision, init_mode, max_steps, patience)
    runs = pipelined_and_serial_fuse(scorer_workers([init.prototype]), teachers, init, cfg, val, 8)
    assert_same_fusions(runs)
    assert runs[0][0][1] == max_steps if patience == max_steps else runs[0][0][1] < max_steps


@pytest.mark.parametrize("piped", [False, True], ids=["in_process", "pipelined"])
def test_a_fusion_trains_exactly_the_steps_it_returns(piped, scorer_workers, monkeypatch):
    teachers, init, cfg, val = fusion_case("heldout", "relu", "full", "from_average", 400, 5)
    ref, ref_steps, ref_cursor = reference_fuse(teachers, init, cfg, val, np.random.default_rng(8))
    assert ref_steps < cfg.max_steps  # a patience stop: step ref_steps + 1 would have room to run
    workers = scorer_workers([init.prototype]) if piped else None
    trainer, fail_at, calls = numerics._trainer, [], []

    def failing_trainer(*args):
        step = trainer(*args)

        def counted(x, target):
            calls.append(1)
            if len(calls) == fail_at[0]:
                raise ValueError("gradient contains non-finite values")
            step(x, target)
        return counted

    monkeypatch.setattr(numerics, "_trainer", failing_trainer)
    fail_at[:] = [ref_steps + 1]  # the step a serial loop never runs
    fused, steps, cursor = feddf_fuse(teachers, init, cfg, val, np.random.default_rng(8), (None, 0), workers)
    assert steps == ref_steps and same_cursor(cursor, ref_cursor) and np.array_equal(fused.values, ref.values)
    assert len(calls) == ref_steps  # no step was trained and thrown away
    calls.clear()
    fail_at[:] = [ref_steps]  # the last step the serial loop runs
    with pytest.raises(ValueError, match="^gradient contains non-finite values$"):
        feddf_fuse(teachers, init, cfg, val, np.random.default_rng(8), (None, 0), workers)


def test_pipelined_fusion_stops_just_before_a_heldout_reshuffle(scorer_workers):
    """The fusion stops at a step whose successor would begin a new epoch of the heldout pool."""
    teachers, init, cfg, val = fusion_case("heldout", "relu", "full", "from_average", 400, 5)
    rows, batch = len(cfg.pool.inputs), cfg.pool.batch_size
    for seed in range(100):
        _, steps, cursor = reference_fuse(teachers, init, cfg, val, np.random.default_rng(seed))
        if steps < cfg.max_steps and cursor[1] + batch > rows:  # batch steps + 1 draws a permutation
            break
    else:
        pytest.fail("no seed stops just before a reshuffle")
    assert_same_fusions(pipelined_and_serial_fuse(scorer_workers([init.prototype]), teachers, init, cfg, val, seed))


def test_the_scorer_job_scores_on_the_validation_set_it_is_handed(scorer_workers):
    """Any validation set, such as a copy of the run's, is scored by the forked job with the serial loop's bits."""
    teachers, init, cfg, val = fusion_case("heldout", "relu", "full", "from_average", 400, 5)
    copy = val.subset(np.arange(len(val)))
    assert_same_fusions(pipelined_and_serial_fuse(scorer_workers([init.prototype]), teachers, init, cfg, copy, 8))


def test_a_waiting_fusion_lets_the_runs_other_threads_run(scorer_workers, monkeypatch):
    """The wait for a score blocks: a thread of the run, such as the pool's own, is not held off for a switch interval."""
    main, make_scorer = os.getpid(), flcore._scorer

    def slow_scorer(proto, val, snapshot):  # each forked score takes 100 ms
        score = make_scorer(proto, val, snapshot)

        def slow():
            if os.getpid() != main:
                time.sleep(0.1)
            return score()
        return slow

    monkeypatch.setattr(flcore, "_scorer", slow_scorer)
    teachers, init, cfg, val = fusion_case("heldout", "relu", "full", "from_average", 400, 5)
    snapshot, post, wait, end = scorer_workers([init.prototype]).scorer(init.prototype, val)
    snapshot[:] = init.values
    late, waiting, stop = [], threading.Event(), threading.Event()

    def ticker():  # sleeps 1 ms at a time and records how late it wakes while the fusion waits
        while not stop.is_set():
            tic = time.perf_counter()
            time.sleep(0.001)
            if waiting.is_set():
                late.append(time.perf_counter() - tic - 0.001)

    interval, thread = sys.getswitchinterval(), threading.Thread(target=ticker)
    sys.setswitchinterval(0.05)  # a thread that holds the GIL keeps it this long
    thread.start()
    try:
        for _ in range(3):
            post()
            waiting.set()
            acc = wait()
            waiting.clear()
    finally:
        stop.set()
        thread.join()
        sys.setswitchinterval(interval)
        end()
    assert acc == top1_accuracy(init, val)
    assert len(late) > 30 and max(late) < 0.025


USABLE_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(USABLE_CPUS) < 2, reason="needs 2+ usable CPUs on Linux")
def test_the_scorer_runs_off_the_runs_cpu_and_gives_its_worker_the_cpus_back(tmp_path, monkeypatch):
    monkeypatch.setattr(flcore, "_SCORE_MIN_WORK", 0)  # the host's real CPUs: sched_getaffinity is not faked here
    main, make_scorer, seen = os.getpid(), flcore._scorer, tmp_path / "scorers"

    def spy(proto, val, snapshot):  # a forked job appends its pid and CPUs to seen at its first score
        score, calls = make_scorer(proto, val, snapshot), []

        def recorded():
            if os.getpid() != main and not calls:
                calls.append(1)
                with open(seen, "a") as fh:
                    fh.write(f"{os.getpid()} {' '.join(map(str, sorted(os.sched_getaffinity(0))))}\n")
            return score()
        return recorded

    monkeypatch.setattr(flcore, "_scorer", spy)
    teachers, init, cfg, val = fusion_case("heldout", "relu", "full", "from_average", 400, 5)
    workers, run_cpu = flcore._Workers([init.prototype]), max(USABLE_CPUS)
    try:
        feddf_fuse(teachers, init, cfg, val, np.random.default_rng(8), (None, 0), workers)  # forks the pool's workers
        os.sched_setaffinity(0, {run_cpu})  # the run's process stays on run_cpu through the next fusion
        try:
            feddf_fuse(teachers, init, cfg, val, np.random.default_rng(8), (None, 0), workers)
        finally:
            os.sched_setaffinity(0, USABLE_CPUS)
        jobs = [line.split() for line in seen.read_text().splitlines()]
        assert len(jobs) == 2 and workers.job.done()
        assert {int(cpu) for cpu in jobs[1][1:]} == USABLE_CPUS - {run_cpu}
        assert all(os.sched_getaffinity(int(pid)) == USABLE_CPUS for pid, *_ in jobs)  # each worker has its CPUs back
    finally:
        workers.close()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    shape=training_shapes(),
    pool_kind=st.sampled_from(["heldout", "uniform_noise", "gaussian_noise"]),
    pool_rows=st.integers(1, 40),
    batch=st.integers(1, 16),
    max_steps=st.integers(1, 25),
    patience=st.integers(1, 25),
)
def test_feddf_fuse_equals_the_reference_loop_on_random_shapes(shape, pool_kind, pool_rows, batch, max_steps, patience):
    proto, seed = shape
    rng = np.random.default_rng(seed)
    classes = proto.n_classes
    other = Prototype("o", (2, 7, classes), "tanh")  # teachers may differ in architecture
    teachers = [ParamVector(p, rng.normal(size=p.n_params)) for p in (proto, proto, other)]
    init = ParamVector(proto, rng.normal(scale=0.5, size=proto.n_params))
    val = ff.Dataset(rng.normal(size=(30, 2)), rng.integers(0, classes, 30), classes)
    pool = {
        "heldout": lambda: ff.DistillPool.heldout(rng.normal(scale=2.0, size=(pool_rows, 2)), batch),
        "uniform_noise": lambda: uniform_pool(batch),
        "gaussian_noise": lambda: ff.DistillPool.gaussian_noise(2, batch),
    }[pool_kind]()
    cfg = DistillConfig(max_steps, min(patience, max_steps), pool, base_lr=0.05)
    fused, steps, cursor = feddf_fuse(teachers, init, cfg, val, np.random.default_rng(seed))
    ref, ref_steps, ref_cursor = reference_fuse(teachers, init, cfg, val, np.random.default_rng(seed))
    assert steps == ref_steps
    assert np.array_equal(fused.values, ref.values)
    assert same_cursor(cursor, ref_cursor)


def test_repeated_heldout_fusions_with_equal_arguments_give_equal_bits():
    teachers, init, cfg, val = fusion_case("heldout", "relu", "full", "from_average", 30, 30)
    first, steps, cursor = feddf_fuse(teachers, init, cfg, val, np.random.default_rng(0))
    again, again_steps, again_cursor = feddf_fuse(teachers, init, cfg, val, np.random.default_rng(0))
    assert 0 < cursor[1] < len(cfg.pool.inputs)  # 30 batches of 16 end inside an epoch of 45 rows
    assert steps == again_steps and same_cursor(cursor, again_cursor)
    assert np.array_equal(first.values, again.values)
    carried, _, _ = feddf_fuse(teachers, init, cfg, val, np.random.default_rng(0), cursor)
    assert not np.array_equal(first.values, carried.values)  # a threaded cursor draws other rows


@pytest.mark.parametrize("pool_kind", ["heldout", "uniform_noise", "gaussian_noise"])
def test_a_fusion_refuses_a_cursor_over_more_rows(pool_kind):
    teachers, init, cfg, val = fusion_case(pool_kind, "relu", "full", "from_average", 30, 30)
    rows = 45 if pool_kind == "heldout" else 4 * 16
    for cursor in [(np.arange(rows + 10), rows + 3), (None, rows + 1)]:  # a larger pool's order, or a position past it
        with pytest.raises(ValueError, match=f"does not index {rows} rows"):
            feddf_fuse(teachers, init, cfg, val, np.random.default_rng(0), cursor)


@pytest.mark.parametrize("pool_kind", ["uniform_noise", "gaussian_noise"])
def test_a_noise_fusion_continues_the_cursor_it_is_given(pool_kind):
    teachers, init, cfg, val = fusion_case(pool_kind, "relu", "full", "from_average", 1, 1)
    order = np.random.default_rng(5).permutation(4 * 16)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    fused, steps, cursor = feddf_fuse(teachers, init, cfg, val, rng, (order, 32))
    assert steps == 1 and cursor[0] is order and cursor[1] == 48  # the batch was order[32:48], no new epoch
    ff.sample_noise_rows(cfg.pool, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # the rows were the only draw
    ref, _, ref_cursor = reference_fuse(teachers, init, cfg, val, np.random.default_rng(8), (order, 32))
    assert same_cursor(cursor, ref_cursor) and np.array_equal(fused.values, ref.values)
    again, _, again_cursor = feddf_fuse(teachers, init, replace(cfg, max_steps=3, patience=3), val, rng, cursor)
    assert again_cursor[0] is not order and again_cursor[1] == 32  # one batch ends the epoch, two start the next


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("pool_kind", ["heldout", "gaussian_noise"])
def test_diverging_student_raises_the_reference_loop_error(pool_kind):
    teachers, init, cfg, val = fusion_case(pool_kind, "relu", "full", "from_average", 30, 30)
    cfg.base_lr = 1e300
    with pytest.raises(ValueError) as ours:
        feddf_fuse(teachers, init, cfg, val, np.random.default_rng(8))
    with pytest.raises(ValueError) as ref:
        reference_fuse(teachers, init, cfg, val, np.random.default_rng(8))
    assert str(ours.value) == str(ref.value)
    assert "non-finite values" in str(ours.value)


def test_feddf_fuse_checks_its_fixed_data_once_per_fusion():
    teachers, init, cfg, val = fusion_case("heldout", "relu", "full", "from_average", 5, 5)
    bad_val = val.subset(np.arange(len(val)))
    bad_val.inputs[3, 1] = np.inf
    with pytest.raises(ValueError, match="inputs contain non-finite values"):
        feddf_fuse(teachers, init, cfg, bad_val, np.random.default_rng(0))
    wide = ff.Dataset(val.inputs, val.labels, 4)
    with pytest.raises(ShapeError, match="does not fit"):
        feddf_fuse(teachers, init, cfg, wide, np.random.default_rng(0))
    rows = np.random.default_rng(3).normal(size=(45, 2))
    rows[40, 0] = np.nan
    cfg = DistillConfig(5, 5, ff.DistillPool.heldout(rows, 16))
    with pytest.raises(ValueError, match="inputs contain non-finite values"):
        feddf_fuse(teachers, init, cfg, val, np.random.default_rng(0))


@pytest.mark.parametrize("noise", ["uniform_noise", "gaussian_noise"])
def test_heldout_fusion_runs_the_teachers_once(monkeypatch, noise):
    _, val, _, proto = small_task()
    teachers = [init_params(proto, s) for s in range(3)]
    calls = []
    real = flcore.ensemble_logits
    monkeypatch.setattr(
        flcore, "ensemble_logits", lambda ts, x: calls.append(x.shape[0]) or real(ts, x)
    )
    pool_inputs = np.random.default_rng(0).normal(size=(40, 2))
    for max_steps in (1, 7, 30):
        calls.clear()
        cfg = DistillConfig(max_steps, max_steps, ff.DistillPool.heldout(pool_inputs, 16))
        _, steps, _ = feddf_fuse(teachers, init_params(proto, 9), cfg, val, np.random.default_rng(0))
        assert steps == max_steps and calls == [40]
        calls.clear()
        pool = uniform_pool(16) if noise == "uniform_noise" else ff.DistillPool.gaussian_noise(2, 16)
        _, steps, _ = feddf_fuse(teachers, init_params(proto, 9), replace(cfg, pool=pool), val, np.random.default_rng(0))
        assert steps == max_steps and calls == [4 * 16]  # a noise fusion's rows: four batches, drawn once


def test_drop_filter_reuses_the_validation_forwards(monkeypatch):
    _, val, shards, proto = small_task()
    cfg = small_cfg("fedavg", rounds=1, drop_threshold=0.7)
    calls = []
    real = flcore.predict_logits
    monkeypatch.setattr(flcore, "predict_logits", lambda p, x: calls.append(1) or real(p, x))
    cap = {}
    _, rec = run_round(ServerState.initialize([proto], 0), cfg, shards, val, capture=cap)
    assert rec.dropped and len(rec.dropped) < len(rec.sampled)
    assert len(calls) == len(rec.sampled) + 1  # every sampled model once, plus the average
    kept = [m for k, m in cap["client_models"].items() if k not in rec.dropped]
    assert rec.acc_ensemble == ensemble_accuracy(kept, val)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("make_cfg", [small_cfg, over_gate_cfg], ids=["serial", "pooled"])
def test_diverging_client_error_names_round_and_client(make_cfg, pooled_rounds):
    _, val, shards, proto = small_task()
    cfg = make_cfg("fedavg", local_lr=1e200, seed=2)  # round 1 trains clients 0, 1, 4 on 1, 57 and 19 rows
    with pytest.raises(ValueError, match=r"^round 1, client 0: ") as info:
        run_training(cfg, shards, val, [proto])  # every client diverges; the lowest id, not the largest, is named
    assert type(info.value) is ValueError and isinstance(info.value.__cause__, ValueError)
    assert str(info.value).endswith(str(info.value.__cause__))
    assert pooled_rounds == [make_cfg is over_gate_cfg]
    assert multiprocessing.active_children() == []


def serial_training(cfg, shards, val, prototypes):
    """run_training as a hand loop of run_round calls, which train every client serially."""
    state, records, cap = ServerState.initialize(prototypes, cfg.seed), [], {}
    for _ in range(cfg.rounds):
        state, rec = run_round(state, cfg, shards, val, capture=cap)
        records.append(rec)
    return state, records, cap


@pytest.mark.parametrize(
    "strategy",
    ["fedavg", "fedprox", "fedavgm", "feddf", "feddf_heldout", "feddf_fleet", "fedavgm_fleet", "fedprox_fleet"],
)
def test_forked_clients_equal_the_serial_loop_bitwise(strategy, pooled_rounds):
    _, val, shards, proto = small_task()
    strategy, fleet = strategy.removesuffix("_fleet"), strategy.endswith("_fleet")
    kw = dict(fedprox=dict(prox_mu=0.1), fedavgm=dict(server_momentum=0.5)).get(strategy, {})
    prototypes = [proto]
    if strategy.startswith("feddf"):
        kw["distill"] = DistillConfig(max_steps=20, patience=5, pool=uniform_pool())
    if strategy == "feddf_heldout":  # batches of 16 from 45 rows: epochs straddle fusions and rounds
        strategy, kw["distill"].pool = "feddf", ff.DistillPool.heldout(np.random.default_rng(3).normal(size=(45, 2)), 16)
    if fleet:  # clients a, b, a, b, a
        prototypes = [Prototype("a", (2, 12, 3), precision="binary_ste"), Prototype("b", (2, 8, 3))]
        kw["drop_threshold"] = 0.5
    cfg = over_gate_cfg(strategy, **kw)
    cap = {}
    state, records = run_training(cfg, shards, val, prototypes, capture_final=cap)
    assert pooled_rounds == [True] * cfg.rounds
    assert multiprocessing.active_children() == []
    ref_state, ref_records, ref_cap = serial_training(cfg, shards, val, prototypes)
    assert len(pooled_rounds) == cfg.rounds  # the hand loop made no pool
    assert records == ref_records
    assert all(np.array_equal(state.params[p].values, ref_state.params[p].values) for p in state.params)
    assert all(np.array_equal(state.velocity[p], ref_state.velocity[p]) for p in state.params)
    assert same_cursor(state.pool_cursor, ref_state.pool_cursor)
    if cfg.distill:  # one cursor over the pool's rows, 45 heldout or a noise fusion's four batches, runs through the run
        rows = 45 if cfg.distill.pool.kind == "heldout" else 4 * cfg.distill.pool.batch_size
        assert len(state.pool_cursor[0]) == rows and 0 < state.pool_cursor[1] <= rows
    else:
        assert state.pool_cursor == (None, 0)
    assert cap["client_models"].keys() == ref_cap["client_models"].keys()
    for k, model in cap["client_models"].items():
        ref = ref_cap["client_models"][k]
        assert model.prototype == ref.prototype and np.array_equal(model.values, ref.values)
    if not fleet:
        return
    assert any(rec.dropped for rec in records) and {m.prototype.id for m in cap["client_models"].values()} == {"a", "b"}
    before, _, _ = serial_training(replace(cfg, rounds=cfg.rounds - 1), shards, val, prototypes)
    kept = [k for k in cap["client_models"] if k not in records[-1].dropped]
    for pid in state.params:  # the last round from the state before it, one prototype group at a time
        group = [k for k in kept if k % 2 == "ab".index(pid)]
        assert group and pid in records[-1].per_prototype  # both groups survive the last round
        for k in group:  # each client's start, and FedProx's anchor, is its own prototype's server model
            expected = flcore._train_client(k, before.params[pid], cfg.rounds, cfg, shards[k])
            assert np.array_equal(cap["client_models"][k].values, expected)
        avg = ff.average_params([cap["client_models"][k] for k in group], [len(shards[k]) for k in group])
        momentum = cfg.server_momentum * before.velocity[pid] + (before.params[pid].values - avg.values)
        assert np.array_equal(state.velocity[pid], momentum if strategy == "fedavgm" else before.velocity[pid])


@pytest.mark.parametrize("clients_forked", [False, True], ids=["scorer_only", "with_clients"])
@pytest.mark.parametrize("strategy", ["feddf", "feddf_heldout", "feddf_gaussian", "feddf_previous", "feddf_fleet"])
def test_pipelined_fusions_equal_the_serial_loop_bitwise(strategy, clients_forked, pooled_rounds, monkeypatch):
    monkeypatch.setattr(flcore, "_SCORE_MIN_WORK", 0)
    piped, scorer = [], flcore._Workers.scorer

    def spy(self, proto, val):  # records whether a forked job scores the fusion: its snapshot views the pool's block
        out = scorer(self, proto, val)
        piped.append(out[0].base is not None)
        return out

    monkeypatch.setattr(flcore._Workers, "scorer", spy)
    _, val, shards, proto = small_task()
    pool = {
        "feddf_heldout": ff.DistillPool.heldout(np.random.default_rng(3).normal(size=(45, 2)), 16),
        "feddf_gaussian": ff.DistillPool.gaussian_noise(2, 16),
    }.get(strategy, uniform_pool())
    mode = "from_previous" if strategy == "feddf_previous" else "from_average"
    kw = dict(distill=DistillConfig(max_steps=20, patience=5, pool=pool, init_mode=mode))
    prototypes = [proto]
    if strategy == "feddf_fleet":  # clients a, b, a, b, a
        prototypes = [Prototype("a", (2, 12, 3), "tanh", "binary_ste"), Prototype("b", (2, 8, 3))]
        kw["drop_threshold"] = 0.5
    cfg = (over_gate_cfg if clients_forked else small_cfg)("feddf", **kw)
    state, records = run_training(cfg, shards, val, prototypes)
    assert piped and all(piped) and pooled_rounds == [clients_forked] * cfg.rounds
    assert multiprocessing.active_children() == []
    fusions = len(piped)
    ref_state, ref_records, _ = serial_training(cfg, shards, val, prototypes)
    assert not any(piped[fusions:]) and len(pooled_rounds) == cfg.rounds  # the hand loop forked nothing
    assert records == ref_records
    assert {r.distill_steps for r in records} != {20}  # some fusions stop on patience
    assert all(np.array_equal(state.params[p].values, ref_state.params[p].values) for p in state.params)
    assert same_cursor(state.pool_cursor, ref_state.pool_cursor)


PIPELINE_RUN = """
import multiprocessing, os, time
import fedfusion as ff
from fedfusion import flcore

full = ff.make_gaussian_blobs(3, 60, None, 0.5, seed=1000)
train, val = ff.split_train_val(full, 0.2, seed=2000)
shards = [train.subset(ix) for ix in ff.dirichlet_partition(train.labels, ff.PartitionSpec(1.0, 4, 3000))]
proto = ff.Prototype("m", (2, 12, 3))
os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs on any host
flcore._SCORE_MIN_WORK = 0  # every fusion is scored by a forked job


def run(max_steps, base_lr=1e-3):
    distill = flcore.DistillConfig(max_steps, max_steps, ff.DistillPool.uniform_noise(-3.0, 3.0, 2, 16), base_lr)
    cfg = flcore.FLConfig(rounds=2, client_count=4, participation=1.0, local_epochs=2, local_lr=0.05,
                          local_batch=8, strategy="feddf", distill=distill)
    tic = time.perf_counter()
    try:
        flcore.run_training(cfg, shards, val, [proto])
    except Exception as e:
        return f"{time.perf_counter() - tic:.3f} {type(e).__name__} {e}"
"""

DEAD_SCORER_RUN = PIPELINE_RUN + """
main, make_scorer = os.getpid(), flcore._scorer

def dying_scorer(proto, val, snapshot):  # the forked scorer dies at its 50th score
    score, calls = make_scorer(proto, val, snapshot), []

    def counted():
        calls.append(1)
        if os.getpid() != main and len(calls) == 50:
            os._exit(1)
        return score()
    return counted

flcore._scorer = dying_scorer
print(run(400))
print("children", len(multiprocessing.active_children()))
"""

DIVERGING_STUDENT_RUN = PIPELINE_RUN + """
piped, scorer = [], flcore._Workers.scorer

def spy(self, proto, val):  # records whether a forked job scores the fusion: its snapshot views the pool's block
    out = scorer(self, proto, val)
    piped.append(out[0].base is not None)
    return out

flcore._Workers.scorer = spy
pipelined_error = run(30, base_lr=1e300)
flcore._SCORE_MIN_WORK = float("inf")
serial_error = run(30, base_lr=1e300)
print(piped == [True, False], pipelined_error.split(" ", 1)[1] == serial_error.split(" ", 1)[1])
print(pipelined_error)
print("children", len(multiprocessing.active_children()))
"""

KILLED_RUN = PIPELINE_RUN + """
score_job = flcore._score_job

def announced_job(proto, val):
    print("scorer", os.getpid(), flush=True)
    score_job(proto, val)

flcore._score_job = announced_job
run(10**7)  # a fusion that outlasts the test
"""


def script_process(script: str, *args: str) -> dict:
    """subprocess arguments that run script with args in a fresh interpreter on this checkout's src."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(args=[sys.executable, "-c", script, *args], env={**os.environ, "PYTHONPATH": path}, text=True)


def test_a_dead_scorer_fails_the_round_naming_its_prototype():
    proc = subprocess.run(**script_process(DEAD_SCORER_RUN), capture_output=True, timeout=60)  # a wait that never ends fails here
    assert proc.returncode == 0, proc.stderr[-2000:]
    error, children = proc.stdout.splitlines()
    seconds, kind, message = error.split(" ", 2)
    assert kind == "BrokenProcessPool" and message.startswith("round 1, prototype m: ")
    assert float(seconds) < 10.0
    assert children == "children 0"


def test_a_diverging_pipelined_student_raises_the_serial_error():
    proc = subprocess.run(**script_process(DIVERGING_STUDENT_RUN), capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    same, error, children = proc.stdout.splitlines()
    assert same == "True True"  # only the first run was pipelined; both raised the same error
    _, kind, message = error.split(" ", 2)
    assert kind == "ValueError" and message.startswith("round 1, prototype m: ") and "non-finite values" in message
    assert children == "children 0"


def session(sid: int) -> list[int]:
    """pids of the live processes in session sid; an unreaped zombie has exited."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state, _, _, session_id = fh.read().rsplit(")", 1)[1].split()[:4]
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(session_id) == sid and state != "Z":
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads process states from /proc")
def test_a_killed_run_takes_its_workers_down():
    import select
    import signal
    import time

    proc = subprocess.Popen(**script_process(KILLED_RUN), stdout=subprocess.PIPE, start_new_session=True)
    try:
        assert select.select([proc.stdout], [], [], 60)[0], "the scorer never started"
        word, pid = proc.stdout.readline().split()
        time.sleep(0.2)  # mid-fusion
        assert word == "scorer" and {proc.pid, int(pid)} < set(session(proc.pid))  # the run, its scorer, an idle worker
        proc.kill()
        proc.wait(10)
        deadline = time.monotonic() + 5.0
        while session(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert session(proc.pid) == []
    finally:
        proc.stdout.close()
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # cleanup: whatever the run left behind
        except ProcessLookupError:
            pass


INTERRUPTED_RUN = """
import os, sys
from fedfusion import cli, flcore

os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs on any host
flcore._SCORE_MIN_WORK = 0  # every fusion is scored by a forked job
main, train_client, score_job = os.getpid(), flcore._train_client, flcore._score_job

def announced_client(k, *args):
    if os.getpid() != main:
        print("client", os.getpid(), flush=True)
    return train_client(k, *args)

def announced_scorer(proto, val):
    print("scorer", os.getpid(), flush=True)
    score_job(proto, val)

flcore._train_client, flcore._score_job = announced_client, announced_scorer
sys.exit(cli.main(["run", sys.argv[1]]))
"""


FORKING = {  # the README config with rounds that fork the pool, and runs and fusions that outlast the test
    "rounds = 10": "rounds = 100000", "local_epochs = 10": "local_epochs = 40", "fedavg, feddf": "feddf",
    "max_steps = 200": "max_steps = 100000", "patience = 60": "patience = 100000",
}
LONG_CLIENTS = {  # the README config with one fedavg seed whose pooled client jobs each outlast the test
    "seeds = 0, 1, 2": "seeds = 0", "fedavg, feddf": "fedavg", "target = relative:0.9": "target = none",
    "local_epochs = 10": "local_epochs = 200000",
}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads process states from /proc")
@pytest.mark.parametrize("to", ["run", "group"])
@pytest.mark.parametrize("job, edits, seconds", [
    pytest.param("client", FORKING, 30.0, id="client"),
    pytest.param("scorer", FORKING, 30.0, id="scorer"),
    pytest.param("client", LONG_CLIENTS, 5.0, id="long_client"),  # the run ends its running jobs, not awaits them
])
def test_an_interrupted_run_prints_one_line_and_exits_130(tmp_path, job, edits, seconds, to):
    """SIGINT to fedfusion run while a forked job runs: to the run alone, or to its process group as Ctrl-C sends it."""
    import select
    import signal
    import time

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    (tmp_path / "exp.ini").write_text(text)
    args = script_process(INTERRUPTED_RUN, str(tmp_path / "exp.ini"))
    args["env"]["FEDFUSION_OUTPUT_ROOT"] = str(tmp_path / "out")
    proc = subprocess.Popen(**args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        line = ""
        while not line.startswith(job):
            assert select.select([proc.stdout], [], [], 60)[0], f"no {job} job started"
            line = proc.stdout.readline()
        time.sleep(0.2)  # mid-job
        (os.killpg if to == "group" else os.kill)(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=seconds)
        assert (proc.returncode, err) == (130, "interrupted\n")
        deadline = time.monotonic() + 5.0
        while session(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert session(proc.pid) == []
    finally:
        proc.stdout.close()
        proc.stderr.close()
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # cleanup: whatever the run left behind
        except ProcessLookupError:
            pass


DEAD_WORKER_RUN = """
import multiprocessing, os, sys, time
import fedfusion as ff
from fedfusion import flcore

full = ff.make_gaussian_blobs(3, 60, None, 0.5, seed=1000)
train, val = ff.split_train_val(full, 0.2, seed=2000)
shards = [train.subset(ix) for ix in ff.dirichlet_partition(train.labels, ff.PartitionSpec(1.0, 4, 3000))]
cfg = flcore.FLConfig(rounds=3, client_count=4, participation=1.0, local_epochs=20, local_lr=0.05,
                      local_batch=8, strategy="fedavg")
killed, cpus = int(sys.argv[1]), int(sys.argv[2])
os.sched_getaffinity = lambda pid: set(range(cpus))  # usable CPUs on any host, so the pool has cpus workers
client_rng = flcore.client_rng

def dying_rng(seed, t, k):  # the worker that trains client `killed` dies
    if k == killed:
        os._exit(1)
    return client_rng(seed, t, k)

flcore.client_rng = dying_rng
print("shards", *[len(shard) for shard in shards])
threads = flcore._blas_threads(2)  # 2, which the pool must give back, on any host; 0: the BLAS has no such call
tic = time.perf_counter()
try:
    flcore.run_training(cfg, shards, val, [ff.Prototype("m", (2, 12, 3))])
except Exception as e:
    print(f"{time.perf_counter() - tic:.3f}", type(e).__name__, e)
print("children", len(multiprocessing.active_children()))
print("threads", threads and flcore._blas_threads(threads))  # the count after the run; the caller's is restored
"""


def dead_worker_run(killed: int, cpus: int, script: str = DEAD_WORKER_RUN) -> list[str]:
    """The lines DEAD_WORKER_RUN prints when, with cpus workers, the worker of client killed dies in round 1."""
    proc = subprocess.run(  # a child process, so a pool that waits forever fails here instead of hanging
        **script_process(script, str(killed), str(cpus)), capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()


@pytest.mark.parametrize("cpus", [2, 4], ids=["2_workers", "4_workers"])  # 4: every job runs at once, more workers than cores
@pytest.mark.parametrize("killed", [0, 1, 2, 3])
def test_a_dead_worker_fails_the_round_naming_its_client(killed, cpus):
    shards, error, children, _ = dead_worker_run(killed, cpus)
    assert shards == "shards 16 30 89 9"  # sent with the most local steps first: clients 2, 1, 0, 3
    seconds, kind, message = error.split(" ", 2)
    assert kind == "BrokenProcessPool" and message.startswith(f"round 1, client {killed}: ")
    assert float(seconds) < 10.0
    assert children == "children 0"


DIVERGING_CLIENT_RUN = """
import dataclasses, multiprocessing, os, time
import numpy as np
import fedfusion as ff
from fedfusion import flcore

full = ff.make_gaussian_blobs(3, 60, None, 0.5, seed=1000)
train, val = ff.split_train_val(full, 0.2, seed=2000)
shards = [train.subset(ix) for ix in ff.dirichlet_partition(train.labels, ff.PartitionSpec(1.0, 2, 3000))]
cfg = flcore.FLConfig(rounds=3, client_count=2, participation=1.0, local_epochs=20, local_lr=0.05,
                      local_batch=8, strategy="fedavg")
os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs on any host, so both clients train at once
np.seterr(over="ignore")
train_client = flcore._train_client

def train(k, start, t, cfg, shard):  # client 0 diverges at once; client 1 trains for longer than the test waits
    changes = {"local_lr": 1e300} if k == 0 else {"local_epochs": 10**7}
    return train_client(k, start, t, dataclasses.replace(cfg, **changes), shard)

flcore._train_client = train
tic = time.perf_counter()
try:
    flcore.run_training(cfg, shards, val, [ff.Prototype("m", (2, 12, 3))])
except Exception as e:
    print(f"{time.perf_counter() - tic:.3f}", type(e).__name__, e)
print("children", len(multiprocessing.active_children()))
"""


def test_a_failing_job_ends_the_jobs_still_running():
    proc = subprocess.run(**script_process(DIVERGING_CLIENT_RUN), capture_output=True, timeout=30)  # a join fails here
    assert proc.returncode == 0, proc.stderr[-2000:]
    error, children = proc.stdout.splitlines()
    seconds, kind, message = error.split(" ", 2)
    assert kind == "ValueError" and message.startswith("round 1, client 0: ") and "non-finite values" in message
    assert float(seconds) < 5.0
    assert children == "children 0"


SUBMITTED_ONE_BY_ONE = """
import concurrent.futures
submit = concurrent.futures.ProcessPoolExecutor.submit

def one_by_one(pool, *args):  # each job is submitted once the one before it has ended
    future = submit(pool, *args)
    concurrent.futures.wait([future])
    return future

concurrent.futures.ProcessPoolExecutor.submit = one_by_one
"""


def test_a_worker_that_dies_before_the_last_job_is_submitted_is_named():
    """Client 2, sent first, dies before client 1 is sent: the submit that finds the pool broken names client 2."""
    shards, error, children, _ = dead_worker_run(2, 2, SUBMITTED_ONE_BY_ONE + DEAD_WORKER_RUN)
    _, kind, message = error.split(" ", 2)
    assert kind == "BrokenProcessPool" and message.startswith("round 1, client 2: ")
    assert children == "children 0"


def sigterm_action() -> str:
    """The SIGTERM action of the process it runs in, as text: a Python handler does not pickle."""
    import signal

    return str(signal.getsignal(signal.SIGTERM))


def test_a_pool_worker_takes_sigterm_at_the_kernel(monkeypatch):
    """A broken pool SIGTERMs its live workers and names the dead one by exit code, so no worker may handle SIGTERM
    in Python: a handler runs only between bytecodes and can miss a signal that lands as the worker blocks on a lock.
    That holds also when the run that forks the pool has a handler of its own."""
    import signal

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)  # two usable CPUs on any host
    workers = flcore._Workers([Prototype("m", (2, 12, 3))])
    caller = signal.signal(signal.SIGTERM, lambda *args: None)  # inherited by a forked worker
    try:
        if not workers._fork(2):
            pytest.skip("no fork pool on this platform")
        assert workers.pool.submit(sigterm_action).result() == str(signal.SIG_DFL)
    finally:
        signal.signal(signal.SIGTERM, caller)
        workers.close()


def test_a_worker_sigtermed_before_its_initializer_still_dies(monkeypatch):
    """A SIGTERM that lands between a worker's fork and the initializer that resets its handler waits for the reset,
    so the handler the run installed cannot take it: such a survivor blocked on a lock its killed peer held, and
    close waited on it forever."""
    import signal

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)  # two usable CPUs on any host
    join = flcore._join_run
    monkeypatch.setattr(flcore, "_join_run", lambda *args: time.sleep(0.5) or join(*args))  # each worker starts slowly
    workers = flcore._Workers([Prototype("m", (2, 12, 3))])
    caller = signal.signal(signal.SIGTERM, lambda *args: None)  # inherited by a forked worker
    try:
        if not workers._fork(2):
            pytest.skip("no fork pool on this platform")
        workers.pool.submit(int)  # the workers are forked by the first submit at the latest
        started = list(workers.pool._processes.values())
        for worker in started:
            os.kill(worker.pid, signal.SIGTERM)  # while it sleeps before the initializer
        deadline = time.monotonic() + 5
        while any(w.exitcode is None for w in started) and time.monotonic() < deadline:
            time.sleep(0.01)  # polled, not joined: the broken pool's own thread may reap them first
        assert len(started) == 2 and [w.exitcode for w in started] == [-signal.SIGTERM] * 2
    finally:
        signal.signal(signal.SIGTERM, caller)
        workers.close()


def blas_threads() -> int:
    """numpy's OpenBLAS thread count, unchanged by the reading."""
    count = flcore._blas_threads(1)
    flcore._blas_threads(count)
    return count


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("ending", ["normal", "diverging_client", "dead_worker"])
def test_the_pool_gives_the_blas_thread_count_back(ending, pooled_rounds, monkeypatch):
    if ending == "dead_worker":  # in a child process, as the dead-worker test runs
        lines = dead_worker_run(2, 2)
        assert lines[1].split(" ", 1)[1].startswith("BrokenProcessPool round 1, client 2: ")
        if lines[-1] == "threads 0":
            pytest.skip("numpy's BLAS does not expose its thread count")
        assert lines[-1] == "threads 2"
        return
    caller = flcore._blas_threads(2)  # a count the pool must change and give back, also on a one-thread host
    if caller == 0:
        pytest.skip("numpy's BLAS does not expose its thread count")
    during, run_jobs = [], flcore._Workers.map

    def spy(self, *args):  # reads the count in the parent once the round's clients are trained or failed
        try:
            return run_jobs(self, *args)
        finally:
            during.append(blas_threads())

    monkeypatch.setattr(flcore._Workers, "map", spy)
    _, val, shards, proto = small_task()
    try:
        if ending == "normal":
            run_training(over_gate_cfg("fedavg"), shards, val, [proto])
        else:
            with pytest.raises(ValueError, match=r"^round 1, client 0: "):
                run_training(over_gate_cfg("fedavg", local_lr=1e200, seed=2), shards, val, [proto])
        assert pooled_rounds and all(pooled_rounds) and during == [1] * len(pooled_rounds)
        assert blas_threads() == 2
    finally:
        flcore._blas_threads(caller)


def _refuse_pool(*args, **kwargs):
    raise AssertionError("a worker pool was made")


def readme_task():
    """The README config's shapes: 90 validation rows, 8 clients at alpha 0.1, a 2-32-3 student."""
    full = ff.make_gaussian_blobs(3, 150, None, 0.6, seed=7)
    train, val = ff.split_train_val(full, 0.2, seed=8)
    shards = [train.subset(ix) for ix in ff.dirichlet_partition(train.labels, ff.PartitionSpec(0.1, 8, 9))]
    pool = ff.DistillPool.heldout(ff.make_gaussian_blobs(3, 86, None, 0.6, seed=10).inputs[:256], 64)
    cfg = FLConfig(rounds=2, client_count=8, participation=0.5, local_epochs=10, local_lr=0.05, local_batch=32,
                   strategy="feddf", distill=DistillConfig(max_steps=200, patience=60, pool=pool))
    return cfg, shards, val, Prototype("p0", (2, 32, 3))


@pytest.mark.parametrize(
    "case, strategy",
    [pytest.param(c, s, id=c if s == "fedavg" else f"{c}_{s}") for s in ("fedavg", "feddf")
     for c in ("one_cpu", "below_gate", "daemonic", "run_round_alone")] + [pytest.param("readme_feddf", "feddf", id="readme_feddf")],
)
def test_rounds_that_do_not_pay_for_workers_never_fork(case, strategy, pooled_rounds, monkeypatch):
    _, val, shards, proto = small_task()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse_pool)
    if case == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    if case == "daemonic":
        monkeypatch.setattr(multiprocessing, "current_process", lambda: SimpleNamespace(daemon=True))
    kw = dict(distill=DistillConfig(max_steps=20, patience=5, pool=uniform_pool())) if strategy == "feddf" else {}
    if case in ("one_cpu", "daemonic", "run_round_alone"):  # fusions that a forked job would score but for the case
        monkeypatch.setattr(flcore, "_SCORE_MIN_WORK", 0)
    cfg = small_cfg(strategy, **kw) if case == "below_gate" else over_gate_cfg(strategy, **kw)
    if case == "readme_feddf":
        cfg, shards, val, proto = readme_task()
        assert len(val) == 90 and len(val) * (2 * 32 + 32 * 3) < flcore._SCORE_MIN_WORK
    if case == "run_round_alone":
        run_round(ServerState.initialize([proto], cfg.seed), cfg, shards, val)
    else:
        run_training(cfg, shards, val, [proto])
    assert not any(pooled_rounds)


def test_distill_config_validation():
    with pytest.raises(ConfigError):
        DistillConfig(max_steps=10, patience=0, pool=uniform_pool())
    with pytest.raises(ConfigError):
        DistillConfig(max_steps=10, patience=11, pool=uniform_pool())
    with pytest.raises(ConfigError):
        DistillConfig(max_steps=-1, patience=1, pool=uniform_pool())


def test_fl_config_cross_field_validation():
    with pytest.raises(ConfigError):
        small_cfg("fedavg", prox_mu=0.1)
    assert small_cfg("fedprox").prox_mu == 0.0  # mu = 0 is the fedavg degeneracy
    with pytest.raises(ConfigError):
        small_cfg("fedavg", server_momentum=0.5)
    with pytest.raises(ConfigError):
        small_cfg("feddf")  # needs a distill config
    with pytest.raises(ConfigError):
        small_cfg("fedavg", distill=DistillConfig(max_steps=1, patience=1, pool=uniform_pool()))
    with pytest.raises(ConfigError):
        small_cfg("fedavg", drop_threshold=1.0)
    with pytest.raises(ConfigError):
        small_cfg("nonsense")


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(seed=1), "^state seed 0 != config seed 1$"),
        (dict(shards=4), "^5 clients but 4 shards$"),
        (dict(client_prototypes=["m"] * 4), "^client_prototypes maps 4 clients, expected 5$"),
        (dict(client_prototypes=["m", "x", "m", "y", "m"]), r"^client_prototypes references undeclared prototypes \['x', 'y'\]$"),
    ],
    ids=["seed", "shard_count", "map_length", "undeclared_prototype"],
)
def test_run_round_refuses_arguments_that_do_not_match_its_config(change, message):
    _, val, shards, proto = small_task()
    state = ServerState.initialize([proto], 0)
    cfg = small_cfg("fedavg", seed=change.get("seed", 0))
    with pytest.raises(ConfigError, match=message):
        run_round(state, cfg, shards[: change.get("shards", 5)], val, change.get("client_prototypes"))


def test_server_state_initialize_validation():
    protos = [Prototype("a", (2, 4, 3)), Prototype("b", (2, 6, 3))]
    state = ServerState.initialize(protos, seed=0)
    assert set(state.params) == {"a", "b"}
    assert state.round_index == 0
    with pytest.raises(ConfigError):
        ServerState.initialize([protos[0], protos[0]], seed=0)
    with pytest.raises(ConfigError):
        ServerState.initialize([protos[0], Prototype("c", (3, 4, 3))], seed=0)
    with pytest.raises(ConfigError):
        ServerState.initialize([protos[0], Prototype("c", (2, 4, 4))], seed=0)


def run_small(strategy, seed=0, rounds=3, **kw):
    train, val, shards, proto = small_task(seed=seed)
    cfg = small_cfg(strategy, rounds=rounds, seed=seed, **kw)
    state, recs = run_training(cfg, shards, val, [proto])
    return state, recs


def test_strategy_degeneracies_are_bitwise():
    base_state, base_recs = run_small("fedavg")
    for strategy, kw in (
        ("fedprox", dict(prox_mu=0.0)),
        ("fedavgm", dict(server_momentum=0.0)),
        ("feddf", dict(distill=DistillConfig(max_steps=0, patience=1, pool=uniform_pool()))),
    ):
        state, recs = run_small(strategy, **kw)
        assert np.array_equal(state.params["m"].values, base_state.params["m"].values), strategy
        for r_base, r_other in zip(base_recs, recs):
            assert r_base.acc_averaged == r_other.acc_averaged
            assert r_base.sampled == r_other.sampled


def test_prox_zero_mu_local_update_matches_plain_sgd():
    train, val, shards, proto = small_task()
    start = init_params(proto, 0)
    a = client_local_update(start, shards[1], 2, 0.05, 8, np.random.default_rng(1))
    b = client_local_update(start, shards[1], 2, 0.05, 8, np.random.default_rng(1), prox_mu=0.0)
    assert np.array_equal(a.values, b.values)


def test_run_training_deterministic():
    s1, r1 = run_small("fedavg", seed=4)
    s2, r2 = run_small("fedavg", seed=4)
    assert np.array_equal(s1.params["m"].values, s2.params["m"].values)
    assert [r.acc_averaged for r in r1] == [r.acc_averaged for r in r2]
    s3, _ = run_small("fedavg", seed=5)
    assert not np.array_equal(s1.params["m"].values, s3.params["m"].values)


@pytest.mark.parametrize("precision", ["full", "binary_ste"])
def test_client_training_order_cannot_change_a_round(precision):
    _, val, shards, _ = small_task()
    proto = Prototype("m", (2, 12, 3), precision=precision)
    cfg = small_cfg("feddf", distill=DistillConfig(max_steps=20, patience=5, pool=uniform_pool()))
    state, _ = run_round(ServerState.initialize([proto], 0), cfg, shards, val)
    cap = {}
    _, rec = run_round(state, cfg, shards, val, capture=cap)
    assert len(rec.sampled) > 1
    for k in reversed(rec.sampled):
        rng = client_rng(cfg.seed, rec.round_index, k)
        trained = client_local_update(
            state.params["m"], shards[k], cfg.local_epochs, cfg.local_lr, cfg.local_batch, rng
        )
        values = trained.values if precision == "full" else binarize_values(proto, trained.values)
        assert np.array_equal(values, cap["client_models"][k].values)


def test_fedavgm_momentum_changes_trajectory():
    s0, _ = run_small("fedavgm", server_momentum=0.0)
    s9, _ = run_small("fedavgm", server_momentum=0.9)
    assert not np.array_equal(s0.params["m"].values, s9.params["m"].values)


def test_drop_threshold_auto_value_runs():
    state, recs = run_small("fedavg", drop_threshold=1.1 / 3.0)
    assert all(isinstance(r.dropped, list) for r in recs)


def test_feddf_hetero_reads_as_feddf_until_the_benchmark_names_feddf():
    assert small_cfg("feddf_hetero", distill=DistillConfig(5, 5, uniform_pool())).strategy == "feddf"


def test_hetero_unsampled_prototype_carries_over():
    # 6 clients round-robin over 3 prototypes; participation 0.34 samples 3
    # clients and seed 0 round 1 draws {2, 4, 5}, leaving prototype p0 idle
    full = ff.make_gaussian_blobs(3, 90, None, 0.5, seed=0)
    train, val = ff.split_train_val(full, 0.2, seed=0)
    shards = [
        train.subset(ix)
        for ix in ff.dirichlet_partition(train.labels, ff.PartitionSpec(1.0, 6, 0))
    ]
    protos = [Prototype(f"p{i}", (2, 8 + 2 * i, 3)) for i in range(3)]
    cfg = FLConfig(
        rounds=1, client_count=6, participation=0.34, local_epochs=2, local_lr=0.05,
        local_batch=16, strategy="feddf", seed=0,
        distill=DistillConfig(max_steps=15, patience=5, pool=uniform_pool()),
    )
    init0 = ServerState.initialize(protos, 0).params["p0"]
    state, recs = run_training(cfg, shards, val, protos)
    assert recs[0].sampled == [2, 4, 5]
    assert "p0" not in recs[0].per_prototype
    assert np.array_equal(state.params["p0"].values, init0.values)
    assert set(recs[0].per_prototype) == {"p1", "p2"}


def test_weak_group_gains_from_strong_ensemble():
    centers = np.array([[0.0, 2.0], [-2.0, -1.0], [2.0, -1.0]])
    full = ff.make_gaussian_blobs(3, 150, centers, 0.5, seed=1000)
    train, val = ff.split_train_val(full, 0.2, seed=2000)
    i0 = np.flatnonzero(train.labels == 0)
    i1 = np.flatnonzero(train.labels == 1)
    i2 = np.flatnonzero(train.labels == 2)
    h0, h1, h2 = len(i0) // 2, len(i1) // 2, len(i2) // 2
    shards = [
        train.subset(np.sort(np.concatenate([i0[:h0], i1[:h1]]))),
        train.subset(np.sort(np.concatenate([i0[h0:], i1[h1:]]))),
        train.subset(np.sort(i2[:h2])),
        train.subset(np.sort(i2[h2:])),
    ]
    protos = [Prototype("strong", (2, 32, 32, 3)), Prototype("weak", (2, 24, 3))]
    cfg = FLConfig(
        rounds=1, client_count=4, participation=1.0, local_epochs=200, local_lr=0.05,
        local_batch=32, strategy="feddf", seed=0,
        distill=DistillConfig(max_steps=800, patience=200, pool=uniform_pool(60)),
    )
    _, recs = run_training(
        cfg, shards, val, protos, client_prototypes=["strong", "strong", "weak", "weak"]
    )
    weak = recs[0].per_prototype["weak"]
    assert weak["acc_fused"] > weak["acc_averaged"]
    assert weak["acc_fused"] - weak["acc_averaged"] >= 0.2


def fused_never_below_average(records) -> bool:
    """Each round's fused model scores at least its group's average on val, per prototype of a fleet."""
    groups = [g for r in records for g in (r.per_prototype.values() if r.per_prototype else [r.as_dict()])]
    return all(g["acc_fused"] >= g["acc_averaged"] for g in groups)


@pytest.mark.parametrize("case", ["uniform_noise", "skewed_heldout", "fleet_pin"])
def test_binary_prototype_round_trains_and_stays_binarized_on_wire(case):
    """Step 0 scores the average as it is deployed, binarized, and run_round re-scores the result by the same
    rule, so a from_average fusion never records a worse model than the average it started from."""
    from test_pins import fleet_run

    proto = Prototype("b", (2, 12, 3), precision="binary_ste")
    if case == "fleet_pin":  # its prototype "a" is binary_ste, "b" full precision
        state, recs = fleet_run()
        proto = state.params["a"].prototype
    else:
        if case == "uniform_noise":
            _, val, shards, _ = small_task()
            cfg = small_cfg("feddf", distill=DistillConfig(max_steps=15, patience=5, pool=uniform_pool()))
        else:  # a student trained and scored at full precision records 0.6389 here, its average 0.6667 (round 4)
            _, val, shards, _ = small_task(seed=4, alpha=0.5)
            pool = ff.DistillPool.heldout(np.random.default_rng(7).normal(size=(64, 2)), 16)
            cfg = small_cfg("feddf", rounds=4, local_lr=0.1, seed=4, distill=DistillConfig(40, 10, pool, 0.01))
        state, recs = run_training(cfg, shards, val, [proto])
    assert len(recs) == (3 if case == "uniform_noise" else 4) and proto.precision == "binary_ste"
    assert fused_never_below_average(recs)
    # served predictions use binarized weights: master values binarize cleanly
    served = binarize_values(proto, state.params[proto.id].values)
    assert np.isfinite(served).all()


def test_ensemble_dominance_on_disjoint_expert_toy():
    """Two independently initialized experts fused once; 3 replicates x 10 seeds.

    Mean accuracy must order ensemble >= fused >= averaged. Round-based runs
    from a shared server init do not show this (averaging is healthy there and
    the validation-best snapshot can top a 2-model ensemble), so the check
    replays the mismatched-weight-space regime where the pattern lives.
    """
    centers = np.array([[0.0, 2.0], [-2.0, -1.0], [2.0, -1.0]])
    proto = Prototype("m", (2, 32, 32, 3))

    def one_shot(seed):
        full = ff.make_gaussian_blobs(3, 150, centers, 0.5, seed=1000 + seed)
        train, val = ff.split_train_val(full, 0.2, seed=2000 + seed)
        test = ff.make_gaussian_blobs(3, 150, centers, 0.5, seed=3000 + seed)
        i0 = np.flatnonzero(train.labels == 0)
        i1 = np.flatnonzero(train.labels == 1)
        i2 = np.flatnonzero(train.labels == 2)
        half = len(i1) // 2
        sa = train.subset(np.sort(np.concatenate([i0, i1[:half]])))
        sb = train.subset(np.sort(np.concatenate([i2, i1[half:]])))
        ma = client_local_update(init_params(proto, 4000 + seed), sa, 200, 0.05, 32,
                                 np.random.default_rng(5000 + seed))
        mb = client_local_update(init_params(proto, 14000 + seed), sb, 200, 0.05, 32,
                                 np.random.default_rng(6000 + seed))
        avg = ff.average_params([ma, mb], [len(sa), len(sb)])
        cfg = DistillConfig(max_steps=800, patience=200, pool=uniform_pool(60))
        fused, _, _ = feddf_fuse([ma, mb], avg, cfg, val, np.random.default_rng(7000 + seed))
        return (
            ensemble_accuracy([ma, mb], test),
            top1_accuracy(fused, test),
            top1_accuracy(avg, test),
        )

    events = [one_shot(s) for s in range(30)]
    ens, fus, avg = (float(np.mean([e[i] for e in events])) for i in range(3))
    assert ens >= fus >= avg, f"ordering broke: ens {ens:.4f} fus {fus:.4f} avg {avg:.4f}"
    assert fus - avg >= 0.05
