"""Acceptance suite: eleven end-to-end gates on the package's headline behaviors.

Each test prints one `[criterion NN] PASS/FAIL ...` verdict line (visible in
the default pytest output, which runs with -s) and then asserts the gate.
The multi-seed federated runs are the expensive part, so every (seed, alpha,
strategy, variant) cell is computed once and cached at module level; several
later criteria reuse the alpha=0.1 cells of the rounds-race. Each criterion
first computes the cells it needs two at a time in worker processes (the
cells are pure functions of their keys, so a worker returns the same bits).
Criterion 04's time gate sums the cells' own compute times, so it bounds the
serial work, not the wall time of the workers. The whole file takes a few
minutes on two cores.

The task recipe below was frozen after calibration and is shared by criteria
4 through 8: a 10-class ring-of-blobs problem hard enough that naive
parameter averaging stays noisy at 40 local epochs while server-side
distillation still converges.
"""

import multiprocessing.pool
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fedfusion as ff
from fedfusion.data import ring_centers
from fedfusion.harness import rounds_to_target
from helpers import ce_at, fd_grad, kl_at, max_rel_err, random_case

pytestmark = pytest.mark.acceptance

SEEDS = tuple(range(10))
ALPHA_MILD = 1.0
ALPHA_SKEWED = 0.1

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

_CACHE: dict = {}


_WORKERS: list[multiprocessing.pool.Pool] = []


@pytest.fixture(scope="module", autouse=True)
def _shut_down_workers():
    yield
    while _WORKERS:
        pool = _WORKERS.pop()
        pool.close()
        pool.join()


def parallel_map(fn, items: list) -> list:
    """[fn(item) for item in items], run in two spawned worker processes.

    The workers are daemonic, so run_training inside them trains its clients
    serially: the two workers already keep two cores busy, and a forked pool
    in each would only contend for them.
    """
    if len(items) < 2:
        return [fn(item) for item in items]
    if not _WORKERS:
        _WORKERS.append(multiprocessing.get_context("spawn").Pool(2))
    return _WORKERS[0].map(fn, items, chunksize=1)


def arm(seed, alpha, strategy, epochs=40, init_mode="from_average", pool="heldout") -> tuple:
    """Cache key of race_records with the same arguments."""
    return ("records", seed, alpha, strategy, epochs, init_mode, pool)


def _compute_cell(key: tuple) -> tuple:
    """(value, seconds) of one cell, timed in the process that computes it."""
    tic = time.perf_counter()
    kind, *args = key
    value = race_records(*args) if kind == "records" else race_target(*args)
    return value, time.perf_counter() - tic


def prefetch(keys: list[tuple]) -> float:
    """Fill the cache for keys: ("target", seed, alpha) or
    ("records", seed, alpha, strategy, epochs, init_mode, pool).

    Returns the summed compute time of the cells it filled, which is what
    computing them one after another would take, however many workers ran.
    """
    todo = {k for k in keys if k not in _CACHE}
    # distillation arms take the longest, so they go first
    todo = sorted(todo, key=lambda k: (k[0] != "records" or k[3] != "feddf", k))
    serial_s = 0.0
    for key, (value, seconds) in zip(todo, parallel_map(_compute_cell, todo)):
        _CACHE[key] = value
        serial_s += seconds
    return serial_s


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def race_task(seed: int, alpha: float):
    """Deterministic task cell: data, split, shards, and the model family."""
    p = RECIPE
    centers = ring_centers(p["classes"], p["ring_radius"])
    full = ff.make_gaussian_blobs(
        p["classes"], p["per_class"], centers, p["scale"], seed=1000 + seed
    )
    train, val = ff.split_train_val(full, p["val_fraction"], seed=2000 + seed)
    spec = ff.PartitionSpec(alpha, p["clients"], 4000 + seed)
    shards = [train.subset(ix) for ix in ff.dirichlet_partition(train.labels, spec)]
    proto = ff.Prototype("m", (2,) + p["widths"] + (p["classes"],))
    return centers, train, val, shards, proto


def race_pool(kind: str, centers: np.ndarray, seed: int) -> ff.DistillPool:
    p = RECIPE
    if kind == "heldout":
        per = -(-p["pool_size"] // p["classes"])
        blobs = ff.make_gaussian_blobs(p["classes"], per, centers, p["scale"], seed=5000 + seed)
        return ff.DistillPool.heldout(blobs.inputs[: p["pool_size"]], p["distill_batch"])
    if kind == "gaussian_noise":
        return ff.DistillPool.gaussian_noise(2, p["distill_batch"])
    return ff.DistillPool.uniform_noise(-3.5, 3.5, 2, p["distill_batch"])


def race_records(
    seed: int,
    alpha: float,
    strategy: str,
    epochs: int = 40,
    init_mode: str = "from_average",
    pool: str = "heldout",
):
    """Round records for one frozen-recipe arm, cached across tests."""
    key = arm(seed, alpha, strategy, epochs, init_mode, pool)
    if key not in _CACHE:
        p = RECIPE
        centers, train, val, shards, proto = race_task(seed, alpha)
        distill = None
        if strategy == "feddf":
            distill = ff.DistillConfig(
                max_steps=p["distill_steps"],
                patience=p["distill_patience"],
                pool=race_pool(pool, centers, seed),
                init_mode=init_mode,
            )
        cfg = ff.FLConfig(
            rounds=p["rounds"],
            client_count=p["clients"],
            participation=p["participation"],
            local_epochs=epochs,
            local_lr=p["local_lr"],
            local_batch=p["local_batch"],
            strategy=strategy,
            seed=seed,
            distill=distill,
        )
        _, recs = ff.run_training(cfg, shards, val, [proto])
        _CACHE[key] = recs
    return _CACHE[key]


def race_target(seed: int, alpha: float) -> float:
    """0.9 x centralized validation accuracy, the rounds-race finish line."""
    key = ("target", seed, alpha)
    if key not in _CACHE:
        p = RECIPE
        _, train, val, _, proto = race_task(seed, alpha)
        cent = ff.client_local_update(
            ff.init_params(proto, 6000 + seed),
            train,
            p["centralized_epochs"],
            p["local_lr"],
            p["local_batch"],
            np.random.default_rng(6500 + seed),
        )
        _CACHE[key] = 0.9 * ff.top1_accuracy(cent, val)
    return _CACHE[key]


def final_acc(recs, strategy: str) -> float:
    """Last-round validation accuracy of the model the strategy deploys."""
    return recs[-1].acc_fused if strategy == "feddf" else recs[-1].acc_averaged


def test_criterion_01_gradient_oracle():
    rng = np.random.default_rng(5)
    tic = time.perf_counter()
    worst = 0.0
    for i in range(50):
        params, inputs, labels, target_probs = random_case(rng)
        if i % 2 == 0:
            analytic = ff.grad("ce", params, inputs, labels=labels)
            loss = ce_at(params, inputs, labels)
        else:
            analytic = ff.grad("kl_vs_target", params, inputs, target_probs=target_probs)
            loss = kl_at(params, inputs, target_probs)
        worst = max(worst, max_rel_err(fd_grad(loss, params.values.copy()), analytic))
    elapsed = time.perf_counter() - tic
    verdict(
        1,
        worst <= 1e-4 and elapsed < 10.0,
        f"analytic vs central-difference gradients on 50 random cases: "
        f"max relative error {worst:.2e} (gate 1e-4), {elapsed:.1f}s (gate 10s)",
    )


def degeneracy_run(strategy: str, **kw):
    centers = np.array([[0.0, 2.0], [-2.0, -1.0], [2.0, -1.0]])
    full = ff.make_gaussian_blobs(3, 80, centers, 0.6, seed=11)
    train, val = ff.split_train_val(full, 0.2, seed=12)
    spec = ff.PartitionSpec(1.0, 4, 13)
    shards = [train.subset(ix) for ix in ff.dirichlet_partition(train.labels, spec)]
    proto = ff.Prototype("m", (2, 16, 3))
    cfg = ff.FLConfig(
        rounds=10,
        client_count=4,
        participation=0.5,
        local_epochs=2,
        local_lr=0.05,
        local_batch=16,
        strategy=strategy,
        seed=7,
        **kw,
    )
    state, recs = ff.run_training(cfg, shards, val, [proto])
    return state.params["m"].values, recs


def test_criterion_02_strategy_degeneracies_bitwise():
    base_vals, base_recs = degeneracy_run("fedavg")
    zero_pool = ff.DistillPool.uniform_noise(-3.0, 3.0, 2, 20)
    mismatches = []
    for label, strategy, kw in (
        ("fedprox(mu=0)", "fedprox", dict(prox_mu=0.0)),
        ("fedavgm(beta=0)", "fedavgm", dict(server_momentum=0.0)),
        (
            "feddf(steps=0)",
            "feddf",
            dict(distill=ff.DistillConfig(max_steps=0, patience=1, pool=zero_pool)),
        ),
    ):
        vals, recs = degeneracy_run(strategy, **kw)
        same = np.array_equal(vals, base_vals) and all(
            a.acc_averaged == b.acc_averaged
            and a.acc_fused == b.acc_fused
            and a.sampled == b.sampled
            for a, b in zip(base_recs, recs)
        )
        if not same:
            mismatches.append(label)
    verdict(
        2,
        not mismatches,
        "fedprox(mu=0), fedavgm(beta=0), feddf(steps=0) all bitwise-equal to fedavg "
        "over a shared-seed 10-round run"
        + ("" if not mismatches else f"; diverged: {', '.join(mismatches)}"),
    )


def test_criterion_03_one_shot_fusion_sharpens_blurred_average():
    tic = time.perf_counter()
    centers = np.array([[0.0, 2.0], [-2.0, -1.0], [2.0, -1.0]])
    proto = ff.Prototype("m", (2, 32, 32, 3))

    def one_shot(seed):
        # two clients with complementary class coverage, independently
        # initialized, trained to convergence, then fused once
        full = ff.make_gaussian_blobs(3, 150, centers, 0.5, seed=1000 + seed)
        train, val = ff.split_train_val(full, 0.2, seed=2000 + seed)
        test = ff.make_gaussian_blobs(3, 150, centers, 0.5, seed=3000 + seed)
        i0 = np.flatnonzero(train.labels == 0)
        i1 = np.flatnonzero(train.labels == 1)
        i2 = np.flatnonzero(train.labels == 2)
        half = len(i1) // 2
        sa = train.subset(np.sort(np.concatenate([i0, i1[:half]])))
        sb = train.subset(np.sort(np.concatenate([i2, i1[half:]])))
        ma = ff.client_local_update(
            ff.init_params(proto, 4000 + seed), sa, 200, 0.05, 32,
            np.random.default_rng(5000 + seed),
        )
        mb = ff.client_local_update(
            ff.init_params(proto, 14000 + seed), sb, 200, 0.05, 32,
            np.random.default_rng(6000 + seed),
        )
        avg = ff.average_params([ma, mb], [len(sa), len(sb)])
        cfg = ff.DistillConfig(
            max_steps=800, patience=200, pool=ff.DistillPool.uniform_noise(-3.0, 3.0, 2, 60)
        )
        fused, _, _ = ff.feddf_fuse([ma, mb], avg, cfg, val, np.random.default_rng(7000 + seed))
        return (
            ff.ensemble_accuracy([ma, mb], test),
            ff.top1_accuracy(fused, test),
            ff.top1_accuracy(avg, test),
        )

    events = [one_shot(s) for s in SEEDS]
    ens, fus, avg = (float(np.mean([e[i] for e in events])) for i in range(3))
    elapsed = time.perf_counter() - tic
    ok = (
        ens >= fus >= avg
        and fus - avg >= 0.05
        and abs(ens - fus) <= 0.03
        and elapsed < 120.0
    )
    verdict(
        3,
        ok,
        f"two disjoint-leaning clients fused once, 10 seeds: mean test accuracy "
        f"ensemble {ens:.4f} >= fused {fus:.4f} >= averaged {avg:.4f}, "
        f"fused-averaged {fus - avg:+.4f} (gate >= +0.05), "
        f"|ensemble-fused| {abs(ens - fus):.4f} (gate <= 0.03), "
        f"{elapsed:.0f}s (gate 120s)",
    )


def test_criterion_04_fewer_rounds_to_target():
    # the time gate covers the serial work: each cell's own compute time,
    # summed, plus the loop below, not the wall time of the parallel workers
    alphas = (ALPHA_MILD, ALPHA_SKEWED)
    serial_s = prefetch(
        [arm(s, a, st) for a in alphas for s in SEEDS for st in ("fedavg", "feddf")]
        + [("target", s, a) for a in alphas for s in SEEDS]
    )
    tic = time.perf_counter()
    wins = {}
    for alpha in alphas:
        n = 0
        for seed in SEEDS:
            target = race_target(seed, alpha)
            r_avg = rounds_to_target(race_records(seed, alpha, "fedavg"), target)
            r_df = rounds_to_target(race_records(seed, alpha, "feddf"), target)
            n += (r_df is not None) and (r_avg is None or r_df < r_avg)
        wins[alpha] = n
    elapsed = serial_s + time.perf_counter() - tic
    ok = all(n >= 8 for n in wins.values()) and elapsed < 900.0
    verdict(
        4,
        ok,
        f"distillation reaches the 0.9x-centralized target in strictly fewer rounds "
        f"than plain averaging on {wins[ALPHA_MILD]}/10 seeds at alpha=1 and "
        f"{wins[ALPHA_SKEWED]}/10 at alpha=0.1 (gate >= 8/10 each), "
        f"{elapsed:.0f}s (gate 900s)",
    )


def test_criterion_05_margin_survives_heavy_local_work():
    prefetch(
        [arm(s, ALPHA_SKEWED, st, e) for e in (20, 40) for s in SEEDS for st in ("fedavg", "feddf")]
    )
    gaps = {}
    for epochs in (20, 40):
        per_seed = [
            final_acc(race_records(s, ALPHA_SKEWED, "feddf", epochs=epochs), "feddf")
            - final_acc(race_records(s, ALPHA_SKEWED, "fedavg", epochs=epochs), "fedavg")
            for s in SEEDS
        ]
        gaps[epochs] = float(np.mean(per_seed))
    verdict(
        5,
        all(v >= 0.02 for v in gaps.values()),
        f"mean final-accuracy margin of distillation over averaging stays positive "
        f"as local epochs grow: E=20 {gaps[20]:+.4f}, E=40 {gaps[40]:+.4f} "
        f"(gate >= +0.02 each, alpha=0.1, 10 seeds)",
    )


def hetero_margins(seed: int) -> tuple[list[float], list[int]]:
    """Per family: mean fused minus mean group-average accuracy, and rounds fused."""
    p = RECIPE
    margins = []
    rounds_seen = []
    centers, train, val, shards, _ = race_task(seed, ALPHA_MILD)
    protos = [
        ff.Prototype(f"p{i}", (2,) + w + (p["classes"],))
        for i, w in enumerate([(32, 32), (48, 48), (64,)])
    ]
    cmap = [protos[k % 3].id for k in range(p["clients"])]
    distill = ff.DistillConfig(
        max_steps=p["distill_steps"],
        patience=p["distill_patience"],
        pool=race_pool("heldout", centers, seed),
        init_mode="from_average",
    )
    cfg = ff.FLConfig(
        rounds=5,
        client_count=p["clients"],
        participation=p["participation"],
        local_epochs=p["local_epochs"],
        local_lr=p["local_lr"],
        local_batch=p["local_batch"],
        strategy="feddf_hetero",
        seed=seed,
        distill=distill,
    )
    _, recs = ff.run_training(cfg, shards, val, protos, client_prototypes=cmap)
    for proto in protos:
        fused = [
            r.per_prototype[proto.id]["acc_fused"]
            for r in recs
            if proto.id in r.per_prototype
        ]
        avg = [
            r.per_prototype[proto.id]["acc_averaged"]
            for r in recs
            if proto.id in r.per_prototype
        ]
        rounds_seen.append(len(fused))
        margins.append(float(np.mean(fused) - np.mean(avg)))
    return margins, rounds_seen


def test_criterion_06_heterogeneous_fusion_lifts_every_prototype():
    margins = []
    rounds_seen = []
    for seed_margins, seed_rounds in parallel_map(hetero_margins, list(SEEDS)):
        margins += seed_margins
        rounds_seen += seed_rounds
    ok = min(rounds_seen) >= 3 and all(m >= 0.0 for m in margins)
    verdict(
        6,
        ok,
        f"three model families trained side by side (alpha=1, 5 rounds, 10 seeds): "
        f"every family's mean fused accuracy >= its own-group average, "
        f"margins {min(margins):+.4f}..{max(margins):+.4f}, each family fused in "
        f">= {min(rounds_seen)} rounds",
    )


def test_criterion_07_student_init_from_fresh_average_wins():
    modes = ("from_average", "from_previous")
    prefetch([arm(s, ALPHA_SKEWED, "feddf", init_mode=m) for m in modes for s in SEEDS])
    fa = float(
        np.mean(
            [
                final_acc(race_records(s, ALPHA_SKEWED, "feddf", init_mode="from_average"), "feddf")
                for s in SEEDS
            ]
        )
    )
    fp = float(
        np.mean(
            [
                final_acc(race_records(s, ALPHA_SKEWED, "feddf", init_mode="from_previous"), "feddf")
                for s in SEEDS
            ]
        )
    )
    verdict(
        7,
        fa >= fp + 0.02,
        f"seeding each fusion from the fresh client average beats carrying over the "
        f"previous fused model: {fa:.4f} vs {fp:.4f}, margin {fa - fp:+.4f} "
        f"(gate >= +0.02, alpha=0.1, 10 seeds)",
    )


def test_criterion_08_noise_pool_matches_heldout_pool():
    kinds = ("heldout", "gaussian_noise", "uniform_noise")
    prefetch([arm(s, ALPHA_SKEWED, "feddf", pool=k) for k in kinds for s in SEEDS])
    means = {
        kind: float(
            np.mean(
                [
                    final_acc(race_records(s, ALPHA_SKEWED, "feddf", pool=kind), "feddf")
                    for s in SEEDS
                ]
            )
        )
        for kind in kinds
    }
    diff = abs(means["heldout"] - means["gaussian_noise"])
    verdict(
        8,
        diff <= 0.05,
        f"final fused accuracy with a held-out distillation pool {means['heldout']:.4f} "
        f"vs gaussian-noise pool {means['gaussian_noise']:.4f}, |difference| {diff:.4f} "
        f"(gate <= 0.05); uniform-noise pool {means['uniform_noise']:.4f} reported, "
        f"not gated (alpha=0.1, 10 seeds)",
    )


def line_sample(rng: np.random.Generator) -> ff.Dataset:
    n = int(rng.integers(8, 40))
    inputs = rng.uniform(-2.0, 2.0, size=(n, 1))
    labels = rng.integers(0, 2, size=n)
    return ff.Dataset(inputs, labels, 2)


def test_criterion_09_bound_suite():
    tic = time.perf_counter()
    holds = 0
    for seed in range(100):
        inst = ff.make_bound_instance(seed)
        report = ff.check_bound(
            inst["k_clients"],
            inst["m"],
            inst["delta"],
            inst["hclass"],
            inst["global_sample"],
            inst["local_samples"],
        )
        holds += bool(report.holds)

    rng = np.random.default_rng(90)
    hclass = ff.signed_thresholds_1d(np.linspace(-2.0, 2.0, 9))
    sym_range_ok = True
    for _ in range(50):
        a, b = line_sample(rng), line_sample(rng)
        d_ab = ff.h_delta_h_divergence(a, b, hclass)
        d_ba = ff.h_delta_h_divergence(b, a, hclass)
        sym_range_ok &= d_ab == d_ba and 0.0 <= d_ab <= 2.0
    # the 5-point grid's thresholds all appear in the 17-point grid, so the
    # fine class's divergence supremum runs over a superset of pairs
    coarse = ff.thresholds_1d(np.linspace(-2.0, 2.0, 5))
    fine = ff.thresholds_1d(np.linspace(-2.0, 2.0, 17))
    mono_ok = True
    for _ in range(25):
        a, b = line_sample(rng), line_sample(rng)
        mono_ok &= (
            ff.h_delta_h_divergence(a, b, coarse)
            <= ff.h_delta_h_divergence(a, b, fine) + 1e-12
        )

    jensen_ok = 0
    for i in range(1000):
        r = np.random.default_rng(10000 + i)
        sample = line_sample(r)
        members = [
            ff.Stump(0, float(r.uniform(-2.0, 2.0)), int(r.choice([1, -1])))
            for _ in range(int(r.integers(1, 8)))
        ]
        mean_member = float(np.mean([ff.empirical_risk(h, sample) for h in members]))
        jensen_ok += ff.ensemble_risk(members, sample) <= mean_member + 1e-12
    elapsed = time.perf_counter() - tic
    ok = (
        holds == 100
        and sym_range_ok
        and mono_ok
        and jensen_ok == 1000
        and elapsed < 60.0
    )
    verdict(
        9,
        ok,
        f"bound holds on {holds}/100 random instances; divergence symmetry and "
        f"[0, 2] range on 50 pairs: {'ok' if sym_range_ok else 'violated'}; "
        f"monotone under grid refinement on 25 pairs: {'ok' if mono_ok else 'violated'}; "
        f"ensemble risk <= mean member risk on {jensen_ok}/1000 instances; "
        f"{elapsed:.1f}s (gate 60s)",
    )


def test_criterion_10_partition_laws():
    rng = np.random.default_rng(40)
    cover_failures = 0
    for _ in range(100):
        classes = int(rng.integers(2, 11))
        clients = int(rng.integers(2, 13))
        n = int(rng.integers(clients, 400))
        labels = rng.integers(0, classes, size=n)
        alpha = float(10.0 ** rng.uniform(-2.0, 2.0))
        spec = ff.PartitionSpec(alpha, clients, int(rng.integers(0, 10**6)))
        shards = ff.dirichlet_partition(labels, spec)
        seen = np.concatenate([np.asarray(ix) for ix in shards])
        if not (len(seen) == n and len(np.unique(seen)) == n):
            cover_failures += 1

    alphas = (0.01, 0.1, 1.0, 100.0)
    labels = np.repeat(np.arange(10), 200)
    means = []
    for alpha in alphas:
        per_seed = []
        for seed in range(30):
            shards = ff.dirichlet_partition(labels, ff.PartitionSpec(alpha, 20, seed))
            per_seed.append(float(np.mean([ff.label_entropy(labels[ix], 10) for ix in shards])))
        means.append(float(np.mean(per_seed)))
    mono = all(means[i] < means[i + 1] for i in range(3))
    verdict(
        10,
        cover_failures == 0 and mono,
        f"100 random partitions are exact disjoint covers ({100 - cover_failures}/100); "
        f"mean shard label entropy {[round(m, 3) for m in means]} strictly increases "
        f"over alpha {alphas} (30 seeds each)",
    )


def test_criterion_11_byte_identical_summaries(tmp_path):
    config_text = "\n".join(
        [
            "[experiment]",
            "schema_version = 1",
            "seeds = 0, 1",
            f"output = {tmp_path / 'out'}",
            "",
            "[dataset]",
            "classes = 3",
            "per_class = 60",
            "scale = 0.6",
            "test_per_class = 60",
            "val_fraction = 0.2",
            "",
            "[partition]",
            "alpha = 0.5",
            "",
            "[federated]",
            "rounds = 3",
            "clients = 4",
            "participation = 0.5",
            "local_epochs = 2",
            "local_lr = 0.05",
            "local_batch = 16",
            "strategies = fedavg, feddf",
            "prototypes = 2,16,3",
            "",
            "[distillation]",
            "max_steps = 25",
            "patience = 10",
            "pool_size = 64",
            "batch_size = 32",
            "",
            "[evaluation]",
            "target = relative:0.9",
            "centralized_epochs = 10",
            "",
        ]
    )
    path = tmp_path / "exp.ini"
    path.write_text(config_text)
    cfg = ff.load_experiment_config(path)
    summary_path = tmp_path / "out" / "summary.json"
    ff.run_experiment(cfg)
    first = summary_path.read_bytes()
    ff.run_experiment(cfg)
    second = summary_path.read_bytes()
    # the same config through the CLI in a fresh interpreter, written elsewhere
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p),
        ff.harness.OUTPUT_ENV_VAR: str(tmp_path / "fresh"),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "fedfusion", "run", str(path)], capture_output=True, env=env
    )
    third = (tmp_path / "fresh" / "summary.json").read_bytes() if proc.returncode == 0 else b""
    verdict(
        11,
        first == second == third,
        f"summary file byte-identical across a rerun ({'yes' if first == second else 'NO'}) "
        f"and in a fresh `python -m fedfusion run` process "
        f"({'yes' if first == third else f'NO, exit {proc.returncode}'}); {len(first)} bytes, "
        f"2 seeds x 2 strategies x 3 rounds",
    )
