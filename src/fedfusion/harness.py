"""Experiment orchestration: config files, metrics artifacts, summaries, grids.

Config files are INI format (configparser). A full experiment file looks like

    [experiment]
    schema_version = 1
    seeds = 0,1,2
    output = runs/demo

    [dataset]
    classes = 3
    per_class = 200
    scale = 0.8
    centers = auto
    test_per_class = 200
    val_fraction = 0.15

    [partition]
    alpha = 1.0

    [federated]
    rounds = 10
    clients = 20
    participation = 0.4
    local_epochs = 20
    local_lr = 0.05
    local_batch = 32
    strategies = fedavg, feddf
    prototypes = 2,32,32,3

    [distillation]
    max_steps = 200
    patience = 60
    base_lr = 0.001
    init_mode = from_average
    pool = heldout
    pool_size = 256
    batch_size = 64

    [evaluation]
    target = relative:0.9
    centralized_epochs = 60
    grid = none

Unknown sections and keys are a ConfigError, as are bad values. Each
(seed, strategy) arm is one flcore.run_training call. Its RoundRecords go to
<output>/seed<k>/<strategy>/metrics.jsonl, one line each: as_dict() plus
wall_ms, the round wall time run_training stamps on each record and the only
nondeterministic field. The aggregate summary.json is byte-identical across
reruns of the same config. The FEDFUSION_OUTPUT_ROOT environment variable,
when set, replaces the configured output directory.
"""

from __future__ import annotations

import configparser
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._errors import ConfigError, ShapeError
from . import bound as bound_mod
from .data import (
    Dataset,
    DistillPool,
    PartitionSpec,
    dirichlet_partition,
    label_entropy,
    make_gaussian_blobs,
    ring_centers,
    save_dataset,
    split_train_val,
)
from .flcore import (
    STRATEGIES,
    DistillConfig,
    FLConfig,
    RoundRecord,
    ServerState,
    client_local_update,
    run_training,
    top1_accuracy,
)
from .models import ParamVector, Prototype, init_params, predict_logits, save_params
from .numerics import softmax

SCHEMA_VERSION = 1
OUTPUT_ENV_VAR = "FEDFUSION_OUTPUT_ROOT"

__all__ = [
    "SCHEMA_VERSION",
    "OUTPUT_ENV_VAR",
    "ExperimentConfig",
    "load_experiment_config",
    "rounds_to_target",
    "decision_boundary_grid",
    "save_boundary_grid",
    "top1_accuracy",
    "run_experiment",
    "partition_report",
    "load_bound_config",
    "run_bound_suite",
]


def write_metrics(records: list[RoundRecord], path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps({**rec.as_dict(), "wall_ms": rec.wall_ms}, sort_keys=True) + "\n")


def read_metrics(path) -> list[RoundRecord]:
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return [RoundRecord(round_index=d.pop("round"), per_prototype=d.pop("acc_per_prototype"), **d) for d in rows]


def rounds_to_target(history, target: float) -> int | None:
    """First 1-based round whose fused accuracy reaches target; None if never.

    history may hold RoundRecords (acc_fused is used; for non-distilling
    strategies that equals the averaged accuracy) or bare floats.
    """
    for i, item in enumerate(history, start=1):
        acc = float(item.acc_fused) if hasattr(item, "acc_fused") else float(item)
        if acc >= target:
            return i
    return None


def decision_boundary_grid(
    params: ParamVector, bounds: tuple[float, float], resolution: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class probabilities on a square grid for a 2-input model.

    Returns (xs, ys, probs) with probs[i, j] the probability vector at
    (xs[j], ys[i]); flattening row-major matches the CSV export order.
    """
    if params.prototype.n_inputs != 2:
        raise ShapeError("decision boundaries need a 2-input prototype")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise ValueError(f"bounds must satisfy lo < hi, got ({lo}, {hi})")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    xs = np.linspace(lo, hi, resolution)
    ys = np.linspace(lo, hi, resolution)
    gx, gy = np.meshgrid(xs, ys)
    points = np.stack([gx.ravel(), gy.ravel()], axis=1)
    probs = softmax(predict_logits(params, points))
    return xs, ys, probs.reshape(resolution, resolution, params.prototype.n_classes)


def save_boundary_grid(xs: np.ndarray, ys: np.ndarray, probs: np.ndarray, path) -> None:
    """CSV with header x,y,p0..p{C-1}, rows in row-major grid order."""
    res_y, res_x, classes = probs.shape
    header = ",".join(["x", "y"] + [f"p{c}" for c in range(classes)])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(res_y):
            for j in range(res_x):
                cells = ["%.17g" % xs[j], "%.17g" % ys[i]]
                cells += ["%.17g" % p for p in probs[i, j]]
                fh.write(",".join(cells) + "\n")


# seed-derivation tags for per-seed data artifacts
_TAG_TRAIN, _TAG_TEST, _TAG_POOL, _TAG_SPLIT, _TAG_PART, _TAG_CENT_RNG, _TAG_CENT_INIT = range(7)


def _derive_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, 100 + tag]).generate_state(1, np.uint64)[0])


@dataclass
class ExperimentConfig:
    """Normalized experiment settings; build one with load_experiment_config."""

    schema_version: int
    seeds: list[int]
    output_root: str
    classes: int
    per_class: int
    scale: float
    centers: np.ndarray | None
    test_per_class: int
    val_fraction: float
    alpha: float
    rounds: int
    clients: int
    participation: float
    local_epochs: int
    local_lr: float
    local_batch: int
    strategies: list[str]
    prototype_widths: list[tuple[int, ...]]
    activation: str
    precision: str
    prox_mu: float
    server_momentum: float
    drop_threshold: float | None
    distill: dict | None
    target_mode: str
    target_value: float
    centralized_epochs: int
    grid: tuple[float, float, int] | None
    save_data: bool
    grid_clients: bool

    def prototypes(self) -> list[Prototype]:
        return [
            Prototype(f"p{i}", widths, self.activation, self.precision)
            for i, widths in enumerate(self.prototype_widths)
        ]

    def client_prototype_map(self) -> list[str]:
        ids = [p.id for p in self.prototypes()]
        return [ids[k % len(ids)] for k in range(self.clients)]

    def public_dict(self) -> dict:
        d = {
            "schema_version": self.schema_version,
            "seeds": self.seeds,
            "dataset": {
                "classes": self.classes,
                "per_class": self.per_class,
                "scale": self.scale,
                "centers": None if self.centers is None else [list(c) for c in self.centers],
                "test_per_class": self.test_per_class,
                "val_fraction": self.val_fraction,
            },
            "partition": {"alpha": self.alpha},
            "federated": {
                "rounds": self.rounds,
                "clients": self.clients,
                "participation": self.participation,
                "local_epochs": self.local_epochs,
                "local_lr": self.local_lr,
                "local_batch": self.local_batch,
                "strategies": self.strategies,
                "prototypes": [list(w) for w in self.prototype_widths],
                "activation": self.activation,
                "precision": self.precision,
                "prox_mu": self.prox_mu,
                "server_momentum": self.server_momentum,
                "drop_threshold": self.drop_threshold,
            },
            "distillation": self.distill,
            "evaluation": {
                "target_mode": self.target_mode,
                "target_value": self.target_value,
                "centralized_epochs": self.centralized_epochs,
                "grid": list(self.grid) if self.grid else None,
            },
        }
        return d


_MISSING = object()

# every section and key a config file may set
_EXPERIMENT_KEYS = {
    "experiment": {"schema_version", "seeds", "output"},
    "dataset": {"classes", "per_class", "scale", "centers", "test_per_class", "val_fraction", "save"},
    "partition": {"alpha"},
    "federated": {
        "rounds", "clients", "participation", "local_epochs", "local_lr", "local_batch",
        "strategies", "prototypes", "activation", "precision", "prox_mu", "server_momentum",
        "drop_threshold",
    },
    "distillation": {
        "max_steps", "patience", "base_lr", "init_mode", "pool", "pool_size", "batch_size",
        "noise_low", "noise_high",
    },
    "evaluation": {"target", "centralized_epochs", "grid", "grid_clients"},
}
_BOUND_KEYS = {
    "bound": {"instances", "family", "grid_size", "ref_size", "delta", "seed", "k_clients", "m", "output"}
}


def _read_ini(path, known: dict[str, set[str]]) -> configparser.ConfigParser:
    """Parse an INI file; a missing file or an unknown section or key is a ConfigError.

    Keys of the DEFAULT section show up in every section and are not checked.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser.read(path)
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")
        unknown = sorted(set(parser.options(section)) - set(parser.defaults()) - known[section])
        if unknown:
            raise ConfigError("unknown key " + ", ".join(f"{section}.{k}" for k in unknown))
    return parser


def _get(parser: configparser.ConfigParser, section: str, key: str, cast, default=_MISSING):
    if not parser.has_section(section):
        if default is not _MISSING:
            return default
        raise ConfigError(f"missing section [{section}]")
    if not parser.has_option(section, key):
        if default is not _MISSING:
            return default
        raise ConfigError(f"missing {section}.{key}")
    raw = parser.get(section, key).strip()
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int_list(raw: str) -> list[int]:
    return [int(tok) for tok in raw.replace(" ", "").split(",") if tok]


def _parse_str_list(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _parse_centers(raw: str) -> np.ndarray | None:
    if raw.lower() in ("auto", "ring", ""):
        return None
    points = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        points.append([float(v) for v in chunk.split(",")])
    arr = np.array(points, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("centers must be 'auto' or 'x,y; x,y; ...'")
    return arr


def _parse_widths_list(raw: str) -> list[tuple[int, ...]]:
    groups = []
    for chunk in raw.split("|"):
        widths = tuple(int(tok) for tok in chunk.replace(" ", "").split(",") if tok)
        if widths:
            groups.append(widths)
    if not groups:
        raise ValueError("no prototype widths given")
    return groups


def _parse_grid(raw: str) -> tuple[float, float, int] | None:
    if raw.lower() in ("none", ""):
        return None
    parts = [tok.strip() for tok in raw.split(",")]
    if len(parts) != 3:
        raise ValueError("grid must be 'lo,hi,resolution' or 'none'")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _parse_target(raw: str) -> tuple[str, float]:
    if raw.lower() == "none":
        return "none", 0.0
    if ":" not in raw:
        raise ValueError("target must look like relative:0.9, absolute:0.8, or none")
    mode, value = raw.split(":", 1)
    mode = mode.strip().lower()
    if mode not in ("relative", "absolute"):
        raise ValueError(f"unknown target mode {mode!r}")
    return mode, float(value)


def load_experiment_config(path) -> ExperimentConfig:
    """Parse and validate an experiment INI file; ConfigError names the field."""
    parser = _read_ini(path, _EXPERIMENT_KEYS)

    schema = _get(parser, "experiment", "schema_version", int)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"experiment.schema_version must be {SCHEMA_VERSION}, got {schema}")
    seeds = _get(parser, "experiment", "seeds", _parse_int_list)
    if not seeds or any(s < 0 for s in seeds) or len(set(seeds)) != len(seeds):
        raise ConfigError("experiment.seeds must be distinct non-negative integers")
    output_root = _get(parser, "experiment", "output", str)

    classes = _get(parser, "dataset", "classes", int)
    per_class = _get(parser, "dataset", "per_class", int)
    scale = _get(parser, "dataset", "scale", float)
    centers = _get(parser, "dataset", "centers", _parse_centers, default=None)
    test_per_class = _get(parser, "dataset", "test_per_class", int, default=per_class)
    val_fraction = _get(parser, "dataset", "val_fraction", float, default=0.15)
    if classes < 2:
        raise ConfigError("dataset.classes must be >= 2")
    if per_class < 1 or test_per_class < 1:
        raise ConfigError("dataset.per_class and dataset.test_per_class must be >= 1")
    if centers is not None and centers.shape[0] != classes:
        raise ConfigError(
            f"dataset.centers lists {centers.shape[0]} points for {classes} classes"
        )
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError("dataset.val_fraction must lie in (0, 1)")
    # split_train_val sends round(val_fraction * per_class) of each class to validation
    val_per_class = int(round(val_fraction * per_class))
    if not 0 < val_per_class < per_class:
        raise ConfigError(
            f"dataset.val_fraction = {val_fraction} puts {val_per_class} of per_class = {per_class} "
            "samples in validation; both sides need at least one"
        )

    alpha = _get(parser, "partition", "alpha", float)
    if not alpha > 0:
        raise ConfigError("partition.alpha must be positive")

    rounds = _get(parser, "federated", "rounds", int)
    clients = _get(parser, "federated", "clients", int)
    participation = _get(parser, "federated", "participation", float)
    local_epochs = _get(parser, "federated", "local_epochs", int)
    local_lr = _get(parser, "federated", "local_lr", float)
    local_batch = _get(parser, "federated", "local_batch", int)
    strategies = _get(parser, "federated", "strategies", _parse_str_list)
    widths_list = _get(parser, "federated", "prototypes", _parse_widths_list)
    activation = _get(parser, "federated", "activation", str, default="relu")
    precision = _get(parser, "federated", "precision", str, default="full")
    prox_mu = _get(parser, "federated", "prox_mu", float, default=0.0)
    server_momentum = _get(parser, "federated", "server_momentum", float, default=0.0)
    drop_raw = _get(parser, "federated", "drop_threshold", str, default="none").lower()
    if drop_raw in ("none", ""):
        drop_threshold = None
    elif drop_raw == "auto":
        drop_threshold = 1.1 / classes
    else:
        try:
            drop_threshold = float(drop_raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for federated.drop_threshold: {drop_raw!r}") from exc

    train_count = classes * (per_class - val_per_class)
    if clients > train_count:
        raise ConfigError(f"federated.clients = {clients} exceeds the {train_count} training samples")
    if not strategies:
        raise ConfigError("federated.strategies must name at least one strategy")
    if len(set(strategies)) != len(strategies):
        raise ConfigError("federated.strategies has duplicates")
    for s in strategies:
        if s not in STRATEGIES:
            raise ConfigError(f"federated.strategies: unknown strategy {s!r}")
    if len(widths_list) > 1 and any(s != "feddf_hetero" for s in strategies):
        raise ConfigError("multiple prototypes require strategy feddf_hetero only")
    data_dim = 2 if centers is None else centers.shape[1]
    for widths in widths_list:
        if widths[0] != data_dim:
            raise ConfigError(
                f"federated.prototypes: input width {widths[0]} != data dim {data_dim}"
            )
        if widths[-1] != classes:
            raise ConfigError(
                f"federated.prototypes: output width {widths[-1]} != dataset.classes {classes}"
            )

    needs_distill = any(s in ("feddf", "feddf_hetero") for s in strategies)
    distill = None
    if needs_distill:
        pool_kind = _get(parser, "distillation", "pool", str, default="heldout")
        if pool_kind not in ("heldout", "uniform_noise", "gaussian_noise"):
            raise ConfigError(f"distillation.pool: unknown kind {pool_kind!r}")
        distill = {
            "max_steps": _get(parser, "distillation", "max_steps", int),
            "patience": _get(parser, "distillation", "patience", int),
            "base_lr": _get(parser, "distillation", "base_lr", float, default=1e-3),
            "init_mode": _get(parser, "distillation", "init_mode", str, default="from_average"),
            "pool": pool_kind,
            "pool_size": _get(parser, "distillation", "pool_size", int, default=256),
            "batch_size": _get(parser, "distillation", "batch_size", int, default=64),
            "noise_low": _get(parser, "distillation", "noise_low", float, default=-3.0),
            "noise_high": _get(parser, "distillation", "noise_high", float, default=3.0),
        }
        if distill["pool_size"] < 1:
            raise ConfigError("distillation.pool_size must be >= 1")

    target_mode, target_value = _get(parser, "evaluation", "target", _parse_target, default=("none", 0.0))
    centralized_epochs = _get(parser, "evaluation", "centralized_epochs", int, default=50)
    grid = _get(parser, "evaluation", "grid", _parse_grid, default=None)
    save_data = _get(parser, "dataset", "save", _parse_bool, default=False)
    grid_clients = _get(parser, "evaluation", "grid_clients", _parse_bool, default=False)
    if grid is not None and data_dim != 2:
        raise ConfigError("evaluation.grid needs 2-D inputs")

    cfg = ExperimentConfig(
        schema_version=schema,
        seeds=seeds,
        output_root=output_root,
        classes=classes,
        per_class=per_class,
        scale=scale,
        centers=centers,
        test_per_class=test_per_class,
        val_fraction=val_fraction,
        alpha=alpha,
        rounds=rounds,
        clients=clients,
        participation=participation,
        local_epochs=local_epochs,
        local_lr=local_lr,
        local_batch=local_batch,
        strategies=strategies,
        prototype_widths=widths_list,
        activation=activation,
        precision=precision,
        prox_mu=prox_mu,
        server_momentum=server_momentum,
        drop_threshold=drop_threshold,
        distill=distill,
        target_mode=target_mode,
        target_value=target_value,
        centralized_epochs=centralized_epochs,
        grid=grid,
        save_data=save_data,
        grid_clients=grid_clients,
    )
    # fail fast on federated-level mistakes before any data work
    _build_fl_config(cfg, strategies[0], seeds[0], probe=True)
    return cfg


@dataclass
class SeedData:
    train: Dataset
    val: Dataset
    test: Dataset
    shards: list[Dataset]
    pool_inputs: np.ndarray | None


def build_seed_data(cfg: ExperimentConfig, seed: int) -> SeedData:
    """All data artifacts for one seed, derived deterministically from it."""
    full = make_gaussian_blobs(
        cfg.classes, cfg.per_class, cfg.centers, cfg.scale, _derive_seed(seed, _TAG_TRAIN)
    )
    train, val = split_train_val(full, cfg.val_fraction, _derive_seed(seed, _TAG_SPLIT))
    test = make_gaussian_blobs(
        cfg.classes, cfg.test_per_class, cfg.centers, cfg.scale, _derive_seed(seed, _TAG_TEST)
    )
    spec = PartitionSpec(cfg.alpha, cfg.clients, _derive_seed(seed, _TAG_PART))
    shards = [train.subset(ix) for ix in dirichlet_partition(train.labels, spec)]
    pool_inputs = None
    if cfg.distill is not None and cfg.distill["pool"] == "heldout":
        per = -(-cfg.distill["pool_size"] // cfg.classes)
        pool_blobs = make_gaussian_blobs(
            cfg.classes, per, cfg.centers, cfg.scale, _derive_seed(seed, _TAG_POOL)
        )
        pool_inputs = pool_blobs.inputs[: cfg.distill["pool_size"]]
    return SeedData(train, val, test, shards, pool_inputs)


def _build_pool(cfg: ExperimentConfig, pool_inputs: np.ndarray | None, dim: int) -> DistillPool:
    d = cfg.distill
    if d["pool"] == "heldout":
        return DistillPool.heldout(pool_inputs, d["batch_size"])
    if d["pool"] == "uniform_noise":
        return DistillPool.uniform_noise(d["noise_low"], d["noise_high"], dim, d["batch_size"])
    return DistillPool.gaussian_noise(dim, d["batch_size"])


def _build_fl_config(
    cfg: ExperimentConfig,
    strategy: str,
    seed: int,
    pool_inputs: np.ndarray | None = None,
    probe: bool = False,
) -> FLConfig:
    distill = None
    if strategy in ("feddf", "feddf_hetero"):
        d = cfg.distill
        if probe:
            pool = DistillPool.gaussian_noise(cfg.prototype_widths[0][0], d["batch_size"])
        else:
            pool = _build_pool(cfg, pool_inputs, cfg.prototype_widths[0][0])
        distill = DistillConfig(
            max_steps=d["max_steps"],
            patience=d["patience"],
            pool=pool,
            base_lr=d["base_lr"],
            init_mode=d["init_mode"],
        )
    return FLConfig(
        rounds=cfg.rounds,
        client_count=cfg.clients,
        participation=cfg.participation,
        local_epochs=cfg.local_epochs,
        local_lr=cfg.local_lr,
        local_batch=cfg.local_batch,
        strategy=strategy,
        seed=seed,
        prox_mu=cfg.prox_mu if strategy == "fedprox" else 0.0,
        server_momentum=cfg.server_momentum if strategy == "fedavgm" else 0.0,
        drop_threshold=cfg.drop_threshold,
        distill=distill,
    )


def centralized_reference(
    cfg: ExperimentConfig, data: SeedData, seed: int
) -> tuple[float, float]:
    """Train one model on the pooled training set; (val accuracy, test accuracy)."""
    proto = cfg.prototypes()[0]
    start = init_params(proto, _derive_seed(seed, _TAG_CENT_INIT))
    rng = np.random.default_rng(_derive_seed(seed, _TAG_CENT_RNG))
    trained = client_local_update(
        start, data.train, cfg.centralized_epochs, cfg.local_lr, cfg.local_batch, rng
    )
    return top1_accuracy(trained, data.val), top1_accuracy(trained, data.test)


def _final_test_metrics(cfg: ExperimentConfig, state: ServerState, test: Dataset) -> dict:
    per_proto = {pid: top1_accuracy(p, test) for pid, p in sorted(state.params.items())}
    return {
        "test_acc_fused": float(np.mean(list(per_proto.values()))),
        "test_acc_per_prototype": per_proto,
    }


def resolve_output_root(cfg: ExperimentConfig | BoundSuiteConfig) -> Path:
    """FEDFUSION_OUTPUT_ROOT when set, else the config's output directory."""
    env = os.environ.get(OUTPUT_ENV_VAR)
    return Path(env) if env else Path(cfg.output_root)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run every (seed, strategy) arm, write artifacts, return the summary dict.

    The summary written to <output>/summary.json is byte-identical across reruns.
    """
    root = resolve_output_root(cfg)
    root.mkdir(parents=True, exist_ok=True)
    results: dict[str, dict] = {s: {} for s in cfg.strategies}
    centralized: dict[str, dict] = {}
    targets: dict[str, float] = {}

    for seed in cfg.seeds:
        data = build_seed_data(cfg, seed)
        seed_dir = root / f"seed{seed}"
        seed_dir.mkdir(exist_ok=True)
        if cfg.save_data:
            save_dataset(data.train, seed_dir / "train.csv")
            save_dataset(data.val, seed_dir / "val.csv")
            save_dataset(data.test, seed_dir / "test.csv")
        if cfg.target_mode == "relative":
            cent_val, cent_test = centralized_reference(cfg, data, seed)
            centralized[str(seed)] = {"val_accuracy": cent_val, "test_accuracy": cent_test}
            target = cfg.target_value * cent_val
        elif cfg.target_mode == "absolute":
            target = cfg.target_value
        else:
            target = None
        if target is not None:
            targets[str(seed)] = target

        for strategy in cfg.strategies:
            flcfg = _build_fl_config(cfg, strategy, seed, data.pool_inputs)
            want_capture = cfg.grid is not None and strategy != "feddf_hetero"
            capture: dict | None = {} if want_capture else None
            state, records = run_training(
                flcfg, data.shards, data.val, cfg.prototypes(), cfg.client_prototype_map(), capture
            )
            run_dir = seed_dir / strategy
            run_dir.mkdir(exist_ok=True)
            write_metrics(records, run_dir / "metrics.jsonl")
            for pid, pv in sorted(state.params.items()):
                save_params(pv, run_dir / f"final_{pid}.params")
            if cfg.grid is not None:
                lo, hi, res = cfg.grid
                for pid, pv in sorted(state.params.items()):
                    xs, ys, probs = decision_boundary_grid(pv, (lo, hi), res)
                    save_boundary_grid(xs, ys, probs, run_dir / f"fused_grid_{pid}.csv")
                if capture and "averaged" in capture:
                    xs, ys, probs = decision_boundary_grid(capture["averaged"], (lo, hi), res)
                    save_boundary_grid(xs, ys, probs, run_dir / "averaged_grid.csv")
                if capture and cfg.grid_clients:
                    for k, m in sorted(capture.get("client_models", {}).items()):
                        xs, ys, probs = decision_boundary_grid(m, (lo, hi), res)
                        save_boundary_grid(xs, ys, probs, run_dir / f"client{k}_grid.csv")
            entry = {
                "rounds_to_target": None if target is None else rounds_to_target(records, target),
                "final_acc_averaged": records[-1].acc_averaged if records else None,
                "final_acc_fused": records[-1].acc_fused if records else None,
                "final_acc_ensemble": records[-1].acc_ensemble if records else None,
                "mean_distill_steps": float(np.mean([r.distill_steps for r in records]))
                if records
                else 0.0,
            }
            entry.update(_final_test_metrics(cfg, state, data.test))
            results[strategy][str(seed)] = entry

    aggregate = {}
    for strategy in cfg.strategies:
        per_seed = [results[strategy][str(s)] for s in cfg.seeds]
        reached = [e["rounds_to_target"] for e in per_seed if e["rounds_to_target"] is not None]
        aggregate[strategy] = {
            "mean_test_acc_fused": float(np.mean([e["test_acc_fused"] for e in per_seed])),
            "mean_final_acc_fused": float(np.mean([e["final_acc_fused"] for e in per_seed])),
            "mean_rounds_to_target": float(np.mean(reached)) if reached else None,
            "target_reached_count": len(reached),
        }

    summary = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.public_dict(),
        "centralized": centralized,
        "targets": targets,
        "results": results,
        "aggregate": aggregate,
    }
    with open(root / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return summary


def partition_report(cfg: ExperimentConfig, seed: int) -> dict:
    """Shard sizes, class histograms, and label entropies for one seed's partition."""
    data = build_seed_data(cfg, seed)
    rows = []
    for k, shard in enumerate(data.shards):
        hist = shard.class_histogram()
        rows.append(
            {
                "client": k,
                "size": int(len(shard)),
                "class_histogram": [int(c) for c in hist],
                "entropy": label_entropy(shard.labels, cfg.classes),
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "alpha": cfg.alpha,
        "clients": cfg.clients,
        "classes": cfg.classes,
        "train_size": len(data.train),
        "mean_entropy": float(np.mean([r["entropy"] for r in rows])),
        "clients_detail": rows,
    }


@dataclass
class BoundSuiteConfig:
    instances: int
    family: str
    grid_size: int
    ref_size: int
    delta: float
    seed: int
    k_clients: int | None
    m: int | None
    output_root: str


def _parse_count_or_random(raw: str) -> int | None:
    return None if raw == "random" else int(raw)


def load_bound_config(path) -> BoundSuiteConfig:
    parser = _read_ini(path, _BOUND_KEYS)
    instances = _get(parser, "bound", "instances", int)
    if instances < 1:
        raise ConfigError("bound.instances must be >= 1")
    family = _get(parser, "bound", "family", str, default="mixed")
    if family not in ("mixed", "thresholds_1d", "signed_thresholds_1d", "axis_stumps_2d"):
        raise ConfigError(f"bound.family: unknown family {family!r}")
    grid_size = _get(parser, "bound", "grid_size", int, default=15)
    ref_size = _get(parser, "bound", "ref_size", int, default=20000)
    delta = _get(parser, "bound", "delta", float, default=0.05)
    if not 0.0 < delta < 1.0:
        raise ConfigError("bound.delta must lie in (0, 1)")
    seed = _get(parser, "bound", "seed", int, default=0)
    k_clients = _get(parser, "bound", "k_clients", _parse_count_or_random, default=None)
    m = _get(parser, "bound", "m", _parse_count_or_random, default=None)
    for key, value in (("grid_size", grid_size), ("ref_size", ref_size), ("k_clients", k_clients), ("m", m)):
        if value is not None and value < 1:
            raise ConfigError(f"bound.{key} must be >= 1, got {value}")
    output_root = _get(parser, "bound", "output", str)
    return BoundSuiteConfig(
        instances, family, grid_size, ref_size, delta, seed, k_clients, m, output_root
    )


def run_bound_suite(cfg: BoundSuiteConfig) -> dict:
    """Evaluate the bound on seeded random instances; write reports + summary."""
    root = resolve_output_root(cfg)
    root.mkdir(parents=True, exist_ok=True)
    reports = []
    for i in range(cfg.instances):
        inst = bound_mod.make_bound_instance(
            cfg.seed + i,
            family=cfg.family,
            grid_size=cfg.grid_size,
            k_clients=cfg.k_clients,
            m=cfg.m,
            ref_size=cfg.ref_size,
            delta=cfg.delta,
        )
        rep = bound_mod.check_bound(
            inst["k_clients"],
            inst["m"],
            inst["delta"],
            inst["hclass"],
            inst["global_sample"],
            inst["local_samples"],
        )
        d = rep.to_dict()
        d["instance_seed"] = cfg.seed + i
        d["family"] = inst["family"]
        d["k_clients"] = inst["k_clients"]
        d["m"] = inst["m"]
        reports.append(d)
    holds = sum(1 for r in reports if r["holds"])
    vacuous = sum(1 for r in reports if r["vacuous"])
    out = {
        "schema_version": SCHEMA_VERSION,
        "instances": cfg.instances,
        "holds": holds,
        "vacuous": vacuous,
        "min_slack": min(r["slack"] for r in reports),
        "reports": reports,
    }
    with open(root / "bound_reports.json", "w") as fh:
        json.dump(out, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return out
