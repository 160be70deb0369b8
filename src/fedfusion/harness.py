"""Experiment orchestration: config files, metrics artifacts, summaries, grids.

Config files are INI format (configparser). Each key a file may set is one
row of a schema table (_EXPERIMENT_SCHEMA, _BOUND_SCHEMA): its section, cast,
default, check and summary echo; README.md's Config reference lists every
row. One loader reads a file through a table into a config object with one
attribute per key. Unknown sections and keys are a ConfigError, as are bad
values: the table's checks, the rules that relate several keys and the
library's own validators all run at load, before any data work.

Each (seed, strategy) arm is one flcore.run_training call. Its RoundRecords go to
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
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import numpy as np

from ._errors import ConfigError, ShapeError
from . import bound as bound_mod
from .data import (
    POOL_KINDS,
    Dataset,
    DistillPool,
    PartitionSpec,
    dirichlet_partition,
    label_entropy,
    make_gaussian_blobs,
    save_dataset,
    split_train_val,
)
from .flcore import (
    DISTILLING,
    STRATEGIES,
    DistillConfig,
    FLConfig,
    RoundRecord,
    _check_fits,
    client_local_update,
    run_training,
    top1_accuracy,
)
from .models import ParamVector, Prototype, init_params, predict_logits, save_params
from .numerics import softmax

SCHEMA_VERSION = 1
OUTPUT_ENV_VAR = "FEDFUSION_OUTPUT_ROOT"

def write_metrics(records: list[RoundRecord], path) -> None:
    """One JSON line per record; a non-finite value raises ValueError before the file is opened."""
    rows = [json.dumps({**rec.as_dict(), "wall_ms": rec.wall_ms}, sort_keys=True, allow_nan=False) for rec in records]
    Path(path).write_text("".join(row + "\n" for row in rows))


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
    classes = probs.shape[2]
    header = ",".join(["x", "y"] + [f"p{c}" for c in range(classes)])
    gx, gy = np.meshgrid(xs, ys)
    rows = np.column_stack([gx.ravel(), gy.ravel(), probs.reshape(-1, classes)])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def _write_json(obj: dict, path: Path) -> dict:
    """Write obj as a JSON artifact (sorted keys, indent 2, trailing newline); return obj.
    A non-finite value, which JSON cannot hold, raises ValueError and writes nothing."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return obj


# seed-derivation tags for per-seed data artifacts
_TAG_TRAIN, _TAG_TEST, _TAG_POOL, _TAG_SPLIT, _TAG_PART, _TAG_CENT_RNG, _TAG_CENT_INIT = range(7)


def _derive_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, 100 + tag]).generate_state(1, np.uint64)[0])


_REQUIRED = object()


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# int() strips the spaces around a token and rejects a token with spaces inside it
def _parse_int_list(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split(",") if tok.strip()]


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
        widths = tuple(_parse_int_list(chunk))
        if widths:
            groups.append(widths)
    if not groups:
        raise ValueError("no prototype widths given")
    return groups


def _or_none(cast):
    return lambda raw: None if raw.lower() in ("none", "") else cast(raw)


def _parse_drop_threshold(raw: str) -> float | str:
    return "auto" if raw.lower() == "auto" else float(raw)


def _parse_grid(raw: str) -> tuple[float, float, int]:
    parts = [tok.strip() for tok in raw.split(",")]
    if len(parts) != 3:
        raise ValueError("grid must be 'lo,hi,resolution' or 'none'")
    lo, hi, res = float(parts[0]), float(parts[1]), int(parts[2])
    if not lo < hi or res < 2:
        raise ValueError("grid needs lo < hi and resolution >= 2")
    return lo, hi, res


def _parse_target(raw: str) -> tuple[str, float]:
    if raw.lower() == "none":
        return "none", 0.0
    if ":" not in raw:
        raise ValueError("target must look like relative:0.9, absolute:0.8, or none")
    mode, value = raw.split(":", 1)
    mode = mode.strip().lower()
    if mode not in ("relative", "absolute"):
        raise ValueError(f"unknown target mode {mode!r}")
    if not np.isfinite(float(value)):
        raise ValueError(f"target value must be finite, got {value.strip()}")
    return mode, float(value)


def _parse_count_or_random(raw: str) -> int | None:
    return None if raw == "random" else int(raw)


# checks: a cast value -> a complaint that follows "<section>.<key>", or None
def _at_least(lo):
    return lambda v: None if v is None or v >= lo else f"must be >= {lo}, got {v}"


def _one_of(*options):
    listed = ", ".join(map(str, options))
    return lambda v: None if v in options else f"must be one of {listed}, got {v!r}"


def _in_open_unit_interval(v) -> str | None:
    return None if 0.0 < v < 1.0 else "must lie in (0, 1)"


def _check_seeds(seeds: list[int]) -> str | None:
    distinct = seeds and min(seeds) >= 0 and len(set(seeds)) == len(seeds)
    return None if distinct else "must be distinct non-negative integers"


def _check_strategies(names: list[str]) -> str | None:
    if not names:
        return "must name at least one strategy"
    if len(set(names)) != len(names):
        return "has duplicates"
    unknown = [s for s in names if s not in STRATEGIES]
    return f"names unknown strategy {unknown[0]!r}" if unknown else None


class _Key(NamedTuple):
    """One INI key of a schema table.

    cast turns the stripped text into the value; default stands in when the
    key is absent (_REQUIRED: it must be set); check complains about a value;
    echo names the value's entries in summary.json's config echo (None: the
    key itself; (): not echoed, for settings that only place or add files).
    """

    section: str
    key: str
    cast: Callable[[str], Any]
    default: Any = _REQUIRED
    check: Callable[[Any], str | None] | None = None
    echo: tuple[str, ...] | None = None


_EXPERIMENT_SCHEMA = (
    _Key("experiment", "schema_version", int, check=_one_of(SCHEMA_VERSION)),
    _Key("experiment", "seeds", _parse_int_list, check=_check_seeds),
    _Key("experiment", "output", str, echo=()),
    _Key("dataset", "classes", int, check=_at_least(2)),
    _Key("dataset", "per_class", int, check=_at_least(1)),
    _Key("dataset", "scale", float),
    _Key("dataset", "centers", _parse_centers, None),
    _Key("dataset", "test_per_class", int, None, _at_least(1)),  # None: per_class
    _Key("dataset", "val_fraction", float, 0.15, _in_open_unit_interval),
    _Key("dataset", "save", _parse_bool, False, echo=()),
    _Key("partition", "alpha", float),
    _Key("federated", "rounds", int),
    _Key("federated", "clients", int),
    _Key("federated", "participation", float),
    _Key("federated", "local_epochs", int),
    _Key("federated", "local_lr", float),
    _Key("federated", "local_batch", int),
    _Key("federated", "strategies", _parse_str_list, check=_check_strategies),
    _Key("federated", "prototypes", _parse_widths_list),
    _Key("federated", "activation", str, "relu"),
    _Key("federated", "precision", str, "full"),
    _Key("federated", "prox_mu", float, 0.0),
    _Key("federated", "server_momentum", float, 0.0),
    _Key("federated", "drop_threshold", _or_none(_parse_drop_threshold), None),  # "auto": 1.1 / classes
    _Key("distillation", "max_steps", int),
    _Key("distillation", "patience", int),
    _Key("distillation", "base_lr", float, 1e-3),
    _Key("distillation", "init_mode", str, "from_average"),
    _Key("distillation", "pool", str, "heldout", _one_of(*POOL_KINDS)),
    _Key("distillation", "pool_size", int, 256, _at_least(1)),
    _Key("distillation", "batch_size", int, 64),
    _Key("distillation", "noise_low", float, -3.0),
    _Key("distillation", "noise_high", float, 3.0),
    _Key("evaluation", "target", _parse_target, ("none", 0.0), echo=("target_mode", "target_value")),
    _Key("evaluation", "centralized_epochs", int, 50, _at_least(0)),
    _Key("evaluation", "grid", _or_none(_parse_grid), None),
    _Key("evaluation", "grid_clients", _parse_bool, False, echo=()),
)
_BOUND_SCHEMA = (
    _Key("bound", "instances", int, check=_at_least(1)),
    _Key("bound", "family", str, "mixed", _one_of("mixed", *bound_mod.FAMILIES)),
    _Key("bound", "grid_size", int, 15, _at_least(1)),
    _Key("bound", "ref_size", int, 20000, _at_least(1)),
    _Key("bound", "delta", float, 0.05, _in_open_unit_interval),
    _Key("bound", "seed", int, 0, _at_least(0)),
    _Key("bound", "k_clients", _parse_count_or_random, None, _at_least(1)),
    _Key("bound", "m", _parse_count_or_random, None, _at_least(1)),
    _Key("bound", "output", str),
)


def _load(path, schema: tuple[_Key, ...], cfg, needed=lambda section, cfg: True):
    """Read an INI file through a schema into cfg, one attribute per key.

    A missing file, an unknown section or key (keys of the DEFAULT section show
    up in every section and are exempt), a bad cast, a missing required key or
    a failed check is a ConfigError naming the key. Rows are read in order; a
    section for which needed(section, cfg) is false is not read at all.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser.read(path)
    for section in parser.sections():
        known = {row.key for row in schema if row.section == section}
        if not known:
            raise ConfigError(f"unknown section [{section}]")
        unknown = sorted(set(parser.options(section)) - set(parser.defaults()) - known)
        if unknown:
            raise ConfigError("unknown key " + ", ".join(f"{section}.{k}" for k in unknown))
    for section, key, cast, default, check, _ in schema:
        if not needed(section, cfg):
            continue
        if parser.has_option(section, key):
            raw = parser.get(section, key).strip()
            try:
                value = cast(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc
        elif default is _REQUIRED:
            raise ConfigError(f"missing {section}.{key}")
        else:
            value = default
        complaint = check(value) if check else None
        if complaint:
            raise ConfigError(f"{section}.{key} {complaint}")
        setattr(cfg, key, value)
    return cfg


class ExperimentConfig(SimpleNamespace):
    """Experiment settings, one attribute per _EXPERIMENT_SCHEMA key.

    Build one with load_experiment_config. The [distillation] attributes exist
    only when distills() is true.
    """

    def distills(self) -> bool:
        return any(s in DISTILLING for s in self.strategies)

    def make_prototypes(self) -> list[Prototype]:
        return [
            Prototype(f"p{i}", widths, self.activation, self.precision)
            for i, widths in enumerate(self.prototypes)
        ]

    def client_prototype_map(self) -> list[str]:
        ids = [p.id for p in self.make_prototypes()]
        return [ids[k % len(ids)] for k in range(self.clients)]

    def public_dict(self) -> dict:
        """summary.json's config echo, derived from the schema rows.

        Each echoed key sits under its section, [experiment] keys at the top;
        a section that was not read is null.
        """
        echo: dict = {}
        for row in _EXPERIMENT_SCHEMA:
            names = (row.key,) if row.echo is None else row.echo
            if not hasattr(self, row.key):
                echo[row.section] = None
            elif names:
                value = getattr(self, row.key)
                entries = zip(names, value) if len(names) > 1 else [(row.key, value)]
                section = echo if row.section == "experiment" else echo.setdefault(row.section, {})
                section.update(entries)
        # in JSON terms: tuples and arrays become lists
        return json.loads(json.dumps(echo, default=np.ndarray.tolist))


def load_experiment_config(path) -> ExperimentConfig:
    """Parse and validate an experiment INI file; ConfigError names the field.

    After the per-key schema checks come the rules that relate several keys,
    then the library's own validators run on the values (_probe), so a bad
    config fails here and not after data work.
    """
    cfg = _load(
        path,
        _EXPERIMENT_SCHEMA,
        ExperimentConfig(),
        lambda section, cfg: section != "distillation" or cfg.distills(),
    )
    if cfg.test_per_class is None:
        cfg.test_per_class = cfg.per_class
    if cfg.drop_threshold == "auto":
        cfg.drop_threshold = 1.1 / cfg.classes
    _probe(lambda: make_gaussian_blobs(cfg.classes, 1, None, cfg.scale), "dataset.scale")
    blobs = _probe(lambda: make_gaussian_blobs(cfg.classes, cfg.per_class, cfg.centers), "dataset.centers")
    _probe(lambda: PartitionSpec(cfg.alpha, 1, 0), "partition.alpha")  # blobs stands in for a seed's data
    train, _ = _probe(lambda: split_train_val(blobs, cfg.val_fraction, 0), "dataset.val_fraction")
    _probe(lambda: dirichlet_partition(train.labels, PartitionSpec(cfg.alpha, cfg.clients, 0)), "federated.clients")
    if len(cfg.prototypes) > 1 and any(s != "feddf_hetero" for s in cfg.strategies):
        keys = "federated.prototypes or federated.strategies"  # _probe's form
        raise ConfigError(f"bad value for {keys}: multiple prototypes require strategy feddf_hetero only")
    ends = [(w[0], w[-1]) for w in cfg.prototypes]  # the library's fit and grid rules read only these widths
    stand_ins = _probe(lambda: [Prototype(f"p{i}", w) for i, w in enumerate(ends)], "federated.prototypes")
    _probe(lambda: [_check_fits(p, blobs, "dataset") for p in stand_ins], "federated.prototypes")
    if cfg.grid is not None:
        _probe(lambda: decision_boundary_grid(init_params(stand_ins[0], 0), cfg.grid[:2], 2), "evaluation.grid")
    _probe(lambda: [Prototype("p", widths) for widths in cfg.prototypes], "federated.prototypes")
    _probe(lambda: Prototype("p", cfg.prototypes[0], cfg.activation), "federated.activation")
    _probe(cfg.make_prototypes, "federated.precision")
    stand_in = np.zeros((1, cfg.prototypes[0][0]))  # for a seed's heldout pool rows
    for strategy in cfg.strategies:
        _build_fl_config(cfg, strategy, cfg.seeds[0], stand_in)
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
    if cfg.distills() and cfg.pool == "heldout":
        per = -(-cfg.pool_size // cfg.classes)
        pool_blobs = make_gaussian_blobs(
            cfg.classes, per, cfg.centers, cfg.scale, _derive_seed(seed, _TAG_POOL)
        )
        pool_inputs = pool_blobs.inputs[: cfg.pool_size]
    return SeedData(train, val, test, shards, pool_inputs)


# FLConfig's and DistillConfig's fields are named after their INI keys, client_count aside
_FIELD_KEYS = {r.key: f"{r.section}.{r.key}" for r in _EXPERIMENT_SCHEMA if r.section in ("federated", "distillation")}
_FIELD_KEYS["client_count"] = "federated.clients"


def _probe(build, *keys: str):
    """Run a library constructor on config values; its ValueError becomes a ConfigError naming
    keys, or else the INI key of the first FLConfig or DistillConfig field the message cites."""
    try:
        return build()
    except ValueError as exc:
        keys = keys or [_FIELD_KEYS[word] for word in str(exc).split() if word in _FIELD_KEYS][:1]
        if not keys:
            raise
        raise ConfigError(f"bad value for {' or '.join(keys)}: {exc}") from exc


def _build_fl_config(
    cfg: ExperimentConfig,
    strategy: str,
    seed: int,
    pool_inputs: np.ndarray | None,
) -> FLConfig:
    """The arm's FLConfig, distillation pool included; built once per strategy at load too."""
    dim = cfg.prototypes[0][0]
    distill = None
    if strategy in DISTILLING:
        keys = ("distillation.batch_size", "distillation.noise_low", "distillation.noise_high")
        # each pool kind reads only the arguments it needs
        args = dict(inputs=pool_inputs, dim=dim, low=cfg.noise_low, high=cfg.noise_high)
        pool = _probe(lambda: DistillPool(cfg.pool, cfg.batch_size, **args), *keys)
        distill = _probe(lambda: DistillConfig(
            max_steps=cfg.max_steps,
            patience=cfg.patience,
            pool=pool,
            base_lr=cfg.base_lr,
            init_mode=cfg.init_mode,
        ))
    return _probe(lambda: FLConfig(
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
    ))


def centralized_reference(
    cfg: ExperimentConfig, data: SeedData, seed: int
) -> tuple[float, float]:
    """Train one model on the pooled training set; (val accuracy, test accuracy)."""
    proto = cfg.make_prototypes()[0]
    start = init_params(proto, _derive_seed(seed, _TAG_CENT_INIT))
    rng = np.random.default_rng(_derive_seed(seed, _TAG_CENT_RNG))
    trained = client_local_update(
        start, data.train, cfg.centralized_epochs, cfg.local_lr, cfg.local_batch, rng
    )
    return top1_accuracy(trained, data.val), top1_accuracy(trained, data.test)


def resolve_output_root(cfg: ExperimentConfig | BoundSuiteConfig) -> Path:
    """FEDFUSION_OUTPUT_ROOT when set, else the config's output directory."""
    env = os.environ.get(OUTPUT_ENV_VAR)
    return Path(env) if env else Path(cfg.output)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run every (seed, strategy) arm, write artifacts, return the summary dict.

    The summary written to <output>/summary.json is byte-identical across reruns.
    """
    root = resolve_output_root(cfg)
    root.mkdir(parents=True, exist_ok=True)
    (root / "summary.json").unlink(missing_ok=True)  # a run that fails leaves no earlier run's summary
    results: dict[str, dict] = {s: {} for s in cfg.strategies}
    centralized: dict[str, dict] = {}
    targets: dict[str, float] = {}

    for seed in cfg.seeds:
        data = build_seed_data(cfg, seed)
        seed_dir = root / f"seed{seed}"
        seed_dir.mkdir(exist_ok=True)
        if cfg.save:
            save_dataset(data.train, seed_dir / "train.csv")
            save_dataset(data.val, seed_dir / "val.csv")
            save_dataset(data.test, seed_dir / "test.csv")
        mode, target = cfg.target
        if mode == "relative":
            try:
                cent_val, cent_test = centralized_reference(cfg, data, seed)
            except (ValueError, RuntimeError) as e:  # a diverging model
                raise type(e)(f"seed {seed}, centralized reference: {e}") from e
            centralized[str(seed)] = {"val_accuracy": cent_val, "test_accuracy": cent_test}
            target *= cent_val
        if mode != "none":
            targets[str(seed)] = target

        for strategy in cfg.strategies:
            flcfg = _build_fl_config(cfg, strategy, seed, data.pool_inputs)
            want_capture = cfg.grid is not None and strategy != "feddf_hetero"
            capture: dict | None = {} if want_capture else None
            try:
                state, records = run_training(
                    flcfg, data.shards, data.val, cfg.make_prototypes(), cfg.client_prototype_map(), capture
                )
            except (ValueError, RuntimeError) as e:  # run_round names the round and client or prototype
                raise type(e)(f"seed {seed}, {strategy}: {e}") from e
            run_dir = seed_dir / strategy
            run_dir.mkdir(exist_ok=True)
            write_metrics(records, run_dir / "metrics.jsonl")
            for pid, pv in sorted(state.params.items()):
                save_params(pv, run_dir / f"final_{pid}.params")
            if cfg.grid is not None:
                lo, hi, res = cfg.grid
                grids = [(f"fused_grid_{pid}.csv", pv) for pid, pv in sorted(state.params.items())]
                if capture and "averaged" in capture:
                    grids.append(("averaged_grid.csv", capture["averaged"]))
                if capture and cfg.grid_clients:
                    grids += [(f"client{k}_grid.csv", m) for k, m in sorted(capture.get("client_models", {}).items())]
                for name, model in grids:
                    save_boundary_grid(*decision_boundary_grid(model, (lo, hi), res), run_dir / name)
            test_accs = {pid: top1_accuracy(p, data.test) for pid, p in sorted(state.params.items())}
            results[strategy][str(seed)] = {
                "rounds_to_target": None if mode == "none" else rounds_to_target(records, target),
                "final_acc_averaged": records[-1].acc_averaged if records else None,
                "final_acc_fused": records[-1].acc_fused if records else None,
                "final_acc_ensemble": records[-1].acc_ensemble if records else None,
                "mean_distill_steps": float(np.mean([r.distill_steps for r in records]))
                if records
                else 0.0,
                "test_acc_fused": float(np.mean(list(test_accs.values()))),
                "test_acc_per_prototype": test_accs,
            }

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
    return _write_json(summary, root / "summary.json")


def partition_report(cfg: ExperimentConfig, seed: int) -> dict:
    """Shard sizes, class histograms, and label entropies for one seed's partition.

    The report is also written to <output>/partition_stats_seed<k>.json.
    """
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
    report = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "alpha": cfg.alpha,
        "clients": cfg.clients,
        "classes": cfg.classes,
        "train_size": len(data.train),
        "mean_entropy": float(np.mean([r["entropy"] for r in rows])),
        "clients_detail": rows,
    }
    return _write_json(report, resolve_output_root(cfg) / f"partition_stats_seed{seed}.json")


class BoundSuiteConfig(SimpleNamespace):
    """Bound-suite settings, one attribute per _BOUND_SCHEMA key; build one with load_bound_config."""


def load_bound_config(path) -> BoundSuiteConfig:
    return _load(path, _BOUND_SCHEMA, BoundSuiteConfig())


def run_bound_suite(cfg: BoundSuiteConfig) -> dict:
    """Evaluate the bound on seeded random instances; write reports + summary."""
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
        rep = bound_mod.check_bound(**{k: v for k, v in inst.items() if k != "family"})  # keys: its parameter names
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
    return _write_json(out, resolve_output_root(cfg) / "bound_reports.json")
