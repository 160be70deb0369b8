"""Tests for the experiment harness: configs, metrics files, grids, CLI."""

import configparser
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedfusion._errors import ConfigError, ShapeError
from fedfusion.cli import main as cli_main
from fedfusion.data import Dataset, save_dataset
from fedfusion.harness import (
    OUTPUT_ENV_VAR,
    SCHEMA_VERSION,
    _BOUND_SCHEMA,
    _EXPERIMENT_SCHEMA,
    _derive_seed,
    _write_json,
    build_seed_data,
    decision_boundary_grid,
    load_bound_config,
    load_experiment_config,
    partition_report,
    read_metrics,
    resolve_output_root,
    rounds_to_target,
    run_bound_suite,
    run_experiment,
    save_boundary_grid,
    write_metrics,
)
from fedfusion.flcore import RoundRecord
from fedfusion.models import Prototype, init_params, load_params, predict_logits
from fedfusion.numerics import softmax


def write_config(path, **overrides):
    """A small valid experiment INI; keyword overrides replace whole lines."""
    lines = {
        "schema_version": "schema_version = 1",
        "seeds": "seeds = 0",
        "output": f"output = {path.parent / 'out'}",
        "classes": "classes = 3",
        "per_class": "per_class = 30",
        "scale": "scale = 0.6",
        "test_per_class": "test_per_class = 30",
        "val_fraction": "val_fraction = 0.2",
        "alpha": "alpha = 1.0",
        "rounds": "rounds = 2",
        "clients": "clients = 4",
        "participation": "participation = 0.5",
        "local_epochs": "local_epochs = 2",
        "local_lr": "local_lr = 0.05",
        "local_batch": "local_batch = 16",
        "strategies": "strategies = fedavg",
        "prototypes": "prototypes = 2,8,3",
        "target": "target = none",
        "centralized_epochs": "centralized_epochs = 3",
    }
    lines.update(overrides)
    text = "\n".join(
        [
            "[experiment]",
            lines["schema_version"],
            lines["seeds"],
            lines["output"],
            "",
            "[dataset]",
            lines["classes"],
            lines["per_class"],
            lines["scale"],
            lines["test_per_class"],
            lines["val_fraction"],
            "",
            "[partition]",
            lines["alpha"],
            "",
            "[federated]",
            lines["rounds"],
            lines["clients"],
            lines["participation"],
            lines["local_epochs"],
            lines["local_lr"],
            lines["local_batch"],
            lines["strategies"],
            lines["prototypes"],
            "",
            "[distillation]",
            "max_steps = 10",
            "patience = 5",
            "pool_size = 32",
            "batch_size = 16",
            "",
            "[evaluation]",
            lines["target"],
            lines["centralized_epochs"],
            "",
        ]
    )
    path.write_text(text)
    return path


def sample_row(round_index=3):
    return RoundRecord(
        round_index=round_index,
        sampled=[0, 2, 5],
        dropped=[2],
        acc_averaged=0.61,
        acc_fused=0.73,
        acc_ensemble=0.75,
        distill_steps=42,
        per_prototype={"p0": {"acc_averaged": 0.61, "acc_fused": 0.73}},
        wall_ms=12.5 + round_index,
    )


class TestRoundsToTarget:
    def test_first_crossing_is_one_based(self):
        assert rounds_to_target([0.3, 0.8, 0.7], 0.75) == 2

    def test_zero_target_hits_round_one(self):
        assert rounds_to_target([0.3, 0.8], 0.0) == 1

    def test_unreached_target_returns_none(self):
        assert rounds_to_target([0.3, 0.4, 0.5], 0.9) is None

    def test_empty_history_returns_none(self):
        assert rounds_to_target([], 0.1) is None

    def test_reads_acc_fused_from_rows(self):
        rows = [sample_row(1), sample_row(2)]
        rows[0].acc_fused = 0.2
        assert rounds_to_target(rows, 0.7) == 2
        assert rounds_to_target(rows, 0.74) is None

    def test_monotone_in_target(self):
        history = [0.1, 0.4, 0.6, 0.8, 0.9]
        hits = [rounds_to_target(history, t) for t in (0.05, 0.4, 0.75, 0.85)]
        assert hits == [1, 2, 4, 5]


class TestMetricsFile:
    def test_line_is_the_record_dict_plus_wall_ms(self, tmp_path):
        rec = sample_row()
        path = tmp_path / "metrics.jsonl"
        write_metrics([rec], path)
        line = path.read_text()
        assert line == json.dumps({**rec.as_dict(), "wall_ms": 15.5}, sort_keys=True) + "\n"
        assert sorted(json.loads(line)) == sorted(
            ["round", "wall_ms", "acc_averaged", "acc_fused", "acc_ensemble",
             "acc_per_prototype", "distill_steps", "sampled", "dropped"]
        )

    def test_write_read_roundtrip(self, tmp_path):
        records = [sample_row(i) for i in range(1, 4)]
        path = tmp_path / "metrics.jsonl"
        write_metrics(records, path)
        back = read_metrics(path)
        assert back == records
        assert [r.wall_ms for r in back] == [r.wall_ms for r in records]
        # one JSON object per line
        assert len(path.read_text().strip().splitlines()) == 3

    def test_non_finite_values_raise_and_write_nothing(self, tmp_path):
        rec = sample_row()
        rec.acc_fused = float("nan")
        with pytest.raises(ValueError):
            write_metrics([sample_row(1), rec], tmp_path / "metrics.jsonl")
        with pytest.raises(ValueError):
            _write_json({"target_value": float("inf")}, tmp_path / "summary.json")
        assert list(tmp_path.iterdir()) == []


class TestDecisionBoundaryGrid:
    def proto(self):
        return Prototype("grid", (2, 8, 3))

    def test_rows_are_probability_vectors(self):
        params = init_params(self.proto(), 0)
        _, _, probs = decision_boundary_grid(params, (-2.0, 2.0), 7)
        assert probs.shape == (7, 7, 3)
        assert np.allclose(probs.sum(axis=2), 1.0, atol=1e-12)

    def test_orientation_matches_documented_layout(self):
        # probs[i, j] must be the model's prediction at the point (xs[j], ys[i])
        params = init_params(self.proto(), 3)
        xs, ys, probs = decision_boundary_grid(params, (-1.5, 2.5), 5)
        for i in (0, 2, 4):
            for j in (0, 1, 3):
                point = np.array([[xs[j], ys[i]]])
                direct = softmax(predict_logits(params, point))[0]
                assert np.allclose(probs[i, j], direct, atol=1e-15)

    def test_axis_values_span_bounds(self):
        params = init_params(self.proto(), 0)
        xs, ys, _ = decision_boundary_grid(params, (-3.0, 3.0), 9)
        assert xs[0] == -3.0 and xs[-1] == 3.0
        assert np.array_equal(xs, ys)

    def test_rejects_non_planar_prototype(self):
        params = init_params(Prototype("p3", (3, 8, 3)), 0)
        with pytest.raises(ShapeError):
            decision_boundary_grid(params, (-1.0, 1.0), 5)

    def test_rejects_bad_bounds_and_resolution(self):
        params = init_params(self.proto(), 0)
        with pytest.raises(ValueError):
            decision_boundary_grid(params, (1.0, -1.0), 5)
        with pytest.raises(ValueError):
            decision_boundary_grid(params, (-1.0, 1.0), 1)

    def test_csv_export_roundtrips_values(self, tmp_path):
        params = init_params(self.proto(), 1)
        xs, ys, probs = decision_boundary_grid(params, (-1.0, 1.0), 3)
        path = tmp_path / "grid.csv"
        save_boundary_grid(xs, ys, probs, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,p0,p1,p2"
        assert len(lines) == 1 + 9
        # row-major order: first row of cells is y = ys[0], x sweeping
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == xs[0] and first[1] == ys[0]
        second = [float(v) for v in lines[2].split(",")]
        assert second[0] == xs[1] and second[1] == ys[0]
        # %.17g roundtrips float64 exactly
        assert first[2:] == [float(p) for p in probs[0, 0]]

    def test_dataset_and_grid_csv_bytes_are_pinned(self, tmp_path):
        """Both CSV writers' exact text: %.17g floats (signed zero, a tiny exponent,
        inexact decimals) and integer labels of two digits."""
        ds = Dataset(np.array([[-0.0, 1e-300], [0.1, 1 / 3]]), np.array([10, 3]), 11)
        save_dataset(ds, tmp_path / "ds.csv")
        assert (tmp_path / "ds.csv").read_text() == (
            "x0,x1,label\n-0,1e-300,10\n0.10000000000000001,0.33333333333333331,3\n"
        )
        xs, ys = np.array([-0.0, 0.1]), np.array([1 / 3, 1e-300])
        probs = np.array([[[1 / 3, 2 / 3], [0.1, 0.9]], [[-0.0, 1.0], [1e-300, 1 - 1e-300]]])
        save_boundary_grid(xs, ys, probs, tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_text() == (
            "x,y,p0,p1\n"
            "-0,0.33333333333333331,0.33333333333333331,0.66666666666666663\n"
            "0.10000000000000001,0.33333333333333331,0.10000000000000001,0.90000000000000002\n"
            "-0,1e-300,-0,1\n"
            "0.10000000000000001,1e-300,1e-300,1\n"
        )


class TestSeedDerivation:
    def test_streams_are_distinct_and_stable(self):
        first = [_derive_seed(0, tag) for tag in range(7)]
        again = [_derive_seed(0, tag) for tag in range(7)]
        assert first == again
        assert len(set(first)) == 7

    def test_streams_differ_across_seeds(self):
        assert _derive_seed(0, 0) != _derive_seed(1, 0)


class TestConfigLoading:
    def test_full_config_parses(self, tmp_path):
        path = write_config(
            tmp_path / "exp.ini",
            seeds="seeds = 0, 1",
            strategies="strategies = fedavg, feddf",
            target="target = relative:0.9",
        )
        cfg = load_experiment_config(path)
        assert cfg.seeds == [0, 1]
        assert cfg.classes == 3 and cfg.per_class == 30
        assert cfg.strategies == ["fedavg", "feddf"]
        assert cfg.prototypes == [(2, 8, 3)]
        assert cfg.target == ("relative", 0.9)
        assert cfg.max_steps == 10
        assert cfg.pool == "heldout"
        assert cfg.activation == "relu"  # default

    def test_prototype_ids_and_round_robin_assignment(self, tmp_path):
        path = write_config(
            tmp_path / "h.ini",
            strategies="strategies = feddf_hetero",
            prototypes="prototypes = 2,8,3 | 2,12,3 | 2,16,3",
            clients="clients = 5",
        )
        cfg = load_experiment_config(path)
        protos = cfg.make_prototypes()
        assert [p.id for p in protos] == ["p0", "p1", "p2"]
        assert cfg.client_prototype_map() == ["p0", "p1", "p2", "p0", "p1"]

    def test_public_dict_is_json_serializable(self, tmp_path):
        cfg = load_experiment_config(write_config(tmp_path / "exp.ini"))
        blob = json.dumps(cfg.public_dict(), sort_keys=True)
        assert "dataset" in cfg.public_dict()
        assert "federated" in cfg.public_dict()
        assert json.loads(blob) == cfg.public_dict()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            load_experiment_config(tmp_path / "nope.ini")

    def test_missing_key_names_the_field(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nschema_version = 1\n")
        with pytest.raises(ConfigError, match="experiment.seeds"):
            load_experiment_config(path)

    def test_wrong_schema_version_raises(self, tmp_path):
        path = write_config(tmp_path / "bad.ini", schema_version="schema_version = 99")
        with pytest.raises(ConfigError, match="schema_version"):
            load_experiment_config(path)

    def test_unknown_strategy_raises(self, tmp_path):
        path = write_config(tmp_path / "bad.ini", strategies="strategies = fedsomething")
        with pytest.raises(ConfigError, match="fedsomething"):
            load_experiment_config(path)

    def test_multiple_prototypes_need_hetero(self, tmp_path):
        path = write_config(tmp_path / "bad.ini", prototypes="prototypes = 2,8,3 | 2,12,3")
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert str(err.value) == (
            "bad value for federated.prototypes or federated.strategies: "
            "multiple prototypes require strategy feddf_hetero only"
        )

    def test_prototype_width_must_match_data(self, tmp_path):
        path = write_config(tmp_path / "bad.ini", prototypes="prototypes = 3,8,3")
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert str(err.value) == "bad value for federated.prototypes: dataset (2 dims, 3 classes) does not fit prototype 'p0'"
        path = write_config(tmp_path / "bad2.ini", prototypes="prototypes = 2,8,4")
        with pytest.raises(ConfigError, match="federated.prototypes: .* does not fit prototype 'p0'"):
            load_experiment_config(path)

    def test_more_clients_than_training_samples_fails_at_load(self, tmp_path):
        # 3 classes x 4 samples; round(0.15 * 4) = 1 goes to validation, so 9 train
        path = write_config(
            tmp_path / "bad.ini",
            per_class="per_class = 4",
            val_fraction="val_fraction = 0.15",
            clients="clients = 50",
        )
        with pytest.raises(ConfigError, match="federated.clients"):
            load_experiment_config(path)
        # 3 classes x 10 samples, 2 each to validation: 24 train clients fit
        fits = write_config(tmp_path / "fits.ini", per_class="per_class = 10", clients="clients = 24")
        assert load_experiment_config(fits).clients == 24
        too_many = write_config(tmp_path / "many.ini", per_class="per_class = 10", clients="clients = 25")
        with pytest.raises(ConfigError) as err:
            load_experiment_config(too_many)
        assert str(err.value) == "bad value for federated.clients: cannot split 24 samples across 25 clients"

    @pytest.mark.parametrize("classes", [2, 3])
    @pytest.mark.parametrize("per_class", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("val_fraction", [0.15, 0.5, 0.9])
    def test_split_and_partition_verdicts_follow_the_sample_counts(self, tmp_path, classes, per_class, val_fraction):
        # split_train_val sends round(val_fraction * per_class) of each class to validation
        val_per_class = round(val_fraction * per_class)
        train_count = classes * (per_class - val_per_class)
        for clients in (1, 2, 4, 9, 14):
            path = write_config(
                tmp_path / "c.ini",
                classes=f"classes = {classes}",
                per_class=f"per_class = {per_class}",
                val_fraction=f"val_fraction = {val_fraction}",
                clients=f"clients = {clients}",
                prototypes=f"prototypes = 2,8,{classes}",
            )
            if not 0 < val_per_class < per_class:
                with pytest.raises(ConfigError, match="^bad value for dataset.val_fraction: "):
                    load_experiment_config(path)
            elif clients > train_count:
                with pytest.raises(ConfigError, match=f"^bad value for federated.clients: cannot split {train_count} "):
                    load_experiment_config(path)
            else:
                assert load_experiment_config(path).clients == clients

    @pytest.mark.parametrize("per_class, val_fraction", [(2, 0.15), (3, 0.9)])
    def test_val_fraction_leaving_an_empty_side_fails_at_load(self, tmp_path, per_class, val_fraction):
        # round(0.15 * 2) = 0 validation samples; round(0.9 * 3) = 3 leaves no training sample
        path = write_config(
            tmp_path / "bad.ini",
            per_class=f"per_class = {per_class}",
            val_fraction=f"val_fraction = {val_fraction}",
            clients="clients = 50",
        )
        with pytest.raises(ConfigError, match="dataset.val_fraction"):
            load_experiment_config(path)

    def test_unknown_section_or_key_raises(self, tmp_path):
        path = write_config(tmp_path / "typo.ini", prototypes="prototypes = 2,8,3\ndrop_treshold = 0.5")
        with pytest.raises(ConfigError, match="unknown key federated.drop_treshold"):
            load_experiment_config(path)
        path = write_config(tmp_path / "old.ini", output="output = x\nparallel_clients = true")
        with pytest.raises(ConfigError, match="experiment.parallel_clients"):
            load_experiment_config(path)
        path = write_config(tmp_path / "sec.ini")
        path.write_text(path.read_text() + "\n[federatd]\nrounds = 3\n")
        with pytest.raises(ConfigError, match=r"unknown section \[federatd\]"):
            load_experiment_config(path)

    def test_readme_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        path = tmp_path / "readme.ini"
        path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        assert load_experiment_config(path).strategies == ["fedavg", "feddf"]

    def test_default_section_keys_are_not_unknown(self, tmp_path):
        path = write_config(tmp_path / "exp.ini")
        path.write_text("[DEFAULT]\nwidth = 8\n\n" + path.read_text())
        assert load_experiment_config(path).clients == 4

    def test_readme_config_reference_lists_every_schema_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("## Config reference", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1].strip().strip("`") for line in table.splitlines() if line.startswith("| `")]
        keys = [f"{row.section}.{row.key}" for row in _EXPERIMENT_SCHEMA + _BOUND_SCHEMA]
        assert rows == keys

    def test_bad_target_string_raises(self, tmp_path):
        path = write_config(tmp_path / "bad.ini", target="target = eventually")
        with pytest.raises(ConfigError, match="evaluation.target"):
            load_experiment_config(path)

    @pytest.mark.parametrize("target", ["relative:nan", "absolute:inf"])
    def test_non_finite_target_raises(self, tmp_path, target):
        path = write_config(tmp_path / "bad.ini", target=f"target = {target}")
        with pytest.raises(ConfigError, match="evaluation.target.*must be finite"):
            load_experiment_config(path)

    @pytest.mark.parametrize(
        "line, key",
        [
            ("seeds = 1 2", "experiment.seeds"),
            ("prototypes = 2,3 2,3", "federated.prototypes"),
            ("prototypes = 2,8,3 | 2,1 2,3", "federated.prototypes"),
        ],
    )
    def test_a_token_with_inner_spaces_is_an_error(self, tmp_path, line, key):
        path = write_config(tmp_path / "bad.ini", **{line.split()[0]: line})
        with pytest.raises(ConfigError, match=f"bad value for {key}"):
            load_experiment_config(path)

    def test_spaces_around_tokens_are_allowed(self, tmp_path):
        path = write_config(
            tmp_path / "exp.ini",
            seeds="seeds =  3 ,4,  5",
            strategies="strategies = feddf_hetero",
            prototypes="prototypes = 2, 8 ,3 |2,12,3",
        )
        cfg = load_experiment_config(path)
        assert cfg.seeds == [3, 4, 5]
        assert cfg.prototypes == [(2, 8, 3), (2, 12, 3)]


FULL_CONFIG = """\
[experiment]
schema_version = 1
seeds = 4, 2
output = {output}

[dataset]
classes = 3
per_class = 40
scale = 0.7
centers = 0,0; 2,0; 0,2
test_per_class = 25
val_fraction = 0.25
save = true

[partition]
alpha = 0.5

[federated]
rounds = 4
clients = 6
participation = 0.75
local_epochs = 3
local_lr = 0.02
local_batch = 8
strategies = feddf, fedprox, fedavgm
prototypes = 2,12,3
activation = tanh
precision = binary_ste
prox_mu = 0.01
server_momentum = 0.5
drop_threshold = auto

[distillation]
max_steps = 30
patience = 7
base_lr = 0.002
init_mode = from_previous
pool = uniform_noise
pool_size = 100
batch_size = 20
noise_low = -2.5
noise_high = 1.5

[evaluation]
target = absolute:0.8
centralized_epochs = 12
grid = -2,2,9
grid_clients = true
"""


class TestConfigEcho:
    def test_echo_of_every_key_is_pinned(self, tmp_path, monkeypatch):
        # all 37 keys set, each optional one away from its default; the expected
        # echo is the one summary.json has always carried for this config
        monkeypatch.delenv(OUTPUT_ENV_VAR, raising=False)
        path = tmp_path / "full.ini"
        path.write_text(FULL_CONFIG.format(output=tmp_path / "out"))
        cfg = load_experiment_config(path)
        expected = {
            "schema_version": 1,
            "seeds": [4, 2],
            "dataset": {
                "classes": 3,
                "per_class": 40,
                "scale": 0.7,
                "centers": [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]],
                "test_per_class": 25,
                "val_fraction": 0.25,
            },
            "partition": {"alpha": 0.5},
            "federated": {
                "rounds": 4,
                "clients": 6,
                "participation": 0.75,
                "local_epochs": 3,
                "local_lr": 0.02,
                "local_batch": 8,
                "strategies": ["feddf", "fedprox", "fedavgm"],
                "prototypes": [[2, 12, 3]],
                "activation": "tanh",
                "precision": "binary_ste",
                "prox_mu": 0.01,
                "server_momentum": 0.5,
                "drop_threshold": 1.1 / 3,
            },
            "distillation": {
                "max_steps": 30,
                "patience": 7,
                "base_lr": 0.002,
                "init_mode": "from_previous",
                "pool": "uniform_noise",
                "pool_size": 100,
                "batch_size": 20,
                "noise_low": -2.5,
                "noise_high": 1.5,
            },
            "evaluation": {
                "target_mode": "absolute",
                "target_value": 0.8,
                "centralized_epochs": 12,
                "grid": [-2.0, 2.0, 9],
            },
        }
        echo = cfg.public_dict()
        assert echo == expected
        assert json.dumps(echo, sort_keys=True, indent=2) == json.dumps(expected, sort_keys=True, indent=2)
        assert resolve_output_root(cfg) == tmp_path / "out"

    def test_echo_of_a_config_without_distillation_is_pinned(self, tmp_path):
        cfg = load_experiment_config(write_config(tmp_path / "exp.ini"))
        echo = cfg.public_dict()
        assert echo["distillation"] is None
        assert echo["dataset"] == {
            "classes": 3, "per_class": 30, "scale": 0.6, "centers": None,
            "test_per_class": 30, "val_fraction": 0.2,
        }
        assert echo["federated"]["drop_threshold"] is None
        assert echo["evaluation"] == {
            "target_mode": "none", "target_value": 0.0, "centralized_epochs": 3, "grid": None,
        }


class TestSeedData:
    def cfg(self, tmp_path):
        return load_experiment_config(
            write_config(tmp_path / "exp.ini", strategies="strategies = feddf")
        )

    def test_shapes_and_split_sizes(self, tmp_path):
        cfg = self.cfg(tmp_path)
        data = build_seed_data(cfg, 0)
        assert len(data.train) + len(data.val) == cfg.classes * cfg.per_class
        assert len(data.test) == cfg.classes * cfg.test_per_class
        assert sum(len(s) for s in data.shards) == len(data.train)
        assert data.pool_inputs.shape == (cfg.pool_size, 2)

    def test_deterministic_per_seed(self, tmp_path):
        cfg = self.cfg(tmp_path)
        a = build_seed_data(cfg, 5)
        b = build_seed_data(cfg, 5)
        assert np.array_equal(a.train.inputs, b.train.inputs)
        assert np.array_equal(a.pool_inputs, b.pool_inputs)
        c = build_seed_data(cfg, 6)
        assert not np.array_equal(a.train.inputs, c.train.inputs)

    def test_partition_report_fields(self, tmp_path):
        cfg = self.cfg(tmp_path)
        report = partition_report(cfg, 0)
        assert report["clients"] == cfg.clients
        assert len(report["clients_detail"]) == cfg.clients
        sizes = [row["size"] for row in report["clients_detail"]]
        assert sum(sizes) == report["train_size"]
        for row in report["clients_detail"]:
            assert sum(row["class_histogram"]) == row["size"]


class TestRunExperiment:
    def test_artifacts_and_summary(self, tmp_path):
        cfg = load_experiment_config(write_config(tmp_path / "exp.ini"))
        summary = run_experiment(cfg)
        root = resolve_output_root(cfg)
        assert (root / "summary.json").is_file()
        rows = read_metrics(root / "seed0" / "fedavg" / "metrics.jsonl")
        assert len(rows) == cfg.rounds
        assert [r.round_index for r in rows] == [1, 2]
        assert all(r.wall_ms > 0 for r in rows)
        assert all(set(r.dropped) <= set(r.sampled) and r.sampled for r in rows)
        params = load_params(root / "seed0" / "fedavg" / "final_p0.params", cfg.make_prototypes())
        assert params.prototype.layer_widths == (2, 8, 3)
        assert summary["schema_version"] == SCHEMA_VERSION
        entry = summary["results"]["fedavg"]["0"]
        assert entry["final_acc_fused"] == rows[-1].acc_fused
        assert 0.0 <= entry["test_acc_fused"] <= 1.0
        assert summary["aggregate"]["fedavg"]["target_reached_count"] == 0

    def test_summary_file_is_reproducible(self, tmp_path):
        cfg = load_experiment_config(write_config(tmp_path / "exp.ini"))
        run_experiment(cfg)
        first = (resolve_output_root(cfg) / "summary.json").read_bytes()
        run_experiment(cfg)
        second = (resolve_output_root(cfg) / "summary.json").read_bytes()
        assert first == second

    def test_relative_target_records_rounds(self, tmp_path):
        cfg = load_experiment_config(
            write_config(tmp_path / "exp.ini", target="target = relative:0.5")
        )
        summary = run_experiment(cfg)
        assert "0" in summary["targets"]
        assert summary["targets"]["0"] == pytest.approx(
            0.5 * summary["centralized"]["0"]["val_accuracy"]
        )

    def test_output_env_var_overrides_root(self, tmp_path, monkeypatch):
        cfg = load_experiment_config(write_config(tmp_path / "exp.ini"))
        override = tmp_path / "elsewhere"
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(override))
        assert resolve_output_root(cfg) == override
        run_experiment(cfg)
        assert (override / "summary.json").is_file()
        assert not (tmp_path / "out" / "summary.json").exists()


class TestBoundSuite:
    def write_bound(self, tmp_path, instances=5):
        path = tmp_path / "bound.ini"
        path.write_text(
            "[bound]\n"
            f"instances = {instances}\n"
            "grid_size = 9\n"
            "ref_size = 2000\n"
            "seed = 0\n"
            f"output = {tmp_path / 'bout'}\n"
        )
        return path

    def test_config_parses_with_defaults(self, tmp_path):
        cfg = load_bound_config(self.write_bound(tmp_path))
        assert cfg.instances == 5
        assert cfg.family == "mixed"
        assert cfg.delta == 0.05
        assert cfg.k_clients is None and cfg.m is None

    def test_every_bound_key_is_pinned(self, tmp_path, monkeypatch):
        monkeypatch.delenv(OUTPUT_ENV_VAR, raising=False)
        path = tmp_path / "bound.ini"
        path.write_text(
            "[bound]\ninstances = 7\nfamily = axis_stumps_2d\ngrid_size = 11\nref_size = 500\n"
            f"delta = 0.2\nseed = 3\nk_clients = 4\nm = 60\noutput = {tmp_path / 'bout'}\n"
        )
        cfg = load_bound_config(path)
        got = [cfg.instances, cfg.family, cfg.grid_size, cfg.ref_size, cfg.delta, cfg.seed, cfg.k_clients, cfg.m]
        assert got == [7, "axis_stumps_2d", 11, 500, 0.2, 3, 4, 60]
        assert resolve_output_root(cfg) == tmp_path / "bout"

    def test_bad_bound_configs_raise(self, tmp_path):
        path = tmp_path / "b.ini"
        path.write_text("[bound]\ninstances = 0\noutput = x\n")
        with pytest.raises(ConfigError, match="instances"):
            load_bound_config(path)
        path.write_text("[bound]\ninstances = 3\nfamily = circles\noutput = x\n")
        with pytest.raises(ConfigError, match="family"):
            load_bound_config(path)
        path.write_text("[bound]\ninstances = 3\nseeds = 1\noutput = x\n")
        with pytest.raises(ConfigError, match="bound.seeds"):
            load_bound_config(path)
        for key in ("grid_size", "ref_size", "k_clients", "m"):
            path.write_text(f"[bound]\ninstances = 3\n{key} = 0\noutput = x\n")
            with pytest.raises(ConfigError, match=f"bound.{key} must be >= 1"):
                load_bound_config(path)
        path.write_text("[bound]\ninstances = 3\nk_clients = 2\nm = random\noutput = x\n")
        cfg = load_bound_config(path)
        assert cfg.k_clients == 2 and cfg.m is None

    def test_suite_runs_and_reports(self, tmp_path):
        out = run_bound_suite(load_bound_config(self.write_bound(tmp_path)))
        assert out["instances"] == 5
        assert out["holds"] == 5
        assert len(out["reports"]) == 5
        assert (tmp_path / "bout" / "bound_reports.json").is_file()
        on_disk = json.loads((tmp_path / "bout" / "bound_reports.json").read_text())
        assert on_disk["holds"] == out["holds"]

    def test_output_env_var_redirects_reports(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(override))
        run_bound_suite(load_bound_config(self.write_bound(tmp_path, instances=1)))
        assert (override / "bound_reports.json").is_file()
        assert not (tmp_path / "bout" / "bound_reports.json").exists()


class TestCli:
    def test_run_command_reports_and_exits_zero(self, tmp_path, capsys):
        path = write_config(tmp_path / "exp.ini")
        assert cli_main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fedavg: mean test acc" in out
        assert "summary.json" in out

    def test_config_error_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path / "bad.ini", strategies="strategies = fedsomething")
        assert cli_main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")

    def test_more_clients_than_samples_exits_one(self, tmp_path, capsys):
        # 3 classes x 10 samples leave 24 for training after the 0.2 split
        path = write_config(
            tmp_path / "bad.ini", per_class="per_class = 10", clients="clients = 40"
        )
        for command in ("run", "partition-stats"):
            assert cli_main([command, str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error:")
            assert "federated.clients" in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_failed_run_leaves_no_earlier_summary(self, tmp_path, capsys):
        assert cli_main(["run", str(write_config(tmp_path / "ok.ini", target="target = relative:0.5"))]) == 0
        assert (tmp_path / "out" / "summary.json").is_file()
        bad = write_config(tmp_path / "bad.ini", target="target = relative:0.5", local_lr="local_lr = 1e300")
        assert cli_main(["run", str(bad)]) == 2
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "target, phase",
        [("relative:0.5", "seed 0, centralized reference"), ("none", "seed 0, fedavg: round 1, client 2")],
    )
    def test_run_time_error_names_its_seed_and_phase(self, tmp_path, capsys, target, phase):
        path = write_config(tmp_path / "bad.ini", target=f"target = {target}", local_lr="local_lr = 1e300")
        assert cli_main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {phase}: softmax input contains non-finite values\n"

    @pytest.mark.parametrize(
        "changes, phase",
        [
            ({}, "seed 0, centralized reference"),
            ({"relative:0.9": "none"}, "seed 0, fedavg: round 1, client 2"),
            ({"relative:0.9": "none", "local_epochs = 10": "local_epochs = 40"}, "seed 0, fedavg: round 1, client 2"),
        ],
        ids=["centralized", "clients", "pooled_clients"],
    )
    def test_a_diverging_run_prints_one_error_line(self, tmp_path, changes, phase):
        """The README config with local_lr 1e300, in a fresh process: numpy's warnings stay silent, also in workers."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = readme.split("```ini\n", 1)[1].split("```", 1)[0].replace("local_lr = 0.05", "local_lr = 1e300")
        for old, new in changes.items():  # 40 local epochs: the round's 4 clients reach the pool's 256 steps
            text = text.replace(old, new)
        (tmp_path / "exp.ini").write_text(text)
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "fedfusion", "run", str(tmp_path / "exp.ini")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p),
                 OUTPUT_ENV_VAR: str(tmp_path / "out")},
        )
        assert proc.returncode == 2
        assert proc.stderr == f"error: {phase}: softmax input contains non-finite values\n"

    def test_empty_validation_split_exits_one(self, tmp_path, capsys):
        path = write_config(
            tmp_path / "bad.ini", per_class="per_class = 2", val_fraction="val_fraction = 0.15"
        )
        assert cli_main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "dataset.val_fraction" in err

    @pytest.mark.parametrize("line", ["k_clients = three", "grid_size = 0"])
    def test_bad_bound_count_exits_one(self, tmp_path, capsys, line):
        path = tmp_path / "bound.ini"
        path.write_text(f"[bound]\ninstances = 2\n{line}\noutput = {tmp_path / 'bout'}\n")
        assert cli_main(["bound-check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"bound.{line.split()[0]}" in err

    @pytest.mark.parametrize(
        "section, changes, key",
        [
            ("federated", {"activation": "bogus"}, "federated.activation"),
            ("federated", {"precision": "bogus"}, "federated.precision"),
            ("distillation", {"batch_size": "0"}, "distillation.batch_size"),
            ("distillation", {"pool": "uniform_noise", "noise_low": "3", "noise_high": "-3"}, "distillation.noise_low"),
            ("evaluation", {"grid": "-3,3,1"}, "evaluation.grid"),
            ("bound", {"seed": "-1"}, "bound.seed"),
            ("partition", {"alpha": "inf"}, "partition.alpha"),
            ("dataset", {"scale": "-1"}, "dataset.scale"),
            ("dataset", {"centers": "0,0; 0,0; 1,1"}, "dataset.centers"),
            ("evaluation", {"centralized_epochs": "-1"}, "evaluation.centralized_epochs"),
            ("federated", {"prototypes": "2,0,3"}, "federated.prototypes"),
            ("federated", {"clients": "0"}, "federated.clients"),
            ("federated", {"participation": "0"}, "federated.participation"),
            ("federated", {"participation": "1.5"}, "federated.participation"),
            ("federated", {"rounds": "-1"}, "federated.rounds"),
            ("federated", {"local_lr": "0"}, "federated.local_lr"),
            ("distillation", {"patience": "0"}, "distillation.patience"),
            ("distillation", {"max_steps": "-1"}, "distillation.max_steps"),
            ("distillation", {"init_mode": "bogus"}, "distillation.init_mode"),
            ("federated", {"local_lr": "inf"}, "federated.local_lr"),
            ("distillation", {"base_lr": "inf"}, "distillation.base_lr"),
            ("federated", {"prox_mu": "inf", "strategies": "fedprox"}, "federated.prox_mu"),
            (
                "distillation",
                {"pool": "uniform_noise", "noise_low": "-1e308", "noise_high": "1e308"},
                "distillation.noise_low",
            ),
        ],
    )
    def test_value_the_library_rejects_exits_one_at_load(self, tmp_path, capsys, section, changes, key):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        if section == "bound":
            command = "bound-check"
            parser.read_string(f"[bound]\ninstances = 2\noutput = {tmp_path / 'bout'}\n")
        else:
            command = "run"
            readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
            parser.read_string(readme.split("```ini\n", 1)[1].split("```", 1)[0])
            parser["experiment"]["output"] = str(tmp_path / "out")
        parser[section].update(changes)
        path = tmp_path / "bad.ini"
        with open(path, "w") as fh:
            parser.write(fh)
        assert cli_main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "bout").exists()

    def test_parallel_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["run", str(write_config(tmp_path / "exp.ini")), "--parallel"])
        assert info.value.code == 2
        assert "unrecognized arguments: --parallel" in capsys.readouterr().err

    def test_partition_stats_is_deterministic(self, tmp_path, capsys):
        path = write_config(tmp_path / "exp.ini")
        assert cli_main(["partition-stats", str(path)]) == 0
        first = capsys.readouterr().out
        assert cli_main(["partition-stats", str(path)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "mean label entropy" in first
        assert (tmp_path / "out" / "partition_stats_seed0.json").is_file()

    def test_module_entry_point(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "fedfusion", "run", str(tmp_path / "missing.ini")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error:")
