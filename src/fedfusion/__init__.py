"""Deterministic federated learning simulator with ensemble-distillation fusion.

Modules:
    models    prototypes, flat parameter vectors, forward passes, averaging
    numerics  losses, analytic gradients, SGD/Adam with schedules
    data      Gaussian blob datasets, Dirichlet label-skew partitioning, pools
    flcore    client updates, aggregation strategies, distillation fusion
    bound     brute-force diagnostics for an ensemble generalization bound
    harness   experiment configs, metrics artifacts, summaries, grids
    cli       `fedfusion run | bound-check | partition-stats`
"""

from ._errors import ConfigError, PrototypeMismatchError, ShapeError
from .models import (
    ParamVector,
    Prototype,
    average_params,
    binarize_values,
    init_params,
    load_params,
    predict_logits,
    save_params,
)
from .numerics import (
    OptimizerState,
    cosine_lr,
    cross_entropy,
    grad,
    kl_div,
    opt_step,
    softmax,
)
from .data import (
    Dataset,
    DistillPool,
    PartitionSpec,
    dirichlet_partition,
    label_entropy,
    make_gaussian_blobs,
    sample_noise_rows,
    split_train_val,
)
from .flcore import (
    DistillConfig,
    FLConfig,
    RoundRecord,
    ServerState,
    client_local_update,
    ensemble_accuracy,
    ensemble_logits,
    feddf_fuse,
    run_round,
    run_training,
    sample_clients,
    top1_accuracy,
)
from .bound import (
    BoundReport,
    HypothesisClass,
    Stump,
    axis_stumps_2d,
    check_bound,
    empirical_risk,
    ensemble_risk,
    erm,
    h_delta_h_divergence,
    lambda_k,
    make_bound_instance,
    sauer_growth,
    signed_thresholds_1d,
    thresholds_1d,
)
from .harness import (
    ExperimentConfig,
    decision_boundary_grid,
    load_experiment_config,
    rounds_to_target,
    run_experiment,
)

__version__ = "0.1.0"
