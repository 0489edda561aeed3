"""Deterministic decentralized-federated-learning simulator.

Objective-oriented reweighting aggregation plus robust baseline aggregators,
Byzantine attacks, heterogeneous partitioners, fairness/robustness metrics,
and convergence-bound evaluators.
"""

from .analysis import (
    BoundParams,
    Ordering,
    accuracy_variance,
    fairness_compare,
    mean_accuracy,
    quadratic_testbed,
    robustness_compare,
    summarize,
    theorem1_bound,
    theorem2_bound,
)
from .attacks import ALIE, AdversaryView, Gaussian, SignFlip, alie_update, gaussian_update, sign_flip_update
from .baselines import (
    DFedAvg,
    Flame,
    Krum,
    Median,
    MultiKrum,
    TrimmedMean,
    dfedavg,
    flame_weighted,
    krum,
    krum_scores,
    median_agg,
    multi_krum,
    trimmed_mean,
)
from .config import (
    AttackSpec,
    ConfigError,
    DFedReweightingSpec,
    IdxSpec,
    RunConfig,
    SyntheticSpec,
    TopologyShape,
    load_config,
    parse_config,
)
from .core_learning import (
    Dataset,
    Minibatch,
    ParamVector,
    ShapeError,
    batch_gradient,
    batch_loss,
    evaluate_accuracy,
    evaluate_mean_loss,
    predict_probs,
    sgd_step,
    stacked_accuracy,
    stacked_mean_loss,
    stacked_sgd_step,
)
from .data import (
    IID,
    ClientState,
    Dirichlet,
    FormatError,
    LabelSkew,
    PartitionError,
    PartitionPlan,
    gen_synthetic_blobs,
    load_idx,
    partition_dirichlet,
    partition_iid,
    partition_label_skew,
    split_auxiliary,
)
from .reweight import (
    AccClip,
    LossClip,
    MetricVector,
    TargetMetricKind,
    TempSoftmax,
    WeightVector,
    compute_tpm,
    compute_tpm_batch,
    crs_acc_clip,
    crs_loss_clip,
    crs_temp_softmax,
    dfedreweighting_round_weights,
    reweight_aggregate,
    reweight_round,
)
from .sim import (
    NetworkState,
    RunSummary,
    SimulationError,
    build_network,
    evaluate_network,
    run_experiment,
    run_round,
)
from .topology import (
    TopologyConfig,
    TopologyError,
    TopologyGraph,
    generate,
    is_benign_connected,
    neighbors,
)

__version__ = "0.1.0"
