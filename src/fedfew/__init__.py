"""Few-for-many personalized federated learning, simulated at desk scale.

K shared server models are jointly optimized with a smooth Tchebycheff set
scalarization so that every one of M heterogeneous clients is served well by
at least one model.  Includes fedavg, ifca, and local-only baselines, non-IID
data generators, and the evaluation metrics used to verify the framework's
bounds and qualitative behavior.
"""

from .errors import ConfigError
from .numerics import log_sum_exp, smooth_min, softmin_weights
from .model import ModelSpec, init_params
from .data import (
    ClientDataset,
    DataConfig,
    Dataset,
    Problem,
    dirichlet_partition,
    gen_mixture,
    load_csv,
    pathological_partition,
    split_indices,
)
from .scalarization import (
    ScalarizationWeights,
    aggregate_gradients,
    compute_weights,
    tch_set_value,
)
from .federation import (
    ExperimentConfig,
    ModelConfig,
    OptimumResult,
    RoundTrace,
    build_problem,
    per_client_optimum,
    run_fedavg,
    run_fedfew,
    run_ifca,
    run_local,
    select_models,
)
from .metrics import (
    FairnessReport,
    accuracy,
    coverage_gap,
    fairness_report,
    heterogeneity_delta,
    jain_index,
    weight_diagnostics,
)

__version__ = "0.1.0"
