"""Quasirandom quadratures for mean-field expectations and a sparsifying
variational trainer built on them."""

from .quadrature import (
    AntitheticPair,
    NodeSet,
    antithetic_pair,
    blocked_simplex_standard,
    count_exact_pairs,
    cross_polytope_signs,
    exactness_period,
    mean_matched_nodes,
    moment_matched_nodes,
    reflected_nodes,
    sign_sequence,
    simplex_sigma_points,
    trial_rng,
)
from .meanfield import (
    GaussianMeanField,
    LaplaceMeanField,
    OrthonormalBasis,
    SpikeSlabMeanField,
    basis_product_expectation,
    orthonormal_basis,
    preset,
    spike_slab_moments,
)
from .projection import (
    EvaluationError,
    QuadraticSummary,
    full_period,
    quadratic_approx,
)
from .models import (
    Dataset,
    IdxFormatError,
    LogisticModel,
    MlpModel,
    QuadraticOracleModel,
    idx_shape,
    read_idx,
    synth_sparse_logistic,
    write_idx,
)
from .trainer import (
    EpochStats,
    TrainConfig,
    TrainState,
    anneal_target,
    hybrid_coeffs,
    init_state,
    load_checkpoint,
    load_resume,
    run_epoch,
    save_checkpoint,
    sparsity_schedule,
    train,
)

__version__ = "0.1.0"
