"""Rank-R generalized linear tensor regression.

A GLM whose coefficient for a tensor covariate is constrained to a
rank-R CP factorization, fitted by cyclic block maximization where every
factor update is an ordinary (or penalized) GLM.  Includes identifiable
factor normalization, BIC rank selection, score/Fisher-information
inference, sparsity penalties, synthetic shape benchmarks, and a CLI.
"""

from .errors import (
    DegenerateNormalizationWarning,
    DimensionMismatchError,
    DomainError,
    FitConvergenceError,
    GlmDivergenceError,
    InferenceError,
    KRankSizeError,
    ParseError,
    SingularDesignError,
    TensorRegError,
)
from .glm import GlmFamily, GlmFit, get_family, irls_fit, log_likelihood, penalized_fit
from .model import (
    FitConfig,
    InferenceReport,
    TensorGlmDataset,
    TensorGlmModel,
    UniquenessReport,
    bic,
    build_block_design,
    check_uniqueness,
    effective_parameters,
    eta_gradient,
    eta_hessian,
    fit,
    k_rank,
    load_model,
    log_density_hessian,
    model_from_document,
    model_to_document,
    normalize_identifiability,
    save_model,
    score_and_information,
    select_rank,
)
from .penalties import PenaltySpec, penalty_value, threshold_update
from .shapes import (
    SHAPE_NAMES,
    ShapeSpec,
    SimSpec,
    StudyResult,
    generate_ball_signal,
    generate_shape,
    rmse,
    run_consistency_study,
    simulate,
)
from .tensor_core import (
    CpTensor,
    DenseTensor,
    cp_to_full,
    khatri_rao,
    khatri_rao_chain,
    mode_dd_matricize,
)

__version__ = "0.1.0"
