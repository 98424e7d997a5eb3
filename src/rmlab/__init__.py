"""rmlab: a numerical laboratory for extreme singular values of random
matrices, Levy concentration (small-ball) bounds, sphere-partition profiles,
and covering-number formulas, with a reproducible experiment harness."""

from .constants import ARTIFACT_NAME, ARTIFACT_VERSION, FITTED, FITTED_RAW
from .distributions import (
    EntryDistribution,
    GAUSSIAN,
    RADEMACHER,
    UNIFORM_SYM,
    char_fn,
    discrete,
    parse_dist_spec,
    sample,
)
from .errors import ConfigError, RegimeError
from .experiments import ExperimentConfig, ExperimentResult, emit, parse_config, run
from .matrices import (
    MatrixSample,
    operator_norm,
    sample_matrix,
    spectral_summary,
)
from .nets import (
    CoveringEstimate,
    greedy_net,
    singular_grid_net,
    volumetric_bound,
    vp_entropy_bound,
)
from .rng import derive_stream, derive_substream_seed
from .small_ball import (
    ConcentrationEstimate,
    SmallBallQuery,
    berry_esseen_bound,
    clopper_pearson,
    empirical_sup_concentration,
    esseen_bound,
    exact_concentration,
    halasz_integral_bound,
    halasz_profile_bound,
    monte_carlo_concentration,
    s_delta,
    tensorization_bound,
)
from .sphere_profile import (
    DeltaProfile,
    PartitionParams,
    ProfileClassification,
    ProfileContext,
    classify_profile,
    classify_sphere,
    delta_profile,
    j_set,
    min_half_subset_ssq,
    sample_allocation,
)

__version__ = ARTIFACT_VERSION

__all__ = [
    "ARTIFACT_NAME",
    "ARTIFACT_VERSION",
    "ConcentrationEstimate",
    "ConfigError",
    "CoveringEstimate",
    "DeltaProfile",
    "EntryDistribution",
    "ExperimentConfig",
    "ExperimentResult",
    "FITTED",
    "FITTED_RAW",
    "GAUSSIAN",
    "MatrixSample",
    "PartitionParams",
    "ProfileClassification",
    "ProfileContext",
    "RADEMACHER",
    "RegimeError",
    "SmallBallQuery",
    "UNIFORM_SYM",
    "berry_esseen_bound",
    "char_fn",
    "classify_profile",
    "classify_sphere",
    "clopper_pearson",
    "delta_profile",
    "derive_stream",
    "derive_substream_seed",
    "discrete",
    "emit",
    "empirical_sup_concentration",
    "esseen_bound",
    "exact_concentration",
    "greedy_net",
    "halasz_integral_bound",
    "halasz_profile_bound",
    "j_set",
    "min_half_subset_ssq",
    "monte_carlo_concentration",
    "operator_norm",
    "parse_config",
    "parse_dist_spec",
    "run",
    "s_delta",
    "sample",
    "sample_allocation",
    "sample_matrix",
    "singular_grid_net",
    "spectral_summary",
    "tensorization_bound",
    "volumetric_bound",
    "vp_entropy_bound",
]
