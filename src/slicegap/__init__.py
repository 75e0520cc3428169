"""Slice-sampling laboratory: uniform and polar slice sampling for
rotationally invariant densities, spectral-gap certification of the
auxiliary level chain, and autocorrelation diagnostics."""

from .diagnostics import AcfSeries, IatEstimate, autocorr, iat, iat_bound_from_gap
from .errors import (
    DegenerateSupportError,
    DomainError,
    EmptyLevelError,
    InsufficientDataError,
    InvalidLevelSetError,
    NoRootError,
    SliceGapError,
    ZeroVarianceError,
)
from .harness import (ExperimentConfig, adjointness_check, check_lambda, gap_table,
                      iat_sweep, verify)
from .kernel import (
    DiscreteKernel,
    GapEstimate,
    TGrid,
    build_tgrid,
    certify_gap,
    discretize_pt,
    duality_gap_compare,
    spectral_gap,
    stationary_weights,
    transition_cdf,
)
from .levelset import (
    LevelSetFunction,
    MembershipReport,
    SliceProfile,
    canonical_inverse_phi,
    canonical_potential,
    lambda_k_check,
    level_bounds,
    level_interval,
    level_set_function,
    log_h_sup,
    mode_radius,
    slice_profile,
)
from .samplers import (
    PiTildeSampler,
    RadialStationarySampler,
    Trace,
    make_rng,
    run_t_chain,
    run_x_chain,
    sample_direction,
    t_step_levels,
    t_update,
    x_step_radii,
    x_update_radius,
)
from .targets import (
    BUILTIN_TAGS,
    RadialFactorization,
    RadialTarget,
    exponential,
    gaussian,
    log_h,
    log_surface_area,
    make_builtin,
    radial_weighted_exponential,
    surface_area,
    validate_target,
    volcano,
)

__version__ = "0.1.0"
