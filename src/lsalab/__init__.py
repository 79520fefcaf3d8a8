"""Verification laboratory for constant-stepsize linear stochastic approximation.

The package simulates the recursion

    theta_{n+1} = theta_n - alpha * (A_{n+1} @ theta_n - b_{n+1}),

evaluates the closed-form quantities attached to it (Lyapunov geometry,
stationary covariances, moment/high-probability bounds, Rosenthal-type
constants), and cross-checks empirical behaviour against exact oracles at
desk scale.
"""

from types import ModuleType as _ModuleType

from lsalab.linalg import (
    SpectralProfile,
    solve_lyapunov,
    solve_sigma,
    solve_riccati,
    spectral_profile,
    alpha_p_inf,
    q_norm_mat,
)
from lsalab.rng import stream, uniform_open01
from lsalab.noise import (
    LsaModel,
    biased_rademacher_model,
    rademacher_gaussian_model,
    bounded_factor_model,
    td_zero_model,
    eps_subgauss_const,
    exact_stationary_cov,
    lyapunov_witness,
)
from lsalab.engine import (
    TrajectoryBlowup,
    TrajectoryDecomposition,
    McEstimate,
    run_trajectory,
    run_decomposed,
    product,
    final_errors,
    mc_norm_moment,
    cov_j0,
    stationary_horizon,
    sample_stationary,
    coupled_w2,
    coupled_exact_sq,
    exact_product_moment,
    rademacher_exact_tail,
    empirical_quantile,
    empirical_ks,
)
from lsalab.bounds import (
    BoundReport,
    product_moment_bound,
    product_hp_bound,
    moments_to_hp,
    transient_hp_bound,
    j0_hp_bound,
    j1_h1_bounds,
    composite_hp_bound,
    sigma_gap_bound,
    rademacher_bounds,
    rademacher_tail_thresholds,
)
from lsalab.rosenthal import (
    RosenthalConstants,
    RosenthalInputs,
    v_geometric_constants,
    delta_alpha_root,
    attach_wasserstein,
    wasserstein_rates,
    contraction_horizon,
    b_uq_exact,
    b_uq_upper,
    composition_count,
    rosenthal_bound,
    geometric_sum_check,
)
from lsalab.experiments import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    config_from_dict,
    config_hash,
    csv_text,
    json_text,
    resolve,
    run,
    validate,
    write_outputs,
)

__version__ = "0.1.0"

# the layer submodules become attributes of the package on import; they are
# not part of the star-import surface
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
