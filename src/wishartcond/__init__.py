"""Condition-number densities of complex Wishart matrices.

Exact finite-dimension densities and moment generating functions for the
trace-over-smallest and trace-over-second-smallest eigenvalue ratios, their
large-dimension limits, and a deterministic Monte Carlo sampler used to
validate every analytic curve the package produces.
"""

from .asymptotic import (
    ScaledParams,
    cdf_v_error_bound,
    cdf_v_kappa_d_interp,
    cdf_v_kappa_e_interp,
    pdf_v_kappa_d_grid,
    pdf_v_kappa_e_grid,
)
from .exact import (
    METRIC_KAPPA_D,
    METRIC_KAPPA_E,
    METRIC_LAMBDA_2,
    METRIC_LAMBDA_MIN,
    METRICS,
    Dims,
    cdf_kappa_d_interp,
    cdf_kappa_e_interp,
    cdf_lambda2_interp,
    cdf_lambda_min_interp,
    mgf_kappa_d,
    mgf_kappa_e,
    pdf_kappa_d,
    pdf_kappa_d_grid,
    pdf_kappa_e,
    pdf_kappa_e_grid,
    pdf_lambda2_grid,
    pdf_lambda_min_grid,
)

from .sampler import (
    SamplerError,
    build_report,
    ks_compare,
    ks_threshold,
    mc_collect,
)

__version__ = "0.1.0"
