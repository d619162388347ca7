"""Guaranteed interval-valued parameter estimation around recursive least squares.

The library propagates axis-aligned boxes through the estimation-error
dynamics of an exponentially weighted RLS identifier, yielding interval
estimates that are guaranteed to contain the true parameter vector
whenever the measurement noise (and, for time-varying systems, the
parameter drift) stays inside known bounds.
"""

from .intervals import IntervalVector, from_center_radius
from .rls import RlsConfig, RlsState, rls_init, rls_step
from .pe import (
    PeReport,
    pe_levels,
    gamma_bounds,
    contraction_constants,
    m_star,
    iss_envelope,
    asymptotic_radius_bound,
    eta_q_bound,
    analyze,
)
from .lti import EstimatorConfig, EstimatorSpec, IntervalEstimate, LtiIntervalEstimator
from .data import Dataset
from .simulate import SimConfig, generate_lti, generate_ltv
from .experiment import (
    ExperimentResult,
    run_experiment,
    lambda_sweep,
    estimate_from_csv,
    estimator_config,
)

__version__ = "0.1.0"
