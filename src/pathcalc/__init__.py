"""Calculus for non-anticipative functionals of paths.

Exact piecewise path algebra (stop, bump, concatenate), windowed Picard
flows along direction fields, difference-quotient derivatives with
convergence verdicts, discrete change-of-variable sums along partition
sequences, and Monte Carlo checks of backward-equation candidates.
"""

from .errors import ConfigError, DomainError, FlowIterationError, \
    GridMismatchError, IllConditionedError, NonDifferentiableError, \
    NumericalError
from .paths import CADLAG, LINEAR, GridPath, PathBase, SplicedPath, \
    StoppedPath, bump, concat, constant_path, dist_stopped, \
    path_from_csv, path_to_csv, ramp_path, stop
from .functionals import CATALOG, DirectionField, Functional, \
    FunctionalWithDerivatives, MatrixFunctional, ProbeReport, \
    VectorFunctional, builtin, constant_direction, constant_functional, \
    constant_matrix_field, eval_direction, eval_functional, \
    exp_eval_functional, integral_functional, probe_boundedness, \
    probe_lipschitz, probe_non_anticipative, product_functional, \
    running_avg_direction, running_avg_functional, running_max_functional, \
    running_mean, square_functional, zero_direction
from .flow import FlowSolution, euler_flow, solve_flow
from .deriv import CONVERGED, DerivativeReport, GradientRecovery, \
    HorizontalAverage, INCONCLUSIVE, OSCILLATING, QuotientLadder, \
    RelationReport, SPACE_LADDER, d_gamma, d_horizontal, d_space,  \
    horizontal_from_gamma, judge, numerical_derivatives, recover_gradient, \
    relation_residual, require_converged
from .pathology import DirectionCheck, ExpansionCheck, RampBattery, \
    T_FLOOR, check_direction, constraint_direction, \
    counterexample_functional, expansion_check, expansion_rate, gamma_star, \
    mean_functional, path_mean, ramp_battery, sin_log, sin_log_prime, \
    surface_functional, surface_value
from .ito import ItoDecomposition, QVMatrixPath, StratonovichResult, \
    brownian_path, dyadic_subsample, ito_residual, midpoint_sum, \
    quadratic_covariation, snap_partition, stratonovich_integral
from .fk import MCEstimate, MartingaleReport, SDESpec, benchmark, \
    estimate_f, fk_residual, martingale_check, simulate_sde
from . import rng

__version__ = "0.1.0"
