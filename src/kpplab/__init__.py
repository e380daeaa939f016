"""kpplab: desk-scale numerical laboratory for heterogeneous Fisher-KPP
reaction-diffusion equations, parabolic kernels, and treatment protocols."""

from .grids import Grid, GridFunction
from .model import (
    Bump,
    CoefficientField,
    Constant,
    Exponential,
    Gaussian,
    HypothesisReport,
    InitialCondition,
    Logistic,
    MalformedReactionError,
    Piecewise,
    PiecewiseKPP,
    Problem,
    Reaction,
    Separable,
    Sine,
    Zero,
    builtin_problems,
    homogeneous_kpp,
    make_initial,
    piecewise_kpp_problem,
    validate_problem,
)
from .solver import (
    KernelResult,
    NumericalError,
    Snapshot,
    SolverConfig,
    StabilityError,
    Trajectory,
    discrete_rhs,
    fundamental_solution,
    solve,
    solve_linear_halfline,
    step,
)
from .kernels import (
    AronsonFit,
    HalfLineParams,
    check_kernel_ratio,
    fit_aronson_K,
    gaussian_kernel,
    half_line_green,
    half_line_green_dt,
    halfline_quadrature,
    scan_green_dt_region,
    t0_threshold,
)
from .analysis import (
    HypothesisMismatchError,
    LevelNotCrossedError,
    MonotonicityCertificate,
    estimate_tau_star,
    find_T_monotone,
    level_position,
    halfline_sign_verify,
    spreading_speed,
    monotonicity_report,
    global_sign_report,
)
from .tumor import (
    TreatmentSchedule,
    apply_treatment,
    jump_identity_residual,
    observed_size,
    run_protocol,
    total_mass,
)
from .config import SchemaError, load_config, parse_config

__version__ = "0.1.0"
