"""Finite-lattice laboratory for the effective potential of the
attractive-delta many-electron system."""

from .model import (
    DispersionSpec,
    ExternalField,
    FieldConfig,
    ModelSpec,
    MomentumSet,
    TransferSet,
    autocorrelation_all,
    bcs_config,
    build_momentum_set,
    build_transfer_set,
    field_norm,
    nondegeneracy_check,
    random_config,
)
from .potential import (
    Banded,
    DisplacedPotential,
    SingularMatrixError,
    assemble_block,
    logdet,
    phi_matrix,
    potential_full,
    potential_ray,
    potential_reduced,
    reduced_matrix,
)
from .gap import (
    GapConvergenceError,
    GapSolution,
    critical_coupling,
    gap_lhs,
    solve_gap,
    solve_gap_external,
    vbcs_cosh,
    vbcs_r,
    vbcs_sum,
)
from .bound import BoundReport, bound_report, hadamard_rhs
from .expansion import (
    QuadraticForm,
    analytic_hessian,
    coefficients,
    coefficients_external,
    decomposition_lhs,
    fd_hessian,
    remainder,
    u2_external,
    v2,
)
from .gaussian import (
    GaussianReport,
    eps_int2,
    gaussian_report,
    lambda2,
    lambda2_zero,
    log_z2,
)

__version__ = "0.1.0"
