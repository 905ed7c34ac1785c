"""Cutoff-renormalized nucleon-boson Hamiltonians on truncated Fock grids.

The package builds finite momentum-lattice truncations of Nelson-type
models, assembles the renormalized Hamiltonian through its boundary
decomposition, and verifies the operator identities, integral bounds,
convergence rates, and domain-regularity behaviour numerically.
"""

from . import errors
from .fockgrid import (
    FockBasis,
    MomentumGrid,
    build_grid,
    diagonal_values,
    enumerate_basis,
    point_index,
    translate,
    translate_indices,
)
from .model import (
    AdmissibleSRange,
    ConditionAReport,
    ConditionCReport,
    DerivedExponents,
    KinematicBoundReport,
    ModelKind,
    ModelParams,
    ParameterFamily,
    admissible_s_range,
    appendix_parameter_family,
    check_condition_a,
    check_condition_c,
    custom_model,
    dispersion_boson,
    dispersion_boson_norm,
    dispersion_nucleon,
    dispersion_nucleon_norm,
    eckmann_kinematic_bound,
    eckmann_model,
    ff_sq_axial,
    form_factor,
    gross_model,
    nelson_model,
    u_map,
    ultraviolet_degree,
)
from .ops import (
    IdentityReport,
    SparseOperator,
    assemble_G,
    assemble_H_direct,
    assemble_H_ibc,
    assemble_L,
    assemble_T_cutoff,
    assemble_T_od,
    assemble_Td,
    assemble_annihilation,
    assemble_creation,
    assemble_tau,
    assemble_theta,
    basis_digest,
    export_triplets,
    load_triplets,
    verify_identity,
)
from .quad import (
    QuadResult,
    ScalingExponents,
    ScalingFitReport,
    axisymmetric_integral,
    condition_b_lhs,
    counterterm,
    counterterm_grid,
    grid_mode_mask,
    integral_I,
    integral_J,
    integral_i_grid,
    integral_j_grid,
    loglog_slope,
    resolvent_sum_grid,
    scaling_bound_fit,
    scaling_lhs,
)
from .spectral import (
    ConvergenceRow,
    ConvergenceTable,
    DivergenceFit,
    EigenResult,
    RegularityReport,
    RegularityRow,
    cutoff_convergence_study,
    divergence_fit,
    lowest_eigenpairs,
    regularity_diagnostic,
)

__version__ = "0.1.0"
