"""equipot: equilibrium measures, capacities, Green's functions and sharp
polynomial-inequality constants on finite unions of closed real intervals."""

from .interval_sets import (
    EndpointContext,
    IntervalSet,
    cantor_set,
    check_interval_condition,
    from_spec,
    normalize,
)
from .numerics import (
    LPProblem,
    chebyshev_expand,
    lp_maximize,
)
from .equilibrium import (
    BalayageQuery,
    EquilibriumData,
    balayage_density,
    balayage_edge_limit,
    balayage_mass,
    decomposition_residual,
    density,
    density_table,
    equilibrium_potential,
    green,
    omega_factor,
    outer_convergence_study,
    solve_equilibrium,
    to_record,
)
from .extremal import (
    ExtremalResult,
    MarkovStudy,
    bernstein_audit,
    bernstein_walsh_audit,
    derivative_norm_probe,
    markov_extremal,
    markov_study,
    study_rows,
)
from .schur import (
    AuditReport,
    InverseImageMap,
    SchurWitness,
    affine_inverse_image,
    audit_bound,
    audit_witness,
    build_witness,
    counterexample_demo,
    h_poly,
    peaking_poly,
    quadratic_inverse_image,
)
from .errors import EquipotError, InvariantViolation, NumericsError, SetSpecError

__version__ = "0.1.0"
