"""Exact-arithmetic toolkit for gapped filtered A-infinity algebras over
truncated Novikov rings: relation checking, minimal models by planar-tree
sums, Maurer-Cartan theory, and Floer cohomology of immersed-Lagrangian
presentations."""

from .novikov import (
    NovikovElement,
    nov_add,
    nov_flavor_check,
    nov_invert,
    nov_mul,
    nov_sub,
    nov_valuation,
)
from .gapped import (
    EnergyMonoid,
    monoid_elements,
    monoid_norm,
    truncate_level,
    validate_gapped,
)
from .gradedcore import (
    GradedSpace,
    OperationSystem,
    OperationTable,
    apply_operation,
    cohomology_ranks,
    relation_defect,
)
from .ainfty import (
    check_homotopy,
    check_morphism,
    check_relations,
    compose_morphisms,
    identity_morphism,
    is_weak_homotopy_equiv,
    whisker_strict,
)
from .transfer import (
    GeometricData,
    PlanarTree,
    Splitting,
    ank_from_geometric,
    enumerate_trees,
    filtration_splitting,
    homotopy_inverse_strict,
    minimal_model,
    splitting,
    splitting_for_projection,
)
from .floer import (
    BoundingCochain,
    DoublePoint,
    LagrangianPresentation,
    Obstruction,
    acyclicity_feasible,
    bc_criteria,
    gauge_act,
    hf_compute,
    hf_product,
    legendrian_validate,
    make_presentation,
    mc_residual,
    mc_solve,
    rescale_regrade,
    sector_project,
    twist,
    union_sectors,
    whitney_preset,
)
from .geomsign import (
    SignQuery,
    eta_from_phases,
    shifted_degree,
    sign_boundary_insertion,
    sign_fibre_product,
    sign_zeta,
    vdim_formulas,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
