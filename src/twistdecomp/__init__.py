"""Projective representations of finite groups and the orbit decomposition
of twisted equivariant K-theory on finite G-sets."""

from .cocycles import (
    Cocycle,
    NumericCocycle,
    UnitScalar,
    central_extension,
    dihedral_alpha,
    make_cocycle,
    make_numeric_cocycle,
    restrict,
    snap_to_lattice,
    tau_scalar,
    trivial_cocycle,
    validate_cocycle,
    validate_numeric_cocycle,
)
from .config import Tolerances, default_tolerances
from .decomposition import (
    DecompositionReport,
    IrrAction,
    OrbitDatum,
    act,
    action_table,
    conjugate_rep,
    hom_rep,
    induced_cocycle,
    orbit_data,
    reconstruct_rep,
    verify_point_decomposition,
)
from .groups import (
    FiniteGroup,
    QuotientWithSection,
    SubgroupHandle,
    center,
    chi,
    conjugacy_classes,
    cyclic,
    dihedral,
    direct_product,
    from_multiplication_table,
    from_permutation_generators,
    is_normal,
    normal_subgroups,
    quotient_with_section,
    subgroup_closure,
    trivial_group,
)
from .kgroups import (
    FiniteGSet,
    TwistedKGroup,
    coset_gset,
    disjoint_union,
    k0_of_gset,
    left_translation_gset,
    make_gset,
    phi_matrix,
    point_gset,
    pullback_matrix,
    verify_gset_decomposition,
)
from .reps import (
    AlphaCharacter,
    IrrTable,
    ProjectiveRep,
    character,
    character_inner,
    coboundary_cochain,
    intertwiner,
    irreducibles,
    multiplicity,
    regular_rep,
    restrict_rep,
    validate_rep,
)

__version__ = "0.1.0"
