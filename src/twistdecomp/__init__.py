"""Projective representations of finite groups and the orbit decomposition
of twisted equivariant K-theory on finite G-sets."""

from .cocycles import (
    Cocycle,
    NumericCocycle,
    dihedral_alpha,
    make_cocycle,
    make_numeric_cocycle,
    restrict,
    trivial_cocycle,
    validate_cocycle,
    validate_numeric_cocycle,
)
from .config import Tolerances, default_tolerances
from .decomposition import (
    DecompositionReport,
    IrrAction,
    OrbitDatum,
    action_table,
    orbit_data,
    verify_point_decomposition,
)
from .groups import (
    FiniteGroup,
    QuotientWithSection,
    SubgroupHandle,
    center,
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
    irreducibles,
)

__version__ = "0.1.0"
