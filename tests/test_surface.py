"""The public names of the package, and the names that moved from the library
to tests/oracles.py."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import twistdecomp as td

import oracles

# What `import twistdecomp` binds without a leading underscore, in a fresh
# interpreter: the layer modules the package imports, and its exports.
PUBLIC_NAMES = [
    "AlphaCharacter", "Cocycle", "DecompositionReport", "FiniteGSet", "FiniteGroup",
    "IrrAction", "IrrTable", "NumericCocycle", "OrbitDatum", "ProjectiveRep",
    "QuotientWithSection", "SubgroupHandle", "Tolerances", "TwistedKGroup", "action_table",
    "center", "character", "cocycles", "config", "conjugacy_classes", "coset_gset", "cyclic",
    "decomposition", "default_tolerances", "dihedral", "dihedral_alpha", "direct_product",
    "disjoint_union", "errors", "from_multiplication_table", "from_permutation_generators",
    "groups", "irreducibles", "is_normal", "k0_of_gset", "kgroups", "make_cocycle",
    "make_gset", "make_numeric_cocycle", "normal_subgroups", "orbit_data",
    "phi_matrix", "point_gset", "pullback_matrix", "quotient_with_section", "reps", "restrict",
    "subgroup_closure", "trivial_cocycle", "trivial_group", "validate_cocycle",
    "validate_numeric_cocycle", "verify_gset_decomposition", "verify_point_decomposition",
]

# The fields of the exported dataclasses, in order, private ones included: a
# change to them changes what callers build and read.
FIELDS = {
    "DecompositionReport": ["group", "subgroup", "alpha", "seed", "irr_g", "action", "orbits",
                            "beta_tables", "matching", "multiplicities"],
    "IrrAction": ["group", "subgroup", "alpha", "base", "alpha_a", "a_map", "perm"],
    "OrbitDatum": ["representative", "members", "gt_group", "gt_map", "alpha_gt", "a_in_gt",
                   "quotient", "sections", "tau", "M", "beta"],
    "TwistedKGroup": ["gset", "cocycle", "orbit_basepoints", "summands", "_isotropy"],
}

# Each name that no CLI command, report or certificate calls, and the library
# module it left for tests/oracles.py.
MOVED = {
    "UnitScalar": "cocycles", "CentralExtension": "cocycles", "central_extension": "cocycles",
    "tau_scalar": "cocycles", "numeric_from_exact": "cocycles",
    "coboundary_cochain": "reps", "intertwiner": "reps", "_check_compatible": "reps",
    "commutant_dimension": "reps", "induced_cocycle": "decomposition", "chi": "groups",
}


def test_the_public_names_are_pinned():
    src = Path(td.__file__).resolve().parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import twistdecomp as td; "
            "print(' '.join(sorted(n for n in dir(td) if not n.startswith('_'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.split() == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 54


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_the_fields_of_the_exported_dataclasses_are_pinned(name):
    assert [f.name for f in dataclasses.fields(getattr(td, name))] == FIELDS[name]


@pytest.mark.parametrize("name", sorted(MOVED))
def test_a_moved_name_lives_in_the_oracles(name):
    assert callable(getattr(oracles, name))
    assert not hasattr(td, name)
    assert not hasattr(getattr(td, MOVED[name]), name)


def test_the_deleted_methods_are_gone():
    """Cocycle.scalar lives on as oracles.scalar and Cocycle.same_as as
    oracles.same_cocycle; the others had no caller in the library."""
    assert callable(oracles.scalar) and callable(oracles.same_cocycle)
    for cls, name in ((td.Cocycle, "scalar"), (td.FiniteGroup, "label"),
                      (td.FiniteGroup, "elements"), (td.FiniteGSet, "points"),
                      (td.TwistedKGroup, "basis"), (td.TwistedKGroup, "locate"),
                      (td.FiniteGSet, "apply"), (td.Cocycle, "is_trivial"),
                      (td.Cocycle, "same_as"), (td.NumericCocycle, "same_as")):
        assert not hasattr(cls, name), name
    assert not hasattr(td.kgroups, "left_translation_gset")
    assert not hasattr(td.cocycles, "_tables_close")
