import numpy as np
import pytest

import twistdecomp as td
from twistdecomp.decomposition import action_table, orbit_data
from twistdecomp.errors import InputError, NonIntegerMultiplicity, NotIrreducible
from twistdecomp.groups import generating_set, trivial_subgroup

from test_action_table import c2_x_d8_alpha
from test_decomposition import coboundary_twist
import oracles
from oracles import (
    act,
    character_inner,
    character_values_by_element,
    classical_character_table,
    classical_dims,
    commutant_dimension,
    intertwiner,
    is_irreducible,
    max_abs_matches,
    multiplicity,
    regular_rep,
    rep_violations_by_element,
    restrict_rep,
    twisted_character_table,
)


def symmetric(n):
    """S_n from a transposition and an n-cycle."""
    return td.from_permutation_generators(
        n, [(1, 0, *range(2, n)), (*range(1, n), 0)])


def alternating(n):
    """A_4 from two 3-cycles."""
    assert n == 4
    return td.from_permutation_generators(4, [(1, 2, 0, 3), (0, 2, 3, 1)])


def quaternion(n):
    """Q_8 as its left-regular permutation group; index 2u + s is (-1)^s times unit u."""
    assert n == 8
    # u * v = sign[u][v] * unit[u][v] for the units 1, i, j, k
    sign = [[1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]]
    unit = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]

    def left(u):
        return tuple(2 * unit[u][v // 2] + (v % 2 + (sign[u][v // 2] < 0)) % 2 for v in range(8))

    return td.from_permutation_generators(8, [left(1), left(2)])


def c2_times_dihedral(n):
    return td.direct_product(td.cyclic(2), td.dihedral(n))


def trivial_rep(G):
    mats = np.ones((G.order, 1, 1), dtype=complex)
    return td.ProjectiveRep(G, td.trivial_cocycle(G), 1, mats)


class TestRepViolations:
    def test_trivial_rep_valid(self, d8):
        assert not rep_violations_by_element(trivial_rep(d8))

    def test_explicit_tau1_valid(self, explicit_taus):
        assert not rep_violations_by_element(explicit_taus[1])

    def test_tau1_with_trivial_cocycle_invalid(self, d8, explicit_taus):
        rep = td.ProjectiveRep(d8, td.trivial_cocycle(d8), 2, np.array(explicit_taus[1].matrices))
        assert ("relation", 4, 1) in rep_violations_by_element(rep)  # fails at (b, a)

    def test_non_unitary_flagged(self, d8, alpha4):
        mats = np.array(regular_rep(d8, alpha4).matrices)
        mats[3] *= 2.0
        assert ("unitary", 3) in rep_violations_by_element(td.ProjectiveRep(d8, alpha4, 8, mats))


class TestRegularRep:
    def test_trivial_group(self):
        G = td.trivial_group()
        reg = regular_rep(G, td.trivial_cocycle(G))
        assert reg.dim == 1
        assert np.allclose(reg.matrices[0], np.eye(1))

    def test_z2_character(self):
        G = td.cyclic(2)
        reg = regular_rep(G, td.trivial_cocycle(G))
        assert np.allclose(td.character(reg).values, [2, 0])

    def test_d8_twisted_character(self, d8, alpha4):
        reg = regular_rep(d8, alpha4)
        assert not rep_violations_by_element(reg)
        want = np.zeros(8)
        want[0] = 8
        assert np.allclose(td.character(reg).values, want)


class TestIrreducibles:
    def test_z4_trivial(self):
        G = td.cyclic(4)
        table = td.irreducibles(G, td.trivial_cocycle(G), seed=0)
        assert table.dims == (1, 1, 1, 1)
        want = {tuple(np.round([1j ** (k * g) for g in range(4)], 6)) for k in range(4)}
        got = {tuple(np.round(c.values, 6)) for c in table.characters}
        assert got == want

    def test_negative_seeds_are_input_errors(self, d8, alpha4):
        with pytest.raises(InputError, match="seed must be a non-negative integer, got -1"):
            td.irreducibles(d8, alpha4, seed=-1)
        action = action_table(d8, td.subgroup_closure(d8, [2]), alpha4)
        with pytest.raises(InputError, match="phase_seed must be a non-negative integer, got -2"):
            orbit_data(action, alpha4, phase_seed=-2)

    def test_d8_twisted_two_classes(self, d8, alpha4):
        table = td.irreducibles(d8, alpha4, seed=0)
        assert table.dims == (2, 2)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_dihedral_family(self, n):
        G = td.dihedral(n)
        table = td.irreducibles(G, td.dihedral_alpha(n), seed=0)
        assert len(table) == n // 2
        assert all(d == 2 for d in table.dims)

    def test_sum_of_squares_exact(self, d8, alpha4):
        for cocycle in (td.trivial_cocycle(d8), alpha4):
            table = td.irreducibles(d8, cocycle, seed=0)
            assert sum(d * d for d in table.dims) == 8

    def test_character_gram_is_identity(self, d8, alpha4):
        table = td.irreducibles(d8, alpha4, seed=0)
        gram = np.array([
            [character_inner(c1, c2) for c2 in table.characters]
            for c1 in table.characters
        ])
        assert np.allclose(gram, np.eye(len(table)), atol=1e-6)

    def test_deterministic_per_seed(self, d8, alpha4):
        t1 = td.irreducibles(d8, alpha4, seed=0)
        t2 = td.irreducibles(d8, alpha4, seed=0)
        for r1, r2 in zip(t1.irreducibles, t2.irreducibles):
            assert np.array_equal(r1.matrices, r2.matrices)

    def test_character_set_seed_independent(self, d8, alpha4):
        cases = [(d8, alpha4), (td.dihedral(8), td.dihedral_alpha(8)), c2_x_d8_alpha()]
        for G, alpha in cases:
            tables = [td.irreducibles(G, alpha, seed=s) for s in (0, 1, 2)]
            prints = [
                {c.fingerprint(6) for c in t.characters} for t in tables
            ]
            assert prints[0] == prints[1] == prints[2]
            assert len(prints[0]) == len(tables[0])

    def test_all_irreducible_by_commutant(self, d8, alpha4):
        table = td.irreducibles(d8, alpha4, seed=0)
        for rep in table.irreducibles:
            assert is_irreducible(rep)

    @pytest.mark.parametrize("make,n", [
        (td.cyclic, 2), (td.cyclic, 3), (td.cyclic, 5), (td.cyclic, 8),
        (td.dihedral, 2), (td.dihedral, 3), (td.dihedral, 4),
        (symmetric, 4), (alternating, 4), (quaternion, 8), (c2_times_dihedral, 4),
    ])
    def test_matches_classical_oracle_small(self, make, n):
        G = make(n)
        table = td.irreducibles(G, td.trivial_cocycle(G), seed=0)
        classes, oracle = classical_character_table(G)
        assert sorted(table.dims) == classical_dims(G)
        oracle_prints = set()
        for row in oracle:
            values = character_values_by_element(G, classes, row)
            oracle_prints.add(tuple(np.round(values, 6)))
        got = {tuple(np.round(c.values, 6)) for c in table.characters}
        assert got == oracle_prints


class TestTwistedOracle:
    """Characters of (G, alpha) against class sums on the central extension,
    a route that never runs the split."""

    CASES = {
        "D8": lambda: (td.dihedral(4), td.dihedral_alpha(4)),
        "D12": lambda: (td.dihedral(6), td.dihedral_alpha(6)),
        "C2xD8": c2_x_d8_alpha,
        "D8 df": lambda: (td.dihedral(4), coboundary_twist(td.dihedral_alpha(4), 5)),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_equal_to_the_central_extension(self, name):
        G, alpha = self.CASES[name]()
        got = td.irreducibles(G, alpha, seed=0).character_values
        tol = td.default_tolerances().char

        def matches(sign):
            return [max_abs_matches(got, row, tol)
                    for row in twisted_character_table(G, alpha, sign)]

        # (1, k) acts by exp(+2 pi i k / K); the other sign gives alpha^-1's characters
        assert sorted(matches(1)) == [[j] for j in range(len(got))]
        assert not any(matches(-1))


class TestCharacter:
    def test_trivial_rep(self, d8):
        assert np.allclose(td.character(trivial_rep(d8)).values, 1)

    def test_tau1_at_a(self, explicit_taus):
        assert td.character(explicit_taus[1]).values[1] == pytest.approx(1 + 1j)

    def test_tau2_at_a2(self, explicit_taus):
        assert td.character(explicit_taus[2]).values[2] == pytest.approx(0)


class TestMultiplicity:
    def test_self_multiplicity_one(self, explicit_taus):
        assert multiplicity(explicit_taus[1], explicit_taus[1]) == 1

    def test_regular_contains_each_dim_times(self, d8, alpha4, explicit_taus):
        reg = regular_rep(d8, alpha4)
        assert multiplicity(reg, explicit_taus[1]) == 2
        assert multiplicity(reg, explicit_taus[2]) == 2

    def test_tau1_restricted_contains_rho_once(self, d8, alpha4, explicit_taus, a_cyclic):
        w_a = restrict_rep(explicit_taus[1], a_cyclic)
        sub, _ = a_cyclic.as_group()
        rho = td.ProjectiveRep(
            sub, td.trivial_cocycle(sub), 1,
            np.array([[[1j ** k]] for k in range(4)], dtype=complex),
        )
        assert multiplicity(w_a, rho) == 1

    def test_mismatched_cocycles_rejected(self, d8, alpha4, explicit_taus):
        other = td.ProjectiveRep(d8, td.trivial_cocycle(d8), 1,
                                 np.ones((8, 1, 1), dtype=complex))
        with pytest.raises((NonIntegerMultiplicity, Exception)):
            multiplicity(explicit_taus[1], other)

    def test_a_nan_entry_raises(self, explicit_taus):
        with pytest.raises(NonIntegerMultiplicity):
            multiplicity(with_nan(explicit_taus[1]), explicit_taus[1])


def with_nan(rep):
    """rep with one matrix entry replaced by NaN."""
    mats = rep.matrices.copy()
    mats[3, 0, 0] = np.nan
    return td.ProjectiveRep(rep.group, rep.cocycle, rep.dim, mats)


def direct_sum(*parts):
    """Block-diagonal sum of representations on one group and cocycle."""
    G = parts[0].group
    d = sum(p.dim for p in parts)
    mats = np.zeros((G.order, d, d), dtype=complex)
    at = 0
    for p in parts:
        mats[:, at:at + p.dim, at:at + p.dim] = p.matrices
        at += p.dim
    return td.ProjectiveRep(G, parts[0].cocycle, d, mats)


def beta_table():
    """Irreducibles of an induced cocycle of nontrivial class: D_8 mod its center, trivial alpha."""
    G = td.dihedral(4)
    alpha = td.trivial_cocycle(G)
    data = orbit_data(action_table(G, td.subgroup_closure(G, [2]), alpha), alpha)
    return next(t for t in (td.irreducibles(d.q_group, d.beta) for d in data) if t.dims == (2,))


class TestMultiplicities:
    TABLES = {
        "D8-alpha": lambda: td.irreducibles(td.dihedral(4), td.dihedral_alpha(4)),
        "S4-trivial": lambda: td.irreducibles(symmetric(4), td.trivial_cocycle(symmetric(4))),
        "beta": beta_table,
    }

    @pytest.mark.parametrize("name", TABLES)
    def test_equal_per_entry_multiplicity(self, name):
        table = self.TABLES[name]()
        irr = table.irreducibles
        samples = [regular_rep(table.group, table.cocycle), *irr,
                   direct_sum(irr[0], irr[-1], irr[-1]), direct_sum(*irr)]
        got = table.multiplicities(np.stack([td.character(w).values for w in samples]),
                                   td.default_tolerances().char)
        want = [[multiplicity(w, u) for u in irr] for w in samples]
        assert got.dtype == np.int64
        assert got.tolist() == want

    def test_negative_multiplicity_raises(self, d8, alpha4):
        table = td.irreducibles(d8, alpha4)
        with pytest.raises(NonIntegerMultiplicity):
            table.multiplicities(-table.character_values[:1], td.default_tolerances().char)

    def test_characters_of_another_cocycle_raise(self, d8, alpha4):
        table = td.irreducibles(d8, alpha4)
        other = td.irreducibles(d8, td.trivial_cocycle(d8))
        with pytest.raises(NonIntegerMultiplicity):
            table.multiplicities(other.character_values, td.default_tolerances().char)

    def test_a_nan_entry_raises(self, d8, alpha4):
        table = td.irreducibles(d8, alpha4)
        values = table.character_values.copy()
        values[0, 3] = np.nan
        with pytest.raises(NonIntegerMultiplicity):
            table.multiplicities(values, td.default_tolerances().char)


class TestIntertwiner:
    def test_self_intertwiner_is_identity(self, explicit_taus):
        M = intertwiner(explicit_taus[1], explicit_taus[1])
        assert np.allclose(M, np.eye(2), atol=1e-8)

    def test_tau1_vs_conjugated_tau1_exists(self, d8, alpha4, explicit_taus):
        from twistdecomp.groups import full_subgroup

        whole = full_subgroup(d8)
        tau1_std = restrict_rep(explicit_taus[1], whole)
        moved = act(alpha4, whole, 4, tau1_std)  # g = b
        M = intertwiner(tau1_std, moved)
        assert M is not None
        assert np.allclose(M.conj().T @ M, np.eye(2), atol=1e-9)
        for g in range(8):
            assert np.allclose(
                moved.matrices[g], M.conj().T @ tau1_std.matrices[g] @ M, atol=1e-8
            )

    def test_inequivalent_classes_absent(self, explicit_taus):
        assert intertwiner(explicit_taus[1], explicit_taus[2]) is None

    def test_reducible_rejected(self, d8, alpha4):
        reg = regular_rep(d8, alpha4)
        with pytest.raises(NotIrreducible):
            intertwiner(reg, reg)

    def test_a_nan_entry_raises(self, explicit_taus):
        with pytest.raises(NotIrreducible, match="pairing"):
            intertwiner(with_nan(explicit_taus[1]), explicit_taus[1])


class TestRestrictRep:
    def test_to_trivial_subgroup(self, d8, explicit_taus):
        sub_rep = restrict_rep(explicit_taus[1], trivial_subgroup(d8))
        assert sub_rep.group.order == 1
        assert np.allclose(sub_rep.matrices[0], np.eye(2))

    def test_tau1_to_rotations_splits_one_plus_rho(self, alpha4, explicit_taus, a_cyclic):
        w_a = restrict_rep(explicit_taus[1], a_cyclic)
        assert not rep_violations_by_element(w_a)
        table = td.irreducibles(w_a.group, w_a.cocycle, seed=0)
        mults = [multiplicity(w_a, t) for t in table.irreducibles]
        chars = [tuple(np.round(c.values, 6)) for c in table.characters]
        trivial = chars.index((1, 1, 1, 1))
        rho = chars.index((1, 1j, -1, -1j))
        assert mults[trivial] == 1 and mults[rho] == 1 and sum(mults) == 2

    def test_tau2_to_center_splits_one_plus_sigma(self, explicit_taus, a_center):
        w_a = restrict_rep(explicit_taus[2], a_center)
        table = td.irreducibles(w_a.group, w_a.cocycle, seed=0)
        mults = sorted(multiplicity(w_a, t) for t in table.irreducibles)
        assert mults == [1, 1]


class TestCommutant:
    def test_irreducible_has_dim_one(self, explicit_taus):
        assert commutant_dimension(explicit_taus[1]) == 1

    def test_regular_rep_commutant(self, d8, alpha4):
        # two classes of dim 2 each: commutant dim = 2^2 + 2^2
        reg = regular_rep(d8, alpha4)
        assert commutant_dimension(reg) == 8


def kron_equations(G, X, Y):
    """The generator equations of oracles.hom_space, one kron pair per generator."""
    dx, dy = X.shape[1], Y.shape[1]
    return np.vstack([np.kron(X[g], np.eye(dy)) - np.kron(np.eye(dx), Y[g].T)
                      for g in generating_set(G)])


class TestHomSpaceEquations:
    @pytest.fixture
    def equations(self, monkeypatch):
        """The matrix of every nullspace hom_space asks for, in call order."""
        seen = []
        honest = oracles.nullspace

        def recorded(A):
            seen.append(A)
            return honest(A)

        monkeypatch.setattr(oracles, "nullspace", recorded)
        return seen

    @pytest.mark.parametrize("n", range(4, 13))
    def test_equal_to_the_kron_loop(self, n, equations):
        G = td.dihedral(n)
        cocycles = [td.trivial_cocycle(G)] + ([td.dihedral_alpha(n)] if n % 2 == 0 else [])
        for alpha in cocycles:
            for rep in td.irreducibles(G, alpha).irreducibles:
                equations.clear()
                kernel = oracles.hom_space(G, rep.matrices, rep.matrices)
                want = kron_equations(G, rep.matrices, rep.matrices)
                assert len(equations) == 1 and np.array_equal(equations[0], want)
                assert np.array_equal(kernel, oracles.nullspace(want))

    def test_rectangular_pair(self, equations):
        G = td.dihedral(5)
        irr = td.irreducibles(G, td.trivial_cocycle(G)).irreducibles
        X, Y = irr[-1].matrices, irr[0].matrices
        assert X.shape[1] == 2 and Y.shape[1] == 1
        equations.clear()
        assert oracles.hom_space(G, X, Y).shape == (2, 0)
        assert len(equations) == 1 and np.array_equal(equations[0], kron_equations(G, X, Y))
