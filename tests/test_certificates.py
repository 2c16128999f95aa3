"""The certificate kernels of reps against the per-element routes they replaced,
and a NaN at one element failing every check site."""

import dataclasses

import numpy as np
import pytest

import twistdecomp as td
from twistdecomp import _memo, decomposition, kgroups, reps
from twistdecomp.errors import (
    DecompositionFailure,
    MatchFailure,
    NonIntegerMultiplicity,
    NotIrreducible,
    NumericFailure,
    RankMismatch,
    SplitFailure,
)

import oracles
from oracles import (
    character_classes_by_max_abs,
    conjugation_residual_by_element,
    hom_action_by_vector,
    hom_rep,
    intertwiner,
    regular_rep,
    rep_violations_by_element,
    restrict_to_isotropy,
)
from test_reps import direct_sum, symmetric, with_nan
from test_split import SPLIT_CASES, assemble

TOL = td.default_tolerances()


def block_characters(G, alpha, seed=0):
    V, clusters = reps._split_regular(G, alpha, alpha.complex_table, seed)
    phi = reps._conjugation_weights(G, alpha.complex_table)
    return V, clusters, reps._block_characters(V, clusters, G.identity, phi)


def random_unitaries(rng, k, d):
    z = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    return np.linalg.qr(z)[0]


class TestCharacterClasses:
    @pytest.mark.parametrize("name", [*SPLIT_CASES, "D256 alpha"])
    def test_same_classes_as_max_abs(self, name):
        G, alpha = (td.dihedral(128), td.dihedral_alpha(128)) if name == "D256 alpha" \
            else SPLIT_CASES[name]()
        _, _, chars = block_characters(G, alpha)
        want = character_classes_by_max_abs(chars, TOL.char)
        assert reps._character_classes(chars, TOL.char) == want

    @pytest.mark.parametrize("same_class", [False, True])
    def test_a_cluster_merging_two_blocks_fails(self, d8, alpha4, same_class):
        """Two blocks of different classes, or two blocks of one class, in one cluster."""
        cocycle = alpha4 if same_class else td.trivial_cocycle(d8)
        V, clusters, chars = block_characters(d8, cocycle)
        firsts, _ = reps._character_classes(chars, TOL.char)
        if same_class:
            pair = [i for i in range(len(clusters)) if i != firsts[0]
                    and np.allclose(chars[i], chars[firsts[0]])][:1] + [firsts[0]]
        else:
            pair = firsts[:2]
        merged = [np.concatenate([clusters[i] for i in pair])]
        merged += [c for i, c in enumerate(clusters) if i not in pair]
        with pytest.raises(SplitFailure, match="not irreducible"):
            assemble(d8, cocycle, V, merged)

    def test_no_multiplicity_rule_error_escapes(self, d8, alpha4):
        _, _, chars = block_characters(d8, alpha4)
        for broken in (chars + 0.25, np.where(np.arange(d8.order) == 3, np.nan, chars)):
            with pytest.raises(SplitFailure, match="not orthogonal") as err:
                reps._character_classes(broken, TOL.char)
            assert isinstance(err.value.__cause__, NonIntegerMultiplicity)

    def test_trivial_group_splits(self):
        G = td.trivial_group()
        table = td.irreducibles(G, td.trivial_cocycle(G))
        assert table.dims == (1,)
        assert table.character_values.tolist() == [[1.0]]

    @pytest.mark.parametrize("exact", [True, False])
    def test_nan_fails_the_split(self, monkeypatch, d8, alpha4, exact):
        """The matrices are built and certified on the first read of irreducibles."""
        honest = reps._block_matrices

        def with_nan_entry(G, cocycle, ctable, B):
            mats = honest(G, cocycle, ctable, B)
            mats[:, 3, 0, 1] = np.nan
            return mats

        monkeypatch.setattr(reps, "_block_matrices", with_nan_entry)
        cocycle = alpha4 if exact else td.make_numeric_cocycle(d8, alpha4.complex_table)
        table = td.irreducibles(d8, cocycle, seed=0)
        with pytest.raises(SplitFailure, match="miss the defining relation by nan"):
            table.irreducibles


class TestRelationResiduals:
    @pytest.mark.parametrize("name", ["S4", "C2xD8 alpha", "C3xC3 heisenberg"])
    def test_every_pair_as_one_product_each(self, name):
        G, alpha = SPLIT_CASES[name]()
        table = td.irreducibles(G, alpha)
        ctable = alpha.complex_table
        for d in set(table.dims):
            mats = np.stack([r.matrices for r in table.irreducibles if r.dim == d])
            got = reps._relation_residuals(G, ctable, mats, range(G.order))
            want = np.max(np.abs(mats[:, :, None] @ mats[:, None]
                                 - ctable[None, :, :, None, None] * mats[:, G.mul]), axis=(3, 4))
            assert np.allclose(got, want, rtol=0, atol=1e-14)
            gens = reps.generating_set(G)
            assert np.array_equal(reps._relation_residuals(G, ctable, mats, gens), got[:, gens])

    def test_no_left_elements(self):
        G = td.trivial_group()
        mats = np.ones((3, 1, 1, 1), dtype=complex)
        got = reps._relation_residuals(G, td.trivial_cocycle(G).complex_table, mats, [])
        assert got.shape == (3, 0, 1) and got.max(initial=0.0) == 0.0


def corrupted(rep, kind):
    mats = np.array(rep.matrices)
    if kind == "identity":
        mats[rep.group.identity] *= -1
    elif kind == "unitary":
        mats[3] *= 2.0
    elif kind == "relation":
        mats[5] *= np.exp(0.1j)
    else:
        mats[3, 0, 1] = np.nan
    return td.ProjectiveRep(rep.group, rep.cocycle, rep.dim, mats)


class TestRepViolations:
    @pytest.mark.parametrize("kind", ["identity", "unitary", "relation", "nan"])
    def test_relation_pairs_as_relation_residuals(self, kind, explicit_taus):
        """The pairs it names are where the split's kernel misses _relation_tol."""
        s4 = symmetric(4)
        for rep in (explicit_taus[1],
                    td.irreducibles(s4, td.trivial_cocycle(s4)).irreducibles[-1]):
            broken = corrupted(rep, kind)
            violations = rep_violations_by_element(broken, TOL)
            assert violations
            G, cocycle = broken.group, broken.cocycle
            resid = reps._relation_residuals(G, cocycle.complex_table, broken.matrices[None],
                                             range(G.order))[0]
            bad = ~(resid <= reps._relation_tol(cocycle, TOL))
            assert [v[1:] for v in violations if v[0] == "relation"] == \
                [tuple(pair) for pair in np.argwhere(bad).tolist()]

    def test_nan_is_reported(self, explicit_taus):
        violations = rep_violations_by_element(corrupted(explicit_taus[1], "nan"))
        assert violations[0] == ("unitary", 3)
        assert ("relation", 3, 0) in violations
        assert ("identity",) in rep_violations_by_element(corrupted(explicit_taus[1], "identity"))

    def test_valid_reps_stay_valid(self, explicit_taus):
        assert not rep_violations_by_element(explicit_taus[1])
        assert not rep_violations_by_element(regular_rep(symmetric(4),
                                                         td.trivial_cocycle(symmetric(4))))


class TestConjugationResiduals:
    def test_each_family_member_as_per_element(self):
        rng = np.random.default_rng(0)
        X = random_unitaries(rng, 6, 3)
        M = random_unitaries(rng, 4, 3)
        Y = np.conj(np.swapaxes(M, 1, 2))[:, None] @ X[None] @ M[:, None]
        Y = Y + 1e-6 * rng.standard_normal(Y.shape)
        got = reps._conjugation_residuals(X, Y, M)
        want = [conjugation_residual_by_element(X, Y[k], M[k]) for k in range(4)]
        assert np.allclose(got, want, rtol=0, atol=1e-15)

    def test_intertwiner_residual_as_per_element(self, explicit_taus):
        rho1 = explicit_taus[1]
        U = random_unitaries(np.random.default_rng(1), 1, 2)[0]
        rho2 = td.ProjectiveRep(rho1.group, rho1.cocycle, 2, U.conj().T @ rho1.matrices @ U)
        M = intertwiner(rho1, rho2)
        got = reps._conjugation_residuals(rho1.matrices, rho2.matrices[None], M[None])[0]
        assert got == pytest.approx(conjugation_residual_by_element(rho1.matrices,
                                                                    rho2.matrices, M), abs=1e-15)
        assert got <= 1e-14

    def test_nan_off_the_generators_fails_the_intertwiner(self, explicit_taus):
        """The character, the commutant and the Schur kernel never see element 3."""
        rho1 = explicit_taus[1]
        assert 3 not in reps.generating_set(rho1.group)
        for rhos in [(rho1, corrupted(rho1, "nan")), (corrupted(rho1, "nan"), rho1)]:
            with pytest.raises(NumericFailure, match=r"verification failed \(residual nan\)"):
                intertwiner(*rhos)

    def test_pairing_errors_are_not_irreducible(self, explicit_taus):
        tau = explicit_taus[1]
        with pytest.raises(NotIrreducible, match="character pairing") as err:
            intertwiner(with_nan(tau), tau)
        assert isinstance(err.value.__cause__, NonIntegerMultiplicity)
        double = direct_sum(tau, tau)
        with pytest.raises(NotIrreducible, match="character pairing 4 is not 0 or 1"):
            intertwiner(double, double)

    def test_nan_in_m_fails_the_m_family(self, monkeypatch, d8, alpha4, a_center):
        honest = decomposition._intertwiners

        def with_nan_entry(*args):
            pairing, M = honest(*args)
            M = np.array(M)
            M[:, 0, -1] = np.nan
            return pairing, M

        monkeypatch.setattr(decomposition, "_intertwiners", with_nan_entry)
        action = td.action_table(d8, a_center, alpha4)
        with pytest.raises(DecompositionFailure, match=r"conjugation check at q=1 \(nan\)"):
            td.orbit_data(action, alpha4)


@pytest.fixture
def z_datum(d8, alpha4, a_center):
    return td.orbit_data(td.action_table(d8, a_center, alpha4), alpha4)[0]


def lookup(datum, W, corrupt_at=None, corruption=None):
    pos = {g: i for i, g in enumerate(datum.gt_map)}

    def w_lookup(g):
        mat = W.matrices[pos[g]]
        return corruption(mat) if g == corrupt_at else mat
    return w_lookup


class TestHomRep:
    @pytest.mark.parametrize("which", [1, 2, "sum"])
    def test_character_as_hom_weights(self, z_datum, alpha4, explicit_taus, which):
        """The character of hom_rep is the Hom-fiber character the pipeline reads."""
        rep = direct_sum(explicit_taus[1], explicit_taus[2]) if which == "sum" \
            else explicit_taus[which]
        elements, weights = decomposition._hom_weights(z_datum, alpha4)
        want = np.sum(td.character(rep).values[elements] * weights, axis=1)
        got = td.character(hom_rep(restrict_to_isotropy(rep, z_datum), z_datum)).values
        assert np.max(np.abs(got - want)) <= TOL.char

    def test_dimension_is_the_multiplicity_of_tau(self, d8, alpha4, a_center, z_datum,
                                                  explicit_taus):
        """dim Hom_A(V_tau, W) is the multiplicity the character route reads."""
        action = td.action_table(d8, a_center, alpha4)
        W = direct_sum(explicit_taus[1], explicit_taus[1])
        chi_a = td.character(W).values[list(action.a_map)]
        want = action.base.multiplicities(chi_a[None], TOL.char)[0, z_datum.representative]
        assert hom_rep(restrict_to_isotropy(W, z_datum), z_datum).dim == want == 2

    @pytest.mark.parametrize("corruption", [
        lambda m: m @ random_unitaries(np.random.default_rng(2), 1, len(m))[0],
        lambda m: np.where(np.eye(len(m)) > 0, np.nan, m)])
    def test_first_failing_pair_leaves_the_hom_space(self, z_datum, explicit_taus, corruption):
        W = restrict_to_isotropy(direct_sum(explicit_taus[1], explicit_taus[1]), z_datum)
        w_lookup = lookup(z_datum, W, int(z_datum.sections[1]), corruption)
        q_list = range(z_datum.q_group.order)
        with pytest.raises(NumericFailure, match="left the Hom space"):
            hom_action_by_vector(z_datum, w_lookup, q_list, TOL)

    def test_nan_in_w_fails_hom_rep(self, z_datum, explicit_taus):
        W = restrict_to_isotropy(explicit_taus[1], z_datum)
        mats = np.array(W.matrices)
        mats[z_datum.gt_map.index(int(z_datum.sections[1])), 0, 1] = np.nan
        broken = td.ProjectiveRep(W.group, W.cocycle, W.dim, mats)
        with pytest.raises(NumericFailure, match=r"left the Hom space \(residual nan\)"):
            hom_rep(broken, z_datum)

    @pytest.mark.parametrize("nan", [False, True])
    def test_relation_failure_raises(self, monkeypatch, z_datum, explicit_taus, nan):
        """A NaN in the Hom matrices fails the relation at its first row; a beta
        whose (1, 1) entry is turned by 1e-6 rad fails it at row 1 by 1e-6."""
        W = restrict_to_isotropy(explicit_taus[1], z_datum)
        honest = oracles.hom_action_by_vector

        def with_nan_entry(*args):
            F, mats = honest(*args)
            mats[1] = np.full_like(mats[1], np.nan)
            return F, mats

        if nan:
            monkeypatch.setattr(oracles, "hom_action_by_vector", with_nan_entry)
            datum, where = z_datum, r"q1=0 \(nan\)"
        else:
            table = np.array(z_datum.beta.table)
            table[1, 1] *= np.exp(1e-6j)
            datum = dataclasses.replace(z_datum, beta=td.NumericCocycle(z_datum.q_group, table))
            where = r"q1=1 \(1\.00e-06\)"
        with pytest.raises(DecompositionFailure, match="beta-twisted relation fails at " + where):
            hom_rep(W, datum, TOL)


class TestRankCertificate:
    @pytest.mark.parametrize("side", ["direct", "decomposed"])
    def test_a_side_missing_an_orbit_raises(self, monkeypatch, d8, alpha4, a_center, side):
        """verify_gset_decomposition compares the ranks of its two sides: a
        direct side without its last G-orbit, or a decomposed side without its
        last orbit datum, raises RankMismatch."""
        honest = kgroups._decomposed_side

        def tampered(*args):
            kx, sides = honest(*args)
            if side == "direct":
                return dataclasses.replace(kx, summands=kx.summands[:-1]), sides
            return kx, sides[:-1]

        x = td.disjoint_union(td.coset_gset(d8, a_center), td.point_gset(d8))
        report = td.verify_gset_decomposition(d8, a_center, alpha4, x)
        monkeypatch.setattr(kgroups, "_decomposed_side", tampered)
        with pytest.raises(RankMismatch, match=r"direct rank \d+ != decomposed rank \d+"):
            td.verify_gset_decomposition(d8, a_center, alpha4, x)
        assert report.ok and report.lhs_rank == sum(report.rhs_ranks) > 0


class TestBijectionCertificate:
    """Both decompositions read phi off blocks of Hom characters with
    decomposition._fill_blocks and certify it with decomposition._bijection."""

    @pytest.mark.parametrize("phi, rows", [(np.zeros((0, 0), dtype=np.int64), []),
                                           ([[1]], [0]), ([[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                                                          [2, 0, 1])])
    def test_a_permutation_matrix_gives_the_row_of_each_column(self, phi, rows):
        assert decomposition._bijection(np.array(phi)).tolist() == rows

    @pytest.mark.parametrize("phi", [[[2]], [[1, 1]], [[1], [1]], [[1, 0], [0, 0]],
                                     np.zeros((0, 2), dtype=np.int64),
                                     [[1, -1, 1], [0, 1, 0], [0, 1, 0]]],
                             ids=["two", "row", "column", "zero", "empty rows", "negative"])
    def test_anything_else_raises(self, phi):
        with pytest.raises(MatchFailure, match="not a bijection"):
            decomposition._bijection(np.array(phi))

    @pytest.mark.parametrize("how", ["swapped", "duplicated"])
    @pytest.mark.parametrize("module", [decomposition, kgroups], ids=["point", "gset"])
    def test_a_tampered_block_raises(self, monkeypatch, d8, alpha4, a_cyclic, module, how):
        """In the rows of the first block of phi, the column of a W over the
        block's orbit is swapped with, or copied onto, the column of a W over
        another orbit: verify_point_decomposition and verify_gset_decomposition
        each raise MatchFailure, and pass untampered."""
        honest = module._fill_blocks

        def tampered(out, blocks, tol):
            honest(out, blocks, tol)
            r = blocks[0][2]
            over = out[r].any(axis=0)
            assert over.any() and not over.all()
            w0, w1 = np.argmax(over), np.argmin(over)
            out[r, w1] = out[r, w0]
            if how == "swapped":
                out[r, w0] = 0

        def verify():
            if module is decomposition:
                return td.verify_point_decomposition(d8, a_cyclic, alpha4)
            return td.verify_gset_decomposition(d8, a_cyclic, alpha4, td.point_gset(d8))

        verify()
        _memo.clear()
        monkeypatch.setattr(module, "_fill_blocks", tampered)
        with pytest.raises(MatchFailure, match="not a bijection"):
            verify()
