import numpy as np
import pytest

import twistdecomp as td
from twistdecomp import decomposition, report, reps
from twistdecomp.errors import DecompositionFailure, MatchFailure, NotNormal
from twistdecomp.groups import full_subgroup, normal_subgroups, trivial_subgroup
from twistdecomp.report import decomposition_payload

from oracles import (
    NotIsotypic,
    act,
    coboundary_cochain_brute,
    hom_rep,
    hom_space,
    nullspace,
    reconstructed_by_element,
    rep_violations_by_element,
    restrict_rep,
)


def char_tuple(values, digits=6):
    return tuple(np.round(np.asarray(values), digits))


def find_irr(table, values):
    """Index of the table entry whose character matches the given values."""
    want = char_tuple(values)
    for i, c in enumerate(table.characters):
        if char_tuple(c.values) == want:
            return i
    raise AssertionError(f"no entry with character {want}")


@pytest.fixture(scope="module")
def d8_a_action(d8, alpha4, a_cyclic):
    return td.action_table(td.dihedral(4), a_cyclic, alpha4, seed=0)


@pytest.fixture(scope="module")
def d8_z_action(d8, alpha4, a_center):
    return td.action_table(td.dihedral(4), a_center, alpha4, seed=0)


class TestAct:
    def test_identity_acts_trivially(self, d8, alpha4, a_cyclic, d8_a_action):
        for tau in d8_a_action.base.irreducibles:
            moved = act(alpha4, a_cyclic, 0, tau)
            assert np.array_equal(moved.matrices, tau.matrices)

    def test_b_sends_rho_to_trivial(self, d8, alpha4, a_cyclic, d8_a_action):
        table = d8_a_action.base
        rho = table.irreducibles[find_irr(table, [1, 1j, -1, -1j])]
        moved = act(alpha4, a_cyclic, 4, rho)  # g = b
        assert char_tuple(td.character(moved).values) == (1, 1, 1, 1)

    def test_b_sends_rho2_to_rho3(self, d8, alpha4, a_cyclic, d8_a_action):
        table = d8_a_action.base
        rho2 = table.irreducibles[find_irr(table, [1, -1, 1, -1])]
        moved = act(alpha4, a_cyclic, 4, rho2)
        assert char_tuple(td.character(moved).values) == (1, -1j, -1, 1j)

    def test_validity_for_all_g(self, d8, alpha4, a_center, d8_z_action):
        for g in range(8):
            for tau in d8_z_action.base.irreducibles:
                moved = act(alpha4, a_center, g, tau)
                assert not rep_violations_by_element(moved)


class TestActionTable:
    def test_abelian_self_action_trivial(self):
        G = td.cyclic(4)
        action = td.action_table(G, full_subgroup(G), td.trivial_cocycle(G), seed=0)
        ident = np.arange(len(action.base))
        for g in range(4):
            assert np.array_equal(action.perm[g], ident)

    def test_d8_a_orbits(self, d8_a_action):
        table = d8_a_action.base
        orbits = d8_a_action.orbits()
        as_chars = [
            {char_tuple(table.characters[i].values) for i in orbit} for orbit in orbits
        ]
        assert {frozenset(s) for s in as_chars} == {
            frozenset({(1, 1, 1, 1), (1, 1j, -1, -1j)}),
            frozenset({(1, -1, 1, -1), (1, -1j, -1, 1j)}),
        }

    def test_d8_center_transitive(self, d8_z_action):
        assert len(d8_z_action.orbits()) == 1

    def test_witnesses_conjugate_correctly(self, alpha4, d8_a_action, d8_z_action):
        """M_q witnesses sigma(q).tau ~ tau, and act(g, tau_i) has the
        character of the class perm[g, i] names."""
        for action in (d8_a_action, d8_z_action):
            A = action.subgroup
            for datum in td.orbit_data(action, alpha4):
                for q in range(datum.q_group.order):
                    moved = act(alpha4, A, int(datum.sections[q]), datum.tau)
                    Mq = datum.M[q]
                    assert np.allclose(
                        moved.matrices, Mq.conj().T @ datum.tau.matrices @ Mq, atol=1e-8
                    )
            for g in range(8):
                for i, tau in enumerate(action.base.irreducibles):
                    moved = act(alpha4, A, g, tau)
                    target = action.base.characters[int(action.perm[g, i])]
                    assert np.allclose(td.character(moved).values, target.values, atol=1e-8)


class TestOrbitData:
    def test_d8_a_isotropy_is_a(self, d8_a_action, alpha4):
        data = td.orbit_data(d8_a_action, alpha4)
        assert len(data) == 2
        for datum in data:
            assert datum.isotropy.elements == (0, 1, 2, 3)
            assert datum.q_group.order == 1

    def test_d8_center_isotropy_is_rotations(self, d8_z_action, alpha4):
        data = td.orbit_data(d8_z_action, alpha4)
        assert len(data) == 1
        datum = data[0]
        assert datum.isotropy.elements == (0, 1, 2, 3)
        assert datum.isotropy.order == 4
        assert datum.q_group.order == 2

    def test_self_action_gives_singletons(self, d8, alpha4):
        action = td.action_table(d8, full_subgroup(d8), alpha4, seed=0)
        data = td.orbit_data(action, alpha4)
        assert all(len(d.members) == 1 for d in data)
        assert all(d.q_group.order == 1 for d in data)

    def test_m_family_starts_at_identity(self, d8_z_action, alpha4):
        datum = td.orbit_data(d8_z_action, alpha4)[0]
        assert np.allclose(datum.M[0], np.eye(datum.tau.dim))


    def test_m_family_check_catches_a_wrong_intertwiner(self, monkeypatch, d8, alpha4):
        # A = <a^2, b> has one 2-dimensional tau; M(1) U is no intertwiner
        # for a unitary U that is not scalar
        action = td.action_table(d8, td.subgroup_closure(d8, [2, 4]), alpha4)
        c, s = np.cos(0.3), np.sin(0.3)
        rotate = np.array([[c, -s], [s, c]])
        schur = decomposition._intertwiners

        def rotated(*args):
            pairing, M = schur(*args)
            return pairing, M @ rotate

        monkeypatch.setattr(decomposition, "_intertwiners", rotated)
        with pytest.raises(DecompositionFailure, match="conjugation check at q=1 "):
            td.orbit_data(action, alpha4)


class TestInducedCocycle:
    def test_normalization(self, d8_z_action, alpha4):
        beta = td.orbit_data(d8_z_action, alpha4)[0].beta
        assert np.allclose(beta.table[0, :], 1)
        assert np.allclose(beta.table[:, 0], 1)

    def test_d8_center_beta_is_coboundary(self, d8_z_action, alpha4):
        beta = td.orbit_data(d8_z_action, alpha4)[0].beta
        assert td.validate_numeric_cocycle(beta).ok
        assert coboundary_cochain_brute(beta, 8) is not None

    def test_trivial_alpha_index_two_beta_coboundary(self, d8):
        # cyclic quotient: every obstruction class dies, so beta must split
        alpha = td.trivial_cocycle(d8)
        A = td.subgroup_closure(d8, [1])
        action = td.action_table(d8, A, alpha, seed=0)
        for datum in td.orbit_data(action, alpha):
            assert coboundary_cochain_brute(datum.beta, 8) is not None

    def test_trivial_alpha_center_obstruction(self, d8):
        # the classical non-split case: over the sign character of the center
        # the induced cocycle represents the extension class of D8 over Z/2 x Z/2
        # and is NOT a coboundary; over the trivial character it is trivial.
        alpha = td.trivial_cocycle(d8)
        A = td.subgroup_closure(d8, [2])
        action = td.action_table(d8, A, alpha, seed=0)
        data = td.orbit_data(action, alpha)
        assert len(data) == 2
        by_char = {
            char_tuple(td.character(d.tau).values): d for d in data
        }
        trivial_orbit = by_char[(1, 1)]
        sign_orbit = by_char[(1, -1)]
        assert coboundary_cochain_brute(trivial_orbit.beta, 8) is not None
        assert coboundary_cochain_brute(sign_orbit.beta, 8) is None
        # the nontrivial class carries a single 2-dim irreducible: 2^2 = |Q|
        table = td.irreducibles(sign_orbit.q_group, sign_orbit.beta, seed=0)
        assert table.dims == (2,)

    def test_cocycle_identity_across_dihedral_family(self):
        for n in (2, 4, 6):
            G = td.dihedral(n)
            alpha = td.dihedral_alpha(n)
            for A in td.normal_subgroups(G):
                action = td.action_table(G, A, alpha, seed=0)
                for datum in td.orbit_data(action, alpha):
                    assert td.validate_numeric_cocycle(datum.beta).ok


class TestHomRep:
    def test_tau_over_itself_is_trivial(self, d8_a_action, alpha4):
        # isotropy = A itself, so W = tau gives a 1-dim rep of the trivial group
        data = td.orbit_data(d8_a_action, alpha4)
        datum = data[0]
        hom = hom_rep(datum.tau, datum)
        assert hom.dim == 1
        assert hom.group.order == 1
        assert np.allclose(hom.matrices[0], np.eye(1))

    def test_d8_center_isotypic_projection(self, d8, alpha4, a_center, d8_z_action,
                                            explicit_taus):
        data = td.orbit_data(d8_z_action, alpha4)
        datum = data[0]
        results = {}
        for name, tau_rep in explicit_taus.items():
            w_gt = restrict_rep(tau_rep, datum.isotropy, datum.alpha_gt)
            hom = hom_rep(w_gt, datum)
            assert hom.dim == 1
            results[name] = complex(hom.matrices[1][0, 0])
        # the two irreducibles map to the two distinct beta-classes
        assert results[1] == pytest.approx(-results[2])

    def test_not_isotypic_raises(self, d8, alpha4, a_cyclic, d8_a_action):
        data = td.orbit_data(d8_a_action, alpha4)
        # representative of orbit 0 has no component of orbit 1's representative
        datum0, datum1 = data
        with pytest.raises(NotIsotypic):
            hom_rep(datum1.tau, datum0)

    def test_generator_equations_give_the_all_of_a_kernel(self, d8, alpha4, d8_a_action,
                                                         d8_z_action, explicit_taus):
        irr_g = td.irreducibles(d8, alpha4, seed=0)
        for action in (d8_a_action, d8_z_action):
            for datum in td.orbit_data(action, alpha4):
                tau = datum.tau
                a_order = [datum.gt_map[x] for x in datum.a_in_gt.elements]
                for W in [*explicit_taus.values(), *irr_g.irreducibles]:
                    w_a = W.matrices[a_order]
                    rows = [np.kron(w, np.eye(tau.dim)) - np.kron(np.eye(W.dim), t.T)
                            for w, t in zip(w_a, tau.matrices)]
                    want = nullspace(np.vstack(rows)).shape[1]
                    assert hom_space(tau.group, w_a, tau.matrices).shape[1] == want

    def test_beta_relation_holds(self, d8, alpha4, a_center, d8_z_action, explicit_taus):
        datum = td.orbit_data(d8_z_action, alpha4)[0]
        w_gt = restrict_rep(explicit_taus[1], datum.isotropy, datum.alpha_gt)
        hom = hom_rep(w_gt, datum)
        Q = datum.q_group
        for q1 in range(Q.order):
            for q2 in range(Q.order):
                lhs = hom.matrices[q1] @ hom.matrices[q2]
                rhs = datum.beta.table[q1, q2] * hom.matrices[Q.multiply(q1, q2)]
                assert np.allclose(lhs, rhs, atol=1e-8)


def isotypic_character(datum, W):
    """The character of the tau-isotypic part of W, a representation of the isotropy
    group: h -> tr W(h) P, with P the projector built independently from the Hom basis."""
    w_a = W.matrices[list(datum.a_in_gt.elements)]
    F = hom_space(datum.tau.group, w_a, datum.tau.matrices)
    fs = [F[:, i].reshape(W.dim, datum.tau.dim) for i in range(F.shape[1])]
    P = datum.tau.dim * sum(f @ f.conj().T for f in fs)
    assert np.allclose(P @ P, P, atol=1e-9)
    return np.array([np.trace(W.matrices[h] @ P) for h in range(datum.gt_group.order)])


class TestReconstruction:
    @pytest.mark.parametrize("which", [1, 2])
    def test_character_matches_isotypic_projection(self, d8, alpha4, a_center,
                                                   d8_z_action, explicit_taus, which):
        datum = td.orbit_data(d8_z_action, alpha4)[0]
        W = restrict_rep(explicit_taus[which], datum.isotropy, datum.alpha_gt)
        rec = reconstructed_by_element(datum, hom_rep(W, datum))
        expected = isotypic_character(datum, W)
        for h in range(datum.gt_group.order):
            assert td.character(rec).values[h] == pytest.approx(expected[h], abs=1e-8)

    def test_fully_isotypic_reconstruction_equals_w(self, d8, alpha4, a_cyclic,
                                                    d8_a_action, explicit_taus):
        # over A = <a> with isotropy = A, tau(W)-isotypic part of tau_1 is rho alone
        data = td.orbit_data(d8_a_action, alpha4)
        table = d8_a_action.base
        rho_idx = find_irr(table, [1, 1j, -1, -1j])
        datum = next(d for d in data if rho_idx in d.members)
        # take W = the representative itself: fully isotypic by construction
        hom = hom_rep(datum.tau, datum)
        rec = reconstructed_by_element(datum, hom)
        assert np.allclose(
            td.character(rec).values, td.character(datum.tau).values, atol=1e-8
        )


class TestVerifyPointDecomposition:
    def test_d8_a(self, d8, alpha4, a_cyclic):
        rep = td.verify_point_decomposition(d8, a_cyclic, alpha4, seed=0)
        assert rep.rank_lhs == 2
        assert rep.rank_rhs == (1, 1)
        assert all(d.q_group.order == 1 for d in rep.orbits)
        # tau_1 (char 1+i at a) lies over the orbit containing the trivial character
        table = rep.irr_g
        tau1 = find_irr(table, [2, 1 + 1j, 0, 1 - 1j, 0, 0, 0, 0])
        tau2 = find_irr(table, [2, -1 - 1j, 0, -1 + 1j, 0, 0, 0, 0])
        trivial_a = find_irr(rep.action.base, [1, 1, 1, 1])
        orbit_of_tau1 = rep.matching[tau1][0]
        assert trivial_a in rep.orbits[orbit_of_tau1].members
        assert rep.matching[tau2][0] != orbit_of_tau1

    def test_d8_center(self, d8, alpha4, a_center):
        rep = td.verify_point_decomposition(d8, a_center, alpha4, seed=0)
        assert len(rep.orbits) == 1
        assert rep.orbits[0].isotropy.elements == (0, 1, 2, 3)
        assert rep.orbits[0].q_group.order == 2
        assert rep.rank_lhs == 2 and rep.rank_rhs == (2,)
        assert sorted(m[1] for m in rep.matching) == [0, 1]

    def test_trivial_subgroup(self, d8, alpha4):
        rep = td.verify_point_decomposition(d8, trivial_subgroup(d8), alpha4, seed=0)
        assert len(rep.orbits) == 1
        assert rep.orbits[0].q_group.order == 8
        assert rep.rank_lhs == sum(rep.rank_rhs) == 2

    def test_whole_group(self, d8, alpha4):
        rep = td.verify_point_decomposition(d8, full_subgroup(d8), alpha4, seed=0)
        assert len(rep.orbits) == rep.rank_lhs == 2

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_dihedral_family(self, n):
        G = td.dihedral(n)
        A = td.subgroup_closure(G, [1])
        rep = td.verify_point_decomposition(G, A, td.dihedral_alpha(n), seed=0)
        assert len(rep.orbits) == n // 2
        assert all(len(d.members) == 2 for d in rep.orbits)
        assert all(d.q_group.order == 1 for d in rep.orbits)
        assert rep.rank_lhs == n // 2

    def test_trivial_cocycle_matches_untwisted_theory(self, d8):
        alpha = td.trivial_cocycle(d8)
        for gens in ([1], [2], [2, 4]):
            A = td.subgroup_closure(d8, gens)
            rep = td.verify_point_decomposition(d8, A, alpha, seed=0)
            assert rep.rank_ok

    def test_normality_is_checked_once(self, monkeypatch, d8, alpha4, a_cyclic):
        calls = []
        honest = decomposition.is_normal

        def counted(G, A):
            calls.append(A.elements)
            return honest(G, A)

        monkeypatch.setattr(decomposition, "is_normal", counted)
        td.verify_point_decomposition(d8, a_cyclic, alpha4, seed=0)
        assert calls == [a_cyclic.elements]

    def test_a_subgroup_that_is_not_normal_fails_before_any_split(self, monkeypatch, d8, alpha4):
        def never(*args):
            raise AssertionError("a split ran")

        monkeypatch.setattr(reps, "_split_regular", never)
        with pytest.raises(NotNormal):
            td.verify_point_decomposition(d8, td.subgroup_closure(d8, [4]), alpha4, seed=0)


IDENTITY_AT_3 = np.array([3, 5, 0, 7, 1, 6, 2, 4])     # D_8 index k -> index IDENTITY_AT_3[k]


def d8_identity_at_3():
    """D_8 and dihedral_alpha(4) renumbered so the identity sits at index 3:
    a valid hand-built FiniteGroup(identity=3) and its cocycle."""
    G, alpha = td.dihedral(4), td.dihedral_alpha(4)
    p = IDENTITY_AT_3
    mul, inv, expo = np.empty_like(G.mul), np.empty_like(G.inv), np.empty_like(alpha.exponents)
    mul[np.ix_(p, p)], inv[p], expo[np.ix_(p, p)] = p[G.mul], p[G.inv], alpha.exponents
    labels = np.empty(8, dtype=object)
    labels[p] = G.labels
    H = td.FiniteGroup(order=8, mul=mul, inv=inv, labels=tuple(labels), identity=3)
    return H, td.Cocycle(H, alpha.order, expo)


class TestParentIdentityNotAtZero:
    """Subgroups of a group whose identity is not index 0 number their
    elements from the parent's identity, so the pipeline gives what it
    gives on the canonical copy."""

    @pytest.mark.parametrize("gens", [[1], [2]], ids=["A=<a>", "A=<a^2>"])
    def test_point_decomposition_equals_canonical(self, d8, alpha4, gens):
        H, alpha = d8_identity_at_3()
        A = td.subgroup_closure(d8, gens)
        canonical = td.verify_point_decomposition(d8, A, alpha4, seed=0)
        moved = td.SubgroupHandle(H, tuple(IDENTITY_AT_3[list(A.elements)].tolist()))
        rep = td.verify_point_decomposition(H, moved, alpha, seed=0)
        assert rep.rank_lhs == canonical.rank_lhs
        assert rep.rank_rhs == canonical.rank_rhs
        assert rep.matching == canonical.matching

    @pytest.mark.parametrize("twisted", [False, True])
    def test_dimensions_are_read_at_the_identity(self, twisted):
        """The sort key, AlphaCharacter.dim and the fingerprint prefix read index 3."""
        H, alpha = d8_identity_at_3()
        dims = (2, 2) if twisted else (1, 1, 1, 1, 2)
        table = td.irreducibles(H, alpha if twisted else td.trivial_cocycle(H))
        assert table.dims == dims
        assert [c.dim for c in table.characters] == list(dims)
        entries = report.irr_table_payload(table)["irreducibles"]
        assert [e["fingerprint"].split("|")[0] for e in entries] == [f"d{d}" for d in dims]
        assert [e["dim"] for e in entries] == list(dims)


def dihedral_configurations(ns):
    """(G, A, alpha) for dihedral(n), n in ns, under the trivial cocycle and,
    for even n, dihedral_alpha(n), with every normal A."""
    for n in ns:
        G = td.dihedral(n)
        cocycles = [td.trivial_cocycle(G)] + ([td.dihedral_alpha(n)] if n % 2 == 0 else [])
        for alpha in cocycles:
            for A in normal_subgroups(G):
                yield G, A, alpha


def coboundary_twist(alpha, seed):
    """alpha times the coboundary of a random normalized f: G -> mu_4K, a cocycle
    of the same class whose values on A and on the section are no longer 1."""
    G = alpha.group
    f = np.random.default_rng(seed).integers(0, 4 * alpha.order, G.order)
    f[G.identity] = 0
    expo = 4 * alpha.exponents + f[:, None] + f[None, :] - f[G.mul]
    return td.make_cocycle(G, 4 * alpha.order, expo)


def hom_character_pairs(G, A, alpha):
    """(chi_Hom from _hom_weights, character of hom_rep or None) per (W, orbit datum)."""
    rep = td.verify_point_decomposition(G, A, alpha, seed=0)
    for datum in rep.orbits:
        elements, weights = decomposition._hom_weights(datum, alpha)
        for wi, W in enumerate(rep.irr_g.irreducibles):
            chi_hom = np.sum(rep.irr_g.character_values[wi][elements] * weights, axis=1)
            if rep.multiplicities[wi][datum.representative] == 0:
                yield chi_hom, None
                continue
            w_gt = restrict_rep(W, datum.isotropy, datum.alpha_gt)
            yield chi_hom, td.character(hom_rep(w_gt, datum)).values


class TestHomCharacters:
    """The Hom-fiber character from orthogonality against the explicit hom_rep route;
    where W does not touch the orbit, the character is 0."""

    def test_equals_character_of_hom_rep(self):
        tol = td.default_tolerances().char
        touched = untouched = 0
        for G, A, alpha in dihedral_configurations(range(1, 13)):
            for chi_hom, want in hom_character_pairs(G, A, alpha):
                if want is None:
                    assert np.max(np.abs(chi_hom)) <= tol
                    untouched += 1
                else:
                    assert np.max(np.abs(chi_hom - want)) <= tol
                    touched += 1
        assert (touched, untouched) == (518, 1167)

    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_equals_character_of_hom_rep_under_a_coboundary_twist(self, n):
        tol = td.default_tolerances().char
        for G, A, alpha in dihedral_configurations([n]):
            for chi_hom, want in hom_character_pairs(G, A, coboundary_twist(alpha, n)):
                assert np.max(np.abs(chi_hom - (0 if want is None else want))) <= tol

    def test_a_fiber_matching_no_single_class_fails(self, d8, alpha4, a_center, monkeypatch):
        """A Hom character with no class (here 0) is refused by the unit-vector check."""
        real = decomposition._hom_weights

        def no_fiber(datum, alpha):
            elements, weights = real(datum, alpha)
            return elements, np.zeros_like(weights)

        monkeypatch.setattr(decomposition, "_hom_weights", no_fiber)
        with pytest.raises(MatchFailure, match="no single beta-class"):
            td.verify_point_decomposition(d8, a_center, alpha4, seed=0)

    def test_hom_dimension_is_checked_against_the_representative(self, d8, alpha4, a_cyclic,
                                                                monkeypatch):
        """chi_Hom(1) must be the multiplicity of the orbit representative: a datum
        naming the other orbit's representative is refused."""
        real = decomposition.orbit_data

        def swapped(*args, **kwargs):
            data = real(*args, **kwargs)
            data[0].representative, data[1].representative = (data[1].representative,
                                                               data[0].representative)
            return data

        monkeypatch.setattr(decomposition, "orbit_data", swapped)
        with pytest.raises(MatchFailure, match="Hom dimension"):
            td.verify_point_decomposition(d8, a_cyclic, alpha4, seed=0)


class TestPhaseRobustness:
    """Changing the phase convention of the M family moves beta by a
    coboundary and leaves all cohomology-level outputs unchanged."""

    @pytest.mark.parametrize("case", ["a", "center"])
    def test_beta_moves_by_explicit_coboundary(self, d8, alpha4, case, a_cyclic, a_center):
        A = a_cyclic if case == "a" else a_center
        action = td.action_table(d8, A, alpha4, seed=0)
        base = td.orbit_data(action, alpha4, phase_seed=None)
        moved = td.orbit_data(action, alpha4, phase_seed=11)
        for da, db in zip(base, moved):
            nq = da.q_group.order
            u = np.array([
                complex(np.mean(np.diagonal(db.M[q] @ np.linalg.inv(da.M[q]))))
                for q in range(nq)
            ])
            assert np.allclose(np.abs(u), 1, atol=1e-9)
            Q = da.q_group
            delta = np.array([
                [u[q1] ** -1 * u[q2] ** -1 * u[Q.multiply(q1, q2)] for q2 in range(nq)]
                for q1 in range(nq)
            ])
            assert np.allclose(db.beta.table, da.beta.table * delta, atol=1e-8)

    @pytest.mark.parametrize("n, gens", [(4, [2, 4]), (8, [2, 8]), (12, [2, 13])],
                             ids=["D8 <a^2,b>", "D16 <a^2,b>", "D24 <a^2,ab>"])
    def test_beta_and_matching_independent_of_seed(self, n, gens):
        """The M_q phase is fixed by basis-free traces, so a new basis of tau
        (another seed) leaves beta, the beta classes and the matching alone."""
        G, alpha = td.dihedral(n), td.dihedral_alpha(n)
        A = td.subgroup_closure(G, gens)
        reports = [td.verify_point_decomposition(G, A, alpha, seed=s) for s in (0, 1)]
        taus = [[d.tau for d in r.orbits] for r in reports]
        assert any(t0.dim == 2 and not np.allclose(t0.matrices, t1.matrices)
                   for t0, t1 in zip(*taus))
        assert len(reports[0].orbits) == len(reports[1].orbits)
        for d0, d1 in zip(reports[0].orbits, reports[1].orbits):
            assert np.max(np.abs(d0.beta.table - d1.beta.table)) <= td.default_tolerances().cocycle
        payloads = [decomposition_payload(r) for r in reports]
        for key in ("orbits", "matching"):
            assert payloads[0][key] == payloads[1][key]

    def test_matching_invariant_across_conventions(self, d8, alpha4, a_center):
        reports = {
            s: td.verify_point_decomposition(d8, a_center, alpha4, seed=0, phase_seed=s)
            for s in (None, 1, 2)
        }
        base = reports[None]
        for s in (1, 2):
            other = reports[s]
            # same orbit assignment and bijectivity
            assert [m[0] for m in other.matching] == [m[0] for m in base.matching]
            assert len(set(other.matching)) == len(other.matching)
            # same beta-class dimension profile
            assert [t.dims for t in other.beta_tables] == [t.dims for t in base.beta_tables]
            # matched characters correspond under the twist cochain u
            for oi in range(len(base.orbits)):
                nq = base.orbits[oi].q_group.order
                u = np.array([
                    complex(np.mean(np.diagonal(
                        other.orbits[oi].M[q] @ np.linalg.inv(base.orbits[oi].M[q])
                    )))
                    for q in range(nq)
                ])
                for wi in range(len(base.irr_g)):
                    if base.matching[wi][0] != oi:
                        continue
                    cb = base.beta_tables[oi].characters[base.matching[wi][1]].values
                    co = other.beta_tables[oi].characters[other.matching[wi][1]].values
                    assert np.allclose(co, cb / u, atol=1e-8)


def reference_fingerprint(chi):
    """The fingerprint string of one character, built from AlphaCharacter.fingerprint."""
    return f"d{chi.dim}|" + ";".join(f"{re:.9f},{im:.9f}" for re, im in chi.fingerprint(9))


class TestReportFingerprints:
    def test_each_row_as_one_character_would_give(self, d8, alpha4, a_center):
        rep = td.verify_point_decomposition(d8, a_center, alpha4, seed=0)
        rng = np.random.default_rng(0)
        awkward = np.array([[2.0, -0.0, -1e-12 + 0.5e-9j, 0.1234567885, -0.0000000005 - 0.0j,
                             1 / 3, rng.standard_normal() + 1j * rng.standard_normal(), -1.0]])
        for values in (rep.irr_g.character_values, rep.action.base.character_values,
                       *(t.character_values for t in rep.beta_tables), awkward):
            want = [reference_fingerprint(td.AlphaCharacter(v, d8.identity)) for v in values]
            assert report._fingerprints(values, d8.identity) == want

    def test_one_rounding_pass_per_table(self, monkeypatch, d8, alpha4, a_cyclic):
        rep = td.verify_point_decomposition(d8, a_cyclic, alpha4, seed=0)
        want = decomposition_payload(rep)
        calls = []
        honest = report._rounded

        def counted(parts, digits):
            calls.append(parts.shape)
            return honest(parts, digits)

        monkeypatch.setattr(report, "_rounded", counted)
        assert decomposition_payload(rep) == want
        # irr_g, irr_a and each beta table once, and each beta by matrix_pairs
        assert len(calls) == 2 + 2 * len(rep.beta_tables)
