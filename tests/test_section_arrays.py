"""The section quantities of an orbit datum, gathered as whole arrays, against
the per-pair and per-element formulas of tests/oracles.py."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

import twistdecomp as td
from twistdecomp import cocycles, reps
from twistdecomp.cocycles import _certified_tables, _lattice_exponents, _tau_exponents
from twistdecomp.errors import (
    DecompositionFailure,
    InputError,
    InvalidCocycle,
    NotScalar,
    NotUnimodular,
)
from twistdecomp.groups import normal_subgroups

from oracles import (
    act,
    chi_by_pair,
    hom_rep,
    induced_table_by_pair,
    reconstructed_by_element,
    restrict_rep,
    tau_exponents_by_pair,
)
from test_action_table import c2_x_d8_alpha
from test_decomposition import coboundary_twist, dihedral_configurations, isotypic_character
from test_reps import alternating, quaternion, symmetric

BETA_ATOL = 1e-14


def cocycles_on(G, alpha=None):
    """The trivial cocycle, alpha when given, and a coboundary twist of the last,
    whose values on the section are no longer 1."""
    found = [td.trivial_cocycle(G)] + ([alpha] if alpha is not None else [])
    return found + [coboundary_twist(found[-1], G.order)]


SECTION_GROUPS = {
    "S4": lambda: cocycles_on(symmetric(4)),
    "A4": lambda: cocycles_on(alternating(4)),
    "Q8": lambda: cocycles_on(quaternion(8)),
    "C2xD8": lambda: cocycles_on(*c2_x_d8_alpha()),
    **{f"D{2 * n}": (lambda n=n: cocycles_on(td.dihedral(n),
                                             td.dihedral_alpha(n) if n % 2 == 0 else None))
       for n in range(1, 13)},
}


def s4_x_d8_alpha():
    """S_4 x D_8 under dihedral_alpha(4) pulled back from the D_8 factor."""
    G = td.direct_product(symmetric(4), td.dihedral(4))
    to_d8 = np.arange(G.order) % 8
    return G, td.make_cocycle(G, 4, td.dihedral_alpha(4).exponents[np.ix_(to_d8, to_d8)])


def beta_configurations():
    """(name, G, A, alpha) with tau of dimension 1 to 6: dihedral(n), n <= 12, under
    both cocycles; S_4 under the trivial cocycle (A_4 has a 3-dimensional tau); and
    S_4 x D_8 under the pulled-back cocycle, every normal A of order >= 4 (|Q| <= 48)."""
    for G, A, alpha in dihedral_configurations(range(1, 13)):
        yield f"D{G.order} K={alpha.order} A={A.elements}", G, A, alpha
    s4 = symmetric(4)
    for A in normal_subgroups(s4):
        yield f"S4 A={A.elements}", s4, A, td.trivial_cocycle(s4)
    G, alpha = s4_x_d8_alpha()
    for A in normal_subgroups(G):
        if A.order >= 4:
            yield f"S4xD8 |A|={A.order} A={A.elements[:6]}", G, A, alpha


def point_configurations():
    """beta_configurations and the further point configurations of tools/parity.py:
    C_2 x D_8, every normal subgroup of S_4 x D_8, and dihedral(24) and dihedral(64)
    under dihedral_alpha with A = <a> and <a^2>."""
    yield from beta_configurations()
    G, alpha = c2_x_d8_alpha()
    for A in normal_subgroups(G):
        yield f"C2xD8 A={A.elements}", G, A, alpha
    G, alpha = s4_x_d8_alpha()
    for A in normal_subgroups(G):
        if A.order < 4:
            yield f"S4xD8 |A|={A.order} A={A.elements}", G, A, alpha
    for n in (24, 64):
        for gen in (1, 2):
            G = td.dihedral(n)
            yield f"D{2 * n} A=<a^{gen}>", G, td.subgroup_closure(G, [gen]), td.dihedral_alpha(n)


def m_by_section(datum, alpha, A, tol):
    """M(q) = intertwiner(tau, sigma(q).tau) from act, one q at a time."""
    out = [np.eye(datum.tau.dim, dtype=np.complex128)]
    for q in range(1, datum.q_group.order):
        moved = act(alpha, A, int(datum.sections[q]), datum.tau)
        out.append(td.intertwiner(datum.tau, moved, tol))
    return np.stack(out)


class TestSectionTables:
    @pytest.mark.parametrize("name", sorted(SECTION_GROUPS))
    def test_chi_and_tau_tables_equal_the_pair_formulas(self, name):
        for alpha in SECTION_GROUPS[name]():
            for A in normal_subgroups(alpha.group):
                qs = td.quotient_with_section(alpha.group, A)
                table, expo = qs._chi_table, _tau_exponents(alpha, qs)
                assert not table.flags.writeable
                n = qs.quotient.order
                assert table.shape == expo.shape == (n, n)
                for q1, q2 in itertools.product(range(n), repeat=2):
                    c = chi_by_pair(qs, q1, q2)
                    assert A.contains(c)
                    assert table[q1, q2] == td.chi(qs, q1, q2) == c
                    direct, expanded = tau_exponents_by_pair(alpha, qs, q1, q2)
                    assert direct == expanded == expo[q1, q2]
                    assert td.tau_scalar(alpha, qs, q1, q2) == td.UnitScalar(direct, alpha.order)

    def test_a_broken_section_raises_at_every_pair(self, d8):
        """The chi table is checked whole on first use, so a pair whose own value
        lies in the subgroup raises too."""
        qs = td.quotient_with_section(d8, td.subgroup_closure(d8, [2]))
        broken = dataclasses.replace(qs, section=(0, 4, 4, 5))
        assert chi_by_pair(broken, 0, 0) == 0                # in the subgroup on its own
        for q1, q2 in ((0, 0), (1, 2)):
            with pytest.raises(DecompositionFailure, match="chi value left the subgroup"):
                td.chi(broken, q1, q2)

    def test_a_corrupted_cocycle_raises_at_every_pair(self, d8, alpha4):
        qs = td.quotient_with_section(d8, td.subgroup_closure(d8, [2]))
        expo = np.array(alpha4.exponents)
        expo[1, 3] += 1
        corrupted = td.Cocycle(group=d8, order=4, exponents=expo)
        for q1, q2 in ((0, 0), (3, 3)):
            with pytest.raises(InvalidCocycle, match="tau formulas disagree"):
                td.tau_scalar(corrupted, qs, q1, q2)

    def test_tau_scalar_needs_the_parent_group(self, d8, alpha4):
        qs = td.quotient_with_section(td.dihedral(3), td.subgroup_closure(td.dihedral(3), [1]))
        with pytest.raises(InputError):
            td.tau_scalar(alpha4, qs, 0, 0)


class TestOrbitDataArrays:
    def test_beta_and_m_against_the_pair_route(self):
        """beta is within 1e-14 of the per-pair loop, and M equals, bit for bit, the
        intertwiners of act(sigma(q), tau) one q at a time, times the phase_seed
        draws in orbit order when a phase_seed is given."""
        tol = td.default_tolerances()
        dims = set()
        for name, G, A, alpha in beta_configurations():
            action = td.action_table(G, A, alpha)
            plain = td.orbit_data(action, alpha)
            draws = np.random.default_rng(7)
            for datum, phased in zip(plain, td.orbit_data(action, alpha, phase_seed=7)):
                dims.add(datum.tau.dim)
                want = m_by_section(datum, alpha, A, tol)
                assert np.array_equal(datum.M, want), name
                z = [1] + [np.exp(2j * np.pi * draws.random()) for _ in want[1:]]
                assert np.array_equal(phased.M, np.reshape(z, (-1, 1, 1)) * want), name
                for d in (datum, phased):
                    err = np.max(np.abs(d.beta.table - induced_table_by_pair(d, tol)))
                    assert err <= BETA_ATOL, (name, err)
                assert np.array_equal(datum.sections,
                                      [datum.gt_map[s] for s in datum.quotient.section])
        assert dims == {1, 2, 3, 4, 6}

    @pytest.mark.parametrize("phase_seed", [None, 3])
    def test_reconstruction_is_the_isotypic_part(self, phase_seed):
        """V_tau (x) Hom, rebuilt on the sections and M of orbit_data, has the character
        of W's tau-isotypic part on every orbit that W touches."""
        configs = [(G, A, alpha) for G, A, alpha in dihedral_configurations([4, 6, 8])]
        s4 = symmetric(4)
        configs += [(s4, A, td.trivial_cocycle(s4)) for A in normal_subgroups(s4)]
        checked = 0
        for G, A, alpha in configs:
            rep = td.verify_point_decomposition(G, A, alpha, phase_seed=phase_seed)
            for datum in rep.orbits:
                for wi, W in enumerate(rep.irr_g.irreducibles):
                    if rep.multiplicities[wi][datum.representative] == 0:
                        continue
                    w_gt = restrict_rep(W, datum.isotropy, datum.alpha_gt)
                    rec = reconstructed_by_element(datum, hom_rep(w_gt, datum))
                    err = np.max(np.abs(td.character(rec).values
                                        - isotypic_character(datum, w_gt)))
                    assert err <= 1e-8, err
                    checked += 1
        assert checked > 50


class TestInducedCocycleFailures:
    """Errors of induced_cocycle on a patched M name the first failing pair in
    row-major order, NotScalar first within a pair, as the per-pair loop does."""

    @pytest.fixture(scope="class")
    def orbit(self):
        """The first orbit of S_4 x D_8 over A = 1 x D_8 (|Q| = 24, dim tau = 2), and alpha."""
        G, alpha = s4_x_d8_alpha()
        A = td.subgroup_closure(G, [1, 4])
        assert A.order == 8
        datum = td.orbit_data(td.action_table(G, A, alpha), alpha)[0]
        assert (datum.q_group.order, datum.tau.dim) == (24, 2)
        return datum, alpha

    def first_failure(self, orbit, error, breaks) -> tuple[int, int]:
        """The pair that both the per-pair loop and induced_cocycle name, on M(q)
        replaced by M(q) @ X for each (q, X) in breaks."""
        datum, alpha = orbit
        M = np.array(datum.M)
        for q, X in breaks:
            M[q] = M[q] @ X
        broken = dataclasses.replace(datum, M=M)
        tol = td.default_tolerances()
        with pytest.raises(error) as want:
            induced_table_by_pair(broken, tol)
        with pytest.raises(error) as got:
            td.induced_cocycle(broken, alpha, tol)
        assert str(got.value) == str(want.value)
        return tuple(map(int, re.search(r"at \((\d+),(\d+)\)", str(got.value)).groups()))

    def test_not_unimodular(self, orbit):
        breaks = [(9, 2 * np.eye(2)), (5, 1.5 * np.eye(2))]
        assert self.first_failure(orbit, NotUnimodular, breaks) == (0, 5)

    def test_not_scalar_past_the_first_row(self, orbit):
        # M(7) U still intertwines up to U, so row and column 0 stay scalar
        c, s = np.cos(0.3), np.sin(0.3)
        q1, q2 = self.first_failure(orbit, NotScalar, [(7, np.array([[c, -s], [s, c]]))])
        assert q1 > 0 and q2 > 0

    def test_not_scalar_comes_first_within_a_pair(self, orbit):
        # at (0, 4) the product M(4)^-1 M(4) becomes diag(4, 1): neither scalar nor unit
        breaks = [(4, np.diag([2.0, 1.0])), (9, 2 * np.eye(2))]
        assert self.first_failure(orbit, NotScalar, breaks) == (0, 4)


def basis_changed(rep, rng):
    """U^H rep U for a random unitary U: an isomorphic copy of rep."""
    d = rep.dim
    U, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return td.ProjectiveRep(rep.group, rep.cocycle, d, np.conj(U.T) @ rep.matrices @ U)


@pytest.fixture
def numeric_checks(monkeypatch):
    """The order of the group of every table that takes make_numeric_cocycle."""
    calls = []
    honest = cocycles.make_numeric_cocycle

    def counted(group, table, tol=None):
        calls.append(group.order)
        return honest(group, table, tol)

    monkeypatch.setattr(cocycles, "make_numeric_cocycle", counted)
    return calls


class TestLatticeCertificate:
    def test_every_point_configuration_is_certified_on_the_lattice(self, numeric_checks):
        """Without phase_seed every beta is exp(2 pi i e / N) exactly, N = lcm(K, 2 d |A|);
        with it, every beta of a nontrivial quotient takes the numeric check."""
        orbits = phased = 0
        for name, G, A, alpha in point_configurations():
            action = td.action_table(G, A, alpha)
            for datum in td.orbit_data(action, alpha):
                N = math.lcm(alpha.order, 2 * datum.tau.dim * A.order)
                lattice = np.exp(2j * np.pi * _lattice_exponents(datum.beta.table, N) / N)
                assert np.array_equal(datum.beta.table, lattice), name
                orbits += 1
            assert len(numeric_checks) == phased, name
            data = td.orbit_data(action, alpha, phase_seed=5)
            phased += sum(datum.q_group.order > 1 for datum in data)
            assert len(numeric_checks) == phased, name
        assert (orbits, phased) == (517, 283)

    def test_betas_have_the_same_bits_at_every_seed(self):
        """The seed changes tau's basis and so the rounding of the induced product,
        but not the lattice point: equal betas share one memo digest."""
        orbits = 0
        for n in (4, 6, 8, 12, 24):
            G, alpha = td.dihedral(n), td.dihedral_alpha(n)
            for A in normal_subgroups(G):
                pairs = zip(*(td.orbit_data(td.action_table(G, A, alpha, seed=seed), alpha)
                              for seed in (0, 1)))
                for one, other in pairs:
                    assert one.beta._content == other.beta._content, (n, A.elements)
                    orbits += 1
        assert orbits == 120

    @pytest.fixture
    def d8_beta(self, d8, alpha4):
        """The beta of D_8 over A = 1 (Q = D_8), its lattice order and tolerances."""
        datum = td.orbit_data(td.action_table(d8, td.subgroup_closure(d8, []), alpha4), alpha4)[0]
        return datum.beta, math.lcm(alpha4.order, 2), td.default_tolerances()

    def test_off_the_lattice_within_tolerance_takes_the_numeric_check(self, d8_beta,
                                                                        numeric_checks):
        beta, N, tol = d8_beta
        eps = min(tol.unitary, tol.cocycle / 5)
        table = np.array(beta.table)
        table[1, 1] *= np.exp(2j * eps)
        [certified] = _certified_tables(beta.group, table[None], N, tol)
        assert numeric_checks == [8]
        assert np.array_equal(certified.table, table)
        assert not np.array_equal(_certified_tables(beta.group, beta.table[None], N, tol)[0].table,
                                  table)
        assert numeric_checks == [8]

    def test_off_the_lattice_beyond_tolerance_raises(self, d8_beta, numeric_checks):
        beta, N, tol = d8_beta
        table = np.array(beta.table)
        table[1, 1] *= np.exp(2j * tol.cocycle)
        with pytest.raises(InvalidCocycle, match="not a 2-cocycle within tolerance"):
            _certified_tables(beta.group, table[None], N, tol)
        assert numeric_checks == [8]


class TestBatchedIntertwiners:
    def test_one_call_equals_intertwiner_pair_by_pair(self):
        """For each configuration and tau dimension d, one _intertwiners call over
        every pair (tau, act(sigma(q), tau)), q != 1, of every orbit of that d, and
        of a copy of the first tau in another basis, gives, bit for bit, the M of
        intertwiner on each pair. Only S_4 x D_8 has a 4-dimensional tau, in one
        orbit; the basis-changed copy stacks a second one beside it."""
        tol = td.default_tolerances()
        rng = np.random.default_rng(0)
        dims, several = set(), set()
        for name, G, A, alpha in beta_configurations():
            by_dim = {}
            for datum in td.orbit_data(td.action_table(G, A, alpha), alpha):
                by_dim.setdefault(datum.tau.dim, []).append(datum)
            for d, data in by_dim.items():
                pairs = [(j, act(alpha, A, int(datum.sections[q]), datum.tau))
                         for j, datum in enumerate(data) for q in range(1, datum.q_group.order)]
                if not pairs:
                    continue
                taus = [datum.tau for datum in data] + [basis_changed(data[0].tau, rng)]
                pairs += [(len(data), moved) for j, moved in pairs if j == 0]
                X = np.stack([tau.matrices for tau in taus])
                Y = np.stack([moved.matrices for _, moved in pairs])
                source = np.array([j for j, _ in pairs])
                pairing, M = reps._intertwiners(taus[0].group, X, Y, source, tol)
                assert np.array_equal(pairing, np.ones(len(pairs))), name
                for p, (j, moved) in enumerate(pairs):
                    assert np.array_equal(M[p], td.intertwiner(taus[j], moved, tol)), name
                if len(data) > 1:
                    several.add(d)
                dims.add(d)
        assert dims == {1, 2, 3, 4, 6} and several == {1, 2, 3, 6}
