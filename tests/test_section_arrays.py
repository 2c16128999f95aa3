"""The section quantities of an orbit datum, gathered as whole arrays, against
the per-pair and per-element formulas of tests/oracles.py."""

import dataclasses
import itertools
import re

import numpy as np
import pytest

import twistdecomp as td
from twistdecomp.cocycles import _tau_exponents
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
