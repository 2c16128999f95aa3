"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single CRITERION line so a -s run reads as a checklist.
"""

import numpy as np

import twistdecomp as td
from twistdecomp.cli import main
from twistdecomp.decomposition import action_table
from twistdecomp.groups import normal_subgroups, quotient_with_section
from twistdecomp.kgroups import (
    all_subgroups,
    pullback_to_group,
    random_cover,
    random_gset,
)

from oracles import classical_dims, coboundary_cochain_brute

CHAR_TOL = 1e-6
COCYCLE_TOL = 1e-8


def _ok(name):
    print(f"CRITERION {name}: PASS")


def explicit_tau_characters(n):
    """Characters of the explicit 2-dim family tau_i(a^k b^l) = A_i^k B_i^l."""
    eps = np.exp(2j * np.pi / n)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    chars = []
    for i in range(1, n // 2 + 1):
        ai = np.diag([eps**i, eps ** (1 - i)])
        values = [
            np.trace(np.linalg.matrix_power(ai, k) @ np.linalg.matrix_power(swap, l))
            for l in (0, 1)
            for k in range(n)
        ]
        chars.append(np.array(values))
    return chars


def char_index(table, values, tol=CHAR_TOL):
    hits = [
        i for i, c in enumerate(table.characters)
        if np.max(np.abs(c.values - values)) <= tol
    ]
    assert len(hits) == 1, f"expected exactly one match, got {hits}"
    return hits[0]


def test_criterion_1_explicit_family():
    """n/2 irreducibles of dim 2 whose characters match the explicit matrices."""
    for n in (2, 4, 6, 8, 10):
        G = td.dihedral(n)
        table = td.irreducibles(G, td.dihedral_alpha(n), seed=0)
        assert len(table) == n // 2
        assert all(d == 2 for d in table.dims)
        assert sum(d * d for d in table.dims) == 2 * n
        matched = {char_index(table, values) for values in explicit_tau_characters(n)}
        assert matched == set(range(n // 2))
    _ok("1 (explicit dihedral family)")


def test_criterion_2_d8_rotations():
    """D8 with the rotation subgroup: orbits, isotropy, rank 2 = 1 + 1."""
    G = td.dihedral(4)
    alpha = td.dihedral_alpha(4)
    A = td.subgroup_closure(G, [1])
    rep = td.verify_point_decomposition(G, A, alpha, seed=0)
    base = rep.action.base
    rho = base.irreducibles[char_index(base, np.array([1, 1j, -1, -1j]))]
    rho2 = base.irreducibles[char_index(base, np.array([1, -1, 1, -1]))]
    moved = td.act(alpha, A, 4, rho)  # g = b
    assert np.max(np.abs(td.character(moved).values - 1)) <= CHAR_TOL
    moved2 = td.act(alpha, A, 4, rho2)
    assert np.max(np.abs(td.character(moved2).values - np.array([1, -1j, -1, 1j]))) <= CHAR_TOL
    orbit_chars = [
        frozenset(tuple(np.round(base.characters[i].values, 6)) for i in d.members)
        for d in rep.orbits
    ]
    assert set(orbit_chars) == {
        frozenset({(1, 1, 1, 1), (1, 1j, -1, -1j)}),
        frozenset({(1, -1, 1, -1), (1, -1j, -1, 1j)}),
    }
    assert all(d.isotropy.elements == A.elements for d in rep.orbits)
    assert all(d.q_group.order == 1 for d in rep.orbits)
    assert rep.rank_lhs == 2 and rep.rank_rhs == (1, 1)
    tau1 = char_index(rep.irr_g, np.array([2, 1 + 1j, 0, 1 - 1j, 0, 0, 0, 0]))
    tau2 = char_index(rep.irr_g, np.array([2, -1 - 1j, 0, -1 + 1j, 0, 0, 0, 0]))
    trivial_orbit = next(
        oi for oi, d in enumerate(rep.orbits)
        if any(np.allclose(base.characters[i].values, 1) for i in d.members)
    )
    assert rep.matching[tau1][0] == trivial_orbit
    assert rep.matching[tau2][0] != trivial_orbit
    # via the restrictions: tau_1|_A = 1 + rho, tau_2|_A = rho^2 + rho^3
    alpha_a = rep.action.alpha_a
    w1 = td.restrict_rep(rep.irr_g.irreducibles[tau1], A, alpha_a)
    mults1 = [td.multiplicity(w1, t) for t in base.irreducibles]
    assert {i for i, m in enumerate(mults1) if m} == set(rep.orbits[trivial_orbit].members)
    _ok("2 (D8 over the rotation subgroup)")


def test_criterion_3_d8_center():
    """D8 with the center: single orbit, quotient Z/2, coboundary beta, bijection."""
    G = td.dihedral(4)
    alpha = td.dihedral_alpha(4)
    A = td.subgroup_closure(G, [2])
    rep = td.verify_point_decomposition(G, A, alpha, seed=0)
    assert len(rep.orbits) == 1
    datum = rep.orbits[0]
    assert datum.isotropy.elements == (0, 1, 2, 3)
    assert datum.isotropy.order == 4
    assert datum.q_group.order == 2
    assert td.validate_numeric_cocycle(datum.beta).ok
    found = None
    for k in range(1, 9):
        found = coboundary_cochain_brute(datum.beta, k)
        if found is not None:
            break
    assert found is not None, "beta must split on a lattice with K' <= 8"
    assert len(rep.beta_tables[0]) == 2
    assert sorted(m[1] for m in rep.matching) == [0, 1]
    assert rep.matching[0][0] == rep.matching[1][0] == 0
    _ok("3 (D8 over the center)")


def test_criterion_4_family_orbits():
    """For each even n: n/2 orbits of size 2, trivial quotients, rank n/2."""
    for n in (2, 4, 6, 8, 10):
        G = td.dihedral(n)
        A = td.subgroup_closure(G, [1])
        rep = td.verify_point_decomposition(G, A, td.dihedral_alpha(n), seed=0)
        assert len(rep.orbits) == n // 2
        assert all(len(d.members) == 2 for d in rep.orbits)
        assert all(d.q_group.order == 1 for d in rep.orbits)
        assert rep.rank_lhs == n // 2
        assert rep.rank_rhs == tuple([1] * (n // 2))
    _ok("4 (dihedral family orbit structure)")


def _phase_convention_cases():
    for n, gens in [(4, [1]), (4, [2]), (2, [1]), (6, [1]), (8, [1])]:
        G = td.dihedral(n)
        yield G, td.subgroup_closure(G, gens), td.dihedral_alpha(n)


def test_criterion_5_beta_cocycle_suite():
    """Every induced beta is a normalized 2-cocycle within 1e-8 under three
    phase conventions, and the matching is the same bijection throughout."""
    tol = td.default_tolerances().replace(cocycle=COCYCLE_TOL)
    conventions = (None, 101, 202)
    for G, A, alpha in _phase_convention_cases():
        reports = {
            s: td.verify_point_decomposition(G, A, alpha, seed=0, phase_seed=s, tol=tol)
            for s in conventions
        }
        for s, rep in reports.items():
            for datum in rep.orbits:
                check = td.validate_numeric_cocycle(datum.beta, tol)
                assert check.ok, f"beta violates the cocycle identity under {s}"
        base = reports[None]
        for s in conventions[1:]:
            other = reports[s]
            assert [m[0] for m in other.matching] == [m[0] for m in base.matching]
            assert len(set(other.matching)) == len(other.matching)
            assert [t.dims for t in other.beta_tables] == [t.dims for t in base.beta_tables]
            for oi, (d_base, d_other) in enumerate(zip(base.orbits, other.orbits)):
                nq = d_base.q_group.order
                u = np.array([
                    complex(np.mean(np.diagonal(
                        d_other.M[q] @ np.linalg.inv(d_base.M[q])
                    )))
                    for q in range(nq)
                ])
                for wi in range(len(base.irr_g)):
                    if base.matching[wi][0] != oi:
                        continue
                    cb = base.beta_tables[oi].characters[base.matching[wi][1]].values
                    co = other.beta_tables[oi].characters[other.matching[wi][1]].values
                    assert np.max(np.abs(co - cb / u)) <= CHAR_TOL
    _ok("5 (beta cocycle identity + convention-independent matching)")


def _semisimplicity_matrix():
    for n in range(1, 13):
        G = td.dihedral(n)
        yield G, td.trivial_cocycle(G), True
        if n % 2 == 0 and n >= 2:
            yield G, td.dihedral_alpha(n), False
    for n in range(1, 13):
        G = td.cyclic(n)
        yield G, td.trivial_cocycle(G), True


def test_criterion_6_semisimplicity_oracle():
    """Sum of squared dims equals |G| exactly; trivial-cocycle dimension
    multisets match the independent class-sum character table oracle."""
    for G, alpha, is_trivial in _semisimplicity_matrix():
        table = td.irreducibles(G, alpha, seed=0)
        assert sum(d * d for d in table.dims) == G.order
        if is_trivial:
            assert sorted(table.dims) == classical_dims(G)
    _ok("6 (semisimplicity + classical oracle)")


def test_criterion_7_clifford_single_orbit():
    """Every irreducible restricts inside one orbit with uniform multiplicity."""
    checked = 0
    for G, alpha, _ in _semisimplicity_matrix():
        irr_g = td.irreducibles(G, alpha, seed=0)
        for A in normal_subgroups(G, max_order=8):
            action = action_table(G, A, alpha, seed=0)
            orbit_of = {}
            for oi, orbit in enumerate(action.orbits()):
                for m in orbit:
                    orbit_of[m] = oi
            for W in irr_g.irreducibles:
                w_a = td.restrict_rep(W, A, action.alpha_a)
                mults = [td.multiplicity(w_a, t) for t in action.base.irreducibles]
                support = {orbit_of[i] for i, m in enumerate(mults) if m > 0}
                assert len(support) == 1
                orbit = action.orbits()[support.pop()]
                assert len({mults[i] for i in orbit}) == 1
            checked += 1
    assert checked >= 50
    _ok(f"7 (Clifford single-orbit, {checked} (group, cocycle, subgroup) cases)")


def test_criterion_8_gsets_and_functoriality():
    """50 random A-trivial G-sets verify the rank identity; 20 random
    two-map chains verify contravariant functoriality of the pullback."""
    configs = list(_phase_convention_cases())
    rng = np.random.default_rng(2024)
    for case in range(50):
        G, A, alpha = configs[case % len(configs)]
        qs = quotient_with_section(G, A)
        xq = random_gset(qs.quotient, 6, rng)
        x = pullback_to_group(xq, G, qs.projection)
        report = td.verify_gset_decomposition(G, A, alpha, x, seed=0)
        assert report.ok

    for case in range(20):
        G, A, alpha = configs[case % len(configs)]
        qs = quotient_with_section(G, A)
        subs = all_subgroups(qs.quotient)
        zq = random_gset(qs.quotient, 4, rng, subs)
        yq, f2 = random_cover(zq, rng, subs)
        xq, f1 = random_cover(yq, rng, subs)
        x = pullback_to_group(xq, G, qs.projection)
        y = pullback_to_group(yq, G, qs.projection)
        z = pullback_to_group(zq, G, qs.projection)
        m1 = td.pullback_matrix(G, alpha, f1, x, y, seed=0)
        m2 = td.pullback_matrix(G, alpha, f2, y, z, seed=0)
        composite = [f2[f1[p]] for p in range(x.size)]
        mc = td.pullback_matrix(G, alpha, composite, x, z, seed=0)
        assert np.array_equal(mc, m1 @ m2)
    _ok("8 (50 G-set decompositions + 20 functoriality chains)")


def test_criterion_9_byte_determinism(tmp_path):
    """Two identical decompose runs produce byte-identical JSON."""
    args = ["--format=json", "--seed=0", "decompose", "dihedral:4", "--A=a2",
            "dihedral_alpha:4"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _ok("9 (byte-identical JSON output)")
