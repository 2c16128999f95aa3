import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twistdecomp as td
from twistdecomp.cocycles import make_cocycle, validate_cocycle_table
from twistdecomp.errors import InputError, InvalidCocycle, OddN
from twistdecomp.groups import all_subgroups, generating_set, trivial_subgroup

from oracles import (
    COBOUNDARY_SPACE_CAP,
    UnitScalar,
    central_extension,
    coboundary_cochain,
    coboundary_cochain_brute,
    cocycle_violations,
    numeric_from_exact,
    scalar,
    snap_to_lattice,
    tau_scalar,
)
from test_decomposition import dihedral_configurations
from test_reps import symmetric


class TestUnitScalar:
    def test_multiplication_rescales(self):
        a = UnitScalar(1, 2)   # -1
        b = UnitScalar(1, 4)   # i
        c = a * b
        assert (c.exponent, c.order) == (3, 4)

    def test_inverse(self):
        u = UnitScalar(3, 8)
        v = u * u.inverse()
        assert v.exponent == 0

    def test_value(self):
        assert UnitScalar(2, 4).value() == pytest.approx(-1)


class TestValidateCocycle:
    def test_trivial_valid(self, d8):
        assert td.validate_cocycle(td.trivial_cocycle(d8)).ok

    def test_dihedral_alpha_valid(self, alpha4):
        assert td.validate_cocycle(alpha4).ok

    def test_single_perturbation_invalid(self, d8, alpha4):
        expo = np.array(alpha4.exponents)
        expo[5, 3] = (expo[5, 3] + 1) % 4
        report = validate_cocycle_table(d8, 4, expo)
        assert not report.ok

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 7), st.integers(0, 7))
    def test_any_single_perturbation_invalid(self, g, h):
        d8 = td.dihedral(4)
        alpha4 = td.dihedral_alpha(4)
        expo = np.array(alpha4.exponents)
        expo[g, h] = (expo[g, h] + 1) % 4
        assert not validate_cocycle_table(d8, 4, expo).ok

    def test_make_cocycle_requires_clean_report(self, d8, alpha4):
        expo = np.array(alpha4.exponents)
        expo[0, 0] = 1
        with pytest.raises(InvalidCocycle):
            make_cocycle(d8, 4, expo)


def corrupted_alpha4():
    expo = np.array(td.dihedral_alpha(4).exponents)
    expo[1, 3] += 1
    return expo


def klein_bilinear():
    """(x1, y1), (x2, y2) -> x1 y2 on Z_2 x Z_2: a cocycle mod 2, not mod 4."""
    x, y = np.divmod(np.arange(4), 2)
    return np.outer(x, y)


class TestCocycleValidation:
    @pytest.mark.parametrize("order", [0, -2])
    def test_an_order_below_one_is_rejected(self, d8, order):
        with pytest.raises(InputError, match=f"cocycle order must be positive, got {order}"):
            td.trivial_cocycle(d8, order)
        with pytest.raises(InputError):
            td.Cocycle(d8, order, np.zeros((8, 8), dtype=np.int64))

    def test_failure_raises_alike_every_time(self, d8):
        messages = []
        for _ in range(2):
            with pytest.raises(InvalidCocycle) as err:
                td.make_cocycle(d8, 4, corrupted_alpha4())
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("not a normalized 2-cocycle")

    def test_failure_after_a_pass_of_other_content(self, d8, alpha4):
        assert validate_cocycle_table(d8, 4, alpha4.exponents).ok
        assert not validate_cocycle_table(d8, 4, corrupted_alpha4()).ok

    def test_order_decides(self):
        V = td.direct_product(td.cyclic(2), td.cyclic(2))
        table = klein_bilinear()
        assert validate_cocycle_table(V, 2, table).ok
        assert not validate_cocycle_table(V, 4, table).ok
        assert validate_cocycle_table(V, 2, table).ok

    def test_identity_field_decides(self, d8, alpha4):
        assert validate_cocycle_table(d8, 4, alpha4.exponents).ok
        wrong = td.FiniteGroup(order=8, mul=d8.mul, inv=d8.inv, labels=d8.labels, identity=1)
        assert not validate_cocycle_table(wrong, 4, alpha4.exponents).ok
        assert td.validate_numeric_cocycle(numeric_from_exact(alpha4)).ok
        wrong_beta = td.NumericCocycle(wrong, alpha4.complex_table)
        assert not td.validate_numeric_cocycle(wrong_beta).ok

    def test_numeric_tolerance_decides(self, alpha4):
        table = np.array(alpha4.complex_table)
        table[5, 6] *= np.exp(1e-7j)
        beta = td.NumericCocycle(alpha4.group, table)
        loose = td.Tolerances().scaled(100.0)
        assert td.validate_numeric_cocycle(beta, loose).ok
        assert not td.validate_numeric_cocycle(beta).ok
        with pytest.raises(InvalidCocycle):
            td.make_numeric_cocycle(alpha4.group, table)

    def test_numeric_failure_raises_alike_every_time(self, alpha4):
        table = np.array(alpha4.complex_table)
        table[5, 6] *= -1
        messages = []
        for _ in range(2):
            with pytest.raises(InvalidCocycle) as err:
                td.make_numeric_cocycle(alpha4.group, table)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def cocycle_case(kind, n, seed, perturbations):
    """(group, order, exponent table) for one oracle case, with some cells moved by a random amount."""
    rng = np.random.default_rng(seed)
    if kind == "dihedral_alpha":
        alpha = td.dihedral_alpha(n)
        G, K, table = alpha.group, alpha.order, np.array(alpha.exponents)
    elif kind == "coboundary twist":
        alpha = td.dihedral_alpha(n)
        G, K = alpha.group, 4 * n
        f = rng.integers(0, K, G.order)
        f[0] = 0
        table = 4 * alpha.exponents + f[:, None] + f[None, :] - f[G.mul]
    elif kind == "klein":
        G, K, table = td.direct_product(td.cyclic(2), td.cyclic(2)), n, klein_bilinear()
    else:
        G, K = symmetric(4), n
        f = rng.integers(0, K, G.order)
        f[0] = 0
        table = f[:, None] + f[None, :] - f[G.mul]
    for _ in range(perturbations):
        g, h = rng.integers(0, G.order, 2)
        table[g, h] += rng.integers(1, K)
    return G, K, table


class TestValidateCocycleAgainstOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([("dihedral_alpha", 2), ("dihedral_alpha", 4), ("dihedral_alpha", 6),
                            ("coboundary twist", 2), ("coboundary twist", 4), ("klein", 2),
                            ("klein", 4), ("S4", 2), ("S4", 3)]),
           st.integers(0, 2 ** 32 - 1), st.integers(0, 2))
    def test_same_decision_and_real_violations(self, case, seed, perturbations):
        G, K, table = cocycle_case(*case, seed, perturbations)
        report = validate_cocycle_table(G, K, table)
        want = cocycle_violations(G, K, table)
        assert report.ok == (not want)
        assert set(report.violations) <= want
        middles = {G.identity, *generating_set(G)}
        assert all(v[2] in middles for v in report.violations if v[0] == "cocycle")
        e = G.identity       # every normalization failure, in the order of a scan over g
        scan = [v for g in range(G.order)
                for v in (("normalization", g, e), ("normalization", e, g)) if v in want]
        assert [v for v in report.violations if v[0] == "normalization"] == scan

    def test_every_normalized_table_mod_2_on_the_klein_group(self):
        # 16 of these hold the identity with the first generator as middle and fail it with the second
        V = td.direct_product(td.cyclic(2), td.cyclic(2))
        for cells in itertools.product(range(2), repeat=9):
            table = np.zeros((4, 4), dtype=np.int64)
            table[1:, 1:] = np.reshape(cells, (3, 3))
            report = validate_cocycle_table(V, 2, table)
            want = cocycle_violations(V, 2, table)
            assert report.ok == (not want)
            assert set(report.violations) <= want

    def test_products_mod_2_on_d8_with_a_wrong_identity_field(self, d8):
        # T(g, h) = chi(g) lam(h), chi a homomorphism to Z/2, is normalized at 1 when
        # lam(1) = 0, and h is a good middle exactly when lam(hk) = lam(h) + lam(k) for
        # all k (chi not zero). Some hold at 0 and at the generators grown from 1, not at 1.
        wrong = td.FiniteGroup(order=8, mul=d8.mul, inv=d8.inv, labels=d8.labels, identity=1)
        functions = np.array(list(itertools.product(range(2), repeat=8)))
        homs = [c for c in functions if not ((c[:, None] + c[None, :] - c[d8.mul]) % 2).any()]
        for chi in homs:
            for lam in functions[functions[:, 1] == 0]:
                table = np.outer(chi, lam)
                report = validate_cocycle_table(wrong, 2, table)
                want = cocycle_violations(wrong, 2, table)
                assert report.ok == (not want)
                assert set(report.violations) <= want

    def test_dihedral_alpha_at_order_512(self):
        alpha = td.dihedral_alpha(256)
        assert td.validate_cocycle(alpha).ok
        table = np.array(alpha.exponents)
        table[300, 7] += 1
        report = validate_cocycle_table(alpha.group, alpha.order, table)
        assert not report.ok
        t, mul, K = table % alpha.order, alpha.group.mul, alpha.order
        for _, g, h, k in report.violations:
            assert (t[mul[g, h], k] + t[g, h] - t[g, mul[h, k]] - t[h, k]) % K


class TestDihedralAlpha:
    def test_values_n4(self, d8, alpha4):
        # alpha(a^3 b, a^2 b) = i^2 = -1
        assert alpha4.exponents[4 + 3, 4 + 2] == 2
        assert scalar(alpha4, 4 + 3, 4 + 2).value() == pytest.approx(-1)
        # alpha(a^2, a b) = 1
        assert alpha4.exponents[2, 5] == 0

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_normalized(self, n):
        alpha = td.dihedral_alpha(n)
        assert (alpha.exponents[:, 0] == 0).all()
        assert (alpha.exponents[0, :] == 0).all()

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_odd_rejected(self, n):
        with pytest.raises(OddN):
            td.dihedral_alpha(n)


def pulled_back_product_cocycle():
    """dihedral_alpha(4) on C_2 x D_8, pulled back along the projection to D_8."""
    G = td.direct_product(td.cyclic(2), td.dihedral(4))
    to_d8 = np.arange(G.order) % 8
    return make_cocycle(G, 4, td.dihedral_alpha(4).exponents[np.ix_(to_d8, to_d8)])


RESTRICTED_COCYCLES = {
    **{f"D{2 * n}": functools.partial(td.dihedral_alpha, n) for n in range(2, 13, 2)},
    "C2xD8": pulled_back_product_cocycle,
}


class TestRestrict:
    def test_to_rotations_trivial(self, alpha4, a_cyclic):
        restricted, to_parent = td.restrict(alpha4, a_cyclic)
        assert restricted.is_trivial()
        assert to_parent == (0, 1, 2, 3)

    def test_to_center_trivial(self, alpha4, a_center):
        restricted, _ = td.restrict(alpha4, a_center)
        assert restricted.is_trivial()

    def test_to_trivial_subgroup(self, d8, alpha4):
        restricted, _ = td.restrict(alpha4, trivial_subgroup(d8))
        assert restricted.group.order == 1
        assert restricted.is_trivial()

    def test_restriction_to_reflections_nontrivial(self, d8, alpha4):
        # <a^2, b> is a Klein subgroup where alpha restricts nontrivially
        H = td.subgroup_closure(d8, [2, 4])
        restricted, _ = td.restrict(alpha4, H)
        assert not restricted.is_trivial()
        assert td.validate_cocycle(restricted).ok

    @pytest.mark.parametrize("name", RESTRICTED_COCYCLES)
    def test_every_restriction_passes_validation(self, name):
        """restrict builds its tables without the checks; a restriction of a
        2-cocycle must pass them anyway, exact and numeric alike."""
        alpha = RESTRICTED_COCYCLES[name]()
        G = alpha.group
        for H in all_subgroups(G):
            exact, to_parent = td.restrict(alpha, H)
            numeric, numeric_map = td.restrict(numeric_from_exact(alpha), H)
            block = np.ix_(to_parent, to_parent)
            assert numeric_map == to_parent
            assert exact.group is numeric.group is H.as_group()[0]
            assert np.array_equal(exact.exponents, alpha.exponents[block])
            assert np.array_equal(numeric.table, alpha.complex_table[block])
            assert validate_cocycle_table(exact.group, exact.order, exact.exponents).ok
            assert td.validate_numeric_cocycle(numeric).ok

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "numeric"])
    def test_rejects_a_handle_of_another_group(self, alpha4, exact):
        cocycle = alpha4 if exact else numeric_from_exact(alpha4)
        d12 = td.dihedral(6)
        with pytest.raises(InputError, match="does not belong"):
            td.restrict(cocycle, td.subgroup_closure(d12, [1]))


class TestCentralExtension:
    def test_trivial_k1(self):
        G = td.cyclic(2)
        ext = central_extension(G, td.trivial_cocycle(G))
        assert ext.group.order == 2

    def test_d8_alpha_order_32_center_contains_mu4(self, d8, alpha4):
        ext = central_extension(d8, alpha4)
        assert ext.group.order == 32
        z = td.center(ext.group)
        for k in range(4):
            assert ext.encode(0, k) in z.elements

    def test_trivial_k2_is_direct_product(self, d8):
        alpha = td.trivial_cocycle(d8, order=2)
        ext = central_extension(d8, alpha)
        product = td.direct_product(d8, td.cyclic(2))
        # identical tables under the shared (g, k) encoding
        assert ext.group.same_table(product)

    def test_projection_is_homomorphism_with_central_kernel(self, d8, alpha4):
        ext = central_extension(d8, alpha4)
        E, proj = ext.group, ext.projection
        for x in range(E.order):
            for y in range(E.order):
                assert proj[E.multiply(x, y)] == d8.multiply(proj[x], proj[y])
        kernel = [x for x in range(E.order) if proj[x] == 0]
        assert len(kernel) == ext.order_k
        for k in kernel:
            assert all(E.multiply(k, x) == E.multiply(x, k) for x in range(E.order))


class TestTauScalar:
    def test_normalized(self, d8, alpha4, a_cyclic):
        qs = td.quotient_with_section(d8, a_cyclic)
        for q in range(qs.quotient.order):
            assert tau_scalar(alpha4, qs, 0, q).exponent == 0
            assert tau_scalar(alpha4, qs, q, 0).exponent == 0

    def test_d8_mod_a_bb(self, d8, alpha4, a_cyclic):
        qs = td.quotient_with_section(d8, a_cyclic)
        assert tau_scalar(alpha4, qs, 1, 1).value() == pytest.approx(1)

    def test_trivial_alpha_gives_one(self, d8, a_center):
        qs = td.quotient_with_section(d8, a_center)
        alpha = td.trivial_cocycle(d8)
        for q1 in range(4):
            for q2 in range(4):
                assert tau_scalar(alpha, qs, q1, q2).exponent == 0

    def test_both_formulas_exercised_exhaustively(self, d8, alpha4):
        # the two defining expressions are asserted equal inside tau_scalar
        for A in td.normal_subgroups(d8):
            qs = td.quotient_with_section(d8, A)
            for q1 in range(qs.quotient.order):
                for q2 in range(qs.quotient.order):
                    tau_scalar(alpha4, qs, q1, q2)


class TestCoboundaryBrute:
    def test_trivial_found(self):
        beta = numeric_from_exact(td.trivial_cocycle(td.cyclic(3)))
        result = coboundary_cochain_brute(beta, 4)
        assert result is not None
        assert all(u.exponent == 0 for u in result)

    def test_z2_minus_one(self):
        Q = td.cyclic(2)
        beta = td.make_numeric_cocycle(Q, [[1, 1], [1, -1]])
        result = coboundary_cochain_brute(beta, 4)
        assert [u.exponent for u in result] == [0, 1]  # c(q) = i, first in lex order

    def test_d8_alpha_not_a_coboundary(self, alpha4):
        beta = numeric_from_exact(alpha4)
        for k in range(1, 9):
            assert coboundary_cochain_brute(beta, k) is None

    def test_search_space_cap(self, alpha4):
        beta = numeric_from_exact(alpha4)
        with pytest.raises(ValueError):
            coboundary_cochain_brute(beta, 24)
        assert coboundary_cochain(beta, 24) is None

    def test_verifies_delta(self):
        # random coboundary on Z/4 is recovered
        Q = td.cyclic(4)
        rng = np.random.default_rng(3)
        expo = rng.integers(0, 8, size=4)
        expo[0] = 0
        c = np.exp(2j * np.pi * expo / 8)
        table = np.array([
            [c[q1] * c[q2] / c[Q.multiply(q1, q2)] for q2 in range(4)]
            for q1 in range(4)
        ])
        beta = td.make_numeric_cocycle(Q, table)
        result = coboundary_cochain_brute(beta, 8)
        assert result is not None
        got = np.array([u.value() for u in result])
        delta = np.array([
            [got[q1] * got[q2] / got[Q.multiply(q1, q2)] for q2 in range(4)]
            for q1 in range(4)
        ])
        assert np.allclose(delta, table, atol=1e-8)


DIHEDRAL_NS = (2, 3, 4, 5, 6, 8, 12)


def delta(Q, c):
    """The coboundary table c(q1) c(q2) / c(q1 q2) of a cochain given by its values."""
    return c[:, None] * c[None, :] / c[Q.mul]


def cochain_values(cochain):
    return np.array([u.value() for u in cochain])


@functools.cache
def small_orbit_data():
    """(name, datum) for every orbit datum with |Q| <= 6 of dihedral(n), n in
    DIHEDRAL_NS, under both cocycles and every normal A."""
    found = []
    for G, A, alpha in dihedral_configurations(DIHEDRAL_NS):
        for datum in td.orbit_data(td.action_table(G, A, alpha, seed=0), alpha):
            if datum.q_group.order <= 6:
                found.append((f"D{G.order} K={alpha.order} A={A.elements}", datum))
    return tuple(found)


SMALL_GROUPS = {
    **{f"C{n}": (lambda n=n: td.cyclic(n)) for n in range(1, 9)},
    **{f"D{2 * n}": (lambda n=n: td.dihedral(n)) for n in range(1, 5)},
    "C2xC2": lambda: td.direct_product(td.cyclic(2), td.cyclic(2)),
    "C2xC4": lambda: td.direct_product(td.cyclic(2), td.cyclic(4)),
    "C2xC2xC2": lambda: td.direct_product(td.direct_product(td.cyclic(2), td.cyclic(2)),
                                          td.cyclic(2)),
}


class TestCoboundaryCochain:
    """oracles.coboundary_cochain reads the cochains off the 1-dimensional entries
    of the beta table; the exhaustive search of tests/oracles.py is its reference."""

    def test_z2_minus_one(self):
        beta = td.make_numeric_cocycle(td.cyclic(2), [[1, 1], [1, -1]])
        result = coboundary_cochain(beta, 4)
        assert [u.exponent for u in result] == [0, 1]  # c(q) = i, first in lex order

    def test_lattice_order_must_be_positive(self):
        beta = numeric_from_exact(td.trivial_cocycle(td.cyclic(2)))
        with pytest.raises(InputError):
            coboundary_cochain(beta, 0)

    def test_agrees_with_the_oracle_on_dihedral_orbit_data(self):
        data = small_orbit_data()
        assert len(data) == 182
        for name, datum in data:
            for k in range(1, 9):
                got = coboundary_cochain(datum.beta, k)
                assert got == coboundary_cochain_brute(datum.beta, k), (name, k)

    def test_order_two_quotients_are_coboundaries(self):
        # H^2(C_2, C^x) = 0, but beta(q, q) may need a lattice finer than mu_8:
        # 14 such data, where the search over k <= 8 finds nothing.
        missed = [(name, d) for name, d in small_orbit_data() if d.q_group.order == 2
                  and all(coboundary_cochain_brute(d.beta, k) is None for k in range(1, 9))]
        assert len(missed) == 14
        for name, datum in missed:
            Q = datum.q_group
            assert 1 in td.irreducibles(Q, datum.beta).dims, name
            c = coboundary_cochain(datum.beta, 48)
            assert c is not None, name
            assert np.all(np.abs(delta(Q, cochain_values(c)) - datum.beta.table)
                          <= td.default_tolerances().cocycle), name

    def test_d12_over_a2_b_needs_mu_12(self):
        G, alpha = td.dihedral(6), td.dihedral_alpha(6)
        A = td.subgroup_closure(G, [2, 6])             # <a^2, b>
        data = td.orbit_data(td.action_table(G, A, alpha, seed=0), alpha)
        (datum,) = [d for d in data if d.q_group.order == 2]
        Q, beta = datum.q_group, datum.beta
        assert np.isclose(beta.table[1, 1], np.exp(1j * np.pi / 3))
        assert 1 in td.irreducibles(Q, beta).dims
        c = coboundary_cochain(beta, 12)
        assert c is not None
        assert np.all(np.abs(delta(Q, cochain_values(c)) - beta.table)
                      <= td.default_tolerances().cocycle)
        for k in range(1, 9):
            assert coboundary_cochain_brute(beta, k) is None

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(SMALL_GROUPS)), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
    def test_recovers_a_drawn_coboundary(self, group, k, seed):
        Q = SMALL_GROUPS[group]()
        expo = np.random.default_rng(seed).integers(0, k, Q.order)
        expo[Q.identity] = 0
        table = delta(Q, np.exp(2j * np.pi * expo / k))
        beta = td.make_numeric_cocycle(Q, table)
        got = coboundary_cochain(beta, k)
        assert got is not None
        assert all(u.order == k for u in got)
        assert np.all(np.abs(delta(Q, cochain_values(got)) - table)
                      <= td.default_tolerances().cocycle)
        if k ** (Q.order - 1) <= COBOUNDARY_SPACE_CAP:
            assert got == coboundary_cochain_brute(beta, k)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 4]), st.integers(1, 64))
    def test_dihedral_alpha_is_never_a_coboundary(self, n, k):
        beta = numeric_from_exact(td.dihedral_alpha(n))
        assert coboundary_cochain(beta, k) is None


class TestSnapToLattice:
    def test_snaps_exact_values(self, alpha4):
        beta = numeric_from_exact(alpha4)
        snapped = snap_to_lattice(beta, 4)
        assert snapped is not None
        assert np.array_equal(snapped.exponents, alpha4.exponents)

    def test_rejects_far_values(self):
        Q = td.cyclic(2)
        z = np.exp(0.3j)
        beta = td.NumericCocycle(Q, np.array([[1, 1], [1, z]]))
        assert snap_to_lattice(beta, 4) is None


class TestNumericValidation:
    def test_validates_induced_style_table(self):
        Q = td.cyclic(2)
        beta = td.make_numeric_cocycle(Q, [[1, 1], [1, -1]])
        assert td.validate_numeric_cocycle(beta).ok

    def test_rejects_broken_normalization(self):
        Q = td.cyclic(2)
        with pytest.raises(InvalidCocycle):
            td.make_numeric_cocycle(Q, [[1, -1], [1, 1]])

    def test_rejects_broken_identity(self):
        Q = td.cyclic(4)
        table = np.ones((4, 4), dtype=complex)
        table[1, 1] = -1.0  # beta(g,g) != beta(g,g^3)-compatible values break a triple
        with pytest.raises(InvalidCocycle):
            td.make_numeric_cocycle(Q, table)

    def test_rejects_a_nan_entry(self, alpha4):
        beta = numeric_from_exact(alpha4)
        table = beta.table.copy()
        table[2, 3] = np.nan
        for _ in range(2):     # the failed report is not remembered
            with pytest.raises(InvalidCocycle):
                td.make_numeric_cocycle(beta.group, table)

    def test_restrict_numeric(self, d8, alpha4):
        beta = numeric_from_exact(alpha4)
        sub, _ = td.restrict(beta, td.subgroup_closure(d8, [1]))
        assert np.allclose(sub.table, 1.0)
