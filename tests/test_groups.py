import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twistdecomp as td
from twistdecomp import groups
from twistdecomp.errors import (
    ClosureTooLarge,
    DecompositionFailure,
    InputError,
    NoIdentity,
    NotAPermutation,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
    NotNormal,
)
from twistdecomp.groups import (
    all_subgroups,
    full_subgroup,
    generating_set,
    is_normal,
    left_cosets,
    trivial_subgroup,
)

from oracles import associative, brute_isomorphic, chi
from test_decomposition import IDENTITY_AT_3, d8_identity_at_3
from test_reps import alternating, c2_times_dihedral, quaternion, symmetric

# order-5 loop: Latin square with identity and two-sided inverses, not associative
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


class TestFromMultiplicationTable:
    def test_trivial(self):
        G = td.from_multiplication_table([[0]])
        assert G.order == 1
        assert G.identity == 0

    def test_z2(self):
        G = td.from_multiplication_table([[0, 1], [1, 0]])
        assert G.order == 2
        assert G.multiply(1, 1) == 0

    def test_identity_relabelled_to_zero(self):
        # identity sits at index 1 here; construction must move it to 0
        G = td.from_multiplication_table([[1, 0], [0, 1]])
        assert G.identity == 0
        assert G.multiply(0, 1) == 1

    def test_d8_round_trip_isomorphic(self, d8):
        G = td.from_multiplication_table(np.array(d8.mul))
        assert brute_isomorphic(G, d8)

    def test_not_latin(self):
        with pytest.raises(NotLatinSquare):
            td.from_multiplication_table([[0, 0], [1, 1]])

    def test_no_identity(self):
        with pytest.raises(NoIdentity):
            td.from_multiplication_table([[1, 0, 2], [0, 2, 1], [2, 1, 0]])

    def test_not_associative(self):
        with pytest.raises(NotAssociative):
            td.from_multiplication_table(NONASSOC_LOOP)

    def test_rejects_bad_entries(self):
        with pytest.raises(InputError):
            td.from_multiplication_table([[0, 2], [2, 0]])


def identity_at_3():
    """Z_5 relabelled so the identity sits at index 3, with labels."""
    perm = np.array([3, 0, 4, 1, 2])          # element k of Z_5 -> index perm[k]
    ks = np.arange(5)
    table = np.empty((5, 5), dtype=np.int64)
    table[np.ix_(perm, perm)] = perm[(ks[:, None] + ks[None, :]) % 5]
    labels = [""] * 5
    for k in range(5):
        labels[perm[k]] = f"g^{k}"
    return table, labels


class TestGroupValidation:
    @pytest.mark.parametrize("with_labels", [True, False])
    def test_identity_not_at_zero_builds_alike_every_time(self, with_labels):
        table, labels = identity_at_3()
        labels = labels if with_labels else None
        first = td.from_multiplication_table(np.array(table), labels)
        second = td.from_multiplication_table(np.array(table), labels)
        assert first.labels[0] == ("g^0" if with_labels else "0")
        for G in (first, second):
            assert G.identity == 0
        assert np.array_equal(first.mul, second.mul) and np.array_equal(first.inv, second.inv)
        assert first.labels == second.labels
        again = td.from_multiplication_table(np.array(table), labels)
        assert again.labels == second.labels and np.array_equal(again.mul, second.mul)

    def test_each_call_takes_its_own_labels(self):
        table, labels = identity_at_3()
        td.from_multiplication_table(np.array(table), labels)
        other = [s.upper() for s in labels]
        second = td.from_multiplication_table(np.array(table), other)
        third = td.from_multiplication_table(np.array(table), other)
        assert second.labels == third.labels == tuple(s.upper() for s in
                                                   [labels[3], labels[1], labels[2],
                                                    labels[0], labels[4]])

    def test_failure_raises_alike_every_time(self):
        table = np.array(td.dihedral(4).mul)
        table[[2, 5]] = table[[5, 2]]             # still a Latin square, no longer a group
        messages = []
        for _ in range(2):
            with pytest.raises(InputError) as err:
                td.from_multiplication_table(table)
            messages.append((type(err.value), str(err.value)))
        assert messages[0] == messages[1]




class TestFromPermutationGenerators:
    def test_cyclic3(self):
        G = td.from_permutation_generators(3, [(1, 2, 0)])
        assert G.order == 3
        assert brute_isomorphic(G, td.cyclic(3))

    def test_d8_from_permutations(self):
        # a = (0 1 2 3), b = (0 3)(1 2)
        a = (1, 2, 3, 0)
        b = (3, 2, 1, 0)
        G = td.from_permutation_generators(4, [a, b])
        assert G.order == 8
        # defining relations a^4 = b^2 = 1, b a b = a^3 hold in the closure
        ia = next(i for i in range(G.order) if G.element_order(i) == 4)
        assert any(
            G.element_order(i) == 2
            and G.multiply(G.multiply(i, ia), i) == G.power(ia, 3)
            for i in range(G.order)
        )
        assert brute_isomorphic(G, td.dihedral(4))

    def test_trivial_closure(self):
        G = td.from_permutation_generators(1, [])
        assert G.order == 1

    def test_not_a_permutation(self):
        with pytest.raises(NotAPermutation):
            td.from_permutation_generators(3, [(0, 0, 1)])

    def test_closure_cap(self):
        with pytest.raises(ClosureTooLarge):
            td.from_permutation_generators(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], max_order=30)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.permutations(range(4)), min_size=0, max_size=2))
    def test_order_divides_factorial_and_contains_generators(self, gens):
        G = td.from_permutation_generators(4, gens)
        assert 24 % G.order == 0
        assert G.order <= 24


class TestDihedral:
    def test_ab_times_a_is_b(self, d8):
        # (a b) a = b under the k + n*l encoding
        assert d8.multiply(5, 1) == 4

    def test_n1_is_z2(self):
        G = td.dihedral(1)
        assert G.order == 2
        assert brute_isomorphic(G, td.cyclic(2))

    def test_center_of_d8(self, d8):
        z = td.center(d8)
        assert z.elements == (0, 2)  # {1, a^2}

    def test_rejects_n0(self):
        with pytest.raises(InputError):
            td.dihedral(0)

    @pytest.mark.parametrize("k", [10**18 + 1, -(10**18) - 3, -1, 0, 5])
    def test_power_reduces_mod_the_element_order(self, k):
        G = td.dihedral(6)
        for g in range(G.order):
            want = G.identity
            for _ in range(k % G.element_order(g)):
                want = G.multiply(want, g)
            assert G.power(g, k) == want
        assert G.power(1, -1) == G.inverse(1) == 5
        assert G.power(1, 0) == G.identity

    @pytest.mark.parametrize("n", range(1, 9))
    def test_defining_relations(self, n):
        G = td.dihedral(n)
        a, b = 1 % n, n  # index(a) = 1 (or identity when n = 1), index(b) = n
        assert G.power(a, n) == 0
        assert G.multiply(b, b) == 0
        assert G.multiply(G.multiply(b, a), b) == G.inverse(a)


class TestSubgroups:
    def test_closure_of_a(self, d8):
        A = td.subgroup_closure(d8, [1])
        assert A.elements == (0, 1, 2, 3)

    def test_closure_empty(self, d8):
        assert td.subgroup_closure(d8, []).elements == (0,)

    def test_closure_of_a2(self, d8):
        assert td.subgroup_closure(d8, [2]).elements == (0, 2)

    def test_normality(self, d8):
        assert td.is_normal(d8, td.subgroup_closure(d8, [1]))
        assert not td.is_normal(d8, td.subgroup_closure(d8, [4]))  # <b>
        assert td.is_normal(d8, trivial_subgroup(d8))

    def test_normal_subgroup_listing(self, d8):
        orders = [h.order for h in td.normal_subgroups(d8)]
        assert orders == [1, 2, 4, 4, 4, 8]

    def test_all_subgroups_d8(self, d8):
        # D8 has 10 subgroups
        assert len(all_subgroups(d8)) == 10

    def test_generating_set(self, d8):
        gens = generating_set(d8)
        assert td.subgroup_closure(d8, gens).order == 8
        assert len(gens) <= 3

    def test_as_group_preserves_identity(self, d8):
        A = td.subgroup_closure(d8, [1])
        sub, to_parent = A.as_group()
        assert sub.identity == 0
        assert to_parent[0] == 0
        assert brute_isomorphic(sub, td.cyclic(4))

    def test_a_negative_element_is_rejected(self, d8):
        with pytest.raises(InputError, match=r"subgroup element -1 out of range \[0, 8\)"):
            td.SubgroupHandle(d8, (0, -1))

    def test_an_element_past_the_order_is_rejected(self, d8):
        with pytest.raises(InputError, match=r"subgroup element 99 out of range \[0, 8\)"):
            td.SubgroupHandle(d8, (0, 99))

    def test_a_repeated_element_is_rejected(self, d8):
        with pytest.raises(InputError, match="subgroup element 4 repeated"):
            td.SubgroupHandle(d8, (0, 4, 4))

    @pytest.mark.parametrize("elements", [(0, 1.5, 2, 3), [[0, 1], [2, 3]], [0, 2**70]],
                             ids=["fraction", "nested", "past int64"])
    def test_a_non_integer_element_is_rejected_and_numpy_integers_pass(self, d8, elements):
        with pytest.raises(InputError, match=r"subgroup elements must be integers"):
            td.SubgroupHandle(d8, elements)
        rotations = np.flatnonzero(np.arange(8) < 4)
        assert td.SubgroupHandle(d8, rotations).elements == (0, 1, 2, 3)
        assert td.SubgroupHandle(d8, (np.int32(2), 0)).elements == (0, 2)


def loop_closure(G, seeds):
    """Reference subgroup closure: grow by products with every element until stable."""
    elems = {G.identity, *(int(s) for s in seeds)}
    while True:
        grown = elems | {int(G.mul[a, b]) for a in elems for b in elems}
        if grown == elems:
            return tuple(sorted(elems))
        elems = grown


def loop_handle_error(G, elements):
    """Reference SubgroupHandle check: the message of its first failure, or None."""
    elems = set(elements)
    if G.identity not in elems:
        return "subgroup must contain the identity"
    for a in sorted(elems):
        if int(G.inv[a]) not in elems:
            return f"subgroup not closed under inverse at element {a}"
        for b in sorted(elems):
            if int(G.mul[a, b]) not in elems:
                return f"subgroup not closed under product at ({a},{b})"
    return None


def loop_cosets(G, H):
    """Reference left cosets: an ascending scan numbers gH when it meets its smallest member g."""
    coset_id = np.full(G.order, -1, dtype=np.int64)
    reps = []
    for g in range(G.order):
        if coset_id[g] >= 0:
            continue
        for a in H.elements:
            coset_id[int(G.mul[g, a])] = len(reps)
        reps.append(g)
    return coset_id, reps


def loop_subgroup_table(G, H):
    """Reference as_group table: the product of the i-th and j-th elements, by position."""
    pos = {g: i for i, g in enumerate(H.elements)}
    return [[pos[int(G.mul[a, b])] for b in H.elements] for a in H.elements]


def loop_is_normal(G, A):
    members = set(A.elements)
    return all(G.conjugate(g, a) in members for g in range(G.order) for a in A.elements)


class TestSubgroupsAgainstLoops:
    GROUPS = {
        "D8": lambda: td.dihedral(4),
        "D12": lambda: td.dihedral(6),
        "C12": lambda: td.cyclic(12),
        "C2xD8": lambda: td.direct_product(td.cyclic(2), td.dihedral(4)),
        "S4": lambda: td.from_permutation_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
    }

    @pytest.mark.parametrize("name", GROUPS)
    def test_closure_and_membership_checks(self, name):
        G = self.GROUPS[name]()
        rng = np.random.default_rng(0)
        for _ in range(100):
            seeds = rng.integers(0, G.order, rng.integers(0, 4)).tolist()
            assert td.subgroup_closure(G, seeds).elements == loop_closure(G, seeds)
            elements = set(rng.choice(G.order, rng.integers(1, G.order + 1), replace=False).tolist())
            if rng.random() < 0.8:
                elements.add(G.identity)
            want = loop_handle_error(G, elements)
            if want is None:
                assert td.SubgroupHandle(G, tuple(elements)).elements == tuple(sorted(elements))
            else:
                with pytest.raises(InputError) as err:
                    td.SubgroupHandle(G, tuple(elements))
                assert str(err.value) == want

    @pytest.mark.parametrize("name", ["D8", "D12", "C2xD8"])
    def test_closures_pass_the_check_they_skip(self, name):
        # subgroup_closure builds its handles unchecked; all_subgroups grows every one of them
        G = self.GROUPS[name]()
        for h in all_subgroups(G):
            assert td.SubgroupHandle(G, h.elements).elements == h.elements

    def test_closure_in_a_group_whose_identity_is_not_0(self):
        H, _ = d8_identity_at_3()
        for seeds in ([], [0], [1, 4], [5], [3, 6], list(range(8))):
            assert td.subgroup_closure(H, seeds).elements == loop_closure(H, seeds)

    @pytest.mark.parametrize("name", GROUPS)
    def test_as_group_and_normality(self, name):
        G = self.GROUPS[name]()
        normal = 0
        for H in all_subgroups(G):
            sub, to_parent = H.as_group()
            assert sub.mul.tolist() == loop_subgroup_table(G, H)
            assert to_parent == H.elements
            assert list(sub.labels) == [G.labels[a] for a in H.elements]
            assert is_normal(G, H) == loop_is_normal(G, H)
            normal += is_normal(G, H)
        assert 0 < normal < len(all_subgroups(G)) or name == "C12"

    @pytest.mark.parametrize("name", GROUPS)
    def test_cosets_and_quotients(self, name):
        G = self.GROUPS[name]()
        for H in all_subgroups(G):
            coset_id, reps = loop_cosets(G, H)
            got_id, got_reps = left_cosets(G, H)
            assert got_id.tolist() == coset_id.tolist()
            assert got_reps.tolist() == reps
            translation = [[coset_id[G.mul[g, r]] for r in reps] for g in range(G.order)]
            assert td.coset_gset(G, H).action.tolist() == translation
            if is_normal(G, H):
                qs = td.quotient_with_section(G, H)
                assert qs.section == tuple(reps)
                assert qs.projection == tuple(coset_id.tolist())
                assert qs.quotient.mul.tolist() == [[coset_id[G.mul[s, t]] for t in reps]
                                                    for s in reps]


DERIVED_GROUPS = {
    "S4": lambda: symmetric(4),
    "A4": lambda: alternating(4),
    "Q8": lambda: quaternion(8),
    "C2xD8": lambda: c2_times_dihedral(4),
    **{f"D{2 * n}": functools.partial(td.dihedral, n) for n in range(1, 13)},
}


# as_group's map starts at the parent's identity wherever that sits
AS_GROUP_PARENTS = {**DERIVED_GROUPS, "D8 identity at 3": lambda: d8_identity_at_3()[0]}


class TestDerivedTablesEqualValidated:
    """Subgroup and quotient tables are built without the input checks; they
    must equal what the checks build from the same tables."""

    @pytest.mark.parametrize("name", AS_GROUP_PARENTS)
    def test_as_group(self, name):
        G = AS_GROUP_PARENTS[name]()
        for H in all_subgroups(G):
            sub, to_parent = H.as_group()
            pos = {g: i for i, g in enumerate(to_parent)}
            table = np.array([[pos[int(G.mul[a, b])] for b in to_parent] for a in to_parent])
            checked = groups._validated_group(table, [G.labels[a] for a in to_parent])
            assert np.array_equal(sub.mul, checked.mul)
            assert np.array_equal(sub.inv, checked.inv)
            assert sub.identity == checked.identity == 0
            assert sub.labels == checked.labels
            assert sorted(to_parent) == list(H.elements) and to_parent[0] == G.identity
            assert all(H.position(g) == i for i, g in enumerate(to_parent))
            # to_parent is a homomorphism
            parent = np.asarray(to_parent)
            assert np.array_equal(parent[sub.mul], G.mul[np.ix_(parent, parent)])
            assert np.array_equal(parent[sub.inv], G.inv[parent])

    @pytest.mark.parametrize("name", DERIVED_GROUPS)
    def test_quotient(self, name):
        G = DERIVED_GROUPS[name]()
        for A in td.normal_subgroups(G):
            coset_id, reps = loop_cosets(G, A)
            qmul = np.array([[coset_id[G.mul[s, t]] for t in reps] for s in reps])
            checked = groups._validated_group(qmul, [f"[{G.labels[s]}]" for s in reps])
            Q = td.quotient_with_section(G, A).quotient
            assert np.array_equal(Q.mul, checked.mul)
            assert np.array_equal(Q.inv, checked.inv)
            assert Q.identity == checked.identity == 0
            assert Q.labels == checked.labels


class TestQuotientWithSection:
    def test_d8_mod_a(self, d8, a_cyclic):
        qs = td.quotient_with_section(d8, a_cyclic)
        assert qs.quotient.order == 2
        assert qs.section == (0, 4)  # cosets A and Ab, smallest members
        assert all(qs.projection[qs.section[q]] == q for q in range(2))

    def test_d8_mod_center(self, d8, a_center):
        qs = td.quotient_with_section(d8, a_center)
        Q = qs.quotient
        assert Q.order == 4
        assert all(Q.multiply(q, q) == 0 for q in range(4))  # exponent 2: Z/2 x Z/2
        assert qs.section == (0, 1, 4, 5)

    def test_quotient_by_whole_group(self, d8):
        qs = td.quotient_with_section(d8, full_subgroup(d8))
        assert qs.quotient.order == 1

    def test_not_normal_rejected(self, d8):
        with pytest.raises(NotNormal):
            td.quotient_with_section(d8, td.subgroup_closure(d8, [4]))

    def test_projection_check_catches_a_non_normal_subgroup(self, monkeypatch, d8):
        monkeypatch.setattr(groups, "is_normal", lambda G, A: True)
        with pytest.raises(DecompositionFailure, match="not a homomorphism"):
            td.quotient_with_section(d8, td.subgroup_closure(d8, [4]))

    def test_order_product(self, d8):
        for A in td.normal_subgroups(d8):
            qs = td.quotient_with_section(d8, A)
            assert qs.quotient.order * A.order == d8.order

    def test_identity_not_at_zero(self, d8):
        """On D_8 renumbered with the identity at 3, coset 0 is the kernel with
        the identity as its representative, and the quotient table is the
        canonical D_8's up to the numbering of cosets."""
        H, _ = d8_identity_at_3()
        for A in td.normal_subgroups(d8):
            qs = td.quotient_with_section(H, td.SubgroupHandle(H, IDENTITY_AT_3[list(A.elements)]))
            assert qs.section[0] == H.identity
            canonical = td.quotient_with_section(d8, A)
            # canonical coset q holds the elements that renumbering sends into coset m[q]
            m = np.asarray(qs.projection)[IDENTITY_AT_3[list(canonical.section)]]
            assert m[0] == 0 and sorted(m) == list(range(len(m)))
            assert np.array_equal(qs.quotient.mul[np.ix_(m, m)], m[canonical.quotient.mul])
            assert np.array_equal(qs.quotient.inv[m], m[canonical.quotient.inv])


class TestChi:
    def test_normalized(self, d8, a_cyclic):
        qs = td.quotient_with_section(d8, a_cyclic)
        for q in range(qs.quotient.order):
            assert chi(qs, 0, q) == 0
            assert chi(qs, q, 0) == 0

    def test_d8_mod_a_bb(self, d8, a_cyclic):
        qs = td.quotient_with_section(d8, a_cyclic)
        # sigma([b]) = b; chi([b],[b]) = sigma(1)^-1 b b = 1
        assert chi(qs, 1, 1) == 0

    def test_d8_mod_center_aa(self, d8, a_center):
        qs = td.quotient_with_section(d8, a_center)
        qa = qs.projection[1]
        # sigma([a]) sigma([a]) = a^2 and sigma([a^2 coset]) = 1
        assert chi(qs, qa, qa) == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_chi_lands_in_subgroup(self, n):
        G = td.dihedral(n)
        for A in td.normal_subgroups(G):
            qs = td.quotient_with_section(G, A)
            for q1 in range(qs.quotient.order):
                for q2 in range(qs.quotient.order):
                    assert chi(qs, q1, q2) in A.elements


class TestDirectProduct:
    def test_orders(self):
        G = td.direct_product(td.cyclic(2), td.cyclic(3))
        assert G.order == 6
        assert brute_isomorphic(G, td.cyclic(6))

    def test_not_isomorphic_when_different(self):
        assert not brute_isomorphic(
            td.direct_product(td.cyclic(2), td.cyclic(2)), td.cyclic(4)
        )


class TestConjugacyClasses:
    def test_d8_classes(self, d8):
        classes = td.conjugacy_classes(d8)
        assert classes == [(0,), (1, 3), (2,), (4, 6), (5, 7)]

    def test_class_sizes_divide_order(self):
        for n in (3, 4, 5, 6):
            G = td.dihedral(n)
            for cls in td.conjugacy_classes(G):
                assert G.order % len(cls) == 0


def loop_check_latin(mul):
    """Reference Latin check: rows and columns in the order row 0, column 0, row 1, ..."""
    n = mul.shape[0]
    want = np.arange(n)
    for g in range(n):
        if not np.array_equal(np.sort(mul[g]), want):
            raise NotLatinSquare(f"row {g} is not a permutation of 0..{n - 1}")
        if not np.array_equal(np.sort(mul[:, g]), want):
            raise NotLatinSquare(f"column {g} is not a permutation of 0..{n - 1}")


def loop_find_inverses(mul, e):
    """Reference inverses: the first element whose row has no single e, or whose e is one-sided."""
    n = mul.shape[0]
    inv = np.empty(n, dtype=np.int64)
    for g in range(n):
        right = np.flatnonzero(mul[g] == e)
        if right.size != 1 or mul[right[0], g] != e:
            raise NoInverse(f"element {g} has no two-sided inverse")
        inv[g] = right[0]
    return inv


def outcome(check, *args):
    """(error type, message) of a check, or ("ok", its result as a list)."""
    try:
        result = check(*args)
    except InputError as exc:
        return type(exc), str(exc)
    return "ok", None if result is None else result.tolist()


def is_group(mul) -> bool:
    """Latin square, two-sided identity, two-sided inverses and associativity, by brute force."""
    mul = np.asarray(mul)
    n = mul.shape[0]
    ids = [e for e in range(n) if all(mul[e, x] == x == mul[x, e] for x in range(n))]
    return (outcome(loop_check_latin, mul)[0] == "ok" and len(ids) == 1
            and all(any(mul[g, h] == ids[0] == mul[h, g] for h in range(n)) for g in range(n))
            and associative(mul))


TABLE_GROUPS = {
    "C4": lambda: td.cyclic(4),         # one swap gives C2 x C2, a group again
    "D8": lambda: td.dihedral(4),
    "D12": lambda: td.dihedral(6),
    "C12": lambda: td.cyclic(12),
    "Q8": lambda: quaternion(8),
    "C2xD8": lambda: c2_times_dihedral(4),
    "S4": lambda: symmetric(4),
}


GREEDY_GROUPS = {
    **{f"D{2 * n}": functools.partial(td.dihedral, n) for n in range(1, 130)},
    **{f"C{n}": functools.partial(td.cyclic, n) for n in range(1, 60)},
    "S4": lambda: symmetric(4),
    "A4": lambda: alternating(4),
    "Q8": lambda: quaternion(8),
    "C2xD8": lambda: c2_times_dihedral(4),
    "D8xD6": lambda: td.direct_product(td.dihedral(4), td.dihedral(3)),
    "D6xD6": lambda: td.direct_product(td.dihedral(3), td.dihedral(3)),
    "C4xD16": lambda: td.direct_product(td.cyclic(4), td.dihedral(8)),
    "S4 from generators": lambda: td.from_permutation_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
    "S5 from generators": lambda: td.from_permutation_generators(
        5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]),
    "D8 identity at 3": lambda: d8_identity_at_3()[0],
    # an identity field that names no identity: {e} is no subgroup, so the
    # greedy starts from the closure of e, as _word_generators does
    **{f"D8 identity field {e}": functools.partial(
        lambda e: td.FiniteGroup(8, td.dihedral(4).mul, td.dihedral(4).inv,
                                 td.dihedral(4).labels, identity=e), e) for e in range(1, 8)},
}


@functools.cache
def intercalates(name):
    """Cells r1 < r2, c1 < c2, none of them the identity's, with mul[r1,c1] == mul[r2,c2]
    and mul[r1,c2] == mul[r2,c1]: swapping the two values keeps a Latin square with identity 0."""
    mul = TABLE_GROUPS[name]().mul
    n = mul.shape[0]
    found = []
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            same = ((mul[r1][:, None] == mul[r2][None, :])
                    & (mul[r1][None, :] == mul[r2][:, None]))
            found += [(r1, r2, c1, c2) for c1, c2 in np.argwhere(np.triu(same, 1)) if c1 > 0]
    return found


def intercalate_swap(mul, r1, r2, c1, c2):
    table = np.array(mul)
    table[[r1, r2], [c1, c2]], table[[r1, r2], [c2, c1]] = mul[r1, c2], mul[r1, c1]
    return table


def assert_real_triple(mul, message):
    """The triple named by a NotAssociative message fails associativity in mul."""
    x, a, y = map(int, re.fullmatch(r"\((\d+)\*(\d+)\)\*(\d+) != .*", message).groups())
    assert message == f"({x}*{a})*{y} != {x}*({a}*{y})"
    assert mul[mul[x, a], y] != mul[x, mul[a, y]]


class TestTableChecksAgainstOracles:
    @pytest.mark.parametrize("name", GREEDY_GROUPS)
    def test_word_generators_equal_the_subgroup_closure_greedy(self, name):
        """generating_set closes from scratch at each step; _word_generators
        grows one closure in place on the raw table."""
        G = GREEDY_GROUPS[name]()
        assert generating_set(G) == list(groups._word_generators(G.mul, G.identity))

    def test_first_of_a_bad_row_and_a_bad_column(self, d8):
        for cell, message in (((5, 2), "column 2"), ((2, 5), "row 2"), ((3, 3), "row 3")):
            table = np.array(d8.mul)
            table[cell] = table[cell[0], (cell[1] + 1) % 8]     # a repeat in the row and the column
            want = outcome(loop_check_latin, table)
            assert want == (NotLatinSquare, f"{message} is not a permutation of 0..7")
            assert outcome(groups._check_latin, table) == want

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(TABLE_GROUPS)), st.lists(st.tuples(
        st.integers(0, 23), st.integers(0, 23), st.integers(0, 23)), min_size=1, max_size=3))
    def test_latin_and_inverse_checks_equal_the_loops(self, name, edits):
        table = np.array(TABLE_GROUPS[name]().mul)
        n = table.shape[0]
        for r, c, v in edits:
            table[r % n, c % n] = v % n
        assert outcome(groups._check_latin, table) == outcome(loop_check_latin, table)
        assert outcome(groups._find_inverses, table, 0) == outcome(loop_find_inverses, table, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(TABLE_GROUPS)), st.integers(0, 10 ** 6))
    def test_intercalate_swaps(self, name, pick):
        cells = intercalates(name)
        table = intercalate_swap(TABLE_GROUPS[name]().mul, *cells[pick % len(cells)])
        assert outcome(groups._check_latin, table) == ("ok", None)
        assert outcome(groups._find_inverses, table, 0) == outcome(loop_find_inverses, table, 0)
        got = outcome(groups._check_associative, table)
        assert (got == ("ok", None)) == associative(table)
        if got[0] is NotAssociative:
            assert_real_triple(table, got[1])
        try:
            td.from_multiplication_table(table)
        except InputError:
            assert not is_group(table)
        else:
            assert is_group(table)

    def test_every_intercalate_swap_of_s4(self):
        # 121 of these pass at the first generator and fail at the second
        mul = TABLE_GROUPS["S4"]().mul
        for cells in intercalates("S4"):
            table = intercalate_swap(mul, *cells)
            got = outcome(groups._check_associative, table)
            assert (got == ("ok", None)) == associative(table)
            if got[0] is NotAssociative:
                assert_real_triple(table, got[1])

    def test_loop_and_row_swapped_d8(self, d8):
        swapped = np.array(d8.mul)
        swapped[[2, 5]] = swapped[[5, 2]]
        for table in (np.array(NONASSOC_LOOP), swapped):
            assert not is_group(table)
            with pytest.raises(InputError):
                td.from_multiplication_table(table)
        with pytest.raises(NotAssociative) as err:
            groups._check_associative(np.array(NONASSOC_LOOP))
        assert_real_triple(np.array(NONASSOC_LOOP), str(err.value))

    def test_every_triple_at_order_1024(self):
        mul = td.cyclic(1024).mul
        table = intercalate_swap(mul, 1, 513, 2, 514)     # a^1 a^2 = a^513 a^514 = a^3
        with pytest.raises(NotAssociative) as err:
            td.from_multiplication_table(table)
        assert "sampled" not in str(err.value)
        assert_real_triple(table, str(err.value))
