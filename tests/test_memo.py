"""The content-keyed memo of irreducibles, and the parts a group keeps of its action
tables, orbit decompositions and isotropy summands of K^0; group and cocycle validation
are not remembered."""

import gc
import json
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import twistdecomp as td
from twistdecomp import _memo, decomposition, kgroups, reps
from twistdecomp.decomposition import action_table, orbit_data
from twistdecomp.errors import ANotTrivial, DecompositionFailure, InputError, NotNormal
from twistdecomp.kgroups import (
    k0_of_gset,
    point_gset,
    pullback_to_group,
    random_cover,
    random_gset,
)

from oracles import _orbit_data, numeric_from_exact, phi_matrix_by_orbit
from test_cocycles import corrupted_alpha4
from test_decomposition import coboundary_twist


@pytest.fixture
def splits(monkeypatch):
    """The seeds of every split of a regular representation, in call order."""
    calls = []
    honest = reps._split_regular

    def counted(G, cocycle, ctable, seed):
        calls.append(seed)
        return honest(G, cocycle, ctable, seed)

    monkeypatch.setattr(reps, "_split_regular", counted)
    return calls


def s4():
    return td.from_permutation_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)])


def induced_beta():
    """An induced cocycle beta (a NumericCocycle) of D_8 under dihedral_alpha(4), A = <a^2>."""
    G, alpha = td.dihedral(4), td.dihedral_alpha(4)
    datum = orbit_data(action_table(G, td.subgroup_closure(G, [2]), alpha), alpha)[0]
    return datum.q_group, datum.beta


def same_content(G, cocycle, labels=None):
    """New group and cocycle objects with the same tables (and the same labels, by default)."""
    H = td.FiniteGroup(order=G.order, mul=np.array(G.mul), inv=np.array(G.inv),
                       labels=G.labels if labels is None else labels)
    return H, cocycle_on(H, cocycle)


def cocycle_on(H, cocycle):
    """A new cocycle object on H with cocycle's table."""
    if isinstance(cocycle, td.Cocycle):
        return td.Cocycle(H, cocycle.order, np.array(cocycle.exponents))
    return td.NumericCocycle(H, np.array(cocycle.table))


def carry(n):
    """The carry cocycle of Z_n, a cocycle over the integers, hence mod every K."""
    ks = np.arange(n)
    return (ks[:, None] + ks[None, :] >= n).astype(np.int64)


CASES = {
    "D8 dihedral_alpha(4)": lambda: (td.dihedral(4), td.dihedral_alpha(4)),
    "S4 trivial": lambda: (lambda G: (G, td.trivial_cocycle(G)))(s4()),
    "induced beta": induced_beta,
}


def assert_identical(t1, t2):
    assert t1.dims == t2.dims
    for r1, r2 in zip(t1.irreducibles, t2.irreducibles):
        assert r1.matrices.dtype == r2.matrices.dtype
        assert np.array_equal(r1.matrices, r2.matrices)
    for c1, c2 in zip(t1.characters, t2.characters):
        assert np.array_equal(c1.values, c2.values)


def assert_callers_objects(table, G, cocycle):
    assert table.group is G and table.cocycle is cocycle
    assert all(r.group is G and r.cocycle is cocycle for r in table.irreducibles)


class TestIrreducibles:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_warm_equals_cold(self, name, splits):
        G1, c1 = CASES[name]()
        splits.clear()
        first = irreducibles_copy(G1, c1)
        G2, c2 = same_content(G1, c1)
        warm = td.irreducibles(G2, c2)
        assert len(splits) == 1
        assert_equals_copy(first, warm)
        assert_callers_objects(warm, G2, c2)
        _memo.clear()
        cold = td.irreducibles(G2, c2)
        assert len(splits) == 2
        assert_identical(cold, warm)
        assert_callers_objects(cold, G2, c2)

    def test_same_objects_hit(self, d8, alpha4, splits):
        tables = [td.irreducibles(d8, alpha4) for _ in range(3)]
        assert splits == [0]
        for t in tables:
            assert_callers_objects(t, d8, alpha4)

    def test_seed_is_part_of_the_key(self, d8, alpha4, splits):
        td.irreducibles(d8, alpha4, seed=0)
        warm = td.irreducibles(d8, alpha4, seed=1)
        assert splits == [0, 1]
        _memo.clear()
        assert_identical(warm, td.irreducibles(d8, alpha4, seed=1))

    def test_tolerances_are_part_of_the_key(self, d8, alpha4, splits, monkeypatch):
        td.irreducibles(d8, alpha4)
        td.irreducibles(d8, alpha4, tol=td.Tolerances().scaled(2.0))
        assert len(splits) == 2
        monkeypatch.setenv("TWISTDECOMP_TOL_SCALE", "10")
        td.irreducibles(d8, alpha4)
        assert len(splits) == 3
        td.irreducibles(d8, alpha4, tol=td.Tolerances().scaled(10.0))
        assert len(splits) == 3

    def test_cocycle_order_is_part_of_the_key(self, splits):
        G = td.cyclic(4)
        by_order = {K: td.make_cocycle(G, K, carry(4)) for K in (2, 4)}
        tables = {K: td.irreducibles(G, c) for K, c in by_order.items()}
        assert len(splits) == 2
        assert not np.allclose(tables[2].character_values, tables[4].character_values)
        _memo.clear()
        assert_identical(tables[4], td.irreducibles(G, by_order[4]))

    def test_scaled_order_is_a_new_content(self, d8, alpha4, splits):
        scaled = td.make_cocycle(d8, 8, 2 * alpha4.exponents)
        td.irreducibles(d8, alpha4)
        table = td.irreducibles(d8, scaled)
        assert len(splits) == 2
        assert_callers_objects(table, d8, scaled)

    def test_exact_and_numeric_are_different_contents(self, d8, alpha4, splits):
        numeric = numeric_from_exact(alpha4)
        exact = td.irreducibles(d8, alpha4)
        table = td.irreducibles(d8, numeric)
        assert len(splits) == 2
        assert_callers_objects(table, d8, numeric)
        assert exact.dims == table.dims

    def test_identity_field_is_part_of_the_key(self, d8, alpha4):
        td.irreducibles(d8, alpha4)
        wrong = td.FiniteGroup(order=8, mul=d8.mul, inv=d8.inv, labels=d8.labels, identity=1)
        with pytest.raises(InputError):
            td.irreducibles(wrong, alpha4)

    def test_failed_split_is_not_remembered(self, d8, alpha4, monkeypatch):
        honest = reps._regular_class_count
        monkeypatch.setattr(reps, "_regular_class_count", lambda *args: 3)
        for _ in range(2):
            with pytest.raises(td.errors.SplitFailure, match="no clean split"):
                td.irreducibles(d8, alpha4)
        assert len(_memo._shared._entries) == 0
        monkeypatch.setattr(reps, "_regular_class_count", honest)
        assert td.irreducibles(d8, alpha4).dims == (2, 2)


def irreducibles_copy(G, cocycle):
    """The dims, matrices and character values of irreducibles(G, cocycle), with
    every array copied out of the memo."""
    table = td.irreducibles(G, cocycle)
    return (table.dims, [np.array(r.matrices) for r in table.irreducibles],
            np.array(table.character_values))


def assert_equals_copy(copy, table):
    dims, matrices, values = copy
    assert table.dims == dims
    for m, r in zip(matrices, table.irreducibles, strict=True):
        assert m.dtype == r.matrices.dtype and np.array_equal(m, r.matrices)
    assert np.array_equal(values, table.character_values)


def test_validation_and_derived_tables_store_nothing():
    """Checked inputs and the subgroup, restriction and quotient tables built
    from them are not remembered."""
    alpha = td.dihedral_alpha(4)
    G = alpha.group
    for A in td.normal_subgroups(G):
        td.restrict(alpha, A)
        td.restrict(numeric_from_exact(alpha), A)
        A.as_group()
        td.quotient_with_section(G, A)
    assert not _memo._shared._entries


def test_the_memo_holds_irreducibles_only(d8, alpha4, a_center):
    """A K-group pass stores only irreducibles splits in the shared memo; what
    is derived from them lives in the groups' parts."""
    x = td.disjoint_union(td.coset_gset(d8, a_center), point_gset(d8))
    gset_pass(d8, a_center, alpha4, x, point_gset(d8))
    stored = [value for value, _ in _memo._shared._entries.values()]
    assert stored and all(isinstance(value, reps._Split) for value in stored)


class TestContentDigests:
    def test_equal_for_same_content_copies(self):
        for make in (lambda: (td.dihedral(4), td.dihedral_alpha(4)), induced_beta):
            G, cocycle = make()
            H, copy = same_content(G, cocycle)
            assert H._content == G._content and copy._content == cocycle._content

    def test_each_group_field_changes_the_digest(self):
        G = td.dihedral(4)
        swapped = np.array(G.mul)
        swapped[[1, 2]] = swapped[[2, 1]]
        variants = [td.FiniteGroup(G.order, swapped, G.inv, G.labels),
                    td.FiniteGroup(G.order, G.mul, np.roll(G.inv, 1), G.labels),
                    td.FiniteGroup(G.order, G.mul, G.inv, G.labels, identity=1)]
        assert len({G._content, *(H._content for H in variants)}) == 4

    def test_labels_do_not_change_the_group_digest(self):
        G = td.dihedral(4)
        H, _ = same_content(G, td.dihedral_alpha(4), labels=tuple("abcdefgh"))
        assert H.labels != G.labels and H._content == G._content

    def test_each_cocycle_field_changes_the_digest(self):
        alpha = td.dihedral_alpha(4)
        G, K = alpha.group, alpha.order
        changed = np.array(alpha.exponents)
        changed[1, 1] = (changed[1, 1] + 1) % K
        beta = numeric_from_exact(alpha)
        moved = np.array(beta.table)
        moved[1, 1] *= -1
        assert td.Cocycle(G, 2 * K, alpha.exponents)._content != alpha._content
        assert td.Cocycle(G, K, changed)._content != alpha._content
        assert td.NumericCocycle(G, moved)._content != beta._content

    def test_large_tables_that_narrow_differently_differ(self):
        # tables of at least _memo.NARROW_MIN entries are hashed as uint8 or uint16 when
        # every value fits, so a value that wraps in the narrow type must still count
        G = td.dihedral(32)
        assert G.mul.size >= _memo.NARROW_MIN
        rng = np.random.default_rng(0)
        expo = rng.integers(0, 1000, G.mul.shape)
        low = expo % 256
        for table in (expo, low):
            twin = np.array(table)
            twin[3, 5] += 256
            assert (td.Cocycle(G, 1000, table)._content
                    != td.Cocycle(G, 1000, twin)._content)
        for entry, wrapped in ((-1, 255), (256, 0), (1 << 16, 0), (-1, (1 << 16) - 1)):
            bad, twin = np.array(G.mul), np.array(G.mul)
            bad[3, 5], twin[3, 5] = entry, wrapped
            assert (td.FiniteGroup(G.order, bad, G.inv, G.labels)._content
                    != td.FiniteGroup(G.order, twin, G.inv, G.labels)._content)

    def test_large_same_content_copies_share_a_digest(self):
        G, alpha = td.dihedral(64), td.dihedral_alpha(64)
        H, copy = same_content(G, alpha)
        assert H._content == G._content and copy._content == alpha._content

    def test_exact_and_numeric_cocycles_with_equal_values_differ(self):
        alpha = td.dihedral_alpha(4)
        beta = numeric_from_exact(alpha)
        assert np.array_equal(beta.table, alpha.complex_table)
        assert beta._content != alpha._content


class TestLRU:
    def test_evicts_least_recently_used_first(self):
        lru = _memo.LRU(30)
        for k in "abc":
            lru.put(k.encode(), k, 10)
        assert lru.get(b"a") == "a"              # b is now the oldest
        lru.put(b"d", "d", 10)
        assert [lru.get(k) for k in (b"a", b"b", b"c", b"d")] == ["a", None, "c", "d"]
        lru.put(b"e", "e", 20)                   # evicts c and a
        assert [lru.get(k) for k in (b"a", b"c", b"d", b"e")] == [None, None, "d", "e"]

    def test_entry_larger_than_budget_is_not_kept(self):
        lru = _memo.LRU(30)
        lru.put(b"a", "a", 10)
        lru.put(b"big", "big", 31)
        assert lru.get(b"big") is None and lru.get(b"a") == "a"

    def test_replacing_an_entry_counts_it_once(self):
        lru = _memo.LRU(30)
        for _ in range(5):
            lru.put(b"a", "a", 20)
        lru.put(b"b", "b", 10)
        assert lru.get(b"a") == "a" and lru.get(b"b") == "b"

    def test_large_tables_are_not_kept(self):
        G = td.dihedral(128)                     # a 256 x 256 int64 table is 512 KiB
        assert G.mul.nbytes > _memo.BUDGET_BYTES
        assert len(_memo._shared._entries) == 0

    def test_keys_separate_dtype_shape_and_kind(self):
        a = np.zeros((2, 2), dtype=np.int64)
        keys = {_memo.key("x", a), _memo.key("x", a.astype(np.int32)),
                _memo.key("x", a.reshape(4)), _memo.key("y", a), _memo.key("x", a, 0),
                _memo.key("x", a, "0")}
        assert len(keys) == 6
        assert _memo.key("x", a[:, :1]) == _memo.key("x", np.zeros((2, 1), dtype=np.int64))

    def test_threads_keep_the_byte_count(self):
        lru = _memo.LRU(100)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work(t):
                for i in range(2000):
                    lru.put(f"{t}.{i % 17}".encode(), i, 1 + (i + t) % 13)
                    lru.get(f"{(t + 1) % 4}.{i % 17}".encode())
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        sizes = [size for _, size in lru._entries.values()]
        assert lru._used == sum(sizes) <= 100


@pytest.fixture
def tabulated(monkeypatch):
    """The A of every action table built (not read from the group's parts), in call order."""
    calls = []
    honest = decomposition._tabulate

    def counted(G, A, alpha, *args, **kwargs):
        calls.append(A.elements)
        return honest(G, A, alpha, *args, **kwargs)

    monkeypatch.setattr(decomposition, "_tabulate", counted)
    return calls


def copy_inputs(G, A, alpha, *gsets, on=None):
    """Same-content copies of A, alpha and of G-sets over G, on a copy of G or on
    the group `on`."""
    H = same_content(G, alpha)[0] if on is None else on
    return (H, td.SubgroupHandle(H, A.elements), cocycle_on(H, alpha),
            *(td.make_gset(H, np.array(x.action)) for x in gsets))


def kgroup_configurations():
    """(name, G, A, alpha): D_8 with <a> and <a^2>, D_12 with <a>, each under
    dihedral_alpha, the trivial cocycle and a coboundary twist of dihedral_alpha."""
    for n, gen in ((4, 1), (4, 2), (6, 1)):
        G = td.dihedral(n)
        A = td.subgroup_closure(G, [gen])
        alpha = td.dihedral_alpha(n)
        for name, cocycle in (("dihedral_alpha", alpha), ("trivial", td.trivial_cocycle(G)),
                              ("coboundary twist", coboundary_twist(alpha, n))):
            yield f"D{2 * n} A={A.elements} {name}", G, A, cocycle


def kgroup_cases(G, A, rng, count=3):
    """(x, y, f): A-trivial G-sets, pulled back from G/A, with an equivariant f: x -> y."""
    qs = td.quotient_with_section(G, A)
    for _ in range(count):
        yq = random_gset(qs.quotient, 4, rng)
        xq, f = random_cover(yq, rng)
        yield (*(pullback_to_group(s, G, qs.projection) for s in (xq, yq)), f)


def kgroup_outputs(G, A, alpha, x, y, f):
    report = td.verify_gset_decomposition(G, A, alpha, x)
    return ([report.lhs_rank, report.rhs_ranks], td.phi_matrix(G, A, alpha, x).tolist(),
            td.pullback_matrix(G, alpha, f, x, y).tolist())


def decomposition_summary(G, A, alpha, seed=0, phase_seed=None, tol=None):
    """Everything a K-group computation reads of an orbit decomposition, as lists."""
    data = _orbit_data(G, A, alpha, seed, phase_seed, tol)
    action = action_table(G, A, alpha, seed=seed, tol=tol)
    return [action.perm.tolist(), action.base.character_values.tolist(),
            [[d.members, d.gt_map, d.gt_group.labels, d.q_group.labels, d.tau.matrices.tolist(),
              d.M.tolist(), d.beta.table.tolist()] for d in data]]


def kgroup_summary(k):
    return [[h.elements, t.group.labels, type(t.cocycle).__name__,
             t.cocycle.complex_table.tolist(), [r.matrices.tolist() for r in t.irreducibles],
             t.character_values.tolist()] for h, t in zip(k.isotropies, k.summands)]


def gset_pass(G, A, alpha, x, y):
    """Ranks, phi and the pullback to the point y of one K-group pass over x."""
    report = td.verify_gset_decomposition(G, A, alpha, x)
    return (report.lhs_rank, list(report.rhs_ranks), td.phi_matrix(G, A, alpha, x).tolist(),
            td.pullback_matrix(G, alpha, [0] * x.size, x, y).tolist())


def count_builds(monkeypatch) -> list:
    """Record "handle" for each SubgroupHandle checked or closed, and "table"
    for each table over a stored split, built from now on."""
    calls = []
    checked, closed = td.SubgroupHandle.__post_init__, td.SubgroupHandle._closed.__func__
    monkeypatch.setattr(td.SubgroupHandle, "__post_init__",
                        lambda self: calls.append("handle") or checked(self))
    monkeypatch.setattr(td.SubgroupHandle, "_closed",
                        classmethod(lambda cls, *a: calls.append("handle") or closed(cls, *a)))
    table = td.IrrTable.__init__
    monkeypatch.setattr(td.IrrTable, "__init__",
                        lambda self, *a: calls.append("table") or table(self, *a))
    return calls


def relabelled(G, alpha):
    return same_content(G, alpha, labels=tuple(f"x{i}" for i in range(G.order)))


def with_4_and_5_swapped(G):
    """G's table with the indices 4 and 5 exchanged: same inverses and labels when
    both are involutions, as b and a b of D_8 are."""
    p = np.arange(G.order)
    p[[4, 5]] = p[[5, 4]]
    H = td.FiniteGroup(order=G.order, mul=p[G.mul[np.ix_(p, p)]], inv=p[G.inv[p]],
                       labels=G.labels)
    assert np.array_equal(H.inv, G.inv) and not np.array_equal(H.mul, G.mul)
    return H


def carry_cocycles():
    G = td.cyclic(4)
    return [(G, td.make_cocycle(G, K, carry(4))) for K in (2, 4)]


# Pairs of calls that differ in one part of a key, as argument tuples.
ORBIT_KEY_PARTS = {
    "A elements": lambda: [(G, td.subgroup_closure(G, [g]), alpha)
                           for G, alpha in [(td.dihedral(4), td.dihedral_alpha(4))]
                           for g in (1, 2)],
    "seed": lambda: [(G, td.subgroup_closure(G, [1, 4]), alpha, s)
                     for G, alpha in [(td.dihedral(4), td.dihedral_alpha(4))] for s in (0, 1)],
    "phase_seed": lambda: [(G, td.subgroup_closure(G, [2]), td.trivial_cocycle(G), 0, p)
                           for G in [td.dihedral(4)] for p in (None, 1)],
    "cocycle order": lambda: [(G, td.subgroup_closure(G, [2]), c) for G, c in carry_cocycles()],
    "group table": lambda: [(G, td.SubgroupHandle(G, (0, 2)), td.trivial_cocycle(G))
                            for G in (td.dihedral(4), with_4_and_5_swapped(td.dihedral(4)))],
    "labels": lambda: [(G, td.SubgroupHandle(G, (0, 2)), alpha)
                       for G, alpha in [(td.dihedral(4), td.dihedral_alpha(4)),
                                        relabelled(td.dihedral(4), td.dihedral_alpha(4))]],
}

SUMMAND_KEY_PARTS = {
    "isotropy elements": lambda: [(G, alpha, td.coset_gset(G, td.subgroup_closure(G, [g])))
                                  for G, alpha in [(td.dihedral(4), td.dihedral_alpha(4))]
                                  for g in (1, 2)],
    "group table": lambda: [(G, td.trivial_cocycle(G), point_gset(G))
                            for G in (td.dihedral(4), with_4_and_5_swapped(td.dihedral(4)))],
    "seed": lambda: [(G, alpha, point_gset(G), s)
                     for G, alpha in [(td.dihedral(4), td.dihedral_alpha(4))] for s in (0, 1)],
    "cocycle order": lambda: [(G, c, point_gset(G)) for G, c in carry_cocycles()],
    "exact vs numeric": lambda: [(G, alpha, point_gset(G))
                                 for G in [td.dihedral(4)]
                                 for alpha in (td.dihedral_alpha(4),
                                               numeric_from_exact(td.dihedral_alpha(4)))],
    "labels": lambda: [(G, alpha, point_gset(G))
                       for G, alpha in [(td.dihedral(4), td.dihedral_alpha(4)),
                                        relabelled(td.dihedral(4), td.dihedral_alpha(4))]],
}

STRICT = td.Tolerances().scaled(1e-14)


KEPT_PARTS_CALLS = {
    "verify_point_decomposition": lambda G, A, alpha, x: td.verify_point_decomposition(G, A, alpha),
    "k0_of_gset": lambda G, A, alpha, x: k0_of_gset(G, alpha, x),
    "verify_gset_decomposition": td.verify_gset_decomposition,
    "phi_matrix": td.phi_matrix,
    "pullback_matrix": lambda G, A, alpha, x: td.pullback_matrix(G, alpha, [0] * x.size, x,
                                                                 point_gset(G)),
}
# The parts each call leaves on G: the action, the orbit data and one part
# per isotropy subgroup of x's K-group summands.
KEPT_PARTS = {"verify_point_decomposition": 1, "k0_of_gset": 2, "verify_gset_decomposition": 4,
              "phi_matrix": 4, "pullback_matrix": 2}


class TestOrbitDecomposition:
    def test_warm_equals_cold_across_configurations(self, tabulated):
        cases = []
        for i, (name, G, A, alpha) in enumerate(kgroup_configurations()):
            for x, y, f in kgroup_cases(G, A, np.random.default_rng(i)):
                cases.append((name, (G, A, alpha, x, y), f))
        first = [kgroup_outputs(*args, f) for _, args, f in cases]
        configurations = len({name for name, _, _ in cases})
        assert len(tabulated) == configurations == 9
        warm = [kgroup_outputs(*copy_inputs(*args, on=args[0]), f) for _, args, f in cases]
        assert len(tabulated) == configurations
        for (name, args, f), w1, w2 in zip(cases, first, warm):
            _memo.clear()
            assert kgroup_outputs(*args, f) == w1 == w2, name

    @pytest.mark.parametrize("part", sorted(ORBIT_KEY_PARTS))
    def test_key_part(self, part):
        calls = ORBIT_KEY_PARTS[part]()
        warm = [decomposition_summary(*args) for args in calls]
        assert warm[0] != warm[1]
        for args, summary in zip(calls, warm):
            _memo.clear()
            assert decomposition_summary(*args) == summary

    def test_tolerances_are_part_of_the_key(self, d8, alpha4, a_center, tabulated, monkeypatch):
        _orbit_data(d8, a_center, alpha4)
        for _ in range(2):
            with pytest.raises(td.errors.SplitFailure):
                _orbit_data(d8, a_center, alpha4, tol=STRICT)
        monkeypatch.setenv("TWISTDECOMP_TOL_SCALE", "2")
        _orbit_data(d8, a_center, alpha4)
        _orbit_data(d8, a_center, alpha4, tol=td.Tolerances().scaled(2.0))
        assert len(tabulated) == 4

    def test_a_hit_holds_the_callers_objects(self, d8, alpha4, a_center, tabulated):
        """A kept action is wrapped with each caller's A and alpha, and the group
        returns the orbit data it keeps with it as they are, over the action's
        taus."""
        td.verify_gset_decomposition(d8, a_center, alpha4, point_gset(d8))
        _, A, alpha, x = copy_inputs(d8, a_center, alpha4, point_gset(d8), on=d8)
        hits = [action_table(d8, A, alpha) for _ in range(2)]
        sides = [kgroups._decomposed_side(d8, A, alpha, x, 0, td.default_tolerances())[1]
                 for _ in range(2)]
        assert len(tabulated) == 1
        for action in hits:
            assert action.group is d8 and action.subgroup is A and action.alpha is alpha
            assert action.perm is hits[0].perm and action.base is hits[0].base
        data = [[datum for datum, _, _ in side] for side in sides]
        assert all(d is e for d, e in zip(*data))
        assert all(d.gt_group.labels == tuple(d8.labels[g] for g in d.gt_map) for d in data[0])
        assert all(d.tau is hits[0].base.irreducibles[d.representative] for d in data[0])

    def test_action_table_is_kept_per_group_object(self, d8, alpha4, a_center, tabulated):
        """A second call on the same group reads the action it keeps; a group
        object of the same content tabulates its own."""
        cold = action_table(d8, a_center, alpha4)
        warm = action_table(d8, a_center, alpha4)
        assert len(tabulated) == 1 and warm.perm is cold.perm
        copy = action_table(*copy_inputs(d8, a_center, alpha4))
        assert len(tabulated) == 2 and copy.perm is not cold.perm
        assert copy.perm.tolist() == warm.perm.tolist() == cold.perm.tolist()

    def test_an_action_over_a_failed_split_is_tabulated_again(self, d8, alpha4, a_center,
                                                              tabulated):
        action_table(d8, a_center, alpha4).base._split.failed = True
        again = action_table(d8, a_center, alpha4)
        assert len(tabulated) == 2 and not again.base._split.failed

    @pytest.mark.parametrize("call", sorted(KEPT_PARTS_CALLS))
    def test_a_kept_action_forms_no_cycle_with_its_group(self, call):
        """A call leaves its action, orbit data or K-group summands in G's
        parts, and G is still freed as soon as the caller drops it and the
        objects on it, without the cycle collector."""
        G, alpha = same_content(td.dihedral(4), td.dihedral_alpha(4))
        A = td.SubgroupHandle(G, (0, 2))
        x = td.disjoint_union(td.coset_gset(G, A), point_gset(G))
        KEPT_PARTS_CALLS[call](G, A, alpha, x)
        assert len(_memo.parts(G)) == KEPT_PARTS[call]
        ref = weakref.ref(G)
        gc.disable()
        try:
            del G, A, alpha, x
            assert ref() is None
        finally:
            gc.enable()

    def test_the_memo_pins_no_callers_objects(self):
        G, alpha = same_content(td.dihedral(4), td.dihedral_alpha(4))
        A, x = td.SubgroupHandle(G, (0, 2)), point_gset(G)
        td.verify_gset_decomposition(G, A, alpha, x)
        td.phi_matrix(G, A, alpha, x)
        refs = [weakref.ref(obj) for obj in (G, A, alpha, x)]
        del G, A, alpha, x
        gc.collect()
        assert len(_memo._shared._entries) > 0
        assert all(ref() is None for ref in refs)

    def test_shared_arrays_are_read_only(self, d8, alpha4, a_center):
        for _ in range(2):
            data = _orbit_data(d8, a_center, alpha4)
            with pytest.raises(ValueError):
                action_table(d8, a_center, alpha4).perm[0, 0] = 1
            with pytest.raises(ValueError):
                data[0].M[0, 0, 0] = 2.0
        assert _orbit_data(d8, a_center, alpha4)[0].M[0, 0, 0] == 1.0
        _memo.clear()
        assert action_table(d8, a_center, alpha4).perm.flags.writeable is False

    def test_not_normal_raises_alike_when_warm(self, d8, alpha4, a_center):
        td.verify_gset_decomposition(d8, a_center, alpha4, point_gset(d8))
        b = td.subgroup_closure(d8, [4])
        for call in (lambda: td.verify_gset_decomposition(d8, b, alpha4, point_gset(d8)),
                     lambda: td.phi_matrix(d8, b, alpha4, point_gset(d8)),
                     lambda: _orbit_data(d8, b, alpha4),
                     lambda: action_table(d8, b, alpha4)):
            for _ in range(2):
                with pytest.raises(NotNormal):
                    call()

    def test_subgroup_of_another_group_raises_when_warm(self, d8, alpha4):
        klein = td.SubgroupHandle(d8, (0, 2, 4, 6))          # {1, a^2, b, a^2 b}, normal
        _orbit_data(d8, klein, alpha4)
        td.phi_matrix(d8, klein, alpha4, point_gset(d8))
        z4_z2 = td.direct_product(td.cyclic(4), td.cyclic(2))
        other = td.SubgroupHandle(z4_z2, (0, 2, 4, 6))       # Z_4 x 0
        for call in (_orbit_data, action_table,
                     lambda *args: td.verify_gset_decomposition(*args, point_gset(d8)),
                     lambda *args: td.phi_matrix(*args, point_gset(d8))):
            with pytest.raises(InputError, match="subgroup belongs to a different group"):
                call(d8, other, alpha4)

    def test_kgroup_orbit_parts_are_kept_per_seed_and_tolerances(self, d8, alpha4):
        """The group keeps one orbit-data part per (A, alpha, seed, tol): a
        repeated call hits it and returns the kept data, and another seed or
        tolerance gets the data a cold call computes for it."""
        klein = td.SubgroupHandle(d8, (0, 2, 4, 6))          # tau of dimension 2
        tol = td.default_tolerances()

        def data(seed, t):
            _, sides = kgroups._decomposed_side(d8, klein, alpha4, point_gset(d8), seed, t)
            return [datum for datum, _, _ in sides]

        base = data(0, tol)
        assert data(0, tol)[0] is base[0]
        for seed, t in ((1, tol), (0, tol.scaled(2))):
            other = data(seed, t)
            assert other[0].M is not base[0].M
            H, alpha = same_content(d8, alpha4)
            cold = _orbit_data(H, td.SubgroupHandle(H, klein.elements), alpha, seed=seed, tol=t)
            assert [d.M.tobytes() for d in other] == [d.M.tobytes() for d in cold]

    def test_a_moving_points_raises_when_warm(self, d8, alpha4, a_center):
        td.verify_gset_decomposition(d8, a_center, alpha4, point_gset(d8))
        x = td.make_gset(d8, d8.mul)
        for call in (td.verify_gset_decomposition, td.phi_matrix):
            with pytest.raises(ANotTrivial):
                call(d8, a_center, alpha4, x)

    def test_cocycle_on_another_group_raises_when_warm(self, d8, a_center):
        td.verify_gset_decomposition(d8, a_center, td.trivial_cocycle(d8), point_gset(d8))
        other = td.trivial_cocycle(td.cyclic(8))
        for call in (lambda: _orbit_data(d8, a_center, other),
                     lambda: action_table(d8, a_center, other),
                     lambda: k0_of_gset(d8, other, point_gset(d8)),
                     lambda: td.verify_gset_decomposition(d8, a_center, other, point_gset(d8))):
            with pytest.raises(InputError, match="does not belong to the cocycle's group"):
                call()

    def test_failure_is_not_remembered(self, d8, alpha4, a_center, monkeypatch):
        def broken(*args):
            raise DecompositionFailure("M family fails")

        honest = decomposition._intertwiners
        monkeypatch.setattr(decomposition, "_intertwiners", broken)
        for _ in range(2):
            with pytest.raises(DecompositionFailure, match="M family fails"):
                _orbit_data(d8, a_center, alpha4)
        monkeypatch.setattr(decomposition, "_intertwiners", honest)
        warm = decomposition_summary(d8, a_center, alpha4)
        _memo.clear()
        assert decomposition_summary(d8, a_center, alpha4) == warm


class TestIsotropySummand:
    @pytest.mark.parametrize("part", sorted(SUMMAND_KEY_PARTS))
    def test_key_part(self, part):
        calls = SUMMAND_KEY_PARTS[part]()
        warm = [kgroup_summary(k0_of_gset(*args)) for args in calls]
        assert warm[0] != warm[1]
        for args, summary in zip(calls, warm):
            _memo.clear()
            assert kgroup_summary(k0_of_gset(*args)) == summary

    def test_tolerances_are_part_of_the_key(self, d8, alpha4):
        k0_of_gset(d8, alpha4, point_gset(d8))
        for _ in range(2):
            with pytest.raises(td.errors.SplitFailure):
                k0_of_gset(d8, alpha4, point_gset(d8), tol=STRICT)

    def test_a_hit_holds_the_callers_objects(self, d8, alpha4, splits):
        x = td.coset_gset(d8, td.subgroup_closure(d8, [2]))
        first = k0_of_gset(d8, alpha4, x)
        G, _, alpha, x2 = copy_inputs(d8, td.subgroup_closure(d8, [2]), alpha4, x)
        warm = k0_of_gset(G, alpha, x2)
        assert len(splits) == 1
        assert warm.gset is x2 and warm.cocycle is alpha
        assert kgroup_summary(warm) == kgroup_summary(first)
        for h1, h2, table in zip(first.isotropies, warm.isotropies, warm.summands):
            assert h2.parent is G and h2 is not h1
            assert all(r.group is table.group and r.cocycle is table.cocycle
                       for r in table.irreducibles)
        assert warm.summands[0] is not first.summands[0]


class TestHitPath:
    """A hit on a stored certified result is a lookup: the stored character
    stack is handed out as it is, and nothing is stacked or re-checked."""

    def test_irreducibles_hits_share_the_stored_stack(self, d8, alpha4):
        miss = td.irreducibles(d8, alpha4)
        stack = miss.character_values
        hits = [td.irreducibles(*same_content(d8, alpha4)) for _ in range(2)]
        assert all(t.character_values is stack for t in hits)
        assert not stack.flags.writeable and stack.shape == (len(miss), d8.order)
        for t in hits:
            for row, chi in zip(stack, t.characters):
                assert np.shares_memory(chi.values, stack)
                assert chi.values.tobytes() == row.tobytes()
        _memo.clear()
        assert td.irreducibles(d8, alpha4).character_values.tobytes() == stack.tobytes()

    def test_warm_k0_of_gset_summands_share_the_stored_stack(self, d8, alpha4):
        x = td.disjoint_union(td.coset_gset(d8, td.subgroup_closure(d8, [2])), point_gset(d8))
        miss = k0_of_gset(d8, alpha4, x)
        miss_bits = [t.character_values.tobytes() for t in miss.summands]
        warm = [k0_of_gset(d8, alpha4, x) for _ in range(2)]
        for i, table in enumerate(miss.summands):
            stack = table.character_values
            assert not stack.flags.writeable
            assert all(k.summands[i].character_values is stack for k in warm)
            assert all(k.summands[i].character_values.tobytes() == miss_bits[i] for k in warm)

    def test_warm_k0_of_gset_builds_no_handle_and_stacks_nothing(self, d8, alpha4, monkeypatch):
        """Nor does it build a table, also over a new G-set of the same group:
        the group keeps each stabilizer's numbering and summand table, and a
        warm call returns the kept summands, each over the same group."""
        x = random_gset(d8, 12, np.random.default_rng(3))
        cold = k0_of_gset(d8, alpha4, x)
        y = td.make_gset(d8, np.array(x.action))
        calls = count_builds(monkeypatch)
        stack = np.stack
        monkeypatch.setattr(np, "stack", lambda *a, **k: calls.append("stack") or stack(*a, **k))
        warm, other = k0_of_gset(d8, alpha4, x), k0_of_gset(d8, alpha4, y)
        assert calls == []
        assert kgroup_summary(warm) == kgroup_summary(cold) == kgroup_summary(other)
        for k in (warm, other):
            assert all(t is c for t, c in zip(k.summands, cold.summands))
            assert all(h.parent is d8 and h.as_group()[0].same_table(t.group)
                       for h, t in zip(k.isotropies, k.summands))

    def test_warm_pass_over_a_new_gset_builds_no_handle_and_no_table(self, d8, alpha4, a_center,
                                                                     monkeypatch):
        x = td.disjoint_union(td.coset_gset(d8, a_center), point_gset(d8))
        cold = gset_pass(d8, a_center, alpha4, x, point_gset(d8))
        x2, y2 = td.make_gset(d8, np.array(x.action)), point_gset(d8)
        calls = count_builds(monkeypatch)
        assert gset_pass(d8, a_center, alpha4, x2, y2) == cold
        assert calls == []

    def test_clearing_the_memo_makes_the_next_pass_cold(self, d8, alpha4, a_center, monkeypatch):
        """The group's parts go with the memo: after clear() a pass on the same
        objects builds its tables, handles and representations again."""
        x, y = td.disjoint_union(td.coset_gset(d8, a_center), point_gset(d8)), point_gset(d8)
        warm = gset_pass(d8, a_center, alpha4, x, y)
        before = k0_of_gset(d8, alpha4, x)
        _memo.clear()
        calls = count_builds(monkeypatch)
        honest = td.ProjectiveRep.__post_init__
        monkeypatch.setattr(td.ProjectiveRep, "__post_init__",
                            lambda self: calls.append("rep") or honest(self))
        assert gset_pass(d8, a_center, alpha4, x, y) == warm
        assert {"handle", "table", "rep"} <= set(calls)
        after = k0_of_gset(d8, alpha4, x)
        assert all(h is not b for h, b in zip(after.isotropies, before.isotropies))

    def test_parts_hold_no_callers_objects(self, d8, alpha4):
        """A pass leaves parts on the group, and the caller's cocycle, subgroup
        and G-sets are freed while the group lives."""
        alpha = td.make_cocycle(d8, alpha4.order, np.array(alpha4.exponents))
        A = td.subgroup_closure(d8, [2])
        x, y = td.disjoint_union(td.coset_gset(d8, A), point_gset(d8)), point_gset(d8)
        gset_pass(d8, A, alpha, x, y)
        parts = _memo.parts(d8)
        assert len(parts) >= 3                 # two stabilizers and the orbit data
        refs = [weakref.ref(obj) for obj in (alpha, A, x, y)]
        del alpha, A, x, y
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert _memo.parts(d8) is parts

    def test_parts_per_group_are_bounded(self, d8, alpha4, a_center, monkeypatch):
        """Each seed adds parts to the group; past PARTS_PER_OWNER the oldest
        are dropped, and a dropped part is built again with the same result."""
        monkeypatch.setattr(_memo, "PARTS_PER_OWNER", 5)
        x = td.disjoint_union(td.coset_gset(d8, a_center), point_gset(d8))
        first = td.phi_matrix(d8, a_center, alpha4, x, seed=0)
        sizes = []
        for seed in range(1, 10):
            td.verify_gset_decomposition(d8, a_center, alpha4, x, seed=seed)
            sizes.append(len(_memo.parts(d8)))
        assert max(sizes) == 5
        assert np.array_equal(td.phi_matrix(d8, a_center, alpha4, x, seed=0), first)

    def test_hom_weights_are_computed_by_the_first_gset_certificate(self, d8, alpha4, a_center,
                                                                    monkeypatch):
        """The first verify_gset_decomposition computes each datum's Hom weights
        once, for its bijection check, and keeps the blocks of phi: a later
        phi_matrix reads the weights and the blocks the group keeps."""
        calls, filled = [], []
        honest, fill = kgroups._hom_weights, kgroups._fill_blocks
        monkeypatch.setattr(kgroups, "_hom_weights", lambda *a: calls.append(a) or honest(*a))
        monkeypatch.setattr(kgroups, "_fill_blocks",
                            lambda out, blocks, tol: filled.extend(blocks) or fill(out, blocks, tol))
        x = td.disjoint_union(td.coset_gset(d8, a_center), point_gset(d8))
        td.verify_gset_decomposition(d8, a_center, alpha4, x)
        assert len(calls) == len(_orbit_data(d8, a_center, alpha4))
        assert filled
        filled.clear()
        assert np.array_equal(td.phi_matrix(d8, a_center, alpha4, x),
                              phi_matrix_by_orbit(d8, a_center, alpha4, x))
        assert len(calls) == len(_orbit_data(d8, a_center, alpha4)) and filled == []


    def test_warm_gset_pass_builds_no_projective_rep(self, d8, alpha4, a_center, monkeypatch):
        """Every table of a warm pass comes from a stored split, and a stored
        action's base table keeps the representations it built."""
        x = td.disjoint_union(td.coset_gset(d8, a_center), point_gset(d8))
        y = point_gset(d8)
        made = []
        honest = td.ProjectiveRep.__post_init__
        monkeypatch.setattr(td.ProjectiveRep, "__post_init__",
                            lambda self: made.append(self) or honest(self))
        cold = gset_pass(d8, a_center, alpha4, x, y)
        assert made
        made.clear()
        assert gset_pass(d8, a_center, alpha4, x, y) == cold
        assert made == []


    def test_threads_share_one_matrix_build(self, monkeypatch):
        """Threads reading the stored split at once (a slowed build) build it once."""
        G, alpha = td.dihedral(8), td.dihedral_alpha(8)
        td.irreducibles(G, alpha)
        builds, honest = [], reps._block_matrices

        def slow(*args):
            builds.append(1)
            time.sleep(0.05)
            return honest(*args)

        monkeypatch.setattr(reps, "_block_matrices", slow)
        read = [None] * 8

        def first_read(i):
            read[i] = td.irreducibles(G, alpha)._split.matrices(G, alpha)

        threads = [threading.Thread(target=first_read, args=(i,)) for i in range(len(read))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert builds == [1]
        assert all(m is n for mats in read for m, n in zip(mats, read[0]))


def test_threads_sharing_a_groups_parts_agree_with_one_thread(d8, alpha4, a_center):
    """Threads that build and read one group's K-group parts at once, from a
    cold memo, give the results of a single thread (a race builds a part twice
    at worst)."""
    rng = np.random.default_rng(5)
    qs = td.quotient_with_section(d8, a_center)
    gsets = [pullback_to_group(random_gset(qs.quotient, 6, rng), d8, qs.projection)
             for _ in range(8)]
    want = [gset_pass(d8, a_center, alpha4, x, point_gset(d8)) for x in gsets]
    got = [None] * len(gsets)

    def run(i):
        got[i] = gset_pass(d8, a_center, alpha4, gsets[i], point_gset(d8))

    _memo.clear()
    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(gsets))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def test_default_tolerances_follow_the_scale_set_after_a_first_call(monkeypatch):
    monkeypatch.delenv(td.config.ENV_TOL_SCALE, raising=False)
    base = td.default_tolerances()
    assert base == td.Tolerances() and td.default_tolerances() is base
    monkeypatch.setenv(td.config.ENV_TOL_SCALE, "0.5")
    scaled = td.default_tolerances()
    assert scaled == td.Tolerances().scaled(0.5) and td.default_tolerances() is scaled
    assert scaled._content != base._content
    monkeypatch.delenv(td.config.ENV_TOL_SCALE)
    assert td.default_tolerances() is base


def _memo_summary() -> list:
    """Fingerprints of cold and warm tables and repeated error messages, as JSON values."""
    out = []
    for name in sorted(CASES):
        G, cocycle = CASES[name]()
        _memo.clear()
        cold = td.irreducibles(G, cocycle)
        warm = td.irreducibles(*same_content(G, cocycle))
        out.append([name, [c.fingerprint() for c in cold.characters],
                    [c.fingerprint() for c in warm.characters]])
    for build in (lambda: td.make_cocycle(td.dihedral(4), 4, corrupted_alpha4()),
                  lambda: td.from_multiplication_table(
                      np.array(td.dihedral(4).mul)[[0, 1, 5, 3, 4, 2, 6, 7]])):
        for _ in range(2):
            try:
                build()
            except InputError as exc:
                out.append([type(exc).__name__, str(exc)])
    return out


def test_same_results_under_python_O():
    here = Path(__file__).resolve().parent
    src = Path(td.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path[:0] = [{str(src)!r}, {str(here)!r}]; import json; "
        "import test_memo as t; "
        "print(json.dumps([sys.flags.optimize, t._memo_summary()]))"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    optimize, summary = json.loads(out.stdout.splitlines()[-1])
    here_summary = json.loads(json.dumps(_memo_summary()))
    assert optimize == 1
    assert summary == here_summary
    for _, cold, warm in summary[:len(CASES)]:
        assert cold == warm
    assert len(summary) == len(CASES) + 4
    assert summary[-4] == summary[-3] and summary[-2] == summary[-1]
