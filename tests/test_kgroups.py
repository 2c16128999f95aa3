import re
import tracemalloc

import numpy as np
import pytest

import twistdecomp as td
from twistdecomp import _memo, kgroups
from twistdecomp.decomposition import action_table, orbit_data
from twistdecomp.errors import ANotTrivial, InputError, NotEquivariant
from twistdecomp.groups import (
    generating_set,
    left_cosets,
    normal_subgroups,
    quotient_with_section,
)
from twistdecomp.kgroups import (
    all_subgroups,
    check_equivariant,
    coset_gset,
    empty_gset,
    gset_as_quotient_action,
    gset_orbits,
    isotropy_subgroup,
    left_translation_gset,
    phi_matrix,
    point_gset,
    pullback_to_group,
    random_cover,
    random_gset,
    relabel_gset,
)

from oracles import (
    NotIsotypic,
    _orbit_data,
    action_law_failure,
    conjugate_rep,
    hom_action_by_vector,
    multiplicity,
    phi_matrix_by_orbit,
    pullback_matrix_by_orbit,
    restrict_rep,
)
from test_action_table import bfs_orbits
from test_decomposition import coboundary_twist, d8_identity_at_3
from test_groups import loop_cosets


def swap_gset(d8):
    """Two points swapped by b, fixed by a."""
    act = np.zeros((8, 2), dtype=int)
    for g in range(8):
        act[g] = [0, 1] if g < 4 else [1, 0]
    return td.make_gset(d8, act)


def loop_random_cover(base, rng, subgroups):
    """Reference random_cover, built from loops: orbits and stabilizers by
    scanning the table, cosets by the ascending-scan loop. Draws from rng in
    the same order as random_cover."""
    G = base.group
    seen, columns, fmap = set(), [], []
    for p in range(base.size):
        if p in seen:
            continue
        seen |= set(base.action[:, p].tolist())
        stab = {g for g in range(G.order) if base.action[g, p] == p}
        inside = [h for h in subgroups if set(h.elements) <= stab]
        t = inside[int(rng.integers(len(inside)))]
        coset_id, reps = loop_cosets(G, t)
        columns.append([[len(fmap) + coset_id[G.mul[g, r]] for r in reps] for g in range(G.order)])
        fmap.extend(int(base.action[r, p]) for r in reps)
    action = np.concatenate(columns, axis=1)
    perm = rng.permutation(len(fmap))
    out_map = [0] * len(fmap)
    for old, new in enumerate(perm):
        out_map[int(new)] = fmap[old]
    return perm[action[:, np.argsort(perm)]], tuple(out_map)


def loop_locate(k, point):
    """(orbit index, witness) of a point by scanning the orbits and the basepoint column."""
    i = next(n for n, orb in enumerate(gset_orbits(k.gset)) if point in orb)
    return i, int(np.flatnonzero(k.gset.action[:, k.orbit_basepoints[i]] == point)[0])


def loop_pullback(G, cocycle, f, x, y):
    """Reference pullback_matrix by the matrix route: conjugate each target-isotropy
    irreducible by the witness, restrict it to the source isotropy, and take the
    multiplicity of every source-isotropy irreducible, one entry at a time."""
    kx = td.k0_of_gset(G, cocycle, x)
    ky = td.k0_of_gset(G, cocycle, y)
    rows = np.cumsum([0] + [len(t) for t in kx.summands])
    cols = np.cumsum([0] + [len(t) for t in ky.summands])
    out = np.zeros((kx.rank, ky.rank), dtype=np.int64)
    for i, xp in enumerate(kx.orbit_basepoints):
        j, witness = loop_locate(ky, f[xp])
        for w_idx, w_rep in enumerate(ky.summands[j].irreducibles):
            big, moved = conjugate_rep(cocycle, ky.isotropies[j], witness, w_rep)
            inner = td.SubgroupHandle(big.as_group()[0],
                                      tuple(big.position(g) for g in kx.isotropies[i].elements))
            pulled = restrict_rep(moved, inner)
            for u_idx, u_rep in enumerate(kx.summands[i].irreducibles):
                out[rows[i] + u_idx, cols[j] + w_idx] = multiplicity(pulled, u_rep)
    return out


def loop_phi(G, A, alpha, x):
    """Reference phi_matrix by the matrix route: conjugate each isotropy irreducible
    by the witness, build its Hom fiber and q-action with hom_action_by_vector, and
    decompose the traces over the beta classes, one entry block at a time."""
    tol = td.default_tolerances()
    kx = td.k0_of_gset(G, alpha, x)
    cols = np.cumsum([0] + [len(t) for t in kx.summands])
    blocks = []
    for datum in orbit_data(action_table(G, A, alpha), alpha):
        kq = td.k0_of_gset(datum.q_group, datum.beta, gset_as_quotient_action(x, datum))
        rows = np.cumsum([0] + [len(t) for t in kq.summands])
        block = np.zeros((kq.rank, kx.rank), dtype=np.int64)
        for qo, y_point in enumerate(kq.orbit_basepoints):
            i, witness = loop_locate(kx, y_point)
            q_iso = kq.isotropies[qo].elements
            for w_idx, w_rep in enumerate(kx.summands[i].irreducibles):
                handle, fiber = conjugate_rep(alpha, kx.isotropies[i], witness, w_rep)
                pos = {g: n for n, g in enumerate(handle.elements)}
                try:
                    _, mats = hom_action_by_vector(datum, lambda g: fiber.matrices[pos[g]],
                                                   q_iso, tol)
                except NotIsotypic:
                    continue
                traces = np.array([[np.trace(mats[q]) for q in q_iso]])
                block[rows[qo]:rows[qo + 1], cols[i] + w_idx] = kq.summands[qo].multiplicities(
                    traces, tol.char)[0]
        blocks.append(block)
    return np.concatenate(blocks)


def loop_equivariance_error(f, x, y):
    for g in range(x.group.order):
        for p in range(x.size):
            if f[x.action[g, p]] != y.action[g, f[p]]:
                return f"map fails equivariance at g={g}, x={p}"
    return None


def random_chains(G, A, count, seed):
    """Chains X -> Y -> Z of random covers over G/A, pulled back to G, with the maps."""
    qs = quotient_with_section(G, A)
    rng = np.random.default_rng(seed)
    subs = all_subgroups(qs.quotient)
    for _ in range(count):
        zq = random_gset(qs.quotient, 4, rng, subs)
        yq, f2 = random_cover(zq, rng, subs)
        xq, f1 = random_cover(yq, rng, subs)
        yield tuple(pullback_to_group(s, G, qs.projection) for s in (xq, yq, zq)) + (f1, f2)


def block_diag(blocks):
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=np.int64)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


class TestGSetBasics:
    def test_point(self, d8):
        x = point_gset(d8)
        assert x.size == 1
        assert gset_orbits(x) == [(0,)]

    def test_invalid_action_rejected(self, d8):
        # a and a^2 both swap, but a*a = a^2 forces a^2 to act trivially
        act = np.tile([0, 1], (8, 1))
        act[1] = [1, 0]
        act[2] = [1, 0]
        with pytest.raises(InputError):
            td.make_gset(d8, act)

    def test_coset_gset_sizes(self, d8):
        for h in all_subgroups(d8):
            x = coset_gset(d8, h)
            assert x.size == d8.order // h.order
            assert len(gset_orbits(x)) == 1

    def test_isotropy_of_swap(self, d8):
        x = swap_gset(d8)
        assert isotropy_subgroup(x, 0).elements == (0, 1, 2, 3)

    @pytest.mark.parametrize("group", ["D8", "S4"])
    def test_random_cover_equals_loop_reference(self, group):
        G = td.dihedral(4) if group == "D8" else td.from_permutation_generators(
            4, [(1, 0, 2, 3), (1, 2, 3, 0)])
        subs = all_subgroups(G)
        for seed in range(10):
            base = random_gset(G, 8, np.random.default_rng(seed), subs)
            x, f = random_cover(base, np.random.default_rng(100 + seed), subs)
            want_action, want_f = loop_random_cover(base, np.random.default_rng(100 + seed), subs)
            assert x.action.tolist() == want_action.tolist()
            assert f == want_f
            assert gset_orbits(x) == bfs_orbits(x.action)
            assert gset_orbits(base) == bfs_orbits(base.action)

    def test_random_gset_without_a_small_enough_subgroup_is_an_input_error(self, d8):
        a = td.subgroup_closure(d8, [1])                 # <a>, index 2
        with pytest.raises(InputError, match="index at most 1"):
            random_gset(d8, 1, np.random.default_rng(0), [a])

    def test_random_cover_without_a_subgroup_in_a_stabilizer_is_an_input_error(self, d8):
        a = td.subgroup_closure(d8, [1])                 # not in the trivial stabilizer
        with pytest.raises(InputError, match="stabilizer of point 0"):
            random_cover(left_translation_gset(d8), np.random.default_rng(0), subgroups=[a])

    def test_random_cover_of_the_empty_gset_is_empty(self, d8):
        x, f = random_cover(empty_gset(d8), np.random.default_rng(0))
        assert x.size == 0 and x.action.shape == (8, 0) and f == ()

    def test_relabel_preserves_orbit_structure(self, d8):
        x = swap_gset(d8)
        y = relabel_gset(x, [1, 0])
        assert sorted(len(o) for o in gset_orbits(y)) == [2]


class TestK0:
    def test_point_d8_alpha_rank2(self, d8, alpha4):
        assert td.k0_of_gset(d8, alpha4, point_gset(d8)).rank == 2

    def test_free_orbit_trivial_alpha_rank1(self, d8):
        k = td.k0_of_gset(d8, td.trivial_cocycle(d8), left_translation_gset(d8))
        assert k.rank == 1

    def test_swap_gset_rank4(self, d8, alpha4):
        assert td.k0_of_gset(d8, alpha4, swap_gset(d8)).rank == 4

    def test_rank_additive_over_disjoint_union(self, d8, alpha4):
        x = swap_gset(d8)
        y = point_gset(d8)
        both = td.disjoint_union(x, y)
        assert (
            td.k0_of_gset(d8, alpha4, both).rank
            == td.k0_of_gset(d8, alpha4, x).rank + td.k0_of_gset(d8, alpha4, y).rank
        )

    def test_rank_relabel_invariant(self, d8, alpha4):
        rng = np.random.default_rng(5)
        x = td.disjoint_union(swap_gset(d8), point_gset(d8))
        base = td.k0_of_gset(d8, alpha4, x).rank
        for _ in range(5):
            y = relabel_gset(x, rng.permutation(x.size))
            assert td.k0_of_gset(d8, alpha4, y).rank == base

    def test_empty_gset_rank0(self, d8, alpha4):
        assert td.k0_of_gset(d8, alpha4, empty_gset(d8)).rank == 0


class TestActionLaw:
    """k0_of_gset reads orbits and stabilizers off the table, which is sound only
    for an action: the law is certified once per G-set object."""

    def test_hand_built_table_that_is_no_action_is_refused(self):
        G = td.cyclic(2)
        table = [[0, 1], [0, 0]]          # g sends both points to 0
        with pytest.raises(InputError, match="action law fails at"):
            td.make_gset(G, table)
        x = td.FiniteGSet(G, 2, np.array(table))
        for _ in range(2):                # a failure is not remembered
            with pytest.raises(InputError, match="action law fails at"):
                td.k0_of_gset(G, td.trivial_cocycle(G), x)

    def test_hand_built_sizes_and_identity_rows_are_checked(self, d8, alpha4):
        with pytest.raises(InputError, match="size 3"):
            td.k0_of_gset(d8, alpha4, td.FiniteGSet(d8, 3, np.zeros((8, 1), dtype=int)))
        moved = np.zeros((8, 2), dtype=int)
        with pytest.raises(InputError, match="identity"):
            td.k0_of_gset(d8, alpha4, td.FiniteGSet(d8, 2, moved))

    def test_certified_once_per_object(self, d8, alpha4, monkeypatch):
        checks = []
        honest = kgroups._check_action
        monkeypatch.setattr(kgroups, "_check_action",
                            lambda G, action: checks.append(action.shape) or honest(G, action))
        built = swap_gset(d8)
        hand = td.FiniteGSet(d8, 2, np.array(built.action))
        assert len(checks) == 1           # make_gset's own check
        for _ in range(3):
            assert td.k0_of_gset(d8, alpha4, built).rank == 4
            assert td.k0_of_gset(d8, alpha4, hand).rank == 4
        assert len(checks) == 2           # hand's, on its first use only

    @pytest.mark.parametrize("group", ["D8", "S4", "C12", "C2xD8"])
    def test_generators_reject_exactly_what_all_pairs_reject(self, group):
        """Seeded corruptions of lawful tables, identity row kept and entries in
        range: make_gset refuses a table exactly when some pair (g, h) breaks the
        law, and the (g, h, x) it names does break it."""
        G = {"D8": lambda: td.dihedral(4), "C12": lambda: td.cyclic(12),
             "S4": lambda: td.from_permutation_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
             "C2xD8": lambda: td.direct_product(td.cyclic(2), td.dihedral(4))}[group]()
        rng = np.random.default_rng(11)
        subs = all_subgroups(G)
        c_powers = td.subgroup_closure(G, generating_set(G)[:1]).elements
        outcomes = []
        for _ in range(60):
            table = np.array(random_gset(G, 12, rng, subs).action)
            g, h = 1 + rng.choice(G.order - 1, 2, replace=False)
            kind = rng.integers(6)
            if kind == 0:                                   # one entry
                table[g, rng.integers(table.shape[1])] = rng.integers(table.shape[1])
            elif kind == 1:                                 # two rows swapped
                table[[g, h]] = table[[h, g]]
            elif kind == 2:                                 # one row permuted
                table[g] = rng.permutation(table[g])
            elif kind == 3:                                 # one row copied
                table[g] = table[h]
            elif kind == 4:                                 # points relabelled: lawful
                perm = rng.permutation(table.shape[1])
                table = perm[table[:, np.argsort(perm)]]
            elif len(c_powers) < G.order:
                # rows P(c^k h) o Q on a coset <c> h: the law holds for c, the first generator
                h = rng.choice(np.setdiff1d(np.arange(G.order), c_powers))
                coset = G.mul[list(c_powers), h]
                table[coset] = table[coset][:, rng.permutation(table.shape[1])]
            want = action_law_failure(G, table)
            outcomes.append(want is None)
            if want is None:
                td.make_gset(G, table)
                continue
            with pytest.raises(InputError, match="action law fails at") as err:
                td.make_gset(G, table)
            a, b, p = map(int, re.search(r"g=(\d+), h=(\d+), x=(\d+)", str(err.value)).groups())
            assert table[a, table[b, p]] != table[G.mul[a, b], p]
        assert True in outcomes and False in outcomes

    def test_make_gset_at_order_48_stays_small(self):
        """The law is checked one generator at a time: at |G| = 48 and
        |X| = 2592 all pairs at once would take two 48 MB arrays."""
        G = td.dihedral(24)
        action = np.concatenate([G.mul + G.order * k for k in range(54)], axis=1)
        generating_set(G)
        tracemalloc.start()
        try:
            x = td.make_gset(G, action)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.size == 2592 and peak < 10_000_000

    def test_a_kept_handle_answers_what_the_matrices_read_before_isotropies(self, alpha4):
        """The handles a K-group keeps are held off the group: elements,
        to_parent and position work on them, cold and warm, before any read
        of isotropies; a read that needs the parent fails."""
        G = td.dihedral(4)
        x = td.disjoint_union(swap_gset(G), td.coset_gset(G, td.subgroup_closure(G, [2])))
        for k in (td.k0_of_gset(G, alpha4, x), td.k0_of_gset(G, alpha4, x)):
            assert "isotropies" not in k.__dict__
            for kept in k._kept:
                assert kept.parent is None
                on_group = td.SubgroupHandle(G, kept.elements)
                assert kept.to_parent == on_group.to_parent
                assert kept.position(np.arange(G.order)).tolist() == on_group._index.tolist()
                with pytest.raises(AttributeError):
                    kept.contains(0)
            assert [h.parent for h in k.isotropies] == [G] * len(k._kept)
            assert [h.elements for h in k.isotropies] == [h.elements for h in k._kept]

    def test_orbits_share_the_handle_and_summand_of_one_isotropy(self, d8, alpha4):
        x = td.disjoint_union(swap_gset(d8), point_gset(d8))
        k = td.k0_of_gset(d8, alpha4, x)
        assert k.orbit_basepoints == [0, 2]
        assert [h.elements for h in k.isotropies] == [(0, 1, 2, 3), tuple(range(8))]
        y = td.disjoint_union(point_gset(d8), point_gset(d8))
        k = td.k0_of_gset(d8, alpha4, y)
        assert k.isotropies[0] is k.isotropies[1] and k.summands[0] is k.summands[1]
        for h in k.isotropies + td.k0_of_gset(d8, alpha4, left_translation_gset(d8)).isotropies:
            assert h.elements == td.SubgroupHandle(d8, h.elements).elements


class TestIdentityCosetFirst:
    """Coset 0 of left_cosets is the subgroup itself, represented by the
    identity, wherever the identity sits; quotient_with_section uses the
    same numbering."""

    def test_trivial_subgroup_with_identity_at_3(self):
        H, _ = d8_identity_at_3()
        trivial = td.SubgroupHandle(H, (3,))
        coset_id, reps = left_cosets(H, trivial)
        assert coset_id.tolist() == [1, 2, 3, 0, 4, 5, 6, 7]
        assert reps.tolist() == [3, 0, 1, 2, 4, 5, 6, 7]
        x = coset_gset(H, trivial)
        assert x.action[:, 0].tolist() == coset_id.tolist()     # g . (eH) = gH

    def test_quotients_number_cosets_as_left_cosets(self):
        H, _ = d8_identity_at_3()
        for N in normal_subgroups(H):
            coset_id, reps = left_cosets(H, N)
            assert coset_id[H.identity] == 0 and reps[0] == H.identity
            qs = quotient_with_section(H, N)
            assert qs.projection == tuple(coset_id.tolist())
            assert qs.section == tuple(reps.tolist())


class TestVerifyGSet:
    def test_point_reduces_to_point_check(self, d8, alpha4, a_cyclic):
        rep = td.verify_gset_decomposition(d8, a_cyclic, alpha4, point_gset(d8))
        assert rep.lhs_rank == 2
        assert rep.ok

    def test_swap_case(self, d8, alpha4, a_center):
        rep = td.verify_gset_decomposition(d8, a_center, alpha4, swap_gset(d8))
        assert rep.ok

    def test_union_additivity(self, d8, alpha4, a_cyclic):
        x = swap_gset(d8)
        y = point_gset(d8)
        rx = td.verify_gset_decomposition(d8, a_cyclic, alpha4, x)
        ry = td.verify_gset_decomposition(d8, a_cyclic, alpha4, y)
        rboth = td.verify_gset_decomposition(d8, a_cyclic, alpha4, td.disjoint_union(x, y))
        assert rboth.lhs_rank == rx.lhs_rank + ry.lhs_rank
        assert [a + b for a, b in zip(rx.rhs_ranks, ry.rhs_ranks)] == rboth.rhs_ranks

    def test_a_not_trivial_rejected(self, d8, alpha4, a_cyclic):
        # the free orbit is moved by a
        with pytest.raises(ANotTrivial):
            td.verify_gset_decomposition(d8, a_cyclic, alpha4, left_translation_gset(d8))

    def test_empty_gset(self, d8, alpha4, a_center):
        rep = td.verify_gset_decomposition(d8, a_center, alpha4, empty_gset(d8))
        assert rep.lhs_rank == 0 and sum(rep.rhs_ranks) == 0

    @pytest.mark.parametrize("n,gens", [(2, [1]), (4, [1]), (4, [2]), (6, [1]), (8, [1])])
    def test_random_qsets(self, n, gens):
        G = td.dihedral(n)
        alpha = td.dihedral_alpha(n)
        A = td.subgroup_closure(G, gens)
        qs = quotient_with_section(G, A)
        rng = np.random.default_rng(17)
        for _ in range(4):
            xq = random_gset(qs.quotient, 6, rng)
            x = pullback_to_group(xq, G, qs.projection)
            assert td.verify_gset_decomposition(G, A, alpha, x).ok

    @pytest.mark.parametrize("n", [4, 6])
    def test_every_normal_subgroup(self, n):
        # includes the case where an induced cocycle is a nontrivial class
        G = td.dihedral(n)
        cocycles = [td.trivial_cocycle(G)]
        if n % 2 == 0:
            cocycles.append(td.dihedral_alpha(n))
        from twistdecomp.groups import normal_subgroups

        rng = np.random.default_rng(n)
        for alpha in cocycles:
            for A in normal_subgroups(G):
                qs = quotient_with_section(G, A)
                xq = random_gset(qs.quotient, 5, rng)
                x = pullback_to_group(xq, G, qs.projection)
                assert td.verify_gset_decomposition(G, A, alpha, x).ok


class TestPullback:
    def test_parent_identity_not_at_zero(self):
        """Isotropy characters are read in the isotropy's own numbering, which
        starts at the parent's identity, not in ascending element order."""
        H, alpha = d8_identity_at_3()
        y = point_gset(H)
        for S in all_subgroups(H):
            x = coset_gset(H, S)
            f = [0] * x.size
            assert np.array_equal(td.pullback_matrix(H, alpha, f, x, y),
                                  loop_pullback(H, alpha, f, x, y))

    def test_identity_map(self, d8, alpha4):
        x = swap_gset(d8)
        M = td.pullback_matrix(d8, alpha4, [0, 1], x, x)
        assert np.array_equal(M, np.eye(4, dtype=int))

    def test_collapse_free_orbit_gives_dimension_row(self, d8):
        triv = td.trivial_cocycle(d8)
        M = td.pullback_matrix(
            d8, triv, [0] * 8, left_translation_gset(d8), point_gset(d8)
        )
        table = td.irreducibles(d8, triv, seed=0)
        assert M.shape == (1, 5)
        assert list(M[0]) == list(table.dims)

    def test_not_equivariant_rejected(self, d8, alpha4):
        x = swap_gset(d8)
        two_fixed = td.disjoint_union(point_gset(d8), point_gset(d8))
        with pytest.raises(NotEquivariant):
            check_equivariant([0, 1], x, two_fixed)

    def test_not_equivariant_message_names_the_first_pair(self, d8):
        rng = np.random.default_rng(3)
        subs = all_subgroups(d8)
        seen = 0
        for _ in range(40):
            x = random_gset(d8, 8, rng, subs)
            y = random_gset(d8, 8, rng, subs)
            f = rng.integers(0, y.size, x.size).tolist()
            want = loop_equivariance_error(f, x, y)
            if want is None:
                assert check_equivariant(f, x, y) == tuple(f)
                continue
            seen += 1
            with pytest.raises(NotEquivariant) as err:
                check_equivariant(f, x, y)
            assert str(err.value) == want
        assert seen > 0

    def test_equals_matrix_route_on_random_chains(self, d8, alpha4, a_center):
        for x, y, z, f1, f2 in random_chains(d8, a_center, 5, 23):
            composite = [f2[f1[p]] for p in range(x.size)]
            for f, s, t in ((f1, x, y), (f2, y, z), (composite, x, z)):
                assert np.array_equal(td.pullback_matrix(d8, alpha4, f, s, t),
                                      loop_pullback(d8, alpha4, f, s, t))
            for s in (x, y, z):
                k = td.k0_of_gset(d8, alpha4, s)
                assert [k.locate(p) for p in range(s.size)] == [loop_locate(k, p)
                                                                for p in range(s.size)]
                assert k.offsets.tolist() == [0, *np.cumsum([len(t) for t in k.summands])]
                assert k.offsets is k.offsets and not k.offsets.flags.writeable

    @pytest.mark.parametrize("gens", [[1], [2]])
    def test_equals_matrix_route_for_beta_over_a_quotient(self, d8, alpha4, gens):
        A = td.subgroup_closure(d8, gens)
        maps = [(swap_gset(d8), point_gset(d8), [0, 0])]
        maps += [(x, y, f1) for x, y, _, f1, _ in random_chains(d8, A, 3, 29)]
        for datum in orbit_data(action_table(d8, A, alpha4), alpha4):
            Q = datum.q_group
            for x, y, f in maps:
                xq = gset_as_quotient_action(x, datum)
                yq = gset_as_quotient_action(y, datum)
                assert np.array_equal(td.pullback_matrix(Q, datum.beta, f, xq, yq),
                                      loop_pullback(Q, datum.beta, f, xq, yq))
                k = td.k0_of_gset(Q, datum.beta, xq)
                assert [k.locate(p) for p in range(xq.size)] == [loop_locate(k, p)
                                                                 for p in range(xq.size)]

    def test_functoriality_on_random_chains(self, d8, alpha4, a_center):
        qs = quotient_with_section(d8, a_center)
        Q = qs.quotient
        rng = np.random.default_rng(23)
        subs = all_subgroups(Q)
        for _ in range(5):
            zq = random_gset(Q, 4, rng, subs)
            yq, f2 = random_cover(zq, rng, subs)
            xq, f1 = random_cover(yq, rng, subs)
            x = pullback_to_group(xq, d8, qs.projection)
            y = pullback_to_group(yq, d8, qs.projection)
            z = pullback_to_group(zq, d8, qs.projection)
            m1 = td.pullback_matrix(d8, alpha4, f1, x, y)
            m2 = td.pullback_matrix(d8, alpha4, f2, y, z)
            composite = [f2[f1[p]] for p in range(x.size)]
            mc = td.pullback_matrix(d8, alpha4, composite, x, z)
            assert np.array_equal(mc, m1 @ m2)


class TestPhiMatrix:
    def test_point_is_permutation(self, d8, alpha4, a_cyclic, a_center):
        for A in (a_cyclic, a_center):
            P = phi_matrix(d8, A, alpha4, point_gset(d8))
            assert P.shape == (2, 2)
            assert np.array_equal(P @ P.T, np.eye(2, dtype=int))

    def test_unimodular_on_gsets(self, d8, alpha4, a_center):
        P = phi_matrix(d8, a_center, alpha4, swap_gset(d8))
        assert P.shape[0] == P.shape[1]
        assert abs(round(np.linalg.det(P))) == 1

    @pytest.mark.parametrize("cocycle", ["alpha4", "trivial", "alpha4 df"])
    @pytest.mark.parametrize("gens", [[1], [2]], ids=["<a>", "<a^2>"])
    def test_equals_the_matrix_route_on_random_gsets(self, d8, alpha4, gens, cocycle):
        alpha = {"alpha4": alpha4, "trivial": td.trivial_cocycle(d8),
                 "alpha4 df": coboundary_twist(alpha4, 7)}[cocycle]
        A = td.subgroup_closure(d8, gens)
        qs = quotient_with_section(d8, A)
        subs = all_subgroups(qs.quotient)
        for seed in range(10):
            xq = random_gset(qs.quotient, 4, np.random.default_rng(seed), subs)
            x = pullback_to_group(xq, d8, qs.projection)
            assert np.array_equal(phi_matrix(d8, A, alpha, x), loop_phi(d8, A, alpha, x))

    @pytest.mark.parametrize("gens", [[1], [2]])
    def test_naturality_square_collapse(self, d8, alpha4, gens):
        A = td.subgroup_closure(d8, gens)
        x = swap_gset(d8)
        y = point_gset(d8)
        f = [0, 0]
        action = action_table(d8, A, alpha4, seed=0)
        data = orbit_data(action, alpha4)
        phi_x = phi_matrix(d8, A, alpha4, x, seed=0)
        phi_y = phi_matrix(d8, A, alpha4, y, seed=0)
        direct = td.pullback_matrix(d8, alpha4, f, x, y, seed=0)
        blocks = []
        for datum in data:
            xq = gset_as_quotient_action(x, datum)
            yq = gset_as_quotient_action(y, datum)
            blocks.append(td.pullback_matrix(datum.q_group, datum.beta, f, xq, yq, seed=0))
        decomposed = block_diag(blocks)
        assert np.array_equal(phi_x @ direct, decomposed @ phi_y)


class TestOneGroupChecks:
    def test_pullback_between_groups_of_different_orders_is_an_input_error(self):
        d8, d6 = td.dihedral(4), td.dihedral(3)
        for x, y in ((point_gset(d8), point_gset(d6)), (point_gset(d6), point_gset(d8))):
            with pytest.raises(InputError, match="G-set belongs to a different group") as err:
                td.pullback_matrix(d8, td.dihedral_alpha(4), [0], x, y)
            assert type(err.value) is InputError

    def test_decomposition_over_another_group_of_the_same_order_is_an_input_error(self):
        G, c8 = td.dihedral(4), td.cyclic(8)
        A, alpha = td.subgroup_closure(G, [2]), td.dihedral_alpha(4)
        x = coset_gset(c8, td.subgroup_closure(c8, [4]))
        for call in (td.verify_gset_decomposition, td.phi_matrix):
            with pytest.raises(InputError, match="G-set belongs to a different group") as err:
                call(G, A, alpha, x)
            assert type(err.value) is InputError


CONFIGS = [(4, [1]), (4, [2]), (6, [1])]


class TestSharedTableBlocks:
    """phi_matrix and pullback_matrix decompose all blocks over one isotropy
    table in one call; a loop with one call per orbit gives the same matrix."""

    @pytest.mark.parametrize("n,gens", CONFIGS)
    def test_pullback_equals_the_per_orbit_loop(self, n, gens):
        G, alpha = td.dihedral(n), td.dihedral_alpha(n)
        shared = 0
        for x, y, z, f1, f2 in random_chains(G, td.subgroup_closure(G, gens), 6, 31):
            xx = td.disjoint_union(x, x)                  # every table twice
            composite = tuple(f2[p] for p in f1)
            for f, s, t in ((f1, x, y), (f2, y, z), (composite, x, z), (f1 + f1, xx, y)):
                assert np.array_equal(td.pullback_matrix(G, alpha, f, s, t),
                                      pullback_matrix_by_orbit(G, alpha, f, s, t))
            k = td.k0_of_gset(G, alpha, xx)
            shared += len({id(t) for t in k.summands}) < len(k.summands)
        assert shared == 6

    @pytest.mark.parametrize("cocycle", ["alpha", "trivial"])
    @pytest.mark.parametrize("n,gens", CONFIGS)
    def test_phi_equals_the_per_orbit_loop(self, n, gens, cocycle):
        G = td.dihedral(n)
        alpha = td.dihedral_alpha(n) if cocycle == "alpha" else td.trivial_cocycle(G)
        A = td.subgroup_closure(G, gens)
        qs = quotient_with_section(G, A)
        rng = np.random.default_rng(37)
        subs = all_subgroups(qs.quotient)
        for _ in range(6):
            x = pullback_to_group(random_gset(qs.quotient, 6, rng, subs), G, qs.projection)
            for s in (x, td.disjoint_union(x, x)):
                assert np.array_equal(phi_matrix(G, A, alpha, s),
                                      phi_matrix_by_orbit(G, A, alpha, s))


class TestQuotientView:
    @pytest.mark.parametrize("n,gens", CONFIGS)
    def test_equals_the_certified_view_on_random_a_trivial_gsets(self, n, gens):
        G, alpha = td.dihedral(n), td.dihedral_alpha(n)
        A = td.subgroup_closure(G, gens)
        qs = quotient_with_section(G, A)
        rng = np.random.default_rng(41)
        subs = all_subgroups(qs.quotient)
        data = _orbit_data(G, A, alpha)
        for _ in range(8):
            x = pullback_to_group(random_gset(qs.quotient, 8, rng, subs), G, qs.projection)
            hand = td.FiniteGSet(G, x.size, np.array(x.action))
            for datum in data:
                want = td.make_gset(datum.q_group, x.action[datum.sections])
                for source in (x, hand):
                    view = gset_as_quotient_action(source, datum)
                    assert view.group is datum.q_group and view.size == want.size
                    assert np.array_equal(view.action, want.action) and view._lawful
            assert hand._lawful

    def test_a_moved_point_an_unlawful_table_or_another_group_is_refused(self, d8, alpha4,
                                                                         a_center):
        datum = _orbit_data(d8, a_center, alpha4)[0]
        with pytest.raises(ANotTrivial):
            gset_as_quotient_action(left_translation_gset(d8), datum)
        table = np.array(swap_gset(d8).action)
        table[1] = [1, 0]                                   # a swaps, a^2 = a a does not
        with pytest.raises(InputError, match="action law fails at"):
            gset_as_quotient_action(td.FiniteGSet(d8, 2, table), datum)
        c8 = td.cyclic(8)
        with pytest.raises(InputError, match="G-set belongs to a different group"):
            gset_as_quotient_action(point_gset(c8), datum)


def count_moved(monkeypatch) -> list:
    """Record (orbit index, witness) for each block computed from now on."""
    calls = []
    honest = kgroups._moved_characters
    monkeypatch.setattr(kgroups, "_moved_characters",
                        lambda *args: calls.append(args[2:4]) or honest(*args))
    return calls


def matrices(G, A, alpha, f, x, y) -> tuple:
    """The pullback along f: x -> y and phi on x, as lists."""
    return (td.pullback_matrix(G, alpha, f, x, y).tolist(),
            td.phi_matrix(G, A, alpha, x).tolist())


class TestMatrixBlocks:
    """pullback_matrix and phi_matrix keep each block in the group's parts,
    keyed by orbit types and witness: a repeated call computes no block, and
    warm, cold and the matrix route give the same matrix."""

    @pytest.mark.parametrize("n,gens,cocycle", [(4, [1], "alpha"), (4, [2], "alpha df"),
                                                (4, [2], "trivial"), (6, [1], "alpha")])
    def test_warm_equals_cold_equals_the_matrix_route(self, n, gens, cocycle, monkeypatch):
        G, alpha = td.dihedral(n), td.dihedral_alpha(n)
        alpha = {"alpha": alpha, "trivial": td.trivial_cocycle(G),
                 "alpha df": coboundary_twist(alpha, 7)}[cocycle]
        A = td.subgroup_closure(G, gens)
        calls = count_moved(monkeypatch)
        runs = []
        for x, y, z, f1, f2 in random_chains(G, A, 4, 43):
            composite = [f2[p] for p in f1]
            for f, s, t in ((f1, x, y), (f2, y, z), (composite, x, z)):
                runs.append((lambda f=f, s=s, t=t: td.pullback_matrix(G, alpha, f, s, t),
                             loop_pullback(G, alpha, f, s, t)))
            runs.append((lambda x=x: td.phi_matrix(G, A, alpha, x), loop_phi(G, A, alpha, x)))
        for call, want in runs:
            first = call()
            made = len(calls)
            assert np.array_equal(call(), first)
            assert len(calls) == made                   # every block was a hit
            assert np.array_equal(first, want)
        assert calls
        for call, want in runs:
            _memo.clear()
            assert np.array_equal(call(), want)

    @pytest.mark.parametrize("gens", [[1], [2]], ids=["<a>", "<a^2>"])
    def test_per_datum_pullbacks_under_beta(self, d8, alpha4, gens, monkeypatch):
        A = td.subgroup_closure(d8, gens)
        maps = [(swap_gset(d8), point_gset(d8), [0, 0])]
        maps += [(x, y, f1) for x, y, _, f1, _ in random_chains(d8, A, 3, 47)]
        calls = count_moved(monkeypatch)
        for datum in orbit_data(action_table(d8, A, alpha4), alpha4):
            Q = datum.q_group
            for x, y, f in maps:
                xq = gset_as_quotient_action(x, datum)
                yq = gset_as_quotient_action(y, datum)
                first = td.pullback_matrix(Q, datum.beta, f, xq, yq)
                made = len(calls)
                assert np.array_equal(td.pullback_matrix(Q, datum.beta, f, xq, yq), first)
                assert len(calls) == made
                assert np.array_equal(first, loop_pullback(Q, datum.beta, f, xq, yq))

    def test_cocycles_seeds_and_tolerances_get_their_own_blocks(self, d8, alpha4, a_center,
                                                                monkeypatch):
        """Each configuration's first call computes its blocks, none read from
        another's, and the G-set's orbits get a block store per configuration."""
        x, y, _, f, _ = next(random_chains(d8, a_center, 1, 53))
        tol = td.default_tolerances()
        configs = [(alpha4, 0, tol), (td.trivial_cocycle(d8), 0, tol),
                   (coboundary_twist(alpha4, 3), 0, tol), (alpha4, 1, tol),
                   (alpha4, 0, tol.scaled(2))]
        calls = count_moved(monkeypatch)
        stores, per_config = set(), 0
        for cocycle, seed, t in configs:
            runs = ((lambda: td.pullback_matrix(d8, cocycle, f, x, y, seed=seed, tol=t),
                     loop_pullback(d8, cocycle, f, x, y)),
                    (lambda: td.phi_matrix(d8, a_center, cocycle, x, seed=seed, tol=t),
                     loop_phi(d8, a_center, cocycle, x)))
            for call, want in runs:
                made = len(calls)
                assert np.array_equal(call(), want)
                assert len(calls) > made
                made = len(calls)
                assert np.array_equal(call(), want)
                assert len(calls) == made
            held = {id(b) for b in td.k0_of_gset(d8, cocycle, x, seed=seed, tol=t)._blocks}
            stores |= held
            per_config += len(held)
        assert len(stores) == per_config

    def test_clearing_the_memo_drops_the_blocks(self, d8, alpha4, a_center, monkeypatch):
        x, y, _, f, _ = next(random_chains(d8, a_center, 1, 59))
        calls = count_moved(monkeypatch)
        first = matrices(d8, a_center, alpha4, f, x, y)
        cold = len(calls)
        assert matrices(d8, a_center, alpha4, f, x, y) == first and len(calls) == cold
        _memo.clear()
        assert matrices(d8, a_center, alpha4, f, x, y) == first and len(calls) == 2 * cold

    @pytest.mark.parametrize("table", ["source", "target", "quotient"])
    def test_a_block_over_a_failed_split_is_not_a_hit(self, d8, alpha4, a_center, table,
                                                      monkeypatch):
        """Marking the splits of one side's tables failed makes the next call
        build those tables again and compute the blocks read from them. The
        source and target tables marked are those the other side does not
        share, so the blocks of the marked side's parts are the only ones
        that can go stale."""
        x, y, _, f, _ = next(random_chains(d8, a_center, 1, 66))
        first = matrices(d8, a_center, alpha4, f, x, y)
        if table == "quotient":
            _, sides = kgroups._decomposed_side(d8, a_center, alpha4, x, 0,
                                                td.default_tolerances())
            tables = [t for *_, kq in sides for t in kq.summands]
        else:
            mine, other = (td.k0_of_gset(d8, alpha4, s).summands
                           for s in ((x, y) if table == "source" else (y, x)))
            tables = [t for t in mine if all(t is not o for o in other)]
        assert tables
        for t in tables:
            t._split.failed = True
        calls = count_moved(monkeypatch)
        assert matrices(d8, a_center, alpha4, f, x, y) == first
        assert calls
        made = len(calls)
        assert matrices(d8, a_center, alpha4, f, x, y) == first and len(calls) == made

