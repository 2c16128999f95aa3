"""The dense split keeps no |G|^2 array past a call and bounds its temporaries.

A Cocycle stores its exponents and, where they take no more bytes, its K
roots; complex_table must equal the closed form bit for bit, whatever K.
The chunked loops of a split (_relation_residuals, _block_matrices,
_conjugation_weights) must give the same bits for every chunk size, and a
failed split attempt must free its arrays before the next seed runs.
"""

import gc
import math
import weakref

import numpy as np
import pytest

import twistdecomp as td
from twistdecomp import reps
from twistdecomp.errors import SplitFailure

from test_split import SPLIT_CASES


def closed_form(cocycle):
    return np.exp(2j * np.pi * cocycle.exponents / cocycle.order)


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def product_cocycle(f1, f2):
    """(G1 x G2, alpha1 x alpha2) from two (group, cocycle or None) factors, index x*|G2| + y.

    The construction of the benchmark's product cases, rebuilt here.
    """
    (G1, a1), (G2, a2) = f1, f2
    G = td.direct_product(G1, G2)
    k1, k2 = (a.order if a is not None else 1 for a in (a1, a2))
    k = math.lcm(k1, k2)
    i, j = np.divmod(np.arange(G.order), G2.order)
    expo = np.zeros((G.order, G.order), dtype=np.int64)
    if a1 is not None:
        expo += a1.exponents[np.ix_(i, i)] * (k // k1)
    if a2 is not None:
        expo += a2.exponents[np.ix_(j, j)] * (k // k2)
    return G, td.make_cocycle(G, k, expo)


def factor(kind, n, twisted):
    if kind == "C":
        return td.cyclic(n), None
    return td.dihedral(n), td.dihedral_alpha(n) if twisted else None


PRODUCTS = {
    "D8xD16": (("D", 4, False), ("D", 8, False)),
    "C4xD32": (("C", 4, False), ("D", 16, False)),
    "D8xD16 alpha x 1": (("D", 4, True), ("D", 8, False)),
    "C2xD64 1 x alpha": (("C", 2, False), ("D", 32, True)),
    "C8xD16 1 x alpha": (("C", 8, False), ("D", 8, True)),
    "D16xD8 alpha x alpha": (("D", 8, True), ("D", 4, True)),
    "D8xD8": (("D", 4, False), ("D", 4, False)),
    "D8xD8 alpha x alpha": (("D", 4, True), ("D", 4, True)),
    "C2xD32": (("C", 2, False), ("D", 16, False)),
    "C4xD16 1 x alpha": (("C", 4, False), ("D", 8, True)),
    "C8xD8": (("C", 8, False), ("D", 4, False)),
    "D4xD16 alpha x alpha": (("D", 2, True), ("D", 8, True)),
}


class TestComplexTable:
    def test_dihedral_alpha_up_to_order_512(self):
        for n in range(2, 257, 2):
            alpha = td.dihedral_alpha(n)
            assert same_bits(alpha.complex_table, closed_form(alpha)), n

    @pytest.mark.parametrize("name", PRODUCTS)
    def test_product_cocycles(self, name):
        _, alpha = product_cocycle(*(factor(*f) for f in PRODUCTS[name]))
        assert same_bits(alpha.complex_table, closed_form(alpha))

    @pytest.mark.parametrize("n", [4, 6, 12, 24])
    def test_restrictions(self, n):
        G, alpha = td.dihedral(n), td.dihedral_alpha(n)
        for gens in ([1], [2], [n], [2, n], [1, n]):
            sub, _ = td.restrict(alpha, td.subgroup_closure(G, gens))
            assert same_bits(sub.complex_table, closed_form(sub)), gens

    @pytest.mark.parametrize("K", [32, 36, 1000, 10**12])
    def test_roots_cached_only_when_no_larger_than_the_exponents(self, K):
        base = td.dihedral_alpha(4)          # |G|^2 = 64 exponents
        alpha = td.make_cocycle(base.group, K, base.exponents * (K // base.order))
        assert (alpha._roots is None) == (K > 32)
        assert same_bits(alpha.complex_table, closed_form(alpha))
        picked = np.array([[1, 2], [3, 5]])
        assert same_bits(alpha.values(picked, 4), closed_form(alpha)[picked, 4])

    def test_read_only_and_never_cached(self, alpha4):
        table = alpha4.complex_table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 2.0
        assert alpha4.complex_table is not table
        assert "complex_table" not in vars(alpha4)

    @pytest.mark.parametrize("exact", [True, False])
    def test_values_gather_the_entries_asked_for(self, alpha4, exact):
        cocycle = alpha4 if exact else td.make_numeric_cocycle(alpha4.group, alpha4.complex_table)
        g = np.array([[1], [5], [7]])
        h = np.array([0, 3, 4, 6])
        assert same_bits(cocycle.values(g, h), cocycle.complex_table[g, h])
        assert cocycle.values(5, 6) == cocycle.complex_table[5, 6]

    @pytest.mark.parametrize("name", ["D64 alpha", "D8xD16 alpha x 1"])
    def test_nothing_larger_than_the_exponents_is_kept(self, name):
        G, alpha = (td.dihedral(32), td.dihedral_alpha(32)) if name == "D64 alpha" \
            else product_cocycle(*(factor(*f) for f in PRODUCTS[name]))
        td.irreducibles(G, alpha)
        stored = [v for v in vars(alpha).values() if isinstance(v, np.ndarray)]
        assert max(a.nbytes for a in stored) == alpha.exponents.nbytes
        assert alpha._roots.shape == (alpha.order,)


def per_pair_residuals(G, ctable, mats, lefts):
    """The relation residual of every (entry, s, h), one matrix product at a time."""
    out = np.empty((len(mats), len(lefts), G.order))
    for c, rho in enumerate(mats):
        for j, s in enumerate(lefts):
            for h in range(G.order):
                diff = rho[s] @ rho[h] - ctable[s, h] * rho[G.mul[s, h]]
                out[c, j, h] = np.max(np.abs(diff))
    return out


class TestChunkedRelationResiduals:
    @pytest.mark.parametrize("chunk", [1, 40, 100])
    def test_equals_the_per_pair_reference(self, monkeypatch, chunk):
        G, alpha = td.dihedral(6), td.dihedral_alpha(6)
        table = td.irreducibles(G, alpha)
        mats = np.stack([r.matrices for r in table.irreducibles])    # 3 entries of dimension 2
        ctable = alpha.complex_table
        lefts = list(range(G.order))
        whole = reps._relation_residuals(G, ctable, mats, lefts)
        monkeypatch.setattr(reps, "_CHUNK", chunk)     # 48 entries per representation
        got = reps._relation_residuals(G, ctable, mats, lefts)
        assert same_bits(got, whole)
        assert np.allclose(got, per_pair_residuals(G, ctable, mats, lefts), rtol=0, atol=1e-14)

    def test_a_nan_stays_in_its_entry(self, monkeypatch):
        G, alpha = td.dihedral(8), td.dihedral_alpha(8)
        mats = np.stack([r.matrices for r in td.irreducibles(G, alpha).irreducibles])
        mats[2, 5, 1, 0] = np.nan
        monkeypatch.setattr(reps, "_CHUNK", 2 * 2 * G.order * 2)    # two entries per chunk
        got = reps._relation_residuals(G, alpha.complex_table, mats, range(G.order))
        assert np.isnan(got[2]).any()
        assert not np.isnan(np.delete(got, 2, axis=0)).any()
        assert np.all(np.delete(got, 2, axis=0) <= 1e-12)


class TestChunkSize:
    @pytest.mark.parametrize("name", ["S4", "C2xD8 alpha", "C3xC3 heisenberg", "D12 alpha"])
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_the_split_does_not_depend_on_it(self, monkeypatch, name, chunk):
        G, alpha = SPLIT_CASES[name]()
        for cocycle in (alpha, td.make_numeric_cocycle(G, alpha.complex_table)):
            want = td.irreducibles(G, cocycle)
            td._memo.clear()
            monkeypatch.setattr(reps, "_CHUNK", chunk)
            got = td.irreducibles(G, cocycle)
            monkeypatch.undo()
            assert same_bits(got.character_values, want.character_values)
            for r1, r2 in zip(got.irreducibles, want.irreducibles):
                assert same_bits(r1.matrices, r2.matrices)


@pytest.fixture
def no_cyclic_gc():
    """Only reference counts free objects, so an array kept by a reference cycle stays alive."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestFailedAttempt:
    def test_arrays_are_freed_before_the_next_seed(self, monkeypatch, d8, alpha4, no_cyclic_gc):
        """The first attempt fails holding its V; the next split must start without it."""
        honest_split, honest_assemble = reps._split_regular, reps._assemble_table
        split_vectors, alive_at_retry = [], []

        def split(*args):
            alive_at_retry.extend(ref() is not None for ref in split_vectors)
            return honest_split(*args)

        def assemble(*args):
            if not split_vectors:
                split_vectors.append(weakref.ref(args[-4]))     # V
                raise SplitFailure("forced failure of the first attempt")
            return honest_assemble(*args)

        monkeypatch.setattr(reps, "_split_regular", split)
        monkeypatch.setattr(reps, "_assemble_table", assemble)
        table = td.irreducibles(d8, alpha4, seed=0)
        assert table.dims == (2, 2)
        assert alive_at_retry == [False]

    def test_the_chained_message_is_kept(self, monkeypatch, d8, alpha4):
        monkeypatch.setattr(reps, "_cluster_sorted", lambda w: [np.arange(w.size)])
        with pytest.raises(SplitFailure, match="no clean split after 5 seeds") as err:
            td.irreducibles(d8, alpha4, seed=0)
        cause = err.value.__cause__
        assert isinstance(cause, SplitFailure) and "block characters" in str(cause)
        assert cause.__traceback__ is None
