"""The content-keyed memo behind irreducibles, cocycle validation and group validation."""

import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import twistdecomp as td
from twistdecomp import _memo, reps
from twistdecomp.cocycles import numeric_from_exact, validate_cocycle_table
from twistdecomp.decomposition import action_table, orbit_data
from twistdecomp.errors import InputError, InvalidCocycle


@pytest.fixture
def splits(monkeypatch):
    """The seeds of every split of a regular representation, in call order."""
    calls = []
    honest = reps._split_regular

    def counted(G, cocycle, seed):
        calls.append(seed)
        return honest(G, cocycle, seed)

    monkeypatch.setattr(reps, "_split_regular", counted)
    return calls


def s4():
    return td.from_permutation_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)])


def induced_beta():
    """An induced cocycle beta (a NumericCocycle) of D_8 under dihedral_alpha(4), A = <a^2>."""
    G, alpha = td.dihedral(4), td.dihedral_alpha(4)
    datum = orbit_data(action_table(G, td.subgroup_closure(G, [2]), alpha), alpha)[0]
    return datum.q_group, datum.beta


def same_content(G, cocycle):
    """New group and cocycle objects with the same tables."""
    H = td.FiniteGroup(order=G.order, mul=np.array(G.mul), inv=np.array(G.inv),
                       labels=G.labels)
    if isinstance(cocycle, td.Cocycle):
        return H, td.Cocycle(H, cocycle.order, np.array(cocycle.exponents))
    return H, td.NumericCocycle(H, np.array(cocycle.table))


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
        assert_identical(first, warm)
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
    """irreducibles(G, cocycle), with every array copied out of the memo."""
    table = td.irreducibles(G, cocycle)
    return td.IrrTable(G, cocycle,
                       [td.ProjectiveRep(G, cocycle, r.dim, np.array(r.matrices))
                        for r in table.irreducibles],
                       [td.AlphaCharacter(np.array(c.values)) for c in table.characters])


def corrupted_alpha4():
    expo = np.array(td.dihedral_alpha(4).exponents)
    expo[1, 3] += 1
    return expo


def klein_bilinear():
    """(x1, y1), (x2, y2) -> x1 y2 on Z_2 x Z_2: a cocycle mod 2, not mod 4."""
    x, y = np.divmod(np.arange(4), 2)
    return np.outer(x, y)


class TestCocycleValidation:
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

    def test_order_is_part_of_the_key(self):
        V = td.direct_product(td.cyclic(2), td.cyclic(2))
        table = klein_bilinear()
        assert validate_cocycle_table(V, 2, table).ok
        assert not validate_cocycle_table(V, 4, table).ok
        assert validate_cocycle_table(V, 2, table).ok

    def test_identity_is_part_of_the_key(self, d8, alpha4):
        assert validate_cocycle_table(d8, 4, alpha4.exponents).ok
        wrong = td.FiniteGroup(order=8, mul=d8.mul, inv=d8.inv, labels=d8.labels, identity=1)
        assert not validate_cocycle_table(wrong, 4, alpha4.exponents).ok
        assert td.validate_numeric_cocycle(numeric_from_exact(alpha4)).ok
        wrong_beta = td.NumericCocycle(wrong, alpha4.complex_table)
        assert not td.validate_numeric_cocycle(wrong_beta).ok

    def test_numeric_tolerance_is_part_of_the_key(self, alpha4):
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
    def test_identity_not_at_zero_warm_equals_cold(self, with_labels):
        table, labels = identity_at_3()
        labels = labels if with_labels else None
        cold = td.from_multiplication_table(np.array(table), labels)
        warm = td.from_multiplication_table(np.array(table), labels)
        assert cold.labels[0] == ("g^0" if with_labels else "0")
        for G in (cold, warm):
            assert G.identity == 0
        assert np.array_equal(cold.mul, warm.mul) and np.array_equal(cold.inv, warm.inv)
        assert cold.labels == warm.labels
        _memo.clear()
        again = td.from_multiplication_table(np.array(table), labels)
        assert again.labels == warm.labels and np.array_equal(again.mul, warm.mul)

    def test_hit_takes_the_callers_labels(self):
        table, labels = identity_at_3()
        td.from_multiplication_table(np.array(table), labels)
        other = [s.upper() for s in labels]
        warm = td.from_multiplication_table(np.array(table), other)
        _memo.clear()
        cold = td.from_multiplication_table(np.array(table), other)
        assert warm.labels == cold.labels == tuple(s.upper() for s in
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
