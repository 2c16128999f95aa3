"""Finite groups as dense multiplication tables, subgroups, and quotients.

Elements are dense indices 0..n-1 with the identity forced to index 0,
so tables are canonical and cheap to compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _memo
from .errors import (
    ClosureTooLarge,
    DecompositionFailure,
    InputError,
    NoIdentity,
    NoInverse,
    NotAPermutation,
    NotAssociative,
    NotLatinSquare,
    NotNormal,
)

DEFAULT_CLOSURE_CAP = 10_000


@dataclass(eq=False)
class FiniteGroup:
    """A finite group given by its full multiplication table."""

    order: int
    mul: np.ndarray                # (n, n) int, mul[g, h] = g*h
    inv: np.ndarray                # (n,) int
    labels: tuple[str, ...]
    identity: int = 0

    def __post_init__(self):
        self.mul = np.ascontiguousarray(self.mul, dtype=np.int64)
        self.inv = np.ascontiguousarray(self.inv, dtype=np.int64)
        self.mul.flags.writeable = False
        self.inv.flags.writeable = False

    def multiply(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def conjugate(self, g: int, a: int) -> int:
        """g a g^-1."""
        return int(self.mul[self.mul[g, a], self.inv[g]])

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != self.identity:
            x = int(self.mul[x, g])
            k += 1
        return k

    def power(self, g: int, k: int) -> int:
        """g^k for any integer k, in at most |G| products: k is reduced mod the order of g."""
        x = self.identity
        for _ in range(k % self.element_order(g)):
            x = int(self.mul[x, g])
        return x

    def same_table(self, other: "FiniteGroup") -> bool:
        return self.order == other.order and np.array_equal(self.mul, other.mul)

    @cached_property
    def _content(self) -> bytes:
        """Memo digest of the table, inverses and identity; the labels are left out."""
        return _memo.key("group content", self.mul, self.inv, self.identity)

    @cached_property
    def _generating_set(self) -> tuple[int, ...]:
        """Greedy by smallest missing element from the identity field: the
        generators of _word_generators(mul, identity), grown by subgroup_closure.

        Where the identity field names no identity of the table, {identity}
        is no subgroup, and the greedy starts from its closure instead.
        """
        e = self.identity
        gens: list[int] = []
        current = trivial_subgroup(self) if self.mul[e, e] == e else subgroup_closure(self, ())
        while current.order < self.order:
            gens.append(int(np.argmin(current._index)))     # the first -1: the smallest non-member
            current = subgroup_closure(self, gens)
        return tuple(gens)

    @cached_property
    def _product_plan(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Rounds of (targets, lefts, rights), target = left * right, reaching every element.

        The identity and the generating set are known at the start; each
        round takes, for every element not yet known, one product of two
        known elements. Known words double in length each round, so the
        rounds number about log2 of the longest word.
        """
        known = np.zeros(self.order, dtype=bool)
        known[self.identity] = True
        known[list(self._generating_set)] = True
        rounds = []
        while not known.all():
            elems = np.flatnonzero(known)
            products = self.mul[elems[:, None], elems]
            li, ri = np.nonzero(~known[products])
            targets, first = np.unique(products[li, ri], return_index=True)
            rounds.append((targets, elems[li[first]], elems[ri[first]]))
            known[targets] = True
        return tuple(rounds)

    @cached_property
    def _cyclic_cosets(self) -> tuple[int, np.ndarray]:
        """An element c of maximal order m and the (|G|/m, m) table P[r, j] = c^j P[r, 0].

        Row r is the right coset <c> P[r, 0], an orbit of h -> c h; rows start
        at each coset's smallest member, ascending. The orders come from one
        vectorized power per exponent, over the elements whose order is not
        reached yet. The cosets' minima and their walks come by pointer
        jumping, which doubles the span of c-steps each round.
        """
        e, elems = self.identity, np.arange(self.order)
        alive = elems[elems != e]
        power, c, m = alive, e, 1
        while alive.size:
            c, m = int(alive[0]), m + 1
            power = self.mul[power, alive]
            keep = power != e
            alive, power = alive[keep], power[keep]
        step = self.mul[c]
        first, jump, span = elems, step, 1
        while span < m:         # first[h] = min of c^j h over j < span; jump = h -> c^span h
            first = np.minimum(first, first[jump])
            jump, span = jump[jump], 2 * span
        table, jump = np.flatnonzero(first == elems)[:, None], step
        while table.shape[1] < m:
            table = np.concatenate([table, jump[table]], axis=1)
            jump = jump[jump]
        return c, table[:, :m]

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def _closure(mul: np.ndarray, members: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Grow the boolean mask members, in place, by all products of its elements
    until right products by the seeds add nothing; its elements, ascending.

    Every element added is a product of earlier ones. In a group table, with
    the seeds among the starting members and each starting member a product
    of seeds, the result S is the subgroup <T> the seeds T generate: S lies
    in <T>, and S t = S for each t in T, since right multiplication
    permutes the finite group, so S = S <T> = <T>. A check costs |S| |T|
    products, where one that S is closed under all its products would cost
    |S|^2.
    """
    elems = np.flatnonzero(members)
    while not members[mul[elems[:, None], seeds]].all():
        members[mul[elems[:, None], elems]] = True
        elems = np.flatnonzero(members)
    return elems


def _word_generators(mul: np.ndarray, e: int) -> tuple[int, ...]:
    """A generating set of a table with identity e, greedy by smallest missing element.

    Each step adds the smallest element not yet reached from e and the
    generators so far by products, and closes again (see _closure); the
    first closure is {e} itself when e is the identity. Works on the raw
    table, before a FiniteGroup exists: every element reached is a product
    of e and generators, so products of the result reach the whole table,
    and on a group table the result is generating_set's.
    """
    members = np.zeros(mul.shape[0], dtype=bool)
    members[e] = True
    gens: list[int] = []
    while True:
        _closure(mul, members, np.array([e, *gens]))
        if members.all():
            return tuple(gens)
        g = int(np.argmin(members))
        gens.append(g)
        members[g] = True


def _check_latin(mul: np.ndarray) -> None:
    """Every row and every column is a permutation of 0..n-1.

    The first failure in the order row 0, column 0, row 1, column 1, ... is
    the one reported.
    """
    n = mul.shape[0]
    want = np.arange(n)
    bad_rows = np.flatnonzero((np.sort(mul, axis=1) != want).any(axis=1))
    bad_cols = np.flatnonzero((np.sort(mul, axis=0) != want[:, None]).any(axis=0))
    row = int(bad_rows[0]) if bad_rows.size else n
    col = int(bad_cols[0]) if bad_cols.size else n
    if row < n and row <= col:
        raise NotLatinSquare(f"row {row} is not a permutation of 0..{n - 1}")
    if col < n:
        raise NotLatinSquare(f"column {col} is not a permutation of 0..{n - 1}")


def _find_identity(mul: np.ndarray) -> int:
    n = mul.shape[0]
    want = np.arange(n)
    for e in range(n):
        if np.array_equal(mul[e], want) and np.array_equal(mul[:, e], want):
            return e
    raise NoIdentity("no two-sided identity element found")


def _find_inverses(mul: np.ndarray, e: int) -> np.ndarray:
    """inv[g] is the one h with g h = e, which must also satisfy h g = e."""
    n = mul.shape[0]
    is_e = mul == e
    inv = np.argmax(is_e, axis=1)
    bad = np.flatnonzero((is_e.sum(axis=1) != 1) | (mul[inv, np.arange(n)] != e))
    if bad.size:
        raise NoInverse(f"element {int(bad[0])} has no two-sided inverse")
    return inv


def _check_associative(mul: np.ndarray) -> None:
    """Check (x y) z == x (y z) for every triple of a Latin square with identity at 0.

    The elements a with (x a) y == x (a y) for all x, y are closed under
    products: for such a and b, (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) =
    x((ab)y). The identity is one of them, so checking the middle argument
    on a generating set of the table decides every triple: one (n, n)
    comparison per generator, O(|S| n^2) in place of O(n^3). The triple
    reported has its middle argument in that set.
    """
    for a in _word_generators(mul, 0):
        left = mul[mul[:, a], :]      # [x, y] -> (x a) y
        right = mul[:, mul[a]]        # [x, y] -> x (a y)
        if not np.array_equal(left, right):
            x, y = map(int, np.argwhere(left != right)[0])
            raise NotAssociative(f"({x}*{a})*{y} != {x}*({a}*{y})")


def _validated_group(mul: np.ndarray, labels=None) -> FiniteGroup:
    """Check a table (Latin square, identity, inverses, associativity) and build the group.

    The identity is moved to index 0, and the labels with it. Only tables
    from outside are checked here: subgroup and quotient tables of a
    FiniteGroup are built directly (see SubgroupHandle.as_group and
    quotient_with_section).
    """
    n = mul.shape[0]
    _check_latin(mul)
    e = _find_identity(mul)
    if e != 0:
        # relabel so the identity sits at index 0; the swap is an involution
        perm = np.arange(n)
        perm[0], perm[e] = e, 0
        mul = perm[mul[np.ix_(perm, perm)]]
        if labels is not None:
            labels = [labels[i] for i in perm]
    if labels is None:
        labels = [str(i) for i in range(n)]
    inv = _find_inverses(mul, 0)
    _check_associative(mul)
    return FiniteGroup(order=n, mul=mul, inv=inv, labels=tuple(labels))


def from_multiplication_table(table, labels=None) -> FiniteGroup:
    """Validate a square table of element indices and build the group."""
    mul = np.asarray(table, dtype=np.int64)
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1] or mul.shape[0] < 1:
        raise InputError(f"table must be square and non-empty, got shape {mul.shape}")
    n = mul.shape[0]
    if mul.min() < 0 or mul.max() >= n:
        raise InputError(f"table entries must lie in [0, {n})")
    return _validated_group(mul, labels)


def _compose(p: tuple, q: tuple) -> tuple:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(q)))


def _cycle_label(p: tuple) -> str:
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"


def from_permutation_generators(degree: int, generators,
                                max_order: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Close a set of permutations of {0..degree-1} under composition."""
    if degree < 1:
        raise InputError("degree must be at least 1")
    gens = []
    for p in generators:
        p = tuple(int(x) for x in p)
        if sorted(p) != list(range(degree)):
            raise NotAPermutation(f"{p} is not a permutation of 0..{degree - 1}")
        gens.append(p)
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = _compose(p, q)
                if r not in index:
                    if len(elems) >= max_order:
                        raise ClosureTooLarge(f"closure exceeds {max_order} elements")
                    index[r] = len(elems)
                    elems.append(r)
                    nxt.append(r)
        frontier = nxt
    n = len(elems)
    mul = np.empty((n, n), dtype=np.int64)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            mul[i, j] = index[_compose(p, q)]
    return _validated_group(mul, [_cycle_label(p) for p in elems])


def _dihedral_label(k: int, l: int) -> str:
    parts = []
    if k == 1:
        parts.append("a")
    elif k > 1:
        parts.append(f"a^{k}")
    if l:
        parts.append("b")
    return " ".join(parts) if parts else "1"


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; index(a^k b^l) = k + n*l.

    The element encoding is part of the external contract: cocycle files
    reference it.
    """
    if n < 1:
        raise InputError("dihedral requires n >= 1")
    ks = np.arange(n)
    # l = 0 block rows: a^j * a^k b^m = a^(j+k) b^m
    # l = 1 block rows: a^j b * a^k b^m = a^(j-k) b^(1+m)
    plus = (ks[:, None] + ks[None, :]) % n
    minus = (ks[:, None] - ks[None, :]) % n
    mul = np.empty((2 * n, 2 * n), dtype=np.int64)
    mul[:n, :n] = plus
    mul[:n, n:] = plus + n
    mul[n:, :n] = minus + n
    mul[n:, n:] = minus
    labels = [_dihedral_label(k, l) for l in (0, 1) for k in range(n)]
    return _validated_group(mul, labels)


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n with generator labelled g."""
    if n < 1:
        raise InputError("cyclic requires n >= 1")
    ks = np.arange(n)
    mul = (ks[:, None] + ks[None, :]) % n
    labels = ["1"] + ["g" if k == 1 else f"g^{k}" for k in range(1, n)]
    return _validated_group(mul, labels[:n])


def trivial_group() -> FiniteGroup:
    return cyclic(1)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with index encoding (x, y) -> x*|G2| + y."""
    n1, n2 = g1.order, g2.order
    i1, j1 = np.divmod(np.arange(n1 * n2), n2)
    mul = g1.mul[np.ix_(i1, i1)] * n2 + g2.mul[np.ix_(j1, j1)]
    labels = [f"({g1.labels[a]},{g2.labels[b]})" for a in range(n1) for b in range(n2)]
    return _validated_group(mul, labels)


@dataclass(eq=False)
class SubgroupHandle:
    """A subgroup of a parent group, stored as a sorted index sequence.

    Its own numbering (as_group, position) starts at the parent's identity.
    """

    parent: FiniteGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        self.elements = tuple(sorted(int(x) for x in self.elements))
        G = self.parent
        idx = np.array(self.elements, dtype=np.int64)
        if idx.size and not 0 <= idx[0] <= idx[-1] < G.order:
            bad = idx[0] if idx[0] < 0 else idx[-1]
            raise InputError(f"subgroup element {bad} out of range [0, {G.order})")
        repeated = np.flatnonzero(idx[1:] == idx[:-1])
        if repeated.size:
            raise InputError(f"subgroup element {idx[repeated[0]]} repeated")
        members = np.zeros(G.order, dtype=bool)
        members[idx] = True
        if not members[G.identity]:
            raise InputError("subgroup must contain the identity")
        bad_mul = ~members[G.mul[idx[:, None], idx]]
        if not bad_mul.any():
            return
        # a row a with a * S inside S holds every power of a, so a^-1 too: the
        # first bad product row is the first bad row, and its inverse is named first
        i = int(np.flatnonzero(bad_mul.any(axis=1))[0])
        a = self.elements[i]
        if not members[G.inv[a]]:
            raise InputError(f"subgroup not closed under inverse at element {a}")
        b = self.elements[int(np.argmax(bad_mul[i]))]
        raise InputError(f"subgroup not closed under product at ({a},{b})")

    @classmethod
    def _closed(cls, parent: FiniteGroup, elements: tuple[int, ...]) -> "SubgroupHandle":
        """A handle on ascending elements that are known to form a subgroup of parent.

        Nothing is checked: for a stabilizer of a certified action, or the
        closure that subgroup_closure has just grown.
        """
        handle = cls.__new__(cls)
        handle.parent, handle.elements = parent, elements
        return handle

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def to_parent(self) -> tuple[int, ...]:
        """The subgroup's own numbering as parent indices: the parent's identity
        first, then the other elements ascending. as_group returns it as its map."""
        e = self.parent.identity
        return (e, *(g for g in self.elements if g != e))

    @cached_property
    def _index(self) -> np.ndarray:
        """Parent element -> its position in to_parent, -1 off the subgroup."""
        index = np.full(self.parent.order, -1, dtype=np.int64)
        index[list(self.to_parent)] = np.arange(self.order)
        return index

    def contains(self, g: int) -> bool:
        g = int(g)
        return 0 <= g < self.parent.order and bool(self._index[g] >= 0)

    def position(self, g):
        """Index of a parent element, or of each in an array, in this subgroup's own
        numbering; -1 for an element outside the subgroup."""
        return self._index[g]

    @cached_property
    def _as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        # closed under the parent's product with the identity first (checked
        # in __post_init__): a group by construction, so nothing is re-checked
        G = self.parent
        elems = np.asarray(self.to_parent)
        group = FiniteGroup(order=self.order, mul=self._index[G.mul[np.ix_(elems, elems)]],
                            inv=self._index[G.inv[elems]],
                            labels=tuple(G.labels[a] for a in self.to_parent))
        return group, self.to_parent

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """The subgroup re-indexed 0..m-1, plus the map back to parent indices.

        The map is to_parent: it starts at the parent's identity, so it is a
        homomorphism whatever index that has, and equals elements when it is 0.
        """
        return self._as_group

    def __repr__(self):
        return f"SubgroupHandle(order={self.order}, elements={self.elements})"


def subgroup_closure(G: FiniteGroup, seeds) -> SubgroupHandle:
    """Smallest subgroup of G containing the seed elements.

    Adds all products of the elements found so far until right products by
    the identity and the seeds add nothing new (see _closure); in a finite
    group the products already contain the inverses. The result holds the
    identity and is closed under products, exactly what SubgroupHandle
    checks, so the handle is built unchecked.
    """
    members = np.zeros(G.order, dtype=bool)
    members[G.identity] = True
    for s in seeds:
        s = int(s)
        if not 0 <= s < G.order:
            raise InputError(f"seed {s} out of range")
        members[s] = True
    elems = _closure(G.mul, members, np.flatnonzero(members))
    return SubgroupHandle._closed(G, tuple(elems.tolist()))


def trivial_subgroup(G: FiniteGroup) -> SubgroupHandle:
    return SubgroupHandle(G, (G.identity,))


def full_subgroup(G: FiniteGroup) -> SubgroupHandle:
    return SubgroupHandle(G, tuple(range(G.order)))


def is_normal(G: FiniteGroup, A: SubgroupHandle) -> bool:
    """True iff g a g^-1 lies in A for every g in G, a in A."""
    if A.parent is not G and not A.parent.same_table(G):
        raise InputError("subgroup belongs to a different group")
    members = np.zeros(G.order, dtype=bool)
    members[list(A.elements)] = True
    a_elems = np.asarray(A.elements)
    return bool(members[G.mul[G.mul[:, a_elems], G.inv[:, None]]].all())


def center(G: FiniteGroup) -> SubgroupHandle:
    central = [a for a in range(G.order) if np.array_equal(G.mul[a], G.mul[:, a])]
    return SubgroupHandle(G, tuple(central))


def conjugacy_classes(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Conjugacy classes as sorted tuples, ordered by smallest member."""
    seen = np.zeros(G.order, dtype=bool)
    classes = []
    for g in range(G.order):
        if seen[g]:
            continue
        orbit = {G.conjugate(h, g) for h in range(G.order)}
        for x in orbit:
            seen[x] = True
        classes.append(tuple(sorted(orbit)))
    return classes


def _action_orbits(table: np.ndarray) -> list[tuple[int, ...]]:
    """Orbits of a group action given as a (|G|, m) table, row g = the permutation by g.

    For a group action the orbit of i is the set of column i, so points
    share an orbit exactly when their columns share a minimum. Orbits are
    sorted tuples, ordered by smallest member.
    """
    smallest = np.asarray(table).min(axis=0)
    firsts = np.flatnonzero(smallest == np.arange(smallest.size))
    return [tuple(np.flatnonzero(smallest == p).tolist()) for p in firsts]


def _stabilizer(G: FiniteGroup, table: np.ndarray, point: int) -> SubgroupHandle:
    """The elements of G whose row of the (|G|, m) action table fixes point."""
    return SubgroupHandle(G, tuple(np.flatnonzero(np.asarray(table)[:, point] == point).tolist()))


def generating_set(G: FiniteGroup) -> list[int]:
    """A small generating set, grown greedily by smallest missing element.

    Computed once per group, since the multiplication table is read-only.
    """
    return list(G._generating_set)


def normal_subgroups(G: FiniteGroup, max_order: int | None = None) -> list[SubgroupHandle]:
    """All normal subgroups, as joins of conjugacy-class closures."""
    found: dict[tuple[int, ...], SubgroupHandle] = {}

    def add(h: SubgroupHandle):
        found.setdefault(h.elements, h)

    add(trivial_subgroup(G))
    for cls in conjugacy_classes(G):
        add(subgroup_closure(G, cls))
    changed = True
    while changed:
        changed = False
        existing = list(found.values())
        for h1 in existing:
            for h2 in existing:
                key = tuple(sorted(set(h1.elements) | set(h2.elements)))
                if key in found:
                    continue
                join = subgroup_closure(G, key)
                if join.elements not in found:
                    add(join)
                    changed = True
    subs = sorted(found.values(), key=lambda h: (h.order, h.elements))
    if max_order is not None:
        subs = [h for h in subs if h.order <= max_order]
    return subs


def all_subgroups(G: FiniteGroup) -> list[SubgroupHandle]:
    """Every subgroup, found by one-generator extensions. Desk scale only."""
    found: dict[tuple[int, ...], SubgroupHandle] = {}
    triv = trivial_subgroup(G)
    found[triv.elements] = triv
    frontier = [triv]
    while frontier:
        nxt = []
        for h in frontier:
            for g in range(G.order):
                if h.contains(g):
                    continue
                bigger = subgroup_closure(G, h.elements + (g,))
                if bigger.elements not in found:
                    found[bigger.elements] = bigger
                    nxt.append(bigger)
        frontier = nxt
    return sorted(found.values(), key=lambda h: (h.order, h.elements))


@dataclass(eq=False)
class QuotientWithSection:
    """The quotient G/A with a fixed set-theoretic section sigma: Q -> G.

    Coset 0 is A, and sigma(1) = 1. The other cosets are numbered by their
    smallest element index, which sigma picks. The chi values of every pair
    are gathered into one table on first use and checked once, whole.
    """

    parent: FiniteGroup
    subgroup: SubgroupHandle
    quotient: FiniteGroup
    projection: tuple[int, ...]     # G index -> Q index
    section: tuple[int, ...]        # Q index -> G index

    @cached_property
    def _chi_table(self) -> np.ndarray:
        """chi(q1, q2) for every pair: a read-only (|Q|, |Q|) array of parent indices.

        One gather; a value outside the subgroup anywhere means the section is
        broken, and then no pair has a table.
        """
        G = self.parent
        s = np.asarray(self.section)
        table = G.mul[G.inv[s[self.quotient.mul]], G.mul[s[:, None], s]]
        if np.any(self.subgroup.position(table) < 0):
            raise DecompositionFailure("section is broken: chi value left the subgroup")
        table.flags.writeable = False
        return table


def left_cosets(G: FiniteGroup, H: SubgroupHandle) -> tuple[np.ndarray, np.ndarray]:
    """Left cosets gH: the coset index of every g, and a representative of each coset.

    Coset 0 is H itself, represented by the identity. The other cosets
    follow by ascending smallest member, which represents them. When the
    identity is index 0 this is the order in which an ascending scan of G
    meets the cosets.
    """
    minima = G.mul[:, list(H.elements)].min(axis=1)
    minima[minima == minima[G.identity]] = -1           # H sorts first
    reps = np.flatnonzero(np.bincount(minima + 1)) - 1  # the distinct minima, ascending
    coset_id = np.searchsorted(reps, minima)
    reps[0] = G.identity
    return coset_id, reps


def quotient_with_section(G: FiniteGroup, A: SubgroupHandle) -> QuotientWithSection:
    if not is_normal(G, A):
        raise NotNormal("quotient requires a normal subgroup")
    coset_id, section = left_cosets(G, A)
    qmul = coset_id[G.mul[np.ix_(section, section)]]
    homomorphism = np.array_equal(coset_id[G.mul], qmul[np.ix_(coset_id, coset_id)])
    if not homomorphism or not np.array_equal(np.flatnonzero(coset_id == 0), A.elements):
        raise DecompositionFailure("projection is not a homomorphism with kernel the subgroup")
    # the image of a group under a homomorphism is a group; its identity is
    # the kernel's coset 0 and the inverse of a coset is the coset of an inverse
    quotient = FiniteGroup(order=section.size, mul=qmul, inv=coset_id[G.inv[section]],
                           labels=tuple(f"[{G.labels[s]}]" for s in section))
    return QuotientWithSection(
        parent=G,
        subgroup=A,
        quotient=quotient,
        projection=tuple(coset_id.tolist()),
        section=tuple(section.tolist()),
    )
