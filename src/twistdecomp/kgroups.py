"""Twisted equivariant K^0 of finite G-sets.

A bundle over a finite G-set is a per-orbit representation of the orbit's
isotropy group, so K^0 is the direct sum of twisted representation rings of
isotropies. verify_gset_decomposition computes the rank of that group twice:
directly, and through the orbit decomposition over the irreducibles of a
normal subgroup acting trivially, and demands equality.

The integer matrices are read off characters. pullback_matrix moves an
irreducible w of the target isotropy by a witness g and restricts it to the
source isotropy through the moved character

    chi_{g.w}(s) = alpha(g^-1 s, g) alpha(g, g^-1 s)^-1 chi_w(g^-1 s g),

and IrrTable.multiplicities turns a stack of characters into one block of
multiplicities. phi_matrix decomposes each Hom fiber Hom_A(V_tau, W) over
the beta-twisted classes by its character under q.f = W(s) f M_q^-1,
s = sigma(q),

    chi_Hom(q) = (1/|A|) sum_a alpha(s, a^-1) alpha(a, a^-1)^-1 chi_W(s a^-1) tr(tau(a) M_q^H),

which holds because f -> (1/|A|) sum_a W(a)^-1 f tau(a) projects onto
Hom_A and the trace of f -> X f Y is tr X tr Y. W is a moved isotropy
irreducible, so no representation matrix is conjugated or restricted.
Blocks over the same isotropy table are decomposed by one multiplicities
call.

Everything this path derives from irreducible tables is kept once, in
the _memo.parts of the FiniteGroup it belongs to, so it lives as long as
the group (at most _memo.PARTS_PER_OWNER parts, the oldest dropped first)
and _memo.clear() drops it: per (cocycle content, seed, tol) and
stabilizer, the isotropy handle and its summand table (k0_of_gset); per
(A, alpha, seed, tol), the action table (decomposition.action_table) and
the orbit data built on it, with their Hom weights once phi_matrix has
read them (_decomposed_side). The memo's shared store holds only the
irreducible tables themselves, which a new group object of the same
content finds there while it builds its own parts. No part holds a
caller's cocycle, subgroup handle or G-set, and no part holds its own
group: a kept handle, of an isotropy or of an orbit datum, is held off
the group and put back on it by each read, so a group is freed as soon
as its caller drops it. The checks on the caller's objects run on every
call.

The decomposition is natural in X, so each block of the two matrices
depends on orbit types, not on the G-set it came from, and lives in a
part that already exists. A pullback_matrix block is kept with the
source isotropy's summand part, keyed by the target isotropy H_j and the
witness g, the first element of its left coset of H_j; the part's key
holds the cocycle content, seed and tolerances. A phi_matrix block is
kept with its orbit datum, keyed by the G-orbit isotropy H_i and the
witness g: the quotient isotropy of y = g.b is {q : sigma(q) in g H_i g^-1}.
So a part holds at most one block per isotropy group and left coset of
it, and a block dies with its part. A block also holds the summand
tables it was read from and is a hit only while they are the group's
current parts: a table whose split is marked failed, or whose part was
dropped, is built again, and its blocks are computed again. A call still
runs every check and locates every basepoint; misses go through
_fill_blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from . import _memo
from .cocycles import Cocycle, NumericCocycle, _require_on, restrict
from .config import Tolerances, default_tolerances
from .decomposition import (OrbitDatum, _a_parent_order, _conjugation, _hom_weights,
                            action_table, orbit_data)
from .errors import ANotTrivial, InputError, NotEquivariant, RankMismatch
from .groups import (
    FiniteGroup,
    SubgroupHandle,
    _action_orbits,
    _stabilizer,
    all_subgroups,
    generating_set,
    left_cosets,
)
from .reps import IrrTable, irreducibles


@dataclass(eq=False)
class FiniteGSet:
    """A finite set with a left action of a finite group: action[g, x] = g.x.

    Invariant, the action law: the identity fixes every point and
    g.(h.x) = (gh).x. Under it column x of the table is the orbit of x, and
    the stabilizer of a point p is a subgroup (e.p = p, and g.p = h.p = p
    gives (gh).p = g.(h.p) = p), which k0_of_gset relies on. make_gset
    certifies the law (see _check_action) and marks the G-set it builds,
    gset_as_quotient_action marks a view that is lawful by proof, and any
    other G-set is certified on its first use in k0_of_gset. The table is
    read-only, so a certified G-set stays certified.
    """

    group: FiniteGroup
    size: int
    action: np.ndarray              # (|G|, size) int
    _lawful: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        self.action = np.ascontiguousarray(self.action, dtype=np.int64)
        self.action.flags.writeable = False

    def apply(self, g: int, x: int) -> int:
        return int(self.action[g, x])

    def _require_lawful(self) -> None:
        """Certify the action law once per G-set; InputError names the first failure."""
        if not self._lawful:
            _check_action(self.group, self.action)
            if self.size != self.action.shape[1]:
                raise InputError(f"size {self.size} differs from the table's "
                                 f"{self.action.shape[1]} points")
            self._lawful = True


def _check_action(group: FiniteGroup, action: np.ndarray) -> None:
    """Raise InputError unless the (|G|, size) int table is a left action.

    With P(g) the map x -> action[g, x], the law is checked on the
    generators S = generating_set(group): P(1) = id and P(s) o P(h) = P(s h)
    for s in S and every h, one (|S|, |G|, size) comparison. That
    is the whole law, by the proof in decomposition.action_table's
    docstring: every g is a word s_1 ... s_k in S, and by induction on k,
    P(g h) = P(s_1) o P(s_2 ... s_k h) = P(g) o P(h).
    """
    if action.ndim != 2 or action.shape[0] != group.order:
        raise InputError(f"action table must have shape (|G|, size), got {action.shape}")
    size = action.shape[1]
    if size and (action.min() < 0 or action.max() >= size):
        raise InputError("action entries out of range")
    if not np.array_equal(action[group.identity], np.arange(size)):
        raise InputError("identity does not act trivially")
    gens = np.asarray(generating_set(group), dtype=np.int64)
    # [s, h, x]: s.(h.x) against (sh).x
    bad = action[gens[:, None, None], action] != action[group.mul[gens]]
    if bad.any():
        i, h, x = map(int, np.argwhere(bad)[0])
        raise InputError(f"action law fails at g={gens[i]}, h={h}, x={x}")


def make_gset(group: FiniteGroup, action) -> FiniteGSet:
    """Certify the action law and build the G-set, marked as lawful.

    See FiniteGSet for the law and what relies on it.
    """
    action = np.asarray(action, dtype=np.int64)
    _check_action(group, action)
    x = FiniteGSet(group=group, size=action.shape[1], action=action)
    x._lawful = True
    return x


def point_gset(group: FiniteGroup) -> FiniteGSet:
    return make_gset(group, np.zeros((group.order, 1), dtype=np.int64))


def empty_gset(group: FiniteGroup) -> FiniteGSet:
    return FiniteGSet(group=group, size=0,
                      action=np.zeros((group.order, 0), dtype=np.int64))


def left_translation_gset(group: FiniteGroup) -> FiniteGSet:
    return make_gset(group, group.mul)


def coset_gset(group: FiniteGroup, handle: SubgroupHandle) -> FiniteGSet:
    """Left cosets gH with the translation action, numbered as left_cosets does."""
    coset_id, reps = left_cosets(group, handle)
    return make_gset(group, coset_id[group.mul[:, reps]])


def disjoint_union(x1: FiniteGSet, x2: FiniteGSet) -> FiniteGSet:
    if x1.group is not x2.group and not x1.group.same_table(x2.group):
        raise InputError("disjoint union needs G-sets over the same group")
    action = np.concatenate([x1.action, x2.action + x1.size], axis=1)
    return FiniteGSet(group=x1.group, size=x1.size + x2.size, action=action)


def relabel_gset(x: FiniteGSet, perm) -> FiniteGSet:
    """Apply a bijection of points; yields an isomorphic G-set."""
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(x.size)):
        raise InputError("relabelling must be a permutation of the points")
    inv = np.empty_like(perm)
    inv[perm] = np.arange(x.size)
    return FiniteGSet(group=x.group, size=x.size, action=perm[x.action[:, inv]])


def gset_orbits(x: FiniteGSet) -> list[tuple[int, ...]]:
    """Orbits as sorted tuples, ordered by smallest point."""
    return _action_orbits(x.action)


def isotropy_subgroup(x: FiniteGSet, point: int) -> SubgroupHandle:
    return _stabilizer(x.group, x.action, point)


@dataclass(eq=False)
class TwistedKGroup:
    """K^0 of a finite G-set: one twisted representation ring per orbit."""

    gset: FiniteGSet
    cocycle: Cocycle | NumericCocycle
    orbit_basepoints: list[int]
    summands: list[IrrTable]
    # per orbit, from its part: the isotropy handle held off the group (parent None;
    # only elements, to_parent and position work on it, see k0_of_gset), and the blocks
    _kept: list[SubgroupHandle] = field(default_factory=list, repr=False)
    _blocks: list[dict] = field(default_factory=list, repr=False)

    @property
    def rank(self) -> int:
        return sum(len(t) for t in self.summands)

    @cached_property
    def isotropies(self) -> list[SubgroupHandle]:
        """The isotropy handle of each orbit, put back on the G-set's group on
        the first read, with the tables the kept handle has cached; orbits
        with the same isotropy group share one."""
        on_group = {}
        for h in self._kept:
            if id(h) not in on_group:
                on_group[id(h)] = _memo.rebound(h, parent=self.gset.group)
        return [on_group[id(h)] for h in self._kept]

    @cached_property
    def offsets(self) -> np.ndarray:
        """Matrix row of each orbit's first class, then the rank: (#orbits + 1,),
        read-only; computed on the first read, as the summands never change."""
        offsets = np.cumsum([0] + [len(t) for t in self.summands])
        offsets.flags.writeable = False
        return offsets

    def locate(self, point: int) -> tuple[int, int]:
        """(orbit index, first g with g . basepoint = point) for a point of the G-set."""
        orbits, witnesses = self._locate_all([point])
        return orbits[0], witnesses[0]

    def _locate_all(self, points) -> tuple[list[int], list[int]]:
        """locate for each of the points, in two gathers: the orbit indices and
        the witnesses.

        The basepoint of an orbit is its smallest point, and column `point`
        of the action table is the orbit of `point`; the basepoints ascend.
        """
        action = self.gset.action
        points = np.asarray(points, dtype=np.int64)
        bases = action[:, points].min(axis=0)
        return (np.searchsorted(self.orbit_basepoints, bases).tolist(),
                np.argmax(action[:, bases] == points, axis=0).tolist())


def k0_of_gset(G: FiniteGroup, cocycle: Cocycle | NumericCocycle, x: FiniteGSet,
               seed: int = 0, tol: Tolerances | None = None) -> TwistedKGroup:
    """Orbit-by-orbit twisted representation rings at the minimum-index points.

    The action law (see FiniteGSet) is certified once per G-set: by
    make_gset, or here on the G-set's first use, where a table that is not
    an action raises InputError. Under the law column p of the table is the
    orbit of p, so the basepoints are the points that are the minimum of
    their column, and the stabilizers of all basepoints come from one
    comparison, action[:, basepoints] == basepoints. A stabilizer of a
    lawful action is a subgroup, so its handle is built without a closure
    check.

    The summand of an isotropy group is the irreducibles of the isotropy,
    re-indexed as a group, under the cocycle restricted to it. It is kept
    with the isotropy's handle in the parts of the G-set's group, keyed by
    the cocycle's content digest, seed, tolerances and the isotropy as a
    row of G, so every call on the group, over any G-set, shares them:
    kx.summands[i] is the group's, with the store of pullback_matrix blocks
    kept in the same part (kx._blocks[i]), and orbits with the same
    isotropy group share one. The kept handle is held off the group (its
    parent is None), so the part forms no reference cycle with it, and
    kx.isotropies puts it back on the group when first read. The K-group
    matrices read the kept handle as it is (kx._kept[i]), and only its
    elements, to_parent and position: as_group has cached to_parent and
    _index before the handle is held off, and every other read of it
    (contains, as_group on a miss, order checks against the parent) needs
    the parent and fails on None. A part whose split has failed is built
    again.
    Whether the G-set and the cocycle live on G is checked on every call,
    and a failure is never remembered.
    """
    tol = tol or default_tolerances()
    _require_gset_on(x, G)
    H = x.group
    _require_on(cocycle, H)
    x._require_lawful()
    parts = _memo.parts(H)
    basepoints = np.flatnonzero(x.action.min(axis=0) == np.arange(x.size))
    fixes = x.action.T[basepoints] == basepoints[:, None]     # (#orbits, |G|), one row per orbit
    shared = []
    for row in fixes:
        key = (cocycle._content, seed, tol._content, row.tobytes())
        part = parts.get(key)
        if part is None or part[1]._split.failed:
            handle = SubgroupHandle._closed(H, tuple(np.flatnonzero(row).tolist()))
            summand = irreducibles(handle.as_group()[0], restrict(cocycle, handle)[0],
                                   seed=seed, tol=tol)
            part = parts.put(key, (_memo.rebound(handle, parent=None), summand, {}))
        shared.append(part)
    return TwistedKGroup(
        gset=x, cocycle=cocycle, orbit_basepoints=basepoints.tolist(),
        summands=[part[1] for part in shared], _kept=[part[0] for part in shared],
        _blocks=[part[2] for part in shared],
    )


def _require_gset_on(x: FiniteGSet, G: FiniteGroup) -> None:
    if x.group is not G and not x.group.same_table(G):
        raise InputError("G-set belongs to a different group")


def acts_trivially(x: FiniteGSet, A: SubgroupHandle) -> bool:
    return bool(np.all(x.action[list(A.elements)] == np.arange(x.size)))


def gset_as_quotient_action(x: FiniteGSet, datum: OrbitDatum) -> FiniteGSet:
    """View an A-trivial G-set as a Q_[tau]-set through the section: q.p = sigma(q).p.

    The view is lawful by proof, so make_gset's check is not run. x is
    certified (see FiniteGSet), sigma(1) = 1, and
    sigma(q1) sigma(q2) = sigma(q1 q2) chi(q1, q2) with chi(q1, q2) in A,
    as qs._chi_table certifies; A fixes every point, so

        sigma(q1).(sigma(q2).p) = sigma(q1 q2).(chi(q1, q2).p) = sigma(q1 q2).p.

    A G-set of another group raises InputError, one that A moves ANotTrivial.
    """
    _require_gset_on(x, datum.isotropy.parent)
    x._require_lawful()
    if np.any(x.action[list(_a_parent_order(datum))] != np.arange(x.size)):
        raise ANotTrivial("the designated subgroup moves some point of the G-set")
    view = FiniteGSet(group=datum.q_group, size=x.size, action=x.action[datum.sections])
    view._lawful = True
    return view


@dataclass(eq=False)
class GSetDecompositionReport:
    lhs_rank: int
    rhs_ranks: list[int]       # one per orbit of the action on Irr(A)
    ok: bool


def _decomposed_side(G: FiniteGroup, A: SubgroupHandle, alpha: Cocycle, x: FiniteGSet,
                     seed: int, tol: Tolerances
                     ) -> tuple[TwistedKGroup, list[tuple[OrbitDatum, list, TwistedKGroup]]]:
    """K^0_G(X), and per orbit datum the datum, its part [Hom weights or None,
    phi_matrix blocks] and K^0 of X as a Q_[tau]-set twisted by beta.

    The G-set's group (InputError), the trivial action of A (ANotTrivial),
    k0_of_gset's checks, and action_table's checks of the normality of A
    (NotNormal) and the cocycle's group run on every call, in that order.
    The orbit data of the action are kept in G's parts next to it (see the
    module docstring), under A's elements, alpha's content digest, seed
    and tolerances; a miss builds them with orbit_data. A kept datum holds
    its isotropy handle off G, as k0_of_gset holds its handles, and each
    call returns it on G. A datum's Hom weights (elements, weights; see
    decomposition._hom_weights) are filled in by the first phi_matrix that
    reads them.
    """
    _require_gset_on(x, G)
    if not acts_trivially(x, A):
        raise ANotTrivial("the designated subgroup moves some point of the G-set")
    kx = k0_of_gset(G, alpha, x, seed=seed, tol=tol)
    action = action_table(G, A, alpha, seed=seed, tol=tol)
    parts = _memo.parts(G)
    key = ("orbit data", A.elements, alpha._content, seed, tol._content)
    data = parts.get(key)
    if data is None:
        data = parts.put(key, [(_held_off(datum, None), [None, {}])
                               for datum in orbit_data(action, alpha, tol=tol)])
    sides = []
    for kept, part in data:
        datum = _held_off(kept, G)
        sides.append((datum, part, k0_of_gset(datum.q_group, datum.beta,
                                              gset_as_quotient_action(x, datum), seed=seed, tol=tol)))
    return kx, sides


def _held_off(datum: OrbitDatum, G: FiniteGroup | None) -> OrbitDatum:
    """The datum with its isotropy handle on G, or held off its group for None."""
    return _memo.rebound(datum, isotropy=_memo.rebound(datum.isotropy, parent=G))


def verify_gset_decomposition(G: FiniteGroup, A: SubgroupHandle, alpha: Cocycle,
                              x: FiniteGSet, seed: int = 0,
                              tol: Tolerances | None = None) -> GSetDecompositionReport:
    """Check rank(K^0_G(X)) against the sum over orbits of twisted quotient ranks."""
    tol = tol or default_tolerances()
    kx, sides = _decomposed_side(G, A, alpha, x, seed, tol)
    lhs = kx.rank
    rhs_ranks = [kq.rank for *_, kq in sides]
    ok = lhs == sum(rhs_ranks)
    if not ok:
        raise RankMismatch(f"direct rank {lhs} != decomposed rank {sum(rhs_ranks)}")
    return GSetDecompositionReport(lhs_rank=lhs, rhs_ranks=rhs_ranks, ok=ok)


def check_equivariant(f, x: FiniteGSet, y: FiniteGSet) -> tuple[int, ...]:
    fmap = tuple(int(v) for v in f)
    if len(fmap) != x.size or any(not 0 <= v < y.size for v in fmap):
        raise NotEquivariant("map does not send points to points")
    f_arr = np.asarray(fmap, dtype=np.int64)
    bad = np.argwhere(f_arr[x.action] != y.action[:, f_arr])
    if bad.size:
        g, p = bad[0]
        raise NotEquivariant(f"map fails equivariance at g={g}, x={p}")
    return fmap


def pullback_matrix(G: FiniteGroup, cocycle: Cocycle | NumericCocycle, f,
                    x: FiniteGSet, y: FiniteGSet, seed: int = 0,
                    tol: Tolerances | None = None) -> np.ndarray:
    """Integer matrix of the pullback K^0(Y) -> K^0(X) along an equivariant map.

    Rows run over the source basis, columns over the target basis. Entry =
    multiplicity of the source-isotropy irreducible u in the restriction of
    the target-isotropy irreducible w, moved by a witness g with
    g . basepoint = f(source basepoint). It is read off the moved character

        chi_{g.w}(s) = alpha(g^-1 s, g) alpha(g, g^-1 s)^-1 chi_w(g^-1 s g)

    on the source isotropy, one block of the matrix per source orbit, or
    copied from the block the group keeps for the same source isotropy,
    target isotropy and witness (see the module docstring).
    Both G-sets must belong to G (InputError) before the map is checked.
    """
    tol = tol or default_tolerances()
    _require_gset_on(x, G)
    _require_gset_on(y, G)
    fmap = check_equivariant(f, x, y)
    kx = k0_of_gset(G, cocycle, x, seed=seed, tol=tol)
    ky = k0_of_gset(G, cocycle, y, seed=seed, tol=tol)
    out = np.zeros((kx.rank, ky.rank), dtype=np.int64)
    rows, cols = kx.offsets, ky.offsets
    blocks, misses = [], []
    located = ky._locate_all([fmap[xp] for xp in kx.orbit_basepoints])
    for i, (j, witness) in enumerate(zip(*located)):
        r, c = slice(rows[i], rows[i + 1]), slice(cols[j], cols[j + 1])
        key, made_from = (ky._kept[j].elements, witness), (ky.summands[j],)
        if _read_block(out, kx._blocks[i], key, made_from, r, c):
            continue
        moved = _moved_characters(cocycle, ky, j, witness, kx._kept[i].to_parent)
        blocks.append((kx.summands[i], moved, r, c))
        misses.append((kx._blocks[i], key, made_from, r, c))
    _fill_blocks(out, blocks, tol.char)
    _store_blocks(out, misses)
    return out


def _read_block(out: np.ndarray, stored: dict, key, made_from: tuple, r: slice, c: slice) -> bool:
    """Whether stored holds a block under key computed from the tables in
    made_from, the current parts; if so it is copied into out[r, c]."""
    hit = stored.get(key)
    if hit is None or any(a is not b for a, b in zip(hit[0], made_from)):
        return False
    out[r, c] = hit[1]
    return True


def _store_blocks(out: np.ndarray, misses) -> None:
    """Keep out[r, c] under key in stored, with the tables it was computed from,
    for each (stored, key, made_from, r, c) in misses."""
    for stored, key, made_from, r, c in misses:
        block = out[r, c].copy()
        block.flags.writeable = False
        stored[key] = (made_from, block)


def _fill_blocks(out: np.ndarray, blocks, tol: float) -> None:
    """out[r, c] = table.multiplicities(chars).T for each (table, chars, r, c)
    in blocks, with one multiplicities call per table."""
    by_table: dict[int, tuple[IrrTable, list]] = {}
    for table, chars, r, c in blocks:
        by_table.setdefault(id(table), (table, []))[1].append((chars, r, c))
    for table, items in by_table.values():
        mult = table.multiplicities(np.concatenate([chars for chars, _, _ in items]), tol)
        start = 0
        for chars, r, c in items:
            out[r, c] = mult[start:start + len(chars)].T
            start += len(chars)


def _moved_characters(cocycle, k: TwistedKGroup, i: int, g: int, elements) -> np.ndarray:
    """chi_{g.w}(h) for every irreducible w of orbit i's isotropy and h in elements.

    The result has shape (#w, *elements.shape).
    """
    back, scale = _conjugation(cocycle, g, elements)
    at_back = k._kept[i].position(back)
    return scale * k.summands[i].character_values[:, at_back]


def phi_matrix(G: FiniteGroup, A: SubgroupHandle, alpha: Cocycle, x: FiniteGSet,
               seed: int = 0, tol: Tolerances | None = None) -> np.ndarray:
    """Integer matrix of the decomposition isomorphism on K^0 of a finite G-set.

    Columns run over the direct basis (G-orbit, isotropy irreducible); rows
    over the decomposed basis (orbit datum, quotient-set orbit, beta-twisted
    class). Entries are multiplicities of Hom fibers at basepoints. The
    fiber of w at a quotient-set basepoint y = g . p is the moved w, so its
    character on the quotient isotropy of y is, with s = sigma(q),

        chi_Hom(q) = (1/|A|) sum_a alpha(s, a^-1) alpha(a, a^-1)^-1 chi_{g.w}(s a^-1) tr(tau(a) M_q^H),

    with chi_{g.w} the moved character of pullback_matrix. The fibers of
    all isotropy irreducibles at a quotient-set basepoint form one block,
    kept with the orbit datum under the G-orbit isotropy and the witness g
    (see the module docstring), and one IrrTable.multiplicities call
    decomposes all blocks that miss over the same quotient isotropy table.
    """
    tol = tol or default_tolerances()
    kx, sides = _decomposed_side(G, A, alpha, x, seed, tol)
    out = np.zeros((sum(kq.rank for *_, kq in sides), kx.rank), dtype=np.int64)
    cols = kx.offsets
    row_base = 0
    blocks, misses = [], []
    for datum, part, kq in sides:
        if part[0] is None:
            part[0] = _hom_weights(datum, alpha)
        elements, weights = part[0]
        rows = row_base + kq.offsets
        for qo, (i, witness) in enumerate(zip(*kx._locate_all(kq.orbit_basepoints))):
            r, c = slice(rows[qo], rows[qo + 1]), slice(cols[i], cols[i + 1])
            key = (kx._kept[i].elements, witness)
            made_from = (kx.summands[i], kq.summands[qo])
            if _read_block(out, part[1], key, made_from, r, c):
                continue
            q_iso = list(kq._kept[qo].elements)
            moved = _moved_characters(alpha, kx, i, witness, elements[q_iso])
            blocks.append((kq.summands[qo], np.sum(moved * weights[q_iso], axis=2), r, c))
            misses.append((part[1], key, made_from, r, c))
        row_base = rows[-1]
    _fill_blocks(out, blocks, tol.char)
    _store_blocks(out, misses)
    return out


def random_gset(group: FiniteGroup, max_size: int, rng: np.random.Generator,
                subgroups: list[SubgroupHandle] | None = None) -> FiniteGSet:
    """A random disjoint union of coset spaces with at most max_size points."""
    if max_size < 1:
        raise InputError("max_size must be at least 1")
    if subgroups is None:
        subgroups = all_subgroups(group)
    pieces = []
    budget = max_size
    while True:
        candidates = [h for h in subgroups if group.order // h.order <= budget]
        if not candidates or (pieces and rng.random() < 0.35):
            break
        h = candidates[int(rng.integers(len(candidates)))]
        pieces.append(coset_gset(group, h))
        budget -= group.order // h.order
    if not pieces:
        raise InputError(f"no given subgroup has index at most {max_size}")
    x = reduce(disjoint_union, pieces)
    perm = rng.permutation(x.size)
    return relabel_gset(x, perm)


def random_cover(base: FiniteGSet, rng: np.random.Generator,
                 subgroups: list[SubgroupHandle] | None = None
                 ) -> tuple[FiniteGSet, tuple[int, ...]]:
    """A random G-set covering `base`, with the equivariant covering map.

    For every orbit of the base with stabilizer S, picks a random subgroup
    T of S and maps the coset orbit by T canonically onto the base orbit.
    """
    G = base.group
    if subgroups is None:
        subgroups = all_subgroups(G)
    pieces = []
    maps = []
    for orbit in gset_orbits(base):
        p = orbit[0]
        stab_set = set(isotropy_subgroup(base, p).elements)
        inside = [h for h in subgroups if set(h.elements) <= stab_set]
        if not inside:
            raise InputError(f"no given subgroup lies in the stabilizer of point {p}")
        t = inside[int(rng.integers(len(inside)))]
        # the coset of g maps to g.p
        _, reps = left_cosets(G, t)
        maps.append(base.action[reps, p].tolist())
        pieces.append(coset_gset(G, t))
    x = reduce(disjoint_union, pieces, empty_gset(G))
    fmap = [v for piece_map in maps for v in piece_map]
    perm = rng.permutation(x.size)
    relabelled = relabel_gset(x, perm)
    out_map = [0] * x.size
    for old, new in enumerate(perm):
        out_map[int(new)] = fmap[old]
    return relabelled, tuple(out_map)


def pullback_to_group(xq: FiniteGSet, G: FiniteGroup, projection) -> FiniteGSet:
    """Turn a Q-set into a G-set along a projection G -> Q."""
    return make_gset(G, xq.action[list(projection)])
