"""Twisted equivariant K^0 of finite G-sets.

A bundle over a finite G-set is a per-orbit representation of the orbit's
isotropy group, so K^0 is the direct sum of twisted representation rings of
isotropies. verify_gset_decomposition computes the rank of that group twice:
directly, and through the orbit decomposition over the irreducibles of a
normal subgroup acting trivially, and demands equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycles import Cocycle, NumericCocycle, restrict
from .config import Tolerances, default_tolerances
from .decomposition import (
    OrbitDatum,
    _hom_action,
    action_table,
    conjugate_rep,
    orbit_data,
)
from .errors import ANotTrivial, InputError, NotEquivariant, NotIsotypic, RankMismatch
from .groups import (
    FiniteGroup,
    SubgroupHandle,
    _action_orbits,
    _stabilizer,
    all_subgroups,
    left_cosets,
)
from .reps import (
    IrrTable,
    ProjectiveRep,
    irreducibles,
    multiplicity,
    restrict_rep,
)


@dataclass(eq=False)
class FiniteGSet:
    """A finite set with a left action of a finite group."""

    group: FiniteGroup
    size: int
    action: np.ndarray              # (|G|, size) int

    def __post_init__(self):
        self.action = np.ascontiguousarray(self.action, dtype=np.int64)
        self.action.flags.writeable = False

    def apply(self, g: int, x: int) -> int:
        return int(self.action[g, x])

    def points(self) -> range:
        return range(self.size)


def make_gset(group: FiniteGroup, action) -> FiniteGSet:
    """Validate the action laws exhaustively and build the G-set."""
    action = np.asarray(action, dtype=np.int64)
    n = group.order
    if action.ndim != 2 or action.shape[0] != n:
        raise InputError(f"action table must have shape (|G|, size), got {action.shape}")
    size = action.shape[1]
    if size and (action.min() < 0 or action.max() >= size):
        raise InputError("action entries out of range")
    if not np.array_equal(action[group.identity], np.arange(size)):
        raise InputError("identity does not act trivially")
    if size:
        composed = action[:, action]                  # [g, h, x] = g.(h.x)
        direct = action[group.mul.reshape(-1)].reshape(n, n, size)
        if not np.array_equal(composed, direct):
            g, h, x = map(int, np.argwhere(composed != direct)[0])
            raise InputError(f"action law fails at g={g}, h={h}, x={x}")
    return FiniteGSet(group=group, size=size, action=action)


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
    isotropies: list[SubgroupHandle]
    summands: list[IrrTable]

    @property
    def rank(self) -> int:
        return sum(len(t) for t in self.summands)

    def basis(self) -> list[tuple[int, int]]:
        """(orbit index, class index) pairs in matrix order."""
        out = []
        for i, table in enumerate(self.summands):
            out.extend((i, j) for j in range(len(table)))
        return out


def k0_of_gset(G: FiniteGroup, cocycle: Cocycle | NumericCocycle, x: FiniteGSet,
               seed: int = 0, tol: Tolerances | None = None) -> TwistedKGroup:
    """Orbit-by-orbit twisted representation rings at the minimum-index points."""
    tol = tol or default_tolerances()
    if x.group is not G and not x.group.same_table(G):
        raise InputError("G-set belongs to a different group")
    basepoints = []
    isotropies = []
    summands = []
    for orbit in gset_orbits(x):
        p = orbit[0]
        handle = isotropy_subgroup(x, p)
        sub_cocycle, _ = restrict(cocycle, handle, tol)
        sub_group, _ = handle.as_group()
        basepoints.append(p)
        isotropies.append(handle)
        summands.append(irreducibles(sub_group, sub_cocycle, seed=seed, tol=tol))
    return TwistedKGroup(
        gset=x, cocycle=cocycle, orbit_basepoints=basepoints,
        isotropies=isotropies, summands=summands,
    )


def acts_trivially(x: FiniteGSet, A: SubgroupHandle) -> bool:
    ident = np.arange(x.size)
    return all(np.array_equal(x.action[a], ident) for a in A.elements)


def gset_as_quotient_action(x: FiniteGSet, datum: OrbitDatum) -> FiniteGSet:
    """View an A-trivial G-set as a Q_[tau]-set through the section."""
    q_group = datum.q_group
    action = np.empty((q_group.order, x.size), dtype=np.int64)
    for q in range(q_group.order):
        action[q] = x.action[datum.section_in_g(q)]
    return make_gset(q_group, action)


@dataclass(eq=False)
class GSetDecompositionReport:
    lhs_rank: int
    rhs_ranks: list[int]       # one per orbit of the action on Irr(A)
    ok: bool


def verify_gset_decomposition(G: FiniteGroup, A: SubgroupHandle, alpha: Cocycle,
                              x: FiniteGSet, seed: int = 0,
                              tol: Tolerances | None = None) -> GSetDecompositionReport:
    """Check rank(K^0_G(X)) against the sum over orbits of twisted quotient ranks."""
    tol = tol or default_tolerances()
    if not acts_trivially(x, A):
        raise ANotTrivial("the designated subgroup moves some point of the G-set")
    lhs = k0_of_gset(G, alpha, x, seed=seed, tol=tol).rank
    action = action_table(G, A, alpha, seed=seed, tol=tol)
    data = orbit_data(action, alpha, tol=tol)
    rhs_ranks = []
    for datum in data:
        xq = gset_as_quotient_action(x, datum)
        rhs_ranks.append(k0_of_gset(datum.q_group, datum.beta, xq, seed=seed, tol=tol).rank)
    ok = lhs == sum(rhs_ranks)
    if not ok:
        raise RankMismatch(f"direct rank {lhs} != decomposed rank {sum(rhs_ranks)}")
    return GSetDecompositionReport(lhs_rank=lhs, rhs_ranks=rhs_ranks, ok=ok)


def check_equivariant(f, x: FiniteGSet, y: FiniteGSet) -> tuple[int, ...]:
    fmap = tuple(int(v) for v in f)
    if len(fmap) != x.size or any(not 0 <= v < y.size for v in fmap):
        raise NotEquivariant("map does not send points to points")
    for g in range(x.group.order):
        for p in range(x.size):
            if fmap[x.apply(g, p)] != y.apply(g, fmap[p]):
                raise NotEquivariant(f"map fails equivariance at g={g}, x={p}")
    return fmap


def _conjugated_restriction(cocycle, witness: int, target_iso: SubgroupHandle,
                            w_rep: ProjectiveRep, source_iso: SubgroupHandle,
                            tol: Tolerances) -> ProjectiveRep:
    """Transport a target-isotropy irreducible to the source isotropy.

    Conjugates by the witness (giving a representation of the stabilizer of
    the image point) and restricts along the inclusion of the source
    stabilizer.
    """
    big_handle, moved = conjugate_rep(cocycle, target_iso, witness, w_rep, tol=tol)
    positions = tuple(big_handle.position(g) for g in source_iso.elements)
    inner = SubgroupHandle(big_handle.as_group()[0], positions)
    return restrict_rep(moved, inner, tol=tol)


def pullback_matrix(G: FiniteGroup, cocycle: Cocycle | NumericCocycle, f,
                    x: FiniteGSet, y: FiniteGSet, seed: int = 0,
                    tol: Tolerances | None = None) -> np.ndarray:
    """Integer matrix of the pullback K^0(Y) -> K^0(X) along an equivariant map.

    Rows run over the source basis, columns over the target basis. Entry =
    multiplicity of the source-isotropy irreducible in the restriction of
    the (witness-conjugated) target-isotropy irreducible.
    """
    tol = tol or default_tolerances()
    fmap = check_equivariant(f, x, y)
    kx = k0_of_gset(G, cocycle, x, seed=seed, tol=tol)
    ky = k0_of_gset(G, cocycle, y, seed=seed, tol=tol)
    out = np.zeros((kx.rank, ky.rank), dtype=np.int64)
    row_offsets = np.cumsum([0] + [len(t) for t in kx.summands])
    col_offsets = np.cumsum([0] + [len(t) for t in ky.summands])
    y_orbits = gset_orbits(y)
    for i, xp in enumerate(kx.orbit_basepoints):
        image = fmap[xp]
        j = next(k for k, orb in enumerate(y_orbits) if image in orb)
        yp = ky.orbit_basepoints[j]
        witness = int(np.flatnonzero(y.action[:, yp] == image)[0])
        src_iso = kx.isotropies[i]
        for w_idx, w_rep in enumerate(ky.summands[j].irreducibles):
            pulled = _conjugated_restriction(
                cocycle, witness, ky.isotropies[j], w_rep, src_iso, tol
            )
            for u_idx, u_rep in enumerate(kx.summands[i].irreducibles):
                out[row_offsets[i] + u_idx, col_offsets[j] + w_idx] = multiplicity(
                    pulled, u_rep, tol
                )
    return out


def phi_matrix(G: FiniteGroup, A: SubgroupHandle, alpha: Cocycle, x: FiniteGSet,
               seed: int = 0, tol: Tolerances | None = None) -> np.ndarray:
    """Integer matrix of the decomposition isomorphism on K^0 of a finite G-set.

    Columns run over the direct basis (G-orbit, isotropy irreducible); rows
    over the decomposed basis (orbit datum, quotient-set orbit, beta-twisted
    class). Entries are multiplicities of Hom fibers at basepoints.
    """
    tol = tol or default_tolerances()
    if not acts_trivially(x, A):
        raise ANotTrivial("the designated subgroup moves some point of the G-set")
    kx = k0_of_gset(G, alpha, x, seed=seed, tol=tol)
    action = action_table(G, A, alpha, seed=seed, tol=tol)
    data = orbit_data(action, alpha, tol=tol)
    col_offsets = np.cumsum([0] + [len(t) for t in kx.summands])
    x_orbits = gset_orbits(x)

    rows = []
    for datum in data:
        xq = gset_as_quotient_action(x, datum)
        kq = k0_of_gset(datum.q_group, datum.beta, xq, seed=seed, tol=tol)
        rows.append((datum, xq, kq))
    total_rows = sum(kq.rank for _, _, kq in rows)
    out = np.zeros((total_rows, kx.rank), dtype=np.int64)

    row_base = 0
    for datum, xq, kq in rows:
        for qo_idx, y_point in enumerate(kq.orbit_basepoints):
            qiso = kq.isotropies[qo_idx]              # handle on the quotient group
            beta_table = kq.summands[qo_idx]
            i = next(k for k, orb in enumerate(x_orbits) if y_point in orb)
            xp = kx.orbit_basepoints[i]
            witness = int(np.flatnonzero(x.action[:, xp] == y_point)[0])
            for w_idx, w_rep in enumerate(kx.summands[i].irreducibles):
                col = col_offsets[i] + w_idx
                fiber_handle, fiber = conjugate_rep(
                    alpha, kx.isotropies[i], witness, w_rep, tol=tol
                )
                entries = _hom_fiber_multiplicities(
                    datum, fiber_handle, fiber, qiso, beta_table, tol
                )
                for u_idx, mult in enumerate(entries):
                    out[row_base + _row_offset(kq, qo_idx) + u_idx, col] = mult
        row_base += kq.rank
    return out


def _row_offset(kq: TwistedKGroup, orbit_index: int) -> int:
    return sum(len(t) for t in kq.summands[:orbit_index])


def _hom_fiber_multiplicities(datum: OrbitDatum, fiber_handle: SubgroupHandle,
                              fiber: ProjectiveRep, qiso: SubgroupHandle,
                              beta_table: IrrTable, tol: Tolerances) -> list[int]:
    """Decompose the Hom fiber at a point over the restricted beta classes."""
    pos = {g: i for i, g in enumerate(fiber_handle.elements)}

    def w_lookup(g_parent: int) -> np.ndarray:
        return fiber.matrices[pos[g_parent]]

    q_list = list(qiso.elements)
    try:
        _, mats = _hom_action(datum, w_lookup, q_list, tol)
    except NotIsotypic:
        return [0] * len(beta_table)
    sub_group, sub_map = qiso.as_group()
    stacked = np.stack([mats[q] for q in sub_map])
    rep = ProjectiveRep(sub_group, beta_table.cocycle, stacked.shape[1], stacked)
    return [multiplicity(rep, u, tol) for u in beta_table.irreducibles]


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
    x = pieces[0]
    for p in pieces[1:]:
        x = disjoint_union(x, p)
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
        stab = isotropy_subgroup(base, p)
        stab_set = set(stab.elements)
        inside = [h for h in subgroups if set(h.elements) <= stab_set]
        t = inside[int(rng.integers(len(inside)))]
        # the coset of g maps to g.p
        _, reps = left_cosets(G, t)
        maps.append(base.action[reps, p].tolist())
        pieces.append(coset_gset(G, t))
    x = pieces[0]
    fmap = list(maps[0])
    for piece, piece_map in zip(pieces[1:], maps[1:]):
        x = disjoint_union(x, piece)
        fmap.extend(piece_map)
    perm = rng.permutation(x.size)
    relabelled = relabel_gset(x, perm)
    out_map = [0] * x.size
    for old, new in enumerate(perm):
        out_map[int(new)] = fmap[old]
    return relabelled, tuple(out_map)


def pullback_to_group(xq: FiniteGSet, G: FiniteGroup, projection) -> FiniteGSet:
    """Turn a Q-set into a G-set along a projection G -> Q."""
    action = np.empty((G.order, xq.size), dtype=np.int64)
    for g in range(G.order):
        action[g] = xq.action[projection[g]]
    return make_gset(G, action)
