"""The orbit decomposition machinery for twisted representation rings.

Given a normal subgroup A of G and a cocycle alpha, the group G acts on the
irreducible alpha-projective representations of A by

    (g . tau)(a) = alpha(g^-1 a, g) alpha(g, g^-1 a)^-1 tau(g^-1 a g),

and the action factors through Q = G/A. It is a group action, so the
generators of G fix it: action_table moves the classes of Irr(A, alpha|_A)
by the generators s alone, reading each off

    chi_{s.tau}(a) = alpha(s^-1 a, s) alpha(s, s^-1 a)^-1 chi_tau(s^-1 a s)

with no matrices, after an exact integer certificate mod K shows that
every s.tau is an alpha|_A-representation. Schur orthogonality decides
which class s.tau is: its multiplicities over the table must form a unit
vector. Every other row is a product of known rows, and the action law on
the generators certifies that the table is a homomorphism. Each orbit
carries an isotropy group, a family of Schur intertwiners M_q, and an
induced 2-cocycle beta on the isotropy quotient; orbits with the same
isotropy group share it, its quotient and the restricted cocycle.
verify_point_decomposition checks that the irreducibles of (G, alpha)
biject with the beta-twisted irreducibles of the isotropy quotients, orbit
by orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _memo
from .cocycles import (
    Cocycle,
    NumericCocycle,
    _require_on,
    _tau_exponents,
    make_numeric_cocycle,
    restrict,
)
from .config import Tolerances, default_tolerances
from .errors import (
    AmbiguousCharacter,
    DecompositionFailure,
    MatchFailure,
    NonIntegerMultiplicity,
    NotNormal,
    NotScalar,
    NotUnimodular,
    OrbitMixing,
    UnmatchedCharacter,
)
from .groups import (
    FiniteGroup,
    QuotientWithSection,
    SubgroupHandle,
    _action_orbits,
    generating_set,
    is_normal,
    quotient_with_section,
)
from .reps import (
    IrrTable,
    ProjectiveRep,
    _conjugation_residuals,
    intertwiner,
    irreducibles,
)


def _conjugation(cocycle, g: int, elements) -> tuple[np.ndarray, np.ndarray]:
    """back = g^-1 h g and scale = alpha(g^-1 h, g) alpha(g, g^-1 h)^-1 for every h."""
    G = cocycle.group
    x = G.mul[G.inv[g], np.asarray(elements, dtype=np.int64)]    # g^-1 h
    return G.mul[x, g], cocycle.values(x, g) * np.conj(cocycle.values(g, x))


@dataclass(eq=False)
class IrrAction:
    """The permutation action of G on the irreducible table of (A, alpha|_A)."""

    group: FiniteGroup
    subgroup: SubgroupHandle
    alpha: Cocycle
    base: IrrTable                      # irreducibles of (A, alpha|_A)
    alpha_a: Cocycle
    a_map: tuple[int, ...]              # A-standalone index -> G index
    perm: np.ndarray                    # (|G|, #irr) int, read-only

    def __post_init__(self):
        self.perm = np.ascontiguousarray(self.perm, dtype=np.int64)
        self.perm.flags.writeable = False

    def orbits(self) -> list[tuple[int, ...]]:
        """Orbits on irreducible indices, sorted by smallest member."""
        return _action_orbits(self.perm)


def action_table(G: FiniteGroup, A: SubgroupHandle, alpha: Cocycle, seed: int = 0,
                 tol: Tolerances | None = None) -> IrrAction:
    """Tabulate s . [tau_i] for the generators s, fill the rest by products, check the laws.

    With c_g(a) = g^-1 a g and s_g(a) = alpha(g^-1 a, g) - alpha(g, g^-1 a)
    in exponents mod K, the moved character is

        chi_{g.tau}(a) = exp(2 pi i s_g(a) / K) chi_tau(c_g a).

    Only the generators S = generating_set(G) are moved. First the exact
    integer certificate

        s_g(a) + s_g(b) + alpha_A(c_g a, c_g b) == alpha_A(a, b) + s_g(ab)  (mod K)

    for all a, b in A, one (|S|, |A|, |A|) array, shows that every s.tau is
    an alpha|_A-representation. Then one IrrTable.multiplicities call
    decomposes all |S| #irr moved characters over the table, under tol.char.
    Each row must be a unit vector: the class of s.tau_i is its one entry,
    which also certifies that s.tau_i is irreducible. A row that is not a
    multiplicity vector, or has no entry, raises UnmatchedCharacter; a row
    with several entries raises AmbiguousCharacter. The table P has
    P(1) = id, the rows P(s), and P(l r) = P(l) o P(r) for the products
    (l, r) of G._product_plan, which reach every element.

    The laws are the trivial action of A and

        P(s h) = P(s) o P(h)  for s in S, all h;

    a failed law raises DecompositionFailure. Two proofs make P the action.

    The certificate holds for every g once alpha is a 2-cocycle, which
    make_cocycle checks on input. In the twisted group algebra, where
    e_u e_v = alpha(u, v) e_uv is associative by the cocycle identity,
    e_a = alpha(g, x)^-1 e_g e_x for x = g^-1 a, so

        phi_g(e_a) = e_g^-1 e_a e_g = exp(2 pi i s_g(a) / K) e_{c_g a}.

    The certificate is phi_g(e_a) phi_g(e_b) = alpha_A(a, b) phi_g(e_ab),
    true for an algebra automorphism; on S it still catches an exponent
    table that bypassed make_cocycle.

    Two homomorphisms that agree on generators are equal. g.tau is
    tau o phi_g, and phi_gh = phi_h o phi_g since e_gh is e_g e_h up to a
    scalar, so (gh).tau = g.(h.tau) and g -> [g.tau] is a homomorphism. P is
    one too: every g is a word s_1 ... s_k in S (inverses are positive
    powers), and by induction on k,

        P(g h) = P(s_1) o P(s_2 ... s_k h)
               = P(s_1) o P(s_2 ... s_k) o P(h) = P(g) o P(h),

    where k = 0 is P(1) = id, true by construction. Both agree on S, so P(g)
    is [g.tau] for every g.

    An action that a K-group call has certified for the same content (see
    _orbit_data) comes from the memo, rebound to the caller's G, A and
    alpha. action_table stores nothing itself: a single point
    decomposition rarely repeats its content, and its entries would evict
    tables that do repeat. Normality and the cocycle's group are checked
    before the lookup.
    """
    tol = tol or default_tolerances()
    if not is_normal(G, A):
        raise NotNormal("the action is defined for a normal subgroup")
    _require_on(alpha, G)
    hit = _memo.get(_action_key(G, A, alpha, seed, tol))
    if hit is not None:
        return replace(hit, group=G, subgroup=A, alpha=alpha)
    return _tabulate(G, A, alpha, seed, tol)


def _action_key(G: FiniteGroup, A: SubgroupHandle, alpha: Cocycle, seed: int,
                tol: Tolerances) -> bytes:
    """Every input of _tabulate; the labels of A's and the isotropy groups
    come from G's, so the key adds them to G's content digest."""
    return _memo.key("action table", G._content, G.labels, A.elements, alpha._content, seed,
                     tol._content)


def _tabulate(G: FiniteGroup, A: SubgroupHandle, alpha: Cocycle, seed: int,
              tol: Tolerances) -> IrrAction:
    alpha_a, a_map = restrict(alpha, A)
    a_std, _ = A.as_group()
    irr_a = irreducibles(a_std, alpha_a, seed=seed, tol=tol)
    K, n = alpha.order, len(irr_a)
    gens = np.asarray(generating_set(G), dtype=np.int64)
    S = gens[:, None]
    x = G.mul[G.inv[S], np.asarray(a_map)[None, :]]     # s^-1 a
    back = A.position(G.mul[x, S])                       # s^-1 a s, as an A position
    s = (alpha.exponents[x, S] - alpha.exponents[S, x]) % K
    expo_a = alpha_a.exponents
    defect = (s[:, :, None] + s[:, None, :] + expo_a[back[:, :, None], back[:, None, :]]
              - expo_a - s[:, a_std.mul]) % K
    if defect.any():
        i, a, b = np.argwhere(defect)[0]
        raise DecompositionFailure(f"g.tau is not an alpha|_A-representation at g={gens[i]}: "
                                   f"certificate fails at (a, b) = ({a_map[a]}, {a_map[b]})")
    moved = alpha.roots_of(s)[:, None] * irr_a.character_values[:, back].swapaxes(0, 1)   # (|S|, n, |A|)
    try:
        mult = irr_a.multiplicities(moved.reshape(-1, len(a_map)), tol.char)
    except NonIntegerMultiplicity as exc:
        raise UnmatchedCharacter(f"act(s, tau) for s in {gens.tolist()} matches no table "
                                 f"entry: {exc}") from exc
    weight = mult.sum(axis=1)         # row i is act(gens[i // n], tau_{i % n})
    if np.any(weight == 0):
        i = np.argmin(weight)
        raise UnmatchedCharacter(f"act({gens[i // n]}, tau_{i % n}) matches no table entry")
    if np.any(weight > 1):
        i = np.argmax(weight)
        raise AmbiguousCharacter(f"act({gens[i // n]}, tau_{i % n}) decomposes over "
                                 "several table entries")
    perm = np.empty((G.order, n), dtype=np.int64)
    perm[G.identity] = np.arange(n)
    perm[gens] = np.argmax(mult, axis=1).reshape(len(gens), n)
    for targets, lefts, rights in G._product_plan:
        perm[targets] = np.take_along_axis(perm[lefts], perm[rights], axis=1)
    moving = np.flatnonzero(np.any(perm[list(a_map)] != np.arange(n), axis=1))
    if moving.size:
        raise DecompositionFailure(f"perm({a_map[moving[0]]}) moves classes inside A")
    bad = np.argwhere(np.any(perm[gens][:, perm] != perm[G.mul[gens]], axis=2))
    if bad.size:                      # bad[0] = (generator position, h)
        raise DecompositionFailure(f"action law fails at ({gens[bad[0, 0]]},{bad[0, 1]})")
    return IrrAction(
        group=G, subgroup=A, alpha=alpha, base=irr_a, alpha_a=alpha_a,
        a_map=tuple(a_map), perm=perm,
    )


@dataclass(eq=False)
class OrbitDatum:
    """One orbit of the action with its isotropy apparatus."""

    representative: int
    members: tuple[int, ...]
    isotropy: SubgroupHandle            # G_[tau], on G
    gt_group: FiniteGroup               # G_[tau] re-indexed
    gt_map: tuple[int, ...]             # gt index -> G index
    alpha_gt: Cocycle
    a_in_gt: SubgroupHandle             # A inside gt_group
    quotient: QuotientWithSection       # A normal in G_[tau]
    sections: np.ndarray                # (|Q_tau|,) sigma(q) as G indices, read-only
    tau: ProjectiveRep                  # representative irreducible of A
    M: np.ndarray                       # (|Q_tau|, d, d) with M[0] = I, read-only
    beta: NumericCocycle | None

    def __post_init__(self):
        self.sections = np.ascontiguousarray(self.sections, dtype=np.int64)
        self.M = np.ascontiguousarray(self.M, dtype=np.complex128)
        for a in (self.sections, self.M):
            a.flags.writeable = False

    @property
    def q_group(self) -> FiniteGroup:
        return self.quotient.quotient


def orbit_data(action: IrrAction, alpha: Cocycle, phase_seed: int | None = None,
               tol: Tolerances | None = None) -> list[OrbitDatum]:
    """Isotropy groups, intertwiner families, and induced cocycles per orbit.

    Orbits with the same isotropy group G_[tau] share its apparatus, built
    once per distinct stabilizer: the handle, the group re-indexed, alpha
    restricted to it, A inside it, the quotient Q_[tau] with its section,
    and the sections as G indices. Only tau, sigma(q).tau, M and beta are
    built per orbit.

    M(q) = intertwiner(tau, sigma(q).tau), whose phase makes tr(tau(a) M(q))
    real positive at the first a where |tr(tau(a) M(q))| is within tol.char
    of its maximum. These traces do not depend on the basis of tau, so
    neither does beta: it is the same for every seed.

    phase_seed, when given, multiplies each M(q), q != 1, by a fixed random
    unit scalar, drawn orbit by orbit and then q by q: a convention change
    that moves beta by a coboundary and must leave all cohomology-level
    outputs unchanged.

    sigma(q).tau is gathered for every q at once, as act in tests/oracles.py
    computes it for one g: the scalars and conjugates of _conjugation index
    tau's matrices.
    """
    tol = tol or default_tolerances()
    G, A = action.group, action.subgroup
    rng = np.random.default_rng(phase_seed) if phase_seed is not None else None
    shared: dict[tuple[int, ...], dict] = {}
    data = []
    for members in action.orbits():
        rep_idx = members[0]
        fixing = tuple(np.flatnonzero(action.perm[:, rep_idx] == rep_idx).tolist())
        if fixing not in shared:        # the apparatus of one isotropy group G_[tau]
            isotropy = SubgroupHandle(G, fixing)
            gt_group, gt_map = isotropy.as_group()
            a_in_gt = SubgroupHandle(gt_group, tuple(isotropy.position(list(A.elements)).tolist()))
            qs = quotient_with_section(gt_group, a_in_gt)
            shared[fixing] = dict(isotropy=isotropy, gt_group=gt_group, gt_map=tuple(gt_map),
                                  alpha_gt=restrict(alpha, isotropy)[0], a_in_gt=a_in_gt,
                                  quotient=qs, sections=np.asarray(gt_map)[list(qs.section)])
        sections = shared[fixing]["sections"]
        tau = action.base.irreducibles[rep_idx]
        back, scale = _conjugation(alpha, sections[:, None], A.to_parent)
        moved = scale[..., None, None] * tau.matrices[A.position(back)]   # sigma(q).tau
        M = np.empty((len(sections), tau.dim, tau.dim), dtype=np.complex128)
        M[0] = np.eye(tau.dim)
        for q in range(1, len(sections)):
            w = intertwiner(tau, ProjectiveRep(tau.group, tau.cocycle, tau.dim, moved[q]), tol)
            if w is None:
                raise UnmatchedCharacter(f"section element {sections[q]} does not fix the class")
            if rng is not None:
                w = np.exp(2j * np.pi * rng.random()) * w
            M[q] = w
        datum = OrbitDatum(representative=rep_idx, members=members, **shared[fixing],
                           tau=tau, M=M, beta=None)
        _check_m_family(datum, moved, tol)
        datum.beta = induced_cocycle(datum, alpha, tol)
        data.append(datum)
    return data


def _orbit_data(G: FiniteGroup, A: SubgroupHandle, alpha: Cocycle, seed: int = 0,
                phase_seed: int | None = None, tol: Tolerances | None = None
                ) -> list[OrbitDatum]:
    """orbit_data(action_table(G, A, alpha)), certified once per content.

    The key is that of the action (the content digests of G and alpha, G's
    labels, A's elements, seed, tolerances) and phase_seed. A miss stores
    the action too, so later action_table calls on the same content skip
    the rebuild; an array that several data share, such as the tables of
    one isotropy group, counts once toward the entry's size. A hit is
    rebound to the caller: the data that share an isotropy group get one
    new handle on G, built without a closure check since the stored
    isotropy was checked on a table of G's content, and datum.tau is the
    irreducible of the action's base.
    No stored value holds G, A or alpha; the checks of action_table run on
    every call, and a failure is never remembered.
    """
    tol = tol or default_tolerances()
    action = action_table(G, A, alpha, seed=seed, tol=tol)
    action_key = _action_key(G, A, alpha, seed, tol)
    key = _memo.key("orbit data", action_key, phase_seed)
    hit = _memo.get(key)
    if hit is not None:
        handles = {m: SubgroupHandle._closed(G, tuple(sorted(m)))
                   for m in {datum.gt_map for datum in hit}}
        return [replace(datum, isotropy=handles[datum.gt_map],
                        tau=action.base.irreducibles[datum.representative]) for datum in hit]
    data = orbit_data(action, alpha, phase_seed=phase_seed, tol=tol)
    # The base table's matrices and characters are counted by its irreducibles entry.
    _memo.put(action_key, replace(action, group=None, subgroup=None, alpha=None),
              sum(a.nbytes for a in (action.perm, action.alpha_a.exponents,
                                     action.base.group.mul, action.base.group.inv)))
    arrays = {id(a): a for datum in data
              for a in (datum.M, datum.beta.table, datum.alpha_gt.exponents,
                        datum.gt_group.mul, datum.gt_group.inv, datum.sections,
                        datum.q_group.mul, datum.q_group.inv, datum.quotient._chi_table)}
    _memo.put(key, [replace(datum, isotropy=None, tau=None) for datum in data],
              sum(a.nbytes for a in arrays.values()))
    return data


def _check_m_family(datum: OrbitDatum, moved: np.ndarray, tol: Tolerances) -> None:
    """moved[q] = sigma(q).tau must equal M(q)^-1 tau M(q), for every q and a.

    The residual of each q comes from _conjugation_residuals; the first q
    over 10 tol.rep, NaN included, raises DecompositionFailure.
    """
    err = _conjugation_residuals(datum.tau.matrices, moved, datum.M)
    bad = np.flatnonzero(~(err <= 10 * tol.rep))
    if bad.size:
        q = int(bad[0])
        raise DecompositionFailure(f"M family fails conjugation check at q={q} ({err[q]:.2e})")


def induced_cocycle(datum: OrbitDatum, alpha: Cocycle,
                    tol: Tolerances | None = None) -> NumericCocycle:
    """The induced 2-cocycle beta on the isotropy quotient.

    For each pair (q1, q2) the matrix

        tau_scalar(q1,q2) * tau(chi(q1,q2)) * M(q2)^-1 M(q1)^-1 M(q1 q2)

    must be a unit scalar matrix; the scalars assemble into a normalized
    2-cocycle on Q_[tau]. All pairs are one broadcast product over the
    tables qs._chi_table and _tau_exponents. beta(q1, q2) is the mean of
    the diagonal; NotScalar (max |T - mean I| > tol.scalar) and then
    NotUnimodular name the first failing pair in row-major order.
    """
    tol = tol or default_tolerances()
    qs = datum.quotient
    Q = qs.quotient
    scal = datum.alpha_gt.roots_of(_tau_exponents(datum.alpha_gt, qs))
    M = datum.M
    Minv = np.conj(np.swapaxes(M, 1, 2))
    taus = datum.tau.matrices[datum.a_in_gt.position(qs._chi_table)]
    T = scal[..., None, None] * taus @ Minv[None, :] @ Minv[:, None] @ M[Q.mul]
    table = np.trace(T, axis1=2, axis2=3) / M.shape[1]     # the mean of the diagonal
    dev = np.where(np.eye(M.shape[1], dtype=bool), T - table[..., None, None], T)
    not_scalar = np.max(np.abs(dev), axis=(2, 3)) > tol.scalar
    bad = np.argwhere(not_scalar | (np.abs(np.abs(table) - 1.0) > tol.unitary))
    if bad.size:
        q1, q2 = bad[0]
        if not_scalar[q1, q2]:
            raise NotScalar(f"induced matrix at ({q1},{q2}) is not scalar")
        raise NotUnimodular(f"induced scalar at ({q1},{q2}) has modulus {abs(table[q1, q2])}")
    return make_numeric_cocycle(Q, table, tol)  # re-checks: normalized 2-cocycle


def _a_parent_order(datum: OrbitDatum) -> tuple[int, ...]:
    """A's elements as parent-G indices, in the standalone-A numbering.

    gt_group numbers G_[tau] from the identity, then ascending, and
    A.as_group() numbers A the same way, so a_in_gt's sorted elements
    map to A's numbering.
    """
    return tuple(datum.gt_map[x] for x in datum.a_in_gt.elements)


def _hom_weights(datum: OrbitDatum, alpha: Cocycle) -> tuple[np.ndarray, np.ndarray]:
    """Elements s a^-1 and weights of the Hom-fiber character, both (|Q|, |A|).

    For q in Q with s = sigma(q) and a in A (standalone-A order), the weight
    is (1/|A|) alpha(s, a^-1) alpha(a, a^-1)^-1 tr(tau(a) M_q^H), so that a
    representation W of a group containing A and every s has

        chi_Hom(q) = sum_a weights[q, a] chi_W(elements[q, a]),

    the character of q.f = W(s) f M_q^-1 on Hom_A(V_tau, W): the map
    f -> (1/|A|) sum_a W(a)^-1 f tau(a) projects onto Hom_A, and the trace
    of f -> X f Y is tr X tr Y. It is 0 where W has no tau component.
    """
    G = alpha.group
    a_inv = G.inv[np.asarray(_a_parent_order(datum))][None, :]
    s = datum.sections[:, None]
    traces = np.einsum("aij,qij->qa", datum.tau.matrices, np.conj(datum.M))
    scale = alpha.values(s, a_inv) * np.conj(alpha.values(G.inv[a_inv], a_inv))
    return G.mul[s, a_inv], scale * traces / a_inv.size


@dataclass(eq=False)
class DecompositionReport:
    """The verified correspondence between Irr(G, alpha) and the orbit side."""

    group: FiniteGroup
    subgroup: SubgroupHandle
    alpha: Cocycle
    seed: int
    irr_g: IrrTable
    action: IrrAction
    orbits: list[OrbitDatum]
    beta_tables: list[IrrTable]
    matching: list[tuple[int, int]]        # W index -> (orbit index, class index)
    multiplicities: list[tuple[int, ...]]  # W index -> mult per A-irreducible

    @property
    def rank_lhs(self) -> int:
        return len(self.irr_g)

    @property
    def rank_rhs(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.beta_tables)

    @property
    def rank_ok(self) -> bool:
        return self.rank_lhs == sum(self.rank_rhs)


def verify_point_decomposition(G: FiniteGroup, A: SubgroupHandle, alpha: Cocycle,
                               seed: int = 0, phase_seed: int | None = None,
                               tol: Tolerances | None = None) -> DecompositionReport:
    """Run the whole pipeline at a single point and verify the bijection.

    Each irreducible W of (G, alpha) restricts to A inside a single orbit
    with uniform multiplicities, and the character of its multiplicity
    representation q.f = W(s) f M_q^-1 on Hom_A(V_tau, W), s = sigma(q),

        chi_Hom(q) = (1/|A|) sum_a alpha(s, a^-1) alpha(a, a^-1)^-1 chi_W(s a^-1) tr(tau(a) M_q^H),

    decomposes over the beta-twisted classes of the orbit's isotropy
    quotient as exactly one class with multiplicity 1, whose dimension
    chi_Hom(1) is the multiplicity of tau in W|_A (MatchFailure otherwise).
    The global matching is a bijection whose counts give the rank identity.
    The tests build the same representation with matrices (hom_rep in
    tests/oracles.py). action_table runs first, so a subgroup that is not
    normal raises NotNormal, from its one check, before any split.
    """
    tol = tol or default_tolerances()
    action = action_table(G, A, alpha, seed=seed, tol=tol)    # checks that A is normal, first
    irr_g = irreducibles(G, alpha, seed=seed, tol=tol)
    orbits = orbit_data(action, alpha, phase_seed=phase_seed, tol=tol)
    beta_tables = [
        irreducibles(datum.q_group, datum.beta, seed=seed, tol=tol) for datum in orbits
    ]
    orbit_of_irr = {}
    for oi, datum in enumerate(orbits):
        for member in datum.members:
            orbit_of_irr[member] = oi
    multiplicities: list[tuple[int, ...]] = []
    restricted = action.base.multiplicities(irr_g.character_values[:, list(action.a_map)],
                                            tol.char)
    over: list[list[int]] = [[] for _ in orbits]
    for wi, dim in enumerate(irr_g.dims):
        mults = tuple(restricted[wi].tolist())
        multiplicities.append(mults)
        support = [i for i, m in enumerate(mults) if m > 0]
        touched = {orbit_of_irr[i] for i in support}
        if len(touched) != 1:
            raise OrbitMixing(f"W_{wi} restricts across orbits {sorted(touched)}")
        oi = touched.pop()
        datum = orbits[oi]
        orbit_mults = {mults[i] for i in datum.members}
        if len(orbit_mults) != 1 or 0 in orbit_mults:
            raise OrbitMixing(f"W_{wi} has uneven multiplicities across its orbit")
        dim_check = sum(mults[i] * action.base.irreducibles[i].dim for i in support)
        if dim_check != dim:
            raise OrbitMixing(f"W_{wi}: restriction dimensions do not add up")
        over[oi].append(wi)
    matching: list[tuple[int, int]] = [(-1, -1)] * len(irr_g)
    for oi, (datum, ws) in enumerate(zip(orbits, over)):
        elements, weights = _hom_weights(datum, alpha)
        chi_hom = np.sum(irr_g.character_values[ws][:, elements] * weights, axis=2)
        for wi, found in zip(ws, beta_tables[oi].multiplicities(chi_hom, tol.char)):
            j = int(np.argmax(found))
            if found.sum() != 1:
                raise MatchFailure(f"Hom representation of W_{wi} matches no single beta-class")
            if beta_tables[oi].dims[j] != restricted[wi, datum.representative]:
                raise MatchFailure(f"Hom dimension of W_{wi} is not its tau multiplicity")
            matching[wi] = (oi, j)
    if len(set(matching)) != len(matching):
        raise MatchFailure("matching is not injective")
    total = sum(len(t) for t in beta_tables)
    if total != len(irr_g.irreducibles):
        raise MatchFailure(
            f"rank mismatch: {len(irr_g.irreducibles)} irreducibles vs {total} classes"
        )
    return DecompositionReport(
        group=G, subgroup=A, alpha=alpha, seed=seed, irr_g=irr_g, action=action,
        orbits=orbits, beta_tables=beta_tables, matching=matching,
        multiplicities=multiplicities,
    )
