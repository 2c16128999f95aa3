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
isotropy group share it, its quotient and the restricted cocycle, and
those that also share tau's dimension are built as one batch: one Schur
solve, one residual check, one induced product and one lattice
certificate of beta for all of them (see orbit_data).

The decomposition itself is a matrix phi of multiplicities, read off
characters: column w is an irreducible W, and the block of rows of an orbit
holds the decomposition of the Hom fibers Hom_A(V_tau, W) over the
beta-twisted classes of its isotropy quotient (_hom_weights gives their
characters, _fill_blocks decomposes the blocks). Clifford theory makes phi
the matrix of a bijection of irreducibles, and _bijection certifies that
it is one. verify_point_decomposition builds phi at a point, and
kgroups.verify_gset_decomposition on a finite G-set, with these same three
pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _memo
from .cocycles import (
    Cocycle,
    NumericCocycle,
    _certified_tables,
    _require_on,
    _tau_exponents,
    restrict,
)
from .config import Tolerances, default_tolerances
from .errors import (
    AmbiguousCharacter,
    DecompositionFailure,
    InputError,
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
    _intertwiners,
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

    The same induction shows that a table of points is a G-action once the
    laws hold on the generators; kgroups._check_action relies on it.

    The action is tabulated once per group object and kept in G's parts
    (see _memo.parts) under A's elements, alpha's content digest, seed and
    tolerances, as the plain tuple (base, alpha_a, a_map, perm) that each
    call wraps with the caller's G, A and alpha. An action whose base split
    has since failed its matrix certificate is tabulated again. Normality
    and the cocycle's group are checked on every call, before the lookup.
    """
    tol = tol or default_tolerances()
    if not is_normal(G, A):
        raise NotNormal("the action is defined for a normal subgroup")
    _require_on(alpha, G)
    parts = _memo.parts(G)
    key = ("action table", A.elements, alpha._content, seed, tol._content)
    held = parts.get(key)
    if held is None or held[0]._split.failed:
        held = parts.put(key, _tabulate(G, A, alpha, seed, tol))
    return IrrAction(G, A, alpha, *held)


def _tabulate(G: FiniteGroup, A: SubgroupHandle, alpha: Cocycle, seed: int,
              tol: Tolerances) -> tuple[IrrTable, Cocycle, tuple[int, ...], np.ndarray]:
    """IrrAction's fields after alpha: (base, alpha_a, a_map, perm)."""
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
    return irr_a, alpha_a, tuple(a_map), perm


@dataclass(eq=False)
class OrbitDatum:
    """One orbit of the action with its isotropy apparatus."""

    representative: int
    members: tuple[int, ...]
    gt_group: FiniteGroup               # G_[tau] re-indexed
    gt_map: tuple[int, ...]             # gt index -> G index: the elements of G_[tau]
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
    and the sections as G indices. The rest is built once per batch of the
    k orbits that share an isotropy group and a tau dimension d:

    - one gather of every sigma(q).tau, (k, |Q|, |A|, d, d), from the
      scalars and conjugates of _conjugation, as act in tests/oracles.py
      computes it for one g;
    - one _intertwiners call for all k (|Q| - 1) pairs (tau, sigma(q).tau),
      q != 1, with M(1) = I; a pairing of 0 raises UnmatchedCharacter;
    - one residual check of the whole M family, sigma(q).tau against
      M(q)^-1 tau M(q) for every q and a: the first (orbit, q) over
      10 tol.rep, NaN included, raises DecompositionFailure;
    - one induced product and one lattice certificate for the k betas
      (see _induced_betas).

    M(q) is phased so that tr(tau(a) M(q)) is real positive at the first a
    where |tr(tau(a) M(q))| is within tol.char of its maximum. These traces
    do not depend on the basis of tau, so neither does beta: it is the same
    for every seed.

    phase_seed, when given, multiplies each M(q), q != 1, by a fixed random
    unit scalar, drawn orbit by orbit and then q by q: a convention change
    that moves beta by a coboundary and must leave all cohomology-level
    outputs unchanged. A negative phase_seed raises InputError.
    """
    tol = tol or default_tolerances()
    if phase_seed is not None and phase_seed < 0:
        raise InputError(f"phase_seed must be a non-negative integer, got {phase_seed}")
    G, A = action.group, action.subgroup
    orbits = action.orbits()
    fixing = [tuple(np.flatnonzero(action.perm[:, m[0]] == m[0]).tolist()) for m in orbits]
    batches: dict[tuple, list[int]] = {}
    for i, members in enumerate(orbits):
        batches.setdefault((fixing[i], action.base.dims[members[0]]), []).append(i)
    if phase_seed is not None:
        rng = np.random.default_rng(phase_seed)
        phases = [[1] + [np.exp(2j * np.pi * rng.random()) for _ in range(len(f) // A.order - 1)]
                  for f in fixing]
    shared: dict[tuple[int, ...], dict] = {}
    data: list = [None] * len(orbits)
    for (stabilizer, d), idx in batches.items():
        if stabilizer not in shared:        # the apparatus of one isotropy group G_[tau]
            isotropy = SubgroupHandle(G, stabilizer)
            gt_group, gt_map = isotropy.as_group()
            a_in_gt = SubgroupHandle(gt_group, tuple(isotropy.position(list(A.elements)).tolist()))
            qs = quotient_with_section(gt_group, a_in_gt)
            shared[stabilizer] = dict(gt_group=gt_group, gt_map=tuple(gt_map),
                                      alpha_gt=restrict(alpha, isotropy)[0], a_in_gt=a_in_gt,
                                      quotient=qs, sections=np.asarray(gt_map)[list(qs.section)])
        sections = shared[stabilizer]["sections"]
        k, nq = len(idx), len(sections)
        taus = [action.base.irreducibles[orbits[i][0]] for i in idx]
        X = np.stack([tau.matrices for tau in taus])                    # (k, |A|, d, d)
        back, scale = _conjugation(alpha, sections[:, None], A.to_parent)
        moved = scale[..., None, None] * X[:, A.position(back)]        # sigma(q).tau
        M = np.empty((k, nq, d, d), dtype=np.complex128)
        M[:, 0] = np.eye(d)
        if nq > 1:
            pairing, solved = _intertwiners(action.base.group, X,
                                            moved[:, 1:].reshape(-1, *X.shape[1:]),
                                            np.repeat(np.arange(k), nq - 1), tol)
            if solved is None:
                q = int(np.argmin(pairing)) % (nq - 1) + 1
                raise UnmatchedCharacter(f"section element {sections[q]} does not fix the class")
            M[:, 1:] = solved.reshape(k, nq - 1, d, d)
        if phase_seed is not None:
            M = np.array([phases[i] for i in idx])[..., None, None] * M
        err = _conjugation_residuals(X[:, None], moved, M)              # (k, |Q|)
        bad = np.argwhere(~(err <= 10 * tol.rep))
        if bad.size:
            j, q = bad[0]
            raise DecompositionFailure(f"M family fails conjugation check at q={q} "
                                       f"({err[j, q]:.2e})")
        batch = [OrbitDatum(representative=orbits[i][0], members=orbits[i], **shared[stabilizer],
                            tau=tau, M=M[j], beta=None)
                 for j, (i, tau) in enumerate(zip(idx, taus))]
        for i, datum, beta in zip(idx, batch, _induced_betas(batch[0], X, M, alpha.order, tol)):
            datum.beta = beta
            data[i] = datum
    return data


def _induced_betas(datum: OrbitDatum, taus: np.ndarray, M: np.ndarray, K: int,
                   tol: Tolerances) -> list[NumericCocycle]:
    """The induced 2-cocycles of k orbits that share datum's isotropy group and
    tau dimension d, from the (k, |A|, d, d) stack of their taus and the
    (k, |Q|, d, d) stack of their M families, for alpha of order K.

    For each orbit and pair (q1, q2) the matrix

        t(q1,q2) * tau(chi(q1,q2)) * M(q2)^-1 M(q1)^-1 M(q1 q2)

    must be a unit scalar matrix, where t(q1,q2) is the root of unity of
    exponent cocycles._tau_exponents(alpha_gt, qs)[q1, q2] and chi(q1,q2) =
    qs._chi_table[q1, q2]; the scalars assemble into a normalized 2-cocycle
    on Q_[tau]. All of them are one broadcast (k, |Q|, |Q|, d, d) product
    over those two tables. beta(q1, q2)
    is the mean of the diagonal; NotScalar (max |T - mean I| > tol.scalar)
    and then NotUnimodular name the first failing pair of the first failing
    orbit, in row-major order. The tables are then certified by
    cocycles._certified_tables on the lattice mu_N, N = lcm(K, 2 d |A|),
    where the beta of an unphased family lies; any other table is checked
    in full by make_numeric_cocycle.
    """
    qs = datum.quotient
    Q = qs.quotient
    scal = datum.alpha_gt.roots_of(_tau_exponents(datum.alpha_gt, qs))
    Minv = np.conj(np.swapaxes(M, -1, -2))
    T = (scal[..., None, None] * taus[:, datum.a_in_gt.position(qs._chi_table)]
         @ Minv[:, None] @ Minv[:, :, None] @ M[:, Q.mul])
    d = M.shape[-1]
    table = np.trace(T, axis1=-2, axis2=-1) / d     # the mean of the diagonal
    dev = np.where(np.eye(d, dtype=bool), T - table[..., None, None], T)
    not_scalar = np.max(np.abs(dev), axis=(-2, -1)) > tol.scalar
    bad = np.argwhere(not_scalar | (np.abs(np.abs(table) - 1.0) > tol.unitary))
    if bad.size:
        o, q1, q2 = bad[0]
        if not_scalar[o, q1, q2]:
            raise NotScalar(f"induced matrix at ({q1},{q2}) is not scalar")
        raise NotUnimodular(f"induced scalar at ({q1},{q2}) has modulus {abs(table[o, q1, q2])}")
    return _certified_tables(Q, table, math.lcm(K, 2 * d * datum.a_in_gt.order), tol)


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


def _bijection(phi: np.ndarray) -> np.ndarray:
    """For each column of phi, the row of its single 1.

    phi is a decomposition matrix of multiplicities: columns over the
    irreducibles of the direct side, rows over the beta-twisted classes of
    the orbit side. MatchFailure unless it is the matrix of a bijection, a
    0/1 matrix with exactly one 1 in each row and each column; the empty
    (0, 0) matrix is one.
    """
    per_col, per_row = phi.sum(axis=0), phi.sum(axis=1)
    if (phi < 0).any() or (per_col != 1).any() or (per_row != 1).any():
        raise MatchFailure(f"the matching is not a bijection: {np.count_nonzero(per_col != 1)} "
                           f"of {phi.shape[1]} irreducibles and {np.count_nonzero(per_row != 1)} "
                           f"of {phi.shape[0]} classes do not match exactly once")
    return np.arange(len(phi)) @ phi


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

    Each irreducible W of (G, alpha) must restrict to A inside a single
    orbit, with uniform multiplicities that add up to its dimension
    (OrbitMixing otherwise). Then phi at the point is assembled: for each
    orbit one block, the characters of the multiplicity representations
    q.f = W(s) f M_q^-1 on Hom_A(V_tau, W), s = sigma(q),

        chi_Hom(q) = (1/|A|) sum_a alpha(s, a^-1) alpha(a, a^-1)^-1 chi_W(s a^-1) tr(tau(a) M_q^H),

    of the W over the orbit, decomposed over the beta-twisted classes of
    the orbit's isotropy quotient. Every other Hom fiber is 0, since that
    W has no tau component, so its entries of phi are 0 and are not
    computed: a block for every W would cost #orbits times as much. phi
    must be the matrix of a bijection from Irr(G, alpha) onto the classes
    of all orbits, which also gives the rank identity; matching[w] =
    (orbit, class) is the row of column w (MatchFailure otherwise, from
    _bijection). The class's dimension chi_Hom(1) must be the multiplicity
    of tau in W|_A (MatchFailure). The tests build the same representation
    with matrices (hom_rep in tests/oracles.py). action_table runs first,
    so a subgroup that is not normal raises NotNormal, from its one check,
    before any split.
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
        dim_check = sum(mults[i] * action.base.dims[i] for i in support)
        if dim_check != dim:
            raise OrbitMixing(f"W_{wi}: restriction dimensions do not add up")
        over[oi].append(wi)
    offsets = np.cumsum([0] + [len(t) for t in beta_tables])
    phi = np.zeros((offsets[-1], len(irr_g)), dtype=np.int64)
    blocks = []
    for oi, (datum, ws) in enumerate(zip(orbits, over)):
        elements, weights = _hom_weights(datum, alpha)
        chi_hom = np.sum(irr_g.character_values[ws][:, elements] * weights, axis=2)
        blocks.append((beta_tables[oi], chi_hom, slice(offsets[oi], offsets[oi + 1]), ws))
    _fill_blocks(phi, blocks, tol.char)
    classes = [(oi, j) for oi, table in enumerate(beta_tables) for j in range(len(table))]
    matching = [classes[row] for row in _bijection(phi).tolist()]
    for wi, (oi, j) in enumerate(matching):
        if beta_tables[oi].dims[j] != restricted[wi, orbits[oi].representative]:
            raise MatchFailure(f"Hom dimension of W_{wi} is not its tau multiplicity")
    return DecompositionReport(
        group=G, subgroup=A, alpha=alpha, seed=seed, irr_g=irr_g, action=action,
        orbits=orbits, beta_tables=beta_tables, matching=matching,
        multiplicities=multiplicities,
    )
