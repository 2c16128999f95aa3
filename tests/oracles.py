"""Independent oracles used to cross-check the main pipeline, and the matrix
route of the decomposition.

These deliberately avoid the regular-representation splitting path: the
character table oracle works through conjugacy-class-sum matrices, and the
isomorphism oracle is a plain backtracking search over generator images.
The character matcher compares values entry by entry, where the library
decomposes characters by orthogonality.
The table checks scan every triple, where the library checks only a
generating set of middle arguments.
The section quantities of an orbit datum (chi, the tau_scalar exponent and
the induced cocycle) are evaluated one pair at a time, where the library
gathers whole arrays.
The certificates (block dedup, representation checks, conjugation and
twisted relation residuals, the Hom action) are the per-element loops the
library's whole-array kernels replaced; a NaN fails each of their checks.
The split of the regular representation is one dense eigh of the whole
|G| x |G| commutant element, where the library diagonalizes it block by
block in the eigenbasis of a cyclic subgroup's left operator.
The coboundary oracle searches every mu_K-valued cochain, where the library
reads the cochains off the 1-dimensional entries of the beta table;
snap_to_lattice, which rounds a numeric cocycle onto a root-of-unity
lattice, is kept here because only the tests call it.
The action-law oracle composes every pair of group elements, where the
library composes generators with every element. The K-group matrices are
filled one orbit at a time, each block by its own multiplicities call, where
the library makes one call per isotropy table.

This module is the only home of the matrix route, which the library no
longer carries: the twisted regular representation, restriction and
conjugation of representations, multiplicities from single characters, a
Hom space's basis as one SVD nullspace (hom_space), the Hom space
Hom_A(V_tau, W) as a beta-representation of the isotropy quotient
(hom_rep) and W rebuilt as V_tau (x) Hom (reconstructed_by_element). The
library reaches the same results from characters alone (_hom_weights,
IrrTable.multiplicities), and the tests check the two routes against each
other.
"""

from __future__ import annotations

import itertools

import numpy as np

from twistdecomp.cocycles import (
    Cocycle,
    NumericCocycle,
    UnitScalar,
    _lattice_exponents,
    central_extension,
    restrict,
    validate_cocycle_table,
)
from twistdecomp.config import Tolerances, default_tolerances
from twistdecomp.decomposition import _conjugation, _hom_weights, action_table, orbit_data
from twistdecomp.errors import (
    DecompositionFailure,
    InputError,
    NotNormal,
    NotScalar,
    NotUnimodular,
    NumericFailure,
)
from twistdecomp.groups import (
    FiniteGroup,
    SubgroupHandle,
    conjugacy_classes,
    generating_set,
    subgroup_closure,
)
from twistdecomp.reps import (
    ProjectiveRep,
    _NULLSPACE_RTOL,
    _check_compatible,
    _hom_equations,
    _multiplicities,
    _relation_tol,
    character,
    commutant_dimension,
)


class NotIsotypic(DecompositionFailure):
    """hom_rep's input has no component on the orbit representative."""


def classical_character_table(G: FiniteGroup, tol: float = 1e-8):
    """Irreducible characters of G via eigenvectors of class-sum matrices.

    Returns (classes, table) where table[i, s] = chi_i(g) for g in class s,
    rows sorted by (dimension, rounded values). Only for trivial twisting.
    """
    classes = conjugacy_classes(G)
    r = len(classes)
    class_of = {}
    for s, cls in enumerate(classes):
        for g in cls:
            class_of[g] = s
    reps = [cls[0] for cls in classes]
    # structure constants: class_s * class_t = sum_u a[s,t,u] * (elements of class u)
    a = np.zeros((r, r, r), dtype=np.int64)
    for s, cls_s in enumerate(classes):
        for t, cls_t in enumerate(classes):
            for x in cls_s:
                for y in cls_t:
                    z = int(G.mul[x, y])
                    u = class_of[z]
                    a[s, t, u] += 1
    # normalize counts: a[s,t,u] counts pairs mapping onto the whole class u
    for u in range(r):
        a[:, :, u] //= len(classes[u])
    # common right eigenvectors of the commuting family N_s with (N_s)_{t,u} = a[s,t,u]
    rng = np.random.default_rng(12345)
    for _ in range(20):
        coeffs = rng.standard_normal(r)
        M = np.tensordot(coeffs, a, axes=(0, 0))
        evals, vecs = np.linalg.eig(M)
        if np.min(np.abs(evals[:, None] - evals[None, :]) + np.eye(r)) > 1e-6:
            break
    else:
        raise RuntimeError("could not separate class-algebra eigenvalues")
    chars = np.zeros((r, r), dtype=np.complex128)
    sizes = np.array([len(c) for c in classes], dtype=float)
    for i in range(r):
        v = vecs[:, i]
        pivot = int(np.argmax(np.abs(v)))
        omega = np.array([(a[s] @ v)[pivot] / v[pivot] for s in range(r)])
        d2 = G.order / np.sum(np.abs(omega) ** 2 / sizes)
        d = np.sqrt(d2)
        chars[i] = d * omega / sizes
    order = sorted(
        range(r),
        key=lambda i: (round(chars[i, 0].real), tuple(np.round(chars[i], 6).view(float))),
    )
    return classes, chars[order]


def twisted_character_table(G: FiniteGroup, alpha, sign: int = 1) -> np.ndarray:
    """(#irr, |G|) characters of (G, alpha), from class sums on the central extension.

    E = central_extension(G, alpha) holds (g, k) for g in G and k mod K. Its
    irreducible characters on which the central (1, k) acts by
    exp(sign 2 pi i k / K) restrict, on the elements (g, 0), to characters
    of (G, alpha) for one of the two signs. Needs G's identity at index 0.
    """
    ext = central_extension(G, alpha)
    E, K = ext.group, ext.order_k
    classes, table = classical_character_table(E)
    rows = np.array([character_values_by_element(E, classes, row) for row in table])
    z = np.exp(sign * 2j * np.pi / K)
    scalar = np.abs(rows[:, ext.central[1]] - z * rows[:, ext.central[0]]) <= 1e-8
    lifts = np.flatnonzero(np.asarray(ext.scalar_exponent) == 0)   # (g, 0), g ascending
    return rows[scalar][:, lifts]


def max_abs_matches(table, values, tol: float) -> list[int]:
    """Indices of the rows of a (#irr, |G|) character table within tol of values in max-abs."""
    return [j for j, row in enumerate(table) if np.max(np.abs(row - values)) <= tol]


def classical_dims(G: FiniteGroup) -> list[int]:
    _, table = classical_character_table(G)
    return sorted(int(round(x.real)) for x in table[:, 0])


def character_values_by_element(G: FiniteGroup, classes, row) -> np.ndarray:
    out = np.empty(G.order, dtype=np.complex128)
    for s, cls in enumerate(classes):
        for g in cls:
            out[g] = row[s]
    return out


def brute_isomorphic(G1: FiniteGroup, G2: FiniteGroup) -> bool:
    """Exhaustive isomorphism search over generator images; order <= 16."""
    if G1.order != G2.order:
        return False
    if G1.order > 16:
        raise ValueError("brute isomorphism capped at order 16")
    gens = generating_set(G1)
    if not gens:
        return True
    orders1 = [G1.element_order(g) for g in gens]
    candidates = [
        [h for h in range(G2.order) if G2.element_order(h) == o] for o in orders1
    ]
    # relative words for all of G1 in terms of the generators
    words = {G1.identity: ()}
    frontier = [G1.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for i, g in enumerate(gens):
                y = int(G1.mul[x, g])
                if y not in words:
                    words[y] = words[x] + (i,)
                    nxt.append(y)
        frontier = nxt

    def evaluate(images, word):
        x = G2.identity
        for i in word:
            x = int(G2.mul[x, images[i]])
        return x

    for images in itertools.product(*candidates):
        if len(subgroup_closure(G2, images).elements) != G2.order:
            continue
        phi = {g: evaluate(images, w) for g, w in words.items()}
        if len(set(phi.values())) != G1.order:
            continue
        if all(
            phi[int(G1.mul[x, y])] == int(G2.mul[phi[x], phi[y]])
            for x in range(G1.order)
            for y in range(G1.order)
        ):
            return True
    return False


def associative(mul) -> bool:
    """(x y) z == x (y z) for every triple of the table, by brute force over all n^3 at once."""
    mul = np.asarray(mul)
    n = mul.shape[0]
    return np.array_equal(mul[mul], mul[np.arange(n)[:, None, None], mul[None]])


def cocycle_violations(G: FiniteGroup, K: int, table) -> set:
    """Every normalization and 2-cocycle violation of an exponent table mod K, by brute force.

    In the report format: ("normalization", g, h) with g or h the identity,
    and ("cocycle", g, h, k) when alpha(gh, k) + alpha(g, h) != alpha(g, hk) + alpha(h, k).
    """
    t = np.asarray(table, dtype=np.int64) % K
    n, e, mul = G.order, G.identity, G.mul
    found = {("normalization", g, e) for g in range(n) if t[g, e]}
    found |= {("normalization", e, g) for g in range(n) if t[e, g]}
    for g, h, k in itertools.product(range(n), repeat=3):
        if (t[mul[g, h], k] + t[g, h] - t[g, mul[h, k]] - t[h, k]) % K:
            found.add(("cocycle", g, h, k))
    return found


COBOUNDARY_SPACE_CAP = 24 ** 5


def coboundary_cochain_brute(beta, lattice_order: int, tol=None):
    """Search mu_{K'}-valued 1-cochains c with c(1)=1 and delta(c) = beta, exhaustively.

    Returns the first match in lexicographic exponent order as a tuple of
    UnitScalar, or None when no cochain on this lattice reproduces beta
    within tol.cocycle. The reference for reps.coboundary_cochain, which
    reads the cochains off the 1-dimensional entries of irreducibles(Q, beta).
    The search space (K')^(|Q|-1) is capped at 24^5; larger requests raise
    ValueError.
    """
    tol = tol or default_tolerances()
    Q = beta.group
    t = beta.complex_table
    m = Q.order
    K = lattice_order
    if K < 1:
        raise ValueError("lattice order must be positive")
    if K ** max(m - 1, 0) > COBOUNDARY_SPACE_CAP:
        raise ValueError(f"search space {K}^{m - 1} exceeds the 24^5 cap")
    if m == 1:
        if abs(t[0, 0] - 1.0) <= tol.cocycle:
            return (UnitScalar(0, K),)
        return None
    e = Q.identity
    # pairs touching the identity constrain beta alone, not the cochain
    for q in range(m):
        if abs(t[e, q] - 1.0) > tol.cocycle or abs(t[q, e] - 1.0) > tol.cocycle:
            return None
    pairs = [
        (q1, q2, int(Q.mul[q1, q2]), complex(t[q1, q2]))
        for q1 in range(m) if q1 != e
        for q2 in range(m) if q2 != e
    ]
    roots = np.exp(2j * np.pi * np.arange(K) / K)
    # vectorize the last few exponent coordinates, keeping lexicographic order
    tail = 1
    while tail < m - 1 and K ** (tail + 1) <= 16384:
        tail += 1
    head = m - 1 - tail
    block = K ** tail
    digits = np.empty((block, tail), dtype=np.int64)
    rem = np.arange(block)
    for i in range(tail - 1, -1, -1):
        rem, digits[:, i] = np.divmod(rem, K)
    c = np.ones((block, m), dtype=np.complex128)
    c[:, 1 + head:] = roots[digits]
    for prefix in itertools.product(range(K), repeat=head):
        if head:
            c[:, 1:1 + head] = roots[list(prefix)]
        # |c1*c2/c12 - t| = |c1*c2 - t*c12| since |c12| = 1
        alive = np.arange(block)
        for q1, q2, q12, target in pairs:
            bad = (
                np.abs(c[alive, q1] * c[alive, q2] - target * c[alive, q12])
                > tol.cocycle
            )
            alive = alive[~bad]
            if not alive.size:
                break
        if alive.size:
            first = int(alive[0])
            expos = list(prefix) + [int(d) for d in digits[first]]
            return tuple(
                UnitScalar(0 if q == 0 else expos[q - 1], K) for q in range(m)
            )
    return None


def snap_to_lattice(beta: NumericCocycle, lattice_order: int,
                    tol: Tolerances | None = None) -> Cocycle | None:
    """Round a numeric cocycle onto mu_{K'} when every entry is near a lattice point.

    Opportunistic: returns None when an entry is too far off the lattice or
    when the rounded table is not an exact cocycle.
    """
    tol = tol or default_tolerances()
    expo = _lattice_exponents(beta.table, lattice_order)
    snapped = np.exp(2j * np.pi * expo / lattice_order)
    if np.max(np.abs(snapped - beta.table)) > tol.snap:
        return None
    report = validate_cocycle_table(beta.group, lattice_order, expo)
    if not report.ok:
        return None
    return Cocycle(group=beta.group, order=lattice_order, exponents=expo)


def chi_by_pair(qs, q1: int, q2: int) -> int:
    """sigma(q1 q2)^-1 sigma(q1) sigma(q2), for one pair of the quotient."""
    G, s = qs.parent, qs.section
    q12 = int(qs.quotient.mul[q1, q2])
    return int(G.mul[G.inv[s[q12]], G.mul[s[q1], s[q2]]])


def tau_exponents_by_pair(alpha, qs, q1: int, q2: int) -> tuple[int, int]:
    """Both defining expressions of the tau_scalar exponent mod K, for one pair.

    With s1 = sigma(q1), s2 = sigma(q2), x = sigma(q1 q2) and c = chi(q1, q2):
    alpha(s1, s2) - alpha(x, c), and alpha(x^-1, s1 s2) - alpha(x, x^-1) + alpha(s1, s2).
    """
    G, s, E, K = qs.parent, qs.section, alpha.exponents, alpha.order
    x = s[int(qs.quotient.mul[q1, q2])]
    xinv = int(G.inv[x])
    prod = int(G.mul[s[q1], s[q2]])
    direct = (int(E[s[q1], s[q2]]) - int(E[x, chi_by_pair(qs, q1, q2)])) % K
    expanded = (int(E[xinv, prod]) - int(E[x, xinv]) + int(E[s[q1], s[q2]])) % K
    return direct, expanded


def induced_table_by_pair(datum, tol) -> np.ndarray:
    """The induced cocycle table of an orbit datum, one pair (q1, q2) at a time.

    tau_scalar(q1,q2) tau(chi(q1,q2)) M(q2)^-1 M(q1)^-1 M(q1 q2) must be a unit
    scalar matrix; raises NotScalar or NotUnimodular at the first pair in
    row-major order that is not, NotScalar first.
    """
    qs, tau = datum.quotient, datum.tau
    Q = qs.quotient
    K = datum.alpha_gt.order
    apos = {g: i for i, g in enumerate(datum.a_in_gt.elements)}
    Minv = np.conj(np.transpose(datum.M, (0, 2, 1)))
    table = np.empty((Q.order, Q.order), dtype=np.complex128)
    for q1 in range(Q.order):
        for q2 in range(Q.order):
            direct, expanded = tau_exponents_by_pair(datum.alpha_gt, qs, q1, q2)
            assert direct == expanded
            scal = complex(np.exp(2j * np.pi * direct / K))
            q12 = int(Q.mul[q1, q2])
            c = apos[chi_by_pair(qs, q1, q2)]
            T = scal * tau.matrices[c] @ Minv[q2] @ Minv[q1] @ datum.M[q12]
            diag = np.diagonal(T)
            off = T - np.diag(diag)
            mean = complex(np.mean(diag))
            if np.max(np.abs(off)) > tol.scalar or np.max(np.abs(diag - mean)) > tol.scalar:
                raise NotScalar(f"induced matrix at ({q1},{q2}) is not scalar")
            if abs(abs(mean) - 1.0) > tol.unitary:
                raise NotUnimodular(f"induced scalar at ({q1},{q2}) has modulus {abs(mean)}")
            table[q1, q2] = mean
    return table


def reconstructed_by_element(datum, hom) -> ProjectiveRep:
    """The isotropy-group representation on V_tau (x) Hom, one element h at a time.

    h acts by [M_q scale tau(sigma(q)^-1 h)] (x) hom(q) with q = pi(h), for
    the restricted cocycle; its character is that of the tau-isotypic part
    of the input to hom_rep. A result with a rep_violations_by_element entry
    raises DecompositionFailure.
    """
    qs, gt = datum.quotient, datum.gt_group
    ctable = datum.alpha_gt.complex_table
    apos = {g: i for i, g in enumerate(datum.a_in_gt.elements)}
    d = datum.tau.dim * hom.dim
    mats = np.empty((gt.order, d, d), dtype=np.complex128)
    for h in range(gt.order):
        q = qs.projection[h]
        s = qs.section[q]
        sinv = int(gt.inv[s])
        x = int(gt.mul[sinv, h])
        scale = np.conj(ctable[s, sinv]) * ctable[sinv, h]
        left = datum.M[q] @ (scale * datum.tau.matrices[apos[x]])
        mats[h] = np.kron(left, hom.matrices[q])
    rep = ProjectiveRep(gt, datum.alpha_gt, d, mats)
    violations = rep_violations_by_element(rep)
    if violations:
        raise DecompositionFailure(f"reconstruction is not a representation: {violations[:3]}")
    return rep


def character_classes_by_max_abs(chars, tol: float) -> tuple[list[int], list[int]]:
    """The first row of each class of rows within tol in max-abs, and the class sizes.

    A row joins the earliest class whose first row it matches.
    """
    firsts: list[int] = []
    counts: list[int] = []
    for c, values in enumerate(chars):
        hit = [k for k, f in enumerate(firsts) if np.max(np.abs(chars[f] - values)) <= tol]
        if hit:
            counts[hit[0]] += 1
        else:
            firsts.append(c)
            counts.append(1)
    return firsts, counts


def rep_violations_by_element(rep, tol=None) -> list:
    """Every violated pair of the defining relation and non-unitary element, element by element.

    In order: ("identity",) when rho(1) is not within tol.rep of Id,
    ("unitary", g) for each g with |rho(g)^H rho(g) - I| over tol.unitary,
    then ("relation", g, h) for each pair, in row-major order, whose
    residual |rho(g) rho(h) - alpha(g,h) rho(gh)| is over the library's
    _relation_tol. A NaN fails every check it enters; a representation has none.
    """
    tol = tol or default_tolerances()
    rtol = _relation_tol(rep.cocycle, tol)
    G, mats, d = rep.group, rep.matrices, rep.dim
    ctable = rep.cocycle.complex_table
    eye = np.eye(d)
    found = [] if np.max(np.abs(mats[G.identity] - eye)) <= tol.rep else [("identity",)]
    for g in range(G.order):
        if not np.max(np.abs(mats[g].conj().T @ mats[g] - eye)) <= tol.unitary:
            found.append(("unitary", g))
    for g in range(G.order):        # one row of pairs (g, h) at a time
        diff = mats[g] @ mats - ctable[g][:, None, None] * mats[G.mul[g]]
        bad = ~(np.max(np.abs(diff), axis=(1, 2)) <= rtol)
        found += [("relation", g, h) for h in np.flatnonzero(bad).tolist()]
    return found


def conjugation_residual_by_element(X, Y, M) -> float:
    """max over g of |Y(g) - M^H X(g) M|, one element at a time."""
    return float(np.max([np.max(np.abs(y - M.conj().T @ x @ M)) for x, y in zip(X, Y)]))


def check_twisted_relation_by_row(rep, bound: float) -> None:
    """Raise DecompositionFailure at the first q1 whose row of the relation misses bound."""
    Q, mats = rep.group, rep.matrices
    beta = rep.cocycle.complex_table
    for q1 in range(Q.order):
        err = float(np.max([np.abs(mats[q1] @ mats[q2] - beta[q1, q2] * mats[Q.mul[q1, q2]])
                            for q2 in range(Q.order)]))
        if not err <= bound:
            raise DecompositionFailure(f"beta-twisted relation fails at q1={q1} ({err:.2e})")


def nullspace(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the kernel, columns; rows(A) >= cols(A) assumed."""
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    cutoff = _NULLSPACE_RTOL * max(1.0, s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def hom_space(G: FiniteGroup, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {f : X(g) f = f Y(g)}, as columns of row-major vec f.

    X and Y are (|G|, ., .) stacks. The equations are imposed on the
    generators of G only: when X and Y carry the same cocycle, the relation
    for g and h gives it for gh.
    """
    gens = list(generating_set(G))
    if not gens:
        return np.eye(X.shape[1] * Y.shape[1])
    return nullspace(_hom_equations(X[gens], Y[gens]))


def hom_action_by_vector(datum, w_lookup, q_list, tol):
    """The Hom basis and q . f = W(sigma(q)) f M_q^-1 matrices, one (q, basis vector) at a time.

    w_lookup maps a parent-G element index to the matrix acting on W; it
    must cover A and sigma(q) for the q in q_list. Raises NotIsotypic when
    Hom_A(V_tau, W) is 0, and NumericFailure at the first (q, i) whose
    image leaves the Hom space by more than tol.rep_numeric.
    """
    tau = datum.tau
    a_order = [datum.gt_map[x] for x in datum.a_in_gt.elements]
    w_a = np.stack([w_lookup(g) for g in a_order])
    F = hom_space(tau.group, w_a, tau.matrices)
    m, d_w = F.shape[1], w_a.shape[1]
    if m == 0:
        raise NotIsotypic("input has no component on the orbit representative")
    mats = {}
    for q in q_list:
        S = w_lookup(int(datum.sections[q]))
        Minv = datum.M[q].conj().T
        R = np.empty((m, m), dtype=np.complex128)
        for i in range(m):
            moved = (S @ F[:, i].reshape(d_w, tau.dim) @ Minv).reshape(-1)
            coords = F.conj().T @ moved
            resid = float(np.linalg.norm(moved - F @ coords))
            if not resid <= tol.rep_numeric:
                raise NumericFailure(f"q.f left the Hom space (residual {resid:.2e})")
            R[:, i] = coords
        mats[q] = R
    return F, mats


def hom_rep(W, datum, tol=None) -> ProjectiveRep:
    """The multiplicity representation of the isotropy quotient on Hom_A(V_tau, W).

    W is a representation of the isotropy group, in its standalone
    indexing; the Hom space sees only its tau-isotypic part (NotIsotypic
    when that is 0). The result must satisfy the beta-twisted relation
    within 10 tol.rep (check_twisted_relation_by_row), and its dimension
    must be the multiplicity of tau in W|_A; DecompositionFailure otherwise.
    """
    tol = tol or default_tolerances()
    pos = {g: i for i, g in enumerate(datum.gt_map)}
    Q = datum.q_group
    _, mats = hom_action_by_vector(datum, lambda g: W.matrices[pos[g]], range(Q.order), tol)
    rep = ProjectiveRep(Q, datum.beta, len(mats[0]), np.stack([mats[q] for q in range(Q.order)]))
    check_twisted_relation_by_row(rep, 10 * tol.rep)
    tau_mult = multiplicity(restrict_rep(W, datum.a_in_gt, datum.tau.cocycle), datum.tau, tol)
    if rep.dim != tau_mult:
        raise DecompositionFailure(f"Hom dimension {rep.dim} != character multiplicity {tau_mult}")
    return rep


def regular_rep(G: FiniteGroup, cocycle) -> ProjectiveRep:
    """Twisted regular representation: rho(g) e_h = alpha(g,h) e_{gh}."""
    if cocycle.group is not G and not cocycle.group.same_table(G):
        raise InputError("cocycle is not defined on the given group")
    n = G.order
    ctable = cocycle.complex_table
    mats = np.zeros((n, n, n), dtype=np.complex128)
    cols = np.arange(n)
    for g in range(n):
        mats[g, G.mul[g, cols], cols] = ctable[g, cols]
    return ProjectiveRep(G, cocycle, n, mats)


def restrict_rep(rho, handle, sub_cocycle=None) -> ProjectiveRep:
    """Matrices re-indexed to the subgroup's own numbering."""
    if handle.parent is not rho.group and not handle.parent.same_table(rho.group):
        raise InputError("handle does not belong to the representation's group")
    sub, to_parent = handle.as_group()
    if sub_cocycle is None:
        sub_cocycle, _ = restrict(rho.cocycle, handle)
    return ProjectiveRep(sub, sub_cocycle, rho.dim, rho.matrices[list(to_parent)])


def conjugate_rep(cocycle, H, g: int, rho) -> tuple:
    """(handle of g H g^-1, the representation of H transported to it).

    (g . rho)(h) = alpha(g^-1 h, g) alpha(g, g^-1 h)^-1 rho(g^-1 h g); the
    scalars use the full cocycle on the parent group, and the result is an
    exact representation for the cocycle restricted to the conjugate.
    """
    G = H.parent
    conj_elems = tuple(np.sort(G.mul[G.mul[g, list(H.elements)], G.inv[g]]).tolist())
    out_handle = H if conj_elems == H.elements else SubgroupHandle(G, conj_elems)
    out_cocycle, out_map = restrict(cocycle, out_handle)
    back, scale = _conjugation(cocycle, g, out_map)
    mats = scale[:, None, None] * rho.matrices[H.position(back)]
    return out_handle, ProjectiveRep(out_cocycle.group, out_cocycle, rho.dim, mats)


def act(alpha, A, g: int, tau) -> ProjectiveRep:
    """The twisted conjugation action of g in G on a representation of a normal A."""
    out_handle, rep = conjugate_rep(alpha, A, g, tau)
    if out_handle.elements != A.elements:
        raise NotNormal("act requires a normal subgroup")
    return rep


def multiplicity(W, tau, tol=None) -> int:
    """dim Hom(V_tau, W) from one character inner product, rounded by the library's rule.

    Raises NonIntegerMultiplicity when the inner product is not within
    tol.char of a non-negative integer (a NaN never is).
    """
    tol = tol or default_tolerances()
    _check_compatible(W, tau)
    return int(_multiplicities(character(W).values[None], np.conj(character(tau).values)[None],
                               tol.char)[0, 0])


def character_inner(chi, psi) -> complex:
    """(1/|G|) sum_g chi(g) conj(psi(g))."""
    return complex(np.mean(chi.values * np.conj(psi.values)))


def is_irreducible(rep) -> bool:
    return commutant_dimension(rep) == 1


def dense_split(G: FiniteGroup, cocycle, seed: int):
    """(T, w, V): the commutant element of the seeded split, its eigenvalues and eigenvectors.

    T = X + X^H with X = sum_k c_k R(k), R(k) e_h = alpha(h,k) e_{hk}, for the
    c_k the library draws from default_rng(seed); X is scattered into one
    |G| x |G| matrix through the multiplication table, and w, V come from one
    dense eigh.
    """
    n = G.order
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    X = np.zeros((n, n), dtype=np.complex128)
    X[G.mul, np.arange(n)[:, None]] = c * cocycle.complex_table     # X[hk, h] = c_k alpha(h,k)
    T = X + X.conj().T
    w, V = np.linalg.eigh(T)
    return T, w, V


def action_law_failure(group: FiniteGroup, action: np.ndarray):
    """The first (g, h, x), row-major, with g.(h.x) != (gh).x over all pairs, or None."""
    n, size = action.shape
    composed = action[:, action]                  # [g, h, x] = g.(h.x)
    direct = action[group.mul.reshape(-1)].reshape(n, n, size)
    bad = np.argwhere(composed != direct)
    return tuple(map(int, bad[0])) if bad.size else None


def _orbit_data(G, A, alpha, seed=0, phase_seed=None, tol=None) -> list:
    """orbit_data over action_table(G, A, alpha), as a K-group call reads it."""
    return orbit_data(action_table(G, A, alpha, seed=seed, tol=tol), alpha,
                      phase_seed=phase_seed, tol=tol)


def pullback_matrix_by_orbit(G, cocycle, f, x, y) -> np.ndarray:
    """pullback_matrix with one multiplicities call per source orbit."""
    from twistdecomp.kgroups import _moved_characters, k0_of_gset

    tol = default_tolerances()
    kx, ky = k0_of_gset(G, cocycle, x), k0_of_gset(G, cocycle, y)
    out = np.zeros((kx.rank, ky.rank), dtype=np.int64)
    rows, cols = kx.offsets, ky.offsets
    for i, xp in enumerate(kx.orbit_basepoints):
        j, witness = ky.locate(f[xp])
        moved = _moved_characters(cocycle, ky, j, witness, kx.isotropies[i].to_parent)
        out[rows[i]:rows[i + 1], cols[j]:cols[j + 1]] = kx.summands[i].multiplicities(
            moved, tol.char).T
    return out


def phi_matrix_by_orbit(G, A, alpha, x) -> np.ndarray:
    """phi_matrix with one multiplicities call per quotient-set orbit."""
    from twistdecomp.kgroups import _moved_characters, gset_as_quotient_action, k0_of_gset

    tol = default_tolerances()
    kx = k0_of_gset(G, alpha, x)
    blocks = []
    for datum in _orbit_data(G, A, alpha):
        kq = k0_of_gset(datum.q_group, datum.beta, gset_as_quotient_action(x, datum))
        block = np.zeros((kq.rank, kx.rank), dtype=np.int64)
        rows, cols = kq.offsets, kx.offsets
        elements, weights = _hom_weights(datum, alpha)
        for qo, y_point in enumerate(kq.orbit_basepoints):
            i, witness = kx.locate(y_point)
            q_iso = list(kq.isotropies[qo].elements)
            moved = _moved_characters(alpha, kx, i, witness, elements[q_iso])
            chi_hom = np.sum(moved * weights[q_iso], axis=2)
            block[rows[qo]:rows[qo + 1], cols[i]:cols[i + 1]] = kq.summands[qo].multiplicities(
                chi_hom, tol.char).T
        blocks.append(block)
    return np.concatenate(blocks)
