"""Projective representations: validation, regular representation,
splitting into irreducibles, characters, intertwiners.

An alpha-representation satisfies rho(g) rho(h) = alpha(g,h) rho(gh) with
rho(1) = Id and all matrices unitary. Irreducibles are split off the
twisted regular representation in one step: the right operators
R(k) e_h = alpha(h,k) e_{hk} commute with it, and the eigenspaces of one
random Hermitian combination of them are its irreducible subspaces
(Dixon's method). Irreducibility is certified structurally: the commutant
(solutions M of M rho(g) = rho(g) M) must be one-dimensional, never
inferred from eigenvalue multiplicities alone. The table is further
certified by block multiplicities, the sum of squared dimensions and an
exact integer count of alpha-regular conjugacy classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _memo
from .cocycles import Cocycle, NumericCocycle, restrict
from .config import Tolerances, default_tolerances
from .errors import (
    AmbiguousCharacter,
    InputError,
    NonIntegerMultiplicity,
    NotIrreducible,
    NumericFailure,
    SplitFailure,
)
from .groups import FiniteGroup, SubgroupHandle, generating_set

MAX_DENSE_ORDER = 512
_NULLSPACE_RTOL = 1e-8
_CLUSTER_ATOL = 1e-7
_FINGERPRINT_DIGITS = 9
_MATCH_CHUNK = 1 << 16   # complex entries per broadcast in match_characters


@dataclass(eq=False)
class ProjectiveRep:
    """A map g -> unitary matrix obeying the twisted multiplication rule."""

    group: FiniteGroup
    cocycle: Cocycle | NumericCocycle
    dim: int
    matrices: np.ndarray            # (|G|, dim, dim) complex

    def __post_init__(self):
        self.matrices = np.ascontiguousarray(self.matrices, dtype=np.complex128)
        self.matrices.flags.writeable = False

    def matrix(self, g: int) -> np.ndarray:
        return self.matrices[g]


@dataclass(eq=False)
class AlphaCharacter:
    """Traces of a projective representation, one value per group element."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        self.values.flags.writeable = False

    @property
    def dim(self) -> int:
        return int(round(self.values[0].real))

    def fingerprint(self, digits: int = _FINGERPRINT_DIGITS) -> tuple:
        """((re, im), ...) of the values, each as Python's round(x, digits)."""
        parts = np.stack([self.values.real, self.values.imag])
        rounded = np.round(parts, digits) + 0.0
        # np.round rounds x * 10**digits after one float multiply, so it can
        # pick the other neighbour only within an ulp of a half-integer.
        scaled = parts * 10.0 ** digits
        near_half = np.abs(scaled - np.floor(scaled) - 0.5) <= 4 * np.abs(np.spacing(scaled))
        for i, j in np.argwhere(near_half):
            rounded[i, j] = round(float(parts[i, j]), digits) + 0.0
        return tuple(zip(rounded[0].tolist(), rounded[1].tolist()))

    def close_to(self, other: "AlphaCharacter", tol: float) -> bool:
        return self.values.shape == other.values.shape and bool(
            np.max(np.abs(self.values - other.values)) <= tol
        )


def character(rep: ProjectiveRep) -> AlphaCharacter:
    return AlphaCharacter(np.trace(rep.matrices, axis1=1, axis2=2))


def character_inner(chi: AlphaCharacter, psi: AlphaCharacter) -> complex:
    """(1/|G|) sum_g chi(g) conj(psi(g))."""
    return complex(np.mean(chi.values * np.conj(psi.values)))


@dataclass(eq=False)
class RepReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def _relation_tol(cocycle, tol: Tolerances) -> float:
    return tol.rep if cocycle.is_exact else tol.rep_numeric


def validate_rep(rep: ProjectiveRep, tol: Tolerances | None = None) -> RepReport:
    """Report every violated pair of the defining relation and non-unitary element."""
    tol = tol or default_tolerances()
    G = rep.group
    mats = rep.matrices
    violations: list = []
    d = rep.dim
    if mats.shape != (G.order, d, d):
        return RepReport([("shape", mats.shape)])
    eye = np.eye(d)
    if np.max(np.abs(mats[G.identity] - eye)) > tol.rep:
        violations.append(("identity",))
    for g in range(G.order):
        if np.max(np.abs(mats[g].conj().T @ mats[g] - eye)) > tol.unitary:
            violations.append(("unitary", g))
    ctable = rep.cocycle.complex_table
    rtol = _relation_tol(rep.cocycle, tol)
    for g in range(G.order):
        lhs = mats[g] @ mats
        rhs = ctable[g][:, None, None] * mats[G.mul[g]]
        bad = np.flatnonzero(np.max(np.abs(lhs - rhs), axis=(1, 2)) > rtol)
        for h in bad:
            violations.append(("relation", g, int(h)))
    return RepReport(violations)


def regular_rep(G: FiniteGroup, cocycle: Cocycle | NumericCocycle) -> ProjectiveRep:
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


def _nullspace(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the kernel, columns; rows(A) >= cols(A) assumed."""
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    cutoff = _NULLSPACE_RTOL * max(1.0, s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def _hom_space(G: FiniteGroup, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {f : X(g) f = f Y(g)}, as columns of row-major vec f.

    X and Y are (|G|, ., .) stacks. The equations are imposed on the
    generators of G only: when X and Y carry the same cocycle, the relation
    for g and h gives it for gh. The rows of generator g are
    kron(X(g), I) - kron(I, Y(g)^T), built for all generators at once.
    """
    gens = list(generating_set(G))
    dx, dy = X.shape[1], Y.shape[1]
    if not gens:
        return np.eye(dx * dy)
    rows = (np.einsum("gij,kl->gikjl", X[gens], np.eye(dy))
            - np.einsum("ij,glk->gikjl", np.eye(dx), Y[gens]))
    return _nullspace(rows.reshape(-1, dx * dy))


def commutant_dimension(rep: ProjectiveRep) -> int:
    return _hom_space(rep.group, rep.matrices, rep.matrices).shape[1]


def is_irreducible(rep: ProjectiveRep) -> bool:
    return commutant_dimension(rep) == 1


def _cluster_sorted(w: np.ndarray) -> list[np.ndarray]:
    """Group ascending eigenvalues into clusters separated by a real gap."""
    atol = _CLUSTER_ATOL * max(1.0, float(np.max(np.abs(w))))
    clusters = [[0]]
    for i in range(1, w.size):
        if w[i] - w[i - 1] > atol:
            clusters.append([i])
        else:
            clusters[-1].append(i)
    return [np.array(c) for c in clusters]


def _split_regular(G: FiniteGroup, cocycle, seed: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Eigenvectors and eigenvalue clusters of a random element of the commutant.

    The right operators R(k) e_h = alpha(h,k) e_{hk} commute with every
    rho_reg(g) by the 2-cocycle identity, so T = X + X^H with
    X = sum_k c_k R(k) does too. For generic c each eigenspace of T is one
    irreducible invariant subspace; a class of dimension d owns d of them.
    """
    n = G.order
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    X = np.zeros((n, n), dtype=np.complex128)
    X[G.mul, np.arange(n)[:, None]] = c * cocycle.complex_table   # X[hk, h] = c_k alpha(h,k)
    w, V = np.linalg.eigh(X + X.conj().T)
    return V, _cluster_sorted(w)


def _block_characters(G: FiniteGroup, ctable: np.ndarray, V: np.ndarray,
                      clusters: list[np.ndarray]) -> np.ndarray:
    """(#clusters, |G|) characters of the blocks spanned by each cluster's columns.

    Column j contributes sum_h conj(V[gh, j]) alpha(g,h) V[h, j] at g.
    """
    Vc = V.conj()
    cols = np.empty((G.order, V.shape[1]), dtype=np.complex128)
    for g in range(G.order):
        cols[g] = ctable[g] @ (Vc[G.mul[g]] * V)
    return np.stack([cols[:, idx].sum(axis=1) for idx in clusters])


def _block_matrices(G: FiniteGroup, ctable: np.ndarray, B: np.ndarray) -> np.ndarray:
    """B^H rho_reg(g) B for every g, as one (|G|, d, d) array.

    Row i of every matrix is sum_h conj(B[gh, i]) alpha(g,h) B[h], one GEMM.
    """
    n, d = B.shape
    Bc = B.conj()
    mats = np.empty((n, d, d), dtype=np.complex128)
    for i in range(d):
        mats[:, i, :] = (Bc[G.mul, i] * ctable) @ B
    return mats


def _regular_class_count(G: FiniteGroup, cocycle, tol: Tolerances) -> int:
    """Number of alpha-regular conjugacy classes, counted in integers.

    g is alpha-regular when alpha(g,h) = alpha(h,g) for every h commuting
    with g. Regularity is a class function, so the count is the sum of
    |C_G(g)| over regular g, divided by |G|. By Schur's theorem it equals
    |Irr(G, alpha)|.
    """
    comm = G.mul == G.mul.T
    if isinstance(cocycle, Cocycle):
        differ = cocycle.exponents != cocycle.exponents.T
    else:
        table = cocycle.complex_table
        differ = np.abs(table - table.T) > tol.snap
    regular = ~np.any(comm & differ, axis=1)
    total = int(np.count_nonzero(comm[regular]))
    if total % G.order:
        raise SplitFailure(f"centralizer sum {total} over regular elements is not a multiple of {G.order}")
    return total // G.order


@dataclass(eq=False)
class IrrTable:
    """All irreducible projective representations for one (group, cocycle)."""

    group: FiniteGroup
    cocycle: Cocycle | NumericCocycle
    irreducibles: list[ProjectiveRep]
    characters: list[AlphaCharacter]

    def __len__(self) -> int:
        return len(self.irreducibles)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(rep.dim for rep in self.irreducibles)

    @cached_property
    def character_values(self) -> np.ndarray:
        """The characters stacked into one read-only (#irr, |G|) array."""
        values = np.stack([c.values for c in self.characters])
        values.flags.writeable = False
        return values

    def match_characters(self, values: np.ndarray, tol: float) -> np.ndarray:
        """Index of the unique matching table entry for each row, -1 where none.

        A row matches an entry when their values differ by at most tol in
        max-abs; a row matching several entries raises AmbiguousCharacter.
        """
        values = np.asarray(values, dtype=np.complex128)
        table = self.character_values
        out = np.full(len(values), -1, dtype=np.int64)
        if values.shape[1:] != table.shape[1:]:
            return out
        step = max(1, _MATCH_CHUNK // table.size)
        for lo in range(0, len(values), step):
            chunk = values[lo:lo + step]
            close = np.max(np.abs(chunk[:, None, :] - table[None]), axis=2) <= tol
            hits = close.sum(axis=1)
            if np.any(hits > 1):
                raise AmbiguousCharacter("character matched several table entries")
            found = np.flatnonzero(hits == 1)
            out[lo + found] = np.argmax(close[found], axis=1)
        return out

    def multiplicities(self, values: np.ndarray, tol: float) -> np.ndarray:
        """(rows, #irr) multiplicities of a (rows, |G|) stack of characters.

        The rows must be characters on this table's group and cocycle. Entry
        (r, i) is round(values[r] . conj(chi_i) / |G|), the rule of
        multiplicity: a value not within tol of a non-negative integer, NaN
        included, raises NonIntegerMultiplicity.
        """
        table = self.character_values
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 2 or values.shape[1] != table.shape[1]:
            raise InputError(f"characters of shape {values.shape} for order {table.shape[1]}")
        inner = values @ table.conj().T / table.shape[1]
        rounded = np.round(inner.real)
        bad = np.argwhere(~(np.abs(inner - rounded) <= tol) | (rounded < 0))
        if bad.size:
            val = inner[tuple(bad[0])]
            raise NonIntegerMultiplicity(f"character inner product {val} is not a multiplicity")
        return rounded.astype(np.int64)

    def match_character(self, chi: AlphaCharacter, tol: float) -> int | None:
        """Index of the unique table entry whose character matches, if any."""
        j = int(self.match_characters(chi.values[None], tol)[0])
        return j if j >= 0 else None


def _sort_key(chi: AlphaCharacter):
    return (chi.dim, chi.fingerprint())


def irreducibles(G: FiniteGroup, cocycle: Cocycle | NumericCocycle,
                 seed: int = 0, tol: Tolerances | None = None) -> IrrTable:
    """Decompose the twisted regular representation into irreducibles.

    One eigendecomposition of a seeded random Hermitian element of the
    right-regular commutant splits the regular representation into
    irreducible blocks; blocks are deduplicated by character. The table is
    certified (commutant dimension 1 per entry, as many blocks per class as
    its dimension, squared dimensions summing to |G|, as many classes as
    alpha-regular conjugacy classes); on a failed certificate the split is
    redrawn with the next seed, up to 5 seeds. The table is sorted by
    (dimension, lexicographic character), so the result is deterministic
    per seed.

    A certified table is split and certified once per content: the content
    digests of the group and the cocycle, seed and tolerances. A later call
    with the same content gets the same matrices and characters back, in a
    table whose group and cocycle are the caller's objects. A failure is
    never remembered.
    """
    tol = tol or default_tolerances()
    if G.order > MAX_DENSE_ORDER:
        raise InputError(f"dense decomposition capped at order {MAX_DENSE_ORDER}")
    if cocycle.group is not G and not cocycle.group.same_table(G):
        raise InputError("cocycle is not defined on the given group")
    key = _memo.key("irreducibles", G._content, cocycle._content, seed, tol)
    hit = _memo.get(key)
    if hit is None:
        hit = _split_certified(G, cocycle, seed, tol)
        _memo.put(key, hit, sum(a.nbytes for arrays in hit for a in arrays))
    return _table(G, cocycle, *hit)


def _table(G: FiniteGroup, cocycle, matrices: list[np.ndarray],
           values: list[np.ndarray]) -> IrrTable:
    """A new IrrTable on the caller's group and cocycle, over stored read-only arrays."""
    return IrrTable(group=G, cocycle=cocycle,
                    irreducibles=[ProjectiveRep(G, cocycle, m.shape[1], m) for m in matrices],
                    characters=[AlphaCharacter(v) for v in values])


def _split_certified(G: FiniteGroup, cocycle, seed: int,
                     tol: Tolerances) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The sorted matrices and characters of a certified table, redrawing up to 5 seeds."""
    last_error: Exception | None = None
    for attempt in range(5):
        try:
            V, clusters = _split_regular(G, cocycle, seed + attempt)
            table = _assemble_table(G, cocycle, V, clusters, tol)
            return [r.matrices for r in table.irreducibles], [c.values for c in table.characters]
        except SplitFailure as exc:
            last_error = exc
    raise SplitFailure(f"no clean split after 5 seeds starting at {seed}") from last_error


def _assemble_table(G: FiniteGroup, cocycle, V: np.ndarray, clusters: list[np.ndarray],
                    tol: Tolerances) -> IrrTable:
    """One certified table entry per character class of the split blocks.

    Blocks are deduplicated by character. Isomorphic blocks share a
    character, so certifying one block per class certifies the others.
    Certificates: every class has as many blocks as its dimension, the
    squared dimensions sum to |G|, the class count equals the number of
    alpha-regular conjugacy classes, and every entry has commutant dimension 1.
    """
    n = G.order
    ctable = cocycle.complex_table
    chars = _block_characters(G, ctable, V, clusters)
    known = np.empty_like(chars)        # characters of firsts, in order
    firsts: list[int] = []
    counts: list[int] = []
    for c, values in enumerate(chars):
        k = len(firsts)
        hit = np.flatnonzero(np.max(np.abs(known[:k] - values), axis=1) <= tol.char)
        if hit.size:
            counts[hit[0]] += 1
        else:
            known[k] = values
            firsts.append(c)
            counts.append(1)
    dims = [clusters[c].size for c in firsts]
    if counts != dims:
        raise SplitFailure(f"block multiplicities {counts} differ from dimensions {dims}")
    if sum(d * d for d in dims) != n:
        raise SplitFailure(f"sum of squared dimensions {dims} misses group order {n}")
    expected = _regular_class_count(G, cocycle, tol)
    if len(dims) != expected:
        raise SplitFailure(f"{len(dims)} classes, but {expected} alpha-regular conjugacy classes")
    reps = []
    for c in firsts:
        rep = ProjectiveRep(G, cocycle, clusters[c].size, _block_matrices(G, ctable, V[:, clusters[c]]))
        if _hom_space(G, rep.matrices, rep.matrices).shape[1] != 1:
            raise SplitFailure(f"block of dimension {rep.dim} is not irreducible")
        reps.append(rep)
    table_chars = [character(r) for r in reps]
    order = sorted(range(len(reps)), key=lambda i: _sort_key(table_chars[i]))
    return IrrTable(group=G, cocycle=cocycle, irreducibles=[reps[i] for i in order],
                    characters=[table_chars[i] for i in order])


def _check_compatible(r1: ProjectiveRep, r2: ProjectiveRep) -> None:
    if r1.group is not r2.group and not r1.group.same_table(r2.group):
        raise InputError("representations live on different groups")
    if not r1.cocycle.same_as(r2.cocycle):
        raise InputError("representations use different cocycle tables")


def multiplicity(W: ProjectiveRep, tau: ProjectiveRep,
                 tol: Tolerances | None = None) -> int:
    """dim Hom(V_tau, W) via the character inner product, rounded to an integer.

    Fails loudly when the inner product is not close to an integer, which
    usually means the two representations carry different cocycle tables.
    """
    tol = tol or default_tolerances()
    _check_compatible(W, tau)
    val = character_inner(character(W), character(tau))
    r = int(round(val.real))
    if abs(val - r) > tol.char or r < 0:
        raise NonIntegerMultiplicity(f"character inner product {val} is not a multiplicity")
    return r


def intertwiner(rho1: ProjectiveRep, rho2: ProjectiveRep,
                tol: Tolerances | None = None) -> np.ndarray | None:
    """Unitary M with rho2(g) = M^-1 rho1(g) M, or None if not isomorphic.

    Both inputs must be irreducible; Schur's lemma then makes M unique up
    to phase. The phase makes tr(rho1(g) M) real positive at the first g
    whose |tr(rho1(g) M)| is within tol.char of the maximum. These traces do
    not change when rho1 and rho2 change basis together, so neither does
    the phase.
    """
    tol = tol or default_tolerances()
    _check_compatible(rho1, rho2)
    if rho1.dim != rho2.dim:
        return None
    pairing = character_inner(character(rho1), character(rho2))
    mult = int(round(pairing.real))
    if abs(pairing - mult) > tol.char or mult not in (0, 1):
        raise NotIrreducible(f"character pairing {pairing} is not 0 or 1")
    if mult == 0:
        return None
    if commutant_dimension(rho1) != 1:
        raise NotIrreducible("first representation has commutant dimension > 1")
    if commutant_dimension(rho2) != 1:
        raise NotIrreducible("second representation has commutant dimension > 1")
    d = rho1.dim
    kernel = _hom_space(rho1.group, rho1.matrices, rho2.matrices)
    if kernel.shape[1] != 1:
        raise NotIrreducible(f"Schur solution space has dimension {kernel.shape[1]}, not 1")
    M = kernel[:, 0].reshape(d, d)
    # scale to unitary: M^H M = c I for an intertwiner between unitary irreps
    c = np.trace(M.conj().T @ M).real / d
    M = M / np.sqrt(c)
    traces = np.einsum("gij,ji->g", rho1.matrices, M)
    size = np.abs(traces)
    z = traces[np.flatnonzero(size >= size.max() - tol.char)[0]]
    M = M * (np.conj(z) / np.abs(z))
    rtol = _relation_tol(rho1.cocycle, tol)
    err = max(
        float(np.max(np.abs(rho2.matrices[g] - M.conj().T @ rho1.matrices[g] @ M)))
        for g in range(rho1.group.order)
    )
    if err > 10 * rtol:
        raise NumericFailure(f"intertwiner verification failed (residual {err:.2e})")
    return M


def restrict_rep(rho: ProjectiveRep, handle: SubgroupHandle,
                 sub_cocycle: Cocycle | NumericCocycle | None = None,
                 tol: Tolerances | None = None) -> ProjectiveRep:
    """Matrices re-indexed to the subgroup's own numbering."""
    if handle.parent is not rho.group and not handle.parent.same_table(rho.group):
        raise InputError("handle does not belong to the representation's group")
    sub, to_parent = handle.as_group()
    if sub_cocycle is None:
        sub_cocycle, _ = restrict(rho.cocycle, handle, tol)
    mats = rho.matrices[list(to_parent)]
    return ProjectiveRep(sub, sub_cocycle, rho.dim, mats)
