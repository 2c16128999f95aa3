"""Projective representations: splitting the twisted regular representation
into irreducibles, characters, intertwiners.

An alpha-representation satisfies rho(g) rho(h) = alpha(g,h) rho(gh) with
rho(1) = Id and all matrices unitary. Irreducibles are split off the
twisted regular representation in one step: the right operators
R(k) e_h = alpha(h,k) e_{hk} commute with it, and the eigenspaces of one
random Hermitian combination T of them are its irreducible subspaces
(Dixon's method). T also commutes with the left operator L(c) of an
element c of maximal order m. L(c) shifts each right coset <c>r with
phases of alpha, so its eigenvectors are those phases times the columns of
the m x m DFT matrix; in that basis T is block diagonal, and one batched
eigh of m blocks of order |G|/m diagonalizes it in O(|G|^3 / m^2) in place
of O(|G|^3). A split is certified on characters and on the generators
alone: each entry's basis must span a subspace that the left operators of
the generators keep, and the compressions there must have a
one-dimensional commutant (solutions M of M rho(s) = rho(s) M), never
inferred from eigenvalue multiplicities alone. The table is further
certified by block multiplicities, the sum of squared dimensions and an
exact integer count of alpha-regular conjugacy classes. A table holds
characters and bases; the matrices of every element are built, and
certified by the defining relation on the generators, when a caller first
reads them.

Each kind of certificate has one whole-array kernel: _invariance (the
invariant subspace), _relation_residuals (the defining relation),
_conjugation_residuals (Schur conjugation) and _multiplicities (the rule
of multiplicity). Every caller compares their output against its own
tolerance as ~(residual <= tol), so a NaN fails.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _memo
from .cocycles import Cocycle, NumericCocycle, UnitScalar, _lattice_exponents
from .config import Tolerances, default_tolerances
from .errors import (
    InputError,
    InvalidCocycle,
    NonIntegerMultiplicity,
    NotIrreducible,
    NumericFailure,
    SplitFailure,
)
from .groups import FiniteGroup, generating_set

MAX_DENSE_ORDER = 512
_NULLSPACE_RTOL = 1e-8
_CLUSTER_ATOL = 1e-7
# The relation certificate of a split never asks for less than this: the
# products themselves carry rounding errors of about 1e-16 per factor.
_RELATION_FLOOR = 1e-12
_FINGERPRINT_DIGITS = 9
# Entries per temporary in the chunked loops of a split: (g, h) pairs in
# _conjugation_weights, basis or matrix entries in _invariance, _block_matrices
# and _relation_residuals.
_CHUNK = 1 << 14


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


@dataclass(eq=False)
class AlphaCharacter:
    """Traces of a projective representation, one value per group element;
    identity is the index of the group's identity, where the trace is the dimension."""

    values: np.ndarray
    identity: int

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        self.values.flags.writeable = False

    @property
    def dim(self) -> int:
        return int(round(self.values[self.identity].real))

    def fingerprint(self, digits: int = _FINGERPRINT_DIGITS) -> tuple:
        """((re, im), ...) of the values, each as Python's round(x, digits)."""
        rounded = _rounded(np.stack([self.values.real, self.values.imag]), digits)
        return tuple(zip(rounded[0].tolist(), rounded[1].tolist()))


def _rounded(parts: np.ndarray, digits: int) -> np.ndarray:
    """Every entry as Python's round(x, digits) + 0.0, so negative zero becomes zero."""
    rounded = np.round(parts, digits) + 0.0
    # np.round rounds x * 10**digits after one float multiply, so it can
    # pick the other neighbour only within an ulp of a half-integer.
    scaled = parts * 10.0 ** digits
    near_half = np.abs(scaled - np.floor(scaled) - 0.5) <= 4 * np.abs(np.spacing(scaled))
    if near_half.any():
        for idx in map(tuple, np.argwhere(near_half)):
            rounded[idx] = round(float(parts[idx]), digits) + 0.0
    return rounded


def character(rep: ProjectiveRep) -> AlphaCharacter:
    return AlphaCharacter(np.trace(rep.matrices, axis1=1, axis2=2), rep.group.identity)


def _relation_tol(cocycle, tol: Tolerances) -> float:
    return tol.rep if cocycle.is_exact else tol.rep_numeric


def _hom_equations(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The rows kron(X(g), I) - kron(I, Y(g)^T) of every g, stacked.

    X and Y are (..., k, dx, dx) and (..., k, dy, dy) stacks; the result is
    one (..., k * dx * dy, dx * dy) array.
    """
    dx, dy = X.shape[-1], Y.shape[-1]
    rows = (X[..., :, None, :, None] * np.eye(dy)[:, None, :]               # [g, i, k, j, l]
            - np.eye(dx)[:, None, :, None] * np.swapaxes(Y, -1, -2)[..., None, :, None, :])
    return rows.reshape(*rows.shape[:-5], -1, dx * dy)


def _commutant_dimensions(G: FiniteGroup, X: np.ndarray) -> np.ndarray:
    """Commutant dimension of each representation in an (m, |S|, d, d) stack
    of its matrices at the generators S = generating_set(G).

    The kernel dimensions of the equations X(s) f = f X(s) of _hom_equations,
    from one batched singular-value decomposition: singular values up to
    _NULLSPACE_RTOL times the largest (or 1) count as zero.
    """
    if not generating_set(G):
        return np.full(len(X), X.shape[-1] ** 2)
    s = np.linalg.svd(_hom_equations(X, X), compute_uv=False)
    cutoff = _NULLSPACE_RTOL * np.maximum(1.0, s[:, 0])
    return X.shape[-1] ** 2 - np.count_nonzero(s > cutoff[:, None], axis=1)


def commutant_dimension(rep: ProjectiveRep) -> int:
    return int(_commutant_dimensions(rep.group, rep.matrices[None, generating_set(rep.group)])[0])


def _cluster_sorted(w: np.ndarray) -> list[np.ndarray]:
    """Group ascending eigenvalues into clusters separated by a real gap."""
    atol = _CLUSTER_ATOL * max(1.0, float(np.max(np.abs(w))))
    return np.split(np.arange(w.size), np.flatnonzero(np.diff(w) > atol) + 1)


def _split_regular(G: FiniteGroup, cocycle, ctable: np.ndarray,
                   seed: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Eigenvectors and eigenvalue clusters of a random element of the commutant.

    The right operators R(k) e_h = alpha(h,k) e_{hk} commute with every
    rho_reg(g) by the 2-cocycle identity, so T = X + X^H with
    X = sum_k c_k R(k) does too. For generic c each eigenspace of T is one
    irreducible invariant subspace; a class of dimension d owns d of them.
    T is diagonalized by _commutant_eigh, block by block; its eigenvalues
    are then sorted globally and clustered, and each cluster holds the
    indices of its columns of V. ctable is cocycle.complex_table.
    """
    w, V = _commutant_eigh(G, cocycle, ctable, seed)
    order = np.argsort(w, kind="stable")
    return V, [order[idx] for idx in _cluster_sorted(w[order])]


def _commutant_eigh(G: FiniteGroup, cocycle, ctable: np.ndarray,
                    seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unitary eigenvectors of T = X + X^H, from m blocks of order |G|/m.

    c_k is drawn from default_rng(seed), X = sum_k c_k R(k). T commutes with
    the left operator L(c) of the element c of maximal order m from
    G._cyclic_cosets, which shifts each right coset <c>r:
    L(c) e_{c^j r} = alpha(c, c^j r) e_{c^(j+1) r}. With the unit phases u of
    _coset_phases, L(c) (u[r, j] e_{c^j r}) = theta u[r, j+1] e_{c^(j+1) r},
    so its eigenvectors are f_{r,k} = m^-1/2 sum_j u[r, j] w^(-jk) e_{c^j r},
    w = exp(2 pi i / m), of eigenvalue theta w^k. T keeps each eigenspace of
    L(c), so in the basis f it is block diagonal. In the u-scaled basis T
    commutes with the plain shift, so it is circulant in j, and block k is
    B_k[r, r'] = sum_j T[r, c^j r'] u[r', j] w^(-jk): only T's rows at the
    coset starts are gathered, and one product by the m x m DFT matrix gives
    all blocks. One batched eigh of the (m, |G|/m, |G|/m) stack costs
    O(|G|^3 / m^2) in place of O(|G|^3), at least 4 times less for |G| > 1.
    Its eigenvectors W give V[c^j r, k |G|/m + i] = f_{r,k}[c^j r] W_k[r, i],
    one broadcast product and a scatter; w and the columns of V come in
    that (k, i) order, ascending within each block. ctable is
    cocycle.complex_table.
    """
    n = G.order
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c, P = G._cyclic_cosets
    s, m = P.shape
    phases = _coset_phases(cocycle, c, P)
    starts = P[:, :1, None]
    k_in = G.mul[G.inv[P], starts]       # X[r, h] = c_k alpha(h, k) for k = h^-1 r
    k_out = G.inv[k_in]                  # X[h, r] = c_k alpha(r, k) for k = r^-1 h
    rows = coeffs[k_in] * ctable[P, k_in] + np.conj(coeffs[k_out] * ctable[starts, k_out])
    rows *= phases                       # rows[r, r', j] = T[r, c^j r'] u[r', j]
    steps = np.arange(m)
    dft = np.exp(-2j * np.pi / m * steps)[np.outer(steps, steps) % m]
    w, W = np.linalg.eigh((rows.reshape(s * s, m) @ dft).T.reshape(m, s, s))
    vecs = W.transpose(1, 0, 2)[:, None] * dft[:, :, None]
    vecs *= (phases / np.sqrt(m))[:, :, None, None]    # vecs[r, j, k, i] = f_{r,k}[c^j r] W_k[r, i]
    V = np.empty((n, n), dtype=np.complex128)
    V[P.ravel()] = vecs.reshape(n, n)
    return w.ravel(), V


def _coset_phases(cocycle, c: int, P: np.ndarray) -> np.ndarray:
    """(|G|/m, m) unit phases u[r, j] = mu[r, j] theta^-j that make L(c) theta times a shift.

    mu[r, j] is the product of alpha(c, c^i r) over i < j, and the wrap phase
    mu[r, m] of each coset is theta^m: L(c)^m is the scalar alpha-product of
    c's powers, so every coset wraps alike. Over an exact cocycle the phases
    are exponents mod K m, and a coset whose wrap exponent differs from the
    first's raises InvalidCocycle. Over a numeric cocycle they are angles,
    and each coset takes the m-th root of its own wrap phase on the branch
    next to the first coset's.
    """
    m = P.shape[1]
    steps = np.arange(m)
    if cocycle.is_exact:
        K = cocycle.order
        expo = cocycle.exponents[c, P]
        cum = np.cumsum(expo, axis=1)
        wrap = cum[:, -1] % K
        if (wrap != wrap[0]).any():
            raise InvalidCocycle(f"cosets of <{c}> wrap with exponents {np.unique(wrap).tolist()} "
                                 f"mod {K}, so L({c})^{m} is not a scalar")
        return np.exp(2j * np.pi / (K * m) * ((m * (cum - expo) - steps * wrap[0]) % (K * m)))
    angle = np.angle(cocycle.values(c, P))
    cum = np.cumsum(angle, axis=1)
    wrap = cum[0, -1] + np.angle(np.exp(1j * (cum[:, -1] - cum[0, -1])))
    return np.exp(1j * (cum - angle - steps * (wrap / m)[:, None]))


def _conjugation_weights(G: FiniteGroup, ctable: np.ndarray) -> np.ndarray:
    """(|G|, |G|) matrix Phi with Phi[k, g] = sum of alpha(g,h) / alpha(h,k) over h^-1 g h = k.

    A projector P onto an invariant subspace of rho_reg commutes with it, so
    P[h, gh] = P[e, k] / alpha(h, k) for k = h^-1 g h, and the character
    sum_h alpha(g,h) P[h, gh] of the subspace is sum_k P[e, k] Phi[k, g].
    Accumulated over chunks of h, to keep the (g, h) temporaries small.
    """
    n = G.order
    phi = np.zeros(n * n, dtype=np.complex128)
    g = np.arange(n)[:, None]
    step = max(1, _CHUNK // n)
    for lo in range(0, n, step):
        h = np.arange(lo, min(n, lo + step))
        k = G.mul[G.inv[h], G.mul[:, h]]
        np.add.at(phi, (k * n + g).ravel(), (ctable[:, h] / ctable[h, k]).ravel())
    return phi.reshape(n, n)


def _block_characters(V: np.ndarray, clusters: list[np.ndarray], identity: int,
                      phi: np.ndarray) -> np.ndarray:
    """(#clusters, |G|) characters of the blocks spanned by each cluster's columns.

    Row c is F_c @ phi, where F_c = V_c V_c^H e_identity is the identity's
    row of the cluster's projector and phi is _conjugation_weights.
    """
    cols = np.concatenate(clusters)
    starts = np.cumsum([0] + [idx.size for idx in clusters[:-1]])
    terms = V[:, cols].conj()
    terms *= V[identity, cols]
    return np.add.reduceat(terms, starts, axis=1).T @ phi


def _invariance(G: FiniteGroup, ctable: np.ndarray, rows: np.ndarray,
                gens: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Compressions B^H L(s) B of m orthonormal bases B, and how far each is from invariant.

    rows is the (m, d, |G|) stack of the bases' vectors, rows[c, i] the
    column i of B_c. L(s) e_h = alpha(s,h) e_{sh} is the left operator of the
    twisted regular representation, so (L(s) b)[x] = alpha(s, s^-1 x) b[s^-1 x].
    Returns the (m, len(gens), d, d) compressions at the elements s of gens
    and the (m,) worst |L(s) B - B B^H L(s) B| over s and entries, NaN where
    one enters. The bases are taken in chunks whose temporaries hold at most
    _CHUNK entries (or one basis). ctable is cocycle.complex_table.
    """
    m, d, n = rows.shape
    compressed = np.empty((m, len(gens), d, d), dtype=np.complex128)
    worst = np.empty((m, len(gens)))
    step = max(1, _CHUNK // (n * d))
    for j, s in enumerate(gens):
        back = G.mul[G.inv[s]]              # s^-1 x for every x
        for lo in range(0, m, step):
            chunk = rows[lo:lo + step]
            moved = chunk[:, :, back] * ctable[s, back]
            transposed = moved @ chunk.conj().transpose(0, 2, 1)     # (B^H L(s) B)^T
            compressed[lo:lo + step, j] = transposed.transpose(0, 2, 1)
            moved -= transposed @ chunk
            # one reduction over a flat axis: numpy's max over two axes is several times slower
            worst[lo:lo + step, j] = np.abs(moved).reshape(len(chunk), -1).max(axis=1)
    return compressed, worst.max(axis=1, initial=0.0)


def _block_matrices(G: FiniteGroup, cocycle, ctable: np.ndarray, B: np.ndarray) -> np.ndarray:
    """B_c^H rho_reg(g) B_c for every g and every basis of an (m, |G|, d) stack, as (m, |G|, d, d).

    Over an exact cocycle only the generators are compressed; every other
    element is a product rho(l) rho(r) / alpha(l, r) along the group's
    product plan, for all m bases at once, in chunks of targets that keep
    each temporary within _CHUNK entries. A numeric cocycle holds its
    identity only within tol.cocycle, and products would add up its defects
    along words, so there every element is compressed: row i of rho(g) is
    sum_h conj(B[gh, i]) alpha(g,h) B[h]. ctable is cocycle.complex_table.
    """
    m, n, d = B.shape
    mats = np.empty((m, n, d, d), dtype=np.complex128)
    if not cocycle.is_exact:
        Bc = B.conj()
        for c in range(m):
            for i in range(d):
                mats[c, :, i, :] = (Bc[c][G.mul, i] * ctable) @ B[c]
        return mats
    mats[:, G.identity] = np.eye(d)
    for s in generating_set(G):
        shifted = B[:, G.mul[s]].conj()
        shifted *= ctable[s][:, None]
        mats[:, s] = np.matmul(shifted.transpose(0, 2, 1), B)
    step = max(1, _CHUNK // (m * d * d))
    for targets, lefts, rights in G._product_plan:
        for lo in range(0, len(targets), step):
            left, right = lefts[lo:lo + step], rights[lo:lo + step]
            products = _products(mats, left, right)
            products /= ctable[left, right][:, None, None]
            mats[:, targets[lo:lo + step]] = products
    return mats


def _products(mats: np.ndarray, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """mats[:, lefts] @ mats[:, rights] for an (m, |G|, d, d) stack, as d broadcast outer products.

    matmul makes one BLAS call per pair, which costs more than this for the
    small d of most blocks; gathering one column or row at a time keeps the
    temporaries at the size of the result.
    """
    out = mats[:, lefts, :, :1] * mats[:, rights, :1, :]
    for k in range(1, mats.shape[-1]):
        out += mats[:, lefts, :, k:k + 1] * mats[:, rights, k:k + 1, :]
    return out


def _relation_residuals(G: FiniteGroup, ctable: np.ndarray, mats: np.ndarray,
                        lefts) -> np.ndarray:
    """(m, len(lefts), |G|) max-abs of rho(s) rho(h) - alpha(s,h) rho(sh) for an (m, |G|, d, d) stack.

    Entry (c, j, h) is the relation residual of representation c at
    s = lefts[j] and h; a NaN matrix entry makes the entries it reaches NaN,
    all within representation c. rho(s) rho(h) for all h is one
    (d, d) @ (d, |G| d) product per representation and left element. The
    max over the two entry axes is taken as one reduction over a leading
    axis, which numpy does several times faster than over the two separate
    length-d axes. The representations are taken in chunks of k, so that
    each of the four (k, d, |G|, d) temporaries holds at most _CHUNK
    entries (or one representation).
    """
    m, n, d, _ = mats.shape
    out = np.empty((m, len(lefts), n))
    step = max(1, _CHUNK // (d * n * d))
    for lo in range(0, m, step):
        chunk = mats[lo:lo + step]
        k = len(chunk)
        rows = np.ascontiguousarray(chunk.transpose(0, 2, 1, 3))    # rows[c, i, h] = row i of rho(h)
        for j, s in enumerate(lefts):
            diff = (chunk[:, s] @ rows.reshape(k, d, n * d)).reshape(k, d, n, d)
            rhs = rows[:, :, G.mul[s]]
            rhs *= ctable[s][:, None]
            diff -= rhs
            out[lo:lo + k, j] = np.abs(diff).transpose(1, 3, 0, 2).reshape(d * d, k, n).max(axis=0)
    return out


def _conjugation_residuals(X: np.ndarray, Y: np.ndarray, M: np.ndarray) -> np.ndarray:
    """(...,) worst |Y(g) - M^H X(g) M| over g and entries, NaN where one enters.

    X and Y are (..., |G|, d, d) stacks and M a (..., d, d) stack, all three
    broadcast together over the leading axes: one X against k pairs (Y[k], M[k]),
    or one X per row of a (k, |Q|) family.
    """
    M = M[..., None, :, :]
    conjugated = np.conj(np.swapaxes(M, -1, -2)) @ X @ M
    return np.max(np.abs(Y - conjugated), axis=(-3, -2, -1))


def _multiplicities(values: np.ndarray, conj_table: np.ndarray, tol: float) -> np.ndarray:
    """(rows, #irr) multiplicities of a (rows, |G|) stack of characters, by the rule of multiplicity.

    conj_table holds the complex conjugates of the (#irr, |G|) characters.
    Entry (r, i) is round(values[r] . conj_table[i] / |G|): a value not within
    tol of a non-negative integer, NaN included, raises NonIntegerMultiplicity.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 2 or values.shape[1] != conj_table.shape[1]:
        raise InputError(f"characters of shape {values.shape} for order {conj_table.shape[1]}")
    return _rounded_multiplicities(values @ conj_table.T / conj_table.shape[1], tol)


def _rounded_multiplicities(inner: np.ndarray, tol: float) -> np.ndarray:
    """The inner products as int64 multiplicities; NonIntegerMultiplicity at the
    first one, NaN included, that is not within tol of a non-negative integer."""
    rounded = np.round(inner.real)
    bad = ~(np.abs(inner - rounded) <= tol) | (rounded < 0)
    if bad.any():
        val = inner[tuple(np.argwhere(bad)[0])]
        raise NonIntegerMultiplicity(f"character inner product {val} is not a multiplicity", val)
    return rounded.astype(np.int64)


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
class _Split:
    """A certified split as the memo stores it; it holds no group or cocycle.

    values is the read-only (#irr, |G|) character stack and dims the
    dimensions, both in table order. Until the matrices are first read,
    bases holds per dimension, ascending, the (m, d, |G|) stack of the
    vectors of its entries' orthonormal bases in split order (see
    _invariance), and order maps each table position to a position in
    those stacks, concatenated. failed marks a split whose matrices missed
    the defining relation: no memo hit returns it.
    """

    values: np.ndarray
    dims: tuple[int, ...]
    bases: list[np.ndarray] | None
    order: np.ndarray
    rtol: float                             # of the relation certificate
    built: list[np.ndarray] | None = None
    failed: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def matrices(self, G: FiniteGroup, cocycle) -> list[np.ndarray]:
        """The read-only (|G|, d, d) matrices in table order, for a group and
        cocycle of the stored content.

        The first call builds all entries of one dimension at once by
        _block_matrices on the stored bases, certifies them by the defining
        relation rho(s) rho(h) = alpha(s,h) rho(sh) for s in the generating
        set and every h within rtol, and then drops the bases. On a failed
        relation it marks the split failed and raises SplitFailure, and every
        later read raises it again. Tables in several threads may share the
        split, so the build runs under its lock.
        """
        with self._lock:
            if self.built is None:
                ctable, built = cocycle.complex_table, []
                for rows in self.bases:
                    mats = _block_matrices(G, cocycle, ctable,
                                           np.ascontiguousarray(rows.transpose(0, 2, 1)))
                    residual = _relation_residuals(G, ctable, mats, generating_set(G)).max(initial=0.0)
                    if not residual <= self.rtol:
                        self.failed = True
                        raise SplitFailure(f"blocks of dimension {rows.shape[1]} miss the defining "
                                           f"relation by {residual:.2e}")
                    mats.flags.writeable = False
                    built.extend(mats)
                self.built, self.bases = [built[i] for i in self.order], None
        return self.built


class IrrTable:
    """All irreducible projective representations for one (group, cocycle).

    A table from irreducibles reads its stored split: len, dims,
    character_values, characters and multiplicities come from the stored
    characters, and the matrices are built on the first read of
    irreducibles (see _Split.matrices). Each ProjectiveRep and
    AlphaCharacter is made on first access.
    """

    def __init__(self, group: FiniteGroup, cocycle: Cocycle | NumericCocycle,
                 irreducibles: list[ProjectiveRep], characters: list[AlphaCharacter]):
        self.group, self.cocycle = group, cocycle
        self.irreducibles, self.characters = irreducibles, characters

    def __len__(self) -> int:
        return len(self.dims)

    @cached_property
    def irreducibles(self) -> list[ProjectiveRep]:
        return [ProjectiveRep(self.group, self.cocycle, m.shape[1], m)
                for m in self._split.matrices(self.group, self.cocycle)]

    @cached_property
    def characters(self) -> list[AlphaCharacter]:
        return [AlphaCharacter(v, self.group.identity) for v in self.character_values]

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(rep.dim for rep in self.irreducibles)

    @cached_property
    def character_values(self) -> np.ndarray:
        """The characters as one read-only (#irr, |G|) array: for a table from
        irreducibles the stored stack its characters view, else stacked once."""
        values = np.stack([c.values for c in self.characters])
        values.flags.writeable = False
        return values

    @cached_property
    def _conj_values(self) -> np.ndarray:
        """The complex conjugate of character_values, read-only, for multiplicities."""
        values = np.conj(self.character_values)
        values.flags.writeable = False
        return values

    def multiplicities(self, values: np.ndarray, tol: float) -> np.ndarray:
        """(rows, #irr) multiplicities of a (rows, |G|) stack of characters.

        The rows must be characters on this table's group and cocycle; see
        _multiplicities for the rule.
        """
        return _multiplicities(values, self._conj_values, tol)


def _table_order(values: np.ndarray, identity: int) -> np.ndarray:
    """Indices that sort (#irr, |G|) characters by (dim, fingerprint()), stably.

    One lexsort over the rounded values: the dimension, the value at the
    identity, is the primary key, then Re and Im of each value in element
    order.
    """
    rounded = _rounded(np.stack([values.real, values.imag], axis=-1), _FINGERPRINT_DIGITS)
    keys = rounded.reshape(len(values), -1).T[::-1]
    return np.lexsort(np.vstack([keys, np.round(values[None, :, identity].real)]))


def _require_dense(order: int) -> None:
    """InputError for a group above MAX_DENSE_ORDER, the largest the dense split takes."""
    if order > MAX_DENSE_ORDER:
        raise InputError(f"dense decomposition capped at order {MAX_DENSE_ORDER}")


def irreducibles(G: FiniteGroup, cocycle: Cocycle | NumericCocycle,
                 seed: int = 0, tol: Tolerances | None = None) -> IrrTable:
    """Decompose the twisted regular representation into irreducibles.

    A seeded random Hermitian element of the right-regular commutant splits
    the regular representation into irreducible blocks. It is diagonalized
    in the eigenbasis of the left operator of an element c of maximal order
    m, where it falls into m blocks of order |G|/m: one batched eigh of
    cost O(|G|^3 / m^2) (see _commutant_eigh). Blocks are deduplicated by
    the multiplicity rule on the Gram matrix of their characters. The table is
    certified on characters and generators (see _assemble_table); on a
    failed certificate the split is redrawn with the next seed, up to 5
    seeds. The table is sorted by (dimension, lexicographic character), so
    the result is deterministic per seed. Its characters are those of the
    split; the matrices are built, and certified by the defining relation,
    on the first read of table.irreducibles, where a failure raises
    SplitFailure.

    A certified table is split and certified once per content: the content
    digests of the group and the cocycle, seed and tolerances. The stored
    entry holds the characters and the bases, or once read the matrices,
    and every table of that content shares it, so its matrices are built
    once. A later call gets them back in a table whose group and cocycle are
    the caller's objects. A failure is never remembered: a split whose
    matrices missed the relation is not a hit, so the next call splits again.
    A negative seed raises InputError before any work.
    """
    tol = tol or default_tolerances()
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")
    n = G.order
    _require_dense(n)
    if not (0 <= G.identity < n and np.array_equal(G.mul[G.identity], np.arange(n))
            and np.array_equal(G.mul[:, G.identity], np.arange(n))):
        raise InputError(f"element {G.identity} is not the identity of the table")
    if cocycle.group is not G and not cocycle.group.same_table(G):
        raise InputError("cocycle is not defined on the given group")
    key = _memo.key("irreducibles", G._content, cocycle._content, seed, tol._content)
    hit = _memo.get(key)
    if hit is None or hit.failed:
        hit = _split_certified(G, cocycle, seed, tol)
        # counted as the matrices it holds once read, and its characters
        _memo.put(key, hit, 16 * n * sum(d * d for d in hit.dims) + hit.values.nbytes)
    return _table(G, cocycle, hit)


def _table(G: FiniteGroup, cocycle, split: _Split) -> IrrTable:
    """A new IrrTable on the caller's group and cocycle, over a stored split.

    The split's read-only character stack becomes the table's
    character_values, and each character is a row view of it.
    """
    table = IrrTable.__new__(IrrTable)
    table.group, table.cocycle, table._split = G, cocycle, split
    table.character_values, table.dims = split.values, split.dims
    return table


def _split_certified(G: FiniteGroup, cocycle, seed: int, tol: Tolerances) -> _Split:
    """The sorted, certified split of the twisted regular representation,
    redrawing up to 5 seeds.

    The cocycle's complex table is gathered once here, and every stage
    reads that copy. The eigenvectors of an attempt are passed straight on
    and never bound here, and a failed attempt's error is kept without its
    traceback, whose frames would hold them: so the next seed starts
    without the failed attempt's arrays, and the sort runs after the
    eigenvectors are freed.
    """
    ctable = cocycle.complex_table
    phi = _conjugation_weights(G, ctable)
    last_error: Exception | None = None
    for attempt in range(5):
        try:
            bases, values = _assemble_table(
                G, cocycle, ctable, *_split_regular(G, cocycle, ctable, seed + attempt), phi, tol)
        except SplitFailure as exc:
            last_error = _without_frames(exc)
            continue
        return _sorted_split(G, cocycle, bases, values, tol)
    raise SplitFailure(f"no clean split after 5 seeds starting at {seed}") from last_error


def _sorted_split(G: FiniteGroup, cocycle, bases: list[np.ndarray], values: np.ndarray,
                  tol: Tolerances) -> _Split:
    """The split of _assemble_table's bases and characters, in table order."""
    order = _table_order(values, G.identity)
    values[:] = values[order]   # in place: a new sorted array raised irr_split's peak RSS
    values.flags.writeable = False
    dims = [rows.shape[1] for rows in bases for _ in rows]
    return _Split(values, tuple(dims[i] for i in order), bases, order,
                  max(_relation_tol(cocycle, tol), _RELATION_FLOOR))


def _without_frames(exc: BaseException) -> BaseException:
    """exc after dropping its traceback and those of the exceptions chained to it.

    The messages and the chain stay; the frames, with the locals they hold,
    are freed as soon as nothing else refers to them.
    """
    link = exc
    while link is not None:
        link.__traceback__ = None
        link = link.__cause__ or link.__context__
    return exc


def _character_classes(chars: np.ndarray, tol: float) -> tuple[list[int], list[int]]:
    """The first block of each class of (#blocks, |G|) block characters, and the class sizes.

    The classes are read off the Gram matrix of the characters under the
    rule of multiplicity: blocks are irreducible exactly when its diagonal
    is 1, and then two blocks are isomorphic when their entry is 1, else 0.
    A block's class is its first column equal to 1. A Gram entry that is
    not a multiplicity, a diagonal entry other than 1 or an entry above 1
    raises SplitFailure.
    """
    try:
        gram = _multiplicities(chars, np.conj(chars), tol)
    except NonIntegerMultiplicity as exc:
        raise SplitFailure(f"block characters are not orthogonal: {exc}") from exc
    if np.any(np.diagonal(gram) != 1) or np.any(gram > 1):
        raise SplitFailure("block characters are not irreducible and orthogonal")
    classes = np.argmax(gram == 1, axis=1)
    firsts = np.flatnonzero(classes == np.arange(len(chars)))
    return firsts.tolist(), np.bincount(classes)[firsts].tolist()


def _assemble_table(G: FiniteGroup, cocycle, ctable: np.ndarray, V: np.ndarray,
                    clusters: list[np.ndarray], phi: np.ndarray,
                    tol: Tolerances) -> tuple[list[np.ndarray], np.ndarray]:
    """The basis rows of _invariance, one (m, d, |G|) stack per dimension,
    and the (#irr, |G|) characters of one certified entry per character
    class of the split blocks, by ascending dimension.

    Blocks are deduplicated by _character_classes, the rule of multiplicity
    on the Gram matrix of their characters (phi is _conjugation_weights).
    Isomorphic blocks share a character, so certifying one block per class
    certifies the others. Certificates: every class has as many blocks as
    its dimension, the squared dimensions sum to |G|, the class count equals
    the number of alpha-regular conjugacy classes, and on the generators s
    only, every entry's basis B spans a subspace that L(s) keeps within the
    relation tolerance (_invariance) and the compressions B^H L(s) B have
    commutant dimension 1.

    The certificate is complete. Inverses are positive powers, so a
    subspace that the generators keep is one that all of G keeps, and its
    projector P = B B^H commutes with the regular representation; the
    projector-row character of _block_characters is then the character of
    that subrepresentation, whose matrices are products of the
    compressions. The vectors of the entries of one dimension are gathered
    with one copy, as rows, and certified together. ctable is
    cocycle.complex_table.
    """
    n = G.order
    chars = _block_characters(V, clusters, G.identity, phi)
    firsts, counts = _character_classes(chars, tol.char)
    dims = [clusters[c].size for c in firsts]
    if counts != dims:
        raise SplitFailure(f"block multiplicities {counts} differ from dimensions {dims}")
    if sum(d * d for d in dims) != n:
        raise SplitFailure(f"sum of squared dimensions {dims} misses group order {n}")
    expected = _regular_class_count(G, cocycle, tol)
    if len(dims) != expected:
        raise SplitFailure(f"{len(dims)} classes, but {expected} alpha-regular conjugacy classes")
    rtol = max(_relation_tol(cocycle, tol), _RELATION_FLOOR)
    bases, entries = [], []
    for d in sorted(set(dims)):
        of_d = [c for c in firsts if clusters[c].size == d]
        rows = V.T[np.array([clusters[c] for c in of_d])]
        compressed, residual = _invariance(G, ctable, rows, generating_set(G))
        if np.any(~(residual <= rtol)):
            raise SplitFailure(f"blocks of dimension {d} are not invariant ({residual.max():.2e})")
        # a 1-dimensional block's Hom equations are identically zero: commutant dimension 1
        if d > 1 and np.any(_commutant_dimensions(G, compressed) != 1):
            raise SplitFailure(f"block of dimension {d} is not irreducible")
        bases.append(rows)
        entries.extend(of_d)
    return bases, chars[entries]


def coboundary_cochain(beta: Cocycle | NumericCocycle, lattice_order: int,
                       tol: Tolerances | None = None) -> tuple[UnitScalar, ...] | None:
    """The lexicographically first 1-cochain c: Q -> mu_k with delta(c) = beta, or None.

    Here k = lattice_order and delta(c)(q1, q2) = c(q1) c(q2) / c(q1 q2). A
    1-dimensional beta-representation is exactly such a cochain with values
    anywhere on the unit circle, so beta is a coboundary if and only if
    irreducibles(Q, beta) has an entry of dimension 1 (ask
    `1 in irreducibles(Q, beta).dims`), and the cochains are exactly those
    entries: at most |Q^ab| of them. Each entry is rounded onto mu_k and
    kept when |c(q1) c(q2) - beta(q1, q2) c(q1 q2)| <= tol.cocycle at every
    pair; the result is the kept exponent tuple (in element order) that
    comes first, as UnitScalars of order k. beta must be a 2-cocycle on Q,
    which irreducibles needs; a lattice order below 1 raises InputError.
    """
    tol = tol or default_tolerances()
    if lattice_order < 1:
        raise InputError("lattice order must be positive")
    Q = beta.group
    table = irreducibles(Q, beta, tol=tol)
    expo = _lattice_exponents(table.character_values[np.array(table.dims) == 1], lattice_order)
    c = np.exp(2j * np.pi * expo / lattice_order)
    residual = np.abs(c[:, :, None] * c[:, None, :] - beta.complex_table * c[:, Q.mul])
    kept = expo[np.all(residual <= tol.cocycle, axis=(1, 2))]
    if not len(kept):
        return None
    return tuple(UnitScalar(int(e), lattice_order) for e in min(map(tuple, kept.tolist())))


def _check_compatible(r1: ProjectiveRep, r2: ProjectiveRep) -> None:
    if r1.group is not r2.group and not r1.group.same_table(r2.group):
        raise InputError("representations live on different groups")
    if not r1.cocycle.same_as(r2.cocycle):
        raise InputError("representations use different cocycle tables")


def intertwiner(rho1: ProjectiveRep, rho2: ProjectiveRep,
                tol: Tolerances | None = None) -> np.ndarray | None:
    """Unitary M with rho2(g) = M^-1 rho1(g) M, or None if not isomorphic.

    The one-pair case of _intertwiners, which holds the checks and the phase
    rule. M is then verified on every g by _conjugation_residuals within 10
    times _relation_tol; a NaN fails it.
    """
    tol = tol or default_tolerances()
    _check_compatible(rho1, rho2)
    if rho1.dim != rho2.dim:
        return None
    _, M = _intertwiners(rho1.group, rho1.matrices[None], rho2.matrices[None],
                         np.zeros(1, dtype=np.int64), tol)
    if M is None:
        return None
    err = _conjugation_residuals(rho1.matrices, rho2.matrices, M[0])
    if not err <= 10 * _relation_tol(rho1.cocycle, tol):
        raise NumericFailure(f"intertwiner verification failed (residual {err:.2e})")
    return M[0]


def _intertwiners(G: FiniteGroup, X: np.ndarray, Y: np.ndarray, source: np.ndarray,
                  tol: Tolerances) -> tuple[np.ndarray, np.ndarray | None]:
    """Schur intertwiners M[p] with Y[p](g) = M[p]^-1 X[source[p]](g) M[p], for every pair p.

    X is an (m, |G|, d, d) stack of representations and Y a (P, |G|, d, d)
    stack, all over one cocycle; source maps each pair to its X. Returns the
    (P,) character pairings and the (P, d, d) unitary M, or None in place of
    M when some pairing is 0. Both inputs of a pair must be irreducible;
    Schur's lemma then makes M unique up to phase. Over the whole stack:

    - a character pairing (rounded as _multiplicities rounds, under
      tol.char) other than 0 or 1 raises NotIrreducible;
    - every X and every Y must have commutant dimension 1 (NotIrreducible);
    - the Schur space, the kernel of the equations X(s) M = M Y(s) of
      _hom_equations at the generators s, under the cutoff of
      _commutant_dimensions, must have dimension 1 for every pair
      (NotIrreducible). A trivial group has no generators and imposes its
      identity, where both sides are I.

    M is the kernel vector scaled to unitary (M^H M = c I for an intertwiner
    between unitary irreducibles) and phased so that tr(X(g) M) is real
    positive at the first g whose |tr(X(g) M)| is within tol.char of the
    maximum (element 0 when a trace is NaN). These traces do not change
    when X and Y change basis together, so neither does the phase. Every
    step on M is a gufunc (svd, matmul) or an elementwise operation, so
    M[p] has the same bits whatever the other pairs are. The caller checks
    the conjugation residual.
    """
    n, d = X.shape[1], X.shape[-1]
    chi_x, chi_y = np.trace(X, axis1=2, axis2=3), np.trace(Y, axis1=2, axis2=3)
    try:
        pairing = _rounded_multiplicities(np.sum(chi_x[source] * np.conj(chi_y), axis=1) / n,
                                          tol.char)
    except NonIntegerMultiplicity as exc:
        raise NotIrreducible(f"character pairing {exc.value} is not 0 or 1") from exc
    if np.any(pairing > 1):
        raise NotIrreducible(f"character pairing {pairing[np.argmax(pairing > 1)]} is not 0 or 1")
    if not pairing.all():
        return pairing, None
    gens = list(generating_set(G))
    if d > 1:           # a 1-dimensional representation has commutant dimension 1
        if np.any(_commutant_dimensions(G, X[:, gens]) != 1):
            raise NotIrreducible("first representation has commutant dimension > 1")
        if np.any(_commutant_dimensions(G, Y[:, gens]) != 1):
            raise NotIrreducible("second representation has commutant dimension > 1")
    gens = gens or [G.identity]
    _, s, vh = np.linalg.svd(_hom_equations(X[source][:, gens], Y[:, gens]), full_matrices=True)
    kernel = d * d - np.count_nonzero(s > _NULLSPACE_RTOL * np.maximum(1.0, s[:, :1]), axis=1)
    if np.any(kernel != 1):
        dim = kernel[np.argmax(kernel != 1)]
        raise NotIrreducible(f"Schur solution space has dimension {dim}, not 1")
    M = np.conj(vh[:, -1]).reshape(-1, d, d)
    c = np.trace(np.conj(np.swapaxes(M, 1, 2)) @ M, axis1=1, axis2=2).real / d
    M = M / np.sqrt(c)[:, None, None]
    traces = (X.reshape(len(X), n, d * d)[source]
              @ np.swapaxes(M, 1, 2).reshape(-1, d * d, 1))[..., 0]      # tr(X(g) M)
    size = np.abs(traces)
    first = np.argmax(size >= size.max(axis=1, keepdims=True) - tol.char, axis=1)
    z = traces[np.arange(len(M)), first]
    return pairing, M * (np.conj(z) / np.abs(z))[:, None, None]
