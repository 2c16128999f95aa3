"""2-cocycles as exponent tables over roots of unity, and as float tables.

Exact cocycles take values in the group mu_K of K-th roots of unity and are
stored as integer exponent tables, so validation and restriction are exact.
Induced cocycles produced downstream carry float values and live in
NumericCocycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _memo
from .config import Tolerances, default_tolerances
from .errors import InputError, InvalidCocycle, OddN
from .groups import (
    FiniteGroup,
    QuotientWithSection,
    SubgroupHandle,
    dihedral,
    generating_set,
)


@dataclass(eq=False)
class CocycleReport:
    """Validation outcome; empty violation list means the table is a cocycle."""

    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_cocycle_table(group: FiniteGroup, order: int, exponents: np.ndarray) -> CocycleReport:
    """Check normalization and the 2-cocycle identity on an exponent table.

    The identity alpha(gh, k) + alpha(g, h) == alpha(g, hk) + alpha(h, k)
    (mod order) is associativity of the twisted group algebra, e_g e_h =
    alpha(g, h) e_gh, and the middle elements h for which it holds at every
    g, k are closed under products (see groups._check_associative). So the
    identity is checked for h = group.identity and h in generating_set(group),
    grown greedily from it and cached on the group, which decides every
    triple whatever element the identity field names: one vectorized (n, n)
    pass per middle, O(|S| n^2) in place of O(n^3). A report lists the
    normalization failures and the ("cocycle", g, h, k) violations with h
    among those middles; it is empty exactly when the table is a
    normalized 2-cocycle.

    Only tables from outside are checked here (make_cocycle, validate_cocycle);
    restrict builds the restriction of a cocycle without it.
    """
    n = group.order
    table = np.asarray(exponents, dtype=np.int64)
    violations: list = []
    if table.shape != (n, n):
        return CocycleReport([("shape", table.shape, (n, n))])
    if order < 1:
        return CocycleReport([("order", order)])
    table = table % order
    e = group.identity
    right, left = table[:, e] != 0, table[e] != 0
    for g in np.flatnonzero(right | left).tolist():
        if right[g]:
            violations.append(("normalization", g, e))
        if left[g]:
            violations.append(("normalization", e, g))
    middles = (e, *generating_set(group))
    for h, defect in _identity_defects(group.mul, order, table, middles):
        for g, k in np.argwhere(defect):
            violations.append(("cocycle", int(g), h, int(k)))
    return CocycleReport(violations)


def _identity_defects(mul: np.ndarray, order: int, table: np.ndarray, middles):
    """For each middle h, h and the boolean (..., n, n) array of the (g, k)
    where the 2-cocycle identity fails mod order, for a (..., n, n) stack of
    exponent tables."""
    for h in middles:
        lhs = table[..., mul[:, h], :] + table[..., :, h, None]  # alpha(gh, k) + alpha(g, h)
        rhs = table[..., :, mul[h]] + table[..., h, None, :]     # alpha(g, hk) + alpha(h, k)
        yield h, (lhs - rhs) % order != 0


@dataclass(eq=False)
class Cocycle:
    """A normalized 2-cocycle with values in mu_order, stored as exponents."""

    group: FiniteGroup
    order: int
    exponents: np.ndarray

    def __post_init__(self):
        if self.order < 1:
            raise InputError(f"cocycle order must be positive, got {self.order}")
        self.exponents = np.ascontiguousarray(self.exponents, dtype=np.int64) % self.order
        self.exponents.flags.writeable = False

    @cached_property
    def _roots(self) -> np.ndarray | None:
        """The K roots exp(2*pi*i * k / K), k = 0..K-1, read-only, or None
        where they would take more bytes than the exponents (K > |G|^2 / 2).
        The one float array a cocycle keeps; only roots_of reads it."""
        if 2 * self.order > self.exponents.size:
            return None
        roots = np.exp(2j * np.pi * np.arange(self.order) / self.order)
        roots.flags.writeable = False
        return roots

    def roots_of(self, exponents) -> np.ndarray:
        """exp(2*pi*i * e / K) for an integer array e of exponents in [0, K), as a new array.

        A gather from the cached roots, or where K is too large to cache
        them, the exponential of e itself: the bits are those of
        np.exp(2j * np.pi * e / K) either way, and the memory is e's, not K's.
        """
        roots = self._roots
        if roots is None:
            return np.exp(2j * np.pi * np.asarray(exponents) / self.order)
        return roots[exponents]

    def values(self, g, h) -> np.ndarray:
        """alpha(g, h) as complex values, for index arrays g and h broadcast together."""
        return self.roots_of(self.exponents[g, h])

    @property
    def complex_table(self) -> np.ndarray:
        """Every alpha(g, h) as a new read-only (|G|, |G|) complex array.

        Made by roots_of on each access and never cached, so a cocycle
        holds no |G|^2 float array. The values are bit-identical to
        np.exp(2j * np.pi * exponents / order). A caller that reads the whole
        table several times, such as a split, gathers it once and passes it
        on; a caller that reads a few entries asks values for them.
        """
        table = self.roots_of(self.exponents)
        table.flags.writeable = False
        return table

    @property
    def is_exact(self) -> bool:
        return True

    def is_trivial(self) -> bool:
        return not self.exponents.any()

    @cached_property
    def _content(self) -> bytes:
        """Memo digest of the order and exponents."""
        return _memo.key("cocycle content", "exact", self.order, self.exponents)

    def same_as(self, other) -> bool:
        if isinstance(other, Cocycle):
            if not self.group.same_table(other.group):
                return False
            lcm = math.lcm(self.order, other.order)
            return np.array_equal(
                self.exponents * (lcm // self.order),
                other.exponents * (lcm // other.order),
            )
        return _tables_close(self.complex_table, other)

    def __repr__(self):
        return f"Cocycle(order={self.order}, group_order={self.group.order})"


@dataclass(eq=False)
class NumericCocycle:
    """A 2-cocycle with unit complex float values (e.g. an induced beta)."""

    group: FiniteGroup
    table: np.ndarray

    def __post_init__(self):
        self.table = np.ascontiguousarray(self.table, dtype=np.complex128)
        self.table.flags.writeable = False

    def values(self, g, h) -> np.ndarray:
        """beta(g, h) for index arrays g and h broadcast together."""
        return self.table[g, h]

    @property
    def complex_table(self) -> np.ndarray:
        return self.table

    @cached_property
    def _content(self) -> bytes:
        """Memo digest of the values."""
        return _memo.key("cocycle content", "numeric", self.table)

    @property
    def is_exact(self) -> bool:
        return False

    def same_as(self, other) -> bool:
        if isinstance(other, Cocycle):
            return other.same_as(self)
        return _tables_close(self.table, other)

    def __repr__(self):
        return f"NumericCocycle(group_order={self.group.order})"


def _tables_close(table: np.ndarray, other) -> bool:
    other_table = other.complex_table if not isinstance(other, np.ndarray) else other
    return table.shape == other_table.shape and np.allclose(
        table, other_table, atol=1e-12, rtol=0.0
    )


def make_cocycle(group: FiniteGroup, order: int, exponents) -> Cocycle:
    """Build a Cocycle, requiring a clean validation report."""
    exponents = np.asarray(exponents, dtype=np.int64)
    report = validate_cocycle_table(group, order, exponents)
    if not report.ok:
        raise InvalidCocycle(
            f"not a normalized 2-cocycle ({len(report.violations)} violations, "
            f"first: {report.violations[0]})",
            report=report,
        )
    return Cocycle(group=group, order=order, exponents=exponents)


def validate_cocycle(alpha: Cocycle) -> CocycleReport:
    return validate_cocycle_table(alpha.group, alpha.order, alpha.exponents)


def validate_numeric_cocycle(beta: NumericCocycle, tol: Tolerances | None = None) -> CocycleReport:
    """Check |values| = 1, normalization, and the cocycle identity within tolerance.

    A non-finite entry (NaN or inf) is reported as a "unit" violation.

    Unlike validate_cocycle_table, the identity is checked at every triple,
    in O(n^3): an error within tolerance at each generator can add up along
    a word, so passing on a generating set does not bound it elsewhere.
    make_numeric_cocycle runs it on every induced beta, which certifies the
    M_q family; restrict builds restrictions without it.
    """
    tol = tol or default_tolerances()
    G = beta.group
    n = G.order
    t = beta.table
    violations: list = []
    if t.shape != (n, n):
        return CocycleReport([("shape", t.shape, (n, n))])
    off_unit = np.argwhere(~(np.abs(np.abs(t) - 1.0) <= tol.unitary))
    for g, h in off_unit:
        violations.append(("unit", int(g), int(h)))
    e = G.identity
    for g in range(n):
        if abs(t[g, e] - 1.0) > tol.cocycle:
            violations.append(("normalization", g, e))
        if abs(t[e, g] - 1.0) > tol.cocycle:
            violations.append(("normalization", e, g))
    mul = G.mul
    for g in range(n):
        lhs = t[mul[g], :] * t[g][:, None]
        rhs = t[g][mul] * t
        bad = np.argwhere(np.abs(lhs - rhs) > tol.cocycle)
        for h, k in bad:
            violations.append(("cocycle", g, int(h), int(k)))
    return CocycleReport(violations)


def make_numeric_cocycle(group: FiniteGroup, table, tol: Tolerances | None = None) -> NumericCocycle:
    beta = NumericCocycle(group=group, table=np.asarray(table, dtype=np.complex128))
    report = validate_numeric_cocycle(beta, tol)
    if not report.ok:
        raise InvalidCocycle(
            f"numeric table is not a 2-cocycle within tolerance "
            f"({len(report.violations)} violations, first: {report.violations[0]})",
            report=report,
        )
    return beta


def _certified_tables(group: FiniteGroup, tables: np.ndarray, order: int,
                      tol: Tolerances) -> list[NumericCocycle]:
    """The NumericCocycle of each table of a (k, n, n) stack, each certified
    on the lattice mu_order where it lies there, and by make_numeric_cocycle
    otherwise.

    With eps = min(tol.unitary, tol.cocycle / 5), a table t is accepted on
    the lattice when every entry is within eps of z = exp(2 pi i e / order),
    e = _lattice_exponents(t, order), and e is an exact normalized
    2-cocycle: e(1, 1) = 0 and the identity holds at every middle h in
    S = generating_set(group), as in validate_cocycle_table, one
    whole-stack pass in O(|S| n^2) per table. As in
    validate_cocycle_table, the good middles are closed under products, so
    every h is one, 1 included; at h = 1 the identity reads
    e(g, 1) = e(1, k) for all g, k, which with e(1, 1) = 0 is normalization.

    Acceptance implies validate_numeric_cocycle's check. z is an exact
    normalized 2-cocycle, so each side of the identity, t(gh, k) t(g, h)
    and t(g, hk) t(h, k), is within
    |t1 t2 - z1 z2| <= |t1 - z1| |t2| + |z1| |t2 - z2| <= 2 eps + eps^2 of
    the same unit product, and the residual is at most
    4 eps + 2 eps^2 < tol.cocycle. The normalization entries are within
    eps < tol.cocycle of 1, and every modulus within eps <= tol.unitary of 1.

    An accepted table is stored as z itself, an elementwise exp of e / order
    and so bit-identical for equal (e, order): equal cocycles share one memo
    digest. A table off the lattice, such as one moved by phase_seed, or
    one holding a NaN, takes make_numeric_cocycle and its O(n^3) check.
    """
    eps = min(tol.unitary, tol.cocycle / 5)
    with np.errstate(invalid="ignore"):       # a NaN entry rounds to garbage and fails the distance
        e = _lattice_exponents(tables, order)
    z = np.exp(2j * np.pi * e / order)
    ok = np.max(np.abs(tables - z), axis=(1, 2)) <= eps
    ok &= e[:, group.identity, group.identity] == 0
    for _, defect in _identity_defects(group.mul, order, e, generating_set(group)):
        ok &= ~defect.any(axis=(1, 2))
    return [NumericCocycle(group, z[i]) if ok[i] else make_numeric_cocycle(group, tables[i], tol)
            for i in range(len(tables))]


def trivial_cocycle(group: FiniteGroup, order: int = 1) -> Cocycle:
    return Cocycle(group=group, order=order, exponents=np.zeros((group.order, group.order), dtype=np.int64))


def dihedral_alpha(n: int) -> Cocycle:
    """The standard nontrivial cocycle on dihedral(n) for even n, K = n.

    Rows indexed by a^j (exponent 0) and a^j b (exponent k against a^k b^l).
    """
    if n < 2 or n % 2:
        raise OddN(f"dihedral_alpha requires an even n >= 2, got {n}")
    G = dihedral(n)
    expo = np.zeros((2 * n, 2 * n), dtype=np.int64)
    ks = np.arange(n)
    expo[n:, :n] = ks[None, :].repeat(n, axis=0)
    expo[n:, n:] = ks[None, :].repeat(n, axis=0)
    return make_cocycle(G, n, expo)


def restrict(cocycle: Cocycle | NumericCocycle,
             handle: SubgroupHandle) -> tuple[Cocycle | NumericCocycle, tuple[int, ...]]:
    """Restrict to a subgroup, re-indexed 0..m-1 by handle.as_group(); returns the index map too.

    The restricted table is built, not re-checked: a restriction of a
    normalized 2-cocycle to a subgroup is one.
    """
    _require_on(cocycle, handle.parent)
    sub, to_parent = handle.as_group()
    block = np.ix_(to_parent, to_parent)
    if isinstance(cocycle, Cocycle):
        return Cocycle(sub, cocycle.order, cocycle.exponents[block]), to_parent
    return NumericCocycle(sub, cocycle.table[block]), to_parent


def _require_on(cocycle: Cocycle | NumericCocycle, group: FiniteGroup) -> None:
    """The InputError of restrict unless the cocycle lives on the group's table."""
    if group is not cocycle.group and not group.same_table(cocycle.group):
        raise InputError("subgroup handle does not belong to the cocycle's group")


def _tau_exponents(alpha: Cocycle, qs: QuotientWithSection) -> np.ndarray:
    """The exponent mod K of the correction scalar of a section at every pair
    (q1, q2), one (|Q|, |Q|) array.

    With s = sigma, x = sigma(q1 q2) and c = chi(q1, q2) from qs._chi_table,
    both defining expressions

        alpha(s1, s2) - alpha(x, c)
        alpha(x^-1, s1 s2) - alpha(x, x^-1) + alpha(s1, s2)

    are computed over all pairs. They are related by the cocycle identity,
    so a disagreement anywhere signals a corrupted cocycle.
    """
    G = qs.parent
    if alpha.group is not G and not alpha.group.same_table(G):
        raise InputError("tau exponents need the cocycle on the quotient's parent group")
    E, K = alpha.exponents, alpha.order
    s = np.asarray(qs.section)
    x = s[qs.quotient.mul]
    xinv = G.inv[x]
    both = E[s[:, None], s]
    direct = (both - E[x, qs._chi_table]) % K
    expanded = (E[xinv, G.mul[s[:, None], s]] - E[x, xinv] + both) % K
    if not np.array_equal(direct, expanded):
        raise InvalidCocycle("tau formulas disagree: cocycle table is corrupted")
    return direct


def _lattice_exponents(values: np.ndarray, order: int) -> np.ndarray:
    """The exponents e mod order of the points exp(2*pi*i * e / order) of mu_order
    nearest in phase to each of values, as an int64 array of their shape."""
    return np.round(np.angle(values) / (2 * np.pi) * order).astype(np.int64) % order
