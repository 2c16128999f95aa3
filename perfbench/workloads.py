"""Seeded workloads for the twistdecomp benchmark and the checks on every case.

Each workload is a fixed list of cases built from a seed in set-up. Running a
case calls the library's public functions and checks the output against
invariants that do not share the library's floating-point path: closed-form
irreducible counts and dimensions, exact rank identities, bijective
matchings, exact integer determinants and pullback functoriality. A case
fails when it raises a `TwistError` or an `AssertionError` (the library
still guards some invariants with `assert`) or when a check does not hold.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import twistdecomp as td
from twistdecomp import kgroups as td_kgroups
from twistdecomp import report as td_report
from twistdecomp.errors import TwistError

from spans import digest, installed

WORKLOADS = ("irr_split", "point_decomp", "gset_k0")

# Wall time of one round of each workload on the reference machine (2 cores,
# one BLAS thread). A run holds floor(seconds / ROUND_SECONDS) rounds, at
# least one, so the case count is fixed for a given --seconds.
ROUND_SECONDS = {"irr_split": 11.0, "point_decomp": 10.0, "gset_k0": 4.5}

# Cases beyond the tail percentile: case_s.tail is the (N - TAIL_BEYOND)-th
# smallest of N case times.
TAIL_BEYOND = 10


@dataclass
class Case:
    label: str
    fn: Callable
    args: tuple


@dataclass
class PassResult:
    wall_s: float = 0.0
    case_s: list[float] = field(default_factory=list)
    summaries: list = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)

    def add(self, index: int, case: Case, seconds: float, summary, problems) -> None:
        self.case_s.append(seconds)
        self.summaries.append(summary)
        self.failures.extend((index, f"{case.label}: {p}") for p in problems)


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // ROUND_SECONDS[workload]))


def tail_rank(n_cases: int) -> int:
    """0-based index, in sorted order, of the value with TAIL_BEYOND cases above it."""
    return max(0, n_cases - TAIL_BEYOND - 1)


def tail_percentile(n_cases: int) -> float:
    return 100.0 * (tail_rank(n_cases) + 1) / n_cases


# ---------------------------------------------------------------- inputs


def relabel(G, cocycle, rng):
    """An isomorphic copy of (G, cocycle) under a seeded random element numbering.

    Indices 0, 1 and 2 keep their elements (the identity, a, a^2 for the
    dihedral encoding), so the greedy generating sets of G and of its
    subgroups <a>, <a^2> keep their size and the cost of a case does not
    depend on the seed; every other element moves. Each copy is a distinct
    multiplication table, so no two cases share input content. The copy is
    valid by construction, so it is built without re-running validation.
    """
    n = G.order
    fixed = min(n, 3)
    perm = np.concatenate([np.arange(fixed), fixed + rng.permutation(n - fixed)])
    mul = np.empty_like(G.mul)
    mul[np.ix_(perm, perm)] = perm[G.mul]
    inv = np.empty_like(G.inv)
    inv[perm] = perm[G.inv]
    labels = [""] * n
    for g in range(n):
        labels[perm[g]] = G.labels[g]
    H = td.FiniteGroup(order=n, mul=mul, inv=inv, labels=tuple(labels))
    expo = np.empty_like(cocycle.exponents)
    expo[np.ix_(perm, perm)] = cocycle.exponents
    return H, td.Cocycle(group=H, order=cocycle.order, exponents=expo), perm


def _factor(kind: str, n: int, twisted: bool):
    """A group, its cocycle and the closed-form irreducible dimensions."""
    if kind == "C":
        return td.cyclic(n), None, [1] * n
    G = td.dihedral(n)
    if twisted:
        return G, td.dihedral_alpha(n), [2] * (n // 2)
    if n % 2:
        return G, None, [1] * 2 + [2] * ((n - 1) // 2)
    return G, None, [1] * 4 + [2] * (n // 2 - 1)


def _product_cocycle(G, G1, a1, G2, a2):
    """alpha1 x alpha2 on G1 x G2 (index x*|G2| + y); trivial factors may be None."""
    k1 = a1.order if a1 is not None else 1
    k2 = a2.order if a2 is not None else 1
    k = math.lcm(k1, k2)
    i, j = np.divmod(np.arange(G.order), G2.order)
    expo = np.zeros((G.order, G.order), dtype=np.int64)
    if a1 is not None:
        expo += a1.exponents[np.ix_(i, i)] * (k // k1)
    if a2 is not None:
        expo += a2.exponents[np.ix_(j, j)] * (k // k2)
    return td.make_cocycle(G, k, expo)


# (label, factors); a factor is (kind, n, twisted) with kind "D" for
# dihedral(n) of order 2n and "C" for cyclic(n). Twisted factors carry
# dihedral_alpha(n); a product carries the product cocycle.
IRR_ROUND = (
    ("D256 alpha", [("D", 128, True)]),
    ("D256", [("D", 128, False)]),
    ("D128 alpha", [("D", 64, True)]),
    ("D128", [("D", 64, False)]),
    ("D8xD16", [("D", 4, False), ("D", 8, False)]),
    ("C4xD32", [("C", 4, False), ("D", 16, False)]),
    ("D8xD16 alpha x 1", [("D", 4, True), ("D", 8, False)]),
    ("C2xD64 1 x alpha", [("C", 2, False), ("D", 32, True)]),
    ("C8xD16 1 x alpha", [("C", 8, False), ("D", 8, True)]),
    ("D16xD8 alpha x alpha", [("D", 8, True), ("D", 4, True)]),
    ("D64 alpha", [("D", 32, True)]),
    ("D64", [("D", 32, False)]),
    ("D8xD8", [("D", 4, False), ("D", 4, False)]),
    ("D8xD8 alpha x alpha", [("D", 4, True), ("D", 4, True)]),
    ("C2xD32", [("C", 2, False), ("D", 16, False)]),
    ("C4xD16 1 x alpha", [("C", 4, False), ("D", 8, True)]),
    ("C8xD8", [("C", 8, False), ("D", 4, False)]),
    ("D4xD16 alpha x alpha", [("D", 2, True), ("D", 8, True)]),
)

# (n, generator index) for dihedral(n) under dihedral_alpha(n); index 1 is a
# and index 2 is a^2. Each round repeats the small groups so that the run
# has enough cases for a tail percentile above the median.
POINT_ROUND = (
    ((24, 1), 1), ((24, 2), 1),
    ((16, 1), 2), ((16, 2), 2),
    ((4, 1), 8), ((4, 2), 8),
)

GSET_ORBITS = 2
GSET_CASES_PER_CONFIG = 4


def _irr_base(factors):
    """The canonical (G, alpha, closed-form dims) of one IRR_ROUND entry."""
    parts = [_factor(*f) for f in factors]
    if len(parts) == 1:
        G, alpha, dims = parts[0]
        return G, alpha if alpha is not None else td.trivial_cocycle(G), tuple(dims)
    (G1, a1, d1), (G2, a2, d2) = parts
    G = td.direct_product(G1, G2)
    return G, _product_cocycle(G, G1, a1, G2, a2), tuple(sorted(x * y for x in d1 for y in d2))


def _standard_configs():
    """(G, A, alpha) over orders 4-16, the configurations of `verify random-gsets`.

    A copy, not a call into the CLI, so that the workload stays fixed when
    the CLI's suite changes.
    """
    d8 = td.dihedral(4)
    yield d8, td.subgroup_closure(d8, [1]), td.dihedral_alpha(4)
    yield d8, td.subgroup_closure(d8, [2]), td.dihedral_alpha(4)
    for n in (2, 6, 8):
        G = td.dihedral(n)
        yield G, td.subgroup_closure(G, [1]), td.dihedral_alpha(n)


def _random_quotient_gset(Q, subgroups, rng):
    """GSET_ORBITS coset orbits Q/H, each H drawn at random, points relabelled.

    The orbit count is fixed, so the cost of a case varies with the seed
    only through the isotropy types.
    """
    x = None
    for _ in range(GSET_ORBITS):
        H = subgroups[int(rng.integers(len(subgroups)))]
        piece = td.coset_gset(Q, H)
        x = piece if x is None else td.disjoint_union(x, piece)
    return td_kgroups.relabel_gset(x, rng.permutation(x.size))


def build_cases(workload: str, seed: int, rounds: int) -> list[Case]:
    """The workload's fixed case list, in run order, for a seed.

    The same seed gives the same inputs in the same order.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    cases = []
    if workload == "irr_split":
        bases = [(label, _irr_base(factors)) for label, factors in IRR_ROUND]
        for r in range(rounds):
            for label, (G, alpha, dims) in bases:
                H, beta, _ = relabel(G, alpha, rng)
                cases.append(Case(f"{label} #{r}", irr_case, (H, beta, dims)))
    elif workload == "point_decomp":
        bases = {n: (td.dihedral(n), td.dihedral_alpha(n)) for (n, _), _ in POINT_ROUND}
        for r in range(rounds):
            for (n, gen), repeat in POINT_ROUND:
                for k in range(repeat):
                    G, alpha, perm = relabel(*bases[n], rng)
                    A = td.subgroup_closure(G, [int(perm[gen])])
                    label = f"D{2 * n} A=<{'a' if gen == 1 else 'a^2'}> #{r}.{k}"
                    cases.append(Case(label, point_case, (G, A, alpha, n // 2)))
    elif workload == "gset_k0":
        configs = []
        for G, A, alpha in _standard_configs():
            qs = td.quotient_with_section(G, A)
            configs.append((G, A, alpha, qs, td.groups.all_subgroups(qs.quotient)))
        for r in range(rounds):
            for k in range(GSET_CASES_PER_CONFIG):
                for G, A, alpha, qs, subs in configs:
                    zq = _random_quotient_gset(qs.quotient, subs, rng)
                    yq, f2 = td_kgroups.random_cover(zq, rng, subs)
                    xq, f1 = td_kgroups.random_cover(yq, rng, subs)
                    x, y, z = (td_kgroups.pullback_to_group(s, G, qs.projection)
                               for s in (xq, yq, zq))
                    label = f"|G|={G.order} |A|={A.order} |X|={x.size} #{r}.{k}"
                    cases.append(Case(label, gset_case, (G, A, alpha, x, y, z, f1, f2)))
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    # A seeded order spreads each kind of case over the whole run, so slow
    # phases of a shared machine do not land on one kind of case only.
    return [cases[i] for i in rng.permutation(len(cases))]


# ---------------------------------------------------------------- cases


def irr_case(G, alpha, expected_dims):
    table = td.irreducibles(G, alpha)
    dims = tuple(sorted(table.dims))
    problems = []
    if len(dims) != len(expected_dims):
        problems.append(f"{len(dims)} irreducibles, closed form gives {len(expected_dims)}")
    elif dims != expected_dims:
        problems.append(f"dimensions {dims} differ from the closed form {expected_dims}")
    if sum(d * d for d in dims) != G.order:
        problems.append(f"sum of squared dimensions {sum(d * d for d in dims)} != {G.order}")
    summary = (dims, digest(*(c.values for c in table.characters)))
    return summary, problems


def point_case(G, A, alpha, expected_rank):
    report = td.verify_point_decomposition(G, A, alpha)
    text = td_report.to_json(td_report.decomposition_payload(report))
    problems = []
    lhs, rhs = report.rank_lhs, report.rank_rhs
    if lhs != expected_rank:
        problems.append(f"{lhs} irreducibles, closed form gives {expected_rank}")
    if lhs != sum(rhs):
        problems.append(f"rank identity fails: {lhs} != {sum(rhs)}")
    classes = {(oi, j) for oi, t in enumerate(report.beta_tables) for j in range(len(t))}
    if len(report.matching) != lhs or set(report.matching) != classes:
        problems.append("matching is not a bijection onto the beta classes")
    rank = json.loads(text)["rank"]
    if rank["lhs"] != lhs or rank["total"] != sum(rhs) or rank["ok"] is not True:
        problems.append(f"serialized rank {rank} disagrees with the report")
    summary = (lhs, rhs, tuple(report.matching), digest(text))
    return summary, problems


def exact_det(m) -> int:
    """Determinant of an integer matrix by fraction-free elimination on Python ints."""
    a = [[int(v) for v in row] for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def gset_case(G, A, alpha, x, y, z, f1, f2):
    report = td.verify_gset_decomposition(G, A, alpha, x)
    phi = td.phi_matrix(G, A, alpha, x)
    m1 = td.pullback_matrix(G, alpha, f1, x, y)
    m2 = td.pullback_matrix(G, alpha, f2, y, z)
    composite = [f2[f1[p]] for p in range(x.size)]
    mc = td.pullback_matrix(G, alpha, composite, x, z)
    problems = []
    if not report.ok or report.lhs_rank != sum(report.rhs_ranks):
        problems.append(f"rank identity fails: {report.lhs_rank} != {report.rhs_ranks}")
    if not np.issubdtype(phi.dtype, np.integer) or phi.shape != (report.lhs_rank,) * 2:
        problems.append(f"phi has dtype {phi.dtype} and shape {phi.shape}, "
                        f"expected a square integer matrix of size {report.lhs_rank}")
    elif abs(exact_det(phi)) != 1:
        problems.append(f"phi has determinant {exact_det(phi)}, not +-1")
    if not np.array_equal(mc, m1 @ m2):
        problems.append("pullback is not functorial on the two-map chain")
    summary = (report.lhs_rank, tuple(report.rhs_ranks), phi.tolist(),
               m1.tolist(), m2.tolist(), mc.tolist())
    return summary, problems


def _run_one(case: Case):
    """Run a case with its checks: (seconds, summary or None, problems)."""
    start = time.perf_counter()
    try:
        summary, problems = case.fn(*case.args)
    except (TwistError, AssertionError) as exc:
        summary, problems = None, [f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - start, summary, problems


def run_cases(cases: list[Case], tracer=None) -> PassResult:
    """Closed loop: each case starts after the previous one, checks included."""
    result = PassResult()
    start = time.perf_counter()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case = i
        result.add(i, case, *_run_one(case))
    result.wall_s = time.perf_counter() - start
    return result


def run_paired(cases: list[Case], copies: list[Case], tracer) -> tuple[PassResult, PassResult]:
    """Each case untraced, then its fresh copy traced, in one closed loop.

    Pairing the two runs of a case puts both in the same phase of a shared
    machine, so traced minus untraced time measures the tracing overhead.
    Each wall_s is the sum of its case times.
    """
    plain, traced = PassResult(), PassResult()
    for i, (case, copy) in enumerate(zip(cases, copies)):
        plain.add(i, case, *_run_one(case))
        tracer.case = i
        with installed(tracer):
            traced.add(i, copy, *_run_one(copy))
    plain.wall_s, traced.wall_s = sum(plain.case_s), sum(traced.case_s)
    return plain, traced


def failed_cases(result: PassResult) -> int:
    return len({i for i, _ in result.failures})
