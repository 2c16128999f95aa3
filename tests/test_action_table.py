"""action_table against the per-pair route, its typed failures, and python -O."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twistdecomp as td
from twistdecomp import decomposition, reps
from twistdecomp.cli import main
from twistdecomp.errors import (
    AmbiguousCharacter,
    DecompositionFailure,
    NonIntegerMultiplicity,
    UnmatchedCharacter,
)
from twistdecomp.groups import full_subgroup, generating_set, normal_subgroups

from oracles import act, max_abs_matches, rep_violations_by_element
from test_decomposition import coboundary_twist


def corrupted_alpha4():
    """dihedral_alpha(4) with one entry outside <a> x <a> changed.

    Built directly, bypassing make_cocycle, so it is not a cocycle; its
    restriction to <a> still is.
    """
    expo = np.array(td.dihedral_alpha(4).exponents)
    expo[5, 4] += 1
    return td.Cocycle(group=td.dihedral(4), order=4, exponents=expo)


def times_d8_alpha(H):
    """H x D_8 under the trivial cocycle on H times dihedral_alpha(4) on D_8."""
    G = td.direct_product(H, td.dihedral(4))
    d8_index = np.arange(G.order) % 8
    return G, td.make_cocycle(G, 4, td.dihedral_alpha(4).exponents[np.ix_(d8_index, d8_index)])


def c2_x_d8_alpha():
    return times_d8_alpha(td.cyclic(2))


def s4():
    return td.from_permutation_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)])


def s4_normal(order):
    """S_4 with its normal subgroup of the given order, under the trivial cocycle."""
    G = s4()
    A = next(h for h in normal_subgroups(G) if h.order == order)
    return G, A, td.trivial_cocycle(G)


def s4_x_d8_a4():
    """S_4 x D_8 under times_d8_alpha with A = A_4 x 1: four generators, four
    rounds of the product plan, and a 3-dimensional tau."""
    G, alpha = times_d8_alpha(s4())
    _, a4, _ = s4_normal(12)
    return G, td.SubgroupHandle(G, [8 * x for x in a4.elements]), alpha


def _cases():
    d8, alpha4 = td.dihedral(4), td.dihedral_alpha(4)
    yield "D8 <a>", d8, td.subgroup_closure(d8, [1]), alpha4
    yield "D8 <a^2>", d8, td.subgroup_closure(d8, [2]), alpha4
    yield "D8 center", d8, td.center(d8), alpha4
    yield "D8 G", d8, full_subgroup(d8), alpha4
    d12 = td.dihedral(6)
    yield "D12 <a>", d12, td.subgroup_closure(d12, [1]), td.dihedral_alpha(6)
    d16 = td.dihedral(8)
    yield "D16 <a>", d16, td.subgroup_closure(d16, [1]), td.dihedral_alpha(8)
    yield "D16 <a^2>", d16, td.subgroup_closure(d16, [2]), td.dihedral_alpha(8)
    G, alpha = c2_x_d8_alpha()
    yield "C2xD8 1x<a>", G, td.subgroup_closure(G, [1]), alpha
    yield "C2xD8 C2x<a^2>", G, td.subgroup_closure(G, [8, 2]), alpha
    d6 = td.dihedral(3)
    yield "D6 trivial <a>", d6, td.subgroup_closure(d6, [1]), td.trivial_cocycle(d6)
    yield ("S4 A4", *s4_normal(12))       # a 3-dimensional tau
    yield ("S4 V4", *s4_normal(4))
    yield "D8 <a> alpha4 df", d8, td.subgroup_closure(d8, [1]), coboundary_twist(alpha4, 3)
    yield ("S4xD8 A4x1", *s4_x_d8_a4())
    d48 = td.dihedral(24)
    yield "D48 <a>", d48, td.subgroup_closure(d48, [1]), td.dihedral_alpha(24)


CASES = list(_cases())


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_perm_equals_per_pair_route(case):
    _, G, A, alpha = case
    tol = td.default_tolerances()
    action = td.action_table(G, A, alpha, seed=0)
    for g in range(G.order):
        for i, tau in enumerate(action.base.irreducibles):
            moved = act(alpha, A, g, tau)
            assert not rep_violations_by_element(moved, tol)
            hits = max_abs_matches(action.base.character_values, td.character(moved).values,
                                   tol.char)
            assert hits == [action.perm[g, i]]


def tamper(monkeypatch, change):
    """Pass every result of IrrTable.multiplicities, as action_table calls it, through change."""
    honest = reps.IrrTable.multiplicities
    monkeypatch.setattr(reps.IrrTable, "multiplicities",
                        lambda self, values, tol: change(honest(self, values, tol)))


def no_entry(mult):
    return np.vstack([np.zeros_like(mult[:1]), mult[1:]])


def two_entries(mult):
    return np.vstack([mult[:1] + mult[1:2], mult[1:]])


def not_integer(mult):
    raise NonIntegerMultiplicity("character inner product 0.5 is not a multiplicity")


# change of the multiplicities -> error of action_table, exit code of `verify action-laws`
TAMPERED = {
    "weight 0": (no_entry, UnmatchedCharacter, 3),
    "weight 2": (two_entries, AmbiguousCharacter, 5),
    "not an integer": (not_integer, UnmatchedCharacter, 3),
}


@pytest.mark.parametrize("name", TAMPERED)
def test_a_row_that_is_not_a_unit_vector_raises(name, monkeypatch, d8, alpha4, a_cyclic):
    change, error, _ = TAMPERED[name]
    tamper(monkeypatch, change)
    with pytest.raises(error) as info:
        td.action_table(d8, a_cyclic, alpha4, seed=0)
    if change is not_integer:
        assert isinstance(info.value.__cause__, NonIntegerMultiplicity)


@pytest.mark.parametrize("name", TAMPERED)
def test_a_row_that_is_not_a_unit_vector_sets_the_exit_code(name, monkeypatch, capsys):
    change, error, code = TAMPERED[name]
    tamper(monkeypatch, change)
    assert main(["verify", "action-laws", "--group=dihedral:4", "--A=a",
                 "--cocycle=dihedral_alpha:4"]) == code
    assert error.__name__ in capsys.readouterr().err


def on_generator(k, change):
    """A change for tamper that passes the rows act(s_k, tau_i), i = 0..n-1, of the
    k-th generator s_k through change: action_table stacks them generator by generator."""
    def apply(mult):
        rows = slice(k * mult.shape[1], (k + 1) * mult.shape[1])
        mult = mult.copy()
        mult[rows] = change(mult[rows])
        return mult
    return apply


def test_a_swap_in_perm_of_a_moves_classes_inside_a(monkeypatch, d8, alpha4, a_cyclic):
    assert generating_set(d8) == [1, 4]                  # a, b
    tamper(monkeypatch, on_generator(0, lambda rows: rows[[1, 0, *range(2, len(rows))]]))
    with pytest.raises(DecompositionFailure, match="moves classes inside A"):
        td.action_table(d8, a_cyclic, alpha4, seed=0)


def test_perm_of_b_the_identity_passes_the_laws_but_fails_the_sections(
        monkeypatch, d8, alpha4, a_cyclic):
    """perm(b) = id obeys every relation of D_8, so the table is a homomorphism
    and action_table accepts it; the section element b of an orbit's isotropy
    quotient then does not fix the class."""
    assert generating_set(d8) == [1, 4]
    tamper(monkeypatch, on_generator(1, lambda rows: np.eye(len(rows), dtype=rows.dtype)))
    action = td.action_table(d8, a_cyclic, alpha4, seed=0)
    monkeypatch.undo()
    assert np.array_equal(action.perm[4], np.arange(len(action.base)))
    with pytest.raises(UnmatchedCharacter, match="section element 4 does not fix the class"):
        td.orbit_data(action, alpha4)


def test_one_decomposition_per_table_and_one_quotient_per_isotropy_group(monkeypatch):
    """dihedral(24) with A = <a>: 12 orbits share one isotropy group. The
    action table decomposes all its moved characters in one call, and
    orbit_data builds the isotropy quotient once."""
    G = td.dihedral(24)
    A, alpha = td.subgroup_closure(G, [1]), td.dihedral_alpha(24)
    calls = {"multiplicities": 0, "quotient_with_section": 0}

    def counted(owner, name):
        honest = getattr(owner, name)

        def call(*args):
            calls[name] += 1
            return honest(*args)
        monkeypatch.setattr(owner, name, call)

    counted(reps.IrrTable, "multiplicities")
    counted(decomposition, "quotient_with_section")
    action = td.action_table(G, A, alpha, seed=0)
    assert calls == {"multiplicities": 1, "quotient_with_section": 0}
    data = td.orbit_data(action, alpha)
    assert len(data) == 12 and len({datum.isotropy.elements for datum in data}) == 1
    assert calls == {"multiplicities": 1, "quotient_with_section": 1}


def bfs_orbits(table):
    """Reference orbits of a (|G|, m) action table: breadth-first search over its rows."""
    seen, out = set(), []
    for i in range(table.shape[1]):
        if i in seen:
            continue
        orbit, frontier = {i}, [i]
        while frontier:
            nxt = []
            for j in frontier:
                for k in map(int, table[:, j]):
                    if k not in orbit:
                        orbit.add(k)
                        nxt.append(k)
            frontier = nxt
        seen |= orbit
        out.append(tuple(sorted(orbit)))
    return out


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_orbits_and_isotropy_equal_search(case):
    _, G, A, alpha = case
    action = td.action_table(G, A, alpha, seed=0)
    orbits = action.orbits()
    assert orbits == bfs_orbits(action.perm)
    want = [tuple(g for g in range(G.order) if action.perm[g, o[0]] == o[0]) for o in orbits]
    assert [d.isotropy.elements for d in td.orbit_data(action, alpha)] == want


def test_certificate_rejects_a_corrupted_cocycle():
    G = td.dihedral(4)
    with pytest.raises(DecompositionFailure, match="certificate"):
        td.action_table(G, td.subgroup_closure(G, [1]), corrupted_alpha4(), seed=0)


def _run_checks() -> dict:
    """The corrupted input and a clean D16 <a> case, as a JSON-ready dict."""
    G = td.dihedral(4)
    try:
        td.action_table(G, td.subgroup_closure(G, [1]), corrupted_alpha4(), seed=0)
        error = None
    except DecompositionFailure as exc:
        error = str(exc)
    d16 = td.dihedral(8)
    clean = td.action_table(d16, td.subgroup_closure(d16, [1]), td.dihedral_alpha(8), seed=0)
    return {"optimize": sys.flags.optimize, "error": error, "perm": clean.perm.tolist()}


def test_checks_fire_under_python_O():
    here = Path(__file__).resolve().parent
    src = Path(td.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path[:0] = [{str(src)!r}, {str(here)!r}]; import json; "
        "import test_action_table as t; print(json.dumps(t._run_checks()))"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    optimized = json.loads(out.stdout.splitlines()[-1])
    assert optimized["optimize"] == 1
    assert optimized["error"] is not None and "certificate" in optimized["error"]
    assert optimized["perm"] == _run_checks()["perm"]
