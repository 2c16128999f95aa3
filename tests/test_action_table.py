"""action_table against the per-pair route, its typed failures, and python -O."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twistdecomp as td
from twistdecomp.errors import DecompositionFailure
from twistdecomp.groups import full_subgroup


def corrupted_alpha4():
    """dihedral_alpha(4) with one entry outside <a> x <a> changed.

    Built directly, bypassing make_cocycle, so it is not a cocycle; its
    restriction to <a> still is.
    """
    expo = np.array(td.dihedral_alpha(4).exponents)
    expo[5, 4] += 1
    return td.Cocycle(group=td.dihedral(4), order=4, exponents=expo)


def c2_x_d8_alpha():
    """The trivial cocycle on C_2 times dihedral_alpha(4) on D_8."""
    G = td.direct_product(td.cyclic(2), td.dihedral(4))
    d8_index = np.arange(G.order) % 8
    return G, td.make_cocycle(G, 4, td.dihedral_alpha(4).exponents[np.ix_(d8_index, d8_index)])


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


CASES = list(_cases())


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_perm_equals_per_pair_route(case):
    _, G, A, alpha = case
    tol = td.default_tolerances()
    action = td.action_table(G, A, alpha, seed=0)
    chars = action.base.characters
    for g in range(G.order):
        for i, tau in enumerate(action.base.irreducibles):
            moved = td.act(alpha, A, g, tau)
            assert td.validate_rep(moved, tol).ok
            chi = td.character(moved)
            hits = [j for j, c in enumerate(chars) if c.close_to(chi, tol.char)]
            assert hits == [action.perm[g, i]]


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
