import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import twistdecomp as td
from twistdecomp import _memo


@pytest.fixture(autouse=True)
def cold_memo():
    """Start every test with an empty memo, so a test that patches a checked
    step sees that step run instead of a result remembered by an earlier test."""
    _memo.clear()


@pytest.fixture(scope="session")
def d8():
    return td.dihedral(4)


@pytest.fixture(scope="session")
def alpha4():
    return td.dihedral_alpha(4)


@pytest.fixture(scope="session")
def a_cyclic(d8):
    """A = <a>, the rotation subgroup of order 4."""
    return td.subgroup_closure(d8, [1])


@pytest.fixture(scope="session")
def a_center(d8):
    """A = <a^2>, the center of order 2."""
    return td.subgroup_closure(d8, [2])


@pytest.fixture(scope="session")
def explicit_taus(d8, alpha4):
    """The two explicit dim-2 irreducibles tau_i(a^k b^l) = A_i^k B_i^l."""
    import numpy as np

    eps = np.exp(2j * np.pi / 4)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    out = {}
    for i in (1, 2):
        ai = np.diag([eps**i, eps ** (1 - i)])
        mats = np.stack([
            np.linalg.matrix_power(ai, k) @ np.linalg.matrix_power(swap, l)
            for l in (0, 1)
            for k in range(4)
        ])
        out[i] = td.ProjectiveRep(d8, alpha4, 2, mats)
    return out
