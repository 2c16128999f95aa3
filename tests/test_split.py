"""The one-shot split of the twisted regular representation and its certificates."""

import ast
import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import twistdecomp as td
from twistdecomp import reps
from twistdecomp.fileio import parse_group_spec
from twistdecomp.errors import (
    DecompositionFailure,
    InputError,
    InvalidCocycle,
    NonIntegerMultiplicity,
    NotIrreducible,
    NumericFailure,
    SplitFailure,
)

import oracles
from test_action_table import c2_x_d8_alpha
from test_reps import c2_times_dihedral, quaternion, symmetric, with_nan

PACKAGE_DIR = Path(reps.__file__).parent


def class_count(G, cocycle):
    return reps._regular_class_count(G, cocycle, td.default_tolerances())


class TestRegularClassCount:
    @pytest.mark.parametrize("n", range(2, 65, 2))
    def test_dihedral_twisted_closed_form(self, n):
        assert class_count(td.dihedral(n), td.dihedral_alpha(n)) == n // 2

    @pytest.mark.parametrize("n", range(2, 65))
    def test_dihedral_trivial_closed_form(self, n):
        G = td.dihedral(n)
        want = n // 2 + 3 if n % 2 == 0 else (n + 3) // 2
        assert class_count(G, td.trivial_cocycle(G)) == want

    def test_c2_x_d8(self):
        G, alpha = c2_x_d8_alpha()
        assert class_count(G, td.trivial_cocycle(G)) == 10
        assert class_count(G, alpha) == 4
        assert len(td.irreducibles(G, alpha, seed=0)) == 4

    def test_numeric_cohomologous_cocycle_counts_alike(self):
        rng = np.random.default_rng(0)
        for n in (4, 6, 8):
            alpha = td.dihedral_alpha(n)
            G = alpha.group
            f = np.exp(2j * np.pi * rng.random(G.order))
            f[G.identity] = 1.0
            table = alpha.complex_table * np.outer(f, f) / f[G.mul]
            beta = td.make_numeric_cocycle(G, table)
            assert class_count(G, beta) == n // 2
            assert len(td.irreducibles(G, beta, seed=0)) == n // 2

    @pytest.mark.parametrize("n", range(2, 17))
    def test_matches_irreducibles(self, n):
        G = td.dihedral(n)
        cocycles = [td.trivial_cocycle(G)] + ([td.dihedral_alpha(n)] if n % 2 == 0 else [])
        for cocycle in cocycles:
            assert len(td.irreducibles(G, cocycle, seed=0)) == class_count(G, cocycle)

    def test_wrong_count_fails_the_split(self, monkeypatch, d8, alpha4):
        monkeypatch.setattr(reps, "_regular_class_count", lambda *args: 3)
        with pytest.raises(SplitFailure, match="no clean split after 5 seeds"):
            td.irreducibles(d8, alpha4, seed=0)


def assemble(G, cocycle, V, clusters):
    """The certified table of a split, in table order."""
    phi = reps._conjugation_weights(G, cocycle.complex_table)
    tol = td.default_tolerances()
    bases, values = reps._assemble_table(G, cocycle, cocycle.complex_table, V, clusters, phi, tol)
    return reps._table(G, cocycle, reps._sorted_split(G, cocycle, bases, values, tol))


def numeric_copy(cocycle):
    return td.make_numeric_cocycle(cocycle.group, cocycle.complex_table)


class TestCertificates:
    def test_missing_block_fails_multiplicity(self, d8, alpha4):
        V, clusters = reps._split_regular(d8, alpha4, alpha4.complex_table, seed=0)
        with pytest.raises(SplitFailure, match="block multiplicities"):
            assemble(d8, alpha4, V, clusters[1:])

    def test_missing_class_fails_sum_of_squares(self, d8):
        trivial = td.trivial_cocycle(d8)
        V, clusters = reps._split_regular(d8, trivial, trivial.complex_table, seed=0)
        one_dim = [i for i, c in enumerate(clusters) if c.size == 1]
        kept = [c for i, c in enumerate(clusters) if i != one_dim[0]]
        with pytest.raises(SplitFailure, match="sum of squared dimensions"):
            assemble(d8, trivial, V, kept)

    def test_reducible_entry_fails_the_split(self, monkeypatch, d8, alpha4, explicit_taus):
        monkeypatch.setattr(reps, "_commutant_dimensions", lambda G, mats: np.full(len(mats), 2))
        with pytest.raises(SplitFailure, match="no clean split") as err:
            td.irreducibles(d8, alpha4, seed=0)
        assert "not irreducible" in str(err.value.__cause__)
        assert reps.commutant_dimension(explicit_taus[1]) == 2

    @pytest.mark.parametrize("exact", [True, False])
    def test_broken_relation_fails_the_split(self, monkeypatch, d8, alpha4, exact):
        """The matrices are built and certified on the first read of irreducibles."""
        honest = reps._block_matrices

        def broken(G, cocycle, ctable, B):
            mats = honest(G, cocycle, ctable, B)
            mats[:, G.order - 1] *= np.exp(1e-4j)   # neither the identity nor a generator
            return mats

        monkeypatch.setattr(reps, "_block_matrices", broken)
        table = td.irreducibles(d8, alpha4 if exact else numeric_copy(alpha4), seed=0)
        with pytest.raises(SplitFailure, match="miss the defining relation"):
            table.irreducibles

    def test_failed_matrix_read_is_not_remembered(self, monkeypatch, d8, alpha4):
        """A split whose matrices missed the relation is no hit of irreducibles
        or of a K^0 summand: once the fault is gone, both split again and build."""
        honest = reps._block_matrices

        def broken(G, cocycle, ctable, B):
            mats = honest(G, cocycle, ctable, B)
            mats[:, G.order - 1] *= np.exp(1e-4j)
            return mats

        monkeypatch.setattr(reps, "_block_matrices", broken)
        failed = td.irreducibles(d8, alpha4, seed=0)
        summand = td.k0_of_gset(d8, alpha4, td.point_gset(d8)).summands[0]
        assert summand._split is failed._split
        for table in (failed, failed, summand):
            with pytest.raises(SplitFailure, match="miss the defining relation"):
                table.irreducibles
        monkeypatch.setattr(reps, "_block_matrices", honest)
        for table in (td.irreducibles(d8, alpha4, seed=0),
                      td.k0_of_gset(d8, alpha4, td.point_gset(d8)).summands[0]):
            assert table._split is not failed._split
            assert [rep.dim for rep in table.irreducibles] == [2, 2]
        assert np.array_equal(td.irreducibles(d8, alpha4, seed=0).character_values,
                              failed.character_values)

    def test_failed_isotropy_split_is_split_again(self, monkeypatch, d8, alpha4):
        """The group keeps each stabilizer's summand table for later K^0 calls,
        but not once its matrices missed the relation: the next call splits the
        stabilizer again, and once the fault is gone the new table builds."""
        honest = reps._block_matrices

        def broken(G, cocycle, ctable, B):
            mats = honest(G, cocycle, ctable, B)
            mats[:, G.order - 1] *= np.exp(1e-4j)
            return mats

        monkeypatch.setattr(reps, "_block_matrices", broken)
        x = td.coset_gset(d8, td.subgroup_closure(d8, [2]))       # stabilizer <a^2>
        failed = td.k0_of_gset(d8, alpha4, x).summands[0]
        assert td.k0_of_gset(d8, alpha4, x).summands[0] is failed
        with pytest.raises(SplitFailure, match="miss the defining relation"):
            failed.irreducibles
        again = td.k0_of_gset(d8, alpha4, td.make_gset(d8, np.array(x.action))).summands[0]
        assert again is not failed and again._split is not failed._split
        with pytest.raises(SplitFailure, match="miss the defining relation"):
            again.irreducibles
        monkeypatch.setattr(reps, "_block_matrices", honest)
        table = td.k0_of_gset(d8, alpha4, x).summands[0]
        assert table._split not in (failed._split, again._split)
        assert [rep.dim for rep in table.irreducibles] == [1, 1]
        assert td.k0_of_gset(d8, alpha4, x).summands[0] is table
        assert np.array_equal(table.character_values, failed.character_values)

    def test_basis_off_its_invariant_subspace_fails_the_split(self, monkeypatch, d8, alpha4):
        rotate_first_block(monkeypatch.setattr)
        with pytest.raises(SplitFailure, match="no clean split after 5 seeds") as err:
            td.irreducibles(d8, alpha4, seed=0)
        assert "not invariant" in str(err.value.__cause__)

    @pytest.mark.parametrize("identity", [1, 8])
    def test_inconsistent_identity_fails_before_the_split(self, monkeypatch, d8, alpha4, identity):
        def never(*args):
            raise AssertionError("_split_regular ran")

        monkeypatch.setattr(reps, "_split_regular", never)
        wrong = td.FiniteGroup(order=8, mul=d8.mul, inv=d8.inv, labels=d8.labels, identity=identity)
        with pytest.raises(InputError, match="is not the identity of the table"):
            td.irreducibles(wrong, alpha4)


class TestCommutantDimensions:
    def test_equal_to_the_hom_space(self, d8, alpha4):
        irr = td.irreducibles(d8, alpha4).irreducibles
        t0, t1 = irr[0].matrices, irr[1].matrices
        zero = np.zeros_like(t0)
        stacks = [np.block([[x, zero], [zero, y]]) for x, y in [(t0, t0), (t0, t1), (t1, t1)]]
        want = [oracles.hom_space(d8, m, m).shape[1] for m in stacks]
        assert want == [4, 2, 4]
        at_generators = np.stack(stacks)[:, reps.generating_set(d8)]
        assert reps._commutant_dimensions(d8, at_generators).tolist() == want
        assert reps.commutant_dimension(oracles.regular_rep(d8, alpha4)) == 8


def merge_all(calls):
    """A _cluster_sorted that puts every eigenvalue into one cluster while calls[0] > 0."""
    honest = reps._cluster_sorted

    def cluster(w):
        if calls[0] > 0:
            calls[0] -= 1
            return [np.arange(w.size)]
        return honest(w)

    return cluster


class TestRetry:
    def test_failed_first_split_redraws_with_next_seed(self, monkeypatch, d8, alpha4):
        want = td.irreducibles(d8, alpha4, seed=1)
        monkeypatch.setattr(reps, "_cluster_sorted", merge_all([1]))
        got = td.irreducibles(d8, alpha4, seed=0)
        assert [c.fingerprint(6) for c in got.characters] == [
            c.fingerprint(6) for c in want.characters]
        for r1, r2 in zip(got.irreducibles, want.irreducibles):
            assert np.array_equal(r1.matrices, r2.matrices)

    def test_gives_up_after_five_seeds(self, monkeypatch, d8, alpha4):
        monkeypatch.setattr(reps, "_cluster_sorted", merge_all([10]))
        with pytest.raises(SplitFailure, match="no clean split after 5 seeds starting at 0"):
            td.irreducibles(d8, alpha4, seed=0)


def rotate_first_block(set_attribute):
    """Make every split rotate one basis vector of its first block towards the
    second block's, by 1e-3 rad, while the block characters still come from
    the unrotated eigenvectors: only the invariance certificate sees it.

    set_attribute is monkeypatch.setattr, or setattr in a fresh interpreter.
    """
    honest_split, honest_characters = reps._split_regular, reps._block_characters
    unrotated = []

    def split(*args):
        V, clusters = honest_split(*args)
        unrotated[:] = [V]
        pair = [clusters[0][0], clusters[1][0]]
        c, s = np.cos(1e-3), np.sin(1e-3)
        rotated = np.array(V)
        rotated[:, pair] = V[:, pair] @ np.array([[c, -s], [s, c]])
        return rotated, clusters

    def characters(V, *args):
        return honest_characters(unrotated[0], *args)

    set_attribute(reps, "_split_regular", split)
    set_attribute(reps, "_block_characters", characters)


def _rotated_block_error() -> str | None:
    """The error of a D_8 split with rotate_first_block installed for good, or None."""
    rotate_first_block(setattr)
    try:
        td.irreducibles(td.dihedral(4), td.dihedral_alpha(4), seed=0)
    except SplitFailure as exc:
        return f"{exc} | {exc.__cause__}"
    return None


def _always_merged_error() -> str | None:
    """The error of a D_8 split whose clusters are always merged, or None.

    Replaces reps._cluster_sorted for good, so it runs in a fresh interpreter.
    """
    reps._cluster_sorted = merge_all([10])
    try:
        td.irreducibles(td.dihedral(4), td.dihedral_alpha(4), seed=0)
    except SplitFailure as exc:
        return str(exc)
    return None


def test_retry_failure_raises_under_python_O():
    here = Path(__file__).resolve().parent
    src = Path(td.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path[:0] = [{str(src)!r}, {str(here)!r}]; import json; "
        "import test_split as t; "
        "print(json.dumps([sys.flags.optimize, t._always_merged_error()]))"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    optimize, error = json.loads(out.stdout.splitlines()[-1])
    assert optimize == 1
    assert error is not None and error.startswith("no clean split after 5 seeds")


def test_invariance_failure_raises_under_python_O():
    here = Path(__file__).resolve().parent
    src = Path(td.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path[:0] = [{str(src)!r}, {str(here)!r}]; import json; "
        "import test_split as t; "
        "print(json.dumps([sys.flags.optimize, t._rotated_block_error()]))"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    optimize, error = json.loads(out.stdout.splitlines()[-1])
    assert optimize == 1
    assert error is not None and error.startswith("no clean split after 5 seeds")
    assert "not invariant" in error


def test_src_has_no_assert_statement():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _typed_failures() -> list[str]:
    """Error types raised by four invariant checks fed broken inputs.

    chi on a section that mixes cosets of <a^2> in D_8, tau_scalar on a
    table (built directly, bypassing validation) whose two tau formulas
    disagree, and multiplicity and intertwiner on a D_8 irreducible with
    one NaN matrix entry.
    """
    G = td.dihedral(4)
    qs = td.quotient_with_section(G, td.subgroup_closure(G, [2]))
    out = []
    broken = dataclasses.replace(qs, section=(0, 4, 4, 5))
    try:
        td.chi(broken, 1, 2)
    except DecompositionFailure as exc:
        out.append(type(exc).__name__)
    expo = np.array(td.dihedral_alpha(4).exponents)
    expo[1, 3] += 1
    corrupted = td.Cocycle(group=G, order=4, exponents=expo)
    try:
        for q1 in range(4):
            for q2 in range(4):
                td.tau_scalar(corrupted, qs, q1, q2)
    except InvalidCocycle as exc:
        out.append(type(exc).__name__)
    tau = td.irreducibles(G, td.dihedral_alpha(4)).irreducibles[0]
    broken = with_nan(tau)
    try:
        oracles.multiplicity(broken, tau)
    except NonIntegerMultiplicity as exc:
        out.append(type(exc).__name__)
    try:
        td.intertwiner(broken, tau)
    except NotIrreducible as exc:
        out.append(type(exc).__name__)
    return out


def test_typed_failures_under_python_O():
    here = Path(__file__).resolve().parent
    src = Path(td.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path[:0] = [{str(src)!r}, {str(here)!r}]; import json; "
        "import test_split as t; "
        "print(json.dumps([sys.flags.optimize, t._typed_failures()]))"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    optimize, errors = json.loads(out.stdout.splitlines()[-1])
    assert optimize == 1
    assert errors == ["DecompositionFailure", "InvalidCocycle", "NonIntegerMultiplicity",
                      "NotIrreducible"] == _typed_failures()


class TestIntertwinerFailures:
    def test_schur_kernel_not_one_dimensional(self, monkeypatch, explicit_taus):
        """With every singular value under the cutoff, the Schur space of a
        2-dimensional pair reads dimension 4 (the commutant check bypassed)."""
        monkeypatch.setattr(reps, "_commutant_dimensions", lambda G, X: np.ones(len(X), int))
        monkeypatch.setattr(reps, "_NULLSPACE_RTOL", 10.0)
        with pytest.raises(NotIrreducible, match="Schur solution space has dimension 4, not 1"):
            td.intertwiner(explicit_taus[1], explicit_taus[1])

    def test_verification_residual(self, explicit_taus):
        tol = td.default_tolerances().replace(rep=1e-30)
        with pytest.raises(NumericFailure, match="intertwiner verification failed"):
            td.intertwiner(explicit_taus[1], explicit_taus[1], tol)


def heisenberg(n):
    """C_n x C_n with alpha((a,b),(c,d)) = z^(b c), z = exp(2 pi i / n): one irreducible, of dimension n."""
    G = td.direct_product(td.cyclic(n), td.cyclic(n))
    x, y = np.divmod(np.arange(G.order), n)
    return G, td.make_cocycle(G, n, np.outer(y, x) % n)


def trivially(make):
    def build():
        G = make()
        return G, td.trivial_cocycle(G)
    return build


SPLIT_CASES = {
    **{f"D{2 * n}": trivially(lambda n=n: td.dihedral(n)) for n in range(1, 17)},
    **{f"D{2 * n} alpha": lambda n=n: (td.dihedral(n), td.dihedral_alpha(n)) for n in range(2, 17, 2)},
    "S4": trivially(lambda: symmetric(4)),
    "Q8": trivially(lambda: quaternion(8)),
    "C2xD8": trivially(lambda: c2_times_dihedral(4)),
    "C2xD8 alpha": c2_x_d8_alpha,
    **{f"C{n}xC{n} heisenberg": lambda n=n: heisenberg(n) for n in (2, 3, 5, 8)},
}


class TestSplit:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_eigenspaces_are_invariant(self, n):
        G, alpha = td.dihedral(n), td.dihedral_alpha(n)
        V, clusters = reps._split_regular(G, alpha, alpha.complex_table, seed=0)
        reg = oracles.regular_rep(G, alpha).matrices
        assert sorted(c.size for c in clusters) == [2] * n
        for idx in clusters:
            B = V[:, idx]
            for g in range(G.order):
                moved = reg[g] @ B
                assert np.allclose(B @ (B.conj().T @ moved), moved, atol=1e-10)

    @pytest.mark.parametrize("name", SPLIT_CASES)
    def test_block_characters_are_traces(self, name):
        G, alpha = SPLIT_CASES[name]()
        V, clusters = reps._split_regular(G, alpha, alpha.complex_table, seed=0)
        phi = reps._conjugation_weights(G, alpha.complex_table)
        chars = reps._block_characters(V, clusters, G.identity, phi)
        reg = oracles.regular_rep(G, alpha).matrices
        for idx, chi in zip(clusters, chars):
            compressed = V[:, idx].conj().T @ reg @ V[:, idx]
            assert np.allclose(np.trace(compressed, axis1=1, axis2=2), chi, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", SPLIT_CASES)
    def test_block_matrices_are_compressions(self, name):
        """The generator-product route (exact) and full compression (numeric) agree with B^H rho_reg B."""
        G, alpha = SPLIT_CASES[name]()
        V, clusters = reps._split_regular(G, alpha, alpha.complex_table, seed=0)
        reg = oracles.regular_rep(G, alpha).matrices
        for d in {idx.size for idx in clusters}:
            B = np.stack([V[:, idx] for idx in clusters if idx.size == d])
            want = B.conj().transpose(0, 2, 1)[:, None] @ reg @ B[:, None]
            for cocycle in (alpha, numeric_copy(alpha)):
                got = reps._block_matrices(G, cocycle, cocycle.complex_table, B)
                assert np.allclose(got, want, rtol=0, atol=1e-12), (d, cocycle.is_exact)

    @pytest.mark.parametrize("name", SPLIT_CASES)
    def test_characters_are_traces_of_the_built_matrices(self, name):
        G, alpha = SPLIT_CASES[name]()
        for cocycle in (alpha, numeric_copy(alpha)):
            table = td.irreducibles(G, cocycle)
            traces = [np.trace(rep.matrices, axis1=1, axis2=2) for rep in table.irreducibles]
            assert np.max(np.abs(table.character_values - traces)) <= 1e-12

    @pytest.mark.parametrize("name", SPLIT_CASES)
    def test_every_entry_is_a_representation(self, name):
        G, alpha = SPLIT_CASES[name]()
        for cocycle in (alpha, numeric_copy(alpha)):
            for rep in td.irreducibles(G, cocycle).irreducibles:
                assert not oracles.rep_violations_by_element(rep)


@pytest.fixture
def builds(monkeypatch):
    """(name, group order) of every _block_matrices and _relation_residuals call."""
    calls = []
    for name in ("_block_matrices", "_relation_residuals"):
        def counted(G, *args, name=name, honest=getattr(reps, name)):
            calls.append((name, G.order))
            return honest(G, *args)

        monkeypatch.setattr(reps, name, counted)
    return calls


class TestDeferredMatrices:
    """A table's characters need no matrices: they are built on the first read of irreducibles."""

    def test_irreducibles_builds_none(self, builds):
        G, alpha = td.dihedral(8), td.dihedral_alpha(8)
        table = td.irreducibles(G, alpha)
        table.multiplicities(table.character_values, td.default_tolerances().char)
        assert (len(table), table.dims) == (4, (2, 2, 2, 2))
        assert [c.dim for c in table.characters] == [2, 2, 2, 2]
        assert builds == [] and "_product_plan" not in vars(G)
        mats = [rep.matrices for rep in table.irreducibles]
        assert builds == [("_block_matrices", 16), ("_relation_residuals", 16)]
        assert "_product_plan" in vars(G)
        again = td.irreducibles(G, alpha).irreducibles
        assert len(builds) == 2
        assert all(r.matrices is m for r, m in zip(again, mats))

    def test_point_decomposition_builds_none_for_g(self, builds):
        G, alpha = td.dihedral(8), td.dihedral_alpha(8)
        td.verify_point_decomposition(G, td.subgroup_closure(G, [2]), alpha)
        assert builds and all(order < G.order for _, order in builds)

    @pytest.mark.parametrize("name", ["D8 alpha", "S4", "C2xD8 alpha", "C3xC3 heisenberg"])
    def test_matrices_equal_an_eager_build(self, name):
        """Bit for bit: one _block_matrices call per dimension on the split's bases."""
        G, alpha = SPLIT_CASES[name]()
        for cocycle in (alpha, numeric_copy(alpha)):
            V, clusters = reps._split_regular(G, cocycle, cocycle.complex_table, seed=0)
            table = assemble(G, cocycle, V, clusters)
            phi = reps._conjugation_weights(G, cocycle.complex_table)
            firsts, _ = reps._character_classes(
                reps._block_characters(V, clusters, G.identity, phi), td.default_tolerances().char)
            eager = []
            for d in sorted({clusters[c].size for c in firsts}):
                B = np.stack([V[:, clusters[c]] for c in firsts if clusters[c].size == d])
                eager.extend(reps._block_matrices(G, cocycle, cocycle.complex_table, B))
            order = reps._table_order(
                np.array([np.trace(m, axis1=1, axis2=2) for m in eager]), G.identity)
            for rep, i in zip(table.irreducibles, order):
                assert rep.matrices.tobytes() == eager[i].tobytes()


def pulled_back_alpha(G, n):
    """dihedral_alpha(n) pulled back to G = H x D_2n along the projection on the second factor."""
    alpha = td.dihedral_alpha(n)
    to_d = np.arange(G.order) % alpha.group.order
    return G, td.make_cocycle(G, alpha.order, alpha.exponents[np.ix_(to_d, to_d)])


def s4_from_perm_file():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s4.perm"
        path.write_text("perm: degree=4\n(0 1)\n(0 1 2 3)\n")
        G = parse_group_spec(f"perm:{path}")
    return G, td.trivial_cocycle(G)


def orbit_beta():
    """The numeric beta on D_8 of C_2 x D_8 under the pulled-back dihedral_alpha(4), with A = C_2."""
    G, alpha = c2_x_d8_alpha()
    A = td.subgroup_closure(G, [8])
    datum = td.orbit_data(td.action_table(G, A, alpha), alpha)[0]
    return datum.beta.group, datum.beta


def coboundary_twist(n, seed=0):
    """dihedral_alpha(n) times the coboundary of a random f: D_2n -> Z/K, an exact cocycle."""
    alpha = td.dihedral_alpha(n)
    G, K = alpha.group, alpha.order * 3
    f = np.random.default_rng(seed).integers(K, size=G.order)
    f[G.identity] = 0
    return G, td.make_cocycle(G, K, 3 * alpha.exponents + f[:, None] + f[None, :] - f[G.mul])


def numeric_wrap_at_minus_one(n=6, seed=0):
    """A numeric coboundary on D_2n whose cosets of <c> wrap at -1, one moved by +1e-12 rad, one by -1e-12.

    The two wrap phases then lie on either side of the branch cut of the
    angle, and both must still take the same m-th root.
    """
    G = td.dihedral(n)
    c, P = G._cyclic_cosets
    f = np.exp(2j * np.pi * np.random.default_rng(seed).random(G.order))
    f[G.identity] = 1.0
    f[c] = np.exp(1j * np.pi / P.shape[1])
    table = np.outer(f, f) / f[G.mul]
    table[c, P[0, 1]] *= np.exp(-1e-12j)
    table[c, P[1, 0]] *= np.exp(1e-12j)
    return G, td.make_numeric_cocycle(G, table)


def relabelled(n=6, seed=0):
    """dihedral_alpha(n) on D_2n renumbered by a random permutation, so the identity is not index 0."""
    alpha = td.dihedral_alpha(n)
    G = alpha.group
    perm = np.random.default_rng(seed).permutation(G.order)
    mul, inv, expo = np.empty_like(G.mul), np.empty_like(G.inv), np.empty_like(alpha.exponents)
    mul[np.ix_(perm, perm)] = perm[G.mul]
    inv[perm] = perm[G.inv]
    expo[np.ix_(perm, perm)] = alpha.exponents
    labels = tuple(G.labels[g] for g in np.argsort(perm))
    H = td.FiniteGroup(order=G.order, mul=mul, inv=inv, labels=labels, identity=int(perm[G.identity]))
    return H, td.make_cocycle(H, alpha.order, expo)


BLOCKED_CASES = {
    **{f"D{2 * n}": trivially(lambda n=n: td.dihedral(n)) for n in range(1, 13)},
    **{f"D{2 * n} alpha": lambda n=n: (td.dihedral(n), td.dihedral_alpha(n)) for n in range(2, 13, 2)},
    "trivial group": trivially(td.trivial_group),
    "C12": trivially(lambda: td.cyclic(12)),
    "C2^3": trivially(lambda: td.direct_product(td.cyclic(2), td.direct_product(td.cyclic(2), td.cyclic(2)))),
    "S4 perm": s4_from_perm_file,
    "C8xD16 1 x alpha": lambda: pulled_back_alpha(td.direct_product(td.cyclic(8), td.dihedral(8)), 8),
    "numeric beta": orbit_beta,
    "D12 alpha coboundary": lambda: coboundary_twist(6),
    "D12 numeric wrap -1": numeric_wrap_at_minus_one,
    "D12 alpha relabelled": relabelled,
}


class TestBlockedSplit:
    """The blocked eigh against one dense eigh of the same commutant element (tests/oracles.py)."""

    @pytest.mark.parametrize("name", BLOCKED_CASES)
    def test_eigenpairs_of_the_commutant_element(self, name):
        G, cocycle = BLOCKED_CASES[name]()
        T, dense_w, _ = oracles.dense_split(G, cocycle, seed=0)
        w, V = reps._commutant_eigh(G, cocycle, cocycle.complex_table, seed=0)
        scale = np.max(np.abs(dense_w))
        assert np.max(np.abs(np.sort(w) - dense_w)) <= 1e-10 * scale
        assert np.max(np.abs(V.conj().T @ V - np.eye(G.order))) <= 1e-12
        assert np.max(np.abs(T @ V - V * w)) <= 1e-10 * scale

    @pytest.mark.parametrize("name", BLOCKED_CASES)
    def test_characters_equal_the_dense_route(self, name):
        G, cocycle = BLOCKED_CASES[name]()
        _, w, V = oracles.dense_split(G, cocycle, seed=0)
        want = assemble(G, cocycle, V, reps._cluster_sorted(w))
        got = td.irreducibles(G, cocycle, seed=0)
        assert got.dims == want.dims
        diff = np.max(np.abs(got.character_values - want.character_values))
        assert diff <= td.default_tolerances().char

    def test_wraps_straddle_the_branch_cut(self):
        G, beta = numeric_wrap_at_minus_one()
        c, P = G._cyclic_cosets
        wraps = np.prod(beta.complex_table[c, P], axis=1)
        assert np.allclose(wraps, -1, rtol=0, atol=1e-10)
        assert np.any(wraps.imag > 0) and np.any(wraps.imag < 0)

    def test_relabelled_identity_is_not_index_0(self):
        G, _ = relabelled(6)
        assert G.identity != 0 and G._cyclic_cosets[1].shape == (2, 6)

    def test_cases_cover_one_coset_and_many(self):
        shapes = {name: BLOCKED_CASES[name]()[0]._cyclic_cosets[1].shape
                  for name in ("trivial group", "C12", "C2^3", "S4 perm", "C8xD16 1 x alpha")}
        assert shapes == {"trivial group": (1, 1), "C12": (1, 12), "C2^3": (4, 2),
                          "S4 perm": (6, 4), "C8xD16 1 x alpha": (16, 8)}


def wrap_corrupted(G):
    """dihedral_alpha(4) on G, built without validation, with alpha(c, x) moved for one x off <c>."""
    alpha = td.dihedral_alpha(4)
    c, P = G._cyclic_cosets
    expo = np.array(alpha.exponents)
    expo[c, P[1, 0]] += 1
    return td.Cocycle(group=G, order=alpha.order, exponents=expo)


class TestWrapExponent:
    def test_corrupted_wrap_raises_invalid_cocycle(self, d8):
        with pytest.raises(InvalidCocycle, match="wrap with exponents"):
            td.irreducibles(d8, wrap_corrupted(d8))

    def test_corrupted_wrap_exit_code(self, monkeypatch, capsys):
        import twistdecomp.cli as cli_mod

        monkeypatch.setattr(cli_mod.fileio, "parse_cocycle_spec", lambda spec, G: wrap_corrupted(G))
        assert cli_mod.main(["irr", "dihedral:4", "dihedral_alpha:4"]) == cli_mod.EXIT_INPUT == 2
        assert "wrap with exponents" in capsys.readouterr().err


def worst_relation_residual(rep):
    """max |rho(g) rho(h) - alpha(g,h) rho(gh)| over every pair, from one GEMM."""
    G, mats, ctable = rep.group, rep.matrices, rep.cocycle.complex_table
    n, d, _ = mats.shape
    products = (mats.reshape(n * d, d) @ mats.transpose(1, 0, 2).reshape(d, n * d)).reshape(n, d, n, d)
    products -= (ctable[:, :, None, None] * mats[G.mul]).transpose(0, 2, 1, 3)
    return float(np.max(np.abs(products)))


def perturbed_numeric(n, scale, seed=0):
    """dihedral_alpha(n) twisted by a random coboundary, each value moved by a phase of about scale."""
    rng = np.random.default_rng(seed)
    alpha = td.dihedral_alpha(n)
    G = alpha.group
    f = np.exp(2j * np.pi * rng.random(G.order))
    f[G.identity] = 1.0
    noise = np.exp(1j * scale * rng.standard_normal((G.order, G.order)))
    noise[G.identity, :] = noise[:, G.identity] = 1.0
    table = alpha.complex_table * np.outer(f, f) / f[G.mul] * noise
    return G, td.make_numeric_cocycle(G, table, td.Tolerances())


class TestAccuracy:
    def test_order_512_relation_residual(self):
        G, alpha = td.dihedral(256), td.dihedral_alpha(256)
        table = td.irreducibles(G, alpha)
        mats = np.stack([rep.matrices for rep in table.irreducibles])
        gens = reps.generating_set(G)
        assert reps._relation_residuals(G, alpha.complex_table, mats, gens).max() <= 1e-11
        # every pair (g, h) on every eighth entry
        assert max(worst_relation_residual(rep) for rep in table.irreducibles[::8]) <= 1e-11

    def test_perturbed_numeric_cocycle_keeps_the_compression_residual(self):
        """Products along words would add up the cocycle defects: 3.0e-9 here, against 4.2e-10.

        The defects are about 1e-10, inside the unscaled tol.cocycle only.
        """
        G, beta = perturbed_numeric(64, 1e-10)
        table = td.irreducibles(G, beta, tol=td.Tolerances())
        assert max(worst_relation_residual(rep) for rep in table.irreducibles) <= 1e-9


def python_fingerprint(values, digits):
    return tuple(
        (round(float(v.real), digits) + 0.0, round(float(v.imag), digits) + 0.0)
        for v in values
    )


@pytest.mark.parametrize("digits", [6, 9])
def test_fingerprint_equals_python_round(digits):
    rng = np.random.default_rng(0)
    k = rng.integers(-10**10, 10**10, 512)
    halfway = (k + 0.5) / 10**digits
    halfway = halfway + rng.integers(-3, 4, 512) * np.spacing(halfway)
    samples = [
        rng.standard_normal(512) * 10 + 1j * rng.standard_normal(512),
        halfway + 1j * halfway[::-1],
        np.round(rng.standard_normal(512), digits + 1) - 1j * np.round(rng.standard_normal(512), 12),
        np.array([0.0, -0.0, 1e-17, -1e-17, 2.0, -2.0]) * (1 - 2e-16) - 1e-17j,
    ]
    for values in samples:
        assert td.AlphaCharacter(values, 0).fingerprint(digits) == python_fingerprint(values, digits)


def tuple_order(values, identity):
    chars = [td.AlphaCharacter(v, identity) for v in values]
    return sorted(range(len(chars)), key=lambda i: (chars[i].dim, chars[i].fingerprint()))


@pytest.mark.parametrize("factors", [(4, 4), (-4, 8), (-4, 16), (8, -4)])
def test_table_order_is_the_tuple_order(factors):
    """Tie-heavy products of dihedral (n) and cyclic (-n) groups, duplicated rows and
    values within ulps of a rounding half."""
    G = td.direct_product(*[td.dihedral(k) if k > 0 else td.cyclic(-k) for k in factors])
    values = np.array(td.irreducibles(G, td.trivial_cocycle(G)).character_values)
    rng = np.random.default_rng(0)
    near_half = np.array(values[rng.integers(len(values), size=len(values))])
    cols = rng.integers(1, G.order, size=len(values))
    k = rng.integers(-10**9, 10**9, size=len(values))
    halves = (k + 0.5) / 10**9
    near_half[np.arange(len(values)), cols] = halves + rng.integers(-3, 4, len(values)) * np.spacing(halves)
    rows = np.concatenate([values, values[::3], near_half])
    rows = rows[rng.permutation(len(rows))]
    assert reps._table_order(rows, G.identity).tolist() == tuple_order(rows, G.identity)
