import json

import numpy as np
import pytest

import twistdecomp as td
from twistdecomp import fileio
from twistdecomp.cli import main
from twistdecomp.errors import InputError, ParseError
from twistdecomp.fileio import (
    load_cocycle_file,
    load_group_file,
    load_gset_file,
    parse_cycles,
    parse_element_word,
    parse_group_spec,
    parse_subgroup_spec,
)

from oracles import brute_isomorphic


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestGroupFiles:
    def test_table_format(self, tmp_path, d8):
        rows = "\n".join(" ".join(str(x) for x in row) for row in np.array(d8.mul))
        path = write(tmp_path, "d8.grp", f"table:\n{rows}\n")
        G = load_group_file(path)
        assert brute_isomorphic(G, d8)

    def test_perm_format(self, tmp_path):
        path = write(tmp_path, "d8.perm", "perm: degree=4\n(0 1 2 3)\n(0 3)(1 2)\n")
        G = load_group_file(path)
        assert G.order == 8
        assert brute_isomorphic(G, td.dihedral(4))

    def test_comments_and_blanks_tolerated(self, tmp_path):
        path = write(tmp_path, "z2.grp", "# a comment\ntable:\n\n0 1\n1 0\n")
        assert load_group_file(path).order == 2

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "bad.grp", "matrix:\n0\n")
        with pytest.raises(ParseError):
            load_group_file(path)

    def test_non_square_table(self, tmp_path):
        path = write(tmp_path, "bad.grp", "table:\n0 1\n")
        with pytest.raises(ParseError):
            load_group_file(path)

    def test_parse_cycles(self):
        assert parse_cycles("(0 1 2)(3 4)", 5) == (1, 2, 0, 4, 3)
        assert parse_cycles("()", 3) == (0, 1, 2)
        with pytest.raises(ParseError):
            parse_cycles("(0 7)", 3)
        for text, point in (("(0 1 2)(0 1 2)", 0), ("(0 1)(1 2)", 1)):
            with pytest.raises(ParseError, match=f"point {point} appears in more than one cycle"):
                parse_cycles(text, 3)

    def test_group_specs(self):
        assert parse_group_spec("dihedral:3").order == 6
        assert parse_group_spec("cyclic:5").order == 5
        with pytest.raises(ParseError):
            parse_group_spec("sporadic:1")


class TestCocycleFiles:
    def test_round_trip(self, tmp_path, d8, alpha4):
        lines = [f"order K=4 group=dihedral:4"]
        for g in range(8):
            for h in range(8):
                e = int(alpha4.exponents[g, h])
                if e:
                    lines.append(f"{g} {h} {e}")
        path = write(tmp_path, "alpha.coc", "\n".join(lines) + "\n")
        group, alpha = load_cocycle_file(path)
        assert group.same_table(d8)
        assert np.array_equal(alpha.exponents, alpha4.exponents)

    def test_missing_pairs_default_to_zero(self, tmp_path):
        path = write(tmp_path, "triv.coc", "order K=3 group=cyclic:2\n")
        _, alpha = load_cocycle_file(path)
        assert alpha.is_trivial()

    def test_invalid_entries_rejected(self, tmp_path):
        from twistdecomp.errors import InvalidCocycle

        path = write(tmp_path, "bad.coc", "order K=4 group=cyclic:2\n0 1 2\n")
        with pytest.raises(InvalidCocycle):
            load_cocycle_file(path)  # breaks normalization

    def test_order_zero_rejected_at_the_header(self, tmp_path, capsys):
        path = write(tmp_path, "zero.coc", "order K=0 group=dihedral:4\n1 4 1\n")
        with pytest.raises(ParseError, match="line 1: the cocycle order K must be at least 1"):
            load_cocycle_file(path)
        assert main(["irr", "dihedral:4", path]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_huge_order_needs_no_memory_of_its_size(self, tmp_path, capsys):
        base = td.dihedral_alpha(4)
        K = 10**12
        entries = "".join(f"{g} {h} {base.exponents[g, h] * (K // base.order)}\n"
                          for g, h in np.argwhere(base.exponents))
        path = write(tmp_path, "huge.coc", f"order K={K} group=dihedral:4\n{entries}")
        G, alpha = load_cocycle_file(path)
        assert alpha.order == K and alpha._roots is None
        table = td.irreducibles(G, alpha)
        expected = td.irreducibles(base.group, base)
        assert np.allclose(table.character_values, expected.character_values)
        for argv in (["irr", "dihedral:4", path], ["decompose", "dihedral:4", path, "--A", "a"]):
            assert main(argv) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_group_file_reference_relative(self, tmp_path, d8):
        rows = "\n".join(" ".join(str(x) for x in row) for row in np.array(d8.mul))
        write(tmp_path, "dd.grp", f"table:\n{rows}\n")
        path = write(tmp_path, "a.coc", "order K=1 group=table:dd.grp\n")
        group, alpha = load_cocycle_file(path)
        assert group.order == 8


class TestWordsAndSubgroups:
    def test_words(self, d8):
        assert parse_element_word("a2", d8) == 2
        assert parse_element_word("a^2 b", d8) == 6
        assert parse_element_word("ab", d8) == 5
        assert parse_element_word("b", d8) == 4
        assert parse_element_word("1", d8) == 0
        assert parse_element_word("6", d8) == 6

    def test_subgroup_specs(self, d8):
        assert parse_subgroup_spec("a", d8).elements == (0, 1, 2, 3)
        assert parse_subgroup_spec("a2", d8).elements == (0, 2)
        assert parse_subgroup_spec("a2,b", d8).elements == (0, 2, 4, 6)
        assert parse_subgroup_spec("trivial", d8).order == 1
        assert parse_subgroup_spec("all", d8).order == 8

    def test_huge_exponents_reduce_mod_the_element_order(self, d8):
        assert parse_element_word("a^1000000000", d8) == 0
        assert parse_element_word("a^1000000001 b", d8) == 5

    def test_bad_word(self, d8):
        with pytest.raises(ParseError):
            parse_element_word("x3", d8)

    def test_numeric_labels_resolve_as_indices(self, d8):
        # a table-format group gets labels "0".."7": "1" must mean index 1
        table_group = td.from_multiplication_table(np.array(d8.mul))
        assert parse_element_word("1", table_group) == 1
        assert parse_subgroup_spec("1,4", table_group).order == 8


class TestGSetFiles:
    def test_generators_complete_action(self, tmp_path, d8):
        path = write(tmp_path, "x.gset", "points=2\na: 0 1\nb: 1 0\n")
        x = load_gset_file(path, d8)
        assert x.size == 2
        assert x.apply(4, 0) == 1

    def test_non_generating_set_rejected(self, tmp_path, d8):
        path = write(tmp_path, "x.gset", "points=2\na: 0 1\n")
        with pytest.raises(ParseError):
            load_gset_file(path, d8)

    def test_inconsistent_images_rejected(self, tmp_path, d8):
        path = write(tmp_path, "x.gset",
                     "points=2\na: 0 1\nb: 1 0\na^2 b: 0 1\n")
        with pytest.raises(ParseError):
            load_gset_file(path, d8)


class TestCli:
    def test_group_text(self, capsys):
        assert main(["group", "dihedral:4"]) == 0
        out = capsys.readouterr().out
        assert "order: 8" in out
        assert "center: order 2" in out

    def test_group_dihedral1(self, capsys):
        assert main(["group", "dihedral:1"]) == 0
        assert "order: 2" in capsys.readouterr().out

    def test_irr_counts(self, capsys):
        assert main(["irr", "dihedral:4", "dihedral_alpha:4"]) == 0
        assert "irreducibles: 2" in capsys.readouterr().out
        assert main(["irr", "dihedral:6", "dihedral_alpha:6"]) == 0
        assert "irreducibles: 3" in capsys.readouterr().out
        assert main(["irr", "dihedral:4", "trivial"]) == 0
        assert "dims: 1, 1, 1, 1, 2" in capsys.readouterr().out

    def test_negative_seed_is_an_input_error(self, capsys):
        assert main(["irr", "dihedral:4", "dihedral_alpha:4", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"

    def test_irr_json_matrices(self, capsys):
        assert main(["--format=json", "irr", "cyclic:3", "trivial", "--matrices"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["dims"] == [1, 1, 1]
        assert "matrices" in payload["irreducibles"][0]

    def test_decompose_examples(self, capsys):
        assert main(["decompose", "dihedral:4", "--A=a", "dihedral_alpha:4"]) == 0
        out = capsys.readouterr().out
        assert "rank check: 2 = 1 + 1  OK" in out
        assert main(["decompose", "dihedral:4", "--A=a2", "dihedral_alpha:4"]) == 0
        out = capsys.readouterr().out
        assert "quotient order 2" in out and "rank check: 2 = 2  OK" in out
        assert main(["decompose", "dihedral:8", "--A=a", "dihedral_alpha:8"]) == 0
        out = capsys.readouterr().out
        assert out.count("size 2") == 4

    def test_kgset_command(self, tmp_path, capsys):
        path = write(tmp_path, "x.gset", "points=2\na: 0 1\nb: 1 0\n")
        code = main(["kgset", "dihedral:4", "dihedral_alpha:4", path, "--A=a2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_kgset_empty(self, tmp_path, capsys):
        path = write(tmp_path, "e.gset", "points=0\na: \nb: \n")
        code = main(["kgset", "dihedral:4", "dihedral_alpha:4", path, "--A=a2"])
        assert code == 0
        assert "direct rank: 0" in capsys.readouterr().out

    def test_verify_suites(self, capsys):
        assert main(["verify", "dihedral-family", "--max-n=6"]) == 0
        assert main(["verify", "sum-of-squares", "--group=dihedral:6",
                     "--cocycle=trivial"]) == 0
        assert "12 = 1+1+1+1+4+4" in capsys.readouterr().out
        assert main(["verify", "action-laws", "--group=dihedral:4", "--A=a",
                     "--cocycle=dihedral_alpha:4"]) == 0

    def test_exit_codes(self, capsys, tmp_path):
        assert main(["nonsense"]) == 1                       # usage
        assert main(["group", "sporadic:1"]) == 2            # invalid input
        assert main(["verify", "unknown-suite"]) == 2        # unknown suite
        # invalid cocycle file: exit 2 with a violation report on stderr
        bad = write(tmp_path, "bad.coc", "order K=4 group=dihedral:4\n0 0 1\n")
        assert main(["irr", "dihedral:4", bad]) == 2
        err = capsys.readouterr().err
        assert "violated" in err

    def test_a_not_normal_rejected(self, capsys):
        assert main(["decompose", "dihedral:4", "--A=b", "dihedral_alpha:4"]) == 2

    def test_tol_overrides(self, capsys):
        assert main(["--tol", "char=1e-5", "irr", "cyclic:2", "trivial"]) == 0
        assert main(["--tol", "bogus=1", "irr", "cyclic:2", "trivial"]) == 2
        assert main(["--tol", "char=-1", "irr", "cyclic:2", "trivial"]) == 2
        # a NaN or infinite tolerance would pass every check it enters
        for bad in ("char=nan", "scalar=inf"):
            assert main(["--tol", bad, "decompose", "dihedral:4", "dihedral_alpha:4",
                         "--A", "a"]) == 2

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["--format=json", "--output", str(out),
                     "decompose", "dihedral:4", "--A=a2", "dihedral_alpha:4"]) == 0
        payload = json.loads(out.read_text())
        assert payload["rank"]["ok"] is True

    def test_cocycle_group_mismatch(self, capsys):
        assert main(["irr", "cyclic:4", "dihedral_alpha:4"]) == 2

    def test_env_tol_scale(self, monkeypatch, capsys):
        monkeypatch.setenv("TWISTDECOMP_TOL_SCALE", "10")
        assert main(["irr", "dihedral:4", "dihedral_alpha:4"]) == 0
        for bad in ("oops", "inf", "nan"):
            monkeypatch.setenv("TWISTDECOMP_TOL_SCALE", bad)
            assert main(["decompose", "dihedral:4", "dihedral_alpha:4", "--A", "a"]) == 2

    def test_flags_accepted_after_subcommand(self, capsys):
        assert main(["irr", "cyclic:3", "trivial", "--format=json", "--seed=1"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 1

    def test_group_from_table_file_matches_builtin(self, tmp_path, capsys, d8):
        rows = "\n".join(" ".join(str(x) for x in row) for row in np.array(d8.mul))
        path = write(tmp_path, "d8.grp", f"table:\n{rows}\n")
        assert main(["--format=json", "group", f"table:{path}"]) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert main(["--format=json", "group", "dihedral:4"]) == 0
        builtin = json.loads(capsys.readouterr().out)
        assert from_file["order"] == builtin["order"]
        assert from_file["center"]["order"] == builtin["center"]["order"]
        assert (
            sorted(h["order"] for h in from_file["normal_subgroups"])
            == sorted(h["order"] for h in builtin["normal_subgroups"])
        )

    def test_verify_random_gsets_cli(self, capsys):
        assert main(["verify", "random-gsets", "--cases=4"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    def test_verify_random_gsets_negative_seed(self, capsys):
        assert main(["verify", "random-gsets", "--cases=1", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"

    def test_group_spec_above_the_cap_fails_before_the_build(self, monkeypatch, capsys):
        def never(n):
            raise AssertionError(f"built a group for n={n}")

        for module in (td.groups, fileio):
            monkeypatch.setattr(module, "dihedral", never)
            monkeypatch.setattr(module, "cyclic", never)
        assert main(["irr", "dihedral:50000", "trivial"]) == 2
        assert capsys.readouterr().err == ("error: group dihedral:50000 has order 100000, "
                                           "above the cap of 10000 elements\n")
        with pytest.raises(InputError, match="order 10001, above the cap"):
            parse_group_spec("cyclic:10001")
        with pytest.raises(InputError, match="order 10002, above the cap"):
            parse_group_spec("dihedral:5001")
        monkeypatch.setattr(fileio, "cyclic", lambda n: ("cyclic", n))
        assert parse_group_spec("cyclic:10000") == ("cyclic", 10000)    # the cap itself is allowed

    def test_dihedral_alpha_of_another_order_fails_before_the_build(self, monkeypatch, capsys):
        def never(n):
            raise AssertionError(f"built dihedral_alpha({n})")

        monkeypatch.setattr(fileio, "dihedral_alpha", never)
        assert main(["irr", "dihedral:4", "dihedral_alpha:50000"]) == 2
        assert "dihedral_alpha:50000 is defined on dihedral:50000" in capsys.readouterr().err

    def test_dense_commands_above_the_dense_cap_fail_before_the_build(self, monkeypatch,
                                                                      capsys):
        """irr, decompose and verify sum-of-squares split the whole group, so a
        built-in spec above MAX_DENSE_ORDER fails with irreducibles' message
        before a group or cocycle is built; kgset splits only isotropy
        groups and builds its group."""
        def never(*args):
            pytest.fail(f"built {args}")

        for module in (td.groups, td.cocycles, fileio):
            for builder in ("dihedral", "cyclic", "dihedral_alpha", "trivial_cocycle"):
                if hasattr(module, builder):
                    monkeypatch.setattr(module, builder, never)
        cap = td.reps.MAX_DENSE_ORDER
        message = f"error: dense decomposition capped at order {cap}\n"
        for argv in (["irr", "dihedral:1000", "trivial"],
                     ["irr", f"cyclic:{cap + 1}", "dihedral_alpha:1000"],
                     ["decompose", f"dihedral:{cap // 2 + 1}", "trivial", "--A=a"],
                     ["verify", "sum-of-squares", "--group=dihedral:1000", "--cocycle=trivial"]):
            assert main(argv) == 2
            assert capsys.readouterr().err == message
        with pytest.raises(pytest.fail.Exception, match=rf"built \({cap // 2},\)"):
            main(["irr", f"dihedral:{cap // 2}", "trivial"])       # the cap itself is allowed
        with pytest.raises(pytest.fail.Exception, match=r"built \(1000,\)"):
            main(["kgset", "dihedral:1000", "trivial", "points.gset", "--A=a"])

    def test_order_cap_for_irreducibles(self):
        from twistdecomp.errors import InputError
        from twistdecomp.reps import irreducibles

        G = td.cyclic(600)
        with pytest.raises(InputError):
            irreducibles(G, td.trivial_cocycle(G))

    def test_kgset_json(self, tmp_path, capsys):
        path = write(tmp_path, "x.gset", "points=2\na: 0 1\nb: 1 0\n")
        code = main(["--format=json", "kgset", "dihedral:4", "dihedral_alpha:4",
                     path, "--A=a2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["direct_rank"] == sum(payload["decomposed_ranks"])

    def test_failure_exit_codes(self, monkeypatch, capsys):
        import twistdecomp.cli as cli_mod
        from twistdecomp.errors import MatchFailure, RankMismatch, SplitFailure

        def boom(exc):
            def _raise(*args, **kwargs):
                raise exc("synthetic failure")
            return _raise

        monkeypatch.setattr(cli_mod, "verify_point_decomposition", boom(MatchFailure))
        assert main(["decompose", "dihedral:4", "--A=a", "dihedral_alpha:4"]) == 3
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "MatchFailure"

        monkeypatch.setattr(cli_mod, "verify_gset_decomposition", boom(RankMismatch))
        monkeypatch.setattr(cli_mod.fileio, "load_gset_file",
                            lambda path, group: None)
        assert main(["kgset", "dihedral:4", "dihedral_alpha:4", "x", "--A=a2"]) == 4

        monkeypatch.setattr(cli_mod, "irreducibles", boom(SplitFailure))
        assert main(["irr", "dihedral:4", "dihedral_alpha:4"]) == 5
