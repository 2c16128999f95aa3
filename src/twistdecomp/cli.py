"""Command-line driver.

Exit codes: 0 success, 1 usage, 2 invalid input data, 3 decomposition
assertion failure, 4 K-group rank mismatch, 5 internal numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import fileio, report as report_mod
from .config import Tolerances, default_tolerances
from .decomposition import action_table, orbit_data, verify_point_decomposition
from .errors import (
    DecompositionFailure,
    InputError,
    NumericFailure,
    RankMismatch,
    TwistError,
    UnknownSuite,
)
from .groups import center, normal_subgroups
from .kgroups import (
    pullback_to_group,
    random_gset,
    verify_gset_decomposition,
)
from .reps import irreducibles

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_DECOMP = 3
EXIT_RANK = 4
EXIT_NUMERIC = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _tolerances(args) -> Tolerances:
    tol = default_tolerances()
    names = {f.name for f in dataclasses.fields(Tolerances)}
    for item in args.tol or []:
        name, sep, value = item.partition("=")
        if not sep or name not in names:
            raise InputError(f"bad tolerance override {item!r}; known: {sorted(names)}")
        tol = tol.replace(**{name: float(value)})
    return tol


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(parser: argparse.ArgumentParser, after_command: bool) -> None:
    # flags are accepted both before and after the subcommand; the
    # subcommand copies use SUPPRESS so they never clobber earlier values
    suppress = argparse.SUPPRESS
    parser.add_argument("--seed", type=int,
                        default=suppress if after_command else 0)
    parser.add_argument("--format", choices=("text", "json"),
                        default=suppress if after_command else "text")
    parser.add_argument("--output",
                        default=suppress if after_command else None,
                        help="write output to a file")
    parser.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        default=suppress if after_command else None,
                        help="override one tolerance (repeatable)")


def build_parser() -> _Parser:
    parser = _Parser(prog="twistdecomp")
    _add_common(parser, after_command=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        _add_common(p, after_command=True)
        return p

    p = command("group", "inspect a group spec")
    p.add_argument("group")

    p = command("irr", "irreducible projective representations")
    p.add_argument("group")
    p.add_argument("cocycle")
    p.add_argument("--matrices", action="store_true", help="include matrices in JSON")

    p = command("decompose", "orbit decomposition at a point")
    p.add_argument("group")
    p.add_argument("cocycle")
    p.add_argument("--A", required=True, dest="subgroup",
                   help="generators of the normal subgroup (words or indices)")

    p = command("kgset", "K-group decomposition over a finite G-set")
    p.add_argument("group")
    p.add_argument("cocycle")
    p.add_argument("gset", help="G-set file")
    p.add_argument("--A", required=True, dest="subgroup")

    p = command("verify", "run a named invariant suite")
    p.add_argument("suite")
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--group", default=None)
    p.add_argument("--cocycle", default=None)
    p.add_argument("--A", dest="subgroup", default=None)
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--max-size", type=int, default=6)
    return parser


def cmd_group(args, tol) -> int:
    G = fileio.parse_group_spec(args.group)
    z = center(G)
    normals = normal_subgroups(G, max_order=64)
    if args.format == "json":
        payload = {
            "schema": report_mod.SCHEMA_VERSION,
            "order": G.order,
            "labels": list(G.labels),
            "center": {"order": z.order, "elements": list(z.elements)},
            "normal_subgroups": [
                {"order": h.order, "elements": list(h.elements)} for h in normals
            ],
        }
        _emit(args, report_mod.to_json(payload))
    else:
        lines = [f"order: {G.order}"]
        lines.append("elements: " + ", ".join(G.labels))
        lines.append(
            f"center: order {z.order} {{{', '.join(G.labels[g] for g in z.elements)}}}"
        )
        lines.append("normal subgroups (order <= 64):")
        for h in normals:
            lines.append(
                f"  order {h.order}: {{{', '.join(G.labels[g] for g in h.elements)}}}"
            )
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_irr(args, tol) -> int:
    G = fileio.parse_group_spec(args.group)
    alpha = fileio.parse_cocycle_spec(args.cocycle, G)
    table = irreducibles(G, alpha, seed=args.seed, tol=tol)
    if args.format == "json":
        payload = {"schema": report_mod.SCHEMA_VERSION, "seed": args.seed}
        payload.update(report_mod.irr_table_payload(table, include_matrices=args.matrices))
        _emit(args, report_mod.to_json(payload))
    else:
        _emit(args, report_mod.irr_table_text(table))
    return EXIT_OK


def cmd_decompose(args, tol) -> int:
    G = fileio.parse_group_spec(args.group)
    alpha = fileio.parse_cocycle_spec(args.cocycle, G)
    A = fileio.parse_subgroup_spec(args.subgroup, G)
    rep = verify_point_decomposition(G, A, alpha, seed=args.seed, tol=tol)
    if args.format == "json":
        _emit(args, report_mod.to_json(report_mod.decomposition_payload(rep)))
    else:
        _emit(args, report_mod.decomposition_text(rep))
    return EXIT_OK


def cmd_kgset(args, tol) -> int:
    G = fileio.parse_group_spec(args.group)
    alpha = fileio.parse_cocycle_spec(args.cocycle, G)
    A = fileio.parse_subgroup_spec(args.subgroup, G)
    x = fileio.load_gset_file(args.gset, G)
    rep = verify_gset_decomposition(G, A, alpha, x, seed=args.seed, tol=tol)
    if args.format == "json":
        _emit(args, report_mod.to_json(report_mod.gset_report_payload(rep)))
    else:
        _emit(args, report_mod.gset_report_text(rep))
    return EXIT_OK


def _suite_dihedral_family(args, tol):
    from .cocycles import dihedral_alpha
    from .groups import dihedral, subgroup_closure

    for n in range(2, args.max_n + 1, 2):
        G = dihedral(n)
        A = subgroup_closure(G, [1]) if n > 1 else subgroup_closure(G, [])
        rep = verify_point_decomposition(G, A, dihedral_alpha(n), seed=args.seed, tol=tol)
        ok = (
            len(rep.orbits) == n // 2
            and all(len(d.members) == 2 for d in rep.orbits)
            and all(d.q_group.order == 1 for d in rep.orbits)
            and rep.rank_ok
            and rep.rank_lhs == n // 2
        )
        yield f"dihedral:{n} A=<a>", ok


def _suite_sum_of_squares(args, tol):
    if not args.group or not args.cocycle:
        raise InputError("sum-of-squares needs --group and --cocycle")
    G = fileio.parse_group_spec(args.group)
    alpha = fileio.parse_cocycle_spec(args.cocycle, G)
    table = irreducibles(G, alpha, seed=args.seed, tol=tol)
    total = sum(d * d for d in table.dims)
    label = f"{G.order} = " + "+".join(str(d * d) for d in table.dims)
    yield label, total == G.order


def _suite_action_laws(args, tol):
    if not args.group or not args.cocycle or args.subgroup is None:
        raise InputError("action-laws needs --group, --A and --cocycle")
    G = fileio.parse_group_spec(args.group)
    alpha = fileio.parse_cocycle_spec(args.cocycle, G)
    A = fileio.parse_subgroup_spec(args.subgroup, G)
    action = action_table(G, A, alpha, seed=args.seed, tol=tol)  # certifies and checks the laws
    orbit_data(action, alpha, tol=tol)  # checks M families and the induced cocycle identity
    yield f"action-laws |G|={G.order} |A|={A.order}", True


def _standard_configs():
    from .cocycles import dihedral_alpha
    from .groups import dihedral, subgroup_closure

    d8 = dihedral(4)
    yield d8, subgroup_closure(d8, [1]), dihedral_alpha(4)
    yield d8, subgroup_closure(d8, [2]), dihedral_alpha(4)
    for n in (2, 6, 8):
        g = dihedral(n)
        yield g, subgroup_closure(g, [1]), dihedral_alpha(n)


def _suite_random_gsets(args, tol):
    from .groups import quotient_with_section

    rng = np.random.default_rng(args.seed)
    configs = list(_standard_configs())
    for case in range(args.cases):
        G, A, alpha = configs[case % len(configs)]
        qs = quotient_with_section(G, A)
        xq = random_gset(qs.quotient, args.max_size, rng)
        x = pullback_to_group(xq, G, qs.projection)
        rep = verify_gset_decomposition(G, A, alpha, x, seed=args.seed, tol=tol)
        yield f"case {case}: |G|={G.order} |A|={A.order} |X|={x.size}", rep.ok


_SUITES = {
    "dihedral-family": _suite_dihedral_family,
    "sum-of-squares": _suite_sum_of_squares,
    "action-laws": _suite_action_laws,
    "random-gsets": _suite_random_gsets,
}


def cmd_verify(args, tol) -> int:
    if args.suite not in _SUITES:
        raise UnknownSuite(f"unknown suite {args.suite!r}; known: {sorted(_SUITES)}")
    rows = list(_SUITES[args.suite](args, tol))
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in rows]
    all_ok = all(ok for _, ok in rows)
    lines.append(f"{args.suite}: {'all pass' if all_ok else 'FAILURES PRESENT'}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_DECOMP


_COMMANDS = {
    "group": cmd_group,
    "irr": cmd_irr,
    "decompose": cmd_decompose,
    "kgset": cmd_kgset,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        tol = _tolerances(args)
        return _COMMANDS[args.command](args, tol)
    except RankMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANK
    except DecompositionFailure as exc:
        diag = {"error": type(exc).__name__, "detail": str(exc)}
        print(json.dumps(diag, sort_keys=True), file=sys.stderr)
        return EXIT_DECOMP
    except NumericFailure as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if getattr(exc, "report", None) is not None:
            for violation in exc.report.violations[:20]:
                print(f"  violated: {violation}", file=sys.stderr)
        return EXIT_INPUT
    except TwistError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (AssertionError, np.linalg.LinAlgError) as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
