"""Compare two source trees of twistdecomp on fixed inputs, or one tree at two seeds.

    python tools/parity.py --base OTHER_CHECKOUT/src [--head src]
    python tools/parity.py --seeds 0,1 [--head src]

With --base, each tree is imported in its own subprocess. The head tree
computes its point and K-group dumps twice in that subprocess, the second
time with the memo of certified tables warm from the first, and then its
K-group dump a third time on the second run's group and G-set objects, so
that the parts each group keeps for K-group calls are hit; the three dumps
must be identical. The script then checks, between the trees:

- for dihedral(n), n = 1..12, under the trivial cocycle and, for even n,
  dihedral_alpha(n), for S_4 under the trivial cocycle, for C_2 x D_8 and
  S_4 x D_8 under dihedral_alpha(4) pulled back from the D_8 factor, and
  every normal subgroup A, and for dihedral(24) and dihedral(64) under
  dihedral_alpha with A = <a> and <a^2>, where many orbits share one
  isotropy group, running verify_point_decomposition(seed=0)
  (the 31 normal subgroups of S_4 x D_8 give quotients of order up to 192
  and tau of dimension 1 to 6): the dimensions and characters (within
  tol.char, entry by entry in table order) of the irreducibles of
  (G, alpha) and of (A, alpha|A), and the action perm and multiplicities
  exactly. A configuration that raises must raise the same error type in
  both trees;
- for dihedral(32), dihedral(64), dihedral(128) and dihedral(256) under the
  trivial cocycle and dihedral_alpha, for D_8 x D_16 and C_4 x D_32 under the
  trivial cocycle, and for C_8 x D_16 under dihedral_alpha(8) pulled back from
  the D_16 factor, the dimensions and characters (within tol.char) of
  irreducibles alone, at seed 0: the orders at which the split is
  benchmarked, up to 256, and order 512, the dense cap;
- the beta tables up to a coboundary. A new convention for the phase of
  the M_q intertwiners may multiply beta by a coboundary df, each
  beta-character by f and so reorder a beta table. The check compares
  their dimensions and the moduli |chi| as multisets of rows, and for the
  matching the orbit and the |chi| row of the matched class;
- that the default CLI JSON of a fixed list of commands is byte-identical;
- the integer K-group outputs, exactly: on the 50 G-sets of
  `twistdecomp verify random-gsets` (seed 0, default sizes) the ranks of
  verify_gset_decomposition and phi_matrix, and on 10 seeded chains
  X -> Y -> Z of random_cover over the same configurations the three
  pullback_matrix calls (f1, f2 and the composite) under alpha and, per
  orbit datum, the pullback along f1 under the induced cocycle beta.

Representation matrices are not compared: a change of splitting algorithm
may change the basis.

With --seeds, only the head tree runs, in this process. The phase of each
M_q is fixed by traces, which do not depend on the basis of tau, so beta
must not depend on the seed. For every configuration above the script
checks that the seeds give equal beta tables (within tol.cocycle) and
identical matchings, and, for the dihedral configurations, which have a
CLI group spec, that the JSON of `twistdecomp decompose` differs only in
"seed".

Exit status 0 when everything agrees.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

CLI_COMMANDS = [
    ["irr", "dihedral:6", "dihedral_alpha:6", "--format=json"],
    ["irr", "dihedral:6", "trivial", "--format=json"],
    ["decompose", "dihedral:4", "dihedral_alpha:4", "--A=a", "--format=json"],
    ["decompose", "dihedral:4", "dihedral_alpha:4", "--A=a2", "--format=json"],
    ["decompose", "dihedral:4", "dihedral_alpha:4", "--A=all", "--format=json"],
    ["decompose", "dihedral:8", "dihedral_alpha:8", "--A=a", "--format=json"],
    ["decompose", "dihedral:6", "trivial", "--A=a2", "--format=json"],
    ["verify", "dihedral-family", "--format=json"],
    ["verify", "action-laws", "--group=dihedral:4", "--cocycle=dihedral_alpha:4", "--A=a",
     "--format=json"],
    ["verify", "random-gsets", "--format=json"],
]


def _table(table) -> dict:
    return {"dims": list(table.dims),
            "chars": [[[v.real, v.imag] for v in c.values] for c in table.characters]}


def configurations():
    """(name, CLI arguments or None, G, A, alpha) for every normal A of: dihedral(n),
    n = 1..12; S_4 under the trivial cocycle; and C_2 x D_8 and S_4 x D_8 under
    dihedral_alpha(4) pulled back from the D_8 factor. The last three have no CLI
    group spec. Then A = <a> and <a^2> of dihedral(24) and dihedral(64) under
    dihedral_alpha."""
    import numpy as np

    import twistdecomp as td
    from twistdecomp.groups import normal_subgroups

    def dihedral_case(n, name, spec, alpha, A):
        args = [f"dihedral:{n}", spec, "--A=" + ",".join(map(str, A.elements))]
        return f"dihedral:{n} {name} A={list(A.elements)}", args, alpha.group, A, alpha

    for n in range(1, 13):
        G = td.dihedral(n)
        cocycles = [("trivial", "trivial", td.trivial_cocycle(G))]
        if n % 2 == 0:
            cocycles.append(("dihedral_alpha", f"dihedral_alpha:{n}", td.dihedral_alpha(n)))
        for name, spec, alpha in cocycles:
            for A in normal_subgroups(G):
                yield dihedral_case(n, name, spec, alpha, A)
    s4 = td.from_permutation_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)])

    def pulled_back(G):
        to_d8 = np.arange(G.order) % 8
        return td.make_cocycle(G, 4, td.dihedral_alpha(4).exponents[np.ix_(to_d8, to_d8)])

    for name, alpha in (
            ("S4 trivial", td.trivial_cocycle(s4)),
            ("C2xD8 dihedral_alpha:4 pulled back",
             pulled_back(td.direct_product(td.cyclic(2), td.dihedral(4)))),
            ("S4xD8 dihedral_alpha:4 pulled back",
             pulled_back(td.direct_product(s4, td.dihedral(4))))):
        for A in normal_subgroups(alpha.group):
            yield f"{name} A={list(A.elements)}", None, alpha.group, A, alpha
    for n in (24, 64):
        alpha = td.dihedral_alpha(n)
        for generator in (1, 2):                # a, a^2
            A = td.subgroup_closure(alpha.group, [generator])
            yield dihedral_case(n, "dihedral_alpha", f"dihedral_alpha:{n}", alpha, A)


def irr_configurations():
    """(name, alpha) of the irreducibles-only configurations; alpha.group is G."""
    import numpy as np

    import twistdecomp as td

    for n in (32, 64, 128, 256):
        yield f"dihedral:{n} trivial", td.trivial_cocycle(td.dihedral(n))
        yield f"dihedral:{n} dihedral_alpha", td.dihedral_alpha(n)
    for name, G in (("D8xD16", td.direct_product(td.dihedral(4), td.dihedral(8))),
                    ("C4xD32", td.direct_product(td.cyclic(4), td.dihedral(16)))):
        yield f"{name} trivial", td.trivial_cocycle(G)
    G, alpha = td.direct_product(td.cyclic(8), td.dihedral(8)), td.dihedral_alpha(8)
    to_d16 = np.arange(G.order) % 16
    yield ("C8xD16 dihedral_alpha:8 pulled back",
           td.make_cocycle(G, alpha.order, alpha.exponents[np.ix_(to_d16, to_d16)]))


def irr_dump() -> list:
    """The irreducibles of every irreducibles-only configuration, or the error type."""
    import twistdecomp as td
    from twistdecomp.errors import TwistError

    out = []
    for name, alpha in irr_configurations():
        try:
            out.append({"case": name, "irr": _table(td.irreducibles(alpha.group, alpha, seed=0))})
        except TwistError as exc:
            out.append({"case": name, "error": type(exc).__name__})
    return out


def dump() -> list:
    """Results of every configuration in the importable twistdecomp."""
    import twistdecomp as td
    from twistdecomp.errors import TwistError

    out = []
    for name, _, G, A, alpha in configurations():
        case = {"case": name}
        try:
            rep = td.verify_point_decomposition(G, A, alpha, seed=0)
        except TwistError as exc:
            case["error"] = type(exc).__name__
        else:
            case.update(
                irr_g=_table(rep.irr_g), base=_table(rep.action.base),
                beta=[_table(t) for t in rep.beta_tables],
                perm=rep.action.perm.tolist(),
                matching=[list(m) for m in rep.matching],
                multiplicities=[list(m) for m in rep.multiplicities])
        out.append(case)
    return out


def kgroup_inputs() -> list:
    """(name, kind, arguments) of every K-group case, on new group and G-set objects."""
    import numpy as np

    from twistdecomp.cli import _standard_configs
    from twistdecomp.groups import quotient_with_section
    from twistdecomp.kgroups import all_subgroups, pullback_to_group, random_cover, random_gset

    configs = list(_standard_configs())
    out = []
    rng = np.random.default_rng(0)
    for case in range(50):
        G, A, alpha = configs[case % len(configs)]
        qs = quotient_with_section(G, A)
        x = pullback_to_group(random_gset(qs.quotient, 6, rng), G, qs.projection)
        out.append((f"gset {case}", "gset", (G, A, alpha, x)))
    for seed in range(10):
        G, A, alpha = configs[seed % len(configs)]
        qs = quotient_with_section(G, A)
        subs = all_subgroups(qs.quotient)
        chain_rng = np.random.default_rng(seed)
        zq = random_gset(qs.quotient, 4, chain_rng, subs)
        yq, f2 = random_cover(zq, chain_rng, subs)
        xq, f1 = random_cover(yq, chain_rng, subs)
        x, y, z = (pullback_to_group(s, G, qs.projection) for s in (xq, yq, zq))
        out.append((f"chain {seed}", "chain", (G, A, alpha, x, y, z, f1, f2)))
    return out


def kgroup_dump(inputs: list) -> list:
    """Integer K-group outputs of the importable twistdecomp (see the module docstring)."""
    import twistdecomp as td
    from twistdecomp.decomposition import action_table, orbit_data
    from twistdecomp.errors import TwistError
    from twistdecomp.kgroups import gset_as_quotient_action

    def gset_case(G, A, alpha, x):
        rep = td.verify_gset_decomposition(G, A, alpha, x)
        return {"ranks": [rep.lhs_rank, rep.rhs_ranks],
                "phi": td.phi_matrix(G, A, alpha, x).tolist()}

    def chain_case(G, A, alpha, x, y, z, f1, f2):
        composite = [f2[f1[p]] for p in range(x.size)]
        pulled = [td.pullback_matrix(G, alpha, f, s, t).tolist()
                  for f, s, t in ((f1, x, y), (f2, y, z), (composite, x, z))]
        beta = [td.pullback_matrix(d.q_group, d.beta, f1, gset_as_quotient_action(x, d),
                                   gset_as_quotient_action(y, d)).tolist()
                for d in orbit_data(action_table(G, A, alpha), alpha)]
        return {"pullbacks": pulled, "beta_pullbacks": beta}

    out = []
    for name, kind, args in inputs:
        try:
            out.append({"case": name, **(gset_case if kind == "gset" else chain_case)(*args)})
        except TwistError as exc:
            out.append({"case": name, "error": type(exc).__name__})
    return out


def repeated_dumps(runs: int) -> dict:
    """Every dump, computed runs times in this process, and whether all agree.

    From the second run on the memo is warm. After the last of several
    runs the K-group dump is computed once more on that run's inputs, whose
    groups then hold their K-group parts, and must agree too.
    """
    texts = []
    for _ in range(runs):
        inputs = kgroup_inputs()
        result = {"point": dump(), "irr": irr_dump(), "kgroups": kgroup_dump(inputs),
                  "validation": validation_dump()}
        texts.append(json.dumps(result))
    if runs > 1:
        texts.append(json.dumps({**result, "kgroups": kgroup_dump(inputs)}))
    return {"repeats_identical": len(set(texts)) == 1, **json.loads(texts[0])}


def _intercalates(mul, limit: int) -> list:
    """Up to limit cells r1 < r2, c1 < c2 off the identity's row and column, with
    mul[r1,c1] == mul[r2,c2] and mul[r1,c2] == mul[r2,c1]."""
    n = len(mul)
    found = []
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            for c1 in range(1, n):
                for c2 in range(c1 + 1, n):
                    if mul[r1][c1] == mul[r2][c2] and mul[r1][c2] == mul[r2][c1]:
                        found.append((r1, r2, c1, c2))
                        if len(found) == limit:
                            return found
    return found


def validation_dump() -> list:
    """Accept ("ok") or the error type, for every perturbed table of the fixed list."""
    import numpy as np

    import twistdecomp as td
    from twistdecomp.errors import TwistError

    out = []

    def record(name, check):
        try:
            check()
        except TwistError as exc:
            out.append({"case": name, "result": type(exc).__name__})
        else:
            out.append({"case": name, "result": "ok"})

    rng = np.random.default_rng(0)
    groups = [("dihedral:4", td.dihedral(4)), ("dihedral:6", td.dihedral(6)),
              ("cyclic:4", td.cyclic(4)), ("cyclic:12", td.cyclic(12)),
              ("C2xD8", td.direct_product(td.cyclic(2), td.dihedral(4))),
              ("S4", td.from_permutation_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)])),
              ("dihedral:128", td.dihedral(128))]
    for name, G in groups:
        n = G.order
        tables = {"as is": np.array(G.mul)}
        perm = rng.permutation(n)
        relabelled = np.empty_like(G.mul)
        relabelled[np.ix_(perm, perm)] = perm[G.mul]
        tables["relabelled"] = relabelled
        for i in range(3):
            edited = np.array(G.mul)
            edited[rng.integers(n), rng.integers(n)] = rng.integers(n)
            tables[f"cell edit {i}"] = edited
            a, b = rng.choice(n, 2, replace=False)
            rows, cols = np.array(G.mul), np.array(G.mul)
            rows[[a, b]] = rows[[b, a]]
            cols[:, [a, b]] = cols[:, [b, a]]
            tables[f"row swap {i}"], tables[f"column swap {i}"] = rows, cols
        for r1, r2, c1, c2 in _intercalates(G.mul.tolist(), 3):
            swapped = np.array(G.mul)
            swapped[[r1, r2], [c1, c2]], swapped[[r1, r2], [c2, c1]] = G.mul[r1, c2], G.mul[r1, c1]
            tables[f"intercalate {(r1, r2, c1, c2)}"] = swapped
        for kind, table in tables.items():
            record(f"group {name} {kind}", lambda: td.from_multiplication_table(table))

    for n in (2, 4, 6, 8):
        alpha = td.dihedral_alpha(n)
        G, K = alpha.group, alpha.order
        f = rng.integers(0, 4 * K, G.order)
        f[0] = 0
        twisted = 4 * alpha.exponents + f[:, None] + f[None, :] - f[G.mul]
        cases = {"as is": (K, np.array(alpha.exponents)), "coboundary twist": (4 * K, twisted)}
        for i in range(4):
            for base, (order, table) in (("alpha", (K, alpha.exponents)), ("twist", (4 * K, twisted))):
                edited = np.array(table)
                for _ in range(1 + i % 2):
                    edited[rng.integers(G.order), rng.integers(G.order)] += rng.integers(1, order)
                cases[f"{base} edit {i}"] = (order, edited)
        for kind, (order, table) in cases.items():
            record(f"cocycle dihedral_alpha:{n} {kind}", lambda: td.make_cocycle(G, order, table))
    klein = td.direct_product(td.cyclic(2), td.cyclic(2))
    x, y = np.divmod(np.arange(4), 2)
    for order in (2, 4):
        record(f"cocycle klein bilinear mod {order}",
               lambda: td.make_cocycle(klein, order, np.outer(x, y)))
    return out


def _decompose_json(args: list[str], seed: int) -> dict:
    from twistdecomp.cli import main as cli_main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["decompose", *args, "--format=json", f"--seed={seed}"])
    return {"exit": code, **json.loads(out.getvalue())}


def seed_dependence(seeds: list[int]) -> tuple[int, dict[str, list[str]]]:
    """Number of configurations, and those whose beta, matching or CLI JSON depend on the seed."""
    import numpy as np

    import twistdecomp as td

    tol = td.default_tolerances()
    found: dict[str, list[str]] = {"beta": [], "matching": [], "cli": []}
    count = 0
    for name, args, G, A, alpha in configurations():
        count += 1
        reports = [td.verify_point_decomposition(G, A, alpha, seed=s) for s in seeds]
        betas = [[d.beta.table for d in r.orbits] for r in reports]
        if any(len(b) != len(betas[0]) or any(
                np.max(np.abs(x - y)) > tol.cocycle for x, y in zip(b, betas[0]))
               for b in betas[1:]):
            found["beta"].append(name)
        if any(r.matching != reports[0].matching for r in reports[1:]):
            found["matching"].append(name)
        if args is None:
            continue
        payloads = [_decompose_json(args, s) for s in seeds]
        for p in payloads:
            p.pop("seed")
        if any(p != payloads[0] for p in payloads[1:]):
            found["cli"].append(name)
    return count, found


def check_seeds(head: Path, seeds: list[int]) -> int:
    sys.path.insert(0, str(head))
    count, found = seed_dependence(seeds)
    dependent = sorted(set().union(*found.values()))
    for kind, names in found.items():
        for name in names:
            print(f"SEED-DEPENDENT {kind}: {name}")
    print(f"seeds {','.join(map(str, seeds))}: {count} configurations, {len(dependent)} "
          f"seed-dependent (beta {len(found['beta'])}, matching {len(found['matching'])}, "
          f"cli {len(found['cli'])})")
    return 1 if dependent else 0


def _run(src: Path, code: str, *args: str) -> subprocess.CompletedProcess:
    env_path = f"import sys; sys.path.insert(0, {str(src)!r}); "
    return subprocess.run([sys.executable, "-c", env_path + code, *args],
                          capture_output=True, text=True, timeout=1800)


def _tables_agree(a: dict, b: dict, tol: float) -> bool:
    if a["dims"] != b["dims"] or len(a["chars"]) != len(b["chars"]):
        return False
    return all(abs(complex(*x) - complex(*y)) <= tol
               for ca, cb in zip(a["chars"], b["chars"]) for x, y in zip(ca, cb))


def _moduli(table: dict, i: int) -> tuple:
    return tuple(round(abs(complex(*v)), 6) for v in table["chars"][i])


def _gauge_agree(a: dict, b: dict) -> bool:
    """Equal dims and equal multisets of |chi| rows: what a coboundary keeps."""
    return (sorted(a["dims"]) == sorted(b["dims"]) and
            sorted(_moduli(a, i) for i in range(len(a["dims"]))) ==
            sorted(_moduli(b, i) for i in range(len(b["dims"]))))


def compare_cases(base: list, head: list, tol: float) -> tuple[list[str], int]:
    """Mismatches, and the number of configurations whose beta tables differ only in gauge."""
    problems = []
    regauged = 0
    if [c["case"] for c in base] != [c["case"] for c in head]:
        return ["configuration lists differ"], 0
    for b, h in zip(base, head):
        name = b["case"]
        if "error" in b or "error" in h:
            if b.get("error") != h.get("error"):
                problems.append(f"{name}: error {b.get('error')} vs {h.get('error')}")
            continue
        for key in ("perm", "multiplicities"):
            if b[key] != h[key]:
                problems.append(f"{name}: {key} differs")
        for key in ("irr_g", "base"):
            if not _tables_agree(b[key], h[key], tol):
                problems.append(f"{name}: {key} dims or characters differ")
        if len(b["beta"]) != len(h["beta"]):
            problems.append(f"{name}: number of beta tables differs")
            continue
        for i, (x, y) in enumerate(zip(b["beta"], h["beta"])):
            if not _gauge_agree(x, y):
                problems.append(f"{name}: beta[{i}] differs beyond a coboundary")
        for (ob, cb), (oh, ch) in zip(b["matching"], h["matching"]):
            if ob != oh or _moduli(b["beta"][ob], cb) != _moduli(h["beta"][oh], ch):
                problems.append(f"{name}: matching differs beyond a coboundary")
                break
        if any(not _tables_agree(x, y, tol) for x, y in zip(b["beta"], h["beta"])):
            regauged += 1
    return problems, regauged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="src directory of the reference tree")
    parser.add_argument("--head", default=Path(__file__).resolve().parents[1] / "src", type=Path,
                        help="src directory of the tree under test (default: this checkout)")
    parser.add_argument("--seeds", type=lambda v: [int(x) for x in v.split(",")],
                        help="comma-separated seeds: check the head tree for seed dependence")
    args = parser.parse_args()
    if args.seeds:
        return check_seeds(args.head, args.seeds)
    if args.base is None:
        parser.error("give --base or --seeds")
    here = str(Path(__file__).resolve().parent)
    dump_code = (f"sys.path.insert(0, {here!r}); import json, parity; "
                 "print(json.dumps(parity.repeated_dumps(int(sys.argv[1]))))")
    results = {}
    for side, runs in (("base", "1"), ("head", "2")):
        proc = _run(getattr(args, side), dump_code, runs)
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
            return 2
        results[side] = json.loads(proc.stdout)
    warm_same = results["head"]["repeats_identical"]
    print(f"head, warm memo and K-group repeat on the same groups: "
          f"{'identical to' if warm_same else 'DIFFERS from'} the cold run")
    sys.path.insert(0, str(args.head))
    from twistdecomp.config import default_tolerances

    base, head = results["base"]["point"], results["head"]["point"]
    problems, regauged = compare_cases(base, head, default_tolerances().char)
    if not warm_same:
        problems.append("head dumps differ between a cold and a warm run")
    n_ok = sum("error" not in c for c in head)
    print(f"configurations: {len(head)} ({n_ok} decomposed, "
          f"{len(head) - n_ok} raising alike); beta tables differ entry by "
          f"entry but agree in dims and |chi| in {regauged}")
    i_base, i_head = results["base"]["irr"], results["head"]["irr"]
    i_diff = [h["case"] for b, h in zip(i_base, i_head)
              if b["case"] != h["case"] or b.get("error") != h.get("error")
              or ("irr" in h and not _tables_agree(b["irr"], h["irr"], default_tolerances().char))]
    if len(i_base) != len(i_head):
        i_diff.append("number of irreducibles-only cases")
    problems.extend(f"irreducibles differ: {name}" for name in i_diff)
    print(f"irreducibles-only configurations: {len(i_head)}, {len(i_head) - len(i_diff)} alike")
    k_base, k_head = results["base"]["kgroups"], results["head"]["kgroups"]
    k_diff = [h["case"] for b, h in zip(k_base, k_head) if b != h]
    if len(k_base) != len(k_head):
        k_diff.append("number of K-group cases")
    problems.extend(f"K-group outputs differ: {name}" for name in k_diff)
    print(f"K-group cases: {len(k_head)} ({sum('error' in c for c in k_head)} raising), "
          f"{len(k_head) - len(k_diff)} identical")
    v_base, v_head = results["base"]["validation"], results["head"]["validation"]
    v_diff = [h["case"] for b, h in zip(v_base, v_head) if b != h]
    if [c["case"] for c in v_base] != [c["case"] for c in v_head]:
        v_diff = ["validation case lists differ"]
    problems.extend(f"validation decision differs: {name}" for name in v_diff)
    print(f"validation decisions: {len(v_head)} tables "
          f"({sum(c['result'] != 'ok' for c in v_head)} rejected), "
          f"{len(v_head) - len(v_diff)} alike")
    cli_code = "from twistdecomp.cli import main; raise SystemExit(main(sys.argv[1:]))"
    for cmd in CLI_COMMANDS:
        outs = [_run(getattr(args, side), cli_code, *cmd) for side in ("base", "head")]
        same = outs[0].stdout == outs[1].stdout and outs[0].returncode == outs[1].returncode
        print(f"cli {'same' if same else 'DIFFERS'} (exit {outs[1].returncode}, "
              f"{len(outs[1].stdout)} bytes): {' '.join(cmd)}")
        if not same:
            problems.append(f"cli output differs: {' '.join(cmd)}")
    for p in problems:
        print("MISMATCH", p)
    print("parity: " + ("ok" if not problems else f"{len(problems)} mismatches"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
