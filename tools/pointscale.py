"""Cold point decompositions at scale, one fresh process each.

    python tools/pointscale.py [--order N ...] [--src SRC]     (default: orders 256 and 512, src)

For each order 2n and each subgroup A = <a>, <a^2> and {1} of dihedral(n),
a new Python process builds dihedral(n), dihedral_alpha(n) and A, and then
times one verify_point_decomposition call, with nothing remembered from an
earlier call. Prints, per case, the wall time of that call, the number of
orbits, and how many of their induced cocycles beta were certified on
their root-of-unity lattice and how many by make_numeric_cocycle's full
check (every call of make_numeric_cocycle is counted as one beta). One
more process per order times a cold irreducibles(dihedral(n),
dihedral_alpha(n)), the split alone, and prints its number of entries.

--src imports twistdecomp from another source tree, so two checkouts can be
compared with the same script. The output is for the record; nothing is
gated on it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

SUBGROUPS = {"<a>": [1], "<a^2>": [2], "{1}": []}
SPLIT = "irreducibles"         # the child label of the cold split alone


def measure_split(order: int) -> dict:
    """The child's work: one cold irreducibles call."""
    import twistdecomp as td

    G, alpha = td.dihedral(order // 2), td.dihedral_alpha(order // 2)
    began = time.perf_counter()
    table = td.irreducibles(G, alpha)
    return {"seconds": time.perf_counter() - began, "entries": len(table)}


def measure(order: int, label: str) -> dict:
    """The child's work: one cold verify_point_decomposition call."""
    import twistdecomp as td
    from twistdecomp import cocycles, decomposition

    honest = cocycles.make_numeric_cocycle
    numeric = []

    def counted(*args, **kwargs):
        numeric.append(1)
        return honest(*args, **kwargs)

    for module in (cocycles, decomposition):
        if hasattr(module, "make_numeric_cocycle"):
            module.make_numeric_cocycle = counted
    G, alpha = td.dihedral(order // 2), td.dihedral_alpha(order // 2)
    A = td.subgroup_closure(G, SUBGROUPS[label])
    began = time.perf_counter()
    report = td.verify_point_decomposition(G, A, alpha)
    seconds = time.perf_counter() - began
    orbits = len(report.orbits)
    return {"seconds": seconds, "orbits": orbits, "lattice": orbits - len(numeric),
            "numeric": len(numeric)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--order", type=int, action="append",
                        help="group order 2n of dihedral_alpha(n), repeatable "
                             "(default: 256 and 512)")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source tree to import twistdecomp from")
    parser.add_argument("--child", nargs=2, metavar=("ORDER", "A"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    if args.child:
        order, label = int(args.child[0]), args.child[1]
        print(json.dumps(measure_split(order) if label == SPLIT else measure(order, label)))
        return 0

    def child(order: int, label: str) -> dict:
        out = subprocess.run([sys.executable, __file__, "--src", args.src,
                              "--child", str(order), label],
                             capture_output=True, text=True, check=True)
        return json.loads(out.stdout.splitlines()[-1])

    for order in args.order or [256, 512]:
        if order % 4:
            raise SystemExit(f"order {order}: dihedral_alpha needs an order divisible by 4")
        r = child(order, SPLIT)
        print(f"D{order} irreducibles {r['seconds']:8.3f} s  {r['entries']:4d} entries", flush=True)
        for label in SUBGROUPS:
            r = child(order, label)
            print(f"D{order} A={label:<6}{r['seconds']:8.3f} s  {r['orbits']:4d} orbits  "
                  f"beta: {r['lattice']} lattice, {r['numeric']} numeric", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
