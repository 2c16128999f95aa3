"""Cold point decompositions at scale, one fresh process each.

    python tools/pointscale.py [--order N ...] [--src SRC]     (default: orders 256 and 512, src)

For each order 2n and each subgroup A = <a>, <a^2> and {1} of dihedral(n),
a new Python process builds dihedral(n), dihedral_alpha(n) and A, and then
times one verify_point_decomposition call, with nothing remembered from an
earlier call. Prints, per case, the wall time of that call, the number of
orbits, and how many of their induced cocycles beta were certified on
their root-of-unity lattice and how many by make_numeric_cocycle's full
check (every call of make_numeric_cocycle is counted as one beta).

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
        print(json.dumps(measure(int(args.child[0]), args.child[1])))
        return 0
    for order in args.order or [256, 512]:
        if order % 4:
            raise SystemExit(f"order {order}: dihedral_alpha needs an order divisible by 4")
        for label in SUBGROUPS:
            out = subprocess.run([sys.executable, __file__, "--src", args.src,
                                  "--child", str(order), label],
                                 capture_output=True, text=True, check=True)
            r = json.loads(out.stdout.splitlines()[-1])
            print(f"D{order} A={label:<6}{r['seconds']:8.3f} s  {r['orbits']:4d} orbits  "
                  f"beta: {r['lattice']} lattice, {r['numeric']} numeric", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
