"""K-group matrices on G-sets of several hundred points over D_48.

    python tools/kscale.py [--points N] [--seed S] [--src SRC]     (default: 300 points, seed 0)

In one fresh process, builds G = dihedral(24), alpha = dihedral_alpha(24)
and A = <a^12>, the centre, and a chain X -> Y -> Z of A-trivial G-sets:
Z is a seeded disjoint union of coset orbits G/H with A in H, until it has
at least N points, and Y and X are random covers of Z and Y. It then times,
in milliseconds,

- the three pullback_matrix calls of the chain (f1, f2 and the composite),
- phi_matrix on X,

each cold (the first call after _memo.clear()), warm (the same call
again, best of three) and on relabelled copies of the G-sets (the same
orbit types with other basepoints, best of three). Then, from a cleared
memo under tracemalloc, it makes every call once on both chains and
prints the traced memory held after the calls, in two shares: what
dropping the parts of G frees (its action table, orbit data, isotropy
summand tables, and every group, cocycle and part that hangs off them),
and then what clearing the shared memo of irreducible tables frees.

--src imports twistdecomp from another source tree, so two checkouts can be
compared with the same script. The output is for the record; nothing is
gated on it.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
import tracemalloc
from functools import reduce
from pathlib import Path

WARM_REPEATS = 3


def chain(G, A, points: int, rng):
    """(x, y, z, f1, f2): A-trivial G-sets, z of at least `points` points."""
    from twistdecomp import kgroups
    from twistdecomp.groups import all_subgroups, quotient_with_section

    qs = quotient_with_section(G, A)
    subs = all_subgroups(qs.quotient)
    pieces, size = [], 0
    while size < points:
        piece = kgroups.coset_gset(qs.quotient, subs[int(rng.integers(len(subs)))])
        pieces.append(piece)
        size += piece.size
    zq = kgroups.relabel_gset(reduce(kgroups.disjoint_union, pieces), rng.permutation(size))
    yq, f2 = kgroups.random_cover(zq, rng, subs)
    xq, f1 = kgroups.random_cover(yq, rng, subs)
    x, y, z = (kgroups.pullback_to_group(s, G, qs.projection) for s in (xq, yq, zq))
    return x, y, z, f1, f2


def relabelled(x, y, z, f1, f2, rng):
    """Copies of the chain with every G-set's points permuted, and the maps to match."""
    from twistdecomp import kgroups

    perms = [rng.permutation(s.size) for s in (x, y, z)]
    x2, y2, z2 = (kgroups.relabel_gset(s, p) for s, p in zip((x, y, z), perms))
    inv = [p.argsort() for p in perms]        # new label -> old label
    g1 = [int(perms[1][f1[inv[0][p]]]) for p in range(x.size)]
    g2 = [int(perms[2][f2[inv[1][p]]]) for p in range(y.size)]
    return x2, y2, z2, g1, g2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=300, help="least size of Z (default 300)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source tree to import twistdecomp from")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy as np

    import twistdecomp as td
    from twistdecomp import _memo

    rng = np.random.default_rng(args.seed)
    G, alpha = td.dihedral(24), td.dihedral_alpha(24)
    A = td.subgroup_closure(G, [12])
    first = chain(G, A, args.points, rng)
    second = relabelled(*first, rng)

    def calls(x, y, z, f1, f2):
        composite = [f2[f1[p]] for p in range(x.size)]
        return {
            "pullback f1": lambda: td.pullback_matrix(G, alpha, f1, x, y),
            "pullback f2": lambda: td.pullback_matrix(G, alpha, f2, y, z),
            "pullback f2 f1": lambda: td.pullback_matrix(G, alpha, composite, x, z),
            "phi X": lambda: td.phi_matrix(G, A, alpha, x),
        }

    def timed(call) -> tuple[float, np.ndarray]:
        began = time.perf_counter()
        out = call()
        return 1e3 * (time.perf_counter() - began), out

    x, y, z, _, _ = first
    orbits = [len(td.k0_of_gset(G, alpha, s).orbit_basepoints) for s in (x, y, z)]
    print(f"D48 A=<a^12>: |X|={x.size} |Y|={y.size} |Z|={z.size} points, "
          f"{orbits[0]}/{orbits[1]}/{orbits[2]} orbits", flush=True)
    print(f"{'call':<16}{'cold ms':>10}{'warm ms':>10}{'relabelled ms':>15}", flush=True)
    for (name, call), other in zip(calls(*first).items(), calls(*second).values()):
        _memo.clear()
        cold, want = timed(call)
        warm = min(timed(call)[0] for _ in range(WARM_REPEATS))
        moved = min(timed(other)[0] for _ in range(WARM_REPEATS))
        if not np.array_equal(timed(call)[1], want):
            raise SystemExit(f"{name}: a warm call differs from the cold one")
        print(f"{name:<16}{cold:10.2f}{warm:10.2f}{moved:15.2f}", flush=True)
    tracemalloc.start()
    _memo.clear()
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    for call in [*calls(*first).values(), *calls(*second).values()]:
        call()
    gc.collect()
    held = tracemalloc.get_traced_memory()[0] - before
    G.__dict__.pop("_memo_parts", None)
    gc.collect()
    parts = held - (tracemalloc.get_traced_memory()[0] - before)
    _memo.clear()
    gc.collect()
    lru = held - parts - (tracemalloc.get_traced_memory()[0] - before)
    tracemalloc.stop()
    print(f"traced memory of G's parts: {parts / 1024:.1f} KB, of the shared memo: "
          f"{lru / 1024:.1f} KB (of {held / 1024:.1f} KB held after the calls)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
