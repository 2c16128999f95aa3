"""Traced memory peaks of the dense split in irreducibles, stage by stage.

    python tools/peakmem.py [--order N ...] [--src SRC]     (default: orders 256 and 512, src)

For each order 2n, builds dihedral(n) with dihedral_alpha(n), calls
irreducibles on it once and then reads table.irreducibles once, which
builds the matrices, all under tracemalloc. Prints, in MB of 10^6 bytes:

- for each stage of twistdecomp.reps that the source tree has, the largest
  traced peak of one call above the traced memory at its entry: the
  split's stages, then the two that run at the first read
  (_block_matrices and _relation_residuals);
- the traced peak of the whole irreducibles call above the memory at its
  entry, and its wall time (tracing slows it); then the same for the first
  read of table.irreducibles;
- the peak resident set size of this process so far (maxrss), which
  includes the tables of every order run before.

An order above reps.MAX_DENSE_ORDER raises the cap in this process only.
--src imports twistdecomp from another source tree, so two checkouts can be
compared with the same script.
"""

from __future__ import annotations

import argparse
import functools
import resource
import sys
import time
import tracemalloc
from pathlib import Path

STAGES = ("_conjugation_weights", "_split_regular", "_block_characters", "_invariance",
          "_commutant_dimensions", "_block_matrices", "_relation_residuals")
MB = 1e6


class Peaks:
    """Per-stage traced peaks, and the highest traced memory since the last start().

    Each stage resets tracemalloc's peak at entry and exit, so the highest
    value is folded in before every reset.
    """

    def __init__(self):
        self.stages: dict[str, int] = {}
        self.high = 0

    def start(self) -> int:
        tracemalloc.reset_peak()
        current = tracemalloc.get_traced_memory()[0]
        self.high = current
        return current

    def fold(self) -> None:
        self.high = max(self.high, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.fold()
            entry = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self.fold()
                self.stages[name] = max(self.stages.get(name, 0), peak - entry)
        return traced


def measure(order: int) -> list[str]:
    import twistdecomp as td
    from twistdecomp import reps

    if order % 4:
        raise SystemExit(f"order {order}: dihedral_alpha needs an order divisible by 4")
    reps.MAX_DENSE_ORDER = max(reps.MAX_DENSE_ORDER, order)
    G, alpha = td.dihedral(order // 2), td.dihedral_alpha(order // 2)
    peaks = Peaks()
    honest = {name: getattr(reps, name) for name in STAGES if hasattr(reps, name)}
    for name, fn in honest.items():
        setattr(reps, name, peaks.wrap(name, fn))
    calls = []

    def traced(label, call):
        entry = peaks.start()
        began = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - began
        peaks.fold()
        calls.append(f"  {label:<24}{(peaks.high - entry) / MB:9.1f} MB  ({seconds:.2f} s)")
        return result

    try:
        table = traced("irreducibles call", lambda: reps.irreducibles(G, alpha))
        traced("first matrix read", lambda: table.irreducibles)
    finally:
        for name, fn in honest.items():
            setattr(reps, name, fn)
    lines = [f"order {order}: dihedral_alpha({order // 2}), {len(table)} irreducibles"]
    for name in honest:
        lines.append(f"  {name:<24}{peaks.stages.get(name, 0) / MB:9.1f} MB")
    lines.extend(calls)
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    lines.append(f"  {'maxrss':<24}{maxrss / MB:9.1f} MB")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--order", type=int, action="append",
                        help="group order 2n of dihedral_alpha(n), repeatable (default: 256 and 512)")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source tree to import twistdecomp from")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    tracemalloc.start()
    for order in args.order or [256, 512]:
        print("\n".join(measure(order)), flush=True)
    tracemalloc.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
