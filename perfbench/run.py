#!/usr/bin/env python3
"""Benchmark twistdecomp's public calls on seeded workloads.

    python3 perfbench/run.py --workload irr_split --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Run it from the repository root; it imports the package from `src/`.
With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics. With `--trace 1` every case runs twice, untraced and
then, on a fresh copy of its inputs, with every public function of the
layer modules wrapped in spans; the run checks that both give the same
outputs, reports the per-layer metrics and writes the spans to
`perfbench/out/`. See perfbench/README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BLAS threads are pinned before numpy is imported: one thread keeps the
# dense linear algebra from competing with itself on a small machine.
BLAS_THREADS = 1
NPROC = len(os.sched_getaffinity(0))
PINNED_THREADS = min(BLAS_THREADS, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

DEFAULT_SEED = 0
DEFAULT_SECONDS = 25
SETUP_SAMPLES = 3          # this process plus two fresh child processes
CHILD_TIMEOUT_S = 170

PER_LAYER = (
    ("reps.irreducibles", ("calls", "self_s", "total_s", "order_sum", "distinct_ratio")),
    ("kgroups.k0_of_gset", ("calls", "self_s")),
    ("decomposition.action_table", ("calls", "self_s", "total_s")),
    ("decomposition.conjugate_rep", ("calls", "self_s")),
    ("reps.intertwiner", ("calls", "self_s")),
    ("reps.validate_rep", ("calls", "self_s")),
    ("groups.generating_set", ("calls", "self_s", "distinct_ratio")),
    ("groups.subgroup_closure", ("calls", "self_s")),
    ("groups.SubgroupHandle", ("calls", "self_s")),
    ("cocycles.validate_cocycle_table", ("calls", "self_s")),
    ("cocycles.restrict", ("calls", "self_s", "distinct_ratio")),
    ("decomposition.orbit_data", ("self_s",)),
    ("decomposition.induced_cocycle", ("self_s",)),
    ("decomposition.hom_rep", ("self_s",)),
    ("reps.multiplicity", ("calls", "self_s")),
    ("reps.commutant_dimension", ("calls",)),
    ("kgroups.phi_matrix", ("self_s",)),
    ("kgroups.pullback_matrix", ("self_s",)),
    ("kgroups.verify_gset_decomposition", ("self_s",)),
    ("report.decomposition_payload", ("self_s",)),
    ("report.to_json", ("self_s",)),
)
STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "order_sum": "elements",
              "distinct_ratio": "ratio"}


def _import_package():
    """Import twistdecomp from this checkout's src/, or exit without a result."""
    if not (SRC / "twistdecomp" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'twistdecomp'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import twistdecomp

    if Path(twistdecomp.__file__).resolve().parent != SRC / "twistdecomp":
        sys.exit(f"error: imported twistdecomp from {twistdecomp.__file__}, not {SRC}")
    import workloads

    return workloads


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_version,
        "blas_threads": PINNED_THREADS, "nproc": NPROC, "seed": seed,
        "default_seed": DEFAULT_SEED,
    }


def _child_setup_s(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                         check=True, cwd=ROOT)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workloads, setup_samples, result) -> dict:
    times = sorted(result.case_s)
    return {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "wall_s": _metric(result.wall_s, "s"),
        "case_s.p50": _metric(statistics.median(times), "s"),
        "case_s.tail": _metric(times[workloads.tail_rank(len(times))], "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced, untraced, n_cases) -> dict:
    stats = spans.aggregate(tracer.spans)
    metrics = {}
    for name, fields in PER_LAYER:
        st = stats.get(name, spans.SpanStats())
        for stat in fields:
            metrics[f"{name}.{stat}"] = _metric(getattr(st, stat), STAT_UNITS[stat])
    from_kgroups = spans.calls_under(tracer.spans, "decomposition.action_table", "kgroups.")
    metrics["kgroups.action_table_per_case"] = _metric(from_kgroups / n_cases, "1/case")
    metrics["trace.wall_s"] = _metric(traced.wall_s, "s")
    metrics["trace.overhead_s"] = _metric(traced.wall_s - untraced.wall_s, "s")
    return metrics


def run_workload(args) -> dict:
    workloads = _import_package()
    rounds = workloads.rounds_for(args.workload, args.seconds)
    cases = workloads.build_cases(args.workload, args.seed, rounds)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        return {"setup_s": setup_s}

    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    n = len(cases)
    print(f"workload {args.workload}: {n} cases in {rounds} rounds, closed loop, one client; "
          f"case_s.tail = p{workloads.tail_percentile(n):.1f} "
          f"({workloads.TAIL_BEYOND} cases above it)")
    if not args.trace:
        samples = [setup_s] + [_child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
        result = workloads.run_cases(cases)
        metrics = end_to_end(workloads, samples, result)
        passes = [result]
        same_outputs = True
    else:
        # The traced copies are rebuilt from the seed, so no cached state of
        # an untraced run leaks into the traced one.
        copies = workloads.build_cases(args.workload, args.seed, rounds)
        tracer = spans.Tracer()
        untraced, traced = workloads.run_paired(cases, copies, tracer)
        metrics = per_layer(tracer, traced, untraced, n)
        passes = [untraced, traced]
        same_outputs = untraced.summaries == traced.summaries
        if not same_outputs:
            print("error: traced and untraced passes gave different outputs")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path, {"environment": env, "workload": args.workload,
                            "cases": [c.label for c in cases],
                            "fields": ["name", "start", "end", "parent", "case", "key"]})
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")

    failed = sum(workloads.failed_cases(p) for p in passes)
    attempted = n * len(passes)
    for p in passes:
        for _, message in p.failures[:20]:
            print(f"FAILED {message}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_frac':48s} {failed / attempted:>14.6g} 1")
    return {"correct": failed == 0 and same_outputs, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in a fresh process, so peak_rss_mb belongs to that workload alone."""
    workloads = _import_package()
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                             cwd=ROOT)
        if out.returncode != 0:
            sys.exit(f"error: {name} exited with {out.returncode}: {out.stderr.strip()}")
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"== {name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:48s} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'failed_frac':48s} {res['failed'] / res['attempted']:>14.6g} 1")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="irr_split, point_decomp, gset_k0, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="sizes the case list: about this long on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
