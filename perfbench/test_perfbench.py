"""Tests of the benchmark itself: span arithmetic, tracing coverage, workloads.

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import twistdecomp as td  # noqa: E402
import twistdecomp.cli  # noqa: E402,F401  (binds irreducibles once more)
import workloads  # noqa: E402


def _span(name, start, end, parent, key=None):
    return [name, start, end, parent, 0, key]


def test_self_and_total_time_on_a_synthetic_nested_trace():
    trace = [
        _span("A", 0.0, 10.0, -1),   # 0
        _span("B", 1.0, 4.0, 0),     # 1
        _span("C", 2.0, 3.0, 1),     # 2
        _span("B", 5.0, 9.0, 0),     # 3
        _span("A", 6.0, 7.0, 3),     # 4: A nested inside A
    ]
    stats = spans.aggregate(trace)
    assert stats["A"].calls == 2
    assert stats["A"].total_s == pytest.approx(10.0)           # the inner A is covered
    assert stats["A"].self_s == pytest.approx((10 - 3 - 4) + 1)
    assert stats["B"].total_s == pytest.approx(3 + 4)
    assert stats["B"].self_s == pytest.approx((3 - 1) + (4 - 1))
    assert stats["C"].self_s == pytest.approx(1.0)
    assert sum(s.self_s for s in stats.values()) == pytest.approx(10.0)


def test_distinct_ratio_and_order_sum_from_keys():
    trace = [_span("f", 0, 1, -1, ("k1", 4)), _span("f", 1, 2, -1, ("k1", 4)),
             _span("f", 2, 3, -1, ("k2", 8)), _span("f", 3, 4, -1, ("k3", 8))]
    st = spans.aggregate(trace)["f"]
    assert st.distinct_ratio == pytest.approx(3 / 4)
    assert st.order_sum == 24
    assert spans.calls_under(trace, "f", "g") == 0


def test_every_package_reference_is_wrapped_and_restored():
    original = td.irreducibles
    tracer = spans.Tracer()
    with spans.installed(tracer):
        for module_name in ("twistdecomp", "twistdecomp.decomposition",
                            "twistdecomp.kgroups", "twistdecomp.cli"):
            assert sys.modules[module_name].irreducibles is not original
        assert td.reps.irreducibles.__wrapped__ is original
        td.irreducibles(td.dihedral(4), td.dihedral_alpha(4))
    assert td.irreducibles is original
    assert sys.modules["twistdecomp.kgroups"].irreducibles is original
    assert not hasattr(td.SubgroupHandle.__init__, "__wrapped__")
    names = {record[spans.NAME] for record in tracer.spans}
    assert {"reps.irreducibles", "groups.generating_set",
            "groups.subgroup_closure", "groups.SubgroupHandle"} <= names


def test_coverage_check_reports_a_missed_reference():
    original = td.reps.irreducibles
    originals = {original: "reps.irreducibles"}
    with spans.installed(spans.Tracer()):
        assert spans.unwrapped_references(originals) == []
        wrapper = td.kgroups.irreducibles
        td.kgroups.irreducibles = original
        try:
            assert spans.unwrapped_references(originals) == ["twistdecomp.kgroups.irreducibles"]
        finally:
            td.kgroups.irreducibles = wrapper


def test_irr_split_inputs_never_repeat():
    cases = workloads.build_cases("irr_split", 0, rounds=2)
    keys = {spans._key_group_cocycle(*case.args[:2])[0] for case in cases}
    assert len(keys) == len(cases)
    orders = {case.args[0].order for case in cases}
    assert min(orders) == 64 and max(orders) == 256


def test_irr_split_distinct_ratio_is_one_when_traced():
    cases = [c for c in workloads.build_cases("irr_split", 0, rounds=1)
             if c.args[0].order <= 64]
    tracer = spans.Tracer()
    with spans.installed(tracer):
        result = workloads.run_cases(cases, tracer)
    assert workloads.failed_cases(result) == 0
    st = spans.aggregate(tracer.spans)["reps.irreducibles"]
    assert st.calls == len(cases)
    assert st.distinct_ratio == 1.0
    assert st.order_sum == 64 * len(cases)


def _cheap_cases(workload, seed):
    cases = workloads.build_cases(workload, seed, rounds=1)
    if workload == "irr_split":
        return [c for c in cases if c.args[0].order <= 64]
    if workload == "point_decomp":
        return [c for c in cases if c.args[0].order <= 8]
    return cases[:10]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_runs_agree(workload, seed):
    untraced = workloads.run_cases(_cheap_cases(workload, seed))
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = workloads.run_cases(_cheap_cases(workload, seed), tracer)
    assert untraced.summaries == traced.summaries
    assert workloads.failed_cases(untraced) == workloads.failed_cases(traced) == 0
    assert tracer.spans


def test_same_seed_same_inputs_other_seed_other_inputs():
    def keys(seed):
        return [spans._key_group_cocycle(c.args[0], c.args[2])[0]
                for c in workloads.build_cases("point_decomp", seed, rounds=1)]

    assert keys(3) == keys(3)
    assert keys(3) != keys(4)


def test_gset_k0_calls_action_table_twice_per_case():
    cases = _cheap_cases("gset_k0", 0)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        workloads.run_cases(cases, tracer)
    assert spans.calls_under(tracer.spans, "decomposition.action_table", "kgroups.") == 2 * len(cases)


def test_a_wrong_output_counts_as_a_failure_without_stopping_the_run():
    cases = _cheap_cases("irr_split", 0)[:2]
    bad = workloads.Case("wrong dims", workloads.irr_case,
                         (cases[0].args[0], cases[0].args[1], (1,)))
    result = workloads.run_cases([bad] + cases)
    assert workloads.failed_cases(result) == 1
    assert result.summaries[1] is not None and result.summaries[2] is not None


def test_exact_det():
    assert workloads.exact_det([[2, 1], [1, 1]]) == 1
    assert workloads.exact_det([[0, 1], [1, 0]]) == -1
    assert workloads.exact_det([[1, 2], [2, 4]]) == 0
    assert workloads.exact_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def test_tail_rank_leaves_ten_cases_above():
    assert workloads.tail_rank(100) == 89
    assert workloads.tail_percentile(100) == 90.0


def test_run_without_the_package_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "irr_split", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_reported_metrics_are_those_declared_in_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    result = workloads.PassResult(wall_s=1.0, case_s=[0.5] * 20)
    e2e = run.end_to_end(workloads, [0.1], result)
    layer = run.per_layer(spans.Tracer(), result, result, n_cases=20)
    for reported, kind in ((e2e, "end_to_end"), (layer, "per_layer")):
        assert [(m["name"], m["unit"]) for m in declared[kind]] == [
            (name, m["unit"]) for name, m in reported.items()]
