"""Tests of the benchmark itself: plans, oracle negative controls, tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import plan  # noqa: E402
import tracer  # noqa: E402

REFERENCE = oracle.load_reference()
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ plans


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_plan_is_a_function_of_the_seed(workload):
    a = plan.make_plan(workload, 7, 20)
    assert a == plan.make_plan(workload, 7, 20)
    others = {plan.make_plan(workload, s, 20).ops for s in range(8)}
    assert len(others) > 1


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_run_length_fixes_the_rounds_planned(workload):
    short = plan.make_plan(workload, 1, 1)
    longer = plan.make_plan(workload, 1, 3 * plan.NOMINAL_ROUND_S[workload])
    assert short.rounds == 1
    assert longer.rounds == 3 * plan.MAX_SPEEDUP
    assert len(longer.ops) == longer.rounds * short.per_round
    assert longer.round_ops(0) == short.ops


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_every_round_fills_the_same_slots(workload):
    p = plan.make_plan(workload, 3, 30)
    slots = [op.slot for op in p.ops]
    assert p.rounds > 1
    assert len(set(slots[: p.per_round])) == p.per_round
    assert slots == slots[: p.per_round] * p.rounds


def test_rounds_stop_at_the_run_length():
    from run import MIN_ROUNDS, another_round

    assert another_round([], 30, 160)
    assert another_round([40.0] * (MIN_ROUNDS - 1), 30, 160)
    assert another_round([10.0, 10.0], 30, 160)
    assert not another_round([10.0, 10.0, 10.0], 30, 160)
    assert not another_round([12.0, 12.0], 30, 160)
    assert not another_round([40.0], 30, 70)


def test_a_round_sums_each_slots_faster_half():
    import statistics

    import run

    times = {"a": (1.0, 9.0, 3.0, 8.0), "b": (7.0, 5.0, 6.0)}
    records = [run.OpRecord("op", "sample", wall, slot=slot)
               for slot, walls in times.items() for wall in walls]
    assert run.per_round(records, "wall_s") == 2.0 + 5.5
    assert run.per_round(records, "wall_s", statistics.median) == 5.5 + 6.0
    assert run.faster_half_mean([4.0, 2.0]) == 2.0


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_every_drawable_input_has_a_reference(workload):
    for seed in range(40):
        for op in plan.make_plan(workload, seed, 20).ops:
            assert op.command == "sample" or op.curve.ref_key in REFERENCE
            top = 4 * op.curve.k1 + 2 * op.curve.k2
            assert (2 * op.curve.lam + op.curve.zeta * top) % 4 == 0


def test_unit_variants_keep_the_exact_invariants():
    from inputs import build_curve

    from supermin import catalog, twistor

    for k1, k2 in plan.FAMILY_PAIRS:
        spec = catalog.SingularityTypeSpec.from_pair(k1, k2)
        base, _ = build_curve(plan.CurveSpec("family", k1, k2))
        _ok, mu = catalog.reality_check(catalog.normal_form_of(base, spec))
        for zeta in range(4):
            for lam in range(4):
                if (2 * lam + zeta * (4 * k1 + 2 * k2)) % 4:
                    continue
                curve, _ = build_curve(plan.CurveSpec("family", k1, k2, zeta=zeta, lam=lam))
                assert twistor.is_quadric_curve(curve)
                assert twistor.is_superhorizontal(curve)
                ok, mu_v = catalog.reality_check(catalog.normal_form_of(curve, spec))
                assert ok and mu_v == mu


# ------------------------------------------------- oracle negative controls


def _verify_output(key="family:2,2", error="1e-12"):
    ref = REFERENCE[key]
    body = json.loads(json.dumps(ref["output"]))
    body["checks"]["cross_table"]["detail"]["max_scalar_error"] = error
    return ref, body


def test_verify_output_matching_reference_passes():
    ref, body = _verify_output()
    assert oracle.check_verify(ref, 0, json.dumps(body)) == []


def test_doctored_verify_verdict_counts_as_failed():
    ref, body = _verify_output()
    body["checks"]["reality"]["detail"]["1"] = False
    assert oracle.check_verify(ref, 0, json.dumps(body))


def test_doctored_norm_constant_counts_as_failed():
    ref, body = _verify_output()
    body["checks"]["norm_products"]["detail"]["constants"]["product_4_5_over_3_6"] = "3"
    assert oracle.check_verify(ref, 0, json.dumps(body))


def test_verify_float_error_and_exit_code_are_checked():
    ref, body = _verify_output(error="2e-8")
    assert oracle.check_verify(ref, 0, json.dumps(body))
    ref, body = _verify_output()
    assert oracle.check_verify(ref, 1, json.dumps(body))
    assert oracle.check_verify(ref, 0, "not json")


def _report_output(key="deformed:1,1:r2=1/2"):
    ref = REFERENCE[key]
    body = json.loads(json.dumps(ref["output"]))
    body["numeric_degrees"] = {p: f"{ref['output']['delta'][int(p)] + 0.001:.17g}"
                               for p in ref["numeric_p"]}
    return ref, body


def test_report_output_matching_reference_passes():
    ref, body = _report_output()
    assert oracle.check_report(ref, 0, json.dumps(body)) == []


def test_doctored_report_counts_as_failed():
    ref, body = _report_output()
    body["delta"] = [d + 1 for d in body["delta"]]
    assert oracle.check_report(ref, 0, json.dumps(body))
    ref, body = _report_output()
    body["numeric_degrees"]["0"] = str(body["delta"][0] + 0.7)
    assert oracle.check_report(ref, 0, json.dumps(body))
    ref, body = _report_output()
    body["triple_agreement"] = False
    assert oracle.check_report(ref, 0, json.dumps(body))


def _unit_points(n):
    return [[1.0, 0, 0, 0, 0, 0, 0] if i % 2 else [0, 0.6, 0.8, 0, 0, 0, 0]
            for i in range(2 * n * n)]


def test_sample_checks_and_a_non_unit_point_fails(tmp_path):
    n = 8
    points = _unit_points(n)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"n": n, "charts": 2, "points": [[repr(c) for c in p] for p in points]}))
    assert oracle.check_sample("json", n, 0, good) == []
    points[5][0] = 1.001
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2,x3,x4,x5,x6,x7\n" + "\n".join(",".join(map(repr, p)) for p in points) + "\n")
    assert oracle.check_sample("csv", n, 0, bad)
    assert oracle.check_sample("csv", n, 1, bad)
    bad.write_text("x1,x2,x3,x4,x5,x6,x7\n1,nope\n")
    op = plan.Op("sample", plan.CurveSpec("family", 1, 1), fmt="csv", n=n)
    assert oracle.check_output(op, 0, bad, REFERENCE)[0].startswith("malformed output")


def test_bad_input_must_exit_2_with_one_line():
    assert oracle.check_bad_input(2, "", "invalid input: bad scalar\n") == []
    assert oracle.check_bad_input(1, "", "Traceback (most recent call last):\n  ...\n")
    assert oracle.check_bad_input(0, "", "")
    assert oracle.check_bad_input(2, "", "one\ntwo\n")


# ------------------------------------------------------------------ tracing


def test_wrappers_count_exactly_and_uninstall():
    from supermin import catalog, field, twistor

    original = field.AlgScalar.__mul__
    counts = []
    for _ in range(2):
        rec = tracer.Recorder()
        undo = tracer.install(rec)
        try:
            twistor.is_superhorizontal(catalog.example_family(1, 1))
        finally:
            tracer.uninstall(undo)
        _layer, table = tracer.layer_metrics(rec, 1)
        counts.append({k: v.get("calls", v.get("count")) for k, v in table.items()})
    assert counts[0] == counts[1]
    assert counts[0]["twistor.is_superhorizontal"] == 1
    assert counts[0]["field.mul"] > 0 and counts[0]["g2.cross"] == 1
    assert field.AlgScalar.__mul__ is original


def test_counters_are_thread_safe():
    rec = tracer.Recorder()
    bump = rec.counted(lambda: None, "x")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [bump() for _ in range(20000)])
                   for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert rec.merged()[2]["x"] == 6 * 20000


def test_self_time_excludes_children():
    rec = tracer.Recorder()
    inner = rec.timed(lambda: sum(range(20000)), "inner", None)
    outer = rec.timed(lambda: [inner() for _ in range(5)], "outer", None)
    outer()
    stats, _groups, _counts, spans = rec.merged()
    assert stats["inner"][0] == 5 and stats["outer"][0] == 1
    assert stats["outer"][2] == pytest.approx(stats["outer"][1] - stats["inner"][1], abs=1e-6)
    parents = {s[3]: s[1] for s in spans}
    outer_id = next(s[0] for s in spans if s[3] == "outer")
    assert parents["inner"] == outer_id


# --------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_lists_the_printed_metrics():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [m[0] for m in tracer.LAYER_METRICS]
    assert [m["unit"] for m in BENCHMARK["per_layer"]] == [m[1] for m in tracer.LAYER_METRICS]
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(plan.WORKLOADS)
