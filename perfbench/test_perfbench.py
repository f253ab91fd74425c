"""Tests of the benchmark's own code: span arithmetic, the tracer, the checks."""

import importlib
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Target, Tracer  # noqa: E402


def test_self_times_of_nested_spans():
    spans = [
        Span("root", -1, 0, 100),
        Span("a", 0, 10, 40),
        Span("a.a", 1, 20, 30),
        Span("b", 0, 50, 60),
        Span("other-root", -1, 200, 250),
    ]
    assert tracing.self_times(spans) == [100 - 30 - 10, 30 - 10, 10, 10, 50]


def test_self_times_sum_to_the_root():
    spans = [Span("r", -1, 0, 1000)]
    for i in range(10):
        spans.append(Span("x", 0, 100 * i, 100 * i + 90))
        spans.append(Span("y", len(spans) - 1, 100 * i + 5, 100 * i + 85))
    assert sum(tracing.self_times(spans)) == 1000


def test_tail_ms_needs_ten_samples_beyond():
    assert tracing.tail_ms([]) == 0.0
    assert tracing.tail_ms([1.0, 5.0, 3.0]) == 5.0
    values = [float(i) for i in range(1, 101)]
    assert tracing.tail_ms(values) == 90.0  # p99 has one sample beyond, p90 has ten


def test_tracer_rebinds_every_import_and_restores():
    import hitbox.curves as curves
    import hitbox.factorq as factorq
    import hitbox.polys as polys

    original_rr = factorq.rational_roots
    original_spec = polys.BiPoly.specialize
    targets = (
        Target("curves", "bounded_point_search", "curves.point_search"),
        Target("factorq", "rational_roots", "factorq.rational_roots"),
        Target("polys", "BiPoly.specialize", "polys.specialize"),
        Target("factorq", "_helper_that_was_removed", "factorq.gone"),
    )
    tracer = Tracer()
    tracer.install(targets)
    try:
        assert curves.rational_roots is factorq.rational_roots is not original_rr
        curves.bounded_point_search(curves.PlaneCurve.from_text("X^2 - 3*(T^6-1)"), 3)
    finally:
        tracer.uninstall()
    assert factorq.rational_roots is original_rr and curves.rational_roots is original_rr
    assert polys.BiPoly.specialize is original_spec
    assert tracer.absent == ["factorq._helper_that_was_removed"]
    names = [s.name for s in tracer.spans]
    fibres = len(checks.rationals_up_to(3))
    assert names.count("polys.specialize") == names.count("factorq.rational_roots") == fibres
    assert all(s.parent == 0 for s in tracer.spans[1:])
    m = tracing.layer_metrics(tracer, (tracer.spans[0].end - tracer.spans[0].start) / 1e9)
    assert m["curves.fibres"] == fibres
    assert 0 < m["polys.specialize.share"] < 1


def test_quiet_sweep_adds_each_steps_fastest_time_and_the_fastest_rest():
    quiet = run.QuietTime()
    for wall, steps in ((10.0, [3.0, 4.0]), (8.0, [4.0, 2.0]), (9.0, [5.0, 3.0])):  # rests 3, 2, 1
        quiet.add(wall, steps)
    assert quiet.value() == (3.0 + 2.0 + 1.0, "fastest time of each step")
    quiet.add(9.5, [1.0])  # a sweep with another number of steps
    assert quiet.value() == (8.0, "fastest whole repeat")
    untimed = run.QuietTime()
    untimed.add(2.0, [])
    assert untimed.value() == (2.0, "fastest whole repeat")


def test_step_timer_times_each_call_or_each_item_and_restores():
    for name in ("verify-x6", "search"):  # a plain function, a generator
        w = workloads.WORKLOADS[name]
        w = workloads.Workload(w.name, w.kind, w.fixture, 3, w.step)
        module = importlib.import_module(w.step[0])
        original = getattr(module, w.step[1])
        state = workloads.setup(w)
        times = []
        with run.StepTimer(times, w.step):
            assert getattr(module, w.step[1]) is not original
            out = workloads.call(state)
        assert getattr(module, w.step[1]) is original
        n = out.checked if w.kind == "verify" else len(checks.rationals_up_to(3))
        assert len(times) == n > 0 and all(t > 0 for t in times)
    with run.StepTimer(times, ("hitbox.harness", "_helper_that_was_removed")):
        workloads.call(state)
    assert len(times) == n


def test_import_timer_takes_nested_imports_out_of_the_importers_time(tmp_path, monkeypatch):
    import probe

    (tmp_path / "bench_outer.py").write_text("import bench_inner\n")
    (tmp_path / "bench_inner.py").write_text("import time\ntime.sleep(0.05)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    timer = probe.ImportTimer()
    sys.meta_path.insert(0, timer)
    try:
        importlib.import_module("bench_outer")
    finally:
        sys.meta_path.remove(timer)
        sys.modules.pop("bench_outer", None)
        sys.modules.pop("bench_inner", None)
    assert set(timer.steps) == {"bench_outer", "bench_inner"}
    assert timer.steps["bench_inner"] >= 0.05 > timer.steps["bench_outer"] >= 0


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = tracing.layer_metric_names() + ["trace.overhead_frac", "indeterminate_frac"]
    assert layer == {n: run.layer_unit(n) for n in names}
    assert {m["name"] for m in spec["end_to_end"]} == {"params_per_s", "setup_s", "peak_rss_mb"}


# -- the checks reject tampered output ------------------------------------------------


def test_search_check_rejects_a_dropped_point():
    expected = checks.search_points(20)
    assert expected == [(Fraction(-1), Fraction(0)), (Fraction(1), Fraction(0))]
    assert checks.search_problems(list(expected), expected) == []
    assert checks.search_problems(expected[:1], expected)
    assert checks.search_problems(expected + expected[:1], expected)


def _verify_pairs(name, bound):
    step = workloads.WORKLOADS["verify-a4"].step
    w = workloads.Workload(f"verify-{name}", "verify", name, bound, step)
    state = workloads.setup(w)
    state.expected = checks.EXPECTED_EXCEPTIONAL[name](bound)
    report = workloads.call(state)
    return report, [(r.t, r.witness) for r in report.records], state.expected


def test_verify_check_accepts_the_real_report_and_rejects_an_extra_exceptional_t():
    report, pairs, expected = _verify_pairs("fermat-x6", 4)
    args = ("fermat-x6", 4, report.passed, report.checked)
    assert checks.verify_problems(*args, pairs, expected) == []
    # t = 2 claimed exceptional
    tampered = [(t, (3, Fraction(-2)) if t == 2 else w) for t, w in pairs]
    assert checks.witness_problems("fermat-x6", [(Fraction(0), (3, Fraction(-6)))]) == []
    assert any("extra [Fraction(2, 1)]" in p for p in checks.verify_problems(*args, tampered, expected))
    assert checks.enumerate_problems("fermat-x6", [(Fraction(0), (2, Fraction(-3)))], expected) == []
    assert checks.enumerate_problems(
        "fermat-x6", [(Fraction(0), (2, Fraction(-3))), (Fraction(2), (2, Fraction(-3)))], expected
    )


def test_verify_check_rejects_a_witness_off_its_curve():
    report, pairs, expected = _verify_pairs("serre-a4", 10)
    args = ("serre-a4", 10, report.passed, report.checked)
    assert expected == {Fraction(-9, 10), Fraction(9, 10)}
    assert checks.verify_problems(*args, pairs, expected) == []
    tampered = [(t, (w[0], w[1] + 1) if w else None) for t, w in pairs]
    problems = checks.verify_problems(*args, tampered, expected)
    assert problems and all("is not a root" in p for p in problems)
    assert checks.verify_problems("serre-a4", 10, False, report.checked, pairs, expected)
    assert checks.verify_problems("serre-a4", 10, True, report.checked - 1, pairs, expected)


def test_a4_family_images_contain_the_parametrized_values():
    images = checks.a4_family_images(30)
    for v in checks.rationals_up_to(5):
        if v * v == 1:
            continue
        t = (v**3 - 9 * v) / (9 * (1 - v * v))
        if t != 0 and checks.height(t) <= 30:
            assert t in images
    assert Fraction(0) not in images
