import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "dev" / "bench_setup.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_setup", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_report_gives_each_sides_median_quartiles_and_the_wins():
    bench = _load()
    ours = [0.040, 0.041, 0.039, 0.052]
    theirs = [0.053, 0.052, 0.057, 0.050]
    assert bench.report("verify-x6", "abc123", ours, theirs).splitlines() == [
        "verify-x6 setup_s, 4 alternating fresh-process pairs",
        "     this tree: median 40.5 ms, quartiles 39.2-49.2 ms",
        "        abc123: median 52.5 ms, quartiles 50.5-56.0 ms",
        "  this tree lower in 3 of 4 pairs",
    ]


def test_main_probes_both_sides_in_alternating_order(monkeypatch, capsys):
    bench = _load()
    calls = []
    monkeypatch.setattr(bench, "extract", lambda rev, into: calls.append(("extract", rev)))
    monkeypatch.setattr(bench, "probe", lambda root, w: calls.append((root == bench.ROOT, w)) or 0.05)
    assert bench.main(["--against", "HEAD~1", "--workload", "verify-a4", "-n", "3"]) == 0
    assert calls == [("extract", "HEAD~1")] + [(side, "verify-a4") for side in (True, False, False, True, True, False)]
    assert "this tree lower in 0 of 3 pairs" in capsys.readouterr().out


def test_report_counts_the_pairs_in_which_this_tree_is_higher_for_throughput():
    bench = _load()
    ours = [36000.0, 35500.0, 34000.0, 29500.0]
    theirs = [29000.0, 29500.0, 30000.0, 30500.0]
    assert bench.report("verify-a4", "abc123", ours, theirs, "params_per_s").splitlines() == [
        "verify-a4 params_per_s, 4 alternating fresh-process pairs",
        "     this tree: median 34750.0 params/s, quartiles 30625.0-35875.0 params/s",
        "        abc123: median 29750.0 params/s, quartiles 29125.0-30375.0 params/s",
        "  this tree higher in 3 of 4 pairs",
    ]


def test_main_runs_each_sides_benchmark_for_throughput_as_long_as_the_benchmark(monkeypatch, capsys, tmp_path):
    bench = _load()
    calls = []
    monkeypatch.setattr(bench, "extract", lambda rev, into: calls.append(("extract", rev)))
    monkeypatch.setattr(bench, "probe", lambda root, w: calls.append("probe"))
    monkeypatch.setattr(bench, "run", lambda root, w, s: calls.append((root == bench.ROOT, w, s)) or 30000.0)
    monkeypatch.setattr(bench, "BENCHMARK", tmp_path / "BENCHMARK.json")
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 25}')
    argv = ["--against", "HEAD~1", "--workload", "verify-a4", "--metric", "params_per_s", "-n", "2"]
    assert bench.main(argv) == 0
    assert calls == [("extract", "HEAD~1")] + [(side, "verify-a4", 25) for side in (True, False, False, True)]
    assert "this tree higher in 0 of 2 pairs" in capsys.readouterr().out


def test_run_reads_the_params_per_s_of_the_last_line(monkeypatch, tmp_path):
    import subprocess

    bench = _load()
    seen = []
    last = '{"correct": true, "metrics": {"params_per_s": {"value": 31234.5, "unit": "params/s"}}}'

    def fake(cmd, **kw):
        seen.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout="workload verify-a4: ...\n" + last + "\n")

    monkeypatch.setattr(bench.subprocess, "run", fake)
    assert bench.run(tmp_path, "verify-a4", 3.0) == 31234.5
    assert seen[0][1:] == [str(tmp_path / "perfbench" / "run.py"), "--workload", "verify-a4", "--trace", "0", "--seconds", "3.0"]



def test_main_prints_the_claim_rules_verdict_after_the_pairs(monkeypatch, capsys, tmp_path):
    bench = _load()
    figures = iter([30000.0, 26000.0, 25000.0, 31000.0, 32000.0, 25500.0, 24000.0, 29000.0])
    monkeypatch.setattr(bench, "extract", lambda rev, into: None)
    monkeypatch.setattr(bench, "run", lambda root, w, s: next(figures))
    monkeypatch.setattr(bench, "BENCHMARK", tmp_path / "BENCHMARK.json")
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 25}')
    argv = ["--against", "abc123", "--workload", "enumerate-x6", "--metric", "params_per_s", "-n", "4"]
    assert bench.main(argv) == 0
    # this tree 30000, 31000, 32000, 29000; abc123 26000, 25000, 25500, 24000
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "  this tree higher in 4 of 4 pairs",
        "  claim rule: better in at least 9 of 10 pairs: yes; median better by 5250.0 params/s, "
        "more than abc123's interquartile range 1625.0 params/s: yes",
        "  median change: +20.8% of abc123's",
    ]


def test_verdict_needs_nine_wins_in_ten_and_a_gap_wider_than_the_quartiles():
    bench = _load()
    theirs = [0.050, 0.052, 0.048, 0.051, 0.049, 0.053, 0.047, 0.050, 0.050, 0.050]
    ours = [t - 0.001 for t in theirs[:9]] + [0.051]  # lower in 9 of 10, by 1 ms
    assert bench.verdict("abc123", ours, theirs).splitlines() == [
        "  claim rule: better in at least 9 of 10 pairs: yes; median better by 1.0 ms, "
        "more than abc123's interquartile range 2.5 ms: no",
        "  median change: -2.0% of abc123's",
    ]
