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
