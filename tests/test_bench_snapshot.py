import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "dev" / "bench_snapshot.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _report(metrics: dict, revision: str) -> dict:
    return {
        "env": {"python": "3.11.7", "nproc": 2, "git_revision": revision},
        "calibration_s": [0.29, 0.28],
        "failed": 0,
        "setup_problems": [],
        "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()},
    }


def test_snapshot_copies_end_to_end_and_layer_figures(tmp_path, monkeypatch):
    snap = _load()
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    monkeypatch.setattr(snap, "ROOT", tmp_path)
    monkeypatch.setattr(snap, "OUT", out)
    untraced = {"params_per_s": 800.0, "setup_s": 0.15, "peak_rss_mb": 25.0}
    traced = {
        "galois.sieve.share": 0.03,
        "galois.sieve.candidates_mean": 1.2,
        "galois.sieve.primes": 0.0,
        "galois.sieve.self_s": 0.01,
        "indeterminate_frac": 0.0,
    }
    (out / "verify-x6-seed0-trace0.json").write_text(json.dumps(_report(untraced, "abc")))
    (out / "verify-x6-seed0-trace1.json").write_text(json.dumps(_report(traced, "abc")))
    assert snap.main(["verify-x6"]) == 0
    got = json.loads((tmp_path / "BENCH_verify-x6.json").read_text())
    assert got["workload"] == "verify-x6"
    assert got["end_to_end"]["metrics"] == untraced
    assert got["end_to_end"]["git_revision"] == "abc" and got["end_to_end"]["correct"]
    assert got["end_to_end"]["machine"]["nproc"] == 2
    # shares and the named traced figures, not every self time, and not
    # the sieve's prime count, which the tracer no longer sees
    assert got["layers"]["metrics"] == {
        "galois.sieve.share": 0.03,
        "galois.sieve.candidates_mean": 1.2,
        "indeterminate_frac": 0.0,
    }
