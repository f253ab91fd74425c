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


def _snapshot_with_git_status(
    tmp_path, monkeypatch, status: str, returncode: int = 0, head: str = "abc"
) -> tuple[dict, list]:
    import subprocess

    snap = _load()
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    monkeypatch.setattr(snap, "ROOT", tmp_path)
    monkeypatch.setattr(snap, "OUT", out)
    (out / "verify-a4-seed0-trace0.json").write_text(json.dumps(_report({"params_per_s": 900.0}, "abc")))
    (out / "verify-a4-seed0-trace1.json").write_text(json.dumps(_report({"galois.sieve.share": 0.0}, "abc")))
    calls = []

    def git(cmd, **kw):
        calls.append(cmd)
        out = head + "\n" if "rev-parse" in cmd else status
        return subprocess.CompletedProcess(cmd, returncode, stdout=out, stderr="")

    monkeypatch.setattr(snap.subprocess, "run", git)
    assert snap.main(["verify-a4"]) == 0
    return json.loads((tmp_path / "BENCH_verify-a4.json").read_text()), calls


def test_snapshot_marks_both_runs_dirty_when_a_tracked_file_differs_from_head(tmp_path, monkeypatch):
    got, calls = _snapshot_with_git_status(tmp_path, monkeypatch, " M src/hitbox/harness.py\n")
    assert got["end_to_end"]["git_revision"] == got["layers"]["git_revision"] == "abc"
    assert got["end_to_end"]["dirty"] is got["layers"]["dirty"] is True
    # one status call, tracked files only, and the snapshots themselves left out
    status = [c for c in calls if "status" in c]
    assert len(status) == 1 and status[0][:2] == ["git", "-C"]
    assert "--untracked-files=no" in status[0] and ":(exclude)BENCH_*.json" in status[0]


def test_snapshot_of_a_clean_tree_is_not_dirty(tmp_path, monkeypatch):
    got, _ = _snapshot_with_git_status(tmp_path, monkeypatch, "")
    assert got["end_to_end"]["dirty"] is got["layers"]["dirty"] is False


def test_snapshot_marks_a_run_dirty_when_head_is_not_its_revision(tmp_path, monkeypatch):
    # run on an uncommitted tree at abc, committed as def before the snapshot
    got, _ = _snapshot_with_git_status(tmp_path, monkeypatch, "", head="def")
    assert got["end_to_end"]["git_revision"] == "abc"
    assert got["end_to_end"]["dirty"] is got["layers"]["dirty"] is True


def test_snapshot_outside_a_checkout_leaves_dirty_unknown(tmp_path, monkeypatch):
    got, _ = _snapshot_with_git_status(tmp_path, monkeypatch, "", returncode=128)
    assert got["end_to_end"]["dirty"] is None
