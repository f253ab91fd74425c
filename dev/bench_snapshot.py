"""Copy one workload's benchmark results into a checked-in BENCH_<workload>.json.

``perfbench/run.py`` writes its results to the git-ignored
``perfbench/out/<workload>-seed<N>-trace<0|1>.json``.  This script copies
the end-to-end figures (``params_per_s``, ``setup_s``, ``peak_rss_mb``)
from the newest untraced run, the layer shares and sieve figures from the
newest traced run, and each run's git revision and machine, into
``BENCH_<workload>.json`` at the repository root, so that the performance
trajectory lives in version control.  A run stamps the revision of HEAD
at run time, uncommitted changes or not, so each revision is written with
``"dirty": true`` when its figures may be of uncommitted code: at
snapshot time a tracked file other than the ``BENCH_*.json`` snapshots
differs from HEAD, or HEAD is no longer the run's revision (a commit made
after the run).  ``null`` outside a git checkout.

Run from the repository root after the benchmark, e.g.::

    python3 perfbench/run.py --workload verify-x6 --trace 0
    python3 perfbench/run.py --workload verify-x6 --trace 1
    python3 dev/bench_snapshot.py verify-x6
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

END_TO_END = ("params_per_s", "setup_s", "peak_rss_mb")
# traced figures kept beside the shares: what the sieve and the sweep did
TRACED = (
    "galois.sieve.candidates_mean",
    "galois.groups_match.calls",
    "indeterminate_frac",
)


def newest(workload: str, traced: int) -> Path | None:
    files = sorted(OUT.glob(f"{workload}-seed*-trace{traced}.json"), key=lambda p: p.stat().st_mtime)
    return files[-1] if files else None


def git(*args: str) -> str | None:
    """The stripped output of ``git args`` at the root; None outside a git
    checkout."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    except OSError:  # no git
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def tree_state() -> tuple[str | None, bool | None]:
    """HEAD's revision, and whether a tracked file, the snapshots aside,
    differs from it; (None, None) outside a git checkout."""
    status = git("status", "--porcelain", "--untracked-files=no", "--", ".", ":(exclude)BENCH_*.json")
    if status is None:
        return None, None
    return git("rev-parse", "HEAD"), bool(status)


def run_summary(path: Path, keep, state: tuple[str | None, bool | None]) -> dict:
    report = json.loads(path.read_text())
    env = report["env"]
    head, dirty = state
    revision = env.get("git_revision")
    if dirty is not None and revision != head:
        dirty = True  # committed after the run, or run at another revision
    return {
        "file": str(path.relative_to(ROOT)),
        "git_revision": revision,
        "dirty": dirty,
        "machine": {
            "python": env.get("python"),
            "nproc": env.get("nproc"),
            "calibration_s": report.get("calibration_s"),
        },
        "correct": report["failed"] == 0 and not report.get("setup_problems"),
        "metrics": {k: v["value"] for k, v in sorted(report["metrics"].items()) if keep(k)},
    }


def snapshot(workload: str) -> dict:
    untraced, traced = newest(workload, 0), newest(workload, 1)
    if untraced is None and traced is None:
        raise SystemExit(f"no results for {workload} in {OUT}; run perfbench/run.py first")
    out = {"workload": workload, "platform": platform.platform()}
    state = tree_state()
    if untraced is not None:
        out["end_to_end"] = run_summary(untraced, lambda k: k in END_TO_END, state)
    if traced is not None:
        out["layers"] = run_summary(traced, lambda k: k.endswith(".share") or k in TRACED, state)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", help="e.g. verify-x6")
    args = ap.parse_args(argv)
    target = ROOT / f"BENCH_{args.workload}.json"
    target.write_text(json.dumps(snapshot(args.workload), indent=2, sort_keys=True) + "\n")
    print(f"wrote {target.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
