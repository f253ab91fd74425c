"""Compare one workload's end-to-end figure with another revision's.

    python3 dev/bench_setup.py --against REV [--workload verify-x6] [-n 10]
    python3 dev/bench_setup.py --against REV --metric params_per_s [--workload verify-a4]

Extracts the committed files of REV (``git archive``) into a temporary
directory, then measures each side n times, in fresh processes and
alternating pairs: this tree first in even pairs, REV first in odd ones,
so that a drift of the machine's speed falls on both.

``setup_s`` (the default) runs ``perfbench/probe.py`` once per
measurement; both sides are timed by this tree's probe, which imports the
``src`` of the checkout it is given.  ``params_per_s`` runs each side's
own ``perfbench/run.py --workload W --trace 0 --seconds S``, S being the
``run_seconds`` of this tree's ``BENCHMARK.json``, so that each run is as
long as the benchmark's own; it writes its details under that side's
git-ignored ``perfbench/out/``.  Prints
each side's median and quartiles, the pairs in which this tree was
better, whether that meets the claim rule (better in at least 9 of 10
pairs, by more than REV's interquartile range), and the change of the
median.  It edits no tracked file of either tree; the extracted copy is
removed on exit.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = ROOT / "perfbench" / "probe.py"
BENCHMARK = ROOT / "BENCHMARK.json"

# metric -> (scale, unit, better): figures are printed times the scale
METRICS = {
    "setup_s": (1e3, "ms", "lower"),
    "params_per_s": (1.0, "params/s", "higher"),
}


def probe(root: Path, workload: str) -> float:
    """One set-up of the workload on the checkout at root, in seconds."""
    proc = subprocess.run(
        [sys.executable, str(PROBE), str(root), workload],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run(root: Path, workload: str, seconds: float) -> float:
    """One untraced benchmark run of the workload by the checkout at root,
    in parameters per second."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--trace", "0", "--seconds", str(seconds)],
        capture_output=True,
        text=True,
        timeout=seconds + 300,
        check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        raise SystemExit(f"{workload} on {root}: the run failed its checks")
    return out["metrics"]["params_per_s"]["value"]


def extract(rev: str, into: Path) -> None:
    """The committed files of rev, written under into."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def _wins(ours: list[float], theirs: list[float], better: str) -> int:
    """The pairs in which this tree's figure is the better one; a tie counts for neither."""
    return sum((a < b) if better == "lower" else (a > b) for a, b in zip(ours, theirs))


def report(workload: str, rev: str, ours: list[float], theirs: list[float], metric: str = "setup_s") -> str:
    scale, unit, better = METRICS[metric]
    lines = [f"{workload} {metric}, {len(ours)} alternating fresh-process pairs"]
    for name, xs in (("this tree", ours), (rev, theirs)):
        q1, q2, q3 = (q * scale for q in statistics.quantiles(xs, n=4))
        lines.append(f"  {name:>12}: median {q2:.1f} {unit}, quartiles {q1:.1f}-{q3:.1f} {unit}")
    lines.append(f"  this tree {better} in {_wins(ours, theirs, better)} of {len(ours)} pairs")
    return "\n".join(lines)


def verdict(rev: str, ours: list[float], theirs: list[float], metric: str = "setup_s") -> str:
    """The claim rule, read off the pairs: a gain counts when this tree is
    better in at least 9 of 10 pairs and its median is better than rev's
    by more than rev's interquartile range.  The change of the median
    beside it is what a no-regression row compares with the benchmark's
    bound."""
    scale, unit, better = METRICS[metric]
    wins = 10 * _wins(ours, theirs, better) >= 9 * len(ours)
    q1, median, q3 = statistics.quantiles(theirs, n=4)
    change = statistics.median(ours) - median
    gap = change if better == "higher" else -change
    return "\n".join([
        f"  claim rule: better in at least 9 of 10 pairs: {'yes' if wins else 'no'}; "
        f"median better by {gap * scale:.1f} {unit}, more than {rev}'s interquartile range "
        f"{(q3 - q1) * scale:.1f} {unit}: {'yes' if gap > q3 - q1 else 'no'}",
        f"  median change: {100 * change / median:+.1f}% of {rev}'s",
    ])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, metavar="REV", help="git revision to compare with")
    ap.add_argument("--workload", default="verify-x6")
    ap.add_argument("--metric", choices=METRICS, default="setup_s")
    ap.add_argument("-n", type=int, default=10, help="pairs of measurements (at least 2)")
    args = ap.parse_args(argv)
    if args.n < 2:
        ap.error("-n must be at least 2")
    if args.metric == "setup_s":
        measure = probe
    else:
        seconds = json.loads(BENCHMARK.read_text())["run_seconds"]

        def measure(root, workload):
            return run(root, workload, seconds)
    ours, theirs = [], []
    with tempfile.TemporaryDirectory(prefix="bench_setup-") as tmp:
        other = Path(tmp)
        extract(args.against, other)
        for i in range(args.n):
            sides = [(ROOT, ours), (other, theirs)]
            for root, out in sides if i % 2 == 0 else sides[::-1]:
                out.append(measure(root, args.workload))
    print(report(args.workload, args.against, ours, theirs, args.metric))
    print(verdict(args.against, ours, theirs, args.metric))
    return 0


if __name__ == "__main__":
    sys.exit(main())
