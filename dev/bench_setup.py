"""Compare one workload's fresh-process set-up time with another revision's.

    python3 dev/bench_setup.py --against REV [--workload verify-x6] [-n 10]

Extracts the committed files of REV (``git archive``) into a temporary
directory, then runs ``perfbench/probe.py`` n times against each side, in
fresh processes and alternating pairs: this tree first in even pairs, REV
first in odd ones, so that a drift of the machine's speed falls on both.
Both sides are timed by this tree's probe, which imports the ``src`` of
the checkout it is given.  Prints each side's median and quartiles of
``setup_s`` and the pairs in which this tree was faster.  It edits
nothing in either tree; the extracted copy is removed on exit.
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


def extract(rev: str, into: Path) -> None:
    """The committed files of rev, written under into."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def report(workload: str, rev: str, ours: list[float], theirs: list[float]) -> str:
    wins = sum(a < b for a, b in zip(ours, theirs))
    lines = [f"{workload} setup_s, {len(ours)} alternating fresh-process pairs"]
    for name, xs in (("this tree", ours), (rev, theirs)):
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        lines.append(f"  {name:>12}: median {q2 * 1e3:.1f} ms, quartiles {q1 * 1e3:.1f}-{q3 * 1e3:.1f} ms")
    lines.append(f"  this tree lower in {wins} of {len(ours)} pairs")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, metavar="REV", help="git revision to compare with")
    ap.add_argument("--workload", default="verify-x6")
    ap.add_argument("-n", type=int, default=10, help="pairs of probes (at least 2)")
    args = ap.parse_args(argv)
    if args.n < 2:
        ap.error("-n must be at least 2")
    ours, theirs = [], []
    with tempfile.TemporaryDirectory(prefix="bench_setup-") as tmp:
        other = Path(tmp)
        extract(args.against, other)
        for i in range(args.n):
            sides = [(ROOT, ours), (other, theirs)]
            for root, out in sides if i % 2 == 0 else sides[::-1]:
                out.append(probe(root, args.workload))
    print(report(args.workload, args.against, ours, theirs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
