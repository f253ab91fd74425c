"""hitbox benchmark: exact bounded-height sweeps, timed and checked.

    python3 perfbench/run.py --workload verify-a4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20 --trace 0

Runs from the root of a source checkout and imports hitbox from its
``src/``.  Each workload is a closed loop: one caller waits for each
sweep to finish before starting the next.  The first sweep is a warm-up;
every sweep, warm-up included, is checked against answers computed
without hitbox (``checks.py``) and counts in ``attempted``.

With ``--trace 0`` the last line reports the end-to-end metrics:
parameters per second of a quiet-machine sweep, built from the fastest
repeat of each parameter's step (``QuietTime``), the set-up time of a
quiet machine built in the same way from set-ups in fresh processes,
and peak RSS.  With ``--trace 1`` it reports
per-layer figures from one traced set-up plus one traced sweep
(``tracing.py``), and the tracing overhead: the fastest traced sweep
against the fastest untraced one of the same run.  All sweeps are
exhaustive and serial, so ``--seed`` is recorded but changes no input.

Details of each run (samples, digests of the canonical output JSON, the
environment, a Fraction calibration loop, and the spans of a traced run)
are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 12
POOL_WORKERS = 2  # nproc of the 2-vCPU VM the benchmark was sized on

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def calibrate(n: int = 30_000) -> float:
    """A fixed pure-Fraction loop; recorded to show machine drift, nothing more."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(1, n):
        q = Fraction(k, k % 97 + 1) * Fraction(k % 89 + 2, 7) + Fraction(1, 3)
        acc ^= q.numerator & 0xFFFF
    return time.perf_counter() - t0


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(w: workloads.Workload, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "HITBOX_THREADS": os.environ.get("HITBOX_THREADS"),
        "height": w.height,
        "workers": 1,
        "seed": seed,
        "seed_note": "exhaustive sweep: the seed changes no input",
    }


class Loop:
    """Runs and checks calls, counting attempts and failures."""

    def __init__(self, state: workloads.State, time_steps: bool = False):
        self.state = state
        self.step = state.workload.step if time_steps else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, int] = {}
        self.indeterminate: tuple[int, int] | None = None
        self.quiet = QuietTime()

    def run(self, workers: int = 1) -> float | None:
        """One call; returns its wall time, or None if it failed."""
        gc.collect()
        self.attempted += 1
        steps: list[float] = []
        try:
            with StepTimer(steps, self.step):
                t0 = time.perf_counter()
                out = workloads.call(self.state, workers)
                wall = time.perf_counter() - t0
            outcome = workloads.judge(self.state, out)
        except Exception as e:  # a failing call is counted, not fatal
            self.failed += 1
            self.problems.append(f"raised {type(e).__name__}: {e}")
            return None
        self.digests[outcome.digest] = self.digests.get(outcome.digest, 0) + 1
        self.indeterminate = outcome.indeterminate
        if outcome.problems:
            self.failed += 1
            self.problems.extend(outcome.problems[:5])
            return None
        self.quiet.add(wall, steps)
        return wall


class StepTimer:
    """Times each parameter's step of a serial sweep, from outside.

    A sweep reaches each parameter through one function, looked up as a
    global of its module (``step`` is the module and the name).  While
    active, that name is bound to a wrapper that appends to ``times``,
    for a plain function, each call's wall time, and for a generator of
    the parameters, the time the sweep spends on each item before asking
    for the next.  The wrapper costs well under a microsecond per step:
    0.4% of a search sweep, whose steps (fibres) take 37 microseconds;
    a verify step takes about 20 ms.  With ``step`` None, or once the
    function is gone, it does nothing.
    """

    def __init__(self, times: list[float], step: tuple[str, str] | None):
        self.times = times
        self.module = importlib.import_module(step[0]) if step else None
        self.name = step[1] if step else None
        self.inner = getattr(self.module, self.name, None) if step else None

    def __enter__(self):
        inner = self.inner
        if inner is None:
            return self
        times, clock = self.times, time.perf_counter

        if inspect.isgeneratorfunction(inner):

            def step(*args, **kwargs):
                for item in inner(*args, **kwargs):
                    t0 = clock()
                    yield item
                    times.append(clock() - t0)

        else:

            def step(*args, **kwargs):
                t0 = clock()
                try:
                    return inner(*args, **kwargs)
                finally:
                    times.append(clock() - t0)

        setattr(self.module, self.name, step)
        return self

    def __exit__(self, *exc):
        if self.inner is not None:
            setattr(self.module, self.name, self.inner)
        return False


class QuietTime:
    """The time of a quiet machine, from repeats of one task on the same inputs.

    The task is a sweep, or a set-up.  Interference from other tenants of
    a shared machine only ever slows a step down, so the best estimate of
    each step's own cost is its fastest repeat.  With the step times of
    every repeat (in the same order each time) this is the sum of each
    step's fastest time plus the fastest remainder of a repeat (its wall
    time outside the steps); otherwise it is the fastest whole repeat.
    Only running minima are kept, so memory does not grow with the number
    of repeats.
    """

    def __init__(self):
        self.fastest = math.inf
        self.step_min: list[float] | None = None
        self.rest = math.inf
        self.usable = True

    def add(self, wall: float, steps: list[float]) -> None:
        self.fastest = min(self.fastest, wall)
        if not steps or (self.step_min is not None and len(steps) != len(self.step_min)):
            self.usable = False
        elif self.step_min is None:
            self.step_min = list(steps)
        else:
            self.step_min = list(map(min, self.step_min, steps))
        self.rest = min(self.rest, wall - sum(steps))

    def value(self) -> tuple[float, str]:
        """The estimate in seconds, and which of the two it is."""
        if self.usable and self.step_min:
            return sum(self.step_min) + self.rest, "fastest time of each step"
        return self.fastest, "fastest whole repeat"


def setup_probe(name: str) -> tuple[float, list[float]]:
    """One workload set-up in a fresh process; returns its time and steps."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(ROOT), name],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], [s for _, s in out["steps"]]


def measure(w: workloads.Workload, seconds: float, report: dict) -> dict:
    """Untraced closed loop; returns the end-to-end metrics."""
    state = workloads.setup(w)
    report["setup_problems"] = workloads.expect(state, fixture_raw(w))
    loop = Loop(state, time_steps=True)
    loop.run()  # warm-up
    loop.quiet = QuietTime()
    # Set-up probes are spread over the run, between sweeps, so that the
    # fastest repeat of each set-up step, like that of a sweep step, is
    # likely to have met a quiet spell of the machine.
    walls, setups, setup_quiet = [], [], QuietTime()
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        wall = loop.run()
        if wall is not None:
            walls.append(wall)
        now = time.perf_counter()
        if len(setups) < SETUP_PROBES and now >= start + len(setups) * seconds / SETUP_PROBES:
            setup_s, steps = setup_probe(w.name)
            setups.append(setup_s)
            setup_quiet.add(setup_s, steps)
        elif now >= deadline:
            break
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["samples"] = {"sweep_s": walls, "setup_s": setups}
    report["params"] = state.params
    finish(report, loop)
    if not walls:
        raise SystemExit("no sweep completed correctly")
    quiet, basis = loop.quiet.value()
    report["steps_per_sweep"] = len(loop.quiet.step_min or [])
    report["quiet_sweep_s"] = quiet
    report["quiet_basis"] = basis
    report["quiet_setup_s"], report["setup_basis"] = setup_quiet.value()
    report["median_params_per_s"] = state.params / statistics.median(walls)
    report["fastest_params_per_s"] = state.params / min(walls)
    report["median_setup_s"] = statistics.median(setups)
    # Every sweep (and every set-up) repeats exactly the same operations,
    # and interference from other tenants of a shared machine only ever
    # slows one down.  On a 2-vCPU VM it came in bursts and phases of a
    # second to minutes that slowed Fraction arithmetic by up to 2.5x.
    # In 20 s windows of such a machine, the window-to-window spread
    # (IQR / median) of the fastest repeat of a fixed Fraction loop was
    # about 0.05 for 10-40 ms repeats, 0.08 for 130 ms and 0.15 for 400 ms:
    # the shorter the timed step, the likelier its fastest repeat met a
    # quiet machine.  So each parameter's step is timed (``StepTimer``)
    # and the run reports a quiet sweep built from them (``QuietTime``);
    # over runs its spread was 0.03 where that of the fastest whole sweep
    # was 0.14 (enumerate-x6, 25 s runs).  Set-up is timed per imported
    # module (``probe.ImportTimer``) in the same way: in slow phases the
    # fastest of 12 whole set-ups rose by 40%.
    return {
        "params_per_s": (state.params / quiet, "params/s"),
        "setup_s": (report["quiet_setup_s"], "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def trace(w: workloads.Workload, seconds: float, report: dict) -> dict:
    """One traced set-up and sweep, then untraced sweeps for the overhead."""
    import hitbox.curves
    import hitbox.harness  # noqa: F401  (the tracer patches loaded modules only)
    import tracing

    deadline = time.perf_counter() + seconds
    layer = tracing.Tracer()
    with layer:
        t0 = time.perf_counter()
        sid = layer.open("bench.setup")
        state = workloads.setup(w)
        layer.close(sid)
        setup_wall = time.perf_counter() - t0
    report["setup_problems"] = workloads.expect(state, fixture_raw(w))
    loop = Loop(state)
    loop.run()  # warm-up
    with layer:
        layer_wall = loop.run()
    indeterminate = loop.indeterminate
    driver = None
    if w.kind == "enumerate":
        # The pool driver is timed in a pooled pass; its workers' spans die
        # with them, so the layer figures come from the serial pass above.
        driver = tracing.Tracer()
        with driver:
            loop.run(workers=POOL_WORKERS)
        report["note"] = (
            f"layer figures from a workers=1 traced pass; harness.driver.self_s "
            f"from a workers={POOL_WORKERS} traced pass"
        )
    # Alternate untraced and traced sweeps until the deadline; the overhead
    # compares the fastest sweep of each.
    traced, untraced = [layer_wall], []
    while True:
        untraced.append(loop.run())
        if time.perf_counter() >= deadline:
            break
        with tracing.Tracer():
            traced.append(loop.run())
    finish(report, loop)
    traced = [t for t in traced if t is not None]
    untraced = [t for t in untraced if t is not None]
    if layer_wall is None or not untraced:
        raise SystemExit("the traced sweep did not complete correctly")
    traced_wall = setup_wall + layer_wall
    metrics = tracing.layer_metrics(layer, traced_wall, driver)
    metrics["trace.overhead_frac"] = min(traced) / min(untraced) - 1
    metrics["indeterminate_frac"] = indeterminate[0] / indeterminate[1] if indeterminate else 0.0
    self_sum = sum(tracing.self_times(layer.spans)) / 1e9
    report["trace"] = {
        "traced_wall_s": traced_wall,
        "setup_wall_s": setup_wall,
        "sweep_wall_s": layer_wall,
        "traced_sweep_s": traced,
        "untraced_sweep_s": untraced,
        "self_sum_s": self_sum,
        "absent": layer.absent,
        "layer": layer.to_json(),
        "driver": driver.to_json() if driver else None,
    }
    if self_sum > traced_wall:
        raise SystemExit(f"self times sum to {self_sum} s > traced wall {traced_wall} s")
    return {name: (value, layer_unit(name)) for name, value in metrics.items()}


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    if stat.endswith("_ms"):
        return "ms"
    if stat.endswith("_s"):
        return "s"
    if stat in ("share", "unusable_ratio", "hit_ratio", "overhead_frac", "indeterminate_frac"):
        return "ratio"
    return "bits" if stat == "bits" else "count"


def fixture_raw(w: workloads.Workload) -> dict | None:
    if w.fixture is None:
        return None
    return json.loads((SRC / "hitbox" / "fixtures" / f"{w.fixture}.json").read_text())


def finish(report: dict, loop: Loop) -> None:
    report["attempted"] = loop.attempted
    report["failed"] = loop.failed
    report["problems"] = report.get("setup_problems", []) + loop.problems[:20]
    report["digests"] = loop.digests
    ind = loop.indeterminate
    report["summary"] = {
        "fail_frac": loop.failed / loop.attempted,
        "indeterminate_frac": ind[0] / ind[1] if ind else None,
    }


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    w = workloads.WORKLOADS[name]
    report: dict = {"workload": name, "traced": traced, "env": environment(w, seed)}
    calib = [calibrate()]
    metrics = (trace if traced else measure)(w, seconds, report)
    calib.append(calibrate())
    report["calibration_s"] = calib
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    if not traced:
        report["summary"].update({k: v for k, (v, _) in metrics.items()})
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{name}-seed{seed}-trace{int(traced)}.json"
    out_file.write_text(json.dumps(report))

    print(f"workload {name}: height {w.height}, workers 1, seed {seed} "
          f"(no effect: exhaustive sweep), python {report['env']['python']}, "
          f"nproc {report['env']['nproc']}, git {report['env']['git_revision']}")
    print(f"calibration loop: {calib[0]:.3f} s before, {calib[1]:.3f} s after")
    if "samples" in report:
        n = len(report["samples"]["sweep_s"])
        print(f"timed sweeps: {n}, set-up probes: {SETUP_PROBES}; reported: "
              f"{report['quiet_basis']} (sweep), {report['setup_basis']} (set-up); "
              f"fastest sweep {report['fastest_params_per_s']:.6g} params/s, "
              f"fastest set-up {min(report['samples']['setup_s']):.6g} s, "
              f"medians {report['median_params_per_s']:.6g} params/s, "
              f"{report['median_setup_s']:.6g} s")
    if "note" in report:
        print("note: " + report["note"])
    print(f"output digests (sha256 of canonical JSON): {report['digests']}")
    for p in report["problems"]:
        print("FAILED CHECK: " + p)
    summ = report["summary"]
    ind = summ["indeterminate_frac"]
    print(f"  {'fail_frac':<40} {summ['fail_frac']:.6g} ratio "
          f"({report['failed']} of {report['attempted']} calls)")
    print(f"  {'indeterminate_frac':<40} " + ("n/a" if ind is None else f"{ind:.6g} ratio"))
    for k, (v, u) in metrics.items():
        print(f"  {k:<40} {v:.6g} {u}")
    print(f"details: {out_file.relative_to(ROOT)}")
    correct = report["failed"] == 0 and not report["setup_problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in its own process, then one summary table."""
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        detail = HERE / "out" / f"{name}-seed{seed}-trace{int(traced)}.json"
        rows.append((name, json.loads(detail.read_text())["summary"]))
    if traced:
        return 0
    cols = [("params_per_s", "params/s"), ("setup_s", "s"), ("indeterminate_frac", "ratio"),
            ("fail_frac", "ratio"), ("peak_rss_mb", "MB")]
    print("\n" + f"{'workload':<14}" + "".join(f"  {f'{c} ({u})':>28}" for c, u in cols))
    for name, summ in rows:
        cells = ["n/a" if summ[c] is None else f"{summ[c]:.6g}" for c, _ in cols]
        print(f"{name:<14}" + "".join(f"  {c:>28}" for c in cells))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hitbox" / "__init__.py").is_file():
        print(f"no hitbox sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hitbox

    if Path(hitbox.__file__).resolve().parent != (SRC / "hitbox").resolve():
        print(f"imported hitbox from {hitbox.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
