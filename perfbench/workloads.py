"""The four sweep workloads: set-up, the timed call, and its checks.

Every workload is an exhaustive serial sweep in canonical order at a
fixed height, so the inputs do not depend on the seed.  On a 2-vCPU Xeon
VM a verify or enumerate sweep takes 0.6-0.8 s and a search sweep 45 ms,
so that a run repeats each parameter's step often enough for its fastest
repeat to have met a quiet machine (see ``run.QuietTime``); the
acceptance-suite heights (verify at 30, enumerate at 100, search at 1000)
take 40-85 s per sweep.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

import checks

SEARCH_CURVE = "X^2 - 3*(T^6-1)"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # verify | enumerate | search
    fixture: str | None
    height: int
    # (module, name) of the function the sweep calls once per parameter
    # through that module's global name; run.StepTimer times each step
    step: tuple[str, str]


WORKLOADS = {
    w.name: w
    for w in (
        # quartic path: factor_over_Q / _good_prime / Hensel dominate
        Workload("verify-a4", "verify", "serre-a4", 6, ("hitbox.harness", "exceptional_test")),
        # sextic path: cycle-type sieve, almost every record indeterminate
        Workload("verify-x6", "verify", "fermat-x6", 7, ("hitbox.harness", "exceptional_test")),
        # witness-only scan; rational_roots and the big-constant factor_int
        # tail (Pollard rho) dominate.  Serial: a sweep through the 2-worker
        # pool needs both vCPUs quiet at once, its steps cannot be timed
        # from this process, and its fastest sweep spread 0.18-0.25
        # (IQR / median) over runs; the traced run times the pool driver
        # in a pooled pass.
        Workload("enumerate-x6", "enumerate", "fermat-x6", 25, ("hitbox.harness", "_find_witness")),
        # criterion-10 curve: Fraction Horner specialization dominates; a
        # step is the loop body for one fibre t
        Workload("search", "search", None, 30, ("hitbox.curves", "rationals_up_to_height")),
    )
}


@dataclass
class State:
    """What set-up produces: the loaded input and the expected answer."""

    workload: Workload
    data: object = None  # HitData, or the PlaneCurve for search
    reference: object = None
    expected: object = None
    params: int = 0


def setup(w: Workload) -> State:
    """Import hitbox, load the fixture (computing D) and resolve the reference.

    This is exactly what ``setup_s`` times in a fresh process; the expected
    answers are computed by ``expect`` separately, outside that time.
    """
    from hitbox.curves import PlaneCurve
    from hitbox.harness import load_fixture, resolve_reference

    state = State(w)
    if w.kind == "search":
        state.data = PlaneCurve.from_text(SEARCH_CURVE)
    else:
        state.data = load_fixture(w.fixture)
        if w.kind == "verify":
            state.reference, prov = resolve_reference(state.data)
            state.data.provenance["reference"] = prov
    return state


def expect(state: State, fixture_raw: dict | None) -> list[str]:
    """Compute the expected answer with the independent checks; returns problems."""
    w = state.workload
    if w.kind == "search":
        state.expected = checks.search_points(w.height)
        state.params = len(checks.rationals_up_to(w.height))
        return []
    state.expected = checks.EXPECTED_EXCEPTIONAL[w.fixture](w.height)
    state.params = len(checks.sweep_values(w.fixture, w.height))
    return checks.fixture_text_problems(w.fixture, fixture_raw)


def call(state: State, workers: int = 1):
    """The timed call, serial unless ``workers`` says otherwise."""
    from hitbox.curves import bounded_point_search
    from hitbox.harness import enumerate_exceptional, verify_equivalence

    w = state.workload
    if w.kind == "verify":
        return verify_equivalence(
            state.data, state.reference, w.height, workers=workers, keep_records=True
        )
    if w.kind == "enumerate":
        return enumerate_exceptional(state.data, w.height, workers=workers)
    return bounded_point_search(state.data, w.height)


@dataclass
class Outcome:
    problems: list[str]
    digest: str
    indeterminate: tuple[int, int] | None  # (indeterminate, checked)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def judge(state: State, out) -> Outcome:
    """Check one call's output and digest its canonical JSON."""
    from hitbox.harness import record_to_dict, report_to_json

    w = state.workload
    if w.kind == "verify":
        pairs = [(r.t, r.witness) for r in out.records]
        problems = checks.verify_problems(
            w.fixture, w.height, out.passed, out.checked, pairs, state.expected
        )
        return Outcome(problems, _sha(report_to_json(out)), (len(out.indeterminates), out.checked))
    if w.kind == "enumerate":
        pairs = [(r.t, r.witness) for r in out]
        problems = checks.enumerate_problems(w.fixture, pairs, state.expected)
        text = json.dumps([record_to_dict(r) for r in out], sort_keys=True, separators=(",", ":"))
        return Outcome(problems, _sha(text), None)
    problems = checks.search_problems(out, state.expected)
    text = json.dumps([[str(Fraction(t)), str(Fraction(x))] for t, x in out], separators=(",", ":"))
    return Outcome(problems, _sha(text), None)
