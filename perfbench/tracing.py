"""Per-layer tracing of hitbox from outside its source.

The tracer replaces module attributes of hitbox with timing wrappers in
the current process only; nothing under ``src/`` is edited.  A wrapped
function is rebound everywhere it is bound by name (``rational_roots``
is imported into ``harness`` and ``curves``, ``factor_over_Q`` into
``galois``), and methods are patched on their class.  A name that does
not exist any more is reported as absent and the run carries on.

Each call of a *span* target records ``(name, parent, start_ns, end_ns,
extra)`` in memory; *count* targets only bump a counter keyed by the
enclosing span, so that cheap inner helpers do not take self time away
from the layer that calls them.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


def _rr_probe(args, result):
    return (args[0].degree, bool(result))


def _hensel_probe(args, result):
    p, l = args[0], args[3]
    return l * math.log2(p)


def _none_probe(args, result):
    return result is None


def _sieve_probe(args, result):
    return len(result.candidates) if result.evidence is not None else None


def _len_probe(args, result):
    return len(result)


@dataclass(frozen=True)
class Target:
    """One function of hitbox to wrap: ``attr`` may be ``Class.method``."""

    module: str
    attr: str
    name: str
    kind: str = "span"  # span | count
    probe: Callable | None = None


TARGETS = (
    Target("harness", "verify_equivalence", "harness.driver"),
    Target("harness", "enumerate_exceptional", "harness.driver"),
    Target("harness", "exceptional_test", "harness.exceptional_test"),
    Target("harness", "_find_witness", "harness.find_witness"),
    Target("factorq", "factor_over_Q", "factorq.factor_over_q"),
    Target("factorq", "_zassenhaus_monic", "factorq.recombine"),
    Target("factorq", "_good_prime", "factorq.good_prime"),
    Target("factorq", "_hensel_lift", "factorq.hensel", probe=_hensel_probe),
    Target("factorq", "cycle_type_mod_p", "factorq.cycle_type", probe=_none_probe),
    Target("factorq", "rational_roots", "factorq.rational_roots", probe=_rr_probe),
    Target("factorq", "_gp_factor_sqf", "factorq.mod_p_factorization", kind="count"),
    Target("rationals", "factor_int", "rationals.factor_int"),
    Target("rationals", "_pollard_brent", "rationals.pollard", kind="count"),
    Target("rationals", "divisors", "rationals.divisors", kind="count", probe=_len_probe),
    Target("polys", "BiPoly.specialize", "polys.specialize"),
    Target("polys", "squarefree_part", "polys.squarefree_part"),
    Target("polys", "discriminant_uni", "polys.discriminant"),
    Target("galois", "identify_galois", "galois.identify"),
    Target("galois", "classify_degree_le4", "galois.quartic"),
    Target("galois", "sieve_degree_5_6", "galois.sieve", probe=_sieve_probe),
    Target("galois", "groups_match", "galois.groups_match"),
    Target("permgroups", "conjugate_in_symmetric", "permgroups.conjugate"),
    Target("permgroups", "closure", "permgroups.closure"),
    Target("curves", "bounded_point_search", "curves.point_search"),
)


@dataclass
class Span:
    name: str
    parent: int  # index into the span list, -1 for a root
    start: int  # perf_counter_ns
    end: int
    extra: object = None


@dataclass
class Tracer:
    """Records spans while installed; ``with tracer:`` patches and restores."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[tuple[str, str | None], list] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording --------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(Span(name, parent, time.perf_counter_ns(), 0))
        self._stack.append(sid)
        return sid

    def close(self, sid: int, extra=None) -> None:
        span = self.spans[sid]
        span.end = time.perf_counter_ns()
        span.extra = extra
        self._stack.pop()

    def _enclosing(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def _span_wrapper(self, fn, target: Target):
        probe = target.probe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(target.name)
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                self.close(sid, probe(args, result) if returned and probe is not None else None)

        return wrapper

    def _count_wrapper(self, fn, target: Target):
        probe = target.probe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            slot = self.counts.setdefault((target.name, self._enclosing()), [0, 0])
            slot[0] += 1
            if probe is not None:
                slot[1] += probe(args, result)
            return result

        return wrapper

    # -- installing -------------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        modules = [
            m for n, m in list(sys.modules.items()) if m is not None and n.startswith("hitbox.")
        ]
        self.absent = []
        for t in targets:
            mod = sys.modules.get(f"hitbox.{t.module}")
            owner, _, attr = t.attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            fn = vars(holder).get(attr) if holder is not None else None
            if fn is None:
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            make = self._span_wrapper if t.kind == "span" else self._count_wrapper
            wrapper = make(fn, t)
            if owner:
                self._undo.append((holder, attr, fn))
                setattr(holder, attr, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._undo.append((m, name, fn))
                        setattr(m, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, fn = self._undo.pop()
            setattr(holder, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def to_json(self) -> dict:
        return {
            "absent": self.absent,
            "spans": [[s.name, s.parent, s.start, s.end, s.extra] for s in self.spans],
            "counts": [[n, enc, c, total] for (n, enc), (c, total) in self.counts.items()],
        }


# -- analysis --------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its children.

    Spans are recorded by one thread and close in last-in first-out order,
    so children lie inside their parent and do not overlap each other.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def tail_ms(durations_ms: list[float]) -> float:
    """Highest of p99.9/p99/p90 with at least ten samples beyond it, else max."""
    if not durations_ms:
        return 0.0
    ordered = sorted(durations_ms)
    n = len(ordered)
    for beyond_one_in in (1000, 100, 10):
        if n >= 10 * beyond_one_in:
            return ordered[n - n // beyond_one_in - 1]
    return ordered[-1]


def _by_name(spans: list[Span]) -> dict[str, dict]:
    """Calls, self time, durations and probe values per span name."""
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_ns": 0, "durs": [], "extras": [], "tops": []}
    )
    for s, self_ns in zip(spans, self_times(spans)):
        d = out[s.name]
        d["calls"] += 1
        d["self_ns"] += self_ns
        d["durs"].append((s.end - s.start) / 1e6)
        d["extras"].append(s.extra)
        if s.parent < 0 or spans[s.parent].name != s.name:
            d["tops"].append(s.extra)
    return out


def _mean(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else 0.0


def layer_metrics(
    layer: Tracer, layer_wall_s: float, driver: Tracer | None = None
) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    ``layer`` holds every span of the pass whose shares are reported and
    ``layer_wall_s`` is its wall time measured outside the spans.  When
    ``driver`` is given (a pass whose workers' spans are lost with the
    workers), ``harness.driver.self_s`` is taken from it instead.
    """
    spans = layer.spans
    st = _by_name(spans)

    def calls(name):
        return st[name]["calls"]

    def self_s(name):
        return st[name]["self_ns"] / 1e9

    def share(name):
        return self_s(name) / layer_wall_s if layer_wall_s > 0 else 0.0

    def counted(name, enclosing=None):
        return sum(
            c[0] for (n, enc), c in layer.counts.items()
            if n == name and (enclosing is None or enc == enclosing)
        )

    def children_of(parent_name, child_name):
        return sum(
            1 for s in spans
            if s.name == child_name and s.parent >= 0 and spans[s.parent].name == parent_name
        )

    def ratio(num, den):
        return num / den if den else 0.0

    rr_extras = [e for e in st["factorq.rational_roots"]["extras"] if e is not None]
    test_durs = st["harness.exceptional_test"]["durs"]
    drv = _by_name(driver.spans) if driver is not None else st
    m = {
        "harness.exceptional_test.calls": calls("harness.exceptional_test"),
        "harness.exceptional_test.p50_ms": statistics.median(test_durs) if test_durs else 0.0,
        "harness.exceptional_test.tail_ms": tail_ms(test_durs),
        "harness.find_witness.self_s": self_s("harness.find_witness"),
        "harness.driver.self_s": drv["harness.driver"]["self_ns"] / 1e9,
        "factorq.factor_over_q.calls": calls("factorq.factor_over_q"),
        "factorq.factor_over_q.self_s": self_s("factorq.factor_over_q"),
        "factorq.factor_over_q.share": share("factorq.factor_over_q"),
        "factorq.good_prime.self_s": self_s("factorq.good_prime"),
        "factorq.good_prime.share": share("factorq.good_prime"),
        "factorq.good_prime.primes": ratio(
            counted("factorq.mod_p_factorization", "factorq.good_prime"),
            calls("factorq.good_prime"),
        ),
        "factorq.hensel.self_s": self_s("factorq.hensel"),
        "factorq.hensel.bits": _mean(st["factorq.hensel"]["tops"]),
        "factorq.recombine.self_s": self_s("factorq.recombine"),
        "factorq.cycle_type.calls": calls("factorq.cycle_type"),
        "factorq.cycle_type.self_s": self_s("factorq.cycle_type"),
        "factorq.cycle_type.unusable_ratio": ratio(sum(1 for e in st["factorq.cycle_type"]["extras"] if e is True), calls("factorq.cycle_type")),
        "factorq.rational_roots.calls": calls("factorq.rational_roots"),
        "factorq.rational_roots.self_s": self_s("factorq.rational_roots"),
        "factorq.rational_roots.share": share("factorq.rational_roots"),
        "factorq.rational_roots.hit_ratio": ratio(sum(1 for _, hit in rr_extras if hit), calls("factorq.rational_roots")),
        "factorq.rational_roots.deg3plus_calls": sum(1 for deg, _ in rr_extras if deg >= 3),
        "rationals.factor_int.calls": calls("rationals.factor_int"),
        "rationals.factor_int.self_s": self_s("rationals.factor_int"),
        "rationals.factor_int.share": share("rationals.factor_int"),
        "rationals.factor_int.max_ms": max(st["rationals.factor_int"]["durs"], default=0.0),
        "rationals.pollard.calls": counted("rationals.pollard"),
        "rationals.divisors.candidates": sum(
            c[1] for (n, _), c in layer.counts.items() if n == "rationals.divisors"
        ),
        "polys.specialize.calls": calls("polys.specialize"),
        "polys.specialize.self_s": self_s("polys.specialize"),
        "polys.specialize.share": share("polys.specialize"),
        "polys.squarefree_part.calls": calls("polys.squarefree_part"),
        "polys.squarefree_part.self_s": self_s("polys.squarefree_part"),
        "polys.discriminant.self_s": self_s("polys.discriminant"),
        "galois.identify.calls": calls("galois.identify"),
        "galois.identify.self_s": self_s("galois.identify"),
        "galois.quartic.self_s": self_s("galois.quartic"),
        "galois.sieve.self_s": self_s("galois.sieve"),
        "galois.sieve.share": share("galois.sieve"),
        "galois.sieve.primes": ratio(children_of("galois.sieve", "factorq.cycle_type"), calls("galois.sieve")),
        "galois.sieve.candidates_mean": _mean(st["galois.sieve"]["extras"]),
        "galois.groups_match.calls": calls("galois.groups_match"),
        "galois.groups_match.self_s": self_s("galois.groups_match"),
        "permgroups.conjugate.calls": calls("permgroups.conjugate"),
        "permgroups.conjugate.self_s": self_s("permgroups.conjugate"),
        "permgroups.closure.self_s": self_s("permgroups.closure"),
        "curves.point_search.self_s": self_s("curves.point_search"),
        "curves.point_search.share": share("curves.point_search"),
        "curves.fibres": children_of("curves.point_search", "polys.specialize"),
    }
    return m


def layer_metric_names() -> list[str]:
    return list(layer_metrics(Tracer(), 1.0))
