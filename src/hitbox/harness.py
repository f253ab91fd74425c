"""Exclusion sets, exceptional-parameter sweeps, and equivalence reports.

Given a bivariate polynomial P and auxiliary monic polynomials S (one per
conjugacy class of maximal subgroups of the generic Galois group), this
module computes the exclusion set D, tests every bounded-height parameter
outside D for the root-witness equivalence, and enumerates exceptional
parameters together with the curve points that certify them.

Indeterminate Galois identifications (the degree-5/6 sieve cannot always
separate groups) are a third verdict: they are reported and counted, never
silently passed or failed.

Equivalence sweeps sieve each sextic inside the subgroups of the reference
group, as the decomposition-group argument behind D allows for t outside D.
A group pinned that way is 'conditional' on the reference: exact if the
reference is the generic group, and no better than the reference when that
is derived by specialization sampling (fermat-x6), which the report's
reference provenance says.  Sieve evidence that no subgroup of the
reference fits raises ``ReferenceMismatchError``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .errors import DomainError, FixtureError, InconclusiveError, ReferenceMismatchError
from .factorq import factor_over_Q, factorization_type, may_have_rational_root, rational_roots
from .galois import (
    GaloisId,
    groups_match,
    identify_galois,
    label_for_group,
    table_entry,
    transitive_table,
)
from .permgroups import PermGroup
from .polys import (
    BiPoly,
    _frac_str,
    discriminant_in_x,
    leading_coeff_in_x,
    parse_poly,
)
from .rationals import height, rationals_up_to_height, sample_rationals

DEFAULT_PRIME_BUDGET = 24


@dataclass(frozen=True)
class HitData:
    """A polynomial family with its exclusion set and auxiliary polynomials."""

    name: str
    P: BiPoly
    D: frozenset[Fraction]
    S: tuple[BiPoly, ...]
    provenance: dict = field(default_factory=dict)
    g_label: str | None = None
    g_order: int | None = None
    notes: str = ""


@dataclass(frozen=True)
class SpecializationRecord:
    t: Fraction
    in_d: bool
    witness: tuple[int, Fraction] | None
    factorization: tuple[int, ...]
    galois: GaloisId | None
    verdict: str  # excluded | exceptional | generic | indeterminate
    # groups_match(galois, reference) for t outside D, when a reference was given
    match: bool | None = None

    def sort_key(self):
        return (height(self.t), self.t.numerator, self.t.denominator)


@dataclass
class EquivalenceReport:
    fixture: str
    height_bound: int
    prime_budget: int
    reference_label: str | None
    reference_order: int | None
    reference_provenance: str
    checked: int
    counts: dict[str, int]
    violations: list[SpecializationRecord]
    indeterminates: list[SpecializationRecord]
    invalid_configuration: bool = False
    records: list[SpecializationRecord] = field(default_factory=list)
    kind = "equivalence"

    @property
    def passed(self) -> bool:
        return not self.violations and not self.invalid_configuration

    def indeterminate_fraction(self) -> float:
        if not self.checked:
            return 0.0
        return len(self.indeterminates) / self.checked


def compute_exclusion_set(P: BiPoly, S) -> frozenset[Fraction]:
    """Rational roots of the leading coefficient, the discriminant of P,
    and the discriminant of every auxiliary polynomial."""
    if P.degree_x < 1:
        raise DomainError("P must involve X")
    disc = discriminant_in_x(P)
    if disc.is_zero():
        raise DomainError("P is not separable over Q(T)")
    out: set[Fraction] = set()
    lead = leading_coeff_in_x(P)
    if lead.degree >= 1:
        out |= rational_roots(lead)
    out |= rational_roots(disc)
    for i, f in enumerate(S):
        df = discriminant_in_x(f)
        if df.is_zero():
            raise DomainError(f"auxiliary polynomial {i} is not separable")
        if df.degree >= 1:
            out |= rational_roots(df)
    return frozenset(out)


def _find_witness(t: Fraction, S) -> tuple[int, Fraction] | None:
    for i, f in enumerate(S):
        if not may_have_rational_root(f, t):
            continue
        roots = rational_roots(f.specialize(t))
        if roots:
            return (i, min(roots))
    return None


def exceptional_test(
    t,
    data: HitData,
    reference: PermGroup | None = None,
    budget: int = DEFAULT_PRIME_BUDGET,
) -> SpecializationRecord:
    """Classify one parameter value, with audit fields always populated.

    P(t, X) is factored over Q once; its factorization type and its Galois
    identification both come from that one factorization.  For t outside D
    a given reference group bounds the sieve (the Galois group is conjugate
    into it) and is matched once, on ``match``.
    """
    t = Fraction(t)
    in_d = t in data.D
    within = None if in_d else reference
    witness = _find_witness(t, data.S)
    pt = data.P.specialize(t)
    ftype: tuple[int, ...] = ()
    gid: GaloisId | None = None
    match: bool | None = None
    if pt.degree >= 1:
        fac = factor_over_Q(pt)
        ftype = fac.type()
        try:
            gid = identify_galois(fac, budget, within)
        except ReferenceMismatchError as e:
            raise ReferenceMismatchError(e.prime, e.cycle_type, e.reference, t) from None
        if within is not None:
            match = groups_match(gid, within)
    if in_d:
        verdict = "excluded"
    elif witness is not None:
        verdict = "exceptional"
    elif reference is not None and gid is not None:
        verdict = "indeterminate" if match is None else "generic"
    else:
        verdict = "generic" if gid is not None and gid.mode == "definitive" else "indeterminate"
    return SpecializationRecord(
        t=t,
        in_d=in_d,
        witness=witness,
        factorization=ftype,
        galois=gid,
        verdict=verdict,
        match=match,
    )


# -- reference group ------------------------------------------------------------


def generic_group(P: BiPoly, samples, budget: int = 48) -> int:
    """Largest Galois group order attained on the sample parameters.

    Outside a thin set the specialization attains the generic group, so the
    maximum over a handful of samples is the working reference order; it is
    derived evidence, never a proof (``resolve_reference`` says so in its
    provenance).
    """
    samples = [Fraction(s) for s in samples]
    if len(samples) < 5:
        raise DomainError("need at least 5 sample parameters")
    orders = []
    for t in samples:
        pt = P.specialize(t)
        if pt.degree < 1:
            continue
        gid = identify_galois(factor_over_Q(pt), budget)
        if gid.mode == "definitive":
            orders.append(gid.order)
        elif gid.mode == "sieved":
            orders.append(min(gid.candidate_orders()))
    if not orders:
        raise InconclusiveError("every sample parameter was degenerate")
    return max(orders)


def resolve_reference(data: HitData, budget: int = 48) -> tuple[PermGroup, str]:
    """Reference group for equivalence checks, with its provenance.

    The fixture label, else the fixture order, else an order derived by
    specialization sampling picks the candidate table entries.  When
    auxiliary polynomials are present, only the entries whose
    maximal-subgroup indices (a column of the transitive table) are their
    X-degrees stay.  Exactly one entry must remain.  A degree without a
    table is refused before any sampling.
    """
    deg = data.P.degree_x
    table = transitive_table(deg)
    if data.g_label is not None:
        e = table_entry(data.g_label)
        if e.degree != deg:
            raise FixtureError(f"reference degree {e.degree} != {deg}", "G_label")
        if data.g_order is not None and e.order != data.g_order:
            raise FixtureError("G_order contradicts G_label", "G_order")
        cands, prov = [e], f"fixture label {data.g_label}"
    else:
        if data.g_order is not None:
            order, prov = data.g_order, f"fixture order {data.g_order}"
        else:
            samples = sample_rationals(5, exclude=data.D | {Fraction(0)})
            order = generic_group(data.P, samples, budget)
            prov = "order derived from specialization sampling (not a proof)"
        cands = [e for e in table if e.order == order]
    sdegs = sorted(f.degree_x for f in data.S)
    if sdegs:
        cands = [e for e in cands if e.maximal_indices == tuple(sdegs)]
    if len(cands) != 1:
        raise FixtureError(
            f"cannot pin one reference group of degree {deg}: table entries "
            f"{[e.label for e in cands]} fit the auxiliary X-degrees {sdegs}"
        )
    if data.g_label is None:
        prov += f", matched {cands[0].label}"
    return cands[0].group, prov


# -- sweeps ----------------------------------------------------------------------


def _sweep_values(data: HitData, height_bound: int) -> list[Fraction]:
    return [t for t in rationals_up_to_height(height_bound) if t not in data.D]


def _map_chunk(job) -> tuple[list, Exception | None]:
    """The results of one chunk up to its first failure, and that failure."""
    fn, args, ts = job
    out = []
    for t in ts:
        try:
            out.append(fn(t, *args))
        except Exception as e:
            return out, e
    return out, None


def _parallel_map(fn, values: list, workers: int, *args) -> list:
    """``[fn(t, *args) for t in values]``, in order.

    Sweeps of 64 values or more are split into strided chunks over a
    process pool of at most ``os.cpu_count()`` workers, and the results are
    interleaved back into the order of ``values``.  A failure raises the
    exception of the first failing value in that order, as the serial map
    does.  ``fn`` must be a module-level function, so that workers receive
    it by name.
    """
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or len(values) < 64:
        return [fn(t, *args) for t in values]
    from concurrent.futures import ProcessPoolExecutor  # only a pooled sweep pays for the import

    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(_map_chunk, [(fn, args, values[i::workers]) for i in range(workers)])
        out: list = [None] * len(values)
        failures = []
        for i, (part, exc) in enumerate(parts):
            if exc is None:
                out[i::workers] = part
            else:  # the value at chunk position len(part) failed
                failures.append((i + len(part) * workers, exc))
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return out


def default_workers() -> int:
    env = os.environ.get("HITBOX_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def verify_equivalence(
    data: HitData,
    reference: PermGroup,
    height_bound: int,
    budget: int = DEFAULT_PRIME_BUDGET,
    workers: int | None = None,
    keep_records: bool = False,
    factor_types: bool = False,
) -> EquivalenceReport:
    """Check (some f in S has a rational root at t) <=> (G_t differs from G)
    for every t outside D up to the height bound.

    With ``factor_types`` the same records also check the implication
    (the factorization type of P(t, X) differs from P's over Q(T)) => (some
    f in S has a rational root at t).  Its violations follow the
    equivalence violations, and ``counts["factorization_violations"]``
    says how many there are.  P's generic type is certified after the
    sweep, so a sweep error is raised before its ``InconclusiveError``.
    """
    workers = default_workers() if workers is None else workers
    values = _sweep_values(data, height_bound)
    records = _parallel_map(exceptional_test, values, workers, data, reference, budget)
    violations = []
    indeterminates = []
    counts: dict[str, int] = {}
    for rec in records:
        counts[rec.verdict] = counts.get(rec.verdict, 0) + 1
        if rec.match is None:
            indeterminates.append(rec)
        elif (rec.witness is not None) == rec.match:
            violations.append(rec)
    if factor_types:
        generic_type = generic_factorization_type(data)
        changed = [r for r in records if r.factorization != generic_type and r.witness is None]
        counts["factorization_violations"] = len(changed)
        violations += changed
    invalid = not data.S and reference.order > 1
    return EquivalenceReport(
        fixture=data.name,
        height_bound=height_bound,
        prime_budget=budget,
        reference_label=label_for_group(reference),
        reference_order=reference.order,
        reference_provenance=data.provenance.get("reference", ""),
        checked=len(records),
        counts=counts,
        violations=violations,
        indeterminates=indeterminates,
        invalid_configuration=invalid,
        records=records if keep_records else [],
    )


def generic_factorization_type(data: HitData) -> tuple[int, ...]:
    """Factorization type of P over Q(T), certified by one specialization
    that stays irreducible at full degree (sound: factors specialize)."""
    deg = data.P.degree_x
    for t in sample_rationals(40, exclude=data.D):
        pt = data.P.specialize(t)
        if pt.degree == deg and factorization_type(pt) == (deg,):
            return (deg,)
    raise InconclusiveError(
        "no sampled specialization certifies irreducibility of P over Q(T)"
    )


def enumerate_exceptional(
    data: HitData,
    height_bound: int,
    budget: int = DEFAULT_PRIME_BUDGET,
    workers: int | None = None,
) -> list[SpecializationRecord]:
    """All exceptional parameters up to the height bound, with witnesses.

    Each witness (i, x) is an exact rational point (t, x) on the plane
    curve cut out by the i-th auxiliary polynomial.  The sweep scans for
    witnesses first and only builds full audit records for the hits.
    """
    workers = default_workers() if workers is None else workers
    values = _sweep_values(data, height_bound)
    witnesses = _parallel_map(_find_witness, values, workers, data.S)
    return [
        exceptional_test(t, data, None, budget)
        for t, w in zip(values, witnesses)
        if w is not None
    ]


# -- fixtures ---------------------------------------------------------------------

_FIXTURE_FIELDS = {"name", "P", "D", "S", "G_label", "G_order", "notes"}


def fixture_path(name: str) -> Path:
    return Path(str(resources.files("hitbox") / "fixtures" / f"{name}.json"))


def load_fixture(source) -> HitData:
    """Load and validate a fixture from a path, bundled name, or dict."""
    if isinstance(source, dict):
        raw, name = source, source.get("name", "inline")
    else:
        path = Path(source)
        if not path.exists() and Path(str(source)).suffix == "" and "/" not in str(source):
            path = fixture_path(str(source))
        if not path.exists():
            raise FixtureError(f"no such fixture: {source}")
        raw = json.loads(path.read_text())
        name = raw.get("name", path.stem)
    unknown = set(raw) - _FIXTURE_FIELDS
    if unknown:
        raise FixtureError(f"unknown fields {sorted(unknown)}")
    for key in ("P", "D", "S"):
        if key not in raw:
            raise FixtureError("missing field", key)
    g_label, g_order = raw.get("G_label"), raw.get("G_order")
    if g_label is not None and not isinstance(g_label, str):
        raise FixtureError("must be a transitive group label such as 6T3", "G_label")
    if g_order is not None and (type(g_order) is not int or g_order < 1):
        raise FixtureError("must be a positive integer", "G_order")
    try:
        P = parse_poly(raw["P"])
    except Exception as e:
        raise FixtureError(str(e), "P")
    if P.degree_x < 1:
        raise FixtureError("P must involve X", "P")
    S = []
    for i, text in enumerate(raw["S"]):
        try:
            f = parse_poly(text)
        except Exception as e:
            raise FixtureError(str(e), f"S[{i}]")
        if not f.is_monic_in_x():
            raise FixtureError("auxiliary polynomial is not monic in X", f"S[{i}]")
        if f.degree_x < 2:
            raise FixtureError("auxiliary polynomial needs X-degree >= 2", f"S[{i}]")
        S.append(f)
    try:
        declared_d = frozenset(Fraction(s) for s in raw["D"])
    except ValueError as e:
        raise FixtureError(str(e), "D")
    try:
        computed_d = compute_exclusion_set(P, S)
    except DomainError as e:
        raise FixtureError(str(e), "P")
    if not declared_d <= computed_d:
        missing = sorted(declared_d - computed_d)
        raise FixtureError(f"declared values {missing} are not in the computed set", "D")
    notes = raw.get("notes", "")
    if not S:
        notes = (notes + " " if notes else "") + "no maximal subgroup data"
    return HitData(
        name=name,
        P=P,
        D=computed_d,
        S=tuple(S),
        provenance={"P": "fixture", "S": "fixture", "D": "computed"},
        g_label=g_label,
        g_order=g_order,
        notes=notes,
    )


# -- report serialization -----------------------------------------------------------


def galois_to_dict(gid: GaloisId) -> dict:
    """Canonical form of an identification; ``primes`` only when sieved."""
    out = {
        "mode": gid.mode,
        "label": gid.label,
        "kind": gid.kind,
        "order": gid.order,
        "candidates": list(gid.candidates),
        "factor_degrees": list(gid.factor_degrees),
    }
    if gid.evidence.primes:
        out["primes"] = list(gid.evidence.primes)
    return out


def record_to_dict(rec: SpecializationRecord) -> dict:
    gal = None if rec.galois is None else galois_to_dict(rec.galois)
    return {
        "t": _frac_str(rec.t),
        "height": height(rec.t),
        "in_d": rec.in_d,
        "verdict": rec.verdict,
        "witness": None
        if rec.witness is None
        else {"index": rec.witness[0], "root": _frac_str(rec.witness[1])},
        "factorization_type": list(rec.factorization),
        "galois": gal,
    }


def report_to_dict(report: EquivalenceReport) -> dict:
    out = {
        "kind": report.kind,
        "fixture": report.fixture,
        "height_bound": report.height_bound,
        "prime_budget": report.prime_budget,
        "reference": {
            "label": report.reference_label,
            "order": report.reference_order,
            "provenance": report.reference_provenance,
        },
        "checked": report.checked,
        "counts": dict(sorted(report.counts.items())),
        "passed": report.passed,
        "invalid_configuration": report.invalid_configuration,
        "indeterminate_count": len(report.indeterminates),
        "indeterminate_fraction": round(report.indeterminate_fraction(), 6),
        "violations": [record_to_dict(r) for r in report.violations],
        "indeterminate_ts": [_frac_str(r.t) for r in report.indeterminates],
    }
    if report.records:
        out["records"] = [record_to_dict(r) for r in report.records]
    return out


def report_to_json(report: EquivalenceReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, separators=(",", ":"))


def records_table(records) -> str:
    rows = [("t", "verdict", "witness", "type", "galois")]
    for rec in records:
        wit = "-" if rec.witness is None else f"f{rec.witness[0] + 1} @ {_frac_str(rec.witness[1])}"
        gal = "-" if rec.galois is None else rec.galois.describe()
        rows.append(
            (
                _frac_str(rec.t),
                rec.verdict,
                wit,
                "{" + ",".join(map(str, rec.factorization)) + "}",
                gal,
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = []
    for i, r in enumerate(rows):
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def report_table(report: EquivalenceReport) -> str:
    head = [
        f"fixture: {report.fixture}",
        f"kind: {report.kind}   height <= {report.height_bound}   primes: {report.prime_budget}",
        f"reference: {report.reference_label or '-'} (order {report.reference_order or '-'}) "
        f"[{report.reference_provenance}]",
        f"checked: {report.checked}   counts: {dict(sorted(report.counts.items()))}",
        f"indeterminate: {len(report.indeterminates)} "
        f"({100 * report.indeterminate_fraction():.1f}%)",
        f"violations: {len(report.violations)}   passed: {report.passed}",
    ]
    body = ""
    if report.violations:
        body = "\nviolations:\n" + records_table(report.violations)
    if report.records:
        body += "\nrecords:\n" + records_table(report.records)
    return "\n".join(head) + body
