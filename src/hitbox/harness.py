"""Exclusion sets, exceptional-parameter sweeps, and equivalence reports.

Given a bivariate polynomial P and auxiliary monic polynomials S (one per
conjugacy class of maximal subgroups of the generic Galois group), this
module computes the exclusion set D, tests every bounded-height parameter
outside D for the root-witness equivalence, and enumerates exceptional
parameters together with the curve points that certify them.

Indeterminate Galois identifications (the degree-5/6 sieve cannot always
separate groups) are a verdict of their own: they are reported and
counted, never silently passed or failed; against a reference, a t
outside D whose group match is undecided is indeterminate, witness or
not.  So is a violation, a t outside D whose witness contradicts its
group match.  The report lists exactly the records of these two verdicts
as its indeterminates and its equivalence violations.

Equivalence sweeps sieve each sextic inside the subgroups of the reference
group, as the decomposition-group argument behind D allows for t outside D.
A group pinned that way is 'conditional' on the reference: exact if the
reference is the generic group, and no better than the reference when that
is derived by specialization sampling (fermat-x6), which the report's
reference provenance says.  The sampling walk over a binomial a(T) X^n +
c(T), as fermat-x6 is, sieves inside the holomorph Hol(C_n), which holds
every specialization's group, and stops at the first sample that reaches
its order: fermat-x6 factors one sample, not three.  Its provenance still
reads "(not a proof)", as the report digests require.  Sieve evidence
that no subgroup of the reference fits raises ``ReferenceMismatchError``.
The reference is the table entry that ``resolve_reference`` picks (a
``galois.TransitiveGroupEntry``), so its label, order and kind are read,
never searched for.

Both fixtures, and every auxiliary polynomial of theirs, are polynomials
in T^2 with a symmetric D, so the records at t and -t agree in every field
but t.  ``HitData.even_in_t`` checks this once per family.  When it holds,
each sweep creates one record memo, a dict keyed by the orbit (|a|, b) of
t = a/b, and passes it to every ``exceptional_test`` call: the first
member of each orbit is computed, and the other is answered with that
record's fields and its own t.  Every value still gets its own call.  The
memo is dropped with its sweep, and each chunk of a pooled sweep fills its
own copy, so a pair split across two chunks is computed twice and the
output stays the same.  On any other family every value is computed,
factoring included: a family with P even in T but an odd auxiliary
polynomial or a lopsided D factors P(t, X) = P(-t, X) twice (no shipped
family is one, so that cost is unmeasured).
"""

from __future__ import annotations

import functools
import json
import os
from collections.abc import Sequence
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

from .errors import DomainError, FixtureError, InconclusiveError, ParseError, ReferenceMismatchError
from .factorq import SIEVE_FAMILY_MAX, factor_over_Q, factorization_type, rational_roots, root_mask, root_sieve
from .galois import (
    GaloisId,
    TransitiveGroupEntry,
    groups_match,
    identify_galois,
    table_entry,
    transitive_table,
)
from .polys import (
    BiPoly,
    discriminant_in_x,
    leading_coeff_in_x,
    parse_number,
    parse_poly,
)
from .rationals import Value, coprime_pairs_up_to_height, height, sample_rationals

DEFAULT_PRIME_BUDGET = 24


class HitData(Value):
    """A polynomial family with its exclusion set and auxiliary polynomials.

    Unhashable, as its ``provenance`` dict is.  Not a tuple and not slotted:
    ``root_sieve``, ``d_pairs`` and ``even_in_t`` are cached in the instance
    ``__dict__``, which pickles with the data."""

    _fields = ("name", "P", "D", "S", "provenance", "g_label", "g_order", "notes")
    __hash__ = None

    def __init__(
        self,
        name: str,
        P: BiPoly,
        D: frozenset[Fraction],
        S: tuple[BiPoly, ...],
        provenance: dict | None = None,
        g_label: str | None = None,
        g_order: int | None = None,
        notes: str = "",
    ):
        self.name = name
        self.P = P
        self.D = D
        self.S = S
        self.provenance = {} if provenance is None else provenance
        self.g_label = g_label
        self.g_order = g_order
        self.notes = notes

    @functools.cached_property
    def root_sieve(self) -> tuple[tuple[int, bytes], ...]:
        """``factorq.root_sieve`` of S, built on first use and kept with the
        data.  Each sweep asks for it before ``_parallel_map``, so it is
        built once, in the parent, and pickled with the data into every
        chunk that a pool worker receives."""
        return root_sieve(self.S)

    @functools.cached_property
    def d_pairs(self) -> frozenset[tuple[int, int]]:
        """D as the coprime pairs (a, b), b > 0, of its values a/b, which
        ``exceptional_test`` looks t up among without hashing a
        ``Fraction``."""
        return frozenset((d.numerator, d.denominator) for d in self.D)

    @functools.cached_property
    def even_in_t(self) -> bool:
        """Whether P, every S[i] and D are invariant under T -> -T, so that
        the records at t and -t agree in every field but t."""
        odd = any(any(c.coeffs[1::2]) for f in (self.P, *self.S) for c in f.xcoeffs)
        return not odd and all((-a, b) in self.d_pairs for a, b in self.d_pairs)


class SpecializationRecord(NamedTuple):
    t: Fraction
    in_d: bool
    witness: tuple[int, Fraction] | None
    factorization: tuple[int, ...]
    galois: GaloisId | None
    # excluded | violation | exceptional | generic | indeterminate; a
    # violation is a t outside D whose match contradicts its witness, and
    # with a reference an undecided match is indeterminate, witness or not
    verdict: str
    # groups_match(galois, reference) for t outside D, when a reference was given
    match: bool | None = None


class EquivalenceReport(NamedTuple):
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
    records: Sequence[SpecializationRecord] = ()
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


def _find_witness(ab: tuple[int, int], data: HitData) -> tuple[int, Fraction] | None:
    """(i, least rational root of S[i](t, X)) for the first i that has one,
    else None, at t = a/b given as the coprime pair ``ab`` (b > 0).  One
    root-sieve lookup per prime, on a and b themselves, rules out the whole
    family at once (``HitData.root_sieve``); only when it leaves a member
    is ``Fraction(a, b)`` built and the members it leaves specialized, in
    index order."""
    mask = root_mask(data.root_sieve, *ab)
    if mask:
        t = Fraction(*ab)
        for i, f in enumerate(data.S):
            if mask >> i & 1:
                roots = rational_roots(f.specialize(t))
                if roots:
                    return (i, min(roots))
    return None


def exceptional_test(
    t,
    data: HitData,
    reference: TransitiveGroupEntry | None = None,
    budget: int = DEFAULT_PRIME_BUDGET,
    memo: dict | None = None,
) -> SpecializationRecord:
    """Classify one parameter value, with audit fields always populated.

    P(t, X) is factored over Q once; its factorization type and its Galois
    identification both come from that one factorization.  For t outside D
    a given reference (a table entry) bounds the sieve (the Galois group is
    conjugate into it) and is matched once, on ``match``.  The record is
    worked out on the coprime pair (a, b) of t = a/b: D is looked up among
    ``HitData.d_pairs`` and the witness scan reads the pair.

    ``memo`` is the sweep's record memo, a dict that one sweep (one
    reference, one budget) passes to every call and then drops.  On a
    family even in T (``HitData.even_in_t``) it maps the orbit key (|a|, b)
    to the first record computed, and the other member of the orbit gets
    that record with its own t.  On any other family it is not read.
    """
    if t.__class__ is not Fraction:
        t = Fraction(t)
    a, b = ab = t.numerator, t.denominator
    orbit = None
    if memo is not None and data.even_in_t:
        orbit = (-a, b) if a < 0 else ab
        rec = memo.get(orbit)
        if rec is not None:
            return SpecializationRecord(t, *rec[1:])
    in_d = ab in data.d_pairs
    within = None if in_d else reference
    witness = _find_witness(ab, data)
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
    elif match is not None and (witness is not None) == match:
        verdict = "violation"
    elif reference is not None and gid is not None and match is None:
        verdict = "indeterminate"
    elif witness is not None:
        verdict = "exceptional"
    elif match is not None:
        verdict = "generic"
    else:
        verdict = "generic" if gid is not None and gid.mode == "definitive" else "indeterminate"
    rec = SpecializationRecord(
        t=t,
        in_d=in_d,
        witness=witness,
        factorization=ftype,
        galois=gid,
        verdict=verdict,
        match=match,
    )
    if orbit is not None:
        memo[orbit] = rec
    return rec


# -- reference group ------------------------------------------------------------


# The holomorph Hol(C_n), the maps k -> uk + b on Z/n, as its table entry.
_HOLOMORPH = {2: "2T1", 3: "3T2", 4: "4T3", 5: "5T3", 6: "6T3"}


def _binomial_bound(P: BiPoly) -> TransitiveGroupEntry | None:
    """Hol(C_n)'s table entry when P = a(T) X^n + c(T) with c nonzero, else
    None.  The roots of every such binomial, and of each specialization
    with a(t) c(t) nonzero, are zeta^k alpha for a primitive n-th root of
    unity zeta and any one root alpha; a Galois element maps alpha to
    zeta^b alpha and zeta to zeta^u, so it acts on the index k as
    k -> uk + b.  Hence each of these groups is conjugate into Hol(C_n)."""
    n = P.degree_x
    if n not in _HOLOMORPH or not P.xcoeffs[0] or any(P.xcoeffs[1:n]):
        return None
    return table_entry(_HOLOMORPH[n])


def generic_group(P: BiPoly, samples, budget: int = 48, within: TransitiveGroupEntry | None = None) -> int:
    """Largest Galois group order attained on the sample parameters.

    Outside a thin set the specialization attains the generic group, so the
    maximum over a handful of samples is the working reference order; it is
    derived evidence, never a proof (``resolve_reference`` says so in its
    provenance).  Each distinct specialization is identified once, looked
    up in a dict local to this call: fermat-x6's five samples are three
    sextics.

    ``within``, a table entry that every specialization's group is known
    to be conjugate into (``_binomial_bound``), bounds each sample's sieve,
    so a singleton is 'conditional' and counts as exact; and as no order
    can pass ``within.order``, the walk stops at the first sample that
    reaches it.  The bound never lowers an order: the bounded sieve still
    holds the sample's group, and its least candidate order is at least
    the full table's.
    """
    samples = [Fraction(s) for s in samples]
    if len(samples) < 5:
        raise DomainError("need at least 5 sample parameters")
    orders = []
    seen: dict = {}  # specialization -> GaloisId
    for t in samples:
        pt = P.specialize(t)
        if pt.degree < 1:
            continue
        gid = seen.get(pt)
        if gid is None:
            gid = seen[pt] = identify_galois(factor_over_Q(pt), budget, within)
        if gid.mode in ("definitive", "conditional"):
            orders.append(gid.order)
        elif gid.mode == "sieved":
            orders.append(min(gid.candidate_orders()))
        if within is not None and within.order in orders:
            break
    if not orders:
        raise InconclusiveError("every sample parameter was degenerate")
    return max(orders)


def resolve_reference(data: HitData, budget: int = 48) -> tuple[TransitiveGroupEntry, str]:
    """Reference group for equivalence checks, as its transitive-table
    entry, with its provenance.

    The fixture label, else the fixture order, else an order derived by
    specialization sampling picks the candidate table entries.  A binomial
    P samples inside its holomorph (``_binomial_bound``), so fermat-x6's
    walk stops at its first sample, t = -2, which the sieve pins as 6T3
    after two primes.  The provenance still reads "(not a proof)", which
    the report digests pin, although that sample inside that bound would
    certify G: no report states the certificate yet.  When
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
            order = generic_group(data.P, samples, budget, _binomial_bound(data.P))
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
    return cands[0], prov


# -- sweeps ----------------------------------------------------------------------


def _parallel_map(fn, values: list, workers: int, *args) -> list:
    """``[fn(t, *args) for t in values]``, in order.

    Sweeps of 64 values or more run on a process pool of at most
    ``os.cpu_count()`` workers, in a few contiguous chunks per worker.
    ``Executor.map`` keeps the order of ``values`` and raises the exception
    of the first failing value in that order, as the serial map does.
    ``fn`` must be a module-level function, so that workers receive it by
    name.
    """
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or len(values) < 64:
        return [fn(t, *args) for t in values]
    from concurrent.futures import ProcessPoolExecutor  # only a pooled sweep pays for the import

    chunksize = -(-len(values) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, values, *map(repeat, args), chunksize=chunksize))


def verify_equivalence(
    data: HitData,
    reference: TransitiveGroupEntry,
    height_bound: int,
    budget: int = DEFAULT_PRIME_BUDGET,
    workers: int = 1,
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
    values = [Fraction(a, b) for a, b in coprime_pairs_up_to_height(height_bound, data.D)]
    data.root_sieve, data.d_pairs, data.even_in_t  # built here, so that pool workers receive them
    memo: dict = {}  # the sweep's record memo; a pooled chunk gets its own copy
    records = _parallel_map(exceptional_test, values, workers, data, reference, budget, memo)
    violations = []
    indeterminates = []
    counts: dict[str, int] = {}
    for rec in records:
        counts[rec.verdict] = counts.get(rec.verdict, 0) + 1
        if rec.verdict == "indeterminate":
            indeterminates.append(rec)
        elif rec.verdict == "violation":
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
        reference_label=reference.label,
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
    workers: int = 1,
) -> list[SpecializationRecord]:
    """All exceptional parameters up to the height bound, with witnesses.

    Each witness (i, x) is an exact rational point (t, x) on the plane
    curve cut out by the i-th auxiliary polynomial.  The sweep scans the
    coprime pairs for witnesses first (a pool is sent int pairs), and
    builds a ``Fraction`` and a full audit record only for the hits.
    """
    pairs = list(coprime_pairs_up_to_height(height_bound, data.D))
    data.root_sieve  # built here, so that pool workers receive it with the data
    witnesses = _parallel_map(_find_witness, pairs, workers, data)
    memo: dict = {}  # the sweep's record memo
    return [
        exceptional_test(Fraction(a, b), data, None, budget, memo)
        for (a, b), w in zip(pairs, witnesses)
        if w is not None
    ]


# -- fixtures ---------------------------------------------------------------------

_FIXTURE_FIELDS = {"name", "P", "D", "S", "G_label", "G_order", "notes"}


def fixture_path(name: str) -> Path:
    return Path(__file__).with_name("fixtures") / f"{name}.json"


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
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError) as e:
            raise FixtureError(f"cannot read {source} as JSON: {e}") from None
        if not isinstance(raw, dict):
            raise FixtureError("not a JSON object")
        name = raw.get("name", path.stem)
    unknown = set(raw) - _FIXTURE_FIELDS
    if unknown:
        raise FixtureError(f"unknown fields {sorted(unknown)}")
    for key in ("P", "D", "S"):
        if key not in raw:
            raise FixtureError("missing field", key)
    for key in ("D", "S"):
        if not isinstance(raw[key], list) or not all(isinstance(s, str) for s in raw[key]):
            raise FixtureError("must be a list of strings", key)
    notes = raw.get("notes", "")
    for key, value in (("name", name), ("notes", notes)):
        if not isinstance(value, str):
            raise FixtureError("must be a string", key)
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
    if P.degree_x > 6:
        raise FixtureError(f"X-degree {P.degree_x} is above 6, the largest with a transitive table", "P")
    if len(raw["S"]) > SIEVE_FAMILY_MAX:
        raise FixtureError(
            f"{len(raw['S'])} auxiliary polynomials; at most {SIEVE_FAMILY_MAX}, one per class "
            "of maximal subgroups, and no group of degree <= 6 has more than 6 classes",
            "S",
        )
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
        declared_d = frozenset(parse_number(s) for s in raw["D"])
    except ParseError as e:
        raise FixtureError(str(e), "D") from None
    try:
        computed_d = compute_exclusion_set(P, S)
    except DomainError as e:
        raise FixtureError(str(e), "P")
    if not declared_d <= computed_d:
        missing = sorted(declared_d - computed_d)
        raise FixtureError(f"declared values {missing} are not in the computed set", "D")
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
        "t": str(rec.t),
        "height": height(rec.t),
        "in_d": rec.in_d,
        "verdict": rec.verdict,
        "witness": None
        if rec.witness is None
        else {"index": rec.witness[0], "root": str(rec.witness[1])},
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
        "indeterminate_ts": [str(r.t) for r in report.indeterminates],
    }
    if report.records:
        out["records"] = [record_to_dict(r) for r in report.records]
    return out


def report_to_json(report: EquivalenceReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, separators=(",", ":"))


def records_table(records) -> str:
    rows = [("t", "verdict", "witness", "type", "galois")]
    for rec in records:
        wit = "-" if rec.witness is None else f"f{rec.witness[0] + 1} @ {rec.witness[1]}"
        gal = "-" if rec.galois is None else rec.galois.describe()
        rows.append(
            (
                str(rec.t),
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
