"""Galois group identification for specialized polynomials of degree 2-6.

Identification consumes one ``Factorization`` over Q of the polynomial and
never factors it again: the splitting field only sees distinct roots, so
every classifier reads the radical (the distinct monic factors).  Radicals
of degree up to 4 are classified definitively (discriminant square test,
rational roots of the resolvent cubic, exact splitting-field composition
for reducible inputs).
Degrees 5 and 6 get a cycle-type sieve against embedded transitive-group
tables: the candidate set always contains the true group, so the only
definitive verdicts it supports are singletons and order statements shared
by every surviving candidate.  The sieve reads the Frobenius cycle types
that the factorizer's residue scan already found, on the scan's monic
integer model, and reduces the polynomial modulo further primes only when
it needs more; the discriminant it tests is that model's integer one.
An irreducible quartic takes the same first pass over the degree-4 table,
which lists all five transitive groups: once the scan has seen a 3-cycle,
the square class of the resolvent cubic's discriminant leaves one row, A4
or S4, and the resolvent cubic's rational roots are found only while two
or more rows remain.  The resolvent cubic is a monic integer list, so the
sieve and the quartic classifier both take the integer discriminant core
of ``polys``.

Given a reference group G, as its ``TransitiveGroupEntry``, the sieve
starts from the table entries that are conjugate in S_n to a subgroup of G
(the Galois group of a specialization outside the exclusion set is a
decomposition group, hence one of them) and stops at the first prime that
leaves a single candidate.  Such a singleton is exact only if G is the
right generic group, so it is reported with mode ``conditional``, never
``definitive``; a reference that is itself derived by sampling (as for
fermat-x6) makes every conditional verdict derived too.
Honesty lives in the ``mode`` field.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice

from .errors import DomainError, InconclusiveError, ReferenceMismatchError
from .factorq import Factorization, _monic_int_model, rational_roots, usable_cycle_types
from .polys import UniPoly, _discriminant_ints, discriminant_uni
from .rationals import is_square_int, is_square_rational


# -- embedded transitive group tables, degrees 2..6 -----------------------------
#
# label, order, abstract isomorphism kind, sorted indices of the conjugacy
# classes of maximal subgroups, cycle types (one word per type, parts in
# descending order: every part is one digit, as n <= 6), and the k of each
# entry nTk that is conjugate in S_n into this one.  The tables are those of
# Butler & McKay (Comm. Algebra 11, 1983).  Every column is a constant: an
# oracle test in ``tests/test_galois.py`` re-derives each one from the
# entry's generators, which live in ``tests/oracles.py``, and the maximal
# indices of A5, S5, A6 and S6 also agree with the ATLAS (Conway et al., 1985).

_TABLE_DATA: dict[int, list[tuple[str, int, str, tuple[int, ...], str, tuple[int, ...]]]] = {
    2: [("2T1", 2, "C2", (2,), "2 11", (1,))],
    3: [
        ("3T1", 3, "C3", (3,), "3 111", (1,)),
        ("3T2", 6, "S3", (2, 3), "3 21 111", (1, 2)),
    ],
    4: [
        ("4T1", 4, "C4", (2,), "4 22 1111", (1,)),
        ("4T2", 4, "V4", (2, 2, 2), "22 1111", (2,)),
        ("4T3", 8, "D4", (2, 2, 2), "4 22 211 1111", (1, 2, 3)),
        ("4T4", 12, "A4", (3, 4), "31 22 1111", (2, 4)),
        ("4T5", 24, "S4", (2, 3, 4), "4 31 22 211 1111", (1, 2, 3, 4, 5)),
    ],
    5: [
        ("5T1", 5, "C5", (5,), "5 11111", (1,)),
        ("5T2", 10, "D5", (2, 5), "5 221 11111", (1, 2)),
        ("5T3", 20, "F20", (2, 5), "5 41 221 11111", (1, 2, 3)),
        ("5T4", 60, "A5", (5, 6, 10), "5 311 221 11111", (1, 2, 4)),
        ("5T5", 120, "S5", (2, 5, 6, 10), "5 41 32 311 221 2111 11111", (1, 2, 3, 4, 5)),
    ],
    6: [
        ("6T1", 6, "C6", (2, 3), "6 33 222 111111", (1,)),
        ("6T2", 6, "S3", (2, 3), "33 222 111111", (2,)),
        ("6T3", 12, "D6", (2, 2, 2, 3), "6 33 222 2211 111111", (1, 2, 3)),
        ("6T4", 12, "A4", (3, 4), "33 2211 111111", (4,)),
        ("6T5", 18, "F18", (2, 3, 3), "6 33 3111 222 111111", (1, 2, 5)),
        ("6T6", 24, "C2xA4", (2, 3, 4), "6 33 222 2211 21111 111111", (1, 4, 6)),
        ("6T7", 24, "S4", (2, 3, 4), "411 33 222 2211 111111", (2, 4, 7)),
        ("6T8", 24, "S4", (2, 3, 4), "42 33 2211 111111", (4, 8)),
        ("6T9", 36, "S3xS3", (2, 2, 2, 3, 3), "6 33 3111 222 2211 111111", (1, 2, 3, 5, 9)),
        ("6T10", 36, "F36", (2, 9), "42 33 3111 2211 111111", (10,)),
        (
            "6T11",
            48,
            "C2xS4",
            (2, 2, 2, 3, 4),
            "6 42 411 33 222 2211 21111 111111",
            (1, 2, 3, 4, 6, 7, 8, 11),
        ),
        ("6T12", 60, "A5", (5, 6, 10), "51 33 2211 111111", (4, 12)),
        (
            "6T13",
            72,
            "S3wr2",
            (2, 2, 2, 9),
            "6 42 33 321 3111 222 2211 21111 111111",
            (1, 2, 3, 5, 9, 10, 13),
        ),
        ("6T14", 120, "S5", (2, 5, 6, 10), "6 51 411 33 222 2211 111111", (1, 2, 3, 4, 7, 12, 14)),
        ("6T15", 360, "A6", (6, 6, 10, 15, 15), "51 42 33 3111 2211 111111", (4, 8, 10, 12, 15)),
        (
            "6T16",
            720,
            "S6",
            (2, 6, 6, 10, 15, 15),
            "6 51 42 411 33 321 3111 222 2211 21111 111111",
            tuple(range(1, 17)),
        ),
    ],
}


@dataclass(frozen=True)
class TransitiveGroupEntry:
    degree: int
    label: str
    order: int
    kind: str
    maximal_indices: tuple[int, ...]
    cycle_types: frozenset[tuple[int, ...]]
    subgroup_ks: tuple[int, ...]  # k of each nTk conjugate in S_n into this entry
    in_alternating: bool  # every cycle type even


_TABLE_CACHE: dict[int, list[TransitiveGroupEntry]] = {}


def transitive_table(n: int) -> list[TransitiveGroupEntry]:
    """All transitive groups of degree n (2 <= n <= 6), read from the table."""
    if n not in _TABLE_DATA:
        raise DomainError(f"no transitive table for degree {n}")
    if n not in _TABLE_CACHE:
        entries = []
        for label, order, kind, maximal, types, ks in _TABLE_DATA[n]:
            cycle_types = frozenset(tuple(map(int, word)) for word in types.split())
            entries.append(
                TransitiveGroupEntry(
                    degree=n,
                    label=label,
                    order=order,
                    kind=kind,
                    maximal_indices=maximal,
                    cycle_types=cycle_types,
                    subgroup_ks=ks,
                    in_alternating=all((n - len(ct)) % 2 == 0 for ct in cycle_types),
                )
            )
        _TABLE_CACHE[n] = entries
    return _TABLE_CACHE[n]


def table_entry(label: str) -> TransitiveGroupEntry:
    m = re.fullmatch(r"([0-9]+)T[0-9]+", label) if isinstance(label, str) else None
    if m is None:
        raise DomainError(f"not a transitive group label of the form <n>T<k>: {label!r}")
    for e in transitive_table(int(m[1])):
        if e.label == label:
            return e
    raise DomainError(f"unknown transitive group label {label}")


@functools.cache
def transitive_subgroups(G: TransitiveGroupEntry) -> tuple[TransitiveGroupEntry, ...]:
    """Table entries of G's degree that are conjugate in S_n into G, in
    table order: the sieve's candidates inside the reference G."""
    return tuple(transitive_table(G.degree)[k - 1] for k in G.subgroup_ks)


# -- identification results ------------------------------------------------------


@dataclass(frozen=True)
class SieveEvidence:
    primes: tuple[int, ...] = ()
    observed_types: frozenset = frozenset()
    disc_square: bool | None = None


@dataclass(frozen=True)
class GaloisId:
    """Identification of the Galois group of a specialized polynomial.

    mode 'definitive': label and order are exact; kind names the abstract
    isomorphism class.  mode 'conditional': as 'definitive', but the sieve
    ran inside a reference group's subgroups, so the label is exact only if
    the reference is the true generic group.  mode 'sieved': candidates is
    the set of table labels consistent with all observed evidence (the true
    group is always among them, inside the reference if one was given).
    mode 'factored': the input was a reducible quintic or sextic whose
    splitting field is not resolved here; only the factor degrees are
    reported.
    """

    degree: int
    mode: str  # 'definitive' | 'conditional' | 'sieved' | 'factored'
    label: str | None = None
    kind: str | None = None
    order: int | None = None
    candidates: tuple[str, ...] = ()
    factor_degrees: tuple[int, ...] = ()
    evidence: SieveEvidence = field(default_factory=SieveEvidence)

    def candidate_orders(self) -> frozenset[int]:
        return frozenset(table_entry(lbl).order for lbl in self.candidates)

    def describe(self) -> str:
        if self.mode == "definitive":
            lbl = self.label or self.kind
            return f"{lbl} (order {self.order})"
        if self.mode == "conditional":
            return f"{self.label} (order {self.order}) if the reference is right"
        if self.mode == "sieved":
            return "candidates {%s}" % ",".join(self.candidates)
        return f"reducible, factor degrees {list(self.factor_degrees)}"


# -- square-class linear algebra -------------------------------------------------


def _f2_rank(classes: list[Fraction]) -> int:
    """Rank over F_2 of nonzero rationals in Q*/Q*^2.  Of the 2^r products
    of subsets of r classes, exactly 2^(r - rank) are squares (the kernel
    of F_2^r -> Q*/Q*^2), so square tests alone give the rank: no integer
    is factored."""
    products = [Fraction(1)]
    for q in classes:
        products += [q * c for c in products]
    squares = sum(map(is_square_rational, products))
    return len(classes) - squares.bit_length() + 1


# -- definitive classification, degree <= 4 --------------------------------------


def _resolvent_ints(N: list[int], D: int) -> list[int]:
    """D^3 R(z/D) for R the resolvent cubic of the monic quartic N/D, a monic
    integer cubic whose roots are D times those of R."""
    n0, n1, n2, n3, _ = N
    return [-(n3 * n3 * n0 - 4 * n2 * n0 * D + n1 * n1 * D), n3 * n1 - 4 * n0 * D, -n2, 1]


def _splits_over(disc_q: int, D: int) -> bool:
    """Does a quadratic of discriminant disc_q split over Q(sqrt(D))?"""
    return is_square_int(disc_q) or is_square_int(disc_q * D)


def _classify_irreducible_quartic(f: UniPoly, scanned) -> tuple[str, str, int]:
    """Label, kind and order of an irreducible quartic's Galois group G.

    ``scanned`` holds (p, cycle type) pairs of f at unramified primes, as
    the factorizer's residue scan hands them over: each type is that of a
    Frobenius element, so it lies in G (Dedekind).  The rows of the
    degree-4 table whose parity agrees with the discriminant's square class
    and whose cycle types hold every scanned one are the candidates, and
    the table lists all five transitive groups, so a single survivor is G:
    a 3-cycle leaves A4 or S4, and the square test picks one.  Only while
    two or more rows remain are the rational roots of the resolvent cubic R
    found: none gives A4 or S4 by the discriminant, three give V4, and one
    root beta gives C4 or D4 by the Kappe-Warren test.  Everything is
    scaled to integers by the quartic's common denominator D, which changes
    no square class."""
    N, D = f.monic().ints_den()
    R = _resolvent_ints(N, D)
    disc = _discriminant_ints(R)  # D^6 disc(f)
    disc_sq = is_square_int(disc)
    candidates = [
        e
        for e in transitive_table(4)
        if e.in_alternating == disc_sq and all(ct in e.cycle_types for _, ct in scanned)
    ]
    if len(candidates) == 1:
        return candidates[0].label, candidates[0].kind, candidates[0].order
    roots = rational_roots(UniPoly.from_ints(R, 1))
    if not roots:
        return ("4T4", "A4", 12) if disc_sq else ("4T5", "S4", 24)
    if len(roots) == 3:
        return ("4T2", "V4", 4)
    # beta = z/D: D^2 (beta^2 - 4 n0/D) and D^2 (a^2 - 4 (b - beta)) for
    # f = X^4 + a X^3 + b X^2 + ... must both split over Q(sqrt(disc))
    z = roots.pop().numerator  # an integer: R is monic
    t1 = z * z - 4 * N[0] * D
    t2 = N[3] * N[3] - 4 * D * (N[2] - z)
    if _splits_over(t1, disc) and _splits_over(t2, disc):
        return ("4T1", "C4", 4)
    return ("4T3", "D4", 8)


def _compose_kind(cyclic: str, rank: int) -> tuple[str, int]:
    """Abstract kind and order of (cubic part) x C2^rank.  Beside a cubic a
    radical of degree at most 6 has room for one quadratic, so there the
    rank is at most 1."""
    if cyclic == "1":
        if rank == 0:
            return "C1", 1
        if rank == 1:
            return "C2", 2
        if rank == 2:
            return "V4", 4
        return f"C2^{rank}", 2**rank
    if cyclic == "C3":
        return ("C6", 6) if rank else ("C3", 3)
    return ("D6", 12) if rank else ("S3", 6)


def _reducible_radical(fac: Factorization, rad: Factorization) -> GaloisId:
    """The group of a polynomial whose radical ``rad`` is reducible: the
    exact splitting-field composition when the factors are linear and
    quadratic with at most one cubic (always so up to degree 4), else only
    the factor degrees (mode 'factored').  The quadratics' discriminants
    span the C2 part; an S3 cubic's own field already holds the square root
    of its discriminant, so that class is counted in the rank and taken
    off again."""
    degrees = rad.type()
    cubics = [g for g, _ in rad.factors if g.degree == 3]
    if degrees[-1] > 3 or len(cubics) > 1:
        return GaloisId(degree=fac.degree, mode="factored", factor_degrees=degrees)
    classes = [discriminant_uni(g) for g, _ in rad.factors if g.degree == 2]
    cyclic = "1"
    if cubics:
        d3 = discriminant_uni(cubics[0])
        cyclic = "C3" if is_square_rational(d3) else "S3"
        classes.append(d3)  # a square adds nothing to the rank
    rank = _f2_rank(classes) - (cyclic == "S3")
    kind, order = _compose_kind(cyclic, rank)
    return GaloisId(
        degree=fac.degree, mode="definitive", kind=kind, order=order, factor_degrees=degrees
    )


def classify_degree_le4(fac: Factorization) -> GaloisId:
    """Definitive Galois group of a polynomial whose radical has degree 1..4.

    Only the radical of the factorization is read: the splitting field only
    sees distinct roots (the degenerate specializations audited inside
    exclusion sets need this).
    """
    if fac.degree < 1:
        raise DomainError("classification needs degree >= 1")
    rad = fac.radical()
    if rad.degree > 4:
        raise DomainError("degree > 4")
    if rad.is_irreducible():
        g = rad.factors[0][0]
        n = g.degree
        if n == 1:
            label, kind, order = None, "C1", 1
        elif n == 2:
            label, kind, order = "2T1", "C2", 2
        elif n == 3:
            if is_square_rational(discriminant_uni(g)):
                label, kind, order = "3T1", "C3", 3
            else:
                label, kind, order = "3T2", "S3", 6
        else:
            label, kind, order = _classify_irreducible_quartic(g, rad.scanned)
        return GaloisId(
            degree=fac.degree, mode="definitive", label=label, kind=kind, order=order
        )
    return _reducible_radical(fac, rad)


# -- degree 5/6 sieve --------------------------------------------------------------


def sieve_degree_5_6(
    fac: Factorization, budget: int, within: TransitiveGroupEntry | None = None
) -> GaloisId:
    """Cycle-type sieve for a polynomial whose radical has degree 5 or 6.

    Candidates are the transitive groups whose cycle types contain every
    observed residue type of the (irreducible) radical, cut down by the
    discriminant square test; the true group always survives, so increasing
    the budget never enlarges the set.  Primes are examined one at a time,
    at least one and at most ``budget`` usable ones, until at most one
    candidate is left; a set that starts as a singleton is read to the
    budget, so that a wrong reference can still be refuted.  With
    ``within`` (a table entry), only the groups conjugate into it are
    candidates, and a singleton is reported as 'conditional'; an empty set
    refutes the reference (``ReferenceMismatchError``).

    The primes and their cycle types are those of the monic integer model
    F of scale m that ``factor_over_Q``'s residue scan walked: the usable
    odd primes prime to m at which F is squarefree, in increasing order
    (``factorq.usable_cycle_types``).  A factorization whose scan ran on
    the input carries F, m and the scan's (p, cycle type) list; the sieve
    reads that list first and resumes the walk after its last prime only
    when it needs more.  The square test and the primes skipped unread
    come from the integer disc(F) = m^(n(n-1)) disc(f), which has f's
    square class and f's prime divisors outside m.  A reducible radical
    gets its splitting field when that is resolved here, else only its
    factor degrees.
    """
    if budget < 1:
        raise DomainError("prime budget must be at least 1")
    rad = fac.radical()
    if rad.degree not in (5, 6):
        raise DomainError("sieve handles degrees 5 and 6")
    n = fac.degree
    if not rad.is_irreducible():
        return _reducible_radical(fac, rad)
    f = rad.factors[0][0]
    if within is None:
        table = transitive_table(f.degree)
    elif within.degree == f.degree:
        table = transitive_subgroups(within)
    else:
        raise DomainError(f"reference degree {within.degree} != {f.degree}")
    # a model on fac is f's: only a squarefree input keeps one
    F, m = fac.model or _monic_int_model(f.primitive())
    disc = _discriminant_ints(F)
    disc_sq = is_square_int(disc)
    candidates = [e for e in table if e.in_alternating == disc_sq]
    stop = 1 if len(candidates) > 1 else 0  # the set size that ends the scan
    observed: set[tuple[int, ...]] = set()
    primes: list[int] = []
    scanned = fac.scanned
    walk = chain(scanned, usable_cycle_types(F, m, disc, scanned[-1][0] if scanned else 2))
    for p, ct in islice(walk, budget):
        primes.append(p)
        observed.add(ct)
        candidates = [e for e in candidates if ct in e.cycle_types]
        if len(candidates) <= stop:
            break
    if not candidates:
        if within is not None:
            raise ReferenceMismatchError(p, ct, within.label)
        raise InconclusiveError("no transitive group fits the evidence")
    evidence = SieveEvidence(
        primes=tuple(primes), observed_types=frozenset(observed), disc_square=disc_sq
    )
    if len(candidates) == 1:
        e = candidates[0]
        return GaloisId(
            degree=n,
            mode="definitive" if within is None else "conditional",
            label=e.label,
            kind=e.kind,
            order=e.order,
            candidates=(e.label,),
            evidence=evidence,
        )
    orders = {e.order for e in candidates}
    return GaloisId(
        degree=n,
        mode="sieved",
        order=orders.pop() if len(orders) == 1 else None,
        candidates=tuple(e.label for e in candidates),
        evidence=evidence,
    )


def identify_galois(
    fac: Factorization, budget: int = 32, within: TransitiveGroupEntry | None = None
) -> GaloisId:
    """Identify the Galois group of a nonconstant polynomial of degree <= 6.

    Identification consumes the polynomial's one factorization over Q and
    never factors the polynomial again.  ``within`` (the table entry of a
    group the true one is known to be conjugate into) only narrows the
    degree-5/6 sieve.
    """
    if fac.degree < 1:
        raise DomainError("identification needs degree >= 1")
    if sum(g.degree for g, _ in fac.factors) <= 4:  # the radical's degree
        return classify_degree_le4(fac)
    return sieve_degree_5_6(fac, budget, within)


def groups_match(gid: GaloisId, reference: TransitiveGroupEntry) -> bool | None:
    """Does the identified group equal (abstractly) the reference group?

    True/False when the identification supports a verdict: a definitive or
    conditional one names its order and kind, and the reference's table
    entry has both.  None when the sieve candidates disagree about matching
    the reference order.
    """
    if gid.mode in ("definitive", "conditional"):
        return gid.order == reference.order and gid.kind == reference.kind
    if gid.mode == "sieved":
        orders = gid.candidate_orders()
        if reference.order not in orders:
            return False
        if orders == {reference.order}:
            return True
        return None
    return None
