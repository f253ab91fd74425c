"""Galois group identification for specialized polynomials of degree 2-6.

Identification consumes one ``Factorization`` over Q of the polynomial and
never factors it again: the splitting field only sees distinct roots, so
every classifier reads the radical, the distinct monic factors that the
factorization lists, and ignores the unit and the multiplicities.  A
reducible radical gets the exact splitting-field composition of its
factors when they are linear and quadratic with at most one cubic (always
so up to degree 4), else only its factor degrees.
An irreducible radical f of degree 2-6 takes one table filter over the
embedded transitive-group tables: the rows whose parity fits the square
class of the integer discriminant of f's monic integer model, and whose
cycle types hold every Frobenius cycle type that the factorizer's residue
scan already read on that model.  The square class comes from an odd
Frobenius first: by Stickelberger's theorem (Swan, Pacific J. Math. 12,
1962) a cycle type of r parts with n - r odd, at a usable odd prime,
proves the discriminant no square.  The discriminant itself (a
subresultant PRS past degree 4) is computed only when every scanned type
is even, or when the quartic resolvent's Kappe-Warren test needs its
value.  Degrees 5 and 6 resume the scan's walk at further primes, up to a
budget; degrees 2-4 read only the scan.  The true group always survives,
and the tables list every transitive group, so a single row left is the
group: parity alone leaves one in degrees 2 and 3, and a 3-cycle in
degree 4.  A quartic left with two or more rows
goes to the filter's resolvent slot, the rational roots of its resolvent
cubic and the Kappe-Warren test, so degrees up to 4 are definitive.
Degrees 5 and 6 have no resolvent stage yet, so the only definitive
verdicts their sieve supports are singletons and order statements shared
by every surviving candidate.

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
from fractions import Fraction
from itertools import chain, islice
from typing import NamedTuple

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


class TransitiveGroupEntry(NamedTuple):
    degree: int
    label: str
    order: int
    kind: str
    maximal_indices: tuple[int, ...]
    cycle_types: frozenset[tuple[int, ...]]
    subgroup_ks: tuple[int, ...]  # k of each nTk conjugate in S_n into this entry
    in_alternating: bool  # every cycle type even


@functools.cache
def transitive_table(n: int) -> list[TransitiveGroupEntry]:
    """All transitive groups of degree n (2 <= n <= 6), read from the table."""
    if n not in _TABLE_DATA:
        raise DomainError(f"no transitive table for degree {n}")
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
    return entries


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


class SieveEvidence(NamedTuple):
    primes: tuple[int, ...] = ()
    observed_types: frozenset = frozenset()
    disc_square: bool | None = None


class GaloisId(NamedTuple):
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
    evidence: SieveEvidence = SieveEvidence()

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


# -- the table filter, degrees 2..6 ------------------------------------------------


def _resolvent_ints(F) -> list[int]:
    """The resolvent cubic of the monic integer quartic F: the monic integer
    cubic whose roots are x1x2+x3x4, x1x3+x2x4 and x1x4+x2x3 for the roots
    x_i of F, with disc(F) as its discriminant."""
    d, c, b, a, _ = F
    return [-(a * a * d - 4 * b * d + c * c), a * c - 4 * d, -b, 1]


def _splits_over(disc_q: int, D: int) -> bool:
    """Does a quadratic of discriminant disc_q split over Q(sqrt(D))?"""
    return is_square_int(disc_q) or is_square_int(disc_q * D)


def _quartic_resolvent(F, disc_sq: bool, disc: int | None) -> TransitiveGroupEntry:
    """The degree-4 resolvent stage: the group of the irreducible monic
    integer quartic F = X^4 + a X^3 + b X^2 + c X + d, whose discriminant
    has the square class disc_sq and is disc (None: not computed yet),
    from the rational roots of its resolvent cubic.  None gives A4 or S4 by
    disc_sq, three give V4, and one root z gives C4 or D4 by the
    Kappe-Warren test, the one step that needs disc itself: C4 exactly when
    z^2 - 4d and a^2 - 4(b - z) both split over Q(sqrt(disc))."""
    C4, V4, D4, A4, S4 = transitive_table(4)
    cubic = _resolvent_ints(F)
    roots = rational_roots(UniPoly.from_ints(cubic, 1))
    if not roots:
        return A4 if disc_sq else S4
    if len(roots) == 3:
        return V4
    if disc is None:
        disc = _discriminant_ints(cubic)
    z = roots.pop().numerator  # an integer: the cubic is monic
    d, _, b, a, _ = F
    cyclic = _splits_over(z * z - 4 * d, disc) and _splits_over(a * a - 4 * (b - z), disc)
    return C4 if cyclic else D4


def _identify_irreducible(
    fac: Factorization, f: UniPoly, budget: int | None, within: TransitiveGroupEntry | None
) -> tuple[list[TransitiveGroupEntry], SieveEvidence]:
    """The table rows that fit f, the irreducible radical of ``fac`` of
    degree n in 2..6, and the evidence that left them.

    F is f's monic integer model of scale m: ``fac.model`` when the scan
    ran on the input (then the input is f times a unit, and F is f's),
    else built here.  The rows, of the degree-n table or conjugate into
    ``within``, are cut to the parity of disc(F) = m^(n(n-1)) disc(f).  A
    scanned cycle type of r parts with n - r odd proves disc(F) no square
    (Stickelberger), and then disc(F) is left uncomputed; only when every
    scanned type is even, or none was handed over, is it computed (a
    quartic's from its resolvent cubic, whose discriminant equals disc(F)
    in closed form).  The rows are then cut by each Frobenius cycle type
    (Dedekind) that the scan handed over and, in degrees 5 and 6, that the
    walk resumed after it reads (``factorq.usable_cycle_types``): at most
    ``budget`` primes (None: no bound), until at most one row is left.  A
    set that starts as a singleton is read to the end, so that a wrong
    reference can still be refuted; an empty one raises.  The resolvent slot: a quartic that keeps
    two or more rows gets its group from ``_quartic_resolvent``, which
    computes disc(F) itself if its Kappe-Warren test needs the value.
    """
    n = f.degree
    F, m = fac.model or _monic_int_model(f.primitive())
    disc = None
    if any((n - len(ct)) % 2 for _, ct in fac.scanned):
        disc_sq = False  # Stickelberger: an odd Frobenius, a non-square disc(F)
    else:
        disc = _discriminant_ints(_resolvent_ints(F) if n == 4 else F)
        disc_sq = is_square_int(disc)
    table = transitive_table(n) if within is None else transitive_subgroups(within)
    rows = [e for e in table if e.in_alternating == disc_sq]
    stop = 1 if len(rows) > 1 else 0  # the set size that ends the walk
    walk = fac.scanned
    if n > 4:
        walk = chain(walk, usable_cycle_types(F, m, None, walk[-1][0] if walk else 2))
    observed: set[tuple[int, ...]] = set()
    primes: list[int] = []
    for p, ct in islice(walk, budget):
        primes.append(p)
        observed.add(ct)
        rows = [e for e in rows if ct in e.cycle_types]
        if len(rows) <= stop:
            break
    if not rows:
        if within is not None:
            raise ReferenceMismatchError(p, ct, within.label)
        raise InconclusiveError("no transitive group fits the evidence")
    if n == 4 and len(rows) > 1:
        rows = [_quartic_resolvent(F, disc_sq, disc)]
    return rows, SieveEvidence(tuple(primes), frozenset(observed), disc_sq)


# -- reducible radicals ----------------------------------------------------------


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


def _reducible_radical(fac: Factorization) -> GaloisId:
    """The group of a polynomial whose radical, the distinct factors of
    ``fac``, is reducible: the exact splitting-field composition when they
    are linear and quadratic with at most one cubic (always so up to degree
    4), else only their degrees (mode 'factored').  The quadratics'
    discriminants span the C2 part; an S3 cubic's own field already holds
    the square root of its discriminant, so that class is counted in the
    rank and taken off again."""
    radical = [g for g, _ in fac.factors]
    degrees = tuple(sorted(g.degree for g in radical))
    cubics = [g for g in radical if g.degree == 3]
    if degrees[-1] > 3 or len(cubics) > 1:
        return GaloisId(degree=fac.degree, mode="factored", factor_degrees=degrees)
    classes = [discriminant_uni(g) for g in radical if g.degree == 2]
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


# -- entry points ---------------------------------------------------------------


def classify_degree_le4(fac: Factorization) -> GaloisId:
    """Definitive Galois group of a polynomial whose radical has degree 1..4.

    Only the radical is read, off the distinct factors that the
    factorization lists: the splitting field only sees distinct roots (the
    degenerate specializations audited inside exclusion sets need this).
    An irreducible radical of degree 2..4 takes the table filter on the
    scan that the factorization hands over, with no walk resumed, and a
    quartic that keeps two or more rows the resolvent stage; its
    ``GaloisId`` carries no sieve evidence.
    """
    if fac.degree < 1:
        raise DomainError("classification needs degree >= 1")
    if sum(g.degree for g, _ in fac.factors) > 4:  # the radical's degree
        raise DomainError("degree > 4")
    if len(fac.factors) > 1:
        return _reducible_radical(fac)
    f = fac.factors[0][0]
    if f.degree == 1:
        return GaloisId(degree=fac.degree, mode="definitive", kind="C1", order=1)
    (e,), _ = _identify_irreducible(fac, f, None, None)
    return GaloisId(degree=fac.degree, mode="definitive", label=e.label, kind=e.kind, order=e.order)


def sieve_degree_5_6(
    fac: Factorization, budget: int, within: TransitiveGroupEntry | None = None
) -> GaloisId:
    """Cycle-type sieve for a polynomial whose radical has degree 5 or 6.

    An irreducible radical takes the table filter (``_identify_irreducible``)
    on the scan that ``factor_over_Q`` handed over, resuming the walk only
    when it needs more: at least one and at most ``budget`` usable primes,
    until at most one candidate is left.  The true group always survives,
    so increasing the budget never enlarges the set.  With ``within`` (a
    table entry), only the groups conjugate into it are candidates, a
    singleton is reported as 'conditional', and an empty set refutes the
    reference (``ReferenceMismatchError``).  With no resolvent stage for
    these degrees yet, two or more candidates are 'sieved'.  A reducible
    radical gets its splitting field when that is resolved here, else only
    its factor degrees.  The radical is read off the distinct factors that
    the factorization lists.
    """
    if budget < 1:
        raise DomainError("prime budget must be at least 1")
    if sum(g.degree for g, _ in fac.factors) not in (5, 6):  # the radical's degree
        raise DomainError("sieve handles degrees 5 and 6")
    n = fac.degree
    if len(fac.factors) > 1:
        return _reducible_radical(fac)
    f = fac.factors[0][0]
    if within is not None and within.degree != f.degree:
        raise DomainError(f"reference degree {within.degree} != {f.degree}")
    candidates, evidence = _identify_irreducible(fac, f, budget, within)
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
    entry has both.  A reducible polynomial of the reference's degree never
    matches: outside the exclusion set it is separable, so its group is
    intransitive, while the reference is transitive.  None when the sieve
    candidates disagree about matching the reference order, or when only
    the factor degrees of a polynomial of another degree are known.
    """
    if gid.factor_degrees and gid.degree == reference.degree:
        return False
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
