"""Galois group identification for specialized polynomials of degree 2-6.

Identification consumes one ``Factorization`` over Q of the polynomial and
never factors it again: the splitting field only sees distinct roots, so
every classifier reads the radical (the distinct monic factors).  Radicals
of degree up to 4 are classified definitively (discriminant square test,
resolvent cubic, exact splitting-field composition for reducible inputs).
Degrees 5 and 6 get a cycle-type sieve against embedded transitive-group
tables: the candidate set always contains the true group, so the only
definitive verdicts it supports are singletons and order statements shared
by every surviving candidate.  Honesty lives in the ``mode`` field.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, InconclusiveError
from .factorq import Factorization, cycle_type_mod_p, factor_over_Q
from .polys import UniPoly, discriminant_uni
from .permgroups import PermGroup, closure, conjugate_in_symmetric, parse_perm
from .rationals import factor_int, is_square_rational, odd_primes, squarefree_kernel


# -- embedded transitive group tables, degrees 2..6 -----------------------------
#
# label, order, abstract isomorphism kind, generators.  Orders and parity are
# re-derived and checked at load time by the closure engine.

_TABLE_DATA: dict[int, list[tuple[str, int, str, tuple[str, ...]]]] = {
    2: [("2T1", 2, "C2", ("(1,2)",))],
    3: [
        ("3T1", 3, "C3", ("(1,2,3)",)),
        ("3T2", 6, "S3", ("(1,2)", "(1,2,3)")),
    ],
    4: [
        ("4T1", 4, "C4", ("(1,2,3,4)",)),
        ("4T2", 4, "V4", ("(1,2)(3,4)", "(1,3)(2,4)")),
        ("4T3", 8, "D4", ("(1,2,3,4)", "(1,3)")),
        ("4T4", 12, "A4", ("(1,2,3)", "(1,2)(3,4)")),
        ("4T5", 24, "S4", ("(1,2)", "(1,2,3,4)")),
    ],
    5: [
        ("5T1", 5, "C5", ("(1,2,3,4,5)",)),
        ("5T2", 10, "D5", ("(1,2,3,4,5)", "(2,5)(3,4)")),
        ("5T3", 20, "F20", ("(1,2,3,4,5)", "(2,3,5,4)")),
        ("5T4", 60, "A5", ("(1,2,3,4,5)", "(1,2,3)")),
        ("5T5", 120, "S5", ("(1,2)", "(1,2,3,4,5)")),
    ],
    6: [
        ("6T1", 6, "C6", ("(1,2,3,4,5,6)",)),
        ("6T2", 6, "S3", ("(1,2,3)(4,6,5)", "(1,4)(2,5)(3,6)")),
        ("6T3", 12, "D6", ("(1,2,3,4,5,6)", "(1,6)(2,5)(3,4)")),
        ("6T4", 12, "A4", ("(1,4,2)(3,5,6)", "(2,5)(3,4)")),
        ("6T5", 18, "F18", ("(1,2,3)", "(4,5,6)", "(1,4)(2,5)(3,6)")),
        ("6T6", 24, "C2xA4", ("(1,2)", "(1,3,5)(2,4,6)")),
        ("6T7", 24, "S4", ("(1,4)(2,6)(3,5)", "(2,5,4,3)")),
        ("6T8", 24, "S4", ("(2,4)(3,5)", "(1,4,6,3)(2,5)")),
        (
            "6T9",
            36,
            "S3xS3",
            ("(1,4,5)(2,3,6)", "(1,3)(2,4)(5,6)", "(1,5,4)(2,3,6)", "(1,3)(2,5)(4,6)"),
        ),
        ("6T10", 36, "F36", ("(1,2,3)", "(4,5,6)", "(1,4,2,5)(3,6)")),
        ("6T11", 48, "C2xS4", ("(1,2)", "(1,3,5)(2,4,6)", "(1,3)(2,4)")),
        ("6T12", 60, "A5", ("(1,2,3,4,5)", "(1,6)(2,5)")),
        ("6T13", 72, "S3wr2", ("(1,2,3)", "(1,2)", "(1,4)(2,5)(3,6)")),
        ("6T14", 120, "S5", ("(1,2,3,4,5)", "(1,6)(2,5)", "(2,3,5,4)")),
        ("6T15", 360, "A6", ("(1,2,3)", "(2,3,4,5,6)")),
        ("6T16", 720, "S6", ("(1,2)", "(1,2,3,4,5,6)")),
    ],
}


@dataclass(frozen=True)
class TransitiveGroupEntry:
    degree: int
    label: str
    order: int
    kind: str
    group: PermGroup
    cycle_types: frozenset[tuple[int, ...]]
    in_alternating: bool


_TABLE_CACHE: dict[int, list[TransitiveGroupEntry]] = {}


def transitive_table(n: int) -> list[TransitiveGroupEntry]:
    """All transitive groups of degree n (2 <= n <= 6), validated at load."""
    if n not in _TABLE_DATA:
        raise DomainError(f"no transitive table for degree {n}")
    if n not in _TABLE_CACHE:
        entries = []
        for label, order, kind, gen_strs in _TABLE_DATA[n]:
            G = closure(n, [parse_perm(s, n) for s in gen_strs])
            if G.order != order:
                raise DomainError(f"table entry {label}: order {G.order} != {order}")
            if not G.is_transitive():
                raise DomainError(f"table entry {label} is not transitive")
            entries.append(
                TransitiveGroupEntry(
                    degree=n,
                    label=label,
                    order=order,
                    kind=kind,
                    group=G,
                    cycle_types=G.cycle_type_set(),
                    in_alternating=G.in_alternating(),
                )
            )
        _TABLE_CACHE[n] = entries
    return _TABLE_CACHE[n]


def table_entry(label: str) -> TransitiveGroupEntry:
    n = int(label.split("T")[0])
    for e in transitive_table(n):
        if e.label == label:
            return e
    raise DomainError(f"unknown transitive group label {label}")


@functools.cache
def label_for_group(G: PermGroup) -> str | None:
    """nTk label of a transitive G of degree 2..6, by conjugacy matching.

    Cached: a sweep asks for its reference group's label once per record,
    and every brute-force match runs over all of S_n.
    """
    if G.degree not in _TABLE_DATA or not G.is_transitive():
        return None
    for e in transitive_table(G.degree):
        if e.order == G.order and conjugate_in_symmetric(G, e.group):
            return e.label
    return None


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
    isomorphism class.  mode 'sieved': candidates is the set of table
    labels consistent with all observed evidence (the true group is always
    among them).  mode 'factored': the input was a reducible quintic or
    sextic whose splitting field is not resolved here; only the factor
    degrees are reported.
    """

    degree: int
    mode: str  # 'definitive' | 'sieved' | 'factored'
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
        if self.mode == "sieved":
            return "candidates {%s}" % ",".join(self.candidates)
        return f"reducible, factor degrees {list(self.factor_degrees)}"


# -- square-class linear algebra -------------------------------------------------


def _f2_rank(kernels: list[int]) -> int:
    """Rank over F_2 of squarefree kernels, each a set of primes (-1 for the sign)."""
    basis: list[set[int]] = []
    for k in kernels:
        v = set(factor_int(k)) | ({-1} if k < 0 else set())
        for b in basis:
            if max(b) in v:
                v ^= b
        if v:
            basis.append(v)
    return len(basis)


# -- definitive classification, degree <= 4 --------------------------------------


def resolvent_cubic(f: UniPoly) -> UniPoly:
    """Cubic with roots x1x2+x3x4, x1x3+x2x4, x1x4+x2x3 of a monic quartic.

    Its discriminant equals the discriminant of f.
    """
    if f.degree != 4:
        raise DomainError("resolvent cubic needs a quartic")
    f = f.monic()
    d, c, b, a = f.coeffs[0], f.coeffs[1], f.coeffs[2], f.coeffs[3]
    return UniPoly(
        [-(a * a * d - 4 * b * d + c * c), a * c - 4 * d, -b, Fraction(1)]
    )


def _splits_over(disc_q: Fraction, D: Fraction) -> bool:
    """Does a quadratic of discriminant disc_q split over Q(sqrt(D))?"""
    return is_square_rational(disc_q) or is_square_rational(disc_q * D)


def _classify_irreducible_quartic(f: UniPoly) -> tuple[str, str, int]:
    f = f.monic()
    D = discriminant_uni(f)
    R = resolvent_cubic(f)
    rfac = factor_over_Q(R)
    rtype = rfac.type()
    if rtype == (3,):
        return ("4T4", "A4", 12) if is_square_rational(D) else ("4T5", "S4", 24)
    if rtype == (1, 1, 1):
        return ("4T2", "V4", 4)
    # exactly one rational root: C4 vs D4 (Kappe-Warren test)
    beta = next(g[0] * -1 for g, _ in rfac.factors if g.degree == 1)
    d0, c, b, a = f.coeffs[0], f.coeffs[1], f.coeffs[2], f.coeffs[3]
    t1 = beta * beta - 4 * d0
    t2 = a * a - 4 * (b - beta)
    if _splits_over(t1, D) and _splits_over(t2, D):
        return ("4T1", "C4", 4)
    return ("4T3", "D4", 8)


def _compose_kind(cyclic: str, rank: int) -> tuple[str, int]:
    """Abstract kind and order of (cubic part) x C2^rank."""
    if cyclic == "1":
        if rank == 0:
            return "C1", 1
        if rank == 1:
            return "C2", 2
        if rank == 2:
            return "V4", 4
        return f"C2^{rank}", 2**rank
    if cyclic == "C3":
        base = ("C3", 3)
    else:
        base = ("S3", 6)
    if rank == 0:
        return base
    if rank == 1:
        return ("C6", 6) if cyclic == "C3" else ("D6", 12)
    name = ("C6" if cyclic == "C3" else "D6") + f"xC2^{rank-1}"
    return name, base[1] * 2**rank


def _splitting_of_factors(factors: list[UniPoly]) -> tuple[str, int] | None:
    """Exact splitting-field data for a list of irreducible factors.

    Handles any mix of linear and quadratic factors plus at most one cubic;
    anything else (two cubics, a quartic inside a sextic, ...) returns None.
    """
    quad_classes: list[int] = []
    cubic: UniPoly | None = None
    for g in factors:
        if g.degree == 1:
            continue
        if g.degree == 2:
            quad_classes.append(squarefree_kernel(discriminant_uni(g)))
        elif g.degree == 3 and cubic is None:
            cubic = g
        else:
            return None
    if cubic is None:
        r = _f2_rank(quad_classes)
        return _compose_kind("1", r)
    d3 = discriminant_uni(cubic)
    if is_square_rational(d3):
        r = _f2_rank(quad_classes)
        return _compose_kind("C3", r)
    k3 = squarefree_kernel(d3)
    r = _f2_rank(quad_classes + [k3]) - 1  # quadratics beyond Q(sqrt(disc))
    return _compose_kind("S3", r)


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
            label, kind, order = _classify_irreducible_quartic(g)
        return GaloisId(
            degree=fac.degree, mode="definitive", label=label, kind=kind, order=order
        )
    data = _splitting_of_factors([h for h, _ in rad.factors])
    if data is None:
        raise DomainError("unreachable: factors of a quartic are at most cubic")
    kind, order = data
    return GaloisId(
        degree=fac.degree,
        mode="definitive",
        label=None,
        kind=kind,
        order=order,
        factor_degrees=rad.type(),
    )


# -- degree 5/6 sieve --------------------------------------------------------------


def _usable_primes(f: UniPoly, budget: int):
    found = 0
    for p in odd_primes():
        if found == budget:
            return
        ct = cycle_type_mod_p(f, p)
        if ct is not None:
            found += 1
            yield p, ct


def sieve_degree_5_6(fac: Factorization, budget: int) -> GaloisId:
    """Cycle-type sieve for a polynomial whose radical has degree 5 or 6.

    Candidates are the transitive groups whose cycle types contain every
    observed residue type of the (irreducible) radical, cut down by the
    discriminant square test; the true group always survives, so increasing
    the budget never enlarges the set.  A reducible radical gets its
    splitting field when that is resolved here, else only its factor degrees.
    """
    if budget < 1:
        raise DomainError("prime budget must be at least 1")
    rad = fac.radical()
    if rad.degree not in (5, 6):
        raise DomainError("sieve handles degrees 5 and 6")
    n = fac.degree
    if not rad.is_irreducible():
        data = _splitting_of_factors([h for h, _ in rad.factors])
        if data is not None:
            kind, order = data
            return GaloisId(
                degree=n,
                mode="definitive",
                kind=kind,
                order=order,
                factor_degrees=rad.type(),
            )
        return GaloisId(degree=n, mode="factored", factor_degrees=rad.type())
    f = rad.factors[0][0]
    disc_sq = is_square_rational(discriminant_uni(f))
    observed: set[tuple[int, ...]] = set()
    primes: list[int] = []
    for p, ct in _usable_primes(f, budget):
        primes.append(p)
        observed.add(ct)
    candidates = [
        e
        for e in transitive_table(f.degree)
        if e.in_alternating == disc_sq and observed <= e.cycle_types
    ]
    if not candidates:
        raise InconclusiveError("no transitive group fits the evidence")
    evidence = SieveEvidence(
        primes=tuple(primes), observed_types=frozenset(observed), disc_square=disc_sq
    )
    if len(candidates) == 1:
        e = candidates[0]
        return GaloisId(
            degree=n,
            mode="definitive",
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


def identify_galois(fac: Factorization, budget: int = 32) -> GaloisId:
    """Identify the Galois group of a nonconstant polynomial of degree <= 6.

    Identification consumes the polynomial's one factorization over Q and
    never factors the polynomial again.
    """
    if fac.degree < 1:
        raise DomainError("identification needs degree >= 1")
    if fac.radical().degree <= 4:
        return classify_degree_le4(fac)
    return sieve_degree_5_6(fac, budget)


def groups_match(gid: GaloisId, reference: PermGroup) -> bool | None:
    """Does the identified group equal (abstractly) the reference group?

    True/False when the identification supports a verdict; None when the
    sieve candidates disagree about matching the reference order.
    """
    if gid.mode == "definitive":
        if gid.order != reference.order:
            return False
        ref_label = label_for_group(reference)
        if gid.kind is not None and ref_label is not None:
            return gid.kind == table_entry(ref_label).kind
        if gid.label is not None and ref_label is not None:
            return gid.label == ref_label
        return True
    if gid.mode == "sieved":
        orders = gid.candidate_orders()
        if reference.order not in orders:
            return False
        if orders == {reference.order}:
            return True
        return None
    return None
