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
by every surviving candidate.

Given a reference group G, the sieve starts from the table entries that are
conjugate in S_n to a subgroup of G (the Galois group of a specialization
outside the exclusion set is a decomposition group, hence one of them) and
stops at the first prime that leaves a single candidate.  Such a singleton
is exact only if G is the right generic group, so it is reported with mode
``conditional``, never ``definitive``; a reference that is itself derived by
sampling (as for fermat-x6) makes every conditional verdict derived too.
Honesty lives in the ``mode`` field.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from .errors import DomainError, InconclusiveError, ReferenceMismatchError
from .factorq import Factorization, rational_roots, usable_cycle_types
from .polys import UniPoly, discriminant_uni
from .permgroups import PermGroup, closure, conjugate_in_symmetric, conjugates_into, parse_perm
from .rationals import factor_int, is_square_rational, squarefree_kernel


# -- embedded transitive group tables, degrees 2..6 -----------------------------
#
# label, order, abstract isomorphism kind, sorted indices of the conjugacy
# classes of maximal subgroups, generators.  Orders and parity are re-derived
# and checked at load time by the closure engine.  The maximal indices are
# constants: the tests re-derive them with a subgroup-lattice oracle, and
# those of A5, S5, A6 and S6 agree with the ATLAS (Conway et al., 1985).

_TABLE_DATA: dict[int, list[tuple[str, int, str, tuple[int, ...], tuple[str, ...]]]] = {
    2: [("2T1", 2, "C2", (2,), ("(1,2)",))],
    3: [
        ("3T1", 3, "C3", (3,), ("(1,2,3)",)),
        ("3T2", 6, "S3", (2, 3), ("(1,2)", "(1,2,3)")),
    ],
    4: [
        ("4T1", 4, "C4", (2,), ("(1,2,3,4)",)),
        ("4T2", 4, "V4", (2, 2, 2), ("(1,2)(3,4)", "(1,3)(2,4)")),
        ("4T3", 8, "D4", (2, 2, 2), ("(1,2,3,4)", "(1,3)")),
        ("4T4", 12, "A4", (3, 4), ("(1,2,3)", "(1,2)(3,4)")),
        ("4T5", 24, "S4", (2, 3, 4), ("(1,2)", "(1,2,3,4)")),
    ],
    5: [
        ("5T1", 5, "C5", (5,), ("(1,2,3,4,5)",)),
        ("5T2", 10, "D5", (2, 5), ("(1,2,3,4,5)", "(2,5)(3,4)")),
        ("5T3", 20, "F20", (2, 5), ("(1,2,3,4,5)", "(2,3,5,4)")),
        ("5T4", 60, "A5", (5, 6, 10), ("(1,2,3,4,5)", "(1,2,3)")),
        ("5T5", 120, "S5", (2, 5, 6, 10), ("(1,2)", "(1,2,3,4,5)")),
    ],
    6: [
        ("6T1", 6, "C6", (2, 3), ("(1,2,3,4,5,6)",)),
        ("6T2", 6, "S3", (2, 3), ("(1,2,3)(4,6,5)", "(1,4)(2,5)(3,6)")),
        ("6T3", 12, "D6", (2, 2, 2, 3), ("(1,2,3,4,5,6)", "(1,6)(2,5)(3,4)")),
        ("6T4", 12, "A4", (3, 4), ("(1,4,2)(3,5,6)", "(2,5)(3,4)")),
        ("6T5", 18, "F18", (2, 3, 3), ("(1,2,3)", "(4,5,6)", "(1,4)(2,5)(3,6)")),
        ("6T6", 24, "C2xA4", (2, 3, 4), ("(1,2)", "(1,3,5)(2,4,6)")),
        ("6T7", 24, "S4", (2, 3, 4), ("(1,4)(2,6)(3,5)", "(2,5,4,3)")),
        ("6T8", 24, "S4", (2, 3, 4), ("(2,4)(3,5)", "(1,4,6,3)(2,5)")),
        (
            "6T9",
            36,
            "S3xS3",
            (2, 2, 2, 3, 3),
            ("(1,4,5)(2,3,6)", "(1,3)(2,4)(5,6)", "(1,5,4)(2,3,6)", "(1,3)(2,5)(4,6)"),
        ),
        ("6T10", 36, "F36", (2, 9), ("(1,2,3)", "(4,5,6)", "(1,4,2,5)(3,6)")),
        ("6T11", 48, "C2xS4", (2, 2, 2, 3, 4), ("(1,2)", "(1,3,5)(2,4,6)", "(1,3)(2,4)")),
        ("6T12", 60, "A5", (5, 6, 10), ("(1,2,3,4,5)", "(1,6)(2,5)")),
        ("6T13", 72, "S3wr2", (2, 2, 2, 9), ("(1,2,3)", "(1,2)", "(1,4)(2,5)(3,6)")),
        ("6T14", 120, "S5", (2, 5, 6, 10), ("(1,2,3,4,5)", "(1,6)(2,5)", "(2,3,5,4)")),
        ("6T15", 360, "A6", (6, 6, 10, 15, 15), ("(1,2,3)", "(2,3,4,5,6)")),
        ("6T16", 720, "S6", (2, 6, 6, 10, 15, 15), ("(1,2)", "(1,2,3,4,5,6)")),
    ],
}


@dataclass(frozen=True)
class TransitiveGroupEntry:
    degree: int
    label: str
    order: int
    kind: str
    maximal_indices: tuple[int, ...]
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
        for label, order, kind, maximal, gen_strs in _TABLE_DATA[n]:
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
                    maximal_indices=maximal,
                    group=G,
                    cycle_types=G.cycle_type_set(),
                    in_alternating=G.in_alternating(),
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


@functools.cache
def transitive_subgroups(G: PermGroup) -> tuple[TransitiveGroupEntry, ...]:
    """Table entries of G's degree that are conjugate in S_n into G.

    These are the sieve's candidates inside the reference G.  Cached, like
    ``label_for_group``: a sweep sieves every record inside one reference.
    """
    return tuple(e for e in transitive_table(G.degree) if conjugates_into(e.group, G))


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


def _resolvent_ints(N: list[int], D: int) -> list[int]:
    """D^3 R(z/D) for R the resolvent cubic of the monic quartic N/D, a monic
    integer cubic whose roots are D times those of R."""
    n0, n1, n2, n3, _ = N
    return [-(n3 * n3 * n0 - 4 * n2 * n0 * D + n1 * n1 * D), n3 * n1 - 4 * n0 * D, -n2, 1]


def resolvent_cubic(f: UniPoly) -> UniPoly:
    """Cubic with roots x1x2+x3x4, x1x3+x2x4, x1x4+x2x3 of a monic quartic.

    Its discriminant equals the discriminant of f.
    """
    if f.degree != 4:
        raise DomainError("resolvent cubic needs a quartic")
    N, D = f.monic().ints_den()
    r0, r1, r2, r3 = _resolvent_ints(N, D)
    return UniPoly.from_ints([r0, r1 * D, r2 * D * D, r3 * D**3], D**3).monic()


def _splits_over(disc_q: Fraction, D: Fraction) -> bool:
    """Does a quadratic of discriminant disc_q split over Q(sqrt(D))?"""
    return is_square_rational(disc_q) or is_square_rational(disc_q * D)


def _classify_irreducible_quartic(f: UniPoly) -> tuple[str, str, int]:
    """Label, kind and order of an irreducible quartic's Galois group, from
    the rational roots of its resolvent cubic R: none gives A4 or S4 by the
    discriminant, three give V4, and one root beta gives C4 or D4 by the
    Kappe-Warren test.  Everything is scaled to integers by the quartic's
    common denominator D, which changes no square class."""
    N, D = f.monic().ints_den()
    R = UniPoly.from_ints(_resolvent_ints(N, D), 1)
    disc = discriminant_uni(R)  # D^6 disc(f)
    roots = rational_roots(R)
    if not roots:
        return ("4T4", "A4", 12) if is_square_rational(disc) else ("4T5", "S4", 24)
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


def sieve_degree_5_6(
    fac: Factorization, budget: int, within: PermGroup | None = None
) -> GaloisId:
    """Cycle-type sieve for a polynomial whose radical has degree 5 or 6.

    Candidates are the transitive groups whose cycle types contain every
    observed residue type of the (irreducible) radical, cut down by the
    discriminant square test; the true group always survives, so increasing
    the budget never enlarges the set.  Primes are examined one at a time,
    at least one and at most ``budget`` usable ones, until at most one
    candidate is left; a set that starts as a singleton is read to the
    budget, so that a wrong reference can still be refuted.  With
    ``within``, only the groups conjugate into it are candidates, and a
    singleton is reported as 'conditional'; an empty set refutes the
    reference (``ReferenceMismatchError``).  The primes and their cycle
    types come from ``factorq.usable_cycle_types``, which walks the monic
    integer model that the factorization's residue scan walked, so the
    primes that scan read are residue-cache hits.  A reducible radical gets
    its splitting field when that is resolved here, else only its factor
    degrees.
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
    if within is None:
        table = transitive_table(f.degree)
    elif within.degree == f.degree:
        table = transitive_subgroups(within)
    else:
        raise DomainError(f"reference degree {within.degree} != {f.degree}")
    disc = discriminant_uni(f)
    disc_sq = is_square_rational(disc)
    candidates = [e for e in table if e.in_alternating == disc_sq]
    stop = 1 if len(candidates) > 1 else 0  # the set size that ends the scan
    observed: set[tuple[int, ...]] = set()
    primes: list[int] = []
    for p, ct in islice(usable_cycle_types(f, disc), budget):
        primes.append(p)
        observed.add(ct)
        candidates = [e for e in candidates if ct in e.cycle_types]
        if len(candidates) <= stop:
            break
    if not candidates:
        if within is not None:
            raise ReferenceMismatchError(p, ct, label_for_group(within))
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
    fac: Factorization, budget: int = 32, within: PermGroup | None = None
) -> GaloisId:
    """Identify the Galois group of a nonconstant polynomial of degree <= 6.

    Identification consumes the polynomial's one factorization over Q and
    never factors the polynomial again.  ``within`` (a group the true one is
    known to be conjugate into) only narrows the degree-5/6 sieve.
    """
    if fac.degree < 1:
        raise DomainError("identification needs degree >= 1")
    if fac.radical().degree <= 4:
        return classify_degree_le4(fac)
    return sieve_degree_5_6(fac, budget, within)


def groups_match(gid: GaloisId, reference: PermGroup) -> bool | None:
    """Does the identified group equal (abstractly) the reference group?

    True/False when the identification supports a verdict; None when the
    sieve candidates disagree about matching the reference order.
    """
    if gid.mode in ("definitive", "conditional"):
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
