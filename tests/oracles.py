"""Independent oracles used by the tests.

Everything here recomputes expected values by a route different from the
production code: brute-force enumerations, subgroup lattices by cyclic
extension (the reference for the maximal-index column of the transitive
table), divisor checks, numeric root finding, exhaustive modular searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from hitbox.errors import DomainError, ResourceLimitError
from hitbox.permgroups import (
    DEFAULT_ORDER_BOUND,
    Perm,
    PermGroup,
    _conjugates_into,
    closure,
    identity,
    perm_mul,
)
from hitbox.polys import BiPoly, UniPoly


def brute_force_subgroups(G: PermGroup) -> set[frozenset]:
    """Every subgroup of G, as closures of all pairs of elements.

    Valid for the small groups used in tests, whose subgroups are all
    generated by at most two elements.
    """
    elems = sorted(G.elements)
    subs = {frozenset({identity(G.degree)})}
    for a in elems:
        for b in elems:
            H = closure(G.degree, [a, b], bound=G.order)
            subs.add(H.elements)
    return subs


def conjugacy_partition(G: PermGroup, subgroups: set[frozenset]) -> list[set[frozenset]]:
    from hitbox.permgroups import perm_conj

    remaining = set(subgroups)
    classes = []
    while remaining:
        H = remaining.pop()
        cls = {H}
        for g in G.elements:
            cls.add(frozenset(perm_conj(g, h) for h in H))
        remaining -= cls
        classes.append(cls)
    return classes


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups, by an explicit representative."""

    representative: PermGroup
    index: int
    is_maximal: bool


def subgroup_classes(G: PermGroup) -> list[SubgroupClass]:
    """All conjugacy classes of subgroups of G, smallest order first.

    Neubüser's cyclic extension: class representatives are joined with
    cyclic subgroups, and every subgroup is a join of cyclic subgroups, so
    the sweep is exhaustive.  A join is closed from the few generators it
    was built from and becomes a new class unless a kept representative of
    its order contains a conjugate of it.  A class is maximal unless its
    representative is conjugate into a proper subgroup of larger order.
    Both questions go to one test, ``_conjugates_into``, on the join
    generators that each representative keeps as its ``generators``.
    """
    if G.order > DEFAULT_ORDER_BOUND:
        raise ResourceLimitError(f"group order {G.order} exceeds bound {DEFAULT_ORDER_BOUND}")
    one = identity(G.degree)
    cyclics: set[frozenset[Perm]] = set()
    generator: dict[frozenset[Perm], Perm] = {}
    for g in G.elements:
        if g == one:
            continue
        cyc = {one}
        x = g
        while x != one:
            cyc.add(x)
            x = perm_mul(x, g)
        cyclics.add(frozenset(cyc))
        generator.setdefault(frozenset(cyc), g)
    reps = [closure(G.degree, ())]
    seen = {reps[0].elements}  # joins whose class is already known
    queue = [reps[0]]
    while queue:
        H = queue.pop()
        for C in cyclics:
            if C <= H.elements:
                continue
            J = closure(G.degree, H.generators + (generator[C],))
            if J.elements in seen:
                continue
            seen.add(J.elements)
            if not any(
                K.order == J.order and _conjugates_into(G.elements, J.generators, K.elements)
                for K in reps
            ):
                reps.append(J)
                if J.order < G.order:
                    queue.append(J)
    reps.sort(key=lambda H: (H.order, sorted(H.elements)))
    return [
        SubgroupClass(
            representative=H,
            index=G.order // H.order,
            is_maximal=H.order < G.order
            and not any(
                H.order < K.order < G.order
                and K.order % H.order == 0
                and _conjugates_into(G.elements, H.generators, K.elements)
                for K in reps
            ),
        )
        for H in reps
    ]


def maximal_classes(G: PermGroup) -> list[SubgroupClass]:
    """Conjugacy classes of maximal subgroups, smallest index first."""
    if G.order < 2:
        raise DomainError("maximal subgroups need a nontrivial group")
    out = [c for c in subgroup_classes(G) if c.is_maximal]
    out.sort(key=lambda c: (c.index, c.representative.order))
    return out


def specialize_by_horner(P: BiPoly, t) -> UniPoly:
    """P(t, X) by Horner evaluation of each X-coefficient in Fractions."""
    t = Fraction(t)
    out = []
    for c in P.xcoeffs:
        acc = Fraction(0)
        for a in reversed(c.coeffs):
            acc = acc * t + a
        out.append(acc)
    return UniPoly(out)


def sylvester_matrix(f: UniPoly, g: UniPoly) -> list[list[Fraction]]:
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        raise DomainError("sylvester matrix needs nonzero polynomials")
    size = m + n
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + fc + [Fraction(0)] * (size - i - m - 1))
    for i in range(m):
        rows.append([Fraction(0)] * i + gc + [Fraction(0)] * (size - i - n - 1))
    return rows


def sylvester_resultant(f: UniPoly, g: UniPoly) -> Fraction:
    """Determinant of the Sylvester matrix by Gaussian elimination over Q."""
    M = [row[:] for row in sylvester_matrix(f, g)]
    n = len(M)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = -det
        det *= M[col][col]
        inv = 1 / M[col][col]
        for r in range(col + 1, n):
            if M[r][col]:
                factor = M[r][col] * inv
                for c in range(col, n):
                    M[r][c] -= factor * M[col][c]
    return det


def roots_by_divisor_check(f: UniPoly) -> set[Fraction]:
    """Rational roots by the rational-root theorem: every candidate p/q of
    the primitive integer model (p divides the constant term, q the leading
    coefficient) is checked exactly, as the integer q^n * f(p/q)."""
    from hitbox.rationals import divisors
    import math

    ints = f.primitive()
    out = {Fraction(0)} if ints[0] == 0 else set()
    while ints[0] == 0:
        ints = ints[1:]
    n = len(ints) - 1
    if n == 0:
        return out
    for q in divisors(ints[-1]):
        scaled = [c * q ** (n - i) for i, c in enumerate(ints)]
        for p in divisors(ints[0]):
            if math.gcd(p, q) != 1:
                continue
            for num in (p, -p):
                acc = 0
                for c in reversed(scaled):
                    acc = acc * num + c
                if acc == 0:
                    out.add(Fraction(num, q))
    return out


def trial_division_irreducible(f: UniPoly) -> bool:
    """Degree <= 6 irreducibility by searching low-degree monic factors
    with rational-root and quadratic/cubic coefficient sweeps."""
    from hitbox.factorq import rational_roots

    n = f.degree
    if n <= 1:
        return n == 1
    if rational_roots(f):
        return False
    if n <= 3:
        return True
    # look for monic quadratic/cubic factors with small coefficient search
    ints = f.monic().primitive()
    bound = 1 + max(abs(c) for c in ints)
    for d in (2, 3):
        if d > n // 2:
            break
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if d == 2:
                    g = UniPoly([c, b, 1])
                    if (f.monic() % g).is_zero():
                        return False
        if d == 3:
            for b in range(-bound, bound + 1):
                for c in range(-bound, bound + 1):
                    for e in range(-bound, bound + 1):
                        g = UniPoly([e, c, b, 1])
                        if (f.monic() % g).is_zero():
                            return False
    return True


def hilbert2_no_primitive_solution(a: Fraction, b: Fraction, k: int = 8) -> bool:
    """True iff z^2 = a x^2 + b y^2 has no primitive solution mod 2^k.

    A 2-adic solution scales to a primitive integral one, which survives
    reduction mod every power of 2; so nonexistence here certifies the
    symbol is -1 (used only on integral a, b with small valuations, where
    k = 8 is past the Hensel threshold and spurious solutions cannot
    survive).
    """
    m = 1 << k
    av, bv = int(a) % m, int(b) % m
    all_squares = {z * z % m for z in range(m)}
    odd_squares = {z * z % m for z in range(1, m, 2)}
    for x in range(m):
        ax = av * x * x % m
        for y in range(m):
            rhs = (ax + bv * y * y) % m
            if x % 2 or y % 2:
                if rhs in all_squares:
                    return False
            elif rhs in odd_squares:  # primitive via odd z instead
                return False
    return True
