"""Independent oracles used by the tests.

Everything here recomputes expected values by a route different from the
production code: brute-force enumerations, finite permutation groups by
explicit closure (from which the tests re-derive every column of the
embedded transitive table), subgroup lattices by cyclic extension,
transitive-table labels by conjugacy over all of S_n, divisor checks,
numeric root finding, exhaustive modular searches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, zip_longest
from typing import Iterable, Sequence

from hitbox.errors import DomainError, ParseError, ResourceLimitError
from hitbox.galois import transitive_table
from hitbox.polys import BiPoly, UniPoly
from hitbox.rationals import factor_int

# -- finite permutation groups by explicit element sets -------------------------
#
# Permutations are tuples mapping point i (0-based) to its image; groups are
# built by breadth-first closure from generators.  Every group here stays
# well below the order bound, so explicit element sets beat clever
# algorithms for testability.

Perm = tuple[int, ...]

DEFAULT_ORDER_BOUND = 10080  # covers every transitive group of degree <= 7


def identity(n: int) -> Perm:
    return tuple(range(n))


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Composition p∘q: apply q first, then p."""
    return tuple(map(p.__getitem__, q))


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_conj(g: Perm, h: Perm) -> Perm:
    """g h g^-1."""
    return perm_mul(perm_mul(g, h), perm_inv(g))


def is_perm(p: Sequence[int]) -> bool:
    return sorted(p) == list(range(len(p)))


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths of p including fixed points, sorted descending."""
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def is_even(p: Perm) -> bool:
    return (len(p) - len(cycle_type(p))) % 2 == 0


def parse_perm(text: str, degree: int) -> Perm:
    """Disjoint-cycle notation with 1-based points, e.g. ``(1,2,3)(4,5)``."""
    images = list(range(degree))
    pos = 0
    text = text.strip()
    if text in ("()", "e", ""):
        return tuple(images)
    touched: set[int] = set()
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch != "(":
            raise ParseError("expected '('", pos)
        pos += 1
        cycle: list[int] = []
        num = ""
        while pos < len(text) and text[pos] != ")":
            c = text[pos]
            if c.isdigit():
                num += c
            elif c in ", \t":
                if num:
                    cycle.append(int(num))
                    num = ""
            else:
                raise ParseError(f"unexpected character {c!r}", pos)
            pos += 1
        if pos >= len(text):
            raise ParseError("unterminated cycle", pos)
        pos += 1
        if num:
            cycle.append(int(num))
        if not cycle:
            continue
        for v in cycle:
            if not 1 <= v <= degree:
                raise ParseError(f"point {v} outside 1..{degree}")
            if v - 1 in touched:
                raise ParseError(f"point {v} repeated across cycles")
            touched.add(v - 1)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a - 1] = b - 1
    if not is_perm(images):
        raise ParseError("cycles do not define a permutation")
    return tuple(images)


def perm_str(p: Perm) -> str:
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cycle = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cycle.append(j)
            seen[j] = True
            j = p[j]
        out.append("(" + ",".join(str(v + 1) for v in cycle) + ")")
    return "".join(out) if out else "()"


@dataclass(frozen=True)
class PermGroup:
    degree: int
    generators: tuple[Perm, ...]
    elements: frozenset[Perm]

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_transitive(self) -> bool:
        orbit = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for g in self.generators:
                j = g[i]
                if j not in orbit:
                    orbit.add(j)
                    frontier.append(j)
        return len(orbit) == self.degree

    def cycle_type_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(cycle_type(g) for g in self.elements)

    def in_alternating(self) -> bool:
        """G lies in A_n iff every generator is even (A_n is a subgroup)."""
        return all(is_even(g) for g in self.generators)


def closure(degree: int, gens: Iterable[Perm], bound: int = DEFAULT_ORDER_BOUND) -> PermGroup:
    """Group generated by gens, by breadth-first product closure."""
    gens = tuple(tuple(g) for g in gens)
    for g in gens:
        if len(g) != degree or not is_perm(g):
            raise DomainError(f"not a permutation of degree {degree}: {g}")
    elements = {identity(degree)}
    frontier = [identity(degree)]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = perm_mul(g, x)
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
                    if len(elements) > bound:
                        raise ResourceLimitError(
                            f"group order exceeds the bound {bound}"
                        )
        frontier = nxt
    return PermGroup(degree=degree, generators=gens, elements=frozenset(elements))


def _conjugates_into(
    conjugators: Iterable[Perm], gens: tuple[Perm, ...], K: frozenset[Perm]
) -> bool:
    """True iff some s in conjugators puts s g s^-1 in K for every g in gens.

    The generators decide: K is a group, so it holds the conjugate of the
    group they generate exactly when it holds the conjugates of them.
    """
    for s in conjugators:
        s_inv = perm_inv(s)
        if all(perm_mul(s, perm_mul(g, s_inv)) in K for g in gens):
            return True
    return False


def conjugates_into(A: PermGroup, B: PermGroup) -> bool:
    """True iff some permutation conjugates A into a subgroup of B."""
    if A.degree != B.degree or B.order % A.order:
        return False
    if not A.cycle_type_set() <= B.cycle_type_set():
        return False
    return _conjugates_into(permutations(range(A.degree)), A.generators, B.elements)


# -- generators of the embedded transitive table ---------------------------------
#
# One generating set per entry of ``galois._TABLE_DATA``; the tests close
# each one and re-derive every column of the table from the group.

TABLE_GENERATORS: dict[str, tuple[str, ...]] = {
    "2T1": ("(1,2)",),
    "3T1": ("(1,2,3)",),
    "3T2": ("(1,2)", "(1,2,3)"),
    "4T1": ("(1,2,3,4)",),
    "4T2": ("(1,2)(3,4)", "(1,3)(2,4)"),
    "4T3": ("(1,2,3,4)", "(1,3)"),
    "4T4": ("(1,2,3)", "(1,2)(3,4)"),
    "4T5": ("(1,2)", "(1,2,3,4)"),
    "5T1": ("(1,2,3,4,5)",),
    "5T2": ("(1,2,3,4,5)", "(2,5)(3,4)"),
    "5T3": ("(1,2,3,4,5)", "(2,3,5,4)"),
    "5T4": ("(1,2,3,4,5)", "(1,2,3)"),
    "5T5": ("(1,2)", "(1,2,3,4,5)"),
    "6T1": ("(1,2,3,4,5,6)",),
    "6T2": ("(1,2,3)(4,6,5)", "(1,4)(2,5)(3,6)"),
    "6T3": ("(1,2,3,4,5,6)", "(1,6)(2,5)(3,4)"),
    "6T4": ("(1,4,2)(3,5,6)", "(2,5)(3,4)"),
    "6T5": ("(1,2,3)", "(4,5,6)", "(1,4)(2,5)(3,6)"),
    "6T6": ("(1,2)", "(1,3,5)(2,4,6)"),
    "6T7": ("(1,4)(2,6)(3,5)", "(2,5,4,3)"),
    "6T8": ("(2,4)(3,5)", "(1,4,6,3)(2,5)"),
    "6T9": ("(1,4,5)(2,3,6)", "(1,3)(2,4)(5,6)", "(1,5,4)(2,3,6)", "(1,3)(2,5)(4,6)"),
    "6T10": ("(1,2,3)", "(4,5,6)", "(1,4,2,5)(3,6)"),
    "6T11": ("(1,2)", "(1,3,5)(2,4,6)", "(1,3)(2,4)"),
    "6T12": ("(1,2,3,4,5)", "(1,6)(2,5)"),
    "6T13": ("(1,2,3)", "(1,2)", "(1,4)(2,5)(3,6)"),
    "6T14": ("(1,2,3,4,5)", "(1,6)(2,5)", "(2,3,5,4)"),
    "6T15": ("(1,2,3)", "(2,3,4,5,6)"),
    "6T16": ("(1,2)", "(1,2,3,4,5,6)"),
}


@functools.cache
def table_group(label: str) -> PermGroup:
    """The closure of a table entry's generators (``label`` is nTk)."""
    n = int(label.split("T")[0])
    return closure(n, [parse_perm(s, n) for s in TABLE_GENERATORS[label]])


def conjugate_in_symmetric(A: PermGroup, B: PermGroup) -> bool:
    """A and B are conjugate in S_n: some s maps every element of A into B
    by s a s^-1 (equal orders make the image all of B)."""
    if A.degree != B.degree or A.order != B.order:
        return False
    return any(
        all(perm_conj(s, a) in B.elements for a in A.elements)
        for s in permutations(range(A.degree))
    )


def label_for_group(G: PermGroup) -> str | None:
    """nTk label of a transitive G of degree 2..6: the table entry that G is
    conjugate to in S_n, found by searching all of S_n."""
    if not 2 <= G.degree <= 6 or not G.is_transitive():
        return None
    return next(
        (e.label for e in transitive_table(G.degree) if conjugate_in_symmetric(G, table_group(e.label))),
        None,
    )


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


@functools.cache
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
    Cached: several tests read the lattice of the same table group.
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


def expand_factorization(fac) -> UniPoly:
    """The polynomial a ``factorq.Factorization`` stands for: the unit
    times each factor to its multiplicity."""
    out = UniPoly.constant(fac.unit)
    for f, m in fac.factors:
        out = out * f**m
    return out


def cycle_type_by_sympy(f: UniPoly, p: int) -> tuple[int, ...] | None:
    """Degrees of the irreducible factors of f mod the prime p, largest
    first, from sympy's factorization over GF(p); None when p is unusable
    for f: p divides the leading coefficient or a denominator, or f mod p
    has a repeated factor."""
    import sympy

    coeffs = f.coeffs
    if coeffs[-1].numerator % p == 0 or any(c.denominator % p == 0 for c in coeffs):
        return None
    scale = math.lcm(*(c.denominator for c in coeffs))  # a unit mod p
    ints = [int(c * scale) for c in reversed(coeffs)]
    _, factors = sympy.Poly(ints, sympy.Symbol("x"), modulus=p).factor_list()
    if any(mult > 1 for _, mult in factors):
        return None
    return tuple(sorted((g.degree() for g, _ in factors), reverse=True))


def f2_rank_by_elimination(classes: Iterable[Fraction]) -> int:
    """Rank over F_2 of nonzero rationals in Q*/Q*^2: each class is the
    set of primes of odd exponent in its numerator times its denominator
    (-1 for the sign), and the sets are reduced by Gaussian elimination
    over F_2."""
    basis: list[set[int]] = []
    for q in classes:
        v = {p for p, e in factor_int(q.numerator * q.denominator).items() if e % 2}
        v |= {-1} if q < 0 else set()
        for b in basis:
            if max(b) in v:
                v ^= b
        if v:
            basis.append(v)
    return len(basis)


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


def _int_add(f: list[int], g: list[int]) -> list[int]:
    return [a + b for a, b in zip_longest(f, g, fillvalue=0)]


def _int_mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def swinnerton_dyer(primes: Sequence[int]) -> UniPoly:
    """The Swinnerton-Dyer polynomial of the given primes, of degree
    2^len(primes): the product of X - (±sqrt(p1) ± sqrt(p2) ± ...).

    Irreducible over Q, yet it splits into factors of degree at most 2
    modulo every prime, so Zassenhaus recombination meets 2^(len - 1)
    modular factors.  Built by SD_{k+1}(x) = A(x)^2 - p B(x)^2, where
    SD_k(x + y) = A(x) + y B(x) modulo y^2 - p (Horner in x + y)."""
    f = [0, 1]
    for p in primes:
        A, B = [0], [0]
        for c in reversed(f):
            # (A + y B)(x + y) + c = (x A + p B + c) + y (A + x B)
            A, B = _int_add(_int_add([0] + A, [p * b for b in B]), [c]), _int_add(A, [0] + B)
        f = _int_add(_int_mul(A, A), [-p * b for b in _int_mul(B, B)])
    return UniPoly(f)


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
