"""Finite permutation groups by explicit element sets.

Permutations are tuples mapping point i (0-based) to its image; groups are
built by breadth-first closure from generators.  "Is H conjugate into K?"
goes to one test that reads only H's generators.  Subgroup lattices are not
computed here: the maximal-subgroup indices that the harness needs are a
column of the transitive table in ``galois``.  Everything here stays well
below the configured order bound, so explicit element sets beat clever
algorithms for testability.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _sym
from typing import Iterable, Sequence

from .errors import DomainError, ParseError, ResourceLimitError

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

    def __contains__(self, p: Perm) -> bool:
        return p in self.elements

    def __iter__(self):
        return iter(sorted(self.elements))

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
    return _conjugates_into(_sym(range(A.degree)), A.generators, B.elements)
