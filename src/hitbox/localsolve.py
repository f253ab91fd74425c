"""Hilbert symbols over Q_p and R, and conic solvability tests.

The p = 2 symbol uses the classical unit-square formulas in the exponents
(u-1)/2 and (u^2-1)/8; the conic y^2 = ax^2 + bx + c reduces to the symbol
(a, c - b^2/4a) after completing the square.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .rationals import Value, as_prime, factor_int, int_valuation

__all__ = [
    "Place",
    "REAL",
    "finite_place",
    "hilbert_symbol",
    "conic_solvable_local",
    "conic_solvable_global",
    "bad_places",
]


class Place(Value):
    """A place of Q: a finite prime, or None for the real place."""

    __slots__ = ("p",)
    _fields = __slots__

    def __init__(self, p: int | None):
        if p is not None:
            as_prime(p)
        self.p = p

    @property
    def is_real(self) -> bool:
        return self.p is None

    def __str__(self):
        return "real" if self.p is None else str(self.p)


REAL = Place(None)


def finite_place(p: int) -> Place:
    return Place(as_prime(p))


def _unit_and_valuation(q: Fraction, p: int) -> tuple[int, Fraction]:
    v = int_valuation(q.numerator, p) - int_valuation(q.denominator, p)
    return v, q / Fraction(p) ** v


def _unit_mod(u: Fraction, m: int) -> int:
    """Residue of a p-unit rational mod m (m a power of the same p)."""
    return u.numerator * pow(u.denominator, -1, m) % m


def _legendre_unit(u: Fraction, p: int) -> int:
    r = pow(_unit_mod(u, p), (p - 1) // 2, p)
    return 1 if r == 1 else -1


def hilbert_symbol(a: Fraction, b: Fraction, place: Place) -> int:
    """(a, b)_v: +1 iff z^2 = a x^2 + b y^2 has a nontrivial local solution."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise DomainError("hilbert symbol needs nonzero arguments")
    if place.is_real:
        return -1 if a < 0 and b < 0 else 1
    p = place.p
    alpha, u = _unit_and_valuation(a, p)
    beta, v = _unit_and_valuation(b, p)
    if p != 2:
        exponent = (alpha * beta * (p - 1) // 2) % 2
        sign = -1 if exponent else 1
        if beta % 2:
            sign *= _legendre_unit(u, p)
        if alpha % 2:
            sign *= _legendre_unit(v, p)
        return sign
    eps_u = (_unit_mod(u, 4) - 1) // 2 % 2
    eps_v = (_unit_mod(v, 4) - 1) // 2 % 2
    om_u = (_unit_mod(u, 8) ** 2 - 1) // 8 % 2
    om_v = (_unit_mod(v, 8) ** 2 - 1) // 8 % 2
    exponent = (eps_u * eps_v + alpha * om_v + beta * om_u) % 2
    return -1 if exponent else 1


def _conic_invariants(a: Fraction, b: Fraction, c: Fraction) -> tuple[Fraction, Fraction]:
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a == 0:
        raise DomainError("not a conic: a = 0")
    return a, c - b * b / (4 * a)


def conic_solvable_local(a, b, c, place: Place) -> bool:
    """Solvability of y^2 = a x^2 + b x + c over the completion at place.

    Completing the square reduces to y^2 - a w^2 = e with e = c - b^2/4a;
    e = 0 means the right side is a times a perfect square, and the vertex
    (x, y) = (-b/2a, 0) is always a solution.
    """
    a, e = _conic_invariants(a, b, c)
    if e == 0:
        return True
    return hilbert_symbol(a, e, place) == 1


def bad_places(a, b, c) -> list[Place]:
    """Real place, 2, and odd primes meeting a or e: where symbols can fail."""
    a, e = _conic_invariants(a, b, c)
    primes = {2}
    if e != 0:
        for q in (a, e):
            for n in (q.numerator, q.denominator):
                primes.update(factor_int(n))
    return [REAL] + [Place(p) for p in sorted(primes)]


def conic_solvable_global(a, b, c) -> bool:
    """Solvability of y^2 = a x^2 + b x + c over Q (Hasse-Minkowski)."""
    a, e = _conic_invariants(a, b, c)
    if e == 0:
        return True
    return all(conic_solvable_local(a, b, c, v) for v in bad_places(a, b, c))
