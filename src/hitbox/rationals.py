"""Exact rational arithmetic helpers: heights, valuations, primes, squares.

Rationals are plain ``fractions.Fraction`` values (always in lowest terms
with positive denominator), so every operation in the package is exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DomainError

Rational = Fraction

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.cache
def _odd_primes_below(n: int) -> tuple[int, ...]:
    """The odd primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    for i in range(3, math.isqrt(n - 1) + 1, 2):
        if sieve[i]:
            sieve[i * i :: 2 * i] = bytes(len(range(i * i, n, 2 * i)))
    return tuple(i for i in range(3, n, 2) if sieve[i])


def odd_primes():
    """The odd primes in increasing order, without end."""
    n, start = 256, 0
    while True:
        primes = _odd_primes_below(n)
        yield from primes[start:]
        n, start = 2 * n, len(primes)


def is_prime(n: int) -> bool:
    """Deterministic primality test: a lookup in the cached sieve below
    256 (the first block of ``odd_primes``), Miller-Rabin with a fixed
    witness set above."""
    if n < 256:
        return n == 2 or n in _odd_primes_below(256)
    for p in _MR_BASES:
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """A verified prime, usable as a modulus."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")

    def __int__(self) -> int:
        return self.p


def as_prime(p) -> int:
    """Coerce an int or PrimeModulus to a verified prime int."""
    if isinstance(p, PrimeModulus):
        return p.p
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return p


def normalize(num: int, den: int) -> Fraction:
    """num/den in lowest terms with positive denominator."""
    if den == 0:
        raise DomainError("zero denominator")
    return Fraction(num, den)


def height(q: Fraction) -> int:
    """max(|numerator|, denominator) of q in lowest terms; height(0) = 1."""
    q = Fraction(q)
    return max(abs(q.numerator), q.denominator)


def int_valuation(n: int, p: int) -> int:
    """Exponent of p in n, for n != 0."""
    if n == 0:
        raise DomainError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def padic_valuation(q: Fraction, p) -> int | float:
    """v_p(q), with v_p(0) = +infinity."""
    p = as_prime(p)
    q = Fraction(q)
    if q == 0:
        return math.inf
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


def is_square_int(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def is_square_rational(q: Fraction) -> bool:
    """True iff q is the square of a rational number."""
    q = Fraction(q)
    return is_square_int(q.numerator) and is_square_int(q.denominator)


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise DomainError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # short wheel over residues coprime to 30; rho picks up the rest
    f = 7
    incs = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < 4096:
        if n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        else:
            f += incs[i]
            i = (i + 1) % 8
    if n > 1:
        _factor_large(n, out)
    return out


def _factor_large(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_brent(n)
    _factor_large(d, out)
    _factor_large(n // d, out)


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = ys = 2
        r = q = 1
        d = 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                d = math.gcd(q, n)
                k += 128
            r *= 2
        if d == n:
            # gcd jumped past the factor: replay one step at a time
            d = 1
            y = ys
            while d == 1:
                y = (y * y + c) % n
                d = math.gcd(abs(x - y), n)
        if 1 < d < n:
            return d
        c += 1


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of |n|."""
    ds = [1]
    for p, e in factor_int(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def squarefree_kernel(q: Fraction) -> int:
    """The squarefree integer representing the class of q in Q*/Q*^2.

    q and squarefree_kernel(q) differ by a rational square; the kernel of a
    square is 1.  q must be nonzero.
    """
    q = Fraction(q)
    if q == 0:
        raise DomainError("0 has no square class")
    k = 1 if q > 0 else -1
    for p, e in factor_int(q.numerator * q.denominator).items():
        if e % 2:
            k *= p
    return k


def rationals_of_height(h: int) -> list[Fraction]:
    """All rationals of exact height h, sorted by (numerator, denominator).

    For h > 1 and k running over 1 <= k < h coprime to h, that order is
    -h/k (k ascending), -k/h (k descending), k/h and h/k (k ascending).
    """
    if h < 1:
        raise DomainError("height is at least 1")
    if h == 1:
        return [Fraction(-1), Fraction(0), Fraction(1)]
    ks = [k for k in range(1, h) if math.gcd(k, h) == 1]
    return (
        [Fraction(-h, k) for k in ks]
        + [Fraction(-k, h) for k in reversed(ks)]
        + [Fraction(k, h) for k in ks]
        + [Fraction(h, k) for k in ks]
    )


def rationals_up_to_height(bound: int) -> Iterator[Fraction]:
    """Canonical sweep order: height 1..bound, then ascending numerator."""
    for h in range(1, bound + 1):
        yield from rationals_of_height(h)


def sample_rationals(count: int, exclude: Iterable[Fraction] = ()) -> list[Fraction]:
    """First `count` rationals in canonical order, skipping `exclude`."""
    skip = set(exclude)
    out: list[Fraction] = []
    h = 1
    while len(out) < count:
        for q in rationals_of_height(h):
            if q not in skip:
                out.append(q)
                if len(out) == count:
                    break
        h += 1
    return out
