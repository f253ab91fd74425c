"""Exact rational arithmetic helpers: heights, valuations, primes, squares,
and ``Value``, the base of the package's validating value classes.

Rationals are plain ``fractions.Fraction`` values (always in lowest terms
with positive denominator), so every operation in the package is exact.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DomainError, ResourceLimitError

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


def as_prime(p) -> int:
    """p itself, after checking that it is an ``int`` and prime."""
    if type(p) is not int or not is_prime(p):
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


# Steps y -> y^2 + c that one ``_pollard_brent`` call may take, over all
# its choices of c.  Rho finds a prime factor q in about sqrt(q) steps, so
# this bounds the work at factors of roughly 40 bits.
_POLLARD_STEPS = 1 << 20


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant).

    Raises ``ResourceLimitError`` before a doubling round that would take
    the total past ``_POLLARD_STEPS`` steps."""
    if n % 2 == 0:
        return 2
    c = 1
    steps = 0
    while True:
        x = y = ys = 2
        r = q = 1
        d = 1
        while d == 1:
            steps += 2 * r  # the round: r steps for x, at most r for y
            if steps > _POLLARD_STEPS:
                raise ResourceLimitError(f"Pollard rho took over {_POLLARD_STEPS} steps on {n}")
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
            # gcd jumped past the factor: replay one step at a time, within
            # the block that the round has already counted
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


# The largest height bound a sweep takes: criterion 10 searches at 1000,
# and the rationals of height at most 2000 number about 4.9 million.
MAX_HEIGHT = 2000


def check_height_bound(bound: int) -> None:
    """Refuse a sweep's height bound below 1 (``DomainError``) or above
    ``MAX_HEIGHT`` (``ResourceLimitError``)."""
    if bound < 1:
        raise DomainError(f"height bound {bound} is below 1")
    if bound > MAX_HEIGHT:
        raise ResourceLimitError(f"height bound {bound} is above {MAX_HEIGHT}")


def coprime_pairs_of_height(h: int) -> list[tuple[int, int]]:
    """The pairs (a, b) of the rationals a/b of exact height h, sorted by
    (numerator, denominator): coprime with b > 0 by construction, so no gcd
    is taken and no ``Fraction`` is built.

    For h > 1 and k running over 1 <= k < h coprime to h, that order is
    -h/k (k ascending), -k/h (k descending), k/h and h/k (k ascending).
    """
    if h < 1:
        raise DomainError("height is at least 1")
    if h == 1:
        return [(-1, 1), (0, 1), (1, 1)]
    ks = [k for k in range(1, h) if math.gcd(k, h) == 1]
    return (
        [(-h, k) for k in ks]
        + [(-k, h) for k in reversed(ks)]
        + [(k, h) for k in ks]
        + [(h, k) for k in ks]
    )


def coprime_pairs_up_to_height(
    bound: int, exclude: Iterable[Fraction] = ()
) -> Iterator[tuple[int, int]]:
    """Canonical sweep order as coprime pairs: the rows of
    ``coprime_pairs_of_height`` for heights 1..bound, without the values of
    ``exclude``.

    The bound is checked (``check_height_bound``) before the first row.
    Excluded values are compared as pairs, and only in the rows of their
    heights; every other row is taken whole."""
    check_height_bound(bound)
    skip = {(q.numerator, q.denominator) for q in map(Fraction, exclude)}
    skip_heights = {max(abs(a), b) for a, b in skip}
    for h in range(1, bound + 1):
        row = coprime_pairs_of_height(h)
        yield from [ab for ab in row if ab not in skip] if h in skip_heights else row


def rationals_up_to_height(bound: int) -> Iterator[Fraction]:
    """Canonical sweep order: height 1..bound, then ascending numerator.
    The bound is checked (``check_height_bound``) before the first row."""
    check_height_bound(bound)
    for h in range(1, bound + 1):
        yield from list(itertools.starmap(Fraction, coprime_pairs_of_height(h)))


def sample_rationals(count: int, exclude: Iterable[Fraction] = ()) -> list[Fraction]:
    """First `count` rationals in canonical order up to ``MAX_HEIGHT``,
    skipping `exclude`."""
    pairs = itertools.islice(coprime_pairs_up_to_height(MAX_HEIGHT, exclude), count)
    return list(itertools.starmap(Fraction, pairs))


class Value:
    """Equality, hashing and the repr from the attributes named in
    ``_fields``, for a value class whose ``__init__`` validates or fills a
    default (a plain tuple cannot).  Equal only to the same class with
    equal fields; attributes outside ``_fields`` ride along unseen."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"
