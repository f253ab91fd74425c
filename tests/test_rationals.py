import inspect
import math
import random
from fractions import Fraction

import pytest

from hitbox import rationals
from hitbox.errors import DomainError, ResourceLimitError
from hitbox.rationals import (
    MAX_HEIGHT,
    as_prime,
    coprime_pairs_of_height,
    coprime_pairs_up_to_height,
    divisors,
    factor_int,
    height,
    is_prime,
    is_square_rational,
    normalize,
    padic_valuation,
    rationals_up_to_height,
    sample_rationals,
)


def test_normalize_sign_and_gcd():
    assert normalize(4, -6) == Fraction(-2, 3)
    assert normalize(0, 7) == Fraction(0, 1)
    q = normalize(1036800, 72900)
    # oracle: independent gcd computation
    g = math.gcd(1036800, 72900)
    assert q == Fraction(1036800 // g, 72900 // g)
    assert q.denominator > 0 and math.gcd(q.numerator, q.denominator) == 1


def test_normalize_zero_denominator():
    with pytest.raises(DomainError):
        normalize(1, 0)


def test_height_examples():
    assert height(Fraction(10, 27)) == 27
    assert height(Fraction(0)) == 1
    assert height(Fraction(-5, 3)) == 5


def test_height_one_iff_unit_or_zero():
    for q in rationals_up_to_height(20):
        assert (height(q) == 1) == (q in (0, 1, -1))


def test_padic_valuation_examples():
    assert padic_valuation(Fraction(12), 2) == 2
    assert padic_valuation(Fraction(9, 8), 2) == -3
    assert padic_valuation(Fraction(0), 5) == math.inf


def test_padic_valuation_additive():
    rng = random.Random(0)
    primes = [p for p in range(2, 100) if is_prime(p)]
    for _ in range(200):
        a = Fraction(rng.randint(1, 400), rng.randint(1, 400)) * rng.choice((1, -1))
        b = Fraction(rng.randint(1, 400), rng.randint(1, 400)) * rng.choice((1, -1))
        p = rng.choice(primes)
        assert padic_valuation(a * b, p) == padic_valuation(a, p) + padic_valuation(b, p)


def test_field_axioms_spot_check():
    rng = random.Random(1)
    for _ in range(100):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        c = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_primality():
    assert is_prime(2) and is_prime(3) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2**32)
    # a plain sieve below 5000, across the cached first block and beyond
    n = 5000
    composite = [True, True] + [False] * (n - 2)
    for i in range(2, n):
        if not composite[i]:
            for j in range(i * i, n, i):
                composite[j] = True
    assert [k for k in range(-3, n) if is_prime(k)] == [k for k in range(n) if not composite[k]]
    with pytest.raises(DomainError):
        as_prime(15)
    assert as_prime(101) == 101


@pytest.mark.parametrize("p", [Fraction(3), 3.0, True, "3"], ids=["fraction", "float", "bool", "str"])
def test_as_prime_refuses_anything_but_an_int(p):
    with pytest.raises(DomainError, match="is not prime"):
        as_prime(p)


def test_factor_int_and_divisors():
    assert factor_int(9728) == {2: 9, 19: 1}
    n = 2**4 * 3**2 * 97
    assert sorted(factor_int(n).items()) == [(2, 4), (3, 2), (97, 1)]
    ds = divisors(12)
    assert ds == [1, 2, 3, 4, 6, 12]
    # large semiprime exercises the rho path
    p, q = 1000003, 1000033
    assert factor_int(p * q) == {p: 1, q: 1}


def test_pollard_rho_stops_at_its_step_cap(monkeypatch):
    # two 30-bit primes: rho needs about 2^15 steps to split their product
    p, q = 1073741827, 1073741831
    monkeypatch.setattr(rationals, "_POLLARD_STEPS", 1000)
    with pytest.raises(ResourceLimitError):
        factor_int(p * q)
    # a product that rho splits in a few steps is still factored under the
    # low cap (trial division takes 1009 and 1013), and the default cap
    # leaves the 30-bit pair factorable
    assert factor_int(1009 * 1013 * 4099 * 4111) == {1009: 1, 1013: 1, 4099: 1, 4111: 1}
    monkeypatch.undo()
    assert factor_int(p * q) == {p: 1, q: 1}


def test_squares_and_kernels():
    assert is_square_rational(Fraction(4, 9))
    assert not is_square_rational(Fraction(-1))
    assert not is_square_rational(Fraction(8, 9))
    rng = random.Random(2)
    for _ in range(100):
        q = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        assert is_square_rational(q * q)


def test_sweep_order_is_canonical():
    got = list(rationals_up_to_height(2))
    assert got == [
        Fraction(-1),
        Fraction(0),
        Fraction(1),
        Fraction(-2),
        Fraction(-1, 2),
        Fraction(1, 2),
        Fraction(2),
    ]
    all_vals = list(rationals_up_to_height(12))
    assert len(all_vals) == len(set(all_vals))
    assert [height(q) for q in all_vals] == sorted(height(q) for q in all_vals)
    # the direct construction equals the sorted one
    for h in range(1, 61):
        nums = range(-h, h + 1)
        expected = sorted(
            (a, b) for a in nums for b in range(1, h + 1) if max(abs(a), b) == h and math.gcd(a, b) == 1
        )
        assert coprime_pairs_of_height(h) == expected, h


def test_coprime_pairs_are_the_rationals_of_each_height():
    sweep = list(rationals_up_to_height(80))
    assert list(coprime_pairs_up_to_height(80)) == [(q.numerator, q.denominator) for q in sweep]
    assert sweep == [Fraction(a, b) for h in range(1, 81) for a, b in coprime_pairs_of_height(h)]
    # samples are the head of the same stream, without the excluded values
    skip = (0, Fraction(-1, 2), Fraction(5, 9))
    assert sample_rationals(100, skip) == [q for q in sweep if q not in skip][:100]
    with pytest.raises(DomainError):
        coprime_pairs_of_height(0)


def test_sweep_height_bound_is_checked_before_the_first_row(monkeypatch):
    # both streams build their rows with coprime_pairs_of_height
    rows = []
    monkeypatch.setattr(rationals, "coprime_pairs_of_height", rows.append)
    for stream in (rationals_up_to_height, coprime_pairs_up_to_height):
        sweep = stream(MAX_HEIGHT + 1)
        with pytest.raises(ResourceLimitError, match=f"above {MAX_HEIGHT}"):
            next(sweep)
        for bound in (0, -5):
            with pytest.raises(DomainError, match="below 1"):
                next(stream(bound))
    assert rows == []
    # perfbench's search workload times each item of this stream as a generator's
    assert inspect.isgeneratorfunction(rationals_up_to_height)
    # criterion 10 searches at height 1000
    assert MAX_HEIGHT >= 1000
