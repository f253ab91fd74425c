import random
from fractions import Fraction

import pytest

from oracles import hilbert2_no_primitive_solution

from hitbox.errors import DomainError
from hitbox.localsolve import (
    REAL,
    Place,
    bad_places,
    conic_solvable_global,
    conic_solvable_local,
    finite_place,
    hilbert_symbol,
)
from hitbox.rationals import factor_int, is_square_rational, rationals_up_to_height

P2 = finite_place(2)


def nonzero(rng, bound=30):
    while True:
        q = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if q:
            return q


def test_symbol_examples():
    assert hilbert_symbol(Fraction(-1), Fraction(-1), REAL) == -1
    assert hilbert_symbol(Fraction(-1), Fraction(-1), P2) == -1
    for v in (REAL, P2, finite_place(3), finite_place(7)):
        assert hilbert_symbol(Fraction(5), Fraction(-5), v) == 1
        assert hilbert_symbol(Fraction(-2, 3), Fraction(2, 3), v) == 1
    with pytest.raises(DomainError):
        hilbert_symbol(Fraction(0), Fraction(1), P2)


def test_a_place_is_a_prime_or_the_real_place():
    assert Place(7) == finite_place(7) and Place(None) == REAL and str(REAL) == "real"
    with pytest.raises(DomainError):
        Place(4)


def test_symbol_at_2_against_exhaustive_modular_search():
    # whenever the formula says -1 there is no primitive solution mod 2^8;
    # whenever it says +1 the exhaustive search must find one
    for a in (-1, 1, -2, 2, -3, 3, -5, 5, -6, 6, -7, 7, -10, 10, -14, 15):
        for b in (-1, 1, -2, 2, -3, 3, -5, 5, 7, -7):
            formula = hilbert_symbol(Fraction(a), Fraction(b), P2)
            no_solution = hilbert2_no_primitive_solution(Fraction(a), Fraction(b), k=8)
            assert (formula == -1) == no_solution, (a, b)


def test_classical_unit_table_at_2():
    # (u, v)_2 = -1 exactly when u = v = 3 (mod 4), for odd units
    for u in (1, 3, 5, 7, -1, -3, 9, 11):
        for v in (1, 3, 5, 7, -1, -3, 9, 11):
            expect = -1 if (u % 4 == 3 and v % 4 == 3) else 1
            assert hilbert_symbol(Fraction(u), Fraction(v), P2) == expect


def test_bilinearity():
    rng = random.Random(20)
    places = [REAL, P2, finite_place(3), finite_place(5), finite_place(13)]
    for _ in range(200):
        a, a2, b = nonzero(rng), nonzero(rng), nonzero(rng)
        for v in places:
            assert hilbert_symbol(a * a2, b, v) == hilbert_symbol(a, b, v) * hilbert_symbol(a2, b, v)


def test_product_formula():
    rng = random.Random(21)
    for _ in range(100):
        a, b = nonzero(rng), nonzero(rng)
        primes = {2}
        for q in (a, b):
            primes |= set(factor_int(q.numerator)) | set(factor_int(q.denominator))
        prod = hilbert_symbol(a, b, REAL)
        for p in primes:
            prod *= hilbert_symbol(a, b, finite_place(p))
        assert prod == 1


def test_conic_examples():
    # the quartic family's key conic: unsolvable in the 2-adics
    assert not conic_solvable_local(-1, 2, -3, P2)
    assert not conic_solvable_local(-1, 2, -3, REAL)  # rhs = -((x-1)^2+2) < 0
    assert conic_solvable_local(1, 0, 1, REAL)
    assert conic_solvable_global(1, 0, 1)
    assert conic_solvable_global(2, 0, -1)  # (x, y) = (1, 1)
    assert not conic_solvable_global(-1, 2, -3)
    # degenerate perfect-square right side always has the vertex point
    assert conic_solvable_local(4, 4, 1, P2) and conic_solvable_global(4, 4, 1)
    with pytest.raises(DomainError):
        conic_solvable_local(0, 1, 1, P2)


def _search_conic(a, b, c, bound):
    for x in rationals_up_to_height(bound):
        rhs = a * x * x + b * x + c
        if rhs >= 0 and is_square_rational(rhs):
            return True
    return False


CORPUS = [
    (-1, 2, -3),
    (1, 0, 1),
    (2, 0, -1),
    (3, 0, 2),
    (1, 1, 1),
    (-1, 0, -1),
    (5, 0, -1),
    (-2, 3, 1),
    (7, 0, 2),
    (-3, 2, -1),
    (13, 5, -7),
    (-5, 0, 31),
    (6, 1, 1),
    (-6, 2, 5),
    (17, 0, -13),
]


def test_global_agrees_with_bounded_search():
    # corpus curated so that height 200 suffices to witness solvability
    for a, b, c in CORPUS:
        verdict = conic_solvable_global(Fraction(a), Fraction(b), Fraction(c))
        found = _search_conic(Fraction(a), Fraction(b), Fraction(c), 200)
        if verdict:
            assert found, (a, b, c)
        else:
            assert not _search_conic(Fraction(a), Fraction(b), Fraction(c), 100), (a, b, c)


def test_bad_places_cover_symbol_failures():
    rng = random.Random(22)
    for _ in range(60):
        a, b, c = nonzero(rng, 20), nonzero(rng, 20), nonzero(rng, 20)
        places = bad_places(a, b, c)
        # any prime outside the bad set has symbol +1
        for p in (101, 103, 997):
            if all(v.p != p for v in places):
                assert conic_solvable_local(a, b, c, finite_place(p))
