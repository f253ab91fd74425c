import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import roots_by_divisor_check, trial_division_irreducible

from hitbox import factorq, rationals
from hitbox.errors import DomainError
from hitbox.factorq import (
    cycle_type_mod_p,
    factor_over_Q,
    factorization_type,
    is_irreducible,
    rational_roots,
)
from hitbox.harness import load_fixture
from hitbox.polys import UniPoly, parse_unipoly, poly_str, uni_gcd
from hitbox.rationals import rationals_up_to_height


def rand_poly(rng, max_deg=8, max_c=9):
    while True:
        f = UniPoly([rng.randint(-max_c, max_c) for _ in range(rng.randint(2, max_deg + 1))])
        if f.degree >= 1:
            return f


def test_rational_roots_examples():
    # cleared form of the cubic auxiliary polynomial at t = 1
    assert rational_roots(parse_unipoly("X^3+48*X^2-960*X-9728")) == set()
    assert rational_roots(parse_unipoly("X^6-1")) == {Fraction(1), Fraction(-1)}
    # at t = 10/27 the cubic auxiliary polynomial splits completely: the
    # parameter 10/27 has three preimages (2, -1/3, -5) under the curve
    # parametrization, one root each; substituting v = 2 guarantees 8/3.
    t = Fraction(10, 27)
    f = UniPoly([-10368 * t * t + 640, 336 - 1296 * t * t, 48, 1])
    roots = rational_roots(f)
    assert Fraction(8, 3) in roots
    assert roots == {Fraction(8, 3), Fraction(-44), Fraction(-20, 3)}
    with pytest.raises(DomainError):
        rational_roots(UniPoly())


def test_rational_roots_against_divisor_oracle(monkeypatch):
    rng = random.Random(10)
    for _ in range(150):
        f = rand_poly(rng, 6, 8)
        assert rational_roots(f) == roots_by_divisor_check(f)
    # products with repeated factors and roots with denominators
    pieces = [parse_unipoly(s) for s in (
        "X", "X - 3", "2*X + 5", "7*X - 4", "X^2 + 1", "3*X^2 - X + 7", "X^3 - 2",
    )]
    for _ in range(60):
        f = UniPoly.constant(rng.choice([1, -2, 3]))
        for g in rng.sample(pieces, rng.randint(1, 3)):
            f = f * g ** rng.randint(1, 3)
        assert rational_roots(f) == roots_by_divisor_check(f), poly_str(f)
    # the cubic auxiliary polynomial of fermat-x6 along a sweep, and cubics
    # with repeated roots mod the first odd primes: X(X - 1155)(X - 2310)
    # (whose root 0 leaves a quadratic) and (X - 1)(X - 15016)(X - 30031),
    # which no odd prime up to 13 keeps squarefree
    cubic = load_fixture("fermat-x6").S[3]
    cubics = [cubic.specialize(t) for t in rationals_up_to_height(25)]
    for a, step in ((0, 1155), (1, 15015)):
        cubics.append(UniPoly([-a, 1]) * UniPoly([-a - step, 1]) * UniPoly([-a - 2 * step, 1]))
    factored, sqf_parts = [], []
    real_factor_int, real_sqf = rationals.factor_int, factorq.squarefree_part
    monkeypatch.setattr(rationals, "factor_int", lambda n: factored.append(n) or real_factor_int(n))
    monkeypatch.setattr(factorq, "squarefree_part", lambda f: sqf_parts.append(f) or real_sqf(f))
    ours = [rational_roots(f) for f in cubics]
    assert factored == []
    assert sqf_parts[-1] == cubics[-1]  # the fallback to the squarefree part ran
    # a repeated factor without roots mod 3 leaves 3 usable: every root it
    # has there (only 2) is simple, so no squarefree part is taken
    sqf_parts.clear()
    repeated = parse_unipoly("(X^2 + 1)^2*(X - 2)")
    assert rational_roots(repeated) == {2} == roots_by_divisor_check(repeated)
    assert sqf_parts == []
    monkeypatch.undo()
    assert ours == [roots_by_divisor_check(f) for f in cubics]
    assert ours[-2:] == [{0, 1155, 2310}, {1, 15016, 30031}]


def test_factor_examples():
    fac = factor_over_Q(parse_unipoly("3*X^4-4*X^3+1"))
    assert fac.unit == 3
    assert [(poly_str(g), m) for g, m in fac.factors] == [
        ("X - 1", 2),
        ("X^2 + 2/3*X + 1/3", 1),
    ]
    fac = factor_over_Q(parse_unipoly("X^6-1"))
    assert len(fac.factors) == 4 and fac.type() == (1, 1, 2, 2)
    assert is_irreducible(parse_unipoly("X^6+63"))


def test_factor_reconstruction_random():
    rng = random.Random(11)
    for i in range(200):
        f = rand_poly(rng)
        fac = factor_over_Q(f)
        assert fac.expand() == f
        for g, _ in fac.factors:
            assert g.lc() == 1
            # full quadratic/cubic trial-division oracle on a subsample
            if i % 5 == 0 and g.degree <= 6:
                assert trial_division_irreducible(g)
        # linear factors agree with rational roots both ways
        lin = {(-g[0]) for g, _ in fac.factors if g.degree == 1}
        assert lin == rational_roots(f)


def test_factorization_type_examples():
    assert factorization_type(parse_unipoly("3*X^4-4*X^3+1")) == (1, 1, 2)
    t = Fraction(2)
    sextic = UniPoly([t**6 - 1, 0, 0, 0, 0, 0, 1])
    assert factorization_type(sextic) == (6,)
    assert factorization_type(parse_unipoly("X^6-1")) == (1, 1, 2, 2)


def test_factorization_type_additive_on_products():
    rng = random.Random(12)
    done = 0
    while done < 40:
        f, g = rand_poly(rng, 4), rand_poly(rng, 4)
        if uni_gcd(f, g).degree != 0:
            continue
        combined = sorted(factorization_type(f) + factorization_type(g))
        assert factorization_type(f * g) == tuple(combined)
        done += 1


def test_reducibility_matches_small_sweep():
    # the sextic family is reducible exactly at 0, 1, -1 (height <= 8 slice)
    for t in rationals_up_to_height(8):
        sext = UniPoly([Fraction(t) ** 6 - 1, 0, 0, 0, 0, 0, 1])
        assert is_irreducible(sext) == (t not in (0, 1, -1))


def test_monic_int_model_matches_the_fraction_construction():
    """F(y) = m^n g(y/m) for g the monic multiple, m its least common
    denominator, built here from Fractions."""
    rng = random.Random(18)
    for _ in range(200):
        ints = [rng.randint(-30, 30) for _ in range(rng.randint(1, 6))] + [rng.choice([-12, -5, 1, 4, 9, 30])]
        g = UniPoly(ints).monic()
        m = math.lcm(*[c.denominator for c in g.coeffs])
        n = g.degree
        assert factorq._monic_int_model(ints) == ([int(c * m ** (n - i)) for i, c in enumerate(g.coeffs)], m)


def test_cycle_type_mod_p():
    f = parse_unipoly("X^2+1")
    assert cycle_type_mod_p(f, 5) == (1, 1)
    assert cycle_type_mod_p(f, 3) == (2,)
    assert cycle_type_mod_p(f, 2) is None  # ramified: not squarefree mod 2
    # p dividing the leading coefficient or a denominator is rejected
    assert cycle_type_mod_p(parse_unipoly("5*X^3+X+1"), 5) is None
    g = UniPoly([Fraction(1, 5), 1, 1])
    assert cycle_type_mod_p(g, 5) is None
    assert cycle_type_mod_p(parse_unipoly("X^3-X-1"), 5) == (2, 1)
    assert cycle_type_mod_p(parse_unipoly("X^3-2"), 7) == (3,)
    with pytest.raises(DomainError):
        cycle_type_mod_p(f, 9)
    # degrees always sum to deg f on usable primes
    rng = random.Random(14)
    for _ in range(80):
        f = rand_poly(rng, 6)
        p = rng.choice([3, 5, 7, 11, 13, 17])
        ct = cycle_type_mod_p(f, p)
        if ct is not None:
            assert sum(ct) == f.degree


# -- oracles: sympy's factorizer and distinct-degree split ----------------------


def _sympy_factors(f: UniPoly):
    """(lc, sorted [(monic coefficients, multiplicity)]) from sympy over QQ."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
    unit, factors = sympy.Poly(coeffs, x, domain="QQ").factor_list()
    out = []
    for g, m in factors:
        unit *= g.LC() ** m
        monic = [Fraction(int(c.p), int(c.q)) for c in reversed(g.monic().all_coeffs())]
        out.append((tuple(monic), m))
    return Fraction(int(unit.p), int(unit.q)), sorted(out)


def _our_factors(f: UniPoly):
    fac = factor_over_Q(f)
    return fac.unit, sorted((g.coeffs, m) for g, m in fac.factors)


def _assert_matches_sympy(f: UniPoly):
    assert _our_factors(f) == _sympy_factors(f), poly_str(f)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=2, max_size=7).filter(lambda cs: cs[-1] != 0))
def test_factor_over_Q_matches_sympy_on_random_polynomials(coeffs):
    _assert_matches_sympy(UniPoly(coeffs))


def test_factor_over_Q_matches_sympy_on_products_with_repeated_factors():
    rng = random.Random(15)
    pieces = [parse_unipoly(s) for s in (
        "X - 3", "2*X + 5", "X^2 + 1", "X^2 - 2", "3*X^2 - X + 7", "X^3 - 2",
        "X^4 - 10*X^2 + 1", "X^4 + 8*X + 12",
    )]
    for _ in range(40):
        f = UniPoly.constant(Fraction(rng.choice([1, -2, 3]), rng.choice([1, 5])))
        for g in rng.sample(pieces, rng.randint(1, 3)):
            f = f * g ** rng.randint(1, 3)
        _assert_matches_sympy(f)


def test_recombination_for_a_quartic_that_splits_modulo_every_prime():
    # X^4 - 10X^2 + 1 (minimal polynomial of sqrt2 + sqrt3) is irreducible
    # over Q, but has Galois group V4, so no prime leaves it irreducible:
    # Zassenhaus must rule out every pairing of the modular factors.
    f = parse_unipoly("X^4-10*X^2+1")
    assert is_irreducible(f)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        assert max(cycle_type_mod_p(f, p)) <= 2
    _assert_matches_sympy(f)
    _assert_matches_sympy(f * parse_unipoly("X^4-4*X^2+1") * parse_unipoly("X^2-6"))


@pytest.mark.parametrize("name", ["serre-a4", "fermat-x6"])
def test_factor_over_Q_matches_sympy_on_fixture_specializations(name):
    data = load_fixture(name)
    for t in rationals_up_to_height(4):
        _assert_matches_sympy(data.P.specialize(t))


def _sympy_factors_mod_p(f: list[int], p: int):
    """Sorted monic irreducible factors (ascending coefficients) of monic f
    mod p from sympy, or None if f is not squarefree mod p."""
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor_sqf, gf_from_int_poly, gf_sqf_p

    g = gf_from_int_poly(list(reversed(f)), p)
    if not gf_sqf_p(g, p, ZZ):
        return None
    return sorted([int(c) for c in reversed(h)] for h in gf_factor_sqf(g, p, ZZ)[1])


def _first_usable_counts(f: list[int], scan: int):
    """(p, number of factors mod p) for the first usable odd primes of a
    monic f, from complete factorizations mod p."""
    out = []
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        factors = _sympy_factors_mod_p(f, p)
        if factors is not None:
            out.append((p, len(factors)))
            if len(factors) == 1 or len(out) == scan:
                return out
    raise AssertionError(f"too few usable primes below 50 for {f}")


def test_good_prime_scan_is_bounded_and_factors_only_the_winner(monkeypatch):
    usable, complete = [], []
    real_usable, real_sqf = factorq._usable_ddf, factorq._gp_factor_sqf

    def counting_usable(f, p):
        split = real_usable(f, p)
        if split is not None:
            usable.append(p)
        return split

    def counting_sqf(f, p):
        complete.append(p)
        return real_sqf(f, p)

    monkeypatch.setattr(factorq, "_usable_ddf", counting_usable)
    monkeypatch.setattr(factorq, "_gp_factor_sqf", counting_sqf)
    rng = random.Random(16)
    polys = [[12, 8, 0, 0, 1], [1, 0, -10, 0, 1], [1, 1, 0, 0, 1]]
    polys += [[rng.randint(-20, 20) for _ in range(rng.randint(2, 6))] + [1] for _ in range(60)]
    for f in polys:
        F = UniPoly(f)
        if uni_gcd(F, F.derivative()).degree > 0:
            continue  # _good_prime expects a squarefree polynomial
        expected = _first_usable_counts(f, 5)
        usable.clear()
        complete.clear()
        p, modular = factorq._good_prime(f)
        assert usable == [q for q, _ in expected], f
        assert len(usable) <= 5
        fewest = min(count for _, count in expected)
        assert p == next(q for q, count in expected if count == fewest), f
        assert complete == [p] and len(modular) == fewest
        assert sorted(modular) == _sympy_factors_mod_p(f, p)
    # an A4 quartic never stays irreducible mod p, so the scan runs to its cap
    usable.clear()
    factorq._good_prime([12, 8, 0, 0, 1])
    assert len(usable) == 5


def _random_monic_squarefree(rng, p, max_deg=8):
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_sqf_p

    while True:
        f = [rng.randrange(p) for _ in range(rng.randint(1, max_deg))] + [1]
        if gf_sqf_p(list(reversed(f)), p, ZZ):
            return f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_ddf_matches_sympy_and_complete_factorization(p):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_ddf_zassenhaus

    rng = random.Random(17 + p)
    for _ in range(60):
        f = _random_monic_squarefree(rng, p)
        ours = sorted((tuple(g), d) for g, d in factorq._gp_ddf(list(f), p))
        theirs = sorted(
            (tuple(int(c) for c in reversed(g)), d)
            for g, d in gf_ddf_zassenhaus(list(reversed(f)), p, ZZ)
        )
        assert ours == theirs, (f, p)
        degrees = sorted((len(g) - 1 for g in _sympy_factors_mod_p(f, p)), reverse=True)
        assert cycle_type_mod_p(UniPoly(f), p) == tuple(degrees), (f, p)
