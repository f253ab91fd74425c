import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    cycle_type_by_sympy,
    expand_factorization,
    roots_by_divisor_check,
    swinnerton_dyer,
    trial_division_irreducible,
)

from hitbox import factorq, rationals
from hitbox.errors import DomainError, ResourceLimitError
from hitbox.factorq import (
    Factorization,
    factor_over_Q,
    factorization_type,
    is_irreducible,
    rational_roots,
    root_mask,
    root_sieve,
)
from hitbox.harness import load_fixture, resolve_reference, verify_equivalence
from hitbox.polys import BiPoly, UniPoly, _add, _discriminant_ints, _mul, _sub, parse_unipoly, poly_str, uni_gcd
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


@st.composite
def _low_degree_pairs(draw):
    """A linear or quadratic UniPoly times X^k (k <= 2) as a raw integer
    pair: a primitive shape times a content of either sign, over a
    denominator of either sign.  Quadratics are random, split as
    (q1 X - p1)(q2 X - p2) (square discriminant, zero constant term when
    p1 = 0), or a square (zero discriminant)."""
    small = st.integers(-60, 60)
    shape = draw(st.sampled_from(["linear", "random", "split", "double"]))
    if shape == "linear":
        prim = [draw(small), draw(small.filter(bool))]
    elif shape == "random":
        prim = [draw(small), draw(small), draw(small.filter(bool))]
    else:
        p1, q1 = draw(st.integers(-20, 20)), draw(st.integers(1, 9))
        p2, q2 = (p1, q1) if shape == "double" else (draw(st.integers(-20, 20)), draw(st.integers(1, 9)))
        prim = [p1 * p2, -(p1 * q2 + p2 * q1), q1 * q2]
    content = draw(st.integers(-12, 12).filter(bool))
    den = draw(st.integers(-9, 9).filter(bool))
    zeros = [0] * draw(st.sampled_from([0, 0, 1, 2]))
    return UniPoly.from_ints(zeros + [content * c for c in prim], den)


@settings(max_examples=400, deadline=None)
@given(f=_low_degree_pairs())
@example(f=UniPoly.from_ints([0, -6], 4))  # linear with root 0
@example(f=UniPoly.from_ints([12, -8, 0], 3))  # linear, given with a trailing zero
@example(f=UniPoly.from_ints([0, 6, -4], -5))  # zero constant term
@example(f=UniPoly.from_ints([-18, 24, -8], 7))  # -2(2X - 3)^2: zero discriminant
@example(f=UniPoly.from_ints([30, -66, 36], 1))  # 6(2X - 3)(3X - 5): square discriminant
@example(f=UniPoly.from_ints([14, 0, 14], 2))  # 7(X^2 + 1): negative discriminant
@example(f=UniPoly.from_ints([-6, 0, 3], 9))  # 3(X^2 - 2): non-square discriminant
@example(f=UniPoly.from_ints([0, 0, 10, -4], -3))  # 2 X^2 (5 - 2X): X^2 comes off
@example(f=UniPoly.from_ints([0, 0, -2, 0, 4], 5))  # 2 X^2 (2X^2 - 1): no root but 0
def test_low_degree_rational_roots_against_divisor_oracle(f):
    """Degrees 1 and 2, after the zero roots come off, read the raw integer
    pair, content, sign and denominator included; the divisor oracle reads
    the primitive part."""
    assert 1 <= f.degree <= 4
    roots = rational_roots(f)
    assert roots == roots_by_divisor_check(f)
    assert all(f(r) == 0 for r in roots)
    assert roots == rational_roots(UniPoly(f.coeffs))  # the same value in lowest terms


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
        assert expand_factorization(fac) == f
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


def test_radical_is_the_factorization_itself_only_when_it_is_its_own_radical():
    fac = factor_over_Q(parse_unipoly("X^5 - X - 1"))
    scaled = factor_over_Q(parse_unipoly("3*X^5 - 3*X - 3"))
    assert scaled.factors == fac.factors and scaled.unit == 3
    # the unit moves neither what the scan handed over
    assert scaled.model == fac.model and scaled.model is not None
    assert scaled.scanned == fac.scanned != ()
    # a repeated factor: the scan did not run on the input, so it hands over nothing
    repeated = factor_over_Q(parse_unipoly("(X^2 + 1)^3*(X - 2)"))
    assert repeated.unit == 1
    assert repeated.model is None and repeated.scanned == ()


def test_factorization_equality_hash_and_repr_ignore_what_the_scan_handed_over():
    fac = factor_over_Q(parse_unipoly("X^5 - X - 1"))
    assert fac.model is not None and fac.scanned != ()
    bare = Factorization(fac.unit, fac.factors)
    assert bare.model is None and bare.scanned == ()
    assert bare == fac and hash(bare) == hash(fac) and repr(bare) == repr(fac)
    assert Factorization(2 * fac.unit, fac.factors, fac.model, fac.scanned) != fac


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
    """F is monic and integral, F(y) = m^n g(y/m) for g the monic multiple,
    m divides the lcm of g's denominators (and shares its primes), and m is
    the least such scale when each denominator of g_i is a perfect
    (n-i)-th power, and whenever the lcm is below 2^16.  Built here from
    Fractions; sympy's integer_nthroot decides the perfect powers, and
    sympy's primefactors the primes whose removal must break the scale."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(18)
    cases = [
        [rng.randint(-30, 30) for _ in range(rng.randint(1, 6))] + [rng.choice([-12, -5, 1, 4, 9, 30])]
        for _ in range(200)
    ]
    # g_i = a_i / r_i^(n-i): denominators that are mostly perfect powers
    for _ in range(200):
        n = rng.randint(1, 6)
        g = [Fraction(rng.randint(-30, 30), rng.randint(1, 6) ** (n - i)) for i in range(n)] + [Fraction(1)]
        den = math.lcm(*[c.denominator for c in g])
        cases.append([int(c * den) * rng.choice([1, -1]) for c in g])
    cases.append([-665, 0, 0, 0, 0, 0, 729])  # X^6 - 665/729
    # serre-a4 at t = 2/5, 1/7 and 3/4: constant terms over 75, 147 and 48
    serre = [[37, 0, 0, -100, 75], [52, 0, 0, -196, 147], [43, 0, 0, -64, 48]]
    cases += serre
    least = 0
    for ints in cases:
        g = UniPoly(ints).monic()
        n = g.degree
        F, m = factorq._monic_int_model(ints)
        assert len(F) == n + 1 and F[n] == 1 and all(type(c) is int for c in F), ints
        assert all(F[i] == c * m ** (n - i) for i, c in enumerate(g.coeffs)), ints
        lcd = math.lcm(*[c.denominator for c in g.coeffs])
        assert lcd % m == 0 and m ** n % lcd == 0, ints

        def integral(s):
            return all((c * s ** (n - i)).denominator == 1 for i, c in enumerate(g.coeffs))

        if all(sympy.integer_nthroot(c.denominator, n - i)[1] for i, c in enumerate(g.coeffs[:n])):
            assert next(s for s in range(1, m + 1) if integral(s)) == m, ints
            least += m > 1 and m < lcd
        if lcd < 1 << 16:
            # the scales are the multiples of the least one
            assert not any(integral(m // q) for q in sympy.primefactors(m)), ints
    assert least >= 20
    assert factorq._monic_int_model([-665, 0, 0, 0, 0, 0, 729]) == ([-665, 0, 0, 0, 0, 0, 1], 3)
    assert [factorq._monic_int_model(ints)[1] for ints in serre] == [15, 21, 6]


def _walked_type(f: UniPoly, p: int) -> tuple[int, ...] | None:
    """The cycle type that ``usable_cycle_types`` reads at p on f's monic
    integer model, or None when the walk passes over p."""
    F, m = factorq._monic_int_model(f.primitive())
    disc = _discriminant_ints(F)
    if not disc:
        return None  # a repeated factor: no prime is usable
    q, ct = next(factorq.usable_cycle_types(F, m, disc, p - 1))
    return ct if q == p else None


def test_cycle_type_mod_p():
    f = parse_unipoly("X^2+1")
    cases = [
        (f, 5, (1, 1)),
        (f, 3, (2,)),
        (f, 2, None),  # ramified: not squarefree mod 2
        (parse_unipoly("X^2-3"), 3, None),  # ramified at an odd prime
        # p dividing the leading coefficient or a denominator is rejected
        (parse_unipoly("5*X^3+X+1"), 5, None),
        (UniPoly([Fraction(1, 5), 1, 1]), 5, None),
        (parse_unipoly("X^3-X-1"), 5, (2, 1)),
        (parse_unipoly("X^3-2"), 7, (3,)),
    ]
    for g, p, want in cases:
        assert cycle_type_by_sympy(g, p) == want, (poly_str(g), p)
        assert _walked_type(g, p) == want, (poly_str(g), p)
    # the walk reads the oracle's types at usable primes, summing to deg f;
    # the primitive integer form has the model's leading primes
    rng = random.Random(14)
    for _ in range(80):
        f = rand_poly(rng, 6)
        p = rng.choice([3, 5, 7, 11, 13, 17])
        ct = cycle_type_by_sympy(UniPoly(f.primitive()), p)
        assert _walked_type(f, p) == ct, (poly_str(f), p)
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


# Inputs built to defeat the residue scan's shortcuts: products whose factor
# degrees put 1 and n-1 in the degree set (linear x cubic, linear x
# quintic), keep a middle degree in it (quad x quad, cubic x cubic, quad x
# quartic), irreducibles it must prove, and repeated factors it must leave
# to the squarefree part.


def _int_poly(degree):
    return st.tuples(
        st.lists(st.integers(-25, 25), min_size=degree, max_size=degree),
        st.sampled_from([1, 1, 2, 3, -4, 6]),
    ).map(lambda t: UniPoly(t[0] + [t[1]]))


_SHAPES = [(1, 3), (2, 2), (1, 5), (3, 3), (2, 4)]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(_SHAPES).flatmap(lambda s: st.tuples(_int_poly(s[0]), _int_poly(s[1]))),
    st.sampled_from([1, -2, Fraction(3, 5)]),
)
def test_factor_over_Q_matches_sympy_on_products_of_two_shapes(pair, unit):
    a, b = pair
    _assert_matches_sympy(a * b * unit)


@pytest.mark.parametrize(
    "text",
    [
        # products
        "(2*X - 3)*(X^3 - 2)",
        "(X + 7)*(X^3 - 3*X - 1)",
        "(X^2 + 1)*(X^2 + 2)",
        "(X^2 - 2)*(X^2 - 8)",
        "(X - 1)*(X^5 - X - 1)",
        "(3*X + 1)*(X^5 + 20*X + 16)",
        "(X^3 - 2)*(X^3 - 3)",
        "(X^3 - 3*X - 1)*(X^3 + X + 1)",
        "(X^2 + 3)*(X^4 - 10*X^2 + 1)",
        "(5*X^2 - 1)*(X^4 + 8*X + 12)",
        # rational roots and a factor of middle degree: the roots come off
        # first, and Zassenhaus lifts only the cofactor's modular factors
        "X^6 - 1",
        "X^8 - 1",
        "(X - 2)*(X + 3)*(X^2 + 1)*(X^2 + 2)",
        "(2*X - 1)*(X^4 + 1)",
        # irreducible cubics, quartics (C4, V4, D4, A4, S4) and sextics
        "X^3 - 2",
        "X^3 - 3*X - 1",
        "4*X^3 - 3*X + 1/2",
        "X^4 + X^3 + X^2 + X + 1",
        "X^4 - 10*X^2 + 1",
        "X^4 - 2",
        "X^4 + 8*X + 12",
        "X^4 + X + 1",
        "X^6 + 3",
        "X^6 - X - 1",
        "X^6 + X^3 + 1",
        "X^6 + 63",
        "X^6 - 3*X^2 - 1",
    ],
)
def test_factor_over_Q_matches_sympy_on_shortcut_cases(text):
    _assert_matches_sympy(parse_unipoly(text))


def _irreducible(f: UniPoly) -> bool:
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    return sympy.Poly([int(c) for c in reversed(f.coeffs)], x).is_irreducible


def _linear_factors(k_max):
    """1 to k_max distinct linear factors b*X - a, as one product."""
    root = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5]))
    roots = st.lists(root, min_size=1, max_size=k_max, unique=True)
    return roots.map(lambda rs: math.prod((UniPoly([-r.numerator, r.denominator]) for r in rs), start=UniPoly([1])))


@settings(max_examples=100, deadline=None)
@given(
    _linear_factors(3),
    st.integers(3, 5).flatmap(_int_poly).filter(_irreducible),
    st.sampled_from([1, -2, Fraction(3, 5)]),
)
def test_factor_over_Q_matches_sympy_on_linear_factors_times_an_irreducible(linear, cofactor, unit):
    # one linear factor leaves the degree set inside {0, 1, n-1, n} at a
    # prime where the cofactor stays irreducible, and the roots come from
    # the scan's split; two or three keep 2 in it, for Zassenhaus
    _assert_matches_sympy(linear * cofactor * unit)


# integer roots at and beside powers of two up to 2^40, where the bit-length
# form of Fujiwara's root bound in _lift_roots is at its tightest
_ROOTS_NEAR_POWERS_OF_TWO = st.builds(
    lambda k, d, sign: sign * (2**k + d), st.integers(1, 40), st.integers(-1, 1), st.sampled_from([1, -1])
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_ROOTS_NEAR_POWERS_OF_TWO, min_size=1, max_size=3, unique=True),
    st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(lambda cs: cs[-1] != 0),
    st.sampled_from([1, -3, Fraction(2, 7)]),
)
def test_large_integer_roots_are_found_as_sympy_finds_them(roots, cofactor, unit):
    f = math.prod((UniPoly([-r, 1]) for r in roots), start=UniPoly(cofactor) * unit)
    _assert_matches_sympy(f)
    _, factors = _sympy_factors(f)
    assert rational_roots(f) == {-c[0] for c, _ in factors if len(c) == 2}, poly_str(f)
    assert set(roots) <= rational_roots(f)


def test_lift_roots_stops_past_twice_fujiwaras_bound():
    # X - r: the bound is 4 << bitlen(r); lifting from 3 stops at the first
    # power 3^(2^j) above it, where r is the symmetric representative
    for r in (2**40 - 1, 2**40, -(2**40) - 1, 10**9 + 7):
        F = [-r, 1]
        assert factorq._lift_roots(F, 3, [r % 3]) == [r]
    # roots of absolute value up to Fujiwara's 2 max |F_(n-i)|^(1/i)
    F = _mul(_mul([-(2**30), 1], [2**30 + 1, 1]), [7, 0, 1])  # (X - 2^30)(X + 2^30 + 1)(X^2 + 7)
    p = next(p for p in (3, 5, 7, 11, 13) if factorq._simple_roots_mod(F, p) is not None)
    assert sorted(factorq._lift_roots(F, p, factorq._simple_roots_mod(F, p))) == [-(2**30) - 1, 2**30]


@pytest.mark.parametrize("text", ["X^6 - 63/64", "X^6 - 665/729", "-7/2*X^5 + X - 1/3", "6*X - 4"])
def test_factor_over_Q_returns_an_irreducible_input_as_its_monic_pair(text):
    # the scan's degree set is {0, n}; X^6 - 63/64 is fermat-x6 at t = 1/2
    f = parse_unipoly(text)
    fac = factor_over_Q(f)
    assert fac.is_irreducible() and fac.unit == f.lc()
    (g, _), = fac.factors
    # the same lowest-terms pair as the model rescaled by m^i and reduced
    F, m = fac.model
    rescaled = UniPoly.from_ints([c * m**i for i, c in enumerate(F)], m ** (len(F) - 1)).monic()
    assert (g._ints, g._den) == (f.monic()._ints, f.monic()._den) == (rescaled._ints, rescaled._den)


def _s3_cubic(cubic: UniPoly) -> bool:
    """An irreducible cubic has group S3 when its discriminant is no square."""
    sympy = pytest.importorskip("sympy")
    disc = int(sympy.discriminant(sympy.Poly([int(c) for c in reversed(cubic.coeffs)], sympy.Symbol("x"))))
    return _irreducible(cubic) and (disc < 0 or math.isqrt(disc) ** 2 != disc)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        _int_poly(3).filter(_s3_cubic),
        st.tuples(_linear_factors(1), _int_poly(2).filter(_irreducible)).map(lambda t: t[0] * t[1]),
    )
)
def test_factor_over_Q_matches_sympy_on_cubics_with_and_without_a_rational_root(cubic):
    # the first usable prime ends a cubic's scan: its degree set always lies
    # inside {0, 1, 2, 3}, and one root lift decides the rest
    _assert_matches_sympy(cubic)


@pytest.mark.parametrize(
    "text",
    [
        "(X - 2)*(X^3 - 2)",
        "(X + 7)*(X^3 - 3*X - 1)",
        "(3*X + 1)*(X^5 + 20*X + 16)",
        "(2*X - 5)*(X^2 + 3)",
        "(X - 1)*(X - 3)*(X + 5)",
    ],
)
def test_split_off_roots_come_from_the_scan(monkeypatch, text):
    calls = [_counting(monkeypatch, n) for n in _AFTER_THE_SCAN]
    f = parse_unipoly(text)
    fac = factor_over_Q(f)
    assert calls == [[]] * len(_AFTER_THE_SCAN)
    assert fac.type()[0] == 1
    monkeypatch.undo()
    _assert_matches_sympy(f)


def test_x6_minus_1_lifts_only_the_quadratic_factors_of_its_cofactor(monkeypatch):
    # the roots +-1 come off first; the two quadratic factors mod p of
    # X^4 + X^2 + 1 take one split and two leaves, where lifting all four
    # modular factors of X^6 - 1 took 7 calls
    lifts = _counting(monkeypatch, "_hensel_lift")
    fac = factor_over_Q(parse_unipoly("X^6 - 1"))
    assert fac.type() == (1, 1, 2, 2)
    assert len(lifts) <= 3


@settings(max_examples=60, deadline=None)
@given(
    _linear_factors(3),
    st.lists(st.integers(2, 3).flatmap(_int_poly).filter(_irreducible), min_size=1, max_size=2),
)
def test_factor_over_Q_matches_sympy_on_linear_factors_times_small_irreducibles(linear, small):
    # 1-3 rational roots and 1-2 irreducible quadratics or cubics: the
    # roots come off on the one path, whether or not a middle degree
    # survives the scan
    _assert_matches_sympy(linear * math.prod(small, start=UniPoly([1])))


@pytest.mark.parametrize(
    "text",
    [
        "(X^2 + 1)^2*(X^3 - 2)",
        "(X - 1)^3*(X^2 - 2)^2",
        "(2*X + 1)^2*(X^4 + 8*X + 12)",
        "(X^3 - 3*X - 1)^2*(X + 5)",
    ],
)
def test_repeated_factors_take_the_yun_path(monkeypatch, text):
    # no prime is usable for a repeated factor, so the squarefree part is
    # factored once, and the multiplicities are read by division
    sqf = _counting(monkeypatch, "squarefree_part")
    f = parse_unipoly(text)
    fac = factor_over_Q(f)
    assert len(sqf) == 1
    assert max(m for _, m in fac.factors) > 1
    monkeypatch.undo()
    _assert_matches_sympy(f)


def test_recombination_for_a_quartic_that_splits_modulo_every_prime():
    # X^4 - 10X^2 + 1 (minimal polynomial of sqrt2 + sqrt3) is irreducible
    # over Q, but has Galois group V4, so no prime leaves it irreducible:
    # Zassenhaus must rule out every pairing of the modular factors.
    f = parse_unipoly("X^4-10*X^2+1")
    assert is_irreducible(f)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        assert max(cycle_type_by_sympy(f, p)) <= 2
    _assert_matches_sympy(f)
    _assert_matches_sympy(f * parse_unipoly("X^4-4*X^2+1") * parse_unipoly("X^2-6"))


def test_recombination_trial_cap_counts_every_subset(monkeypatch):
    # sqrt 2..11 splits into 16 quadratics modulo every prime; proving it
    # irreducible tries every subset of at most 8 of them but half of the
    # 8-subsets: 39,202 trials, which a cap of 39,202 allows and 39,201 not
    f = swinnerton_dyer([2, 3, 5, 7, 11])
    monkeypatch.setattr(factorq, "_RECOMBINATION_TRIALS", 39_202)
    assert is_irreducible(f)
    monkeypatch.setattr(factorq, "_RECOMBINATION_TRIALS", 39_201)
    with pytest.raises(ResourceLimitError, match="recombining 16 modular factors of a degree-32 polynomial"):
        factor_over_Q(f)


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


def _subset_sums(degrees):
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


def _expected_scan(f: list[int], scan: int):
    """(p, factor degrees mod p) for the usable odd primes a residue scan of
    the monic f reads, from complete factorizations mod p, and the
    intersection of their subset sums: the scan stops at the first prime
    that brings the intersection inside {0, 1, n-1, n}, or at the scan-th."""
    n = len(f) - 1
    out, common = [], set(range(n + 1))
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        factors = _sympy_factors_mod_p(f, p)
        if factors is not None:
            degrees = tuple(sorted((len(g) - 1 for g in factors), reverse=True))
            out.append((p, degrees))
            common &= _subset_sums(degrees)
            if common <= {0, 1, n - 1, n} or len(out) == scan:
                return out, common
    raise AssertionError(f"too few usable primes below 50 for {f}")


# What a scan whose degree set lies inside {0, 1, n-1, n} leaves undone:
# complete factoring mod p, lifting, the squarefree part of a repeated
# factor, and the root search of _lifted_roots.
_AFTER_THE_SCAN = ("_gp_factor_sqf", "_hensel_lift", "_simple_roots_mod", "squarefree_part")


def _counting(monkeypatch, name):
    """Record the calls of factorq.<name> (its first arguments) in a list."""
    calls, real = [], getattr(factorq, name)

    def counted(*args):
        calls.append(args[:2])
        return real(*args)

    monkeypatch.setattr(factorq, name, counted)
    return calls


def _counting_usable(monkeypatch):
    """Record the primes that factorq._usable_ddf finds usable in a list."""
    usable, real = [], factorq._usable_ddf

    def counted(f, p):
        split = real(f, p)
        if split is not None:
            usable.append(p)
        return split

    monkeypatch.setattr(factorq, "_usable_ddf", counted)
    return usable


def test_good_prime_scan_is_bounded_and_factors_only_the_winner(monkeypatch):
    usable, complete = _counting_usable(monkeypatch), _counting(monkeypatch, "_gp_factor_sqf")
    rng = random.Random(16)
    # A4, V4 and S4 quartics, a D4 quartic, and products quad*quad,
    # quad*cubic, cubic*cubic and quad*quartic whose degree sets keep a
    # degree between 2 and n-2 (a random input seldom does)
    polys = [[12, 8, 0, 0, 1], [1, 0, -10, 0, 1], [1, 1, 0, 0, 1], [-2, 0, 0, 0, 1]]
    polys += [[2, 0, 3, 0, 1], [-6, 0, 1, 0, 1], [1, 2, 2, 2, 1, 1], [16, 0, -10, 0, 1]]
    polys += [[6, 0, 0, -5, 0, 0, 1], [-1, -4, -3, 0, -2, 0, 1], [3, 0, -29, 0, -7, 0, 1]]
    polys += [[rng.randint(-20, 20) for _ in range(rng.randint(2, 6))] + [1] for _ in range(80)]
    zassenhaus = 0
    for f in polys:
        F = UniPoly(f)
        if uni_gcd(F, F.derivative()).degree > 0:
            continue  # the scan of a repeated factor is tested below
        n = F.degree
        expected, common = _expected_scan(f, factorq._DEGREE_SCAN)
        usable.clear()
        complete.clear()
        scan = factorq._good_prime(f, 1)
        # at most _DEGREE_SCAN usable primes, in increasing order, each read once
        assert usable == [q for q, _ in expected] and len(usable) <= factorq._DEGREE_SCAN, f
        assert [(q, split.cycle_type) for q, split in scan.splits] == expected, f
        assert {d for d in range(n + 1) if scan.degrees >> d & 1} == common, f
        if common <= {0, 1, n - 1, n}:
            # proven irreducible, or decided by rational roots: nothing to lift
            assert scan.chosen == scan.splits[-1] and scan.modular == [] and complete == [], f
            continue
        zassenhaus += 1
        assert len(usable) == factorq._DEGREE_SCAN
        fewest = min(len(degrees) for _, degrees in expected)
        p = next(q for q, degrees in expected if len(degrees) == fewest)
        assert scan.chosen[0] == p and [q for _, q in complete] == [p], f
        assert sorted(scan.modular) == _sympy_factors_mod_p(f, p)
    assert zassenhaus >= 5  # the Zassenhaus branch is exercised too


def test_a4_quartic_is_proven_irreducible_without_lifting(monkeypatch):
    # an A4 quartic is never irreducible mod p; 3 is unusable here
    # (X^4 + 2X = X(X - 1)^3 mod 3), and the (3,1) pattern at 5 puts the
    # degree set inside {0, 1, 3, 4}, which ends the scan; the root mod 5
    # that the split's linear factor holds lifts to no integer root
    f = [12, 8, 0, 0, 1]
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        assert len(_sympy_factors_mod_p(f, p)) > 1
    usable = _counting_usable(monkeypatch)
    calls = [_counting(monkeypatch, n) for n in _AFTER_THE_SCAN]
    fac = factor_over_Q(UniPoly(f))
    assert usable == [5]
    assert fac.is_irreducible() and fac.factors[0][0] == UniPoly(f)
    assert calls == [[]] * len(_AFTER_THE_SCAN)


def test_scan_gives_up_on_repeated_factors_and_yun_takes_over(monkeypatch):
    # the squarefree part takes over, scanned without a give-up
    sqf = _counting(monkeypatch, "squarefree_part")
    # (X - 1)(X - 15016)(X - 30031) is squarefree, but not modulo any odd
    # prime up to 13: the bounded scan cannot prove it so
    f = UniPoly([-1, 1]) * UniPoly([-15016, 1]) * UniPoly([-30031, 1])
    assert factorq._good_prime(f.primitive(), 1).splits == []
    assert factorq._good_prime(f.primitive(), 1, squarefree=True).splits[0][0] == 17
    _assert_matches_sympy(f)
    assert len(sqf) == 1
    sqf.clear()
    g = parse_unipoly("(X^2 - 2)^2*(X^3 + X + 1)*(2*X - 3)^3")
    assert factorq._good_prime(*factorq._monic_int_model(g.primitive())).splits == []
    fac = factor_over_Q(g)
    assert len(sqf) == 1
    assert [(h.degree, m) for h, m in fac.factors] == [(1, 3), (2, 2), (3, 1)]
    _assert_matches_sympy(g)


@pytest.mark.parametrize("text", ["(X^2 - 2)^2*(X^3 + X + 1)", "(3*X - 1)^2*(X^2 + 1)"])
def test_scan_gives_up_after_prime_scan_odd_primes_not_degree_scan(monkeypatch, text):
    # a repeated factor leaves no prime usable; the give-up counts the odd
    # primes prime to the scale m (3 divides the second model's m), not
    # the usable primes that _DEGREE_SCAN caps
    assert factorq._PRIME_SCAN == 5 < factorq._DEGREE_SCAN
    tried = _counting(monkeypatch, "_usable_ddf")
    F, m = factorq._monic_int_model(parse_unipoly(text).primitive())
    scan = factorq._good_prime(F, m)
    assert scan.splits == [] and scan.chosen is None
    primes = [p for p in (3, 5, 7, 11, 13, 17, 19) if m % p][: factorq._PRIME_SCAN]
    assert [p for _, p in tried] == primes


# fermat-x6 specializations of height at most 8 whose first _PRIME_SCAN
# usable primes leave a middle degree in the degree set: irreducible
# sextics that a 5-prime scan handed to Hensel lifting and recombination
_LATE_SETTLING_X6 = ["5/2", "2/5", "8/7", "7/8"]


def _assert_settled_by_degree_sets(monkeypatch, f: UniPoly):
    lifts = _counting(monkeypatch, "_hensel_lift")
    fac = factor_over_Q(f)
    assert fac.is_irreducible() and lifts == [], poly_str(f)
    monkeypatch.undo()
    _assert_matches_sympy(f)


@pytest.mark.parametrize("t", [sign * Fraction(s) for s in _LATE_SETTLING_X6 for sign in (1, -1)])
def test_late_settling_fermat_sextics_need_no_lifting(monkeypatch, t):
    f = load_fixture("fermat-x6").P.specialize(t)
    scan = factorq._good_prime(*factorq._monic_int_model(f.primitive()))
    assert scan.modular == [] and factorq._PRIME_SCAN < len(scan.splits) <= factorq._DEGREE_SCAN
    _assert_settled_by_degree_sets(monkeypatch, f)


# X^6 + a and X^6 + a X^3 + b: small Galois groups (C6, S3, D6, ...), whose
# degree sets settle late.  Every irreducible one with |a| <= 60, or with
# |a|, |b| <= 20, settles within 8 usable primes.
_SMALL_GROUP_SEXTICS = st.one_of(
    st.integers(-60, 60).filter(bool).map(lambda a: UniPoly([a, 0, 0, 0, 0, 0, 1])),
    st.tuples(st.integers(-20, 20), st.integers(-20, 20).filter(bool)).map(
        lambda ab: UniPoly([ab[1], 0, 0, ab[0], 0, 0, 1])
    ),
)


@settings(max_examples=60, deadline=None)
@given(_SMALL_GROUP_SEXTICS.filter(_irreducible))
@example(UniPoly([57, 0, 0, 0, 0, 0, 1]))  # 8 usable primes, the latest in range
@example(UniPoly([15, 0, 0, 3, 0, 0, 1]))
@example(UniPoly([-12, 0, 0, -10, 0, 0, 1]))
def test_small_group_sextics_are_settled_by_degree_sets(f):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_settled_by_degree_sets(monkeypatch, f)


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
        assert sorted(factorq._usable_ddf(f, p).parts) == theirs, (f, p)  # the cached split
        degrees = sorted((len(g) - 1 for g in _sympy_factors_mod_p(f, p)), reverse=True)
        assert factorq._usable_ddf(f, p).cycle_type == tuple(degrees), (f, p)
        assert cycle_type_by_sympy(UniPoly(f), p) == tuple(degrees), (f, p)


# -- arithmetic modulo m: the integer core plus one reduction -----------------


def _down(f):
    """An ascending list as sympy's galoistools write it, descending."""
    return list(reversed(f))


def _up(f):
    return [int(c) for c in reversed(f)]


_coefficients = st.lists(st.integers(-10**6, 10**6), max_size=9)


@settings(max_examples=200, deadline=None)
@given(f=_coefficients, g=_coefficients, n=st.integers(0, 60), p=st.sampled_from([3, 5, 7, 101]))
@example(f=[], g=[3, 1], n=0, p=7)
def test_mod_p_helpers_match_sympy_galoistools(f, g, n, p):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_div, gf_gcdex, gf_monic, gf_pow_mod

    f, g = factorq._red(f, p), factorq._red(g, p)
    assert _up(gf_monic(_down(f), p, ZZ)[1]) == factorq._gp_monic(f, p)
    assume(g)
    Q, R = gf_div(_down(f), _down(g), p, ZZ)
    assert factorq._gp_divmod(f, g, p) == (_up(Q), _up(R))
    assert factorq._gp_rem(f, g, p) == _up(R)
    assert list(factorq._gp_gcdex(f, g, p)) == [_up(h) for h in gf_gcdex(_down(f), _down(g), p, ZZ)]
    if len(g) > 1:
        assert factorq._gp_pow_mod(f, n, g, p) == _up(gf_pow_mod(_down(f), n, _down(g), p, ZZ))


@settings(max_examples=200, deadline=None)
@given(f=_coefficients, g=_coefficients, p=st.sampled_from([3, 5, 7, 101]), k=st.integers(2, 5))
def test_division_by_a_monic_list_modulo_a_prime_power(f, g, p, k):
    m = p**k
    f, g = factorq._red(f, m), factorq._red(g, m) + [1]
    q, r = factorq._gp_divmod(f, g, m)
    assert len(r) < len(g) and all(0 <= c < m for c in q + r)
    assert factorq._red(_sub(f, _add(_mul(q, g), r)), m) == []


@settings(max_examples=150, deadline=None)
@given(
    g=st.lists(st.integers(0, 100), max_size=4),
    h=st.lists(st.integers(0, 100), max_size=4),
    noise=_coefficients,
    p=st.sampled_from([3, 5, 7, 101]),
)
def test_hensel_step_lifts_the_factorization_and_the_bezout_identity(g, h, noise, p):
    g, h = factorq._red(g, p) + [1], factorq._red(h, p) + [1]
    s, t, one = factorq._gp_gcdex(g, h, p)
    assume(one == [1])
    # a monic f = g*h mod p, the rest of its coefficients arbitrary
    f = _add(_mul(g, h), [p * c for c in noise[: len(g) + len(h) - 2]])
    m = p
    for _ in range(2):
        g, h, s, t = factorq._hensel_step(m, f, g, h, s, t)
        m *= m
        assert factorq._red(_sub(f, _mul(g, h)), m) == []
        assert factorq._red(_sub(_add(_mul(s, g), _mul(t, h)), [1]), m) == []
        assert h[-1] == 1 and len(g) + len(h) == len(f) + 1


# -- the residue cache ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=7), st.sampled_from([3, 5, 7, 101]))
def test_cached_mod_p_kernels_match_a_fresh_computation(head, p):
    f = head + [1]
    factorq._residue_cache.cache_clear()
    fresh = [factorq._usable_ddf.__wrapped__(f, p), factorq._simple_roots_mod.__wrapped__(f, p)]
    for _ in range(2):  # the first call computes, the repeat looks up
        cached = [factorq._usable_ddf(f, p), factorq._simple_roots_mod(f, p)]
        assert cached == fresh, (f, p)
        hash(tuple(cached))  # built of tuples: no caller can change a cached value
    info = factorq._residue_cache.cache_info()
    assert info.misses == len(fresh) and info.hits == len(fresh)


def test_residue_cache_stays_within_its_bound():
    # synthetic keys: distinct vectors mod 3, each a few evaluations to solve
    n = factorq._RESIDUE_CACHE_SIZE + 100
    factorq._residue_cache.cache_clear()
    try:
        for i in range(n):
            factorq._simple_roots_mod([i // 3**j % 3 for j in range(9)] + [1], 3)
        info = factorq._residue_cache.cache_info()
        assert info.misses == n and info.currsize == factorq._RESIDUE_CACHE_SIZE
    finally:
        factorq._residue_cache.cache_clear()


def test_a_sweep_splits_each_residue_class_once(monkeypatch):
    # P(t, X) mod p takes few values across a sweep, and the distinct-degree
    # split runs once per (p, f mod p), however many t share it
    factorq._residue_cache.cache_clear()
    usable, ddf = _counting(monkeypatch, "_usable_ddf"), _counting(monkeypatch, "_gp_ddf")
    data = load_fixture("fermat-x6")
    reference, _ = resolve_reference(data)
    verify_equivalence(data, reference, 30, workers=1)
    classes = {(p, tuple(c % p for c in f)) for f, p in usable}
    assert len(ddf) <= len(classes) < len(usable) / 5


@pytest.mark.parametrize("name, most", [("fermat-x6", 3), ("serre-a4", 12)])
def test_a_height_30_sweep_lifts_only_where_a_middle_degree_is_real(monkeypatch, name, most):
    # degree sets over up to _DEGREE_SCAN primes settle the irreducible
    # fermat-x6 sextics; the 3 fermat-x6 lifts are t = 0, where the
    # cofactor X^4 + X^2 + 1 of the roots +-1 has quadratic factors
    data = load_fixture(name)
    reference, _ = resolve_reference(data)
    lifts = _counting(monkeypatch, "_hensel_lift")
    verify_equivalence(data, reference, 30, workers=1)
    assert len(lifts) <= most


# -- local root sieve ----------------------------------------------------------


def _t_poly(max_deg):
    return st.lists(st.integers(-9, 9), min_size=1, max_size=max_deg + 1).map(UniPoly)


def _bipoly(max_deg_x, max_deg_t):
    return st.lists(_t_poly(max_deg_t), min_size=1, max_size=max_deg_x + 1).map(BiPoly)


def _rejected_directly(f: BiPoly, t: Fraction) -> bool:
    """Some sieve prime leaves the homogenized integer form N of f(t, X),
    divided by its content, with no projective root: the definition,
    evaluated point by point."""
    rows, _, d = f.int_form()
    g = math.gcd(*[c for row in rows for c in row])
    a, b = t.numerator, t.denominator
    N = [sum(c * a**i * b ** (d - i) for i, c in enumerate(row)) // g for row in rows]
    for p in factorq._SIEVE_PRIMES:
        if N[-1] % p and not any(sum(c * u**j for j, c in enumerate(N)) % p == 0 for u in range(p)):
            return True
    return False


@settings(max_examples=40, deadline=None)
@given(
    _t_poly(3).filter(lambda c: not c.is_zero()),
    _t_poly(3),
    _bipoly(3, 3).filter(lambda Q: not Q.is_zero()),
    st.sampled_from([1, 3, 5, 15, -21]),  # content divisible by sieve primes
    st.sampled_from([1, 3, 5, 7]),  # the leading coefficient vanishes mod k
)
def test_root_sieve_passes_every_fibre_with_a_planted_root(c, r, Q, content, k):
    # P = (c(T) X - r(T)) Q(T, X): deg_X <= 4, deg_T <= 6, and X = r(t)/c(t)
    # is a rational root of P(t, X) wherever c(t) != 0
    c = c * k
    P = BiPoly([-r, c]) * Q * content
    sieve = root_sieve((P,))
    for t in rationals_up_to_height(6):
        if c(t) != 0:
            assert root_mask(sieve, t.numerator, t.denominator) != 0, t
    # the linear factor gives N a projective root at every point mod p
    assert sieve == ()


@settings(max_examples=40, deadline=None)
@given(_bipoly(4, 6).filter(lambda f: not f.is_zero()), st.sampled_from([1, 3, 35]))
# quadratics in X: (X + T)^2 - 105^2, whose discriminant 210^2 vanishes mod
# 3, 5 and 7 (a double root there, and rational roots everywhere), and
# 15 T X^2 + X + T, whose leading coefficient vanishes mod 3 and 5
@example(BiPoly([UniPoly([-11025, 0, 1]), UniPoly([0, 2]), UniPoly([1])]), 1)
@example(BiPoly([UniPoly([0, 1]), UniPoly([1]), UniPoly([0, 15])]), 1)
def test_root_sieve_tables_match_the_definition(f, content):
    f = f * content
    sieve = root_sieve((f,))
    for t in rationals_up_to_height(5):
        assert (root_mask(sieve, t.numerator, t.denominator) != 0) == (not _rejected_directly(f, t)), t


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_bipoly(3, 4).filter(lambda f: not f.is_zero()), min_size=1, max_size=4),
    st.integers(0, 3),
    st.sampled_from([1, 3, 35]),  # content divisible by sieve primes
)
def test_family_root_sieve_has_each_members_bit(S, planted, content):
    # the member at `planted` (if any) gets a linear factor X - T, so it has
    # the rational root t at every t and its bit is set everywhere
    S = [f * content for f in S]
    if planted < len(S):
        S[planted] = S[planted] * BiPoly([UniPoly([0, -1]), UniPoly([1])])
    sieve = factorq.root_sieve(S)
    for t in rationals_up_to_height(5):
        mask = factorq.root_mask(sieve, t.numerator, t.denominator)
        for i, f in enumerate(S):
            assert (mask >> i & 1) == (not _rejected_directly(f, t)), (t, i)
        if planted < len(S):
            assert mask >> planted & 1, t


def test_hensel_lift_reaches_the_requested_precision():
    # X^2 - 2 = (X - 3)(X - 4) mod 7; each quadratic step doubles the
    # precision, so l = 2^k + 1 needs k + 1 steps
    f = [-2, 0, 1]
    for l in (1, 2, 3, 4, 5, 8, 9, 16, 17, 33, 64, 65):
        F, G = factorq._hensel_lift(7, f, [[4, 1], [3, 1]], l)
        m = 7**l
        assert factorq._gp_mul(F, G, m) == [c % m for c in f], l
