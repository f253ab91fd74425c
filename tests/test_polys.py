import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import specialize_by_horner, sylvester_resultant

from hitbox.errors import DomainError, ParseError
from hitbox.factorq import rational_roots
from hitbox.polys import (
    BiPoly,
    UniPoly,
    bipoly_str,
    discriminant_in_x,
    discriminant_uni,
    leading_coeff_in_x,
    parse_poly,
    parse_unipoly,
    poly_str,
    resultant,
    resultant_in_x,
    squarefree_part,
    uni_gcd,
)

X = UniPoly.gen()


def rand_unipoly(rng, max_deg=5, max_c=6):
    return UniPoly(
        [Fraction(rng.randint(-max_c, max_c), rng.randint(1, 3)) for _ in range(rng.randint(1, max_deg + 1))]
    )


def test_gcd_examples():
    assert uni_gcd(parse_unipoly("X^2-1"), parse_unipoly("X-1")) == parse_unipoly("X-1")
    # double root of the degenerate quartic: gcd with its derivative is X-1
    p0 = parse_unipoly("3*X^4-4*X^3+1")
    assert uni_gcd(p0, p0.derivative()) == parse_unipoly("X-1")
    f = rand_unipoly(random.Random(0))
    assert uni_gcd(f, UniPoly.constant(1)) == UniPoly.constant(1)
    assert uni_gcd(f, UniPoly()) == f.monic()


def test_resultant_examples():
    assert resultant(X - 2, X - 5) == -3
    assert resultant(X**2 + 1, X - 1) == 2
    assert resultant(X**2 + 1, X**2 + 1) == 0
    with pytest.raises(DomainError):
        resultant(UniPoly(), X)


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(3)
    for _ in range(150):
        f, g = rand_unipoly(rng), rand_unipoly(rng)
        if f.is_zero() or g.is_zero():
            continue
        assert resultant(f, g) == sylvester_resultant(f, g)


def test_resultant_swap_sign():
    rng = random.Random(4)
    for _ in range(80):
        f, g = rand_unipoly(rng, 4), rand_unipoly(rng, 4)
        if f.is_zero() or g.is_zero():
            continue
        sign = -1 if (f.degree * g.degree) % 2 else 1
        assert resultant(f, g) == sign * resultant(g, f)


def test_discriminant_examples():
    assert discriminant_uni(X**2 + X + 1) == -3
    assert discriminant_uni(X**3 + 1) == -27  # depressed cubic -4*0^3 - 27*1^2
    assert discriminant_uni(parse_unipoly("3*X^4-4*X^3+1")) == 0
    with pytest.raises(DomainError):
        discriminant_uni(UniPoly.constant(5))


def test_discriminant_multiplicative():
    rng = random.Random(5)
    done = 0
    while done < 50:
        f = rand_unipoly(rng, 4).monic()
        g = rand_unipoly(rng, 4).monic()
        if f.degree < 1 or g.degree < 1:
            continue
        if uni_gcd(f, g).degree != 0:
            continue
        lhs = discriminant_uni(f * g)
        rhs = discriminant_uni(f) * discriminant_uni(g) * resultant(f, g) ** 2
        assert lhs == rhs
        done += 1


def test_specialize_examples():
    P = parse_poly("3*X^4 - 4*X^3 + 1 + 3*T^2")
    assert P.specialize(0) == parse_unipoly("3*X^4-4*X^3+1")
    P6 = parse_poly("X^6 + T^6 - 1")
    assert P6.specialize(1) == X**6
    assert P6.specialize(2) == parse_unipoly("X^6+63")
    # degree drop when the leading coefficient vanishes
    Q = parse_poly("(T^2-1)*X^2 + T*X + 1")
    assert Q.specialize(1).degree == 1


_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9))
_t_values = st.one_of(st.sampled_from([0, 1, -1]), st.fractions(min_value=-50, max_value=50, max_denominator=30))


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.lists(_fractions, min_size=0, max_size=7), min_size=0, max_size=7),
    t=_t_values,
    kill_lead=st.booleans(),
)
def test_specialize_matches_horner(rows, t, kill_lead):
    """T- and X-degrees 0..6, rational coefficients, t of 0, +-1 or with a
    denominator; with kill_lead the leading X-coefficient vanishes at t."""
    P = BiPoly([UniPoly(r) for r in rows])
    if kill_lead and P.degree_x >= 1 and P.degree_t < 6:
        t = Fraction(t)
        lead = P.xcoeffs[-1] * UniPoly([-t.numerator, t.denominator])
        P = BiPoly(list(P.xcoeffs[:-1]) + [lead])
    got, want = P.specialize(t), specialize_by_horner(P, t)
    assert got.degree == want.degree
    assert got.primitive_int() == want.primitive_int()
    assert got == want and got.coeffs == want.coeffs


_int_lists = st.lists(st.integers(-10**6, 10**6), max_size=7)


@settings(max_examples=300, deadline=None)
@given(ints=_int_lists, den=st.integers(-10**4, 10**4).filter(bool), read_first=st.booleans())
def test_from_ints_matches_eager_construction(ints, den, read_first):
    lazy = UniPoly.from_ints(ints, den)
    eager = UniPoly([Fraction(v, den) for v in ints])
    if read_first:
        assert lazy.coeffs == eager.coeffs
    assert lazy.degree == eager.degree
    assert lazy.is_zero() == eager.is_zero() and bool(lazy) == bool(eager)
    assert lazy.primitive_int() == eager.primitive_int()
    assert lazy == eager and eager == lazy
    assert hash(lazy) == hash(eager)
    copy = pickle.loads(pickle.dumps(lazy))
    assert copy == eager and copy.degree == eager.degree and hash(copy) == hash(eager)
    assert lazy.coeffs == eager.coeffs


def test_from_ints_answers_degree_without_fractions(monkeypatch):
    f = UniPoly.from_ints([3, 0, -6, 0, 0], 9)
    monkeypatch.setattr(UniPoly, "coeffs", property(lambda self: pytest.fail("coeffs read")))
    assert f.degree == 2 and not f.is_zero() and f
    assert f.primitive_int() == ([-1, 0, 2], Fraction(-1, 3))
    assert UniPoly.from_ints([0, 0], 5).is_zero()


def test_leading_coeff_examples():
    assert leading_coeff_in_x(parse_poly("3*X^4-4*X^3+1+3*T^2")) == UniPoly.constant(3)
    assert leading_coeff_in_x(parse_poly("X^6+T^6-1")) == UniPoly.constant(1)
    assert leading_coeff_in_x(parse_poly("(T^2-1)*X^2 + T*X + 1")) == parse_unipoly("T^2-1", "T")
    with pytest.raises(DomainError):
        leading_coeff_in_x(BiPoly())


def test_discriminant_in_x_examples():
    d = discriminant_in_x(parse_poly("X^2-T"))
    assert d == UniPoly([0, 4])  # 4T by the quadratic formula convention
    d6 = discriminant_in_x(parse_poly("X^6+T^6-1"))
    assert rational_roots(d6) == {Fraction(1), Fraction(-1)}
    # oracle: disc(X^6+c) = -6^6 c^5; here c = T^6-1
    c = parse_unipoly("T^6-1", "T")
    assert d6 == UniPoly.constant(-(6**6)) * c**5
    d4 = discriminant_in_x(parse_poly("3*X^4-4*X^3+1+3*T^2"))
    assert rational_roots(d4) == {Fraction(0)}
    with pytest.raises(DomainError):
        discriminant_in_x(parse_poly("T^2+1"))


def test_discriminant_in_x_specializes():
    rng = random.Random(6)
    done = 0
    while done < 100:
        P = BiPoly(
            [
                UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
                for _ in range(rng.randint(2, 5))
            ]
        )
        if P.degree_x < 1:
            continue
        t = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if leading_coeff_in_x(P)(t) == 0:
            continue
        pt = P.specialize(t)
        if pt.degree < 1 or pt.derivative().is_zero():
            continue
        assert discriminant_in_x(P)(t) == discriminant_uni(pt)
        done += 1


def test_resultant_in_x_specializes():
    rng = random.Random(7)
    done = 0
    while done < 60:
        P = BiPoly([UniPoly([rng.randint(-3, 3) for _ in range(2)]) for _ in range(rng.randint(2, 4))])
        Q = BiPoly([UniPoly([rng.randint(-3, 3) for _ in range(2)]) for _ in range(rng.randint(2, 4))])
        if P.degree_x < 1 or Q.degree_x < 1:
            continue
        t = Fraction(rng.randint(-5, 5))
        if leading_coeff_in_x(P)(t) == 0 or leading_coeff_in_x(Q)(t) == 0:
            continue
        pt, qt = P.specialize(t), Q.specialize(t)
        assert resultant_in_x(P, Q)(t) == resultant(pt, qt)
        done += 1


def test_squarefree_part():
    p0 = parse_unipoly("3*X^4-4*X^3+1")
    sq = squarefree_part(p0)
    assert sq == (parse_unipoly("X-1") * parse_unipoly("X^2 + 2/3*X + 1/3")).monic()
    assert squarefree_part(X**6) == X
    rng = random.Random(8)
    for _ in range(50):
        f = rand_unipoly(rng, 5)
        if f.degree < 1:
            continue
        s = squarefree_part(f)
        assert (f % s).is_zero()
        assert uni_gcd(s, s.derivative()).degree == 0
        if uni_gcd(f, f.derivative()).degree == 0:
            assert s == f.monic()  # idempotent on squarefree input


def test_parser_grammar():
    P = parse_poly("3*X^4 - 4*X^3 + 1 + 3*T^2")
    assert bipoly_str(P) == "3*X^4 - 4*X^3 + 3*T^2 + 1"
    assert parse_poly("1/2*X + 1/2") == parse_poly("(X + 1)* 1/2")
    assert parse_poly(" - X^2") == -parse_poly("X^2")
    assert parse_poly("((T-1)*(T+1))^2") == parse_poly("T^4 - 2*T^2 + 1")
    for bad in ("3*X^", "X +", "(X", "X)", "2/0", "X*", "3**X", ""):
        with pytest.raises(ParseError):
            parse_poly(bad)
    try:
        parse_poly("X^4 + $")
    except ParseError as e:
        assert e.position == 6  # 0-based offset of the bad character


def test_poly_str_roundtrip():
    rng = random.Random(9)
    for _ in range(60):
        P = BiPoly(
            [
                UniPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)])
                for _ in range(4)
            ]
        )
        assert parse_poly(bipoly_str(P)) == P
