import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import specialize_by_horner, sylvester_resultant

from hitbox.errors import DomainError, ParseError
from hitbox.factorq import rational_roots
from hitbox.polys import (
    BiPoly,
    UniPoly,
    _discriminant_ints,
    _mul,
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


def test_discriminant_matches_sylvester_definition():
    # non-monic, fractional and degree-1 inputs: (-1)^(n(n-1)/2) Res(f, f')/lc(f)
    rng = random.Random(9)
    done = 0
    while done < 80:
        f = rand_unipoly(rng, 5) * Fraction(rng.choice([1, -3, 7]), rng.choice([1, 2, 15]))
        if f.degree < 1:
            continue
        n = f.degree
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        assert discriminant_uni(f) == sign * sylvester_resultant(f, f.derivative()) / f.lc()
        done += 1


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=6),
    st.integers(-12, 12).filter(bool),
    st.integers(-5, 5),
    st.integers(0, 3),
)
@example([0], 1, 0, 0)  # X
@example([-2, 0], 3, 1, 3)  # (3X^2 - 2)(X + 1)^3: a triple root
def test_integer_discriminant_core_matches_sympy(head, lead, r, k):
    """``_discriminant_ints`` against sympy on integer lists of degree 1-6;
    the factor (X + r)^k puts in a repeated root when k >= 2."""
    sympy = pytest.importorskip("sympy")
    F = head + [lead]
    for _ in range(k):
        if len(F) < 7:
            F = _mul(F, [r, 1])
    theirs = sympy.discriminant(sympy.Poly(list(reversed(F)), sympy.Symbol("x")))
    assert _discriminant_ints(F) == int(theirs), F


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
    assert got.primitive() == want.primitive()
    assert got == want and got.coeffs == want.coeffs


@st.composite
def _sparse_bipolys(draw):
    """X-degree up to 6, T-degree up to 18, a few nonzero terms per row;
    rows without any term (X^j missing) are common."""
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        terms = draw(st.lists(st.tuples(st.integers(0, 18), _fractions), max_size=3))
        row = [Fraction(0)] * (max((i for i, _ in terms), default=-1) + 1)
        for i, c in terms:
            row[i] += c
        rows.append(UniPoly(row))
    return BiPoly(rows)


def _dense_specialization(P: BiPoly, t) -> tuple[list[int], int]:
    """The pair (N, L * b^d) with N_j = sum_i C[j][i] a^i b^(d-i), every
    term of every row included, for t = a/b: the module docstring's formula."""
    t = Fraction(t)
    a, b = t.numerator, t.denominator
    L = math.lcm(*[c.denominator for cj in P.xcoeffs for c in cj.coeffs])
    d = max(P.degree_t, 0)
    N = [sum(c * L * a**i * b ** (d - i) for i, c in enumerate(cj.coeffs)) for cj in P.xcoeffs]
    while N and N[-1] == 0:
        N.pop()
    return N, L * b**d


@settings(max_examples=300, deadline=None)
@given(
    P=_sparse_bipolys(),
    t=st.one_of(
        st.integers(-30, 30),
        st.fractions(min_value=-50, max_value=50, max_denominator=30),
        st.sampled_from([0, Fraction(0), -1, Fraction(-7, 3)]),
    ),
)
@example(P=parse_poly("X^2 - 3*(T^6-1)"), t=Fraction(-7, 3))
@example(P=parse_poly("X^6 + T^6 - 1"), t=-2)
@example(P=parse_poly("1/2*T^18*X^4 + 3/5*X + T^9"), t=Fraction(4, 9))
@example(P=parse_poly("(T - 2)*X^3 + T^18"), t=2)  # the leading coefficient dies
@example(P=BiPoly(), t=Fraction(5, 7))
@example(P=parse_poly("(T+1)^18*X^2 + 1/7*(2*T-3)^18*X - 1/5*(T^2+T+1)^9"), t=Fraction(-5, 4))  # dense rows
def test_specialize_returns_the_dense_pair_on_sparse_rows(P, t):
    """The sparse index reproduces the dense homogeneous pair exactly, as a
    pair and not only as a value: same numerators, same unreduced
    denominator L * b^d."""
    got = P.specialize(t)
    assert (got._ints, got._den) == _dense_specialization(P, t)
    assert got == specialize_by_horner(P, t)


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
    assert lazy.primitive() == eager.primitive()
    assert lazy == eager and eager == lazy
    assert hash(lazy) == hash(eager)
    copy = pickle.loads(pickle.dumps(lazy))
    assert copy == eager and copy.degree == eager.degree and hash(copy) == hash(eager)
    assert lazy.coeffs == eager.coeffs


def test_from_ints_answers_degree_without_fractions(monkeypatch):
    f = UniPoly.from_ints([3, 0, -6, 0, 0], 9)
    monkeypatch.setattr(UniPoly, "coeffs", property(lambda self: pytest.fail("coeffs read")))
    assert f.degree == 2 and not f.is_zero() and f
    assert f.primitive() == [-1, 0, 2] and f.ints_den() == ([1, 0, -2], 3)
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


def _bipoly_to_sympy(P: BiPoly):
    sympy = pytest.importorskip("sympy")
    T, X = sympy.symbols("T X")
    terms = [(c, i, j) for j, cj in enumerate(P.xcoeffs) for i, c in enumerate(cj.coeffs) if c]
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator) * T**i * X**j for c, i, j in terms])


@settings(max_examples=100, deadline=None)
@given(P=_sparse_bipolys(), Q=_sparse_bipolys(), c=_fractions)
@example(P=parse_poly("X^2 - T"), Q=parse_poly("T - X^2"), c=Fraction(0))  # the sum dies
def test_bipoly_ring_operations_match_sympy(P, Q, c):
    """``BiPoly`` +, -, * (by a BiPoly, a UniPoly and a scalar) and
    derivative_x, all on the integer core, against sympy.expand and
    sympy.diff."""
    sympy = pytest.importorskip("sympy")
    p, q = _bipoly_to_sympy(P), _bipoly_to_sympy(Q)
    X = sympy.Symbol("X")
    cases = [
        (P + Q, p + q),
        (P - Q, p - q),
        (P * Q, p * q),
        (P * Q.coeff(0), p * q.subs(X, 0)),
        (P * c, p * sympy.Rational(c.numerator, c.denominator)),
        (P.derivative_x(), sympy.diff(p, X)),
    ]
    for ours, theirs in cases:
        assert sympy.expand(_bipoly_to_sympy(ours) - theirs) == 0, (P, Q)
        # T-coefficients are UniPoly elements, and the leading one is nonzero
        assert all(isinstance(cj, UniPoly) for cj in ours.xcoeffs) and all(ours.xcoeffs[-1:]), ours


# -- the integer pair against sympy over QQ -----------------------------------

_pairs = st.builds(
    UniPoly.from_ints,
    st.lists(st.integers(-30, 30), max_size=6),
    st.integers(-12, 12).filter(bool),
)


def _to_sympy(f: UniPoly):
    sympy = pytest.importorskip("sympy")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
    return sympy.Poly(coeffs or [0], sympy.Symbol("x"), domain="QQ")


def _same(f: UniPoly, p) -> bool:
    return _to_sympy(f) == p


@settings(max_examples=200, deadline=None)
@given(f=_pairs, g=_pairs, scale=st.integers(-5, 5).filter(bool), x=_fractions)
def test_integer_arithmetic_matches_sympy(f, g, scale, x):
    """Unreduced (ints, den) pairs in, the field arithmetic of sympy's QQ out."""
    sympy = pytest.importorskip("sympy")
    F, G = _to_sympy(f), _to_sympy(g)
    assert _same(f + g, F + G) and _same(f - g, F - G) and _same(f * g, F * G)
    assert _same(f.derivative(), F.diff()) and _same(f.compose(g), F.compose(G))
    assert f(x) == Fraction(str(F.eval(sympy.Rational(x.numerator, x.denominator))))
    if not g.is_zero():
        q, r = f.divmod(g)
        Q, R = F.div(G)
        assert _same(q, Q) and _same(r, R)
    assert _same(uni_gcd(f, g), F.gcd(G))
    if not f.is_zero():
        assert _same(squarefree_part(f), F.sqf_part().monic())
    if not f.is_zero() and not g.is_zero():
        # sympy's resultant matches the Sylvester determinant when deg F >= deg G
        m, n = f.degree, g.degree
        want = F.resultant(G) if m >= n else (-1) ** (m * n) * G.resultant(F)
        assert resultant(f, g) == Fraction(str(want))
    # a value, whatever its pair: equal polynomials compare and hash equal
    ints, den = f.ints_den()
    twin = UniPoly.from_ints([v * scale for v in ints], den * scale)
    assert twin == f and f == twin and hash(twin) == hash(f) == hash(UniPoly(f.coeffs))
