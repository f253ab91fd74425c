"""Plane-curve parametrizations, elliptic curve torsion, point searches.

Rational-map identities are checked by clearing denominators and comparing
polynomial normal forms; nothing here samples evaluation points to decide
an identity.  Rank-0 statements about the curves met by the case analysis
are out of scope: bounded searches corroborate them, they do not prove them.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .errors import DomainError
from .factorq import rational_roots
from .polys import BiPoly, UniPoly, compose_rational, parse_poly, uni_gcd
from .rationals import Value, divisors, height, rationals_up_to_height

MAZUR_TORSION_BOUND = 12  # largest possible torsion order over Q


class PlaneCurve(Value):
    """Affine plane curve f(T, X) = 0."""

    __slots__ = ("f",)
    _fields = __slots__

    def __init__(self, f: BiPoly):
        if f.is_zero():
            raise DomainError("the zero polynomial is not a curve")
        self.f = f

    @staticmethod
    def from_text(text: str) -> "PlaneCurve":
        return PlaneCurve(parse_poly(text))

    def contains(self, t, x) -> bool:
        return self.f.eval(Fraction(t), Fraction(x)) == 0


def _reduced(num: UniPoly, den: UniPoly) -> tuple[UniPoly, UniPoly]:
    if den.is_zero():
        raise DomainError("zero denominator in rational map")
    g = uni_gcd(num, den)
    if g.degree > 0:
        num, den = num.exact_div(g), den.exact_div(g)
    return num, den


class LineToCurveMap(NamedTuple):
    """V -> (t(V), x(V)); both components stored in lowest terms."""

    t_num: UniPoly
    t_den: UniPoly
    x_num: UniPoly
    x_den: UniPoly

    @staticmethod
    def from_fractions(t_num, t_den, x_num, x_den) -> "LineToCurveMap":
        tn, td = _reduced(t_num, t_den)
        xn, xd = _reduced(x_num, x_den)
        return LineToCurveMap(tn, td, xn, xd)


class CurveToLineMap(Value):
    """(t, x) -> value; a single bivariate rational function."""

    __slots__ = ("num", "den")
    _fields = __slots__

    def __init__(self, num: BiPoly, den: BiPoly):
        if den.is_zero():
            raise DomainError("zero denominator in rational map")
        self.num = num
        self.den = den


RationalMap = LineToCurveMap | CurveToLineMap


def eval_map(m: RationalMap, arg):
    """Evaluate a rational map; None where a denominator vanishes."""
    if isinstance(m, LineToCurveMap):
        v = Fraction(arg)
        dt, dx = m.t_den(v), m.x_den(v)
        if dt == 0 or dx == 0:
            return None
        return (m.t_num(v) / dt, m.x_num(v) / dx)
    t, x = arg
    d = m.den.eval(t, x)
    if d == 0:
        return None
    return m.num.eval(t, x) / d


def verify_parametrization(C: PlaneCurve, psi: LineToCurveMap, phi: CurveToLineMap) -> bool:
    """Exact check that psi lands on C and phi inverts it generically.

    Both conditions are polynomial identities after clearing denominators:
    f(psi(V)) == 0 and phi(psi(V)) == V as rational functions of V.
    """
    on_curve = compose_rational(C.f, psi.t_num, psi.t_den, psi.x_num, psi.x_den)
    if not on_curve.is_zero():
        return False
    clear_t = max(phi.num.degree_t, phi.den.degree_t)
    clear_x = max(phi.num.degree_x, phi.den.degree_x)
    num_v = compose_rational(
        phi.num, psi.t_num, psi.t_den, psi.x_num, psi.x_den, clear_t, clear_x
    )
    den_v = compose_rational(
        phi.den, psi.t_num, psi.t_den, psi.x_num, psi.x_den, clear_t, clear_x
    )
    if den_v.is_zero():
        return False
    return num_v == den_v * UniPoly.gen()


def bounded_point_search(C: PlaneCurve, height_bound: int) -> list[tuple[Fraction, Fraction]]:
    """All rational points (t, x) on C with height(t), height(x) <= bound.

    Sweeps t in canonical order and extracts the rational roots of f(t, X);
    fibers where f(t, X) vanishes identically (a vertical line inside C)
    are skipped, since they carry infinitely many points.
    """
    out: list[tuple[Fraction, Fraction]] = []
    for t in rationals_up_to_height(height_bound):
        ft = C.f.specialize(t)
        if ft.degree < 1:  # a vertical line inside C, or no point above t
            continue
        roots = rational_roots(ft)
        if not roots:  # most fibres: skip sorting an empty set
            continue
        for x in sorted(roots):
            if height(x) <= height_bound:
                out.append((t, x))
    return out


def pullback_fiber(
    phi: CurveToLineMap, value, C: PlaneCurve, search_height: int
) -> list[tuple[Fraction, Fraction]]:
    """Bounded rational points of the fiber of phi over value.

    The fiber is read scheme-theoretically: points where numerator and
    denominator both vanish (indeterminacy points of the expression) lie on
    every fiber and are included.
    """
    value = Fraction(value)
    out = []
    for (t, x) in bounded_point_search(C, search_height):
        if phi.num.eval(t, x) == value * phi.den.eval(t, x):
            out.append((t, x))
    return out


# -- known parametrizations of auxiliary curves ----------------------------------
#
# keyed by fixture name; values build (curve, psi, phi) for param-check runs.


def quartic_family_parametrization() -> tuple[PlaneCurve, LineToCurveMap, CurveToLineMap]:
    """The rational cubic auxiliary curve of the quartic family, with its
    inverse pair of maps: psi(V) = ((V^3-9V)/(9(1-V^2)), 8(V^2-5)/(1-V^2))
    and phi(T, X) = (X^2 - 1296 T^2 + 44 X + 160) / (144 T)."""
    V = UniPoly.gen()
    curve = PlaneCurve(
        parse_poly("X^3 + 48*X^2 + (-1296*T^2 + 336)*X - 10368*T^2 + 640")
    )
    psi = LineToCurveMap.from_fractions(
        V**3 - 9 * V, 9 * (1 - V**2), 8 * (V**2 - 5), 1 - V**2
    )
    phi = CurveToLineMap(
        num=parse_poly("X^2 - 1296*T^2 + 44*X + 160"), den=parse_poly("144*T")
    )
    return curve, psi, phi


PARAMETRIZATIONS = {"serre-a4": quartic_family_parametrization}


# -- the worked sextic family: case-reduction identities ------------------------

_SEXTIC_KERNEL = "((T-1)*(T+1)*(T^2-T+1)*(T^2+T+1))"

SEXTIC_AUX = {
    1: f"X^2 - 62208*{_SEXTIC_KERNEL}^3",
    2: f"X^2 + 1728*{_SEXTIC_KERNEL}^2",
    3: "X^2 + 12*X + 27 + 9*T^6",
    4: "X^3 + 12*X^2 + 48*X + 72 - 8*T^6",
}


def verify_case_identities() -> list[tuple[int, bool]]:
    """The four symbolic reductions behind the sextic case analysis.

    Each check rewrites an auxiliary polynomial through the substitution
    used in the corresponding case and compares exact normal forms:

      1. with v = X/(144 g):  (144 g)^2 (v^2 - 3g) == F1,   g = T^6 - 1
      2. with u = 24 g:       X^2 + 3 u^2            == F2
      3. with v = (X+6)/3, u = -T^2:  9 (v^2 - u^3 - 1) == F3
      4. with y = 4 T^3:      y^2 - 2(X^3+12X^2+48X+72) == -2 F4
    """
    g = parse_poly(_SEXTIC_KERNEL)
    X = BiPoly.var_x()
    T = BiPoly.var_t()
    F1 = parse_poly(SEXTIC_AUX[1])
    F2 = parse_poly(SEXTIC_AUX[2])
    F3 = parse_poly(SEXTIC_AUX[3])
    F4 = parse_poly(SEXTIC_AUX[4])
    results = []
    results.append((1, X * X - (144 * 144 * 3) * g**3 == F1))
    results.append((2, X * X + 3 * (24 * g) ** 2 == F2))
    v9 = (X + 6) ** 2  # (3v)^2
    u = -(T**2)
    results.append((3, v9 - 9 * (u**3 + 1) == F3))
    y = 4 * T**3
    cubic = X**3 + 12 * X**2 + 48 * X + 72
    results.append((4, y * y - 2 * cubic == -2 * F4))
    return results


# -- elliptic curves -------------------------------------------------------------


class CurvePoint(NamedTuple):
    """Affine point (x, y) or the point at infinity."""

    x: Fraction | None = None
    y: Fraction | None = None

    @staticmethod
    def infinity() -> "CurvePoint":
        return CurvePoint(None, None)

    @staticmethod
    def affine(x, y) -> "CurvePoint":
        return CurvePoint(Fraction(x), Fraction(y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __str__(self):
        return "infinity" if self.is_infinity else f"({self.x}, {self.y})"


class EllipticCurve(Value):
    """Short Weierstrass model y^2 = x^3 + a4 x + a6."""

    __slots__ = ("a4", "a6")
    _fields = __slots__

    def __init__(self, a4: Fraction = Fraction(0), a6: Fraction = Fraction(0)):
        self.a4 = a4
        self.a6 = a6
        if self.discriminant() == 0:
            raise DomainError("singular Weierstrass model")

    @staticmethod
    def short(A, B) -> "EllipticCurve":
        return EllipticCurve(a4=Fraction(A), a6=Fraction(B))

    def discriminant(self) -> Fraction:
        return -16 * (4 * self.a4**3 + 27 * self.a6**2)

    def contains(self, P: CurvePoint) -> bool:
        if P.is_infinity:
            return True
        return P.y * P.y == P.x**3 + self.a4 * P.x + self.a6


def ec_neg(E: EllipticCurve, P: CurvePoint) -> CurvePoint:
    if P.is_infinity:
        return P
    return CurvePoint(P.x, -P.y)


def ec_add(E: EllipticCurve, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """Chord-tangent addition with infinity as the identity."""
    for pt in (P, Q):
        if not E.contains(pt):
            raise DomainError(f"point {pt} is not on the curve")
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
    if x1 == x2 and y1 + y2 == 0:
        return CurvePoint.infinity()
    if x1 == x2:
        lam = (3 * x1 * x1 + E.a4) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return CurvePoint(x3, lam * (x1 - x3) - y1)


def ec_mul(E: EllipticCurve, P: CurvePoint, n: int) -> CurvePoint:
    if n < 0:
        return ec_mul(E, ec_neg(E, P), -n)
    acc = CurvePoint.infinity()
    for _ in range(n):
        acc = ec_add(E, acc, P)
    return acc


def point_order(E: EllipticCurve, P: CurvePoint) -> int | None:
    """Order of P if it is at most Mazur's torsion bound, else None."""
    acc = CurvePoint.infinity()
    for n in range(1, MAZUR_TORSION_BOUND + 1):
        acc = ec_add(E, acc, P)
        if acc.is_infinity:
            return n
    return None


def ec_torsion_lutz_nagell(E: EllipticCurve) -> list[CurvePoint]:
    """All torsion points of an integral short model y^2 = x^3 + Ax + B.

    Candidates are integral points with y = 0 or y^2 dividing 4A^3 + 27B^2;
    each is confirmed by exhibiting finite order within Mazur's bound.
    """
    if E.a4.denominator != 1 or E.a6.denominator != 1:
        raise DomainError("expect integral coefficients; transform first")
    A, B = int(E.a4), int(E.a6)
    K = abs(4 * A**3 + 27 * B * B)
    cubic = UniPoly([Fraction(B), Fraction(A), Fraction(0), Fraction(1)])
    candidates: set[tuple[Fraction, Fraction]] = set()
    for x in rational_roots(cubic):
        if x.denominator == 1:
            candidates.add((x, Fraction(0)))
    ys = [d for d in divisors(K) if K % (d * d) == 0] if K else []
    for y in ys:
        for x in rational_roots(cubic - y * y):
            if x.denominator == 1:
                candidates.add((x, Fraction(y)))
                candidates.add((x, Fraction(-y)))
    out = [CurvePoint.infinity()]
    for (x, y) in sorted(candidates):
        P = CurvePoint(x, y)
        if E.contains(P) and point_order(E, P) is not None:
            out.append(P)
    return out


class ModelMap(NamedTuple):
    """Affine change of coordinates (x, y) -> (sx * x + tx, sy * y)."""

    sx: Fraction
    tx: Fraction
    sy: Fraction

    def forward(self, P: CurvePoint) -> CurvePoint:
        if P.is_infinity:
            return P
        return CurvePoint(self.sx * P.x + self.tx, self.sy * P.y)

    def backward(self, P: CurvePoint) -> CurvePoint:
        if P.is_infinity:
            return P
        return CurvePoint((P.x - self.tx) / self.sx, P.y / self.sy)


def transform_scaled_model(c, cubic: UniPoly) -> tuple[EllipticCurve, ModelMap]:
    """Integral short Weierstrass model isomorphic to y^2 = c * cubic(x).

    cubic must be monic of degree 3 and c nonzero.  The map and its inverse
    are verified to compose to the identity on sample points.
    """
    c = Fraction(c)
    if c == 0:
        raise DomainError("scale factor must be nonzero")
    if cubic.degree != 3 or cubic.lc() != 1:
        raise DomainError("expect a monic cubic")
    d0, c1, b, _ = cubic.coeffs
    # medium model via (x, y) -> (c x, c y):  Y^2 = X^3 + bc X^2 + c1 c^2 X + d0 c^3
    A2, A4, A6 = b * c, c1 * c * c, d0 * c**3
    u = Fraction(1)
    if (
        A2.denominator != 1
        or A4.denominator != 1
        or A6.denominator != 1
        or int(A2) % 3
    ):
        import math as _math

        u = Fraction(3 * _math.lcm(A2.denominator, A4.denominator, A6.denominator))
    A2, A4, A6 = A2 * u * u, A4 * u**4, A6 * u**6
    s = A2 / 3  # shift killing the X^2 term, integral by choice of u
    A = A4 - 3 * s * s
    B = 2 * s**3 - A4 * s + A6
    E = EllipticCurve.short(A, B)
    maps = ModelMap(sx=c * u * u, tx=s, sy=c * u**3)
    for (x, y) in [(Fraction(1), Fraction(2)), (Fraction(-3, 2), Fraction(5, 7))]:
        P = CurvePoint(x, y)
        Q = maps.backward(maps.forward(P))
        if Q.x != P.x or Q.y != P.y:
            raise DomainError("model maps failed the inverse check")
    return E, maps
