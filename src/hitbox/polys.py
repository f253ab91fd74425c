"""Dense exact polynomial algebra over Q and Q[T].

``UniPoly`` is a univariate polynomial with Fraction coefficients; ``BiPoly``
stores an element of Q[T][X] as a tuple of T-polynomials indexed by the power
of X.

Specialization stays in integers.  On first use a ``BiPoly`` caches its
homogenized integer form: rows C[j][i] with L * P = sum C[j][i] T^i X^j for
a common denominator L, and its T-degree d.  Then b^d * L * P(a/b, X) has
the integer X-coefficients N_j = sum_i C[j][i] a^i b^(d-i), and
``BiPoly.specialize`` returns ``UniPoly.from_ints(N, L * b^d)``: a
polynomial backed by those integers, which answers its degree and its
primitive integer form from them and builds the Fraction tuple ``coeffs``
only when something reads it.

Resultants run a subresultant pseudo-remainder sequence that works both
over the integers (scalar case, after clearing denominators) and over Q[T]
(bivariate case), which keeps coefficient growth under control for the
degree-30 discriminants this package meets.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, ParseError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _trim(coeffs: list) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class UniPoly:
    """Univariate polynomial over Q, coefficient i belongs to X^i.

    A polynomial built by ``from_ints`` holds integers N_i and a denominator
    D with coefficient i equal to N_i/D; its Fraction tuple ``coeffs`` is
    built the first time something reads it.
    """

    __slots__ = ("_coeffs", "_ints", "_den")

    def __init__(self, coeffs: Iterable = ()):
        self._coeffs = _trim([Fraction(c) for c in coeffs])
        self._ints = None

    @staticmethod
    def from_ints(ints: Sequence[int], den: int) -> "UniPoly":
        """The polynomial with coefficients ints[i]/den; den is nonzero."""
        f = UniPoly.__new__(UniPoly)
        f._coeffs = None
        f._ints = _trim(ints)
        f._den = den
        return f

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            den = self._den
            self._coeffs = tuple(Fraction(v, den) for v in self._ints)
        return self._coeffs

    @staticmethod
    def constant(c) -> "UniPoly":
        return UniPoly([Fraction(c)])

    @staticmethod
    def gen() -> "UniPoly":
        return UniPoly([0, 1])

    @property
    def degree(self) -> int:
        return len(self._coeffs if self._ints is None else self._ints) - 1

    def is_zero(self) -> bool:
        return not (self._coeffs if self._ints is None else self._ints)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def lc(self) -> Fraction:
        if not self.coeffs:
            return _ZERO
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return _ZERO

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly.constant(other)
        return None

    def __add__(self, other) -> "UniPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "UniPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "UniPoly":
        return -(self - other)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise DomainError("negative polynomial power")
        result = UniPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise DomainError("division by the zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly(), self
        quo = [_ZERO] * (dq + 1)
        inv = 1 / other.lc()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return UniPoly(quo), UniPoly(rem[: other.degree])

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise DomainError("inexact polynomial division")
        return q

    def __call__(self, x):
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self * (1 / self.lc())

    def compose(self, inner: "UniPoly") -> "UniPoly":
        acc = UniPoly()
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def shift(self, c) -> "UniPoly":
        """f(X + c)."""
        return self.compose(UniPoly([Fraction(c), _ONE]))

    def primitive_int(self) -> tuple[list[int], Fraction]:
        """Primitive integer coefficients F and content c with self = c*F."""
        if self._ints is None:
            den = math.lcm(*[c.denominator for c in self._coeffs])
            ints = [c.numerator * (den // c.denominator) for c in self._coeffs]
        else:
            ints, den = self._ints, self._den
        if not ints:
            return [], _ZERO
        g = math.gcd(*ints)
        if ints[-1] < 0:
            g = -g
        return [v // g for v in ints], Fraction(g, den)

    def __repr__(self):
        return f"UniPoly({poly_str(self)})"


def uni_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd over Q; uni_gcd(f, 0) is monic(f)."""
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def squarefree_part(f: UniPoly) -> UniPoly:
    """f / gcd(f, f'), made monic."""
    if f.is_zero():
        raise DomainError("squarefree part of the zero polynomial")
    if f.degree == 0:
        return UniPoly.constant(1)
    return f.exact_div(uni_gcd(f, f.derivative()) * f.lc()).monic()


# -- generic subresultant PRS -------------------------------------------------
#
# Entries of the dense lists are either ints or UniPoly (the coefficients of
# Q[T]); both support ring arithmetic and exact division.


def _exact(a, b):
    if isinstance(a, UniPoly) or isinstance(b, UniPoly):
        if not isinstance(a, UniPoly):
            a = UniPoly.constant(a)
        if not isinstance(b, UniPoly):
            b = UniPoly.constant(b)
        return a.exact_div(b)
    q, r = divmod(a, b)
    if r:
        raise DomainError("inexact integer division")
    return q


def _list_trim(L: list) -> list:
    while L and not L[-1]:
        L.pop()
    return L


def _pseudo_rem(A: list, B: list) -> list:
    """R with lc(B)^(deg A - deg B + 1) * A = Q*B + R, deg R < deg B."""
    dB = len(B) - 1
    b = B[-1]
    R = list(A)
    e = len(A) - len(B) + 1
    while len(R) > dB:
        lead = R[-1]
        R = [b * c for c in R[:-1]]
        for j in range(dB):
            R[len(R) - dB + j] -= lead * B[j]
        _list_trim(R)
        e -= 1
    for _ in range(e):
        R = [b * c for c in R]
    return R


def _prs_resultant(A: list, B: list):
    """Resultant of two nonzero dense polynomials over an exact domain."""
    zero = A[-1] - A[-1]
    one = zero + 1
    negate = False
    if len(A) < len(B):
        A, B = B, A
        if (len(A) - 1) % 2 and (len(B) - 1) % 2:
            negate = True
    if len(A) == 1:
        return -one if negate else one  # two constants: empty determinant
    if len(B) == 1:
        r = one * B[0] ** (len(A) - 1)
        return -r if negate else r
    g = h = 1
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if dA % 2 and dB % 2:
            negate = not negate
        R = _pseudo_rem(A, B)
        if not R:
            return zero
        A = B
        B = [_exact(c, g * h**delta) for c in R]
        g = A[-1]
        h = _exact(g**delta, h ** (delta - 1)) if delta > 0 else h
        if len(B) == 1:
            dA = len(A) - 1
            res = _exact(one * B[0] ** dA, h ** (dA - 1)) if dA > 1 else one * B[0]
            return -res if negate else res


def resultant(f: UniPoly, g: UniPoly) -> Fraction:
    """Resultant over Q, equal to the Sylvester determinant of f and g."""
    if f.is_zero() or g.is_zero():
        raise DomainError("resultant of the zero polynomial")
    F, cf = f.primitive_int()
    G, cg = g.primitive_int()
    r = _prs_resultant(F, G)
    return cf**g.degree * cg**f.degree * Fraction(r)


def discriminant_uni(f: UniPoly) -> Fraction:
    """(-1)^(n(n-1)/2) Res(f, f') / lc(f)."""
    n = f.degree
    if n < 1:
        raise DomainError("discriminant needs degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    if f.derivative().is_zero():
        return _ZERO
    return sign * resultant(f, f.derivative()) / f.lc()


# -- bivariate polynomials ----------------------------------------------------


class BiPoly:
    """Element of Q[T][X]; xcoeffs[j] is the T-polynomial on X^j."""

    __slots__ = ("xcoeffs", "_int_form")

    def __init__(self, xcoeffs: Iterable[UniPoly] = ()):
        coeffs = [c if isinstance(c, UniPoly) else UniPoly.constant(c) for c in xcoeffs]
        n = len(coeffs)
        while n and coeffs[n - 1].is_zero():
            n -= 1
        self.xcoeffs = tuple(coeffs[:n])
        self._int_form = None

    @staticmethod
    def constant(c) -> "BiPoly":
        return BiPoly([UniPoly.constant(c)])

    @staticmethod
    def var_x() -> "BiPoly":
        return BiPoly([UniPoly(), UniPoly.constant(1)])

    @staticmethod
    def var_t() -> "BiPoly":
        return BiPoly([UniPoly.gen()])

    @staticmethod
    def from_unipoly_x(f: UniPoly) -> "BiPoly":
        return BiPoly([UniPoly.constant(c) for c in f.coeffs])

    @staticmethod
    def from_unipoly_t(f: UniPoly) -> "BiPoly":
        return BiPoly([f])

    @property
    def degree_x(self) -> int:
        return len(self.xcoeffs) - 1

    @property
    def degree_t(self) -> int:
        return max((c.degree for c in self.xcoeffs), default=-1)

    def is_zero(self) -> bool:
        return not self.xcoeffs

    def __bool__(self) -> bool:
        return bool(self.xcoeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, BiPoly):
            return self.xcoeffs == other.xcoeffs
        if isinstance(other, (int, Fraction)):
            return self == BiPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.xcoeffs)

    def coeff(self, j: int) -> UniPoly:
        if 0 <= j < len(self.xcoeffs):
            return self.xcoeffs[j]
        return UniPoly()

    def __neg__(self) -> "BiPoly":
        return BiPoly([-c for c in self.xcoeffs])

    def _coerce(self, other):
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BiPoly.constant(other)
        if isinstance(other, UniPoly):
            return BiPoly([other])
        return None

    def __add__(self, other) -> "BiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.xcoeffs, other.xcoeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = out[j] + c
        return BiPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "BiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "BiPoly":
        return -(self - other)

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction, UniPoly)):
            o = other if isinstance(other, UniPoly) else UniPoly.constant(other)
            return BiPoly([c * o for c in self.xcoeffs])
        if not isinstance(other, BiPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return BiPoly()
        out = [UniPoly() for _ in range(len(self.xcoeffs) + len(other.xcoeffs) - 1)]
        for i, a in enumerate(self.xcoeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.xcoeffs):
                out[i + j] = out[i + j] + a * b
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise DomainError("negative polynomial power")
        result = BiPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def specialize(self, t) -> UniPoly:
        """P(t, X); the X-degree may drop if the leading coefficient dies.

        Computed from the cached homogenized integer form (see the module
        docstring): the weights a^i b^(d-i) for t = a/b are shared by every
        row.
        """
        if self._int_form is None:
            den = math.lcm(*[c.denominator for cj in self.xcoeffs for c in cj.coeffs])
            rows = [[c.numerator * (den // c.denominator) for c in cj.coeffs] for cj in self.xcoeffs]
            self._int_form = (rows, den, max(self.degree_t, 0))
        rows, den, d = self._int_form
        if not isinstance(t, Fraction):
            t = Fraction(t)
        a, b = t.numerator, t.denominator
        w = [b**d]  # w[i] = a^i * b^(d-i)
        for _ in range(d):
            w.append(w[-1] // b * a)
        return UniPoly.from_ints([sum(map(operator.mul, row, w)) for row in rows], den * w[0])

    def eval(self, t, x) -> Fraction:
        return self.specialize(t)(Fraction(x))

    def derivative_x(self) -> "BiPoly":
        return BiPoly([c * j for j, c in enumerate(self.xcoeffs)][1:])

    def as_unipoly_x(self) -> UniPoly:
        """View as a polynomial in X alone; requires T-degree 0."""
        if self.degree_t > 0:
            raise DomainError("polynomial involves T")
        return UniPoly([c[0] for c in self.xcoeffs])

    def as_unipoly_t(self) -> UniPoly:
        """View as a polynomial in T alone; requires X-degree <= 0."""
        if self.degree_x > 0:
            raise DomainError("polynomial involves X")
        return self.coeff(0)

    def is_monic_in_x(self) -> bool:
        return bool(self.xcoeffs) and self.xcoeffs[-1] == UniPoly.constant(1)

    def __repr__(self):
        return f"BiPoly({bipoly_str(self)})"


def leading_coeff_in_x(P: BiPoly) -> UniPoly:
    if P.is_zero():
        raise DomainError("zero polynomial has no leading coefficient")
    return P.xcoeffs[-1]


def resultant_in_x(P: BiPoly, Q: BiPoly) -> UniPoly:
    """Res_X(P, Q) as an element of Q[T], by the subresultant PRS."""
    if P.is_zero() or Q.is_zero():
        raise DomainError("resultant of the zero polynomial")
    if P.degree_x == 0 and Q.degree_x == 0:
        return UniPoly.constant(1)
    r = _prs_resultant(list(P.xcoeffs), list(Q.xcoeffs))
    return r if isinstance(r, UniPoly) else UniPoly.constant(r)


def discriminant_in_x(P: BiPoly) -> UniPoly:
    """Discriminant of P in X, a polynomial in T.

    Specializes correctly wherever the leading coefficient survives: for all
    t with l(t) != 0 this equals discriminant_uni(P(t, X)).
    """
    n = P.degree_x
    if n < 1:
        raise DomainError("discriminant needs X-degree >= 1")
    dP = P.derivative_x()
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    if dP.is_zero():
        return UniPoly()
    R = resultant_in_x(P, dP)
    return (R * sign).exact_div(leading_coeff_in_x(P))


def compose_rational(
    P: BiPoly,
    t_num: UniPoly,
    t_den: UniPoly,
    x_num: UniPoly,
    x_den: UniPoly,
    clear_t: int | None = None,
    clear_x: int | None = None,
) -> UniPoly:
    """Numerator of P(t_num/t_den, x_num/x_den) after clearing denominators.

    The result is t_den^clear_t * x_den^clear_x * P(...), a polynomial in the
    parameter variable; it vanishes identically iff P does along the map.
    """
    I = P.degree_t if clear_t is None else clear_t
    J = P.degree_x if clear_x is None else clear_x
    if I < P.degree_t or J < P.degree_x:
        raise DomainError("clearing exponents too small")
    total = UniPoly()
    for j, cj in enumerate(P.xcoeffs):
        # cj(T) cleared by t_den^I
        tpart = UniPoly()
        for i, a in enumerate(cj.coeffs):
            if a:
                tpart = tpart + a * t_num**i * t_den ** (I - i)
        if tpart.is_zero():
            continue
        total = total + tpart * x_num**j * x_den ** (J - j)
    return total


# -- text grammar -------------------------------------------------------------
#
#   expr   := ['+'|'-'] term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := ['-'] atom ['^' INT]
#   atom   := INT ['/' INT] | 'T' | 'X' | '(' expr ')'


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def atom(self) -> BiPoly:
        ch = self.peek()
        if ch.isdigit():
            num = self.integer()
            if self.peek() == "/":
                self.take()
                den = self.integer()
                if den == 0:
                    self.error("zero denominator in literal")
                return BiPoly.constant(Fraction(num, den))
            return BiPoly.constant(num)
        if ch in ("T", "t"):
            self.take()
            return BiPoly.var_t()
        if ch in ("X", "x"):
            self.take()
            return BiPoly.var_x()
        if ch == "(":
            self.take()
            value = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return value
        self.error("expected a number, variable, or '('")

    def factor(self) -> BiPoly:
        if self.peek() == "-":
            self.take()
            return -self.factor()
        value = self.atom()
        if self.peek() == "^":
            self.take()
            value = value ** self.integer()
        return value

    def term(self) -> BiPoly:
        value = self.factor()
        while self.peek() == "*":
            self.take()
            value = value * self.factor()
        return value

    def expr(self) -> BiPoly:
        ch = self.peek()
        negate = False
        if ch in ("+", "-"):
            self.take()
            negate = ch == "-"
        value = self.term()
        if negate:
            value = -value
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value - rhs if op == "-" else value + rhs
        return value

    def parse(self) -> BiPoly:
        value = self.expr()
        if self.peek():
            self.error("unexpected trailing input")
        return value


def parse_poly(text: str) -> BiPoly:
    """Parse the shared polynomial grammar into an element of Q[T][X]."""
    return _Parser(text).parse()


def parse_unipoly(text: str, var: str = "X") -> UniPoly:
    P = parse_poly(text)
    if var.upper() == "X":
        return P.as_unipoly_x()
    return P.as_unipoly_t()


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _term_str(c: Fraction, monomial: str) -> str:
    if not monomial:
        return _frac_str(c)
    if c == 1:
        return monomial
    if c == -1:
        return f"-{monomial}"
    return f"{_frac_str(c)}*{monomial}"


def poly_str(f: UniPoly, var: str = "X") -> str:
    if f.is_zero():
        return "0"
    parts = []
    for i in range(f.degree, -1, -1):
        c = f[i]
        if not c:
            continue
        mono = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
        parts.append(_term_str(c, mono))
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def bipoly_str(P: BiPoly) -> str:
    if P.is_zero():
        return "0"
    parts = []
    for j in range(P.degree_x, -1, -1):
        cj = P.coeff(j)
        if cj.is_zero():
            continue
        xmono = "" if j == 0 else ("X" if j == 1 else f"X^{j}")
        for i in range(cj.degree, -1, -1):
            c = cj[i]
            if not c:
                continue
            tmono = "" if i == 0 else ("T" if i == 1 else f"T^{i}")
            mono = "*".join(m for m in (tmono, xmono) if m)
            parts.append(_term_str(c, mono))
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out
