"""Dense exact polynomial algebra over Q and Q[T].

``UniPoly`` is a univariate polynomial over Q with one integer state: a
list of integers N_i and a nonzero integer denominator D, coefficient i
being N_i/D.  Every ring operation runs on the integers and returns its
pair in lowest terms with D > 0; ``from_ints`` keeps the pair it is given,
and equality and hashing compare values, not pairs.  Fractions are built
only at the edges: parsing, ``coeffs``, ``lc`` and indexing for outside
readers, evaluation, printing and roots.

The helpers on dense ascending lists form the one integer core of the
package: ``_trim`` drops trailing zeros, ``_add``, ``_sub`` and ``_mul``
add, subtract and multiply, ``_deriv`` differentiates, ``_pseudo_divmod``
pseudo-divides and ``_primitive`` takes the primitive part.  Their entries
are ints or ``UniPoly`` elements of Q[T], so ``UniPoly`` runs them on its
integer numerators and ``BiPoly`` on its T-coefficients.  ``factorq``
works modulo m with the same helpers followed by one reduction mod m.  The
one pseudo-division serves ``UniPoly.divmod``, the primitive PRS behind
``uni_gcd``, the subresultant PRS behind the resultants, division mod m by
a monic multiple of the divisor, and Zassenhaus recombination.

``BiPoly`` stores an element of Q[T][X] as a tuple of T-polynomials indexed
by the power of X.  Specialization stays in integers.  On first use a
``BiPoly`` caches its homogenized integer form, built from its
coefficients' integer pairs: rows C[j][i] with L * P = sum C[j][i] T^i X^j
for a common denominator L, and its T-degree d.  Then b^d * L * P(a/b, X)
has the integer X-coefficients N_j = sum_i C[j][i] a^i b^(d-i), and
``BiPoly.specialize`` returns the pair (N, L * b^d) unreduced.

Most entries of those rows are zero: the row of X^2 - 3(T^6 - 1) holds 5
zeros in 7, and a Fermat sextic X^6 + ... has no X^1..X^5 rows at all.  So
the same cache holds a sparse index of the rows: for each nonzero row its
nonzero terms C[j][i], and the T-exponents i that any term uses.  For
t = a/b, ``specialize`` chains the weights a^i b^(d-i) over those
exponents only, from b^d up (a step of g divides by b^g and multiplies by
a^g, exactly), and sums only those terms, one row at a time.  Dense rows
(every exponent in use) cost what the dense formula costs.  Dropping zero
terms changes no sum, so the pair is exactly the dense formula's,
unreduced as before, and nothing that reads it (the root sieve,
``factor_over_Q``, the canonical digests) can tell the difference.

Resultants run a subresultant pseudo-remainder sequence that works both
over the integers (scalar case, on primitive parts) and over Q[T]
(bivariate case), which keeps coefficient growth under control for the
degree-30 discriminants this package meets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, ParseError

_ZERO = Fraction(0)


# -- the dense integer core ---------------------------------------------------
#
# Lists are ascending: entry i belongs to X^i.  Entries are ints, or
# ``UniPoly`` elements of Q[T] in ``BiPoly`` and the bivariate resultant.


def _trim(L: list) -> list:
    """Drop L's trailing zeros in place; returns L."""
    while L and not L[-1]:
        L.pop()
    return L


def _add(f: Sequence, g: Sequence) -> list:
    """f + g, trimmed."""
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return _trim(out)


def _sub(f: Sequence, g: Sequence) -> list:
    """f - g, trimmed."""
    out = list(f) + [0] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] -= c
    return _trim(out)


def _deriv(f: Sequence) -> list:
    """The derivative; trimmed when f is, since n * c != 0 for c != 0 in Z
    and Q[T]."""
    return [i * f[i] for i in range(1, len(f))]


def _mul(f: Sequence, g: Sequence) -> list:
    """The product of two trimmed lists."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _pseudo_divmod(A: list, B: list) -> tuple[list, list]:
    """Q and R with lc(B)^e * A = Q*B + R and deg R < deg B, where
    e = max(deg A - deg B + 1, 0); B is trimmed and nonzero, R comes back
    trimmed.  With lc(B) = 1 this is plain division."""
    b = B[-1]
    dB = len(B) - 1
    R = list(A)
    Q = []  # descending until the end
    for k in range(len(A) - len(B), -1, -1):
        lead = R.pop()
        if b != 1:
            R = [b * c for c in R]
            Q = [b * c for c in Q]
        Q.append(lead)
        if lead:
            for j in range(dB):
                R[k + j] -= lead * B[j]
    Q.reverse()
    return Q, _trim(R)


def _primitive(ints: Sequence[int]) -> list[int]:
    """The primitive part of a trimmed integer list, leading entry positive."""
    if not ints:
        return []
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [v // g for v in ints] if g != 1 else list(ints)


def _power(base, n: int, one):
    """base^n by repeated squaring."""
    if n < 0:
        raise DomainError("negative polynomial power")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:  # no square past the last bit, so no factor above base^n
            base = base * base
    return result


def _pair(ints: list, den: int) -> "UniPoly":
    """The UniPoly ints/den, taking ints (trimmed) as it is."""
    f = UniPoly.__new__(UniPoly)
    f._ints = ints
    f._den = den
    return f


def _lowest(ints: list, den: int) -> tuple[list, int]:
    """ints/den trimmed and in lowest terms, with a positive denominator."""
    _trim(ints)
    g = math.gcd(den, *ints)
    if den < 0:
        g = -g
    if g == 1:
        return ints, den
    return [v // g for v in ints], den // g


def _reduced(ints: list, den: int) -> "UniPoly":
    return _pair(*_lowest(ints, den))


class UniPoly:
    """Univariate polynomial over Q, coefficient i belongs to X^i.

    The state is the pair (ints, den): coefficient i is ints[i]/den, ints
    is trimmed and den is nonzero.
    """

    __slots__ = ("_ints", "_den")

    def __init__(self, coeffs: Iterable = ()):
        qs = [Fraction(c) for c in coeffs]
        den = math.lcm(*[q.denominator for q in qs])
        self._ints = _trim([q.numerator * (den // q.denominator) for q in qs])
        self._den = den

    @staticmethod
    def from_ints(ints: Sequence[int], den: int) -> "UniPoly":
        """The polynomial with coefficients ints[i]/den; den is nonzero.
        The pair is kept as given, not reduced."""
        return _pair(_trim(list(ints)), den)

    @property
    def coeffs(self) -> tuple:
        den = self._den
        return tuple(Fraction(v, den) for v in self._ints)

    def ints_den(self) -> tuple[list[int], int]:
        """(N, D) with coefficient i equal to N[i]/D, in lowest terms, D > 0."""
        return _lowest(list(self._ints), self._den)

    @staticmethod
    def constant(c) -> "UniPoly":
        c = Fraction(c)
        return _pair(_trim([c.numerator]), c.denominator)

    @staticmethod
    def gen() -> "UniPoly":
        return _pair([0, 1], 1)

    @property
    def degree(self) -> int:
        return len(self._ints) - 1

    def is_zero(self) -> bool:
        return not self._ints

    def __bool__(self) -> bool:
        return bool(self._ints)

    def lc(self) -> Fraction:
        return Fraction(self._ints[-1], self._den) if self._ints else _ZERO

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self._ints):
            return Fraction(self._ints[i], self._den)
        return _ZERO

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._ints, other._ints
        da, db = self._den, other._den
        if da == db or len(a) != len(b):
            return a == b
        return all(x * db == y * da for x, y in zip(a, b))

    def __hash__(self):
        ints, den = self.ints_den()
        return hash((tuple(ints), den))

    def __neg__(self) -> "UniPoly":
        return _pair([-v for v in self._ints], self._den)

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
        a, b = self._ints, other._ints
        den, db = self._den, other._den
        if den != db:
            a, b = [v * db for v in a], [v * den for v in b]
            den *= db
        return _reduced(_add(a, b), den)

    __radd__ = __add__

    def __sub__(self, other) -> "UniPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "UniPoly":
        return -(self - other)

    def __mul__(self, other) -> "UniPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _reduced(_mul(self._ints, other._ints), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        return _power(self, n, UniPoly.constant(1))

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """By pseudo-division: lc(G)^e * F = Q*G + R on the integers gives
        self = (Q * dg / s) * other + R / s with s = df * lc(G)^e."""
        if other.is_zero():
            raise DomainError("division by the zero polynomial")
        F, G = self._ints, other._ints
        e = len(F) - len(G) + 1
        if e <= 0:
            return UniPoly(), self
        Q, R = _pseudo_divmod(F, G)
        s = self._den * G[-1] ** e
        dg = other._den
        return _reduced([q * dg for q in Q], s), _reduced(R, s)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise DomainError("inexact polynomial division")
        return q

    def __call__(self, x) -> Fraction:
        """The value at a rational x = a/b, by homogeneous Horner."""
        x = Fraction(x)
        a, b = x.numerator, x.denominator
        acc, w = 0, 1
        for c in reversed(self._ints):
            acc = acc * a + c * w
            w *= b
        return Fraction(acc * b, self._den * w)

    def derivative(self) -> "UniPoly":
        return _reduced(_deriv(self._ints), self._den)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return _reduced(list(self._ints), self._ints[-1])

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """self(inner), by homogeneous Horner: with inner = I/d and n the
        degree, d^n * self(inner) = sum N_k I^k d^(n-k)."""
        if self.is_zero():
            return self
        I, d = inner._ints, inner._den
        acc: list[int] = []
        w = 1
        for c in reversed(self._ints):
            acc = _mul(acc, I) or [0]
            acc[0] += c * w
            w *= d
        return _reduced(acc, self._den * (w // d))

    def shift(self, c) -> "UniPoly":
        """f(X + c)."""
        return self.compose(UniPoly([c, 1]))

    def primitive(self) -> list[int]:
        """The primitive integer coefficients, leading one positive."""
        return _primitive(self._ints)

    def __repr__(self):
        return f"UniPoly({poly_str(self)})"


def uni_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd over Q, by the primitive PRS on the integer coefficients;
    uni_gcd(f, 0) is monic(f)."""
    A, B = _primitive(f._ints), _primitive(g._ints)
    while B:
        A, B = B, _primitive(_pseudo_divmod(A, B)[1])
    return _pair(A, A[-1]) if A else UniPoly()


def squarefree_part(f: UniPoly) -> UniPoly:
    """f / gcd(f, f'), made monic."""
    if f.is_zero():
        raise DomainError("squarefree part of the zero polynomial")
    if f.degree == 0:
        return UniPoly.constant(1)
    return f.exact_div(uni_gcd(f, f.derivative())).monic()


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
        R = _pseudo_divmod(A, B)[1]
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
    """Resultant over Q, equal to the Sylvester determinant of f and g.

    With f = (cf/df) F for F primitive, cf its integer content and df its
    denominator, Res(f, g) = (cf/df)^deg g (cg/dg)^deg f Res(F, G).
    """
    if f.is_zero() or g.is_zero():
        raise DomainError("resultant of the zero polynomial")
    F, G = f.primitive(), g.primitive()
    r = _prs_resultant(F, G)
    cf, cg = f._ints[-1] // F[-1], g._ints[-1] // G[-1]
    m, n = f.degree, g.degree
    return Fraction(cf**n * cg**m * r, f._den**n * g._den**m)


def _discriminant_ints(F: list[int]) -> int:
    """(-1)^(n(n-1)/2) Res(F, F') / lc(F) for a trimmed integer list F of
    degree n >= 1: the exact integer quotient of the integer resultant,
    in closed form for quadratics and cubics."""
    n = len(F) - 1
    if n == 2:
        c, b, a = F
        return b * b - 4 * a * c
    if n == 3:
        d, c, b, a = F
        return b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d
    d = _prs_resultant(F, _deriv(F)) // F[-1]
    return -d if (n * (n - 1) // 2) % 2 else d


def discriminant_uni(f: UniPoly) -> Fraction:
    """(-1)^(n(n-1)/2) Res(f, f') / lc(f).

    With f = c F for F primitive, disc(f) = c^(2n-2) disc(F), and disc(F)
    is the integer discriminant of F (``_discriminant_ints``).
    """
    n = f.degree
    if n < 1:
        raise DomainError("discriminant needs degree >= 1")
    F = f.primitive()
    c = f._ints[-1] // F[-1]
    return Fraction(c ** (2 * n - 2) * _discriminant_ints(F), f._den ** (2 * n - 2))


# -- bivariate polynomials ----------------------------------------------------


class BiPoly:
    """Element of Q[T][X]; xcoeffs[j] is the T-polynomial on X^j."""

    # _int_form: the homogenized integer form and its sparse index (``int_form``)
    __slots__ = ("xcoeffs", "_int_form")

    def __init__(self, xcoeffs: Iterable[UniPoly] = ()):
        coeffs = [c if isinstance(c, UniPoly) else UniPoly.constant(c) for c in xcoeffs]
        self.xcoeffs = tuple(_trim(coeffs))
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
        return BiPoly(_add(self.xcoeffs, other.xcoeffs))

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
        return BiPoly(_mul(self.xcoeffs, other.xcoeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        return _power(self, n, BiPoly.constant(1))

    def int_form(self) -> tuple[list[list[int]], int, int]:
        """The homogenized integer form (rows C, denominator L, T-degree d)
        of the module docstring, built on first use and cached with its
        sparse index: for each nonzero row j the pairs (k, C[j][i]) with
        C[j][i] != 0, where i is the k-th of the T-exponents in use (0
        always first), and the steps between consecutive exponents."""
        if self._int_form is None:
            den = math.lcm(*[cj._den for cj in self.xcoeffs])
            rows = [[v * (den // cj._den) for v in cj._ints] for cj in self.xcoeffs]
            used = sorted({0}.union(*[[i for i, c in enumerate(row) if c] for row in rows]))
            k_of = {i: k for k, i in enumerate(used)}
            terms = tuple((j, tuple((k_of[i], c) for i, c in enumerate(row) if c)) for j, row in enumerate(rows) if row)
            steps = tuple(i1 - i0 for i0, i1 in zip(used, used[1:]))
            self._int_form = (rows, den, max(self.degree_t, 0), terms, steps)
        return self._int_form[:3]

    def specialize(self, t) -> UniPoly:
        """P(t, X); the X-degree may drop if the leading coefficient dies.

        Computed from the sparse index of the integer form (``int_form``):
        for t = a/b the weight a^i b^(d-i) of each T-exponent in use,
        shared by every row, then each row's sum over its nonzero terms.
        """
        if self._int_form is None:
            self.int_form()
        rows, den, d, terms, steps = self._int_form
        if not isinstance(t, Fraction):
            t = Fraction(t)
        a, b = t.numerator, t.denominator
        w = [b**d]  # w[k] = a^i b^(d-i) for the k-th exponent i in use
        for g in steps:
            w.append(w[-1] // b**g * a**g)
        N = [0] * len(rows)
        for j, row in terms:
            s = 0
            for k, c in row:
                s += c * w[k]
            N[j] = s
        return _pair(_trim(N), den * w[0])

    def eval(self, t, x) -> Fraction:
        return self.specialize(t)(Fraction(x))

    def derivative_x(self) -> "BiPoly":
        return BiPoly(_deriv(self.xcoeffs))

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
#
# Caps on parsed text, so that a huge input fails with a ``ParseError``
# instead of hanging: the digits of an integer, and the X- and T-degree and
# the coefficient bits (``_bits``) of a product, a power or a sum, and the
# dense size (X-degree + 1) * (T-degree + 1) of a product or a power, whose
# cost grows with the square of it: ((X+1)*(T+1))^30, of 961 terms, parses
# in 0.03 s and ^40, of 1681, in 0.3 s.  A product or power is checked
# before it is computed.  The polynomials this package ships and tests use
# exponents up to 24, integers up to 19 digits and a dense size up to 133
# (X-degree 6, T-degree 18); a coefficient within _MAX_BITS has about 1230
# digits at most, which Python's int-to-string limit (4300 digits) still
# prints.
_MAX_DIGITS = 1000
_MAX_DEGREE = 100
_MAX_BITS = 4096
_MAX_TERMS = 1024


def _bits(P: BiPoly) -> int:
    """A bound on the size of P's coefficients: with P = C / L for integer
    C and L, the bits of L plus those of the sum of |C|.  Every numerator
    and denominator of P fits in it, and it is subadditive: the bound of a
    product is at most the sum of its factors' bounds."""
    L = math.lcm(*[c._den for c in P.xcoeffs])
    norm = sum(L // c._den * sum(map(abs, c._ints)) for c in P.xcoeffs)
    return L.bit_length() + norm.bit_length()


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
        if self.pos - start > _MAX_DIGITS:
            raise ParseError(f"an integer of {self.pos - start} digits; at most {_MAX_DIGITS}", start)
        return int(self.text[start : self.pos])

    def check(self, deg_x: int, deg_t: int, bits: int):
        """Refuse a value of these degrees and coefficient bits (``_bits``)
        when it would pass a cap."""
        if max(deg_x, deg_t) > _MAX_DEGREE:
            self.error(f"degree {max(deg_x, deg_t)} is above {_MAX_DEGREE}")
        if bits > _MAX_BITS:
            self.error(f"coefficients of up to {bits} bits; at most {_MAX_BITS}")

    def check_product(self, deg_x: int, deg_t: int, bits: int):
        """``check`` a product or a power, and refuse one whose dense size
        would pass ``_MAX_TERMS``."""
        self.check(deg_x, deg_t, bits)
        terms = (deg_x + 1) * (deg_t + 1)
        if terms > _MAX_TERMS:
            self.error(f"a product of dense size {terms} (X-degree {deg_x}, T-degree {deg_t}); at most {_MAX_TERMS}")

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
            n = self.integer()
            self.check_product(value.degree_x * n, value.degree_t * n, _bits(value) * n)
            value = value**n
        return value

    def term(self) -> BiPoly:
        value = self.factor()
        while self.peek() == "*":
            self.take()
            rhs = self.factor()
            self.check_product(value.degree_x + rhs.degree_x, value.degree_t + rhs.degree_t, _bits(value) + _bits(rhs))
            value = value * rhs
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
        self.check(value.degree_x, value.degree_t, _bits(value))
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


def parse_number(text: str, kind=Fraction):
    """A number written as text, as ``kind`` (``Fraction`` or ``int``);
    ``ParseError`` if the text is not one.  As in the polynomial grammar,
    exponent notation and literals of more than ``_MAX_DIGITS`` digits are
    refused before any number is built: ``Fraction("1e30000")`` alone
    takes seconds."""
    what = "an integer" if kind is int else "a rational number"
    digits = max(sum(c.isdigit() for c in part) for part in text.split("/"))
    if "e" in text.lower() or digits > _MAX_DIGITS:
        raise ParseError(f"not {what} of at most {_MAX_DIGITS} digits without an exponent")
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not {what}: {text!r}") from None


def _term_str(c: Fraction, monomial: str) -> str:
    if not monomial:
        return str(c)
    if c == 1:
        return monomial
    if c == -1:
        return f"-{monomial}"
    return f"{c}*{monomial}"


def _power_str(var: str, i: int) -> str:
    return "" if i == 0 else (var if i == 1 else f"{var}^{i}")


def _join_terms(parts: list[str]) -> str:
    out = parts[0] if parts else "0"
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def poly_str(f: UniPoly, var: str = "X") -> str:
    terms = reversed(list(enumerate(f.coeffs)))
    return _join_terms([_term_str(c, _power_str(var, i)) for i, c in terms if c])


def bipoly_str(P: BiPoly) -> str:
    parts = []
    for j in range(P.degree_x, -1, -1):
        xmono = _power_str("X", j)
        for i, c in reversed(list(enumerate(P.coeff(j).coeffs))):
            if c:
                mono = "*".join(m for m in (_power_str("T", i), xmono) if m)
                parts.append(_term_str(c, mono))
    return _join_terms(parts)
