"""Exact factorization over Q and over F_p, rational roots, cycle types.

The rational factorization is the classical Zassenhaus pipeline: Yun
squarefree decomposition, monic integer model, factorization modulo one
odd prime, quadratic multifactor Hensel lifting past the Landau-Mignotte
bound, then subset recombination (modular factor counts stay tiny at the
degrees this package handles).  The prime is the one with the fewest
modular factors among the first few usable odd primes, counted from their
distinct-degree splits; only that prime is factored completely.

Distinct-degree factorization (von zur Gathen & Gerhard, Modern Computer
Algebra, §14) raises x to p once per prime and then steps through the
degrees with the Frobenius matrix, one matrix-vector product per degree.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import DomainError
from .polys import UniPoly, squarefree_part, uni_gcd
from .rationals import as_prime, divisors, is_prime, is_square_int

# -- dense arithmetic mod p (ascending int lists) ------------------------------


def _gp_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _gp_neg(f, p):
    return [(-c) % p for c in f]


def _gp_add(f, g, p):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return _gp_trim(out)


def _gp_sub(f, g, p):
    return _gp_add(f, _gp_neg(g, p), p)


def _gp_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _gp_trim(out)


def _gp_mul_ground(f, c, p):
    c %= p
    return _gp_trim([a * c % p for a in f])


def _gp_monic(f, p):
    if not f:
        return []
    return _gp_mul_ground(f, pow(f[-1], p - 2, p), p)


def _gp_divmod(f, g, p):
    if not g:
        raise DomainError("division by zero mod p")
    inv = pow(g[-1], p - 2, p)
    rem = list(f)
    dq = len(rem) - len(g)
    if dq < 0:
        return [], _gp_trim(rem)
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + len(g) - 1] * inv % p
        quo[k] = c
        if c:
            for j, b in enumerate(g):
                rem[k + j] = (rem[k + j] - c * b) % p
    return _gp_trim(quo), _gp_trim(rem[: len(g) - 1])


def _gp_rem(f, g, p):
    return _gp_divmod(f, g, p)[1]


def _gp_gcd(f, g, p):
    while g:
        f, g = g, _gp_rem(f, g, p)
    return _gp_monic(f, p)


def _gp_gcdex(f, g, p):
    """(s, t, h) with s*f + t*g = h = monic gcd(f, g) mod p."""
    r0, r1 = list(f), list(g)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gp_sub(s0, _gp_mul(q, s1, p), p)
        t0, t1 = t1, _gp_sub(t0, _gp_mul(q, t1, p), p)
    if not r0:
        return [], [], []
    inv = pow(r0[-1], p - 2, p)
    return (
        _gp_mul_ground(s0, inv, p),
        _gp_mul_ground(t0, inv, p),
        _gp_monic(r0, p),
    )


def _gp_deriv(f, p):
    return _gp_trim([i * c % p for i, c in enumerate(f)][1:])


def _gp_pow_mod(f, n, mod, p):
    result = [1]
    base = _gp_rem(f, mod, p)
    while n:
        if n & 1:
            result = _gp_rem(_gp_mul(result, base, p), mod, p)
        base = _gp_rem(_gp_mul(base, base, p), mod, p)
        n >>= 1
    return result


def _gp_eval(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def _gp_sqf_list(f, p):
    """Squarefree decomposition mod p: [(monic factor, multiplicity)]."""
    out = []
    mult = 1
    f = _gp_monic(f, p)
    while len(f) > 1:
        d = _gp_deriv(f, p)
        if not d:
            # f is a polynomial in x^p: take p-th root (Frobenius)
            f = [pow(c, 1, p) if i % p == 0 else 0 for i, c in enumerate(f)]
            f = _gp_trim([f[i] for i in range(0, len(f), p)])
            mult *= p
            continue
        g = _gp_gcd(f, d, p)
        w = _gp_divmod(f, g, p)[0]
        i = 1
        while len(w) > 1:
            y = _gp_gcd(w, g, p)
            z = _gp_divmod(w, y, p)[0]
            if len(z) > 1:
                out.append((z, mult * i))
            w = y
            g = _gp_divmod(g, y, p)[0]
            i += 1
        f = g
    return out


def _gp_frobenius_rows(f, p):
    """Rows x^(i*p) mod f for i < deg f: the matrix of h -> h^p mod f."""
    xp = _gp_pow_mod([0, 1], p, f, p)
    rows = [[1]]
    for _ in range(len(f) - 2):
        rows.append(_gp_rem(_gp_mul(rows[-1], xp, p), f, p))
    return rows


def _gp_frobenius(h, rows, p):
    """h^p mod f = h(x^p) mod f = sum h_i * row_i, one matrix-vector product."""
    out = [0] * len(rows)
    for c, row in zip(h, rows):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return _gp_trim([v % p for v in out])


def _gp_ddf(f, p):
    """Distinct-degree split of a monic squarefree f: [(product, degree)].

    x^p mod f is computed once and gives the Frobenius rows x^(i*p) mod f;
    step d then raises h = x^(p^(d-1)) to x^(p^d) with one matrix-vector
    product, and gcd(h - x, f) is the product of the degree-d factors.
    When such a product splits off, h and the rows are reduced modulo the
    cofactor, which keeps them the Frobenius map of what is left.
    """
    out = []
    rows = _gp_frobenius_rows(f, p)
    h = [0, 1]
    x = [0, 1]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _gp_frobenius(h, rows, p)
        g = _gp_gcd(_gp_sub(h, x, p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = _gp_divmod(f, g, p)[0]
            h = _gp_rem(h, f, p)
            rows = [_gp_rem(r, f, p) for r in rows[: len(f) - 1]]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _edf_seed(f, p):
    s = p
    for c in f:
        s = (s * 1000003 + c) & 0xFFFFFFFF
    return s


def _gp_edf(f, d, p, rng):
    """Split monic squarefree f, all of whose factors have degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        a = _gp_trim(a)
        if len(a) < 2:
            continue
        if p == 2:
            # trace from F_{2^d} down to F_2: a + a^2 + ... + a^(2^(d-1))
            b = list(a)
            t = list(a)
            for _ in range(d - 1):
                t = _gp_rem(_gp_mul(t, t, p), f, p)
                b = _gp_add(b, t, p)
            g = _gp_gcd(b, f, p)
        else:
            b = _gp_pow_mod(a, (p**d - 1) // 2, f, p)
            g = _gp_gcd(_gp_sub(b, [1], p), f, p)
        if 1 < len(g) < len(f):
            return _gp_edf(g, d, p, rng) + _gp_edf(_gp_divmod(f, g, p)[0], d, p, rng)


def _gp_factor_sqf(f, p):
    """Irreducible factors of a monic squarefree f mod p, sorted."""
    rng = random.Random(_edf_seed(f, p))
    out = []
    for g, d in _gp_ddf(f, p):
        out.extend(_gp_edf(g, d, p, rng))
    return sorted(out, key=lambda h: (len(h), h))


def _coeffs_mod_p(coeffs, p: int) -> list[int]:
    """Integer or Fraction coefficients reduced mod p, trimmed."""
    out = []
    for c in coeffs:
        if c.denominator % p == 0:
            raise DomainError(f"prime {p} divides a coefficient denominator")
        out.append(c.numerator * pow(c.denominator, p - 2, p) % p)
    return _gp_trim(out)


@dataclass(frozen=True)
class ModFactorization:
    p: int
    unit: int
    factors: tuple[tuple[UniPoly, int], ...]


def factor_mod_p(f: UniPoly, p) -> ModFactorization:
    """Complete factorization of f mod p into monic irreducibles."""
    p = as_prime(p)
    fp = _coeffs_mod_p(f.coeffs, p)
    if not fp:
        raise DomainError("polynomial vanishes mod p")
    unit = fp[-1]
    out = []
    for g, mult in _gp_sqf_list(fp, p):
        for h in _gp_factor_sqf(g, p):
            out.append((UniPoly(h), mult))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs, fm[1]))
    return ModFactorization(p=p, unit=unit, factors=tuple(out))


def _usable_ddf(coeffs, p):
    """Distinct-degree split of f mod p, or None if p is unusable for f
    (as ``cycle_type_mod_p`` defines it); ``coeffs`` are f's ascending
    integer or Fraction coefficients."""
    try:
        fp = _coeffs_mod_p(coeffs, p)
    except DomainError:
        return None  # p divides a denominator
    if len(fp) != len(coeffs) or len(fp) < 2:
        return None  # the leading coefficient died, or f is constant
    d = _gp_deriv(fp, p)
    if not d or len(_gp_gcd(fp, d, p)) > 1:
        return None  # not squarefree mod p
    return _gp_ddf(_gp_monic(fp, p), p)


def cycle_type_mod_p(f: UniPoly, p) -> tuple[int, ...] | None:
    """Degrees of f mod p's irreducible factors, or None if p is unusable.

    Usable means: p divides neither the leading coefficient nor any
    denominator, and f stays squarefree mod p.
    """
    split = _usable_ddf(f.coeffs, as_prime(p))
    if split is None:
        return None
    degs: list[int] = []
    for g, d in split:
        degs.extend([d] * ((len(g) - 1) // d))  # squarefree: distinct factors
    return tuple(sorted(degs, reverse=True))


# -- Hensel lifting (monic integer polynomials, ascending int lists) -----------


def _z_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _z_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _z_trim(out)


def _z_add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return _z_trim(out)


def _z_sub(f, g):
    return _z_add(f, [-c for c in g])


def _z_trunc(f, m):
    half = m // 2
    return _z_trim([(c + half) % m - half for c in f])


def _z_divmod_monic(f, g, m):
    """Division by monic g in (Z/m)[x], symmetric representatives."""
    rem = list(f)
    dq = len(rem) - len(g)
    if dq < 0:
        return [], _z_trunc(rem, m)
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + len(g) - 1] % m
        quo[k] = c
        if c:
            for j, b in enumerate(g):
                rem[k + j] -= c * b
    return _z_trunc(quo, m), _z_trunc(rem[: len(g) - 1], m)


def _hensel_step(m, f, g, h, s, t):
    """Lift f = g*h (mod m), s*g + t*h = 1 (mod m) to modulus m^2; h monic."""
    M = m * m
    e = _z_trunc(_z_sub(f, _z_mul(g, h)), M)
    q, r = _z_divmod_monic(_z_mul(s, e), h, M)
    G = _z_trunc(_z_add(g, _z_add(_z_mul(t, e), _z_mul(q, g))), M)
    H = _z_trunc(_z_add(h, r), M)
    b = _z_trunc(_z_sub(_z_add(_z_mul(s, G), _z_mul(t, H)), [1]), M)
    c, d = _z_divmod_monic(_z_mul(s, b), H, M)
    S = _z_trunc(_z_sub(s, d), M)
    T = _z_trunc(_z_sub(t, _z_add(_z_mul(t, b), _z_mul(c, G))), M)
    return G, H, S, T


def _hensel_lift(p, f, factors, l):
    """Monic f in Z[x] with f = prod(factors) mod p, all monic and coprime
    mod p; returns monic lifts F_i with f = prod(F_i) mod p^l."""
    r = len(factors)
    if r == 1:
        return [_z_trunc(f, p**l)]
    k = r // 2
    d = max(1, math.ceil(math.log2(l)))
    g = [1]
    for fi in factors[:k]:
        g = _gp_mul(g, [c % p for c in fi], p)
    h = [1]
    for fi in factors[k:]:
        h = _gp_mul(h, [c % p for c in fi], p)
    s, t, one = _gp_gcdex(g, h, p)
    if one != [1]:
        raise DomainError("modular factors are not coprime")
    g, h = _z_trunc(g, p), _z_trunc(h, p)
    s, t = _z_trunc(s, p), _z_trunc(t, p)
    m = p
    for _ in range(d):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
        if m >= p**l:
            break
    return _hensel_lift(p, g, factors[:k], l) + _hensel_lift(p, h, factors[k:], l)


def _mignotte_bound(f: list[int]) -> int:
    """Upper bound on coefficients of any monic factor of monic f."""
    n = len(f) - 1
    a = max(abs(c) for c in f)
    s = math.isqrt(n + 1)
    if s * s < n + 1:
        s += 1
    return s * (1 << n) * a


# Usable primes _good_prime examines at most, when none keeps f irreducible.
_PRIME_SCAN = 5


def _good_prime(f: list[int]) -> tuple[int, list[list[int]]]:
    """An odd prime keeping monic f squarefree mod p, and f's factors mod p.

    The usable odd primes are examined in increasing order, at most
    ``_PRIME_SCAN`` of them, stopping at the first that leaves f
    irreducible.  Each prime's factor count comes from its distinct-degree
    split alone; the prime with the fewest factors wins (the smaller prime
    on a tie), and only the winner is factored completely.  The choice
    changes the cost of Zassenhaus, never its answer.
    """
    best_p, best_count = 0, 0
    tried = 0
    p = 3
    while tried < _PRIME_SCAN:
        if is_prime(p):
            split = _usable_ddf(f, p)
            if split is not None:
                tried += 1
                count = sum((len(g) - 1) // d for g, d in split)
                if not best_p or count < best_count:
                    best_p, best_count = p, count
                if count == 1:
                    break
        p += 2
    return best_p, _gp_factor_sqf([c % best_p for c in f], best_p)


def _zassenhaus_monic(f: list[int]) -> list[list[int]]:
    """Irreducible factors of a monic squarefree integer polynomial."""
    n = len(f) - 1
    if n == 1:
        return [f]
    p, modular = _good_prime(f)
    if len(modular) == 1:
        return [f]
    B = _mignotte_bound(f)
    l = 1
    while p**l <= 2 * B:
        l += 1
    lifted = _hensel_lift(p, f, modular, l)
    pl = p**l
    indices = list(range(len(lifted)))
    found = []
    rest = f
    s = 1
    while 2 * s <= len(indices):
        hit = False
        for combo in combinations(indices, s):
            # quick test on the constant coefficient
            c = 1
            for i in combo:
                c = c * lifted[i][0] % pl
            c = (c + pl // 2) % pl - pl // 2
            if c and rest[0] % c:
                continue
            G = [1]
            for i in combo:
                G = _z_trunc(_z_mul(G, lifted[i]), pl)
            q, r = _z_divmod_exact(rest, G)
            if r is None:
                continue
            found.append(G)
            rest = q
            indices = [i for i in indices if i not in combo]
            hit = True
            break
        if not hit:
            s += 1
    found.append(rest)
    return sorted(found, key=lambda h: (len(h), h))


def _z_divmod_exact(f, g):
    """Exact division in Z[x] by monic g, or (None, None) if inexact."""
    rem = list(f)
    dq = len(rem) - len(g)
    if dq < 0:
        return None, None
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + len(g) - 1]
        quo[k] = c
        if c:
            for j, b in enumerate(g):
                rem[k + j] -= c * b
    if any(rem[: len(g) - 1]):
        return None, None
    return quo, rem


# -- factorization over Q ------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor^mult) reconstructs the input exactly."""

    unit: Fraction
    factors: tuple[tuple[UniPoly, int], ...]

    def expand(self) -> UniPoly:
        out = UniPoly.constant(self.unit)
        for f, m in self.factors:
            out = out * f**m
        return out

    def type(self) -> tuple[int, ...]:
        degs: list[int] = []
        for f, m in self.factors:
            degs.extend([f.degree] * m)
        return tuple(sorted(degs))

    def is_irreducible(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1

    @property
    def degree(self) -> int:
        return sum(f.degree * m for f, m in self.factors)

    def radical(self) -> "Factorization":
        """The distinct monic factors, each once: the factorization of the
        squarefree part of the input."""
        return Factorization(unit=Fraction(1), factors=tuple((f, 1) for f, _ in self.factors))


def _yun_squarefree(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun decomposition of monic f over Q: [(squarefree monic, mult)]."""
    d = f.derivative()
    a = uni_gcd(f, d)
    if a.degree == 0:
        return [(f, 1)]
    b = f.exact_div(a).monic()
    c = d.exact_div(a)
    out = []
    i = 1
    dd = c - b.derivative()
    while b.degree > 0:
        a = uni_gcd(b, dd)
        if a.degree > 0:
            out.append((a, i))
        b = b.exact_div(a)
        c = dd.exact_div(a)
        dd = c - b.derivative()
        i += 1
    return out


def _monic_int_model(g: UniPoly) -> tuple[list[int], int]:
    """Monic integer F with F(y) = m^deg * g(y/m); roots scale by m."""
    m = math.lcm(*[c.denominator for c in g.coeffs])
    n = g.degree
    return [int(c * m ** (n - i)) for i, c in enumerate(g.coeffs)], m


def factor_over_Q(f: UniPoly) -> Factorization:
    """Complete factorization into monic irreducibles over Q."""
    if f.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    unit = f.lc()
    if f.degree == 0:
        return Factorization(unit=unit, factors=())
    fm = f.monic()
    out: list[tuple[UniPoly, int]] = []
    for piece, mult in _yun_squarefree(fm):
        F, m = _monic_int_model(piece)
        for h in _zassenhaus_monic(F):
            # undo y = m*x and renormalize monic
            g = UniPoly([Fraction(c) * m**i for i, c in enumerate(h)]).monic()
            out.append((g, mult))
    out.sort(key=lambda fm_: (fm_[0].degree, fm_[0].coeffs, fm_[1]))
    return Factorization(unit=unit, factors=tuple(out))


def factorization_type(f: UniPoly) -> tuple[int, ...]:
    """Multiset (sorted tuple) of irreducible factor degrees, with mult."""
    if f.is_zero() or f.degree < 1:
        raise DomainError("factorization type needs degree >= 1")
    return factor_over_Q(f).type()


def is_irreducible(f: UniPoly) -> bool:
    if f.is_zero() or f.degree < 1:
        return False
    return factor_over_Q(f).is_irreducible()


# -- rational roots ------------------------------------------------------------


def _quadratic_roots(c0: int, c1: int, c2: int) -> set[Fraction]:
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0 or not is_square_int(disc):
        return set()
    r = math.isqrt(disc)
    return {Fraction(-c1 + r, 2 * c2), Fraction(-c1 - r, 2 * c2)}


_PRESCREEN_PRIMES = (101, 103, 107)


def _has_root_mod(ints: list[int], ell: int) -> bool:
    """Root-existence test mod ell for the monicized integer model.

    A rational root of the primitive model gives an integer root of the
    monicized model, which survives reduction mod every prime; so a prime
    with no root certifies there is no rational root at all.
    """
    n = len(ints) - 1
    if ints[n] % ell == 0:
        return True  # monicization degenerates; stay conservative
    # monicized: y^n + sum c_i lc^(n-1-i) y^i, reduced mod ell
    g = [ints[i] * pow(ints[n], n - 1 - i, ell) % ell for i in range(n)] + [1]
    for y in range(ell):
        acc = 0
        for c in reversed(g):
            acc = (acc * y + c) % ell
        if acc == 0:
            return True
    return False


def rational_roots(f: UniPoly) -> set[Fraction]:
    """Exactly the rational roots of f (no multiplicities).

    Degrees 1 and 2 are solved in closed form with exact integer square
    roots (bounded curve searches hit quadratics whose constant terms are
    far too large to factor); higher degrees run the rational-root theorem
    on the primitive integer model after a mod-ell root prescreen, every
    candidate verified by exact evaluation.
    """
    if f.is_zero():
        raise DomainError("the zero polynomial has every root")
    if f.degree == 0:
        return set()
    ints, _ = f.primitive_int()
    roots: set[Fraction] = set()
    k = 0
    while ints[k] == 0:
        k += 1
    if k:
        roots.add(Fraction(0))
        ints = ints[k:]
    n = len(ints) - 1
    if n == 0:
        return roots
    if n == 1:
        roots.add(Fraction(-ints[0], ints[1]))
        return roots
    if n == 2:
        disc = ints[1] * ints[1] - 4 * ints[2] * ints[0]
        if disc == 0:
            roots.add(Fraction(-ints[1], 2 * ints[2]))
            return roots
        return roots | _quadratic_roots(ints[0], ints[1], ints[2])
    if not all(_has_root_mod(ints, ell) for ell in _PRESCREEN_PRIMES):
        return roots
    g = squarefree_part(f)
    ints, _ = g.primitive_int()
    while ints[0] == 0:
        ints = ints[1:]
    n = len(ints) - 1
    if n <= 2:
        return roots | {r for r in rational_roots(g) if f(r) == 0}
    s1 = sum(ints)
    s2 = sum(c if i % 2 == 0 else -c for i, c in enumerate(ints))
    for q in divisors(ints[n]):
        for pp in divisors(ints[0]):
            for num in (pp, -pp):
                if math.gcd(abs(num), q) != 1:
                    continue
                if s1 and (q - num) and s1 % (q - num):
                    continue
                if s2 and (q + num) and s2 % (q + num):
                    continue
                # exact evaluation of sum c_i num^i q^(n-i)
                val = 0
                for i, c in enumerate(ints):
                    val += c * num**i * q ** (n - i)
                if val == 0:
                    roots.add(Fraction(num, q))
    return {r for r in roots if f(r) == 0}
