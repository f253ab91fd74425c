"""Exact factorization over Q, rational roots, residue cycle types.

Everything modular runs on one dense core, the ``_gp_*`` helpers on
ascending integer lists: modulo a prime for factoring and root finding,
modulo prime powers for Hensel lifting.  The odd primes come from one
cached sieve (``rationals.odd_primes``).

The rational factorization is the classical Zassenhaus pipeline: Yun
squarefree decomposition, monic integer model, factorization modulo one
odd prime, quadratic multifactor Hensel lifting modulo m^2 past the
Landau-Mignotte bound, then subset recombination (modular factor counts
stay tiny at the degrees this package handles).  The prime is the one with
the fewest modular factors among the first few usable odd primes, counted
from their distinct-degree splits; only that prime is factored completely.

Distinct-degree factorization (von zur Gathen & Gerhard, Modern Computer
Algebra, §14) raises x to p once per prime and then steps through the
degrees with the Frobenius matrix, one matrix-vector product per degree.

Rational roots work on the primitive integer coefficients.  Degrees 1 and
2 have closed forms.  Higher degrees need no integer factoring: the roots
of the monic integer model F modulo a small odd prime p are found by
evaluating F at the p residues.  p is usable when each of them is a simple
root (F'(r) != 0 mod p); then each lifts uniquely by Newton's method, past
twice the Cauchy bound, and is kept only if it is an exact integer root of
F (ibid., §15).  Rejecting a prime costs at most p evaluations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice

from .errors import DomainError
from .polys import UniPoly, squarefree_part, uni_gcd
from .rationals import as_prime, is_square_int, odd_primes

# -- dense arithmetic mod p (ascending int lists) ------------------------------
#
# Inputs are reduced mod p.  Inverses are taken with pow(c, -1, p), so Hensel
# lifting runs the same helpers modulo a prime power, where it divides only
# by monic polynomials.


def _gp_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _gp_add(f, g, p):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return _gp_trim(out)


def _gp_sub(f, g, p):
    return _gp_add(f, [(-c) % p for c in g], p)


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
    return _gp_mul_ground(f, pow(f[-1], -1, p), p)


def _gp_divmod(f, g, p):
    if not g:
        raise DomainError("division by zero mod p")
    inv = pow(g[-1], -1, p)
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
    inv = pow(r0[-1], -1, p)
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


def _z_trunc(f, m):
    """Symmetric representatives mod m."""
    half = m // 2
    return _gp_trim([(c + half) % m - half for c in f])


def _hensel_step(m, f, g, h, s, t):
    """Lift f = g*h (mod m), s*g + t*h = 1 (mod m) to modulus m^2; h monic."""
    M = m * m
    e = _gp_sub([c % M for c in f], _gp_mul(g, h, M), M)
    q, r = _gp_divmod(_gp_mul(s, e, M), h, M)
    G = _gp_add(g, _gp_add(_gp_mul(t, e, M), _gp_mul(q, g, M), M), M)
    H = _gp_add(h, r, M)
    b = _gp_sub(_gp_add(_gp_mul(s, G, M), _gp_mul(t, H, M), M), [1], M)
    c, d = _gp_divmod(_gp_mul(s, b, M), H, M)
    S = _gp_sub(s, d, M)
    T = _gp_sub(t, _gp_add(_gp_mul(t, b, M), _gp_mul(c, G, M), M), M)
    return G, H, S, T


def _hensel_lift(p, f, factors, l):
    """Monic f in Z[x] with f = prod(factors) mod p, all monic and coprime
    mod p; returns monic lifts F_i, reduced mod p^l, with f = prod(F_i)
    mod p^l."""
    r = len(factors)
    if r == 1:
        return [_gp_trim([c % p**l for c in f])]
    k = r // 2
    d = max(1, math.ceil(math.log2(l)))
    g = [1]
    for fi in factors[:k]:
        g = _gp_mul(g, fi, p)
    h = [1]
    for fi in factors[k:]:
        h = _gp_mul(h, fi, p)
    s, t, one = _gp_gcdex(g, h, p)
    if one != [1]:
        raise DomainError("modular factors are not coprime")
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
    for p in odd_primes():
        split = _usable_ddf(f, p)
        if split is None:
            continue
        tried += 1
        count = sum((len(g) - 1) // d for g, d in split)
        if not best_p or count < best_count:
            best_p, best_count = p, count
        if count == 1 or tried == _PRIME_SCAN:
            break
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
                G = _gp_mul(G, lifted[i], pl)
            G = _z_trunc(G, pl)
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


def _monic_int_model(ints: list[int]) -> tuple[list[int], int]:
    """Monic integer F with F(y) = m^n * g(y/m) for g the monic multiple
    of sum ints[i] x^i, n its degree, and m the least common denominator
    of g's coefficients ints[i]/ints[n]; roots scale by m."""
    n = len(ints) - 1
    lead = ints[n]
    m = math.lcm(*[abs(lead) // math.gcd(c, lead) for c in ints])
    return [c * m ** (n - i) // lead for i, c in enumerate(ints)], m


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
        F, m = _monic_int_model(piece.primitive_int()[0])
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


def _simple_roots_mod(F: list[int], p: int) -> list[int] | None:
    """The roots of F in F_p, found by evaluation, or None if one of them
    is a multiple root (F'(r) = 0 mod p): then p is unusable."""
    Fp = [c % p for c in F]
    dFp = _gp_deriv(Fp, p)
    roots = []
    for r in range(p):
        if _gp_eval(Fp, r, p) == 0:
            if _gp_eval(dFp, r, p) == 0:
                return None
            roots.append(r)
    return roots


def _lifted_roots(ints: list[int]) -> set[Fraction]:
    """Rational roots of sum ints[i] x^i from the roots of its monic
    integer model F mod p.

    F has integer roots only, each a root mod every prime.  A prime is
    usable when every root of F in F_p is simple; each such root then lifts
    uniquely (Newton), and past twice the Cauchy bound 1 + max|F_i| its
    symmetric representative is the only integer root of F it can be; every
    candidate is checked exactly.  A repeated factor may make every prime
    unusable, so when none of the first ``_PRIME_SCAN`` odd primes is usable
    the squarefree part, usable at all but finitely many primes, takes over.
    """
    F, m = _monic_int_model(ints)
    for p in islice(odd_primes(), _PRIME_SCAN):
        residues = _simple_roots_mod(F, p)
        if residues is not None:
            break
    else:
        F, m = _monic_int_model(squarefree_part(UniPoly(ints)).primitive_int()[0])
        for p in odd_primes():
            residues = _simple_roots_mod(F, p)
            if residues is not None:
                break
    dF = [i * c for i, c in enumerate(F)][1:]
    bound = 2 * (1 + max(abs(c) for c in F))
    roots = set()
    for r in residues:
        q = p
        while q <= bound:
            q *= q
            r = (r - _gp_eval(F, r, q) * pow(_gp_eval(dF, r, q), -1, q)) % q
        y = r - q if 2 * r > q else r
        if sum(c * y**i for i, c in enumerate(F)) == 0:
            roots.add(Fraction(y, m))
    return roots


def rational_roots(f: UniPoly) -> set[Fraction]:
    """Exactly the rational roots of f (no multiplicities).

    Degrees 1 and 2 are solved in closed form with exact integer square
    roots (bounded curve searches hit quadratics whose constant terms are
    far too large to factor); higher degrees lift roots mod a small prime
    (``_lifted_roots``), every candidate verified by exact evaluation.
    """
    n = f.degree
    if n < 0:
        raise DomainError("the zero polynomial has every root")
    if n == 0:
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
        return roots | _quadratic_roots(ints[0], ints[1], ints[2])
    return roots | _lifted_roots(ints)
