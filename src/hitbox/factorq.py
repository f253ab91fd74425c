"""Exact factorization over Q, rational roots, residue cycle types.

Everything runs on ascending integer lists, with the one integer core of
``polys`` (``_add``, ``_sub``, ``_mul``, ``_deriv``, ``_pseudo_divmod``).
Arithmetic modulo m, a prime for factoring and root finding or a prime
power for Hensel lifting, is that core followed by one reduction
(``_red``): an expression is computed in the integers and reduced once,
and the ``_gp_*`` helpers divide by the monic multiple of the divisor,
which is plain division in the integers.  Every value of a polynomial at
all the residues mod p comes from one Horner pass (``_values_mod``).
Recombination divides by monic candidates with the same pseudo-division.
A ``UniPoly`` is read through its integer pair, and factors are rebuilt
from integers.  The odd primes come from one cached sieve
(``rationals.odd_primes``).

The rational factorization makes one residue pass (``_good_prime``) over
the monic integer model F of the input: the distinct-degree splits of F
modulo its usable odd primes that do not divide its scale, in increasing
order.  Each split does three jobs.  A usable prime proves F squarefree;
when none of the first ``_PRIME_SCAN`` odd primes is usable, the
squarefree part is factored instead, as ``_lifted_roots`` does, and each
factor's multiplicity is read by exact division.  The degrees of F's
factors over Q are subset sums of every modular pattern (Musser's
degree-set argument, J. ACM 22, 1975), and the scan stops at the first
prime that brings the intersection of these sums inside {0, 1, n-1, n}.
When it is {0, n}, F is irreducible with no lifting at all.  Otherwise the
integer roots come off first, on one path: they are lifted from the roots
mod p that the degree-1 part of a split already holds, and each takes its
one linear factor mod p with it.  A settled degree set leaves one
irreducible cofactor.  Only when a degree between 2 and n-2 survives
``_DEGREE_SCAN`` usable primes does the classical Zassenhaus pipeline run
on the cofactor.  The cap is 12 because small Galois groups settle late:
of the fermat-x6 sextics of height at most 30, 185 keep a middle degree
after 5 usable primes, and the degree set proves 184 of them irreducible
within 11 (the last, X^6 - 1, has quadratic factors).  Zassenhaus starts
from the prime with the fewest modular factors, the only prime factored
completely: its linear factors are x - r for the roots r of the split's
degree-1 part, which the integer roots are lifted from anyway, and only
the parts of degree 2 and more are split into equal-degree factors.  A
modular factor whose symmetric lift divides the cofactor exactly is an
irreducible factor over Q and comes off with no lifting (X^6 - 1 makes
no lift at all).  What is left takes quadratic multifactor Hensel
lifting modulo m^2 past the Landau-Mignotte bound of the cofactor, then
subset recombination (modular factor counts stay tiny at the degrees this
package handles).  Past
``_RECOMBINATION_TRIALS`` subset trials recombination gives up with a
``ResourceLimitError``: the Swinnerton-Dyer polynomial of degree 32 (the
square roots of the primes 2 to 11) needs 39,202 trials, and the one of
degree 64 would need over two billion.  The scan is the record's only
walk over the primes: a squarefree input's
``Factorization`` keeps the model (F, m) and the (p, cycle type) of every
usable prime the scan read, and the Galois identification reads that list
first: an odd cycle type in it settles the square class of disc(F), which
is then never computed (Stickelberger), and the sieve resumes the walk on
F after the list's last prime (``usable_cycle_types``, which needs no
discriminant) only when it needs more primes.

Distinct-degree factorization (von zur Gathen & Gerhard, Modern Computer
Algebra, §14) raises x to p once per prime and then steps through the
degrees with the Frobenius matrix, one matrix-vector product per degree.

Two mod-p kernels sit behind one cache (``_per_residue_class``): the
distinct-degree split that the residue scan and the sieve's resumed walk
read (``_usable_ddf``, whose value carries the split's cycle type and
degree set, so both are worked out once per residue class), and the roots
mod p (``_simple_roots_mod``).  The key is p and the input's integer
coefficients reduced mod p, and a kernel is handed the key itself, so it
sees nothing else: each kernel is a function of its key, and a lookup
returns exactly what a computation would.
Across a bounded-height sweep P(t, X) mod p takes few values, so a split
is computed once per residue class instead of once per parameter (``hit
verify`` on fermat-x6 at height 30, reference included, makes 4262 calls
of ``_usable_ddf`` over 408 keys, where the sweep's record memo in
``harness`` factors one sextic per orbit {t, -t}, 555 in all).  The cache
holds at most ``_RESIDUE_CACHE_SIZE`` = 4096 entries and drops the least
recently used; an entry takes about 0.5 KB, and under 0.7 KB for a sextic
split into six linear factors, so a full cache holds under 3 MB.  Values
are tuples, so no caller can change one.  The equal-degree split of the
Zassenhaus prime (``_gp_factor_sqf``) is not cached: a sweep seldom
repeats one (serre-a4 makes 2 at height 30 under ``hit verify``, and 5 on
4 residue classes at height 100 under ``hit enumerate``), so it is
computed each time, the random polynomials of each part from a source
seeded with p and that part.

Rational roots are read straight from the integer pair, whose content
and denominator move no root: zero roots come off as a factor X^k, and
degrees 1 and 2 have closed forms.  Higher degrees work on the primitive
integer coefficients and need no integer factoring: the roots
of the monic integer model F modulo a small odd prime p are found by
evaluating F at the p residues.  p is usable when each of them is a simple
root (F'(r) != 0 mod p); then each lifts uniquely by Newton's method, past
twice Fujiwara's root bound, and is kept only if it is an exact integer
root of F (ibid., §15).  Rejecting a prime costs at most p evaluations.

The witness scan asks whether some member f of a fixed family S in Q[T][X]
has a rational root at t, for many t; almost never is the answer yes.  A
local root sieve answers most of these no before f is specialized, as
rational-point searches do (Stoll's ratpoints; Bruin & Stoll, LMS J.
Comput. Math. 13, 2010).  Write t = a/b in lowest terms and let N(U, V)
be the homogenized integer form of f(t, X), its X-coefficients evaluated
at (a, b) and divided by the content of f.  A rational root u/v in lowest
terms makes (u mod p : v mod p) a projective root of N mod p; so if N mod
p is not zero, its leading coefficient does not vanish mod p and it has no
root in F_p, then f(t, X) has no rational root.  This is a proof, not a
heuristic.  Since N is homogeneous in (a, b), the answer depends only on
the point (a : b) of P^1(F_p).  So the family has one table per prime
(``root_sieve``), read off p + 1 points and ORed across S, whose byte at
(a, b) has bit i set unless p rules out S[i]: ANDing one byte per prime
(``root_mask``) answers for all of S at once.  The walk over the tables
ends at the first 0, so they come most selective first, as ratpoints puts
its most selective primes first; AND is commutative, so the order moves
no mask, only the number of tables read: 2.90 per pair on average on
fermat-x6 at height 25, where increasing prime order reads 5.44, and 4.63
against 7.54 on serre-a4 at height 27.  ``root_mask`` reads the
integers a and b themselves, as ratpoints sieves integer pairs, so a sweep
carries coprime pairs and builds a ``Fraction`` only where a mask leaves
a member to specialize.  The bounded point
search on a plane curve (``curves.bounded_point_search``) does not use the
sieve: it specializes and solves every fibre, which keeps it an unsieved
reference that other searches are checked against, and keeps the
benchmark's search workload a measure of specialization and root finding.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from itertools import combinations, islice
from typing import NamedTuple

from .errors import DomainError, ResourceLimitError
from .polys import UniPoly, _add, _deriv, _mul, _primitive, _pseudo_divmod, _sub, _trim, squarefree_part
from .rationals import Value, _odd_primes_below, is_square_int, odd_primes

# -- dense arithmetic mod p (ascending int lists) ------------------------------
#
# The integer core of ``polys`` followed by one reduction, ``_red``.  Inputs
# are reduced mod p.  Inverses are taken with pow(c, -1, p), so Hensel
# lifting runs the same helpers modulo a prime power, where it divides only
# by monic polynomials.


def _red(f, m):
    """The trimmed list f mod m, entries in [0, m)."""
    return _trim([c % m for c in f])


def _gp_mul(f, g, p):
    return _red(_mul(f, g), p)


def _gp_monic(f, p):
    """The monic multiple of f mod p; f itself when it is monic or zero."""
    if not f or f[-1] == 1:
        return f
    inv = pow(f[-1], -1, p)
    return _red([inv * c for c in f], p)


def _gp_divmod(f, g, p):
    """Division by g mod p: f = q*g + r with deg r < deg g, from the
    pseudo-division of f by the monic multiple of g, which is plain
    division in the integers, and one reduction."""
    inv = pow(g[-1], -1, p)
    q, r = _pseudo_divmod(f, _gp_monic(g, p))
    return _red([inv * c for c in q], p), _red(r, p)


def _gp_rem(f, g, p):
    return _red(_pseudo_divmod(f, _gp_monic(g, p))[1], p)


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
        s0, s1 = s1, _red(_sub(s0, _mul(q, s1)), p)
        t0, t1 = t1, _red(_sub(t0, _mul(q, t1)), p)
    if not r0:
        return [], [], []
    inv = pow(r0[-1], -1, p)
    return _red([inv * c for c in s0], p), _red([inv * c for c in t0], p), _gp_monic(r0, p)


def _gp_pow_mod(f, n, mod, p):
    result = [1]
    base = _gp_rem(f, mod, p)
    while n:
        if n & 1:
            result = _gp_rem(_mul(result, base), mod, p)
        n >>= 1
        if n:  # no square past the last bit
            base = _gp_rem(_mul(base, base), mod, p)
    return result


def _gp_eval(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def _values_mod(f, p):
    """[f(x) mod p for x in range(p)], by Horner at every residue at once."""
    xs = range(p)
    vals = [0] * p
    for c in reversed(f):
        vals = [(v * x + c) % p for v, x in zip(vals, xs)]
    return vals


def _gp_frobenius_rows(f, p):
    """Rows x^(i*p) mod f for i < deg f: the matrix of h -> h^p mod f."""
    xp = _gp_pow_mod([0, 1], p, f, p)
    rows = [[1]]
    for _ in range(len(f) - 2):
        rows.append(_gp_rem(_mul(rows[-1], xp), f, p))
    return rows


def _gp_frobenius(h, rows, p):
    """h^p mod f = h(x^p) mod f = sum h_i * row_i, one matrix-vector product."""
    out = [0] * len(rows)
    for c, row in zip(h, rows):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return _red(out, p)


# -- one cache in front of the mod-p kernels -----------------------------------

# Entries the residue cache holds; the least recently used goes first.
_RESIDUE_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_RESIDUE_CACHE_SIZE)
def _residue_cache(kernel, p, fp):
    return kernel(fp, p)


def _per_residue_class(kernel):
    """``kernel(f, p)`` computed once per residue class: the kernel is
    called with the key itself, f's coefficients reduced mod p (f's length
    kept, so a leading coefficient that dies mod p shows).  Every caller
    gets the same value, so the kernel returns tuples."""

    @functools.wraps(kernel)
    def cached(f, p):
        return _residue_cache(kernel, p, tuple([c % p for c in f]))

    return cached


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
        g = _gp_gcd(_red(_sub(h, x), p), f, p)
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
    """Split monic squarefree f mod an odd prime p, all of whose factors
    have degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        a = _trim(a)
        if len(a) < 2:
            continue
        b = _gp_pow_mod(a, (p**d - 1) // 2, f, p)
        g = _gp_gcd(_red(_sub(b, [1]), p), f, p)
        if 1 < len(g) < len(f):
            return _gp_edf(g, d, p, rng) + _gp_edf(_gp_divmod(f, g, p)[0], d, p, rng)


def _gp_factor_sqf(split, p):
    """The irreducible factors of degree at least 2, sorted, of a monic
    squarefree polynomial mod p, from its distinct-degree split.  The
    degree-1 part is left alone: its factors are x - r for its roots r,
    which ``_zassenhaus_monic`` finds by evaluation.  Each part's random
    polynomials come from a source seeded with p and that part, so the
    cost of one part does not depend on the draws of another."""
    out = [list(h) for g, d in split if d > 1 for h in _gp_edf(g, d, p, random.Random(_edf_seed(g, p)))]
    return sorted(out, key=lambda h: (len(h), h))


class _Split(NamedTuple):
    """The distinct-degree split of a polynomial mod a usable prime, with
    what the residue scan and the Galois sieve read off it."""

    parts: tuple  # (product of the factors of degree d, d), d increasing
    cycle_type: tuple[int, ...]  # the factor degrees, largest first
    degrees: int  # bit d set: some product of the modular factors has degree d


@_per_residue_class
def _usable_ddf(ints, p):
    """The ``_Split`` of f = sum ints[i] x^i mod p, or None if p is
    unusable for f: its leading coefficient vanishes mod p, or f is not
    squarefree mod p."""
    fp = _red(ints, p)
    if len(fp) != len(ints) or len(fp) < 2:
        return None  # the leading coefficient died, or f is constant
    d = _red(_deriv(fp), p)
    if not d or len(_gp_gcd(fp, d, p)) > 1:
        return None  # not squarefree mod p
    parts = tuple((tuple(g), d) for g, d in _gp_ddf(_gp_monic(fp, p), p))
    degs: list[int] = []
    sums = 1
    for g, d in parts:
        for _ in range((len(g) - 1) // d):  # squarefree: distinct factors
            degs.append(d)
            sums |= sums << d
    return _Split(parts, tuple(sorted(degs, reverse=True)), sums)


def usable_cycle_types(F: list[int], m: int, disc: int | None, after: int = 2):
    """(p, cycle type of g mod p) at every usable odd prime p > after of a
    squarefree monic rational g, in increasing order, without end: p is
    usable when it divides no denominator of g and g stays squarefree mod
    p, and the cycle type lists the degrees of g's irreducible factors mod
    p, largest first.  F is g's monic integer model of scale m
    (``_monic_int_model``).

    These are the polynomial and the primes of ``factor_over_Q``'s residue
    scan, so a walk resumed after the scan's last prime continues it.  A
    prime divides m exactly when it divides a denominator of g; away from
    m, y = m x is a unit change of variable mod p, so usability and cycle
    types are g's.  Primes dividing m are unusable and skipped unread; a
    prime dividing disc(F) leaves the monic F not squarefree mod p, and
    ``_usable_ddf`` reads it as unusable.  The walk needs no discriminant:
    ``disc`` is only a guard, the discriminant of F when the caller has it
    (a g with a repeated factor has no usable prime, so its walk would
    never end), or None when the caller knows g squarefree.
    """
    if disc == 0:
        raise DomainError("a polynomial with a repeated factor has no usable prime")
    for p in odd_primes():
        if p > after and m % p:
            split = _usable_ddf(F, p)
            if split is not None:
                yield p, split.cycle_type


# -- Hensel lifting (monic integer polynomials, ascending int lists) -----------


def _hensel_step(m, f, g, h, s, t):
    """Lift f = g*h (mod m), s*g + t*h = 1 (mod m) to modulus m^2; h monic.
    Each expression is computed in the integers and reduced once."""
    M = m * m
    e = _red(_sub(f, _mul(g, h)), M)
    q, r = _gp_divmod(_mul(s, e), h, M)
    G = _red(_add(g, _add(_mul(t, e), _mul(q, g))), M)
    H = _red(_add(h, r), M)
    b = _red(_sub(_add(_mul(s, G), _mul(t, H)), [1]), M)
    c, d = _gp_divmod(_mul(s, b), H, M)
    S = _red(_sub(s, d), M)
    T = _red(_sub(t, _add(_mul(t, b), _mul(c, G))), M)
    return G, H, S, T


def _hensel_lift(p, f, factors, l):
    """Monic f in Z[x] with f = prod(factors) mod p, all monic and coprime
    mod p; returns monic lifts F_i, reduced mod p^l, with f = prod(F_i)
    mod p^l."""
    r = len(factors)
    if r == 1:
        return [_red(f, p**l)]
    k = r // 2
    d = max(1, (l - 1).bit_length())  # ceil(log2(l)) quadratic steps, in integers
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


# Odd primes the residue scan, and ``_lifted_roots``, try before they take
# the squarefree part of an input that may have a repeated factor.
_PRIME_SCAN = 5

# Usable primes the residue scan reads at most while a degree between 2 and
# n-2 survives; only then does Zassenhaus run (why 12: the module docstring).
_DEGREE_SCAN = 12


# Subset trials that recombination makes at most before it gives up.
_RECOMBINATION_TRIALS = 100_000


class _Scan(NamedTuple):
    """What the residue scan learned about a monic integer polynomial."""

    splits: list  # (p, _Split) of each usable prime, in order
    degrees: int  # bit d set: every split allows a factor of degree d over Q
    chosen: tuple | None  # (p, split): the Zassenhaus prime's, else the last
    # the irreducible factors of degree >= 2 mod the Zassenhaus prime, or
    # None when no prime is factored completely
    modular: list | None


def _good_prime(f: list[int], m: int, squarefree: bool = False) -> _Scan:
    """The one residue pass over a monic integer f of degree n, the model
    of scale m of a monic rational polynomial g (``_monic_int_model``).

    The odd primes that do not divide m are examined in increasing order.
    A prime dividing m is not usable for g, and it seldom narrows the degree
    set: modulo a prime dividing b, fermat-x6 at t = a/b has the model
    y^6 + a^6, which always has a quadratic factor.  At most
    ``_DEGREE_SCAN`` usable primes are read, and each distinct-degree split
    does three jobs:

    (a) A usable prime proves f squarefree over Q.  Unless the caller knows
        f is squarefree, the scan gives up, with no splits, when none of the
        first ``_PRIME_SCAN`` odd primes prime to m is usable.
    (b) The degree of every factor of f over Q is a subset sum of every
        modular pattern (Musser, J. ACM 22, 1975).  The scan stops as soon
        as the intersection of these sums lies inside {0, 1, n-1, n}.
        {0, n} proves f irreducible; any other such set leaves the
        cofactor of f's rational roots irreducible, the roots are lifted
        from the last split's degree-1 part, and no prime is factored
        completely.
    (c) Otherwise, after ``_DEGREE_SCAN`` usable primes, the prime with
        the fewest factors wins (the smaller on a tie), and only it is
        factored completely; its split gives the roots.  The choice changes
        the cost of Zassenhaus, never its answer.
    """
    n = len(f) - 1
    middle = ~(3 | 3 << n - 1)  # the degrees 2 <= d <= n-2
    splits = []
    degrees = -1
    for i, p in enumerate(p for p in odd_primes() if m % p):
        if i == _PRIME_SCAN and not splits and not squarefree:
            break
        split = _usable_ddf(f, p)
        if split is None:
            continue
        splits.append((p, split))
        degrees &= split.degrees
        if not degrees & middle or len(splits) == _DEGREE_SCAN:
            break
    if not splits or not degrees & middle:
        return _Scan(splits, degrees, splits[-1] if splits else None, None)
    p, split = min(splits, key=lambda s: len(s[1].cycle_type))
    return _Scan(splits, degrees, (p, split), _gp_factor_sqf(split.parts, p))


def _zassenhaus_monic(f: list[int], scan: _Scan) -> list[list[int]]:
    """Irreducible factors of a monic squarefree integer polynomial f from
    its residue scan: its linear factors, from its integer roots, then the
    factors of the cofactor, lifted from the modular factors it has left.

    An integer root of f is a root of the degree-1 part of the chosen
    split, and a simple one, since the prime is usable; so the roots mod p
    of that part are lifted (``_lift_roots``, von zur Gathen & Gerhard,
    §15).  A scan whose degree set settles f factors no prime completely,
    and its cofactor is irreducible: the set lies inside {0, 1, n-1, n},
    so a factor of the cofactor, which has no rational root, would put a
    middle degree in it.  Otherwise the modular factors are x - r for the
    roots r mod p and the factors of degree >= 2 of the scan.  As f is
    squarefree mod p, each integer root y accounts for exactly one of
    them, x - (y mod p), and the cofactor is congruent mod p to the
    product of the others.  A factor of degree >= 2 whose symmetric lift
    divides the cofactor exactly comes off too: that divisor is
    irreducible, since its image mod p is one irreducible factor.  With
    fewer than two modular factors left the cofactor is irreducible;
    else it is Hensel-lifted past its Landau-Mignotte bound and its lifted
    factors are recombined by subsets, ``_RECOMBINATION_TRIALS`` at most."""
    if scan.degrees == 1 | 1 << len(f) - 1:
        return [f]
    p, split = scan.chosen
    linear = next((g for g, d in split.parts if d == 1), [1])  # [1]: no roots mod p
    if len(linear) == 2:
        residues = [-linear[0] % p]
    else:
        residues = [r for r, v in enumerate(_values_mod(linear, p)) if not v]
    found = [[-y, 1] for y in _lift_roots(f, p, residues)]
    for g in found:
        f = _pseudo_divmod(f, g)[0]
    modular = []
    if scan.modular is not None:
        rooted = {-g[0] % p for g in found}
        modular = [[-r % p, 1] for r in residues if r not in rooted]
        for h in scan.modular:
            G = [c - p if 2 * c > p else c for c in h]  # the symmetric lift
            q, r = _pseudo_divmod(f, G)
            if r:
                modular.append(h)
            else:
                found.append(G)
                f = q
    if len(modular) >= 2:
        B = _mignotte_bound(f)
        l = 1
        while p**l <= 2 * B:
            l += 1
        lifted = _hensel_lift(p, f, modular, l)
        pl = p**l
        indices = list(range(len(lifted)))
        s = 1
        trials = 0
        while 2 * s <= len(indices):
            for combo in combinations(indices, s):
                trials += 1
                if trials > _RECOMBINATION_TRIALS:
                    raise ResourceLimitError(
                        f"recombining {len(lifted)} modular factors of a degree-{len(f) - 1} "
                        f"polynomial takes over {_RECOMBINATION_TRIALS} subset trials"
                    )
                # quick test on the constant coefficient
                c = 1
                for i in combo:
                    c = c * lifted[i][0] % pl
                c = (c + pl // 2) % pl - pl // 2
                if c and f[0] % c:
                    continue
                G = [1]
                for i in combo:
                    G = _gp_mul(G, lifted[i], pl)
                G = [(c + pl // 2) % pl - pl // 2 for c in G]  # monic: stays trimmed
                q, r = _pseudo_divmod(f, G)
                if r:
                    continue
                found.append(G)
                f = q
                indices = [i for i in indices if i not in combo]
                break
            else:
                s += 1
    if len(f) > 1:
        found.append(f)
    return sorted(found, key=lambda h: (len(h), h))


# -- factorization over Q ------------------------------------------------------


class Factorization(Value):
    """unit * prod(factor^mult) reconstructs the input exactly.

    ``factor_over_Q`` also hands over what its residue scan read, when the
    scan ran on the input itself (a squarefree input): the monic integer
    model (F, m) and the (p, cycle type) of every usable prime it read,
    in increasing order.  These ride along outside equality, hashing and
    the repr.  The unit changes neither, so they also describe the radical,
    the distinct factors, which is all that the Galois identification reads.
    """

    __slots__ = ("unit", "factors", "model", "scanned")
    _fields = ("unit", "factors")

    def __init__(
        self,
        unit: Fraction,
        factors: tuple[tuple[UniPoly, int], ...],
        model: tuple[tuple[int, ...], int] | None = None,
        scanned: tuple[tuple[int, tuple[int, ...]], ...] = (),
    ):
        self.unit = unit
        self.factors = factors
        self.model = model
        self.scanned = scanned

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


def _root_or_self(d: int, k: int) -> int:
    """r if d = r^k for an integer r, else d (d >= 1): integer Newton steps
    down from a power of two above the k-th root."""
    if d == 1 or k == 1:
        return d
    r = 1 << -(-d.bit_length() // k)
    while True:
        s = ((k - 1) * r + d // r ** (k - 1)) // k
        if s >= r:
            return r if r**k == d else d
        r = s


# The primes that ``_least_root`` divides out one at a time.
_TRIAL_PRIMES = (2,) + _odd_primes_below(256)


def _least_root(d: int, k: int) -> int:
    """An s with the prime factors of d (d >= 1) and d | s^k: the exact
    k-th root of a perfect k-th power; otherwise each prime below 256 gets
    the least exponent, ceil(e/k) for its exponent e in d, and the
    cofactor of the larger primes its exact k-th root if it has one, else
    itself.  So s is the least such scale whenever that cofactor is
    squarefree or a perfect k-th power, and always when d < 2^16."""
    r = _root_or_self(d, k)
    if r < d or k < 2:
        return r
    s = 1
    for q in _TRIAL_PRIMES:
        if q * q > d:
            break
        if not d % q:
            e = 0
            while not d % q:
                d //= q
                e += 1
            s *= q ** -(-e // k)
    return s * _root_or_self(d, k)


def _monic_int_model(ints: list[int]) -> tuple[list[int], int]:
    """Monic integer F with F(y) = m^n * g(y/m) for g the monic multiple
    of sum ints[i] x^i and n its degree; roots scale by m.

    For each coefficient g_i = ints[i]/ints[n] with denominator d_i, m is a
    multiple of ``_least_root(d_i, n - i)``, so that m^(n-i) g_i is an
    integer; m is the lcm of these.  It divides the least common
    denominator of g and has the same prime factors, so the residue scan,
    which passes over the primes dividing m, reads the same primes at any
    such scale.  It is the least possible scale whenever each
    ``_least_root`` is: ``X^6 - 665/729`` gets m = 3, not 729, and
    ``X^4 - 4/3 X^3 + 37/75`` (serre-a4 at t = 2/5) m = 15, not 75."""
    n = len(ints) - 1
    lead = ints[n]
    m = math.lcm(*[_least_root(abs(lead) // math.gcd(c, lead), n - i) for i, c in enumerate(ints) if c])
    return [c * m ** (n - i) // lead if c else 0 for i, c in enumerate(ints)], m


def _multiplicity(f: UniPoly, g: UniPoly) -> int:
    """How many times the irreducible g divides f, by exact division."""
    mult, (q, r) = 0, f.divmod(g)
    while not r:
        mult, (q, r) = mult + 1, q.divmod(g)
    return mult


def factor_over_Q(f: UniPoly) -> Factorization:
    """Complete factorization into monic irreducibles over Q.

    One residue scan (``_good_prime``) of the monic integer model proves it
    squarefree and settles or prepares its factorization; the model and the
    cycle types the scan read are kept on the result.  When the scan finds
    no usable prime, the squarefree part is factored instead, and the
    multiplicity of each of its factors is the number of times it divides f.
    """
    if f.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    unit = f.lc()
    if f.degree == 0:
        return Factorization(unit=unit, factors=())
    F, m = _monic_int_model(f.primitive())
    scan = _good_prime(F, m)
    scanned = tuple([(p, split.cycle_type) for p, split in scan.splits])
    repeated = not scanned
    model = None if repeated else (tuple(F), m)
    if repeated:
        F, m = _monic_int_model(squarefree_part(f).primitive())
        scan = _good_prime(F, m, squarefree=True)
    out: list[tuple[UniPoly, int]] = []
    for h in _zassenhaus_monic(F, scan):
        # undo y = m*x: h(m x) / m^deg h is monic
        g = UniPoly.from_ints([c * m**i for i, c in enumerate(h)], m ** (len(h) - 1)).monic()
        out.append((g, _multiplicity(f, g) if repeated else 1))
    return Factorization(unit, tuple(out), model, scanned)


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


@_per_residue_class
def _simple_roots_mod(F, p: int) -> tuple[int, ...] | None:
    """The roots of F in F_p, found by evaluation at every residue at once
    (Horner), or None if one of them is a multiple root (F'(r) = 0 mod p):
    then p is unusable."""
    vals = _values_mod(F, p)
    if 0 not in vals:
        return ()
    roots = tuple([u for u, v in enumerate(vals) if not v])
    dF = _deriv(F)
    return None if any(_gp_eval(dF, r, p) == 0 for r in roots) else roots


def _lift_roots(F: list[int], p: int, residues) -> list[int]:
    """The integer roots of a monic integer F among the lifts of its simple
    roots mod p (``residues``).

    Each lifts uniquely (Newton), and past twice a bound on the roots its
    symmetric representative is the only integer root of F it can be;
    every candidate is checked exactly (von zur Gathen & Gerhard, §15).
    The bound is read off bit lengths: every root of F has absolute value
    at most 2 max |F_(n-i)|^(1/i) over i = 1..n (Fujiwara), and
    |F_(n-i)|^(1/i) < 2^k for k = ceil(bitlen |F_(n-i)| / i), so
    4 << max k is at least twice that."""
    dF = _deriv(F)
    bound = 4 << max((-(-c.bit_length() // i) for i, c in enumerate(reversed(F[:-1]), 1)), default=0)
    roots = []
    for r in residues:
        q = p
        while q <= bound:
            q *= q
            r = (r - _gp_eval(F, r, q) * pow(_gp_eval(dF, r, q), -1, q)) % q
        y = r - q if 2 * r > q else r
        if sum(c * y**i for i, c in enumerate(F)) == 0:
            roots.append(y)
    return roots


def _lifted_roots(ints: list[int]) -> set[Fraction]:
    """Rational roots of sum ints[i] x^i from the roots of its monic
    integer model F mod p.

    F has integer roots only, each a root mod every prime.  A prime is
    usable when every root of F in F_p is simple; then ``_lift_roots``
    lifts them.  This search finds its own prime because the input may
    have a repeated factor: when none of the first ``_PRIME_SCAN`` odd
    primes is usable, the squarefree part, usable at all but finitely many
    primes, takes over.  (``factor_over_Q`` needs none of this: its residue
    scan has already proved the input squarefree and found the roots mod p.)
    """
    F, m = _monic_int_model(ints)
    for p in islice(odd_primes(), _PRIME_SCAN):
        residues = _simple_roots_mod(F, p)
        if residues is not None:
            break
    else:
        F, m = _monic_int_model(squarefree_part(UniPoly.from_ints(ints, 1)).primitive())
        for p in odd_primes():
            residues = _simple_roots_mod(F, p)
            if residues is not None:
                break
    return {Fraction(y, m) for y in _lift_roots(F, p, residues)}


def rational_roots(f: UniPoly) -> set[Fraction]:
    """Exactly the rational roots of f (no multiplicities).

    Read straight from f's integer numerators: a zero constant term gives
    the root 0, and its factor X^k comes off.  Degrees 1 and 2 are then
    solved in closed form with exact integer square roots (bounded curve
    searches hit quadratics whose constant terms are far too large to
    factor).  Scaling the coefficients by a nonzero integer, the content
    or the denominator, changes neither the roots nor whether the
    discriminant is a square, and ``Fraction`` puts each root in lowest
    terms, so these need no primitive part.  Higher degrees lift the roots
    of the primitive part mod a small prime (``_lifted_roots``), every
    candidate verified by exact evaluation.
    """
    ints = f._ints
    if not ints:
        raise DomainError("the zero polynomial has every root")
    zero = not ints[0]
    if zero:
        k = 1
        while not ints[k]:
            k += 1
        ints = ints[k:]
    n = len(ints) - 1
    if n == 1:
        roots = {Fraction(-ints[0], ints[1])}
    elif n == 2:
        roots = _quadratic_roots(ints[0], ints[1], ints[2])
    else:
        roots = _lifted_roots(_primitive(ints)) if n else set()
    if zero:
        roots.add(Fraction(0))
    return roots


# -- local root sieve ----------------------------------------------------------

# The odd primes of the local root sieve; a family keeps those that reject
# some point of P^1(F_p) for one of its members.
_SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79)

# a table entry is one byte, one bit per member of the family
SIEVE_FAMILY_MAX = 8


def _point_roots(rows: list[list[int]], d: int, p: int) -> list[int]:
    """1 at each point of P^1(F_p) where N(U, V) has a projective root mod
    p, else 0: the points (x : 1) for x in F_p, then (1 : 0).  ``rows``
    is the homogenized integer form of a polynomial in X over Q[T], of
    T-degree d, divided by its content; N = 0 has a root everywhere.

    N is homogeneous in (a, b), so its coefficients mod p at (a, b) are
    those at the point (a : b) times a common unit: (x : 1) is read by
    Horner, at every x at once, and (1 : 0) from the T^d column.  N has
    the root (1 : 0) when its leading coefficient vanishes mod p, which
    covers N = 0 mod p.  A quadratic with a unit leading coefficient has a
    root exactly when its discriminant is a square mod p (Euler's
    criterion); other degrees are evaluated, once per coefficient vector
    (``_simple_roots_mod``)."""
    if not rows:
        return [1] * (p + 1)

    def has_root(cs):
        if not cs[-1]:
            return 1
        if len(cs) == 3:
            return int(pow(cs[1] * cs[1] - 4 * cs[0] * cs[2], (p - 1) // 2, p) != p - 1)
        return int(_simple_roots_mod(cs, p) != ())

    points = [has_root(cs) for cs in zip(*[_values_mod(row, p) for row in rows])]
    points.append(has_root(tuple(row[d] % p if len(row) > d else 0 for row in rows)))
    return points


def root_sieve(family) -> tuple[tuple[int, bytes], ...]:
    """(p, table) for each sieve prime that rejects some point for some
    member of ``family`` (at most ``SIEVE_FAMILY_MAX`` polynomials in
    Q[T][X]), most selective first.  Entry (b mod p) * p + (a mod p) of a
    table has bit i set unless p proves that member i has no rational root
    at t = a/b (in lowest terms).

    The bits are taken at the p + 1 points of P^1(F_p) (``_point_roots``),
    ORed across the family, and expanded once: the point of (a, b) is
    (1 : 0) when b = 0 mod p, else (a / b : 1).  The order is greedy: with
    r_i(p) the share of p's table entries that keep member i and s_i the
    product of r_i over the tables already placed, the next table is the
    one with the least sum of s_i * r_i(p), the smaller prime on a tie."""
    if len(family) > SIEVE_FAMILY_MAX:
        raise DomainError(f"the root sieve holds at most {SIEVE_FAMILY_MAX} polynomials")
    forms = []
    for f in family:
        rows, _, d = f.int_form()
        g = math.gcd(*[c for row in rows for c in row])
        forms.append(([[c // g for c in row] for row in rows], d))
    full = (1 << len(family)) - 1
    kept = []
    for p in _SIEVE_PRIMES:
        masks = [0] * (p + 1)
        for i, (rows, d) in enumerate(forms):
            for j, r in enumerate(_point_roots(rows, d, p)):
                masks[j] |= r << i
        if all(m == full for m in masks):
            continue
        # the number of the p * p entries with bit i set: (1 : 0) fills p
        # entries, each affine point p - 1
        counts = [
            (masks[p] >> i & 1) * p + sum(m >> i & 1 for m in masks[:p]) * (p - 1)
            for i in range(len(family))
        ]
        proj = bytes(masks[:p])
        # the row of b != 0 is proj read with step 1/b
        by_b = [(proj * p)[:: pow(b, -1, p)][:p] for b in range(1, p)]
        kept.append((counts, (p, bytes([masks[p]]) * p + b"".join(by_b))))
    # s_i times the product of p * p over the tables placed; every member
    # shares that factor, so these integers compare the sums exactly
    survival = [1] * len(family)
    tables = []
    while kept:
        # the table that leaves the fewest members alive in expectation, if
        # the primes rule members out independently; min keeps the smaller
        # prime on a tie
        best = min(
            range(len(kept)),
            key=lambda k: Fraction(sum(s * c for s, c in zip(survival, kept[k][0])), kept[k][1][0] ** 2),
        )
        counts, table = kept.pop(best)
        survival = [s * c for s, c in zip(survival, counts)]
        tables.append(table)
    return tuple(tables)


def root_mask(sieve, a: int, b: int) -> int:
    """The bits of the family members that no table of ``sieve`` (from
    ``root_sieve``) rules out at t = a/b, for coprime integers a and b > 0;
    0 as soon as every member is ruled out, 255 when no table applies."""
    mask = 0xFF  # a bit for each of up to SIEVE_FAMILY_MAX members
    for p, table in sieve:
        mask &= table[b % p * p + a % p]
        if not mask:
            return 0
    return mask

