"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines live.
Heights, sample counts, and tolerances are pinned here; every check is
exact (integer/rational arithmetic), so "tolerance" always means equality.
"""

import random
import time
from fractions import Fraction
from itertools import product

from oracles import expand_factorization, maximal_classes, table_group

from hitbox.curves import (
    CurvePoint,
    EllipticCurve,
    PlaneCurve,
    bounded_point_search,
    ec_add,
    ec_torsion_lutz_nagell,
    eval_map,
    pullback_fiber,
    quartic_family_parametrization,
    transform_scaled_model,
    verify_case_identities,
)
from hitbox.factorq import factor_over_Q, factorization_type, rational_roots
from hitbox.galois import classify_degree_le4
from hitbox.harness import (
    enumerate_exceptional,
    load_fixture,
    resolve_reference,
    verify_equivalence,
)
from hitbox.localsolve import REAL, conic_solvable_local, finite_place, hilbert_symbol
from hitbox.polys import UniPoly, discriminant_uni, parse_poly, parse_unipoly, uni_gcd
from hitbox.rationals import factor_int, rationals_up_to_height, sample_rationals

SERRE = load_fixture("serre-a4")
FERMAT = load_fixture("fermat-x6")


def _line(num, ok, detail, t0=None):
    stamp = f" [{time.time() - t0:.1f}s]" if t0 is not None else ""
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}{stamp}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_exclusion_sets():
    t0 = time.time()
    d1 = SERRE.D
    d2 = FERMAT.D
    elapsed = time.time() - t0
    ok = (
        d1 == {Fraction(0)}
        and d2 == {Fraction(-1), Fraction(1)}
        and elapsed < 10.0
    )
    _line(1, ok, f"exclusion sets {{0}} and {{-1, 1}} recomputed exactly", t0)


def test_criterion_02_sextic_reducibility_height_60():
    t0 = time.time()
    bad = []
    checked = 0
    for t in rationals_up_to_height(60):
        sextic = UniPoly([t**6 - 1, 0, 0, 0, 0, 0, 1])
        reducible = not factor_over_Q(sextic).is_irreducible()
        if reducible != (t in (0, 1, -1)):
            bad.append(t)
        checked += 1
    elapsed = time.time() - t0
    ok = not bad and checked >= 4400 and elapsed < 300.0
    _line(2, ok, f"reducible exactly at 0, 1, -1 across {checked} parameters", t0)


def test_criterion_03_quartic_family_classification_height_30():
    t0 = time.time()
    curve, psi, phi = quartic_family_parametrization()
    bad = []
    # direction 1: parametrized values never classify as the generic group
    for v in rationals_up_to_height(30):
        if v in (1, -1):
            continue
        t = eval_map(psi, v)[0]
        if t == 0:
            continue
        gid = classify_degree_le4(factor_over_Q(SERRE.P.specialize(t)))
        if gid.label == "4T4":
            bad.append(("psi", v, t))
    # direction 2: no auxiliary root forces the generic group
    f1, f2 = SERRE.S
    for t in rationals_up_to_height(30):
        if t in SERRE.D:
            continue
        if rational_roots(f1.specialize(t)) or rational_roots(f2.specialize(t)):
            continue
        gid = classify_degree_le4(factor_over_Q(SERRE.P.specialize(t)))
        if gid.label != "4T4":
            bad.append(("generic", t))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 300.0
    _line(3, ok, "zero counterexamples in both directions at height 30", t0)


def test_criterion_04_equivalence_verification_height_30():
    t0 = time.time()
    ref1, prov1 = resolve_reference(SERRE)
    rep1 = verify_equivalence(SERRE, ref1, 30)
    ref2, prov2 = resolve_reference(FERMAT)
    rep2 = verify_equivalence(FERMAT, ref2, 30)
    ok = rep1.passed and rep2.passed
    ok = ok and not rep1.indeterminates  # degree 4 is exact
    ok = ok and all(
        r.galois is not None and r.galois.mode == "sieved" for r in rep2.indeterminates
    )
    frac = rep2.indeterminate_fraction()
    ok = ok and frac < 1.0
    _line(
        4,
        ok,
        f"zero violations; quartic fixture fully determinate, sextic fixture "
        f"{100 * frac:.1f}% indeterminate (sieve only)",
        t0,
    )


def test_criterion_05_quartic_auxiliary_has_no_roots():
    t0 = time.time()
    unsolvable = not conic_solvable_local(-1, 2, -3, finite_place(2))
    f1 = SERRE.S[0]
    bad = []
    for t in sample_rationals(200, exclude={Fraction(0)}):
        if rational_roots(f1.specialize(t)):
            bad.append(t)
    ok = unsolvable and not bad
    _line(5, ok, "2-adically unsolvable conic; no quartic auxiliary root at 200 samples", t0)


def test_criterion_06_parametrization_and_fibers():
    t0 = time.time()
    curve, psi, phi = quartic_family_parametrization()
    from hitbox.curves import verify_parametrization

    verified = verify_parametrization(curve, psi, phi)
    fiber = sorted(
        set(pullback_fiber(phi, 1, curve, 200)) | set(pullback_fiber(phi, -1, curve, 200))
    )
    expect = [(Fraction(0), Fraction(-40)), (Fraction(0), Fraction(-4))]
    ok = verified and fiber == expect
    _line(6, ok, "inverse maps verified exactly; fibers over 1 and -1 are the two base points", t0)


def test_criterion_07_torsion_and_model_transport():
    t0 = time.time()
    E = EllipticCurve.short(0, 1)
    pts = ec_torsion_lutz_nagell(E)
    affine = {(p.x, p.y) for p in pts if not p.is_infinity}
    ok = len(pts) == 6 and affine == {
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(-1)),
        (Fraction(2), Fraction(3)),
        (Fraction(2), Fraction(-3)),
        (Fraction(-1), Fraction(0)),
    }
    E4, maps = transform_scaled_model(2, parse_unipoly("X^3+12*X^2+48*X+72"))
    torsion4 = {(p.x, p.y) for p in ec_torsion_lutz_nagell(E4) if not p.is_infinity}
    images = {
        (q.x, q.y)
        for q in (
            maps.forward(CurvePoint.affine(x, y))
            for x, y in [(0, 12), (0, -12), (-4, 4), (-4, -4), (-6, 0)]
        )
    }
    ok = ok and images == torsion4 and len(images) == 5
    _line(7, ok, "torsion order 6 with the expected affine points; scaled model carries them bijectively", t0)


def test_criterion_08_case_identities():
    t0 = time.time()
    results = verify_case_identities()
    ok = results == [(1, True), (2, True), (3, True), (4, True)]
    _line(8, ok, "all four case-reduction identities hold as exact polynomials", t0)


def test_criterion_09_property_suites():
    t0 = time.time()
    failures = []

    # factorization reconstruction, 200 random inputs
    rng = random.Random(101)
    for _ in range(200):
        f = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 9))])
        if f.degree < 1:
            continue
        if expand_factorization(factor_over_Q(f)) != f:
            failures.append(("reconstruction", f))

    # Hilbert product formula, 100 random pairs
    rng = random.Random(102)
    for _ in range(100):
        a = Fraction(rng.randint(1, 40), rng.randint(1, 40)) * rng.choice((1, -1))
        b = Fraction(rng.randint(1, 40), rng.randint(1, 40)) * rng.choice((1, -1))
        primes = {2}
        for q in (a, b):
            primes |= set(factor_int(q.numerator)) | set(factor_int(q.denominator))
        prod = hilbert_symbol(a, b, REAL)
        for p in primes:
            prod *= hilbert_symbol(a, b, finite_place(p))
        if prod != 1:
            failures.append(("product-formula", a, b))

    # discriminant multiplicativity, 50 random coprime pairs
    rng = random.Random(103)
    done = 0
    while done < 50:
        f = UniPoly([rng.randint(-6, 6) for _ in range(rng.randint(2, 5))] + [1])
        g = UniPoly([rng.randint(-6, 6) for _ in range(rng.randint(2, 5))] + [1])
        if uni_gcd(f, g).degree != 0:
            continue
        from hitbox.polys import resultant

        if discriminant_uni(f * g) != discriminant_uni(f) * discriminant_uni(g) * resultant(f, g) ** 2:
            failures.append(("disc-mult", f, g))
        done += 1

    # subgroup-class soundness: maximal indices match auxiliary degrees
    a4 = table_group("4T4")
    indices = sorted(c.index for c in maximal_classes(a4))
    if indices != sorted(f.degree_x for f in SERRE.S):
        failures.append(("maximal-indices", indices))

    # group-law associativity over the full torsion set
    E = EllipticCurve.short(0, 1)
    pts = ec_torsion_lutz_nagell(E)
    for P, Q, R in product(pts, repeat=3):
        if ec_add(E, ec_add(E, P, Q), R) != ec_add(E, P, ec_add(E, Q, R)):
            failures.append(("associativity", P, Q, R))

    ok = not failures
    _line(9, ok, f"all property suites green (failures: {failures[:3]})", t0)


def test_criterion_10_declared_substitutions():
    t0 = time.time()
    # rank-0 and descent/Chabauty statements are imported, not recomputed;
    # what stands in for them is exact bounded-search corroboration.
    g2 = PlaneCurve(parse_poly("X^2 - 3*(T^6-1)"))
    search = bounded_point_search(g2, 1000)
    ok = search == [(Fraction(-1), Fraction(0)), (Fraction(1), Fraction(0))]
    # the sextic reference group is structural evidence, not a proof
    _, prov = resolve_reference(FERMAT)
    ok = ok and "not a proof" in prov and "6T3" in prov
    # exceptional enumeration stays finite for the sextic fixture
    recs = enumerate_exceptional(FERMAT, 25)
    ok = ok and [r.t for r in recs] == [Fraction(0)]
    _line(
        10,
        ok,
        "declared: rank-0/descent imported; corroborated by exact searches "
        "(height-1000 hyperelliptic sweep, sampled reference order, finite "
        "exceptional set)",
        t0,
    )
