import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from hitbox.errors import DomainError
from hitbox.curves import (
    PARAMETRIZATIONS,
    CurvePoint,
    CurveToLineMap,
    EllipticCurve,
    LineToCurveMap,
    PlaneCurve,
    bounded_point_search,
    ec_add,
    ec_mul,
    ec_neg,
    eval_map,
    point_order,
    pullback_fiber,
    quartic_family_parametrization,
    transform_scaled_model,
    verify_case_identities,
    verify_parametrization,
)
from hitbox.polys import UniPoly, parse_poly, parse_unipoly

V = UniPoly.gen()
CURVE, PSI, PHI = quartic_family_parametrization()


def test_eval_map_examples():
    assert eval_map(PSI, 2) == (Fraction(10, 27), Fraction(8, 3))
    assert eval_map(PSI, 1) is None and eval_map(PSI, -1) is None
    assert eval_map(PSI, 0) == (Fraction(0), Fraction(-40))
    # the inverse direction recovers the parameter
    assert eval_map(PHI, (Fraction(10, 27), Fraction(8, 3))) == 2
    assert eval_map(PHI, (Fraction(0), Fraction(-40))) is None  # base point


def test_verify_parametrization():
    assert verify_parametrization(CURVE, PSI, PHI)
    bad_phi = CurveToLineMap(
        num=parse_poly("X^2 - 1296*T^2 + 44*X + 161"), den=parse_poly("144*T")
    )
    assert not verify_parametrization(CURVE, PSI, bad_phi)
    line = PlaneCurve(parse_poly("X - T"))
    psi_id = LineToCurveMap.from_fractions(V, UniPoly.constant(1), V, UniPoly.constant(1))
    phi_id = CurveToLineMap(num=parse_poly("T"), den=parse_poly("1"))
    assert verify_parametrization(line, psi_id, phi_id)


def test_parametrization_image_lies_on_curve():
    rng = random.Random(23)
    checked = 0
    while checked < 100:
        v = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
        pt = eval_map(PSI, v)
        if pt is None:
            continue
        assert CURVE.contains(*pt)
        checked += 1


def test_pullback_fiber_paper_points():
    fiber = sorted(
        set(pullback_fiber(PHI, 1, CURVE, 60)) | set(pullback_fiber(PHI, -1, CURVE, 60))
    )
    assert fiber == [
        (Fraction(0), Fraction(-40)),
        (Fraction(0), Fraction(-4)),
    ]
    fiber2 = pullback_fiber(PHI, 2, CURVE, 30)
    assert (Fraction(10, 27), Fraction(8, 3)) in fiber2
    # a value whose fiber has no bounded point beyond the base points
    fiber_empty = [
        p for p in pullback_fiber(PHI, Fraction(1, 7), CURVE, 12) if p[0] != 0
    ]
    assert fiber_empty == []


def test_case_identities():
    assert verify_case_identities() == [(1, True), (2, True), (3, True), (4, True)]


def test_case2_constant_identity():
    assert 64 * 27 == 3 * 24**2  # the unit arithmetic behind the second case


E36 = EllipticCurve.short(0, 1)
TORSION = ec_torsion = None


def _torsion():
    from hitbox.curves import ec_torsion_lutz_nagell

    return ec_torsion_lutz_nagell(E36)


def test_ec_add_examples():
    P = CurvePoint.affine(2, 3)
    assert ec_add(E36, P, P) == CurvePoint.affine(0, 1)
    assert ec_add(E36, P, CurvePoint.infinity()) == P
    m = CurvePoint.affine(-1, 0)
    assert ec_add(E36, m, m).is_infinity
    with pytest.raises(DomainError):
        ec_add(E36, CurvePoint.affine(1, 1), P)


def test_torsion_of_rank_zero_sextic_curve():
    pts = _torsion()
    assert len(pts) == 6
    affine = {(p.x, p.y) for p in pts if not p.is_infinity}
    assert affine == {
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(-1)),
        (Fraction(2), Fraction(3)),
        (Fraction(2), Fraction(-3)),
        (Fraction(-1), Fraction(0)),
    }


def test_torsion_other_models():
    from hitbox.curves import ec_torsion_lutz_nagell

    pts = ec_torsion_lutz_nagell(EllipticCurve.short(-1, 0))
    assert len(pts) == 4  # full 2-torsion plus infinity
    assert all(p.is_infinity or p.y == 0 for p in pts)
    assert ec_torsion_lutz_nagell(EllipticCurve.short(0, 2)) == [CurvePoint.infinity()]
    with pytest.raises(DomainError):
        ec_torsion_lutz_nagell(EllipticCurve.short(Fraction(1, 2), 1))
    with pytest.raises(DomainError):
        EllipticCurve.short(0, 0)  # singular


def test_group_law_on_torsion_set():
    pts = _torsion()
    for P, Q in product(pts, repeat=2):
        assert ec_add(E36, P, Q) == ec_add(E36, Q, P)
    for P, Q, R in product(pts, repeat=3):
        assert ec_add(E36, ec_add(E36, P, Q), R) == ec_add(E36, P, ec_add(E36, Q, R))


def test_torsion_orders_and_closure():
    pts = _torsion()
    reachable = {(p.x, p.y) for p in pts}
    for P in pts:
        n = point_order(E36, P)
        assert n is not None and n <= 12 and 6 % n == 0
        for k in range(2, 13):
            Q = ec_mul(E36, P, k)
            assert (Q.x, Q.y) in reachable
    assert ec_neg(E36, CurvePoint.affine(0, 1)) == CurvePoint.affine(0, -1)


def test_transform_scaled_model_case4():
    E, maps = transform_scaled_model(2, parse_unipoly("X^3+12*X^2+48*X+72"))
    assert (E.a4, E.a6) == (0, 64)
    from hitbox.curves import ec_torsion_lutz_nagell

    torsion = {(p.x, p.y) for p in ec_torsion_lutz_nagell(E) if not p.is_infinity}
    source = [(0, 12), (0, -12), (-4, 4), (-4, -4), (-6, 0)]
    images = set()
    for x, y in source:
        # the source points satisfy y^2 = 2 * cubic(x)
        assert Fraction(y) ** 2 == 2 * parse_unipoly("X^3+12*X^2+48*X+72")(Fraction(x))
        img = maps.forward(CurvePoint.affine(x, y))
        assert E.contains(img)
        images.add((img.x, img.y))
    assert images == torsion  # bijection onto the affine torsion points


def test_transform_identity_when_integral():
    E, maps = transform_scaled_model(1, parse_unipoly("X^3 - 3*X + 3"))
    assert (E.a4, E.a6) == (-3, 3)
    assert maps.sx == 1 and maps.tx == 0 and maps.sy == 1


def test_transform_roundtrip_on_samples():
    rng = random.Random(24)
    cubic = parse_unipoly("X^3+12*X^2+48*X+72")
    E, maps = transform_scaled_model(2, cubic)
    done = 0
    while done < 20:
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
        # take y from the curve relation when the right side is a square
        rhs = 2 * cubic(x)
        from hitbox.rationals import is_square_rational
        import math

        if rhs < 0 or not is_square_rational(rhs):
            continue
        y = Fraction(math.isqrt(rhs.numerator), math.isqrt(rhs.denominator))
        P = CurvePoint.affine(x, y)
        Q = maps.backward(maps.forward(P))
        assert (Q.x, Q.y) == (P.x, P.y)
        assert E.contains(maps.forward(P))
        done += 1
    # map round trip holds off-curve too (it is affine-linear)
    P = CurvePoint.affine(Fraction(3, 7), Fraction(-5, 11))
    Q = maps.backward(maps.forward(P))
    assert (Q.x, Q.y) == (P.x, P.y)


def test_bounded_point_search_examples():
    g2 = PlaneCurve(parse_poly("X^2 - 3*(T^6-1)"))
    pts = bounded_point_search(g2, 60)
    assert pts == [(Fraction(-1), Fraction(0)), (Fraction(1), Fraction(0))]
    f2pts = bounded_point_search(CURVE, 50)
    for required in [
        (Fraction(0), Fraction(-40)),
        (Fraction(0), Fraction(-4)),
        (Fraction(10, 27), Fraction(8, 3)),
    ]:
        assert required in f2pts
    assert bounded_point_search(PlaneCurve(parse_poly("T^2+X^2+1")), 10) == []


def test_bounded_point_search_prefix_stability():
    small = bounded_point_search(CURVE, 30)
    large = bounded_point_search(CURVE, 45)
    assert small == [p for p in large if max(abs(p[0].numerator), p[0].denominator) <= 30
                     and max(abs(p[1].numerator), p[1].denominator) <= 30]
    # every found point is exactly on the curve
    for t, x in large:
        assert CURVE.contains(t, x)


# sha256 of point lists that must never change; the arithmetic underneath
# (specialization, root finding) has to reproduce them byte for byte
GOLDEN_SEARCH = {
    ("X^2 - 3*(T^6-1)", 30): "2ebebf696f650dbdfdd399eafacc270476c9dca45ac90cac9c59e4c7d088dca0",
    ("quartic family", 45): "e62ac3d6ae1b24d2d961a062c193db9e45c10227f392af3934ad67278715b938",
}


@pytest.mark.parametrize("curve, bound", list(GOLDEN_SEARCH))
def test_bounded_point_search_matches_golden_digest(curve, bound):
    C = CURVE if curve == "quartic family" else PlaneCurve(parse_poly(curve))
    pts = bounded_point_search(C, bound)
    text = json.dumps([[str(t), str(x)] for t, x in pts])
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SEARCH[curve, bound]
