"""Correctness checks that do not use the code under test.

Everything here is plain ``fractions.Fraction`` and ``math`` arithmetic:
the sweep sets, the expected exceptional parameters, the auxiliary
polynomials that witnesses must lie on, and the points of the search
curve.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math
from fractions import Fraction


def height(q: Fraction) -> int:
    return max(abs(q.numerator), q.denominator)


def rationals_up_to(bound: int) -> set[Fraction]:
    """Every rational of height at most ``bound``."""
    out = {Fraction(0)}
    for a in range(1, bound + 1):
        for b in range(1, bound + 1):
            if math.gcd(a, b) == 1:
                out.add(Fraction(a, b))
                out.add(Fraction(-a, b))
    return out


def _divisors(n: int) -> list[int]:
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


# -- the bundled fixtures, restated independently ---------------------------------

# The texts must match the fixture files, so that the evaluators below are
# known to be the polynomials the program reads.
FIXTURES = {
    "serre-a4": {
        "D": {Fraction(0)},
        "S": [
            "X^4 + 4*X^3 + 81*T^2 + 27",
            "X^3 + 48*X^2 + (-1296*T^2 + 336)*X - 10368*T^2 + 640",
        ],
        "eval": [
            lambda t, x: x**4 + 4 * x**3 + 81 * t**2 + 27,
            lambda t, x: x**3 + 48 * x**2 + (-1296 * t**2 + 336) * x - 10368 * t**2 + 640,
        ],
    },
    "fermat-x6": {
        "D": {Fraction(-1), Fraction(1)},
        "S": [
            "X^2 - 62208*((T-1)*(T+1)*(T^2-T+1)*(T^2+T+1))^3",
            "X^2 + 1728*((T-1)*(T+1)*(T^2-T+1)*(T^2+T+1))^2",
            "X^2 + 12*X + 27 + 9*T^6",
            "X^3 + 12*X^2 + 48*X + 72 - 8*T^6",
        ],
        "eval": [
            lambda t, x: x**2 - 62208 * (t**6 - 1) ** 3,
            lambda t, x: x**2 + 1728 * (t**6 - 1) ** 2,
            lambda t, x: x**2 + 12 * x + 27 + 9 * t**6,
            lambda t, x: x**3 + 12 * x**2 + 48 * x + 72 - 8 * t**6,
        ],
    },
}


def fixture_text_problems(name: str, raw: dict) -> list[str]:
    want = FIXTURES[name]["S"]
    if raw.get("S") != want:
        return [f"{name}: auxiliary polynomials {raw.get('S')} differ from {want}"]
    return []


def sweep_values(name: str, bound: int) -> set[Fraction]:
    return rationals_up_to(bound) - FIXTURES[name]["D"]


def a4_family_images(bound: int) -> set[Fraction]:
    """The t = (v^3 - 9v) / (9(1 - v^2)) of height <= bound, t outside D.

    For t = p/q the preimages v are the rational roots of
    q v^3 + 9p v^2 - 9q v - 9p; by the rational-root theorem v = r/s with
    r | 9p and s | q.  Each candidate is confirmed by evaluating the map.
    """
    out = set()
    for t in sweep_values("serre-a4", bound):
        p, q = t.numerator, t.denominator
        for s in _divisors(q):
            for r in _divisors(9 * p):
                for v in (Fraction(r, s), Fraction(-r, s)):
                    if v * v != 1 and (v**3 - 9 * v) / (9 * (1 - v * v)) == t:
                        out.add(t)
    return out


EXPECTED_EXCEPTIONAL = {
    "serre-a4": a4_family_images,
    "fermat-x6": lambda bound: {Fraction(0)},
}


def search_points(bound: int) -> list[tuple[Fraction, Fraction]]:
    """All (t, x) with x^2 = 3(t^6 - 1) and height(t), height(x) <= bound.

    For t = a/b in lowest terms, x = +-sqrt(3(a^6 - b^6)) / b^3, so t
    carries points exactly when 3(a^6 - b^6) is a perfect square.
    """
    out = []
    for t in rationals_up_to(bound):
        a, b = t.numerator, t.denominator
        s = 3 * (a**6 - b**6)
        if s < 0:
            continue
        r = math.isqrt(s)
        if r * r != s:
            continue
        for x in {Fraction(r, b**3), Fraction(-r, b**3)}:
            if height(x) <= bound:
                out.append((t, x))
    return sorted(out)


# -- checks on one call's output -----------------------------------------------------


def witness_problems(name: str, records) -> list[str]:
    """``records`` is a list of ``(t, witness)`` with witness ``(i, x)`` or None."""
    evals = FIXTURES[name]["eval"]
    bad = []
    for t, w in records:
        if w is None:
            continue
        i, x = w
        if not 0 <= i < len(evals) or evals[i](Fraction(t), Fraction(x)) != 0:
            bad.append(f"witness {w} is not a root of f_{i} at t = {t}")
    return bad


def verify_problems(
    name: str, bound: int, passed: bool, checked: int, records, expected_exc: set
) -> list[str]:
    """Equivalence report: passes, sweeps exactly the values outside D, and its
    witnessed parameters are exactly the expected exceptional set."""
    bad = []
    if not passed:
        bad.append("report did not pass")
    values = sweep_values(name, bound)
    if checked != len(values):
        bad.append(f"checked {checked} parameters, expected {len(values)}")
    ts = [Fraction(t) for t, _ in records]
    if len(ts) != len(set(ts)) or set(ts) != values:
        bad.append("records do not cover the sweep exactly once")
    got = {Fraction(t) for t, w in records if w is not None}
    if got != expected_exc:
        bad.append(
            f"exceptional parameters: missing {sorted(expected_exc - got)}, "
            f"extra {sorted(got - expected_exc)}"
        )
    return bad + witness_problems(name, records)


def enumerate_problems(name: str, records, expected_exc: set) -> list[str]:
    bad = []
    ts = [Fraction(t) for t, _ in records]
    if ts != sorted(expected_exc, key=lambda q: (height(q), q.numerator, q.denominator)):
        bad.append(f"enumerated {ts}, expected {sorted(expected_exc)}")
    if any(w is None for _, w in records):
        bad.append("an enumerated parameter has no witness")
    return bad + witness_problems(name, records)


def search_problems(points, expected: list) -> list[str]:
    got = sorted((Fraction(t), Fraction(x)) for t, x in points)
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        return [f"search points: missing {missing}, extra {extra}, {len(got)} found"]
    return []
