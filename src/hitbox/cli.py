"""Command-line surface.

Exit codes: 0 success, 1 violations found, 2 parse error, 3 validation
error or an error of the operating system, such as an ``--out`` path
that cannot be written.  Reports are machine-readable JSON first; the
table rendering is derived from the same records.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .curves import (
    PARAMETRIZATIONS,
    PlaneCurve,
    EllipticCurve,
    bounded_point_search,
    ec_torsion_lutz_nagell,
    eval_map,
    pullback_fiber,
    verify_case_identities,
    verify_parametrization,
)
from .errors import DomainError, FixtureError, InconclusiveError, ParseError, ResourceLimitError
from .factorq import factor_over_Q, rational_roots
from .galois import identify_galois, transitive_table
from .harness import (
    DEFAULT_PRIME_BUDGET,
    enumerate_exceptional,
    galois_to_dict,
    load_fixture,
    record_to_dict,
    records_table,
    report_table,
    report_to_dict,
    resolve_reference,
    verify_equivalence,
)
from .localsolve import REAL, bad_places, conic_solvable_global, conic_solvable_local, finite_place
from .polys import (
    discriminant_in_x,
    discriminant_uni,
    parse_number,
    parse_poly,
    poly_str,
    squarefree_part,
)


def _emit(args, payload: dict, table: str) -> None:
    if getattr(args, "json", False):
        out = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    else:
        out = table
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def cmd_factor(args) -> int:
    f = parse_poly(args.poly).as_unipoly_x()
    fac = factor_over_Q(f)
    parts = [f"({poly_str(g)})" + (f"^{m}" if m > 1 else "") for g, m in fac.factors]
    table = f"{fac.unit} * " + " * ".join(parts) if parts else str(fac.unit)
    payload = {
        "unit": str(fac.unit),
        "factors": [{"poly": poly_str(g), "multiplicity": m} for g, m in fac.factors],
        "type": list(fac.type()),
        "irreducible": fac.is_irreducible(),
    }
    _emit(args, payload, f"{table}\ntype: {list(fac.type())}")
    return 0


def cmd_galois(args) -> int:
    f = parse_poly(args.poly).as_unipoly_x()
    # the splitting field only sees distinct roots: refuse by the radical's
    # degree before anything is factored
    n = squarefree_part(f).degree if f.degree > 6 else f.degree
    if n > 6:
        raise DomainError(f"the squarefree part has degree {n}; Galois groups are identified up to degree 6")
    gid = identify_galois(factor_over_Q(f), args.primes)
    _emit(args, galois_to_dict(gid), gid.describe())
    return 0


def cmd_disc(args) -> int:
    P = parse_poly(args.poly)
    if P.degree_t > 0 and P.degree_x > 0:
        d = discriminant_in_x(P)
        _emit(args, {"discriminant_in_T": poly_str(d, "T")}, poly_str(d, "T"))
    else:
        f = P.as_unipoly_x() if P.degree_x > 0 else P.as_unipoly_t()
        d = discriminant_uni(f)
        _emit(args, {"discriminant": str(d)}, str(d))
    return 0


def cmd_hit_compute_d(args) -> int:
    data = load_fixture(args.fixture)
    ds = sorted(data.D)
    _emit(args, {"fixture": data.name, "D": list(map(str, ds))}, "{" + ", ".join(map(str, ds)) + "}")
    return 0


def cmd_hit_verify(args) -> int:
    data = load_fixture(args.fixture)
    reference, prov = resolve_reference(data, budget=max(args.primes, 48))
    data.provenance["reference"] = prov
    rep = verify_equivalence(
        data,
        reference,
        args.height,
        budget=args.primes,
        workers=args.threads,
        keep_records=args.full,
        factor_types=args.factor_types,
    )
    _emit(args, report_to_dict(rep), report_table(rep))
    return 0 if rep.passed else 1


def cmd_hit_enumerate(args) -> int:
    data = load_fixture(args.fixture)
    if args.cross_check and data.name not in PARAMETRIZATIONS:
        raise FixtureError(f"no parametrization data for fixture {data.name} to cross-check against")
    recs = enumerate_exceptional(data, args.height, budget=args.primes, workers=args.threads)
    payload: dict = {
        "fixture": data.name,
        "height_bound": args.height,
        "exceptional": [record_to_dict(r) for r in recs],
    }
    table = records_table(recs) if recs else "(none)"
    if args.cross_check:
        ok = _psi_cross_check(data, recs, args.height)
        payload["psi_cross_check"] = ok
        table += f"\npsi cross-check: {ok}"
    _emit(args, payload, table)
    return 0


def _psi_cross_check(data, recs, bound) -> bool:
    """Found exceptional t's coincide with the image of the cubic curve's
    parametrization: solve the preimage cubic exactly for each t, and sweep
    small parameter values the other way."""
    from .rationals import height, rationals_up_to_height

    _, psi, _ = PARAMETRIZATIONS[data.name]()
    found = {r.t for r in recs}
    for t in found:
        if not rational_roots(psi.t_num - t * psi.t_den):
            return False
    for v in rationals_up_to_height(_psi_search_bound(bound)):
        img = eval_map(psi, v)
        if img is None:
            continue
        t = img[0]
        if height(t) <= bound and t not in data.D and t not in found:
            return False
    return True


def _psi_search_bound(bound: int) -> int:
    """max(12, r + 6) for r the integer nearest to the cube root of
    9 * bound: the least r with (r + 1/2)^3 > 9 * bound (never equal)."""
    r = 0
    while (2 * r + 1) ** 3 < 72 * bound:
        r += 1
    return max(12, r + 6)


def cmd_curve_param_check(args) -> int:
    data = load_fixture(args.fixture)
    if data.name not in PARAMETRIZATIONS:
        raise FixtureError(f"no parametrization data for fixture {data.name}")
    curve, psi, phi = PARAMETRIZATIONS[data.name]()
    ok = verify_parametrization(curve, psi, phi)
    fibers = sorted(
        set(pullback_fiber(phi, 1, curve, args.height))
        | set(pullback_fiber(phi, -1, curve, args.height))
    )
    payload = {
        "fixture": data.name,
        "parametrization_verified": ok,
        "unit_fiber_points": [[str(t), str(x)] for t, x in fibers],
    }
    table = (
        f"parametrization identities: {'pass' if ok else 'FAIL'}\n"
        f"pullback of +-1 (height <= {args.height}): "
        + ", ".join(f"({t}, {x})" for t, x in fibers)
    )
    _emit(args, payload, table)
    return 0 if ok else 1


def cmd_curve_torsion(args) -> int:
    E = EllipticCurve.short(parse_number(args.A), parse_number(args.B))
    pts = ec_torsion_lutz_nagell(E)
    payload = {
        "curve": f"y^2 = x^3 + {args.A}*x + {args.B}",
        "order": len(pts),
        "points": [
            "infinity" if p.is_infinity else [str(p.x), str(p.y)] for p in pts
        ],
    }
    _emit(args, payload, f"torsion order {len(pts)}: " + ", ".join(str(p) for p in pts))
    return 0


def cmd_curve_search(args) -> int:
    C = PlaneCurve(parse_poly(args.curve))
    pts = bounded_point_search(C, args.height)
    payload = {"points": [[str(t), str(x)] for t, x in pts]}
    table = "\n".join(f"({t}, {x})" for t, x in pts) or "(none)"
    _emit(args, payload, table)
    return 0


def cmd_curve_cases(args) -> int:
    results = verify_case_identities()
    payload = {"cases": {str(i): ok for i, ok in results}}
    table = "\n".join(f"case {i}: {'pass' if ok else 'FAIL'}" for i, ok in results)
    _emit(args, payload, table)
    return 0 if all(ok for _, ok in results) else 1


def cmd_local_conic(args) -> int:
    a, b, c = parse_number(args.a), parse_number(args.b), parse_number(args.c)
    rows = []
    if args.place == "all":
        places = bad_places(a, b, c)
    elif args.place == "real":
        places = [REAL]
    else:
        places = [finite_place(parse_number(args.place, int))]
    for v in places:
        rows.append((str(v), conic_solvable_local(a, b, c, v)))
    glob = conic_solvable_global(a, b, c)
    payload = {
        "conic": f"y^2 = {args.a}*x^2 + {args.b}*x + {args.c}",
        "local": {place: ok for place, ok in rows},
        "global": glob,
    }
    table = "\n".join(f"{place}: {'solvable' if ok else 'unsolvable'}" for place, ok in rows)
    table += f"\nglobal: {'solvable' if glob else 'unsolvable'}"
    _emit(args, payload, table)
    return 0


def cmd_table_transitive(args) -> int:
    entries = transitive_table(args.degree)
    rows = []
    for e in entries:
        types = " ".join("".join(map(str, ct)) for ct in sorted(e.cycle_types))
        rows.append(
            f"{e.label:>5}  order {e.order:>4}  "
            f"{'even' if e.in_alternating else 'odd '}  kind {e.kind:<7} types {types}"
        )
    payload = {
        "degree": args.degree,
        "entries": [
            {
                "label": e.label,
                "order": e.order,
                "kind": e.kind,
                "in_alternating": e.in_alternating,
                "cycle_types": sorted(list(ct) for ct in e.cycle_types),
            }
            for e in entries
        ],
    }
    _emit(args, payload, "\n".join(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hitbox", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fixture=False, height=None):
        p.add_argument("--json", action="store_true", help="emit canonical JSON")
        p.add_argument("--out", help="write output to a file")
        if fixture:
            p.add_argument("--fixture", required=True, help="fixture path or bundled name")
        if height is not None:
            p.add_argument("--height", type=int, default=height)

    p = sub.add_parser("factor", help="factor a univariate polynomial over Q")
    p.add_argument("poly")
    common(p)
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("galois", help="identify the Galois group of a polynomial")
    p.add_argument("poly")
    p.add_argument("--primes", type=int, default=64)
    common(p)
    p.set_defaults(fn=cmd_galois)

    p = sub.add_parser("disc", help="discriminant (in X) of a polynomial")
    p.add_argument("poly")
    common(p)
    p.set_defaults(fn=cmd_disc)

    hit = sub.add_parser("hit", help="exclusion sets and equivalence sweeps")
    hsub = hit.add_subparsers(dest="subcommand", required=True)

    p = hsub.add_parser("compute-d", help="exclusion set of a fixture")
    common(p, fixture=True)
    p.set_defaults(fn=cmd_hit_compute_d)

    p = hsub.add_parser("verify", help="root-witness equivalence sweep")
    common(p, fixture=True, height=30)
    p.add_argument("--primes", type=int, default=DEFAULT_PRIME_BUDGET)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--full", action="store_true", help="include every record")
    p.add_argument(
        "--factor-types",
        action="store_true",
        help="also check the factorization-type implication",
    )
    p.set_defaults(fn=cmd_hit_verify)

    p = hsub.add_parser("enumerate", help="exceptional parameters with witnesses")
    common(p, fixture=True, height=30)
    p.add_argument("--primes", type=int, default=DEFAULT_PRIME_BUDGET)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(fn=cmd_hit_enumerate)

    curve = sub.add_parser("curve", help="plane and elliptic curve utilities")
    csub = curve.add_subparsers(dest="subcommand", required=True)

    p = csub.add_parser("param-check", help="verify a fixture's curve parametrization")
    common(p, fixture=True, height=200)
    p.set_defaults(fn=cmd_curve_param_check)

    p = csub.add_parser("torsion", help="torsion of y^2 = x^3 + A x + B")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    common(p)
    p.set_defaults(fn=cmd_curve_torsion)

    p = csub.add_parser("search", help="bounded rational point search")
    p.add_argument("--curve", required=True)
    common(p, height=50)
    p.set_defaults(fn=cmd_curve_search)

    p = csub.add_parser("cases", help="verify the sextic case-reduction identities")
    common(p)
    p.set_defaults(fn=cmd_curve_cases)

    loc = sub.add_parser("local", help="local solvability tests")
    lsub = loc.add_subparsers(dest="subcommand", required=True)
    p = lsub.add_parser("conic", help="solvability of y^2 = a x^2 + b x + c")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--place", default="all", help="prime, 'real', or 'all'")
    common(p)
    p.set_defaults(fn=cmd_local_conic)

    tab = sub.add_parser("table", help="reference data dumps")
    tsub = tab.add_subparsers(dest="subcommand", required=True)
    p = tsub.add_parser("transitive", help="transitive groups of one degree")
    p.add_argument("--degree", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_table_transitive)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (FixtureError, DomainError, InconclusiveError, ResourceLimitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
