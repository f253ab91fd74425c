import hashlib
import json
import time
from fractions import Fraction

import pytest

from oracles import swinnerton_dyer

from hitbox import polys, rationals
from hitbox.cli import _psi_cross_check, _psi_search_bound, main
from hitbox.errors import ParseError
from hitbox.harness import enumerate_exceptional, fixture_path, load_fixture


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_factor_command(capsys):
    code, out, _ = run(capsys, "factor", "3*X^4-4*X^3+1")
    assert code == 0
    assert "(X - 1)^2" in out and "type: [1, 1, 2]" in out
    code, out, _ = run(capsys, "factor", "X^6+63", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["irreducible"] is True and payload["type"] == [6]


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "factor", "3*X^^4")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize(
    "text, message, powers",
    [
        ("X^2-" + "7" * 5000, "an integer of 5000 digits; at most 1000", [2]),
        ("X^2-2^99999", "coefficients of up to 299997 bits; at most 4096", [2]),
        ("X^100000000", "degree 100000000 is above 100", []),
        ("X-10^700*10^700", "coefficients of up to 4654 bits; at most 4096", [700, 700]),
        ("X-((1/2)^1300+(1/3)^800+(1/5)^500)", "bits; at most 4096", [1300, 800, 500]),
        ("((X+1)*(T+1))^100", "a product of dense size 10201", []),
        ("(X+T+1)^100", "a product of dense size 10201", []),
        ("(X*T+1)^100", "a product of dense size 10201", []),
        ("X-(X+1)^40*(T+1)^40", "a product of dense size 1681", [40, 40]),
    ],
    ids=[
        "literal",
        "power-bits",
        "power-degree",
        "product",
        "sum",
        "dense-power",
        "dense-trinomial",
        "dense-binomial",
        "dense-product",
    ],
)
def test_oversized_input_is_a_parse_error(capsys, monkeypatch, text, message, powers):
    # the literal is refused before int() reads it, and a power or a
    # product before it is computed: only the powers within the caps run
    taken, real = [], polys._power

    def recording(base, n, one):
        taken.append(n)
        return real(base, n, one)

    monkeypatch.setattr(polys, "_power", recording)
    code, out, err = run(capsys, "factor", text)
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and message in err
    assert taken == powers


def test_galois_command(capsys):
    code, out, _ = run(capsys, "galois", "X^5-X-1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "5T5" and payload["order"] == 120


def test_disc_command(capsys):
    code, out, _ = run(capsys, "disc", "X^2-T")
    assert code == 0 and out.strip() == "4*T"
    code, out, _ = run(capsys, "disc", "X^2+X+1")
    assert code == 0 and out.strip() == "-3"


def test_compute_d_command(capsys):
    code, out, _ = run(capsys, "hit", "compute-d", "--fixture", "serre-a4")
    assert code == 0 and out.strip() == "{0}"
    code, out, _ = run(capsys, "hit", "compute-d", "--fixture", "fermat-x6", "--json")
    assert code == 0
    assert json.loads(out)["D"] == ["-1", "1"]


def test_validation_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"name": "bad", "P": "X^2 - T", "D": ["0"], "S": ["2*X^2 - T"]}
        )
    )
    code, _, err = run(capsys, "hit", "compute-d", "--fixture", str(bad))
    assert code == 3
    assert "monic" in err


@pytest.mark.parametrize(
    "P, S", [("X^7 + T^7 - 1", []), ("X^2 - T", [f"X^2 - {k}*T" for k in range(1, 10)])]
)
def test_oversized_fixture_exit_code(capsys, tmp_path, P, S):
    # an X-degree above 6 or more than 8 auxiliaries: refused at load
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps({"name": "big", "P": P, "D": [], "S": S}))
    code, out, err = run(capsys, "hit", "verify", "--fixture", str(bad), "--height", "2")
    assert code == 3 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "key, value", [("G_label", "foo"), ("G_label", "T3"), ("G_label", 6), ("G_order", "12")]
)
def test_malformed_reference_field_exit_code(capsys, tmp_path, key, value):
    raw = json.loads(fixture_path("fermat-x6").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**raw, key: value}))
    code, out, err = run(capsys, "hit", "verify", "--fixture", str(bad), "--height", "2")
    assert code == 3 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("key, value", [("D", ["1/0"]), ("D", ["1e100000"]), ("S", None), ("notes", 5)])
def test_malformed_fixture_field_exit_code(capsys, tmp_path, key, value):
    # a malformed field is a validation error (exit 3), not a traceback
    raw = json.loads(fixture_path("fermat-x6").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**raw, key: value}))
    code, out, err = run(capsys, "hit", "compute-d", "--fixture", str(bad))
    assert code == 3 and out == ""
    assert err.startswith(f"error: {key}: ")


def test_resource_limit_exit_code(capsys, monkeypatch):
    # the local conic solver needs the primes of its coefficients, here
    # 1152921515344265237 = 1073741827 * 1073741831, which a lowered Pollard
    # cap cannot split
    monkeypatch.setattr(rationals, "_POLLARD_STEPS", 100)
    code, out, err = run(capsys, "local", "conic", "--a", "1152921515344265237", "--b", "0", "--c", "1")
    assert code == 3 and out == ""
    assert err.startswith("error: Pollard rho took over 100 steps")


def test_factor_gives_up_on_recombination_past_its_trial_cap(capsys):
    # sqrt 2..11: 16 quadratic factors mod every prime, 39,202 subset
    # trials; sqrt 2..13: 32 of them, over two billion
    code, out, _ = run(capsys, "factor", polys.poly_str(swinnerton_dyer([2, 3, 5, 7, 11])))
    assert code == 0 and "type: [32]" in out
    t0 = time.perf_counter()
    code, out, err = run(capsys, "factor", polys.poly_str(swinnerton_dyer([2, 3, 5, 7, 11, 13])))
    assert time.perf_counter() - t0 < 2
    assert code == 3 and out == ""
    assert err.startswith("error: recombining 32 modular factors of a degree-64 polynomial takes over 100000")


@pytest.mark.parametrize(
    "text, degree",
    [("X^7 - 2", 7), ("(X^3 - 2)*(X^4 - 3)", 7), (polys.poly_str(swinnerton_dyer([2, 3, 5, 7, 11, 13])), 64)],
    ids=["x7", "x3-x4", "sd64"],
)
def test_galois_refuses_a_radical_above_degree_6_before_factoring(capsys, monkeypatch, text, degree):
    monkeypatch.setattr("hitbox.cli.factor_over_Q", lambda f: pytest.fail("factored"))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "galois", text)
    assert time.perf_counter() - t0 < 2
    assert code == 3 and out == ""
    assert err == f"error: the squarefree part has degree {degree}; Galois groups are identified up to degree 6\n"


def test_galois_degree_cap_counts_each_distinct_root_once(capsys):
    code, out, _ = run(capsys, "galois", "(X^3 - 2)^3")
    assert (code, out) == (0, "3T2 (order 6)\n")


def test_galois_of_a_semiprime_square_class_needs_no_factoring(capsys):
    # 9903520316096796580384682779 is the product of two primes of 47 and
    # 48 bits, beyond Pollard rho's cap; square tests alone give V4
    code, out, err = run(capsys, "galois", "(X^2 - 9903520316096796580384682779)*(X^2 - 3)")
    assert (code, err) == (0, "")
    assert "V4 (order 4)" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("hit", "enumerate", "--fixture", "fermat-x6"),
        ("hit", "verify", "--fixture", "serre-a4"),
        ("curve", "search", "--curve", "X^2-3*(T^6-1)"),
    ],
    ids=["enumerate", "verify", "search"],
)
@pytest.mark.parametrize(
    "height, message",
    [
        ("1000000000", f"error: height bound 1000000000 is above {rationals.MAX_HEIGHT}"),
        ("0", "error: height bound 0 is below 1"),
    ],
    ids=["huge", "zero"],
)
def test_sweep_height_is_checked_before_the_first_row(capsys, monkeypatch, argv, height, message):
    # a wrapper on the one row builder shows that no row is built
    rows = []
    monkeypatch.setattr(rationals, "coprime_pairs_of_height", rows.append)
    code, out, err = run(capsys, *argv, "--height", height)
    assert (code, out) == (3, "") and err.startswith(message)
    assert rows == []


def test_verify_command_and_determinism(capsys):
    # height 6 (46 values) stays serial; height 7 (70 values) reaches the pool
    for height in ("6", "7"):
        code, out1, _ = run(
            capsys, "hit", "verify", "--fixture", "serre-a4", "--height", height, "--json"
        )
        assert code == 0
        code, out2, _ = run(
            capsys, "hit", "verify", "--fixture", "serre-a4", "--height", height, "--json",
            "--threads", "2",
        )
        assert code == 0
        assert out1 == out2  # byte-identical report, parallel or not
        payload = json.loads(out1)
        assert payload["passed"] is True
        assert payload["reference"]["label"] == "4T4"


# sha256 of `hit verify --json --full --height 30`, the whole report: it
# records every verdict, factorization type and sieve prime list
GOLDEN_VERIFY_HEIGHT_30 = {
    "serre-a4": "687f1ffd909671e5ca58f2dc2196bfd7d2f9b334e4c140096b6deb99f99591d4",
    "fermat-x6": "be407ca092c4f3cc6a2426d0391fedc78aec4397af5653412af6e3eec46013ff",
}


@pytest.mark.parametrize("fixture", ["serre-a4", "fermat-x6"])
def test_verify_height_30_is_identical_serial_and_pooled(capsys, fixture):
    outs = []
    for threads in ("1", "2"):
        code, out, _ = run(
            capsys, "hit", "verify", "--fixture", fixture, "--height", "30", "--json",
            "--full", "--threads", threads,
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0].encode()).hexdigest() == GOLDEN_VERIFY_HEIGHT_30[fixture]


# the same with --factor-types, recorded when the factorization check ran
# a second sweep of its own
GOLDEN_VERIFY_FACTOR_TYPES_HEIGHT_30 = {
    "serre-a4": "d9dd761f51058852683cf06feb4b6b0fd6ef10c72ce67d06dd5116912a681902",
    "fermat-x6": "f5655cad0bb0f107c6ca532c3b352035f240c92b63af814cb441c70565d02361",
}


@pytest.mark.parametrize("fixture", ["serre-a4", "fermat-x6"])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_factor_types_height_30_matches_golden_digest(capsys, fixture, threads):
    code, out, _ = run(
        capsys, "hit", "verify", "--fixture", fixture, "--height", "30", "--json",
        "--full", "--factor-types", "--threads", threads,
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN_VERIFY_FACTOR_TYPES_HEIGHT_30[fixture]


def test_verify_factor_types_runs_one_sweep(capsys, monkeypatch):
    import hitbox.harness as harness

    calls = []
    real = harness.exceptional_test

    def counting(t, *args):
        calls.append(t)
        return real(t, *args)

    monkeypatch.setattr(harness, "exceptional_test", counting)
    code, out, _ = run(
        capsys, "hit", "verify", "--fixture", "fermat-x6", "--height", "6", "--json",
        "--factor-types", "--threads", "1",
    )
    assert code == 0
    assert len(calls) == json.loads(out)["checked"]


def test_verify_table_output(capsys):
    code, out, _ = run(capsys, "hit", "verify", "--fixture", "serre-a4", "--height", "5")
    assert code == 0
    assert "violations: 0" in out and "passed: True" in out


def test_verify_with_factor_type_check(capsys):
    code, out, _ = run(
        capsys, "hit", "verify", "--fixture", "fermat-x6", "--height", "4",
        "--factor-types", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["factorization_violations"] == 0


def test_enumerate_command(capsys):
    code, out, _ = run(
        capsys,
        "hit",
        "enumerate",
        "--fixture",
        "serre-a4",
        "--height",
        "10",
        "--cross-check",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    ts = [r["t"] for r in payload["exceptional"]]
    assert ts == ["-9/10", "9/10"]
    assert payload["psi_cross_check"] is True


def test_enumerate_cross_check_needs_a_parametrization(capsys):
    # fermat-x6 has none: the check asked for is refused before the sweep,
    # not skipped in silence
    code, out, err = run(capsys, "hit", "enumerate", "--fixture", "fermat-x6", "--cross-check", "--json")
    assert code == 3 and out == ""
    assert err == "error: no parametrization data for fixture fermat-x6 to cross-check against\n"


def test_psi_search_bound_matches_the_rounded_real_cube_root():
    # the float formula serves as the oracle; the command itself uses none
    for bound in range(1, rationals.MAX_HEIGHT + 1):
        assert _psi_search_bound(bound) == max(12, round((9 * bound) ** Fraction(1, 3)) + 6), bound


def test_psi_cross_check_fails_on_a_dropped_or_an_unreached_t():
    data = load_fixture("serre-a4")
    recs = enumerate_exceptional(data, 27)
    assert [str(r.t) for r in recs] == ["-9/10", "9/10", "-10/27", "10/27"]
    assert _psi_cross_check(data, recs, 27) is True
    # the image sweep meets -9/10, which the records no longer have
    assert _psi_cross_check(data, recs[1:], 27) is False
    # v^3 + 18 v^2 - 9 v - 18, the preimage cubic of t = 2, has no rational root
    assert _psi_cross_check(data, recs + [recs[0]._replace(t=Fraction(2))], 27) is False


def test_curve_commands(capsys):
    code, out, _ = run(capsys, "curve", "torsion", "--A", "0", "--B", "1", "--json")
    assert code == 0
    assert json.loads(out)["order"] == 6
    code, out, _ = run(capsys, "curve", "cases")
    assert code == 0 and "FAIL" not in out
    code, out, _ = run(
        capsys, "curve", "search", "--curve", "X^2 - 3*(T^6-1)", "--height", "20", "--json"
    )
    assert code == 0
    assert json.loads(out)["points"] == [["-1", "0"], ["1", "0"]]
    code, out, _ = run(
        capsys, "curve", "param-check", "--fixture", "serre-a4", "--height", "40", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["parametrization_verified"] is True
    assert payload["unit_fiber_points"] == [["0", "-40"], ["0", "-4"]]


def test_local_conic_command(capsys):
    code, out, _ = run(
        capsys, "local", "conic", "--a", "-1", "--b", "2", "--c", "-3", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["local"]["2"] is False and payload["global"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ("local", "conic", "--a", "x", "--b", "0", "--c", "1"),
        ("local", "conic", "--a", "1/0", "--b", "0", "--c", "1"),
        ("local", "conic", "--a", "-1", "--b", "2", "--c", "-3", "--place", "abc"),
        ("local", "conic", "--a", "-1", "--b", "2", "--c", "-3", "--place", "2.0"),
        ("curve", "torsion", "--A", "x", "--B", "1"),
        ("local", "conic", "--a", "1e3", "--b", "0", "--c", "1"),
        ("local", "conic", "--a", "-1", "--b", "2", "--c", "-3", "--place", "1" * 1001),
    ],
    ids=[
        "conic-letter",
        "conic-zero-denominator",
        "place-word",
        "place-decimal",
        "torsion-letter",
        "conic-exponent",
        "place-1001-digits",
    ],
)
def test_malformed_number_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("parse error: not a")


@pytest.mark.parametrize(
    "text", ["1e999999999", "2E5", "1.5e-3", "7" * 1001, "1/" + "3" * 1001, "-" + "9" * 1001 + ".5"]
)
def test_number_is_refused_before_it_is_built(text):
    # Fraction("1e999999999") would build 10^999999999
    def build(_):
        raise AssertionError("a number was built")

    with pytest.raises(ParseError):
        polys.parse_number(text, build)
    assert polys.parse_number("9" * 1000) == 10**1000 - 1


def test_table_command(capsys):
    code, out, _ = run(capsys, "table", "transitive", "--degree", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["entries"]) == 16
    orders = sorted(e["order"] for e in payload["entries"])
    assert orders == [6, 6, 12, 12, 18, 24, 24, 24, 36, 36, 48, 60, 72, 120, 360, 720]


# sha256 prefixes of `table transitive --degree n` stdout, as (json, text),
# recorded while the table's columns were still derived from the generators
GOLDEN_TABLE_TRANSITIVE = {
    2: ("16964315139611fa", "a5fd9da750513056"),
    3: ("091103e0a2eb7363", "334155338046d195"),
    4: ("5f56d94cec285298", "6348fb703d2ce685"),
    5: ("ef84b6b6fe5d9aa5", "7506a3c5ba3c23be"),
    6: ("c80dad8e4db03064", "558768f05bfefee2"),
}


@pytest.mark.parametrize("degree", sorted(GOLDEN_TABLE_TRANSITIVE))
def test_table_command_matches_golden_digest(capsys, degree):
    digests = []
    for flags in (("--json",), ()):
        code, out, _ = run(capsys, "table", "transitive", "--degree", str(degree), *flags)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
    assert tuple(digests) == GOLDEN_TABLE_TRANSITIVE[degree]


@pytest.mark.parametrize("name", ["d.json", "missing/d.json"], ids=["written", "missing-dir"])
def test_output_file(capsys, tmp_path, name):
    out_file = tmp_path / name
    code, out, err = run(
        capsys, "hit", "compute-d", "--fixture", "serre-a4", "--json", "--out", str(out_file)
    )
    assert out == ""
    if out_file.parent.is_dir():
        assert code == 0 and err == ""
        assert json.loads(out_file.read_text())["D"] == ["0"]
    else:
        # a validation error naming the path, not exit 1 ("violations found")
        assert code == 3 and not out_file.parent.exists()
        assert err.startswith("error: ") and err.count("\n") == 1 and str(out_file) in err
