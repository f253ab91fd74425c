import hashlib
import json

import pytest

from hitbox import rationals
from hitbox.cli import main
from hitbox.harness import fixture_path


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
    "key, value", [("G_label", "foo"), ("G_label", "T3"), ("G_label", 6), ("G_order", "12")]
)
def test_malformed_reference_field_exit_code(capsys, tmp_path, key, value):
    raw = json.loads(fixture_path("fermat-x6").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**raw, key: value}))
    code, out, err = run(capsys, "hit", "verify", "--fixture", str(bad), "--height", "2")
    assert code == 3 and out == ""
    assert err.startswith("error: ")


def test_resource_limit_exit_code(capsys, monkeypatch):
    # the squarefree kernel of the first quadratic's discriminant needs
    # 1152921515344265237 = 1073741827 * 1073741831 factored, which a
    # lowered Pollard cap cannot do
    monkeypatch.setattr(rationals, "_POLLARD_STEPS", 100)
    code, out, err = run(capsys, "galois", "(X^2 - 1152921515344265237)*(X^2 - 3)")
    assert code == 3 and out == ""
    assert err.startswith("error: Pollard rho took over 100 steps")


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


def test_table_command(capsys):
    code, out, _ = run(capsys, "table", "transitive", "--degree", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["entries"]) == 16
    orders = sorted(e["order"] for e in payload["entries"])
    assert orders == [6, 6, 12, 12, 18, 24, 24, 24, 36, 36, 48, 60, 72, 120, 360, 720]


def test_output_file(capsys, tmp_path):
    out_file = tmp_path / "d.json"
    code, out, _ = run(
        capsys, "hit", "compute-d", "--fixture", "serre-a4", "--json", "--out", str(out_file)
    )
    assert code == 0 and out == ""
    assert json.loads(out_file.read_text())["D"] == ["0"]
