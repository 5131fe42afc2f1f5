import json
import random
import string

import pytest

from primpoints import (
    Divisor,
    INFINITY,
    InvalidInput,
    POLY_X,
    Place,
    RatPolynomial,
    SearchBudgetExhausted,
    parse_divisor,
    parse_function_expr,
    parse_poly_expr,
)
from primpoints.cli import ParseError, main

x = POLY_X


@pytest.fixture()
def curve_file(tmp_path, g1):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(g1.to_json()))
    return str(path)


# ----------------------------------------------------------------------
# expression parsing

def test_parse_examples(g1):
    f = parse_function_expr("x^2 + y", g1)
    assert f.a == x ** 2 and f.b == RatPolynomial([1])
    f2 = parse_function_expr("(1/2)*x*y - 3", g1)
    assert f2.a == RatPolynomial([-3])
    assert f2.b == x.scale("1/2")
    f3 = parse_function_expr("y^2", g1)
    assert f3.a == g1.h and f3.b.is_zero()


def test_parse_whitespace_insensitive(g1):
    assert parse_function_expr("x ^2+ y", g1) == parse_function_expr("x^2+y", g1)


def test_parse_errors_carry_positions(g1):
    with pytest.raises(ParseError) as err:
        parse_function_expr("x^2 + ", g1)
    assert "position" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_function_expr("x + $", g1)
    assert err.value.pos == 4
    with pytest.raises(ParseError):
        parse_function_expr("x / y", g1)  # non-constant divisor
    with pytest.raises(ParseError):
        parse_function_expr("1/0", g1)


def test_parse_fuzz_never_crashes(g1):
    rng = random.Random(2024)
    alphabet = "xy+-*/^() 0123456789$"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 14)))
        try:
            parse_function_expr(text, g1)
        except (ParseError, InvalidInput, ZeroDivisionError):
            pass


def test_parse_poly_rejects_y():
    with pytest.raises((ParseError, InvalidInput)):
        parse_poly_expr("x + y")
    assert parse_poly_expr("x^4-10*x^2+1") == x ** 4 - 10 * x ** 2 + 1


# ----------------------------------------------------------------------
# divisor mini-language

def test_parse_divisor_forms(g1):
    assert parse_divisor("4*inf", g1) == Divisor([(INFINITY, 4)])
    D = parse_divisor("place(u=x-2,v=3)+place(u=x+2)", g1)
    kinds = sorted(p.kind for p in D.support())
    assert kinds == ["inert", "split"]
    D2 = parse_divisor("2*place(u=x+1) + inf", g1)
    assert D2.mult(Place("ramified", x + 1)) == 2
    assert D2.infinity_mult() == 1


def test_parse_divisor_ambiguous_split(g1):
    with pytest.raises(InvalidInput):
        parse_divisor("place(u=x-2)", g1)
    with pytest.raises(InvalidInput):
        parse_divisor("place(u=x-2,v=5)", g1)  # 5^2 != h(2)


# ----------------------------------------------------------------------
# subcommands

def test_curve_info(curve_file, capsys):
    assert main(["curve-info", curve_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["genus"] == 1 and out["schema_version"] == 1


def test_curve_info_singular(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"h": ["0", "0", "-1", "1"]}))  # x^3 - x^2
    assert main(["curve-info", str(path)]) == 1


def test_rr_basis_cli(curve_file, capsys):
    assert main(["rr-basis", curve_file, "--divisor", "4*inf"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dimension"] == 4
    names = {(tuple(b["a"]), tuple(b["b"])) for b in out["basis"]}
    assert (("0", "0", "1"), ()) in names  # x^2
    assert ((), ("1",)) in names  # y


def test_function_degree_cli(curve_file, capsys):
    assert main(["function-degree", curve_file, "--function", "x^2+y"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degree"] == 4
    assert out["pole_divisor"]["infinity"] == 4


def test_contr_cli(curve_file, capsys):
    rc = main(
        ["contr", curve_file, "--divisor",
         "place(u=x-2,v=3)+place(u=x-2,v=-3)+place(u=x+2)"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["contractions"]) == 1
    entry = out["contractions"][0]
    assert entry["degree"] == 2
    assert entry["dimension_comparison"]["holds"] is True


def test_certify_cli(curve_file, capsys):
    assert main(["certify", "--poly", "x^4-10*x^2+1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "imprimitive"
    assert out["witness"]["minpoly"] == ["-2", "0", "1"]
    assert main(["certify", "--poly", "x^5-2", "--paranoid"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "primitive" and out["reverified"]


def test_certify_reducible_exit_1(capsys):
    assert main(["certify", "--poly", "x^4-1"]) == 1


def test_prospect_cli_and_seed_determinism(curve_file, capsys):
    args = ["prospect", curve_file, "--function", "x^2+y", "--t-height", "6",
            "--seed", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["counts"]["primitive_points"] >= 1


def test_prospect_paranoid_cross_check(curve_file, capsys):
    assert main(["prospect", curve_file, "--function", "x^2+y",
                 "--t-height", "4", "--paranoid"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["paranoid"] is True
    assert data["counts"]["primitive_points"] >= 1


def test_density_cli(curve_file, capsys):
    rc = main(
        ["density", curve_file, "--divisor", "4*inf", "--coeff-height", "1"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["fractions"]["imprimitive"] == "9/40"


def test_find_function_cli(curve_file, capsys):
    assert main(["find-function", curve_file, "--degree", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reverified"] is True
    assert out["degree"] == 4


def test_find_function_budget_exit_3(curve_file, monkeypatch):
    import primpoints.cli as cli

    def exhausted(*args, **kwargs):
        raise SearchBudgetExhausted("forced")

    monkeypatch.setattr(cli, "find_primitive_function", exhausted)
    assert main(["find-function", curve_file, "--degree", "4"]) == 3


def test_unknown_flag_rejected(curve_file, capsys):
    assert main(["curve-info", curve_file, "--bogus"]) == 1
    assert main(["prospect", curve_file, "--function", "x^2+y", "--jobs", "2"]) == 1
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert main(["certify", "--poly", "x^5-2", "--seed", "1"]) == 1


def test_bounds_checked_flags(curve_file):
    assert main(["density", curve_file, "--divisor", "4*inf",
                 "--coeff-height", "0"]) == 1
    assert main(["prospect", curve_file, "--function", "x", "--t-height",
                 "-4"]) == 1
    # work budgets
    assert main(["function-degree", curve_file, "--function", "x^513"]) == 1
    assert main(["function-degree", curve_file, "--function", "x^512"]) == 0
    assert main(["function-degree", curve_file, "--function",
                 "x^" + "9" * 5000]) == 1
    assert main(["density", curve_file, "--divisor", "4*inf", "--coeff-height",
                 "1", "--samples", "100001"]) == 1
    # (2*4+1)^7 - 1 = 4782968 vectors in the exhaustive box of L(7*inf)
    assert main(["density", curve_file, "--divisor", "7*inf",
                 "--coeff-height", "4"]) == 1
    # sum of |m| * deg P over the divisor's terms
    assert main(["rr-basis", curve_file, "--divisor",
                 "63*inf+place(u=x-2,v=3)"]) == 0
    assert main(["rr-basis", curve_file, "--divisor",
                 "64*inf+place(u=x-2,v=3)"]) == 1
    assert main(["rr-basis", curve_file, "--divisor", "800*inf"]) == 1
    assert main(["rr-basis", curve_file, "--divisor", "-65*inf"]) == 1
    assert main(["rr-basis", curve_file, "--divisor", "place(u=x^65+2)"]) == 1


def test_output_file(curve_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["curve-info", curve_file, "--output", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert data["genus"] == 1


def test_report_round_trip(curve_file, capsys, g1):
    assert main(["function-degree", curve_file, "--function", "x^2+y"]) == 0
    out = json.loads(capsys.readouterr().out)
    D = Divisor.from_json(out["pole_divisor"])
    assert D == Divisor([(INFINITY, 4)])
    from primpoints import CurveFunction

    f = CurveFunction.from_json(g1, out["function"])
    assert f == g1.function(x ** 2, RatPolynomial([1]))


def test_certificate_round_trip(capsys):
    from primpoints import PrimitivityCertificate, is_primitive_field

    for poly in ("x^4-10*x^2+1", "x^5-2", "x^4-x^3-4*x^2+3"):
        assert main(["certify", "--poly", poly]) == 0
        out = json.loads(capsys.readouterr().out)
        cert = PrimitivityCertificate.from_json(out)
        fresh = is_primitive_field(parse_poly_expr(poly).monic())
        assert cert.verdict == fresh.verdict
        assert cert.modulus == fresh.modulus
        assert cert.verify()
        if cert.witness is not None:
            assert cert.witness.generator == fresh.witness.generator


def test_report_json_idempotent(curve_file, capsys):
    # re-serializing a parsed report is the identity on the wire format
    assert main(["prospect", curve_file, "--function", "x^2+y",
                 "--t-height", "5"]) == 0
    first = capsys.readouterr().out
    parsed = json.loads(first)
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == first + (
        "" if first.endswith("\n") else "\n"
    )
