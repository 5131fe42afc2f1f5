import argparse
import contextlib
import io
import json
import os
import random
import string
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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
import primpoints
from primpoints import cli, exactalg
from primpoints.cli import ParseError, build_parser, main
from primpoints.contract import MAX_CONTR_PLACES

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


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from(list("0123456789²³٣½xy+-*/^() ")), max_size=10))
@example("x^²")
@example("2²")
def test_parse_reads_only_the_digits_int_reads(g1, text):
    # str.isdigit also accepts superscripts, which int() refuses
    for parse in (parse_poly_expr, lambda t: parse_function_expr(t, g1)):
        try:
            parse(text)
        except InvalidInput:
            pass
    assert parse_poly_expr("x^٣") == x ** 3


def test_non_ascii_digit_and_deep_curve_file_exit_1(curve_file, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text('{"h": ' + "[" * 100_000 + "]" * 100_000 + "}")
    for argv in (
        ["certify", "--poly", "x^²"],
        ["prospect", curve_file, "--function", "2²"],
        ["curve-info", str(deep)],
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv


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


CERTIFY_PARANOID_PINNED = Path(__file__).with_name("certify_paranoid_pinned.json")


def test_certify_paranoid_pinned(capsys):
    # a primitive quintic, an imprimitive V4 quartic, an A4 quartic and the
    # imprimitive stream-sextic tail field keep their reports' bytes
    for case in json.loads(CERTIFY_PARANOID_PINNED.read_text()):
        assert main(list(case["argv"])) == case["exit"], case["argv"]
        assert capsys.readouterr().out == case["stdout"], case["argv"]


def test_certify_reducible_exit_1(capsys):
    assert main(["certify", "--poly", "x^4-1"]) == 1


def test_certify_constant_exit_1(capsys):
    assert main(["certify", "--poly", "5"]) == 1
    assert capsys.readouterr().err.strip() == "error: modulus must have positive degree"


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


def test_prospect_bytes_do_not_depend_on_the_cycle_type_memo(curve_file, capsys, monkeypatch):
    # a stream-quartic call, cold, warm, and with the memo bypassed
    args = ["prospect", curve_file, "--function", "x^2 + y + x - 2", "--t-height", "120"]
    memo = exactalg._p_cycle_type
    memo.cache_clear()
    reports, misses = [], []
    for bypass in (False, False, True):
        if bypass:
            monkeypatch.setattr(exactalg, "_p_cycle_type", memo.__wrapped__)
        assert main(args) == 0
        reports.append(capsys.readouterr().out)
        misses.append(memo.cache_info().misses)
    assert reports[0] == reports[1] == reports[2]
    # the second call found every residue in the memo; the third bypassed it
    assert 0 < misses[0] == misses[1] == misses[2]
    assert json.loads(reports[0])["counts"]["primitive_points"] >= 1


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
    # contraction enumeration walks subsets of the support: one place more
    # than MAX_CONTR_PLACES (11 inert places, degree 22) is refused
    inert = [f"place(u=x-{c})" for c in (1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)]
    assert len(inert) == MAX_CONTR_PLACES + 1
    assert main(["contr", curve_file, "--divisor", "+".join(inert)]) == 1


def test_degree_in_x_is_bounded(curve_file, tmp_path, capsys):
    # a product or power past degree MAX_EXPONENT in x is refused before it
    # is formed; both inputs once ran for minutes
    for text in ("x^512*x^512*x^512*x^512+x+1", "(x^512+1)^512"):
        start = time.perf_counter()
        assert main(["certify", "--poly", text]) == 1
        assert main(["function-degree", curve_file, "--function", text]) == 1
        assert time.perf_counter() - start < 0.5
        assert "degree in x above 512" in capsys.readouterr().err
    # y counts deg h / 2 = 3/2: y^342 has pole order 1026 > 2 * 512
    assert main(["function-degree", curve_file, "--function", "y^342"]) == 1
    assert main(["function-degree", curve_file, "--function", "x*x^511"]) == 0
    # a curve of degree 513 is refused before any work on it
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"h": ["1"] + ["0"] * 512 + ["1"]}))
    start = time.perf_counter()
    assert main(["curve-info", str(big)]) == 1
    assert time.perf_counter() - start < 0.5
    assert "curve degree 513 above 512" in capsys.readouterr().err


def test_seed_lower_bound_message(capsys):
    # --seed has a lower bound only; argparse reads -1 as a value, joined or not
    for argv in (
        ["prospect", "c.json", "--function", "x", "--seed", "-1"],
        ["prospect", "c.json", "--function", "x", "--seed=-1"],
        ["density", "c.json", "--divisor", "4*inf", "--coeff-height", "1", "--seed", "-1"],
        ["density", "c.json", "--divisor", "4*inf", "--coeff-height", "1", "--seed=-1"],
    ):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == "error: argument --seed: must be >= 0\n", argv


@pytest.mark.parametrize("content", [
    b'["h"]',
    b'{"h": [1, 0, 0, 1]}',
    b'{"h": [1.5, 2]}',
    b'{"h": "x"}',
    b'{"h": ["1/0", "1"]}',
    b'{"h": [' + b"1" * 4301 + b']}',
    b'{"h": ["1", "0", "0", "1"]}\xff',
], ids=["list", "int-entries", "float-entries", "string", "zero-denominator",
        "int-past-4300-digits", "not-utf8"])
def test_malformed_curve_file_exit_1(content, tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_bytes(content)
    assert main(["curve-info", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("literal", ["1e100000", "1e10000000"])
def test_exponent_literal_in_curve_file_exit_1(literal, tmp_path, capsys):
    # Fraction would build 10^(10^7) from ten bytes before any check
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"h": [literal, "0", "0", "1"]}))
    start = time.perf_counter()
    assert main(["curve-info", str(path)]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_directory_as_curve_exit_1(tmp_path, capsys):
    assert main(["curve-info", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_directory_as_output_exit_1(curve_file, tmp_path, capsys):
    assert main(["curve-info", curve_file, "--output", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


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


# ----------------------------------------------------------------------
# help, usage errors and exit codes

CLI_PINNED = Path(__file__).with_name("cli_pinned.json")


def test_help_and_usage_errors_pinned(tmp_path, monkeypatch):
    # recorded with every subcommand's parser built; --help of the program
    # and of each subcommand, usage errors and exit codes keep their bytes
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    for case in json.loads(CLI_PINNED.read_text()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(case["argv"]))
            except SystemExit as exc:
                code = exc.code
        assert code == case["exit"], case["argv"]
        assert (out.getvalue(), err.getvalue()) == (case["stdout"], case["stderr"])


# the README's examples; density's box is 5^4 vectors, not the README's 17^4
README_CALLS = [
    ["curve-info", "curve.json"],
    ["rr-basis", "curve.json", "--divisor", "4*inf"],
    ["function-degree", "curve.json", "--function", "x^2 + y"],
    ["contr", "curve.json", "--divisor",
     "place(u=x-2,v=3)+place(u=x-2,v=-3)+place(u=x+2)"],
    ["certify", "--poly", "x^4-10*x^2+1"],
    ["prospect", "curve.json", "--function", "x^2+y", "--t-height", "200"],
    ["density", "curve.json", "--divisor", "4*inf", "--coeff-height", "2"],
    ["find-function", "curve.json", "--degree", "4"],
]


def test_well_formed_calls_build_no_parser(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "curve.json").write_text('{"h": ["1", "0", "0", "1"]}')
    assert sorted(argv[0] for argv in README_CALLS) == sorted(cli._COMMANDS)
    for argv in README_CALLS:
        assert main(argv) == 0, argv
    assert built == []
    capsys.readouterr()

    # help, an abbreviated option and a usage error go through argparse
    pinned = {tuple(case["argv"]): case for case in json.loads(CLI_PINNED.read_text())}
    for argv in (["--help"], ["certify"]):
        case = pinned[tuple(argv)]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert built and code == case["exit"], argv
        assert capsys.readouterr() == (case["stdout"], case["stderr"]), argv
        built.clear()
    box = ["--divisor", "4*inf", "--coeff-height", "1"]
    assert main(["density", "curve.json", "--output", "exact.json", *box]) == 0
    assert built == []
    exact = capsys.readouterr()
    assert main(["density", "curve.json", "--out", "short.json", *box]) == 0
    assert built
    assert capsys.readouterr() == exact
    assert (tmp_path / "short.json").read_bytes() == (tmp_path / "exact.json").read_bytes()


_FLAGS = sorted({name for _, _, args in cli._COMMANDS.values() for name, _ in args})
_VALUES = ["c.json", "x^2+y", "4*inf", "certify", "", "0", "1", "3", "64", "65",
           "100001", " 7", "+2", "1_0", "abc", "-1", "-x^2+y", "-4*inf"]
_ODD = ["--out", "--t-h", "--foo", "--output=r.json", "--seed=-1", "-h", "--help",
        "--", "-", "--bogus"]


@st.composite
def _command_lines(draw):
    """A subcommand's arguments drawn from its table row, shuffled, then
    damaged by a few insertions, deletions or replacements."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    groups = []
    for arg, kwargs in cli._COMMANDS[name][2]:
        if arg[0] != "-":
            groups.append([draw(st.sampled_from(_VALUES[:5]))])
        elif kwargs.get("required") or draw(st.booleans()):
            value = [] if "action" in kwargs else [draw(st.sampled_from(_VALUES))]
            groups.append([arg, *value])
    argv = [name] + [tok for group in draw(st.permutations(groups)) for tok in group]
    pool = _FLAGS + _VALUES + _ODD
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert" or at == len(argv):
            argv.insert(at, draw(st.sampled_from(pool)))
        elif edit == "delete":
            del argv[at]
        else:
            argv[at] = draw(st.sampled_from(pool))
    return argv


@settings(max_examples=600, deadline=None)
@given(_command_lines())
@example(["--foo", "curve-info", "c.json"])
@example(["curve-info", "-h"])
@example(["curve-info", "-1"])
@example(["function-degree", "c.json", "--function", "-x^2+y"])
@example(["function-degree", "c.json", "--function=-x^2+y"])
@example(["density", "c.json", "--out", "r.json", "--divisor", "4*inf", "--coeff-height", "1"])
def test_table_parse_matches_argparse(argv):
    table = cli._parse_exact(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            reference = build_parser().parse_args(argv)
    except (InvalidInput, SystemExit):
        assert table is None, argv
    else:
        assert table is None or table == reference, argv


# ----------------------------------------------------------------------
# python -m primpoints

@pytest.mark.parametrize("argv", [
    ["certify", "--poly", "x^4-10*x^2+1"],
    ["certify", "--poly", "x^4-1"],
    ["--help"],
    ["certify"],
])
def test_python_m_primpoints_is_main(argv, capsys, monkeypatch):
    # the same exit code and output as cli.main, and no runpy warning
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(Path(primpoints.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "primpoints", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (run.returncode, run.stdout, run.stderr) == (code, out, err)
    assert "Warning" not in run.stderr
