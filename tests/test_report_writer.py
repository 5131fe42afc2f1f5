"""cli._dumps writes every report as json.dumps(report, indent=2,
sort_keys=True) would, byte for byte; the reports' digests depend on it."""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import primpoints
from primpoints import cli

SRC = Path(primpoints.__file__).parent
TESTS = Path(__file__).parent


def reference(value):
    return json.dumps(value, indent=2, sort_keys=True)


def test_pinned_files_and_their_reports():
    files = sorted(TESTS.glob("*_pinned.json"))
    assert len(files) >= 4
    reports = 0
    for path in files:
        data = json.loads(path.read_text())
        assert cli._dumps(data) == reference(data), path.name
        for case in data:
            for value in (case.get("report"), case.get("stdout")):
                if isinstance(value, str) and value.startswith("{"):
                    assert cli._dumps(json.loads(value)) + "\n" == value, path.name
                    reports += 1
                elif isinstance(value, dict):
                    assert cli._dumps(value) == reference(value), path.name
                    reports += 1
    assert reports >= 10


@pytest.fixture()
def written(monkeypatch):
    """Every value cli._emit writes, checked against json as it is written."""
    values = []
    dumps = cli._dumps

    def checked(value, *pad):
        if pad:  # a subtree, written inside the report
            return dumps(value, *pad)
        text = dumps(value)
        assert text == reference(value)
        values.append(value)
        return text

    monkeypatch.setattr(cli, "_dumps", checked)
    return values


def test_every_subcommand_report(written, tmp_path, capsys):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"h": ["1", "0", "0", "1"]}))
    c = str(curve)
    runs = [
        ["curve-info", c],
        ["rr-basis", c, "--divisor", "4*inf+place(u=x-2,v=3)"],
        ["function-degree", c, "--function", "(x^2+y)/3"],
        ["contr", c, "--divisor", "place(u=x-2,v=3)+place(u=x-2,v=-3)+place(u=x+2)"],
        ["certify", "--poly", "x^4-10*x^2+1"],
        ["certify", "--poly", "x^5-2", "--paranoid"],
        ["prospect", c, "--function", "x^2 + y + x - 2", "--t-height", "40"],
        ["prospect", c, "--function", "x^2 - 3*x", "--t-height", "10"],
        ["density", c, "--divisor", "4*inf", "--coeff-height", "1"],
        ["find-function", c, "--degree", "4"],
    ]
    for argv in runs:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        assert out == reference(written[-1]) + "\n"
    assert len(written) == len(runs)
    # the subcommands write the names they own
    assert {"genus", "basis", "pole_divisor", "contractions", "verdict",
            "specializations", "counts"} <= {key for v in written for key in v}


scalars = (
    st.text()  # any code point: non-ASCII, quotes, backslashes, controls
    | st.text(alphabet='"\\\x00\x1f\x7f \ud800\U0001f600 ab', max_size=6)
    | st.integers()
    | st.integers(min_value=-(2 ** 200), max_value=2 ** 200)
    | st.booleans()
    | st.none()
)
trees = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.lists(st.text(max_size=4), max_size=5)
        | st.dictionaries(st.text(max_size=6), children, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_generated_trees(value):
    assert cli._dumps(value) == reference(value)


def test_the_edges_of_the_format():
    for value in ([], {}, (), [[]], {"a": {}}, [{}, []], "", 0, -0, 2 ** 64 + 1,
                  -(2 ** 70), True, False, None, ["é", "\n", '"'], {"b": 1, "a": [True, None]}):
        assert cli._dumps(value) == reference(value), value


@pytest.mark.parametrize("value", [
    1.5, float("nan"), Fraction(1, 2), {1, 2}, b"bytes", {1: "int key"}, [0.0],
    {"a": [1, {"b": 2.0}]},
])
def test_other_types_are_refused(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


def _indented_json_calls(path):
    """Lines of path that call json.dump or json.dumps with an indent."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "dumps")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
            and any(k.arg == "indent" for k in node.keywords)
        ):
            lines.append(node.lineno)
    return lines


def test_no_indented_json_in_package():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 9
    found = {p.name: _indented_json_calls(p) for p in files}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the detector sees such a call
    assert _indented_json_calls(TESTS / "test_report_writer.py")
