"""The package computes exactly: its source holds no float or complex
literal and calls neither float() nor round()."""

import ast
from pathlib import Path

import primpoints

SRC = Path(primpoints.__file__).parent


def _float_uses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "round")
        ):
            yield node.lineno, f"{node.func.id}(...)"


def test_no_floating_point_in_package():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 9
    found = [f"{p.name}:{line}: {what}" for p in files for line, what in _float_uses(p)]
    assert found == []
