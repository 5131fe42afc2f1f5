"""The package holds no dead helpers: every module-level def or class is
referenced elsewhere in the package or exported by primpoints.  A name that
only the benchmark's span recorder (perfbench/spans.py) looks up by string
does not count as used.

An attribute counts as a reference only on a primpoints module name
(``exactalg.x``): a method of the same name, such as
``FactorList.is_irreducible``, does not keep a module-level helper alive."""

import ast
from pathlib import Path

import primpoints

SRC = Path(primpoints.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")}


def _used_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in MODULES
        ):
            yield sub.attr


def test_every_module_level_definition_is_used():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 9
    init = ast.parse((SRC / "__init__.py").read_text())
    used = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    definitions = []
    for path in files:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = set(_used_names(stmt))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.name, stmt.lineno, stmt.name, names))
            else:
                used.update(names)
    for _, _, name, names in definitions:
        # a recursive call or a method naming its own class is no use
        used.update(names - {name})
    dead = [f"{f}:{line}: {name}" for f, line, name, _ in definitions if name not in used]
    assert dead == []
