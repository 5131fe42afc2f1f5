"""The package has one dense polynomial product, exactalg._z_mul, for every
coefficient ring.  Only two kernels keep a convolution of their own: the
squaring branch of exactalg._p_mulmod, which forms each cross product once,
and hypcurve._trunc_mul, which stops at the precision of a truncated
series.  A convolution here is an update that adds into out[i + j]."""

import ast
from pathlib import Path

import primpoints

SRC = Path(primpoints.__file__).parent
ALLOWED = {"exactalg.py:_z_mul", "exactalg.py:_p_mulmod", "hypcurve.py:_trunc_mul"}


def _pair_index(node):
    """Whether node is a subscript out[i + j] of two names."""
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.BinOp)
        and isinstance(node.slice.op, ast.Add)
        and isinstance(node.slice.left, ast.Name)
        and isinstance(node.slice.right, ast.Name)
    )


def _accumulates(node):
    """Whether node is out[i + j] += ... or out[i + j] = out[i + j] + ...."""
    if isinstance(node, ast.AugAssign):
        return isinstance(node.op, ast.Add) and _pair_index(node.target)
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target, value = node.targets[0], node.value
        return (
            _pair_index(target)
            and isinstance(value, ast.BinOp)
            and isinstance(value.op, ast.Add)
            and ast.unparse(target) in (ast.unparse(value.left), ast.unparse(value.right))
        )
    return False


def _convolutions(path):
    """name of each function of path that holds a convolution -> first line;
    a method is named Class.method."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                if _accumulates(child) and scope:
                    found.setdefault(".".join(scope), child.lineno)
                visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return found


def test_one_dense_product_in_package():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 9
    found = {f"{p.name}:{name}": line for p in files for name, line in _convolutions(p).items()}
    assert set(found) - ALLOWED == set(), found
    # the detector still sees the kernels that are allowed one
    assert set(found) == ALLOWED
