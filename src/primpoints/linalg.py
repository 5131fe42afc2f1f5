"""Exact linear algebra over Q (row reduction, kernels, solving).

Matrices are lists of rows; rows are lists of Fraction.  Everything is
fraction-free in spirit but plain Fraction arithmetic in practice; the sizes
that appear in this package (tens of rows) never warrant more machinery.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows):
    """Reduced row-echelon form.  Returns (new_rows, pivot_columns)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r] + [[Fraction(0)] * ncols for _ in range(len(m) - r)], pivots


def nullspace(rows, ncols=None):
    """Basis of {v : M v = 0}, echelonized, free variables set to 1."""
    if not rows:
        if ncols is None:
            return []
        basis = []
        for i in range(ncols):
            v = [Fraction(0)] * ncols
            v[i] = Fraction(1)
            basis.append(v)
        return basis
    ncols = len(rows[0]) if ncols is None else ncols
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One solution of M x = rhs, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None  # pivot in the rhs column: inconsistent
        x[pc] = red[r][ncols]
    return x


def in_span(basis_rows, vector):
    """Coordinates of vector in span(basis_rows), or None if outside."""
    if not basis_rows:
        return None if any(x != 0 for x in vector) else []
    cols = [list(r) for r in basis_rows]
    m = [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))]
    coords = solve(m, vector)
    if coords is None:
        return None
    # solve() ignores non-pivot consistency rows only when rref caught them;
    # verify exactly.
    for i, row in enumerate(m):
        if sum(a * b for a, b in zip(row, coords)) != vector[i]:
            return None
    return coords

