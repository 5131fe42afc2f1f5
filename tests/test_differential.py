"""Differential tests of exact polynomial arithmetic against sympy.

Factorization over Q, resultants and discriminants of random integer
polynomials (degree <= 8, coefficients in [-20, 20]) must agree with
sympy's.  sympy is only a test-time oracle; the module is skipped when it is
not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from primpoints import RatPolynomial, factor_over_rationals, resultant
from primpoints.exactalg import discriminant

sympy = pytest.importorskip("sympy")
from sympy.polys.subresultants_qq_zz import sylvester  # noqa: E402

X = sympy.Symbol("x")

# ascending coefficients with a nonzero leading one: degree 0..8
int_polys = st.tuples(
    st.lists(st.integers(-20, 20), max_size=8),
    st.integers(-20, 20).filter(lambda c: c != 0),
).map(lambda t: RatPolynomial(t[0] + [t[1]]))
positive_degree_polys = int_polys.filter(lambda p: p.degree >= 1)

DIFFERENTIAL = settings(max_examples=60, deadline=None)


def to_sympy(p: RatPolynomial):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], X, domain="QQ")


def to_fraction(c) -> Fraction:
    c = sympy.Rational(c)
    return Fraction(int(c.p), int(c.q))


def sympy_factorization(p: RatPolynomial):
    """(unit, sorted monic factor multiset) from sympy.factor_list."""
    coeff, factors = sympy.factor_list(to_sympy(p))
    unit = to_fraction(coeff)
    out = []
    for f, m in factors:
        unit *= to_fraction(f.LC()) ** m
        monic = tuple(to_fraction(c) for c in reversed(f.monic().all_coeffs()))
        out.append((monic, m))
    return unit, sorted(out)


@DIFFERENTIAL
@given(int_polys)
def test_factorization_matches_sympy(p):
    fl = factor_over_rationals(p)
    ours = sorted((f.coeffs, m) for f, m in fl.factors)
    assert (fl.unit, ours) == sympy_factorization(p)


@DIFFERENTIAL
@given(int_polys, int_polys)
def test_resultant_matches_sympy(p, q):
    # the oracle is the Sylvester determinant itself: sympy.resultant 1.14
    # flips the sign when deg p < deg q and deg p * deg q is odd
    # (it gives -1 for Res(x, x^3 + 1))
    sylv = sylvester(to_sympy(p).as_expr(), to_sympy(q).as_expr(), X)
    assert resultant(p, q) == to_fraction(sylv.det())


@DIFFERENTIAL
@given(positive_degree_polys)
def test_discriminant_matches_sympy(p):
    assert discriminant(p) == to_fraction(sympy.discriminant(to_sympy(p)))
