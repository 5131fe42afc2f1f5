"""Differential tests of exact polynomial arithmetic against sympy.

Factorization over Q and resultants of random integer polynomials (degree
<= 8, coefficients in [-20, 20]) must agree with sympy's.  So must, over
random number fields Q[x]/(m) of degree 2-6, the Trager factorization of m,
the square-or-not verdict of nf_sqrt, and the minimal polynomials of
field elements (against the squarefree part of the characteristic
polynomial of multiplication by the element).  A quartic or sextic field
that Frobenius cycle types prove primitive must have a primitive Galois
group by sympy's galois_group, and a quartic with a cycle type [1, 3]
among its first good primes must have group A4 or S4 and a resolvent cubic
with no rational root.  Over F_p, factor_mod_p and the cycle types that
_cycle_types yields must match sympy's factorization modulo p.  sympy is
only a test-time oracle; the module is skipped when it is not installed.
"""

from fractions import Fraction
from itertools import islice, takewhile

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from functools import partial

from primpoints import (
    POLY_ONE,
    POLY_X,
    NfPolynomial,
    NumberField,
    RatPolynomial,
    curve_new,
    factor_over_rationals,
    fiber_polynomial,
    is_squarefree,
    nf_sqrt,
    rational_roots,
    resolvent_cubic,
    resultant,
    trager_factor,
)
from primpoints.exactalg import _cycle_types, factor_mod_p, is_prime
from primpoints.galois import _QUARTIC_PRIMES, _primitive_or_cycle, _quartic_primitive
from primpoints.numfield import _cofactor_norm, _squarefree_norm

sympy = pytest.importorskip("sympy")
from sympy.polys.numberfields.galoisgroups import galois_group  # noqa: E402
from sympy.polys.subresultants_qq_zz import sylvester  # noqa: E402

X = sympy.Symbol("x")
Y = sympy.Symbol("y")

# ascending coefficients with a nonzero leading one: degree 0..8
int_polys = st.tuples(
    st.lists(st.integers(-20, 20), max_size=8),
    st.integers(-20, 20).filter(lambda c: c != 0),
).map(lambda t: RatPolynomial(t[0] + [t[1]]))

DIFFERENTIAL = settings(max_examples=60, deadline=None)
# a sympy factorization over a number field takes up to a third of a second
FIELD_DIFFERENTIAL = settings(max_examples=15, deadline=None)


def monic_irreducible(min_degree, max_degree):
    """Monic irreducible integer polynomials, coefficients in [-9, 9]."""
    return (
        st.integers(min_degree, max_degree)
        .flatmap(lambda d: st.lists(st.integers(-9, 9), min_size=d, max_size=d))
        .map(lambda c: RatPolynomial(c + [1]))
        .filter(lambda m: factor_over_rationals(m).is_irreducible())
    )


def to_sympy(p: RatPolynomial):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], X, domain="QQ")


def in_y(p: RatPolynomial):
    return to_sympy(p).as_expr().subs(X, Y)


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


def test_composite_fiber_norm_factorization_matches_sympy():
    # g^3 + g with g = x^2 + y on y^2 = x^3 + 1: the fiber at t = 3 is a
    # degree-12 field, whose principal subfields factor the degree-132 norm
    # of its cofactor over Q.  Recombining the Hensel factors of that norm
    # took about a minute before candidates were screened by constant term.
    x = POLY_X
    curve = curve_new(x ** 3 + 1)
    g = curve.function(x ** 2, POLY_ONE)
    m, _ = fiber_polynomial(curve, g * g * g + g, Fraction(3))
    assert m == RatPolynomial(
        [5, 0, -24, -8, 4, -18, -11, 6, -1, -1, 3, -3, 1]
    )
    _, norm = _squarefree_norm(partial(_cofactor_norm, m, m))
    assert norm.degree == 132
    fl = factor_over_rationals(norm)
    assert [(f.degree, e) for f, e in fl.factors] == [(36, 1), (96, 1)]
    assert (fl.unit, sorted((f.coeffs, e) for f, e in fl.factors)) == sympy_factorization(norm)


@DIFFERENTIAL
@given(int_polys, int_polys)
def test_resultant_matches_sympy(p, q):
    # the oracle is the Sylvester determinant itself: sympy.resultant 1.14
    # flips the sign when deg p < deg q and deg p * deg q is odd
    # (it gives -1 for Res(x, x^3 + 1))
    sylv = sylvester(to_sympy(p).as_expr(), to_sympy(q).as_expr(), X)
    assert resultant(p, q) == to_fraction(sylv.det())


@FIELD_DIFFERENTIAL
@given(monic_irreducible(2, 6))
def test_trager_matches_sympy_over_own_field(m):
    # m over Q[x]/(m): the degrees of its factors over its own field
    L = NumberField(m, check=False)
    f = NfPolynomial.from_rat(L, m)
    fact = trager_factor(f)
    assert fact.expand() == f
    theta = sympy.CRootOf(in_y(m), 0)
    _, factors = sympy.factor_list(to_sympy(m).as_expr(), X, extension=theta)
    theirs = sorted(sympy.degree(g, X) for g, e in factors for _ in range(e))
    assert sorted(g.degree for g, e in fact.factors for _ in range(e)) == theirs


@DIFFERENTIAL
@given(
    monic_irreducible(2, 6),
    st.lists(st.integers(-5, 5), min_size=6, max_size=6),
    st.integers(1, 3),
    st.booleans(),
)
# a rational square: the shift walk passes over k = 0
@example(RatPolynomial([1, 0, 1]), [4, 0, 0, 0, 0, 0], 1, True)
def test_nf_sqrt_matches_sympy(m, row, den, square):
    # alpha is a square in Q[x]/(m) exactly when z^2 - alpha has a linear
    # factor over the field, by sympy's factorization over QQ<theta>
    L = NumberField(m, check=False)
    alpha = L.element([Fraction(c, den) for c in row[: L.degree]])
    assume(not alpha.is_zero())
    if square:
        alpha = alpha * alpha
    K = sympy.QQ.algebraic_field(sympy.CRootOf(in_y(m), 0))
    theta = K.from_sympy(K.ext)
    a = sum((K.convert(sympy.Rational(c.numerator, c.denominator)) * theta ** i
             for i, c in enumerate(alpha.coeffs)), K.zero)
    _, factors = sympy.Poly.from_list([K.one, K.zero, -a], sympy.Symbol("z"), domain=K).factor_list()
    root = nf_sqrt(L, alpha)
    assert (root is not None) == (factors[0][0].degree() == 1)
    assert root is None or root * root == alpha
    assert root is not None or not square


@FIELD_DIFFERENTIAL
@given(
    monic_irreducible(2, 4),
    st.lists(st.integers(-5, 5), min_size=4, max_size=4),
)
def test_minimal_polynomial_matches_sympy(m, coords):
    # the oracle is the squarefree part of the characteristic polynomial of
    # multiplication by a, i.e. of a(C) for the companion matrix C of m:
    # sympy.minimal_polynomial on a CRootOf expression can take minutes
    L = NumberField(m, check=False)
    a = L.element(coords[: L.degree])
    companion = sympy.Matrix(L.degree, L.degree, lambda i, j: (
        -sympy.Rational(m[i].numerator, m[i].denominator) if j == L.degree - 1
        else int(i == j + 1)
    ))
    mult = sum(
        (c * companion ** i for i, c in enumerate(coords[: L.degree])),
        sympy.zeros(L.degree, L.degree),
    )
    theirs = sympy.Poly(sympy.sqf_part(mult.charpoly(X).as_expr()), X).monic()
    assert a.minimal_polynomial() == RatPolynomial(
        [to_fraction(c) for c in reversed(theirs.all_coeffs())]
    )


monic_of_degree = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.integers(-5, 5), min_size=d, max_size=d)
).map(lambda c: RatPolynomial(c + [1]))
# imprimitive g(h(x)) of degree 4 and 6 beside random quartics and sextics
quartics_and_sextics = st.one_of(
    monic_irreducible(4, 4),
    monic_irreducible(6, 6),
    st.tuples(monic_of_degree, monic_of_degree)
    .map(lambda gh: gh[0](gh[1]))
    .filter(lambda m: m.degree in (4, 6) and factor_over_rationals(m).is_irreducible()),
)


@DIFFERENTIAL
@given(quartics_and_sextics)
def test_frobenius_primitive_matches_sympy_galois_group(m):
    group, _ = galois_group(to_sympy(m))
    if _primitive_or_cycle(_cycle_types(m.nums), m.degree)[0]:
        assert group.is_primitive()


@DIFFERENTIAL
@given(monic_irreducible(4, 4))
@example(RatPolynomial([12, 8, 0, 0, 1]))  # x^4 + 8x + 12, group A4
def test_three_cycle_quartic_is_a4_or_s4(m):
    _, zc = m.to_zpoly()
    types = [degrees for _, degrees in islice(_cycle_types(zc), _QUARTIC_PRIMES)]
    # the general rules decide a quartic exactly as the [1, 3] rule they replaced
    assert _quartic_primitive(_cycle_types(zc)) == ([1, 3] in types)
    if [1, 3] in types:
        group, _ = galois_group(to_sympy(m))
        assert group.order() in (12, 24)
        assert rational_roots(resolvent_cubic(m)) == []


SMALL_PRIMES = [p for p in range(2, 60) if is_prime(p)]


def sympy_factors_mod_p(zc, p):
    """[(monic factor as an ascending list of residues, multiplicity)]
    of zc modulo p by sympy, sorted as factor_mod_p sorts them."""
    _, factors = sympy.Poly(list(reversed(zc)), X, modulus=p).factor_list()
    out = [([int(c) % p for c in reversed(f.all_coeffs())], m) for f, m in factors]
    return sorted(out, key=lambda fm: (len(fm[0]), fm[0]))


@DIFFERENTIAL
@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=12),
    st.integers(1, 30),
    st.sampled_from(SMALL_PRIMES),
    st.integers(0, 999),
)
def test_factor_mod_p_matches_sympy(lower, lead, p, seed):
    zc = lower + [lead]
    assume(lead % p)
    assert factor_mod_p(zc, p, seed=seed) == sympy_factors_mod_p(zc, p)


@DIFFERENTIAL
@given(int_polys)
def test_cycle_types_match_sympy(poly):
    assume(poly.degree >= 1 and is_squarefree(poly))
    _, zc = poly.to_zpoly()
    ours = list(takewhile(lambda pair: pair[0] < 60, _cycle_types(zc)))
    theirs = []
    for p in SMALL_PRIMES:
        if zc[-1] % p == 0:
            continue
        factors = sympy_factors_mod_p(zc, p)
        if all(m == 1 for _, m in factors):
            theirs.append((p, sorted(len(f) - 1 for f, _ in factors)))
    assert ours == theirs
