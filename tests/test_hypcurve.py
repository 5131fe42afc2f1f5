import random
from fractions import Fraction
from itertools import product

import pytest

from primpoints import (
    DegreeUndefined,
    Divisor,
    INFINITY,
    InvalidInput,
    NotPrincipal,
    Place,
    POLY_ONE,
    POLY_X,
    POLY_ZERO,
    RatPolynomial,
    SingularModel,
    Unsupported,
    UnsupportedModel,
    cantor_reduce,
    curve_new,
    divisor_of,
    fiber_divisor,
    function_degree,
    function_series,
    function_valuation,
    function_with_divisor,
    infinity_series_xy,
    is_principal,
    places_over_x,
    pole_divisor,
    riemann_roch_basis,
    zero_divisor,
)
from primpoints.hypcurve import LaurentSeries, _rational_nth_root

x = POLY_X


def split_place(c, v):
    return Place("split", x - c, RatPolynomial([v]))


# ----------------------------------------------------------------------
# curve construction

def test_curve_new():
    assert curve_new(x ** 3 + 1).genus == 1
    assert curve_new(x ** 5 - 1).genus == 2
    with pytest.raises(SingularModel):
        curve_new(x ** 3 - x ** 2)
    with pytest.raises(UnsupportedModel):
        curve_new(x ** 4 - 1)


# ----------------------------------------------------------------------
# places

def test_places_split(g1):
    places = places_over_x(g1, x - 2)
    assert [p.kind for p in places] == ["split", "split"]
    assert sorted(p.v[0] for p in places) == [-3, 3]
    assert all(p.degree == 1 for p in places)


def test_places_ramified(g1):
    (p,) = places_over_x(g1, x + 1)
    assert p.kind == "ramified" and p.degree == 1


def test_places_inert(g1):
    (p,) = places_over_x(g1, x + 2)
    assert p.kind == "inert" and p.degree == 2


def test_places_higher_degree_split(g1):
    # h = x^3+1 = 4 mod (x^3 - 3), so y = +-2 on the fiber
    places = places_over_x(g1, x ** 3 - 3)
    assert [p.kind for p in places] == ["split", "split"]
    assert {str(p.v) for p in places} == {"2", "-2"}
    assert all(p.degree == 3 for p in places)


def test_places_reducible_rejected(g1):
    with pytest.raises(InvalidInput):
        places_over_x(g1, x ** 2 - 1)


# ----------------------------------------------------------------------
# valuations

def test_valuation_examples(g1):
    assert function_valuation(g1, g1.x, INFINITY) == -2
    assert function_valuation(g1, g1.y, INFINITY) == -3
    P = split_place(2, 3)
    assert function_valuation(g1, g1.function(x - 2), P) == 1
    R = Place("ramified", x + 1)
    assert function_valuation(g1, g1.function(x + 1), R) == 2


def test_valuation_split_cancellation(g1):
    # y - 3 vanishes at (2,3) but not at (2,-3)
    f = g1.y - 3
    assert function_valuation(g1, f, split_place(2, 3)) == 1
    assert function_valuation(g1, f, split_place(2, -3)) == 0


@pytest.mark.parametrize("fname", ["x", "y", "x2y", "xm2"])
def test_sum_formula(g1, g2, g3, fname):
    for curve in (g1, g2, g3):
        f = {
            "x": curve.x,
            "y": curve.y,
            "x2y": curve.function(x ** 2, POLY_ONE),
            "xm2": curve.function(x - 2),
        }[fname]
        div = divisor_of(curve, f)
        assert sum(m * p.degree for p, m in div.entries) == 0


def test_pole_divisor_examples(g1):
    assert pole_divisor(g1, g1.x) == Divisor([(INFINITY, 2)])
    assert function_degree(g1, g1.x) == 2
    assert pole_divisor(g1, g1.y) == Divisor([(INFINITY, 3)])
    assert function_degree(g1, g1.y) == 3
    f = g1.function(x ** 2, POLY_ONE)
    assert pole_divisor(g1, f) == Divisor([(INFINITY, 4)])
    assert function_degree(g1, f) == 4


def test_constant_degree_undefined(g1):
    with pytest.raises(DegreeUndefined):
        function_degree(g1, g1.function(RatPolynomial([5])))
    assert pole_divisor(g1, g1.function(RatPolynomial([5]))).is_zero()


# ----------------------------------------------------------------------
# Riemann-Roch spaces

def test_rr_infinity_examples(g1):
    rr = riemann_roch_basis(g1, Divisor([(INFINITY, 4)]))
    assert rr.dimension == 4
    reprs = {repr(f) for f in rr.basis}
    assert reprs == {"1", "x", "(0) + (1)*y", "x^2"}
    assert riemann_roch_basis(g1, Divisor([(INFINITY, 1)])).dimension == 1
    assert riemann_roch_basis(g1, Divisor.zero()).dimension == 1


def test_rr_rejects_non_effective(g1):
    with pytest.raises(Unsupported):
        riemann_roch_basis(g1, Divisor([(INFINITY, -1)]))


def _random_effective_divisor(curve, rng, max_deg=5):
    entries = []
    deg = 0
    attempts = 0
    while deg < max_deg and attempts < 10:
        attempts += 1
        kind = rng.choice(["inf", "split", "inert", "ram"])
        if kind == "inf":
            entries.append((INFINITY, 1))
            deg += 1
        elif kind == "split":
            c = rng.randint(-4, 4)
            places = places_over_x(curve, x - c, check=False)
            if places[0].kind == "split":
                entries.append((places[0], 1))
                deg += 1
        elif kind == "inert":
            c = rng.randint(-4, 4)
            places = places_over_x(curve, x - c, check=False)
            if places[0].kind == "inert" and deg + 2 <= max_deg:
                entries.append((places[0], 1))
                deg += 2
        else:
            c = rng.randint(-4, 4)
            places = places_over_x(curve, x - c, check=False)
            if places[0].kind == "ramified":
                entries.append((places[0], 1))
                deg += 1
    return Divisor(entries)


def test_rr_dimension_formula_random_divisors(g1, g2):
    rng = random.Random(9)
    for curve in (g1, g2):
        g = curve.genus
        for _ in range(8):
            D = _random_effective_divisor(curve, rng)
            if D.degree <= 2 * g - 2 or D.is_zero():
                continue
            rr = riemann_roch_basis(curve, D)
            assert rr.dimension == D.degree - g + 1, (curve.h, D)
            # every basis element satisfies div(f) + D >= 0 at the support
            for f in rr.basis:
                for place, mult in D.entries:
                    assert function_valuation(curve, f, place) >= -mult
                div = divisor_of(curve, f)
                assert (div + D).is_effective() or (div + D).is_zero()


def test_rr_combination_matches_basis_sum(g1, g2):
    rng = random.Random(3)
    for curve, D in (
        (g1, Divisor([(split_place(2, 3), 2), (INFINITY, 1)])),
        (g1, Divisor([(places_over_x(g1, x - 2)[0], 1), (places_over_x(g1, x + 1)[0], 1),
                      (INFINITY, 2)])),
        (g2, Divisor([(INFINITY, 10)])),
    ):
        rr = riemann_roch_basis(curve, D)
        for _ in range(20):
            vec = [rng.randint(-3, 3) for _ in range(rr.dimension)]
            expect = curve.function(RatPolynomial([0]))
            for c, b in zip(vec, rr.basis):
                expect = expect + b * Fraction(c)
            got = rr.combination(vec)
            assert (got.a, got.b, got.den) == (expect.a, expect.b, expect.den)


def test_rr_with_multiplicity(g1):
    P = split_place(2, 3)
    D = Divisor([(P, 2), (INFINITY, 1)])
    rr = riemann_roch_basis(g1, D)
    assert rr.dimension == D.degree - 1 + 1


# ----------------------------------------------------------------------
# fiber divisors

def test_fiber_examples(g1):
    fib, flag = fiber_divisor(g1, g1.x, Fraction(2))
    assert flag and fib == Divisor([(split_place(2, 3), 1), (split_place(2, -3), 1)])
    fib, flag = fiber_divisor(g1, g1.x, Fraction(-1))
    assert not flag and fib == Divisor([(Place("ramified", x + 1), 2)])
    f = g1.function(x ** 2)
    fib, flag = fiber_divisor(g1, f, Fraction(4))
    assert flag and fib.degree == 4
    kinds = sorted(p.kind for p in fib.support())
    assert kinds == ["inert", "split", "split"]


def test_fiber_degree_matches_function_degree(g1, g2):
    rng = random.Random(31)
    for curve in (g1, g2):
        space = riemann_roch_basis(curve, Divisor([(INFINITY, 2 * curve.genus + 3)]))
        checked = 0
        while checked < 50:
            f = None
            for b in space.basis:
                c = rng.randint(-3, 3)
                if c:
                    f = b * Fraction(c) if f is None else f + b * Fraction(c)
            if f is None or f.is_constant():
                continue
            t = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            fib, _ = fiber_divisor(curve, f, t)
            assert fib.degree == function_degree(curve, f)
            checked += 1


# ----------------------------------------------------------------------
# divisor class arithmetic

def test_principal_examples(g1):
    P, Pb = split_place(2, 3), split_place(2, -3)
    assert is_principal(g1, Divisor([(P, 1), (Pb, 1), (INFINITY, -2)]))
    assert not is_principal(g1, Divisor([(P, 1), (INFINITY, -1)]))
    # (2,3) has order 6: 2P = (0,1), 3P = (-1,0)
    two = cantor_reduce(g1, Divisor([(P, 2), (INFINITY, -2)]))
    assert two == (x, RatPolynomial([1]))
    three = cantor_reduce(g1, Divisor([(P, 3), (INFINITY, -3)]))
    assert three == (x + 1, RatPolynomial())
    assert is_principal(g1, Divisor([(P, 6), (INFINITY, -6)]))
    for k in range(1, 6):
        assert not is_principal(g1, Divisor([(P, k), (INFINITY, -k)]))


def test_principal_requires_degree_zero(g1):
    with pytest.raises(InvalidInput):
        is_principal(g1, Divisor([(INFINITY, 1)]))


def test_principal_invariant_under_function_divisors(g1):
    rng = random.Random(12)
    P = split_place(2, 3)
    base = Divisor([(P, 2), (INFINITY, -2)])
    verdict = is_principal(g1, base)
    for _ in range(5):
        c = rng.randint(-5, 5)
        places = places_over_x(g1, x - c, check=False)
        extra = Divisor([(p, 1) for p in places]) - Divisor(
            [(INFINITY, sum(p.degree for p in places))]
        )
        assert is_principal(g1, base + extra) == verdict


def test_principal_genus2(g2):
    # div(x - 1) on y^2 = x^5 - 1 passes through the ramified point x=1
    places = places_over_x(g2, x - 1)
    assert places[0].kind == "ramified"
    D = Divisor([(places[0], 2), (INFINITY, -2)])
    assert is_principal(g2, D)
    assert not is_principal(g2, Divisor([(places[0], 1), (INFINITY, -1)]))


# ----------------------------------------------------------------------
# functions with prescribed divisors

def test_function_with_divisor_examples(g1):
    P, Pb = split_place(2, 3), split_place(2, -3)
    f = function_with_divisor(
        g1, Divisor([(P, 1), (Pb, 1)]), Divisor([(INFINITY, 2)])
    )
    assert f == g1.function(x - 2)
    R = Place("ramified", x + 1)
    f2 = function_with_divisor(g1, Divisor([(R, 2)]), Divisor([(INFINITY, 2)]))
    assert f2 == g1.function(x + 1)
    with pytest.raises(NotPrincipal):
        function_with_divisor(g1, Divisor([(P, 1)]), Divisor([(INFINITY, 1)]))


def test_function_with_divisor_exactness(g1):
    P, Pb = split_place(2, 3), split_place(2, -3)
    Q = places_over_x(g1, x + 2)[0]
    d0 = Divisor([(P, 1), (Pb, 1)])
    dinf = Divisor([(Q, 1)])
    f = function_with_divisor(g1, d0, dinf)
    assert zero_divisor(g1, f) == d0
    assert pole_divisor(g1, f) == dinf


def test_function_with_divisor_disjointness(g1):
    P = split_place(2, 3)
    with pytest.raises(InvalidInput):
        function_with_divisor(g1, Divisor([(P, 1)]), Divisor([(P, 1)]))


# ----------------------------------------------------------------------
# expansions at infinity

def test_series_satisfy_curve_equation(g1, g2, g3):
    for curve, nterms in product((g1, g2, g3), (8, 60)):
        tau = LaurentSeries(1, [1], nterms + 10)
        xs, ys = infinity_series_xy(curve, nterms)
        assert xs.order() == -2
        assert ys.order() == -(2 * curve.genus + 1)
        assert xs.prec == ys.prec == nterms
        hval = LaurentSeries(0, [], nterms + 2)
        for c in reversed(curve.h.coeffs):
            hval = hval * xs + LaurentSeries(0, [c], nterms + 2)
        diff = ys * ys - hval
        assert diff.is_zero_to_prec()
        # tau = x^g / y is the uniformizer: tau * y == x^g
        xg = LaurentSeries(0, [1], nterms + 10)
        for _ in range(curve.genus):
            xg = xg * xs
        assert (tau * ys - xg).is_zero_to_prec()


def test_series_orders_match_valuations(g1):
    for f in (g1.x, g1.y, g1.function(x ** 2, POLY_ONE), g1.function(x - 2)):
        s = function_series(g1, f, 4)
        assert s.order() == function_valuation(g1, f, INFINITY)


def test_series_has_exactly_nterms(g1, g2):
    for curve, f in (
        (g1, g1.function(x ** 2 - 3, x)),
        (g1, g1.function(POLY_ONE, x - 1, x ** 2 + 2)),
        (g1, g1.function(POLY_ONE, POLY_ZERO, x ** 2 + 2)),  # zero at infinity
        (g2, g2.function(x ** 5 + x, x ** 2 - 1)),  # degree 10
        (g2, g2.function(x, POLY_ONE, x - 3)),
    ):
        for k in (1, 5, 12):
            s = function_series(curve, f, k)
            ref = function_series(curve, f, k + 20)
            assert s.prec - s.order() == k
            assert all(
                s.coefficient(e) == ref.coefficient(e) for e in range(s.order(), s.prec)
            )


def test_series_asks_only_for_nterms(g2, monkeypatch):
    from primpoints import hypcurve

    asked = []
    real = hypcurve.infinity_series_xy

    def spy(curve, nterms):
        asked.append(nterms)
        return real(curve, nterms)

    monkeypatch.setattr(hypcurve, "infinity_series_xy", spy)
    f = g2.function(x ** 5 + x, x ** 2 - 1)  # degree 10
    s = function_series(g2, f, 10)
    assert s.prec - s.order() == 10
    assert asked and max(asked) <= 10
    with pytest.raises(InvalidInput):
        function_series(g2, g2.function(POLY_ZERO), 10)


def test_divisor_json_round_trip(g1):
    P = split_place(2, 3)
    Q = places_over_x(g1, x + 2)[0]
    D = Divisor([(P, 2), (Q, 1), (INFINITY, 3)])
    assert Divisor.from_json(D.to_json()) == D


def test_nth_root_recovers_series(g1, g2):
    for curve, f in (
        (g1, g1.function(x ** 2 - 3, x)),
        (g1, g1.function(POLY_ONE, x - 1) * Fraction(2, 3)),
        (g2, g2.function(x ** 3 + x, POLY_ONE)),
    ):
        base = function_series(curve, f, 12)
        for m in (2, 3, 5):
            root = function_series(curve, f ** m, 12).nth_root(m)
            assert root is not None
            lead = base.order()
            sign = root.coefficient(lead) / base.coefficient(lead)
            assert root.order() == lead and sign in (1, -1)
            assert all(
                root.coefficient(e) == sign * base.coefficient(e)
                for e in range(lead, min(root.prec, base.prec))
            )


def test_nth_root_rejects_non_powers(g1):
    ys = function_series(g1, g1.y, 10)  # valuation -3
    assert ys.nth_root(2) is None
    assert (ys * ys * 2).nth_root(2) is None  # leading coefficient 2
    assert (ys * ys * 4).nth_root(2) is not None
    assert (ys * ys * ys * -1).nth_root(3) is not None
    assert (ys * ys * -1).nth_root(2) is None
    with pytest.raises(InvalidInput):
        LaurentSeries(0, [], 5).nth_root(2)


def test_rational_nth_root_exact():
    big = Fraction(10 ** 400)  # beyond the float range
    assert _rational_nth_root(big, 2) == Fraction(10 ** 200)
    assert _rational_nth_root(big + 1, 2) is None
    assert _rational_nth_root(Fraction(3 ** 700, 7 ** 350), 7) == Fraction(3 ** 100, 7 ** 50)
    assert _rational_nth_root(Fraction(2 ** 301), 3) is None
    assert _rational_nth_root(Fraction(27, 8), 3) == Fraction(3, 2)
    assert _rational_nth_root(Fraction(26, 8), 3) is None
    assert _rational_nth_root(Fraction(27, 7), 3) is None
    assert _rational_nth_root(Fraction(-27, 8), 3) == Fraction(-3, 2)
    assert _rational_nth_root(-big ** 3, 3) == -big
    assert _rational_nth_root(Fraction(-4), 2) is None
    assert _rational_nth_root(Fraction(1, 4), 2) == Fraction(1, 2)
    assert _rational_nth_root(Fraction(5), 1) == Fraction(5)
    for n in range(200):
        for m in (2, 3, 5):
            root = _rational_nth_root(Fraction(n), m)
            assert root == next((r for r in range(n + 1) if r ** m == n), None)
