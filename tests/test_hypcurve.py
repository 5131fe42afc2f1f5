import random
from fractions import Fraction
from functools import lru_cache
from math import lcm
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
    curve_new,
    density_experiment,
    divisor_of,
    fiber_divisor,
    function_degree,
    function_valuation,
    function_with_divisor,
    is_principal,
    places_over_x,
    pole_divisor,
    poly_xgcd,
    riemann_roch_basis,
    zero_divisor,
)
from primpoints.exactalg import _numerators
from primpoints.hypcurve import (
    CurveFunction,
    _monomial_windows,
    _monomials_upto,
    _rational_nth_root,
    _series_nth_root,
    _sqrt_lift,
    _trunc_mul,
    _x_at_infinity,
)

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


def test_rr_combination_builds_no_fraction(g2, monkeypatch):
    # the density-g2 shape: 12 integer combinations of L(10*inf) on y^2 = x^5 - 1
    rr = riemann_roch_basis(g2, Divisor([(INFINITY, 10)]))
    rng = random.Random(12)
    vecs = [[rng.randint(-3, 3) for _ in range(rr.dimension)] for _ in range(12)]
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    got = [rr.combination(vec) for vec in vecs]
    monkeypatch.undo()
    assert built == []
    for vec, f in zip(vecs, got):
        expect = g2.function(RatPolynomial([0]))
        for c, b in zip(vec, rr.basis):
            expect = expect + b * c
        assert (f.a, f.b, f.den) == (expect.a, expect.b, expect.den)


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
#
# Oracle: Cantor composition and reduction of Mumford representatives
# (Cantor, Math. Comp. 48, 1987).  On y^2 = h with deg h odd the reduced
# representative of a class is unique, so D is principal exactly when it
# reduces to (1, 0).

def _cantor_compose(curve, d1, d2):
    u1, v1 = d1
    u2, v2 = d2
    g1, e1, e2 = poly_xgcd(u1, u2)
    g0, c1, c2 = poly_xgcd(g1, v1 + v2)
    s1, s2, s3 = c1 * e1, c1 * e2, c2
    u, r = divmod(u1 * u2, g0 * g0)
    v, vr = divmod(s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + curve.h), g0)
    assert r.is_zero() and vr.is_zero()
    u = u.monic()
    return u, v % u


def _cantor_reduce_pair(curve, pair):
    u, v = pair
    while u.degree > curve.genus:
        u, r = divmod(curve.h - v * v, u)
        assert r.is_zero()
        u = u.monic()
        v = (-v) % u
    return u, v % u


def _mumford_parts(curve, D):
    """Semi-reduced pieces representing the class of the affine part of D.

    Inert places are full x-fibers (trivial class mod infinity) and are
    dropped; ramified places are 2-torsion so only the parity matters;
    negative split multiplicities flip to the conjugate place.
    """
    parts = []
    for place, m in D.affine_entries():
        if place.kind == "ramified" and m % 2:
            parts.append((place.u, POLY_ZERO))
        elif place.kind == "split":
            pl = place if m > 0 else place.conjugate()
            parts.append((pl.u ** abs(m), _sqrt_lift(curve, pl.u, pl.v, abs(m))))
    return parts


def cantor_reduce(curve, D):
    """Reduced Mumford representative (u, v) of the class of a degree-0 D."""
    assert D.degree == 0
    acc = (POLY_ONE, POLY_ZERO)
    for part in _mumford_parts(curve, D):
        acc = _cantor_reduce_pair(curve, _cantor_compose(curve, acc, part))
    return acc


def cantor_is_principal(curve, D):
    u, v = cantor_reduce(curve, D)
    return u == POLY_ONE and v.is_zero()


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


# per curve: the u(x) of degree 1 to 3 whose places (split, ramified and
# inert) form the pool, and functions (a + y)/den whose divisors live on
# those places; the non-monic model has no ramified place over a linear or
# quadratic u, so its pool takes the cubic one
PRINCIPALITY_POOLS = [
    (
        x ** 3 + 1,
        [x, x - 2, x + 1, x ** 2 - x + 1, x ** 2 - x + 2, x + 2, x ** 2 + 1],
        [(x + 1, POLY_ONE), (x ** 2 + 1, x ** 2 + 1)],
    ),
    (
        x ** 5 - 1,
        [x - 1, x ** 2 - x + 1, x ** 2 + 2 * x + 2, x, x ** 2 + 1],
        [(1 - x, POLY_ONE), (1 - x, x ** 2 + 1)],
    ),
    (
        3 * x ** 3 + x + 2,
        [x + Fraction(2, 3), x ** 2 - x + 1, x ** 2 - 2 * x - 1, x, x ** 2 + 1,
         (3 * x ** 3 + x + 2).monic()],
        [(x ** 2 + 1, POLY_ONE), (-x, x)],
    ),
]


def test_is_principal_matches_cantor_oracle():
    rng = random.Random(5)
    verdicts = []
    for h, us, shift_functions in PRINCIPALITY_POOLS:
        curve = curve_new(h)
        places = [p for u in us for p in places_over_x(curve, u)]
        assert {p.kind for p in places} == {"split", "ramified", "inert"}
        shifts = [divisor_of(curve, curve.function(a, POLY_ONE, den)) for a, den in shift_functions]
        for _ in range(40):
            D = Divisor(
                [(rng.choice(places), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(1, 3))]
            )
            D = D - Divisor([(INFINITY, D.degree)])
            if rng.random() < 0.5:
                D = D + rng.choice(shifts)
            verdict = cantor_is_principal(curve, D)
            assert is_principal(curve, D) == verdict, D
            verdicts.append(verdict)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


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
# expansion oracle: the Fraction Laurent-series layer that the integer
# expansion hypcurve._x_at_infinity replaced, kept verbatim.  The windows
# and decomposition tests compare against it.

class LaurentSeries:
    """Finite-precision Laurent series in the uniformizer at infinity.

    coeffs[i] is the coefficient of tau^(val + i); terms with exponent >=
    prec are unknown.
    """

    __slots__ = ("val", "coeffs", "prec")

    def __init__(self, val, coeffs, prec):
        coeffs = list(coeffs)
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            val += 1
        del coeffs[max(0, prec - val):]
        self.val = val
        self.coeffs = [Fraction(c) for c in coeffs]
        self.prec = prec

    def coefficient(self, e: int) -> Fraction:
        if e >= self.prec:
            raise InvalidInput("coefficient beyond known precision")
        i = e - self.val
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def order(self):
        return self.val if self.coeffs else None

    def __add__(self, other):
        prec = min(self.prec, other.prec)
        val = min(self.val if self.coeffs else prec, other.val if other.coeffs else prec)
        out = [Fraction(0)] * max(0, prec - val)
        for s in (self, other):
            for i, c in enumerate(s.coeffs):
                e = s.val + i
                if e < prec:
                    out[e - val] += c
        return LaurentSeries(val, out, prec)

    def __neg__(self):
        return LaurentSeries(self.val, [-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentSeries(self.val, [c * other for c in self.coeffs], self.prec)
        v1 = self.val if self.coeffs else self.prec
        v2 = other.val if other.coeffs else other.prec
        prec = min(self.prec + v2, other.prec + v1)
        if not self.coeffs or not other.coeffs:
            return LaurentSeries(0, [], prec)
        val = self.val + other.val
        return LaurentSeries(
            val, _trunc_mul(self.coeffs, other.coeffs, prec - val - 1), prec
        )

    __rmul__ = __mul__

    def inverse(self):
        if not self.coeffs:
            raise ZeroDivisionError("inverting a zero series")
        v = self.val
        c0 = self.coeffs[0]
        nterms = self.prec - self.val
        inv = [Fraction(1) / c0] + [Fraction(0)] * (nterms - 1)
        for k in range(1, nterms):
            s = Fraction(0)
            for i in range(1, min(k, len(self.coeffs) - 1) + 1):
                s += self.coeffs[i] * inv[k - i]
            inv[k] = -s / c0
        return LaurentSeries(-v, inv, -v + nterms)

    def nth_root(self, m: int):
        """Series s with s^m = self; requires m >= 1, val divisible by m and
        the leading coefficient a rational m-th power.  The normalized root
        comes from _series_nth_root on the coefficients over one
        denominator, and its k-th term from R_k / ((m w_0)^k k!)."""
        if m < 1:
            raise InvalidInput(f"root index must be positive, not {m}")
        if not self.coeffs:
            raise InvalidInput("root of zero series")
        if self.val % m:
            return None
        root0 = _rational_nth_root(self.coeffs[0], m)
        if root0 is None:
            return None
        nterms = self.prec - self.val
        _, w = _numerators(self.coeffs)
        step, scale, out = m * w[0], 1, []
        for k, c in enumerate(_series_nth_root(w, m, nterms)):
            if k:
                scale *= step * k
            out.append(root0 * Fraction(c, scale))
        return LaurentSeries(self.val // m, out, self.val // m + nterms)

    def __repr__(self):
        terms = [
            f"{c}*t^{self.val + i}" for i, c in enumerate(self.coeffs) if c
        ]
        return " + ".join(terms or ["0"]) + f" + O(t^{self.prec})"


@lru_cache(maxsize=64)
def infinity_series_xy(curve, nterms: int):
    """Laurent expansions of x and y at infinity in tau = x^g / y.

    x has valuation -2 and y valuation -(2g+1); both series are rational
    because the infinite place is rational on the imaginary model.  With
    w = 1/x, s = tau^2 and ht(w) = w^(2g+1) h(1/w), the curve equation is
    the fixed point w = s * ht(w): each pass of w <- s * ht(w) fixes one
    more coefficient of w.  Then x = tau^-2 / ht(w) and y = x^g / tau.
    """
    g = curve.genus
    rev = curve.h.coeffs[::-1]  # ht(w) = sum_i rev[i] w^i
    k = (nterms + 2 * g) // 2 + 1  # coefficients of ht(w) needed, in s
    w = []
    for n in range(1, k + 1):
        # ht(w) mod s^n by Horner; w is exact mod s^n
        ht = [rev[-1]]
        for c in reversed(rev[:-1]):
            ht = _trunc_mul(ht, w, n - 1)
            ht[0] += c
        w = [Fraction(0)] + ht
    ht_tau = LaurentSeries(0, [c for a in ht for c in (a, 0)], 2 * k)  # s = tau^2
    u = ht_tau.inverse()  # tau^2 * x
    ug = LaurentSeries(0, [1], 2 * k)
    for _ in range(g):
        ug = ug * u
    x_series = LaurentSeries(-2, u.coeffs, nterms)
    y_series = LaurentSeries(-(2 * g + 1), ug.coeffs, nterms)
    return x_series, y_series


def function_series(curve, f: CurveFunction, nterms: int) -> LaurentSeries:
    """Expansion of f at infinity with exactly nterms known coefficients
    past the pole order: precision is absolute at tau^(val + nterms), where
    val is the valuation of f at infinity.

    x and y are known to nterms + 2 and nterms + 2g + 1 coefficients past
    their poles, and products, inverses and sums of terms of different
    valuation keep the least relative precision of their inputs."""
    if f.is_zero():
        raise InvalidInput("expansion of the zero function")
    xs, ys = infinity_series_xy(curve, nterms)

    def poly_series(p: RatPolynomial) -> LaurentSeries:
        # Horner from the leading coefficient: a zero start would cost two
        # terms of precision at the first product
        acc = LaurentSeries(0, [p.lc], nterms + 2)
        for c in reversed(p.coeffs[:-1]):
            acc = acc * xs + LaurentSeries(0, [c], nterms + 2)
        return acc

    # a zero part is skipped: its empty series would carry an absolute
    # precision that cuts the sum short
    parts = []
    if f.a:
        parts.append(poly_series(f.a))
    if f.b:
        parts.append(poly_series(f.b) * ys)
    num = parts[0] if len(parts) == 1 else parts[0] + parts[1]
    if f.den.degree > 0:
        num = num * poly_series(f.den).inverse()
    return LaurentSeries(num.val, num.coeffs, min(num.prec, num.val + nterms))


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
        assert not diff.coeffs
        # tau = x^g / y is the uniformizer: tau * y == x^g
        xg = LaurentSeries(0, [1], nterms + 10)
        for _ in range(curve.genus):
            xg = xg * xs
        assert not (tau * ys - xg).coeffs


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
    asked = []
    real = infinity_series_xy

    def spy(curve, nterms):
        asked.append(nterms)
        return real(curve, nterms)

    monkeypatch.setitem(globals(), "infinity_series_xy", spy)
    f = g2.function(x ** 5 + x, x ** 2 - 1)  # degree 10
    s = function_series(g2, f, 10)
    assert s.prec - s.order() == 10
    assert asked and max(asked) <= 10
    with pytest.raises(InvalidInput):
        function_series(g2, g2.function(POLY_ZERO), 10)


# y^2 = -5/3 x^5 + 2x^3 - x + 1: h is not monic
NON_MONIC_H = RatPolynomial([1, -1, 0, 2, 0, Fraction(-5, 3)])
# y^2 = x^3 + x/2 + 1/3: h is monic, its lower coefficients are not integers
RATIONAL_MONIC_H = RatPolynomial([Fraction(1, 3), Fraction(1, 2), 0, 1])


def test_x_at_infinity_matches_oracle(g1, g2, g3):
    # y^2 = x^5 - 1 and x^3 + 1 are the monic integral models of g2 and g1
    models = [curve_new(h) for h in (
        5 * x ** 3 - 2 * x + 3,
        -5 * x ** 5 + 2 * x ** 3 - x + 1,
        11 * x ** 7 - 2 * x ** 5 + 3 * x ** 3 + x + 7,
        NON_MONIC_H,
        RATIONAL_MONIC_H,
    )]
    for curve, nterms in product([g1, g2, g3] + models, (1, 2, 7, 14)):
        den, xs = _x_at_infinity(curve, nterms)
        assert type(den) is int and all(type(c) is int for c in xs)
        assert len(xs) == nterms
        want, _ = infinity_series_xy(curve, 2 * nterms - 2)
        assert [Fraction(c, den) for c in xs] == [
            want.coefficient(2 * j - 2) for j in range(nterms)
        ]


def test_monomial_windows_match_function_series(g1, g2, g3):
    non_monic = curve_new(NON_MONIC_H)
    rational_monic = curve_new(RATIONAL_MONIC_H)
    for curve, n, k in (
        (g1, 3, 1), (g1, 8, 4), (g1, 9, 12),
        (g2, 5, 5), (g2, 10, 5), (g2, 12, 6),
        (g3, 7, 7), (g3, 16, 8),
        (non_monic, 10, 5), (non_monic, 15, 3),
        (rational_monic, 10, 5), (rational_monic, 12, 6), (rational_monic, 9, 12),
    ):
        den, windows = _monomial_windows(curve, n, k)
        assert [(i, isy) for i, isy, _ in windows] == _monomials_upto(curve, n)
        # one integer row per monomial over one denominator, which is 1
        # exactly on the monic integral models (each window here reaches
        # past the terms that only lc(h) fixes)
        integral = all(c.denominator == 1 for c in curve.h.coeffs)
        assert (den == 1) == (integral and curve.h.lc == 1)
        want = []
        for i, isy, row in windows:
            assert all(type(c) is int for c in row)
            mono = curve.function(POLY_ZERO, x ** i) if isy else curve.function(x ** i)
            s = function_series(curve, mono, k)
            want.extend(s.coefficient(t) for t in range(-n, k - n))
        # den > 0 is the lcm of the oracle's denominators, and row / den are
        # the oracle's coefficients
        assert (den, [c for _, _, row in windows for c in row]) == _numerators(want)


def test_density_windows_build_no_fraction(g2, monkeypatch):
    # the set-up of a density run on y^2 = x^5 - 1 at 10*oo: the windows of
    # L(5*oo) and L(10*oo) come from the integer expansion alone
    built = []
    real = Fraction.__new__

    def spy(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    _monomial_windows.cache_clear()
    monkeypatch.setattr(Fraction, "__new__", spy)
    windows = [_monomial_windows(g2, 5, 5), _monomial_windows(g2, 10, 5)]
    monkeypatch.undo()
    assert built == []
    assert [den for den, _ in windows] == [1, 1]


def test_density_sets_up_series_once(g2, monkeypatch):
    # the locus test at n*oo reads cached monomial windows, so a density
    # run expands x at infinity during set-up only, not per sample
    from primpoints import hypcurve

    asked = []
    real = hypcurve._x_at_infinity

    def spy(curve, nterms):
        asked.append(nterms)
        return real(curve, nterms)

    monkeypatch.setattr(hypcurve, "_x_at_infinity", spy)
    calls = []
    for samples in (12, 48):
        _monomial_windows.cache_clear()
        asked.clear()
        rep = density_experiment(g2, Divisor([(INFINITY, 10)]), 3, samples=samples)
        assert rep.counts["primitive"] > samples // 2
        calls.append(len(asked))
    assert calls[0] == calls[1] > 0


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
    with pytest.raises(InvalidInput):
        _series_nth_root([0, 1], 2, 3)


# ----------------------------------------------------------------------
# root oracle: the Fraction recurrence that the integer kernel
# _series_nth_root replaced, kept verbatim

def fraction_nth_root(series, m):
    if not series.coeffs:
        raise InvalidInput("root of zero series")
    if series.val % m:
        return None
    c0 = series.coeffs[0]
    root0 = _rational_nth_root(c0, m)
    if root0 is None:
        return None
    nterms = series.prec - series.val
    u = [c / c0 for c in series.coeffs]
    # r = u^(1/m) with u[0] = 1 by the power recurrence (Knuth, TAOCP 2,
    # 4.7): k r_k = sum_{j=1..k} (j/m - (k - j)) u_j r_(k-j)
    r = [Fraction(1)]
    for k in range(1, nterms):
        acc = Fraction(0)
        for j in range(1, min(k, len(u) - 1) + 1):
            if u[j]:
                acc += (Fraction(j, m) - (k - j)) * u[j] * r[k - j]
        r.append(acc / k)
    return LaurentSeries(
        series.val // m, [c * root0 for c in r], series.val // m + nterms
    )


def _random_series(rng, m):
    """A random series: signed lead, numerators up to 2^120 on some draws,
    denominators on others, and either a power of a random series (so that
    its root exists) or a plain draw (whose root may not)."""
    big = rng.randrange(10) < 3

    def coeff():
        num = rng.randint(-2 ** 120, 2 ** 120) if big else rng.randint(-9, 9)
        return Fraction(num, rng.choice([1, 1, 2, 3, 7, 2 ** 70 + 1]))
    length = rng.randint(1, 12)
    coeffs = [coeff() for _ in range(length)]
    while not coeffs[0]:
        coeffs[0] = coeff()
    val = rng.randint(-4, 2)
    s = LaurentSeries(val, coeffs, val + length + rng.randint(0, 3))
    if rng.randrange(2):
        u = LaurentSeries(0, s.coeffs, s.prec - s.val)
        p = u
        for _ in range(m - 1):
            p = p * u
        s = LaurentSeries(val * m, p.coeffs, val * m + p.prec)
    return s


def test_series_nth_root_matches_fraction_oracle():
    rng = random.Random("nth-root-oracle")
    found = missing = big = 0
    for _ in range(800):
        m = rng.randint(2, 6)
        s = _random_series(rng, m)
        want = fraction_nth_root(s, m)
        got = s.nth_root(m)
        big += max(abs(c.numerator) for c in s.coeffs) > 2 ** 100
        if want is None:
            assert got is None, (s, m)
            missing += 1
        else:
            found += 1
            assert (got.val, got.coeffs, got.prec) == (want.val, want.coeffs, want.prec)
        # the kernel alone: R_k / ((m w_0)^k k!) is the root of s / lead
        den = lcm(*(c.denominator for c in s.coeffs))
        w = [int(c * den) for c in s.coeffs]
        nterms = s.prec - s.val
        r = fraction_nth_root(LaurentSeries(0, [c / s.coeffs[0] for c in s.coeffs], nterms), m)
        scale = 1
        for k, c in enumerate(_series_nth_root(w, m, nterms)):
            assert type(c) is int
            scale *= m * w[0] * k if k else 1
            assert Fraction(c, scale) == r.coefficient(k), (s, m, k)
    assert found > 300 and missing > 250 and big > 250


@pytest.mark.parametrize("m, lead", [(0, 1), (-1, 1), (-2, 4)])
def test_nth_root_rejects_non_positive_index(g1, m, lead):
    # unchecked, m = 0 divides by zero, m = -1 yields the inverse series and
    # m = -2 shifts by a negative count in _integer_nth_root
    ys = function_series(g1, g1.y, 10)
    with pytest.raises(InvalidInput, match="positive"):
        (ys * ys * lead).nth_root(m)
    with pytest.raises(InvalidInput, match="positive"):
        _series_nth_root([4, 1, 2], m, 5)


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
