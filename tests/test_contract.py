import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from primpoints import (
    Divisor,
    INFINITY,
    NotPrincipal,
    Place,
    POLY_ONE,
    POLY_X,
    POLY_ZERO,
    PreconditionFailed,
    RatPolynomial,
    curve_new,
    decompose_totally_ramified,
    dimension_comparison_check,
    enumerate_contr0,
    factors_through,
    fiber_divisor,
    function_degree,
    function_with_divisor,
    imprimitive_locus_test,
    is_primitive_field,
    places_over_x,
    pole_divisor,
    prospect,
    riemann_roch_basis,
    zero_divisor,
)
from primpoints import contract as contract_module
from primpoints import exactalg, hypcurve, numfield
from primpoints.cli import main
from primpoints.contract import (
    _verify_contraction,
    compose_point_function,
    function_value_at_place,
    point_sort_key,
)
from test_exactalg import interpolated_value_at_place
from test_hypcurve import NON_MONIC_H, fraction_nth_root, function_series

x = POLY_X


def split_place(c, v):
    return Place("split", x - c, RatPolynomial([v]))


def x2_fiber(curve):
    fib, flag = fiber_divisor(curve, curve.function(x ** 2), Fraction(4))
    assert flag
    return fib


def fiber_over_point(curve, g, pt):
    """g^*(pt) as an effective divisor (the scheme fiber), by factoring."""
    if pt[0] == "inf":
        return pole_divisor(curve, g)
    return zero_divisor(curve, compose_point_function(curve, g, pt))


# ----------------------------------------------------------------------
# brute-force oracle: every disjoint equal-degree pair, no divisibility
# shortcut, no principality pre-filter; the pullback is checked by
# factoring every fiber, not by the degree count of _verify_contraction

def contr0_oracle(curve, D):
    places = list(D.support())
    subsets = []
    for r in range(1, len(places) + 1):
        for combo in combinations(range(len(places)), r):
            subsets.append(frozenset(combo))
    found = {}
    for s0 in subsets:
        for sinf in subsets:
            if s0 & sinf:
                continue
            D0 = Divisor([(places[i], 1) for i in s0])
            Dinf = Divisor([(places[i], 1) for i in sinf])
            e = D0.degree
            if e != Dinf.degree or not (1 < e < D.degree):
                continue
            try:
                g = function_with_divisor(curve, D0, Dinf)
            except NotPrincipal:
                continue
            groups = {}
            for p in places:
                pt = function_value_at_place(curve, g, p)
                groups.setdefault((point_sort_key(pt), pt[0]), (pt, []))[1].append(p)
            fibers = [fiber_over_point(curve, g, pt) for pt, _ in groups.values()]
            if sum(fibers, Divisor()) != D or any(
                fib != Divisor([(p, 1) for p in group])
                for fib, (_, group) in zip(fibers, groups.values())
            ):
                continue
            parts = frozenset(
                frozenset(p.sort_key() for p in fib.support()) for fib in fibers
            )
            found.setdefault((e, parts), g)
    return found


def test_enumeration_matches_oracle_on_x2_fiber(g1):
    D = x2_fiber(g1)
    cs = enumerate_contr0(g1, D)
    assert len(cs.contractions) == 1
    c = cs.contractions[0]
    assert c.e == 2
    # the class is the x-map: x = M(g) for a Moebius M
    oracle = contr0_oracle(g1, D)
    assert set(oracle) == {(c.e, c.partition_key()) for c in cs.contractions}


def test_enumeration_empty_for_prime_degree_fiber(g1):
    D, flag = fiber_divisor(g1, g1.y, Fraction(2))
    assert flag and D.degree == 3
    cs = enumerate_contr0(g1, D)
    assert cs.contractions == ()
    assert contr0_oracle(g1, D) == {}


def test_enumeration_torsion_relation_divisor(g1):
    # P = (2,3) has 2P = (0,1) and 3P = (-1,0); P + 2P - 3P - oo is
    # principal, so this divisor has a genuine degree-2 contraction with
    # fibers {P, 2P} and {3P, oo}
    P = split_place(2, 3)
    P2 = split_place(0, 1)
    P3 = Place("ramified", x + 1)
    D = Divisor([(P, 1), (P2, 1), (P3, 1), (INFINITY, 1)])
    cs = enumerate_contr0(g1, D)
    assert len(cs.contractions) == 1
    c = cs.contractions[0]
    assert c.e == 2
    parts = c.partition_key()
    expected = frozenset(
        (
            frozenset({P.sort_key(), P2.sort_key()}),
            frozenset({P3.sort_key(), INFINITY.sort_key()}),
        )
    )
    assert parts == expected
    assert set(contr0_oracle(g1, D)) == {(c.e, c.partition_key())}


def test_enumeration_matches_oracle_random(g1):
    rng = random.Random(77)
    checked = 0
    while checked < 8:
        entries = []
        deg = 0
        target = rng.randint(4, 6)
        for _ in range(8):
            if deg >= target:
                break
            c = rng.randint(-3, 3)
            places = places_over_x(g1, x - c, check=False)
            p = rng.choice(places)
            if any(p == q for q, _ in entries):
                continue
            if deg + p.degree <= target:
                entries.append((p, 1))
                deg += p.degree
        if rng.random() < 0.5 and not any(p == INFINITY for p, _ in entries):
            entries.append((INFINITY, 1))
        D = Divisor(entries)
        if D.degree < 4 or not D.is_multiplicity_one():
            continue
        checked += 1
        cs = enumerate_contr0(g1, D)
        oracle = contr0_oracle(g1, D)
        assert set(oracle) == {(c.e, c.partition_key()) for c in cs.contractions}


def g1_rational_places():
    # the six rational places of y^2 = x^3 + 1
    return [
        split_place(0, 1),
        split_place(0, -1),
        split_place(2, 3),
        split_place(2, -3),
        Place("ramified", x + 1),
        INFINITY,
    ]


def test_principality_decided_once_per_unordered_pair(g1, monkeypatch):
    # D0 - Dinf is principal exactly when Dinf - D0 is, so each unordered
    # pair is tested once
    places = g1_rational_places()
    D = Divisor([(p, 1) for p in places])
    tested = []
    real = contract_module._principal_function

    def counted(curve, d0, space):
        tested.append(frozenset((frozenset(d0.support()), frozenset(space.divisor.support()))))
        return real(curve, d0, space)

    monkeypatch.setattr(contract_module, "_principal_function", counted)
    cs = enumerate_contr0.__wrapped__(g1, D)
    expected = {
        frozenset((frozenset(a), frozenset(b)))
        for e in (2, 3)
        for a in combinations(places, e)
        for b in combinations(places, e)
        if not set(a) & set(b)
    }
    assert len(tested) == len(expected) == 55
    assert set(tested) == expected
    assert [c.e for c in cs.contractions] == [2, 2, 2]


def test_principal_functions_factor_nothing(g1, g2, monkeypatch):
    # principality, the principal functions and their pullbacks are all
    # decided by linear algebra and degree counts, at places of any degree;
    # here the split places of degree 2 over two quadratics on y^2 = x^5 - 1
    num, den = x ** 2 - x + 1, x ** 2 + 2 * x + 2
    over = {u: Divisor([(p, 1) for p in places_over_x(g2, u)]) for u in (num, den)}
    calls = []
    for module in (exactalg, hypcurve, numfield):
        real = module.factor_over_rationals
        monkeypatch.setattr(
            module,
            "factor_over_rationals",
            lambda poly, real=real: calls.append(poly) or real(poly),
        )
    D = Divisor([(p, 1) for p in g1_rational_places()])
    assert len(enumerate_contr0.__wrapped__(g1, D).contractions) == 3
    assert function_with_divisor(g2, over[num], over[den]) == g2.function(num, den=den)
    assert calls == []


def test_multiplicity_violation(g1):
    P = split_place(2, 3)
    with pytest.raises(PreconditionFailed):
        enumerate_contr0(g1, Divisor([(P, 2), (INFINITY, 2)]))


# ----------------------------------------------------------------------
# values at places: the characteristic-polynomial rule

VALUE_PLACES = {
    # places of degree 1 and 2: split, inert and ramified over x - c; split
    # and ramified over irreducible quadratics
    1: [x, x - 2, x - 1, x + 1, x ** 2 - x + 2, x ** 2 - x + 1],
    2: [x - 1, x, x ** 2 - x + 1],
}


@pytest.mark.parametrize("genus", [1, 2])
def test_value_at_place_lies_in_its_fiber(g1, g2, genus):
    from primpoints.contract import point_degree

    curve = {1: g1, 2: g2}[genus]
    funcs = [
        curve.function(x ** 2, POLY_ONE),
        curve.function(x ** 3 + 1, RatPolynomial([2]), x ** 2 + 3),
        curve.function(x, POLY_ONE, x - 5),
    ]
    seen = set()
    for u in VALUE_PLACES[genus]:
        for p in places_over_x(curve, u):
            extra = []
            if p.kind == "split":
                # den vanishes at P, and y - v vanishes there too
                f = curve.function(-p.v, POLY_ONE, p.u)
                extra = [f, f * f + curve.x]
            for f in funcs + extra:
                value = function_value_at_place(curve, f, p)
                assert p in fiber_over_point(curve, f, value).support()
                assert p.degree % point_degree(value) == 0
                seen.add((p.kind, p.u.degree, point_degree(value)))
    expected = {("split", 2, 2), ("inert", 1, 2), ("ramified", 1, 1)}
    if genus == 1:
        expected |= {("split", 1, 1), ("ramified", 2, 2)}
    assert expected <= seen


def test_value_at_place_matches_interpolated_charpoly(g1, g2):
    rng = random.Random(61)
    curves = [g1, g2, hypcurve.curve_new(RatPolynomial([2, 1, 0, 3]))]
    us = [x - c for c in range(-3, 4)]
    us += [x ** 2 - x + 2, x ** 2 - x + 1, x ** 2 - 3 * x - 1, x ** 2 + 1]

    def poly(n):
        return RatPolynomial(
            [Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2])) for _ in range(n)]
        )

    kinds = set()
    for curve in curves:
        places = [p for u in us for p in places_over_x(curve, u)]
        for _ in range(40):
            place = rng.choice(places)
            den = rng.choice([POLY_ONE, place.u, place.u ** 2, x ** 2 + 3])
            f = curve.function(poly(rng.randint(1, 5)), poly(rng.randint(0, 3)), den)
            if f.is_zero():
                continue
            value = function_value_at_place(curve, f, place)
            assert value == interpolated_value_at_place(curve, f, place), (f, place)
            kinds.add((place.kind, value[0]))
    assert {("split", "poly"), ("inert", "poly"), ("ramified", "rat")} <= kinds


# ----------------------------------------------------------------------
# factoring through a contraction

def test_factors_through_examples(g1):
    c = enumerate_contr0(g1, x2_fiber(g1)).contractions[0]
    assert factors_through(g1, g1.function(x ** 2), c)
    assert not factors_through(g1, g1.function(x ** 2, POLY_ONE), c)
    assert factors_through(g1, g1.function(x ** 2 + x), c)


def test_factors_through_ramified_pole(g1):
    # x ramifies at the place P over x + 1, so P has index e_P = 2 in the
    # fiber x^*(-1) = 2P and in x^*(oo) = 2*oo
    c = enumerate_contr0(g1, x2_fiber(g1)).contractions[0]
    for g in (g1.x, c):
        # pole divisor 2P + 2*oo: E = (-1) + (oo)
        assert factors_through(g1, g1.function(x ** 2 + 1, den=x + 1), g)
        # pole divisor 4P: E = 2*(-1)
        assert factors_through(g1, g1.function(POLY_ONE, den=(x + 1) ** 2), g)
        # pole divisor P + oo: each mult // 2 is 0, so E = 0
        assert not factors_through(g1, g1.function(POLY_ONE.scale(0), POLY_ONE, x + 1), g)


def test_factors_through_fiber_beyond_the_poles(g1, monkeypatch):
    # the fiber x^*(2) = P + P' with P' = (2, -3) not a pole of f gives E no
    # point at 2; a function with poles at both places gets one
    seen = []
    real = contract_module._p1_basis_functions

    def spy(curve, g, E):
        seen.append(E)
        return real(curve, g, E)

    monkeypatch.setattr(contract_module, "_p1_basis_functions", spy)
    one_sided = g1.function(RatPolynomial([3]), POLY_ONE, x - 2)  # (y+3)/(x-2)
    assert pole_divisor(g1, one_sided) == Divisor([(split_place(2, 3), 1), (INFINITY, 1)])
    assert not factors_through(g1, one_sided, g1.x)
    assert seen.pop() == []
    both = g1.function(x ** 2 + 1, den=x - 2)
    assert factors_through(g1, both, g1.x)
    assert seen.pop() == [(("rat", Fraction(2)), 1), (("inf",), 1)]


def _count_factoring(monkeypatch):
    from primpoints import exactalg, hypcurve, numfield

    calls = []
    real = exactalg.factor_over_rationals

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (exactalg, hypcurve, numfield):
        monkeypatch.setattr(module, "factor_over_rationals", counted, raising=False)
    return calls


def test_verify_contraction_factors_nothing(g1, monkeypatch):
    D = x2_fiber(g1)
    c = enumerate_contr0(g1, D).contractions[0]
    torsion = Divisor(
        [(split_place(2, 3), 1), (split_place(0, 1), 1), (Place("ramified", x + 1), 1), (INFINITY, 1)]
    )
    ct = enumerate_contr0(g1, torsion).contractions[0]
    calls = _count_factoring(monkeypatch)
    for divisor, rec in ((D, c), (torsion, ct)):
        again = _verify_contraction(g1, divisor, rec.g, rec.e, rec.source_pair)
        assert again == rec
    # a Moebius image of x contracts D as well; y of degree 3 sends P =
    # (2, 3) to 3, whose fiber P + (x^2 + 2x + 4; y=3) has degree 3, not 1
    moebius = _verify_contraction(g1, D, g1.function(x, den=x - 2), 2)
    assert [pt for pt, _ in moebius.target_divisor] == [("rat", Fraction(1, 2)), ("inf",)]
    assert _verify_contraction(g1, D, g1.y, 3) is None
    assert calls == []


def test_verify_contraction_inert_degree_four_image(g2, monkeypatch):
    # the inert place over x^2 - 3x - 1 has a degree-4 image under this
    # degree-6 g: its fiber has degree 24, far more than the place itself.
    # Factoring that fiber took tens of seconds; the count needs no factoring
    inert = places_over_x(g2, x ** 2 - 3 * x - 1)[0]
    assert inert.kind == "inert" and inert.degree == 4
    g = g2.function(x ** 3 + 1, RatPolynomial([2]), x ** 2 + 3)
    assert function_degree(g2, g) == 6
    calls = _count_factoring(monkeypatch)
    assert _verify_contraction(g2, Divisor([(inert, 1)]), g, 6) is None
    assert calls == []


def test_dimension_comparison_examples(g1):
    D = x2_fiber(g1)
    c = enumerate_contr0(g1, D).contractions[0]
    assert dimension_comparison_check(g1, D, c) == (3, 2, True)
    # a union of three x-fibers of degree 6: the x-map contracts it with a
    # rational target divisor {0, 2, 3}
    entries = []
    for c0 in (0, 2, 3):
        for p in places_over_x(g1, x - c0, check=False):
            entries.append((p, 1))
    D6 = Divisor(entries)
    assert D6.degree == 6 and D6.is_multiplicity_one()
    cs = enumerate_contr0(g1, D6)
    assert [c.e for c in cs.contractions] == [2]
    dim_pd, dim_pdp, holds = dimension_comparison_check(g1, D6, cs.contractions[0])
    assert (dim_pd, dim_pdp, holds) == (5, 3, True)
    # the degree-6 fiber of x^3 instead carries the y-map class: the x-map
    # target there has an irrational point, out of reach of rational
    # zero/pole normalization (the oracle sees exactly the same)
    fib, flag = fiber_divisor(g1, g1.function(x ** 3), Fraction(8))
    assert flag and fib.degree == 6
    cs2 = enumerate_contr0(g1, fib)
    assert [c.e for c in cs2.contractions] == [3]
    dim_pd, dim_pdp, holds = dimension_comparison_check(g1, fib, cs2.contractions[0])
    assert (dim_pd, dim_pdp, holds) == (5, 2, True)
    assert set(contr0_oracle(g1, fib)) == {
        (c.e, c.partition_key()) for c in cs2.contractions
    }


CONTR_PINNED = Path(__file__).with_name("contr_pinned.json")


def test_contr_reports_pinned(tmp_path, capsys):
    # recorded while the pullback was still checked by factoring each fiber;
    # the split places over quadratics and the inert place over x^2 - 3x - 1
    # give target points of degree 2
    curve_file = tmp_path / "curve.json"
    for entry in json.loads(CONTR_PINNED.read_text()):
        curve_file.write_text(json.dumps({"h": entry["h"]}))
        assert main(["contr", str(curve_file), "--divisor", entry["divisor"]]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(entry["report"], indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# Moebius soundness of the deduplication

def test_dedup_classes_are_moebius_related(g1):
    D = x2_fiber(g1)
    c = enumerate_contr0(g1, D).contractions[0]
    g = c.g
    gprime = 1 / g  # the reversed pair representative of the same class
    # solve gamma*(g*g') + delta*g' - alpha*g - beta = 0 exactly, giving the
    # Moebius map with g' = (alpha g + beta)/(gamma g + delta)
    from primpoints.contract import _function_vectors
    from primpoints.linalg import nullspace

    vecs = _function_vectors(g1, [g * gprime, gprime, g, g1.function(POLY_ONE)])
    rows = [[v[i] for v in vecs] for i in range(len(vecs[0]))]
    kernel = nullspace(rows, ncols=4)
    assert kernel
    gamma, delta, alpha, beta = kernel[0]
    alpha, beta = -alpha, -beta
    assert alpha * delta - beta * gamma != 0
    # verify g' = (alpha g + beta)/(gamma g + delta) at three sample points
    from primpoints.contract import function_value_at_place

    from primpoints import INFINITY as INF

    sample_places = [INF]
    for cval in (0, -1, 2, 3):
        sample_places.append(places_over_x(g1, x - cval, check=False)[0])
    samples = 0
    for pt in sample_places:
        gv = function_value_at_place(g1, g, pt)
        gpv = function_value_at_place(g1, gprime, pt)
        if gv[0] != "rat" or gpv[0] != "rat":
            continue
        assert gpv[1] * (gamma * gv[1] + delta) == alpha * gv[1] + beta
        samples += 1
    assert samples >= 3


# ----------------------------------------------------------------------
# imprimitive locus

def test_locus_examples(g1):
    D = x2_fiber(g1)
    assert imprimitive_locus_test(g1, D, g1.function(x ** 2)).is_imprimitive
    r = imprimitive_locus_test(g1, D, g1.function(x ** 2, POLY_ONE))
    assert r.verdict == "no_factorization" and not r.locus_s
    r2 = imprimitive_locus_test(g1, D, g1.y)
    assert r2.verdict == "no_factorization" and r2.locus_s


def test_locus_totally_ramified(g1):
    D = Divisor([(INFINITY, 4)])
    assert imprimitive_locus_test(g1, D, g1.function(x ** 2)).is_imprimitive
    assert imprimitive_locus_test(
        g1, D, g1.function(x ** 2 - 3 * x + 1)
    ).is_imprimitive
    assert not imprimitive_locus_test(
        g1, D, g1.function(x ** 2, POLY_ONE)
    ).is_imprimitive


def test_decomposition_through_y(g1):
    # x^3 + y = y^2 + y - 1 factors through y
    f = g1.function(x ** 3, POLY_ONE)
    dec = decompose_totally_ramified(g1, f, 3)
    assert dec is not None
    g, coords = dec
    assert g == g1.y
    assert coords == [Fraction(-1), Fraction(1), Fraction(1)]
    # x^3 + x^2 + y admits no decomposition at all
    f2 = g1.function(x ** 3 + x ** 2, POLY_ONE)
    assert decompose_totally_ramified(g1, f2, 3) is None
    assert decompose_totally_ramified(g1, f2, 2) is None


def test_decomposition_weierstrass_gap(g2):
    # no degree-3 function exists on a genus-2 curve (pole order 3 is a gap)
    f = g2.function(x ** 3, POLY_ONE)
    assert decompose_totally_ramified(g2, f, 3) is None
    r = imprimitive_locus_test(g2, Divisor([(INFINITY, 6)]), f)
    assert r.verdict == "no_factorization"


# ----------------------------------------------------------------------
# decomposition oracle: the expansion-per-call routine the monomial windows
# replaced.  f and every pole monomial of L(e*oo) are expanded by
# function_series on each call, and g is summed up before the residual is
# checked.

def decompose_oracle(curve, f, e):
    n = function_degree(curve, f)
    if n % e or not (1 < e < n):
        return None
    m = n // e
    monos = hypcurve._monomials_upto(curve, e)
    pole_orders = [2 * i if not isy else 2 * i + 2 * curve.genus + 1 for i, isy in monos]
    if max(pole_orders) != e:
        return None
    s = function_series(curve, f, e)
    lead = s.coefficient(-n)
    root = fraction_nth_root(s * (1 / lead), m)
    if root is None:
        return None
    residual = root
    gfun = curve.function(POLY_ZERO)
    order_to_mono = {}
    for (i, isy), o in zip(monos, pole_orders):
        if o > 0:
            order_to_mono[o] = (i, isy)
    for o in sorted(order_to_mono, reverse=True):
        c = residual.coefficient(-o)
        if c == 0:
            continue
        i, isy = order_to_mono[o]
        mono = curve.function(POLY_ZERO, x ** i) if isy else curve.function(x ** i)
        mser = function_series(curve, mono, e)
        coeff = c / mser.coefficient(-o)
        residual = residual - mser * coeff
        gfun = gfun + mono * coeff
    for eo in range(-e, 0):
        if residual.coefficient(eo) != 0:
            return None
    if gfun.is_zero() or function_degree(curve, gfun) != e:
        return None
    powers = []
    p = curve.function(POLY_ONE)
    for j in range(m + 1):
        if j:
            p = p * gfun
        powers.append(p)
    coords = contract_module._membership(curve, f, powers)
    if coords is None:
        return None
    return gfun, coords


SMALL_RATIONALS = [Fraction(k) for k in range(-3, 4)] + [Fraction(1, 2), Fraction(-2, 3)]
# numerators and denominators past 2^64
BIG_RATIONALS = SMALL_RATIONALS + [
    Fraction(2 ** 64 + 13), Fraction(-(2 ** 65) - 1, 3), Fraction(3 ** 41, 2 ** 66 + 1),
]


def _exact_degree_function(curve, n, rng, pool=SMALL_RATIONALS):
    space = riemann_roch_basis(curve, Divisor([(INFINITY, n)]))
    while True:
        f = space.combination([rng.choice(pool) for _ in range(space.dimension)])
        if not f.is_constant() and function_degree(curve, f) == n:
            return f


def test_decomposition_matches_oracle(g1, g2, g3):
    """Every n with 2g < n <= 2g + 11 and every e | n with 2g < e < n, on
    random functions of degree n and on built compositions q^(n/e) + c*q,
    some of them with coefficients past 2^64."""
    compared = matched = big_matched = 0
    for curve in (g1, g2, g3, curve_new(NON_MONIC_H)):
        low = 2 * curve.genus
        rng = random.Random(f"decompose:{curve.h.coeffs}")
        for n in range(low + 1, low + 12):
            es = [e for e in range(low + 1, n) if n % e == 0]
            if not es:
                continue
            funcs = [_exact_degree_function(curve, n, rng) for _ in range(24)]
            funcs += [_exact_degree_function(curve, n, rng, BIG_RATIONALS) for _ in range(3)]
            for e in es:
                for _ in range(6):
                    q = _exact_degree_function(curve, e, rng)
                    funcs.append(q ** (n // e) + rng.choice(SMALL_RATIONALS) * q)
                for _ in range(2):
                    q = _exact_degree_function(curve, e, rng, BIG_RATIONALS)
                    funcs.append(q ** (n // e) + rng.choice(BIG_RATIONALS[-3:]) * q)
            for f in funcs:
                big = max(abs(c.numerator) for c in f.a.coeffs + f.b.coeffs) > 2 ** 64
                for e in es:
                    got = decompose_totally_ramified(curve, f, e)
                    want = decompose_oracle(curve, f, e)
                    compared += 1
                    if want is None:
                        assert got is None, (curve, f, e)
                        continue
                    matched += 1
                    big_matched += big
                    assert got is not None, (curve, f, e)
                    assert got[0].to_json() == want[0].to_json()
                    assert got[1] == want[1]
    assert compared > 500 and matched > 80 and big_matched > 25


def test_decomposition_miss_builds_nothing_rational(g2, monkeypatch):
    """A density-g2-shaped miss runs on ints: no Fraction or curve function
    is built and nothing is expanded at infinity once the windows are
    cached.  A hit, the control, builds g."""
    miss = g2.function(x ** 5 + 2 * x ** 3 - x + 3, x ** 2 + 1)  # in L(10*oo)
    q = g2.function(x, POLY_ONE)  # y + x, of degree 5
    hit = q * q + 3 * q
    assert decompose_totally_ramified(g2, miss, 5) is None
    assert decompose_totally_ramified(g2, hit, 5)[0] == q
    built = []
    for owner, attr, name in (
        (Fraction, "__new__", "Fraction"),
        (hypcurve.CurveFunction, "__init__", "CurveFunction"),
        (hypcurve, "_x_at_infinity", "_x_at_infinity"),
    ):
        real = getattr(owner, attr)

        def spy(*args, real=real, name=name, **kwargs):
            built.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, spy)
    assert decompose_totally_ramified(g2, miss, 5) is None
    assert built == []
    assert decompose_totally_ramified(g2, hit, 5) is not None
    assert {"Fraction", "CurveFunction"} <= set(built)


def test_locus_even_composition_genus_1(g1):
    # a composition through an even e > 2g: x^2 + y has degree 4
    u = g1.function(x ** 2, POLY_ONE)
    r = imprimitive_locus_test(g1, Divisor([(INFINITY, 8)]), u * u + 3 * u)
    assert r.is_imprimitive and r.contraction.e == 4
    assert r.contraction.g == u


def test_locus_even_composition_genus_2(g2):
    # x^3 + y has degree 6 > 2g
    v = g2.function(x ** 3, POLY_ONE)
    r = imprimitive_locus_test(g2, Divisor([(INFINITY, 12)]), v * v)
    assert r.is_imprimitive and r.contraction.e == 6
    assert r.contraction.g == v


@pytest.mark.parametrize("genus,n", [(1, 8), (1, 9), (2, 10), (2, 12)])
def test_locus_detects_compositions(g1, g2, genus, n):
    curve = {1: g1, 2: g2}[genus]
    rng = random.Random(f"compose:{genus}:{n}")
    D = Divisor([(INFINITY, n)])
    for e in (e for e in range(2 * genus + 1, n) if n % e == 0):
        space = riemann_roch_basis(curve, Divisor([(INFINITY, e)]))
        built = 0
        while built < 3:
            g = space.combination(
                [rng.randint(-3, 3) for _ in range(space.dimension)]
            )
            if g.is_constant() or function_degree(curve, g) != e:
                continue
            f = g ** (n // e) + rng.randint(-3, 3) * g + rng.randint(-3, 3)
            r = imprimitive_locus_test(curve, D, f)
            assert r.is_imprimitive, (e, g)
            assert factors_through(curve, f, r.contraction.g)
            built += 1


def test_locus_mixed_pole_shape_unsupported(g1):
    # a full-degree function with affine poles plus a repeated infinity is
    # outside both implemented routes and must say so
    from primpoints import Unsupported

    P, Pb = split_place(2, 3), split_place(2, -3)
    D = Divisor([(P, 1), (Pb, 1), (INFINITY, 2)])
    f = g1.function(x ** 2 - 2 * x + 1, POLY_ONE.scale(0), x - 2) + g1.x
    from primpoints import pole_divisor

    assert pole_divisor(g1, f) == D
    with pytest.raises(Unsupported):
        imprimitive_locus_test(g1, D, f)


# ----------------------------------------------------------------------
# consistency with the field-theoretic certificates

def test_imprimitive_functions_specialize_imprimitively(g1):
    f = g1.function(x ** 2)
    rep = prospect(g1, f, count=12)
    checked = 0
    for s in rep.specializations:
        if s.status == "irreducible":
            assert s.certificate.verdict == "imprimitive"
            assert s.certificate.witness.verify(s.fiber_poly)
            checked += 1
    assert checked >= 4


def test_module_caches_bounded():
    # the windows are the only memo of expansions at infinity
    assert not hasattr(hypcurve._x_at_infinity, "cache_info")
    for cached in (
        hypcurve._monomial_windows,
        enumerate_contr0,
        exactalg._p_cycle_type,
    ):
        assert cached.cache_info().maxsize is not None
