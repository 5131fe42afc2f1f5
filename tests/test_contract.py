import random
from fractions import Fraction

import pytest

from primpoints import (
    Divisor,
    INFINITY,
    NotPrincipal,
    Place,
    POLY_ONE,
    POLY_X,
    PreconditionFailed,
    RatPolynomial,
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
    prospect,
    riemann_roch_basis,
)
from primpoints.contract import _verify_contraction
from primpoints.hypcurve import infinity_series_xy
from primpoints.linalg import solve

x = POLY_X


def split_place(c, v):
    return Place("split", x - c, RatPolynomial([v]))


def x2_fiber(curve):
    fib, flag = fiber_divisor(curve, curve.function(x ** 2), Fraction(4))
    assert flag
    return fib


# ----------------------------------------------------------------------
# brute-force oracle: every disjoint equal-degree pair, no divisibility
# shortcut, no principality pre-filter; pullback checked explicitly

def contr0_oracle(curve, D):
    places = list(D.support())
    from itertools import combinations

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
            rec = _verify_contraction(curve, D, g, e)
            if rec is not None:
                found.setdefault((rec.e, rec.partition_key()), rec)
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
    from primpoints.contract import fiber_over_point, function_value_at_place, point_degree

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


# ----------------------------------------------------------------------
# factoring through a contraction

def test_factors_through_examples(g1):
    c = enumerate_contr0(g1, x2_fiber(g1)).contractions[0]
    assert factors_through(g1, g1.function(x ** 2), c)
    assert not factors_through(g1, g1.function(x ** 2, POLY_ONE), c)
    assert factors_through(g1, g1.function(x ** 2 + x), c)


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
    for cached in (infinity_series_xy, enumerate_contr0):
        assert cached.cache_info().maxsize is not None
