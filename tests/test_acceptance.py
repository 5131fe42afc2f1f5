"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  The
criteria cover Riemann-Roch dimensions, certified primitive-point streams,
the exact density fractions, specialization consistency for contracted
functions, oracle equivalence of the contraction enumeration, the dimension
inequality for every contraction seen, cross-method agreement of the
primitivity engine, the factorization backbone, and the end-to-end search.
"""

import random
import time
from fractions import Fraction
from itertools import islice

import pytest

from primpoints import (
    Divisor,
    INFINITY,
    OutOfTheoremRange,
    POLY_ONE,
    POLY_X,
    RatPolynomial,
    curve_new,
    density_experiment,
    dimension_comparison_check,
    enumerate_contr0,
    factor_mod_p,
    factor_over_rationals,
    fiber_divisor,
    find_primitive_function,
    height_ordered_rationals,
    imprimitive_locus_test,
    is_prime,
    is_primitive_field,
    places_over_x,
    prospect,
    riemann_roch_basis,
)

from test_contract import contr0_oracle

x = POLY_X

# contractions produced while running criteria 3-5, checked in criterion 6
CONTRACTIONS_SEEN = []


def _line(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


# ----------------------------------------------------------------------
# 1. Riemann-Roch dimension on three fixture curves

def test_criterion_1_riemann_roch_dimensions():
    t0 = time.monotonic()
    curves = [curve_new(x ** 3 + 1), curve_new(x ** 5 - 1), curve_new(x ** 7 - 2)]
    failures = []
    for curve in curves:
        g = curve.genus
        for n in range(2 * g - 1, 13):
            dim = riemann_roch_basis(curve, Divisor([(INFINITY, n)])).dimension
            if dim != n - g + 1:
                failures.append((curve.h, n, dim))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 5.0
    assert _line(
        1, ok, f"dim L(n*oo) = n - g + 1 on genus 1/2/3 fixtures [{elapsed:.2f}s]"
    )
    assert not failures and elapsed < 5.0


# ----------------------------------------------------------------------
# 2. certified primitive quartic points from x^2 + y

def test_criterion_2_primitive_point_stream():
    t0 = time.monotonic()
    curve = curve_new(x ** 3 + 1)
    f = curve.function(x ** 2, POLY_ONE)
    rep = prospect(curve, f, count=200)
    points = rep.primitive_points
    reverified = 0
    for t, poly, cert in points:
        assert poly.degree == 4 and poly.is_monic()
        if cert.verify(strict=True):
            reverified += 1
    elapsed = time.monotonic() - t0
    ok = len(points) >= 100 and reverified == len(points) and elapsed < 60.0
    assert _line(
        2,
        ok,
        f"{len(points)} certified primitive quartic points in 200 sweeps, "
        f"{reverified} re-verified [{elapsed:.1f}s]",
    )
    assert ok


# ----------------------------------------------------------------------
# 3. exact density fractions over L(4*oo)

def test_criterion_3_density_fractions():
    t0 = time.monotonic()
    curve = curve_new(x ** 3 + 1)
    D = Divisor([(INFINITY, 4)])
    results = []
    for H in (1, 2, 4, 8):
        rep = density_experiment(curve, D, H)
        imp = rep.counts["imprimitive"]
        prim = rep.counts["primitive"]
        frac = Fraction(imp, imp + prim)
        results.append((H, frac, Fraction(1, 2 * H + 1)))
        assert sum(rep.counts.values()) == rep.total == (2 * H + 1) ** 4 - 1
    # record the contraction class behind the locus for criterion 6
    hit = imprimitive_locus_test(curve, D, curve.function(x ** 2))
    assert hit.is_imprimitive
    CONTRACTIONS_SEEN.append((curve, D, hit.contraction))
    elapsed = time.monotonic() - t0
    ok = all(got == want for _, got, want in results) and elapsed < 120.0
    assert _line(
        3,
        ok,
        "imprimitive fraction = 1/(2H+1) exactly for H in {1,2,4,8} "
        f"[{elapsed:.1f}s]",
    )
    assert ok


# ----------------------------------------------------------------------
# 4. every irreducible specialization of x^2 is certified imprimitive

def test_criterion_4_contracted_function_specializations():
    t0 = time.monotonic()
    curve = curve_new(x ** 3 + 1)
    f = curve.function(x ** 2)
    rep = prospect(curve, f, count=100)
    irreducible = [s for s in rep.specializations if s.status == "irreducible"]
    exceptions = []
    for s in irreducible:
        cert = s.certificate
        if cert.verdict != "imprimitive":
            exceptions.append((s.t, "verdict"))
            continue
        w = cert.witness
        if w.degree != 2 or not w.verify(s.fiber_poly):
            exceptions.append((s.t, "witness"))
    elapsed = time.monotonic() - t0
    ok = not exceptions and len(irreducible) > 0
    assert _line(
        4,
        ok,
        f"{len(irreducible)} irreducible specializations of x^2, all "
        f"imprimitive with verifying degree-2 witnesses [{elapsed:.1f}s]",
    )
    assert ok


# ----------------------------------------------------------------------
# 5. contraction enumeration matches the no-shortcut oracle

def _random_multiplicity_one_divisor(curve, rng, max_deg=6):
    entries = []
    deg = 0
    target = rng.randint(4, max_deg)
    for _ in range(10):
        if deg >= target:
            break
        c = rng.randint(-4, 4)
        places = places_over_x(curve, x - c, check=False)
        p = rng.choice(places)
        if any(p == q for q, _ in entries) or deg + p.degree > target:
            continue
        entries.append((p, 1))
        deg += p.degree
    if rng.random() < 0.4 and not any(p == INFINITY for p, _ in entries):
        entries.append((INFINITY, 1))
    return Divisor(entries)


def test_criterion_5_oracle_equivalence():
    t0 = time.monotonic()
    curve = curve_new(x ** 3 + 1)
    fib, flag = fiber_divisor(curve, curve.function(x ** 2), Fraction(4))
    assert flag
    cs = enumerate_contr0(curve, fib)
    oracle = contr0_oracle(curve, fib)
    fixed_ok = (
        len(cs.contractions) == 1
        and cs.contractions[0].e == 2
        and set(oracle) == {(c.e, c.partition_key()) for c in cs.contractions}
    )
    for c in cs.contractions:
        CONTRACTIONS_SEEN.append((curve, fib, c))
    rng = random.Random(20250)
    random_ok = True
    checked = 0
    while checked < 20:
        D = _random_multiplicity_one_divisor(curve, rng)
        if D.degree < 4 or not D.is_multiplicity_one() or not D.is_effective():
            continue
        checked += 1
        cs_d = enumerate_contr0(curve, D)
        oracle_d = contr0_oracle(curve, D)
        mine = {(c.e, c.partition_key()) for c in cs_d.contractions}
        if mine != set(oracle_d):
            random_ok = False
            break
        if D.degree > 2 * curve.genus:
            for c in cs_d.contractions:
                CONTRACTIONS_SEEN.append((curve, D, c))
    elapsed = time.monotonic() - t0
    ok = fixed_ok and random_ok
    assert _line(
        5,
        ok,
        f"enumeration equals the brute-force oracle on the x^2 fiber and "
        f"{checked} random multiplicity-one divisors [{elapsed:.1f}s]",
    )
    assert ok


# ----------------------------------------------------------------------
# 6. the dimension inequality holds for every contraction ever produced

def test_criterion_6_dimension_inequality():
    violations = []
    for curve, D, contraction in CONTRACTIONS_SEEN:
        dim_pd, dim_pdp, holds = dimension_comparison_check(curve, D, contraction)
        if not holds:
            violations.append((D, dim_pd, dim_pdp))
    ok = not violations and len(CONTRACTIONS_SEEN) > 0
    assert _line(
        6,
        ok,
        f"dim P(D) > dim P(D') for all {len(CONTRACTIONS_SEEN)} contractions "
        "from criteria 3-5, zero violations",
    )
    assert ok


# ----------------------------------------------------------------------
# 7. primitivity engine agreement

def test_criterion_7_engine_agreement():
    t0 = time.monotonic()
    rng = random.Random(777)
    quartics = 0
    disagreements = []
    while quartics < 200:
        m = RatPolynomial([rng.randint(-10, 10) for _ in range(4)] + [1])
        if not factor_over_rationals(m).is_irreducible():
            continue
        quartics += 1
        fast = is_primitive_field(m, policy="auto")
        slow = is_primitive_field(m, policy="general")
        if fast.verdict != slow.verdict:
            disagreements.append(m)
    prime_checked = 0
    prime_failures = []
    for degree, count in ((5, 30), (7, 20)):
        found = 0
        while found < count:
            m = RatPolynomial(
                [rng.randint(-10, 10) for _ in range(degree)] + [1]
            )
            if not factor_over_rationals(m).is_irreducible():
                continue
            found += 1
            prime_checked += 1
            general = is_primitive_field(m, policy="general")
            if general.verdict != "primitive":
                prime_failures.append(m)
    fixed1 = is_primitive_field(x ** 4 - 10 * x ** 2 + 1)
    fixed2 = is_primitive_field(x ** 4 - x ** 3 - 4 * x ** 2 + 3)
    fixed_ok = (
        fixed1.verdict == "imprimitive"
        and fixed1.witness.generator_minpoly == x ** 2 - 2
        and fixed1.witness.verify(x ** 4 - 10 * x ** 2 + 1)
        and fixed2.verdict == "primitive"
    )
    elapsed = time.monotonic() - t0
    ok = not disagreements and not prime_failures and fixed_ok
    assert _line(
        7,
        ok,
        f"resolvent and principal-subfields agree on {quartics} quartics; "
        f"prime-degree shortcut confirmed on {prime_checked} quintics/"
        f"septics [{elapsed:.1f}s]",
    )
    assert ok


# ----------------------------------------------------------------------
# 8. factorization backbone

def test_criterion_8_factorization_backbone():
    t0 = time.monotonic()
    # pool members are irreducible: linear always; the quadratics and the
    # quartic have non-square discriminants checked elsewhere; x^3 - 2 is
    # Eisenstein at 2
    pool = [
        x - 1,
        x + 2,
        x + 5,
        x ** 2 + 1,
        x ** 2 - 2,
        x ** 2 + x + 1,
        x ** 3 - 2,
        x ** 4 - 10 * x ** 2 + 1,
    ]
    rng = random.Random(88)
    mismatches = []
    for _ in range(100):
        parts = rng.sample(pool, rng.randint(1, 3))
        expected = {}
        poly = RatPolynomial(
            [Fraction(rng.randint(1, 7), rng.randint(1, 5)) * rng.choice((1, -1))]
        )
        for part in parts:
            mult = rng.randint(1, 2)
            expected[part] = expected.get(part, 0) + mult
            poly = poly * part ** mult
        fl = factor_over_rationals(poly)
        if fl.expand() != poly or dict(fl.factors) != expected:
            mismatches.append(poly)
    swinnerton = x ** 4 - 10 * x ** 2 + 1
    irr_ok = factor_over_rationals(swinnerton).is_irreducible()
    split_failures = []
    for p in filter(is_prime, range(2, 51)):
        fl = factor_mod_p(swinnerton.to_zpoly()[1], p)
        if sum(m for _, m in fl) < 2:
            split_failures.append(p)
    elapsed = time.monotonic() - t0
    ok = not mismatches and irr_ok and not split_failures
    assert _line(
        8,
        ok,
        "100 random products reconstruct bit-exactly; x^4-10x^2+1 is "
        f"irreducible over Q and splits mod every prime <= 50 [{elapsed:.1f}s]",
    )
    assert ok


# ----------------------------------------------------------------------
# 9. the end-to-end search

def test_criterion_9_find_primitive_function():
    t0 = time.monotonic()
    g1 = curve_new(x ** 3 + 1)
    g2 = curve_new(x ** 5 - 1)
    found = []
    for curve, d in ((g1, 3), (g1, 4), (g2, 5), (g2, 6), (g2, 7)):
        f, cert = find_primitive_function(curve, d)
        assert cert.degree == d and cert.fiber_poly.degree == d
        assert cert.verify(curve)
        found.append((curve.genus, d))
    with pytest.raises(OutOfTheoremRange):
        find_primitive_function(g1, 2)
    elapsed = time.monotonic() - t0
    ok = len(found) == 5 and elapsed < 120.0
    assert _line(
        9,
        ok,
        f"certified functions for {found}; d = 2 rejected out of range "
        f"[{elapsed:.1f}s]",
    )
    assert ok
