import dataclasses
import json
import random
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice

import pytest

from primpoints import (
    Divisor,
    INFINITY,
    InvalidInput,
    OutOfTheoremRange,
    POLY_ONE,
    POLY_X,
    PrimitivityCertificate,
    RatPolynomial,
    SearchBudgetExhausted,
    Specialization,
    SubfieldWitness,
    VerificationFailure,
    classify_specialization,
    coefficient_vectors,
    density_experiment,
    factor_over_rationals,
    fiber_polynomial,
    find_primitive_function,
    height_ordered_rationals,
    is_squarefree,
    prospect,
    rational_roots,
    resolvent_cubic,
)
from primpoints import curve_new, numfield
from primpoints.prospect import _eliminated_presentation
from test_exactalg import interpolated_presentation

x = POLY_X


# ----------------------------------------------------------------------
# height iterator

def test_height_iterator_prefix():
    got = [str(q) for q in islice(height_ordered_rationals(), 14)]
    assert got == [
        "1", "-1", "2", "1/2", "-2", "-1/2",
        "3", "1/3", "3/2", "2/3", "-3", "-1/3", "-3/2", "-2/3",
    ]


def test_height_iterator_unique_and_monotone():
    seen = set()
    heights = []
    for q in islice(height_ordered_rationals(), 300):
        assert q not in seen
        seen.add(q)
        heights.append(max(abs(q.numerator), q.denominator))
    assert heights == sorted(heights)


# ----------------------------------------------------------------------
# fiber polynomials

def test_fiber_polynomial_formula(g1):
    f = g1.function(x ** 2, POLY_ONE)
    for t in (Fraction(2), Fraction(-1), Fraction(5, 3)):
        ft, lam = fiber_polynomial(g1, f, t)
        expect = x ** 4 - x ** 3 - 2 * t * x ** 2 + RatPolynomial([t * t - 1])
        assert ft == expect and lam is None
    ft, _ = fiber_polynomial(g1, f, Fraction(2))
    assert ft == x ** 4 - x ** 3 - 4 * x ** 2 + 3


def test_fiber_polynomial_y(g1):
    ft, lam = fiber_polynomial(g1, g1.y, Fraction(2))
    assert ft == x ** 3 - 3 and lam is None


def fraction_fiber(curve, f, t):
    """The b != 0 fiber by the formula over Q, with Fraction arithmetic:
    the monic form of (t - a)^2 - b^2 h."""
    return ((RatPolynomial([t]) - f.a) ** 2 - f.b * f.b * curve.h).monic()


def test_integer_fiber_matches_fraction_oracle(g1, g2):
    rng = random.Random(67)
    curves = [g1, g2, curve_new(x ** 5 - x * Fraction(1, 2) + 1)]
    curves.append(curve_new(RatPolynomial([Fraction(1, 3), 0, Fraction(-5, 4), 2])))

    def rational():
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))

    for case in range(80):
        curve = curves[case % len(curves)]
        a = RatPolynomial([rational() for _ in range(rng.randint(0, 4))])
        b = RatPolynomial([rational() for _ in range(rng.randint(0, 2))] + [rational() or 1])
        f = curve.function(a, b)
        t = Fraction(rng.randint(-12, 12), rng.choice([1, 1, 1, 4, 9]))
        ours, lam = fiber_polynomial(curve, f, t)
        assert lam is None
        assert ours == fraction_fiber(curve, f, t), (a, b, t)
        # the integer form is the one to_zpoly derives afresh, and a
        # caller's change to the list it returns does not reach the fiber
        fresh = RatPolynomial(ours.coeffs).to_zpoly()
        assert ours.to_zpoly() == fresh
        _, zc = ours.to_zpoly()
        zc.append(5)
        zc[0] += 1
        assert ours.to_zpoly() == fresh and ours.coeffs == fraction_fiber(curve, f, t).coeffs


def test_fiber_polynomial_primitive_element(g1):
    # b = 0 routes through the x + lam*y presentation
    f = g1.function(x ** 2)
    ft, lam = fiber_polynomial(g1, f, Fraction(4))
    assert lam == 1 and ft.degree == 4 and is_squarefree(ft)
    # its field must match the fiber: contains sqrt(t) so it is imprimitive
    spec = classify_specialization(g1, f, Fraction(4))
    assert spec.status == "reducible" or spec.certificate is not None


def test_fiber_polynomial_degree_always_d(g1, g2):
    for curve, f in (
        (g1, g1.function(x ** 2, POLY_ONE)),
        (g2, g2.function(x ** 3, POLY_ONE)),
    ):
        from primpoints import function_degree

        d = function_degree(curve, f)
        for t in islice(height_ordered_rationals(), 12):
            ft, _ = fiber_polynomial(curve, f, t)
            assert ft.degree == d and ft.is_monic()


def test_presentation_matches_interpolated_resultant(g1, g2, g3):
    rng = random.Random(59)
    curves = [g1, g2, g3, curve_new(RatPolynomial([2, 1, 0, 3]))]
    curves.append(curve_new(x ** 5 - x * Fraction(1, 2) + 1))
    for case in range(60):
        curve = curves[case % len(curves)]
        lower = [
            Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
            for _ in range(rng.randint(1, 4))
        ]
        a = RatPolynomial(lower + [rng.choice([1, 1, -2, Fraction(1, 3)])])
        t = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 5]))
        lam = Fraction(rng.randint(1, 4))
        ours = _eliminated_presentation(curve, a, t, lam)
        assert ours == interpolated_presentation(curve, a, t, lam).monic(), (a, t, lam)


# ----------------------------------------------------------------------
# specialization sweeps

def test_prospect_y_example(g1):
    rep = prospect(g1, g1.y, count=8)
    by_t = {s.t: s for s in rep.specializations}
    assert by_t[Fraction(1)].status == "branch_like"
    assert by_t[Fraction(1)].fiber_poly == x ** 3
    s2 = by_t[Fraction(2)]
    assert s2.status == "irreducible"
    assert s2.fiber_poly == x ** 3 - 3
    assert s2.certificate.verdict == "primitive"
    assert s2.certificate.method == "prime_degree"
    s3 = by_t[Fraction(3)]
    assert s3.status == "reducible"
    assert s3.fiber_poly == x ** 3 - 8
    assert any(f == x - 2 for f, _ in s3.factors)


def test_prospect_x2_always_imprimitive(g1):
    rep = prospect(g1, g1.function(x ** 2), count=30)
    irreducibles = [s for s in rep.specializations if s.status == "irreducible"]
    assert irreducibles
    for s in irreducibles:
        assert s.certificate.verdict == "imprimitive"
        assert s.certificate.witness.degree == 2
        assert s.certificate.witness.verify(s.fiber_poly)
    assert rep.primitive_points == []


def test_paranoid_compares_witnesses(g1, monkeypatch):
    f = g1.function(x ** 2 + x)
    spec = classify_specialization(g1, f, 3, paranoid=True)
    assert spec.certificate.verdict == "imprimitive"
    # -g generates the same subfield, with the same minimal polynomial x^2 - D,
    # so only the comparison with principal subfields can tell it is not
    # the canonical witness
    right = numfield._resolvent_witness

    def negated(m, roots):
        w = right(m, roots)
        return SubfieldWitness(w.degree, -w.generator, w.generator_minpoly)

    monkeypatch.setattr(numfield, "_resolvent_witness", negated)
    assert classify_specialization(g1, f, 3).certificate.verify()
    with pytest.raises(VerificationFailure):
        classify_specialization(g1, f, 3, paranoid=True)


def test_prospect_x2y_point(g1):
    rep = prospect(g1, g1.function(x ** 2, POLY_ONE), count=4)
    pts = {t: poly for t, poly, _ in rep.primitive_points}
    assert pts[Fraction(2)] == x ** 4 - x ** 3 - 4 * x ** 2 + 3


def test_prospect_requires_degree_2(g1):
    from primpoints import DegreeUndefined

    with pytest.raises((InvalidInput, DegreeUndefined)):
        prospect(g1, g1.function(RatPolynomial([7])), count=2)


def test_prospect_rejects_negative_count(g1):
    f = g1.function(x ** 2, POLY_ONE)
    with pytest.raises(InvalidInput):
        prospect(g1, f, count=-1)
    assert prospect(g1, f, count=0).specializations == ()


def test_prospect_deterministic(g1):
    f = g1.function(x ** 2, POLY_ONE)
    a = json.dumps(prospect(g1, f, count=12, seed=5).to_json(), sort_keys=True)
    b = json.dumps(prospect(g1, f, count=12, seed=5).to_json(), sort_keys=True)
    assert a == b


def test_certificates_reverify(g1):
    rep = prospect(g1, g1.function(x ** 2, POLY_ONE), count=10)
    for _, _, cert in rep.primitive_points:
        assert cert.verify()


# ----------------------------------------------------------------------
# density

def test_density_closed_form_small(g1):
    D = Divisor([(INFINITY, 4)])
    for H in (1, 2):
        rep = density_experiment(g1, D, H)
        imp = rep.counts["imprimitive"]
        prim = rep.counts["primitive"]
        assert Fraction(imp, imp + prim) == Fraction(1, 2 * H + 1)
        assert rep.total == (2 * H + 1) ** 4 - 1
        assert sum(rep.counts.values()) == rep.total


def test_density_seeded_mode(g1):
    D = Divisor([(INFINITY, 4)])
    rep = density_experiment(g1, D, 3, samples=150, seed=9)
    assert sum(rep.counts.values()) == 150
    again = density_experiment(g1, D, 3, samples=150, seed=9)
    assert rep.counts == again.counts


def test_density_requires_theorem_range(g1):
    with pytest.raises(OutOfTheoremRange):
        density_experiment(g1, Divisor([(INFINITY, 2)]), 1)


class Hung(Exception):
    pass


@contextmanager
def deadline(seconds):
    """Raise Hung in the block after ``seconds``, so a call that never
    returns fails its test instead of hanging the suite."""

    def expire(signum, frame):
        raise Hung(f"no return or raise within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "H, samples",
    [(0, 5), (0, None), (-1, 5), (-1, None), (3, -1)],
    ids=["height-0-seeded", "height-0-exhaustive", "height-negative-seeded",
         "height-negative-exhaustive", "samples-negative"],
)
def test_density_rejects_out_of_range_arguments(g1, H, samples):
    # with H = 0 the only vector is zero, which is skipped, so seeded draws
    # would never end
    with deadline(10), pytest.raises(InvalidInput):
        density_experiment(g1, Divisor([(INFINITY, 4)]), H, samples=samples)


def test_density_zero_samples(g1):
    with deadline(10):
        rep = density_experiment(g1, Divisor([(INFINITY, 4)]), 1, samples=0)
    assert rep.total == 0 and sum(rep.counts.values()) == 0
    # no samples, no shares: null fractions in the report, and fraction()
    # refuses rather than dividing by zero
    data = rep.to_json()
    assert data["sample_count"] == 0
    assert data["fractions"] == {k: None for k in rep.counts}
    for key in rep.counts:
        with pytest.raises(InvalidInput):
            rep.fraction(key)


def test_density_json(g1):
    rep = density_experiment(g1, Divisor([(INFINITY, 4)]), 1)
    data = rep.to_json()
    assert data["schema_version"] == 1
    assert data["fractions"]["imprimitive"] == "9/40"
    total = sum(data["counts"].values())
    assert total == data["sample_count"]


# ----------------------------------------------------------------------
# find_primitive_function

def test_find_function_g1(g1):
    f, cert = find_primitive_function(g1, 3)
    assert f == g1.y
    assert cert.point_certificate.method == "prime_degree"
    assert cert.verify(g1)
    f4, cert4 = find_primitive_function(g1, 4)
    assert f4 == g1.function(x ** 2, POLY_ONE)
    assert cert4.t == Fraction(2)
    assert cert4.fiber_poly == x ** 4 - x ** 3 - 4 * x ** 2 + 3
    assert cert4.verify(g1, strict=True)


def test_function_certificate_rejects_a_doubled_degree(g1):
    _, cert = find_primitive_function(g1, 6)
    assert cert.verify(g1)
    assert not dataclasses.replace(cert, degree=12).verify(g1)


def test_function_certificate_rejects_a_degree_at_most_2g(g1):
    _, cert = find_primitive_function(g1, 6)
    assert not dataclasses.replace(cert, degree=2).verify(g1)


@pytest.mark.parametrize(
    "forge",
    [
        lambda c, g1: dataclasses.replace(c, t=c.t + 1),
        lambda c, g1: dataclasses.replace(c, fiber_poly=fiber_polynomial(g1, c.function, c.t + 1)[0]),
        lambda c, g1: dataclasses.replace(c, point_certificate=numfield.is_primitive_field(
            x ** 4 - 10 * x ** 2 + 1)),
        lambda c, g1: dataclasses.replace(c, point_certificate=numfield.is_primitive_field(
            x ** 4 + x + 1)),
    ],
    ids=["swapped-t", "another-fiber", "imprimitive-point-certificate",
         "point-certificate-of-another-modulus"],
)
def test_forged_function_certificate_rejected(g1, forge):
    _, cert = find_primitive_function(g1, 4)
    assert cert.verify(g1)
    assert not forge(cert, g1).verify(g1)


def test_find_function_out_of_range(g1, g2):
    with pytest.raises(OutOfTheoremRange):
        find_primitive_function(g1, 2)
    with pytest.raises(OutOfTheoremRange):
        find_primitive_function(g2, 4)


def test_find_function_g2_quick(g2):
    f, cert = find_primitive_function(g2, 5)
    assert f == g2.y
    assert cert.verify(g2)


def test_coefficient_vectors_order():
    vecs = list(islice(coefficient_vectors(2), 8))
    assert vecs == [
        (0, 1), (0, -1), (1, 0), (1, 1), (1, -1), (-1, 0), (-1, 1), (-1, -1),
    ]


def test_first_candidates_skip_loci(g1):
    # the walk for d = 4 must pass over y (degree 3, locus S) and x^2
    # (locus T) before settling on x^2 + y
    f, _ = find_primitive_function(g1, 4)
    assert f == g1.function(x ** 2, POLY_ONE)


# ----------------------------------------------------------------------
# one reading of the cycle types against the two-pass oracle

def _two_pass_decision(m):
    """The 'auto' decision for a monic irreducible m of degree 4, 6 or 8 as
    made before irreducibility and primitivity shared their cycle types:
    the resolvent cubic's rational roots at degree 4, and otherwise
    _principal_witness on a fresh reading."""
    if m.degree == 4:
        roots = rational_roots(resolvent_cubic(m))
        witness = None
        if roots:
            witness = numfield._resolvent_witness(m, roots) or numfield._principal_witness(m)
        method = "resolvent_cubic"
    else:
        witness = numfield._principal_witness(m)
        method = "principal_subfields"
    return PrimitivityCertificate(
        verdict="primitive" if witness is None else "imprimitive",
        method=method,
        modulus=m,
        witness=witness,
    )


def _two_pass_specialization(t, m):
    fl = factor_over_rationals(m)
    if not fl.is_irreducible():
        return Specialization(t=t, fiber_poly=m, status="reducible", factors=fl.factors)
    return Specialization(
        t=t, fiber_poly=m, status="irreducible", certificate=_two_pass_decision(m)
    )


def _random_monic(rng, d, den=1):
    return RatPolynomial(
        [Fraction(rng.randint(-5, 5), rng.randint(1, den)) for _ in range(d)] + [1]
    )


def _differential_fibers():
    """Monic squarefree fibers of degree 4, 6 and 8: irreducible ones,
    reducible ones (some divisible by x), imprimitive quartics with and
    without denominators, and compositions g(h(x))."""
    rng = random.Random(61)
    for d, count in ((4, 16), (6, 6), (8, 3)):
        found = 0
        while found < count:
            m = _random_monic(rng, d)
            if factor_over_rationals(m).is_irreducible():
                found += 1
                yield m
    for a, b in ((1, 3), (2, 2), (2, 4), (3, 3), (4, 4), (1, 7)):
        yield _random_monic(rng, a) * _random_monic(rng, b)
    for d in (3, 5, 7):
        yield x * _random_monic(rng, d)
    for den in (1, 1, 3, 3, 3):
        yield _random_monic(rng, 2, den)(_random_monic(rng, 2, den))
    # an irreducible degree-8 composition costs up to a second a side in
    # principal subfields
    for dg, dh in ((2, 3), (3, 2), (4, 2)):
        while True:
            m = _random_monic(rng, dg)(_random_monic(rng, dh))
            if factor_over_rationals(m).is_irreducible():
                yield m
                break


def test_one_pass_matches_two_pass_oracle(monkeypatch):
    fibers = [m for m in _differential_fibers() if is_squarefree(m)]
    statuses = set()
    quartic_verdicts = set()
    for m in fibers:
        expected = _two_pass_specialization(Fraction(1), m)
        # the module, which the package's prospect() function shadows
        monkeypatch.setattr(
            sys.modules["primpoints.prospect"], "fiber_polynomial", lambda curve, f, t: (m, None)
        )
        ours = classify_specialization(None, None, 1)
        assert json.dumps(ours.to_json()) == json.dumps(expected.to_json()), m
        statuses.add(ours.status)
        if ours.certificate is not None and m.degree == 4:
            quartic_verdicts.add(ours.certificate.verdict)
    assert len(fibers) >= 40
    assert statuses == {"reducible", "irreducible"}
    assert quartic_verdicts == {"primitive", "imprimitive"}


# ----------------------------------------------------------------------
# squarefreeness from a good prime

def _counting(monkeypatch, module, name):
    """Replace primpoints.<module>.<name> by a wrapper counting its calls."""
    module = sys.modules[f"primpoints.{module}"]
    inner = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_branch_point_fiber_stays_branch_like(g1, monkeypatch):
    # at t = 1 the fiber of x^2 - 2x + 4 + y is (x - 2)^2 (x^2 - x + 2): a
    # repeated root has no good prime, so only the rational gcd decides it
    f = g1.function(x ** 2 - 2 * x + 4, POLY_ONE)
    rational = _counting(monkeypatch, "exactalg", "poly_gcd")
    # factoring a fiber wrongly taken as squarefree need not end
    with deadline(10):
        spec = classify_specialization(g1, f, 1)
    assert spec.status == "branch_like"
    assert spec.fiber_poly == (x - 2) ** 2 * (x ** 2 - x + 2)
    assert spec.certificate is None and len(rational) == 1


def test_quartic_sweep_runs_no_rational_squarefree_test(g1, monkeypatch):
    f = g1.function(x ** 2 + x - 2, POLY_ONE)
    rational = _counting(monkeypatch, "exactalg", "poly_gcd")
    rep = prospect(g1, f, count=120)
    assert rational == []
    monkeypatch.undo()
    statuses = {s.status for s in rep.specializations}
    assert "branch_like" not in statuses and "irreducible" in statuses
    assert all(is_squarefree(s.fiber_poly) for s in rep.specializations)


def test_b0_fiber_is_tested_squarefree_once(g1, monkeypatch):
    f = g1.function(x ** 2 + x)
    tests = _counting(monkeypatch, "prospect", "is_squarefree")
    rational = _counting(monkeypatch, "exactalg", "poly_gcd")
    for t in islice(height_ordered_rationals(), 12):
        fiber_polynomial(g1, f, t)
        alone = len(tests), len(rational)
        spec = classify_specialization(g1, f, t)
        assert spec.lam is not None
        assert (len(tests), len(rational)) == (2 * alone[0], 2 * alone[1]), t
        del tests[:], rational[:]
