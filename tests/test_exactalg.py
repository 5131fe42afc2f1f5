import random
from fractions import Fraction
from itertools import islice, takewhile
import math
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from primpoints import (
    DivisionByZero,
    InvalidInput,
    LiftObstruction,
    POLY_X,
    RatPolynomial,
    factor_mod_p,
    factor_over_rationals,
    hensel_lift,
    is_squarefree,
    poly_gcd,
    poly_xgcd,
    resultant,
    squarefree_part,
)
from primpoints import exactalg, galois
from primpoints.contract import POINT_INF, point_closed, point_rat
from primpoints.exactalg import POLY_ONE, POLY_ZERO, from_power_sums, power_sums
from primpoints.hypcurve import (
    INFINITY,
    KIND_INERT,
    KIND_SPLIT,
    CurveFunction,
    _ord_u,
    _sqrt_lift,
    function_valuation,
)
from primpoints.numfield import FieldElement, NfPolynomial, NumberField

x = POLY_X

small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(RatPolynomial)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


def reduce_mod(poly, p):
    """The residues of a p-integral RatPolynomial mod p as a trimmed int list."""
    return exactalg._p_trim(exactalg._p_residues(poly, p), p)


# ----------------------------------------------------------------------
# gcd and squarefree part

def test_gcd_examples():
    assert poly_gcd(x ** 2 - 1, x - 1) == x - 1
    assert poly_gcd(x ** 2 + 1, x ** 2 - 1) == RatPolynomial([1])
    assert poly_gcd(x ** 4 - 1, x ** 6 - 1) == x ** 2 - 1


def test_gcd_both_zero():
    with pytest.raises(InvalidInput):
        poly_gcd(RatPolynomial(), RatPolynomial())


@settings(max_examples=60)
@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_gcd_divides_and_scales(p, q, r):
    g = poly_gcd(p, q)
    assert (p % g).is_zero() and (q % g).is_zero()
    rm = r.monic()
    assert poly_gcd(p * r, q * r) == rm * g


def test_squarefree_examples():
    assert squarefree_part((x - 1) ** 2) == x - 1
    # gcd(x^3+1, 3x^2) = 1, so x^3+1 is already squarefree
    assert poly_gcd(x ** 3 + 1, (x ** 3 + 1).derivative()).degree == 0
    assert squarefree_part(x ** 3 + 1) == x ** 3 + 1
    assert squarefree_part(x ** 4 - 2 * x ** 2 + 1) == x ** 2 - 1


@settings(max_examples=40)
@given(nonzero_polys)
def test_squarefree_coprime_with_derivative(p):
    s = squarefree_part(p)
    if s.degree > 0:
        assert poly_gcd(s, s.derivative()).degree == 0


def prs_squarefree(poly):
    """is_squarefree by the PRS gcd with the derivative alone."""
    if poly.is_zero():
        return False
    return poly.degree == 0 or poly_gcd(poly, poly.derivative()).degree == 0


rat_factors = st.lists(
    st.fractions(min_value=-12, max_value=12, max_denominator=10), min_size=1, max_size=4
).map(RatPolynomial)
# primitive, with lc divisible by 2*3*5*7*11: the first five primes are not
# read, and a good prime is 13 or beyond
lc_2310 = st.lists(st.integers(-9, 9), max_size=3).map(lambda c: RatPolynomial([1] + c + [2310]))


@settings(max_examples=150, deadline=None)
@given(rat_factors, rat_factors, st.integers(0, 2), st.none() | lc_2310)
# (x - 1)(x - 2311) has discriminant 2310^2: no good prime among the
# first five, so the PRS gcd decides
@example(x - 1, x - 2311, 1, None)
@example(x + 1, x - 3, 2, RatPolynomial([1, 0, 2310]))
@example(RatPolynomial([Fraction(3, 7)]), POLY_ONE, 1, None)
@example(x * Fraction(5, 3) - 2, POLY_ONE, 0, None)
@example(POLY_ZERO, x, 1, None)
def test_squarefree_matches_prs_oracle(a, b, power, lead):
    # a times b, b squared or no b, and maybe a factor with lc 2310
    poly = a * b ** power * (lead or POLY_ONE)
    assert is_squarefree(poly) == prs_squarefree(poly), poly


def test_squarefree_fiber_builds_no_fraction(monkeypatch):
    # a stream-quartic fiber, and the same fiber over a denominator with a
    # content and a negative lead: the integer form comes from the numerators
    fiber = x ** 4 + x ** 3 - 3 * x ** 2 - 4 * x + 3
    scaled = fiber.scale(Fraction(-6, 7))
    built = []
    exact = Fraction.__new__
    monkeypatch.setattr(
        Fraction, "__new__", staticmethod(lambda cls, *a, **k: built.append(a) or exact(cls, *a, **k))
    )
    assert is_squarefree(fiber) and is_squarefree(scaled)
    assert built == []


def test_rational_literals():
    # integers, p/q and decimals read as before; an exponent never reaches
    # Fraction, whose value it could make millions of digits long
    assert RatPolynomial.from_json([" 7", "-3/2", "0.5"]) == RatPolynomial(
        [7, Fraction(-3, 2), Fraction(1, 2)])
    for literal in ("1e3", "2E-1", "1/0", "x", "1e10000000"):
        with pytest.raises(InvalidInput):
            exactalg.rat_from_str(literal)
    with pytest.raises(InvalidInput):
        exactalg.rat_from_str(3)


# ----------------------------------------------------------------------
# powers

def test_power_matches_repeated_multiplication(g1, monkeypatch):
    L = NumberField(x ** 3 - 2)
    cases = [
        (RatPolynomial([Fraction(-3, 2), 0, 2, 1]), RatPolynomial([1])),
        (L.element([1, Fraction(-1, 2), 3]), L.one),
        (CurveFunction(g1, x + 2, RatPolynomial([Fraction(1, 3)]), x - 1), g1.function(POLY_ONE)),
    ]
    for base, one in cases:
        expected = one
        for n in range(9):
            assert base ** n == expected
            expected = expected * base
        if not isinstance(base, RatPolynomial):
            expected = one
            for n in range(5):
                assert base ** -n == expected
                expected = expected * base.inverse()
        square = base * base
        calls = []
        exact = type(base).__mul__
        monkeypatch.setattr(type(base), "__mul__", lambda a, b: calls.append(b) or exact(a, b))
        assert base ** 2 == square
        # one squaring and one product into the result: the square is not
        # squared again after the last bit
        assert len(calls) == 2
        monkeypatch.undo()
    with pytest.raises(InvalidInput):
        cases[0][0] ** -1


# ----------------------------------------------------------------------
# factorization over F_p

def test_factor_mod2_double_root():
    fl = factor_mod_p([1, 0, 1], 2)
    assert len(fl) == 1
    f, m = fl[0]
    assert m == 2 and f == [1, 1]


def test_factor_mod5_splits():
    fl = factor_mod_p([1, 0, 1], 5)
    # 2^2 = 4 = -1 mod 5, so the roots are 2 and 3
    roots = sorted((5 - f[0]) % 5 for f, _ in fl)
    assert roots == [2, 3]


def brute_force_factor_f7(poly):
    """All monic irreducible factors over F_7 by exhaustive trial division."""
    p = 7
    monic_irreducibles = []
    for c0 in range(p):
        monic_irreducibles.append([c0, 1])
    for c0 in range(p):
        for c1 in range(p):
            cand = [c0, c1, 1]
            if all(exactalg._p_mod(cand, lin, p) for lin in monic_irreducibles[:p]):
                monic_irreducibles.append(cand)
    found = []
    cur = exactalg._p_monic(exactalg._p_trim(poly, p), p)
    for cand in monic_irreducibles:
        while len(cur) >= len(cand):
            q, r = exactalg._p_divmod(cur, cand, p)
            if r:
                break
            cur = q
            found.append(cand)
    return found, cur


def test_factor_mod7_swinnerton_dyer():
    # x^4 - 10x^2 + 1 is irreducible over Q yet splits mod every prime
    poly = [1, 0, -10, 0, 1]
    fl = factor_mod_p(poly, 7)
    assert all(len(f) - 1 <= 2 for f, _ in fl)
    oracle, rest = brute_force_factor_f7(poly)
    assert len(rest) - 1 == 0
    assert sorted(tuple(f) for f, m in fl for _ in range(m)) == sorted(
        tuple(f) for f in oracle
    )


def test_factor_mod_p_expand_and_seed():
    rng = random.Random(3)
    for _ in range(20):
        p = rng.choice([2, 3, 5, 7, 11])
        coeffs = [rng.randrange(p) for _ in range(rng.randint(2, 7))] + [1]
        fl = factor_mod_p(coeffs, p, seed=11)
        prod = [1]
        for f, m in fl:
            for _ in range(m):
                prod = exactalg._p_mul(prod, f, p)
        assert prod == exactalg._p_monic(exactalg._p_trim(coeffs, p), p)
        again = factor_mod_p(coeffs, p, seed=11)
        assert fl == again


def test_composite_modulus_rejected():
    with pytest.raises(InvalidInput):
        factor_mod_p([1, 1], 6)
    with pytest.raises(InvalidInput):
        hensel_lift([1, 0, 1], [[1, 1], [5, 1]], 6, 2)


def test_factor_mod_p_zero_residue_rejected():
    # 0, and 5x^2 - 10 mod 5, are the zero polynomial
    for coeffs in ([], [0, 0], [-10, 0, 5]):
        with pytest.raises(InvalidInput):
            factor_mod_p(coeffs, 5)


def test_divmod_prime_power_modulus():
    # the shared mod-m kernels also serve Hensel lifting at m = p^k; the
    # divisor's lead coefficient 2 is a unit mod 81 but 2^79 is not its inverse
    from primpoints.exactalg import _p_divmod, _p_mul, _p_trim, _z_add

    m = 3 ** 4
    f = [5, -7, 11, 4, 2, 9]
    g = [1, 3, 2]
    quo, rem = _p_divmod(f, g, m)
    assert len(rem) < len(g)
    assert _p_trim(_z_add(_p_mul(quo, g, m), rem), m) == _p_trim(f, m)


# ----------------------------------------------------------------------
# Hensel lifting

def test_hensel_example_mod25():
    # 7^2 = 49 = -1 + 2*25, so the lift of the roots +-2 of x^2+1 mod 5 is +-7
    lifted = hensel_lift([1, 0, 1], [[-2, 1], [2, 1]], 5, 2)
    assert lifted == [[-7, 1], [7, 1]]


def test_hensel_exact_factorization_is_fixed():
    lifted = hensel_lift([-1, 0, 1], [[-1, 1], [1, 1]], 3, 2)
    assert lifted == [[-1, 1], [1, 1]]


def test_hensel_repeated_factor_obstructs():
    with pytest.raises(LiftObstruction):
        hensel_lift([1, 0, 1], [[1, 1], [1, 1]], 2, 3)


def test_hensel_repeated_factor_inside_a_half_obstructs():
    # (x-1)^2 (x-2)(x-3) mod 7 with the repeated pair in the left half of
    # the tree: only the inner node's _hensel_pair can see it
    target = [1]
    for root in (1, 1, 2, 3):
        target = exactalg._z_mul(target, [-root, 1])
    with pytest.raises(LiftObstruction, match="not coprime"):
        hensel_lift(target, [[-1, 1], [-1, 1], [-2, 1], [-3, 1]], 7, 3)


def test_hensel_input_checks():
    # the leading coefficient 5 vanishes mod 5
    with pytest.raises(InvalidInput):
        hensel_lift([1, 0, 5], [[-2, 1], [2, 1]], 5, 2)
    with pytest.raises(InvalidInput):
        hensel_lift([1, 0, 1], [], 5, 2)
    # (x - 1)(x + 1) = x^2 - 1, not x^2 + 1, mod 5
    with pytest.raises(LiftObstruction, match="does not match"):
        hensel_lift([1, 0, 1], [[-1, 1], [1, 1]], 5, 2)


def test_hensel_reduces_back():
    rng = random.Random(5)
    for _ in range(10):
        p = rng.choice([5, 7, 11])
        f = RatPolynomial([rng.randint(-20, 20) for _ in range(4)] + [1])
        fl = factor_mod_p(f.to_zpoly()[1], p)
        if any(m > 1 for _, m in fl):
            continue
        k = 4
        lifted = hensel_lift(f.to_zpoly()[1], [g for g, _ in fl], p, k)
        for before, after in zip(fl, lifted):
            assert exactalg._p_trim(after, p) == before[0]
        prod = RatPolynomial([1])
        for g in lifted:
            prod = prod * RatPolynomial(g)
        diff = prod - f.monic()
        assert all(
            c.denominator == 1 and c.numerator % p ** k == 0 for c in diff.coeffs
        )


# ----------------------------------------------------------------------
# factorization over Q

def test_factor_q_examples():
    fl = factor_over_rationals(x ** 4 - 1)
    assert [(str(f), m) for f, m in fl.factors] == [
        ("x - 1", 1),
        ("x + 1", 1),
        ("x^2 + 1", 1),
    ]
    assert factor_over_rationals(x ** 4 - 10 * x ** 2 + 1).is_irreducible()
    assert factor_over_rationals(x ** 4 - x ** 3 - 4 * x ** 2 + 3).is_irreducible()


def test_swinnerton_dyer_irreducible_by_hand():
    # no rational roots: the only candidates are +-1 and both miss
    m = x ** 4 - 10 * x ** 2 + 1
    assert m(Fraction(1)) != 0 and m(Fraction(-1)) != 0
    # no factorization (x^2+ax+b)(x^2-ax+c): a(c-b)=0, bc=1, b+c-a^2=-10
    # a=0 needs b+c=-10, bc=1: discriminant 96 is not a square;
    # b=c needs b^2=1: b=1 gives a^2=12, b=-1 gives a^2=8, neither a square
    for val in (96, 12, 8):
        r = int(val ** 0.5)
        assert r * r != val and (r + 1) * (r + 1) != val


def test_factor_mod2_reduction_certifies():
    # x^4-x^3-4x^2+3 reduces to x^4+x^3+1 mod 2, which has no roots and is
    # not the square of the only irreducible quadratic
    fl = factor_mod_p([1, 1, 0, 0, 1], 2)
    assert fl == [([1, 1, 0, 0, 1], 1)]


def test_factor_reconstruction_random():
    rng = random.Random(17)
    pool = [
        x - 1,
        x + 2,
        x ** 2 + 1,
        x ** 2 - 2,
        x ** 2 + x + 1,
        x ** 3 - 2,
        x ** 4 - 10 * x ** 2 + 1,
    ]
    for _ in range(30):
        parts = rng.sample(pool, rng.randint(1, 3))
        poly = RatPolynomial([Fraction(rng.randint(1, 5), rng.randint(1, 4))])
        for part in parts:
            poly = poly * part ** rng.randint(1, 2)
        fl = factor_over_rationals(poly)
        assert fl.expand() == poly
        for f, _ in fl.factors:
            assert f.is_monic()


def test_factor_blocks_larger_than_half():
    # the cubic block exceeds half the degree while its cofactor needs two
    # modular factors; recombination must still separate them
    f = (x ** 3 - 2) * (x ** 2 + x + 1)
    fl = factor_over_rationals(f)
    assert {str(g) for g, _ in fl.factors} == {"x^3 - 2", "x^2 + x + 1"}
    f2 = ((x ** 3 - 2) * (x + 2) * (x ** 2 + x + 1)) ** 2
    fl2 = factor_over_rationals(f2)
    assert fl2.expand() == f2
    assert sorted(m for _, m in fl2.factors) == [2, 2, 2]


def test_factor_count_mod_p_upper_bounds_rational_count():
    rng = random.Random(23)
    for _ in range(10):
        poly = (x ** 2 + rng.randint(1, 9)) * (x ** 3 + x + rng.randint(1, 9))
        fl = factor_over_rationals(poly)
        if any(m > 1 for _, m in fl.factors):
            continue
        _, ints = poly.to_zpoly()
        found = 0
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            if found == 3:
                break
            if ints[-1] % p:
                mod_fl = factor_mod_p(ints, p)
                if all(m == 1 for _, m in mod_fl):
                    assert len(mod_fl) >= len(fl.factors)
                    found += 1


def test_degree_sets_prove_irreducible_without_lifting(monkeypatch):
    # reducible at each good prime, but degrees 1 + 3 mod 5 and 2 + 2 mod 7
    # leave no proper factor degree over Q
    f = [-2, 2, -1, -5, 1]
    types = list(islice(exactalg._cycle_types(f), 3))
    assert types == [(5, [1, 3]), (7, [2, 2]), (11, [1, 3])]
    patterns = [
        sorted(len(g) - 1 for g, _ in factor_mod_p(f, p))
        for p in (5, 7, 11)
    ]
    assert patterns == [[1, 3], [2, 2], [1, 3]]
    lifts = []
    real_lift = exactalg.hensel_lift

    def counted(*args):
        lifts.append(args)
        return real_lift(*args)

    monkeypatch.setattr(exactalg, "hensel_lift", counted)
    assert factor_over_rationals(RatPolynomial(f)).is_irreducible()
    assert lifts == []


def test_swinnerton_dyer_octic_under_degree_prune():
    # reducible mod every prime into factors of degree <= 2, so every degree
    # sum stays possible and recombination alone proves irreducibility
    sd8 = x ** 8 - 40 * x ** 6 + 352 * x ** 4 - 960 * x ** 2 + 576
    assert factor_over_rationals(sd8).is_irreducible()
    for cofactor in (x ** 4 - 10 * x ** 2 + 1, (x ** 2 - 7) * (x - 1)):
        f = sd8 * cofactor
        fl = factor_over_rationals(f)
        assert fl.expand() == f
        expected = [sd8] + [g for g, _ in factor_over_rationals(cofactor).factors]
        assert sorted(g.coeffs for g, _ in fl.factors) == sorted(g.coeffs for g in expected)


# ----------------------------------------------------------------------
# resultants

def test_resultant_examples():
    assert resultant(x ** 2 - 2, x ** 2 - 3) == 1
    assert resultant(x - 2, x ** 2 + 1) == 5
    assert resultant(x ** 2 - 2, x ** 2 - 2) == 0


@settings(max_examples=50)
@given(nonzero_polys, nonzero_polys)
def test_resultant_swap_sign(p, q):
    sign = -1 if (p.degree * q.degree) % 2 else 1
    assert resultant(p, q) == sign * resultant(q, p)


@settings(max_examples=50)
@given(nonzero_polys, nonzero_polys)
def test_resultant_mod_p_reduces_resultant(p, q):
    # with lead coefficients prime to 13 the Sylvester matrix keeps its shape
    assume(p.lc % 13 and q.lc % 13)
    reduced = [reduce_mod(f, 13) for f in (p, q)]
    assert _p_resultant(*reduced, 13) == resultant(p, q) % 13


def test_resultant_zero_input():
    with pytest.raises(InvalidInput):
        resultant(RatPolynomial(), x)


def test_xgcd_identity():
    g, s, t = poly_xgcd(x ** 4 - 1, x ** 3 + 1)
    assert s * (x ** 4 - 1) + t * (x ** 3 + 1) == g
    assert g.is_monic()


# ----------------------------------------------------------------------
# oracles: the Euclidean loops that the one-cofactor loop
# exactalg._gcd_cofactor replaced, and that loop as the field inverse

def two_cofactor_xgcd(p, q):
    """(g, s, t) with s*p + t*q = g, g monic, by the Euclidean loop that
    tracks both cofactors."""
    r0, r1 = p, q
    s0, s1 = POLY_ONE, POLY_ZERO
    t0, t1 = POLY_ZERO, POLY_ONE
    while not r1.is_zero():
        qq, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - qq * s1
        t0, t1 = t1, t0 - qq * t1
    inv = 1 / r0.lc
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


def cofactor_inverse(alpha):
    """The inverse of a nonzero field element by the Euclidean loop
    exactalg._gcd_cofactor with the modulus, as FieldElement.inverse took
    it before it solved the multiplication matrix in ints."""
    g, t = exactalg._gcd_cofactor(alpha.field.modulus, alpha.to_poly())
    if g.degree != 0:
        raise InvalidInput("modulus is not irreducible")
    return alpha.field.from_poly(t)


def _random_rat_poly(rng, degree):
    lower = [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(degree)]
    return RatPolynomial(lower + [rng.choice([1, -2, Fraction(1, 3)])])


def test_xgcd_matches_two_cofactor_oracle():
    rng = random.Random(211)
    pairs = [(RatPolynomial(), x ** 2 + 1), (x ** 3 - 2, RatPolynomial()), (x, x + 1)]
    for case in range(300):
        dp = rng.randint(0, 6)
        # every third pair has equal degrees, and every fourth a common factor
        dq = dp if case % 3 == 0 else rng.randint(0, 6)
        p, q = _random_rat_poly(rng, dp), _random_rat_poly(rng, dq)
        if case % 4 == 1:
            common = _random_rat_poly(rng, rng.randint(1, 3))
            p, q = p * common, q * common
        pairs.append((p, q))
    common_factors = 0
    for p, q in pairs:
        g, s, t = poly_xgcd(p, q)
        assert (g, s, t) == two_cofactor_xgcd(p, q), (p, q)
        assert s * p + t * q == g
        common_factors += g.degree > 0
    assert common_factors >= 75
    with pytest.raises(InvalidInput):
        poly_xgcd(RatPolynomial(), RatPolynomial())


def test_field_inverse_matches_euclidean_oracle():
    rng = random.Random(223)
    fields = 0
    while fields < 40:
        d = rng.randint(1, 8)
        m = RatPolynomial([Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3])) for _ in range(d)] + [1])
        if not factor_over_rationals(m).is_irreducible():
            continue
        fields += 1
        L = NumberField(m, check=False)
        for k in range(6):
            # every third element is rational
            size = 1 if k % 3 == 0 else d
            alpha = L.element([Fraction(rng.randint(-4, 4), rng.choice([1, 3])) for _ in range(size)])
            if alpha.is_zero():
                continue
            inverse = alpha.inverse()
            assert inverse == cofactor_inverse(alpha), (m, alpha)
            assert alpha * inverse == L.one


def test_field_inverse_of_zero_and_of_zero_divisors():
    L = NumberField(x ** 3 - Fraction(1, 2), check=False)
    with pytest.raises(DivisionByZero):
        L.zero.inverse()
    # Q[x]/((x^2 - 2)(x^2 + 1/3)) is no field: x^2 - 2 divides zero, and
    # x + 1, prime to the modulus, is still a unit
    R = NumberField((x ** 2 - 2) * (x ** 2 + Fraction(1, 3)), check=False)
    for divisor in (R.element([-2, 0, 1]), R.element([Fraction(1, 3), 0, 1]) * R.theta):
        with pytest.raises(InvalidInput):
            divisor.inverse()
        with pytest.raises(InvalidInput):
            cofactor_inverse(divisor)
    unit = R.element([1, 1])
    assert unit.inverse() == cofactor_inverse(unit)
    assert unit * unit.inverse() == R.one


# ----------------------------------------------------------------------
# oracle: the rational roots of the factorization pipeline, which the roots
# mod one good prime replaced

def zassenhaus_rational_roots(p):
    """The rational roots of p, read off the linear factors that
    factor_over_rationals finds."""
    return sorted(-f[0] / f[1] for f, _ in factor_over_rationals(p).factors if f.degree == 1)


def test_rational_roots_match_zassenhaus_oracle():
    rng = random.Random(229)
    extra = 0
    for case in range(2000):
        # every tenth case has roots and a leading coefficient above 2^70
        top = 2 ** 75 if case % 10 == 0 else 40
        roots = {
            Fraction(rng.randint(-top, top), rng.randint(1, min(top, 2 ** 72)))
            for _ in range(rng.randint(1, 3))
        }
        p = _random_rat_poly(rng, rng.randint(0, 3)).scale(rng.randint(1, top))
        for r in roots:
            p = p * (x - r) ** rng.randint(1, 2)
        ours = exactalg.rational_roots(p)
        assert ours == zassenhaus_rational_roots(p), p
        assert roots <= set(ours)
        extra += len(ours) > len(roots)
    assert extra >= 100


def test_rational_roots_examples():
    assert exactalg.rational_roots(RatPolynomial([Fraction(-5, 3)])) == []
    with pytest.raises(InvalidInput):
        exactalg.rational_roots(RatPolynomial())
    big = 2 ** 71 + 1
    cases = [
        # a triple root at 0 and a double root at 1/2
        (x ** 3 * (2 * x - 1) ** 2 * (x ** 2 + 3), [0, Fraction(1, 2)]),
        (x ** 2 - 2, []),
        # non-monic, with coefficients above 2^70
        ((big * x - 3) * (x + big) ** 2 * (3 * x ** 2 - big), [-big, Fraction(3, big)]),
        ((7 * x - big) ** 3, [Fraction(big, 7)]),
    ]
    for p, roots in cases:
        assert exactalg.rational_roots(p) == roots == zassenhaus_rational_roots(p), p


# ----------------------------------------------------------------------
# the good-prime test: squarefree of full degree mod p

def cycle_types_good(zc, p):
    """The good-prime test _cycle_types ran inline on an integer list."""
    if zc[-1] % p == 0:
        return False
    fmod = exactalg._p_trim([v % p for v in zc], p)
    d = exactalg._p_trim([i * fmod[i] % p for i in range(1, len(fmod))], p)
    return bool(d) and len(exactalg._p_gcd(fmod, d, p)) == 1


def screen_good(poly, p):
    """The good-prime test on a p-integral RatPolynomial: its reduction mod
    p is squarefree of full degree."""
    red = reduce_mod(poly, p)
    slope = exactalg._p_trim(exactalg._z_derivative(red), p)
    return len(red) == poly.degree + 1 and len(exactalg._p_gcd(red, slope, p)) == 1


def norm_factors_good(factors, p):
    """The test numfield._gcds_mod_p ran inline on the norm's factors."""
    norm_p = [1]
    for G in factors:
        norm_p = exactalg._p_mul(norm_p, reduce_mod(G, p), p)
    slope = exactalg._p_trim(exactalg._z_derivative(norm_p), p)
    full_degree = len(norm_p) == 1 + sum(G.degree for G in factors)
    return full_degree and len(exactalg._p_gcd(norm_p, slope, p)) == 1


def test_good_prime_predicate_matches_the_inline_tests():
    rng = random.Random(227)
    primes = [p for p in range(2, 40) if exactalg.is_prime(p)]
    seen = set()
    for case in range(120):
        factors = [
            RatPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
                          + [rng.choice([1, 2, 3, 5, 6, 10])])
            for _ in range(2)
        ]
        if case % 10 == 0:
            factors[1] = factors[0]  # a square over Q
        f = factors[0] * factors[1]
        zc = [int(c) for c in f.coeffs]
        # p divides lc(f) * disc(f) exactly when it divides lc(f) * Res(f, f')
        res = resultant(f, f.derivative())
        for p in primes:
            ours = exactalg._p_squarefree_of_degree(exactalg._p_trim(zc, p), f.degree, p)
            assert ours == cycle_types_good(zc, p), (f, p)
            assert ours == screen_good(f, p), (f, p)
            assert ours == norm_factors_good(factors, p), (f, p)
            assert ours == (zc[-1] % p != 0 and res % p != 0), (f, p)
            seen.add("lc" if zc[-1] % p == 0 else "disc" if not ours else "good")
    assert seen == {"lc", "disc", "good"}


# ----------------------------------------------------------------------
# the memoized cycle types

def inline_cycle_types(zc):
    """The loop _cycle_types ran before its memo: every good prime of zc
    factored afresh, with no cache."""
    n = len(zc) - 1
    p = 1
    while True:
        p += 1
        if not exactalg.is_prime(p):
            continue
        fmod = exactalg._p_trim(zc, p)
        if not exactalg._p_squarefree_of_degree(fmod, n, p):
            continue
        degrees = []
        for block, k in exactalg._p_distinct_degree(exactalg._p_monic(fmod, p), p):
            degrees += [k] * ((len(block) - 1) // k)
        yield p, degrees


def reads_below(types, bound):
    return list(takewhile(lambda pair: pair[0] < bound, types))


def test_memoized_cycle_types_match_the_inline_loop():
    exactalg._p_cycle_type.cache_clear()
    rng = random.Random(233)
    seen = set()
    cases = 0
    while cases < 60:
        n = rng.randint(2, 8)
        # leading coefficients with small prime factors, so that some
        # primes below 60 divide lc
        zc = [rng.randint(-12, 12) for _ in range(n)] + [rng.choice([1, -1, 6, 10, 15, 21, 22])]
        f = RatPolynomial(zc)
        if not is_squarefree(f):
            continue
        cases += 1
        ours = reads_below(exactalg._cycle_types(zc), 60)
        assert ours == reads_below(inline_cycle_types(zc), 60), zc
        assert all(type(degrees) is list for _, degrees in ours)
        read = {p for p, _ in ours}
        for p in range(2, 60):
            if exactalg.is_prime(p) and p not in read:
                seen.add("lc" if zc[-1] % p == 0 else "disc")
        # a warm memo reads the same pairs
        assert reads_below(exactalg._cycle_types(zc), 60) == ours
    assert seen == {"lc", "disc"}
    assert exactalg._p_cycle_type.cache_info().hits > 0


def test_one_monic_residue_gives_one_read():
    rng = random.Random(239)
    for p in (3, 7, 13, 29):
        for _ in range(5):
            n = rng.randint(2, 8)
            f = [rng.randint(-9, 9) for _ in range(n)] + [rng.choice([1, 2, 5, 11])]
            if f[-1] % p == 0:
                continue
            # g = c*f + p*r with deg r < n: the same monic residue mod p,
            # another integer polynomial
            c = rng.randint(1, p - 1)
            g = [c * a + p * rng.randint(-3, 3) for a in f[:-1]] + [c * f[-1]]
            exactalg._p_cycle_type.cache_clear()
            at_f = dict(reads_below(exactalg._cycle_types(f), p + 1))
            before = exactalg._p_cycle_type.cache_info().hits
            at_g = dict(reads_below(exactalg._cycle_types(g), p + 1))
            assert at_f.get(p) == at_g.get(p), (f, g, p)
            assert at_g.get(p) == dict(reads_below(inline_cycle_types(g), p + 1)).get(p)
            # the read of g at p was a hit on f's entry
            assert exactalg._p_cycle_type.cache_info().hits > before


def trial_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert all(exactalg.is_prime(n) == trial_prime(n) for n in range(-3, 5000))
    # Carmichael numbers, a strong pseudoprime to the bases 2, 3, 5 and 7,
    # and Mersenne primes
    assert not any(map(exactalg.is_prime, (561, 1105, 1729, 41041, 3215031751)))
    assert exactalg.is_prime(2 ** 61 - 1) and exactalg.is_prime(2 ** 89 - 1)


def loop_p_readings(zc):
    """The reads _p_readings made before its prime table: is_prime on every
    integer, and the monic residue rebuilt by _p_trim and _p_monic."""
    p = 1
    while True:
        p += 1
        if exactalg.is_prime(p) and zc[-1] % p:
            monic = exactalg._p_monic(exactalg._p_trim(zc, p), p)
            yield p, exactalg._p_cycle_type(p, tuple(monic))


def test_readings_match_the_primality_loop(monkeypatch):
    rng = random.Random(241)
    keys = []
    memo = exactalg._p_cycle_type

    def recorded(p, monic):
        keys.append((p, monic))
        return memo(p, monic)

    monkeypatch.setattr(exactalg, "_p_cycle_type", recorded)
    table = galois._SMALL_PRIMES
    assert table == tuple(p for p in range(2, table[-1] + 1) if trial_prime(p))
    # leading coefficients negative, divisible by small primes, and a
    # product of every prime in the table, so that the reads run past it
    leads = [1, -1, -6, 30, -210, 2 * 3 * 5 * 7 * 11 * 13, math.prod(table), -math.prod(table)]
    for lc in leads:
        for _ in range(4):
            zc = [rng.randint(-40, 40) for _ in range(rng.randint(1, 6))] + [lc]
            reads = 30 if abs(lc) < 10 ** 6 else 3
            keys.clear()
            ours = list(islice(exactalg._p_readings(zc), reads))
            ours_keys = list(keys)
            keys.clear()
            assert ours == list(islice(loop_p_readings(zc), reads)), zc
            # the same memo keys: the monic residues agree
            assert ours_keys == keys
            assert all(lc % p for p, _ in ours)
    assert max(p for p, _ in ours) > table[-1]


def test_a_yielded_list_is_fresh():
    f = [-2, 2, -1, -5, 1]
    p, degrees = next(exactalg._cycle_types(f))
    assert (p, degrees) == (5, [1, 3])
    degrees.append(99)
    degrees[0] = 7
    assert next(exactalg._cycle_types(f)) == (5, [1, 3])
    first, second = (next(exactalg._cycle_types(f))[1] for _ in range(2))
    assert first == second and first is not second


# ----------------------------------------------------------------------
# oracles: the interpolation and Euclidean kernels that power sums and the
# modular pullback replaced

def _p_resultant(f, g, p):
    """Sylvester resultant of reduced f, g over F_p (0 when either is zero),
    by the same Euclidean recursion as ``resultant``."""
    if not f or not g:
        return 0
    a, b = f, g
    acc = 1
    while len(b) > 1:
        r = exactalg._p_mod(a, b, p)
        if not r:
            return 0
        da, db, dr = len(a) - 1, len(b) - 1, len(r) - 1
        if da % 2 and db % 2:
            acc = -acc
        acc = acc * pow(b[-1], da - dr, p) % p
        a, b = b, r
    return acc * pow(b[-1], len(a) - 1, p) % p


def interpolate(sample, npoints):
    """The polynomial of degree < npoints through (c, sample(c)) at the
    points c = 0, 1, -1, 2, -2, ..., by Lagrange's formula over Z."""
    xs = []
    c = 0
    while len(xs) < npoints:
        xs.append(c)
        c = -c if c > 0 else -c + 1
    ys = [sample(Fraction(c)) for c in xs]
    den = 1
    for y in ys:
        den = den * y.denominator // gcd(den, y.denominator)
    node_poly = [1]
    for c in xs:
        node_poly = [0] + node_poly
        for k in range(len(node_poly) - 1):
            node_poly[k] -= c * node_poly[k + 1]
    weights = []
    for c in xs:
        w = 1
        for cj in xs:
            if cj != c:
                w *= c - cj
        weights.append(w)
    common = 1
    for w in weights:
        common = common * abs(w) // gcd(common, w)
    acc = [0] * npoints
    for c, w, y in zip(xs, weights, ys):
        scale = y.numerator * (den // y.denominator) * (common // w)
        if not scale:
            continue
        q = node_poly[npoints]
        for k in range(npoints - 1, -1, -1):
            acc[k] += scale * q
            q = node_poly[k] + c * q
    total = den * common
    return RatPolynomial([Fraction(a, total) for a in acc])


def newton_interpolate(sample, npoints):
    """The Fraction Newton divided-difference kernel that interpolate
    replaced; same nodes 0, 1, -1, 2, -2, ..."""
    xs = []
    c = Fraction(0)
    while len(xs) < npoints:
        xs.append(c)
        c = -c if c > 0 else -c + 1
    coef = [sample(c) for c in xs]
    for j in range(1, npoints):
        for i in range(npoints - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = RatPolynomial([coef[-1]])
    for i in range(npoints - 2, -1, -1):
        poly = poly * RatPolynomial([-xs[i], 1]) + RatPolynomial([coef[i]])
    return poly


def interpolated_norm(f, shift=0):
    """The norm of f(x + shift*theta) from L[x] to Q[x], interpolated from
    Res_y(m(y), F(c + shift*y, y)) at n*d + 1 points c, with F the lift of
    f to Q[x, y]."""
    L = f.field
    m = L.modulus
    lifted = [c.to_poly() for c in reversed(f.coeffs)]

    def sample(c):
        arg = RatPolynomial([c, shift])
        val = RatPolynomial()
        for a in lifted:
            val = val * arg + a
        val = val % m
        return Fraction(0) if val.is_zero() else resultant(m, val)

    return interpolate(sample, f.degree * L.degree + 1)


def euclidean_pull_back(g, fl, s):
    """The factors gcd(g, G(x - s*theta)) of g, by Horner and the
    Euclidean gcd over L; the largest G's is g divided by the others."""

    def gcd(a, b):
        while not b.is_zero():
            a, b = b, a % b
        return a * a.lc.inverse()

    L = g.field
    back = NfPolynomial(L, [L.element([-s]) * L.theta, L.one])
    norm_factors = [G for G, _ in fl.factors]
    largest = max(norm_factors, key=lambda G: G.degree)
    pieces = []
    rest = NfPolynomial(L, [L.one])
    for G in norm_factors:
        if G is largest:
            continue
        acc = NfPolynomial(L)
        for c in reversed(G.coeffs):
            acc = (acc * back + NfPolynomial(L, [L.element([c])])) % g
        h = gcd(g, acc)
        if h.degree >= 1:
            pieces.append(h)
            rest = rest * h
    return pieces + [g // rest]


def interpolated_presentation(curve, a, t, lam):
    """Res_x(a(x) - t, (T - x)^2 - lam^2 h(x)) as a polynomial in T."""
    p = a - RatPolynomial([t])
    hlam = curve.h.scale(lam * lam)
    return interpolate(
        lambda c: resultant(p, RatPolynomial([c, -1]) ** 2 - hlam), 2 * a.degree + 1
    )


def interpolated_value_at_place(curve, f, place):
    """function_value_at_place with the characteristic polynomial
    interpolated from Res_x(u, T*d - num), or Res_x(u, (T*d - a)^2 - b^2*h)
    at an inert place."""
    v = function_valuation(curve, f, place)
    if v < 0:
        return POINT_INF
    if v > 0:
        return point_rat(0)
    if place.kind == INFINITY.kind:
        return point_rat(f.a.lc)
    u = place.u
    j = _ord_u(f.den, u)
    uj = u ** j
    d = (f.den // uj) % u
    b = RatPolynomial()
    if place.kind == KIND_SPLIT:
        vk = _sqrt_lift(curve, u, place.v, j + 1)
        a = ((f.a + f.b * vk) % (uj * u)) // uj
    else:
        a = (f.a // uj) % u
        if place.kind == KIND_INERT:
            b = (f.b // uj) % u
    b2h = b * b * (curve.h % u)

    def charpoly_at(t):
        q = d * t - a
        if b2h:
            q = q * q - b2h
        return resultant(u, q) if q else Fraction(0)

    npoints = (2 if b2h else 1) * u.degree + 1
    return point_closed(squarefree_part(interpolate(charpoly_at, npoints)))


def test_interpolate_matches_newton_oracle():
    rng = random.Random(41)
    for npoints in range(1, 41):
        for trial in range(3):
            if trial == 0:
                # integer samples, as the mod-p shift screen gives
                values = [rng.randint(0, 2 ** 31 - 2) for _ in range(npoints)]
            else:
                values = [
                    Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                    if rng.random() < 0.7
                    else Fraction(0)
                    for _ in range(npoints)
                ]
            nodes = {}
            sample = lambda c: values[nodes.setdefault(c, len(nodes))]
            got = interpolate(sample, npoints)
            nodes.clear()
            assert got == newton_interpolate(sample, npoints), npoints
            assert got.degree < npoints


def test_interpolate_recovers_a_polynomial():
    f = RatPolynomial([Fraction(1, 3), 0, -7, Fraction(5, 2), 0, 1])
    assert interpolate(f, 6) == f
    assert interpolate(f, 11) == f
    assert interpolate(lambda c: Fraction(0), 5).is_zero()


# ----------------------------------------------------------------------
# power sums

def test_power_sums_of_known_roots():
    roots = [Fraction(3), Fraction(-1, 2), Fraction(-1, 2), Fraction(5, 7)]
    poly = RatPolynomial([1])
    for r in roots:
        poly = poly * RatPolynomial([-r, 1])
    sums = power_sums(list(poly.coeffs), 12)
    assert sums == [sum(r ** k for r in roots) for k in range(12)]
    # an integral polynomial keeps Python ints
    sums = power_sums([-2, 0, 0, 1], 9)  # x^3 - 2
    assert sums == [3, 0, 0, 6, 0, 0, 12, 0, 0]
    assert all(type(c) is int for c in sums)


def test_from_power_sums_inverts_power_sums():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(0, 9)
        coeffs = [
            Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 10]))
            for _ in range(n)
        ] + [Fraction(1)]
        poly = RatPolynomial(coeffs)
        assert from_power_sums(power_sums(coeffs, n + 1), n) == poly
        # roots scaled by C: C^n poly(x / C) is integral, and unscaled back
        scale = poly.den
        scaled = [int(q * scale ** (n - i)) for i, q in enumerate(poly.coeffs)]
        assert scaled == [q * scale ** (n - i) for i, q in enumerate(poly.coeffs)]
        assert from_power_sums(power_sums(scaled, n + 1), n, scale) == poly


def reducing_p_mul(a, b, p):
    """The _p_mul kernel that reduced every coefficient update mod p."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] = (out[i + j] + u * v) % p
    return exactalg._p_trim(out, p)


def reducing_p_divmod(f, g, p):
    """The _p_divmod kernel that reduced every coefficient update mod p."""
    if not g:
        raise ZeroDivisionError
    rem = [u % p for u in f]
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * max(0, len(f) - dg)
    while len(rem) - 1 >= dg and rem:
        c = rem[-1] * inv % p
        k = len(rem) - 1 - dg
        q[k] = c
        for j, v in enumerate(g):
            rem[k + j] = (rem[k + j] - c * v) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return exactalg._p_trim(q, p), exactalg._p_trim(rem, p)


@pytest.mark.parametrize("p", [7, 251, 2 ** 31 - 1, 13 ** 20])
def test_deferred_reduction_matches_reducing_kernels(p):
    # 13^20 is a Hensel-lifting modulus; inputs are unreduced, some negative,
    # some with zero top coefficients mod p
    rng = random.Random(p)

    def poly(n):
        c = [rng.randint(-3 * p, 3 * p) for _ in range(n)]
        if c and rng.random() < 0.2:
            c[-1] = p * rng.randint(-2, 2)
        return c

    for _ in range(150):
        a, b = poly(rng.randint(0, 14)), poly(rng.randint(0, 14))
        assert exactalg._p_mul(a, b, p) == reducing_p_mul(a, b, p)
        g = poly(rng.randint(1, 9))
        while g[-1] % p == 0 or g[-1] % 13 == 0:
            g[-1] = rng.randint(1, p - 1)
        assert exactalg._p_divmod(a, g, p) == reducing_p_divmod(a, g, p)


# ----------------------------------------------------------------------
# oracles: the multiply-then-reduce loops that the reduction tables
# replaced (x^(n+j) mod f as rows, products reduced in one pass in ints)

PRIMES_TO_199 = [p for p in range(2, 200) if exactalg.is_prime(p)]


def divmod_gcd(a, b, p):
    """The Euclidean _p_gcd that divided by each divisor with _p_divmod."""
    while b:
        a, b = b, exactalg._p_mod(a, b, p)
    return exactalg._p_monic(a, p)


def reducing_powmod(base, e, mod, p):
    """The _p_powmod that reduced each product with _p_mod(_p_mul(...))."""
    result = [1]
    base = exactalg._p_mod(base, mod, p)
    while e:
        if e & 1:
            result = exactalg._p_mod(exactalg._p_mul(result, base, p), mod, p)
        base = exactalg._p_mod(exactalg._p_mul(base, base, p), mod, p)
        e >>= 1
    return result


def powmod_distinct_degree(f, p):
    """The _p_distinct_degree that raised h to the p-th power mod f afresh
    for every degree."""
    out = []
    h = [0, 1]
    k = 0
    f = list(f)
    while len(f) - 1 > 2 * k:
        k += 1
        h = reducing_powmod(h, p, f, p)
        g = divmod_gcd(exactalg._p_trim(exactalg._z_sub(h, [0, 1]), p), f, p)
        if len(g) > 1:
            out.append((g, k))
            f = exactalg._p_divmod(f, g, p)[0]
            h = exactalg._p_mod(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def fraction_product(a, b):
    """The FieldElement product in Fractions, reduced by the rows
    x^d .. x^(2d-2) mod m, also in Fractions."""
    m = a.field.modulus.coeffs
    d = len(m) - 1
    rows = [[-c for c in m[:d]]]
    for _ in range(d - 2):
        cur, top = rows[-1], rows[-1][-1]
        rows.append([Fraction(0)] + cur[:-1])
        for i in range(d):
            rows[-1][i] -= top * m[i]
    prod = [Fraction(0)] * (2 * d - 1)
    for i, u in enumerate(a.coeffs):
        for j, v in enumerate(b.coeffs):
            prod[i + j] += u * v
    out = prod[:d]
    for k in range(d, 2 * d - 1):
        for i in range(d):
            out[i] += prod[k] * rows[k - d][i]
    return tuple(out)


def _random_residues(rng, n, p, monic=False):
    """A reduced int list of degree n (top coefficient nonzero mod p)."""
    top = 1 if monic else rng.randrange(1, p)
    return [rng.randrange(p) for _ in range(n)] + [top]


def test_gcd_matches_divmod_oracle():
    rng = random.Random(241)
    common = 0
    for p in PRIMES_TO_199:
        for n in range(0, 15):
            a = _random_residues(rng, n, p)
            b = _random_residues(rng, rng.randint(0, 14), p)
            if n % 3 == 0:
                # a shared factor mod p
                c = _random_residues(rng, rng.randint(1, 4), p)
                a, b = exactalg._p_mul(a, c, p), exactalg._p_mul(b, c, p)
            g = exactalg._p_gcd(a, b, p)
            assert g == divmod_gcd(a, b, p), (a, b, p)
            common += len(g) > 1
            assert exactalg._p_gcd(a, [], p) == divmod_gcd(a, [], p) == exactalg._p_monic(a, p)
            assert exactalg._p_gcd([], b, p) == divmod_gcd([], b, p)
    assert common > len(PRIMES_TO_199) * 5
    assert exactalg._p_gcd([], [], 7) == divmod_gcd([], [], 7) == []


def test_powmod_matches_reducing_oracle():
    rng = random.Random(251)
    for p in PRIMES_TO_199:
        for n in range(1, 15):
            # every third modulus is not monic
            mod = _random_residues(rng, n, p, monic=n % 3 != 0)
            base = [rng.randint(-3 * p, 3 * p) for _ in range(rng.randint(0, 2 * n))]
            for e in (0, 1, 2, p, rng.randrange(p ** 3)):
                assert exactalg._p_powmod(base, e, mod, p) == reducing_powmod(base, e, mod, p)
                # x^e takes the shift path
                assert exactalg._p_powmod([0, 1], e, mod, p) == reducing_powmod([0, 1], e, mod, p)
        # a constant modulus, monic or not
        for c in (1, rng.randrange(1, p)):
            for e in (0, 1, 5):
                assert exactalg._p_powmod([2, 1], e, [c], p) == reducing_powmod([2, 1], e, [c], p)


def test_distinct_degree_matches_powmod_oracle():
    rng = random.Random(257)
    blocks = set()
    for p in PRIMES_TO_199:
        for n in range(1, 15):
            while True:
                f = _random_residues(rng, n, p, monic=True)
                if exactalg._p_squarefree_of_degree(f, n, p):
                    break
            ours = exactalg._p_distinct_degree(f, p)
            assert ours == powmod_distinct_degree(f, p), (f, p)
            blocks.update(k for _, k in ours)
    assert blocks >= set(range(1, 15))


def test_factor_mod_p_matches_the_oracle_kernels(monkeypatch):
    rng = random.Random(263)
    cases = []
    for _ in range(60):
        p = rng.choice(PRIMES_TO_199[:20])
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(1, 12))] + [rng.choice([1, 3, 7])]
        if coeffs[-1] % p == 0:
            continue
        if len(cases) % 4 == 0:
            coeffs = exactalg._z_mul(coeffs, coeffs[:3])  # a repeated factor mod p
        cases.append((coeffs, p, rng.randrange(1000)))
    ours = [exactalg.factor_mod_p(c, p, seed=s) for c, p, s in cases]
    monkeypatch.setattr(exactalg, "_p_gcd", divmod_gcd)
    monkeypatch.setattr(exactalg, "_p_powmod", reducing_powmod)
    monkeypatch.setattr(exactalg, "_p_distinct_degree", powmod_distinct_degree)
    theirs = [exactalg.factor_mod_p(c, p, seed=s) for c, p, s in cases]
    assert ours == theirs
    assert any(m > 1 for fl in ours for _, m in fl)
    assert any(len(f) > 3 for fl in ours for f, _ in fl)


def random_fields(rng):
    """Number fields of degree 1, 2, ..., 6, 1, 2, ... with random monic
    irreducible moduli; every other modulus has non-integral coefficients."""
    fields = 0
    while True:
        d = 1 + fields % 6
        dens = [1] if fields % 2 else [1, 2, 3, 7]
        m = RatPolynomial([Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(d)] + [1])
        if factor_over_rationals(m).is_irreducible():
            fields += 1
            yield NumberField(m, check=False)


def test_field_product_matches_fraction_oracle():
    rng = random.Random(269)
    for L in islice(random_fields(rng), 60):
        d = L.degree
        m = L.modulus

        def element():
            return L.element([Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 5])) for _ in range(d)])

        for a, b in [(element(), element()) for _ in range(8)] + [(L.zero, element()), (L.one, L.theta)]:
            product = a * b
            assert product.coeffs == fraction_product(a, b), (m, a, b)
            assert all(type(c) is Fraction for c in product.coeffs)
        assert (L.theta * 3).coeffs == fraction_product(L.theta, L.element([3]))


# ----------------------------------------------------------------------
# oracles: the per-ring loops that the shared list kernels (_z_add, _z_mul,
# _divmod_list, _numerators) replaced

def loop_rat_add(f, g):
    """RatPolynomial.__add__ with its own loop."""
    a, b = f.coeffs, g.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return RatPolynomial(out)


def loop_rat_mul(f, g):
    """RatPolynomial.__mul__ with its own loop."""
    a, b = f.coeffs, g.coeffs
    if not a or not b:
        return RatPolynomial()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return RatPolynomial(out)


def loop_rat_divmod(f, g):
    """RatPolynomial.__divmod__ with its own loop, dividing by lc(g)."""
    rem = list(f.coeffs)
    d = g.degree
    lead = g.coeffs[-1]
    q = [Fraction(0)] * max(0, len(rem) - d)
    while len(rem) - 1 >= d and rem:
        c = rem[-1] / lead
        k = len(rem) - 1 - d
        q[k] = c
        for j, y in enumerate(g.coeffs):
            rem[k + j] -= c * y
        while rem and rem[-1] == 0:
            rem.pop()
    return RatPolynomial(q), RatPolynomial(rem)


def loop_nf_add(f, g):
    """NfPolynomial.__add__ with its own loop."""
    a, b = f.coeffs, g.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = out[i] + x
    return NfPolynomial(f.field, out)


def loop_nf_mul(f, g):
    """NfPolynomial.__mul__ with its own loop, from the field's zero."""
    a, b = f.coeffs, g.coeffs
    if not a or not b:
        return NfPolynomial(f.field)
    zero = f.field.zero
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return NfPolynomial(f.field, out)


def loop_nf_divmod(f, g):
    """NfPolynomial.__divmod__ with its own loop."""
    inv = None if g.lc == 1 else g.lc.inverse()
    rem = list(f.coeffs)
    d = g.degree
    q = [f.field.zero] * max(0, len(rem) - d)
    while len(rem) - 1 >= d and rem:
        c = rem[-1] if inv is None else rem[-1] * inv
        k = len(rem) - 1 - d
        q[k] = c
        for j, y in enumerate(g.coeffs):
            rem[k + j] = rem[k + j] - c * y
        while rem and rem[-1].is_zero():
            rem.pop()
    return NfPolynomial(f.field, q), NfPolynomial(f.field, rem)


def loop_p_mul(a, b, p):
    """_p_mul with its own loop: one reduction per output coefficient."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return exactalg._p_trim(out, p)


def loop_p_mulmod(a, b, rows, p):
    """The general branch of _p_mulmod with its own product loop."""
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return exactalg._p_reduce(prod, rows, p)


def loop_denominator_lcm(polys):
    """The lcm of the coefficient denominators of polys, one at a time."""
    den = 1
    for poly in polys:
        for q in poly.coeffs:
            den = den * q.denominator // gcd(den, q.denominator)
    return den


def loop_scaled_ints(poly, den):
    """den * poly as ints, for den a multiple of every denominator of poly."""
    return [q.numerator * (den // q.denominator) for q in poly.coeffs]


@pytest.mark.parametrize("p", [7, 251, 2 ** 31 - 1, 13 ** 20])
def test_modular_products_match_loop_oracles(p):
    # 13^20 is a Hensel-lifting modulus; _p_mul also takes unreduced input
    rng = random.Random(p + 1)
    for n in range(1, 13):
        rows = exactalg._p_table(_random_residues(rng, n, p, monic=True), p)
        for _ in range(12):
            a = exactalg._p_trim([rng.randrange(p) for _ in range(rng.randint(0, n))], p)
            b = exactalg._p_trim([rng.randrange(p) for _ in range(rng.randint(0, n))], p)
            got = exactalg._p_mulmod(a, b, rows, p)
            assert got == loop_p_mulmod(a, b, rows, p)
            assert exactalg._p_mulmod(a, a, rows, p) == loop_p_mulmod(a, list(a), rows, p)
            u = [rng.randint(-3 * p, 3 * p) for _ in range(rng.randint(0, 2 * n))]
            prod = exactalg._p_mul(u, b, p)
            assert prod == loop_p_mul(u, b, p)
            assert all(type(c) is int for c in got + prod)


@pytest.mark.parametrize("dens", [[1], [1, 2, 3, 10]])
def test_rational_polynomial_ops_match_loop_oracles(dens):
    rng = random.Random(len(dens))

    def poly():
        # a third of the coefficients are zero
        return RatPolynomial([
            Fraction(rng.randint(-9, 9), rng.choice(dens)) if rng.random() < 0.67 else 0
            for _ in range(rng.randint(0, 8))
        ])

    for _ in range(300):
        f, g = poly(), poly()
        results = [f + g, f * g]
        assert results == [loop_rat_add(f, g), loop_rat_mul(f, g)]
        if g:
            q, r = divmod(f, g)
            assert (q, r) == loop_rat_divmod(f, g)
            assert q * g + r == f and r.degree < g.degree
            results += [q, r]
        assert all(type(c) is Fraction for h in results for c in h.coeffs)


def test_field_polynomial_ops_match_loop_oracles():
    rng = random.Random(271)
    for L in islice(random_fields(rng), 24):
        def element():
            # a third of the elements are zero
            return L.element([
                Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3])) if rng.random() < 0.67 else 0
                for _ in range(L.degree)
            ])

        def poly():
            return NfPolynomial(L, [element() for _ in range(rng.randint(0, 5))])

        zero, one = NfPolynomial(L), NfPolynomial(L, [L.one])
        # a product that reaches x^1 through no pair of nonzero terms
        sparse = NfPolynomial(L, [L.one, L.zero, L.theta]), NfPolynomial(L, [L.theta + 1])
        pairs = [(poly(), poly()) for _ in range(6)] + [(zero, poly()), (poly(), one), sparse]
        for f, g in pairs:
            results = [f + g, f * g]
            assert results == [loop_nf_add(f, g), loop_nf_mul(f, g)]
            # and the monic divisor, which needs no inverse
            for divisor in [] if g.is_zero() else [g, g * g.lc.inverse()]:
                q, r = divmod(f, divisor)
                assert (q, r) == loop_nf_divmod(f, divisor)
                assert q * divisor + r == f and r.degree < divisor.degree
                results += [q, r]
            assert all(type(c) is FieldElement and c.field == L for h in results for c in h.coeffs)


def test_subtraction_matches_adding_the_negation():
    rng = random.Random(281)

    def rational(dens):
        return Fraction(rng.randint(-9, 9), rng.choice(dens)) if rng.random() < 0.67 else 0

    for _ in range(300):
        f, g = (RatPolynomial([rational([1, 2, 3]) for _ in range(rng.randint(0, 7))])
                for _ in range(2))
        c = rational([1, 5])
        assert f - g == f + (-g)
        assert f - f == POLY_ZERO
        assert f - c == f + (-RatPolynomial([c])) and c - f == RatPolynomial([c]) + (-f)
        assert all(type(v) is Fraction for h in (f - g, c - f) for v in h.coeffs)
    for L in islice(random_fields(rng), 24):
        def element():
            return L.element([rational([1, 2]) for _ in range(L.degree)])

        for _ in range(6):
            a, b, c = element(), element(), rational([1, 3])
            assert a - b == a + (-b) and (a - a).is_zero()
            assert a - c == a + (-L.element([c])) and c - a == L.element([c]) + (-a)
            f, g = (NfPolynomial(L, [element() for _ in range(rng.randint(0, 5))])
                    for _ in range(2))
            for h, k in ((f, g), (g, f), (f, f), (f, NfPolynomial(L))):
                diff = h - k
                assert diff == h + (-k)
                assert all(type(v) is FieldElement and v.field == L for v in diff.coeffs)


def test_numerators_match_scaled_ints_oracle():
    rng = random.Random(277)

    def poly():
        return RatPolynomial([
            Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 10, 49])) for _ in range(rng.randint(0, 7))
        ])

    for _ in range(300):
        a, b = poly(), poly()
        den, ints = exactalg._numerators(a.coeffs + b.coeffs)
        assert den == loop_denominator_lcm((a, b))
        assert ints == loop_scaled_ints(a, den) + loop_scaled_ints(b, den)
        assert all(type(c) is int for c in ints)
        # the same two lists, from each polynomial's nums over its den
        common, na, nb = exactalg._common_numerators(a, b)
        assert (common, list(na) + list(nb)) == (den, ints)
