import dataclasses
import json
import random
import sys
from fractions import Fraction
from functools import partial
from itertools import islice
from pathlib import Path

import pytest

from primpoints import (
    DivisionByZero,
    InvalidInput,
    NfPolynomial,
    NotAField,
    NumberField,
    POLY_ONE,
    POLY_X,
    PrimitivityCertificate,
    RatPolynomial,
    classify_specialization,
    factor_over_rationals,
    is_primitive_field,
    principal_subfields,
    prospect,
    resolvent_cubic,
    trager_factor,
)
from primpoints import exactalg, numfield
from primpoints.exactalg import rat_to_str
from primpoints.linalg import nullspace
from test_exactalg import (
    euclidean_pull_back,
    interpolated_norm,
    prs_squarefree,
    zassenhaus_rational_roots,
)

x = POLY_X
SWINNERTON = x ** 4 - 10 * x ** 2 + 1


# ----------------------------------------------------------------------
# basic arithmetic

def test_gaussian_arithmetic():
    L = NumberField(x ** 2 + 1)
    i = L.theta
    assert i * i == -1
    assert i.inverse() == -i
    assert i * i == L.element([-1])


def test_cubic_power_reduction():
    L = NumberField(x ** 3 - 2)
    t = L.theta
    assert t ** 4 == L.element([0, 2])  # theta^4 = 2 theta


def test_mixed_fields_rejected():
    a = NumberField(x ** 2 + 1).theta
    b = NumberField(x ** 2 - 2).theta
    with pytest.raises(InvalidInput):
        a + b


def test_invert_zero():
    L = NumberField(x ** 2 + 1)
    with pytest.raises(DivisionByZero):
        L.zero.inverse()


def test_reducible_modulus_rejected():
    with pytest.raises(NotAField):
        NumberField(x ** 2 - 1)


def test_minimal_polynomial():
    L = NumberField(SWINNERTON)
    t = L.theta
    sqrt2 = (t ** 3 - L.element([9]) * t) * L.element([Fraction(1, 2)])
    assert sqrt2 * sqrt2 == L.element([2])
    assert sqrt2.minimal_polynomial() == x ** 2 - 2


# ----------------------------------------------------------------------
# Trager factorization

def test_trager_gaussian():
    L = NumberField(x ** 2 + 1)
    fact = trager_factor(NfPolynomial.from_rat(L, x ** 2 + 1))
    roots = sorted(tuple((-g.coeffs[0]).coeffs) for g, _ in fact.factors)
    assert roots == [((0, -1)), ((0, 1))]
    assert fact.expand() == NfPolynomial.from_rat(L, x ** 2 + 1)


def test_trager_pure_cubic():
    L = NumberField(x ** 3 - 2)
    f = NfPolynomial.from_rat(L, x ** 3 - 2)
    fact = trager_factor(f)
    assert sorted(g.degree for g, _ in fact.factors) == [1, 2]
    assert fact.expand() == f


def test_trager_galois_quartic_splits():
    # Q(sqrt2 + sqrt3) is Galois with group V4, so its polynomial splits
    L = NumberField(SWINNERTON)
    f = NfPolynomial.from_rat(L, SWINNERTON)
    fact = trager_factor(f)
    assert [g.degree for g, _ in fact.factors] == [1, 1, 1, 1]
    for g, _ in fact.factors:
        root = -g.coeffs[0]
        acc = L.zero
        for c in reversed(SWINNERTON.coeffs):
            acc = acc * root + L.element([c])
        assert acc.is_zero()


def test_trager_multiplicities():
    L = NumberField(x ** 2 + 1)
    f = NfPolynomial.from_rat(L, (x ** 2 + 1) ** 2 * (x - 3))
    fact = trager_factor(f)
    assert fact.expand() == f
    assert sorted(m for _, m in fact.factors) == [1, 2, 2]


def test_trager_factors_are_irreducible():
    # re-factoring each factor must return it unchanged
    L = NumberField(x ** 3 - 2)
    f = NfPolynomial.from_rat(L, x ** 6 - 4)
    fact = trager_factor(f)
    assert fact.expand() == f
    # x^3 - 2 divides the input, so x - theta is split off before the norm
    assert (NfPolynomial(L, [-L.theta, L.one]), 1) in fact.factors
    for g, _ in fact.factors:
        refact = trager_factor(g)
        assert refact.is_irreducible()
        assert refact.factors[0][0] == g


def test_one_exact_norm_per_factorization(monkeypatch):
    # each shift tried has its exact norm computed once, from power sums;
    # x - theta is divided out of m first, so each norm is the cofactor's,
    # of degree d*(d - 1), with no arithmetic in L
    calls = []
    exact = numfield._cofactor_norm

    def counted(m, g_q, shift):
        norm = exact(m, g_q, shift)
        calls.append((shift, norm))
        return norm

    monkeypatch.setattr(numfield, "_cofactor_norm", counted)
    for m in (x ** 6 - x - 1, x ** 6 - 2, SWINNERTON):
        calls.clear()
        principal_subfields(NumberField(m))
        shifts = [shift for shift, _ in calls]
        assert len(set(shifts)) == len(shifts)
        # at 0 the norm is a power, and at -1 its roots alpha_i + alpha_j repeat
        assert shifts == [s for s in islice(numfield._shift_sequence(), 2 + len(shifts))
                          if s not in (0, -1)]
        d = m.degree
        assert all(norm.degree == d * (d - 1) for _, norm in calls)
        assert numfield.is_squarefree(calls[-1][1])
        assert not any(numfield.is_squarefree(norm) for _, norm in calls[:-1])
    assert len(calls) >= 2  # x^6 - 2 passes over shifts with repeated roots


def test_known_factor_needs_no_gcd(monkeypatch):
    gcds = _count_calls(monkeypatch, NfPolynomial, "gcd")
    for m, pulled_back in ((x ** 6 - x - 1, 0), (x ** 6 - 2, 2)):
        L = NumberField(m)
        gcds.clear()
        entries = principal_subfields(L)
        # x^6 - x - 1 has cofactor an irreducible quintic over L, and x^6 - 2
        # the factors x + theta and x^2 +- theta*x + theta^2, pulled back mod p
        assert gcds == []
        assert len(entries) == 2 + pulled_back
        assert [e.degree for e in entries][-1] == 6


def _random_field(rng, d, denominators=True):
    while True:
        coeffs = [
            Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]) if denominators else 1)
            for _ in range(d)
        ]
        m = RatPolynomial(coeffs + [1])
        if m.degree == d and factor_over_rationals(m).is_irreducible():
            return NumberField(m)


def _random_element(rng, L, height=3):
    return L.element([
        Fraction(rng.randint(-height, height), rng.choice([1, 1, 2, 5]))
        for _ in range(L.degree)
    ])


def test_nf_norm_matches_interpolated_resultants():
    rng = random.Random(101)
    for case in range(42):
        L = _random_field(rng, rng.randint(2, 8), denominators=case % 3 == 0)
        n = rng.randint(1, 4)
        coeffs = [_random_element(rng, L) for _ in range(n)]
        # every third polynomial is not monic
        lead = _random_element(rng, L) if case % 3 == 1 else L.one
        f = NfPolynomial(L, coeffs + [lead if not lead.is_zero() else L.one])
        shift = case % 7 - 3
        assert numfield.nf_norm(f, shift) == interpolated_norm(f, shift), (L, f, shift)


def test_cofactor_norm_matches_interpolated_resultants():
    rng = random.Random(103)
    for case in range(20):
        L = _random_field(rng, rng.randint(2, 6), denominators=case % 2 == 0)
        m = L.modulus
        extra = RatPolynomial(
            [Fraction(rng.randint(-5, 5), rng.choice([1, 3])) for _ in range(case % 3)] + [1]
        )
        g_q = numfield.squarefree_part(m * extra)
        cofactor = NfPolynomial.from_rat(L, g_q) // NfPolynomial(L, [-L.theta, L.one])
        for shift in (case % 7 - 3, 1):
            expected = interpolated_norm(cofactor, shift)
            assert numfield._cofactor_norm(m, g_q, shift) == expected, (m, g_q, shift)
            assert numfield.nf_norm(cofactor, shift) == expected


def _squarefree_norm_inputs():
    """(norm_at, skip) as trager_factor hands them to _squarefree_norm."""
    rng = random.Random(107)
    for case in range(30):
        L = _random_field(rng, rng.randint(2, 5))
        if case % 2:
            # a rational input, whose norm at shift 0 is a power
            g_q = RatPolynomial([rng.randint(-4, 4), rng.randint(-4, 4), 1])
            g = NfPolynomial.from_rat(L, numfield.squarefree_part(g_q))
            yield partial(numfield.nf_norm, g), (0,)
        else:
            coeffs = [_random_element(rng, L) for _ in range(rng.randint(1, 3))]
            yield partial(numfield.nf_norm, NfPolynomial(L, coeffs + [L.one])), ()
    # moduli whose first shifts have norms with repeated roots: the cyclotomic
    # x^4 + 1 and x^6 - 2 pass over shifts, and 2^31 - 1 divides denominators
    for m in (x ** 4 + 1, x ** 6 - 2, SWINNERTON, x ** 2 - Fraction(2, 2 ** 31 - 1)):
        yield partial(numfield._cofactor_norm, m, m), (0, -1)
    L = NumberField(x ** 2 - Fraction(2, 2 ** 31 - 1))
    g = NfPolynomial(L, [L.element([0, 3]), L.one]) * NfPolynomial.from_rat(L, L.modulus)
    yield partial(numfield.nf_norm, g), ()


def test_norm_screen_matches_resultant_screen():
    # the squarefree test that chooses a shift agrees with the PRS oracle,
    # and _squarefree_norm takes the first shift that passes it
    verdicts = set()
    passed_over = 0
    for norm_at, skip in _squarefree_norm_inputs():
        for shift in (0, 1, -2):
            norm = norm_at(shift)
            verdict = numfield.is_squarefree(norm)
            assert verdict == prs_squarefree(norm), (norm, shift)
            verdicts.add(verdict)
        shifts = [s for s in islice(numfield._shift_sequence(), 12) if s not in skip]
        norms = map(norm_at, shifts)
        expected = next((s, norm) for s, norm in zip(shifts, norms) if prs_squarefree(norm))
        assert numfield._squarefree_norm(norm_at, skip) == expected
        passed_over += expected[0] != shifts[0]
    assert verdicts == {True, False}
    assert passed_over >= 2


def test_screen_skipped_when_prime_divides_a_denominator():
    # 2^31 - 1 in the denominators of m and of the input
    m = x ** 2 - Fraction(2, 2 ** 31 - 1)
    L = NumberField(m)
    f = NfPolynomial.from_rat(L, m)
    fact = trager_factor(f)
    assert [(g.degree, mult) for g, mult in fact.factors] == [(1, 1), (1, 1)]
    assert fact.expand() == f
    g = NfPolynomial(L, [L.element([0, 3]), L.one]) * f
    fact = trager_factor(g)
    assert sorted(h.degree for h, _ in fact.factors) == [1, 1, 1]
    assert fact.expand() == g


def test_exact_test_after_inconclusive_screens(monkeypatch):
    # shifts whose norms are not squarefree are passed over by the exact
    # test alone, and the factors come out the same
    fields = [x ** 3 - 2, SWINNERTON, x ** 2 + 1]
    inputs = [NfPolynomial.from_rat(NumberField(m), m) for m in fields]
    L = NumberField(x ** 2 + 1)
    inputs.append(NfPolynomial(L, [L.element([0, -1]), L.zero, L.one]))  # x^2 - i
    verdicts = []
    exact = numfield.is_squarefree

    def recorded(poly):
        verdict = exact(poly)
        verdicts.append((verdict, prs_squarefree(poly)))
        return verdict

    monkeypatch.setattr(numfield, "is_squarefree", recorded)
    degrees = []
    for f in inputs:
        fact = trager_factor(f)
        assert fact.expand() == f
        assert all(mult == 1 for _, mult in fact.factors)
        degrees.append(sorted(g.degree for g, _ in fact.factors))
    assert degrees == [[1, 2], [1, 1, 1, 1], [1, 1], [2]]
    assert all(ours == oracle for ours, oracle in verdicts)
    assert (False, False) in verdicts


# a Swinnerton-Dyer quartic scaled by 1000: its factors over L carry
# denominators near 2 * 10^6, past what one prime below 2^31 reconstructs
SCALED_SWINNERTON = x ** 4 - 10 ** 7 * x ** 2 + 10 ** 12


def _pull_back_inputs():
    """(g, fl, s) as trager_factor hands them to _pull_back."""
    rational = [*_imprimitive_moduli(), SWINNERTON, x ** 6 - 2, SCALED_SWINNERTON]
    for m in rational:
        L = NumberField(m)
        g = NfPolynomial.from_rat(L, m) // NfPolynomial(L, [-L.theta, L.one])
        s, norm = numfield._squarefree_norm(
            lambda s: numfield._cofactor_norm(m, m, s), (0, -1)
        )
        yield g, factor_over_rationals(norm), s
    # inputs over L: with 2^31 - 1 in a denominator, and over Q(i)
    L = NumberField(x ** 2 - Fraction(2, 2 ** 31 - 1))
    L_i = NumberField(x ** 2 + 1)
    for g in (
        NfPolynomial(L, [L.element([0, 3]), L.one]) * NfPolynomial.from_rat(L, L.modulus),
        NfPolynomial(L_i, [L_i.element([1, 1]), L_i.one])
        * NfPolynomial(L_i, [L_i.element([0, -1]), L_i.zero, L_i.one])
        * NfPolynomial.from_rat(L_i, x ** 2 - 2),
    ):
        s, norm = numfield._squarefree_norm(lambda s: numfield.nf_norm(g, s), ())
        yield g, factor_over_rationals(norm), s


def test_modular_pull_back_matches_euclidean_gcd(monkeypatch):
    primes = []
    exact = numfield._gcds_mod_p

    def counted(*args):
        images = exact(*args)
        primes.append(images is not None)
        return images

    monkeypatch.setattr(numfield, "_gcds_mod_p", counted)
    used = []
    for g, fl, s in _pull_back_inputs():
        assert len(fl.factors) > 1
        primes.clear()
        ours = numfield._pull_back(g, fl, s)
        used.append((g.field.modulus, sum(primes), len(primes)))
        key = numfield._nf_sort_key
        assert sorted(ours, key=key) == sorted(euclidean_pull_back(g, fl, s), key=key)
    counts = {str(m): (good, tried) for m, good, tried in used}
    assert counts[str(SCALED_SWINNERTON)][0] >= 2
    # 2^31 - 1 divides a denominator there, so the first prime is passed over
    assert counts[str(x ** 2 - Fraction(2, 2 ** 31 - 1))] == (1, 2)


# the imprimitive tail of stream-sextic: terms (1, 1, +-1) of
# x^3 + y + a x^2 + b x + c on y^2 = x^5 - 1 meet this field
STREAM_SEXTIC_TAIL = x ** 6 + x ** 5 + 3 * x ** 4 + 2 * x ** 3 + x ** 2 + 1


def test_stream_sextic_tail_field_pinned(monkeypatch):
    witness = numfield._principal_witness(STREAM_SEXTIC_TAIL)
    assert witness.to_json() == {
        "degree": 2,
        "generator_coeffs": ["1", "2", "6", "2", "2", "0"],
        "minpoly": ["11", "0", "1"],
    }
    calls = [
        _count_calls(monkeypatch, exactalg, "resultant"),
        _count_calls(monkeypatch, numfield, "resultant"),
        _count_calls(monkeypatch, NfPolynomial, "gcd"),
    ]
    entries = principal_subfields(NumberField(STREAM_SEXTIC_TAIL))
    assert calls == [[], [], []]
    assert [e.degree for e in entries][-1] == 6
    assert any(e.generator_minpoly == x ** 2 + 11 for e in entries)


# ----------------------------------------------------------------------
# principal subfields

def test_principal_subfields_swinnerton():
    L = NumberField(SWINNERTON)
    entries = principal_subfields(L)
    assert sorted(e.degree for e in entries) == [2, 2, 2, 4]
    minpolys = {str(e.generator_minpoly) for e in entries if e.degree == 2}
    assert "x^2 - 2" in minpolys
    for e in entries:
        assert e.generator_minpoly.degree == e.degree
        # the subspace contains 1 and is multiplicatively closed
        span_rows = [list(b.coeffs) for b in e.basis]
        from primpoints.linalg import in_span

        assert in_span(span_rows, list(L.one.coeffs)) is not None
        for b1 in e.basis:
            for b2 in e.basis:
                assert in_span(span_rows, list((b1 * b2).coeffs)) is not None


def test_principal_subfields_prime_degree():
    L = NumberField(x ** 5 - 2)
    entries = principal_subfields(L)
    assert all(e.degree in (1, 5) for e in entries)


def test_principal_subfields_cyclotomic8():
    L = NumberField(x ** 4 + 1)
    entries = principal_subfields(L)
    proper = [e for e in entries if e.degree == 2]
    assert len(proper) == 3
    assert {str(e.generator_minpoly) for e in proper} == {
        "x^2 + 1",
        "x^2 - 2",
        "x^2 + 2",
    }
    # the full field appears in the list
    assert any(e.degree == 4 for e in entries)


def test_witness_builds_only_proper_entries(monkeypatch):
    moduli = [SWINNERTON, x ** 4 + 1, x ** 6 - 2, STREAM_SEXTIC_TAIL, x ** 6 - x - 1]
    expected = []
    for m in moduli:
        proper = [e for e in principal_subfields(NumberField(m)) if 1 < e.degree < m.degree]
        expected.append((len(proper), proper[0] if proper else None))
    # no cycle type settles any field, so principal subfields run on each
    monkeypatch.setattr(numfield, "_FROBENIUS_PRIMES", 0)
    built = _count_calls(monkeypatch, numfield, "_subfield_entry")
    for m, (count, first) in zip(moduli, expected):
        built.clear()
        witness = numfield._principal_witness(m)
        assert len(built) == count
        if first is None:
            assert witness is None
        else:
            assert (witness.degree, witness.generator, witness.generator_minpoly) == (
                first.degree, first.generator, first.generator_minpoly
            )
    assert [count for count, _ in expected] == [3, 3, 2, 1, 0]


PINNED = Path(__file__).with_name("principal_subfields_pinned.json")


def test_principal_subfields_pinned():
    # recorded when each factorization still computed four exact norms: the
    # shift screen must not move a basis, generator or minimal polynomial
    for entry in json.loads(PINNED.read_text()):
        L = NumberField(RatPolynomial.from_json(entry["modulus"]))
        got = [
            {
                "degree": e.degree,
                "basis": [[rat_to_str(c) for c in b.coeffs] for b in e.basis],
                "generator": [rat_to_str(c) for c in e.generator.coeffs],
                "minpoly": e.generator_minpoly.to_json(),
            }
            for e in principal_subfields(L)
        ]
        assert got == entry["subfields"], entry["modulus"]


# ----------------------------------------------------------------------
# resolvent cubic

def test_resolvent_examples():
    r = resolvent_cubic(SWINNERTON)
    assert r == x ** 3 + 10 * x ** 2 - 4 * x - 40
    for root in (2, -2, -10):
        assert r(Fraction(root)) == 0
    r2 = resolvent_cubic(x ** 4 + 1)
    assert r2 == x ** 3 - 4 * x
    assert sorted(
        -f[0] for f, _ in factor_over_rationals(r2).factors if f.degree == 1
    ) == [-2, 0, 2]
    r3 = resolvent_cubic(x ** 4 - x ** 3 - 4 * x ** 2 + 3)
    assert r3 == x ** 3 + 4 * x ** 2 - 12 * x - 51
    # rational-root test over the divisors of 51: all miss
    for cand in (1, -1, 3, -3, 17, -17, 51, -51):
        assert r3(Fraction(cand)) != 0
    assert not any(f.degree == 1 for f, _ in factor_over_rationals(r3).factors)


def test_resolvent_requires_monic_quartic():
    with pytest.raises(InvalidInput):
        resolvent_cubic(x ** 3 + 1)


def test_constant_modulus_rejected():
    with pytest.raises(InvalidInput, match="positive degree"):
        is_primitive_field(RatPolynomial([1]))


# ----------------------------------------------------------------------
# primitivity certificates

def test_certificate_swinnerton():
    cert = is_primitive_field(SWINNERTON)
    assert cert.verdict == "imprimitive"
    assert cert.witness.degree == 2
    assert cert.witness.generator_minpoly == x ** 2 - 2
    assert cert.verify()
    assert cert.witness.verify(SWINNERTON)


def test_certificate_prime_degree():
    cert = is_primitive_field(x ** 5 - 2)
    assert cert.verdict == "primitive" and cert.method == "prime_degree"
    assert cert.verify(strict=True)


def test_certificate_s4_quartic():
    cert = is_primitive_field(x ** 4 - x ** 3 - 4 * x ** 2 + 3)
    assert cert.verdict == "primitive" and cert.method == "resolvent_cubic"
    assert cert.verify(strict=True)


@pytest.mark.parametrize(
    "verdict, method, modulus",
    [
        ("primitive", "prime_degree", ["-1", "0", "0", "0", "0", "1"]),  # x^5 - 1
        ("primitive", "bogus", ["-2", "0", "0", "0", "0", "1"]),
        ("bogus", "prime_degree", ["-2", "0", "0", "0", "0", "1"]),
        ("primitive", "prime_degree", ["-2", "0", "0", "0", "0", "2"]),  # not monic
        ("primitive", "principal_subfields", ["0", "0", "0", "0", "0", "1"]),
        ("primitive", "resolvent_cubic", ["0", "-2", "0", "0", "1"]),  # x(x^3 - 2)
        # x^4 - 10x^2 + 1 has the subfield Q(sqrt 2), though it carries no witness
        ("primitive", "principal_subfields", ["1", "0", "-10", "0", "1"]),
    ],
)
def test_forged_certificates_rejected(verdict, method, modulus):
    data = {"verdict": verdict, "method": method, "modulus": modulus, "witness": None}
    assert not PrimitivityCertificate.from_json(data).verify()


@pytest.mark.parametrize(
    "method, modulus, generator, minpoly",
    [
        # a quadratic subfield of a sextic field is no resolvent-cubic proof
        ("resolvent_cubic", ["-2", "0", "0", "0", "0", "0", "1"], ["0", "0", "0", "1"],
         ["-2", "0", "1"]),
        # the prime-degree shortcut never proves a field imprimitive
        ("prime_degree", ["1", "0", "-10", "0", "1"], ["0", "0", "1"], ["1", "-10", "1"]),
    ],
)
def test_mislabelled_imprimitive_certificates_rejected(method, modulus, generator, minpoly):
    data = {
        "verdict": "imprimitive",
        "method": method,
        "modulus": modulus,
        "witness": {"degree": 2, "generator_coeffs": generator, "minpoly": minpoly},
    }
    cert = PrimitivityCertificate.from_json(data)
    assert cert.witness.verify(cert.modulus)
    assert not cert.verify()


@pytest.mark.parametrize(
    "change",
    [
        {"witness": {"degree": "2", "generator_coeffs": ["0", "0", "1"],
                     "minpoly": ["1", "-10", "1"]}},
        {"witness": {"degree": True, "generator_coeffs": ["0", "0", "1"],
                     "minpoly": ["1", "-10", "1"]}},
        {"witness": {"degree": 2, "minpoly": ["1", "-10", "1"]}},
        {"verdict": None},
        {"method": None},
        {"modulus": None},
        {"verdict": 1},
        {"method": ["principal_subfields"]},
    ],
)
def test_malformed_certificates_raise_invalid_input(change):
    data = {
        "verdict": "imprimitive",
        "method": "principal_subfields",
        "modulus": ["1", "0", "-10", "0", "1"],
        "witness": {"degree": 2, "generator_coeffs": ["0", "0", "1"],
                    "minpoly": ["1", "-10", "1"]},
    }
    assert PrimitivityCertificate.from_json(data).verify()
    for key, value in change.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    with pytest.raises(InvalidInput):
        PrimitivityCertificate.from_json(data).verify()


def _sqrt2_certificate():
    """The imprimitive certificate of Q(sqrt 2 + sqrt 3), witnessed by sqrt 2."""
    cert = is_primitive_field(SWINNERTON)
    assert cert.witness.generator_minpoly == x ** 2 - 2 and cert.verify()
    return cert


def _other_field_sqrt2():
    """sqrt 2 as theta^2 in Q(2^(1/4)), a field other than SWINNERTON's."""
    L = NumberField(x ** 4 - 2)
    return L.theta * L.theta


@pytest.mark.parametrize(
    "forge",
    [
        lambda w: dataclasses.replace(w, degree=3),
        lambda w: dataclasses.replace(w, generator=w.generator.field.element([2])),
        lambda w: dataclasses.replace(w, generator_minpoly=2 * x ** 2 - 4),
        lambda w: dataclasses.replace(w, generator_minpoly=x ** 3 - 2 * x),
        lambda w: dataclasses.replace(w, generator_minpoly=x ** 2 - 1),
        lambda w: dataclasses.replace(w, generator=_other_field_sqrt2()),
    ],
    ids=["degree-not-dividing-d", "rational-generator", "minpoly-not-monic",
         "minpoly-wrong-degree", "minpoly-reducible", "generator-from-another-field"],
)
def test_forged_subfield_witness_rejected(forge):
    cert = _sqrt2_certificate()
    forged = forge(cert.witness)
    assert not forged.verify(SWINNERTON)
    assert not dataclasses.replace(cert, witness=forged).verify()


@pytest.mark.parametrize(
    "forgery",
    ["imprimitive-without-witness", "primitive-with-witness", "resolvent-verdict-flipped"],
)
def test_forged_primitivity_certificate_rejected(forgery):
    imprimitive = _sqrt2_certificate()
    primitive = is_primitive_field(x ** 4 - x ** 3 - 4 * x ** 2 + 3)
    assert imprimitive.method == primitive.method == "resolvent_cubic" and primitive.verify()
    forged = {
        "imprimitive-without-witness": dataclasses.replace(imprimitive, witness=None),
        "primitive-with-witness": dataclasses.replace(primitive, witness=imprimitive.witness),
        "resolvent-verdict-flipped": dataclasses.replace(
            imprimitive, verdict="primitive", witness=None),
    }[forgery]
    assert not forged.verify()


def test_certificate_reducible_rejected():
    with pytest.raises(NotAField):
        is_primitive_field(x ** 4 - 1)


def test_certificate_json_round_trip():
    cert = is_primitive_field(SWINNERTON)
    data = cert.to_json()
    assert data["verdict"] == "imprimitive"
    assert data["witness"]["minpoly"] == ["-2", "0", "1"]
    assert RatPolynomial.from_json(data["modulus"]) == SWINNERTON


def test_methods_agree_on_random_quartics():
    rng = random.Random(41)
    checked = 0
    while checked < 25:
        m = RatPolynomial([rng.randint(-10, 10) for _ in range(4)] + [1])
        if not factor_over_rationals(m).is_irreducible():
            continue
        auto = is_primitive_field(m, policy="auto")
        general = is_primitive_field(m, policy="general")
        assert auto.verdict == general.verdict
        assert auto.verify() and general.verify()
        checked += 1


def test_prime_degree_shortcut_confirmed():
    rng = random.Random(43)
    checked = 0
    while checked < 5:
        m = RatPolynomial([rng.randint(-10, 10) for _ in range(5)] + [1])
        if not factor_over_rationals(m).is_irreducible():
            continue
        general = is_primitive_field(m, policy="general")
        assert general.verdict == "primitive"
        checked += 1


# ----------------------------------------------------------------------
# quartic witnesses from the resolvent root

# V4 (x^4 - 10x^2 + 1, x^4 + 1), D4 (x^4 - 2, x^4 + 3) and C4
# (x^4 + x^3 + x^2 + x + 1, x^4 - 4x^2 + 2) fields
IMPRIMITIVE_QUARTICS = [
    SWINNERTON, x ** 4 + 1, x ** 4 - 2, x ** 4 + 3,
    x ** 4 + x ** 3 + x ** 2 + x + 1, x ** 4 - 4 * x ** 2 + 2,
]


def _imprimitive_moduli():
    """The fields above, each also presented by the minimal polynomials of
    two random non-integral generators."""
    rng = random.Random(47)
    for base in IMPRIMITIVE_QUARTICS:
        yield base
        L = NumberField(base)
        found = 0
        while found < 2:
            a = L.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])
            m = a.minimal_polynomial()
            if m.degree == 4:
                found += 1
                yield m


def test_resolvent_witness_matches_principal_subfields():
    pairings = set()
    for m in _imprimitive_moduli():
        roots = numfield.rational_roots(resolvent_cubic(m))
        assert roots == zassenhaus_rational_roots(resolvent_cubic(m))
        assert len(roots) in (1, 3)
        # alpha_1 + alpha_2 is rational exactly when p3^2 == 4 (q2 - t)
        pairings.update(m[3] ** 2 == 4 * (m[2] - t) for t in roots)
        ours = numfield._resolvent_witness(m, roots)
        assert ours is not None
        assert ours.to_json() == numfield._principal_witness(m).to_json(), m
    assert pairings == {True, False}


def _composed_quartics(rng, count):
    """count irreducible quartics g(h(x)) for random monic quadratics g and
    h with rational coefficients, each followed by the minimal polynomial
    of a random element of its field."""
    def quadratic():
        return RatPolynomial([Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(2)] + [1])

    found = 0
    while found < count:
        m = quadratic()(quadratic())
        if not factor_over_rationals(m).is_irreducible():
            continue
        found += 1
        yield m
        a = NumberField(m, check=False).element(
            [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(4)]
        )
        minpoly = a.minimal_polynomial()
        if minpoly.degree == 4:
            yield minpoly


def kernel_quadratic_entries(m, roots):
    """For each resolvent root, in the way _resolvent_witness reads it:
    whether s is rational, the quadratic (g, b, c) with g^2 + b g + c = 0,
    and the entry of Q(g) from the two kernels and the minimal polynomial
    that _quadratic_entry replaced."""
    L = NumberField(m, check=False)
    p3, q2, r1, s0 = m[3], m[2], m[1], m[0]
    theta = L.theta
    out = []
    for t in roots:
        s = -L.element([r1, 2 * (q2 - t), p3]) / L.element([t, p3, 2])
        if s.is_rational():
            g, b, c = s * theta - theta * theta, -t, s0
        else:
            g, b, c = s, p3, q2 - t
        complement = nullspace([list(L.one.coeffs), list(g.coeffs)])
        out.append((s.is_rational(), (g, b, c), numfield._subfield_entry(L, nullspace(complement))))
    return out


def test_quadratic_entry_matches_the_kernel_oracle():
    moduli = list(_imprimitive_moduli()) + list(_composed_quartics(random.Random(61), 100))
    assert len(moduli) >= 200
    branches, three_roots, fractional = set(), 0, 0
    for m in moduli:
        roots = numfield.rational_roots(resolvent_cubic(m))
        three_roots += len(roots) == 3
        fractional += any(q.denominator > 1 for q in m.coeffs)
        L = NumberField(m, check=False)
        oracle = []
        for rational_s, quadratic, entry in kernel_quadratic_entries(m, roots):
            branches.add(rational_s)
            assert numfield._quadratic_entry(L, *quadratic) == entry, m
            oracle.append(entry)
        best = min(oracle, key=numfield._entry_sort_key)
        expected = numfield.SubfieldWitness(2, best.generator, best.generator_minpoly)
        assert numfield._resolvent_witness(m, roots).to_json() == expected.to_json(), m
    assert branches == {True, False}
    assert three_roots >= 6 and fractional >= 100


def trial_squarefree_int_part(n: int, bound: int = 1_000_000):
    """The loop that numfield._squarefree_int_part replaced: strip p^2 for
    every p up to bound while p^2 stays below what is left."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    s = 1
    p = 2
    while p * p <= n and p <= bound:
        while n % (p * p) == 0:
            n //= p * p
            s *= p
        p += 1 if p == 2 else 2
    return s, sign * n


def test_squarefree_int_part_matches_the_trial_loop(monkeypatch):
    rng = random.Random(43)
    small = [2, 3, 5, 7, 11, 13, 97, 997, 7919]
    # prime cofactors above the trial bound, a square of one and a product
    # of two, which only the bound stops
    cofactors = [1, 1000003, 2 ** 31 - 1, 2 ** 61 - 1, 1000003 ** 2, 1000003 * 1000033]
    cases = [0, 1, -1]
    for i in range(300):
        n = 1
        for p in rng.sample(small, rng.randint(0, 4)):
            n *= p ** rng.randint(1, 5)
        # every tenth case takes a cofactor above the bound
        n *= cofactors[i // 10 % len(cofactors)] if i % 10 == 0 else 1
        cases.append(n if rng.random() < 0.5 else -n)
    for n in cases:
        assert numfield._squarefree_int_part(n) == trial_squarefree_int_part(n), n
    # is_prime runs once at the start and once per prime divided out
    calls = _count_calls(monkeypatch, numfield, "is_prime")
    assert numfield._squarefree_int_part(-(2 ** 5) * 3 ** 3 * (2 ** 61 - 1)) == (12, -6 * (2 ** 61 - 1))
    assert len(calls) == 3


def _count_calls(monkeypatch, module, name):
    calls = []
    exact = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or exact(*args))
    return calls


def test_imprimitive_quartic_fibers_make_no_trager_call(g1, monkeypatch):
    calls = _count_calls(monkeypatch, numfield, "trager_factor")
    certs = []
    for a in range(-2, 3):
        f = g1.function(x ** 2 + a * x)
        for t in (2, 3, Fraction(1, 2), -5):
            spec = classify_specialization(g1, f, t)
            if spec.status == "irreducible":
                certs.append(spec.certificate)
    assert len(certs) >= 10
    assert calls == []
    for cert in certs:
        assert cert.verdict == "imprimitive" and cert.method == "resolvent_cubic"
        assert cert.witness == numfield._principal_witness(cert.modulus)


def _count_calls_anywhere(monkeypatch, name):
    """The calls of name through every primpoints module that binds it."""
    calls = []
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("primpoints.") and name in vars(module):
            exact = vars(module)[name]
            monkeypatch.setattr(
                module, name, lambda *args, exact=exact, **kw: calls.append(args) or exact(*args, **kw)
            )
    return calls


def test_imprimitive_quartic_fiber_needs_no_factoring_or_linear_algebra(g1, monkeypatch):
    # a stream-imprimitive fiber: x^2 + 3x on y^2 = x^3 + 1 at t = 3
    f = g1.function(x ** 2 + 3 * x)
    names = ["factor_over_rationals", "factor_mod_p", "hensel_lift", "nullspace", "_gcd_cofactor"]
    counted = [_count_calls_anywhere(monkeypatch, name) for name in names]
    spec = classify_specialization(g1, f, 3)
    assert spec.fiber_poly == x ** 4 + 6 * x ** 3 + 55 * x ** 2 - 114 * x - 59
    cert = spec.certificate
    assert (cert.verdict, cert.method) == ("imprimitive", "resolvent_cubic")
    assert counted == [[], [], [], [], []]
    # the counters see the Trager route, which factors and takes kernels
    # (this D4 quartic has a 4-cycle, so _principal_witness takes neither)
    assert cert.witness == numfield._trager_witness(cert.modulus)
    assert counted[0] and counted[3]
    assert cert.verify()


def test_failed_resolvent_check_falls_back(monkeypatch):
    moduli = [SWINNERTON, x ** 4 - 2, x ** 4 + x ** 3 + x ** 2 + x + 1]
    expected = [numfield._principal_witness(m) for m in moduli]
    true_roots = numfield.rational_roots
    # a wrong resolvent root names no pairing, so its generator fails the check
    monkeypatch.setattr(numfield, "rational_roots", lambda p: [t + 1 for t in true_roots(p)])
    calls = _count_calls(monkeypatch, numfield, "_principal_witness")
    for m, witness in zip(moduli, expected):
        roots = numfield.rational_roots(resolvent_cubic(m))
        assert numfield._resolvent_witness(m, roots) is None
        calls.clear()
        cert = is_primitive_field(m)
        assert calls == [(m,)]
        assert cert.verdict == "imprimitive" and cert.witness == witness


# ----------------------------------------------------------------------
# primitivity from Frobenius cycle types

# (degree, fields): principal subfields cost about 3 s on a degree-12 field
FROBENIUS_FIELDS = [(4, 8), (6, 8), (8, 3), (9, 1), (10, 1), (12, 1)]


def test_frobenius_rule_agrees_with_principal_subfields():
    rng = random.Random(53)
    proved = 0
    for d, count in FROBENIUS_FIELDS:
        found = 0
        while found < count:
            m = RatPolynomial([rng.randint(-5, 5) for _ in range(d)] + [1])
            if not factor_over_rationals(m).is_irreducible():
                continue
            found += 1
            if numfield._frobenius_primitive(m):
                proved += 1
                entries = principal_subfields(NumberField(m, check=False))
                assert [e.degree for e in entries if 1 < e.degree < d] == [], m
    assert proved >= 15


# (deg g, deg h) for the compositions g(h(x)): every split of 4, 6, 8, 9,
# 10 and 12 into two proper factors
COMPOSITIONS = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (5, 2),
                (3, 4), (4, 3), (2, 6), (6, 2)]


def test_frobenius_rule_never_proves_a_composition(monkeypatch):
    exactalg._p_cycle_type.cache_clear()
    rng = random.Random(59)
    calls = []
    exact = exactalg._p_distinct_degree
    monkeypatch.setattr(
        exactalg, "_p_distinct_degree", lambda f, p: calls.append(p) or exact(f, p)
    )
    for dg, dh in COMPOSITIONS:
        for _ in range(2):
            while True:
                g = RatPolynomial([rng.randint(-5, 5) for _ in range(dg)] + [1])
                h = RatPolynomial([rng.randint(-5, 5) for _ in range(dh)] + [1])
                m = g(h)
                if factor_over_rationals(m).is_irreducible():
                    break
            calls.clear()
            assert not numfield._frobenius_primitive(m), (g, h)
            assert 0 < len(calls) <= numfield._FROBENIUS_PRIMES


def test_three_cycle_quartic_fiber_needs_no_split_root_or_lift(g1, monkeypatch):
    # a stream-quartic fiber: x^2 + y + x - 1 on y^2 = x^3 + 1 at t = 1
    f = g1.function(x ** 2 + x - 1, POLY_ONE)
    counted = [
        _count_calls(monkeypatch, numfield, "rational_roots"),
        _count_calls(monkeypatch, exactalg, "factor_mod_p"),
        _count_calls(monkeypatch, exactalg, "hensel_lift"),
    ]
    spec = classify_specialization(g1, f, 1)
    assert spec.fiber_poly == x ** 4 + x ** 3 - 3 * x ** 2 - 4 * x + 3
    cert = spec.certificate
    assert (cert.verdict, cert.method) == ("primitive", "resolvent_cubic")
    assert counted == [[], [], []]
    _, zc = spec.fiber_poly.to_zpoly()
    types = [d for _, d in islice(exactalg._cycle_types(zc), exactalg._QUARTIC_PRIMES)]
    assert [1, 3] in types
    assert cert.verify()


def test_sextic_fiber_reads_each_prime_once(g2, monkeypatch):
    # a stream-sextic fiber: x^3 + y - x^2 + 1 on y^2 = x^5 - 1 at t = 2,
    # which the Frobenius rule proves primitive only at its 19th good prime
    f = g2.function(x ** 3 - x ** 2 + 1, POLY_ONE)
    exactalg._p_cycle_type.cache_clear()
    calls = _count_calls(monkeypatch, exactalg, "_p_distinct_degree")
    spec = classify_specialization(g2, f, 2)
    cert = spec.certificate
    assert (cert.verdict, cert.method) == ("primitive", "principal_subfields")
    primes = [p for _, p in calls]
    assert len(primes) > exactalg._MUSSER_PRIMES
    assert primes == sorted(set(primes))


def test_a_sweep_reads_each_residue_once(g1, monkeypatch):
    # the stream-quartic shape: the fiber at t reduces mod p to a polynomial
    # that depends only on t mod p, so each (p, residue) is factored once
    # however many fibers and rules read it
    exactalg._p_cycle_type.cache_clear()
    reads = []
    ddf = exactalg._p_distinct_degree
    memo_code = exactalg._p_cycle_type.__wrapped__.__code__

    def counted(red, p):
        # factor_mod_p's split at a Hensel prime is not a cycle-type read
        if sys._getframe(1).f_code is memo_code:
            reads.append((p, tuple(red)))
        return ddf(red, p)

    monkeypatch.setattr(exactalg, "_p_distinct_degree", counted)
    f = g1.function(x ** 2 + x - 2, POLY_ONE)
    rep = prospect(g1, f, count=40)
    assert sum(s.status == "irreducible" for s in rep.specializations) >= 20
    assert len(reads) == len(set(reads)) > 0
    info = exactalg._p_cycle_type.cache_info()
    assert info.hits > info.misses


def test_frobenius_rule_on_the_imprimitive_quartics():
    # some of these moduli have denominators
    for m in _imprimitive_moduli():
        assert not numfield._frobenius_primitive(m)


def test_generic_sextic_decided_and_verified_without_trager(monkeypatch):
    calls = _count_calls(monkeypatch, numfield, "trager_factor")
    m = x ** 6 - x - 1
    cert = is_primitive_field(m)
    assert (cert.verdict, cert.method) == ("primitive", "principal_subfields")
    assert cert.verify() and cert.verify(strict=True)
    assert calls == []


def test_frobenius_fallback_gives_the_same_certificate(monkeypatch):
    moduli = [x ** 6 - x - 1, x ** 6 + x ** 3 + 1, x ** 6 - 3 * x ** 2 - 1]
    fast = [json.dumps(is_primitive_field(m).to_json()) for m in moduli]
    monkeypatch.setattr(numfield, "_FROBENIUS_PRIMES", 0)
    calls = _count_calls(monkeypatch, numfield, "trager_factor")
    slow = [json.dumps(is_primitive_field(m).to_json()) for m in moduli]
    assert len(calls) == len(moduli)
    assert slow == fast


def test_trager_norm_factors_are_multiples_of_the_field_degree(monkeypatch):
    # the cofactor norm of this quartic over its own field is irreducible of
    # degree 12; its first Musser primes leave degree 4 open, which only
    # the multiples of L.degree rule out
    m = x ** 4 - 2 * x ** 2 - 2 * x + 2
    L = NumberField(m, check=False)
    steps = []
    exact = exactalg._factor_squarefree_z
    monkeypatch.setattr(
        exactalg, "_factor_squarefree_z", lambda zc, step=1: steps.append(step) or exact(zc, step)
    )
    lifts = _count_calls(monkeypatch, exactalg, "hensel_lift")
    exactalg._p_cycle_type.cache_clear()
    fact = trager_factor(NfPolynomial.from_rat(L, m))
    assert [g.degree for g, _ in fact.factors] == [1, 3]
    assert (steps, lifts) == ([4], [])
    # told nothing, the factorization lifts to reach the same factors
    _, norm = numfield._squarefree_norm(partial(numfield._cofactor_norm, m, m), (0, -1))
    assert exactalg.factor_over_rationals(norm, _degree_step=4) == exactalg.factor_over_rationals(norm)
    assert len(lifts) == 1
