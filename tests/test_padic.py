"""The p-adic subfield route of fields with a cyclic Frobenius
(padic._cyclic_subfield_bases) against the Trager route it shortcuts."""

import random
from fractions import Fraction
from itertools import islice

import pytest

from primpoints import (
    POLY_ONE,
    POLY_X,
    NumberField,
    RatPolynomial,
    SubfieldWitness,
    VerificationFailure,
    classify_specialization,
    factor_over_rationals,
)
from primpoints import exactalg, numfield, padic
from test_numfield import STREAM_SEXTIC_TAIL, SWINNERTON, _count_calls, _count_calls_anywhere

x = POLY_X

# (deg g, deg h) of the seeded compositions g(h(x)) and how many of each
COMPOSITIONS = [((2, 2), 4), ((2, 3), 3), ((3, 2), 3), ((3, 3), 2), ((4, 2), 1), ((2, 5), 1)]
# no cycle type [d] among the first _FROBENIUS_PRIMES good primes: V4 and an
# S4 sextic, whose elements have order at most 4
NO_CYCLE = [SWINNERTON, x ** 6 - 4 * x ** 2 - 1]


def _composite_fields(rng):
    for (dg, dh), count in COMPOSITIONS:
        found = 0
        while found < count:
            g = RatPolynomial([rng.randint(-3, 3) for _ in range(dg)] + [1])
            h = RatPolynomial([0] + [rng.randint(-3, 3) for _ in range(dh - 1)] + [1])
            m = g(h)
            if factor_over_rationals(m).is_irreducible():
                found += 1
                yield m


def _cycle_prime(m):
    """The first good prime of cycle type [d] that _principal_witness reads."""
    types = islice(exactalg._cycle_types(m.nums), numfield._FROBENIUS_PRIMES)
    return next((p for p, degrees in types if degrees == [m.degree]), None)


def test_cyclic_route_matches_the_trager_route(monkeypatch):
    moduli = [*_composite_fields(random.Random(61)), STREAM_SEXTIC_TAIL, *NO_CYCLE]
    # one field with denominators: the tail field at x / 3
    moduli.append(STREAM_SEXTIC_TAIL(x * Fraction(1, 3)).monic())
    fallbacks = _count_calls(monkeypatch, numfield, "_trager_witness")
    fell_back = []
    for m in moduli:
        fallbacks.clear()
        witness = numfield._principal_witness(m)
        expected = numfield._trager_witness(m)
        assert witness is not None and witness.to_json() == expected.to_json(), m
        if len(fallbacks) > 1:
            fell_back.append(m)
    print(f"{len(fell_back)} of {len(moduli)} fields fell back to the Trager route")
    assert fell_back == NO_CYCLE
    assert all(_cycle_prime(m) is None for m in NO_CYCLE)


def test_perturbed_reconstruction_falls_back(monkeypatch):
    m = STREAM_SEXTIC_TAIL
    d = m.degree
    expected = numfield._principal_witness(m).to_json()
    exact = padic._rational_reconstruction
    reads = []

    def perturbed(r, modulus):
        reads.append(r)
        value = exact(r, modulus)
        # coordinate 1 of the second basis row, which keeps the rank and 1
        return value + 1 if len(reads) == d + 2 else value

    monkeypatch.setattr(padic, "_rational_reconstruction", perturbed)
    memberships = []
    in_span = padic.in_span

    def member(rows, v):
        memberships.append(in_span(rows, v))
        return memberships[-1]

    monkeypatch.setattr(padic, "in_span", member)
    calls = _count_calls(monkeypatch, numfield, "trager_factor")
    assert padic._cyclic_subfield_bases(NumberField(m, check=False), _cycle_prime(m)) is None
    assert len(reads) == 2 * d and memberships[-1] is None
    reads.clear()
    witness = numfield._principal_witness(m)
    assert len(calls) == 1
    assert witness.to_json() == expected


def test_missing_cubic_subfield_is_ruled_out_by_the_bound(monkeypatch):
    # the tail field has a quadratic subfield and no cubic one
    m = STREAM_SEXTIC_TAIL
    L = NumberField(m, check=False)
    echelons = _count_calls(monkeypatch, padic, "_p_echelon")
    bases = padic._cyclic_subfield_bases(L, _cycle_prime(m))
    assert bases is not None and [len(b) for b in bases] == [2]
    # only the quadratic candidate reached linear algebra
    assert len(echelons) == 1 and len(echelons[0][0]) == m.degree


def test_stream_sextic_tail_takes_the_cyclic_route(g2, monkeypatch):
    # the benchmark's tail: x^3 + y + x^2 + x + 1 on y^2 = x^5 - 1 at t = 1
    f = g2.function(x ** 3 + x ** 2 + x + 1, POLY_ONE)
    names = ["trager_factor", "factor_over_rationals"]
    counted = [_count_calls_anywhere(monkeypatch, name) for name in names]
    spec = classify_specialization(g2, f, 1)
    assert spec.fiber_poly == STREAM_SEXTIC_TAIL
    cert = spec.certificate
    assert cert.verdict == "imprimitive"
    assert isinstance(cert.witness, SubfieldWitness)
    assert cert.witness.generator_minpoly == x ** 2 + 11
    assert counted == [[], []]
    assert cert.verify()


def test_paranoid_checks_the_cyclic_route_against_trager(g2, monkeypatch):
    f = g2.function(x ** 3 + x ** 2 + x + 1, POLY_ONE)
    # a p-adic route that misses the quadratic subfield calls the tail
    # field primitive, and only the Trager route can tell
    monkeypatch.setattr(numfield, "_cyclic_subfield_bases", lambda L, p: [])
    assert classify_specialization(g2, f, 1).certificate.verdict == "primitive"
    with pytest.raises(VerificationFailure):
        classify_specialization(g2, f, 1, paranoid=True)
