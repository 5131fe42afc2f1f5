"""RatPolynomial against the class it replaced, kept here as the oracle.

FractionRatPolynomial is RatPolynomial as it was when it stored Fraction
coefficients, verbatim but for its name, with the poly_gcd of that time.
The differential test runs each operation on both and compares the results
through their Fraction coefficients, integer forms, JSON and text."""

import random
from fractions import Fraction

from primpoints.errors import InvalidInput
from primpoints.exactalg import (
    RatPolynomial,
    _divmod_list,
    _numerators,
    _power,
    _z_add,
    _z_content,
    _z_gcd,
    _z_mul,
    _z_sub,
    _z_trim,
    poly_gcd,
    rat_from_str,
    rat_to_str,
)


class FractionRatPolynomial:
    """Immutable univariate polynomial over Q, ascending coefficients.

    The zero polynomial has an empty coefficient tuple and degree -1.

    The integer form (to_zpoly) and the JSON strings (to_json) are kept
    once computed, in the slots ``_z`` and ``_json`` beside the hash: the
    polynomial is immutable, so each form lives as long as the polynomial
    and no longer.  A report writes one fiber polynomial up to four times.
    """

    __slots__ = ("_c", "_hash", "_z", "_json")

    def __init__(self, coeffs=()):
        self._c = tuple(_z_trim([Fraction(x) for x in coeffs]))
        self._hash = None
        self._z = None
        self._json = None

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_json(cls, items):
        """The polynomial of a list of rational literals such as "-3/2";
        anything else raises InvalidInput."""
        if not isinstance(items, (list, tuple)):
            kind = type(items).__name__
            raise InvalidInput(f"a polynomial is a list of strings, not a {kind}")
        return cls([rat_from_str(s) for s in items])

    @classmethod
    def _monic_from_z(cls, zc):
        """zc / lc(zc) for a primitive int list zc with lc(zc) > 0, built
        with its integer form (1 / lc(zc), zc) already attached."""
        lc = zc[-1]
        out = cls.__new__(cls)
        out._c = tuple(Fraction(x, lc) for x in zc)
        out._hash = None
        out._z = (Fraction(1, lc), tuple(zc))
        out._json = None
        return out

    # -- structure -------------------------------------------------------
    @property
    def coeffs(self):
        return self._c

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    @property
    def lc(self) -> Fraction:
        if not self._c:
            raise InvalidInput("zero polynomial has no leading coefficient")
        return self._c[-1]

    def is_zero(self) -> bool:
        return not self._c

    def is_constant(self) -> bool:
        return len(self._c) <= 1

    def is_monic(self) -> bool:
        return bool(self._c) and self._c[-1] == 1

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, FractionRatPolynomial):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self == FractionRatPolynomial([other])
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._c)
        return self._hash

    def __getitem__(self, i) -> Fraction:
        if 0 <= i < len(self._c):
            return self._c[i]
        return Fraction(0)

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        return FractionRatPolynomial(_z_add(self._c, _coerce(other)._c))

    __radd__ = __add__

    def __neg__(self):
        return FractionRatPolynomial([-x for x in self._c])

    def __sub__(self, other):
        return FractionRatPolynomial(_z_sub(self._c, _coerce(other)._c))

    def __rsub__(self, other):
        return FractionRatPolynomial(_z_sub(_coerce(other)._c, self._c))

    def __mul__(self, other):
        return FractionRatPolynomial(_z_mul(self._c, _coerce(other)._c, Fraction(0)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InvalidInput("negative polynomial power")
        return _power(self, n, FractionRatPolynomial([1]))

    def __divmod__(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead = other._c[-1]
        inv = None if lead == 1 else 1 / lead
        q, r = _divmod_list(self._c, other._c, inv, Fraction(0))
        return FractionRatPolynomial(q), FractionRatPolynomial(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- calculus & evaluation ------------------------------------------
    def derivative(self):
        return FractionRatPolynomial([i * self._c[i] for i in range(1, len(self._c))])

    def __call__(self, x):
        acc = Fraction(0) if not isinstance(x, FractionRatPolynomial) else FractionRatPolynomial()
        for c in reversed(self._c):
            acc = acc * x + c
        return acc

    def monic(self) -> "FractionRatPolynomial":
        if self.is_zero():
            raise InvalidInput("cannot normalize the zero polynomial")
        if self._c[-1] == 1:
            return self
        inv = 1 / self._c[-1]
        return FractionRatPolynomial([x * inv for x in self._c])

    def scale(self, q) -> "FractionRatPolynomial":
        q = Fraction(q)
        return FractionRatPolynomial([x * q for x in self._c])

    # -- integer form ------------------------------------------------------
    def to_zpoly(self):
        """Return (k: Fraction, c: list[int]) with self == k * c, c primitive,
        lc(c) > 0; c is a fresh list on every call."""
        if self._z is None:
            if self.is_zero():
                return Fraction(0), []
            den, ints = _numerators(self._c)
            cont = _z_content(ints)
            sign = 1 if ints[-1] > 0 else -1
            self._z = Fraction(cont * sign, den), tuple(x // (cont * sign) for x in ints)
        k, c = self._z
        return k, list(c)

    @classmethod
    def from_zpoly(cls, ints, scale=1):
        return cls([Fraction(x) * scale for x in ints])

    # -- io ---------------------------------------------------------------
    def to_json(self):
        """The coefficients as strings, a fresh list on every call."""
        if self._json is None:
            self._json = tuple([rat_to_str(x) for x in self._c])
        return list(self._json)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self._c[i]
            if c == 0:
                continue
            if i == 0:
                term = rat_to_str(abs(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                term = xs if abs(c) == 1 else f"{rat_to_str(abs(c))}*{xs}"
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    def __repr__(self):
        return f"RatPolynomial({self})"


def _coerce(v) -> FractionRatPolynomial:
    if isinstance(v, FractionRatPolynomial):
        return v
    if isinstance(v, (int, Fraction)):
        return FractionRatPolynomial([v])
    raise TypeError(f"cannot coerce {type(v)!r} to FractionRatPolynomial")


def fraction_poly_gcd(p, q):
    """poly_gcd over FractionRatPolynomial, as it was."""
    if p.is_zero() and q.is_zero():
        raise InvalidInput("gcd(0, 0) is undefined")
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    _, a = p.to_zpoly()
    _, b = q.to_zpoly()
    return FractionRatPolynomial.from_zpoly(_z_gcd(a, b)).monic()



def random_pair(rng):
    """(new, old) for one random polynomial: zero, a constant, or degree up
    to 4 with numerators above 2^100 and denominators up to 2^70 on some
    draws."""
    kind = rng.random()
    if kind < 0.08:
        coeffs = []
    elif kind < 0.16:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))]
    else:
        big = rng.random() < 0.5
        top = 2 ** 110 if big else 12
        coeffs = [
            Fraction(rng.randint(-top, top), rng.randint(1, 2 ** 70 if big else 6))
            for _ in range(rng.randint(1, 5))
        ]
        if rng.random() < 0.3:
            coeffs.append(Fraction(0))  # a zero top coefficient is trimmed
    return RatPolynomial(coeffs), FractionRatPolynomial(coeffs)


def same(new, old):
    """Whether the new and the old polynomial agree in every form."""
    return (
        isinstance(new, RatPolynomial)
        and new.coeffs == old.coeffs
        and new.degree == old.degree
        and new.to_zpoly() == old.to_zpoly()
        and new.to_json() == old.to_json()
        and str(new) == str(old)
        and repr(new) == repr(old)
        and new.is_monic() == old.is_monic()
        and new == RatPolynomial.from_json(old.to_json())
    )


def test_operations_match_the_fraction_oracle():
    rng = random.Random(29)
    pairs = [random_pair(rng) for _ in range(120)]
    # equal polynomials reached by different routes
    pairs.append((pairs[3][0] + pairs[4][0] - pairs[4][0], pairs[3][1]))
    points = [Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(2 ** 80 + 1, 3 ** 40)]
    for (p, P), (q, Q) in zip(pairs, pairs[1:] + pairs[:1]):
        assert same(p, P)
        assert same(p + q, P + Q) and same(p - q, P - Q) and same(p * q, P * Q)
        assert same(-p, -P) and same(p ** 2, P ** 2) and same(p ** 0, P ** 0)
        assert same(p.derivative(), P.derivative())
        assert same(p.scale(Fraction(-5, 7)), P.scale(Fraction(-5, 7)))
        for c in (3, Fraction(-2, 9)):
            assert same(p + c, P + c) and same(c - p, c - P) and same(p * c, P * c)
        assert [p(t) for t in points] == [P(t) for t in points]
        assert same(p(q), P(Q))
        assert (p == q) == (P == Q) and (p == 3) == (P == 3)
        assert ((p.degree, p.coeffs) < (q.degree, q.coeffs)) == (
            (P.degree, P.coeffs) < (Q.degree, Q.coeffs)
        )
        assert p[1] == P[1] and p[7] == P[7]
        if p:
            assert p.lc == P.lc and same(p.monic(), P.monic())
        if q:
            (a, b), (A, B) = divmod(p, q), divmod(P, Q)
            assert same(a, A) and same(b, B)
        if p or q:
            assert same(poly_gcd(p, q), fraction_poly_gcd(P, Q))
    # deeper divisions: dividends of degree up to 12, and the zero dividend,
    # by monic divisors over denominators up to 2^40 (the u^r of _sqrt_lift),
    # by divisors of higher degree than any dividend, and by constants
    def both(coeffs):
        return RatPolynomial(coeffs), FractionRatPolynomial(coeffs)

    dividends = [both([]), both([Fraction(2, 3)] * 13)] + [
        both([Fraction(rng.randint(-2 ** 60, 2 ** 60), rng.randint(1, 2 ** 30))
              for _ in range(rng.randint(1, 13))])
        for _ in range(10)
    ]
    divisors = [both([3]), both([Fraction(-5, 2 ** 40)])]
    for r in range(1, 6):
        c = Fraction(rng.randrange(-2 ** 8 + 1, 2 ** 8, 2), 2 ** 8)
        divisors.append(both((FractionRatPolynomial([-c, 1]) ** r).coeffs))
    u = FractionRatPolynomial([Fraction(rng.randrange(1, 2 ** 20, 2), 2 ** 20), Fraction(-7, 2 ** 20), 1])
    divisors.append(both((u ** 2).coeffs))
    divisors += [
        both([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] + [Fraction(-7, 3)])
        for n in (2, 5, 13, 15)
    ]
    for p, P in dividends:
        for q, Q in divisors:
            (a, b), (A, B) = divmod(p, q), divmod(P, Q)
            assert same(a, A) and same(b, B), (P, Q)
    # equality and hashing agree on equal polynomials built two ways
    p, P = pairs[-1]
    assert p == pairs[3][0] and hash(p) == hash(pairs[3][0])
