"""FieldElement against the class it replaced, kept here as the oracle.

FractionFieldElement is FieldElement as it was when it stored a tuple of d
Fraction coordinates, verbatim but for its name, over FractionNumberField,
a NumberField whose element and from_poly build it as NumberField did.  The
differential test runs each operation on both and compares the results
through their coordinates, polynomials, equality and hashes."""

import random
from fractions import Fraction
from math import lcm

from primpoints.errors import DivisionByZero, InvalidInput
from primpoints.exactalg import (
    RatPolynomial,
    _numerators,
    _power,
    _z_mul,
    factor_over_rationals,
    resultant,
)
from primpoints.linalg import in_span
from primpoints.numfield import FieldElement, NumberField


class FractionNumberField(NumberField):
    """A NumberField whose elements are FractionFieldElements."""

    __slots__ = ()

    def element(self, coeffs) -> "FractionFieldElement":
        c = [Fraction(x) for x in coeffs]
        if len(c) > self.degree:
            raise InvalidInput("too many coordinates")
        c += [Fraction(0)] * (self.degree - len(c))
        return FractionFieldElement(self, tuple(c))

    def from_poly(self, poly: RatPolynomial) -> "FractionFieldElement":
        return self.element((poly % self.modulus).coeffs)



class FractionFieldElement:
    """Element of a NumberField, as coordinates in the power basis."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other) -> "FractionFieldElement":
        if isinstance(other, (int, Fraction)):
            return self.field.element([other])
        if not isinstance(other, FractionFieldElement):
            raise TypeError(f"cannot combine FractionFieldElement with {type(other)!r}")
        if other.field != self.field:
            raise InvalidInput("elements live in different fields")
        return other

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_poly(self) -> RatPolynomial:
        return RatPolynomial(self.coeffs)

    def __add__(self, other):
        other = self._check(other)
        return FractionFieldElement(
            self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return FractionFieldElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._check(other)
        return FractionFieldElement(
            self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        other = self._check(other)
        return FractionFieldElement(
            self.field, tuple(b - a for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other):
        """The product in Python ints: each operand as integer numerators
        over one denominator, and the field's reduction table likewise, so
        each coordinate is one Fraction over the product of the three."""
        other = self._check(other)
        L = self.field
        d = L.degree
        da, a = _numerators(self.coeffs)
        db, b = _numerators(other.coeffs)
        prod = _z_mul(a, b)
        prod += [0] * (2 * d - 1 - len(prod))  # _z_mul trims; a zero operand gives []
        den = L._red_den
        out = [c * den for c in prod[:d]]
        for c, row in zip(prod[d:], L._red_powers):
            if c:
                out = [u + c * r for u, r in zip(out, row)]
        den *= da * db
        return FractionFieldElement(L, tuple(Fraction(c, den) for c in out))

    __rmul__ = __mul__

    def inverse(self) -> "FractionFieldElement":
        """The inverse, from the multiplication matrix of self solved in
        Python ints by fraction-free (Bareiss) Gauss-Jordan elimination.

        With C the denominator lcm of the modulus m, phi = C theta is a root
        of the monic integral C^d m(x / C), and D self is an integral
        polynomial A in phi.  The columns A phi^j of the matrix of A are
        integral, and elimination with Bareiss's exact division leaves
        det times the identity beside det times the coordinates of 1 / A.
        A pivot column with no nonzero entry means the matrix is singular:
        self is a zero divisor, which only a reducible modulus has.
        """
        if self.is_zero():
            raise DivisionByZero("cannot invert zero")
        d = self.field.degree
        C = self.field.modulus.den
        m = [c * C ** (d - 1 - i) for i, c in enumerate(self.field.modulus.nums[:-1])]
        dens = [q.denominator * C ** i for i, q in enumerate(self.coeffs)]
        D = lcm(*dens)
        col = [q.numerator * (D // e) for q, e in zip(self.coeffs, dens)]
        cols = [col]
        for _ in range(d - 1):
            # phi times the column: shift up, and x^d = -(m_0 + ... + m_(d-1) x^(d-1))
            top = col[-1]
            col = [a - top * b for a, b in zip([0] + col[:-1], m)]
            cols.append(col)
        rows = [[c[i] for c in cols] + [int(i == 0)] for i in range(d)]
        prev = 1
        for k in range(d):
            pivot = next((i for i in range(k, d) if rows[i][k]), None)
            if pivot is None:
                raise InvalidInput("modulus is not irreducible")
            rows[k], rows[pivot] = rows[pivot], rows[k]
            pk = rows[k]
            a = pk[k]
            for i in range(d):
                if i != k:
                    f = rows[i][k]
                    rows[i] = [(a * x - f * y) // prev for x, y in zip(rows[i], pk)]
            prev = a
        return FractionFieldElement(
            self.field,
            tuple(Fraction(rows[i][d] * D * C ** i, prev) for i in range(d)),
        )

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        return self._check(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, self.field.one)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return (
            isinstance(other, FractionFieldElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.modulus, self.coeffs))

    def norm(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        return resultant(self.field.modulus, self.to_poly())

    def minimal_polynomial(self) -> RatPolynomial:
        """Monic minimal polynomial over Q, by the first power dependency."""
        rows = [[Fraction(1)] + [Fraction(0)] * (self.field.degree - 1)]
        power = self.field.one
        for k in range(1, self.field.degree + 1):
            power = power * self
            coords = in_span(rows, list(power.coeffs))
            if coords is not None:
                return RatPolynomial(list(-c for c in coords) + [1])
            rows.append(list(power.coeffs))
        raise InvalidInput("no power dependency found; modulus not irreducible?")

    def __repr__(self):
        return f"<{self.to_poly()} in {self.field!r}>"


def random_fields(rng, count):
    """count fields of degree 1, 2, ..., 8, 1, ..., each as the pair
    (NumberField, FractionNumberField) of one random monic irreducible
    modulus; every other modulus has denominators above 1."""
    out = []
    while len(out) < count:
        d = 1 + len(out) % 8
        dens = [1] if len(out) % 2 else [2, 3, 4, 7, 12]
        m = RatPolynomial([Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(d)] + [1])
        if m.den > 1 or len(out) % 2:
            if factor_over_rationals(m).is_irreducible():
                out.append((NumberField(m, check=False), FractionNumberField(m, check=False)))
    return out


def same(new, old):
    """Whether the new and the old element agree in every form."""
    return (
        type(new) is FieldElement
        and type(old) is FractionFieldElement
        and new.coeffs == old.coeffs
        and all(type(c) is Fraction for c in new.coeffs)
        and new.to_poly() == old.to_poly()
        and new.is_rational() == old.is_rational()
        and new.is_zero() == old.is_zero()
        and bool(new) == bool(old)
    )


def test_field_operations_match_the_fraction_oracle():
    rng = random.Random(33)
    for L, F in random_fields(rng, 24):
        d = L.degree

        def pair():
            coords = [
                Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 5, 12])) if rng.random() < 0.75 else 0
                for _ in range(rng.randint(0, d))
            ]
            return L.element(coords), F.element(coords)

        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        pairs = [pair() for _ in range(5)]
        pairs += [(L.zero, F.zero), (L.one, F.one), (L.theta, F.theta), (L.element([c]), F.element([c]))]
        for (a, A), (b, B) in zip(pairs, pairs[1:] + pairs[:1]):
            assert same(a, A)
            assert same(a + b, A + B) and same(a - b, A - B) and same(a * b, A * B)
            assert same(-a, -A) and same(a + 3, A + 3) and same(c - a, c - A) and same(a * c, A * c)
            assert same(a ** 3, A ** 3) and same(a ** 0, A ** 0)
            if a:
                assert same(a.inverse(), A.inverse()) and same(a ** -2, A ** -2)
                assert same(b / a, B / A) and same(c / a, c / A)
                assert a.minimal_polynomial() == A.minimal_polynomial()
            assert (a == b) == (A == B) and (a == c) == (A == c) and (a == 0) == (A == 0)
            # equal elements reached by different routes hash equally
            assert (a + b) - b == a and hash((a + b) - b) == hash(a)
            assert a * b == b * a and hash(a * b) == hash(b * a)
        poly = RatPolynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(2 * d + 1)])
        assert same(L.from_poly(poly), F.from_poly(poly))


def test_division_product_and_inverse_build_no_fraction(monkeypatch):
    L = NumberField(RatPolynomial([Fraction(1, 3), Fraction(-2, 5), 0, 1]))
    a, b = L.element([Fraction(1, 2), 3, Fraction(-7, 4)]), L.element([0, Fraction(5, 6)])
    f = RatPolynomial([Fraction(k - 3, k + 2) for k in range(8)])
    g = RatPolynomial([Fraction(2, 9), 1, Fraction(-3, 4)])
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    got = [divmod(f, g), divmod(g, f), f % L.modulus, a * b, b * a * 3, a.inverse(), b.inverse()]
    monkeypatch.undo()
    assert built == []
    (q, r), (q0, r0) = got[:2]
    assert q * g + r == f and r.degree < g.degree and q0.is_zero() and r0 == g
    assert a * got[5] == 1 and b * got[6] == 1
