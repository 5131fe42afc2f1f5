"""Exact rational arithmetic and univariate polynomial algebra.

Everything downstream (number fields, curves, specialization sweeps) runs on
the two value types defined here: ``RatPolynomial`` over ``Rational`` (which
is ``fractions.Fraction``) and ``ModpPolynomial`` over a prime field.  All
values are immutable; all operations are pure functions.  Factorization over
``F_p`` uses distinct-degree plus seeded Cantor-Zassenhaus splitting, and
factorization over the rationals is Zassenhaus: factor mod a good prime,
Hensel-lift past the Mignotte bound, recombine subsets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd as int_gcd, isqrt

from .errors import InvalidInput, LiftObstruction

Rational = Fraction


def rat_to_str(q: Fraction) -> str:
    """Serialize exactly, "-3/2" style; integers drop the denominator."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rat_from_str(s: str) -> Fraction:
    return Fraction(s.strip())


def rational_sqrt(q: Fraction):
    """Return r with r*r == q, or None when q is not a rational square."""
    if q < 0:
        return None
    a, b = q.numerator, q.denominator
    ra, rb = isqrt(a), isqrt(b)
    if ra * ra == a and rb * rb == b:
        return Fraction(ra, rb)
    return None


# ----------------------------------------------------------------------
# integer polynomial kernels (little-endian coefficient lists)
#
# The Zassenhaus pipeline works on plain int lists; Fractions only appear
# at the module boundary.

def _z_trim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    del c[n:]
    return c


def _z_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _z_trim(out)


def _z_sub(a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, x in enumerate(b):
        out[i] -= x
    return _z_trim(out)


def _z_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _z_trim(out)


def _z_content(a):
    g = 0
    for x in a:
        g = int_gcd(g, abs(x))
        if g == 1:
            return 1
    return g


def _z_primitive(a):
    g = _z_content(a)
    if g in (0, 1):
        return list(a)
    return [x // g for x in a]


def _z_derivative(a):
    return _z_trim([i * a[i] for i in range(1, len(a))])


def _z_div_exact(f, g):
    """Quotient of f by g in Z[x] when it is exact, else None."""
    if not g:
        raise ZeroDivisionError
    if not f:
        return []
    if len(f) < len(g):
        return None
    rem = list(f)
    q = [0] * (len(f) - len(g) + 1)
    glead = g[-1]
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(g) - 1]
        if c % glead:
            return None
        c //= glead
        q[k] = c
        if c:
            for j, y in enumerate(g):
                rem[k + j] -= c * y
    return q if not any(rem[: len(g) - 1]) else None


def _z_pseudo_rem(f, g):
    """lc(g)^(deg f - deg g + 1) * f mod g, computed in Z[x]."""
    rem = list(f)
    dg = len(g) - 1
    glead = g[-1]
    while len(rem) - 1 >= dg and rem:
        k = len(rem) - 1 - dg
        c = rem[-1]
        rem = [glead * x for x in rem]
        for j, y in enumerate(g):
            rem[k + j] -= c * y
        _z_trim(rem)
    return rem


def _z_gcd(a, b):
    """Primitive-PRS gcd in Z[x]; result primitive with positive lc."""
    a, b = _z_primitive(a), _z_primitive(b)
    if not a:
        g = b
    elif not b:
        g = a
    else:
        if len(a) < len(b):
            a, b = b, a
        while b:
            r = _z_primitive(_z_pseudo_rem(a, b))
            a, b = b, r
        g = a
    g = _z_primitive(g)
    if g and g[-1] < 0:
        g = [-x for x in g]
    return g


# ----------------------------------------------------------------------
# mod-p polynomial kernels (_p_mul and _p_divmod also serve Hensel lifting
# mod p^k; the divisor's lead coefficient must be a unit)

def _p_trim(c, p):
    c = [x % p for x in c]
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    del c[n:]
    return c


def _p_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _p_trim(out, p)


def _p_divmod(f, g, p):
    if not g:
        raise ZeroDivisionError
    rem = [x % p for x in f]
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * max(0, len(f) - dg)
    while len(rem) - 1 >= dg and rem:
        c = rem[-1] * inv % p
        k = len(rem) - 1 - dg
        q[k] = c
        for j, y in enumerate(g):
            rem[k + j] = (rem[k + j] - c * y) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return _p_trim(q, p), _p_trim(rem, p)


def _p_mod(f, g, p):
    return _p_divmod(f, g, p)[1]


def _p_gcd(a, b, p):
    while b:
        a, b = b, _p_mod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [x * inv % p for x in a]
    return a


def _p_monic(a, p):
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], p - 2, p)
    return [x * inv % p for x in a]


def _p_powmod(base, e, mod, p):
    result = [1]
    base = _p_mod(base, mod, p)
    while e:
        if e & 1:
            result = _p_mod(_p_mul(result, base, p), mod, p)
        base = _p_mod(_p_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _p_xgcd(a, b, p):
    """Extended gcd over F_p: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _p_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _p_trim(_z_sub(s0, _p_mul(q, s1, p)), p)
        t0, t1 = t1, _p_trim(_z_sub(t0, _p_mul(q, t1, p)), p)
    if r0:
        inv = pow(r0[-1], p - 2, p)
        r0 = [x * inv % p for x in r0]
        s0 = [x * inv % p for x in s0]
        t0 = [x * inv % p for x in t0]
    return r0, s0, t0


# ----------------------------------------------------------------------
# primality

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(bound: int):
    return [p for p in range(2, bound) if is_prime(p)]


# ----------------------------------------------------------------------
# RatPolynomial

class RatPolynomial:
    """Immutable univariate polynomial over Q, ascending coefficients.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs=()):
        c = [Fraction(x) for x in coeffs]
        n = len(c)
        while n and c[n - 1] == 0:
            n -= 1
        self._c = tuple(c[:n])
        self._hash = None

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_json(cls, items):
        return cls([rat_from_str(s) for s in items])

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
        if isinstance(other, RatPolynomial):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self == RatPolynomial([other])
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
        other = _coerce(other)
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return RatPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return RatPolynomial([-x for x in self._c])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        a, b = self._c, other._c
        if not a or not b:
            return RatPolynomial()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return RatPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InvalidInput("negative polynomial power")
        result = RatPolynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._c)
        d = other.degree
        lead = other._c[-1]
        q = [Fraction(0)] * max(0, len(rem) - d)
        while len(rem) - 1 >= d and rem:
            c = rem[-1] / lead
            k = len(rem) - 1 - d
            q[k] = c
            for j, y in enumerate(other._c):
                rem[k + j] -= c * y
            while rem and rem[-1] == 0:
                rem.pop()
        return RatPolynomial(q), RatPolynomial(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- calculus & evaluation ------------------------------------------
    def derivative(self):
        return RatPolynomial([i * self._c[i] for i in range(1, len(self._c))])

    def __call__(self, x):
        acc = Fraction(0) if not isinstance(x, RatPolynomial) else RatPolynomial()
        for c in reversed(self._c):
            acc = acc * x + c
        return acc

    def monic(self) -> "RatPolynomial":
        if self.is_zero():
            raise InvalidInput("cannot normalize the zero polynomial")
        if self._c[-1] == 1:
            return self
        inv = 1 / self._c[-1]
        return RatPolynomial([x * inv for x in self._c])

    def scale(self, q) -> "RatPolynomial":
        q = Fraction(q)
        return RatPolynomial([x * q for x in self._c])

    # -- integer form ------------------------------------------------------
    def to_zpoly(self):
        """Return (k: Fraction, c: list[int]) with self == k * c, c primitive, lc(c) > 0."""
        if self.is_zero():
            return Fraction(0), []
        den = 1
        for x in self._c:
            den = den * x.denominator // int_gcd(den, x.denominator)
        ints = [int(x * den) for x in self._c]
        cont = _z_content(ints)
        sign = 1 if ints[-1] > 0 else -1
        ints = [x // (cont * sign) for x in ints]
        return Fraction(cont * sign, den), ints

    @classmethod
    def from_zpoly(cls, ints, scale=1):
        return cls([Fraction(x) * scale for x in ints])

    # -- io ---------------------------------------------------------------
    def to_json(self):
        return [rat_to_str(x) for x in self._c]

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


def _coerce(v) -> RatPolynomial:
    if isinstance(v, RatPolynomial):
        return v
    if isinstance(v, (int, Fraction)):
        return RatPolynomial([v])
    raise TypeError(f"cannot coerce {type(v)!r} to RatPolynomial")


POLY_ZERO = RatPolynomial()
POLY_ONE = RatPolynomial([1])
POLY_X = RatPolynomial([0, 1])


# ----------------------------------------------------------------------
# gcd / squarefree / resultant

def poly_gcd(p: RatPolynomial, q: RatPolynomial) -> RatPolynomial:
    """Monic gcd over Q, via primitive-PRS on the integer forms."""
    if p.is_zero() and q.is_zero():
        raise InvalidInput("gcd(0, 0) is undefined")
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    _, a = p.to_zpoly()
    _, b = q.to_zpoly()
    return RatPolynomial.from_zpoly(_z_gcd(a, b)).monic()


def poly_xgcd(p: RatPolynomial, q: RatPolynomial):
    """Extended gcd over Q: (g, s, t) with s*p + t*q = g, g monic."""
    if p.is_zero() and q.is_zero():
        raise InvalidInput("xgcd(0, 0) is undefined")
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


def squarefree_part(p: RatPolynomial) -> RatPolynomial:
    """Monic product of the distinct irreducible factors of p."""
    if p.is_zero():
        raise InvalidInput("squarefree part of zero is undefined")
    if p.degree == 0:
        return POLY_ONE
    g = poly_gcd(p, p.derivative())
    return (p // g).monic()


def is_squarefree(p: RatPolynomial) -> bool:
    if p.is_zero():
        return False
    if p.degree == 0:
        return True
    return poly_gcd(p, p.derivative()).degree == 0


def resultant(p: RatPolynomial, q: RatPolynomial) -> Fraction:
    """Sylvester resultant (standard sign convention), by Euclidean PRS."""
    if p.is_zero() or q.is_zero():
        raise InvalidInput("resultant requires nonzero inputs")
    a, b = p, q
    sign = 1
    acc = Fraction(1)
    while b.degree > 0:
        r = a % b
        if r.is_zero():
            return Fraction(0)
        da, db, dr = a.degree, b.degree, r.degree
        if da % 2 and db % 2:
            sign = -sign
        acc *= b.lc ** (da - dr)
        a, b = b, r
    # b is a nonzero constant
    return sign * acc * b.lc ** a.degree


def interpolate(sample, npoints: int) -> RatPolynomial:
    """The polynomial of degree < npoints through (c, sample(c)) at the
    points c = 0, 1, -1, 2, -2, ..., by Newton divided differences."""
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


def discriminant(p: RatPolynomial) -> Fraction:
    n = p.degree
    if n < 1:
        raise InvalidInput("discriminant needs degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    if n == 1:
        return Fraction(1)
    return sign * resultant(p, p.derivative()) / p.lc


def rational_roots(p: RatPolynomial) -> list:
    """All rational roots, found through the factorization pipeline."""
    return sorted(
        -f[0] / f[1]
        for f, _ in factor_over_rationals(p).factors
        if f.degree == 1
    )


# ----------------------------------------------------------------------
# ModpPolynomial

class ModpPolynomial:
    """Immutable polynomial over F_p (p prime), reduced coefficients."""

    __slots__ = ("p", "_c")

    def __init__(self, modulus: int, coeffs=()):
        if not is_prime(modulus):
            raise InvalidInput(f"modulus {modulus} is not prime")
        self.p = modulus
        c = [int(x) % modulus for x in coeffs]
        n = len(c)
        while n and c[n - 1] == 0:
            n -= 1
        self._c = tuple(c[:n])

    @classmethod
    def reduce(cls, poly: RatPolynomial, p: int) -> "ModpPolynomial":
        out = []
        for q in poly.coeffs:
            if q.denominator % p == 0:
                raise InvalidInput(f"denominator not invertible mod {p}")
            out.append(q.numerator * pow(q.denominator, -1, p) % p)
        return cls(p, out)

    @property
    def coeffs(self):
        return self._c

    @property
    def degree(self):
        return len(self._c) - 1

    def is_zero(self):
        return not self._c

    def __eq__(self, other):
        return (
            isinstance(other, ModpPolynomial)
            and self.p == other.p
            and self._c == other._c
        )

    def __hash__(self):
        return hash((self.p, self._c))

    def _wrap(self, c):
        out = ModpPolynomial.__new__(ModpPolynomial)
        out.p = self.p
        lst = [x % self.p for x in c]
        n = len(lst)
        while n and lst[n - 1] == 0:
            n -= 1
        out._c = tuple(lst[:n])
        return out

    def __mul__(self, other):
        return self._wrap(_p_mul(list(self._c), list(other._c), self.p))

    def __mod__(self, other):
        return self._wrap(_p_mod(list(self._c), list(other._c), self.p))

    def monic(self):
        return self._wrap(_p_monic(list(self._c), self.p))

    def __str__(self):
        return f"{RatPolynomial(self._c)} (mod {self.p})"

    __repr__ = __str__


# ----------------------------------------------------------------------
# FactorList

@dataclass(frozen=True)
class FactorList:
    """unit * prod(factor^mult) reconstructs the input exactly."""

    unit: Fraction
    factors: tuple  # of (RatPolynomial | ModpPolynomial, int), each factor monic irreducible

    def expand(self):
        if self.factors and isinstance(self.factors[0][0], ModpPolynomial):
            p = self.factors[0][0].p
            acc = [int(self.unit) % p]
            for f, m in self.factors:
                for _ in range(m):
                    acc = _p_mul(acc, list(f.coeffs), p)
            return ModpPolynomial(p, acc)
        acc = RatPolynomial([self.unit])
        for f, m in self.factors:
            acc = acc * f ** m
        return acc

    def factor_count(self):
        return sum(m for _, m in self.factors)

    def is_irreducible(self):
        return len(self.factors) == 1 and self.factors[0][1] == 1

    def to_json(self):
        return {
            "unit": rat_to_str(Fraction(self.unit)),
            "factors": [
                {"poly": f.to_json() if isinstance(f, RatPolynomial) else list(f.coeffs),
                 "mult": m}
                for f, m in self.factors
            ],
        }


# ----------------------------------------------------------------------
# factorization over F_p

def _p_squarefree_decomposition(c, p):
    """Yield (squarefree part, multiplicity) pieces of a monic c over F_p."""
    out = []

    def rec(f, mult):
        if len(f) <= 1:
            return
        fp = _p_trim([i * f[i] % p for i in range(1, len(f))], p)
        if not fp:
            # f = g(x^p); take p-th root and recurse with multiplicity * p
            root = [f[i] for i in range(0, len(f), p)]
            rec(root, mult * p)
            return
        c0 = _p_gcd(f, fp, p)
        w = _p_divmod(f, c0, p)[0]
        i = 1
        while len(w) > 1:
            y = _p_gcd(w, c0, p)
            z = _p_divmod(w, y, p)[0]
            if len(z) > 1:
                out.append((z, mult * i))
            i += 1
            w = y
            c0 = _p_divmod(c0, y, p)[0]
        if len(c0) > 1:
            root = [c0[i] for i in range(0, len(c0), p)]
            rec(root, mult * p)

    rec(c, 1)
    return out


def _p_distinct_degree(f, p):
    """Split squarefree monic f into (product of irreducibles of degree d, d)."""
    out = []
    h = [0, 1]  # x
    k = 0
    f = list(f)
    while len(f) - 1 > 2 * k:
        k += 1
        h = _p_powmod(h, p, f, p)
        g = _p_gcd(_p_trim(_z_sub(h, [0, 1]), p), f, p)
        if len(g) > 1:
            out.append((g, k))
            f = _p_divmod(f, g, p)[0]
            h = _p_mod(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _p_equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus split of f (product of degree-d irreducibles)."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        r = [rng.randrange(p) for _ in range(n)]
        r = _p_trim(r, p)
        if len(r) <= 1:
            continue
        if p == 2:
            # trace map x + x^2 + ... + x^(2^(d-1))
            t = list(r)
            acc = list(r)
            for _ in range(d - 1):
                t = _p_mod(_p_mul(t, t, p), f, p)
                acc = _p_trim(_z_add(acc, t), p)
            g = _p_gcd(acc, f, p)
        else:
            e = (p ** d - 1) // 2
            t = _p_powmod(r, e, f, p)
            g = _p_gcd(_p_trim(_z_sub(t, [1]), p), f, p)
        if 0 < len(g) - 1 < n:
            left = _p_equal_degree(g, d, p, rng)
            right = _p_equal_degree(_p_divmod(f, g, p)[0], d, p, rng)
            return left + right


def factor_mod_p(poly: ModpPolynomial, seed: int = 0) -> FactorList:
    """Complete irreducible factorization over F_p, reproducible for a seed."""
    if poly.is_zero():
        raise InvalidInput("cannot factor the zero polynomial")
    p = poly.p
    unit = poly.coeffs[-1]
    monic = list(poly.monic().coeffs)
    rng = random.Random(seed)
    pieces = []
    for sqf, mult in _p_squarefree_decomposition(monic, p):
        for block, d in _p_distinct_degree(sqf, p):
            for irr in _p_equal_degree(block, d, p, rng):
                pieces.append((ModpPolynomial(p, irr), mult))
    pieces.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return FactorList(unit=unit, factors=tuple(pieces))


# ----------------------------------------------------------------------
# Hensel lifting

def _hensel_step(f, g, h, s, t, p, m, target):
    """One quadratic lift: from mod p^m to mod p^min(2m, target).

    Requires f = g*h and s*g + t*h = 1 mod p^m, h monic.  Returns
    (g', h', s', t') mod p^k with the same invariants.
    """
    k = min(2 * m, target)
    q = p ** k
    e = _p_trim(_z_sub(f, _z_mul(g, h)), q)
    qq, r = _p_divmod(_p_mul(s, e, q), h, q)
    g1 = _p_trim(_z_add(_z_add(g, _p_mul(t, e, q)), _p_mul(qq, g, q)), q)
    h1 = _p_trim(_z_add(h, r), q)
    b = _p_trim(_z_sub(_z_add(_p_mul(s, g1, q), _p_mul(t, h1, q)), [1]), q)
    cc, d = _p_divmod(_p_mul(s, b, q), h1, q)
    s1 = _p_trim(_z_sub(s, d), q)
    t1 = _p_trim(_z_sub(_z_sub(t, _p_mul(t, b, q)), _p_mul(cc, g1, q)), q)
    return g1, h1, s1, t1


def _hensel_pair(f, g, h, p, k):
    """Lift f = g*h from mod p to mod p^k (h monic, g, h coprime mod p)."""
    gcd_gh, s, t = _p_xgcd(g, h, p)
    if len(gcd_gh) != 1:
        raise LiftObstruction("factors are not coprime mod p")
    m = 1
    while m < k:
        g, h, s, t = _hensel_step(f, g, h, s, t, p, m, k)
        m = min(2 * m, k)
    return g, h


def _hensel_tree(f, factors, p, k):
    """Lift a list of pairwise-coprime monic factors of monic f to mod p^k."""
    if len(factors) == 1:
        return [_p_trim([x % p ** k for x in f], p ** k)]
    half = len(factors) // 2
    g = [1]
    for fac in factors[:half]:
        g = _p_mul(g, fac, p)
    h = [1]
    for fac in factors[half:]:
        h = _p_mul(h, fac, p)
    G, H = _hensel_pair(f, g, h, p, k)
    return _hensel_tree(G, factors[:half], p, k) + _hensel_tree(H, factors[half:], p, k)


def hensel_lift(target: RatPolynomial, factors, k: int) -> list:
    """Lift a mod-p factorization of ``target`` to mod p^k.

    ``factors`` are ModpPolynomial irreducibles (pairwise coprime, with
    monic product congruent to the monic form of target mod p).  Returns
    RatPolynomials with symmetric-range integer coefficients, each congruent
    to its input mod p, whose product is congruent to the monic form of
    target mod p^k.
    """
    if not factors or k < 1:
        raise InvalidInput("need at least one factor and k >= 1")
    p = factors[0].p
    if any(f.p != p for f in factors):
        raise InvalidInput("mixed moduli")
    factors = [f.monic() for f in factors]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = _p_gcd(list(factors[i].coeffs), list(factors[j].coeffs), p)
            if len(g) != 1:
                raise LiftObstruction("factors are not coprime mod p")
    _, tz = target.to_zpoly()
    if not tz or tz[-1] % p == 0:
        raise InvalidInput("leading coefficient vanishes mod p")
    prod = [1]
    for f in factors:
        prod = _p_mul(prod, list(f.coeffs), p)
    tmod = _p_trim([x * pow(tz[-1], -1, p) % p for x in tz], p)
    if prod != tmod:
        raise LiftObstruction("product of factors does not match target mod p")
    q = p ** k
    lifted = _hensel_tree(
        _p_trim([x * pow(tz[-1], -1, q) % q for x in tz], q),
        [list(f.coeffs) for f in factors],
        p,
        k,
    )
    half = q // 2
    return [RatPolynomial([x - q if x > half else x for x in c]) for c in lifted]


# ----------------------------------------------------------------------
# factorization over Q (Zassenhaus)

def _mignotte_bound(zc):
    n = len(zc) - 1
    norm2 = isqrt(sum(x * x for x in zc)) + 1
    return (1 << n) * norm2 * abs(zc[-1])


def _good_primes(zc, count=3):
    found = []
    p = 2
    lc = zc[-1]
    while len(found) < count:
        if is_prime(p) and lc % p:
            fmod = _p_trim([x % p for x in zc], p)
            if len(fmod) == len(zc):
                d = _p_trim([i * fmod[i] % p for i in range(1, len(fmod))], p)
                if d and len(_p_gcd(fmod, d, p)) == 1:
                    found.append(p)
        p += 1
    return found


def _factor_squarefree_z(zc):
    """Irreducible factors (primitive, positive lc) of a squarefree primitive zc."""
    n = len(zc) - 1
    if n <= 1:
        return [list(zc)]
    best = None
    for p in _good_primes(zc, count=3):
        fl = factor_mod_p(ModpPolynomial(p, zc))
        if best is None or len(fl.factors) < len(best[1].factors):
            best = (p, fl)
        if len(fl.factors) == 1:
            return [list(zc)]
    p, fl = best
    modular = [list(f.coeffs) for f, _ in fl.factors]
    bound = _mignotte_bound(zc)
    k = 1
    pk = p
    while pk < 2 * bound + 1:
        pk *= p
        k += 1
    lifted = hensel_lift(RatPolynomial(zc), [f for f, _ in fl.factors], k)
    lifted = [[int(x) for x in f.coeffs] for f in lifted]
    q = p ** k
    half = q // 2

    def sym(x):
        x %= q
        return x - q if x > half else x

    result = []
    current = list(zc)
    pool = list(range(len(lifted)))
    card = 1
    while 2 * card <= len(pool):
        hit = False
        for subset in combinations(pool, card):
            degsum = sum(len(lifted[i]) - 1 for i in subset)
            if degsum >= len(current) - 1:
                continue  # proper divisors only; the remainder is handled below
            lc_cur = current[-1]
            cand = [lc_cur]
            for i in subset:
                cand = _z_trim([sym(v) for v in _z_mul(cand, lifted[i])])
                cand = [sym(v % q) for v in cand]
            cand = _z_primitive(_z_trim(cand))
            if not cand:
                continue
            if cand[-1] < 0:
                cand = [-x for x in cand]
            quot = _z_div_exact(current, cand)
            if quot is not None:
                result.append(cand)
                current = _z_primitive(quot)
                pool = [i for i in pool if i not in subset]
                hit = True
                break
        if not hit:
            card += 1
    if len(current) > 1:
        cur = _z_primitive(current)
        if cur[-1] < 0:
            cur = [-x for x in cur]
        result.append(cur)
    return result


def factor_over_rationals(p: RatPolynomial) -> FactorList:
    """Complete irreducible factorization over Q.

    Output factors are monic, ordered by (degree, coefficient tuple); the
    unit times the product of factor powers reproduces the input exactly.
    """
    if p.is_zero():
        raise InvalidInput("cannot factor the zero polynomial")
    if p.degree == 0:
        return FactorList(unit=p.lc, factors=())
    content, zc = p.to_zpoly()
    unit = content
    factors = {}
    # strip powers of x
    shift = 0
    while zc[0] == 0:
        zc = zc[1:]
        shift += 1
    if shift:
        factors[POLY_X] = shift
    if len(zc) > 1:
        # Yun's squarefree decomposition over Z
        f = zc
        fp = _z_derivative(f)
        a = _z_gcd(f, fp)
        b = _z_div_exact(f, a)
        c = _z_div_exact(fp, a)
        i = 1
        while len(b) > 1:
            d = _z_sub(c, _z_derivative(b))
            g = _z_gcd(b, d)
            if len(g) > 1:
                for irr in _factor_squarefree_z(g):
                    rp = RatPolynomial(irr)
                    unit *= rp.lc ** i
                    rp = rp.monic()
                    factors[rp] = factors.get(rp, 0) + i
            b2 = _z_div_exact(b, g)
            c = _z_div_exact(d, g)
            b = b2
            i += 1
    ordered = tuple(sorted(factors.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs)))
    return FactorList(unit=unit, factors=ordered)


def is_irreducible(p: RatPolynomial) -> bool:
    if p.degree < 1:
        return False
    fl = factor_over_rationals(p)
    return fl.is_irreducible()
