"""Exact rational arithmetic and univariate polynomial algebra.

Everything downstream (number fields, curves, specialization sweeps) runs on
the immutable ``RatPolynomial`` over Q, held as int numerators over one
denominator, with ``Rational`` (``fractions.Fraction``) for single numbers;
below it, polynomials over Z and F_p are plain little-endian int lists.
Factorization over ``F_p`` (``factor_mod_p``) uses distinct-degree plus
seeded Cantor-Zassenhaus splitting, and factorization over the rationals is
Zassenhaus: factor mod a good prime, Hensel-lift past the Mignotte bound
(``hensel_lift``), recombine subsets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from math import comb, gcd as int_gcd, isqrt, lcm

from .errors import InvalidInput, LiftObstruction
from .galois import _musser, _primes, is_prime

Rational = Fraction


def rat_to_str(q: Fraction) -> str:
    """Serialize exactly, "-3/2" style; integers drop the denominator."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rat_from_str(s: str) -> Fraction:
    """The rational of a literal such as "-3/2", "7" or "0.5"; anything
    else raises InvalidInput.  An exponent such as "1e10000000" is refused
    before Fraction would build its value, which a ten-byte literal can
    make ten million digits long."""
    if not isinstance(s, str):
        raise InvalidInput(f"a rational literal is a string, not a {type(s).__name__}")
    if "e" in s or "E" in s:
        raise InvalidInput(f"bad rational literal {s!r}: exponents are not read")
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"bad rational literal {s!r}") from exc


# ----------------------------------------------------------------------
# list kernels (little-endian coefficient lists)
#
# The Zassenhaus pipeline works on plain int lists; Fractions only appear
# at the module boundary.  The trim, sum, difference and product below are
# the only ones for every coefficient ring: ints (and ints mod p, reduced
# afterwards), Fractions, and number-field elements, whose zero is falsy.
# Over Q, division pseudo-divides the numerators (_z_pseudo_divmod), and
# _divmod_list divides polynomials over a number field.

def _z_trim(c):
    n = len(c)
    while n and not c[n - 1]:
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


def _z_mul(a, b, zero=0):
    """The product of the lists a and b over any ring, with zero the ring's
    zero: a coefficient that no product reaches keeps it, so every
    coefficient is a ring element."""
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _z_trim(out)


def _divmod_list(f, g, inv, zero):
    """(q, r) with f = q*g + r and len(r) < len(g), both trimmed, for lists
    over a field and g trimmed and nonzero; inv is 1 / g[-1], or None when
    g is monic, and zero is the field's zero."""
    rem = list(f)
    dg = len(g) - 1
    q = [zero] * max(0, len(rem) - dg)
    while len(rem) > dg:
        c = rem.pop()  # the top coefficient cancels
        if inv is not None:
            c = c * inv
        k = len(rem) - dg
        q[k] = c
        for j in range(dg):
            rem[k + j] -= c * g[j]
        _z_trim(rem)
    return _z_trim(q), rem


def _numerators(coeffs):
    """(D, the rationals coeffs times D as ints), D the lcm of their
    denominators."""
    dens = [q.denominator for q in coeffs]
    den = lcm(*dens)
    return den, [q.numerator * (den // e) for q, e in zip(coeffs, dens)]


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


def _z_eval(a, x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


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


def _z_pseudo_divmod(f, g):
    """(s, q, r) with s*f = q*g + r and len(r) < len(g), q and r trimmed,
    for trimmed int lists f and g with g nonzero.  s is a power of lc(g),
    raised only at a step where lc(g) does not divide the top coefficient."""
    rem = list(f)
    dg = len(g) - 1
    lead = g[-1]
    s = 1
    q = [0] * max(0, len(rem) - dg)
    while len(rem) > dg:
        c = rem.pop()  # the top coefficient cancels
        if c % lead:
            s *= lead
            q = [lead * x for x in q]
            rem = [lead * x for x in rem]
        else:
            c //= lead
        k = len(rem) - dg
        q[k] = c
        for j in range(dg):
            rem[k + j] -= c * g[j]
        _z_trim(rem)
    return s, _z_trim(q), rem


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
            r = _z_primitive(_z_pseudo_divmod(a, b)[2])
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
    # one reduction per output coefficient
    return _p_trim(_z_mul(a, b), p)


def _p_divmod(f, g, p):
    if not g:
        raise ZeroDivisionError
    rem = [x % p for x in f]
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * max(0, len(f) - dg)
    # rem is reduced only where a coefficient is read: at the top, and by
    # the final _p_trim
    while len(rem) - 1 >= dg and rem:
        c = rem.pop() * inv % p  # the top coefficient cancels mod p
        k = len(rem) - dg
        q[k] = c
        for j in range(dg):
            rem[k + j] -= c * g[j]
        while rem and rem[-1] % p == 0:
            rem.pop()
    return _p_trim(q, p), _p_trim(rem, p)


def _p_mod(f, g, p):
    return _p_divmod(f, g, p)[1]


def _p_gcd(a, b, p):
    """Monic gcd of a and b over F_p, for a reduced.  Each divisor is made
    monic once per Euclid step, in the pass that reduces it, so the
    remainder loop needs no inverse and reduces only the coefficient it
    reads at the top."""
    while True:
        n = len(b)
        while n and b[n - 1] % p == 0:
            n -= 1
        if not n:
            return _p_monic(a, p)
        inv = pow(b[n - 1], -1, p)
        b = [x * inv % p for x in b[:n]]
        rem = list(a)
        for k in range(len(rem) - n, -1, -1):
            c = rem.pop() % p
            if c:
                for j in range(n - 1):
                    rem[k + j] -= c * b[j]
        a, b = b, rem


def _p_monic(a, p):
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], p - 2, p)
    return [x * inv % p for x in a]


def _p_derivative(c, p):
    return _p_trim([i * c[i] for i in range(1, len(c))], p)


def _p_squarefree_of_degree(red, degree: int, p: int) -> bool:
    """Whether the reduced red is squarefree of the given degree mod p: the
    test for a good prime p of a polynomial of that degree."""
    return len(red) == degree + 1 and len(_p_gcd(red, _p_derivative(red, p), p)) == 1


def _p_residues(poly, p: int):
    """The RatPolynomial poly mod p as ints, or None when p divides poly.den."""
    if poly.den % p == 0:
        return None
    inv = pow(poly.den, -1, p)
    return [c * inv % p for c in poly.nums]


# ----------------------------------------------------------------------
# arithmetic mod a fixed monic modulus f of degree n over F_p
#
# The reduction table of f holds the rows x^(n+j) mod f for j < n - 1, each
# a full list of n residues.  A product of two polynomials reduced mod f has
# degree at most 2n - 2, so it is reduced in one pass in ints: each
# coefficient above x^(n-1) adds its multiple of one row, and every
# coefficient is taken mod p once at the end.

def _p_table(f, p):
    """The reduction table of the reduced monic f of degree n >= 1."""
    n = len(f) - 1
    cur = [-c % p for c in f[:n]]
    rows = []
    for _ in range(n - 1):
        rows.append(cur)
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [(c + top * r) % p for c, r in zip(cur, rows[0])]
    return rows


def _p_reduce(c, rows, p):
    """The int list c, of degree at most 2n - 2, mod the modulus whose
    reduction table is rows."""
    n = len(rows) + 1
    out = c[:n]
    for k in range(n, len(c)):
        top = c[k] % p
        if top:
            for i, r in enumerate(rows[k - n]):
                out[i] += top * r
    return _p_trim(out, p)


def _p_mulmod(a, b, rows, p):
    """a * b mod the modulus whose reduction table is rows, for a and b
    reduced mod it; a square takes each cross product once."""
    if a is not b:
        return _p_reduce(_z_mul(a, b), rows, p)
    if not a:
        return []
    prod = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            prod[2 * i] += x * x
            x += x
            for j in range(i + 1, len(a)):
                prod[i + j] += x * a[j]
    return _p_reduce(prod, rows, p)


def _p_shift(r, rows, p):
    """x * r mod the modulus whose reduction table is rows, for r reduced
    mod it."""
    if len(r) <= len(rows):
        return [0] + r if r else []
    top = r[-1]
    out = [0] + r[:-1]
    for i, b in enumerate(rows[0]):
        out[i] += top * b
    return _p_trim(out, p)


def _p_powmod(base, e, mod, p):
    """base^e mod the reduced nonzero mod over F_p, by left-to-right binary
    powering through the reduction table of mod made monic; when base is
    x, each multiply is a shift."""
    if not e:
        return [1]
    if len(mod) == 1:
        return []
    mod = _p_monic(mod, p)
    rows = _p_table(mod, p)
    base = _p_mod(base, mod, p)
    result = base
    by_x = base == [0, 1]
    for bit in bin(e)[3:]:
        result = _p_mulmod(result, result, rows, p)
        if bit == "1":
            result = _p_shift(result, rows, p) if by_x else _p_mulmod(result, base, rows, p)
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
# RatPolynomial

class RatPolynomial:
    """Immutable univariate polynomial over Q: the ascending, trimmed int
    tuple ``nums`` over the int ``den``, with den > 0 and gcd(den, *nums) = 1.

    The form is canonical, so equality compares (den, nums); the zero
    polynomial has nums == () and degree -1.  The Fraction coefficients
    (coeffs) are built on each call.  The JSON strings (to_json) are kept
    once computed, in the slot ``_json``: the polynomial is immutable, so
    they live as long as the polynomial and no longer.
    """

    __slots__ = ("den", "nums", "_json")

    def __init__(self, coeffs=()):
        qs = _z_trim([x if isinstance(x, (int, Fraction)) else Fraction(x) for x in coeffs])
        # reduced Fractions leave gcd(den, *nums) = 1
        den, nums = _numerators(qs)
        self.den = den
        self.nums = tuple(nums)
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
    def _from_ints(cls, den, nums):
        """The polynomial nums / den for an int den != 0 and a fresh trimmed
        list of ints nums, brought to the canonical form."""
        g = int_gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            den //= g
            nums = [c // g for c in nums]
        out = cls.__new__(cls)
        out.den = den
        out.nums = tuple(nums)
        out._json = None
        return out

    # -- structure -------------------------------------------------------
    @property
    def coeffs(self):
        """The coefficients as Fractions, ascending."""
        return tuple([Fraction(c, self.den) for c in self.nums])

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def lc(self) -> Fraction:
        if not self.nums:
            raise InvalidInput("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return len(self.nums) <= 1

    def is_monic(self) -> bool:
        return bool(self.nums) and self.nums[-1] == self.den

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        if isinstance(other, RatPolynomial):
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            return self == RatPolynomial([other])
        return NotImplemented

    def __hash__(self):
        return hash((self.den, self.nums))

    def __getitem__(self, i) -> Fraction:
        if 0 <= i < len(self.nums):
            return Fraction(self.nums[i], self.den)
        return Fraction(0)

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        den, a, b = _common_numerators(self, _coerce(other))
        return RatPolynomial._from_ints(den, _z_add(a, b))

    __radd__ = __add__

    def __neg__(self):
        return RatPolynomial._from_ints(self.den, [-c for c in self.nums])

    def __sub__(self, other):
        den, a, b = _common_numerators(self, _coerce(other))
        return RatPolynomial._from_ints(den, _z_sub(a, b))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return RatPolynomial._from_ints(self.den * other.den, _z_mul(self.nums, other.nums))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InvalidInput("negative polynomial power")
        return _power(self, n, POLY_ONE)

    def __divmod__(self, other):
        """(q, r) with self = q*other + r and deg r < deg other, from the
        pseudo-division s*a = Q*b + R of the numerators a of self and b of
        other: q = Q*other.den / (self.den*s) and r = R / (self.den*s)."""
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        s, q, r = _z_pseudo_divmod(self.nums, other.nums)
        den = self.den * s
        q = RatPolynomial._from_ints(den, [c * other.den for c in q])
        return q, RatPolynomial._from_ints(den, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- calculus & evaluation ------------------------------------------
    def derivative(self):
        return RatPolynomial._from_ints(self.den, [i * c for i, c in enumerate(self.nums)][1:])

    def __call__(self, x):
        acc = RatPolynomial() if isinstance(x, RatPolynomial) else 0
        for c in reversed(self.nums):
            acc = acc * x + c
        return acc * Fraction(1, self.den)

    def monic(self) -> "RatPolynomial":
        if self.is_zero():
            raise InvalidInput("cannot normalize the zero polynomial")
        if self.is_monic():
            return self
        return RatPolynomial._from_ints(self.nums[-1], list(self.nums))

    def scale(self, q) -> "RatPolynomial":
        q = Fraction(q)
        return RatPolynomial._from_ints(
            self.den * q.denominator, _z_trim([c * q.numerator for c in self.nums])
        )

    # -- integer form ------------------------------------------------------
    def to_zpoly(self):
        """Return (k: Fraction, c: list[int]) with self == k * c, c primitive,
        lc(c) > 0; c is a fresh list on every call."""
        if self.is_zero():
            return Fraction(0), []
        cont = _z_content(self.nums)
        if self.nums[-1] < 0:
            cont = -cont
        return Fraction(cont, self.den), [c // cont for c in self.nums]

    # -- io ---------------------------------------------------------------
    def to_json(self):
        """The coefficients as strings, a fresh list on every call."""
        if self._json is None:
            self._json = tuple([rat_to_str(x) for x in self.coeffs])
        return list(self._json)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        coeffs = self.coeffs
        for i in range(self.degree, -1, -1):
            c = coeffs[i]
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


def _common_numerators(p: RatPolynomial, q: RatPolynomial):
    """(D, the numerators of p over D, those of q over D), D the lcm of
    their denominators."""
    den = lcm(p.den, q.den)
    return den, [c * (den // p.den) for c in p.nums], [c * (den // q.den) for c in q.nums]


def _power(base, n: int, one):
    """base ** n for n >= 0 by binary powering, with one the unit of base's
    ring; the last square is not computed."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


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
    g = _z_gcd(p.nums, q.nums)
    return RatPolynomial._from_ints(g[-1], g)


def poly_xgcd(p: RatPolynomial, q: RatPolynomial):
    """Extended gcd over Q: (g, s, t) with s*p + t*q = g, g monic."""
    if p.is_zero() and q.is_zero():
        raise InvalidInput("xgcd(0, 0) is undefined")
    g, t = _gcd_cofactor(p, q)
    return g, ((g - t * q) // p if p else POLY_ZERO), t


def _gcd_cofactor(a: RatPolynomial, b: RatPolynomial):
    """(g, t) with g the monic gcd of a and b and t*b = g mod a, by the
    Euclidean loop over Q that tracks b's cofactor only: when g = 1, t is
    the inverse of b mod a.  a and b are not both zero."""
    t0, t1 = POLY_ZERO, POLY_ONE
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        t0, t1 = t1, t0 - q * t1
    inv = 1 / a.lc
    return a.scale(inv), t0.scale(inv)


def squarefree_part(p: RatPolynomial) -> RatPolynomial:
    """Monic product of the distinct irreducible factors of p."""
    if p.is_zero():
        raise InvalidInput("squarefree part of zero is undefined")
    if p.degree == 0:
        return POLY_ONE
    g = poly_gcd(p, p.derivative())
    return (p // g).monic()


def is_squarefree(p: RatPolynomial) -> bool:
    """Whether p is nonzero with no repeated factor over Q.

    With zc the primitive integer form of p, read from its numerators with
    no Fraction built (its sign changes no monic residue), a good prime
    among the first _SQUAREFREE_PRIMES primes not dividing lc(zc) proves
    it: a square factor g^2 of zc over Z has lc(g) prime to such a prime,
    so g^2 would divide zc mod it with deg g > 0.  The primes are read
    through the memo _p_cycle_type, so the first good prime is the one
    _cycle_types then reads without a second DDF.  Only a p with no good
    prime among them runs the rational gcd with its derivative.
    """
    if p.is_zero():
        return False
    if p.degree == 0:
        return True
    readings = islice(_p_readings(_z_primitive(p.nums)), _SQUAREFREE_PRIMES)
    if any(degrees is not None for _, degrees in readings):
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


def rational_roots(p: RatPolynomial) -> list:
    """The distinct rational roots of p in ascending order, read off the
    roots of its squarefree part mod one good prime.

    With f the squarefree part of p in Z[x] and c = lc(f), the monic
    M(y) = c^(n-1) f(y / c) is in Z[y], and y = c x maps the rational roots
    of f onto the integer roots of M, each at most B = 1 + max |M_i| in size
    (Cauchy).  At the first prime where M is squarefree, the first that
    _cycle_types reads, every root of M is a simple root mod that prime, so
    a cycle type there with no 1 leaves no rational root, and Newton's
    iteration lifts each root uniquely; a lift modulo more than 2 B, read in
    the symmetric range, is the integer root when there is one, and
    M(y) == 0 decides.
    """
    if p.is_zero():
        raise InvalidInput("rational roots of zero are undefined")
    if p.degree < 1:
        return []
    f = _z_primitive(p.nums)
    g = _z_gcd(f, _z_derivative(f))
    if len(g) > 1:
        f = _z_div_exact(f, g)
    n, c = len(f) - 1, f[-1]
    monic = [x * c ** (n - 1 - i) for i, x in enumerate(f[:-1])] + [1]
    slope = _z_derivative(monic)
    bound = 2 * (1 + max(abs(x) for x in monic))
    prime, degrees = next(_cycle_types(monic))
    if 1 not in degrees:
        return []
    red = _p_trim(monic, prime)
    # gcd(x^prime - x, M): the product of the linear factors of M mod prime
    frobenius = _p_powmod([0, 1], prime, red, prime)
    linear = _p_gcd(_p_trim(_z_sub(frobenius, [0, 1]), prime), red, prime)
    roots = []
    for factor in _p_equal_degree(linear, 1, prime, random.Random(0)):
        y, q = -factor[0] % prime, prime
        while q <= bound:
            q *= q
            y = (y - _z_eval(monic, y) * pow(_z_eval(slope, y), -1, q)) % q
        if 2 * y > q:
            y -= q
        if _z_eval(monic, y) == 0:
            roots.append(Fraction(y, c))
    return sorted(roots)


# ----------------------------------------------------------------------
# power sums (Newton's identities)
#
# Norms and characteristic polynomials are read off the power sums of their
# roots (the composed sums of Bostan, Flajolet, Salvy and Schost, "Fast
# computation of special resultants", JSC 2006).  Both kernels are generic in
# their number type: integral inputs stay Python ints, which is about 25x
# cheaper than Fraction arithmetic.

def power_sums(coeffs, count: int) -> list:
    """P_0 .. P_{count-1}, the power sums of the roots (with multiplicity)
    of the monic polynomial with ascending coefficients coeffs.

    With c_i the coefficient of x^(n-i), Newton's identities read
    P_k = -(c_1 P_(k-1) + ... + c_(k-1) P_1 + k c_k) for k <= n and
    P_k = -(c_1 P_(k-1) + ... + c_n P_(k-n)) beyond.
    """
    n = len(coeffs) - 1
    c = coeffs[n - 1::-1] if n else []  # c[i - 1] = c_i
    sums = [n]
    for k in range(1, count):
        acc = k * c[k - 1] if k <= n else 0
        for i in range(1, min(k - 1, n) + 1):
            acc += c[i - 1] * sums[k - i]
        sums.append(-acc)
    return sums[:count]


def conjugate_power_sums(coeffs, e, w, count: int) -> list:
    """S_0 .. S_count, the power sums of the 2n numbers e(x_i) + sqrt(w(x_i))
    and e(x_i) - sqrt(w(x_i)) over the n roots x_i of the monic polynomial
    with ascending coefficients coeffs; e and w are coefficient lists.  These
    are the roots of Res_x(poly, (T - e)^2 - w), and

        S_k = 2 sum_(j even) C(k, j) Tr(e^(k-j) w^(j/2)),

    where Tr(c) = sum_l c_l P_l with P the power sums of the x_i.
    """
    e_pow, w_pow = [[1]], [[1]]
    for _ in range(count):
        e_pow.append(_z_mul(e_pow[-1], e))
    for _ in range(count // 2):
        w_pow.append(_z_mul(w_pow[-1], w))
    P = power_sums(coeffs, len(e_pow[-1]) + len(w_pow[-1]))
    sums = [2 * (len(coeffs) - 1)]
    for k in range(1, count + 1):
        acc = 0
        for j in range(0, k + 1, 2):
            c = _z_mul(e_pow[k - j], w_pow[j // 2])
            acc += comb(k, j) * sum(q * P[l] for l, q in enumerate(c))
        sums.append(2 * acc)
    return sums


def from_power_sums(sums, degree: int, scale: int = 1) -> RatPolynomial:
    """The monic polynomial of the given degree whose roots, times scale,
    have the power sums sums[1..degree].

    Newton's identities k c_k = -(S_k + c_1 S_(k-1) + ... + c_(k-1) S_1)
    give the coefficient c_k of x^(degree-k) of the scaled polynomial; the
    division by k stays in ints when it is exact, as it is whenever the
    scaled roots are algebraic integers.  c_k / scale^k is then the
    coefficient of the polynomial itself.
    """
    c = [1]
    for k in range(1, degree + 1):
        acc = sums[k]
        for i in range(1, k):
            acc += c[i] * sums[k - i]
        q, r = divmod(-acc, k)
        c.append(Fraction(-acc, k) if r else q)
    den, C = _numerators(c)
    return RatPolynomial._from_ints(
        den * scale ** degree, [C[degree - j] * scale ** j for j in range(degree + 1)]
    )


# ----------------------------------------------------------------------
# FactorList

@dataclass(frozen=True)
class FactorList:
    """A factorization over Q: unit * prod(factor^mult) reconstructs the
    input exactly."""

    unit: Fraction
    factors: tuple  # of (RatPolynomial, int), each factor monic irreducible

    def expand(self):
        acc = RatPolynomial([self.unit])
        for f, m in self.factors:
            acc = acc * f ** m
        return acc

    def is_irreducible(self):
        return len(self.factors) == 1 and self.factors[0][1] == 1


# ----------------------------------------------------------------------
# factorization over F_p

def _p_squarefree_decomposition(c, p):
    """Yield (squarefree part, multiplicity) pieces of a monic c over F_p."""
    out = []

    def rec(f, mult):
        if len(f) <= 1:
            return
        fp = _p_derivative(f, p)
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
    """Split squarefree monic f into (product of irreducibles of degree d, d).

    h = x^(p^k) mod f for k = 1, 2, ...: x^p by square-and-shift
    (_p_powmod), and each later power through the Frobenius matrix, whose
    rows are x^(ip) mod f, since (sum h_i x^i)^p = sum h_i x^(ip) over F_p
    (von zur Gathen and Shoup, "Computing Frobenius maps and factoring
    polynomials", 1992).  The matrix is built only when a second degree is
    needed, and is reduced with h when a block is split off.
    """
    out = []
    f = list(f)
    h = frobenius = None
    k = 0
    while len(f) - 1 > 2 * k:
        k += 1
        if k == 1:
            h = _p_powmod([0, 1], p, f, p)
        else:
            if frobenius is None:
                frobenius = _p_frobenius_matrix(h, f, p)
            h = _p_frobenius_apply(h, frobenius, p)
        g = _p_gcd(_p_trim(_z_sub(h, [0, 1]), p), f, p)
        if len(g) > 1:
            out.append((g, k))
            f = _p_divmod(f, g, p)[0]
            h = _p_mod(h, f, p)
            if frobenius is not None:
                frobenius = [_p_mod(row, f, p) for row in frobenius[: len(f) - 1]]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _p_frobenius_matrix(xp, f, p):
    """The rows x^(ip) mod the reduced monic f for i < deg f, from
    xp = x^p mod f."""
    rows = _p_table(f, p)
    out = [[1], xp]
    while len(out) < len(f) - 1:
        out.append(_p_mulmod(out[-1], xp, rows, p))
    return out


def _p_frobenius_apply(h, frobenius, p):
    """h^p mod f, for h reduced mod f and frobenius its Frobenius matrix."""
    out = [0] * len(frobenius)
    for c, row in zip(h, frobenius):
        if c:
            for i, r in enumerate(row):
                out[i] += c * r
    return _p_trim(out, p)


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


def factor_mod_p(coeffs, p: int, seed: int = 0) -> list:
    """Complete irreducible factorization of the int list ``coeffs`` over
    F_p, reproducible for a seed.

    Returns [(monic irreducible factor as a reduced int list, multiplicity),
    ...] ordered by (degree, coefficients); their product is the monic form
    of coeffs mod p.  Raises InvalidInput when p is not prime or coeffs is
    zero mod p.
    """
    if not is_prime(p):
        raise InvalidInput(f"modulus {p} is not prime")
    monic = _p_monic(_p_trim(coeffs, p), p)
    if not monic:
        raise InvalidInput("cannot factor the zero polynomial")
    rng = random.Random(seed)
    pieces = []
    for sqf, mult in _p_squarefree_decomposition(monic, p):
        for block, d in _p_distinct_degree(sqf, p):
            for irr in _p_equal_degree(block, d, p, rng):
                pieces.append((irr, mult))
    pieces.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return pieces


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


def hensel_lift(target, factors, p: int, k: int) -> list:
    """Lift a mod-p factorization of the int list ``target`` to mod p^k.

    ``factors`` are int lists whose monic forms multiply to the monic form
    of target mod p.  Returns monic int lists with coefficients in the
    symmetric range mod p^k, each congruent to the monic form of its input
    mod p, whose product is congruent to the monic form of target mod p^k.
    Factors not coprime mod p raise LiftObstruction where _hensel_tree
    separates them.
    """
    if not factors or k < 1:
        raise InvalidInput("need at least one factor and k >= 1")
    if not is_prime(p):
        raise InvalidInput(f"modulus {p} is not prime")
    if not target or target[-1] % p == 0:
        raise InvalidInput("leading coefficient vanishes mod p")
    factors = [_p_monic(_p_trim(f, p), p) for f in factors]
    prod = [1]
    for f in factors:
        prod = _p_mul(prod, f, p)
    if prod != _p_trim([x * pow(target[-1], -1, p) for x in target], p):
        raise LiftObstruction("product of factors does not match target mod p")
    q = p ** k
    monic = _p_trim([x * pow(target[-1], -1, q) for x in target], q)
    half = q // 2
    return [[x - q if x > half else x for x in c] for c in _hensel_tree(monic, factors, p, k)]


# ----------------------------------------------------------------------
# factorization over Q (Zassenhaus)

def _mignotte_bound(zc):
    n = len(zc) - 1
    norm2 = isqrt(sum(x * x for x in zc)) + 1
    return (1 << n) * norm2 * abs(zc[-1])


# bounded at 1024 distinct (p, residue) pairs; a sweep of 120 fibers of
# one quartic function reads about 100
@lru_cache(maxsize=1024)
def _p_cycle_type(p: int, monic: tuple):
    """Ascending degrees of the irreducible factors of the monic residue
    ``monic`` mod p, as a tuple, by distinct-degree factorization; None
    when it is not squarefree mod p.  A pure function of (p, monic), so
    the memo serves every polynomial with that residue."""
    red = list(monic)
    if not _p_squarefree_of_degree(red, len(red) - 1, p):
        return None
    degrees = []
    for block, k in _p_distinct_degree(red, p):
        degrees += [k] * ((len(block) - 1) // k)
    return tuple(degrees)


def _p_readings(zc):
    """Yield (p, _p_cycle_type of zc mod p) at the primes p not dividing
    lc(zc), in increasing order.  The monic residue is built in one pass."""
    lc = zc[-1]
    for p in _primes():
        if lc % p:
            inv = pow(lc, -1, p)
            yield p, _p_cycle_type(p, tuple([c * inv % p for c in zc]))


def _cycle_types(zc):
    """Yield (p, ascending degrees of the irreducible factors of zc mod p)
    at the good primes p in increasing order, by distinct-degree
    factorization alone: p does not divide lc(zc), and zc mod p is
    squarefree of full degree, so the degrees are the cycle type of a
    Frobenius element of the Galois group of zc.

    Each (p, monic residue of zc mod p) is factored once while it stays
    in the bounded memo _p_cycle_type: the rules of galois, which read one
    fiber's primes from the first for Musser's test and for primitivity,
    and the fibers of a sweep whose residues agree mod p, find it there.
    The memo keeps tuples, and each yield is a fresh list.
    """
    for p, degrees in _p_readings(zc):
        if degrees is not None:
            yield p, list(degrees)


# primes not dividing lc among which is_squarefree looks for a good one
_SQUAREFREE_PRIMES = 5


def _factor_squarefree_z(zc, step=1):
    """Irreducible factors (primitive, positive lc) of a squarefree primitive zc.

    Musser's degree test (galois._musser) reads the cycle types of zc at its
    first good primes, starting from the multiples of step, which the caller
    knows to divide every factor's degree: when only 0 and n are left, zc is
    irreducible with no Hensel lift, and otherwise the prime with the fewest
    factors is split completely and lifted, and recombination tries only
    subsets whose degree sum is left.
    """
    n = len(zc) - 1
    if n <= 1:
        return [list(zc)]
    degree_sums, read = _musser(_cycle_types(zc), n, step)
    if degree_sums == 1 | 1 << n:
        return [list(zc)]
    p = min(read, key=lambda reading: len(reading[1]))[0]
    bound = _mignotte_bound(zc)
    k = 1
    pk = p
    while pk < 2 * bound + 1:
        pk *= p
        k += 1
    lifted = hensel_lift(zc, [f for f, _ in factor_mod_p(zc, p)], p, k)
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
            if not (degree_sums >> degsum) & 1:
                continue
            lc_cur = current[-1]
            cand = [lc_cur]
            for i in subset:
                cand = _z_trim([sym(v) for v in _z_mul(cand, lifted[i])])
            cand = _z_primitive(_z_trim(cand))
            if not cand:
                continue
            if cand[-1] < 0:
                cand = [-x for x in cand]
            if cand[0] and current[0] % cand[0]:
                continue  # a factor's constant term divides current[0]
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


def factor_over_rationals(p: RatPolynomial, _degree_step: int = 1) -> FactorList:
    """Complete irreducible factorization over Q.

    Output factors are monic, ordered by (degree, coefficient tuple); the
    unit times the product of factor powers reproduces the input exactly.
    _degree_step is private to callers that know it divides the degree of
    every irreducible factor but x, such as numfield.trager_factor on a
    squarefree norm; it only narrows the degrees that are tried.
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
                for irr in _factor_squarefree_z(g, _degree_step):
                    rp = RatPolynomial(irr)
                    unit *= rp.lc ** i
                    rp = rp.monic()
                    factors[rp] = factors.get(rp, 0) + i
            b2 = _z_div_exact(b, g)
            c = _z_div_exact(d, g)
            b = b2
            i += 1
    return _factor_list(unit, factors)


def _factor_list(unit, factors) -> FactorList:
    """The FactorList of {monic factor: multiplicity}, the factors ordered
    by (degree, coefficient tuple)."""
    ordered = tuple(sorted(factors.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs)))
    return FactorList(unit=unit, factors=ordered)

