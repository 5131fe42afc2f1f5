"""Imaginary hyperelliptic curves y^2 = h(x) over Q.

Places (split / ramified / inert / infinity), divisors, function-field
elements (a + b*y)/den, exact valuations, Riemann-Roch spaces by linear
algebra, fiber divisors, and divisor-class arithmetic in Mumford form with
Cantor composition and reduction.  deg h = 2g + 1 is required, so there is
exactly one rational place at infinity and every degree carries an effective
divisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DegreeUndefined,
    InvalidInput,
    NotPrincipal,
    SingularModel,
    Unsupported,
    UnsupportedModel,
    VerificationFailure,
)
from .exactalg import (
    POLY_ONE,
    POLY_X,
    POLY_ZERO,
    RatPolynomial,
    factor_over_rationals,
    is_squarefree,
    poly_gcd,
    poly_xgcd,
    rational_sqrt,
)
from .linalg import nullspace
from .numfield import NumberField, nf_sqrt


class HyperellipticCurve:
    """y^2 = h(x) with h squarefree of odd degree 2g + 1."""

    __slots__ = ("h", "genus")

    def __init__(self, h: RatPolynomial):
        if h.is_zero() or h.degree % 2 == 0:
            raise UnsupportedModel("need deg h odd (imaginary model)")
        if not is_squarefree(h):
            raise SingularModel("h has a repeated root")
        self.h = h
        self.genus = (h.degree - 1) // 2

    def __eq__(self, other):
        return isinstance(other, HyperellipticCurve) and self.h == other.h

    def __hash__(self):
        return hash(("curve", self.h))

    def __repr__(self):
        return f"HyperellipticCurve(y^2 = {self.h}, genus {self.genus})"

    def to_json(self):
        return {"h": self.h.to_json()}

    @classmethod
    def from_json(cls, data):
        return cls(RatPolynomial.from_json(data["h"]))

    def function(self, a, b=POLY_ZERO, den=POLY_ONE) -> "CurveFunction":
        return CurveFunction(self, a, b, den)

    @property
    def x(self):
        return self.function(POLY_X)

    @property
    def y(self):
        return self.function(POLY_ZERO, POLY_ONE)


def curve_new(h: RatPolynomial) -> HyperellipticCurve:
    return HyperellipticCurve(h)


# ----------------------------------------------------------------------
# places

KIND_INFINITY = "infinity"
KIND_SPLIT = "split"
KIND_RAMIFIED = "ramified"
KIND_INERT = "inert"


@dataclass(frozen=True)
class Place:
    """Closed point: the infinite place, or an affine place over a monic
    irreducible u(x).  Split places carry the y-coordinate v (deg v < deg u,
    v^2 = h mod u); they come in conjugate pairs (u, v), (u, -v mod u)."""

    kind: str
    u: RatPolynomial | None = None
    v: RatPolynomial | None = None

    @property
    def degree(self) -> int:
        if self.kind == KIND_INFINITY:
            return 1
        if self.kind == KIND_INERT:
            return 2 * self.u.degree
        return self.u.degree

    def conjugate(self) -> "Place":
        if self.kind == KIND_SPLIT:
            return Place(KIND_SPLIT, self.u, (-self.v) % self.u)
        return self

    def sort_key(self):
        if self.kind == KIND_INFINITY:
            return (1, 0, (), 0, ())
        kind_rank = {KIND_SPLIT: 0, KIND_RAMIFIED: 1, KIND_INERT: 2}[self.kind]
        vkey = self.v.coeffs if self.v is not None else ()
        return (0, self.u.degree, self.u.coeffs, kind_rank, vkey)

    def __repr__(self):
        if self.kind == KIND_INFINITY:
            return "oo"
        if self.kind == KIND_SPLIT:
            return f"({self.u}; y={self.v})"
        return f"({self.u}; {self.kind})"

    def to_json(self):
        if self.kind == KIND_INFINITY:
            return {"kind": "infinity"}
        return {
            "kind": self.kind,
            "u": self.u.to_json(),
            "v": self.v.to_json() if self.v is not None else None,
        }


INFINITY = Place(KIND_INFINITY)


def places_over_x(curve: HyperellipticCurve, u: RatPolynomial, check: bool = True):
    """Places of the curve above the closed point u(x) = 0 of the x-line."""
    if u.is_zero() or u.degree < 1:
        raise InvalidInput("u must be nonconstant")
    u = u.monic()
    if check and not factor_over_rationals(u).is_irreducible():
        raise InvalidInput(f"{u} is reducible")
    if (curve.h % u).is_zero():
        return [Place(KIND_RAMIFIED, u, None)]
    if u.degree == 1:
        c = -u[0]
        val = curve.h(c)
        root = rational_sqrt(val)
        if root is None:
            return [Place(KIND_INERT, u, None)]
        places = [
            Place(KIND_SPLIT, u, RatPolynomial([root])),
            Place(KIND_SPLIT, u, RatPolynomial([-root])),
        ]
    else:
        L = NumberField(u, check=False)
        s = nf_sqrt(L, L.from_poly(curve.h))
        if s is None:
            return [Place(KIND_INERT, u, None)]
        vpoly = s.to_poly()
        places = [
            Place(KIND_SPLIT, u, vpoly),
            Place(KIND_SPLIT, u, (-vpoly) % u),
        ]
    places.sort(key=lambda p: p.sort_key())
    return places


# ----------------------------------------------------------------------
# divisors

class Divisor:
    """Finite formal sum of places with nonzero integer multiplicities."""

    __slots__ = ("entries", "_hash")

    def __init__(self, entries=()):
        if isinstance(entries, dict):
            items = entries.items()
        else:
            items = entries
        acc = {}
        for place, mult in items:
            if mult:
                acc[place] = acc.get(place, 0) + mult
        cleaned = [(p, m) for p, m in acc.items() if m]
        cleaned.sort(key=lambda pm: pm[0].sort_key())
        self.entries = tuple(cleaned)
        self._hash = None

    @classmethod
    def of(cls, *pairs):
        return cls(list(pairs))

    @classmethod
    def zero(cls):
        return cls()

    def mult(self, place: Place) -> int:
        for p, m in self.entries:
            if p == place:
                return m
        return 0

    @property
    def degree(self) -> int:
        return sum(m * p.degree for p, m in self.entries)

    def is_zero(self):
        return not self.entries

    def is_effective(self):
        return all(m > 0 for _, m in self.entries)

    def is_multiplicity_one(self):
        return all(m == 1 for _, m in self.entries)

    def support(self):
        return [p for p, _ in self.entries]

    def affine_entries(self):
        return [(p, m) for p, m in self.entries if p.kind != KIND_INFINITY]

    def infinity_mult(self) -> int:
        return self.mult(INFINITY)

    def __add__(self, other):
        return Divisor(list(self.entries) + list(other.entries))

    def __neg__(self):
        return Divisor([(p, -m) for p, m in self.entries])

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, k: int):
        return Divisor([(p, k * m) for p, m in self.entries])

    def __eq__(self, other):
        return isinstance(other, Divisor) and self.entries == other.entries

    def __le__(self, other):
        return (other - self).is_effective() or (other - self).is_zero()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.entries)
        return self._hash

    def __repr__(self):
        if not self.entries:
            return "Divisor(0)"
        return " + ".join(
            (f"{m}*{p!r}" if m != 1 else f"{p!r}") for p, m in self.entries
        )

    def sort_key(self):
        return tuple((p.sort_key(), m) for p, m in self.entries)

    def to_json(self):
        places = []
        inf = 0
        for p, m in self.entries:
            if p.kind == KIND_INFINITY:
                inf = m
            else:
                entry = p.to_json()
                entry["mult"] = m
                places.append(entry)
        return {"places": places, "infinity": inf}

    @classmethod
    def from_json(cls, data):
        entries = []
        for item in data.get("places", []):
            u = RatPolynomial.from_json(item["u"])
            v = RatPolynomial.from_json(item["v"]) if item.get("v") else None
            entries.append((Place(item["kind"], u, v), item["mult"]))
        if data.get("infinity"):
            entries.append((INFINITY, data["infinity"]))
        return cls(entries)


# ----------------------------------------------------------------------
# curve functions

class CurveFunction:
    """(a(x) + b(x)*y) / den(x); den monic, common polynomial factors removed."""

    __slots__ = ("curve", "a", "b", "den")

    def __init__(self, curve, a, b=POLY_ZERO, den=POLY_ONE):
        a, b, den = (
            v if isinstance(v, RatPolynomial) else RatPolynomial([v]) for v in (a, b, den)
        )
        if den.is_zero():
            raise InvalidInput("zero denominator")
        if a.is_zero() and b.is_zero():
            den = POLY_ONE
        elif den.degree > 0:
            g = poly_gcd(a if not a.is_zero() else b, b if not b.is_zero() else a)
            g = poly_gcd(g, den)
            if g.degree > 0:
                a, b, den = a // g, b // g, den // g
        lc = den.lc
        if lc != 1:
            inv = 1 / lc
            a, b, den = a.scale(inv), b.scale(inv), den.monic()
        self.curve = curve
        self.a = a
        self.b = b
        self.den = den

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def is_polynomial_form(self):
        return self.den.degree == 0

    def is_constant(self):
        if not self.b.is_zero():
            return False
        if self.a.is_zero():
            return True
        return (self.a % self.den).is_zero() and (self.a // self.den).degree <= 0

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise InvalidInput("not a constant function")
        if self.a.is_zero():
            return Fraction(0)
        return (self.a // self.den)[0]

    def _check(self, other):
        if isinstance(other, (int, Fraction)):
            return CurveFunction(self.curve, RatPolynomial([other]))
        if isinstance(other, RatPolynomial):
            return CurveFunction(self.curve, other)
        if not isinstance(other, CurveFunction) or other.curve != self.curve:
            raise InvalidInput("functions on different curves")
        return other

    def __add__(self, other):
        other = self._check(other)
        den = self.den * other.den
        a = self.a * other.den + other.a * self.den
        b = self.b * other.den + other.b * self.den
        return CurveFunction(self.curve, a, b, den)

    __radd__ = __add__

    def __neg__(self):
        return CurveFunction(self.curve, -self.a, -self.b, self.den)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) + (-self)

    def __mul__(self, other):
        other = self._check(other)
        h = self.curve.h
        a = self.a * other.a + self.b * other.b * h
        b = self.a * other.b + self.b * other.a
        return CurveFunction(self.curve, a, b, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverting the zero function")
        # 1/(a+by) = (a-by)/(a^2 - b^2 h)
        norm = self.a * self.a - self.b * self.b * self.curve.h
        return CurveFunction(
            self.curve, self.den * self.a, -(self.den * self.b), norm
        )

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        return self._check(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CurveFunction(self.curve, POLY_ONE)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, RatPolynomial)):
            other = self._check(other)
        if not isinstance(other, CurveFunction):
            return NotImplemented
        return (
            self.curve == other.curve
            and self.a * other.den == other.a * self.den
            and self.b * other.den == other.b * self.den
        )

    def __hash__(self):
        # representation is canonical after construction
        return hash((self.curve, self.a, self.b, self.den))

    def __repr__(self):
        num = str(self.a)
        if not self.b.is_zero():
            num = f"({self.a}) + ({self.b})*y"
        if self.den.degree > 0:
            return f"[{num}] / [{self.den}]"
        return num

    def to_json(self):
        return {"a": self.a.to_json(), "b": self.b.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, curve, data):
        return cls(
            curve,
            RatPolynomial.from_json(data["a"]),
            RatPolynomial.from_json(data["b"]),
            RatPolynomial.from_json(data.get("den", ["1"])),
        )


# ----------------------------------------------------------------------
# valuations

def _ord_u(poly: RatPolynomial, u: RatPolynomial) -> int:
    """Multiplicity of the irreducible u in poly (poly nonzero)."""
    k = 0
    while True:
        q, r = divmod(poly, u)
        if not r.is_zero():
            return k
        poly = q
        k += 1
        if poly.is_zero():
            return k  # only if poly was a power of u times 0; unreachable


def _sqrt_lift(curve, u: RatPolynomial, v: RatPolynomial, k: int) -> RatPolynomial:
    """v_k with v_k^2 = h mod u^k and v_k = v mod u (Newton doubling)."""
    h = curve.h
    prec = 1
    vk = v % u
    while prec < k:
        prec = min(2 * prec, k)
        mod = u ** prec
        # vk <- (vk^2 + h) / (2 vk) mod u^prec
        g, s, _ = poly_xgcd((vk * 2) % mod, mod)
        if g.degree != 0:
            raise InvalidInput("ramified place cannot be split-lifted")
        inv2v = s % mod
        vk = ((vk * vk + h) % mod) * inv2v % mod
    return vk


def _val_pair_at_place(curve, a: RatPolynomial, b: RatPolynomial, place: Place) -> int:
    """Valuation of a + b*y at the place; (a, b) != (0, 0)."""
    g = curve.genus
    if place.kind == KIND_INFINITY:
        cands = []
        if not a.is_zero():
            cands.append(-2 * a.degree)
        if not b.is_zero():
            cands.append(-(2 * b.degree + 2 * g + 1))
        return min(cands)
    u = place.u
    if place.kind == KIND_INERT:
        cands = []
        if not a.is_zero():
            cands.append(_ord_u(a, u))
        if not b.is_zero():
            cands.append(_ord_u(b, u))
        return min(cands)
    if place.kind == KIND_RAMIFIED:
        cands = []
        if not a.is_zero():
            cands.append(2 * _ord_u(a, u))
        if not b.is_zero():
            cands.append(2 * _ord_u(b, u) + 1)
        return min(cands)
    # split place
    if b.is_zero():
        return _ord_u(a, u)
    norm = a * a - b * b * curve.h
    bound = _ord_u(norm, u)
    k = bound + 1
    vk = _sqrt_lift(curve, u, place.v, k)
    w = (a + b * vk) % (u ** k)
    if w.is_zero():
        raise InvalidInput("unresolved valuation; inconsistent place data")
    return _ord_u(w, u)


def function_valuation(curve, f: CurveFunction, place: Place) -> int:
    """Exact valuation v_P(f) of a nonzero function."""
    if f.is_zero():
        raise InvalidInput("valuation of the zero function")
    val = _val_pair_at_place(curve, f.a, f.b, place)
    if f.den.degree > 0:
        if place.kind == KIND_INFINITY:
            val += 2 * f.den.degree
        elif place.kind == KIND_RAMIFIED:
            val -= 2 * _ord_u(f.den, place.u)
        else:
            val -= _ord_u(f.den, place.u)
    return val


def divisor_of(curve, f: CurveFunction) -> Divisor:
    """The full divisor of zeros and poles of a nonzero function."""
    if f.is_zero():
        raise InvalidInput("divisor of the zero function")
    candidates = set()
    norm = f.a * f.a - f.b * f.b * curve.h
    if norm.is_zero():
        raise InvalidInput("degenerate function: a^2 = b^2 h")
    for poly in (norm, f.den):
        if poly.degree > 0:
            for g, _ in factor_over_rationals(poly).factors:
                if g.degree > 0 and g != POLY_ONE:
                    candidates.add(g)
    entries = []
    for u in sorted(candidates, key=lambda p: (p.degree, p.coeffs)):
        for place in places_over_x(curve, u, check=False):
            v = function_valuation(curve, f, place)
            if v:
                entries.append((place, v))
    vinf = function_valuation(curve, f, INFINITY)
    if vinf:
        entries.append((INFINITY, vinf))
    div = Divisor(entries)
    if div.degree != 0:
        raise VerificationFailure(f"divisor of {f} has degree {div.degree}, not zero")
    return div


def pole_divisor(curve, f: CurveFunction) -> Divisor:
    """Effective divisor of poles (zero divisor for constants)."""
    if f.is_zero():
        raise InvalidInput("pole divisor of the zero function")
    if f.is_constant():
        return Divisor.zero()
    return Divisor([(p, -m) for p, m in divisor_of(curve, f).entries if m < 0])


def zero_divisor(curve, f: CurveFunction) -> Divisor:
    if f.is_zero():
        raise InvalidInput("zero divisor of the zero function")
    return Divisor([(p, m) for p, m in divisor_of(curve, f).entries if m > 0])


def function_degree(curve, f: CurveFunction) -> int:
    """Degree of the induced map to P^1 = degree of the pole divisor."""
    if f.is_zero() or f.is_constant():
        raise DegreeUndefined("constant functions have no mapping degree")
    if f.is_polynomial_form():
        # poles only at infinity
        return -_val_pair_at_place(curve, f.a, f.b, INFINITY)
    return pole_divisor(curve, f).degree


# ----------------------------------------------------------------------
# Riemann-Roch spaces

@dataclass(frozen=True)
class RRSpace:
    divisor: Divisor
    basis: tuple  # CurveFunctions
    dimension: int
    # the basis in monomial coordinates over the common denominator den
    curve: HyperellipticCurve
    den: RatPolynomial
    monomials: tuple  # (i, is_y) for the monomial x^i or x^i*y
    vectors: tuple

    def combination(self, coeffs) -> "CurveFunction":
        """The function sum_i coeffs[i] * basis[i]."""
        vec = [0] * len(self.monomials)
        for c, v in zip(coeffs, self.vectors):
            if c:
                for j, x in enumerate(v):
                    if x:
                        vec[j] += c * x
        return _vector_to_function(self.curve, vec, self.monomials, self.den)

    def to_json(self):
        return {
            "divisor": self.divisor.to_json(),
            "dimension": self.dimension,
            "basis": [f.to_json() for f in self.basis],
        }


def _monomials_upto(curve, n):
    """Basis data of L(n*oo): list of (i, is_y) sorted by pole order."""
    g = curve.genus
    out = []
    for i in range(0, n // 2 + 1):
        out.append((2 * i, i, False))
    j = 0
    while 2 * j + 2 * g + 1 <= n:
        out.append((2 * j + 2 * g + 1, j, True))
        j += 1
    out.sort()
    return [(i, isy) for _, i, isy in out]


def _monomial_function(curve, i, isy):
    if isy:
        return CurveFunction(curve, POLY_ZERO, POLY_X ** i)
    return CurveFunction(curve, POLY_X ** i)


def _rr_system(curve, D: Divisor):
    """Shared machinery: clearing denominator, candidate monomials of
    L(N*oo), and constraint rows expressing membership of F/den in L(D)."""
    n_inf = D.infinity_mult()
    affine = D.affine_entries()
    by_u = {}
    for p, m in affine:
        need = m if p.kind != KIND_RAMIFIED else (m + 1) // 2
        by_u[p.u] = max(by_u.get(p.u, 0), need)
    den = POLY_ONE
    for u, c in sorted(by_u.items(), key=lambda it: (it[0].degree, it[0].coeffs)):
        den = den * u ** c
    N = n_inf + 2 * den.degree
    monomials = _monomials_upto(curve, N)
    ncols = len(monomials)
    rows = []
    for u, c in sorted(by_u.items(), key=lambda it: (it[0].degree, it[0].coeffs)):
        for place in places_over_x(curve, u, check=False):
            vden = (2 if place.kind == KIND_RAMIFIED else 1) * c
            r = vden - D.mult(place)
            if r <= 0:
                continue
            rows.extend(_vanishing_rows(curve, place, r, monomials))
    return den, monomials, rows


def _vanishing_rows(curve, place, r, monomials):
    """Linear conditions v_place(alpha + beta*y) >= r over monomial coords."""
    u = place.u
    rows = []
    if place.kind == KIND_SPLIT:
        mod = u ** r
        vk = _sqrt_lift(curve, u, place.v, r)
        rem = []
        for i, isy in monomials:
            poly = POLY_X ** i if not isy else (POLY_X ** i) * vk
            rem.append((poly % mod).coeffs)
        for c in range(mod.degree):
            rows.append([col[c] if c < len(col) else Fraction(0) for col in rem])
    elif place.kind == KIND_INERT:
        mod = u ** r
        for want_y in (False, True):
            rem = []
            for i, isy in monomials:
                if isy == want_y:
                    rem.append(((POLY_X ** i) % mod).coeffs)
                else:
                    rem.append(())
            for c in range(mod.degree):
                rows.append([col[c] if c < len(col) else Fraction(0) for col in rem])
    else:  # ramified
        for want_y, order in ((False, (r + 1) // 2), (True, r // 2)):
            if order <= 0:
                continue
            mod = u ** order
            rem = []
            for i, isy in monomials:
                if isy == want_y:
                    rem.append(((POLY_X ** i) % mod).coeffs)
                else:
                    rem.append(())
            for c in range(mod.degree):
                rows.append([col[c] if c < len(col) else Fraction(0) for col in rem])
    return rows


def _vector_to_function(curve, vec, monomials, den) -> CurveFunction:
    a, b = [], []
    for coeff, (i, isy) in zip(vec, monomials):
        if coeff:
            part = b if isy else a
            part.extend([0] * (i + 1 - len(part)))
            part[i] = coeff
    return CurveFunction(curve, RatPolynomial(a), RatPolynomial(b), den)


def riemann_roch_basis(curve, D: Divisor) -> RRSpace:
    """Basis of L(D) = {f : div(f) + D >= 0} for an effective divisor D."""
    if not (D.is_zero() or D.is_effective()):
        raise Unsupported("only effective divisors are in scope")
    den, monomials, rows = _rr_system(curve, D)
    vectors = tuple(tuple(v) for v in nullspace(rows, ncols=len(monomials)))
    basis = tuple(_vector_to_function(curve, v, monomials, den) for v in vectors)
    return RRSpace(
        divisor=D,
        basis=basis,
        dimension=len(basis),
        curve=curve,
        den=den,
        monomials=tuple(monomials),
        vectors=vectors,
    )


# ----------------------------------------------------------------------
# fiber divisors

def fiber_divisor(curve, f: CurveFunction, t: Fraction):
    """Pullback divisor f^*(t) with a multiplicity-one flag."""
    if f.is_zero() or f.is_constant():
        raise InvalidInput("fiber of a constant function")
    shifted = f - Fraction(t)
    fib = zero_divisor(curve, shifted)
    return fib, fib.is_multiplicity_one()


# ----------------------------------------------------------------------
# Mumford representation / Cantor arithmetic

def _cantor_compose(curve, d1, d2):
    u1, v1 = d1
    u2, v2 = d2
    h = curve.h
    g1, e1, e2 = poly_xgcd(u1, u2)
    g0, c1, c2 = poly_xgcd(g1, v1 + v2)
    s1, s2, s3 = c1 * e1, c1 * e2, c2
    u, r = divmod(u1 * u2, g0 * g0)
    num = s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + h)
    vq, vr = divmod(num, g0)
    if not (r.is_zero() and vr.is_zero()):
        raise VerificationFailure("Cantor composition left a nonzero remainder")
    u = u.monic()
    v = vq % u
    return u, v


def _cantor_reduce_pair(curve, pair):
    u, v = pair
    g = curve.genus
    h = curve.h
    while u.degree > g:
        unew, r = divmod(h - v * v, u)
        if not r.is_zero():
            raise VerificationFailure("Cantor reduction: u does not divide h - v^2")
        unew = unew.monic()
        v = (-v) % unew
        u = unew
    return u.monic(), v % u.monic()


def _mumford_parts(curve, D: Divisor):
    """Semi-reduced pieces representing the class of the affine part of D.

    Inert places are full x-fibers (trivial class mod infinity) and are
    dropped; ramified places are 2-torsion so only the parity matters;
    negative split multiplicities flip to the conjugate place.
    """
    parts = []
    for place, m in D.entries:
        if place.kind == KIND_INFINITY or m == 0:
            continue
        if place.kind == KIND_INERT:
            continue
        if place.kind == KIND_RAMIFIED:
            if m % 2:
                parts.append((place.u, POLY_ZERO))
            continue
        pl = place if m > 0 else place.conjugate()
        k = abs(m)
        vk = _sqrt_lift(curve, pl.u, pl.v, k)
        parts.append((pl.u ** k, vk))
    return parts


def cantor_reduce(curve, D: Divisor):
    """Reduced Mumford representative (u, v) of the class of a degree-0 D."""
    if D.degree != 0:
        raise InvalidInput("cantor_reduce needs a degree-0 divisor")
    acc = (POLY_ONE, POLY_ZERO)
    for part in _mumford_parts(curve, D):
        acc = _cantor_reduce_pair(curve, _cantor_compose(curve, acc, part))
    return acc


def is_principal(curve, D: Divisor) -> bool:
    """Whether a degree-0 divisor is the divisor of a function."""
    u, v = cantor_reduce(curve, D)
    return u == POLY_ONE and v.is_zero()


# ----------------------------------------------------------------------
# functions with prescribed divisor

def function_with_divisor(curve, d0: Divisor, dinf: Divisor) -> CurveFunction:
    """The function with zero divisor d0 and pole divisor dinf (up to the
    normalized scalar), or NotPrincipal."""
    if not d0.is_effective() or not dinf.is_effective():
        raise InvalidInput("both divisors must be effective")
    if d0.degree != dinf.degree or d0.degree == 0:
        raise InvalidInput("divisors must share a positive degree")
    if set(d0.support()) & set(dinf.support()):
        raise InvalidInput("supports must be disjoint")
    den, monomials, rows = _rr_system(curve, dinf)
    space = nullspace(rows, ncols=len(monomials))
    if not space:
        raise NotPrincipal("L(Dinf) is trivial")
    # vanishing constraints from d0, expressed over the monomial space, then
    # restricted to the L(Dinf) solution space
    extra = []
    g2 = 2 * curve.genus + 1
    for place, m in d0.entries:
        if place.kind == KIND_INFINITY:
            # zero of order m at infinity: kill monomials with too large poles
            limit = 2 * den.degree - m
            for col, (i, isy) in enumerate(monomials):
                order = 2 * i + (g2 if isy else 0)
                if order > limit:
                    row = [Fraction(0)] * len(monomials)
                    row[col] = Fraction(1)
                    extra.append(row)
            continue
        vden = function_valuation(
            curve, CurveFunction(curve, den), place
        )
        extra.extend(_vanishing_rows(curve, place, m + vden, monomials))
    reduced_rows = []
    for row in extra:
        reduced_rows.append(
            [sum(c * v for c, v in zip(row, vec)) for vec in space]
        )
    kernel = nullspace(reduced_rows, ncols=len(space))
    if not kernel:
        raise NotPrincipal("no function realizes d0 - dinf")
    if len(kernel) != 1:
        raise VerificationFailure("solution space of a principal divisor is not a line")
    combo = kernel[0]
    vec = [
        sum(c * v[i] for c, v in zip(combo, space)) for i in range(len(monomials))
    ]
    # normalize: highest-pole-order monomial coefficient becomes 1
    lead = next(i for i in range(len(vec) - 1, -1, -1) if vec[i] != 0)
    scale = 1 / vec[lead]
    vec = [x * scale for x in vec]
    f = _vector_to_function(curve, vec, monomials, den)
    if zero_divisor(curve, f) != d0 or pole_divisor(curve, f) != dinf:
        raise VerificationFailure(f"{f} does not have divisor d0 - dinf")
    return f


# ----------------------------------------------------------------------
# Laurent expansions at infinity

class LaurentSeries:
    """Finite-precision Laurent series in the uniformizer at infinity.

    coeffs[i] is the coefficient of tau^(val + i); terms with exponent >=
    prec are unknown.
    """

    __slots__ = ("val", "coeffs", "prec")

    def __init__(self, val, coeffs, prec):
        coeffs = list(coeffs)
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            val += 1
        del coeffs[max(0, prec - val):]
        self.val = val
        self.coeffs = [Fraction(c) for c in coeffs]
        self.prec = prec

    def is_zero_to_prec(self):
        return not self.coeffs

    def coefficient(self, e: int) -> Fraction:
        if e >= self.prec:
            raise InvalidInput("coefficient beyond known precision")
        i = e - self.val
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def order(self):
        return self.val if self.coeffs else None

    def __add__(self, other):
        prec = min(self.prec, other.prec)
        val = min(self.val if self.coeffs else prec, other.val if other.coeffs else prec)
        out = [Fraction(0)] * max(0, prec - val)
        for s in (self, other):
            for i, c in enumerate(s.coeffs):
                e = s.val + i
                if e < prec:
                    out[e - val] += c
        return LaurentSeries(val, out, prec)

    def __neg__(self):
        return LaurentSeries(self.val, [-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentSeries(self.val, [c * other for c in self.coeffs], self.prec)
        v1 = self.val if self.coeffs else self.prec
        v2 = other.val if other.coeffs else other.prec
        prec = min(self.prec + v2, other.prec + v1)
        if not self.coeffs or not other.coeffs:
            return LaurentSeries(0, [], prec)
        val = self.val + other.val
        return LaurentSeries(
            val, _trunc_mul(self.coeffs, other.coeffs, prec - val - 1), prec
        )

    __rmul__ = __mul__

    def inverse(self):
        if not self.coeffs:
            raise ZeroDivisionError("inverting a zero series")
        v = self.val
        c0 = self.coeffs[0]
        nterms = self.prec - self.val
        inv = [Fraction(1) / c0] + [Fraction(0)] * (nterms - 1)
        for k in range(1, nterms):
            s = Fraction(0)
            for i in range(1, min(k, len(self.coeffs) - 1) + 1):
                s += self.coeffs[i] * inv[k - i]
            inv[k] = -s / c0
        return LaurentSeries(-v, inv, -v + nterms)

    def nth_root(self, m: int):
        """Series s with s^m = self; requires val divisible by m and the
        leading coefficient a rational m-th power."""
        if not self.coeffs:
            raise InvalidInput("root of zero series")
        if self.val % m:
            return None
        c0 = self.coeffs[0]
        root0 = _rational_nth_root(c0, m)
        if root0 is None:
            return None
        nterms = self.prec - self.val
        u = [c / c0 for c in self.coeffs]
        # r = u^(1/m) with u[0] = 1 by the power recurrence (Knuth, TAOCP 2,
        # 4.7): k r_k = sum_{j=1..k} (j/m - (k - j)) u_j r_(k-j)
        r = [Fraction(1)]
        for k in range(1, nterms):
            acc = Fraction(0)
            for j in range(1, min(k, len(u) - 1) + 1):
                if u[j]:
                    acc += (Fraction(j, m) - (k - j)) * u[j] * r[k - j]
            r.append(acc / k)
        return LaurentSeries(
            self.val // m, [c * root0 for c in r], self.val // m + nterms
        )

    def __repr__(self):
        terms = [
            f"{c}*t^{self.val + i}" for i, c in enumerate(self.coeffs) if c
        ]
        return " + ".join(terms or ["0"]) + f" + O(t^{self.prec})"


def _trunc_mul(a, b, k):
    """Coefficients 0..k of the product of coefficient lists a and b."""
    out = [Fraction(0)] * (k + 1)
    for i, x in enumerate(a[: k + 1]):
        if x:
            for j, y in enumerate(b[: k + 1 - i]):
                if y:
                    out[i + j] += x * y
    return out


def _integer_nth_root(n: int, m: int) -> int:
    """floor(n^(1/m)) for n >= 0, by integer Newton iteration."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // m)  # >= the root
    while True:
        s = ((m - 1) * r + n // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


def _rational_nth_root(q: Fraction, m: int):
    """The rational r with r^m == q (r > 0 for even m), or None."""
    if m == 1:
        return q
    sign = 1
    if q < 0:
        if m % 2 == 0:
            return None
        sign = -1
        q = -q
    num, den = q.numerator, q.denominator
    rn, rd = _integer_nth_root(num, m), _integer_nth_root(den, m)
    if rn ** m == num and rd ** m == den:
        return sign * Fraction(rn, rd)
    return None


@lru_cache(maxsize=64)
def infinity_series_xy(curve, nterms: int):
    """Laurent expansions of x and y at infinity in tau = x^g / y.

    x has valuation -2 and y valuation -(2g+1); both series are rational
    because the infinite place is rational on the imaginary model.  With
    w = 1/x, s = tau^2 and ht(w) = w^(2g+1) h(1/w), the curve equation is
    the fixed point w = s * ht(w): each pass of w <- s * ht(w) fixes one
    more coefficient of w.  Then x = tau^-2 / ht(w) and y = x^g / tau.
    """
    g = curve.genus
    rev = curve.h.coeffs[::-1]  # ht(w) = sum_i rev[i] w^i
    k = (nterms + 2 * g) // 2 + 1  # coefficients of ht(w) needed, in s
    w = []
    for n in range(1, k + 1):
        # ht(w) mod s^n by Horner; w is exact mod s^n
        ht = [rev[-1]]
        for c in reversed(rev[:-1]):
            ht = _trunc_mul(ht, w, n - 1)
            ht[0] += c
        w = [Fraction(0)] + ht
    ht_tau = LaurentSeries(0, [c for a in ht for c in (a, 0)], 2 * k)  # s = tau^2
    u = ht_tau.inverse()  # tau^2 * x
    ug = LaurentSeries(0, [1], 2 * k)
    for _ in range(g):
        ug = ug * u
    x_series = LaurentSeries(-2, u.coeffs, nterms)
    y_series = LaurentSeries(-(2 * g + 1), ug.coeffs, nterms)
    return x_series, y_series


def function_series(curve, f: CurveFunction, nterms: int) -> LaurentSeries:
    """Expansion of f at infinity with exactly nterms known coefficients
    past the pole order: precision is absolute at tau^(val + nterms), where
    val is the valuation of f at infinity.

    x and y are known to nterms + 2 and nterms + 2g + 1 coefficients past
    their poles, and products, inverses and sums of terms of different
    valuation keep the least relative precision of their inputs."""
    if f.is_zero():
        raise InvalidInput("expansion of the zero function")
    xs, ys = infinity_series_xy(curve, nterms)

    def poly_series(p: RatPolynomial) -> LaurentSeries:
        # Horner from the leading coefficient: a zero start would cost two
        # terms of precision at the first product
        acc = LaurentSeries(0, [p.lc], nterms + 2)
        for c in reversed(p.coeffs[:-1]):
            acc = acc * xs + LaurentSeries(0, [c], nterms + 2)
        return acc

    # a zero part is skipped: its empty series would carry an absolute
    # precision that cuts the sum short
    parts = []
    if f.a:
        parts.append(poly_series(f.a))
    if f.b:
        parts.append(poly_series(f.b) * ys)
    num = parts[0] if len(parts) == 1 else parts[0] + parts[1]
    if f.den.degree > 0:
        num = num * poly_series(f.den).inverse()
    return LaurentSeries(num.val, num.coeffs, min(num.prec, num.val + nterms))
