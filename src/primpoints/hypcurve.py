"""Imaginary hyperelliptic curves y^2 = h(x) over Q.

Places (split / ramified / inert / infinity), divisors, function-field
elements (a + b*y)/den, exact valuations, Riemann-Roch spaces by linear
algebra, fiber divisors, and functions with a prescribed divisor.  A
degree-0 divisor is principal exactly when a Riemann-Roch system has a
solution, and that one linear rule is the only principality test.
deg h = 2g + 1 is required, so there is exactly one rational place at
infinity and every degree carries an effective divisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

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
    _gcd_cofactor,
    _numerators,
    _power,
    factor_over_rationals,
    is_squarefree,
    poly_gcd,
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
        root = _rational_nth_root(val, 2)
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
        if not den.is_monic():
            inv = 1 / den.lc
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
        return _power(self, n, CurveFunction(self.curve, POLY_ONE))

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
        g, inv2v = _gcd_cofactor(mod, (vk * 2) % mod)
        if g.degree != 0:
            raise InvalidInput("ramified place cannot be split-lifted")
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
        else:
            val -= _den_order(place, _ord_u(f.den, place.u))
    return val


def _den_order(place: Place, k: int) -> int:
    """v_P(den) at an affine place P over u of a polynomial den with
    ord_u(den) = k: e_P * k, with ramification index e_P = 2 at a ramified
    place and 1 elsewhere."""
    return (2 if place.kind == KIND_RAMIFIED else 1) * k


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
    # basis[i] = (sum_j vectors[i][j] * monomials[j]) / (_scale * den), with
    # int vectors and the one int _scale
    curve: HyperellipticCurve
    den: RatPolynomial
    monomials: tuple  # (i, is_y) for the monomial x^i or x^i*y
    vectors: tuple
    _scale: int

    def combination(self, coeffs) -> "CurveFunction":
        """The function sum_i coeffs[i] * basis[i]; int coeffs keep it in
        ints."""
        vec = [0] * len(self.monomials)
        for c, v in zip(coeffs, self.vectors):
            if c:
                for j, x in enumerate(v):
                    if x:
                        vec[j] += c * x
        return _vector_to_function(self.curve, vec, self.monomials, self.den * self._scale)

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


def _vanishing_rows(curve, place, r, monomials):
    """Linear conditions v_place(alpha + beta*y) >= r over monomial coords."""
    u = place.u
    if place.kind == KIND_SPLIT:
        vk = _sqrt_lift(curve, u, place.v, r)
        polys = [(POLY_X ** i) * vk if isy else POLY_X ** i for i, isy in monomials]
        return _remainder_rows(polys, u ** r)
    # alpha and beta vanish separately: to order r at an inert place; at a
    # ramified one (y a uniformizer) alpha to ceil(r/2) and beta to floor(r/2)
    orders = (r, r) if place.kind == KIND_INERT else ((r + 1) // 2, r // 2)
    rows = []
    for want_y, order in zip((False, True), orders):
        if order > 0:
            polys = [POLY_X ** i if isy == want_y else POLY_ZERO for i, isy in monomials]
            rows.extend(_remainder_rows(polys, u ** order))
    return rows


def _remainder_rows(polys, mod):
    """Row c (c < deg mod) holds the x^c coefficient of each poly % mod."""
    rem = [(poly % mod).coeffs for poly in polys]
    return [
        [col[c] if c < len(col) else Fraction(0) for col in rem]
        for c in range(mod.degree)
    ]


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
    # f = F/den with F in L(N*oo): den clears the poles D allows at each u,
    # and F must vanish where den's zeros exceed those poles.  The places
    # over u are a place of D over u and its conjugate.
    by_u, over_u = {}, {}
    for p, m in D.affine_entries():
        need = m if p.kind != KIND_RAMIFIED else (m + 1) // 2
        by_u[p.u] = max(by_u.get(p.u, 0), need)
        over_u.setdefault(p.u, set()).update((p, p.conjugate()))
    by_u = sorted(by_u.items(), key=lambda it: (it[0].degree, it[0].coeffs))
    den = POLY_ONE
    for u, c in by_u:
        den = den * u ** c
    monomials = _monomials_upto(curve, D.infinity_mult() + 2 * den.degree)
    rows = []
    for u, c in by_u:
        for place in sorted(over_u[u], key=Place.sort_key):
            r = _den_order(place, c) - D.mult(place)
            if r > 0:
                rows.extend(_vanishing_rows(curve, place, r, monomials))
    kernel = nullspace(rows, ncols=len(monomials))
    scale, flat = _numerators([q for v in kernel for q in v])
    n = len(monomials)
    vectors = tuple(tuple(flat[i:i + n]) for i in range(0, len(flat), n))
    basis = tuple(_vector_to_function(curve, v, monomials, den * scale) for v in vectors)
    return RRSpace(
        divisor=D,
        basis=basis,
        dimension=len(basis),
        curve=curve,
        den=den,
        monomials=tuple(monomials),
        vectors=vectors,
        _scale=scale,
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
# principal divisors and functions with prescribed divisor

def _monic_at_infinity(f: CurveFunction) -> CurveFunction:
    """f scaled so that its monomial of highest pole order at infinity has
    coefficient 1; x^i and x^i*y have pole orders of opposite parity."""
    g2 = 2 * f.curve.genus + 1
    if f.b.is_zero() or (not f.a.is_zero() and 2 * f.a.degree > 2 * f.b.degree + g2):
        lead = f.a.lc
    else:
        lead = f.b.lc
    return CurveFunction(f.curve, f.a.scale(1 / lead), f.b.scale(1 / lead), f.den)


def _principal_function(curve, d0: Divisor, space: RRSpace):
    """The function with divisor d0 - dinf, where space = L(dinf), scaled by
    _monic_at_infinity; None when d0 - dinf is not principal.

    d0 is effective, disjoint from dinf and of the same degree.  Zeros of
    order at least d0 are linear conditions on the coefficients over
    space.vectors; since deg d0 = deg dinf, any nonzero solution has divisor
    exactly d0 - dinf, so the kernel is a line or empty.  The answer is
    checked without factoring: its poles lie over the factors of space.den
    or at infinity, and matching -dinf there and d0 on supp d0 leaves no
    degree for any other zero.
    """
    dinf = space.divisor
    if d0.degree != dinf.degree:
        raise InvalidInput("d0 and dinf must have the same degree")
    monomials = space.monomials
    g2 = 2 * curve.genus + 1
    rows = []
    for place, m in d0.entries:
        if place.kind == KIND_INFINITY:
            # zero of order m at infinity: kill monomials with too large poles
            limit = 2 * space.den.degree - m
            for col, (i, isy) in enumerate(monomials):
                if 2 * i + (g2 if isy else 0) > limit:
                    row = [Fraction(0)] * len(monomials)
                    row[col] = Fraction(1)
                    rows.append(row)
            continue
        vden = _den_order(place, _ord_u(space.den, place.u))
        rows.extend(_vanishing_rows(curve, place, m + vden, monomials))
    reduced = [[sum(c * v for c, v in zip(row, vec)) for vec in space.vectors] for row in rows]
    kernel = nullspace(reduced, ncols=len(space.vectors))
    if not kernel:
        return None
    if len(kernel) != 1:
        raise VerificationFailure("solution space of a principal divisor is not a line")
    f = _monic_at_infinity(space.combination(kernel[0]))
    want = d0 - dinf
    checked = {INFINITY, *d0.support()}
    checked.update(q for p in dinf.support() for q in (p, p.conjugate()))
    for place in checked:
        if function_valuation(curve, f, place) != want.mult(place):
            raise VerificationFailure(f"{f} does not have divisor d0 - dinf")
    return f


def is_principal(curve, D: Divisor) -> bool:
    """Whether a degree-0 divisor is the divisor of a function.

    D = D+ - D- is principal exactly when L(D-) holds a function with zeros
    of order at least D+.  That is linear algebra over Q: a basis of L(D-),
    then the zeros as conditions on its coefficients.  It costs more than
    Cantor reduction in the Jacobian: on 270 random degree-0 divisors of
    genus 1 to 3, with places of degree up to 5 and multiplicities up to 3,
    it took 20 to 30 times as long, about 11 ms a divisor (Python 3.11,
    2-vCPU Xeon VM).
    """
    if D.degree != 0:
        raise InvalidInput("is_principal needs a degree-0 divisor")
    plus = Divisor([(p, m) for p, m in D.entries if m > 0])
    space = riemann_roch_basis(curve, Divisor([(p, -m) for p, m in D.entries if m < 0]))
    return _principal_function(curve, plus, space) is not None


def function_with_divisor(curve, d0: Divisor, dinf: Divisor) -> CurveFunction:
    """The function with zero divisor d0 and pole divisor dinf (up to the
    normalized scalar), or NotPrincipal."""
    if not d0.is_effective() or not dinf.is_effective():
        raise InvalidInput("both divisors must be effective")
    if d0.degree != dinf.degree or d0.degree == 0:
        raise InvalidInput("divisors must share a positive degree")
    if set(d0.support()) & set(dinf.support()):
        raise InvalidInput("supports must be disjoint")
    f = _principal_function(curve, d0, riemann_roch_basis(curve, dinf))
    if f is None:
        raise NotPrincipal("no function realizes d0 - dinf")
    return f


# ----------------------------------------------------------------------
# expansions at infinity, in ints

def _trunc_mul(a, b, k):
    """Coefficients 0..k of the product of coefficient lists a and b."""
    out = [0] * (k + 1)
    for i, x in enumerate(a[: k + 1]):
        if x:
            for j, y in enumerate(b[: k + 1 - i]):
                if y:
                    out[i + j] += x * y
    return out


def _series_nth_root(w, m: int, nterms: int):
    """The ints R_0 .. R_(nterms-1) with u^(1/m) = sum_k R_k / ((m w_0)^k k!)
    tau^k, where u = w / w_0 for an int list w with w[0] != 0 and terms past
    w are zero.  The root does not depend on the scale of w.

    This is the power recurrence k r_k = sum_{j=1..k} (j/m - (k - j)) u_j
    r_(k-j) (Knuth, TAOCP 2, 4.7) multiplied through by (m w_0)^k (k-1)!:
    R_0 = 1 and R_k = sum_{j=1..k} (j - m(k - j)) w_j R_(k-j) (m w_0)^(j-1)
    (k-1)!/(k-j)!, all in ints."""
    if m < 1:
        raise InvalidInput(f"root index must be positive, not {m}")
    if not w or not w[0]:
        raise InvalidInput("root of a series with zero leading term")
    step = m * w[0]
    out = [1]
    for k in range(1, nterms):
        acc, scale = 0, 1  # scale = (m w_0)^(j-1) (k-1)!/(k-j)!
        for j in range(1, min(k, len(w) - 1) + 1):
            if w[j]:
                acc += (j - m * (k - j)) * w[j] * out[k - j] * scale
            scale *= step * (k - j)
        out.append(acc)
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


def _x_at_infinity(curve, nterms: int):
    """x at infinity in tau = x^g / y, as ints over one denominator:
    (den, X) with x = tau^-2 * sum_j X[j] / den * tau^(2j), j < nterms.
    y = x^g / tau needs no expansion of its own.

    With H = delta * h integral, c = lc(H), w = 1/x, S = tau^2 / delta and
    HT(w) = w^(2g+1) H(1/w), the curve equation is the fixed point
    w = S * HT(w), integral in S: each pass fixes one more term of w.  Then
    S * x = 1 / HT(w) = sum_j V_j S^j / c^(j+1), with V_0 = 1 and
    V_j = -sum_{i>=1} HT_i c^(i-1) V_(j-i) for the S^i coefficients HT_i of
    HT(w), so the tau^(2j-2) coefficient of x is V_j delta^(1-j) / c^(j+1).
    """
    delta, rev = curve.h.den, curve.h.nums[::-1]  # HT(w) = sum_i rev[i] w^i
    w = []
    for n in range(1, nterms + 1):
        # HT(w) mod S^n by Horner; w is exact mod S^n
        ht = [rev[-1]]
        for c in reversed(rev[:-1]):
            ht = _trunc_mul(ht, w, n - 1)
            ht[0] += c
        w = [0] + ht
    c = rev[0]
    v = [1]
    for j in range(1, nterms):
        v.append(-sum(ht[i] * c ** (i - 1) * v[j - i] for i in range(1, j + 1)))
    return (
        c ** nterms * delta ** (nterms - 1),
        [v[j] * c ** (nterms - 1 - j) * delta ** (nterms - j) for j in range(nterms)],
    )


@lru_cache(maxsize=64)
def _monomial_windows(curve, n: int, k: int):
    """The monomials of L(n*oo) expanded at infinity in one fixed window, as
    integer rows over one denominator: (den, rows).

    rows holds one (i, is_y, row) per monomial x^i or x^i*y, in
    _monomials_upto order; row / den are its coefficients of tau^-n, ...,
    tau^(k-n-1), and den > 0 is the lcm of their denominators.  The window
    of a polynomial-form f of pole order n is then the dot product of f.a
    and f.b with these rows.  With p = i + g*is_y, the monomial is
    tau^-is_y * x^p, so every row comes from one chain of powers of the one
    expansion _x_at_infinity(curve, (k + 1) // 2), which reaches the window's
    end at tau^(k-n-1) for every pole order up to n.  This is the only memo
    of expansions at infinity.
    """
    g = curve.genus
    nterms = (k + 1) // 2
    dx, xs = _x_at_infinity(curve, nterms)
    monos = _monomials_upto(curve, n)
    top = max(i + g * isy for i, isy in monos)
    powers = [[1] + [0] * (nterms - 1)]  # x^p = tau^-2p powers[p] / dx^p
    while len(powers) <= top:
        powers.append(_trunc_mul(powers[-1], xs, nterms - 1))
    flat = []
    for i, isy in monos:
        p = i + g * isy
        lift = dx ** (top - p)
        for t in range(-n, k - n):
            j, odd = divmod(t + 2 * p + isy, 2)  # tau^t = tau^-(2p+is_y) tau^2j
            flat.append(0 if odd or j < 0 else powers[p][j] * lift)
    scale = dx ** top
    div = gcd(scale, *flat) * (1 if scale > 0 else -1)
    rows = tuple(
        (i, isy, tuple(c // div for c in flat[j * k:(j + 1) * k]))
        for j, (i, isy) in enumerate(monos)
    )
    return scale // div, rows
