"""Number fields Q[x]/(m) and the primitivity engine.

A degree-d field is presented by a monic irreducible modulus; elements are
coordinate vectors in the power basis.  The module decides whether a field
has a proper intermediate subfield and emits checkable certificates: either
a witness (generator plus minimal polynomial of a proper subfield) or a
primitivity verdict obtained from the prime-degree shortcut, the resolvent
cubic (degree 4), or the principal-subfields computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import DivisionByZero, InvalidInput, NotAField
from .exactalg import (
    POLY_ONE,
    POLY_X,
    RatPolynomial,
    factor_over_rationals,
    interpolate,
    is_prime,
    is_squarefree,
    rat_to_str,
    resultant,
)
from .linalg import in_span, nullspace


class NumberField:
    """Q[x]/(m) for a monic irreducible m; irreducibility certified on build."""

    __slots__ = ("modulus", "degree", "_red_powers")

    def __init__(self, modulus: RatPolynomial, check: bool = True):
        if modulus.is_zero() or not modulus.is_monic():
            raise InvalidInput("field modulus must be monic")
        if modulus.degree < 1:
            raise InvalidInput("field modulus must have positive degree")
        if check and not factor_over_rationals(modulus).is_irreducible():
            raise NotAField(f"{modulus} is reducible over Q")
        self.modulus = modulus
        d = modulus.degree
        self.degree = d
        # x^d .. x^(2d-2) reduced mod m, as coordinate tuples
        red = []
        cur = [-c for c in modulus.coeffs[:d]]
        red.append(tuple(cur))
        for _ in range(d - 2):
            nxt = [Fraction(0)] + cur[: d - 1]
            top = cur[d - 1]
            if top:
                for i in range(d):
                    nxt[i] -= top * modulus.coeffs[i]
            cur = nxt
            red.append(tuple(cur))
        self._red_powers = tuple(red)

    def element(self, coeffs) -> "FieldElement":
        c = [Fraction(x) for x in coeffs]
        if len(c) > self.degree:
            raise InvalidInput("too many coordinates")
        c += [Fraction(0)] * (self.degree - len(c))
        return FieldElement(self, tuple(c))

    def from_poly(self, poly: RatPolynomial) -> "FieldElement":
        return self.element((poly % self.modulus).coeffs)

    @property
    def zero(self):
        return self.element([])

    @property
    def one(self):
        return self.element([1])

    @property
    def theta(self):
        if self.degree == 1:
            return self.from_poly(POLY_X)
        return self.element([0, 1])

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("NumberField", self.modulus))

    def __repr__(self):
        return f"NumberField(x^{self.degree}: {self.modulus})"


class FieldElement:
    """Element of a NumberField, as coordinates in the power basis."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other) -> "FieldElement":
        if isinstance(other, (int, Fraction)):
            return self.field.element([other])
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other)!r}")
        if other.field != self.field:
            raise InvalidInput("elements live in different fields")
        return other

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_poly(self) -> RatPolynomial:
        return RatPolynomial(self.coeffs)

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(
            self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) + (-self)

    def __mul__(self, other):
        other = self._check(other)
        d = self.field.degree
        a, b = self.coeffs, other.coeffs
        prod = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = list(prod[:d])
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c:
                red = self.field._red_powers[k - d]
                for i in range(d):
                    out[i] += c * red[i]
        return FieldElement(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("cannot invert zero")
        # extended euclid with the modulus
        a, b = self.field.modulus, self.to_poly()
        t0, t1 = RatPolynomial(), POLY_ONE
        while not b.is_zero():
            q, r = divmod(a, b)
            a, b = b, r
            t0, t1 = t1, t0 - q * t1
        # a = gcd = s*m + t0*self (constant, since m irreducible)
        if a.degree != 0:
            raise InvalidInput("modulus is not irreducible")
        return self.field.from_poly(t0.scale(1 / a.lc))

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        return self._check(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return (
            isinstance(other, FieldElement)
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


def nf_arithmetic(a: FieldElement, b, op: str) -> FieldElement:
    """Spec surface for field arithmetic: op in {'add', 'mul', 'inv'}."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "inv":
        return a.inverse()
    raise InvalidInput(f"unknown operation {op!r}")


# ----------------------------------------------------------------------
# polynomials over a number field

class NfPolynomial:
    """Univariate polynomial with FieldElement coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs=()):
        c = list(coeffs)
        while c and c[-1].is_zero():
            c.pop()
        self.field = field
        self.coeffs = tuple(c)

    @classmethod
    def from_rat(cls, field: NumberField, poly: RatPolynomial) -> "NfPolynomial":
        return cls(field, [field.element([q]) for q in poly.coeffs])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self) -> FieldElement:
        if not self.coeffs:
            raise InvalidInput("zero polynomial")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (
            isinstance(other, NfPolynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.modulus, tuple(e.coeffs for e in self.coeffs)))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] = out[i] + x
        return NfPolynomial(self.field, out)

    def __neg__(self):
        return NfPolynomial(self.field, [-x for x in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return NfPolynomial(self.field, [c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return NfPolynomial(self.field)
        zero = self.field.zero
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x.is_zero():
                for j, y in enumerate(b):
                    out[i + j] = out[i + j] + x * y
        return NfPolynomial(self.field, out)

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError
        inv = other.lc.inverse()
        rem = list(self.coeffs)
        d = other.degree
        q = [self.field.zero] * max(0, len(rem) - d)
        while len(rem) - 1 >= d and rem:
            c = rem[-1] * inv
            k = len(rem) - 1 - d
            q[k] = c
            for j, y in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * y
            while rem and rem[-1].is_zero():
                rem.pop()
        return NfPolynomial(self.field, q), NfPolynomial(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            raise InvalidInput("cannot normalize zero")
        inv = self.lc.inverse()
        return NfPolynomial(self.field, [c * inv for c in self.coeffs])

    def derivative(self):
        return NfPolynomial(
            self.field, [i * self.coeffs[i] for i in range(1, len(self.coeffs))]
        )

    def __call__(self, v: FieldElement) -> FieldElement:
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def compose_linear(self, scale: FieldElement, shift: FieldElement):
        """self(scale*x + shift) by Horner."""
        xpoly = NfPolynomial(self.field, [shift, scale])
        acc = NfPolynomial(self.field)
        for c in reversed(self.coeffs):
            acc = acc * xpoly + NfPolynomial(self.field, [c])
        return acc

    def gcd(self, other) -> "NfPolynomial":
        a, b = self, other
        if a.is_zero() and b.is_zero():
            raise InvalidInput("gcd(0,0)")
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def __repr__(self):
        terms = ", ".join(str(c.to_poly()) for c in self.coeffs)
        return f"NfPolynomial[{terms}]"


def nf_norm(f: NfPolynomial) -> RatPolynomial:
    """Norm resultant Res_y(m(y), f(x) with theta -> y), by interpolation."""
    L = f.field
    d = L.degree
    n = f.degree
    if n < 0:
        raise InvalidInput("norm of the zero polynomial")

    def sample(c):
        val = f(L.element([c]))
        return Fraction(0) if val.is_zero() else resultant(L.modulus, val.to_poly())

    return interpolate(sample, n * d + 1)


@dataclass(frozen=True)
class NfFactorization:
    """Factorization over a number field; unit * prod(factors^mult) == input."""

    unit: FieldElement
    factors: tuple  # of (monic irreducible NfPolynomial, mult)
    shift: int  # Trager shift actually used

    def expand(self) -> NfPolynomial:
        L = self.unit.field
        acc = NfPolynomial(L, [self.unit])
        for f, m in self.factors:
            for _ in range(m):
                acc = acc * f
        return acc

    def is_irreducible(self):
        return len(self.factors) == 1 and self.factors[0][1] == 1


def trager_factor(f: NfPolynomial) -> NfFactorization:
    """Complete irreducible factorization over the coefficient field.

    Norm-shift method: find s with squarefree Norm(f(x - s*theta)), factor the
    norm over Q, and pull factors back through gcds over the field.
    """
    if f.is_zero():
        raise InvalidInput("cannot factor zero")
    L = f.field
    unit = f.lc
    monic = f.monic()
    if monic.degree == 0:
        return NfFactorization(unit=unit, factors=(), shift=0)
    sqf = monic // monic.gcd(monic.derivative())
    theta = L.theta
    shift_used = 0
    pieces = []
    if sqf.degree >= 1:
        for s in _shift_sequence():
            shifted = sqf.compose_linear(L.one, L.element([s]) * theta if s else L.zero)
            norm = nf_norm(shifted)
            if is_squarefree(norm):
                shift_used = s
                break
        else:  # pragma: no cover - sequence is infinite
            raise InvalidInput("no squarefree shift found")
        fl = factor_over_rationals(norm)
        if fl.is_irreducible():
            pieces = [sqf]
        else:
            # f(x) = shifted(x - s*theta), so factors pull back through x - s*theta
            back = L.element([-shift_used]) * theta if shift_used else L.zero
            for gq, _ in fl.factors:
                gl = NfPolynomial.from_rat(L, gq).compose_linear(L.one, back)
                h = sqf.gcd(gl)
                if h.degree >= 1:
                    pieces.append(h)
    # recover multiplicities by exact division
    factors = []
    rem = monic
    for h in sorted(pieces, key=_nf_sort_key):
        mult = 0
        while True:
            q, r = divmod(rem, h)
            if r.is_zero():
                rem = q
                mult += 1
            else:
                break
        if mult:
            factors.append((h, mult))
    if rem.degree != 0:
        raise InvalidInput("factorization incomplete; bad shift search?")
    return NfFactorization(unit=unit, factors=tuple(factors), shift=shift_used)


def _shift_sequence():
    yield 0
    k = 1
    while True:
        yield k
        yield -k
        k += 1


def _nf_sort_key(p: NfPolynomial):
    return (p.degree, tuple(tuple(c.coeffs) for c in p.coeffs))


def nf_sqrt(L: NumberField, alpha: FieldElement):
    """A square root of alpha in L, or None."""
    if alpha.is_zero():
        return L.zero
    quad = NfPolynomial(L, [-alpha, L.zero, L.one])
    fact = trager_factor(quad)
    for h, _ in fact.factors:
        if h.degree == 1:
            return -h.coeffs[0]
    return None


# ----------------------------------------------------------------------
# principal subfields

@dataclass(frozen=True)
class PrincipalSubfield:
    degree: int
    basis: tuple  # FieldElements spanning the subfield as a Q-subspace
    generator: FieldElement
    generator_minpoly: RatPolynomial


def principal_subfields(L: NumberField) -> list:
    """One subfield per irreducible factor of the modulus over L.

    Every subfield of L is an intersection of the returned ones; the list
    always contains L itself (from the factor x - theta).
    """
    m_over_L = NfPolynomial.from_rat(L, L.modulus)
    fact = trager_factor(m_over_L)
    d = L.degree
    out = []
    for g, _ in fact.factors:
        k = g.degree
        # x^j reduced mod g, as vectors over Q of length k*d
        xj = NfPolynomial(L, [L.one])
        xpoly = NfPolynomial(L, [L.zero, L.one])
        cols = []
        for j in range(d):
            if j:
                xj = (xj * xpoly) % g
            # image of theta^j: (x^j mod g) - theta^j as element of L[x]/(g)
            vec = []
            tj = L.theta ** j
            for a in range(k):
                coef = xj.coeffs[a] if a <= xj.degree else L.zero
                if a == 0:
                    coef = coef - tj
                vec.extend(coef.coeffs)
            cols.append(vec)
        rows = [[cols[j][i] for j in range(d)] for i in range(k * d)]
        kernel = nullspace(rows, ncols=d)
        basis = tuple(L.element(v) for v in kernel)
        gen, minpoly = _subfield_generator(L, basis)
        if len(basis) == 2:
            gen, minpoly = _canonical_quadratic(L, gen, minpoly)
        out.append(
            PrincipalSubfield(
                degree=len(basis), basis=basis, generator=gen, generator_minpoly=minpoly
            )
        )
    out.sort(key=_entry_sort_key)
    return out


def _entry_sort_key(e: PrincipalSubfield):
    height = max(
        (max(abs(c.numerator), c.denominator) for c in e.generator_minpoly.coeffs),
        default=0,
    )
    return (e.degree, height, e.generator_minpoly.coeffs)


def _squarefree_int_part(n: int, bound: int = 1_000_000):
    """(s, n0) with n == s^2 * n0 and n0 free of square factors below bound."""
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


def _canonical_quadratic(L: NumberField, gen: FieldElement, minpoly: RatPolynomial):
    """Normalize a quadratic generator so its minpoly becomes x^2 - D.

    D is an integer free of square factors p^2 with p <= 10^6 only: the
    trial division in _squarefree_int_part stops there, so a larger square
    factor can stay in D (2 * 1000003^2 is returned unchanged).
    """
    b, c = minpoly[1], minpoly[0]
    shifted = gen + L.element([b / 2])
    disc = b * b / 4 - c  # shifted^2 == disc
    if disc == 0:
        return gen, minpoly
    sn, n0 = _squarefree_int_part(disc.numerator)
    sd, d0 = _squarefree_int_part(disc.denominator)
    # disc = (sn/(sd*d0))^2 * (n0*d0)
    scale = Fraction(sn, sd * d0)
    candidate = shifted * L.element([1 / scale])
    d_new = n0 * d0
    return candidate, RatPolynomial([-d_new, 0, 1])


def _subfield_generator(L: NumberField, basis):
    """Deterministic small integer combination generating the subspace field."""
    e = len(basis)
    for combo in coefficient_vectors(e, 6):
        cand = L.zero
        for c, b in zip(combo, basis):
            if c:
                cand = cand + L.element([c]) * b
        if cand.is_zero():
            continue
        mp = cand.minimal_polynomial()
        if mp.degree == e:
            return cand, mp
    raise InvalidInput("no generator found; subspace is not a field?")


def coefficient_vectors(dim: int, max_height: int | None = None):
    """Nonzero integer vectors by max-norm ring, small entries first."""
    h = 1
    while max_height is None or h <= max_height:
        ladder = [0]
        for v in range(1, h + 1):
            ladder.extend((v, -v))
        for vec in product(ladder, repeat=dim):
            if max(abs(v) for v in vec) == h:
                yield vec
        h += 1


# ----------------------------------------------------------------------
# primitivity certificates

@dataclass(frozen=True)
class SubfieldWitness:
    """A proper intermediate field: generator and its minimal polynomial."""

    degree: int
    generator: FieldElement
    generator_minpoly: RatPolynomial

    def verify(self, modulus: RatPolynomial) -> bool:
        d = modulus.degree
        e = self.degree
        if not (1 < e < d and d % e == 0):
            return False
        if self.generator.is_rational():
            return False
        if self.generator_minpoly.degree != e or not self.generator_minpoly.is_monic():
            return False
        if not factor_over_rationals(self.generator_minpoly).is_irreducible():
            return False
        if self.generator.field.modulus != modulus:
            return False
        return self.generator_minpoly(self.generator).is_zero()

    def to_json(self):
        return {
            "degree": self.degree,
            "generator_coeffs": [rat_to_str(c) for c in self.generator.coeffs],
            "minpoly": self.generator_minpoly.to_json(),
        }

    @classmethod
    def from_json(cls, data, modulus: RatPolynomial) -> "SubfieldWitness":
        L = NumberField(modulus, check=False)
        return cls(
            degree=data["degree"],
            generator=L.element([Fraction(c) for c in data["generator_coeffs"]]),
            generator_minpoly=RatPolynomial.from_json(data["minpoly"]),
        )


PRIMITIVE = "primitive"
IMPRIMITIVE = "imprimitive"

METHOD_PRIME_DEGREE = "prime_degree"
METHOD_PRINCIPAL_SUBFIELDS = "principal_subfields"
METHOD_RESOLVENT_CUBIC = "resolvent_cubic"
METHOD_FROM_SPECIALIZATION = "generic_from_specialization"

# the methods that decide a PrimitivityCertificate
_METHODS = (METHOD_PRIME_DEGREE, METHOD_PRINCIPAL_SUBFIELDS, METHOD_RESOLVENT_CUBIC)


@dataclass(frozen=True)
class PrimitivityCertificate:
    verdict: str
    method: str
    modulus: RatPolynomial
    witness: SubfieldWitness | None = None

    def verify(self, strict: bool = False) -> bool:
        """Re-check the certificate from scratch.

        The modulus must be monic and irreducible over Q.  A primitive
        verdict by principal subfields carries no witness, so it is
        recomputed; strict=True recomputes and compares the verdict for
        every method (slow).  Principal subfields run at most once.
        """
        if self.verdict not in (PRIMITIVE, IMPRIMITIVE) or self.method not in _METHODS:
            return False
        m = self.modulus
        if not m.is_monic() or not factor_over_rationals(m).is_irreducible():
            return False
        if self.verdict == IMPRIMITIVE:
            if self.witness is None or not self.witness.verify(self.modulus):
                return False
        else:
            if self.witness is not None:
                return False
            if self.method == METHOD_PRIME_DEGREE:
                d = self.modulus.degree
                if d != 1 and not is_prime(d):
                    return False
            elif self.method == METHOD_RESOLVENT_CUBIC:
                if self.modulus.degree != 4:
                    return False
                res = resolvent_cubic(self.modulus)
                if any(
                    f.degree == 1 for f, _ in factor_over_rationals(res).factors
                ):
                    return False
        if strict or (
            self.verdict == PRIMITIVE and self.method == METHOD_PRINCIPAL_SUBFIELDS
        ):
            if (_principal_witness(m) is None) != (self.verdict == PRIMITIVE):
                return False
        return True

    def to_json(self):
        return {
            "verdict": self.verdict,
            "method": self.method,
            "modulus": self.modulus.to_json(),
            "witness": self.witness.to_json() if self.witness else None,
        }

    @classmethod
    def from_json(cls, data) -> "PrimitivityCertificate":
        modulus = RatPolynomial.from_json(data["modulus"])
        witness = (
            SubfieldWitness.from_json(data["witness"], modulus)
            if data.get("witness")
            else None
        )
        return cls(
            verdict=data["verdict"],
            method=data["method"],
            modulus=modulus,
            witness=witness,
        )


def resolvent_cubic(q: RatPolynomial) -> RatPolynomial:
    """Cubic resolvent of a monic quartic x^4 + p x^3 + q x^2 + r x + s.

    Its rational roots detect quartic fields with a quadratic subfield.
    """
    if q.degree != 4 or not q.is_monic():
        raise InvalidInput("resolvent cubic needs a monic quartic")
    p3, q2, r1, s0 = q[3], q[2], q[1], q[0]
    return RatPolynomial(
        [-(p3 * p3 * s0 - 4 * q2 * s0 + r1 * r1), p3 * r1 - 4 * s0, -q2, 1]
    )


def is_primitive_field(m: RatPolynomial, policy: str = "auto") -> PrimitivityCertificate:
    """Decide whether Q[x]/(m) admits a proper intermediate field.

    policy 'auto' uses the prime-degree shortcut and, at degree 4, the
    resolvent cubic; policy 'general' always runs principal subfields.
    """
    if m.is_zero() or not m.is_monic():
        raise InvalidInput("modulus must be monic")
    if policy not in ("auto", "general"):
        raise InvalidInput(f"unknown policy {policy!r}")
    if not factor_over_rationals(m).is_irreducible():
        raise NotAField(f"{m} is reducible over Q")
    d = m.degree
    if policy == "auto":
        if d == 1 or is_prime(d):
            return PrimitivityCertificate(
                verdict=PRIMITIVE, method=METHOD_PRIME_DEGREE, modulus=m
            )
        if d == 4:
            res = resolvent_cubic(m)
            if not any(f.degree == 1 for f, _ in factor_over_rationals(res).factors):
                return PrimitivityCertificate(
                    verdict=PRIMITIVE, method=METHOD_RESOLVENT_CUBIC, modulus=m
                )
            witness = _principal_witness(m)
            if witness is None:  # pragma: no cover - resolvent root guarantees one
                raise InvalidInput("resolvent root without subfield witness")
            return PrimitivityCertificate(
                verdict=IMPRIMITIVE,
                method=METHOD_RESOLVENT_CUBIC,
                modulus=m,
                witness=witness,
            )
    witness = _principal_witness(m)
    return PrimitivityCertificate(
        verdict=PRIMITIVE if witness is None else IMPRIMITIVE,
        method=METHOD_PRINCIPAL_SUBFIELDS,
        modulus=m,
        witness=witness,
    )


def _principal_witness(m: RatPolynomial):
    """First proper principal subfield as a witness, or None."""
    L = NumberField(m, check=False)
    for e in principal_subfields(L):
        if 1 < e.degree < L.degree:
            return SubfieldWitness(
                degree=e.degree,
                generator=e.generator,
                generator_minpoly=e.generator_minpoly,
            )
    return None
