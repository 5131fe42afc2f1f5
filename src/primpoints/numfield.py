"""Number fields Q[x]/(m) and the primitivity engine.

A degree-d field is presented by a monic irreducible modulus; elements are
coordinate vectors in the power basis.  The module decides whether a field
has a proper intermediate subfield and emits checkable certificates: either
a witness (generator plus minimal polynomial of a proper subfield) or a
primitivity verdict obtained from the prime-degree shortcut, the resolvent
cubic (degree 4), or the principal-subfields computation, which Frobenius
cycle types mod small primes settle first when they prove the Galois group
primitive, and which a cycle type [d] hands to the p-adic route of padic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice, product
from math import isqrt, lcm

from .errors import DivisionByZero, InvalidInput, NotAField
from .exactalg import (
    POLY_X,
    RatPolynomial,
    _QUARTIC_PRIMES,
    _cycle_types,
    _divmod_list,
    _factor_list,
    _factor_squarefree_z,
    _numerators,
    _p_mod,
    _p_mul,
    _p_reduce,
    _p_residues,
    _p_squarefree_of_degree,
    _p_table,
    _p_trim,
    _p_xgcd,
    _power,
    _z_add,
    _z_mul,
    _z_sub,
    _z_trim,
    factor_over_rationals,
    from_power_sums,
    is_prime,
    is_squarefree,
    power_sums,
    rat_from_str,
    rat_to_str,
    rational_roots,
    resultant,
    squarefree_part,
)
from .linalg import in_span, nullspace
from .padic import _cyclic_subfield_bases, _rational_reconstruction


class NumberField:
    """Q[x]/(m) for a monic irreducible m; irreducibility certified on build."""

    __slots__ = ("modulus", "degree", "_red_den", "_red_powers")

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
        # x^d .. x^(2d-2) reduced mod m, as integer coordinate tuples over
        # the one denominator _red_den: with m = x^d + M / c, x^(d+k) = R_k / c^(k+1)
        c, M = modulus.den, modulus.nums[:d]
        red = [[-v for v in M]]
        for _ in range(d - 2):
            top = red[-1][-1]
            red.append([c * u - top * v for u, v in zip([0] + red[-1][:-1], M)])
        self._red_den = c ** len(red)
        self._red_powers = tuple(
            tuple(u * c ** (len(red) - 1 - k) for u in row) for k, row in enumerate(red)
        )

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

    def __bool__(self):
        return any(self.coeffs)

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
        other = self._check(other)
        return FieldElement(
            self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        other = self._check(other)
        return FieldElement(
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
        return FieldElement(L, tuple(Fraction(c, den) for c in out))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
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
        return FieldElement(
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


# ----------------------------------------------------------------------
# polynomials over a number field

class NfPolynomial:
    """Univariate polynomial with FieldElement coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs=()):
        self.field = field
        self.coeffs = tuple(_z_trim(list(coeffs)))

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
        return NfPolynomial(self.field, _z_add(self.coeffs, other.coeffs))

    def __neg__(self):
        return NfPolynomial(self.field, [-x for x in self.coeffs])

    def __sub__(self, other):
        return NfPolynomial(self.field, _z_sub(self.coeffs, other.coeffs))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return NfPolynomial(self.field, [c * other for c in self.coeffs])
        return NfPolynomial(self.field, _z_mul(self.coeffs, other.coeffs, self.field.zero))

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError
        # a monic divisor needs no inverse
        inv = None if other.lc == 1 else other.lc.inverse()
        q, r = _divmod_list(self.coeffs, other.coeffs, inv, self.field.zero)
        return NfPolynomial(self.field, q), NfPolynomial(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            raise InvalidInput("cannot normalize zero")
        if self.lc == 1:
            return self
        inv = self.lc.inverse()
        return NfPolynomial(self.field, [c * inv for c in self.coeffs])

    def derivative(self):
        return NfPolynomial(
            self.field, [i * self.coeffs[i] for i in range(1, len(self.coeffs))]
        )

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


def nf_norm(f: NfPolynomial, shift: int = 0) -> RatPolynomial:
    """Norm of f(x + shift*theta) from L[x] down to Q[x].

    With m the modulus of L = Q[y]/(m) and F(x, y) the lift of f's
    coefficients to Q[y], the norm is Res_y(m(y), F(x + shift*y, y)).  That
    is N(lc f) times the monic polynomial whose roots are beta - shift*theta_i
    over the conjugates theta_i of theta and the roots beta of the matching
    conjugate of f, and it is read off the power sums of those roots.  With
    pi_a in L the power sums of the roots of f (Newton's identities over L)
    and P_j those of m,
        S_k = sum_a C(k, a) (-shift)^(k-a) Tr(theta^(k-a) pi_a),
        Tr(theta^j c) = sum_i c_i P_(i+j),
    so no resultant and no interpolation is needed.
    """
    L = f.field
    n = f.degree
    if n < 0:
        raise InvalidInput("norm of the zero polynomial")
    unit = f.lc
    f = f.monic()
    d = L.degree
    # integral coefficients are summed as ints, far cheaper than Fractions
    m = L.modulus
    P = power_sums(m.nums if m.den == 1 else m.coeffs, n * d + d)
    pi = []
    for c in power_sums(f.coeffs, n * d + 1):
        q = c.to_poly() if isinstance(c, FieldElement) else RatPolynomial([c])
        pi.append(q.nums if q.den == 1 else q.coeffs)

    def trace(j, a):
        return sum(c * P[i + j] for i, c in enumerate(pi[a]) if c)

    norm = _composed_norm(trace, n * d, shift)
    return norm if unit == 1 else norm.scale(unit.norm())


def _cofactor_norm(m: RatPolynomial, g_q: RatPolynomial, shift: int) -> RatPolynomial:
    """nf_norm(g_q / (x - theta), shift) for a monic rational g_q that the
    modulus m divides, with no arithmetic in L.

    The roots of g_q / (x - theta_i) are those of g_q but theta_i, so
    pi_a = Q_a - theta^a with Q the power sums of g_q, and
    Tr(theta^j pi_a) = Q_a P_j - P_(j+a): the sums are
        S_k = sum_j C(k, j) (-shift)^j Q_(k-j) P_j - (1 - shift)^k P_k.
    Both polynomials are scaled by the lcm C of their denominators, so that
    every sum is a Python int, and the norm is scaled back at the end.
    """
    scale = lcm(m.den, g_q.den)
    degree = (g_q.degree - 1) * m.degree

    def scaled(p):
        """scale^n p(x / scale) for the monic p of degree n, as ints."""
        lift = scale // p.den
        return [c * lift * scale ** (p.degree - 1 - i) for i, c in enumerate(p.nums[:-1])] + [1]

    P = power_sums(scaled(m), degree + 1)
    Q = power_sums(scaled(g_q), degree + 1)
    return _composed_norm(lambda j, a: Q[a] * P[j] - P[j + a], degree, shift, scale)


def _composed_norm(trace, degree: int, shift: int, scale: int = 1) -> RatPolynomial:
    """The monic polynomial of the given degree whose roots, times scale,
    are beta - shift*theta_i, where trace(j, a) = Tr(theta^j pi_a) and the
    pi_a are the power sums of the roots beta (the composed sum of Bostan,
    Flajolet, Salvy and Schost): its k-th power sum is
    sum_a C(k, a) (-shift)^(k-a) trace(k - a, a)."""
    sums = [degree]
    for k in range(1, degree + 1):
        acc, binom, power = 0, 1, 1
        for a in range(k, -1, -1):
            acc += binom * power * trace(k - a, a)
            binom = binom * a // (k - a + 1)
            power *= -shift
        sums.append(acc)
    return from_power_sums(sums, degree, scale)


def _squarefree_norm(norm_at, skip) -> tuple:
    """(s, norm_at(s)) for the first shift s, in _shift_sequence order and
    not in skip, whose norm is squarefree (is_squarefree).  The shift does
    not change the factors, which are canonical."""
    for s in _shift_sequence():
        if s not in skip:
            norm = norm_at(s)
            if is_squarefree(norm):
                return s, norm


@dataclass(frozen=True)
class NfFactorization:
    """Factorization over a number field; unit * prod(factors^mult) == input."""

    unit: FieldElement
    factors: tuple  # of (monic irreducible NfPolynomial, mult)

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

    Norm-shift method (Trager 1976): take g, the squarefree part of f, and
    an integer s for which Norm(g(x + s*theta)) = nf_norm(g, s) is
    squarefree; norms come from power sums, so each shift tried costs one
    cheap exact norm (_squarefree_norm).  Each irreducible factor G of that
    norm over Q pulls back to the irreducible factor gcd(g, G(x - s*theta))
    of g over L, computed mod primes by _pull_back, and the multiplicities
    come from dividing f by these factors.

    When f has rational coefficients and the modulus m of L divides it, as
    for every principal_subfields call, x - theta is a known factor: it is
    divided out first, and only the cofactor has its norm computed and
    factored, by _cofactor_norm with no arithmetic in L.  For m of degree d
    that norm has degree d*(d - 1), not d^2.
    """
    if f.is_zero():
        raise InvalidInput("cannot factor zero")
    L = f.field
    unit = f.lc
    monic = f.monic()
    if monic.degree == 0:
        return NfFactorization(unit=unit, factors=())
    skip = ()
    known = []
    if all(c.is_rational() for c in monic.coeffs):
        g_q = squarefree_part(RatPolynomial([c.coeffs[0] for c in monic.coeffs]))
        sqf = NfPolynomial.from_rat(L, g_q)
        if L.degree > 1:
            # shift 0 gives the norm g^d
            skip = (0,)
            if (g_q % L.modulus).is_zero():
                # the roots alpha_j + alpha_i (j != i) of the cofactor's
                # norm at -1 repeat
                known = [NfPolynomial(L, [-L.theta, L.one])]
                sqf = sqf // known[0]
                skip = (0, -1)
    else:
        sqf = monic // monic.gcd(monic.derivative())
    if known:
        norm_at = partial(_cofactor_norm, L.modulus, g_q)
    else:
        norm_at = partial(nf_norm, sqf)
    shift_used, norm = _squarefree_norm(norm_at, skip)
    # every factor of a squarefree norm is the norm of a factor over L, of
    # degree a multiple of L.degree
    fl = factor_over_rationals(norm, _degree_step=L.degree)
    pieces = [sqf] if fl.is_irreducible() else _pull_back(sqf, fl, shift_used)
    pieces = known + pieces
    if sum(h.degree for h in pieces) == monic.degree:
        # f is squarefree, and the pieces are its factors
        return NfFactorization(
            unit=unit, factors=tuple((h, 1) for h in sorted(pieces, key=_nf_sort_key))
        )
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
    return NfFactorization(unit=unit, factors=tuple(factors))


def _pull_back(g: NfPolynomial, fl, s: int) -> list:
    """The irreducible factors of the squarefree monic g over L, one for each
    irreducible factor G of its squarefree norm fl = Norm(g(x + s*theta)).

    Each is H = gcd(g, G(x - s*theta)), of degree deg G / d, except the one
    of the largest G: what is left of g once the others are divided out.  H
    is computed mod primes p (Langemyr-McCallum 1989, Encarnacion 1995):
    _gcds_mod_p runs Horner and the Euclidean gcd in (F_p[y]/m_p)[x] at
    primes where no denominator vanishes and the norm is squarefree of full
    degree mod p, and the images are combined by CRT and lifted to Q by
    rational reconstruction (Wang 1981).  A candidate h is accepted when it
    is monic, has degree deg G / d and divides g exactly; division by a
    monic h needs no inverse.

    Why an accepted h is H: both are monic factors of g.  Since the norm is
    squarefree mod p, so is m mod p, and so is g over each residue field of
    L at p, whose roots are those of g reduced mod p.  There a common root
    of g and G(x - s*theta) is the reduction of a root beta of g with
    G(beta - s*theta) = 0, because the roots of the norm stay distinct mod p;
    so the gcd mod p, computed with unit leading coefficients throughout,
    is H mod p.  The reconstruction agrees with it at every prime used.  And
    g mod p is squarefree, so two distinct monic factors of g cannot agree
    mod p: h = H.
    """
    L = g.field
    d = L.degree
    norm_factors = [G for G, _ in fl.factors]
    largest = max(norm_factors, key=lambda G: G.degree)
    # CRT images of each pending factor's coordinates, by index in fl
    images = {i: [] for i, G in enumerate(norm_factors) if G is not largest}
    modulus = 1
    pieces = []
    rest = g
    for p in _pull_back_primes():
        gcds = _gcds_mod_p(g, norm_factors, images, s, p)
        if gcds is None:
            continue
        for i, h_p in gcds.items():
            flat = [c for coeff in h_p for c in coeff + [0] * (d - len(coeff))]
            if modulus > 1:
                flat = [_crt(r, modulus, c, p) for r, c in zip(images[i], flat)]
            images[i] = flat
            coords = [_rational_reconstruction(r, modulus * p) for r in flat]
            if None in coords:
                continue
            lower = [L.element(coords[k:k + d]) for k in range(0, len(coords), d)]
            h = NfPolynomial(L, lower + [L.one])
            q, r = divmod(rest, h)
            if r.is_zero():
                pieces.append(h)
                del images[i]
                rest = q
        modulus *= p
        if not images:
            return pieces + [rest]


def _pull_back_primes():
    """Primes below 2^31, largest first."""
    p = 2 ** 31 - 1
    while True:
        if is_prime(p):
            yield p
        p -= 2


def _gcds_mod_p(g: NfPolynomial, norm_factors, wanted, s: int, p: int):
    """{i: gcd(g, G(x - s*theta)) mod p} for G = norm_factors[i], i in
    wanted, computed in (F_p[y]/m_p)[x]: each monic gcd as its coefficients
    below the leading 1, lists over F_p.  None when p divides a denominator,
    the norm (the product of norm_factors) is not squarefree of full degree
    mod p, a leading coefficient met is not a unit mod m_p, or a gcd does
    not have degree deg G / d.
    """
    L = g.field
    m_p = _p_residues(L.modulus, p)
    g_p = [_p_residues(c.to_poly(), p) for c in g.coeffs]
    Gs = [_p_residues(G, p) for G in norm_factors]
    if m_p is None or None in g_p or None in Gs:
        return None
    norm_p = [1]
    for G_p in Gs:
        norm_p = _p_mul(norm_p, G_p, p)
    if not _p_squarefree_of_degree(norm_p, sum(G.degree for G in norm_factors), p):
        return None
    g_p = [_p_trim(c, p) for c in g_p]
    n = g.degree
    rows = _p_table(m_p, p)
    shift = _p_mod([0, -s], m_p, p)  # -s*theta
    out = {}
    for i in wanted:
        # Horner for G(x - s*theta) mod g_p, which is monic; each coefficient
        # is formed in ints and reduced mod m_p once
        acc = [[]] * n
        for c in reversed(Gs[i]):
            top = acc[-1]
            acc = [
                _p_reduce(_z_add(
                    _z_sub(_z_mul(shift, acc[k]), _z_mul(top, g_p[k])),
                    acc[k - 1] if k else [c],
                ), rows, p)
                for k in range(n)
            ]
        h = _rp_gcd(g_p, acc, m_p, rows, p)
        if h is None or len(h) - 1 != norm_factors[i].degree // L.degree:
            return None
        out[i] = h[:-1]
    return out


def _rp_gcd(a, b, m_p, rows, p):
    """The monic gcd of the monic a and of b in (F_p[y]/m_p)[x], whose
    coefficients are lists over F_p reduced mod m_p, with rows the
    reduction table of m_p; None when a leading coefficient met is not a
    unit."""

    def mul(u, v):
        return _p_reduce(_z_mul(u, v), rows, p)

    inv = [1]
    b = _z_trim(list(b))
    while b:
        unit, inv, _ = _p_xgcd(b[-1], m_p, p)
        if unit != [1]:
            return None
        rem = list(a)
        while len(rem) >= len(b):
            c = mul(rem.pop(), inv)  # the top coefficient cancels
            k = len(rem) - len(b) + 1
            for j in range(len(b) - 1):
                rem[k + j] = _p_reduce(_z_sub(rem[k + j], _z_mul(c, b[j])), rows, p)
            _z_trim(rem)
        a, b = b, rem
    return [mul(c, inv) for c in a]


def _crt(r: int, modulus: int, c: int, p: int) -> int:
    """The residue mod modulus * p that is r mod modulus and c mod p."""
    return r + modulus * ((c - r) * pow(modulus, -1, p) % p)


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
    out = [_subfield_entry(L, kernel) for kernel in _principal_kernels(L)]
    out.sort(key=_entry_sort_key)
    return out


def _principal_kernels(L: NumberField) -> list:
    """For each irreducible factor g of the modulus over L, in factor order,
    the rref-canonical basis (nullspace) of its principal subfield: the
    elements p(theta) of L with p(x) = p(theta) mod g."""
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
        out.append(nullspace(rows, ncols=d))
    return out


def _subfield_entry(L: NumberField, kernel) -> PrincipalSubfield:
    """The entry for a subfield given as the rref-canonical basis that
    nullspace returns; its generator depends on the subfield alone."""
    basis = tuple(L.element(v) for v in kernel)
    gen, minpoly = _subfield_generator(L, basis)
    if len(basis) == 2:
        gen, minpoly = _canonical_quadratic(L, gen, minpoly)
    return PrincipalSubfield(
        degree=len(basis), basis=basis, generator=gen, generator_minpoly=minpoly
    )


def _entry_sort_key(e: PrincipalSubfield):
    height = max(
        (max(abs(c.numerator), c.denominator) for c in e.generator_minpoly.coeffs),
        default=0,
    )
    return (e.degree, height, e.generator_minpoly.coeffs)


# trial divisors of _squarefree_int_part stop here
_TRIAL_BOUND = 1_000_000


def _squarefree_int_part(n: int):
    """(s, n0) with n == s^2 * n0 and n0 free of square factors p^2 with
    p <= _TRIAL_BOUND.  Each p is divided out of the untried cofactor fully,
    and the search stops once that cofactor is 1, a prime, or the square of
    a prime r, which moves into s when r <= _TRIAL_BOUND, as trial division
    would move it."""
    sign = -1 if n < 0 else 1
    rest = abs(n)
    s = core = 1
    untested = True  # rest changed since it was last tested
    p = 2
    while p * p <= rest and p <= _TRIAL_BOUND:
        if untested:
            if is_prime(rest):
                break
            r = isqrt(rest)
            if r * r == rest and is_prime(r):
                if r <= _TRIAL_BOUND:
                    s, rest = s * r, 1
                break
            untested = False
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e:
            s *= p ** (e // 2)
            core *= p ** (e % 2)
            untested = True
        p += 1 if p == 2 else 2
    return s, sign * core * rest


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
        degree = _json_field(data, "degree", int)
        coeffs = _json_field(data, "generator_coeffs", list)
        L = NumberField(modulus, check=False)
        return cls(
            degree=degree,
            generator=L.element([rat_from_str(c) for c in coeffs]),
            generator_minpoly=RatPolynomial.from_json(_json_field(data, "minpoly")),
        )


def _json_field(data, key, kind=None):
    """data[key] of a certificate's JSON; InvalidInput when it is missing or,
    given a kind, not of exactly that type (so a bool is no int)."""
    if not isinstance(data, dict) or key not in data:
        raise InvalidInput(f"certificate field {key!r} is missing")
    value = data[key]
    if kind is not None and type(value) is not kind:
        raise InvalidInput(
            f"certificate field {key!r} must be a {kind.__name__}, not {type(value).__name__}"
        )
    return value


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

        The modulus must be monic and irreducible over Q, and the method must
        fit the verdict: prime_degree only proves primitivity, and
        resolvent_cubic needs a quartic whose resolvent has a rational root
        exactly when the verdict is imprimitive.  A primitive verdict by
        principal subfields carries no witness, so it is recomputed by
        _principal_witness, which accepts a Frobenius cycle type that proves
        the Galois group primitive before it runs principal subfields;
        strict=True recomputes and compares the verdict for every method.
        Principal subfields run at most once.
        """
        if self.verdict not in (PRIMITIVE, IMPRIMITIVE) or self.method not in _METHODS:
            return False
        m = self.modulus
        if not m.is_monic() or not factor_over_rationals(m).is_irreducible():
            return False
        if self.verdict == IMPRIMITIVE:
            if self.witness is None or not self.witness.verify(self.modulus):
                return False
        elif self.witness is not None:
            return False
        if self.method == METHOD_PRIME_DEGREE:
            d = m.degree
            if self.verdict == IMPRIMITIVE or (d != 1 and not is_prime(d)):
                return False
        elif self.method == METHOD_RESOLVENT_CUBIC:
            if m.degree != 4:
                return False
            if bool(rational_roots(resolvent_cubic(m))) != (self.verdict == IMPRIMITIVE):
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
        """The certificate of its JSON; a missing field, a verdict or method
        that is no string, or a witness degree that is no int raises
        InvalidInput.  Whether the values make sense is verify()'s call."""
        verdict = _json_field(data, "verdict", str)
        method = _json_field(data, "method", str)
        modulus = RatPolynomial.from_json(_json_field(data, "modulus"))
        witness = (
            SubfieldWitness.from_json(data["witness"], modulus)
            if data.get("witness")
            else None
        )
        return cls(verdict=verdict, method=method, modulus=modulus, witness=witness)


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
    resolvent-cubic certificate: a Frobenius cycle type [1, 3] proves it
    primitive, and otherwise the rational roots of the resolvent decide and
    also give the witness.  Every other field, and every field under policy
    'general', is decided by _principal_witness: Frobenius cycle types when
    they prove the Galois group primitive, p-adic subfields when one is a
    d-cycle, and otherwise principal subfields.  The method is
    principal_subfields either way, since its verdict is theirs.
    Irreducibility and these rules read the same memoized cycle types
    (_factor_or_certify).
    """
    if m.is_zero() or not m.is_monic():
        raise InvalidInput("modulus must be monic")
    if m.degree < 1:
        raise InvalidInput("modulus must have positive degree")
    if policy not in ("auto", "general"):
        raise InvalidInput(f"unknown policy {policy!r}")
    result = _factor_or_certify(m) if is_squarefree(m) else None
    if not isinstance(result, PrimitivityCertificate):
        raise NotAField(f"{m} is reducible over Q")
    if policy == "general" and result.method != METHOD_PRINCIPAL_SUBFIELDS:
        return _principal_certificate(m)
    return result


def _factor_or_certify(m: RatPolynomial):
    """The FactorList of a monic squarefree m over Q when m is reducible,
    and otherwise the PrimitivityCertificate of Q[x]/(m) that
    is_primitive_field gives under policy 'auto'.

    The cycle types of m at its good primes are read by distinct-degree
    factorization (exactalg._cycle_types, whose memo reads each prime
    once): the Musser degree test of _factor_squarefree_z, the [1, 3] rule
    of _decide_primitivity and _frobenius_primitive each walk them from the
    first good prime.  A complete split mod p runs only when m must be
    Hensel-lifted.
    """
    d = m.degree
    zc = m.nums  # m is monic, so its numerators are its primitive integer form
    if d > 1 and zc[0]:
        factors = _factor_squarefree_z(zc)
        if len(factors) > 1:
            # m is monic, so the unit is 1
            return _factor_list(Fraction(1), {RatPolynomial(f).monic(): 1 for f in factors})
    elif d != 1:
        # a constant, or divisible by x
        return factor_over_rationals(m)
    return _decide_primitivity(m)


def _decide_primitivity(m: RatPolynomial) -> PrimitivityCertificate:
    """is_primitive_field under policy 'auto' for a modulus already known
    to be monic and irreducible over Q.

    At degree 4, a cycle type [1, 3] among the first _QUARTIC_PRIMES good
    primes gives a primitive resolvent_cubic certificate with no
    rational_roots call: a Frobenius element of that type has order 3,
    while a rational root of the resolvent cubic would be a pairing of the
    roots of m fixed by Gal(m), putting Gal(m) inside a D4 of order 8,
    which has no element of order 3.  So Gal(m) is A4 or S4 and the
    resolvent has no rational root, the certificate rational_roots would
    give.  With no [1, 3] read, as for every imprimitive quartic, the
    resolvent's rational roots decide.
    """
    d = m.degree
    if d == 1 or is_prime(d):
        return PrimitivityCertificate(
            verdict=PRIMITIVE, method=METHOD_PRIME_DEGREE, modulus=m
        )
    if d == 4:
        types = islice(_cycle_types(m.nums), _QUARTIC_PRIMES)
        if any(degrees == [1, 3] for _, degrees in types):
            roots = []
        else:
            roots = rational_roots(resolvent_cubic(m))
        if not roots:
            return PrimitivityCertificate(
                verdict=PRIMITIVE, method=METHOD_RESOLVENT_CUBIC, modulus=m
            )
        return PrimitivityCertificate(
            verdict=IMPRIMITIVE,
            method=METHOD_RESOLVENT_CUBIC,
            modulus=m,
            witness=_resolvent_witness(m, roots) or _principal_witness(m),
        )
    return _principal_certificate(m)


def _principal_certificate(m: RatPolynomial) -> PrimitivityCertificate:
    """The principal_subfields certificate of an irreducible monic m, whose
    verdict and witness are _principal_witness(m)'s."""
    witness = _principal_witness(m)
    return PrimitivityCertificate(
        verdict=PRIMITIVE if witness is None else IMPRIMITIVE,
        method=METHOD_PRINCIPAL_SUBFIELDS,
        modulus=m,
        witness=witness,
    )


def _principal_witness(m: RatPolynomial):
    """First proper principal subfield as a witness, or None.

    A Frobenius cycle type that proves Gal(m) primitive answers None at
    once: a field with a primitive Galois group has no proper subfield.
    A cycle type [d] among the first _FROBENIUS_PRIMES good primes makes
    every proper subfield principal, one per degree at most, and
    padic._cyclic_subfield_bases finds them all from p-adic roots.  Only
    when neither settles it, or a p-adic candidate is neither proved nor
    ruled out, do principal subfields run (_trager_witness).  Only proper
    subfields get an entry; the least by _entry_sort_key is the first
    proper entry of principal_subfields.
    """
    if _frobenius_primitive(m):
        return None
    L = NumberField(m, check=False)
    cycles = islice(_cycle_types(m.nums), _FROBENIUS_PRIMES)
    p = next((p for p, degrees in cycles if degrees == [L.degree]), None)
    bases = None if p is None else _cyclic_subfield_bases(L, p)
    if bases is None:
        return _trager_witness(m)
    return _least_witness([_subfield_entry(L, basis) for basis in bases])


def _trager_witness(m: RatPolynomial):
    """_principal_witness(m) by the Trager route alone: the least proper
    entry of _principal_kernels, with no cycle type read."""
    L = NumberField(m, check=False)
    return _least_witness(
        [_subfield_entry(L, kernel) for kernel in _principal_kernels(L) if 1 < len(kernel) < L.degree]
    )


def _least_witness(entries):
    if not entries:
        return None
    e = min(entries, key=_entry_sort_key)
    return SubfieldWitness(
        degree=e.degree, generator=e.generator, generator_minpoly=e.generator_minpoly
    )


# good primes whose Frobenius cycle types _frobenius_primitive reads
_FROBENIUS_PRIMES = 20


def _frobenius_primitive(m: RatPolynomial) -> bool:
    """Whether the cycle types of Frobenius at the first _FROBENIUS_PRIMES
    good primes of the irreducible m prove Gal(m) primitive; False proves
    nothing.

    At a prime p not dividing the leading coefficient, with m mod p
    squarefree of full degree, the degrees of the irreducible factors of
    m mod p are the cycle type of an element of Gal(m).  Gal(m) is
    transitive, and it is primitive when
    (a) one cycle type has a cycle of prime length k > d/2: the other
        cycles are shorter, so a power of the element is a k-cycle, which
        must fix each of at most d/2 blocks and so lie inside one block of
        size at most d/2 < k; or
    (b) the cycle types with a fixed point, each with one fixed point
        removed, share no subset sum but 0 and d - 1: conjugated to fix the
        same root, these elements lie in its stabiliser, whose orbits on
        the other d - 1 roots are shared subset sums, so the stabiliser is
        transitive there and Gal(m) is 2-transitive.
    """
    d = m.degree
    two_transitive = 1 | (1 << (d - 1))
    orbit_sums = (1 << d) - 1
    # m is monic, so its numerators are its primitive integer form
    for _, degrees in islice(_cycle_types(m.nums), _FROBENIUS_PRIMES):
        if any(2 * k > d and is_prime(k) for k in degrees):
            return True
        if 1 in degrees:
            cycles = list(degrees)
            cycles.remove(1)
            sums = 1
            for k in cycles:
                sums |= sums << k
            orbit_sums &= sums
            if orbit_sums == two_transitive:
                return True
    return False


def _resolvent_witness(m: RatPolynomial, roots):
    """_principal_witness(m) for an imprimitive quartic m, read off the
    rational roots of its resolvent cubic; None if a root fails its check.

    With m = x^4 + p3 x^3 + q2 x^2 + r1 x + s0 and alpha_1 = theta, a root
    t = alpha_1 alpha_2 + alpha_3 alpha_4 names a pairing of the roots of m.
    Vieta gives s = alpha_1 + alpha_2 and P = alpha_1 alpha_2 = s theta -
    theta^2 from P (p3 + 2s) = t s + r1, solved for s in L:
        s = -(p3 theta^2 + 2 (q2 - t) theta + r1) / (2 theta^2 + p3 theta + t),
    whose denominator has degree 2 < 4 and so is never 0.  The subfield is
    Q(s), with s^2 + p3 s + q2 - t = 0, or Q(P), with P^2 - t P + s0 = 0,
    when s is rational; the checked quadratic gives its entry with no
    linear algebra (_quadratic_entry).  Each root gives one quadratic
    subfield, and the least entry by _entry_sort_key is the witness, as in
    principal_subfields.
    """
    L = NumberField(m, check=False)
    p3, q2, r1, s0 = m[3], m[2], m[1], m[0]
    theta = L.theta
    entries = []
    for t in roots:
        s = -L.element([r1, 2 * (q2 - t), p3]) / L.element([t, p3, 2])
        if s.is_rational():
            g, b, c = s * theta - theta * theta, -t, s0
        else:
            g, b, c = s, p3, q2 - t
        if g.is_rational() or not (g * g + b * g + c).is_zero():
            return None
        entries.append(_quadratic_entry(L, g, b, c))
    best = min(entries, key=_entry_sort_key)
    return SubfieldWitness(
        degree=2, generator=best.generator, generator_minpoly=best.generator_minpoly
    )


def _quadratic_entry(L: NumberField, g: FieldElement, b, c) -> PrincipalSubfield:
    """_subfield_entry of Q(g) for an irrational g with g^2 + b g + c = 0.

    The rref-canonical basis of span{1, g} is {1, h}, h = (g - g_0) / g_k
    with g_k the last nonzero coordinate of g, and h is the generator that
    _subfield_generator picks from it.  Substituting g = g_k h + g_0 gives
    the minimal polynomial of h, and _canonical_quadratic normalizes both.
    """
    k = max(i for i, a in enumerate(g.coeffs) if a)
    g0, gk = g.coeffs[0], g.coeffs[k]
    h = FieldElement(L, (Fraction(0),) + tuple(a / gk for a in g.coeffs[1:]))
    minpoly = RatPolynomial([(g0 * g0 + b * g0 + c) / (gk * gk), (2 * g0 + b) / gk, 1])
    gen, minpoly = _canonical_quadratic(L, h, minpoly)
    return PrincipalSubfield(
        degree=2, basis=(L.one, h), generator=gen, generator_minpoly=minpoly
    )
