"""Genus-0 contracting morphisms and the imprimitive locus.

A contraction for an effective divisor D is a function g of degree e with
1 < e < deg D whose pullback of some divisor D' on the projective line is
exactly D.  For multiplicity-one D these are enumerated through ordered
pairs of disjoint equal-degree subdivisors (zero fiber, pole fiber), with
principality decided by the Riemann-Roch system of the pole fiber and the
pullback verified exactly.  The pullback check needs the image g(P) of each
place as a closed point of P^1; it is the squarefree part of the
characteristic polynomial of g(P) over Q, one resultant rule for split,
ramified and inert places alike.  No fiber is factored: for deg g = e the
fiber g^*(pt) has degree e * deg pt, and places over pt fill it exactly when
their degrees, times their indices, add up to that.  For totally-ramified
divisors n*oo the same locus is decided per function by exact functional
decomposition through the expansion at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import InvalidInput, PreconditionFailed, Unsupported
from .exactalg import (
    POLY_ONE,
    POLY_ZERO,
    RatPolynomial,
    _common_numerators,
    _gcd_cofactor,
    conjugate_power_sums,
    from_power_sums,
    poly_gcd,
    rat_to_str,
    squarefree_part,
)
from .hypcurve import (
    INFINITY,
    KIND_INERT,
    KIND_SPLIT,
    CurveFunction,
    Divisor,
    Place,
    _monomials_upto,
    _monomial_windows,
    function_degree,
    function_valuation,
    pole_divisor,
    riemann_roch_basis,
    _monic_at_infinity,
    _ord_u,
    _principal_function,
    _series_nth_root,
    _sqrt_lift,
)
from .linalg import in_span

# enumerate_contr0 walks pairs of subsets of supp D, exponential work in the
# number of places; larger supports are refused up front
MAX_CONTR_PLACES = 10


# ----------------------------------------------------------------------
# points of the projective line over Q

POINT_INF = ("inf",)


def point_rat(q) -> tuple:
    return ("rat", Fraction(q))


def point_closed(minpoly: RatPolynomial) -> tuple:
    if minpoly.degree == 1:
        return point_rat(-minpoly[0])
    return ("poly", minpoly.monic())


def point_degree(pt) -> int:
    if pt[0] == "poly":
        return pt[1].degree
    return 1


def point_sort_key(pt):
    if pt[0] == "inf":
        return (2, ())
    if pt[0] == "rat":
        return (0, (pt[1],))
    return (1, pt[1].coeffs)


def point_to_json(pt):
    if pt[0] == "inf":
        return "inf"
    if pt[0] == "rat":
        return rat_to_str(pt[1])
    return {"minpoly": pt[1].to_json()}


# ----------------------------------------------------------------------
# values of functions at places

def function_value_at_place(curve, f: CurveFunction, place: Place) -> tuple:
    """The image f(P) as a closed point of P^1.

    A pole maps to infinity and a zero to 0.  At infinity a unit has
    deg a = deg den with den monic, so its value is lc(a).  At an affine
    place over u, u^j (j = ord_u den) is divided out of the numerator and
    den, y is replaced by its lift mod u^(j+1) at a split place and dropped
    at a ramified one, and f(P) = e = num/d in Q[x]/(u).  At an inert place
    f(P) = e + c*ybar with c = b/d and ybar^2 = h, and c = 0 elsewhere.  The
    polynomial whose roots are e(x_i) +- c(x_i) sqrt(h(x_i)) over the roots
    x_i of u is read off its power sums (exactalg.conjugate_power_sums); it
    is the characteristic polynomial of f(P) over Q, squared where c = 0,
    and being a power of the minimal polynomial, its squarefree part is the
    point.
    """
    v = function_valuation(curve, f, place)
    if v < 0:
        return POINT_INF
    if v > 0:
        return point_rat(0)
    if place.kind == INFINITY.kind:
        return point_rat(f.a.lc)
    u = place.u
    j = _ord_u(f.den, u)
    uj = u ** j
    d = (f.den // uj) % u
    b = POLY_ZERO
    if place.kind == KIND_SPLIT:
        vk = _sqrt_lift(curve, u, place.v, j + 1)
        a = ((f.a + f.b * vk) % (uj * u)) // uj
    else:
        a = (f.a // uj) % u
        if place.kind == KIND_INERT:
            b = (f.b // uj) % u
    dinv = _gcd_cofactor(u, d)[1]
    e = a * dinv % u
    w = b * b * dinv * dinv * curve.h % u
    degree = 2 * u.degree
    coeffs = [list(q.coeffs) for q in (u.monic(), e, w)]
    sums = conjugate_power_sums(*coeffs, degree)
    return point_closed(squarefree_part(from_power_sums(sums, degree)))


# ----------------------------------------------------------------------
# composing a function with a P^1 point polynomial

def compose_point_function(curve, g: CurveFunction, pt) -> CurveFunction:
    """mu(g) for a finite point with minimal polynomial mu (or g - c)."""
    if pt[0] == "rat":
        return g - pt[1]
    return pt[1](g)


def _image_groups(curve, g: CurveFunction, places):
    """The places grouped by image, [(g(P), [P, ...])] in point order."""
    groups = {}
    for place in places:
        pt = function_value_at_place(curve, g, place)
        groups.setdefault((point_sort_key(pt), pt[0]), (pt, []))[1].append(place)
    return [group for _, group in sorted(groups.items())]


def _fills_fiber(pt, e: int, weighted) -> bool:
    """Whether the (P, e_P) pairs over pt make up g^*(pt), for deg g = e."""
    return sum(w * p.degree for p, w in weighted) == e * point_degree(pt)


# ----------------------------------------------------------------------
# contraction records

@dataclass(frozen=True)
class Contraction:
    """A degree-e map to P^1 whose pullback of target_divisor is D."""

    g: CurveFunction
    e: int
    target_divisor: tuple  # of (point, mult)
    fibers: tuple  # of (point, Divisor), the recorded pullback verification
    source_pair: tuple  # (D0, Dinf) that produced the representative

    @property
    def target_degree(self) -> int:
        return sum(m * point_degree(pt) for pt, m in self.target_divisor)

    def partition_key(self):
        return frozenset(
            frozenset(p.sort_key() for p in fib.support()) for _, fib in self.fibers
        )

    def to_json(self):
        return {
            "g": self.g.to_json(),
            "degree": self.e,
            "target_divisor": [
                {"point": point_to_json(pt), "mult": m}
                for pt, m in self.target_divisor
            ],
            "fibers": [
                {"point": point_to_json(pt), "divisor": fib.to_json()}
                for pt, fib in self.fibers
            ],
        }


@dataclass(frozen=True)
class ContractionSet:
    divisor: Divisor
    contractions: tuple

    def to_json(self):
        return {
            "divisor": self.divisor.to_json(),
            "contractions": [c.to_json() for c in self.contractions],
        }


def _divisors_of(n: int):
    return [e for e in range(2, n) if n % e == 0]


def _verify_contraction(curve, D: Divisor, g: CurveFunction, e: int, source_pair=()):
    """Check g^*(image divisor) == D exactly; return a Contraction or None.

    D has multiplicity one and deg g = e, as _principal_function ensures;
    the places of D over each image, of index 1, must fill its fiber.
    """
    fibers = []
    for pt, places in _image_groups(curve, g, D.support()):
        if not _fills_fiber(pt, e, [(p, 1) for p in places]):
            return None
        fibers.append((pt, Divisor([(p, 1) for p in places])))
    return Contraction(
        g=g,
        e=e,
        target_divisor=tuple((pt, 1) for pt, _ in fibers),
        fibers=tuple(fibers),
        source_pair=source_pair,
    )


@lru_cache(maxsize=128)
def enumerate_contr0(curve, D: Divisor) -> ContractionSet:
    """All genus-0 contraction classes of a multiplicity-one effective D.

    Ordered pairs of disjoint equal-degree subdivisors give candidate maps
    (zero fiber, pole fiber); candidates surviving exact pullback
    verification are deduplicated by their fiber partition of supp D, and
    each class keeps the representative of its lexicographically least
    zero/pole pair.  Results are memoized per (curve, D).
    """
    if not D.is_effective() or not D.is_multiplicity_one():
        raise PreconditionFailed("divisor must be effective with multiplicity one")
    places = D.support()
    if len(places) > MAX_CONTR_PLACES:
        raise InvalidInput(f"more than {MAX_CONTR_PLACES} places to contract")
    candidates = {}
    for e in _divisors_of(D.degree):
        subsets = []
        for r in range(1, min(len(places), e) + 1):
            for combo in combinations(range(len(places)), r):
                deg = sum(places[i].degree for i in combo)
                if deg == e:
                    subsets.append(frozenset(combo))
        # D0 - Dinf is principal exactly when Dinf - D0 is, so principality
        # is decided once per unordered pair, with L(Dinf) solved once per
        # subdivisor, and both orders are verified
        divisors = {s: Divisor([(places[i], 1) for i in s]) for s in subsets}
        spaces = {}
        for k, s0 in enumerate(subsets):
            for sinf in subsets[k + 1:]:
                if s0 & sinf:
                    continue
                D0, Dinf = divisors[s0], divisors[sinf]
                if sinf not in spaces:
                    spaces[sinf] = riemann_roch_basis(curve, Dinf)
                g = _principal_function(curve, D0, spaces[sinf])
                if g is None:
                    continue
                for zeros, poles, q in (
                    (D0, Dinf, g),
                    (Dinf, D0, _monic_at_infinity(g.inverse())),
                ):
                    rec = _verify_contraction(curve, D, q, e, (zeros, poles))
                    if rec is not None:
                        candidates[(zeros.sort_key(), poles.sort_key())] = rec
    # dedup by fiber partition; keep the lexicographically least source pair
    classes = {}
    for pair_key in sorted(candidates):
        rec = candidates[pair_key]
        pkey = (rec.e, rec.partition_key())
        if pkey not in classes:
            classes[pkey] = rec
    chosen = sorted(
        classes.values(),
        key=lambda c: (c.e, c.source_pair[0].sort_key(), c.source_pair[1].sort_key()),
    )
    return ContractionSet(divisor=D, contractions=tuple(chosen))


# ----------------------------------------------------------------------
# membership: does f factor through g?

def _p1_basis_functions(curve, g: CurveFunction, E):
    """Pullbacks under g of a partial-fraction basis of L(E) on P^1."""
    out = [CurveFunction(curve, POLY_ONE)]
    for pt, m in E:
        if pt[0] == "inf":
            for j in range(1, m + 1):
                out.append(g ** j)
        else:
            mu_of_g = compose_point_function(curve, g, pt)
            inv = mu_of_g.inverse()
            kdeg = 1 if pt[0] == "rat" else pt[1].degree
            for j in range(1, m + 1):
                for i in range(kdeg):
                    out.append((g ** i) * (inv ** j))
    return out


def _function_vectors(curve, funcs):
    """Coefficient vectors of the given functions in one coordinate system
    (a common polynomial denominator, monomials wide enough for everyone)."""
    common = POLY_ONE
    for q in funcs:
        common = common * (q.den // poly_gcd(common, q.den))
    pairs = []
    for q in funcs:
        mul = common // q.den
        pairs.append((q.a * mul, q.b * mul))
    g2 = 2 * curve.genus + 1
    need = 0
    for a, b in pairs:
        if not a.is_zero():
            need = max(need, 2 * a.degree)
        if not b.is_zero():
            need = max(need, 2 * b.degree + g2)
    monomials = _monomials_upto(curve, need)
    return [
        [b[i] if isy else a[i] for i, isy in monomials] for a, b in pairs
    ]


def _membership(curve, target: CurveFunction, basis) -> list | None:
    """Coordinates of target in span(basis) over Q, or None."""
    vectors = _function_vectors(curve, [target] + list(basis))
    return in_span(vectors[1:], vectors[0])


def factors_through(curve, f: CurveFunction, g) -> bool:
    """Whether f = phi(g) for a rational map phi with poles bounded by f's.

    g may be a Contraction c (with c.e = deg c.g) or a bare CurveFunction.
    Decided by exact linear algebra: f must lie in the span of pullbacks
    under g of the basis of L(E) on P^1, where E is the largest divisor with
    g^*(E) <= polediv(f).  A pole P over pt has index e_P = ord_P(mu_pt(g)),
    or -ord_P(g) at oo; E holds pt min(ord_P polediv(f) // e_P) times when
    the poles over pt fill its fiber, and not at all otherwise.
    """
    if isinstance(g, Contraction):
        e, g = g.e, g.g
    else:
        e = function_degree(curve, g)
    if f.is_zero() or f.is_constant():
        raise InvalidInput("f must be nonconstant")
    pd = pole_divisor(curve, f)
    E = []
    for pt, places in _image_groups(curve, g, pd.support()):
        if pt[0] == "inf":
            weighted = [(p, -function_valuation(curve, g, p)) for p in places]
        else:
            mu_of_g = compose_point_function(curve, g, pt)
            weighted = [(p, function_valuation(curve, mu_of_g, p)) for p in places]
        if _fills_fiber(pt, e, weighted):
            m = min(pd.mult(p) // w for p, w in weighted)
            if m > 0:
                E.append((pt, m))
    basis = _p1_basis_functions(curve, g, E)
    return _membership(curve, f, basis) is not None


# ----------------------------------------------------------------------
# dimension comparison (sanity bound for every contraction)

def dimension_comparison_check(curve, D: Divisor, contraction: Contraction):
    """dim P(D) versus dim P(D'); the inequality must hold strictly."""
    if D.degree <= 2 * curve.genus:
        raise InvalidInput("requires deg D > 2g")
    dim_pd = riemann_roch_basis(curve, D).dimension - 1
    dim_pdprime = contraction.target_degree
    return (dim_pd, dim_pdprime, dim_pd > dim_pdprime)


# ----------------------------------------------------------------------
# functional decomposition for totally ramified pole divisors

def decompose_totally_ramified(curve, f: CurveFunction, e: int):
    """If f = phi(g) with deg g = e and f's pole divisor n*oo, return
    (g, phi coefficients); otherwise None.

    g is pinned to L(e*oo), leading series coefficient 1 and constant term
    0, which makes it unique per e; its pole part is read off the m-th root
    of the expansion of f at infinity.  Only e coefficients of that
    expansion matter, tau^-n ... tau^(e-n-1): up to scale they are the dot
    product of f's numerators with the cached integer windows of the
    monomials of L(n*oo) (hypcurve._monomial_windows), and the root of the
    window divided by its leading term does not depend on that scale.  The
    root comes from hypcurve._series_nth_root in ints, and its pole part is
    matched fraction-free over tau^-e ... tau^-1 against the windows of
    L(e*oo).  A miss builds no Fraction, series or function; g is built
    only when nothing is left over.
    """
    if not f.is_polynomial_form():
        raise InvalidInput("decomposition expects a polynomial-form function")
    n = function_degree(curve, f)
    if n % e or not (1 < e < n):
        return None
    m = n // e
    g2 = 2 * curve.genus + 1
    den, monos = _monomial_windows(curve, e, e)
    if max(2 * i + isy * g2 for i, isy, _ in monos) != e:
        return None  # no exact-degree-e function exists (Weierstrass gap)
    _, fa, fb = _common_numerators(f.a, f.b)
    window = [0] * e
    for i, isy, row in _monomial_windows(curve, n, e)[1]:
        part = fb if isy else fa
        c = part[i] if i < len(part) else 0
        if c:
            for t, w in enumerate(row):
                if w:
                    window[t] += c * w
    # the normalized root has r_t = R[t] / d_t with d_t = (m w_0)^t t!;
    # over the one denominator up = d_(e-1) it is residual[t] / up
    step = m * window[0]
    residual = _series_nth_root(window, m, e)
    up = 1
    for t in range(e - 1, 0, -1):
        up *= step * t
        residual[t - 1] *= up
    # match the pole part of the root against the monomial windows, highest
    # pole order first, by residual <- residual * pivot - c * row with c its
    # entry at start; from start on it then stands for residual / (up *
    # scale).  The constant monomial lies outside the window.
    scale, found = 1, []
    for i, isy, row in reversed(monos):
        start = e - 2 * i - isy * g2  # the index of tau^-(pole order)
        if start == e or not residual[start]:
            continue
        c, pivot = residual[start], row[start]
        for t in range(start, e):
            residual[t] = residual[t] * pivot - c * row[t]
        scale *= pivot
        found.append((i, isy, c, scale))
    if any(residual):
        return None
    a, b = [0] * (e // 2 + 1), [0] * (e // 2 + 1)
    for i, isy, c, scale in found:
        (b if isy else a)[i] = Fraction(c * den, up * scale)
    gfun = CurveFunction(curve, RatPolynomial(a), RatPolynomial(b))
    if gfun.is_zero() or function_degree(curve, gfun) != e:
        return None
    # verify f in span{1, g, ..., g^m} exactly
    powers = []
    p = CurveFunction(curve, POLY_ONE)
    for j in range(m + 1):
        if j:
            p = p * gfun
        powers.append(p)
    coords = _membership(curve, f, powers)
    if coords is None:
        return None
    return gfun, coords


# ----------------------------------------------------------------------
# the imprimitive locus test

@dataclass(frozen=True)
class LocusTestResult:
    verdict: str  # "imprimitive" | "no_factorization"
    contraction: Contraction | None = None
    locus_s: bool = False
    note: str = ""

    @property
    def is_imprimitive(self):
        return self.verdict == "imprimitive"

    def to_json(self):
        return {
            "verdict": self.verdict,
            "locus_s": self.locus_s,
            "note": self.note,
            "contraction": self.contraction.to_json() if self.contraction else None,
        }


def imprimitive_locus_test(curve, D: Divisor, f: CurveFunction) -> LocusTestResult:
    """Does f of full degree factor through a genus-0 contraction of D?

    Functions of degree below deg D belong to the degenerate locus and are
    reported as such.  Multiplicity-one D uses the pair enumeration.  For
    pure n*oo one exact rule decides: f with f.b = 0 lies in Q[x] and factors
    through x (e = 2); otherwise each e | n with e > 2g is decided by
    decompose_totally_ramified, which is complete there for both parities.
    No e <= 2g can occur once f.b != 0: for even e, L(e*oo) lies in Q[x],
    and odd e <= 2g is a Weierstrass gap.
    """
    if f.is_zero() or f.is_constant():
        return LocusTestResult(
            verdict="no_factorization", locus_s=True, note="constant function"
        )
    deg = function_degree(curve, f)
    if deg != D.degree:
        return LocusTestResult(
            verdict="no_factorization",
            locus_s=True,
            note=f"degree {deg} below ambient {D.degree}",
        )
    if D.is_multiplicity_one():
        contrs = enumerate_contr0(curve, D)
        for c in contrs.contractions:
            if factors_through(curve, f, c):
                return LocusTestResult(verdict="imprimitive", contraction=c)
        return LocusTestResult(verdict="no_factorization")
    if len(D.entries) == 1 and D.entries[0][0] == INFINITY:
        n = D.degree
        if not f.is_polynomial_form():
            raise InvalidInput("f must lie in L(n*oo)")

        def hit(g, e):
            fibers = ((POINT_INF, Divisor([(INFINITY, e)])),)
            return LocusTestResult(
                verdict="imprimitive",
                contraction=Contraction(
                    g=g,
                    e=e,
                    target_divisor=((POINT_INF, n // e),),
                    fibers=fibers,
                    source_pair=(),
                ),
            )

        if f.b.is_zero() and n > 2:
            return hit(curve.x, 2)  # f = a(x) factors through x
        for e in _divisors_of(n):
            if e > 2 * curve.genus:
                dec = decompose_totally_ramified(curve, f, e)
                if dec is not None:
                    return hit(dec[0], e)
        return LocusTestResult(verdict="no_factorization")
    raise Unsupported(
        "locus test implemented for multiplicity-one divisors and n*oo only"
    )
