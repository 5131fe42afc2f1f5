"""Hilbert-specialization engine and density experiments.

For a nonconstant function f on the curve, each rational t gives a fiber
polynomial presenting the field of the points above t.  Sweeping t in height
order and certifying each irreducible fiber yields streams of certified
primitive points; walking coefficient boxes of a Riemann-Roch space and
classifying each function into the degenerate locus, the contracted locus,
or the primitive remainder measures the density of primitive functions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import islice, product

from .errors import (
    DegeneratePresentation,
    InvalidInput,
    OutOfTheoremRange,
    SearchBudgetExhausted,
    VerificationFailure,
)
from .exactalg import (
    RatPolynomial,
    conjugate_power_sums,
    from_power_sums,
    is_squarefree,
    rat_to_str,
)
from .hypcurve import (
    INFINITY,
    CurveFunction,
    Divisor,
    HyperellipticCurve,
    function_degree,
    riemann_roch_basis,
)
from .contract import imprimitive_locus_test
from .numfield import (
    IMPRIMITIVE,
    METHOD_FROM_SPECIALIZATION,
    PRIMITIVE,
    PrimitivityCertificate,
    _factor_or_certify,
    _trager_witness,
    coefficient_vectors,
)

# most vectors, (2H+1)^dim - 1, that an exhaustive density run classifies
MAX_EXHAUSTIVE_VECTORS = 10 ** 6


# ----------------------------------------------------------------------
# height-ordered iterators

def height_ordered_rationals():
    """Nonzero rationals by height max(|num|, den): 1, -1, 2, 1/2, -2, ..."""
    yield Fraction(1)
    yield Fraction(-1)
    h = 2
    while True:
        ks = [k for k in range(1, h) if Fraction(h, k).denominator == k]
        for k in ks:
            yield Fraction(h, k)
            yield Fraction(k, h)
        for k in ks:
            yield Fraction(-h, k)
            yield Fraction(-k, h)
        h += 1


# ----------------------------------------------------------------------
# fiber polynomials

def fiber_polynomial(curve, f: CurveFunction, t: Fraction):
    """Monic degree-d polynomial presenting the fiber field above t.

    For f = a + b*y with b != 0 this is the monic form of (t - a)^2 - b^2 h,
    whose roots are the x-coordinates of the fiber (y is recovered as
    (t - a)/b).  For b = 0 the fiber needs a primitive element x + lam*y;
    the smallest lam in 1, 2, ... giving a squarefree degree-d presentation
    wins, so that presentation is proven squarefree.
    Returns (poly, lam or None).
    """
    if f.is_zero() or f.is_constant():
        raise InvalidInput("fiber of a constant function")
    if not f.is_polynomial_form():
        raise InvalidInput("fiber polynomial expects a polynomial-form function")
    t = Fraction(t)
    d = function_degree(curve, f)
    a, b, h = f.a, f.b, curve.h
    if not b.is_zero():
        u = RatPolynomial([t]) - a
        return (u * u - b * b * h).monic(), None
    # primitive element x + lam*y, eliminating x by a resultant
    for lam in range(1, 2 * d + 1):
        ft = _eliminated_presentation(curve, a, t, lam)
        if is_squarefree(ft):
            return ft, lam
    raise DegeneratePresentation(
        f"no primitive-element presentation for t={t} within lam <= {2 * d}"
    )


def _eliminated_presentation(curve, a: RatPolynomial, t: Fraction, lam: int):
    """The monic form of Res_x(a(x) - t, (T - x)^2 - lam^2 h(x)), a
    polynomial in T of degree 2 deg a.

    Its roots are x_i + lam*y_i and x_i - lam*y_i over the roots x_i of
    a - t, with y_i^2 = h(x_i): it is read off the power sums of those roots
    times S = D^k Dh, in ints, for D the denominator of the monic p = a - t,
    Dh that of h and 2k >= deg h.  With X_i = D x_i the roots of the monic
    integral M(X) = D^n p(X / D), S x_i = D^(k-1) Dh X_i and
    (S lam y_i)^2 = lam^2 Dh sum_j (Dh h_j) D^(2k-j) X_i^j are integral.
    """
    p = (a - RatPolynomial([t])).monic()
    D, n, h = p.den, p.degree, curve.h
    k = (h.degree + 1) // 2
    M = [c * D ** (n - 1 - i) for i, c in enumerate(p.nums[:-1])] + [1]
    e = [0, D ** (k - 1) * h.den]
    w = [lam * lam * h.den * c * D ** (2 * k - j) for j, c in enumerate(h.nums)]
    sums = conjugate_power_sums(M, e, w, 2 * n)
    return from_power_sums(sums, 2 * n, D ** k * h.den)


# ----------------------------------------------------------------------
# specializations

STATUS_REDUCIBLE = "reducible"
STATUS_BRANCH_LIKE = "branch_like"
STATUS_IRREDUCIBLE = "irreducible"
STATUS_DEGENERATE = "degenerate"


@dataclass(frozen=True)
class Specialization:
    t: Fraction
    fiber_poly: RatPolynomial | None
    status: str
    factors: tuple = ()
    certificate: PrimitivityCertificate | None = None
    lam: int | None = None

    def is_primitive_point(self):
        return (
            self.status == STATUS_IRREDUCIBLE
            and self.certificate is not None
            and self.certificate.verdict == PRIMITIVE
        )

    def to_json(self):
        return {
            "t": rat_to_str(self.t),
            "fiber_poly": self.fiber_poly.to_json() if self.fiber_poly else None,
            "status": self.status,
            "factors": [[f.to_json(), m] for f, m in self.factors],
            "certificate": self.certificate.to_json() if self.certificate else None,
            "lambda": self.lam,
        }


def classify_specialization(
    curve, f: CurveFunction, t, paranoid: bool = False
) -> Specialization:
    """Fiber polynomial, irreducibility, and primitivity at one t.

    A fiber with a repeated root is branch_like.  A good prime among the
    first few of the fiber proves it squarefree, and its cycle type is the
    first that the factoring pass reads from the shared memo; only a fiber
    with no good prime there runs the rational gcd.  The rules of galois
    read the fiber's cycle types from that memo for irreducibility (Musser's
    degree test) and then for primitivity.  A b = 0 presentation
    (lam not None) is squarefree by construction and is not tested again.
    With paranoid, the verdict and witness must match the Trager route's.
    """
    t = Fraction(t)
    try:
        poly, lam = fiber_polynomial(curve, f, t)
    except DegeneratePresentation:
        return Specialization(t=t, fiber_poly=None, status=STATUS_DEGENERATE)
    if lam is None and not is_squarefree(poly):
        return Specialization(t=t, fiber_poly=poly, status=STATUS_BRANCH_LIKE)
    # poly is monic: one reading of its cycle types decides both
    # irreducibility and primitivity
    cert = _factor_or_certify(poly)
    if not isinstance(cert, PrimitivityCertificate):  # the FactorList
        return Specialization(
            t=t,
            fiber_poly=poly,
            status=STATUS_REDUCIBLE,
            factors=cert.factors,
            lam=lam,
        )
    if paranoid:
        # the Trager route alone, with none of the cycle-type, resolvent or
        # p-adic shortcuts that may have decided the certificate
        witness = _trager_witness(poly)
        verdict = PRIMITIVE if witness is None else IMPRIMITIVE
        if verdict != cert.verdict:
            raise VerificationFailure(
                f"method disagreement at t={t}: {cert.verdict} vs {verdict}"
            )
        if witness != cert.witness:
            raise VerificationFailure(f"witness disagreement at t={t}")
    return Specialization(
        t=t, fiber_poly=poly, status=STATUS_IRREDUCIBLE, certificate=cert, lam=lam
    )


@dataclass(frozen=True)
class ProspectReport:
    curve: HyperellipticCurve
    function: CurveFunction
    degree: int
    specializations: tuple
    paranoid: bool
    seed: int

    @property
    def primitive_points(self):
        return [
            (s.t, s.fiber_poly, s.certificate)
            for s in self.specializations
            if s.is_primitive_point()
        ]

    def counts(self):
        out = {
            STATUS_REDUCIBLE: 0,
            STATUS_BRANCH_LIKE: 0,
            STATUS_IRREDUCIBLE: 0,
            STATUS_DEGENERATE: 0,
            "primitive_points": 0,
        }
        for s in self.specializations:
            out[s.status] += 1
            if s.is_primitive_point():
                out["primitive_points"] += 1
        return out

    def to_json(self):
        return {
            "schema_version": 1,
            "curve": self.curve.to_json(),
            "function": self.function.to_json(),
            "degree": self.degree,
            "seed": self.seed,
            "paranoid": self.paranoid,
            "specializations": [s.to_json() for s in self.specializations],
            "primitive_points": [
                {
                    "t": rat_to_str(t),
                    "minpoly": poly.to_json(),
                    "certificate": cert.to_json(),
                }
                for t, poly, cert in self.primitive_points
            ],
            "counts": self.counts(),
        }


def prospect(
    curve,
    f: CurveFunction,
    count: int = 50,
    paranoid: bool = False,
    seed: int = 0,
) -> ProspectReport:
    """Sweep the first ``count`` height-ordered t values and classify each.
    A negative ``count`` raises InvalidInput."""
    if count < 0:
        raise InvalidInput(f"count must be >= 0, not {count}")
    d = function_degree(curve, f)
    if d < 2:
        raise InvalidInput("prospect needs a function of degree >= 2")
    ts = []
    it = height_ordered_rationals()
    for _ in range(count):
        ts.append(next(it))
    specs = [classify_specialization(curve, f, t, paranoid) for t in ts]
    return ProspectReport(
        curve=curve,
        function=f,
        degree=d,
        specializations=tuple(specs),
        paranoid=paranoid,
        seed=seed,
    )


# ----------------------------------------------------------------------
# density experiments

LOCUS_DEGREE_DEFICIENT = "degree_deficient"
LOCUS_IMPRIMITIVE = "imprimitive"
LOCUS_PRIMITIVE = "primitive"


@dataclass(frozen=True)
class DensityReport:
    divisor: Divisor
    coeff_height: int
    mode: str  # "exhaustive" | "seeded"
    sample_count: int
    seed: int | None
    counts: dict
    examples: dict = dc_field(default_factory=dict)

    @property
    def total(self):
        return sum(self.counts.values())

    def fraction(self, key) -> Fraction:
        """The share of the samples in locus ``key``; a report of no samples
        has no shares and raises InvalidInput."""
        if not self.total:
            raise InvalidInput("a report of no samples has no fractions")
        return Fraction(self.counts[key], self.total)

    def to_json(self):
        total = self.total
        return {
            "schema_version": 1,
            "divisor": self.divisor.to_json(),
            "coeff_height": self.coeff_height,
            "mode": self.mode,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "counts": dict(self.counts),
            "fractions": {
                k: rat_to_str(Fraction(v, total)) if total else None
                for k, v in self.counts.items()
            },
        }


def density_experiment(
    curve,
    D: Divisor,
    coeff_height: int,
    samples: int | None = None,
    seed: int = 0,
) -> DensityReport:
    """Classify coefficient vectors over the basis of L(D) into the three
    loci: degree below deg D, contracted (imprimitive), or primitive.

    Exhaustive mode enumerates every nonzero vector with entries in
    [-H, H], at most MAX_EXHAUSTIVE_VECTORS of them; seeded mode draws
    ``samples`` nonzero vectors uniformly.  H below 1 (whose only vector
    is zero) and a negative ``samples`` raise InvalidInput.
    Divisors whose full-degree functions can have pole shapes outside the
    locus test's scope (affine support mixed with repeated infinity)
    propagate Unsupported rather than guessing."""
    if D.degree <= 2 * curve.genus:
        raise OutOfTheoremRange("density experiment requires deg D > 2g")
    if coeff_height < 1:
        raise InvalidInput(f"coeff_height must be >= 1, not {coeff_height}")
    if samples is not None and samples < 0:
        raise InvalidInput(f"samples must be >= 0, not {samples}")
    H = coeff_height
    space = riemann_roch_basis(curve, D)
    dim = space.dimension
    counts = {LOCUS_DEGREE_DEFICIENT: 0, LOCUS_IMPRIMITIVE: 0, LOCUS_PRIMITIVE: 0}

    def classify(vec):
        f = space.combination(vec)
        if f.is_zero() or f.is_constant():
            return LOCUS_DEGREE_DEFICIENT
        if function_degree(curve, f) < D.degree:
            return LOCUS_DEGREE_DEFICIENT
        res = imprimitive_locus_test(curve, D, f)
        return LOCUS_IMPRIMITIVE if res.is_imprimitive else LOCUS_PRIMITIVE

    if samples is None:
        box = (2 * H + 1) ** dim - 1
        if box > MAX_EXHAUSTIVE_VECTORS:
            raise InvalidInput(
                f"exhaustive box of {box} vectors exceeds "
                f"{MAX_EXHAUSTIVE_VECTORS}; draw samples instead"
            )
        vectors = product(range(-H, H + 1), repeat=dim)
    else:
        rng = random.Random(seed)
        # endless draws: no tuple equals the sentinel None
        vectors = iter(lambda: tuple(rng.randint(-H, H) for _ in range(dim)), None)
    total = 0
    # the zero vector is skipped, and a draw of it does not count
    for vec in islice(filter(any, vectors), samples):
        counts[classify(vec)] += 1
        total += 1
    return DensityReport(
        divisor=D,
        coeff_height=H,
        mode="exhaustive" if samples is None else "seeded",
        sample_count=total,
        seed=None if samples is None else seed,
        counts=counts,
    )


# ----------------------------------------------------------------------
# the search pipeline

@dataclass(frozen=True)
class FunctionCertificate:
    """Primitivity of Q(f) inside the function field, certified through one
    irreducible primitive specialization (an imprimitive extension would
    force every irreducible specialization fiber to stay imprimitive)."""

    function: CurveFunction
    degree: int
    t: Fraction
    fiber_poly: RatPolynomial
    point_certificate: PrimitivityCertificate
    method: str = METHOD_FROM_SPECIALIZATION

    def verify(self, curve, strict: bool = False) -> bool:
        degree = function_degree(curve, self.function)
        if self.degree != degree or degree <= 2 * curve.genus:
            return False
        poly, _ = fiber_polynomial(curve, self.function, self.t)
        if poly != self.fiber_poly or poly.degree != degree:
            return False
        if self.point_certificate.verdict != PRIMITIVE:
            return False
        if self.point_certificate.modulus != poly:
            return False
        # also checks that poly is irreducible
        return self.point_certificate.verify(strict=strict)

    def to_json(self):
        return {
            "method": self.method,
            "function": self.function.to_json(),
            "degree": self.degree,
            "t": rat_to_str(self.t),
            "fiber_poly": self.fiber_poly.to_json(),
            "point_certificate": self.point_certificate.to_json(),
        }


def find_primitive_function(
    curve,
    d: int,
    t_budget: int = 40,
    candidate_budget: int = 200,
    paranoid: bool = False,
):
    """First height-ordered f in L(d*oo) of exact degree d that avoids the
    contracted locus and admits a certified primitive specialization.

    Requires d > 2g; raises SearchBudgetExhausted when the bounded walk
    finds nothing (which the density-1 statement makes pathological).
    """
    if d <= 2 * curve.genus:
        raise OutOfTheoremRange(f"need d > 2g = {2 * curve.genus}")
    D = Divisor([(INFINITY, d)])
    space = riemann_roch_basis(curve, D)
    tried = 0
    for vec in coefficient_vectors(space.dimension):
        if tried >= candidate_budget:
            break
        f = space.combination(vec)
        if f.is_zero() or f.is_constant():
            continue
        if function_degree(curve, f) < d:
            continue  # locus S
        tried += 1
        if imprimitive_locus_test(curve, D, f).is_imprimitive:
            continue  # locus T
        usable = 0
        for t in height_ordered_rationals():
            if usable >= t_budget:
                break
            s = classify_specialization(curve, f, t, paranoid=paranoid)
            if s.status in (STATUS_BRANCH_LIKE, STATUS_DEGENERATE):
                continue
            usable += 1
            if s.is_primitive_point():
                return f, FunctionCertificate(
                    function=f,
                    degree=d,
                    t=s.t,
                    fiber_poly=s.fiber_poly,
                    point_certificate=s.certificate,
                )
    raise SearchBudgetExhausted(
        f"no certified primitive function of degree {d} within budget"
    )
