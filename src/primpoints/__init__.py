"""Exact machinery for primitive points on imaginary hyperelliptic curves.

The package builds degree-d functions from Riemann-Roch spaces on curves
y^2 = h(x) over Q, detects functions factoring through genus-0 contracting
morphisms, certifies primitivity of the resulting number fields, and emits
certified primitive points through height-ordered specialization sweeps.
No floating point is used anywhere: coefficients are exact rationals.
"""

from .errors import (
    DegeneratePresentation,
    DegreeUndefined,
    DivisionByZero,
    InvalidInput,
    LiftObstruction,
    NotAField,
    NotPrincipal,
    OutOfTheoremRange,
    PreconditionFailed,
    PrimpointsError,
    SearchBudgetExhausted,
    SingularModel,
    Unsupported,
    UnsupportedModel,
    VerificationFailure,
)
from .exactalg import (
    FactorList,
    POLY_ONE,
    POLY_X,
    POLY_ZERO,
    RatPolynomial,
    Rational,
    factor_mod_p,
    factor_over_rationals,
    hensel_lift,
    is_prime,
    is_squarefree,
    poly_gcd,
    poly_xgcd,
    rational_roots,
    resultant,
    squarefree_part,
)
from .numfield import (
    FieldElement,
    NfPolynomial,
    NumberField,
    PrimitivityCertificate,
    PrincipalSubfield,
    SubfieldWitness,
    is_primitive_field,
    nf_sqrt,
    principal_subfields,
    resolvent_cubic,
    trager_factor,
)
from .hypcurve import (
    INFINITY,
    CurveFunction,
    Divisor,
    HyperellipticCurve,
    Place,
    RRSpace,
    curve_new,
    divisor_of,
    fiber_divisor,
    function_degree,
    function_valuation,
    function_with_divisor,
    is_principal,
    places_over_x,
    pole_divisor,
    riemann_roch_basis,
    zero_divisor,
)
from .contract import (
    Contraction,
    ContractionSet,
    LocusTestResult,
    decompose_totally_ramified,
    dimension_comparison_check,
    enumerate_contr0,
    factors_through,
    imprimitive_locus_test,
)
from .prospect import (
    DensityReport,
    FunctionCertificate,
    ProspectReport,
    Specialization,
    classify_specialization,
    coefficient_vectors,
    density_experiment,
    fiber_polynomial,
    find_primitive_function,
    height_ordered_rationals,
    prospect,
)
from .cli import main, parse_divisor, parse_function_expr, parse_poly_expr

__version__ = "0.1.0"
