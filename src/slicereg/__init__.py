"""Slice regular self-maps of the quaternionic unit ball.

A library for the *-algebra of quaternionic power series, regular Moebius
transformations and Blaschke products, hyperbolic difference quotients with
their Schwarz-Pick-type estimates, and a constructive Nevanlinna-Pick
interpolation solver for real nodes.
"""

from .errors import (
    AmbiguousBoundary,
    DegenerateAtZero,
    InconsistentDivision,
    KindMismatch,
    NotHermitian,
    NotInvertibleAtZero,
    NotSelfMap,
    OutsideConvergence,
    RealPoint,
    SingularDenominator,
    SingularPoint,
    SliceRegError,
)
from .hyperbolic import (
    BallSpec,
    HyperbolicQuotient,
    balpha_bounds,
    delta,
    dieudonne_rhs,
    dieudonne_sup_rhs,
    goluzin_rhs,
    hyperbolic_derivative,
    hyperbolic_quotient,
    iterated_quotient,
    pseudo_ball_to_euclidean,
    rho,
)
from .interpolation import (
    HermitianQuatMatrix,
    InterpolationProblem,
    QTable,
    SolutionKind,
    build_q_table,
    build_solution,
    classify,
    pick_matrix,
    psd_check,
    slice_extend,
    two_point_solve,
)
from .moebius import (
    BlaschkeProduct,
    Bullet,
    Conj,
    Const,
    FunctionExpr,
    Identity,
    Moebius,
    SeriesFunc,
    StarInv,
    StarMul,
    Sum,
    blaschke_to_expr,
    dieudonne_det,
    expr_from_json,
    expr_to_series,
    moebius_classical_eval,
)
from .quaternion import (
    ImDecomposition,
    Quaternion,
    SimilaritySphere,
    im_decompose,
    same_sphere,
)
from .series import (
    TaylorSeries,
    conjugate,
    cullen_derivative,
    evaluate,
    evaluate_many,
    left_linear_divide,
    spherical_derivative,
    star_inverse,
    star_mul,
    symmetrize,
)
from .verify import SamplerConfig, VerificationReport, run_suite

__version__ = "1.0.0"
