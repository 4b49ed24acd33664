"""Hyperbolic geometry of the unit ball and difference quotients.

The hyperbolic difference quotient of a self-map f at p is the slice
regular function f*_p = M_p^{-*} * (M_{f(p)} . f), one expression node
(:class:`HyperbolicQuotient`) whatever f is: an expression, a series or
another quotient.  Its stem rule is the closed-form stem
(z - p)^{-1} (1 - z conj(p)) of M_p^{-*} times the action of M_{f(p)} on
the stem of f.  The rule is singular on the sphere S_p of p, a removable
singularity of f*_p; a batch the rule refuses is read from the
division-route series (:func:`quotient_series`) in the same stem pass.
The hyperbolic derivative f^h(p) = f*_p(p) needs neither: the stem of f at
the one complex point of p fixes f*_p on that whole sphere
(:func:`quotient_on_sphere`).

One value a = f(q0) decides whether a self-map f is a unimodular constant.
g = M_a . f vanishes at q0, so |g| <= m = (|q0| + r) / (1 + r |q0|) on
|q| <= r by Schwarz-Pick, and f - a = (1 - |a|^2) g * (1 + conj(a) g)^{-*}
gives |f - a| <= (1 - |a|^2) m / (1 - m) there.  Hence
|1 - |a|| <= 1e-9 (1 - m) / (1 + m) keeps f within 1e-9 of a on the ball
r = 0.6.  A quotient's input is judged at q0 = p, from the f(p) that the
quotient needs anyway; the new quotient at whichever of 0 and 1/2 lies
farther from S_p; and a series at q0 = 0, from its constant coefficient.
Building a quotient reads f once, over slice points that start at p and
hold q0, and evaluates the new node once, over the rows after p, off S_p;
the probe reads the new quotient at q0 off that pass.  Several quotients
of one f, or a chain of them, share one such pass: a caller evaluates f
once over all its points (the quotient points first, then their q0, then
its samples) and hands each quotient the memo of stems there, which moves
to the rows after each p by slicing every stem alike.  So f is read once
in all, and each quotient adds only its own node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qarray, series as se
from .errors import (
    DegenerateAtZero,
    NotSelfMap,
    OutsideConvergence,
    SingularDenominator,
    SliceRegError,
)
from .moebius import (
    FunctionExpr,
    SeriesFunc,
    _check_ball,
    _immutable,
    _memo_rows,
    _moebius_constants,
    _moebius_stem,
    _stem_action,
    _stem_inverse,
    _stem_rule,
    expr_to_series,
    moebius_classical_eval,
)
from .quaternion import ONE, Quaternion
from .series import TaylorSeries

__all__ = [
    "rho",
    "delta",
    "BallSpec",
    "pseudo_ball_to_euclidean",
    "HyperbolicQuotient",
    "hyperbolic_quotient",
    "hyperbolic_derivative",
    "quotient_on_sphere",
    "quotient_chain",
    "iterated_quotient",
    "quotient_series",
    "dieudonne_rhs",
    "dieudonne_sup_rhs",
    "goluzin_rhs",
    "balpha_bounds",
]

# a unimodular verdict keeps f within _UNIMODULAR_TOL of a constant on the
# ball |q| <= _VERDICT_RADIUS
_UNIMODULAR_TOL = 1e-9
_VERDICT_RADIUS = 0.6
# tail target for the series that f^h and a quotient off its stem rule read
_TAIL_TARGET = 1e-10


def rho(p: Quaternion, q: Quaternion) -> float:
    """Pseudo-hyperbolic distance |M_p(q)| on the unit ball."""
    if abs(p) >= 1.0 or abs(q) >= 1.0:
        raise ValueError("rho is defined for points inside the unit ball")
    return abs(moebius_classical_eval(p, q))


def delta(p: Quaternion, q: Quaternion) -> float:
    """Poincare distance atanh(rho(p, q))."""
    return math.atanh(rho(p, q))


@dataclass(frozen=True)
class BallSpec:
    """A ball in the unit ball, either pseudo-hyperbolic or Euclidean."""

    center: Quaternion
    radius: float
    kind: str = "pseudo"  # "pseudo" or "euclidean"

    def __post_init__(self):
        if self.kind not in ("pseudo", "euclidean"):
            raise ValueError("kind must be 'pseudo' or 'euclidean'")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if self.kind == "pseudo":
            if abs(self.center) >= 1.0 or not (0.0 < self.radius < 1.0):
                raise ValueError("pseudo ball needs |c0| < 1 and 0 < r0 < 1")

    def contains(self, q: Quaternion) -> bool:
        if self.kind == "pseudo":
            return rho(self.center, q) < self.radius
        return abs(q - self.center) < self.radius


def pseudo_ball_to_euclidean(b: BallSpec) -> BallSpec:
    """The pseudo-hyperbolic ball B_rho(c0, r0) as a Euclidean ball."""
    if b.kind != "pseudo":
        raise ValueError("expected a pseudo-hyperbolic BallSpec")
    c0, r0 = b.center, b.radius
    den = 1.0 - c0.abs2() * r0 * r0
    c1 = c0 * ((1.0 - r0 * r0) / den)
    r1 = r0 * (1.0 - c0.abs2()) / den
    return BallSpec(c1, r1, "euclidean")


# -- difference quotients ---------------------------------------------


def _unimodular(modulus: float, r0: float) -> bool:
    """Whether a self-map f with |f(q0)| = modulus at |q0| = r0 is a
    unimodular constant: |1 - modulus| <= _UNIMODULAR_TOL (1 - m) / (1 + m)
    with m = (r0 + r) / (1 + r r0), which keeps f within _UNIMODULAR_TOL of
    f(q0) on |q| <= r = _VERDICT_RADIUS (see the module docstring)."""
    m = (r0 + _VERDICT_RADIUS) / (1.0 + _VERDICT_RADIUS * r0)
    return abs(1.0 - modulus) <= _UNIMODULAR_TOL * (1.0 - m) / (1.0 + m)


def _probe_point(p: Quaternion) -> float:
    """The real point q0 at which a quotient f*_p is judged: whichever of 0
    and 1/2 lies farther from its S_p, 1/2 when |p| < 1/4."""
    return 0.5 if abs(p) < 0.25 else 0.0


# the probe points as quaternions, built once so that a probe builds none
_PROBES = {r0: Quaternion(r0) for r0 in (0.0, 0.5)}


def detect_unimodular_constant(f: FunctionExpr, memo=None):
    """u if the self-map f is a unimodular constant u, from one value u =
    f(q0).  A quotient f*_p is read at q0 = _probe_point(p), any other f at
    q0 = 0.  ``memo`` holds the stems at q0 of nodes already evaluated there
    (see :func:`~slicereg.moebius.eval_all`).  None when f is not one."""
    r0 = _probe_point(f.p) if isinstance(f, HyperbolicQuotient) else 0.0
    a = qarray._on_slice(_PROBES[r0],
                         lambda z: f.eval_many(np.array([z]), memo)[0])
    if _unimodular(float(np.linalg.norm(a)), r0):
        return Quaternion(*a)
    return None


def quotient_series(fs: TaylorSeries, p: Quaternion,
                    order=None) -> TaylorSeries:
    """Series of f*_p: (1 - q conj(p)) * R_{f,p} * (1 - conj(f(p)) * f)^{-*}.

    R_{f,p} solves f - f(p) = (q - p) * R at coefficient level, so the
    removable singularity of the exact form on the sphere of p is already
    cancelled and the result converges on the whole ball.  Both factors
    are built in the *-algebra, as a lowered ``Bullet`` builds its own, from
    f(p) = a_0 + p R(0), which the division checks; a truncated f is refused
    where p lies outside its certified radius.  ``order`` controls the
    truncation order of the *-inverse factor (and hence of the result).
    """
    if not fs.exact and fs.growth_rate * abs(p) >= 1.0:
        raise OutsideConvergence(f"|p| = {abs(p):.6g} outside certified "
                                 f"radius (g = {fs.growth_rate:.6g})")
    r_part = se.left_linear_divide(fs, p)
    fp = fs.coefficient(0) + p * r_part.coefficient(0)
    left = se.star_mul(TaylorSeries.linear(ONE, -p.conj()), r_part)
    den = se.series_add(TaylorSeries.constant(ONE), se.star_mul(
        TaylorSeries.constant(-fp.conj()), fs))
    return se.star_mul(left, se.star_inverse(den, order=order))


@_immutable
class HyperbolicQuotient(FunctionExpr):
    """f*_p of the expression ``base`` as one node, with the stem
    M_p^{-*}(z) (M_{f(p)} . F)(z): the closed-form stem of M_p^{-*}
    (:func:`~slicereg.moebius._moebius_stem` on the constants of
    M_{conj(p)}) times the action of M_{f(p)} on the stem F of f.  ``fp``
    is f(p), or None when f itself is a unimodular constant u, whose
    quotient is the constant u.  ``unimodular_value`` is u when f*_p is a
    unimodular constant u, else None.  Where the rule refuses a batch, on
    the singular sphere S_p or where f(p) lies next to the unit sphere,
    the whole batch is read from the division-route series, lowered so
    that its tail at max|q| is within _TAIL_TARGET where the order cap
    allows.
    """

    base: FunctionExpr
    p: Quaternion
    fp: Quaternion = field(repr=False)
    unimodular_value: Quaternion = field(default=None, repr=False)
    _consts: tuple = field(init=False, repr=False)

    def __post_init__(self):
        u, vu, x, y2 = _moebius_constants(self.p, ONE)
        # the constants of M_{conj(p)}, whose imaginary part is -v
        object.__setattr__(self, "_consts", (u, -vu, x, y2))

    @property
    def is_unimodular_constant(self) -> bool:
        return self.unimodular_value is not None

    @_stem_rule
    def eval_many(self, z, memo):
        if self.fp is None:
            return np.full(z.shape + (4,), self.unimodular_value.components(),
                           dtype=complex)
        try:
            left = _moebius_stem(z, *self._consts, self, inverse=True)
            return qarray.qmul(left, _stem_action(self.base.eval_many(z, memo),
                                                  self.fp, self))
        except SliceRegError:
            # f*_p itself is regular where its stem rule is singular
            s = expr_to_series(self, r_max=float(np.abs(z).max()),
                               tail_target=_TAIL_TARGET)
            return se.stem(s, z)

    def eval_series(self, q: Quaternion) -> Quaternion:
        """f*_p(q) from the division-route series, lowered so that its tail
        at |q| is within _TAIL_TARGET where the order cap allows."""
        s = expr_to_series(self, r_max=abs(q), tail_target=_TAIL_TARGET)
        return se.evaluate(s, q)[0]

    def to_series(self, order=se.DEFAULT_ORDER) -> TaylorSeries:
        if self.is_unimodular_constant:
            # f*_p is u; when f is u as well, the division route would
            # invert 1 - conj(u) f = 0
            return TaylorSeries.constant(self.unimodular_value)
        return quotient_series(self.base.to_series(order), self.p,
                               order=order)


def hyperbolic_quotient(f, p: Quaternion, z=None,
                        memo=None) -> HyperbolicQuotient:
    """Build f*_p = M_p^{-*} * (M_{f(p)} . f) for a self-map f of the ball.

    f may be any FunctionExpr, a quotient included, or a TaylorSeries, which
    becomes a SeriesFunc leaf that reads f inside its certified radius
    (anywhere for an exact series).  When f(p) shows f to be a unimodular
    constant u, the quotient is u as well; else one value of the new
    quotient node decides (:func:`detect_unimodular_constant`).  Raises
    ValueError, before f is read, unless |p| < 1 - 1e-13, NotSelfMap when
    |f(p)| > 1, and SingularDenominator when f is not judged
    a unimodular constant but |f(p)| lies within 1e-13 of the unit sphere,
    where M_{f(p)} is refused.

    f is read once, over the complex slice points ``z``: the first is that
    of p, and the rest hold that of the probe point q0 (by default z is
    just these two).  The new node is evaluated once, over z[1:], the rows
    after p, and the probe reads its value at q0 off that pass.  ``memo``,
    given with z, holds the stems at z of nodes already evaluated there,
    f's among them or not (see :func:`~slicereg.moebius.eval_all`); on
    return it holds the stems at z[1:], every entry sliced alike, and that
    of the new node.
    """
    if isinstance(p, (int, float)):
        p = Quaternion(p)
    _check_ball(p)
    if isinstance(f, TaylorSeries):
        f = SeriesFunc(f)
    q0 = _probe_point(p)
    zp = p.re + 1j * p.im_norm()
    if z is None:
        z = np.array([zp, q0], dtype=complex)
        memo = None
    probe = np.flatnonzero(z[1:] == q0)[:1]
    if z[0] != zp or not len(probe):
        raise ValueError("z must start at the slice point of p and hold that "
                         f"of the probe point {q0}")
    memo = {} if memo is None else memo
    F = f.eval_many(z, memo)
    fp = Quaternion(*qarray._on_slice(p, lambda _: F[0]))
    memo.update(_memo_rows(memo, slice(1, None)))
    if _unimodular(abs(fp), abs(p)):
        return HyperbolicQuotient(f, p, None, fp)
    if abs(fp) > 1.0:
        raise NotSelfMap(f"|f(p)| = {abs(fp):.17g} > 1: f is not a self-map "
                         "of the ball")
    if abs(fp) >= 1.0 - 1e-13:
        raise SingularDenominator(
            f"|f(p)| = {abs(fp):.17g} lies {1.0 - abs(fp):.3g} inside the unit "
            "sphere: too close for M_{f(p)}, too far for a unimodular constant")
    hq = HyperbolicQuotient(f, p, fp)
    hq.eval_many(z[1:], memo)
    # the verdict is set before the node leaves this function
    object.__setattr__(hq, "unimodular_value", detect_unimodular_constant(
        hq, _memo_rows(memo, probe)))
    return hq


def quotient_on_sphere(fs: TaylorSeries, points):
    """f*_p(p) and f*_p(conj p) at every p of a (P, 4) array, in one stem pass.

    For p = x + I y the stem of f*_p at z = x + iy is
    Fh = [(1 - |p|^2) e F'(z) + (1 - z^2) ebar D] (1 - conj(f(p)) F(z))^{-1},
    where F and F' are the stems of f and of its Cullen derivative and
    D = Im F(z) / y is the spherical derivative (F'(x) at y = 0).  The
    idempotents e = (1 - I i)/2 and ebar = (1 + I i)/2 split H(x)C into the
    parts on which I acts as i and as -i: the factor R_{f,p} of the quotient
    is e f'(p) + ebar d_S f(p), and (1 - z conj(p)) is 1 - |p|^2 on e and
    1 - z^2 on ebar.  Then f*_p(p) = Re Fh + I Im Fh and
    f*_p(conj p) = Re Fh - I Im Fh.  No series of the quotient is built, so
    the accuracy is that of fs.
    """
    pts = qarray.as_qarray(points)
    _check_ball(qarray.qnorm(pts).max(initial=0.0))
    y = np.sqrt(qarray.qnorm2(pts[..., 1:]))
    z = pts[..., 0] + 1j * y
    F = se.stem(fs, z)
    # F' converges where F does; its own fitted g is not checked again
    dF = se._horner(se.cullen_derivative(fs).coeffs, z)
    # I = Im p / |Im p|; at real p any I will do, and I = 0 gives e = ebar
    real = (y == 0.0)[..., None]
    ys = np.where(real, 1.0, y[..., None])
    unit = pts.copy()
    unit[..., 0] = 0.0
    unit /= ys
    D = np.where(real, dF.real, F.imag / ys)
    fp = F.real + qarray.qmul(unit, F.imag)
    den = -qarray.qmul(qarray.qconj(fp), F)
    den[..., 0] += 1.0
    e = -0.5j * unit
    e[..., 0] = 0.5
    num = (1.0 - qarray.qnorm2(pts))[..., None] * qarray.qmul(e, dF) \
        + (1.0 - z * z)[..., None] * qarray.qmul(qarray.qconj(e), D)
    Fh = qarray.qmul(num, _stem_inverse(den, SingularDenominator,
                                        "1 - conj(f(p)) f"))
    turn = qarray.qmul(unit, Fh.imag)
    return Fh.real + turn, Fh.real - turn


def hyperbolic_derivative(f, p: Quaternion) -> Quaternion:
    """f^h(p) = f*_p(p), read off the stem of f at p.

    An expression, a quotient included, is lowered by
    :func:`~slicereg.moebius.expr_to_series` so that the tails of f and of
    its derivative at |p| are within _TAIL_TARGET where the order cap
    allows.  A unimodular constant u gives u, judged by :func:`_unimodular`
    on the constant coefficient, the value at q0 = 0.
    """
    if isinstance(p, (int, float)):
        p = Quaternion(p)
    _check_ball(p)
    # f^h reads F' at |p|: a tail within _TAIL_TARGET * (rho - |p|) on
    # |q| <= rho has, by Cauchy, a derivative within _TAIL_TARGET at |p|
    r = abs(p)
    rho = 0.5 * (1.0 + r)
    fs = f if isinstance(f, TaylorSeries) else expr_to_series(
        f, r_max=rho, tail_target=_TAIL_TARGET * (rho - r))
    a0 = fs.coefficient(0)
    if _unimodular(abs(a0), 0.0):
        return a0
    return qarray.to_quaternion(
        quotient_on_sphere(fs, qarray.from_quaternion(p))[0])


def quotient_chain(f, points, z=None, memo=None) -> list:
    """The quotients f^{1}, ..., f^{n} of the fold f^{k} = (f^{k-1})*_{p_k}.

    ``z`` and ``memo`` are as for :func:`hyperbolic_quotient`, with the
    slice points of p_1, ..., p_n first in z and their probe points among
    the rest: each link moves the memo on by its own row, so that on return
    it holds the stems at z[n:] of f and of every link.
    """
    chain = []
    for k, p in enumerate(points):
        f = hyperbolic_quotient(f, p, None if z is None else z[k:], memo)
        chain.append(f)
    if not chain:
        raise ValueError("iterated_quotient needs at least one point")
    return chain


def iterated_quotient(f, points) -> HyperbolicQuotient:
    """Fold of hyperbolic quotients f^{n} = (f^{n-1})*_{p_n}."""
    return quotient_chain(f, points)[-1]


# -- closed-form bounds -----------------------------------------------


def _scalar_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


def _in_unit_interval(x, closed=False) -> bool:
    x = np.asarray(x, dtype=float)
    return bool(np.all((x >= 0.0) & ((x <= 1.0) if closed else (x < 1.0))))


# Each bound takes scalars (Quaternion points, float moduli) or arrays of
# samples, and then answers elementwise.


def dieudonne_rhs(q0, fq0):
    """Euclidean disk guaranteed to contain f^h(q0) when f(0) = 0.

    Returns (center, radius) with center alpha^{-1} q0^{-1} f(q0) and
    radius (|q0|^2 - |f(q0)|^2) / (|q0| (1 - |f(q0)|^2)).  Quaternion
    inputs give a Quaternion and a float; (..., 4) arrays give arrays.
    """
    q, w = (qarray.from_quaternion(x) if isinstance(x, Quaternion)
            else qarray.as_qarray(x) for x in (q0, fq0))
    a0, b0 = qarray.qnorm(q), qarray.qnorm(w)
    if np.any(a0 <= 1e-13):
        raise DegenerateAtZero("bound degenerates at q0 = 0")
    if not (_in_unit_interval(a0) and _in_unit_interval(b0)):
        raise ValueError("q0 and f(q0) must lie inside the unit ball")
    alpha = (1.0 - b0 * b0) / (1.0 - a0 * a0)
    center = qarray.qmul(qarray.qinv(q), w) / np.asarray(alpha)[..., None]
    radius = (a0 * a0 - b0 * b0) / (a0 * (1.0 - b0 * b0))
    if center.ndim == 1:
        return qarray.to_quaternion(center), float(radius)
    return center, radius


def dieudonne_sup_rhs(q0abs, alpha):
    """Upper bound for |f^h(q0)|; branches at |q0| = sqrt(2) - 1."""
    if not _in_unit_interval(q0abs):
        raise ValueError("q0abs must be in [0, 1)")
    if not np.all(np.asarray(alpha) > 0.0):
        raise ValueError("alpha must be positive")
    r = np.asarray(q0abs, dtype=float)
    r2 = r * r
    with np.errstate(divide="ignore"):
        above = (1.0 + r2) ** 2 / (4.0 * r * (1.0 - r2))
    return _scalar_or_array(
        np.where(r <= math.sqrt(2.0) - 1.0, 1.0, above) / alpha)


def goluzin_rhs(dc0, q0abs):
    """Upper bound for |f^h(q0)| in terms of |d/dq f(0)| when f(0) = 0."""
    if not (_in_unit_interval(dc0, closed=True)
            and _in_unit_interval(q0abs)):
        raise ValueError("need dc0 in [0,1] and q0abs in [0,1)")
    r = np.asarray(q0abs, dtype=float)
    t = 2.0 * r / (1.0 + r * r)
    return _scalar_or_array((dc0 + t) / (1.0 + dc0 * t))


def balpha_bounds(alpha, qabs):
    """(lo, hi) with lo <= Re f^h(q) and |f^h(q)| <= hi for f(0)=0,
    f'(0) = alpha in [0, 1); also valid for f*_q(conj q)."""
    if not (_in_unit_interval(alpha) and _in_unit_interval(qabs)):
        raise ValueError("need alpha in [0,1) and qabs in [0,1)")
    r = np.asarray(qabs, dtype=float)
    lo = (alpha * r * r - 2.0 * r + alpha) / (r * r - 2.0 * alpha * r + 1.0)
    hi = (alpha * r * r + 2.0 * r + alpha) / (r * r + 2.0 * alpha * r + 1.0)
    return _scalar_or_array(lo), _scalar_or_array(hi)
