"""Regular Moebius transformations, Blaschke products and expression trees.

Two evaluation backends live here.  The exact backend evaluates a tree
through its stem function F: C -> H(x)C, where f(x + Iy) = Re F(x + iy) +
I Im F(x + iy) and the complex unit i commutes with H.  On stems the
*-product, the regular conjugate and the *-inverse act pointwise, so every
node has a one-line stem rule and one evaluation visits each node once
(:func:`slicereg.qarray.on_slices` reads a batch of values off the stem,
and ``eval`` the value at one quaternion off one stem row, in floats).  A
Moebius factor's stem is its own rational function of z, with constants
fixed at construction (:func:`_moebius_stem`); only a Bullet, whose inner
stem is arbitrary, runs the Sp(1,1) action on stems.  The
series backend lowers the same tree to a
:class:`~slicereg.series.TaylorSeries`.  :func:`expr_to_series` reads a
tree with a sampled Cauchy certificate off the FFT of its stem on the
certified circle; each node's recursive ``to_series(order)`` rule serves
polynomial trees and the fitted route, and every series of a tree outside
those rules comes from :func:`expr_to_series`.  The rules are written in
the public *-algebra of :mod:`slicereg.series` alone: a Bullet's is the
action (f - p) * (1 - conj(p) f)^{-*} itself, refused at the threshold that
its stem applies.  Tests require the two backends to agree within the
certified truncation tail.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import qarray, series as se
from .errors import (
    NotInvertibleAtZero,
    OutsideConvergence,
    SingularDenominator,
    SingularPoint,
    SliceRegError,
)
from .quaternion import ONE, Quaternion
from .series import TaylorSeries

__all__ = [
    "FunctionExpr",
    "Const",
    "Identity",
    "Moebius",
    "StarMul",
    "StarInv",
    "Conj",
    "Bullet",
    "Sum",
    "SeriesFunc",
    "SchurChain",
    "BlaschkeProduct",
    "moebius_classical_eval",
    "eval_all",
    "expr_to_series",
    "blaschke_to_expr",
    "dieudonne_det",
    "expr_from_json",
]

_SING_TOL = 1e-13
# a Moebius map M_p is built only for |p| < _BALL_EDGE
_BALL_EDGE = 1.0 - 1e-13


def _check_ball(p: Quaternion, what="p"):
    if not abs(p) < _BALL_EDGE:  # NaN too
        raise ValueError(f"{what} must lie strictly inside the unit ball, "
                         f"|{what}| < 1 - 1e-13")


def _check_unimodular(u: Quaternion):
    if abs(abs(u) - 1.0) > 1e-12:
        raise ValueError("u must be unimodular")


def moebius_classical_eval(p: Quaternion, q: Quaternion) -> Quaternion:
    """Classical Moebius map M_p(q) = (1 - q conj(p))^{-1} (q - p).

    Computed on the components, in the order of the Quaternion arithmetic
    (1 - q * p.conj()).inverse() * (q - p), so that the result is bitwise
    that expression's and only the result is a Quaternion.
    """
    return _moebius_scaled(p, q, 1.0)


def _moebius_scaled(p: Quaternion, q: Quaternion, scale: float) -> Quaternion:
    """M_p(q) / scale for a real scale, bitwise
    ``moebius_classical_eval(p, q) / scale`` (x / 1.0 is x), built as one
    Quaternion."""
    _check_ball(p)
    a, b, c, d = q.w, q.x, q.y, q.z
    e, f, g, h = p.w, -p.x, -p.y, -p.z
    # 0.0 - t rather than -t: a zero keeps the sign that ONE - t gives it
    w = 1.0 - (a * e - b * f - c * g - d * h)
    x = 0.0 - (a * f + b * e + c * h - d * g)
    y = 0.0 - (a * g - b * h + c * e + d * f)
    z = 0.0 - (a * h + b * g - c * f + d * e)
    n2 = w * w + x * x + y * y + z * z
    if math.sqrt(n2) <= _SING_TOL:
        raise SingularDenominator(f"1 - q conj(p) vanishes at q={q!r}")
    w, x, y, z = w / n2, -x / n2, -y / n2, -z / n2
    e, f, g, h = a - p.w, b - p.x, c - p.y, d - p.z
    return Quaternion((w * e - x * f - y * g - z * h) / scale,
                      (w * f + x * e + y * h - z * g) / scale,
                      (w * g - x * h + y * e + z * f) / scale,
                      (w * h + x * g - y * f + z * e) / scale)


# -- stem rules -------------------------------------------------------


def _stem_rule(rule):
    """Build a node's ``eval_many(points, memo=None)`` from its stem rule
    ``rule(self, z, memo)``.

    Complex points z return the stem values F(z), a complex (..., 4)
    array; quaternion points q return f(q).  Rules call their children
    through ``eval_many(z, memo)`` on complex points.  A memo, when given,
    holds the stems at one point set of the nodes already evaluated there,
    keyed by node identity, so that a node that several trees share is
    evaluated once (:func:`eval_all`); without one nothing is kept.
    """
    @functools.wraps(rule)
    def eval_many(self, points, memo=None):
        if not np.iscomplexobj(points):
            return qarray.on_slices(points, lambda z: eval_many(self, z, memo))
        if memo is None:
            return rule(self, np.asarray(points), None)
        # the node is kept with its stem, so that its id is not reused
        found = memo.get(id(self))
        if found is None:
            found = memo[id(self)] = (self, rule(self, np.asarray(points),
                                                 memo))
        return found[1]
    return eval_many


def eval_all(exprs, points) -> list:
    """[e.eval_many(points) for e in exprs], with every node that the trees
    share evaluated once: one memo, local to the call, holds each node's
    stem at the points."""
    memo = {}
    return [e.eval_many(points, memo) for e in exprs]


def _memo_rows(memo, rows) -> dict:
    """The memo at a subset of its point set: every stem sliced alike by
    ``rows``, so that it still holds the stems at one point set."""
    return {key: (node, stem[rows]) for key, (node, stem) in memo.items()}


def _scalar_stem(z) -> np.ndarray:
    """The stem value z * 1."""
    out = np.zeros(np.shape(z) + (4,), dtype=complex)
    out[..., 0] = z
    return out


def _stem_inverse(F, error, node) -> np.ndarray:
    """F^{-1} = F^c / n(F), raising ``error`` where n(F) = F F^c vanishes."""
    n = qarray.qnorm2(F)
    if np.any(np.abs(n) <= _SING_TOL):
        raise error(f"{node!r} is singular on a sample")
    return qarray.qconj(F) / n[..., None]


def _moebius_constants(p: Quaternion, u: Quaternion):
    """The constants (u, v u, Re p, |Im p|^2) of :func:`_moebius_stem` for
    M_p u, with v = Im p: the Hamilton product v u is formed in floats."""
    x, v1, v2, v3 = p.components()
    u0, u1, u2, u3 = u.components()
    vu = (-v1 * u1 - v2 * u2 - v3 * u3, v1 * u0 + v2 * u3 - v3 * u2,
          v2 * u0 + v3 * u1 - v1 * u3, v3 * u0 + v1 * u2 - v2 * u1)
    return (np.array(u.components()), np.array(vu), x,
            v1 * v1 + v2 * v2 + v3 * v3)


def _moebius_stem(z, u, vu, x, y2, node, inverse=False) -> np.ndarray:
    """The stem of a Moebius factor at complex points z, from the constants
    (u, v u, x, y2) of :func:`_moebius_constants` for M_p u, p = x + v.

    As v^2 = -y2, (1 - z conj(p))^{-1} = (1 - z p) / d with d =
    n(1 - z conj(p)) = (1 - z x)^2 + z^2 y2, and (1 - z p)(z - p) = a - b v
    with a = (1 - z x)(z - x) - z y2 and b = (1 - z x) + z (z - x): the stem
    is (a u - b v u) / d.  Kept as products, a and b cancel only where their
    factors do; expanded, z (1 + p^2) - (1 + z^2) p cancels wherever
    (z - p)(1 - z p) is small against its terms.  With ``inverse`` and the
    constants of M_{conj(p)}, it is the stem (z - p)^{-1} (1 - z conj(p)) =
    (z - conj(p))(1 - z conj(p)) / n(z - p) of M_p^{-*}, n(z - p) =
    (z - x)^2 + y2.

    It refuses as StarInv(Moebius(p)) does: SingularDenominator where
    |d| <= _SING_TOL, the threshold of :func:`_stem_action`, then, for the
    inverse, SingularPoint where |n(z - p)| <= _SING_TOL |d|, that is where
    n(M_p(z)) <= _SING_TOL.  Constants stacked over a family of factors
    broadcast against z, and every step is elementwise, so that the family
    and each factor alone agree bitwise.
    """
    w, s = 1.0 - z * x, z - x
    zy2 = z * y2
    d = w * w + z * zy2
    size = np.abs(d)
    if (size <= _SING_TOL).any():
        raise SingularDenominator(f"{node!r} is singular on a sample")
    if inverse:
        d = s * s + y2
        if (np.abs(d) <= _SING_TOL * size).any():
            raise SingularPoint(f"{node!r} is singular on a sample")
    a, b = w * s - zy2, w + z * s
    return (a[..., None] * u - b[..., None] * vu) / d[..., None]


def _stem_action(F, p, node) -> np.ndarray:
    """M_p . F = (F - p)(1 - conj(p) F)^{-1} in the closed form of
    :func:`slicereg.qarray.moebius_action`, raising SingularDenominator where
    its scalar denominator d = n(1 - conj(p) F) vanishes.  p is a Quaternion
    or a real array broadcastable against F, so that one call acts with a
    family of points p on a stack of stems.
    """
    if isinstance(p, Quaternion):
        p = qarray.from_quaternion(p)
    num, d = qarray.moebius_action(F, p)
    if np.any(np.abs(d) <= _SING_TOL):
        raise SingularDenominator(f"{node!r} is singular on a sample")
    return num / d[..., None]


class FunctionExpr:
    """Base node of the expression language.

    Each node class is an ``_immutable`` dataclass, so assigning a field
    raises FrozenInstanceError.  The fields shown in its repr are its
    constructor arguments, in order, and the keys of its expression JSON,
    which the class attribute ``kind`` names (None: no JSON form).
    ``_ball_max`` is a fact of the map, kept once found: the sup |f| over
    the closed 0.95-ball that :func:`slicereg.verify.check_self_map` finds.
    """

    __slots__ = ("_ball_max",)
    kind = None

    def conjugate(self) -> "FunctionExpr":
        """Regular conjugate f^c."""
        return Conj(self)

    # -- evaluation ---------------------------------------------------

    def eval(self, q: Quaternion) -> Quaternion:
        return Quaternion(*qarray._on_slice(
            q, lambda z: self.eval_many(np.array([z]))[0]))

    def eval_many(self, points: np.ndarray, memo=None) -> np.ndarray:
        raise NotImplementedError

    def to_series(self, order=se.DEFAULT_ORDER) -> TaylorSeries:
        raise NotImplementedError

    def to_json(self):
        if self.kind is None:
            raise NotImplementedError
        return {"kind": self.kind, **{f.name: getattr(self, f.name).to_json()
                                      for f in _arguments(type(self))}}

    def __repr__(self):
        args = (repr(getattr(self, f.name)) for f in _arguments(type(self)))
        return f"{type(self).__name__}({', '.join(args)})"

    def __call__(self, q: Quaternion) -> Quaternion:
        return self.eval(q)


# a value class: frozen and slotted, compared by identity, with the repr it
# defines (a node's is FunctionExpr's)
_immutable = dataclasses.dataclass(frozen=True, eq=False, repr=False,
                                   slots=True)


@functools.cache
def _arguments(cls) -> tuple:
    """The fields that a node class shows in its repr, in order: none for a
    class that is not a dataclass."""
    if not dataclasses.is_dataclass(cls):
        return ()
    return tuple(f for f in dataclasses.fields(cls) if f.repr)


def _as_quaternion(x):
    """x, with a real number made a Quaternion."""
    return Quaternion(x) if isinstance(x, (int, float)) else x


@_immutable
class Const(FunctionExpr):
    value: Quaternion
    kind = "const"

    def __post_init__(self):
        object.__setattr__(self, "value", _as_quaternion(self.value))

    @_stem_rule
    def eval_many(self, z, memo):
        return np.full(z.shape + (4,), self.value.components(), dtype=complex)

    def to_series(self, order=se.DEFAULT_ORDER):
        return TaylorSeries.constant(self.value)


@_immutable
class Identity(FunctionExpr):
    kind = "identity"

    @_stem_rule
    def eval_many(self, z, memo):
        return _scalar_stem(z)

    def to_series(self, order=se.DEFAULT_ORDER):
        return TaylorSeries.identity()


@_immutable
class Moebius(FunctionExpr):
    """Regular Moebius transformation M_p followed by a right factor u."""

    p: Quaternion
    u: Quaternion = ONE
    _consts: tuple = dataclasses.field(init=False, repr=False)
    kind = "moebius"

    def __post_init__(self):
        object.__setattr__(self, "p", _as_quaternion(self.p))
        object.__setattr__(self, "u", _as_quaternion(self.u))
        _check_ball(self.p)
        _check_unimodular(self.u)
        object.__setattr__(self, "_consts", _moebius_constants(self.p, self.u))

    @_stem_rule
    def eval_many(self, z, memo):
        return _moebius_stem(z, *self._consts, self)

    def to_series(self, order=se.DEFAULT_ORDER):
        # a_0 = -p u and a_m = (1 - |p|^2) conj(p)^{m-1} u for m >= 1
        p = qarray.from_quaternion(self.p)
        ap = abs(self.p)
        scale = 1.0 - ap * ap
        coeffs = np.empty((order + 1, 4))
        coeffs[0] = -p
        coeffs[1:] = qarray.powers(qarray.qconj(p), order) * scale
        coeffs = qarray.qmul(coeffs, qarray.from_quaternion(self.u))
        if ap > 0.0:
            cert = (max(ap, scale / ap), ap)
        else:
            cert = (2.0, 0.5)
        return TaylorSeries(coeffs, *cert)


@_immutable
class Sum(FunctionExpr):
    """Pointwise sum."""

    left: FunctionExpr
    right: FunctionExpr
    kind = "sum"

    @_stem_rule
    def eval_many(self, z, memo):
        return self.left.eval_many(z, memo) + self.right.eval_many(z, memo)

    def to_series(self, order=se.DEFAULT_ORDER):
        return se.series_add(self.left.to_series(order), self.right.to_series(order))


@_immutable
class StarMul(FunctionExpr):
    left: FunctionExpr
    right: FunctionExpr
    kind = "star_mul"

    @_stem_rule
    def eval_many(self, z, memo):
        return qarray.qmul(self.left.eval_many(z, memo),
                           self.right.eval_many(z, memo))

    def to_series(self, order=se.DEFAULT_ORDER):
        return se.star_mul(self.left.to_series(order), self.right.to_series(order))


@_immutable
class StarInv(FunctionExpr):
    inner: FunctionExpr
    kind = "star_inv"

    @_stem_rule
    def eval_many(self, z, memo):
        return _stem_inverse(self.inner.eval_many(z, memo), SingularPoint, self)

    def to_series(self, order=se.DEFAULT_ORDER):
        return se.star_inverse(self.inner.to_series(order), order=order)


@_immutable
class Conj(FunctionExpr):
    """Regular conjugate; its stem is the quaternion conjugate of F."""

    inner: FunctionExpr
    kind = "conj"

    def conjugate(self):
        return self.inner

    @_stem_rule
    def eval_many(self, z, memo):
        return qarray.qconj(self.inner.eval_many(z, memo))

    def to_series(self, order=se.DEFAULT_ORDER):
        return se.conjugate(self.inner.to_series(order))


@_immutable
class Bullet(FunctionExpr):
    """The action M_p . f = (f - p) * (1 - conj(p) * f)^{-*} of Sp(1,1)."""

    p: Quaternion
    inner: FunctionExpr
    kind = "bullet"

    def __post_init__(self):
        object.__setattr__(self, "p", _as_quaternion(self.p))
        _check_ball(self.p)

    @_stem_rule
    def eval_many(self, z, memo):
        return _stem_action(self.inner.eval_many(z, memo), self.p, self)

    def to_series(self, order=se.DEFAULT_ORDER):
        # the action itself in the *-algebra, at the order star_inverse and
        # star_mul give: the requested one, or a truncated f's if lower
        fs = self.inner.to_series(order)
        num = se.series_add(fs, TaylorSeries.constant(-self.p))
        den = se.series_add(TaylorSeries.constant(Quaternion(1.0)), se.star_mul(
            TaylorSeries.constant(-self.p.conj()), fs))
        w = den.coeffs[0]
        if w @ w <= _SING_TOL:  # the threshold of _stem_action, on the same d
            raise NotInvertibleAtZero(f"1 - conj(p) f(0) vanishes in {self!r}")
        return se.star_mul(num, se.star_inverse(den, order=order))


@_immutable
class SeriesFunc(FunctionExpr):
    """A power series wrapped as an expression leaf.  An exact series is a
    polynomial and evaluates at any radius; a truncated one only inside its
    certified radius 1/g."""

    series: TaylorSeries
    kind = "series"

    @_stem_rule
    def eval_many(self, z, memo):
        return se.stem(self.series, z)

    def to_series(self, order=se.DEFAULT_ORDER):
        return self.series

    def to_json(self):
        return {"kind": self.kind, **self.series.to_json()}


def _left_mul_matrices(ps: np.ndarray) -> np.ndarray:
    """The (..., 4, 4) matrices L with a @ L = p a, for (..., 4) arrays p."""
    w, x, y, z = np.moveaxis(ps, -1, 0)
    return np.stack([np.stack(r, axis=-1) for r in (
        (w, x, y, z), (-x, w, z, -y), (-y, -z, w, x), (-z, y, -x, w))],
        axis=-2)


# row 4 i + j holds the components of e_i conj(e_j), so that (a_i b_j) @ it
# is a b^c: one matmul where qarray.qmul takes 28 ufunc calls
_CONJ_PRODUCT = np.array([qarray.qmul(a, qarray.qconj(b)) for a in np.eye(4)
                          for b in np.eye(4)], dtype=complex)


def _chain_singular(w):
    """Where SchurChain refuses a sample, for w = 1 - r_k z: the threshold
    each Moebius(r_k) applies to n(1 - r_k z) = w^2."""
    return np.abs(w) ** 2 <= _SING_TOL


@_immutable
class SchurChain(FunctionExpr):
    """The real-node chain f = M_{p_1}.(M_{r_1} * (M_{p_2}.(M_{r_2} * (...
    * h)))) of the Schur algorithm, as one node.

    For a real node M_r is central, so each step is linear in the pair
    (N, D) of f_{k+1} = N * D^{-*}, the action of one factor of the chain
    matrix Theta_1 ... Theta_n:

        N_k = (q - r_k) N - p_k (1 - r_k q) D,
        D_k = -conj(p_k) (q - r_k) N + (1 - r_k q) D.

    The stem runs it on point values from (N, D) = (h, 1), each step
    divided by 1 - r_k z:

        N_k = b_k N - p_k D,  D_k = D - conj(p_k) b_k N,

    with b_k the stem of M_{r_k}.  Then n(D_k) / n(D_{k+1}) is
    n(1 - conj(p_k) F), the denominator that the chain's Bullet k checks.
    A step is one 8 x 8 matmul, and f = N D^c / n(D) one more, so the stem
    takes no Hamilton product.  The monomial coefficients of Theta's
    polynomial entries sum to about prod(1 + |r_k|), while |D(z)| can be as
    small as prod |1 - r_k z| next to clustered nodes, so neither the stem
    nor the lowering works from them: to_series lowers the nested chain,
    and the circles of :func:`_cauchy_radius` locate the poles of f.
    The step matrices are formed on first use, so that building a solution
    costs no more than storing r_k, p_k and h.
    """

    nodes: tuple
    ps: tuple
    h: FunctionExpr
    _steps: tuple = dataclasses.field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(float(r) for r in self.nodes))
        object.__setattr__(self, "ps", tuple(self.ps))
        if len(self.nodes) != len(self.ps):
            raise ValueError("need one value p_k per real node r_k")
        for r in self.nodes:
            _check_ball(r, "node")
        for p in self.ps:
            _check_ball(p)

    def _chain(self) -> FunctionExpr:
        """The nested chain of Bullet, StarMul and Moebius nodes."""
        expr = self.h
        for r, p in zip(reversed(self.nodes), reversed(self.ps)):
            expr = Bullet(p, StarMul(Moebius(Quaternion(r)), expr))
        return expr

    def _step_matrices(self):
        """The nodes r_k as an array and the complex (n, 8, 8) matrices T_k
        with [b N | D] @ T_k = [b N - p_k D | D - conj(p_k) b N], formed on
        the first call."""
        if self._steps is None:
            ps = np.array([p.components() for p in self.ps]).reshape(-1, 4)
            eye = np.broadcast_to(np.eye(4), ps.shape[:1] + (4, 4))
            steps = np.block([[eye, -_left_mul_matrices(qarray.qconj(ps))],
                              [-_left_mul_matrices(ps), eye]])
            object.__setattr__(self, "_steps", (np.array(self.nodes),
                                                steps.astype(complex)))
        return self._steps

    @_stem_rule
    def eval_many(self, z, memo):
        nodes, steps = self._step_matrices()
        r = nodes.reshape((-1,) + (1,) * z.ndim)
        w = 1.0 - r * z
        if _chain_singular(w).any():
            raise SingularDenominator(f"{self!r} is singular on a sample")
        b = ((z - r) / w)[..., None]
        x = np.zeros(z.shape + (8,), dtype=complex)
        x[..., :4] = self.h.eval_many(z, memo)
        x[..., 4] = 1.0
        norms = [np.ones(z.shape)]
        for bk, step in zip(b[::-1], steps[::-1]):
            x[..., :4] *= bk
            x = x @ step
            norms.append((x[..., 4:] ** 2).sum(axis=-1))
        # n(D_k) / n(D_{k+1}) = n(1 - conj(p_k) F), what each Bullet checks
        norms = np.array(norms)
        if (np.abs(norms[1:]) <= _SING_TOL * np.abs(norms[:-1])).any():
            raise SingularDenominator(f"{self!r} is singular on a sample")
        num = (x[..., :4, None] * x[..., None, 4:]).reshape(z.shape + (16,))
        return num @ _CONJ_PRODUCT / norms[-1][..., None]

    def to_series(self, order=se.DEFAULT_ORDER):
        return self._chain().to_series(order)

    def to_json(self):
        # the nested chain, so that the interpolate output keeps its schema
        return self._chain().to_json()

    def __repr__(self):
        return (f"SchurChain({list(self.nodes)!r}, {list(self.ps)!r}, "
                f"{self.h!r})")


# Cauchy certificates: the largest radius tried, samples per circle (the
# fewest) and the most a circle takes, how many Laurent coefficients c_{-1}
# ... c_{-K} must vanish relative to the largest coefficient for F to count
# as analytic on the closed disc, the floor above which a failed Laurent part
# is read for its singularity and the margin put on the modulus read, and the
# margin on the sampled maximum M (20x the largest gap to an 8192-sample
# maximum seen on the criterion-7 and criterion-8 trees)
_CAUCHY_TOP = 3.0
_CAUCHY_SAMPLES = 256
_CAUCHY_MAX_SAMPLES = 2 ** 16
_LAURENT_TERMS = 64
_LAURENT_TOL = 1e-13
_LAURENT_FLOOR = 1e-15
_LOCATED_MARGIN = 1.02
_CAUCHY_SLACK = 0.05
# the highest order expr_to_series lowers to
_MAX_ORDER = 512


def _pole_radius(e: FunctionExpr):
    """None when e has a node other than the rational ones and exact series
    leaves (a truncated series leaf); else the smallest radius 1/|p| at which
    a Moebius factor M_p puts poles on the stem of e, or inf.  Poles under a
    StarInv or SchurChain are not counted, since those nodes can cancel
    them, and are left to the circles of :func:`_cauchy_radius` to locate;
    one counted here that a product cancels only costs a smaller R.  A
    Bullet cancels the poles of its inner node only to rounding, which
    leaves residue poles below the Laurent tolerance, so they are counted.
    """
    if isinstance(e, (Const, Identity)) or (
            isinstance(e, SeriesFunc) and e.series.exact):
        return math.inf
    if isinstance(e, Moebius):
        return 1.0 / abs(e.p) if abs(e.p) > 0.0 else math.inf
    if isinstance(e, (Sum, StarMul)):
        left, right = _pole_radius(e.left), _pole_radius(e.right)
        return None if left is None or right is None else min(left, right)
    if isinstance(e, (Conj, Bullet)):
        return _pole_radius(e.inner)
    if isinstance(e, StarInv):
        return None if _pole_radius(e.inner) is None else math.inf
    if isinstance(e, SchurChain):
        return None if _pole_radius(e.h) is None else math.inf
    return None


def _circle_spectrum(e: FunctionExpr, radius, samples):
    """((M, c, F), None) from the stem F of e at the N samples of |z| =
    radius when the circle counts, else (None, rho): M is the largest |F|
    over the samples, c the FFT of F over them, so that c_m = N R^m a_m +
    aliasing, and F the stem at the upper half circle, angles 2 pi k / N,
    k <= N / 2.

    The circle counts when F is finite at every sample, no sample is
    singular and the Laurent part c_{-1} ... c_{-K} of F vanishes relative
    to the largest coefficient; a singularity inside the circle, or aliasing
    of a slowly decaying series, shows there.  Either way the Laurent terms
    change geometrically at the ratio rho / R, with rho the modulus of the
    singularity nearest the circle: they decay from a pole inside, and the
    aliasing of a singularity outside grows towards c_{-K}.  So a failed
    Laurent part locates rho = R (|c_{-k1}| / |c_{-k0}|)^(1 / (k1 - k0))
    over the first and last of its terms above _LAURENT_FLOOR times the
    largest coefficient.  rho is None when the circle locates nothing: a
    singular or non-finite sample, norms that overflow, or one term above
    the floor.  Stems satisfy F(conj z) = conj F(z), with conj the complex
    conjugate of each component, so only the upper half circle is evaluated
    and mirrored.  A truncated series leaf that cannot reach the circle
    raises its OutsideConvergence.
    """
    half = samples // 2
    roots = np.exp(1j * np.pi * np.arange(half + 1) / half)
    try:
        with np.errstate(all="ignore"):
            F = e.eval_many(radius * roots)
    except OutsideConvergence:
        raise
    except SliceRegError:
        return None, None
    if not np.all(np.isfinite(F)):
        return None, None
    spectrum = np.fft.fft(np.concatenate([F, F[-2:0:-1].conj()]), axis=0)
    c = np.linalg.norm(spectrum, axis=1)
    top = c.max()
    if not np.isfinite(top):
        return None, None
    laurent = c[:-_LAURENT_TERMS - 1:-1]  # c_{-1} ... c_{-K}
    if np.all(laurent <= _LAURENT_TOL * top):
        return (float(np.linalg.norm(F, axis=1).max()), spectrum, F), None
    above = np.flatnonzero(laurent > _LAURENT_FLOOR * top)
    k0, k1 = int(above[0]), int(above[-1])
    if k0 == k1:
        return None, None
    return None, radius * float(laurent[k1] / laurent[k0]) ** (1 / (k1 - k0))


def _alias_free_samples(radius, singularity) -> float:
    """K + log(TOL) / log(R / rho): the fewest samples N of |z| = R for
    which the aliasing (R / rho)^(N - K) that a singularity at rho > R puts
    on the K Laurent terms stays under the tolerance; K for rho = inf."""
    return _LAURENT_TERMS - math.log(_LAURENT_TOL) / math.log(
        singularity / radius)


def _certified_circle(e: FunctionExpr, radius, samples, r_max, tail_target):
    """((n, C, c), None) when the circle |z| = R counts on N samples and
    certifies an order n below its N - K alias-free coefficients, with C =
    M (1 + slack) and c the FFT of the samples that certified; else (None,
    rho), rho from the :func:`_circle_spectrum` that failed.  When n
    reaches past the alias-free coefficients the circle is sampled once
    more at N' = 2^ceil(log2 2 (n + 1 + K)) points, a set that holds the
    first N, which must count on its own and give an n below N' - K, with
    M and n taken from it."""
    for _ in range(2):
        found, rho = _circle_spectrum(e, radius, samples)
        if found is None:
            return None, rho
        bound = found[0] * (1.0 + _CAUCHY_SLACK)
        n = _cauchy_order(bound, 1.0 / radius, r_max, tail_target)
        if n < samples - _LAURENT_TERMS:
            return (n, bound, found[1]), None
        samples = 2 ** math.ceil(math.log2(2 * (n + 1 + _LAURENT_TERMS)))
    return None, None


def _cauchy_radius(e: FunctionExpr, poles, r_max, tail_target):
    """(R, n, C, c) for the first circle whose :func:`_certified_circle`
    certifies the stem F of e to order n, or None when none does.

    One rule places every circle from rho, the nearest singularity known so
    far: R = min(_CAUCHY_TOP, max((1 + rho) / 2, ratio rho / 1.02)), with
    ratio = TOL^(1 / (_CAUCHY_SAMPLES - K)) the largest R / rho at which
    _CAUCHY_SAMPLES samples keep the aliasing (R / rho)^(N - K) that rho puts
    on the K Laurent terms under the tolerance, and 1.02 the margin put on a
    located modulus.  N is the fewest power of two, at least
    _CAUCHY_SAMPLES, that keeps that aliasing under the tolerance.  rho
    starts at poles.  A circle that fails locates the singularity nearest it
    (:func:`_circle_spectrum`), which becomes rho when it is nearer; else
    rho becomes the circle's own R.  After a circle that locates nothing,
    only circles of _CAUCHY_SAMPLES samples are tried, so a tree whose
    circles cannot be read stays cheap.  The search ends when R <= r_max, R
    >= rho or N is past the most allowed.  rho only decides which circles
    are sampled: each one certifies by its own checks.  M is a sampled
    maximum, so the Cauchy estimate |a_m| <= M R^{-m} is a sampled one.
    """
    ratio = _LAURENT_TOL ** (1 / (_CAUCHY_SAMPLES - _LAURENT_TERMS))
    rho, most = poles, _CAUCHY_MAX_SAMPLES
    while True:
        radius = min(_CAUCHY_TOP, max((1.0 + rho) / 2.0,
                                      ratio * rho / _LOCATED_MARGIN))
        if radius <= r_max or radius >= rho:
            return None
        samples = max(_CAUCHY_SAMPLES, 2 ** math.ceil(math.log2(
            _alias_free_samples(radius, rho))))
        if samples > most:
            return None
        found, located = _certified_circle(e, radius, samples, r_max,
                                           tail_target)
        if found is not None:
            return (radius,) + found
        if located is None:
            most = _CAUCHY_SAMPLES
        rho = located if located is not None and located < rho else radius


def _cauchy_order(bound, growth, r, tail_target) -> int:
    """Smallest order n >= 1 (at most _MAX_ORDER) whose tail at |q| <= r
    under |a_m| <= bound g^m, bound t^{n+1} / (1 - t) with t = g r, is
    within tail_target; _MAX_ORDER when t >= 1.  n = 1 when bound = 0
    (F = 0) or t = 0.
    """
    t = growth * r
    if t >= 1.0:
        return _MAX_ORDER
    n = np.arange(1, _MAX_ORDER + 1)
    ok = bound * t ** (n + 1) / (1.0 - t) <= tail_target
    return int(n[ok.argmax()]) if ok.any() else _MAX_ORDER


def _is_polynomial(e: FunctionExpr) -> bool:
    """True for a tree of Const, Identity and exact series leaves under Sum,
    StarMul and Conj: the trees whose to_series is exact."""
    if isinstance(e, (Const, Identity)):
        return True
    if isinstance(e, SeriesFunc):
        return e.series.exact
    if isinstance(e, (Sum, StarMul)):
        return _is_polynomial(e.left) and _is_polynomial(e.right)
    return isinstance(e, Conj) and _is_polynomial(e.inner)


def expr_to_series(e: FunctionExpr, r_max=0.95,
                   tail_target=1e-12) -> TaylorSeries:
    """Lower an expression to a series at the order its certificate asks for.

    The order n is the one :func:`_cauchy_order` gives for a certificate
    (C, g) with |a_m| <= C g^m at r_max.  A polynomial tree (Const, Identity
    and exact series leaves under Sum, StarMul and Conj) is lowered exactly
    by its own ``to_series()``.

    A tree of rational nodes and exact series leaves whose stem F counts on
    a circle |z| = R that :func:`_cauchy_radius` places gets the sampled
    Cauchy certificate (M (1 + slack), 1/R), and its coefficients are read
    off the FFT c of the N samples that counted: a_m = Re c_m / (N R^m) for
    m <= n, with |a_m| R^m <= M by construction.  The Laurent check found
    the coefficients below N - K free of aliasing, and n lies below them
    (:func:`_certified_circle`).  A circle that fails its Laurent check
    locates the singularity nearest it, which places the next circle
    between it and the unit circle.  No recursive series rule is run on
    this route.

    Any other tree takes the fitted route through its own
    ``to_series(order)``: a tree with a truncated series leaf, a quotient,
    or one whose circles locate nothing.  It is lowered once at
    DEFAULT_ORDER and is returned as it is when that meets tail_target at
    r_max; else it is lowered once more, at the order n for that lowering's
    fitted (C, g) (_MAX_ORDER when g r_max >= 1), and keeps (C, g) when its
    coefficients obey it, their own fitted certificate when they do not.
    """
    if _is_polynomial(e):
        return e.to_series()
    poles = _pole_radius(e)
    found = None if poles is None else _cauchy_radius(e, poles, r_max,
                                                      tail_target)
    if found is not None:
        radius, n, bound, spectrum = found
        scale = len(spectrum) * radius ** np.arange(n + 1)
        return TaylorSeries(spectrum[:n + 1].real / scale[:, None], bound,
                            1.0 / radius, certificate="cauchy-sampled")
    s = e.to_series(se.DEFAULT_ORDER)
    if s.exact or s.tail_bound(r_max) <= tail_target:
        return s
    bound, growth = s.coeff_bound, s.growth_rate
    s = e.to_series(_cauchy_order(bound, growth, r_max, tail_target))
    try:
        return TaylorSeries(s.coeffs, bound, growth, certificate="fitted")
    except ValueError:
        return s


# -- Moebius maps and Blaschke products -------------------------------


@_immutable
class BlaschkeProduct:
    """Finite *-product of Moebius factors times a unimodular constant."""

    factors: tuple
    u: Quaternion = ONE

    def __post_init__(self):
        factors = tuple(map(_as_quaternion, self.factors))
        if len(factors) < 1:
            raise ValueError("Blaschke product needs at least one factor")
        for f in factors:
            _check_ball(f, "factor")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "u", _as_quaternion(self.u))
        _check_unimodular(self.u)

    @property
    def degree(self) -> int:
        return len(self.factors)

    def to_expr(self) -> FunctionExpr:
        return blaschke_to_expr(self)

    def __repr__(self):
        return f"BlaschkeProduct({list(self.factors)!r}, {self.u!r})"


def blaschke_to_expr(b: BlaschkeProduct) -> FunctionExpr:
    """Left-nested M_{s_1} * ... * M_{s_k} * u chain ending in Const(u)."""
    expr: FunctionExpr = Const(b.u)
    for s in reversed(b.factors):
        expr = StarMul(Moebius(s), expr)
    return expr


def dieudonne_det(a: Quaternion, b: Quaternion, c: Quaternion, d: Quaternion) -> float:
    """Dieudonne determinant of the quaternionic 2x2 matrix [[a, c], [b, d]]."""
    val = (a.abs2() * d.abs2() + b.abs2() * c.abs2()
           - 2.0 * (b * a.conj() * c * d.conj()).re)
    return math.sqrt(max(val, 0.0))


# -- JSON -------------------------------------------------------------


# the kinds that expr_from_json builds from their fields
_KINDS = {cls.kind: cls for cls in (Const, Identity, Moebius, Sum, StarMul,
                                    StarInv, Conj, Bullet)}


def expr_from_json(d) -> FunctionExpr:
    """The expression of :meth:`FunctionExpr.to_json` data.  A bare list is
    a constant, and ``series`` and ``blaschke`` have readers of their own.
    Any other kind is built from its fields: an expression field is read
    recursively, a quaternion field with Quaternion.from_iter, and a
    missing field takes its default (KeyError when it has none)."""
    if isinstance(d, list):  # bare quaternion means a constant
        return Const(Quaternion.from_iter(d))
    kind = d["kind"]
    if kind == "series":
        return SeriesFunc(TaylorSeries.from_json(d))
    if kind == "blaschke":
        return blaschke_to_expr(BlaschkeProduct(
            [Quaternion.from_iter(f) for f in d["factors"]],
            Quaternion.from_iter(d.get("u", [1, 0, 0, 0]))))
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown expression kind {kind!r}")
    args = {}
    for f in _arguments(cls):
        if f.name in d:
            read = (expr_from_json if f.type == "FunctionExpr"
                    else Quaternion.from_iter)
            args[f.name] = read(d[f.name])
        elif f.default is dataclasses.MISSING:
            raise KeyError(f.name)
    return cls(**args)
