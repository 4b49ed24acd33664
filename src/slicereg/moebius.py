"""Regular Moebius transformations, Blaschke products and expression trees.

Two evaluation backends live here.  The exact backend evaluates a tree
through its stem function F: C -> H(x)C, where f(x + Iy) = Re F(x + iy) +
I Im F(x + iy) and the complex unit i commutes with H.  On stems the
*-product, the regular conjugate and the *-inverse act pointwise, so every
node has a one-line stem rule and one evaluation visits each node once
(:func:`slicereg.qarray.on_slices` reads the values off the stem).  The
series backend lowers the same tree to a
:class:`~slicereg.series.TaylorSeries`.  :func:`expr_to_series` reads a
tree with a sampled Cauchy certificate off the FFT of its stem on the
certified circle; each node's recursive ``to_series(order)`` rule serves
polynomial trees, the fitted route and explicit orders.  Tests require the
two backends to agree within the certified truncation tail.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import qarray, series as se
from .errors import (
    NotInvertibleAtZero,
    SingularDenominator,
    SingularPoint,
    SliceRegError,
)
from .quaternion import Quaternion
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
    "neg",
]

_SING_TOL = 1e-13


def _check_ball(p: Quaternion, what="p"):
    if abs(p) >= 1.0 - 1e-13:
        raise ValueError(f"{what} must lie strictly inside the unit ball")


def _check_unimodular(u: Quaternion):
    if abs(abs(u) - 1.0) > 1e-12:
        raise ValueError("u must be unimodular")


def moebius_classical_eval(p: Quaternion, q: Quaternion) -> Quaternion:
    """Classical Moebius map M_p(q) = (1 - q conj(p))^{-1} (q - p)."""
    _check_ball(p)
    den = Quaternion(1.0) - q * p.conj()
    if abs(den) <= _SING_TOL:
        raise SingularDenominator(f"1 - q conj(p) vanishes at q={q!r}")
    return den.inverse() * (q - p)


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
    """Base node of the expression language; immutable after construction.

    ``_probe_max`` is a fact of the map, kept once found: the largest |f|
    that :func:`slicereg.verify.check_self_map` samples.
    """

    __slots__ = ("_probe_max",)

    def conjugate(self) -> "FunctionExpr":
        """Regular conjugate f^c."""
        return Conj(self)

    # -- evaluation ---------------------------------------------------

    def eval(self, q: Quaternion) -> Quaternion:
        out = self.eval_many(qarray.from_quaternion(q, (1,)))
        return qarray.to_quaternion(out[0])

    def eval_many(self, points: np.ndarray, memo=None) -> np.ndarray:
        raise NotImplementedError

    def to_series(self, order=se.DEFAULT_ORDER) -> TaylorSeries:
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError

    def __call__(self, q: Quaternion) -> Quaternion:
        return self.eval(q)


class Const(FunctionExpr):
    __slots__ = ("value",)

    def __init__(self, value: Quaternion):
        if isinstance(value, (int, float)):
            value = Quaternion(value)
        object.__setattr__(self, "value", value)

    @_stem_rule
    def eval_many(self, z, memo):
        return np.full(z.shape + (4,), self.value.components(), dtype=complex)

    def to_series(self, order=se.DEFAULT_ORDER):
        return TaylorSeries.constant(self.value)

    def to_json(self):
        return {"kind": "const", "value": self.value.to_json()}

    def __repr__(self):
        return f"Const({self.value!r})"


class Identity(FunctionExpr):
    __slots__ = ()

    @_stem_rule
    def eval_many(self, z, memo):
        return _scalar_stem(z)

    def to_series(self, order=se.DEFAULT_ORDER):
        return TaylorSeries.identity()

    def to_json(self):
        return {"kind": "identity"}

    def __repr__(self):
        return "Identity()"


class Moebius(FunctionExpr):
    """Regular Moebius transformation M_p followed by a right factor u."""

    __slots__ = ("p", "u", "_pu")

    def __init__(self, p: Quaternion, u: Quaternion = Quaternion(1.0)):
        if isinstance(p, (int, float)):
            p = Quaternion(p)
        if isinstance(u, (int, float)):
            u = Quaternion(u)
        _check_ball(p)
        _check_unimodular(u)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "_pu", p * u)

    @_stem_rule
    def eval_many(self, z, memo):
        # (1 - z conj(p))^{-1} (z - p) u = (z u - p u)(1 - conj(p u) z u)^{-1}
        # since z commutes with H and |u| = 1: this is M_{pu} . (z u)
        u = qarray.from_quaternion(self.u)
        return _stem_action(z[..., None] * u, self._pu, self)

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

    def to_json(self):
        return {"kind": "moebius", "p": self.p.to_json(), "u": self.u.to_json()}

    def __repr__(self):
        return f"Moebius({self.p!r}, {self.u!r})"


class Sum(FunctionExpr):
    """Pointwise sum."""

    __slots__ = ("left", "right")

    def __init__(self, left: FunctionExpr, right: FunctionExpr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @_stem_rule
    def eval_many(self, z, memo):
        return self.left.eval_many(z, memo) + self.right.eval_many(z, memo)

    def to_series(self, order=se.DEFAULT_ORDER):
        return se.series_add(self.left.to_series(order), self.right.to_series(order))

    def to_json(self):
        return {"kind": "sum", "left": self.left.to_json(),
                "right": self.right.to_json()}

    def __repr__(self):
        return f"Sum({self.left!r}, {self.right!r})"


def neg(e: FunctionExpr) -> FunctionExpr:
    if isinstance(e, Const):
        return Const(-e.value)
    return StarMul(Const(Quaternion(-1.0)), e)


class StarMul(FunctionExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: FunctionExpr, right: FunctionExpr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @_stem_rule
    def eval_many(self, z, memo):
        return qarray.qmul(self.left.eval_many(z, memo),
                           self.right.eval_many(z, memo))

    def to_series(self, order=se.DEFAULT_ORDER):
        return se.star_mul(self.left.to_series(order), self.right.to_series(order))

    def to_json(self):
        return {"kind": "star_mul", "left": self.left.to_json(),
                "right": self.right.to_json()}

    def __repr__(self):
        return f"StarMul({self.left!r}, {self.right!r})"


class StarInv(FunctionExpr):
    __slots__ = ("inner",)

    def __init__(self, inner: FunctionExpr):
        object.__setattr__(self, "inner", inner)

    @_stem_rule
    def eval_many(self, z, memo):
        return _stem_inverse(self.inner.eval_many(z, memo), SingularPoint, self)

    def to_series(self, order=se.DEFAULT_ORDER):
        return se.star_inverse(self.inner.to_series(order), order=order)

    def to_json(self):
        return {"kind": "star_inv", "inner": self.inner.to_json()}

    def __repr__(self):
        return f"StarInv({self.inner!r})"


class Conj(FunctionExpr):
    """Regular conjugate; its stem is the quaternion conjugate of F."""

    __slots__ = ("inner",)

    def __init__(self, inner: FunctionExpr):
        object.__setattr__(self, "inner", inner)

    def conjugate(self):
        return self.inner

    @_stem_rule
    def eval_many(self, z, memo):
        return qarray.qconj(self.inner.eval_many(z, memo))

    def to_series(self, order=se.DEFAULT_ORDER):
        return se.conjugate(self.inner.to_series(order))

    def to_json(self):
        return {"kind": "conj", "inner": self.inner.to_json()}

    def __repr__(self):
        return f"Conj({self.inner!r})"


class Bullet(FunctionExpr):
    """The action M_p . f = (f - p) * (1 - conj(p) * f)^{-*} of Sp(1,1)."""

    __slots__ = ("p", "inner")

    def __init__(self, p: Quaternion, inner: FunctionExpr):
        if isinstance(p, (int, float)):
            p = Quaternion(p)
        _check_ball(p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "inner", inner)

    @_stem_rule
    def eval_many(self, z, memo):
        return _stem_action(self.inner.eval_many(z, memo), self.p, self)

    def to_series(self, order=se.DEFAULT_ORDER):
        # _stem_action's closed form, coefficient by coefficient (the stem
        # map is an algebra isomorphism): s = <f, p>, n(f) and
        # d = n(1 - conj(p) f) = 1 - 2s + |p|^2 n(f) are real series
        fs = self.inner.to_series(order)
        n = order if fs.exact else min(order, fs.order)
        a = se._pad(fs.coeffs, n)
        p = qarray.from_quaternion(self.p)
        w = np.array([1.0, 0.0, 0.0, 0.0]) - qarray.qmul(qarray.qconj(p), a[0])
        s, nn, p2 = a @ p, se._norm_series(a, n), float(p @ p)
        d = p2 * nn - 2.0 * s
        d[0] = w @ w  # 1 - 2 s_0 + |p|^2 n_0 without its cancellation
        if d[0] <= _SING_TOL:  # the threshold of _stem_action, on the same d
            raise NotInvertibleAtZero(f"1 - conj(p) f(0) vanishes in {self!r}")
        num = (1.0 - p2) * a + np.outer(2.0 * s - nn, p)
        num[0] -= p
        inv = se._reciprocal(d, n)
        coeffs = se._real_times(inv, num, n)
        # star_mul's certificate rule for the factors num and 1/d
        cb, gr = se._fit_certificate(coeffs)
        cn, gn = se._fit_certificate(num)
        ci, gi = se._fit_certificate(inv[:, None])
        return TaylorSeries(coeffs, max(cb, cn * ci), max(gr, gn, gi))

    def to_json(self):
        return {"kind": "bullet", "p": self.p.to_json(),
                "inner": self.inner.to_json()}

    def __repr__(self):
        return f"Bullet({self.p!r}, {self.inner!r})"


class SeriesFunc(FunctionExpr):
    """A power series wrapped as an expression leaf.  An exact series is a
    polynomial and evaluates at any radius; a truncated one only inside its
    certified radius 1/g."""

    __slots__ = ("series",)

    def __init__(self, series: TaylorSeries):
        object.__setattr__(self, "series", series)

    @_stem_rule
    def eval_many(self, z, memo):
        return se.stem(self.series, z)

    def to_series(self, order=se.DEFAULT_ORDER):
        return self.series

    def to_json(self):
        return {"kind": "series", **self.series.to_json()}

    def __repr__(self):
        return f"SeriesFunc({self.series!r})"


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
    and the polynomial D only gives the pole radius (:meth:`_root_radius`).
    The step matrices are formed on first use, so that building a solution
    costs no more than storing r_k, p_k and h.
    """

    __slots__ = ("nodes", "ps", "h", "_steps")

    def __init__(self, nodes, ps, h: FunctionExpr):
        nodes = tuple(float(r) for r in nodes)
        ps = tuple(ps)
        if len(nodes) != len(ps):
            raise ValueError("need one value p_k per real node r_k")
        for r in nodes:
            if abs(r) >= 1.0 - 1e-13:
                raise ValueError("nodes must lie strictly inside (-1, 1)")
        for p in ps:
            _check_ball(p)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "ps", ps)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "_steps", None)

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

    def _root_radius(self):
        """The smallest root modulus R0 of the real polynomial n(D) = D D^c
        when h is a constant, an exact series or a Moebius factor, with N
        and D the recurrence on coefficients from h = N * D^{-*}: (h, 1), or
        (q - p, conj(u) (1 - q conj(p))) for M_p u.  The stem is then
        rational, with poles only at those roots.  inf for any other h, or
        when n(D) is constant.  A root that N shares is no pole, and only
        costs a smaller R; next to clustered nodes the roots of n(D) are
        ill-conditioned and R0 can be far off either way, so the Laurent
        check of :func:`_cauchy_radius` guards the radius taken from it.
        """
        h, one = self.h, np.array([[1.0, 0.0, 0.0, 0.0]])
        if isinstance(h, Const):
            num, den = np.array([h.value.components()]), one
        elif isinstance(h, SeriesFunc) and h.series.exact:
            num, den = h.series.coeffs, one
        elif isinstance(h, Moebius):
            hp, ubar = (qarray.from_quaternion(x) for x in (h.p, h.u.conj()))
            num = np.stack([-hp, one[0]])
            den = np.stack([ubar, -qarray.qmul(ubar, qarray.qconj(hp))])
        else:
            return math.inf
        nodes, ps = self.nodes, self.ps
        if nodes and not num.any():
            # h = 0: the last step gives N = -p_n (1 - r_n q) and
            # D = 1 - r_n q, whose common root 1 / r_n is no pole of f
            num = np.array([(-ps[-1]).components()])
            nodes, ps = nodes[:-1], ps[:-1]
        cols = np.zeros((2, max(len(num), len(den)), 4))
        cols[0, :len(num)], cols[1, :len(den)] = num, den
        ps = np.array([p.components() for p in ps]).reshape(-1, 4)
        left = _left_mul_matrices(ps)
        left_bar = _left_mul_matrices(qarray.qconj(ps))
        for r, lp, lp_bar in zip(nodes[::-1], left[::-1], left_bar[::-1]):
            num, den = np.pad(cols, ((0, 0), (1, 1), (0, 0)))
            u = num[:-1] - r * num[1:]  # (q - r) N
            v = den[1:] - r * den[:-1]  # (1 - r q) D
            cols = np.stack([u - v @ lp, v - u @ lp_bar])
        den = cols[1]
        moduli = np.abs(np.roots(se._norm_series(den, 2 * len(den) - 2)[::-1]))
        return float(moduli.min()) if moduli.size else math.inf

    @_stem_rule
    def eval_many(self, z, memo):
        nodes, steps = self._step_matrices()
        r = nodes.reshape((-1,) + (1,) * z.ndim)
        w = 1.0 - r * z
        # the threshold each Moebius(r_k) applies to n(1 - r_k z) = w^2
        if (np.abs(w) ** 2 <= _SING_TOL).any():
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


# Cauchy certificates: radii tried largest first, samples per circle (and
# the most the root rung of _cauchy_radius takes), how many Laurent
# coefficients c_{-1} ... c_{-K} must vanish relative to the largest
# coefficient for F to count as analytic on the closed disc, and the margin
# on the sampled maximum M (20x the largest gap to an 8192-sample maximum
# seen on the criterion-7 and criterion-8 trees)
_CAUCHY_RADII = (3.0, 2.0, 1.6, 1.35, 1.2, 1.1, 1.05)
_CAUCHY_SAMPLES = 256
_CAUCHY_MAX_SAMPLES = 2 ** 16
_LAURENT_TERMS = 64
_LAURENT_TOL = 1e-13
_CAUCHY_SLACK = 0.05
# the highest order expr_to_series lowers to
_MAX_ORDER = 512


def _pole_radius(e: FunctionExpr):
    """None when e has a node other than the rational ones and exact series
    leaves (a truncated series leaf); else the smallest radius 1/|p| at which
    a Moebius factor M_p puts poles on the stem of e, or inf.  Poles under a
    Bullet or StarInv are not counted, since those nodes can cancel them; one
    counted here that a product cancels only costs a smaller R.  A
    SchurChain over a constant, an exact series or a Moebius factor has its
    poles at roots of n(D), and gives the smallest root modulus; over any
    other h it counts like a Bullet.
    """
    if isinstance(e, (Const, Identity)) or (
            isinstance(e, SeriesFunc) and e.series.exact):
        return math.inf
    if isinstance(e, Moebius):
        return 1.0 / abs(e.p) if abs(e.p) > 0.0 else math.inf
    if isinstance(e, (Sum, StarMul)):
        left, right = _pole_radius(e.left), _pole_radius(e.right)
        return None if left is None or right is None else min(left, right)
    if isinstance(e, Conj):
        return _pole_radius(e.inner)
    if isinstance(e, (StarInv, Bullet)):
        return None if _pole_radius(e.inner) is None else math.inf
    if isinstance(e, SchurChain):
        return None if _pole_radius(e.h) is None else e._root_radius()
    return None


def _circle_spectrum(e: FunctionExpr, radius, samples):
    """(M, c) from the stem F of e at the samples of |z| = radius, or None
    when the circle does not count: M is the largest |F| over the samples
    and c the FFT of F over them, so that c_m = N R^m a_m + aliasing.

    The circle counts when F is finite at every sample, no sample is
    singular and the Laurent part c_{-1} ... c_{-K} of F vanishes relative
    to the largest coefficient; a singularity inside the circle, or aliasing
    of a slowly decaying series, shows there.  Stems satisfy F(conj z) =
    conj F(z), with conj the complex conjugate of each component, so only
    the upper half circle is evaluated and mirrored.
    """
    half = samples // 2
    roots = np.exp(1j * np.pi * np.arange(half + 1) / half)
    try:
        with np.errstate(all="ignore"):
            F = e.eval_many(radius * roots)
    except SliceRegError:
        return None
    if not np.all(np.isfinite(F)):
        return None
    spectrum = np.fft.fft(np.concatenate([F, F[-2:0:-1].conj()]), axis=0)
    c = np.linalg.norm(spectrum, axis=1)
    if not (np.isfinite(c.max())
            and np.all(c[-_LAURENT_TERMS:] <= _LAURENT_TOL * c.max())):
        return None
    return float(np.linalg.norm(F, axis=1).max()), spectrum


def _cauchy_radius(e: FunctionExpr, poles, r_max):
    """(R, M, c) for each radius r_max < R < poles on which the stem F of
    e is analytic, largest first, with M and c the :func:`_circle_spectrum`
    of its samples.

    The radii are the ladder's and, for a SchurChain, whose poles are the
    roots of n(D), the root rung R = (1 + poles) / 2 in its place among
    them.  Aliasing puts about (R / poles)^(N - K) on the K Laurent terms
    of N samples, so the root rung takes the N that keeps this under the
    tolerance (at most _CAUCHY_MAX_SAMPLES).  Radii are sampled only as the
    caller asks for the next one.  M is a sampled maximum, so the Cauchy
    estimate |a_m| <= M R^{-m} is a sampled one.
    """
    rungs = [(radius, _CAUCHY_SAMPLES) for radius in _CAUCHY_RADII
             if r_max < radius < poles]
    root = (1.0 + poles) / 2.0
    if isinstance(e, SchurChain) and r_max < root < poles:
        need = _LAURENT_TERMS + math.log(_LAURENT_TOL) / math.log(root / poles)
        samples = max(_CAUCHY_SAMPLES, 2 ** math.ceil(math.log2(need)))
        if samples <= _CAUCHY_MAX_SAMPLES:
            rungs.append((root, samples))
            rungs.sort(key=lambda rung: -rung[0])
    for radius, samples in rungs:
        found = _circle_spectrum(e, radius, samples)
        if found is not None:
            yield (radius,) + found


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
    a circle |z| = R of the :func:`_cauchy_radius` ladder gets the sampled
    Cauchy certificate (M (1 + slack), 1/R), and its coefficients are read
    off the FFT c of the N samples that counted: a_m = Re c_m / (N R^m) for
    m <= n, with |a_m| R^m <= M by construction.  The Laurent check found
    the coefficients below N - K free of aliasing; when n reaches past them
    the same circle is sampled once more at N' = 2^ceil(log2 2 (n + 1 + K))
    points, a set that holds the first N.  That pass must count on its own
    and give an n below N' - K, with M and n taken from it; when it does
    not, the ladder goes on to its next radius.  No recursive series rule
    is run on this route.

    Any other tree takes the fitted route through its own
    ``to_series(order)``: it is lowered once at DEFAULT_ORDER and is
    returned as it is when that meets tail_target at r_max; else it is
    lowered once more, at the order n for that lowering's fitted (C, g)
    (_MAX_ORDER when g r_max >= 1), and keeps (C, g) when its coefficients
    obey it, their own fitted certificate when they do not.
    """
    if _is_polynomial(e):
        return e.to_series()
    poles = _pole_radius(e)
    circles = () if poles is None else _cauchy_radius(e, poles, r_max)
    for radius, m, spectrum in circles:
        bound, growth = m * (1.0 + _CAUCHY_SLACK), 1.0 / radius
        n = _cauchy_order(bound, growth, r_max, tail_target)
        if n >= len(spectrum) - _LAURENT_TERMS:
            found = _circle_spectrum(e, radius, 2 ** math.ceil(
                math.log2(2 * (n + 1 + _LAURENT_TERMS))))
            if found is None:
                continue
            m, spectrum = found
            bound = m * (1.0 + _CAUCHY_SLACK)
            n = _cauchy_order(bound, growth, r_max, tail_target)
            if n >= len(spectrum) - _LAURENT_TERMS:
                continue
        scale = len(spectrum) * radius ** np.arange(n + 1)
        return TaylorSeries(spectrum[:n + 1].real / scale[:, None], bound,
                            growth, certificate="cauchy-sampled")
    s = e.to_series(se.DEFAULT_ORDER)
    if s.exact or s.tail_bound(r_max) <= tail_target:
        return s
    bound, growth = s.coeff_bound, s.growth_rate
    s = e.to_series(_cauchy_order(bound, growth, r_max, tail_target))
    if s.exact:
        return s
    try:
        return TaylorSeries(s.coeffs, bound, growth, certificate="fitted")
    except ValueError:
        return s


# -- Moebius maps and Blaschke products -------------------------------


class BlaschkeProduct:
    """Finite *-product of Moebius factors times a unimodular constant."""

    __slots__ = ("factors", "u")

    def __init__(self, factors, u: Quaternion = Quaternion(1.0)):
        factors = tuple(Quaternion(f) if isinstance(f, (int, float)) else f
                        for f in factors)
        if len(factors) < 1:
            raise ValueError("Blaschke product needs at least one factor")
        for f in factors:
            _check_ball(f, "factor")
        if isinstance(u, (int, float)):
            u = Quaternion(u)
        _check_unimodular(u)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "u", u)

    def __setattr__(self, name, value):
        raise AttributeError("BlaschkeProduct is immutable")

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


def expr_from_json(d) -> FunctionExpr:
    if isinstance(d, list):  # bare quaternion means a constant
        return Const(Quaternion.from_iter(d))
    kind = d["kind"]
    if kind == "const":
        return Const(Quaternion.from_iter(d["value"]))
    if kind == "identity":
        return Identity()
    if kind == "moebius":
        return Moebius(Quaternion.from_iter(d["p"]),
                       Quaternion.from_iter(d.get("u", [1, 0, 0, 0])))
    if kind == "star_mul":
        return StarMul(expr_from_json(d["left"]), expr_from_json(d["right"]))
    if kind == "star_inv":
        return StarInv(expr_from_json(d["inner"]))
    if kind == "conj":
        return Conj(expr_from_json(d["inner"]))
    if kind == "bullet":
        return Bullet(Quaternion.from_iter(d["p"]), expr_from_json(d["inner"]))
    if kind == "sum":
        return Sum(expr_from_json(d["left"]), expr_from_json(d["right"]))
    if kind == "series":
        return SeriesFunc(TaylorSeries.from_json(d))
    if kind == "blaschke":
        return blaschke_to_expr(BlaschkeProduct(
            [Quaternion.from_iter(f) for f in d["factors"]],
            Quaternion.from_iter(d.get("u", [1, 0, 0, 0]))))
    raise ValueError(f"unknown expression kind {kind!r}")
