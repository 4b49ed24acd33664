"""Truncated quaternion power series and their *-algebra.

A series sum_m q^m a_m (left powers, right coefficients) is stored as an
(N+1, 4) float array together with a tail certificate (C, g) asserting
|a_m| <= C * g**m for every m, including the truncated tail.  Certificates
for derived series are fitted from the computed coefficients with a safety
margin; constructors with known geometry (constants, Moebius factors) carry
exact ones.  ``certificate`` says where (C, g) came from: ``exact`` (a
polynomial, no tail), ``cauchy-sampled`` (a Cauchy estimate from sampled
values of the stem, set by :func:`slicereg.moebius.expr_to_series`) or
``fitted`` (fitted from the coefficients, or given by the caller).
"""

from __future__ import annotations

import math

import numpy as np

from . import qarray
from .errors import (
    InconsistentDivision,
    NotInvertibleAtZero,
    OutsideConvergence,
    RealPoint,
    SymmetrizationNotReal,
)
from .quaternion import Quaternion

__all__ = [
    "TaylorSeries",
    "star_mul",
    "conjugate",
    "symmetrize",
    "star_inverse",
    "stem",
    "evaluate",
    "evaluate_many",
    "cullen_derivative",
    "spherical_derivative",
    "left_linear_divide",
    "series_add",
    "series_sub",
    "left_const_mul",
    "shift_up",
]

DEFAULT_ORDER = 64
_SAFETY_C = 4.0
_SAFETY_G = 1.01
_CERT_SLACK = 1e-9
_CERTIFICATES = ("exact", "cauchy-sampled", "fitted")
# relative bounds on the imaginary residue of symmetrize and on the residual
# of left_linear_divide
_SYMMETRIZE_TOL = 1e-12
_DIVISION_TOL = 1e-9


def _row_norms(coeffs: np.ndarray) -> np.ndarray:
    """|a_m| of each coefficient row.  A row whose plain norm overflows,
    above about 1.3e154, is scaled by its largest component first."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(coeffs, axis=1)
    big = ~np.isfinite(norms)
    if big.any():
        scale = np.abs(coeffs[big]).max(axis=1)
        norms[big] = scale * np.linalg.norm(coeffs[big] / scale[:, None],
                                            axis=1)
    return norms


def _fit_certificate(coeffs: np.ndarray):
    norms = _row_norms(coeffs)
    cmax = float(norms.max(initial=0.0))
    if cmax == 0.0:
        return 0.0, 0.0
    ms = np.nonzero(norms > cmax * 1e-250)[0]
    ms = ms[ms >= 1]
    if len(ms) == 0:
        return cmax * _SAFETY_C, 0.0
    g = float(np.max((norms[ms] / cmax) ** (1.0 / ms)))
    return cmax * _SAFETY_C, g * _SAFETY_G


class TaylorSeries:
    """Immutable truncated power series with quaternion coefficients."""

    __slots__ = ("coeffs", "coeff_bound", "growth_rate", "exact", "certificate")

    def __init__(self, coeffs, coeff_bound=None, growth_rate=None, exact=False,
                 certificate="fitted"):
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        if coeffs.shape[-1] != 4 or coeffs.ndim != 2 or coeffs.shape[0] < 1:
            raise ValueError("coeffs must be an (N+1, 4) array, N >= 0")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("series coefficients must be finite")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        if coeff_bound is None or growth_rate is None:
            coeff_bound, growth_rate = _fit_certificate(coeffs)
        if coeff_bound < 0 or growth_rate < 0:
            raise ValueError("certificate constants must be nonnegative")
        if certificate not in _CERTIFICATES:
            raise ValueError(f"unknown certificate kind {certificate!r}")
        norms = _row_norms(coeffs)
        caps = coeff_bound * growth_rate ** np.arange(len(norms))
        if np.any(norms > caps + _CERT_SLACK * max(1.0, norms.max(initial=0.0))):
            raise ValueError("stored coefficients violate the tail certificate")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "coeff_bound", float(coeff_bound))
        object.__setattr__(self, "growth_rate", float(growth_rate))
        # exact means the function IS this polynomial: zero truncation tail
        object.__setattr__(self, "exact", bool(exact))
        object.__setattr__(self, "certificate",
                           "exact" if exact else certificate)

    def __setattr__(self, name, value):
        raise AttributeError("TaylorSeries is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_quaternions(cls, qs, exact=False):
        arr = np.array([q.components() for q in qs], dtype=float)
        return cls(arr, exact=exact)

    @classmethod
    def constant(cls, c: Quaternion):
        return cls(np.array([c.components()]), abs(c), 0.0, exact=True)

    @classmethod
    def identity(cls):
        """The series q."""
        return cls(np.array([[0.0] * 4, [1.0, 0.0, 0.0, 0.0]]), 2.0, 0.5,
                   exact=True)

    @classmethod
    def linear(cls, a0: Quaternion, a1: Quaternion):
        """The affine series a0 + q * a1."""
        return cls(np.array([a0.components(), a1.components()]), exact=True)

    # -- views --------------------------------------------------------

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    def coefficient(self, m: int) -> Quaternion:
        return qarray.to_quaternion(self.coeffs[m])

    def coefficient_norms(self) -> np.ndarray:
        return _row_norms(self.coeffs)

    def tail_bound(self, radius: float) -> float:
        """Bound on |sum_{m>N} q^m a_m| for |q| <= radius."""
        if self.exact:
            return 0.0
        t = self.growth_rate * radius
        if t >= 1.0:
            return math.inf
        return self.coeff_bound * t ** (self.order + 1) / (1.0 - t)

    def to_json(self):
        return {
            "coeffs": self.coeffs.tolist(),
            "coeffBound": self.coeff_bound,
            "growthRate": self.growth_rate,
            "exact": self.exact,
        }

    @classmethod
    def from_json(cls, d):
        return cls(np.asarray(d["coeffs"], dtype=float),
                   d.get("coeffBound"), d.get("growthRate"),
                   d.get("exact", False))

    def __repr__(self):
        return (f"TaylorSeries(order={self.order}, C={self.coeff_bound:.3g}, "
                f"g={self.growth_rate:.3g})")


# -- coefficient-level helpers ----------------------------------------


def _qconv(a: np.ndarray, b: np.ndarray, n_out: int) -> np.ndarray:
    """First n_out+1 coefficients of the quaternion Cauchy convolution.

    With q = A + B j, A = w + x i and B = y + z i, the Hamilton product is
    (A1 + B1 j)(A2 + B2 j) = (A1 A2 - B1 conj(B2)) + (A1 B2 + B1 conj(A2)) j,
    so four complex convolutions do the work of sixteen real ones.
    """
    a, b = a[: n_out + 1], b[: n_out + 1]
    a1, b1 = a[:, 0] + 1j * a[:, 1], a[:, 2] + 1j * a[:, 3]
    a2, b2 = b[:, 0] + 1j * b[:, 1], b[:, 2] + 1j * b[:, 3]

    def cv(u, v):
        return np.convolve(u, v)[: n_out + 1]

    lo = cv(a1, a2) - cv(b1, b2.conj())
    hi = cv(a1, b2) + cv(b1, a2.conj())
    return np.stack([lo.real, lo.imag, hi.real, hi.imag], axis=-1)


def _pad(arr: np.ndarray, n: int) -> np.ndarray:
    if arr.shape[0] >= n + 1:
        return arr[: n + 1]
    out = np.zeros((n + 1, 4))
    out[: arr.shape[0]] = arr
    return out


# -- operations -------------------------------------------------------


def star_mul(f: TaylorSeries, g: TaylorSeries) -> TaylorSeries:
    """*-product: Cauchy convolution of coefficients.

    The result is truncated at the smallest order up to which both factors
    are accurate; an exact (polynomial) factor never limits the order.
    """
    if f.exact and g.exact:
        n = f.order + g.order
    elif f.exact:
        n = g.order
    elif g.exact:
        n = f.order
    else:
        n = min(f.order, g.order)
    coeffs = _qconv(f.coeffs, g.coeffs, n)
    if f.exact and g.exact:
        return TaylorSeries(coeffs, exact=True)
    cb, gr = _fit_certificate(coeffs)
    # keep at least the analytic growth of the factors so truncated tails
    # of slowly-decaying products are not underestimated
    gr = max(gr, f.growth_rate, g.growth_rate)
    return TaylorSeries(coeffs, max(cb, f.coeff_bound * g.coeff_bound), gr)


def conjugate(f: TaylorSeries) -> TaylorSeries:
    """Regular conjugate: conjugate every coefficient."""
    coeffs = f.coeffs.copy()
    coeffs[:, 1:] = -coeffs[:, 1:]
    return TaylorSeries(coeffs, f.coeff_bound, f.growth_rate, f.exact,
                        f.certificate)


def symmetrize(f: TaylorSeries) -> TaylorSeries:
    """f^s = f * f^c; coefficients are checked real, relative to
    _SYMMETRIZE_TOL, and hard-set to real."""
    s = star_mul(f, conjugate(f))
    coeffs = s.coeffs.copy()
    bound = _SYMMETRIZE_TOL * max(1.0, float(np.abs(coeffs).max()))
    residue = float(np.abs(coeffs[:, 1:]).max(initial=0.0))
    if residue > bound:
        raise SymmetrizationNotReal(
            f"imaginary residue {residue:.3g} exceeds {bound:.3g}")
    coeffs[:, 1:] = 0.0
    return TaylorSeries(coeffs, s.coeff_bound, s.growth_rate, s.exact)


def _norm_series(a: np.ndarray, n: int) -> np.ndarray:
    """n(f) = f * f^c to order n for (n+1, 4) coefficients a: the sum of
    the four components' autoconvolutions, real by construction."""
    return sum(np.convolve(c, c)[: n + 1] for c in a.T)


def _reciprocal(s: np.ndarray, n: int) -> np.ndarray:
    """1/s to order n for a real series s with at least n+1 coefficients,
    by Newton doubling: b <- b (2 - b s)."""
    b = np.array([1.0 / s[0]])
    while len(b) < n + 1:
        m = min(2 * len(b), n + 1)
        t = -np.convolve(s[:m], b)[:m]
        t[0] += 2.0
        b = np.convolve(b, t)[:m]
    return b


def _real_times(b: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """b * f to order n for a real series b and an f with coefficients a.
    A real series commutes with H, so with a = A + B j two complex
    convolutions do the work."""
    lo = np.convolve(b, a[:, 0] + 1j * a[:, 1])[: n + 1]
    hi = np.convolve(b, a[:, 2] + 1j * a[:, 3])[: n + 1]
    return np.stack([lo.real, lo.imag, hi.real, hi.imag], axis=-1)


def star_inverse(f: TaylorSeries, order=None) -> TaylorSeries:
    """*-inverse n(f)^{-1} f^c, defined when the constant term is nonzero.

    The result has order ``order`` (default: twice the degree, at least
    DEFAULT_ORDER, for a polynomial), but never more than a truncated f.
    """
    if np.linalg.norm(f.coeffs[0]) <= 1e-13:
        raise NotInvertibleAtZero("constant coefficient is numerically zero")
    if order is None:
        order = max(2 * f.order, DEFAULT_ORDER) if f.exact else f.order
    n = order if f.exact else min(order, f.order)
    a = _pad(f.coeffs, n)
    b = _reciprocal(_norm_series(a, n), n)
    return TaylorSeries(_real_times(b, qarray.qconj(a), n))


_BLOCK = 32


def _block_powers(z: np.ndarray, k: int) -> np.ndarray:
    """z^0 ... z^{k-1} along a new last axis, by doubling products: the
    powers below z^m times z^m give those up to z^{2m-1}.  They are built
    along a leading axis, so that each product writes one contiguous block.
    """
    pw = np.empty((k,) + z.shape, dtype=np.result_type(z, 1.0))
    pw[0] = 1.0
    zm, m = z, 1
    while m < k:
        j = min(m, k - m)
        np.multiply(pw[:j], zm, out=pw[m:m + j])
        zm, m = zm * zm, 2 * m
    return np.moveaxis(pw, 0, -1)


def _horner(coeffs: np.ndarray, z) -> np.ndarray:
    """sum_m z^m a_m at complex points z, by Horner in z^K over blocks.

    Each block of K coefficients is one matmul with the powers 1 ... z^{K-1}
    shared by all blocks, so no (points x order) power matrix is built.
    """
    z = np.asarray(z)
    k = min(_BLOCK, len(coeffs))
    pw = _block_powers(z, k)
    zk = (z * pw[..., -1])[..., None]
    nb = -(-len(coeffs) // k)
    blocks = _pad(coeffs, nb * k - 1).reshape(nb, k, 4)
    acc = pw @ blocks[-1]
    for blk in blocks[-2::-1]:
        acc *= zk
        acc += pw @ blk
    return acc


def stem(f: TaylorSeries, z, r_max=None) -> np.ndarray:
    """Stem F(z) = sum z^m a_m at complex points z, by blocked Horner.

    Raises OutsideConvergence unless every |z| is at most r_max, when one is
    given, and, for a truncated series, inside the certified radius 1/g.
    """
    az = np.abs(z)
    if (r_max is not None and np.any(az > r_max + 1e-12)) or (
            not f.exact and np.any(f.growth_rate * az >= 1.0)):
        raise OutsideConvergence(
            f"|q| = {az.max():.6g} outside certified radius "
            f"(g = {f.growth_rate:.6g})")
    return _horner(f.coeffs, z)


def evaluate(f: TaylorSeries, q: Quaternion, r_max=None):
    """Evaluation at one point; returns (value, tail bound)."""
    vals, tails = evaluate_many(f, qarray.from_quaternion(q, (1,)), r_max)
    return qarray.to_quaternion(vals[0]), float(tails[0])


def evaluate_many(f: TaylorSeries, points: np.ndarray, r_max=None):
    """Evaluation at an (M, 4) array of points; returns (values, tails)."""
    points = qarray.as_qarray(points)
    vals = qarray.on_slices(points, lambda z: stem(f, z, r_max))
    if f.exact:
        return vals, np.zeros(points.shape[:-1])
    t = f.growth_rate * qarray.qnorm(points)
    return vals, f.coeff_bound * t ** (f.order + 1) / (1.0 - t)


def cullen_derivative(f: TaylorSeries) -> TaylorSeries:
    """Termwise derivative: sum q^{m-1} m a_m."""
    if f.order == 0:
        return TaylorSeries.constant(Quaternion(0.0))
    coeffs = f.coeffs[1:] * np.arange(1, f.order + 1)[:, None]
    return TaylorSeries(coeffs, exact=f.exact)


def spherical_derivative(f: TaylorSeries, p: Quaternion) -> Quaternion:
    """(2 Im p)^{-1} (f(p) - f(conj p)); undefined at real points.

    For p = x + I y with stem value F(x + iy) = A + iB, f(p) - f(conj p)
    is 2 I B, so the result is Im F / y, with no difference to cancel.
    """
    y = p.im_norm()
    if y <= 1e-13 * max(1.0, abs(p)):
        raise RealPoint("spherical derivative undefined at real points")
    return qarray.to_quaternion(stem(f, p.re + 1j * y).imag / y)


def left_linear_divide(f: TaylorSeries, p: Quaternion) -> TaylorSeries:
    """Solve f - f(p) = (q - p) * g for g at coefficient level.

    The backward recurrence b_{m-1} = a_m + p b_m, which is stable for
    |p| < 1, unrolls to b_k = sum_j p^j a_{k+1+j}: one convolution of the
    powers of p with the reversed coefficients.  The value of g at conj(p)
    is the spherical derivative of f at p.
    """
    n = f.order
    if n == 0:
        return TaylorSeries.constant(Quaternion(0.0))
    parr = qarray.from_quaternion(p)
    b = _qconv(qarray.powers(parr, n), f.coeffs[:0:-1], n - 1)[::-1]
    # consistency: the reconstructed constant a_0 + p b_0 must match the
    # value of the polynomial f at p, within _DIVISION_TOL relative
    fp = qarray.on_slices(parr, lambda z: _horner(f.coeffs, z))
    bound = _DIVISION_TOL * max(1.0, float(f.coefficient_norms().max()))
    residual = float(qarray.qnorm(f.coeffs[0] + qarray.qmul(parr, b[0]) - fp))
    if residual > bound:
        raise InconsistentDivision(
            f"division residual {residual:.3g} exceeds {bound:.3g}")
    return TaylorSeries(b, exact=f.exact)


# -- linear helpers used by the expression backend --------------------


def _sum_order(f: TaylorSeries, g: TaylorSeries):
    """Common order and exactness for a sum; exact terms never truncate."""
    if f.exact and g.exact:
        return max(f.order, g.order), True
    if f.exact:
        return g.order, False
    if g.exact:
        return f.order, False
    return min(f.order, g.order), False


def series_add(f: TaylorSeries, g: TaylorSeries) -> TaylorSeries:
    n, exact = _sum_order(f, g)
    return TaylorSeries(_pad(f.coeffs, n) + _pad(g.coeffs, n), exact=exact)


def series_sub(f: TaylorSeries, g: TaylorSeries) -> TaylorSeries:
    n, exact = _sum_order(f, g)
    return TaylorSeries(_pad(f.coeffs, n) - _pad(g.coeffs, n), exact=exact)


def left_const_mul(c: Quaternion, f: TaylorSeries) -> TaylorSeries:
    """Coefficients c * a_m, i.e. the *-product Const(c) * f."""
    carr = qarray.from_quaternion(c)
    return TaylorSeries(qarray.qmul(carr, f.coeffs), exact=f.exact)


def shift_up(f: TaylorSeries) -> TaylorSeries:
    """Multiply by q on the left: coefficients move one slot up."""
    coeffs = np.vstack([np.zeros((1, 4)), f.coeffs])
    return TaylorSeries(coeffs, exact=f.exact)
