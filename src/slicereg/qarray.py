"""Vectorized quaternion arrays.

Arrays of quaternions are plain float64 ndarrays whose last axis has length
4 (components w, x, y, z).  All sampling suites run through these helpers so
that 1e4+ point checks stay fast.  The arithmetic helpers keep the dtype of
their input, so complex (..., 4) arrays work too: they hold values in
H(x)C, whose complex unit commutes with H, such as the stem functions that
:func:`on_slices` turns into values of slice functions.
"""

from __future__ import annotations

import numpy as np

from .quaternion import Quaternion

__all__ = [
    "as_qarray",
    "from_quaternion",
    "to_quaternion",
    "qmul",
    "qconj",
    "qnorm",
    "qnorm2",
    "qinv",
    "qrotate",
    "slice_points",
    "on_slices",
    "powers",
    "moebius_action",
    "uniform_ball",
]


def as_qarray(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != 4:
        raise ValueError("quaternion array must have last axis of length 4")
    return a


def from_quaternion(q: Quaternion, shape=()) -> np.ndarray:
    out = np.empty(shape + (4,), dtype=float)
    out[...] = (q.w, q.x, q.y, q.z)
    return out


def to_quaternion(a) -> Quaternion:
    a = np.asarray(a, dtype=float)
    if a.shape != (4,):
        raise ValueError("expected a single quaternion (shape (4,))")
    return Quaternion(a[0], a[1], a[2], a[3])


def qmul(a, b) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes."""
    a = np.asarray(a)
    b = np.asarray(b)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def qconj(a) -> np.ndarray:
    out = np.array(a)
    out[..., 1:] = -out[..., 1:]
    return out


def qnorm2(a) -> np.ndarray:
    """Sum of squared components: |a|^2, or the complex scalar a a^c in H(x)C."""
    a = np.asarray(a)
    return np.sum(a * a, axis=-1)


def qnorm(a) -> np.ndarray:
    """|a|.  Where the plain sum of squares overflows, above about 1.3e154,
    a finite quaternion is scaled by its largest component first."""
    a = np.asarray(a)
    with np.errstate(over="ignore"):
        norms = np.sqrt(qnorm2(a))
    big = ~np.isfinite(norms)
    if not big.any():
        return norms
    scale = np.abs(a).max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = scale * np.sqrt(qnorm2(a / scale[..., None]))
    return np.where(big & np.isfinite(scale), scaled, norms)[()]


def qinv(a) -> np.ndarray:
    return qconj(a) / qnorm2(a)[..., None]


def qrotate(q, v) -> np.ndarray:
    """Inner conjugation v^{-1} q v; preserves Re q and |q|."""
    return qmul(qmul(qinv(v), q), v)


def slice_points(points) -> np.ndarray:
    """The complex slice point z = x + i|v| of each quaternion q = x + v."""
    q = as_qarray(points)
    return q[..., 0] + 1j * np.sqrt(qnorm2(q[..., 1:]))


def on_slices(points, stem) -> np.ndarray:
    """Values at quaternion points of the slice function with stem ``stem``.

    ``stem`` maps complex points z to stem values F(z), complex (..., 4)
    arrays.  At q = x + v, v imaginary, the value is
    f(q) = Re F(z) + v Im F(z) / |v| with z = x + i|v|; at real q, v = 0.
    """
    q = as_qarray(points)
    z = slice_points(q)
    F = stem(z)
    r = z.imag
    v = q.copy()
    v[..., 0] = 0.0
    return F.real + qmul(v, F.imag / np.where(r > 0.0, r, 1.0)[..., None])


def _on_slice(q: Quaternion, stem) -> tuple:
    """The value at one quaternion q = w + (x, y, z) of the slice function
    with stem ``stem``, as four floats: :func:`on_slices` on one row.

    ``stem`` maps the slice point z = w + i|v|, a complex scalar, to the
    stem row F(z), a complex (4,) array.  Re F + v Im F / |v| is formed in
    floats by the float operations of on_slices, the Hamilton product in
    qmul's term order with its 0.0 terms kept, so that the two agree
    bitwise, signed zeros included.
    """
    w, x, y, z = q.components()
    zeta = w + 1j * q.im_norm()
    r = zeta.imag
    d = r if r > 0.0 else 1.0
    f0, f1, f2, f3 = stem(zeta).tolist()
    g0, g1, g2, g3 = f0.imag / d, f1.imag / d, f2.imag / d, f3.imag / d
    return (f0.real + (0.0 * g0 - x * g1 - y * g2 - z * g3),
            f1.real + (0.0 * g1 + x * g0 + y * g3 - z * g2),
            f2.real + (0.0 * g2 - x * g3 + y * g0 + z * g1),
            f3.real + (0.0 * g3 + x * g2 - y * g1 + z * g0))


def powers(q, n: int) -> np.ndarray:
    """The powers q^0, ..., q^{n-1} of one quaternion q, as an (n, 4) array.

    They are read off the slice of q: q^m = Re z^m + v Im z^m / |v|.
    """
    def stem(z):
        out = np.zeros((n, 4), dtype=complex)
        out[:, 0] = np.cumprod(np.concatenate(([1.0], np.full(n, z))))[:n]
        return out
    return on_slices(q, stem)


def moebius_action(F, p):
    """Numerator and denominator of M_p . F = (F - p)(1 - conj(p) F)^{-1}.

    F is a real or complex (..., 4) array and p a real one broadcastable
    against it.  With s = <F, p> = sum_k F_k p_k and n = n(F) = sum_k F_k^2,
    the identity p F^c p = 2 s p - |p|^2 F gives

        (F - p)(1 - conj(p) F)^{-1} = [(1 - |p|^2) F + (2 s - 1 - n) p] / d,

    with d = 1 - 2 s + |p|^2 n = n(1 - conj(p) F), a real or complex scalar
    per point.  d is summed as (1 - s)^2 + (|p|^2 n - s^2), the norms of the
    scalar and vector parts of 1 - conj(p) F, so that it stays accurate
    near the poles of a factor whose F and p lie on one complex line (M_r
    with r real), where the vector part vanishes.  Returns the bracket and
    d; the caller divides.
    """
    F = np.asarray(F)
    p = np.asarray(p)
    s = (F * p).sum(axis=-1)
    n = (F * F).sum(axis=-1)
    p2 = (p * p).sum(axis=-1)
    num = (1.0 - p2)[..., None] * F + (2.0 * s - 1.0 - n)[..., None] * p
    t = 1.0 - s
    return num, t * t + (p2 * n - s * s)


def uniform_ball(rng: np.random.Generator, count: int, radius_cap: float) -> np.ndarray:
    """Uniform samples from the solid 4-ball of the given radius."""
    g = rng.standard_normal((count, 4))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius_cap * rng.random(count) ** 0.25
    return g * r[:, None]
