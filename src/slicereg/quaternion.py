"""Scalar quaternion arithmetic and similarity-sphere predicates.

A quaternion ``w + x*i + y*j + z*k`` is stored as four floats.  Everything
here is immutable and pure; these scalars are the coefficient type of the
series engine and the point type of every evaluator in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Quaternion",
    "ZERO",
    "ONE",
    "I",
    "J",
    "K",
    "im_decompose",
    "same_sphere",
    "ImDecomposition",
    "SimilaritySphere",
]

DEFAULT_SPHERE_TOL = 1e-9
# default relative size below which is_real treats the imaginary part as zero
REAL_THRESHOLD = 1e-13


class Quaternion:
    """Element of the skew-field H, components ``w + x i + y j + z k``."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        w = float(w)
        x = float(x)
        y = float(y)
        z = float(z)
        if not (math.isfinite(w) and math.isfinite(x)
                and math.isfinite(y) and math.isfinite(z)):
            raise ValueError("quaternion components must be finite")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_iter(cls, it) -> "Quaternion":
        w, x, y, z = it
        return cls(w, x, y, z)

    # -- views --------------------------------------------------------

    @property
    def re(self) -> float:
        return self.w

    def abs2(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self) -> float:
        return math.sqrt(self.abs2())

    def im_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def is_real(self, tol=REAL_THRESHOLD) -> bool:
        return self.im_norm() <= tol * max(1.0, abs(self))

    def components(self):
        return (self.w, self.x, self.y, self.z)

    def to_json(self):
        return [self.w, self.x, self.y, self.z]

    # -- arithmetic ---------------------------------------------------

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w + other.w, self.x + other.x,
                              self.y + other.y, self.z + other.z)
        return Quaternion(self.w + other, self.x, self.y, self.z)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w - other.w, self.x - other.x,
                              self.y - other.y, self.z - other.z)
        return Quaternion(self.w - other, self.x, self.y, self.z)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a, b, c, d = self.w, self.x, self.y, self.z
            e, f, g, h = other.w, other.x, other.y, other.z
            return Quaternion(
                a * e - b * f - c * g - d * h,
                a * f + b * e + c * h - d * g,
                a * g - b * h + c * e + d * f,
                a * h + b * g - c * f + d * e,
            )
        return Quaternion(self.w * other, self.x * other,
                          self.y * other, self.z * other)

    def __rmul__(self, other):
        # only reached for real scalars, which commute
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, Quaternion):
            # right division: self * other^{-1}
            return self * other.inverse()
        return Quaternion(self.w / other, self.x / other,
                          self.y / other, self.z / other)

    def inverse(self) -> "Quaternion":
        n2 = self.abs2()
        if n2 == 0.0:
            raise ZeroDivisionError("quaternion inverse of zero")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Quaternion):
            return self.components() == other.components()
        if isinstance(other, (int, float)):
            return self.components() == (float(other), 0.0, 0.0, 0.0)
        return NotImplemented

    def __hash__(self):
        return hash(self.components())

    def isclose(self, other: "Quaternion", tol=1e-12) -> bool:
        return abs(self - other) <= tol

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


ZERO = Quaternion(0.0)
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class ImDecomposition:
    """Writing q = x + y*I with x real, y >= 0 and I an imaginary unit.

    ``axis`` is None for real q.
    """

    x: float
    y: float
    axis: Quaternion | None

    def recompose(self) -> Quaternion:
        if self.axis is None:
            return Quaternion(self.x)
        return Quaternion(self.x) + self.axis * self.y


def im_decompose(q: Quaternion) -> ImDecomposition:
    """Split q into real part, imaginary magnitude and imaginary unit."""
    y = q.im_norm()
    if y == 0.0:
        return ImDecomposition(q.w, 0.0, None)
    return ImDecomposition(q.w, y, Quaternion(0.0, q.x / y, q.y / y, q.z / y))


@dataclass(frozen=True)
class SimilaritySphere:
    """The 2-sphere of quaternions sharing real part and imaginary norm.

    For ``im_norm == 0`` the sphere collapses to the single real point ``re``.
    """

    re: float
    im_norm: float

    @classmethod
    def of(cls, p: Quaternion) -> "SimilaritySphere":
        return cls(p.w, p.im_norm())

    def contains(self, q: Quaternion, tol=DEFAULT_SPHERE_TOL) -> bool:
        return (abs(q.w - self.re) <= tol
                and abs(q.im_norm() - self.im_norm) <= tol)


def same_sphere(a: Quaternion, b: Quaternion, tol=DEFAULT_SPHERE_TOL) -> bool:
    """True iff a and b lie on the same similarity sphere within tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return SimilaritySphere.of(a).contains(b, tol)
