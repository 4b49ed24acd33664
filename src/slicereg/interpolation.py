"""Nevanlinna-Pick interpolation with real nodes in the quaternionic ball.

Given distinct real nodes r_1..r_n and target values s_1..s_n, all of
modulus below 1 - 1e-13, a triangular table of quantities Q_k^l is built
from Moebius quotients; the modulus of the final entry Q_{n-1}^n decides
between an infinite solution family, a unique regular Blaschke solution,
or no solution.  Explicit interpolants are the nested Moebius actions of the
Schur algorithm, held as one chain-matrix node.  A Pick-matrix positivity
criterion provides an independent solvability check, and slice_extend
lifts a one-slice complex function to its unique slice regular extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousBoundary,
    KindMismatch,
    NotHermitian,
    NotSelfMap,
)
from .moebius import (
    Const,
    FunctionExpr,
    SchurChain,
    SeriesFunc,
    _BALL_EDGE,
    _CONJ_PRODUCT,
    _SING_TOL,
    _as_quaternion,
    _chain_singular,
    _immutable,
    _left_mul_matrices,
    _moebius_scaled,
)
from .quaternion import Quaternion
from .series import TaylorSeries
from .verify import check_self_map

__all__ = [
    "InterpolationProblem",
    "QCell",
    "QTable",
    "SolutionKind",
    "NON_SINGULAR",
    "SINGULAR",
    "NO_SOLUTION",
    "HermitianQuatMatrix",
    "pick_matrix",
    "psd_check",
    "build_q_table",
    "classify",
    "build_solution",
    "slice_extend",
]

# moduli within this distance of 1 are accepted as exactly unimodular
_UNIT_TOL = 1e-12
# moduli within this wider band of 1 (but beyond _UNIT_TOL) are ambiguous
_BAND_TOL = 1e-9
# tolerance for comparing two unimodular cell values
_CELL_EQ_TOL = 1e-9
# psd_check accepts eigenvalues down to -_PSD_TOL times the largest modulus
_PSD_TOL = 1e-10
# entry (i, 4 j + c) is component c of e_i conj(e_j), so that row j of
# (S @ _CONJ_TABLE).reshape(n, 4, 4)[m] is s_m conj(e_j), and
# (S @ that)[m, l] is s_m conj(s_l): two matmuls, no Hamilton product
_CONJ_TABLE = np.ascontiguousarray(_CONJ_PRODUCT.real.reshape(4, 16))


def _check_inside(field, xs):
    """Refuse, naming its index, an entry x of ``xs`` that is NaN or has
    |x| >= _BALL_EDGE, outside the ball on which the solver's Moebius maps
    M_x are defined."""
    for i, x in enumerate(xs):
        if not abs(x) < _BALL_EDGE:
            raise ValueError(f"{field}[{i}] must satisfy |x| < 1 - 1e-13, "
                             f"but 1 - |x| = {1.0 - abs(x):.3g}")


@_immutable
class InterpolationProblem:
    """Real nodes r_1..r_n with ball values s_1..s_n, each of modulus
    below 1 - 1e-13: the ball on which the solver's Moebius maps M_{r_k}
    and M_{s_k} are defined.  A node must also keep (1 - r^2)^2 above
    1e-13, the threshold at which the interpolant's SchurChain refuses a
    sample, so that the interpolant can be read at every node: about
    1 - |r| > 1.58e-7."""

    nodes: tuple
    values: tuple

    def __post_init__(self):
        nodes = tuple(float(r) for r in self.nodes)
        values = tuple(map(_as_quaternion, self.values))
        if len(nodes) < 1 or len(nodes) != len(values):
            raise ValueError("need n >= 1 nodes with matching values")
        _check_inside("nodes", nodes)
        for i, r in enumerate(nodes):
            if _chain_singular(1.0 - r * r):
                raise ValueError(f"nodes[{i}] must satisfy (1 - x^2)^2 > "
                                 f"{_SING_TOL:g}, but 1 - |x| = "
                                 f"{1.0 - abs(r):.3g}")
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                if abs(nodes[i] - nodes[j]) <= 1e-12:
                    raise ValueError("nodes must be pairwise distinct")
        _check_inside("values", values)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def __repr__(self):
        return f"InterpolationProblem({list(self.nodes)!r}, {list(self.values)!r})"


@dataclass(frozen=True)
class QCell:
    """One table entry: inside the ball, on the boundary, infinite, or in
    the undecidable tolerance band around the boundary."""

    kind: str  # "ball" | "unimodular" | "infinity" | "ambiguous"
    value: Quaternion | None = None

    def to_json(self):
        return {"kind": self.kind,
                "value": None if self.value is None else self.value.to_json()}


def _tag(q: Quaternion) -> QCell:
    m = abs(q)
    if abs(m - 1.0) <= _UNIT_TOL:
        return QCell("unimodular", q / m)
    if abs(m - 1.0) <= _BAND_TOL:
        return QCell("ambiguous", q)
    if m < 1.0:
        return QCell("ball", q)
    # any finite value outside the closed ball plays the role of infinity
    return QCell("infinity", q)


@_immutable
class QTable:
    """Triangular table Q_k^l, 0 <= k <= n-1, k+1 <= l <= n (row 0 = values)."""

    problem: InterpolationProblem
    cells: dict

    def __post_init__(self):
        object.__setattr__(self, "cells", dict(self.cells))

    @property
    def n(self) -> int:
        return self.problem.n

    def cell(self, k: int, l: int) -> QCell:
        return self.cells[(k, l)]

    def to_json(self):
        return [{"k": k, "l": l, **c.to_json()}
                for (k, l), c in sorted(self.cells.items())]


@dataclass(frozen=True)
class SolutionKind:
    """Trichotomy of the solver: family / unique Blaschke / none."""

    variant: str  # "non_singular" | "singular" | "no_solution"
    kappa0: int | None = None

    def to_json(self):
        d = {"variant": self.variant}
        if self.kappa0 is not None:
            d["kappa0"] = self.kappa0
        return d


NON_SINGULAR = SolutionKind("non_singular")
NO_SOLUTION = SolutionKind("no_solution")


def SINGULAR(kappa0: int) -> SolutionKind:
    return SolutionKind("singular", kappa0)


def build_q_table(prob: InterpolationProblem) -> QTable:
    """Fill the table row by row with the three-way recurrence."""
    n = prob.n
    cells = {}
    for l in range(1, n + 1):
        cells[(0, l)] = QCell("ball", prob.values[l - 1])
    for k in range(1, n):
        a = cells[(k - 1, k)]
        for l in range(k + 1, n + 1):
            b = cells[(k - 1, l)]
            if a.kind == "ambiguous" or b.kind == "ambiguous":
                cells[(k, l)] = QCell("ambiguous",
                                      a.value if a.kind == "ambiguous"
                                      else b.value)
            elif a.kind == "ball" and b.kind == "ball":
                # M_{r_k}(r_l) is real for real nodes: divide by it
                rk, rl = prob.nodes[k - 1], prob.nodes[l - 1]
                scale = (rl - rk) / (1.0 - rk * rl)
                cells[(k, l)] = _tag(_moebius_scaled(a.value, b.value, scale))
            elif (a.kind == "unimodular" and b.kind == "unimodular"
                  and abs(a.value - b.value) <= _CELL_EQ_TOL):
                cells[(k, l)] = QCell("unimodular", a.value)
            else:
                cells[(k, l)] = QCell("infinity")
    return QTable(prob, cells)


def classify(t: QTable) -> SolutionKind:
    """Apply the trichotomy on |Q_{n-1}^n|; refuse to guess in the band."""
    n = t.n
    for (k, l), c in sorted(t.cells.items()):
        if c.kind == "ambiguous":
            raise AmbiguousBoundary(
                f"|Q_{k}^{l}| falls in the boundary tolerance band",
                cell=(k, l))
    if n == 1:
        return NON_SINGULAR
    last = t.cell(n - 1, n)
    if last.kind == "ball":
        return NON_SINGULAR
    if last.kind == "infinity":
        return NO_SOLUTION
    # singular: kappa0 is the first all-unimodular row
    for k in range(1, n):
        row = [t.cell(k, l) for l in range(k + 1, n + 1)]
        if all(c.kind == "unimodular" for c in row):
            return SINGULAR(k)
    raise AssertionError("unreachable: unimodular tail without a full row")


def _as_h_expr(h) -> FunctionExpr:
    if h is None:
        return Const(Quaternion(0.0))
    if isinstance(h, (int, float)):
        h = Quaternion(h)
    if isinstance(h, Quaternion):
        if abs(h) > 1.0 + _UNIT_TOL:
            raise NotSelfMap("constant parameter h must have |h| <= 1")
        return Const(h)
    if isinstance(h, TaylorSeries):
        h = SeriesFunc(h)
    if not isinstance(h, FunctionExpr):
        raise TypeError("h must be a quaternion, series or expression")
    check_self_map(h)
    return h


def build_solution(t: QTable, kind: SolutionKind, h=None) -> FunctionExpr:
    """The interpolant for the given kind, as one SchurChain node.

    Non-singular: f = M_{-s_1}.(M_{r_1} * (M_{-Q_1^2}.(M_{r_2} * (... * h)))).
    Singular with degree k0: same chain stopped at level k0 with the
    unimodular constant u in place of the innermost parenthesis.
    """
    prob = t.problem
    if kind.variant == "no_solution":
        raise KindMismatch("no interpolant exists for this problem")
    if kind.variant == "singular":
        if h is not None:
            raise KindMismatch("the singular solution admits no parameter h")
        k0 = kind.kappa0
        expr: FunctionExpr = Const(t.cell(k0, k0 + 1).value)
        depth = k0
    else:
        expr = _as_h_expr(h)
        depth = prob.n
    return SchurChain(prob.nodes[:depth],
                      [-t.cell(k - 1, k).value for k in range(1, depth + 1)],
                      expr)


# -- Pick matrix criterion --------------------------------------------


@_immutable
class HermitianQuatMatrix:
    """Square quaternion matrix with P_lm = conj(P_ml) and real diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 3 or entries.shape[0] != entries.shape[1] \
                or entries.shape[2] != 4:
            raise ValueError("entries must be an (n, n, 4) array")
        scale = max(1.0, float(np.abs(entries).max()))
        conj_t = entries.transpose(1, 0, 2).copy()
        conj_t[:, :, 1:] = -conj_t[:, :, 1:]
        if np.abs(entries - conj_t).max() > 1e-12 * scale:
            raise NotHermitian("matrix is not quaternion-Hermitian")
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def entry(self, m: int, l: int) -> Quaternion:
        return Quaternion.from_iter(self.entries[m, l])

    def complex_embedding(self) -> np.ndarray:
        """2n x 2n complex Hermitian matrix via a + bj -> [[a, b], [-b~, a~]]."""
        n = self.n
        ab = self.entries.view(complex)
        a, b = ab[..., 0], ab[..., 1]
        out = np.empty((2 * n, 2 * n), dtype=complex)
        out[0::2, 0::2] = a
        out[0::2, 1::2] = b
        out[1::2, 0::2] = -np.conj(b)
        out[1::2, 1::2] = np.conj(a)
        return out


def pick_matrix(nodes, values) -> HermitianQuatMatrix:
    """Pick matrix with entries sum_k p_m^k (1 - s_m conj(s_l)) conj(p_l)^k.

    Each entry is the solution X of the Stein equation
    X - p_m X conj(p_l) = 1 - s_m conj(s_l).  For real nodes that is
    (1 - s_m conj(s_l)) / (1 - r_m r_l), whose numerators over all (m, l)
    take two matmuls against the table of e_i conj(e_j).  Otherwise
    x @ (I - L(p_m) R(conj p_l)) = w on the components, with x @ L(p) = p x
    and x @ R(q) = x q, and all n^2 of these 4 x 4 real systems are solved
    in one batched call.  Float nodes stay
    floats, with the checks and messages of Quaternion nodes.
    """
    nodes = list(nodes)
    real = all(isinstance(r, (int, float)) for r in nodes)
    if real:
        nodes = [float(r) for r in nodes]
        if not all(map(math.isfinite, nodes)):
            raise ValueError("quaternion components must be finite")
    else:
        nodes = [Quaternion(r) if isinstance(r, (int, float)) else r
                 for r in nodes]
    values = [Quaternion(s) if isinstance(s, (int, float)) else s
              for s in values]
    n = len(nodes)
    if n != len(values) or n < 1:
        raise ValueError("need matching nonempty nodes and values")
    for p in nodes:
        if abs(p) >= 1.0:
            raise ValueError("nodes must lie inside the unit ball")
    for s in values:
        if abs(s) >= 1.0:
            raise ValueError("values must lie inside the unit ball")
    S = np.array([s.components() for s in values])
    w = (1.0, 0.0, 0.0, 0.0) - S @ (S @ _CONJ_TABLE).reshape(n, 4, 4)
    if real or all(p.is_real() for p in nodes):
        r = np.array(nodes if real else [p.w for p in nodes])
        P = w / (1.0 - np.outer(r, r))[..., None]
        # the imaginary parts of s_m conj(s_l) and s_l conj(s_m) round
        # apart, and 1 / (1 - r^2) magnifies the gap next to the sphere;
        # the real parts already agree bit for bit, as each sums the same
        # four products s_m[j] s_l[j] in the same order
        P[..., 1:] = (P[..., 1:] - P[..., 1:].transpose(1, 0, 2)) / 2
        return HermitianQuatMatrix(P)
    left = _left_mul_matrices(np.array([p.components() for p in nodes]))
    # x conj(p) = conj(p conj(x)), so R(conj p) = C L(p) C with
    # C = diag(c), the matrix of conjugation
    c = np.array([1.0, -1.0, -1.0, -1.0])
    right = c[:, None] * left * c
    stein = np.eye(4) - left[:, None] @ right[None]
    return HermitianQuatMatrix(np.linalg.solve(
        stein.swapaxes(-1, -2), w[..., None])[..., 0])


def psd_check(P: HermitianQuatMatrix):
    """(isPSD, minEig) of the complex embedding of P."""
    emb = P.complex_embedding()
    eigs = np.linalg.eigvalsh(emb)
    min_eig = float(eigs.min())
    scale = max(1.0, float(np.abs(eigs).max()))
    return min_eig >= -_PSD_TOL * scale, min_eig


# -- common-slice extension -------------------------------------------


def slice_extend(coeffs, axis: Quaternion, exact=False):
    """Extend a one-slice power series to a slice regular series on the ball.

    coeffs are complex coefficients over the slice of the imaginary unit
    ``axis``; the extension keeps the same coefficients, embedded into the
    quaternions as Re c + (Im c) * axis.  :func:`check_self_map` on the
    extension guards the precondition |f0| < 1.
    """
    if abs(axis.re) > 1e-12 or abs(abs(axis) - 1.0) > 1e-12:
        raise ValueError("axis must be an imaginary unit")
    qs = [Quaternion(c.real) + axis * c.imag for c in map(complex, coeffs)]
    if not qs:
        raise ValueError("need at least one coefficient")
    series = TaylorSeries.from_quaternions(qs, exact=exact)
    check_self_map(SeriesFunc(series))
    return series
