"""Checkers for the benchmark's outputs, computed apart from slicereg.

Everything here works on plain NumPy arrays, quaternions as ``(..., 4)``
float arrays ``(w, x, y, z)``.  No function imports slicereg, so a fault in
the program cannot hide in its own checker.  Each checker returns a list of
problems; an empty list means the output is accepted.
"""

from __future__ import annotations

import numpy as np

# acceptance tolerances of the program's own criteria
RESIDUAL_TOL = 1e-9
SELF_MAP_TOL = 1e-9
SERIES_AGREEMENT_TOL = 1e-9
CLOSED_FORM_TOL = 1e-12
# the representation formula and the classical f^h hold to ~1e-16 here;
# these leave four orders of magnitude for rounding
REPRESENTATION_TOL = 1e-12
FH_TOL = 1e-12
# a Pick matrix counts as clearly decided when its smallest eigenvalue is
# this far from 0, relative to its largest one
PICK_MARGIN = 1e-10


def qmul(a, b) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def qconj(a) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out[..., 1:] = -out[..., 1:]
    return out


def qinv(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return qconj(a) / np.sum(a * a, axis=-1, keepdims=True)


def qabs(a) -> np.ndarray:
    return np.linalg.norm(np.asarray(a, dtype=float), axis=-1)


# -- Nevanlinna-Pick -----------------------------------------------------


def pick_min_eig(nodes, values):
    """(min eigenvalue, scale) of the Pick matrix of real-node data.

    Entries use the closed form (1 - s_m conj(s_l)) / (1 - r_m r_l); the
    quaternion matrix is tested through its 2n x 2n complex embedding
    a + b j -> [[a, b], [-conj(b), conj(a)]].
    """
    r = np.asarray(nodes, dtype=float)
    s = np.asarray(values, dtype=float)
    w = -qmul(s[:, None, :], qconj(s)[None, :, :])
    w[..., 0] += 1.0
    p = w / (1.0 - r[:, None] * r[None, :])[..., None]
    a = p[..., 0] + 1j * p[..., 1]
    b = p[..., 2] + 1j * p[..., 3]
    n = len(r)
    emb = np.empty((2 * n, 2 * n), dtype=complex)
    emb[0::2, 0::2] = a
    emb[0::2, 1::2] = b
    emb[1::2, 0::2] = -np.conj(b)
    emb[1::2, 1::2] = np.conj(a)
    eigs = np.linalg.eigvalsh(emb)
    return float(eigs.min()), max(1.0, float(np.abs(eigs).max()))


def pick_verdict(nodes, values):
    """True (solvable), False (not solvable) or None (too close to call)."""
    min_eig, scale = pick_min_eig(nodes, values)
    if abs(min_eig) < PICK_MARGIN * scale:
        return None
    return min_eig > 0.0


def check_verdict(solvable: bool, expected: bool, what="verdict"):
    if solvable != expected:
        return [f"{what}: program says solvable={solvable}, "
                f"Pick test says {expected}"]
    return []


def two_point_q_abs2(lam: float, mu: float) -> float:
    """|Q_1^2|^2 for nodes (-1/2, 1/2) and values (lam i, mu j)."""
    return (25.0 / 16.0) * (lam * lam + mu * mu) / (1.0 + lam * lam * mu * mu)


def three_point_cells(lam: float, mu: float):
    """Q_1^2, Q_1^3, Q_2^3 for nodes (0, -1/2, 1/2), values (0, lam i, mu j)."""
    q12 = np.array([0.0, -2.0 * lam, 0.0, 0.0])
    q13 = np.array([0.0, 0.0, 2.0 * mu, 0.0])
    den = np.array([1.0, 0.0, 0.0, 4.0 * lam * mu])
    q23 = qmul(qinv(den), np.array([0.0, lam, mu, 0.0])) * 2.5
    return {(1, 2): q12, (1, 3): q13, (2, 3): q23}


def check_close(got, expected, tol, what):
    err = float(np.max(np.abs(np.asarray(got, float) - np.asarray(expected, float))))
    if not err <= tol:
        return [f"{what}: off by {err:.3g} (tolerance {tol:g})"]
    return []


# -- interpolant evaluation ----------------------------------------------


def check_residuals(values_at_nodes, targets, tol=RESIDUAL_TOL):
    err = qabs(np.asarray(values_at_nodes) - np.asarray(targets))
    if not np.all(err <= tol):
        return [f"node residual {float(err.max()):.3g} exceeds {tol:g}"]
    return []


def check_self_map(values, tol=SELF_MAP_TOL):
    top = float(qabs(values).max())
    if not top <= 1.0 + tol:
        return [f"sampled |f| = {top:.17g} leaves the unit ball"]
    return []


def representation_rhs(unit_i, unit_j, f_plus, f_minus):
    """(1/2)(1 - IJ) f(x + yJ) + (1/2)(1 + IJ) f(x - yJ)."""
    ij = qmul(unit_i, unit_j)
    one = np.array([1.0, 0.0, 0.0, 0.0])
    return 0.5 * (qmul(one - ij, f_plus) + qmul(one + ij, f_minus))


def check_representation(unit_i, unit_j, f_i, f_plus, f_minus,
                         tol=REPRESENTATION_TOL):
    """f(x+yI) against the representation formula from the slice of J."""
    err = qabs(np.asarray(f_i) - representation_rhs(unit_i, unit_j,
                                                    f_plus, f_minus))
    if not np.all(err <= tol):
        return [f"representation formula off by {float(err.max()):.3g}"]
    return []


# -- hyperbolic derivative -----------------------------------------------


def classical_fh(coeffs, z):
    """f'(z)(1 - |z|^2)/(1 - |f(z)|^2) for f = sum c_m z^m on the disk."""
    c = np.asarray(coeffs, dtype=complex)
    z = np.asarray(z, dtype=complex)
    f = np.polyval(c[::-1], z)
    df = np.polyval((c[1:] * np.arange(1, len(c)))[::-1], z)
    return df * (1.0 - np.abs(z) ** 2) / (1.0 - np.abs(f) ** 2)


def embed(c, axis):
    """Re c + (Im c) axis as a quaternion array."""
    c = np.asarray(c, dtype=complex)
    return (np.real(c)[..., None] * np.array([1.0, 0.0, 0.0, 0.0])
            + np.imag(c)[..., None] * np.asarray(axis, dtype=float))


def check_fh(got, coeffs, z, axis, tol=FH_TOL):
    """Program's f^h on C_I against the classical complex formula."""
    return check_close(got, embed(classical_fh(coeffs, z), axis), tol,
                       "f^h against f'(z)(1-|z|^2)/(1-|f(z)|^2)")


def check_fh_q2(got_abs, r, tol=FH_TOL):
    """Equality case f = q^2: |f^h(r)| = 2r/(1+r^2) at real r."""
    return check_close(got_abs, 2.0 * r / (1.0 + r * r), tol,
                       "|f^h(r)| for f = q^2")


# -- backend agreement ---------------------------------------------------


def check_series_agreement(exact, approx, tol=SERIES_AGREEMENT_TOL):
    """Exact tree and truncated series agree at every sample (absolute)."""
    gap = qabs(np.asarray(exact) - np.asarray(approx))
    if not np.all(gap <= tol):
        return [f"exact and series values differ by {float(gap.max()):.3g}"]
    return []
