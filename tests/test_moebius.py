import dataclasses
import json
import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from slicereg import moebius as mo
from slicereg import qarray
from slicereg import series as se
from slicereg.errors import (
    NotInvertibleAtZero,
    SingularDenominator,
    SingularPoint,
    SliceRegError,
)
from slicereg.hyperbolic import HyperbolicQuotient, hyperbolic_quotient
from slicereg.interpolation import (
    InterpolationProblem,
    build_q_table,
    build_solution,
    classify,
    pick_matrix,
)
from slicereg.moebius import (
    BlaschkeProduct,
    Bullet,
    Conj,
    Const,
    Identity,
    Moebius,
    SchurChain,
    SeriesFunc,
    StarInv,
    StarMul,
    Sum,
    blaschke_to_expr,
    dieudonne_det,
    expr_from_json,
    _moebius_scaled,
    expr_to_series,
    moebius_classical_eval,
)
from slicereg.quaternion import I, J, K, ONE, Quaternion, ZERO
from slicereg.series import TaylorSeries
from slicereg.verify import _ball_max, check_self_map

from conftest import random_blaschke_expr
from test_interpolation import _hconj, _hmul
from test_series import (
    dyadic_polynomial,
    exact_coeffs,
    exact_relative_error,
    exact_star_inverse,
    exact_star_mul,
)


def rand_q(rng, cap):
    v = rng.uniform(-1, 1, 4)
    n = np.linalg.norm(v)
    v = v / n * cap * rng.uniform(0.1, 0.95)
    return Quaternion.from_iter(v)


class TestClassicalMoebius:
    def test_identity_at_zero_parameter(self):
        q = Quaternion(0.2, 0.3, -0.1, 0.4)
        assert moebius_classical_eval(ZERO, q) == q

    def test_vanishes_at_parameter(self):
        p = Quaternion(0.1, 0.2, 0.3, -0.1)
        assert abs(moebius_classical_eval(p, p)) <= 1e-15

    def test_real_example(self):
        # (1/2 + 1/2) / (1 + 1/4) = 4/5
        v = moebius_classical_eval(Quaternion(-0.5), Quaternion(0.5))
        assert v.isclose(Quaternion(0.8), 1e-15)

    def test_noncommuting_example(self):
        lam, mu = 0.3, 0.4
        v = moebius_classical_eval(Quaternion(0, lam), Quaternion(0, 0, mu))
        expect = (ONE - K * (lam * mu)).inverse() * (J * mu - I * lam)
        assert v.isclose(expect, 1e-14)

    def test_singular_denominator(self):
        # denominator 1 - q conj(p) vanishes at q = 1/conj(p)... use |p|=\
        # a point where 1 - q conj(p) = 0: q = p / |p|^2
        p = Quaternion(0.5)
        with pytest.raises(SingularDenominator):
            moebius_classical_eval(p, Quaternion(2.0))

    def test_bitwise_the_quaternion_formula(self):
        # the kernel runs on floats in the operation order of this
        # expression, so every component, signed zeros included, is the
        # same; it refuses exactly where the expression's |den| <= 1e-13
        rng = np.random.default_rng(28)
        pairs = [(Quaternion(0.5), Quaternion(2.0))]
        for _ in range(400):
            pairs.append((rand_q(rng, 0.95), rand_q(rng, 1.0)))
            pairs.append((ZERO, rand_q(rng, 1.0)))
            pairs.append((Quaternion(rng.uniform(-0.95, 0.95)),
                          rand_q(rng, 1.0)))
            pairs.append((Quaternion(rng.uniform(-0.95, 0.95)),
                          Quaternion(rng.uniform(-3.0, 3.0))))
            p = rand_q(rng, 0.95)
            pairs.append((p, p))
        for _ in range(1000):
            # q = (1 + e) / conj(p), so that |1 - q conj(p)| = |e| spans
            # 1e-15 .. 1e-11 around the threshold
            p = rand_q(rng, 1.0)
            if rng.random() < 0.3:
                p = Quaternion(p.w)
            e = rand_q(rng, 1.0)
            e = e * (10.0 ** rng.uniform(-15, -11) / abs(e))
            pairs.append((p, (ONE + e) * p * (1.0 / p.abs2())))
        refused = 0
        for p, q in pairs:
            den = ONE - q * p.conj()
            if abs(den) <= 1e-13:
                refused += 1
                with pytest.raises(SingularDenominator):
                    moebius_classical_eval(p, q)
                continue
            want = den.inverse() * (q - p)
            got = moebius_classical_eval(p, q)
            assert [x.hex() for x in got.components()] == \
                [x.hex() for x in want.components()], (p, q)
        assert refused >= 200 and len(pairs) - refused >= 2000

    def test_scaled_kernel_is_the_quotient_by_its_scale(self):
        # build_q_table divides inside the kernel by the real node scale
        # M_{r_k}(r_l), so that a cell builds one Quaternion; each component
        # is bitwise that of moebius_classical_eval(p, q) / scale, signed
        # zeros included
        rng = np.random.default_rng(30)
        real = [Quaternion(rng.uniform(-0.95, 0.95)) for _ in range(100)]
        signed = [Quaternion(-0.0, 0.3), Quaternion(0.0, -0.0, 0.0, -0.2),
                  Quaternion(-0.0, -0.0, -0.0, -0.0), ZERO]
        ps = [rand_q(rng, 0.95) for _ in range(200)] + real + signed
        qs = [rand_q(rng, 1.0) for _ in range(200)] + real[::-1] + signed
        negative_zeros = 0
        for p, q in zip(ps + signed * 4, qs + signed[::-1] * 4):
            for scale in (rng.uniform(-3.0, 3.0), -rng.uniform(1e-9, 1e-3),
                          1.0, -1.0):
                want = [x.hex() for x in
                        (moebius_classical_eval(p, q) / scale).components()]
                got = _moebius_scaled(p, q, scale)
                assert [x.hex() for x in got.components()] == want, \
                    (p, q, scale)
                negative_zeros += want.count("-0x0.0p+0")
        assert negative_zeros > 0


class TestRegularMoebius:
    def test_vanishes_at_parameter(self):
        p = Quaternion(0.2, 0.1, -0.3, 0.2)
        assert abs(Moebius(p).eval(p)) <= 1e-14

    def test_real_parameter_matches_classical(self, rng):
        m = Moebius(Quaternion(-0.5))
        for _ in range(50):
            q = rand_q(rng, 0.9)
            a = m.eval(q)
            b = moebius_classical_eval(Quaternion(-0.5), q)
            assert abs(a - b) <= 1e-13

    def test_i_half_at_j(self):
        # the intertwining rotation sends j to 0.8 i + 0.6 j, and the
        # classical map returns it to j
        v = Moebius(I * 0.5).eval(J)
        assert v.isclose(J, 1e-13)

    def test_series_backend_agrees(self, rng):
        p = Quaternion(0.2, 0.3, -0.1, 0.15)
        expr = Moebius(p)
        fs = expr.to_series(order=200)
        for _ in range(50):
            q = rand_q(rng, 0.8)
            exact = expr.eval(q)
            approx, tail = se.evaluate(fs, q)
            assert abs(exact - approx) <= tail + 1e-10

    def test_series_coefficients(self):
        p = Quaternion(0.25, 0.1, -0.2, 0.05)
        u = I
        fs = Moebius(p, u).to_series(order=20)
        assert fs.coefficient(0).isclose(-(p * u), 1e-15)
        factor = Quaternion(1 - p.abs2())
        pw = ONE
        for m in range(1, 10):
            assert fs.coefficient(m).isclose(pw * factor * u, 1e-14)
            pw = pw * p.conj()

    @pytest.mark.parametrize("order", [1, 64, 512])
    @pytest.mark.parametrize("p", [
        ZERO, Quaternion(-0.5),
        Quaternion(0.3, 0.5, -0.6, 0.2) * (0.9 / math.sqrt(0.74))])
    def test_coefficients_match_scalar_formula(self, p, order):
        u = Quaternion(0.6, 0.0, 0.8, 0.0)
        expect = [(-p) * u]
        pw = ONE
        for _ in range(order):
            expect.append(pw * (1.0 - p.abs2()) * u)
            pw = pw * p.conj()
        expect = np.array([q.components() for q in expect])
        fs = Moebius(p, u).to_series(order)
        assert fs.coeffs.shape == expect.shape
        assert np.abs(fs.coeffs - expect).max() <= 1e-14 * np.abs(expect).max()
        ap = abs(p)
        cert = (max(ap, (1.0 - ap * ap) / ap), ap) if ap > 0 else (2.0, 0.5)
        assert (fs.coeff_bound, fs.growth_rate) == cert

    def test_multiply_by_denominator_gives_numerator(self):
        # (1 - q conj(p)) * M_p = (q - p) u
        p = Quaternion(0.2, -0.3, 0.1, 0.1)
        fs = Moebius(p).to_series(order=80)
        den = TaylorSeries.from_quaternions([ONE, -p.conj()], exact=True)
        prod = se.star_mul(den, fs)
        assert abs(prod.coefficient(0) - (-p)) <= 1e-12
        assert abs(prod.coefficient(1) - ONE) <= 1e-12
        assert np.abs(prod.coeffs[2:]).max() <= 1e-10

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Moebius(Quaternion(1.0))
        with pytest.raises(ValueError):
            Moebius(Quaternion(0.5), Quaternion(0.5))  # u not unimodular
        with pytest.raises(ValueError):
            Moebius(Quaternion(0.0, 1.2))


class TestExpressions:
    def test_bullet_with_zero_parameter_is_inner(self, rng):
        f = Moebius(Quaternion(0.3, 0.1, 0.0, -0.2))
        e = Bullet(ZERO, f)
        for _ in range(30):
            q = rand_q(rng, 0.9)
            assert abs(e.eval(q) - f.eval(q)) <= 1e-13

    def test_bullet_interpolation_step(self):
        # Bullet(-s, Moebius(r) * const) sends r to s
        r, s = 0.3, Quaternion(0.1, 0.2, -0.3, 0.05)
        e = Bullet(-s, StarMul(Moebius(Quaternion(r)), Const(I)))
        assert abs(e.eval(Quaternion(r)) - s) <= 1e-13

    def test_starmul_of_identities_is_square(self, rng):
        e = StarMul(Identity(), Identity())
        for _ in range(20):
            q = rand_q(rng, 0.9)
            assert abs(e.eval(q) - q * q) <= 1e-14

    def test_star_inverse_pointwise_law(self, rng):
        # h^{-*} * h = 1 at sampled points via series backend
        p = Quaternion(0.2, 0.15, -0.1, 0.1)
        h = Sum(Const(ONE), StarMul(Const(Quaternion(-1.0)),
                                       StarMul(Identity(), Const(p))))
        e = StarMul(StarInv(h), h)
        for _ in range(20):
            q = rand_q(rng, 0.8)
            assert abs(e.eval(q) - ONE) <= 1e-12

    def test_star_inverse_singular_sphere(self):
        p = Quaternion(0.0, 0.5)
        e = StarInv(Moebius(p))
        with pytest.raises(SingularPoint):
            e.eval(p)

    def test_bullet_singular_denominator(self):
        # 1 - conj(p) f = 1 - 0.5 * 2 vanishes everywhere
        with pytest.raises(SingularDenominator):
            Bullet(0.5, Const(2.0)).eval(Quaternion(0.1, 0.2))

    def test_singular_stems(self):
        # n(1 - z conj(p)) = 1 - 2 z Re p + |p|^2 z^2 vanishes at z = 2 for
        # p = 0.5 and at z = 2i for p = 0.5 i; n(1 - 0.5 * 2) at every z
        with pytest.raises(SingularDenominator):
            Moebius(0.5).eval_many(np.array([2.0 + 0j]))
        with pytest.raises(SingularDenominator):
            Moebius(Quaternion(0, 0.5)).eval_many(np.array([2.0j]))
        with pytest.raises(SingularDenominator):
            Bullet(0.5, Const(2.0)).eval_many(np.array([0.3 + 0.1j]))

    def test_bullet_inverse_cancellation(self, rng):
        p = Quaternion(0.2, 0.1, -0.15, 0.05)
        f = Moebius(Quaternion(0.3, -0.1, 0.2, 0.0))
        e = Bullet(-p, Bullet(p, f))
        for _ in range(25):
            q = rand_q(rng, 0.8)
            assert abs(e.eval(q) - f.eval(q)) <= 1e-10


def _node_count(e):
    children = [getattr(e, a) for a in ("left", "right", "inner")
                if hasattr(e, a)]
    return 1 + sum(_node_count(c) for c in children)


class TestStemEvaluation:
    def test_each_node_evaluated_once(self, monkeypatch):
        nodes = list(np.linspace(-0.6, 0.6, 12))
        values = [(I * 0.4 + J * 0.2) * r for r in nodes]
        table = build_q_table(InterpolationProblem(nodes, values))
        f = expr_from_json(build_solution(table, classify(table)).to_json())
        calls = []
        for cls in (Const, Identity, Moebius, Sum, StarMul, StarInv, Conj,
                    Bullet, SeriesFunc):
            def counted(self, points, memo=None, orig=cls.eval_many):
                calls.append(self)
                return orig(self, points, memo)
            monkeypatch.setattr(cls, "eval_many", counted)
        v = f.eval(Quaternion(0.1, 0.2, -0.1, 0.3))
        assert abs(v) < 1.0
        assert len(calls) == _node_count(f) == 3 * 12 + 1


# -- exact stems ------------------------------------------------------


class _ExactC:
    """Exact complex number a + bi with Fraction parts."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return _ExactC(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return _ExactC(self.a - o.a, self.b - o.b)

    def __neg__(self):
        return _ExactC(-self.a, -self.b)

    def __mul__(self, o):
        return _ExactC(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a)

    def inverse(self):
        n = self.a * self.a + self.b * self.b
        return _ExactC(self.a / n, -self.b / n)

    def norm2(self) -> Fraction:
        return self.a * self.a + self.b * self.b


# elements of H(x)C as 4-tuples of _ExactC; the complex unit commutes with H


def _h(q: Quaternion):
    return tuple(_ExactC(c) for c in q.components())


def _h_scalar(z: _ExactC):
    return (z, _ExactC(0), _ExactC(0), _ExactC(0))


def _h_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def _h_conj(x):
    return (x[0], -x[1], -x[2], -x[3])


def _h_mul(x, y):
    a0, a1, a2, a3 = x
    b0, b1, b2, b3 = y
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def _h_inv(x, dens):
    """x^{-1} = x^c / n(x); |n(x)| is appended to ``dens``."""
    n = x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3]
    dens.append(n.norm2())
    return tuple(c * n.inverse() for c in _h_conj(x))


def _exact_stem(e, z: _ExactC, dens):
    """The stem of e at z in exact arithmetic, by the defining formulas
    (F - p)(1 - conj(p) F)^{-1} of Bullet, (1 - z conj(p))^{-1}(z - p) u of
    Moebius and M_p^{-*}(z) (M_{f(p)} . F)(z) of a quotient, with the
    quotient's own f(p); the squared moduli of the inverted n(.) go to
    ``dens``."""
    one = _h_scalar(_ExactC(1))
    if isinstance(e, HyperbolicQuotient):
        if e.fp is None:
            return _h(e.unimodular_value)
        return _h_mul(_exact_inverse_stem(e.p, z, dens),
                      _exact_stem(Bullet(e.fp, e.base), z, dens))
    if isinstance(e, Const):
        return _h(e.value)
    if isinstance(e, Identity):
        return _h_scalar(z)
    if isinstance(e, Moebius):
        p = _h(e.p)
        den = _h_sub(one, _h_mul(_h_scalar(z), _h_conj(p)))
        out = _h_mul(_h_inv(den, dens), _h_sub(_h_scalar(z), p))
        return _h_mul(out, _h(e.u))
    if isinstance(e, Bullet):
        F = _exact_stem(e.inner, z, dens)
        p = _h(e.p)
        den = _h_sub(one, _h_mul(_h_conj(p), F))
        return _h_mul(_h_sub(F, p), _h_inv(den, dens))
    if isinstance(e, StarMul):
        return _h_mul(_exact_stem(e.left, z, dens),
                      _exact_stem(e.right, z, dens))
    if isinstance(e, SchurChain):
        return _exact_stem(_nested(e.nodes, e.ps, e.h), z, dens)
    raise TypeError(f"no exact rule for {e!r}")


# radii of Cauchy circles, where stems are evaluated off the unit disc
CIRCLES = (1.05, 1.2, 1.6, 2.0, 3.0)
U = Quaternion(0.5, -0.5, 0.5, 0.5)
P_REAL, P_IMAG = Quaternion(0.5), Quaternion(0.3, -0.4, 0.2, 0.5)


def _interpolant_8():
    """A non-singular n = 8 real-node interpolant of 0.95 times a degree-9
    Blaschke product."""
    rng = np.random.default_rng(3)
    nodes = list(np.linspace(-0.7, 0.7, 8))
    while True:
        f = random_blaschke_expr(rng, 9)
        table = build_q_table(InterpolationProblem(
            nodes, [f.eval(Quaternion(r)) * 0.95 for r in nodes]))
        kind = classify(table)
        if kind.variant == "non_singular":
            return build_solution(table, kind)


class TestExactStems:
    """eval_many at complex points against the defining formulas of the
    stem rules evaluated exactly, with the error relative to max(1, |F|):
    within 2e-15 at |z| <= 0.99 and within 2e-14 on Cauchy circles,
    where the stems grow and errors propagate through nested nodes.  Circle
    points with an inverted n(.) below 1e-2 in modulus are near a pole and
    are skipped.
    """

    @staticmethod
    def _worst(e, points):
        worst, kept = 0.0, 0
        for z in points:
            dens = []
            exact = _exact_stem(e, _ExactC(z.real, z.imag), dens)
            if min(dens, default=1) < Fraction(1, 10 ** 4):
                continue
            exact = np.array([complex(float(c.a), float(c.b)) for c in exact])
            got = e.eval_many(np.array([z]))[0]
            err = np.linalg.norm(got - exact) / max(1.0, np.linalg.norm(exact))
            worst, kept = max(worst, err), kept + 1
        return worst, kept

    def _check(self, e, rng, count=20, per_circle=4):
        disc = np.concatenate([[0.0, 0.7, -0.99, 0.99j], 0.99 * np.sqrt(
            rng.random(count)) * np.exp(1j * np.pi * rng.random(count))])
        worst, kept = self._worst(e, disc)
        assert kept == len(disc) and worst <= 2e-15
        circles = np.concatenate([r * np.exp(1j * np.linspace(
            0.1, 3.0, per_circle)) for r in CIRCLES])
        worst, kept = self._worst(e, circles)
        assert kept >= len(circles) // 2 and worst <= 2e-14

    @pytest.mark.parametrize("p", [P_REAL, P_IMAG, ZERO])
    def test_moebius(self, p, rng):
        self._check(Moebius(p, U), rng)

    @pytest.mark.parametrize("p", [P_REAL, P_IMAG, ZERO])
    def test_bullet(self, p, rng):
        inner = StarMul(Moebius(Quaternion(0.2, 0.3, 0.0, -0.4), U),
                        Const(Quaternion(0.1, -0.5, 0.3, 0.2)))
        self._check(Bullet(p, inner), rng)

    def test_nested_chain(self, rng):
        e = Bullet(P_IMAG, StarMul(
            Moebius(Quaternion(-0.4), U),
            Bullet(-P_REAL, StarMul(
                Moebius(Quaternion(0.1, 0.0, -0.6, 0.2)),
                Bullet(Quaternion(0.0, 0.2, 0.1, -0.3), Identity())))))
        self._check(e, rng)

    def test_interpolant(self, rng):
        # about 0.15 s a point in exact arithmetic
        self._check(_interpolant_8(), rng, count=4, per_circle=2)

    def test_quotient(self):
        # 12 quotients f*_p of degree-2 and -3 Blaschke maps, read on the
        # 0.95-disc at distance >= 0.1 from z_p = x + iy and conj(z_p), and
        # at distance d = 1e-2 and 1e-3 from each.  Far from them the error
        # is that of the other stems (6.6e-16 at worst).  Next to them the
        # stem rule multiplies the pole of M_p^{-*} by a zero of
        # M_{f(p)} . F, and the error grows as 1 / d: 1.4e-14 at 1e-2 and
        # 1.4e-13 at 1e-3 at worst
        rng = np.random.default_rng(3)
        far = {}
        near = {1e-2: {}, 1e-3: {}}
        for k in range(12):
            f = random_blaschke_expr(rng, 2 + k % 2)
            p = qarray.to_quaternion(qarray.uniform_ball(rng, 1, 0.8)[0])
            hq = hyperbolic_quotient(f, p)
            assert not hq.is_unimodular_constant
            zp = np.array([complex(p.w, p.im_norm()),
                           complex(p.w, -p.im_norm())])
            zs = 0.95 * np.sqrt(rng.random(3)) * np.exp(
                1j * np.pi * rng.random(3))
            far[hq] = zs[np.abs(zs[:, None] - zp).min(axis=1) >= 0.1]
            for d, points in near.items():
                points[hq] = zp + d * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        assert sum(map(len, far.values())) >= 24
        for bound, points in [(2e-15, far)] + [
                (1e-15 / d, points) for d, points in near.items()]:
            for hq, zs in points.items():
                exact = [_exact_stem(hq, _ExactC(z.real, z.imag), [])
                         for z in zs]
                assert _relative_errors(hq.eval_many(zs), exact, 1.0).max(
                    initial=0.0) <= bound


def _exact_inverse_stem(p: Quaternion, z: _ExactC, dens=None):
    """The stem (z - p)^{-1} (1 - z conj(p)) of M_p^{-*} in exact
    arithmetic; |n(z - p)|^2 goes to ``dens`` when one is given."""
    zz, q = _h_scalar(z), _h(p)
    den = _h_sub(_h_scalar(_ExactC(1)), _h_mul(zz, _h_conj(q)))
    return _h_mul(_h_inv(_h_sub(zz, q), [] if dens is None else dens), den)


class _QuotientLeft(mo.FunctionExpr):
    """M_p^{-*} as the quotient f*_p reads it: the closed-form stem
    (moebius._moebius_stem) on the quotient's own constants, refusing as
    the quotient's stem rule does."""

    def __init__(self, p: Quaternion):
        self.hq = HyperbolicQuotient(Identity(), p, ZERO)

    @mo._stem_rule
    def eval_many(self, z, memo):
        return mo._moebius_stem(z, *self.hq._consts, self.hq, inverse=True)


def _relative_errors(got, exact, floor=0.0):
    """|got - exact| / max(floor, |exact|) row by row, for exact stems
    given as 4-tuples of _ExactC."""
    exact = np.array([[complex(float(c.a), float(c.b)) for c in x]
                      for x in exact])
    return np.linalg.norm(got - exact, axis=1) / np.maximum(
        floor, np.linalg.norm(exact, axis=1))


# a unit quaternion whose floating-point norm is 1 - 1.1e-16, and points p
# with real ones among them
U_ROUNDED = Quaternion(*(np.array([1.0, -2.0, 3.0, 4.0]) / math.sqrt(30.0)))
CLOSED_FORM_PS = [Quaternion(0.9), Quaternion(-0.3), P_IMAG,
                  Quaternion(-0.7, 0.1, 0.0, 0.3), ZERO]


class TestClosedFormStems:
    """The closed-form stems (a u - b v u) / d of Moebius(p, u) and of the
    quotient's M_p^{-*} factor (moebius._moebius_stem) against their defining
    formulas (1 - z conj(p))^{-1} (z - p) u and (z - p)^{-1} (1 - z conj(p))
    in exact arithmetic."""

    @staticmethod
    def sphere(p: Quaternion):
        """x + iy and x - iy, where n(z - p) vanishes: S_p on the slice."""
        return [complex(p.w, p.im_norm()), complex(p.w, -p.im_norm())]

    def poles(self, p: Quaternion):
        """(x + iy) / |p|^2 and its conjugate, where n(1 - z conj(p))
        vanishes: the poles of M_p."""
        return [z / p.abs2() for z in self.sphere(p)]

    @staticmethod
    def next_to(z0, distance=1e-3):
        """Points at relative distance ``distance`` from z0, on 7 angles."""
        return z0 * (1.0 + distance * np.exp(1j * np.linspace(0.3, 6.0, 7)))

    def test_on_the_disc(self):
        # 24 points of the 0.95-disc, errors relative to max(1, |F|): the
        # worst is 3.3e-16 for Moebius and 3.5e-16 for M_p^{-*}; the general
        # action that Moebius ran before was off by 1.0e-14 at p = 0.9,
        # z = 0.95, and StarInv(Moebius(p)) by 1.5e-14
        rng = np.random.default_rng(61)
        zs = np.concatenate([[0.0, 0.95, -0.95, 0.95j], 0.95 * np.sqrt(
            rng.random(20)) * np.exp(1j * np.pi * rng.random(20))])
        for p in CLOSED_FORM_PS:
            for u in (U_ROUNDED, U):
                e = Moebius(p, u)
                exact = [_exact_stem(e, _ExactC(z.real, z.imag), [])
                         for z in zs]
                assert _relative_errors(e.eval_many(zs), exact, 1.0).max() \
                    <= 1e-15
            e = _QuotientLeft(p)
            zs_off = zs[zs != 0.0] if p == ZERO else zs
            exact = [_exact_inverse_stem(p, _ExactC(z.real, z.imag))
                     for z in zs_off]
            assert _relative_errors(e.eval_many(zs_off), exact, 1.0).max() \
                <= 1e-15

    def test_next_to_the_pole(self):
        # at relative distance 1e-3 from a pole of M_p, and for M_p^{-*}
        # also from its zeros there and from its own poles on S_p, the worst
        # relative error is 1.5e-13.  The general action that Moebius ran
        # before was off by 3.3e-10 at the real p = 0.9 and -0.3 with u =
        # U_ROUNDED, and StarInv(Moebius(p)) by 2.2e-10 at its zeros and
        # 4.0e-13 next to S_p
        worst = 0.0
        for p in CLOSED_FORM_PS[:-1]:
            e, inv = Moebius(p, U_ROUNDED), _QuotientLeft(p)
            for z0 in self.poles(p):
                zs = self.next_to(z0)
                for node, rule in (
                        (e, lambda z: _exact_stem(e, z, [])),
                        (inv, lambda z: _exact_inverse_stem(p, z))):
                    exact = [rule(_ExactC(z.real, z.imag)) for z in zs]
                    worst = max(worst, _relative_errors(
                        node.eval_many(zs), exact).max())
            for z0 in self.sphere(p):
                zs = self.next_to(z0)
                exact = [_exact_inverse_stem(p, _ExactC(z.real, z.imag))
                         for z in zs]
                worst = max(worst, _relative_errors(inv.eval_many(zs),
                                                    exact).max())
        assert worst <= 1e-12

    @staticmethod
    def refusal(node, z):
        try:
            node.eval_many(np.atleast_1d(z))
        except SliceRegError as exc:
            return type(exc)
        return None

    @pytest.mark.parametrize("p", CLOSED_FORM_PS)
    def test_refuses_where_the_inverse_of_moebius_refuses(self, p):
        # on S_p, inside the band n(M_p(z)) <= 1e-13 and a factor 10 outside
        # it, and at a pole of M_p, alone or in a batch with a point of S_p:
        # the quotient's factor raises exactly where StarInv(Moebius(p))
        # raises, with the same exception type
        factor, tree = _QuotientLeft(p), StarInv(Moebius(p))
        x, y = p.w, p.im_norm()
        sphere = self.sphere(p)[0]
        d = abs((1.0 - sphere * x) ** 2 + sphere ** 2 * y * y)
        cases = [(sphere, SingularPoint)]
        for ratio, raises in ((1e-15, True), (1e-14, True), (1e-12, False),
                              (1e-11, False)):
            # n(z - p) = 2 i y eps + eps^2 next to x + iy
            eps = ratio * d / (2.0 * y) if y else math.sqrt(ratio * d)
            cases += [(z, SingularPoint if raises else None)
                      for z in (sphere + eps, sphere + 1j * eps)]
        if p != ZERO:
            pole = self.poles(p)[0]
            cases += [(pole, SingularDenominator),
                      (np.array([sphere, pole]), SingularDenominator)]
        for z, expect in cases:
            assert self.refusal(tree, z) is expect
            assert self.refusal(factor, z) is expect


def _nested(nodes, ps, h):
    """M_{p_1}.(M_{r_1} * (... M_{p_n}.(M_{r_n} * h))) as Bullet, StarMul and
    Moebius nodes."""
    for r, p in zip(reversed(nodes), reversed(ps)):
        h = Bullet(p, StarMul(Moebius(Quaternion(r)), h))
    return h


def _hand_chain(table, kind, h):
    """The interpolant of ``table`` built node by node, from the cells:
    p_k = -Q_{k-1}^k, and the singular variant stops at kappa0 with its
    unimodular cell as h."""
    depth = kind.kappa0 if kind.variant == "singular" else table.n
    if kind.variant == "singular":
        h = Const(table.cell(depth, depth + 1).value)
    return _nested(table.problem.nodes[:depth],
                   [-table.cell(k - 1, k).value for k in range(1, depth + 1)],
                   h)


def chain_fraction(f: SchurChain):
    """N and D with f = N * D^{-*}, for a SchurChain over a constant h, by
    the chain's recurrence in exact series arithmetic.  For h = 0 it starts
    from f_n = -p_n at the last node, which leaves out the common factor
    1 - r_n q of N and D."""
    def poly(*coeffs):
        return TaylorSeries(np.array([c.components() for c in coeffs]),
                            exact=True)
    nodes, ps, h = f.nodes, f.ps, f.h.value
    if h == ZERO:
        nodes, ps, h = nodes[:-1], ps[:-1], -ps[-1]
    num, den = poly(h), poly(ONE)
    for r, p in zip(reversed(nodes), reversed(ps)):
        u = se.star_mul(poly(Quaternion(-r), ONE), num)
        v = se.star_mul(poly(ONE, Quaternion(-r)), den)
        num, den = (se.series_add(u, se.star_mul(poly(-p), v)),
                    se.series_add(v, se.star_mul(poly(-p.conj()), u)))
    return num, den


# an exact series self-map of the ball: the norms of its coefficients sum
# to 0.8
H_SERIES = TaylorSeries(np.array([[0.2, 0.1, 0.0, 0.0], [0.0, 0.0, 0.3, 0.0],
                                  [0.0, 0.0, 0.0, -0.3]]), exact=True)
CHAIN_VARIANTS = {
    "zero": (None, Const(ZERO)),
    "unimodular": (U, Const(U)),
    "exact_series": (H_SERIES, SeriesFunc(H_SERIES)),
    "singular": (None, None),
}


def _chain_problem(n, variant, seed=None):
    """A solvable n-node problem: 0.9 times a degree-(n + 1) Blaschke product
    at the nodes, or, for the singular variant, a degree-(n - 1) one."""
    rng = np.random.default_rng(n if seed is None else seed)
    nodes = list(np.linspace(-0.7, 0.7, n) + rng.uniform(-0.05, 0.05, n))
    while True:
        if variant == "singular":
            f, scale = random_blaschke_expr(rng, n - 1), 1.0
        else:
            f, scale = random_blaschke_expr(rng, n + 1), 0.9
        table = build_q_table(InterpolationProblem(
            nodes, [f.eval(Quaternion(r)) * scale for r in nodes]))
        kind = classify(table)
        want = "singular" if variant == "singular" else "non_singular"
        if kind.variant == want:
            return table, kind


def _record_circles(monkeypatch) -> list:
    """The (R, N, rho) of every circle that _circle_spectrum samples from
    here on, rho None where it locates nothing."""
    circles = []
    spectrum = mo._circle_spectrum

    def recorded(e, radius, samples):
        found, rho = spectrum(e, radius, samples)
        circles.append((radius, samples, rho))
        return found, rho
    monkeypatch.setattr(mo, "_circle_spectrum", recorded)
    return circles


class TestSchurChain:
    """build_solution's one node against the nested chain it stands for."""

    @pytest.mark.parametrize("variant", CHAIN_VARIANTS)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_agrees_with_hand_built_chain(self, n, variant, rng):
        table, kind = _chain_problem(n, variant)
        h, h_expr = CHAIN_VARIANTS[variant]
        f = build_solution(table, kind, h)
        chain = _hand_chain(table, kind, h_expr)
        assert isinstance(f, SchurChain)
        assert json.dumps(f.to_json()) == json.dumps(chain.to_json())
        prob = table.problem
        nodes = np.zeros((prob.n, 4))
        nodes[:, 0] = prob.nodes
        got = f.eval_many(nodes)
        assert np.abs(got - chain.eval_many(nodes)).max() <= 1e-13
        assert np.abs(got - [s.components() for s in prob.values]).max() \
            <= 1e-12
        ball = qarray.uniform_ball(rng, 200, 0.95)
        assert np.abs(f.eval_many(ball) - chain.eval_many(ball)).max() <= 1e-13
        z = 0.99 * np.sqrt(rng.random(50)) * np.exp(2j * np.pi * rng.random(50))
        assert np.abs(f.eval_many(z) - chain.eval_many(z)).max() <= 1e-13

    def test_nodes_lie_where_their_moebius_maps_do(self):
        # a node's M_{r_k} needs |r_k| < 1 - 1e-13, which the message says
        for r in (1 - 1e-14, -(1 - 1e-14), math.nan):
            with pytest.raises(ValueError, match=r"^node must lie strictly "
                               r"inside the unit ball, \|node\| < 1 - 1e-13$"):
                SchurChain([0.0, r], [ZERO, ZERO], Const(ZERO))
        f = SchurChain([1 - 2e-13], [Quaternion(0.3)], Const(ZERO))
        assert abs(f.eval(Quaternion(0.5)) + Quaternion(0.3)) <= 1e-15

    @pytest.mark.parametrize("variant", ["zero", "exact_series", "singular"])
    def test_lowering_matches_chain(self, variant):
        table, kind = _chain_problem(5, variant)
        h, h_expr = CHAIN_VARIANTS[variant]
        f = build_solution(table, kind, h)
        chain = _hand_chain(table, kind, h_expr)
        for order in (3, 64):
            got, want = f.to_series(order), chain.to_series(order)
            assert got.order == want.order == order
            assert np.abs(got.coeffs - want.coeffs).max() <= 1e-13

    def test_radius_from_denominator_roots(self, monkeypatch):
        # R0 is the smallest root modulus of n(D), with D from
        # chain_fraction: the stem's nearest pole.  The failed circles locate
        # it to 1e-4, the circle R = (1 + rho) / 2 that the nearest rho
        # places certifies, and the sampled certificate bounds an order-1024
        # lowering
        table, kind = _chain_problem(6, "zero")
        f = build_solution(table, kind)
        den = chain_fraction(f)[1]
        c = den.coeffs
        r0 = np.abs(np.roots(se._norm_series(c, 2 * len(c) - 2)[::-1])).min()
        circles = _record_circles(monkeypatch)
        s = expr_to_series(f)
        rho = min(rho for _, _, rho in circles if rho is not None)
        assert 1.2 < r0 < 1.35 and s.certificate == "cauchy-sampled"
        assert abs(rho / r0 - 1.0) <= 1e-4
        assert s.growth_rate == 2.0 / (1.0 + rho)
        assert s.tail_bound(0.95) <= 1e-12
        norms = f.to_series(1024).coefficient_norms()
        assert np.all(norms <= s.coeff_bound * s.growth_rate ** np.arange(1025))

    @pytest.mark.parametrize("values", ["zero", "blaschke"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_clustered_nodes(self, sign, values, rng):
        # 8 nodes in [0.90, 0.97] or [-0.97, -0.90]: in the monomial basis
        # |D| falls to ~1e-8 at the nodes against coefficients summing to
        # ~256; the node must still agree with the chain and hit the values
        nodes = list(sign * np.linspace(0.90, 0.97, 8))
        while True:
            if values == "zero":
                targets = [ZERO] * 8
            else:
                b = random_blaschke_expr(rng, 9)
                targets = [b.eval(Quaternion(r)) * 0.9 for r in nodes]
            table = build_q_table(InterpolationProblem(nodes, targets))
            kind = classify(table)
            if kind.variant == "non_singular":
                break
        f = build_solution(table, kind)
        chain = _hand_chain(table, kind, Const(ZERO))
        at = np.zeros((8, 4))
        at[:, 0] = nodes
        got = f.eval_many(at)
        assert np.abs(got - chain.eval_many(at)).max() <= 1e-13
        assert np.abs(got - [t.components() for t in targets]).max() <= 1e-13
        for r, t in zip(nodes, targets):
            assert abs(f.eval(Quaternion(r)) - t) <= 1e-13
        ball = qarray.uniform_ball(rng, 200, 0.95)
        assert np.abs(f.eval_many(ball) - chain.eval_many(ball)).max() <= 1e-13
        z = 0.99 * np.sqrt(rng.random(50)) * np.exp(2j * np.pi * rng.random(50))
        assert np.abs(f.eval_many(z) - chain.eval_many(z)).max() <= 1e-13
        # the lowering is the chain's, so it stays bounded like the chain's
        got, want = f.to_series(256), chain.to_series(256)
        assert np.abs(got.coeffs - want.coeffs).max() <= 1e-13
        assert np.abs(got.coeffs).max() <= 1.0

    def test_singular_where_the_chain_is(self):
        # M_{1/2} . (M_{0.3} * 1) has 1 - b(z) / 2 = 0 at z = 2.3 / 1.6, and
        # each step checks its own denominator, as each Bullet of the chain
        f = SchurChain([0.3], [Quaternion(0.5)], Const(ONE))
        for e in (f, f._chain()):
            with pytest.raises(SingularDenominator):
                e.eval_many(np.array([2.3 / 1.6 + 0j]))
        f = SchurChain(list(np.linspace(-0.5, 0.5, 8)),
                       [Quaternion(0.9, 0.3)] * 8, Const(I))

        def raises(e, z):
            try:
                e.eval_many(np.array([z]))
            except SingularDenominator:
                return True
            return False
        # |z| = 2 passes the poles 1 / r_k = +-2 of M_{+-0.5}
        zs = 2.0 * np.exp(1j * np.linspace(0.0, np.pi, 400))
        flags = [raises(f, z) for z in zs]
        assert flags == [raises(f._chain(), z) for z in zs]
        assert sum(flags) == 2

    def test_non_constant_h_is_lowered_like_the_chain(self, rng):
        # no circle of 256 samples counts for the node or its chain (the
        # fitted route gives order 512 and a tail of about 1e-7); the
        # circles that their located poles place certify both, at order 402
        # (R = 1.027 on 2,048 samples)
        table, kind = _chain_problem(3, "zero")
        h = StarMul(Moebius(Quaternion(0.3, 0.2)),
                    Moebius(Quaternion(-0.2, 0.1, 0.3)))
        f = build_solution(table, kind, h)
        s = expr_to_series(f)
        want = expr_to_series(_hand_chain(table, kind, h))
        assert s.certificate == want.certificate == "cauchy-sampled"
        tail, other = s.tail_bound(0.95), want.tail_bound(0.95)
        assert tail <= 1e-12 and other <= 1e-12
        pts = qarray.uniform_ball(rng, 200, 0.95)
        got = se.evaluate_many(s, pts)[0]
        assert np.abs(got - f.eval_many(pts)).max() <= tail
        assert np.abs(got - se.evaluate_many(want, pts)[0]).max() \
            <= tail + other
        assert mo._pole_radius(build_solution(
            table, kind, TaylorSeries(H_SERIES.coeffs, 1.0, 0.6))) is None

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_moebius_h_takes_the_root_rung(self, n, rng):
        # the circles that fail locate the poles of the node over a Moebius
        # h, and the circle the nearest one places gives a Cauchy
        # certificate, where no circle of 256 samples counts
        table, kind = _chain_problem(n, "zero")
        h = Moebius(Quaternion(0.3, 0.2))
        f = build_solution(table, kind, h)
        s = expr_to_series(f)
        assert s.certificate == "cauchy-sampled"
        tail = s.tail_bound(0.95)
        assert tail <= 1e-12
        ref = _hand_chain(table, kind, h).to_series(1024)
        pts = qarray.uniform_ball(rng, 200, 0.95)
        got = se.evaluate_many(s, pts)[0]
        assert np.abs(got - se.evaluate_many(ref, pts)[0]).max() <= tail
        assert np.abs(got - f.eval_many(pts)).max() <= tail

    @pytest.mark.parametrize("variant", CHAIN_VARIANTS)
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_chains_lower_with_cauchy_certificates(self, n, variant):
        table, kind = _chain_problem(n, variant)
        s = expr_to_series(build_solution(table, kind,
                                          CHAIN_VARIANTS[variant][0]))
        assert s.certificate == "cauchy-sampled"
        assert s.tail_bound(0.95) <= 1e-12

    def test_singular_chain_places_a_nearer_rung(self):
        # the circle at 3 and the circles that each failed circle places in
        # turn, R = 2.57, 1.45 and 1.22, locate singularities down to rho =
        # 1.348, and the circle (1 + rho) / 2 = 1.17 certifies on 512
        # samples at order 151, below the order 212 of the radius 1.1
        table, kind = _chain_problem(8, "singular")
        s = expr_to_series(build_solution(table, kind))
        assert s.certificate == "cauchy-sampled"
        assert s.order < 212 and s.tail_bound(0.95) <= 1e-12

    def test_clustered_nodes_lower_with_a_cauchy_certificate(self, rng):
        # 8 nodes in [-0.97, -0.90] put the poles of the stem next to the
        # unit circle, nearer than a circle of 256 samples can certify: the
        # located rho = 1.003 places R = 1.0016 on 32,768 samples.  The
        # order caps at 512 with a tail of 3.2e-11, short of the target (the
        # fitted route gives a fitted tail of 3.9e-8)
        nodes = list(-np.linspace(0.90, 0.97, 8))
        b = random_blaschke_expr(np.random.default_rng(5), 9)
        table = build_q_table(InterpolationProblem(
            nodes, [b.eval(Quaternion(r)) * 0.9 for r in nodes]))
        kind = classify(table)
        assert kind.variant == "non_singular"
        f = build_solution(table, kind)
        s = expr_to_series(f)
        assert s.certificate == "cauchy-sampled"
        tail = s.tail_bound(0.95)
        assert tail <= 1e-10
        pts = qarray.uniform_ball(rng, 200, 0.95)
        assert np.abs(se.evaluate_many(s, pts)[0] - f.eval_many(pts)).max() \
            <= tail

    def test_stems_take_few_hamilton_products(self, monkeypatch):
        # Moebius and Bullet stems take no Hamilton product, and neither
        # does the node for a constant h: at quaternion points the slice
        # read-out takes the only one, whatever n, first evaluation included
        calls = []

        def counted(a, b, orig=qarray.qmul):
            calls.append(1)
            return orig(a, b)
        monkeypatch.setattr(qarray, "qmul", counted)
        z = np.array([0.3 + 0.2j, -0.5 + 0.7j])
        inner = Moebius(Quaternion(0.2, 0.3, 0.0, -0.4), U)
        for e in (Moebius(P_IMAG, U), Bullet(P_IMAG, inner)):
            e.eval_many(z)
            assert len(calls) == 0
        points = np.array([[0.1, 0.2, -0.1, 0.3], [0.4, 0.0, 0.0, 0.0]])
        for n in range(2, 9):
            for variant in ("zero", "unimodular", "singular"):
                table, kind = _chain_problem(n, variant)
                f = build_solution(table, kind, CHAIN_VARIANTS[variant][0])
                for pts, most in ((points, 1), (z, 0), (points, 1)):
                    calls.clear()
                    f.eval_many(pts)
                    assert len(calls) <= most


# one-point reads: a generic point, real points, imaginary parts of +-0.0,
# subnormal imaginary parts whose squares vanish, and one whose sum of
# squares is subnormal but not 0
ONE_POINTS = [Quaternion(0.3, -0.2, 0.1, 0.25), Quaternion(-0.4),
              Quaternion(0.35, -0.0, 0.0, -0.0), Quaternion(-0.0, 0.0, -0.0),
              Quaternion(0.2, 5e-324, 0.0, -0.0),
              Quaternion(-0.1, 1e-310, -3e-320, 0.0),
              Quaternion(0.15, 0.0, -1e-160, 0.0)]
# the sphere S_p of P_ON: there the quotient's stem rule is singular, and
# the quotient is read off its division-route series
P_ON = Quaternion(0.3, 0.2, 0.0, 0.0)
ON_SPHERE = [P_ON, P_ON.conj(), Quaternion(0.3, 0.0, -0.2, 0.0)]
# a truncated series: its fitted tail is read at each point
T_SERIES = TaylorSeries(H_SERIES.coeffs * 0.9, 0.5, 1.01)


def _one_point_cases():
    inner = Moebius(Quaternion(0.2, 0.3, 0.0, -0.4), U)
    leaf = SeriesFunc(H_SERIES)
    return {
        "Const": (Const(U), ONE_POINTS),
        "Identity": (Identity(), ONE_POINTS),
        "Moebius": (Moebius(P_IMAG, U), ONE_POINTS),
        "Sum": (Sum(leaf, inner), ONE_POINTS),
        "StarMul": (StarMul(inner, leaf), ONE_POINTS),
        "StarInv": (StarInv(Sum(Const(Quaternion(2.0)), leaf)), ONE_POINTS),
        "Conj": (Conj(StarMul(leaf, inner)), ONE_POINTS),
        "Bullet": (Bullet(P_IMAG, inner), ONE_POINTS),
        "SeriesFunc_exact": (leaf, ONE_POINTS),
        "SeriesFunc_truncated": (SeriesFunc(T_SERIES), ONE_POINTS),
        "SchurChain": (build_solution(*_chain_problem(4, "zero")),
                       ONE_POINTS),
        "HyperbolicQuotient_rule": (hyperbolic_quotient(leaf, P_ON),
                                    ONE_POINTS),
        "HyperbolicQuotient_series": (hyperbolic_quotient(leaf, P_ON),
                                      ON_SPHERE),
    }


def _hex(values) -> list:
    return [float(x).hex() for x in values]


class TestOnePointRead:
    """A value at one quaternion is read off one stem row in floats, bitwise
    the row that a batch of that one point gives."""

    @pytest.mark.parametrize("name", sorted(_one_point_cases()))
    def test_eval_is_one_row_of_eval_many(self, name):
        f, points = _one_point_cases()[name]
        for q in points:
            row = f.eval_many(np.array([q.components()]))[0]
            assert _hex(f.eval(q).components()) == _hex(row)

    def test_one_point_reads_take_no_hamilton_product(self, monkeypatch):
        # eval on a chain, a Moebius factor and a Bullet tree, whose stems
        # take none, takes none; a quotient of an exact series takes one,
        # the product in its own stem rule, and reads f(p) and its probe
        # value without one
        qmul = qarray.qmul
        chain = build_solution(*_chain_problem(4, "zero"))

        def refused(a, b):
            raise AssertionError("a one-point read took a Hamilton product")
        monkeypatch.setattr(qarray, "qmul", refused)
        inner = Moebius(Quaternion(0.2, 0.3, 0.0, -0.4), U)
        q = Quaternion(0.3, -0.2, 0.1, 0.25)
        for f in (chain, inner, Bullet(P_IMAG, inner)):
            f.eval(q)
        callers = []

        def counted(a, b):
            frame = sys._getframe(1)
            callers.append((frame.f_globals["__name__"],
                            frame.f_code.co_name))
            return qmul(a, b)
        monkeypatch.setattr(qarray, "qmul", counted)
        hq = hyperbolic_quotient(SeriesFunc(H_SERIES), P_IMAG)
        assert not hq.is_unimodular_constant
        assert callers == [("slicereg.hyperbolic", "eval_many")]


class TestBulletSeries:
    """Bullet.to_series against (f - p) * (1 - conj(p) f)^{-*} in exact
    arithmetic, with the *-inverse from its defining recurrence."""

    @pytest.mark.parametrize("p", [P_REAL, P_IMAG, ZERO])
    def test_matches_exact_recurrence(self, p, rng):
        # 40 dyadic polynomials f of degree <= 3 to order 12: the worst
        # error relative to the largest exact coefficient is 1.4e-16 for p
        # real, 2.7e-16 for p non-real and 0 for p = 0; the bound is twice
        pe = exact_coeffs([p.components()])[0]
        worst = 0.0
        for _ in range(40):
            c = dyadic_polynomial(rng, scale=0.5)
            inner = SeriesFunc(TaylorSeries(c, exact=True))
            got = Bullet(p, inner).to_series(12)
            a = exact_coeffs(c)
            num = [tuple(x - y for x, y in zip(a[0], pe))] + a[1:]
            den = [tuple(-x for x in _hmul(_hconj(pe), r)) for r in a]
            den[0] = (1 + den[0][0],) + den[0][1:]
            exact = exact_star_mul(num, exact_star_inverse(den, 12), 12)
            worst = max(worst, exact_relative_error(got.coeffs, exact))
        assert worst <= 6e-16

    @pytest.mark.parametrize("g", [1e-5, 1e-6, 3.3e-7])
    def test_accurate_next_to_the_singular_point(self, g):
        # |1 - conj(p) a_0| = g, next to the refusal at 1e-13 = d_0 = g^2:
        # the series is (a_0 - p) / (1 - p a_0) and zeros, within 1.5e-16
        # relative; the bound leaves room for a few ulps
        a0 = 2.0 - 2.0 * g
        s = Bullet(Quaternion(0.5), Const(a0)).to_series(16)
        exact = (Fraction(a0) - Fraction(1, 2)) / (1 - Fraction(a0) / 2)
        expect = np.zeros((17, 4), dtype=object)
        expect[0, 0] = exact
        err = max(abs(Fraction(float(x)) - y)
                  for x, y in zip(s.coeffs.ravel(), expect.ravel()))
        assert s.order == 16
        assert err <= 1e-15 * abs(exact)

    def test_singular_constant_raises(self):
        # 1 - conj(p) a_0 = 1 - 0.5 * 2 = 0
        with pytest.raises(NotInvertibleAtZero):
            Bullet(Quaternion(0.5), Const(2.0)).to_series(16)

    def test_near_singular_constant_lowers(self):
        # the series refuses where the stem does: d_0 = |1 - conj(p) a_0|^2
        # at most 1e-13, so at |1 - conj(p) a_0| = 1e-7 (d_0 = 1e-14)
        with pytest.raises(NotInvertibleAtZero):
            Bullet(Quaternion(0.5), Const(2.0 - 2e-7)).to_series(16)
        with pytest.raises(SingularDenominator):
            Bullet(Quaternion(0.5), Const(2.0 - 2e-7)).eval(ZERO)
        # at 1e-6 it lowers, and the constant (a_0 - p) / (1 - p a_0) =
        # 1.5e6 is within 1.4e-10 relative, a bound that
        # test_accurate_next_to_the_singular_point tightens to 1e-15
        a0 = 2.0 - 2e-6
        s = Bullet(Quaternion(0.5), Const(a0)).to_series(16)
        exact = (Fraction(a0) - Fraction(1, 2)) / (1 - Fraction(a0) / 2)
        assert s.order == 16
        assert abs(Fraction(s.coeffs[0, 0]) / exact - 1) <= 1.4e-10


class TestConjugation:
    def test_const_and_identity(self):
        assert Const(I).conjugate().eval(ZERO) == -I
        q = Quaternion(0.2, 0.3, 0.1, -0.1)
        assert Identity().conjugate().eval(q) == q

    def test_involution_returns_same_object(self):
        e = StarMul(Moebius(Quaternion(0.2, 0.1)), Const(J))
        assert e.conjugate().conjugate() is e

    def test_matches_coefficient_conjugation(self, rng):
        trees = [
            Moebius(Quaternion(0.2, 0.3, -0.1, 0.1), u=J),
            StarMul(Moebius(Quaternion(0.1, 0.2)), Const(K)),
            Sum(Const(ONE), StarMul(Const(Quaternion(-1.0)),
                                    StarMul(Identity(), Const(I * 0.5)))),
            Bullet(Quaternion(0.1, 0.2, 0.0, -0.1),
                   Moebius(Quaternion(0.25, 0.0, 0.1, 0.0))),
            StarInv(Sum(Const(ONE),
                        StarMul(Const(Quaternion(-1.0)),
                                StarMul(Identity(), Const(J * 0.4))))),
        ]
        pts = np.array([rand_q(rng, 0.6).components() for _ in range(40)])
        for e in trees:
            exact = Conj(e).eval_many(pts)
            approx, tails = se.evaluate_many(
                se.conjugate(e.to_series(64)), pts)
            assert np.all(np.linalg.norm(exact - approx, axis=1)
                          <= tails + 1e-10)


class TestSeriesLowering:
    def test_identity(self):
        fs = Identity().to_series()
        assert fs.coefficient(0) == ZERO and fs.coefficient(1) == ONE

    def test_requested_order_is_honoured(self):
        # the *-inverse of an exact inner series is lowered to the order asked
        bullet = Bullet(Quaternion(0.3, 0.1, 0.0, 0.0), Identity())
        inv = StarInv(Sum(Const(ONE), Identity()))
        for e in (bullet, inv):
            assert e.to_series(256).order == 256
        assert expr_to_series(bullet).tail_bound(0.9) <= 1e-9

    def test_adaptive_order_meets_tail_target(self):
        p = Quaternion(0.5, 0.3)
        fs = expr_to_series(Moebius(p))
        assert fs.tail_bound(0.95) < 1e-10 or fs.exact

    def test_series_leaf_trees_meet_target(self):
        # an exact series leaf counts like a constant, so the criterion-7
        # trees with one take the Cauchy route: all 200 meet the 1e-12
        # target at r = 0.95 (68 did under the fitted doubling loop)
        from test_acceptance import _random_tree
        rng = np.random.default_rng(55)
        lowered = [expr_to_series(with_series_leaf(
            _random_tree(rng, int(rng.integers(1, 5))))) for _ in range(200)]
        met = sum(s.tail_bound(0.95) <= 1e-12 for s in lowered)
        kinds = [s.certificate for s in lowered]
        assert met == 200
        assert kinds.count("cauchy-sampled") >= 165
        assert kinds.count("fitted") == 0

    def test_exact_series_leaf_is_its_own_lowering(self, monkeypatch):
        # returned as it is, with no stem sample taken
        def no_stem(self, points):
            raise AssertionError("stem sampled")
        monkeypatch.setattr(SeriesFunc, "eval_many", no_stem)
        assert expr_to_series(SeriesFunc(H_SERIES)) is H_SERIES

    def test_one_lowering_per_route(self, monkeypatch):
        # the Cauchy route reads the series off the FFT of the stem and
        # lowers nothing recursively; the fitted route, here for a tree
        # with a truncated series leaf, which has no pole radius, lowers the
        # tree at DEFAULT_ORDER, then once at the order its certificate asks
        # for
        orders = []

        def recorded(cls, root):
            lower = cls.to_series

            def to_series(self, order=se.DEFAULT_ORDER):
                if self is root:
                    orders.append(order)
                return lower(self, order)
            monkeypatch.setattr(cls, "to_series", to_series)

        tree = with_series_leaf(BlaschkeProduct(
            [Quaternion(0.3, 0.2), Quaternion(-0.2, 0.0, 0.3, 0.1)]).to_expr())
        recorded(StarMul, tree)
        s = expr_to_series(tree)
        assert s.certificate == "cauchy-sampled" and orders == []
        orders.clear()
        tree = Bullet(Quaternion(0.2),
                      SeriesFunc(Moebius(Quaternion(0.9)).to_series(512)))
        assert mo._pole_radius(tree) is None
        recorded(Bullet, tree)
        s = expr_to_series(tree)
        assert s.certificate == "fitted" and orders == [se.DEFAULT_ORDER, 229]
        # a truncated leaf whose coefficients grow like 1.1^m: g r >= 1, no
        # order meets the target, and the one further lowering is the cap
        orders.clear()
        grow = np.zeros((21, 4))
        grow[:, 0] = 1.1 ** np.arange(21)
        tree = StarMul(SeriesFunc(TaylorSeries(grow, 1.0, 1.1)), Identity())
        recorded(StarMul, tree)
        s = expr_to_series(tree)
        assert s.growth_rate * 0.95 >= 1.0 and orders == [se.DEFAULT_ORDER, 512]

    def test_hopeless_orders_are_not_lowered(self):
        # a node no Cauchy circle can read takes the fitted route.  This one
        # lowers a Blaschke tree with a series leaf, whose fitted g of 1.01
        # misses the 1e-12 target at r = 0.95 at every order below 512, so
        # only 64 and 512 are lowered
        tree = with_series_leaf(BlaschkeProduct(
            [Quaternion(0.3, 0.2), Quaternion(-0.2, 0.0, 0.3, 0.1)]).to_expr())
        assert tree.to_series(64).growth_rate >= 1.01
        orders = []

        class Recorded(mo.FunctionExpr):
            def to_series(self, order=se.DEFAULT_ORDER):
                orders.append(order)
                return tree.to_series(order)

        fs = expr_to_series(Recorded())
        assert orders == [64, 512]
        assert fs.order == 512 and fs.certificate == "fitted"


def with_series_leaf(tree):
    """The same function with an exact series leaf."""
    return StarMul(SeriesFunc(TaylorSeries.constant(ONE)), tree)


@pytest.fixture(scope="module")
def criterion_7_lowered():
    """The criterion-7 trees (seed 55) with their adaptive lowerings."""
    from test_acceptance import _random_tree
    rng = np.random.default_rng(55)
    trees = [_random_tree(rng, int(rng.integers(1, 5))) for _ in range(500)]
    return [(tree, expr_to_series(tree)) for tree in trees]


class TestCauchyCertificate:
    def test_certificates_hold_at_order_1024(self, criterion_7_lowered):
        # every sampled Cauchy certificate bounds the coefficients of an
        # order-1024 recursive lowering (the first 100 such trees: 1024
        # costs about 25 ms a tree)
        certified = [(tree, s) for tree, s in criterion_7_lowered
                     if s.certificate == "cauchy-sampled"][:100]
        assert len(certified) == 100
        for tree, s in certified:
            norms = tree.to_series(1024).coefficient_norms()
            caps = s.coeff_bound * s.growth_rate ** np.arange(len(norms))
            assert np.all(norms <= caps), repr(tree)
            assert s.growth_rate < 1.0
            assert np.allclose(tree.to_series(s.order).coeffs, s.coeffs,
                               rtol=0.0, atol=1e-14)

    def test_fft_lowering_matches_the_series_rules(self, criterion_7_lowered):
        # a certified tree is read off the FFT of its stem, so the recursive
        # series rules are the oracle: on all 408 cauchy-sampled trees the
        # coefficients are those of the tree's own lowering at that order
        kinds = Counter(s.certificate for _, s in criterion_7_lowered)
        assert kinds == {"cauchy-sampled": 408, "exact": 92}
        for tree, s in criterion_7_lowered:
            if s.certificate == "cauchy-sampled":
                assert np.allclose(tree.to_series(s.order).coeffs, s.coeffs,
                                   rtol=0.0, atol=1e-14), repr(tree)

    def test_order_past_the_samples_resamples_the_circle(self, monkeypatch):
        # 1e90 M_{0.1} has its pole at 10, so its first circle is R = 3 on
        # 256 samples.  It counts, but M of about 1e90 makes the 1e-12
        # target at 0.95 ask for n = 205, past the 256 - 64 alias-free
        # coefficients: the same circle is sampled once more at
        # 2^ceil(log2 2 (206 + 64)) = 1024 points
        m = Moebius(Quaternion(0.1))
        circles = _record_circles(monkeypatch)
        s = expr_to_series(StarMul(Const(Quaternion(1e90)), m))
        assert circles == [(3.0, 256, None), (3.0, 1024, None)]
        assert s.certificate == "cauchy-sampled" and s.order == 205
        assert s.growth_rate == 1.0 / 3.0 and s.tail_bound(0.95) <= 1e-12
        assert np.allclose(1e90 * m.to_series(s.order).coeffs, s.coeffs,
                           rtol=0.0, atol=1e90 * 1e-14)

    def test_failed_second_pass_gives_way(self, monkeypatch):
        # when a circle sampled past 256 points does not count, the search
        # goes on: M_{0.8} loses the circle 1.125 that its pole places,
        # which locates nothing, so rho becomes 1.125, and the next circle,
        # R = (1 + 1.125) / 2, would need more than 256 samples; the tree
        # takes the fitted route
        spectrum = mo._circle_spectrum
        monkeypatch.setattr(mo, "_circle_spectrum", lambda e, radius, samples:
                            (None, None) if samples > 256
                            else spectrum(e, radius, samples))
        s = expr_to_series(Moebius(Quaternion(0.8)))
        assert s.certificate == "fitted"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_spectrum_certifies_no_circle(self, monkeypatch):
        # a stem of about 1e306 on the circle is finite, but its FFT and the
        # norms of the Laurent check overflow, so that check cannot be read:
        # no circle counts and none locates a singularity.  From the pole
        # 1/0.3 each circle takes the last one's R as rho, which steps R
        # down by TOL^(1/192) / 1.02 = 0.839 on 256 samples, until R =
        # (1 + rho) / 2 would need 512 and the tree goes fitted
        circles = []
        spectrum = mo._circle_spectrum

        def recorded(e, radius, samples):
            found = spectrum(e, radius, samples)
            circles.append((radius, samples, found))
            return found
        monkeypatch.setattr(mo, "_circle_spectrum", recorded)
        leaf = SeriesFunc(TaylorSeries(np.array([[1e306, 0, 0, 0]] * 2),
                                       exact=True))
        s = expr_to_series(StarMul(leaf, Moebius(Quaternion(0.3))))
        assert s.certificate == "fitted"
        assert [(round(r, 3), n) for r, n, _ in circles] == [
            (r, 256) for r in (2.796, 2.346, 1.968, 1.651, 1.385)]
        assert all(found == (None, None) for _, _, found in circles)

    def test_failed_rung_locates_the_singularity(self, monkeypatch):
        # (q + 1.5)^{-*} has its pole at 1.5, inside R = 3, whose Laurent
        # terms decay at the ratio 1.5 / 3 and locate it.  That places the
        # next circle at R = rho TOL^(1/192) / 1.02 = 1.2575, the largest
        # radius whose 256 samples keep (R / 1.02 rho)^(N - 64) under the
        # tolerance, and past (1 + rho) / 2; it counts, with order 108
        e = StarInv(Sum(Identity(), Const(1.5)))
        found, rho = mo._circle_spectrum(e, 3.0, 256)
        assert found is None and abs(rho / 1.5 - 1.0) <= 0.01
        circles = _record_circles(monkeypatch)
        s = expr_to_series(e)
        radius = rho * mo._LAURENT_TOL ** (1 / 192) / mo._LOCATED_MARGIN
        assert radius > (1.0 + rho) / 2.0 and abs(radius - 1.2575) <= 1e-4
        assert circles == [(3.0, 256, rho), (radius, 256, None)]
        assert s.certificate == "cauchy-sampled" and s.order == 108
        assert s.growth_rate == 1.0 / radius and s.tail_bound(0.95) <= 1e-12

    def test_ladder_samples_by_need(self, monkeypatch):
        # on the criterion-7 trees the located singularities place each
        # circle: 631 circle samplings
        from test_acceptance import _random_tree
        circles = _record_circles(monkeypatch)
        rng = np.random.default_rng(55)
        for _ in range(500):
            expr_to_series(_random_tree(rng, int(rng.integers(1, 5))))
        assert len(circles) <= 660

    def test_schur_chain_on_its_root_rung(self, monkeypatch):
        # the failed circles locate the poles of the chain, and the circle R
        # = (1 + rho) / 2 of the nearest rho counts: it is the last one and
        # the only one past 256 samples, with 512, enough for its order
        table, kind = _chain_problem(6, "zero")
        f = build_solution(table, kind)
        circles = _record_circles(monkeypatch)
        s = expr_to_series(f)
        rho = min(rho for _, _, rho in circles if rho is not None)
        assert circles[-1] == ((1.0 + rho) / 2.0, 512, None)
        assert all(samples == 256 for _, samples, _ in circles[:-1])
        assert s.certificate == "cauchy-sampled"
        assert s.growth_rate == 2.0 / (1.0 + rho)
        assert s.order < 512 - mo._LAURENT_TERMS
        assert np.allclose(f.to_series(s.order).coeffs, s.coeffs,
                           rtol=0.0, atol=1e-14)

    def test_tails_meet_target(self, criterion_7_lowered):
        kinds = [s.certificate for _, s in criterion_7_lowered]
        assert set(kinds) == {"exact", "cauchy-sampled"}
        met = sum(s.tail_bound(0.95) <= 1e-12 for _, s in criterion_7_lowered)
        assert met == 500
        # one lowering each, at the order the certificate asks for: a mean
        # of 53.1
        orders = [s.order for _, s in criterion_7_lowered
                  if s.certificate == "cauchy-sampled"]
        assert np.mean(orders) <= 55.0

    def test_radius_stays_inside_singularity(self, monkeypatch):
        # M_p has its pole on |z| = 1/|p| = 2, so its one circle is R = 2
        # TOL^(1/192) / 1.02 = 1.6777 on 256 samples, which leaves no
        # Laurent part
        circles = _record_circles(monkeypatch)
        s = expr_to_series(Moebius(Quaternion(0.5)))
        assert [(round(r, 4), n) for r, n, _ in circles] == [(1.6777, 256)]
        assert s.certificate == "cauchy-sampled" and s.order == 53
        assert s.growth_rate == 1.0 / circles[0][0]
        assert s.tail_bound(0.95) <= 1e-12

    def test_pole_places_the_first_circle(self, monkeypatch):
        # the pole 1/0.8 = 1.25 of M_{0.8} places R = (1 + 1.25) / 2 =
        # 1.125 on the 512 samples that keep (1.125 / 1.25)^(N - 64) under
        # the tolerance, and that first circle certifies
        e = Moebius(Quaternion(0.8))
        circles = _record_circles(monkeypatch)
        s = expr_to_series(e)
        assert circles == [(1.125, 512, None)]
        assert s.certificate == "cauchy-sampled" and s.order == 181
        assert s.growth_rate == 1.0 / 1.125 and s.tail_bound(0.95) <= 1e-12
        assert np.allclose(e.to_series(s.order).coeffs, s.coeffs,
                           rtol=0.0, atol=1e-14)

    def test_bullet_counts_the_poles_of_its_inner_node(self, monkeypatch):
        # M_{0.2 + 0.1i} . M_q cancels the pole of M_q at 1/|q| = 2.236 only
        # to rounding, so the first circle lies inside it, at 2.236
        # TOL^(1/192) / 1.02 = 1.8758, not at R = 3
        q = Quaternion(0.4, 0.0, 0.2)
        e = Bullet(Quaternion(0.2, 0.1), Moebius(q))
        assert mo._pole_radius(e) == 1.0 / abs(q)
        circles = _record_circles(monkeypatch)
        s = expr_to_series(e)
        assert round(circles[0][0], 4) == 1.8758 < 1.0 / abs(q)
        assert s.certificate == "cauchy-sampled"
        assert s.tail_bound(0.95) <= 1e-12

    def test_bullet_residue_pole_stays_outside(self, criterion_7_lowered):
        # criterion-7 tree 298 cancels Moebius poles under a Bullet only to
        # rounding; certified at R = 3 past them, its order-1024 lowering
        # exceeded C g^m from m = 197 by up to 1.6e13 times
        tree, s = criterion_7_lowered[298]
        assert s.certificate == "cauchy-sampled" and s.growth_rate > 1.0 / 3.0
        norms = tree.to_series(1024).coefficient_norms()
        assert np.all(norms <= s.coeff_bound * s.growth_rate ** np.arange(
            len(norms))), repr(tree)

    def test_no_radius_takes_fitted_route(self, monkeypatch):
        # singular at 1/0.9 = 1.11: no circle counts on 256 samples, which
        # once sent M_{0.9} down the fitted route.  Its pole places the one
        # circle R = (1 + 1/0.9) / 2 = 1.056 on the 1,024 samples that keep
        # its aliasing off the Laurent terms; it counts with order 295
        e = Moebius(Quaternion(0.9))
        circles = _record_circles(monkeypatch)
        s = expr_to_series(e)
        radius = (1.0 + 1.0 / 0.9) / 2.0
        assert circles == [(radius, 1024, None)]
        assert s.certificate == "cauchy-sampled" and s.order == 295
        assert s.growth_rate == 1.0 / radius
        assert s.tail_bound(0.95) <= 1e-12
        assert np.allclose(e.to_series(s.order).coeffs, s.coeffs,
                           rtol=0.0, atol=1e-14)

    def test_exact_trees_stay_exact(self):
        s = expr_to_series(StarMul(Sum(Identity(), Const(J)), Conj(Identity())))
        assert s.exact and s.certificate == "exact"

    def test_vanishing_stem(self):
        # F = 0, so M = 0: the lowest order and a zero tail
        s = expr_to_series(Bullet(Quaternion(0.2), Const(Quaternion(0.2))))
        assert s.certificate == "cauchy-sampled" and s.coeff_bound == 0.0
        assert s.order == 1 and not np.any(s.coeffs)
        assert s.tail_bound(0.95) == 0.0

    def test_zero_radius(self):
        # r_max = 0 leaves only a_0 and a_1, the value and derivative at 0
        tree = BlaschkeProduct([Quaternion(0.3, 0.2),
                                Quaternion(-0.2, 0.0, 0.3, 0.1)]).to_expr()
        s = expr_to_series(tree, r_max=0.0)
        assert s.order == 1 and s.certificate == "cauchy-sampled"
        assert np.allclose(s.coeffs, tree.to_series(64).coeffs[:2],
                           rtol=0.0, atol=1e-15)


class TestBlaschke:
    def test_degree_one_zero_factor_is_identity(self, rng):
        b = BlaschkeProduct([ZERO], u=ONE)
        e = blaschke_to_expr(b)
        for _ in range(20):
            q = rand_q(rng, 0.9)
            assert abs(e.eval(q) - q) <= 1e-14

    def test_degree_two_zero_factors_is_square(self, rng):
        b = BlaschkeProduct([ZERO, ZERO])
        e = b.to_expr()
        assert b.degree == 2
        for _ in range(20):
            q = rand_q(rng, 0.9)
            assert abs(e.eval(q) - q * q) <= 1e-14

    def test_near_boundary_modulus(self, rng):
        b = BlaschkeProduct([Quaternion(0.3, 0.2), Quaternion(-0.1, 0.0, 0.4)],
                            u=K)
        e = b.to_expr()
        for _ in range(40):
            v = rng.uniform(-1, 1, 4)
            v = v / np.linalg.norm(v) * (1 - 1e-6)
            q = Quaternion.from_iter(v)
            assert abs(abs(e.eval(q)) - 1.0) <= 1e-4

    def test_self_map(self, rng):
        b = BlaschkeProduct([Quaternion(0.2, 0.1, -0.3, 0.0)])
        e = b.to_expr()
        for _ in range(100):
            q = rand_q(rng, 0.999)
            assert abs(e.eval(q)) <= 1.0 + 1e-12


class TestDieudonneDet:
    def test_complex_case_matches_determinant_modulus(self):
        # for complex entries this is |ad - bc|
        a, b, c, d = 1 + 2j, 0.5 - 1j, 2 + 0j, -1 + 1j
        expect = abs(a * d - b * c)
        qa = Quaternion(a.real, a.imag)
        qb = Quaternion(b.real, b.imag)
        qc = Quaternion(c.real, c.imag)
        qd = Quaternion(d.real, d.imag)
        assert abs(dieudonne_det(qa, qb, qc, qd) - expect) <= 1e-12

    def test_zero_row(self):
        assert dieudonne_det(ZERO, ZERO, I, J) == 0.0


class TestJson:
    def test_roundtrip(self):
        e = Bullet(Quaternion(0.1, 0.2),
                   StarMul(Moebius(Quaternion(0.3), u=J), Const(I)))
        e2 = expr_from_json(e.to_json())
        q = Quaternion(0.2, -0.1, 0.3, 0.1)
        assert abs(e.eval(q) - e2.eval(q)) <= 1e-15

    def test_bare_list_is_constant(self):
        e = expr_from_json([0.0, 1.0, 0.0, 0.0])
        assert e.eval(Quaternion(0.5)) == I

    @pytest.mark.parametrize("kind", ["nope", "Moebius", 1, 2.5, True, None,
                                      [1], {"kind": "identity"}])
    def test_unknown_kind(self, kind):
        with pytest.raises(ValueError, match="unknown expression kind"):
            expr_from_json({"kind": kind, "p": [0.1, 0, 0, 0]})

    @pytest.mark.parametrize("data, key", [
        ({}, "kind"),
        ({"kind": "const"}, "value"),
        ({"kind": "moebius", "u": [1, 0, 0, 0]}, "p"),
        ({"kind": "bullet", "inner": {"kind": "identity"}}, "p"),
        ({"kind": "bullet", "p": [0.1, 0, 0, 0]}, "inner"),
        ({"kind": "sum", "left": {"kind": "identity"}}, "right"),
        ({"kind": "conj"}, "inner"),
    ])
    def test_a_missing_key_is_named(self, data, key):
        with pytest.raises(KeyError) as err:
            expr_from_json(data)
        assert err.value.args == (key,)

    def test_keys_are_the_constructor_arguments(self):
        p, inner = Quaternion(0.1, 0.2), Moebius(Quaternion(0.3), u=J)
        e = Bullet(p, inner)
        data = e.to_json()
        assert list(data) == ["kind", "p", "inner"]
        assert repr(e) == repr(Bullet(Quaternion.from_iter(data["p"]),
                                      expr_from_json(data["inner"])))
        assert list(inner.to_json()) == ["kind", "p", "u"]
        # a missing field with a default takes it
        m = expr_from_json({"kind": "moebius", "p": [0.3, 0, 0, 0]})
        assert repr(m) == repr(Moebius(Quaternion(0.3))) and m.u == ONE

    def test_a_quotient_has_no_json(self):
        hq = hyperbolic_quotient(Moebius(Quaternion(0.3)), Quaternion(0.1, 0.2))
        with pytest.raises(NotImplementedError):
            hq.to_json()


def _immutable_cases():
    """(object, its fields) for every expression node class, BlaschkeProduct,
    QTable, InterpolationProblem and HermitianQuatMatrix."""
    p = Quaternion(0.3, 0.1, 0.0, 0.2)
    m = Moebius(p)
    problem = InterpolationProblem([0.0, 0.5], [ZERO, I * 0.3])
    table = build_q_table(problem)
    chain = build_solution(table, classify(table))
    hq = hyperbolic_quotient(m, Quaternion(0.1, 0.2))
    return [
        (Const(p), ["value"]),
        (Identity(), []),
        (m, ["p", "u", "_consts"]),
        (Sum(m, Identity()), ["left", "right"]),
        (StarMul(m, Identity()), ["left", "right"]),
        (StarInv(m), ["inner"]),
        (Conj(m), ["inner"]),
        (Bullet(p, m), ["p", "inner"]),
        (SeriesFunc(m.to_series()), ["series"]),
        (chain, ["nodes", "ps", "h", "_steps"]),
        (hq, ["base", "p", "fp", "unimodular_value", "_consts"]),
        (BlaschkeProduct([p]), ["factors", "u"]),
        (table, ["problem", "cells"]),
        (problem, ["nodes", "values"]),
        (pick_matrix(problem.nodes, problem.values), ["entries"]),
    ]


class TestImmutable:
    """Nodes and the value types of the solver refuse assignment, so that
    what is derived from their fields when they are built stays true of
    them."""

    @pytest.mark.parametrize("obj, names", _immutable_cases(),
                             ids=lambda x: type(x).__name__
                             if not isinstance(x, list) else "")
    def test_every_field_refuses_assignment(self, obj, names):
        assert [f.name for f in dataclasses.fields(obj)] == names
        for name in names:
            before = getattr(obj, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, before)
            assert getattr(obj, name) is before

    def test_a_checked_map_keeps_a_true_ball_max(self):
        f = StarMul(Const(Quaternion(0.9)), Identity())
        check_self_map(f)
        kept = f._ball_max
        with pytest.raises(AttributeError):
            f.left = Const(Quaternion(2.0))
        # not a field: refused too, with TypeError on Python 3.11, whose
        # slotted frozen dataclasses fail in their super() call
        with pytest.raises((AttributeError, TypeError)):
            f._ball_max = 0.5
        assert f._ball_max == kept == _ball_max(f)

    def test_a_moebius_stem_and_series_describe_one_map(self):
        m = Moebius(Quaternion(0.5))
        with pytest.raises(AttributeError):
            m.p = Quaternion(-0.9)
        q = Quaternion(0.2)
        expect = moebius_classical_eval(Quaternion(0.5), q)
        assert abs(expect - Quaternion(-1.0 / 3.0)) <= 1e-15
        assert abs(m.eval(q) - expect) <= 1e-15
        assert abs(se.evaluate(m.to_series(), q)[0] - expect) <= 1e-12
        assert m.to_json()["p"] == [0.5, 0.0, 0.0, 0.0]
