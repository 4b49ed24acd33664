import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicereg import series as se
from slicereg.errors import (
    InconsistentDivision,
    NotInvertibleAtZero,
    OutsideConvergence,
    RealPoint,
)
from slicereg.moebius import Moebius, SeriesFunc, StarMul, expr_to_series
from slicereg.quaternion import I, J, K, ONE, Quaternion, ZERO
from slicereg.series import TaylorSeries

from conftest import quaternions
from test_interpolation import _habs2, _hconj, _hmul


def poly(*qs):
    return TaylorSeries.from_quaternions(list(qs), exact=True)


# Kernel reference points: zero, real, and |p| = 0.9 off the real axis.
KERNEL_POINTS = [ZERO, Quaternion(0.5),
                 Quaternion(0.3, 0.5, -0.6, 0.2) * (0.9 / math.sqrt(0.74))]
KERNEL_ORDERS = [1, 64, 512]


def scalar_fit(coeffs):
    """The fitted certificate (C, g), one coefficient at a time."""
    norms = [abs(Quaternion.from_iter(c)) for c in coeffs]
    cmax = max(norms)
    ms = [m for m in range(1, len(norms)) if norms[m] > cmax * 1e-250]
    g = max((norms[m] / cmax) ** (1.0 / m) for m in ms) if ms else 1.0
    return 4.0 * cmax, 1.01 * g


# -- exact series: coefficients as 4-tuples of Fractions -----------------

_ZERO4 = (Fraction(0),) * 4


def exact_coeffs(coeffs):
    """The float coefficients of a series as exact rationals."""
    return [tuple(Fraction(float(x)) for x in row) for row in coeffs]


def _hadd(x, y):
    return tuple(a + b for a, b in zip(x, y))


def exact_star_mul(a, b, order):
    """Cauchy convolution of exact coefficient lists, to ``order``."""
    return [functools.reduce(_hadd, (_hmul(a[k], b[m - k])
                                     for k in range(m + 1)
                                     if k < len(a) and m - k < len(b)),
                             _ZERO4)
            for m in range(order + 1)]


def exact_star_inverse(c, order):
    """The left *-inverse g of c by its defining recurrence g_0 = c_0^{-1},
    g_m = -c_0^{-1} sum_{k=1}^m c_k g_{m-k}; no closed form is used."""
    c = list(c) + [_ZERO4] * (order + 1 - len(c))
    inv0 = tuple(x / _habs2(c[0]) for x in _hconj(c[0]))
    g = [inv0]
    for m in range(1, order + 1):
        acc = functools.reduce(_hadd, (_hmul(c[k], g[m - k])
                                       for k in range(1, m + 1)))
        g.append(tuple(-x for x in _hmul(inv0, acc)))
    return g


def exact_relative_error(got, exact):
    """Largest coefficient error relative to the largest exact coefficient."""
    scale = max(_habs2(e) for e in exact)
    err = max(_habs2(tuple(x - y for x, y in zip(g, e)))
              for g, e in zip(exact_coeffs(got), exact))
    return math.sqrt(float(err / scale))


def dyadic_polynomial(rng, scale=1.0):
    """A random polynomial of degree <= 3 with coefficients in multiples of
    1/64 and a constant term of modulus >= 1/2, times ``scale``."""
    c = rng.integers(-32, 33, (int(rng.integers(1, 5)), 4)) / 64.0
    while np.linalg.norm(c[0]) < 0.5:
        c[0] = rng.integers(-64, 65, 4) / 64.0
    return c * scale


def assert_kernel_matches(series, expect):
    """Coefficients within 1e-14 of the largest; (C, g) to 1e-12 relative."""
    expect = np.array([q.components() for q in expect])
    assert series.coeffs.shape == expect.shape
    scale = np.abs(expect).max()
    assert np.abs(series.coeffs - expect).max() <= 1e-14 * scale
    c, g = scalar_fit(expect)
    assert series.coeff_bound == pytest.approx(c, rel=1e-12, abs=0.0)
    assert series.growth_rate == pytest.approx(g, rel=1e-12, abs=0.0)


class TestConstruction:
    def test_certificate_violation_rejected(self):
        with pytest.raises(ValueError):
            TaylorSeries([[0, 0, 0, 0], [5, 0, 0, 0]], 1.0, 0.1)

    def test_exact_polynomial_has_zero_tail(self):
        f = poly(ONE, I)
        assert f.tail_bound(0.95) == 0.0

    @pytest.mark.parametrize("order", [0, 1, 26])
    def test_derivative_tail_sums_the_certified_terms(self, order):
        # sum_{m>N} m C g^m r^{m-1}, term by term, at r = 0 and r = 0.9;
        # it bounds the derivative tail of f, which the certificate bounds
        coeffs = np.zeros((order + 1, 4))
        coeffs[:, 0] = 0.5 ** np.arange(order + 1)
        f = TaylorSeries(coeffs, 1.0, 0.5)
        ms = np.arange(order + 1, order + 400)
        for r in (0.0, 0.9):
            want = float(np.sum(ms * 0.5 ** ms * r ** (ms - 1)))
            assert f.derivative_tail_bound(r) == pytest.approx(want,
                                                               rel=1e-12)
            assert f.derivative_tail_bound(r) > f.tail_bound(r) or r == 0.0
        assert poly(ONE, I).derivative_tail_bound(0.9) == 0.0
        assert f.derivative_tail_bound(2.0) == math.inf

    def test_fitted_certificate_covers_coefficients(self):
        coeffs = np.zeros((10, 4))
        coeffs[:, 0] = 0.7 ** np.arange(10)
        f = TaylorSeries(coeffs)
        norms = f.coefficient_norms()
        caps = f.coeff_bound * f.growth_rate ** np.arange(10)
        assert np.all(norms <= caps + 1e-9)

    def test_lone_constant_term_claims_no_zero_tail(self):
        # a0 alone says nothing of the terms the truncation dropped: the fit
        # takes g = 1.01, as when the largest coefficient is not a0, where it
        # took g = 0 and a zero tail
        f = TaylorSeries([[0.3, 0.1, -0.2, 0.1]])
        assert f.growth_rate == 1.01
        assert f.coeff_bound == 4.0 * f.coefficient_norms()[0]
        assert f.tail_bound(0.95) > 1e-9

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid:RuntimeWarning")
    def test_certificate_of_huge_coefficients_is_finite(self):
        # |a_m|^2 overflows above about 1.3e154, but |a_m| does not
        leaf = TaylorSeries([[1e300, 0, 0, 0], [1e300, 0, 0, 0]], exact=True)
        lowered = expr_to_series(StarMul(SeriesFunc(leaf),
                                         Moebius(Quaternion(0.3))))
        huge = TaylorSeries([[3e300, 4e300, 0, 0], [0, 0, 1e300, 1e300]])
        assert huge.coefficient_norms()[0] == 5e300
        for f in (leaf, lowered, huge):
            norms = f.coefficient_norms()
            assert np.isfinite(f.coeff_bound) and np.isfinite(f.growth_rate)
            assert np.all(norms <= f.coeff_bound
                          * f.growth_rate ** np.arange(len(norms)))
        assert math.isfinite(lowered.tail_bound(0.95))

    def test_json_roundtrip(self):
        f = poly(I, J, K)
        g = TaylorSeries.from_json(f.to_json())
        assert np.array_equal(f.coeffs, g.coeffs)
        assert g.exact

    def test_json_roundtrip_keeps_the_certificate(self):
        coeffs = [[0.5, 0, 0, 0], [0.3, 0, 0, 0]]
        for f in (TaylorSeries(coeffs), TaylorSeries(coeffs, 1.0, 0.6),
                  TaylorSeries(coeffs, 1.0, 0.5, certificate="cauchy-sampled")):
            g = TaylorSeries.from_json(json.loads(json.dumps(f.to_json())))
            assert g.to_json() == f.to_json() and not g.exact

    @pytest.mark.parametrize("fields", [
        {"exact": "false"}, {"exact": 0}, {"exact": None},
        {"coeffBound": 1.0}, {"growthRate": 0.6},
        {"coeffBound": True, "growthRate": 0.6},
        {"coeffBound": 1.0, "growthRate": "0.6"},
        {"coeffBound": float("nan"), "growthRate": 0.6},
        {"coeffBound": 10 ** 400, "growthRate": 0.6},
    ], ids=["exact_string", "exact_int", "exact_null", "bound_alone",
            "growth_alone", "bound_bool", "growth_string", "bound_nan",
            "bound_overflows"])
    def test_json_refuses_a_malformed_certificate(self, fields):
        # each was read as another certificate: "false" as exact, a lone
        # constant as a fitted (C, g), true as C = 1
        data = {"coeffs": [[0.5, 0, 0, 0], [0.3, 0, 0, 0]], **fields}
        with pytest.raises(ValueError):
            TaylorSeries.from_json(data)

    def test_certificate_kind(self):
        coeffs = [[1, 0, 0, 0], [0.5, 0, 0, 0]]
        assert poly(ONE, I).certificate == "exact"
        assert TaylorSeries(coeffs).certificate == "fitted"
        f = TaylorSeries(coeffs, 1.0, 0.5, certificate="cauchy-sampled")
        assert f.certificate == "cauchy-sampled"
        assert se.conjugate(f).certificate == "cauchy-sampled"
        # an exact series has no tail to certify
        assert TaylorSeries(coeffs, exact=True,
                            certificate="cauchy-sampled").certificate == "exact"
        with pytest.raises(ValueError):
            TaylorSeries(coeffs, certificate="proven")
        with pytest.raises(AttributeError):
            f.certificate = "fitted"
        # the kind is not serialised
        assert f.to_json() == TaylorSeries(coeffs, 1.0, 0.5).to_json()

    def test_exact_is_read_off_the_certificate(self):
        # a series records its exactness once: an exact certificate without
        # exact=True is refused, so no series has a tail it claims not to
        coeffs = [[0.5, 0, 0, 0], [0.3, 0, 0, 0]]
        with pytest.raises(ValueError, match="exact"):
            TaylorSeries(coeffs, certificate="exact")
        f = TaylorSeries(coeffs, exact=True)
        assert f.exact and f.certificate == "exact"
        assert f.tail_bound(0.9) == 0.0 and f.to_json()["exact"] is True
        for kind in ("cauchy-sampled", "fitted"):
            g = TaylorSeries(coeffs, 1.0, 0.5, certificate=kind)
            assert not g.exact and g.tail_bound(0.9) > 0.0
        with pytest.raises(AttributeError):
            f.exact = False


class TestStarMul:
    def test_constants(self):
        f = se.star_mul(TaylorSeries.constant(I), TaylorSeries.constant(J))
        assert f.coefficient(0) == K

    def test_symmetrization_of_linear_factor(self):
        # (q - p) * (q - conj p) = q^2 - 2 Re(p) q + |p|^2
        p = Quaternion(0.3, 0.2, -0.1, 0.4)
        f = se.star_mul(poly(-p, ONE), poly(-p.conj(), ONE))
        assert f.coefficient(0).isclose(Quaternion(p.abs2()), 1e-15)
        assert f.coefficient(1).isclose(Quaternion(-2 * p.re), 1e-15)
        assert f.coefficient(2) == ONE

    def test_single_term_convolution(self):
        f = se.star_mul(poly(ZERO, I), poly(ZERO, J))
        assert f.coefficient(2) == K
        assert f.order == 2

    def test_conjugate_of_product(self, rng):
        a = TaylorSeries(rng.uniform(-0.5, 0.5, (6, 4)), exact=True)
        b = TaylorSeries(rng.uniform(-0.5, 0.5, (7, 4)), exact=True)
        lhs = se.conjugate(se.star_mul(a, b))
        rhs = se.star_mul(se.conjugate(b), se.conjugate(a))
        assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-15

    def test_real_coefficients_evaluate_pointwise(self, rng):
        f = TaylorSeries(np.outer(rng.uniform(-0.5, 0.5, 5),
                                  [1, 0, 0, 0]), exact=True)
        g = TaylorSeries(rng.uniform(-0.5, 0.5, (5, 4)), exact=True)
        q = Quaternion(0.2, 0.3, -0.1, 0.2)
        prod, _ = se.evaluate(se.star_mul(f, g), q)
        vf, _ = se.evaluate(f, q)
        vg, _ = se.evaluate(g, q)
        assert abs(prod - vf * vg) <= 1e-13

    def test_star_product_evaluation_law(self, rng):
        f = TaylorSeries(rng.uniform(-0.3, 0.3, (6, 4)), exact=True)
        g = TaylorSeries(rng.uniform(-0.3, 0.3, (6, 4)), exact=True)
        q = Quaternion(0.1, -0.2, 0.25, 0.1)
        vf, _ = se.evaluate(f, q)
        rot = vf.inverse() * q * vf
        vg, _ = se.evaluate(g, rot)
        prod, _ = se.evaluate(se.star_mul(f, g), q)
        assert abs(prod - vf * vg) <= 1e-13


class TestConjugateSymmetrize:
    def test_conjugate_examples(self):
        assert se.conjugate(TaylorSeries.constant(I)).coefficient(0) == -I
        assert se.conjugate(poly(ZERO, I)).coefficient(1) == -I
        real = poly(ONE, Quaternion(0.5))
        assert np.array_equal(se.conjugate(real).coeffs, real.coeffs)

    def test_symmetrize_examples(self):
        p = Quaternion(0.1, 0.3, 0.2, -0.1)
        s = se.symmetrize(poly(-p, ONE))
        assert s.coefficient(0).isclose(Quaternion(p.abs2()), 1e-15)
        assert s.coefficient(1).isclose(Quaternion(-2 * p.re), 1e-15)
        c = se.symmetrize(TaylorSeries.constant(Quaternion(0.3, 0.4)))
        assert c.coefficient(0) == Quaternion(0.25)
        qi = se.symmetrize(poly(ZERO, I))
        assert qi.coefficient(2) == ONE

    def test_symmetrize_output_is_real(self, rng):
        f = TaylorSeries(rng.uniform(-0.5, 0.5, (9, 4)), exact=True)
        assert np.abs(se.symmetrize(f).coeffs[:, 1:]).max() == 0.0

    def test_symmetrize_is_the_norm_series(self, rng):
        # n(f) has one implementation: symmetrize's real column is
        # _norm_series to the bit, at the order and with the certificate of
        # f * f^c, and within 1e-15 of that product
        for k in range(200):
            order = int(rng.integers(0, 40))
            coeffs = rng.standard_normal((order + 1, 4)) * (
                0.8 ** np.arange(order + 1))[:, None]
            f = TaylorSeries(coeffs, exact=k % 2 == 0)
            s = se.symmetrize(f)
            prod = se.star_mul(f, se.conjugate(f))
            assert np.array_equal(s.coeffs[:, 0],
                                  se._norm_series(f.coeffs, s.order))
            assert not s.coeffs[:, 1:].any()
            assert (s.order, s.certificate) == (prod.order, prod.certificate)
            scale = np.abs(prod.coeffs).max()
            assert np.abs(s.coeffs - prod.coeffs).max() <= 1e-15 * scale
            if not f.exact:
                assert s.coeff_bound >= f.coeff_bound ** 2
                assert s.growth_rate >= f.growth_rate


class TestStarInverse:
    def test_constant(self):
        inv = se.star_inverse(TaylorSeries.constant(Quaternion(0.0, 2.0)))
        assert inv.coefficient(0).isclose(Quaternion(0.0, -0.5), 1e-15)

    def test_geometric_series(self):
        p = Quaternion(0.2, 0.4, -0.1, 0.0)
        f = poly(ONE, -p.conj())
        inv = se.star_inverse(f, order=30)
        expect = ONE
        for m in range(10):
            assert inv.coefficient(m).isclose(expect, 1e-13)
            expect = expect * p.conj()

    def test_truncated_input_is_not_extended(self):
        # f^s of a truncated f is known to f's order only
        f = TaylorSeries(np.outer(0.5 ** np.arange(21), [1, 0.2, 0, 0]))
        assert se.star_inverse(f, order=64).order == 20
        assert se.star_inverse(f, order=8).order == 8

    def test_vanishing_constant_raises(self):
        with pytest.raises(NotInvertibleAtZero):
            se.star_inverse(TaylorSeries.identity())

    @pytest.mark.parametrize("order", KERNEL_ORDERS)
    @pytest.mark.parametrize("p", KERNEL_POINTS)
    def test_matches_scalar_recurrence(self, p, order):
        # f = 1 - q conj(p), f^s = 1 - 2 Re(p) q + |p|^2 q^2
        f = poly(ONE, -p.conj())
        s = [1.0, -2.0 * p.re, p.abs2()] + [0.0] * order
        b = [1.0 / s[0]]
        for m in range(1, order + 1):
            b.append(-b[0] * sum(s[j] * b[m - j] for j in range(1, m + 1)))
        fc = [ONE, -p]
        expect = [Quaternion(b[m]) * fc[0] + (Quaternion(b[m - 1]) * fc[1]
                                              if m >= 1 else ZERO)
                  for m in range(order + 1)]
        assert_kernel_matches(se.star_inverse(f, order=order), expect)

    def test_matches_exact_recurrence(self, rng):
        # 40 dyadic polynomials of degree <= 3 to order 12: the worst error
        # relative to the largest exact coefficient is 6.4e-16, as it was
        # through symmetrize and the Hamilton convolution; the bound is twice
        worst = 0.0
        for _ in range(40):
            c = dyadic_polynomial(rng)
            got = se.star_inverse(TaylorSeries(c, exact=True), order=12)
            worst = max(worst, exact_relative_error(
                got.coeffs, exact_star_inverse(exact_coeffs(c), 12)))
        assert worst <= 1.3e-15

    def test_roundtrip_within_tail(self, rng):
        coeffs = rng.uniform(-0.3, 0.3, (40, 4)) * \
            (0.6 ** np.arange(40))[:, None]
        coeffs[0] = [1.0, 0.1, -0.2, 0.0]
        f = TaylorSeries(coeffs)
        prod = se.star_mul(f, se.star_inverse(f))
        assert abs(prod.coefficient(0) - ONE) <= 1e-12
        assert np.abs(prod.coeffs[1:]).max() <= 1e-12


class TestEvaluate:
    def test_left_power_convention(self):
        val, tail = se.evaluate(poly(ZERO, I), J)
        assert val == J * I  # q * a_1 with left power: j i = -k
        assert val == -K
        assert tail == 0.0

    def test_constant_at_zero(self):
        val, tail = se.evaluate(TaylorSeries.constant(J), ZERO)
        assert val == J and tail == 0.0

    def test_outside_convergence(self):
        f = TaylorSeries(np.ones((5, 4)), 2.0, 1.2)
        with pytest.raises(OutsideConvergence):
            se.evaluate(f, Quaternion(0.9))

    def test_evaluate_many_matches_scalar(self, rng):
        f = TaylorSeries(rng.uniform(-0.5, 0.5, (12, 4)), exact=True)
        pts = rng.uniform(-0.4, 0.4, (30, 4))
        vals, tails = se.evaluate_many(f, pts)
        assert np.all(tails == 0.0)
        for m in range(30):
            expect, _ = se.evaluate(f, Quaternion.from_iter(pts[m]))
            assert abs(Quaternion.from_iter(vals[m]) - expect) <= 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3, 13, 31, 32])
    def test_block_powers_match_complex_power(self, rng, k):
        # doubling products against the complex power z ** m, over a batch
        # of 500 points with |z| <= 1; the relative error is the Frobenius
        # norm of the difference over that of the powers (elementwise both
        # carry about m ulps of rounding near |z| = 1)
        z = np.sqrt(rng.random(500)) * np.exp(2j * np.pi * rng.random(500))
        z[:4] = [0.0, 1.0, -1.0, 1j]
        old = z[:, None] ** np.arange(k)
        new = se._block_powers(z, k)
        assert new.shape == old.shape and np.all(new[:, 0] == 1.0)
        assert np.linalg.norm(new - old) <= 4e-16 * np.linalg.norm(old)


class TestDerivatives:
    def test_cullen_examples(self):
        q2 = poly(ZERO, ZERO, ONE)
        d = se.cullen_derivative(q2)
        assert d.coefficient(1) == Quaternion(2.0)
        assert se.cullen_derivative(TaylorSeries.constant(I)).coefficient(0) == ZERO

    def test_cullen_termwise(self, rng):
        f = TaylorSeries(rng.uniform(-1, 1, (8, 4)), exact=True)
        d = se.cullen_derivative(f)
        for m in range(1, 8):
            assert d.coefficient(m - 1).isclose(f.coefficient(m) * m, 1e-15)

    def test_spherical_derivative_of_square(self):
        q2 = poly(ZERO, ZERO, ONE)
        p = Quaternion(0.3, 0.1, 0.2, -0.2)
        assert abs(se.spherical_derivative(q2, p) - Quaternion(2 * p.re)) <= 1e-14

    def test_spherical_derivative_trivial_cases(self):
        p = Quaternion(0.2, 0.5)
        assert se.spherical_derivative(TaylorSeries.constant(J), p) == ZERO
        assert abs(se.spherical_derivative(TaylorSeries.identity(), p) - ONE) \
            <= 1e-15

    def test_spherical_derivative_next_to_real_axis(self):
        # d_S f(x + I y) tends to f'(x) as y -> 0, with no cancellation
        f = poly(Quaternion(0.1, 0.2), Quaternion(0.3, 0.0, -0.2, 0.1),
                 Quaternion(0.2, 0.1, 0.1), Quaternion(-0.1, 0.0, 0.0, 0.3))
        expect, _ = se.evaluate(se.cullen_derivative(f), Quaternion(0.3))
        got = se.spherical_derivative(f, Quaternion(0.3, 1e-8))
        assert abs(got - expect) <= 1e-12

    def test_spherical_derivative_real_point_raises(self):
        with pytest.raises(RealPoint):
            se.spherical_derivative(TaylorSeries.identity(), Quaternion(0.5))


class TestLeftLinearDivide:
    def test_square(self):
        q2 = poly(ZERO, ZERO, ONE)
        p = Quaternion(0.2, 0.3, 0.0, 0.1)
        g = se.left_linear_divide(q2, p)
        assert g.coefficient(0).isclose(p, 1e-15)
        assert g.coefficient(1) == ONE

    def test_constant_gives_zero(self):
        g = se.left_linear_divide(TaylorSeries.constant(J), Quaternion(0.3))
        assert np.abs(g.coeffs).max() == 0.0

    def test_value_at_conjugate_is_spherical_derivative(self):
        q2 = poly(ZERO, ZERO, ONE)
        p = Quaternion(0.4, 0.1, -0.2, 0.1)
        g = se.left_linear_divide(q2, p)
        val, _ = se.evaluate(g, p.conj())
        assert abs(val - Quaternion(2 * p.re)) <= 1e-14
        assert abs(val - se.spherical_derivative(q2, p)) <= 1e-14

    @pytest.mark.parametrize("order", KERNEL_ORDERS)
    @pytest.mark.parametrize("p", KERNEL_POINTS)
    def test_matches_backward_recurrence(self, rng, p, order):
        coeffs = rng.uniform(-1, 1, (order + 1, 4)) * \
            (0.8 ** np.arange(order + 1))[:, None]
        f = TaylorSeries(coeffs)
        a = [Quaternion.from_iter(c) for c in coeffs]
        b = [ZERO] * order
        b[order - 1] = a[order]
        for m in range(order - 1, 0, -1):
            b[m - 1] = a[m] + p * b[m]
        assert_kernel_matches(se.left_linear_divide(f, p), b)

    def test_unstable_division_raises(self, rng):
        # outside the ball the recurrence loses a_0 + p b_0 = f(p) to rounding
        f = TaylorSeries(rng.uniform(-1, 1, (41, 4)), exact=True)
        with pytest.raises(InconsistentDivision):
            se.left_linear_divide(f, Quaternion(3.0, 2.0))

    def test_remultiplication_recovers(self, rng):
        f = TaylorSeries(rng.uniform(-0.5, 0.5, (10, 4)), exact=True)
        p = Quaternion(0.25, -0.2, 0.1, 0.3)
        g = se.left_linear_divide(f, p)
        fp, _ = se.evaluate(f, p)
        back = se.star_mul(poly(-p, ONE), g)
        shifted = f.coeffs - np.eye(len(f.coeffs), 1) * fp.components()
        assert np.abs(back.coeffs - shifted[:back.order + 1]).max() <= 1e-10


class TestAddSub:
    def test_exact_sum_keeps_order(self):
        f = poly(ONE, I, J)
        g = TaylorSeries.constant(K)
        s = se.series_add(f, g)
        assert s.order == 2 and s.exact
        assert s.coefficient(0) == ONE + K

    def test_truncated_plus_exact_keeps_truncation_order(self, rng):
        f = TaylorSeries(rng.uniform(-0.4, 0.4, (20, 4)))
        g = TaylorSeries.constant(ONE)
        s = se.series_add(f, g)
        assert s.order == 20 - 1 and not s.exact


# (order, certificate, C, g) of star_mul and series_add for the four
# exact/truncated pairs of ORDER_CASES, and of symmetrize for each one
ORDER_CASES = {
    "e": TaylorSeries([[0.5, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.125, 0.25]],
                      exact=True),
    "t": TaylorSeries([[0.25, 0, 0.5, 0], [0.25, 0, 0, 0], [0, 0, 0.0625, 0],
                       [0, 0.015625, 0, 0], [0.00390625, 0, 0, 0]], 3.0, 0.75),
    "u": TaylorSeries([[0.5, 0.25, 0, 0], [0, 0, 0, 0.125],
                       [0.03125, 0, 0, 0]], 2.0, 0.5),
}
ORDER_TABLE = [
    ("star_mul", "ee", 4, "exact", 1.14564392373896, 1.01),
    ("star_mul", "et", 4, "fitted", 6.0, 0.7551511345167163),
    ("star_mul", "te", 4, "fitted", 6.0, 0.8889128541613274),
    ("star_mul", "tu", 2, "fitted", 6.0, 0.75),
    ("series_add", "ee", 2, "exact", 4.0, 0.7551511345167163),
    ("series_add", "et", 4, "fitted", 3.605551275463989, 0.5946898719970332),
    ("series_add", "te", 4, "fitted", 3.605551275463989, 0.5946898719970332),
    ("series_add", "tu", 2, "fitted", 3.7416573867739413,
     0.3017952238569344),
    ("symmetrize", "e", 4, "exact", 1.0, 0.7551511345167163),
    ("symmetrize", "t", 4, "fitted", 9.0, 0.75),
]


@pytest.mark.parametrize("op, args, order, cert, bound, growth", ORDER_TABLE)
def test_order_and_certificate_table(op, args, order, cert, bound, growth):
    # one order rule and one product-certificate rule serve sums, products
    # and symmetrize: an exact term never limits the order, and a truncated
    # product keeps at least its factors' bound and growth
    s = getattr(se, op)(*(ORDER_CASES[a] for a in args))
    assert (s.order, s.certificate, s.coeff_bound, s.growth_rate) == (
        order, cert, bound, growth)


@settings(max_examples=50, deadline=None)
@given(quaternions(max_norm=0.9), quaternions(max_norm=0.9),
       st.integers(min_value=0, max_value=5))
def test_star_mul_coefficient_formula(a, b, m):
    # Cauchy convolution of two exact monomial-free polynomials
    f = TaylorSeries.from_quaternions([a, b], exact=True)
    g = TaylorSeries.from_quaternions([b, a], exact=True)
    prod = se.star_mul(f, g)
    expect = {0: a * b, 1: a * a + b * b, 2: b * a}
    if m in expect:
        assert prod.coefficient(m).isclose(expect[m], 1e-14)
