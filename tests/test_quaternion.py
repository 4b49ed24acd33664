import math

import numpy as np
import pytest
from hypothesis import example, given

from slicereg import qarray
from slicereg.quaternion import (
    I,
    J,
    K,
    ONE,
    Quaternion,
    ZERO,
    im_decompose,
    same_sphere,
    SimilaritySphere,
)

from conftest import quaternions


class TestArithmetic:
    def test_multiplication_table(self):
        assert I * J == K
        assert J * I == -K
        assert J * K == I
        assert K * I == J
        assert I * I == Quaternion(-1.0)

    def test_one_plus_i_times_one_minus_i(self):
        assert (ONE + I) * (ONE - I) == Quaternion(2.0)

    def test_inverse_examples(self):
        assert I.inverse() == -I
        assert Quaternion(2.0).inverse() == Quaternion(0.5)
        q = Quaternion(1.0, 1.0, 1.0, 1.0)
        assert (q * q.inverse()).isclose(ONE, 1e-14)
        assert q.inverse().isclose(Quaternion(0.25, -0.25, -0.25, -0.25), 1e-15)

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Quaternion(float("nan"))
        with pytest.raises(ValueError):
            Quaternion(0.0, float("inf"))

    @given(quaternions(), quaternions())
    def test_norm_multiplicative(self, a, b):
        assert abs(abs(a * b) - abs(a) * abs(b)) <= 1e-12 * max(
            1.0, abs(a) * abs(b))

    @given(quaternions(), quaternions(), quaternions())
    def test_associativity(self, a, b, c):
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(a) * abs(b) * abs(c))

    @given(quaternions(), quaternions())
    def test_conjugation_antihomomorphism(self, a, b):
        assert abs((a * b).conj() - b.conj() * a.conj()) <= 4e-16 * max(
            1.0, abs(a) * abs(b))

    def test_rotation_preserves_sphere(self, rng):
        for _ in range(200):
            q = Quaternion.from_iter(rng.uniform(-1, 1, 4))
            v = Quaternion.from_iter(rng.uniform(-1, 1, 4))
            if abs(v) < 1e-6:
                continue
            r = v.inverse() * q * v
            assert abs(r.re - q.re) <= 1e-12 * max(1.0, abs(q))
            assert abs(abs(r) - abs(q)) <= 1e-12 * max(1.0, abs(q))


class TestImDecomposition:
    def test_one_plus_two_i(self):
        d = im_decompose(Quaternion(1.0, 2.0))
        assert d.x == 1.0 and d.y == 2.0 and d.axis == I

    def test_real_point(self):
        d = im_decompose(Quaternion(3.0))
        assert d.x == 3.0 and d.y == 0.0 and d.axis is None

    def test_diagonal(self):
        q = Quaternion(1.0, 1.0, 1.0, 1.0)
        d = im_decompose(q)
        assert abs(d.y - math.sqrt(3.0)) <= 1e-15
        assert d.recompose().isclose(q, 1e-15)
        assert (d.axis * d.axis).isclose(Quaternion(-1.0), 1e-15)

    @given(quaternions())
    @example(Quaternion(0.0, 0.0, 0.0, 1e-13))
    def test_recomposition(self, q):
        d = im_decompose(q)
        assert abs(d.recompose() - q) <= 4e-16 * max(1.0, abs(q))


class TestSimilaritySphere:
    def test_examples(self):
        assert same_sphere(I, J, 1e-9)
        assert same_sphere(ONE + I, ONE - I, 1e-9)
        assert not same_sphere(I, I * 2.0, 1e-9)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            same_sphere(I, J, -1.0)

    def test_collapses_to_real_point(self):
        s = SimilaritySphere.of(Quaternion(0.3))
        assert s.im_norm == 0.0
        assert s.contains(Quaternion(0.3))
        assert not s.contains(Quaternion(0.3, 0.1))

    def test_membership(self):
        s = SimilaritySphere.of(Quaternion(0.5, 0.1, 0.2, 0.2))
        r = math.sqrt(0.01 + 0.04 + 0.04)
        assert s.contains(Quaternion(0.5, r, 0.0, 0.0))
        assert not s.contains(Quaternion(0.5, 2 * r, 0.0, 0.0))


class TestQArray:
    def test_batch_matches_scalar(self, rng):
        a = rng.uniform(-1, 1, (50, 4))
        b = rng.uniform(-1, 1, (50, 4))
        prod = qarray.qmul(a, b)
        for m in range(50):
            expect = qarray.to_quaternion(a[m]) * qarray.to_quaternion(b[m])
            assert abs(qarray.to_quaternion(prod[m]) - expect) <= 1e-14

    def test_qnorm_past_the_root_of_the_float_range(self):
        # a sum of squares past about 1.3e154 overflows: those rows are
        # scaled first, the others keep the plain result, and a non-finite
        # row keeps its inf or nan
        a = np.array([[5e299, 0.0, 0.0, 0.0], [3e200, -4e200, 0.0, 0.0],
                      [0.3, 0.4, 0.0, 1.2], [np.inf, 1.0, 0.0, 0.0],
                      [np.nan, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        got = qarray.qnorm(a)
        assert got[0] == 5e299 and abs(got[1] / 5e200 - 1.0) <= 1e-15
        assert got[2] == np.sqrt(qarray.qnorm2(a[2])) and got[5] == 0.0
        assert got[3] == np.inf and np.isnan(got[4])
        assert qarray.qnorm(a[0]) == 5e299

    def test_qinv_roundtrip(self, rng):
        a = rng.uniform(-1, 1, (20, 4)) + 0.1
        prod = qarray.qmul(a, qarray.qinv(a))
        assert np.abs(prod - [1.0, 0.0, 0.0, 0.0]).max() <= 1e-12

    def test_json_roundtrip(self):
        q = Quaternion(0.1, -0.2, 0.3, -0.4)
        assert Quaternion.from_iter(q.to_json()) == q
