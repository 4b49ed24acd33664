import json
import math
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
)
from slicereg.interpolation import (
    InterpolationProblem,
    build_q_table,
    build_solution,
    classify,
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
    expr_to_series,
    moebius_classical_eval,
    neg,
)
from slicereg.quaternion import I, J, K, ONE, Quaternion, ZERO
from slicereg.series import TaylorSeries
from slicereg.verify import random_blaschke_expr

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
        h = Sum(Const(ONE), neg(StarMul(Identity(), Const(p))))
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
    (F - p)(1 - conj(p) F)^{-1} of Bullet and (1 - z conj(p))^{-1}(z - p) u of
    Moebius; the squared moduli of the inverted n(.) go to ``dens``."""
    one = _h_scalar(_ExactC(1))
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


# the radius ladder of the Cauchy certificates, where stems are evaluated
# off the unit disc
LADDER = (1.05, 1.2, 1.6, 2.0, 3.0)
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
    within 2e-15 at |z| <= 0.99 and within 2e-14 on the ladder circles,
    where the stems grow and errors propagate through nested nodes.  Ladder
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
        ladder = np.concatenate([
            r * np.exp(1j * np.linspace(0.1, 3.0, per_circle)) for r in LADDER])
        worst, kept = self._worst(e, ladder)
        assert kept >= len(ladder) // 2 and worst <= 2e-14

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

    def test_radius_from_denominator_roots(self):
        # R0 is the smallest root modulus of n(D), with D from
        # chain_fraction; here the rung 1.2 fails its Laurent check and the
        # root rung R = (1 + R0) / 2 comes next, ahead of 1.1, and the
        # sampled certificate bounds an order-1024 lowering
        table, kind = _chain_problem(6, "zero")
        f = build_solution(table, kind)
        den = chain_fraction(f)[1]
        c = den.coeffs
        r0 = np.abs(np.roots(se._norm_series(c, 2 * len(c) - 2)[::-1])).min()
        assert f._root_radius() == pytest.approx(r0, rel=1e-12)
        s = expr_to_series(f)
        assert 1.2 < r0 < 1.35 and s.certificate == "cauchy-sampled"
        assert s.growth_rate == 2.0 / (1.0 + f._root_radius())
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

    def test_non_constant_h_is_lowered_like_the_chain(self):
        # an h that is not a constant, an exact series or a Moebius factor
        # is treated like the inner tree of a Bullet, so the node takes the
        # route of its chain: here the fitted one, since the ladder finds no
        # radius for either
        table, kind = _chain_problem(3, "zero")
        h = StarMul(Moebius(Quaternion(0.3, 0.2)),
                    Moebius(Quaternion(-0.2, 0.1, 0.3)))
        s = expr_to_series(build_solution(table, kind, h))
        want = expr_to_series(_hand_chain(table, kind, h))
        assert s.certificate == want.certificate == "fitted"
        assert s.order == want.order
        assert np.abs(s.coeffs - want.coeffs).max() <= 1e-13
        assert mo._pole_radius(build_solution(
            table, kind, TaylorSeries(H_SERIES.coeffs, 1.0, 0.6))) is None

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_moebius_h_takes_the_root_rung(self, n, rng):
        # M_p u = (q - p) * (conj(u) (1 - q conj(p)))^{-*} starts the
        # coefficient recurrence, so the node over a Moebius h gets its pole
        # radius and a Cauchy certificate, where the nested chain goes the
        # fitted route to order 512 with a tail of about 2e-7
        table, kind = _chain_problem(n, "zero")
        h = Moebius(Quaternion(0.3, 0.2))
        f = build_solution(table, kind, h)
        s = expr_to_series(f)
        assert math.isfinite(f._root_radius())
        assert s.certificate == "cauchy-sampled"
        tail = s.tail_bound(0.95)
        assert tail <= 1e-12
        ref = _hand_chain(table, kind, h).to_series(1024)
        pts = qarray.uniform_ball(rng, 200, 0.95)
        got = se.evaluate_many(s, pts)[0]
        assert np.abs(got - se.evaluate_many(ref, pts)[0]).max() <= tail
        assert np.abs(got - f.eval_many(pts)).max() <= tail

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

    def test_one_series_per_node(self, monkeypatch):
        # real scalar series only: no pass through the quaternion series
        # algebra, and one TaylorSeries for each of the three nodes
        for name in ("symmetrize", "conjugate", "star_mul", "series_sub",
                     "left_const_mul"):
            monkeypatch.setattr(se, name, None)
        created = []
        init = TaylorSeries.__init__
        monkeypatch.setattr(TaylorSeries, "__init__", lambda self, *a, **k:
                            created.append(1) or init(self, *a, **k))
        e = Bullet(P_IMAG, StarInv(Moebius(Quaternion(0.2, -0.3, 0.1, 0.4))))
        s = e.to_series(32)
        assert s.order == 32 and len(created) == 3

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
        # at 1e-6 it lowers.  The closed form's numerator cancels to O(1e-6)
        # there, so the constant (a_0 - p) / (1 - p a_0) = 1.5e6 is within
        # 6.7e-11 relative; the bound is twice that
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
            Sum(Const(ONE), neg(StarMul(Identity(), Const(I * 0.5)))),
            Bullet(Quaternion(0.1, 0.2, 0.0, -0.1),
                   Moebius(Quaternion(0.25, 0.0, 0.1, 0.0))),
            StarInv(Sum(Const(ONE),
                        neg(StarMul(Identity(), Const(J * 0.4))))),
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
        # trees with one take the Cauchy route: 199 of 200 meet the 1e-12
        # target at r = 0.95 (68 did under the fitted doubling loop)
        from test_acceptance import _random_tree
        rng = np.random.default_rng(55)
        lowered = [expr_to_series(with_series_leaf(
            _random_tree(rng, int(rng.integers(1, 5))))) for _ in range(200)]
        met = sum(s.tail_bound(0.95) <= 1e-12 for s in lowered)
        kinds = [s.certificate for s in lowered]
        assert met >= 199
        assert kinds.count("cauchy-sampled") >= 165
        assert kinds.count("fitted") <= 2

    def test_exact_series_leaf_is_its_own_lowering(self, monkeypatch):
        # returned as it is, with no stem sample taken
        def no_stem(self, points):
            raise AssertionError("stem sampled")
        monkeypatch.setattr(SeriesFunc, "eval_many", no_stem)
        assert expr_to_series(SeriesFunc(H_SERIES)) is H_SERIES

    def test_one_lowering_per_route(self, monkeypatch):
        # the Cauchy route reads the series off the FFT of the stem and
        # lowers nothing recursively; the fitted route lowers the tree at
        # DEFAULT_ORDER, then once at the order its certificate asks for
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
        m = Moebius(Quaternion(0.9))
        recorded(Moebius, m)
        s = expr_to_series(m)
        assert s.certificate == "fitted" and orders == [se.DEFAULT_ORDER, 188]
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
        # a node the ladder does not know takes the fitted route.  This one
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
        # series rules are the oracle: on all 401 cauchy-sampled trees the
        # coefficients are those of the tree's own lowering at that order
        kinds = Counter(s.certificate for _, s in criterion_7_lowered)
        assert kinds == {"cauchy-sampled": 401, "exact": 92, "fitted": 7}
        for tree, s in criterion_7_lowered:
            if s.certificate == "cauchy-sampled":
                assert np.allclose(tree.to_series(s.order).coeffs, s.coeffs,
                                   rtol=0.0, atol=1e-14), repr(tree)

    def test_order_past_the_samples_resamples_the_circle(self, monkeypatch):
        # M_{0.8} has its pole at 1.25 and counts first at R = 1.05, where
        # the 1e-12 target at 0.95 asks for n = 304, past the 256 - 64
        # alias-free coefficients: the same circle is sampled once more at
        # 2^ceil(log2 2 (305 + 64)) = 1024 points
        circles = []
        spectrum = mo._circle_spectrum

        def recorded(e, radius, samples):
            circles.append((radius, samples))
            return spectrum(e, radius, samples)
        monkeypatch.setattr(mo, "_circle_spectrum", recorded)
        e = Moebius(Quaternion(0.8))
        s = expr_to_series(e)
        assert circles == [(1.2, 256), (1.1, 256), (1.05, 256), (1.05, 1024)]
        assert s.certificate == "cauchy-sampled" and s.order == 304
        assert s.growth_rate == 1.0 / 1.05 and s.tail_bound(0.95) <= 1e-12
        assert np.allclose(e.to_series(s.order).coeffs, s.coeffs,
                           rtol=0.0, atol=1e-14)

    def test_failed_second_pass_gives_way(self, monkeypatch):
        # when the resampled circle does not count, the ladder goes on; past
        # its last rung M_{0.8} takes the fitted route
        spectrum = mo._circle_spectrum
        monkeypatch.setattr(mo, "_circle_spectrum", lambda e, radius, samples:
                            None if samples > 256
                            else spectrum(e, radius, samples))
        s = expr_to_series(Moebius(Quaternion(0.8)))
        assert s.certificate == "fitted"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_spectrum_certifies_no_circle(self):
        # a stem of about 1e306 on the circle is finite, but its FFT and the
        # norms of the Laurent check overflow, so that check cannot be read
        # and no circle counts
        leaf = SeriesFunc(TaylorSeries(np.array([[1e306, 0, 0, 0]] * 2),
                                       exact=True))
        s = expr_to_series(StarMul(leaf, Moebius(Quaternion(0.3))))
        assert s.certificate == "fitted"

    def test_schur_chain_on_its_root_rung(self):
        # the rung 1.2 fails its Laurent check and the root rung R = (1 +
        # R0) / 2 counts with 512 samples, enough for its order
        table, kind = _chain_problem(6, "zero")
        f = build_solution(table, kind)
        s = expr_to_series(f)
        assert s.certificate == "cauchy-sampled"
        assert s.growth_rate == 2.0 / (1.0 + f._root_radius())
        assert s.order < 512 - mo._LAURENT_TERMS
        assert np.allclose(f.to_series(s.order).coeffs, s.coeffs,
                           rtol=0.0, atol=1e-14)

    def test_tails_meet_target(self, criterion_7_lowered):
        kinds = [s.certificate for _, s in criterion_7_lowered]
        assert set(kinds) == {"exact", "cauchy-sampled", "fitted"}
        met = sum(s.tail_bound(0.95) <= 1e-12 for _, s in criterion_7_lowered)
        assert met >= 475
        # one lowering each, at the order the certificate asks for
        orders = [s.order for _, s in criterion_7_lowered
                  if s.certificate == "cauchy-sampled"]
        assert np.mean(orders) < 128

    def test_radius_stays_inside_singularity(self):
        # M_p has its pole on |z| = 1/|p| = 2, so R = 1.6: the rungs at and
        # past the pole are skipped, and R = 1.6 leaves no Laurent part
        s = expr_to_series(Moebius(Quaternion(0.5)))
        assert s.certificate == "cauchy-sampled"
        assert s.growth_rate == 1.0 / 1.6
        assert s.tail_bound(0.95) <= 1e-12

    def test_no_radius_takes_fitted_route(self):
        # singular at 1/0.9 = 1.11: R = 1.1 and 1.05 leave too slow a decay
        # for 256 samples, so no ladder radius counts and the order-64
        # lowering's own (C, g) = (0.9, 0.9) sizes the order:
        # 0.9 * 0.855^{n+1} / 0.145 <= 1e-12 first at n = 188
        s = expr_to_series(Moebius(Quaternion(0.9)))
        assert s.certificate == "fitted" and s.growth_rate == 0.9
        assert s.order == 188 and s.tail_bound(0.95) <= 1e-12

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
