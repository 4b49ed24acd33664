import math

import numpy as np
import pytest

from slicereg import qarray, series as se
from slicereg import hyperbolic
from slicereg.errors import (
    DegenerateAtZero,
    NotSelfMap,
    SingularDenominator,
    SliceRegError,
)
from slicereg.hyperbolic import (
    BallSpec,
    balpha_bounds,
    delta,
    dieudonne_rhs,
    dieudonne_sup_rhs,
    goluzin_rhs,
    hyperbolic_derivative,
    hyperbolic_quotient,
    iterated_quotient,
    pseudo_ball_to_euclidean,
    quotient_chain,
    quotient_on_sphere,
    rho,
)
from slicereg.moebius import (
    BlaschkeProduct,
    Bullet,
    Const,
    FunctionExpr,
    Identity,
    Moebius,
    SeriesFunc,
    StarInv,
    StarMul,
    _stem_rule,
    eval_all,
    expr_to_series,
)
from slicereg.verify import (
    SamplerConfig,
    random_blaschke_expr,
    random_series_self_map,
    run_suite,
)
from slicereg.quaternion import I, J, K, ONE, Quaternion, ZERO
from slicereg.series import TaylorSeries

Q2 = TaylorSeries.from_quaternions([ZERO, ZERO, ONE], exact=True)
Q3 = TaylorSeries.from_quaternions([ZERO, ZERO, ZERO, ONE], exact=True)


def rand_q(rng, cap):
    v = rng.uniform(-1, 1, 4)
    v = v / np.linalg.norm(v) * cap * rng.uniform(0.05, 0.95)
    return Quaternion.from_iter(v)


class TestDistances:
    def test_rho_from_origin_is_modulus(self):
        q = Quaternion(0.2, 0.3, -0.1, 0.4)
        assert abs(rho(ZERO, q) - abs(q)) <= 1e-15

    def test_rho_vanishes_on_diagonal(self):
        p = Quaternion(0.3, 0.1, 0.2, -0.2)
        assert rho(p, p) <= 1e-15

    def test_rho_on_orthogonal_imaginaries(self):
        lam, mu = 0.3, 0.45
        got = rho(I * lam, J * mu)
        expect = math.sqrt((lam ** 2 + mu ** 2) / (1 + lam ** 2 * mu ** 2))
        assert abs(got - expect) <= 1e-14

    def test_symmetry(self, rng):
        for _ in range(100):
            p, q = rand_q(rng, 0.9), rand_q(rng, 0.9)
            assert abs(rho(p, q) - rho(q, p)) <= 1e-12

    def test_delta_examples(self):
        assert delta(ZERO, ZERO) == 0.0
        assert abs(delta(ZERO, Quaternion(0.5)) - math.atanh(0.5)) <= 1e-15

    def test_delta_triangle_inequality(self, rng):
        for _ in range(100):
            a, b, c = (rand_q(rng, 0.9) for _ in range(3))
            assert delta(a, c) <= delta(a, b) + delta(b, c) + 1e-12

    def test_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            rho(Quaternion(1.5), ZERO)


class TestBallSpec:
    def test_centered_ball_is_fixed(self):
        e = pseudo_ball_to_euclidean(BallSpec(ZERO, 0.3))
        assert e.center == ZERO and abs(e.radius - 0.3) <= 1e-15

    def test_half_half_example(self):
        e = pseudo_ball_to_euclidean(BallSpec(Quaternion(0.5), 0.5))
        assert e.center.isclose(Quaternion(0.4), 1e-15)
        assert abs(e.radius - 0.4) <= 1e-15
        # endpoints on the real axis: rho(1/2, x) = 1/2 at x = 0 and x = 0.8
        assert abs(rho(Quaternion(0.5), ZERO) - 0.5) <= 1e-15
        assert abs(rho(Quaternion(0.5), Quaternion(0.8)) - 0.5) <= 1e-14

    def test_membership_equivalence(self, rng):
        b = BallSpec(Quaternion(0.3, 0.2, -0.1, 0.1), 0.45)
        e = pseudo_ball_to_euclidean(b)
        for _ in range(500):
            q = rand_q(rng, 0.98)
            assert b.contains(q) == e.contains(q)

    def test_validation(self):
        with pytest.raises(ValueError):
            BallSpec(ZERO, 0.3, "spherical")
        with pytest.raises(ValueError):
            BallSpec(Quaternion(1.2), 0.3)
        with pytest.raises(ValueError):
            BallSpec(ZERO, 1.5)


class TestQuotients:
    def test_identity_has_unimodular_quotient_one(self):
        p = Quaternion(0.2, 0.3, 0.0, -0.1)
        hq = hyperbolic_quotient(TaylorSeries.identity(), p)
        assert hq.is_unimodular_constant
        assert abs(hq.unimodular_value - ONE) <= 1e-9

    def test_value_outside_the_ball_is_not_a_self_map(self):
        # no unimodular verdict and |f(p)| > 1: the error names |f(p)|, and
        # not p, which is inside the ball; 1 + 1e-10 is unimodular by the
        # one-value rule only for |p| up to about 0.43
        cases = ((Quaternion(1.5), Quaternion(0.5, 0.5), "1.5 "),
                 (Quaternion(1 + 1e-10), Quaternion(0.42, 0.56),
                  "1.0000000001"))
        for c, p, shown in cases:
            with pytest.raises(NotSelfMap, match=r"\|f\(p\)\| = " + shown):
                hyperbolic_quotient(Const(c), p)

    def test_value_next_to_the_sphere_is_refused_with_its_margin(self):
        # at |p| = 0.9999 the one-value rule allows only 1.25e-14, so
        # 1 - 5e-14 is no unimodular constant, yet M_{f(p)} is refused
        # within 1e-13 of the sphere: the error names |f(p)| and its margin
        with pytest.raises(SingularDenominator,
                           match=r"\|f\(p\)\| = 0\.99999999999995004 lies "
                                 r"5e-14 inside the unit sphere"):
            hyperbolic_quotient(Const(1 - 5e-14), Quaternion(0.9999))

    def test_square_at_origin_is_identity(self, rng):
        hq = hyperbolic_quotient(Q2, ZERO)
        for _ in range(30):
            q = rand_q(rng, 0.9)
            assert abs(hq.eval(q) - q) <= 1e-10

    def test_vanishing_at_origin_factorization(self, rng):
        # when f(0) = 0, f*_0 = f / q and f(q) = q * f*_0 value-wise on
        # each slice through real-coefficient factors
        coeffs = np.zeros((4, 4))
        coeffs[1, 0] = 0.4
        coeffs[3, 0] = 0.3
        f = TaylorSeries(coeffs, exact=True)
        hq = hyperbolic_quotient(f, ZERO)
        for _ in range(30):
            q = rand_q(rng, 0.9)
            fv, _ = se.evaluate(f, q)
            assert abs(q * hq.eval(q) - fv) <= 1e-10

    def test_derivative_of_square_on_reals(self):
        for r in (0.1, 0.35, 0.6, 0.85):
            got = hyperbolic_derivative(Q2, Quaternion(r))
            expect = 2 * r / (1 + r * r)
            assert abs(got - Quaternion(expect)) <= 1e-9

    def test_derivative_of_identity(self):
        got = hyperbolic_derivative(TaylorSeries.identity(),
                                    Quaternion(0.3, 0.2))
        assert abs(got - ONE) <= 1e-9

    def test_derivative_at_zero_is_cullen_derivative(self):
        f = TaylorSeries.from_quaternions(
            [ZERO, Quaternion(0.3, 0.2, 0.0, 0.1), Quaternion(0.2)],
            exact=True)
        got = hyperbolic_derivative(f, ZERO)
        expect = se.cullen_derivative(f).coefficient(0)
        assert abs(got - expect) <= 1e-10

    def test_expression_near_zero(self):
        # an expression is lowered so that the tail of f' at |p| is within
        # the target; at p = 0, f^h(0) = a_1 / (1 - |a_0|^2)
        tree = BlaschkeProduct([Quaternion(0.3, 0.2),
                                Quaternion(-0.2, 0.0, 0.3, 0.1)],
                               u=Quaternion(0.6, 0.0, 0.0, 0.8)).to_expr()
        ref = tree.to_series(256)
        expect = ref.coefficient(1) / (1.0 - ref.coefficient(0).abs2())
        assert abs(hyperbolic_derivative(tree, ZERO) - expect) <= 1e-12
        unit = Quaternion(0.5, -0.5, 0.5, 0.5)
        for r in (1e-6, 1e-3, 0.05, 0.3):
            p = unit * r
            got = hyperbolic_derivative(tree, p)
            assert abs(got - hyperbolic_derivative(ref, p)) <= 1e-10

    def test_value_at_conjugate_point(self):
        # when f(p) = 0 the quotient at conj(p) collapses to
        # (1 - conj(p)^2) d_S f(p)
        p = Quaternion(0.3, 0.2, -0.1, 0.25)
        f = Moebius(p).to_series(256)
        hq = hyperbolic_quotient(f, p)
        got = hq.eval(p.conj())
        ds = se.spherical_derivative(f, p)
        expect = (ONE - p.conj() * p.conj()) * ds
        assert abs(got - expect) <= 1e-8


def per_point_route(fs, points):
    """f*_p(p) and f*_p(conj p) from one quotient series per point."""
    at_p, at_conj = [], []
    for row in points:
        p = qarray.to_quaternion(row)
        hq = hyperbolic_quotient(fs, p)
        at_p.append(hq.eval_series(p).components())
        at_conj.append(hq.eval_series(p.conj()).components())
    return np.array(at_p), np.array(at_conj)


def stem_test_maps():
    """An exact order-12 series and an order-512 lowered Blaschke tree."""
    rng = np.random.default_rng(7)
    tree = BlaschkeProduct([Quaternion(0.3, 0.2),
                            Quaternion(-0.2, 0.0, 0.3, 0.1),
                            Quaternion(0.1, -0.4, 0.2, 0.0)],
                           u=Quaternion(0.6, 0.0, 0.0, 0.8)).to_expr()
    lowered = tree.to_series(512)
    assert lowered.order == 512 and not lowered.exact
    return [random_series_self_map(rng, 12), lowered]


class TestStemDerivative:
    def test_matches_per_point_route(self):
        rng = np.random.default_rng(8)
        for fs in stem_test_maps():
            pts = qarray.uniform_ball(rng, 25, 0.9)
            got_p, got_conj = quotient_on_sphere(fs, pts)
            want_p, want_conj = per_point_route(fs, pts)
            assert np.abs(got_p - want_p).max() <= 1e-12
            assert np.abs(got_conj - want_conj).max() <= 1e-12
            assert np.array_equal(quotient_on_sphere(fs, pts)[0], got_p)

    def test_origin_real_and_nearly_real_points(self):
        pts = np.array([[0.0, 0.0, 0.0, 0.0],
                        [0.45, 0.0, 0.0, 0.0],
                        [-0.7, 0.0, 0.0, 0.0],
                        [0.3, 1e-9, 0.0, 0.0],
                        [-0.5, 0.0, -6e-10, 8e-10]])
        for fs in stem_test_maps():
            got_p, got_conj = quotient_on_sphere(fs, pts)
            want_p, want_conj = per_point_route(fs, pts)
            assert np.abs(got_p - want_p).max() <= 1e-12
            assert np.abs(got_conj - want_conj).max() <= 1e-12
            # at the origin f^h(0) = f'(0) / (1 - |f(0)|^2)
            expect = fs.coefficient(1) / (1.0 - fs.coefficient(0).abs2())
            assert np.abs(got_p[0] - expect.components()).max() <= 1e-12

    def test_zero_of_f(self):
        # when f(p) = 0: f*_p(conj p) = (1 - conj(p)^2) d_S f(p) and
        # f*_p(p) = (1 - |p|^2) f'(p)
        p = Quaternion(0.3, 0.2, -0.1, 0.25)
        f = Moebius(p).to_series(256)
        got_p, got_conj = quotient_on_sphere(f, qarray.from_quaternion(p))
        ds = se.spherical_derivative(f, p)
        expect = (ONE - p.conj() * p.conj()) * ds
        assert np.abs(got_conj - expect.components()).max() <= 1e-12
        dc, _ = se.evaluate(se.cullen_derivative(f), p)
        expect = dc * (1.0 - p.abs2())
        assert np.abs(got_p - expect.components()).max() <= 1e-12

    def test_scalar_form(self):
        fs = stem_test_maps()[0]
        p = Quaternion(0.2, -0.3, 0.1, 0.4)
        many = quotient_on_sphere(fs, qarray.from_quaternion(p, (1,)))[0]
        assert hyperbolic_derivative(fs, p).components() == \
            tuple(many[0])
        # a HyperbolicQuotient is a function like any other: f^h of hq at x
        hq = hyperbolic_quotient(fs, p)
        ref = hq.to_series(512)
        other = qarray.uniform_ball(np.random.default_rng(10), 1, 0.8)[0]
        for x in (ZERO, hq.p, qarray.to_quaternion(other)):
            want = quotient_on_sphere(ref, qarray.from_quaternion(x))[0]
            got = hyperbolic_derivative(hq, x).components()
            assert np.abs(np.array(got) - want).max() <= 1e-12

    def test_unimodular_returns_u(self):
        u = Quaternion(0.6, 0.0, 0.8, 0.0)
        assert hyperbolic_derivative(TaylorSeries.constant(u),
                                     Quaternion(0.2, 0.1)) == u
        hq = hyperbolic_quotient(TaylorSeries.identity(), Quaternion(0.3, 0.2))
        assert hq.is_unimodular_constant
        assert hyperbolic_derivative(hq, Quaternion(0.3, 0.2)) == \
            hq.unimodular_value

    def test_singular_denominator(self):
        with pytest.raises(SingularDenominator):
            quotient_on_sphere(TaylorSeries.constant(J), np.zeros((3, 4)))[0]


class TestSingleRoute:
    """Every quotient is its stem tree, whatever the type of its input."""

    def test_series_input_matches_tree_input(self):
        tree = BlaschkeProduct([Quaternion(0.3, 0.2),
                                Quaternion(-0.2, 0.0, 0.3, 0.1)]).to_expr()
        fs = expr_to_series(tree)
        rng = np.random.default_rng(11)
        ps, qs = (qarray.uniform_ball(rng, 30, 0.8) for _ in range(2))
        for p, q in zip(ps, qs):
            p, q = qarray.to_quaternion(p), qarray.to_quaternion(q)
            got = hyperbolic_quotient(fs, p).eval(q)
            assert abs(got - hyperbolic_quotient(tree, p).eval(q)) <= 1e-12

    def test_series_input_is_a_series_leaf(self):
        fs = stem_test_maps()[0]
        rng = np.random.default_rng(13)
        pts = qarray.uniform_ball(rng, 40, 0.9)
        for p in qarray.uniform_ball(rng, 5, 0.8):
            p = qarray.to_quaternion(p)
            a = hyperbolic_quotient(fs, p).eval_many(pts)
            b = hyperbolic_quotient(SeriesFunc(fs), p).eval_many(pts)
            assert np.array_equal(a, b)

    def test_tree_next_to_singular_sphere(self):
        # q lies 1e-3 from the sphere S_p, on another imaginary unit
        fs = stem_test_maps()[0]
        rng = np.random.default_rng(12)
        for p in qarray.uniform_ball(rng, 10, 0.8):
            p = qarray.to_quaternion(p)
            unit = rng.normal(size=3)
            unit *= p.im_norm() / np.linalg.norm(unit)
            q = Quaternion(p.re + 1e-3, *unit)
            hq = hyperbolic_quotient(fs, p)
            got = hq.eval(q)
            assert got == hq.result.eval(q)  # the tree, not the fallback
            assert abs(got - hq.eval_series(q)) <= 1e-12

    @staticmethod
    def sphere_points(p, rng, count=6):
        """p, conj(p) and points x + I y of S_p on other imaginary units."""
        units = rng.normal(size=(count, 3))
        units *= p.im_norm() / np.linalg.norm(units, axis=1)[:, None]
        rows = np.column_stack([np.full(count, p.re), units])
        return np.vstack([qarray.from_quaternion(p),
                          qarray.from_quaternion(p.conj()), rows])

    @staticmethod
    def assert_one_path(hq, pts, on_tree):
        """eval_many on a batch at one radius, or off S_p, is eval row by
        row: bitwise on the tree; on the series, which a batch reads by one
        matmul and a single point by a matrix-vector product, to rounding,
        and bitwise as that series reads the batch."""
        got = hq.eval_many(pts)
        if not on_tree:
            s = expr_to_series(hq, r_max=qarray.qnorm(pts).max(),
                               tail_target=hyperbolic._TAIL_TARGET)
            assert np.array_equal(got, se.evaluate_many(s, pts)[0])
        for row, q in zip(got, pts):
            q = qarray.to_quaternion(q)
            one = qarray.from_quaternion(hq.eval(q))
            if on_tree:
                assert np.array_equal(row, one)
            assert np.abs(row - one).max() <= 4 * np.finfo(float).eps
            assert abs(qarray.to_quaternion(row) - hq.eval_series(q)) <= 1e-12

    @pytest.mark.parametrize("chain", [None, "origin", "repeated"])
    def test_eval_many_is_eval_row_by_row(self, chain):
        # the tree of f*_p is singular on S_p: eval_many reads the whole
        # batch there from the series, bitwise as eval reads each point
        rng = np.random.default_rng(17)
        b = BlaschkeProduct([Quaternion(0.2, 0.1), Quaternion(-0.1, 0.0, 0.2),
                             Quaternion(0.3, 0.0, 0.1, -0.2)]).to_expr()
        p = Quaternion(0.3, 0.2, -0.1, 0.2)
        if chain is None:
            hq = hyperbolic_quotient(b, p)
        else:
            p = ZERO if chain == "origin" else p
            hq = quotient_chain(b, [p, p])[-1]
        with pytest.raises(SliceRegError):
            hq.result.eval_many(qarray.from_quaternion(p, (1,)))
        self.assert_one_path(hq, self.sphere_points(p, rng), on_tree=False)
        self.assert_one_path(hq, qarray.uniform_ball(rng, 20, 0.8),
                             on_tree=True)

    @pytest.mark.parametrize("suite", ["multi", "spl3"])
    def test_suites_on_a_constant_next_to_the_sphere(self, suite):
        # f(p) = 0.9999999 puts the Bullet of every quotient tree next to
        # its pole; the quotients, read from their series, are 0
        rep = run_suite(suite, Const(0.9999999), SamplerConfig(count=200))
        assert rep.passed

    @pytest.mark.parametrize("eps", [1e-5, 3e-6, 1e-6, 5e-7, 3e-7, 1e-7, 0.0])
    def test_verdict_next_to_the_sphere(self, eps):
        # f*_p of a degree-1 map is unimodular; p = eps i lies next to 0,
        # so the new quotient is judged at 1/2, far from S_p
        f = Moebius(Quaternion(0.3, 0.2, -0.1, 0.2), u=Quaternion(0.5, 0.5, -0.5, 0.5))
        hq = hyperbolic_quotient(f, Quaternion(0.0, eps))
        assert hq.is_unimodular_constant
        assert abs(1.0 - abs(hq.unimodular_value)) <= 1e-14


class CountedStem(FunctionExpr):
    """f, whose stem rule counts how often it runs."""

    def __init__(self, inner):
        self.inner, self.runs = inner, 0

    @_stem_rule
    def eval_many(self, z, memo):
        self.runs += 1
        return self.inner.eval_many(z)


def family_roots(kind):
    """A family of trees over one self-map, and points to read them at."""
    rng = np.random.default_rng(29)
    pts = qarray.uniform_ball(rng, 40, 0.9)
    b = random_blaschke_expr(rng, 3)
    if kind == "blaschke":
        g = random_blaschke_expr(rng, 2)
        return [b, StarMul(b, g), Bullet(Quaternion(0.3, -0.2), b),
                b.conjugate(), StarMul(g, StarInv(Moebius(Quaternion(0.1))))], pts
    if kind == "series":
        f = SeriesFunc(random_series_self_map(rng))
        return [f, Bullet(f.eval(Quaternion(0.2, 0.1)), f), StarMul(f, b),
                f.conjugate()], pts
    if kind == "chain":
        return quotient_chain(b, [rand_q(rng, 0.6) for _ in range(3)]), pts
    # quotients on their S_p: the tree refuses the batch, read from the series
    p = Quaternion(0.3, 0.2, -0.1, 0.2)
    hq = hyperbolic_quotient(b, p)
    with pytest.raises(SliceRegError):
        hq.result.eval_many(qarray.from_quaternion(p, (1,)))
    sphere = TestSingleRoute.sphere_points(p, rng)
    return [hq, Bullet(Quaternion(0.1, 0.3), hq), hq.conjugate(),
            hyperbolic_quotient(hq, Quaternion(-0.2, 0.1))], sphere


class TestFamilyStemPass:
    """eval_all reads a family of trees with one stem per shared node."""

    @pytest.mark.parametrize("kind", ["blaschke", "series", "chain", "sphere"])
    def test_bitwise_as_one_root_at_a_time(self, kind):
        roots, pts = family_roots(kind)
        for points in (pts, pts[:, 0] + 1j * qarray.qnorm(pts[:, 1:])):
            got = eval_all(roots, points)
            want = [r.eval_many(points) for r in roots]
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_chain_reads_its_map_once(self):
        rng = np.random.default_rng(31)
        f = CountedStem(random_blaschke_expr(rng, 3))
        chain = quotient_chain(f, [rand_q(rng, 0.6) for _ in range(3)])
        pts = qarray.uniform_ball(rng, 50, 0.9)
        f.runs = 0
        eval_all(chain, pts)
        assert f.runs == 1
        # one root at a time, each link reads f again
        f.runs = 0
        for hq in chain:
            hq.eval_many(pts)
        assert f.runs == 3

    def test_spl_bullets_read_their_map_once(self):
        rng = np.random.default_rng(37)
        f = CountedStem(random_blaschke_expr(rng, 2))
        ps = qarray.uniform_ball(rng, 4, 0.8)
        values = [qarray.to_quaternion(v) for v in f.eval_many(ps)]
        f.runs = 0
        eval_all([Bullet(v, f) for v in values], qarray.uniform_ball(rng, 50, 0.9))
        assert f.runs == 1

    def test_a_refused_root_raises_its_error(self):
        pts = np.array([[0.2, 0.1, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        roots = [Moebius(Quaternion(0.3)), StarInv(Identity())]
        with pytest.raises(SliceRegError) as one:
            roots[1].eval_many(pts)
        with pytest.raises(one.type):
            eval_all(roots, pts)


class TestQuotientReadsItsBaseOnce:
    """f(p) and the probe of the new quotient come from one read of f."""

    @pytest.mark.parametrize("p", [Quaternion(0.1, 0.05),
                                   Quaternion(0.3, -0.2, 0.1, 0.2)])
    def test_building_a_quotient_runs_the_stem_of_f_once(self, p):
        # |p| < 1/4 probes the quotient at 1/2, else at 0
        rng = np.random.default_rng(41)
        f = CountedStem(random_blaschke_expr(rng, 3))
        hq = hyperbolic_quotient(f, p)
        assert f.runs == 1 and not hq.is_unimodular_constant
        assert hq.eval(Quaternion(0.2, 0.1)) == \
            hyperbolic_quotient(f.inner, p).eval(Quaternion(0.2, 0.1))

    @pytest.mark.parametrize("p", [Quaternion(0.0, 1e-6),
                                   Quaternion(0.3, -0.2, 0.1, 0.2)])
    def test_probe_reads_f_from_the_batch(self, p):
        # the verdict from the stem of f kept by the batch is the one that
        # a fresh probe of the new quotient gives
        f = CountedStem(Moebius(Quaternion(0.3, 0.2, -0.1, 0.2),
                                u=Quaternion(0.5, 0.5, -0.5, 0.5)))
        hq = hyperbolic_quotient(f, p)
        assert f.runs == 1 and hq.is_unimodular_constant
        fresh = hyperbolic.HyperbolicQuotient(f, p, hq.result)
        assert hyperbolic.detect_unimodular_constant(fresh) == \
            hq.unimodular_value
        assert f.runs == 2


    def test_a_shared_pass_moves_to_the_rows_after_each_p(self):
        # a chain over one stem pass: f is read once, each link adds its own
        # nodes over the rows after its p, and the memo ends at z[n:]
        rng = np.random.default_rng(61)
        f = CountedStem(random_blaschke_expr(rng, 3))
        ps = [rand_q(rng, 0.6) for _ in range(2)]
        rows = [p.components() for p in ps]
        rows += [(hyperbolic._probe_point(p), 0.0, 0.0, 0.0) for p in ps]
        z = qarray.slice_points(np.concatenate(
            [rows, qarray.uniform_ball(rng, 20, 0.9)]))
        memo = {}
        f.eval_many(z, memo)
        chain = quotient_chain(f, ps, z, memo)
        assert f.runs == 1
        assert {len(stem) for _, stem in memo.values()} == {len(z) - 2}
        for hq, ref in zip(chain, quotient_chain(f.inner, ps)):
            assert hq.unimodular_value == ref.unimodular_value is None
            assert np.array_equal(hq.eval_many(z[2:], memo),
                                  ref.eval_many(z[2:]))

    def test_a_pass_must_start_at_p_and_hold_the_probe(self):
        f = random_blaschke_expr(np.random.default_rng(67), 2)
        p = Quaternion(0.3, 0.2)
        z = np.array([0.3 + 0.2j, 0.0, 0.4 + 0.1j])
        assert not hyperbolic_quotient(f, p, z).is_unimodular_constant
        for bad in (z[::-1], z[[0, 2]]):
            with pytest.raises(ValueError, match="probe point 0.0"):
                hyperbolic_quotient(f, p, bad)


class TestBoundArrays:
    def test_array_forms_equal_scalar_forms(self):
        rng = np.random.default_rng(9)
        q0 = qarray.uniform_ball(rng, 50, 0.9)
        fq0 = qarray.uniform_ball(rng, 50, 0.9)
        r = qarray.qnorm(q0)
        alpha = rng.uniform(0.1, 3.0, 50)
        dc0 = rng.uniform(0.0, 1.0, 50)
        a = rng.uniform(0.0, 0.99, 50)
        center, radius = dieudonne_rhs(q0, fq0)
        sup = dieudonne_sup_rhs(r, alpha)
        gol = goluzin_rhs(dc0, r)
        lo, hi = balpha_bounds(a, r)
        for k in range(50):
            c, rad = dieudonne_rhs(qarray.to_quaternion(q0[k]),
                                   qarray.to_quaternion(fq0[k]))
            assert c.components() == tuple(center[k]) and rad == radius[k]
            assert dieudonne_sup_rhs(r[k], alpha[k]) == sup[k]
            assert goluzin_rhs(dc0[k], r[k]) == gol[k]
            assert balpha_bounds(a[k], r[k]) == (lo[k], hi[k])

    def test_scalar_forms_return_floats(self):
        c, rad = dieudonne_rhs(Quaternion(0.4), Quaternion(0.16))
        assert isinstance(c, Quaternion) and type(rad) is float
        assert type(dieudonne_sup_rhs(0.5, 1.0)) is float
        assert type(goluzin_rhs(0.2, 0.5)) is float
        assert all(type(x) is float for x in balpha_bounds(0.2, 0.5))

    def test_arrays_are_validated(self):
        with pytest.raises(DegenerateAtZero):
            dieudonne_rhs(np.zeros((2, 4)), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            dieudonne_sup_rhs(np.array([0.2, 1.0]), 1.0)
        with pytest.raises(ValueError):
            goluzin_rhs(np.array([0.2, 1.5]), 0.3)
        with pytest.raises(ValueError):
            balpha_bounds(0.2, np.array([0.2, -0.1]))


class TestIterated:
    def test_square_twice_at_origin(self):
        hq = iterated_quotient(Q2, [ZERO, ZERO])
        assert hq.is_unimodular_constant
        assert abs(hq.unimodular_value - ONE) <= 1e-9

    def test_cube_three_times_at_origin(self):
        hq = iterated_quotient(Q3, [ZERO, ZERO, ZERO])
        assert hq.is_unimodular_constant
        assert abs(hq.unimodular_value - ONE) <= 1e-9

    def test_blaschke_degree_two_terminates_at_its_zeros(self):
        p1 = Quaternion(0.3)
        p2 = Quaternion(-0.2)
        b = BlaschkeProduct([p1, p2]).to_expr()
        hq = iterated_quotient(b, [p1, p2])
        assert hq.is_unimodular_constant
        assert abs(abs(hq.unimodular_value) - 1.0) <= 1e-9

    def test_chain_prefixes_are_iterated_quotients(self, rng):
        f = BlaschkeProduct([Quaternion(0.2, 0.1), Quaternion(-0.1, 0.0, 0.2),
                             Quaternion(0.3)]).to_expr()
        nodes = [Quaternion(0.1), Quaternion(0.2, 0.1), Quaternion(-0.15)]
        pts = qarray.uniform_ball(rng, 20, 0.6)
        for depth, hq in enumerate(quotient_chain(f, nodes), start=1):
            ref = iterated_quotient(f, nodes[:depth])
            assert np.array_equal(hq.eval_many(pts), ref.eval_many(pts))

    def test_quotient_of_quotient_reuses_verdict(self, monkeypatch):
        # the verdict on f is f's own; only the new quotient node is probed
        f = BlaschkeProduct([Quaternion(0.2, 0.1), Quaternion(0.3)]).to_expr()
        hq = hyperbolic_quotient(f, Quaternion(0.1))
        assert not hq.is_unimodular_constant
        probed = []
        detect = hyperbolic.detect_unimodular_constant
        monkeypatch.setattr(hyperbolic, "detect_unimodular_constant",
                            lambda e, memo=None: probed.append(e)
                            or detect(e, memo))
        hq2 = hyperbolic_quotient(hq, Quaternion(0.2, 0.1))
        assert len(probed) == 1 and probed[0].result is hq2.result

    def test_extra_quotient_of_unimodular_stays_constant(self):
        hq = iterated_quotient(Q2, [ZERO, ZERO, Quaternion(0.4)])
        assert hq.is_unimodular_constant
        assert abs(hq.unimodular_value - ONE) <= 1e-9

    def test_series_of_quotient_after_unimodular_is_the_constant(self):
        # f^{3} follows the unimodular f^{2}; its division-route series
        # would invert 1 - conj(u) f^{2} = 0
        b = BlaschkeProduct([Quaternion(0.3, 0.2),
                             Quaternion(-0.2, 0.0, 0.3)]).to_expr()
        chain = quotient_chain(b, [ZERO, Quaternion(0.1), Quaternion(0.4)])
        assert [hq.is_unimodular_constant for hq in chain] == \
            [False, True, True]
        hq = chain[2]
        u = hq.unimodular_value
        s = hq.to_series(64)
        assert s.exact and s.order == 0 and s.coefficient(0) == u
        for q in (Quaternion(0.2), Quaternion(0.1, 0.3, -0.2, 0.1),
                  Quaternion(-0.5, 0.0, 0.2)):
            assert hq.eval_series(q) == hq.eval(q) == u


def verdict_tolerance(r0):
    """The one-value rule's bound on |1 - |f(q0)|| at |q0| = r0."""
    m = (r0 + 0.6) / (1.0 + 0.6 * r0)
    return 1e-9 * (1.0 - m) / (1.0 + m)


class PointSpy(FunctionExpr):
    """An expression that records the points it is evaluated at."""

    def __init__(self, inner):
        self.inner, self.points = inner, []

    def eval_many(self, points, memo=None):
        self.points.append(np.array(points))
        return self.inner.eval_many(points, memo)


class TestUnimodularRule:
    """One value f(q0) decides whether a self-map is a unimodular constant."""

    def test_bound_on_near_constant_maps(self):
        # f = M_{-a} . (M_p * k) has f(p) = a; on |q| <= 0.6 it stays within
        # (1 - |a|^2) m / (1 - m) of a, m = (|p| + 0.6) / (1 + 0.6 |p|), and
        # within 1e-9 of a whenever the rule calls it a unimodular constant
        rng = np.random.default_rng(21)
        pts = qarray.uniform_ball(rng, 200, 0.6)
        worst, accepted = 0.0, 0
        for _ in range(100):
            p = qarray.to_quaternion(qarray.uniform_ball(rng, 1, 0.9)[0])
            gap = 10.0 ** rng.uniform(-12.0, -2.0)
            unit = qarray.to_quaternion(qarray.uniform_ball(rng, 1, 1.0)[0])
            a = unit * ((1.0 - gap) / abs(unit))
            k = random_blaschke_expr(rng, int(rng.integers(1, 3)))
            f = Bullet(-a, StarMul(Moebius(p), k))
            dist = qarray.qnorm(f.eval_many(pts) - qarray.from_quaternion(a))
            m = (abs(p) + 0.6) / (1.0 + 0.6 * abs(p))
            bound = (1.0 - abs(a) ** 2) * m / (1.0 - m)
            worst = max(worst, dist.max() / bound)
            unimodular = 1.0 - abs(a) <= verdict_tolerance(abs(p))
            if unimodular:
                accepted += 1
                assert dist.max() <= 1e-9
            assert hyperbolic_quotient(f, p).is_unimodular_constant == \
                unimodular
        assert worst <= 1.0 and accepted > 0

    @pytest.mark.parametrize("p", [ZERO, Quaternion(0.3, -0.4, 0.2, 0.5)])
    def test_constants_at_the_threshold(self, p):
        u = Quaternion(0.6, 0.0, 0.0, 0.8)
        tol = verdict_tolerance(abs(p))
        for sign in (-1.0, 1.0):
            inside = Const(u * (1.0 + sign * 0.99 * tol))
            hq = hyperbolic_quotient(inside, p)
            assert hq.is_unimodular_constant
            assert hq.unimodular_value == inside.value
            assert hq.to_series().coefficient(0) == inside.value
        below = Const(u * (1.0 - 1.01 * tol))
        hq = hyperbolic_quotient(below, p)
        # a constant inside the ball has the quotient 0
        assert not hq.is_unimodular_constant
        assert hq.eval(Quaternion(0.2, 0.1)) == ZERO
        if p == ZERO:
            # at q0 = 0 the rule also judges trees and series
            for c in (inside.value, below.value):
                got = hyperbolic.detect_unimodular_constant(Const(c))
                assert got == (c if c == inside.value else None)
            assert hyperbolic_derivative(TaylorSeries.constant(inside.value),
                                         Quaternion(0.3, 0.2)) == inside.value

    def test_quotient_at_origin_is_probed_at_one_half(self):
        # f*_0 of the identity is 1; 1/2 lies farther than 0 from S_0 = {0},
        # so the one value it is judged by is taken at 1/2, on the tree
        tree = PointSpy(StarMul(StarInv(Moebius(ZERO)), Bullet(ZERO, Identity())))
        node = hyperbolic.HyperbolicQuotient(Identity(), ZERO, tree)
        u = hyperbolic.detect_unimodular_constant(node)
        assert [x.tolist() for x in tree.points] == [[0.5 + 0j]]
        assert abs(u - ONE) <= 1e-15
        hq = hyperbolic_quotient(Identity(), ZERO)
        assert hq.is_unimodular_constant and abs(hq.unimodular_value - ONE) <= 1e-15
        # a quotient at p != 0 is judged at 0
        tree = PointSpy(hyperbolic_quotient(Q2, Quaternion(0.3, 0.2)).result)
        assert hyperbolic.detect_unimodular_constant(tree) is None
        assert [x.tolist() for x in tree.points] == [[[0.0, 0.0, 0.0, 0.0]]]
        # and so is a quotient node at |p| >= 1/4, on its tree
        p = Quaternion(0.3, 0.2)
        tree = PointSpy(tree.inner)
        node = hyperbolic.HyperbolicQuotient(SeriesFunc(Q2), p, tree)
        assert hyperbolic.detect_unimodular_constant(node) is None
        assert [x.tolist() for x in tree.points] == [[0j]]


class TestSchwarzPick:
    def test_strict_inequality_for_square(self, rng):
        p = Quaternion(0.3, 0.1, 0.0, 0.2)
        fp, _ = se.evaluate(Q2, p)
        mp = Moebius(p)
        num = Bullet(fp, SeriesFunc(Q2))
        for _ in range(60):
            q = rand_q(rng, 0.9)
            if abs(q - p) <= 1e-6:
                continue
            assert abs(num.eval(q)) <= abs(mp.eval(q)) + 1e-10

    def test_equality_for_moebius(self, rng):
        p = Quaternion(0.2, -0.1, 0.3, 0.0)
        f = Moebius(Quaternion(0.4, 0.1, 0.0, -0.2), u=J)
        fp = f.eval(p)
        num = Bullet(fp, f)
        mp = Moebius(p)
        for _ in range(60):
            q = rand_q(rng, 0.9)
            assert abs(abs(num.eval(q)) - abs(mp.eval(q))) <= 1e-9

    def test_three_point_form(self, rng):
        f = Q2
        p = Quaternion(0.25, 0.15, -0.1, 0.0)
        hq = hyperbolic_quotient(f, p)
        for _ in range(40):
            q = rand_q(rng, 0.8)
            try:
                v = hq.eval(q)
            except Exception:
                continue
            assert abs(v) <= 1.0 + 1e-9

    def test_swap_symmetry(self):
        # |f*_p(q)| = |f*_q(p)| for self-maps
        f = Q2
        p = Quaternion(0.3, 0.1, 0.2, 0.0)
        q = Quaternion(0.15, -0.2, 0.1, 0.1)
        a = hyperbolic_quotient(f, p).eval(q)
        b = hyperbolic_quotient(f, q).eval(p)
        assert abs(abs(a) - abs(b)) <= 1e-11

    def test_multipoint_quotients_stay_bounded(self, rng):
        f = BlaschkeProduct(
            [Quaternion(0.2, 0.1), Quaternion(-0.1, 0.0, 0.2),
             Quaternion(0.3)]).to_expr()
        nodes = [Quaternion(0.1), Quaternion(0.2, 0.1), Quaternion(-0.15)]
        cur = f
        for p in nodes:
            cur = hyperbolic_quotient(cur, p)
            for _ in range(15):
                q = rand_q(rng, 0.6)
                assert abs(cur.eval(q)) <= 1.0 + 1e-9


class TestDieudonneBounds:
    def test_membership_for_square(self, rng):
        f = Q2
        for _ in range(60):
            q0 = rand_q(rng, 0.85)
            if abs(q0) < 1e-2:
                continue
            fq0, _ = se.evaluate(f, q0)
            center, radius = dieudonne_rhs(q0, fq0)
            fh = hyperbolic_derivative(f, q0)
            assert abs(fh - center) <= radius + 1e-9

    def test_equality_at_real_points(self):
        # for f = q^2 at real r the derivative sits on the disk boundary:
        # center = radius = r / (1 + r^2) and f^h = 2r / (1 + r^2)
        r = 0.4
        q0 = Quaternion(r)
        center, radius = dieudonne_rhs(q0, Quaternion(r * r))
        assert abs(center - Quaternion(r / (1 + r * r))) <= 1e-14
        assert abs(radius - r / (1 + r * r)) <= 1e-14
        fh = hyperbolic_derivative(Q2, q0)
        assert abs(abs(fh - center) - radius) <= 1e-9

    def test_sup_branches(self):
        thr = math.sqrt(2.0) - 1.0
        assert abs(dieudonne_sup_rhs(thr - 1e-6, 2.0) - 0.5) <= 1e-12
        above = dieudonne_sup_rhs(thr + 1e-3, 2.0)
        assert above > 0.5
        r = thr + 1e-3
        expect = (1 + r * r) ** 2 / (4 * r * (1 - r * r)) / 2.0
        assert abs(above - expect) <= 1e-12

    def test_sup_bound_holds_for_square(self, rng):
        f = Q2
        for _ in range(40):
            q0 = rand_q(rng, 0.85)
            if abs(q0) < 1e-2:
                continue
            fq0, _ = se.evaluate(f, q0)
            alpha = (1 - abs(fq0) ** 2) / (1 - abs(q0) ** 2)
            fh = hyperbolic_derivative(f, q0)
            assert abs(fh) <= dieudonne_sup_rhs(abs(q0), alpha) + 1e-9

    def test_degenerate_at_zero(self):
        with pytest.raises(DegenerateAtZero):
            dieudonne_rhs(ZERO, ZERO)


class TestGoluzinBound:
    def test_zero_derivative_case(self):
        r = 0.3
        assert abs(goluzin_rhs(0.0, r) - 2 * r / (1 + r * r)) <= 1e-15

    def test_unit_derivative_case(self):
        assert goluzin_rhs(1.0, 0.5) == 1.0

    def test_equality_for_square(self):
        # f = q^2 has f'(0) = 0; at real r the bound is attained
        for r in (0.2, 0.5, 0.7):
            fh = hyperbolic_derivative(Q2, Quaternion(r))
            assert abs(abs(fh) - goluzin_rhs(0.0, r)) <= 1e-9

    def test_bound_holds_generic(self, rng):
        f = TaylorSeries.from_quaternions(
            [ZERO, Quaternion(0.3), Quaternion(0.0, 0.2), Quaternion(0.2)],
            exact=True)
        dc0 = abs(se.cullen_derivative(f).coefficient(0))
        for _ in range(40):
            q0 = rand_q(rng, 0.8)
            fh = hyperbolic_derivative(f, q0)
            assert abs(fh) <= goluzin_rhs(min(dc0, 1.0), abs(q0)) + 1e-9


class TestBalphaBounds:
    def test_alpha_zero(self):
        lo, hi = balpha_bounds(0.0, 0.4)
        assert abs(lo + 2 * 0.4 / (1 + 0.16)) <= 1e-15
        assert abs(hi - 2 * 0.4 / (1 + 0.16)) <= 1e-15

    def test_at_origin(self):
        lo, hi = balpha_bounds(0.3, 0.0)
        assert lo == 0.3 and hi == 0.3

    def test_bounds_hold_for_real_alpha_family(self, rng):
        alpha = 0.5
        f = TaylorSeries.from_quaternions(
            [ZERO, Quaternion(alpha), Quaternion(0.2, 0.1, 0.0, 0.1)],
            exact=True)
        for _ in range(30):
            q0 = rand_q(rng, 0.75)
            lo, hi = balpha_bounds(alpha, abs(q0))
            fh = hyperbolic_derivative(f, q0)
            assert fh.re >= lo - 1e-9
            assert abs(fh) <= hi + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            balpha_bounds(1.5, 0.2)
        with pytest.raises(ValueError):
            balpha_bounds(0.2, 1.5)
