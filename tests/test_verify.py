import json

import numpy as np
import pytest

from slicereg import qarray, verify
from slicereg.errors import NotSelfMap, OutsideConvergence
from slicereg.moebius import (
    Bullet,
    Const,
    FunctionExpr,
    Identity,
    Moebius,
    SeriesFunc,
    StarInv,
    StarMul,
    Sum,
    eval_all,
)
from slicereg.hyperbolic import hyperbolic_quotient, quotient_chain
from slicereg.interpolation import build_solution
from slicereg.quaternion import ONE, ZERO, Quaternion
from slicereg.series import TaylorSeries
from slicereg.verify import (
    SUITES,
    SamplerConfig,
    run_suite,
    sample_points,
)

from conftest import random_blaschke_expr, random_series_self_map

from test_hyperbolic import CountedStem, PointSpy
from test_moebius import _chain_problem

# q^2 vanishes at 0 with the real derivative 0 there, as every suite needs
Q2 = TaylorSeries.from_quaternions([ZERO, ZERO, ONE], exact=True)
ESTIMATES = ("dieudonne", "goluzin", "balpha")


def self_map(suite):
    if suite in ESTIMATES:
        return Q2
    return random_blaschke_expr(np.random.default_rng(4), 3)


def samples(suite, cfg):
    """The points at which the suite measures its violations."""
    if suite in ESTIMATES:
        return qarray.uniform_ball(np.random.default_rng(cfg.seed), cfg.count,
                                   min(0.9, cfg.radius_cap))
    return sample_points(cfg)


@pytest.mark.parametrize("suite", list(SUITES))
def test_worst_input_layout(suite):
    cfg = SamplerConfig(seed=5, count=60)
    report = run_suite(suite, self_map(suite), cfg)
    assert report.passed
    *label, q = report.to_json()["worstInput"]
    assert any(q == row for row in samples(suite, cfg).tolist())
    # [p, q] for spl, [p, s, q] for spl3, [q] for the others
    radius = {"spl": 0.8, "spl3": 0.7}.get(suite)
    assert len(label) == {"spl": 1, "spl3": 2}.get(suite, 0)
    assert all(len(x) == 4 and np.linalg.norm(x) < radius for x in label)


@pytest.mark.parametrize("suite", list(SUITES))
def test_run_suite_alone_checks_the_self_map(suite, monkeypatch):
    seen = []
    check = verify.check_self_map

    def spy(f):
        seen.append(f)
        return check(f)
    monkeypatch.setattr(verify, "check_self_map", spy)
    f, cfg = self_map(suite), SamplerConfig(seed=2, count=20)
    run_suite(suite, f, cfg)
    assert len(seen) == 1
    # a suite itself only samples and measures its inequality
    cases = list(SUITES[suite](seen[0], cfg))
    assert len(seen) == 1 and cases
    assert all(len(v) == len(pts) for v, pts, _ in cases)


def circle_passes(spy):
    """How often the spy was read on the self-map check's circle: the 513
    samples of the upper half of |z| = 0.95."""
    return sum(p.shape == (513,) and np.allclose(np.abs(p), 0.95)
               for p in spy.points)


@pytest.mark.parametrize("suite", ["spl", "multi"])
def test_self_map_is_probed_once_per_node(suite):
    f, cfg = PointSpy(self_map(suite)), SamplerConfig(seed=3, count=20)
    first = run_suite(suite, f, cfg)
    assert circle_passes(f) == 1
    for name in ("spl", "spl3", "multi", suite):
        run_suite(name, f, cfg)
    assert circle_passes(f) == 1
    assert run_suite(suite, f, cfg) == first


def test_non_self_map_is_refused_on_every_call():
    f = PointSpy(Const(1.5))
    for _ in range(3):
        with pytest.raises(NotSelfMap, match="1.5 > 1"):
            verify.check_self_map(f)
        with pytest.raises(NotSelfMap):
            run_suite("spl", f, SamplerConfig(count=10))
    assert circle_passes(f) == 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid:RuntimeWarning")
def test_nan_map_is_refused():
    # S - S for the exact series S = 1.7e308 (q + q^2) overflows to inf - inf
    # inside the ball, so its sampled max |f| is NaN
    s = SeriesFunc(TaylorSeries(np.array([[0.0] * 4, [1.7e308, 0, 0, 0],
                                          [1.7e308, 0, 0, 0]]), exact=True))
    f = Sum(s, StarMul(Const(Quaternion(-1.0)), s))
    for _ in range(2):
        with pytest.raises(NotSelfMap, match="nan"):
            verify.check_self_map(f)


def cap_maps():
    """The 50 maps (a + q) c with |a| = 0.9 and c = 1.001 / 1.85: each
    reaches |f| = 1.001 only on a cap of the 0.95-sphere, at 0.95 a / |a|."""
    rng = np.random.default_rng(11)
    c = Const(Quaternion(1.001 / 1.85))
    units = rng.standard_normal((50, 4))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    return [StarMul(Sum(Const(qarray.to_quaternion(0.9 * u)), Identity()), c)
            for u in units]


def prototype_maps():
    """30 Blaschke trees, 30 order-12 series self-maps, and 30 order-12
    series whose coefficient norms sum to 1.02."""
    rng = np.random.default_rng(7)
    maps = [random_blaschke_expr(rng, int(rng.integers(1, 5)))
            for _ in range(30)]
    maps += [SeriesFunc(random_series_self_map(rng)) for _ in range(30)]
    for _ in range(30):
        raw = rng.standard_normal((13, 4)) * (0.5 ** np.arange(13))[:, None]
        raw *= 1.02 / np.linalg.norm(raw, axis=1).sum()
        maps.append(SeriesFunc(TaylorSeries(raw, exact=True)))
    return maps


class TestSphereCheck:
    """sup |f| over the closed 0.95-ball, read off the stem on |z| = 0.95."""

    def test_cap_maps_are_refused(self):
        # the 1,000 seeded points of the 0.95-ball miss every cap
        probes = sample_points(SamplerConfig(seed=314159, count=1000))
        for f in cap_maps():
            assert qarray.qnorm(f.eval_many(probes)).max() <= 1.0 + 1e-9
            with pytest.raises(NotSelfMap, match="1.001 > 1"):
                verify.check_self_map(f)
            assert abs(f._ball_max - 1.001) <= 1e-10

    def test_interior_pole_is_refused(self):
        # 0.1 (q + 0.5)^{-*} is at most 0.1 / 0.45 on the sphere, but its
        # pole at -0.5 shows in the Laurent test of its circle
        f = StarMul(StarInv(Sum(Identity(), Const(Quaternion(0.5)))),
                    Const(Quaternion(0.1)))
        circle = 0.95 * np.exp(1j * np.linspace(0.0, np.pi, 513))
        assert verify._slice_max(f.eval_many(circle)).max() < 0.223
        with pytest.raises(NotSelfMap, match="singular"):
            verify.check_self_map(f)

    @pytest.mark.parametrize("f", [
        Moebius(Quaternion(0.99)), Moebius(Quaternion(0.0, 0.9999999)),
        Bullet(Quaternion(0.9), Moebius(Quaternion(0.95)))],
        ids=["M_0.99", "M_0.9999999i", "M_0.9.M_0.95"])
    def test_poles_next_to_the_sphere_pass(self, f):
        # poles just outside the sphere: a self-map has |a_m| <= 1, so on
        # 1,024 samples aliasing stays off the 64 Laurent terms
        verify.check_self_map(f)
        assert f._ball_max <= 1.0

    @pytest.mark.parametrize("degree", [959, 960, 1000])
    def test_high_degree_polynomial_passes(self, degree):
        # q^d sampled at N points aliases onto the Laurent term N - d when
        # d >= N - 64: from d = 960 a polynomial takes more than 1,024
        coeffs = np.zeros((degree + 1, 4))
        coeffs[-1, 0] = 1.0
        f = SeriesFunc(TaylorSeries(coeffs, exact=True))
        verify.check_self_map(f)
        assert f._ball_max == pytest.approx(0.95 ** degree, rel=1e-12)

    def test_truncated_leaf_short_of_the_sphere_names_its_radius(self):
        # g = 1.1 certifies the series only on |q| < 1 / 1.1 < 0.95
        f = SeriesFunc(TaylorSeries([[0.1, 0, 0, 0], [0.2, 0, 0, 0]], 1.0,
                                    1.1))
        with pytest.raises(OutsideConvergence, match="g = 1.1"):
            verify.check_self_map(f)

    def test_kept_maximum_bounds_the_sphere(self):
        dense = 0.95 * np.exp(1j * np.linspace(0.0, np.pi, 2 ** 15 + 1))
        g = np.random.default_rng(8).standard_normal((20000, 4))
        sphere = 0.95 * g / np.linalg.norm(g, axis=1, keepdims=True)
        for f in prototype_maps():
            try:
                verify.check_self_map(f)
            except NotSelfMap:
                pass
            reference = verify._slice_max(f.eval_many(dense)).max()
            assert f._ball_max >= reference * (1.0 - 1e-12)
            assert f._ball_max >= qarray.qnorm(f.eval_many(sphere)).max()


def spl_family(kind):
    """Maps, their points p and values f(p), and the samples q of a family
    of Schwarz-Pick cases."""
    rng = np.random.default_rng(43)
    b = random_blaschke_expr(rng, 3)
    if kind == "blaschke":
        g = random_blaschke_expr(rng, 2)
        maps = [b, StarMul(b, g), Bullet(Quaternion(0.3, -0.2), b)]
    elif kind == "series":
        f = SeriesFunc(random_series_self_map(rng))
        maps = [f, StarMul(f, b), Bullet(Quaternion(0.1, 0.2), f)]
    else:
        # the third quotient of a degree-3 map is a unimodular constant
        ps = [qarray.to_quaternion(x) for x in qarray.uniform_ball(rng, 2, 0.6)]
        maps = quotient_chain(b, ps)
    ps = qarray.uniform_ball(rng, len(maps), 0.8)
    values = np.array([m.eval_many(p[None])[0] for m, p in zip(maps, ps)])
    points = qarray.uniform_ball(rng, 60, 0.95)
    return maps, values, ps, np.concatenate([points, ps[:1]])


class TestSplFamilies:
    """spl and spl3 act with a family's Moebius maps in one broadcast pass."""

    @pytest.mark.parametrize("kind", ["blaschke", "series", "chain"])
    def test_bitwise_as_the_per_tree_route(self, kind):
        maps, values, ps, points = spl_family(kind)
        labels = [(k,) for k in range(len(maps))]
        stems = np.stack(eval_all(maps, qarray.slice_points(points)))
        got = list(verify._spl_cases(stems, values, ps, points, labels))
        # one Bullet and one Moebius tree per map
        trees = [Bullet(qarray.to_quaternion(v), f)
                 for f, v in zip(maps, values)]
        trees += [Moebius(qarray.to_quaternion(p)) for p in ps]
        norms = [qarray.qnorm(v) for v in eval_all(trees, points)]
        assert len(got) == len(maps)
        for k, (v, pts, label) in enumerate(got):
            keep = qarray.qnorm(points - ps[k]) > 1e-6
            assert label == (k,)
            assert np.array_equal(v, (norms[k] - norms[len(maps) + k])[keep])
            assert np.array_equal(pts, points[keep])
        # the sample at p itself, where equality holds, is skipped
        assert len(got[0][1]) == len(points) - 1

    def test_spl3_reads_its_values_in_one_pass(self, monkeypatch):
        f = CountedStem(random_blaschke_expr(np.random.default_rng(47), 3))
        cfg = SamplerConfig(seed=6, count=30)
        ref = list(SUITES["spl3"](f.inner, cfg))
        evals = []
        point_eval = FunctionExpr.eval
        monkeypatch.setattr(FunctionExpr, "eval",
                            lambda e, q: evals.append(q) or point_eval(e, q))
        f.runs = 0
        cases = list(SUITES["spl3"](f, cfg))
        # one read of f for the 3 quotients, their values f*_p(s) and the
        # cases
        assert f.runs == 1 and not evals
        assert len(cases) == len(ref) == 3
        for (v, pts, label), (w, ref_pts, ref_label) in zip(cases, ref):
            assert label == ref_label and np.array_equal(pts, ref_pts)
            assert np.abs(v - w).max() <= 1e-14


    @pytest.mark.parametrize("suite", ["spl", "spl3", "multi"])
    def test_each_suite_reads_its_map_once(self, suite):
        f = CountedStem(random_blaschke_expr(np.random.default_rng(53), 3))
        cases = list(SUITES[suite](f, SamplerConfig(seed=8, count=40)))
        assert f.runs == 1 and len(cases) == 4 - (suite != "spl")


def public_route_cases(suite, f, cfg):
    """The cases of spl, spl3 or multi from quotients built one at a time by
    hyperbolic_quotient or quotient_chain, and from the trees of each
    inequality evaluated at the samples."""
    points = sample_points(cfg)
    if suite == "multi":
        rng = np.random.default_rng(cfg.seed + 3)
        ps = qarray.uniform_ball(rng, 3, 0.6)
        return [(qarray.qnorm(hq.eval_many(points)) - 1.0, points, ())
                for hq in quotient_chain(f, map(qarray.to_quaternion, ps))]
    if suite == "spl":
        rng = np.random.default_rng(cfg.seed + 1)
        family = [(f, p, (p.tolist(),))
                  for p in qarray.uniform_ball(rng, 4, 0.8)]
    else:
        rng = np.random.default_rng(cfg.seed + 2)
        family = []
        for _ in range(3):
            p, s = qarray.uniform_ball(rng, 2, 0.7)
            hq = hyperbolic_quotient(f, qarray.to_quaternion(p))
            family.append((hq, s, (p.tolist(), s.tolist())))
    cases = []
    for g, p, label in family:
        value = g.eval(qarray.to_quaternion(p))
        lhs = qarray.qnorm(Bullet(value, g).eval_many(points))
        rhs = qarray.qnorm(Moebius(qarray.to_quaternion(p)).eval_many(points))
        keep = qarray.qnorm(points - p) > 1e-6
        cases.append(((lhs - rhs)[keep], points[keep], label))
    return cases


@pytest.mark.parametrize("kind", ["blaschke", "series", "chain"])
@pytest.mark.parametrize("suite", ["spl", "spl3", "multi"])
def test_one_stem_pass_as_the_public_route(suite, kind):
    # the suites share one stem pass of f among all their quotients; built
    # one at a time, the quotients read f at their own points
    rng = np.random.default_rng(59)
    f = {"blaschke": lambda: random_blaschke_expr(rng, 4),
         "series": lambda: SeriesFunc(random_series_self_map(rng, 12)),
         "chain": lambda: build_solution(*_chain_problem(5, "zero"))}[kind]()
    cfg = SamplerConfig(seed=10, count=80)
    got = list(SUITES[suite](f, cfg))
    want = public_route_cases(suite, f, cfg)
    assert len(got) == len(want) == (4 if suite == "spl" else 3)
    for (v, pts, label), (w, ref_pts, ref_label) in zip(got, want):
        assert label == ref_label and np.array_equal(pts, ref_pts)
        assert np.abs(v - w).max() <= 1e-15


def test_crosscheck_is_no_suite():
    with pytest.raises(ValueError, match="unknown suite 'crosscheck'"):
        run_suite("crosscheck", Q2, SamplerConfig(count=10))


class TestWorstCase:
    CFG = SamplerConfig(seed=1, count=3)
    PTS = np.array([[0.1, 0, 0, 0], [0.2, 0, 0, 0], [0.3, 0, 0, 0]])

    def test_first_of_equal_violations_wins(self):
        cases = [(np.array([-1.0, -0.5, -0.5]), self.PTS, ([1, 0, 0, 0],)),
                 (np.array([-0.5]), self.PTS[2:], ([2, 0, 0, 0],))]
        report = verify._report("spl", self.CFG, cases)
        assert report.max_violation == -0.5 and report.passed
        assert report.worst_input == ([1, 0, 0, 0], [0.2, 0, 0, 0])

    def test_nan_violation_fails(self):
        cases = [(np.array([1e-3]), self.PTS[:1], ()),
                 (np.array([-1.0, np.nan, np.nan]), self.PTS, ()),
                 (np.array([2.0]), self.PTS[2:], ())]
        report = verify._report("multi", self.CFG, cases)
        assert np.isnan(report.max_violation) and not report.passed
        assert report.worst_input == ([0.2, 0, 0, 0],)

    def test_no_case_is_inconclusive(self):
        for cases in ([], [(np.empty(0), self.PTS[:0], ())]):
            report = verify._report("spl3", self.CFG, cases)
            assert report.max_violation is None and not report.passed
            assert report.worst_input == ((0, 0, 0, 0),)
            assert report.to_json()["maxViolation"] is None

    def test_non_finite_violation_is_named_in_json(self):
        # JSON has no number for NaN or the infinities
        for v, name in ((np.nan, "NaN"), (np.inf, "Infinity")):
            report = verify._report("multi", self.CFG,
                                    [(np.array([-1.0, v]), self.PTS[:2], ())])
            assert not report.passed
            assert json.loads(json.dumps(report.to_json()))["maxViolation"] \
                == name
