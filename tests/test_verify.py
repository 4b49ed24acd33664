import numpy as np
import pytest

from slicereg import qarray, verify
from slicereg.errors import NotSelfMap
from slicereg.moebius import Const
from slicereg.quaternion import ONE, ZERO
from slicereg.series import TaylorSeries
from slicereg.verify import (
    SUITES,
    SamplerConfig,
    random_blaschke_expr,
    run_suite,
    sample_points,
)

from test_hyperbolic import PointSpy

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


def probes(spy):
    """How often the spy was read at the self-map probes."""
    return sum(np.array_equal(p, verify._SELF_MAP_PROBES) for p in spy.points)


@pytest.mark.parametrize("suite", ["spl", "multi"])
def test_self_map_is_probed_once_per_node(suite):
    f, cfg = PointSpy(self_map(suite)), SamplerConfig(seed=3, count=20)
    first = run_suite(suite, f, cfg)
    assert probes(f) == 1
    for name in ("spl", "spl3", "multi", suite):
        run_suite(name, f, cfg)
    assert probes(f) == 1
    assert run_suite(suite, f, cfg) == first


def test_non_self_map_is_refused_on_every_call():
    f = PointSpy(Const(1.5))
    for _ in range(3):
        with pytest.raises(NotSelfMap, match="1.5 > 1"):
            verify.check_self_map(f)
        with pytest.raises(NotSelfMap):
            run_suite("spl", f, SamplerConfig(count=10))
    assert probes(f) == 1


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
