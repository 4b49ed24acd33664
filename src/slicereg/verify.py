"""Sampling-based verification suites for the inequalities of the library.

Suites: spl (two-point Schwarz-Pick), spl3 (three-point), multi (iterated
quotients), dieudonne, goluzin and balpha.  A suite is its inequality: from
seeded samples it yields (violations, points, label) triples, a violation
above the suite's tolerance failing, where label prefixes the worst input
([p] for spl, [p, s] for spl3, empty otherwise).  :func:`run_suite` alone
checks that f is a self-map, keeps the worst case and builds the report; a
report with no sample measured is inconclusive and fails.
:func:`crosscheck` of exact trees against truncated series reports through
the same helper.

Each fact of a map is computed once.  The sampled max |f| of the self-map
check is kept on the node, so an immutable map is probed once however many
suites run on it.  spl, spl3 and multi evaluate the trees that they build
over one f (the quotients f*_p, the links of a chain of quotients) in one
stem pass of :func:`~slicereg.moebius.eval_all`, which evaluates each node
they share once.  The Schwarz-Pick cases of a family of B maps stack their
stems as (B, P, 4), and all B actions M_{f(p)} take one broadcast call, as
do all B maps M_p.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import qarray, series as se
from .errors import NotSelfMap
from .hyperbolic import (
    balpha_bounds,
    dieudonne_rhs,
    dieudonne_sup_rhs,
    goluzin_rhs,
    hyperbolic_quotient,
    quotient_chain,
    quotient_on_sphere,
)
from .moebius import (
    FunctionExpr,
    SeriesFunc,
    _check_ball,
    _scalar_stem,
    _stem_action,
    eval_all,
    expr_to_series,
)
from .quaternion import Quaternion
from .series import TaylorSeries

__all__ = [
    "SamplerConfig",
    "VerificationReport",
    "sample_points",
    "check_self_map",
    "run_suite",
    "crosscheck",
    "SUITES",
    "default_tolerance",
]

_SUITE_TOL = {
    "spl": 1e-10,
    "spl3": 1e-10,
    "multi": 1e-9,
    "dieudonne": 1e-9,
    "goluzin": 1e-9,
    "balpha": 1e-9,
    "crosscheck": 1e-9,
}


def default_tolerance(suite: str) -> float:
    env = os.environ.get("SR_TOL")
    if env is not None:
        return float(env)
    return _SUITE_TOL[suite]


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    count: int = 1000
    radius_cap: float = 0.95

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"count must be nonnegative, got {self.count}")
        if not 0.0 < self.radius_cap <= 0.95:
            raise ValueError("radius_cap must be in (0, 0.95]")


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    count: int
    seed: int
    max_violation: float  # None when no sample was measured
    worst_input: tuple
    tolerance: float
    passed: bool

    def to_json(self):
        """The report as JSON data.  A NaN or infinite worst violation, for
        which JSON has no number, is the string "NaN", "Infinity" or
        "-Infinity"."""
        v = self.max_violation
        if v is not None and not math.isfinite(v):
            v = "NaN" if math.isnan(v) else ("Infinity" if v > 0
                                             else "-Infinity")
        return {
            "suite": self.suite,
            "count": self.count,
            "seed": self.seed,
            "maxViolation": v,
            "worstInput": [list(x) for x in self.worst_input],
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _report(suite, cfg, cases) -> VerificationReport:
    """The report of the worst of (violations, points, label) cases, the
    first winning a tie: label, then the point of its largest violation.  A
    NaN violation is worse than any number, so that it fails the report.
    With no sample measured the report is inconclusive: it fails, with no
    violation and worst input ``((0, 0, 0, 0),)``."""
    worst, worst_input = None, ((0, 0, 0, 0),)
    for v, points, label in cases:
        if len(v):
            idx = int(np.argmax(v))  # the first NaN, if there is one
            key = (bool(np.isnan(v[idx])), v[idx])
            if worst is None or key > worst:
                worst, worst_input = key, (*label, points[idx].tolist())
    max_violation = None if worst is None else float(worst[1])
    tol = default_tolerance(suite)
    passed = max_violation is not None and max_violation <= tol
    return VerificationReport(suite, cfg.count, cfg.seed, max_violation,
                              worst_input, tol, passed)


def sample_points(cfg: SamplerConfig) -> np.ndarray:
    rng = np.random.default_rng(cfg.seed)
    return qarray.uniform_ball(rng, cfg.count, cfg.radius_cap)


# the seeded points of the 0.95-ball at which check_self_map samples |f|
_SELF_MAP_PROBES = sample_points(SamplerConfig(seed=314159, count=1000))


def check_self_map(f: FunctionExpr):
    """Raise NotSelfMap unless |f| stays within 1 + 1e-9 at the 1,000
    seeded probes of the 0.95-ball; a NaN value is not within it.  The
    sampled max |f| is kept on the node, which is immutable, so that a map
    is probed once however many suites run on it."""
    worst = getattr(f, "_probe_max", None)
    if worst is None:
        worst = float(qarray.qnorm(f.eval_many(_SELF_MAP_PROBES)).max())
        object.__setattr__(f, "_probe_max", worst)
    if not worst <= 1.0 + 1e-9:
        raise NotSelfMap(f"sampled |f| reaches {worst:.6g} > 1")


# -- Schwarz-Pick suites ----------------------------------------------


def _spl_cases(maps, values, ps, points, labels):
    """|(M_{f(p)} . f)(q)| - |M_p(q)| (should be <= 0) for each map f with
    its value f(p) at its point p, rows of the (B, 4) arrays ``values`` and
    ``ps``, one case per map.  The stems of all maps come from one stem
    pass, and the B actions M_{f(p)} and the B maps M_p each take one
    broadcast action on them.  Samples within 1e-6 of p, where equality
    holds, are skipped."""
    for v in values:  # M_{f(p)} needs |f(p)| < 1, as Bullet does
        _check_ball(qarray.to_quaternion(v))

    def stem(z):
        bullets = _stem_action(np.stack(eval_all(maps, z)), values[:, None],
                               "M_{f(p)} . f")
        return np.concatenate(
            [bullets, _stem_action(_scalar_stem(z), ps[:, None], "M_p")])
    norms = qarray.qnorm(qarray.on_slices(points, stem))
    for p, lhs, rhs, label in zip(ps, norms, norms[len(ps):], labels):
        keep = qarray.qnorm(points - p) > 1e-6
        yield (lhs - rhs)[keep], points[keep], label


def suite_spl(f: FunctionExpr, cfg: SamplerConfig):
    """|(M_{f(p)} . f)(q)| <= |M_p(q)| at 4 points p of the 0.8-ball."""
    points = sample_points(cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    ps = qarray.uniform_ball(rng, 4, 0.8)
    yield from _spl_cases([f] * 4, f.eval_many(ps), ps, points,
                          [(x,) for x in ps.tolist()])


def suite_spl3(f: FunctionExpr, cfg: SamplerConfig):
    """spl on the quotient f*_p, at 3 pairs p, s of the 0.7-ball."""
    points = sample_points(cfg)
    rng = np.random.default_rng(cfg.seed + 2)
    quotients, ss, labels = [], [], []
    for _ in range(3):
        p, s = qarray.uniform_ball(rng, 2, 0.7)
        hq = hyperbolic_quotient(f, qarray.to_quaternion(p))
        if not hq.is_unimodular_constant:
            quotients.append(hq)
            ss.append(s)
            labels.append((p.tolist(), s.tolist()))
    if not quotients:
        return  # every f*_p is a unimodular constant: no case
    ss = np.array(ss)
    # f*_p(s) of each pair is the diagonal of one pass at every s
    values = np.array([v[k] for k, v in enumerate(eval_all(quotients, ss))])
    yield from _spl_cases(quotients, values, ss, points, labels)


def suite_multi(f: FunctionExpr, cfg: SamplerConfig):
    """|f^{n}(q)| <= 1 for iterated quotients at up to 3 random points."""
    points = sample_points(cfg)
    rng = np.random.default_rng(cfg.seed + 3)
    nodes = [qarray.to_quaternion(x) for x in qarray.uniform_ball(rng, 3, 0.6)]
    # depths 1, 2 and 3 are the prefixes of one chain of quotients, whose
    # live links are read in one stem pass
    chain = quotient_chain(f, nodes)
    values = iter(eval_all([hq for hq in chain
                            if not hq.is_unimodular_constant], points))
    for hq in chain:
        if hq.is_unimodular_constant:
            yield (np.array([abs(abs(hq.unimodular_value) - 1.0)]),
                   points[:1], ())
        else:
            yield qarray.qnorm(next(values)) - 1.0, points, ()


# -- estimate suites (require f(0) = 0) -------------------------------


def _estimate_inputs(f: FunctionExpr, cfg: SamplerConfig):
    """The series of the self-map f, which must vanish at 0, its derivative
    f'(0) = a_1 (0 when the series is the constant 0), and the seeded
    samples q0 of the estimate suites, with |q0| <= 0.9."""
    if abs(f.eval(Quaternion(0.0))) > 1e-10:
        raise ValueError("this suite requires f(0) = 0")
    fs = expr_to_series(f)
    d0 = fs.coefficient(1) if fs.order else Quaternion(0.0)
    rng = np.random.default_rng(cfg.seed)
    return fs, d0, qarray.uniform_ball(rng, cfg.count, min(0.9, cfg.radius_cap))


def suite_dieudonne(f: FunctionExpr, cfg: SamplerConfig):
    fs, _, pts = _estimate_inputs(f, cfg)
    pts = pts[qarray.qnorm(pts) >= 1e-3]
    fh = quotient_on_sphere(fs, pts)[0]
    fq0 = f.eval_many(pts)
    center, radius = dieudonne_rhs(pts, fq0)
    r = qarray.qnorm(pts)
    alpha = (1.0 - qarray.qnorm2(fq0)) / (1.0 - r * r)
    v = np.maximum(qarray.qnorm(fh - center) - radius,
                   qarray.qnorm(fh) - dieudonne_sup_rhs(r, alpha))
    yield v, pts, ()


def suite_goluzin(f: FunctionExpr, cfg: SamplerConfig):
    fs, d0, pts = _estimate_inputs(f, cfg)
    dc0 = min(abs(d0), 1.0)
    fh = quotient_on_sphere(fs, pts)[0]
    v = qarray.qnorm(fh) - goluzin_rhs(dc0, qarray.qnorm(pts))
    yield v, pts, ()


def suite_balpha(f: FunctionExpr, cfg: SamplerConfig):
    fs, d0, pts = _estimate_inputs(f, cfg)
    if not d0.is_real(1e-9) or not 0.0 <= d0.re < 1.0:
        raise ValueError("balpha suite requires real derivative at 0 in [0,1)")
    alpha = max(d0.re, 0.0)
    # f^h(q0) = f*_q0(q0), and f*_q0(conj q0) where |q0| > 1e-3
    fh, star = quotient_on_sphere(fs, pts)
    r = qarray.qnorm(pts)
    lo, hi = balpha_bounds(alpha, r)
    v = np.maximum(lo - fh[:, 0], qarray.qnorm(fh) - hi)
    v_star = np.maximum(lo - star[:, 0], qarray.qnorm(star) - hi)
    v = np.where(r > 1e-3, np.maximum(v, v_star), v)
    yield v, pts, ()


# -- backend cross-check ----------------------------------------------


def crosscheck(f: FunctionExpr, cfg: SamplerConfig,
               order: int = None) -> VerificationReport:
    """max over samples of |exact(f) - series(f)| - certified tail."""
    if order is not None and order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    s = f.to_series(order) if order is not None else expr_to_series(f)
    points = sample_points(cfg)
    exact = f.eval_many(points)
    approx, tails = se.evaluate_many(s, points, r_max=cfg.radius_cap)
    v = qarray.qnorm(exact - approx) - tails
    return _report("crosscheck", cfg, [(v, points, ())])


SUITES = {
    "spl": suite_spl,
    "spl3": suite_spl3,
    "multi": suite_multi,
    "dieudonne": suite_dieudonne,
    "goluzin": suite_goluzin,
    "balpha": suite_balpha,
}


def run_suite(name: str, f, cfg: SamplerConfig) -> VerificationReport:
    """Check that f is a self-map, then report suite ``name`` on f."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if isinstance(f, TaylorSeries):
        f = SeriesFunc(f)
    check_self_map(f)
    return _report(name, cfg, SUITES[name](f, cfg))


# -- random self-map generators (used by tests and demos) -------------


def random_blaschke_expr(rng: np.random.Generator, degree: int) -> FunctionExpr:
    from .moebius import BlaschkeProduct, blaschke_to_expr
    factors = [qarray.to_quaternion(x)
               for x in qarray.uniform_ball(rng, degree, 0.7)]
    u = rng.standard_normal(4)
    u /= np.linalg.norm(u)
    return blaschke_to_expr(BlaschkeProduct(factors, qarray.to_quaternion(u)))


def random_series_self_map(rng: np.random.Generator, order: int = 12) -> TaylorSeries:
    """Random truncated self-map: coefficients with total norm <= 1."""
    raw = rng.standard_normal((order + 1, 4)) * (0.5 ** np.arange(order + 1))[:, None]
    total = np.linalg.norm(raw, axis=1).sum()
    return TaylorSeries(raw / max(total / 0.95, 1.0), exact=True)
