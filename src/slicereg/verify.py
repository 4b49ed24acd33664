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
suites run on it.  spl, spl3 and multi each read f once, over one point
set: the quotient points p, their probe points, spl3's points s, then the
samples.  Each quotient f*_p (or link of a chain of quotients) is built by
:func:`~slicereg.hyperbolic.hyperbolic_quotient` from the memo of that pass,
and evaluates only its own nodes, over the rows after its p.  The
Schwarz-Pick cases of a family of B maps take their stems at the samples
from that pass, and all B actions M_{f(p)} take one broadcast call, as do
all B maps M_p.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import qarray, series as se
from .errors import NotSelfMap
from .hyperbolic import (
    _probe_point,
    _unimodular,
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
    _memo_rows,
    _scalar_stem,
    _stem_action,
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


def _spl_cases(stems, values, ps, points, labels):
    """|(M_{f(p)} . f)(q)| - |M_p(q)| (should be <= 0) for each map f with
    its value f(p) at its point p, rows of the (B, 4) arrays ``values`` and
    ``ps``, one case per map.  ``stems`` holds the maps' stems at the slice
    points of the samples q, as (B, P, 4), or (1, P, 4) for one map shared
    by all.  The B actions M_{f(p)} and the B maps M_p each take one
    broadcast action.  Samples within 1e-6 of p, where equality holds, are
    skipped."""
    for v in values:  # M_{f(p)} needs |f(p)| < 1, as Bullet does
        _check_ball(qarray.to_quaternion(v), "f(p)")

    def stem(z):
        bullets = _stem_action(stems, values[:, None], "M_{f(p)} . f")
        return np.concatenate(
            [bullets, _stem_action(_scalar_stem(z), ps[:, None], "M_p")])
    norms = qarray.qnorm(qarray.on_slices(points, stem))
    for p, lhs, rhs, label in zip(ps, norms, norms[len(ps):], labels):
        keep = qarray.qnorm(points - p) > 1e-6
        yield (lhs - rhs)[keep], points[keep], label


def _stem_pass(f, ps, *rest):
    """One stem pass of f over one point set: the quotient points ``ps``,
    their probe points, then the rows of ``rest``.  Returns the slice points
    z of these rows and a memo holding f's stem there."""
    probes = [(_probe_point(qarray.to_quaternion(p)), 0.0, 0.0, 0.0)
              for p in ps]
    z = qarray.slice_points(np.concatenate([ps, np.array(probes), *rest]))
    memo = {}
    f.eval_many(z, memo)
    return z, memo


def suite_spl(f: FunctionExpr, cfg: SamplerConfig):
    """|(M_{f(p)} . f)(q)| <= |M_p(q)| at 4 points p of the 0.8-ball, save
    those where the one-value rule judges f a unimodular constant."""
    points = sample_points(cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    ps = qarray.uniform_ball(rng, 4, 0.8)
    F = f.eval_many(qarray.slice_points(np.concatenate([ps, points])))
    values = qarray.on_slices(ps, lambda _: F[:len(ps)])
    live = ~_unimodular(qarray.qnorm(values), qarray.qnorm(ps))
    yield from _spl_cases(F[None, len(ps):], values[live], ps[live], points,
                          [(x,) for x in ps[live].tolist()])


def suite_spl3(f: FunctionExpr, cfg: SamplerConfig):
    """spl on the quotient f*_p, at 3 pairs p, s of the 0.7-ball."""
    points = sample_points(cfg)
    rng = np.random.default_rng(cfg.seed + 2)
    ps, ss = np.array([qarray.uniform_ball(rng, 2, 0.7)
                       for _ in range(3)]).transpose(1, 0, 2)
    n = len(ps)
    z, memo = _stem_pass(f, ps, ss, points)
    live, stems = [], []
    for k, p in enumerate(ps):
        rows = _memo_rows(memo, slice(k, None))
        hq = hyperbolic_quotient(f, qarray.to_quaternion(p), z[k:], rows)
        if not hq.is_unimodular_constant:
            live.append(k)
            # the stem of f*_p at the points s and the samples, z[2n:]
            stems.append(hq.eval_many(z[k + 1:], rows)[2 * n - k - 1:])
    if not live:
        return  # every f*_p is a unimodular constant: no case
    stems = np.array(stems)
    # f*_p(s) of each pair is read off the row of its own s
    own_s = stems[range(len(live)), live]
    values = qarray.on_slices(ss[live], lambda _: own_s)
    yield from _spl_cases(stems[:, n:], values, ss[live], points,
                          [(ps[k].tolist(), ss[k].tolist()) for k in live])


def suite_multi(f: FunctionExpr, cfg: SamplerConfig):
    """|f^{n}(q)| <= 1 for iterated quotients at up to 3 random points."""
    points = sample_points(cfg)
    rng = np.random.default_rng(cfg.seed + 3)
    ps = qarray.uniform_ball(rng, 3, 0.6)
    n = len(ps)
    # depths 1, 2 and 3 are the prefixes of one chain of quotients, built
    # over one stem pass; the memo ends at z[n:], the probes and samples
    z, memo = _stem_pass(f, ps, points)
    chain = quotient_chain(f, [qarray.to_quaternion(p) for p in ps], z, memo)
    for hq in chain:
        if hq.is_unimodular_constant:
            yield (np.array([abs(abs(hq.unimodular_value) - 1.0)]),
                   points[:1], ())
        else:
            F = hq.eval_many(z[n:], memo)[n:]
            values = qarray.on_slices(points, lambda _: F)
            yield qarray.qnorm(values) - 1.0, points, ()


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
