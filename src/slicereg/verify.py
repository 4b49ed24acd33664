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

Each fact of a map is computed once.  The sup |f| of the self-map check
is kept on the node, so an immutable map is checked once however many
suites run on it.  spl, spl3 and multi each read f once, over one point
set: the quotient points p, their probe points, spl3's points s, then the
samples.  spl3 builds its quotients f*_p as one family
(:func:`~slicereg.hyperbolic.hyperbolic_quotients`) from the memo of that
pass, in one broadcast pass of the quotient rule over the rows after the
points; multi builds its chain of quotients one link at a time, each link
evaluating only its own node over the rows after its p, and reads all its
links at the samples in one slice read-out.  The Schwarz-Pick cases of a
family of B maps take their stems at the samples from that pass, and all
B actions M_{f(p)} take one broadcast call.  All B maps M_p take one
broadcast call of the closed-form Moebius stem, over their stacked
constants; no Moebius node is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qarray, series as se
from .errors import NotSelfMap
from .hyperbolic import (
    _fh_series,
    _probe_point,
    _unimodular,
    balpha_bounds,
    dieudonne_rhs,
    dieudonne_sup_rhs,
    goluzin_rhs,
    hyperbolic_quotients,
    quotient_chain,
    quotient_on_sphere,
)
from .moebius import (
    FunctionExpr,
    SeriesFunc,
    _check_ball,
    _circle_spectrum,
    _is_polynomial,
    _moebius_constants,
    _moebius_stem,
    _stem_action,
    expr_to_series,
)
from .quaternion import ONE, Quaternion
from .series import TaylorSeries

__all__ = [
    "SamplerConfig",
    "VerificationReport",
    "sample_points",
    "check_self_map",
    "run_suite",
    "crosscheck",
    "SUITES",
]

# the tolerance of the estimate suites, which measure f^h
_ESTIMATE_TOL = 1e-9

_SUITE_TOL = {
    "spl": 1e-10,
    "spl3": 1e-10,
    "multi": 1e-9,
    "dieudonne": _ESTIMATE_TOL,
    "goluzin": _ESTIMATE_TOL,
    "balpha": _ESTIMATE_TOL,
    "crosscheck": 1e-9,
}


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
    tol = _SUITE_TOL[suite]
    passed = max_violation is not None and max_violation <= tol
    return VerificationReport(suite, cfg.count, cfg.seed, max_violation,
                              worst_input, tol, passed)


def sample_points(cfg: SamplerConfig) -> np.ndarray:
    rng = np.random.default_rng(cfg.seed)
    return qarray.uniform_ball(rng, cfg.count, cfg.radius_cap)


def _slice_max(F) -> np.ndarray:
    """The largest |f(x + Iy)| = |A + I B| over the unit imaginary I, for
    stem values F = A + iB: since |A + I B|^2 = |A|^2 + |B|^2 + 2 <Im(A
    conj B), I>, it is sqrt(|A|^2 + |B|^2 + 2 |Im(A conj B)|)."""
    a, b = F.real, F.imag
    im = qarray.qnorm(qarray.qmul(a, qarray.qconj(b))[..., 1:])
    return np.sqrt(qarray.qnorm2(a) + qarray.qnorm2(b) + 2.0 * im)


def _ball_max(f: FunctionExpr) -> float:
    """sup |f| over the closed 0.95-ball, or NaN when f is not analytic and
    finite on it.  By the maximum modulus principle it is the largest
    :func:`_slice_max` of the stem on |z| = 0.95, once the Laurent test of
    :func:`~slicereg.moebius._circle_spectrum` on 1,024 samples finds no
    singularity inside; a self-map has |a_m| <= 1, so aliasing on that
    test stays below 0.95^960.  A polynomial of degree d aliases onto none
    of the 64 Laurent terms of N >= d + 65 samples, so a polynomial tree
    takes N = 2^ceil(log2(d + 65)) samples where that exceeds 1,024.  The
    gap between samples is closed by two zoom passes of 33 angles, over one
    and then 1/16 sample step on either side of the 4 largest local
    maxima."""
    degree = expr_to_series(f).order if _is_polynomial(f) else 0
    found, _ = _circle_spectrum(f, 0.95, 2 ** max(10, math.ceil(
        math.log2(degree + 65))))
    if found is None:
        return math.nan
    top = _slice_max(found[2])
    step = math.pi / (len(top) - 1)
    edges = np.pad(top, 1, mode="reflect")
    peaks = np.flatnonzero((top >= edges[:-2]) & (top >= edges[2:]))
    best = step * peaks[np.argsort(top[peaks])[-4:], None]
    for width in (step, step / 16.0):
        angles = best + np.linspace(-width, width, 33)
        zoom = _slice_max(f.eval_many(0.95 * np.exp(1j * angles)))
        top = np.append(top, zoom)
        best = np.take_along_axis(angles, zoom.argmax(axis=1)[:, None], 1)
    return float(top.max())


def check_self_map(f: FunctionExpr):
    """Raise NotSelfMap unless sup |f| over the closed 0.95-ball, from
    :func:`_ball_max`, is within 1 + 1e-9.  It is kept on the node, which
    is immutable, so that a map is checked once however many suites run
    on it."""
    worst = getattr(f, "_ball_max", None)
    if worst is None:
        worst = _ball_max(f)
        object.__setattr__(f, "_ball_max", worst)
    if math.isnan(worst):
        raise NotSelfMap("f is singular or not finite on the 0.95-ball: "
                         "its sup |f| is nan")
    if not worst <= 1.0 + 1e-9:
        raise NotSelfMap(f"sup |f| on the 0.95-ball reaches {worst:.6g} > 1")


# -- Schwarz-Pick suites ----------------------------------------------


def _spl_cases(stems, values, ps, points, labels):
    """|(M_{f(p)} . f)(q)| - |M_p(q)| (should be <= 0) for each map f with
    its value f(p) at its point p, rows of the (B, 4) arrays ``values`` and
    ``ps``, one case per map.  ``stems`` holds the maps' stems at the slice
    points of the samples q, as (B, P, 4), or (1, P, 4) for one map shared
    by all.  The B actions M_{f(p)} take one broadcast action, and the B
    maps M_p one broadcast call of the closed-form Moebius stem.
    Samples within 1e-6 of p, where equality holds, are skipped."""
    if not len(ps):
        return  # no map, no case
    for v in values:  # M_{f(p)} needs |f(p)| < 1, as Bullet does
        _check_ball(qarray.to_quaternion(v), "f(p)")
    consts = []
    for p in map(qarray.to_quaternion, ps):
        _check_ball(p)  # M_p needs |p| < 1, as Moebius does
        consts.append(_moebius_constants(p, ONE))
    maps = [np.array(c)[:, None] for c in zip(*consts)]

    def stem(z):
        bullets = _stem_action(stems, values[:, None], "M_{f(p)} . f")
        return np.concatenate([bullets, _moebius_stem(z, *maps, "M_p")])
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
    family = hyperbolic_quotients(f, map(qarray.to_quaternion, ps), z, memo)
    live = [k for k, hq in enumerate(family) if not hq.is_unimodular_constant]
    if not live:
        return  # every f*_p is a unimodular constant: no case
    # the stems of the f*_p at the points s and the samples, z[2n:]
    stems = np.array([family[k].eval_many(z[n:], memo)[n:] for k in live])
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
    chain = quotient_chain(f, map(qarray.to_quaternion, ps), z, memo)
    # the links that are not unimodular constants, read out at once
    live = [hq for hq in chain if not hq.is_unimodular_constant]
    if live:
        stems = np.array([hq.eval_many(z[n:], memo)[n:] for hq in live])
        norms = iter(qarray.qnorm(qarray.on_slices(points, lambda _: stems)))
    for hq in chain:
        if hq.is_unimodular_constant:
            yield (np.array([abs(abs(hq.unimodular_value) - 1.0)]),
                   points[:1], ())
        else:
            yield next(norms) - 1.0, points, ()


# -- estimate suites (require f(0) = 0) -------------------------------


def _estimate_inputs(f: FunctionExpr, cfg: SamplerConfig):
    """The series of the self-map f, which must vanish at 0, its derivative
    f'(0) = a_1 (0 when the series is the constant 0), and the seeded
    samples q0 of the estimate suites, with |q0| <= 0.9.  The series is
    :func:`~slicereg.hyperbolic._fh_series` at the largest |q0|.  f^h reads
    it and its Cullen and spherical derivatives; when the certified tail of
    any of them at the largest |q0| exceeds the suites' tolerance there is
    no sample: as for :func:`crosscheck`, none is then measured and the
    report is inconclusive."""
    rng = np.random.default_rng(cfg.seed)
    pts = qarray.uniform_ball(rng, cfg.count, min(0.9, cfg.radius_cap))
    reach = float(qarray.qnorm(pts).max(initial=0.0))
    fs = _fh_series(f, reach)
    if abs(fs.coefficient(0)) > 1e-10:
        raise ValueError("this suite requires f(0) = 0")
    d0 = fs.coefficient(1) if fs.order else Quaternion(0.0)
    tail = max(fs.tail_bound(reach), fs.derivative_tail_bound(reach))
    if not tail <= _ESTIMATE_TOL:
        pts = pts[:0]
    return fs, d0, pts


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


def crosscheck(f: FunctionExpr, cfg: SamplerConfig) -> VerificationReport:
    """max over samples of |exact(f) - series(f)| - certified tail, with the
    series that :func:`~slicereg.moebius.expr_to_series` lowers f to.  When
    that tail at the radius cap exceeds the tolerance no difference could
    fail the check, so no sample is measured and the report is
    inconclusive."""
    s = expr_to_series(f)
    if not s.tail_bound(cfg.radius_cap) <= _SUITE_TOL["crosscheck"]:
        return _report("crosscheck", cfg, [])
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

