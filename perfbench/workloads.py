"""Seeded inputs and closed-loop operations of the four workloads.

Every random number comes from ``numpy.random.default_rng((seed, index))``
of the workload; the program only receives the built objects.  A workload
is a *round*, a fixed list of operations, plus checkers for their outputs.
"""

from __future__ import annotations

import numpy as np

from slicereg import hyperbolic, interpolation, verify
from slicereg import (
    BlaschkeProduct,
    Bullet,
    Conj,
    Const,
    Identity,
    InterpolationProblem,
    Moebius,
    Quaternion,
    SamplerConfig,
    SeriesFunc,
    StarMul,
    TaylorSeries,
    blaschke_to_expr,
    evaluate_many,
    expr_to_series,
)
from slicereg.verify import sample_points

import checks

NAMES = ("np_classify", "np_eval", "suites", "crosscheck")
NODE_COUNTS = range(2, 9)


class Op:
    """One closed-loop operation; ``tag`` is the node count, if any."""

    __slots__ = ("label", "call", "tag")

    def __init__(self, label, call, tag=None):
        self.label = label
        self.call = call
        self.tag = tag


class Workload:
    """A round of operations and the checkers of their outputs.

    ``check(index, output)`` returns the problems found in the output of
    ``ops[index]``.  ``check_apart()`` runs checks that call the program
    outside the timed operations.  ``inputs`` describes the generated
    inputs as JSON-ready data.
    """

    def __init__(self, name, ops, check, check_apart, inputs):
        self.name = name
        self.ops = ops
        self.check = check
        self.check_apart = check_apart
        self.inputs = inputs


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng((seed, NAMES.index(name)))


def uniform_ball(rng, count, radius):
    g = rng.standard_normal((count, 4))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g * (radius * rng.random(count) ** 0.25)[:, None]


def unit_imaginary(rng):
    v = rng.standard_normal(3)
    return np.concatenate([[0.0], v / np.linalg.norm(v)])


def _quat(a) -> Quaternion:
    return Quaternion(*(float(x) for x in a))


def _blaschke(rng, degree, first_factor=None):
    """Blaschke product with factors in |p| <= 0.7 and a random unit u."""
    factors = [_quat(x) for x in uniform_ball(rng, degree, 0.7)]
    if first_factor is not None:
        factors[0] = first_factor
    u = rng.standard_normal(4)
    return BlaschkeProduct(factors, _quat(u / np.linalg.norm(u)))


def _nodes(rng, n):
    while True:
        nodes = np.sort(rng.uniform(-0.8, 0.8, n))
        if n == 1 or np.diff(nodes).min() >= 0.05:
            return nodes


def _clear_of_sphere(table) -> bool:
    """Every Q-table cell at least 1e-3 from the unit sphere."""
    for cell in table.cells.values():
        if cell.kind in ("unimodular", "ambiguous"):
            return False
        if cell.value is not None and abs(abs(cell.value) - 1.0) < 1e-3:
            return False
    return True


def _problem(rng, n, sampled):
    """Real-node problem with a clear Pick verdict; returns (prob, verdict).

    ``sampled`` problems take the values of a random Blaschke product of
    degree n..n+2, pulled inward by 0.95; the others take random values.
    """
    while True:
        nodes = _nodes(rng, n)
        if sampled:
            f = _blaschke(rng, int(rng.integers(n, n + 3))).to_expr()
            values = [f.eval(Quaternion(r)) * 0.95 for r in nodes]
        else:
            values = [_quat(x) for x in uniform_ball(rng, n, 0.75)]
        verdict = checks.pick_verdict(
            nodes, [v.components() for v in values])
        if verdict is None:
            continue
        prob = InterpolationProblem(list(nodes), values)
        if _clear_of_sphere(interpolation.build_q_table(prob)):
            return prob, verdict


def _problem_json(prob):
    return {"nodes": list(prob.nodes),
            "values": [v.to_json() for v in prob.values]}


# -- np_classify ---------------------------------------------------------


def _classify_op(prob):
    def call():
        table = interpolation.build_q_table(prob)
        kind = interpolation.classify(table)
        solvable, _ = interpolation.psd_check(interpolation.pick_matrix(
            list(prob.nodes), list(prob.values)))
        sol = None
        if kind.variant != "no_solution":
            sol = interpolation.build_solution(table, kind)
        return table, kind, solvable, sol
    return call


def _closed_form_problem(rng, points):
    """Criteria 1-2: (lam i, mu j) data with |Q| >= 1e-3 from 1."""
    while True:
        if points == 2:
            lam, mu = rng.uniform(0.05, 0.6, 2)
            if abs(checks.two_point_q_abs2(lam, mu) ** 0.5 - 1.0) >= 1e-3:
                return InterpolationProblem(
                    [-0.5, 0.5], [Quaternion(0, lam), Quaternion(0, 0, mu)]), \
                    (lam, mu)
        else:
            lam, mu = rng.uniform(0.01, 0.49, 2)
            q23 = checks.three_point_cells(lam, mu)[(2, 3)]
            if abs(checks.qabs(q23) - 1.0) >= 1e-3:
                return InterpolationProblem(
                    [0.0, -0.5, 0.5],
                    [Quaternion(0.0), Quaternion(0, lam), Quaternion(0, 0, mu)]), \
                    (lam, mu)


def build_np_classify(seed: int) -> Workload:
    rng = _rng(seed, "np_classify")
    cases = []  # (problem, expected verdict or None, closed-form params)
    for n in NODE_COUNTS:
        for sampled in (True, False):
            for _ in range(6):
                prob, verdict = _problem(rng, n, sampled)
                cases.append((prob, verdict, None))
    for points in (2, 3):
        for _ in range(8):
            prob, params = _closed_form_problem(rng, points)
            verdict = checks.pick_verdict(
                prob.nodes, [v.components() for v in prob.values])
            cases.append((prob, verdict, (points, params)))
    ops = [Op(f"classify.n{p.n}", _classify_op(p)) for p, _, _ in cases]

    def check(i, out):
        prob, verdict, closed = cases[i]
        table, kind, program_psd, sol = out
        solvable = kind.variant != "no_solution"
        found = []
        if verdict is not None:
            found += checks.check_verdict(solvable, verdict, f"problem {i}")
            found += checks.check_verdict(program_psd, verdict,
                                          f"problem {i} psd_check")
        if (sol is None) == solvable:
            found.append(f"problem {i}: solution presence does not match "
                         f"{kind.variant}")
        if closed is not None:
            points, (lam, mu) = closed
            if points == 2:
                got = table.cell(1, 2).value.abs2()
                found += checks.check_close(
                    got, checks.two_point_q_abs2(lam, mu),
                    checks.CLOSED_FORM_TOL, f"problem {i} |Q_1^2|^2")
            else:
                for cell, want in checks.three_point_cells(lam, mu).items():
                    found += checks.check_close(
                        table.cell(*cell).value.components(), want,
                        checks.CLOSED_FORM_TOL, f"problem {i} Q_{cell}")
        return found

    inputs = [_problem_json(p) for p, _, _ in cases]
    return Workload("np_classify", ops, check, lambda: [], inputs)


# -- np_eval -------------------------------------------------------------


def _interpolant(rng, n):
    while True:
        prob, verdict = _problem(rng, n, sampled=True)
        table = interpolation.build_q_table(prob)
        kind = interpolation.classify(table)
        if verdict and kind.variant == "non_singular":
            return prob, interpolation.build_solution(table, kind)


# per node count: interpolants in one round, nodes each is evaluated at, and
# whether it is also evaluated over the batch.  The small interpolants are
# repeated so that a round holds over 100 operations; n = 7 and 8 are
# evaluated at one node and not over the batch (0.4 and 0.7 s for one point
# on a 2-core Xeon VM), so that a round takes about 3 s and each operation
# repeats several times in a run; n = 6..8 still take most of the time
EVAL_PLAN = {2: (16, 2, True), 3: (8, 3, True), 4: (4, 3, True),
             5: (2, 2, True), 6: (1, 1, True), 7: (1, 1, False),
             8: (1, 1, False)}
EVAL_BATCH = 200
# (x, y) pairs at which the representation formula is checked
REPRESENTATION_PAIRS = 8


def build_np_eval(seed: int) -> Workload:
    rng = _rng(seed, "np_eval")
    items = [(_interpolant(rng, n), nodes, batch)
             for n, (k, nodes, batch) in EVAL_PLAN.items() for _ in range(k)]
    points = uniform_ball(rng, EVAL_BATCH, 0.95)
    # representation-formula samples: x + yI_a on three slices, x +- yJ
    pairs = REPRESENTATION_PAIRS
    units = [unit_imaginary(rng) for _ in range(4)]
    rad = 0.95 * rng.random(pairs) ** 0.5
    ang = np.pi * rng.random(pairs)
    x, y = rad * np.cos(ang), rad * np.sin(ang)
    one = np.array([1.0, 0.0, 0.0, 0.0])
    rep_points = np.concatenate(
        [x[:, None] * one + y[:, None] * u for u in units]
        + [x[:, None] * one - y[:, None] * units[3]])
    ops, expected = [], []
    for (prob, sol), nodes, batch in items:
        picked = np.sort(rng.choice(prob.n, nodes, replace=False))
        for k in picked:
            ops.append(Op(f"eval.n{prob.n}",
                          lambda sol=sol, q=Quaternion(prob.nodes[k]):
                          sol.eval(q), prob.n))
            expected.append(("node", prob.values[k].components()))
        if batch:
            ops.append(Op(f"eval_many.n{prob.n}",
                          lambda sol=sol: sol.eval_many(points), prob.n))
            expected.append(("batch", None))

    def check(i, out):
        what, target = expected[i]
        if what == "node":
            return checks.check_residuals(out.components(), target)
        return checks.check_self_map(out)

    def check_apart():
        found = []
        for (prob, sol), _, _ in items:
            vals = sol.eval_many(rep_points).reshape(5, pairs, 4)
            for a in range(3):
                found += checks.check_representation(
                    units[a], units[3], vals[a], vals[3], vals[4])
        return found

    inputs = [{**_problem_json(p), "solution": sol.to_json()}
              for (p, sol), _, _ in items]
    inputs += [points.tolist(), rep_points.tolist()]
    return Workload("np_eval", ops, check, check_apart, inputs)


# -- suites --------------------------------------------------------------


def _series_self_map(rng, order=12, zero_at_origin=False):
    raw = rng.standard_normal((order + 1, 4)) * \
        (0.5 ** np.arange(order + 1))[:, None]
    if zero_at_origin:
        raw[0] = 0.0
    total = np.linalg.norm(raw, axis=1).sum()
    return TaylorSeries(raw / max(total / 0.95, 1.0), exact=True)


def _alpha_series(rng):
    """f(0) = 0 with a real f'(0) = alpha in [0.2, 0.6)."""
    alpha = rng.uniform(0.2, 0.6)
    raw = np.zeros((6, 4))
    raw[1, 0] = alpha
    raw[2:] = rng.standard_normal((4, 4))
    raw[2:] *= (0.9 - alpha) / np.linalg.norm(raw[2:], axis=1).sum()
    return TaylorSeries(raw, exact=True)


def _blaschke_zero_at_origin(rng, degree):
    """M_0 * M_a * ... * u with u chosen so that f'(0) is real and > 0."""
    b = _blaschke(rng, degree, first_factor=Quaternion(0.0))
    prod = Quaternion(1.0)
    for a in b.factors[1:]:
        prod = prod * (-a)
    u = prod.conj() / abs(prod)
    return blaschke_to_expr(BlaschkeProduct(b.factors, u))


def _slice_series(rng, axis, order=8):
    """Self-map whose coefficients lie in C_I, as complex coefficients."""
    c = (rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)) \
        * 0.6 ** np.arange(order + 1)
    c *= 0.9 / np.abs(c).sum()
    return c, TaylorSeries(checks.embed(c, axis), exact=True)


# samples per run of spl, spl3, multi and of the estimate suites, and how
# many independent sets of self-maps a round runs them on: a round then
# holds over 100 operations and still repeats several times in a run.  The
# cost of a suite run depends on the map drawn by up to 2x, so a round draws
# many maps rather than running few maps on several sample seeds, which
# made the median jump between seeds
SUITE_COUNT = 100
ESTIMATE_COUNT = 4
MAP_SETS = 3


def _suite_plan(rng):
    """The 35 (suite, map, count) runs of one set of self-maps."""
    maps = [blaschke_to_expr(_blaschke(rng, d)) for d in (2, 3, 4, 5)]
    maps += [SeriesFunc(_series_self_map(rng)) for _ in range(2)]
    zero_maps = [SeriesFunc(_series_self_map(rng, zero_at_origin=True))]
    alpha_maps = [SeriesFunc(_alpha_series(rng)),
                  _blaschke_zero_at_origin(rng, 3)]
    zero_maps += alpha_maps
    maps += zero_maps
    plan = [(s, f, SUITE_COUNT) for s in ("spl", "spl3", "multi")
            for f in maps]
    plan += [(s, f, ESTIMATE_COUNT) for s in ("dieudonne", "goluzin")
             for f in zero_maps]
    plan += [("balpha", f, ESTIMATE_COUNT) for f in alpha_maps]
    return plan


def build_suites(seed: int) -> Workload:
    rng = _rng(seed, "suites")
    plan = [run for _ in range(MAP_SETS) for run in _suite_plan(rng)]
    seeds = rng.integers(0, 2 ** 31, len(plan))
    ops = [Op(f"suite.{s}", lambda s=s, f=f, c=c, k=int(k):
              verify.run_suite(s, f, SamplerConfig(seed=k, count=c)))
           for (s, f, c), k in zip(plan, seeds)]

    # classical comparison on C_I, and the q^2 equality case
    axis = unit_imaginary(rng)
    slice_maps = [_slice_series(rng, axis) for _ in range(2)]
    rad = 0.9 * rng.random(10) ** 0.5
    zs = rad * np.exp(2j * np.pi * rng.random(10))
    radii = rng.uniform(0.1, 0.9, 4)
    q2 = TaylorSeries(np.array([[0.0] * 4, [0.0] * 4, [1.0, 0, 0, 0]]),
                      exact=True)

    def check(i, report):
        if not report.passed:
            return [f"{report.suite} on map {i}: violation "
                    f"{report.max_violation:.3g} > {report.tolerance:g}"]
        return []

    def check_apart():
        found = []
        for c, fs in slice_maps:
            for z in zs:
                fh = hyperbolic.hyperbolic_derivative(fs, _quat(checks.embed(z, axis)))
                found += checks.check_fh(fh.components(), c, z, axis)
        for r in radii:
            found += checks.check_fh_q2(
                abs(hyperbolic.hyperbolic_derivative(q2, Quaternion(r))), r)
        return found

    inputs = [[s, f.to_json(), c, int(k)] for (s, f, c), k in zip(plan, seeds)]
    inputs += [checks.embed(c, axis).tolist() for c, _ in slice_maps]
    inputs += [checks.embed(zs, axis).tolist(), radii.tolist()]
    return Workload("suites", ops, check, check_apart, inputs)


# -- crosscheck ----------------------------------------------------------


# tree shapes are drawn from this fixed stream, so that every seed runs the
# same mix of shapes; the seed draws the parameters and the samples
SHAPE_SEED = 7


def _tree(shapes, rng, depth):
    """Criterion-7 form: Moebius p <= 0.5, bullet p <= 0.4, const <= 0.8."""
    kind = shapes.integers(0, 3)
    if depth == 0:
        if kind == 0:
            return Identity()
        if kind == 1:
            return Const(_quat(uniform_ball(rng, 1, 0.8)[0]))
        return Moebius(_quat(uniform_ball(rng, 1, 0.5)[0]))
    if kind == 0:
        return StarMul(_tree(shapes, rng, depth - 1),
                       _tree(shapes, rng, depth - 1))
    if kind == 1:
        return Bullet(_quat(uniform_ball(rng, 1, 0.4)[0]),
                      _tree(shapes, rng, depth - 1))
    return Conj(_tree(shapes, rng, depth - 1))


CROSSCHECK_TREES = 200
# trees whose exact and series values are compared apart from the timed run
CROSSCHECK_COMPARED = 100


def build_crosscheck(seed: int) -> Workload:
    trees = CROSSCHECK_TREES
    rng = _rng(seed, "crosscheck")
    shapes = np.random.default_rng(SHAPE_SEED)
    items = [(_tree(shapes, rng, 1 + i % 4),
              SamplerConfig(seed=int(rng.integers(0, 2 ** 31)), count=500,
                            radius_cap=0.9))
             for i in range(trees)]
    # one operation cross-checks two trees, of depths 1 and 4 or 2 and 3:
    # the latency of a single tree clusters by lowering order (64 or 512)
    # with a gap near the median, which made the median jump between seeds
    pairs = [(items[i], items[i + 3]) for i in range(0, trees, 4)] + \
        [(items[i + 1], items[i + 2]) for i in range(0, trees, 4)]
    ops = [Op("crosscheck.pair",
              lambda pair=pair: [verify.crosscheck(t, cfg) for t, cfg in pair])
           for pair in pairs]

    def check(i, reports):
        return [f"crosscheck of pair {i}: {r.max_violation:.3g}"
                for r in reports if not r.passed]

    def check_apart():
        # exact and series values at every sample, without the tail
        found = []
        for tree, cfg in items[:CROSSCHECK_COMPARED]:
            pts = sample_points(cfg)
            approx, _ = evaluate_many(expr_to_series(tree), pts,
                                      r_max=cfg.radius_cap)
            found += checks.check_series_agreement(tree.eval_many(pts), approx)
        return found

    inputs = [[t.to_json(), cfg.seed] for t, cfg in items]
    return Workload("crosscheck", ops, check, check_apart, inputs)


BY_NAME = {
    "np_classify": build_np_classify,
    "np_eval": build_np_eval,
    "suites": build_suites,
    "crosscheck": build_crosscheck,
}


def build(name: str, seed: int) -> Workload:
    return BY_NAME[name](seed)
