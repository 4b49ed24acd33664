"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line,
and fails loudly if the stated tolerance or runtime bound is missed.
"""

import math
import time

import numpy as np
import pytest

from slicereg import qarray, series as se
from slicereg.hyperbolic import (
    dieudonne_rhs,
    goluzin_rhs,
    hyperbolic_derivative,
    iterated_quotient,
)
from slicereg.interpolation import (
    InterpolationProblem,
    build_q_table,
    build_solution,
    classify,
    pick_matrix,
    psd_check,
    slice_extend,
)
from slicereg.moebius import (
    BlaschkeProduct,
    Bullet,
    Conj,
    Const,
    Identity,
    Moebius,
    SeriesFunc,
    StarMul,
    blaschke_to_expr,
    moebius_classical_eval,
)
from slicereg.quaternion import I, J, K, ONE, Quaternion, ZERO
from slicereg.series import TaylorSeries
from slicereg.verify import (
    SamplerConfig,
    crosscheck,
    run_suite,
)

from conftest import random_blaschke_expr, random_series_self_map


def report(number, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion-{number}: {detail}"
    print(line)
    assert ok, line


def two_point_q(lam, mu):
    scale = moebius_classical_eval(Quaternion(-0.5), Quaternion(0.5))
    return scale.inverse() * moebius_classical_eval(I * lam, J * mu)


def three_point_q23(lam, mu):
    scale = moebius_classical_eval(Quaternion(-0.5), Quaternion(0.5))
    return scale.inverse() * moebius_classical_eval(I * (-2 * lam),
                                                    J * (2 * mu))


def test_criterion_1_two_point_example():
    start = time.monotonic()
    grid = np.linspace(0.05, 0.6, 50)
    worst = 0.0
    for lam in grid:
        for mu in grid:
            got = abs(two_point_q(lam, mu)) ** 2
            expect = (25.0 / 16.0) * (lam ** 2 + mu ** 2) / \
                (1 + lam ** 2 * mu ** 2)
            worst = max(worst, abs(got - expect))
    boundary_err = 0.0
    for lam in np.linspace(0.1, 0.7, 10):
        expect = math.sqrt((4 + 5 * lam) * (4 - 5 * lam) /
                           ((5 + 4 * lam) * (5 - 4 * lam)))
        lo, hi = 0.01, 0.99
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if abs(two_point_q(lam, mid)) < 1.0:
                lo = mid
            else:
                hi = mid
        boundary_err = max(boundary_err, abs(0.5 * (lo + hi) - expect))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and boundary_err <= 1e-10 and elapsed < 1.0
    report(1, ok, f"two-point |Q|^2 err {worst:.2e}, boundary err "
                  f"{boundary_err:.2e}, {elapsed:.2f}s")


def test_criterion_2_three_point_example():
    start = time.monotonic()
    grid = np.linspace(0.01, 0.49, 50)
    worst = 0.0
    for lam in grid:
        for mu in grid:
            t = build_q_table(InterpolationProblem(
                [0.0, -0.5, 0.5], [ZERO, I * lam, J * mu]))
            worst = max(worst, abs(t.cell(1, 2).value - I * (-2 * lam)))
            worst = max(worst, abs(t.cell(1, 3).value - J * (2 * mu)))
            expect = (ONE + K * (4 * lam * mu)).inverse() * \
                (I * lam + J * mu) * 2.5
            if t.cell(2, 3).kind == "ball" or t.cell(2, 3).kind == "infinity":
                worst = max(worst, abs(t.cell(2, 3).value - expect))
    lo, hi = 0.1, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if abs(three_point_q23(0.25, mid)) < 1.0:
            lo = mid
        else:
            hi = mid
    thresh_err = abs(0.5 * (lo + hi) - math.sqrt(13.0 / 112.0))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and thresh_err <= 1e-10 and elapsed < 1.0
    report(2, ok, f"three-point cell err {worst:.2e}, threshold err "
                  f"{thresh_err:.2e}, {elapsed:.2f}s")


def _random_problem(rng):
    n = int(rng.integers(2, 6))
    while True:
        nodes = np.sort(rng.uniform(-0.8, 0.8, n))
        if np.diff(nodes).min() < 0.05:
            continue
        if rng.random() < 0.5:
            # generically unsolvable: unconstrained random values
            values = [qarray.to_quaternion(x)
                      for x in qarray.uniform_ball(rng, n, 0.75)]
        else:
            # solvable: samples of an actual self-map, pulled slightly
            # inward to stay clear of the singular boundary
            f = random_blaschke_expr(rng, int(rng.integers(n, n + 3)))
            values = [f.eval(Quaternion(r)) * 0.95 for r in nodes]
        prob = InterpolationProblem(list(nodes), values)
        t = build_q_table(prob)
        admissible = True
        for cell in t.cells.values():
            if cell.kind in ("unimodular", "ambiguous"):
                admissible = False
                break
            if cell.value is not None and abs(abs(cell.value) - 1.0) < 1e-3:
                admissible = False
                break
        if admissible:
            return prob, t


@pytest.fixture(scope="module")
def random_problems():
    rng = np.random.default_rng(42)
    out = []
    for _ in range(300):
        prob, t = _random_problem(rng)
        kind = classify(t)
        sol = build_solution(t, kind) if kind.variant == "non_singular" \
            else None
        out.append((prob, t, kind, sol))
    return out


def test_criterion_3_solver_correctness(random_problems):
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst_res, worst_map, solved = 0.0, 0.0, 0
    for prob, t, kind, sol in random_problems:
        if sol is None:
            continue
        solved += 1
        for r, s in zip(prob.nodes, prob.values):
            worst_res = max(worst_res, abs(sol.eval(Quaternion(r)) - s))
        pts = qarray.uniform_ball(rng, 2000, 0.95)
        worst_map = max(worst_map, float(qarray.qnorm(sol.eval_many(pts)).max()))
    elapsed = time.monotonic() - start
    ok = worst_res <= 1e-9 and worst_map <= 1.0 + 1e-9 and elapsed < 60.0 \
        and solved > 0
    report(3, ok, f"{solved}/300 solvable, residual {worst_res:.2e}, "
                  f"sup sample {worst_map:.12f}, {elapsed:.1f}s")


def test_criterion_4_pick_agreement(random_problems):
    agree = 0
    for prob, t, kind, sol in random_problems:
        P = pick_matrix(list(prob.nodes), list(prob.values))
        _, min_eig = psd_check(P)
        scale = max(1.0, float(np.abs(P.entries).max()))
        psd = min_eig >= -1e-9 * scale
        if psd == (kind.variant != "no_solution"):
            agree += 1
    ok = agree == len(random_problems)
    report(4, ok, f"classification vs PSD agreement {agree}/300")


def test_criterion_5_schwarz_pick_suites():
    rng = np.random.default_rng(11)
    fs = [random_blaschke_expr(rng, d) for d in (2, 3, 4, 5)]
    fs += [SeriesFunc(random_series_self_map(rng)) for _ in range(2)]
    worst = -np.inf
    for suite, count in (("spl", 1700), ("spl3", 1700), ("multi", 1700)):
        for idx, f in enumerate(fs):
            rep = run_suite(suite, f, SamplerConfig(seed=100 + idx,
                                                    count=count))
            assert rep.passed, f"{suite} failed on function {idx}"
            worst = max(worst, rep.max_violation)
    # Moebius inputs achieve equality
    eq_err = 0.0
    for idx in range(4):
        p = qarray.to_quaternion(qarray.uniform_ball(rng, 1, 0.6)[0])
        c = qarray.to_quaternion(qarray.uniform_ball(rng, 1, 0.6)[0])
        f = Moebius(c, u=J)
        fp = f.eval(p)
        pts = qarray.uniform_ball(rng, 500, 0.9)
        lhs = qarray.qnorm(Bullet(fp, f).eval_many(pts))
        rhs = qarray.qnorm(Moebius(p).eval_many(pts))
        eq_err = max(eq_err, float(np.abs(lhs - rhs).max()))
    ok = worst <= 1e-10 and eq_err <= 1e-10
    report(5, ok, f"18 suite runs x 1700 samples, worst violation "
                  f"{worst:.2e}, Moebius equality err {eq_err:.2e}")


def test_criterion_6_estimate_suites():
    rng = np.random.default_rng(21)
    raw = random_series_self_map(rng).coeffs.copy()
    raw[0] = 0.0
    f0 = TaylorSeries(raw, exact=True)  # generic self-map with f(0) = 0
    alpha_coeffs = np.zeros((5, 4))
    alpha_coeffs[1, 0] = 0.4
    alpha_coeffs[2] = [0.15, 0.1, 0.0, 0.1]
    alpha_coeffs[4] = [0.0, 0.05, 0.1, 0.0]
    f_alpha = TaylorSeries(alpha_coeffs, exact=True)
    cfg = SamplerConfig(seed=33, count=10000, radius_cap=0.75)
    worst = -np.inf
    for suite, f in (("dieudonne", f0), ("goluzin", f0), ("balpha", f_alpha)):
        rep = run_suite(suite, f, cfg)
        assert rep.passed, f"{suite} suite failed: {rep.max_violation}"
        worst = max(worst, rep.max_violation)
    # f = q^2 equality cases at real points
    q2 = TaylorSeries.from_quaternions([ZERO, ZERO, ONE], exact=True)
    eq_err = 0.0
    for r in (0.2, 0.4, 0.6, 0.8):
        fh = hyperbolic_derivative(q2, Quaternion(r))
        center, radius = dieudonne_rhs(Quaternion(r), Quaternion(r * r))
        eq_err = max(eq_err, abs(abs(fh - center) - radius))
        eq_err = max(eq_err, abs(abs(fh) - goluzin_rhs(0.0, r)))
    ok = worst <= 1e-9 and eq_err <= 1e-10
    report(6, ok, f"3 suites x 10^4 samples, worst violation {worst:.2e}, "
                  f"q^2 equality err {eq_err:.2e}")


def _random_tree(rng, depth):
    if depth == 0:
        kind = rng.integers(0, 3)
        if kind == 0:
            return Identity()
        if kind == 1:
            return Const(qarray.to_quaternion(qarray.uniform_ball(rng, 1,
                                                                  0.8)[0]))
        return Moebius(qarray.to_quaternion(qarray.uniform_ball(rng, 1,
                                                                0.5)[0]))
    kind = rng.integers(0, 3)
    if kind == 0:
        return StarMul(_random_tree(rng, depth - 1),
                       _random_tree(rng, depth - 1))
    if kind == 1:
        p = qarray.to_quaternion(qarray.uniform_ball(rng, 1, 0.4)[0])
        return Bullet(p, _random_tree(rng, depth - 1))
    return Conj(_random_tree(rng, depth - 1))


def test_criterion_7_backend_agreement():
    rng = np.random.default_rng(55)
    worst = -np.inf
    for idx in range(500):
        tree = _random_tree(rng, int(rng.integers(1, 5)))
        rep = crosscheck(tree, SamplerConfig(seed=1000 + idx, count=500,
                                             radius_cap=0.9))
        assert rep.passed, f"tree {idx} disagreed: {rep.max_violation}"
        worst = max(worst, rep.max_violation)
    ok = worst <= 1e-9
    report(7, ok, f"500 trees x 500 points, worst excess over certified "
                  f"tail {worst:.2e}")


def test_criterion_8_q_table_recovery(random_problems):
    worst = 0.0
    checked = 0
    from slicereg.hyperbolic import hyperbolic_quotient
    from slicereg.moebius import expr_to_series
    for prob, t, kind, sol in random_problems:
        if sol is None:
            continue
        n = prob.n
        cur = expr_to_series(sol)
        for k in range(1, n):
            cur = hyperbolic_quotient(cur, Quaternion(prob.nodes[k - 1]))
            for l in range(k + 1, n + 1):
                got = cur.eval(Quaternion(prob.nodes[l - 1]))
                worst = max(worst, abs(got - t.cell(k, l).value))
                checked += 1
    ok = worst <= 1e-8 and checked > 0
    report(8, ok, f"{checked} cells recovered from iterated quotients, "
                  f"worst err {worst:.2e}")


def test_interpolants_lower_with_cauchy_certificates(random_problems):
    # the criterion-8 interpolants, on the Cauchy circles that their located
    # poles place: every one is certified, meets the
    # 1e-12 tail target at r = 0.95, and its certificate bounds the
    # order-1024 series of N * D^{-*}, compared in logarithms since C g^m underflows (the nested
    # chain's own lowering carries rounding at the poles of its partial
    # chains, which cancel in f, 1e-30 and below at high order)
    from slicereg import series as se
    from slicereg.moebius import expr_to_series
    from test_moebius import chain_fraction
    for prob, t, kind, sol in random_problems:
        if sol is None:
            continue
        s = expr_to_series(sol)
        assert s.certificate == "cauchy-sampled"
        assert s.tail_bound(0.95) <= 1e-12
        num, den = chain_fraction(sol)
        norms = se.star_mul(num, se.star_inverse(den, order=1024)) \
            .coefficient_norms()
        m = np.flatnonzero(norms)
        assert np.all(np.log(norms[m]) <= np.log(s.coeff_bound)
                      + m * np.log(s.growth_rate))


def test_criterion_9_ball_lemma():
    rng = np.random.default_rng(77)
    count = 100000
    c0 = qarray.uniform_ball(rng, count, 0.9)
    r0 = rng.uniform(0.05, 0.95, count)
    q = qarray.uniform_ball(rng, count, 0.98)
    num, d = qarray.moebius_action(q, c0)
    rho_vals = qarray.qnorm(num / d[:, None])
    in_pseudo = rho_vals < r0
    c0n2 = qarray.qnorm2(c0)
    den = 1.0 - c0n2 * r0 * r0
    c1 = c0 * ((1.0 - r0 * r0) / den)[:, None]
    r1 = r0 * (1.0 - c0n2) / den
    in_euclid = qarray.qnorm(q - c1) < r1
    off_boundary = np.abs(rho_vals - r0) > 1e-10
    mismatches = int(np.sum((in_pseudo != in_euclid) & off_boundary))
    ok = mismatches == 0
    report(9, ok, f"{count} triples, {mismatches} misclassifications "
                  f"outside the 1e-10 boundary band")


def test_criterion_10_slice_extension():
    rng = np.random.default_rng(99)
    zeros = [complex(*v) for v in rng.uniform(-0.45, 0.45, (3, 2))]
    u = complex(math.cos(0.7), math.sin(0.7))
    # complex Taylor coefficients of the one-slice Blaschke product
    order = 140
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[0] = 1.0
    for a in zeros:
        fac = np.zeros(order + 1, dtype=complex)
        fac[0] = -a
        fac[1:] = np.conj(a) ** np.arange(order) * (1 - abs(a) ** 2)
        coeffs = np.convolve(coeffs, fac)[:order + 1]
    coeffs = coeffs * u
    extended = slice_extend(list(coeffs), I)
    direct = blaschke_to_expr(BlaschkeProduct(
        [Quaternion(a.real, a.imag) for a in zeros],
        Quaternion(u.real, u.imag)))
    axes = rng.standard_normal((8, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    worst = 0.0
    per_slice = 128
    for ax in axes:
        radii = 0.9 * rng.uniform(0.05, 1.0, per_slice)
        angles = 2 * np.pi * rng.uniform(0.0, 1.0, per_slice)
        pts = np.zeros((per_slice, 4))
        pts[:, 0] = radii * np.cos(angles)
        pts[:, 1:] = ax * (radii * np.sin(angles))[:, None]
        exact = direct.eval_many(pts)
        approx, _ = se.evaluate_many(extended, pts)
        worst = max(worst, float(qarray.qnorm(exact - approx).max()))
    ok = worst <= 1e-10
    report(10, ok, f"8 slices x {per_slice} samples, worst deviation "
                   f"{worst:.2e}")
