import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from slicereg import series as se
from slicereg.errors import (
    AmbiguousBoundary,
    KindMismatch,
    NotHermitian,
    NotSelfMap,
)
from slicereg.hyperbolic import rho
from slicereg.interpolation import (
    HermitianQuatMatrix,
    InterpolationProblem,
    build_q_table,
    build_solution,
    classify,
    pick_matrix,
    psd_check,
    slice_extend,
    two_point_solve,
)
from slicereg.moebius import Moebius, StarMul
from slicereg.qarray import uniform_ball
from slicereg.quaternion import I, J, K, ONE, Quaternion, ZERO

from conftest import random_blaschke_expr

THREE_NODES = [0.0, -0.5, 0.5]


def three_point_problem(lam, mu):
    return InterpolationProblem(THREE_NODES, [ZERO, I * lam, J * mu])


def q23_modulus_sq(lam, mu):
    return (25.0 / 4.0) * (lam * lam + mu * mu) / (1 + 16 * lam * lam * mu * mu)


class TestProblemValidation:
    def test_node_range(self):
        with pytest.raises(ValueError):
            InterpolationProblem([1.5], [ZERO])

    def test_duplicate_nodes(self):
        with pytest.raises(ValueError):
            InterpolationProblem([0.3, 0.3], [ZERO, ZERO])

    def test_value_norm(self):
        with pytest.raises(ValueError):
            InterpolationProblem([0.3], [Quaternion(1.0)])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            InterpolationProblem([0.1, 0.2], [ZERO])

    @pytest.mark.parametrize("nodes, values, field, margin", [
        ([0.0, 0.5], [Quaternion(0.99999999999999), ZERO], "values[0]",
         "9.99e-15"),
        ([0.3], [Quaternion(0.99999999999999)], "values[0]", "9.99e-15"),
        ([0.1, -(1 - 1e-14)], [ZERO, ZERO], "nodes[1]", "9.99e-15"),
        ([0.1, math.nan], [ZERO, ZERO], "nodes[1]", "nan"),
        ([0.1, 0.2], [ZERO, Quaternion(0.6, 0.0, 0.8)], "values[1]", "0"),
    ])
    def test_solver_ball(self, nodes, values, field, margin):
        # nodes and values must lie in |x| < 1 - 1e-13, where the solver's
        # Moebius maps are defined; the message names the entry and its
        # distance 1 - |x| to the sphere, never a parameter of the solver
        with pytest.raises(ValueError) as exc:
            InterpolationProblem(nodes, values)
        assert str(exc.value) == (f"{field} must satisfy |x| < 1 - 1e-13, "
                                  f"but 1 - |x| = {margin}")


class TestQTable:
    def test_three_point_first_row(self):
        lam, mu = 0.2, 0.3
        t = build_q_table(three_point_problem(lam, mu))
        assert t.cell(1, 2).value.isclose(I * (-2 * lam), 1e-14)
        assert t.cell(1, 3).value.isclose(J * (2 * mu), 1e-14)

    def test_three_point_final_cell(self):
        lam, mu = 0.2, 0.25
        t = build_q_table(three_point_problem(lam, mu))
        expect = (ONE + K * (4 * lam * mu)).inverse() * \
            (I * lam + J * mu) * 2.5
        got = t.cell(2, 3).value
        assert got.isclose(expect, 1e-13)
        assert abs(abs(got) ** 2 - q23_modulus_sq(lam, mu)) <= 1e-13

    def test_equal_values_row_is_zero(self):
        s = Quaternion(0.2, 0.1, -0.3, 0.1)
        t = build_q_table(InterpolationProblem([0.1, -0.2, 0.4], [s, s, s]))
        assert abs(t.cell(1, 2).value) <= 1e-14
        assert abs(t.cell(1, 3).value) <= 1e-14

    def test_moebius_samples_give_unimodular_row(self):
        f = Moebius(Quaternion(0.3))
        nodes = [0.0, 0.25, -0.4]
        vals = [f.eval(Quaternion(r)) for r in nodes]
        t = build_q_table(InterpolationProblem(nodes, vals))
        for l in (2, 3):
            c = t.cell(1, l)
            assert c.kind == "unimodular"
        kind = classify(t)
        assert kind.variant == "singular" and kind.kappa0 == 1

    def test_node_next_to_sphere_is_refused_by_the_problem(self):
        # the interpolant's SchurChain refuses a sample z where
        # |1 - r_k z|^2 <= 1e-13, so at its own node once 1 - |r| falls
        # below about 1.58e-7: the problem refuses such a node wherever it
        # stands and whatever its sign, one past M_{r_k}'s ball as that,
        # and one just inside the edge is solved and read at every node
        values = [I * 0.3, J * 0.2]
        chain = r"\(1 - x\^2\)\^2 > 1e-13"
        for r, bound in ((0.99999985, chain), (-0.99999985, chain),
                         (1 - 2e-13, chain), (1 - 1e-14, r"\|x\| < 1 - 1e-13")):
            for i, nodes in enumerate(([r, 0.0], [0.0, r])):
                with pytest.raises(ValueError,
                                   match=rf"^nodes\[{i}\] must satisfy {bound}"):
                    InterpolationProblem(nodes, values)
        for r in (0.99999984, -0.99999984):
            prob = InterpolationProblem([r, 0.0], values)
            t = build_q_table(prob)
            assert t.cell(1, 2).kind == "ball"
            f = build_solution(t, classify(t))
            for node, s in zip(prob.nodes, prob.values):
                assert abs(f.eval(Quaternion(node)) - s) <= 1e-12


class TestClassification:
    def test_single_node_is_non_singular(self):
        t = build_q_table(InterpolationProblem([0.2], [I * 0.3]))
        assert classify(t).variant == "non_singular"

    def test_trichotomy_three_point(self):
        lam = 0.25
        mu_star = math.sqrt(13.0 / 112.0)
        assert classify(build_q_table(
            three_point_problem(lam, 0.9 * mu_star))).variant == "non_singular"
        sing = classify(build_q_table(three_point_problem(lam, mu_star)))
        assert sing.variant == "singular" and sing.kappa0 == 2
        assert classify(build_q_table(
            three_point_problem(0.45, 0.45))).variant == "no_solution"

    def test_ambiguous_band_raises(self):
        # Q_1^2 = 2 s has modulus 1 - 1e-10, inside the tolerance band
        s = Quaternion(0.5 * (1.0 - 1e-10))
        t = build_q_table(InterpolationProblem([0.0, 0.5], [ZERO, s]))
        assert t.cell(1, 2).kind == "ambiguous"
        with pytest.raises(AmbiguousBoundary) as exc:
            classify(t)
        assert exc.value.cell == (1, 2)

    def test_exact_unimodular_not_ambiguous(self):
        t = build_q_table(InterpolationProblem([0.0, 0.5], [ZERO,
                                                            Quaternion(0.5)]))
        assert t.cell(1, 2).kind == "unimodular"
        assert classify(t).variant == "singular"


class TestBuildSolution:
    @staticmethod
    def residuals(expr, prob):
        return [abs(expr.eval(Quaternion(r)) - s)
                for r, s in zip(prob.nodes, prob.values)]

    def test_non_singular_default_h(self):
        prob = three_point_problem(0.2, 0.25)
        t = build_q_table(prob)
        f = build_solution(t, classify(t))
        assert max(self.residuals(f, prob)) <= 1e-12

    def test_non_singular_with_unimodular_h(self):
        prob = three_point_problem(0.15, 0.2)
        t = build_q_table(prob)
        f = build_solution(t, classify(t), h=J)
        assert max(self.residuals(f, prob)) <= 1e-12

    def test_singular_unique_blaschke(self):
        prob = three_point_problem(0.25, math.sqrt(13.0 / 112.0))
        t = build_q_table(prob)
        kind = classify(t)
        f = build_solution(t, kind)
        assert max(self.residuals(f, prob)) <= 1e-11

    def test_singular_rejects_h(self):
        prob = three_point_problem(0.25, math.sqrt(13.0 / 112.0))
        t = build_q_table(prob)
        with pytest.raises(KindMismatch):
            build_solution(t, classify(t), h=J)

    def test_no_solution_rejected(self):
        prob = three_point_problem(0.45, 0.45)
        t = build_q_table(prob)
        with pytest.raises(KindMismatch):
            build_solution(t, classify(t))

    def test_equal_values_with_zero_h(self):
        s = Quaternion(0.2, 0.1, -0.3, 0.1)
        prob = InterpolationProblem([0.1, -0.2, 0.4], [s, s, s])
        t = build_q_table(prob)
        f = build_solution(t, classify(t))
        assert max(self.residuals(f, prob)) <= 1e-12

    def test_non_constant_h_self_map_check(self):
        prob = three_point_problem(0.1, 0.1)
        t = build_q_table(prob)
        big = se.TaylorSeries.from_quaternions([ZERO, Quaternion(2.0)],
                                               exact=True)
        with pytest.raises(NotSelfMap):
            build_solution(t, classify(t), h=big)

    def test_h_leaving_the_ball_near_the_boundary(self):
        # |h| = 1.2 |q|^2 is at most 0.432 on the 0.6-ball but exceeds 1
        # past |q| = 0.913; h is sampled on the 0.95-ball
        prob = three_point_problem(0.1, 0.1)
        t = build_q_table(prob)
        h = se.TaylorSeries.from_quaternions([ZERO, ZERO, Quaternion(1.2)],
                                             exact=True)
        with pytest.raises(NotSelfMap):
            build_solution(t, classify(t), h=h)

    def test_solution_is_self_map(self, rng):
        prob = three_point_problem(0.2, 0.25)
        t = build_q_table(prob)
        f = build_solution(t, classify(t), h=Quaternion(0.3, 0.2))
        for _ in range(100):
            v = rng.uniform(-1, 1, 4)
            v = v / np.linalg.norm(v) * rng.uniform(0.05, 0.98)
            assert abs(f.eval(Quaternion.from_iter(v))) <= 1.0 + 1e-10


class TestTwoPoint:
    def test_q_value_formula(self):
        lam, mu = 0.3, 0.2
        kind, q = two_point_solve(-0.5, 0.5, I * lam, J * mu)
        expect_sq = (25.0 / 16.0) * (lam ** 2 + mu ** 2) / \
            (1 + lam ** 2 * mu ** 2)
        assert abs(abs(q) ** 2 - expect_sq) <= 1e-13
        assert kind.variant == "non_singular"

    def test_boundary_modulus(self):
        lam = 0.3
        mu = math.sqrt((16 - 25 * lam ** 2) / (25 - 16 * lam ** 2))
        kind, q = two_point_solve(-0.5, 0.5, I * lam, J * mu)
        assert abs(abs(q) - 1.0) <= 1e-12
        assert kind.variant == "singular" and kind.kappa0 == 1

    def test_distance_form(self, rng):
        # solvable exactly when rho(s, q) <= rho(r, p)
        r, p = -0.3, 0.4
        bound = rho(Quaternion(r), Quaternion(p))
        for _ in range(50):
            v = rng.uniform(-1, 1, 4)
            s = Quaternion.from_iter(v / np.linalg.norm(v) * 0.3)
            w = rng.uniform(-1, 1, 4)
            q = Quaternion.from_iter(w / np.linalg.norm(w) * 0.5)
            d = rho(s, q)
            if abs(d - bound) <= 1e-6:
                continue
            kind, _ = two_point_solve(r, p, s, q)
            if d < bound:
                assert kind.variant == "non_singular"
            else:
                assert kind.variant == "no_solution"

    def test_permutation_invariance(self):
        for lam, mu in ((0.2, 0.3), (0.45, 0.45)):
            prob_a = three_point_problem(lam, mu)
            prob_b = InterpolationProblem(
                [0.5, 0.0, -0.5], [J * mu, ZERO, I * lam])
            va = classify(build_q_table(prob_a)).variant
            vb = classify(build_q_table(prob_b)).variant
            assert va == vb


class TestPickMatrix:
    def test_single_node_scalar(self):
        P = pick_matrix([0.5], [I * 0.3])
        expect = (1 - 0.09) / (1 - 0.25)
        assert abs(P.entry(0, 0) - Quaternion(expect)) <= 1e-14

    def test_zero_values_cauchy_gram(self):
        nodes = [0.1, -0.3, 0.5]
        P = pick_matrix(nodes, [ZERO, ZERO, ZERO])
        for m in range(3):
            for l in range(3):
                assert abs(P.entry(m, l) -
                           Quaternion(1.0 / (1 - nodes[m] * nodes[l]))) <= 1e-14
        ok, mineig = psd_check(P)
        assert ok and mineig > 0

    def test_agrees_with_classification(self):
        cases = [(0.25, 0.9 * math.sqrt(13.0 / 112.0), "non_singular"),
                 (0.25, math.sqrt(13.0 / 112.0), "singular"),
                 (0.45, 0.45, "no_solution")]
        for lam, mu, variant in cases:
            prob = three_point_problem(lam, mu)
            ok, mineig = psd_check(pick_matrix(list(prob.nodes),
                                               list(prob.values)))
            if variant == "no_solution":
                assert not ok and mineig < 0
            elif variant == "singular":
                assert ok and abs(mineig) <= 1e-9
            else:
                assert ok and mineig > 1e-6

    def test_truncated_route_matches_closed_form(self):
        # nodes 1e-12 off the real axis are not real, so the Stein solve
        # runs, and it moves the entries by O(1e-12) only
        nodes = [0.2, -0.4]
        values = [I * 0.3, Quaternion(0.1, 0.0, 0.2)]
        exact = pick_matrix(nodes, values)
        near = [Quaternion(r, 1e-12) for r in nodes]
        assert not any(p.is_real() for p in near)
        trunc = pick_matrix(near, values)
        assert np.abs(exact.entries - trunc.entries).max() <= 1e-10

    def test_real_nodes_next_to_the_sphere_are_hermitian(self):
        # the imaginary parts of s_m conj(s_l) and s_l conj(s_m) round
        # apart, and 1 / (1 - r_m r_l) magnifies the gap past the Hermitian
        # check: with the entries as computed, 126 of the 200 one-node and
        # 170 of the 200 two-node problems here were refused.  The real
        # parts agree bit for bit, and the imaginary parts now do too
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = 1.0 - 10.0 ** rng.uniform(-6.5, -6.0)
            u = rng.normal(size=(2, 4))
            u[1] = u[0] + rng.normal(size=4) * 1e-8
            u /= np.linalg.norm(u, axis=1)[:, None]
            s = u * (1.0 - 10.0 ** rng.uniform(-15.0, -10.0, (2, 1)))
            values = [Quaternion.from_iter(v) for v in s]
            for nodes in ([r], [r, r - 1e-7]):
                P = pick_matrix(nodes, values[:len(nodes)]).entries
                assert np.array_equal(P[..., 0], P[..., 0].T)
                assert np.array_equal(P[..., 1:],
                                      -P[..., 1:].transpose(1, 0, 2))

    def test_real_node_matrix_is_hermitian_bit_for_bit(self):
        # the numerators s_m conj(s_l) come from two matmuls against the
        # table of e_i conj(e_j): the real parts of (m, l) and (l, m) sum
        # the same four products in the same order, and the imaginary
        # parts are antisymmetrised, so no Hermitian check can refuse them
        rng = np.random.default_rng(30)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            nodes = list(rng.uniform(-0.99, 0.99, n))
            values = [Quaternion.from_iter(v)
                      for v in uniform_ball(rng, n, 0.99)]
            P = pick_matrix(nodes, values).entries
            assert np.array_equal(P[..., 0], P[..., 0].T)
            assert np.array_equal(P[..., 1:], -P[..., 1:].transpose(1, 0, 2))

    def test_complex_embedding_is_the_component_construction(self):
        # a + b j -> [[a, b], [-conj(b), conj(a)]], with a and b read off a
        # complex view of the components
        rng = np.random.default_rng(31)
        for n in range(1, 9):
            nodes = list(rng.uniform(-0.9, 0.9, n))
            values = [Quaternion.from_iter(v)
                      for v in uniform_ball(rng, n, 0.9)]
            P = pick_matrix(nodes, values)
            e = P.entries
            a = e[:, :, 0] + 1j * e[:, :, 1]
            b = e[:, :, 2] + 1j * e[:, :, 3]
            want = np.empty((2 * n, 2 * n), dtype=complex)
            want[0::2, 0::2] = a
            want[0::2, 1::2] = b
            want[1::2, 0::2] = -np.conj(b)
            want[1::2, 1::2] = np.conj(a)
            assert np.array_equal(P.complex_embedding(), want)

    def test_float_nodes_as_quaternion_nodes(self):
        # float nodes stay floats: the same entries, bit for bit, and the
        # same refusals as real Quaternion nodes
        nodes = [0.1, -0.3, 0]
        values = [I * 0.3, Quaternion(0.1, 0.0, 0.2), ZERO]
        as_q = pick_matrix([Quaternion(r) for r in nodes], values).entries
        assert pick_matrix(iter(nodes), values).entries.tobytes() == \
            as_q.tobytes()
        for bad, message in ((math.nan, "finite"), (math.inf, "finite"),
                             (-1.0, "inside the unit ball")):
            with pytest.raises(ValueError, match=message):
                pick_matrix([0.1, bad], values[:2])


# -- exact oracle ------------------------------------------------------
# Q-table cells and real-node Pick entries are rational in the inputs, so
# fractions.Fraction gives their exact values for the stored floats.


def _hmul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def _hconj(a):
    return (a[0], -a[1], -a[2], -a[3])


def _habs2(a):
    return sum(x * x for x in a)


def _one_minus(a):
    return (1 - a[0], -a[1], -a[2], -a[3])


def _exact_moebius(p, q):
    """M_p(q) = (1 - q conj(p))^{-1} (q - p)."""
    den = _one_minus(_hmul(q, _hconj(p)))
    inv = tuple(x / _habs2(den) for x in _hconj(den))
    return _hmul(inv, tuple(x - y for x, y in zip(q, p)))


def _exact_kind(abs2):
    """The tag of a cell, from its exact modulus and the solver's bands."""
    m = math.sqrt(abs2)
    if abs(m - 1.0) <= 1e-12:
        return "unimodular"
    if abs(m - 1.0) <= 1e-9:
        return "ambiguous"
    return "ball" if m < 1.0 else "infinity"


def _exact_q_table(prob):
    """Kinds and exact values of the cells; ball and infinity cells only."""
    r = [Fraction(x) for x in prob.nodes]
    cells = {(0, l): ("ball", tuple(Fraction(x) for x in s.components()))
             for l, s in enumerate(prob.values, start=1)}
    for k in range(1, prob.n):
        a = cells[(k - 1, k)]
        for l in range(k + 1, prob.n + 1):
            b = cells[(k - 1, l)]
            if a[0] == "ball" and b[0] == "ball":
                scale = (r[l - 1] - r[k - 1]) / (1 - r[k - 1] * r[l - 1])
                v = tuple(x / scale for x in _exact_moebius(a[1], b[1]))
                cells[(k, l)] = (_exact_kind(_habs2(v)), v)
            else:
                assert "infinity" in (a[0], b[0])
                cells[(k, l)] = ("infinity", None)
    return cells


def _oracle_problems(rng, count):
    """Real-node problems, n = 2..5: every other one takes the values of a
    product of Moebius maps times 0.95 (solvable), the others random ball
    values of modulus <= 0.75."""
    out = []
    for i in range(count):
        n = int(rng.integers(2, 6))
        while True:
            nodes = np.sort(rng.uniform(-0.8, 0.8, n))
            if np.diff(nodes).min() >= 0.05:
                break
        g = rng.standard_normal((n, 4))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        if i % 2:
            vals = g * (0.75 * rng.random(n) ** 0.25)[:, None]
        else:
            f = Moebius(Quaternion.from_iter(0.7 * rng.random() * g[0]))
            for p in g[1:]:
                f = StarMul(f, Moebius(Quaternion.from_iter(
                    0.7 * rng.random() * p)))
            vals = 0.95 * f.eval_many(
                np.column_stack([nodes, np.zeros((n, 3))]))
        out.append(InterpolationProblem(
            nodes, [Quaternion.from_iter(v) for v in vals]))
    return out


def _error(got, exact):
    return math.sqrt(float(_habs2(tuple(Fraction(x) - y
                                        for x, y in zip(got, exact)))))


class TestExactOracle:
    def test_q_table_matches_exact_recurrence(self, rng):
        # On these 64 problems (174 computed ball cells) the worst absolute
        # error of a ball cell is 5.0e-14 with quaternion node scales
        # M_{r_k}(r_l), as the solver once computed them, and 3.2e-14 with
        # real ones.  Deeper cells inherit the rounding of the cells before
        # them, amplified near the sphere; the bound is twice the former.
        worst = 0.0
        for prob in _oracle_problems(rng, 64):
            t = build_q_table(prob)
            for key, (kind, v) in _exact_q_table(prob).items():
                c = t.cell(*key)
                assert c.kind == kind, key
                if kind == "ball":
                    worst = max(worst, _error(c.value.components(), v))
        assert worst <= 1e-13

    def test_pick_entries_match_exact(self, rng):
        # worst relative error 2.3e-16 on these problems, both for the
        # broadcast form and for the per-entry loop it replaced; the bound
        # is about twice that
        worst = 0.0
        for prob in _oracle_problems(rng, 64):
            P = pick_matrix(list(prob.nodes), list(prob.values)).entries
            r = [Fraction(x) for x in prob.nodes]
            s = [tuple(Fraction(x) for x in v.components())
                 for v in prob.values]
            for m in range(prob.n):
                for l in range(prob.n):
                    w = _one_minus(_hmul(s[m], _hconj(s[l])))
                    e = tuple(x / (1 - r[m] * r[l]) for x in w)
                    worst = max(worst, _error(P[m, l], e)
                                / math.sqrt(float(_habs2(e))))
        assert worst <= 5e-16

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_non_real_pick_entries_solve_stein(self, rng, n):
        # each entry X solves X - p_m X conj(p_l) = 1 - s_m conj(s_l); the
        # residual of the stored floats, computed exactly, is relative to
        # |1 - s_m conj(s_l)|
        nodes = [Quaternion.from_iter(x) for x in uniform_ball(rng, n, 0.9)]
        values = [Quaternion.from_iter(x) for x in uniform_ball(rng, n, 0.75)]
        assert not any(p.is_real() for p in nodes)
        P = pick_matrix(nodes, values)
        assert isinstance(P, HermitianQuatMatrix)
        p = [tuple(Fraction(x) for x in q.components()) for q in nodes]
        s = [tuple(Fraction(x) for x in q.components()) for q in values]
        worst = 0.0
        for m in range(n):
            for l in range(n):
                x = tuple(Fraction(v) for v in P.entries[m, l])
                w = _one_minus(_hmul(s[m], _hconj(s[l])))
                pxp = _hmul(_hmul(p[m], x), _hconj(p[l]))
                res = tuple(a - b - c for a, b, c in zip(x, pxp, w))
                worst = max(worst, math.sqrt(float(_habs2(res) / _habs2(w))))
        assert worst <= 1e-15


def _object_q_table(prob):
    """Kinds and values of the cells, by the solver's recurrence written in
    Quaternion arithmetic: M_a(b) = (1 - b conj(a))^{-1} (b - a)."""
    r = prob.nodes
    cells = {(0, l): ("ball", s) for l, s in enumerate(prob.values, start=1)}
    for k in range(1, prob.n):
        a = cells[(k - 1, k)]
        for l in range(k + 1, prob.n + 1):
            b = cells[(k - 1, l)]
            if "ambiguous" in (a[0], b[0]):
                cells[(k, l)] = a if a[0] == "ambiguous" else b
            elif a[0] == b[0] == "ball":
                scale = (r[l - 1] - r[k - 1]) / (1.0 - r[k - 1] * r[l - 1])
                q = (ONE - b[1] * a[1].conj()).inverse() * (b[1] - a[1])
                q = q / scale
                kind = _exact_kind(q.abs2())
                cells[(k, l)] = (kind, q / abs(q) if kind == "unimodular"
                                 else q)
            elif (a[0] == b[0] == "unimodular"
                  and abs(a[1] - b[1]) <= 1e-9):
                cells[(k, l)] = a
            else:
                cells[(k, l)] = ("infinity", None)
    return cells


def _bits(q):
    return None if q is None else [x.hex() for x in q.components()]


class TestFloatKernel:
    def test_q_table_bitwise_the_quaternion_recurrence(self, rng):
        # every cell, kind and components, is the one that Quaternion
        # arithmetic gives: the oracle problems (n = 2..5) and n = 6..8
        # problems from 0.9 B (ball cells), B of degree n - 1 (unimodular
        # rows) and random values (infinity cells)
        probs = _oracle_problems(rng, 64)
        for n in (6, 7, 8):
            nodes = np.linspace(-0.7, 0.7, n) + rng.uniform(-0.05, 0.05, n)
            for degree, scale in ((n + 1, 0.9), (n - 1, 1.0)):
                f = random_blaschke_expr(rng, degree)
                probs.append(InterpolationProblem(
                    nodes, [f.eval(Quaternion(x)) * scale for x in nodes]))
            probs.append(InterpolationProblem(nodes, [
                Quaternion.from_iter(v) for v in uniform_ball(rng, n, 0.75)]))
        probs.append(InterpolationProblem([0.0, 0.5], [
            ZERO, Quaternion(0.5 * (1.0 - 1e-10))]))
        kinds = set()
        for prob in probs:
            t = build_q_table(prob)
            for key, (kind, v) in _object_q_table(prob).items():
                c = t.cell(*key)
                assert (c.kind, _bits(c.value)) == (kind, _bits(v)), key
                kinds.add(kind)
        assert kinds == {"ball", "unimodular", "infinity", "ambiguous"}


class TestPsdCheck:
    @staticmethod
    def real_matrix(rows):
        n = len(rows)
        ent = np.zeros((n, n, 4))
        ent[:, :, 0] = rows
        return HermitianQuatMatrix(ent)

    def test_identity(self):
        ok, mineig = psd_check(self.real_matrix([[1, 0], [0, 1]]))
        assert ok and abs(mineig - 1.0) <= 1e-14

    def test_rank_one(self):
        ok, mineig = psd_check(self.real_matrix([[1, 1], [1, 1]]))
        assert ok and abs(mineig) <= 1e-14

    def test_indefinite(self):
        ok, mineig = psd_check(self.real_matrix([[1, 2], [2, 1]]))
        assert not ok and abs(mineig + 1.0) <= 1e-14

    def test_not_hermitian_rejected(self):
        ent = np.zeros((2, 2, 4))
        ent[:, :, 0] = np.eye(2)
        ent[0, 1, 1] = 0.5
        ent[1, 0, 1] = 0.5  # should be -0.5
        with pytest.raises(NotHermitian):
            HermitianQuatMatrix(ent)

    def test_quaternion_entries(self):
        # [[1, i], [-i, 1]] has eigenvalues 0 and 2
        ent = np.zeros((2, 2, 4))
        ent[:, :, 0] = np.eye(2)
        ent[0, 1, 1] = 1.0
        ent[1, 0, 1] = -1.0
        ok, mineig = psd_check(HermitianQuatMatrix(ent))
        assert ok and abs(mineig) <= 1e-14


class TestSliceExtend:
    def test_identity(self):
        f = slice_extend([0, 1], I, exact=True)
        assert f.coefficient(0) == ZERO and f.coefficient(1) == ONE

    def test_square_with_any_axis(self):
        axis = (I + J) * (1 / math.sqrt(2))
        f = slice_extend([0, 0, 0.9], axis, exact=True)
        assert f.coefficient(2).isclose(Quaternion(0.9), 1e-15)

    def test_complex_moebius_extends_to_regular_moebius(self):
        a = 0.3 + 0.2j
        coeffs = [-a] + [(a.conjugate()) ** (m - 1) * (1 - abs(a) ** 2)
                         for m in range(1, 40)]
        f = slice_extend(coeffs, I)
        p = Quaternion(a.real, a.imag)
        g = Moebius(p).to_series(39)
        assert np.abs(f.coeffs - g.coeffs[:40]).max() <= 1e-12

    def test_imaginary_coefficients_use_axis(self):
        f = slice_extend([0.2j], J)
        assert f.coefficient(0).isclose(J * 0.2, 1e-15)

    def test_not_self_map(self):
        with pytest.raises(NotSelfMap):
            slice_extend([0, 2.0], I)

    def test_peak_between_disk_samples_is_refused(self):
        # f0 = c (a + z) reaches |f0| = 1.001 only at z = 0.95 a / |a|, at
        # 17.5 degrees: between samples of a polar grid of the slice disk
        c = 1.001 / 1.85
        a = 0.9 * cmath.exp(1j * math.radians(17.5))
        with pytest.raises(NotSelfMap, match="1.001 > 1"):
            slice_extend([c * a, c], I)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            slice_extend([0, 1], Quaternion(0.5, 0.5))
