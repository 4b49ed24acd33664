"""The benchmark's checkers accept right answers and reject wrong ones.

Run:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import workloads
from slicereg import (
    Moebius,
    Quaternion,
    SamplerConfig,
    StarMul,
    TaylorSeries,
    evaluate_many,
    expr_to_series,
    hyperbolic_derivative,
)
from slicereg.verify import sample_points

BENCH = Path(__file__).resolve().parents[1]


def _slice_points(unit_i, unit_j, pairs=6):
    rng = np.random.default_rng(5)
    rad = 0.9 * rng.random(pairs)
    ang = np.pi * rng.random(pairs)
    one = np.array([1.0, 0.0, 0.0, 0.0])
    x, y = rad * np.cos(ang), rad * np.sin(ang)
    return [x[:, None] * one + y[:, None] * u
            for u in (unit_i, unit_j, -unit_j)]


def test_representation_rejects_right_sided_formula():
    f = StarMul(Moebius(Quaternion(0.3, 0.2, -0.1, 0.25)),
                Moebius(Quaternion(-0.2, 0.1, 0.4, 0.0)))
    unit_i = np.array([0.0, 0.6, 0.0, 0.8])
    unit_j = np.array([0.0, 0.0, 1.0, 0.0])
    f_i, f_plus, f_minus = (f.eval_many(p)
                            for p in _slice_points(unit_i, unit_j))
    assert checks.check_representation(unit_i, unit_j, f_i, f_plus,
                                       f_minus) == []
    ij = checks.qmul(unit_i, unit_j)
    one = np.array([1.0, 0.0, 0.0, 0.0])
    right_sided = 0.5 * (checks.qmul(f_plus, one - ij)
                         + checks.qmul(f_minus, one + ij))
    assert checks.check_representation(unit_i, unit_j, right_sided, f_plus,
                                       f_minus)


def test_pick_checker_rejects_flipped_verdict():
    wl = workloads.build_np_classify(11)
    flipped = 0
    for i, op in enumerate(wl.ops):
        table, kind, psd, sol = op.call()
        assert wl.check(i, (table, kind, psd, sol)) == []
        other = "no_solution" if kind.variant != "no_solution" \
            else "non_singular"
        wrong = type(kind)(other)
        found = wl.check(i, (table, wrong, psd, sol))
        assert found, f"flipped verdict of problem {i} accepted"
        flipped += 1
    assert flipped == len(wl.ops)


def test_pick_verdict_matches_closed_form_examples():
    # solvable: values of the identity map; not solvable: |s| jumps
    assert checks.pick_verdict([-0.5, 0.5], [[-0.5, 0, 0, 0],
                                             [0.5, 0, 0, 0]]) is None
    assert checks.pick_verdict([-0.5, 0.5], [[-0.4, 0, 0, 0],
                                             [0.4, 0, 0, 0]]) is True
    assert checks.pick_verdict([-0.1, 0.1], [[-0.9, 0, 0, 0],
                                             [0.9, 0, 0, 0]]) is False


def test_fh_checker_rejects_perturbed_value():
    axis = np.array([0.0, 0.0, 0.6, 0.8])
    c = np.array([0.1 + 0.2j, 0.4 - 0.1j, 0.0, 0.15j])
    fs = TaylorSeries(checks.embed(c, axis), exact=True)
    z = 0.35 - 0.4j
    q = Quaternion(*checks.embed(z, axis))
    fh = np.array(hyperbolic_derivative(fs, q).components())
    assert checks.check_fh(fh, c, z, axis) == []
    assert checks.check_fh(fh + np.array([0, 1e-9, 0, 0]), c, z, axis)
    q2 = TaylorSeries(np.array([[0.0] * 4, [0.0] * 4, [1.0, 0, 0, 0]]),
                      exact=True)
    got = abs(hyperbolic_derivative(q2, Quaternion(0.5)))
    assert checks.check_fh_q2(got, 0.5) == []
    assert checks.check_fh_q2(got * (1 + 1e-9), 0.5)


def test_series_checker_rejects_value_off_by_1e6():
    tree = StarMul(Moebius(Quaternion(0.3, 0.1, 0.0, -0.2)),
                   Moebius(Quaternion(0.0, 0.2, 0.2, 0.0)))
    cfg = SamplerConfig(seed=3, count=500, radius_cap=0.9)
    pts = sample_points(cfg)
    exact = tree.eval_many(pts)
    approx, _ = evaluate_many(expr_to_series(tree), pts, r_max=0.9)
    assert checks.check_series_agreement(exact, approx) == []
    approx[17, 2] += 1e-6
    assert checks.check_series_agreement(exact, approx)


def test_residual_and_self_map_checkers():
    target = np.array([0.1, 0.2, 0.0, -0.3])
    assert checks.check_residuals([target], [target]) == []
    assert checks.check_residuals([target + 1e-8], [target])
    assert checks.check_self_map(np.array([[0.6, 0.0, 0.8, 0.0]])) == []
    assert checks.check_self_map(np.array([[0.6, 0.0, 0.8 + 1e-8, 0.0]]))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_fixed_seed_gives_identical_inputs(name):
    first = json.dumps(workloads.build(name, 3).inputs)
    assert first == json.dumps(workloads.build(name, 3).inputs)
    assert first != json.dumps(workloads.build(name, 4).inputs)


def test_tracer_counts_and_restores():
    from slicereg import moebius
    original = moebius.Moebius.eval_many
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.tag = 2
        f = StarMul(Moebius(Quaternion(0.3)), Moebius(Quaternion(-0.2)))
        f.eval(Quaternion(0.1))
    finally:
        tracer.uninstall()
    assert moebius.Moebius.eval_many is original
    out = tracer.summary(1)
    assert out["moebius.eval.calls"] == 1
    assert out["moebius.eval_many.calls"] == 3
    assert out["moebius.node_evals.n2"] == 3.0
    assert out["moebius.eval_many.time_s"] >= out["moebius.eval_many.self_s"]
    assert out["qarray.qmul.calls"] > 0


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "np_eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
