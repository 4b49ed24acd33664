import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slicereg import cli, qarray
from slicereg.errors import SliceRegError
from slicereg.hyperbolic import hyperbolic_quotient
from slicereg.moebius import expr_from_json
from slicereg.quaternion import Quaternion

from conftest import random_blaschke_expr

Q2_EXPR = {"kind": "star_mul",
           "left": {"kind": "identity"},
           "right": {"kind": "identity"}}
# *-inverse of q: no constant term, singular at 0
INV_ID = json.dumps({"kind": "star_inv", "inner": {"kind": "identity"}})


# an exact series whose q^2 coefficient overflows every sum of squares
HUGE_SERIES = json.dumps({"kind": "series", "exact": True, "coeffs": [
    [0, 0, 0, 0], [0.5, 0, 0, 0], [1e300, 0, 0, 0]]})
# a Blaschke product, evaluated on the slice of a non-unit axis
GRID_BLASCHKE = {"kind": "blaschke", "u": [0, 0, 1, 0],
                 "factors": [[0.3, 0.2, 0, 0], [-0.2, 0, 0.3, 0.1]]}


def one_line_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


def write_problem(tmp_path, nodes, values, h=None, name="prob.json"):
    data = {"nodes": nodes, "values": values}
    if h is not None:
        data["h"] = h
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def mu_singular(lam=0.25):
    return math.sqrt(13.0 / 112.0)


class TestInterpolate:
    def test_solvable_problem(self, tmp_path, capsys):
        path = write_problem(tmp_path, [0.0, -0.5, 0.5],
                             [[0, 0, 0, 0], [0, 0.2, 0, 0], [0, 0, 0.25, 0]])
        assert cli.main(["interpolate", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"]["variant"] == "non_singular"
        assert max(report["residuals"]) <= 1e-10
        assert report["pickMinEig"] > 0
        assert report["solution"] is not None

    def test_singular_problem(self, tmp_path, capsys):
        mu = mu_singular()
        path = write_problem(tmp_path, [0.0, -0.5, 0.5],
                             [[0, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, mu, 0]])
        assert cli.main(["interpolate", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"]["variant"] == "singular"
        assert report["kind"]["kappa0"] == 2
        assert max(report["residuals"]) <= 1e-9

    def test_no_solution_exit_code(self, tmp_path, capsys):
        path = write_problem(tmp_path, [0.0, -0.5, 0.5],
                             [[0, 0, 0, 0], [0, 0.45, 0, 0], [0, 0, 0.45, 0]])
        assert cli.main(["interpolate", path]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["kind"]["variant"] == "no_solution"
        assert report["solution"] is None

    def test_ambiguous_exit_code(self, tmp_path, capsys):
        s = 0.5 * (1.0 - 1e-10)
        path = write_problem(tmp_path, [0.0, 0.5],
                             [[0, 0, 0, 0], [s, 0, 0, 0]])
        assert cli.main(["interpolate", path]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "ambiguous_boundary"
        assert report["cell"] == [1, 2]

    def test_malformed_input(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["interpolate", str(path)]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["interpolate", str(tmp_path / "nope.json")]) == 1

    def test_invalid_nodes(self, tmp_path, capsys):
        path = write_problem(tmp_path, [1.5], [[0, 0, 0, 0]])
        assert cli.main(["interpolate", path]) == 1

    def test_h_not_a_self_map(self, tmp_path, capsys):
        path = write_problem(tmp_path, [0.0, -0.5, 0.5],
                             [[0, 0, 0, 0], [0, 0.2, 0, 0], [0, 0, 0.25, 0]])
        assert cli.main(["interpolate", path, "--h", "[2,0,0,0]"]) == 1
        assert one_line_error(capsys)

    def test_single_node(self, tmp_path, capsys):
        path = write_problem(tmp_path, [0.3], [[0.1, 0.2, 0, 0]])
        assert cli.main(["interpolate", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"]["variant"] == "non_singular"
        assert max(report["residuals"]) <= 1e-12

    @pytest.mark.parametrize("nodes", [[0.0, 0.5], [0.3]])
    def test_value_next_to_the_sphere_is_named(self, tmp_path, capsys, nodes):
        # 1 - |s_1| = 1e-14: refused as the value it is, not later as the
        # centre of a Moebius map the user never gave
        values = [[0.99999999999999, 0, 0, 0], [0, 0, 0, 0]][:len(nodes)]
        path = write_problem(tmp_path, nodes, values)
        assert cli.main(["interpolate", path]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "values[0] must satisfy" in err
        assert "p must lie" not in err

    def test_node_next_to_the_sphere_is_solved(self, tmp_path, capsys):
        # 1 - |s| = 3.2e-13 at r = 0.999999: the Pick matrix is Hermitian
        path = write_problem(tmp_path, [0.999999], [[
            0.017995102771949406, 0.7156132333660284, 0.6445509809994749,
            -0.26856639663149795]])
        assert cli.main(["interpolate", path]) == 0
        assert max(json.loads(capsys.readouterr().out)["residuals"]) <= 1e-12

    @pytest.mark.parametrize("refused, index, solved", [
        ([0.99999985, 0.3], 0, [0.99999984, 0.3]),
        ([-0.99999985, 0.3], 0, [-0.99999984, 0.3]),
        ([0.3, 0.99999985], 1, [0.3, 0.99999984]),
        ([0.9999999], 0, [0.99999984]),
    ], ids=["plus", "minus", "second", "1 node"])
    def test_node_past_the_chain_edge_is_named(self, tmp_path, capsys,
                                               refused, index, solved):
        # the interpolant's SchurChain refuses a sample z where
        # |1 - r z|^2 <= 1e-13, so its own node once 1 - |r| < 1.58e-7: such
        # a node is refused as the node it is, never later as a sample of a
        # chain the user never gave, and one just inside is solved
        values = [[0.1, 0, 0, 0], [0, 0.2, 0, 0]][:len(refused)]
        path = write_problem(tmp_path, refused, values)
        assert cli.main(["interpolate", path]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"nodes[{index}] must satisfy" in err
        assert "SchurChain" not in err
        path = write_problem(tmp_path, solved, values)
        assert cli.main(["interpolate", path]) == 0
        assert max(json.loads(capsys.readouterr().out)["residuals"]) <= 1e-12

    def test_h_flag_quaternion(self, tmp_path, capsys):
        path = write_problem(tmp_path, [0.0, -0.5, 0.5],
                             [[0, 0, 0, 0], [0, 0.2, 0, 0], [0, 0, 0.25, 0]])
        assert cli.main(["interpolate", path, "--h", "[0,0,1,0]"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert max(report["residuals"]) <= 1e-10

    def test_h_in_problem_file(self, tmp_path, capsys):
        path = write_problem(tmp_path, [0.0, -0.5, 0.5],
                             [[0, 0, 0, 0], [0, 0.2, 0, 0], [0, 0, 0.25, 0]],
                             h=0.3)
        assert cli.main(["interpolate", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert max(report["residuals"]) <= 1e-10

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_problem(tmp_path, [0.0, -0.5, 0.5],
                             [[0, 0, 0, 0], [0, 0.2, 0, 0], [0, 0, 0.25, 0]])
        cli.main(["interpolate", path])
        first = capsys.readouterr().out
        cli.main(["interpolate", path])
        second = capsys.readouterr().out
        assert first == second


class TestQTableMargin:
    def test_readme_problem_recomputed_from_table(self, tmp_path, capsys):
        path = write_problem(tmp_path, [0.0, -0.5, 0.5],
                             [[0, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.3, 0]])
        assert cli.main(["interpolate", path]) == 0
        report = json.loads(capsys.readouterr().out)
        want = min((abs(math.sqrt(sum(x * x for x in c["value"])) - 1.0),
                    [c["k"], c["l"]]) for c in report["table"]
                   if c["k"] >= 1 and c["value"] is not None)
        got = report["qTableMargin"]
        assert (got["margin"], got["cell"]) == want
        assert got["cell"] == [2, 3] and 0.06 < got["margin"] < 0.07

    @pytest.mark.parametrize("lam, mu, code", [(0.3, 0.2, 0), (0.7, 0.7, 2)])
    def test_two_point_closed_form(self, tmp_path, capsys, lam, mu, code):
        # criteria 1-2: |Q_1^2|^2 = (25/16)(lam^2 + mu^2) / (1 + lam^2 mu^2)
        path = write_problem(tmp_path, [-0.5, 0.5],
                             [[0, lam, 0, 0], [0, 0, mu, 0]])
        assert cli.main(["interpolate", path]) == code
        got = json.loads(capsys.readouterr().out)["qTableMargin"]
        q = math.sqrt(25.0 / 16.0 * (lam * lam + mu * mu)
                      / (1.0 + lam * lam * mu * mu))
        assert got["cell"] == [1, 2]
        assert abs(got["margin"] - abs(q - 1.0)) <= 1e-15

    def test_null_for_one_node(self, tmp_path, capsys):
        path = write_problem(tmp_path, [0.3], [[0.1, 0.2, 0, 0]])
        assert cli.main(["interpolate", path]) == 0
        assert json.loads(capsys.readouterr().out)["qTableMargin"] is None

    def test_ambiguous_report_keeps_its_schema(self, tmp_path, capsys):
        path = write_problem(tmp_path, [0.0, 0.5],
                             [[0, 0, 0, 0], [0.5 * (1.0 - 1e-10), 0, 0, 0]])
        assert cli.main(["interpolate", path]) == 3
        report = json.loads(capsys.readouterr().out)
        assert sorted(report) == ["cell", "error", "table"]


def pick_disagreeing_problems():
    """Solvable problems that the float Q-table calls unsolvable.  One
    default_rng(5) stream draws 20 problems per n = 12, 16, ..., 32: sorted
    nodes from uniform(-0.9, 0.9) and values 0.9 B(r_k) of a Blaschke
    product B of degree n + 2, a strict self-map.  The table's recurrence
    loses the verdict on problems 5 and 6 at n = 28 and 1, 8, 12, 16 and 18
    at n = 32, whose Pick matrices psd_check accepts."""
    rng = np.random.default_rng(5)
    wanted = {28: (5, 6), 32: (1, 8, 12, 16, 18)}
    out = []
    for n in range(12, 33, 4):
        for k in range(20):
            nodes = np.sort(rng.uniform(-0.9, 0.9, n))
            b = random_blaschke_expr(rng, n + 2)
            if k in wanted.get(n, ()):
                pts = np.zeros((n, 4))
                pts[:, 0] = nodes
                out.append((nodes.tolist(), (0.9 * b.eval_many(pts)).tolist()))
    return out


class TestPickDisagrees:
    @pytest.mark.parametrize("nodes, values", pick_disagreeing_problems())
    def test_no_verdict_against_the_pick_test(self, tmp_path, capsys, nodes,
                                              values):
        # neither "no solution" nor a solution: exit 3 with both verdicts'
        # evidence, the table's and a Pick matrix PSD to rounding, and
        # nothing on stderr
        path = write_problem(tmp_path, nodes, values)
        assert cli.main(["interpolate", path]) == 3
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert err == ""
        assert sorted(report) == ["error", "kind", "pickMinEig", "table"]
        assert report["error"] == "pick_disagrees"
        assert report["kind"]["variant"] == "no_solution"
        assert abs(report["pickMinEig"]) <= 1e-13


def _unit(draw):
    v = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    n = math.sqrt(sum(x * x for x in v))
    return [x / n for x in v] if n > 1e-3 else [1.0, 0.0, 0.0, 0.0]


# two self-maps, M_p and q (0.5 + 0.1 i), and q + 0.5, which is not one
H_EXPRS = [
    {"kind": "moebius", "p": [0.3, -0.2, 0.1, 0.0]},
    {"kind": "star_mul", "left": {"kind": "identity"},
     "right": {"kind": "const", "value": [0.5, 0.1, 0, 0]}},
    {"kind": "sum", "left": {"kind": "identity"},
     "right": {"kind": "const", "value": [0.5, 0, 0, 0]}},
]


@st.composite
def problems(draw):
    """Problem JSON with clustered nodes, nodes next to +-1, values and a
    table cell next to the sphere, an optional h, and sometimes one
    malformed field."""
    n = draw(st.integers(1, 12))
    nodes = [k / 1000.0 for k in sorted(draw(st.lists(
        st.integers(-900, 900), min_size=n, max_size=n, unique=True)))]
    for i in range(1, n):
        if draw(st.integers(0, 3)) == 0:
            nodes[i] = nodes[i - 1] + 10.0 ** draw(st.floats(-11.0, -3.0))
    if draw(st.integers(0, 3)) == 0:
        nodes[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
            [1.0 - 1e-14, 1.0 - 5e-15, -1.0 + 1e-14]))
    if draw(st.integers(0, 4)) == 0:
        s = [x * (1.0 - 1e-12) for x in _unit(draw)]
        values = [s] * n
    else:
        values = [[x * draw(st.floats(0.0, 0.95)) for x in _unit(draw)]
                  for _ in range(n)]
        if draw(st.integers(0, 2)) == 0:
            values[draw(st.integers(0, n - 1))] = [
                x * (1.0 - 10.0 ** -draw(st.integers(9, 15)))
                for x in _unit(draw)]
        if n > 1 and draw(st.integers(0, 4)) == 0:
            # with s_1 = 0, Q_1^2 = s_2 / M_{r_1}(r_2): put it next to the
            # sphere, in and around the boundary band
            r1, r2 = nodes[0], nodes[1]
            size = abs((r2 - r1) / (1.0 - r1 * r2)) * (1.0 + draw(
                st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(
                    st.floats(-13.0, -8.0)))
            values[0] = [0.0, 0.0, 0.0, 0.0]
            values[1] = [x * size for x in _unit(draw)]
    data = {"nodes": nodes, "values": values}
    h = draw(st.one_of(st.none(), st.sampled_from(H_EXPRS), st.lists(
        st.floats(-0.8, 0.8), min_size=4, max_size=4)))
    if h is not None:
        data["h"] = h
    bad = draw(st.sampled_from(
        [None] * 8 + ["missing", "length", "nonfinite", "string"]))
    if bad == "missing":
        del data[draw(st.sampled_from(["nodes", "values"]))]
    elif bad == "length":
        data["values"] = values + [[0.0, 0.0, 0.0, 0.0]]
    elif bad == "nonfinite":
        values[0] = [draw(st.sampled_from(
            [math.nan, math.inf, -math.inf]))] + values[0][1:]
    elif bad == "string":
        data["nodes"] = ["x"] + nodes[1:]
    return data


class TestInterpolateContract:
    @settings(derandomize=True, max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(data=problems())
    def test_exit_codes_and_stderr(self, tmp_path, data):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["interpolate", str(path)])
        err = err.getvalue()
        assert code in (0, 1, 2, 3)
        if code == 1:
            assert err.startswith("error:") and err.count("\n") == 1
            return
        assert err == ""
        report = json.loads(out.getvalue())
        if code == 0:
            assert all(map(math.isfinite, report["residuals"]))


# expression JSON: quaternion components keep |p| <= 0.9 inside the ball
_QUAT = st.lists(st.floats(-0.45, 0.45), min_size=4, max_size=4)
_UNIT = st.sampled_from([[1, 0, 0, 0], [0, 0, 1, 0], [0.5, -0.5, 0.5, 0.5],
                         [0.6, 0.0, 0.0, -0.8]])
_LEAVES = st.one_of(
    _QUAT,
    _QUAT.map(lambda v: {"kind": "const", "value": v}),
    st.just({"kind": "identity"}),
    st.builds(lambda p, u: {"kind": "moebius", "p": p,
                            **({} if u is None else {"u": u})},
              _QUAT, st.none() | _UNIT),
    st.builds(lambda coeffs, tail: {"kind": "series", "coeffs": coeffs,
                                    **tail},
              st.lists(_QUAT, min_size=1, max_size=4), st.sampled_from([
                  {"exact": True}, {}, {"exact": False},
                  {"coeffBound": 1.0, "growthRate": 1.0}])),
    st.builds(lambda factors, u: {"kind": "blaschke", "factors": factors,
                                  **({} if u is None else {"u": u})},
              st.lists(_QUAT, min_size=1, max_size=3), st.none() | _UNIT),
)


def expression_json(depth=3):
    """Well-formed expression JSON of every kind, nested to ``depth``."""
    if depth == 0:
        return _LEAVES
    sub = expression_json(depth - 1)
    return st.one_of(
        _LEAVES,
        st.builds(lambda kind, left, right: {"kind": kind, "left": left,
                                             "right": right},
                  st.sampled_from(["sum", "star_mul"]), sub, sub),
        st.builds(lambda kind, inner: {"kind": kind, "inner": inner},
                  st.sampled_from(["star_inv", "conj"]), sub),
        st.builds(lambda p, inner: {"kind": "bullet", "p": p, "inner": inner},
                  _QUAT, sub))


def _parts(tree):
    """The objects of expression JSON, and every (container, key) that
    holds a number."""
    objects, numbers = [], []

    def walk(x):
        if isinstance(x, dict):
            objects.append(x)
        items = x.items() if isinstance(x, dict) else enumerate(x)
        for key, value in items:
            if isinstance(value, (dict, list)):
                walk(value)
            elif isinstance(value, (int, float)) and not isinstance(value,
                                                                    bool):
                numbers.append((x, key))
    walk(tree)
    return objects, numbers


@st.composite
def expression_cases(draw):
    """(expression JSON, whether it is well formed): a tree of
    :func:`expression_json`, possibly with one fault: a missing or an extra
    field, a non-finite or overflowing number, or a kind that is not one,
    or not a string.  An extra field is ignored, so it stays well formed."""
    tree = json.loads(json.dumps(draw(expression_json())))
    objects, numbers = _parts(tree)
    fault = draw(st.sampled_from([None] * 3 + ["missing", "extra", "number",
                                              "kind"]))
    if fault in ("missing", "extra", "kind") and objects:
        node = draw(st.sampled_from(objects))
        if fault == "missing":
            del node[draw(st.sampled_from(sorted(node)))]
        elif fault == "extra":
            node[draw(st.sampled_from(["extra", "order", "exact_"]))] = \
                draw(st.sampled_from([1, None, "x", [0.5, 0, 0, 0]]))
        else:
            node["kind"] = draw(st.sampled_from(
                [1, 2.5, True, None, [1], {"kind": "identity"}, "nope",
                 "Moebius", "quotient"]))
    elif fault is not None and numbers:
        container, key = draw(st.sampled_from(numbers))
        container[key] = draw(st.sampled_from(
            [math.nan, math.inf, -math.inf, 10 ** 400]))
        fault = "number"
    else:
        fault = None
    return tree, fault in (None, "extra")


# the commands that read an expression, with the exit codes the README
# documents for each
_EXPR_COMMANDS = [(["crosscheck", "--count", "16"], (0, 1, 4, 5))] + [
    (["verify", "--suite", s, "--count", "16"], (0, 1, 4, 5))
    for s in ("spl", "spl3", "multi", "dieudonne", "goluzin", "balpha")] + [
    (["grid", "--res", "3"], (0, 1))]
_ROUNDTRIP_POINTS = qarray.uniform_ball(np.random.default_rng(16), 16, 0.9)


def _values_or_error(e):
    with np.errstate(all="ignore"):
        try:
            return e.eval_many(_ROUNDTRIP_POINTS).tobytes()
        except SliceRegError as exc:
            return repr(exc)


class TestExpressionContract:
    """Every command that reads an expression keeps the CLI contract on any
    expression JSON, and a well-formed tree reads back from its own JSON."""

    @settings(derandomize=True, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=expression_cases())
    def test_exit_codes_stderr_and_roundtrip(self, case):
        data, well_formed = case
        spec = json.dumps(data)
        for argv, codes in _EXPR_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(argv[:1] + ["--f", spec] + argv[1:])
            err = err.getvalue()
            assert code in codes and not caught
            if code == 1:
                assert err.startswith("error:") and err.count("\n") == 1
            else:
                assert err == ""
        if well_formed:
            e = expr_from_json(data)
            back = expr_from_json(json.loads(json.dumps(e.to_json())))
            assert repr(back) == repr(e)
            assert _values_or_error(back) == _values_or_error(e)


class TestVerify:
    def test_spl_pass(self, capsys):
        rc = cli.main(["verify", "--suite", "spl", "--f",
                       json.dumps(Q2_EXPR), "--count", "200"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["pass"] is True
        assert report["count"] == 200

    def test_seed_determinism(self, capsys):
        argv = ["verify", "--suite", "dieudonne", "--f",
                json.dumps(Q2_EXPR), "--count", "100", "--seed", "7"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_expr_from_file(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(Q2_EXPR))
        rc = cli.main(["verify", "--suite", "goluzin", "--f", str(path),
                       "--count", "100"])
        assert rc == 0

    def test_non_self_map_rejected(self, capsys):
        bad = {"kind": "const", "value": [2, 0, 0, 0]}
        rc = cli.main(["verify", "--suite", "spl", "--f", json.dumps(bad),
                       "--count", "50"])
        assert rc == 1

    def test_quotient_of_non_self_map_rejected(self, capsys):
        # 1 + 1e-10 passes the sampled self-map check, which allows 1e-9,
        # but a quotient at |p| > 0.43 finds f(p) outside the ball
        near = {"kind": "const", "value": [1 + 1e-10, 0, 0, 0]}
        rc = cli.main(["verify", "--suite", "spl3", "--f", json.dumps(near),
                       "--count", "50"])
        assert rc == 1 and one_line_error(capsys)

    @pytest.mark.parametrize("suite", ["multi", "spl3"])
    def test_quotients_of_a_constant_next_to_the_sphere(self, suite, capsys):
        # the quotients of a constant inside the ball are 0; the tree of each
        # is singular on every sample, |f(p)| lying next to the unit sphere
        rc = cli.main(["verify", "--suite", suite, "--f", "[0.9999999,0,0,0]"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_no_sample_measured_is_inconclusive(self, capsys):
        # every quotient of the unimodular constant 1 is a unimodular
        # constant, so spl3 measures no sample; the report is strict JSON
        def refuse(name):
            raise ValueError(f"{name} is not JSON")
        rc = cli.main(["verify", "--suite", "spl3", "--f", "[1,0,0,0]"])
        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert rc == 5
        assert report["pass"] is False and report["maxViolation"] is None

    # q c with |c| = 0.64, c a truncated leaf, lowers to the order-0 series
    # 0 with a fitted (C, g) = (5.29, 1.01), whose tail at the samples far
    # exceeds the tolerance: dieudonne once failed by 0.22 on it and goluzin
    # passed.  The series q / 2 of order 26 with (C, g) = (1, 0.5) has a
    # tail of 7.6e-10 at the samples, but f^h also reads its derivatives,
    # whose tail there is 2.4e-8
    UNCERTIFIED = {
        "order0": {"kind": "star_mul", "left": {"kind": "identity"},
                   "right": {"kind": "series", "exact": False, "coeffs": [
                       [0.45, -0.15563609032151665, -0.19721175354650555,
                        0.4143962224092716]]}},
        "derivative": {"kind": "series", "exact": False, "coeffBound": 1.0,
                       "growthRate": 0.5, "coeffs": [[0.0] * 4,
                                                     [0.5, 0.0, 0.0, 0.0]]
                       + [[0.0] * 4] * 25},
    }

    @pytest.mark.parametrize("leaf", sorted(UNCERTIFIED))
    @pytest.mark.parametrize("suite", ["dieudonne", "goluzin", "balpha"])
    def test_estimate_suite_on_an_uncertified_tail_is_inconclusive(
            self, suite, leaf, capsys):
        # as crosscheck does, the estimate suites measure no sample; the
        # same map marked exact is measured
        f = json.loads(json.dumps(self.UNCERTIFIED[leaf]))
        argv = ["verify", "--suite", suite, "--count", "16"]
        rc = cli.main(argv + ["--f", json.dumps(f)])
        out = capsys.readouterr()
        assert rc == 5 and out.err == ""
        report = json.loads(out.out)
        assert report["pass"] is False and report["maxViolation"] is None
        if suite == "balpha" and leaf == "order0":
            return  # f'(0) = c is not real
        (f.get("right") or f)["exact"] = True
        rc = cli.main(argv + ["--f", json.dumps(f)])
        assert rc == 0 and json.loads(capsys.readouterr().out)["pass"]

    def test_spl_skips_a_unimodular_constant(self, capsys):
        # f(p) = 1 lies on the sphere, where M_{f(p)} is not defined: spl
        # skips every p at which f is a unimodular constant, as spl3 skips
        # its unimodular quotients, and so measures no sample
        rc = cli.main(["verify", "--suite", "spl", "--f", "[1,0,0,0]"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 5
        assert report["pass"] is False and report["maxViolation"] is None

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid:RuntimeWarning")
    def test_nan_map_is_not_a_self_map(self, capsys):
        # an exact series S = 1.7e308 (q + q^2) minus itself overflows to
        # NaN inside the ball: refused with exit 1, not measured with exit 4
        s = {"kind": "series", "exact": True,
             "coeffs": [[0, 0, 0, 0], [1.7e308, 0, 0, 0], [1.7e308, 0, 0, 0]]}
        f = {"kind": "sum", "left": s, "right": {
            "kind": "star_mul", "left": {"kind": "const", "value": [-1, 0, 0, 0]},
            "right": s}}
        rc = cli.main(["verify", "--suite", "multi", "--f", json.dumps(f)])
        assert rc == 1 and one_line_error(capsys)

    def test_cap_map_is_not_a_self_map(self, capsys):
        # 0.541 (0.9 + q) reaches |f| = 1.001 at q = 0.95, on the sphere only
        cap = {"kind": "star_mul", "left": {
            "kind": "sum", "left": {"kind": "const", "value": [0.9, 0, 0, 0]},
            "right": {"kind": "identity"}},
            "right": {"kind": "const", "value": [1.001 / 1.85, 0, 0, 0]}}
        rc = cli.main(["verify", "--suite", "spl", "--f", json.dumps(cap)])
        assert rc == 1 and one_line_error(capsys)

    def test_interior_pole_is_not_a_self_map(self, capsys):
        # 0.1 (q + 0.5)^{-*} is unbounded at q = -0.5
        pole = {"kind": "star_mul", "left": {"kind": "star_inv", "inner": {
            "kind": "sum", "left": {"kind": "identity"},
            "right": {"kind": "const", "value": [0.5, 0, 0, 0]}}},
            "right": {"kind": "const", "value": [0.1, 0, 0, 0]}}
        rc = cli.main(["verify", "--suite", "spl", "--f", json.dumps(pole)])
        assert rc == 1 and one_line_error(capsys)

    def test_pole_next_to_the_sphere_passes(self, capsys):
        rc = cli.main(["verify", "--suite", "spl", "--f",
                       '{"kind":"moebius","p":[0.99,0,0,0]}'])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    @pytest.mark.parametrize("depth", [600, 3000])
    def test_deep_expression_is_a_one_line_error(self, depth, capsys):
        # 600 nested conj exhaust the stack when evaluated, 3,000 already
        # when the JSON is parsed
        deep = ('{"kind":"conj","inner":' * depth + '{"kind":"identity"}'
                + "}" * depth)
        rc = cli.main(["verify", "--suite", "spl", "--f", deep])
        assert rc == 1 and one_line_error(capsys)

    def test_missing_kind(self, capsys):
        rc = cli.main(["verify", "--suite", "spl", "--f",
                       '{"p":[0.1,0,0,0]}'])
        assert rc == 1
        assert one_line_error(capsys)

    def test_negative_count_is_a_one_line_error(self, capsys):
        rc = cli.main(["verify", "--suite", "spl", "--f", json.dumps(Q2_EXPR),
                       "--count", "-3"])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: count must be nonnegative, got -3\n"

    def test_quotient_next_to_the_sphere_is_a_one_line_error(self, capsys,
                                                              monkeypatch):
        # the suites draw p from the 0.7-ball, where |f(p)| within 1e-13 of
        # the sphere is always a unimodular constant; a quotient at
        # |p| = 0.9999 is refused instead, and the CLI says so in one line
        def suite(name, f, cfg):
            return hyperbolic_quotient(f, Quaternion(0.9999))
        monkeypatch.setattr(cli, "run_suite", suite)
        rc = cli.main(["verify", "--suite", "multi", "--f",
                       json.dumps([1 - 5e-14, 0, 0, 0])])
        assert rc == 1 and one_line_error(capsys)


class TestCrosscheck:
    def test_moebius_backends_agree(self, capsys):
        expr = {"kind": "moebius", "p": [0.3, 0.1, 0.0, 0.2]}
        rc = cli.main(["crosscheck", "--f", json.dumps(expr),
                       "--count", "200"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0 and report["pass"] is True

    def test_not_invertible_at_zero(self, capsys):
        assert cli.main(["crosscheck", "--f", INV_ID]) == 1
        assert one_line_error(capsys)

    def test_exact_series_leaf(self, capsys):
        expr = {"kind": "star_mul",
                "left": {"kind": "series", "exact": True,
                         "coeffs": [[0.5, 0, 0, 0], [0, 0.3, 0, 0.1]]},
                "right": {"kind": "moebius", "p": [0.3, 0.1, 0.0, 0.2]}}
        rc = cli.main(["crosscheck", "--f", json.dumps(expr),
                       "--count", "200"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0 and report["pass"] is True

    @pytest.mark.parametrize("bullet", [False, True], ids=["leaf", "bullet"])
    def test_tail_it_cannot_bound_is_inconclusive(self, bullet, capsys):
        # a truncated leaf with a0 alone once claimed a zero tail: the leaf
        # passed on that claim, and M_p acting on leaf * q failed by 0.377
        # against it.  Its fitted tail at 0.95 exceeds the tolerance, so no
        # difference could fail the check and no sample is measured
        leaf = {"kind": "series", "coeffs": [[0.3, 0.1, -0.2, 0.1]],
                "exact": False}
        expr = {"kind": "bullet", "p": [0.2, 0.1, 0, 0.1], "inner": {
            "kind": "star_mul", "left": leaf,
            "right": {"kind": "identity"}}} if bullet else leaf
        rc = cli.main(["crosscheck", "--f", json.dumps(expr)])
        out = capsys.readouterr()
        assert rc == 5 and out.err == ""
        report = json.loads(out.out)
        assert report["pass"] is False and report["maxViolation"] is None

    @pytest.mark.parametrize("fields", [
        {"exact": "false"}, {"coeffBound": 1.0},
        {"coeffBound": True, "growthRate": 0.6},
        {"coeffBound": 10 ** 400, "growthRate": 0.6},
    ], ids=["exact_string", "bound_alone", "bound_bool", "bound_overflows"])
    def test_malformed_series_certificate_is_a_one_line_error(self, fields,
                                                              capsys):
        # "exact": "false" made the series exact, so that the check passed
        # with no tail; the lone or boolean constant became another (C, g);
        # an integer beyond the float range raised OverflowError, which
        # ended in a traceback
        expr = {"kind": "series",
                "coeffs": [[0.5, 0, 0, 0], [0.3, 0, 0, 0]], **fields}
        assert cli.main(["crosscheck", "--f", json.dumps(expr)]) == 1
        assert one_line_error(capsys)

    def test_negative_count_is_a_one_line_error(self, capsys):
        expr = {"kind": "moebius", "p": [0.3, 0.1, 0.0, 0.2]}
        rc = cli.main(["crosscheck", "--f", json.dumps(expr), "--count", "-1"])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: count must be nonnegative, got -1\n"

    def test_nan_violation_is_strict_json(self, capsys):
        # the exact and the series backends both overflow to inf, so every
        # difference is NaN: the report fails, and its JSON names the NaN
        # in a string, as JSON has no NaN
        def refuse(name):
            raise ValueError(f"{name} is not JSON")
        expr = {"kind": "series", "exact": True,
                "coeffs": [[0, 0, 0, 0], [1e308, 0, 0, 0], [1e308, 0, 0, 0]]}
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["crosscheck", "--f", json.dumps(expr),
                           "--count", "20"])
        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert rc == 4
        assert report["pass"] is False and report["maxViolation"] == "NaN"


class TestUsageErrors:
    """A usage error is a one-line error with exit code 1, like every other
    error, and not argparse's usage block with exit code 2."""

    @pytest.mark.parametrize("argv", [
        ["interpolate"],
        ["verify", "--suite", "spl", "--f", json.dumps(Q2_EXPR),
         "--count", "abc"],
        ["crosscheck", "--f", json.dumps(Q2_EXPR), "--order", "8"],
        [],
    ], ids=["missing_file", "count_not_an_int", "order_unknown",
            "no_command"])
    def test_one_line_error(self, argv, capsys):
        assert cli.main(argv) == 1
        assert one_line_error(capsys)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["crosscheck", "--help"])
        assert exc.value.code == 0
        assert "--order" not in capsys.readouterr().out


class TestNumpyWarnings:
    """Overflow reaches the output as a value or as one error line, never as
    a numpy warning on stderr."""

    @pytest.mark.parametrize("argv, code", [
        (["verify", "--suite", "balpha", "--f", HUGE_SERIES], 1),
        (["crosscheck", "--f", HUGE_SERIES], 0),
        (["grid", "--f", HUGE_SERIES, "--res", "3"], 0),
    ], ids=["verify", "crosscheck", "grid"])
    def test_overflow_warns_nothing(self, argv, code, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == code
        assert not caught
        if code:
            assert one_line_error(capsys)
        else:
            assert capsys.readouterr().err == ""


class TestRefusals:
    """Refusals of the library reach the CLI as one-line errors."""

    @pytest.mark.parametrize("argv", [
        # dieudonne needs f(0) = 0
        ["verify", "--suite", "dieudonne", "--f", "[0.5,0,0,0]"],
        # balpha needs a real f'(0): q * (i / 2) has f'(0) = i / 2
        ["verify", "--suite", "balpha", "--f", json.dumps(
            {"kind": "star_mul", "left": {"kind": "identity"},
             "right": {"kind": "const", "value": [0, 0.5, 0, 0]}})],
        ["verify", "--suite", "spl", "--f", json.dumps(Q2_EXPR),
         "--radius-cap", "1.5"],
        ["verify", "--suite", "spl", "--f", '{"kind": "nope"}'],
    ], ids=["dieudonne_f0", "balpha_derivative", "radius_cap", "kind"])
    def test_one_line_error(self, argv, capsys):
        assert cli.main(argv) == 1
        assert one_line_error(capsys)


class TestGrid:
    def test_shape_and_header(self, capsys):
        rc = cli.main(["grid", "--f", json.dumps(Q2_EXPR), "--res", "3"])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert out[0] == "x,y,abs,re,arg"
        assert len(out) == 1 + 9

    def test_values_on_slice(self, capsys):
        rc = cli.main(["grid", "--f", json.dumps(Q2_EXPR),
                       "--res", "5", "--slice", "j"])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        for line in out[1:]:
            x, y, mod, re, arg = (float(v) for v in line.split(","))
            z = complex(x, y) ** 2
            assert abs(mod - abs(z)) <= 1e-12
            assert abs(re - z.real) <= 1e-12
            # compare angles modulo 2*pi (the sign of a zero imaginary
            # part flips the atan2 branch at the negative real axis)
            diff = arg - math.atan2(z.imag, z.real)
            assert min(abs(diff), abs(abs(diff) - 2 * math.pi)) <= 1e-12

    def test_row_major_order(self, capsys):
        # y is the outer index and x varies fastest
        rc = cli.main(["grid", "--f", json.dumps(Q2_EXPR), "--res", "3"])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert rc == 0
        rows = [[float(v) for v in line.split(",")[:2]] for line in lines]
        coords = sorted({x for x, _ in rows})
        assert len(coords) == 3
        assert rows == [[x, y] for y in coords for x in coords]

    def test_bad_resolution(self, capsys):
        assert cli.main(["grid", "--f", json.dumps(Q2_EXPR),
                         "--res", "5000"]) == 1

    def test_singular_sample(self, capsys):
        assert cli.main(["grid", "--f", INV_ID, "--res", "1"]) == 1
        assert one_line_error(capsys)

    @staticmethod
    def whole_grid(expr, res, axis) -> str:
        """The grid of expr: the row-by-row "%.17g" join of the five values,
        with the angle from math.atan2, over the row-major samples of the
        inscribed square of the slice, all evaluated at once."""
        axis = np.array(cli._parse_slice(axis).components()[1:])
        half = 0.95 / math.sqrt(2.0)
        coords = np.linspace(-half, half, res)
        ys, xs = (c.ravel() for c in np.meshgrid(coords, coords,
                                                 indexing="ij"))
        pts = np.zeros((res * res, 4))
        pts[:, 0] = xs
        pts[:, 1:] = ys[:, None] * axis
        vals = expr_from_json(expr).eval_many(pts)
        mods = qarray.qnorm(vals)
        imag = vals[:, 1] * axis[0] + vals[:, 2] * axis[1] \
            + vals[:, 3] * axis[2]
        lines = ["x,y,abs,re,arg"]
        for m in range(res * res):
            arg = math.atan2(imag[m], vals[m, 0])
            lines.append(",".join(f"{v:.17g}" for v in
                                  (xs[m], ys[m], mods[m], vals[m, 0], arg)))
        return "\n".join(lines) + "\n"

    def test_matches_per_row_formatting(self, capsys):
        # the output is byte for byte the grid formatted row by row
        rc = cli.main(["grid", "--f", json.dumps(GRID_BLASCHKE), "--res",
                       "30", "--slice", "[1,2,3]"])
        assert rc == 0
        assert capsys.readouterr().out == self.whole_grid(GRID_BLASCHKE, 30,
                                                          "[1,2,3]")

    def test_blocks_of_rows_match_one_evaluation(self, capsys):
        # at --res 100 the samples are evaluated in blocks of 64 and 36
        # rows, and the output is that of one evaluation of all 10,000
        rc = cli.main(["grid", "--f", json.dumps(GRID_BLASCHKE), "--res",
                       "100", "--slice", "[1,2,3]"])
        assert rc == 0
        assert capsys.readouterr().out == self.whole_grid(GRID_BLASCHKE, 100,
                                                          "[1,2,3]")

    def test_abs_past_the_root_of_the_float_range(self, capsys):
        # |f|^2 = 2.5e599 overflows, |f| = 5e299 does not
        assert cli.main(["grid", "--f", "[5e299,0,0,0]", "--res", "1"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[2]) == 5e299

    def test_blocks_of_rows_join_to_one_output(self, capsys, monkeypatch):
        # blocks of 7 rows, the last one short, give the bytes of one block
        argv = ["grid", "--f", json.dumps(Q2_EXPR), "--res", "30",
                "--slice", "[1,2,3]"]
        assert cli.main(argv) == 0
        whole = capsys.readouterr().out
        monkeypatch.setattr(cli, "_GRID_ROWS", 7)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == whole

    def test_custom_axis(self, capsys):
        rc = cli.main(["grid", "--f", json.dumps(Q2_EXPR),
                       "--res", "2", "--slice", "[1,1,0]"])
        assert rc == 0
