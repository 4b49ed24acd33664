import json
import math

import numpy as np
import pytest

from slicereg import cli, qarray
from slicereg.hyperbolic import hyperbolic_quotient
from slicereg.moebius import expr_from_json
from slicereg.quaternion import Quaternion

Q2_EXPR = {"kind": "star_mul",
           "left": {"kind": "identity"},
           "right": {"kind": "identity"}}
# *-inverse of q: no constant term, singular at 0
INV_ID = json.dumps({"kind": "star_inv", "inner": {"kind": "identity"}})


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

    def test_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SR_TOL", "10.0")
        rc = cli.main(["verify", "--suite", "spl", "--f",
                       json.dumps(Q2_EXPR), "--count", "50"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0 and report["tolerance"] == 10.0

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


    @pytest.mark.parametrize("order", ["-1", "-5"])
    def test_negative_order_is_a_one_line_error(self, order, capsys):
        # order -1 used to end in an IndexError traceback from
        # Moebius.to_series, and -5 in NumPy's "negative dimensions"
        expr = {"kind": "star_mul", "left": {"kind": "identity"},
                "right": {"kind": "moebius", "p": [0.3, 0.1, 0.0, 0.2]}}
        rc = cli.main(["crosscheck", "--f", json.dumps(expr),
                       "--order", order])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: order must be nonnegative, got {order}\n"

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

    def test_matches_per_row_formatting(self, capsys):
        # the output is byte for byte the row-by-row "%.17g" join of the
        # five values, with the angle from math.atan2, over the row-major
        # samples of the inscribed square of the slice
        expr = {"kind": "blaschke", "u": [0, 0, 1, 0],
                "factors": [[0.3, 0.2, 0, 0], [-0.2, 0, 0.3, 0.1]]}
        res = 30
        rc = cli.main(["grid", "--f", json.dumps(expr), "--res", str(res),
                       "--slice", "[1,2,3]"])
        out = capsys.readouterr().out
        assert rc == 0
        axis = np.array(cli._parse_slice("[1,2,3]").components()[1:])
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
        assert out == "\n".join(lines) + "\n"

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
