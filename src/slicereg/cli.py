"""Command-line harness: solve interpolation problems, run verification
suites, cross-check evaluation backends, and sample functions on a slice.

Problem JSON: {"nodes": [r1, ...], "values": [[w,x,y,z], ...], "h": ...}
Expression JSON: see moebius.expr_from_json (kinds const/identity/moebius/
star_mul/star_inv/conj/bullet/sum/series/blaschke).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import qarray
from .errors import AmbiguousBoundary, SliceRegError
from .interpolation import (
    InterpolationProblem,
    build_q_table,
    build_solution,
    classify,
    pick_matrix,
    psd_check,
)
from .moebius import FunctionExpr, expr_from_json
from .quaternion import Quaternion
from .verify import SUITES, SamplerConfig, crosscheck, run_suite

__all__ = ["main"]


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_json_arg(spec: str):
    """JSON from an inline literal or from a file path."""
    try:
        return json.loads(spec)
    except ValueError:
        with open(spec, "r", encoding="utf-8") as fh:
            return json.load(fh)


def _load_expr_arg(spec: str) -> FunctionExpr:
    return expr_from_json(_load_json_arg(spec))


def _parse_h(raw):
    if raw is None:
        return None
    data = _load_json_arg(raw) if isinstance(raw, str) else raw
    if isinstance(data, (int, float)):
        return Quaternion(data)
    if isinstance(data, list):
        return Quaternion.from_iter(data)
    return expr_from_json(data)


def _q_table_margin(table):
    """The computed cell (k >= 1) whose value lies nearest the unit sphere,
    as {"cell": [k, l], "margin": ||Q| - 1|}; None for a one-node table."""
    near = min(((abs(abs(c.value) - 1.0), k, l)
                for (k, l), c in table.cells.items()
                if k >= 1 and c.value is not None), default=None)
    if near is None:
        return None
    return {"cell": [near[1], near[2]], "margin": near[0]}


def cmd_interpolate(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    nodes = data["nodes"]
    values = [Quaternion.from_iter(v) for v in data["values"]]
    h = _parse_h(args.h if args.h is not None else data.get("h"))
    prob = InterpolationProblem(nodes, values)
    table = build_q_table(prob)
    pick = pick_matrix(list(prob.nodes), list(prob.values))
    is_psd, min_eig = psd_check(pick)
    try:
        kind = classify(table)
    except AmbiguousBoundary as exc:
        print(_dump({"error": "ambiguous_boundary", "cell": list(exc.cell),
                     "table": table.to_json()}))
        return 3
    if (kind.variant != "no_solution") != is_psd:
        # the table and the Pick test disagree on solvability: no verdict
        print(_dump({"error": "pick_disagrees", "kind": kind.to_json(),
                     "pickMinEig": min_eig, "table": table.to_json()}))
        return 3
    report = {
        "kind": kind.to_json(),
        "table": table.to_json(),
        "pickMinEig": min_eig,
        "qTableMargin": _q_table_margin(table),
        "solution": None,
        "residuals": None,
    }
    if kind.variant == "no_solution":
        print(_dump(report))
        return 2
    solution = build_solution(table, kind,
                              None if kind.variant == "singular" else h)
    pts = np.zeros((prob.n, 4))
    pts[:, 0] = prob.nodes
    residuals = qarray.qnorm(solution.eval_many(pts) - np.array(
        [s.components() for s in values])).tolist()
    report["solution"] = solution.to_json()
    report["residuals"] = residuals
    print(_dump(report))
    return 0


def _sampler(args) -> SamplerConfig:
    return SamplerConfig(seed=args.seed, count=args.count,
                         radius_cap=args.radius_cap)


def _print_report(report) -> int:
    """Print a verification report; exit code 4 when it fails, and 5 when
    it is inconclusive: no sample was measured, or crosscheck's series tail
    exceeds its tolerance."""
    print(_dump(report.to_json()))
    if report.passed:
        return 0
    return 5 if report.max_violation is None else 4


def cmd_verify(args) -> int:
    return _print_report(run_suite(args.suite, _load_expr_arg(args.f),
                                   _sampler(args)))


def cmd_crosscheck(args) -> int:
    return _print_report(crosscheck(_load_expr_arg(args.f), _sampler(args)))


def _parse_slice(spec: str) -> Quaternion:
    named = {"i": (1.0, 0.0, 0.0), "j": (0.0, 1.0, 0.0), "k": (0.0, 0.0, 1.0)}
    if spec in named:
        x, y, z = named[spec]
    else:
        x, y, z = (float(v) for v in json.loads(spec))
    n = math.sqrt(x * x + y * y + z * z)
    if n == 0.0:
        raise ValueError("slice axis must be nonzero")
    return Quaternion(0.0, x / n, y / n, z / n)


_GRID_ROWS = 64


def cmd_grid(args) -> int:
    f = _load_expr_arg(args.f)
    axis = _parse_slice(args.slice)
    res = args.res
    if not 1 <= res <= 2048:
        raise ValueError("resolution must be in [1, 2048]")
    # inscribed square of the radius-0.95 slice disk, row-major: y is the
    # outer index and x varies fastest
    half = 0.95 / math.sqrt(2.0)
    coords = np.linspace(-half, half, res) if res > 1 else np.array([0.0])
    row = "%.17g,%.17g,%.17g,%.17g,%.17g\n".__mod__
    sys.stdout.write("x,y,abs,re,arg\n")
    # evaluated and written _GRID_ROWS rows at a time, so that only one
    # block of points, values and lines is held at once
    for start in range(0, res, _GRID_ROWS):
        ys, xs = (c.ravel() for c in np.meshgrid(
            coords[start:start + _GRID_ROWS], coords, indexing="ij"))
        pts = np.zeros((len(xs), 4))
        pts[:, 0] = xs
        pts[:, 1:] = ys[:, None] * np.array([axis.x, axis.y, axis.z])
        vals = f.eval_many(pts)
        imag = (vals[:, 1] * axis.x + vals[:, 2] * axis.y
                + vals[:, 3] * axis.z).tolist()
        re_w = vals[:, 0].tolist()
        # math.atan2 per element: np.arctan2 can differ in the last digit
        angles = map(math.atan2, imag, re_w)
        sys.stdout.write("".join(map(row, zip(
            xs.tolist(), ys.tolist(), qarray.qnorm(vals).tolist(), re_w,
            angles))))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors end in one ``error:`` line and exit code 1, as every
    other error does: argparse's exit code 2 is interpolate's "no solution"."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _Parser(
        prog="slicereg",
        description="Interpolation and verification for slice regular "
                    "self-maps of the quaternionic unit ball.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("interpolate", help="solve a problem file")
    p_int.add_argument("file")
    p_int.add_argument("--h", default=None,
                       help="parameter h: JSON expr, quaternion, or file")
    p_int.set_defaults(func=cmd_interpolate,
                       error_prefix="malformed problem input: ")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", required=True, choices=list(SUITES))
    p_ver.add_argument("--f", required=True)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--count", type=int, default=1000)
    p_ver.add_argument("--radius-cap", type=float, default=0.95)
    p_ver.set_defaults(func=cmd_verify)

    p_cc = sub.add_parser("crosscheck", help="exact vs series backends")
    p_cc.add_argument("--f", required=True)
    p_cc.add_argument("--seed", type=int, default=0)
    p_cc.add_argument("--count", type=int, default=500)
    p_cc.add_argument("--radius-cap", type=float, default=0.95)
    p_cc.set_defaults(func=cmd_crosscheck)

    p_grid = sub.add_parser("grid", help="sample |f| on a slice as CSV")
    p_grid.add_argument("--f", required=True)
    p_grid.add_argument("--slice", default="i")
    p_grid.add_argument("--res", type=int, default=64)
    p_grid.set_defaults(func=cmd_grid)

    args = argparse.Namespace()
    try:
        args = parser.parse_args(argv)
        # a non-finite value is reported as such, never warned about
        with np.errstate(all="ignore"):
            return args.func(args)
    except (OSError, ValueError, KeyError, TypeError, OverflowError,
            RecursionError, SliceRegError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        print(f"error: {getattr(args, 'error_prefix', '')}{detail}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
