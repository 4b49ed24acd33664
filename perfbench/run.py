"""Benchmark of slicereg: one workload per process, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload np_eval --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics, with every time scaled to the speed of a fixed reference loop run
after each operation, because the speed of a shared host changes by up to
2x from one moment to the next.  ``--trace 1`` runs whole rounds untraced
for ``--seconds``, then one round traced, and prints the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread, set before NumPy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 9
SETUP_REF_RUNS = 250
SETUP_TIMEOUT = 60
WORKLOAD_NAMES = ("np_classify", "np_eval", "suites", "crosscheck")
# the reference loop run after every operation, and the time it is scaled to
REF_REPS = 100
REF_NOMINAL_S = 2e-4
_REF_ARRAY = np.linspace(0.1, 0.9, 200).reshape(50, 4)


def _reference_loop():
    """Fixed work of the kind slicereg spends its time on: small NumPy
    operations driven from Python (about 0.2 ms on a fast 2-core host)."""
    acc = 0.0
    for _ in range(REF_REPS):
        acc += float((_REF_ARRAY * 1.0001).sum())
    return acc


def _use_checkout_source():
    """Import slicereg from this checkout's src/, never from elsewhere."""
    if not (SRC / "slicereg" / "__init__.py").is_file():
        sys.exit(f"error: no slicereg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import slicereg
    if Path(slicereg.__file__).resolve().parent != SRC / "slicereg":
        sys.exit(f"error: slicereg imported from {slicereg.__file__}")


def _setup_probe(workload: str, seed: int):
    """What a fresh process pays before its first operation."""
    import slicereg.cli  # noqa: F401
    import workloads
    workloads.build(workload, seed)


def _reference_time(runs: int) -> float:
    """Mean wall time of ``runs`` back-to-back runs of the reference loop."""
    start = time.perf_counter()
    for _ in range(runs):
        _reference_loop()
    return (time.perf_counter() - start) / runs


def _measure_setup(workload: str, seed: int):
    """Median wall time of fresh interpreters running the set-up probe.

    Returns the median scaled to the reference speed, taken from the
    reference loop run right before and right after each probe, and the
    unscaled median.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        before = _reference_time(SETUP_REF_RUNS)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL)
        # a blocking wait returns as soon as the child exits; a wait with a
        # timeout polls, which rounds the time up to its polling step
        watchdog = threading.Timer(SETUP_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        took = time.perf_counter() - start
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        after = _reference_time(SETUP_REF_RUNS)
        samples.append(took)
        scaled.append(took * REF_NOMINAL_S / (0.5 * (before + after)))
    return statistics.median(scaled), statistics.median(samples)


class Run:
    """Closed-loop execution of a workload's operations.

    ``spans[i]`` holds (start, end) of every completed repeat of
    operation i.  Every operation is followed by one run of the reference
    loop, whose midpoints and wall times are kept in ``ref_t`` and
    ``ref_d``.
    """

    def __init__(self, wl):
        self.wl = wl
        self.spans = [[] for _ in wl.ops]
        self.ref_t = []
        self.ref_d = []
        self.completed = 0
        self.attempted = 0
        self.failed = 0
        self.errors = {}
        self.outputs = {}  # first output of each operation, checked later

    def op(self, i, tracer=None):
        op = self.wl.ops[i]
        if tracer is not None:
            tracer.op, tracer.tag = self.attempted, op.tag
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # counted, reported, and the loop goes on
            self.failed += 1
            key = f"{op.label}: {type(exc).__name__}: {exc}"
            self.errors[key] = self.errors.get(key, 0) + 1
        else:
            self.spans[i].append((start, time.perf_counter()))
            self.completed += 1
            self.outputs.setdefault(i, out)
        self.reference()

    def reference(self):
        """Time one run of the reference loop."""
        start = time.perf_counter()
        _reference_loop()
        end = time.perf_counter()
        self.ref_t.append(0.5 * (start + end))
        self.ref_d.append(end - start)

    def wall_times(self):
        """Wall time of every completed repeat, per operation."""
        return [[end - start for start, end in spans] for spans in self.spans]

    def scaled_times(self):
        """Wall time of every completed repeat, scaled to the reference speed.

        A repeat that took d seconds is scaled by REF_NOMINAL_S over the
        mean time of the reference runs within d of it, and at least the
        runs right before and after it: the speed of the host is taken over
        a window as long as the operation itself.
        """
        t, d = np.asarray(self.ref_t), np.asarray(self.ref_d)
        scaled = []
        for spans in self.spans:
            row = []
            for start, end in spans:
                took = end - start
                lo = min(np.searchsorted(t, start - took),
                         np.searchsorted(t, start) - 1)
                hi = max(np.searchsorted(t, end + took),
                         np.searchsorted(t, end) + 1)
                row.append(took * REF_NOMINAL_S / d[max(lo, 0):hi].mean())
            scaled.append(row)
        return scaled

    def round(self, tracer=None) -> float:
        """One pass over the workload's operations; returns the wall time."""
        start = time.perf_counter()
        if not self.ref_t:
            self.reference()
        for i in range(len(self.wl.ops)):
            self.op(i, tracer)
        return time.perf_counter() - start

    def rounds(self, seconds: float):
        """The number of whole rounds that comes closest to ``seconds``."""
        walls = [self.round()]
        while sum(walls) + statistics.mean(walls) / 2 < seconds:
            walls.append(self.round())
        return walls

    def problems(self):
        """Checker findings on the outputs and apart from the timed run."""
        found = [p for i, out in sorted(self.outputs.items())
                 for p in self.wl.check(i, out)]
        return found + self.wl.check_apart()


def _percentile_ms(values, q):
    """The q-th percentile, by the nearest-rank rule, in milliseconds."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return 1e3 * ordered[rank - 1]


def _end_to_end(args, wl):
    setup_s, setup_unscaled = _measure_setup(args.workload, args.seed)
    run = Run(wl)
    walls = run.rounds(args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # on a shared host the same code runs at two speeds, one about twice the
    # other, in phases of milliseconds to minutes; the figures are scaled to
    # the speed of the reference loop, so that they do not follow the phases
    scaled = _latency_figures(run.scaled_times())
    raw = _latency_figures(run.wall_times())
    print(f"{wl.name}: {len(walls)} rounds of {len(wl.ops)} operations, "
          f"{run.completed} completed in {sum(walls):.2f} s; reference loop "
          f"median {1e3 * statistics.median(run.ref_d):.4f} ms")
    print(f"  unscaled wall times: setup_s {setup_unscaled:.6g}, " + ", ".join(
        f"{k} {v:.6g}" for k, v in raw.items()))
    metrics = {"setup_s": setup_s, **scaled, "peak_rss_mb": rss_mb}
    return run, _with_units(metrics, "end_to_end")


def _latency_figures(times):
    """Throughput and latency percentiles from per-operation repeat times.

    The latency of an operation is the median of its repeats.
    """
    latency = [statistics.median(t) for t in times if t]
    return {
        "ops_per_s": sum(map(len, times)) / sum(map(sum, times)),
        "op_p50_ms": _percentile_ms(latency, 50),
        "op_p90_ms": _percentile_ms(latency, 90),
    }


def _per_layer(args, wl):
    import tracing
    run = Run(wl)
    untraced = statistics.median(run.rounds(args.seconds))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.round(tracer)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans)
    metrics = tracer.summary(len(wl.ops))
    metrics["trace.overhead_s"] = traced - untraced
    print(f"{wl.name}: traced round of {len(wl.ops)} operations: "
          f"{traced:.3f} s, untraced median {untraced:.3f} s; "
          f"{len(tracer.span_name)} spans written to {spans.relative_to(ROOT)}")
    return run, _with_units(metrics, "per_layer")


def _with_units(values, section):
    """The metrics BENCHMARK.json lists in ``section``, with their units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _use_checkout_source()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    import workloads
    wl = workloads.build(args.workload, args.seed)
    if args.trace:
        run, metrics = _per_layer(args, wl)
    else:
        run, metrics = _end_to_end(args, wl)
    problems = run.problems()
    for line in problems[:20]:
        print(f"CHECK FAILED {line}")
    for key, times in sorted(run.errors.items()):
        print(f"FAILED x{times} {key}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
