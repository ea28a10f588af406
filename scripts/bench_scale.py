#!/usr/bin/env python3
"""Record how design and verify cost grows with the size of a ring network.

Designs and verifies ``perfbench/scenarios.ring_config(N, 8)`` (an N-node
swing ring, slack 0, the design method's fixed constants) for N = 8, 12, 20,
30 and 40, each run in a fresh child process with one BLAS thread.  A run records the
wall time of ``nrf-forge design`` and ``verify``, the child's peak RSS, the
time spent building the search surrogate, in the pattern search and in the
certified norms (``constraint_norms``), the bytes of direction responses
the surrogate holds (its factor responses plus one direction's stacks of
the moving blocks, as it holds one direction at a time), the count of
blocks that move with x and the share of its evaluations' grid
points at which a lambda_max was taken (read from the surrogate's
``lambda_points`` counter), the largest and the median number of lockstep
steps per batch of the certificates' peak refinement (``lti._brent_max``)
and the count of structurally zero blocks.  Each time is the median over
3 runs.  One more child per N runs ``design`` alone under
``tracemalloc`` and records its peak of traced allocations
(``design_tracemalloc_peak_mb``).  Unlike the peak RSS, which moves by
about 20 MB between identical ring20 runs, it repeats from run to run; it
stays out of the timed runs because tracing slows the program.  The record
also holds the exponent p of a least-squares fit design_s ~ N^p over
N = 20, 30 and 40 (``design_s_exponent_20_40``), the growth a change at
scale is judged by.  A ring40 child takes about 70 s and 1.3 GB.  The record
is stored under ``--label`` in ``BENCH_scale.json`` at the repository root;
other labels already in that file are kept, so two source trees can be
compared.

    python3 scripts/bench_scale.py --label after
    python3 scripts/bench_scale.py --label before --src ../parent/src
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_scale.json"
RING_SEED = 8
SIZES = (8, 12, 20, 30, 40)
FIT_SIZES = (20, 30, 40)
REPEATS = 3
TIMED = ("design_s", "verify_s", "peak_rss_mb", "surrogate_build_s", "search_s", "certify_s")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", help="key of this record in the output file")
    ap.add_argument("--src", default=str(ROOT / "src"), help="source tree holding nrf_forge")
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--trace-memory", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is None and not args.label:
        ap.error("--label is required")
    return args


def child(n: int, src: str, trace_memory: bool = False) -> dict:
    """Design and verify the n-node ring in this process; return its figures.
    With ``trace_memory``, run only ``design``, under tracemalloc, and return
    its peak of traced allocations."""
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "perfbench")]
    import numpy as np
    import scenarios
    from nrf_forge import cli, lti, match_synth

    spent = {"surrogate_build_s": 0.0, "search_s": 0.0, "certify_s": 0.0}
    model = {}   # figures of the surrogate, read as it is built

    def timed(fn, key):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[key] += time.perf_counter() - t0
        return wrapper

    build = match_synth._SurrogateModel.__init__

    def init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        model["moving_blocks"] = int(self.moving.sum())
        held = sum(a.nbytes for a in self.factors) + sum(
            g.base.nbytes for g in self.groups if g.gather is not None)
        model["surrogate_held_mb"] = held / 2**20

    search = match_synth._pattern_search

    def pattern_search(surrogate, *args, **kwargs):
        out = search(surrogate, *args, **kwargs)
        taken, bracketed = surrogate.lambda_points
        model["lambda_share"] = round(float(taken / bracketed), 4)
        return out

    refine_steps = []   # lockstep steps of each refinement batch
    refine = lti._brent_max

    def brent_max(*args, **kwargs):
        out = refine(*args, **kwargs)
        refine_steps.append(out[1])
        return out

    lti._brent_max = brent_max

    match_synth._SurrogateModel.__init__ = timed(init, "surrogate_build_s")
    match_synth._pattern_search = timed(pattern_search, "search_s")
    match_synth.constraint_norms = timed(match_synth.constraint_norms, "certify_s")

    cfg = scenarios.ring_config(n, RING_SEED)
    del cfg["synthesis"]["optimizer"]  # a removed setting; it would only print a note
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(work, "run")
        times = []
        steps = [["design", "--config", path, "--out", out], ["verify", "--out", out]]
        if trace_memory:
            tracemalloc.start()
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in steps[:1] if trace_memory else steps:
                t0 = time.perf_counter()
                rc = cli.main(argv)
                times.append(time.perf_counter() - t0)
                if rc != 0:
                    raise RuntimeError(f"{argv[0]} exited {rc}")
        if trace_memory:
            return {"design_tracemalloc_peak_mb": tracemalloc.get_traced_memory()[1] / 2**20}
        with open(os.path.join(out, "synthesis_report.txt")) as fh:
            report = dict(ln.split(": ", 1) for ln in fh.read().splitlines() if ": " in ln)

    return {
        "N": n, "design_s": times[0], "verify_s": times[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **spent, **model,
        "surrogate_evals": int(report["surrogate evaluations"]),
        "refine_steps_max": max(refine_steps),
        "refine_steps_median": statistics.median(refine_steps),
        "structural_zeros": int(report["structurally zero blocks"].split()[0]),
        "objective": float(report["objective (certified)"]),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child, args.src, args.trace_memory)))
        return 0
    rows, numpy_version = [], None
    for n in SIZES:
        runs = []
        for extra in [[]] * REPEATS + [["--trace-memory"]]:
            proc = subprocess.run([sys.executable, __file__, "--child", str(n), "--src", args.src,
                                   *extra], capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        traced = runs.pop()
        numpy_version = runs[0].pop("numpy")
        row = {**runs[0], **{k: round(statistics.median(r[k] for r in runs), 3) for k in TIMED}}
        row["surrogate_held_mb"] = round(row["surrogate_held_mb"], 1)
        row["design_tracemalloc_peak_mb"] = round(traced["design_tracemalloc_peak_mb"], 2)
        row["runs"] = len(runs)
        rows.append(row)
        print(row)
    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc["description"] = ("design and verify of perfbench ring_config(N, 8) (slack 0, "
                          "the design method's fixed constants), each run in a fresh process with "
                          "one BLAS thread; times in s and peak RSS in MB are medians over the runs; "
                          "scripts/bench_scale.py")
    fit = [(math.log(r["N"]), math.log(r["design_s"])) for r in rows if r["N"] in FIT_SIZES]
    doc.setdefault("records", {})[args.label] = {
        "python": platform.python_version(), "numpy": numpy_version,
        "machine": platform.machine(), "nproc": os.cpu_count(), "results": rows,
        "design_s_exponent_20_40": round(statistics.linear_regression(*zip(*fit)).slope, 2),
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
