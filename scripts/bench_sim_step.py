#!/usr/bin/env python3
"""Time one closed-loop step of the distributed and monolithic simulators.

Builds the synthetic ring bank of ``tests/conftest.py::unequal_ring`` (areas
with unequal (n_xi, n_ui) and controller orders, one order-0 area, ring
communication sets) for N = 8, 20 and 40, and times 2,000-step runs of
``simulate_distributed`` and ``simulate_monolithic`` with one BLAS thread,
then 500-step runs of a batch of 25 scenarios stepped together (the size
of one ``verify`` equivalence block).  Each process takes the median over 7
runs, in microseconds per step (per step of the whole batch).  The whole
measurement runs in 5 fresh child processes one after another, so that
drift between processes shows: each figure is stored as the median across
the processes, with its interquartile range under ``iqr``.  Each record
also holds ``calibration_us``, the time of a fixed small batched product
(median and range across the processes alike), so that records made at
different times on a shared machine can be told apart from a change of the
program.  The record is stored under
``--label`` in ``BENCH_sim_step.json`` at the repository root; other labels
already in that file are kept, so two source trees can be compared.

    python3 scripts/bench_sim_step.py --label after
    python3 scripts/bench_sim_step.py --label before --src ../parent/src
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_sim_step.json"
SIZES = (8, 20, 40)
STEPS = 2000
BATCH, BATCH_STEPS = 25, 500
REPEATS = 7
PROCESSES = 5
SEED = 0
CALIBRATION_REPS, CALIBRATION_CALLS = 51, 200
# one child's measurement: its figures as one JSON line
CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import bench_sim_step as b; b.measure(sys.argv[2])"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this record in the output file")
    ap.add_argument("--src", default=str(ROOT / "src"), help="source tree holding nrf_forge")
    return ap.parse_args(argv)


def step_us(fn, steps=STEPS) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times) / steps


def calibration_us() -> float:
    """Median time of one fixed (40, 4, 14) x (40, 14, 25) batched product,
    the shape of a distributed step's phase product at N = 40 with 25
    scenarios; an environment figure, independent of the source tree."""
    import numpy as np
    rng = np.random.default_rng(0)
    P, Z = rng.standard_normal((40, 4, 14)), rng.standard_normal((40, 14, 25))
    out = np.empty((40, 4, 25))
    times = []
    for _ in range(CALIBRATION_REPS):
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            np.matmul(P, Z, out=out)
        times.append((time.perf_counter() - t0) / CALIBRATION_CALLS)
    return 1e6 * statistics.median(times)


def measure(src: str) -> None:
    """Print this process's figures of the source tree ``src`` as one JSON line."""
    sys.path[:0] = [src, str(ROOT / "tests")]
    import numpy as np
    from conftest import unequal_ring
    from nrf_forge.sim_net import (
        compose_signals,
        simulate_distributed,
        simulate_monolithic,
        stack_scenarios,
    )

    calib = calibration_us()
    rows = []
    for n_areas in SIZES:
        plant, part, nb, bank = unequal_ring(n_areas, SEED)
        n_w = sum(c.order for c in bank)
        sig = compose_signals(STEPS, plant.n_x, plant.n_u, plant.n_d, seed=SEED,
                              amplitudes={"d": 0.5, "zeta": 0.05, "u_s1": 0.2, "beta_f": 0.02})
        rng = np.random.default_rng(SEED + 1)
        x_c, w_c = rng.uniform(-1, 1, plant.n_x), rng.uniform(-1, 1, n_w)
        dist = simulate_distributed(plant, bank, part, nb, sig, x_c, w_c)
        mono = simulate_monolithic(plant, bank, sig, x_c, w_c)
        batch = stack_scenarios([compose_signals(
            BATCH_STEPS, plant.n_x, plant.n_u, plant.n_d, seed=SEED + 2 + s,
            amplitudes={"d": 0.4, "zeta": 0.05, "u_s1": 0.2, "u_s2": 0.2, "beta_f": 0.02})
            for s in range(BATCH)])
        x_b, w_b = rng.uniform(-1, 1, (plant.n_x, BATCH)), rng.uniform(-1, 1, (n_w, BATCH))
        rows.append({
            "N": n_areas, "n_x": plant.n_x, "n_u": plant.n_u, "n_w": n_w,
            "dist_us_per_step": round(step_us(
                lambda: simulate_distributed(plant, bank, part, nb, sig, x_c, w_c)), 1),
            "mono_us_per_step": round(step_us(
                lambda: simulate_monolithic(plant, bank, sig, x_c, w_c)), 1),
            f"dist_batch{BATCH}_us_per_step": round(step_us(
                lambda: simulate_distributed(plant, bank, part, nb, batch, x_b, w_b),
                BATCH_STEPS), 1),
            f"mono_batch{BATCH}_us_per_step": round(step_us(
                lambda: simulate_monolithic(plant, bank, batch, x_b, w_b), BATCH_STEPS), 1),
            "max_abs_gap": float(max(np.max(np.abs(dist.x - mono.x)),
                                     np.max(np.abs(dist.u_f - mono.u_f)))),
        })
    print(json.dumps({"numpy": np.__version__, "calibration_us": calib, "results": rows}))


def spread(values, digits: int) -> tuple:
    """(median, interquartile range) of ``values``, rounded."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return round(statistics.median(values), digits), round(q3 - q1, digits)


def main(argv=None) -> int:
    args = parse_args(argv)
    runs = []
    for k in range(PROCESSES):
        child = subprocess.run([sys.executable, "-c", CHILD, str(Path(__file__).resolve().parent),
                                str(Path(args.src).resolve())],
                               check=True, capture_output=True, text=True)
        runs.append(json.loads(child.stdout.splitlines()[-1]))
        print(f"process {k + 1}/{PROCESSES}: calibration {runs[-1]['calibration_us']:.3f} us")
    rows = []
    for per_run in zip(*(r["results"] for r in runs)):
        row, iqr = dict(per_run[0]), {}
        for key in row:
            if key.endswith("_us_per_step"):
                row[key], iqr[key] = spread([r[key] for r in per_run], 1)
        row["max_abs_gap"] = max(r["max_abs_gap"] for r in per_run)
        row["iqr"] = iqr
        rows.append(row)
        print(row)
    calib, calib_iqr = spread([r["calibration_us"] for r in runs], 3)
    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc["description"] = (f"wall time per step of {STEPS}-step runs and of {BATCH_STEPS}-step "
                          f"runs of {BATCH} batched scenarios, one BLAS thread: the median over "
                          f"{REPEATS} repeats in each of {PROCESSES} fresh processes, stored as the "
                          "median across the processes with its interquartile range (records "
                          "without 'iqr' come from one process); scripts/bench_sim_step.py")
    doc.setdefault("records", {})[args.label] = {
        "python": platform.python_version(), "numpy": runs[0]["numpy"],
        "machine": platform.machine(), "nproc": os.cpu_count(), "processes": PROCESSES,
        "calibration_us": calib, "calibration_iqr_us": calib_iqr, "results": rows,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
