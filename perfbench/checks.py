"""Checks of a design run's outputs against computations made apart from it.

Each check returns (name, passed, detail).  None of them compares with a
stored copy of an earlier output: they test properties the method must have,
or agreement with ``oracle`` and with a loop simulated here.
"""

from __future__ import annotations

import csv
import os
import re

import numpy as np

import oracle

# default_targets weights: every disturbance and command block counts once,
# initial-condition blocks are bounded but unweighted
TAU_D, TAU_U, TAU_C = 1.0, 1.0, 0.0
BOUND_TOL = 1e-9          # the program's own admissible-bound tolerance
ORACLE_RTOL = 1e-4        # reported gamma may exceed the oracle's grid peak by this share
ORACLE_GRID = 4096        # intervals on the half circle
MAPS_RTOL = 1e-8          # exported maps against the oracle's loop solve
TRACE_ATOL = 1e-10        # distributed against monolithic
OWN_SIM_RTOL = 1e-9       # monolithic against the loop stepped here


def read_gamma_table(run_dir: str, n: int):
    """(achieved, bound) as flat arrays ordered d[i], u[i, j], c[i, j]."""
    with open(os.path.join(run_dir, "gamma_table.csv")) as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != n + 2 * n * n:
        raise ValueError(f"gamma table has {len(rows)} rows, expected {n + 2 * n * n}")
    return (np.array([float(r[1]) for r in rows]), np.array([float(r[2]) for r in rows]))


def read_report_number(run_dir: str, label: str) -> float:
    with open(os.path.join(run_dir, "synthesis_report.txt")) as fh:
        m = re.search(rf"^{re.escape(label)}:\s*(\S+)$", fh.read(), re.M)
    if m is None:
        raise ValueError(f"synthesis report has no {label!r} line")
    return float(m.group(1))


def weights(n: int) -> np.ndarray:
    return np.concatenate([np.full(n, TAU_D), np.full(n * n, TAU_U), np.full(n * n, TAU_C)])


def check_design(run_dir: str, x_sizes, u_sizes, nbhd, bound_slack: float) -> list:
    """Objective, bounds, oracle peaks, exported maps and bank sparsity."""
    n = len(x_sizes)
    out = []
    gamma, bound = read_gamma_table(run_dir, n)
    objective = read_report_number(run_dir, "objective (certified)")
    tau = weights(n)

    # the report prints 12 significant digits, the table 17
    weighted = float(tau @ gamma)
    out.append(("objective_is_weighted_sum", abs(objective - weighted) <= 1e-11 * abs(weighted),
                f"reported {objective!r}, sum tau*gamma {weighted!r}"))
    at_origin = float(tau @ bound) / (1.0 + bound_slack)
    out.append(("objective_not_above_origin", weighted <= at_origin * (1 + 1e-12),
                f"objective {weighted!r}, value at x=0 {at_origin!r}"))
    over = gamma - (bound + BOUND_TOL * (1.0 + bound))
    out.append(("gammas_within_bounds", bool(np.all(over <= 0)),
                f"worst excess {float(np.max(over)):.3e}"))

    plant = oracle.load_plant(run_dir)
    n_x, n_u = plant["A"].shape[0], plant["B_u"].shape[1]
    bank = oracle.load_bank(run_dir, n, n_u, n_x)
    ctrl = oracle.stack_bank(bank)
    w_sizes = [c["A"].shape[0] for c in bank]

    zs = oracle.half_circle(64)
    forced, initial = oracle.loop_responses(plant, ctrl, zs)
    gap = 0.0
    for name, mine in (("forced", forced), ("initial", initial)):
        theirs = oracle.response(oracle.load_realization(os.path.join(run_dir, "maps", f"{name}.json")), zs)
        gap = max(gap, float(np.max(np.abs(mine - theirs))) / max(1.0, float(np.max(np.abs(mine)))))
    out.append(("maps_match_loop_solve", gap <= MAPS_RTOL, f"relative gap {gap:.3e}"))

    gd, gu, gc = oracle.matching_peaks(plant, ctrl, x_sizes, u_sizes, w_sizes, ORACLE_GRID)
    peak = np.concatenate([gd, gu.ravel(), gc.ravel()])
    below = peak - gamma - BOUND_TOL * (1.0 + peak)
    out.append(("gammas_not_below_oracle", bool(np.all(below <= 0)),
                f"worst shortfall {float(np.max(below)):.3e}"))
    rel = (gamma - peak) / np.maximum(gamma, 1e-300)
    rel[gamma == 0] = 0.0
    excess = gamma - peak - ORACLE_RTOL * gamma - BOUND_TOL
    out.append(("gammas_near_oracle", bool(np.all(excess <= 0)),
                f"worst relative gap {float(np.max(rel)):.3e} (tolerance {ORACLE_RTOL:g})"))
    peak_over = peak - (bound + BOUND_TOL * (1.0 + bound))
    out.append(("oracle_peaks_within_bounds", bool(np.all(peak_over <= 0)),
                f"worst excess {float(np.max(peak_over)):.3e}"))
    out.append(("oracle_objective", float(tau @ peak) <= weighted * (1 + 1e-12),
                f"oracle {float(tau @ peak)!r}, certified {weighted!r}"))

    out.append(_bank_columns(bank, x_sizes, u_sizes, nbhd))
    return out


def _bank_columns(bank, x_sizes, u_sizes, nbhd):
    """No area's B or D reads a column of an area outside its communication set."""
    src = np.concatenate([np.repeat(np.arange(len(u_sizes)), u_sizes),
                          np.repeat(np.arange(len(x_sizes)), x_sizes)])
    bad = []
    for i, c in enumerate(bank):
        outside = ~np.isin(src, [j - 1 for j in nbhd[i]])
        used = np.any(c["B"][:, outside] != 0.0, axis=0) | np.any(c["D"][:, outside] != 0.0, axis=0)
        bad += [(i + 1, int(k) + 1) for k in np.flatnonzero(outside)[used]]
    return ("bank_within_comm_sets", not bad, f"columns read outside the set: {bad[:5]}")


def check_verify_report(run_dir: str, rc) -> tuple:
    with open(os.path.join(run_dir, "verify_report.txt")) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    passed = rc == 0 and bool(lines) and all(ln.startswith("PASS") for ln in lines)
    return ("verify_passes_every_record", passed, f"exit {rc}, {len(lines)} records")


def own_simulation(plant: dict, ctrl: dict, signals, x_c, w_c) -> tuple:
    """Step the loop equations here: (x, u_f) traces."""
    A, B_u, B_d = plant["A"], plant["B_u"], plant["B_d"]
    n_u = B_u.shape[1]
    A_w, B_w, C_w, D_w = ctrl["A"], ctrl["B"], ctrl["C"], ctrl["D"]
    bx, bu, bf, d = signals.beta_x, signals.beta_u, signals.beta_f_full, signals.d_full
    x, w = np.array(x_c, dtype=float), np.array(w_c, dtype=float)
    X = np.empty((signals.horizon, x.size))
    UF = np.empty((signals.horizon, n_u))
    for k in range(signals.horizon):
        X[k] = x
        meas = x + bx[k]
        uf = C_w @ w + D_w[:, n_u:] @ meas
        UF[k] = uf
        w = A_w @ w + B_w[:, :n_u] @ (uf + bf[k]) + B_w[:, n_u:] @ meas
        x = A @ x + B_u @ (uf + bu[k]) + B_d @ d[k]
    return X, UF


def check_traces(run_dir: str, n: int, mono, dist, signals, x_c, w_c) -> list:
    gap = max(float(np.max(np.abs(mono.x - dist.x))), float(np.max(np.abs(mono.u_f - dist.u_f))),
              float(np.max(np.abs(mono.w - dist.w))))
    plant = oracle.load_plant(run_dir)
    ctrl = oracle.stack_bank(oracle.load_bank(run_dir, n, plant["B_u"].shape[1], plant["A"].shape[0]))
    X, UF = own_simulation(plant, ctrl, signals, x_c, w_c)
    scale = max(1.0, float(np.max(np.abs(X))), float(np.max(np.abs(UF))))
    own = max(float(np.max(np.abs(X - mono.x))), float(np.max(np.abs(UF - mono.u_f)))) / scale
    return [("distributed_equals_monolithic", gap <= TRACE_ATOL, f"max abs gap {gap:.3e}"),
            ("monolithic_equals_own_loop", own <= OWN_SIM_RTOL, f"relative gap {own:.3e}")]
