"""Closed-loop responses computed apart from the program.

The loop of the plant and the stacked controller bank is

    x+  = A x + B_u (u_f + beta_u) + B_d d
    w+  = A_w w + B_wu (u_f + beta_f) + B_wx (x + beta_x)
    u_f = C_w w + D_x (x + beta_x)

(the bank has no feedthrough from the command columns).  Its z-transform is
a descriptor system in the unknowns (x, w, u_f).  At each point z of a grid
this module solves that system for every input column of the forced map,
inputs [beta_x; beta_u; beta_f; d], and of the initial-condition map,
inputs [x_c; w_c] (an initial state enters as z times the state), and keeps
the rows [x; u_f].  The loop solve reads only the exported plant and bank
documents, with ``json``; no module of the program is imported.
"""

from __future__ import annotations

import json
import os

import numpy as np

CHUNK = 512   # grid points per batched loop solve, to bound memory


def _matrix(doc: dict) -> np.ndarray:
    return np.asarray(doc["data"], dtype=float).reshape(int(doc["rows"]), int(doc["cols"]))


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_plant(run_dir: str) -> dict:
    doc = _load(os.path.join(run_dir, "plant.json"))
    return {k: _matrix(doc[k]) for k in ("A", "B_u", "B_d")}


def load_bank(run_dir: str, n_areas: int, n_u: int, n_x: int) -> list:
    """Per-area (A, B, C, D) of the exported bank, in area order."""
    bank = []
    width = n_u + n_x
    for i in range(n_areas):
        doc = _load(os.path.join(run_dir, "bank", f"area_{i + 1}.json"))
        n_w = sum(int(v) for v in doc["row_orders"])
        rows = len(doc["row_orders"])
        bank.append({
            "A": _matrix(doc["A"]).reshape(n_w, n_w) if n_w else np.zeros((0, 0)),
            "B": _matrix(doc["B"]).reshape(n_w, width) if n_w else np.zeros((0, width)),
            "C": _matrix(doc["C"]).reshape(rows, n_w),
            "D": _matrix(doc["D"]).reshape(rows, width),
        })
    return bank


def load_realization(path: str) -> dict:
    doc = _load(path)
    n, p, m = int(doc["order"]), int(doc["outputs"]), int(doc["inputs"])
    return {"A": _matrix(doc["A"]).reshape(n, n) if n else np.zeros((0, 0)),
            "B": _matrix(doc["B"]).reshape(n, m) if n else np.zeros((0, m)),
            "C": _matrix(doc["C"]).reshape(p, n) if n else np.zeros((p, 0)),
            "D": _matrix(doc["D"]).reshape(p, m)}


def stack_bank(bank: list) -> dict:
    """Block-diagonal state, stacked rows: the whole bank as one system."""
    n_w = sum(c["A"].shape[0] for c in bank)
    n_out = sum(c["C"].shape[0] for c in bank)
    width = bank[0]["B"].shape[1]
    A = np.zeros((n_w, n_w))
    B = np.zeros((n_w, width))
    C = np.zeros((n_out, n_w))
    D = np.zeros((n_out, width))
    s = r = 0
    for c in bank:
        k, p = c["A"].shape[0], c["C"].shape[0]
        A[s:s + k, s:s + k] = c["A"]
        B[s:s + k] = c["B"]
        C[r:r + p, s:s + k] = c["C"]
        D[r:r + p] = c["D"]
        s, r = s + k, r + p
    return {"A": A, "B": B, "C": C, "D": D}


def response(real: dict, zs: np.ndarray) -> np.ndarray:
    """C (zI - A)^{-1} B + D at each z; shape (len(zs), p, m)."""
    n = real["A"].shape[0]
    out = np.broadcast_to(real["D"].astype(complex), (zs.size,) + real["D"].shape).copy()
    if n:
        M = zs[:, None, None] * np.eye(n) - real["A"]
        X = np.linalg.solve(M, np.broadcast_to(real["B"].astype(complex), (zs.size,) + real["B"].shape))
        out += real["C"] @ X
    return out


def loop_responses(plant: dict, ctrl: dict, zs: np.ndarray):
    """(forced, initial) closed-loop responses on ``zs``.

    forced:  (G, n_x + n_u, n_x + 2 n_u + n_d), inputs [beta_x; beta_u; beta_f; d]
    initial: (G, n_x + n_u, n_x + n_w),         inputs [x_c; w_c]
    """
    A, B_u, B_d = plant["A"], plant["B_u"], plant["B_d"]
    n_x, n_u, n_d = A.shape[0], B_u.shape[1], B_d.shape[1]
    A_w, B_w, C_w, D_w = ctrl["A"], ctrl["B"], ctrl["C"], ctrl["D"]
    n_w = A_w.shape[0]
    if np.any(D_w[:, :n_u] != 0.0):
        raise ValueError("bank has feedthrough from the command columns")
    B_wu, B_wx, D_x = B_w[:, :n_u], B_w[:, n_u:], D_w[:, n_u:]
    n = n_x + n_w + n_u
    ix, iw, iu = slice(0, n_x), slice(n_x, n_x + n_w), slice(n_x + n_w, n)

    # constant part of the pencil: M(z) = z E - K
    E = np.zeros((n, n))
    E[ix, ix] = np.eye(n_x)
    E[iw, iw] = np.eye(n_w)
    K = np.zeros((n, n))
    K[ix, ix] = A
    K[ix, iu] = B_u
    K[iw, iw] = A_w
    K[iw, iu] = B_wu
    K[iw, ix] = B_wx
    K[iu, iw] = C_w
    K[iu, ix] = D_x
    K[iu, iu] = -np.eye(n_u)

    n_f = n_x + 2 * n_u + n_d
    R = np.zeros((n, n_f))              # forced right-hand sides
    R[iw, 0:n_x] = B_wx
    R[iu, 0:n_x] = D_x
    R[ix, n_x:n_x + n_u] = B_u
    R[iw, n_x + n_u:n_x + 2 * n_u] = B_wu
    R[ix, n_x + 2 * n_u:] = B_d
    rows = np.r_[np.arange(n_x), n_x + n_w + np.arange(n_u)]

    M = zs[:, None, None] * E - K
    rhs = np.concatenate([
        np.broadcast_to(R.astype(complex), (zs.size, n, n_f)),
        zs[:, None, None] * E[:, :n_x + n_w],   # z x_c and z w_c
    ], axis=2)
    sol = np.linalg.solve(M, rhs)[:, rows, :]
    return sol[:, :, :n_f], sol[:, :, n_f:]


def half_circle(intervals: int) -> np.ndarray:
    """Points e^{j theta}, theta = k pi / intervals, k = 0..intervals.

    Every map here is real-rational, so the half circle with both ends
    covers the whole circle's singular values.
    """
    return np.exp(1j * np.pi * np.arange(intervals + 1) / intervals)


def sigma_peak(resp: np.ndarray) -> float:
    """Largest singular value over a stack of (G, r, c) responses."""
    if resp.size == 0:
        return 0.0
    return float(np.max(np.linalg.svd(resp, compute_uv=False)[:, 0]))


def matching_peaks(plant: dict, ctrl: dict, x_sizes, u_sizes, w_sizes, intervals: int):
    """Grid peaks of the default decoupling blocks.

    gamma_d[i]:    area i rows, columns [beta_f; d], target 0
    gamma_u[i, j]: area i rows, area j's [beta_x; beta_u] columns,
                   target z^{-1} I on the diagonal and 0 off it
    gamma_c[i, j]: area i rows, area j's [x_c; w_c] columns, target 0
    """
    n_x, n_u, n_d = plant["A"].shape[0], plant["B_u"].shape[1], plant["B_d"].shape[1]
    N = len(x_sizes)
    xo, uo, wo = (np.concatenate([[0], np.cumsum(s)]).astype(int) for s in (x_sizes, u_sizes, w_sizes))

    def z_rows(i):
        return np.r_[xo[i]:xo[i + 1], n_x + np.arange(uo[i], uo[i + 1])]

    blocks = []
    for i in range(N):
        ri = z_rows(i)
        blocks.append(("d", i, 0, ri, np.arange(n_x + n_u, n_x + 2 * n_u + n_d)))
        for j in range(N):
            blocks.append(("u", i, j, ri, z_rows(j)))
            blocks.append(("c", i, j, ri, np.r_[xo[j]:xo[j + 1], n_x + np.arange(wo[j], wo[j + 1])]))
    gd, gu, gc = np.zeros(N), np.zeros((N, N)), np.zeros((N, N))
    zs_all = half_circle(intervals)
    for lo in range(0, zs_all.size, CHUNK):
        zs = zs_all[lo:lo + CHUNK]
        forced, initial = loop_responses(plant, ctrl, zs)
        for kind, i, j, r, c in blocks:
            src = initial if kind == "c" else forced
            blk = src[:, r[:, None], c[None, :]]
            if kind == "u" and i == j:
                blk = blk - (1.0 / zs)[:, None, None] * np.eye(r.size)
            peak = sigma_peak(blk)
            if kind == "d":
                gd[i] = max(gd[i], peak)
            elif kind == "u":
                gu[i, j] = max(gu[i, j], peak)
            else:
                gc[i, j] = max(gc[i, j], peak)
    return gd, gu, gc
