"""Scenario configs of the benchmark workloads.

``mesh5-search`` is the shipped five-node mesh that ``nrf-forge example-grid``
writes.  ``ring8-boxed`` is an N-node ring built here: two states (angle,
frequency) and one power-injection input per node, with the swing dynamics
of the mesh, built by ``nrf_forge.grid.build_grid_plant`` from coefficients
drawn and checked here, so that ``design`` sees only an explicit
``plant``/``partition``/``neighborhoods`` config.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

T_S = 0.2
OPTIMIZER_SEED = 12345     # the seed example-grid writes for the mesh
RING_NODES = 8
RING_SEED = 8              # fixed, so every run designs the same ring
RING_BOUND_SLACK = 0.0     # no slack: every search probe meets its bound


def ring_edges(n: int) -> tuple:
    """Undirected edges (i, i+1 mod n) of an n-node ring, 0-based."""
    if n < 3:
        raise ValueError("a ring needs at least three nodes")
    return tuple((i, (i + 1) % n) for i in range(n))


def ring_coefficients(n: int, seed: int) -> dict:
    """Per-node gains, damping and directed edge weights drawn from ``seed``.

    The ranges bracket the shipped mesh surrogate: h in [0.90, 1.10],
    damping in [0.85, 1.05], each directed coupling weight in [0.30, 0.65].
    """
    rng = np.random.default_rng(seed)
    coupling = np.zeros((n, n))
    for a, b in ring_edges(n):
        coupling[a, b] = rng.uniform(0.30, 0.65)
        coupling[b, a] = rng.uniform(0.30, 0.65)
    return {
        "h": rng.uniform(0.90, 1.10, n),
        "damping": rng.uniform(0.85, 1.05, n),
        "coupling": coupling,
        "t_s": T_S,
    }


def check_margins(coeffs) -> None:
    """Raise unless every node of a ``grid.GridCoefficients`` clears
    d_i > T_s * sum_q l_iq and its own 2x2 block has spectral radius below one."""
    from nrf_forge.grid import node_block

    for i in range(coeffs.n_nodes):
        load = coeffs.t_s * float(np.sum(coeffs.coupling[i]))
        if not coeffs.damping[i] > load:
            raise ValueError(f"node {i + 1}: damping {coeffs.damping[i]:.4g} <= T_s*sum(l) = {load:.4g}")
        rho = float(np.max(np.abs(np.linalg.eigvals(node_block(coeffs, i, i)))))
        if not rho < 1.0:
            raise ValueError(f"node {i + 1}: block spectral radius {rho:.6g} >= 1")


def swing_plant(edges, h, damping, coupling, t_s):
    """(A, B_u, B_d) of the swing network on ``edges``, built by
    ``grid.build_grid_plant`` once the edges and margins are checked.
    Weights off the edge set are refused.
    """
    from nrf_forge.grid import GridCoefficients, build_grid_plant

    coeffs = GridCoefficients(h, damping, coupling, t_s)
    allowed = np.eye(coeffs.n_nodes, dtype=bool)
    for a, b in edges:
        allowed[a, b] = allowed[b, a] = True
    if np.any(coeffs.coupling[~allowed] != 0.0):
        raise ValueError("coupling weight on a pair that is not an edge")
    check_margins(coeffs)
    plant = build_grid_plant(coeffs)
    return plant.A, plant.B_u, plant.B_d


def neighborhoods(n: int, edges) -> list:
    """1-based communication sets: each node plus its graph neighbours."""
    sets = [{i} for i in range(n)]
    for a, b in edges:
        sets[a].add(b)
        sets[b].add(a)
    return [sorted(j + 1 for j in s) for s in sets]


def ring_config(n: int, seed: int) -> dict:
    """Explicit-plant scenario document for an n-node ring."""
    edges = ring_edges(n)
    co = ring_coefficients(n, seed)
    A, B_u, B_d = swing_plant(edges, co["h"], co["damping"], co["coupling"], co["t_s"])
    return {
        "schema_version": 1,
        "plant": {"A": A.tolist(), "B_u": B_u.tolist(), "B_d": B_d.tolist()},
        "partition": [[2, 1]] * n,
        "neighborhoods": neighborhoods(n, edges),
        "synthesis": {"q": 2, "param_mode": "factored", "preserve_diagonal": True,
                      "norm": "hinf", "bound_slack": RING_BOUND_SLACK,
                      "optimizer": {"seed": OPTIMIZER_SEED}},
        "simulation": {"horizon": 500, "seed": 7,
                       "amplitudes": {"d": 0.5, "zeta": 0.05, "u_s1": 0.2,
                                      "u_s2": 0.2, "beta_f": 0.02}},
    }


def write_config(workload: str, out_dir: str) -> None:
    """Write ``config.json`` of a workload into ``out_dir``."""
    if workload == "mesh5-search":
        from nrf_forge.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["example-grid", "--out", out_dir])
        if rc != 0:
            raise RuntimeError(f"example-grid exited {rc}")
    elif workload == "ring8-boxed":
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.json"), "w") as fh:
            json.dump(ring_config(RING_NODES, RING_SEED), fh)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def scenario_seeds(workload: str) -> dict:
    seeds = {"optimizer": OPTIMIZER_SEED}
    if workload == "ring8-boxed":
        seeds["ring_generator"] = RING_SEED
    return seeds
