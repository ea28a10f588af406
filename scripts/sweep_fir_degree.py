#!/usr/bin/env python3
"""Feasible-set growth and matching quality as the FIR degree rises.

Raising the free parameter's FIR degree q enlarges the constrained family
monotonically; this sweep records, per q, the number of free directions, the
certified objective after the search, and the summed cross-area coupling
norms.  Useful when a design report shows constraints stuck at their bounds
and one suspects the truncation level.

    python3 scripts/sweep_fir_degree.py [--qmax N] [--slack S]
"""

import argparse

import numpy as np

from nrf_forge.closed_loop import matching_slots
from nrf_forge.grid import build_grid_plant, grid_neighborhoods, grid_partition
from nrf_forge.match_synth import AlgorithmConfig, run_algorithm1


def sweep(q_max: int, slack: float) -> None:
    plant = build_grid_plant()
    part = grid_partition()
    nb = grid_neighborhoods()
    cross = np.array([kind == "coupling" and i != j for kind, i, j in matching_slots(part.n_areas)])
    print(f"{'q':>3} {'free dims':>10} {'objective':>14} {'sum offdiag gamma_u':>20}")
    for q in range(2, q_max + 1):
        res = run_algorithm1(plant, part, nb,
                             config=AlgorithmConfig(q=q, bound_slack=slack))
        offdiag = float(np.sum(res.gamma[cross]))
        print(f"{q:>3} {res.param.n_free:>10} {res.objective:>14.6f} {offdiag:>20.6f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--qmax", type=int, default=5)
    parser.add_argument("--slack", type=float, default=0.25)
    args = parser.parse_args()
    sweep(args.qmax, args.slack)
