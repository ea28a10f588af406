#!/usr/bin/env python3
"""Effect of the admissible-bound slack on the decoupling search.

With zero slack, every matching norm is boxed at its bootstrap value and the
search can only move along directions that improve or hold every constraint
simultaneously (usually it cannot move at all).  Loosening the boxes, or
dropping them with an infinite slack, trades bootstrap guarantees for
decoupling progress.  This study prints the certified objective and the
worst cross-area coupling norm across slack settings.

    python3 scripts/bound_slack_study.py
"""

import numpy as np

from nrf_forge.closed_loop import matching_slots
from nrf_forge.grid import build_grid_plant, grid_neighborhoods, grid_partition
from nrf_forge.match_synth import AlgorithmConfig, run_algorithm1


def study() -> None:
    plant = build_grid_plant()
    part = grid_partition()
    nb = grid_neighborhoods()
    cross = np.array([kind == "coupling" and i != j for kind, i, j in matching_slots(part.n_areas)])
    print(f"{'slack':>8} {'|x|':>10} {'objective':>14} {'worst offdiag gamma_u':>22}")
    for slack in (0.0, 0.1, 0.25, 0.5, float("inf")):
        res = run_algorithm1(plant, part, nb,
                             config=AlgorithmConfig(bound_slack=slack))
        print(f"{slack:>8} {np.linalg.norm(res.x):>10.4f} {res.objective:>14.6f} "
              f"{float(np.max(res.gamma[cross])):>22.6f}")


if __name__ == "__main__":
    study()
