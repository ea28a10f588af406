"""Distributed controller synthesis toolkit.

Builds network realisation function (NRF) controllers from a networked plant
description through a doubly coprime factorization, verifies the resulting
closed-loop maps, solves the area-decoupling model-matching problem and
simulates the distributed implementation against the monolithic loop.
"""

from .lti import (
    Realization,
    SignalTrace,
    half_circle,
    make_realization,
    minimal,
    hinf_norm,
    spectral_radius,
    star,
)
from .partition import AreaPartition, Neighborhoods, build_partition
from .plant import Plant
from .dcf import DcfBundle, build_dcf, design_gains, verify_bezout
from .nrf import AreaController, ControllerRow, NrfPair, form_nrf_pair, extract_row, stack_area
from .sparse_param import QParametrization, SparsityPattern, pattern_from_neighborhoods
from .closed_loop import ClosedLoopMaps, PredictionModel, build_closed_loop_maps
from .sim_net import ScenarioSignals, LoopTrace, simulate_monolithic, simulate_distributed
from .match_synth import (
    AlgorithmConfig,
    AlgorithmReport,
    SynthesisResult,
    SynthesisSpec,
    default_targets,
    run_algorithm1,
)

__all__ = [
    "AlgorithmConfig",
    "AlgorithmReport",
    "AreaController",
    "AreaPartition",
    "ClosedLoopMaps",
    "ControllerRow",
    "DcfBundle",
    "LoopTrace",
    "Neighborhoods",
    "NrfPair",
    "Plant",
    "PredictionModel",
    "QParametrization",
    "Realization",
    "ScenarioSignals",
    "SignalTrace",
    "SparsityPattern",
    "SynthesisResult",
    "SynthesisSpec",
    "build_closed_loop_maps",
    "build_dcf",
    "build_partition",
    "default_targets",
    "design_gains",
    "extract_row",
    "form_nrf_pair",
    "half_circle",
    "hinf_norm",
    "make_realization",
    "minimal",
    "pattern_from_neighborhoods",
    "run_algorithm1",
    "simulate_distributed",
    "simulate_monolithic",
    "spectral_radius",
    "stack_area",
    "star",
    "verify_bezout",
]

__version__ = "0.1.0"
