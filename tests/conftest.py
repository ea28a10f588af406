import os

import numpy as np
import pytest
from hypothesis import settings

from nrf_forge.closed_loop import block_indices, matching_slots, q_factor_responses, q_linear_response
from nrf_forge.dcf import build_dcf, design_gains
from nrf_forge.grid import GridCoefficients, build_grid_plant, grid_neighborhoods, grid_partition
from nrf_forge.lti import _lambda_max, negate, select_cols, select_rows
from nrf_forge.match_synth import AlgorithmConfig, _objective_value, _within_bounds, run_algorithm1
from nrf_forge.nrf import AreaController
from nrf_forge.partition import Neighborhoods, build_partition
from nrf_forge.plant import Plant

settings.register_profile("dev", max_examples=25, deadline=None)
settings.register_profile("ci", max_examples=100, deadline=None)
settings.load_profile(os.getenv("HYPOTHESIS_PROFILE", "dev"))


def random_stable_plant(rng, n=None, m=None, n_d=None, rho=0.6):
    """Random plant with spectral radius below one and full-rank inputs."""
    n = n if n is not None else int(rng.integers(2, 7))
    m = m if m is not None else int(rng.integers(1, min(n, 4) + 1))
    n_d = n_d if n_d is not None else int(rng.integers(1, 3))
    A = rng.standard_normal((n, n))
    A *= rho / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-6)
    B_u = rng.standard_normal((n, m))
    B_d = rng.standard_normal((n, n_d))
    return Plant(A, B_u, B_d)


def shift_nilpotent(n):
    N = np.zeros((n, n))
    N[:-1, 1:] = np.eye(n - 1)
    return N


def unequal_ring(n_areas, seed, static=False):
    """Plant, partition, ring neighbourhoods {i-1, i, i+1} and a random bank.

    Areas have unequal (n_xi, n_ui) and controller orders; area 1 is static
    (order 0), and ``static=True`` makes every area static.  Each area's
    B and D read only from its ring neighbourhood and have no command
    feedthrough.  All gains are small, so the closed loop is stable.
    """
    rng = np.random.default_rng(seed)
    x_sizes = [1 + i % 3 for i in range(n_areas)]
    u_sizes = [1 + (i % 4 == 2) for i in range(n_areas)]
    orders = [0 if static or i == 1 else 1 + (3 * i) % 4 for i in range(n_areas)]
    part = build_partition(list(zip(x_sizes, u_sizes)))
    nb = Neighborhoods(tuple(frozenset({(i - 1) % n_areas, i, (i + 1) % n_areas})
                             for i in range(n_areas)))
    plant = random_stable_plant(rng, sum(x_sizes), sum(u_sizes), 2, rho=0.5)
    plant = Plant(plant.A, plant.B_u / np.sqrt(plant.n_x), plant.B_d)
    owner = np.r_[np.repeat(np.arange(n_areas), u_sizes), np.repeat(np.arange(n_areas), x_sizes)]
    n_u = plant.n_u
    bank = []
    for i, (n_ui, n_wi) in enumerate(zip(u_sizes, orders)):
        reads = np.isin(owner, list(nb.of(i)))
        A = rng.standard_normal((n_wi, n_wi))
        A *= 0.5 / max(np.max(np.abs(np.linalg.eigvals(A)), initial=0.0), 1e-6)
        B = 0.1 * rng.standard_normal((n_wi, reads.size)) * reads
        D = 0.05 * rng.standard_normal((n_ui, reads.size)) * reads
        D[:, :n_u] = 0.0
        bank.append(AreaController(i, A, B, 0.1 * rng.standard_normal((n_ui, n_wi)), D,
                                   (n_wi,) + (0,) * (n_ui - 1), np.zeros(n_wi)))
    return plant, part, nb, bank


def bracket_every_point(diag, value_at, top=None, scale=None):
    """``lti._bracket`` without pruning: ``value_at`` at every point."""
    blocks, G = diag.shape[1:]
    vals = value_at(np.arange(blocks * G)).reshape(blocks, G)
    if top is None:
        return vals.max(axis=1), vals.argmax(axis=1)
    return np.argsort(vals, axis=1, kind="stable")[:, ::-1][:, :top]


def unprune(monkeypatch):
    """Swap every use of ``lti._bracket`` for :func:`bracket_every_point`."""
    from nrf_forge import dcf, lti, match_synth
    for module in (lti, dcf, match_synth):
        monkeypatch.setattr(module, "_bracket", bracket_every_point)


def structured_network(seed):
    """2-4 areas whose couplings enter only actuated states (each area's B_u
    is [0; I]), so that the block-diagonalising gains make A + B_u F and
    A + L exactly block-diagonal; a random coupling graph and random
    communication sets that contain it."""
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 5))
    x_sizes = [int(v) for v in rng.integers(1, 4, N)]
    u_sizes = [int(rng.integers(1, nx + 1)) for nx in x_sizes]
    part = build_partition(list(zip(x_sizes, u_sizes)))
    A, B_u = np.zeros((part.n_x, part.n_x)), np.zeros((part.n_x, part.n_u))
    coupled = rng.random((N, N)) < 0.5
    for i in range(N):
        xi, ui = part.indices("x", i), part.indices("u", i)
        A[np.ix_(xi, xi)] = rng.standard_normal((xi.size, xi.size))
        B_u[xi[-ui.size:], ui] = 1.0
        for j in np.flatnonzero(coupled[i]):
            if j != i:
                A[np.ix_(xi[-ui.size:], part.indices("x", j))] = rng.standard_normal((ui.size, x_sizes[j]))
    A *= 0.8 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-6)
    nb = Neighborhoods(tuple(frozenset({i} | {j for j in range(N) if coupled[i, j] or coupled[j, i]
                                             or rng.random() < 0.3}) for i in range(N)))
    return Plant(A, B_u, rng.standard_normal((part.n_x, 1))), part, nb


def refine_steps(monkeypatch) -> list:
    """The lockstep step counts of every peak refinement (``lti._brent_max``)
    from here on."""
    from nrf_forge import lti
    steps, real = [], lti._brent_max

    def counting(*args):
        out = real(*args)
        steps.append(out[1])
        return out

    monkeypatch.setattr(lti, "_brent_max", counting)
    return steps


def q_linear_responses(bundle, taps, zs):
    """``closed_loop.q_linear_response`` of each tap tensor in ``taps``, factors evaluated once."""
    factors = q_factor_responses(bundle, zs)
    return (q_linear_response(factors, t) for t in taps)


def block_reach(maps, part, resp):
    """Per slot of ``matching_slots``: the largest |entry| of one direction's
    Q-linear response ``resp`` (``q_linear_response``) in the slot's block
    of ``maps.loop``, over the largest |entry| of ``resp``.  The w_c columns
    read zero."""
    resp = np.concatenate([resp, np.zeros(resp.shape[:2] + (maps.n_w,))], axis=2)
    scale = np.max(np.abs(resp))
    return np.array([np.max(np.abs(resp[:, rows[:, None], cols]), initial=0.0) / scale
                     for rows, cols in (block_indices(maps, part, *slot)
                                        for slot in matching_slots(part.n_areas))])


def held_direction_objective(model):
    """The surrogate objective of ``model`` (a ``match_synth._SurrogateModel``)
    as a function of its active coefficients x, with the bounds of its
    :meth:`origin`, which this calls.  Every direction's stacks are formed
    once and held; at x each moving group's stack is base + sum_k x_k d_k,
    and each block's value is the peak over every grid point of
    sqrt(lambda_max) of its dense Gram, fixed columns included.  No
    bracketing and no Gram polynomial enter."""
    model.origin()
    held = [dict(model._moving_stacks(taps)) for taps in model.taps]

    def objective(x):
        gamma = np.zeros(model.support.size)
        for gi, g in enumerate(model.groups):
            B = g.base.copy()
            if g.gather is not None:
                for x_k, stacks in zip(x, held):
                    B += x_k * stacks[gi]
            gamma[g.slots] = np.sqrt(np.maximum(_lambda_max(model._gram0(g, B)).max(axis=-1), 0.0))
        return _objective_value(model.spec, gamma) if _within_bounds(model.bar, gamma) else np.inf

    return objective


def deadbeat_bundle(plant, F=None):
    """Bundle with zero (or given) feedback and a shift-nilpotent observer pencil."""
    F = F if F is not None else np.zeros((plant.n_u, plant.n_x))
    L = shift_nilpotent(plant.n_x) - plant.A
    F, L = design_gains(plant, None, "user_supplied", F=F, L=L)
    return build_dcf(plant, F, L)


def factor_block(bundle, name):
    """Where a coprime factor sits: (side, rows, cols, sign) with side
    "right" for R = [N Y; M X] (rows x, u; columns u, x) or "left" for
    Lt = [-Xt Yt; Mt -Nt] (rows u, x; columns x, u)."""
    n, m = bundle.n_x, bundle.n_u
    head_n, tail_n, head_m, tail_m = np.arange(n), m + np.arange(n), np.arange(m), n + np.arange(m)
    return {"N": ("right", head_n, head_m, 1), "Y": ("right", head_n, tail_n, 1),
            "M": ("right", tail_m, head_m, 1), "X": ("right", tail_m, tail_n, 1),
            "Xt": ("left", head_m, head_n, -1), "Yt": ("left", head_m, tail_m, 1),
            "Mt": ("left", tail_n, head_n, 1), "Nt": ("left", tail_n, tail_m, -1)}[name]


def factor(bundle, name):
    """One of the eight coprime factors, sliced from R or Lt."""
    side, rows, cols, sign = factor_block(bundle, name)
    block = select_cols(select_rows(getattr(bundle, side), rows), cols)
    return block if sign > 0 else negate(block)


FACTORS = ("N", "M", "X", "Y", "Nt", "Mt", "Xt", "Yt")


#: Bound slack of the designs below, by network.
DESIGN_SLACK = {"grid": 0.25, "ring": 0.0}


@pytest.fixture(scope="session")
def grid_setup():
    plant = build_grid_plant()
    return plant, grid_partition(), grid_neighborhoods()


@pytest.fixture(scope="session")
def grid_design(grid_setup):
    plant, part, nb = grid_setup
    result = run_algorithm1(plant, part, nb, config=AlgorithmConfig(bound_slack=DESIGN_SLACK["grid"]))
    assert not isinstance(result, tuple)
    return result


#: Eight-node ring swing network: per-node gains and damping, then the
#: coupling weights (i, i+1) and (i+1, i); all inside the ranges of the
#: benchmark's ring generator.
RING_H = (0.93, 1.07, 0.98, 1.02, 0.91, 1.09, 0.96, 1.04)
RING_DAMPING = (0.88, 1.01, 0.95, 0.86, 1.04, 0.92, 0.99, 0.90)
RING_COUPLING = ((0.42, 0.55), (0.61, 0.33), (0.37, 0.48), (0.52, 0.64),
                 (0.31, 0.45), (0.58, 0.39), (0.47, 0.62), (0.35, 0.51))


@pytest.fixture(scope="session")
def ring_setup():
    """The eight-node ring: plant, one area per node, and each node's
    communication set {i - 1, i, i + 1}."""
    n = len(RING_H)
    coupling = np.zeros((n, n))
    for i, (fwd, back) in enumerate(RING_COUPLING):
        coupling[i, (i + 1) % n], coupling[(i + 1) % n, i] = fwd, back
    plant = build_grid_plant(GridCoefficients(RING_H, RING_DAMPING, coupling))
    nb = Neighborhoods(tuple(frozenset({(i - 1) % n, i, (i + 1) % n}) for i in range(n)))
    return plant, build_partition([(2, 1)] * n), nb


@pytest.fixture(scope="session")
def ring_design(ring_setup):
    """The ring designed with no bound slack."""
    plant, part, nb = ring_setup
    return run_algorithm1(plant, part, nb, config=AlgorithmConfig(bound_slack=DESIGN_SLACK["ring"]))


@pytest.fixture(scope="session")
def two_area_plant():
    """Small strongly-structured plant for closed-loop unit tests."""
    rng = np.random.default_rng(7)
    A = np.array([
        [0.5, 0.1, 0.0, 0.05],
        [0.0, 0.4, 0.1, 0.0],
        [0.1, 0.0, 0.3, 0.1],
        [0.0, 0.05, 0.0, 0.45],
    ])
    B_u = np.array([[1.0, 0.0], [0.2, 0.1], [0.0, 1.0], [0.1, 0.3]])
    B_d = rng.standard_normal((4, 2)) * 0.5
    return Plant(A, B_u, B_d)
