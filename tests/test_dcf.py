import dataclasses

import numpy as np
import pytest

from conftest import FACTORS, deadbeat_bundle, factor, factor_block, random_stable_plant, shift_nilpotent, unprune
from nrf_forge import lti
from nrf_forge.dcf import (
    BEZOUT_CHUNK,
    BEZOUT_GRID,
    build_dcf,
    design_gains,
    nilpotent_completion,
    verify_bezout,
)
from nrf_forge.errors import (
    NonStabilizingGainsError,
    UncontrollableModeError,
)
from nrf_forge.grid import build_grid_plant, grid_partition
from nrf_forge.lti import (
    evaluate,
    frequency_response,
    half_circle,
    impulse_response,
    inverse,
    make_realization,
    series,
)
from nrf_forge.partition import build_partition
from nrf_forge.plant import Plant


def test_scalar_trivial_bundle_exact():
    plant = Plant([[0.0]], [[1.0]], [[1.0]])
    b = build_dcf(plant, np.zeros((1, 1)), np.zeros((1, 1)))
    f = {name: factor(b, name) for name in FACTORS}
    for z in (2.0, -1.5, 0.7 + 0.7j):
        assert evaluate(f["M"], z)[0, 0] == pytest.approx(1.0)
        assert evaluate(f["Yt"], z)[0, 0] == pytest.approx(1.0)
        assert evaluate(f["Mt"], z)[0, 0] == pytest.approx(1.0)
        assert evaluate(f["Y"], z)[0, 0] == pytest.approx(1.0)
        assert evaluate(f["N"], z)[0, 0] == pytest.approx(1.0 / z)
        assert evaluate(f["Nt"], z)[0, 0] == pytest.approx(1.0 / z)
        assert abs(evaluate(f["X"], z)[0, 0]) == 0.0
        assert abs(evaluate(f["Xt"], z)[0, 0]) == 0.0
    assert b.bezout_residual <= 1e-15


def test_random_stabilizable_bundle_residual():
    rng = np.random.default_rng(21)
    plant = random_stable_plant(rng, n=6, m=2)
    b = deadbeat_bundle(plant)
    assert b.bezout_residual <= 1e-10
    assert b.is_deadbeat()


def test_factorization_reproduces_plant_on_grid():
    rng = np.random.default_rng(22)
    plant = random_stable_plant(rng, n=5, m=2)
    b = deadbeat_bundle(plant)
    zs = half_circle(16)
    gu = frequency_response(plant.g_u(), zs)
    right = frequency_response(series(factor(b, "N"), inverse(factor(b, "M"))), zs)
    left = frequency_response(series(inverse(factor(b, "Mt")), factor(b, "Nt")), zs)
    assert np.max(np.abs(gu - right)) <= 1e-9
    assert np.max(np.abs(gu - left)) <= 1e-9


def test_left_factors_fir_under_deadbeat_gain():
    # Lt = [-Xt Yt; Mt -Nt] has an impulse response of degree at most n_x
    rng = np.random.default_rng(23)
    plant = random_stable_plant(rng, n=6, m=2)
    b = deadbeat_bundle(plant)
    assert b.is_deadbeat()
    h = impulse_response(b.left, plant.n_x + 4)
    assert np.max(np.abs(h[plant.n_x + 1:])) <= 1e-12 * np.max(np.abs(h))


def perturbed_left(b, dD):
    """The bundle with dD added to Xt(inf)[0, 0], that is to -Lt.D[0, 0]."""
    D = b.left.D.copy()
    D[0, 0] -= dD
    return dataclasses.replace(b, left=make_realization(b.left.A, b.left.B, b.left.C, D),
                               bezout_residual=np.inf)


def test_perturbed_complement_breaks_bezout():
    rng = np.random.default_rng(24)
    plant = random_stable_plant(rng, n=4, m=2)
    bad = perturbed_left(deadbeat_bundle(plant), 0.01)
    assert verify_bezout(bad) >= 0.009


def bezout_every_point(bundle, zs):
    """sigma_max of the Bezout residual, with an SVD at every point of zs."""
    prod = (frequency_response(bundle.left, zs) @ frequency_response(bundle.right, zs)
            - np.eye(bundle.n_u + bundle.n_x))
    return float(np.max(np.linalg.svd(prod, compute_uv=False)[:, 0]))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("perturb", [0.0, 0.01])
def test_verify_bezout_equals_every_point(seed, perturb, monkeypatch):
    rng = np.random.default_rng(60 + seed)
    plant = random_stable_plant(rng, n=int(rng.integers(2, 7)), m=int(rng.integers(1, 3)))
    bundle = perturbed_left(deadbeat_bundle(plant), perturb)
    got = verify_bezout(bundle)
    assert got == bezout_every_point(bundle, BEZOUT_GRID)
    unprune(monkeypatch)
    assert got == verify_bezout(bundle)


def _bundle_of(request, network):
    """The factor bundle of the mesh, the ring, or the mesh grouped into
    areas (6, 3), (2, 1), (2, 1)."""
    if network == "mesh":
        return request.getfixturevalue("grid_design").pair.bundle
    if network == "ring":
        return request.getfixturevalue("ring_design").pair.bundle
    plant = request.getfixturevalue("grid_setup")[0]
    F, L = design_gains(plant, build_partition([(6, 3), (2, 1), (2, 1)]))
    return build_dcf(plant, F, L)


def _factor_realizations(bundle):
    """The eight factors realized one by one from the module docstring's formulas."""
    A, B, F, L = bundle.plant.A, bundle.plant.B_u, bundle.F, bundle.L
    n, m = bundle.n_x, bundle.n_u
    A_F, A_L, I_n, I_m = A + B @ F, A + L, np.eye(n), np.eye(m)
    return {"N": make_realization(A_F, B, I_n, np.zeros((n, m))),
            "M": make_realization(A_F, B, F, I_m),
            "X": make_realization(A_F, L, -F, np.zeros((m, n))),
            "Y": make_realization(A_F, L, -I_n, I_n),
            "Nt": make_realization(A_L, B, I_n, np.zeros((n, m))),
            "Mt": make_realization(A_L, L, I_n, I_n),
            "Xt": make_realization(A_L, L, -F, np.zeros((m, n))),
            "Yt": make_realization(A_L, B, -F, I_m)}


def _counting_resolvent(monkeypatch):
    calls = []
    real = lti._resolvent

    def counted(A, B, zs):
        calls.append(A)
        return real(A, B, zs)
    monkeypatch.setattr(lti, "_resolvent", counted)
    return calls


@pytest.mark.parametrize("network", ["mesh", "ring", "grouped"])
def test_shared_solves_equal_per_factor_responses(request, monkeypatch, network):
    # the blocks of one response of R and one of Lt are, bit for bit, the
    # responses of the eight factors realized one by one
    bundle = _bundle_of(request, network)
    zs = BEZOUT_GRID[:BEZOUT_CHUNK]
    resp = {side: frequency_response(getattr(bundle, side), zs) for side in ("right", "left")}
    for name, fac in _factor_realizations(bundle).items():
        side, rows, cols, sign = factor_block(bundle, name)
        assert np.array_equal(sign * resp[side][:, rows][:, :, cols], frequency_response(fac, zs)), name
    # the residual takes one solve of each factor per point: one per chunk,
    # and one more at the points the bracket keeps
    calls = _counting_resolvent(monkeypatch)
    assert verify_bezout(bundle) == bundle.bezout_residual <= 1e-8
    assert len(calls) == 2 * (BEZOUT_GRID.size // BEZOUT_CHUNK + 1)
    assert sum(A is bundle.left.A for A in calls) == len(calls) // 2


@pytest.mark.parametrize("network", ["mesh", "ring", "grouped"])
def test_half_circle_bezout_equals_full_circle(request, network):
    # the conjugate points the half circle leaves out move the residual by round-off only
    bundle = _bundle_of(request, network)
    full = np.exp(2j * np.pi * (np.arange(512) + 0.5) / 512)
    assert abs(verify_bezout(bundle) - bezout_every_point(bundle, full)) <= 1e-13


def test_design_gains_scalar_trivial():
    plant = Plant([[0.0]], [[1.0]], [[1.0]])
    F, L = design_gains(plant, None, "user_supplied",
                        F=np.zeros((1, 1)), L=np.zeros((1, 1)))
    assert np.allclose(F, 0.0) and np.allclose(L, 0.0)


def test_design_gains_grid_deadbeat_block():
    plant = build_grid_plant()
    F, L = design_gains(plant, grid_partition())
    A_L = plant.A + L
    # per-node deadbeat block keeps the angle row and inverts the frequency row
    assert np.allclose(A_L[0:2, 0:2], [[1.0, 0.2], [-5.0, -1.0]])
    assert np.max(np.abs(np.linalg.eigvals(A_L))) <= 1e-6
    assert np.max(np.abs(np.linalg.eigvals(plant.A + plant.B_u @ F))) < 1.0


def test_design_gains_zero_feedback_accepted_for_stable_plant():
    rng = np.random.default_rng(25)
    plant = random_stable_plant(rng, n=4, m=4)
    F, L = design_gains(plant, None, "user_supplied",
                        F=np.zeros((4, 4)), L=shift_nilpotent(4) - plant.A)
    assert np.allclose(F, 0.0)


def test_design_gains_uncontrollable_unstable_mode():
    plant = Plant(np.diag([2.0, 0.5]), [[0.0], [1.0]], [[1.0], [0.0]])
    with pytest.raises(UncontrollableModeError):
        design_gains(plant, None, "user_supplied",
                     F=np.zeros((1, 2)), L=-np.diag([2.0, 0.5]))


def test_design_gains_nonstabilizing_heuristic_reports():
    # strong cross-coupling with rank-deficient projection defeats the
    # block-diagonalizing feedback; the failure must be reported, not returned
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 6)) * 0.4
    B = rng.standard_normal((6, 2))
    plant = Plant(A, B, rng.standard_normal((6, 1)))
    with pytest.raises(NonStabilizingGainsError):
        design_gains(plant, build_partition([(3, 1), (3, 1)]))


def test_build_dcf_rejects_unstable_gains():
    plant = Plant([[1.5]], [[1.0]], [[1.0]])
    with pytest.raises(NonStabilizingGainsError):
        build_dcf(plant, np.zeros((1, 1)), np.zeros((1, 1)))


def test_nilpotent_completion_general_sizes():
    # eigenvalues of a perturbed nilpotent scale like eps**(1/n), so the
    # meaningful certificate is the norm of the n-th power
    rng = np.random.default_rng(27)
    for n in (1, 2, 3, 5):
        blk = rng.standard_normal((n, n))
        N = nilpotent_completion(blk)
        scale = max(1.0, np.linalg.norm(N, 2)) ** n
        assert np.linalg.norm(np.linalg.matrix_power(N, n), 2) <= 1e-9 * scale
        if n > 1:
            assert np.allclose(N[:-1, :], blk[:-1, :])


def test_expanded_bezout_identities_on_grid():
    rng = np.random.default_rng(28)
    plant = random_stable_plant(rng, n=5, m=2)
    b = deadbeat_bundle(plant)
    zs = half_circle(32)
    vals = {name: frequency_response(factor(b, name), zs) for name in FACTORS}
    I_m, I_n = np.eye(plant.n_u), np.eye(plant.n_x)
    assert np.max(np.abs(vals["Yt"] @ vals["M"] - vals["Xt"] @ vals["N"] - I_m)) <= 1e-8
    assert np.max(np.abs(vals["Yt"] @ vals["X"] - vals["Xt"] @ vals["Y"])) <= 1e-8
    assert np.max(np.abs(vals["Mt"] @ vals["N"] - vals["Nt"] @ vals["M"])) <= 1e-8
    assert np.max(np.abs(vals["Mt"] @ vals["Y"] - vals["Nt"] @ vals["X"] - I_n)) <= 1e-8


def test_user_gains_factors_match_docstring_formulas():
    # non-deadbeat gains: Lt R = I, and every block of R and Lt is the
    # docstring's formula for its factor
    rng = np.random.default_rng(29)
    plant = random_stable_plant(rng, n=5, m=2)
    F = 0.05 * rng.standard_normal((2, 5))
    L = np.diag([0.3, -0.2, 0.1, 0.25, -0.4]) - plant.A
    F, L = design_gains(plant, None, "user_supplied", F=F, L=L)
    b = build_dcf(plant, F, L)
    assert not b.is_deadbeat()
    zs = half_circle(32)
    prod = frequency_response(b.left, zs) @ frequency_response(b.right, zs)
    assert np.max(np.abs(prod - np.eye(plant.n_u + plant.n_x))) <= 1e-12
    for name, fac in _factor_realizations(b).items():
        assert np.max(np.abs(frequency_response(factor(b, name), zs)
                             - frequency_response(fac, zs))) <= 1e-13, name
