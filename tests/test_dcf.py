import numpy as np
import pytest

from conftest import deadbeat_bundle, random_stable_plant, shift_nilpotent, unprune
from nrf_forge import dcf, lti
from nrf_forge.dcf import (
    DcfBundle,
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
    FrequencyGrid,
    evaluate,
    frequency_response,
    inverse,
    make_realization,
    series,
)
from nrf_forge.partition import build_partition
from nrf_forge.plant import Plant


def test_scalar_trivial_bundle_exact():
    plant = Plant([[0.0]], [[1.0]], [[1.0]])
    b = build_dcf(plant, np.zeros((1, 1)), np.zeros((1, 1)))
    for z in (2.0, -1.5, 0.7 + 0.7j):
        assert evaluate(b.M, z)[0, 0] == pytest.approx(1.0)
        assert evaluate(b.Yt, z)[0, 0] == pytest.approx(1.0)
        assert evaluate(b.Mt, z)[0, 0] == pytest.approx(1.0)
        assert evaluate(b.Y, z)[0, 0] == pytest.approx(1.0)
        assert evaluate(b.N, z)[0, 0] == pytest.approx(1.0 / z)
        assert evaluate(b.Nt, z)[0, 0] == pytest.approx(1.0 / z)
        assert abs(evaluate(b.X, z)[0, 0]) == 0.0
        assert abs(evaluate(b.Xt, z)[0, 0]) == 0.0
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
    zs = FrequencyGrid.uniform(32).points
    gu = frequency_response(plant.g_u(), zs)
    right = frequency_response(series(b.N, inverse(b.M)), zs)
    left = frequency_response(series(inverse(b.Mt), b.Nt), zs)
    assert np.max(np.abs(gu - right)) <= 1e-9
    assert np.max(np.abs(gu - left)) <= 1e-9


def test_left_factors_fir_under_deadbeat_gain():
    rng = np.random.default_rng(23)
    plant = random_stable_plant(rng, n=6, m=2)
    b = deadbeat_bundle(plant)
    assert b.fir_orders is not None
    for name in ("Nt", "Mt", "Xt", "Yt"):
        assert b.fir_orders[name] is not None
        assert b.fir_orders[name] <= plant.n_x


def test_perturbed_complement_breaks_bezout():
    rng = np.random.default_rng(24)
    plant = random_stable_plant(rng, n=4, m=2)
    b = deadbeat_bundle(plant)
    D_bad = b.Xt.D.copy()
    D_bad[0, 0] += 0.01
    xt_bad = make_realization(b.Xt.A, b.Xt.B, b.Xt.C, D_bad)
    bad = DcfBundle(b.N, b.M, b.X, b.Y, b.Nt, b.Mt, xt_bad, b.Yt, b.F, b.L,
                    plant, np.inf, 512)
    assert verify_bezout(bad, FrequencyGrid.uniform(512)) >= 0.009


def bezout_every_point(bundle, grid):
    """sigma_max of the Bezout residual, with an SVD at every grid point."""
    m, vals = bundle.n_u, {k: frequency_response(f, grid.points) for k, f in bundle.factors().items()}
    left = np.block([[vals["Yt"], -vals["Xt"]], [-vals["Nt"], vals["Mt"]]])
    right = np.block([[vals["M"], vals["X"]], [vals["N"], vals["Y"]]])
    prod = left @ right - np.eye(m + bundle.n_x)
    return float(np.max(np.linalg.svd(prod, compute_uv=False)[:, 0]))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("perturb", [0.0, 0.01])
def test_verify_bezout_equals_every_point(seed, perturb, monkeypatch):
    rng = np.random.default_rng(60 + seed)
    plant = random_stable_plant(rng, n=int(rng.integers(2, 7)), m=int(rng.integers(1, 3)))
    b = deadbeat_bundle(plant)
    D_bad = b.Xt.D.copy()
    D_bad[0, 0] += perturb
    xt = make_realization(b.Xt.A, b.Xt.B, b.Xt.C, D_bad)
    bundle = DcfBundle(b.N, b.M, b.X, b.Y, b.Nt, b.Mt, xt, b.Yt, b.F, b.L, plant, np.inf, 512)
    grid = FrequencyGrid.uniform(200)
    got = verify_bezout(bundle, grid)
    assert got == bezout_every_point(bundle, grid)
    unprune(monkeypatch)
    assert got == verify_bezout(bundle, grid)


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


def _counting_resolvent(monkeypatch):
    calls = []

    def counted(A, B, zs):
        calls.append((A, B))
        return lti._resolvent(A, B, zs)
    monkeypatch.setattr(dcf, "_resolvent", counted)
    return calls


@pytest.mark.parametrize("network", ["mesh", "ring", "grouped"])
def test_shared_solves_equal_per_factor_responses(request, monkeypatch, network):
    bundle = _bundle_of(request, network)
    calls = _counting_resolvent(monkeypatch)
    zs = FrequencyGrid.uniform(512).points
    vals = dcf._factor_values(bundle, zs[:dcf.BEZOUT_CHUNK])
    assert len(calls) == 4
    for name, fac in bundle.factors().items():
        assert np.array_equal(vals[name], frequency_response(fac, zs[:dcf.BEZOUT_CHUNK])), name
    assert verify_bezout(bundle, FrequencyGrid.uniform(512)) == bundle.bezout_residual <= 1e-8


def test_perturbed_input_matrix_gets_its_own_solve(request, monkeypatch):
    b = _bundle_of(request, "grouped")
    B_bad = b.Xt.B.copy()
    B_bad[0, 0] += 1e-3
    xt = make_realization(b.Xt.A, B_bad, b.Xt.C, b.Xt.D)
    bad = DcfBundle(b.N, b.M, b.X, b.Y, b.Nt, b.Mt, xt, b.Yt, b.F, b.L, b.plant, np.inf, 512)
    calls = _counting_resolvent(monkeypatch)
    zs = FrequencyGrid.uniform(512).points[:dcf.BEZOUT_CHUNK]
    vals = dcf._factor_values(bad, zs)
    assert len(calls) == 5
    assert np.array_equal(vals["Xt"], frequency_response(xt, zs))
    assert np.array_equal(vals["Mt"], frequency_response(b.Mt, zs))
    assert verify_bezout(bad, FrequencyGrid.uniform(512)) > 1e-6


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
    zs = FrequencyGrid.uniform(64).points
    vals = {k: frequency_response(v, zs) for k, v in b.factors().items()}
    I_m, I_n = np.eye(plant.n_u), np.eye(plant.n_x)
    assert np.max(np.abs(vals["Yt"] @ vals["M"] - vals["Xt"] @ vals["N"] - I_m)) <= 1e-8
    assert np.max(np.abs(vals["Yt"] @ vals["X"] - vals["Xt"] @ vals["Y"])) <= 1e-8
    assert np.max(np.abs(vals["Mt"] @ vals["N"] - vals["Nt"] @ vals["M"])) <= 1e-8
    assert np.max(np.abs(vals["Mt"] @ vals["Y"] - vals["Nt"] @ vals["X"] - I_n)) <= 1e-8
