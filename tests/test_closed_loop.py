import numpy as np
import pytest

from conftest import deadbeat_bundle, shift_nilpotent
from nrf_forge.closed_loop import (
    area_block,
    build_closed_loop_maps,
    build_fq,
    build_iq,
    decompose_response,
    ic_response,
    prediction_model,
    reconstructed_response,
)
from nrf_forge.errors import DimensionMismatchError, UnboundedTfmError
from nrf_forge.lti import (
    FrequencyGrid,
    SignalTrace,
    evaluate,
    fir_realization,
    frequency_response,
    impulse_response,
    make_realization,
    select_rows,
    spectral_radius,
    star,
)
from nrf_forge.nrf import bank_from_pair, form_nrf_pair
from nrf_forge.partition import Neighborhoods, build_partition
from nrf_forge.plant import Plant
from nrf_forge.sim_net import compose_signals, simulate_monolithic, stack_scenarios

ZS = FrequencyGrid.uniform(32).points


def scalar_setup():
    plant = Plant([[0.0]], [[1.0]], [[1.0]])
    bundle = deadbeat_bundle(plant)
    q = fir_realization([np.zeros((1, 1))])
    pair = form_nrf_pair(bundle, q)
    return plant, bundle, q, pair


def two_area_design(plant, seed=0, q_scale=0.05):
    rng = np.random.default_rng(seed)
    part = build_partition([(2, 1), (2, 1)])
    nb = Neighborhoods.complete(2)
    bundle = deadbeat_bundle(plant)
    q = fir_realization([q_scale * rng.standard_normal((2, 4)),
                         q_scale * rng.standard_normal((2, 4))])
    pair = form_nrf_pair(bundle, q)
    _, bank = bank_from_pair(pair, part)
    maps = build_closed_loop_maps(pair, bank, part)
    return part, nb, bundle, q, bank, maps


def test_scalar_forced_map_blocks():
    plant, bundle, q, pair = scalar_setup()
    fq = build_fq(pair)
    assert fq.shape == (2, 4)
    vals = frequency_response(fq, ZS)
    # state from beta_x: N Xq = 0; command from beta_u: M Yq - 1 = 0;
    # the feedforward column collapses because diag equals the whole matrix
    assert np.max(np.abs(vals[:, 0, 0])) <= 1e-12
    assert np.max(np.abs(vals[:, 1, 1])) <= 1e-12
    assert np.max(np.abs(vals[:, :, 2])) <= 1e-12
    # state responds to beta_u and d through the delay
    for k, z in enumerate(ZS):
        assert vals[k, 0, 1] == pytest.approx(1.0 / z, abs=1e-12)
        assert vals[k, 0, 3] == pytest.approx(1.0 / z, abs=1e-12)


def test_scalar_ic_map_upper_left_is_one():
    plant, bundle, q, pair = scalar_setup()
    # the single-input loop has one constant (zero) controller row
    from nrf_forge.nrf import AreaController, extract_row
    row = extract_row(pair.kd, 0)
    bank = [AreaController(0, row.A, row.B, row.C, row.D, (row.order,),
                           np.zeros(row.order))]
    iq, j1, j2 = build_iq(pair, bank)
    vals = frequency_response(iq, ZS)
    assert np.max(np.abs(vals[:, 0, 0] - 1.0)) <= 1e-12
    assert np.max(np.abs(vals[:, 1, 0])) <= 1e-12
    assert np.max(np.abs(frequency_response(j1, ZS) - 1.0)) <= 1e-12


def test_iq_at_impulse_coefficients():
    plant = Plant(np.diag([0.1, 0.0, -0.1, 0.2]), np.eye(4)[:, [0, 2]], np.eye(4)[:, [1]])
    part, nb, bundle, q, bank, maps = two_area_design(plant, seed=1)
    iq = maps.initial
    h = impulse_response(iq, 4)
    assert np.allclose(h[0], iq.D)
    assert np.allclose(h[1], iq.C @ iq.B)
    assert np.allclose(h[3], iq.C @ iq.A @ iq.A @ iq.B)


def test_fully_deadbeat_ic_map_is_fir():
    # deadbeat feedback AND observer: every factor of the IC map is nilpotent
    A = shift_nilpotent(4) * 0.8
    plant = Plant(A, np.eye(4)[:, [0, 2]], np.eye(4)[:, [1]])
    part = build_partition([(2, 1), (2, 1)])
    bundle = deadbeat_bundle(plant, F=np.zeros((2, 4)))
    q = fir_realization([0.1 * np.ones((2, 4))])
    pair = form_nrf_pair(bundle, q)
    _, bank = bank_from_pair(pair, part)
    iq, _, _ = build_iq(pair, bank)
    total_degree = iq.order + 1
    h = impulse_response(iq, total_degree + 6)
    assert np.max(np.abs(h[total_degree + 1])) <= 1e-12
    assert np.max(np.abs(h[total_degree + 5])) <= 1e-12


def test_unstable_parameter_rejected():
    plant, bundle, q, pair = scalar_setup()
    q_bad = make_realization([[1.5]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(UnboundedTfmError):
        build_fq(form_nrf_pair(bundle, q_bad))


def test_area_blocks_select_expected_submaps(two_area_plant):
    part, nb, bundle, q, bank, maps = two_area_design(two_area_plant, seed=2)
    zs = ZS[:8]
    full = frequency_response(maps.forced, zs)
    blk = area_block(maps, part, "coupling", 0, 1)
    direct = full[:, [0, 1, 4], :][:, :, [2, 3, 5]]
    got = frequency_response(blk, zs)
    assert np.max(np.abs(got - direct)) <= 1e-9
    dist = area_block(maps, part, "disturbance", 1)
    direct = full[:, [2, 3, 5], :][:, :, 6:]
    assert np.max(np.abs(frequency_response(dist, zs) - direct)) <= 1e-9
    init = area_block(maps, part, "init", 0, 0)
    w0 = maps.partition.size("w", 0)
    cols = list(range(2)) + [4 + k for k in range(w0)]
    direct = frequency_response(maps.initial, zs)[:, [0, 1, 4], :][:, :, cols]
    assert np.max(np.abs(frequency_response(init, zs) - direct)) <= 1e-9


def test_column_block_consistency_through_gd(two_area_plant):
    # the disturbance column equals (beta_x block + [I; O]) composed with G_d
    part, nb, bundle, q, bank, maps = two_area_design(two_area_plant, seed=3)
    zs = ZS[:12]
    full = frequency_response(maps.forced, zs)
    gd = frequency_response(maps.g_d, zs)
    n_x, n_u, n_d = maps.n_x, maps.n_u, maps.n_d
    beta_x_block = full[:, :, maps.column_block("beta_x")]
    d_block = full[:, :, maps.column_block("d")]
    embed = np.vstack([np.eye(n_x), np.zeros((n_u, n_x))])
    expected = (beta_x_block + embed) @ gd
    assert np.max(np.abs(d_block - expected)) <= 1e-9


def test_prediction_model_strictly_proper_and_consistent(two_area_plant):
    part, nb, bundle, q, bank, maps = two_area_design(two_area_plant, seed=4)
    for i in range(2):
        pm = prediction_model(maps, part, i)
        assert np.allclose(pm.initial_state(), 0.0)
        blk = area_block(maps, part, "coupling", i, i)
        rng = np.random.default_rng(5)
        u1 = SignalTrace(rng.standard_normal((40, 2)))
        u2 = SignalTrace(rng.standard_normal((40, 1)))
        got = pm.simulate(u1, u2)
        both = SignalTrace(np.hstack([u1.samples, u2.samples]))
        ref = star(blk, both)
        assert np.max(np.abs(got.samples - ref.samples)) <= 1e-9


def test_reconstruction_identity_random_network(two_area_plant):
    part, nb, bundle, q, bank, maps = two_area_design(two_area_plant, seed=6)
    rng = np.random.default_rng(7)
    sig = compose_signals(200, 4, 2, 2, seed=11,
                          amplitudes={"d": 0.5, "zeta": 0.1, "u_s1": 0.2,
                                      "u_s2": 0.2, "beta_f": 0.1})
    x_c = rng.uniform(-1, 1, 4)
    w_c = rng.uniform(-1, 1, maps.n_w)
    tr = simulate_monolithic(two_area_plant, list(bank), sig, x_c, w_c)
    rec = reconstructed_response(maps, sig.stacked_disturbance(), x_c, w_c)
    assert np.max(np.abs(tr.outputs().samples - rec.samples)) <= 1e-6


@pytest.mark.parametrize("network", ["two_area", "mesh"])
def test_batched_reconstruction_matches_per_scenario(request, two_area_plant, network):
    if network == "mesh":
        maps = request.getfixturevalue("grid_design").maps
    else:
        maps = two_area_design(two_area_plant, seed=6)[-1]
    rng = np.random.default_rng(13)
    singles = [compose_signals(90, maps.n_x, maps.n_u, maps.n_d, seed=s,
                               amplitudes={"d": 0.5, "zeta": 0.1, "u_s1": 0.2,
                                           "u_s2": 0.2, "beta_f": 0.1})
               for s in range(5)]
    x_c = rng.uniform(-1, 1, (maps.n_x, 5))
    w_c = rng.uniform(-1, 1, (maps.n_w, 5))
    batch = stack_scenarios(singles).stacked_disturbance()
    batched = reconstructed_response(maps, batch, x_c, w_c).samples
    assert batched.shape == (90, maps.n_x + maps.n_u, 5)
    for s, one in enumerate(singles):
        rec = reconstructed_response(maps, one.stacked_disturbance(), x_c[:, s], w_c[:, s])
        tol = 1e-12 * max(1.0, float(np.max(np.abs(rec.samples))))
        assert np.max(np.abs(batched[:, :, s] - rec.samples)) <= tol
    with pytest.raises(DimensionMismatchError):
        reconstructed_response(maps, batch, x_c[:, :4], w_c[:, :4])


def test_decompose_zero_inputs_gives_zero(two_area_plant):
    part, nb, bundle, q, bank, maps = two_area_design(two_area_plant, seed=8)
    sig = compose_signals(30, 4, 2, 2, seed=0)
    d_s = sig.stacked_disturbance()
    dec = decompose_response(maps, part, nb, 0, d_s, np.zeros(4), np.zeros(maps.n_w), {})
    assert np.max(np.abs(dec.psi.samples)) == 0.0
    assert np.max(np.abs(dec.theta.samples)) == 0.0
    assert np.max(np.abs(dec.delta.samples)) == 0.0


def test_decompose_initial_conditions_all_in_theta(two_area_plant):
    # with complete neighborhoods there is no residual IC channel
    part, nb, bundle, q, bank, maps = two_area_design(two_area_plant, seed=9)
    rng = np.random.default_rng(1)
    x_c = rng.uniform(-1, 1, 4)
    w_c = rng.uniform(-1, 1, maps.n_w)
    sig = compose_signals(50, 4, 2, 2, seed=0)
    d_s = sig.stacked_disturbance()
    dec = decompose_response(maps, part, nb, 0, d_s, x_c, w_c, {})
    assert np.max(np.abs(dec.delta.samples)) == 0.0
    rows = [0, 1, 4]
    free = ic_response(select_rows(maps.initial, rows),
                       np.concatenate([x_c, w_c]), 50)
    assert np.max(np.abs(dec.theta.samples - free.samples)) <= 1e-12


def test_decompose_reconstructs_simulation(two_area_plant):
    part, nb, bundle, q, bank, maps = two_area_design(two_area_plant, seed=10)
    rng = np.random.default_rng(2)
    horizon = 80
    sig = compose_signals(horizon, 4, 2, 2, seed=21,
                          amplitudes={"d": 0.4, "zeta": 0.05, "u_s1": 0.25,
                                      "u_s2": 0.2, "beta_s1": 0.02, "beta_f": 0.03})
    x_c = rng.uniform(-1, 1, 4)
    w_c = rng.uniform(-1, 1, maps.n_w)
    trace = simulate_monolithic(two_area_plant, list(bank), sig, x_c, w_c)
    exo = sig.exogenous_only().stacked_disturbance()
    u_s1 = sig.u_s1 if sig.u_s1 is not None else np.zeros((horizon, 4))
    u_s2 = sig.u_s2 if sig.u_s2 is not None else np.zeros((horizon, 2))
    for i in range(2):
        j = 1 - i
        others = {j: (SignalTrace(u_s1[:, part.indices("x", j)]),
                      SignalTrace(u_s2[:, part.indices("u", j)]))}
        dec = decompose_response(maps, part, nb, i, exo, x_c, w_c, others)
        pm = prediction_model(maps, part, i)
        own = pm.simulate(SignalTrace(u_s1[:, part.indices("x", i)]),
                          SignalTrace(u_s2[:, part.indices("u", i)]))
        total = own.samples + dec.psi.samples + dec.theta.samples + dec.delta.samples
        ref = np.hstack([trace.x[:, part.indices("x", i)],
                         trace.u_f[:, part.indices("u", i)]])
        assert np.max(np.abs(total - ref)) <= 1e-8


def test_maps_are_stable_and_proper(two_area_plant):
    part, nb, bundle, q, bank, maps = two_area_design(two_area_plant, seed=12)
    assert spectral_radius(maps.forced) < 1.0
    assert spectral_radius(maps.initial) < 1.0
    assert np.all(np.isfinite(evaluate(maps.forced, 1e6)))
    assert np.all(np.isfinite(evaluate(maps.initial, 1e6)))
