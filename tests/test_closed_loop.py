import dataclasses
import re

import numpy as np
import pytest

from conftest import (block_reach, deadbeat_bundle, q_linear_responses, random_stable_plant, shift_nilpotent,
                      structured_network)
from nrf_forge import cli, closed_loop, lti, nrf
from nrf_forge.closed_loop import (
    area_block,
    block_support,
    build_closed_loop_maps,
    decompose_response,
    explicit_maps,
    matching_slots,
    moving_blocks,
    prediction_model,
    q_factor_responses,
    reconstructed_response,
    slot_name,
)
from nrf_forge.dcf import build_dcf, design_gains
from nrf_forge.errors import AlgebraicLoopError, DimensionMismatchError, UnboundedTfmError
from nrf_forge.lti import (
    SignalTrace,
    evaluate,
    fir_realization,
    frequency_response,
    half_circle,
    impulse_response,
    make_realization,
    select_rows,
    spectral_radius,
    star,
)
from nrf_forge.match_synth import MapsBuilder, _norms_from_maps, default_targets
from nrf_forge.nrf import AreaController, bank_from_pair, extract_row, form_nrf_pair
from nrf_forge.partition import Neighborhoods, build_partition
from nrf_forge.plant import Plant
from nrf_forge.sim_net import compose_signals, simulate_monolithic, stack_scenarios
from nrf_forge.sparse_param import (
    QParametrization,
    build_parametrization,
    pattern_from_neighborhoods,
    q_from_x,
)

ZS = half_circle(16)


def scalar_setup():
    """The one-state plant x+ = u + d with a deadbeat bundle, the pair at
    Q = 0 and its one-area bank."""
    plant = Plant([[0.0]], [[1.0]], [[1.0]])
    bundle = deadbeat_bundle(plant)
    pair = form_nrf_pair(bundle, fir_realization([np.zeros((1, 1))]))
    row = extract_row(pair.kd, 0)
    return plant, bundle, pair, [AreaController(0, row.A, row.B, row.C, row.D, (row.order,),
                                                np.zeros(row.order))]


def expressions(pair, bank, taps, zs=ZS):
    """F and I from the closed-loop expressions (closed_loop.explicit_maps),
    split at the loop's panel boundary."""
    bundle = pair.bundle
    loop = explicit_maps(bundle, taps, bank, zs)
    n_f = bundle.n_x + 2 * bundle.n_u + bundle.plant.n_d
    return loop[:, :, :n_f], loop[:, :, n_f:]


def expression_gap(maps, taps, zs=ZS):
    """Largest entry of the realized maps minus the expressions, over the
    expressions' largest entry."""
    got = (frequency_response(maps.forced, zs), frequency_response(maps.initial, zs))
    want = expressions(maps.pair, maps.bank, taps, zs)
    return max(float(np.max(np.abs(g - w)) / np.max(np.abs(w))) for g, w in zip(got, want))


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
    plant, bundle, pair, bank = scalar_setup()
    vals, _ = expressions(pair, bank, np.zeros((1, 1, 1)))
    assert vals.shape == (ZS.size, 2, 4)
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
    plant, bundle, pair, bank = scalar_setup()
    # the single-input loop has one constant (zero) controller row
    assert [c.order for c in bank] == [0]
    _, vals = expressions(pair, bank, np.zeros((1, 1, 1)))
    assert np.max(np.abs(vals[:, 0, 0] - 1.0)) <= 1e-12
    assert np.max(np.abs(vals[:, 1, 0])) <= 1e-12
    j1 = q_factor_responses(bundle, ZS)[5]   # J1 = z (zI - A_L)^{-1}
    assert np.max(np.abs(j1 - 1.0)) <= 1e-12


def test_iq_at_impulse_coefficients():
    plant = Plant(np.diag([0.1, 0.0, -0.1, 0.2]), np.eye(4)[:, [0, 2]], np.eye(4)[:, [1]])
    part, nb, bundle, q, bank, maps = two_area_design(plant, seed=1)
    iq = maps.initial
    h = impulse_response(iq, 4)
    assert np.allclose(h[0], iq.D)
    assert np.allclose(h[1], iq.C @ iq.B)
    assert np.allclose(h[3], iq.C @ iq.A @ iq.A @ iq.B)


def test_fully_deadbeat_ic_map_is_fir():
    # deadbeat feedback AND observer: every factor of the IC map is nilpotent,
    # and so is the loop that realizes it
    A = shift_nilpotent(4) * 0.8
    plant = Plant(A, np.eye(4)[:, [0, 2]], np.eye(4)[:, [1]])
    part = build_partition([(2, 1), (2, 1)])
    bundle = deadbeat_bundle(plant, F=np.zeros((2, 4)))
    taps = 0.1 * np.ones((1, 2, 4))
    pair = form_nrf_pair(bundle, fir_realization(taps))
    _, bank = bank_from_pair(pair, part)
    iq = build_closed_loop_maps(pair, bank, part).initial
    h = impulse_response(iq, iq.order + 7)
    assert np.max(np.abs(h[iq.order + 1:])) <= 1e-12
    assert np.max(np.abs(h[:iq.order])) >= 0.1
    # the expressions' initial map is that FIR polynomial
    zs = ZS[:6]
    fir = np.einsum("tij,gt->gij", h, zs[:, None] ** -np.arange(h.shape[0]))
    assert np.max(np.abs(expressions(pair, bank, taps, zs)[1] - fir)) <= 1e-12


def test_unstable_parameter_rejected():
    # two copies of the scalar loop, one area each; Q has a pole at 1.5
    plant = Plant(np.zeros((2, 2)), np.eye(2), np.ones((2, 1)))
    part = build_partition([(1, 1), (1, 1)])
    pair = form_nrf_pair(deadbeat_bundle(plant), make_realization(
        1.5 * np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2))))
    _, bank = bank_from_pair(pair, part)
    with pytest.raises(UnboundedTfmError, match="spectral radius"):
        build_closed_loop_maps(pair, bank, part)


def test_command_feedthrough_has_no_maps(two_area_plant):
    part, nb, bundle, q, bank, maps = two_area_design(two_area_plant, seed=2)
    D = bank[0].D.copy()
    D[0, 1] = 0.5   # area 1 reads area 2's command with no delay
    bank[0] = dataclasses.replace(bank[0], D=D)
    with pytest.raises(AlgebraicLoopError, match="feedthrough"):
        build_closed_loop_maps(maps.pair, bank, part)


def test_maps_build_makes_no_minimal_call(two_area_plant, monkeypatch):
    part, nb, bundle, q, bank, maps = two_area_design(two_area_plant, seed=3)

    def refuse(R):
        raise AssertionError("minimal called")

    for module in (lti, nrf, closed_loop):
        monkeypatch.setattr(module, "minimal", refuse)
    again = build_closed_loop_maps(maps.pair, bank, part)
    n = two_area_plant.n_x + sum(c.order for c in bank)
    assert again.forced.order == again.initial.order == n
    assert np.array_equal(again.forced.A, maps.forced.A) and np.array_equal(again.initial.C, maps.initial.C)


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
    plant = two_area_plant
    gd = frequency_response(make_realization(plant.A, plant.B_d, np.eye(plant.n_x), np.zeros((plant.n_x, plant.n_d))), zs)
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
    impulse = np.zeros((50, maps.initial.ninputs))
    impulse[0] = np.concatenate([x_c, w_c])
    free = star(select_rows(maps.initial, rows), SignalTrace(impulse))
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


# ---------------------------------------------------------------------------
# structural support of the matching blocks
# ---------------------------------------------------------------------------

def numeric_norms(bundle, param, part, x):
    """Every block's certified norm through the numeric path (no support)."""
    maps = MapsBuilder(bundle, part)(q_from_x(param, x))
    return _norms_from_maps(maps, default_targets(part, bundle.plant.n_d), part)


def test_loop_maps_equal_the_expressions_on_random_networks():
    """The maps realized as the loop equal the closed-loop expressions on
    the coprime factors, Q and the bank at a random x, on every feasible
    random network at q = 2 and 3.  The factor-algebra realizations these
    maps replaced, reduced by minimal(), were up to 6.5e-12 off here."""
    designs = 0
    for seed in range(16):
        plant, part, nb = structured_network(seed)
        F, L = design_gains(plant, part, "block_diagonalizing_F_deadbeat_L")
        bundle = build_dcf(plant, F, L)
        for q in (2, 3):
            param = build_parametrization(bundle, pattern_from_neighborhoods(part, nb), q)
            if not isinstance(param, QParametrization):
                continue
            designs += 1
            x = np.random.default_rng(seed).standard_normal(param.n_free)
            maps = MapsBuilder(bundle, part)(q_from_x(param, x))
            assert expression_gap(maps, param.taps_from_x(x), half_circle(64)) <= 1e-12, (seed, q)
    assert designs >= 16


def grouped_mesh(plant):
    """The mesh grouped into areas (6, 3), (2, 1), (2, 1), with complete
    communication: its partition, bundle and parametrization at q = 2."""
    part = build_partition([(6, 3), (2, 1), (2, 1)])
    F, L = design_gains(plant, part, "block_diagonalizing_F_deadbeat_L", None, None)
    bundle = build_dcf(plant, F, L)
    return part, bundle, build_parametrization(
        bundle, pattern_from_neighborhoods(part, Neighborhoods.complete(3)), 2)


def test_loop_maps_equal_the_expressions_on_the_grouped_mesh(grid_setup):
    """On the mesh grouped into areas (6, 3), (2, 1), (2, 1), whose deadbeat
    factors are large and cancel, the loop maps stay within 1e-9 of the
    expressions at a random x (the factor-algebra maps were 7.6e-7 off)."""
    plant = grid_setup[0]
    part, bundle, param = grouped_mesh(plant)
    x = 0.3 * np.random.default_rng(15).standard_normal(param.n_free)
    maps = MapsBuilder(bundle, part)(q_from_x(param, x))
    assert maps.forced.order == maps.initial.order == plant.n_x + maps.n_w
    assert expression_gap(maps, param.taps_from_x(x), half_circle(64)) <= 1e-9


def test_initial_panel_is_the_free_response_of_the_forced_map(grid_setup):
    """The initial panel's response to v delta_0 equals the forced panel's
    response to a zero input from the loop state v (what
    reconstructed_response and decompose_response step), within 1e-12 of
    its largest entry: on the structured networks of seeds 0-7 at q = 2 and 3
    and on the grouped mesh, each at a random x."""
    cases = []
    for seed in range(8):
        plant, part, nb = structured_network(seed)
        F, L = design_gains(plant, part, "block_diagonalizing_F_deadbeat_L")
        bundle = build_dcf(plant, F, L)
        for q in (2, 3):
            param = build_parametrization(bundle, pattern_from_neighborhoods(part, nb), q)
            if isinstance(param, QParametrization):
                cases.append((part, bundle, param))
    cases.append(grouped_mesh(grid_setup[0]))
    assert len(cases) >= 7
    for n, (part, bundle, param) in enumerate(cases):
        rng = np.random.default_rng(n)
        x = 0.3 * rng.standard_normal(param.n_free)
        maps = MapsBuilder(bundle, part)(q_from_x(param, x))
        v = rng.uniform(-1, 1, (maps.loop.order, 3))
        impulse = np.zeros((60, maps.initial.ninputs, 3))
        impulse[0] = v
        got = star(maps.initial, SignalTrace(impulse)).samples
        want = star(maps.forced, SignalTrace(np.zeros((60, maps.n_f, 3))), v).samples
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), n


@pytest.mark.parametrize("network", ["grid", "ring"])
def test_structural_zeros_read_zero_on_designs(request, network):
    res = request.getfixturevalue(f"{network}_design")
    part = request.getfixturevalue(f"{network}_setup")[1]
    bundle, param = res.pair.bundle, res.param
    zero = ~block_support(bundle, param, part)
    assert np.array_equal(zero, ~res.support)
    for x in (res.x, 0.3 * np.random.default_rng(5).standard_normal(param.n_free)):
        assert np.max(numeric_norms(bundle, param, part, x)[zero], initial=0.0) <= 1e-9


def test_structural_zeros_read_zero_on_random_networks():
    """On random 2-4-area networks, every block the support calls zero reads
    round-off through the numeric path at x = 0 and at a random x.  The maps'
    round-off grows with their size, so it is measured against their largest
    block.  Every block that :func:`closed_loop.moving_blocks` holds fixed
    reads round-off in every direction's Q-linear responses."""
    zeros = fixed = designs = 0
    for seed in range(16):
        plant, part, nb = structured_network(seed)
        F, L = design_gains(plant, part, "block_diagonalizing_F_deadbeat_L")
        bundle = build_dcf(plant, F, L)
        param = build_parametrization(bundle, pattern_from_neighborhoods(part, nb), 2 + seed % 2)
        if not isinstance(param, QParametrization):
            continue
        designs += 1
        zero = ~block_support(bundle, param, part)
        zeros += int(zero.sum())
        for x in (np.zeros(param.n_free), np.random.default_rng(seed).standard_normal(param.n_free)):
            vals = numeric_norms(bundle, param, part, x)
            assert np.max(vals[zero], initial=0.0) <= 1e-9 * max(1.0, np.max(vals))
        still = ~moving_blocks(bundle, param, part)
        fixed += int(np.sum(still & ~zero))
        maps = MapsBuilder(bundle, part)(q_from_x(param, np.zeros(param.n_free)))
        for resp in q_linear_responses(bundle, param.basis, half_circle(64)):
            assert np.max(block_reach(maps, part, resp)[still], initial=0.0) <= 1e-13
    assert designs >= 8 and zeros >= 20 and fixed >= 1


@pytest.mark.parametrize("q", [2, 3])
def test_moving_blocks_are_exact_on_a_chain(q):
    """Four one-state areas, area 3 driving area 2 and area 2 driving area 4;
    area 1 reads areas 2 and 4 but not 3.  Row 1 of P can move only its
    area-4 entry, yet Q Mt = P (I - A z^{-1}) carries it onto area 2's state
    through A: coupling block (1, 2) moves through P A alone.  Every block
    the rule moves reaches far above round-off along some direction, and
    every other block reads round-off along all of them."""
    A = np.diag([0.5, 0.4, 0.3, 0.6])
    A[1, 2], A[3, 1] = 0.5, 0.7
    plant = Plant(A, np.eye(4), np.random.default_rng(0).standard_normal((4, 1)))
    part = build_partition([(1, 1)] * 4)
    nb = Neighborhoods(tuple(map(frozenset, ({0, 1, 3}, {0, 1, 2, 3}, {1, 2}, {1, 2, 3}))))
    F, L = design_gains(plant, part, "block_diagonalizing_F_deadbeat_L")
    bundle = build_dcf(plant, F, L)
    param = build_parametrization(bundle, pattern_from_neighborhoods(part, nb), q)
    assert not param.free_p[0, 1] and param.free_p[0, 3]
    moving = moving_blocks(bundle, param, part)
    maps = MapsBuilder(bundle, part)(q_from_x(param, np.zeros(param.n_free)))
    reach = np.max([block_reach(maps, part, resp) for resp in
                    q_linear_responses(bundle, param.basis, half_circle(64))], axis=0)
    assert moving[matching_slots(4).index(("coupling", 0, 1))]
    assert np.min(reach[moving]) >= 1e-3 and np.max(reach[~moving]) <= 1e-13
    assert np.sum(moving) == 26 and np.sum(block_support(bundle, param, part) & ~moving) == 3


@pytest.mark.parametrize("q", [2, 3])
def test_moving_blocks_see_a_disturbance_through_p_bd(q):
    """Two areas of two states; each input acts on its area's second state,
    and the disturbance enters area 1's first.  Area 1 reads only itself,
    so row 1 of P can move only its entry on that unactuated state: P B_u
    has no entry from it, and area 1's disturbance block moves through
    Q (zI - A_L)^{-1} B_d = P B_d z^{-1} alone.  Every block the rule moves
    reaches far above round-off along some direction, and every other block
    reads round-off along all of them."""
    A = np.array([[0.5, 0.2, 0.0, 0.0],
                  [0.3, 0.4, 0.0, 0.0],
                  [0.0, 0.0, 0.6, 0.1],
                  [0.4, 0.2, 0.3, 0.5]])
    B_u = np.zeros((4, 2))
    B_u[1, 0] = B_u[3, 1] = 1.0
    plant = Plant(A, B_u, np.eye(4)[:, [0]])
    part = build_partition([(2, 1), (2, 1)])
    nb = Neighborhoods((frozenset({0}), frozenset({0, 1})))
    F, L = design_gains(plant, part, "block_diagonalizing_F_deadbeat_L")
    bundle = build_dcf(plant, F, L)
    param = build_parametrization(bundle, pattern_from_neighborhoods(part, nb), q)
    assert param.free_p[0].tolist() == [True, False, False, False]
    moving = moving_blocks(bundle, param, part)
    maps = MapsBuilder(bundle, part)(q_from_x(param, np.zeros(param.n_free)))
    reach = np.max([block_reach(maps, part, resp) for resp in
                    q_linear_responses(bundle, param.basis, half_circle(64))], axis=0)
    assert moving[matching_slots(2).index(("disturbance", 0, None))]
    assert np.min(reach[moving]) >= 1e-3 and np.max(reach[~moving]) <= 1e-13


def test_user_supplied_gains_give_the_all_true_support():
    # zero feedback leaves A + B_u F = A, whose random coupling reaches every area
    rng = np.random.default_rng(3)
    plant = random_stable_plant(rng, n=4, m=2, n_d=1)
    part = build_partition([(2, 1), (2, 1)])
    bundle = deadbeat_bundle(plant)
    param = build_parametrization(
        bundle, pattern_from_neighborhoods(part, Neighborhoods((frozenset({0}), frozenset({0, 1})))), 3)
    assert isinstance(param, QParametrization)
    assert np.all(block_support(bundle, param, part))


def test_ring_support_names_exactly_the_far_blocks(ring_setup, ring_design):
    part = ring_setup[1]
    N = part.n_areas
    support = block_support(ring_design.pair.bundle, ring_design.param, part)
    far = np.array([[min(abs(i - j), N - abs(i - j)) >= 3 for j in range(N)] for i in range(N)])
    assert far.sum() == 24
    # every disturbance block is nonzero; a coupling or init block is zero exactly when far
    assert np.array_equal(support, [j is None or not far[i, j] for _, i, j in matching_slots(N)])


def test_ring_report_counts_the_structural_zeros(ring_setup, ring_design, tmp_path):
    cli._write_synthesis_report(ring_design, str(tmp_path))
    report = (tmp_path / "synthesis_report.txt").read_text()
    assert "structurally zero blocks: 48 of 136\n" in report
    # ring distance 3 from area 1: areas 4 and 6 (1-based)
    assert "gamma_u[1,4]" not in report and "gamma_c[1,6]" not in report
    assert "gamma_u[1,2] at bound" in report
    rows = (tmp_path / "gamma_table.csv").read_text().splitlines()[1:]
    zero = ~ring_design.support
    assert all((row.split(",")[1] == "0") == z for row, z in zip(rows, zero))
    # at slack 0 and x = 0 every nonzero block is at its bound; the hints stay
    # grouped by area: gamma_d[i], then gamma_u[i,j] and gamma_c[i,j] for each j
    hints = [(int(i), int(j or 0), "duc".index(kind)) for kind, i, j in
             re.findall(r"  - gamma_(\w)\[(\d+)(?:,(\d+))?\] at bound", report)]
    assert len(hints) == 136 - 48 and hints == sorted(hints)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_slot_names_follow_the_gamma_table_rows(N):
    rows = ([f"gamma_d[{i + 1}]" for i in range(N)]
            + [f"gamma_u[{i + 1};{j + 1}]" for i in range(N) for j in range(N)]
            + [f"gamma_c[{i + 1};{j + 1}]" for i in range(N) for j in range(N)])
    assert [slot_name(slot, ";") for slot in matching_slots(N)] == rows
    assert [slot_name(slot) for slot in matching_slots(N)] == [r.replace(";", ",") for r in rows]
