import dataclasses

import numpy as np

from nrf_forge.closed_loop import build_closed_loop_maps, kd_responses
from nrf_forge.lti import frequency_response, half_circle
from nrf_forge.nrf import form_nrf_pair
from nrf_forge.sparse_param import q_from_x
from nrf_forge.verify import run_invariant_suite


def test_pointwise_kd_matches_realized_pair(grid_design):
    param = grid_design.param
    bundle = grid_design.maps.pair.bundle
    zs = half_circle(64)
    rng = np.random.default_rng(31)
    draws = [rng.standard_normal(param.n_free) for _ in range(3)]
    pointwise = kd_responses(bundle, (param.taps_from_x(x) for x in draws), zs)
    for x, kd in zip(draws, pointwise):
        realized = frequency_response(form_nrf_pair(bundle, q_from_x(param, x)).kd, zs)
        assert kd.shape == realized.shape
        assert np.max(np.abs(kd - realized)) <= 1e-10 * np.max(np.abs(realized))


def test_deployed_row_reading_its_own_command_fails_inheritance(grid_setup, grid_design):
    # the feedforward diagonal of kd is identically zero, so a deployed row
    # may not read its own command, however small the entry; that column is
    # inside the row's communication set, so only the row check can see it
    plant, part, nb = grid_setup
    pair, param = grid_design.maps.pair, grid_design.param
    bank = list(grid_design.maps.bank)
    ctrl = bank[0]
    ell = int(part.indices("u", 0)[0])
    assert ctrl.row_orders[0] > 0 and not np.any(ctrl.B[:, ell])
    B = ctrl.B.copy()
    B[0, ell] = 1e-12
    bank[0] = dataclasses.replace(ctrl, B=B)
    maps = build_closed_loop_maps(pair, bank, part)
    records = run_invariant_suite(plant, part, nb, pair.bundle, bank, maps, param, grid_design.x)
    failed = [r for r in records if not r.passed]
    assert [r.name for r in failed] == ["row_sparsity_inheritance"]
    assert f"({ell}, {ell})" in failed[0].note
