import numpy as np

from nrf_forge.closed_loop import kd_responses
from nrf_forge.lti import FrequencyGrid, frequency_response
from nrf_forge.nrf import form_nrf_pair
from nrf_forge.sparse_param import q_from_x


def test_pointwise_kd_matches_realized_pair(grid_design):
    param = grid_design.param
    bundle = grid_design.maps.pair.bundle
    zs = FrequencyGrid.chebyshev(64).points
    rng = np.random.default_rng(31)
    draws = [rng.standard_normal(param.n_free) for _ in range(3)]
    pointwise = kd_responses(bundle, (param.taps_from_x(x) for x in draws), zs)
    for x, kd in zip(draws, pointwise):
        realized = frequency_response(form_nrf_pair(bundle, q_from_x(param, x)).kd, zs)
        assert kd.shape == realized.shape
        assert np.max(np.abs(kd - realized)) <= 1e-10 * np.max(np.abs(realized))
