import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import deadbeat_bundle, factor, random_stable_plant
from nrf_forge.dcf import build_dcf
from nrf_forge.errors import NonFirDcfError
from nrf_forge.lti import evaluate, frequency_response, half_circle
from nrf_forge.nrf import form_nrf_pair
from nrf_forge.partition import Neighborhoods, build_partition
from nrf_forge.sparse_param import (
    InfeasibilityReport,
    QParametrization,
    SparsityPattern,
    build_parametrization,
    left_factor_taps,
    pattern_from_neighborhoods,
    q_from_x,
)

ZS = half_circle(64)


def chain_setup(seed=0, forbid=((0, 1),)):
    """Two-area chain with the given forbidden (receiver, source) links."""
    rng = np.random.default_rng(seed)
    plant = random_stable_plant(rng, n=4, m=2, n_d=1)
    part = build_partition([(2, 1), (2, 1)])
    sets = []
    for i in range(2):
        s = {0, 1} - {j for (r, j) in forbid if r == i}
        s.add(i)
        sets.append(frozenset(s))
    nb = Neighborhoods(tuple(sets))
    bundle = deadbeat_bundle(plant)
    return plant, part, nb, bundle


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------

def test_complete_neighborhoods_pattern_is_dense_except_diagonal():
    part = build_partition([(2, 1), (2, 1), (2, 1)])
    pat = pattern_from_neighborhoods(part, Neighborhoods.complete(3))
    expected = np.ones((3, 9), dtype=int)
    expected[range(3), range(3)] = 0
    assert np.array_equal(pat.matrix, expected)
    assert pat.constrained_u_entries() == []
    assert pat.constrained_x_entries() == []


def test_grid_pattern_zero_blocks():
    from nrf_forge.grid import grid_neighborhoods, grid_partition
    pat = pattern_from_neighborhoods(grid_partition(), grid_neighborhoods())
    # forbidden pairs (1-based): (1,4), (2,3), (3,2), (4,1)
    assert pat.constrained_u_entries() == [(0, 3), (1, 2), (2, 1), (3, 0)]
    x_pairs = {(i, j // 2) for (i, j) in pat.constrained_x_entries()}
    assert x_pairs == {(0, 3), (1, 2), (2, 1), (3, 0)}


def test_two_area_pattern_upper_right_zero():
    part = build_partition([(3, 1), (2, 1)])
    nb = Neighborhoods((frozenset({0}), frozenset({0, 1})))
    pat = pattern_from_neighborhoods(part, nb)
    assert np.all(pat.matrix[0, 1] == 0)          # u-block (1,2)
    assert np.all(pat.matrix[0, 2 + 3:] == 0)     # x-block (1,2)
    assert np.all(pat.matrix[1, 2:2 + 3] == 1)    # area 2 hears area 1


def test_pattern_requires_zero_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        SparsityPattern(np.ones((2, 6), dtype=int), 2, 4)


# ---------------------------------------------------------------------------
# particular solution and basis
# ---------------------------------------------------------------------------

def test_unconstrained_pattern_gives_zero_particular():
    plant, part, nb, bundle = chain_setup(forbid=())
    pat = pattern_from_neighborhoods(part, nb)
    param = build_parametrization(bundle, pat, q=2)
    assert isinstance(param, QParametrization)
    assert np.allclose(param.q0_taps, 0.0)


def test_unconstrained_basis_spans_everything():
    plant, part, nb, bundle = chain_setup(forbid=())
    pat = pattern_from_neighborhoods(part, nb)
    basis = build_parametrization(bundle, pat, q=2).basis
    # one free tap P_1; only the diagonal-preserving rows (P_1 B)_ll = 0 bind
    assert basis.shape[0] == plant.n_u * plant.n_x - plant.n_u


def test_chain_particular_satisfies_constraints_by_substitution():
    plant, part, nb, bundle = chain_setup(seed=4)
    pat = pattern_from_neighborhoods(part, nb)
    param = build_parametrization(bundle, pat, q=plant.n_x)
    assert isinstance(param, QParametrization)
    pair = form_nrf_pair(bundle, q_from_x(param, np.zeros(param.n_free)))
    phi = frequency_response(pair.feedforward, ZS)
    gam = frequency_response(pair.feedback, ZS)
    # area 1 must not read area 2: entries (0, 1) of Phi, (0, 2:4) of Gamma
    assert np.max(np.abs(phi[:, 0, 1])) <= 1e-8
    assert np.max(np.abs(gam[:, 0, 2:4])) <= 1e-8


def test_basis_dimension_equals_unknowns_minus_rank():
    plant, part, nb, bundle = chain_setup(seed=5)
    pat = pattern_from_neighborhoods(part, nb)
    q = 3
    param = build_parametrization(bundle, pat, q)
    from nrf_forge.sparse_param import _assemble_system
    mat, _ = _assemble_system(bundle, pat, q)
    rank = np.linalg.matrix_rank(mat)
    assert mat.shape[1] == (q - 1) * plant.n_u * plant.n_x
    assert param.n_free == mat.shape[1] - rank


def test_q_from_x_matches_tap_polynomial():
    plant, part, nb, bundle = chain_setup(seed=6)
    pat = pattern_from_neighborhoods(part, nb)
    param = build_parametrization(bundle, pat, q=2)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(param.n_free)
    R = q_from_x(param, x)
    taps = param.taps_from_x(x)
    for z in rng.standard_normal(10) + 1.5:
        expected = sum(taps[t] / z ** (t + 1) for t in range(param.fir_degree))
        assert np.allclose(evaluate(R, z), expected, atol=1e-12)


def test_x_zero_returns_particular():
    plant, part, nb, bundle = chain_setup(seed=7)
    pat = pattern_from_neighborhoods(part, nb)
    param = build_parametrization(bundle, pat, q=2)
    assert np.allclose(param.taps_from_x(np.zeros(param.n_free)), param.q0_taps)


@given(st.integers(0, 10000))
def test_affinity_in_x(seed):
    plant, part, nb, bundle = chain_setup(seed=8)
    pat = pattern_from_neighborhoods(part, nb)
    param = build_parametrization(bundle, pat, q=2)
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal(param.n_free)
    x2 = rng.standard_normal(param.n_free)
    lhs = param.taps_from_x(x1) + param.taps_from_x(x2) - param.taps_from_x(np.zeros_like(x1))
    rhs = param.taps_from_x(x1 + x2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_particular_orthogonal_to_basis():
    plant, part, nb, bundle = chain_setup(seed=9)
    pat = pattern_from_neighborhoods(part, nb)
    param = build_parametrization(bundle, pat, q=3)
    assert param.n_free
    flat = param.basis.reshape(param.n_free, -1)
    assert np.max(np.abs(flat @ param.q0_taps.ravel())) <= 1e-10
    assert np.allclose(flat @ flat.T, np.eye(param.n_free), atol=1e-10)


def test_sparsity_closure_over_random_draws():
    plant, part, nb, bundle = chain_setup(seed=10)
    pat = pattern_from_neighborhoods(part, nb)
    param = build_parametrization(bundle, pat, q=3)
    rng = np.random.default_rng(2)
    for _ in range(10):
        pair = form_nrf_pair(bundle, q_from_x(param, rng.standard_normal(param.n_free)))
        phi = frequency_response(pair.feedforward, ZS)
        gam = frequency_response(pair.feedback, ZS)
        assert np.max(np.abs(phi[:, 0, 1])) <= 1e-8
        assert np.max(np.abs(gam[:, 0, 2:4])) <= 1e-8


def test_factored_mode_preserves_unit_diagonal_rows():
    # with the diagonal-preserving factored family, the deadbeat design keeps
    # every input-side diagonal entry of Yq equal to that of Yt
    plant, part, nb, bundle = chain_setup(seed=11)
    pat = pattern_from_neighborhoods(part, nb)
    param = build_parametrization(bundle, pat, q=3)
    rng = np.random.default_rng(3)
    pair = form_nrf_pair(bundle, q_from_x(param, rng.standard_normal(param.n_free)))
    yq = frequency_response(pair.yq, ZS)
    yt = frequency_response(factor(bundle, "Yt"), ZS)
    for i in range(plant.n_u):
        assert np.max(np.abs(yq[:, i, i] - yt[:, i, i])) <= 1e-9


def test_infeasible_pattern_reports():
    # a dense feedback leaves a first-tap residual -(F B)_{01} on the
    # forbidden entry that no strictly proper parameter can reach
    rng = np.random.default_rng(12)
    plant = random_stable_plant(rng, n=4, m=2, n_d=1)
    F = 0.05 * rng.standard_normal((2, 4))
    bundle = deadbeat_bundle(plant, F=F)
    assert abs((F @ plant.B_u)[0, 1]) > 1e-4
    part = build_partition([(2, 1), (2, 1)])
    nb = Neighborhoods((frozenset({0}), frozenset({0, 1})))
    pat = pattern_from_neighborhoods(part, nb)
    result = build_parametrization(bundle, pat, q=2)
    assert isinstance(result, InfeasibilityReport)
    assert result.residual > 1e-9
    assert "not achievable" in result.message


def test_non_fir_bundle_rejected():
    rng = np.random.default_rng(13)
    plant = random_stable_plant(rng, n=3, m=1, n_d=1)
    # stable but not deadbeat observer pencil
    F = np.zeros((1, 3))
    L = 0.5 * np.eye(3) - plant.A
    bundle = build_dcf(plant, F, L)
    with pytest.raises(NonFirDcfError):
        left_factor_taps(bundle)


def test_left_factor_taps_match_realizations():
    plant, part, nb, bundle = chain_setup(seed=14)
    taps = left_factor_taps(bundle)
    nu = taps["degree"]
    for name in ("Yt", "Xt"):
        fac = factor(bundle, name)
        for z in (2.0, -1.3, 0.4 + 1.1j):
            series_val = sum(taps[name][t] / z ** t for t in range(nu + 1))
            assert np.allclose(evaluate(fac, z), series_val, atol=1e-10)


@pytest.mark.parametrize("network", ["grid", "ring"])
def test_recorded_support_leaves_only_round_off_outside(request, network):
    param = request.getfixturevalue(f"{network}_design").param
    taps = np.concatenate([param.q0_taps[None], param.basis]).reshape(-1, param.n_u, param.n_x)
    peak = np.max(np.abs(taps), axis=0)
    assert param.support.shape == (param.n_u, param.n_x) and param.pattern is not None
    assert np.max(peak[~param.support], initial=0.0) <= 1e-14
    assert np.min(peak[param.support]) >= 1e-3
    if network == "ring":
        assert not np.all(param.support)


@pytest.mark.parametrize("network, moved", [("grid", 37), ("ring", 24)])
def test_free_p_marks_the_p_entries_directions_move(request, network, moved):
    """P's taps, recovered from each direction's Q taps through
    P_1 = Q_0 and P_{t+1} = Q_t + P_t A_L, are round-off outside ``free_p``."""
    res = request.getfixturevalue(f"{network}_design")
    param, a_l = res.param, res.pair.bundle.observer_pencil()
    p = [param.basis[:, 0]]
    for t in range(1, param.fir_degree - 1):
        p.append(param.basis[:, t] + p[-1] @ a_l)
    peak = np.max(np.abs(np.concatenate(p)), axis=0)
    assert param.free_p.sum() == moved
    assert np.max(peak[~param.free_p], initial=0.0) <= 1e-14
    assert np.min(peak[param.free_p]) >= 1e-3
    assert not np.any(param.free_p & ~param.support)
