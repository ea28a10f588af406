import numpy as np
import pytest

from conftest import deadbeat_bundle, factor, random_stable_plant
from nrf_forge.errors import (
    CommConstraintError,
    DimensionMismatchError,
    NotStrictlyProperError,
    SparsityInheritanceError,
)
from nrf_forge.lti import (
    fir_realization,
    from_gain,
    frequency_response,
    half_circle,
    is_minimal,
    make_realization,
)
from nrf_forge.nrf import (
    ControllerRow,
    bank_from_pair,
    check_comm_constraints,
    diagonal_part,
    extract_row,
    form_nrf_pair,
    stack_area,
    stacked_bank,
    verify_sparsity_inheritance,
    zero_columns,
)
from nrf_forge.partition import Neighborhoods, build_partition
from nrf_forge.plant import Plant

ZS = half_circle(64)


def small_pair(seed=0, q_scale=0.1):
    rng = np.random.default_rng(seed)
    plant = random_stable_plant(rng, n=4, m=2, n_d=1)
    bundle = deadbeat_bundle(plant)
    q = fir_realization([q_scale * rng.standard_normal((2, 4))])
    return bundle, form_nrf_pair(bundle, q)


def test_siso_feedforward_identically_zero():
    plant = Plant([[0.0]], [[1.0]], [[1.0]])
    bundle = deadbeat_bundle(plant)
    q = fir_realization([np.array([[0.3]])])
    pair = form_nrf_pair(bundle, q)
    resp = frequency_response(pair.feedforward, ZS)
    assert np.max(np.abs(resp)) <= 1e-12


def test_zero_parameter_reduces_to_bundle_complements():
    bundle, pair = small_pair(q_scale=0.0)
    for R, ref in ((pair.yq, factor(bundle, "Yt")), (pair.xq, factor(bundle, "Xt"))):
        a = frequency_response(R, ZS)
        b = frequency_response(ref, ZS)
        assert np.max(np.abs(a - b)) <= 1e-10


def test_nonstrictly_proper_parameter_rejected():
    bundle, _ = small_pair()
    q_bad = make_realization(np.zeros((1, 1)), np.zeros((1, 4)), np.zeros((2, 1)),
                             0.1 * np.ones((2, 4)))
    with pytest.raises(NotStrictlyProperError):
        form_nrf_pair(bundle, q_bad)


def test_pair_reconstruction_identities_on_grid():
    _, pair = small_pair(seed=3)
    yqd = frequency_response(pair.yq_diag, ZS)
    phi = frequency_response(pair.feedforward, ZS)
    gam = frequency_response(pair.feedback, ZS)
    yq = frequency_response(pair.yq, ZS)
    xq = frequency_response(pair.xq, ZS)
    assert np.max(np.abs(yqd @ (np.eye(2) - phi) - yq)) <= 1e-10
    assert np.max(np.abs(yqd @ gam - xq)) <= 1e-10


def test_diagonal_part_extraction():
    rng = np.random.default_rng(11)
    R = make_realization(rng.standard_normal((3, 3)) * 0.3, rng.standard_normal((3, 2)),
                         rng.standard_normal((2, 3)), rng.standard_normal((2, 2)))
    Dg = diagonal_part(R)
    full = frequency_response(R, ZS)
    diag = frequency_response(Dg, ZS)
    for i in range(2):
        assert np.allclose(diag[:, i, i], full[:, i, i], atol=1e-10)
    off = diag.copy()
    off[:, range(2), range(2)] = 0.0
    assert np.max(np.abs(off)) <= 1e-12


# ---------------------------------------------------------------------------
# canonical rows
# ---------------------------------------------------------------------------

def test_constant_row_gives_order_zero():
    kd = from_gain(np.zeros((1, 3)))
    kd = make_realization(kd.A, kd.B, kd.C, np.array([[0.0, 1.0, 0.0]]))
    row = extract_row(kd, 0)
    assert row.order == 0
    assert np.allclose(row.D, [[0.0, 1.0, 0.0]])
    assert row.A.shape == (0, 0)


def test_known_companion_row_roundtrip():
    # build a row directly in observable canonical coordinates, then recover it
    coeffs = np.array([1.0, -0.3, 0.02, 0.1])  # chi = z^3 - .3 z^2 + .02 z + .1 (stable)
    rng = np.random.default_rng(7)
    K = rng.standard_normal((3, 5))
    A_r = np.zeros((3, 3))
    A_r[:, 0] = -coeffs[1:]
    A_r[:-1, 1:] = np.eye(2)
    C_r = np.array([[1.0, 0.0, 0.0]])
    D_r = rng.standard_normal((1, 5))
    kd = make_realization(A_r, K, C_r, D_r)
    row = extract_row(kd, 0)
    assert row.order == 3
    assert np.allclose(row.char_coeffs, coeffs, atol=1e-10)
    assert np.allclose(row.numerator_rows, K, atol=1e-9)
    assert np.allclose(row.A, A_r, atol=1e-10)
    assert np.allclose(row.D, D_r)


def test_row_eval_matches_and_minimal():
    _, pair = small_pair(seed=5)
    kd_resp = frequency_response(pair.kd, ZS)
    for ell in range(pair.n_u):
        row = extract_row(pair.kd, ell)
        resp = frequency_response(row.realization(), ZS)[:, 0, :]
        scale = max(1.0, np.max(np.abs(kd_resp[:, ell, :])))
        assert np.max(np.abs(resp - kd_resp[:, ell, :])) / scale <= 1e-8
        assert is_minimal(row.realization())


def test_sparsity_inheritance_positive_and_negative():
    _, pair = small_pair(seed=6)
    kd_resp = frequency_response(pair.kd, ZS)
    for ell in range(pair.n_u):
        # dense: vacuous
        verify_sparsity_inheritance(ell, extract_row(pair.kd, ell).realization(), zero_columns(kd_resp[:, ell, :]))
    # a row whose first input column is identically zero but left nonzero in B
    kd = make_realization(np.array([[0.0]]), np.array([[0.0, 1.0]]),
                          np.array([[1.0]]), np.zeros((1, 2)))
    bad = ControllerRow(0, np.array([[0.0]]), np.array([[0.5, 1.0]]),
                        np.array([[1.0]]), np.zeros((1, 2)), np.array([1.0, 0.0]),
                        np.array([[0.5, 1.0]]), zero_columns=(0,))
    zero_cols = zero_columns(frequency_response(kd, ZS)[:, 0, :])
    assert zero_cols == (0,)
    with pytest.raises(SparsityInheritanceError) as err:
        verify_sparsity_inheritance(0, bad.realization(), zero_cols)
    assert (0, 0) in err.value.entries


def test_stack_area_single_input_equals_row():
    _, pair = small_pair(seed=8)
    part = build_partition([(2, 1), (2, 1)])
    rows = [extract_row(pair.kd, 0)]
    ctrl = stack_area(rows, part, 0)
    assert ctrl.order == rows[0].order
    assert np.allclose(ctrl.B, rows[0].B)
    a = frequency_response(ctrl.realization(), ZS)
    b = frequency_response(rows[0].realization(), ZS)
    assert np.max(np.abs(a - b)) <= 1e-12


def test_stack_area_rejects_wrong_rows():
    _, pair = small_pair(seed=9)
    part = build_partition([(2, 1), (2, 1)])
    with pytest.raises(DimensionMismatchError):
        stack_area([extract_row(pair.kd, 1)], part, 0)


def test_stacked_bank_matches_row_selection():
    _, pair = small_pair(seed=10)
    part = build_partition([(2, 1), (2, 1)])
    rows, bank = bank_from_pair(pair, part)
    full = stacked_bank(bank)
    a = frequency_response(full, ZS)
    b = frequency_response(pair.kd, ZS)
    assert np.max(np.abs(a - b)) <= 1e-8
    # block-diagonal state structure per area
    for ctrl, row in zip(bank, rows):
        assert ctrl.row_orders == (row.order,)


def test_comm_constraints_complete_sets_pass():
    _, pair = small_pair(seed=12)
    part = build_partition([(2, 1), (2, 1)])
    _, bank = bank_from_pair(pair, part)
    check_comm_constraints(bank, part, Neighborhoods.complete(2))


def test_comm_constraints_violations_are_listed():
    _, pair = small_pair(seed=13)  # dense parameter: areas genuinely coupled
    part = build_partition([(2, 1), (2, 1)])
    _, bank = bank_from_pair(pair, part)
    nb = Neighborhoods((frozenset({0}), frozenset({0, 1})))
    with pytest.raises(CommConstraintError) as err:
        check_comm_constraints(bank, part, nb)
    assert (0, 1) in err.value.pairs


def test_grid_rows_are_double_deadbeat(grid_design):
    # every synthesized controller row has characteristic polynomial z^2
    pair = grid_design.maps.pair
    for ell in range(pair.n_u):
        row = extract_row(pair.kd, ell)
        assert row.order == 2
        assert np.allclose(row.char_coeffs, [1.0, 0.0, 0.0], atol=1e-9)
        assert np.allclose(row.A, [[0.0, 1.0], [0.0, 0.0]], atol=1e-9)
        assert np.allclose(row.D, 0.0)


def test_grid_bank_respects_neighborhoods(grid_design, grid_setup):
    _, part, nb = grid_setup
    check_comm_constraints(list(grid_design.bank), part, nb)
    # area 5 talks to everyone, so no communication column is forced zero
    # beyond its own feedforward diagonal (incidental zeros may appear)
    row5 = extract_row(grid_design.maps.pair.kd, 4)
    assert 4 in row5.zero_columns
