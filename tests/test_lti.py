from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from conftest import refine_steps, shift_nilpotent, unprune
from nrf_forge import lti
from nrf_forge.errors import (
    DimensionMismatchError,
    NearSingularResolventError,
    NonInvertibleFeedthroughError,
    UnboundedTfmError,
)
from nrf_forge.lti import (
    _SchurForm,
    _block_peaks,
    _bracket,
    _gram,
    _lambda_max,
    _recursion,
    SignalTrace,
    delay,
    evaluate,
    fir_realization,
    frequency_response,
    from_gain,
    half_circle,
    hinf_norm,
    impulse_response,
    inverse,
    is_cb_bounded,
    is_minimal,
    make_realization,
    minimal,
    negate,
    parallel,
    pbh_test,
    select_cols,
    select_rows,
    series,
    spectral_radius,
    stack_cols,
    star,
    transpose,
)


def random_realization(rng, n, p, m, rho=0.7):
    A = rng.standard_normal((n, n))
    if n:
        A *= rho / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9)
    return make_realization(A, rng.standard_normal((n, m)), rng.standard_normal((p, n)),
                            rng.standard_normal((p, m)))


# ---------------------------------------------------------------------------
# construction and evaluation
# ---------------------------------------------------------------------------

def test_scalar_delay_eval():
    R = make_realization([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    assert R.order == 1
    assert evaluate(R, 2.0) == pytest.approx(0.5)


def test_pure_gain_order_zero():
    D = np.arange(6.0).reshape(3, 2)
    R = make_realization(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((3, 0)), D)
    assert R.order == 0
    for z in (0.3 + 1j, 2.0, -5.0):
        assert np.allclose(evaluate(R, z), D)


def test_dimension_mismatch_names_pair():
    with pytest.raises(DimensionMismatchError, match="rows\\(B\\)"):
        make_realization(np.eye(2), np.ones((3, 1)), np.ones((1, 2)), np.zeros((1, 1)))
    with pytest.raises(DimensionMismatchError, match="cols\\(C\\)"):
        make_realization(np.eye(2), np.ones((2, 1)), np.ones((1, 3)), np.zeros((1, 1)))
    with pytest.raises(DimensionMismatchError, match="D has shape"):
        make_realization(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((2, 2)))


def test_grid_plant_is_order_ten():
    from nrf_forge.grid import build_grid_plant
    assert build_grid_plant().g_u().order == 10


def _poly_matrix_det(M):
    # Laplace expansion over np.poly1d entries; fine for the n <= 4 oracle
    n = len(M)
    if n == 1:
        return M[0][0]
    total = np.poly1d([0.0])
    for j in range(n):
        minor = [[M[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = M[0][j] * _poly_matrix_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_eval_matches_polynomial_resolvent_oracle():
    # independent oracle: adjugate over polynomial arithmetic, n_x <= 4
    rng = np.random.default_rng(5)
    R = random_realization(rng, 4, 2, 3)
    n = 4
    zIA = [[np.poly1d([1.0, 0.0]) if i == j else np.poly1d([0.0]) for j in range(n)]
           for i in range(n)]
    for i in range(n):
        for j in range(n):
            zIA[i][j] = zIA[i][j] - np.poly1d([R.A[i, j]])
    det = _poly_matrix_det(zIA)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[zIA[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            cof = _poly_matrix_det(minor)
            adj[i][j] = cof if (i + j) % 2 == 0 else -cof
    zs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    for z in zs:
        adj_z = np.array([[adj[i][j](z) for j in range(n)] for i in range(n)])
        expected = R.C @ adj_z @ R.B / det(z) + R.D
        assert np.allclose(evaluate(R, z), expected, rtol=1e-9, atol=1e-9)


def test_eval_near_pole_raises_with_min_singular_value():
    R = make_realization([[0.5]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(NearSingularResolventError) as err:
        evaluate(R, 0.5)
    assert err.value.min_singular_value < 1e-12


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_series_of_delays_is_double_delay():
    R = series(delay(1), delay(1))
    for z in (2.0, 1.5 + 0.5j, -3.0):
        assert evaluate(R, z)[0, 0] == pytest.approx(1.0 / z**2)
    h = impulse_response(R, 5)[:, 0, 0]
    assert np.allclose(h, [0, 0, 1, 0, 0])


def test_parallel_cancellation_is_zero():
    rng = np.random.default_rng(1)
    G = random_realization(rng, 3, 2, 2)
    Z = parallel(G, negate(G))
    resp = frequency_response(Z, half_circle(32))
    assert np.max(np.abs(resp)) <= 1e-12


@given(st.integers(0, 60000))
def test_composition_soundness(seed):
    # eval of every composed object equals the pointwise matrix operation
    rng = np.random.default_rng(seed)
    n1, n2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
    p, m, inner = (int(rng.integers(1, 4)) for _ in range(3))
    R1 = random_realization(rng, n1, p, inner)
    R2 = random_realization(rng, n2, inner, m)
    zs = np.exp(2j * np.pi * rng.uniform(size=8))
    for z in zs:
        v1, v2 = evaluate(R1, z), evaluate(R2, z)
        assert np.allclose(evaluate(series(R1, R2), z), v1 @ v2, rtol=1e-10, atol=1e-10)
        assert np.allclose(evaluate(transpose(R1), z), v1.T, rtol=1e-10, atol=1e-10)
    R3 = random_realization(rng, n2, p, inner)
    for z in zs[:3]:
        v1, v3 = evaluate(R1, z), evaluate(R3, z)
        assert np.allclose(evaluate(parallel(R1, R3), z), v1 + v3, rtol=1e-10, atol=1e-10)
        assert np.allclose(evaluate(stack_cols(R1, R3), z), np.hstack([v1, v3]),
                           rtol=1e-10, atol=1e-10)
        assert np.allclose(evaluate(select_rows(R1, [0]), z), v1[[0], :], rtol=1e-10)
        assert np.allclose(evaluate(select_cols(R1, [inner - 1]), z), v1[:, [inner - 1]],
                           rtol=1e-10)


def test_inverse_constant_gain():
    assert evaluate(inverse(from_gain([[2.0]])), 3.7)[0, 0] == pytest.approx(0.5)


def test_inverse_product_is_identity():
    rng = np.random.default_rng(3)
    n, p = 4, 3
    R = make_realization(rng.standard_normal((n, n)) * 0.2, rng.standard_normal((n, p)),
                         rng.standard_normal((p, n)) * 0.3, np.eye(p))
    Ri = inverse(R)
    prod = series(Ri, R)
    for z in half_circle(32):
        assert np.allclose(evaluate(prod, z), np.eye(p), atol=1e-10)


def test_inverse_singular_feedthrough_rejected():
    R = make_realization([[0.1]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(NonInvertibleFeedthroughError):
        inverse(R)


# ---------------------------------------------------------------------------
# minimality / structure
# ---------------------------------------------------------------------------

def test_minimal_collapses_cancellation_to_order_zero():
    rng = np.random.default_rng(2)
    G = random_realization(rng, 3, 2, 2)
    Z = minimal(parallel(G, negate(G)))
    assert Z.order == 0
    assert np.allclose(Z.D, 0.0)


def test_minimal_strips_redundant_states():
    base = series(delay(1), delay(1))  # order 2 already minimal
    # graft an unreachable, unobservable block
    A = np.block([[base.A, np.zeros((2, 2))], [np.zeros((2, 2)), 0.5 * np.eye(2)]])
    B = np.vstack([base.B, np.zeros((2, 1))])
    C = np.hstack([base.C, np.zeros((1, 2))])
    R = make_realization(A, B, C, base.D)
    Rm = minimal(R)
    assert Rm.order == 2
    for z in (2.0, 1.0 + 1j):
        assert evaluate(Rm, z)[0, 0] == pytest.approx(1.0 / z**2)


@given(st.integers(0, 60000))
def test_minimal_idempotent_and_eval_preserving(seed):
    rng = np.random.default_rng(seed)
    R1 = random_realization(rng, int(rng.integers(1, 5)), 2, 2)
    R = parallel(R1, R1)  # guaranteed non-minimal
    Rm = minimal(R)
    assert minimal(Rm).order == Rm.order
    zs = half_circle(32)
    a, b = frequency_response(R, zs), frequency_response(Rm, zs)
    scale = max(1.0, np.max(np.abs(a)))
    assert np.max(np.abs(a - b)) / scale <= 1e-8


def test_pbh_simple_cases():
    R = make_realization([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    assert pbh_test(R, 0.0, "controllable")
    R0 = make_realization([[0.0]], [[0.0]], [[1.0]], [[0.0]])
    assert not pbh_test(R0, 0.0, "controllable")
    assert pbh_test(R0, 1.0, "controllable")  # A - zI invertible away from the spectrum


def test_pbh_minimality_of_minimal_result():
    rng = np.random.default_rng(9)
    R = parallel(random_realization(rng, 3, 2, 2), random_realization(rng, 2, 2, 2))
    assert is_minimal(minimal(R))


def test_spectral_radius_plain():
    R = make_realization(0.5 * np.eye(3), np.eye(3), np.eye(3), np.zeros((3, 3)))
    assert spectral_radius(R) == pytest.approx(0.5)
    assert is_cb_bounded(R)


def test_hidden_unstable_mode_is_bounded_after_minimalization():
    # zero map realised with an unstable unobservable state
    R = make_realization([[1.0]], [[1.0]], [[0.0]], [[0.0]])
    assert spectral_radius(R) == 0.0
    assert is_cb_bounded(R)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_hinf_of_constant_gain():
    D = np.array([[3.0, 0.0], [0.0, 1.0]])
    assert hinf_norm(from_gain(D)) == pytest.approx(3.0)


def test_hinf_z_plus_two_over_z_is_three():
    # (z + 2)/z = 1 + 2/z peaks at z = 1 with value 3
    R = make_realization([[0.0]], [[1.0]], [[2.0]], [[1.0]])
    assert hinf_norm(R) == pytest.approx(3.0, rel=1e-4)


def test_hinf_delay_is_allpass():
    assert hinf_norm(delay(1)) == pytest.approx(1.0, rel=1e-6)


def test_hinf_rejects_unbounded():
    R = make_realization([[1.2]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(UnboundedTfmError):
        hinf_norm(R)


def test_hinf_monotone_under_column_stacking():
    rng = np.random.default_rng(11)
    R1 = random_realization(rng, 3, 2, 2, rho=0.5)
    R2 = random_realization(rng, 2, 2, 1, rho=0.5)
    stacked = stack_cols(R1, R2)
    assert hinf_norm(stacked) >= max(hinf_norm(R1), hinf_norm(R2)) - 1e-9


@pytest.mark.parametrize("grid_points", [256, 257, 4096])
@pytest.mark.parametrize("a", [0.5, -0.7])
def test_hinf_first_order_lag_closed_form(a, grid_points):
    # ||1/(z - a)|| peaks at z = sign(a) with value 1/(1 - |a|)
    R = make_realization([[a]], [[1.0]], [[1.0]], [[0.0]])
    assert abs(hinf_norm(R, grid_points=grid_points) * (1.0 - abs(a)) - 1.0) <= 1e-10


def second_order_section(r, phi):
    """1 / ((z - p)(z - conj(p))) for p = r e^(i phi).  On the unit circle
    |(z - p)(z - conj(p))|^2 = (1 + r^2)^2 - 4 r (1 + r^2) cos(phi) c
    + 4 r^2 (c^2 - sin(phi)^2) for c = cos(theta), least at
    c = (1 + r^2) cos(phi) / (2 r), so the peak is 1 / (sin(phi) (1 - r^2))."""
    A = np.array([[2.0 * r * np.cos(phi), -r * r], [1.0, 0.0]])
    return make_realization(A, [[1.0], [0.0]], [[0.0, 1.0]], [[0.0]]), 1.0 / (np.sin(phi) * (1.0 - r * r))


@pytest.mark.parametrize("grid_points", [256, 257, 2048])
@pytest.mark.parametrize("case", ["lag at 0", "lag at pi", "lightly damped"])
def test_refinement_reaches_closed_form_peaks_in_few_steps(case, grid_points, monkeypatch):
    # ||1/(z - a)|| peaks at z = sign(a) with value 1/(1 - |a|)
    R, peak = {
        "lag at 0": (make_realization([[0.9]], [[1.0]], [[1.0]], [[0.0]]), 10.0),
        "lag at pi": (make_realization([[-0.9]], [[1.0]], [[1.0]], [[0.0]]), 10.0),
        "lightly damped": second_order_section(0.98, 1.0),
    }[case]
    steps = refine_steps(monkeypatch)
    assert abs(hinf_norm(R, grid_points=grid_points) / peak - 1.0) <= 1e-12
    assert steps and max(steps) <= 12


def test_refinement_brackets_kinked_peaks():
    """Unimodal functions with a kink at t0, where parabolas mislead: only
    the bracket's closing puts the best sample within tol / 2 of t0 (so
    below the peak by at most the steeper slope, 1.3, times tol / 2)."""
    t0 = np.random.default_rng(0).uniform(-0.9, 0.9, 50)
    tol = 1e-6

    def value_at(u, which):
        return 1.0 - np.abs(u - t0[which]) - 0.3 * np.maximum(u - t0[which], 0.0)

    pts = np.array([-1.0, 0.0, 1.0])[:, None] * np.ones(t0.size)
    vals = value_at(pts, np.broadcast_to(np.arange(t0.size), pts.shape))
    best, _ = lti._brent_max(value_at, pts[0].copy(), pts[2].copy(), pts, vals, tol)
    assert np.all(1.0 - best <= 1.3 * tol / 2)


def norm_test_realizations():
    """Seeded stable maps: tall, wide, and a wide one whose state matrix is
    defective (a nilpotent FIR shift block feeding a stable part)."""
    rng = np.random.default_rng(41)
    tall = random_realization(rng, 6, 4, 2, rho=0.8)
    wide = random_realization(rng, 5, 2, 4, rho=0.8)
    A = scipy.linalg.block_diag(shift_nilpotent(4), random_realization(rng, 4, 1, 1, rho=0.6).A)
    A[3, 4:] = rng.standard_normal(4)
    defective = make_realization(A, rng.standard_normal((8, 3)), rng.standard_normal((2, 8)),
                                 rng.standard_normal((2, 3)))
    return [tall, wide, defective]


def test_hinf_matches_dense_scan_on_random_mimo():
    zs = np.exp(2j * np.pi * np.arange(2 ** 17) / 2 ** 17)
    for R in norm_test_realizations():
        scan = np.max(np.linalg.svd(frequency_response(R, zs), compute_uv=False)[:, 0])
        assert abs(hinf_norm(R) - scan) <= 1e-6 * scan


def test_schur_sweep_matches_frequency_response():
    zs = half_circle(301)
    for R in norm_test_realizations():
        for S in (R, transpose(R)):
            want = frequency_response(S, zs)
            got = _SchurForm.of(S).response(zs)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_schur_form_blocks_match_frequency_response():
    # per-block points, through the form and through its transpose, which
    # reuses the same reduction
    rng = np.random.default_rng(43)
    zs = np.exp(1j * rng.uniform(0.0, np.pi, (3, 5)))
    for R in norm_test_realizations():
        form = _SchurForm.of(R)
        for f, S in ((form, R), (form.transpose(), transpose(R))):
            rows = np.array([rng.permutation(S.noutputs)[:2] for _ in range(3)])
            cols = np.array([rng.permutation(S.ninputs)[:2] for _ in range(3)])
            got = f.blocks_at(rows, cols, zs)
            for b in range(3):
                want = frequency_response(S, zs[b])[:, rows[b][:, None], cols[b]]
                assert np.max(np.abs(got[b] - want)) <= 1e-12 * np.max(np.abs(want))


def test_hinf_order_zero_is_largest_singular_value():
    # a scaled signed partial permutation: every SVD path gets its
    # singular values (2.5, 1.5, 0.25) exactly
    D = np.array([[0.0, -2.5, 0.0, 0.0], [1.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.25]])
    assert hinf_norm(from_gain(D)) == np.linalg.svd(D, compute_uv=False)[0] == 2.5
    assert hinf_norm(from_gain(np.zeros((2, 3)))) == 0.0


def test_mesh_certification_makes_no_single_point_evaluation(grid_setup, grid_design,
                                                            monkeypatch):
    import nrf_forge.lti as lti
    from nrf_forge.match_synth import MapsBuilder, constraint_norms

    calls = []
    real = lti.evaluate
    monkeypatch.setattr(lti, "evaluate", lambda R, z: calls.append(z) or real(R, z))
    _, part, _ = grid_setup
    res = grid_design
    gammas, _ = constraint_norms(res.param, np.zeros(res.param.n_free), res.spec,
                                 MapsBuilder(res.pair.bundle, part))
    assert calls == []
    assert all(np.all(np.isfinite(g)) for g in gammas)


# ---------------------------------------------------------------------------
# time domain
# ---------------------------------------------------------------------------

def test_star_identity_gain():
    rng = np.random.default_rng(0)
    u = SignalTrace(rng.standard_normal((20, 3)))
    y = star(from_gain(np.eye(3)), u)
    assert np.allclose(y.samples, u.samples)


def test_star_delay_shifts():
    u = SignalTrace(np.arange(10.0).reshape(-1, 1))
    y = star(delay(1), u)
    assert np.allclose(y.samples[1:, 0], u.samples[:-1, 0])
    assert y.samples[0, 0] == 0.0


def test_star_fir_matches_convolution_oracle():
    rng = np.random.default_rng(4)
    taps = [rng.standard_normal((1, 1)) for _ in range(3)]
    R = fir_realization(taps)
    u = rng.standard_normal(50)
    y = star(R, SignalTrace(u.reshape(-1, 1)))
    kernel = np.concatenate([[0.0], [t[0, 0] for t in taps]])
    expected = np.convolve(u, kernel)[:50]
    assert np.max(np.abs(y.samples[:, 0] - expected)) <= 1e-12


def test_star_with_initial_state():
    rng = np.random.default_rng(8)
    R = random_realization(rng, 3, 2, 2, rho=0.5)
    u = SignalTrace(rng.standard_normal((15, 2)), start_index=3)
    x0 = rng.standard_normal(3)
    y = star(R, u, x0)
    x = x0.copy()
    for k in range(15):
        assert np.allclose(y.samples[k], R.C @ x + R.D @ u.samples[k])
        x = R.A @ x + R.B @ u.samples[k]
    assert y.start_index == 3


def stepwise_star(R, u, x0):
    """The per-step loop of the time responses before they were batched,
    kept as their oracle."""
    x, y = x0.copy(), np.empty((len(u), R.noutputs))
    for k, uk in enumerate(u):
        y[k] = R.C @ x + R.D @ uk
        x = R.A @ x + R.B @ uk
    return y


def stepwise_free(R, x0, horizon):
    """C A^k x0 for k < horizon, one state step at a time."""
    out, x = np.empty((horizon, R.noutputs)), x0.copy()
    for k in range(horizon):
        out[k] = R.C @ x
        x = R.A @ x
    return out


def _recursion_case(seed):
    """A random stable realization (order 0 allowed), a horizon across
    several recursion chunks and 1-4 scenarios."""
    rng = np.random.default_rng(seed)
    R = random_realization(rng, int(rng.integers(0, 7)), int(rng.integers(1, 5)),
                           int(rng.integers(1, 5)))
    T, S = int(rng.integers(1, 200)), int(rng.integers(1, 5))
    return rng, R, T, S


@given(st.integers(0, 60000))
def test_batched_star_matches_columns_and_stepwise_loop(seed):
    rng, R, T, S = _recursion_case(seed)
    u = rng.standard_normal((T, R.ninputs, S))
    x0 = rng.standard_normal((R.order, S))
    batched = star(R, SignalTrace(u), x0).samples
    assert batched.shape == (T, R.noutputs, S)
    for s in range(S):
        one = star(R, SignalTrace(u[:, :, s]), x0[:, s]).samples
        ref = stepwise_star(R, u[:, :, s], x0[:, s])
        tol = 1e-12 * max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(batched[:, :, s] - one)) <= tol
        assert np.max(np.abs(one - ref)) <= tol


@given(st.integers(0, 60000))
def test_batched_ic_response_matches_columns_and_stepwise_loop(seed):
    # the initial-condition response is the free response from x0 = v: star with a zero input
    rng, R, T, S = _recursion_case(seed)
    v = rng.standard_normal((R.order, S))
    zero = np.zeros((T, R.ninputs, S))
    batched = star(R, SignalTrace(zero), v).samples
    for s in range(S):
        one = star(R, SignalTrace(zero[:, :, s]), v[:, s]).samples
        ref = stepwise_free(R, v[:, s], T)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(batched[:, :, s] - one)) <= tol
        assert np.max(np.abs(one - ref)) <= tol


def test_recursion_without_output_map_returns_states():
    rng = np.random.default_rng(12)
    R = random_realization(rng, 4, 1, 2)
    u, x0 = rng.standard_normal((130, 2)), rng.standard_normal(4)
    states = _recursion(R.A, R.B, u, x0)
    assert states.shape == (130, 4)
    y = star(R, SignalTrace(u), x0).samples
    assert np.max(np.abs(states @ R.C.T + u @ R.D.T - y)) <= 1e-12


def test_time_frequency_consistency():
    # DFT of the impulse response vs direct evaluation on the DFT grid
    rng = np.random.default_rng(12)
    R = random_realization(rng, 4, 2, 2, rho=0.9)
    nfft = 4096
    h = impulse_response(R, nfft)
    H = np.fft.fft(h, axis=0)
    zs = np.exp(2j * np.pi * np.arange(nfft) / nfft)
    direct = frequency_response(R, zs)
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(H - direct)) / scale <= 1e-6


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_half_circle_and_conjugates_are_the_full_midpoint_circle():
    for n in (1, 3, 16, 64, 256, 1024, 2048):
        zs = half_circle(n)
        full = np.exp(1j * (2.0 * np.pi * (np.arange(2 * n) + 0.5) / (2 * n)))
        assert np.allclose(np.abs(zs), 1.0, rtol=0.0, atol=1e-15) and np.all(zs.imag > 0)
        assert np.allclose(np.r_[zs, np.conj(zs[::-1])], full, rtol=0.0, atol=1e-15)
        # bit for bit the upper half of the former uniform grid and the former Chebyshev-angle grid
        assert np.array_equal(zs, full[:n])
        assert np.array_equal(zs, np.exp(1j * (np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n))))


def test_only_lti_builds_unit_circle_points():
    src = Path(lti.__file__).parent
    builders = [p.name for p in sorted(src.glob("*.py")) if p.name != "lti.py" and "exp(1j" in p.read_text()]
    assert builders == []


# ---------------------------------------------------------------------------
# peak bracketing
# ---------------------------------------------------------------------------

@st.composite
def gram_stacks(draw):
    """Gram stacks (r, r, blocks, G) of random complex columns, magnitudes
    spread over six decades, each block plain, zero, rank one, tied (every
    value twice) or with a zero row whose diagonal is pushed slightly
    negative; and a top count k."""
    r, t = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    blocks, G = draw(st.integers(1, 5)), draw(st.integers(1, 40))
    kinds = draw(st.lists(st.sampled_from(["plain", "zero", "rank1", "tied", "negative"]),
                          min_size=blocks, max_size=blocks))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((r, t, blocks, G)) + 1j * rng.standard_normal((r, t, blocks, G))
    a *= 10.0 ** rng.uniform(-3.0, 3.0, (blocks, G))
    for b, kind in enumerate(kinds):
        if kind == "zero":
            a[:, :, b] = 0.0
        elif kind == "rank1":
            a[:, 1:, b] = 0.0
        elif kind == "tied":
            a[:, :, b, G // 2:] = a[:, :, b, :G - G // 2]
        elif kind == "negative":
            a[0, :, b] = 0.0
    H = _gram(a, a)
    for b in (b for b, kind in enumerate(kinds) if kind == "negative"):
        H[0, 0, b] -= 1e-14 * rng.random(G) * np.abs(np.einsum("ii...->...", H[:, :, b]).real).max()
    return H, draw(st.integers(1, 6))


@given(gram_stacks())
def test_bracket_equals_every_point_bit_for_bit(case):
    H, k = case
    r = H.shape[0]
    lam, flat = _lambda_max(H), H.reshape(r, r, -1)

    def value_at(points):
        return _lambda_max(flat[:, :, points])

    diag = np.einsum("ii...->i...", H).real
    peaks, points = _bracket(diag, value_at)
    assert np.array_equal(peaks, lam.max(axis=-1)) and np.array_equal(points, lam.argmax(axis=-1))
    assert np.array_equal(_bracket(diag, value_at, top=k),
                          np.argsort(lam, axis=1, kind="stable")[:, ::-1][:, :k])


def test_bracket_takes_few_points_of_a_smooth_peak():
    zs = half_circle(512)
    R = random_realization(np.random.default_rng(4), 6, 3, 3)
    S = frequency_response(R, zs).transpose(1, 2, 0)[:, :, None]
    H, asked = _gram(S, S), []

    def value_at(points):
        asked.append(points.size)
        return _lambda_max(H.reshape(3, 3, -1)[:, :, points])

    assert _bracket(np.einsum("ii...->i...", H).real, value_at)[0][0] == _lambda_max(H).max()
    assert asked[0] <= 0.25 * zs.size


@pytest.mark.parametrize("seed", range(4))
def test_block_peaks_equal_unpruned_ranking(seed, monkeypatch):
    rng = np.random.default_rng(40 + seed)
    p, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    R = random_realization(rng, int(rng.integers(2, 9)), p, m)
    blocks = []
    for _ in range(6):
        rows = np.sort(rng.choice(p, int(rng.integers(1, p + 1)), replace=False))
        cols = np.sort(rng.choice(m, int(rng.integers(1, m + 1)), replace=False))
        target = random_realization(rng, 1, rows.size, cols.size) if rng.random() < 0.5 else None
        blocks.append((rows, cols, target))
    got = _block_peaks(R, blocks, 256, 3)
    unprune(monkeypatch)
    assert np.array_equal(got, _block_peaks(R, blocks, 256, 3))
