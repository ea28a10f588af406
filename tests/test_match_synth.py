import numpy as np
import pytest
from dataclasses import replace

from conftest import deadbeat_bundle, random_stable_plant
from nrf_forge.closed_loop import area_block
from nrf_forge.lti import _lambda_max, delay, evaluate, frequency_response, make_realization
from nrf_forge.match_synth import (
    AlgorithmConfig,
    AlgorithmReport,
    MapsBuilder,
    OptimizerSettings,
    SynthesisSpec,
    _SurrogateModel,
    constraint_norms,
    default_targets,
    make_surrogate_objective,
    run_algorithm1,
    solve,
)
from nrf_forge.partition import Neighborhoods, build_partition
from nrf_forge.plant import Plant
from nrf_forge.sparse_param import (
    QParametrization,
    build_parametrization,
    pattern_from_neighborhoods,
    q_from_x,
)


def toy_setup(seed=0, forbid=True):
    rng = np.random.default_rng(seed)
    plant = random_stable_plant(rng, n=4, m=2, n_d=1)
    part = build_partition([(2, 1), (2, 1)])
    if forbid:
        nb = Neighborhoods((frozenset({0}), frozenset({0, 1})))
    else:
        nb = Neighborhoods.complete(2)
    bundle = deadbeat_bundle(plant)
    pat = pattern_from_neighborhoods(part, nb)
    param = build_parametrization(bundle, pat, q=3, mode="factored")
    assert isinstance(param, QParametrization)
    return plant, part, nb, bundle, param


def bootstrap_spec(plant, part, bundle, param, slack=1.0, optimizer=None):
    spec = default_targets(part, plant.n_d, optimizer=optimizer or OptimizerSettings())
    spec = replace(spec, bound_slack=slack)
    builder = MapsBuilder(bundle, part)
    (gd, gu, gc), _ = constraint_norms(param, np.zeros(param.n_free), spec, builder)
    return spec.with_bounds(gd, gu, gc), builder


# ---------------------------------------------------------------------------
# specs and defaults
# ---------------------------------------------------------------------------

def test_default_targets_decoupling_settings():
    part = build_partition([(2, 1)] * 5)
    spec = default_targets(part, n_d=5)
    assert all(t is None for t in spec.t_d)
    for i in range(5):
        t = spec.t_u_diag[i]
        assert t.shape == (3, 3)
        for z in (2.0, -1.5):
            assert np.allclose(evaluate(t, z), np.eye(3) / z)
        for j in range(5):
            if i != j:
                assert spec.target_u(i, j) is None
            assert spec.target_c(i, j) is None
    assert np.all(spec.tau_d == 1.0)
    assert np.all(spec.tau_u == 1.0)
    assert np.all(spec.tau_c == 0.0)


def test_default_targets_rejects_unbounded_tracking_target():
    part = build_partition([(2, 1), (2, 1)])
    bad = make_realization([[1.4]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(ValueError, match="bounded"):
        SynthesisSpec(2, (bad, None), (delay(3), delay(3)), {},
                      np.ones(2), np.ones((2, 2)), np.zeros((2, 2)))


def test_decouple_and_track_validates_shapes():
    part = build_partition([(2, 1), (2, 1)])
    with pytest.raises(Exception):
        default_targets(part, n_d=1, mode="decouple_and_track",
                        t_d=[delay(2), None])  # wrong shape: needs (3, 3)


def test_quadratic_norm_rejected_clearly():
    part = build_partition([(2, 1), (2, 1)])
    spec = default_targets(part, n_d=1)
    with pytest.raises(ValueError, match="hinf"):
        replace(spec, norm="h2").__post_init__()


# ---------------------------------------------------------------------------
# constraint norms
# ---------------------------------------------------------------------------

def test_bootstrap_is_always_feasible():
    plant, part, nb, bundle, param = toy_setup(seed=1)
    spec, builder = bootstrap_spec(plant, part, bundle, param, slack=0.0)
    (gd, gu, gc), _ = constraint_norms(param, np.zeros(param.n_free), spec, builder)
    assert np.all(gd <= spec.gamma_bar_d + 1e-12)
    assert np.all(gu <= spec.gamma_bar_u + 1e-12)
    assert np.all(gc <= spec.gamma_bar_c + 1e-12)


def test_perfect_target_gives_zero_norm():
    plant, part, nb, bundle, param = toy_setup(seed=2)
    spec, builder = bootstrap_spec(plant, part, bundle, param)
    maps = builder(q_from_x(param, np.zeros(param.n_free)))
    achieved = area_block(maps, part, "disturbance", 0)
    spec2 = replace(spec, t_d=(achieved, spec.t_d[1]))
    (gd, _, _), _ = constraint_norms(param, np.zeros(param.n_free), spec2, builder)
    assert gd[0] <= 1e-10


def test_norm_matches_dense_grid_oracle():
    plant, part, nb, bundle, param = toy_setup(seed=3)
    spec, builder = bootstrap_spec(plant, part, bundle, param)
    x = 0.1 * np.ones(param.n_free)
    (gd, gu, gc), maps = constraint_norms(param, x, spec, builder)
    # independent dense-grid evaluation of one coupling norm
    blk = area_block(maps, part, "coupling", 0, 1)
    zs = np.exp(2j * np.pi * np.arange(8192) / 8192)
    vals = frequency_response(blk, zs)
    brute = float(np.max(np.linalg.svd(vals, compute_uv=False)[:, 0]))
    assert gu[0, 1] == pytest.approx(brute, rel=1e-6, abs=1e-9)


def test_reported_values_equal_recomputation():
    plant, part, nb, bundle, param = toy_setup(seed=4)
    spec, builder = bootstrap_spec(plant, part, bundle, param)
    res = solve(spec, param, bundle, part)
    (gd, gu, gc), _ = constraint_norms(param, res.x, spec, builder)
    assert np.max(np.abs(res.gamma_d - gd)) <= 1e-9
    assert np.max(np.abs(res.gamma_u - gu)) <= 1e-9
    assert np.max(np.abs(res.gamma_c - gc)) <= 1e-9


def test_convexity_of_constraint_norms():
    plant, part, nb, bundle, param = toy_setup(seed=5)
    spec, builder = bootstrap_spec(plant, part, bundle, param)
    rng = np.random.default_rng(6)
    x1 = 0.2 * rng.standard_normal(param.n_free)
    x2 = 0.2 * rng.standard_normal(param.n_free)
    lam = 0.37
    (gd1, gu1, gc1), _ = constraint_norms(param, x1, spec, builder)
    (gd2, gu2, gc2), _ = constraint_norms(param, x2, spec, builder)
    (gdm, gum, gcm), _ = constraint_norms(param, lam * x1 + (1 - lam) * x2, spec, builder)
    assert np.all(gdm <= lam * gd1 + (1 - lam) * gd2 + 1e-8)
    assert np.all(gum <= lam * gu1 + (1 - lam) * gu2 + 1e-8)
    assert np.all(gcm <= lam * gc1 + (1 - lam) * gc2 + 1e-8)


# ---------------------------------------------------------------------------
# surrogate
# ---------------------------------------------------------------------------

def stacked(mats):
    """(n, r, r) matrices as the (r, r, n) stack the lambda_max kernel takes."""
    return np.moveaxis(np.asarray(mats), 0, -1)


def random_hermitian(rng, n, r):
    X = rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r))
    return X + np.conj(X.swapaxes(-1, -2))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_lambda_max_matches_eigvalsh_on_random_hermitian(r):
    rng = np.random.default_rng(20 + r)
    H = random_hermitian(rng, 500, r)
    X = rng.standard_normal((500, r, 2 * r)) + 1j * rng.standard_normal((500, r, 2 * r))
    gram = X @ np.conj(X.swapaxes(-1, -2))
    for mats in (H, gram):
        eig = np.linalg.eigvalsh(mats)
        scale = np.max(np.abs(eig), axis=-1)
        assert np.max(np.abs(_lambda_max(stacked(mats)) - eig[:, -1]) / scale) <= 1e-12


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_lambda_max_exact_cases(r):
    rng = np.random.default_rng(30 + r)
    c = np.array([2.5, -0.7, 1e-3, 4e3])
    scaled_eye = c[:, None, None] * np.eye(r)
    assert np.max(np.abs(_lambda_max(stacked(scaled_eye)) - c) / np.abs(c)) <= 1e-12
    v = rng.standard_normal((6, r)) + 1j * rng.standard_normal((6, r))
    rank_one = v[:, :, None] * np.conj(v[:, None, :])
    norms = np.sum(np.abs(v) ** 2, axis=1)
    assert np.max(np.abs(_lambda_max(stacked(rank_one)) - norms) / norms) <= 1e-12
    assert np.max(np.abs(_lambda_max(np.zeros((r, r, 3), dtype=complex)))) <= 1e-12


@pytest.mark.parametrize("r", [2, 3, 4])
def test_lambda_max_repeated_largest_eigenvalue(r):
    # the trigonometric cubic loses about sqrt(eps) at a double root
    rng = np.random.default_rng(40 + r)
    mats = []
    for _ in range(50):
        Q, _ = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
        top = rng.uniform(1.0, 3.0)
        lam = np.concatenate([[top, top], rng.uniform(-2.0, 0.5, r - 2)])
        mats.append((Q * lam) @ np.conj(Q.T))
    mats = np.array(mats)
    want = np.linalg.eigvalsh(mats)[:, -1]
    assert np.max(np.abs(_lambda_max(stacked(mats)) - want) / want) <= 1e-7


def block_target(spec, slot):
    """The target of the block in ``slot`` of [gamma_d; gamma_u; gamma_c]."""
    N = spec.n_areas
    if slot < N:
        return spec.t_d[slot]
    i, j = divmod((slot - N) % (N * N), N)
    return spec.target_u(i, j) if slot < N + N * N else spec.target_c(i, j)


def surrogate_model(bundle, part, param, spec, n_active=None):
    builder = MapsBuilder(bundle, part)
    maps0 = builder(q_from_x(param, np.zeros(param.n_free)))
    k = param.n_free if n_active is None else n_active
    return _SurrogateModel(bundle, param, part, spec, maps0, np.arange(k)), builder, maps0


def assert_blocks_tile_maps(model, maps0):
    """Every entry of F and I lies in exactly one block, as a stacked or a
    fixed column."""
    hits = [np.zeros(maps0.forced.shape, dtype=int), np.zeros(maps0.initial.shape, dtype=int)]
    for g in model.groups:
        for b in g.blocks:
            cols = np.concatenate([b.cols, b.fixed_cols])
            np.add.at(hits[b.source], (b.rows[:, None], cols[None, :]), 1)
    assert all(np.all(h == 1) for h in hits)


def realized_gaps(model, maps):
    """Relative gaps between the model's per-block stacks at ``x`` (already
    formed) and the same rows and columns of the realized maps minus the
    targets; and between the fixed Gram terms and the realized fixed columns."""
    resp = [frequency_response(m, model.zs) for m in (maps.forced, maps.initial)]
    want, want_fixed, got_fixed = [], [], []
    for g in model.groups:
        parts, grams = [], []
        for b in g.blocks:
            blk = resp[b.source][:, b.rows[:, None], b.cols]
            target = block_target(model.spec, b.slot)
            if target is not None:
                assert b.fixed_cols.size == 0
                blk = blk - frequency_response(target, model.zs)
            parts.append(blk.transpose(2, 1, 0) if b.transposed else blk.transpose(1, 2, 0))
            w = resp[b.source][:, b.rows[:, None], b.fixed_cols].transpose(1, 2, 0)
            grams.append(np.einsum("ikn,jkn->ijn", w, w.conj()))
        want.append(np.concatenate(parts, axis=-1))
        if g.fixed is not None:
            want_fixed.append(np.concatenate(grams, axis=-1))
            got_fixed.append(g.fixed)
    return want, want_fixed, got_fixed


def rel_gap(got, want):
    got, want = (np.concatenate([a.ravel() for a in arrs]) for arrs in (got, want))
    assert got.shape == want.shape
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_surrogate_matches_realized_maps_on_toy():
    plant, part, nb, bundle, param = toy_setup(seed=11)
    assert param.n_free
    spec, _ = bootstrap_spec(plant, part, bundle, param)
    model, builder, maps0 = surrogate_model(bundle, part, param, spec)
    assert_blocks_tile_maps(model, maps0)
    x = np.random.default_rng(12).standard_normal(param.n_free)
    want, _, _ = realized_gaps(model, builder(q_from_x(param, x)))
    # this toy's bank is empty at x = 0, so the blocks hold no controller-IC
    # columns; the plant-IC columns exist at both points
    assert maps0.n_w == 0
    assert rel_gap(model.stacks_at(x), want) <= 1e-6


@pytest.fixture(scope="module")
def mesh_model(grid_setup, grid_design):
    _, part, _ = grid_setup
    res = grid_design
    model, builder, maps0 = surrogate_model(res.pair.bundle, part, res.param, res.spec)
    return model, builder, maps0, res


def test_surrogate_matches_realized_maps_on_mesh(mesh_model):
    model, builder, maps0, res = mesh_model
    assert_blocks_tile_maps(model, maps0)
    x = np.random.default_rng(13).standard_normal(res.param.n_free)
    want, want_fixed, got_fixed = realized_gaps(model, builder(q_from_x(res.param, x)))
    assert rel_gap(model.stacks_at(x), want) <= 1e-6
    assert got_fixed and rel_gap(got_fixed, want_fixed) <= 1e-6


def grid_peak(resp, rows, cols, target, zs):
    blk = resp[:, rows[:, None], cols]
    if target is not None:
        blk = blk - frequency_response(target, zs)
    return np.max(np.linalg.svd(blk, compute_uv=False)[:, 0])


def test_surrogate_objective_matches_realized_grid_peaks_on_mesh(grid_setup, mesh_model):
    # every block weighted, no boxes: the surrogate objective at x is the sum
    # of grid-peak singular values of the realized blocks at x
    _, part, _ = grid_setup
    _, builder, maps0, res = mesh_model
    N = part.n_areas
    spec = replace(res.spec, tau_c=np.ones((N, N)), bound_slack=np.inf)
    spec = spec.with_bounds(np.zeros(N), np.zeros((N, N)), np.zeros((N, N)))
    model = _SurrogateModel(res.pair.bundle, res.param, part, spec, maps0,
                            np.arange(res.param.n_free))
    x = 0.3 * np.random.default_rng(14).standard_normal(res.param.n_free)
    maps = builder(q_from_x(res.param, x))
    zs, n_x, n_u = model.zs, maps.n_x, maps.n_u
    forced, initial = (frequency_response(m, zs) for m in (maps.forced, maps.initial))

    def area(p, i, tail):
        return np.concatenate([p.indices("x", i), n_x + p.indices(tail, i)])

    want = 0.0
    for i in range(N):
        rows = area(part, i, "u")
        want += grid_peak(forced, rows, np.concatenate([maps.column_block("beta_f"),
                                                        maps.column_block("d")]),
                          spec.t_d[i], zs)
        for j in range(N):
            want += grid_peak(forced, rows, area(part, j, "u"), spec.target_u(i, j), zs)
            want += grid_peak(initial, rows, area(maps.partition, j, "w"), spec.target_c(i, j), zs)
    assert model.objective_at(x) == pytest.approx(want, rel=1e-6)


def test_line_search_phi_matches_objective_at_on_mesh(mesh_model):
    model, _, _, res = mesh_model
    x = res.x.copy()
    for k in (0, 7, 20):
        phi = model.line(x, k)
        finite = 0
        for t in (-0.3, -0.01, 0.0, 0.004, 0.05, 1e4):
            e = np.zeros_like(x)
            e[k] = t
            before = model.n_evals
            got = phi(t)
            assert model.n_evals == before + 1
            want = model.objective_at(x + e)
            if np.isfinite(want):
                finite += 1
                assert abs(got - want) <= 1e-10 * abs(want)
            else:
                assert got == np.inf
        assert finite >= 2
        assert phi(1e4) == np.inf  # far outside the admissible boxes


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def test_zero_weights_return_bootstrap():
    plant, part, nb, bundle, param = toy_setup(seed=7)
    spec, _ = bootstrap_spec(plant, part, bundle, param)
    spec = replace(spec, tau_d=np.zeros(2), tau_u=np.zeros((2, 2)),
                   tau_c=np.zeros((2, 2)))
    res = solve(spec, param, bundle, part)
    assert np.all(res.x == 0.0)
    assert res.objective == 0.0


def test_one_basis_toy_matches_brute_force_scan():
    plant, part, nb, bundle, param = toy_setup(seed=8)
    single = QParametrization(param.q0_taps, param.basis[:1], param.fir_degree,
                              param.mode, param.residual, param.constraint_rank,
                              param.n_constraints)
    opts = OptimizerSettings(max_free_dims=1, n_starts=2, max_sweeps=4)
    # unboxed problem: this toy's bootstrap controller is empty, so finite
    # boxes built at x = 0 would not be comparable across the family
    spec, _ = bootstrap_spec(plant, part, bundle, single, slack=np.inf, optimizer=opts)
    res = solve(spec, single, bundle, part)
    objective = make_surrogate_objective(spec, single, bundle, part)
    ts = np.linspace(-2.0, 2.0, 10_001)
    vals = np.array([objective([t]) for t in ts])
    t_star = ts[int(np.argmin(vals))]
    step = ts[1] - ts[0]
    assert abs(res.x[0] - t_star) <= step + 1e-9
    assert objective([res.x[0]]) <= vals.min() + 1e-9


def test_objective_log_non_increasing():
    plant, part, nb, bundle, param = toy_setup(seed=9)
    spec, _ = bootstrap_spec(plant, part, bundle, param, slack=0.5)
    res = solve(spec, param, bundle, part)
    log = res.objective_log
    assert all(log[i + 1] <= log[i] + 1e-12 for i in range(len(log) - 1))


def test_decoupling_dominance_on_grid(grid_design):
    spec = grid_design.spec
    # admissible bounds came from the bootstrap; the box constraints keep
    # every cross-coupling norm at or below its bootstrap value
    offdiag = grid_design.gamma_u.copy()
    np.fill_diagonal(offdiag, 0.0)
    bars = spec.gamma_bar_u / (1.0 + spec.bound_slack)
    bootstrap_offdiag = bars.copy()
    np.fill_diagonal(bootstrap_offdiag, 0.0)
    assert np.sum(offdiag) <= np.sum(bootstrap_offdiag) + 1e-9


def test_bounds_respected_at_solution():
    plant, part, nb, bundle, param = toy_setup(seed=10)
    spec, _ = bootstrap_spec(plant, part, bundle, param, slack=0.2)
    res = solve(spec, param, bundle, part)
    assert np.all(res.gamma_d <= spec.gamma_bar_d * (1 + 1e-9) + 1e-12)
    assert np.all(res.gamma_u <= spec.gamma_bar_u * (1 + 1e-9) + 1e-12)
    assert np.all(res.gamma_c <= spec.gamma_bar_c * (1 + 1e-9) + 1e-12)


# ---------------------------------------------------------------------------
# full design procedure
# ---------------------------------------------------------------------------

def test_run_algorithm1_reports_sparsity_infeasibility():
    rng = np.random.default_rng(12)
    plant = random_stable_plant(rng, n=4, m=2, n_d=1)
    F = 0.05 * rng.standard_normal((2, 4))
    from conftest import shift_nilpotent
    L = shift_nilpotent(4) - plant.A
    part = build_partition([(2, 1), (2, 1)])
    nb = Neighborhoods((frozenset({0}), frozenset({0, 1})))
    cfg = AlgorithmConfig(q=2, gain_strategy="user_supplied", F=F, L=L)
    report = run_algorithm1(plant, part, nb, config=cfg)
    assert isinstance(report, AlgorithmReport)
    assert report.status == "sparsity_infeasible"
    assert "more compact area distribution" in report.message


def test_run_algorithm1_trivial_network_zero_gap():
    # decoupled double integrator chain: the defaults match almost exactly,
    # and targets set to the achieved maps give an exactly zero objective
    plant = Plant(np.diag([0.2, 0.1, 0.3, 0.15]), np.eye(4)[:, [0, 2]],
                  np.eye(4)[:, [1, 3]])
    part = build_partition([(2, 1), (2, 1)])
    nb = Neighborhoods.complete(2)
    res = run_algorithm1(plant, part, nb, config=AlgorithmConfig(q=2))
    builder = MapsBuilder(res.pair.bundle, part)
    maps = builder(res.q)
    t_d = tuple(area_block(maps, part, "disturbance", i) for i in range(2))
    t_u = tuple(area_block(maps, part, "coupling", i, i) for i in range(2))
    spec2 = replace(res.spec, t_d=t_d, t_u_diag=t_u)
    (gd, gu, gc), _ = constraint_norms(res.param, res.x, spec2, builder)
    assert np.max(gd) <= 1e-9
    assert gu[0, 0] <= 1e-9 and gu[1, 1] <= 1e-9


def test_run_algorithm1_grid_passes_all_hooks(grid_design):
    res = grid_design
    assert res.feasible
    assert res.x.shape[0] == res.param.n_free
    assert len(res.objective_log) >= 1
    assert res.maps.forced.shape == (15, 25)
    assert res.maps.initial.shape == (15, 10 + res.maps.n_w)
