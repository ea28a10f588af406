import importlib.util
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from dataclasses import replace

from hypothesis import given, strategies as st

from conftest import (
    DESIGN_SLACK,
    block_reach,
    deadbeat_bundle,
    held_direction_objective,
    q_linear_responses,
    random_stable_plant,
    refine_steps,
    structured_network,
    unprune,
)
from nrf_forge import cli
from nrf_forge import io as artifact_io
from nrf_forge.dcf import build_dcf, design_gains
from nrf_forge.closed_loop import area_block, matching_slots
from nrf_forge.lti import (
    _gram,
    _lambda_max,
    delay,
    evaluate,
    frequency_response,
    hinf_norm,
    make_realization,
    minimal,
    negate,
    parallel,
)
from nrf_forge import match_synth
from nrf_forge.match_synth import (
    AlgorithmConfig,
    AlgorithmReport,
    MapsBuilder,
    NORM_GRID,
    REFINE_PASSES,
    SynthesisSpec,
    _SurrogateModel,
    _block_layout,
    _norms_from_maps,
    constraint_norms,
    default_targets,
    run_algorithm1,
    solve,
)
from nrf_forge.partition import Neighborhoods, build_partition
from nrf_forge.plant import Plant
from nrf_forge.sparse_param import (
    QParametrization,
    _assemble_system,
    _to_q_taps,
    build_parametrization,
    pattern_from_neighborhoods,
    q_from_x,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios.py"


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
    param = build_parametrization(bundle, pat, q=3)
    assert isinstance(param, QParametrization)
    return plant, part, nb, bundle, param


def bootstrap_spec(plant, part, bundle, param, slack=1.0):
    spec = default_targets(part, plant.n_d)
    builder = MapsBuilder(bundle, part)
    gamma, _ = constraint_norms(param, np.zeros(param.n_free), spec, builder)
    return spec.with_bounds(gamma, slack), builder


# ---------------------------------------------------------------------------
# specs and defaults
# ---------------------------------------------------------------------------

def test_default_targets_decoupling_settings():
    part = build_partition([(2, 1)] * 5)
    spec = default_targets(part, n_d=5)
    slots = matching_slots(5)
    assert len(spec.targets) == spec.tau.size == len(slots) == 55
    for (kind, i, j), t, tau in zip(slots, spec.targets, spec.tau):
        assert tau == (0.0 if kind == "init" else 1.0)
        if (kind, i) != ("coupling", j):
            assert t is None
            continue
        assert t.shape == (3, 3)
        for z in (2.0, -1.5):
            assert np.allclose(evaluate(t, z), np.eye(3) / z)


@pytest.mark.parametrize("change, error", [
    (lambda targets, tau: (targets[:-1], tau), "one entry per slot"),
    (lambda targets, tau: (targets, tau[:-1]), "one entry per slot"),
    (lambda targets, tau: (targets, tau.reshape(2, 5)), "one entry per slot"),
    (lambda targets, tau: (targets, np.where(np.arange(10) == 3, -0.5, tau)), "nonnegative"),
    # slot 3 is coupling (1, 2): area 1's response to area 2's commands
    (lambda targets, tau: (targets[:3] + (delay(3),) + targets[4:], tau), r"gamma_u\[1,2\] is a cross-area"),
], ids=["short_targets", "short_weights", "weight_matrix", "negative_weight", "cross_area_target"])
def test_spec_rejects_what_no_slot_can_hold(change, error):
    spec = default_targets(build_partition([(2, 1), (2, 1)]), n_d=1)
    assert matching_slots(2)[3] == ("coupling", 0, 1)
    with pytest.raises(ValueError, match=error):
        SynthesisSpec(2, *change(spec.targets, spec.tau))


def test_default_targets_rejects_unbounded_tracking_target():
    spec = default_targets(build_partition([(2, 1), (2, 1)]), n_d=1)
    bad = make_realization([[1.4]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(ValueError, match="bounded"):
        SynthesisSpec(2, (bad,) + spec.targets[1:], spec.tau)


def test_quadratic_norm_rejected_clearly(tmp_path, capsys):
    # the norm is checked where it comes in: a config's synthesis block
    assert cli.main(["example-grid", "--out", str(tmp_path)]) == 0
    path = str(tmp_path / "config.json")
    cfg = artifact_io.load_document(path)
    cfg["synthesis"]["norm"] = "h2"
    artifact_io.dump_document(cfg, path)
    capsys.readouterr()
    assert cli.main(["design", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "configuration error: only the 'hinf' norm is supported at v1; "
        "the quadratic-norm route is out of scope"]


def test_decouple_and_track_validates_shapes():
    part = build_partition([(2, 1), (2, 1)])
    with pytest.raises(Exception):
        default_targets(part, n_d=1, mode="decouple_and_track",
                        t_d=[delay(2), None])  # wrong shape: needs (3, 3)


# ---------------------------------------------------------------------------
# constraint norms
# ---------------------------------------------------------------------------

def test_bootstrap_is_always_feasible():
    plant, part, nb, bundle, param = toy_setup(seed=1)
    spec, builder = bootstrap_spec(plant, part, bundle, param, slack=0.0)
    gamma, _ = constraint_norms(param, np.zeros(param.n_free), spec, builder)
    assert np.all(gamma <= spec.gamma_bar + 1e-12)


def test_perfect_target_gives_zero_norm():
    plant, part, nb, bundle, param = toy_setup(seed=2)
    spec, builder = bootstrap_spec(plant, part, bundle, param)
    maps = builder(q_from_x(param, np.zeros(param.n_free)))
    achieved = area_block(maps, part, "disturbance", 0)
    assert matching_slots(2)[0] == ("disturbance", 0, None)
    spec2 = replace(spec, targets=(achieved,) + spec.targets[1:])
    gamma, _ = constraint_norms(param, np.zeros(param.n_free), spec2, builder)
    assert gamma[0] <= 1e-10


def test_norm_matches_dense_grid_oracle():
    plant, part, nb, bundle, param = toy_setup(seed=3)
    spec, builder = bootstrap_spec(plant, part, bundle, param)
    x = 0.1 * np.ones(param.n_free)
    gamma, maps = constraint_norms(param, x, spec, builder)
    # independent dense-grid evaluation of one coupling norm
    blk = area_block(maps, part, "coupling", 0, 1)
    zs = np.exp(2j * np.pi * np.arange(8192) / 8192)
    vals = frequency_response(blk, zs)
    brute = float(np.max(np.linalg.svd(vals, compute_uv=False)[:, 0]))
    assert gamma[matching_slots(2).index(("coupling", 0, 1))] == pytest.approx(brute, rel=1e-6, abs=1e-9)


def test_reported_values_equal_recomputation():
    plant, part, nb, bundle, param = toy_setup(seed=4)
    spec, builder = bootstrap_spec(plant, part, bundle, param)
    res = solve(spec, param, bundle, part)
    gamma, _ = constraint_norms(param, res.x, spec, builder)
    assert np.max(np.abs(res.gamma - gamma)) <= 1e-9


def test_convexity_of_constraint_norms():
    plant, part, nb, bundle, param = toy_setup(seed=5)
    spec, builder = bootstrap_spec(plant, part, bundle, param)
    rng = np.random.default_rng(6)
    x1 = 0.2 * rng.standard_normal(param.n_free)
    x2 = 0.2 * rng.standard_normal(param.n_free)
    lam = 0.37
    g1, _ = constraint_norms(param, x1, spec, builder)
    g2, _ = constraint_norms(param, x2, spec, builder)
    gm, _ = constraint_norms(param, lam * x1 + (1 - lam) * x2, spec, builder)
    assert np.all(gm <= lam * g1 + (1 - lam) * g2 + 1e-8)


def mesh_maps(grid_setup, grid_design, scale, seed=21):
    """The mesh design's maps and certified norms at ``scale`` times a
    random direction of the free coefficients."""
    _, part, _ = grid_setup
    res = grid_design
    x = scale * np.random.default_rng(seed).standard_normal(res.param.n_free)
    gamma, maps = constraint_norms(res.param, x, res.spec, MapsBuilder(res.pair.bundle, part))
    return gamma, maps, part, res.spec


def block_difference(maps, part, spec, slot):
    """A minimal realization of the block in ``slot`` minus its target."""
    blk = area_block(maps, part, *matching_slots(spec.n_areas)[slot])
    target = spec.targets[slot]
    return blk if target is None else minimal(parallel(blk, negate(target)))


@pytest.mark.parametrize("scale", [0.0, 1e-3])
def test_certificate_matches_per_block_route_on_mesh(grid_setup, grid_design, scale):
    got, maps, part, spec = mesh_maps(grid_setup, grid_design, scale)
    want = np.array([
        hinf_norm(block_difference(maps, part, spec, slot), grid_points=NORM_GRID,
                  refine_passes=REFINE_PASSES, check_bounded=False)
        for slot in range(got.size)])
    assert np.all(np.abs(got - want) <= 1e-6 * want + 1e-9)


def test_certificate_matches_dense_scan_on_mesh(grid_setup, grid_design):
    got, maps, part, spec = mesh_maps(grid_setup, grid_design, 1e-3)
    # the upper half (both ends included) of a 2^17-point circle grid: a real
    # map repeats its singular values at conjugate points
    zs = np.exp(2j * np.pi * np.arange(2 ** 16 + 1) / 2 ** 17)
    # a disturbance block, an own-command block with its delay target, a
    # cross-coupling block and an initial-condition block
    for slot in map(matching_slots(spec.n_areas).index, [
            ("disturbance", 2, None), ("coupling", 1, 1), ("coupling", 3, 4), ("init", 2, 1)]):
        resp = frequency_response(block_difference(maps, part, spec, slot), zs)
        scan = np.max(np.linalg.svd(resp, compute_uv=False)[:, 0])
        assert abs(got[slot] - scan) <= 1e-6 * scan


def test_certificate_makes_no_minimal_call(grid_setup, grid_design, monkeypatch):
    import sys
    import nrf_forge.lti as lti

    _, maps, part, spec = mesh_maps(grid_setup, grid_design, 1e-3)
    calls = []
    real = lti.minimal
    for name, mod in list(sys.modules.items()):
        if name.startswith("nrf_forge") and getattr(mod, "minimal", None) is real:
            monkeypatch.setattr(mod, "minimal", lambda R, *a, **k: calls.append(R) or real(R, *a, **k))
    gammas = _norms_from_maps(maps, spec, part)
    assert calls == []
    assert all(np.all(np.isfinite(g)) for g in gammas)


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


def surrogate_model(bundle, part, param, spec):
    builder = MapsBuilder(bundle, part)
    bootstrap = constraint_norms(param, np.zeros(param.n_free), spec, builder)
    return _SurrogateModel(bundle, param, part, spec, bootstrap, np.arange(param.n_free)), builder, bootstrap[1]


def walk(model, x):
    """Take the model from its origin to x, one line per nonzero coordinate."""
    model.origin()
    for k in np.flatnonzero(x):
        model.line(k)
        model.move(x[k])


def held_gammas(model):
    """The gamma vector at the model's held point: phi(0) of a fresh line."""
    seen, real = [], model.objective
    model.objective = lambda gamma: seen.append(gamma) or real(gamma)
    try:
        model.line(0)(0.0)
    finally:
        del model.objective
    return seen[0]


def assert_blocks_tile_maps(model, maps0):
    """Every entry of the loop map [F | I] lies in exactly one block, as a
    stacked or a fixed column."""
    hits = np.zeros(maps0.loop.shape, dtype=int)
    for g in model.groups:
        for b in g.blocks:
            cols = np.concatenate([b.cols, b.fixed_cols])
            np.add.at(hits, (b.rows[:, None], cols[None, :]), 1)
    assert np.all(hits == 1)


def panel_responses(maps, zs):
    """The loop map's values on ``zs``, from LU responses of its forced and
    initial panels apart."""
    return np.concatenate([frequency_response(maps.forced, zs), frequency_response(maps.initial, zs)], axis=2)


def block_stacks(model, resp):
    """Per group, the stack the model holds for the loop response ``resp``
    (G, rows, cols): its blocks' rows and columns minus the targets, laid
    out as the model lays them out.  Also the Gram terms of ``resp``'s fixed
    columns, and the model's own fixed terms to compare them with."""
    want, want_fixed, got_fixed = [], [], []
    for g in model.groups:
        parts, grams = [], []
        for b in g.blocks:
            blk = resp[:, b.rows[:, None], b.cols]
            target = model.spec.targets[b.slot]
            if target is not None:
                assert b.fixed_cols.size == 0
                blk = blk - frequency_response(target, model.zs)
            parts.append(blk.transpose(2, 1, 0) if b.transposed else blk.transpose(1, 2, 0))
            w = resp[:, b.rows[:, None], b.fixed_cols].transpose(1, 2, 0)
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
    want, _, _ = block_stacks(model, panel_responses(builder(q_from_x(param, x)), model.zs))
    # this toy's bank is empty at x = 0, so the blocks hold no controller-IC
    # columns; the plant-IC columns exist at both points
    assert maps0.n_w == 0
    walk(model, x)
    assert rel_gap(model._stacks, want) <= 1e-6


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
    want, want_fixed, got_fixed = block_stacks(model, panel_responses(builder(q_from_x(res.param, x)), model.zs))
    walk(model, x)
    assert rel_gap(model._stacks, want) <= 1e-6
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
    shared, builder, maps0, res = mesh_model
    N, slots = part.n_areas, matching_slots(part.n_areas)
    spec = replace(res.spec, tau=np.ones(len(slots)))
    spec = spec.with_bounds(np.zeros(len(slots)), np.inf)
    model = _SurrogateModel(res.pair.bundle, res.param, part, spec, (shared.gamma0, maps0),
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
                          spec.targets[slots.index(("disturbance", i, None))], zs)
        for j in range(N):
            want += grid_peak(forced, rows, area(part, j, "u"),
                              spec.targets[slots.index(("coupling", i, j))], zs)
            want += grid_peak(initial, rows, area(maps.partition, j, "w"),
                              spec.targets[slots.index(("init", i, j))], zs)
    walk(model, x)
    assert model.line(0)(0.0) == pytest.approx(want, rel=1e-6)


def test_line_search_phi_matches_held_direction_oracle_on_mesh(mesh_model):
    model, _, _, res = mesh_model
    objective = held_direction_objective(model)
    x = res.x.copy()
    walk(model, x)
    for k in (0, 7, 20):
        phi = model.line(k)
        finite = 0
        for t in (-0.3, -0.01, 0.0, 0.004, 0.05, 1e4):
            e = np.zeros_like(x)
            e[k] = t
            before = model.n_evals
            got = phi(t)
            assert model.n_evals == before + 1
            want = objective(x + e)
            if np.isfinite(want):
                finite += 1
                assert abs(got - want) <= 1e-10 * abs(want)
            else:
                assert got == np.inf
        assert finite >= 2
        assert phi(1e4) == np.inf  # far outside the admissible boxes


def dense_reference(model, bundle, param, part, maps0, x, lines):
    """The affine surrogate built straight from ``q_linear_responses``,
    moving every block with every direction.

    Returns the gamma vector of peaks at x, the peaks at
    x + t e_k as a function of (k, t) for k in ``lines``, rel[k, slot]:
    the block's largest |entry| along direction k over the largest |entry| of
    all of k's responses (``conftest.block_reach``), and the loop response
    at x + t e_k as a function of (k, t), at x with no arguments.  The base is the LU
    responses of the forced and initial panels (:func:`panel_responses`);
    direction responses leave the w_c columns at zero.
    """
    zs = model.zs
    layout = _block_layout(model.spec, part, maps0)
    at_x = panel_responses(maps0, zs)
    along = {}
    rel = np.empty((param.n_free, len(layout)))
    for k, resp_k in enumerate(q_linear_responses(bundle, param.basis, zs)):
        resp = np.zeros_like(at_x)
        resp[:, :, :resp_k.shape[2]] = resp_k
        rel[k] = block_reach(maps0, part, resp_k)
        at_x += x[k] * resp
        if k in lines:
            along[k] = resp

    def peaks(resp):
        vals = np.empty(len(layout))
        for slot, rows, cols, target in layout:
            W = resp[:, rows[:, None], cols]
            if target is not None:
                W = W - frequency_response(target, zs)
            Wh = W.conj().swapaxes(1, 2)
            H = W @ Wh if cols.size >= rows.size else Wh @ W
            vals[slot] = np.sqrt(max(np.max(_lambda_max(np.moveaxis(H, 0, -1))), 0.0))
        return vals

    def response(k=None, t=0.0):
        return at_x if k is None else at_x + t * along[k]

    return peaks(at_x), lambda k, t: peaks(response(k, t)), rel, response


def build_dense_case(part, bundle, param, spec):
    """A surrogate over every free direction, every block weighted and no
    boxes, at a random x, with its dense reference."""
    K = param.n_free
    spec = replace(spec, tau=np.ones_like(spec.tau))
    spec = spec.with_bounds(np.zeros_like(spec.tau), np.inf)
    model, _, maps0 = surrogate_model(bundle, part, param, spec)
    x = 0.3 * np.random.default_rng(15).standard_normal(K)
    lines = (0, K // 2, K - 1)
    ref = dense_reference(model, bundle, param, part, maps0, x, lines)
    return part, model, x, lines, ref


@pytest.fixture(scope="module")
def mesh_dense(grid_setup, grid_design):
    res = grid_design
    return build_dense_case(grid_setup[1], res.pair.bundle, res.param, res.spec)


@pytest.fixture(scope="module")
def ring_dense(ring_setup, ring_design):
    res = ring_design
    return build_dense_case(ring_setup[1], res.pair.bundle, res.param, res.spec)


@pytest.fixture(scope="module")
def grouped_dense(grid_setup):
    """The mesh with nodes 1-3 as one area, so that a block of that area's
    rows is transposed and still has controller-IC columns, which no
    direction moves."""
    plant = grid_setup[0]
    part = build_partition([(6, 3), (2, 1), (2, 1)])
    F, L = design_gains(plant, part, "block_diagonalizing_F_deadbeat_L", None, None)
    bundle = build_dcf(plant, F, L)
    param = build_parametrization(bundle, pattern_from_neighborhoods(part, Neighborhoods.complete(3)), 2)
    case = build_dense_case(part, bundle, param, default_targets(part, plant.n_d))
    n_q = 2 * plant.n_x + 2 * plant.n_u + plant.n_d   # the loop's d_s and x_c columns
    assert any(b.transposed and np.any(b.cols >= n_q) for g in case[1].groups for b in g.blocks)
    return case


@pytest.fixture(params=["mesh", "ring", "grouped"])
def dense_case(request):
    return request.getfixturevalue(f"{request.param}_dense")


@pytest.mark.parametrize("network", ["mesh", "ring", "grouped"])
def test_sparse_surrogate_matches_dense_reference(request, network):
    _, model, x, lines, (want, on_line, _, response) = request.getfixturevalue(f"{network}_dense")
    # the reference reads the structural zeros at round-off; the model holds them at 0
    zero = ~model.support
    weights = model.spec.tau * model.support
    walk(model, x)
    assert rel_gap(model._stacks, block_stacks(model, response())[0]) <= 1e-12
    got = held_gammas(model)
    assert np.all(got[zero] == 0.0) and np.max(want[zero], initial=0.0) <= 1e-9
    assert np.max(np.abs(got - want * model.support)) <= 1e-12 * np.max(want)
    assert model.line(0)(0.0) == pytest.approx(weights @ want, rel=1e-12, abs=0.0)
    for k in lines:
        phi = model.line(k)
        for t in (-0.4, 0.02, 0.7):
            assert phi(t) == pytest.approx(weights @ on_line(k, t), rel=1e-12, abs=0.0)
            assert np.max(on_line(k, t)[zero], initial=0.0) <= 1e-9
        model.move(0.02)  # an accepted move along k; a second line moves back
        assert rel_gap(model._stacks, block_stacks(model, response(k, 0.02))[0]) <= 1e-12
        assert model.line(k)(0.0) == pytest.approx(weights @ on_line(k, 0.02), rel=1e-12, abs=0.0)
        model.move(-0.02)


def test_sparse_surrogate_drops_only_round_off_pairs(dense_case):
    """A block the structural rule holds fixed reads round-off along every
    direction; a block it moves reaches far above round-off along some."""
    _, model, _, _, (_, _, rel, _) = dense_case
    assert np.max(rel[:, ~model.moving], initial=0.0) <= 1e-13
    assert np.min(rel[:, model.moving].max(axis=0)) >= 1e-7


def test_surrogate_direction_stores_only_moving_blocks(dense_case):
    _, model, _, _, _ = dense_case
    moving = set(np.flatnonzero(model.moving))
    assert {int(s) for g in model.groups if g.gather is not None for s in g.slots} == moving
    for k in range(len(model.taps)):
        stacks = model._moving_stacks(model.taps[k])
        assert sum(d.nbytes for _, d in stacks) == sum(
            model.groups[gi].base.nbytes for gi, _ in stacks)
        assert sum(model.groups[gi].slots.size for gi, _ in stacks) == len(moving)


def test_ring_far_blocks_do_not_move(ring_dense):
    part, model, _, _, _ = ring_dense
    N = part.n_areas
    far = {s for s, (_, i, j) in enumerate(matching_slots(N))
           if j is not None and min(abs(i - j), N - abs(i - j)) >= 3}
    assert len(far) == 48
    assert not far & set(np.flatnonzero(model.moving))
    # no disturbance block moves: 80 of the 88 blocks that are not structural zeros
    assert not model.moving[:N].any() and model.moving.sum() == 80 and model.support.sum() == 88


@pytest.mark.parametrize("network", ["grid", "ring"])
def test_solve_holds_one_direction_at_a_time(request, monkeypatch, network):
    """During a whole search the model holds at most one direction's stacks:
    a line releases the previous line's before it forms its own.  Each
    direction's stacks, formed on demand from the factors, equal bit for bit
    the stacks gathered from ``q_linear_responses``.  Both networks are
    designed at bound slack 0.25, where lines get past their peak samples
    (at slack 0 the ring forms no line on the grid)."""
    plant, part, nb = request.getfixturevalue(f"{network}_setup")
    res = (request.getfixturevalue("grid_design") if network == "grid"
           else run_algorithm1(plant, part, nb, config=AlgorithmConfig(bound_slack=0.25)))
    models, forming, live = [], [], []   # live: (formation, weak reference to a stack)
    real_stacks, real_gather = _SurrogateModel._moving_stacks, match_synth._gather

    def held_formations():
        return {n for n, ref in live if ref() is not None}

    def moving_stacks(self, taps):
        assert not held_formations()
        models.append(self)
        forming.append(len(models))
        try:
            return real_stacks(self, taps)
        finally:
            assert held_formations() <= {forming.pop()}

    def gather(*args):
        assert held_formations() <= {forming[-1]}
        out = real_gather(*args)
        live.append((forming[-1], weakref.ref(out)))
        return out

    monkeypatch.setattr(_SurrogateModel, "_moving_stacks", moving_stacks)
    monkeypatch.setattr(match_synth, "_gather", gather)
    again = solve(res.spec, res.param, res.pair.bundle, part)
    assert np.array_equal(again.x, res.x) and again.n_evals == res.n_evals
    assert models and all(m is models[0] for m in models) and len({n for n, _ in live}) > 1
    monkeypatch.undo()
    model, G = models[0], models[0].zs.size
    responses = q_linear_responses(res.pair.bundle, model.taps, model.zs)
    for k, resp in enumerate(responses):
        flat = np.concatenate([resp.reshape(G, -1).T, np.zeros((1, G))])
        for gi, d in model._moving_stacks(model.taps[k]):
            assert np.array_equal(d, flat[model.groups[gi].gather])


@given(st.integers(1, 4), st.floats(0.05, 5.0), st.integers(0, 2**32 - 1))
def test_probe_through_cancellation_equals_every_point(r, t0, seed):
    """Along B + t d with d = -B / t0 the Grams cancel to round-off at t0,
    where they are not positive semidefinite; two members of one side match
    a sum over every point bit for bit at t0 and nearby."""
    rng = np.random.default_rng(seed)
    members = []
    for t, blocks in ((3, 4), (1, 2)):
        B = rng.standard_normal((r, t, blocks, 64)) + 1j * rng.standard_normal((r, t, blocks, 64))
        d = -B / t0
        cross = _gram(B, d)
        members.append((_gram(B, B), cross + cross.conj().swapaxes(0, 1), _gram(d, d)))
    peaks = match_synth._gram_sum(members)
    for t in (t0, t0 * (1 + 1e-9), 0.0):
        full = []
        for g0, g1, g2 in members:
            H = g2 * t
            H += g1
            H *= t
            H += g0
            full.append(np.sqrt(np.maximum(_lambda_max(H).max(axis=-1), 0.0)))
        assert np.array_equal(peaks(t, np.zeros(2, dtype=np.int64))[0], np.concatenate(full))


def test_probes_take_few_lambda_max(mesh_model):
    model, _, _, res = mesh_model
    walk(model, res.x)
    model.lambda_points[:] = 0
    phi = model.line(3)
    for t in (-0.1, 0.01, 0.2):
        phi(t)
    taken, bracketed = model.lambda_points
    assert 0 < taken <= 0.2 * bracketed


def test_search_leaves_the_model_at_its_point(grid_setup, mesh_model):
    """The search's held point is its x: a fresh line along any direction
    reads the search's f* at t = 0."""
    shared, _, maps0, res = mesh_model
    model = _SurrogateModel(res.pair.bundle, res.param, grid_setup[1], res.spec,
                            (shared.gamma0, maps0), np.arange(match_synth.MAX_FREE_DIMS))
    log = []
    x, f_star = match_synth._pattern_search(model, log)
    assert np.count_nonzero(x) and np.array_equal(x, res.x[:x.size]) and log == res.objective_log
    for k in range(x.size):
        assert model.line(k)(0.0) == pytest.approx(f_star, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("network", ["grid", "ring"])
def test_design_equals_unpruned_design_byte_for_byte(request, network, monkeypatch, tmp_path):
    pruned = request.getfixturevalue(f"{network}_design")
    plant, part, nb = request.getfixturevalue(f"{network}_setup")
    unprune(monkeypatch)
    reference = run_algorithm1(plant, part, nb, config=AlgorithmConfig(
        bound_slack=DESIGN_SLACK[network]))
    for result, sub in ((pruned, "pruned"), (reference, "reference")):
        (tmp_path / sub).mkdir()
        cli._write_synthesis_report(result, str(tmp_path / sub))
    for name in ("gamma_table.csv", "objective_trace.csv"):
        assert (tmp_path / "pruned" / name).read_bytes() == (tmp_path / "reference" / name).read_bytes()


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def test_zero_weights_return_bootstrap():
    plant, part, nb, bundle, param = toy_setup(seed=7)
    spec, _ = bootstrap_spec(plant, part, bundle, param)
    spec = replace(spec, tau=np.zeros_like(spec.tau))
    res = solve(spec, param, bundle, part)
    assert np.all(res.x == 0.0)
    assert res.objective == 0.0
    assert res.n_evals == 0  # no surrogate was built


def test_one_basis_toy_matches_brute_force_scan():
    plant, part, nb, bundle, param = toy_setup(seed=8)
    single = QParametrization(param.q0_taps, param.basis[:1], param.fir_degree,
                              param.residual, param.constraint_rank, param.n_constraints,
                              param.pattern, param.support, param.free_p)
    # unboxed problem: this toy's bootstrap controller is empty, so finite
    # boxes built at x = 0 would not be comparable across the family
    spec, _ = bootstrap_spec(plant, part, bundle, single, slack=np.inf)
    res = solve(spec, single, bundle, part)
    objective = held_direction_objective(surrogate_model(bundle, part, single, spec)[0])
    ts = np.linspace(-2.0, 2.0, 10_001)
    vals = np.array([objective([t]) for t in ts])
    t_star = ts[int(np.argmin(vals))]
    step = ts[1] - ts[0]
    assert abs(res.x[0] - t_star) <= step + 1e-9
    assert objective([res.x[0]]) <= vals.min() + 1e-9


def row_local_basis(bundle, pattern, q):
    """The free directions of ``build_parametrization``, built one controller
    row at a time: each row's null space of its own matching equations,
    orthonormalised in Q space within the row, rows in order.  Q's rows
    depend only on P's same rows, so the basis is orthonormal."""
    mat, _ = _assemble_system(bundle, pattern, q)
    n_u, n_x, A_L = bundle.n_u, bundle.n_x, bundle.observer_pencil()
    row_of = (np.arange(mat.shape[1]) // n_x) % n_u   # unknowns are tap-major, then row-major
    basis = []
    for row in range(n_u):
        cols = np.flatnonzero(row_of == row)
        null = scipy.linalg.null_space(mat[np.ix_(np.any(mat[:, cols] != 0, axis=1), cols)])
        if null.shape[1]:
            flat = np.zeros((null.shape[1], mat.shape[1]))
            flat[:, cols] = null.T
            taps = np.stack([_to_q_taps(v, q, n_u, n_x, A_L).ravel() for v in flat])
            _, sv, vt = np.linalg.svd(taps, full_matrices=False)
            basis.append(vt[sv > 1e-12 * sv[0]])
    return np.concatenate(basis).reshape(-1, q, n_u, n_x)


def boxed_ring():
    """perfbench's ring8-boxed scenario, ``scenarios.ring_config(8, 8)``
    (read, not changed): its document, plant, partition and neighbourhoods."""
    spec_ = importlib.util.spec_from_file_location("perfbench_scenarios", SCENARIOS)
    scenarios = importlib.util.module_from_spec(spec_)
    spec_.loader.exec_module(scenarios)
    cfg = scenarios.ring_config(8, 8)
    plant = Plant(*(np.array(cfg["plant"][k]) for k in ("A", "B_u", "B_d")))
    return (cfg, plant, *artifact_io.partition_from_doc(cfg["partition"], cfg["neighborhoods"]))


def test_surrogate_bounds_certify_a_moving_search_on_the_boxed_ring():
    """perfbench's ring8-boxed (slack 0) under a row-local basis of the same
    family: the search moves, and each block's surrogate bound, measured on
    the surrogate's own samples at x = 0, keeps its point certified.  Were
    the admissible bounds the surrogate's, the search would spend headroom
    that exists only on the surrogate's grid, and its point would fail its
    certificate (x = 0 after 515 evaluations)."""
    cfg, plant, part, nb = boxed_ring()
    F, L = design_gains(plant, part, "block_diagonalizing_F_deadbeat_L", None, None)
    bundle = build_dcf(plant, F, L)
    pattern = pattern_from_neighborhoods(part, nb)
    q = cfg["synthesis"]["q"]
    param = build_parametrization(bundle, pattern, q)
    basis = row_local_basis(bundle, pattern, q)
    flat, flat0 = basis.reshape(basis.shape[0], -1), param.basis.reshape(param.n_free, -1)
    assert flat.shape == flat0.shape and np.max(np.abs(flat0 - flat0 @ flat.T @ flat)) <= 1e-12
    local = replace(param, basis=basis)
    spec = default_targets(part, plant.n_d)
    bootstrap = constraint_norms(local, np.zeros(local.n_free), spec, MapsBuilder(bundle, part))
    spec = spec.with_bounds(bootstrap[0], cfg["synthesis"]["bound_slack"])
    res = solve(spec, local, bundle, part, bootstrap)
    assert res.search_certified and np.count_nonzero(res.x) == 3
    at_origin = float(spec.tau @ bootstrap[0])   # 178.201216042
    assert res.objective == pytest.approx(178.129832855, rel=1e-9) and res.objective < at_origin


def grid_formations(monkeypatch) -> list:
    """One entry per direction the surrogate forms on the grid from here on."""
    formed, real = [], _SurrogateModel._moving_stacks
    monkeypatch.setattr(_SurrogateModel, "_moving_stacks",
                        lambda self, taps: formed.append(self) or real(self, taps))
    return formed


def test_boxed_ring_refuses_every_probe_on_its_peak_samples(monkeypatch, grid_setup, grid_design):
    """On ring8-boxed every probe breaks some block's bound at the block's
    held peak point, so no line forms its direction on the grid; on the
    mesh design every line gets past its samples.  ``lines_formed`` counts
    the formations."""
    formed, models = grid_formations(monkeypatch), []
    search = match_synth._pattern_search
    monkeypatch.setattr(match_synth, "_pattern_search", lambda model, log: models.append(model) or search(model, log))
    cfg, plant, part, nb = boxed_ring()
    res = run_algorithm1(plant, part, nb, config=AlgorithmConfig(
        q=cfg["synthesis"]["q"], bound_slack=cfg["synthesis"]["bound_slack"]))
    assert not formed and models[0].lines_formed == 0
    assert not np.any(res.x) and res.n_evals == 49
    again = solve(grid_design.spec, grid_design.param, grid_design.pair.bundle, grid_setup[1])
    assert len(formed) == models[1].lines_formed == 24
    assert np.array_equal(again.x, grid_design.x) and again.n_evals == grid_design.n_evals == 315


@pytest.mark.parametrize("network", ["mesh", "grouped"])
def test_peak_samples_are_the_grid_values_at_the_peak_points(request, network):
    """Each moving block's sample along a line equals, bit for bit, the
    value the line's grid evaluation forms at the block's held peak point,
    at x = 0 and after a move; at x = 0 and t = 0 it is the block's peak.
    The grouped mesh has Gram sides of 8 and 9, whose lambda_max LAPACK takes."""
    model = request.getfixturevalue("mesh_model")[0] if network == "mesh" else request.getfixturevalue(
        "grouped_dense")[1]
    model.origin()
    for k, step in ((0, 0.3), (1, None)):
        model.line(k)
        samples = model._samples
        model._form_line()
        for t in (0.0, 0.3, -1e-3):
            got, want = np.zeros(model.support.size), np.zeros(model.support.size)
            for slots, terms in samples:
                got[slots] = np.sqrt(np.maximum(_lambda_max(match_synth._horner(terms, t)), 0.0))
            for gi, d in model._line:
                g = model.groups[gi]
                p = model._at[g.slots]
                terms = match_synth._line_terms(model._grams[gi], model._stacks[gi], d)
                want[g.slots] = np.sqrt(np.maximum(_lambda_max(match_synth._horner(
                    [T[:, :, np.arange(p.size), p] for T in terms], t)), 0.0))
            assert np.array_equal(got, want) and np.any(got)
            if k == 0 and t == 0.0:
                assert np.array_equal(got[model.moving], model._vals[model.moving])
        if step is not None:
            model.move(step)


def test_peak_sample_refusal_changes_no_search(monkeypatch, grid_setup):
    """A probe refused on the held peak samples is one the grid evaluation
    refuses too.  On the structured networks of seeds 0 and 6 (the
    feasible seeds of 0-7 at q = 2 but seed 4, whose 6 x 6 Gram sides take
    3-6 s a search), the mesh and ring8-boxed, each at bound slack 0 and
    0.25, a search with the refusal switched off (each line formed on the
    grid as it opens) returns the same x, evaluation count and objective
    log, bit for bit; the samples refuse some lines."""
    formed = grid_formations(monkeypatch)
    real_line = _SurrogateModel.line

    def eager_line(self, k):
        phi = real_line(self, k)
        self._form_line()
        return phi

    lines = np.zeros(2, dtype=int)   # lines formed on the grid: shipped, eager
    for plant, part, nb in [structured_network(0), structured_network(6), grid_setup, boxed_ring()[1:]]:
        F, L = design_gains(plant, part, "block_diagonalizing_F_deadbeat_L", None, None)
        bundle = build_dcf(plant, F, L)
        param = build_parametrization(bundle, pattern_from_neighborhoods(part, nb), 2)
        spec = default_targets(part, plant.n_d)
        bootstrap = constraint_norms(param, np.zeros(param.n_free), spec, MapsBuilder(bundle, part))
        for slack in (0.0, 0.25):
            bounded = spec.with_bounds(bootstrap[0], slack)
            shipped = solve(bounded, param, bundle, part, bootstrap)
            lines[0] += len(formed)
            formed.clear()
            with monkeypatch.context() as m:
                m.setattr(_SurrogateModel, "line", eager_line)
                eager = solve(bounded, param, bundle, part, bootstrap)
            lines[1] += len(formed)
            formed.clear()
            assert np.array_equal(shipped.x, eager.x) and shipped.n_evals == eager.n_evals
            assert shipped.objective_log == eager.objective_log
    assert lines[0] < lines[1]


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
    cross = np.array([kind == "coupling" and i != j for kind, i, j in matching_slots(spec.n_areas)])
    bootstrap = spec.gamma_bar / (1.0 + DESIGN_SLACK["grid"])
    assert np.sum(grid_design.gamma[cross]) <= np.sum(bootstrap[cross]) + 1e-9


def test_bounds_respected_at_solution():
    plant, part, nb, bundle, param = toy_setup(seed=10)
    spec, _ = bootstrap_spec(plant, part, bundle, param, slack=0.2)
    res = solve(spec, param, bundle, part)
    assert np.all(res.gamma <= spec.gamma_bar * (1 + 1e-9) + 1e-12)


def test_rejected_search_point_costs_one_origin_certificate(monkeypatch):
    # the case above: solve, given no bootstrap, certifies the origin once;
    # the search point then fails its certificate, and solve returns the
    # origin's certificate without a second one
    plant, part, nb, bundle, param = toy_setup(seed=10)
    spec, _ = bootstrap_spec(plant, part, bundle, param, slack=0.2)
    certified = []

    def counting(param, x, *args):
        certified.append(np.array(x))
        return constraint_norms(param, x, *args)

    monkeypatch.setattr(match_synth, "constraint_norms", counting)
    res = solve(spec, param, bundle, part)
    assert len(certified) == 2
    assert not np.any(certified[0]) and np.any(certified[1])
    assert not np.any(res.x) and not res.search_certified


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
    slots = matching_slots(2)
    own = [s for s, (kind, i, j) in enumerate(slots) if kind == "disturbance" or (kind, i) == ("coupling", j)]
    targets = list(res.spec.targets)
    for s in own:
        targets[s] = area_block(maps, part, *slots[s])
    gamma, _ = constraint_norms(res.param, res.x, replace(res.spec, targets=tuple(targets)), builder)
    assert len(own) == 4 and np.max(gamma[own]) <= 1e-9


def test_run_algorithm1_grid_passes_all_hooks(grid_design):
    res = grid_design
    assert res.x.shape[0] == res.param.n_free
    assert len(res.objective_log) >= 1
    assert res.maps.forced.shape == (15, 25)
    assert res.maps.initial.shape == (15, 10 + res.maps.n_w)


@pytest.mark.parametrize("network", ["grid", "ring"])
def test_certificate_refines_in_few_lockstep_steps(request, network, monkeypatch):
    res = request.getfixturevalue(f"{network}_design")
    part = request.getfixturevalue(f"{network}_setup")[1]
    steps = refine_steps(monkeypatch)
    constraint_norms(res.param, res.x, res.spec, MapsBuilder(res.pair.bundle, part))
    assert steps and max(steps) <= 12
