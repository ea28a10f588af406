from dataclasses import replace

import numpy as np
import pytest

from conftest import deadbeat_bundle, unequal_ring
from nrf_forge.closed_loop import build_closed_loop_maps
from nrf_forge.errors import AlgebraicLoopError, CommConstraintError, DimensionMismatchError
from nrf_forge.lti import SignalTrace, fir_realization, impulse_response, star
from nrf_forge.nrf import AreaController, bank_from_pair, check_comm_constraints, form_nrf_pair, stacked_bank
from nrf_forge.partition import Neighborhoods, build_partition
from nrf_forge.sim_net import (
    ScenarioSignals,
    compose_signals,
    simulate_distributed,
    simulate_monolithic,
    stack_scenarios,
)

# batched and column-by-column stepping differ only by BLAS reordering
BATCH_TOL = 1e-12


@pytest.fixture(scope="module")
def loop(two_area_plant):
    rng = np.random.default_rng(3)
    part = build_partition([(2, 1), (2, 1)])
    nb = Neighborhoods.complete(2)
    bundle = deadbeat_bundle(two_area_plant)
    q = fir_realization([0.05 * rng.standard_normal((2, 4))])
    pair = form_nrf_pair(bundle, q)
    _, bank = bank_from_pair(pair, part)
    maps = build_closed_loop_maps(pair, bank, part)
    return two_area_plant, part, nb, bundle, bank, maps


# ---------------------------------------------------------------------------
# signal composition
# ---------------------------------------------------------------------------

def test_zero_amplitude_gives_zero_signals():
    sig = compose_signals(50, 4, 2, 2, seed=42, amplitudes={"d": 0.0})
    assert np.max(np.abs(sig.stacked_disturbance().samples)) == 0.0


def test_file_provided_disturbance_only():
    d = np.ones((20, 2))
    sig = ScenarioSignals(20, 4, 2, 2, seed=0, d=d)
    assert np.allclose(sig.d_full, d)
    assert np.max(np.abs(sig.beta_x)) == 0.0
    assert np.max(np.abs(sig.beta_u)) == 0.0


def test_same_seed_reproduces_traces():
    kwargs = dict(amplitudes={"d": 0.5, "zeta": 0.2}, kinds={"d": "gauss"})
    a = compose_signals(64, 4, 2, 2, seed=9, **kwargs)
    b = compose_signals(64, 4, 2, 2, seed=9, **kwargs)
    assert np.array_equal(a.stacked_disturbance().samples, b.stacked_disturbance().samples)
    c = compose_signals(64, 4, 2, 2, seed=10, **kwargs)
    assert not np.array_equal(a.d_full, c.d_full)


@pytest.mark.parametrize("kwargs, key", [
    ({"amplitudes": {"d": 0.5, "zeat": 0.5}}, "amplitudes.zeat"),
    ({"kinds": {"zeat": "gauss"}}, "kinds.zeat"),
    ({"amplitudes": {"beta_w": 0.1}}, "amplitudes.beta_w"),
])
def test_unknown_channel_name_is_refused(kwargs, key):
    with pytest.raises(ValueError) as exc:
        compose_signals(10, 4, 2, 1, **kwargs)
    assert str(exc.value) == (f"{key} is not a channel; the channels are "
                              "['d', 'zeta', 'u_s1', 'u_s2', 'beta_s1', 'beta_s2', 'beta_f']")


def test_compound_channels_recomputed():
    rng = np.random.default_rng(5)
    zeta = rng.standard_normal((10, 4))
    u_s1 = rng.standard_normal((10, 4))
    u_s2 = rng.standard_normal((10, 2))
    sig = ScenarioSignals(10, 4, 2, 2, zeta=zeta, u_s1=u_s1, u_s2=u_s2)
    assert np.allclose(sig.beta_x, zeta + u_s1)
    assert np.allclose(sig.beta_u, u_s2)


def test_horizon_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        ScenarioSignals(10, 4, 2, 2, d=np.zeros((5, 2)))


# ---------------------------------------------------------------------------
# monolithic loop
# ---------------------------------------------------------------------------

def test_zero_everything_stays_zero(loop):
    plant, part, nb, bundle, bank, maps = loop
    sig = compose_signals(40, 4, 2, 2, seed=0)
    tr = simulate_monolithic(plant, list(bank), sig, np.zeros(4), np.zeros(maps.n_w))
    assert np.max(np.abs(tr.x)) == 0.0
    assert np.max(np.abs(tr.u_f)) == 0.0


def test_free_response_matches_ic_map(loop):
    plant, part, nb, bundle, bank, maps = loop
    rng = np.random.default_rng(2)
    x_c = rng.uniform(-1, 1, 4)
    w_c = rng.uniform(-1, 1, maps.n_w)
    sig = compose_signals(60, 4, 2, 2, seed=0)
    tr = simulate_monolithic(plant, list(bank), sig, x_c, w_c)
    impulse = np.zeros((60, maps.initial.ninputs))
    impulse[0] = np.concatenate([x_c, w_c])
    free = star(maps.initial, SignalTrace(impulse))
    assert np.max(np.abs(tr.outputs().samples - free.samples)) <= 1e-9


def test_disturbance_impulse_matches_forced_column(loop):
    plant, part, nb, bundle, bank, maps = loop
    horizon = 50
    d = np.zeros((horizon, 2))
    d[0, 1] = 1.0
    sig = ScenarioSignals(horizon, 4, 2, 2, seed=0, d=d)
    tr = simulate_monolithic(plant, list(bank), sig, np.zeros(4), np.zeros(maps.n_w))
    col = maps.column_block("d")[1]
    imp = impulse_response(maps.forced, horizon)[:, :, col]
    assert np.max(np.abs(tr.outputs().samples - imp)) <= 1e-9


def test_command_identity_holds_samplewise(loop):
    plant, part, nb, bundle, bank, maps = loop
    sig = compose_signals(40, 4, 2, 2, seed=3,
                          amplitudes={"u_s2": 0.4, "beta_s2": 0.1, "d": 0.2})
    tr = simulate_monolithic(plant, list(bank), sig, np.zeros(4), np.zeros(maps.n_w))
    u_s2 = sig.u_s2 if sig.u_s2 is not None else 0.0
    beta_s2 = sig.beta_s2 if sig.beta_s2 is not None else 0.0
    assert np.allclose(tr.u, tr.u_f + u_s2 + beta_s2)


def test_superposition(loop):
    plant, part, nb, bundle, bank, maps = loop
    rng = np.random.default_rng(4)
    s1 = ScenarioSignals(80, 4, 2, 2, d=rng.standard_normal((80, 2)),
                         zeta=0.1 * rng.standard_normal((80, 4)))
    s2 = ScenarioSignals(80, 4, 2, 2, d=0.3 * rng.standard_normal((80, 2)),
                         u_s1=0.2 * rng.standard_normal((80, 4)))
    both = ScenarioSignals(80, 4, 2, 2, d=s1.d + s2.d, zeta=s1.zeta, u_s1=s2.u_s1)
    z = np.zeros(4)
    zw = np.zeros(maps.n_w)
    t1 = simulate_monolithic(plant, list(bank), s1, z, zw)
    t2 = simulate_monolithic(plant, list(bank), s2, z, zw)
    tb = simulate_monolithic(plant, list(bank), both, z, zw)
    assert np.max(np.abs(tb.x - (t1.x + t2.x))) <= 1e-9
    assert np.max(np.abs(tb.u_f - (t1.u_f + t2.u_f))) <= 1e-9


def test_bounded_response_under_l1_certificate(loop):
    plant, part, nb, bundle, bank, maps = loop
    horizon = 10_000
    sig = compose_signals(horizon, 4, 2, 2, seed=6, amplitudes={"d": 1.0})
    tr = simulate_monolithic(plant, list(bank), sig, np.zeros(4), np.zeros(maps.n_w))
    # l1 certificate: row sums of the absolute impulse response, plus a tail
    # bound from the spectral radius contraction
    K = 400
    imp = impulse_response(maps.forced, K)
    row_l1 = np.sum(np.abs(imp), axis=(0, 2))
    tail = np.sum(np.abs(impulse_response(maps.forced, 2 * K)[K:]), axis=(0, 2))
    bound = (row_l1 + tail * 10.0)[:4] * np.max(np.abs(sig.stacked_disturbance().samples))
    assert np.all(np.max(np.abs(tr.x), axis=0) <= bound + 1e-9)
    assert np.all(np.isfinite(tr.x))


def test_algebraic_loop_detected(loop):
    plant, part, nb, bundle, bank, maps = loop
    bad = []
    for ctrl in bank:
        D = ctrl.D.copy()
        D[0, 0] = 0.5  # feedthrough on a command column closes a loop
        bad.append(AreaController(ctrl.area, ctrl.A, ctrl.B, ctrl.C, D,
                                  ctrl.row_orders, ctrl.w0))
    sig = compose_signals(10, 4, 2, 2, seed=0)
    with pytest.raises(AlgebraicLoopError):
        simulate_monolithic(plant, bad, sig, np.zeros(4), np.zeros(maps.n_w))


# ---------------------------------------------------------------------------
# distributed loop
# ---------------------------------------------------------------------------

def test_distributed_equals_monolithic_complete_sets(loop):
    plant, part, nb, bundle, bank, maps = loop
    rng = np.random.default_rng(8)
    sig = compose_signals(200, 4, 2, 2, seed=8,
                          amplitudes={"d": 0.5, "zeta": 0.1, "u_s1": 0.2, "beta_f": 0.05})
    x_c = rng.uniform(-1, 1, 4)
    w_c = rng.uniform(-1, 1, maps.n_w)
    tm = simulate_monolithic(plant, list(bank), sig, x_c, w_c)
    td = simulate_distributed(plant, list(bank), part, nb, sig, x_c, w_c)
    assert np.max(np.abs(tm.x - td.x)) <= 1e-10
    assert np.max(np.abs(tm.u_f - td.u_f)) <= 1e-10
    assert np.max(np.abs(tm.w - td.w)) <= 1e-10


def test_grid_distributed_equivalence(grid_design, grid_setup):
    plant, part, nb = grid_setup
    bank = list(grid_design.bank)
    maps = grid_design.maps
    rng = np.random.default_rng(9)
    sig = compose_signals(500, 10, 5, 5, seed=9,
                          amplitudes={"d": 0.4, "zeta": 0.05, "u_s1": 0.2, "u_s2": 0.2})
    x_c = rng.uniform(-1, 1, 10)
    w_c = rng.uniform(-1, 1, maps.n_w)
    tm = simulate_monolithic(plant, bank, sig, x_c, w_c)
    td = simulate_distributed(plant, bank, part, nb, sig, x_c, w_c)
    assert np.max(np.abs(tm.x - td.x)) <= 1e-10
    assert np.max(np.abs(tm.u_f - td.u_f)) <= 1e-10


def test_delayed_messages_break_equivalence(grid_design, grid_setup):
    # negative control: off-spec delayed messages must NOT match
    plant, part, nb = grid_setup
    bank = list(grid_design.bank)
    sig = compose_signals(100, 10, 5, 5, seed=10, amplitudes={"d": 0.5})
    x_c = np.ones(10) * 0.3
    w_c = np.zeros(grid_design.maps.n_w)
    tm = simulate_monolithic(plant, bank, sig, x_c, w_c)
    X, _, _ = _reference_distributed(plant, bank, part, nb, sig, x_c, w_c, delay_messages=True)
    assert np.max(np.abs(tm.x - X)) > 1e-6


def test_controller_state_noise_only_shifts_reported_states(loop):
    # beta_w must not influence the first layer's closed loop: x and u_f are
    # bit-identical; only the reported controller-state trace shifts
    plant, part, nb, bundle, bank, maps = loop
    rng = np.random.default_rng(14)
    base = compose_signals(60, 4, 2, 2, seed=14, amplitudes={"d": 0.4})
    bw = rng.standard_normal((60, maps.n_w))
    noisy = replace(base, beta_w=bw)
    x_c = rng.uniform(-1, 1, 4)
    w_c = rng.uniform(-1, 1, maps.n_w)
    t0 = simulate_monolithic(plant, list(bank), base, x_c, w_c)
    t1 = simulate_monolithic(plant, list(bank), noisy, x_c, w_c)
    assert np.array_equal(t0.x, t1.x)
    assert np.array_equal(t0.u_f, t1.u_f)
    assert np.allclose(t1.w - t0.w, bw)


def test_metadata_carried_on_traces(loop):
    plant, part, nb, bundle, bank, maps = loop
    sig = compose_signals(10, 4, 2, 2, seed=77)
    tr = simulate_monolithic(plant, list(bank), sig, np.zeros(4), np.zeros(maps.n_w))
    assert tr.seed == 77
    assert tr.mode == "monolithic"
    assert tr.horizon == 10


# ---------------------------------------------------------------------------
# scenario batches
# ---------------------------------------------------------------------------

def _grid_batch(design, count, horizon, seed):
    rng = np.random.default_rng(seed)
    n_w = design.maps.n_w
    singles = [replace(compose_signals(horizon, 10, 5, 5, seed=int(rng.integers(2**31)),
                                       amplitudes={"d": 0.4, "zeta": 0.05, "u_s1": 0.2,
                                                   "u_s2": 0.2, "beta_f": 0.02}),
                       beta_w=rng.standard_normal((horizon, n_w)))
               for _ in range(count)]
    x_c = rng.uniform(-1, 1, (10, count))
    w_c = rng.uniform(-1, 1, (n_w, count))
    return singles, x_c, w_c


def test_stack_scenarios_layout():
    a = compose_signals(30, 4, 2, 2, seed=1, amplitudes={"d": 0.5, "zeta": 0.1})
    b = compose_signals(30, 4, 2, 2, seed=2, amplitudes={"d": 0.5, "u_s2": 0.3})
    both = stack_scenarios([a, b])
    assert both.batch == (2,) and a.batch == ()
    assert both.d.shape == (30, 2, 2) and both.u_s1 is None
    assert np.array_equal(both.beta_x[:, :, 0], a.beta_x)
    assert np.array_equal(both.beta_u[:, :, 1], b.beta_u)
    assert np.max(np.abs(both.beta_u[:, :, 0])) == 0.0
    zero = stack_scenarios([compose_signals(30, 4, 2, 2, seed=s) for s in range(3)])
    assert zero.batch == (3,)
    with pytest.raises(DimensionMismatchError):
        stack_scenarios([a, compose_signals(31, 4, 2, 2, seed=3)])
    with pytest.raises(DimensionMismatchError):
        ScenarioSignals(30, 4, 2, 2, d=np.zeros((30, 2, 3)), zeta=np.zeros((30, 4, 2)))


@pytest.mark.parametrize("mode", ["monolithic", "distributed"])
def test_batch_matches_single_runs(grid_design, grid_setup, mode):
    plant, part, nb = grid_setup
    bank = list(grid_design.bank)
    singles, x_c, w_c = _grid_batch(grid_design, 7, 150, seed=21)

    def run(sig, x0, w0):
        if mode == "monolithic":
            return simulate_monolithic(plant, bank, sig, x0, w0)
        return simulate_distributed(plant, bank, part, nb, sig, x0, w0)

    batch = run(stack_scenarios(singles), x_c, w_c)
    assert batch.x.shape == (150, 10, 7) and batch.w.shape == (150, grid_design.maps.n_w, 7)
    for s, sig in enumerate(singles):
        one = run(sig, x_c[:, s], w_c[:, s])
        assert one.x.ndim == 2
        for name in ("x", "u_f", "u", "w"):
            assert np.max(np.abs(getattr(batch, name)[:, :, s] - getattr(one, name))) <= BATCH_TOL


def test_batched_delayed_messages_break_equivalence(grid_design, grid_setup):
    plant, part, nb = grid_setup
    bank = list(grid_design.bank)
    singles, x_c, w_c = _grid_batch(grid_design, 3, 100, seed=22)
    sig = stack_scenarios(singles)
    tm = simulate_monolithic(plant, bank, sig, x_c, w_c)
    X, _, _ = _reference_distributed(plant, bank, part, nb, sig, x_c, w_c, delay_messages=True)
    assert np.min(np.max(np.abs(tm.x - X), axis=(0, 1))) > 1e-6


def test_batched_out_of_set_read_raises(grid_design, grid_setup):
    plant, part, _ = grid_setup
    isolated = Neighborhoods(tuple(frozenset({i}) for i in range(part.n_areas)))
    singles, x_c, w_c = _grid_batch(grid_design, 2, 20, seed=23)
    with pytest.raises(CommConstraintError):
        simulate_distributed(plant, list(grid_design.bank), part, isolated,
                             stack_scenarios(singles), x_c, w_c)


def test_batch_size_mismatch_rejected(grid_design, grid_setup):
    plant, part, nb = grid_setup
    bank = list(grid_design.bank)
    singles, x_c, w_c = _grid_batch(grid_design, 3, 20, seed=24)
    sig = stack_scenarios(singles)
    for x0, w0 in ((x_c[:, :2], w_c), (x_c, w_c[:, :2]), (x_c[:, 0], w_c[:, 0])):
        with pytest.raises(DimensionMismatchError):
            simulate_monolithic(plant, bank, sig, x0, w0)
        with pytest.raises(DimensionMismatchError):
            simulate_distributed(plant, bank, part, nb, sig, x0, w0)
    with pytest.raises(DimensionMismatchError):
        simulate_monolithic(plant, bank, singles[0], x_c, w_c)


# ---------------------------------------------------------------------------
# padded gather layout: unequal areas, an order-0 area, all-static banks
# ---------------------------------------------------------------------------

def _reference_distributed(plant, bank, partition, nb, signals, x_c, w_c, delay_messages):
    """One subcontroller at a time, each reading its allowed message columns:
    the per-area loop the gathered step replaced, kept as its oracle.  With
    ``delay_messages`` both phases read the previous step's messages, the
    off-spec negative control that must not match the monolithic loop."""
    n_x, n_u, N, T = plant.n_x, plant.n_u, partition.n_areas, signals.horizon
    batch = signals.batch
    allowed = [[j for j in range(N) if j in nb.of(i)] for i in range(N)]
    cols_u = [np.concatenate([partition.indices("u", j) for j in a]) for a in allowed]
    cols_x = [np.concatenate([partition.indices("x", j) for j in a]) for a in allowed]
    u_idx = [partition.indices("u", i) for i in range(N)]
    offs = np.cumsum([0] + [c.order for c in bank])
    beta_w = signals.beta_w if signals.beta_w is not None else np.zeros((T, offs[-1]) + batch)
    w = [np.array(w_c[offs[i]:offs[i + 1]], dtype=float) for i in range(N)]
    x = np.array(x_c, dtype=float)
    X, UF, W = [], [], []
    prev_state, prev_cmd = None, None
    for k in range(T):
        X.append(x)
        W.append(np.concatenate(w) + beta_w[k])
        state_msg = x + signals.beta_x[k]
        state_src = prev_state if (delay_messages and k > 0) else state_msg
        u_f = np.empty((n_u,) + batch)
        for i, ctrl in enumerate(bank):
            u_f[u_idx[i]] = ctrl.C @ w[i] + ctrl.D[:, n_u + cols_x[i]] @ state_src[cols_x[i]]
        UF.append(u_f)
        cmd_msg = u_f + signals.beta_f_full[k]
        cmd_src = prev_cmd if (delay_messages and k > 0) else cmd_msg
        for i, ctrl in enumerate(bank):
            w[i] = (ctrl.A @ w[i] + ctrl.B[:, cols_u[i]] @ cmd_src[cols_u[i]]
                    + ctrl.B[:, n_u + cols_x[i]] @ state_src[cols_x[i]])
        u = u_f + signals.beta_u[k]
        x = plant.A @ x + plant.B_u @ u + plant.B_d @ signals.d_full[k]
        prev_state, prev_cmd = state_msg, cmd_msg
    return np.array(X), np.array(UF), np.array(W)


def _ring_scenarios(plant, n_w, count, horizon, seed):
    """``count`` random scenarios (a single one for count = 0) and their
    initial states."""
    rng = np.random.default_rng(seed)
    amps = {"d": 0.5, "zeta": 0.1, "u_s1": 0.2, "u_s2": 0.2, "beta_f": 0.05}
    singles = [compose_signals(horizon, plant.n_x, plant.n_u, plant.n_d,
                               seed=int(rng.integers(2**31)), amplitudes=amps)
               for _ in range(max(count, 1))]
    shape = (count,) if count else ()
    return (stack_scenarios(singles) if count else singles[0],
            rng.uniform(-1, 1, (plant.n_x,) + shape), rng.uniform(-1, 1, (n_w,) + shape))


@pytest.mark.parametrize("count", [0, 3])
def test_unequal_ring_distributed_equals_monolithic(count):
    plant, part, nb, bank = unequal_ring(12, seed=31)
    n_w = sum(c.order for c in bank)
    assert len({c.order for c in bank}) > 2 and min(c.order for c in bank) == 0
    assert len(set(part.x_sizes)) > 1 and len(set(part.u_sizes)) > 1
    sig, x_c, w_c = _ring_scenarios(plant, n_w, count, 300, seed=32)
    tm = simulate_monolithic(plant, bank, sig, x_c, w_c)
    td = simulate_distributed(plant, bank, part, nb, sig, x_c, w_c)
    assert td.x.shape == (300, plant.n_x) + sig.batch
    assert np.max(np.abs(tm.x)) > 0.1
    for name in ("x", "u_f", "u", "w"):
        assert np.max(np.abs(getattr(tm, name) - getattr(td, name))) <= 1e-10, name


@pytest.mark.parametrize("delay", [False, True])
def test_unequal_ring_matches_per_area_reference(delay):
    """Three batched scenarios with every channel driven, beta_w included,
    on the ring with an order-0 area and on an all-static ring, over
    horizons on both sides of the chunk edges (64 and 128 steps)."""
    for static in (False, True):
        plant, part, nb, bank = unequal_ring(6 if static else 12, seed=33, static=static)
        n_w = sum(c.order for c in bank)
        assert min(c.order for c in bank) == 0
        for horizon in (1, 63, 64, 65, 130):
            sig, x_c, w_c = _noisy_scenarios(plant, n_w, 3, horizon, seed=34 + horizon)
            X, UF, W = _reference_distributed(plant, bank, part, nb, sig, x_c, w_c, delay)
            if delay:
                # negative control: the delayed reference must NOT match the loop
                if horizon > 1:
                    tm = simulate_monolithic(plant, bank, sig, x_c, w_c)
                    assert np.max(np.abs(tm.x - X)) > 1e-6
                continue
            td = simulate_distributed(plant, bank, part, nb, sig, x_c, w_c)
            assert td.x.shape == X.shape == (horizon, plant.n_x, 3)
            assert td.w.shape == W.shape == (horizon, n_w, 3)
            assert np.max(np.abs(td.x - X)) <= 1e-12
            assert np.max(np.abs(td.u_f - UF)) <= 1e-12
            assert np.max(np.abs(td.w - W), initial=0.0) <= 1e-12
            assert np.max(np.abs(td.u - (UF + sig.beta_u))) <= 1e-12


def test_message_locality_under_nan():
    """A NaN in one area's measurement noise at k = 0 reaches only the areas
    that read that area's messages: gathered reads never multiply an
    out-of-set slot, while a dense product spreads the NaN through its
    zeros.  The plant itself is one dense product, so only step 0's commands
    and the controller states it writes are checked."""
    plant, part, nb, bank = unequal_ring(12, seed=41)
    N, n_w = part.n_areas, sum(c.order for c in bank)
    source = 5
    sig, x_c, w_c = _noisy_scenarios(plant, n_w, 0, 4, seed=42)
    zeta = np.array(sig.zeta)
    zeta[0, part.indices("x", source)] = np.nan
    sig = replace(sig, zeta=zeta)
    td = simulate_distributed(plant, bank, part, nb, sig, x_c, w_c)
    tm = simulate_monolithic(plant, bank, sig, x_c, w_c)
    offs = np.cumsum([0] + [c.order for c in bank])
    hops = [min((i - source) % N, (source - i) % N) for i in range(N)]
    for i in range(N):
        u_f0 = td.u_f[0, part.indices("u", i)]
        w1 = td.w[1, offs[i]:offs[i + 1]]
        assert np.all(np.isfinite(u_f0)) == (hops[i] > 1), i
        if hops[i] > 2:
            assert np.all(np.isfinite(w1)), i
        # the dense monolithic product turns every command NaN at once
        assert np.all(np.isnan(tm.u_f[0, part.indices("u", i)])), i
    assert np.all(np.isfinite(td.x[0])) and np.any(np.isnan(td.w[1]))


@pytest.mark.parametrize("matrix", ["B", "D"])
def test_out_of_set_column_raises_for_a_single_scenario(matrix):
    plant, part, nb, bank = unequal_ring(12, seed=35)
    i, j = 2, 7  # area 7 is outside area 2's ring neighbourhood {1, 2, 3}
    bad = np.array(getattr(bank[i], matrix))
    bad[0, plant.n_u + part.indices("x", j)[0]] = 1e-3
    bank[i] = AreaController(**{**bank[i].__dict__, matrix: bad})
    sig, x_c, w_c = _ring_scenarios(plant, sum(c.order for c in bank), 0, 10, seed=36)
    with pytest.raises(CommConstraintError) as err:
        simulate_distributed(plant, bank, part, nb, sig, x_c, w_c)
    assert err.value.pairs == [(i, j)]


def test_violations_in_two_areas_are_listed_together():
    plant, part, nb, bank = unequal_ring(8, seed=35)
    # area 5 is outside area 0's set {7, 0, 1}; area 0's command is outside area 3's {2, 3, 4}
    for i, col, matrix in ((0, plant.n_u + part.indices("x", 5)[0], "B"),
                           (3, part.indices("u", 0)[0], "D")):
        bad = np.array(getattr(bank[i], matrix))
        bad[0, col] = 1e-3
        bank[i] = AreaController(**{**bank[i].__dict__, matrix: bad})
    with pytest.raises(CommConstraintError) as checked:
        check_comm_constraints(bank, part, nb)
    sig, x_c, w_c = _ring_scenarios(plant, sum(c.order for c in bank), 0, 10, seed=36)
    with pytest.raises(CommConstraintError) as simulated:
        simulate_distributed(plant, bank, part, nb, sig, x_c, w_c)
    assert checked.value.pairs == simulated.value.pairs == [(0, 5), (3, 0)]


@pytest.mark.parametrize("count", [0, 3])
def test_all_static_bank_runs_both_ways(count):
    plant, part, nb, bank = unequal_ring(6, seed=37, static=True)
    assert all(c.order == 0 for c in bank)
    sig, x_c, w_c = _ring_scenarios(plant, 0, count, 100, seed=38)
    tm = simulate_monolithic(plant, bank, sig, x_c, w_c)
    td = simulate_distributed(plant, bank, part, nb, sig, x_c, w_c)
    assert tm.w.shape == td.w.shape == (100, 0) + sig.batch
    assert np.max(np.abs(tm.u_f)) > 0.0
    assert np.max(np.abs(tm.x - td.x)) <= 1e-10
    assert np.max(np.abs(tm.u_f - td.u_f)) <= 1e-10


# ---------------------------------------------------------------------------
# precomposed monolithic loop against the stepwise loop it replaced
# ---------------------------------------------------------------------------

def _reference_monolithic(plant, bank, signals, x_c, w_c):
    """Plant and stacked bank stepped one after the other, about ten
    products per step: the loop the precomposed one replaced, kept as its
    oracle."""
    ctrl = stacked_bank(bank)
    T, n_x, n_u, batch = signals.horizon, plant.n_x, plant.n_u, signals.batch
    D_x = ctrl.D[:, n_u:]
    x = np.array(x_c, dtype=float)
    w = np.array(w_c, dtype=float).reshape((ctrl.order,) + batch)
    beta_w = (signals.beta_w if signals.beta_w is not None
              else np.zeros((T, ctrl.order) + batch))
    X, UF, U, W = [], [], [], []
    for k in range(T):
        X.append(x)
        W.append(w + beta_w[k])
        meas = x + signals.beta_x[k]
        u_f = ctrl.C @ w + D_x @ meas
        u = u_f + signals.beta_u[k]
        UF.append(u_f)
        U.append(u)
        w = ctrl.A @ w + ctrl.B @ np.concatenate([u_f + signals.beta_f_full[k], meas])
        x = plant.A @ x + plant.B_u @ u + plant.B_d @ signals.d_full[k]
    return tuple(np.array(a) for a in (X, UF, U, W))


def _network(request, name):
    """Plant and bank of the mesh, the ring, the unequal ring (with an
    order-0 area) or an all-static ring bank."""
    if name in ("mesh", "ring"):
        prefix = "grid" if name == "mesh" else "ring"
        return (request.getfixturevalue(f"{prefix}_setup")[0],
                list(request.getfixturevalue(f"{prefix}_design").bank))
    plant, _, _, bank = unequal_ring(12 if name == "unequal" else 6, seed=39,
                                     static=name == "static")
    return plant, bank


def _noisy_scenarios(plant, n_w, count, horizon, seed):
    """Like ``_ring_scenarios``, with every channel driven, beta_w included."""
    rng = np.random.default_rng(seed)
    amps = {"d": 0.5, "zeta": 0.1, "u_s1": 0.2, "u_s2": 0.2, "beta_s1": 0.05,
            "beta_s2": 0.05, "beta_f": 0.05}
    singles = [replace(compose_signals(horizon, plant.n_x, plant.n_u, plant.n_d,
                                       seed=int(rng.integers(2**31)), amplitudes=amps),
                       beta_w=0.1 * rng.standard_normal((horizon, n_w)))
               for _ in range(max(count, 1))]
    shape = (count,) if count else ()
    return (stack_scenarios(singles) if count else singles[0],
            rng.uniform(-1, 1, (plant.n_x,) + shape), rng.uniform(-1, 1, (n_w,) + shape))


@pytest.mark.parametrize("count", [0, 3])
@pytest.mark.parametrize("network", ["mesh", "ring", "unequal", "static"])
def test_precomposed_loop_matches_stepwise_reference(request, network, count):
    plant, bank = _network(request, network)
    n_w = sum(c.order for c in bank)
    sig, x_c, w_c = _noisy_scenarios(plant, n_w, count, 150, seed=40)
    got = simulate_monolithic(plant, bank, sig, x_c, w_c)
    want = _reference_monolithic(plant, bank, sig, x_c, w_c)
    for name, ref in zip(("x", "u_f", "u", "w"), want):
        assert getattr(got, name).shape == ref.shape
        assert ref.shape[0] == 150 and ref.shape[2:] == sig.batch
        tol = 1e-12 * max(1.0, float(np.max(np.abs(ref), initial=0.0)))
        assert np.max(np.abs(getattr(got, name) - ref), initial=0.0) <= tol, name
    assert np.max(np.abs(got.u_f)) > 0.0
