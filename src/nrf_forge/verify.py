"""Invariant suite for a designed artifact set.

Every check returns a (name, measured, threshold, passed) record; the CLI
renders one line per record and fails the run when any record fails.  The
Bezout residual is taken on :data:`dcf.BEZOUT_GRID`, every other frequency
check on :func:`lti.half_circle` (64).  The maps are the loop's own
realization, over the state matrix the monolithic simulation steps, so the
closed-loop identity check ties the map recursions to the loop stepping
only.  The non-circular certificate is ``explicit_closed_loop_maps``: the
paper's expressions in the coprime factors, Q and the bank's controller
resolvent, evaluated pointwise (:func:`closed_loop.explicit_maps`), against
the maps of the deployed loop.

Scenarios are stepped together as columns of one batch (the equivalence
check in blocks of ``EQUIVALENCE_BLOCK`` to bound memory), each generated just
before its block from the suite's generator.  The identity check rebuilds
all its scenarios from the maps with one batched recursion of the forced
map from the scenarios' initial loop states.  The sparsity closure evaluates
each random draw's controller pointwise from the coprime factors; one draw
is also formed as a realized pair to cross-check that route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_loop import (
    ClosedLoopMaps,
    decompose_response,
    explicit_maps,
    kd_responses,
    prediction_model,
    reconstructed_response,
)
from .dcf import DcfBundle, verify_bezout
from .errors import CommConstraintError, NonzeroFeedthroughError, SparsityInheritanceError
from .lti import (
    SignalTrace,
    frequency_response,
    half_circle,
    is_minimal,
    make_realization,
    spectral_radius_raw,
)
from .nrf import (
    check_comm_constraints,
    form_nrf_pair,
    stacked_bank,
    verify_sparsity_inheritance,
    zero_columns,
)
from .partition import AreaPartition, Neighborhoods, readable
from .plant import Plant
from .sim_net import compose_signals, simulate_distributed, simulate_monolithic, stack_scenarios
from .sparse_param import QParametrization, q_from_x

# the suite's generator seed and scenario counts, which are part of the certificate
SEED = 20240
IDENTITY_SCENARIOS = 20
EQUIVALENCE_SCENARIOS = 100
CLOSURE_DRAWS = 100
# scenarios per batch of the distributed-equivalence check
EQUIVALENCE_BLOCK = 25


@dataclass(frozen=True)
class CheckRecord:
    name: str
    measured: float
    threshold: float
    passed: bool
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f"  ({self.note})" if self.note else ""
        return f"{status}  {self.name}: measured {self.measured:.3e} vs bound {self.threshold:.3e}{note}"


def _rec(name, measured, threshold, note="") -> CheckRecord:
    return CheckRecord(name, float(measured), float(threshold),
                       bool(measured <= threshold), note)


def _stepped(name, measure, threshold, note="") -> CheckRecord:
    """``measure()``, which steps the closed loop, against ``threshold``; a
    bank that reads outside its communication sets cannot be stepped
    distributed, and fails the check with the cause as note."""
    try:
        return _rec(name, measure(), threshold, note)
    except CommConstraintError as exc:
        return CheckRecord(name, float("inf"), threshold, False, str(exc))


def run_invariant_suite(plant: Plant, partition: AreaPartition, nb: Neighborhoods,
                        bundle: DcfBundle, bank, maps: ClosedLoopMaps,
                        param: QParametrization, x) -> list[CheckRecord]:
    """Full verification battery at the free coefficients ``x``; returns
    one record per certificate."""
    records: list[CheckRecord] = []
    rng = np.random.default_rng(SEED)
    pair = maps.pair
    n_u = plant.n_u

    n_x, lt_d, r_d = plant.n_x, bundle.left.D, bundle.right.D
    records.append(_rec("bezout_residual", verify_bezout(bundle), 1e-8))
    # Yt(inf) = I and Xt(inf) = 0 in Lt = [-Xt Yt; Mt -Nt]
    records.append(_rec("normalization_at_infinity",
                        max(np.max(np.abs(lt_d[:n_u, n_x:] - np.eye(n_u))),
                            np.max(np.abs(lt_d[:n_u, :n_x]))), 0.0))
    # N(inf) = 0 in R = [N Y; M X] and Nt(inf) = 0
    records.append(_rec("numerators_strictly_proper",
                        max(np.max(np.abs(r_d[:n_x, :n_u])), np.max(np.abs(lt_d[n_u:, n_x:]))), 0.0))

    # pair identities: Yqd (I - Phi) = Yq and Yqd Gamma = Xq on the half circle
    zs = half_circle(64)
    yqd = frequency_response(pair.yq_diag, zs)
    phi = frequency_response(pair.feedforward, zs)
    gam = frequency_response(pair.feedback, zs)
    yq = frequency_response(pair.yq, zs)
    xq = frequency_response(pair.xq, zs)
    res1 = np.max(np.abs(yqd @ (np.eye(n_u) - phi) - yq))
    res2 = np.max(np.abs(yqd @ gam - xq))
    records.append(_rec("nrf_reconstruction_identities", max(res1, res2), 1e-8))
    diag_vals = np.abs(np.stack([phi[:, i, i] for i in range(n_u)]))
    records.append(_rec("feedforward_diagonal_zero", np.max(diag_vals), 1e-10))

    # the deployed rows, split from each area's stack: eval match,
    # minimality, inherited zeros (each row's zero columns read from kd_resp)
    kd_resp = frequency_response(pair.kd, zs)
    row_err = 0.0
    rows = list(_deployed_rows(bank, partition))
    for ell, r in rows:
        resp = frequency_response(r, zs)[:, 0, :]
        scale = max(1.0, float(np.max(np.abs(kd_resp[:, ell, :]))))
        row_err = max(row_err, float(np.max(np.abs(resp - kd_resp[:, ell, :]))) / scale)
    records.append(_rec("row_canonical_eval_match", row_err, 1e-8))
    records.append(_rec("row_canonical_minimal",
                        0.0 if all(is_minimal(r) for _, r in rows) else 1.0, 0.0))
    try:
        for ell, r in rows:
            verify_sparsity_inheritance(ell, r, zero_columns(kd_resp[:, ell, :]))
        records.append(_rec("row_sparsity_inheritance", 0.0, 0.0))
    except SparsityInheritanceError as exc:
        records.append(CheckRecord("row_sparsity_inheritance", 1.0, 0.0, False, str(exc)))

    # stacked subcontrollers match the row-selected controller
    stack_err = 0.0
    for ctrl in bank:
        resp = frequency_response(ctrl.realization(), zs)
        sel = kd_resp[:, partition.indices("u", ctrl.area), :]
        stack_err = max(stack_err, float(np.max(np.abs(resp - sel))))
    records.append(_rec("area_stack_eval_match", stack_err, 1e-8))

    try:
        check_comm_constraints(bank, partition, nb)
        records.append(_rec("communication_constraints", 0.0, 0.0))
    except CommConstraintError as exc:
        records.append(CheckRecord("communication_constraints", 1.0, 0.0, False, str(exc)))

    # both panels share the loop's state matrix; the raw radius is never
    # below a minimal realization's, and the build refuses 1 - 1e-9 or above
    records.append(_rec("loop_spectral_radius", spectral_radius_raw(maps.loop), 1.0 - 1e-9))
    want = explicit_maps(bundle, param.taps_from_x(x), bank, zs)
    gap = (float(np.max(np.abs(frequency_response(maps.loop, zs) - want)))
           / max(1.0, float(np.max(np.abs(want)))))
    records.append(_rec("explicit_closed_loop_maps", gap, 1e-8))

    # closed-loop identity: simulation vs map reconstruction; every monolithic
    # run below steps the one stacked realization of the bank
    n_w, ctrl = maps.n_w, stacked_bank(bank)

    def identity():
        sig, x_c, w_c = _scenario_batch(
            rng, IDENTITY_SCENARIOS, 200, plant, n_w,
            {"d": 0.5, "zeta": 0.1, "u_s1": 0.3, "u_s2": 0.2, "beta_f": 0.05, "beta_s2": 0.05})
        tr = simulate_monolithic(plant, ctrl, sig, x_c, w_c)
        rec = reconstructed_response(maps, sig.stacked_disturbance(), x_c, w_c)
        return float(np.max(np.abs(tr.outputs().samples - rec.samples)))

    def equivalence():
        worst = 0.0
        for start in range(0, EQUIVALENCE_SCENARIOS, EQUIVALENCE_BLOCK):
            sig, x_c, w_c = _scenario_batch(
                rng, min(EQUIVALENCE_BLOCK, EQUIVALENCE_SCENARIOS - start), 500, plant, n_w,
                {"d": 0.4, "zeta": 0.05, "u_s1": 0.2, "u_s2": 0.2, "beta_f": 0.02})
            tm = simulate_monolithic(plant, ctrl, sig, x_c, w_c)
            td = simulate_distributed(plant, list(bank), partition, nb, sig, x_c, w_c)
            worst = max(worst, float(np.max(np.abs(tm.x - td.x))),
                        float(np.max(np.abs(tm.u_f - td.u_f))),
                        float(np.max(np.abs(tm.w - td.w), initial=0.0)))
        return worst

    records.append(_stepped("closed_loop_identity", identity, 1e-6,
                            f"{IDENTITY_SCENARIOS} scenarios x 200 steps"))
    records.append(_stepped("distributed_equivalence", equivalence, 1e-10,
                            f"{EQUIVALENCE_SCENARIOS} scenarios x 500 steps"))

    if param.n_free:
        draws = [rng.standard_normal(param.n_free) for _ in range(CLOSURE_DRAWS)]
        mask = ~readable(partition, nb)
        worst = 0.0
        kds = kd_responses(bundle, (param.taps_from_x(xr) for xr in draws), zs)
        for k, kd in enumerate(kds):
            worst = max(worst, float(np.max(np.abs(kd[:, mask]), initial=0.0)))
            if k == 0:
                # the pointwise route must agree with the realized pair
                realized = frequency_response(form_nrf_pair(bundle, q_from_x(param, draws[0])).kd, zs)
                scale = max(1.0, float(np.max(np.abs(realized))))
                worst = max(worst, float(np.max(np.abs(realized[:, mask]), initial=0.0)),
                            float(np.max(np.abs(kd - realized))) / scale)
        records.append(_rec("sparsity_closure", worst, 1e-8,
                            f"{CLOSURE_DRAWS} random draws"))

    # prediction models: zero feedthrough and response decomposition
    try:
        models = [prediction_model(maps, partition, i) for i in range(partition.n_areas)]
        records.append(_rec("prediction_model_feedthrough", 0.0, 0.0))
    except NonzeroFeedthroughError as exc:
        models = None
        records.append(CheckRecord("prediction_model_feedthrough", 1.0, 0.0, False, str(exc)))
    if models is not None:
        records.append(_stepped("response_decomposition", lambda: _decomposition_residual(
            plant, partition, nb, maps, ctrl, models, rng), 1e-8))
    return records


def _deployed_rows(bank, partition: AreaPartition):
    """(row index, realization) of every controller row of ``bank``, split
    from its area's block-diagonal stack by the area's ``row_orders``."""
    for ctrl in bank:
        starts = np.cumsum((0,) + ctrl.row_orders)
        for k, ell in enumerate(partition.indices("u", ctrl.area)):
            lo, hi = starts[k], starts[k + 1]
            yield int(ell), make_realization(ctrl.A[lo:hi, lo:hi], ctrl.B[lo:hi],
                                             ctrl.C[[k], lo:hi], ctrl.D[[k]])


def _scenario_batch(rng, count: int, horizon: int, plant: Plant, n_w: int, amplitudes: dict):
    """``count`` scenarios drawn from ``rng`` in order: their stacked batch
    and the (dim, count) initial states."""
    scenarios, x_cs, w_cs = [], [], []
    for _ in range(count):
        scenarios.append(compose_signals(horizon, plant.n_x, plant.n_u, plant.n_d,
                                         seed=int(rng.integers(2**31)), amplitudes=amplitudes))
        x_cs.append(rng.uniform(-1, 1, plant.n_x))
        w_cs.append(rng.uniform(-1, 1, n_w))
    return stack_scenarios(scenarios), np.stack(x_cs, axis=-1), np.stack(w_cs, axis=-1)


def _decomposition_residual(plant: Plant, partition: AreaPartition, nb: Neighborhoods,
                            maps: ClosedLoopMaps, ctrl, models, rng) -> float:
    """Reconstruct each area's response, simulated against the stacked bank
    ``ctrl``, from xi/psi/theta/delta."""
    n_x, n_u, n_d = plant.n_x, plant.n_u, plant.n_d
    horizon = 120
    sig = compose_signals(horizon, n_x, n_u, n_d, seed=int(rng.integers(2**31)),
                          amplitudes={"d": 0.4, "zeta": 0.05, "u_s1": 0.3, "u_s2": 0.25,
                                      "beta_s1": 0.03, "beta_s2": 0.03, "beta_f": 0.02})
    x_c = rng.uniform(-1, 1, n_x)
    w_c = rng.uniform(-1, 1, maps.n_w)
    trace = simulate_monolithic(plant, ctrl, sig, x_c, w_c)
    exo = sig.exogenous_only().stacked_disturbance()
    u_s1 = sig.u_s1 if sig.u_s1 is not None else np.zeros((horizon, n_x))
    u_s2 = sig.u_s2 if sig.u_s2 is not None else np.zeros((horizon, n_u))
    worst = 0.0
    for i in range(partition.n_areas):
        others = {
            j: (SignalTrace(u_s1[:, partition.indices("x", j)], sig.start_index),
                SignalTrace(u_s2[:, partition.indices("u", j)], sig.start_index))
            for j in range(partition.n_areas) if j != i
        }
        dec = decompose_response(maps, partition, nb, i, exo, x_c, w_c, others)
        own = models[i].simulate(
            SignalTrace(u_s1[:, partition.indices("x", i)], sig.start_index),
            SignalTrace(u_s2[:, partition.indices("u", i)], sig.start_index))
        total = own.samples + dec.psi.samples + dec.theta.samples + dec.delta.samples
        ref = np.hstack([trace.x[:, partition.indices("x", i)],
                         trace.u_f[:, partition.indices("u", i)]])
        worst = max(worst, float(np.max(np.abs(total - ref))))
    return worst
