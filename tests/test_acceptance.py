"""Acceptance battery: one test per criterion, one printed line each.

Criterion 8 depends on benchmark coefficients that are not shipped with the
toolkit (the bundled mesh coefficients are a documented surrogate); it runs
only when a coefficient document is supplied via the NRF_FORGE_COEFFS
environment variable and is skipped with an explicit notice otherwise.
"""

import os
import time

import numpy as np
import pytest
import scipy.linalg

from conftest import held_direction_objective, shift_nilpotent
from nrf_forge.closed_loop import reconstructed_response
from nrf_forge.dcf import build_dcf
from nrf_forge.grid import (
    build_grid_plant,
    coefficients_from_dict,
    grid_neighborhoods,
    grid_partition,
)
from nrf_forge.io import load_document
from nrf_forge.lti import frequency_response, half_circle, is_minimal, spectral_radius
from nrf_forge.match_synth import (
    AlgorithmConfig,
    MapsBuilder,
    _SurrogateModel,
    constraint_norms,
    default_targets,
    run_algorithm1,
    solve,
)
from nrf_forge.nrf import check_comm_constraints, extract_row, form_nrf_pair
from nrf_forge.partition import Neighborhoods, build_partition
from nrf_forge.plant import Plant
from nrf_forge.sim_net import (
    compose_signals,
    simulate_distributed,
    simulate_monolithic,
    stack_scenarios,
)
from nrf_forge.sparse_param import QParametrization, q_from_x
from nrf_forge.verify import EQUIVALENCE_BLOCK, run_invariant_suite


def _line(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num} {name}: {status} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


def _stabilizing_feedback(A, B):
    P = scipy.linalg.solve_discrete_are(A, B, np.eye(A.shape[0]), np.eye(B.shape[1]))
    return -np.linalg.solve(np.eye(B.shape[1]) + B.T @ P @ B, B.T @ P @ A)


def test_criterion_1_bezout_certification():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, min(5, n) + 1))
        A = rng.standard_normal((n, n))
        rho_target = 0.7 if k % 5 else 1.2  # every fifth plant needs stabilising
        A *= rho_target / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9)
        B = rng.standard_normal((n, m))
        plant = Plant(A, B, rng.standard_normal((n, 1)))
        F = np.zeros((m, n)) if rho_target < 1 else _stabilizing_feedback(A, B)
        L = shift_nilpotent(n) - A  # deadbeat observer pencil
        bundle = build_dcf(plant, F, L)
        worst = max(worst, bundle.bezout_residual)
        assert bundle.is_deadbeat()
    elapsed = time.perf_counter() - t0
    _line(1, "bezout_certification", worst <= 1e-8 and elapsed < 10.0,
          f"50 plants, worst residual {worst:.3e}, {elapsed:.2f} s")


def test_criterion_2_row_canonical_suite(grid_design):
    pair = grid_design.maps.pair
    zs = half_circle(64)
    kd_resp = frequency_response(pair.kd, zs)
    eval_err = 0.0
    all_minimal = True
    zeros_exact = True
    chi_ok = True
    for ell in range(pair.n_u):
        row = extract_row(pair.kd, ell)
        resp = frequency_response(row.realization(), zs)[:, 0, :]
        scale = max(1.0, float(np.max(np.abs(kd_resp[:, ell, :]))))
        eval_err = max(eval_err, float(np.max(np.abs(resp - kd_resp[:, ell, :]))) / scale)
        all_minimal &= is_minimal(row.realization())
        col_max = np.max(np.abs(kd_resp[:, ell, :]), axis=0)
        for j in np.nonzero(col_max <= 1e-8)[0]:
            if (row.order and np.any(row.B[:, j] != 0.0)) or row.D[0, j] != 0.0:
                zeros_exact = False
        chi_ok &= row.order == 2 and np.allclose(row.char_coeffs, [1.0, 0.0, 0.0],
                                                 atol=1e-9)
    ok = eval_err <= 1e-8 and all_minimal and zeros_exact and chi_ok
    _line(2, "row_canonical_suite", ok,
          f"eval err {eval_err:.3e}, minimal {all_minimal}, exact zeros {zeros_exact}, "
          f"chi(z)=z^2 {chi_ok}")


def test_criterion_3_closed_loop_identity(grid_design, grid_setup):
    plant, part, nb = grid_setup
    maps = grid_design.maps
    bank = list(grid_design.bank)
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(20):
        sig = compose_signals(200, 10, 5, 5, seed=int(rng.integers(2**31)),
                              amplitudes={"d": 0.5, "zeta": 0.1, "u_s1": 0.3,
                                          "u_s2": 0.2, "beta_f": 0.05, "beta_s1": 0.02})
        x_c = rng.uniform(-1, 1, 10)
        w_c = rng.uniform(-1, 1, maps.n_w)
        tr = simulate_monolithic(plant, bank, sig, x_c, w_c)
        rec = reconstructed_response(maps, sig.stacked_disturbance(), x_c, w_c)
        worst = max(worst, float(np.max(np.abs(tr.outputs().samples - rec.samples))))
    _line(3, "closed_loop_identity", worst <= 1e-6,
          f"20 scenarios x 200 steps, max-abs {worst:.3e}")


def test_criterion_4_distributed_equivalence(grid_design, grid_setup):
    plant, part, nb = grid_setup
    bank = list(grid_design.bank)
    check_comm_constraints(bank, part, nb)
    n_w = grid_design.maps.n_w
    rng = np.random.default_rng(1004)
    worst = 0.0
    for start in range(0, 100, EQUIVALENCE_BLOCK):
        sigs, x_cs, w_cs = [], [], []
        for _ in range(min(EQUIVALENCE_BLOCK, 100 - start)):
            sigs.append(compose_signals(500, 10, 5, 5, seed=int(rng.integers(2**31)),
                                        amplitudes={"d": 0.4, "zeta": 0.05, "u_s1": 0.2,
                                                    "u_s2": 0.2}))
            x_cs.append(rng.uniform(-1, 1, 10))
            w_cs.append(rng.uniform(-1, 1, n_w))
        sig, x_c, w_c = stack_scenarios(sigs), np.stack(x_cs, axis=-1), np.stack(w_cs, axis=-1)
        tm = simulate_monolithic(plant, bank, sig, x_c, w_c)
        td = simulate_distributed(plant, bank, part, nb, sig, x_c, w_c)
        err = max(float(np.max(np.abs(tm.x - td.x))), float(np.max(np.abs(tm.u_f - td.u_f))),
                  float(np.max(np.abs(tm.w - td.w))))
        worst = max(worst, err)
    _line(4, "distributed_equivalence", worst <= 1e-10,
          f"100 scenarios x 500 steps, max-abs {worst:.3e}")


def test_criterion_5_sparsity_closure(grid_design, grid_setup):
    plant, part, nb = grid_setup
    param = grid_design.param
    bundle = grid_design.maps.pair.bundle
    zs = half_circle(64)
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(param.n_free)
        pair = form_nrf_pair(bundle, q_from_x(param, x))
        phi = frequency_response(pair.feedforward, zs)
        gam = frequency_response(pair.feedback, zs)
        for i in range(part.n_areas):
            rows = part.indices("u", i)
            for j in range(part.n_areas):
                if j in nb.of(i):
                    continue
                worst = max(worst, float(np.max(np.abs(
                    phi[:, rows[:, None], part.indices("u", j)[None, :]]))))
                worst = max(worst, float(np.max(np.abs(
                    gam[:, rows[:, None], part.indices("x", j)[None, :]]))))
    _line(5, "sparsity_closure", worst <= 1e-8,
          f"100 random draws, worst off-pattern magnitude {worst:.3e}")


def test_criterion_6_stability(grid_design):
    rho_f = spectral_radius(grid_design.maps.forced)
    rho_i = spectral_radius(grid_design.maps.initial)
    _line(6, "closed_loop_stability", rho_f < 1.0 and rho_i < 1.0,
          f"spectral radii {rho_f:.6f} / {rho_i:.6f}")


def test_criterion_7_optimizer_soundness(two_area_plant):
    from conftest import deadbeat_bundle
    from nrf_forge.sparse_param import build_parametrization, pattern_from_neighborhoods

    part = build_partition([(2, 1), (2, 1)])
    nb = Neighborhoods((frozenset({0}), frozenset({0, 1})))
    bundle = deadbeat_bundle(two_area_plant)
    param = build_parametrization(bundle, pattern_from_neighborhoods(part, nb), q=3)
    single = QParametrization(param.q0_taps, param.basis[:1], param.fir_degree,
                              param.residual, param.constraint_rank, param.n_constraints,
                              param.pattern, param.support, param.free_p)
    spec = default_targets(part, two_area_plant.n_d)
    builder = MapsBuilder(bundle, part)
    bootstrap = constraint_norms(single, np.zeros(1), spec, builder)
    spec = spec.with_bounds(bootstrap[0], np.inf)
    res = solve(spec, single, bundle, part)
    objective = held_direction_objective(_SurrogateModel(bundle, single, part, spec, bootstrap, np.arange(1)))
    ts = np.linspace(-2.0, 2.0, 10_001)
    vals = np.array([objective([t]) for t in ts])
    t_star = float(ts[int(np.argmin(vals))])
    step = float(ts[1] - ts[0])
    log_ok = all(res.objective_log[i + 1] <= res.objective_log[i] + 1e-12
                 for i in range(len(res.objective_log) - 1))
    ok = abs(res.x[0] - t_star) <= step + 1e-9 and log_ok
    _line(7, "optimizer_soundness", ok,
          f"|x* - scan*| = {abs(res.x[0] - t_star):.2e} vs step {step:.2e}, "
          f"log non-increasing {log_ok}")


def test_criterion_8_paper_number_regression():
    coeffs_path = os.environ.get("NRF_FORGE_COEFFS", "")
    if not coeffs_path:
        pytest.skip(
            "criterion 8 is CONDITIONAL: the authentic benchmark coefficient "
            "table is not reprinted in this toolkit and cannot be reproduced "
            "from the shipped surrogate; set NRF_FORGE_COEFFS to a coefficient "
            "document to enable the regression (criteria 1-7 and 9 constitute "
            "acceptance without it)"
        )
    coeffs = coefficients_from_dict(load_document(coeffs_path))
    plant = build_grid_plant(coeffs)
    part, nb = grid_partition(), grid_neighborhoods()
    res = run_algorithm1(plant, part, nb,
                         config=AlgorithmConfig(bound_slack=np.inf, q=2))
    x_ref = np.array([0.2682, 0.1436, 0.3610, 0.0660])
    x_err = np.max(np.abs(np.sort(np.abs(res.x))[::-1][:4] - np.sort(x_ref)[::-1]))
    from nrf_forge.closed_loop import area_block, matching_slots
    gamma_u14 = res.gamma[matching_slots(part.n_areas).index(("coupling", 0, 3))]
    from nrf_forge.lti import hinf_norm, select_rows
    blk = area_block(res.maps, part, "coupling", 0, 3)
    state_norm = hinf_norm(select_rows(blk, [0, 1]), check_bounded=False)
    rho = spectral_radius(blk)
    ok = (x_err <= 1e-3 and abs(gamma_u14 - 0.8201) <= 0.01
          and state_norm <= 1e-9 and abs(rho - 0.9983) <= 1e-3)
    _line(8, "paper_number_regression", ok,
          f"x err {x_err:.2e}, gamma_u14 {gamma_u14:.4f}, "
          f"state-subblock norm {state_norm:.2e}, rho {rho:.4f}")


def test_criterion_9_end_to_end_runtime(grid_setup):
    plant, part, nb = grid_setup
    t0 = time.perf_counter()
    result = run_algorithm1(plant, part, nb, config=AlgorithmConfig(bound_slack=0.25, q=2))
    t_design = time.perf_counter() - t0
    records = run_invariant_suite(plant, part, nb, result.maps.pair.bundle,
                                  list(result.bank), result.maps, result.param, result.x)
    elapsed = time.perf_counter() - t0
    all_pass = all(r.passed for r in records)
    _line(9, "end_to_end_runtime", elapsed < 60.0 and all_pass,
          f"design {t_design:.1f} s + verify, total {elapsed:.1f} s, "
          f"{sum(r.passed for r in records)}/{len(records)} checks passed")
