"""Tests of the benchmark's own generator, oracle and tracer.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path(__file__).resolve().parents[1] / "src")]

import oracle  # noqa: E402
import scenarios  # noqa: E402
import tracer  # noqa: E402
from nrf_forge.grid import GRID_EDGES, GridCoefficients, build_grid_plant, surrogate_coefficients  # noqa: E402


def test_generator_accepts_the_shipped_mesh_and_builds_its_plant():
    c = surrogate_coefficients()
    A, B_u, B_d = scenarios.swing_plant(GRID_EDGES, c.h, c.damping, c.coupling, c.t_s)
    plant = build_grid_plant(c)
    assert np.array_equal(A, plant.A) and np.array_equal(B_u, plant.B_u) and np.array_equal(B_d, plant.B_d)


@pytest.mark.parametrize("seed", [0, 1, 8, 12345])
def test_ring_coefficients_clear_the_documented_margin(seed):
    co = scenarios.ring_coefficients(8, seed)
    scenarios.check_margins(GridCoefficients(co["h"], co["damping"], co["coupling"], co["t_s"]))
    assert np.all(co["damping"] > co["t_s"] * co["coupling"].sum(axis=1))
    cfg = scenarios.ring_config(8, seed)
    assert cfg["neighborhoods"][0] == [1, 2, 8]
    assert all(len(s) == 3 for s in cfg["neighborhoods"])


def test_margin_violations_are_refused():
    co = scenarios.ring_coefficients(5, 0)
    with pytest.raises(ValueError, match="damping"):
        scenarios.check_margins(GridCoefficients(co["h"], np.full(5, 0.1), co["coupling"], co["t_s"]))
    with pytest.raises(ValueError, match="spectral radius"):
        scenarios.check_margins(GridCoefficients(np.full(5, 12.0), np.full(5, 1.0), co["coupling"], co["t_s"]))
    cpl = co["coupling"].copy()
    cpl[0, 2] = 0.4
    with pytest.raises(ValueError, match="not an edge"):
        scenarios.swing_plant(scenarios.ring_edges(5), co["h"], co["damping"], cpl, co["t_s"])


def test_oracle_matches_a_scalar_loop_in_closed_form():
    a, b, b_d = 0.9, 0.7, 0.3
    a_w, b_wu, b_wx, c, k = 0.4, 0.5, -0.8, 0.6, -0.35
    plant = {"A": np.array([[a]]), "B_u": np.array([[b]]), "B_d": np.array([[b_d]])}
    ctrl = {"A": np.array([[a_w]]), "B": np.array([[b_wu, b_wx]]),
            "C": np.array([[c]]), "D": np.array([[0.0, k]])}
    zs = np.exp(1j * np.linspace(0.0, np.pi, 17))
    forced, initial = oracle.loop_responses(plant, ctrl, zs)
    det = (zs - a) * (zs - a_w - b_wu * c) - b * (b_wx * c + k * (zs - a_w))
    # columns [beta_x, beta_u, beta_f, d]; rows [x, u_f]
    assert np.allclose(forced[:, 0, 1], b * (zs - a_w - b_wu * c) / det, atol=1e-13)
    assert np.allclose(forced[:, 1, 1], b * (b_wx * c + k * (zs - a_w)) / det, atol=1e-13)
    assert np.allclose(forced[:, 0, 2], b * b_wu * c / det, atol=1e-13)
    assert np.allclose(forced[:, 0, 3], b_d / b * forced[:, 0, 1], atol=1e-13)
    # columns [x_c, w_c]: an initial state enters as z times the state
    assert np.allclose(initial[:, 0, 0], zs * (zs - a_w - b_wu * c) / det, atol=1e-13)


def test_stacked_bank_is_block_diagonal_in_state_and_stacked_in_rows():
    rng = np.random.default_rng(3)
    parts = [{"A": rng.standard_normal((k, k)), "B": rng.standard_normal((k, 5)),
              "C": rng.standard_normal((1, k)), "D": rng.standard_normal((1, 5))} for k in (2, 0, 3)]
    s = oracle.stack_bank(parts)
    zs = np.exp(1j * np.array([0.3, 1.7]))
    whole = oracle.response(s, zs)
    for row, part in enumerate(parts):
        assert np.allclose(whole[:, row:row + 1, :], oracle.response(part, zs), atol=1e-13)


def test_summary_splits_self_time_and_does_not_count_nesting_twice():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 5.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 3.5, 4.5, 1],
        ["b", 6.0, 9.0, 0],
    ]
    s = tracer.summarize(spans)
    assert s["root"]["self_s"] == pytest.approx(3.0)
    assert s["a"]["calls"] == 2
    assert s["a"]["total_s"] == pytest.approx(4.0)
    assert s["a"]["self_s"] == pytest.approx(2.0 + 1.0)
    assert s["b"]["total_s"] == pytest.approx(4.0)
    assert sum(r["self_s"] for r in s.values()) == pytest.approx(10.0)


def test_covered_share_counts_self_time_of_named_descendants_only():
    spans = [
        ["top", 0.0, 20.0, -1],
        ["root", 0.0, 10.0, 0],
        ["glue", 1.0, 5.0, 1],
        ["a", 2.0, 3.0, 2],
        ["a", 6.0, 9.0, 1],
        ["a", 12.0, 19.0, 0],
    ]
    # a: 1 + 3 inside root; glue's own 3 s and root's own 3 s are not covered
    assert tracer.covered_share(spans, "root", {"a"}) == pytest.approx(0.4)
    assert tracer.covered_share(spans, "root", {"a", "glue"}) == pytest.approx(0.7)


def test_install_rebinds_names_imported_elsewhere_and_uninstall_restores():
    import nrf_forge.lti as lti
    import nrf_forge.match_synth as ms
    from nrf_forge.lti import delay

    original = lti.minimal
    t = tracer.Tracer()
    t.install([("nrf_forge.lti", "minimal", "lti.minimal"),
               ("nrf_forge.match_synth", "MapsBuilder.__call__", "match_synth.maps_builder")])
    try:
        assert ms.minimal is not original and lti.minimal is ms.minimal
        ms.minimal(delay(2))
    finally:
        t.uninstall()
    assert lti.minimal is original and ms.minimal is original
    assert "__call__" in ms.MapsBuilder.__dict__
    assert [s[0] for s in t.spans] == ["lti.minimal"]
