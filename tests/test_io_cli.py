import json
import os
import shutil

import numpy as np
import pytest

from conftest import deadbeat_bundle, random_stable_plant
from nrf_forge import io as artifact_io
from nrf_forge.cli import main
from nrf_forge.lti import FrequencyGrid, frequency_response, make_realization
from nrf_forge.nrf import bank_from_pair, form_nrf_pair
from nrf_forge.partition import Neighborhoods, build_partition
from nrf_forge.sim_net import LoopTrace
from nrf_forge.sparse_param import build_parametrization, pattern_from_neighborhoods


def test_matrix_doc_roundtrip_is_exact():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 4)) * np.pi
    doc = artifact_io.matrix_doc(M)
    assert np.array_equal(artifact_io.matrix_from_doc(doc), M)


def test_reals_serialized_with_17_significant_digits(tmp_path):
    value = 0.1234567890123456789
    path = tmp_path / "doc.json"
    artifact_io.dump_document({"v": value, "m": [[value]]}, str(path))
    text = path.read_text()
    assert format(value, ".17g") in text
    loaded = artifact_io.load_document(str(path))
    assert loaded["v"] == value


def test_realization_doc_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    R = make_realization(rng.standard_normal((3, 3)) * 0.4, rng.standard_normal((3, 2)),
                         rng.standard_normal((2, 3)), rng.standard_normal((2, 2)))
    path = tmp_path / "r.json"
    artifact_io.dump_document(artifact_io.realization_doc(R), str(path))
    R2 = artifact_io.realization_from_doc(artifact_io.load_document(str(path)))
    zs = FrequencyGrid.uniform(16).points
    assert np.array_equal(frequency_response(R, zs), frequency_response(R2, zs))


def test_bundle_and_bank_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    plant = random_stable_plant(rng, n=4, m=2, n_d=1)
    part = build_partition([(2, 1), (2, 1)])
    nb = Neighborhoods.complete(2)
    bundle = deadbeat_bundle(plant)
    pat = pattern_from_neighborhoods(part, nb)
    param = build_parametrization(bundle, pat, q=2)
    from nrf_forge.sparse_param import q_from_x
    x = 0.1 * rng.standard_normal(param.n_free)
    pair = form_nrf_pair(bundle, q_from_x(param, x))
    _, bank = bank_from_pair(pair, part)

    artifact_io.export_plant(plant, str(tmp_path / "plant.json"))
    artifact_io.export_bundle(bundle, str(tmp_path / "bundle"))
    artifact_io.export_bank(bank, part, str(tmp_path / "bank"))
    artifact_io.export_parametrization(param, x, str(tmp_path / "param"))

    plant2 = artifact_io.load_plant(str(tmp_path / "plant.json"))
    assert np.array_equal(plant2.A, plant.A)
    bundle2 = artifact_io.load_bundle(str(tmp_path / "bundle"), plant2)
    zs = FrequencyGrid.uniform(8).points
    for name, fac in bundle.factors().items():
        assert np.array_equal(frequency_response(fac, zs),
                              frequency_response(bundle2.factors()[name], zs))
    assert bundle2.bezout_residual == bundle.bezout_residual
    bank2 = artifact_io.load_bank(str(tmp_path / "bank"), part)
    for c1, c2 in zip(bank, bank2):
        assert np.array_equal(c1.B, c2.B)
        assert c1.row_orders == c2.row_orders
    param2, x2 = artifact_io.load_parametrization(str(tmp_path / "param"))
    assert np.array_equal(param2.q0_taps, param.q0_taps)
    assert np.array_equal(param2.basis, param.basis)
    assert np.array_equal(param2.pattern.matrix, param.pattern.matrix)
    assert np.array_equal(param2.support, param.support)
    assert np.array_equal(x2, x)
    # older run directories also carry the parametrization's "mode"
    doc_path = str(tmp_path / "param" / "parametrization.json")
    doc = artifact_io.load_document(doc_path)
    assert "mode" not in doc
    artifact_io.dump_document({**doc, "mode": "factored"}, doc_path)
    param3, _ = artifact_io.load_parametrization(str(tmp_path / "param"))
    assert np.array_equal(param3.basis, param.basis)


def test_bank_manifest_maps_columns(tmp_path):
    rng = np.random.default_rng(3)
    plant = random_stable_plant(rng, n=4, m=2, n_d=1)
    part = build_partition([(2, 1), (2, 1)])
    bundle = deadbeat_bundle(plant)
    pair = form_nrf_pair(bundle, __import__("nrf_forge.lti", fromlist=["fir_realization"])
                         .fir_realization([0.1 * rng.standard_normal((2, 4))]))
    _, bank = bank_from_pair(pair, part)
    artifact_io.export_bank(bank, part, str(tmp_path / "bank"))
    manifest = artifact_io.load_document(str(tmp_path / "bank/manifest.json"))
    cols = {c["column"]: c for c in manifest["input_columns"]}
    assert cols[1] == {"column": 1, "kind": "command_feedforward", "source_area": 1}
    assert cols[2] == {"column": 2, "kind": "command_feedforward", "source_area": 2}
    assert cols[3]["kind"] == "state_feedback" and cols[3]["source_area"] == 1
    assert cols[6]["source_area"] == 2


def test_trace_csv_headers_and_values(tmp_path):
    trace = LoopTrace(
        x=np.array([[1.0, 2.0], [3.0, 4.0]]),
        u_f=np.array([[0.5], [0.25]]),
        u=np.array([[0.5], [0.25]]),
        w=np.zeros((2, 0)),
        start_index=5,
    )
    path = tmp_path / "t.csv"
    artifact_io.export_trace_csv(trace, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,x_1,x_2,uf_1,u_1"
    assert lines[1].startswith("5,1,2,0.5,0.5")


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli_run"))
    assert main(["example-grid", "--out", out]) == 0
    assert main(["design", "--config", os.path.join(out, "config.json"), "--out", out]) == 0
    return out


def test_cli_design_exports_full_artifact_set(cli_run):
    for rel in ("plant.json", "partition.json", "bundle/manifest.json",
                "bank/area_1.json", "maps/forced.json", "param/parametrization.json",
                "prediction_models/area_5.json", "gamma_table.csv",
                "synthesis_report.txt", "objective_trace.csv"):
        assert os.path.exists(os.path.join(cli_run, rel)), rel


def test_cli_design_reruns_byte_identical(cli_run, tmp_path):
    again = str(tmp_path / "again")
    assert main(["design", "--config", os.path.join(cli_run, "config.json"),
                 "--out", again]) == 0
    for rel in ("gamma_table.csv", "synthesis_report.txt", "objective_trace.csv",
                "param/parametrization.json"):
        with open(os.path.join(cli_run, rel), "rb") as a, open(os.path.join(again, rel), "rb") as b:
            assert a.read() == b.read(), rel
    report = open(os.path.join(again, "synthesis_report.txt")).read()
    assert "search point certified: yes\n" in report


def test_cli_verify_passes(cli_run, capsys):
    assert main(["verify", "--out", cli_run]) == 0
    out = capsys.readouterr().out
    assert "PASS  bezout_residual" in out
    assert "FAIL" not in out
    # the scenario counts are part of the certificate, not a speed knob
    report = open(os.path.join(cli_run, "verify_report.txt")).read()
    assert len(report.strip().splitlines()) == 19
    for note in ("20 scenarios x 200 steps", "100 scenarios x 500 steps", "100 random draws"):
        assert note in report


def test_cli_simulate_deterministic(cli_run):
    assert main(["simulate", "--out", cli_run, "--seed", "7"]) == 0
    first = open(os.path.join(cli_run, "traces/monolithic.csv")).read()
    meta1 = artifact_io.load_document(os.path.join(cli_run, "traces/metadata.json"))
    assert main(["simulate", "--out", cli_run, "--seed", "7"]) == 0
    second = open(os.path.join(cli_run, "traces/monolithic.csv")).read()
    meta2 = artifact_io.load_document(os.path.join(cli_run, "traces/metadata.json"))
    assert first == second
    assert meta1 == meta2
    assert meta1["monolithic_vs_distributed_max_abs"] <= 1e-10


def test_cli_report_collates(cli_run, capsys):
    assert main(["report", "--out", cli_run]) == 0
    out = capsys.readouterr().out
    assert "synthesis report" in out
    assert os.path.exists(os.path.join(cli_run, "summary.txt"))


def test_cli_config_error_exit_code(tmp_path):
    assert main(["design", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 2
    assert main(["verify", "--out", str(tmp_path / "empty")]) == 2


def two_area_config(path, synthesis=None):
    """A small stable two-area plant whose design takes well under a second."""
    A = np.diag([0.5, 0.4, 0.3, 0.2])
    A[0, 2] = A[2, 1] = 0.1
    cfg = {"schema_version": 1,
           "plant": {"A": A.tolist(), "B_u": np.eye(4)[:, [0, 2]].tolist(),
                     "B_d": np.ones((4, 1)).tolist()},
           "partition": [[2, 1], [2, 1]], "neighborhoods": [[1, 2], [1, 2]],
           "synthesis": synthesis or {}}
    artifact_io.dump_document(cfg, str(path))
    return str(path)


#: Every key of the former optimizer settings, with a value each once took.
FORMER_OPTIMIZER_KEYS = {"search_grid": 64, "max_free_dims": 1, "max_sweeps": 1, "sweep_tol": 0.5,
                         "initial_step": 2.0, "norm_grid": 16, "refine_passes": 1,
                         "n_starts": 3, "start_scale": 0.1, "seed": 1}


def test_cli_removed_optimizer_keys_are_noted_and_ignored(tmp_path, capsys):
    plain = two_area_config(tmp_path / "plain.json")
    assert main(["design", "--config", plain, "--out", str(tmp_path / "plain")]) == 0
    capsys.readouterr()
    path = two_area_config(tmp_path / "cfg.json",
                           {"optimizer": FORMER_OPTIMIZER_KEYS, "bezout_grid": 8})
    assert main(["design", "--config", path, "--out", str(tmp_path / "out")]) == 0
    notes = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("note:")]
    assert notes == [f"note: {name} is no longer used; the design method is fixed"
                     for name in [f"synthesis.optimizer.{key}" for key in FORMER_OPTIMIZER_KEYS]
                     + ["synthesis.bezout_grid"]]
    for rel in ("gamma_table.csv", "synthesis_report.txt"):
        assert (tmp_path / "out" / rel).read_bytes() == (tmp_path / "plain" / rel).read_bytes(), rel


@pytest.mark.parametrize("optimizer, cause", [
    (5, "synthesis.optimizer must be an object, got 5"),
])
def test_cli_bad_optimizer_setting_is_config_error(tmp_path, capsys, optimizer, cause):
    path = two_area_config(tmp_path / "cfg.json", {"optimizer": optimizer})
    assert main(["design", "--config", path, "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"configuration error: {cause}")


@pytest.mark.parametrize("synthesis, cause", [
    ({"q": "abc"}, "synthesis.q must be an int, got 'abc'"),
    ({"q": 2.5}, "synthesis.q must be an int, got 2.5"),
    ({"bound_slack": "x"}, "synthesis.bound_slack must be a finite float >= 0, got 'x'"),
    ({"bound_slack": -0.5}, "synthesis.bound_slack must be a finite float >= 0, got -0.5"),
    ({"bound_slack": float("inf")}, "synthesis.bound_slack must be a finite float >= 0, got inf"),
    ({"q": 1}, "FIR degree q = 1 is too small; the parametrization needs q >= 2"),
    ({"param_mode": "fir"}, "synthesis.param_mode must be \"factored\", got 'fir'; "
                            "the factored, diagonal-preserving parametrization is the only one"),
    ({"preserve_diagonal": False}, "synthesis.preserve_diagonal must be true, got False; "
                                   "the factored, diagonal-preserving parametrization is the only one"),
])
def test_cli_bad_synthesis_value_is_config_error(tmp_path, capsys, synthesis, cause):
    path = two_area_config(tmp_path / "cfg.json")
    cfg = artifact_io.load_document(path)
    cfg["synthesis"].update(synthesis)
    with open(path, "w") as fh:
        json.dump(cfg, fh)  # writes inf as Infinity, which the config loader accepts
    assert main(["design", "--config", path, "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [f"configuration error: {cause}"]
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("simulation, flags, cause", [
    ({"horizon": 0}, [], "simulation.horizon must be a positive int, got 0"),
    ({"horizon": "abc"}, [], "simulation.horizon must be a positive int, got 'abc'"),
    ({"seed": "7"}, [], "simulation.seed must be a non-negative int, got '7'"),
    ({}, ["--seed", "-1"], "simulation.seed must be a non-negative int, got -1"),
    ({"amplitudes": {"d": "abc"}}, [], "simulation.amplitudes.d must be a finite float, got 'abc'"),
    ({"amplitudes": [1]}, [], "simulation.amplitudes must be an object, got [1]"),
    ({"kinds": {"d": "laplace"}}, [],
     "simulation.kinds.d must be one of ['uniform', 'gauss'], got 'laplace'"),
    ({"amplitudes": {"zeat": 0.5}}, [], "simulation.amplitudes.zeat is not a channel; the channels "
     "are ['d', 'zeta', 'u_s1', 'u_s2', 'beta_s1', 'beta_s2', 'beta_f']"),
    ({"kinds": {"zeat": "gauss"}}, [], "simulation.kinds.zeat is not a channel; the channels "
     "are ['d', 'zeta', 'u_s1', 'u_s2', 'beta_s1', 'beta_s2', 'beta_f']"),
])
def test_cli_bad_simulation_value_is_config_error(cli_run, tmp_path, capsys, simulation, flags, cause):
    cfg = artifact_io.load_document(os.path.join(cli_run, "config.json"))
    cfg["simulation"].update(simulation)
    path = str(tmp_path / "cfg.json")
    artifact_io.dump_document(cfg, path)
    capsys.readouterr()
    assert main(["simulate", "--config", path, "--out", cli_run] + flags) == 2
    assert capsys.readouterr().out.strip().splitlines() == [f"configuration error: {cause}"]


@pytest.mark.parametrize("argv", [["design", "--config", "cfg.json", "--out", "run", "--seed", "3"],
                                  ["verify", "--out", "run", "--q", "3"],
                                  ["design", "--out", "run"]])
def test_cli_flag_a_subcommand_does_not_read_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: nrf-forge" in capsys.readouterr().err


def test_cli_design_q1_is_config_error(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["example-grid", "--out", out]) == 0
    capsys.readouterr()
    assert main(["design", "--config", os.path.join(out, "config.json"),
                 "--out", out, "--q", "1"]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("configuration error:") and "q >= 2" in lines[0]


def test_cli_malformed_json_is_config_error(cli_run, tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_text('{"schema_version": 1,')
    assert main(["design", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    run = str(tmp_path / "run")
    shutil.copytree(cli_run, run)
    with open(os.path.join(run, "plant.json"), "w") as fh:
        fh.write("{not json")
    capsys.readouterr()
    for cmd in ("verify", "simulate"):
        assert main([cmd, "--out", run]) == 2
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("configuration error: malformed JSON in") and "plant.json" in lines[0]


@pytest.mark.parametrize("rel, corrupt, cause", [
    ("bank/area_1.json", lambda doc: doc["row_orders"].append(1), "cannot reshape"),
    ("param/parametrization.json", lambda doc: doc["x"].pop(), "free coefficients"),
    ("maps/forced.json", None, "No such file"),
    ("maps/forced.json", lambda doc: doc["D"]["data"].pop(), "cannot reshape"),
    ("partition.json", lambda doc: doc["neighborhoods"][0].append(9), "out-of-range members [8]"),
    ("partition.json", lambda doc: doc["neighborhoods"][1].remove(2), "area 1 is missing"),
], ids=["extra_row_order", "short_x", "no_forced_map", "short_forced_d", "set_out_of_range",
        "set_without_own_area"])
def test_cli_broken_run_directory_cannot_be_loaded(cli_run, tmp_path, capsys, rel, corrupt, cause):
    run = str(tmp_path / "run")
    shutil.copytree(cli_run, run)
    if corrupt is None:
        os.remove(os.path.join(run, rel))
    else:
        doc = artifact_io.load_document(os.path.join(run, rel))
        corrupt(doc)
        artifact_io.dump_document(doc, os.path.join(run, rel))
    capsys.readouterr()
    for cmd in ("verify", "simulate"):
        assert main([cmd, "--out", run]) == 2
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"cannot load run directory {run}: ") and cause in lines[0]


@pytest.mark.parametrize("column, failing, cause", [
    # 0-based column 11 is area 4's first state, outside area 1's set {1, 2, 3, 5}
    (11, ("communication_constraints", "distributed_equivalence"), "communication constraint violated"),
    # column 1 is area 2's command: a feedthrough the loop cannot order
    (1, ("closed_loop_identity", "distributed_equivalence", "response_decomposition"), "feedthrough"),
], ids=["reads_outside_its_set", "command_feedthrough"])
def test_cli_bank_that_cannot_be_stepped(cli_run, tmp_path, capsys, column, failing, cause):
    run = str(tmp_path / "run")
    shutil.copytree(cli_run, run, ignore=shutil.ignore_patterns("traces"))
    path = os.path.join(run, "bank", "area_1.json")
    doc = artifact_io.load_document(path)
    for row in doc["D"]["data"]:
        row[column] = 0.5
    artifact_io.dump_document(doc, path)
    capsys.readouterr()
    assert main(["verify", "--out", run]) == 4
    report = open(os.path.join(run, "verify_report.txt")).read().strip().splitlines()
    assert len(report) == 19
    for name in failing:
        line = next(r for r in report if f" {name}:" in r)
        assert line.startswith("FAIL") and cause in line, line
    assert any(r.startswith("PASS  bezout_residual") for r in report)
    capsys.readouterr()
    assert main(["simulate", "--out", run]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"cannot simulate the bank in {run}: ") and cause in lines[0]
    assert not os.path.exists(os.path.join(run, "traces"))


def test_cli_uncontrollable_mode_is_infeasible(tmp_path, capsys):
    # state 1 is decoupled from every input: its mode at z = 1.2 is unreachable
    A = np.diag([1.2, 0.5, 0.4, 0.3])
    A[1, 0] = 0.1
    B_u = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.5]])
    cfg = {"schema_version": 1,
           "plant": {"A": A.tolist(), "B_u": B_u.tolist(), "B_d": np.ones((4, 1)).tolist()},
           "partition": [[2, 1], [2, 1]], "neighborhoods": [[1, 2], [1, 2]]}
    path = tmp_path / "cfg.json"
    artifact_io.dump_document(cfg, str(path))
    assert main(["design", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("design infeasible:") and "not controllable" in lines[0]


@pytest.mark.parametrize("strategy, cause", [("bogus", "is unknown"),
                                             ("user_supplied", "needs explicit F and L")])
def test_cli_gain_strategy_is_config_error(tmp_path, capsys, strategy, cause):
    out = str(tmp_path)
    assert main(["example-grid", "--out", out]) == 0
    cfg_path = os.path.join(out, "config.json")
    cfg = artifact_io.load_document(cfg_path)
    cfg["synthesis"]["gain_strategy"] = strategy
    artifact_io.dump_document(cfg, cfg_path)
    capsys.readouterr()
    assert main(["design", "--config", cfg_path, "--out", out]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"configuration error: gain_strategy {strategy!r} {cause}")


def test_cli_dependent_input_columns_is_infeasible(tmp_path, capsys):
    # a stable plant whose two input columns are equal
    B_u = np.array([[1.0, 1.0], [0.0, 0.0], [0.5, 0.5], [0.0, 0.0]])
    cfg = {"schema_version": 1,
           "plant": {"A": np.diag([0.5, 0.4, 0.3, 0.2]).tolist(), "B_u": B_u.tolist(),
                     "B_d": np.ones((4, 1)).tolist()},
           "partition": [[2, 1], [2, 1]], "neighborhoods": [[1, 2], [1, 2]]}
    path = tmp_path / "cfg.json"
    artifact_io.dump_document(cfg, str(path))
    assert main(["design", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("design infeasible:") and "dependent columns" in lines[0]


def test_cli_infeasible_exit_code(tmp_path):
    out = str(tmp_path)
    assert main(["example-grid", "--out", out]) == 0
    cfg_path = os.path.join(out, "config.json")
    cfg = artifact_io.load_document(cfg_path)
    # an isolated area 1 cannot satisfy the matching constraints on the mesh
    cfg["neighborhoods"] = [[1], [2, 4, 5], [3, 4, 5], [2, 3, 4, 5], [2, 3, 4, 5]]
    artifact_io.dump_document(cfg, cfg_path)
    assert main(["design", "--config", cfg_path, "--out", out]) == 3


def test_plant_pre_permutation_helper():
    # interleaved models are reordered (1-based permutations) so that area
    # index sets come out contiguous
    from nrf_forge.cli import _plant_from_config
    A = np.diag([1.0, 2.0, 3.0, 4.0])
    B_u = np.eye(4)[:, [0, 1]]
    B_d = np.eye(4)[:, [3]]
    cfg = {
        "schema_version": 1,
        "plant": {"A": A.tolist(), "B_u": B_u.tolist(), "B_d": B_d.tolist(),
                  "state_permutation": [2, 4, 1, 3], "input_permutation": [2, 1]},
    }
    plant = _plant_from_config(cfg, None)
    assert np.allclose(np.diag(plant.A), [2.0, 4.0, 1.0, 3.0])
    # B rows follow the state permutation; columns follow the input order
    assert np.allclose(plant.B_u, B_u[[1, 3, 0, 2], :][:, [1, 0]])
    assert np.allclose(plant.B_d, B_d[[1, 3, 0, 2], :])


def test_cli_parametrization_keys_at_their_one_value_design(tmp_path):
    path = two_area_config(tmp_path / "cfg.json", {})
    cfg = artifact_io.load_document(path)
    cfg["synthesis"].update({"param_mode": "factored", "preserve_diagonal": True})
    artifact_io.dump_document(cfg, path)
    assert main(["design", "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_cli_non_integer_schema_version_is_config_error(tmp_path, capsys):
    path = str(tmp_path / "cfg.json")
    artifact_io.dump_document({"schema_version": "abc"}, path)
    assert main(["design", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().out.strip().splitlines() == [
        "configuration error: schema_version must be 1, got 'abc'"]


def test_cli_bad_schema_version(tmp_path):
    cfg = {"schema_version": 99}
    path = tmp_path / "cfg.json"
    artifact_io.dump_document(cfg, str(path))
    assert main(["design", "--config", str(path), "--out", str(tmp_path)]) == 2
